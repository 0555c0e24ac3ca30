//! The scaled-`i64` fast path for SHIFTS step 2 (paper §4.4): the
//! corrections are shortest-path distances from a root under
//! `w(p,q) = A_max − m̃s(p,q)` on the complete graph of a closure.
//!
//! [`try_scaled_corrections`] takes one common denominator `S` over the
//! closure's off-diagonal entries *and* `A_max`, forms every weight
//! `S·A_max − S·m̃s(p,q)` as an `i64`, runs [`dense_bellman_ford_i64`]
//! over the row-major matrix and maps each distance `d` back to
//! `Ratio::new(d, S)`. Shortest-path distances are unique and scaling by
//! `S > 0` multiplies every path weight by `S`, so the answer is
//! bit-identical to [`crate::bellman_ford`] over the exact rational graph.
//! It returns `None` — and the caller runs the rational pass — when the
//! closure has an infinite entry, `S` would exceed `2^40`, or a weight's
//! magnitude exceeds `(i64::MAX/4)/(n+1)`.

use clocksync_time::{Ext, Ratio};

use crate::scaling::{common_denominator, scale_exact, walk_limit};
use crate::{NegativeCycleError, SquareMatrix, UNREACHABLE};

/// Single-source shortest paths over a dense sentinel-encoded `i64`
/// matrix: entry `(u, v)` is the weight of edge `u → v`, or
/// [`UNREACHABLE`] for no edge (diagonal entries are self-loops). Returns
/// the distance from `source` to every node, [`UNREACHABLE`] where there
/// is no path.
///
/// Rounds relax every row in order and stop at the first round that
/// changes nothing, so a shortest-path tree of depth `k` costs `k + 1`
/// passes over the `n²` entries.
///
/// Callers keep every weight's magnitude within `(i64::MAX/4)/(n+1)`. A
/// simple path then weighs at least `−(n−1)` times that bound, so a
/// distance below it proves a negative cycle and the kernel stops there:
/// no sum it forms can overflow, with or without a negative cycle.
///
/// # Errors
///
/// Returns [`NegativeCycleError`] if a negative cycle is reachable from
/// `source`.
///
/// # Panics
///
/// Panics if `source` is not a node of `weights`.
///
/// # Examples
///
/// ```
/// use clocksync_graph::{dense_bellman_ford_i64, SquareMatrix, UNREACHABLE};
///
/// let mut w = SquareMatrix::filled(3, UNREACHABLE);
/// w[(0, 1)] = 4;
/// w[(0, 2)] = 10;
/// w[(1, 2)] = -3;
/// assert_eq!(dense_bellman_ford_i64(&w, 0)?, vec![0, 4, 1]);
/// assert_eq!(dense_bellman_ford_i64(&w, 2)?, vec![UNREACHABLE, UNREACHABLE, 0]);
/// # Ok::<(), clocksync_graph::NegativeCycleError>(())
/// ```
pub fn dense_bellman_ford_i64(
    weights: &SquareMatrix<i64>,
    source: usize,
) -> Result<Vec<i64>, NegativeCycleError> {
    let n = weights.n();
    assert!(source < n, "source out of range");
    let limit = walk_limit(n);
    debug_assert!(
        weights
            .as_slice()
            .iter()
            .all(|&w| w == UNREACHABLE || (-limit..=limit).contains(&w)),
        "weights must stay within (i64::MAX/4)/(n+1)"
    );
    let floor = -(n as i64 - 1) * limit;
    let mut dist = vec![UNREACHABLE; n];
    dist[source] = 0;
    for round in 0..n {
        let mut changed = false;
        for (u, row) in weights.as_slice().chunks_exact(n).enumerate() {
            let du = dist[u];
            if du == UNREACHABLE {
                continue;
            }
            for (v, &w) in row.iter().enumerate() {
                if w == UNREACHABLE {
                    continue;
                }
                let candidate = du + w;
                if candidate < dist[v] {
                    if round == n - 1 || candidate < floor {
                        return Err(NegativeCycleError { witness: v });
                    }
                    dist[v] = candidate;
                    changed = true;
                }
            }
        }
        if !changed {
            break;
        }
    }
    Ok(dist)
}

/// Runs SHIFTS step 2 — distances from `root` under
/// `w(p,q) = a_max − closure[(p,q)]` over every off-diagonal pair — in
/// exact scaled `i64` if the inputs admit it. Returns `None` when they do
/// not (an infinite off-diagonal entry, a common denominator above `2^40`,
/// or a weight magnitude above `(i64::MAX/4)/(n+1)`); the caller then
/// runs the rational [`crate::bellman_ford`], which gives the same
/// distances. Exposed so tests can tell "fast path taken" apart from
/// "silently fell back".
///
/// # Errors
///
/// The inner result is [`NegativeCycleError`] when the shifted weights
/// have a negative cycle, i.e. `a_max` is below the closure's maximum
/// cycle mean.
///
/// # Panics
///
/// Panics if `root` is not a node of `closure`.
///
/// # Examples
///
/// ```
/// use clocksync_graph::{try_scaled_corrections, SquareMatrix};
/// use clocksync_time::{Ext, Ratio};
///
/// // m̃s(0,1) = 3, m̃s(1,0) = 2: A_max = 5/2, and the correction of
/// // node 1 is A_max − m̃s(0,1) = −1/2.
/// let mut m = SquareMatrix::filled(2, Ext::Finite(Ratio::ZERO));
/// m[(0, 1)] = Ext::Finite(Ratio::from_int(3));
/// m[(1, 0)] = Ext::Finite(Ratio::from_int(2));
/// let dist = try_scaled_corrections(&m, Ratio::new(5, 2), 0)
///     .expect("scalable")
///     .expect("no negative cycle at A_max");
/// assert_eq!(dist, vec![Ratio::ZERO, Ratio::new(-1, 2)]);
/// ```
pub fn try_scaled_corrections(
    closure: &SquareMatrix<Ext<Ratio>>,
    a_max: Ratio,
    root: usize,
) -> Option<Result<Vec<Ratio>, NegativeCycleError>> {
    let n = closure.n();
    assert!(root < n, "root out of range");
    let finite = closure
        .iter_off_diagonal()
        .filter_map(|(_, _, w)| w.finite());
    let scale = common_denominator(finite.chain([a_max]))?;
    let a = scale_exact(a_max, scale)?;
    let limit = walk_limit(n);
    let mut weights = SquareMatrix::filled(n, UNREACHABLE);
    for (p, q, &w) in closure.iter_off_diagonal() {
        let m = scale_exact(w.finite()?, scale)?;
        weights[(p, q)] = a.checked_sub(m).filter(|v| (-limit..=limit).contains(v))?;
    }
    Some(dense_bellman_ford_i64(&weights, root).map(|dist| {
        dist.into_iter()
            .map(|d| Ratio::new(d as i128, scale))
            .collect()
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fin(num: i128, den: i128) -> Ext<Ratio> {
        Ext::Finite(Ratio::new(num, den))
    }

    /// Two nodes with m̃s(0,1) = a, m̃s(1,0) = b; `A_max = (a + b)/2`.
    fn two_node(a: Ext<Ratio>, b: Ext<Ratio>) -> (SquareMatrix<Ext<Ratio>>, Ratio) {
        let mut m = SquareMatrix::filled(2, fin(0, 1));
        m[(0, 1)] = a;
        m[(1, 0)] = b;
        let a_max = (a.finite().unwrap() + b.finite().unwrap()) * Ratio::new(1, 2);
        (m, a_max)
    }

    #[test]
    fn a_max_denominator_counts_toward_the_cap() {
        // The closure alone scales (denominators 1 and p); A_max's coprime
        // denominator q pushes the LCM past 2^40.
        let (p, q) = ((1i128 << 21) - 9, (1i128 << 21) - 21);
        let (m, _) = two_node(fin(1, p), fin(1, 1));
        assert!(try_scaled_corrections(&m, Ratio::new(1, q), 0).is_none());
    }

    #[test]
    fn infinite_entries_fall_back() {
        let (mut m, a_max) = two_node(fin(3, 1), fin(1, 1));
        m[(0, 1)] = Ext::PosInf;
        assert!(try_scaled_corrections(&m, a_max, 0).is_none());
        // The diagonal is not an edge of the shifted graph.
        let (mut m, a_max) = two_node(fin(3, 1), fin(1, 1));
        m[(0, 0)] = Ext::PosInf;
        assert!(try_scaled_corrections(&m, a_max, 0).is_some());
    }

    #[test]
    fn a_max_below_the_maximum_cycle_mean_is_a_negative_cycle() {
        let (m, a_max) = two_node(fin(3, 1), fin(1, 1));
        let below = a_max - Ratio::new(1, 2);
        assert!(try_scaled_corrections(&m, below, 0).unwrap().is_err());
    }

    #[test]
    fn negative_cycles_at_the_magnitude_limit_never_overflow() {
        // A cycle of n edges of weight −limit loses n·limit per round;
        // without the floor check the sums would wrap within a few rounds
        // (a panic in debug builds).
        for n in [2usize, 5, 64] {
            let limit = walk_limit(n);
            let mut w = SquareMatrix::filled(n, UNREACHABLE);
            for v in 0..n {
                w[(v, (v + 1) % n)] = -limit;
            }
            assert!(dense_bellman_ford_i64(&w, 0).is_err(), "n = {n}");
        }
        let mut w = SquareMatrix::filled(1, UNREACHABLE);
        w[(0, 0)] = -1;
        assert!(dense_bellman_ford_i64(&w, 0).is_err());
    }
}
