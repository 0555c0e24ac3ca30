//! Property equivalence of the scaled-`i64` SHIFTS corrections pass
//! against the exact rational Bellman–Ford (DESIGN.md §4c):
//!
//! * on closure-shaped matrices, with `A_max` from each of the three
//!   kernels, [`try_scaled_corrections`] must take the fast path and
//!   return the rational distances **bit for bit**;
//! * [`dense_bellman_ford_i64`] must agree with the generic
//!   [`bellman_ford`] on arbitrary sparse `i64` graphs, negative cycles
//!   included.
//!
//! Each suite runs 1000 random cases.

use clocksync_graph::{
    bellman_ford, dense_bellman_ford_i64, fast_max_cycle_mean, floyd_warshall, howard_solve,
    karp_max_cycle_mean, try_scaled_corrections, DiGraph, SquareMatrix, UNREACHABLE,
};
use clocksync_time::{Ext, Ratio};
use proptest::prelude::*;

type W = Ext<Ratio>;

/// A random fraction with denominator 1 or 2.
fn half_steps(lo: i128, hi: i128) -> impl Strategy<Value = Ratio> {
    (lo..=hi, 1i128..=2).prop_map(|(num, den)| Ratio::new(num, den))
}

/// A metric closure of estimates, `2 ≤ n ≤ 8`: local estimates
/// `x_q − x_p + slack(p,q)` with hidden offsets `x` and nonnegative slack,
/// so entries may be negative but no cycle is, closed by Floyd–Warshall.
/// Denominators are 1 and 2, as estimates from integer-nanosecond
/// observations are.
fn closure_shaped() -> impl Strategy<Value = SquareMatrix<W>> {
    (2usize..=8).prop_flat_map(|n| {
        (
            proptest::collection::vec(half_steps(-50, 50), n),
            proptest::collection::vec(half_steps(0, 60), n * n),
        )
            .prop_map(move |(offsets, slack)| {
                let local = SquareMatrix::from_fn(n, |p, q| {
                    if p == q {
                        Ext::Finite(Ratio::ZERO)
                    } else {
                        Ext::Finite(offsets[q] - offsets[p] + slack[p * n + q])
                    }
                });
                floyd_warshall(&local).expect("slack is nonnegative, so no cycle is negative")
            })
    })
}

/// The rational reference pass: Bellman–Ford over the complete
/// `Ext<Ratio>` graph of `a_max − closure[(p,q)]`.
fn rational_corrections(closure: &SquareMatrix<W>, a_max: Ratio, root: usize) -> Vec<Ratio> {
    let mut g = DiGraph::new(closure.n());
    for (p, q, &w) in closure.iter_off_diagonal() {
        g.add_edge(
            p,
            q,
            Ext::Finite(a_max - w.finite().expect("closure is finite")),
        );
    }
    let dist = bellman_ford(&g, root).expect("no negative cycle at A_max");
    dist.into_iter()
        .map(|d| d.finite().expect("complete graph"))
        .collect()
}

/// A random sparse `i64` digraph for the kernel race, `1 ≤ n ≤ 8`: about
/// a third of the entries are absent, weights in `[−12, 48]`, so some
/// graphs have negative cycles.
fn sparse_i64() -> impl Strategy<Value = (SquareMatrix<i64>, usize)> {
    (1usize..=8).prop_flat_map(|n| {
        (
            proptest::collection::vec(prop_oneof![1 => Just(UNREACHABLE), 2 => -12i64..=48], n * n),
            0..n,
        )
            .prop_map(move |(cells, source)| (SquareMatrix::from_vec(n, cells), source))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1000))]

    #[test]
    fn scaled_corrections_are_bit_identical_to_rational(
        m in closure_shaped(),
        root_pick in 0usize..8,
    ) {
        let root = root_pick % m.n();
        let a_max = karp_max_cycle_mean(&m).expect("complete graph has cycles").mean;
        let scaled = fast_max_cycle_mean(&m).expect("complete graph has cycles").mean;
        let howard = howard_solve(&m, None).expect("complete graph has cycles").cycle_mean.mean;
        prop_assert_eq!(scaled, a_max);
        prop_assert_eq!(howard, a_max);
        let reference = rational_corrections(&m, a_max, root);
        for kernel_a_max in [a_max, scaled, howard] {
            let fast = try_scaled_corrections(&m, kernel_a_max, root);
            prop_assert!(fast.is_some(), "scaling unexpectedly fell back");
            prop_assert_eq!(fast.unwrap().expect("no negative cycle"), reference.clone());
        }
        // Theorem 4.6: the corrections achieve A_max on every pair.
        for (p, q, &w) in m.iter_off_diagonal() {
            let w = w.finite().expect("closure is finite");
            prop_assert!(w - reference[p] + reference[q] <= a_max);
        }
    }

    #[test]
    fn dense_kernel_matches_generic_bellman_ford((w, source) in sparse_i64()) {
        let n = w.n();
        let mut g = DiGraph::new(n);
        for (u, v, &x) in w.iter() {
            if x != UNREACHABLE {
                g.add_edge(u, v, Ext::Finite(x));
            }
        }
        let expected = bellman_ford(&g, source).map(|d| {
            d.into_iter()
                .map(|x| x.finite().unwrap_or(UNREACHABLE))
                .collect::<Vec<_>>()
        });
        let got = dense_bellman_ford_i64(&w, source);
        prop_assert_eq!(got.is_err(), expected.is_err());
        if let (Ok(got), Ok(expected)) = (got, expected) {
            prop_assert_eq!(got, expected);
        }
    }
}
