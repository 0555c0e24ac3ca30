//! The SHIFTS function (paper §4.4): optimal corrections from global shift
//! estimates.
//!
//! The stage splits into two steps: `A_max` (a maximum cycle mean) and a
//! single-source shortest-path pass. For `A_max` three interchangeable
//! kernels exist — see [`ShiftsKernel`]. All of them are exact and agree on
//! every input; [`shifts`] runs Howard's policy iteration, which the online
//! synchronizer warm-starts from the previous policy, and keeps Karp (the
//! paper's algorithm) as the differential oracle the test suite races it
//! against. Howard is not the fastest cold kernel: scaled-`i64` Karp beats
//! it on closure-shaped matrices (`BENCH_karp.json`: 40.9 ms against
//! 164 ms at n = 256; the e2ebench kernel rows at n = 64: 1.14 ms against
//! 2.68 ms cold and 1.36 ms warm). The shortest-path pass runs in exact
//! scaled `i64` and falls back to rationals only when scaling bails.
//! DESIGN.md §4c spells out the scaling bounds, the fallback rules, and
//! the warm-start invariant.

use clocksync_graph::{
    bellman_ford, fast_max_cycle_mean, howard_solve, karp_max_cycle_mean, try_scaled_corrections,
    CycleMean, DiGraph, SquareMatrix,
};
use clocksync_model::ProcessorId;
use clocksync_time::{Ext, ExtRatio, Ratio};

/// The output of [`shifts`] on one synchronizable component.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShiftsResult {
    /// Optimal correction for each member, in `members` order.
    pub corrections: Vec<Ratio>,
    /// The optimal precision `A_max` of the component.
    pub precision: Ratio,
    /// A cyclic processor sequence achieving the maximum average shift —
    /// the bottleneck that *forces* the precision (Theorem 4.4). Indices
    /// are into `members`.
    pub critical_cycle: Vec<usize>,
}

/// Which maximum-cycle-mean engine computes `A_max` inside [`shifts`].
///
/// Every kernel is exact: `A_max` and the corrections are bit-identical
/// across all three on every input (a property the equivalence suite
/// checks); only the witness cycle may differ, and each kernel's witness
/// certifies the same precision. They differ solely in speed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ShiftsKernel {
    /// Howard's policy iteration — the default, and the only
    /// warm-startable kernel. Cold, it is slower than
    /// [`ShiftsKernel::KarpScaled`] on closure-shaped instances (2.68 ms
    /// against 1.14 ms at n = 64 in the e2ebench kernel rows); warm, it
    /// took 1.36 ms there.
    #[default]
    Howard,
    /// Karp through the scaled-`i64` kernel
    /// ([`clocksync_graph::fast_max_cycle_mean`]), falling back to the
    /// exact rational Karp when scaling would overflow.
    KarpScaled,
    /// The exact-rational Karp recurrence — the paper's algorithm, kept as
    /// the differential oracle for the fast kernels.
    KarpExact,
}

impl ShiftsKernel {
    /// Stable short name, recorded on the `sync.shifts` observability span.
    pub fn name(self) -> &'static str {
        match self {
            ShiftsKernel::Howard => "howard",
            ShiftsKernel::KarpScaled => "karp-scaled-i64",
            ShiftsKernel::KarpExact => "karp-rational",
        }
    }
}

/// Cached SHIFTS state of one component, in component-local indices: the
/// certified `A_max` with its witness cycle, and the converged Howard
/// policy for warm-starting the next resynchronization.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct ShiftsState {
    pub(crate) a_max: Ratio,
    pub(crate) cycle: Vec<usize>,
    pub(crate) policy: Vec<usize>,
}

/// Runs the SHIFTS function on a *finite* closure of global shift
/// estimates (all entries of `closure` must be finite):
///
/// 1. `A_max = max_θ m̃s(θ)/|θ|` over cyclic sequences — a maximum cycle
///    mean on the complete graph of estimates (by Lemma 4.5 this equals
///    the true `A_max` over actual maximal shifts), computed by the
///    default [`ShiftsKernel::Howard`];
/// 2. corrections are shortest-path distances from `root` under
///    `w(p,q) = A_max − m̃s(p,q)` (no negative cycles by construction).
///
/// The caller (the synchronizer) is responsible for splitting the system
/// into components with finite mutual estimates first.
///
/// # Panics
///
/// Panics if any closure entry is infinite, or if the closure admits a
/// negative cycle under the derived weights (impossible for a closure that
/// passed [`crate::global_estimates`]).
pub fn shifts(closure: &SquareMatrix<ExtRatio>, root: usize) -> ShiftsResult {
    shifts_with_kernel(closure, root, ShiftsKernel::default())
}

/// [`shifts`] with an explicit `A_max` kernel choice — the hook the
/// equivalence tests and benches use to race the engines against each
/// other. Contract and panics as [`shifts`].
pub fn shifts_with_kernel(
    closure: &SquareMatrix<ExtRatio>,
    root: usize,
    kernel: ShiftsKernel,
) -> ShiftsResult {
    let n = closure.n();
    assert!(root < n, "root out of range");
    if n == 1 {
        return trivial_result();
    }
    // All entries are finite and the diagonal is 0, so a cycle always
    // exists and A_max ≥ 0.
    let cm: CycleMean = match kernel {
        ShiftsKernel::Howard => {
            howard_solve(closure, None)
                .expect("closure always contains cycles")
                .cycle_mean
        }
        ShiftsKernel::KarpScaled => {
            fast_max_cycle_mean(closure).expect("closure always contains cycles")
        }
        ShiftsKernel::KarpExact => {
            karp_max_cycle_mean(closure).expect("closure always contains cycles")
        }
    };
    ShiftsResult {
        corrections: corrections_under(closure, root, cm.mean),
        precision: cm.mean,
        critical_cycle: cm.cycle,
    }
}

/// The Howard-kernel SHIFTS with incremental `A_max`, for the online
/// synchronizer: returns the result plus the [`ShiftsState`] to warm-start
/// the next call.
///
/// When `warm` is given, the caller asserts that since that state was
/// computed the closure evolved **only by entrywise tightenings under the
/// same component partition** (the online synchronizer's `relax_edge`
/// regime). Then every cycle mean is ≤ its cached value, so if the cached
/// critical cycle's mean is unchanged it is still the maximum — `A_max`,
/// witness, and policy are reused without running any cycle-mean kernel at
/// all (`O(n)` revalidation). Otherwise Howard restarts from the cached
/// policy, which is still a valid policy (finite entries stay finite) and
/// usually one improvement step from optimal.
///
/// # Panics
///
/// As [`shifts`].
pub(crate) fn shifts_howard_warm(
    closure: &SquareMatrix<ExtRatio>,
    root: usize,
    warm: Option<&ShiftsState>,
) -> (ShiftsResult, ShiftsState) {
    let n = closure.n();
    assert!(root < n, "root out of range");
    if n == 1 {
        let state = ShiftsState {
            a_max: Ratio::ZERO,
            cycle: vec![0],
            policy: vec![0],
        };
        return (trivial_result(), state);
    }
    let revalidated = warm.filter(|s| {
        s.policy.len() == n
            && !s.cycle.is_empty()
            && s.cycle.iter().all(|&v| v < n)
            && cycle_mean(closure, &s.cycle) == s.a_max
    });
    let state = match revalidated {
        Some(s) => s.clone(),
        None => {
            let sol = howard_solve(closure, warm.map(|s| s.policy.as_slice()))
                .expect("closure always contains cycles");
            ShiftsState {
                a_max: sol.cycle_mean.mean,
                cycle: sol.cycle_mean.cycle,
                policy: sol.policy,
            }
        }
    };
    let result = ShiftsResult {
        corrections: corrections_under(closure, root, state.a_max),
        precision: state.a_max,
        critical_cycle: state.cycle.clone(),
    };
    (result, state)
}

fn trivial_result() -> ShiftsResult {
    ShiftsResult {
        corrections: vec![Ratio::ZERO],
        precision: Ratio::ZERO,
        critical_cycle: vec![0],
    }
}

/// The mean weight of a cyclic node sequence over the closure.
fn cycle_mean(closure: &SquareMatrix<ExtRatio>, cycle: &[usize]) -> Ratio {
    let mut total = Ratio::ZERO;
    for t in 0..cycle.len() {
        let (from, to) = (cycle[t], cycle[(t + 1) % cycle.len()]);
        total += closure[(from, to)].expect_finite("shifts requires a finite closure");
    }
    total * Ratio::new(1, cycle.len() as i128)
}

/// Step 2 of SHIFTS: distances from `root` under `w(p,q) = A_max − m̃s(p,q)`,
/// in exact scaled `i64` ([`try_scaled_corrections`]) unless scaling
/// bails, in which case the rational pass runs. Both give the same
/// distances (shortest-path distances are unique); debug builds check
/// this on every call.
fn corrections_under(closure: &SquareMatrix<ExtRatio>, root: usize, a_max: Ratio) -> Vec<Ratio> {
    let Some(scaled) = try_scaled_corrections(closure, a_max, root) else {
        return rational_corrections(closure, root, a_max);
    };
    let dist = scaled.expect("A_max-shifted closure has no negative cycles by Theorem 4.4");
    debug_assert_eq!(dist, rational_corrections(closure, root, a_max));
    dist
}

/// The exact-rational step 2: Bellman–Ford over the complete
/// `Ext<Ratio>` graph. The fallback of [`corrections_under`] and its
/// differential oracle.
fn rational_corrections(closure: &SquareMatrix<ExtRatio>, root: usize, a_max: Ratio) -> Vec<Ratio> {
    let n = closure.n();
    let mut g = DiGraph::new(n);
    for (i, j, &w) in closure.iter_off_diagonal() {
        let w = w.expect_finite("shifts requires a finite closure");
        g.add_edge(i, j, Ext::Finite(a_max - w));
    }
    let dist = bellman_ford(&g, root)
        .expect("A_max-shifted closure has no negative cycles by Theorem 4.4");
    dist.into_iter()
        .map(|d| d.expect_finite("complete graph distances are finite"))
        .collect()
}

/// Groups processors into *synchronizable components*: `p` and `q` belong
/// together iff both `m̃s(p,q)` and `m̃s(q,p)` are finite, i.e. a two-sided
/// bound between their clocks exists. The relation is transitive by the
/// triangle inequality of the closure, so this is a partition.
///
/// Components are returned sorted by smallest member, members sorted
/// ascending.
pub fn synchronizable_components(closure: &SquareMatrix<ExtRatio>) -> Vec<Vec<ProcessorId>> {
    let n = closure.n();
    let mut assigned = vec![false; n];
    let mut components = Vec::new();
    for i in 0..n {
        if assigned[i] {
            continue;
        }
        let mut members = vec![ProcessorId(i)];
        assigned[i] = true;
        for j in (i + 1)..n {
            if !assigned[j] && closure[(i, j)].is_finite() && closure[(j, i)].is_finite() {
                members.push(ProcessorId(j));
                assigned[j] = true;
            }
        }
        components.push(members);
    }
    components
}

#[cfg(test)]
mod tests {
    use super::*;
    use clocksync_graph::Weight;

    fn fin(x: i128) -> ExtRatio {
        Ext::Finite(Ratio::from_int(x))
    }

    /// Closure of a two-node system with m̃s(0,1)=a, m̃s(1,0)=b.
    fn two_node(a: i128, b: i128) -> SquareMatrix<ExtRatio> {
        let mut m = SquareMatrix::filled(2, <ExtRatio as Weight>::zero());
        m[(0, 1)] = fin(a);
        m[(1, 0)] = fin(b);
        m
    }

    #[test]
    fn two_node_precision_is_half_the_uncertainty() {
        // A_max = (a + b)/2; the classic ±uncertainty/2 bound.
        let r = shifts(&two_node(6, 2), 0);
        assert_eq!(r.precision, Ratio::from_int(4));
        // Correction of root is 0; the other gets w(0,1) = A_max − m̃s(0,1).
        assert_eq!(r.corrections[0], Ratio::ZERO);
        assert_eq!(r.corrections[1], Ratio::from_int(-2));
        assert_eq!(r.critical_cycle.len(), 2);
    }

    #[test]
    fn all_kernels_agree_on_precision_and_corrections() {
        let mut tri = SquareMatrix::filled(3, <ExtRatio as Weight>::zero());
        tri[(0, 1)] = fin(10);
        tri[(1, 2)] = fin(10);
        tri[(2, 0)] = fin(10);
        tri[(1, 0)] = fin(1);
        tri[(2, 1)] = fin(1);
        tri[(0, 2)] = fin(11);
        let closures = [two_node(6, 2), two_node(0, 0), two_node(100, 1), tri];
        for c in &closures {
            let reference = shifts_with_kernel(c, 0, ShiftsKernel::KarpExact);
            for kernel in [ShiftsKernel::Howard, ShiftsKernel::KarpScaled] {
                let r = shifts_with_kernel(c, 0, kernel);
                assert_eq!(r.precision, reference.precision, "{kernel:?} on {c:?}");
                assert_eq!(r.corrections, reference.corrections, "{kernel:?} on {c:?}");
                // Every kernel's witness certifies the same precision.
                assert_eq!(cycle_mean(c, &r.critical_cycle), r.precision);
            }
        }
    }

    #[test]
    fn kernel_names_are_stable() {
        assert_eq!(ShiftsKernel::default().name(), "howard");
        assert_eq!(ShiftsKernel::KarpScaled.name(), "karp-scaled-i64");
        assert_eq!(ShiftsKernel::KarpExact.name(), "karp-rational");
    }

    #[test]
    fn warm_state_revalidates_after_harmless_tightening() {
        // First call: cold. Tighten an entry that does NOT touch the
        // critical cycle: the cached cycle revalidates and A_max is reused.
        let mut c = two_node(6, 2);
        let (first, state) = shifts_howard_warm(&c, 0, None);
        c[(0, 1)] = fin(6); // no-op tightening
        let (second, state2) = shifts_howard_warm(&c, 0, Some(&state));
        assert_eq!(first, second);
        assert_eq!(state, state2);
    }

    #[test]
    fn warm_state_recomputes_when_the_critical_cycle_drops() {
        let mut c = two_node(6, 2);
        let (_, state) = shifts_howard_warm(&c, 0, None);
        // Tighten an edge on the critical cycle: A_max falls from 4 to 3.
        c[(0, 1)] = fin(4);
        let (warm, new_state) = shifts_howard_warm(&c, 0, Some(&state));
        let cold = shifts(&c, 0);
        assert_eq!(warm.precision, Ratio::from_int(3));
        assert_eq!(warm.precision, cold.precision);
        assert_eq!(warm.corrections, cold.corrections);
        assert_eq!(new_state.a_max, warm.precision);
    }

    #[test]
    fn warm_state_with_mismatched_size_is_ignored() {
        let c = two_node(6, 2);
        let stale = ShiftsState {
            a_max: Ratio::from_int(99),
            cycle: vec![0, 1, 2],
            policy: vec![0],
        };
        let (r, _) = shifts_howard_warm(&c, 0, Some(&stale));
        assert_eq!(r, shifts(&c, 0));
    }

    #[test]
    fn guarantee_inequality_holds_for_all_pairs() {
        // For every p, q: m̃s(p,q) − x_p + x_q ≤ A_max (proof of Thm 4.6).
        let closures = [two_node(6, 2), two_node(0, 0), two_node(100, 1)];
        for c in closures {
            let r = shifts(&c, 0);
            for (i, j, &w) in c.iter_off_diagonal() {
                let w = w.finite().unwrap();
                assert!(
                    w - r.corrections[i] + r.corrections[j] <= r.precision,
                    "violated at ({i},{j})"
                );
            }
        }
    }

    #[test]
    fn root_choice_shifts_corrections_by_a_constant_effect() {
        // Different roots may change the corrections, but the guarantee
        // (and hence optimality) is root-independent.
        let c = two_node(6, 2);
        let r0 = shifts(&c, 0);
        let r1 = shifts(&c, 1);
        assert_eq!(r0.precision, r1.precision);
        for (i, j, &w) in c.iter_off_diagonal() {
            let w = w.finite().unwrap();
            assert!(w - r1.corrections[i] + r1.corrections[j] <= r1.precision);
        }
    }

    #[test]
    fn single_node_component() {
        let m = SquareMatrix::filled(1, <ExtRatio as Weight>::zero());
        let r = shifts(&m, 0);
        assert_eq!(r.precision, Ratio::ZERO);
        assert_eq!(r.corrections, vec![Ratio::ZERO]);
        let (rw, state) = shifts_howard_warm(&m, 0, None);
        assert_eq!(rw, r);
        assert_eq!(state.policy, vec![0]);
    }

    #[test]
    fn triangle_closure_with_asymmetric_estimates() {
        // 3 nodes; dominant 3-cycle mean.
        let mut m = SquareMatrix::filled(3, <ExtRatio as Weight>::zero());
        m[(0, 1)] = fin(10);
        m[(1, 2)] = fin(10);
        m[(2, 0)] = fin(10);
        m[(1, 0)] = fin(1);
        m[(2, 1)] = fin(1);
        m[(0, 2)] = fin(11); // keep triangle inequality: 0→2 ≤ 0→1→2 = 20
        let r = shifts(&m, 0);
        // Cycle 0→1→2→0 has mean 10; all 2-cycles have mean ≤ (11+10)/2=10.5
        // via (0,2),(2,0): (11+10)/2 = 10.5. So A_max = 21/2.
        assert_eq!(r.precision, Ratio::new(21, 2));
        for (i, j, &w) in m.iter_off_diagonal() {
            let w = w.finite().unwrap();
            assert!(w - r.corrections[i] + r.corrections[j] <= r.precision);
        }
    }

    /// Every kernel's SHIFTS on `c` must give the rational pass's
    /// corrections, whether or not the scaled pass applies.
    fn assert_corrections_match_rational(c: &SquareMatrix<ExtRatio>) {
        for kernel in [
            ShiftsKernel::Howard,
            ShiftsKernel::KarpScaled,
            ShiftsKernel::KarpExact,
        ] {
            let r = shifts_with_kernel(c, 0, kernel);
            assert_eq!(
                r.corrections,
                rational_corrections(c, 0, r.precision),
                "{kernel:?}"
            );
        }
    }

    #[test]
    fn corrections_fall_back_when_the_common_denominator_passes_the_cap() {
        // Coprime denominators, each below 2^40, whose LCM is above it.
        let (p, q) = ((1i128 << 21) - 9, (1i128 << 21) - 21);
        let mut c = two_node(0, 0);
        c[(0, 1)] = Ext::Finite(Ratio::new(1, p));
        c[(1, 0)] = Ext::Finite(Ratio::new(1, q));
        let r = shifts(&c, 0);
        assert!(try_scaled_corrections(&c, r.precision, 0).is_none());
        assert_corrections_match_rational(&c);
    }

    #[test]
    fn corrections_fall_back_one_past_the_magnitude_limit() {
        // Two nodes: A_max = (a + b)/2 and the weights are ±(b − a)/2, so
        // b = 2·limit puts a weight exactly on (i64::MAX/4)/(n+1).
        let limit = ((i64::MAX / 4) / 3) as i128;
        let at = two_node(0, 2 * limit);
        assert!(try_scaled_corrections(&at, shifts(&at, 0).precision, 0).is_some());
        assert_corrections_match_rational(&at);
        let past = two_node(0, 2 * (limit + 1));
        assert!(try_scaled_corrections(&past, shifts(&past, 0).precision, 0).is_none());
        assert_corrections_match_rational(&past);
    }

    #[test]
    fn components_partition_by_mutual_finiteness() {
        let mut m = SquareMatrix::filled(4, Ext::PosInf);
        for i in 0..4 {
            m[(i, i)] = fin(0);
        }
        // {0,1} mutually bounded, {2,3} mutually bounded, one-way 1→2 only.
        m[(0, 1)] = fin(5);
        m[(1, 0)] = fin(5);
        m[(2, 3)] = fin(5);
        m[(3, 2)] = fin(5);
        m[(1, 2)] = fin(5);
        let comps = synchronizable_components(&m);
        assert_eq!(
            comps,
            vec![
                vec![ProcessorId(0), ProcessorId(1)],
                vec![ProcessorId(2), ProcessorId(3)],
            ]
        );
    }

    #[test]
    fn fully_finite_closure_is_one_component() {
        let comps = synchronizable_components(&two_node(1, 1));
        assert_eq!(comps.len(), 1);
        assert_eq!(comps[0].len(), 2);
    }
}
