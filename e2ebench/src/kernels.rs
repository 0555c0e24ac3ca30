//! `A_max` kernel rows on the workloads' real closures.
//!
//! For every synchronizable component of a domain's final closure the
//! same instance is solved by warm Howard (started from the policy of the
//! closure the domain's last outcome query saw, as `outcome()` does), cold
//! Howard and scaled-`i64` Karp, both as bare maximum-cycle-mean kernels
//! and through `shifts_with_kernel` (which adds the corrections pass).
//! The cold GLOBAL ESTIMATES rebuild, `Closure::fast` on the domain's
//! local estimates, is timed alongside. Each time is the median of a few
//! repetitions; all kernels must agree on `A_max`.

use std::time::Instant;

use clocksync::{shifts_with_kernel, synchronizable_components, OnlineSynchronizer, ShiftsKernel};
use clocksync_graph::{fast_max_cycle_mean, howard_solve, Closure, SquareMatrix};
use clocksync_time::ExtRatio;

use crate::stats::median;
use crate::verify::Tally;

const REPS: usize = 5;

/// Median wall time of `REPS` calls of `f`, nanoseconds, and its last
/// result.
fn timed<T>(mut f: impl FnMut() -> T) -> (f64, T) {
    let mut times = Vec::with_capacity(REPS);
    let mut last = None;
    for _ in 0..REPS {
        let t0 = Instant::now();
        let out = std::hint::black_box(f());
        times.push(t0.elapsed().as_nanos() as f64);
        last = Some(out);
    }
    (median(&times), last.expect("REPS > 0"))
}

/// Per-instance kernel times, nanoseconds.
#[derive(Debug, Clone, Default)]
pub struct KernelRows {
    /// `Closure::fast` per domain.
    pub closure_fast: Vec<f64>,
    /// Warm `howard_solve` per component that has a warm policy.
    pub howard_warm: Vec<f64>,
    /// Cold `howard_solve` per component.
    pub howard_solve_cold: Vec<f64>,
    /// `fast_max_cycle_mean` (scaled Karp) per component.
    pub karp_solve: Vec<f64>,
    /// `shifts_with_kernel(Howard)` per component.
    pub shifts_howard: Vec<f64>,
    /// `shifts_with_kernel(KarpScaled)` per component.
    pub shifts_karp: Vec<f64>,
    /// Component sizes.
    pub component_n: Vec<f64>,
}

fn submatrix(m: &SquareMatrix<ExtRatio>, members: &[usize]) -> SquareMatrix<ExtRatio> {
    SquareMatrix::from_fn(members.len(), |i, j| m[(members[i], members[j])])
}

impl KernelRows {
    /// Adds the rows of one domain. `prev` is the closure its last
    /// outcome query saw, if any.
    pub fn add_domain(
        &mut self,
        online: &mut OnlineSynchronizer,
        prev: Option<&SquareMatrix<ExtRatio>>,
        tally: &mut Tally,
    ) {
        let (ns, rebuilt) = timed(|| Closure::fast(online.local_estimates()));
        self.closure_fast.push(ns);
        let closure = match (online.global_estimates(), rebuilt) {
            (Ok(cached), Ok(rebuilt)) if cached == rebuilt.dist() => rebuilt.dist().clone(),
            (Ok(_), Ok(_)) => {
                tally.fail("the cached closure differs from a cold Closure::fast rebuild");
                return;
            }
            _ => {
                tally.fail("the closure of generated traffic is inconsistent");
                return;
            }
        };
        tally.ok();
        for component in synchronizable_components(&closure) {
            if component.len() < 2 {
                continue;
            }
            let members: Vec<usize> = component.iter().map(|p| p.index()).collect();
            let sub = submatrix(&closure, &members);
            self.component_n.push(members.len() as f64);
            let (cold_ns, cold) = timed(|| howard_solve(&sub, None));
            let (karp_ns, karp) = timed(|| fast_max_cycle_mean(&sub));
            let (sh_ns, sh) = timed(|| shifts_with_kernel(&sub, 0, ShiftsKernel::Howard));
            let (sk_ns, sk) = timed(|| shifts_with_kernel(&sub, 0, ShiftsKernel::KarpScaled));
            self.howard_solve_cold.push(cold_ns);
            self.karp_solve.push(karp_ns);
            self.shifts_howard.push(sh_ns);
            self.shifts_karp.push(sk_ns);
            let a_max = cold.map(|s| s.cycle_mean.mean);
            let mut agree = a_max.is_some()
                && a_max == karp.map(|c| c.mean)
                && Some(sh.precision) == a_max
                && Some(sk.precision) == a_max
                && sh.corrections == sk.corrections;
            // The warm start needs the previous closure finite on the same
            // members (Howard refuses +∞ edges).
            let prev_sub = prev
                .map(|p| submatrix(p, &members))
                .filter(|p| p.iter().all(|(_, _, w)| w.is_finite()));
            if let Some(policy) = prev_sub
                .and_then(|p| howard_solve(&p, None))
                .map(|s| s.policy)
            {
                let (warm_ns, warm) = timed(|| howard_solve(&sub, Some(&policy)));
                self.howard_warm.push(warm_ns);
                agree &= warm.map(|s| s.cycle_mean.mean) == a_max;
            }
            if agree {
                tally.ok();
            } else {
                tally.fail(format!(
                    "A_max kernels disagree on a {}-processor component",
                    members.len()
                ));
            }
        }
    }
}
