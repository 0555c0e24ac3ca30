//! Criterion bench: maximum cycle mean on complete graphs — the core of
//! the SHIFTS step (E7) — racing all three `A_max` kernels.
//!
//! The exact rational Karp recurrence is `O(n³)` rational operations, so
//! it stops at n = 96; the scaled-`i64` Karp and Howard's policy iteration
//! continue to n = 256, pinning the speedups `BENCH_karp.json` records.
//!
//! The `corrections` group races SHIFTS step 2 on the same `A_max`-shifted
//! closure: the generic rational Bellman–Ford over the complete
//! `Ext<Ratio>` graph, the dense `i64` kernel alone, and the scaled front
//! end that `shifts` runs (scaling and mapping back included).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use clocksync_bench::karp_bench::closure_like;
use clocksync_graph::{
    bellman_ford, dense_bellman_ford_i64, fast_max_cycle_mean, howard_solve, karp_max_cycle_mean,
    try_scaled_corrections, DiGraph, SquareMatrix, UNREACHABLE,
};
use clocksync_time::{Ext, Ratio};

fn bench_karp(c: &mut Criterion) {
    let mut group = c.benchmark_group("max_cycle_mean");
    for n in [8usize, 16, 32, 64, 96, 128, 256] {
        let m = closure_like(n, 7);
        if n <= 96 {
            group.bench_with_input(BenchmarkId::new("karp", n), &m, |b, m| {
                b.iter(|| karp_max_cycle_mean(black_box(m)))
            });
        }
        group.bench_with_input(BenchmarkId::new("karp-scaled", n), &m, |b, m| {
            b.iter(|| fast_max_cycle_mean(black_box(m)))
        });
        group.bench_with_input(BenchmarkId::new("howard", n), &m, |b, m| {
            b.iter(|| howard_solve(black_box(m), None))
        });
    }
    group.finish();
}

fn bench_corrections(c: &mut Criterion) {
    let mut group = c.benchmark_group("corrections");
    for n in [24usize, 64, 96] {
        let m = closure_like(n, 7);
        let a_max = fast_max_cycle_mean(&m).expect("closure has cycles").mean;
        let shifted = |p: usize, q: usize| a_max - m[(p, q)].finite().expect("finite closure");
        let mut g = DiGraph::new(n);
        for (p, q, _) in m.iter_off_diagonal() {
            g.add_edge(p, q, Ext::Finite(shifted(p, q)));
        }
        // closure_like is integral, so A_max's denominator is the common
        // scale.
        let scale = Ratio::from_int(a_max.denominator());
        let weights = SquareMatrix::from_fn(n, |p, q| {
            if p == q {
                UNREACHABLE
            } else {
                let w = shifted(p, q) * scale;
                assert_eq!(w.denominator(), 1);
                w.numerator() as i64
            }
        });
        group.bench_with_input(BenchmarkId::new("rational-bellman-ford", n), &g, |b, g| {
            b.iter(|| bellman_ford(black_box(g), 0))
        });
        group.bench_with_input(BenchmarkId::new("dense-i64", n), &weights, |b, w| {
            b.iter(|| dense_bellman_ford_i64(black_box(w), 0))
        });
        group.bench_with_input(BenchmarkId::new("scaled-front-end", n), &m, |b, m| {
            b.iter(|| try_scaled_corrections(black_box(m), a_max, 0))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_karp, bench_corrections);
criterion_main!(benches);
