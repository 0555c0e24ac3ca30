//! Wall-clock measurements of the sharded ingestion service, behind
//! `tables --bench-ingest` and the committed `BENCH_ingest.json` artifact.
//!
//! Two suites:
//!
//! * **ingest**: sustained batched ingestion through
//!   [`clocksync_service::run_soak`] at several shard counts — the
//!   headline is messages per second plus the steady-state retention
//!   numbers, which must stay under the analytic per-link cap (window
//!   plus two extremal witnesses per directed link) no matter how many
//!   messages flow through.
//! * **gc**: the retention sweep itself — the incremental per-link
//!   [`ViewWindow`] tick (`gc_dominated`: only the links pushed to since
//!   the last tick, `O(pushed + dropped)`) versus a from-scratch full
//!   scan on the same per-link store: [`ViewWindow::dominated`] over every
//!   live message followed by one [`ViewWindow::drop_message`] per doomed
//!   id. The full scan has the `O(live)` shape of the earlier slot-vector
//!   tick but not its cost (its drops are linear in the link's log, its
//!   grouping is free), so the row measures what skipping the idle links
//!   saves, not the change against the earlier store. Both arms process
//!   the identical stream and drop the identical messages; the checker
//!   asserts the incremental arm is never slower. One row is a
//!   two-processor stream, the other a wide n=64 domain with 250
//!   directed links, where the full scan pays for every idle link.
//!
//! Timings are minima over three repetitions for the GC suite and best of
//! two for the soak (its loop is already thousands of batches); the
//! emitted JSON is hand-rolled flat numbers, like the sibling bench
//! documents.

use std::collections::HashSet;
use std::fmt::Write as _;
use std::time::Instant;

use clocksync_model::{MessageId, MessageObservation, ProcessorId, ViewWindow};
use clocksync_service::{run_soak, SoakConfig, SoakReport};
use clocksync_time::ClockTime;

/// One row of the (shard count, thread count) sweep.
pub struct IngestRow {
    /// The soak report at this arm.
    pub report: SoakReport,
}

/// Runs the soak at each `(shards, threads)` arm with an otherwise fixed
/// configuration (8 domains of 4 processors, 64-message batches,
/// 32-message windows). `threads <= 1` runs the in-place engine on the
/// driver thread; `threads > 1` runs the worker-pool engine (one worker
/// per shard, so `threads` must equal `shards`).
pub fn measure_ingest(arms: &[(usize, usize)], messages: u64) -> Vec<IngestRow> {
    arms.iter()
        .map(|&(shards, threads)| {
            let config = SoakConfig {
                shards,
                threads,
                queue_depth: 256,
                domains: 8,
                n: 4,
                messages,
                batch_size: 64,
                window: 32,
                seed: 7,
            };
            // Best of two: one scheduler hiccup mid-arm otherwise skews
            // the cross-arm ratio the checker gates on.
            let report = [run_soak(&config), run_soak(&config)]
                .into_iter()
                .min_by_key(|r| r.elapsed_ns)
                .expect("two runs are not zero runs");
            IngestRow { report }
        })
        .collect()
}

/// One row of the GC comparison.
pub struct GcRow {
    /// Processors of the synthetic domain.
    pub n: usize,
    /// Directed links the stream is spread over.
    pub links: usize,
    /// GC ticks processed (one batch of pushes per tick).
    pub ticks: usize,
    /// Messages pushed per tick.
    pub batch: usize,
    /// Per-directed-link retention window.
    pub window: usize,
    /// Incremental per-link GC, total nanoseconds over the stream.
    pub incremental_ns: u128,
    /// Full-scan tick (`dominated` + one `drop_message` per id), total
    /// nanoseconds over the same stream with the same drops.
    pub full_scan_ns: u128,
    /// Live messages at the end (identical in both arms).
    pub live_end: usize,
    /// Messages dropped over the stream (identical in both arms).
    pub dropped: usize,
}

impl GcRow {
    /// Full-scan time over incremental time — the figure the checker
    /// gates at ≥ 1.
    pub fn speedup(&self) -> f64 {
        if self.incremental_ns == 0 {
            f64::INFINITY
        } else {
            self.full_scan_ns as f64 / self.incremental_ns as f64
        }
    }
}

/// The directed links of the synthetic GC domain: a ring over `n`
/// processors plus, for `n > 14`, chords `i → i + 7` for all but the
/// last three processors (125 undirected links at `n = 64`).
fn synth_links(n: usize) -> Vec<(usize, usize)> {
    let ring = (0..n).map(|i| (i, (i + 1) % n));
    let chords = (0..n.saturating_sub(3))
        .filter(|_| n > 14)
        .map(|i| (i, (i + 7) % n));
    let mut undirected: Vec<(usize, usize)> = ring
        .chain(chords)
        .map(|(a, b)| (a.min(b), a.max(b)))
        .collect();
    undirected.sort_unstable();
    undirected.dedup();
    undirected
        .iter()
        .flat_map(|&(a, b)| [(a, b), (b, a)])
        .collect()
}

/// A stream over `links` with mildly varying delays, so the extremal
/// witnesses move occasionally and most messages are dominated. Links
/// are drawn by a fixed LCG, so every run sees the same stream.
fn synth_stream(links: &[(usize, usize)], total: usize) -> Vec<MessageObservation> {
    let mut state = 0x2545_f491_4f6c_dd1d_u64;
    (0..total)
        .map(|i| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let (src, dst) = links[(state >> 33) as usize % links.len()];
            let t = 1_000 * i as i64;
            MessageObservation {
                src: ProcessorId(src),
                dst: ProcessorId(dst),
                id: MessageId(i as u64),
                send_clock: ClockTime::from_nanos(t),
                recv_clock: ClockTime::from_nanos(t + 300 + (i as i64 * 37) % 97),
            }
        })
        .collect()
}

/// Replays `stream` in `batch`-sized ticks through one GC strategy,
/// returning the elapsed time, the final window and the messages dropped.
fn run_gc_arm(
    n: usize,
    stream: &[MessageObservation],
    batch: usize,
    tick: impl Fn(&mut ViewWindow) -> usize,
) -> (u128, ViewWindow, usize) {
    let start = Instant::now();
    let mut w = ViewWindow::new(n);
    let mut dropped = 0;
    for chunk in stream.chunks(batch) {
        for m in chunk {
            w.push(*m).expect("synthetic stream is valid");
        }
        dropped += tick(&mut w);
    }
    (start.elapsed().as_nanos(), w, dropped)
}

/// Times both GC strategies over the identical stream on an `n`-processor
/// domain (a ring, plus chords when `n > 14`), best of three runs each.
///
/// The incremental arm pushes a batch per tick and calls
/// [`ViewWindow::gc_dominated`]. The full-scan arm computes the dominated
/// set from scratch with [`ViewWindow::dominated`] and drops it one
/// [`ViewWindow::drop_message`] at a time, on the same per-link store.
pub fn measure_gc(n: usize, ticks: usize, batch: usize, window: usize) -> GcRow {
    let links = synth_links(n);
    let stream = synth_stream(&links, ticks * batch);
    let incremental = |w: &mut ViewWindow| w.gc_dominated(window);
    let full_scan = |w: &mut ViewWindow| {
        let doomed = w.dominated(window);
        for &id in &doomed {
            w.drop_message(id);
        }
        doomed.len()
    };
    let best = |tick: &dyn Fn(&mut ViewWindow) -> usize| {
        (0..3)
            .map(|_| run_gc_arm(n, &stream, batch, tick))
            .min_by_key(|(ns, _, _)| *ns)
            .expect("three runs are not zero runs")
    };
    let (incremental_ns, w, dropped) = best(&incremental);
    let (full_scan_ns, w2, scan_dropped) = best(&full_scan);

    assert_eq!(dropped, scan_dropped, "GC arms diverged");
    assert!(
        w.live_messages()
            .map(|m| m.id)
            .eq(w2.live_messages().map(|m| m.id)),
        "GC arms diverged"
    );
    GcRow {
        n,
        links: links.len(),
        ticks,
        batch,
        window,
        incremental_ns,
        full_scan_ns,
        live_end: w.live(),
        dropped,
    }
}

/// Runs both suites and renders the `BENCH_ingest.json` document: the
/// single-thread baseline, the multi-shard inline arm, and the
/// worker-pool arm (whose group commit is where the speedup comes from —
/// `cores` records how much true parallelism the box could add on top).
pub fn bench_ingest_json() -> String {
    let ingest = measure_ingest(&[(1, 1), (4, 1), (4, 4)], 100_000);
    let gc = [measure_gc(2, 2_000, 32, 16), measure_gc(64, 2_000, 64, 32)];

    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"bench\": \"sharded_ingest\",");
    let _ = writeln!(
        out,
        "  \"generated_by\": \"cargo run --release -p clocksync-bench --bin tables -- --bench-ingest\","
    );
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    let _ = writeln!(out, "  \"cores\": {cores},");
    out.push_str("  \"ingest\": [\n");
    for (idx, row) in ingest.iter().enumerate() {
        let r = &row.report;
        let rss = match r.rss_end_bytes {
            Some(b) => b.to_string(),
            None => "null".to_string(),
        };
        let _ = writeln!(
            out,
            "    {{ \"shards\": {}, \"threads\": {}, \"engine\": \"{}\", \"domains\": {}, \
             \"messages\": {}, \"elapsed_ns\": {}, \
             \"msgs_per_sec\": {:.1}, \"retained_end\": {}, \"retained_peak\": {}, \
             \"retained_cap\": {}, \"approx_bytes_end\": {}, \"rss_end_bytes\": {} }}{}",
            r.config.shards,
            r.threads,
            r.engine,
            r.config.domains,
            r.messages,
            r.elapsed_ns,
            r.msgs_per_sec(),
            r.retained_messages_end,
            r.peak_retained_messages,
            r.retained_cap,
            r.approx_retained_bytes_end,
            rss,
            if idx + 1 < ingest.len() { "," } else { "" },
        );
    }
    out.push_str("  ],\n");
    out.push_str("  \"gc\": [\n");
    for (idx, row) in gc.iter().enumerate() {
        let _ = writeln!(
            out,
            "    {{ \"n\": {}, \"links\": {}, \"ticks\": {}, \"batch\": {}, \"window\": {}, \
             \"incremental_ns\": {}, \"full_scan_ns\": {}, \"live_end\": {}, \"dropped\": {}, \
             \"speedup\": {:.2} }}{}",
            row.n,
            row.links,
            row.ticks,
            row.batch,
            row.window,
            row.incremental_ns,
            row.full_scan_ns,
            row.live_end,
            row.dropped,
            row.speedup(),
            if idx + 1 < gc.len() { "," } else { "" },
        );
    }
    out.push_str("  ]\n");
    out.push_str("}\n");
    out
}

/// Validates a `BENCH_ingest.json` document: schema, at least two shard
/// counts in the ingest sweep, bounded retention (`retained_peak <=
/// retained_cap` in every row), a sustained-throughput floor, a
/// `threads > 1` worker-engine arm whose throughput is at least
/// `min_scaling`× the single-shard single-thread baseline, and the
/// incremental GC at least matching the full-scan tick. Throughput, the
/// scaling ratio and the GC speedup are recomputed from the integer
/// timings, so hand-edited derived fields cannot mask a regression.
///
/// # Errors
///
/// A human-readable description of the first violated expectation.
pub fn check_bench_ingest_json(
    doc: &str,
    min_throughput: f64,
    min_scaling: f64,
) -> Result<(), String> {
    let json = clocksync_obs::json::parse(doc).map_err(|e| format!("invalid JSON: {e}"))?;
    let bench = json
        .field("bench", "document")
        .and_then(|b| b.as_str("bench").map(str::to_owned))
        .map_err(|e| e.to_string())?;
    if bench != "sharded_ingest" {
        return Err(format!("unexpected bench id `{bench}`"));
    }
    let ingest = json
        .field("ingest", "document")
        .and_then(|k| k.as_array("ingest").map(<[_]>::to_vec))
        .map_err(|e| e.to_string())?;
    let mut shard_counts = HashSet::new();
    let mut baseline: Option<f64> = None;
    let mut best_multi: Option<(i128, f64)> = None;
    for row in &ingest {
        let get = |key: &str| -> Result<i128, String> {
            let v = row
                .field(key, "ingest row")
                .and_then(|v| v.as_i128(key))
                .map_err(|e| e.to_string())?;
            if v < 0 {
                return Err(format!("{key} must be nonnegative"));
            }
            Ok(v)
        };
        let shards = get("shards")?;
        shard_counts.insert(shards);
        let threads = get("threads")?;
        if threads == 0 {
            return Err(format!("ingest row at shards={shards} ran on zero threads"));
        }
        let messages = get("messages")?;
        let elapsed_ns = get("elapsed_ns")?;
        if messages == 0 || elapsed_ns == 0 {
            return Err(format!(
                "ingest row at shards={shards} has no work ({messages} messages, {elapsed_ns} ns)"
            ));
        }
        let throughput = messages as f64 * 1e9 / elapsed_ns as f64;
        if throughput < min_throughput {
            return Err(format!(
                "sustained throughput at shards={shards} is {throughput:.0} msgs/sec, \
                 below the {min_throughput} floor"
            ));
        }
        if shards == 1 && threads == 1 {
            baseline = Some(baseline.map_or(throughput, |b: f64| b.max(throughput)));
        }
        if threads > 1 && best_multi.is_none_or(|(_, best)| throughput > best) {
            best_multi = Some((threads, throughput));
        }
        let end = get("retained_end")?;
        let peak = get("retained_peak")?;
        let cap = get("retained_cap")?;
        if end > peak {
            return Err(format!(
                "ingest row at shards={shards}: retained_end {end} exceeds retained_peak {peak}"
            ));
        }
        if peak > cap {
            return Err(format!(
                "retention is unbounded at shards={shards}: peak {peak} exceeds the cap {cap}"
            ));
        }
    }
    if shard_counts.len() < 2 {
        return Err(format!(
            "ingest sweep covers {} shard count(s); need at least 2",
            shard_counts.len()
        ));
    }
    let baseline =
        baseline.ok_or("ingest sweep has no shards=1, threads=1 baseline arm".to_string())?;
    let (threads, multi) = best_multi
        .ok_or("ingest sweep has no threads>1 arm (the worker-pool engine)".to_string())?;
    let scaling = multi / baseline;
    if scaling < min_scaling {
        return Err(format!(
            "worker-engine arm (threads={threads}) sustains only {scaling:.2}x the \
             single-thread baseline; need at least {min_scaling}x"
        ));
    }
    let gc = json
        .field("gc", "document")
        .and_then(|k| k.as_array("gc").map(<[_]>::to_vec))
        .map_err(|e| e.to_string())?;
    if gc.is_empty() {
        return Err("gc section is empty".to_string());
    }
    for row in &gc {
        let get = |key: &str| -> Result<i128, String> {
            row.field(key, "gc row")
                .and_then(|v| v.as_i128(key))
                .map_err(|e| e.to_string())
        };
        let incremental = get("incremental_ns")?;
        let full_scan = get("full_scan_ns")?;
        if incremental <= 0 || full_scan <= 0 {
            return Err("gc timings must be positive".to_string());
        }
        if get("dropped")? <= 0 {
            return Err("gc comparison dropped no messages; the stream is degenerate".to_string());
        }
        // The satellite's before/after claim: incremental GC never loses
        // to the full-scan tick on the identical stream.
        if incremental > full_scan {
            return Err(format!(
                "incremental GC ({incremental} ns) is slower than the full-scan tick ({full_scan} ns)"
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gc_comparison_runs_and_incremental_wins() {
        // Small sizes: checks the harness logic and the headline claim on
        // streams big enough for the asymptotics to show.
        let row = measure_gc(2, 200, 16, 8);
        assert_eq!((row.ticks, row.links), (200, 2));
        assert!(row.dropped > 0);
        assert!(row.live_end <= 2 * (8 + 2));
        let wide = measure_gc(64, 200, 64, 8);
        assert_eq!(wide.links, 250);
        assert!(wide.live_end <= 250 * (8 + 2));
        for row in [row, wide] {
            assert!(row.incremental_ns > 0 && row.full_scan_ns > 0);
            assert!(
                row.incremental_ns <= row.full_scan_ns,
                "n={}: incremental {} ns vs full scan {} ns",
                row.n,
                row.incremental_ns,
                row.full_scan_ns
            );
        }
    }

    #[test]
    fn ingest_measurement_rows_cover_requested_arms() {
        let rows = measure_ingest(&[(1, 1), (2, 2)], 2_000);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].report.config.shards, 1);
        assert_eq!(rows[0].report.engine, "inline");
        assert_eq!(rows[1].report.config.shards, 2);
        assert_eq!(rows[1].report.engine, "workers");
        assert_eq!(rows[1].report.threads, 2);
        for row in &rows {
            assert!(row.report.messages >= 2_000);
            assert!(row.report.peak_retained_messages <= row.report.retained_cap);
        }
    }

    /// `multi_elapsed_ns` is the worker-engine arm's time over the same
    /// 100k messages, so `elapsed_ns / multi_elapsed_ns` is its scaling.
    fn sample_doc(
        elapsed_ns: u64,
        multi_elapsed_ns: u64,
        peak: u64,
        incremental: u64,
        full_scan: u64,
    ) -> String {
        format!(
            "{{ \"bench\": \"sharded_ingest\", \"cores\": 4, \"ingest\": [ \
             {{ \"shards\": 1, \"threads\": 1, \"engine\": \"inline\", \"domains\": 8, \
             \"messages\": 100000, \"elapsed_ns\": {elapsed_ns}, \
             \"msgs_per_sec\": 1.0, \"retained_end\": 500, \"retained_peak\": {peak}, \
             \"retained_cap\": 2176, \"approx_bytes_end\": 1, \"rss_end_bytes\": null }}, \
             {{ \"shards\": 4, \"threads\": 1, \"engine\": \"inline\", \"domains\": 8, \
             \"messages\": 100000, \"elapsed_ns\": {elapsed_ns}, \
             \"msgs_per_sec\": 1.0, \"retained_end\": 500, \"retained_peak\": {peak}, \
             \"retained_cap\": 2176, \"approx_bytes_end\": 1, \"rss_end_bytes\": 123 }}, \
             {{ \"shards\": 4, \"threads\": 4, \"engine\": \"workers\", \"domains\": 8, \
             \"messages\": 100000, \"elapsed_ns\": {multi_elapsed_ns}, \
             \"msgs_per_sec\": 1.0, \"retained_end\": 500, \"retained_peak\": {peak}, \
             \"retained_cap\": 2176, \"approx_bytes_end\": 1, \"rss_end_bytes\": 123 }} ], \
             \"gc\": [ {{ \"ticks\": 10, \"batch\": 8, \"window\": 4, \"incremental_ns\": {incremental}, \
             \"full_scan_ns\": {full_scan}, \"live_end\": 12, \"dropped\": 60, \"speedup\": 1.0 }} ] }}"
        )
    }

    #[test]
    fn checker_accepts_good_documents() {
        // 4x scaling (1s baseline, 250ms worker arm) passes a 2.5x gate.
        assert_eq!(
            check_bench_ingest_json(
                &sample_doc(1_000_000_000, 250_000_000, 2_000, 50, 400),
                50_000.0,
                2.5
            ),
            Ok(())
        );
    }

    #[test]
    fn checker_recomputes_throughput_and_gates_it() {
        // 100k messages over 100 seconds = 1k msgs/sec, under the floor,
        // no matter what msgs_per_sec claims.
        let err = check_bench_ingest_json(
            &sample_doc(100_000_000_000, 25_000_000_000, 2_000, 50, 400),
            50_000.0,
            2.5,
        )
        .unwrap_err();
        assert!(err.contains("below the 50000 floor"), "{err}");
    }

    #[test]
    fn checker_recomputes_scaling_and_gates_it() {
        // Worker arm only 1.25x the baseline: under a 2.5x gate.
        let err = check_bench_ingest_json(
            &sample_doc(1_000_000_000, 800_000_000, 2_000, 50, 400),
            0.0,
            2.5,
        )
        .unwrap_err();
        assert!(err.contains("sustains only 1.25x"), "{err}");
        // The same document passes a relaxed 1.2x gate.
        assert_eq!(
            check_bench_ingest_json(
                &sample_doc(1_000_000_000, 800_000_000, 2_000, 50, 400),
                0.0,
                1.2
            ),
            Ok(())
        );
    }

    #[test]
    fn checker_requires_baseline_and_worker_arms() {
        // Two shard counts but no threads>1 arm.
        let no_multi = "{ \"bench\": \"sharded_ingest\", \"ingest\": [ \
             { \"shards\": 1, \"threads\": 1, \"engine\": \"inline\", \"domains\": 8, \
             \"messages\": 10, \"elapsed_ns\": 10, \
             \"msgs_per_sec\": 1.0, \"retained_end\": 1, \"retained_peak\": 1, \
             \"retained_cap\": 2, \"approx_bytes_end\": 1, \"rss_end_bytes\": null }, \
             { \"shards\": 4, \"threads\": 1, \"engine\": \"inline\", \"domains\": 8, \
             \"messages\": 10, \"elapsed_ns\": 10, \
             \"msgs_per_sec\": 1.0, \"retained_end\": 1, \"retained_peak\": 1, \
             \"retained_cap\": 2, \"approx_bytes_end\": 1, \"rss_end_bytes\": null } ], \
             \"gc\": [ { \"ticks\": 1, \"batch\": 1, \"window\": 1, \"incremental_ns\": 1, \
             \"full_scan_ns\": 2, \"live_end\": 1, \"dropped\": 1, \"speedup\": 2.0 } ] }";
        assert!(check_bench_ingest_json(no_multi, 0.0, 1.0)
            .unwrap_err()
            .contains("no threads>1 arm"));
        // A worker arm but no single-shard single-thread baseline.
        let no_baseline = no_multi
            .replace(
                "\"shards\": 1, \"threads\": 1, \"engine\": \"inline\"",
                "\"shards\": 2, \"threads\": 2, \"engine\": \"workers\"",
            )
            .replace(
                "\"shards\": 4, \"threads\": 1, \"engine\": \"inline\"",
                "\"shards\": 4, \"threads\": 4, \"engine\": \"workers\"",
            );
        assert!(check_bench_ingest_json(&no_baseline, 0.0, 1.0)
            .unwrap_err()
            .contains("no shards=1, threads=1 baseline"));
    }

    #[test]
    fn checker_rejects_unbounded_retention_and_slow_gc() {
        let err = check_bench_ingest_json(
            &sample_doc(1_000_000_000, 250_000_000, 9_999, 50, 400),
            0.0,
            1.0,
        )
        .unwrap_err();
        assert!(err.contains("unbounded"), "{err}");
        let err = check_bench_ingest_json(
            &sample_doc(1_000_000_000, 250_000_000, 2_000, 500, 400),
            0.0,
            1.0,
        )
        .unwrap_err();
        assert!(err.contains("slower than the full-scan tick"), "{err}");
    }

    #[test]
    fn checker_rejects_malformed_documents() {
        assert!(check_bench_ingest_json("not json", 0.0, 1.0).is_err());
        assert!(check_bench_ingest_json("{ \"bench\": \"other\" }", 0.0, 1.0).is_err());
        // One shard count only: no sweep.
        let one = "{ \"bench\": \"sharded_ingest\", \"ingest\": [ \
             { \"shards\": 1, \"threads\": 1, \"engine\": \"inline\", \"domains\": 8, \
             \"messages\": 10, \"elapsed_ns\": 10, \
             \"msgs_per_sec\": 1.0, \"retained_end\": 1, \"retained_peak\": 1, \
             \"retained_cap\": 2, \"approx_bytes_end\": 1, \"rss_end_bytes\": null } ], \
             \"gc\": [ { \"ticks\": 1, \"batch\": 1, \"window\": 1, \"incremental_ns\": 1, \
             \"full_scan_ns\": 2, \"live_end\": 1, \"dropped\": 1, \"speedup\": 2.0 } ] }";
        assert!(check_bench_ingest_json(one, 0.0, 1.0)
            .unwrap_err()
            .contains("at least 2"));
    }
}
