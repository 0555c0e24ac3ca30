//! End-to-end, layer-attributed benchmark of the clocksync service.
//!
//! ```text
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload resync-churn --seed 1 --seconds 8 --trace 0
//! ```
//!
//! `--trace 0` runs the timed closed loop and prints the end-to-end
//! metrics; `--trace 1` runs the traced passes and prints the per-layer
//! metrics. Either way every answer is checked against an independent
//! recomputation, and the last stdout line is one JSON object with the
//! keys `correct`, `attempted`, `failed` and `metrics`. `NOTES.md` explains
//! the workloads and what each metric should move.

mod drive;
mod gen;
mod kernels;
mod layers;
mod ops;
mod stats;
mod verify;
mod wire;
mod workload;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use clocksync_obs::json::{to_string, Json};
use clocksync_obs::Recorder;
use clocksync_service::{current_rss_bytes, ServiceConfig};

use crate::drive::{InProcess, Stop};
use crate::layers::{Layer, LayerReplay};
use crate::stats::{
    median, p50_at_no_steal, threads_cpu_ns, Latency, Sample, Steal, StealClock, StealSampler,
};
use crate::verify::{check_final, Tally};
use crate::wire::WireRun;
use crate::workload::Workload;

const USAGE: &str = "usage: e2ebench --workload <ingest-fanin|resync-churn|wire-mixed> \
--seed <n> --seconds <s> --trace <0|1>";

/// The name the kernel keeps for the service's shard worker threads
/// (`clocksync-shard-<n>`, cut to 15 bytes).
const WORKER_COMM: &str = "clocksync-shard";

/// Set-ups per run; `setup_s` is estimated from all of them.
const SETUPS: usize = 9;

/// The traced run fails its check when the named layers, timed in the
/// replay, account for less than this share of the CPU time the real
/// service path spends per observation. Queue hand-offs, wake-ups,
/// receipts and the workers' bookkeeping belong to no layer call;
/// `NOTES.md` gives the coverage measured on each workload.
const COVERAGE_MIN: f64 = 0.4;

struct Opts {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn flag<'a>(args: &'a [String], name: &str) -> Result<&'a str, String> {
    let at = args
        .iter()
        .position(|a| a == name)
        .ok_or_else(|| format!("missing {name}"))?;
    args.get(at + 1)
        .map(String::as_str)
        .ok_or_else(|| format!("{name} needs a value"))
}

fn number<T: std::str::FromStr>(args: &[String], name: &str) -> Result<T, String> {
    let raw = flag(args, name)?;
    raw.parse()
        .map_err(|_| format!("{name}: cannot parse `{raw}`"))
}

impl Opts {
    fn parse(args: &[String]) -> Result<Opts, String> {
        let name = flag(args, "--workload")?;
        let workload = Workload::parse(name).ok_or_else(|| format!("unknown workload `{name}`"))?;
        let seconds: f64 = number(args, "--seconds")?;
        if !(seconds.is_finite() && seconds > 0.0) {
            return Err("--seconds must be positive".to_string());
        }
        let trace = match flag(args, "--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
        };
        Ok(Opts {
            workload,
            seed: number(args, "--seed")?,
            seconds,
            trace,
        })
    }
}

/// One run's result: metrics by name (value, unit), sample counts, extra
/// report lines, and the tally of attempted and failed operations.
#[derive(Default)]
struct Report {
    metrics: BTreeMap<String, (f64, &'static str)>,
    samples: BTreeMap<&'static str, usize>,
    lines: Vec<String>,
    tally: Tally,
}

impl Report {
    fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.insert(name.into(), (value, unit));
    }

    /// Reports a latency series' median at zero steal as a metric, and
    /// its plain median, 95th and 99th percentiles on a line of its own.
    fn latency(&mut self, prefix: &'static str, samples: &[Sample], steal: &Steal) {
        let us: Vec<f64> = samples.iter().map(|s| s.us).collect();
        let lat = Latency::of(&us);
        let p50 = p50_at_no_steal(samples, steal).unwrap_or(lat.p50);
        self.metric(format!("{prefix}_p50_us"), p50, "us");
        self.lines.push(format!(
            "{prefix}: median {} over every sample, p95 {}, p99 {} ({} samples in {} blocks)",
            lat.p50, lat.p95, lat.p99, lat.count, lat.blocks
        ));
        self.samples.insert(prefix, lat.count);
    }

    /// Reports, on a line of its own, the share of the producers' timed
    /// wall (`wall_s`, summed over producer threads) spent generating the
    /// inputs rather than waiting on the program.
    fn generator_share(&mut self, gen_ns: u64, wall_s: f64) {
        self.lines.push(format!(
            "generator_share = {} (input generation on the producer threads, {:.3} s of {:.3} s)",
            gen_ns as f64 / 1e9 / wall_s,
            gen_ns as f64 / 1e9,
            wall_s
        ));
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--serve-child") {
        return match serve_child(&args) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("server: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let opts = match Opts::parse(&args) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = if opts.trace {
        traced(&opts)
    } else {
        timed(&opts)
    };
    match result {
        Ok(report) => {
            print_report(&opts, report);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn serve_child(args: &[String]) -> Result<(), String> {
    let config = ServiceConfig {
        shards: number(args, "--shards")?,
        window: number(args, "--window")?,
        queue_depth: number(args, "--queue-depth")?,
        max_coalesce: number(args, "--max-coalesce")?,
    };
    wire::serve_child(config, number(args, "--conns")?)
}

/// Runs `setup` [`SETUPS`] times, closing each instance but the last
/// with `close` before the next starts; returns the last instance and
/// the set-up time in seconds: the median time of the set-ups whose host
/// steal was at most the median set-up's. A straight line through nine
/// short set-ups is too steep or too flat as often as not, so set-up is
/// not extrapolated to zero steal like the timed metrics.
fn repeated_setup<T>(
    mut setup: impl FnMut() -> Result<T, String>,
    mut close: impl FnMut(T) -> Result<(), String>,
    report: &mut Report,
) -> Result<(T, f64), String> {
    let mut points = Vec::with_capacity(SETUPS);
    let mut current = None;
    for _ in 0..SETUPS {
        if let Some(prev) = current.take() {
            close(prev)?;
        }
        let steal = StealClock::start();
        let t0 = Instant::now();
        current = Some(setup()?);
        points.push((steal.fraction(), t0.elapsed().as_secs_f64()));
    }
    let steals: Vec<f64> = points.iter().map(|p| p.0).collect();
    let times: Vec<f64> = points.iter().map(|p| p.1).collect();
    let calm = median(&steals);
    let calm_times: Vec<f64> = points.iter().filter(|p| p.0 <= calm).map(|p| p.1).collect();
    report.lines.push(format!(
        "setup: median {} s over all {SETUPS} set-ups; mean host steal {:.4}",
        median(&times),
        steals.iter().sum::<f64>() / SETUPS as f64
    ));
    Ok((current.expect("SETUPS > 0"), median(&calm_times)))
}

/// The timed run: end-to-end metrics, tracing off.
fn timed(opts: &Opts) -> Result<Report, String> {
    let params = opts.workload.params();
    let mut report = Report::default();
    report.samples.insert("setup", SETUPS);
    let span = Duration::from_secs_f64(opts.seconds);
    let (throughput, median_rate, rss, setup_s, steal) = if opts.workload.is_wire() {
        let (run, setup_s) = repeated_setup(
            || WireRun::setup(opts.seed, &params),
            WireRun::close,
            &mut report,
        )?;
        let result = run.timed(opts.seconds)?;
        report.generator_share(result.gen_ns, result.wall_s * params.connections as f64);
        report.latency("batch", &result.batch_us, &result.steal);
        report.latency("outcome", &result.outcome_us, &result.steal);
        report.tally.merge(result.tally);
        let throughput = result.slices.rate_at_no_steal(span, &result.steal);
        let median_rate = result.slices.median_rate(span);
        (
            throughput.unwrap_or(result.average),
            median_rate.unwrap_or(result.average),
            result.rss_bytes,
            setup_s,
            result.steal,
        )
    } else {
        let (mut run, setup_s) = repeated_setup(
            || Ok(InProcess::setup(opts.seed, &params, Recorder::disabled())),
            |prev| {
                prev.shutdown();
                Ok(())
            },
            &mut report,
        )?;
        let sampler = StealSampler::start();
        let drive = run.drive(Stop::At(Instant::now() + span), false);
        let rss = current_rss_bytes();
        let steal = sampler.finish();
        let (finals, final_tally) = run.outcomes();
        let sent = run.sent();
        let plans = run.plans().to_vec();
        run.shutdown();
        report.generator_share(drive.gen_ns, drive.wall_s);
        report.latency("batch", drive.batch_us.samples(), &steal);
        report
            .samples
            .insert("batches", drive.batch_us.seen() as usize);
        report.latency("outcome", &drive.outcome_us, &steal);
        if !drive.forget_us.is_empty() {
            let lat = Latency::of(&drive.forget_us);
            report.samples.insert("forget", lat.count);
            report.lines.push(format!(
                "forget_p50_us = {} (forget_p99_us = {}, {} samples)",
                lat.p50, lat.p99, lat.count
            ));
        }
        let rates = (drive.throughput(&steal), drive.median_rate());
        report.tally.merge(drive.tally);
        report.tally.merge(final_tally);
        report
            .tally
            .merge(check_final(&params, &plans, &sent, &finals));
        (rates.0, rates.1, rss, setup_s, steal)
    };
    let (sampled, mean_steal) = steal.summary();
    report.samples.insert("slices", sampled);
    report.lines.push(format!(
        "throughput: median slice rate {median_rate} msgs/s; mean host steal {mean_steal:.4} over {sampled} slices"
    ));
    report.metric("throughput_msgs_per_s", throughput, "msgs/s");
    report.metric("setup_s", setup_s, "s");
    match rss {
        Some(bytes) => report.metric("rss_end_mb", bytes as f64 / (1024.0 * 1024.0), "MB"),
        None => report
            .tally
            .fail("resident memory is unreadable on this platform"),
    }
    Ok(report)
}

/// The traced run: per-layer metrics from passes of equal length — the
/// service untraced, the service traced, the single-thread layer replay
/// and, on the wire workload, the loopback server — plus kernel rows on
/// the final closures.
fn traced(opts: &Opts) -> Result<Report, String> {
    let params = opts.workload.params();
    let passes = if opts.workload.is_wire() { 4.0 } else { 3.0 };
    let pass = Duration::from_secs_f64(opts.seconds / passes);
    let mut report = Report::default();

    // Each service pass first runs a short unmeasured stretch, so neither
    // pays the process's first-touch costs (heap growth, cold caches).
    let warm = pass / 4;
    let mut plain = InProcess::setup(opts.seed, &params, Recorder::disabled());
    report
        .tally
        .merge(plain.drive(Stop::At(Instant::now() + warm), false).tally);
    let pid = std::process::id();
    let cpu_before = threads_cpu_ns(pid, WORKER_COMM);
    let untraced = plain.drive(Stop::At(Instant::now() + pass), false);
    let cpu_after = threads_cpu_ns(pid, WORKER_COMM);
    plain.shutdown();
    report.tally.merge(untraced.tally.clone());
    // The real path's CPU per observation: the shard workers' during the
    // untraced pass (every apply, query and retraction runs there, with
    // the queue, group commit, validation and wake-ups around it).
    let mut real_path = cpu_before.zip(cpu_after).map(|(start, end)| {
        (
            end.saturating_sub(start) as f64 / untraced.applied.max(1) as f64,
            "the shard workers of the untraced service pass",
        )
    });
    if opts.workload.is_wire() {
        let result = WireRun::setup(opts.seed, &params)?.timed(pass.as_secs_f64())?;
        report.tally.merge(result.tally);
        real_path = result
            .server_cpu_ns
            .map(|ns| (ns as f64 / result.applied.max(1) as f64, "the serve child"));
    }

    let recorder = Recorder::enabled();
    let mut svc = InProcess::setup(opts.seed, &params, recorder.clone());
    report
        .tally
        .merge(svc.drive(Stop::At(Instant::now() + warm), false).tally);
    let traced = svc.drive(Stop::At(Instant::now() + pass), true);
    let pool = svc.stats();
    let (finals, final_tally) = svc.outcomes();
    let sent = svc.sent();
    let plans = svc.plans().to_vec();
    svc.shutdown();
    report.tally.merge(traced.tally.clone());
    report.tally.merge(final_tally);
    report
        .tally
        .merge(check_final(&params, &plans, &sent, &finals));

    let mean = |v: &[f64]| {
        if v.is_empty() {
            0.0
        } else {
            v.iter().sum::<f64>() / v.len() as f64
        }
    };
    let (traced_rate, untraced_rate) = (traced.median_rate(), untraced.median_rate());
    let overhead = 1.0 - traced_rate / untraced_rate;
    report.metric("trace.untraced_msgs_per_s", untraced_rate, "msgs/s");
    report.metric("trace.traced_msgs_per_s", traced_rate, "msgs/s");
    report.metric("trace.overhead_frac", overhead, "frac");
    report.lines.push(format!(
        "trace.overhead_frac = {overhead} (traced {traced_rate} vs untraced {untraced_rate} msgs/s)"
    ));
    report.metric("service.enqueue_ns", mean(&traced.enqueue_ns), "ns");
    report.metric("service.receipt_wait_ns", mean(&traced.wait_ns), "ns");
    report.metric("service.forget_ns", mean(&traced.forget_us) * 1e3, "ns");
    let groups: u64 = pool.workers.iter().map(|w| w.groups).sum();
    report.metric(
        "service.coalesce_ratio",
        pool.batches() as f64 / groups.max(1) as f64,
        "batches/group",
    );
    let max_group = pool.workers.iter().map(|w| w.max_group).max().unwrap_or(0);
    report.metric("service.max_group", max_group as f64, "count");
    let trace = recorder.snapshot();
    let hist = trace.hist("svc.batch_latency").unwrap_or_default();
    report.metric("svc.batch_latency_p50_ns", hist.quantile(0.5) as f64, "ns");
    report.metric("svc.batch_latency_p99_ns", hist.quantile(0.99) as f64, "ns");
    report.metric(
        "svc.queue_depth",
        trace.gauge("svc.queue_depth").unwrap_or(0.0),
        "count",
    );
    report
        .samples
        .insert("service_batches", traced.batch_us.seen() as usize);
    report
        .samples
        .insert("svc.batch_latency", hist.count as usize);

    let replay = LayerReplay::setup(opts.seed, &params, opts.workload.is_wire())?.run(pass);
    let wall = replay.wall_ns.max(1) as f64;
    for layer in Layer::ALL {
        let (ns, calls) = (replay.spans.ns(layer), replay.spans.calls(layer));
        let per_call = if calls == 0 {
            0.0
        } else {
            ns as f64 / calls as f64
        };
        report.metric(format!("{}_ns", layer.name()), per_call, "ns");
        report.metric(format!("{}_calls", layer.name()), calls as f64, "count");
        report.metric(format!("{}_share", layer.name()), ns as f64 / wall, "frac");
        report.lines.push(format!(
            "layer {:<20} calls {:>9}  self {:>10.3} ms  share {:>6.4}  mean {:>11.1} ns",
            layer.name(),
            calls,
            ns as f64 / 1e6,
            ns as f64 / wall,
            per_call
        ));
    }
    // Coverage: the layers' time per observation in the replay, against
    // the CPU time per observation of the real path on the same workload,
    // so work the replay leaves out (validation, queues and hand-offs,
    // wake-ups, group commit, sockets) lowers it.
    let layers_per_obs = replay.spans.total_ns() as f64 / replay.observations.max(1) as f64;
    match real_path {
        Some((real_per_obs, source)) => {
            let coverage = layers_per_obs / real_per_obs;
            report.metric("trace.coverage_frac", coverage, "frac");
            report.lines.push(format!(
                "trace.coverage_frac = {coverage} (layers {layers_per_obs:.1} ns per observation \
                 in the replay, against {real_per_obs:.1} ns of CPU per observation in {source})"
            ));
            if coverage < COVERAGE_MIN {
                report.tally.fail(format!(
                    "the layers cover {coverage:.3} of the real path's CPU time, below {COVERAGE_MIN}"
                ));
            }
        }
        None => report
            .tally
            .fail("CPU time is unreadable on this platform, so coverage is unknown"),
    }
    let reads = replay.spans.calls(Layer::FrameRead);
    report.metric(
        "net.frame_bytes",
        if reads == 0 {
            0.0
        } else {
            replay.frame_bytes as f64 / reads as f64
        },
        "bytes",
    );
    report.metric(
        "window.gc_drop_frac",
        replay.dropped as f64 / replay.pushed.max(1) as f64,
        "frac",
    );
    report.metric("window.retained_msgs", replay.retained_msgs as f64, "count");
    report.metric(
        "online.retained_samples",
        replay.retained_samples as f64,
        "count",
    );
    let k = &replay.kernels;
    report.metric("closure.fast_ns", mean(&k.closure_fast), "ns");
    report.metric("amax.howard_warm_ns", mean(&k.howard_warm), "ns");
    report.metric(
        "amax.howard_solve_cold_ns",
        mean(&k.howard_solve_cold),
        "ns",
    );
    report.metric("amax.karp_solve_ns", mean(&k.karp_solve), "ns");
    report.metric("amax.howard_cold_ns", mean(&k.shifts_howard), "ns");
    report.metric("amax.karp_scaled_ns", mean(&k.shifts_karp), "ns");
    report.metric("amax.component_n", mean(&k.component_n), "count");
    report.metric("amax.components", k.component_n.len() as f64, "count");
    report.samples.insert(
        "replay_batches",
        replay.spans.calls(Layer::IngestBatch) as usize,
    );
    report
        .samples
        .insert("amax_components", k.component_n.len());
    report
        .samples
        .insert("amax_warm_components", k.howard_warm.len());
    report.tally.merge(replay.tally);
    Ok(report)
}

/// The commit of the checkout, if it is a git work tree.
fn commit() -> String {
    let read = |path: &str| std::fs::read_to_string(path).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown (not a git checkout)".to_string();
    };
    let Some(reference) = head.trim().strip_prefix("ref: ") else {
        return head.trim().to_string();
    };
    if let Some(hash) = read(&format!(".git/{reference}")) {
        return hash.trim().to_string();
    }
    read(".git/packed-refs")
        .and_then(|packed| {
            packed.lines().find_map(|line| {
                let (hash, name) = line.split_once(' ')?;
                (name == reference).then(|| hash.to_string())
            })
        })
        .unwrap_or_else(|| format!("unknown ({reference})"))
}

fn print_report(opts: &Opts, mut report: Report) {
    let stamp = Json::Object(BTreeMap::from([
        (
            "workload".to_string(),
            Json::Str(opts.workload.name().to_string()),
        ),
        ("seed".to_string(), Json::Int(opts.seed.into())),
        ("trace".to_string(), Json::Int(opts.trace.into())),
        ("run_seconds".to_string(), Json::Float(opts.seconds)),
        (
            "available_parallelism".to_string(),
            Json::Int(std::thread::available_parallelism().map_or(0, |n| n.get()) as i128),
        ),
        (
            "rustc".to_string(),
            Json::Str(env!("E2EBENCH_RUSTC").to_string()),
        ),
        ("commit".to_string(), Json::Str(commit())),
    ]));
    println!("stamp {}", to_string(&stamp));
    let samples = report
        .samples
        .iter()
        .map(|(k, v)| (k.to_string(), Json::Int(*v as i128)))
        .collect();
    println!("samples {}", to_string(&Json::Object(samples)));
    for line in &report.lines {
        println!("{line}");
    }
    for note in &report.tally.notes {
        println!("failure: {note}");
    }
    let mut metrics = BTreeMap::new();
    for (name, (value, unit)) in std::mem::take(&mut report.metrics) {
        let value = if value.is_finite() {
            value
        } else {
            report.tally.fail(format!("{name} has no finite value"));
            0.0
        };
        metrics.insert(
            name,
            Json::object([
                ("value", Json::Float(value)),
                ("unit", Json::Str(unit.to_string())),
            ]),
        );
    }
    let result = Json::object([
        ("correct", Json::Bool(report.tally.failed == 0)),
        ("attempted", Json::Int(report.tally.attempted.max(1).into())),
        ("failed", Json::Int(report.tally.failed.into())),
        ("metrics", Json::Object(metrics)),
    ]);
    println!("{}", to_string(&result));
}
