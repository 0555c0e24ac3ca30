//! Order statistics for latency samples, throughput slices and repeated
//! set-up timings, and the host-steal record that picks the slices they
//! are taken over.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The `q`-quantile (`0 ≤ q ≤ 1`) of `samples`, interpolating linearly
/// between the two closest ranks (the "type 7" estimator of R and NumPy's
/// default). Returns `NaN` for an empty slice.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    quantile_sorted(&sorted, q)
}

/// [`quantile`] on an already ascending slice.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let q = q.clamp(0.0, 1.0);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    sorted[lo] + (sorted[hi] - sorted[lo]) * frac
}

/// The median of `samples` (`NaN` when empty).
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Fewest samples in one latency block: a block's 99th percentile has
/// at least ten samples beyond it.
pub const BLOCK_MIN: usize = 1000;

/// Most blocks a latency series is split into.
pub const MAX_BLOCKS: usize = 10;

/// Median and 99th percentile of one latency series, with its size.
///
/// The series is cut, in arrival order, into as many consecutive blocks
/// of at least [`BLOCK_MIN`] samples as it holds, at most [`MAX_BLOCKS`];
/// each quantile is the median over the blocks of the block's quantile.
/// A stall or a burst of outside load that hits one block of a run does
/// not move the result; a series shorter than two blocks is one block.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Latency {
    /// Median.
    pub p50: f64,
    /// 95th percentile.
    pub p95: f64,
    /// 99th percentile.
    pub p99: f64,
    /// Number of samples behind both.
    pub count: usize,
    /// Blocks the quantiles are the median over.
    pub blocks: usize,
}

impl Latency {
    /// Summarizes `samples`, given in arrival order (`NaN` quantiles when
    /// empty).
    pub fn of(samples: &[f64]) -> Latency {
        let blocks = (samples.len() / BLOCK_MIN).clamp(1, MAX_BLOCKS);
        let (mut p50s, mut p95s, mut p99s) = (Vec::new(), Vec::new(), Vec::new());
        for b in 0..blocks {
            let (lo, hi) = (b * samples.len() / blocks, (b + 1) * samples.len() / blocks);
            let mut block = samples[lo..hi].to_vec();
            block.sort_by(f64::total_cmp);
            p50s.push(quantile_sorted(&block, 0.5));
            p95s.push(quantile_sorted(&block, 0.95));
            p99s.push(quantile_sorted(&block, 0.99));
        }
        Latency {
            p50: median(&p50s),
            p95: median(&p95s),
            p99: median(&p99s),
            count: samples.len(),
            blocks,
        }
    }
}

/// One latency sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    /// When it completed, from the start of the timed phase.
    pub at: Duration,
    /// How long it took, microseconds.
    pub us: f64,
}

/// A bounded, arrival-ordered record of latency samples. Once
/// [`SampleLog::CAP`] samples are held, every other one is dropped and
/// only every second later one is kept (the stride doubles), so memory
/// stays fixed — the record lives in the process whose resident memory
/// the run reports — while the kept samples still cover the phase evenly.
#[derive(Debug, Clone)]
pub struct SampleLog {
    kept: Vec<Sample>,
    stride: u64,
    seen: u64,
}

impl Default for SampleLog {
    fn default() -> SampleLog {
        SampleLog {
            kept: Vec::new(),
            stride: 1,
            seen: 0,
        }
    }
}

impl SampleLog {
    /// Most samples held.
    pub const CAP: usize = 1 << 16;

    /// Records one sample.
    pub fn push(&mut self, sample: Sample) {
        let index = self.seen;
        self.seen += 1;
        if !index.is_multiple_of(self.stride) {
            return;
        }
        if self.kept.len() == SampleLog::CAP {
            let mut odd = false;
            self.kept.retain(|_| {
                odd = !odd;
                odd
            });
            self.stride *= 2;
            if !index.is_multiple_of(self.stride) {
                return;
            }
        }
        self.kept.push(sample);
    }

    /// The kept samples, in arrival order.
    pub fn samples(&self) -> &[Sample] {
        &self.kept
    }

    /// Samples recorded, kept or not.
    pub fn seen(&self) -> u64 {
        self.seen
    }
}

/// Clock ticks per second in `/proc/<pid>/stat` (`USER_HZ`, 100 on Linux).
const USER_HZ: u64 = 100;

/// CPU time (user plus system, every thread) process `pid` has used so
/// far, nanoseconds, from `/proc/<pid>/stat`; `None` where that file is
/// unreadable.
pub fn cpu_ns(pid: u32) -> Option<u64> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    parse_cpu_ticks(&stat).map(|ticks| ticks * (1_000_000_000 / USER_HZ))
}

/// CPU time the threads of process `pid` named `name` have used so far,
/// nanoseconds, from `/proc/<pid>/task/*/stat`; `None` where that is
/// unreadable or no thread has the name. Only threads alive now count.
pub fn threads_cpu_ns(pid: u32, name: &str) -> Option<u64> {
    let mut ticks = None;
    for task in std::fs::read_dir(format!("/proc/{pid}/task"))
        .ok()?
        .flatten()
    {
        let path = task.path();
        let comm = std::fs::read_to_string(path.join("comm")).unwrap_or_default();
        if comm.trim_end() != name {
            continue;
        }
        let stat = std::fs::read_to_string(path.join("stat")).ok()?;
        *ticks.get_or_insert(0) += parse_cpu_ticks(&stat)?;
    }
    ticks.map(|t| t * (1_000_000_000 / USER_HZ))
}

/// `utime + stime`, in ticks, from a `/proc/<pid>/stat` line. The command
/// name may hold spaces and parentheses, so fields count from the last `)`.
fn parse_cpu_ticks(stat: &str) -> Option<u64> {
    let fields: Vec<&str> = stat[stat.rfind(')')? + 1..].split_whitespace().collect();
    // The state (field 3) comes first; utime and stime are fields 14, 15.
    let tick = |i: usize| fields.get(i)?.parse::<u64>().ok();
    Some(tick(11)? + tick(12)?)
}

/// The host's steal per slice of a timed phase.
///
/// On a virtual machine the hypervisor can take the CPU away (*steal*
/// time, reported in `/proc/stat`), in bursts that come and go within a
/// run and with a neighbour's load that also slows what it leaves. Within
/// a run the program's rate falls about linearly with a slice's steal, so
/// each metric is estimated at zero steal: the intercept of the
/// [`theil_sen`] line through the slices' (steal, value) points. Where
/// `/proc/stat` has no steal column every slice reads 0 and the estimate
/// is the slices' median.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Steal {
    per_slice: Vec<f64>,
}

impl Steal {
    /// The steal fraction of every sampled slice, in order.
    pub fn from_fractions(per_slice: Vec<f64>) -> Steal {
        Steal { per_slice }
    }

    /// The steal fraction of slice `index`, if it was sampled.
    pub fn slice(&self, index: usize) -> Option<f64> {
        self.per_slice.get(index).copied()
    }

    /// Sampled slices and their mean steal, for the report.
    pub fn summary(&self) -> (usize, f64) {
        let n = self.per_slice.len();
        (n, self.per_slice.iter().sum::<f64>() / n.max(1) as f64)
    }
}

/// The Theil–Sen line through `points`: its slope is the median of the
/// slopes between every two points with distinct x (0 if there are
/// none), its intercept the median of `y - slope * x`. Returns
/// `(intercept, slope)`; a few outlying points move neither.
pub fn theil_sen(points: &[(f64, f64)]) -> (f64, f64) {
    let mut slopes = Vec::new();
    for (i, &(x0, y0)) in points.iter().enumerate() {
        for &(x1, y1) in &points[i + 1..] {
            if x1 != x0 {
                slopes.push((y1 - y0) / (x1 - x0));
            }
        }
    }
    let slope = if slopes.is_empty() {
        0.0
    } else {
        median(&slopes)
    };
    let residuals: Vec<f64> = points.iter().map(|&(x, y)| y - slope * x).collect();
    (median(&residuals), slope)
}

/// Fewest samples a slice needs to give a latency point.
const SLICE_MIN_SAMPLES: usize = 5;

/// Fewest points a zero-steal estimate is made from.
const MIN_POINTS: usize = 4;

/// The median latency at zero steal: the [`theil_sen`] intercept through
/// each slice's (steal, median latency), over the sampled slices with at
/// least [`SLICE_MIN_SAMPLES`] samples. `None` when fewer than
/// [`MIN_POINTS`] slices qualify.
pub fn p50_at_no_steal(samples: &[Sample], steal: &Steal) -> Option<f64> {
    let mut per_slice: Vec<Vec<f64>> = Vec::new();
    for s in samples {
        let index = usize::try_from(s.at.as_nanos() / Slices::LEN.as_nanos()).unwrap_or(usize::MAX);
        if steal.slice(index).is_none() {
            continue;
        }
        if per_slice.len() <= index {
            per_slice.resize_with(index + 1, Vec::new);
        }
        per_slice[index].push(s.us);
    }
    let points: Vec<(f64, f64)> = per_slice
        .iter()
        .enumerate()
        .filter(|(_, v)| v.len() >= SLICE_MIN_SAMPLES)
        .filter_map(|(i, v)| Some((steal.slice(i)?, median(v))))
        .collect();
    (points.len() >= MIN_POINTS).then(|| theil_sen(&points).0)
}

/// Samples the host's steal time once per slice on a thread of its own.
pub struct StealSampler {
    stop: Arc<AtomicBool>,
    handle: JoinHandle<Vec<f64>>,
}

/// The host's steal over one interval, from two `/proc/stat` readings.
pub struct StealClock(Option<(u64, u64)>);

impl StealClock {
    /// Starts the interval.
    pub fn start() -> StealClock {
        StealClock(read_steal())
    }

    /// The steal fraction since the start (0 where `/proc/stat` has no
    /// steal column).
    pub fn fraction(&self) -> f64 {
        steal_between(self.0, read_steal())
    }
}

/// The steal fraction between two `/proc/stat` readings.
fn steal_between(start: Option<(u64, u64)>, end: Option<(u64, u64)>) -> f64 {
    match (start, end) {
        (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => (s1 - s0) as f64 / (t1 - t0) as f64,
        _ => 0.0,
    }
}

/// Cumulative (steal, total) CPU ticks from `/proc/stat`.
fn read_steal() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .map(|t| t.parse().ok())
        .collect::<Option<_>>()?;
    Some((*ticks.get(7)?, ticks.iter().sum()))
}

impl StealSampler {
    /// Starts sampling; slice boundaries count from now.
    pub fn start() -> StealSampler {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let origin = Instant::now();
        let handle = std::thread::spawn(move || {
            let mut fractions = Vec::new();
            let mut prev = read_steal();
            loop {
                let boundary = origin + Slices::LEN * (fractions.len() as u32 + 1);
                loop {
                    if flag.load(Ordering::Relaxed) {
                        return fractions;
                    }
                    let now = Instant::now();
                    if now >= boundary {
                        break;
                    }
                    std::thread::sleep((boundary - now).min(Duration::from_millis(20)));
                }
                let cur = read_steal();
                fractions.push(steal_between(prev, cur));
                prev = cur;
            }
        });
        StealSampler { stop, handle }
    }

    /// Stops sampling and returns the complete slices' steal.
    pub fn finish(self) -> Steal {
        self.stop.store(true, Ordering::Relaxed);
        Steal::from_fractions(
            self.handle
                .join()
                .expect("the steal sampler does not panic"),
        )
    }
}

/// Acknowledged observations counted into fixed time slices of a timed
/// phase.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Slices {
    counts: Vec<u64>,
}

impl Slices {
    /// Length of one slice.
    pub const LEN: Duration = Duration::from_millis(500);

    /// Counts `n` observations acknowledged `since` the phase started.
    pub fn add(&mut self, since: Duration, n: u64) {
        let index =
            usize::try_from(since.as_nanos() / Slices::LEN.as_nanos()).unwrap_or(usize::MAX);
        if self.counts.len() <= index {
            self.counts.resize(index + 1, 0);
        }
        self.counts[index] += n;
    }

    /// Adds another producer's slices of the same phase.
    pub fn merge(&mut self, other: &Slices) {
        if self.counts.len() < other.counts.len() {
            self.counts.resize(other.counts.len(), 0);
        }
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            *mine += theirs;
        }
    }

    /// The rate per second of each slice that ended within `span` of the
    /// start.
    fn rates(&self, span: Duration) -> impl Iterator<Item = (usize, f64)> + '_ {
        let complete =
            usize::try_from(span.as_nanos() / Slices::LEN.as_nanos()).unwrap_or(usize::MAX);
        (0..complete).map(|i| {
            let count = self.counts.get(i).copied().unwrap_or(0);
            (i, count as f64 / Slices::LEN.as_secs_f64())
        })
    }

    /// The median slice rate, or `None` if the phase was shorter than
    /// one slice. A stall or a burst in a few slices does not move it.
    pub fn median_rate(&self, span: Duration) -> Option<f64> {
        let rates: Vec<f64> = self.rates(span).map(|(_, r)| r).collect();
        (!rates.is_empty()).then(|| median(&rates))
    }

    /// The rate at zero steal: the [`theil_sen`] intercept through the
    /// complete sampled slices' (steal, rate); `None` when fewer than
    /// [`MIN_POINTS`] slices were sampled.
    pub fn rate_at_no_steal(&self, span: Duration, steal: &Steal) -> Option<f64> {
        let points: Vec<(f64, f64)> = self
            .rates(span)
            .filter_map(|(i, r)| Some((steal.slice(i)?, r)))
            .collect();
        (points.len() >= MIN_POINTS).then(|| theil_sen(&points).0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slice_rates_ignore_a_stalled_slice_and_the_partial_tail() {
        let mut slices = Slices::default();
        let ms = Duration::from_millis;
        slices.add(ms(10), 100);
        slices.add(ms(600), 100);
        slices.add(ms(1100), 1); // a stall
        slices.add(ms(1700), 100);
        slices.add(ms(2100), 100);
        slices.add(ms(2600), 10_000); // the drain after the deadline
        assert_eq!(slices.median_rate(ms(2500)), Some(200.0));
        let mut other = Slices::default();
        other.add(ms(1200), 199);
        slices.merge(&other);
        assert_eq!(slices.median_rate(ms(2500)), Some(200.0));
        assert_eq!(slices.median_rate(ms(400)), None);
        // Without steal the zero-steal rate is the median rate.
        let calm = Steal::from_fractions(vec![0.0; 8]);
        assert_eq!(slices.rate_at_no_steal(ms(2500), &calm), Some(200.0));
    }

    #[test]
    fn the_sample_log_thins_evenly_and_stays_bounded() {
        let mut log = SampleLog::default();
        let total = 3 * SampleLog::CAP as u64 + 5;
        for i in 0..total {
            log.push(Sample {
                at: Duration::from_micros(i),
                us: i as f64,
            });
        }
        assert_eq!(log.seen(), total);
        assert!(log.samples().len() <= SampleLog::CAP);
        // Kept samples are exactly every fourth, first one included.
        assert!(log
            .samples()
            .iter()
            .enumerate()
            .all(|(k, s)| s.us == (4 * k) as f64));
        assert_eq!(log.samples().len() as u64, total.div_ceil(4));
    }

    #[test]
    fn theil_sen_fits_a_line_through_an_outlier() {
        let mut points: Vec<(f64, f64)> = (0..9)
            .map(|i| (i as f64 / 100.0, 1000.0 - 2000.0 * i as f64 / 100.0))
            .collect();
        points.push((0.04, 10.0)); // a stall
        let (intercept, slope) = theil_sen(&points);
        assert!((intercept - 1000.0).abs() < 1e-6, "{intercept}");
        assert!((slope + 2000.0).abs() < 1e-6, "{slope}");
        // No two distinct x: a flat line through the median.
        assert_eq!(theil_sen(&[(0.0, 1.0), (0.0, 5.0), (0.0, 3.0)]), (3.0, 0.0));
    }

    #[test]
    fn stolen_slices_are_corrected_to_zero_steal() {
        let ms = Duration::from_millis;
        // Each slice loses 2% of its rate per percent of steal.
        let steal = Steal::from_fractions((0..10).map(|i| (i % 4) as f64 / 100.0).collect());
        let mut slices = Slices::default();
        let mut samples = Vec::new();
        for i in 0..10u64 {
            let loss = 1.0 - 2.0 * steal.slice(i as usize).unwrap();
            slices.add(ms(500 * i + 1), (500.0 * loss) as u64);
            for k in 0..20 {
                samples.push(Sample {
                    at: ms(500 * i + 10 * k),
                    us: 100.0 / loss + k as f64,
                });
            }
        }
        let rate = slices.rate_at_no_steal(ms(5000), &steal).unwrap();
        assert!((rate - 1000.0).abs() < 1.0, "{rate}");
        let p50 = p50_at_no_steal(&samples, &steal).unwrap();
        assert!((p50 - 109.5).abs() < 1.0, "{p50}");
        // Samples after the last sampled slice do not count; too few
        // slices give no estimate.
        assert_eq!(p50_at_no_steal(&samples[..60], &steal), None);
        assert_eq!(steal.summary().0, 10);
    }

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.25), 1.75);
        assert_eq!(quantile(&[7.0], 0.99), 7.0);
        assert!(quantile(&[], 0.5).is_nan());
    }

    #[test]
    fn p99_of_a_uniform_ramp() {
        // 0..=1000 is one block: rank 0.99 * 1000 = 990 exactly.
        let v: Vec<f64> = (0..=1000).map(f64::from).collect();
        let lat = Latency::of(&v);
        assert_eq!(lat.p50, 500.0);
        assert_eq!(lat.p95, 950.0);
        assert_eq!(lat.p99, 990.0);
        assert_eq!((lat.count, lat.blocks), (1001, 1));
    }

    #[test]
    fn a_burst_in_one_block_does_not_move_the_quantiles() {
        // Five blocks of the same 0..1000 ramp; one block is all stall.
        let ramp: Vec<f64> = (0..1000).map(f64::from).collect();
        let mut v = Vec::new();
        for b in 0..5 {
            if b == 2 {
                v.extend(std::iter::repeat_n(1e9, 1000));
            } else {
                v.extend(&ramp);
            }
        }
        let lat = Latency::of(&v);
        assert_eq!(lat.blocks, 5);
        assert_eq!(lat.p50, quantile(&ramp, 0.5));
        assert_eq!(lat.p99, quantile(&ramp, 0.99));
        // More samples do not make more than MAX_BLOCKS blocks.
        assert_eq!(Latency::of(&vec![1.0; 123_456]).blocks, MAX_BLOCKS);
        assert_eq!(Latency::of(&vec![1.0; 2_999]).blocks, 2);
    }

    #[test]
    fn cpu_ticks_count_from_the_last_parenthesis() {
        let line = "4242 (a b) c) S 1 2 3 4 5 6 7 8 9 10 250 17 0 0 20 0 3 0 99";
        assert_eq!(parse_cpu_ticks(line), Some(267));
        assert_eq!(parse_cpu_ticks("4242 (x) S 1 2"), None);
        assert!(cpu_ns(std::process::id()).is_some());
    }

    #[test]
    fn out_of_range_quantiles_clamp() {
        let v = [1.0, 2.0, 3.0];
        assert_eq!(quantile(&v, -1.0), 1.0);
        assert_eq!(quantile(&v, 2.0), 3.0);
    }
}
