//! The in-process closed loop: one producer thread drives a
//! [`ConcurrentService`] through its public calls, keeping a bounded
//! number of receipts outstanding.

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use clocksync::SyncOutcome;
use clocksync_obs::Recorder;
use clocksync_service::{ConcurrentService, ObservationBatch, PendingReceipt, PoolStats};

use crate::gen::{plan_domains, DomainPlan};
use crate::ops::{history_chunks, Op, Producer};
use crate::stats::{Sample, SampleLog, Slices, Steal};
use crate::verify::Tally;
use crate::workload::Params;

/// When a drive stops.
#[derive(Debug, Clone, Copy)]
pub enum Stop {
    /// After this many batches (set-up).
    Batches(usize),
    /// At this instant (the timed phase).
    At(Instant),
}

impl Stop {
    fn reached(self, batches: usize) -> bool {
        match self {
            Stop::Batches(n) => batches >= n,
            Stop::At(t) => Instant::now() >= t,
        }
    }
}

/// Everything one drive measured.
#[derive(Debug, Default)]
pub struct Drive {
    /// Wall time from the first request to the last reply, seconds.
    pub wall_s: f64,
    /// Observations acknowledged as applied.
    pub applied: u64,
    /// Send → receipt latency per batch, in arrival order.
    pub batch_us: SampleLog,
    /// Outcome query latency, in arrival order.
    pub outcome_us: Vec<Sample>,
    /// `forget_link` latency, microseconds.
    pub forget_us: Vec<f64>,
    /// Time inside `ingest` per batch (traced drives only), nanoseconds.
    pub enqueue_ns: Vec<f64>,
    /// Time inside `PendingReceipt::wait` per batch (traced drives only),
    /// nanoseconds.
    pub wait_ns: Vec<f64>,
    /// Time spent generating the inputs (`Producer::next_op`) on the
    /// producer thread, nanoseconds: the benchmark's own share of the wall.
    pub gen_ns: u64,
    /// Attempted and failed operations.
    pub tally: Tally,
    /// Acknowledged observations per time slice.
    pub slices: Slices,
    /// When the drive started.
    pub started: Option<Instant>,
    /// Planned length of the drive, when it runs to a deadline.
    span: Option<Duration>,
}

impl Drive {
    /// Acknowledged observations per second: at zero steal for a drive
    /// to a deadline whose steal was sampled, the plain average otherwise.
    pub fn throughput(&self, steal: &Steal) -> f64 {
        self.span
            .and_then(|span| self.slices.rate_at_no_steal(span, steal))
            .unwrap_or(self.applied as f64 / self.wall_s)
    }

    /// The median slice rate of a drive to a deadline, the plain average
    /// otherwise.
    pub fn median_rate(&self) -> f64 {
        self.span
            .and_then(|span| self.slices.median_rate(span))
            .unwrap_or(self.applied as f64 / self.wall_s)
    }
}

fn micros(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// `d` in whole nanoseconds, saturating.
pub fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// A sample of the operation that began at `t0`, timed against `origin`.
fn sample(origin: Option<Instant>, t0: Instant) -> Sample {
    let done = Instant::now();
    Sample {
        at: origin.map_or(Duration::ZERO, |o| done.saturating_duration_since(o)),
        us: micros(done - t0),
    }
}

struct Inflight {
    started: Instant,
    expect: usize,
    pending: PendingReceipt,
}

/// A running service with its domains registered and warmed up.
pub struct InProcess {
    params: Params,
    plans: Vec<DomainPlan>,
    svc: ConcurrentService,
    producer: Producer,
}

impl InProcess {
    /// Plans the domains, starts the service, registers every domain,
    /// sends each domain's history and then its set-up batches and queries each domain once, so caches
    /// and warm `A_max` states exist before timing starts.
    pub fn setup(seed: u64, params: &Params, recorder: Recorder) -> InProcess {
        let plans = plan_domains(seed, params);
        let svc = ConcurrentService::start_with_recorder(params.service.clone(), recorder);
        for plan in &plans {
            svc.register_domain(plan.name.as_str(), plan.network.clone())
                .expect("fresh domain names cannot collide");
        }
        for plan in &plans {
            for chunk in history_chunks(params, plan) {
                let expect = chunk.len();
                let receipt = svc
                    .ingest(ObservationBatch::new(plan.name.as_str(), chunk))
                    .and_then(PendingReceipt::wait)
                    .expect("history batches apply");
                assert_eq!(receipt.applied, expect, "history batch partly applied");
            }
        }
        let producer = Producer::new(params, &plans, 0, 1);
        let mut this = InProcess {
            params: params.clone(),
            plans,
            svc,
            producer,
        };
        let warm = this.drive(Stop::Batches(params.warmup_batches * params.domains), false);
        assert_eq!(
            warm.tally.failed, 0,
            "set-up failed: {:?}",
            warm.tally.notes
        );
        for plan in &this.plans {
            this.svc
                .outcome(&plan.name)
                .expect("set-up outcomes succeed on generated traffic");
        }
        this
    }

    /// The domain plans.
    pub fn plans(&self) -> &[DomainPlan] {
        &self.plans
    }

    /// Batches sent so far to each domain.
    pub fn sent(&self) -> Vec<usize> {
        (0..self.plans.len())
            .map(|d| self.producer.sent(d))
            .collect()
    }

    /// Runs the closed loop until `stop`, finishing every retraction and
    /// query a sent batch scheduled. With `traced`, also times the calls
    /// into `ingest` and `wait` separately.
    pub fn drive(&mut self, stop: Stop, traced: bool) -> Drive {
        let mut out = Drive::default();
        let mut inflight: VecDeque<Inflight> = VecDeque::with_capacity(self.params.outstanding);
        let mut batches = 0usize;
        let started = Instant::now();
        out.started = Some(started);
        if let Stop::At(deadline) = stop {
            out.span = Some(deadline.saturating_duration_since(started));
        }
        loop {
            let generating = Instant::now();
            let op = self.producer.next_op(&self.plans);
            out.gen_ns += nanos(generating.elapsed());
            match op {
                Op::Batch { domain, obs } => {
                    batches += 1;
                    let expect = obs.len();
                    let t0 = Instant::now();
                    let sent = self
                        .svc
                        .ingest(ObservationBatch::new(self.plans[domain].name.as_str(), obs));
                    if traced {
                        out.enqueue_ns.push(t0.elapsed().as_nanos() as f64);
                    }
                    match sent {
                        Ok(pending) => inflight.push_back(Inflight {
                            started: t0,
                            expect,
                            pending,
                        }),
                        Err(e) => out.tally.fail(format!("ingest refused: {e}")),
                    }
                    if inflight.len() >= self.params.outstanding {
                        let oldest = inflight.pop_front().expect("inflight is at its cap");
                        redeem(oldest, traced, &mut out);
                    }
                }
                Op::Forget { domain, p, q } => {
                    let t0 = Instant::now();
                    match self.svc.forget_link(&self.plans[domain].name, p, q) {
                        Ok(_) => {
                            out.forget_us.push(micros(t0.elapsed()));
                            out.tally.ok();
                        }
                        Err(e) => out.tally.fail(format!("forget_link failed: {e}")),
                    }
                }
                Op::Outcome { domain, .. } => {
                    let t0 = Instant::now();
                    match self.svc.outcome(&self.plans[domain].name) {
                        Ok(_) => {
                            out.outcome_us.push(sample(out.started, t0));
                            out.tally.ok();
                        }
                        Err(e) => out.tally.fail(format!("outcome failed: {e}")),
                    }
                }
            }
            if !self.producer.has_queued() && stop.reached(batches) {
                break;
            }
        }
        while let Some(oldest) = inflight.pop_front() {
            redeem(oldest, traced, &mut out);
        }
        out.wall_s = started.elapsed().as_secs_f64();
        out
    }

    /// Every domain's current outcome, for the output check.
    pub fn outcomes(&self) -> (Vec<Result<SyncOutcome, String>>, Tally) {
        let mut tally = Tally::default();
        let outcomes = self
            .plans
            .iter()
            .map(|plan| {
                let outcome = self.svc.outcome(&plan.name).map_err(|e| e.to_string());
                match &outcome {
                    Ok(_) => tally.ok(),
                    Err(e) => tally.fail(format!("{}: final outcome failed: {e}", plan.name)),
                }
                outcome
            })
            .collect();
        (outcomes, tally)
    }

    /// Worker statistics (a barrier: everything enqueued is applied).
    pub fn stats(&self) -> PoolStats {
        self.svc.stats()
    }

    /// Drains and stops the service.
    pub fn shutdown(self) -> PoolStats {
        self.svc.shutdown()
    }
}

fn redeem(job: Inflight, traced: bool, out: &mut Drive) {
    let t0 = Instant::now();
    let receipt = job.pending.wait();
    if traced {
        out.wait_ns.push(t0.elapsed().as_nanos() as f64);
    }
    out.batch_us.push(sample(out.started, job.started));
    match receipt {
        Ok(r) if r.applied == job.expect => {
            out.applied += r.applied as u64;
            if let Some(started) = out.started {
                out.slices.add(started.elapsed(), r.applied as u64);
            }
            out.tally.ok();
        }
        Ok(r) => out.tally.fail(format!(
            "receipt for {} applied {} of {} observations",
            r.domain, r.applied, job.expect
        )),
        Err(e) => out.tally.fail(format!("batch rejected: {e}")),
    }
}
