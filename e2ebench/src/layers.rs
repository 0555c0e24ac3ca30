//! The layer replay of the traced run: a workload's op stream applied on
//! one thread through each layer's public functions, in the order
//! `SyncService::apply_batch` calls them, with a span around every call.
//!
//! Spans are the benchmark's own (an `Instant` pair around each call), so
//! the replay needs no instrumentation inside the program. Every span is
//! a leaf, so a layer's self time is the sum of its spans. The replay's
//! wall time counts only the ops themselves — input generation and the
//! closure snapshots taken for the kernel rows happen outside it; a
//! layer's share is its self time over that wall. Coverage is measured
//! against the real path instead: the layers' time per observation here
//! over the service's CPU time per observation in a pass of its own.
//!
//! In process, each producer burst to one domain (at most the service's
//! `max_coalesce` batches) is applied as one merged run, as a shard worker
//! merges a group's batches per domain; the service pass's
//! `service.coalesce_ratio` shows how close that comes. On the wire
//! workload every request is applied on its own, as its own frame, and the
//! frames really cross a loopback socket: `net.frame_read` and
//! `net.frame_write` include the system calls.
//!
//! Three parts of the program's path are mirrored rather than called,
//! because the program keeps them crate-private: the CLI's batch decoder
//! and reply builder (`cli.decode_batch`, `cli.encode_reply`, written the
//! same way as `clocksync_cli::serve`) and the service's pre-compaction of
//! large merged runs (`service.precompact`). The service's up-front batch
//! validation is skipped (the synchronizer validates again).

use std::collections::VecDeque;
use std::io::{BufReader, BufWriter, Write};
use std::net::{TcpListener, TcpStream};
use std::time::{Duration, Instant};

use clocksync::{BatchObservation, OnlineSynchronizer, Synchronizer};
use clocksync_graph::SquareMatrix;
use clocksync_model::{MessageId, MessageObservation, ProcessorId, ViewWindow};
use clocksync_net::wire::{read_frame, write_frame};
use clocksync_obs::json::{parse, to_string, Json};
use clocksync_service::ShardMap;
use clocksync_time::{ClockTime, ExtRatio, Nanos};

use crate::drive::nanos;
use crate::gen::{plan_domains, DomainPlan};
use crate::ops::{history_chunks, Op, Producer};
use crate::verify::{same_outcome, Tally};
use crate::wire::encode_batch;
use crate::workload::Params;

/// The layers the replay attributes time to, in path order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// `clocksync_net::wire::read_frame` on a request.
    FrameRead,
    /// `clocksync_obs::json::parse` on a request.
    JsonParse,
    /// Request document → batch (mirrors the CLI decoder).
    DecodeBatch,
    /// `ShardMap::route`.
    Route,
    /// `OnlineSynchronizer::ingest_batch`.
    IngestBatch,
    /// Pre-compaction of a merged run (mirrors the service).
    Precompact,
    /// `ViewWindow::push`, per message.
    WindowPush,
    /// `ViewWindow::gc_dominated`.
    WindowGc,
    /// `OnlineSynchronizer::compact_evidence`.
    Compact,
    /// `OnlineSynchronizer::outcome`.
    Outcome,
    /// `OnlineSynchronizer::forget_link`.
    ForgetLink,
    /// `ViewWindow::drop_link`.
    DropLink,
    /// Reply document construction (mirrors the CLI front-end).
    EncodeReply,
    /// `clocksync_obs::json::to_string` on a reply.
    JsonEncode,
    /// `clocksync_net::wire::write_frame` on a reply.
    FrameWrite,
}

impl Layer {
    /// Every layer, in path order.
    pub const ALL: [Layer; 15] = [
        Layer::FrameRead,
        Layer::JsonParse,
        Layer::DecodeBatch,
        Layer::Route,
        Layer::IngestBatch,
        Layer::Precompact,
        Layer::WindowPush,
        Layer::WindowGc,
        Layer::Compact,
        Layer::Outcome,
        Layer::ForgetLink,
        Layer::DropLink,
        Layer::EncodeReply,
        Layer::JsonEncode,
        Layer::FrameWrite,
    ];

    /// The metric prefix, named after the module the call goes into.
    pub fn name(self) -> &'static str {
        match self {
            Layer::FrameRead => "net.frame_read",
            Layer::JsonParse => "obs.json_parse",
            Layer::DecodeBatch => "cli.decode_batch",
            Layer::Route => "service.route",
            Layer::IngestBatch => "online.ingest_batch",
            Layer::Precompact => "service.precompact",
            Layer::WindowPush => "window.push",
            Layer::WindowGc => "window.gc",
            Layer::Compact => "online.compact",
            Layer::Outcome => "online.outcome",
            Layer::ForgetLink => "online.forget_link",
            Layer::DropLink => "window.drop_link",
            Layer::EncodeReply => "cli.encode_reply",
            Layer::JsonEncode => "obs.json_encode",
            Layer::FrameWrite => "net.frame_write",
        }
    }
}

/// Self time and call count per layer.
#[derive(Debug, Clone, Default)]
pub struct Spans {
    ns: [u64; Layer::ALL.len()],
    calls: [u64; Layer::ALL.len()],
}

impl Spans {
    fn add(&mut self, layer: Layer, elapsed: Duration, calls: u64) {
        self.ns[layer as usize] += u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX);
        self.calls[layer as usize] += calls;
    }

    /// Total self time of `layer`, nanoseconds.
    pub fn ns(&self, layer: Layer) -> u64 {
        self.ns[layer as usize]
    }

    /// Calls into `layer` (messages, for `window.push`).
    pub fn calls(&self, layer: Layer) -> u64 {
        self.calls[layer as usize]
    }

    /// Sum of every layer's self time, nanoseconds.
    pub fn total_ns(&self) -> u64 {
        self.ns.iter().sum()
    }
}

/// Times one call into a layer.
fn span<T>(spans: &mut Spans, layer: Layer, f: impl FnOnce() -> T) -> T {
    let t0 = Instant::now();
    let out = f();
    spans.add(layer, t0.elapsed(), 1);
    out
}

/// Merged runs at least this long are pre-compacted before they touch
/// the window (the service's `PRECOMPACT_MIN`).
const PRECOMPACT_MIN: usize = 512;

/// Mirror of the service's crate-private `precompact_run`: which entries
/// of a long run can survive the window GC that follows — per directed
/// pair the last `window` arrivals and the delay-extremal witnesses, with
/// the GC's tie-breaks (earliest wins the minimum, latest the maximum).
/// The window ends up the same as if every entry were pushed.
fn precompact(observations: &[BatchObservation], n: usize, window: usize) -> Vec<bool> {
    struct Pair {
        min: (Nanos, usize),
        max: (Nanos, usize),
        tail: VecDeque<usize>,
    }
    let mut pairs: Vec<Option<Pair>> = Vec::new();
    pairs.resize_with(n * n, || None);
    for (i, obs) in observations.iter().enumerate() {
        let Some(delay) = obs.recv_clock.checked_sub(obs.send_clock) else {
            return vec![true; observations.len()];
        };
        let entry = pairs[obs.src.index() * n + obs.dst.index()].get_or_insert_with(|| Pair {
            min: (delay, i),
            max: (delay, i),
            tail: VecDeque::with_capacity(window + 1),
        });
        if delay < entry.min.0 {
            entry.min = (delay, i);
        }
        if delay >= entry.max.0 {
            entry.max = (delay, i);
        }
        entry.tail.push_back(i);
        if entry.tail.len() > window {
            entry.tail.pop_front();
        }
    }
    let mut keep = vec![false; observations.len()];
    for pair in pairs.iter().flatten() {
        keep[pair.min.1] = true;
        keep[pair.max.1] = true;
        for &i in &pair.tail {
            keep[i] = true;
        }
    }
    keep
}

/// One domain's state, as the service keeps it.
struct Domain {
    online: OnlineSynchronizer,
    window: ViewWindow,
    next_id: u64,
    /// The closure as the domain's last outcome query saw it: the state a
    /// warm `A_max` restart begins from.
    prev_closure: Option<SquareMatrix<ExtRatio>>,
}

/// One op, prepared outside the timed wall: the request frame the server
/// would read, for the wire workload.
struct Prepared {
    op: Op,
    frame: Option<Vec<u8>>,
}

/// Both ends of one loopback connection. The replay sends each request
/// frame from the client end and drains each reply there, outside the
/// timed wall; the server end's reads and writes are the timed
/// `net.frame_read` and `net.frame_write` calls.
struct Loopback {
    client: TcpStream,
    client_reader: BufReader<TcpStream>,
    server_reader: BufReader<TcpStream>,
    server_writer: BufWriter<TcpStream>,
    /// Replies written at the server end and not yet drained.
    pending: usize,
}

impl Loopback {
    fn open() -> Result<Loopback, String> {
        let io = |e: std::io::Error| format!("loopback socket: {e}");
        let listener = TcpListener::bind("127.0.0.1:0").map_err(io)?;
        let client = TcpStream::connect(listener.local_addr().map_err(io)?).map_err(io)?;
        let (server, _) = listener.accept().map_err(io)?;
        client.set_nodelay(true).map_err(io)?;
        server.set_nodelay(true).map_err(io)?;
        Ok(Loopback {
            client_reader: BufReader::new(client.try_clone().map_err(io)?),
            client,
            server_reader: BufReader::new(server.try_clone().map_err(io)?),
            server_writer: BufWriter::new(server),
            pending: 0,
        })
    }

    /// Reads every reply written since the last drain.
    fn drain(&mut self) -> Result<(), String> {
        while self.pending > 0 {
            self.pending -= 1;
            read_frame(&mut self.client_reader)
                .map_err(|e| format!("reading a reply: {e}"))?
                .ok_or("the server end closed")?;
        }
        Ok(())
    }
}

/// What the replay measured.
#[derive(Debug, Default)]
pub struct Replay {
    /// Per-layer self time and calls.
    pub spans: Spans,
    /// Wall time of the replayed ops, nanoseconds.
    pub wall_ns: u64,
    /// Observations the replayed batches applied (history and set-up
    /// not included).
    pub observations: u64,
    /// Request frame bytes read, in total.
    pub frame_bytes: u64,
    /// Messages pushed into the windows over their lifetime, history and
    /// set-up included.
    pub pushed: u64,
    /// Messages the windows dropped over their lifetime.
    pub dropped: u64,
    /// Messages retained across every window at the end.
    pub retained_msgs: u64,
    /// Evidence samples retained across every synchronizer at the end.
    pub retained_samples: u64,
    /// Op failures and final-state checks.
    pub tally: Tally,
    /// Kernel rows on the final closures.
    pub kernels: crate::kernels::KernelRows,
}

/// Replays a workload through the layers on one thread.
pub struct LayerReplay {
    params: Params,
    plans: Vec<DomainPlan>,
    map: ShardMap,
    domains: Vec<Domain>,
    producers: Vec<Producer>,
    next_producer: usize,
    /// The loopback connection, on the wire workload.
    net: Option<Loopback>,
    /// The op that ended the last step, generated but not yet applied.
    held: Option<Prepared>,
}

impl LayerReplay {
    /// Plans the workload's domains and applies their history and set-up
    /// ops (not measured), ending with one outcome per domain as the service's
    /// set-up does.
    pub fn setup(seed: u64, params: &Params, wire: bool) -> Result<LayerReplay, String> {
        let plans = plan_domains(seed, params);
        let mut map = ShardMap::new(params.service.shards);
        for plan in &plans {
            map.assign(&plan.name);
        }
        let domains = plans
            .iter()
            .map(|plan| Domain {
                online: OnlineSynchronizer::new(plan.network.clone()),
                window: ViewWindow::new(plan.n),
                next_id: 0,
                prev_closure: None,
            })
            .collect();
        let lanes = params.connections;
        let producers = (0..lanes)
            .map(|i| Producer::new(params, &plans, i, lanes))
            .collect();
        let mut replay = LayerReplay {
            params: params.clone(),
            plans,
            map,
            domains,
            producers,
            next_producer: 0,
            net: if wire { Some(Loopback::open()?) } else { None },
            held: None,
        };
        let mut scratch = Replay::default();
        for domain in 0..replay.plans.len() {
            for obs in history_chunks(params, &replay.plans[domain]) {
                replay.apply_op(Op::Batch { domain, obs }, false, &mut scratch);
            }
        }
        let target = params.warmup_batches * params.domains;
        while replay
            .producers
            .iter()
            .map(Producer::batches)
            .sum::<usize>()
            < target
            || replay.producers.iter().any(Producer::has_queued)
        {
            let op = replay.prepare();
            replay.apply(op, &mut scratch);
        }
        for domain in 0..replay.plans.len() {
            replay.apply_op(Op::Outcome { domain, after: 0 }, false, &mut scratch);
        }
        if scratch.tally.failed > 0 {
            return Err(format!("replay set-up failed: {:?}", scratch.tally.notes));
        }
        Ok(replay)
    }

    /// Generates the next op (round robin over the producers, keeping each
    /// producer's follow-ups together) and its request frame.
    fn prepare(&mut self) -> Prepared {
        let producer = &mut self.producers[self.next_producer];
        let op = producer.next_op(&self.plans);
        if !producer.has_queued() {
            self.next_producer = (self.next_producer + 1) % self.producers.len();
        }
        let frame = self.net.is_some().then(|| {
            let mut text = String::new();
            match &op {
                Op::Batch { domain, obs } => {
                    encode_batch(&mut text, &self.plans[*domain].name, obs)
                }
                Op::Outcome { domain, .. } => {
                    text = format!(
                        r#"{{"t":"outcome","domain":"{}"}}"#,
                        self.plans[*domain].name
                    );
                }
                Op::Forget { .. } => unreachable!("the wire workload retracts nothing"),
            }
            let mut frame = Vec::with_capacity(text.len() + 4);
            write_frame(&mut frame, text.as_bytes()).expect("frames fit the cap");
            frame
        });
        Prepared { op, frame }
    }

    /// Generates at least 16 ops, up to the start of a batch that does not
    /// merge with the one before, merging each run of consecutive
    /// in-process batches to one domain, at most `max_coalesce` of them,
    /// into one batch. The batch that ends the step is held for the next.
    fn prepare_step(&mut self, chunk: &mut Vec<Prepared>) {
        let max = self.params.service.max_coalesce;
        let mut merged = 1;
        chunk.extend(self.held.take());
        loop {
            let next = self.prepare();
            let merges = match (chunk.last(), &next) {
                (
                    Some(Prepared {
                        op: Op::Batch { domain, .. },
                        frame: None,
                    }),
                    Prepared {
                        op: Op::Batch { domain: d, .. },
                        frame: None,
                    },
                ) => domain == d && merged < max,
                _ => false,
            };
            if merges {
                if let (
                    Some(Prepared {
                        op: Op::Batch { obs, .. },
                        ..
                    }),
                    Op::Batch { obs: more, .. },
                ) = (chunk.last_mut(), next.op)
                {
                    obs.extend(more);
                }
                merged += 1;
            } else if chunk.len() >= 16 && matches!(next.op, Op::Batch { .. }) {
                self.held = Some(next);
                return;
            } else {
                merged = 1;
                chunk.push(next);
            }
        }
    }

    /// Replays ops for `budget` of op wall time, then measures the kernel
    /// rows and checks every domain's final state.
    pub fn run(mut self, budget: Duration) -> Replay {
        let mut out = Replay::default();
        let budget_ns = nanos(budget);
        let mut chunk = Vec::with_capacity(32);
        while out.wall_ns < budget_ns {
            // Generate a few steps ahead, outside the timed wall.
            self.prepare_step(&mut chunk);
            for op in chunk.drain(..) {
                self.apply(op, &mut out);
            }
        }
        for d in &self.domains {
            out.pushed += d.window.pushed();
            out.dropped += d.window.dropped();
            out.retained_msgs += d.window.live() as u64;
            out.retained_samples += d.online.retained_samples() as u64;
        }
        self.finish(&mut out);
        out
    }

    /// Applies one prepared op, adding its wall time and spans to `out`.
    /// Sending the request and draining the reply at the client end, and
    /// the closure snapshot after a query, happen outside the wall.
    fn apply(&mut self, prepared: Prepared, out: &mut Replay) {
        let Prepared { op, frame } = prepared;
        let snapshot = match op {
            Op::Outcome { domain, .. } => Some(domain),
            _ => None,
        };
        if let (Some(net), Some(frame)) = (self.net.as_mut(), frame.as_ref()) {
            out.frame_bytes += frame.len() as u64;
            if let Err(e) = net.client.write_all(frame) {
                out.tally.fail(format!("sending a request: {e}"));
                return;
            }
        }
        let started = Instant::now();
        self.apply_op(op, frame.is_some(), out);
        out.wall_ns += nanos(started.elapsed());
        if let Some(Err(e)) = self.net.as_mut().map(Loopback::drain) {
            out.tally.fail(e);
        }
        // The snapshot a warm restart begins from; not replay work.
        if let Some(domain) = snapshot {
            let d = &mut self.domains[domain];
            d.prev_closure = d.online.global_estimates().ok().cloned();
        }
    }

    /// Applies one op; with `request`, reads it from the server end of the
    /// loopback connection first and writes the reply there after.
    fn apply_op(&mut self, op: Op, request: bool, out: &mut Replay) {
        let spans = &mut out.spans;
        let op = if request {
            match self.read_request(spans) {
                Ok(op) => op,
                Err(e) => {
                    out.tally.fail(e);
                    return;
                }
            }
        } else {
            op
        };
        let window = self.params.service.window;
        match op {
            Op::Batch { domain, obs } => {
                let name = &self.plans[domain].name;
                let n = self.plans[domain].n;
                std::hint::black_box(span(spans, Layer::Route, || self.map.route(name)));
                let d = &mut self.domains[domain];
                let applied = match span(spans, Layer::IngestBatch, || d.online.ingest_batch(&obs))
                {
                    Ok(applied) => {
                        out.observations += applied as u64;
                        applied
                    }
                    Err(e) => {
                        out.tally.fail(format!("{name}: batch rejected: {e}"));
                        return;
                    }
                };
                let keep = (obs.len() >= PRECOMPACT_MIN)
                    .then(|| span(spans, Layer::Precompact, || precompact(&obs, n, window)));
                let t0 = Instant::now();
                let mut pushed = Ok(());
                let mut calls = 0;
                for (i, o) in obs.iter().enumerate() {
                    if keep.as_ref().is_some_and(|keep| !keep[i]) {
                        continue;
                    }
                    calls += 1;
                    let id = MessageId(d.next_id);
                    d.next_id += 1;
                    pushed = pushed.and(d.window.push(MessageObservation {
                        src: o.src,
                        dst: o.dst,
                        id,
                        send_clock: o.send_clock,
                        recv_clock: o.recv_clock,
                    }));
                }
                spans.add(Layer::WindowPush, t0.elapsed(), calls);
                let gc_dropped = span(spans, Layer::WindowGc, || d.window.gc_dominated(window));
                let compacted = span(spans, Layer::Compact, || d.online.compact_evidence(window));
                match pushed {
                    Ok(()) => out.tally.ok(),
                    Err(e) => out
                        .tally
                        .fail(format!("{name}: window refused a message: {e}")),
                }
                if request {
                    let reply = span(spans, Layer::EncodeReply, || {
                        Json::object([
                            ("ok", Json::Bool(true)),
                            ("domain", Json::Str(name.clone())),
                            ("shard", Json::Int(self.map.route(name) as i128)),
                            ("applied", Json::Int(applied as i128)),
                            ("gc_dropped", Json::Int(gc_dropped as i128)),
                            ("samples_compacted", Json::Int(compacted as i128)),
                            ("retained_messages", Json::Int(d.window.live() as i128)),
                        ])
                    });
                    self.write_reply(&reply, out);
                }
            }
            Op::Forget { domain, p, q } => {
                let d = &mut self.domains[domain];
                span(spans, Layer::ForgetLink, || d.online.forget_link(p, q));
                span(spans, Layer::DropLink, || d.window.drop_link(p, q));
                out.tally.ok();
            }
            Op::Outcome { domain, .. } => {
                let d = &mut self.domains[domain];
                let outcome = span(spans, Layer::Outcome, || d.online.outcome());
                match outcome {
                    Ok(outcome) => {
                        out.tally.ok();
                        if request {
                            let name = self.plans[domain].name.clone();
                            let reply = span(spans, Layer::EncodeReply, || {
                                let corrections = outcome
                                    .corrections()
                                    .iter()
                                    .map(|r| Json::Float(r.to_f64()))
                                    .collect();
                                Json::object([
                                    ("ok", Json::Bool(true)),
                                    ("domain", Json::Str(name)),
                                    (
                                        "precision_ns",
                                        outcome
                                            .precision()
                                            .finite()
                                            .map_or(Json::Null, |p| Json::Float(p.to_f64())),
                                    ),
                                    ("corrections_ns", Json::Array(corrections)),
                                ])
                            });
                            self.write_reply(&reply, out);
                        }
                    }
                    Err(e) => out.tally.fail(format!("outcome failed: {e}")),
                }
            }
        }
    }

    /// The server side of a request: frame, parse, decode.
    fn read_request(&mut self, spans: &mut Spans) -> Result<Op, String> {
        let net = self.net.as_mut().ok_or("no loopback connection")?;
        let payload = span(spans, Layer::FrameRead, || {
            read_frame(&mut net.server_reader)
        })
        .map_err(|e| e.to_string())?
        .ok_or("empty frame")?;
        let doc = span(spans, Layer::JsonParse, || {
            std::str::from_utf8(&payload)
                .map_err(|_| "frame is not utf-8".to_string())
                .and_then(|text| parse(text).map_err(|e| e.to_string()))
        })?;
        span(spans, Layer::DecodeBatch, || self.decode(&doc))
    }

    /// Request document → op, field by field as the CLI decodes it.
    fn decode(&self, doc: &Json) -> Result<Op, String> {
        let field = |key: &str| doc.field(key, "request").map_err(|e| e.to_string());
        let name = field("domain")?
            .as_str("domain")
            .map_err(|e| e.to_string())?;
        let domain = self
            .plans
            .iter()
            .position(|p| p.name == name)
            .ok_or_else(|| format!("unknown domain {name}"))?;
        match field("t")?.as_str("t").map_err(|e| e.to_string())? {
            "outcome" => Ok(Op::Outcome { domain, after: 0 }),
            "batch" => {
                let rows = field("obs")?.as_array("obs").map_err(|e| e.to_string())?;
                let mut obs = Vec::with_capacity(rows.len());
                for row in rows {
                    let row = row.as_array("obs row").map_err(|e| e.to_string())?;
                    if row.len() != 4 {
                        return Err("an obs row needs four numbers".to_string());
                    }
                    let int = |i: usize| row[i].as_i64("obs").map_err(|e| e.to_string());
                    let proc = |i: usize| {
                        row[i]
                            .as_usize("obs")
                            .map(ProcessorId)
                            .map_err(|e| e.to_string())
                    };
                    obs.push(BatchObservation {
                        src: proc(0)?,
                        dst: proc(1)?,
                        send_clock: ClockTime::from_nanos(int(2)?),
                        recv_clock: ClockTime::from_nanos(int(3)?),
                    });
                }
                Ok(Op::Batch { domain, obs })
            }
            other => Err(format!("unknown command {other}")),
        }
    }

    /// Encodes a reply and writes it at the server end.
    fn write_reply(&mut self, reply: &Json, out: &mut Replay) {
        let spans = &mut out.spans;
        let text = span(spans, Layer::JsonEncode, || to_string(reply));
        let Some(net) = self.net.as_mut() else {
            return;
        };
        let written = span(spans, Layer::FrameWrite, || {
            write_frame(&mut net.server_writer, text.as_bytes())
                .map_err(|e| e.to_string())
                .and_then(|()| net.server_writer.flush().map_err(|e| e.to_string()))
        });
        match written {
            Ok(()) => net.pending += 1,
            Err(e) => out.tally.fail(format!("writing a reply: {e}")),
        }
    }

    /// Kernel rows on every domain's final closure, and the final-state
    /// check: each domain's warm outcome must equal the batch pipeline
    /// over the views its window retained.
    fn finish(&mut self, out: &mut Replay) {
        for (plan, d) in self.plans.iter().zip(&mut self.domains) {
            let warm = d.online.outcome();
            out.kernels
                .add_domain(&mut d.online, d.prev_closure.as_ref(), &mut out.tally);
            let cold = d
                .window
                .to_view_set()
                .map_err(|e| e.to_string())
                .and_then(|views| {
                    Synchronizer::new(plan.network.clone())
                        .synchronize(&views)
                        .map_err(|e| e.to_string())
                });
            match (warm, cold) {
                (Ok(warm), Ok(cold)) if same_outcome(&warm, &cold) => out.tally.ok(),
                (Ok(_), Ok(_)) => out.tally.fail(format!(
                    "{}: replayed outcome differs from the batch pipeline over the retained window",
                    plan.name
                )),
                (Err(e), _) => out
                    .tally
                    .fail(format!("{}: replayed outcome failed: {e}", plan.name)),
                (_, Err(e)) => out
                    .tally
                    .fail(format!("{}: batch pipeline failed: {e}", plan.name)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::DomainStream;
    use crate::workload::Workload;

    #[test]
    fn precompaction_keeps_what_the_window_gc_would() {
        let params = Workload::IngestFanin.params();
        let window = params.service.window;
        let plan = &plan_domains(4, &params)[0];
        let run = DomainStream::new(plan).next_batch(16 * params.batch);
        let keep = precompact(&run, plan.n, window);
        assert!(keep.iter().any(|&k| !k), "a long run has dominated entries");
        let retained = |mask: Option<&[bool]>| {
            let mut w = ViewWindow::new(plan.n);
            for (i, o) in run.iter().enumerate() {
                if mask.is_some_and(|m| !m[i]) {
                    continue;
                }
                w.push(MessageObservation {
                    src: o.src,
                    dst: o.dst,
                    id: MessageId(i as u64),
                    send_clock: o.send_clock,
                    recv_clock: o.recv_clock,
                })
                .expect("generated messages fit the window");
            }
            w.gc_dominated(window);
            let mut ids: Vec<u64> = w.live_messages().map(|m| m.id.0).collect();
            ids.sort_unstable();
            ids
        };
        assert_eq!(retained(Some(&keep)), retained(None));
    }

    #[test]
    fn bursts_to_one_domain_merge_up_to_the_group_size() {
        let params = Workload::IngestFanin.params();
        let mut replay = LayerReplay::setup(2, &params, false).expect("set-up succeeds");
        let mut chunk = Vec::new();
        replay.prepare_step(&mut chunk);
        let sizes: Vec<usize> = chunk
            .iter()
            .filter_map(|p| match &p.op {
                Op::Batch { obs, .. } => Some(obs.len()),
                _ => None,
            })
            .collect();
        assert!(!sizes.is_empty());
        assert!(
            sizes.iter().all(|&n| n == params.burst * params.batch),
            "{sizes:?}"
        );
    }
}
