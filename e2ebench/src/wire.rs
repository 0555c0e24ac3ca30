//! The loopback wire path: a `serve --listen` server in a child process
//! and one producer connection per thread.
//!
//! The child is this benchmark binary re-executed with `--serve-child`;
//! it runs the CLI library's own acceptor
//! ([`clocksync_cli::listen::serve_listener`]) on an ephemeral loopback
//! port, so the system under test is exactly the program's front-end, in
//! a process of its own whose memory can be read at the end of the run.

use std::fmt::Write as _;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use clocksync::BatchObservation;
use clocksync_net::wire::{read_frame, write_frame};
use clocksync_obs::json::{parse, Json};
use clocksync_obs::Recorder;
use clocksync_service::ServiceConfig;

use crate::drive::nanos;
use crate::gen::{plan_domains, DomainPlan};
use crate::ops::{history_chunks, Op, Producer};
use crate::stats::{cpu_ns, Sample, Slices, Steal, StealSampler};
use crate::verify::{check_wire_domain, on_two_threads, Tally, WireOutcome};
use crate::workload::Params;

/// Runs the server side: binds an ephemeral loopback port, announces it
/// on stdout, and serves until `conns` connections have come and gone.
pub fn serve_child(config: ServiceConfig, conns: u64) -> Result<(), String> {
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("binding: {e}"))?;
    let port = listener
        .local_addr()
        .map_err(|e| format!("binding: {e}"))?
        .port();
    let mut stdout = std::io::stdout();
    writeln!(stdout, "port {port}")
        .and_then(|()| stdout.flush())
        .map_err(|e| format!("announcing the port: {e}"))?;
    let stats = clocksync_cli::listen::serve_listener(
        listener,
        config,
        &Recorder::disabled(),
        Some(conns),
    )?;
    eprintln!(
        "served {} connections, {} frames ({} errors)",
        stats.connections, stats.frames, stats.errors
    );
    Ok(())
}

/// A server child; killed and reaped if dropped before [`Server::finish`].
pub struct Server {
    child: Option<Child>,
    addr: SocketAddr,
}

impl Server {
    /// Starts the server child for `params` and waits for its port.
    pub fn spawn(params: &Params) -> Result<Server, String> {
        let exe = std::env::current_exe().map_err(|e| format!("locating the binary: {e}"))?;
        let cfg = &params.service;
        let mut child = Command::new(exe)
            .args(["--serve-child", "--conns"])
            .arg(params.connections.to_string())
            .args(["--shards", &cfg.shards.to_string()])
            .args(["--window", &cfg.window.to_string()])
            .args(["--queue-depth", &cfg.queue_depth.to_string()])
            .args(["--max-coalesce", &cfg.max_coalesce.to_string()])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("starting the server: {e}"))?;
        let mut line = String::new();
        let read = child
            .stdout
            .take()
            .map(|out| BufReader::new(out).read_line(&mut line));
        let mut server = Server {
            child: Some(child),
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
        };
        let port = match (read, line.trim().strip_prefix("port ")) {
            (Some(Ok(_)), Some(port)) => port
                .parse::<u16>()
                .map_err(|e| format!("server announced a bad port: {e}"))?,
            _ => return Err(format!("server did not announce a port: {line:?}")),
        };
        server.addr.set_port(port);
        Ok(server)
    }

    /// The child's resident set size, bytes.
    pub fn rss_bytes(&self) -> Option<u64> {
        let pid = self.child.as_ref()?.id();
        let statm = std::fs::read_to_string(format!("/proc/{pid}/statm")).ok()?;
        let resident: u64 = statm.split_whitespace().nth(1)?.parse().ok()?;
        Some(resident * 4096)
    }

    /// CPU time the child has used so far, nanoseconds.
    pub fn cpu_ns(&self) -> Option<u64> {
        cpu_ns(self.child.as_ref()?.id())
    }

    /// Waits for the child to exit on its own (every connection must be
    /// closed first) and reports whether it succeeded.
    pub fn finish(mut self) -> Result<(), String> {
        let mut child = self.child.take().expect("finish runs once");
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            match child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("server exited with {status}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                Ok(None) => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err("server did not exit after its connections closed".to_string());
                }
                Err(e) => return Err(format!("waiting for the server: {e}")),
            }
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Some(child) = &mut self.child {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// One client connection speaking the framed-JSON protocol.
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    text: String,
}

impl Conn {
    fn connect(addr: SocketAddr) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connecting: {e}"))?;
        stream
            .set_nodelay(true)
            .map_err(|e| format!("setting TCP_NODELAY: {e}"))?;
        let reader = stream
            .try_clone()
            .map_err(|e| format!("cloning the socket: {e}"))?;
        Ok(Conn {
            reader: BufReader::new(reader),
            writer: BufWriter::new(stream),
            text: String::new(),
        })
    }

    /// Sends the request in `self.text` and returns the decoded reply.
    fn round_trip(&mut self) -> Result<Json, String> {
        write_frame(&mut self.writer, self.text.as_bytes()).map_err(|e| format!("writing: {e}"))?;
        self.writer.flush().map_err(|e| format!("writing: {e}"))?;
        let reply = read_frame(&mut self.reader)
            .map_err(|e| format!("reading: {e}"))?
            .ok_or("server closed the connection")?;
        let text = std::str::from_utf8(&reply).map_err(|_| "reply is not utf-8")?;
        let doc = parse(text).map_err(|e| e.to_string())?;
        match doc.field("ok", "reply") {
            Ok(Json::Bool(true)) => Ok(doc),
            _ => Err(format!("error reply: {text}")),
        }
    }

    fn register(&mut self, plan: &DomainPlan) -> Result<(), String> {
        self.text.clear();
        let _ = write!(
            self.text,
            r#"{{"t":"domain","domain":"{}","n":{},"links":["#,
            plan.name, plan.n
        );
        for (i, l) in plan.links.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(
                self.text,
                r#"{sep}{{"a":{},"b":{},"lo_ns":{},"hi_ns":{}}}"#,
                l.a, l.b, l.lo, l.hi
            );
        }
        self.text.push_str("]}");
        self.round_trip().map(|_| ())
    }

    /// Sends one batch; returns the `applied` count of the reply.
    fn batch(&mut self, domain: &str, obs: &[BatchObservation]) -> Result<i64, String> {
        self.text.clear();
        encode_batch(&mut self.text, domain, obs);
        let reply = self.round_trip()?;
        reply
            .field("applied", "reply")
            .and_then(|v| v.as_i64("applied"))
            .map_err(|e| e.to_string())
    }

    fn outcome(&mut self, domain: &str) -> Result<WireOutcome, String> {
        self.text.clear();
        let _ = write!(self.text, r#"{{"t":"outcome","domain":"{domain}"}}"#);
        let reply = self.round_trip()?;
        decode_outcome(&reply)
    }
}

/// Appends the `batch` request for `obs` to `out`.
pub fn encode_batch(out: &mut String, domain: &str, obs: &[BatchObservation]) {
    let _ = write!(out, r#"{{"t":"batch","domain":"{domain}","obs":["#);
    for (i, o) in obs.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(
            out,
            "{sep}[{},{},{},{}]",
            o.src.index(),
            o.dst.index(),
            o.send_clock.as_nanos(),
            o.recv_clock.as_nanos()
        );
    }
    out.push_str("]}");
}

fn decode_outcome(reply: &Json) -> Result<WireOutcome, String> {
    let float = |v: &Json| match v {
        Json::Float(f) => Ok(*f),
        Json::Int(i) => Ok(*i as f64),
        other => Err(format!("not a number: {other:?}")),
    };
    let precision = match reply
        .field("precision_ns", "reply")
        .map_err(|e| e.to_string())?
    {
        Json::Null => None,
        v => Some(float(v)?),
    };
    let corrections = reply
        .field("corrections_ns", "reply")
        .and_then(|v| v.as_array("corrections_ns"))
        .map_err(|e| e.to_string())?
        .iter()
        .map(float)
        .collect::<Result<_, _>>()?;
    Ok(WireOutcome {
        precision,
        corrections,
    })
}

/// One producer connection with what it measured.
struct Lane {
    conn: Conn,
    producer: Producer,
    /// Latency per batch, timed against the start of the timed phase so
    /// the lanes merge in arrival order.
    batch_us: Vec<Sample>,
    /// The same for outcome queries.
    outcome_us: Vec<Sample>,
    applied: u64,
    /// Time spent generating the inputs, nanoseconds.
    gen_ns: u64,
    slices: Slices,
    tally: Tally,
    /// `(domain, batches before, reply)` per mid-stream query.
    replies: Vec<(usize, usize, WireOutcome)>,
}

impl Lane {
    /// Sends ops until `stop` says so between complete steps; records
    /// latencies and slices against `timed`, the timed phase's start, if
    /// given.
    fn run(
        &mut self,
        plans: &[DomainPlan],
        timed: Option<Instant>,
        stop: impl Fn(&Producer) -> bool,
    ) {
        let sample = |t0: Instant| {
            timed.map(|start| {
                let done = Instant::now();
                Sample {
                    at: done - start,
                    us: (done - t0).as_secs_f64() * 1e6,
                }
            })
        };
        loop {
            let generating = Instant::now();
            let op = self.producer.next_op(plans);
            self.gen_ns += nanos(generating.elapsed());
            match op {
                Op::Batch { domain, obs } => {
                    let t0 = Instant::now();
                    let result = self.conn.batch(&plans[domain].name, &obs);
                    self.batch_us.extend(sample(t0));
                    match result {
                        Ok(n) if n == obs.len() as i64 => {
                            self.applied += obs.len() as u64;
                            if let Some(start) = timed {
                                self.slices.add(start.elapsed(), obs.len() as u64);
                            }
                            self.tally.ok();
                        }
                        Ok(n) => self
                            .tally
                            .fail(format!("batch applied {n} of {}", obs.len())),
                        Err(e) => self.tally.fail(e),
                    }
                }
                Op::Outcome { domain, after } => {
                    let t0 = Instant::now();
                    let result = self.conn.outcome(&plans[domain].name);
                    self.outcome_us.extend(sample(t0));
                    match result {
                        Ok(reply) => {
                            self.tally.ok();
                            self.replies.push((domain, after, reply));
                        }
                        Err(e) => self.tally.fail(e),
                    }
                }
                Op::Forget { .. } => self
                    .tally
                    .fail("the wire protocol has no retraction command"),
            }
            if !self.producer.has_queued() && stop(&self.producer) {
                break;
            }
        }
    }
}

/// A running wire setup: the server child and its warmed-up lanes.
pub struct WireRun {
    params: Params,
    plans: Vec<DomainPlan>,
    server: Server,
    lanes: Vec<Lane>,
}

/// What the timed wire phase measured.
#[derive(Debug, Default)]
pub struct WireResult {
    /// Observations acknowledged per slice.
    pub slices: Slices,
    /// The plain average rate, for a phase shorter than one slice.
    pub average: f64,
    /// Observations acknowledged as applied.
    pub applied: u64,
    /// Time the lanes spent generating inputs, nanoseconds, summed.
    pub gen_ns: u64,
    /// Wall time of the timed phase, seconds.
    pub wall_s: f64,
    /// CPU time the server child used during the timed phase,
    /// nanoseconds, where the platform reports it.
    pub server_cpu_ns: Option<u64>,
    /// Frame write → reply frame latency per batch, in arrival order.
    pub batch_us: Vec<Sample>,
    /// Outcome query round trips, in arrival order.
    pub outcome_us: Vec<Sample>,
    /// The timed phase's steal per slice.
    pub steal: Steal,
    /// Server resident set size at the end of the timed phase, bytes.
    pub rss_bytes: Option<u64>,
    /// Requests and checks, with failures.
    pub tally: Tally,
}

impl WireRun {
    /// Starts the server, connects the lanes, registers every domain,
    /// sends each domain's history and each lane's set-up batches, then
    /// queries every domain once.
    pub fn setup(seed: u64, params: &Params) -> Result<WireRun, String> {
        let plans = plan_domains(seed, params);
        let server = Server::spawn(params)?;
        let mut lanes = Vec::with_capacity(params.connections);
        for index in 0..params.connections {
            lanes.push(Lane {
                conn: Conn::connect(server.addr)?,
                producer: Producer::new(params, &plans, index, params.connections),
                batch_us: Vec::new(),
                outcome_us: Vec::new(),
                applied: 0,
                gen_ns: 0,
                slices: Slices::default(),
                tally: Tally::default(),
                replies: Vec::new(),
            });
        }
        for plan in &plans {
            lanes[0].conn.register(plan)?;
        }
        for (d, plan) in plans.iter().enumerate() {
            let conn = &mut lanes[d % params.connections].conn;
            for chunk in history_chunks(params, plan) {
                if conn.batch(&plan.name, &chunk)? != chunk.len() as i64 {
                    return Err(format!("{}: history batch partly applied", plan.name));
                }
            }
        }
        for lane in &mut lanes {
            let target = params.warmup_batches * lane.producer.owned().len();
            lane.run(&plans, None, |p| p.batches() >= target);
            if lane.tally.failed > 0 {
                return Err(format!("set-up failed: {:?}", lane.tally.notes));
            }
            lane.tally = Tally::default();
            lane.replies.clear();
            lane.applied = 0;
            lane.gen_ns = 0;
            for &d in lane.producer.owned() {
                lane.conn.outcome(&plans[d].name)?;
            }
        }
        Ok(WireRun {
            params: params.clone(),
            plans,
            server,
            lanes,
        })
    }

    /// Closes the connections and waits for the server to exit.
    pub fn close(self) -> Result<(), String> {
        drop(self.lanes);
        self.server.finish()
    }

    /// Runs every lane on its own thread for `seconds`, reads the
    /// server's memory, queries every domain's final outcome, closes the
    /// connections and checks every reply.
    pub fn timed(mut self, seconds: f64) -> Result<WireResult, String> {
        let sampler = StealSampler::start();
        let server_cpu = self.server.cpu_ns();
        let started = Instant::now();
        let deadline = started + Duration::from_secs_f64(seconds);
        let plans = &self.plans;
        std::thread::scope(|scope| {
            for lane in &mut self.lanes {
                scope.spawn(move || lane.run(plans, Some(started), |_| Instant::now() >= deadline));
            }
        });
        let wall = started.elapsed();
        let mut out = WireResult {
            server_cpu_ns: self
                .server
                .cpu_ns()
                .zip(server_cpu)
                .map(|(end, start)| end.saturating_sub(start)),
            wall_s: wall.as_secs_f64(),
            steal: sampler.finish(),
            rss_bytes: self.server.rss_bytes(),
            ..WireResult::default()
        };
        let mut applied = 0;
        let (mut batch_us, mut outcome_us) = (Vec::new(), Vec::new());
        let mut finals = Vec::with_capacity(self.plans.len());
        for d in 0..self.plans.len() {
            let lane = &mut self.lanes[d % self.params.connections];
            finals.push(lane.conn.outcome(&self.plans[d].name));
        }
        let mut sent = vec![0; self.plans.len()];
        let mut queries: Vec<Vec<(usize, WireOutcome)>> = vec![Vec::new(); self.plans.len()];
        for lane in &mut self.lanes {
            for &d in lane.producer.owned() {
                sent[d] = lane.producer.sent(d);
            }
            for (d, after, reply) in lane.replies.drain(..) {
                queries[d].push((after, reply));
            }
            applied += lane.applied;
            out.gen_ns += lane.gen_ns;
            out.slices.merge(&lane.slices);
            batch_us.append(&mut lane.batch_us);
            outcome_us.append(&mut lane.outcome_us);
            out.tally.merge(std::mem::take(&mut lane.tally));
        }
        let in_arrival_order = |mut samples: Vec<Sample>| {
            samples.sort_by_key(|s| s.at);
            samples
        };
        out.batch_us = in_arrival_order(batch_us);
        out.outcome_us = in_arrival_order(outcome_us);
        out.applied = applied;
        out.average = applied as f64 / wall.as_secs_f64();
        let WireRun {
            params,
            plans,
            server,
            lanes,
        } = self;
        drop(lanes);
        server.finish()?;
        let checks = on_two_threads(plans.len(), |d| match &finals[d] {
            Ok(final_reply) => {
                check_wire_domain(&params, &plans[d], &queries[d], sent[d], final_reply)
            }
            Err(e) => {
                let mut tally = Tally::default();
                tally.fail(format!("{}: final outcome failed: {e}", plans[d].name));
                tally
            }
        });
        for tally in checks {
            out.tally.merge(tally);
        }
        Ok(out)
    }
}
