//! The three workloads and the fixed parameters that define them. The
//! reasons behind each choice are in `NOTES.md` next to this crate.

use clocksync_service::ServiceConfig;
use clocksync_sim::Topology;

/// One named traffic mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Many 4-processor ring domains, bursts of batches, rare queries:
    /// the service queue, group commit and window GC.
    IngestFanin,
    /// Two 64-processor domains with an outcome query every few batches
    /// and a `forget_link` on a rotating link: the online relax, warm and
    /// cold `A_max`, window GC at width, and the loosening path.
    ResyncChurn,
    /// Sixteen mid-size domains behind a loopback `serve --listen`, two
    /// producer connections: framing, the JSON codec and the acceptor.
    WireMixed,
}

/// Everything that shapes one workload's traffic and service.
#[derive(Debug, Clone)]
pub struct Params {
    /// Independent sync domains.
    pub domains: usize,
    /// Topology of every domain.
    pub topology: Topology,
    /// Observations per batch.
    pub batch: usize,
    /// Service shape (shards, retention window, queue depth, group size).
    pub service: ServiceConfig,
    /// Consecutive batches sent to one domain before moving to the next.
    pub burst: usize,
    /// Receipts a producer keeps outstanding before it waits for the
    /// oldest (the closed loop's window).
    pub outstanding: usize,
    /// An outcome query after every this many batches of one producer,
    /// on the next domain of its rotation; 0 for none mid-stream.
    pub outcome_every: usize,
    /// A `forget_link` after every this many batches of a domain; 0 for
    /// no churn.
    pub forget_every: usize,
    /// Batches' worth of history per domain, sent in large chunks at the
    /// start of set-up so timing begins on mature estimates, as in a
    /// long-running service, not on a domain's first few samples.
    pub history_batches: usize,
    /// Batches per domain sent during set-up, before timing starts.
    pub warmup_batches: usize,
    /// Producer connections (wire workload only).
    pub connections: usize,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] = [
        Workload::IngestFanin,
        Workload::ResyncChurn,
        Workload::WireMixed,
    ];

    /// The workload's name on the command line and in results.
    pub fn name(self) -> &'static str {
        match self {
            Workload::IngestFanin => "ingest-fanin",
            Workload::ResyncChurn => "resync-churn",
            Workload::WireMixed => "wire-mixed",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether the workload runs over the loopback wire front-end.
    pub fn is_wire(self) -> bool {
        self == Workload::WireMixed
    }

    /// The fixed parameters of the workload.
    pub fn params(self) -> Params {
        let service = |queue_depth| ServiceConfig {
            shards: 2,
            window: 32,
            queue_depth,
            max_coalesce: 32,
        };
        match self {
            Workload::IngestFanin => Params {
                domains: 256,
                topology: Topology::Ring(4),
                batch: 64,
                service: service(64),
                burst: 16,
                outstanding: 64,
                // Rare reads on a write-heavy service: one query per 256
                // batches, which leaves group commit as it is without them
                // (measured in NOTES.md).
                outcome_every: 256,
                forget_every: 0,
                history_batches: 64,
                warmup_batches: 16,
                connections: 1,
            },
            // Every 8th batch of a domain: with a query every 2nd batch of
            // each domain, one query in four follows a retraction, so the
            // median stays in the warm mode and the cold path is the tail.
            Workload::ResyncChurn => Params {
                domains: 2,
                topology: Topology::RandomConnected {
                    n: 64,
                    extra_per_mille: 30,
                },
                batch: 64,
                service: service(64),
                burst: 1,
                outstanding: 1,
                outcome_every: 2,
                forget_every: 8,
                history_batches: 1024,
                warmup_batches: 32,
                connections: 1,
            },
            Workload::WireMixed => Params {
                domains: 16,
                topology: Topology::RandomConnected {
                    n: 24,
                    extra_per_mille: 100,
                },
                batch: 64,
                // The `serve --listen` defaults for queue depth and group
                // size; two shards for a two-core box.
                service: ServiceConfig {
                    shards: 2,
                    window: 32,
                    ..ServiceConfig::default()
                },
                burst: 1,
                outstanding: 1,
                outcome_every: 8,
                forget_every: 0,
                history_batches: 128,
                warmup_batches: 16,
                connections: 2,
            },
        }
    }
}
