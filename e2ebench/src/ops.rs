//! The operation sequence a producer sends: batches, outcome queries and
//! link retractions, in a fixed order derived from the workload.
//!
//! A producer owns a set of domains and visits them round robin, sending
//! `burst` consecutive batches to each. After every `outcome_every` of its
//! own batches it queries the next domain in its rotation; after every
//! `forget_every` batches *of one domain* it retracts that domain's next
//! link first. Domains never share a producer, so every domain's state is
//! a function of its own batch count alone — which is what lets the cold
//! recomputation and the wire check rebuild it independently.

use std::collections::VecDeque;

use clocksync::BatchObservation;
use clocksync_model::ProcessorId;

use crate::gen::{DomainPlan, DomainStream};
use crate::workload::Params;

/// One request to the system under test.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    /// Ingest a batch into a domain.
    Batch {
        /// Domain index.
        domain: usize,
        /// The observations.
        obs: Vec<BatchObservation>,
    },
    /// Retract one undirected link of a domain.
    Forget {
        /// Domain index.
        domain: usize,
        /// One endpoint.
        p: ProcessorId,
        /// The other endpoint.
        q: ProcessorId,
    },
    /// Query a domain's outcome.
    Outcome {
        /// Domain index.
        domain: usize,
        /// How many batches of the domain precede the query.
        after: usize,
    },
}

/// The link retracted after a domain's `k`-th batch (1-based, counting
/// set-up batches but not history), if any.
pub fn forget_after(
    params: &Params,
    plan: &DomainPlan,
    k: usize,
) -> Option<(ProcessorId, ProcessorId)> {
    (params.forget_every > 0 && k.is_multiple_of(params.forget_every)).then(|| {
        let link = &plan.links[(k / params.forget_every) % plan.links.len()];
        (ProcessorId(link.a), ProcessorId(link.b))
    })
}

/// Batches merged into one history chunk.
const HISTORY_CHUNK: usize = 64;

/// A domain's history: the first `history_batches` batches of its stream,
/// merged into chunks of [`HISTORY_CHUNK`] batches. Set-up sends them
/// before anything else; the producer's batches follow them.
pub fn history_chunks(params: &Params, plan: &DomainPlan) -> Vec<Vec<BatchObservation>> {
    let mut stream = DomainStream::new(plan);
    let mut left = params.history_batches;
    let mut chunks = Vec::new();
    while left > 0 {
        let take = left.min(HISTORY_CHUNK);
        chunks.push(stream.next_batch(take * params.batch));
        left -= take;
    }
    chunks
}

/// A deterministic op generator for one producer.
#[derive(Debug, Clone)]
pub struct Producer {
    params: Params,
    /// Owned domain indices, in visiting order.
    owned: Vec<usize>,
    streams: Vec<DomainStream>,
    /// Batches sent per owned domain (same order as `owned`).
    sent: Vec<usize>,
    cursor: usize,
    burst_left: usize,
    batches: usize,
    queries: usize,
    queued: VecDeque<Op>,
}

impl Producer {
    /// Producer `index` of `count`: it owns every domain `d` with
    /// `d % count == index`.
    pub fn new(params: &Params, plans: &[DomainPlan], index: usize, count: usize) -> Producer {
        let owned: Vec<usize> = (0..plans.len()).filter(|d| d % count == index).collect();
        assert!(!owned.is_empty(), "producer {index} owns no domain");
        Producer {
            params: params.clone(),
            streams: owned
                .iter()
                .map(|&d| {
                    let mut stream = DomainStream::new(&plans[d]);
                    stream.skip(params.history_batches * params.batch);
                    stream
                })
                .collect(),
            sent: vec![0; owned.len()],
            owned,
            cursor: 0,
            burst_left: params.burst,
            batches: 0,
            queries: 0,
            queued: VecDeque::new(),
        }
    }

    /// The domains this producer owns.
    pub fn owned(&self) -> &[usize] {
        &self.owned
    }

    /// Batches sent so far to `domain`, which this producer must own.
    pub fn sent(&self, domain: usize) -> usize {
        let slot = self
            .owned
            .iter()
            .position(|&d| d == domain)
            .expect("the producer owns the domain");
        self.sent[slot]
    }

    /// Whether follow-ups of the last batch are still to be sent; a
    /// drive stops only between complete steps, so every domain's state
    /// stays a function of its batch count.
    pub fn has_queued(&self) -> bool {
        !self.queued.is_empty()
    }

    /// Batches this producer has sent.
    pub fn batches(&self) -> usize {
        self.batches
    }

    /// The next operation, `plans` being the workload's domain plans.
    pub fn next_op(&mut self, plans: &[DomainPlan]) -> Op {
        if let Some(op) = self.queued.pop_front() {
            return op;
        }
        let slot = self.cursor;
        let domain = self.owned[slot];
        let obs = self.streams[slot].next_batch(self.params.batch);
        self.sent[slot] += 1;
        self.batches += 1;
        self.burst_left -= 1;
        if self.burst_left == 0 {
            self.cursor = (self.cursor + 1) % self.owned.len();
            self.burst_left = self.params.burst;
        }
        if let Some((p, q)) = forget_after(&self.params, &plans[domain], self.sent[slot]) {
            self.queued.push_back(Op::Forget { domain, p, q });
        }
        if self.params.outcome_every > 0 && self.batches.is_multiple_of(self.params.outcome_every) {
            let slot = self.queries % self.owned.len();
            self.queries += 1;
            self.queued.push_back(Op::Outcome {
                domain: self.owned[slot],
                after: self.sent[slot],
            });
        }
        Op::Batch { domain, obs }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::plan_domains;
    use crate::workload::Workload;

    fn ops(w: Workload, count: usize) -> Vec<Op> {
        let params = w.params();
        let plans = plan_domains(3, &params);
        let mut producer = Producer::new(&params, &plans, 0, 1);
        (0..count).map(|_| producer.next_op(&plans)).collect()
    }

    #[test]
    fn ops_are_deterministic_per_seed() {
        for w in Workload::ALL {
            assert_eq!(ops(w, 64), ops(w, 64), "{}", w.name());
        }
    }

    #[test]
    fn churn_retracts_a_rotating_link_every_few_batches() {
        let forgets: Vec<_> = ops(Workload::ResyncChurn, 128)
            .into_iter()
            .filter_map(|op| match op {
                Op::Forget { domain, p, q } => Some((domain, p, q)),
                _ => None,
            })
            .collect();
        assert!(forgets.len() >= 4, "{forgets:?}");
        let first_domain: Vec<_> = forgets.iter().filter(|f| f.0 == 0).collect();
        assert_ne!(first_domain[0], first_domain[1]);
        for w in [Workload::IngestFanin, Workload::WireMixed] {
            assert!(ops(w, 256)
                .iter()
                .all(|op| !matches!(op, Op::Forget { .. })));
        }
    }

    #[test]
    fn queries_rotate_and_name_the_batches_before_them() {
        let mut counts = [0usize; 2];
        for op in ops(Workload::ResyncChurn, 64) {
            match op {
                Op::Batch { domain, .. } => counts[domain] += 1,
                Op::Outcome { domain, after } => assert_eq!(after, counts[domain]),
                Op::Forget { .. } => {}
            }
        }
        assert!(ops(Workload::IngestFanin, 256)
            .iter()
            .all(|op| matches!(op, Op::Batch { .. })));
    }

    #[test]
    fn producers_split_domains_disjointly() {
        let params = Workload::WireMixed.params();
        let plans = plan_domains(3, &params);
        let a = Producer::new(&params, &plans, 0, 2);
        let b = Producer::new(&params, &plans, 1, 2);
        assert!(a.owned().iter().all(|d| !b.owned().contains(d)));
        assert_eq!(a.owned().len() + b.owned().len(), params.domains);
    }
}
