//! Seeded traffic: domain plans and their observation streams.
//!
//! Each domain gets a topology and one `clocksync-sim` delay model per
//! link (symmetric uniform delays on a per-link range), fixed per workload
//! and domain index, and hidden clock offsets drawn from the run seed. Its
//! stream, also drawn from the run seed, samples messages
//! from those models: a random link and direction, a real send time that
//! only moves forward, a delay from the link's model, and clock readings
//! shifted by each processor's hidden offset. Every delay lies inside the
//! bounds the domain declares, so no batch is ever inconsistent, and the
//! same seed always yields the same plans and streams.

use clocksync::{BatchObservation, DelayRange, LinkAssumption, Network};
use clocksync_model::ProcessorId;
use clocksync_sim::{DelayDistribution, LinkModel, ResolvedLink, Topology};
use clocksync_time::{ClockTime, Nanos};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::workload::Params;

/// One declared link with its delay model.
#[derive(Debug, Clone)]
pub struct LinkPlan {
    /// Lower endpoint.
    pub a: usize,
    /// Higher endpoint.
    pub b: usize,
    /// Declared (and true) lower delay bound, nanoseconds.
    pub lo: i64,
    /// Declared (and true) upper delay bound, nanoseconds.
    pub hi: i64,
    sampler: ResolvedLink,
}

/// A domain's name, declared network and delay models.
#[derive(Debug, Clone)]
pub struct DomainPlan {
    /// Domain name as registered with the service.
    pub name: String,
    /// Processor count.
    pub n: usize,
    /// The declared network: symmetric bounds `[lo, hi]` on every link.
    pub network: Network,
    /// The links, in topology order.
    pub links: Vec<LinkPlan>,
    /// Each processor's hidden clock offset, nanoseconds.
    offsets: Vec<i64>,
    stream_seed: u64,
}

/// SplitMix64 finalizer: decorrelates `(seed, index)` pairs.
fn mix(seed: u64, index: u64) -> u64 {
    let mut z = seed ^ index.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Seed of every workload's networks. A workload's networks (topology
/// and per-link delay ranges) are part of its definition and the same
/// for every run; the run seed draws the traffic on them.
const NETWORK_SEED: u64 = 0x00c1_0c55_eed5;

/// Plans domain `index` of a workload: its network from
/// [`NETWORK_SEED`], its clock offsets and stream from `seed`.
pub fn plan_domain(seed: u64, index: usize, topology: Topology) -> DomainPlan {
    let mut rng = StdRng::seed_from_u64(mix(NETWORK_SEED, index as u64));
    let n = topology.n();
    let mut builder = Network::builder(n);
    let mut links = Vec::new();
    for (a, b) in topology.edges(&mut rng) {
        let lo = rng.gen_range(20_000..=80_000i64);
        let hi = lo + rng.gen_range(40_000..=400_000i64);
        let model =
            LinkModel::symmetric(DelayDistribution::uniform(Nanos::new(lo), Nanos::new(hi)));
        builder = builder.link(
            ProcessorId(a),
            ProcessorId(b),
            LinkAssumption::symmetric_bounds(DelayRange::new(Nanos::new(lo), Nanos::new(hi))),
        );
        links.push(LinkPlan {
            a,
            b,
            lo,
            hi,
            sampler: model.resolve(&mut rng),
        });
    }
    let mut rng = StdRng::seed_from_u64(mix(seed, index as u64));
    let offsets = (0..n).map(|_| rng.gen_range(0..5_000_000i64)).collect();
    DomainPlan {
        name: format!("d{index:03}"),
        n,
        network: builder.build(),
        links,
        offsets,
        stream_seed: rng.gen_range(0..u64::MAX),
    }
}

/// Plans every domain of a workload.
pub fn plan_domains(seed: u64, params: &Params) -> Vec<DomainPlan> {
    (0..params.domains)
        .map(|d| plan_domain(seed, d, params.topology))
        .collect()
}

/// An endless, deterministic stream of one domain's observations.
#[derive(Debug, Clone)]
pub struct DomainStream {
    links: Vec<(usize, usize, ResolvedLink)>,
    offsets: Vec<i64>,
    rng: StdRng,
    /// Real time of the next send, nanoseconds.
    now: i64,
}

impl DomainStream {
    /// The stream of `plan`, from its beginning.
    pub fn new(plan: &DomainPlan) -> DomainStream {
        DomainStream {
            links: plan
                .links
                .iter()
                .map(|l| (l.a, l.b, l.sampler.clone()))
                .collect(),
            offsets: plan.offsets.clone(),
            rng: StdRng::seed_from_u64(plan.stream_seed),
            now: 1_000_000,
        }
    }

    /// The next `size` observations.
    pub fn next_batch(&mut self, size: usize) -> Vec<BatchObservation> {
        (0..size).map(|_| self.next_observation()).collect()
    }

    /// Skips the next `count` observations.
    pub fn skip(&mut self, count: usize) {
        for _ in 0..count {
            self.next_observation();
        }
    }

    fn next_observation(&mut self) -> BatchObservation {
        let (a, b, sampler) = &self.links[self.rng.gen_range(0..self.links.len())];
        let forward = self.rng.gen_range(0..2u32) == 0;
        let (src, dst) = if forward { (*a, *b) } else { (*b, *a) };
        let delay = sampler.sample(forward, &mut self.rng).as_nanos();
        let send = self.now;
        self.now += self.rng.gen_range(2_000..=20_000i64);
        BatchObservation {
            src: ProcessorId(src),
            dst: ProcessorId(dst),
            send_clock: ClockTime::from_nanos(send + self.offsets[src]),
            recv_clock: ClockTime::from_nanos(send + delay + self.offsets[dst]),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::Workload;

    #[test]
    fn same_seed_same_plans_and_streams() {
        for w in Workload::ALL {
            let params = w.params();
            let a = plan_domain(11, 1, params.topology);
            let b = plan_domain(11, 1, params.topology);
            assert_eq!(a.network, b.network, "{}", w.name());
            assert_eq!(a.offsets, b.offsets);
            let (mut sa, mut sb) = (DomainStream::new(&a), DomainStream::new(&b));
            for _ in 0..8 {
                assert_eq!(sa.next_batch(64), sb.next_batch(64));
            }
        }
    }

    #[test]
    fn seeds_draw_the_traffic_not_the_network() {
        let topo = Workload::ResyncChurn.params().topology;
        let a = plan_domain(1, 0, topo);
        let b = plan_domain(2, 0, topo);
        assert_eq!(a.network, b.network);
        assert_ne!(a.offsets, b.offsets);
        assert_ne!(
            DomainStream::new(&a).next_batch(64),
            DomainStream::new(&b).next_batch(64)
        );
    }

    #[test]
    fn delays_stay_inside_the_declared_bounds() {
        for w in Workload::ALL {
            let plan = plan_domain(5, 3, w.params().topology);
            let mut stream = DomainStream::new(&plan);
            let mut last_send = vec![i64::MIN; plan.n];
            for obs in stream.next_batch(4096) {
                let (s, d) = (obs.src.index(), obs.dst.index());
                let link = plan
                    .links
                    .iter()
                    .find(|l| (l.a, l.b) == (s.min(d), s.max(d)))
                    .expect("observations travel declared links");
                let real_send = obs.send_clock.as_nanos() - plan.offsets[s];
                let real_recv = obs.recv_clock.as_nanos() - plan.offsets[d];
                let delay = real_recv - real_send;
                assert!(
                    (link.lo..=link.hi).contains(&delay),
                    "{}: delay {delay} outside [{}, {}]",
                    w.name(),
                    link.lo,
                    link.hi
                );
                assert!(obs.send_clock.as_nanos() >= 0);
                // Real send times only move forward, per sender too.
                assert!(real_send > last_send[s]);
                last_send[s] = real_send;
            }
        }
    }
}
