//! Output checks: every answer the system under test gives is compared
//! with an independent recomputation over the same evidence.
//!
//! The recomputation regenerates a domain's stream from the seed and
//! feeds it — in large chunks, with the same retractions at the same
//! points — to a fresh [`OnlineSynchronizer`] that never builds a cache
//! until the end, then drops every cache and computes the outcome cold.
//! Nothing of the service path (queues, group commit, window GC,
//! incremental closure, warm `A_max`) is shared with it. A mismatch is
//! counted, never raised.

use clocksync::{OnlineSynchronizer, SyncError, SyncOutcome};

use crate::gen::{DomainPlan, DomainStream};
use crate::ops::{forget_after, history_chunks};
use crate::workload::Params;

/// Observations fed to the recomputation per `ingest_batch` call.
const CHUNK: usize = 8192;

/// Attempted and failed operations, with a note per failure.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Tally {
    /// Operations attempted (batches, queries, retractions, checks).
    pub attempted: u64,
    /// Operations that failed: error replies, rejected batches and
    /// outcome mismatches.
    pub failed: u64,
    /// One line per failure, capped so a broken run stays readable.
    pub notes: Vec<String>,
}

impl Tally {
    /// Counts one attempt that succeeded.
    pub fn ok(&mut self) {
        self.attempted += 1;
    }

    /// Counts one attempt that failed, keeping its note.
    pub fn fail(&mut self, note: impl Into<String>) {
        self.attempted += 1;
        self.failed += 1;
        if self.notes.len() < 8 {
            self.notes.push(note.into());
        }
    }

    /// Adds another tally into this one.
    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for note in other.notes {
            if self.notes.len() < 8 {
                self.notes.push(note);
            }
        }
    }
}

/// Whether two outcomes certify the same precision with the same
/// corrections (the witness cycle may legitimately differ).
pub fn same_outcome(a: &SyncOutcome, b: &SyncOutcome) -> bool {
    a.precision() == b.precision() && a.corrections() == b.corrections()
}

/// Replays a domain's first `batches` batches, with its retractions, into
/// a fresh synchronizer, calling `at` after each batch count listed in
/// `stops` (ascending) with the synchronizer as it stands there.
pub fn replay_domain(
    params: &Params,
    plan: &DomainPlan,
    batches: usize,
    stops: &[usize],
    mut at: impl FnMut(usize, &mut OnlineSynchronizer),
) -> OnlineSynchronizer {
    let mut online = OnlineSynchronizer::new(plan.network.clone());
    for chunk in history_chunks(params, plan) {
        online
            .ingest_batch(&chunk)
            .expect("generated observations always validate");
    }
    let mut stream = DomainStream::new(plan);
    stream.skip(params.history_batches * params.batch);
    let mut chunk = Vec::with_capacity(CHUNK + params.batch);
    let mut stops = stops.iter().peekable();
    let flush = |online: &mut OnlineSynchronizer, chunk: &mut Vec<_>| {
        online
            .ingest_batch(chunk)
            .expect("generated observations always validate");
        chunk.clear();
    };
    for k in 1..=batches {
        chunk.extend(stream.next_batch(params.batch));
        if let Some((p, q)) = forget_after(params, plan, k) {
            flush(&mut online, &mut chunk);
            online.forget_link(p, q);
        }
        if chunk.len() >= CHUNK {
            flush(&mut online, &mut chunk);
            // Never changes an estimate; bounds the evidence store.
            online.compact_evidence(params.service.window);
        }
        while stops.next_if(|&&s| s == k).is_some() {
            flush(&mut online, &mut chunk);
            at(k, &mut online);
        }
    }
    flush(&mut online, &mut chunk);
    online
}

/// `f(0), …, f(count - 1)` computed on two threads, in order. The checks
/// run after the system under test has stopped, so they may use both
/// cores.
pub fn on_two_threads<T: Send>(count: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let mut slots: Vec<Option<T>> = (0..count).map(|_| None).collect();
    let mid = count.div_ceil(2);
    let (first, second) = slots.split_at_mut(mid);
    let f = &f;
    std::thread::scope(|scope| {
        scope.spawn(move || {
            for (i, slot) in first.iter_mut().enumerate() {
                *slot = Some(f(i));
            }
        });
        for (i, slot) in second.iter_mut().enumerate() {
            *slot = Some(f(mid + i));
        }
    });
    slots
        .into_iter()
        .map(|slot| slot.expect("both threads fill their half"))
        .collect()
}

/// The cold outcome of a domain after its first `batches` batches.
///
/// # Errors
///
/// The synchronizer's own error if the evidence is inconsistent, which
/// generated traffic never is.
pub fn cold_outcome(
    params: &Params,
    plan: &DomainPlan,
    batches: usize,
) -> Result<SyncOutcome, SyncError> {
    let mut online = replay_domain(params, plan, batches, &[], |_, _| {});
    online.invalidate_caches();
    online.outcome()
}

/// Checks each domain's final outcome from the system under test
/// (`got[d]`, or its error text) against the cold recomputation after
/// `sent[d]` batches.
pub fn check_final(
    params: &Params,
    plans: &[DomainPlan],
    sent: &[usize],
    got: &[Result<SyncOutcome, String>],
) -> Tally {
    let expected = on_two_threads(plans.len(), |d| cold_outcome(params, &plans[d], sent[d]));
    let mut tally = Tally::default();
    for ((d, plan), expected) in plans.iter().enumerate().zip(expected) {
        match (&got[d], expected) {
            (Ok(got), Ok(expected)) if same_outcome(got, &expected) => tally.ok(),
            (Ok(got), Ok(expected)) => tally.fail(format!(
                "{}: outcome after {} batches has precision {} but the cold recomputation has {}",
                plan.name,
                sent[d],
                got.precision(),
                expected.precision()
            )),
            (Err(e), _) => tally.fail(format!("{}: final outcome failed: {e}", plan.name)),
            (Ok(_), Err(e)) => tally.fail(format!("{}: cold recomputation failed: {e}", plan.name)),
        }
    }
    tally
}

/// An outcome as a wire reply carries it: floats, `None` for an
/// unbounded precision.
#[derive(Debug, Clone, PartialEq)]
pub struct WireOutcome {
    /// `precision_ns`.
    pub precision: Option<f64>,
    /// `corrections_ns`.
    pub corrections: Vec<f64>,
}

impl WireOutcome {
    /// How the wire front-end encodes `outcome`.
    pub fn of(outcome: &SyncOutcome) -> WireOutcome {
        WireOutcome {
            precision: outcome.precision().finite().map(|p| p.to_f64()),
            corrections: outcome.corrections().iter().map(|r| r.to_f64()).collect(),
        }
    }
}

/// Checks one domain's wire outcome replies: each mid-stream reply
/// (`queries`, as `(batches before it, reply)` in send order) against the
/// in-process outcome at that point, and the final reply after `batches`
/// batches against the cold recomputation.
pub fn check_wire_domain(
    params: &Params,
    plan: &DomainPlan,
    queries: &[(usize, WireOutcome)],
    batches: usize,
    final_reply: &WireOutcome,
) -> Tally {
    let mut tally = Tally::default();
    let stops: Vec<usize> = queries.iter().map(|(after, _)| *after).collect();
    let mut next = 0;
    let mut online = replay_domain(params, plan, batches, &stops, |k, online| {
        while next < queries.len() && queries[next].0 == k {
            match online.outcome() {
                Ok(expected) if WireOutcome::of(&expected) == queries[next].1 => tally.ok(),
                Ok(_) => tally.fail(format!(
                    "{}: wire outcome after {k} batches differs from the in-process value",
                    plan.name
                )),
                Err(e) => tally.fail(format!("{}: in-process outcome failed: {e}", plan.name)),
            }
            next += 1;
        }
    });
    // Queries after the last batch count land past every stop.
    for _ in next..queries.len() {
        tally.fail(format!("{}: a wire query names an unsent batch", plan.name));
    }
    online.invalidate_caches();
    match online.outcome() {
        Ok(expected) if WireOutcome::of(&expected) == *final_reply => tally.ok(),
        Ok(_) => tally.fail(format!(
            "{}: final wire outcome differs from the cold recomputation",
            plan.name
        )),
        Err(e) => tally.fail(format!("{}: cold recomputation failed: {e}", plan.name)),
    }
    tally
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::plan_domains;
    use crate::workload::Workload;

    #[test]
    fn streaming_the_batches_matches_the_cold_recomputation() {
        let params = Workload::ResyncChurn.params();
        let plans = plan_domains(9, &params);
        let plan = &plans[0];
        let mut online = OnlineSynchronizer::new(plan.network.clone());
        for chunk in history_chunks(&params, plan) {
            online.ingest_batch(&chunk).unwrap();
        }
        let mut stream = DomainStream::new(plan);
        stream.skip(params.history_batches * params.batch);
        let _ = online.outcome();
        for k in 1..=24 {
            online
                .ingest_batch(&stream.next_batch(params.batch))
                .unwrap();
            if let Some((p, q)) = forget_after(&params, plan, k) {
                online.forget_link(p, q);
            }
        }
        let warm = online.outcome().unwrap();
        let got = vec![Ok(warm), Ok(cold_outcome(&params, &plans[1], 24).unwrap())];
        let tally = check_final(&params, &plans, &[24, 24], &got);
        assert_eq!(tally.failed, 0, "{:?}", tally.notes);
        assert_eq!(tally.attempted, 2);
    }

    #[test]
    fn a_planted_mismatch_is_counted_not_raised() {
        let params = Workload::ResyncChurn.params();
        let plans = plan_domains(9, &params);
        // Domain 0 answers with domain 1's outcome; domain 1 errored.
        let crossed = cold_outcome(&params, &plans[1], 8).unwrap();
        let got = vec![Ok(crossed), Err("worker stopped".to_string())];
        let tally = check_final(&params, &plans, &[8, 8], &got);
        assert_eq!(tally.attempted, 2);
        assert_eq!(tally.failed, 2, "{:?}", tally.notes);
        assert!(tally.notes[0].contains(&plans[0].name));
    }

    #[test]
    fn a_planted_wire_mismatch_is_caught() {
        let params = Workload::WireMixed.params();
        let plans = plan_domains(4, &params);
        let plan = &plans[2];
        let at = |k| WireOutcome::of(&cold_outcome(&params, plan, k).unwrap());
        let queries = vec![(3, at(3)), (5, at(5))];
        let clean = check_wire_domain(&params, plan, &queries, 6, &at(6));
        assert_eq!((clean.attempted, clean.failed), (3, 0), "{:?}", clean.notes);

        let mut tampered = queries.clone();
        tampered[1].1.corrections[1] += 1.0;
        let caught = check_wire_domain(&params, plan, &tampered, 6, &at(6));
        assert_eq!((caught.attempted, caught.failed), (3, 1));
        let mut wrong_final = at(6);
        wrong_final.precision = wrong_final.precision.map(|p| p + 1.0);
        let caught = check_wire_domain(&params, plan, &queries, 6, &wrong_final);
        assert_eq!(caught.failed, 1);
    }
}
