//! Bounded-memory message retention: the windowed view store behind the
//! sharded ingestion service.
//!
//! A [`ViewWindow`] holds the recent message history of one sync domain
//! and garbage-collects messages whose evidence is *dominated*: a message
//! is dominated when it is neither the `d̃min` nor the `d̃max` witness of
//! its directed link and it has fallen out of the link's recency window.
//! Because the *extrema-only* §6 estimators depend on the views only
//! through the per-link estimated-delay extrema (Lemmas 6.2/6.5), dropping
//! dominated messages never changes any `m̃ls` — the never-loosens
//! invariant the retention policy of the service is built on. The extremal
//! witnesses are *never* dropped, so a view set materialized from the
//! window yields bit-identical link extrema to the full history
//! (`tests/service.rs` checks the resulting `SyncOutcome` is bit-identical
//! too).
//!
//! # The compaction contract
//!
//! Extrema-witness retention is sound **only** for estimators that are
//! extrema-only (`LinkAssumption::extrema_only()` in `clocksync`):
//! delay bounds, RTT bias, and no-bounds links. Estimators that read the
//! full sample lists — windowed RTT-bias *pairing*, and Marzullo *quorum
//! fusion*, where every retained sample is one vote and dropping a vote
//! can flip which interval reaches the quorum — must keep every sample.
//! For those links the evidence of record is the synchronizer's own
//! per-link sample store, and `OnlineSynchronizer::compact_evidence`
//! skips them via the `extrema_only` gate (its
//! `compaction_never_touches_interval_fusing_links` test pins this down).
//! A [`ViewWindow`] is therefore a *witness cache* for the extrema-only
//! fragment of a domain, not a general evidence store: callers that
//! declare sample-scanning assumptions must size the window's GC policy
//! so those links' messages stay inside the recency window, or bypass GC
//! for them entirely.
//!
//! # Cost
//!
//! The store is one push-ordered log per directed link, and each log
//! tracks its current `d̃min`/`d̃max` witnesses in `O(1)` per push. After a
//! GC tick a log holds at most its recency tail plus the two witnesses,
//! and everything a later tick may drop sits at its front. A tick
//! therefore visits only the links pushed to since the previous tick and
//! pops their fronts: `O(pushed + dropped)` per tick. Only a tick whose
//! window is smaller than the previous one's revisits every link. An
//! earlier store kept one tombstoned slot vector for the whole domain and
//! regrouped every live message by link on every tick — an `O(live)` scan
//! per tick even when nothing was dropped, and the largest stage of the
//! service's ingestion path. [`ViewWindow::dominated`] still computes the
//! dominated set from scratch; it is the audit predicate the incremental
//! tick is tested against. ([`ViewSet::retain_messages`], a rebuild of
//! every event, remains the right tool only for one-shot prefix
//! experiments.)

use std::collections::{hash_map, HashMap, VecDeque};

use clocksync_time::{ClockTime, Nanos};

use crate::view::{MessageObservation, View, ViewSet};
use crate::{MessageId, ModelError, ProcessorId};

/// One live message of a directed link; the link supplies src and dst.
#[derive(Debug, Clone, Copy)]
struct Entry {
    /// Window-wide push sequence number: orders messages across links.
    seq: u64,
    id: MessageId,
    send_clock: ClockTime,
    recv_clock: ClockTime,
}

impl Entry {
    /// The estimated delay, ordered by push position on ties — the key
    /// both witnesses are chosen by. `None` is unreachable for an entry
    /// that passed [`ViewWindow::push`].
    fn key(&self) -> Option<(Nanos, u64)> {
        Some((self.recv_clock.checked_sub(self.send_clock)?, self.seq))
    }
}

/// The live messages of one directed link, in push order.
#[derive(Debug, Clone)]
struct LinkLog {
    src: ProcessorId,
    dst: ProcessorId,
    entries: VecDeque<Entry>,
    /// `(delay, seq)` of the earliest entry at the minimum delay; only
    /// meaningful while `entries` is non-empty.
    min: (Nanos, u64),
    /// `(delay, seq)` of the latest entry at the maximum delay.
    max: (Nanos, u64),
    /// Queued for the next GC tick.
    dirty: bool,
}

impl LinkLog {
    fn is_witness(&self, seq: u64) -> bool {
        seq == self.min.1 || seq == self.max.1
    }

    /// Recomputes both witnesses from the live entries (after one of them
    /// was dropped out of band).
    fn recompute_witnesses(&mut self) {
        let keys = || self.entries.iter().filter_map(Entry::key);
        if let (Some(min), Some(max)) = (keys().min(), keys().max()) {
            self.min = min;
            self.max = max;
        }
    }

    /// One GC step on this link: drops every entry that is outside the
    /// last `window` and not a witness. Such entries all sit at the front
    /// of the log (earlier ticks already dropped the rest), so this pops
    /// the front and puts back the at most two witnesses found there.
    fn gc(&mut self, window: usize, index: &mut HashMap<MessageId, usize>) -> usize {
        let len = self.entries.len();
        let mut dropped = 0;
        if len > window {
            // Window 0 keeps no recency tail at all — only the extremal
            // witnesses survive (`get` is `None` exactly when
            // `window == 0`: index `len` is one past the last entry).
            #[cfg(not(feature = "bug-window0"))]
            let tail_seq = self.entries.get(len - window).map_or(u64::MAX, |e| e.seq);
            // The pre-fix indexing, resurrected for fuzzer validation:
            // at `window == 0` this reads one past the end of the log
            // and panics on any GC tick that visits live evidence.
            #[cfg(feature = "bug-window0")]
            let tail_seq = self.entries[len - window].seq;
            let mut kept = [None; 2];
            let mut k = 0;
            while let Some(e) = self.entries.pop_front() {
                if e.seq >= tail_seq {
                    self.entries.push_front(e);
                    break;
                }
                if self.is_witness(e.seq) {
                    kept[k] = Some(e);
                    k += 1;
                } else {
                    index.remove(&e.id);
                    dropped += 1;
                }
            }
            for e in kept[..k].iter().rev().flatten() {
                self.entries.push_front(*e);
            }
        }
        // Keep the buffer O(window + 2): a burst of pushes may have grown
        // it far past what survives the tick.
        let cap = window.saturating_add(2).saturating_mul(2);
        if self.entries.capacity() > cap.saturating_mul(2) {
            self.entries.shrink_to(cap);
        }
        dropped
    }
}

/// The slot of the directed link `src → dst`, created on first use.
fn link_slot(
    out_links: &mut Vec<Vec<(usize, usize)>>,
    links: &mut Vec<LinkLog>,
    src: ProcessorId,
    dst: ProcessorId,
) -> usize {
    if out_links.len() <= src.index() {
        out_links.resize_with(src.index() + 1, Vec::new);
    }
    let out = &mut out_links[src.index()];
    match out.binary_search_by_key(&dst.index(), |&(d, _)| d) {
        Ok(i) => out[i].1,
        Err(i) => {
            let slot = links.len();
            out.insert(i, (dst.index(), slot));
            links.push(LinkLog {
                src,
                dst,
                entries: VecDeque::new(),
                min: (Nanos::ZERO, 0),
                max: (Nanos::ZERO, 0),
                dirty: false,
            });
            slot
        }
    }
}

/// A bounded store of message observations for one sync domain, kept as
/// one push-ordered log per directed link.
///
/// # Examples
///
/// ```
/// use clocksync_model::{MessageId, MessageObservation, ProcessorId, ViewWindow};
/// use clocksync_time::ClockTime;
///
/// let mut w = ViewWindow::new(2);
/// for i in 0..10u64 {
///     w.push(MessageObservation {
///         src: ProcessorId(0),
///         dst: ProcessorId(1),
///         id: MessageId(i),
///         send_clock: ClockTime::from_nanos(100 * i as i64),
///         recv_clock: ClockTime::from_nanos(100 * i as i64 + 40 + i as i64),
///     })?;
/// }
/// // Keep the extremal witnesses plus the 2 most recent messages.
/// let dropped = w.gc_dominated(2);
/// assert_eq!(dropped, 7); // min witness m0 survives inside no tail slot
/// assert!(w.contains(MessageId(0)) && w.contains(MessageId(9)));
/// let views = w.to_view_set()?;
/// assert_eq!(views.message_observations().len(), 3);
/// # Ok::<(), clocksync_model::ModelError>(())
/// ```
#[derive(Debug, Clone)]
pub struct ViewWindow {
    n: usize,
    /// Every directed link ever pushed to, in first-push order.
    links: Vec<LinkLog>,
    /// Per source processor: `(dst, link slot)`, sorted by `dst`. A
    /// `HashMap<(src, dst), slot>` in its place made the traced e2ebench
    /// `window.push` slower in six of six `resync-churn`/`wire-mixed`
    /// runs on a 2-vCPU VM (259/280 → 695/440 ns per call on
    /// `resync-churn`, seeds 1/2).
    out_links: Vec<Vec<(usize, usize)>>,
    /// Live message id → link slot.
    index: HashMap<MessageId, usize>,
    /// Link slots pushed to since the last GC tick.
    dirty: Vec<usize>,
    /// The window of the last GC tick: every link not in `dirty` holds
    /// nothing that window would drop.
    last_window: usize,
    last_gc_links: usize,
    pushed: u64,
    dropped: u64,
}

impl ViewWindow {
    /// An empty window for a domain of `n` processors.
    pub fn new(n: usize) -> ViewWindow {
        ViewWindow {
            n,
            links: Vec::new(),
            out_links: Vec::new(),
            index: HashMap::new(),
            dirty: Vec::new(),
            last_window: 0,
            last_gc_links: 0,
            pushed: 0,
            dropped: 0,
        }
    }

    /// The number of processors of the domain.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Messages currently retained.
    pub fn live(&self) -> usize {
        self.index.len()
    }

    /// Returns `true` if no messages are retained.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Messages ever pushed (retained or since dropped).
    pub fn pushed(&self) -> u64 {
        self.pushed
    }

    /// Messages dropped so far, by GC or explicitly.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Directed links the last [`ViewWindow::gc_dominated`] tick visited:
    /// the links pushed to since the tick before it, or every link when
    /// the window shrank.
    pub fn last_gc_links(&self) -> usize {
        self.last_gc_links
    }

    /// Whether message `id` is currently retained.
    pub fn contains(&self, id: MessageId) -> bool {
        self.index.contains_key(&id)
    }

    /// A deterministic estimate of the retained bytes: the link logs'
    /// buffers plus the id index. Used by the service's memory gauges;
    /// bounded whenever `live` is bounded because every GC tick caps each
    /// visited log's buffer at `4 · (window + 2)` entries.
    pub fn approx_bytes(&self) -> usize {
        let buffers: usize = self.links.iter().map(|l| l.entries.capacity()).sum();
        self.links.len() * std::mem::size_of::<LinkLog>()
            + buffers * std::mem::size_of::<Entry>()
            + self.index.len()
                * (std::mem::size_of::<MessageId>() + 2 * std::mem::size_of::<usize>())
    }

    /// Appends one observed message.
    ///
    /// # Errors
    ///
    /// * [`ModelError::UnknownProcessor`] — an endpoint is out of range;
    /// * [`ModelError::DuplicateMessage`] — the id is already retained;
    /// * [`ModelError::ClockOverflow`] — the clock readings are too far
    ///   apart for the estimated delay to be representable;
    /// * [`ModelError::UnorderedView`] — a clock reading precedes the
    ///   start event (clock 0), so no valid view could contain it.
    ///
    /// All four are reachable only from untrusted input; the validation
    /// here is what keeps the panicking arithmetic deeper in the pipeline
    /// unreachable from the service's ingestion path.
    pub fn push(&mut self, m: MessageObservation) -> Result<(), ModelError> {
        for endpoint in [m.src, m.dst] {
            if endpoint.index() >= self.n {
                return Err(ModelError::UnknownProcessor {
                    processor: endpoint,
                });
            }
        }
        let Some(delay) = m.recv_clock.checked_sub(m.send_clock) else {
            return Err(ModelError::ClockOverflow { id: m.id });
        };
        if m.send_clock < ClockTime::ZERO || m.recv_clock < ClockTime::ZERO {
            let processor = if m.send_clock < ClockTime::ZERO {
                m.src
            } else {
                m.dst
            };
            return Err(ModelError::UnorderedView { processor });
        }
        let hash_map::Entry::Vacant(vacant) = self.index.entry(m.id) else {
            return Err(ModelError::DuplicateMessage { id: m.id });
        };
        let slot = link_slot(&mut self.out_links, &mut self.links, m.src, m.dst);
        vacant.insert(slot);
        let seq = self.pushed;
        self.pushed += 1;
        let link = &mut self.links[slot];
        let first = link.entries.is_empty();
        if first || delay < link.min.0 {
            link.min = (delay, seq);
        }
        if first || delay >= link.max.0 {
            link.max = (delay, seq);
        }
        link.entries.push_back(Entry {
            seq,
            id: m.id,
            send_clock: m.send_clock,
            recv_clock: m.recv_clock,
        });
        if !link.dirty {
            link.dirty = true;
            self.dirty.push(slot);
        }
        Ok(())
    }

    /// The slot of the directed link `src → dst`, if it was ever pushed to.
    fn find_link(&self, src: ProcessorId, dst: ProcessorId) -> Option<usize> {
        let out = self.out_links.get(src.index())?;
        let i = out.binary_search_by_key(&dst.index(), |&(d, _)| d).ok()?;
        Some(out[i].1)
    }

    /// Drops one message by id, in time linear in its link's retained
    /// messages. Dropping a witness recomputes that link's witnesses.
    /// Returns `false` if the id is not retained.
    pub fn drop_message(&mut self, id: MessageId) -> bool {
        let Some(slot) = self.index.remove(&id) else {
            return false;
        };
        let link = &mut self.links[slot];
        if let Some(pos) = link.entries.iter().position(|e| e.id == id) {
            let e = link.entries.remove(pos).expect("position is in bounds");
            if link.is_witness(e.seq) {
                link.recompute_witnesses();
            }
        }
        self.dropped += 1;
        true
    }

    /// The retained messages in push order.
    pub fn live_messages(&self) -> impl Iterator<Item = MessageObservation> {
        let mut all: Vec<(u64, MessageObservation)> = Vec::with_capacity(self.live());
        for link in &self.links {
            all.extend(link.entries.iter().map(|e| {
                let m = MessageObservation {
                    src: link.src,
                    dst: link.dst,
                    id: e.id,
                    send_clock: e.send_clock,
                    recv_clock: e.recv_clock,
                };
                (e.seq, m)
            }));
        }
        all.sort_unstable_by_key(|&(seq, _)| seq);
        all.into_iter().map(|(_, m)| m)
    }

    /// Drops every retained message of the undirected link `{p, q}` (both
    /// directions), returning how many were dropped. The window-side
    /// counterpart of evidence retraction: after a link is forgotten, its
    /// messages must leave the auditable history too, or
    /// [`ViewWindow::to_view_set`] would resurrect the retracted evidence.
    /// `O(dropped)`: only the two links' own logs are touched.
    pub fn drop_link(&mut self, p: ProcessorId, q: ProcessorId) -> usize {
        let mut count = 0;
        for (src, dst) in [(p, q), (q, p)] {
            let Some(slot) = self.find_link(src, dst) else {
                continue;
            };
            let entries = std::mem::take(&mut self.links[slot].entries);
            count += entries.len();
            for e in entries {
                self.index.remove(&e.id);
            }
        }
        self.dropped += count as u64;
        count
    }

    /// The ids the dominated-evidence policy would drop at window size
    /// `per_link_window`: on each directed link, every message that is
    /// neither the first `d̃min` witness, nor the last `d̃max` witness,
    /// nor one of the `per_link_window` most recently pushed.
    ///
    /// Computed from scratch over every retained message, independently
    /// of the witnesses, the pending-link queue and the order of the
    /// per-link logs that [`ViewWindow::gc_dominated`] maintains (the
    /// recency tail is taken by push sequence number), so callers can
    /// audit a GC tick before (or without) applying it: right after
    /// `gc_dominated(w)`, `dominated(w)` is empty.
    pub fn dominated(&self, per_link_window: usize) -> Vec<MessageId> {
        let mut doomed = Vec::new();
        let mut seqs = Vec::new();
        for link in &self.links {
            let entries = &link.entries;
            if entries.len() <= per_link_window {
                continue;
            }
            // Validated at push; a hypothetical overflow is conservatively
            // treated as non-dominated (kept).
            let min_witness = entries.iter().filter_map(Entry::key).min().map(|k| k.1);
            let max_witness = entries.iter().filter_map(Entry::key).max().map(|k| k.1);
            // The recency tail by push sequence number, not by position
            // in the log, so a log the tick left out of order still shows.
            seqs.clear();
            seqs.extend(entries.iter().map(|e| e.seq));
            let tail_from = match per_link_window {
                0 => u64::MAX,
                w => *seqs.select_nth_unstable(entries.len() - w).1,
            };
            for e in entries {
                let keep = e.seq >= tail_from
                    || e.key().is_none()
                    || Some(e.seq) == min_witness
                    || Some(e.seq) == max_witness;
                if !keep {
                    doomed.push(e.id);
                }
            }
        }
        doomed.sort();
        doomed
    }

    /// Runs one GC tick: drops every [dominated](ViewWindow::dominated)
    /// message, returning how many were dropped.
    ///
    /// Visits only the links pushed to since the previous tick — every
    /// other link already holds nothing but its tail and witnesses — so a
    /// tick costs `O(pushed + dropped)`; only a tick whose window is
    /// smaller than the previous tick's visits every link. (The earlier
    /// slot-vector store rescanned every live message on every tick.)
    ///
    /// Never drops a `d̃min`/`d̃max` witness, so the per-link extrema of
    /// [`ViewWindow::to_view_set`] are identical before and after — the
    /// never-loosens retention invariant.
    pub fn gc_dominated(&mut self, per_link_window: usize) -> usize {
        let mut count = 0;
        if per_link_window < self.last_window {
            for link in &mut self.links {
                link.dirty = false;
                count += link.gc(per_link_window, &mut self.index);
            }
            self.last_gc_links = self.links.len();
        } else {
            for &slot in &self.dirty {
                let link = &mut self.links[slot];
                link.dirty = false;
                count += link.gc(per_link_window, &mut self.index);
            }
            self.last_gc_links = self.dirty.len();
        }
        self.dirty.clear();
        self.last_window = per_link_window;
        self.dropped += count as u64;
        count
    }

    /// Materializes the retained messages as a validated [`ViewSet`]
    /// (send/receive events per processor, clock-ordered, start events
    /// prepended) — the domain's auditable bounded view history.
    ///
    /// # Errors
    ///
    /// Propagates [`ViewSet::new`] validation failures; unreachable when
    /// every message entered through [`ViewWindow::push`], which enforces
    /// the per-message axioms up front.
    pub fn to_view_set(&self) -> Result<ViewSet, ModelError> {
        let mut events: Vec<Vec<crate::ViewEvent>> = vec![Vec::new(); self.n];
        for m in self.live_messages() {
            events[m.src.index()].push(crate::ViewEvent::Send {
                to: m.dst,
                id: m.id,
                clock: m.send_clock,
            });
            events[m.dst.index()].push(crate::ViewEvent::Recv {
                from: m.src,
                id: m.id,
                clock: m.recv_clock,
            });
        }
        let views = events
            .into_iter()
            .enumerate()
            .map(|(i, mut evs)| {
                evs.sort_by_key(|e| e.clock());
                let mut all = vec![crate::ViewEvent::Start {
                    clock: ClockTime::ZERO,
                }];
                all.extend(evs);
                View::from_events(ProcessorId(i), all)
            })
            .collect();
        ViewSet::new(views)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clocksync_time::Ext;

    const P: ProcessorId = ProcessorId(0);
    const Q: ProcessorId = ProcessorId(1);

    fn msg(
        id: u64,
        src: ProcessorId,
        dst: ProcessorId,
        send: i64,
        recv: i64,
    ) -> MessageObservation {
        MessageObservation {
            src,
            dst,
            id: MessageId(id),
            send_clock: ClockTime::from_nanos(send),
            recv_clock: ClockTime::from_nanos(recv),
        }
    }

    #[test]
    fn push_validates_untrusted_input() {
        let mut w = ViewWindow::new(2);
        assert_eq!(
            w.push(msg(1, P, ProcessorId(7), 0, 1)),
            Err(ModelError::UnknownProcessor {
                processor: ProcessorId(7)
            })
        );
        assert_eq!(
            w.push(msg(1, P, Q, i64::MIN, i64::MAX)),
            Err(ModelError::ClockOverflow { id: MessageId(1) })
        );
        assert_eq!(
            w.push(msg(1, P, Q, -5, 10)),
            Err(ModelError::UnorderedView { processor: P })
        );
        assert!(w.push(msg(1, P, Q, 0, 10)).is_ok());
        assert_eq!(
            w.push(msg(1, P, Q, 5, 15)),
            Err(ModelError::DuplicateMessage { id: MessageId(1) })
        );
        assert_eq!(w.live(), 1);
        assert_eq!(w.pushed(), 1);
    }

    #[test]
    fn gc_keeps_witnesses_and_recency_window() {
        let mut w = ViewWindow::new(2);
        // id 0 is the min witness (delay 5), id 1 the max witness (90),
        // ids 2..=11 dominated probes, ids 10, 11 inside the window.
        w.push(msg(0, P, Q, 0, 5)).unwrap();
        w.push(msg(1, P, Q, 10, 100)).unwrap();
        for i in 2..12 {
            w.push(msg(i, P, Q, 100 * i as i64, 100 * i as i64 + 50))
                .unwrap();
        }
        let doomed = w.dominated(2);
        assert_eq!(doomed.len(), 8);
        assert!(!doomed.contains(&MessageId(0)));
        assert!(!doomed.contains(&MessageId(1)));
        assert!(!doomed.contains(&MessageId(10)));
        assert!(!doomed.contains(&MessageId(11)));
        assert_eq!(w.gc_dominated(2), 8);
        assert_eq!(w.live(), 4);
        // Extrema of the materialized views match the full history.
        let obs = w.to_view_set().unwrap().link_observations();
        assert_eq!(obs.estimated_min(P, Q), Ext::Finite(Nanos::new(5)));
        assert_eq!(obs.estimated_max(P, Q), Ext::Finite(Nanos::new(90)));
        // A second tick with nothing new is a no-op.
        assert_eq!(w.gc_dominated(2), 0);
    }

    #[test]
    fn recency_window_bounds_what_fusion_callers_may_rely_on() {
        // The compaction contract (module docs): a caller with
        // sample-scanning assumptions may rely on exactly the last
        // `window` messages per directed link surviving every GC tick —
        // no fewer (they are never dropped, even when dominated), and
        // anything older than that is fair game unless it is an extremal
        // witness.
        let mut w = ViewWindow::new(2);
        for i in 0..20u64 {
            // Strictly decreasing delays: each new message is the min
            // witness, so older ones are dominated as soon as they leave
            // the recency window.
            let send = 100 * i as i64;
            w.push(msg(i, P, Q, send, send + 100 - i as i64)).unwrap();
        }
        w.gc_dominated(5);
        // The 5 most recent survive verbatim...
        for i in 15..20u64 {
            assert!(w.contains(MessageId(i)), "recent vote {i} dropped");
        }
        // ...plus the max witness (id 0; the min witness, id 19, is
        // already inside the window). Everything else is gone: dominated
        // history does NOT survive, which is why interval-fusing links
        // must keep their evidence of record in the synchronizer's
        // sample store rather than a GC'd window.
        assert!(w.contains(MessageId(0)));
        assert_eq!(w.live(), 6);
    }

    #[test]
    #[cfg_attr(
        feature = "bug-window0",
        ignore = "bug-window0 deliberately re-introduces the window=0 panic"
    )]
    fn window_zero_keeps_only_the_witnesses() {
        // Regression: `dominated(0)` used to index one past the end of
        // the per-link entry list (any GC tick with a zero retention
        // window panicked). Window 0 is the tightest legal policy:
        // nothing survives but the extremal witnesses.
        let mut w = ViewWindow::new(2);
        w.push(msg(0, P, Q, 0, 5)).unwrap();
        assert_eq!(w.gc_dominated(0), 0, "a lone witness is never dropped");
        w.push(msg(1, P, Q, 10, 100)).unwrap();
        for i in 2..8 {
            w.push(msg(i, P, Q, 100 * i as i64, 100 * i as i64 + 50))
                .unwrap();
        }
        // ids 0 and 1 are the min/max witnesses; everything else goes.
        assert_eq!(w.gc_dominated(0), 6);
        assert_eq!(w.live(), 2);
        let obs = w.to_view_set().unwrap().link_observations();
        assert_eq!(obs.estimated_min(P, Q), Ext::Finite(Nanos::new(5)));
        assert_eq!(obs.estimated_max(P, Q), Ext::Finite(Nanos::new(90)));
    }

    #[test]
    fn links_are_windowed_independently() {
        let mut w = ViewWindow::new(2);
        for i in 0..6 {
            w.push(msg(i, P, Q, 10 * i as i64, 10 * i as i64 + 3))
                .unwrap();
        }
        for i in 6..8 {
            w.push(msg(i, Q, P, 10 * i as i64, 10 * i as i64 + 4))
                .unwrap();
        }
        // Q→P has only 2 messages: under the window, untouched.
        let dropped = w.gc_dominated(2);
        assert!(dropped > 0);
        assert!(w.contains(MessageId(6)) && w.contains(MessageId(7)));
    }

    #[test]
    fn drop_link_clears_both_directions_only() {
        let r = ProcessorId(2);
        let mut w = ViewWindow::new(3);
        w.push(msg(0, P, Q, 0, 10)).unwrap();
        w.push(msg(1, Q, P, 20, 35)).unwrap();
        w.push(msg(2, P, r, 40, 52)).unwrap();
        assert_eq!(w.drop_link(Q, P), 2);
        assert_eq!(w.live(), 1);
        assert!(w.contains(MessageId(2)));
        // A second drop on the now-empty link is a no-op.
        assert_eq!(w.drop_link(P, Q), 0);
    }

    #[test]
    fn gc_bounds_each_link_buffer() {
        // A 2,000-message burst on one link grows its log far past what
        // survives; one tick at window 8 must give the memory back.
        let mut w = ViewWindow::new(2);
        for i in 0..2_000u64 {
            let send = 10 * i as i64;
            w.push(msg(i, P, Q, send, send + 1 + (i as i64 * 37) % 97))
                .unwrap();
        }
        assert!(w.approx_bytes() > 2_000 * std::mem::size_of::<Entry>());
        assert_eq!(w.gc_dominated(8), 2_000 - w.live());
        assert!(w.live() <= 8 + 2);
        let bound = 4 * (8 + 2) * std::mem::size_of::<Entry>();
        assert!(
            w.approx_bytes() <= bound,
            "{} bytes retained for {} messages (bound {bound})",
            w.approx_bytes(),
            w.live()
        );
        // The survivors keep their push order.
        let ids: Vec<u64> = w.live_messages().map(|m| m.id.0).collect();
        assert!(ids.windows(2).all(|p| p[0] < p[1]), "{ids:?}");
        assert!(ids.ends_with(&(1_992..2_000).collect::<Vec<_>>()));
    }

    #[test]
    fn a_tick_visits_only_the_links_pushed_since_the_last() {
        let r = ProcessorId(2);
        let mut w = ViewWindow::new(3);
        for i in 0..12u64 {
            let (src, dst) = [(P, Q), (Q, P), (P, r)][i as usize % 3];
            w.push(msg(i, src, dst, 10 * i as i64, 10 * i as i64 + 5))
                .unwrap();
        }
        w.gc_dominated(2);
        assert_eq!(w.last_gc_links(), 3);
        w.push(msg(12, Q, P, 200, 204)).unwrap();
        w.gc_dominated(2);
        assert_eq!(w.last_gc_links(), 1);
        // A growing window keeps more, so untouched links stay clean...
        assert_eq!(w.gc_dominated(3), 0);
        assert_eq!(w.last_gc_links(), 0);
        // ...but a shrinking one must revisit every link.
        assert!(w.gc_dominated(1) > 0);
        assert_eq!(w.last_gc_links(), 3);
        assert!(w.dominated(1).is_empty());
    }

    #[test]
    fn dropping_a_witness_promotes_the_next_extreme() {
        let mut w = ViewWindow::new(2);
        // Delays 5, 90, 50, 7, 60: witnesses m0 (min) and m1 (max).
        for (i, d) in [5, 90, 50, 7, 60].into_iter().enumerate() {
            let send = 100 * i as i64;
            w.push(msg(i as u64, P, Q, send, send + d)).unwrap();
        }
        assert!(w.drop_message(MessageId(0)));
        assert!(w.drop_message(MessageId(1)));
        assert!(!w.drop_message(MessageId(1)));
        // m3 (7) and m4 (60) are the new witnesses; window 0 keeps just them.
        assert_eq!(w.gc_dominated(0), 1);
        let ids: Vec<MessageId> = w.live_messages().map(|m| m.id).collect();
        assert_eq!(ids, vec![MessageId(3), MessageId(4)]);
        assert_eq!(w.dropped(), 3);
    }

    #[test]
    fn materialized_views_validate_and_round_trip() {
        let mut w = ViewWindow::new(3);
        w.push(msg(1, P, Q, 100, 150)).unwrap();
        w.push(msg(2, Q, ProcessorId(2), 200, 260)).unwrap();
        w.push(msg(3, Q, P, 50, 120)).unwrap();
        let views = w.to_view_set().unwrap();
        assert_eq!(views.len(), 3);
        let mut obs = views.message_observations();
        obs.sort_by_key(|m| m.id);
        assert_eq!(obs.len(), 3);
        assert_eq!(obs[0].send_clock, ClockTime::from_nanos(100));
        // Events inside each view are clock-ordered even though pushes
        // were not (Q sends m2 at 200 after receiving m1 at 150, but m3
        // was sent at 50).
        let q_clocks: Vec<i64> = views
            .view(Q)
            .events()
            .iter()
            .map(|e| e.clock().as_nanos())
            .collect();
        let mut sorted = q_clocks.clone();
        sorted.sort();
        assert_eq!(q_clocks, sorted);
    }

    #[test]
    fn empty_window_materializes_empty_views() {
        let w = ViewWindow::new(2);
        let views = w.to_view_set().unwrap();
        assert_eq!(views.message_observations().len(), 0);
        assert_eq!(w.approx_bytes(), 0);
    }
}
