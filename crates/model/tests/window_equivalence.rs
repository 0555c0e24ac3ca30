//! The incremental per-link GC of [`ViewWindow`] against its from-scratch
//! audit predicate, [`ViewWindow::dominated`].
//!
//! Random operation sequences over a few directed links — pushes with
//! tied delays and moving witnesses, explicit drops (witnesses included),
//! link drops, and GC ticks whose window grows, shrinks and hits zero —
//! are replayed against a plain list of live ids. After every operation:
//!
//! * a tick drops exactly the `dominated(w)` set taken just before it, and
//!   `dominated(w)` is empty right after it;
//! * `live_messages()` is the model's live list, in push order;
//! * each link's extrema in `to_view_set()` equal the extrema of every
//!   message pushed to it since its last explicit drop — GC never moves
//!   them.
#![cfg(not(feature = "bug-window0"))]

use std::collections::HashMap;

use clocksync_model::{MessageId, MessageObservation, ProcessorId, ViewWindow};
use clocksync_time::{ClockTime, Ext, Nanos};
use proptest::prelude::*;

const N: usize = 3;
const LINKS: [(usize, usize); 4] = [(0, 1), (1, 0), (0, 2), (2, 1)];

#[derive(Debug, Clone)]
enum Op {
    /// Push on `LINKS[link]` with a delay from a small range (ties).
    Push { link: usize, delay: i64 },
    /// Drop the `pick`-th live message (mod the live count).
    Drop { pick: usize },
    /// Drop the current minimum (or maximum) witness of `LINKS[link]`.
    DropWitness { link: usize, max: bool },
    /// Drop both directions of `{p, q}`.
    DropLink { p: usize, q: usize },
    /// One GC tick at this window.
    Gc { window: usize },
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        8 => (0..LINKS.len(), 0i64..6).prop_map(|(link, delay)| Op::Push { link, delay }),
        1 => (0usize..64).prop_map(|pick| Op::Drop { pick }),
        1 => (0..LINKS.len(), any::<bool>()).prop_map(|(link, max)| Op::DropWitness { link, max }),
        1 => (0..N, 0..N).prop_map(|(p, q)| Op::DropLink { p, q }),
        3 => (0usize..6).prop_map(|window| Op::Gc { window }),
    ]
}

/// Per directed link, the extrema of the delays pushed since the link's
/// last explicit drop (which rebases them onto what is still live).
type Extrema = HashMap<(usize, usize), (i64, i64)>;

fn delay(m: &MessageObservation) -> i64 {
    m.recv_clock.as_nanos() - m.send_clock.as_nanos()
}

fn live_extrema(w: &ViewWindow, link: (usize, usize)) -> Option<(i64, i64)> {
    let delays: Vec<i64> = w
        .live_messages()
        .filter(|m| (m.src.index(), m.dst.index()) == link)
        .map(|m| delay(&m))
        .collect();
    Some((*delays.iter().min()?, *delays.iter().max()?))
}

fn rebase(w: &ViewWindow, extrema: &mut Extrema, link: (usize, usize)) {
    match live_extrema(w, link) {
        Some(e) => extrema.insert(link, e),
        None => extrema.remove(&link),
    };
}

/// The witness the window must keep for `link`: earliest at the minimum
/// delay, latest at the maximum.
fn witness(w: &ViewWindow, link: (usize, usize), max: bool) -> Option<MessageId> {
    let on_link = w
        .live_messages()
        .filter(|m| (m.src.index(), m.dst.index()) == link)
        .enumerate()
        .map(|(pos, m)| ((delay(&m), pos), m.id));
    if max {
        on_link.max().map(|(_, id)| id)
    } else {
        on_link.min().map(|(_, id)| id)
    }
}

fn check(w: &ViewWindow, model: &[MessageId], extrema: &Extrema) -> Result<(), TestCaseError> {
    let ids: Vec<MessageId> = w.live_messages().map(|m| m.id).collect();
    prop_assert_eq!(&ids[..], model, "live set or push order diverged");
    prop_assert_eq!(w.live(), model.len());
    let obs = w
        .to_view_set()
        .expect("windowed messages are valid")
        .link_observations();
    for &(p, q) in &LINKS {
        let (p, q) = (ProcessorId(p), ProcessorId(q));
        let expected = extrema.get(&(p.index(), q.index()));
        let got_min = obs.estimated_min(p, q);
        let got_max = obs.estimated_max(p, q);
        match expected {
            Some(&(lo, hi)) => {
                prop_assert_eq!(got_min, Ext::Finite(Nanos::new(lo)));
                prop_assert_eq!(got_max, Ext::Finite(Nanos::new(hi)));
            }
            None => prop_assert!(live_extrema(w, (p.index(), q.index())).is_none()),
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1000))]

    #[test]
    fn incremental_gc_matches_the_full_scan(ops in proptest::collection::vec(op(), 1..80)) {
        let mut w = ViewWindow::new(N);
        let mut model: Vec<MessageId> = Vec::new();
        let mut extrema = Extrema::new();
        let mut next = 0u64;
        for op in ops {
            match op {
                Op::Push { link, delay } => {
                    let (src, dst) = LINKS[link];
                    let send = 10 * next as i64;
                    w.push(MessageObservation {
                        src: ProcessorId(src),
                        dst: ProcessorId(dst),
                        id: MessageId(next),
                        send_clock: ClockTime::from_nanos(send),
                        recv_clock: ClockTime::from_nanos(send + delay),
                    })
                    .expect("generated messages are valid");
                    model.push(MessageId(next));
                    let e = extrema.entry((src, dst)).or_insert((delay, delay));
                    *e = (e.0.min(delay), e.1.max(delay));
                    next += 1;
                }
                Op::Drop { pick } => {
                    if model.is_empty() {
                        prop_assert!(!w.drop_message(MessageId(next)));
                        continue;
                    }
                    let id = model.remove(pick % model.len());
                    let m = w.live_messages().find(|m| m.id == id).expect("model id is live");
                    prop_assert!(w.drop_message(id));
                    prop_assert!(!w.drop_message(id));
                    rebase(&w, &mut extrema, (m.src.index(), m.dst.index()));
                }
                Op::DropWitness { link, max } => {
                    if let Some(id) = witness(&w, LINKS[link], max) {
                        prop_assert!(w.drop_message(id));
                        model.retain(|&m| m != id);
                        rebase(&w, &mut extrema, LINKS[link]);
                    }
                }
                Op::DropLink { p, q } => {
                    let before = model.len();
                    let on_link: Vec<MessageId> = w
                        .live_messages()
                        .filter(|m| {
                            let (s, d) = (m.src.index(), m.dst.index());
                            (s, d) == (p, q) || (s, d) == (q, p)
                        })
                        .map(|m| m.id)
                        .collect();
                    model.retain(|id| !on_link.contains(id));
                    prop_assert_eq!(w.drop_link(ProcessorId(p), ProcessorId(q)), before - model.len());
                    extrema.remove(&(p, q));
                    extrema.remove(&(q, p));
                }
                Op::Gc { window } => {
                    let doomed = w.dominated(window);
                    prop_assert_eq!(w.gc_dominated(window), doomed.len());
                    prop_assert!(w.dominated(window).is_empty(), "tick left dominated evidence");
                    model.retain(|id| doomed.binary_search(id).is_err());
                }
            }
            check(&w, &model, &extrema)?;
        }
    }
}
