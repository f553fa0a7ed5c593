//! The event queue: a rolling timing wheel over an overflow ladder, with
//! deterministic (time, seq) ordering.
//!
//! Most simulator events are *near-future*: a queue departure lands one
//! serialization time ahead (3.2 ns for an ACK at 100G, 1.2 µs for an MTU at
//! 10G), an arrival one propagation delay ahead (~1 µs). A binary heap pays
//! O(log n) pointer-chasing for every one of them. This queue instead hashes
//! them into fixed-width time slots of a wheel that rolls with the clock:
//!
//! * **Wheel**: `N_SLOTS` slots of `2^`[`SLOT_SHIFT`] ps (~1 ns) each. The
//!   *open* slot `cur` (absolute slot number `t >> SLOT_SHIFT` of the last
//!   popped event) is being drained; the wheel holds every event whose slot
//!   lies in `(cur, cur + N_SLOTS)`, a ~2.1 µs horizon measured from the open
//!   slot, at physical index `slot & (N_SLOTS - 1)`. Insertion is a push
//!   plus a bit set in an occupancy bitmap; the next occupied slot is found
//!   by scanning that bitmap, at most `N_SLOTS / 64` words.
//! * **Drain + late heap**: when a slot opens its entries are stably sorted
//!   by time into a stack popped from the end. Events scheduled *into* the
//!   open slot while it drains (same-timestamp cascades, sub-ns offsets) go
//!   to a small binary heap ordered by (time, seq); each pop takes the
//!   earlier of the stack tail and the heap head, the stack on a time tie.
//! * **Ladder**: events at or beyond the horizon (RTO timers at ≥1 ms, app
//!   wakeups, telemetry ticks) go to an overflow binary heap ordered by
//!   (time, seq). Whenever the open slot advances, every ladder event the
//!   new horizon covers moves into its slot, in (time, seq) order. With the
//!   wheel empty the open slot advances straight to the ladder minimum's.
//!
//! Wheel entries carry no sequence number — 24 bytes, `(time, kind)` — yet
//! dispatch order is exactly (time, seq), bit-identical to the original
//! `BinaryHeap<Reverse<Event>>` engine. The argument rests on three
//! invariants:
//!
//! 1. every `schedule(at, ..)` has `slot(at) >= cur`, because `at >= now`
//!    and `now` is never before the open slot;
//! 2. the ladder only ever holds events at or beyond `cur + N_SLOTS`;
//! 3. a slot's entries are appended in an order that agrees with seq on
//!    every time tie: the horizon reaches a slot once, its ladder events
//!    move in first (popped in (time, seq) order, all scheduled before that
//!    moment) and direct stagings follow (in schedule order, all after it),
//!    so a *stable* sort by time yields (time, seq).
//!
//! Every `late` event was scheduled after its slot opened, so it has a larger
//! seq than every drain entry and a time tie goes to the drain. See DESIGN.md
//! "Event engine internals"; the golden fingerprint and proptest suites
//! verify the order end to end.

use crate::packet::{ConnId, PacketId};
use crate::time::SimTime;
use pnet_topology::LinkId;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Things that can happen.
#[derive(Debug)]
pub enum EventKind {
    /// The head-of-line packet of `link`'s queue finished serializing.
    QueueDeparture { link: LinkId },
    /// The packet behind `packet` (an index into the simulator's arena)
    /// finished propagating and arrives at the input of its next hop (or at
    /// the destination host if the route is exhausted).
    Arrival { packet: PacketId },
    /// A retransmission timer fired. Stale tokens are ignored.
    RtoTimer {
        conn: ConnId,
        subflow: u8,
        token: u64,
    },
    /// An application-scheduled wakeup (flow start, think time, ...).
    AppTimer { app: u32, tag: u64 },
    /// A periodic telemetry sampler tick. Observes queue/plane/subflow state
    /// and mutates nothing, so enabling it never changes transport behaviour.
    TelemetrySample,
}

/// A scheduled event, as the wheel stores it and `pop` returns it.
#[derive(Debug)]
pub struct Event {
    pub time: SimTime,
    pub kind: EventKind,
}

/// An event tagged with its schedule sequence number, for the two heaps
/// (ladder and late) that must break time ties explicitly.
#[derive(Debug)]
struct Sequenced {
    ev: Event,
    seq: u64,
}

impl PartialEq for Sequenced {
    fn eq(&self, other: &Self) -> bool {
        self.ev.time == other.ev.time && self.seq == other.seq
    }
}
impl Eq for Sequenced {}
impl Ord for Sequenced {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.ev
            .time
            .cmp(&other.ev.time)
            .then(self.seq.cmp(&other.seq))
    }
}
impl PartialOrd for Sequenced {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Slot width: 2^10 ps ≈ 1 ns. At trace replay's ~5k events per simulated
/// µs a slot holds a handful of events, so opening one sorts a few entries
/// and the whole wheel's buffers stay cache-resident; narrower slots would
/// only add empty slots to skip.
pub const SLOT_SHIFT: u32 = 10;
/// Number of wheel slots (a power of two, so the physical index is a mask).
/// The horizon, `N_SLOTS << SLOT_SHIFT` ≈ 2.1 µs, covers the 1 µs fabric
/// propagation delay plus an MTU serialization at ≥10G, so packet events
/// never touch the ladder; ≥1 ms RTO timers always do.
const N_SLOTS: usize = 1 << 11;
/// Width of the wheel's horizon in picoseconds, measured from the start of
/// the open slot: an event this far ahead or more goes to the ladder.
pub const HORIZON_PS: u64 = (N_SLOTS as u64) << SLOT_SHIFT;
const WORDS: usize = N_SLOTS / 64;

/// Absolute slot number of time `t`.
#[inline]
fn slot_of(t: SimTime) -> u64 {
    t.as_ps() >> SLOT_SHIFT
}

/// Deterministic event queue (rolling timing wheel + overflow ladder).
#[derive(Debug)]
pub struct EventQueue {
    /// Unsorted per-slot staging areas, indexed by `slot & (N_SLOTS - 1)`,
    /// for the slots in `(cur, cur + N_SLOTS)`. The open slot's staging area
    /// is always empty: its backlog lives in `drain` and fresh insertions go
    /// to `late`.
    slots: Vec<Vec<Event>>,
    /// One bit per physical slot: set iff that staging area is non-empty.
    occupied: [u64; WORDS],
    /// The open slot's backlog, sorted descending by time with ties in
    /// reverse schedule order; pops come off the end.
    drain: Vec<Event>,
    /// Events scheduled into the open slot after it opened.
    late: BinaryHeap<Reverse<Sequenced>>,
    /// Absolute slot number of the open slot. Every slot before it is
    /// drained.
    cur: u64,
    /// Events in `slots` (not counting `drain` or `late`).
    staged: usize,
    /// Far-future overflow: every event at slot `cur + N_SLOTS` or later.
    ladder: BinaryHeap<Reverse<Sequenced>>,
    /// Events scheduled so far; also the next sequence number.
    scheduled: u64,
    dispatched: u64,
    /// Pending [`EventKind::Arrival`] events, maintained at schedule/pop so
    /// the conservation ledger never scans the queue.
    #[cfg(feature = "strict-invariants")]
    arrivals_pending: u64,
}

impl Default for EventQueue {
    fn default() -> Self {
        Self::new()
    }
}

impl EventQueue {
    /// Empty queue.
    pub fn new() -> Self {
        EventQueue {
            slots: (0..N_SLOTS).map(|_| Vec::new()).collect(),
            occupied: [0; WORDS],
            drain: Vec::new(),
            late: BinaryHeap::new(),
            cur: 0,
            staged: 0,
            ladder: BinaryHeap::new(),
            scheduled: 0,
            dispatched: 0,
            #[cfg(feature = "strict-invariants")]
            arrivals_pending: 0,
        }
    }

    /// Schedule `kind` at absolute time `at`, which must not be earlier than
    /// the last popped event.
    #[inline]
    pub fn schedule(&mut self, at: SimTime, kind: EventKind) {
        let seq = self.scheduled;
        self.scheduled += 1;
        #[cfg(feature = "strict-invariants")]
        if matches!(kind, EventKind::Arrival { .. }) {
            self.arrivals_pending += 1;
        }
        let ev = Event { time: at, kind };
        let slot = slot_of(at);
        debug_assert!(
            slot >= self.cur,
            "scheduled behind the open slot ({slot} < {})",
            self.cur
        );
        match slot - self.cur {
            0 => self.late.push(Reverse(Sequenced { ev, seq })),
            ahead if ahead < N_SLOTS as u64 => self.stage(ev),
            _ => self.ladder.push(Reverse(Sequenced { ev, seq })),
        }
    }

    /// Append `ev` to its slot's staging area.
    #[inline]
    fn stage(&mut self, ev: Event) {
        let p = slot_of(ev.time) as usize & (N_SLOTS - 1);
        self.slots[p].push(ev);
        self.occupied[p / 64] |= 1 << (p % 64);
        self.staged += 1;
    }

    /// Absolute slot number of the first occupied staging area after the
    /// open slot. Requires `staged > 0`.
    fn next_occupied(&self) -> u64 {
        let start = (self.cur as usize + 1) & (N_SLOTS - 1);
        let w0 = start / 64;
        // The first word counts only from `start`; wrapping back round to it
        // at the end is harmless, since its bits from `start` on were zero.
        let first = self.occupied[w0] & (!0u64 << (start % 64));
        let p = if first != 0 {
            w0 * 64 + first.trailing_zeros() as usize
        } else {
            (1..=WORDS)
                .map(|i| (w0 + i) % WORDS)
                .find(|&w| self.occupied[w] != 0)
                .map(|w| w * 64 + self.occupied[w].trailing_zeros() as usize)
                .expect("invariant: staged > 0 implies an occupied slot")
        };
        // The open slot's own staging area is empty, so the distance is in
        // 1..N_SLOTS.
        self.cur + ((p as u64).wrapping_sub(self.cur) & (N_SLOTS as u64 - 1))
    }

    /// Open the next non-empty slot: advance `cur` to it, roll the horizon
    /// (moving the ladder events it now covers into their slots) and take
    /// the slot's entries as the new drain stack. Returns false when the
    /// queue is empty. Requires the open slot to be exhausted.
    fn advance(&mut self) -> bool {
        debug_assert!(self.drain.is_empty() && self.late.is_empty());
        self.cur = if self.staged > 0 {
            self.next_occupied()
        } else if let Some(Reverse(head)) = self.ladder.peek() {
            slot_of(head.ev.time)
        } else {
            return false;
        };
        let horizon = self.cur + N_SLOTS as u64;
        while self
            .ladder
            .peek()
            .is_some_and(|Reverse(e)| slot_of(e.ev.time) < horizon)
        {
            let Reverse(e) = self
                .ladder
                .pop()
                .expect("invariant: peeked ladder head exists");
            self.stage(e.ev);
        }
        // Recycle the exhausted drain buffer (and its capacity) as the
        // opened slot's staging area.
        let p = self.cur as usize & (N_SLOTS - 1);
        std::mem::swap(&mut self.drain, &mut self.slots[p]);
        self.occupied[p / 64] &= !(1 << (p % 64));
        self.staged -= self.drain.len();
        // Stable: equal times keep schedule order (invariant 3), and the
        // reversal makes the stack pop them first-scheduled first.
        self.drain.sort_by_key(|e| e.time);
        self.drain.reverse();
        true
    }

    /// Earliest time pending in the open slot.
    #[inline]
    fn open_min(&self) -> Option<SimTime> {
        match (self.drain.last(), self.late.peek()) {
            (Some(d), Some(Reverse(l))) => Some(d.time.min(l.ev.time)),
            (Some(d), None) => Some(d.time),
            (None, Some(Reverse(l))) => Some(l.ev.time),
            (None, None) => None,
        }
    }

    /// Pop the earliest event of the open slot, which must hold one: the
    /// earlier of the drain stack's tail and the late heap's head, the tail
    /// on a time tie (its seq is smaller).
    #[inline]
    fn pop_open(&mut self) -> Event {
        let take_late = match (self.drain.last(), self.late.peek()) {
            (Some(d), Some(Reverse(l))) => l.ev.time < d.time,
            (None, _) => true,
            (Some(_), None) => false,
        };
        let ev = if take_late {
            self.late.pop().map(|Reverse(e)| e.ev)
        } else {
            self.drain.pop()
        }
        .expect("invariant: the open slot holds an event");
        self.dispatched += 1;
        #[cfg(feature = "strict-invariants")]
        if matches!(ev.kind, EventKind::Arrival { .. }) {
            self.arrivals_pending -= 1;
        }
        // Drain invariant: every event is scheduled exactly once and
        // dispatched at most once, so pending + dispatched == scheduled.
        debug_assert_eq!(
            self.len() as u64 + self.dispatched,
            self.scheduled,
            "event queue counters out of sync"
        );
        ev
    }

    /// The event most likely to pop next — the drain-stack tail — offered as
    /// a prefetch hint to the dispatch loop. Purely advisory: the late heap
    /// or a later slot may in fact come first, so callers must never use it
    /// for ordering decisions. (This hint is a structural advantage of the
    /// wheel: a binary heap knows its head, but the head's *successor* is
    /// buried mid-sift.)
    #[inline]
    pub fn next_hint(&self) -> &[Event] {
        let n = self.drain.len();
        // Two-deep: a handler runs long enough to cover its successor's DRAM
        // load but often not two, so overlapping a pair keeps the pipeline
        // ahead of the dispatch loop.
        &self.drain[n.saturating_sub(2)..]
    }

    /// Pop the earliest event.
    #[inline]
    pub fn pop(&mut self) -> Option<Event> {
        if self.drain.is_empty() && self.late.is_empty() && !self.advance() {
            return None;
        }
        Some(self.pop_open())
    }

    /// Pop the earliest event only if it is scheduled exactly at `t`, the
    /// current time (that of the last popped event). This is the
    /// batched-dispatch fast path for same-timestamp cascades (departure →
    /// arrival → departure ...): an event at the current time can only be in
    /// the open slot, so only that slot is checked, and an exhausted open
    /// slot answers `None` without looking further.
    #[inline]
    pub fn pop_if_at(&mut self, t: SimTime) -> Option<Event> {
        debug_assert!(
            slot_of(t) == self.cur || self.open_min().is_none(),
            "pop_if_at away from the open slot"
        );
        if self.open_min() == Some(t) {
            Some(self.pop_open())
        } else {
            None
        }
    }

    /// Time of the next event without removing it.
    #[inline]
    pub fn peek_time(&self) -> Option<SimTime> {
        if let Some(t) = self.open_min() {
            return Some(t);
        }
        if self.staged > 0 {
            // Wheel events are all before the horizon, ladder events at or
            // beyond it, so the first occupied slot holds the global minimum.
            let p = self.next_occupied() as usize & (N_SLOTS - 1);
            return self.slots[p].iter().map(|e| e.time).min();
        }
        self.ladder.peek().map(|Reverse(e)| e.ev.time)
    }

    /// Events still pending.
    pub fn len(&self) -> usize {
        self.staged + self.drain.len() + self.late.len() + self.ladder.len()
    }

    /// True when no events remain.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total events dispatched so far (for instrumentation).
    pub fn dispatched(&self) -> u64 {
        self.dispatched
    }

    /// Total events scheduled so far (for instrumentation; always equals
    /// `dispatched() + len()`).
    pub fn scheduled(&self) -> u64 {
        self.scheduled
    }

    /// Packets currently propagating: pending [`EventKind::Arrival`] events.
    /// A counter maintained at schedule/pop time, so the conservation ledger
    /// stays O(1) per check at any simulation scale.
    #[cfg(feature = "strict-invariants")]
    pub fn pending_arrivals(&self) -> u64 {
        self.arrivals_pending
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_partial_ord_is_consistent_with_ord_and_eq() {
        use std::cmp::Ordering;
        let ev = |t: u64, seq: u64| Sequenced {
            ev: Event {
                time: SimTime::from_ps(t),
                kind: EventKind::TelemetrySample,
            },
            seq,
        };
        // Same (time, seq) with different kinds still compares Equal — the
        // heaps order purely on (time, seq).
        let same = Sequenced {
            ev: Event {
                time: SimTime::from_ps(10),
                kind: EventKind::AppTimer { app: 0, tag: 0 },
            },
            seq: 1,
        };
        let cases = [ev(10, 1), ev(10, 2), ev(20, 0), same];
        for x in &cases {
            for y in &cases {
                assert_eq!(
                    x.partial_cmp(y),
                    Some(x.cmp(y)),
                    "PartialOrd must delegate to Ord"
                );
                assert_eq!(
                    x == y,
                    x.cmp(y) == Ordering::Equal,
                    "Eq must agree with Ord"
                );
            }
        }
        assert!(ev(10, 1) < ev(10, 2), "seq breaks time ties");
        assert!(ev(10, 2) < ev(20, 0), "time dominates");
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_us(3), EventKind::AppTimer { app: 3, tag: 0 });
        q.schedule(SimTime::from_us(1), EventKind::AppTimer { app: 1, tag: 0 });
        q.schedule(SimTime::from_us(2), EventKind::AppTimer { app: 2, tag: 0 });
        let order: Vec<u32> = std::iter::from_fn(|| q.pop())
            .map(|e| match e.kind {
                EventKind::AppTimer { app, .. } => app,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        for i in 0..10 {
            q.schedule(SimTime::from_us(5), EventKind::AppTimer { app: i, tag: 0 });
        }
        let order: Vec<u32> = std::iter::from_fn(|| q.pop())
            .map(|e| match e.kind {
                EventKind::AppTimer { app, .. } => app,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn peek_matches_pop() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_ns(7), EventKind::AppTimer { app: 0, tag: 0 });
        assert_eq!(q.peek_time(), Some(SimTime::from_ns(7)));
        let e = q.pop().unwrap();
        assert_eq!(e.time, SimTime::from_ns(7));
        assert!(q.is_empty());
    }

    #[test]
    fn counters_track() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::ZERO, EventKind::AppTimer { app: 0, tag: 0 });
        q.schedule(SimTime::ZERO, EventKind::AppTimer { app: 1, tag: 0 });
        assert_eq!(q.len(), 2);
        q.pop();
        assert_eq!(q.dispatched(), 1);
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn drain_invariant_holds_through_interleaved_use() {
        let mut q = EventQueue::new();
        // Interleave schedules and pops, including pops on empty, and check
        // scheduled == dispatched + pending at every step.
        for round in 0..5u64 {
            for i in 0..3 {
                q.schedule(
                    SimTime::from_ns(round * 10 + i),
                    EventKind::AppTimer {
                        app: i as u32,
                        tag: round,
                    },
                );
                assert_eq!(q.scheduled(), q.dispatched() + q.len() as u64);
            }
            q.pop();
            assert_eq!(q.scheduled(), q.dispatched() + q.len() as u64);
        }
        while q.pop().is_some() {
            assert_eq!(q.scheduled(), q.dispatched() + q.len() as u64);
        }
        // Pop on empty must not disturb the counters.
        assert!(q.pop().is_none());
        assert_eq!(q.scheduled(), 15);
        assert_eq!(q.dispatched(), 15);
        assert_eq!(q.len(), 0);
    }

    // -------------------------------------------------------------------
    // Wheel-specific edge cases.
    // -------------------------------------------------------------------

    fn app(q: &mut EventQueue, at_ps: u64, app: u32) {
        q.schedule(SimTime::from_ps(at_ps), EventKind::AppTimer { app, tag: 0 });
    }

    fn drain_apps(q: &mut EventQueue) -> Vec<(u64, u32)> {
        std::iter::from_fn(|| q.pop())
            .map(|e| match e.kind {
                EventKind::AppTimer { app, .. } => (e.time.as_ps(), app),
                _ => unreachable!(),
            })
            .collect()
    }

    #[test]
    fn bucket_rollover_across_slot_boundaries() {
        // Events straddling slot boundaries within one horizon: exact order
        // regardless of which ~1 ns slot each lands in.
        let w = 1u64 << SLOT_SHIFT;
        let mut q = EventQueue::new();
        app(&mut q, 3 * w + 1, 4);
        app(&mut q, w - 1, 1); // last ps of slot 0
        app(&mut q, w, 2); // first ps of slot 1
        app(&mut q, 0, 0);
        app(&mut q, 3 * w + 1, 5); // tie with app 4: seq order
        app(&mut q, 2 * w + 7, 3);
        let got = drain_apps(&mut q);
        assert_eq!(
            got,
            vec![
                (0, 0),
                (w - 1, 1),
                (w, 2),
                (2 * w + 7, 3),
                (3 * w + 1, 4),
                (3 * w + 1, 5),
            ]
        );
    }

    #[test]
    fn far_future_events_take_the_ladder_and_come_back() {
        // A mix of near events and far timers (several horizons out, RTO
        // scale): the ladder must hand them back in exact order, including
        // ties and events that share the horizon after the wheel rolls.
        let mut q = EventQueue::new();
        app(&mut q, HORIZON_PS * 3 + 500, 3); // far: ladder
        app(&mut q, 10, 0); // near
        app(&mut q, HORIZON_PS * 3 + 500, 4); // far tie: seq order
        app(&mut q, HORIZON_PS * 3 + 499, 2); // far, just before the tie
        app(&mut q, HORIZON_PS - 1, 1); // last ps of the first horizon
        app(&mut q, HORIZON_PS * 9 + 1, 5); // beyond even the rolled horizon
        let got = drain_apps(&mut q);
        assert_eq!(
            got,
            vec![
                (10, 0),
                (HORIZON_PS - 1, 1),
                (HORIZON_PS * 3 + 499, 2),
                (HORIZON_PS * 3 + 500, 3),
                (HORIZON_PS * 3 + 500, 4),
                (HORIZON_PS * 9 + 1, 5),
            ]
        );
    }

    #[test]
    fn window_jump_then_schedule_into_new_window() {
        // After the wheel advances to a far timer, scheduling near the new
        // "now" must land in the wheel and sort correctly against remaining
        // ladder events.
        let far = HORIZON_PS * 5 + 1000;
        let mut q = EventQueue::new();
        app(&mut q, far, 1);
        app(&mut q, far + HORIZON_PS, 3); // a horizon further again
        let first = q.pop().unwrap();
        assert_eq!(first.time.as_ps(), far);
        // Simulate the dispatch of `first` scheduling a follow-up shortly
        // after now (within the horizon) — the common RTO-retransmit pattern.
        app(&mut q, far + 5, 2);
        let got = drain_apps(&mut q);
        assert_eq!(got, vec![(far + 5, 2), (far + HORIZON_PS, 3)]);
    }

    #[test]
    fn late_insertion_into_draining_slot_keeps_order() {
        // Pop one event of a slot, then schedule an earlier-time event into
        // the same slot (larger seq, smaller time than the drain remainder):
        // the merge must interleave it correctly.
        let mut q = EventQueue::new();
        app(&mut q, 100, 0);
        app(&mut q, 300, 2);
        app(&mut q, 400, 3);
        assert_eq!(q.pop().unwrap().time.as_ps(), 100);
        app(&mut q, 200, 1); // same slot 0, earlier than 300
        let got = drain_apps(&mut q);
        assert_eq!(got, vec![(200, 1), (300, 2), (400, 3)]);
    }

    #[test]
    fn pop_if_at_only_pops_exact_timestamp() {
        let mut q = EventQueue::new();
        app(&mut q, 50, 0);
        app(&mut q, 50, 1);
        app(&mut q, 60, 2);
        let t = SimTime::from_ps(50);
        assert_eq!(q.pop().unwrap().time, t);
        // Batch path: second event at the same timestamp pops...
        let e = q.pop_if_at(t).expect("event at t=50 pending");
        assert!(matches!(e.kind, EventKind::AppTimer { app: 1, .. }));
        // ...but the t=60 event does not.
        assert!(q.pop_if_at(t).is_none());
        assert_eq!(q.len(), 1);
        // Late insertion at the batch timestamp is still honoured (slow path).
        app(&mut q, 50, 3);
        let e = q.pop_if_at(t).expect("late event at t=50 pending");
        assert!(matches!(e.kind, EventKind::AppTimer { app: 3, .. }));
        assert_eq!(q.pop().unwrap().time.as_ps(), 60);
    }

    #[test]
    fn matches_reference_heap_on_a_dense_mixed_schedule() {
        // Deterministic miniature of the props.rs proptest: interleave
        // schedules (near, far, tied) with pops and compare against a
        // straightforward (time, insertion-index) sort.
        let times: Vec<u64> = (0..400u64)
            .map(|i| {
                // LCG spreading times over ~1.5 horizons with many collisions.
                let r = i
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (r >> 33) % (3 * HORIZON_PS / 2)
            })
            .collect();
        let mut q = EventQueue::new();
        let mut expect: Vec<(u64, u32)> = Vec::new();
        for (i, &t) in times.iter().enumerate() {
            app(&mut q, t, i as u32);
            expect.push((t, i as u32));
        }
        expect.sort_unstable(); // (time, seq) == (time, insertion index) here
        assert_eq!(drain_apps(&mut q), expect);
    }

    #[test]
    fn physical_slots_wrap_over_several_horizons() {
        // A hold model marching the clock across five horizons: each pop
        // reschedules at offsets that land on every residue of the physical
        // slot index, including ones below the open slot's (the wrap), just
        // inside and just past the horizon. Order must match a (time, seq)
        // reference throughout.
        let slot = 1u64 << SLOT_SHIFT;
        let offsets = [
            0,
            1,
            slot - 1,
            slot,
            3 * slot + 17,
            HORIZON_PS / 2 + 5,
            HORIZON_PS - slot,
            HORIZON_PS - 1,
            HORIZON_PS,
            HORIZON_PS + slot + 3,
        ];
        let mut q = EventQueue::new();
        let mut model = BinaryHeap::new();
        let mut seq = 0u32;
        for &o in &offsets {
            app(&mut q, o, seq);
            model.push(Reverse((o, seq)));
            seq += 1;
        }
        let mut i = 0usize;
        let mut now = 0u64;
        while now < 5 * HORIZON_PS {
            let e = q.pop().expect("hold model keeps events pending");
            let Reverse(want) = model.pop().expect("model agrees on emptiness");
            let EventKind::AppTimer { app: got, .. } = e.kind else {
                unreachable!()
            };
            assert_eq!((e.time.as_ps(), got), want);
            now = e.time.as_ps();
            let at = now + offsets[i % offsets.len()] + (i as u64 * 7919) % slot;
            i += 1;
            app(&mut q, at, seq);
            model.push(Reverse((at, seq)));
            seq += 1;
        }
        let rest: Vec<_> = std::iter::from_fn(|| model.pop().map(|Reverse(x)| x)).collect();
        assert_eq!(drain_apps(&mut q), rest);
    }

    #[test]
    fn migrated_ladder_event_precedes_same_time_direct_staging() {
        // Two events at `far` start in the ladder; popping a near event rolls
        // the horizon over `far`'s slot and moves them into it. A third event
        // at exactly `far`, scheduled afterwards, is staged directly into the
        // same slot; seq order must still hold across the three.
        let near = 10 * (1u64 << SLOT_SHIFT);
        let far = HORIZON_PS + near - 1;
        let mut q = EventQueue::new();
        app(&mut q, far, 1);
        app(&mut q, far, 2);
        app(&mut q, near, 0);
        assert_eq!(q.ladder.len(), 2, "both far events start in the ladder");
        assert_eq!(q.pop().unwrap().time.as_ps(), near);
        assert!(q.ladder.is_empty(), "the rolled horizon covers far's slot");
        app(&mut q, far, 3);
        assert!(q.ladder.is_empty(), "the tie is staged directly");
        assert_eq!(drain_apps(&mut q), vec![(far, 1), (far, 2), (far, 3)]);
    }

    #[test]
    fn pop_if_at_stops_at_the_end_of_the_open_slot() {
        // The open slot is exhausted and the next slot holds events: the
        // batch path answers None without advancing, and pop moves on.
        let slot = 1u64 << SLOT_SHIFT;
        let mut q = EventQueue::new();
        app(&mut q, 5, 0);
        app(&mut q, slot, 1);
        app(&mut q, slot, 2);
        let t = SimTime::from_ps(5);
        assert_eq!(q.pop().unwrap().time, t);
        assert!(q.pop_if_at(t).is_none());
        assert_eq!(q.len(), 2);
        assert_eq!(q.peek_time(), Some(SimTime::from_ps(slot)));
        assert_eq!(drain_apps(&mut q), vec![(slot, 1), (slot, 2)]);
    }
}
