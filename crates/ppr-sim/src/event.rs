//! The deterministic discrete-event core.
//!
//! The simulator's event-driven code is the code whose events feed back:
//! the timeline generator (traffic arrivals and CSMA attempts, which
//! react to what is on the air) and the mesh flood (transmission
//! starts, reception completions, ARQ timers, jammer bursts and node
//! faults, whose decodes schedule rebroadcasts and repairs). Each runs
//! its events through an [`EventQueue`]. The testbed reception pass
//! reads a finished timeline and schedules nothing, so it walks the
//! timeline instead ([`crate::network::ReceptionDriver`]). The default
//! implementation is a binary heap ([`BinaryHeapQueue`]), but the queue
//! is a trait so a calendar queue or ladder queue can slot in later
//! without touching the drivers.
//!
//! ## The ordering key: `(time, priority, seq)`
//!
//! Determinism is the whole point. Every scheduled event gets a total,
//! seed-stable ordering key [`EventKey`] compared lexicographically:
//!
//! 1. **`time`** — the chip-clock timestamp (2 Mchip/s, see
//!    [`ppr_phy::chips::CHIP_RATE_HZ`]);
//! 2. **`priority`** — a caller-chosen class/minor pair (see
//!    [`priority`]) that fixes the order of *different kinds* of events
//!    scheduled for the same chip (e.g. a reception that completes at
//!    chip `t` is processed before a frame that starts at chip `t`,
//!    because end times are exclusive);
//! 3. **`seq`** — a per-queue push counter that breaks every remaining
//!    tie in schedule order.
//!
//! No two events ever compare equal, so the pop order is a pure function
//! of the schedule calls — independent of heap internals, worker-thread
//! scheduling, or iteration order of any container. There is no
//! `HashMap`, wall clock, or `thread_rng` anywhere in this module
//! (enforced by ppr-lint's `determinism` lint).

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// The total ordering key of one scheduled event: compared as the tuple
/// `(time, priority, seq)` — see the module docs for what each field
/// pins down.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct EventKey {
    /// Chip-clock timestamp.
    pub time: u64,
    /// Same-time class/minor order (see [`priority`]).
    pub priority: u64,
    /// Push counter: the final, always-unique tie-break.
    pub seq: u64,
}

/// Packs a same-time ordering class and a minor index into one
/// [`EventKey::priority`] word: `class` orders *kinds* of events at the
/// same chip, `minor` orders events of the same kind (e.g. by sender).
pub const fn priority(class: u32, minor: u32) -> u64 {
    ((class as u64) << 32) | minor as u64
}

/// Priority classes for the mesh flood driver, in same-time pop order:
/// reception completions (frame ends are exclusive) resolve before
/// timers, timers before frame starts at the same chip.
///
/// The timeline generator uses its own two classes ([`prio::ARRIVAL`],
/// [`prio::ATTEMPT`]) — it never shares a queue with the mesh driver,
/// so the two class spaces are independent.
pub mod prio {
    /// A reception completes (at the frame's exclusive end).
    pub const RECEPTION: u32 = 1;
    /// An ARQ timer fires.
    pub const ARQ_TIMER: u32 = 2;
    /// A new transmission starts.
    pub const TX_START: u32 = 3;
    /// A jammer actor emits (or re-evaluates) a burst.
    pub const JAM_BURST: u32 = 4;
    /// A scheduled node crash or restart takes effect.
    pub const NODE_FAULT: u32 = 5;

    /// Timeline generator: a packet arrival (processed before attempts
    /// at the same chip).
    pub const ARRIVAL: u32 = 0;
    /// Timeline generator: a CSMA transmit attempt.
    pub const ATTEMPT: u32 = 1;
}

/// The event vocabulary shared by the timeline generator and the mesh
/// flood driver. Payload-heavy state (frames, decode outcomes) stays in
/// driver-side stores; events carry only indices into them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimEvent {
    /// A new packet arrives at a sender's queue.
    TrafficArrival {
        /// Sender index.
        sender: usize,
    },
    /// A sender tries to transmit the head of its queue (CSMA attempt).
    TxAttempt {
        /// Sender index.
        sender: usize,
    },
    /// A transmission's first chip hits the air.
    TxStart {
        /// Index into the driver's transmission store.
        tx: usize,
    },
    /// A mesh receiver finishes capturing a frame; the driver queues it
    /// for the next batched decode.
    ReceptionComplete {
        /// Index into the driver's transmission store.
        tx: usize,
        /// Receiver node index.
        receiver: usize,
    },
    /// A PP-ARQ feedback timer fires at a receiver.
    ArqTimer {
        /// The waiting receiver node.
        node: usize,
        /// ARQ round this timer belongs to (stale timers are ignored).
        round: u8,
    },
    /// A self-scheduling jammer actor wakes up: it records the burst
    /// for its current slot and schedules the next wake-up.
    JamBurst {
        /// Jammer actor index (a single jammer today, but the event
        /// carries the index so a fleet needs no format change).
        jammer: usize,
    },
    /// A scheduled node fault takes effect: `up == false` crashes the
    /// node (volatile reception state is lost), `up == true` restarts
    /// it.
    NodeFault {
        /// The affected node.
        node: usize,
        /// Restart (`true`) or crash (`false`).
        up: bool,
    },
}

/// A deterministic discrete-event queue.
///
/// `schedule` assigns the `(time, priority, seq)` key (the queue owns
/// the `seq` counter); `pop` returns events in strictly increasing key
/// order. Implementations must be deterministic: the pop sequence is a
/// pure function of the schedule sequence.
pub trait EventQueue<E> {
    /// Schedules `event` at `time` with a same-time `priority`, returns
    /// the assigned key.
    fn schedule(&mut self, time: u64, priority: u64, event: E) -> EventKey;

    /// Removes and returns the minimum-key event.
    fn pop(&mut self) -> Option<(EventKey, E)>;

    /// Events currently scheduled.
    fn len(&self) -> usize;

    /// True when nothing is scheduled.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total events dispatched (popped) so far — the numerator of every
    /// events/sec figure.
    fn dispatched(&self) -> u64;
}

/// One heap entry: ordered by key alone, so the payload type needs no
/// `Ord`. Keys are unique (the `seq` counter), so the derived-equality
/// shortcut of comparing keys only is consistent.
struct Entry<E> {
    key: EventKey,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key.cmp(&other.key)
    }
}

/// The default [`EventQueue`]: a binary min-heap over [`EventKey`].
///
/// `std::collections::BinaryHeap` is not a stable heap, but stability is
/// irrelevant here: keys are unique by construction, so the pop order is
/// the total key order regardless of internal sift behavior.
pub struct BinaryHeapQueue<E> {
    heap: BinaryHeap<Reverse<Entry<E>>>,
    /// The next `seq` tie-break to assign.
    next_seq: u64,
    /// Events popped so far.
    dispatched: u64,
}

impl<E> Default for BinaryHeapQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> BinaryHeapQueue<E> {
    /// An empty queue.
    pub fn new() -> Self {
        BinaryHeapQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
            dispatched: 0,
        }
    }

    /// An empty queue with reserved capacity.
    pub fn with_capacity(n: usize) -> Self {
        BinaryHeapQueue {
            heap: BinaryHeap::with_capacity(n),
            next_seq: 0,
            dispatched: 0,
        }
    }
}

impl<E> EventQueue<E> for BinaryHeapQueue<E> {
    fn schedule(&mut self, time: u64, priority: u64, event: E) -> EventKey {
        let key = EventKey {
            time,
            priority,
            seq: self.next_seq,
        };
        self.next_seq += 1;
        self.heap.push(Reverse(Entry { key, event }));
        key
    }

    fn pop(&mut self) -> Option<(EventKey, E)> {
        let Reverse(e) = self.heap.pop()?;
        self.dispatched += 1;
        Some((e.key, e.event))
    }

    fn len(&self) -> usize {
        self.heap.len()
    }

    fn dispatched(&self) -> u64 {
        self.dispatched
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = BinaryHeapQueue::new();
        q.schedule(30, 0, "c");
        q.schedule(10, 0, "a");
        q.schedule(20, 0, "b");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, ["a", "b", "c"]);
        assert_eq!(q.dispatched(), 3);
    }

    #[test]
    fn priority_orders_same_time_events() {
        let mut q = BinaryHeapQueue::new();
        q.schedule(5, priority(prio::TX_START, 0), "start");
        q.schedule(5, priority(prio::NODE_FAULT, 0), "fault");
        q.schedule(5, priority(prio::JAM_BURST, 0), "jam");
        q.schedule(5, priority(prio::ARQ_TIMER, 0), "timer");
        q.schedule(5, priority(prio::RECEPTION, 0), "rx");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, ["rx", "timer", "start", "jam", "fault"]);
    }

    #[test]
    fn seq_breaks_remaining_ties_in_schedule_order() {
        let mut q = BinaryHeapQueue::new();
        for i in 0..100 {
            q.schedule(7, 3, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn keys_are_unique_and_monotone_under_interleaved_ops() {
        let mut q = BinaryHeapQueue::new();
        let mut popped: Vec<EventKey> = Vec::new();
        // Interleave pushes and pops; popped keys must be strictly
        // increasing whenever no later push undercuts them (here all
        // pushes are at non-decreasing times, so the full pop sequence
        // is strictly increasing).
        for t in 0..50u64 {
            q.schedule(t, priority(prio::TX_START, (t % 3) as u32), ());
            if t % 2 == 1 {
                popped.push(q.pop().unwrap().0);
            }
        }
        while let Some((k, ())) = q.pop() {
            popped.push(k);
        }
        for w in popped.windows(2) {
            assert!(w[0] < w[1], "pop order not strictly increasing: {w:?}");
        }
        assert_eq!(popped.len(), 50);
    }

    #[test]
    fn priority_packs_class_over_minor() {
        assert!(priority(1, u32::MAX) < priority(2, 0));
        assert_eq!(priority(0, 7), 7);
        assert_eq!(priority(prio::TX_START, 0) >> 32, prio::TX_START as u64);
    }
}
