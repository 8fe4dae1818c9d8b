//! The discrete-event core: timestamped events with a deterministic
//! total order (time, then insertion sequence), kept in a
//! **hierarchical timer wheel** — O(1) pushes, pops amortized
//! O(levels), FIFO within a tick by construction (see DESIGN.md §7).
//! The original `BinaryHeap` future-event list survives only as a
//! test oracle: unit tests pop both in lockstep, and run the whole
//! engine on either (`engine::Oracle`).
//!
//! The queue maintains per-container **generation stamps** so that
//! stale container events (the old `IdleTimeout` left behind by every
//! reuse and every layer downgrade) are dropped inside the queue instead
//! of surviving until the engine's handler filters them. Dropping is a
//! pure optimization: an event is discarded only when the stamp *proves*
//! the handler would ignore it, so a missed invalidation degrades to
//! the old filter-at-handler behaviour and never changes simulation
//! results.

#[cfg(test)]
use std::cmp::Ordering;
#[cfg(test)]
use std::collections::BinaryHeap;

use rainbowcake_core::time::Instant;
use rainbowcake_core::types::{ContainerId, FunctionId};

/// Everything that can happen in the simulated platform.
///
/// Kinds are plain value types (`Copy`), so the queue can hand whole
/// buffers of events around by swapping them — a buffer's capacity is
/// the only heap state involved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// An invocation of `function` arrives.
    Arrival {
        /// Invoked function.
        function: FunctionId,
    },
    /// A container finished initializing (cold start, partial warm
    /// start, or pre-warm). `epoch` guards against stale events after
    /// the container was repurposed.
    InitComplete {
        /// The container.
        container: ContainerId,
        /// Epoch the event was scheduled in.
        epoch: u64,
    },
    /// A running container finished executing its invocation.
    ExecComplete {
        /// The container.
        container: ContainerId,
    },
    /// An idle container's keep-alive TTL expired.
    IdleTimeout {
        /// The container.
        container: ContainerId,
        /// Epoch the TTL was armed in; stale epochs are ignored.
        epoch: u64,
    },
    /// A pre-warm timer scheduled by the policy fired (Alg. 1).
    PrewarmFire {
        /// Function to consider pre-warming.
        function: FunctionId,
    },
    /// A payload-free wake-up armed by the engine's lazy ladder
    /// settlement (DESIGN.md §12): it fires at the earliest scheduled
    /// downgrade boundary while invocations are queued, so the memory a
    /// downgrade releases admits them at the same instant the eager
    /// chain would have. Deliberately container-free — the container
    /// whose boundary armed it may be reused meanwhile, but *another*
    /// container's boundary may still need the wake, so the event must
    /// never be cancelled as stale. A wake with nothing to do is a
    /// harmless no-op.
    LadderWake,
}

impl EventKind {
    /// The `(container, epoch)` pair of an epoch-guarded container
    /// event, if this is one. Only these events participate in
    /// generation-stamp cancellation; `ExecComplete` carries no epoch
    /// and is never dropped.
    fn guard(&self) -> Option<(ContainerId, u64)> {
        match *self {
            EventKind::InitComplete { container, epoch }
            | EventKind::IdleTimeout { container, epoch } => Some((container, epoch)),
            _ => None,
        }
    }
}

/// A scheduled event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// When the event fires.
    pub time: Instant,
    /// Monotone sequence number breaking time ties deterministically.
    pub seq: u64,
    /// What happens.
    pub kind: EventKind,
}

#[cfg(test)]
impl Ord for Event {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest event pops
        // first, with the insertion sequence breaking ties.
        (other.time, other.seq).cmp(&(self.time, self.seq))
    }
}

#[cfg(test)]
impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Bits of the slot index at each wheel level.
const SLOT_BITS: u32 = 6;
/// Slots per wheel level — and the largest capacity, in events, of an
/// emptied slot buffer the wheel keeps for reuse (see
/// [`Wheel::recycle`]).
const SLOTS: usize = 1 << SLOT_BITS;
/// Wheel levels. 11 levels of 6 bits cover 66 bits — the entire `u64`
/// microsecond range — so no separate overflow list is needed.
const LEVELS: usize = 11;

/// One wheel level: 64 slots plus an occupancy bitmap so the lowest
/// non-empty slot is a single `trailing_zeros`, and each slot's earliest
/// timestamp so a bounded advance can tell without draining whether the
/// slot holds anything due.
#[derive(Debug)]
struct Level {
    occupied: u64,
    /// Earliest timestamp filed in each slot since it was last drained
    /// (`u64::MAX` when empty). Stale events count, so it is a lower
    /// bound on the slot's live events.
    earliest: [u64; SLOTS],
    slots: [Vec<Event>; SLOTS],
}

impl Level {
    fn new() -> Self {
        Level {
            occupied: 0,
            earliest: [u64::MAX; SLOTS],
            slots: std::array::from_fn(|_| Vec::new()),
        }
    }
}

/// A hierarchical timer wheel over absolute microsecond timestamps.
///
/// Invariants (see DESIGN.md §7):
/// * `current` holds exactly the events whose time equals `cursor`, in
///   ascending `seq` order;
/// * every event stored in a wheel slot has `time > cursor`, and lives
///   at the level of the *highest* 6-bit group in which its timestamp
///   differs from `cursor`, in the slot named by its own group value.
///
/// Pushes are O(1). A drain moves the cursor straight to the drained
/// slot's earliest event, so an event is filed once when pushed and once
/// more for each drain of a slot it shares with an earlier event —
/// a lone event goes from its slot to `current` in one step. Emptied
/// slot buffers are kept for reuse and a tick moves between buffers by
/// swap rather than by copy, so in steady state pushes and pops rarely
/// touch the allocator (DESIGN.md §7).
#[derive(Debug)]
struct Wheel {
    levels: Vec<Level>,
    /// Events firing at exactly `cursor`, in seq order.
    current: Vec<Event>,
    /// The current simulation time frontier in microseconds.
    cursor: u64,
    /// Events placed in a slot or in `current`: every push plus every
    /// re-filing by a drain.
    #[cfg(test)]
    filed: u64,
    /// Slots drained.
    #[cfg(test)]
    drained: u64,
}

impl Wheel {
    fn new() -> Self {
        Wheel {
            levels: (0..LEVELS).map(|_| Level::new()).collect(),
            current: Vec::new(),
            cursor: 0,
            #[cfg(test)]
            filed: 0,
            #[cfg(test)]
            drained: 0,
        }
    }

    fn push(&mut self, event: Event) {
        #[cfg(test)]
        {
            self.filed += 1;
        }
        let t = event.time.as_micros();
        debug_assert!(t >= self.cursor, "cannot schedule into the past");
        if t == self.cursor {
            // A handler can push a ladder-band event and then a
            // runtime-band one for the tick being dispatched; the ladder
            // event must still pop last, so insert by seq. For pushes
            // in seq order the partition point is `len()`, an append.
            let at = self.current.partition_point(|e| e.seq < event.seq);
            self.current.insert(at, event);
            return;
        }
        let level = (u64::BITS - 1 - (t ^ self.cursor).leading_zeros()) / SLOT_BITS;
        let slot = (t >> (SLOT_BITS * level)) as usize & (SLOTS - 1);
        let lvl = &mut self.levels[level as usize];
        lvl.slots[slot].push(event);
        lvl.occupied |= 1 << slot;
        lvl.earliest[slot] = lvl.earliest[slot].min(t);
    }

    #[cfg(test)]
    fn pop(&mut self, stamps: &[Stamp], len: &mut usize, dropped: &mut u64) -> Option<Event> {
        if self.advance_to_head(u64::MAX, stamps, len, dropped) {
            Some(self.current.remove(0))
        } else {
            None
        }
    }

    /// Advances `cursor` to the earliest pending timestamp if that is at
    /// or before `limit`, and returns whether it did; on `true`,
    /// `current` is non-empty and holds the head tick. On `false` the
    /// cursor is still at or before `limit` (it never moves past it), so
    /// events at `limit` or later may still be pushed.
    ///
    /// The lowest occupied slot of the lowest non-empty level holds the
    /// global head: every coarser event differs from the cursor in a
    /// higher 6-bit group. So when that slot's earliest timestamp is due,
    /// the cursor jumps straight to it: a cursor anywhere inside the
    /// slot's window agrees with the old one on every coarser group, so
    /// every other pending event keeps its level and slot, and only the
    /// drained slot's events are re-filed — those at the head into
    /// `current`, the rest into finer levels. A slot whose events all
    /// share one instant becomes the tick whole, by buffer swap.
    ///
    /// Events the stamp table already proves stale are dropped when they
    /// would be re-filed (decrementing `len` and counting into `dropped`);
    /// a reused container's abandoned minutes-out `IdleTimeout` would
    /// otherwise be re-filed only to be discarded at the head. Dropping
    /// earlier than a pop-time filter would is unobservable — stamps
    /// never un-stale an event — and the count keeps `len +
    /// stale_dropped` an exact backend-independent invariant (the
    /// wheel-vs-heap proptest). A tick swapped into `current` whole is
    /// stale-filtered once, as [`EventQueue::pop_tick_until`] takes it.
    fn advance_to_head(
        &mut self,
        limit: u64,
        stamps: &[Stamp],
        len: &mut usize,
        dropped: &mut u64,
    ) -> bool {
        loop {
            if !self.current.is_empty() {
                return true;
            }
            let Some(level) = (0..LEVELS).find(|&l| self.levels[l].occupied != 0) else {
                return false;
            };
            let lvl = &mut self.levels[level];
            let slot = lvl.occupied.trailing_zeros() as usize;
            let head = lvl.earliest[slot];
            if head > limit {
                return false;
            }
            lvl.occupied &= !(1 << slot);
            lvl.earliest[slot] = u64::MAX;
            let mut drained = std::mem::take(&mut lvl.slots[slot]);
            #[cfg(test)]
            {
                self.drained += 1;
            }
            self.cursor = head;
            // A level-0 slot holds a single exact timestamp; coarser
            // slots usually hold one event.
            if level == 0 || drained.iter().all(|e| e.time.as_micros() == head) {
                // The slot is the head tick: it becomes `current` whole,
                // FIFO by sequence number. The sort is load-bearing: a
                // ladder-band event pushed before a runtime event for the
                // same instant sits ahead of it in the slot. On the usual
                // already-sorted slot it is one linear pass. `current`
                // is empty, so its spare buffer goes back to the slot.
                drained.sort_unstable_by_key(|e| e.seq);
                #[cfg(test)]
                {
                    self.filed += drained.len() as u64;
                }
                std::mem::swap(&mut self.current, &mut drained);
            } else {
                for event in drained.drain(..) {
                    if stale(stamps, &event) {
                        *len -= 1;
                        *dropped += 1;
                    } else {
                        self.push(event);
                    }
                }
            }
            self.recycle(level, slot, drained);
        }
    }

    /// Hands an empty buffer back to the slot `level`/`slot` just
    /// drained, so the next events pushed there reuse its capacity
    /// instead of allocating. Only buffers of at most [`SLOTS`] events
    /// are kept: the coarse levels briefly hold thousands of
    /// minutes-out keep-alive timers, and keeping those buffers would
    /// pin their peak size for the rest of the run — a level-5 slot
    /// comes round again only every 19 hours (DESIGN.md §7).
    fn recycle(&mut self, level: usize, slot: usize, buffer: Vec<Event>) {
        debug_assert!(buffer.is_empty());
        let home = &mut self.levels[level].slots[slot];
        // The cursor sits inside this slot's window, and no push can
        // target the slot holding the cursor: an event in the window
        // differs from the cursor only in finer groups (or not at all),
        // so it lands at a lower level or in `current`.
        debug_assert!(home.is_empty(), "pushed into the slot being drained");
        if buffer.capacity() <= SLOTS {
            *home = buffer;
        }
    }
}

/// First sequence number of the runtime band: events the engine
/// schedules while running (timers, completions, prewarms) draw seqs
/// from here up. The engine never queues arrivals — it merges them from
/// the stream ahead of each tick's runtime events (`Engine::run_loop`) —
/// but the test-only up-front reference pushes the whole trace into the
/// low band below it, so within any tick its arrivals pop first, in
/// trace order, exactly where the stream merge dispatches them. 2^48
/// leaves both bands room for hundreds of trillions of events.
const RUNTIME_SEQ_BASE: u64 = 1 << 48;

/// First sequence number of the ladder band: terminal ladder timers,
/// the eager-chain oracle's rung timers and [`EventKind::LadderWake`]
/// wakes sort *after* every runtime event sharing their tick (and, on
/// the up-front reference, every queued arrival). A ladder boundary at
/// instant `b` therefore becomes visible strictly after all the tick-`b`
/// work that was scheduled before it — the same within-tick position the
/// eager downgrade chain gives its re-armed timers — so the lazy schedule
/// and the eager chain order identically by construction.
const LADDER_SEQ_BASE: u64 = 1 << 60;

/// A per-container-slot generation stamp: events scheduled for an older
/// slot generation (`seq`) or an older epoch of the current generation
/// are provably stale.
#[derive(Debug, Clone, Copy, Default)]
struct Stamp {
    /// Creation sequence of the container currently (or last) occupying
    /// the pool slot.
    seq: u32,
    /// Lowest epoch of that container still worth delivering; events
    /// below it would fail the handler's `c.epoch == epoch` check.
    min_epoch: u64,
}

/// Stamp-table staleness check — a free function so queue draining can
/// run while the wheel is mutably borrowed.
fn stale(stamps: &[Stamp], event: &Event) -> bool {
    let Some((container, epoch)) = event.kind.guard() else {
        return false;
    };
    match stamps.get(container.slot()) {
        Some(stamp) => {
            stamp.seq > container.seq() || (stamp.seq == container.seq() && epoch < stamp.min_epoch)
        }
        None => false,
    }
}

/// A deterministic future-event list on the timer wheel.
#[derive(Debug)]
pub struct EventQueue {
    wheel: Wheel,
    /// The `BinaryHeap` reference backend: when set, every operation
    /// goes to it instead of the wheel.
    #[cfg(test)]
    heap: Option<BinaryHeap<Event>>,
    /// Next runtime-band sequence number (starts at
    /// [`RUNTIME_SEQ_BASE`]).
    next_seq: u64,
    /// Next arrival-band sequence number (starts at 0).
    #[cfg(test)]
    next_arrival_seq: u64,
    /// Next ladder-band sequence number (starts at
    /// [`LADDER_SEQ_BASE`]).
    next_ladder_seq: u64,
    len: usize,
    /// Events discarded as provably stale instead of delivered. The
    /// wheel drops while re-filing, earlier than a pop-time filter
    /// would, so `len` alone depends on where stale events sit — but
    /// `len + stale_dropped` is exact.
    stale_dropped: u64,
    /// Generation stamps indexed by pool slot (`ContainerId::slot`).
    stamps: Vec<Stamp>,
}

impl Default for EventQueue {
    fn default() -> Self {
        EventQueue::new()
    }
}

impl EventQueue {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            wheel: Wheel::new(),
            #[cfg(test)]
            heap: None,
            next_seq: RUNTIME_SEQ_BASE,
            #[cfg(test)]
            next_arrival_seq: 0,
            next_ladder_seq: LADDER_SEQ_BASE,
            len: 0,
            stale_dropped: 0,
            stamps: Vec::new(),
        }
    }

    fn insert(&mut self, event: Event) {
        self.len += 1;
        #[cfg(test)]
        if let Some(heap) = &mut self.heap {
            heap.push(event);
            return;
        }
        self.wheel.push(event);
    }

    /// Schedules `kind` at `time` in the runtime sequence band.
    pub fn push(&mut self, time: Instant, kind: EventKind) {
        // Scheduling an epoch-guarded event proves the container has
        // reached that epoch, so anything older is already stale.
        if let Some((container, epoch)) = kind.guard() {
            self.note(container, epoch);
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        self.insert(Event { time, seq, kind });
    }

    /// Schedules `kind` at `time` in the high (ladder) sequence band:
    /// at any tick, ladder events sort after every arrival and every
    /// runtime event regardless of when they were pushed — see
    /// [`LADDER_SEQ_BASE`]. Used for ladder terminal timers and
    /// [`EventKind::LadderWake`].
    pub fn push_ladder(&mut self, time: Instant, kind: EventKind) {
        if let Some((container, epoch)) = kind.guard() {
            self.note(container, epoch);
        }
        let seq = self.next_ladder_seq;
        self.next_ladder_seq += 1;
        self.insert(Event { time, seq, kind });
    }

    /// Records that `container`'s epoch is at least `epoch`: pending
    /// epoch-guarded events below that epoch (or for an older occupant
    /// of the same pool slot) will be dropped inside the queue instead
    /// of reaching the engine.
    ///
    /// Calling this is never required for correctness — the engine's
    /// handlers re-check epochs against live containers — it only lets
    /// the queue discard provably dead timers early.
    pub fn note(&mut self, container: ContainerId, epoch: u64) {
        let slot = container.slot();
        if slot >= self.stamps.len() {
            self.stamps.resize(slot + 1, Stamp::default());
        }
        let stamp = &mut self.stamps[slot];
        let seq = container.seq();
        if seq > stamp.seq {
            *stamp = Stamp {
                seq,
                min_epoch: epoch,
            };
        } else if seq == stamp.seq && epoch > stamp.min_epoch {
            stamp.min_epoch = epoch;
        }
    }

    /// Marks `container` destroyed: every pending epoch-guarded event
    /// for it is now dead.
    pub fn retire(&mut self, container: ContainerId) {
        self.note(container, u64::MAX);
    }

    /// Drains every live event at the earliest pending timestamp into
    /// `out` (cleared first), in FIFO (`seq`) order, and returns that
    /// timestamp — if it is at or before `limit`. Otherwise it returns
    /// `None`, leaves `out` empty and keeps the queue's time frontier at
    /// or before `limit`, so events at `limit` or later may still be
    /// pushed; that is how the engine merges the next stream arrival,
    /// at `limit`, with the queue. `limit` must not precede the last
    /// returned tick. `out` is a caller-owned scratch buffer: the tick
    /// is swapped into it whole, and its old buffer becomes the wheel's
    /// next spare, so the same few buffers circulate across ticks.
    ///
    /// Popping a whole tick is observably identical to popping the same
    /// events one at a time: the batch is exactly the pending events at
    /// the tick in total (time, seq) order, and anything a handler
    /// pushes *at* the tick gets a higher `seq` than every batched
    /// event, so it lands in the next batch just as it would land after
    /// the in-flight pops. An event that becomes stale mid-batch (its
    /// container was reused by an earlier event in the same tick) is
    /// still delivered, exactly as per-event popping would deliver it —
    /// the engine's epoch re-checks make it a no-op either way; the
    /// stamp filter here only drops events already stale at drain time.
    pub fn pop_tick_until(&mut self, limit: Instant, out: &mut Vec<Event>) -> Option<Instant> {
        out.clear();
        #[cfg(test)]
        if self.heap.is_some() {
            return self.heap_pop_tick_until(limit, out);
        }
        let EventQueue {
            wheel,
            len,
            stale_dropped,
            stamps,
            ..
        } = self;
        debug_assert!(
            wheel.cursor <= limit.as_micros(),
            "limit before the last tick"
        );
        while out.is_empty() {
            if !wheel.advance_to_head(limit.as_micros(), stamps, len, stale_dropped) {
                return None;
            }
            // Wheel invariant: `current` holds exactly the events at
            // the head tick, seq-sorted. Swap them out whole; `out`'s
            // cleared buffer becomes the empty `current`.
            std::mem::swap(out, &mut wheel.current);
            *len -= out.len();
            out.retain(|e| {
                let keep = !stale(stamps, e);
                *stale_dropped += u64::from(!keep);
                keep
            });
        }
        Some(out[0].time)
    }

    /// Number of pending events. Stale events count until the queue
    /// discards them, which the wheel may do while re-filing — earlier
    /// than a pop-time filter would.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Events discarded as provably stale rather than delivered.
    /// `len() + stale_dropped()` is exact no matter when the drops
    /// happen — the conservation law the wheel-vs-heap proptest checks.
    pub fn stale_dropped(&self) -> u64 {
        self.stale_dropped
    }
}

#[cfg(test)]
impl Wheel {
    /// The capacity, in events, of every slot buffer on every level.
    fn slot_capacities(&self) -> impl Iterator<Item = usize> + '_ {
        self.levels
            .iter()
            .flat_map(|l| l.slots.iter().map(Vec::capacity))
    }
}

/// The reference behaviours the unit tests pin the wheel against: the
/// `BinaryHeap` backend (filtering stale events only at its head) and
/// one-event-at-a-time popping.
#[cfg(test)]
impl EventQueue {
    /// An empty queue on the `BinaryHeap` reference backend.
    pub(crate) fn reference_heap() -> Self {
        EventQueue {
            heap: Some(BinaryHeap::new()),
            ..EventQueue::new()
        }
    }

    /// Schedules an invocation arrival of `function` at `time` in the
    /// low (arrival) sequence band: at any tick, arrivals sort before
    /// every runtime event regardless of when they were pushed — see
    /// [`RUNTIME_SEQ_BASE`]. Arrivals must be pushed in trace order
    /// (non-decreasing time). Only the up-front reference queues
    /// arrivals; the engine merges them from the stream.
    pub(crate) fn push_arrival(&mut self, time: Instant, function: FunctionId) {
        let seq = self.next_arrival_seq;
        self.next_arrival_seq += 1;
        self.insert(Event {
            time,
            seq,
            kind: EventKind::Arrival { function },
        });
    }

    /// [`Self::pop_tick_until`] with no bound: drains the earliest tick.
    pub(crate) fn pop_tick(&mut self, out: &mut Vec<Event>) -> Option<Instant> {
        self.pop_tick_until(Instant::MAX, out)
    }

    /// Pops the earliest live event (FIFO among equal timestamps) — the
    /// per-event reference for [`Self::pop_tick`]. Events proven stale
    /// by the generation stamps are discarded silently.
    pub(crate) fn pop(&mut self) -> Option<Event> {
        let EventQueue {
            wheel,
            heap,
            len,
            stale_dropped,
            stamps,
            ..
        } = self;
        loop {
            let event = match heap {
                Some(h) => h.pop(),
                None => wheel.pop(stamps, len, stale_dropped),
            }?;
            *len -= 1;
            if stale(stamps, &event) {
                *stale_dropped += 1;
                continue;
            }
            return Some(event);
        }
    }

    fn heap_pop_tick_until(&mut self, limit: Instant, out: &mut Vec<Event>) -> Option<Instant> {
        let EventQueue {
            heap,
            len,
            stale_dropped,
            stamps,
            ..
        } = self;
        let heap = heap.as_mut().expect("heap backend");
        let mut tick = None;
        while let Some(&event) = heap.peek() {
            if event.time > limit || tick.is_some_and(|t| event.time != t) {
                break;
            }
            heap.pop();
            *len -= 1;
            if stale(stamps, &event) {
                *stale_dropped += 1;
            } else {
                tick = Some(event.time);
                out.push(event);
            }
        }
        tick
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    type NewQueue = fn() -> EventQueue;

    /// Both backends, labelled: the production wheel and the heap
    /// reference.
    const BACKENDS: [(&str, NewQueue); 2] = [
        ("wheel", EventQueue::new),
        ("heap", EventQueue::reference_heap),
    ];

    fn t(us: u64) -> Instant {
        Instant::from_micros(us)
    }

    fn prewarm(i: u32) -> EventKind {
        EventKind::PrewarmFire {
            function: FunctionId::new(i),
        }
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(t(30), prewarm(3));
        q.push(t(10), prewarm(1));
        q.push(t(20), prewarm(2));
        let order: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|e| e.time.as_micros())
            .collect();
        assert_eq!(order, vec![10, 20, 30]);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        for i in 0..5u32 {
            q.push(t(100), prewarm(i));
        }
        let order: Vec<u32> = std::iter::from_fn(|| q.pop())
            .map(|e| match e.kind {
                EventKind::PrewarmFire { function } => function.index() as u32,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(order, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn interleaved_push_pop_stays_ordered() {
        let mut q = EventQueue::new();
        q.push(t(50), prewarm(0));
        q.push(t(10), prewarm(1));
        let first = q.pop().unwrap();
        assert_eq!(first.time, t(10));
        q.push(t(20), prewarm(2));
        assert_eq!(q.pop().unwrap().time, t(20));
        assert_eq!(q.pop().unwrap().time, t(50));
        assert!(q.is_empty());
    }

    #[test]
    fn len_tracks_contents() {
        let mut q = EventQueue::new();
        assert_eq!(q.len(), 0);
        q.push(t(1), prewarm(0));
        assert_eq!(q.len(), 1);
        q.pop();
        assert!(q.is_empty());
    }

    #[test]
    fn wheel_handles_widely_spread_timestamps() {
        // Timestamps spanning every wheel level, pushed in a scrambled
        // order, must come back sorted.
        let mut times: Vec<u64> = (0..u64::BITS as u64)
            .map(|b| (1u64 << b).wrapping_add(b * 37))
            .collect();
        times.push(0);
        times.push(u64::MAX);
        let scrambled: Vec<u64> = times
            .iter()
            .enumerate()
            .map(|(i, &t)| (i, t))
            .collect::<Vec<_>>()
            .chunks(3)
            .flat_map(|c| c.iter().rev().map(|&(_, t)| t))
            .collect();
        let mut q = EventQueue::new();
        for &us in &scrambled {
            q.push(t(us), prewarm(0));
        }
        let mut sorted = times.clone();
        sorted.sort_unstable();
        let popped: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|e| e.time.as_micros())
            .collect();
        assert_eq!(popped, sorted);
    }

    #[test]
    fn fifo_survives_cascading() {
        // Events at the same far-future instant wait in a coarse slot
        // and reach `current` by a drain; FIFO order must still hold,
        // including against events pushed after the cursor moved.
        let mut q = EventQueue::new();
        let far = 1_000_000_007;
        for i in 0..4u32 {
            q.push(t(far), prewarm(i));
        }
        q.push(t(5), prewarm(99));
        assert_eq!(q.pop().unwrap().time, t(5));
        // Now push more events at `far` (cursor has advanced to 5).
        for i in 4..8u32 {
            q.push(t(far), prewarm(i));
        }
        let order: Vec<u32> = std::iter::from_fn(|| q.pop())
            .map(|e| match e.kind {
                EventKind::PrewarmFire { function } => function.index() as u32,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(order, vec![0, 1, 2, 3, 4, 5, 6, 7]);
    }

    #[test]
    fn backends_pop_identically() {
        let times = [7u64, 7, 0, 3, 100_000, 64, 65, 63, 4096, 7, 1 << 40];
        let mut wheel = EventQueue::new();
        let mut heap = EventQueue::reference_heap();
        for (i, &us) in times.iter().enumerate() {
            wheel.push(t(us), prewarm(i as u32));
            heap.push(t(us), prewarm(i as u32));
        }
        loop {
            let (a, b) = (wheel.pop(), heap.pop());
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }

    #[test]
    fn stale_epoch_events_are_dropped_in_pop() {
        let c = ContainerId::new(4);
        let mut q = EventQueue::new();
        q.push(
            t(10),
            EventKind::IdleTimeout {
                container: c,
                epoch: 1,
            },
        );
        assert_eq!(q.len(), 1);
        // The container moved on to epoch 3: the pending timeout is dead.
        q.note(c, 3);
        assert!(q.pop().is_none());
        assert!(q.is_empty());

        // An event at the current epoch survives.
        q.push(
            t(20),
            EventKind::IdleTimeout {
                container: c,
                epoch: 3,
            },
        );
        assert!(q.pop().is_some());
    }

    #[test]
    fn retired_and_reused_slots_drop_old_generations() {
        let old = ContainerId::from_parts(1, 9);
        let new = ContainerId::from_parts(2, 9); // same pool slot, later container
        let mut q = EventQueue::new();
        q.push(
            t(10),
            EventKind::IdleTimeout {
                container: old,
                epoch: 0,
            },
        );
        q.retire(old);
        assert!(q.pop().is_none());

        q.push(
            t(20),
            EventKind::IdleTimeout {
                container: old,
                epoch: 9,
            },
        );
        // A new container occupies the slot: the old generation's event
        // is dead, the new one's is live.
        q.push(
            t(30),
            EventKind::InitComplete {
                container: new,
                epoch: 0,
            },
        );
        let popped = q.pop().unwrap();
        assert_eq!(popped.time, t(30));
        assert!(q.pop().is_none());
    }

    #[test]
    fn pop_tick_drains_exactly_one_timestamp() {
        for (kind, new_queue) in BACKENDS {
            let mut q = new_queue();
            q.push(t(10), prewarm(0));
            q.push(t(20), prewarm(1));
            q.push(t(10), prewarm(2));
            q.push(t(10), prewarm(3));
            let mut batch = Vec::new();
            assert_eq!(q.pop_tick(&mut batch), Some(t(10)), "{kind}");
            let fns: Vec<u32> = batch
                .iter()
                .map(|e| match e.kind {
                    EventKind::PrewarmFire { function } => function.index() as u32,
                    _ => unreachable!(),
                })
                .collect();
            assert_eq!(fns, vec![0, 2, 3]);
            assert_eq!(q.len(), 1);
            assert_eq!(q.pop_tick(&mut batch), Some(t(20)));
            assert_eq!(batch.len(), 1);
            assert_eq!(q.pop_tick(&mut batch), None);
            assert!(batch.is_empty());
        }
    }

    #[test]
    fn pushes_at_current_tick_land_in_next_batch() {
        // A handler processing tick T may schedule new work at T; it
        // must surface in the *next* batch, after everything already
        // drained — the same order per-event popping would produce.
        for (kind, new_queue) in BACKENDS {
            let mut q = new_queue();
            q.push(t(10), prewarm(0));
            let mut batch = Vec::new();
            assert_eq!(q.pop_tick(&mut batch), Some(t(10)), "{kind}");
            assert_eq!(batch.len(), 1);
            q.push(t(10), prewarm(1));
            q.push(t(10), prewarm(2));
            assert_eq!(q.pop_tick(&mut batch), Some(t(10)));
            assert_eq!(batch.len(), 2);
        }
    }

    #[test]
    fn pop_tick_drops_stale_events() {
        let c = ContainerId::from_parts(1, 3);
        for (kind, new_queue) in BACKENDS {
            let mut q = new_queue();
            q.push(
                t(10),
                EventKind::IdleTimeout {
                    container: c,
                    epoch: 0,
                },
            );
            q.push(t(10), prewarm(7));
            q.note(c, 5);
            let mut batch = Vec::new();
            assert_eq!(q.pop_tick(&mut batch), Some(t(10)), "{kind}");
            assert_eq!(batch.len(), 1);
            assert!(matches!(
                batch[0].kind,
                EventKind::PrewarmFire { function } if function.index() == 7
            ));
            assert!(q.is_empty());
        }
    }

    #[test]
    fn pop_tick_matches_per_event_pops() {
        let times = [7u64, 7, 0, 3, 100_000, 64, 65, 63, 4096, 7, 1 << 40, 0];
        let mut batched = EventQueue::new();
        let mut single = EventQueue::new();
        for (i, &us) in times.iter().enumerate() {
            batched.push(t(us), prewarm(i as u32));
            single.push(t(us), prewarm(i as u32));
        }
        let mut batch = Vec::new();
        let mut from_batches = Vec::new();
        while batched.pop_tick(&mut batch).is_some() {
            from_batches.extend(batch.iter().copied());
        }
        let from_pops: Vec<Event> = std::iter::from_fn(|| single.pop()).collect();
        assert_eq!(from_batches, from_pops);
    }

    #[test]
    fn exec_complete_is_never_dropped() {
        let c = ContainerId::new(2);
        let mut q = EventQueue::new();
        q.push(t(10), EventKind::ExecComplete { container: c });
        q.retire(c);
        assert!(q.pop().is_some());
    }

    #[test]
    fn arrivals_sort_before_runtime_events_at_a_tick() {
        // Whether an arrival is pushed before or after the runtime
        // events sharing its tick, it must pop first — the low seq
        // band guarantees it on both backends.
        for (kind, new_queue) in BACKENDS {
            let mut q = new_queue();
            q.push(t(10), prewarm(1));
            q.push(t(10), prewarm(2));
            q.push_arrival(t(10), FunctionId::new(7));
            let order: Vec<EventKind> = std::iter::from_fn(|| q.pop()).map(|e| e.kind).collect();
            assert_eq!(
                order,
                vec![
                    EventKind::Arrival {
                        function: FunctionId::new(7)
                    },
                    prewarm(1),
                    prewarm(2),
                ],
                "{kind}"
            );
        }
    }

    #[test]
    fn lazy_arrival_feed_matches_up_front_pushing() {
        // The engine's stream merge: bound each drain by the next unfed
        // arrival, dispatch the earlier of the two, and run a tick's
        // arrivals ahead of its drained events. The dispatch order must
        // be identical to pushing every arrival up front, including
        // for an event a "handler" pushes at the tick being dispatched.
        let arrivals = [5u64, 10, 10, 20, 40];
        let echo = |q: &mut EventQueue, tick: Instant, batch: &[Event]| {
            if batch.iter().any(|e| e.kind == prewarm(90)) {
                q.push(tick, prewarm(93));
            }
        };
        for (kind, new_queue) in BACKENDS {
            let mut up_front = new_queue();
            let mut merged = new_queue();
            for (i, &us) in arrivals.iter().enumerate() {
                up_front.push_arrival(t(us), FunctionId::new(i as u32));
            }
            for q in [&mut up_front, &mut merged] {
                q.push(t(7), prewarm(89));
                q.push(t(10), prewarm(90));
                q.push(t(20), prewarm(91));
                q.push(t(1_000_000), prewarm(92));
            }
            let mut batch = Vec::new();
            let mut expected = Vec::new();
            while let Some(tick) = up_front.pop_tick(&mut batch) {
                expected.extend(batch.iter().map(|e| (tick, e.kind)));
                echo(&mut up_front, tick, &batch);
            }
            let mut merged_order = Vec::new();
            let mut stream = arrivals.iter().enumerate().peekable();
            loop {
                let next = stream.peek().map(|&(_, &us)| t(us));
                let head = merged.pop_tick_until(next.unwrap_or(Instant::MAX), &mut batch);
                let Some(tick) = head.or(next) else { break };
                while let Some((i, _)) = stream.next_if(|&(_, &us)| t(us) == tick) {
                    let function = FunctionId::new(i as u32);
                    merged_order.push((tick, EventKind::Arrival { function }));
                }
                merged_order.extend(batch.iter().map(|e| (tick, e.kind)));
                echo(&mut merged, tick, &batch);
            }
            assert_eq!(merged_order, expected, "{kind}");
        }
    }

    #[test]
    fn ladder_band_sorts_last_at_a_tick() {
        // A ladder event at a tick pops after every arrival and every
        // runtime event at that tick, even when pushed first.
        for (kind, new_queue) in BACKENDS {
            let mut q = new_queue();
            q.push_ladder(t(10), EventKind::LadderWake);
            q.push(t(10), prewarm(1));
            q.push_arrival(t(10), FunctionId::new(7));
            let order: Vec<EventKind> = std::iter::from_fn(|| q.pop()).map(|e| e.kind).collect();
            assert_eq!(
                order,
                vec![
                    EventKind::Arrival {
                        function: FunctionId::new(7)
                    },
                    prewarm(1),
                    EventKind::LadderWake,
                ],
                "{kind}"
            );
        }
    }

    #[test]
    fn ladder_wake_is_never_stale() {
        let c = ContainerId::new(3);
        let mut q = EventQueue::new();
        q.push_ladder(t(10), EventKind::LadderWake);
        // Retiring containers never touches a payload-free wake.
        q.retire(c);
        assert!(matches!(
            q.pop().map(|e| e.kind),
            Some(EventKind::LadderWake)
        ));
    }

    #[test]
    fn stale_drop_accounting_is_exact_across_backends() {
        // The wheel drops stale events while re-filing, the heap at the
        // head, so `len` alone diverges — but delivered events plus
        // `len + stale_dropped` is conserved identically.
        let c = ContainerId::from_parts(1, 2);
        let mut wheel = EventQueue::new();
        let mut heap = EventQueue::reference_heap();
        for q in [&mut wheel, &mut heap] {
            for i in 0..4u64 {
                q.push(
                    t(1_000_000 + i),
                    EventKind::IdleTimeout {
                        container: c,
                        epoch: i,
                    },
                );
            }
            q.push(t(5), prewarm(0));
            q.push(t(2_000_000), prewarm(1));
            // Invalidate epochs < 3; three of the four timeouts die.
            q.note(c, 3);
        }
        loop {
            let (a, b) = (wheel.pop(), heap.pop());
            assert_eq!(a, b);
            assert_eq!(
                wheel.len() as u64 + wheel.stale_dropped(),
                heap.len() as u64 + heap.stale_dropped(),
            );
            if a.is_none() {
                break;
            }
        }
        assert_eq!(wheel.stale_dropped(), 3);
        assert_eq!(heap.stale_dropped(), 3);
    }

    #[test]
    fn pop_tick_until_reports_head_and_drops_stale_heads() {
        let c = ContainerId::new(4);
        for (kind, new_queue) in BACKENDS {
            let mut q = new_queue();
            let mut batch = Vec::new();
            assert_eq!(q.pop_tick_until(t(100), &mut batch), None, "{kind}");
            q.push(
                t(10),
                EventKind::IdleTimeout {
                    container: c,
                    epoch: 0,
                },
            );
            q.push(t(30), prewarm(1));
            // Nothing is due by the bound: no drain, nothing dropped.
            assert_eq!(q.pop_tick_until(t(9), &mut batch), None, "{kind}");
            assert!(batch.is_empty());
            assert_eq!(q.len(), 2);
            // Invalidate the head: a bounded pop discards it for good and
            // stops short of the live event past the bound.
            q.note(c, 5);
            assert_eq!(q.pop_tick_until(t(20), &mut batch), None, "{kind}");
            assert_eq!(q.len(), 1);
            assert_eq!(q.pop_tick_until(t(30), &mut batch), Some(t(30)), "{kind}");
            assert_eq!(batch.len(), 1);
            assert!(q.is_empty());
        }
    }

    #[test]
    fn a_lone_event_is_filed_twice_and_drained_once() {
        // One event 1 s past the cursor waits in a level-3 slot, and the
        // drain jumps the cursor straight to it. A level-by-level cascade
        // files it 4 times (levels 3, 2 and 1, then `current`) over 3
        // drains.
        let mut q = EventQueue::new();
        q.push(t(1_000_000), prewarm(0));
        assert_eq!((q.wheel.filed, q.wheel.drained), (1, 0));
        let mut batch = Vec::new();
        assert_eq!(q.pop_tick(&mut batch), Some(t(1_000_000)));
        assert_eq!(batch.len(), 1);
        assert_eq!((q.wheel.filed, q.wheel.drained), (2, 1));
    }

    #[test]
    fn drained_slot_buffers_above_the_cap_are_freed() {
        // A burst of 10-minute keep-alive timers at one instant passes
        // through one slot per coarse level on its way down. Those
        // buffers grow to the whole burst; none may outlive the drain.
        let mut q = EventQueue::new();
        let far = 600_000_000;
        for i in 0..10_000u32 {
            q.push(t(far), prewarm(i));
        }
        let mut batch = Vec::new();
        assert_eq!(q.pop_tick(&mut batch), Some(t(far)));
        assert_eq!(batch.len(), 10_000);
        let largest = q.wheel.slot_capacities().max().unwrap();
        assert!(largest <= SLOTS, "a slot kept a {largest}-event buffer");
    }

    #[test]
    fn level0_slot_buffers_are_reused_across_ticks() {
        // Every cycle a burst lands at offsets 5 and 6 of the next 64 µs
        // window. Both halves wait in one level-1 slot; its drain jumps
        // the cursor to offset 5, so the offset-6 half is re-filed into
        // level-0 slot 6 and drains on the next tick. Once the few
        // buffers the wheel circulates have grown to a half-burst, slot
        // 6 comes out of every drain with that capacity intact, so
        // refilling it allocates nothing.
        const HALF: u32 = 8;
        const WARM_UP: u64 = 3;
        let mut q = EventQueue::new();
        let mut batch = Vec::new();
        let mut kept = None;
        for cycle in 1..=20u64 {
            let at = cycle * SLOTS as u64 + 5;
            for offset in 0..2 {
                for i in 0..HALF {
                    q.push(t(at + offset), prewarm(i));
                }
            }
            for offset in 0..2 {
                assert_eq!(q.pop_tick(&mut batch), Some(t(at + offset)));
                assert_eq!(batch.len(), HALF as usize);
            }
            let capacity = q.wheel.levels[0].slots[6].capacity();
            if cycle >= WARM_UP {
                assert!(capacity >= HALF as usize, "cycle {cycle}: {capacity}");
                assert_eq!(*kept.get_or_insert(capacity), capacity, "cycle {cycle}");
            }
        }
    }

    proptest! {
        /// The timer-wheel backend must pop the exact event sequence of the
        /// reference `BinaryHeap` backend under arbitrary interleavings of
        /// schedules, generation-stamp invalidations (note/retire), and
        /// pops: same events, same times, same tie-breaking, same stale
        /// drops.
        #[test]
        fn wheel_matches_heap_reference(
            ops in prop::collection::vec((0u8..7, any::<u64>(), any::<u64>(), any::<u64>()), 1..200),
        ) {
            let mut wheel = EventQueue::new();
            let mut heap = EventQueue::reference_heap();
            // The wheel cannot schedule into the past. Its time frontier is
            // the last popped event — including events dropped as stale
            // inside `pop`, so after a `pop` that returns `None` the
            // frontier may sit at the latest timestamp ever scheduled —
            // or, after a bounded pop that returns `None`, the bound.
            let mut now = 0u64;
            let mut high = 0u64;
            let ctr = |a: u64, b: u64| ContainerId::from_parts((a % 4) as u32, (b % 8) as u32);
            for (op, a, b, c) in ops {
                match op {
                    // Schedule one event of every kind, at spreads from
                    // "this very microsecond" to minutes out (crossing
                    // several wheel levels).
                    0..=2 => {
                        let time = Instant::from_micros(now + a % 100_000_000);
                        high = high.max(time.as_micros());
                        let kind = match b % 5 {
                            0 => EventKind::Arrival { function: FunctionId::new((c % 6) as u32) },
                            1 => EventKind::InitComplete { container: ctr(b, c), epoch: a % 4 },
                            2 => EventKind::ExecComplete { container: ctr(b, c) },
                            3 => EventKind::IdleTimeout { container: ctr(b, c), epoch: a % 4 },
                            _ => EventKind::PrewarmFire { function: FunctionId::new((c % 6) as u32) },
                        };
                        wheel.push(time, kind);
                        heap.push(time, kind);
                    }
                    // Invalidate stale epochs / whole containers.
                    3 => {
                        wheel.note(ctr(a, b), c % 5);
                        heap.note(ctr(a, b), c % 5);
                    }
                    4 => {
                        wheel.retire(ctr(a, b));
                        heap.retire(ctr(a, b));
                    }
                    // Pop one tick no later than a bound from both and
                    // compare exactly. Finding nothing due must leave the
                    // cursor at or before the bound, so an event at the
                    // bound itself can still be scheduled.
                    5 => {
                        let limit = now + a % 100_000_000;
                        let (mut x, mut y) = (Vec::new(), Vec::new());
                        let tick = wheel.pop_tick_until(Instant::from_micros(limit), &mut x);
                        prop_assert_eq!(tick, heap.pop_tick_until(Instant::from_micros(limit), &mut y));
                        prop_assert_eq!(&x, &y);
                        match tick {
                            Some(tick) => now = tick.as_micros(),
                            None => {
                                prop_assert!(wheel.wheel.cursor <= limit);
                                let kind = EventKind::PrewarmFire { function: FunctionId::new((c % 6) as u32) };
                                wheel.push(Instant::from_micros(limit), kind);
                                heap.push(Instant::from_micros(limit), kind);
                                now = limit;
                                high = high.max(limit);
                            }
                        }
                    }
                    // Pop a few from both and compare exactly.
                    _ => {
                        for _ in 0..=(b % 3) {
                            let (x, y) = (wheel.pop(), heap.pop());
                            prop_assert_eq!(&x, &y);
                            match x {
                                Some(e) => now = e.time.as_micros(),
                                None => {
                                    now = high;
                                    break;
                                }
                            }
                        }
                    }
                }
                // The wheel may discard stale events while re-filing,
                // before the heap's pop-time filter would; its len can only run
                // at or below the heap's. The slack is exactly the stale
                // drops each backend has already counted: `len +
                // stale_dropped` is a conserved quantity across backends.
                prop_assert!(wheel.len() <= heap.len());
                prop_assert_eq!(
                    wheel.len() as u64 + wheel.stale_dropped(),
                    heap.len() as u64 + heap.stale_dropped(),
                    "live + stale-dropped must be conserved across backends"
                );
            }
            // Drain both to the end: the full remaining sequences agree.
            loop {
                let (x, y) = (wheel.pop(), heap.pop());
                prop_assert_eq!(&x, &y);
                if x.is_none() {
                    break;
                }
            }
            prop_assert!(wheel.is_empty() && heap.is_empty());
            prop_assert_eq!(wheel.stale_dropped(), heap.stale_dropped());
        }

        /// `pop_tick` must drain each timestamp's events in the exact order
        /// per-event `pop` yields them, on both backends, under arbitrary
        /// interleavings of the three sequence bands (arrival, runtime,
        /// ladder) at shared ticks.
        #[test]
        fn pop_tick_same_tick_order_matches_per_event_pops(
            ops in prop::collection::vec((0u8..4, 0u64..40, any::<u64>()), 1..120),
        ) {
            let mut queues: Vec<EventQueue> = vec![
                EventQueue::new(),
                EventQueue::reference_heap(),
                EventQueue::new(),
                EventQueue::reference_heap(),
            ];
            for (op, t, x) in ops {
                // Coarse timestamps force heavy tick sharing.
                let time = Instant::from_micros(t * 1_000);
                for q in &mut queues {
                    match op {
                        0 => q.push_arrival(time, FunctionId::new((x % 5) as u32)),
                        1 => q.push(time, EventKind::ExecComplete {
                            container: ContainerId::from_parts((x % 3) as u32, 0),
                        }),
                        2 => q.push(time, EventKind::IdleTimeout {
                            container: ContainerId::from_parts((x % 3) as u32, 0),
                            epoch: 0,
                        }),
                        _ => q.push_ladder(time, EventKind::LadderWake),
                    }
                }
            }
            let (batch_queues, pop_queues) = queues.split_at_mut(2);
            for (bq, pq) in batch_queues.iter_mut().zip(pop_queues.iter_mut()) {
                let mut batch = Vec::new();
                while let Some(tick) = bq.pop_tick(&mut batch) {
                    for event in &batch {
                        prop_assert_eq!(event.time, tick);
                        let popped = pq.pop().expect("reference queue has the event");
                        prop_assert_eq!(&popped, event);
                    }
                }
                prop_assert!(pq.pop().is_none());
            }
        }
    }
}
