//! Cancellable, deterministic event queue.
//!
//! [`EventQueue`] is a priority queue of `(SimTime, E)` pairs. Two events
//! scheduled for the same instant are delivered in the order they were
//! scheduled (FIFO tie-breaking via a monotonically increasing sequence
//! number), which makes runs bit-for-bit reproducible.
//!
//! Every scheduled event gets an [`EventKey`]. Cancelling a key tombstones
//! the entry: the heap node stays in place but is silently skipped by
//! [`EventQueue::pop`]. This is the standard lazy-deletion trick and keeps
//! both `schedule` and `cancel` at `O(log n)` / `O(1)`.

use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

use crate::time::{SimDuration, SimTime};

/// Multiplicative hasher for the tombstone set. Its keys are unique,
/// roughly sequential `u64` sequence numbers, so Fibonacci hashing spreads
/// them perfectly well and costs one multiply instead of a SipHash round.
#[derive(Debug, Default)]
struct SeqHasher(u64);

impl Hasher for SeqHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _bytes: &[u8]) {
        unreachable!("tombstone keys hash via write_u64");
    }

    fn write_u64(&mut self, value: u64) {
        self.0 = value.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
}

type SeqSet = HashSet<u64, BuildHasherDefault<SeqHasher>>;

/// Identifier of a scheduled event, used for cancellation.
///
/// Keys are unique over the lifetime of a queue and never reused.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EventKey(u64);

impl EventKey {
    /// The key's raw sequence number, for snapshot serialization.
    pub fn as_raw(self) -> u64 {
        self.0
    }

    /// Rebuilds a key from [`as_raw`](Self::as_raw) output. Only keys
    /// exported from the same queue lineage are meaningful; a fabricated
    /// key at worst cancels the wrong entry, never corrupts the queue.
    pub fn from_raw(raw: u64) -> Self {
        EventKey(raw)
    }
}

#[derive(Debug)]
struct Entry<E> {
    time: SimTime,
    seq: u64,
    event: E,
}

// Order entries so the BinaryHeap (a max-heap) pops the earliest time first,
// breaking ties by insertion order.
impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: earliest (time, seq) is the "greatest" heap element.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A deterministic future-event list.
///
/// # Examples
///
/// ```
/// use manet_sim_engine::{EventQueue, SimTime};
///
/// let mut q = EventQueue::new();
/// q.schedule(SimTime::from_millis(2), "late");
/// let early = q.schedule(SimTime::from_millis(1), "early");
/// q.cancel(early);
/// assert_eq!(q.pop(), Some((SimTime::from_millis(2), "late")));
/// assert!(q.pop().is_none());
/// ```
#[derive(Debug)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    cancelled: SeqSet,
    next_seq: u64,
    now: SimTime,
    popped: u64,
    scheduled: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue with the clock at [`SimTime::ZERO`].
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            cancelled: SeqSet::default(),
            next_seq: 0,
            now: SimTime::ZERO,
            popped: 0,
            scheduled: 0,
        }
    }

    /// The time of the most recently popped event (the simulation "now").
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules `event` at the absolute instant `time`.
    ///
    /// Returns a key that can later be passed to [`cancel`](Self::cancel).
    ///
    /// # Panics
    ///
    /// Panics if `time` is earlier than [`now`](Self::now): scheduling into
    /// the past would break causality.
    pub fn schedule(&mut self, time: SimTime, event: E) -> EventKey {
        assert!(
            time >= self.now,
            "cannot schedule into the past: {} < {}",
            time,
            self.now
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        self.scheduled += 1;
        self.heap.push(Entry { time, seq, event });
        EventKey(seq)
    }

    /// Schedules `event` at `delay` after the current time.
    pub fn schedule_after(&mut self, delay: SimDuration, event: E) -> EventKey {
        self.schedule(self.now + delay, event)
    }

    /// Cancels a previously scheduled event.
    ///
    /// Returns `true` if the event had not yet fired or been cancelled.
    /// Cancelling an already-delivered or already-cancelled key is a no-op
    /// returning `false`.
    pub fn cancel(&mut self, key: EventKey) -> bool {
        if key.0 >= self.next_seq {
            return false;
        }
        // An event that already fired is gone from the heap; inserting its
        // key into `cancelled` would leak, so only record keys that can
        // still be in the heap. We cannot cheaply tell "fired" apart from
        // "pending", so we record and rely on pop() to clean up.
        self.cancelled.insert(key.0)
    }

    /// Removes and returns the earliest non-cancelled event, advancing the
    /// clock to its timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        while let Some(entry) = self.heap.pop() {
            // Skip the tombstone hash lookup entirely while no
            // cancellations are outstanding — the common case on the hot
            // loop (hundreds of thousands of pops per run).
            if !self.cancelled.is_empty() && self.cancelled.remove(&entry.seq) {
                continue;
            }
            debug_assert!(entry.time >= self.now, "event queue went backwards");
            self.now = entry.time;
            self.popped += 1;
            return Some((entry.time, entry.event));
        }
        None
    }

    /// The timestamp of the next non-cancelled event, if any.
    ///
    /// Cancelled entries at the head are dropped eagerly so the returned
    /// time is accurate.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        while let Some(entry) = self.heap.peek() {
            if !self.cancelled.is_empty() && self.cancelled.contains(&entry.seq) {
                let entry = self.heap.pop().expect("peeked entry vanished");
                self.cancelled.remove(&entry.seq);
                continue;
            }
            return Some(entry.time);
        }
        None
    }

    /// Number of pending entries, **including** tombstoned ones.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// `true` when no entries (live or tombstoned) remain.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Total events delivered so far (diagnostics).
    pub fn delivered_count(&self) -> u64 {
        self.popped
    }

    /// Total events ever scheduled (diagnostics).
    pub fn scheduled_count(&self) -> u64 {
        self.scheduled
    }

    /// The live (non-tombstoned) entries as `(time, seq, &event)`, sorted
    /// in pop order. Together with [`counters`](Self::counters) this is a
    /// complete image of the queue for snapshot serialization.
    pub fn snapshot_entries(&self) -> Vec<(SimTime, u64, &E)> {
        let mut entries: Vec<_> = self
            .heap
            .iter()
            .filter(|entry| !self.cancelled.contains(&entry.seq))
            .map(|entry| (entry.time, entry.seq, &entry.event))
            .collect();
        entries.sort_by_key(|&(time, seq, _)| (time, seq));
        entries
    }

    /// The queue's counters `(now, next_seq, delivered, scheduled)`, for
    /// snapshot serialization.
    pub fn counters(&self) -> (SimTime, u64, u64, u64) {
        (self.now, self.next_seq, self.popped, self.scheduled)
    }

    /// Rebuilds a queue from [`snapshot_entries`](Self::snapshot_entries)
    /// and [`counters`](Self::counters) output. Tombstoned entries are not
    /// restored (they were already logically gone); the restored queue pops
    /// the same `(time, seq, event)` stream and hands out fresh keys from
    /// `next_seq`, so it is behaviorally identical to the exported one.
    ///
    /// # Panics
    ///
    /// Panics if an entry predates `now` or carries a sequence number at
    /// or past `next_seq`.
    pub fn restore(
        now: SimTime,
        next_seq: u64,
        delivered: u64,
        scheduled: u64,
        entries: impl IntoIterator<Item = (SimTime, u64, E)>,
    ) -> Self {
        let mut heap = BinaryHeap::new();
        for (time, seq, event) in entries {
            assert!(time >= now, "restored event predates the clock");
            assert!(seq < next_seq, "restored event from the future");
            heap.push(Entry { time, seq, event });
        }
        EventQueue {
            heap,
            cancelled: SeqSet::default(),
            next_seq,
            now,
            popped: delivered,
            scheduled,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_millis(3), 'c');
        q.schedule(SimTime::from_millis(1), 'a');
        q.schedule(SimTime::from_millis(2), 'b');
        let order: Vec<char> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!['a', 'b', 'c']);
    }

    #[test]
    fn ties_break_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_millis(1);
        for i in 0..10 {
            q.schedule(t, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn cancellation_skips_events() {
        let mut q = EventQueue::new();
        let k1 = q.schedule(SimTime::from_millis(1), 1);
        q.schedule(SimTime::from_millis(2), 2);
        assert!(q.cancel(k1));
        assert!(!q.cancel(k1), "double cancel reports false");
        assert_eq!(q.pop(), Some((SimTime::from_millis(2), 2)));
    }

    #[test]
    fn clock_advances_with_pop() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(5), ());
        assert_eq!(q.now(), SimTime::ZERO);
        q.pop();
        assert_eq!(q.now(), SimTime::from_secs(5));
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn scheduling_into_past_panics() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(5), ());
        q.pop();
        q.schedule(SimTime::from_secs(1), ());
    }

    #[test]
    fn schedule_after_uses_current_time() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(1), "first");
        q.pop();
        q.schedule_after(SimDuration::from_secs(2), "second");
        assert_eq!(q.pop(), Some((SimTime::from_secs(3), "second")));
    }

    #[test]
    fn peek_time_skips_cancelled_head() {
        let mut q = EventQueue::new();
        let k = q.schedule(SimTime::from_millis(1), 1);
        q.schedule(SimTime::from_millis(5), 2);
        q.cancel(k);
        assert_eq!(q.peek_time(), Some(SimTime::from_millis(5)));
    }

    #[test]
    fn counts_track_activity() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_millis(1), ());
        let k = q.schedule(SimTime::from_millis(2), ());
        q.cancel(k);
        while q.pop().is_some() {}
        assert_eq!(q.scheduled_count(), 2);
        assert_eq!(q.delivered_count(), 1);
    }
}
