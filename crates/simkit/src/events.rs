//! A deterministic discrete-event queue.
//!
//! [`EventQueue`] is a priority queue of `(SimTime, payload)` pairs ordered by
//! time, with FIFO tie-breaking: two events scheduled for the same instant
//! pop in the order they were pushed. This determinism matters — simulation
//! results must be bit-identical across runs for a given seed, and
//! `BinaryHeap` alone does not guarantee a stable order among equal keys.
//!
//! Internally each entry carries a single `u128` comparison key:
//! `(time.ordered_bits() << 64) | seq`. For the non-negative finite times
//! `SimTime` admits, IEEE-754 bit patterns order exactly like the values, so
//! one integer comparison replaces the float-compare + tie-break pair on
//! every operation. The time is recovered losslessly from the high 64 bits
//! on `pop`.
//!
//! Two backends implement the same ordering contract over those keys:
//!
//! * [`QueueBackend::Ladder`] (the default) — the radix-rung structure in
//!   [`crate::ladder`], near-O(1) per operation for the monotone push
//!   pattern of a forward-running simulation.
//! * [`QueueBackend::ReferenceHeap`] — the original `BinaryHeap`, kept
//!   runnable so differential tests can pin the ladder to it bit-for-bit
//!   (the simulator selects it with `RunOptions::reference`).
//!
//! Keys are totally ordered (the sequence number makes them unique), so the
//! two backends pop identical streams for identical push sequences — the
//! backend choice can never change simulation output, only its speed.
//!
//! The queue owns its payloads and makes no assumptions about them; the
//! simulation driver (in the `array` crate) defines the event enum.

use crate::ladder::Ladder;
use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Which structure backs an [`EventQueue`]. Both honor the same ordering
/// contract; `ReferenceHeap` exists for differential testing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum QueueBackend {
    /// Radix-rung ladder queue: near-O(1) for monotone simulation pushes.
    #[default]
    Ladder,
    /// The original `BinaryHeap`: O(log n) sifts, kept as the reference.
    ReferenceHeap,
}

/// An entry in the heap backend, ordered by the packed `(time, seq)` key
/// ascending.
struct Entry<E> {
    /// `(time.ordered_bits() << 64) | seq` — a single integer comparison
    /// gives time order with FIFO tie-breaking.
    key: u128,
    payload: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}
impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    #[inline]
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the smallest key pops first.
        other.key.cmp(&self.key)
    }
}

enum Inner<E> {
    Ladder(Ladder<E>),
    Heap(BinaryHeap<Entry<E>>),
}

/// A time-ordered event queue with FIFO tie-breaking.
///
/// # Examples
/// ```
/// use simkit::{EventQueue, SimTime};
///
/// let mut q = EventQueue::new();
/// q.push(SimTime::from_secs(2.0), "late");
/// q.push(SimTime::from_secs(1.0), "early");
/// q.push(SimTime::from_secs(1.0), "early-second");
///
/// assert_eq!(q.pop(), Some((SimTime::from_secs(1.0), "early")));
/// assert_eq!(q.pop(), Some((SimTime::from_secs(1.0), "early-second")));
/// assert_eq!(q.pop(), Some((SimTime::from_secs(2.0), "late")));
/// assert_eq!(q.pop(), None);
/// ```
pub struct EventQueue<E> {
    inner: Inner<E>,
    next_seq: u64,
}

impl<E> EventQueue<E> {
    /// Creates an empty queue on the default (ladder) backend.
    pub fn new() -> Self {
        Self::with_backend(QueueBackend::Ladder, 0)
    }

    /// Creates an empty queue with room for `cap` events before
    /// reallocating. (The ladder backend sizes its rungs on demand, so
    /// `cap` only pre-sizes the reference heap.)
    pub fn with_capacity(cap: usize) -> Self {
        Self::with_backend(QueueBackend::Ladder, cap)
    }

    /// Creates an empty queue on an explicit backend.
    pub fn with_backend(backend: QueueBackend, cap: usize) -> Self {
        let inner = match backend {
            QueueBackend::Ladder => Inner::Ladder(Ladder::new()),
            QueueBackend::ReferenceHeap => Inner::Heap(BinaryHeap::with_capacity(cap)),
        };
        EventQueue { inner, next_seq: 0 }
    }

    /// The backend this queue runs on.
    pub fn backend(&self) -> QueueBackend {
        match self.inner {
            Inner::Ladder(_) => QueueBackend::Ladder,
            Inner::Heap(_) => QueueBackend::ReferenceHeap,
        }
    }

    /// Schedules `payload` to fire at `time`.
    #[inline]
    pub fn push(&mut self, time: SimTime, payload: E) {
        let key = self.reserve_key(time);
        self.push_reserved(key, payload);
    }

    /// Allocates the queue position — packed `(time, seq)` key — that the
    /// next [`push`](Self::push) at `time` would occupy, without storing
    /// anything. Feed it to [`push_reserved`](Self::push_reserved) later,
    /// or drop it to consume the slot.
    ///
    /// This lets a driver decide to handle an event inline (skipping the
    /// queue round-trip) while keeping the sequence numbering — and with
    /// it FIFO tie-breaking — bit-identical to the push-then-pop path.
    #[inline]
    pub fn reserve_key(&mut self, time: SimTime) -> u128 {
        let seq = self.next_seq;
        self.next_seq += 1;
        ((time.ordered_bits() as u128) << 64) | seq as u128
    }

    /// Schedules `payload` under a key from
    /// [`reserve_key`](Self::reserve_key).
    #[inline]
    pub fn push_reserved(&mut self, key: u128, payload: E) {
        match &mut self.inner {
            Inner::Ladder(l) => l.push(key, payload),
            Inner::Heap(h) => h.push(Entry { key, payload }),
        }
    }

    /// Removes and returns the earliest event, or `None` if empty.
    #[inline]
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        match &mut self.inner {
            Inner::Ladder(l) => l.pop().map(|(k, p)| (time_of(k), p)),
            Inner::Heap(h) => h.pop().map(|e| (time_of(e.key), e.payload)),
        }
    }

    /// The firing time of the earliest pending event, if any.
    #[inline]
    pub fn peek_time(&self) -> Option<SimTime> {
        self.peek_key().map(time_of)
    }

    /// The packed `(time, seq)` key of the earliest pending event, if any.
    /// Comparable against [`reserve_key`](Self::reserve_key) results to
    /// ask "would a push at time t pop before everything queued?".
    #[inline]
    pub fn peek_key(&self) -> Option<u128> {
        match &self.inner {
            Inner::Ladder(l) => l.peek_key(),
            Inner::Heap(h) => h.peek().map(|e| e.key),
        }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        match &self.inner {
            Inner::Ladder(l) => l.len(),
            Inner::Heap(h) => h.len(),
        }
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops all pending events. The sequence counter keeps counting, so
    /// FIFO order is preserved across a clear.
    pub fn clear(&mut self) {
        match &mut self.inner {
            Inner::Ladder(l) => l.clear(),
            Inner::Heap(h) => h.clear(),
        }
    }
}

/// Recovers the firing time from a packed key's high 64 bits.
#[inline]
fn time_of(key: u128) -> SimTime {
    SimTime::from_ordered_bits((key >> 64) as u64)
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every behavioral test runs against both backends: the contract is
    /// one and the same.
    fn each_backend(f: impl Fn(EventQueue<u32>)) {
        f(EventQueue::with_backend(QueueBackend::Ladder, 0));
        f(EventQueue::with_backend(QueueBackend::ReferenceHeap, 8));
    }

    #[test]
    fn default_backend_is_the_ladder() {
        assert_eq!(EventQueue::<()>::new().backend(), QueueBackend::Ladder);
        assert_eq!(
            EventQueue::<()>::with_capacity(64).backend(),
            QueueBackend::Ladder
        );
    }

    #[test]
    fn pops_in_time_order() {
        each_backend(|mut q| {
            for &t in &[5.0, 1.0, 3.0, 2.0, 4.0] {
                q.push(SimTime::from_secs(t), t as u32);
            }
            let order: Vec<u32> = std::iter::from_fn(|| q.pop().map(|(_, p)| p)).collect();
            assert_eq!(order, vec![1, 2, 3, 4, 5]);
        });
    }

    #[test]
    fn fifo_among_equal_times() {
        each_backend(|mut q| {
            let t = SimTime::from_secs(1.0);
            for i in 0..100 {
                q.push(t, i);
            }
            let order: Vec<u32> = std::iter::from_fn(|| q.pop().map(|(_, p)| p)).collect();
            assert_eq!(order, (0..100).collect::<Vec<_>>());
        });
    }

    #[test]
    fn peek_does_not_remove() {
        each_backend(|mut q| {
            q.push(SimTime::from_secs(1.0), 0);
            assert_eq!(q.peek_time(), Some(SimTime::from_secs(1.0)));
            assert_eq!(q.len(), 1);
            assert!(!q.is_empty());
            q.pop();
            assert_eq!(q.peek_time(), None);
            assert!(q.is_empty());
        });
    }

    #[test]
    fn clear_empties_queue() {
        each_backend(|mut q| {
            q.push(SimTime::ZERO, 1);
            q.push(SimTime::ZERO, 2);
            q.clear();
            assert!(q.is_empty());
            assert_eq!(q.pop(), None);
        });
    }

    #[test]
    fn interleaved_push_pop_stays_ordered() {
        each_backend(|mut q| {
            q.push(SimTime::from_secs(10.0), 3);
            q.push(SimTime::from_secs(1.0), 1);
            assert_eq!(q.pop().unwrap().1, 1);
            q.push(SimTime::from_secs(5.0), 2);
            assert_eq!(q.pop().unwrap().1, 2);
            assert_eq!(q.pop().unwrap().1, 3);
        });
    }

    #[test]
    fn zero_time_events_stay_fifo() {
        // SimTime::ZERO packs to key high bits = 0; seq alone must order.
        each_backend(|mut q| {
            for i in 0..10 {
                q.push(SimTime::ZERO, i);
            }
            let order: Vec<u32> = std::iter::from_fn(|| q.pop().map(|(_, p)| p)).collect();
            assert_eq!(order, (0..10).collect::<Vec<_>>());
        });
    }

    #[test]
    fn pop_recovers_exact_times() {
        each_backend(|mut q| {
            let times = [0.0, 1.5e-7, 0.1, 1.0 / 3.0, 7200.0];
            for (i, &t) in times.iter().enumerate() {
                q.push(SimTime::from_secs(t), i as u32);
            }
            for &t in &times {
                let (popped, _) = q.pop().unwrap();
                assert_eq!(
                    popped,
                    SimTime::from_secs(t),
                    "times must roundtrip exactly"
                );
            }
        });
    }

    /// Regression test: growing past the initial `with_capacity` while
    /// interleaving pushes and pops must preserve FIFO tie-breaking. The
    /// sequence counter lives outside the backend storage, so internal
    /// reallocation must not disturb the order among equal times.
    #[test]
    fn with_capacity_realloc_preserves_fifo_ties() {
        for backend in [QueueBackend::Ladder, QueueBackend::ReferenceHeap] {
            let mut q = EventQueue::with_backend(backend, 4);
            let early = SimTime::from_secs(1.0);
            let tied = SimTime::from_secs(2.0);

            // Seed below capacity, pop one, then push far past the initial
            // capacity so the backing buffer reallocates mid-stream.
            q.push(early, 1000);
            q.push(tied, 0);
            q.push(tied, 1);
            assert_eq!(q.pop(), Some((early, 1000)));
            for i in 2..64 {
                q.push(tied, i);
            }
            assert!(q.len() > 4, "test must exceed the initial capacity");

            let order: Vec<u32> = std::iter::from_fn(|| q.pop().map(|(_, p)| p)).collect();
            assert_eq!(
                order,
                (0..64).collect::<Vec<_>>(),
                "FIFO tie-breaking must survive reallocation ({backend:?})"
            );
        }
    }

    /// Oracle check: random interleaved pushes and pops, with heavy time
    /// ties and times earlier than already-popped events (forcing the
    /// ladder's late-push fallback), must match the reference heap pop
    /// for pop. Deterministic LCG, no external RNG.
    #[test]
    fn randomized_churn_matches_heap_oracle() {
        let mut ladder = EventQueue::with_backend(QueueBackend::Ladder, 0);
        let mut heap = EventQueue::with_backend(QueueBackend::ReferenceHeap, 0);
        let mut state = 0x243f6a8885a308d3u64;
        let mut rng = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        };
        let mut payload = 0u32;
        for _ in 0..50_000 {
            if rng() % 4 != 0 {
                // Coarse 1/8-second grid over ~2 minutes: plenty of exact
                // ties and plenty of backwards jumps relative to pops.
                let t = SimTime::from_secs((rng() % 1000) as f64 * 0.125);
                ladder.push(t, payload);
                heap.push(t, payload);
                payload += 1;
            } else {
                assert_eq!(ladder.pop(), heap.pop());
            }
            assert_eq!(ladder.len(), heap.len());
            assert_eq!(ladder.peek_time(), heap.peek_time());
        }
        loop {
            let (a, b) = (ladder.pop(), heap.pop());
            assert_eq!(a, b, "drain order diverged");
            if a.is_none() {
                break;
            }
        }
    }

    /// Oracle check for the simulator's actual pattern: drain while
    /// inserting, every push at or after the last popped time (monotone),
    /// so the ladder's rung-relabel path does all the work.
    #[test]
    fn drain_while_inserting_matches_heap_oracle() {
        let mut ladder = EventQueue::with_backend(QueueBackend::Ladder, 0);
        let mut heap = EventQueue::with_backend(QueueBackend::ReferenceHeap, 0);
        let mut state = 0x9e3779b97f4a7c15u64;
        let mut rng = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            state >> 33
        };
        let mut payload = 0u32;
        for i in 0..64 {
            let t = SimTime::from_secs(i as f64 * 0.01);
            ladder.push(t, payload);
            heap.push(t, payload);
            payload += 1;
        }
        for _ in 0..20_000 {
            let (a, b) = (ladder.pop(), heap.pop());
            assert_eq!(a, b);
            let Some((now, _)) = a else { break };
            // Schedule 0–2 follow-ups at now + jittered delay (delay 0
            // keeps same-instant FIFO bursts in play).
            for _ in 0..rng() % 3 {
                let t = now + crate::SimDuration::from_secs((rng() % 8) as f64 * 0.05);
                ladder.push(t, payload);
                heap.push(t, payload);
                payload += 1;
            }
        }
        loop {
            let (a, b) = (ladder.pop(), heap.pop());
            assert_eq!(a, b, "drain order diverged");
            if a.is_none() {
                break;
            }
        }
    }

    #[test]
    fn reserved_keys_interleave_with_pushes() {
        each_backend(|mut q| {
            let t = SimTime::from_secs(1.0);
            q.push(t, 0);
            // Reserve, push another at the same time, then file the
            // reserved key: pop order must follow reservation order.
            let k = q.reserve_key(t);
            q.push(t, 2);
            q.push_reserved(k, 1);
            let order: Vec<u32> = std::iter::from_fn(|| q.pop().map(|(_, p)| p)).collect();
            assert_eq!(order, vec![0, 1, 2]);
        });
    }

    #[test]
    fn peek_key_matches_pop_order() {
        each_backend(|mut q| {
            q.push(SimTime::from_secs(2.0), 2);
            q.push(SimTime::from_secs(1.0), 1);
            let k = q.peek_key().unwrap();
            let probe = q.reserve_key(SimTime::from_secs(0.5));
            assert!(probe < k, "an earlier time must reserve a smaller key");
            q.push_reserved(probe, 0);
            assert_eq!(q.peek_key(), Some(probe));
            let order: Vec<u32> = std::iter::from_fn(|| q.pop().map(|(_, p)| p)).collect();
            assert_eq!(order, vec![0, 1, 2]);
        });
    }
}
