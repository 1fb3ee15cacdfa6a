//! The scheduler core: an arena-backed, index-based 4-ary min-heap event
//! queue, plus the retained pre-overhaul binary-heap path for A/B
//! benchmarking.
//!
//! Payloads live in a slab arena with generational indices and a
//! free-list, so the heap itself only ever moves 24-byte `(time, seq,
//! slot, gen)` entries during sifts — never the (much larger) event
//! payloads — and slot storage is recycled across the run instead of
//! churning the allocator per event.
//!
//! Ordering is *identical* to the old `BinaryHeap<Reverse<Event>>`
//! scheduler: every entry carries a unique `seq`, so the key `(at, seq)`
//! is a total order and any correct min-heap pops the exact same
//! sequence. [`NaiveEventQueue`] keeps the old implementation alive
//! (mirroring the DPI overhaul's `inspect_naive`) so benchmarks and
//! property tests can prove both equivalence and the speedup.

use crate::time::SimTime;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// What the engine needs from its scheduler. Both queues implement it,
/// so a [`Network`](crate::Network) can dispatch from either.
pub trait Scheduler<T>: Default {
    /// An empty scheduler with room for `capacity` pending events.
    fn with_capacity(capacity: usize) -> Self;

    /// Schedules `payload` at `(at, seq)`. Callers must keep `seq`
    /// unique (the engine's monotonically increasing counter does).
    fn push(&mut self, at: SimTime, seq: u64, payload: T);

    /// Key of the earliest event, if any.
    fn peek_key(&self) -> Option<(SimTime, u64)>;

    /// Removes and returns the earliest event as `(at, seq, payload)`.
    fn pop(&mut self) -> Option<(SimTime, u64, T)>;
}

/// One 24-byte heap entry; the payload stays put in the arena. The
/// `(at, seq)` key is packed into a single `u128` so sift comparisons
/// compile to one wide compare instead of a two-field tuple chain.
#[derive(Debug, Clone, Copy)]
struct HeapEntry {
    key: u128,
    slot: u32,
    gen: u32,
}

#[inline]
fn pack_key(at: SimTime, seq: u64) -> u128 {
    ((at.as_micros() as u128) << 64) | seq as u128
}

#[inline]
fn unpack_key(key: u128) -> (SimTime, u64) {
    (SimTime::from_micros((key >> 64) as u64), key as u64)
}

/// A payload slot in the arena: the generation counter detects (in debug
/// builds) any stale heap entry pointing at a recycled slot.
#[derive(Debug)]
struct Slot<T> {
    gen: u32,
    payload: Option<T>,
}

/// Arena-backed 4-ary min-heap keyed by `(SimTime, seq)`.
///
/// `seq` values pushed by the engine are unique, making the key a total
/// order: pop order is deterministic and identical to the retained
/// [`NaiveEventQueue`].
#[derive(Debug)]
pub struct EventQueue<T> {
    slots: Vec<Slot<T>>,
    free: Vec<u32>,
    heap: Vec<HeapEntry>,
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        EventQueue {
            slots: Vec::new(),
            free: Vec::new(),
            heap: Vec::new(),
        }
    }
}

impl<T> EventQueue<T> {
    /// 4-ary sift-up: parent of `i` is `(i - 1) / 4`.
    fn sift_up(&mut self, mut i: usize) {
        let entry = self.heap[i];
        while i > 0 {
            let parent = (i - 1) / 4;
            if self.heap[parent].key <= entry.key {
                break;
            }
            self.heap[i] = self.heap[parent];
            i = parent;
        }
        self.heap[i] = entry;
    }

    /// 4-ary sift-down: children of `i` are `4i + 1 ..= 4i + 4`.
    fn sift_down(&mut self, mut i: usize) {
        let entry = self.heap[i];
        let heap = self.heap.as_mut_slice();
        let len = heap.len();
        loop {
            let first = 4 * i + 1;
            if first >= len {
                break;
            }
            let mut min = first;
            let mut min_key = heap[first].key;
            for (off, e) in heap[first + 1..(first + 4).min(len)].iter().enumerate() {
                if e.key < min_key {
                    min = first + 1 + off;
                    min_key = e.key;
                }
            }
            if entry.key <= min_key {
                break;
            }
            heap[i] = heap[min];
            i = min;
        }
        heap[i] = entry;
    }
}

impl<T> Scheduler<T> for EventQueue<T> {
    fn with_capacity(capacity: usize) -> Self {
        EventQueue {
            slots: Vec::with_capacity(capacity),
            free: Vec::with_capacity(capacity),
            heap: Vec::with_capacity(capacity),
        }
    }

    fn push(&mut self, at: SimTime, seq: u64, payload: T) {
        let slot = match self.free.pop() {
            Some(slot) => {
                let s = &mut self.slots[slot as usize];
                debug_assert!(s.payload.is_none(), "free-list slot still occupied");
                s.payload = Some(payload);
                slot
            }
            None => {
                let slot = self.slots.len() as u32;
                self.slots.push(Slot {
                    gen: 0,
                    payload: Some(payload),
                });
                slot
            }
        };
        let gen = self.slots[slot as usize].gen;
        self.heap.push(HeapEntry {
            key: pack_key(at, seq),
            slot,
            gen,
        });
        self.sift_up(self.heap.len() - 1);
    }

    fn peek_key(&self) -> Option<(SimTime, u64)> {
        self.heap.first().map(|e| unpack_key(e.key))
    }

    /// Recycles the popped event's arena slot.
    fn pop(&mut self) -> Option<(SimTime, u64, T)> {
        let top = *self.heap.first()?;
        let last = self.heap.pop().expect("non-empty heap");
        if !self.heap.is_empty() {
            self.heap[0] = last;
            self.sift_down(0);
        }
        let slot = &mut self.slots[top.slot as usize];
        debug_assert_eq!(slot.gen, top.gen, "stale generation in heap entry");
        let payload = slot.payload.take().expect("popped slot must be occupied");
        slot.gen = slot.gen.wrapping_add(1);
        self.free.push(top.slot);
        let (at, seq) = unpack_key(top.key);
        Some((at, seq, payload))
    }
}

/// An entry of the retained pre-overhaul queue: the payload is carried
/// *inline*, so every binary-heap sift moves the whole event.
#[derive(Debug)]
struct NaiveEntry<T> {
    at: SimTime,
    seq: u64,
    payload: T,
}

impl<T> PartialEq for NaiveEntry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<T> Eq for NaiveEntry<T> {}
impl<T> PartialOrd for NaiveEntry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for NaiveEntry<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

/// The pre-overhaul scheduler, byte-for-byte the engine's old
/// `BinaryHeap<Reverse<Event>>` discipline, retained for A/B
/// benchmarking and equivalence proptests (the scheduler analogue of the
/// DPI overhaul's `inspect_naive`).
#[derive(Debug)]
pub struct NaiveEventQueue<T> {
    heap: BinaryHeap<Reverse<NaiveEntry<T>>>,
}

impl<T> Default for NaiveEventQueue<T> {
    fn default() -> Self {
        NaiveEventQueue {
            heap: BinaryHeap::new(),
        }
    }
}

impl<T> Scheduler<T> for NaiveEventQueue<T> {
    fn with_capacity(capacity: usize) -> Self {
        NaiveEventQueue {
            heap: BinaryHeap::with_capacity(capacity),
        }
    }

    fn push(&mut self, at: SimTime, seq: u64, payload: T) {
        self.heap.push(Reverse(NaiveEntry { at, seq, payload }));
    }

    fn peek_key(&self) -> Option<(SimTime, u64)> {
        self.heap.peek().map(|Reverse(e)| (e.at, e.seq))
    }

    fn pop(&mut self) -> Option<(SimTime, u64, T)> {
        self.heap.pop().map(|Reverse(e)| (e.at, e.seq, e.payload))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(us: u64) -> SimTime {
        SimTime::from_micros(us)
    }

    #[test]
    fn pops_in_time_then_seq_order() {
        let mut q = EventQueue::default();
        q.push(t(30), 0, "a");
        q.push(t(10), 1, "b");
        q.push(t(10), 2, "c");
        q.push(t(20), 3, "d");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop()).map(|(_, _, p)| p).collect();
        assert_eq!(order, vec!["b", "c", "d", "a"]);
    }

    #[test]
    fn matches_naive_on_interleaved_push_pop() {
        let mut fast = EventQueue::default();
        let mut naive = NaiveEventQueue::default();
        let mut seq = 0u64;
        // A deterministic but scrambled schedule with equal-time ties.
        for round in 0..50u64 {
            for k in 0..7u64 {
                let at = t((round * 7919 + k * 104_729) % 1000);
                fast.push(at, seq, seq);
                naive.push(at, seq, seq);
                seq += 1;
            }
            for _ in 0..3 {
                assert_eq!(fast.pop(), naive.pop());
            }
        }
        while let Some(got) = fast.pop() {
            assert_eq!(Some(got), naive.pop());
        }
        assert_eq!(naive.pop(), None);
    }

    #[test]
    fn free_list_recycles_slots() {
        let mut q = EventQueue::default();
        for i in 0..8u64 {
            q.push(t(i), i, i);
        }
        for _ in 0..8 {
            q.pop();
        }
        // Refill: the arena must not grow past its high-water mark.
        for i in 0..8u64 {
            q.push(t(i), 100 + i, i);
        }
        assert_eq!(q.slots.len(), 8);
        assert_eq!(q.heap.len(), 8);
    }

    #[test]
    fn empty_queue_behaves() {
        let mut q: EventQueue<u8> = EventQueue::default();
        assert_eq!(q.peek_key(), None);
        assert_eq!(q.pop(), None);
    }
}
