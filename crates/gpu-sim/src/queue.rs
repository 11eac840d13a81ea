//! Lane-and-heap event queue for the engine's warp scheduler.
//!
//! Almost every event the engine queues is a fixed-latency hop from
//! the event it just popped: a TLB hit completes `1 + mem_latency +
//! compute_delay` cycles later, a resident TLB miss `1 + walk_latency +
//! mem_latency + compute_delay` later. Pops come out in ascending
//! `(cycle, key)` order and each hop re-pushes the popped warp's key,
//! so the pushes of one hop arrive already sorted: a FIFO lane per hop
//! holds them, and a push only compares against its lane's tail.
//! Everything else — far-fault replays, in-flight waits, block
//! dispatch, FIFO [`push`](EventQueue::push), and any lane push that
//! would land before its lane's tail (e.g. under a variable-latency
//! radix walk) — goes to one binary heap. A pop takes the least
//! `(cycle, key)` among the lane heads and the heap top.
//!
//! Ordering contract (the engine's schedule depends on it): events pop
//! in ascending `(cycle, key)`. Keyed pushes supply the key; FIFO
//! pushes draw an internal sequence number, so their same-cycle ties
//! pop in push order. Which structure holds an event never changes
//! when it pops — the differential test in `tests/properties.rs` pins
//! this against a plain `BinaryHeap<Reverse<(Cycle, u64, T)>>`.

use std::collections::{BinaryHeap, VecDeque};

use uvm_types::Cycle;

/// Number of fixed-hop lanes.
const LANES: usize = 2;

/// A queued event in the heap, ordered so the max-heap yields the
/// least `(t, key)` first.
#[derive(Clone, Debug)]
struct Parked<T> {
    t: Cycle,
    key: u64,
    payload: T,
}

impl<T> PartialEq for Parked<T> {
    fn eq(&self, other: &Self) -> bool {
        (self.t, self.key) == (other.t, other.key)
    }
}

impl<T> Eq for Parked<T> {}

impl<T> Ord for Parked<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (other.t, other.key).cmp(&(self.t, self.key))
    }
}

impl<T> PartialOrd for Parked<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// A priority queue over `(Cycle, key)` with [`LANES`](Self::LANES)
/// sorted FIFO lanes for fixed-latency hops and a heap for the rest.
///
/// # Examples
///
/// ```
/// use uvm_gpu::EventQueue;
/// use uvm_types::Cycle;
///
/// let mut q = EventQueue::new();
/// q.push(Cycle::new(10), "late");
/// q.push(Cycle::new(5), "early");
/// q.push(Cycle::new(5), "early-second");
/// q.push_lane(0, Cycle::new(7), 9, "hop");
/// assert_eq!(q.pop(), Some((Cycle::new(5), "early")));
/// assert_eq!(q.pop(), Some((Cycle::new(5), "early-second")));
/// assert_eq!(q.pop(), Some((Cycle::new(7), "hop")));
/// assert_eq!(q.pop(), Some((Cycle::new(10), "late")));
/// assert_eq!(q.pop(), None);
/// ```
#[derive(Clone, Debug)]
pub struct EventQueue<T> {
    /// Fixed-hop lanes, each sorted ascending by `(t, key)`.
    lanes: [VecDeque<(Cycle, u64, T)>; LANES],
    /// Everything that is not on a lane.
    heap: BinaryHeap<Parked<T>>,
    /// Next FIFO sequence number for [`push`](Self::push).
    seq: u64,
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> EventQueue<T> {
    /// Number of fixed-hop lanes [`push_lane`](Self::push_lane) accepts.
    pub const LANES: usize = LANES;

    /// An empty queue.
    pub fn new() -> Self {
        EventQueue {
            lanes: std::array::from_fn(|_| VecDeque::new()),
            heap: BinaryHeap::new(),
            seq: 0,
        }
    }

    /// Number of queued events.
    pub fn len(&self) -> usize {
        self.heap.len() + self.lanes.iter().map(VecDeque::len).sum::<usize>()
    }

    /// `true` when no events are queued.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty() && self.lanes.iter().all(VecDeque::is_empty)
    }

    /// Queues `payload` at cycle `t`. Events at the same cycle pop in
    /// push order.
    pub fn push(&mut self, t: Cycle, payload: T) {
        let key = self.seq;
        self.seq += 1;
        self.push_keyed(t, key, payload);
    }

    /// Queues `payload` at cycle `t` with a caller-supplied tiebreak
    /// `key` in place of the internal FIFO sequence number: same-cycle
    /// events pop in ascending key order regardless of push order.
    ///
    /// The engine uses the warp's dispatch rank as the key, which makes
    /// the schedule a pure function of `(cycle, warp)` — re-pushing an
    /// event after a speculative rollback reproduces its exact queue
    /// position, which the internal sequence number cannot. Callers
    /// must not queue two live events with equal `(t, key)`; their
    /// relative order is unspecified.
    pub fn push_keyed(&mut self, t: Cycle, key: u64, payload: T) {
        self.heap.push(Parked { t, key, payload });
    }

    /// [`push_keyed`](Self::push_keyed) onto fixed-hop lane `lane`.
    /// The lane takes the event when it sorts at or after the lane's
    /// tail — always the case for a constant hop from the popped
    /// event's `(cycle, key)` — and the heap takes it otherwise, so
    /// the pop order is the same either way.
    ///
    /// # Panics
    ///
    /// Panics if `lane >= Self::LANES`.
    pub fn push_lane(&mut self, lane: usize, t: Cycle, key: u64, payload: T) {
        let lane = &mut self.lanes[lane];
        match lane.back() {
            Some(&(bt, bk, _)) if (t, key) < (bt, bk) => self.push_keyed(t, key, payload),
            _ => lane.push_back((t, key, payload)),
        }
    }

    /// The `(cycle, key)` of the earliest queued event without
    /// removing it. The sharded engine's cooperative scheduler peeks
    /// every shard to find the globally earliest event.
    pub fn peek_key(&self) -> Option<(Cycle, u64)> {
        self.earliest().map(|(_, t, key)| (t, key))
    }

    /// Removes and returns the earliest `(cycle, payload)`.
    pub fn pop(&mut self) -> Option<(Cycle, T)> {
        let (src, _, _) = self.earliest()?;
        match self.lanes.get_mut(src) {
            Some(lane) => lane.pop_front().map(|(t, _, payload)| (t, payload)),
            None => self.heap.pop().map(|p| (p.t, p.payload)),
        }
    }

    /// The earliest event's source (a lane index, or `LANES` for the
    /// heap) and `(cycle, key)`.
    #[inline]
    fn earliest(&self) -> Option<(usize, Cycle, u64)> {
        let mut best = self.heap.peek().map(|p| (LANES, p.t, p.key));
        for (i, lane) in self.lanes.iter().enumerate() {
            if let Some(&(t, key, _)) = lane.front() {
                if best.is_none_or(|(_, bt, bk)| (t, key) < (bt, bk)) {
                    best = Some((i, t, key));
                }
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_cycle_order() {
        let mut q = EventQueue::new();
        q.push(Cycle::new(300), 'c');
        q.push(Cycle::new(100), 'a');
        q.push(Cycle::new(200), 'b');
        assert_eq!(q.pop(), Some((Cycle::new(100), 'a')));
        assert_eq!(q.pop(), Some((Cycle::new(200), 'b')));
        assert_eq!(q.pop(), Some((Cycle::new(300), 'c')));
        assert_eq!(q.pop(), None);
        assert!(q.is_empty());
    }

    #[test]
    fn same_cycle_pops_fifo() {
        let mut q = EventQueue::new();
        for i in 0..10 {
            q.push(Cycle::new(7), i);
        }
        for i in 0..10 {
            assert_eq!(q.pop(), Some((Cycle::new(7), i)));
        }
    }

    #[test]
    fn push_between_pops_keeps_order() {
        let mut q = EventQueue::new();
        q.push(Cycle::new(10), 'a');
        q.push(Cycle::new(12), 'c');
        assert_eq!(q.pop(), Some((Cycle::new(10), 'a')));
        // Earlier than the queued 'c'.
        q.push(Cycle::new(11), 'b');
        // Same cycle as 'c' but pushed later: FIFO puts it after.
        q.push(Cycle::new(12), 'd');
        assert_eq!(q.pop(), Some((Cycle::new(11), 'b')));
        assert_eq!(q.pop(), Some((Cycle::new(12), 'c')));
        assert_eq!(q.pop(), Some((Cycle::new(12), 'd')));
    }

    #[test]
    fn far_fault_hop_crosses_the_horizon() {
        // A far-fault hop lands ~66 k cycles out, far past the short
        // hops queued after it.
        let mut q = EventQueue::new();
        q.push(Cycle::new(0), 'a');
        q.push(Cycle::new(66_645), 'z');
        q.push(Cycle::new(100), 'b');
        assert_eq!(q.pop(), Some((Cycle::new(0), 'a')));
        assert_eq!(q.pop(), Some((Cycle::new(100), 'b')));
        assert_eq!(q.pop(), Some((Cycle::new(66_645), 'z')));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn far_event_pushed_before_a_near_one_pops_second() {
        let mut q = EventQueue::new();
        q.push(Cycle::new(4), "a");
        assert_eq!(q.pop(), Some((Cycle::new(4), "a")));
        q.push(Cycle::new(261), "far");
        q.push(Cycle::new(8), "near");
        assert_eq!(q.pop(), Some((Cycle::new(8), "near")));
        assert_eq!(q.pop(), Some((Cycle::new(261), "far")));
    }

    #[test]
    fn drain_and_restart_much_later() {
        let mut q = EventQueue::new();
        q.push(Cycle::new(1), 'a');
        assert_eq!(q.pop(), Some((Cycle::new(1), 'a')));
        assert_eq!(q.pop(), None);
        q.push(Cycle::new(1_000_000), 'b');
        q.push(Cycle::new(1_000_000), 'c');
        assert_eq!(q.pop(), Some((Cycle::new(1_000_000), 'b')));
        assert_eq!(q.pop(), Some((Cycle::new(1_000_000), 'c')));
    }

    #[test]
    fn keyed_pushes_pop_in_key_order_not_push_order() {
        let mut q = EventQueue::new();
        // Same cycle, keys out of push order: pops ascend by key.
        q.push_keyed(Cycle::new(7), 5, 'e');
        q.push_keyed(Cycle::new(7), 1, 'a');
        q.push_keyed(Cycle::new(7), 3, 'c');
        assert_eq!(q.pop(), Some((Cycle::new(7), 'a')));
        assert_eq!(q.pop(), Some((Cycle::new(7), 'c')));
        assert_eq!(q.pop(), Some((Cycle::new(7), 'e')));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn keyed_pushes_are_reproducible_across_draining_and_overflow() {
        // The same (t, key) set pops identically no matter the push
        // order or which structure (lane or heap) each entry landed in
        // — the property the sharded engine's rollback re-pushes rely
        // on.
        let events: &[(u64, u64, u32)] = &[
            (10, 2, 0),
            (10, 0, 1),
            (300, 1, 2),
            (300, 0, 3),
            (66_645, 3, 4),
            (66_645, 1, 5),
        ];
        let drain = |order: &[usize]| {
            let mut q = EventQueue::new();
            for (n, &i) in order.iter().enumerate() {
                let (t, k, v) = events[i];
                q.push_lane(n % 2, Cycle::new(t), k, v);
            }
            let mut out = Vec::new();
            while let Some(e) = q.pop() {
                out.push(e);
            }
            out
        };
        let a = drain(&[0, 1, 2, 3, 4, 5]);
        let b = drain(&[5, 3, 1, 0, 2, 4]);
        assert_eq!(a, b);
        let keys: Vec<u32> = a.iter().map(|&(_, v)| v).collect();
        assert_eq!(keys, vec![1, 0, 3, 2, 5, 4]);
    }

    #[test]
    fn out_of_order_lane_push_falls_back_to_the_heap() {
        let mut q = EventQueue::new();
        q.push_lane(0, Cycle::new(50), 1, 'c');
        // Earlier than the lane's tail: must still pop first.
        q.push_lane(0, Cycle::new(40), 2, 'a');
        // Same cycle as the tail, smaller key: also before it.
        q.push_lane(0, Cycle::new(50), 0, 'b');
        assert_eq!(q.len(), 3);
        assert_eq!(q.peek_key(), Some((Cycle::new(40), 2)));
        assert_eq!(q.pop(), Some((Cycle::new(40), 'a')));
        assert_eq!(q.pop(), Some((Cycle::new(50), 'b')));
        assert_eq!(q.pop(), Some((Cycle::new(50), 'c')));
        assert!(q.is_empty());
    }

    #[test]
    fn matches_binary_heap_on_random_churn() {
        use std::cmp::Reverse;

        // Deterministic xorshift stream driving both queues through an
        // engine-like near-monotone workload.
        let mut rng = 0x2545_f491_4f6c_dd1du64;
        let mut next = move || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng
        };
        let mut q = EventQueue::new();
        let mut h: BinaryHeap<Reverse<(Cycle, u64, u32)>> = BinaryHeap::new();
        let mut seq = 0u64;
        let mut now = 0u64;
        let mut id = 0u32;
        for _ in 0..200 {
            q.push(Cycle::new(now), id);
            h.push(Reverse((Cycle::new(now), seq, id)));
            seq += 1;
            id += 1;
        }
        for step in 0..5_000 {
            if step % 3 != 0 && !h.is_empty() {
                let Reverse((t, _, v)) = h.pop().expect("non-empty");
                assert_eq!(q.pop(), Some((t, v)), "divergence at step {step}");
                now = t.index();
            } else {
                let hop = match next() % 10 {
                    0 => 66_645,
                    1 => 0,
                    r => r * 37,
                };
                q.push(Cycle::new(now + hop), id);
                h.push(Reverse((Cycle::new(now + hop), seq, id)));
                seq += 1;
                id += 1;
            }
        }
        while let Some(Reverse((t, _, v))) = h.pop() {
            assert_eq!(q.pop(), Some((t, v)));
        }
        assert_eq!(q.pop(), None);
    }
}
