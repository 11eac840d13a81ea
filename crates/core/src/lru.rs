//! LRU bookkeeping: the generic recency queue behind every eviction
//! policy's recency list (directly for LRU-4KB, and twice over in the
//! hierarchical Sec. 5.3 ordering of [`crate::HierarchicalLru`]), and
//! the [`DenseIndex`] keys its slot table is indexed by.

use uvm_types::{BasicBlockId, LargePageId, PageId};

/// Sentinel slot index for "no neighbour" / "not queued".
const NIL: u32 = u32::MAX;

/// A key with a small, dense integer index.
///
/// The bump allocator hands out virtual addresses from zero
/// ([`crate::Allocations`]), so the page, basic-block and
/// large-page ids a simulation touches form a short dense range and
/// can index a plain `Vec` instead of a hash map.
pub trait DenseIndex: Copy {
    /// The key's position in a dense table.
    fn dense_index(self) -> usize;
}

impl DenseIndex for PageId {
    #[inline]
    fn dense_index(self) -> usize {
        self.index() as usize
    }
}

impl DenseIndex for BasicBlockId {
    #[inline]
    fn dense_index(self) -> usize {
        self.index() as usize
    }
}

impl DenseIndex for LargePageId {
    #[inline]
    fn dense_index(self) -> usize {
        self.index() as usize
    }
}

impl DenseIndex for u64 {
    #[inline]
    fn dense_index(self) -> usize {
        self as usize
    }
}

/// One element of the intrusive recency list.
#[derive(Clone, Debug)]
struct Slot<K> {
    key: K,
    prev: u32,
    next: u32,
}

/// A recency-ordered set with O(1) touch/insert/remove and ordered
/// traversal from least- to most-recently used.
///
/// Internally an intrusive doubly-linked list over a slab of slots,
/// found through a dense `key -> slot` table indexed by
/// [`DenseIndex::dense_index`]. Every simulated memory access touches
/// an evictor recency list (often two, for the hierarchical policies),
/// so the lookup is a bounds-checked `Vec` read rather than a hash.
/// The table grows only to the highest key index ever queued. Recency
/// order is the only observable: iteration, `peek_lru`, and the
/// checkpoint encoding are all defined purely by list position, never
/// by slot or table layout.
///
/// # Examples
///
/// ```
/// use uvm_core::LruQueue;
/// use uvm_types::PageId;
///
/// let mut lru = LruQueue::new();
/// lru.touch(PageId::new(1));
/// lru.touch(PageId::new(2));
/// lru.touch(PageId::new(1)); // refresh
/// assert_eq!(lru.peek_lru(), Some(&PageId::new(2)));
/// ```
#[derive(Clone, Debug)]
pub struct LruQueue<K> {
    /// Slab of list nodes; freed slots are recycled via `free`.
    slots: Vec<Slot<K>>,
    /// Indices of vacant slots in `slots`.
    free: Vec<u32>,
    /// Dense key index -> its slot index (`NIL` when absent).
    index: Vec<u32>,
    /// Number of queued keys.
    len: usize,
    /// LRU end of the list (`NIL` when empty).
    head: u32,
    /// MRU end of the list (`NIL` when empty).
    tail: u32,
}

impl<K: DenseIndex> Default for LruQueue<K> {
    fn default() -> Self {
        LruQueue {
            slots: Vec::new(),
            free: Vec::new(),
            index: Vec::new(),
            len: 0,
            head: NIL,
            tail: NIL,
        }
    }
}

impl<K: DenseIndex> LruQueue<K> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// The slot holding `key`, or `NIL`.
    #[inline]
    fn slot_of(&self, key: K) -> u32 {
        self.index.get(key.dense_index()).copied().unwrap_or(NIL)
    }

    /// Inserts `key` at the MRU end, or refreshes it if present.
    pub fn touch(&mut self, key: K) {
        let i = key.dense_index();
        if i >= self.index.len() {
            self.index.resize(i + 1, NIL);
        }
        let slot = self.index[i];
        if slot != NIL {
            if slot != self.tail {
                self.unlink(slot);
                self.link_tail(slot);
            }
            return;
        }
        let node = Slot {
            key,
            prev: NIL,
            next: NIL,
        };
        let slot = match self.free.pop() {
            Some(s) => {
                self.slots[s as usize] = node;
                s
            }
            None => {
                let s = u32::try_from(self.slots.len()).expect("LruQueue slot overflow");
                self.slots.push(node);
                s
            }
        };
        self.index[i] = slot;
        self.len += 1;
        self.link_tail(slot);
    }

    /// Removes `key`, returning `true` if it was present.
    pub fn remove(&mut self, key: &K) -> bool {
        let slot = self.slot_of(*key);
        if slot == NIL {
            return false;
        }
        self.index[key.dense_index()] = NIL;
        self.len -= 1;
        self.unlink(slot);
        self.free.push(slot);
        true
    }

    /// `true` if `key` is in the queue.
    pub fn contains(&self, key: &K) -> bool {
        self.slot_of(*key) != NIL
    }

    /// The least-recently-used element.
    pub fn peek_lru(&self) -> Option<&K> {
        (self.head != NIL).then(|| &self.slots[self.head as usize].key)
    }

    /// Iterates from least- to most-recently used.
    pub fn iter(&self) -> impl Iterator<Item = &K> {
        let mut cur = self.head;
        std::iter::from_fn(move || {
            if cur == NIL {
                return None;
            }
            let slot = &self.slots[cur as usize];
            cur = slot.next;
            Some(&slot.key)
        })
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Serializes the queue for a checkpoint: elements in LRU→MRU
    /// order, key encoding delegated to `put`. Slot indices are *not*
    /// stored — only recency order is observable — so restore replays
    /// [`touch`](Self::touch) and gets a freshly packed slab with
    /// identical recency order.
    pub fn save_state(
        &self,
        w: &mut uvm_types::codec::ByteWriter,
        mut put: impl FnMut(&mut uvm_types::codec::ByteWriter, &K),
    ) {
        w.put_usize(self.len());
        for key in self.iter() {
            put(w, key);
        }
    }

    /// Rebuilds a queue from a [`save_state`](Self::save_state) image,
    /// key decoding delegated to `get`.
    pub fn load_state<'a>(
        r: &mut uvm_types::codec::ByteReader<'a>,
        mut get: impl FnMut(
            &mut uvm_types::codec::ByteReader<'a>,
        ) -> Result<K, uvm_types::codec::CodecError>,
    ) -> Result<Self, uvm_types::codec::CodecError> {
        let n = r.get_usize()?;
        let mut q = LruQueue::new();
        for _ in 0..n {
            q.touch(get(r)?);
        }
        Ok(q)
    }

    /// Detaches `slot` from the list, fixing up its neighbours.
    fn unlink(&mut self, slot: u32) {
        let Slot { prev, next, .. } = self.slots[slot as usize];
        if prev != NIL {
            self.slots[prev as usize].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.slots[next as usize].prev = prev;
        } else {
            self.tail = prev;
        }
    }

    /// Appends `slot` at the MRU end.
    fn link_tail(&mut self, slot: u32) {
        self.slots[slot as usize].prev = self.tail;
        self.slots[slot as usize].next = NIL;
        if self.tail != NIL {
            self.slots[self.tail as usize].next = slot;
        } else {
            self.head = slot;
        }
        self.tail = slot;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn order(q: &LruQueue<u64>) -> Vec<u64> {
        q.iter().copied().collect()
    }

    #[test]
    fn touch_orders_by_recency() {
        let mut q = LruQueue::new();
        q.touch(1u64);
        q.touch(2);
        q.touch(3);
        assert_eq!(q.peek_lru(), Some(&1));
        q.touch(1);
        assert_eq!(q.peek_lru(), Some(&2));
        assert_eq!(order(&q), vec![2, 3, 1]);
        q.touch(1); // already MRU: no-op
        assert_eq!(order(&q), vec![2, 3, 1]);
    }

    #[test]
    fn remove_and_contains() {
        let mut q = LruQueue::new();
        q.touch(10u64);
        q.touch(20);
        assert!(q.contains(&10));
        assert!(q.remove(&10));
        assert!(!q.contains(&10));
        assert!(!q.remove(&10));
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
        // Keys beyond the grown table are simply absent.
        assert!(!q.contains(&1_000));
        assert!(!q.remove(&1_000));
    }

    #[test]
    fn iteration_order_lru_to_mru() {
        let mut q = LruQueue::new();
        for i in [5u64, 3, 9, 3] {
            q.touch(i);
        }
        assert_eq!(order(&q), vec![5, 9, 3]);
    }

    #[test]
    fn slot_recycling_keeps_order_through_churn() {
        // Interleaved removes and touches force slab reuse; order must
        // stay exactly recency order throughout.
        let mut q = LruQueue::new();
        for i in 0..8u64 {
            q.touch(i);
        }
        assert!(q.remove(&3));
        assert!(q.remove(&0));
        q.touch(9);
        q.touch(1); // refresh
        assert!(q.remove(&7));
        q.touch(10);
        let expected = vec![2, 4, 5, 6, 9, 1, 10];
        assert_eq!(order(&q), expected);
        assert_eq!(q.len(), 7);
        // Drain fully from the LRU end in the same order.
        let mut drained = Vec::new();
        while let Some(&k) = q.peek_lru() {
            assert!(q.remove(&k));
            drained.push(k);
        }
        assert_eq!(drained, expected);
        assert!(q.is_empty());
    }
}
