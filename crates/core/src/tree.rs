//! The full binary tree maintained per allocation chunk (paper Sec. 3.3).
//!
//! Every `cudaMallocManaged` allocation is carved into full binary
//! trees: one 32-leaf tree per whole 2 MB large page plus one smaller
//! power-of-two tree for the remainder. Leaves are 64 KB basic blocks;
//! each node tracks the *valid size* — the number of resident 4 KB
//! pages among the leaves beneath it.
//!
//! The same tree drives both directions of the paper's contribution:
//!
//! * **TBNp** (prefetch): when a far-fault makes a node's to-be-valid
//!   size strictly exceed 50 % of its capacity, the GMMU balances the
//!   node's children — raising the lesser child to the greater —
//!   recursively pushing the fill down to leaves, which become prefetch
//!   candidates ([`AllocTree::plan_prefetch`]).
//! * **TBNe** (pre-eviction): when an eviction makes a node's valid
//!   size strictly *drop below* 50 %, the GMMU lowers the greater child
//!   to the lesser, recursively pushing the drain down to leaves, which
//!   become pre-eviction candidates ([`AllocTree::plan_eviction`]).
//!
//! Both worked examples of the paper (Fig. 2a, Fig. 2b) and the
//! eviction example (Fig. 8) are unit tests in this module.

use uvm_types::{BasicBlockId, TreeExtent, PAGES_PER_BASIC_BLOCK};

/// Pages per leaf (16 4-KB pages in a 64 KB basic block).
const LEAF_PAGES: u32 = PAGES_PER_BASIC_BLOCK as u32;

/// A full binary tree over the basic blocks of one allocation chunk,
/// tracking per-node valid-page counts.
///
/// # Examples
///
/// ```
/// use uvm_core::AllocTree;
/// use uvm_types::{BasicBlockId, TreeExtent};
///
/// // An 8-leaf (512 KB) tree, as in the paper's Fig. 2 examples.
/// let mut tree = AllocTree::new(TreeExtent {
///     first_block: BasicBlockId::new(0),
///     num_blocks: 8,
/// });
/// // Faults on blocks 1, 3, 5, 7 trigger no prefetch...
/// for b in [1u64, 3, 5, 7] {
///     let plan = tree.plan_prefetch(BasicBlockId::new(b));
///     assert!(plan.is_empty());
///     tree.fill_block(BasicBlockId::new(b));
/// }
/// // ...but the fifth fault, on block 0, cascades (Fig. 2a).
/// let plan = tree.plan_prefetch(BasicBlockId::new(0));
/// assert_eq!(plan, vec![BasicBlockId::new(2), BasicBlockId::new(4), BasicBlockId::new(6)]);
/// ```
#[derive(Clone, Debug)]
pub struct AllocTree {
    extent: TreeExtent,
    /// Valid 4 KB pages per node; 1-indexed implicit binary heap with
    /// `num_blocks` leaves at indices `num_blocks..2*num_blocks`.
    valid: Vec<u32>,
}

impl AllocTree {
    /// Creates an all-invalid tree over `extent`.
    ///
    /// # Panics
    ///
    /// Panics if `extent.num_blocks` is not a power of two or is zero.
    pub fn new(extent: TreeExtent) -> Self {
        assert!(
            extent.num_blocks > 0 && extent.num_blocks.is_power_of_two(),
            "a full binary tree needs a power-of-two leaf count"
        );
        AllocTree {
            extent,
            valid: vec![0; 2 * extent.num_blocks as usize],
        }
    }

    /// The extent this tree covers.
    pub fn extent(&self) -> TreeExtent {
        self.extent
    }

    /// Serializes the per-node valid counts for a checkpoint. The
    /// extent is *not* stored — it is derivable from the allocation's
    /// requested size, which the checkpoint records separately.
    pub fn save_state(&self, w: &mut uvm_types::codec::ByteWriter) {
        w.put_usize(self.valid.len());
        for &v in &self.valid {
            w.put_u32(v);
        }
    }

    /// Restores valid counts saved by [`save_state`](Self::save_state)
    /// into this (freshly rebuilt) tree. Rejects a node-count mismatch
    /// — that means the checkpoint belongs to a different allocation
    /// layout.
    pub fn load_state(
        &mut self,
        r: &mut uvm_types::codec::ByteReader<'_>,
    ) -> Result<(), uvm_types::codec::CodecError> {
        let n = r.get_usize()?;
        if n != self.valid.len() {
            return Err(uvm_types::codec::CodecError::BadTag {
                what: "alloc tree node count",
                value: n as u64,
            });
        }
        for v in &mut self.valid {
            *v = r.get_u32()?;
        }
        Ok(())
    }

    /// Total resident pages under the root.
    pub fn root_valid_pages(&self) -> u32 {
        self.valid[1]
    }

    /// Maximum page capacity of the whole tree.
    pub fn capacity_pages(&self) -> u32 {
        self.extent.num_blocks as u32 * LEAF_PAGES
    }

    fn leaf_index(&self, block: BasicBlockId) -> usize {
        assert!(
            self.extent.contains(block),
            "{block} outside tree extent {:?}",
            self.extent
        );
        (block.index() - self.extent.first_block.index()) as usize + self.extent.num_blocks as usize
    }

    fn block_of_leaf(&self, leaf: usize) -> BasicBlockId {
        self.extent
            .first_block
            .add((leaf - self.extent.num_blocks as usize) as u64)
    }

    /// Capacity in pages of node `i`.
    fn node_capacity(&self, i: usize) -> u32 {
        let leaves = self.valid.len() / 2;
        // Node at depth d spans leaves/2^d ... compute via index magnitude:
        // node i spans `leaves / 2^floor(log2(i))` leaves.
        let span = leaves >> i.ilog2();
        span as u32 * LEAF_PAGES
    }

    /// Valid pages currently resident in `block`.
    pub fn block_valid_pages(&self, block: BasicBlockId) -> u32 {
        self.valid[self.leaf_index(block)]
    }

    /// `true` if every page of `block` is resident.
    pub fn block_full(&self, block: BasicBlockId) -> bool {
        self.block_valid_pages(block) == LEAF_PAGES
    }

    /// Records `count` pages of `block` becoming resident.
    ///
    /// # Panics
    ///
    /// Panics if the block would exceed 16 valid pages.
    pub fn add_pages(&mut self, block: BasicBlockId, count: u32) {
        let leaf = self.leaf_index(block);
        assert!(
            self.valid[leaf] + count <= LEAF_PAGES,
            "block {block} would exceed capacity"
        );
        let mut i = leaf;
        loop {
            self.valid[i] += count;
            if i == 1 {
                break;
            }
            i /= 2;
        }
    }

    /// Records `count` pages of `block` becoming non-resident.
    ///
    /// # Panics
    ///
    /// Panics if the block has fewer than `count` valid pages.
    pub fn remove_pages(&mut self, block: BasicBlockId, count: u32) {
        let leaf = self.leaf_index(block);
        assert!(
            self.valid[leaf] >= count,
            "block {block} has fewer than {count} valid pages"
        );
        let mut i = leaf;
        loop {
            self.valid[i] -= count;
            if i == 1 {
                break;
            }
            i /= 2;
        }
    }

    /// Marks every page of `block` resident (the effect of migrating
    /// the full basic block).
    pub fn fill_block(&mut self, block: BasicBlockId) {
        let cur = self.block_valid_pages(block);
        self.add_pages(block, LEAF_PAGES - cur);
    }

    /// Marks every page of `block` non-resident (the effect of evicting
    /// the basic block).
    pub fn clear_block(&mut self, block: BasicBlockId) {
        let cur = self.block_valid_pages(block);
        self.remove_pages(block, cur);
    }

    /// TBNp: given a far-fault on a page of `fault_block`, returns the
    /// additional basic blocks the tree-based neighborhood prefetcher
    /// migrates, in ascending block order.
    ///
    /// The returned plan assumes `fault_block` itself will be migrated
    /// in full (the caller applies that and the plan via
    /// [`fill_block`](Self::fill_block)); this method does **not**
    /// mutate the tree.
    ///
    /// Semantics (Sec. 3.3): with the fault block counted as to-be
    /// valid, walk from the fault leaf to the root; at every ancestor
    /// whose to-be-valid size strictly exceeds 50 % of its capacity,
    /// balance its two children by raising the lesser to the greater,
    /// pushing the fill recursively down to leaves that have spare
    /// quota. Newly-filled leaves are the prefetch candidates.
    pub fn plan_prefetch(&self, fault_block: BasicBlockId) -> Vec<BasicBlockId> {
        let mut picked = Vec::new();
        self.plan_prefetch_into(fault_block, &mut Vec::new(), &mut picked);
        picked
    }

    /// [`plan_prefetch`](Self::plan_prefetch) into caller-owned
    /// buffers: `picked` is overwritten with the plan and `scratch`
    /// with working counts, so a warm caller plans without allocating.
    pub fn plan_prefetch_into(
        &self,
        fault_block: BasicBlockId,
        scratch: &mut Vec<u32>,
        picked: &mut Vec<BasicBlockId>,
    ) {
        scratch.clone_from(&self.valid);
        picked.clear();
        let leaf = self.leaf_index(fault_block);
        // The fault block becomes fully valid.
        let gain = LEAF_PAGES - scratch[leaf];
        let mut i = leaf;
        loop {
            scratch[i] += gain;
            if i == 1 {
                break;
            }
            i /= 2;
        }

        // Ascend from the fault leaf's parent to the root, balancing
        // every ancestor that trips the >50% rule.
        let mut node = leaf / 2;
        while node >= 1 {
            if scratch[node] * 2 > self.node_capacity(node) {
                self.balance_up(scratch, node, picked);
            }
            if node == 1 {
                break;
            }
            node /= 2;
        }
        // Multi-phase water-filling can touch the same leaf more than
        // once; candidates are whole basic blocks, so dedupe.
        picked.sort_unstable_by_key(|b| b.index());
        picked.dedup();
    }

    /// Equalize the children of `node` by raising the lesser child to
    /// the greater, recording newly-filled leaves in `picked`.
    fn balance_up(&self, scratch: &mut [u32], node: usize, picked: &mut Vec<BasicBlockId>) {
        let leaves_start = self.valid.len() / 2;
        if node >= leaves_start {
            return; // leaf: nothing to balance
        }
        let (l, r) = (2 * node, 2 * node + 1);
        let (vl, vr) = (scratch[l], scratch[r]);
        let (lesser, delta) = if vl < vr {
            (l, vr - vl)
        } else if vr < vl {
            (r, vl - vr)
        } else {
            return;
        };
        let added = self.fill_down(scratch, lesser, delta, picked);
        // Propagate the addition to `node`; ancestors are updated by
        // the caller's ascent because it re-reads scratch... they are
        // not: fix them here so the ascent sees correct totals.
        let mut i = node;
        loop {
            scratch[i] += added;
            if i == 1 {
                break;
            }
            i /= 2;
        }
    }

    /// Adds up to `amount` valid pages under `node`, keeping children
    /// balanced (fill the lesser child first, then split evenly).
    /// Returns the number of pages actually added. Leaves that go from
    /// partial/empty to fuller are recorded as prefetch candidates.
    fn fill_down(
        &self,
        scratch: &mut [u32],
        node: usize,
        amount: u32,
        picked: &mut Vec<BasicBlockId>,
    ) -> u32 {
        if amount == 0 {
            return 0;
        }
        let leaves_start = self.valid.len() / 2;
        if node >= leaves_start {
            let take = amount.min(LEAF_PAGES - scratch[node]);
            if take > 0 {
                scratch[node] += take;
                picked.push(self.block_of_leaf(node));
            }
            return take;
        }
        let (l, r) = (2 * node, 2 * node + 1);
        let mut remaining = amount;
        let mut added = 0;
        // Phase 1: raise the lesser child to the greater.
        let (vl, vr) = (scratch[l], scratch[r]);
        if vl < vr {
            let d = remaining.min(vr - vl);
            let a = self.fill_down(scratch, l, d, picked);
            added += a;
            remaining -= a;
        } else if vr < vl {
            let d = remaining.min(vl - vr);
            let a = self.fill_down(scratch, r, d, picked);
            added += a;
            remaining -= a;
        }
        // Phase 2: split the remainder evenly (left gets the ceil).
        if remaining > 0 {
            let half = remaining.div_ceil(2);
            let a = self.fill_down(scratch, l, half, picked);
            let b = self.fill_down(scratch, r, remaining - a, picked);
            // Any slack the right child could not absorb goes back left.
            let slack = remaining - a - b;
            let c = if slack > 0 {
                self.fill_down(scratch, l, slack, picked)
            } else {
                0
            };
            added += a + b + c;
        }
        scratch[node] = scratch[l] + scratch[r];
        added
    }

    /// TBNe: given the pre-eviction of `victim_block`, returns the
    /// additional basic blocks the tree-based neighborhood pre-eviction
    /// policy evicts, in ascending block order.
    ///
    /// The plan assumes `victim_block` itself is evicted in full (the
    /// caller applies that and the plan via
    /// [`clear_block`](Self::clear_block)); this method does **not**
    /// mutate the tree.
    ///
    /// Semantics (Sec. 5.2): with the victim block removed, walk from
    /// the victim leaf to the root; at every ancestor whose valid size
    /// strictly drops below 50 % of its capacity, balance its children
    /// by lowering the greater to the lesser, pushing the drain down to
    /// leaves. Newly-emptied leaves are the pre-eviction candidates.
    pub fn plan_eviction(&self, victim_block: BasicBlockId) -> Vec<BasicBlockId> {
        let mut picked = Vec::new();
        self.plan_eviction_into(victim_block, &mut Vec::new(), &mut picked);
        picked
    }

    /// [`plan_eviction`](Self::plan_eviction) into caller-owned
    /// buffers, like [`plan_prefetch_into`](Self::plan_prefetch_into).
    pub fn plan_eviction_into(
        &self,
        victim_block: BasicBlockId,
        scratch: &mut Vec<u32>,
        picked: &mut Vec<BasicBlockId>,
    ) {
        scratch.clone_from(&self.valid);
        picked.clear();
        let leaf = self.leaf_index(victim_block);
        let loss = scratch[leaf];
        let mut i = leaf;
        loop {
            scratch[i] -= loss;
            if i == 1 {
                break;
            }
            i /= 2;
        }

        let mut node = leaf / 2;
        while node >= 1 {
            if scratch[node] * 2 < self.node_capacity(node) {
                self.balance_down(scratch, node, picked);
            }
            if node == 1 {
                break;
            }
            node /= 2;
        }
        picked.sort_unstable_by_key(|b| b.index());
        picked.dedup();
    }

    /// Equalize the children of `node` by lowering the greater child to
    /// the lesser, recording newly-emptied leaves in `picked`.
    fn balance_down(&self, scratch: &mut [u32], node: usize, picked: &mut Vec<BasicBlockId>) {
        let leaves_start = self.valid.len() / 2;
        if node >= leaves_start {
            return;
        }
        let (l, r) = (2 * node, 2 * node + 1);
        let (vl, vr) = (scratch[l], scratch[r]);
        let (greater, delta) = if vl > vr {
            (l, vl - vr)
        } else if vr > vl {
            (r, vr - vl)
        } else {
            return;
        };
        let removed = self.drain_down(scratch, greater, delta, picked);
        let mut i = node;
        loop {
            scratch[i] -= removed;
            if i == 1 {
                break;
            }
            i /= 2;
        }
    }

    /// Removes up to `amount` valid pages under `node`, keeping children
    /// balanced (drain the greater child first, then split evenly).
    /// Returns the number of pages actually removed. Leaves drained of
    /// pages are recorded as eviction candidates.
    fn drain_down(
        &self,
        scratch: &mut [u32],
        node: usize,
        amount: u32,
        picked: &mut Vec<BasicBlockId>,
    ) -> u32 {
        if amount == 0 {
            return 0;
        }
        let leaves_start = self.valid.len() / 2;
        if node >= leaves_start {
            let take = amount.min(scratch[node]);
            if take > 0 {
                scratch[node] -= take;
                picked.push(self.block_of_leaf(node));
            }
            return take;
        }
        let (l, r) = (2 * node, 2 * node + 1);
        let mut remaining = amount;
        let mut removed = 0;
        let (vl, vr) = (scratch[l], scratch[r]);
        if vl > vr {
            let d = remaining.min(vl - vr);
            let a = self.drain_down(scratch, l, d, picked);
            removed += a;
            remaining -= a;
        } else if vr > vl {
            let d = remaining.min(vr - vl);
            let a = self.drain_down(scratch, r, d, picked);
            removed += a;
            remaining -= a;
        }
        if remaining > 0 {
            let half = remaining.div_ceil(2);
            let a = self.drain_down(scratch, l, half, picked);
            let b = self.drain_down(scratch, r, remaining - a, picked);
            let slack = remaining - a - b;
            let c = if slack > 0 {
                self.drain_down(scratch, l, slack, picked)
            } else {
                0
            };
            removed += a + b + c;
        }
        scratch[node] = scratch[l] + scratch[r];
        removed
    }

    /// Checks the structural invariant: every internal node's valid
    /// count equals the sum of its children's, and no leaf exceeds its
    /// 16-page capacity.
    ///
    /// # Panics
    ///
    /// Panics if the invariant is violated (a bug in this crate).
    pub fn check_invariants(&self) {
        if let Some((i, have, sum)) = self.inner_node_mismatches().next() {
            panic!("node {i} out of sync: holds {have}, children sum to {sum}");
        }
        let leaves_start = self.valid.len() / 2;
        for i in leaves_start..self.valid.len() {
            assert!(self.valid[i] <= LEAF_PAGES, "leaf {i} over capacity");
        }
    }

    /// Every inner node whose valid count differs from the sum of its
    /// two children's, as `(heap index, count, children's sum)` — empty
    /// for a consistent tree. The non-panicking half of
    /// [`check_invariants`](Self::check_invariants), for auditors that
    /// report every violation.
    pub fn inner_node_mismatches(&self) -> impl Iterator<Item = (usize, u32, u32)> + '_ {
        (1..self.valid.len() / 2).filter_map(|i| {
            let sum = self.valid[2 * i] + self.valid[2 * i + 1];
            (self.valid[i] != sum).then_some((i, self.valid[i], sum))
        })
    }

    /// Overwrites one node's count behind the tree's back, for tests
    /// that plant an inconsistency.
    #[cfg(test)]
    pub(crate) fn plant_node_count(&mut self, node: usize, count: u32) {
        self.valid[node] = count;
    }
}

/// Groups a sorted list of basic blocks into maximal runs of contiguous
/// blocks — the paper's GMMU "groups them together to take advantage of
/// higher bandwidth" (Fig. 2b discussion).
///
/// # Examples
///
/// ```
/// use uvm_core::group_contiguous;
/// use uvm_types::BasicBlockId;
///
/// let blocks: Vec<_> = [0u64, 1, 2, 5, 7, 8].iter().map(|&i| BasicBlockId::new(i)).collect();
/// let runs: Vec<_> = group_contiguous(&blocks).collect();
/// assert_eq!(runs.len(), 3);
/// assert_eq!(runs[0], (BasicBlockId::new(0), 3));
/// assert_eq!(runs[1], (BasicBlockId::new(5), 1));
/// assert_eq!(runs[2], (BasicBlockId::new(7), 2));
/// ```
pub fn group_contiguous(
    sorted_blocks: &[BasicBlockId],
) -> impl Iterator<Item = (BasicBlockId, u64)> + '_ {
    sorted_blocks
        .chunk_by(|a, b| a.index() + 1 == b.index())
        .map(|run| (run[0], run.len() as u64))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tree8() -> AllocTree {
        AllocTree::new(TreeExtent {
            first_block: BasicBlockId::new(0),
            num_blocks: 8,
        })
    }

    fn bb(i: u64) -> BasicBlockId {
        BasicBlockId::new(i)
    }

    /// Paper Fig. 2(a): faults on blocks 1,3,5,7 then block 0.
    #[test]
    fn tbnp_figure2a() {
        let mut t = tree8();
        for b in [1, 3, 5, 7] {
            assert!(
                t.plan_prefetch(bb(b)).is_empty(),
                "fault {b} must not prefetch"
            );
            t.fill_block(bb(b));
            t.check_invariants();
        }
        // Fifth access: block 0. Paper: prefetch N0^2, then N0^4 and N0^6.
        let plan = t.plan_prefetch(bb(0));
        assert_eq!(plan, vec![bb(2), bb(4), bb(6)]);
        // Applying the plan fills the whole 512 KB chunk.
        t.fill_block(bb(0));
        for b in plan {
            t.fill_block(b);
        }
        assert_eq!(t.root_valid_pages(), t.capacity_pages());
        t.check_invariants();
    }

    /// Paper Fig. 2(b): faults on blocks 1, 3, 0, then 4.
    #[test]
    fn tbnp_figure2b() {
        let mut t = tree8();
        assert!(t.plan_prefetch(bb(1)).is_empty());
        t.fill_block(bb(1));
        assert!(t.plan_prefetch(bb(3)).is_empty());
        t.fill_block(bb(3));
        // Third access, block 0: N2^0 to-be 192KB > 128KB -> prefetch block 2.
        let plan = t.plan_prefetch(bb(0));
        assert_eq!(plan, vec![bb(2)]);
        t.fill_block(bb(0));
        t.fill_block(bb(2));
        // Fourth access, block 4: root to-be 320KB > 256KB -> blocks 5,6,7.
        let plan = t.plan_prefetch(bb(4));
        assert_eq!(plan, vec![bb(5), bb(6), bb(7)]);
        // Contiguity grouping: blocks 4(fault),5,6,7 group into one run.
        let mut all = vec![bb(4)];
        all.extend(plan);
        let runs: Vec<_> = group_contiguous(&all).collect();
        assert_eq!(runs, vec![(bb(4), 4)]);
    }

    /// Paper Fig. 8: TBNe on a fully valid 512 KB chunk; LRU evicts
    /// blocks 1, 3, 4, then block 0 cascades.
    #[test]
    fn tbne_figure8() {
        let mut t = tree8();
        for b in 0..8 {
            t.fill_block(bb(b));
        }
        for b in [1, 3, 4] {
            assert!(
                t.plan_eviction(bb(b)).is_empty(),
                "evicting {b} must not cascade"
            );
            t.clear_block(bb(b));
            t.check_invariants();
        }
        // Fourth eviction: block 0. Paper: pre-evict N0^2, then N0^5, N0^6, N0^7.
        let plan = t.plan_eviction(bb(0));
        assert_eq!(plan, vec![bb(2), bb(5), bb(6), bb(7)]);
        t.clear_block(bb(0));
        for b in plan {
            t.clear_block(b);
        }
        assert_eq!(t.root_valid_pages(), 0);
        t.check_invariants();
    }

    #[test]
    fn prefetch_max_is_1020kb_on_2mb_tree() {
        // The paper notes TBNp can prefetch at most 1020 KB at once on a
        // 2 MB tree (Fig. 2b-style pattern scaled up): fill the first
        // half minus nothing... reproduce by touching blocks so that one
        // fault trips the root. Blocks 0..16 valid except fault target
        // brings root beyond 50%.
        let mut t = AllocTree::new(TreeExtent {
            first_block: BasicBlockId::new(0),
            num_blocks: 32,
        });
        for b in 0..16 {
            t.fill_block(bb(b));
        }
        // Root at exactly 50%. Fault on block 16: root to-be = 17/32 > 1/2
        // -> fill to 32 blocks: prefetch 17..32 except fault = 15 blocks
        // = 960 KB; plus 60 KB of the fault block's prefetch group = 1020 KB.
        let plan = t.plan_prefetch(bb(16));
        let expect: Vec<_> = (17..32).map(bb).collect();
        assert_eq!(plan, expect);
    }

    #[test]
    fn prefetch_plan_does_not_mutate() {
        let mut t = tree8();
        t.fill_block(bb(1));
        let before = t.root_valid_pages();
        let _ = t.plan_prefetch(bb(0));
        assert_eq!(t.root_valid_pages(), before);
        let _ = t.plan_eviction(bb(1));
        assert_eq!(t.root_valid_pages(), before);
    }

    #[test]
    fn partial_blocks_counted() {
        let mut t = tree8();
        t.add_pages(bb(0), 4);
        assert_eq!(t.block_valid_pages(bb(0)), 4);
        assert!(!t.block_full(bb(0)));
        t.add_pages(bb(0), 12);
        assert!(t.block_full(bb(0)));
        t.remove_pages(bb(0), 16);
        assert_eq!(t.root_valid_pages(), 0);
        t.check_invariants();
    }

    #[test]
    #[should_panic(expected = "exceed capacity")]
    fn overfill_panics() {
        let mut t = tree8();
        t.add_pages(bb(0), 17);
    }

    #[test]
    #[should_panic(expected = "fewer than")]
    fn overdrain_panics() {
        let mut t = tree8();
        t.remove_pages(bb(0), 1);
    }

    #[test]
    #[should_panic(expected = "outside tree extent")]
    fn out_of_extent_block_panics() {
        let t = tree8();
        let _ = t.block_valid_pages(bb(8));
    }

    #[test]
    #[should_panic(expected = "power-of-two")]
    fn non_pow2_extent_rejected() {
        let _ = AllocTree::new(TreeExtent {
            first_block: BasicBlockId::new(0),
            num_blocks: 6,
        });
    }

    #[test]
    fn single_leaf_tree_never_cascades() {
        let mut t = AllocTree::new(TreeExtent {
            first_block: BasicBlockId::new(5),
            num_blocks: 1,
        });
        assert!(t.plan_prefetch(bb(5)).is_empty());
        t.fill_block(bb(5));
        assert!(t.plan_eviction(bb(5)).is_empty());
    }

    #[test]
    fn eviction_on_partial_tree_respects_balance() {
        // Valid: blocks 0..4 full (256 KB). Evict block 0: root drops to
        // 192 < 256 (50% of 512) -> lower greater child (left, 192) to
        // lesser (right, 0): drain everything.
        let mut t = tree8();
        for b in 0..4 {
            t.fill_block(bb(b));
        }
        let plan = t.plan_eviction(bb(0));
        assert_eq!(plan, vec![bb(1), bb(2), bb(3)]);
    }

    #[test]
    fn sequential_fill_prefetches_forward() {
        // Sequential faults 0,1,2,... on an 8-leaf tree: fault on block 1
        // trips N1^0 (100%) and N2^0 (128/256 = 50%, no). Fault 2 trips
        // N2^0 (192>128): prefetch 3. Fault 4 trips root: prefetch 5,6,7.
        let mut t = tree8();
        assert!(t.plan_prefetch(bb(0)).is_empty());
        t.fill_block(bb(0));
        assert!(t.plan_prefetch(bb(1)).is_empty());
        t.fill_block(bb(1));
        assert_eq!(t.plan_prefetch(bb(2)), vec![bb(3)]);
        t.fill_block(bb(2));
        t.fill_block(bb(3));
        assert_eq!(t.plan_prefetch(bb(4)), vec![bb(5), bb(6), bb(7)]);
    }

    #[test]
    fn group_contiguous_edge_cases() {
        let runs = |blocks: &[BasicBlockId]| group_contiguous(blocks).collect::<Vec<_>>();
        assert!(runs(&[]).is_empty());
        assert_eq!(runs(&[bb(3)]), vec![(bb(3), 1)]);
        assert_eq!(runs(&[bb(1), bb(2), bb(4)]), vec![(bb(1), 2), (bb(4), 1)]);
        // A repeated block starts a new run.
        assert_eq!(runs(&[bb(1), bb(1)]), vec![(bb(1), 1), (bb(1), 1)]);
    }
}
