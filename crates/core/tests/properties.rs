//! Randomized-property tests for the paper's core mechanisms: the
//! full binary tree (TBNp/TBNe), the LRU structures, and the GMMU
//! driver. Driven by seeded `SmallRng` case loops.

use std::collections::{BTreeMap, HashSet};

use uvm_core::{
    AllocTree, Allocations, EvictPolicy, Gmmu, HierarchicalLru, LruQueue, PrefetchPolicy, UvmConfig,
};
use uvm_types::codec::{ByteReader, ByteWriter};
use uvm_types::rng::{Rng, SmallRng};
use uvm_types::{
    BasicBlockId, Bytes, Cycle, LargePageId, PageId, TreeExtent, PAGES_PER_BASIC_BLOCK,
};

const CASES: usize = 256;

fn random_tree(rng: &mut SmallRng) -> AllocTree {
    let h = rng.gen_range(0u32..6);
    AllocTree::new(TreeExtent {
        first_block: BasicBlockId::new(0),
        num_blocks: 1 << h,
    })
}

/// TBNp: prefetch plans only ever name blocks with free capacity,
/// never the fault block, and never duplicate; applying the plan
/// keeps the tree's internal sums consistent.
#[test]
fn prefetch_plan_is_sound() {
    let mut rng = SmallRng::seed_from_u64(0xc0e1);
    for _ in 0..CASES {
        let mut tree = random_tree(&mut rng);
        let n = tree.extent().num_blocks;
        let fills = rng.gen_range(0usize..32);
        for _ in 0..fills {
            let block = BasicBlockId::new(rng.gen_range(0u64..32) % n);
            if !tree.block_full(block) {
                tree.fill_block(block);
            }
        }
        let fault_block = BasicBlockId::new(rng.gen_range(0u64..32) % n);
        if tree.block_full(fault_block) {
            continue; // a full block cannot fault
        }
        let before = tree.root_valid_pages();
        let plan = tree.plan_prefetch(fault_block);
        assert_eq!(tree.root_valid_pages(), before, "plan must not mutate");

        let mut seen = HashSet::new();
        for b in &plan {
            assert!(tree.extent().contains(*b), "plan inside the tree");
            assert!(*b != fault_block, "fault block not re-planned");
            assert!(seen.insert(*b), "no duplicates");
            assert!(!tree.block_full(*b), "only blocks with invalid pages");
        }
        // Applying the plan never overflows the tree.
        tree.fill_block(fault_block);
        for b in plan {
            tree.fill_block(b);
        }
        tree.check_invariants();
        assert!(tree.root_valid_pages() <= tree.capacity_pages());
    }
}

/// TBNe mirrors TBNp: eviction plans name only valid blocks, never
/// the victim, and applying them never underflows.
#[test]
fn eviction_plan_is_sound() {
    let mut rng = SmallRng::seed_from_u64(0xc0e2);
    for _ in 0..CASES {
        let mut tree = random_tree(&mut rng);
        let n = tree.extent().num_blocks;
        let fills = rng.gen_range(1usize..32);
        for _ in 0..fills {
            let block = BasicBlockId::new(rng.gen_range(0u64..32) % n);
            if !tree.block_full(block) {
                tree.fill_block(block);
            }
        }
        let victim_block = BasicBlockId::new(rng.gen_range(0u64..32) % n);
        if tree.block_valid_pages(victim_block) == 0 {
            continue; // nothing to evict there
        }
        let plan = tree.plan_eviction(victim_block);
        let mut seen = HashSet::new();
        for b in &plan {
            assert!(tree.extent().contains(*b));
            assert!(*b != victim_block);
            assert!(seen.insert(*b), "no duplicates");
            assert!(tree.block_valid_pages(*b) > 0, "only valid blocks evicted");
        }
        tree.clear_block(victim_block);
        for b in plan {
            tree.clear_block(b);
        }
        tree.check_invariants();
    }
}

/// The 50% rule: after any fault is serviced with its plan applied,
/// prefetching again for the same block yields nothing new (the plan
/// is a fixpoint).
#[test]
fn prefetch_plan_is_a_fixpoint() {
    let mut rng = SmallRng::seed_from_u64(0xc0e3);
    for _ in 0..CASES {
        let mut tree = random_tree(&mut rng);
        let n = tree.extent().num_blocks;
        let fault_block = BasicBlockId::new(rng.gen_range(0u64..32) % n);
        let plan = tree.plan_prefetch(fault_block);
        tree.fill_block(fault_block);
        for b in plan {
            tree.fill_block(b);
        }
        // The serviced fault leaves no pending obligation for itself
        // (soundness is re-checked by the other property).
        assert!(tree.block_full(fault_block));
    }
}

/// LruQueue behaves exactly like a reference model.
#[test]
fn lru_queue_matches_reference_model() {
    let mut rng = SmallRng::seed_from_u64(0xc0e4);
    for _ in 0..CASES {
        let mut q: LruQueue<u64> = LruQueue::new();
        let mut model: Vec<u64> = Vec::new(); // front = LRU
        let n = rng.gen_range(0usize..200);
        for _ in 0..n {
            let key = rng.gen_range(0u64..32);
            match rng.gen_range(0u32..2) {
                0 => {
                    q.touch(key);
                    model.retain(|&k| k != key);
                    model.push(key);
                }
                _ => {
                    let was = q.remove(&key);
                    assert_eq!(was, model.contains(&key));
                    model.retain(|&k| k != key);
                }
            }
            assert_eq!(q.len(), model.len());
            assert_eq!(q.peek_lru(), model.first());
            let order: Vec<u64> = q.iter().copied().collect();
            assert_eq!(&order, &model);
        }
    }
}

/// HierarchicalLru page accounting matches a reference count, and the
/// candidate (when one exists) is always a tracked block.
#[test]
fn hier_lru_accounting() {
    let mut rng = SmallRng::seed_from_u64(0xc0e5);
    for _ in 0..CASES {
        let mut h = HierarchicalLru::new();
        let mut resident: Vec<u64> = Vec::new();
        let n = rng.gen_range(0usize..300);
        for _ in 0..n {
            let page = rng.gen_range(0u64..256);
            let p = PageId::new(page);
            match rng.gen_range(0u32..3) {
                0 => {
                    h.on_validate(p);
                    resident.push(page);
                }
                1 => {
                    if resident.contains(&page) {
                        h.on_access(p);
                    }
                }
                _ => {
                    if let Some(pos) = resident.iter().position(|&x| x == page) {
                        resident.swap_remove(pos);
                        h.on_invalidate_page(p);
                    }
                }
            }
            assert_eq!(h.total_pages(), resident.len() as u64);
            match h.candidate(0, |_| true) {
                Some(bb) => {
                    assert!(h.block_pages(bb) > 0);
                    assert!(resident
                        .iter()
                        .any(|&pg| PageId::new(pg).basic_block() == bb));
                }
                None => assert!(resident.is_empty()),
            }
        }
    }
}

/// Naive reference for [`HierarchicalLru`]: large pages and, inside
/// each, basic blocks in `Vec`s ordered LRU first, plus per-block page
/// counts in a sorted map.
#[derive(Default)]
struct HierModel {
    /// `(large page, its blocks LRU first)`, LRU large page first.
    lps: Vec<(u64, Vec<u64>)>,
    /// Resident pages per basic block (absent = 0).
    counts: BTreeMap<u64, u32>,
}

impl HierModel {
    fn touch(&mut self, page: PageId) {
        let (lp, bb) = (page.large_page().index(), page.basic_block().index());
        let mut blocks = match self.lps.iter().position(|(l, _)| *l == lp) {
            Some(i) => self.lps.remove(i).1,
            None => Vec::new(),
        };
        blocks.retain(|&b| b != bb);
        blocks.push(bb);
        self.lps.push((lp, blocks));
    }

    fn validate(&mut self, page: PageId) {
        self.touch(page);
        *self.counts.entry(page.basic_block().index()).or_insert(0) += 1;
    }

    fn access(&mut self, page: PageId) {
        if self.counts.contains_key(&page.basic_block().index()) {
            self.touch(page);
        }
    }

    fn invalidate(&mut self, page: PageId) {
        let bb = page.basic_block().index();
        let count = self.counts.get_mut(&bb).unwrap();
        *count -= 1;
        if *count == 0 {
            self.counts.remove(&bb);
            let lp = page.large_page().index();
            let i = self.lps.iter().position(|(l, _)| *l == lp).unwrap();
            self.lps[i].1.retain(|&b| b != bb);
            if self.lps[i].1.is_empty() {
                self.lps.remove(i);
            }
        }
    }

    fn pages(&self, bb: u64) -> u64 {
        u64::from(self.counts.get(&bb).copied().unwrap_or(0))
    }

    fn total(&self) -> u64 {
        self.counts.values().map(|&c| u64::from(c)).sum()
    }

    fn candidate(&self, reserve: u64, eligible: impl Fn(u64) -> bool) -> Option<u64> {
        let mut skipped = 0;
        for (_, blocks) in &self.lps {
            for &bb in blocks {
                if skipped < reserve {
                    skipped += self.pages(bb);
                } else if eligible(bb) {
                    return Some(bb);
                }
            }
        }
        None
    }

    fn candidate_large_page(&self, reserve: u64, eligible: impl Fn(u64) -> bool) -> Option<u64> {
        let mut skipped = 0;
        for (lp, blocks) in &self.lps {
            if skipped < reserve {
                skipped += blocks.iter().map(|&b| self.pages(b)).sum::<u64>();
            } else if eligible(*lp) {
                return Some(*lp);
            }
        }
        None
    }

    /// The canonical checkpoint image: large pages LRU first, each
    /// with its blocks LRU first, then per-block counts in ascending
    /// block order, then the total.
    fn encode(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.put_usize(self.lps.len());
        for (lp, blocks) in &self.lps {
            w.put_u64(*lp);
            w.put_usize(blocks.len());
            for &bb in blocks {
                w.put_u64(bb);
            }
        }
        w.put_usize(self.counts.len());
        for (&bb, &count) in &self.counts {
            w.put_u64(bb);
            w.put_u32(count);
        }
        w.put_u64(self.total());
        w.into_bytes()
    }
}

/// HierarchicalLru matches the naive reference model step by step:
/// both candidate scans under random reservations and eligibility
/// masks, per-large-page block order, page accounting, and the
/// checkpoint image (which must also survive `load_state` →
/// `save_state` byte for byte).
#[test]
fn hier_lru_matches_reference_model() {
    let mut rng = SmallRng::seed_from_u64(0xc0e6);
    // Sparse large-page indices exercise dense-table growth and gaps.
    const LPS: [u64; 4] = [0, 1, 3, 9];
    for _ in 0..CASES {
        let mut h = HierarchicalLru::new();
        let mut model = HierModel::default();
        let mut resident: Vec<PageId> = Vec::new();
        let n = rng.gen_range(0usize..150);
        for _ in 0..n {
            let lp = LPS[rng.gen_range(0usize..LPS.len())];
            let block = rng.gen_range(0u64..8) * 4;
            let fresh = LargePageId::new(lp)
                .first_page()
                .add(block * PAGES_PER_BASIC_BLOCK + rng.gen_range(0u64..4));
            match rng.gen_range(0u32..3) {
                0 => {
                    h.on_validate(fresh);
                    model.validate(fresh);
                    resident.push(fresh);
                }
                1 => {
                    // Mostly resident pages; sometimes an untracked one,
                    // which both sides must ignore.
                    let p = if !resident.is_empty() && rng.gen_range(0u32..4) > 0 {
                        resident[rng.gen_range(0usize..resident.len())]
                    } else {
                        fresh
                    };
                    h.on_access(p);
                    model.access(p);
                }
                _ => {
                    if !resident.is_empty() {
                        let p = resident.swap_remove(rng.gen_range(0usize..resident.len()));
                        h.on_invalidate_page(p);
                        model.invalidate(p);
                    }
                }
            }

            assert_eq!(h.total_pages(), model.total());
            for &lp in &LPS {
                let order: Vec<u64> = h
                    .blocks_of(LargePageId::new(lp))
                    .map(|b| b.index())
                    .collect();
                let expected = model
                    .lps
                    .iter()
                    .find(|(l, _)| *l == lp)
                    .map_or(Vec::new(), |(_, b)| b.clone());
                assert_eq!(order, expected, "blocks_of(lp{lp})");
                let first = LargePageId::new(lp).first_basic_block();
                for bb in (0..32).map(|off| first.add(off)) {
                    assert_eq!(u64::from(h.block_pages(bb)), model.pages(bb.index()));
                }
            }
            for _ in 0..3 {
                let reserve = rng.gen_range(0u64..model.total() + 8);
                let mask = rng.next_u64();
                let keep = |i: u64| mask >> (i % 64) & 1 == 1;
                assert_eq!(
                    h.candidate(reserve, |b| keep(b.index())).map(|b| b.index()),
                    model.candidate(reserve, keep),
                    "candidate(reserve {reserve}, mask {mask:#x})"
                );
                assert_eq!(
                    h.candidate_large_page(reserve, |l| keep(l.index()))
                        .map(|l| l.index()),
                    model.candidate_large_page(reserve, keep),
                    "candidate_large_page(reserve {reserve}, mask {mask:#x})"
                );
            }

            let mut w = ByteWriter::new();
            h.save_state(&mut w);
            let image = w.into_bytes();
            assert_eq!(image, model.encode(), "checkpoint image");
            let restored = HierarchicalLru::load_state(&mut ByteReader::new(&image)).unwrap();
            let mut w = ByteWriter::new();
            restored.save_state(&mut w);
            assert_eq!(w.into_bytes(), image, "load_state -> save_state round trip");
        }
    }
}

fn pick_policy_pair(rng: &mut SmallRng) -> (PrefetchPolicy, EvictPolicy) {
    match rng.gen_range(0u32..5) {
        0 => (PrefetchPolicy::None, EvictPolicy::LruPage),
        1 => (PrefetchPolicy::Random, EvictPolicy::RandomPage),
        2 => (
            PrefetchPolicy::SequentialLocal,
            EvictPolicy::SequentialLocal,
        ),
        3 => (
            PrefetchPolicy::TreeBasedNeighborhood,
            EvictPolicy::TreeBasedNeighborhood,
        ),
        _ => (
            PrefetchPolicy::TreeBasedNeighborhood,
            EvictPolicy::LruLargePage,
        ),
    }
}

/// Driver-level conservation under random fault/access sequences:
/// residency never exceeds the budget, trees and page table agree,
/// and statistics balance.
#[test]
fn gmmu_conserves_under_random_traffic() {
    let mut rng = SmallRng::seed_from_u64(0xc0e6);
    for _ in 0..48 {
        let (prefetch, evict) = pick_policy_pair(&mut rng);
        let capacity_blocks = rng.gen_range(4u64..24);
        let num_accesses = rng.gen_range(1usize..150);
        let seed = rng.next_u64();
        let cfg = UvmConfig::default()
            .with_capacity(Bytes::kib(64) * capacity_blocks)
            .with_prefetch(prefetch)
            .with_evict(evict)
            .with_rng_seed(seed);
        let mut g = Gmmu::new(cfg);
        let base = g.malloc_managed(Bytes::mib(2));
        let mut now = Cycle::ZERO;
        for _ in 0..num_accesses {
            let page = rng.gen_range(0u64..512);
            let write = rng.gen_bool(0.5);
            let p = base.page().add(page);
            if !g.is_resident(p) {
                let res = g.handle_fault(p, now);
                now = res.fault_page_ready();
                let ready = res.ready.to_vec();
                // Every page in the resolution is now resident.
                for (rp, _) in ready {
                    assert!(g.is_resident(rp));
                }
            }
            g.record_access(p, write);
        }
        let stats = g.stats();
        assert!(g.resident_pages() <= g.capacity_frames());
        assert_eq!(
            stats.pages_migrated - stats.pages_evicted,
            g.resident_pages()
        );
        assert!(stats.pages_prefetched <= stats.pages_migrated);
        assert!(stats.far_faults <= stats.pages_migrated);
        assert!(stats.pages_thrashed <= stats.pages_evicted);
    }
}

#[test]
fn allocations_never_overlap() {
    let mut allocs = Allocations::new();
    let sizes = [100u64, 4096, 65_536, 2 << 20, (2 << 20) + 4096, 192 << 10];
    let mut claimed: HashSet<u64> = HashSet::new();
    for &s in &sizes {
        let id = allocs.allocate(Bytes::new(s));
        let a = allocs.get(id);
        for p in a.first_page().index()..a.end_page().index() {
            assert!(claimed.insert(p), "page {p} double-claimed");
        }
    }
}

#[test]
fn tree_block_page_granularity_interplay() {
    // Mixed partial/full residency: on-demand 4 KB migrations create
    // partial blocks; prefetch plans must still be applicable.
    let mut tree = AllocTree::new(TreeExtent {
        first_block: BasicBlockId::new(0),
        num_blocks: 8,
    });
    // 5 pages of block 0 resident (on-demand, prefetcher off).
    tree.add_pages(BasicBlockId::new(0), 5);
    // A fault on block 0 with the prefetcher on plans around the
    // partial block.
    let plan = tree.plan_prefetch(BasicBlockId::new(0));
    for b in plan {
        assert_ne!(b, BasicBlockId::new(0));
        tree.fill_block(b);
    }
    // Completing block 0 adds exactly the missing pages.
    tree.add_pages(BasicBlockId::new(0), PAGES_PER_BASIC_BLOCK as u32 - 5);
    assert!(tree.block_full(BasicBlockId::new(0)));
    tree.check_invariants();
}
