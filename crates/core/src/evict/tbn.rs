//! TBNe: tree-based neighborhood pre-eviction (paper Sec. 5.2).

use uvm_types::rng::SmallRng;
use uvm_types::{BasicBlockId, Cycle, PageId};

use crate::groups::PageGroups;
use crate::hier::HierarchicalLru;
use crate::tree::group_contiguous;
use crate::view::ResidencyView;

use super::Evictor;

/// TBNe: the LRU basic block plus the allocation tree's eviction
/// cascade, grouped into contiguous write-back transfers. The
/// granularity floats between 64 KB and 1 MB with the tree balance.
/// Owns the hierarchical valid-page list; the trees are shared
/// residency metadata read through the view (TBNp reads the same
/// trees).
#[derive(Clone, Debug, Default)]
pub struct TbnEvictor {
    hier: HierarchicalLru,
    /// Working node counts for the tree's cascade plan. Reused across
    /// evictions but carrying nothing between them, so `save_state`
    /// skips it.
    scratch: Vec<u32>,
    /// The victim block plus its cascade, ascending (reused likewise).
    blocks: Vec<BasicBlockId>,
}

impl TbnEvictor {
    /// An evictor with an empty hierarchical list.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Evictor for TbnEvictor {
    fn name(&self) -> &'static str {
        "TBNe"
    }

    fn is_pre_eviction(&self) -> bool {
        true
    }

    fn on_validate(&mut self, page: PageId) {
        self.hier.on_validate(page);
    }

    fn on_access(&mut self, page: PageId) {
        self.hier.on_access(page);
    }

    fn on_invalidate(&mut self, page: PageId) {
        self.hier.on_invalidate_page(page);
    }

    fn select_victims(
        &mut self,
        view: &ResidencyView<'_>,
        _rng: &mut SmallRng,
        t: Cycle,
        max_pin: u8,
        victims: &mut PageGroups,
    ) {
        let TbnEvictor {
            hier,
            scratch,
            blocks,
        } = self;
        let reserve = (view.reserve_frac() * hier.total_pages() as f64).floor() as u64;
        let Some(victim) = hier
            .candidate(reserve, |b| view.block_evictable(b, t, max_pin))
            .or_else(|| hier.candidate(0, |b| view.block_evictable(b, t, max_pin)))
        else {
            return;
        };
        blocks.clear();
        if let Some(tree) = view
            .allocations()
            .find_by_page(victim.first_page())
            .and_then(|a| a.tree_for_block(victim))
        {
            tree.plan_eviction_into(victim, scratch, blocks);
        }
        blocks.retain(|&b| view.block_evictable(b, t, max_pin) && hier.block_pages(b) > 0);
        blocks.push(victim);
        blocks.sort_unstable_by_key(|b| b.index());
        blocks.dedup();
        for (start, len) in group_contiguous(blocks) {
            for i in 0..len {
                view.evictable_pages_of_block(start.add(i), t, max_pin, victims);
            }
            victims.end_group();
        }
    }

    fn box_clone(&self) -> Box<dyn Evictor> {
        Box::new(self.clone())
    }

    fn save_state(&self, w: &mut uvm_types::codec::ByteWriter) {
        self.hier.save_state(w);
    }

    fn load_state(
        &mut self,
        r: &mut uvm_types::codec::ByteReader<'_>,
    ) -> Result<(), uvm_types::codec::CodecError> {
        self.hier = HierarchicalLru::load_state(r)?;
        Ok(())
    }
}
