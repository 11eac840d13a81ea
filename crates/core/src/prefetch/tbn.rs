//! TBNp: the tree-based neighborhood prefetcher of paper Sec. 3.3.

use uvm_types::rng::SmallRng;
use uvm_types::{BasicBlockId, PageId, PAGES_PER_BASIC_BLOCK};

use crate::alloc::AllocId;
use crate::groups::PageGroups;
use crate::tree::group_contiguous;
use crate::view::ResidencyView;

use super::Prefetcher;

/// TBNp: tree-balancing prefetch reverse-engineered from the NVIDIA
/// driver. Contiguous candidate blocks are grouped into single
/// transfers; the run containing the faulty page contributes its
/// remaining pages as one group.
///
/// The per-allocation trees the plan reads are *shared* residency
/// metadata — TBNe reads the same trees — so they live with the
/// allocations (maintained by the mechanism on admit/expel) and are
/// reached read-only through the view.
#[derive(Clone, Debug, Default)]
pub struct TbnPrefetcher {
    planner: TbnPlanner,
}

impl Prefetcher for TbnPrefetcher {
    fn name(&self) -> &'static str {
        "TBNp"
    }

    fn plan(
        &mut self,
        view: &ResidencyView<'_>,
        _rng: &mut SmallRng,
        page: PageId,
        alloc: AllocId,
        groups: &mut PageGroups,
    ) {
        self.planner.plan(view, page, alloc, groups);
    }

    fn box_clone(&self) -> Box<dyn Prefetcher> {
        Box::new(self.clone())
    }
}

/// The tree-based neighborhood plan TBNp and MOSp share, with reusable
/// working buffers so a warm plan allocates nothing. The buffers carry
/// nothing from one fault to the next, so there is no state to save.
#[derive(Clone, Debug, Default)]
pub(super) struct TbnPlanner {
    /// Working node counts for the tree's water-filling.
    scratch: Vec<u32>,
    /// The planned blocks plus the fault block, ascending.
    blocks: Vec<BasicBlockId>,
}

impl TbnPlanner {
    /// Appends TBNp's groups for a fault on `page`: one group per run
    /// of contiguous planned blocks (the fault block included), minus
    /// the faulty page and every already-valid page.
    pub(super) fn plan(
        &mut self,
        view: &ResidencyView<'_>,
        page: PageId,
        alloc: AllocId,
        groups: &mut PageGroups,
    ) {
        let fault_block = page.basic_block();
        let tree = view
            .alloc(alloc)
            .tree_for_block(fault_block)
            .expect("fault block inside allocation has a tree");
        tree.plan_prefetch_into(fault_block, &mut self.scratch, &mut self.blocks);
        self.blocks.push(fault_block);
        self.blocks.sort_unstable_by_key(|b| b.index());

        for (start, len) in group_contiguous(&self.blocks) {
            for i in 0..len {
                let block = start.add(i);
                // The tree's per-leaf counts mirror page-table validity
                // exactly (maintained on admit/expel), so the common
                // all-invalid and all-valid leaves resolve without the
                // per-page PTE probes that used to dominate planning.
                match tree.block_valid_pages(block) {
                    0 => groups.extend(block.pages().filter(|&p| p != page)),
                    v if v == PAGES_PER_BASIC_BLOCK as u32 => {}
                    _ => groups.extend(block.pages().filter(|&p| p != page && !view.is_valid(p))),
                }
            }
            groups.end_group();
        }
    }
}
