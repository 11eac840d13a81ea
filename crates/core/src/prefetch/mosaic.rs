//! MOSp: the Mosaic-style coalescing prefetcher.

use uvm_types::rng::SmallRng;
use uvm_types::{LargePageId, PageId, PAGES_PER_LARGE_PAGE};

use crate::alloc::AllocId;
use crate::groups::PageGroups;
use crate::view::ResidencyView;

use super::tbn::TbnPlanner;
use super::Prefetcher;

/// Once a faulting large page's residency reaches this fraction, MOSp
/// plans the whole remainder so the page can coalesce.
const FINISH_THRESHOLD: u64 = PAGES_PER_LARGE_PAGE / 2;

/// MOSp: tree-based neighborhood prefetch plus "finish the large page".
///
/// Mosaic's observation is that application-transparent huge pages pay
/// off only when the OS/driver *completes* large pages instead of
/// leaving them fractured. MOSp therefore plans exactly like TBNp on a
/// fault, and additionally, once the faulting large page is at least
/// half resident, appends the rest of that 2 MB range so it reaches
/// full residency and can be promoted to one huge mapping. It is the
/// only built-in prefetcher that requests contiguous frame placement
/// ([`wants_contiguous_placement`](Prefetcher::wants_contiguous_placement))
/// and approves coalescing ([`should_coalesce`](Prefetcher::should_coalesce)).
///
/// The mechanism still trims every plan to the free-frame budget, so
/// the finish-the-page groups are dropped first under pressure (they
/// are appended after the tree plan).
#[derive(Clone, Debug, Default)]
pub struct MosaicPrefetcher {
    planner: TbnPlanner,
}

impl MosaicPrefetcher {
    /// A stateless MOSp instance.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Prefetcher for MosaicPrefetcher {
    fn name(&self) -> &'static str {
        "MOSp"
    }

    fn plan(
        &mut self,
        view: &ResidencyView<'_>,
        _rng: &mut SmallRng,
        page: PageId,
        alloc: AllocId,
        groups: &mut PageGroups,
    ) {
        let tree_planned = groups.pages().len();
        self.planner.plan(view, page, alloc, groups);

        // Finish the faulting large page once it is half resident: the
        // planned pages above count toward the target, so the remainder
        // is whatever neither the tree plan nor residency covers.
        let lp = page.large_page();
        let first = lp.first_page();
        let mut in_plan = [0u64; (PAGES_PER_LARGE_PAGE / 64) as usize];
        let bit = |p: PageId| (p.index() - first.index()) as usize;
        for &p in &groups.pages()[tree_planned..] {
            if p.large_page() == lp {
                in_plan[bit(p) / 64] |= 1 << (bit(p) % 64);
            }
        }
        let planned_in_lp: u64 = in_plan.iter().map(|w| u64::from(w.count_ones())).sum();
        if view.large_page_residency(lp) + planned_in_lp + 1 >= FINISH_THRESHOLD {
            let alloc = view.alloc(alloc);
            groups.push_group(
                (0..PAGES_PER_LARGE_PAGE)
                    .map(|k| first.add(k))
                    .filter(|&p| {
                        p != page
                            && alloc.contains_page(p)
                            && in_plan[bit(p) / 64] & (1 << (bit(p) % 64)) == 0
                            && !view.is_valid(p)
                    }),
            );
        }
    }

    fn wants_contiguous_placement(&self) -> bool {
        true
    }

    fn should_coalesce(&self, _view: &ResidencyView<'_>, _lp: LargePageId) -> bool {
        true
    }

    fn box_clone(&self) -> Box<dyn Prefetcher> {
        Box::new(self.clone())
    }
}
