//! Rp: the random prefetcher of paper Sec. 3.1.

use uvm_types::rng::{Rng, SmallRng};
use uvm_types::{PageId, PAGES_PER_LARGE_PAGE};

use crate::alloc::AllocId;
use crate::groups::PageGroups;
use crate::view::ResidencyView;

use super::Prefetcher;

/// Rp: one random invalid 4 KB page from the faulty page's 2 MB large
/// page, clipped to the allocation extent.
#[derive(Clone, Copy, Debug, Default)]
pub struct RandomPrefetcher;

impl Prefetcher for RandomPrefetcher {
    fn name(&self) -> &'static str {
        "Rp"
    }

    fn plan(
        &mut self,
        view: &ResidencyView<'_>,
        rng: &mut SmallRng,
        page: PageId,
        alloc: AllocId,
        groups: &mut PageGroups,
    ) {
        let alloc = view.alloc(alloc);
        let lp_first = page.large_page().first_page();
        let start = lp_first.index().max(alloc.first_page().index());
        let end = (lp_first.index() + PAGES_PER_LARGE_PAGE).min(alloc.end_page().index());
        // Count, draw, then walk to the pick: the same uniform choice
        // as indexing a collected candidate list, without the list.
        let candidates = || {
            (start..end)
                .map(PageId::new)
                .filter(|&p| p != page && !view.is_valid(p))
        };
        let n = candidates().count();
        if n == 0 {
            return;
        }
        let pick = candidates()
            .nth(rng.gen_range(0..n))
            .expect("pick below the candidate count");
        groups.push_group([pick]);
    }

    fn box_clone(&self) -> Box<dyn Prefetcher> {
        Box::new(*self)
    }
}
