//! SZp: the 512 KB locality-aware prefetcher of Zheng et al. [26].

use uvm_types::rng::SmallRng;
use uvm_types::PageId;

use crate::alloc::AllocId;
use crate::groups::PageGroups;
use crate::view::ResidencyView;

use super::Prefetcher;

/// SZp: 128 consecutive 4 KB pages starting from the faulty page,
/// clipped to the allocation extent, moved as one transfer. Crosses
/// 64 KB block boundaries (and potentially 2 MB boundaries), which is
/// exactly the coordination cost the paper's SLp avoids.
#[derive(Clone, Copy, Debug, Default)]
pub struct Sz512kPrefetcher;

impl Prefetcher for Sz512kPrefetcher {
    fn name(&self) -> &'static str {
        "SZp"
    }

    fn plan(
        &mut self,
        view: &ResidencyView<'_>,
        _rng: &mut SmallRng,
        page: PageId,
        alloc: AllocId,
        groups: &mut PageGroups,
    ) {
        let end = view.alloc(alloc).end_page().index();
        groups.push_group(
            (page.index() + 1..(page.index() + 128).min(end))
                .map(PageId::new)
                .filter(|&p| !view.is_valid(p)),
        );
    }

    fn box_clone(&self) -> Box<dyn Prefetcher> {
        Box::new(*self)
    }
}
