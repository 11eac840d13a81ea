//! SLp: the sequential-local prefetcher of paper Sec. 3.2.

use uvm_types::rng::SmallRng;
use uvm_types::PageId;

use crate::alloc::AllocId;
use crate::groups::PageGroups;
use crate::view::ResidencyView;

use super::Prefetcher;

/// SLp: the remaining invalid pages of the faulty page's 64 KB basic
/// block, as one prefetch-group transfer.
#[derive(Clone, Copy, Debug, Default)]
pub struct SlPrefetcher;

impl Prefetcher for SlPrefetcher {
    fn name(&self) -> &'static str {
        "SLp"
    }

    fn plan(
        &mut self,
        view: &ResidencyView<'_>,
        _rng: &mut SmallRng,
        page: PageId,
        _alloc: AllocId,
        groups: &mut PageGroups,
    ) {
        groups.push_group(
            page.basic_block()
                .pages()
                .filter(|&p| p != page && !view.is_valid(p)),
        );
    }

    fn box_clone(&self) -> Box<dyn Prefetcher> {
        Box::new(*self)
    }
}
