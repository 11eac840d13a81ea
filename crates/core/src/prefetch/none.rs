//! No prefetching: pure 4 KB on-demand migration.

use uvm_types::rng::SmallRng;
use uvm_types::PageId;

use crate::alloc::AllocId;
use crate::groups::PageGroups;
use crate::view::ResidencyView;

use super::Prefetcher;

/// The on-demand baseline — never prefetches anything.
#[derive(Clone, Copy, Debug, Default)]
pub struct NonePrefetcher;

impl Prefetcher for NonePrefetcher {
    fn name(&self) -> &'static str {
        "none"
    }

    fn plan(
        &mut self,
        _view: &ResidencyView<'_>,
        _rng: &mut SmallRng,
        _page: PageId,
        _alloc: AllocId,
        _groups: &mut PageGroups,
    ) {
    }

    fn box_clone(&self) -> Box<dyn Prefetcher> {
        Box::new(*self)
    }
}
