//! AFe: access-frequency (LFU) eviction, the out-of-core policy
//! proving the registry seam.
//!
//! A least-frequently-used counterpart to the recency policies the
//! paper studies: iterative workloads that re-touch a hot core keep
//! it resident even when a linear sweep would flush an LRU list.
//! Registered purely through the policy registry: the `Gmmu` mechanism
//! has no knowledge of it.

use uvm_types::rng::SmallRng;
use uvm_types::{Cycle, PageId};

use crate::dense::DensePageMap;
use crate::groups::PageGroups;
use crate::view::ResidencyView;

use super::Evictor;

/// AFe: evict the resident page with the fewest accesses during its
/// current residency (ties break toward the lowest page index, making
/// selection fully deterministic). Counts are policy state: they start
/// at zero on migration and are dropped on eviction, so a thrashing
/// page restarts cold.
#[derive(Clone, Debug, Default)]
pub struct FreqEvictor {
    counts: DensePageMap<u64>,
}

impl FreqEvictor {
    /// An evictor with no recorded accesses.
    pub fn new() -> Self {
        Self::default()
    }

    fn pick(&self, view: &ResidencyView<'_>, t: Cycle, max_pin: u8) -> Option<PageId> {
        view.resident_iter()
            .filter(|&p| view.pin_level(p, t) <= max_pin)
            .min_by_key(|&p| (self.counts.get(p).unwrap_or(0), p.index()))
    }
}

impl Evictor for FreqEvictor {
    fn name(&self) -> &'static str {
        "AFe"
    }

    fn is_pre_eviction(&self) -> bool {
        false
    }

    fn on_validate(&mut self, page: PageId) {
        self.counts.insert(page, 0);
    }

    fn on_access(&mut self, page: PageId) {
        let n = self.counts.get(page).unwrap_or(0);
        self.counts.insert(page, n + 1);
    }

    fn on_invalidate(&mut self, page: PageId) {
        self.counts.remove(page);
    }

    fn select_victims(
        &mut self,
        view: &ResidencyView<'_>,
        _rng: &mut SmallRng,
        t: Cycle,
        max_pin: u8,
        victims: &mut PageGroups,
    ) {
        victims.push_group(self.pick(view, t, max_pin));
    }

    fn box_clone(&self) -> Box<dyn Evictor> {
        Box::new(self.clone())
    }

    fn save_state(&self, w: &mut uvm_types::codec::ByteWriter) {
        self.counts.save_state(w, |w, v| w.put_u64(v));
    }

    fn load_state(
        &mut self,
        r: &mut uvm_types::codec::ByteReader<'_>,
    ) -> Result<(), uvm_types::codec::CodecError> {
        self.counts = DensePageMap::load_state(r, |r| r.get_u64())?;
        Ok(())
    }
}
