//! LRU-4KB: the CUDA-driver baseline eviction (paper Sec. 4.2).

use uvm_types::rng::SmallRng;
use uvm_types::{Cycle, PageId};

use crate::groups::PageGroups;
use crate::lru::LruQueue;
use crate::view::ResidencyView;

use super::Evictor;

/// LRU-4KB: evict the least-recently *accessed* page, honouring the
/// LRU-top reservation. The accessed-page LRU list is policy state —
/// pages enter it on first access, not on migration, so unaccessed
/// prefetched pages are invisible to it (the fallback scans the full
/// resident set instead).
#[derive(Clone, Debug, Default)]
pub struct LruPageEvictor {
    lru: LruQueue<PageId>,
}

impl LruPageEvictor {
    /// An evictor with an empty recency list.
    pub fn new() -> Self {
        Self::default()
    }

    fn pick(&self, view: &ResidencyView<'_>, t: Cycle, max_pin: u8) -> Option<PageId> {
        let reserved = (view.reserve_frac() * self.lru.len() as f64).floor() as usize;
        self.lru
            .iter()
            .skip(reserved)
            .find(|&&p| view.pin_level(p, t) <= max_pin)
            .copied()
            // If everything past the reservation is pinned, fall back
            // to reserved entries, then to any resident page
            // (unaccessed prefetched pages are invisible to the
            // traditional LRU list).
            .or_else(|| {
                self.lru
                    .iter()
                    .find(|&&p| view.pin_level(p, t) <= max_pin)
                    .copied()
            })
            .or_else(|| {
                view.resident_iter()
                    .find(|&p| view.pin_level(p, t) <= max_pin)
            })
    }
}

impl Evictor for LruPageEvictor {
    fn name(&self) -> &'static str {
        "LRU-4KB"
    }

    fn is_pre_eviction(&self) -> bool {
        false
    }

    fn on_access(&mut self, page: PageId) {
        self.lru.touch(page);
    }

    fn on_invalidate(&mut self, page: PageId) {
        self.lru.remove(&page);
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
        self.lru.save_state(w, |w, p| w.put_u64(p.index()));
    }

    fn load_state(
        &mut self,
        r: &mut uvm_types::codec::ByteReader<'_>,
    ) -> Result<(), uvm_types::codec::CodecError> {
        self.lru = LruQueue::load_state(r, |r| Ok(PageId::new(r.get_u64()?)))?;
        Ok(())
    }
}
