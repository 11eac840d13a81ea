//! Re: random 4 KB eviction (paper Sec. 4.2).

use uvm_types::rng::SmallRng;
use uvm_types::{Cycle, PageId};

use crate::groups::PageGroups;
use crate::view::ResidencyView;

use super::Evictor;

/// Re: a uniformly random resident page. Stateless — the resident set
/// and the driver's seeded random stream are both supplied per call.
#[derive(Clone, Copy, Debug, Default)]
pub struct RandomPageEvictor;

impl RandomPageEvictor {
    fn pick(
        &self,
        view: &ResidencyView<'_>,
        rng: &mut SmallRng,
        t: Cycle,
        max_pin: u8,
    ) -> Option<PageId> {
        for _ in 0..32 {
            let p = view.sample_resident(rng)?;
            if view.pin_level(p, t) <= max_pin {
                return Some(p);
            }
        }
        view.resident_iter()
            .find(|&p| view.pin_level(p, t) <= max_pin)
    }
}

impl Evictor for RandomPageEvictor {
    fn name(&self) -> &'static str {
        "Re"
    }

    fn is_pre_eviction(&self) -> bool {
        false
    }

    fn select_victims(
        &mut self,
        view: &ResidencyView<'_>,
        rng: &mut SmallRng,
        t: Cycle,
        max_pin: u8,
        victims: &mut PageGroups,
    ) {
        victims.push_group(self.pick(view, rng, t, max_pin));
    }

    fn box_clone(&self) -> Box<dyn Evictor> {
        Box::new(*self)
    }
}
