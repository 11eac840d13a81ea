//! Steady-state allocation guard for far-fault service.
//!
//! Once a driver's fault-service buffers, recency lists and dense page
//! tables have grown to the working set, servicing a far-fault —
//! prefetch planning, victim selection, write-back, admit and expel —
//! must not touch the heap. This binary installs a counting global
//! allocator, warms a `Gmmu` at 125 % over-subscription under four
//! prefetch/evict pairs, and counts the allocations made by the faults
//! that follow.
//!
//! The one growth left on the path is a channel's transfer-size
//! histogram, which allocates when a size it has never seen arrives
//! while its list is full; the warm-up issues the sizes this stream
//! uses, so the measured faults add none.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use uvm_core::{EvictPolicy, Gmmu, PrefetchPolicy, UvmConfig};
use uvm_types::rng::{Rng, SmallRng};
use uvm_types::{Bytes, Cycle, Duration, PageId};

/// Counts the calling thread's allocations and reallocations, so tests
/// running on other harness threads do not pollute the count.
struct CountingAlloc;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

// SAFETY: every method forwards to `System` unchanged; the counter is
// a const-initialized thread-local `Cell` that never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Working set: four 2 MB large pages.
const WORKING_SET_PAGES: u64 = 2048;

/// Drives an access stream over the working set: mostly sequential
/// sweeps with random jumps, so prefetching, tree cascades and every
/// eviction granularity keep firing.
struct Driver {
    gmmu: Gmmu,
    base: PageId,
    rng: SmallRng,
    cursor: u64,
    now: Cycle,
}

impl Driver {
    fn new(prefetch: PrefetchPolicy, evict: EvictPolicy) -> Self {
        // 125 % over-subscription: the budget holds 4/5 of the pages.
        let capacity = Bytes::kib(4) * (WORKING_SET_PAGES * 4 / 5);
        let mut gmmu = Gmmu::new(
            UvmConfig::default()
                .with_capacity(capacity)
                .with_prefetch(prefetch)
                .with_evict(evict)
                .with_rng_seed(7),
        );
        let base = gmmu
            .malloc_managed(Bytes::kib(4) * WORKING_SET_PAGES)
            .page();
        Driver {
            gmmu,
            base,
            rng: SmallRng::seed_from_u64(11),
            cursor: 0,
            now: Cycle::ZERO,
        }
    }

    /// Runs accesses until `faults` far-faults have been serviced.
    fn run_faults(&mut self, faults: u64) {
        let mut serviced = 0;
        while serviced < faults {
            if self.rng.gen_bool(0.02) {
                self.cursor = self.rng.gen_range(0..WORKING_SET_PAGES);
            } else {
                self.cursor = (self.cursor + 1) % WORKING_SET_PAGES;
            }
            let page = self.base.add(self.cursor);
            self.now += Duration::from_cycles(200);
            if self.gmmu.is_resident(page) {
                if let Some(t) = self.gmmu.ready_time(page, self.now) {
                    self.now = t;
                }
            } else {
                self.now = self.gmmu.handle_fault(page, self.now).fault_page_ready();
                serviced += 1;
            }
            self.gmmu.record_access(page, self.cursor.is_multiple_of(3));
        }
    }
}

/// Allocations made by 2,000 far-faults serviced after 20,000 warm-up
/// faults under `prefetch`/`evict`.
fn steady_state_allocations(prefetch: PrefetchPolicy, evict: EvictPolicy) -> u64 {
    let mut driver = Driver::new(prefetch, evict);
    driver.run_faults(20_000);
    let evicted_before = driver.gmmu.stats().pages_evicted;
    let before = allocations();
    driver.run_faults(2_000);
    let made = allocations() - before;
    assert!(
        driver.gmmu.stats().pages_evicted > evicted_before,
        "the measured faults must evict"
    );
    driver.gmmu.audit().unwrap();
    made
}

#[test]
fn tbnp_tbne_fault_service_allocates_nothing() {
    let made = steady_state_allocations(
        PrefetchPolicy::TreeBasedNeighborhood,
        EvictPolicy::TreeBasedNeighborhood,
    );
    assert_eq!(made, 0);
}

#[test]
fn tbnp_lru_fault_service_allocates_nothing() {
    let made =
        steady_state_allocations(PrefetchPolicy::TreeBasedNeighborhood, EvictPolicy::LruPage);
    assert_eq!(made, 0);
}

#[test]
fn slp_sle_fault_service_allocates_nothing() {
    let made = steady_state_allocations(
        PrefetchPolicy::SequentialLocal,
        EvictPolicy::SequentialLocal,
    );
    assert_eq!(made, 0);
}

#[test]
fn mosp_mose_fault_service_allocates_nothing() {
    let made =
        steady_state_allocations(PrefetchPolicy::MosaicCoalesce, EvictPolicy::MosaicSplinter);
    assert_eq!(made, 0);
}
