//! Reverse-engineering the prefetcher, the way the paper did.
//!
//! The paper's authors ran micro-benchmarks on a real GTX 1080ti and
//! watched which pages nvprof reported as migrated, to uncover the
//! tree-based neighborhood prefetcher's semantics (Sec. 3.3). This
//! example replays that methodology against the simulator: it touches
//! chosen pages of a 512 KB managed allocation and prints exactly what
//! each far-fault migrated — reproducing both worked examples of the
//! paper's Fig. 2.
//!
//! Run with:
//! ```sh
//! cargo run --release -p uvm-sim --example prefetcher_probe
//! ```

use uvm_core::{Gmmu, PrefetchPolicy, UvmConfig};
use uvm_types::{Bytes, Cycle, PAGES_PER_BASIC_BLOCK};

fn probe(label: &str, touch_blocks: &[u64]) {
    println!("{label}");
    let mut gmmu =
        Gmmu::new(UvmConfig::default().with_prefetch(PrefetchPolicy::TreeBasedNeighborhood));
    let base = gmmu.malloc_managed(Bytes::kib(512));
    let mut now = Cycle::ZERO;
    for &block in touch_blocks {
        let page = base.page().add(block * PAGES_PER_BASIC_BLOCK);
        if gmmu.is_resident(page) {
            println!("  touch block {block}: already resident (prefetched earlier)");
            continue;
        }
        let res = gmmu.handle_fault(page, now);
        now = res.fault_page_ready();
        let migrated = res.ready.len();
        let mut blocks: Vec<u64> = res
            .ready
            .iter()
            .map(|(p, _)| p.basic_block().index())
            .collect();
        gmmu.record_access(page, false);
        blocks.sort_unstable();
        blocks.dedup();
        println!("  touch block {block}: fault migrated {migrated} pages across blocks {blocks:?}");
    }
    println!(
        "  => {} far-faults, {} pages migrated, {} prefetched\n",
        gmmu.stats().far_faults,
        gmmu.stats().pages_migrated,
        gmmu.stats().pages_prefetched
    );
}

fn main() {
    // Fig. 2(a): strided touches leave gaps; the fifth touch cascades.
    probe(
        "Fig 2(a) pattern: touch first page of blocks 1, 3, 5, 7, then 0",
        &[1, 3, 5, 7, 0],
    );
    // Fig. 2(b): the fourth touch pulls 256 KB in one go.
    probe(
        "Fig 2(b) pattern: touch first page of blocks 1, 3, 0, then 4",
        &[1, 3, 0, 4],
    );
    // Sequential touches: the prefetcher stays one step ahead.
    probe(
        "Sequential pattern: touch first page of blocks 0..8",
        &[0, 1, 2, 3, 4, 5, 6, 7],
    );
}
