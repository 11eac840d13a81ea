//! The paper's contribution: CPU-GPU UVM hardware prefetchers and the
//! locality-aware pre-eviction policies that respect their semantics.
//!
//! This crate implements, from the paper *"Interplay between Hardware
//! Prefetcher and Page Eviction Policy in CPU-GPU Unified Virtual
//! Memory"* (ISCA 2019):
//!
//! * the per-allocation full binary trees ([`AllocTree`]) shared by the
//!   tree-based neighborhood prefetcher (TBNp) and pre-eviction policy
//!   (TBNe), including the exact balancing semantics of the paper's
//!   worked examples (Figs. 2 and 8);
//! * the hardware prefetchers of Sec. 3 — random (Rp),
//!   sequential-local (SLp), tree-based neighborhood (TBNp), plus the
//!   Zheng et al. 512 KB and 256 KB-stride ablations — as
//!   [`Prefetcher`] implementations in [`prefetch`], selected by
//!   [`PrefetchPolicy`];
//! * the eviction / pre-eviction policies of Secs. 4–5 and 7.5 —
//!   LRU-4KB, random, SLe, TBNe, LRU-2MB, plus the access-frequency
//!   ablation — as [`Evictor`] implementations in [`evict`], selected
//!   by [`EvictPolicy`], plus the memory-threshold free-page buffer
//!   and the LRU-top reservation optimisation;
//! * the hierarchical valid-page LRU list of Sec. 5.3
//!   ([`HierarchicalLru`]);
//! * the string-keyed [`PolicyRegistry`] that maps policy names (and
//!   aliases) to factories, letting CLIs and third-party code resolve
//!   policies without touching the driver;
//! * the [`Gmmu`] driver model that services far-faults, runs the
//!   prefetcher, enforces the memory budget, and schedules PCI-e
//!   transfers — pure mechanism; policy decisions observe it only
//!   through the read-only [`ResidencyView`].
//!
//! # Examples
//!
//! ```
//! use uvm_core::{EvictPolicy, Gmmu, PrefetchPolicy, UvmConfig};
//! use uvm_types::{Bytes, Cycle};
//!
//! // An over-subscribed GPU: 1 MB of device memory, TBNp + TBNe.
//! let mut gmmu = Gmmu::new(
//!     UvmConfig::default()
//!         .with_capacity(Bytes::mib(1))
//!         .with_prefetch(PrefetchPolicy::TreeBasedNeighborhood)
//!         .with_evict(EvictPolicy::TreeBasedNeighborhood),
//! );
//! let base = gmmu.malloc_managed(Bytes::mib(2));
//! let mut now = Cycle::ZERO;
//! for block in 0..32 {
//!     let page = base.page().add(block * 16);
//!     if !gmmu.is_resident(page) {
//!         let res = gmmu.handle_fault(page, now);
//!         now = res.fault_page_ready();
//!         gmmu.record_access(page, false);
//!     }
//! }
//! // The working set is 2x the budget: evictions must have happened.
//! assert!(gmmu.stats().pages_evicted > 0);
//! ```

mod alloc;
pub mod checkpoint;
mod config;
mod dense;
pub mod evict;
mod fault;
mod gmmu;
mod groups;
mod hier;
mod indexed;
mod lru;
mod policy;
pub mod prefetch;
mod registry;
mod spec;
mod stats;
pub mod trace;
mod tree;
mod view;

pub use alloc::{AllocId, Allocation, Allocations};
pub use checkpoint::{
    read_checkpoint, write_checkpoint, CheckpointError, CHECKPOINT_MAGIC, CHECKPOINT_VERSION,
};
pub use config::UvmConfig;
pub use dense::{DensePageMap, DensePageSet};
pub use evict::{Evictor, MosaicEvictor};
pub use fault::{FaultPlan, ParseFaultProfileError, READ_CHANNEL_TAG, WRITE_CHANNEL_TAG};
pub use gmmu::AuditError;
pub use gmmu::{FaultResolution, Gmmu};
pub use groups::PageGroups;
pub use hier::HierarchicalLru;
pub use indexed::IndexedPageSet;
pub use lru::{DenseIndex, LruQueue};
pub use policy::{EvictPolicy, ParsePolicyError, PrefetchPolicy};
pub use prefetch::{LearnedPrefetcher, MarkovPrefetcher, MosaicPrefetcher, Prefetcher};
pub use registry::{EvictorEntry, ParamSpec, PolicyError, PolicyRegistry, PrefetcherEntry};
pub use spec::{ParseSpecError, PolicySpec};
pub use stats::{FaultInjectionStats, HugePageStats, UvmStats};
pub use trace::{train_table, LearnedTable, TraceError, TraceKind, TraceMeta, TraceRecord};
pub use tree::{group_contiguous, AllocTree};
pub use view::{ResidencyView, PIN_GRACE, PIN_HARD, PIN_NONE, PIN_SOFT};
