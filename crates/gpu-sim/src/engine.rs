//! The discrete-event engine: SMs, warp actors, TLBs, fault replay.
//!
//! The per-event hot path is allocation-free and sort-free: warp
//! events flow through the fixed-hop lanes of an [`EventQueue`], access
//! streams are pre-compiled into an engine-owned arena walked by
//! cursor, per-SM TLBs are indexed densely by page (no hashing on the
//! 4 KB path), and eviction shootdowns consult a [`ShootdownDirectory`]
//! so only the TLBs actually holding a page are touched. See DESIGN.md
//! §7 for the design and its exactness argument — the schedules
//! produced are bit-identical to the original heap-and-scan
//! implementation.

use std::sync::atomic::{AtomicU64, Ordering};

use uvm_core::Gmmu;
use uvm_mem::{RadixWalkModel, ShootdownDirectory, Tlb, TlbLookup};
use uvm_types::{Cycle, Duration, PageId};

use crate::kernel::{Access, KernelSpec};
use crate::queue::EventQueue;
use crate::shard::{apply_log, DispatchedBlock, EpochCtx, LogEntry, PendingFault, Shard, Stop};

/// One completed page access in a captured trace (the raw data of the
/// paper's Fig. 12 scatter, with warp attribution for per-warp
/// pattern analysis).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// Completion cycle of the access.
    pub cycle: Cycle,
    /// Page touched.
    pub page: PageId,
    /// Index of the warp (thread block) that issued the access.
    pub warp: usize,
    /// `true` for a store.
    pub write: bool,
}

/// GPU-side configuration (paper Table 2 defaults: 28 Pascal SMs).
#[derive(Clone, Debug)]
pub struct GpuConfig {
    /// Number of streaming multiprocessors.
    pub num_sms: usize,
    /// Thread blocks resident per SM at a time.
    pub blocks_per_sm: usize,
    /// Entries in each SM's fully associative TLB.
    pub tlb_entries: usize,
    /// Device-memory access latency on a TLB hit.
    pub mem_latency: Duration,
    /// Compute delay between a warp's consecutive coalesced accesses.
    pub compute_delay: Duration,
    /// Watchdog: abort if a single kernel exceeds this many simulated
    /// cycles (`None` = no limit). Guards against pathological
    /// eviction/refault cycles in exploratory configurations.
    pub max_kernel_cycles: Option<u64>,
    /// Optional detailed page-walk model: `Some((per-level latency,
    /// walk-cache entries))` replaces the flat Table 2 walk latency
    /// with a 4-level radix walk ([`RadixWalkModel`]).
    pub radix_walk: Option<(Duration, usize)>,
}

impl Default for GpuConfig {
    fn default() -> Self {
        GpuConfig {
            num_sms: 28,
            blocks_per_sm: 8,
            tlb_entries: 64,
            mem_latency: Duration::from_cycles(300),
            compute_delay: Duration::from_cycles(20),
            max_kernel_cycles: None,
            radix_walk: None,
        }
    }
}

/// Outcome of one kernel launch.
#[derive(Clone, Debug)]
pub struct KernelResult {
    /// Kernel name.
    pub name: String,
    /// Launch-to-completion time.
    pub time: Duration,
    /// Cycle at which the kernel completed.
    pub end: Cycle,
}

/// State of one warp actor: a cursor over its arena chunk.
struct WarpState {
    /// Next access to issue, as an index into the engine's arena.
    cursor: usize,
    /// One past the warp's last arena index.
    end: usize,
    /// The access currently being attempted (replayed after a fault).
    current: Option<Access>,
    /// SM this warp's thread block runs on.
    sm: usize,
    /// Static same-cycle tiebreak: the warp's position in the SM-major
    /// dispatch enumeration. Events at equal cycles pop in ascending
    /// rank, making the schedule a pure function of `(cycle, warp)` —
    /// see [`EventQueue::push_keyed`].
    rank: u64,
    done: bool,
}

/// [`EventQueue`] lane of the TLB-hit hop (4 KB or huge entry):
/// `1 + mem_latency + compute_delay` cycles after the pop.
const HIT_LANE: usize = 0;
/// [`EventQueue`] lane of the resident-TLB-miss hop: `1 + walk_latency
/// + mem_latency + compute_delay` cycles after the pop.
const WALK_LANE: usize = 1;

/// The GPU engine: owns the [`Gmmu`] and executes kernels on it.
///
/// Kernels run to completion one after another, modelling the
/// `cudaDeviceSynchronize` between iterative launches of the paper's
/// benchmarks; device state (page table, LRU lists, statistics)
/// persists across launches.
///
/// Between launches the engine can be frozen into an
/// [`EngineSnapshot`] and forked, so a sweep's shared warm-up prefix
/// simulates once (see DESIGN.md §8).
#[derive(Clone)]
pub struct Engine {
    gmmu: Gmmu,
    cfg: GpuConfig,
    tlbs: Vec<Tlb>,
    /// Per-page generation counters + TLB holder sets, replacing the
    /// all-SM invalidate broadcast on page eviction.
    shootdown: ShootdownDirectory,
    /// Warp event queue, reused (empty) across kernel launches.
    queue: EventQueue<usize>,
    /// Flattened access streams of the running kernel; storage reused
    /// across launches.
    arena: Vec<Access>,
    walker: Option<RadixWalkModel>,
    now: Cycle,
    trace: Option<Vec<TraceEvent>>,
    /// `UVM_DEBUG_FAULTS` presence, sampled once at construction.
    debug_faults: bool,
    /// Sharded-execution width (see DESIGN.md §13): number of SM
    /// shards kernels run across. `1` = the serial loop, `0` = size to
    /// the host's parallelism at launch. Result-inert: every width
    /// produces the byte-identical schedule, so this is *not* part of
    /// checkpoints or snapshots.
    engine_threads: usize,
}

impl Engine {
    /// Creates an engine over `gmmu`.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.num_sms` or `cfg.blocks_per_sm` is zero.
    pub fn new(gmmu: Gmmu, cfg: GpuConfig) -> Self {
        assert!(cfg.num_sms > 0, "need at least one SM");
        assert!(cfg.blocks_per_sm > 0, "need at least one block per SM");
        let tlbs = (0..cfg.num_sms)
            .map(|_| Tlb::new(cfg.tlb_entries))
            .collect();
        let walker = cfg
            .radix_walk
            .map(|(per_level, entries)| RadixWalkModel::new(per_level, entries));
        let shootdown = ShootdownDirectory::new(cfg.num_sms);
        Engine {
            gmmu,
            cfg,
            tlbs,
            shootdown,
            queue: EventQueue::new(),
            arena: Vec::new(),
            walker,
            now: Cycle::ZERO,
            trace: None,
            debug_faults: std::env::var_os("UVM_DEBUG_FAULTS").is_some(),
            engine_threads: 1,
        }
    }

    /// Sets the sharded-execution width: `n > 1` partitions the SMs
    /// across `n` shards with deterministic epoch barriers, `1`
    /// selects the serial loop, and `0` sizes to the host's available
    /// parallelism at each launch. The schedule is byte-identical at
    /// every width; kernels that sharding cannot cover (a radix-walk
    /// model, a single SM, ≥ 2¹⁶ thread blocks) silently run serial.
    pub fn set_engine_threads(&mut self, n: usize) {
        self.engine_threads = n;
    }

    /// The configured sharded-execution width (`0` = auto).
    pub fn engine_threads(&self) -> usize {
        self.engine_threads
    }

    /// The driver model (shared, read-only).
    pub fn gmmu(&self) -> &Gmmu {
        &self.gmmu
    }

    /// The driver model (mutable, e.g. for additional allocations
    /// between kernels).
    pub fn gmmu_mut(&mut self) -> &mut Gmmu {
        &mut self.gmmu
    }

    /// Current simulated time.
    pub fn now(&self) -> Cycle {
        self.now
    }

    /// Starts capturing a [`TraceEvent`] for every completed access
    /// (the raw data of the paper's Fig. 12).
    pub fn enable_trace(&mut self) {
        if self.trace.is_none() {
            self.trace = Some(Vec::new());
        }
    }

    /// Takes the captured access trace, leaving capture enabled. The
    /// next trace buffer is pre-sized from the taken trace's length,
    /// so steady-state capture (one take per kernel) does not regrow
    /// from zero capacity each launch.
    pub fn take_trace(&mut self) -> Vec<TraceEvent> {
        match &mut self.trace {
            Some(trace) => {
                let taken = std::mem::take(trace);
                *trace = Vec::with_capacity(taken.len());
                taken
            }
            None => Vec::new(),
        }
    }

    /// Runs `kernel` to completion and returns its execution time.
    /// The engine clock advances to the kernel's end.
    pub fn run_kernel(&mut self, kernel: KernelSpec) -> Duration {
        self.run_kernel_detailed(kernel).time
    }

    /// Runs `kernel` to completion with a detailed result.
    pub fn run_kernel_detailed(&mut self, kernel: KernelSpec) -> KernelResult {
        let start = self.now;
        let mut arena = std::mem::take(&mut self.arena);
        let compiled = kernel.compile_into(&mut arena);
        self.arena = arena;
        let name = compiled.name().to_owned();
        if let Some(trace) = &mut self.trace {
            trace.reserve(self.arena.len());
        }

        // Dispatch: TBs are distributed round-robin; each SM runs at
        // most `blocks_per_sm` concurrently, starting queued TBs as
        // earlier ones finish.
        let mut warps: Vec<WarpState> = Vec::with_capacity(compiled.num_blocks());
        let mut sm_queues: Vec<Vec<usize>> = vec![Vec::new(); self.cfg.num_sms];
        for i in 0..compiled.num_blocks() {
            let sm = i % self.cfg.num_sms;
            let (cursor, end) = compiled.chunk(i);
            warps.push(WarpState {
                cursor,
                end,
                current: None,
                sm,
                rank: 0,
                done: false,
            });
            sm_queues[sm].push(i);
        }
        // Same-cycle ranks follow the SM-major dispatch enumeration
        // (all of SM0's blocks, then SM1's, ...), matching the order
        // the initial pushes historically queued in.
        let mut rank = 0u64;
        for q in &sm_queues {
            for &w in q {
                warps[w].rank = rank;
                rank += 1;
            }
        }
        // Sharded execution covers every configuration the packed
        // barrier key can express; anything else (and explicit width
        // 1) takes the serial loop below.
        if let Some(n) = self.shard_count(compiled.num_blocks(), start) {
            return self.run_kernel_sharded(name, start, &warps, &sm_queues, n);
        }

        // Queues were filled in dispatch order; pop from the front.
        for q in &mut sm_queues {
            q.reverse();
        }

        debug_assert!(self.queue.is_empty(), "previous kernel drained the queue");
        let mut active_per_sm = vec![0usize; self.cfg.num_sms];
        for sm in 0..self.cfg.num_sms {
            while active_per_sm[sm] < self.cfg.blocks_per_sm {
                let Some(w) = sm_queues[sm].pop() else { break };
                active_per_sm[sm] += 1;
                self.queue.push_keyed(start, warps[w].rank, w);
            }
        }

        let mut end = start;
        let mut last_popped = start;
        while let Some((t, w)) = self.queue.pop() {
            debug_assert!(
                t >= last_popped,
                "event time went backwards: {t} after {last_popped}"
            );
            last_popped = t;
            if let Some(cap) = self.cfg.max_kernel_cycles {
                let fi = &self.gmmu.stats().fault_injection;
                assert!(
                    t.since(start).cycles() <= cap,
                    "watchdog: kernel {name} exceeded {cap} cycles \
                     (far-faults {}, evicted {}, thrashed {}; injected: \
                     transfer retries {}, migration retries {}, \
                     emergency evictions {}, jitter cycles {})",
                    self.gmmu.stats().far_faults,
                    self.gmmu.stats().pages_evicted,
                    self.gmmu.stats().pages_thrashed,
                    fi.transfer_retries,
                    fi.migration_retries,
                    fi.emergency_evictions,
                    fi.jitter_cycles,
                );
            }
            let warp = &mut warps[w];
            if warp.done {
                continue;
            }
            if warp.current.is_none() && warp.cursor < warp.end {
                warp.current = Some(self.arena[warp.cursor]);
                warp.cursor += 1;
            }
            let Some(access) = warp.current else {
                // Warp retired: start the next queued TB on its SM.
                warp.done = true;
                end = end.max(t);
                let sm = warp.sm;
                active_per_sm[sm] -= 1;
                if let Some(next) = sm_queues[sm].pop() {
                    active_per_sm[sm] += 1;
                    self.queue.push_keyed(t, warps[next].rank, next);
                }
                continue;
            };

            let page = access.page();
            let sm = warp.sm;
            let rank = warp.rank;
            // Huge-page fast path: a coalesced 2 MB mapping serves the
            // whole large page out of one side-table TLB entry. Entries
            // are epoch-stamped, so one splinter (epoch bump) stales
            // them on every SM at once — no per-SM invalidation walk.
            if let Some(epoch) = self.gmmu.huge_translation(page.large_page(), t) {
                if self.tlbs[sm].lookup_huge(page.large_page(), epoch) {
                    let done = t + Duration::from_cycles(1) + self.cfg.mem_latency;
                    self.complete_access(access, done, w);
                    warps[w].current = None;
                    self.queue
                        .push_lane(HIT_LANE, done + self.cfg.compute_delay, rank, w);
                    continue;
                }
            }
            let generation = self.shootdown.generation(page);
            match self.tlbs[sm].lookup_gen(page, generation) {
                TlbLookup::Hit => {
                    // 1-cycle lookup + device memory access.
                    let done = t + Duration::from_cycles(1) + self.cfg.mem_latency;
                    self.complete_access(access, done, w);
                    warps[w].current = None;
                    self.queue
                        .push_lane(HIT_LANE, done + self.cfg.compute_delay, rank, w);
                }
                TlbLookup::Miss => {
                    let walk_latency = match &mut self.walker {
                        Some(w) => w.walk(page),
                        None => self.gmmu.config().walk_latency,
                    };
                    let walked = t + Duration::from_cycles(1) + walk_latency;
                    if !self.gmmu.is_resident(page) {
                        // Far-fault: the driver migrates (and possibly
                        // prefetches / evicts); the access replays when
                        // the faulty page's data arrives.
                        let res = self.gmmu.handle_fault(page, walked);
                        if self.debug_faults {
                            eprintln!(
                                "t={} w={w} fault pg{} ready={} evicted={}",
                                t.index(),
                                page.index(),
                                res.fault_page_ready().index(),
                                res.evicted.len()
                            );
                        }
                        for &evicted in res.shootdowns() {
                            // New generation, then reclaim the holders'
                            // slots so TLB occupancy matches an eager
                            // broadcast exactly.
                            self.shootdown.bump(evicted);
                            let tlbs = &mut self.tlbs;
                            self.shootdown.drain_holders(evicted, |unit| {
                                tlbs[unit].invalidate(evicted);
                            });
                        }
                        self.queue.push_keyed(res.fault_page_ready(), rank, w);
                    } else if let Some(ready) = self.gmmu.ready_time(page, walked) {
                        // In-flight prefetch: stall until the data lands
                        // (the MSHR-merge path — the migration already
                        // has an owner).
                        self.queue.push_keyed(ready, rank, w);
                    } else if let Some(epoch) =
                        self.gmmu.huge_translation(page.large_page(), walked)
                    {
                        // The walk resolved a coalesced large page: fill
                        // the huge side table (epoch-validated, so it
                        // needs no shootdown-directory tracking) instead
                        // of a 4 KB slot.
                        self.tlbs[sm].fill_huge(page.large_page(), epoch);
                        let done = walked + self.cfg.mem_latency;
                        self.complete_access(access, done, w);
                        warps[w].current = None;
                        self.queue
                            .push_lane(WALK_LANE, done + self.cfg.compute_delay, rank, w);
                    } else {
                        // The lookup above just missed, so the page is
                        // certainly absent: take the no-reprobe fill.
                        if let Some(victim) = self.tlbs[sm].fill_after_miss(page, generation) {
                            self.shootdown.note_drop(victim, sm);
                        }
                        self.shootdown.note_fill(page, sm);
                        let done = walked + self.cfg.mem_latency;
                        self.complete_access(access, done, w);
                        warps[w].current = None;
                        self.queue
                            .push_lane(WALK_LANE, done + self.cfg.compute_delay, rank, w);
                    }
                }
            }
        }

        self.now = end;
        KernelResult {
            name,
            time: end.since(start),
            end,
        }
    }

    /// Freezes the engine into a forkable [`EngineSnapshot`].
    ///
    /// Everything the simulation's future depends on is captured: the
    /// GMMU (page/frame tables, policy state, PCI-e channel backlog,
    /// RNG streams, statistics), all per-SM TLBs, the shootdown
    /// directory, the walk-cache model, the event queue, the
    /// clock, and the trace buffer. Per-warp arena cursors are kernel-
    /// local (the access arena is recompiled per launch), which is why
    /// snapshots are only legal at a launch boundary.
    ///
    /// # Panics
    ///
    /// Panics if called mid-kernel (events still queued): per-warp
    /// state would be lost.
    pub fn snapshot(&self) -> EngineSnapshot {
        assert!(
            self.queue.is_empty(),
            "engine snapshot mid-kernel: the event queue still holds warp events"
        );
        EngineSnapshot {
            inner: self.clone(),
        }
    }

    /// Serializes the full engine state for a durable checkpoint.
    ///
    /// Only legal at a kernel boundary, like [`snapshot`](Self::snapshot):
    /// per-warp cursors are kernel-local, so the event queue must be
    /// drained. The GPU configuration is *not* stored — the restore
    /// path rebuilds the engine from the same `RunOptions` — but
    /// structural parameters (SM count, radix-walk presence) are
    /// cross-checked on load so a checkpoint can never be restored
    /// into a differently shaped machine.
    ///
    /// # Panics
    ///
    /// Panics if called mid-kernel (events still queued).
    pub fn save_state(&self, w: &mut uvm_types::codec::ByteWriter) {
        assert!(
            self.queue.is_empty(),
            "engine checkpoint mid-kernel: the event queue still holds warp events"
        );
        w.put_u64(self.now.index());
        self.gmmu.save_state(w);
        w.put_usize(self.tlbs.len());
        for tlb in &self.tlbs {
            tlb.save_state(w);
        }
        self.shootdown.save_state(w);
        match &self.walker {
            Some(walker) => {
                w.put_bool(true);
                walker.save_state(w);
            }
            None => w.put_bool(false),
        }
        match &self.trace {
            Some(trace) => {
                w.put_bool(true);
                w.put_usize(trace.len());
                for ev in trace {
                    w.put_u64(ev.cycle.index());
                    w.put_u64(ev.page.index());
                    w.put_usize(ev.warp);
                    w.put_bool(ev.write);
                }
            }
            None => w.put_bool(false),
        }
    }

    /// Restores a [`save_state`](Self::save_state) image into an engine
    /// freshly built from the same configuration.
    pub fn load_state(
        &mut self,
        r: &mut uvm_types::codec::ByteReader<'_>,
    ) -> Result<(), uvm_core::CheckpointError> {
        use uvm_core::CheckpointError;

        self.now = Cycle::new(r.get_u64()?);
        self.gmmu.load_state(r)?;
        let num_tlbs = r.get_usize()?;
        if num_tlbs != self.cfg.num_sms {
            return Err(CheckpointError::Incompatible(format!(
                "checkpoint has {num_tlbs} SM TLBs but this run is configured for {}",
                self.cfg.num_sms
            )));
        }
        let page_bound = self.gmmu.allocations().page_bound();
        self.tlbs = (0..num_tlbs)
            .map(|_| Tlb::load_state(r, page_bound))
            .collect::<Result<_, _>>()?;
        self.shootdown = ShootdownDirectory::load_state(r)?;
        if self.shootdown.num_units() != self.cfg.num_sms {
            return Err(CheckpointError::Incompatible(format!(
                "checkpoint shootdown directory tracks {} units but this run has {} SMs",
                self.shootdown.num_units(),
                self.cfg.num_sms
            )));
        }
        let has_walker = r.get_bool()?;
        if has_walker != self.walker.is_some() {
            return Err(CheckpointError::Incompatible(format!(
                "checkpoint {} a radix-walk model but this run {}",
                if has_walker { "carries" } else { "lacks" },
                if self.walker.is_some() {
                    "expects one"
                } else {
                    "does not"
                },
            )));
        }
        if has_walker {
            self.walker = Some(RadixWalkModel::load_state(r)?);
        }
        self.trace = if r.get_bool()? {
            let n = r.get_usize()?;
            // Every record takes at least a byte: a count the image
            // cannot hold fails on the read below, not on the reserve.
            let mut trace = Vec::with_capacity(n.min(r.remaining()));
            for _ in 0..n {
                trace.push(TraceEvent {
                    cycle: Cycle::new(r.get_u64()?),
                    page: PageId::new(r.get_u64()?),
                    warp: r.get_usize()?,
                    write: r.get_bool()?,
                });
            }
            Some(trace)
        } else {
            None
        };
        Ok(())
    }

    /// Audits the engine-level invariants on top of
    /// [`Gmmu::audit`]: every cached TLB translation must be
    /// consistent with the shootdown directory's generation counters
    /// and holder bits, both directions, and every cached huge-page
    /// epoch must be bounded by the driver's current epoch.
    ///
    /// The strong form holds because the engine always pairs
    /// `bump(evicted)` with an immediate `drain_holders`, so a stale
    /// entry or dangling holder bit can never survive an eviction.
    /// Read-only and schedule-inert.
    pub fn audit(&self) -> Result<(), uvm_core::AuditError> {
        let mut violations = match self.gmmu.audit() {
            Ok(()) => Vec::new(),
            Err(e) => e.violations,
        };
        // Per-SM maps of what each TLB currently caches, for O(1)
        // cross-checks in both directions.
        let held: Vec<std::collections::HashMap<PageId, u32>> = self
            .tlbs
            .iter()
            .map(|tlb| tlb.iter_entries().collect())
            .collect();
        for (sm, entries) in held.iter().enumerate() {
            for (&page, &gen) in entries {
                let current = self.shootdown.generation(page);
                if gen > current {
                    violations.push(format!(
                        "SM{sm} TLB caches {page} at generation {gen}, \
                         ahead of the directory's {current}"
                    ));
                } else if gen == current {
                    if !self.gmmu.is_resident(page) {
                        violations.push(format!(
                            "SM{sm} TLB holds a live translation for non-resident {page}"
                        ));
                    }
                    if !self.shootdown.holders_of(page).contains(&sm) {
                        violations.push(format!(
                            "SM{sm} TLB holds {page} but its holder bit is clear"
                        ));
                    }
                }
            }
        }
        for (page, sm) in self.shootdown.iter_holders() {
            match held.get(sm).and_then(|entries| entries.get(&page)) {
                Some(&gen) if gen == self.shootdown.generation(page) => {}
                Some(&gen) => violations.push(format!(
                    "holder bit says SM{sm} caches {page} but its entry is stale \
                     (generation {gen} vs {})",
                    self.shootdown.generation(page)
                )),
                None => violations.push(format!(
                    "holder bit says SM{sm} caches {page} but its TLB has no entry"
                )),
            }
        }
        for (sm, tlb) in self.tlbs.iter().enumerate() {
            for (lp, epoch) in tlb.iter_huge() {
                match self.gmmu.huge_epoch(lp) {
                    Some(current) if epoch <= current => {}
                    Some(current) => violations.push(format!(
                        "SM{sm} huge TLB caches {lp} at epoch {epoch}, \
                         ahead of the driver's {current}"
                    )),
                    None => violations.push(format!("SM{sm} huge TLB caches never-promoted {lp}")),
                }
            }
        }
        if violations.is_empty() {
            Ok(())
        } else {
            Err(uvm_core::AuditError { violations })
        }
    }

    /// Resolves the configured sharded-execution width against this
    /// kernel: `Some(n > 1)` selects sharded mode. Kernels the packed
    /// barrier key cannot express (≥ 2¹⁶ blocks, astronomical clocks)
    /// and configurations sharding does not model (a radix-walk
    /// model's shared walk cache) fall back to the serial loop, as do
    /// empty launches.
    fn shard_count(&self, num_blocks: usize, start: Cycle) -> Option<usize> {
        let n = match self.engine_threads {
            0 => std::thread::available_parallelism().map_or(1, |p| p.get()),
            n => n,
        };
        let n = n.min(self.cfg.num_sms);
        (n > 1
            && self.walker.is_none()
            && num_blocks > 0
            && num_blocks < (1 << crate::shard::RANK_BITS)
            && start.index() < (1 << 47))
            .then_some(n)
    }

    /// Sharded kernel execution (DESIGN.md §13): the SMs are
    /// partitioned into `n` contiguous shards that simulate SM-local
    /// epochs against frozen GMMU/directory views, rendezvousing at
    /// every GMMU-serialized event. The schedule — fault order, RNG
    /// draws, statistics, traces, final machine state — is
    /// byte-identical to the serial loop at every `n`.
    ///
    /// `sm_queues` is still in dispatch order (not yet reversed) and
    /// `warps` carries the initial cursors and global ranks.
    fn run_kernel_sharded(
        &mut self,
        name: String,
        start: Cycle,
        warps: &[WarpState],
        sm_queues: &[Vec<usize>],
        n: usize,
    ) -> KernelResult {
        debug_assert!(self.queue.is_empty(), "previous kernel drained the queue");
        let num_sms = self.cfg.num_sms;
        // Contiguous SM partition; the first `num_sms % n` shards own
        // one extra SM.
        let (width, extra) = (num_sms / n, num_sms % n);
        let mut shard_of_sm = Vec::with_capacity(num_sms);
        let mut shards: Vec<Shard> = Vec::with_capacity(n);
        let mut tlbs = std::mem::take(&mut self.tlbs).into_iter();
        let mut sm = 0usize;
        for si in 0..n {
            let owned = width + usize::from(si < extra);
            let sm_lo = sm;
            let mut blocks: Vec<Vec<DispatchedBlock>> = Vec::with_capacity(owned);
            let mut shard_tlbs = Vec::with_capacity(owned);
            for _ in 0..owned {
                shard_tlbs.push(tlbs.next().expect("one TLB per SM"));
                blocks.push(
                    sm_queues[sm]
                        .iter()
                        .map(|&w| DispatchedBlock {
                            rank: warps[w].rank,
                            id: w,
                            cursor: warps[w].cursor,
                            end: warps[w].end,
                        })
                        .collect(),
                );
                shard_of_sm.push(si);
                sm += 1;
            }
            shards.push(Shard::new(
                sm_lo,
                shard_tlbs,
                &blocks,
                self.cfg.blocks_per_sm,
                start,
            ));
        }
        debug_assert!(tlbs.next().is_none(), "partition covered every SM");

        let bound = AtomicU64::new(u64::MAX);
        let walk_latency = self.gmmu.config().walk_latency;
        let os_workers = resolve_os_workers(n);
        macro_rules! epoch_ctx {
            ($journal:expr, $budget:expr) => {
                EpochCtx {
                    gmmu: &self.gmmu,
                    dir: &self.shootdown,
                    arena: &self.arena,
                    bound: &bound,
                    start,
                    mem_latency: self.cfg.mem_latency,
                    compute_delay: self.cfg.compute_delay,
                    walk_latency,
                    max_kernel_cycles: self.cfg.max_kernel_cycles,
                    journal: $journal,
                    budget: $budget,
                }
            };
        }

        if os_workers <= 1 {
            // Cooperative courier: always advance the shard owning the
            // globally next event, one event at a time, committing its
            // effects immediately. This is the exact serial interleave
            // — no speculation, no journal, no rollback — so the
            // single-worker overhead is one frontier scan per event.
            let mut next: Vec<Option<u64>> = shards.iter_mut().map(Shard::frontier).collect();
            loop {
                let mut si = usize::MAX;
                let mut best = u64::MAX;
                for (i, k) in next.iter().enumerate() {
                    if let Some(k) = *k {
                        if k < best {
                            best = k;
                            si = i;
                        }
                    }
                }
                if si == usize::MAX {
                    break;
                }
                let ctx = epoch_ctx!(false, Some(1));
                let stop = shards[si].run_epoch(&ctx);
                apply_log(
                    &mut self.gmmu,
                    &mut self.shootdown,
                    &mut self.trace,
                    shards[si].log_mut(),
                );
                match stop {
                    Stop::Fault { fault, .. } => {
                        self.fault_barrier(&mut shards, &shard_of_sm, si, &fault);
                        // `run_epoch` published the fault key as the
                        // speculation bound; with no sibling workers
                        // the bound only wedges, so lift it.
                        bound.store(u64::MAX, Ordering::Relaxed);
                    }
                    Stop::Watchdog { t, .. } => self.watchdog_panic(&name, t, start),
                    Stop::Paused | Stop::Done => {}
                }
                next[si] = shards[si].frontier();
            }
        } else {
            // Threaded courier: every epoch, all shards speculate in
            // parallel (journaled, budgeted), then rendezvous. The
            // barrier frontier `k` is the first event in canonical
            // order not yet safely committed: the minimum over every
            // fault/watchdog key and every paused/done shard's next
            // event. Everything past `k` rolls back; everything below
            // commits; if `k` itself is a fault or watchdog it is
            // serviced exactly as the serial loop would.
            const EPOCH_BUDGET: usize = 256;
            loop {
                bound.store(u64::MAX, Ordering::Relaxed);
                let ctx = epoch_ctx!(true, Some(EPOCH_BUDGET));
                let stops: Vec<Stop> = std::thread::scope(|scope| {
                    let ctx = &ctx;
                    let handles: Vec<_> = shards
                        .iter_mut()
                        .map(|shard| scope.spawn(move || shard.run_epoch(ctx)))
                        .collect();
                    handles
                        .into_iter()
                        .map(|h| h.join().expect("shard worker panicked"))
                        .collect()
                });
                let mut k = u64::MAX;
                let mut winner: Option<usize> = None;
                for (i, stop) in stops.iter().enumerate() {
                    let key = match stop {
                        Stop::Paused | Stop::Done => shards[i].frontier().unwrap_or(u64::MAX),
                        stopped => stopped.key(),
                    };
                    // Keys are globally unique (one outstanding event
                    // per live warp), so strict `<` is total.
                    if key < k {
                        k = key;
                        winner = match stop {
                            Stop::Fault { .. } | Stop::Watchdog { .. } => Some(i),
                            Stop::Paused | Stop::Done => None,
                        };
                    }
                }
                for shard in &mut shards {
                    shard.rollback(k);
                }
                let mut entries: Vec<LogEntry> = Vec::new();
                for shard in &mut shards {
                    entries.append(shard.log_mut());
                }
                // Stable by packed key: within one event the entry
                // order (drop before fill before access) is the push
                // order, and keys never tie across shards.
                entries.sort_by_key(|e| e.packed);
                apply_log(
                    &mut self.gmmu,
                    &mut self.shootdown,
                    &mut self.trace,
                    &mut entries,
                );
                for shard in &mut shards {
                    shard.commit();
                }
                match winner {
                    Some(i) => match &stops[i] {
                        Stop::Fault { fault, .. } => {
                            let fault = *fault;
                            self.fault_barrier(&mut shards, &shard_of_sm, i, &fault);
                        }
                        Stop::Watchdog { t, .. } => self.watchdog_panic(&name, *t, start),
                        Stop::Paused | Stop::Done => unreachable!("winner is a stop key"),
                    },
                    None if k == u64::MAX => break,
                    None => {}
                }
            }
        }

        let mut end = start;
        for shard in &shards {
            end = end.max(shard.end());
        }
        self.tlbs = shards.into_iter().flat_map(Shard::into_tlbs).collect();
        self.now = end;
        KernelResult {
            name,
            time: end.since(start),
            end,
        }
    }

    /// Services a far-fault at a barrier: exactly the serial loop's
    /// fault block, with TLB shootdowns routed to the owning shards
    /// and the replay wake queued on the faulting shard.
    fn fault_barrier(
        &mut self,
        shards: &mut [Shard],
        shard_of_sm: &[usize],
        si: usize,
        f: &PendingFault,
    ) {
        let res = self.gmmu.handle_fault(f.page, f.walked);
        if self.debug_faults {
            eprintln!(
                "t={} w={} fault pg{} ready={} evicted={}",
                f.t.index(),
                f.warp_id,
                f.page.index(),
                res.fault_page_ready().index(),
                res.evicted.len()
            );
        }
        for &evicted in res.shootdowns() {
            // New generation, then reclaim the holders' slots so TLB
            // occupancy matches an eager broadcast exactly.
            self.shootdown.bump(evicted);
            self.shootdown.drain_holders(evicted, |unit| {
                shards[shard_of_sm[unit]].invalidate(unit, evicted);
            });
        }
        shards[si].push_wake(res.fault_page_ready(), f.local);
    }

    /// Trips the watchdog with the serial loop's exact panic message.
    fn watchdog_panic(&self, name: &str, t: Cycle, start: Cycle) -> ! {
        let cap = self
            .cfg
            .max_kernel_cycles
            .expect("watchdog tripped without a cap");
        debug_assert!(t.since(start).cycles() > cap);
        let fi = &self.gmmu.stats().fault_injection;
        panic!(
            "watchdog: kernel {name} exceeded {cap} cycles \
             (far-faults {}, evicted {}, thrashed {}; injected: \
             transfer retries {}, migration retries {}, \
             emergency evictions {}, jitter cycles {})",
            self.gmmu.stats().far_faults,
            self.gmmu.stats().pages_evicted,
            self.gmmu.stats().pages_thrashed,
            fi.transfer_retries,
            fi.migration_retries,
            fi.emergency_evictions,
            fi.jitter_cycles,
        );
    }

    fn complete_access(&mut self, access: Access, done: Cycle, warp: usize) {
        self.gmmu.record_access(access.page(), access.write);
        if let Some(trace) = &mut self.trace {
            trace.push(TraceEvent {
                cycle: done,
                page: access.page(),
                warp,
                write: access.write,
            });
        }
    }
}

/// OS worker threads for the sharded epoch executor:
/// `UVM_ENGINE_OS_THREADS` when set (lenient — unparsable values fall
/// back to 1), else the host's available parallelism, capped at the
/// shard count. At one worker the courier runs the shards
/// cooperatively inline, which needs no OS threads at all. Schedule-
/// inert either way: this only picks the executor, never the result.
fn resolve_os_workers(n: usize) -> usize {
    let workers = match std::env::var("UVM_ENGINE_OS_THREADS") {
        Ok(v) => v.trim().parse::<usize>().unwrap_or(1).max(1),
        Err(_) => std::thread::available_parallelism().map_or(1, |p| p.get()),
    };
    workers.min(n)
}

/// A frozen engine state captured between kernel launches.
///
/// Snapshots are immutable and `Send + Sync`: a sweep executor shares
/// one behind an `Arc` and every worker [`fork`](Self::fork)s its own
/// independent [`Engine`] from it. Forks are deep copies — running one
/// can never perturb the snapshot or a sibling fork (the differential
/// suite in `tests/fork_equivalence.rs` pins this down).
#[derive(Clone)]
pub struct EngineSnapshot {
    inner: Engine,
}

impl EngineSnapshot {
    /// A fresh, fully independent engine resuming from this snapshot.
    pub fn fork(&self) -> Engine {
        self.inner.clone()
    }

    /// The frozen driver state (read-only).
    pub fn gmmu(&self) -> &Gmmu {
        &self.inner.gmmu
    }

    /// The frozen clock.
    pub fn now(&self) -> Cycle {
        self.inner.now
    }

    /// Serializes the frozen state (a snapshot is always at a kernel
    /// boundary, so this cannot panic).
    pub fn save_state(&self, w: &mut uvm_types::codec::ByteWriter) {
        self.inner.save_state(w);
    }

    /// Audits the frozen state (see [`Engine::audit`]).
    pub fn audit(&self) -> Result<(), uvm_core::AuditError> {
        self.inner.audit()
    }
}

impl std::fmt::Debug for EngineSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EngineSnapshot")
            .field("now", &self.inner.now)
            .finish_non_exhaustive()
    }
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("now", &self.now)
            .field("num_sms", &self.cfg.num_sms)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::ThreadBlockSpec;
    use uvm_core::{EvictPolicy, PrefetchPolicy, UvmConfig};
    use uvm_types::{Bytes, VirtAddr};

    fn engine_with(cfg: UvmConfig, alloc: Bytes) -> (Engine, VirtAddr) {
        let mut gmmu = Gmmu::new(cfg);
        let base = gmmu.malloc_managed(alloc);
        (Engine::new(gmmu, GpuConfig::default()), base)
    }

    fn seq_reads(base: VirtAddr, pages: u64) -> ThreadBlockSpec {
        ThreadBlockSpec::from_accesses(
            (0..pages).map(move |i| Access::read(base.offset(Bytes::kib(4) * i))),
        )
    }

    #[test]
    fn empty_kernel_takes_no_time() {
        let (mut e, _) = engine_with(UvmConfig::default(), Bytes::mib(1));
        let t = e.run_kernel(KernelSpec::new("empty"));
        assert_eq!(t, Duration::ZERO);
    }

    #[test]
    fn single_access_pays_fault_and_migration() {
        let (mut e, base) = engine_with(
            UvmConfig::default().with_prefetch(PrefetchPolicy::None),
            Bytes::mib(1),
        );
        let t = e.run_kernel(KernelSpec::new("one").with_block(seq_reads(base, 1)));
        // 1 (TLB) + 100 (walk) + 45us + 4KB transfer + 300 (mem) + ...
        assert!(t > Duration::from_micros(45.0));
        assert!(t < Duration::from_micros(60.0));
        assert_eq!(e.gmmu().stats().far_faults, 1);
    }

    #[test]
    fn tlb_hits_after_first_touch() {
        let (mut e, base) = engine_with(
            UvmConfig::default().with_prefetch(PrefetchPolicy::None),
            Bytes::mib(1),
        );
        // Access the same page 100 times.
        let k = KernelSpec::new("hot").with_block(ThreadBlockSpec::from_accesses(
            (0..100).map(move |_| Access::read(base)),
        ));
        e.run_kernel(k);
        assert_eq!(e.gmmu().stats().far_faults, 1);
        // Second launch touches it again: still no fault.
        let k = KernelSpec::new("hot2").with_block(ThreadBlockSpec::from_accesses(
            std::iter::once(Access::read(base)),
        ));
        e.run_kernel(k);
        assert_eq!(e.gmmu().stats().far_faults, 1);
    }

    #[test]
    fn prefetched_pages_do_not_refault() {
        let (mut e, base) = engine_with(
            UvmConfig::default().with_prefetch(PrefetchPolicy::SequentialLocal),
            Bytes::mib(1),
        );
        e.run_kernel(KernelSpec::new("s").with_block(seq_reads(base, 64)));
        // 64 pages = 4 basic blocks = 4 faults with SLp.
        assert_eq!(e.gmmu().stats().far_faults, 4);
        assert_eq!(e.gmmu().stats().pages_migrated, 64);
    }

    #[test]
    fn kernels_serialize_and_clock_advances() {
        let (mut e, base) = engine_with(UvmConfig::default(), Bytes::mib(1));
        let r1 = e.run_kernel_detailed(KernelSpec::new("a").with_block(seq_reads(base, 8)));
        assert_eq!(e.now(), r1.end);
        let r2 = e.run_kernel_detailed(KernelSpec::new("b").with_block(seq_reads(base, 8)));
        assert!(r2.end >= r1.end);
        assert_eq!(r2.name, "b");
    }

    #[test]
    fn multiple_blocks_share_the_machine() {
        let (mut e, base) = engine_with(
            UvmConfig::default().with_prefetch(PrefetchPolicy::None),
            Bytes::mib(4),
        );
        let mut k = KernelSpec::new("par");
        for b in 0..56 {
            // Each block reads its own page: 56 faults, but they share
            // the driver, so time is dominated by 56 serialized faults.
            let page_base = base.offset(Bytes::kib(4) * b);
            k.push_block(ThreadBlockSpec::from_accesses(std::iter::once(
                Access::read(page_base),
            )));
        }
        let t = e.run_kernel(k);
        assert_eq!(e.gmmu().stats().far_faults, 56);
        // All faults raised around t=0 drain through the default 8
        // fault lanes: at least ceil(56/8) = 7 serialized windows.
        assert!(t > Duration::from_micros(45.0 * 6.0));
        assert!(t < Duration::from_micros(45.0 * 20.0));
    }

    #[test]
    fn concurrent_faults_on_same_page_merge() {
        let (mut e, base) = engine_with(
            UvmConfig::default().with_prefetch(PrefetchPolicy::None),
            Bytes::mib(1),
        );
        let mut k = KernelSpec::new("merge");
        for _ in 0..10 {
            k.push_block(ThreadBlockSpec::from_accesses(std::iter::once(
                Access::read(base),
            )));
        }
        e.run_kernel(k);
        // Ten warps, one page: a single migration.
        assert_eq!(e.gmmu().stats().far_faults, 1);
        assert_eq!(e.gmmu().stats().pages_migrated, 1);
    }

    #[test]
    fn eviction_shoots_down_tlbs_and_refaults() {
        let cfg = UvmConfig::default()
            .with_capacity(Bytes::kib(256)) // 64 frames
            .with_prefetch(PrefetchPolicy::None)
            .with_evict(EvictPolicy::LruPage);
        let (mut e, base) = engine_with(cfg, Bytes::mib(1));
        // Two sweeps over 128 pages with a 64-frame budget.
        e.run_kernel(KernelSpec::new("sweep1").with_block(seq_reads(base, 128)));
        let faults_after_first = e.gmmu().stats().far_faults;
        assert_eq!(faults_after_first, 128);
        e.run_kernel(KernelSpec::new("sweep2").with_block(seq_reads(base, 128)));
        // LRU on a linear re-scan thrashes: every page refaults.
        assert_eq!(e.gmmu().stats().far_faults, 256);
        assert!(e.gmmu().stats().pages_thrashed >= 128);
    }

    #[test]
    fn trace_captures_accesses() {
        let (mut e, base) = engine_with(UvmConfig::default(), Bytes::mib(1));
        e.enable_trace();
        e.run_kernel(KernelSpec::new("t").with_block(seq_reads(base, 4)));
        let trace = e.take_trace();
        assert_eq!(trace.len(), 4);
        let pages: Vec<u64> = trace.iter().map(|ev| ev.page.index()).collect();
        assert_eq!(pages, vec![0, 1, 2, 3]);
        assert!(trace.iter().all(|ev| ev.warp == 0 && !ev.write));
        // Trace is consumed but capture stays on.
        e.run_kernel(KernelSpec::new("t2").with_block(seq_reads(base, 2)));
        assert_eq!(e.take_trace().len(), 2);
    }

    #[test]
    fn radix_walk_model_shortens_warm_walks() {
        // Same kernel, flat vs radix walks: the radix walker's warm
        // walks (25 cycles) beat the flat 100-cycle walk for a
        // sequential scan, so the run is strictly faster.
        let run = |radix: Option<(Duration, usize)>| {
            let mut gmmu =
                Gmmu::new(UvmConfig::default().with_prefetch(PrefetchPolicy::SequentialLocal));
            let base = gmmu.malloc_managed(Bytes::mib(1));
            let mut e = Engine::new(
                gmmu,
                GpuConfig {
                    radix_walk: radix,
                    ..GpuConfig::default()
                },
            );
            e.run_kernel(KernelSpec::new("scan").with_block(seq_reads(base, 256)))
        };
        let flat = run(None);
        let radix = run(Some((Duration::from_cycles(25), 32)));
        assert!(radix < flat, "radix {radix} vs flat {flat}");
    }

    #[test]
    fn fault_injection_is_deterministic_at_the_engine_level() {
        use uvm_core::FaultPlan;
        // A full engine replay under the chaos plan: two engines with
        // the same seed produce identical times and stats; a seeded
        // but all-zero-probability plan matches the unarmed engine.
        let run = |plan: FaultPlan| {
            let cfg = UvmConfig::default()
                .with_capacity(Bytes::kib(256))
                .with_prefetch(PrefetchPolicy::None)
                .with_evict(EvictPolicy::LruPage)
                .with_fault_plan(plan);
            let (mut e, base) = engine_with(cfg, Bytes::mib(1));
            let t = e.run_kernel(KernelSpec::new("sweep").with_block(seq_reads(base, 128)));
            (t, e.gmmu().stats().clone())
        };
        let chaos = FaultPlan::chaos().with_seed(0xfa11);
        let (t1, s1) = run(chaos);
        let (t2, s2) = run(chaos);
        assert_eq!(t1, t2);
        assert_eq!(s1, s2);
        assert!(!s1.fault_injection.is_clean(), "chaos injects something");

        let (t_clean, s_clean) = run(FaultPlan::none());
        let (t_inert, s_inert) = run(FaultPlan::none().with_seed(0xfa11));
        assert_eq!(t_clean, t_inert, "an inert plan draws no randomness");
        assert_eq!(s_clean, s_inert);
        assert!(s_clean.fault_injection.is_clean());
        assert!(t1 > t_clean, "injected faults cost time");
    }

    #[test]
    fn arena_is_reused_across_kernels() {
        let (mut e, base) = engine_with(UvmConfig::default(), Bytes::mib(1));
        e.run_kernel(KernelSpec::new("a").with_block(seq_reads(base, 64)));
        let cap = e.arena.capacity();
        assert!(cap >= 64);
        e.run_kernel(KernelSpec::new("b").with_block(seq_reads(base, 32)));
        assert_eq!(e.arena.capacity(), cap, "smaller kernel reuses the arena");
    }

    /// Builds a fresh engine from `cfg`, restores `image` into it, and
    /// checks the restored engine re-serializes identically.
    fn restore(image: &[u8], cfg: UvmConfig, alloc: Bytes) -> Engine {
        let mut gmmu = Gmmu::new(cfg);
        gmmu.malloc_managed(alloc);
        let mut e = Engine::new(gmmu, GpuConfig::default());
        let mut r = uvm_types::codec::ByteReader::new(image);
        e.load_state(&mut r).unwrap();
        r.finish().unwrap();
        e.audit().unwrap();
        let mut w = uvm_types::codec::ByteWriter::new();
        e.save_state(&mut w);
        assert_eq!(image, w.into_bytes(), "restored engine diverges");
        e
    }

    #[test]
    fn checkpoint_resume_is_byte_identical_under_thrashing() {
        let cfg = UvmConfig::default()
            .with_capacity(Bytes::kib(256))
            .with_prefetch(PrefetchPolicy::SequentialLocal)
            .with_evict(EvictPolicy::LruPage);
        let (mut e, base) = engine_with(cfg.clone(), Bytes::mib(1));
        e.run_kernel(KernelSpec::new("warm").with_block(seq_reads(base, 128)));
        e.audit().unwrap();
        let mut w = uvm_types::codec::ByteWriter::new();
        e.save_state(&mut w);
        let image = w.into_bytes();
        let mut resumed = restore(&image, cfg, Bytes::mib(1));
        // Both engines run the same second kernel: identical timing,
        // stats, and a second checkpoint with identical bytes.
        let t1 = e.run_kernel(KernelSpec::new("again").with_block(seq_reads(base, 128)));
        let t2 = resumed.run_kernel(KernelSpec::new("again").with_block(seq_reads(base, 128)));
        assert_eq!(t1, t2);
        assert_eq!(e.gmmu().stats(), resumed.gmmu().stats());
        let (mut w1, mut w2) = (
            uvm_types::codec::ByteWriter::new(),
            uvm_types::codec::ByteWriter::new(),
        );
        e.save_state(&mut w1);
        resumed.save_state(&mut w2);
        assert_eq!(w1.into_bytes(), w2.into_bytes());
        e.audit().unwrap();
        resumed.audit().unwrap();
    }

    #[test]
    fn checkpoint_resume_replays_chaos_identically() {
        use uvm_core::FaultPlan;
        let cfg = UvmConfig::default()
            .with_capacity(Bytes::kib(256))
            .with_prefetch(PrefetchPolicy::None)
            .with_evict(EvictPolicy::LruPage)
            .with_fault_plan(FaultPlan::chaos().with_seed(0xfa11));
        // Reference: uninterrupted two-kernel run.
        let (mut reference, base) = engine_with(cfg.clone(), Bytes::mib(1));
        reference.run_kernel(KernelSpec::new("a").with_block(seq_reads(base, 128)));
        let t_ref = reference.run_kernel(KernelSpec::new("b").with_block(seq_reads(base, 96)));
        // Checkpointed: same first kernel, save, restore, second kernel.
        let (mut e, base) = engine_with(cfg.clone(), Bytes::mib(1));
        e.run_kernel(KernelSpec::new("a").with_block(seq_reads(base, 128)));
        e.audit().unwrap();
        let mut w = uvm_types::codec::ByteWriter::new();
        e.save_state(&mut w);
        let mut resumed = restore(&w.into_bytes(), cfg, Bytes::mib(1));
        let t = resumed.run_kernel(KernelSpec::new("b").with_block(seq_reads(base, 96)));
        assert_eq!(t, t_ref, "resume diverged from the uninterrupted run");
        assert_eq!(resumed.gmmu().stats(), reference.gmmu().stats());
        assert!(!resumed.gmmu().stats().fault_injection.is_clean());
    }

    #[test]
    fn checkpoint_rejects_mismatched_machine_shape() {
        let (mut e, base) = engine_with(UvmConfig::default(), Bytes::mib(1));
        e.run_kernel(KernelSpec::new("k").with_block(seq_reads(base, 8)));
        let mut w = uvm_types::codec::ByteWriter::new();
        e.save_state(&mut w);
        let image = w.into_bytes();
        let mut gmmu = Gmmu::new(UvmConfig::default());
        gmmu.malloc_managed(Bytes::mib(1));
        let mut other = Engine::new(
            gmmu,
            GpuConfig {
                num_sms: 4,
                ..GpuConfig::default()
            },
        );
        let mut r = uvm_types::codec::ByteReader::new(&image);
        let err = other.load_state(&mut r).unwrap_err();
        assert!(
            matches!(err, uvm_core::CheckpointError::Incompatible(_)),
            "{err}"
        );
    }

    #[test]
    fn audit_catches_a_stale_holder_bit() {
        let (mut e, base) = engine_with(
            UvmConfig::default().with_prefetch(PrefetchPolicy::None),
            Bytes::mib(1),
        );
        e.run_kernel(KernelSpec::new("k").with_block(seq_reads(base, 4)));
        e.audit().unwrap();
        // Plant a holder bit for a page no TLB caches: the reverse
        // cross-check must flag it.
        e.shootdown.note_fill(base.page().add(100), 3);
        let err = e.audit().unwrap_err();
        assert!(
            err.violations.iter().any(|v| v.contains("holder bit")),
            "{err}"
        );
    }

    /// Two kernels under eviction pressure (strided multi-block sweep,
    /// then a thrashing linear re-scan), returning every observable:
    /// times, stats, trace, and the serialized machine state.
    fn thrashing_observables(
        threads: usize,
    ) -> (
        Duration,
        Duration,
        uvm_core::UvmStats,
        Vec<TraceEvent>,
        Vec<u8>,
    ) {
        let cfg = UvmConfig::default()
            .with_capacity(Bytes::kib(256))
            .with_prefetch(PrefetchPolicy::SequentialLocal)
            .with_evict(EvictPolicy::LruPage);
        let mut gmmu = Gmmu::new(cfg);
        let base = gmmu.malloc_managed(Bytes::mib(1));
        let mut e = Engine::new(gmmu, GpuConfig::default());
        e.set_engine_threads(threads);
        e.enable_trace();
        let mut k = KernelSpec::new("strided");
        for b in 0..56u64 {
            k.push_block(ThreadBlockSpec::from_accesses((0..24u64).map(move |i| {
                Access::read(base.offset(Bytes::kib(4) * ((b * 4 + i * 3) % 256)))
            })));
        }
        let t1 = e.run_kernel(k);
        let t2 = e.run_kernel(KernelSpec::new("rescan").with_block(seq_reads(base, 200)));
        e.audit().unwrap();
        let trace = e.take_trace();
        let mut w = uvm_types::codec::ByteWriter::new();
        e.save_state(&mut w);
        (t1, t2, e.gmmu().stats().clone(), trace, w.into_bytes())
    }

    #[test]
    fn sharded_execution_is_byte_identical_to_serial() {
        let serial = thrashing_observables(1);
        assert!(serial.2.pages_evicted > 0, "scenario must evict");
        for threads in [2, 3, 4, 8, 28, 0] {
            let sharded = thrashing_observables(threads);
            assert_eq!(serial.0, sharded.0, "kernel 1 time at {threads} shards");
            assert_eq!(serial.1, sharded.1, "kernel 2 time at {threads} shards");
            assert_eq!(serial.2, sharded.2, "stats at {threads} shards");
            assert_eq!(serial.3, sharded.3, "trace at {threads} shards");
            assert_eq!(serial.4, sharded.4, "state bytes at {threads} shards");
        }
    }

    #[test]
    fn sharded_threaded_executor_is_byte_identical_to_serial() {
        // Force the journaled multi-worker executor (speculation,
        // rollback, epoch barriers) even on a single-CPU host; width 1
        // never consults the executor, so the serial baseline is
        // unaffected by the env var.
        std::env::set_var("UVM_ENGINE_OS_THREADS", "4");
        let serial = thrashing_observables(1);
        for threads in [2, 4, 28] {
            let sharded = thrashing_observables(threads);
            assert_eq!(serial.0, sharded.0, "kernel 1 time at {threads} shards");
            assert_eq!(serial.1, sharded.1, "kernel 2 time at {threads} shards");
            assert_eq!(serial.2, sharded.2, "stats at {threads} shards");
            assert_eq!(serial.3, sharded.3, "trace at {threads} shards");
            assert_eq!(serial.4, sharded.4, "state bytes at {threads} shards");
        }
        std::env::remove_var("UVM_ENGINE_OS_THREADS");
    }

    #[test]
    fn sharded_replays_chaos_identically() {
        use uvm_core::FaultPlan;
        let run = |threads: usize| {
            let cfg = UvmConfig::default()
                .with_capacity(Bytes::kib(256))
                .with_prefetch(PrefetchPolicy::None)
                .with_evict(EvictPolicy::LruPage)
                .with_fault_plan(FaultPlan::chaos().with_seed(0xfa11));
            let mut gmmu = Gmmu::new(cfg);
            let base = gmmu.malloc_managed(Bytes::mib(1));
            let mut e = Engine::new(gmmu, GpuConfig::default());
            e.set_engine_threads(threads);
            let mut k = KernelSpec::new("chaos");
            for b in 0..40u64 {
                k.push_block(ThreadBlockSpec::from_accesses((0..16u64).map(move |i| {
                    Access::read(base.offset(Bytes::kib(4) * ((b * 7 + i) % 128)))
                })));
            }
            let t = e.run_kernel(k);
            e.audit().unwrap();
            let mut w = uvm_types::codec::ByteWriter::new();
            e.save_state(&mut w);
            (t, e.gmmu().stats().clone(), w.into_bytes())
        };
        let serial = run(1);
        assert!(
            !serial.1.fault_injection.is_clean(),
            "chaos must inject something"
        );
        for threads in [2, 4, 28] {
            assert_eq!(serial, run(threads), "chaos replay at {threads} shards");
        }
    }

    #[test]
    fn sharded_watchdog_trips_with_the_serial_message() {
        let run = |threads: usize| {
            let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let mut gmmu = Gmmu::new(UvmConfig::default().with_prefetch(PrefetchPolicy::None));
                let base = gmmu.malloc_managed(Bytes::mib(1));
                let mut e = Engine::new(
                    gmmu,
                    GpuConfig {
                        max_kernel_cycles: Some(50_000),
                        ..GpuConfig::default()
                    },
                );
                e.set_engine_threads(threads);
                let mut k = KernelSpec::new("wd");
                for b in 0..8u64 {
                    k.push_block(seq_reads(base.offset(Bytes::kib(4) * (b * 16)), 16));
                }
                e.run_kernel(k);
            }))
            .expect_err("the watchdog must trip");
            *err.downcast::<String>().expect("panic carries a message")
        };
        let serial = run(1);
        assert!(serial.contains("watchdog: kernel wd exceeded"), "{serial}");
        assert_eq!(serial, run(4), "sharded watchdog message diverged");
    }

    #[test]
    #[should_panic(expected = "at least one SM")]
    fn zero_sms_rejected() {
        let gmmu = Gmmu::new(UvmConfig::default());
        let _ = Engine::new(
            gmmu,
            GpuConfig {
                num_sms: 0,
                ..GpuConfig::default()
            },
        );
    }

    #[test]
    fn checkpoint_rejects_a_trace_count_the_image_cannot_hold() {
        let (mut e, base) = engine_with(UvmConfig::default(), Bytes::mib(1));
        e.run_kernel(KernelSpec::new("k").with_block(seq_reads(base, 8)));
        let mut w = uvm_types::codec::ByteWriter::new();
        e.save_state(&mut w);
        // A trace-off image ends with the trace flag; claim a 2^40-event
        // trace instead.
        let mut image = w.into_bytes();
        assert_eq!(image.pop(), Some(0), "trace flag is the last byte");
        let mut tail = uvm_types::codec::ByteWriter::new();
        tail.put_bool(true);
        tail.put_usize(1 << 40);
        image.extend(tail.into_bytes());
        let (mut fresh, _) = engine_with(UvmConfig::default(), Bytes::mib(1));
        let err = fresh
            .load_state(&mut uvm_types::codec::ByteReader::new(&image))
            .unwrap_err();
        assert!(matches!(err, uvm_core::CheckpointError::Codec(_)), "{err}");
    }
}
