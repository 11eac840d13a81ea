//! The `fit` and `oversub` workloads: single simulations ("cells") run
//! one after another on the calling thread, with no executor.
//!
//! Untraced, each cell goes through `uvm_sim::run_workload`, exactly
//! as a user's single run does. Traced, the benchmark drives the same
//! cell itself — `Gmmu::new`, `Workload::build`, `Engine::new`, then
//! `Engine::run_kernel` per launch — and afterwards replays the cell's
//! recorded access stream through public `Tlb`s and its merged
//! fault + access stream through a fresh `Gmmu`, timing each layer
//! from outside.

use std::fs;
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

use uvm_core::{EvictPolicy, FaultPlan, Gmmu, PrefetchPolicy, UvmConfig};
use uvm_gpu::{Engine, KernelSpec, TraceEvent};
use uvm_mem::{Tlb, TlbLookup};
use uvm_sim::experiments::{self, Scale, COMBOS};
use uvm_sim::{measure_footprint, run_workload, RunOptions, RunResult, Warmup};
use uvm_types::{Bytes, Cycle, PageId};
use uvm_workloads::{Bfs, Hotspot, Workload};

use crate::host::{cpu_seconds, peak_rss_mb};
use crate::{best, median, quantile, Args, Report, Workload as Regime, SETUP_REPS};

/// Over-subscription levels of the `oversub` workload (footprint as a
/// multiple of device memory).
pub const OVERSUB_FRACS: [f64; 2] = [1.10, 1.25];

/// Passes measured at least, whatever `--seconds` says: the
/// repetition checks need more than one.
const MIN_PASSES: usize = 3;

/// One simulation of the workload: a benchmark under one option set.
pub struct Cell {
    pub workload: Box<dyn Workload>,
    pub opts: RunOptions,
}

impl Cell {
    pub fn label(&self) -> String {
        format!(
            "{}/{}+{}@{}",
            self.workload.name(),
            self.opts.prefetch,
            self.opts.evict,
            self.opts
                .memory_frac
                .map_or("inf".to_owned(), |f| f.to_string())
        )
    }
}

/// The benchmark suite with `Bfs::seed` taken from the input seed. At
/// smoke scale (the benchmark's tests) only `rng_seed` follows it.
pub fn suite(scale: Scale, seed: Option<u64>) -> Vec<Box<dyn Workload>> {
    let mut suite = experiments::suite(scale);
    if let (Scale::Paper, Some(seed)) = (scale, seed) {
        for w in &mut suite {
            if w.name() == "bfs" {
                *w = Box::new(Bfs {
                    seed,
                    ..Bfs::default()
                });
            }
        }
    }
    suite
}

/// The cells of `fit` (suite × paper prefetchers, LRU-4KB, unlimited
/// memory) or `oversub` (suite × Fig. 11 pairs × [`OVERSUB_FRACS`]).
pub fn cells(regime: Regime, scale: Scale, seed: Option<u64>) -> Vec<Cell> {
    let rng_seed = seed.unwrap_or(RunOptions::default().rng_seed);
    let base = RunOptions::default().with_rng_seed(rng_seed);
    let mut out = Vec::new();
    match regime {
        Regime::Fit => {
            for w in suite(scale, seed) {
                for p in PrefetchPolicy::ALL {
                    out.push(Cell {
                        workload: w.clone(),
                        opts: base.clone().with_prefetch(p),
                    });
                }
            }
        }
        Regime::Oversub => {
            for frac in OVERSUB_FRACS {
                for w in suite(scale, seed) {
                    for (_, p, e, disable) in COMBOS {
                        out.push(Cell {
                            workload: w.clone(),
                            opts: base
                                .clone()
                                .with_prefetch(p)
                                .with_evict(e)
                                .with_memory_frac(frac)
                                .with_disable_prefetch_on_oversubscription(disable),
                        });
                    }
                }
            }
        }
        Regime::Repro => unreachable!("repro has no cells"),
    }
    out
}

/// The simulated outcome of a cell that any host-speed change must
/// leave identical.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Counts {
    pub accesses: u64,
    pub kernel_cycles: Vec<u64>,
    pub far_faults: u64,
    pub pages_migrated: u64,
    pub pages_prefetched: u64,
    pub prefetched_used: u64,
    pub pages_evicted: u64,
    pub pages_thrashed: u64,
    pub read_bytes: u64,
    pub write_bytes: u64,
    pub read_transfers: u64,
    pub read_transfers_4k: u64,
}

impl Counts {
    fn from_result(r: &RunResult) -> Self {
        Counts {
            accesses: r.accesses,
            kernel_cycles: r.kernel_times.iter().map(|t| t.cycles()).collect(),
            far_faults: r.far_faults,
            pages_migrated: r.pages_migrated,
            pages_prefetched: r.pages_prefetched,
            prefetched_used: r.prefetched_used,
            pages_evicted: r.pages_evicted,
            pages_thrashed: r.pages_thrashed,
            read_bytes: r.read_bytes.bytes(),
            write_bytes: r.write_bytes.bytes(),
            read_transfers: r.read_transfers,
            read_transfers_4k: r.read_transfers_4k,
        }
    }

    fn from_gmmu(g: &Gmmu, kernel_cycles: Vec<u64>) -> Self {
        let s = g.stats();
        let read = g.read_stats();
        Counts {
            accesses: s.accesses,
            kernel_cycles,
            far_faults: s.far_faults,
            pages_migrated: s.pages_migrated,
            pages_prefetched: s.pages_prefetched,
            prefetched_used: s.prefetched_used,
            pages_evicted: s.pages_evicted,
            pages_thrashed: s.pages_thrashed,
            read_bytes: read.bytes.bytes(),
            write_bytes: g.write_stats().bytes.bytes(),
            read_transfers: read.transfers(),
            read_transfers_4k: read.histogram.count_4kib(),
        }
    }

    fn sim_cycles(&self) -> u64 {
        self.kernel_cycles.iter().sum()
    }
}

/// The `UvmConfig` that `run_workload` builds for `opts` (no
/// warm-up, no fault plan: every benchmark cell is a plain cold run).
fn uvm_config(opts: &RunOptions, capacity: Option<Bytes>) -> UvmConfig {
    let cfg = UvmConfig::default()
        .with_prefetch(opts.prefetch.clone())
        .with_evict(opts.evict.clone())
        .with_disable_prefetch_on_oversubscription(opts.disable_prefetch_on_oversubscription)
        .with_rng_seed(opts.rng_seed)
        .with_fault_plan(FaultPlan::none());
    match capacity {
        Some(c) => cfg.with_capacity(c),
        None => cfg,
    }
}

/// The device budget `run_workload` derives from the footprint.
fn capacity(footprint: Bytes, memory_frac: Option<f64>) -> Option<Bytes> {
    memory_frac.map(|frac| Bytes::new((footprint.bytes() as f64 / frac).ceil() as u64))
}

/// Builds a cell's engine and launch list the way `run_workload` does.
fn build(cell: &Cell) -> (Engine, Vec<KernelSpec>) {
    let cap = capacity(
        measure_footprint(cell.workload.as_ref()),
        cell.opts.memory_frac,
    );
    let mut gmmu = Gmmu::new(uvm_config(&cell.opts, cap));
    let kernels = {
        let mut malloc = |size: Bytes| gmmu.malloc_managed(size);
        cell.workload.build(&mut malloc)
    };
    (Engine::new(gmmu, cell.opts.gpu.clone()), kernels)
}

fn total_accesses(kernels: &[KernelSpec]) -> u64 {
    kernels.iter().map(|k| k.total_accesses() as u64).sum()
}

/// Set-up of one pass: everything `run_workload` does before the first
/// simulated access (footprint measurement, input generation, GMMU and
/// engine construction), for every cell. Returns the time taken and
/// each cell's expected access count.
fn setup(cells: &[Cell]) -> (f64, Vec<u64>) {
    let t = Instant::now();
    let expected = cells
        .iter()
        .map(|c| {
            let (engine, kernels) = build(c);
            black_box(&engine);
            total_accesses(&kernels)
        })
        .collect();
    (t.elapsed().as_secs_f64(), expected)
}

/// The shared per-run state of a `fit`/`oversub` invocation.
struct Bench<'a> {
    cells: Vec<Cell>,
    expected: Vec<u64>,
    reference: Option<Vec<Counts>>,
    report: &'a mut Report,
}

impl Bench<'_> {
    /// Checks a cell's counts against its expected access count and
    /// against the first pass.
    fn check_counts(&mut self, i: usize, counts: &Counts, how: &str) {
        let label = || self.cells[i].label();
        let expected = self.expected[i];
        let got = counts.accesses;
        self.report.check(got == expected, || {
            format!(
                "{}: {how} completed {got} accesses, its kernels hold {expected}",
                label()
            )
        });
        if let Some(reference) = &self.reference {
            let same = reference[i] == *counts;
            self.report.check(same, || {
                format!("{}: {how} counts differ from the first pass", label())
            });
        }
    }

    /// One untraced pass: every cell through `run_workload`, each
    /// cell's wall and CPU time appended to `times`. Returns the pass's
    /// wall time in seconds.
    fn untraced_pass(&mut self, times: &mut CellTimes) -> f64 {
        let t0 = Instant::now();
        let mut counts = Vec::with_capacity(self.cells.len());
        for (i, cell) in self.cells.iter().enumerate() {
            let (t, c) = (Instant::now(), cpu_seconds());
            let r = run_workload(cell.workload.as_ref(), cell.opts.clone());
            times.wall_ms[i].push(t.elapsed().as_secs_f64() * 1e3);
            times.cpu_ms[i].push((cpu_seconds() - c) * 1e3);
            counts.push(Counts::from_result(&r));
        }
        let wall = t0.elapsed().as_secs_f64();
        for (i, c) in counts.iter().enumerate() {
            self.check_counts(i, c, "run_workload");
        }
        if self.reference.is_none() {
            self.reference = Some(counts);
        }
        wall
    }

    /// One traced pass: every cell driven kernel by kernel, then
    /// replayed through the TLB and GMMU layers.
    fn traced_pass(&mut self) -> (f64, Layers) {
        let t0 = Instant::now();
        let mut layers = Layers::default();
        for i in 0..self.cells.len() {
            let counts = traced_cell(&self.cells[i], &mut self.report.spans, &mut layers);
            match counts {
                Ok(c) => {
                    self.check_counts(i, &c, "the traced engine");
                    layers.cells.push(c);
                }
                Err(e) => {
                    let label = self.cells[i].label();
                    self.report
                        .check(false, || format!("{label}: traced run failed: {e}"));
                }
            }
        }
        (t0.elapsed().as_secs_f64(), layers)
    }
}

/// Host time of every repetition of every cell, in ms, by cell.
struct CellTimes {
    wall_ms: Vec<Vec<f64>>,
    cpu_ms: Vec<Vec<f64>>,
}

impl CellTimes {
    fn new(cells: usize) -> Self {
        CellTimes {
            wall_ms: vec![Vec::new(); cells],
            cpu_ms: vec![Vec::new(); cells],
        }
    }

    /// Each cell's best repetition.
    fn best(samples: &[Vec<f64>]) -> Vec<f64> {
        samples.iter().map(|v| best(v)).collect()
    }
}

/// Runs `fit` or `oversub` and fills `report`.
pub fn run(args: &Args, report: &mut Report) {
    let cells = cells(args.workload, args.scale, args.seed);
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut expected = Vec::new();
    for _ in 0..SETUP_REPS {
        let (s, e) = setup(&cells);
        setups.push(s);
        expected = e;
    }
    let accesses: u64 = expected.iter().sum();
    let mut bench = Bench {
        cells,
        expected,
        reference: None,
        report,
    };
    // Untimed warm-up pass: lets allocator and caches settle, and
    // fixes the reference counts every later pass must repeat.
    bench.untraced_pass(&mut CellTimes::new(bench.cells.len()));
    let peak_rss = peak_rss_mb();

    let mut times = CellTimes::new(bench.cells.len());
    let mut walls = Vec::new();
    let start = Instant::now();
    if !args.trace {
        while walls.len() < MIN_PASSES || start.elapsed().as_secs_f64() < args.seconds {
            walls.push(bench.untraced_pass(&mut times));
            // Set-ups spread over the window see the same host
            // conditions as the passes.
            setups.push(setup(&bench.cells).0);
        }
        let report = bench.report;
        // A pass is a sequence of independent cells, so its
        // least-disturbed wall time is the sum of each cell's best
        // repetition (see README.md).
        let cell_wall = CellTimes::best(&times.wall_ms);
        let wall_s = cell_wall.iter().sum::<f64>() * 1e-3;
        report.set("wall_s", wall_s);
        report.set(
            "cpu_s",
            CellTimes::best(&times.cpu_ms).iter().sum::<f64>() * 1e-3,
        );
        report.set("sim_rate_macc_s", accesses as f64 / wall_s * 1e-6);
        report.set("run_ms_p50", median(&cell_wall));
        report.set("run_ms_p90", quantile(&cell_wall, 0.9));
        report.set("setup_s", median(&setups));
        report.set("peak_rss_mb", peak_rss);
        report.note(format!(
            "{} passes of {} cells; measured pass wall s min {:.4} median {:.4} max {:.4}; \
             per-cell times are each cell's best of {} runs",
            walls.len(),
            cell_wall.len(),
            best(&walls),
            median(&walls),
            quantile(&walls, 1.0),
            walls.len(),
        ));
        return;
    }

    // Traced: alternate untraced and traced passes so both see the
    // same host conditions; the ratio of their best passes is the
    // tracing overhead.
    let mut traced_walls = Vec::new();
    let mut per_pass: Vec<Layers> = Vec::new();
    while per_pass.is_empty() || start.elapsed().as_secs_f64() < args.seconds {
        walls.push(bench.untraced_pass(&mut times));
        let mark = bench.report.spans.mark();
        let (wall, mut layers) = bench.traced_pass();
        layers.take_spans(&bench.report.spans, mark);
        traced_walls.push(wall);
        per_pass.push(layers);
    }
    let report = bench.report;
    report.set(
        "bench.trace_overhead_ratio",
        best(&traced_walls) / best(&walls),
    );
    report.set(
        "bench.run_samples",
        times.wall_ms.iter().map(Vec::len).sum::<usize>() as f64,
    );
    report.set("gpu-sim.fork_us", fork_us(args.scale));
    Layers::report(&per_pass, report);
    report.note(format!(
        "{} traced passes against {} untraced ones",
        per_pass.len(),
        walls.len()
    ));
}

/// Per-pass layer measurements of the traced run.
#[derive(Clone, Debug, Default)]
struct Layers {
    /// Timings in ms, by span name, summed over the pass's spans.
    ms: Vec<(&'static str, f64)>,
    self_ms: Vec<(&'static str, f64)>,
    tlb_hits: u64,
    tlb_misses: u64,
    replayed_faults: u64,
    replayed_accesses: u64,
    /// The simulated outcome of every cell.
    cells: Vec<Counts>,
}

impl Layers {
    fn take_spans(&mut self, spans: &crate::span::Spans, mark: usize) {
        for name in [
            "workloads.build",
            "sim.footprint",
            "gpu-sim.run_kernel",
            "mem.tlb_replay",
            "core.replay",
            "core.fault_service",
            "core.record_access",
        ] {
            self.ms.push((name, spans.total_ms(mark, name)));
        }
        self.self_ms = spans.self_ms_by_layer(mark).into_iter().collect();
    }

    fn get(&self, name: &str) -> f64 {
        let found = self
            .ms
            .iter()
            .chain(&self.self_ms)
            .find(|(n, _)| *n == name);
        found.map_or(0.0, |&(_, v)| v)
    }

    /// Reports every timing at its best pass, and the counts
    /// (identical in every pass, which the count checks enforce).
    fn report(passes: &[Layers], report: &mut Report) {
        let first = &passes[0];
        let sum = |f: fn(&Counts) -> u64| first.cells.iter().map(f).sum::<u64>();
        let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
        let accesses = sum(|c| c.accesses);
        let at_best = |f: &dyn Fn(&Layers) -> f64| best(&passes.iter().map(f).collect::<Vec<_>>());
        for (metric, span) in [
            ("workloads.build_ms", "workloads.build"),
            ("sim.footprint_ms", "sim.footprint"),
            ("gpu-sim.run_kernel_ms", "gpu-sim.run_kernel"),
            ("mem.tlb_replay_ms", "mem.tlb_replay"),
            ("core.replay_ms", "core.replay"),
            ("core.fault_service_ms", "core.fault_service"),
        ] {
            report.set(metric, at_best(&|l| l.get(span)));
        }
        for layer in crate::LAYERS {
            report.set(&format!("{layer}.self_ms"), at_best(&|l| l.get(layer)));
        }
        report.set(
            "gpu-sim.ns_per_access",
            at_best(&|l| l.get("gpu-sim.run_kernel") * 1e6 / accesses.max(1) as f64),
        );
        report.set(
            "gpu-sim.residual_ms",
            at_best(&|l| {
                l.get("gpu-sim.run_kernel")
                    - l.get("mem.tlb_replay")
                    - l.get("core.fault_service")
                    - l.get("core.record_access")
            }),
        );
        report.set(
            "core.us_per_fault",
            at_best(&|l| l.get("core.fault_service") * 1e3 / l.replayed_faults.max(1) as f64),
        );
        report.set(
            "core.record_access_ns",
            at_best(&|l| l.get("core.record_access") * 1e6 / l.replayed_accesses.max(1) as f64),
        );
        let read_bytes = sum(|c| c.read_bytes);
        let sim_secs: f64 = first
            .cells
            .iter()
            .map(|c| uvm_types::Duration::from_cycles(c.sim_cycles()).as_secs())
            .sum();
        for (metric, value) in [
            (
                "mem.tlb_hit_ratio",
                ratio(first.tlb_hits, first.tlb_hits + first.tlb_misses),
            ),
            (
                "core.replay_fidelity",
                ratio(first.replayed_faults, sum(|c| c.far_faults)),
            ),
            ("gpu-sim.accesses", accesses as f64),
            ("gpu-sim.sim_cycles", sum(|c| c.sim_cycles()) as f64),
            ("core.far_faults", sum(|c| c.far_faults) as f64),
            (
                "core.prefetch_useful_ratio",
                ratio(sum(|c| c.prefetched_used), sum(|c| c.pages_prefetched)),
            ),
            ("core.pages_evicted", sum(|c| c.pages_evicted) as f64),
            (
                "core.thrash_ratio",
                ratio(sum(|c| c.pages_thrashed), sum(|c| c.pages_migrated)),
            ),
            ("interconnect.read_gb", read_bytes as f64 * 1e-9),
            (
                "interconnect.write_gb",
                sum(|c| c.write_bytes) as f64 * 1e-9,
            ),
            (
                "interconnect.read_4k_share",
                ratio(sum(|c| c.read_transfers_4k), sum(|c| c.read_transfers)),
            ),
            (
                "interconnect.read_bw_gbps",
                if sim_secs > 0.0 {
                    read_bytes as f64 * 1e-9 / sim_secs
                } else {
                    0.0
                },
            ),
        ] {
            report.set(metric, value);
        }
    }
}

/// One record of a cell's merged fault + access stream.
#[derive(Clone, Copy, Debug)]
enum Record {
    Fault {
        cycle: u64,
        page: PageId,
    },
    Access {
        cycle: u64,
        page: PageId,
        write: bool,
    },
}

/// Merges one launch's completed accesses and far-faults by cycle,
/// faults first on ties (the order of the simulator's trace export).
fn merge(out: &mut Vec<Record>, events: &[TraceEvent], faults: &[(Cycle, PageId)]) {
    let (mut e, mut f) = (0, 0);
    while e < events.len() || f < faults.len() {
        let take_fault = f < faults.len() && (e == events.len() || faults[f].0 <= events[e].cycle);
        if take_fault {
            out.push(Record::Fault {
                cycle: faults[f].0.index(),
                page: faults[f].1,
            });
            f += 1;
        } else {
            let ev = events[e];
            out.push(Record::Access {
                cycle: ev.cycle.index(),
                page: ev.page,
                write: ev.write,
            });
            e += 1;
        }
    }
}

/// Drives one cell from outside and replays it layer by layer.
fn traced_cell(
    cell: &Cell,
    spans: &mut crate::span::Spans,
    layers: &mut Layers,
) -> Result<Counts, String> {
    let w = cell.workload.as_ref();
    spans.enter("bench.cell");
    spans.enter("sim.footprint");
    let footprint = measure_footprint(w);
    spans.exit();
    let cfg = uvm_config(&cell.opts, capacity(footprint, cell.opts.memory_frac));
    spans.enter("core.new");
    let mut gmmu = Gmmu::new(cfg.clone());
    gmmu.enable_fault_trace();
    spans.exit();
    spans.enter("workloads.build");
    let kernels = {
        let mut malloc = |size: Bytes| gmmu.malloc_managed(size);
        w.build(&mut malloc)
    };
    spans.exit();
    spans.enter("gpu-sim.new");
    let mut engine = Engine::new(gmmu, cell.opts.gpu.clone());
    engine.enable_trace();
    spans.exit();

    let mut stream = Vec::new();
    let mut accesses: Vec<TraceEvent> = Vec::new();
    let mut kernel_cycles = Vec::with_capacity(kernels.len());
    for k in kernels {
        spans.enter("gpu-sim.run_kernel");
        let t = engine.run_kernel(k);
        spans.exit();
        kernel_cycles.push(t.cycles());
        let events = engine.take_trace();
        let faults = engine.gmmu_mut().take_fault_trace();
        merge(&mut stream, &events, &faults);
        accesses.extend(events);
    }
    let counts = Counts::from_gmmu(engine.gmmu(), kernel_cycles);
    let num_sms = cell.opts.gpu.num_sms;
    let tlb_entries = cell.opts.gpu.tlb_entries;
    drop(engine);

    spans.enter("mem.tlb_replay");
    let (hits, misses) = tlb_replay(&accesses, num_sms, tlb_entries);
    spans.exit();
    layers.tlb_hits += hits;
    layers.tlb_misses += misses;

    spans.enter("workloads.rebuild");
    let mut replay = Gmmu::new(cfg);
    {
        let mut malloc = |size: Bytes| replay.malloc_managed(size);
        black_box(w.build(&mut malloc));
    }
    spans.exit();
    spans.enter("core.replay");
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        gmmu_replay(&mut replay, &stream)
    }));
    let (fault_time, faults, access_time, recorded) = match outcome {
        Ok(v) => v,
        Err(_) => {
            spans.exit();
            spans.exit();
            return Err("the GMMU replay panicked".into());
        }
    };
    spans.aggregate("core.fault_service", fault_time, faults);
    spans.aggregate("core.record_access", access_time, recorded);
    spans.exit();
    spans.exit();
    layers.replayed_faults += faults;
    layers.replayed_accesses += recorded;
    Ok(counts)
}

/// Replays completed accesses through one `Tlb` per SM (a block runs
/// on SM `block % num_sms`), filling on every miss. Returns
/// `(hits, misses)`.
fn tlb_replay(events: &[TraceEvent], num_sms: usize, entries: usize) -> (u64, u64) {
    let mut tlbs: Vec<Tlb> = (0..num_sms).map(|_| Tlb::new(entries)).collect();
    let (mut hits, mut misses) = (0u64, 0u64);
    for e in events {
        let tlb = &mut tlbs[e.warp % num_sms];
        match tlb.lookup(e.page) {
            TlbLookup::Hit => hits += 1,
            TlbLookup::Miss => {
                misses += 1;
                tlb.fill(e.page);
            }
        }
    }
    black_box(&tlbs);
    (hits, misses)
}

/// Replays a merged stream through `gmmu`: a fault record, or an access
/// to a page the replay does not hold, goes through `handle_fault`
/// (timed one by one); runs of accesses go through `record_access`,
/// timed as a batch because a clock read costs about as much as one
/// call. Returns (fault time, faults serviced, access time, accesses).
fn gmmu_replay(gmmu: &mut Gmmu, stream: &[Record]) -> (Duration, u64, Duration, u64) {
    let (mut fault_time, mut faults) = (Duration::ZERO, 0u64);
    let (mut access_time, mut recorded) = (Duration::ZERO, 0u64);
    let mut fault = |gmmu: &mut Gmmu, page: PageId, cycle: u64| {
        let t = Instant::now();
        black_box(gmmu.handle_fault(page, Cycle::new(cycle)));
        fault_time += t.elapsed();
        faults += 1;
    };
    let mut i = 0;
    while i < stream.len() {
        match stream[i] {
            Record::Fault { cycle, page } => {
                if !gmmu.is_resident(page) {
                    fault(gmmu, page, cycle);
                }
                i += 1;
            }
            Record::Access { .. } => {
                let t = Instant::now();
                while let Some(&Record::Access { page, write, .. }) = stream.get(i) {
                    if !gmmu.is_resident(page) {
                        break;
                    }
                    gmmu.record_access(page, write);
                    recorded += 1;
                    i += 1;
                }
                access_time += t.elapsed();
                if let Some(&Record::Access { cycle, page, .. }) = stream.get(i) {
                    fault(gmmu, page, cycle);
                }
            }
        }
    }
    (fault_time, faults, access_time, recorded)
}

/// Best host time of `Engine::snapshot` + `EngineSnapshot::fork` on
/// a hotspot engine warmed by its first launch (TBNp + LRU-4KB, the
/// sweep executor's default warm-up pair), in microseconds.
pub fn fork_us(scale: Scale) -> f64 {
    let hotspot = experiments::suite(scale)
        .into_iter()
        .find(|w| w.name() == "hotspot")
        .expect("the suite includes hotspot");
    let warm = Warmup::default();
    let opts = RunOptions::default()
        .with_prefetch(warm.prefetch)
        .with_evict(warm.evict);
    let (mut engine, kernels) = build(&Cell {
        workload: hotspot,
        opts,
    });
    if let Some(first) = kernels.into_iter().next() {
        engine.run_kernel(first);
    }
    let samples: Vec<f64> = (0..15)
        .map(|_| {
            let t = Instant::now();
            let forked = engine.snapshot().fork();
            black_box(&forked);
            let us = t.elapsed().as_secs_f64() * 1e6;
            drop(forked);
            us
        })
        .collect();
    best(&samples)
}

/// Re-simulates the 24 smoke-scale golden cells (every paper
/// prefetcher × evictor pair, plus the four huge-page cells) and
/// compares them byte for byte with `tests/fixtures/*.json`, which are
/// only read.
pub fn check_golden(root: &Path, report: &mut Report) {
    let dir = root.join("tests/fixtures");
    let w = Hotspot {
        rows: 512,
        iterations: 3,
        rows_per_block: 16,
    };
    let base = RunOptions::default().with_memory_frac(1.10);
    let mut cases: Vec<(String, RunOptions, bool)> = Vec::new();
    for p in PrefetchPolicy::ALL {
        for e in EvictPolicy::ALL {
            let opts = base.clone().with_prefetch(p).with_evict(e);
            cases.push((format!("hotspot_{p}_{e}.json"), opts, false));
        }
    }
    let huge = [
        (
            "cold",
            PrefetchPolicy::MosaicCoalesce,
            EvictPolicy::MosaicSplinter,
            false,
        ),
        (
            "warmed",
            PrefetchPolicy::MosaicCoalesce,
            EvictPolicy::MosaicSplinter,
            true,
        ),
        (
            "cold",
            PrefetchPolicy::MosaicCoalesce,
            EvictPolicy::TreeBasedNeighborhood,
            false,
        ),
        (
            "cold",
            PrefetchPolicy::TreeBasedNeighborhood,
            EvictPolicy::MosaicSplinter,
            false,
        ),
    ];
    for (label, p, e, warmed) in huge {
        let mut opts = base.clone().with_prefetch(p).with_evict(e);
        if warmed {
            opts = opts.with_warmup(Warmup::default());
        }
        cases.push((format!("hotspot_huge_{p}_{e}_{label}.json"), opts, true));
    }
    for (file, opts, huge) in cases {
        let path = dir.join(&file);
        let committed = fs::read_to_string(&path);
        let encoded = encode_fixture(&run_workload(&w, opts), huge);
        report.check(
            committed.as_deref().ok() == Some(encoded.as_str()),
            || match &committed {
                Ok(_) => format!("golden cell {file} re-simulated differently"),
                Err(e) => format!("golden cell {file} unreadable: {e}"),
            },
        );
    }
}

/// The golden-fixture encoding: the paper-pair layout, or (for the
/// huge-page cells) that layout plus accesses and huge-page counters.
fn encode_fixture(r: &RunResult, huge: bool) -> String {
    let kt: Vec<String> = r
        .kernel_times
        .iter()
        .map(|t| t.cycles().to_string())
        .collect();
    let mut fields: Vec<(&str, String)> = vec![
        ("name", format!("\"{}\"", r.name)),
        ("total_time_cycles", r.total_time.cycles().to_string()),
        ("kernel_times_cycles", format!("[{}]", kt.join(", "))),
    ];
    if huge {
        fields.push(("accesses", r.accesses.to_string()));
    }
    for (k, v) in [
        ("far_faults", r.far_faults),
        ("pages_migrated", r.pages_migrated),
        ("pages_prefetched", r.pages_prefetched),
        ("pages_evicted", r.pages_evicted),
        ("pages_thrashed", r.pages_thrashed),
        ("prefetched_used", r.prefetched_used),
        ("prefetched_wasted", r.prefetched_wasted),
        ("clean_pages_written_back", r.clean_pages_written_back),
        ("read_transfers_4k", r.read_transfers_4k),
        ("read_transfers", r.read_transfers),
        ("read_bytes", r.read_bytes.bytes()),
        ("write_bytes", r.write_bytes.bytes()),
    ] {
        fields.push((k, v.to_string()));
    }
    if huge {
        let hp = &r.huge_pages;
        for (k, v) in [
            ("hp_coalesces", hp.coalesces),
            ("hp_splinters", hp.splinters),
            ("hp_forced_splinters", hp.forced_splinters),
            ("hp_alloc_splits", hp.alloc_splits),
            ("hp_alloc_merges", hp.alloc_merges),
            ("hp_regions_reserved", hp.regions_reserved),
            ("hp_region_steals", hp.region_steals),
        ] {
            fields.push((k, v.to_string()));
        }
    }
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("  \"{k}\": {v}"))
        .collect();
    format!("{{\n{}\n}}\n", body.join(",\n"))
}
