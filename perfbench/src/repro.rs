//! The `repro` workload: the full paper reproduction, as the
//! `all_experiments` binary runs it, from a cold spill cache in a
//! throwaway directory under `.bench_out/`.
//!
//! Untraced, each pass calls `uvm_bench::run_all` — the body of
//! `all_experiments` — in-process. Traced, the benchmark runs the same
//! experiment runners one by one on its own executor, timing each, and
//! then re-runs them against the warm spill cache. Every path must
//! write byte-identical CSVs.

use std::collections::BTreeMap;
use std::env;
use std::fs;
use std::hint::black_box;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use uvm_bench::{emit, write_csv, BenchError, Config};
use uvm_core::{FaultPlan, Gmmu, UvmConfig};
use uvm_sim::experiments::{self as exp, Scale};
use uvm_sim::{measure_footprint, Executor, Warmup};
use uvm_types::Bytes;

use crate::host::{cpu_seconds, nproc, peak_rss_mb};
use crate::span::Spans;
use crate::{best, median, quantile, read_results, Args, Report, SETUP_REPS};

/// Executor width of the reproduction (`all_experiments --jobs 2`),
/// capped at the host's core count.
pub fn jobs() -> usize {
    nproc().min(2)
}

/// Passes measured at least: the CSV repetition check needs two.
fn min_passes(scale: Scale) -> usize {
    match scale {
        Scale::Paper => 3,
        Scale::Smoke => 2,
    }
}

fn config(args: &Args) -> Config {
    Config {
        scale: args.scale,
        jobs: jobs(),
        fault_seed: args.seed,
        ..Config::default()
    }
}

type Csvs = Vec<(String, Vec<u8>)>;

/// A throwaway working directory under `.bench_out/`; removed, with the
/// spill cache and CSVs inside it, when dropped.
struct Throwaway {
    dir: PathBuf,
}

impl Throwaway {
    fn new(args: &Args) -> Result<Self, String> {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir = args
            .out_dir()
            .join(format!("{}-{}-{n}", args.tag(), std::process::id()));
        // A directory left by an earlier, killed run of the same pid.
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        Ok(Throwaway { dir })
    }

    /// Runs `f` with the process's working directory set here: the
    /// reproduction writes `results/` relative to it.
    fn run(&self, f: impl FnOnce() -> Result<(), BenchError>) -> Result<(), BenchError> {
        let io = |source| BenchError::Io {
            path: self.dir.clone(),
            source,
        };
        let back = env::current_dir().map_err(io)?;
        env::set_current_dir(&self.dir).map_err(io)?;
        let out = f();
        env::set_current_dir(back).map_err(io)?;
        out
    }

    fn csvs(&self) -> std::io::Result<Csvs> {
        read_results(&self.dir)
    }
}

impl Drop for Throwaway {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.dir);
    }
}

/// Builds every suite benchmark once, as the first simulation of each
/// does, and returns the built kernels' total warp accesses.
fn build_suite(scale: Scale) -> u64 {
    exp::suite(scale)
        .iter()
        .map(|w| {
            let mut gmmu = Gmmu::new(UvmConfig::default());
            let mut malloc = |size: Bytes| gmmu.malloc_managed(size);
            let kernels = w.build(&mut malloc);
            kernels
                .iter()
                .map(|k| k.total_accesses() as u64)
                .sum::<u64>()
        })
        .sum()
}

/// Set-up of one pass: generating the suite's inputs and constructing
/// the executor with its spill cache.
fn setup(cfg: &Config) -> f64 {
    let t = Instant::now();
    black_box(build_suite(cfg.scale));
    black_box(cfg.executor());
    t.elapsed().as_secs_f64()
}

/// Checks one pass's outcome and CSVs against the first pass's.
fn check_pass(
    report: &mut Report,
    what: &str,
    outcome: Result<(), BenchError>,
    csvs: std::io::Result<Csvs>,
    reference: &mut Option<Csvs>,
) {
    if let Err(e) = &outcome {
        report.check(false, || format!("{what}: {e}"));
        return;
    }
    match csvs {
        Ok(csvs) if csvs.is_empty() => report.check(false, || format!("{what}: wrote no CSV")),
        Ok(csvs) => match reference {
            Some(r) => report.check(*r == csvs, || {
                format!("{what}: CSV bytes differ from the first pass")
            }),
            None => {
                report.check(true, String::new);
                *reference = Some(csvs);
            }
        },
        Err(e) => report.check(false, || format!("{what}: reading results/: {e}")),
    }
}

/// Runs `repro` and fills `report`.
pub fn run(args: &Args, report: &mut Report) {
    let cfg = config(args);
    let mut setups: Vec<f64> = (0..SETUP_REPS).map(|_| setup(&cfg)).collect();
    if args.trace {
        return traced(args, &cfg, report);
    }
    // The fixed amount of work `sim_rate_macc_s` is normalised by: the
    // executor does not expose its runs' access counts.
    let accesses = build_suite(args.scale);
    let mut reference = None;
    let (mut walls, mut cpus, mut first_peak) = (Vec::new(), Vec::new(), 0.0);
    let start = Instant::now();
    while walls.len() < min_passes(args.scale) || start.elapsed().as_secs_f64() < args.seconds {
        let dir = match Throwaway::new(args) {
            Ok(s) => s,
            Err(e) => return report.check(false, || e),
        };
        let (t0, c0) = (Instant::now(), cpu_seconds());
        let outcome = dir.run(|| uvm_bench::run_all(&cfg));
        walls.push(t0.elapsed().as_secs_f64());
        cpus.push(cpu_seconds() - c0);
        if walls.len() == 1 {
            // The first pass of a fresh process is what a user's
            // reproduction peaks at; later passes inherit the
            // allocator's retained heap.
            first_peak = peak_rss_mb();
        }
        check_pass(
            report,
            "all_experiments",
            outcome,
            dir.csvs(),
            &mut reference,
        );
        drop(dir);
        // Set-ups spread over the window see the same host conditions
        // as the passes.
        setups.extend((0..SETUP_REPS).map(|_| setup(&cfg)));
    }
    // A pass is long enough to average over the host's short bursts of
    // interference, and a run holds only a handful of them, so the
    // median pass is steadier here than the fastest one.
    let ms: Vec<f64> = walls.iter().map(|w| w * 1e3).collect();
    report.set("wall_s", median(&walls));
    report.set("cpu_s", median(&cpus));
    report.set("sim_rate_macc_s", accesses as f64 / median(&walls) * 1e-6);
    report.set("run_ms_p50", median(&ms));
    report.set("run_ms_p90", quantile(&ms, 0.9));
    report.set("setup_s", median(&setups));
    report.set("peak_rss_mb", first_peak);
    report.note(format!(
        "{} reproduction passes with {} executor worker(s), wall s {walls:.3?}, cpu s {cpus:.3?}",
        walls.len(),
        cfg.jobs,
    ));
}

/// The traced run. Each round runs one untraced `run_all` pass, one
/// traced runner-by-runner pass on a fresh cache, and a warm re-run of
/// the latter against the cache it left.
fn traced(args: &Args, cfg: &Config, report: &mut Report) {
    let mut reference = None;
    let (mut untraced, mut traced, mut warm) = (Vec::new(), Vec::new(), Vec::new());
    let mut runner_s: Vec<Vec<f64>> = vec![Vec::new(); crate::RUNNERS.len()];
    let mut self_ms: Vec<BTreeMap<&'static str, f64>> = Vec::new();
    let mut exec_counts = None;
    let start = Instant::now();
    while traced.is_empty() || start.elapsed().as_secs_f64() < args.seconds {
        let (cold, hot) = match (Throwaway::new(args), Throwaway::new(args)) {
            (Ok(a), Ok(b)) => (a, b),
            (Err(e), _) | (_, Err(e)) => return report.check(false, || e),
        };
        let t0 = Instant::now();
        let outcome = cold.run(|| uvm_bench::run_all(cfg));
        untraced.push(t0.elapsed().as_secs_f64());
        check_pass(
            report,
            "all_experiments",
            outcome,
            cold.csvs(),
            &mut reference,
        );
        drop(cold);

        let mark = report.spans.mark();
        let exec = cfg.executor();
        let t0 = Instant::now();
        let outcome = hot.run(|| reproduce(&exec, cfg, &mut report.spans));
        traced.push(t0.elapsed().as_secs_f64());
        check_pass(
            report,
            "traced reproduction",
            outcome,
            hot.csvs(),
            &mut reference,
        );
        for (i, r) in crate::RUNNERS.iter().enumerate() {
            let ms = report.spans.total_ms(mark, &format!("experiments.{r}"));
            runner_s[i].push(ms * 1e-3);
        }
        self_ms.push(report.spans.self_ms_by_layer(mark));
        let counts = (
            exec.runs_executed(),
            exec.cache_hits(),
            exec.prefixes_simulated(),
        );
        match exec_counts {
            Some(first) => report.check(first == counts, || {
                format!("traced reproduction: executor counts {counts:?}, first round {first:?}")
            }),
            None => exec_counts = Some(counts),
        }

        // The same reproduction against the now-warm spill cache: the
        // read path beside the cold write path.
        let warm_exec = cfg.executor();
        let t0 = Instant::now();
        let outcome = hot.run(|| reproduce(&warm_exec, cfg, &mut Spans::default()));
        warm.push(t0.elapsed().as_secs_f64());
        check_pass(
            report,
            "warm reproduction",
            outcome,
            hot.csvs(),
            &mut reference,
        );
        let served = warm_exec.cache_hits();
        report.check(served > exec.cache_hits(), || {
            format!("warm reproduction served {served} submissions from cache, no more than cold")
        });
    }
    if let Some((runs, hits, prefixes)) = exec_counts {
        report.set("sim.exec.runs_executed", runs as f64);
        report.set("sim.exec.cache_hits", hits as f64);
        report.set("sim.exec.prefixes_simulated", prefixes as f64);
    }
    report.set("sim.exec.spill_warm_s", best(&warm));
    report.set(
        "bench.trace_overhead_ratio",
        best(&traced) / best(&untraced),
    );
    report.set("bench.run_samples", untraced.len() as f64);
    report.set("gpu-sim.fork_us", crate::cells::fork_us(args.scale));
    for (i, r) in crate::RUNNERS.iter().enumerate() {
        report.set(&format!("experiments.{r}_s"), best(&runner_s[i]));
    }
    for layer in crate::LAYERS {
        let v: Vec<f64> = self_ms
            .iter()
            .map(|m| m.get(layer).copied().unwrap_or(0.0))
            .collect();
        report.set(&format!("{layer}.self_ms"), best(&v));
    }
    // Set-up layers: one build and one footprint measurement of every
    // suite benchmark, as the reproduction's first simulations pay.
    let mark = report.spans.mark();
    report.spans.enter("bench.setup");
    for w in exp::suite(args.scale) {
        report.spans.enter("workloads.build");
        let mut gmmu = Gmmu::new(UvmConfig::default());
        let mut malloc = |size: Bytes| gmmu.malloc_managed(size);
        black_box(w.build(&mut malloc));
        report.spans.exit();
        report.spans.enter("sim.footprint");
        black_box(measure_footprint(w.as_ref()));
        report.spans.exit();
    }
    report.spans.exit();
    let build_ms = report.spans.total_ms(mark, "workloads.build");
    let footprint_ms = report.spans.total_ms(mark, "sim.footprint");
    report.set("workloads.build_ms", build_ms);
    report.set("sim.footprint_ms", footprint_ms);
    report.note(format!(
        "{} traced reproduction rounds with {} executor worker(s)",
        traced.len(),
        cfg.jobs
    ));
}

/// The `all_experiments` sequence (`uvm_bench::run_all`), one
/// `experiments.<runner>` span per runner. The traced run's CSVs are
/// checked against `run_all`'s, so the two cannot drift apart
/// unnoticed.
fn reproduce(exec: &Executor, cfg: &Config, spans: &mut Spans) -> Result<(), BenchError> {
    let scale = cfg.scale;
    let mut timed = |name: &'static str, f: &mut dyn FnMut() -> Result<(), BenchError>| {
        spans.enter(name);
        let out = f();
        spans.exit();
        out
    };
    timed("experiments.table1", &mut || emit("table1", &exp::table1()))?;
    timed("experiments.fig2_walkthrough", &mut || {
        print!("{}", exp::fig2_walkthrough());
        Ok(())
    })?;
    timed("experiments.prefetcher_sweep", &mut || {
        let sweep = exp::prefetcher_sweep(exec, scale);
        emit("fig3", &sweep.time)?;
        emit("fig4", &sweep.bandwidth)?;
        emit("fig5", &sweep.faults)
    })?;
    timed("experiments.oversubscription_sweep", &mut || {
        let os = exp::oversubscription_sweep(exec, scale);
        emit("fig6", &os.time)?;
        emit("fig7", &os.transfers_4k)
    })?;
    timed("experiments.fig8_walkthrough", &mut || {
        print!("{}", exp::fig8_walkthrough());
        Ok(())
    })?;
    timed("experiments.eviction_isolation", &mut || {
        let iso = exp::eviction_isolation(exec, scale);
        emit("fig9", &iso.time)?;
        emit("fig10", &iso.evicted)
    })?;
    timed("experiments.policy_combinations", &mut || {
        emit("fig11", &exp::policy_combinations(exec, scale))
    })?;
    timed("experiments.nw_trace", &mut || {
        for (launch, table) in exp::nw_trace(exec, scale, &[60, 70]) {
            write_csv(&format!("fig12_launch{launch}"), &table)?;
        }
        Ok(())
    })?;
    timed("experiments.tbn_oversubscription_sensitivity", &mut || {
        emit("fig13", &exp::tbn_oversubscription_sensitivity(exec, scale))
    })?;
    timed("experiments.lru_reservation", &mut || {
        emit("fig14", &exp::lru_reservation(exec, scale))
    })?;
    timed("experiments.tbne_vs_2mb", &mut || {
        let cmp = exp::tbne_vs_2mb(exec, scale);
        emit("fig15", &cmp.time)?;
        emit("fig16", &cmp.thrash)
    })?;
    timed("experiments.pattern_analysis", &mut || {
        emit("pattern_report", &exp::pattern_analysis(exec, scale))
    })?;
    timed("experiments.prefetch_granularity_ablation", &mut || {
        emit(
            "ablation_prefetch_granularity",
            &exp::prefetch_granularity_ablation(exec, scale),
        )
    })?;
    timed("experiments.fault_lanes_ablation", &mut || {
        emit(
            "ablation_fault_lanes",
            &exp::fault_lanes_ablation(exec, scale, &[1, 2, 4, 8, 16]),
        )
    })?;
    timed("experiments.prefetch_accuracy_ablation", &mut || {
        emit(
            "ablation_prefetch_accuracy",
            &exp::prefetch_accuracy_ablation(exec, scale),
        )
    })?;
    timed("experiments.writeback_ablation", &mut || {
        emit("ablation_writeback", &exp::writeback_ablation(exec, scale))
    })?;
    timed("experiments.huge_page_ablation", &mut || {
        let hp = exp::huge_page_ablation(exec, scale, Warmup::default(), &exp::HUGE_PAGE_OVERSUB);
        emit("ablation_huge_pages_faults_per_kilo", &hp.faults_per_kilo)?;
        emit("ablation_huge_pages_time", &hp.time)?;
        emit("ablation_huge_pages_activity", &hp.activity)
    })?;
    timed("experiments.fault_injection_ablation", &mut || {
        let plan = cfg.resolved_fault_plan(FaultPlan::chaos());
        emit(
            "ablation_fault_injection",
            &exp::fault_injection_ablation(exec, scale, plan),
        )
    })?;
    match exec.failures().len() {
        0 => Ok(()),
        n => Err(BenchError::Sweep(format!("{n} run(s) failed"))),
    }
}
