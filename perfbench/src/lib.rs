//! End-to-end and per-layer benchmark of the UVM-interplay simulator.
//!
//! Three workloads (see `perfbench/README.md` for why each exists):
//!
//! * `fit` — the paper-scale suite × the four paper prefetchers with
//!   no memory budget (Sec. 4.1): engine, TLB and per-access
//!   bookkeeping dominate;
//! * `oversub` — the same suite × the Fig. 11 policy pairs at 110 % and
//!   125 % over-subscription (Sec. 5): GMMU eviction and PCI-e
//!   scheduling dominate;
//! * `repro` — the whole paper reproduction (`all_experiments`) from a
//!   cold spill cache: the only workload that exercises the executor.
//!
//! A run with `--trace 0` measures every end-to-end metric; a run with
//! `--trace 1` drives the same work from outside, layer by layer, and
//! reports the per-layer metrics. Every run also checks the program's
//! outputs; the last line of standard output is one JSON object.

mod cells;
mod host;
mod repro;
mod span;

use std::collections::BTreeMap;
use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};
use std::time::Instant;

use uvm_sim::experiments::Scale;

use crate::host::{json_str, Fingerprint};
use crate::span::Spans;

/// One benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    Fit,
    Oversub,
    Repro,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::Fit, Workload::Oversub, Workload::Repro];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Fit => "fit",
            Workload::Oversub => "oversub",
            Workload::Repro => "repro",
        }
    }

    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// What one invocation measures.
#[derive(Clone, Debug)]
pub struct Args {
    pub workload: Workload,
    /// Input seed: `RunOptions::rng_seed` and `Bfs::seed` on `fit` and
    /// `oversub`, the fault-injection seed on `repro`. `None` keeps the
    /// paper configuration.
    pub seed: Option<u64>,
    /// Measurement window, in seconds.
    pub seconds: f64,
    pub trace: bool,
    /// `Paper` for the benchmark itself, `Smoke` for its tests.
    pub scale: Scale,
    /// Root of the source checkout: golden fixtures are read from
    /// `tests/fixtures/`, and throwaway directories and result files go under
    /// `.bench_out/`.
    pub root: PathBuf,
}

impl Args {
    pub fn out_dir(&self) -> PathBuf {
        self.root.join(".bench_out")
    }

    /// A short tag naming this run's inputs in file names.
    pub fn tag(&self) -> String {
        let seed = self.seed.map_or("paper".to_owned(), |s| s.to_string());
        format!(
            "{}-seed{seed}-trace{}",
            self.workload.name(),
            u8::from(self.trace)
        )
    }
}

/// Set-up repetitions per run; `setup_s` is their median.
pub(crate) const SETUP_REPS: usize = 9;

/// Every end-to-end metric, in output order, with its unit.
pub const END_TO_END: [(&str, &str); 7] = [
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("sim_rate_macc_s", "Macc/s"),
    ("run_ms_p50", "ms"),
    ("run_ms_p90", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// The experiment runners of the reproduction, in `all_experiments`
/// order; each gets an `experiments.<runner>_s` span.
pub(crate) const RUNNERS: [&str; 18] = [
    "table1",
    "fig2_walkthrough",
    "prefetcher_sweep",
    "oversubscription_sweep",
    "fig8_walkthrough",
    "eviction_isolation",
    "policy_combinations",
    "nw_trace",
    "tbn_oversubscription_sensitivity",
    "lru_reservation",
    "tbne_vs_2mb",
    "pattern_analysis",
    "prefetch_granularity_ablation",
    "fault_lanes_ablation",
    "prefetch_accuracy_ablation",
    "writeback_ablation",
    "huge_page_ablation",
    "fault_injection_ablation",
];

/// Layers whose self time the traced run reports as `<layer>.self_ms`.
pub(crate) const LAYERS: [&str; 7] = [
    "bench",
    "workloads",
    "sim",
    "experiments",
    "gpu-sim",
    "mem",
    "core",
];

/// Every per-layer metric, with its unit. Metrics a workload does not
/// exercise (the executor on `fit`, the cell replays on `repro`) read 0.
pub fn per_layer_metrics() -> Vec<(String, &'static str)> {
    let fixed: [(&str, &str); 29] = [
        ("workloads.build_ms", "ms"),
        ("sim.footprint_ms", "ms"),
        ("gpu-sim.run_kernel_ms", "ms"),
        ("gpu-sim.ns_per_access", "ns"),
        ("gpu-sim.residual_ms", "ms"),
        ("gpu-sim.fork_us", "us"),
        ("mem.tlb_replay_ms", "ms"),
        ("mem.tlb_hit_ratio", "ratio"),
        ("core.replay_ms", "ms"),
        ("core.fault_service_ms", "ms"),
        ("core.us_per_fault", "us"),
        ("core.record_access_ns", "ns"),
        ("core.replay_fidelity", "ratio"),
        ("gpu-sim.accesses", "count"),
        ("gpu-sim.sim_cycles", "cycles"),
        ("core.far_faults", "count"),
        ("core.prefetch_useful_ratio", "ratio"),
        ("core.pages_evicted", "count"),
        ("core.thrash_ratio", "ratio"),
        ("interconnect.read_gb", "GB"),
        ("interconnect.write_gb", "GB"),
        ("interconnect.read_4k_share", "ratio"),
        ("interconnect.read_bw_gbps", "GB/s"),
        ("sim.exec.runs_executed", "count"),
        ("sim.exec.cache_hits", "count"),
        ("sim.exec.prefixes_simulated", "count"),
        ("sim.exec.spill_warm_s", "s"),
        ("bench.trace_overhead_ratio", "ratio"),
        ("bench.run_samples", "count"),
    ];
    let mut out: Vec<(String, &'static str)> =
        fixed.iter().map(|&(n, u)| (n.to_owned(), u)).collect();
    out.extend(RUNNERS.iter().map(|r| (format!("experiments.{r}_s"), "s")));
    out.extend(LAYERS.iter().map(|l| (format!("{l}.self_ms"), "ms")));
    out
}

/// Outcome of one invocation: the checks made, the metrics measured,
/// and (traced runs) the spans recorded.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// One line per failed check.
    pub problems: Vec<String>,
    pub metrics: BTreeMap<String, f64>,
    /// Human-readable context printed to stderr (sample counts, ...).
    pub notes: Vec<String>,
    pub spans: Spans,
}

impl Report {
    /// Counts one checked operation; a failure records `what`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.problems.push(what());
        }
    }

    /// Records a metric; a value that is not a number fails the run.
    pub fn set(&mut self, name: &str, value: f64) {
        if !value.is_finite() {
            self.check(false, || format!("metric {name} came out as {value}"));
        }
        self.metrics.insert(name.to_owned(), value);
    }

    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The metrics this run must print, with units: every end-to-end
    /// metric untraced, every per-layer metric traced.
    pub fn expected_metrics(trace: bool) -> Vec<(String, &'static str)> {
        if trace {
            per_layer_metrics()
        } else {
            END_TO_END.iter().map(|&(n, u)| (n.to_owned(), u)).collect()
        }
    }

    /// The result line: `{"correct", "attempted", "failed", "metrics"}`.
    pub fn result_json(&self, trace: bool) -> String {
        let metrics: Vec<String> = Self::expected_metrics(trace)
            .into_iter()
            .map(|(name, unit)| {
                let v = self.metrics.get(&name).copied().unwrap_or(0.0);
                let v = if v.is_finite() { v } else { 0.0 };
                format!(
                    "{}: {{\"value\": {v}, \"unit\": {}}}",
                    json_str(&name),
                    json_str(unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            if self.attempted == 0 { 1 } else { self.failed },
            metrics.join(", ")
        )
    }
}

impl fmt::Display for Report {
    /// The human-readable summary printed to stderr.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (name, value) in &self.metrics {
            writeln!(f, "  {name:<44} {value:>16.6}")?;
        }
        let ratio = self.failed as f64 / self.attempted.max(1) as f64;
        writeln!(
            f,
            "  failed_ratio {ratio} ({} of {} checked operations failed)",
            self.failed, self.attempted
        )?;
        for n in &self.notes {
            writeln!(f, "  note: {n}")?;
        }
        for p in &self.problems {
            writeln!(f, "  FAILED: {p}")?;
        }
        Ok(())
    }
}

/// Runs one invocation end to end: clears the simulator's environment
/// switches, measures, checks, and writes the provenance record.
pub fn run(args: &Args) -> Report {
    clear_simulator_env();
    let fingerprint = Fingerprint::probe(&args.root);
    let mut report = Report::default();
    let out = args.out_dir();
    if let Err(e) = fs::create_dir_all(&out) {
        report.check(false, || format!("creating {}: {e}", out.display()));
        return report;
    }
    let start = Instant::now();
    match args.workload {
        Workload::Fit | Workload::Oversub => cells::run(args, &mut report),
        Workload::Repro => repro::run(args, &mut report),
    }
    cells::check_golden(&args.root, &mut report);
    report.note(format!(
        "{} run in {:.1} s on {} (nproc {}, {}), seed {}",
        args.workload.name(),
        start.elapsed().as_secs_f64(),
        fingerprint.cpu_model,
        fingerprint.nproc,
        fingerprint.rustc,
        args.seed.map_or("paper".to_owned(), |s| s.to_string()),
    ));
    write_provenance(args, &fingerprint, &report);
    report
}

/// Removes every `UVM_*` switch (engine threads, checkpoints, audit,
/// fault debugging, ...) so measured runs take the default serial,
/// non-durable paths whatever the caller's environment holds.
fn clear_simulator_env() {
    let keys: Vec<_> = std::env::vars_os()
        .map(|(k, _)| k)
        .filter(|k| k.to_string_lossy().starts_with("UVM_"))
        .collect();
    for k in keys {
        std::env::remove_var(k);
    }
}

/// Writes `<tag>.json` (fingerprint, seed, metrics, checks) and, for a
/// traced run, `<tag>.spans.jsonl` under `.bench_out/` — once, at the
/// end of the run.
fn write_provenance(args: &Args, fp: &Fingerprint, report: &Report) {
    let out = args.out_dir();
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|(k, v)| format!("{}: {v}", json_str(k)))
        .collect();
    let problems: Vec<String> = report.problems.iter().map(|p| json_str(p)).collect();
    let doc = format!(
        "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"host\": {}, \"attempted\": {}, \"failed\": {}, \"problems\": [{}], \"metrics\": {{{}}}}}\n",
        json_str(args.workload.name()),
        args.seed.map_or("null".to_owned(), |s| s.to_string()),
        args.seconds,
        args.trace,
        fp.to_json(),
        report.attempted,
        report.failed,
        problems.join(", "),
        metrics.join(", "),
    );
    let _ = fs::write(out.join(format!("{}.json", args.tag())), doc);
    if args.trace {
        let _ = fs::write(
            out.join(format!("{}.spans.jsonl", args.tag())),
            report.spans.to_jsonl(),
        );
    }
}

/// The smallest of `v` (0 when empty): a timing's least-disturbed
/// repetition. On a shared host, other tenants only ever slow a pass
/// down, so the fastest one is the steadiest estimate of the program's
/// own cost (see `perfbench/README.md`).
pub(crate) fn best(v: &[f64]) -> f64 {
    quantile(v, 0.0)
}

/// The median of `v` (0 when empty).
pub(crate) fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// The `q`-quantile of `v` by linear interpolation between order
/// statistics (0 when empty).
pub(crate) fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// Reads every file under `dir/results/` (the CSVs a reproduction
/// writes), sorted by name. Subdirectories such as the spill cache are
/// skipped.
pub(crate) fn read_results(dir: &Path) -> std::io::Result<Vec<(String, Vec<u8>)>> {
    let mut files = Vec::new();
    for e in fs::read_dir(dir.join("results"))? {
        let e = e?;
        if e.file_type()?.is_file() {
            files.push((
                e.file_name().to_string_lossy().into_owned(),
                fs::read(e.path())?,
            ));
        }
    }
    files.sort();
    Ok(files)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert!((quantile(&v, 0.9) - 3.7).abs() < 1e-12);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn result_line_lists_exactly_the_expected_metrics() {
        let mut r = Report::default();
        r.check(true, String::new);
        r.set("wall_s", 1.5);
        let line = r.result_json(false);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0,"));
        assert!(line.contains("\"wall_s\": {\"value\": 1.5, \"unit\": \"s\"}"));
        assert_eq!(line.matches("\"unit\"").count(), END_TO_END.len());
        let traced = r.result_json(true);
        assert_eq!(
            traced.matches("\"unit\"").count(),
            per_layer_metrics().len()
        );
    }

    #[test]
    fn a_run_without_checks_is_not_correct() {
        let r = Report::default();
        assert!(r
            .result_json(false)
            .starts_with("{\"correct\": false, \"attempted\": 1, \"failed\": 1,"));
    }
}
