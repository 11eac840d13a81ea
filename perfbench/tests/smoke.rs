//! Smoke-sized runs of every workload, untraced and traced, through
//! all of the benchmark's output checks.

use std::path::PathBuf;
use std::process::Command;

use uvm_perfbench::{per_layer_metrics, run, Args, Report, Workload, END_TO_END};
use uvm_sim::experiments::Scale;

fn root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("..")
}

fn smoke(workload: Workload, trace: bool) -> Report {
    let args = Args {
        workload,
        seed: Some(7),
        seconds: 0.0,
        trace,
        scale: Scale::Smoke,
        root: root(),
    };
    let report = run(&args);
    assert!(
        report.correct(),
        "{} trace={trace}:\n{report}",
        workload.name()
    );
    let line = report.result_json(trace);
    for (name, unit) in Report::expected_metrics(trace) {
        let field = format!("\"{name}\": {{\"value\": ");
        assert!(line.contains(&field), "{name} missing from {line}");
        assert!(line.contains(&format!("\"unit\": \"{unit}\"")));
    }
    if !trace {
        for (name, _) in END_TO_END {
            assert!(report.metrics[name] > 0.0, "{name} is 0:\n{report}");
        }
    }
    report
}

#[test]
fn fit_passes_its_checks() {
    smoke(Workload::Fit, false);
    let traced = smoke(Workload::Fit, true);
    assert!(traced.metrics["gpu-sim.run_kernel_ms"] > 0.0);
    assert!(traced.metrics["mem.tlb_hit_ratio"] > 0.0);
    assert!(traced.metrics["core.replay_fidelity"] > 0.9);
    assert_eq!(traced.metrics["core.pages_evicted"], 0.0);
}

#[test]
fn oversub_passes_its_checks() {
    smoke(Workload::Oversub, false);
    let traced = smoke(Workload::Oversub, true);
    assert!(traced.metrics["core.pages_evicted"] > 0.0);
    assert!(traced.metrics["core.fault_service_ms"] > 0.0);
}

/// Both repro modes in one test: the reproduction changes the
/// process's working directory, so it must not run beside itself.
#[test]
fn repro_passes_its_checks() {
    smoke(Workload::Repro, false);
    let traced = smoke(Workload::Repro, true);
    assert!(traced.metrics["sim.exec.runs_executed"] > 0.0);
    assert!(traced.metrics["sim.exec.cache_hits"] > 0.0);
    assert!(traced.metrics["experiments.prefetcher_sweep_s"] > 0.0);
}

#[test]
fn benchmark_json_declares_every_metric() {
    let spec = std::fs::read_to_string(root().join("BENCHMARK.json")).expect("BENCHMARK.json");
    let declared = spec.matches("\"unit\":").count();
    let metrics: Vec<(String, &str)> = END_TO_END
        .iter()
        .map(|&(n, u)| (n.to_owned(), u))
        .chain(per_layer_metrics())
        .collect();
    assert_eq!(declared, metrics.len(), "metric count");
    for (name, unit) in metrics {
        let decl = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\"");
        assert!(spec.contains(&decl), "BENCHMARK.json lacks {decl}");
    }
}

#[test]
fn refuses_to_run_outside_a_source_checkout() {
    let empty = root().join(".bench_out/not-a-checkout");
    std::fs::create_dir_all(&empty).expect("create an empty directory");
    let out = Command::new(env!("CARGO_BIN_EXE_uvm-perfbench"))
        .args([
            "--workload",
            "fit",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .current_dir(&empty)
        .output()
        .expect("run the benchmark binary");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
}
