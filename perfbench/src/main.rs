//! Command line of the benchmark:
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload fit --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Run it from the root of the source checkout. The last line of
//! standard output is the result object; a readable summary goes to
//! standard error. `--workload all` runs the three workloads in turn
//! and prints one result line each.

use std::process::ExitCode;

use uvm_perfbench::{run, Args, Workload};
use uvm_sim::experiments::Scale;

const USAGE: &str = "usage: perfbench --workload fit|oversub|repro|all [--seed N] \
                     [--seconds S] [--trace 0|1]";

fn parse(mut argv: impl Iterator<Item = String>) -> Result<(Args, Vec<Workload>), String> {
    let root = std::env::current_dir().map_err(|e| format!("working directory: {e}"))?;
    if !root.join("crates").is_dir() || !root.join("tests/fixtures").is_dir() {
        return Err(format!(
            "{} is not the root of a source checkout (no crates/ or tests/fixtures/)",
            root.display()
        ));
    }
    let mut args = Args {
        workload: Workload::Fit,
        seed: None,
        seconds: 10.0,
        trace: false,
        scale: Scale::Paper,
        root,
    };
    let mut workload = None;
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(match v.as_str() {
                    "all" => Workload::ALL.to_vec(),
                    _ => vec![Workload::from_name(&v).ok_or(format!("unknown workload {v}"))?],
                });
            }
            "--seed" => {
                let v = value()?;
                args.seed = Some(v.parse().map_err(|_| format!("bad --seed {v}"))?);
            }
            "--seconds" => {
                let v = value()?;
                args.seconds = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or(format!("bad --seconds {v}"))?;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("bad --trace {v} (0 or 1)")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workloads = workload.ok_or("--workload is required")?;
    Ok((args, workloads))
}

fn main() -> ExitCode {
    let (mut args, workloads) = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut correct = true;
    for workload in workloads {
        args.workload = workload;
        let report = run(&args);
        eprintln!("== perfbench {} ==\n{report}", args.tag());
        println!("{}", report.result_json(args.trace));
        correct &= report.correct();
    }
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
