//! `perfbench` — the served k-NN benchmark.
//!
//! One process starts an `emdd` server on loopback, drives it from
//! closed-loop clients, checks every answer against an independent
//! reference, and prints its metrics as one JSON object on the last
//! line of standard output. `--trace 1` adds a traced run and prints the
//! per-layer metrics instead of the end-to-end ones. NOTES.md explains
//! the workloads and metrics.
//!
//! ```sh
//! perfbench --workload exact_d64 --seed 2006 --seconds 10 --trace 0
//! perfbench --workload paged_d16 --smoke      # toy size, a few seconds
//! ```
//!
//! Exit status: 0 when every answer was correct, 1 when one was wrong
//! or the run failed, 2 on a usage error.

mod check;
mod load;
mod run;
mod served;
mod spec;
mod stats;
mod trace;

use run::{Args, Report};
use std::path::Path;
use std::process::ExitCode;

const USAGE: &str = "usage: perfbench --workload <exact_d64|sketch_d64|paged_d16> \
[--seed N] [--seconds N] [--trace 0|1] [--smoke]";

/// Scratch files (the paged column file, the span dump) go here,
/// relative to the working directory.
const WORK_ROOT: &str = ".bench_work";

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 2006,
        seconds: 10,
        trace: false,
        smoke: false,
    };
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            args.smoke = true;
            continue;
        }
        let value = it
            .next()
            .ok_or_else(|| format!("flag {flag} needs a value"))?;
        let number = || -> Result<u64, String> {
            value
                .parse()
                .map_err(|_| format!("{flag} {value} is not a whole number"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = number()?,
            "--seconds" => args.seconds = number()?.max(1),
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if !spec::NAMES.contains(&args.workload.as_str()) {
        return Err(format!("unknown workload '{}'", args.workload));
    }
    Ok(args)
}

/// A finite number as JSON, with every digit Rust's shortest round-trip
/// formatting gives.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        // `+ 0.0` turns an empty sum's -0 into 0.
        format!("{}", v + 0.0)
    } else {
        "0".to_string()
    }
}

fn result_line(report: &Report) -> String {
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.correct,
        report.attempted.max(1),
        report.failed,
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let report = match run::run(&args, Path::new(WORK_ROOT)) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(1);
        }
    };
    for m in &report.metrics {
        eprintln!("{:<36} {:>14.6} {}", m.name, m.value + 0.0, m.unit);
    }
    if let Some(path) = &report.trace_file {
        eprintln!("spans written to {}", path.display());
    }
    println!("{}", result_line(&report));
    if report.correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("perfbench: an answer differed from the reference");
        ExitCode::from(1)
    }
}
