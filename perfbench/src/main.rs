//! The repository benchmark: one named workload, one seed, one JSON line.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload steady|fanout|churn --seed N --seconds S --trace 0|1
//! ```
//!
//! With `--trace 0` the last line of standard output carries the
//! end-to-end metrics; with `--trace 1` it carries the per-layer budget of a
//! traced run.  Every run verifies every surfaced price, revenue and regret
//! against a serial replay and exits non-zero on any mismatch, on a failed
//! request, or when the backlog guard trips.  See `perfbench/README.md`.

mod driver;
mod market;
mod replay;
mod trace;
mod workloads;

use std::fmt::Write as _;
use std::process::ExitCode;
use workloads::{Args, Report, Spec, CHURN, FANOUT, STEADY};

const USAGE: &str =
    "usage: perfbench --workload steady|fanout|churn --seed N --seconds S --trace 0|1";

fn parse(args: &[String]) -> Result<(Spec, Args), String> {
    let mut spec = None;
    let mut parsed = Args {
        seed: 0,
        seconds: 10.0,
        traced: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                spec = Some(match value.as_str() {
                    "steady" => STEADY,
                    "fanout" => FANOUT,
                    "churn" => CHURN,
                    other => return Err(format!("unknown workload `{other}`")),
                });
            }
            "--seed" => parsed.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                parsed.seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(parsed.seconds > 0.0 && parsed.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_owned());
                }
            }
            "--trace" => {
                parsed.traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_owned()),
                }
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok((spec.ok_or("--workload is required")?, parsed))
}

fn json_line(correct: bool, report: &Report, traced: bool) -> String {
    let metrics = if traced {
        &report.per_layer
    } else {
        &report.end_to_end
    };
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        report.attempted.max(1),
        report.failed
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let value = if value.is_finite() { *value } else { 0.0 };
        let _ = write!(
            out,
            "{}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}",
            if i == 0 { "" } else { ", " }
        );
    }
    out.push_str("}}");
    out
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (spec, args) = match parse(&argv) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match workloads::run(&spec, &args) {
        Ok(report) => {
            let correct = report.failed == 0;
            for (name, value, unit) in report.end_to_end.iter().chain(&report.per_layer) {
                println!(
                    "{:<32} {value:>16.6} {unit}",
                    format!("{}/{name}", spec.name)
                );
            }
            for error in &report.errors {
                eprintln!("error: {error}");
            }
            println!("{}", json_line(correct, &report, args.traced));
            if correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("{}: check failed: {e}", spec.name);
            let report = Report::default();
            println!("{}", json_line(false, &report, args.traced));
            ExitCode::FAILURE
        }
    }
}
