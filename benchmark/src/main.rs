//! End-to-end program benchmark with per-layer attribution.
//!
//! `lafp-benchmark run [--workload W] [--seed S] [--seconds T] [--trace 0|1]`
//! generates seeded inputs, runs the workload as a closed loop of one
//! client, checks every iteration's output and prints each metric by name
//! with its unit; the last line of standard output is the result object
//! `BENCHMARK.json`'s contract describes. See `README.md`.

mod datagen;
mod env;
mod layers;
mod run;
mod stats;
mod trace;
mod workloads;

use std::process::ExitCode;

const USAGE: &str = "\
usage: lafp-benchmark run [--workload NAME] [--seed N] [--seconds N] [--trace 0|1]
       lafp-benchmark expected        print expected/golden.txt for the default seed";

/// Parsed `run` arguments.
pub struct Args {
    /// One workload, or all of them when absent.
    pub workload: Option<String>,
    /// The only source of randomness.
    pub seed: u64,
    /// How long the timed loop measures.
    pub seconds: f64,
    /// Emit per-layer metrics (and the span file) instead of end-to-end ones.
    pub trace: bool,
}

fn parse_run_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: workloads::DEFAULT_SEED,
        seconds: 8.0,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => parsed.workload = Some(value()?.clone()),
            "--seed" => parsed.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                parsed.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(parsed.seconds > 0.0 && parsed.seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
            }
            "--trace" => {
                parsed.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if let Some(name) = &parsed.workload {
        if workloads::workload(name).is_none() {
            let known: Vec<&str> = workloads::WORKLOADS.iter().map(|w| w.name).collect();
            return Err(format!(
                "unknown workload {name}; known: {}",
                known.join(", ")
            ));
        }
    }
    Ok(parsed)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("run") => parse_run_args(&args[1..]).and_then(|a| run::run(&a)),
        Some("expected") => run::print_expected(),
        _ => Err(USAGE.to_string()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("lafp-benchmark: {message}");
            ExitCode::from(2)
        }
    }
}
