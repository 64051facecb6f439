//! The experiment harness: regenerates every table and figure of §5.
//!
//! ```text
//! cargo run -p lafp-bench --release --bin harness -- all
//! cargo run -p lafp-bench --release --bin harness -- fig12 fig13
//! ```
//!
//! Artifacts: `fig12` `fig13` `fig14` `fig15` `ablation` `overhead`
//! `regress`, or `all`. Data lives under `target/lafp-data/` (override
//! with `LAFP_DATA_DIR`).
//!
//! Kernel microbenchmarks (the per-PR perf trajectory):
//!
//! ```text
//! cargo run -p lafp-bench --release --bin harness -- bench \
//!     --rows 1000000 --iters 3 --json BENCH_PR2.json
//! ```
//!
//! `--rows` defaults to 1,000,000 (use a small value for smoke runs),
//! `--iters` to 3 (best-of), `--json` writes the machine-readable artifact
//! (a human-readable table always goes to stdout). The artifact's PR label
//! comes from `--pr N`, or is parsed from a `BENCH_PR<N>.json` file name.
//!
//! Differential fuzzing against the frozen oracle:
//!
//! ```text
//! cargo run -p lafp-bench --release --bin harness -- fuzz \
//!     --cases 500 --seed 42 [--config dask] [--replay <hex>]
//! ```
//!
//! Divergences are shrunk to a minimal trace and printed as a
//! `LAFP_FUZZ_REPLAY=<hex>` one-liner; setting that variable (or
//! passing `--replay <hex>`) re-executes the trace across the config
//! matrix instead of fuzzing.

use lafp_bench::datagen::Size;
use lafp_bench::{experiments, kernel_bench};
use std::path::PathBuf;

/// Run the kernel microbench suite (the `bench` artifact).
fn run_kernel_bench(args: &[String]) {
    let mut rows = 1_000_000usize;
    let mut iters = 3usize;
    let mut json: Option<PathBuf> = None;
    let mut pr: Option<u32> = None;
    let mut threads = 0usize; // 0 = default (LAFP_THREADS / host parallelism)
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--rows" => {
                rows = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--rows needs a number");
            }
            "--iters" => {
                iters = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--iters needs a number");
            }
            "--json" => {
                json = Some(PathBuf::from(it.next().expect("--json needs a path")));
            }
            "--pr" => {
                pr = Some(
                    it.next()
                        .and_then(|v| v.parse().ok())
                        .expect("--pr needs a number"),
                );
            }
            "--threads" => {
                threads = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--threads needs a number");
            }
            other => panic!(
                "unknown bench flag {other:?} (use --rows, --iters, --json, --pr, --threads)"
            ),
        }
    }
    let threads = lafp_columnar::ExecConfig::from_env().with_threads(threads).threads;
    // PR number for the artifact metadata: --pr wins, else it is parsed
    // from a BENCH_PR<N>.json file name, else 0 (unlabeled run).
    let pr = pr.unwrap_or_else(|| {
        json.as_ref()
            .and_then(|p| p.file_name()?.to_str()?.strip_prefix("BENCH_PR")?.strip_suffix(".json")?.parse().ok())
            .unwrap_or(0)
    });
    eprintln!("kernel microbench: {rows} rows, best of {iters} ...");
    let results = kernel_bench::run_suite(rows, iters);
    println!("{:<28} {:>12} {:>14} {:>9}", "kernel", "seed_ms", "vectorized_ms", "speedup");
    for r in &results {
        println!(
            "{:<28} {:>12.3} {:>14.3} {:>8.2}x",
            r.name, r.seed_ms, r.vectorized_ms, r.speedup
        );
    }
    eprintln!("string kernels: arena vs Arc<str> baseline ...");
    let strings = kernel_bench::run_string_suite(rows, iters);
    println!();
    println!("{:<28} {:>12} {:>14} {:>9}", "string kernel", "arc_ms", "arena_ms", "speedup");
    for r in &strings {
        println!(
            "{:<28} {:>12.3} {:>14.3} {:>8.2}x",
            r.name, r.arc_ms, r.arena_ms, r.speedup
        );
    }
    eprintln!("parallel kernels: 1 worker vs {threads} ...");
    let parallel = kernel_bench::run_parallel_suite(rows, iters, threads);
    println!();
    println!(
        "{:<28} {:>12} {:>14} {:>9}",
        "parallel kernel",
        "t1_ms",
        format!("t{threads}_ms"),
        "speedup"
    );
    for r in &parallel {
        println!(
            "{:<28} {:>12.3} {:>14.3} {:>8.2}x",
            r.name, r.t1_ms, r.tn_ms, r.speedup
        );
    }
    eprintln!("pipelined executor: scan overlap vs blocking drain, {threads} workers ...");
    let pipeline = kernel_bench::run_pipeline_suite(rows, iters, threads);
    println!();
    println!(
        "{:<28} {:>12} {:>14} {:>9}",
        "pipeline query", "blocking_ms", "pipelined_ms", "speedup"
    );
    for r in &pipeline {
        println!(
            "{:<28} {:>12.3} {:>14.3} {:>8.2}x",
            r.name, r.blocking_ms, r.pipelined_ms, r.speedup
        );
    }
    eprintln!("chain fusion: fused per-morsel runs vs one frame per op, {threads} workers ...");
    let fusion = kernel_bench::run_fusion_suite(rows, iters, threads);
    println!();
    println!(
        "{:<36} {:>12} {:>12} {:>9}",
        "fused query", "unfused_ms", "fused_ms", "speedup"
    );
    for r in &fusion {
        println!(
            "{:<36} {:>12.3} {:>12.3} {:>8.2}x",
            r.name, r.unfused_ms, r.fused_ms, r.speedup
        );
    }
    eprintln!("encoded execution: Dict/Rle kernels vs decode-then-compute ...");
    let encoding = kernel_bench::run_encoding_suite(rows, iters);
    println!();
    println!(
        "{:<28} {:>12} {:>14} {:>9}",
        "encoded kernel", "decoded_ms", "encoded_ms", "speedup"
    );
    for r in &encoding {
        println!(
            "{:<28} {:>12.3} {:>14.3} {:>8.2}x",
            r.name, r.decoded_ms, r.encoded_ms, r.speedup
        );
    }
    eprintln!("partition assembly: n-way concat vs pairwise fold ...");
    let concat = kernel_bench::run_concat_suite(rows, iters);
    println!();
    println!(
        "{:<28} {:>12} {:>14} {:>9}",
        "concat kernel", "pairwise_ms", "nway_ms", "speedup"
    );
    for r in &concat {
        println!(
            "{:<28} {:>12.3} {:>14.3} {:>8.2}x",
            r.name, r.pairwise_ms, r.nway_ms, r.speedup
        );
    }
    if let Some(path) = json {
        let body = kernel_bench::render_json(
            pr,
            rows,
            iters,
            &kernel_bench::BenchSections {
                benches: &results,
                strings: &strings,
                parallel: &parallel,
                pipeline: &pipeline,
                fusion: &fusion,
                encoding: &encoding,
                concat: &concat,
            },
        );
        std::fs::write(&path, body).expect("write bench json");
        eprintln!("wrote {}", path.display());
    }
}

/// Run the differential fuzzer (the `fuzz` artifact): seeded batches
/// against the frozen oracle across the execution-config matrix, with
/// automatic shrinking and hex replay.
fn run_fuzz(args: &[String]) {
    use lafp_oracle::fuzz;

    let mut cases = 500u64;
    let mut seed = 42u64;
    let mut config: Option<String> = None;
    let mut replay: Option<String> = std::env::var(fuzz::REPLAY_ENV).ok();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--cases" => {
                cases = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--cases needs a number");
            }
            "--seed" => {
                seed = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--seed needs a number");
            }
            "--config" => {
                config = Some(it.next().expect("--config needs a name").clone());
            }
            "--replay" => {
                replay = Some(it.next().expect("--replay needs a hex trace").clone());
            }
            other => panic!(
                "unknown fuzz flag {other:?} (use --cases, --seed, --config, --replay)"
            ),
        }
    }
    let configs = match &config {
        Some(name) => vec![fuzz::config_by_name(name).unwrap_or_else(|| {
            let names: Vec<&str> =
                fuzz::default_configs().iter().map(|c| c.name).collect();
            panic!("unknown config {name:?} (one of {names:?})")
        })],
        None => fuzz::default_configs(),
    };

    if let Some(hex) = replay {
        eprintln!("replaying trace across {} config(s) ...", configs.len());
        let divergences = fuzz::replay_hex(&hex, &configs, fuzz::Mutation::None)
            .expect("replay trace must be a hex string");
        if divergences.is_empty() {
            println!("replay ok: trace matches the oracle under every config");
            return;
        }
        for (name, message) in &divergences {
            println!("[{name}] DIVERGENCE: {message}");
        }
        std::process::exit(1);
    }

    eprintln!(
        "fuzz: {cases} cases, seed {seed}, {} config(s) rotating ...",
        configs.len()
    );
    let report = fuzz::run_batch(seed, cases, &configs, fuzz::Mutation::None);
    println!(
        "fuzz: {} cases, {} accepted structured engine error(s), {} divergence(s)",
        report.cases,
        report.engine_errors,
        report.failures.len()
    );
    for f in &report.failures {
        println!();
        println!("case {} [{}]: {}", f.case, f.config, f.message);
        println!("  minimized to {} op(s); replay with:", f.shrunk_ops);
        println!("  {}={}", fuzz::REPLAY_ENV, f.hex_shrunk);
        println!("  (original trace: {})", f.hex_original);
    }
    if !report.failures.is_empty() {
        std::process::exit(1);
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().is_some_and(|a| a == "bench") {
        run_kernel_bench(&args[1..]);
        return;
    }
    if args.first().is_some_and(|a| a == "fuzz") {
        run_fuzz(&args[1..]);
        return;
    }
    let wanted: Vec<&str> = if args.is_empty() || args.iter().any(|a| a == "all") {
        vec!["fig12", "fig13", "fig14", "fig15", "ablation", "overhead", "regress"]
    } else {
        args.iter().map(String::as_str).collect()
    };
    let root = std::env::var("LAFP_DATA_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|_| PathBuf::from("target/lafp-data"));

    eprintln!("preparing datasets under {} ...", root.display());
    let dirs = experiments::prepare_data(&root).expect("dataset generation");

    let needs_sweep = wanted
        .iter()
        .any(|w| matches!(*w, "fig12" | "fig13" | "fig14" | "fig15" | "regress"));
    let sizes = Size::ALL;
    let sweep = if needs_sweep {
        eprintln!("running the 10 programs x 6 configurations x 3 sizes sweep ...");
        Some(experiments::run_sweep(&dirs, &sizes))
    } else {
        None
    };

    for artifact in wanted {
        match artifact {
            "fig12" => println!("{}", experiments::figure12(sweep.as_ref().unwrap(), &sizes)),
            "fig13" => println!("{}", experiments::figure13(sweep.as_ref().unwrap())),
            "fig14" => println!("{}", experiments::figure14(sweep.as_ref().unwrap(), &sizes)),
            "fig15" => println!("{}", experiments::figure15(sweep.as_ref().unwrap(), &sizes)),
            "ablation" => println!("{}", experiments::stu_caching_ablation(&dirs)),
            "overhead" => println!("{}", experiments::analysis_overhead(&dirs)),
            "regress" => {
                let (report, ok) = experiments::regression(sweep.as_ref().unwrap(), &sizes);
                println!("{report}");
                if !ok {
                    std::process::exit(1);
                }
            }
            other => eprintln!("unknown artifact {other:?} (use fig12..fig15, ablation, overhead, regress, all)"),
        }
    }
}
