//! The seven workloads and the one call sequence they all time.
//!
//! Row counts and budgets are frozen here; `BENCHMARK.json` records why
//! each workload exists and `README.md` what each is expected to show.

use crate::datagen::Dataset;
use crate::trace::Tracer;
use lafp_backends::BackendKind;
use lafp_core::optimizer::OptimizerFlags;
use lafp_core::LafpConfig;
use lafp_interp::{result_hash, ExecMode, Interp};
use lafp_rewrite::{analyze, RewriteOptions, RewriteReport};
use std::path::Path;
use std::time::Duration;

/// The seed whose reference hashes are checked in under `expected/`.
pub const DEFAULT_SEED: u64 = 42;

/// The ten §5 programs, verbatim copies vendored into `programs/` so that
/// an edit to `crates/bench` cannot silently change the benchmark.
pub const PROGRAMS: [(&str, &str); 10] = [
    ("ais", include_str!("../programs/ais.py")),
    ("cty", include_str!("../programs/cty.py")),
    ("dso", include_str!("../programs/dso.py")),
    ("emp", include_str!("../programs/emp.py")),
    ("env", include_str!("../programs/env.py")),
    ("fdb", include_str!("../programs/fdb.py")),
    ("mov", include_str!("../programs/mov.py")),
    ("nyt", include_str!("../programs/nyt.py")),
    ("stu", include_str!("../programs/stu.py")),
    ("zip", include_str!("../programs/zip.py")),
];

/// Source of the vendored program `name`.
pub fn program_source(name: &str) -> &'static str {
    PROGRAMS
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, src)| *src)
        .expect("workloads only name vendored programs")
}

/// The configurations of §5.1 the workloads use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Config {
    /// Un-rewritten program on the eager Pandas engine: the paper's
    /// baseline, and the reference every other run is checked against.
    Pandas,
    /// Rewritten program, lazy runtime over the eager Pandas engine.
    LPandas,
    /// Rewritten program, lazy runtime over the Dask engine.
    LDask,
}

impl Config {
    /// Whether the JIT rewriter runs before the program.
    pub fn is_lafp(self) -> bool {
        self != Config::Pandas
    }
}

/// A program workload: one §5 program, one configuration, one dataset.
#[derive(Debug, Clone, Copy)]
pub struct ProgramWorkload {
    /// Which vendored program (also the dataset's main file stem).
    pub dataset: Dataset,
    /// Data rows in the dataset's main file.
    pub rows: usize,
    /// The configuration under test.
    pub config: Config,
    /// Simulated memory budget in bytes.
    pub budget: usize,
}

/// What a workload runs.
#[derive(Debug, Clone, Copy)]
pub enum Kind {
    /// One program over generated data.
    Program(ProgramWorkload),
    /// `analyze` over all ten programs, no data in the timed loop.
    Jit,
}

/// A named workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// The name `BENCHMARK.json` lists.
    pub name: &'static str,
    /// What it runs.
    pub kind: Kind,
}

const UNLIMITED: usize = usize::MAX;

/// The budget that makes `zip.ldask.spill` sort externally: the paper's
/// 32 GB scaled like `Size::MEMORY_BUDGET`, then by this dataset's size
/// relative to the probe's 1M rows.
pub const SPILL_BUDGET: usize = 8 * 1024 * 1024;

/// Rows per dataset in `jit.ten`'s set-up, where the four programs that
/// have generators are run rewritten and un-rewritten and compared.
pub const JIT_CHECK_ROWS: usize = 20_000;

const fn program(
    name: &'static str,
    dataset: Dataset,
    rows: usize,
    config: Config,
    budget: usize,
) -> Workload {
    Workload {
        name,
        kind: Kind::Program(ProgramWorkload {
            dataset,
            rows,
            config,
            budget,
        }),
    }
}

/// Every workload, in the order they are reported.
pub const WORKLOADS: [Workload; 7] = [
    program("nyt.ldask", Dataset::Nyt, 300_000, Config::LDask, UNLIMITED),
    program(
        "nyt.pandas",
        Dataset::Nyt,
        300_000,
        Config::Pandas,
        UNLIMITED,
    ),
    program("zip.ldask", Dataset::Zip, 250_000, Config::LDask, UNLIMITED),
    program(
        "zip.ldask.spill",
        Dataset::Zip,
        250_000,
        Config::LDask,
        SPILL_BUDGET,
    ),
    program("mov.ldask", Dataset::Mov, 300_000, Config::LDask, UNLIMITED),
    program(
        "stu.lpandas",
        Dataset::Stu,
        300_000,
        Config::LPandas,
        UNLIMITED,
    ),
    Workload {
        name: "jit.ten",
        kind: Kind::Jit,
    },
];

/// Look a workload up by name.
pub fn workload(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

/// What one run of a program produced.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Order-insensitive hash of everything the program printed.
    pub hash: u64,
    /// `RunOutcome::peak_memory`: the `MemoryTracker` peak in bytes.
    pub peak_bytes: usize,
    /// parse → (analyze) → `Interp::new` → `Interp::run` → outputs hashed.
    pub wall: Duration,
    /// `Interp::run` alone.
    pub run: Duration,
    /// Index of the `interp.run` span, when tracing.
    pub run_span: Option<usize>,
    /// What the rewriter did (LaFP configurations only).
    pub report: Option<RewriteReport>,
}

/// One iteration: parse, rewrite when the configuration is a LaFP one,
/// build a fresh interpreter (and with it a fresh `MemoryTracker`), run,
/// collect and hash the outputs.
pub fn run_once(
    source: &str,
    config: Config,
    data_dir: &Path,
    budget: usize,
    threads: usize,
    tracer: &mut Tracer,
) -> Result<Outcome, String> {
    let (result, wall, _) = tracer.time("iteration", |tracer| {
        let (ast, report) = if config.is_lafp() {
            let options = RewriteOptions {
                data_dir: Some(data_dir.to_path_buf()),
                ..RewriteOptions::default()
            };
            let (analyzed, _, _) = tracer.time("rewrite.analyze", |_| analyze(source, &options));
            let analyzed = analyzed.map_err(|e| e.to_string())?;
            (analyzed.ast, Some(analyzed.report))
        } else {
            let (ast, _, _) = tracer.time("ir.parse", |_| lafp_ir::parser::parse(source));
            (ast.map_err(|e| e.to_string())?, None)
        };
        let (mode, backend) = match config {
            Config::Pandas => (ExecMode::Eager(BackendKind::Pandas), BackendKind::Pandas),
            Config::LPandas => (ExecMode::Lafp, BackendKind::Pandas),
            Config::LDask => (ExecMode::Lafp, BackendKind::Dask),
        };
        let lafp_config = LafpConfig {
            backend,
            memory_budget: budget,
            threads,
            chunk_rows: 0,
            optimizer: OptimizerFlags::default(),
            use_metadata: config.is_lafp(),
            print_rows: 5,
        };
        let (mut interp, _, _) = tracer.time("interp.new", |_| {
            Interp::new(mode, lafp_config, data_dir.to_path_buf())
        });
        let (outcome, run, run_span) = tracer.time("interp.run", |_| interp.run(&ast));
        let outcome = outcome.map_err(|e| e.to_string())?;
        let (hash, _, _) = tracer.time("interp.result_hash", |_| result_hash(&outcome.output));
        Ok::<_, String>((hash, outcome.peak_memory, run, run_span, report))
    });
    let (hash, peak_bytes, run, run_span, report) = result?;
    Ok(Outcome {
        hash,
        peak_bytes,
        wall,
        run,
        run_span,
        report,
    })
}
