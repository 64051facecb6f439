//! Set-up, the closed measuring loop, output checking and reporting.

use crate::datagen::{Dataset, GENERATOR_VERSION};
use crate::env::Environment;
use crate::layers::{self, read_counters, rewrite_counts, FrontEnd, Op, Replay, COUNTER_METRICS};
use crate::stats::{median, ms, summarize, us};
use crate::trace::{self_times_us, Tracer};
use crate::workloads::{
    program_source, run_once, Config, Kind, Outcome, ProgramWorkload, Workload, DEFAULT_SEED,
    JIT_CHECK_ROWS, PROGRAMS, WORKLOADS,
};
use crate::Args;
use lafp_meta::MetaStore;
use lafp_rewrite::{analyze, RewriteOptions};
use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};

/// Times set-up is repeated in an untraced run; `setup_s` is the median.
const SETUP_REPS: usize = 3;
/// Untimed iterations before each stretch of the loop. One is enough:
/// set-up has just written and twice read the files, so the page cache
/// is warm, and the engine keeps no state between iterations.
const WARMUP_ITERATIONS: usize = 1;
/// The loop runs until `--seconds` have passed, but never fewer times.
const MIN_ITERATIONS: usize = 3;
/// Repetitions of `analyze` over the ten programs on the workloads whose
/// loop does not consist of it (on `jit.ten` the whole loop does).
const ANALYZE_PROBE_REPS: usize = 1000;
/// Front-end repetitions whose spans a traced `jit.ten` run keeps; the
/// rest are only timed, so that the span file stays readable.
const JIT_TRACED_REPS: usize = 3;
/// Rows of the dataset copy that `interp.fixed_us` runs over.
const FIXED_ROWS: usize = 16;

/// The golden values for [`DEFAULT_SEED`], regenerated by `expected`.
const GOLDEN: &str = include_str!("../expected/golden.txt");

fn mib(bytes: usize) -> f64 {
    bytes as f64 / (1024.0 * 1024.0)
}

/// One reported metric.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// What one run of one workload found.
struct RunResult {
    attempted: usize,
    failed: usize,
    /// False when the reference itself disagrees with the golden value:
    /// then no iteration's check means anything.
    reference_ok: bool,
    metrics: Vec<Metric>,
}

impl RunResult {
    fn correct(&self) -> bool {
        self.reference_ok && self.failed == 0
    }

    /// The contract's result object: exactly these four keys.
    fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

// ---------------------------------------------------------------------------
// Golden values
// ---------------------------------------------------------------------------

/// `hash <generator version> <program> <rows> <hex>` lines of the golden file.
fn golden_hash(program: &str, rows: usize) -> Option<u64> {
    let wanted = [
        "hash".to_string(),
        GENERATOR_VERSION.to_string(),
        program.to_string(),
        rows.to_string(),
    ];
    GOLDEN.lines().find_map(|line| {
        let fields: Vec<&str> = line.split_whitespace().collect();
        (fields.len() == 5 && fields[..4] == wanted)
            .then(|| u64::from_str_radix(fields[4], 16).ok())
            .flatten()
    })
}

/// `counts <program> <usecols columns> <forced computes> <categories>`
/// lines of the golden file, in [`PROGRAMS`] order.
fn golden_counts() -> Result<Vec<[usize; 3]>, String> {
    PROGRAMS
        .iter()
        .map(|(program, _)| {
            GOLDEN
                .lines()
                .find_map(|line| {
                    let fields: Vec<&str> = line.split_whitespace().collect();
                    if fields.len() != 5 || fields[0] != "counts" || fields[1] != *program {
                        return None;
                    }
                    Some([
                        fields[2].parse().ok()?,
                        fields[3].parse().ok()?,
                        fields[4].parse().ok()?,
                    ])
                })
                .ok_or_else(|| format!("expected/golden.txt has no counts for {program}"))
        })
        .collect()
}

/// The reference is trusted for any seed because it is the un-rewritten
/// program on the eager engine; for the default seed it must also equal
/// the checked-in value, so that the reference cannot drift unnoticed.
fn reference_matches_golden(program: &str, rows: usize, seed: u64, hash: u64) -> bool {
    if seed != DEFAULT_SEED {
        return true;
    }
    match golden_hash(program, rows) {
        Some(expected) if expected == hash => true,
        Some(expected) => {
            println!(
                "  golden mismatch on {program}: expected {expected:016x}, reference {hash:016x}"
            );
            false
        }
        None => {
            println!(
                "  no golden value for {program} at {rows} rows (regenerate expected/golden.txt)"
            );
            false
        }
    }
}

// ---------------------------------------------------------------------------
// Set-up
// ---------------------------------------------------------------------------

/// Rows and bytes of one generated file.
struct FileInfo {
    name: &'static str,
    rows: u64,
    bytes: u64,
}

/// What set-up produced for one dataset.
struct Prepared {
    files: Vec<FileInfo>,
    /// `scan::compute_and_store` over the dataset's files.
    sidecar: Duration,
    /// The un-rewritten program on eager Pandas over the same files.
    reference: Outcome,
}

/// Generate `dataset` into `dir`, compute its metastore sidecars and run
/// the reference. This is everything `setup_s` covers.
fn prepare(
    dataset: Dataset,
    rows: usize,
    seed: u64,
    dir: &Path,
    threads: usize,
) -> Result<Prepared, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    dataset
        .write(dir, rows, seed)
        .map_err(|e| format!("generating {}: {e}", dataset.name()))?;
    let started = Instant::now();
    let mut files = Vec::new();
    for name in dataset.files() {
        let path = dir.join(name);
        let meta = lafp_meta::scan::compute_and_store(&path).map_err(|e| format!("{name}: {e}"))?;
        files.push(FileInfo {
            name,
            rows: meta.nrows,
            bytes: std::fs::metadata(&path).map_err(|e| e.to_string())?.len(),
        });
    }
    let sidecar = started.elapsed();
    let reference = run_once(
        program_source(dataset.name()),
        Config::Pandas,
        dir,
        usize::MAX,
        threads,
        &mut Tracer::new(false),
    )
    .map_err(|e| format!("reference run of {}: {e}", dataset.name()))?;
    Ok(Prepared {
        files,
        sidecar,
        reference,
    })
}

fn describe_files(files: &[FileInfo]) -> String {
    files
        .iter()
        .map(|f| format!("{} {} rows {} bytes", f.name, f.rows, f.bytes))
        .collect::<Vec<_>>()
        .join(", ")
}

// ---------------------------------------------------------------------------
// Program workloads
// ---------------------------------------------------------------------------

/// `analyze` over the ten programs, `reps` times; microseconds per rep.
fn analyze_probe(reps: usize) -> Result<Vec<f64>, String> {
    let options = RewriteOptions::default();
    let mut samples = Vec::with_capacity(reps);
    for _ in 0..reps {
        let started = Instant::now();
        for (name, source) in PROGRAMS {
            std::hint::black_box(analyze(source, &options).map_err(|e| format!("{name}: {e}"))?);
        }
        samples.push(us(started.elapsed()));
    }
    Ok(samples)
}

/// The closed loop of one client: iterations back to back until
/// `seconds` have passed, each output checked against `expected`.
#[derive(Default)]
struct Loop {
    attempted: usize,
    failed: usize,
    wall_ms: Vec<f64>,
    peak_mib: Vec<f64>,
}

fn measure(
    w: &ProgramWorkload,
    data_dir: &Path,
    expected: u64,
    seconds: f64,
    threads: usize,
    out: &mut Loop,
) {
    let mut tracer = Tracer::new(false);
    let source = program_source(w.dataset.name());
    for _ in 0..WARMUP_ITERATIONS {
        let _ = run_once(source, w.config, data_dir, w.budget, threads, &mut tracer);
    }
    let started = Instant::now();
    let mut iterations = 0;
    while iterations < MIN_ITERATIONS || started.elapsed().as_secs_f64() < seconds {
        iterations += 1;
        out.attempted += 1;
        match run_once(source, w.config, data_dir, w.budget, threads, &mut tracer) {
            Ok(o) if o.hash == expected => {
                out.wall_ms.push(ms(o.wall));
                out.peak_mib.push(mib(o.peak_bytes));
            }
            Ok(o) => {
                out.failed += 1;
                println!(
                    "  iteration {}: output hash {:016x}, expected {expected:016x}",
                    out.attempted, o.hash
                );
            }
            Err(e) => {
                out.failed += 1;
                println!("  iteration {}: {e}", out.attempted);
            }
        }
    }
}

fn run_program(
    name: &str,
    w: &ProgramWorkload,
    args: &Args,
    env: &Environment,
) -> Result<RunResult, String> {
    let data_dir = env.work_dir.join(name);
    let program = w.dataset.name();
    // The probe comes first, while the heap is as small as on `jit.ten`:
    // after a data loop the allocator's state moves it by several per cent.
    analyze_probe(ANALYZE_PROBE_REPS / 4)?;
    let analyze_us = analyze_probe(ANALYZE_PROBE_REPS)?;

    // Set-up and measuring alternate: each third of the loop runs over a
    // freshly written copy of the data, so that where the page cache
    // happened to put one copy does not decide the whole run.
    let mut setup_s = Vec::new();
    let mut measured = Loop::default();
    let mut reference_ok = true;
    for rep in 0..SETUP_REPS {
        let started = Instant::now();
        let prepared = prepare(w.dataset, w.rows, args.seed, &data_dir, env.threads)?;
        setup_s.push(started.elapsed().as_secs_f64());
        if rep == 0 {
            println!("  data: {}", describe_files(&prepared.files));
            reference_ok =
                reference_matches_golden(program, w.rows, args.seed, prepared.reference.hash);
        }
        let seconds = args.seconds / SETUP_REPS as f64;
        let before = measured.wall_ms.len();
        measure(
            w,
            &data_dir,
            prepared.reference.hash,
            seconds,
            env.threads,
            &mut measured,
        );
        println!(
            "  segment {rep}: wall_ms {}",
            summarize(&measured.wall_ms[before..])
        );
    }
    if measured.wall_ms.is_empty() {
        return Err(format!("{name}: no iteration produced the expected output"));
    }
    println!("  wall_ms          {}", summarize(&measured.wall_ms));
    println!("  analyze_us       {}", summarize(&analyze_us));
    println!("  peak_tracked_mb  {}", summarize(&measured.peak_mib));
    println!("  setup_s          {}", summarize(&setup_s));
    println!(
        "  fail_share       {} of {} iterations",
        measured.failed, measured.attempted
    );
    Ok(RunResult {
        attempted: measured.attempted,
        failed: measured.failed,
        reference_ok,
        metrics: vec![
            metric("wall_ms", median(&measured.wall_ms), "ms"),
            metric("analyze_us", median(&analyze_us), "us"),
            metric("peak_tracked_mb", median(&measured.peak_mib), "MiB"),
            metric("setup_s", median(&setup_s), "s"),
        ],
    })
}

// ---------------------------------------------------------------------------
// jit.ten
// ---------------------------------------------------------------------------

/// `jit.ten`'s set-up: the four programs that have generators run
/// rewritten (LPandas, so the tracked peak repeats exactly) and
/// un-rewritten over small data, and must print the same. Returns whether
/// every pair agreed (and the references their golden values), and the
/// largest tracked peak among the rewritten runs.
fn jit_soundness(seed: u64, env: &Environment) -> Result<(bool, usize), String> {
    let mut ok = true;
    let mut peak = 0;
    for dataset in Dataset::ALL {
        let dir = env.work_dir.join("jit.ten").join(dataset.name());
        let prepared = prepare(dataset, JIT_CHECK_ROWS, seed, &dir, env.threads)?;
        ok &= reference_matches_golden(
            dataset.name(),
            JIT_CHECK_ROWS,
            seed,
            prepared.reference.hash,
        );
        let rewritten = run_once(
            program_source(dataset.name()),
            Config::LPandas,
            &dir,
            usize::MAX,
            env.threads,
            &mut Tracer::new(false),
        )?;
        if rewritten.hash != prepared.reference.hash {
            println!(
                "  rewritten {} prints differently from the original",
                dataset.name()
            );
            ok = false;
        }
        peak = peak.max(rewritten.peak_bytes);
    }
    Ok((ok, peak))
}

/// One repetition: `analyze` each of the ten programs, then check that the
/// optimized source re-parses and that the rewriter did what the golden
/// file says. Returns the time inside `analyze` and whether all checked out.
fn jit_repetition(options: &RewriteOptions, expected: &[[usize; 3]]) -> (Duration, bool) {
    let mut inside = Duration::ZERO;
    let mut ok = true;
    for ((_, source), counts) in PROGRAMS.iter().zip(expected) {
        let started = Instant::now();
        let analyzed = analyze(source, options);
        inside += started.elapsed();
        ok &= analyzed.is_ok_and(|a| {
            lafp_ir::parser::parse(&a.optimized_source).is_ok()
                && *counts == rewrite_counts(&a.report)
        });
    }
    (inside, ok)
}

fn run_jit(args: &Args, env: &Environment) -> Result<RunResult, String> {
    let mut setup_s = Vec::new();
    let mut sound = (true, 0);
    for _ in 0..SETUP_REPS {
        let started = Instant::now();
        sound = jit_soundness(args.seed, env)?;
        setup_s.push(started.elapsed().as_secs_f64());
    }
    let (reference_ok, peak_bytes) = sound;

    let options = RewriteOptions::default();
    let expected = golden_counts()?;
    for _ in 0..WARMUP_ITERATIONS {
        jit_repetition(&options, &expected);
    }
    let (mut wall_ms, mut analyze_us) = (Vec::new(), Vec::new());
    let (mut attempted, mut failed) = (0, 0);
    let started = Instant::now();
    while attempted < MIN_ITERATIONS || started.elapsed().as_secs_f64() < args.seconds {
        attempted += 1;
        let rep = Instant::now();
        let (inside, ok) = jit_repetition(&options, &expected);
        if ok {
            wall_ms.push(ms(rep.elapsed()));
            analyze_us.push(us(inside));
        } else {
            failed += 1;
        }
    }
    if wall_ms.is_empty() {
        return Err("jit.ten: no repetition passed its checks".into());
    }
    println!("  wall_ms          {}", summarize(&wall_ms));
    println!("  analyze_us       {}", summarize(&analyze_us));
    println!(
        "  peak_tracked_mb  {:.4} (rewritten programs of the set-up check)",
        mib(peak_bytes)
    );
    println!("  setup_s          {}", summarize(&setup_s));
    println!("  fail_share       {failed} of {attempted} repetitions");
    Ok(RunResult {
        attempted,
        failed,
        reference_ok,
        metrics: vec![
            metric("wall_ms", median(&wall_ms), "ms"),
            metric("analyze_us", median(&analyze_us), "us"),
            metric("peak_tracked_mb", mib(peak_bytes), "MiB"),
            metric("setup_s", median(&setup_s), "s"),
        ],
    })
}

// ---------------------------------------------------------------------------
// Traced runs
// ---------------------------------------------------------------------------

/// Everything a traced run reports; fields a workload does not exercise
/// stay zero, so every workload prints every per-layer metric.
#[derive(Default)]
struct LayerMetrics {
    front: FrontEnd,
    fixed_us: f64,
    replay: Replay,
    engine_ratio: f64,
    /// Per-iteration deltas, in [`COUNTER_METRICS`] order.
    counters: [u64; 7],
    sidecar_ms: f64,
    load_us: f64,
    traced_wall_ms: f64,
    overhead_pct: f64,
}

impl LayerMetrics {
    fn metrics(&self) -> Vec<Metric> {
        let (f, r) = (&self.front, &self.replay);
        let scan_mb_s = if r.scan_ms > 0.0 {
            r.scan_bytes as f64 / 1e6 / (r.scan_ms / 1e3)
        } else {
            0.0
        };
        let mut out = vec![
            metric("ir.parse_us", f.parse_us, "us"),
            metric("analysis.dataflow_us", f.dataflow_us, "us"),
            metric("rewrite.self_us", f.rewrite_self_us, "us"),
            metric("rewrite.usecols_cols", f.counts[0] as f64, "count"),
            metric("rewrite.forced_computes", f.counts[1] as f64, "count"),
            metric("rewrite.categories", f.counts[2] as f64, "count"),
            metric("interp.fixed_us", self.fixed_us, "us"),
            metric("columnar.scan_ms", r.scan_ms, "ms"),
            metric("columnar.scan_mb_s", scan_mb_s, "MB/s"),
            metric("backends.engine_ratio", self.engine_ratio, "ratio"),
            metric("columnar.spill_write_mb_s", r.spill_write_mb_s, "MB/s"),
            metric("columnar.spill_read_mb_s", r.spill_read_mb_s, "MB/s"),
            metric("meta.sidecar_ms", self.sidecar_ms, "ms"),
            metric("meta.load_us", self.load_us, "us"),
            metric("trace.wall_ms", self.traced_wall_ms, "ms"),
            metric("trace.overhead_pct", self.overhead_pct, "%"),
        ];
        out.extend(
            Op::ALL
                .iter()
                .zip(r.ops_ms)
                .map(|(op, t)| metric(op.metric(), t, "ms")),
        );
        out.extend(
            COUNTER_METRICS
                .iter()
                .zip(self.counters)
                .map(|(&(name, unit, factor), count)| metric(name, count as f64 * factor, unit)),
        );
        out
    }
}

/// Median of each field of several front-end repetitions.
fn median_front_end(reps: &[FrontEnd]) -> FrontEnd {
    let of = |field: fn(&FrontEnd) -> f64| median(&reps.iter().map(field).collect::<Vec<_>>());
    FrontEnd {
        parse_us: of(|f| f.parse_us),
        dataflow_us: of(|f| f.dataflow_us),
        rewrite_self_us: of(|f| f.rewrite_self_us),
        ..reps[0]
    }
}

/// Median of each field of several replays.
fn median_replay(reps: &[Replay]) -> Replay {
    let of = |field: fn(&Replay) -> f64| median(&reps.iter().map(field).collect::<Vec<_>>());
    Replay {
        scan_ms: of(|r| r.scan_ms),
        ops_ms: std::array::from_fn(|i| {
            median(&reps.iter().map(|r| r.ops_ms[i]).collect::<Vec<_>>())
        }),
        spill_write_mb_s: of(|r| r.spill_write_mb_s),
        spill_read_mb_s: of(|r| r.spill_read_mb_s),
        ..reps[0]
    }
}

/// Print the layers by self time, largest first, and write the span file.
fn finish_trace(name: &str, tracer: &Tracer, env: &Environment) -> Result<(), String> {
    let own = self_times_us(tracer.spans());
    let mut by_name: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for (span, own_us) in tracer.spans().iter().zip(&own) {
        by_name.entry(span.name).or_default().push(*own_us);
    }
    let mut rows: Vec<(&str, f64, usize)> = by_name
        .into_iter()
        .map(|(name, samples)| (name, median(&samples), samples.len()))
        .collect();
    rows.sort_by(|a, b| b.1.total_cmp(&a.1));
    println!("  self time by span (median us, spans):");
    for (span, own_us, count) in rows {
        println!("    {span:<24} {own_us:>14.1}  {count}");
    }
    let path = env.out_dir.join("trace").join(format!("{name}.json"));
    tracer
        .write_json(&path)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!("  spans: {}", path.display());
    Ok(())
}

fn trace_program(
    name: &str,
    w: &ProgramWorkload,
    args: &Args,
    env: &Environment,
) -> Result<RunResult, String> {
    let data_dir = env.work_dir.join(name);
    let fixed_dir = env.work_dir.join(format!("{name}.fixed"));
    let program = w.dataset.name();
    let source = program_source(program);
    let prepared = prepare(w.dataset, w.rows, args.seed, &data_dir, env.threads)?;
    prepare(w.dataset, FIXED_ROWS, args.seed, &fixed_dir, env.threads)?;
    println!("  data: {}", describe_files(&prepared.files));
    let expected = prepared.reference.hash;
    let mut layer = LayerMetrics {
        sidecar_ms: ms(prepared.sidecar),
        ..LayerMetrics::default()
    };
    let main_file = data_dir.join(w.dataset.files()[0]);
    let started = Instant::now();
    MetaStore::new()
        .load(&main_file)
        .map_err(|e| e.to_string())?;
    layer.load_us = us(started.elapsed());

    // Rounds of an untraced iteration, a traced one, and a replay of the
    // traced one's scans and operators, recorded as children of its
    // `interp.run` span. Alternating makes drift hit both sides of the
    // tracing-overhead comparison.
    let mut tracer = Tracer::new(true);
    let mut quiet = Tracer::new(false);
    for _ in 0..WARMUP_ITERATIONS {
        run_once(
            source,
            w.config,
            &data_dir,
            w.budget,
            env.threads,
            &mut quiet,
        )?;
    }
    let (mut attempted, mut failed) = (0, 0);
    let (mut plain_ms, mut traced_ms, mut run_ms) = (Vec::new(), Vec::new(), Vec::new());
    let (mut deltas, mut replays) = (Vec::new(), Vec::new());
    let started = Instant::now();
    while replays.len() < MIN_ITERATIONS || started.elapsed().as_secs_f64() < args.seconds {
        if failed >= 2 * MIN_ITERATIONS {
            return Err(format!(
                "{name}: {failed} of {attempted} iterations failed or printed the wrong output"
            ));
        }
        attempted += 2;
        match run_once(
            source,
            w.config,
            &data_dir,
            w.budget,
            env.threads,
            &mut quiet,
        ) {
            Ok(o) if o.hash == expected => {
                plain_ms.push(ms(o.wall));
                run_ms.push(ms(o.run));
            }
            _ => failed += 1,
        }
        tracer.set_iteration(replays.len());
        let before = read_counters();
        let traced = match run_once(
            source,
            w.config,
            &data_dir,
            w.budget,
            env.threads,
            &mut tracer,
        ) {
            Ok(o) if o.hash == expected => o,
            _ => {
                failed += 1;
                continue;
            }
        };
        let after = read_counters();
        deltas.push(std::array::from_fn::<u64, 7, _>(|i| after[i] - before[i]));
        traced_ms.push(ms(traced.wall));
        let spill_dir = env
            .work_dir
            .join(format!("{name}.spill-probe-{}", replays.len()));
        replays.push(tracer.with_parent(traced.run_span, |t| {
            layers::replay(w, traced.report.as_ref(), &data_dir, &spill_dir, t)
        })?);
    }
    if plain_ms.is_empty() {
        return Err(format!(
            "{name}: no untraced iteration produced the expected output"
        ));
    }
    layer.traced_wall_ms = median(&traced_ms);
    layer.overhead_pct = (layer.traced_wall_ms / median(&plain_ms) - 1.0) * 100.0;
    layer.counters = std::array::from_fn(|i| {
        median(&deltas.iter().map(|d| d[i] as f64).collect::<Vec<_>>()) as u64
    });
    layer.replay = median_replay(&replays);
    layer.engine_ratio = median(&run_ms) / layer.replay.kernels_ms();

    // The front end of this program, and the part of a run that does not
    // grow with the data: the same program over a 16-row copy.
    if w.config.is_lafp() {
        let options = RewriteOptions {
            data_dir: Some(data_dir.clone()),
            ..RewriteOptions::default()
        };
        let mut reps = Vec::new();
        for _ in 0..ANALYZE_PROBE_REPS {
            reps.push(layers::front_end(&[source], &options, &mut quiet)?);
        }
        tracer.set_iteration(0);
        layers::front_end(&[source], &options, &mut tracer)?;
        layer.front = median_front_end(&reps);
    } else {
        let mut parse_us = Vec::new();
        for _ in 0..ANALYZE_PROBE_REPS {
            let started = Instant::now();
            std::hint::black_box(lafp_ir::parser::parse(source).map_err(|e| e.to_string())?);
            parse_us.push(us(started.elapsed()));
        }
        layer.front.parse_us = median(&parse_us);
    }
    let mut fixed_us = Vec::new();
    for _ in 0..ANALYZE_PROBE_REPS {
        let o = run_once(
            source,
            w.config,
            &fixed_dir,
            w.budget,
            env.threads,
            &mut quiet,
        )?;
        fixed_us.push(us(o.run));
    }
    layer.fixed_us = median(&fixed_us);

    finish_trace(name, &tracer, env)?;
    Ok(RunResult {
        attempted,
        failed,
        reference_ok: reference_matches_golden(program, w.rows, args.seed, expected),
        metrics: layer.metrics(),
    })
}

fn trace_jit(args: &Args, env: &Environment) -> Result<RunResult, String> {
    let sources: Vec<&str> = PROGRAMS.iter().map(|(_, s)| *s).collect();
    let options = RewriteOptions::default();
    let expected = golden_counts()?;
    let mut tracer = Tracer::new(true);
    let mut quiet = Tracer::new(false);
    let (mut plain_ms, mut traced_ms) = (Vec::new(), Vec::new());
    let mut reps = Vec::new();
    let (mut attempted, mut failed) = (0, 0);
    let started = Instant::now();
    while attempted < MIN_ITERATIONS || started.elapsed().as_secs_f64() < args.seconds / 2.0 {
        attempted += 1;
        let (inside, ok) = jit_repetition(&options, &expected);
        failed += usize::from(!ok);
        plain_ms.push(ms(inside));
        // Spans of the first repetitions only: the file is for reading.
        let t = if reps.len() < JIT_TRACED_REPS {
            &mut tracer
        } else {
            &mut quiet
        };
        t.set_iteration(reps.len());
        let rep = layers::front_end(&sources, &options, t)?;
        if reps.len() < JIT_TRACED_REPS {
            traced_ms.push((rep.parse_us + rep.dataflow_us + rep.rewrite_self_us) / 1e3);
        }
        reps.push(rep);
    }
    let mut layer = LayerMetrics {
        front: median_front_end(&reps),
        traced_wall_ms: median(&traced_ms),
        ..LayerMetrics::default()
    };
    layer.overhead_pct = (layer.traced_wall_ms / median(&plain_ms) - 1.0) * 100.0;
    finish_trace("jit.ten", &tracer, env)?;
    Ok(RunResult {
        attempted,
        failed,
        reference_ok: true,
        metrics: layer.metrics(),
    })
}

// ---------------------------------------------------------------------------
// Entry points
// ---------------------------------------------------------------------------

fn print_provenance(args: &Args, env: &Environment) {
    println!(
        "lafp-benchmark: seed {} seconds {} trace {} | nproc {} threads {} | {} | commit {} | generator v{}",
        args.seed,
        args.seconds,
        u8::from(args.trace),
        env.nproc,
        env.threads,
        env.rustc,
        env.commit,
        GENERATOR_VERSION
    );
    if env.scrubbed.is_empty() {
        println!(
            "environment: no LAFP_* variable was set; LAFP_THREADS={} set for the engine",
            env.threads
        );
    } else {
        println!(
            "environment: removed {}; LAFP_THREADS={} set for the engine",
            env.scrubbed.join(", "),
            env.threads
        );
    }
}

/// Run one workload or all of them. `Ok(false)` means some output was wrong.
pub fn run(args: &Args) -> Result<bool, String> {
    let env = crate::env::prepare()?;
    print_provenance(args, &env);
    let selected: Vec<Workload> = WORKLOADS
        .iter()
        .copied()
        .filter(|w| args.workload.as_deref().is_none_or(|name| name == w.name))
        .collect();
    let mut all_correct = true;
    for w in selected {
        println!("workload {}", w.name);
        let result = match (&w.kind, args.trace) {
            (Kind::Program(p), false) => run_program(w.name, p, args, &env)?,
            (Kind::Program(p), true) => trace_program(w.name, p, args, &env)?,
            (Kind::Jit, false) => run_jit(args, &env)?,
            (Kind::Jit, true) => trace_jit(args, &env)?,
        };
        if args.trace {
            for m in &result.metrics {
                println!("  {:<28} {:>16.4} {}", m.name, m.value, m.unit);
            }
        }
        all_correct &= result.correct();
        println!("{}", result.to_json());
    }
    Ok(all_correct)
}

/// Print `expected/golden.txt` for the default seed: the reference hash of
/// every (program, rows) pair a workload or `jit.ten`'s set-up uses, and
/// what the rewriter does to each of the ten programs.
pub fn print_expected() -> Result<bool, String> {
    let env = crate::env::prepare()?;
    println!("# Golden values for seed {DEFAULT_SEED}; regenerate with");
    println!(
        "#   cargo run --release --offline --manifest-path benchmark/Cargo.toml -- expected \\"
    );
    println!("#     > benchmark/expected/golden.txt");
    println!(
        "# hash <generator version> <program> <rows> <result_hash of the un-rewritten Pandas run>"
    );
    let mut pairs: Vec<(Dataset, usize)> =
        Dataset::ALL.iter().map(|d| (*d, JIT_CHECK_ROWS)).collect();
    for w in WORKLOADS {
        if let Kind::Program(p) = w.kind {
            if !pairs.contains(&(p.dataset, p.rows)) {
                pairs.push((p.dataset, p.rows));
            }
        }
    }
    for (dataset, rows) in pairs {
        let dir = env.work_dir.join(format!("{}-{rows}", dataset.name()));
        let prepared = prepare(dataset, rows, DEFAULT_SEED, &dir, env.threads)?;
        println!(
            "hash {GENERATOR_VERSION} {} {rows} {:016x}",
            dataset.name(),
            prepared.reference.hash
        );
    }
    println!("# counts <program> <usecols columns> <forced computes> <categories> (default RewriteOptions)");
    for (name, source) in PROGRAMS {
        let report = analyze(source, &RewriteOptions::default())
            .map_err(|e| format!("{name}: {e}"))?
            .report;
        let [usecols, forced, categories] = rewrite_counts(&report);
        println!("counts {name} {usecols} {forced} {categories}");
    }
    Ok(true)
}
