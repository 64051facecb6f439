//! Per-layer probes for the traced run.
//!
//! Layers are the crate names. Nothing inside the engine is instrumented
//! yet, so each layer is measured from outside: its public functions are
//! called directly with the inputs the workload's run used, and the calls
//! are recorded as spans. Operators are replayed one by one on the frame
//! the scan produced, through the eager Pandas engine's public methods —
//! bare kernels, against which `backends.engine_ratio` shows what the
//! engine under test adds or saves.

use crate::datagen::Dataset;
use crate::stats::{ms, us};
use crate::trace::Tracer;
use crate::workloads::{Config, ProgramWorkload};
use lafp_analysis::{dfvars, laa, lda, lva};
use lafp_backends::{BackendKind, EagerEngine, MemoryTracker};
use lafp_columnar::column::{ArithOp, DtField};
use lafp_columnar::csv::{read_csv, CsvChunkReader, CsvOptions};
use lafp_columnar::spill::{spill_frame, SpillDir};
use lafp_columnar::{AggKind, DType, DataFrame, GroupBySpec, JoinKind, SortOptions};
use lafp_expr::Expr;
use lafp_meta::MetaStore;
use lafp_rewrite::{analyze, RewriteOptions, RewriteReport};
use std::path::Path;

/// Rows per partition of the Dask engine's scans (its default).
const DASK_CHUNK_ROWS: usize = 8192;

/// The externally readable engine counters: the per-layer metric each
/// becomes, its unit, and the factor from the raw count to that unit.
pub const COUNTER_METRICS: [(&str, &str, f64); 7] = [
    ("meta.spill_events", "count", 1.0),
    ("meta.spilled_mb", "MB", 1e-6),
    ("meta.restored_mb", "MB", 1e-6),
    ("meta.fused_chains", "count", 1.0),
    ("meta.fused_morsels", "count", 1.0),
    ("meta.intermediate_frames", "count", 1.0),
    ("meta.decode_fallbacks", "count", 1.0),
];

/// One snapshot of the process-wide `lafp_meta::{spill,fusion,encoding}`
/// counters, in [`COUNTER_METRICS`] order.
pub fn read_counters() -> [u64; 7] {
    let spill = lafp_meta::spill::global().snapshot();
    let fusion = lafp_meta::fusion::global().snapshot();
    [
        spill.events,
        spill.spilled_bytes,
        spill.restored_bytes,
        fusion.chains,
        fusion.fused_morsels,
        fusion.intermediate_frames,
        lafp_meta::encoding::snapshot().decode_fallbacks,
    ]
}

/// What the rewriter did, as the three counts the golden file pins:
/// columns injected as `usecols`, forced computes, category dtypes.
pub fn rewrite_counts(report: &RewriteReport) -> [usize; 3] {
    [
        report.usecols.iter().map(|(_, cols)| cols.len()).sum(),
        report.forced_computes.len(),
        report.categories.len(),
    ]
}

/// One repetition of the front end over `sources`, layer by layer.
#[derive(Debug, Clone, Copy, Default)]
pub struct FrontEnd {
    /// `lafp_ir::parser::parse`.
    pub parse_us: f64,
    /// CFG build, `dfvars::infer`, and the `lva`/`laa`/`lda` analyses.
    pub dataflow_us: f64,
    /// `lafp_rewrite::analyze` minus the two above: the rewrite passes
    /// and code generation.
    pub rewrite_self_us: f64,
    /// [`rewrite_counts`], summed over the sources.
    pub counts: [usize; 3],
}

/// Run the front end once over `sources`: `analyze` as the run calls it,
/// then its two inner layers called directly on the same text.
pub fn front_end(
    sources: &[&str],
    options: &RewriteOptions,
    tracer: &mut Tracer,
) -> Result<FrontEnd, String> {
    let mut out = FrontEnd::default();
    for source in sources {
        let (analyzed, whole, _) = tracer.time("rewrite.analyze", |_| analyze(source, options));
        let report = analyzed.map_err(|e| e.to_string())?.report;
        for (total, count) in out.counts.iter_mut().zip(rewrite_counts(&report)) {
            *total += count;
        }

        let (ast, parse, _) = tracer.time("ir.parse", |_| lafp_ir::parser::parse(source));
        let ast = ast.map_err(|e| e.to_string())?;
        let (_, dataflow, _) = tracer.time("analysis.dataflow", |_| {
            let cfg = lafp_ir::lower::lower(&ast);
            let info = dfvars::infer(&ast);
            std::hint::black_box((
                lva::analyze(&ast, &cfg),
                laa::analyze(&ast, &cfg, &info),
                lda::analyze(&ast, &cfg),
            ));
        });
        out.parse_us += us(parse);
        out.dataflow_us += us(dataflow);
        out.rewrite_self_us += (us(whole) - us(parse) - us(dataflow)).max(0.0);
    }
    Ok(out)
}

/// The operator kinds a replay times, one per-layer metric each.
#[derive(Debug, Clone, Copy)]
pub enum Op {
    /// Row filters.
    Filter,
    /// Column arithmetic (`with_column`).
    Arith,
    /// Group-bys and scalar reductions.
    GroupBy,
    /// Joins.
    Join,
    /// Sorts.
    Sort,
    /// Projection + `head`.
    Head,
}

impl Op {
    /// Every kind, in the order of [`Replay::ops_ms`].
    pub const ALL: [Op; 6] = [
        Op::Filter,
        Op::Arith,
        Op::GroupBy,
        Op::Join,
        Op::Sort,
        Op::Head,
    ];

    /// The span a replayed operator of this kind records.
    fn span(self) -> &'static str {
        match self {
            Op::Filter => "columnar.filter",
            Op::Arith => "columnar.arith",
            Op::GroupBy => "columnar.groupby",
            Op::Join => "columnar.join",
            Op::Sort => "columnar.sort",
            Op::Head => "columnar.head",
        }
    }

    /// The per-layer metric the kind's time is reported as.
    pub fn metric(self) -> &'static str {
        match self {
            Op::Filter => "columnar.filter_ms",
            Op::Arith => "columnar.arith_ms",
            Op::GroupBy => "columnar.groupby_ms",
            Op::Join => "columnar.join_ms",
            Op::Sort => "columnar.sort_ms",
            Op::Head => "columnar.head_ms",
        }
    }
}

/// What the replay of one program's scans and operators measured.
#[derive(Debug, Clone, Copy, Default)]
pub struct Replay {
    /// All of the program's `read_csv` calls.
    pub scan_ms: f64,
    /// File bytes those calls read.
    pub scan_bytes: u64,
    /// Time of the replayed operators, by kind ([`Op::ALL`] order).
    pub ops_ms: [f64; 6],
    /// `spill::spill_frame` throughput on the pre-sort frame (0 where
    /// the workload has no budget to spill under).
    pub spill_write_mb_s: f64,
    /// `SpillFile::read_all` throughput on the same files.
    pub spill_read_mb_s: f64,
}

impl Replay {
    /// Scan plus every replayed operator.
    pub fn kernels_ms(&self) -> f64 {
        self.scan_ms + self.ops_ms.iter().sum::<f64>()
    }
}

/// The `read_csv` options the run used for `file`: the program's own
/// `parse_dates`, and for LaFP configurations the rewriter's `usecols`
/// and category dtypes plus the metastore's dtypes.
fn scan_options(
    frame_var: &str,
    parse_dates: &[&str],
    path: &Path,
    report: Option<&RewriteReport>,
) -> CsvOptions {
    let mut options =
        CsvOptions::new().with_parse_dates(parse_dates.iter().map(|c| c.to_string()).collect());
    let Some(report) = report else {
        return options;
    };
    if let Some((_, cols)) = report.usecols.iter().find(|(var, _)| var == frame_var) {
        options.usecols = Some(cols.clone());
    }
    for (var, col) in &report.categories {
        if var == frame_var {
            options.dtypes.insert(col.clone(), DType::Categorical);
        }
    }
    if let Ok(Some(meta)) = MetaStore::new().load(path) {
        for c in &meta.columns {
            if !parse_dates.contains(&c.name.as_str()) {
                options.dtypes.entry(c.name.clone()).or_insert(c.dtype);
            }
        }
    }
    options
}

/// Read `path` with the reader the configuration uses: the eager engines
/// read the file whole, the Dask engine in partitions.
fn scan(config: Config, path: &Path, options: &CsvOptions) -> Result<Vec<DataFrame>, String> {
    if config != Config::LDask {
        return Ok(vec![read_csv(path, options).map_err(|e| e.to_string())?]);
    }
    let mut reader =
        CsvChunkReader::open(path, options, DASK_CHUNK_ROWS).map_err(|e| e.to_string())?;
    let mut chunks = vec![reader.empty_frame().map_err(|e| e.to_string())?];
    while let Some(chunk) = reader.next_chunk().map_err(|e| e.to_string())? {
        chunks.push(chunk);
    }
    Ok(chunks)
}

/// Concatenate partitions pairwise, so that no row is copied more than
/// log2(partitions) times. Not part of any span: the operators are
/// replayed on one frame only because the eager engine takes one.
fn concat_all(mut frames: Vec<DataFrame>) -> Result<DataFrame, String> {
    while frames.len() > 1 {
        let mut next = Vec::with_capacity(frames.len().div_ceil(2));
        for pair in frames.chunks(2) {
            next.push(match pair {
                [a, b] => a.concat(b).map_err(|e| e.to_string())?,
                _ => pair[0].clone(),
            });
        }
        frames = next;
    }
    frames
        .pop()
        .ok_or_else(|| "a scan produced no frame".to_string())
}

struct Replayer<'a> {
    engine: EagerEngine,
    tracer: &'a mut Tracer,
    out: Replay,
}

impl Replayer<'_> {
    /// Time one replayed operator, record its rows in and out, and add
    /// its time to its kind's total.
    fn op(
        &mut self,
        kind: Op,
        rows_in: usize,
        f: impl FnOnce(&EagerEngine) -> lafp_columnar::Result<DataFrame>,
    ) -> Result<DataFrame, String> {
        let engine = &self.engine;
        let (frame, elapsed, id) = self.tracer.time(kind.span(), |_| f(engine));
        let frame = frame.map_err(|e| format!("{}: {e}", kind.span()))?;
        self.tracer.annotate(id, "rows_in", rows_in as u64);
        self.tracer
            .annotate(id, "rows_out", frame.num_rows() as u64);
        self.out.ops_ms[kind as usize] += ms(elapsed);
        Ok(frame)
    }

    fn group_by(
        &mut self,
        df: &DataFrame,
        key: &str,
        value: &str,
        agg: AggKind,
    ) -> Result<(), String> {
        let spec = GroupBySpec {
            keys: vec![key.to_string()],
            value: value.to_string(),
            agg,
        };
        self.op(Op::GroupBy, df.num_rows(), |e| e.group_by(df, &spec))?;
        Ok(())
    }

    fn reduce_mean(&mut self, df: &DataFrame, column: &str) -> Result<(), String> {
        let engine = &self.engine;
        let (value, elapsed, id) = self.tracer.time("columnar.reduce", |_| {
            engine.reduce(df, column, AggKind::Mean)
        });
        value.map_err(|e| e.to_string())?;
        self.tracer.annotate(id, "rows_in", df.num_rows() as u64);
        self.out.ops_ms[Op::GroupBy as usize] += ms(elapsed);
        Ok(())
    }
}

/// Replay the scans and operators of `workload`'s program once: every
/// `read_csv` with the options the run used, then each operator on the
/// scanned frame. Spans are recorded under the tracer's current parent.
pub fn replay(
    workload: &ProgramWorkload,
    report: Option<&RewriteReport>,
    data_dir: &Path,
    spill_dir: &Path,
    tracer: &mut Tracer,
) -> Result<Replay, String> {
    let mut r = Replayer {
        engine: EagerEngine::new(BackendKind::Pandas, MemoryTracker::unlimited(), 1),
        tracer,
        out: Replay::default(),
    };
    let read = |r: &mut Replayer<'_>, var: &str, file: &str, dates: &[&str]| {
        let path = data_dir.join(file);
        let options = scan_options(var, dates, &path, report);
        let config = workload.config;
        let (chunks, elapsed, id) = r
            .tracer
            .time("columnar.scan", |_| scan(config, &path, &options));
        let frame = concat_all(chunks?)?;
        let bytes = std::fs::metadata(&path).map_err(|e| e.to_string())?.len();
        r.tracer.annotate(id, "bytes", bytes);
        r.tracer.annotate(id, "rows_out", frame.num_rows() as u64);
        r.tracer.annotate(id, "columns", frame.num_columns() as u64);
        r.out.scan_ms += ms(elapsed);
        r.out.scan_bytes += bytes;
        Ok::<DataFrame, String>(frame)
    };
    match workload.dataset {
        Dataset::Nyt => {
            let df = read(&mut r, "df", "nyt.csv", &["tpep_pickup_datetime"])?;
            let keep = Expr::col("fare_amount").gt(Expr::lit_int(0));
            let df = r.op(Op::Filter, df.num_rows(), |e| e.filter(&df, &keep))?;
            let day = Expr::col("tpep_pickup_datetime").dt(DtField::DayOfWeek);
            let df = r.op(Op::Arith, df.num_rows(), |e| {
                e.with_column(&df, "day", &day)
            })?;
            r.group_by(&df, "day", "passenger_count", AggKind::Sum)?;
        }
        Dataset::Zip => {
            let df = read(&mut r, "df", "zip.csv", &[])?;
            let density = Expr::col("population").arith(ArithOp::Div, Expr::col("land_area"));
            let df = r.op(Op::Arith, df.num_rows(), |e| {
                e.with_column(&df, "density", &density)
            })?;
            let keep = Expr::col("population").gt(Expr::lit_int(5000));
            let df = r.op(Op::Filter, df.num_rows(), |e| e.filter(&df, &keep))?;
            if workload.budget != usize::MAX {
                spill_probe(&df, spill_dir, &mut r)?;
            }
            let order = SortOptions::single("median_income", false);
            let top = r.op(Op::Sort, df.num_rows(), |e| e.sort_values(&df, &order))?;
            let cols = ["zip", "state", "median_income", "density"].map(String::from);
            r.op(Op::Head, top.num_rows(), |e| {
                e.head(&e.select(&top, &cols)?, 10)
            })?;
        }
        Dataset::Mov => {
            let ratings = read(&mut r, "ratings", "mov.csv", &[])?;
            let movies = read(&mut r, "movies", "mov_titles.csv", &[])?;
            let on = ["movie_id".to_string()];
            let m = r.op(Op::Join, ratings.num_rows(), |e| {
                e.merge(&ratings, &movies, &on, JoinKind::Inner)
            })?;
            r.group_by(&m, "genre", "rating", AggKind::Mean)?;
            r.group_by(&m, "genre", "rating", AggKind::Count)?;
            r.reduce_mean(&m, "rating")?;
        }
        Dataset::Stu => {
            let df = read(&mut r, "df", "stu.csv", &[])?;
            let keep = Expr::col("attendance").gt(Expr::lit_float(70.0));
            let df = r.op(Op::Filter, df.num_rows(), |e| e.filter(&df, &keep))?;
            let stem = Expr::col("math")
                .arith(ArithOp::Add, Expr::col("science"))
                .arith(ArithOp::Div, Expr::lit_float(2.0));
            let df = r.op(Op::Arith, df.num_rows(), |e| {
                e.with_column(&df, "stem", &stem)
            })?;
            for value in ["math", "reading", "science"] {
                r.group_by(&df, "school", value, AggKind::Mean)?;
            }
            r.group_by(&df, "grade_level", "stem", AggKind::Mean)?;
            r.group_by(&df, "school", "stem", AggKind::Max)?;
            r.reduce_mean(&df, "stem")?;
        }
    }
    Ok(r.out)
}

/// Write the pre-sort frame to spill files in engine-sized chunks and read
/// it back: the `columnar::spill` work the external sort does, alone.
fn spill_probe(frame: &DataFrame, spill_dir: &Path, r: &mut Replayer<'_>) -> Result<(), String> {
    let dir = SpillDir::at(spill_dir.to_path_buf());
    let chunks: Vec<DataFrame> = (0..frame.num_rows())
        .step_by(DASK_CHUNK_ROWS)
        .map(|at| frame.slice(at, DASK_CHUNK_ROWS.min(frame.num_rows() - at)))
        .collect();
    let (files, wrote, id) = r.tracer.time("columnar.spill_write", |_| {
        chunks
            .iter()
            .map(|c| spill_frame(&dir, c))
            .collect::<Result<Vec<_>, _>>()
    });
    let files = files.map_err(|e| e.to_string())?;
    let bytes: usize = files.iter().map(|f| f.payload_bytes()).sum();
    r.tracer.annotate(id, "bytes", bytes as u64);
    let (frames, read_back, id) = r.tracer.time("columnar.spill_read", |_| {
        files
            .iter()
            .map(|f| f.read_all())
            .collect::<Result<Vec<_>, _>>()
    });
    let rows: usize = frames
        .map_err(|e| e.to_string())?
        .iter()
        .flatten()
        .map(DataFrame::num_rows)
        .sum();
    if rows != frame.num_rows() {
        return Err(format!(
            "spill probe read back {rows} of {} rows",
            frame.num_rows()
        ));
    }
    r.tracer.annotate(id, "bytes", bytes as u64);
    r.out.spill_write_mb_s = bytes as f64 / 1e6 / wrote.as_secs_f64();
    r.out.spill_read_mb_s = bytes as f64 / 1e6 / read_back.as_secs_f64();
    Ok(())
}
