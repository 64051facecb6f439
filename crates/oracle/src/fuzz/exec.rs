//! Trace execution: schema-driven op resolution, the oracle run, and
//! the engine runs across the execution-config matrix.
//!
//! Resolution happens once, against the *oracle's* evolving schema:
//! each [`RawOp`]'s operand bytes select columns / comparisons /
//! literals modulo whatever the live schema offers, so every byte
//! string resolves to a fully-defined op sequence (ops with no eligible
//! operands become [`ROp::Skip`]). The engine then replays the resolved
//! ops — eagerly (sequential or pooled) or as Dask graph runs — and
//! every checkpoint is compared against the oracle state with the
//! established 1e-12 relative float tolerance.

use super::gen::{build_plain, categories_for_oracle, encode_for_engine, temp_csv_path, write_csv};
use super::trace::{RawOp, Trace, GROWTH_CAP};
use crate::equiv::check_frame_close;
use crate::reference as oracle;
use lafp_backends::{DaskEngine, DaskOp, MemoryTracker};
use lafp_columnar::column::{ArithOp, CmpOp};
use lafp_columnar::csv::{read_csv_par, CsvOptions};
use lafp_columnar::encoding::dict_encode;
use lafp_columnar::groupby::group_by_par;
use lafp_columnar::join::merge_par;
use lafp_columnar::sort::{nlargest, nsmallest, sort_values_par, top_k};
use lafp_columnar::spill::{spill_frame, SpillDir};
use lafp_columnar::{
    AggKind, Column, DType, DataFrame, GroupBySpec, JoinKind, Result as ColResult, Scalar, Series,
    SortOptions, WorkerPool,
};
use lafp_expr::Expr;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Relative Float64 tolerance for all fuzz comparisons — the
/// re-association allowance established by the parallel-kernel suites.
pub const TOL: f64 = 1e-12;

// ---------------------------------------------------------------------------
// Config matrix
// ---------------------------------------------------------------------------

/// How the engine side executes a trace.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// Sequential eager kernels.
    Eager,
    /// Pooled kernels (`group_by_par` / `merge_par` / `sort_values_par`
    /// / `read_csv_par`) at the given thread count.
    Par(usize),
    /// The Dask engine: expressible op runs become task graphs
    /// (streamed, fused, spillable); the rest execute eagerly between
    /// graph runs.
    Dask {
        /// Worker threads.
        threads: usize,
        /// Whether operator-chain fusion is enabled.
        fuse: bool,
    },
}

/// One cell of the execution-config matrix.
#[derive(Clone, Debug)]
pub struct FuzzConfig {
    /// Display name (stable: CI and replay address configs by it).
    pub name: &'static str,
    /// Execution mode.
    pub mode: Mode,
    /// Dask memory budget in bytes (`None` = unlimited). A squeezed
    /// budget forces spills and may legitimately end in
    /// `OutOfMemory` — structured engine errors are accepted.
    pub budget: Option<usize>,
    /// Inject recoverable spill faults (5% write + 5% read) during the
    /// engine run.
    pub faults: bool,
    /// Seed for the fault plan's deterministic coin.
    pub fault_seed: u64,
    /// Run the engine with `LAFP_NO_ENCODE=1` (disables ingest
    /// auto-encoding; explicit trace encodings still apply).
    pub no_encode: bool,
}

impl FuzzConfig {
    fn plain(name: &'static str, mode: Mode) -> FuzzConfig {
        FuzzConfig {
            name,
            mode,
            budget: None,
            faults: false,
            fault_seed: 0,
            no_encode: false,
        }
    }

    /// Whether a structured engine error ends the case as *accepted*
    /// (fault- and budget-squeezed configs) rather than as a
    /// divergence.
    pub fn tolerates_errors(&self) -> bool {
        self.faults || self.budget.is_some()
    }
}

/// The standard config matrix. `run_batch` rotates cases across it;
/// `replay` runs a trace against every cell.
pub fn default_configs() -> Vec<FuzzConfig> {
    vec![
        FuzzConfig::plain("eager", Mode::Eager),
        FuzzConfig::plain("par2", Mode::Par(2)),
        FuzzConfig::plain("par8", Mode::Par(8)),
        FuzzConfig::plain(
            "dask",
            Mode::Dask {
                threads: 2,
                fuse: true,
            },
        ),
        FuzzConfig::plain(
            "dask-nofuse",
            Mode::Dask {
                threads: 2,
                fuse: false,
            },
        ),
        FuzzConfig {
            name: "dask-budget",
            mode: Mode::Dask {
                threads: 2,
                fuse: true,
            },
            budget: Some(1 << 20),
            faults: false,
            fault_seed: 0,
            no_encode: false,
        },
        FuzzConfig {
            name: "dask-faults",
            mode: Mode::Dask {
                threads: 4,
                fuse: true,
            },
            budget: None,
            faults: true,
            fault_seed: 0xFA17,
            no_encode: false,
        },
        FuzzConfig {
            name: "eager-noencode",
            mode: Mode::Eager,
            budget: None,
            faults: false,
            fault_seed: 0,
            no_encode: true,
        },
    ]
}

/// Look a config up by its stable name.
pub fn config_by_name(name: &str) -> Option<FuzzConfig> {
    default_configs().into_iter().find(|c| c.name == name)
}

/// Deliberate engine defects for mutation-testing the harness itself
/// (prove the fuzzer catches and shrinks a planted bug, then revert to
/// [`Mutation::None`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mutation {
    /// The real engine, unmodified.
    None,
    /// Sort silently drops its last output row (eager/par modes).
    SortDropsLastRow,
}

// ---------------------------------------------------------------------------
// Resolved ops
// ---------------------------------------------------------------------------

const CMPS: [CmpOp; 6] = [
    CmpOp::Eq,
    CmpOp::Ne,
    CmpOp::Lt,
    CmpOp::Le,
    CmpOp::Gt,
    CmpOp::Ge,
];
const ARITHS: [ArithOp; 5] = [
    ArithOp::Add,
    ArithOp::Sub,
    ArithOp::Mul,
    ArithOp::Div,
    ArithOp::Mod,
];
const AGGS: [AggKind; 6] = [
    AggKind::Sum,
    AggKind::Mean,
    AggKind::Count,
    AggKind::Min,
    AggKind::Max,
    AggKind::NUnique,
];

/// A fully-resolved op: concrete column names, operators, literals and
/// row numbers. Both sides execute exactly this.
#[derive(Clone, Debug)]
pub enum ROp {
    /// Keep rows where `col <cmp> lit`.
    Filter {
        /// Filtered column.
        col: String,
        /// Comparison.
        cmp: CmpOp,
        /// Broadcast literal.
        lit: Scalar,
    },
    /// Append `out = lhs <op> rhs`.
    WithArith {
        /// Left column.
        lhs: String,
        /// Right column.
        rhs: String,
        /// Operator.
        op: ArithOp,
        /// Output column name.
        out: String,
    },
    /// Append `out = lhs <cmp> rhs` as a Bool column.
    WithCompare {
        /// Left column.
        lhs: String,
        /// Right column.
        rhs: String,
        /// Comparison.
        cmp: CmpOp,
        /// Output column name.
        out: String,
    },
    /// Frame-wide fillna (per column; columns that reject the scalar
    /// pass through unchanged — the frozen frame-level contract).
    FillNa {
        /// Fill value.
        fill: Scalar,
    },
    /// Group-by aggregation.
    GroupBy {
        /// The grouping spec.
        spec: GroupBySpec,
    },
    /// Join against the auxiliary frame, result capped at
    /// [`GROWTH_CAP`] rows.
    Join {
        /// Join keys (common columns).
        on: Vec<String>,
        /// Join kind.
        how: JoinKind,
    },
    /// Stable sort by one key.
    Sort {
        /// Sort key.
        by: String,
        /// Ascending?
        ascending: bool,
    },
    /// `nlargest` / `nsmallest`.
    TopN {
        /// Ranked column.
        col: String,
        /// Row count.
        n: usize,
        /// `nlargest` when true.
        largest: bool,
    },
    /// `sort_values(by).head(n)` as one top-k: 1–3 keys with mixed
    /// directions, `n` up to past the row count.
    TopK {
        /// Sort keys, each with its ascending flag.
        by: Vec<(String, bool)>,
        /// Row count.
        n: usize,
    },
    /// n-way self-concat: append 1–5 `(offset, len)` row ranges of the
    /// frame itself (up to 64 rows each, empty ranges included) in one
    /// assembly.
    Concat {
        /// The appended ranges, in order.
        slices: Vec<(usize, usize)>,
    },
    /// Contiguous row range (resolved to concrete bounds).
    Slice {
        /// Start row.
        offset: usize,
        /// Row count.
        len: usize,
    },
    /// Engine side: spill the frame to disk and read it back. Oracle
    /// side: identity.
    SpillRoundTrip,
    /// Engine side: dictionary- or run-length-encode a column in
    /// place. Oracle side: identity.
    Encode {
        /// Target column.
        col: String,
    },
    /// Engine side: decode every encoded column. Oracle side: identity.
    Decode,
    /// First `n` rows.
    Head {
        /// Row count.
        n: usize,
    },
    /// No eligible operands — identity on both sides.
    Skip,
}

fn schema_of(frame: &DataFrame) -> Vec<(String, DType)> {
    frame
        .series()
        .iter()
        .map(|s| (s.name().to_string(), s.column().dtype()))
        .collect()
}

fn pick(
    schema: &[(String, DType)],
    byte: u8,
    pred: impl Fn(DType) -> bool,
) -> Option<&(String, DType)> {
    let eligible: Vec<&(String, DType)> =
        schema.iter().filter(|(_, d)| pred(*d)).collect();
    (!eligible.is_empty()).then(|| eligible[byte as usize % eligible.len()])
}

fn numeric(d: DType) -> bool {
    matches!(d, DType::Int64 | DType::Float64)
}

fn filter_lit(dtype: DType, c: u8) -> Scalar {
    match dtype {
        DType::Int64 => Scalar::Int((c % 21) as i64 - 10),
        DType::Float64 => Scalar::Float(((c % 41) as f64 - 20.0) * 0.25),
        _ => Scalar::Str(format!("s{}", c % 32)),
    }
}

/// Resolve one raw op against the current (oracle) schema. `aux` is the
/// auxiliary frame's schema; `with_counter` numbers fresh `d{n}`
/// output columns across the trace.
fn resolve(
    raw: RawOp,
    cur: &DataFrame,
    aux_schema: &[(String, DType)],
    with_counter: &mut usize,
) -> ROp {
    let schema = schema_of(cur);
    match raw.code {
        0 => match pick(&schema, raw.a, |d| {
            matches!(d, DType::Int64 | DType::Float64) || d.is_string_like()
        }) {
            Some((name, dtype)) => ROp::Filter {
                col: name.clone(),
                cmp: CMPS[raw.b as usize % CMPS.len()],
                lit: filter_lit(*dtype, raw.c),
            },
            None => ROp::Skip,
        },
        1 => {
            let (Some((lhs, _)), Some((rhs, _))) = (
                pick(&schema, raw.a, numeric),
                pick(&schema, raw.b, numeric),
            ) else {
                return ROp::Skip;
            };
            let out = format!("d{with_counter}");
            *with_counter += 1;
            ROp::WithArith {
                lhs: lhs.clone(),
                rhs: rhs.clone(),
                op: ARITHS[raw.c as usize % ARITHS.len()],
                out,
            }
        }
        2 => {
            // Compare within one dtype family: numeric x numeric or
            // string x string (Utf8 or category, in any mix), chosen by
            // the low operand bit when both are available.
            let prefer_num = raw.c & 1 == 0;
            let pair = [prefer_num, !prefer_num].into_iter().find_map(|want_num| {
                let pred: fn(DType) -> bool =
                    if want_num { numeric } else { DType::is_string_like };
                Some((
                    pick(&schema, raw.a, pred)?.0.clone(),
                    pick(&schema, raw.b, pred)?.0.clone(),
                ))
            });
            let Some((lhs, rhs)) = pair else {
                return ROp::Skip;
            };
            let out = format!("d{with_counter}");
            *with_counter += 1;
            ROp::WithCompare {
                lhs,
                rhs,
                cmp: CMPS[(raw.c >> 1) as usize % CMPS.len()],
                out,
            }
        }
        3 => ROp::FillNa {
            fill: if raw.b.is_multiple_of(2) {
                Scalar::Int((raw.a % 19) as i64 - 9)
            } else {
                Scalar::Float(((raw.a % 19) as f64 - 9.0) * 0.5)
            },
        },
        4 => {
            let Some((key, _)) = pick(&schema, raw.a, |_| true) else {
                return ROp::Skip;
            };
            let Some((value, _)) =
                pick(&schema, raw.b, numeric).filter(|(v, _)| v != key).or_else(|| {
                    schema.iter().find(|(v, d)| numeric(*d) && v != key)
                })
            else {
                return ROp::Skip;
            };
            ROp::GroupBy {
                spec: GroupBySpec {
                    keys: vec![key.clone()],
                    value: value.clone(),
                    agg: AGGS[raw.c as usize % AGGS.len()],
                },
            }
        }
        5 => {
            let common: Vec<String> = schema
                .iter()
                .filter(|(n, d)| aux_schema.iter().any(|(an, ad)| an == n && ad == d))
                .map(|(n, _)| n.clone())
                .collect();
            if common.is_empty() {
                return ROp::Skip;
            }
            let n_keys = (1 + raw.b as usize % 2).min(common.len());
            let on = &common[..n_keys];
            // Skip joins whose _x/_y suffixing would collide with an
            // existing column (e.g. a `c1_x` left over from an earlier
            // join meeting a fresh `c1` overlap): both the oracle and
            // the engine reject the duplicate, which non-fault configs
            // would read as a divergence.
            let overlap: Vec<&String> = schema
                .iter()
                .map(|(n, _)| n)
                .filter(|n| !on.contains(n) && aux_schema.iter().any(|(an, _)| an == *n))
                .collect();
            let mut names: Vec<String> = Vec::new();
            for (n, _) in &schema {
                names.push(if overlap.contains(&n) {
                    format!("{n}_x")
                } else {
                    n.clone()
                });
            }
            for (n, _) in aux_schema {
                if on.contains(n) {
                    continue;
                }
                names.push(if overlap.contains(&n) {
                    format!("{n}_y")
                } else {
                    n.clone()
                });
            }
            let unique: std::collections::HashSet<&String> = names.iter().collect();
            if unique.len() != names.len() {
                return ROp::Skip;
            }
            ROp::Join {
                on: on.to_vec(),
                how: if raw.a.is_multiple_of(2) {
                    JoinKind::Inner
                } else {
                    JoinKind::Left
                },
            }
        }
        6 => match pick(&schema, raw.a, |_| true) {
            Some((by, _)) => ROp::Sort {
                by: by.clone(),
                ascending: raw.b.is_multiple_of(2),
            },
            None => ROp::Skip,
        },
        7 => match pick(&schema, raw.a, numeric) {
            Some((col, _)) => ROp::TopN {
                col: col.clone(),
                n: raw.c as usize % 40,
                largest: raw.b.is_multiple_of(2),
            },
            None => ROp::Skip,
        },
        8 => {
            let rows = cur.num_rows();
            ROp::Concat {
                slices: (0..1 + raw.a as usize % 5)
                    .map(|k| {
                        let offset = rows * ((raw.b as usize + 37 * k) % 101) / 100;
                        (offset, (raw.c as usize + 23 * k) % 65)
                    })
                    .collect(),
            }
        }
        9 => {
            let rows = cur.num_rows();
            ROp::Slice {
                offset: rows * (raw.a as usize % 101) / 100,
                len: rows * (raw.b as usize % 101) / 100,
            }
        }
        10 => ROp::SpillRoundTrip,
        11 => match pick(&schema, raw.a, |_| true) {
            Some((col, _)) => ROp::Encode { col: col.clone() },
            None => ROp::Skip,
        },
        12 => ROp::Decode,
        13 => {
            let mut by: Vec<(String, bool)> = Vec::new();
            for k in 0..1 + raw.b as usize % 3 {
                let Some((name, _)) = pick(&schema, raw.a.wrapping_add(37 * k as u8), |_| true)
                else {
                    return ROp::Skip;
                };
                if by.iter().all(|(b, _)| b != name) {
                    by.push((name.clone(), (raw.b >> (2 + k)) & 1 == 0));
                }
            }
            ROp::TopK {
                by,
                n: raw.c as usize * (cur.num_rows() + 8) / 255,
            }
        }
        _ => ROp::Head {
            n: (raw.a as usize).wrapping_mul(7) % 65,
        },
    }
}

// ---------------------------------------------------------------------------
// Oracle run
// ---------------------------------------------------------------------------

/// The oracle's execution of a trace: the resolved ops and the frame
/// state before/after each one (`states[0]` is the initial frame,
/// `states[k + 1]` the state after op `k`).
pub struct OracleRun {
    /// Frame states; `states.len() == rops.len() + 1`.
    pub states: Vec<DataFrame>,
    /// The resolved op sequence.
    pub rops: Vec<ROp>,
    /// The plain auxiliary frame (join partner).
    pub aux: DataFrame,
    /// The CSV file the main frame routes through, when `via_csv`.
    pub csv_path: Option<PathBuf>,
}

impl Drop for OracleRun {
    fn drop(&mut self) {
        if let Some(p) = &self.csv_path {
            let _ = std::fs::remove_file(p);
        }
    }
}

/// Replace-or-append a column, preserving position — the reference
/// twin of `DataFrame::with_column`.
fn with_col_ref(frame: &DataFrame, name: &str, col: Column) -> DataFrame {
    let mut series: Vec<Series> = frame.series().to_vec();
    match series.iter_mut().find(|s| s.name() == name) {
        Some(slot) => *slot = Series::new(name, col),
        None => series.push(Series::new(name, col)),
    }
    DataFrame::new(series).expect("reference with_column is well-formed")
}

/// Reference head/slice built from `slice_ref` per column.
fn slice_frame_ref(frame: &DataFrame, offset: usize, len: usize) -> DataFrame {
    DataFrame::new(
        frame
            .series()
            .iter()
            .map(|s| Series::new(s.name(), oracle::slice_ref(s.column(), offset, len)))
            .collect(),
    )
    .expect("reference slice is well-formed")
}

fn top_k_options(by: &[(String, bool)]) -> SortOptions {
    SortOptions {
        by: by.iter().map(|(name, _)| name.clone()).collect(),
        ascending: by.iter().map(|&(_, asc)| asc).collect(),
    }
}

fn oracle_apply(cur: &DataFrame, aux: &DataFrame, rop: &ROp) -> DataFrame {
    match rop {
        ROp::Filter { col, cmp, lit } => {
            let target = cur.column(col).expect("resolved column").column();
            let mask = oracle::compare_scalar_ref(target, *cmp, lit);
            oracle::filter_ref(cur, &mask)
        }
        ROp::WithArith { lhs, rhs, op, out } => {
            let l = cur.column(lhs).expect("resolved column").column();
            let r = cur.column(rhs).expect("resolved column").column();
            with_col_ref(cur, out, oracle::arith_ref(l, *op, r))
        }
        ROp::WithCompare { lhs, rhs, cmp, out } => {
            let l = cur.column(lhs).expect("resolved column").column();
            let r = cur.column(rhs).expect("resolved column").column();
            with_col_ref(cur, out, Column::Bool(oracle::compare_ref(l, *cmp, r), None))
        }
        ROp::FillNa { fill } => oracle::fillna_frame_ref(cur, fill),
        ROp::GroupBy { spec } => oracle::group_by_ref(cur, spec),
        ROp::Join { on, how } => {
            slice_frame_ref(&oracle::merge_ref(cur, aux, on, *how), 0, GROWTH_CAP)
        }
        ROp::Sort { by, ascending } => {
            oracle::sort_values_ref(cur, &SortOptions::single(by.clone(), *ascending))
        }
        ROp::TopN { col, n, largest } => {
            if *largest {
                oracle::nlargest_ref(cur, *n, col)
            } else {
                oracle::nsmallest_ref(cur, *n, col)
            }
        }
        ROp::TopK { by, n } => {
            slice_frame_ref(&oracle::sort_values_ref(cur, &top_k_options(by)), 0, *n)
        }
        ROp::Concat { slices } => slices.iter().fold(cur.clone(), |acc, &(offset, len)| {
            oracle::concat_ref(&acc, &slice_frame_ref(cur, offset, len))
        }),
        ROp::Slice { offset, len } => slice_frame_ref(cur, *offset, *len),
        ROp::SpillRoundTrip | ROp::Encode { .. } | ROp::Decode | ROp::Skip => cur.clone(),
        ROp::Head { n } => slice_frame_ref(cur, 0, *n),
    }
}

/// Execute a trace on the oracle: build the inputs, resolve every op
/// against the evolving schema, and record each intermediate state.
pub fn run_oracle(trace: &Trace) -> OracleRun {
    let main_plain = build_plain(&trace.main);
    let aux = categories_for_oracle(&build_plain(&trace.aux), &trace.aux);
    let (initial, csv_path) = if trace.via_csv {
        let path = temp_csv_path();
        write_csv(&main_plain, &path);
        (
            oracle::read_csv_infer_ref(&path, &CsvOptions::new()),
            Some(path),
        )
    } else {
        (categories_for_oracle(&main_plain, &trace.main), None)
    };
    let aux_schema = schema_of(&aux);
    let mut with_counter = 0usize;
    let mut states = vec![initial];
    let mut rops = Vec::with_capacity(trace.ops.len());
    for raw in &trace.ops {
        let cur = states.last().expect("non-empty");
        let rop = resolve(*raw, cur, &aux_schema, &mut with_counter);
        let next = oracle_apply(cur, &aux, &rop);
        rops.push(rop);
        states.push(next);
    }
    OracleRun {
        states,
        rops,
        aux,
        csv_path,
    }
}

// ---------------------------------------------------------------------------
// Engine runs
// ---------------------------------------------------------------------------

/// What the engine run produced: `error` is the structured engine error
/// that ended the run early, when the config tolerates one.
pub struct EngineReport {
    /// Structured engine error accepted under a fault/budget config.
    pub error: Option<String>,
}

fn engine_encode(cur: &DataFrame, col: &str) -> ColResult<DataFrame> {
    let c = cur.column(col)?.column();
    let encoded = if c.is_encoded() {
        None
    } else if c.dtype() == DType::Utf8 {
        dict_encode(c)
    } else {
        Some(oracle::force_rle(c))
    };
    match encoded {
        Some(e) => cur.with_column(col, e),
        None => Ok(cur.clone()),
    }
}

fn engine_decode(cur: &DataFrame) -> DataFrame {
    DataFrame::new(
        cur.series()
            .iter()
            .map(|s| {
                let c = s.column();
                let plain = if c.is_encoded() { c.decode() } else { c.clone() };
                Series::new(s.name(), plain)
            })
            .collect(),
    )
    .expect("decode preserves shape")
}

fn engine_fillna(cur: &DataFrame, fill: &Scalar) -> DataFrame {
    // The frozen frame-level contract (shared by the Dask FillNa
    // operator): a column that rejects the fill scalar passes through
    // unchanged.
    DataFrame::new(
        cur.series()
            .iter()
            .map(|s| {
                let col = match s.column().fillna(fill) {
                    Ok(c) => c,
                    Err(_) => s.column().clone(),
                };
                Series::new(s.name(), col)
            })
            .collect(),
    )
    .expect("fillna preserves shape")
}

fn engine_spill_round_trip(cur: &DataFrame) -> ColResult<DataFrame> {
    let dir = SpillDir::in_temp();
    let file = spill_frame(&dir, cur)?;
    let mut parts = vec![cur.head(0)];
    parts.extend(file.read_all()?);
    DataFrame::concat_many(&parts)
}

/// One eager/pooled engine op. `pool` drives the `_par` kernel variants
/// (a sequential pool selects the plain kernels inside them).
fn engine_apply(
    cur: &DataFrame,
    aux: &DataFrame,
    rop: &ROp,
    pool: &WorkerPool,
    mutation: Mutation,
) -> ColResult<DataFrame> {
    match rop {
        ROp::Filter { col, cmp, lit } => {
            let mask = cur.column(col)?.column().compare_scalar(*cmp, lit)?;
            cur.filter(&mask)
        }
        ROp::WithArith { lhs, rhs, op, out } => {
            let v = cur
                .column(lhs)?
                .column()
                .arith(*op, cur.column(rhs)?.column())?;
            cur.with_column(out, v)
        }
        ROp::WithCompare { lhs, rhs, cmp, out } => {
            let mask = cur
                .column(lhs)?
                .column()
                .compare(*cmp, cur.column(rhs)?.column())?;
            cur.with_column(out, Column::Bool(mask, None))
        }
        ROp::FillNa { fill } => Ok(engine_fillna(cur, fill)),
        ROp::GroupBy { spec } => group_by_par(cur, spec, pool),
        ROp::Join { on, how } => Ok(merge_par(cur, aux, on, *how, pool)?.head(GROWTH_CAP)),
        ROp::Sort { by, ascending } => {
            let sorted =
                sort_values_par(cur, &SortOptions::single(by.clone(), *ascending), pool)?;
            Ok(apply_sort_mutation(sorted, mutation))
        }
        ROp::TopN { col, n, largest } => {
            if *largest {
                nlargest(cur, *n, col)
            } else {
                nsmallest(cur, *n, col)
            }
        }
        ROp::TopK { by, n } => top_k(cur, &top_k_options(by), *n),
        ROp::Concat { slices } => {
            let tails: Vec<DataFrame> = slices
                .iter()
                .map(|&(offset, len)| cur.slice(offset, len))
                .collect();
            let mut parts = vec![cur];
            parts.extend(&tails);
            DataFrame::concat_many(&parts)
        }
        ROp::Slice { offset, len } => Ok(cur.slice(*offset, *len)),
        ROp::SpillRoundTrip => engine_spill_round_trip(cur),
        ROp::Encode { col } => engine_encode(cur, col),
        ROp::Decode => Ok(engine_decode(cur)),
        ROp::Head { n } => Ok(cur.head(*n)),
        ROp::Skip => Ok(cur.clone()),
    }
}

fn apply_sort_mutation(sorted: DataFrame, mutation: Mutation) -> DataFrame {
    match mutation {
        Mutation::None => sorted,
        Mutation::SortDropsLastRow => {
            let rows = sorted.num_rows();
            if rows > 0 {
                sorted.head(rows - 1)
            } else {
                sorted
            }
        }
    }
}

fn engine_inputs(
    trace: &Trace,
    orun: &OracleRun,
    pool: &WorkerPool,
) -> ColResult<(DataFrame, DataFrame)> {
    let aux = encode_for_engine(&build_plain(&trace.aux), &trace.aux);
    let main = match &orun.csv_path {
        Some(path) => read_csv_par(path, &CsvOptions::new(), pool)?,
        None => encode_for_engine(&build_plain(&trace.main), &trace.main),
    };
    Ok((main, aux))
}

/// Run the engine eagerly (sequential or pooled) and compare every
/// intermediate state against the oracle.
fn run_eager(
    trace: &Trace,
    orun: &OracleRun,
    cfg: &FuzzConfig,
    mutation: Mutation,
) -> Result<EngineReport, String> {
    let threads = match cfg.mode {
        Mode::Par(n) => n,
        _ => 1,
    };
    let pool = WorkerPool::new(threads);
    let accept = |e: lafp_columnar::ColumnarError, at: &str| -> Result<EngineReport, String> {
        if cfg.tolerates_errors() {
            Ok(EngineReport {
                error: Some(format!("{at}: {e}")),
            })
        } else {
            Err(format!("[{}] engine error at {at} where oracle succeeded: {e}", cfg.name))
        }
    };
    let (mut cur, aux) = match engine_inputs(trace, orun, &pool) {
        Ok(v) => v,
        Err(e) => return accept(e, "input build"),
    };
    check_frame_close(&cur, &orun.states[0], TOL, &format!("[{}] initial frame", cfg.name))?;
    for (i, rop) in orun.rops.iter().enumerate() {
        cur = match engine_apply(&cur, &aux, rop, &pool, mutation) {
            Ok(f) => f,
            Err(e) => return accept(e, &format!("op {i}")),
        };
        check_frame_close(
            &cur,
            &orun.states[i + 1],
            TOL,
            &format!("[{}] after op {i} ({rop:?})", cfg.name),
        )?;
    }
    Ok(EngineReport { error: None })
}

/// Which resolved ops the Dask engine can express as graph nodes.
fn dask_nodes(rop: &ROp) -> Option<Vec<DaskOp>> {
    Some(match rop {
        ROp::Filter { col, cmp, lit } => vec![DaskOp::Filter(
            Expr::col(col.clone()).cmp(*cmp, Expr::Lit(lit.clone())),
        )],
        ROp::WithArith { lhs, rhs, op, out } => vec![DaskOp::WithColumn(
            out.clone(),
            Expr::col(lhs.clone()).arith(*op, Expr::col(rhs.clone())),
        )],
        ROp::WithCompare { lhs, rhs, cmp, out } => vec![DaskOp::WithColumn(
            out.clone(),
            Expr::col(lhs.clone()).cmp(*cmp, Expr::col(rhs.clone())),
        )],
        ROp::FillNa { fill } => vec![DaskOp::FillNa(fill.clone())],
        ROp::GroupBy { spec } => vec![DaskOp::GroupByAgg(spec.clone())],
        ROp::Join { on, how } => vec![
            DaskOp::Merge {
                on: on.clone(),
                how: *how,
            },
            DaskOp::Head(GROWTH_CAP),
        ],
        ROp::Sort { by, ascending } => {
            vec![DaskOp::Sort(SortOptions::single(by.clone(), *ascending))]
        }
        ROp::TopN { col, n, largest } => vec![
            DaskOp::Sort(SortOptions::single(col.clone(), !largest)),
            DaskOp::Head(*n),
        ],
        ROp::TopK { by, n } => vec![DaskOp::TopK {
            by: top_k_options(by),
            n: *n,
        }],
        ROp::Head { n } => vec![DaskOp::Head(*n)],
        ROp::Skip => vec![],
        _ => return None,
    })
}

/// Run one Dask graph over `rops[start..end]`, seeded either from a
/// materialized frame or the trace's CSV scan.
#[allow(clippy::too_many_arguments)]
fn dask_graph_run(
    cfg: &FuzzConfig,
    seed_frame: Option<&DataFrame>,
    csv_path: Option<&Path>,
    rops: &[ROp],
    aux: &DataFrame,
) -> ColResult<DataFrame> {
    let (threads, fuse) = match cfg.mode {
        Mode::Dask { threads, fuse } => (threads, fuse),
        _ => unreachable!("dask_graph_run requires Mode::Dask"),
    };
    let tracker = match cfg.budget {
        Some(b) => MemoryTracker::with_budget(b),
        None => MemoryTracker::unlimited(),
    };
    let chunk_rows = if cfg.budget.is_some() { 256 } else { 1024 };
    let mut engine = DaskEngine::with_threads(tracker, chunk_rows, threads);
    engine.fuse_chains = fuse;
    let mut node = match seed_frame {
        Some(f) => engine.add(DaskOp::FromFrame(Arc::new(f.clone())), vec![]),
        None => engine.add(
            DaskOp::ReadCsv {
                path: csv_path.expect("csv-seeded run").to_path_buf(),
                options: CsvOptions::new(),
                limit: None,
            },
            vec![],
        ),
    };
    for rop in rops {
        for op in dask_nodes(rop).expect("only expressible ops reach a graph run") {
            let inputs = match op {
                DaskOp::Merge { .. } => {
                    let right = engine.add(DaskOp::FromFrame(Arc::new(aux.clone())), vec![]);
                    vec![node, right]
                }
                _ => vec![node],
            };
            node = engine.add(op, inputs);
        }
    }
    let (value, reservation) = engine.compute(node)?;
    let frame = value.into_frame()?;
    drop(reservation);
    Ok(frame)
}

/// Run the engine through the Dask backend: maximal runs of
/// graph-expressible ops become task graphs (streamed, fused,
/// spillable), everything else executes eagerly in between, and every
/// materialization point is compared against the oracle.
fn run_dask(
    trace: &Trace,
    orun: &OracleRun,
    cfg: &FuzzConfig,
    mutation: Mutation,
) -> Result<EngineReport, String> {
    let pool = WorkerPool::new(1);
    let accept = |e: lafp_columnar::ColumnarError, at: &str| -> Result<EngineReport, String> {
        if cfg.tolerates_errors() {
            Ok(EngineReport {
                error: Some(format!("{at}: {e}")),
            })
        } else {
            Err(format!("[{}] engine error at {at} where oracle succeeded: {e}", cfg.name))
        }
    };
    let aux = encode_for_engine(&build_plain(&trace.aux), &trace.aux);
    // `cur = None` means "still inside the CSV scan": the first graph
    // run streams the scan and its op run in one pipeline.
    let mut cur: Option<DataFrame> = match &orun.csv_path {
        Some(_) => None,
        None => {
            let f = encode_for_engine(&build_plain(&trace.main), &trace.main);
            check_frame_close(&f, &orun.states[0], TOL, &format!("[{}] initial frame", cfg.name))?;
            Some(f)
        }
    };
    let mut i = 0;
    while i < orun.rops.len() {
        if dask_nodes(&orun.rops[i]).is_some() {
            let mut j = i;
            while j < orun.rops.len() && dask_nodes(&orun.rops[j]).is_some() {
                j += 1;
            }
            let frame = match dask_graph_run(
                cfg,
                cur.as_ref(),
                orun.csv_path.as_deref(),
                &orun.rops[i..j],
                &aux,
            ) {
                Ok(f) => f,
                Err(e) => return accept(e, &format!("graph run over ops {i}..{j}")),
            };
            check_frame_close(
                &frame,
                &orun.states[j],
                TOL,
                &format!("[{}] after graph run over ops {i}..{j}", cfg.name),
            )?;
            cur = Some(frame);
            i = j;
        } else {
            let base = match cur.take() {
                Some(f) => f,
                // Leading non-expressible op on a CSV-seeded trace:
                // materialize the bare scan first.
                None => {
                    let f = match dask_graph_run(
                        cfg,
                        None,
                        orun.csv_path.as_deref(),
                        &[],
                        &aux,
                    ) {
                        Ok(f) => f,
                        Err(e) => return accept(e, "csv scan"),
                    };
                    check_frame_close(
                        &f,
                        &orun.states[0],
                        TOL,
                        &format!("[{}] initial frame", cfg.name),
                    )?;
                    f
                }
            };
            let next = match engine_apply(&base, &aux, &orun.rops[i], &pool, mutation) {
                Ok(f) => f,
                Err(e) => return accept(e, &format!("op {i}")),
            };
            check_frame_close(
                &next,
                &orun.states[i + 1],
                TOL,
                &format!("[{}] after op {i} ({:?})", cfg.name, orun.rops[i]),
            )?;
            cur = Some(next);
            i += 1;
        }
    }
    if cur.is_none() {
        // CSV-seeded trace with no ops: still verify the scan itself.
        let f = match dask_graph_run(cfg, None, orun.csv_path.as_deref(), &[], &aux) {
            Ok(f) => f,
            Err(e) => return accept(e, "csv scan"),
        };
        check_frame_close(&f, &orun.states[0], TOL, &format!("[{}] initial frame", cfg.name))?;
    }
    Ok(EngineReport { error: None })
}

/// Execute the engine side of a trace under one config and compare
/// against the oracle run. `Err` is a divergence (the fuzzer's
/// "found something"); `Ok` carries the accepted structured error, if
/// any.
pub fn run_engine(
    trace: &Trace,
    orun: &OracleRun,
    cfg: &FuzzConfig,
    mutation: Mutation,
) -> Result<EngineReport, String> {
    match cfg.mode {
        Mode::Eager | Mode::Par(_) => run_eager(trace, orun, cfg, mutation),
        Mode::Dask { .. } => run_dask(trace, orun, cfg, mutation),
    }
}
