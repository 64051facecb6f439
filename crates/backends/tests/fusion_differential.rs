//! Differential suite pinning **fused operator chains** to the unfused
//! streaming executor.
//!
//! Every case builds the same Dask graph twice per thread count (1, 2
//! and 8 workers) — once with `ExecConfig::fuse` on, once off — and
//! demands bit-identical results (frames compared by ordered row hashes,
//! so partition arrival order is part of the contract). The cases cover
//! the hostile corners from the PR checklist: null-heavy columns, empty
//! morsels, head limits stopping a chain mid-partition, and a chain
//! running under a squeezed spill budget.

use lafp_backends::dask::{DaskEngine, DaskNodeId, DaskOp, DaskValue};
use lafp_backends::{ExecConfig, MemoryTracker};
use lafp_columnar::column::{ArithOp, Column};
use lafp_columnar::csv::CsvOptions;
use lafp_columnar::df;
use lafp_columnar::groupby::GroupBySpec;
use lafp_columnar::sort::SortOptions;
use lafp_columnar::{AggKind, HeapSize, Scalar};
use lafp_expr::Expr;
use std::path::{Path, PathBuf};
use std::sync::Arc;

const THREADS: &[usize] = &[1, 2, 8];
const CHUNK_ROWS: usize = 33;

fn temp_path(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("lafp-fusion-differential");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(format!(
        "{tag}-{}.csv",
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .unwrap()
            .as_nanos()
    ))
}

/// Null-heavy CSV: every third fare and every fourth day cell is empty.
fn null_heavy_csv(rows: usize) -> PathBuf {
    let path = temp_path("nulls");
    let mut text = String::from("fare,day,extra\n");
    for i in 0..rows {
        let fare = if i % 3 == 0 {
            String::new()
        } else {
            format!("{}", i as f64 - 3.0)
        };
        let day = if i % 4 == 0 {
            String::new()
        } else {
            format!("{}", i % 7)
        };
        text.push_str(&format!("{fare},{day},blob-{i}\n"));
    }
    std::fs::write(&path, text).unwrap();
    path
}

fn dense_csv(rows: usize) -> PathBuf {
    let frame = df![
        (
            "fare",
            Column::from_f64((0..rows).map(|i| i as f64 - 3.0).collect())
        ),
        (
            "day",
            Column::from_i64((0..rows).map(|i| (i % 7) as i64).collect())
        ),
        (
            "extra",
            Column::from_strings((0..rows).map(|i| format!("blob-{i}")).collect::<Vec<_>>())
        ),
    ];
    let path = temp_path("dense");
    lafp_columnar::csv::write_csv(&frame, &path).unwrap();
    path
}

fn scan(e: &mut DaskEngine, path: &Path) -> DaskNodeId {
    e.add(
        DaskOp::ReadCsv {
            path: path.to_path_buf(),
            options: CsvOptions::new(),
            limit: None,
        },
        vec![],
    )
}

/// Order-sensitive fingerprint of a computed value.
fn fingerprint(v: DaskValue) -> String {
    match v {
        DaskValue::Scalar(s) => format!("scalar:{s}"),
        DaskValue::Frame(f) => {
            let names = f.column_names().join(",");
            format!("frame:[{names}]:{:?}", f.row_hashes(&[]).unwrap())
        }
    }
}

/// Run `build` fused and unfused at 1/2/8 threads; every combination
/// must produce the same value. `tracker` is invoked per run so budgeted
/// cases start from a clean ledger.
fn assert_differential(
    tracker: impl Fn() -> Arc<MemoryTracker>,
    build: impl Fn(&mut DaskEngine) -> DaskNodeId,
) {
    let mut reference: Option<String> = None;
    for &threads in THREADS {
        for fuse in [false, true] {
            let config = ExecConfig { fuse, ..ExecConfig::from_env() }.with_threads(threads);
            let mut e = DaskEngine::with_config(tracker(), CHUNK_ROWS, config);
            let root = build(&mut e);
            let (v, _r) = e.compute(root).unwrap();
            let got = fingerprint(v);
            match &reference {
                None => reference = Some(got),
                Some(expect) => assert_eq!(
                    &got, expect,
                    "fuse={fuse} threads={threads} diverged from the unfused single-thread run"
                ),
            }
        }
    }
}

#[test]
fn null_heavy_chain_matches_unfused() {
    let path = null_heavy_csv(700);
    assert_differential(MemoryTracker::unlimited, |e| {
        let s = scan(e, &path);
        let f = e.add(
            DaskOp::Filter(Expr::col("fare").gt(Expr::lit_float(0.0))),
            vec![s],
        );
        let w = e.add(
            DaskOp::WithColumn(
                "fare2".into(),
                Expr::col("fare").arith(ArithOp::Mul, Expr::lit_float(2.0)),
            ),
            vec![f],
        );
        let fill = e.add(DaskOp::FillNa(Scalar::Float(-1.0)), vec![w]);
        let sel = e.add(DaskOp::Select(vec!["day".into(), "fare2".into()]), vec![fill]);
        e.add(
            DaskOp::GroupByAgg(GroupBySpec {
                keys: vec!["day".into()],
                value: "fare2".into(),
                agg: AggKind::Sum,
            }),
            vec![sel],
        )
    });
}

#[test]
fn null_keys_reach_the_accumulator_identically() {
    // No fillna: null group keys flow into the fused masked update and
    // the unfused compacted update alike.
    let path = null_heavy_csv(500);
    assert_differential(MemoryTracker::unlimited, |e| {
        let s = scan(e, &path);
        let f = e.add(
            DaskOp::Filter(Expr::col("fare").lt(Expr::lit_float(100.0))),
            vec![s],
        );
        e.add(
            DaskOp::GroupByAgg(GroupBySpec {
                keys: vec!["day".into()],
                value: "fare".into(),
                agg: AggKind::Mean,
            }),
            vec![f],
        )
    });
}

#[test]
fn empty_morsels_flow_through_chains() {
    // A filter nothing survives: every morsel reaches the chain and
    // leaves it empty, terminally aggregated to an empty frame.
    let path = dense_csv(400);
    assert_differential(MemoryTracker::unlimited, |e| {
        let s = scan(e, &path);
        let f = e.add(
            DaskOp::Filter(Expr::col("fare").gt(Expr::lit_float(1e12))),
            vec![s],
        );
        let w = e.add(
            DaskOp::WithColumn(
                "fare2".into(),
                Expr::col("fare").arith(ArithOp::Add, Expr::lit_float(1.0)),
            ),
            vec![f],
        );
        e.add(
            DaskOp::GroupByAgg(GroupBySpec {
                keys: vec!["day".into()],
                value: "fare2".into(),
                agg: AggKind::Count,
            }),
            vec![w],
        )
    });
}

#[test]
fn zero_row_source_flows_through_chains() {
    let empty = Arc::new(df![
        ("fare", Column::from_f64(vec![])),
        ("day", Column::from_i64(vec![])),
    ]);
    assert_differential(MemoryTracker::unlimited, |e| {
        let s = e.add(DaskOp::FromFrame(Arc::clone(&empty)), vec![]);
        let f = e.add(
            DaskOp::Filter(Expr::col("fare").gt(Expr::lit_float(0.0))),
            vec![s],
        );
        let r = e.add(
            DaskOp::Rename(vec![("fare".into(), "amount".into())]),
            vec![f],
        );
        e.add(DaskOp::Len, vec![r])
    });
}

#[test]
fn head_stops_chain_mid_partition() {
    // Head downstream of the chain truncates the chain's output mid
    // partition (17 < chunk size) and hangs up the rest of the stream.
    let path = dense_csv(900);
    assert_differential(MemoryTracker::unlimited, |e| {
        let s = scan(e, &path);
        let f = e.add(
            DaskOp::Filter(Expr::col("fare").ge(Expr::lit_float(0.0))),
            vec![s],
        );
        let w = e.add(
            DaskOp::WithColumn(
                "half".into(),
                Expr::col("fare").arith(ArithOp::Div, Expr::lit_float(2.0)),
            ),
            vec![f],
        );
        let d = e.add(DaskOp::DropColumns(vec!["extra".into()]), vec![w]);
        e.add(DaskOp::Head(17), vec![d])
    });
}

#[test]
fn head_upstream_feeds_chain_partial_morsel() {
    // Head upstream of the chain: the chain's first (and only) morsel is
    // a mid-partition truncation.
    let path = dense_csv(900);
    assert_differential(MemoryTracker::unlimited, |e| {
        let s = scan(e, &path);
        let h = e.add(DaskOp::Head(13), vec![s]);
        let f = e.add(
            DaskOp::Filter(Expr::col("fare").gt(Expr::lit_float(-100.0))),
            vec![h],
        );
        let sel = e.add(DaskOp::Select(vec!["day".into(), "fare".into()]), vec![f]);
        e.add(
            DaskOp::GroupByAgg(GroupBySpec {
                keys: vec!["day".into()],
                value: "fare".into(),
                agg: AggKind::Count,
            }),
            vec![sel],
        )
    });
}

#[test]
fn chain_under_squeezed_spill_budget() {
    // The chain feeds a blocking sort whose buffer cannot hold the
    // input (budget is a sixth of the materialized size under
    // `LAFP_BUDGET_DIVISOR=6`, a third by default): the fused and
    // unfused paths must spill to the same sorted answer.
    let divisor: usize = std::env::var("LAFP_BUDGET_DIVISOR")
        .ok()
        .and_then(|v| v.parse().ok())
        .map(|d: usize| d.max(2))
        .unwrap_or(3);
    let path = dense_csv(2400);
    let mut probe = DaskEngine::new(MemoryTracker::unlimited(), 64);
    let s = scan(&mut probe, &path);
    let (full, _r) = probe.gather(s).unwrap();
    let budget = full.heap_size() / divisor;
    drop(probe);

    assert_differential(
        || MemoryTracker::with_budget(budget),
        |e| {
            let s = scan(e, &path);
            let f = e.add(
                DaskOp::Filter(Expr::col("fare").gt(Expr::lit_float(10.0))),
                vec![s],
            );
            let w = e.add(
                DaskOp::WithColumn(
                    "neg".into(),
                    Expr::col("fare").arith(ArithOp::Mul, Expr::lit_float(-1.0)),
                ),
                vec![f],
            );
            let so = e.add(DaskOp::Sort(SortOptions::single("neg", false)), vec![w]);
            e.add(DaskOp::Head(96), vec![so])
        },
    );
}

#[test]
fn multi_consumer_link_breaks_the_chain() {
    // A row-wise node feeding TWO consumer slots (both sides of a
    // Concat) cannot be fused past; the chain resumes below the fan-out.
    let path = dense_csv(300);
    assert_differential(MemoryTracker::unlimited, |e| {
        let s = scan(e, &path);
        let f = e.add(
            DaskOp::Filter(Expr::col("fare").gt(Expr::lit_float(0.0))),
            vec![s],
        );
        let c = e.add(DaskOp::Concat, vec![f, f]);
        let w = e.add(
            DaskOp::WithColumn(
                "fare2".into(),
                Expr::col("fare").arith(ArithOp::Mul, Expr::lit_float(3.0)),
            ),
            vec![c],
        );
        e.add(
            DaskOp::GroupByAgg(GroupBySpec {
                keys: vec!["day".into()],
                value: "fare2".into(),
                agg: AggKind::Max,
            }),
            vec![w],
        )
    });
}

#[test]
fn with_column_replacing_filter_input_matches() {
    // The derived column REPLACES a column an earlier (pending) filter
    // read — exercises compaction ordering: the filter's selection is
    // applied before the old values are overwritten.
    let path = dense_csv(350);
    assert_differential(MemoryTracker::unlimited, |e| {
        let s = scan(e, &path);
        let f = e.add(
            DaskOp::Filter(Expr::col("fare").gt(Expr::lit_float(5.0))),
            vec![s],
        );
        let w = e.add(
            DaskOp::WithColumn(
                "fare".into(),
                Expr::col("fare").arith(ArithOp::Sub, Expr::lit_float(100.0)),
            ),
            vec![f],
        );
        let f2 = e.add(
            DaskOp::Filter(Expr::col("fare").lt(Expr::lit_float(0.0))),
            vec![w],
        );
        e.add(
            DaskOp::GroupByAgg(GroupBySpec {
                keys: vec!["day".into()],
                value: "fare".into(),
                agg: AggKind::Min,
            }),
            vec![f2],
        )
    });
}

#[test]
fn reduce_terminal_with_selection_matches() {
    let path = null_heavy_csv(600);
    assert_differential(MemoryTracker::unlimited, |e| {
        let s = scan(e, &path);
        let f = e.add(
            DaskOp::Filter(Expr::col("day").ge(Expr::lit_int(2))),
            vec![s],
        );
        let f2 = e.add(
            DaskOp::Filter(Expr::col("fare").gt(Expr::lit_float(0.0))),
            vec![f],
        );
        e.add(
            DaskOp::Reduce {
                column: "fare".into(),
                agg: AggKind::Sum,
            },
            vec![f2],
        )
    });
}
