//! Chaos differential suite: the backends workload re-run under seeded
//! fault injection.
//!
//! The contract under test is the PR's acceptance bar: with faults
//! armed, every query yields **either a result bit-identical to the
//! fault-free run or a structured [`ColumnarError`]** — never an abort,
//! never a wrong answer — and after each query (success or failure) the
//! memory tracker is back at zero and no spill temp file survives the
//! engine. Each query's engine, tracker and scans are built from one
//! [`ExecConfig`] carrying the plan, so the tests run in parallel.

use lafp_backends::dask::{DaskEngine, DaskNodeId, DaskOp, DaskValue};
use lafp_backends::{ExecConfig, MemoryTracker};
use lafp_columnar::column::ArithOp;
use lafp_columnar::csv::CsvOptions;
use lafp_columnar::encoding;
use lafp_columnar::faults::{FaultPlan, FaultSite, Faults};
use lafp_columnar::groupby::GroupBySpec;
use lafp_columnar::sort::SortOptions;
use lafp_columnar::{AggKind, ColumnarError, HeapSize};
use lafp_expr::Expr;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Four workers under the process configuration, firing `plan` instead
/// of its own (the default plan fires nothing).
fn config(plan: FaultPlan) -> ExecConfig {
    ExecConfig { faults: Faults::new(plan), ..ExecConfig::from_env() }.with_threads(4)
}

/// An engine whose tracker, pool, spill dir and scans all use `config`.
fn engine(budget: usize, chunk_rows: usize, config: &ExecConfig) -> DaskEngine {
    let tracker = MemoryTracker::with_config(budget, config);
    DaskEngine::with_config(tracker, chunk_rows, config.clone())
}

fn temp_csv(tag: &str, rows: usize) -> PathBuf {
    let dir = std::env::temp_dir().join("lafp-chaos");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!(
        "{tag}-{}.csv",
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .unwrap()
            .as_nanos()
    ));
    let mut text = String::from("fare,day,extra\n");
    for i in 0..rows {
        text.push_str(&format!("{}.5,{},blob-{i}\n", i as f64 - 40.0, i % 7));
    }
    std::fs::write(&path, text).unwrap();
    path
}

fn scan(e: &mut DaskEngine, path: &Path) -> DaskNodeId {
    e.add(
        DaskOp::ReadCsv {
            path: path.to_path_buf(),
            options: CsvOptions { exec: e.config().clone(), ..CsvOptions::new() },
            limit: None,
        },
        vec![],
    )
}

/// Order-sensitive fingerprint of a computed value.
fn fingerprint(v: &DaskValue) -> String {
    match v {
        DaskValue::Scalar(s) => format!("scalar:{s}"),
        DaskValue::Frame(f) => {
            let names = f.column_names().join(",");
            format!("frame:[{names}]:{:?}", f.row_hashes(&[]).unwrap())
        }
    }
}

/// Drop `e` and check that none of its spill roots survives it.
fn drop_without_leaks(e: DaskEngine) {
    let roots = e.spill_roots();
    drop(e);
    let leaked: Vec<_> = roots.iter().filter(|r| r.exists()).collect();
    assert!(leaked.is_empty(), "spill dirs leaked: {leaked:?}");
}

/// The workload: one builder per query, exercising the chain-fused scan
/// path, the blocking spill-prone sort, a hash join, and a scalar
/// reduction.
type Build = fn(&mut DaskEngine, &Path, &Path) -> DaskNodeId;

fn q_filter_groupby(e: &mut DaskEngine, a: &Path, _b: &Path) -> DaskNodeId {
    let s = scan(e, a);
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
    e.add(
        DaskOp::GroupByAgg(GroupBySpec {
            keys: vec!["day".into()],
            value: "fare2".into(),
            agg: AggKind::Sum,
        }),
        vec![w],
    )
}

fn q_sort_head(e: &mut DaskEngine, a: &Path, _b: &Path) -> DaskNodeId {
    let s = scan(e, a);
    let so = e.add(DaskOp::Sort(SortOptions::single("fare", false)), vec![s]);
    e.add(DaskOp::Head(64), vec![so])
}

fn q_merge(e: &mut DaskEngine, a: &Path, b: &Path) -> DaskNodeId {
    let left = scan(e, a);
    let lsel = e.add(DaskOp::Select(vec!["fare".into(), "day".into()]), vec![left]);
    let right = scan(e, b);
    let rsel = e.add(DaskOp::Select(vec!["day".into(), "extra".into()]), vec![right]);
    let m = e.add(
        DaskOp::Merge {
            on: vec!["day".into()],
            how: lafp_columnar::JoinKind::Inner,
        },
        vec![lsel, rsel],
    );
    e.add(DaskOp::Len, vec![m])
}

fn q_reduce(e: &mut DaskEngine, a: &Path, _b: &Path) -> DaskNodeId {
    let s = scan(e, a);
    let f = e.add(
        DaskOp::Filter(Expr::col("day").ge(Expr::lit_int(2))),
        vec![s],
    );
    e.add(
        DaskOp::Reduce {
            column: "fare".into(),
            agg: AggKind::Sum,
        },
        vec![f],
    )
}

/// Each query runs under these budget classes (`usize::MAX` =
/// unlimited; `0` is replaced by the probed squeezed budget). Only the
/// blocking sort gets the squeezed class — it spills and recovers; the
/// join's materialized output legitimately cannot fit it.
const WORKLOAD: &[(&str, Build, &[usize])] = &[
    ("filter_groupby", q_filter_groupby, &[usize::MAX]),
    ("sort_head", q_sort_head, &[usize::MAX, 0]),
    ("merge", q_merge, &[usize::MAX]),
    ("reduce", q_reduce, &[usize::MAX]),
];

fn run_query(
    budget: usize,
    build: Build,
    a: &Path,
    b: &Path,
    config: &ExecConfig,
) -> Result<String, ColumnarError> {
    let mut e = engine(budget, 33, config);
    let tracker = Arc::clone(e.tracker());
    let root = build(&mut e, a, b);
    let out = e.compute(root).map(|(v, r)| {
        let fp = fingerprint(&v);
        drop(v);
        drop(r);
        fp
    });
    drop_without_leaks(e);
    assert_eq!(
        tracker.current(),
        0,
        "tracker must return to zero after the query (ok={})",
        out.is_ok()
    );
    out
}

/// The tentpole's differential assertion: per seed, per query — same
/// answer as the fault-free run, or a structured error. Either way, no
/// leaked spill dirs and a zeroed tracker.
#[test]
fn chaos_differential_result_or_structured_error() {
    let a = temp_csv("chaos-a", 900);
    let b = temp_csv("chaos-b", 400);
    // Squeezed budget so sort/merge genuinely spill: derive from the
    // materialized scan size, fault-free.
    let mut probe = DaskEngine::new(MemoryTracker::unlimited(), 64);
    let s = scan(&mut probe, &a);
    let (full, _r) = probe.gather(s).unwrap();
    let squeezed = full.heap_size() / 2;
    drop((full, _r, probe));
    let resolve = |b: usize| if b == 0 { squeezed } else { b };

    // Fault-free baselines (one per budget class).
    let fault_free = config(FaultPlan::new(0));
    let mut baseline = std::collections::HashMap::new();
    for &(name, build, budgets) in WORKLOAD {
        for &budget in budgets {
            let fp = run_query(resolve(budget), build, &a, &b, &fault_free)
                .unwrap_or_else(|e| panic!("{name} fault-free failed: {e}"));
            baseline.insert((name, budget), fp);
        }
    }

    let mut injected_total = 0u64;
    let mut errored = 0usize;
    let mut matched = 0usize;
    for seed in [42u64, 1337, 7] {
        let chaos = config(
            FaultPlan::new(seed)
                .with(FaultSite::SpillWrite, 0.05)
                .with(FaultSite::SpillRead, 0.05)
                .with(FaultSite::CsvRead, 0.01)
                .with(FaultSite::MorselExecute, 0.005)
                .with(FaultSite::Alloc, 0.01),
        );
        for &(name, build, budgets) in WORKLOAD {
            for &budget in budgets {
                match run_query(resolve(budget), build, &a, &b, &chaos) {
                    Ok(fp) => {
                        assert_eq!(
                            &fp, &baseline[&(name, budget)],
                            "seed {seed}, query {name}: survived faults but answered wrong"
                        );
                        matched += 1;
                    }
                    // ANY ColumnarError is an acceptable outcome — the
                    // run_query asserts already checked the cleanup
                    // invariants. Reaching here at all means no abort.
                    Err(_) => errored += 1,
                }
            }
        }
        injected_total += chaos.faults.snapshot().total_injected();
    }
    assert!(
        injected_total > 0,
        "the chaos plan never fired — the sweep tested nothing"
    );
    assert!(
        matched > 0,
        "every query failed under every seed (matched=0, errored={errored}); \
         recovery paths are not recovering"
    );
}

/// Acceptance criterion: one poisoned morsel fails only its query; the
/// same engine then runs the next query successfully.
#[test]
fn injected_panic_fails_one_query_engine_survives() {
    let a = temp_csv("panic", 300);
    // At p = 0.001, seed 48614 fires its first `worker_panic` draw and
    // none of the next 4999: the first query fails, the rest run clean.
    let plan = FaultPlan::new(48614).with(FaultSite::MorselExecute, 0.001);
    let probe = Faults::new(plan.clone());
    let fired: Vec<bool> = (0..5000)
        .map(|_| probe.fire(FaultSite::MorselExecute).is_some())
        .collect();
    assert!(fired[0] && !fired[1..].contains(&true), "the draw scheme changed");
    let poisoned = config(plan);
    let mut e = engine(usize::MAX, 33, &poisoned);
    let root = q_filter_groupby(&mut e, &a, &a);
    let err = e.compute(root).unwrap_err();
    assert!(
        matches!(err, ColumnarError::WorkerPanic(ref m) if m.contains("injected")),
        "got {err:?}"
    );
    assert_eq!(e.tracker().current(), 0, "failed query must release its memory");
    // The SAME engine computes the next query.
    let root = q_filter_groupby(&mut e, &a, &a);
    let (v, _r) = e.compute(root).unwrap();
    assert!(matches!(v, DaskValue::Frame(_)));
    assert!(poisoned.faults.snapshot().panics_isolated > 0);
}

#[test]
fn cancel_token_aborts_query_cleanly() {
    let a = temp_csv("cancel", 500);
    let tracker = MemoryTracker::unlimited();
    let mut e = DaskEngine::with_threads(Arc::clone(&tracker), 33, 4);
    e.cancel_token().cancel();
    let root = q_sort_head(&mut e, &a, &a);
    let err = e.compute(root).unwrap_err();
    assert!(matches!(err, ColumnarError::Cancelled(_)), "got {err:?}");
    assert_eq!(tracker.current(), 0);
    // A fresh token makes the engine usable again.
    e.set_cancel_token(lafp_columnar::CancelToken::new());
    let root = q_sort_head(&mut e, &a, &a);
    let (v, _r) = e.compute(root).unwrap();
    assert!(matches!(v, DaskValue::Frame(_)));
}

#[test]
fn zero_query_timeout_trips_deterministically() {
    let a = temp_csv("timeout", 500);
    let config = ExecConfig {
        query_timeout: Some(std::time::Duration::ZERO),
        ..ExecConfig::from_env()
    };
    let config = config.with_threads(4);
    let mut e = engine(usize::MAX, 33, &config);
    let root = q_reduce(&mut e, &a, &a);
    let err = e.compute(root).unwrap_err();
    assert!(matches!(err, ColumnarError::Cancelled(_)), "got {err:?}");
    // A tripped deadline latches the engine's shared flag, so siblings
    // fail fast too.
    assert!(e.cancel_token().is_cancelled());
    // The same query under a config without the deadline runs.
    let mut e = engine(usize::MAX, 33, &ExecConfig { query_timeout: None, ..config });
    let root = q_reduce(&mut e, &a, &a);
    assert!(e.compute(root).is_ok());
}

#[test]
fn meta_facade_reaches_the_same_registry() {
    let faults = lafp_meta::faults::Faults::new(
        lafp_meta::faults::FaultPlan::new(11).with(lafp_meta::faults::FaultSite::Alloc, 1.0),
    );
    let t = MemoryTracker::with_config(1 << 20, &ExecConfig { faults, ..ExecConfig::default() });
    let err = t.charge(16).unwrap_err();
    assert!(matches!(err, ColumnarError::OutOfMemory { .. }), "{err:?}");
}

/// A workload CSV with a low-cardinality `tag` column (five distinct
/// values), sized past [`encoding::DICT_MIN_ROWS`] so large scan chunks
/// dictionary-encode it at ingest.
fn temp_tag_csv(rows: usize) -> PathBuf {
    let dir = std::env::temp_dir().join("lafp-chaos");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!(
        "tags-{}.csv",
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .unwrap()
            .as_nanos()
    ));
    let mut text = String::from("fare,day,tag\n");
    for i in 0..rows {
        text.push_str(&format!("{}.5,{},tag-{}\n", i as f64 - 40.0, i % 7, i % 5));
    }
    std::fs::write(&path, text).unwrap();
    path
}

/// Chaos over encoded execution: with scan chunks past the ingest
/// threshold the `tag` column arrives dictionary-encoded, the group-by
/// keys on it through the encoded fast path (decode-fallback counter
/// stays zero), and under seeded faults the query still yields the
/// baseline answer or a structured error. Finally, a *forced* spill
/// failure under a squeezed budget must drain the tracker to zero.
#[test]
fn dict_encoded_column_under_chaos() {
    let path = temp_tag_csv(2 * encoding::DICT_MIN_ROWS + 300);
    let chunk = encoding::DICT_MIN_ROWS + 24; // chunks big enough to encode
    let build = |e: &mut DaskEngine| {
        let s = scan(e, &path);
        e.add(
            DaskOp::GroupByAgg(GroupBySpec {
                keys: vec!["tag".into()],
                value: "fare".into(),
                agg: AggKind::Sum,
            }),
            vec![s],
        )
    };

    // Fault-free baseline; counters are snapshotted before the
    // fingerprint so only ingest + group-by are measured.
    encoding::global().reset();
    let fault_free = config(FaultPlan::new(0));
    let mut e = engine(usize::MAX, chunk, &fault_free);
    let tracker = Arc::clone(e.tracker());
    let root = build(&mut e);
    let (v, _r) = e.compute(root).unwrap();
    let snap = encoding::global().snapshot();
    let baseline = fingerprint(&v);
    drop((v, _r, e));
    assert_eq!(tracker.current(), 0);
    // `LAFP_NO_ENCODE=1` turns ingest encoding off; the chaos half of
    // the test still runs on the plain column.
    if fault_free.encode {
        assert!(
            snap.dict_columns > 0,
            "ingest must dictionary-encode the low-cardinality tag column"
        );
        assert_eq!(
            snap.decode_fallbacks, 0,
            "group-by on the dict key must stay on the encoded fast path"
        );
    }

    // The same query under seeded fault injection: baseline answer or
    // structured error, tracker zeroed either way (run per query below).
    for seed in [42u64, 1337, 7] {
        let chaos = config(
            FaultPlan::new(seed)
                .with(FaultSite::SpillWrite, 0.05)
                .with(FaultSite::SpillRead, 0.05)
                .with(FaultSite::CsvRead, 0.01)
                .with(FaultSite::MorselExecute, 0.005),
        );
        let mut e = engine(usize::MAX, chunk, &chaos);
        let tracker = Arc::clone(e.tracker());
        let root = build(&mut e);
        // A structured error is an accepted outcome; success must match.
        if let Ok((v, _r)) = e.compute(root) {
            assert_eq!(
                fingerprint(&v),
                baseline,
                "seed {seed}: survived faults but answered wrong"
            );
        }
        drop_without_leaks(e);
        assert_eq!(tracker.current(), 0, "seed {seed}: tracker must drain");
    }

    // Forced spill failure: a squeezed budget makes the blocking sort
    // spill, every spill write faults, and the query must fail with a
    // structured error while the tracker still drains to zero.
    let mut probe = engine(usize::MAX, chunk, &fault_free);
    let s = scan(&mut probe, &path);
    let (full, _r) = probe.gather(s).unwrap();
    let squeezed = full.heap_size() / 2;
    drop((full, _r, probe));
    let doomed = config(FaultPlan::new(5).with(FaultSite::SpillWrite, 1.0));
    let mut e = engine(squeezed, 64, &doomed);
    let tracker = Arc::clone(e.tracker());
    let s = scan(&mut e, &path);
    let so = e.add(DaskOp::Sort(SortOptions::single("fare", false)), vec![s]);
    let root = e.add(DaskOp::Head(64), vec![so]);
    let err = e.compute(root).unwrap_err();
    drop_without_leaks(e);
    assert!(
        doomed.faults.snapshot().total_injected() > 0,
        "the forced spill fault never fired"
    );
    assert_eq!(
        tracker.current(),
        0,
        "tracker must return to zero after an injected spill failure ({err})"
    );
}
