//! Differential tests for the morsel-parallel kernels: every `_par`
//! entry point (group-by, join, sort, CSV) must produce results
//! identical to its sequential kernel at every thread count — including
//! null keys, NaN-literal strings, normalized-key adversarial inputs
//! (long shared prefixes, extreme ints, -0.0/0.0), and degenerate
//! shapes (empty frames, more workers than morsels).
//!
//! Inputs are tiled above the kernels' sequential-fallback thresholds so
//! the parallel code paths genuinely run (workers, morsel claiming, run
//! merging) even on a single-core host.

use lafp_columnar::column::Column;
use lafp_columnar::csv::{read_csv, read_csv_par, CsvOptions};
use lafp_columnar::groupby::{group_by, group_by_par, GroupBySpec};
use lafp_columnar::join::{merge, merge_par, JoinKind};
use lafp_columnar::pool::{WorkerPool, PAR_MIN_ROWS};
use lafp_columnar::sort::{sort_values, sort_values_par, top_k_par, SortOptions};
use lafp_columnar::{AggKind, DType, DataFrame, Series};
use proptest::prelude::*;
use std::io::Write as _;
use std::path::PathBuf;

/// Rows used for the tiled inputs: just above the parallel threshold so
/// morsel scheduling actually engages.
const ROWS: usize = PAR_MIN_ROWS + 700;

const THREADS: [usize; 3] = [2, 3, 8];

// ---------------------------------------------------------------------------
// Helpers
// ---------------------------------------------------------------------------

/// Representation-agnostic equivalence: same length, dtype, per-row
/// scalars (nulls equal nulls; NaN is null — `PartialEq` on frames would
/// reject NaN payloads).
fn assert_frame_equiv(actual: &DataFrame, expected: &DataFrame, what: &str) {
    assert_frame_close(actual, expected, what, 0.0);
}

/// Like [`assert_frame_equiv`] but floats compare within a relative
/// `tol`. Parallel group-by folds each morsel into its own partial
/// state before merging, so float `sum`/`mean` re-associate additions —
/// every other aggregate (and every other kernel) stays bit-exact, but
/// float accumulation order is inherent to partial aggregation (the
/// Modin-style partition merge has worked this way since PR 2).
fn assert_frame_close(actual: &DataFrame, expected: &DataFrame, what: &str, tol: f64) {
    assert_eq!(actual.num_columns(), expected.num_columns(), "{what}: columns");
    assert_eq!(actual.num_rows(), expected.num_rows(), "{what}: rows");
    for (a, e) in actual.series().iter().zip(expected.series()) {
        assert_eq!(a.name(), e.name(), "{what}: column name");
        assert_eq!(a.dtype(), e.dtype(), "{what}.{}: dtype", a.name());
        for i in 0..a.len() {
            let (x, y) = (a.get(i), e.get(i));
            let ok = match (&x, &y) {
                (lafp_columnar::Scalar::Float(fx), lafp_columnar::Scalar::Float(fy)) => {
                    fx == fy || (fx - fy).abs() <= tol * fx.abs().max(fy.abs())
                }
                _ => (x.is_null() && y.is_null()) || x == y,
            };
            assert!(ok, "{what}.{} row {i}: {x:?} vs {y:?}", a.name());
        }
    }
}

/// Tile `pattern` until it is `rows` long.
fn tile<T: Clone>(pattern: &[T], rows: usize) -> Vec<T> {
    assert!(!pattern.is_empty());
    pattern.iter().cloned().cycle().take(rows).collect()
}

fn temp_csv(name: &str, content: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("lafp-parallel-tests");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("{name}-{}.csv", std::process::id()));
    let mut f = std::fs::File::create(&path).unwrap();
    f.write_all(content.as_bytes()).unwrap();
    path
}

/// A mixed frame with null keys, a duplicate-heavy string key, and
/// normalized-key adversarial content: shared 8-byte string prefixes,
/// int extremes next to nulls, -0.0 vs 0.0, NaN floats.
fn adversarial_frame(rows: usize) -> DataFrame {
    let key: Vec<Option<i64>> = tile(
        &[
            Some(3),
            None,
            Some(i64::MAX),
            Some(-5),
            Some(i64::MIN),
            Some(3),
            None,
            Some(42),
        ],
        rows,
    );
    let city: Vec<Option<String>> = tile(
        &[
            Some("prefix-shared-aaaa".to_string()),
            Some("prefix-shared-aaab".to_string()),
            Some("prefix-shared".to_string()),
            None,
            Some("NaN".to_string()),
            Some("z".to_string()),
            Some("prefix-shared-aaaa".to_string()),
            Some(String::new()),
        ],
        rows,
    );
    let fare: Vec<f64> = tile(
        &[1.5, -0.0, 0.0, f64::NAN, 7.25, -3.0, 0.0, 100.0],
        rows,
    );
    let tag: Vec<i64> = (0..rows as i64).collect();
    DataFrame::new(vec![
        Series::new("key", Column::from_opt_i64(key)),
        Series::new("city", Column::from_opt_strings(city)),
        Series::new("fare", Column::from_f64(fare)),
        Series::new("tag", Column::from_i64(tag)),
    ])
    .unwrap()
}

// ---------------------------------------------------------------------------
// Deterministic sweeps (all four kernels, every thread count)
// ---------------------------------------------------------------------------

#[test]
fn groupby_par_matches_sequential() {
    let df = adversarial_frame(ROWS);
    let specs = [
        GroupBySpec { keys: vec!["key".into()], value: "fare".into(), agg: AggKind::Sum },
        GroupBySpec { keys: vec!["city".into()], value: "fare".into(), agg: AggKind::Mean },
        GroupBySpec { keys: vec!["key".into(), "city".into()], value: "fare".into(), agg: AggKind::Min },
        GroupBySpec { keys: vec!["city".into()], value: "tag".into(), agg: AggKind::Max },
        GroupBySpec { keys: vec!["key".into()], value: "city".into(), agg: AggKind::NUnique },
        GroupBySpec { keys: vec!["city".into()], value: "key".into(), agg: AggKind::Count },
    ];
    for spec in &specs {
        let expected = group_by(&df, spec).unwrap();
        // Float sum/mean re-associate across morsels; everything else is
        // bit-exact (see assert_frame_close).
        let tol = if matches!(spec.agg, AggKind::Sum | AggKind::Mean) { 1e-12 } else { 0.0 };
        for t in THREADS {
            let got = group_by_par(&df, spec, &WorkerPool::new(t)).unwrap();
            assert_frame_close(&got, &expected, &format!("groupby {spec:?} t={t}"), tol);
        }
    }
}

#[test]
fn join_par_matches_sequential() {
    let left = adversarial_frame(ROWS);
    // Small build side (sequential build, parallel probe): dups, a null
    // key, a key with no left match, and missing keys for Left-join nulls.
    let right = DataFrame::new(vec![
        Series::new(
            "key",
            Column::from_opt_i64(vec![Some(3), Some(3), None, Some(i64::MIN), Some(77)]),
        ),
        Series::new(
            "label",
            Column::from_strings(vec!["three-a", "three-b", "null-key", "min", "lonely"]),
        ),
        Series::new("boost", Column::from_f64(vec![0.5, 1.5, 2.5, 3.5, 4.5])),
    ])
    .unwrap();
    for how in [JoinKind::Inner, JoinKind::Left] {
        let expected = merge(&left, &right, &["key".into()], how).unwrap();
        for t in THREADS {
            let got = merge_par(&left, &right, &["key".into()], how, &WorkerPool::new(t)).unwrap();
            assert_frame_equiv(&got, &expected, &format!("join {how:?} t={t}"));
        }
    }
    // Multi-key (string + int) with the "NaN" literal in play.
    let right2 = DataFrame::new(vec![
        Series::new("city", Column::from_strings(vec!["NaN", "prefix-shared-aaaa", "z"])),
        Series::new("key", Column::from_opt_i64(vec![None, Some(3), Some(-5)])),
        Series::new("w", Column::from_i64(vec![10, 20, 30])),
    ])
    .unwrap();
    let on = vec!["city".to_string(), "key".to_string()];
    let expected = merge(&left, &right2, &on, JoinKind::Left).unwrap();
    for t in THREADS {
        let got = merge_par(&left, &right2, &on, JoinKind::Left, &WorkerPool::new(t)).unwrap();
        assert_frame_equiv(&got, &expected, &format!("multikey join t={t}"));
    }
}

#[test]
fn join_par_large_build_side_partitions() {
    // Build side above PAR_MIN_ROWS: exercises the hash-partitioned
    // parallel build (per-worker partitions merged into one table).
    let left = adversarial_frame(ROWS);
    let right_rows = PAR_MIN_ROWS + 350;
    let rkey: Vec<Option<i64>> = (0..right_rows)
        .map(|i| {
            if i % 11 == 0 {
                None
            } else {
                Some((i % 97) as i64 - 5)
            }
        })
        .collect();
    let right = DataFrame::new(vec![
        Series::new("key", Column::from_opt_i64(rkey)),
        Series::new(
            "rv",
            Column::from_i64((0..right_rows as i64).collect()),
        ),
    ])
    .unwrap();
    for how in [JoinKind::Inner, JoinKind::Left] {
        let expected = merge(&left, &right, &["key".into()], how).unwrap();
        for t in THREADS {
            let got = merge_par(&left, &right, &["key".into()], how, &WorkerPool::new(t)).unwrap();
            assert_frame_equiv(&got, &expected, &format!("big-build join {how:?} t={t}"));
        }
    }
}

#[test]
fn sort_par_matches_sequential() {
    let df = adversarial_frame(ROWS);
    let option_sets = [
        SortOptions::single("fare", true),
        SortOptions::single("fare", false),
        SortOptions::single("city", true),
        SortOptions {
            by: vec!["city".into(), "fare".into()],
            ascending: vec![true, false],
        },
        SortOptions {
            by: vec!["key".into(), "city".into(), "fare".into()],
            ascending: vec![false, true, true],
        },
        // The `tag` tie-break column makes stability violations visible.
        SortOptions {
            by: vec!["key".into(), "tag".into()],
            ascending: vec![true, true],
        },
    ];
    for options in &option_sets {
        let expected = sort_values(&df, options).unwrap();
        for t in THREADS {
            let got = sort_values_par(&df, options, &WorkerPool::new(t)).unwrap();
            assert_frame_equiv(&got, &expected, &format!("sort {:?} t={t}", options.by));
            // top_k_par: the full-sort case on the pool, a prefix otherwise.
            let rows = df.num_rows();
            for n in [7, rows, rows + 1] {
                let got = top_k_par(&df, options, n, &WorkerPool::new(t)).unwrap();
                let what = format!("top_k_par {:?} n={n} t={t}", options.by);
                assert_frame_equiv(&got, &expected.head(n), &what);
            }
        }
    }
}

#[test]
fn csv_par_matches_sequential() {
    // Mixed dtypes, quoted commas and quotes, empty (null) cells, CRLF
    // on some lines, and enough bytes to clear the parallel threshold.
    let mut content = String::from("id,fare,city,note,ok\n");
    for i in 0..(PAR_MIN_ROWS + 500) {
        let fare = if i % 37 == 0 { String::new() } else { format!("{:.2}", i as f64 * 0.13) };
        let line_end = if i % 5 == 0 { "\r\n" } else { "\n" };
        if i % 7 == 0 {
            content.push_str(&format!(
                "{i},{fare},\"City, {}\",\"say \"\"hi\"\" {}\",true{line_end}",
                i % 80,
                i % 13
            ));
        } else {
            content.push_str(&format!(
                "{i},{fare},City{},padding-note-{}-xxxxxxxx,false{line_end}",
                i % 80,
                i % 13
            ));
        }
    }
    let path = temp_csv("mixed", &content);
    for opts in [
        CsvOptions::new(),
        CsvOptions::new().with_usecols(vec!["city".into(), "id".into()]),
        CsvOptions::new()
            .with_dtype("id", DType::Float64)
            .with_dtype("city", DType::Categorical),
    ] {
        let expected = read_csv(&path, &opts).unwrap();
        for t in THREADS {
            let got = read_csv_par(&path, &opts, &WorkerPool::new(t)).unwrap();
            assert_frame_equiv(&got, &expected, &format!("csv t={t}"));
            // The parallel reader must agree bit-for-bit, including
            // representation (validity layout), not just scalar-wise.
            assert_eq!(got.schema(), expected.schema(), "csv schema t={t}");
        }
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn csv_par_error_parity() {
    // A ragged row deep in the file: the parallel reader must report the
    // same line number the streaming reader does.
    let mut content = String::from("a,b\n");
    let bad_line = PAR_MIN_ROWS / 2;
    for i in 0..PAR_MIN_ROWS {
        if i == bad_line {
            content.push_str("only-one-field-padding-padding-padding\n");
        } else {
            content.push_str(&format!("{i},{}-padding-padding-padding-pad\n", i * 2));
        }
    }
    let path = temp_csv("ragged", &content);
    let seq = read_csv(&path, &CsvOptions::new()).unwrap_err().to_string();
    for t in THREADS {
        let par = read_csv_par(&path, &CsvOptions::new(), &WorkerPool::new(t))
            .unwrap_err()
            .to_string();
        assert_eq!(par, seq, "t={t}");
    }
    // Parse errors carry the same line number too.
    let opts = CsvOptions::new().with_dtype("a", DType::Int64);
    let mut content = String::from("a,b\n");
    for i in 0..PAR_MIN_ROWS {
        if i == bad_line {
            content.push_str("not-a-number,xxxxxxxxxxxxxxxxxxxxxxxxxxxxx\n");
        } else {
            content.push_str(&format!("{i},xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx\n"));
        }
    }
    let path2 = temp_csv("badnum", &content);
    let seq = read_csv(&path2, &opts).unwrap_err().to_string();
    for t in THREADS {
        let par = read_csv_par(&path2, &opts, &WorkerPool::new(t))
            .unwrap_err()
            .to_string();
        assert_eq!(par, seq, "t={t}");
    }
    // A parse error INSIDE the dtype-inference sample: the streaming
    // reader buffers those rows and parses them later, so it must
    // remember each sample row's own line number.
    let mut content = String::from("a,b\n");
    for i in 0..PAR_MIN_ROWS {
        if i == 3 {
            content.push_str("not-a-number,xxxxxxxxxxxxxxxxxxxxxxxxxxxxx\n");
        } else {
            content.push_str(&format!("{i},xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx\n"));
        }
    }
    let path3 = temp_csv("badsample", &content);
    let seq = read_csv(&path3, &opts).unwrap_err().to_string();
    assert!(seq.contains("line 5"), "sample-row error carries its own line: {seq}");
    for t in THREADS {
        let par = read_csv_par(&path3, &opts, &WorkerPool::new(t))
            .unwrap_err()
            .to_string();
        assert_eq!(par, seq, "t={t}");
    }
    std::fs::remove_file(&path).ok();
    std::fs::remove_file(&path2).ok();
    std::fs::remove_file(&path3).ok();
}

#[test]
fn degenerate_shapes_fall_back() {
    // Empty and tiny frames route through the sequential kernels at any
    // thread count (no morsels to claim) and must agree exactly.
    let empty = DataFrame::new(vec![
        Series::new("k", Column::from_i64(vec![])),
        Series::new("v", Column::from_f64(vec![])),
    ])
    .unwrap();
    let tiny = DataFrame::new(vec![
        Series::new("k", Column::from_i64(vec![2, 1])),
        Series::new("v", Column::from_f64(vec![0.5, 1.5])),
    ])
    .unwrap();
    let spec = GroupBySpec { keys: vec!["k".into()], value: "v".into(), agg: AggKind::Sum };
    let options = SortOptions::single("k", true);
    for df in [&empty, &tiny] {
        for t in THREADS {
            let pool = WorkerPool::new(t);
            assert_frame_equiv(
                &group_by_par(df, &spec, &pool).unwrap(),
                &group_by(df, &spec).unwrap(),
                "tiny groupby",
            );
            assert_frame_equiv(
                &sort_values_par(df, &options, &pool).unwrap(),
                &sort_values(df, &options).unwrap(),
                "tiny sort",
            );
            assert_frame_equiv(
                &merge_par(df, df, &["k".into()], JoinKind::Inner, &pool).unwrap(),
                &merge(df, df, &["k".into()], JoinKind::Inner).unwrap(),
                "tiny join",
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Randomized properties (tiled above the parallel threshold)
// ---------------------------------------------------------------------------

proptest! {
    #[test]
    fn par_groupby_tiled_matches(
        keys in prop::collection::vec(-4i64..4, 4..24),
        nulls in prop::collection::vec(any::<bool>(), 4..24),
        vals in prop::collection::vec(-100.0f64..100.0, 4..24),
        threads in 2usize..9,
        agg_pick in 0usize..4,
    ) {
        let n = keys.len().min(nulls.len()).min(vals.len());
        let key: Vec<Option<i64>> =
            (0..n).map(|i| (!nulls[i]).then(|| keys[i])).collect();
        let df = DataFrame::new(vec![
            Series::new("k", Column::from_opt_i64(tile(&key, ROWS))),
            Series::new("v", Column::from_f64(tile(&vals[..n], ROWS))),
        ]).unwrap();
        let agg = [AggKind::Sum, AggKind::Mean, AggKind::Min, AggKind::NUnique][agg_pick];
        let spec = GroupBySpec { keys: vec!["k".into()], value: "v".into(), agg };
        let expected = group_by(&df, &spec).unwrap();
        let got = group_by_par(&df, &spec, &WorkerPool::new(threads)).unwrap();
        let tol = if matches!(agg, AggKind::Sum | AggKind::Mean) { 1e-12 } else { 0.0 };
        assert_frame_close(&got, &expected, "tiled groupby", tol);
    }

    #[test]
    fn par_join_tiled_matches(
        lk in prop::collection::vec(-6i64..6, 4..24),
        lnull in prop::collection::vec(any::<bool>(), 4..24),
        rk in prop::collection::vec(-6i64..6, 1..12),
        rnull in prop::collection::vec(any::<bool>(), 1..12),
        threads in 2usize..9,
        left_join in any::<bool>(),
    ) {
        let ln = lk.len().min(lnull.len());
        let rn = rk.len().min(rnull.len());
        let lkey: Vec<Option<i64>> = (0..ln).map(|i| (!lnull[i]).then(|| lk[i])).collect();
        let rkey: Vec<Option<i64>> = (0..rn).map(|i| (!rnull[i]).then(|| rk[i])).collect();
        let left = DataFrame::new(vec![
            Series::new("k", Column::from_opt_i64(tile(&lkey, ROWS))),
            Series::new("tag", Column::from_i64((0..ROWS as i64).collect())),
        ]).unwrap();
        let right = DataFrame::new(vec![
            Series::new("k", Column::from_opt_i64(rkey)),
            Series::new("w", Column::from_i64((0..rn as i64).collect())),
        ]).unwrap();
        let how = if left_join { JoinKind::Left } else { JoinKind::Inner };
        let expected = merge(&left, &right, &["k".into()], how).unwrap();
        let got = merge_par(&left, &right, &["k".into()], how, &WorkerPool::new(threads)).unwrap();
        assert_frame_equiv(&got, &expected, "tiled join");
    }

    #[test]
    fn par_sort_tiled_matches(
        strs in prop::collection::vec("[ab]{0,12}", 4..20),
        snull in prop::collection::vec(any::<bool>(), 4..20),
        nums in prop::collection::vec(-50i64..50, 4..20),
        threads in 2usize..9,
        asc1 in any::<bool>(),
        asc2 in any::<bool>(),
    ) {
        let n = strs.len().min(snull.len()).min(nums.len());
        let svals: Vec<Option<String>> =
            (0..n).map(|i| (!snull[i]).then(|| strs[i].clone())).collect();
        let df = DataFrame::new(vec![
            Series::new("s", Column::from_opt_strings(tile(&svals, ROWS))),
            Series::new("n", Column::from_i64(tile(&nums[..n], ROWS))),
            Series::new("tag", Column::from_i64((0..ROWS as i64).collect())),
        ]).unwrap();
        let options = SortOptions {
            by: vec!["s".into(), "n".into()],
            ascending: vec![asc1, asc2],
        };
        let expected = sort_values(&df, &options).unwrap();
        let got = sort_values_par(&df, &options, &WorkerPool::new(threads)).unwrap();
        assert_frame_equiv(&got, &expected, "tiled sort");
    }
}
