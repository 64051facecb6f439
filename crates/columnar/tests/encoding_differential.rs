//! Differential property tests for encoded execution: every kernel must
//! produce results identical on an encoded column (`Column::Dict`,
//! `Column::Rle`) and on its decoded plain twin. Encodings are only
//! allowed to change the *cost* of a kernel, never its result.
//!
//! Every dictionary case also runs on the category flavour of the same
//! strings (the one `Dict` layout with its `category` flag set), checked
//! against the seed references over the builder-made category column
//! and required to keep `DType::Categorical` wherever pandas keeps it.
//!
//! Edge regimes the ISSUE calls out get dedicated deterministic tests:
//! null-heavy columns, empty columns, single-run columns, and columns
//! whose runs straddle the 64 Ki morsel seam — each exercised through
//! the parallel kernels at 1, 2, and 8 threads. The whole suite also
//! passes under `LAFP_NO_ENCODE=1`: encodings are built explicitly here
//! (not through the ingest heuristics), so the escape hatch only turns
//! off the auto-detection and fast-path gates, never correctness.

use lafp_columnar::column::{ArithOp, CmpOp, StrOp};
use lafp_columnar::encoding::dict_encode;
use lafp_columnar::groupby::{group_by, group_by_par};
use lafp_columnar::join::{merge, merge_par};
use lafp_columnar::sort::{nlargest, sort_values, sort_values_par};
use lafp_columnar::spill::{spill_frame, SpillDir};
use lafp_columnar::{
    AggKind, Bitmap, Column, DType, DataFrame, GroupBySpec, JoinKind, Scalar, Series, SortOptions,
    WorkerPool,
};
use lafp_oracle::equiv::{assert_col_equiv, assert_frame_equiv};
use lafp_oracle::reference::{
    cast_ref, compare_scalar_ref, filter_ref, force_rle, group_by_ref, merge_ref, sort_values_ref,
};
use proptest::prelude::*;

// ---------------------------------------------------------------------------
// Builders
// ---------------------------------------------------------------------------

/// A plain string column plus its dictionary-encoded twin.
fn dict_pair(vals: &[String], nulls: &[bool]) -> (Column, Column) {
    let n = vals.len().min(nulls.len());
    let plain = Column::from_opt_strings(
        (0..n)
            .map(|i| (!nulls[i]).then(|| vals[i].clone()))
            .collect(),
    );
    let enc = dict_encode(&plain).expect("string column under the cardinality cap");
    (plain, enc)
}

/// A plain i64 column plus its run-length-encoded twin. Runs are forced
/// (no shrink heuristic) so even run-hostile inputs get an RLE twin.
fn rle_pair(runs: &[(Option<i64>, usize)]) -> (Column, Column) {
    let mut opt: Vec<Option<i64>> = Vec::new();
    for &(v, len) in runs {
        for _ in 0..len {
            opt.push(v);
        }
    }
    let plain = Column::from_opt_i64(opt);
    let enc = force_rle(&plain);
    (plain, enc)
}

fn frame(cols: Vec<(&str, Column)>) -> DataFrame {
    DataFrame::new(
        cols.into_iter()
            .map(|(n, c)| Series::new(n.to_string(), c))
            .collect(),
    )
    .unwrap()
}

/// Run one logical frame through a kernel twice — once with the encoded
/// key/value column, once with its plain twin — and demand identical
/// results at every requested thread count (1 = sequential kernel).
fn groupby_both(
    encoded: &Column,
    plain: &Column,
    values: &Column,
    agg: AggKind,
    threads: &[usize],
    what: &str,
) {
    let fe = frame(vec![("k", encoded.clone()), ("v", values.clone())]);
    let fp = frame(vec![("k", plain.clone()), ("v", values.clone())]);
    let spec = GroupBySpec {
        keys: vec!["k".into()],
        value: "v".into(),
        agg,
    };
    let reference = group_by(&fp, &spec).unwrap();
    for &t in threads {
        let got = if t <= 1 {
            group_by(&fe, &spec).unwrap()
        } else {
            group_by_par(&fe, &spec, &WorkerPool::new(t)).unwrap()
        };
        assert_frame_equiv(&got, &reference, &format!("{what} groupby t={t}"));
    }
}

fn sort_both(encoded: &Column, plain: &Column, threads: &[usize], what: &str) {
    let tag = Column::from_opt_i64((0..encoded.len()).map(|i| Some(i as i64)).collect());
    let fe = frame(vec![("k", encoded.clone()), ("row", tag.clone())]);
    let fp = frame(vec![("k", plain.clone()), ("row", tag)]);
    for asc in [true, false] {
        let options = SortOptions {
            by: vec!["k".into()],
            ascending: vec![asc],
        };
        let reference = sort_values(&fp, &options).unwrap();
        for &t in threads {
            let got = if t <= 1 {
                sort_values(&fe, &options).unwrap()
            } else {
                sort_values_par(&fe, &options, &WorkerPool::new(t)).unwrap()
            };
            assert_frame_equiv(&got, &reference, &format!("{what} sort asc={asc} t={t}"));
        }
    }
}

/// Spill the frame and read it back; encoded columns must round-trip
/// through LAFPSPL1 bit-identically (structural equality on the same
/// variant checks codes, dictionary, run values, and run ends verbatim).
fn spill_round_trip(f: &DataFrame, what: &str) {
    let dir = SpillDir::in_temp();
    let file = spill_frame(&dir, f).unwrap();
    let frames = file.read_all().unwrap();
    assert_eq!(frames.len(), 1, "{what}: one spilled frame");
    for (a, e) in frames[0].series().iter().zip(f.series()) {
        assert_eq!(
            a.column(),
            e.column(),
            "{what}: column {} must round-trip bit-identically",
            e.name()
        );
    }
}

/// The category flavour of a plain string column: every dictionary
/// kernel (compare verdicts, used-code min/max/nunique, per-entry `.str`
/// ops, sort ranks, the dense group-by, the dictionary join probe and
/// the spill round trip) on `cat` must equal the seed reference over the
/// builder-made category twin of `plain`, and keep the `Categorical`
/// dtype wherever pandas keeps it. `threads` picks the sequential (1) or
/// pooled kernels.
fn category_flavour_matches_oracle(
    cat: &Column,
    plain: &Column,
    values: &Column,
    pivots: &[&str],
    threads: &[usize],
    what: &str,
) {
    let oracle = cast_ref(plain, DType::Categorical).unwrap();
    assert_eq!(
        cat.dtype(),
        DType::Categorical,
        "{what}: to_categorical dtype"
    );
    assert!(
        !cat.is_encoded(),
        "{what}: a category is not a transparent encoding"
    );
    assert_eq!(
        cat.decode().dtype(),
        DType::Categorical,
        "{what}: decode keeps category"
    );
    assert_col_equiv(cat, &oracle, &format!("{what} category rows"));
    assert_col_equiv(&cat.to_utf8().unwrap(), plain, &format!("{what} to_utf8"));
    // `cast` to Utf8 is one gather off the dictionary: it must match the
    // per-row reference on the category (null codes included), on a
    // filtered copy whose dictionary keeps entries no row uses, and on a
    // run-length copy.
    let pivot = Scalar::Str(pivots[0].to_string());
    let unused = cat.filter(&cat.compare_scalar(CmpOp::Eq, &pivot).unwrap()).unwrap();
    for (flavour, col) in [("category", cat.clone()), ("unused entries", unused), ("rle", force_rle(cat))] {
        assert_eq!(col.dtype(), DType::Categorical, "{what} {flavour}");
        let want = cast_ref(&col, DType::Utf8).unwrap();
        assert_col_equiv(&col.cast(DType::Utf8).unwrap(), &want, &format!("{what} {flavour} cast"));
    }
    assert_eq!(cat.min(), plain.min(), "{what}: min");
    assert_eq!(cat.max(), plain.max(), "{what}: max");
    assert_eq!(cat.nunique(), plain.nunique(), "{what}: nunique");

    let fe = frame(vec![("k", cat.clone()), ("v", values.clone())]);
    let fo = frame(vec![("k", oracle.clone()), ("v", values.clone())]);
    for pivot in pivots {
        let lit = Scalar::Str(pivot.to_string());
        for op in [CmpOp::Eq, CmpOp::Ne, CmpOp::Lt, CmpOp::Ge] {
            let got = cat.compare_scalar(op, &lit).unwrap();
            assert_eq!(
                got,
                compare_scalar_ref(&oracle, op, &lit),
                "{what}: compare_scalar {op:?} {pivot:?}"
            );
            let kept = fe.filter(&got).unwrap();
            assert_eq!(kept.column("k").unwrap().dtype(), DType::Categorical);
            assert_frame_equiv(
                &kept,
                &filter_ref(&fo, &got),
                &format!("{what} filter {op:?}"),
            );
        }
        // `.str` on a category is `object` in pandas: Utf8, not category.
        for op in [
            StrOp::Lower,
            StrOp::Upper,
            StrOp::Len,
            StrOp::Contains(pivot.to_string()),
            StrOp::StartsWith(pivot.to_string()),
        ] {
            let got = cat.str_op(&op).unwrap();
            assert_ne!(got.dtype(), DType::Categorical, "{what}: str.{op:?} dtype");
            assert_col_equiv(
                &got,
                &plain.str_op(&op).unwrap(),
                &format!("{what} str.{op:?}"),
            );
        }
    }

    let rows = Column::from_i64((0..cat.len() as i64).collect());
    let se = frame(vec![("k", cat.clone()), ("row", rows.clone())]);
    let so = frame(vec![("k", oracle.clone()), ("row", rows)]);
    for asc in [true, false] {
        let options = SortOptions::single("k", asc);
        let reference = sort_values_ref(&so, &options);
        for &t in threads {
            let got = if t <= 1 {
                sort_values(&se, &options).unwrap()
            } else {
                sort_values_par(&se, &options, &WorkerPool::new(t)).unwrap()
            };
            assert_eq!(got.column("k").unwrap().dtype(), DType::Categorical);
            assert_frame_equiv(&got, &reference, &format!("{what} sort asc={asc} t={t}"));
        }
    }

    for agg in [AggKind::Sum, AggKind::Count, AggKind::NUnique] {
        let spec = GroupBySpec {
            keys: vec!["k".into()],
            value: "v".into(),
            agg,
        };
        let reference = group_by_ref(&fo, &spec);
        for &t in threads {
            let got = if t <= 1 {
                group_by(&fe, &spec).unwrap()
            } else {
                group_by_par(&fe, &spec, &WorkerPool::new(t)).unwrap()
            };
            assert_frame_equiv(&got, &reference, &format!("{what} groupby {agg:?} t={t}"));
        }
    }

    // Both sides category: the join probes through the code remap.
    let entries = Column::from_strings(["", "a", "b", "tag3", "g2", "only", "zz", "cc"]);
    let payload = Column::from_i64((0..entries.len() as i64).collect());
    let re = frame(vec![
        ("k", entries.to_categorical().unwrap()),
        ("pay", payload.clone()),
    ]);
    let ro = frame(vec![
        ("k", cast_ref(&entries, DType::Categorical).unwrap()),
        ("pay", payload),
    ]);
    let on = vec!["k".to_string()];
    for how in [JoinKind::Inner, JoinKind::Left] {
        let reference = merge_ref(&fo, &ro, &on, how);
        for &t in threads {
            let got = if t <= 1 {
                merge(&fe, &re, &on, how).unwrap()
            } else {
                merge_par(&fe, &re, &on, how, &WorkerPool::new(t)).unwrap()
            };
            assert_eq!(got.column("k").unwrap().dtype(), DType::Categorical);
            assert_frame_equiv(&got, &reference, &format!("{what} join {how:?} t={t}"));
        }
    }

    spill_round_trip(&fe, &format!("{what} category"));
}

// ---------------------------------------------------------------------------
// Deterministic edge regimes at 1/2/8 threads
// ---------------------------------------------------------------------------

const THREADS: [usize; 3] = [1, 2, 8];

#[test]
fn empty_columns_behave_like_plain() {
    let (plain_s, dict) = dict_pair(&[], &[]);
    let (plain_i, rle) = rle_pair(&[]);
    assert_eq!(dict.len(), 0);
    assert_eq!(rle.len(), 0);
    assert_col_equiv(&dict.decode(), &plain_s, "empty dict decode");
    assert_col_equiv(&rle.decode(), &plain_i, "empty rle decode");
    assert_eq!(dict.sum(), plain_s.sum());
    assert_eq!(rle.sum(), plain_i.sum());
    assert_eq!(rle.nunique(), plain_i.nunique());
    let mask = rle.compare_scalar(CmpOp::Eq, &Scalar::Int(1)).unwrap();
    assert_eq!(mask.len(), 0);
    spill_round_trip(
        &frame(vec![("s", dict), ("i", rle)]),
        "empty encoded frame",
    );
    let none = Column::from_i64(Vec::new());
    let cat = plain_s.to_categorical().unwrap();
    category_flavour_matches_oracle(&cat, &plain_s, &none, &["a"], &THREADS, "empty");
}

#[test]
fn single_run_column_spanning_the_morsel_seam() {
    // One run of 70 000 identical rows: crosses the 64 Ki (65 536)
    // morsel boundary, so parallel kernels split the run across workers.
    const N: usize = 70_000;
    let (plain, rle) = rle_pair(&[(Some(42), N)]);
    match &rle {
        Column::Rle(r) => assert_eq!(r.num_runs(), 1),
        other => panic!("expected Rle, got {other:?}"),
    }
    assert_eq!(rle.sum(), Scalar::Int(42 * N as i64));
    assert_eq!(rle.sum(), plain.sum());
    let mask = rle.compare_scalar(CmpOp::Eq, &Scalar::Int(42)).unwrap();
    assert_eq!(mask.count_set(), N);

    let svals: Vec<String> = vec!["only".to_string(); N];
    let (plain_s, dict) = dict_pair(&svals, &vec![false; N]);
    let values = Column::from_opt_i64((0..N).map(|i| Some(i as i64 % 11)).collect());
    groupby_both(&dict, &plain_s, &values, AggKind::Sum, &THREADS, "single-run");
    groupby_both(&rle, &plain, &values, AggKind::Count, &THREADS, "single-run rle key");
    sort_both(&dict, &plain_s, &THREADS, "single-run dict");
    let cat = plain_s.to_categorical().unwrap();
    category_flavour_matches_oracle(&cat, &plain_s, &values, &["only"], &THREADS, "single-run");
    spill_round_trip(&frame(vec![("k", dict), ("r", rle)]), "single-run");
}

#[test]
fn null_heavy_columns_match_plain() {
    // ~80 % nulls, pseudo-random but deterministic.
    const N: usize = 66_000;
    let nulls: Vec<bool> = (0..N).map(|i| (i * 2654435761usize) % 10 < 8).collect();
    let svals: Vec<String> = (0..N).map(|i| format!("tag{}", i % 6)).collect();
    let (plain_s, dict) = dict_pair(&svals, &nulls);
    let runs: Vec<(Option<i64>, usize)> = (0..N / 500)
        .map(|i| {
            let v = (i % 7 != 0).then(|| (i % 13) as i64 - 6);
            (v, 500)
        })
        .collect();
    let (plain_i, rle) = rle_pair(&runs);

    assert_col_equiv(&dict.decode(), &plain_s, "null-heavy dict decode");
    assert_col_equiv(&rle.decode(), &plain_i, "null-heavy rle decode");
    assert_eq!(dict.nunique(), plain_s.nunique());
    assert_eq!(rle.nunique(), plain_i.nunique());
    assert_eq!(rle.sum(), plain_i.sum());
    assert_eq!(dict.min(), plain_s.min());
    assert_eq!(dict.max(), plain_s.max());

    // Filter through an encoded predicate, compare frame-level results.
    for (enc, plain, pivot, what) in [
        (&dict, &plain_s, Scalar::Str("tag3".into()), "dict"),
        (&rle, &plain_i, Scalar::Int(2), "rle"),
    ] {
        for op in [CmpOp::Eq, CmpOp::Ne, CmpOp::Lt, CmpOp::Ge] {
            let me = enc.compare_scalar(op, &pivot).unwrap();
            let mp = plain.compare_scalar(op, &pivot).unwrap();
            assert_eq!(me.count_set(), mp.count_set(), "{what} {op:?} popcount");
            assert_col_equiv(
                &enc.filter(&me).unwrap().decode(),
                &plain.filter(&mp).unwrap(),
                &format!("{what} filtered {op:?}"),
            );
        }
    }

    let values = Column::from_opt_i64(
        (0..N)
            .map(|i| (i % 9 != 0).then_some(i as i64 % 101))
            .collect(),
    );
    groupby_both(&dict, &plain_s, &values, AggKind::Sum, &THREADS, "null-heavy");
    groupby_both(&dict, &plain_s, &values, AggKind::Mean, &THREADS, "null-heavy");
    sort_both(&dict, &plain_s, &THREADS, "null-heavy dict");
    sort_both(&rle, &plain_i, &THREADS, "null-heavy rle");
    let cat = plain_s.to_categorical().unwrap();
    category_flavour_matches_oracle(&cat, &plain_s, &values, &["tag3"], &THREADS, "null-heavy");
    spill_round_trip(&frame(vec![("k", dict), ("r", rle)]), "null-heavy");
}

#[test]
fn runs_straddling_the_morsel_seam() {
    // Runs of 1000 rows never align with the 65 536-row morsel seam, so
    // every worker boundary cuts a run in half.
    const N: usize = 131_000;
    let runs: Vec<(Option<i64>, usize)> = (0..N / 1000)
        .map(|i| (Some((i % 5) as i64), 1000))
        .collect();
    let (plain, rle) = rle_pair(&runs);
    let svals: Vec<String> = (0..N).map(|i| format!("g{}", (i / 1000) % 5)).collect();
    let (plain_s, dict) = dict_pair(&svals, &vec![false; N]);
    let values = Column::from_opt_i64((0..N).map(|i| Some((i % 17) as i64)).collect());

    groupby_both(&dict, &plain_s, &values, AggKind::Sum, &THREADS, "seam dict");
    groupby_both(&dict, &plain_s, &values, AggKind::Min, &THREADS, "seam dict");
    groupby_both(&rle, &plain, &values, AggKind::Sum, &THREADS, "seam rle key");
    sort_both(&dict, &plain_s, &THREADS, "seam dict");

    // Join on the encoded key at each thread count; plain join is the
    // reference. Both sides dict-encoded shares the code fast path.
    let right_vals: Vec<String> = (0..5).map(|i| format!("g{i}")).collect();
    let (rplain, rdict) = dict_pair(&right_vals, &[false; 5]);
    let payload = Column::from_opt_i64((0..5).map(|i| Some(i * 100)).collect());
    let le = frame(vec![("k", dict.clone()), ("v", values.clone())]);
    let lp = frame(vec![("k", plain_s.clone()), ("v", values.clone())]);
    let re = frame(vec![("k", rdict), ("pay", payload.clone())]);
    let rp = frame(vec![("k", rplain), ("pay", payload)]);
    let on = vec!["k".to_string()];
    let reference = merge(&lp, &rp, &on, JoinKind::Inner).unwrap();
    for t in THREADS {
        let got = if t <= 1 {
            merge(&le, &re, &on, JoinKind::Inner).unwrap()
        } else {
            merge_par(&le, &re, &on, JoinKind::Inner, &WorkerPool::new(t)).unwrap()
        };
        assert_frame_equiv(&got, &reference, &format!("seam join t={t}"));
    }

    // Arithmetic over an RLE operand matches plain execution.
    let sum_enc = rle.arith(ArithOp::Add, &values).unwrap();
    let sum_plain = plain.arith(ArithOp::Add, &values).unwrap();
    assert_col_equiv(&sum_enc.decode(), &sum_plain, "seam rle arith");

    // top-n over a frame carrying encoded columns.
    let tn_e = nlargest(&le, 37, "v").unwrap();
    let tn_p = nlargest(&lp, 37, "v").unwrap();
    for (a, e) in tn_e.series().iter().zip(tn_p.series()) {
        assert_col_equiv(&a.column().decode(), &e.column().decode(), "seam top-n");
    }

    let cat = plain_s.to_categorical().unwrap();
    category_flavour_matches_oracle(&cat, &plain_s, &values, &["g2"], &THREADS, "seam");
    spill_round_trip(&frame(vec![("k", dict), ("r", rle)]), "seam");
}

// ---------------------------------------------------------------------------
// Randomized differentials
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn dict_kernels_match_decoded(
        vals in prop::collection::vec("[a-e]{0,3}", 0..300),
        nulls in prop::collection::vec(any::<bool>(), 0..300),
        ints in prop::collection::vec(-50i64..50, 0..300),
        pivot in "[a-e]{0,3}",
    ) {
        let n = vals.len().min(nulls.len()).min(ints.len());
        let (plain, dict) = dict_pair(&vals[..n], &nulls[..n]);
        let values = Column::from_opt_i64(ints[..n].iter().map(|&v| Some(v)).collect());

        assert_col_equiv(&dict.decode(), &plain, "decode");
        prop_assert_eq!(dict.nunique(), plain.nunique());
        prop_assert_eq!(dict.min(), plain.min());
        prop_assert_eq!(dict.max(), plain.max());

        for op in [CmpOp::Eq, CmpOp::Ne, CmpOp::Lt, CmpOp::Ge] {
            let me = dict.compare_scalar(op, &Scalar::Str(pivot.clone())).unwrap();
            let mp = plain.compare_scalar(op, &Scalar::Str(pivot.clone())).unwrap();
            prop_assert_eq!(me.count_set(), mp.count_set());
            assert_col_equiv(
                &dict.filter(&me).unwrap().decode(),
                &plain.filter(&mp).unwrap(),
                "filter",
            );
        }

        if n > 0 {
            groupby_both(&dict, &plain, &values, AggKind::Sum, &[1], "prop dict");
            groupby_both(&dict, &plain, &values, AggKind::NUnique, &[1], "prop dict");
            sort_both(&dict, &plain, &[1], "prop dict");
        }
        let cat = plain.to_categorical().unwrap();
        category_flavour_matches_oracle(&cat, &plain, &values, &[pivot.as_str()], &[1], "prop");
        spill_round_trip(&frame(vec![("k", dict)]), "prop dict");
    }

    #[test]
    fn rle_kernels_match_decoded(
        runs in prop::collection::vec((prop::option::of(-9i64..9), 1usize..20), 0..40),
        pivot in -9i64..9,
    ) {
        let (plain, rle) = rle_pair(&runs);
        let n = plain.len();
        assert_col_equiv(&rle.decode(), &plain, "decode");
        prop_assert_eq!(rle.sum(), plain.sum());
        prop_assert_eq!(rle.nunique(), plain.nunique());
        prop_assert_eq!(rle.min(), plain.min());
        prop_assert_eq!(rle.max(), plain.max());

        for op in [CmpOp::Eq, CmpOp::Ne, CmpOp::Lt, CmpOp::Ge] {
            let me = rle.compare_scalar(op, &Scalar::Int(pivot)).unwrap();
            let mp = plain.compare_scalar(op, &Scalar::Int(pivot)).unwrap();
            prop_assert_eq!(me.count_set(), mp.count_set());
            assert_col_equiv(
                &rle.filter(&me).unwrap().decode(),
                &plain.filter(&mp).unwrap(),
                "filter",
            );
        }

        if n > 0 {
            // Slices at awkward offsets keep run bookkeeping honest.
            let third = n / 3;
            assert_col_equiv(
                &rle.slice(third, n - third).decode(),
                &plain.slice(third, n - third),
                "slice",
            );
            let idx: Vec<usize> = (0..n).rev().step_by(2).collect();
            assert_col_equiv(
                &rle.take(&idx).unwrap().decode(),
                &plain.take(&idx).unwrap(),
                "take",
            );
            let values = Column::from_opt_i64((0..n).map(|i| Some(i as i64)).collect());
            groupby_both(&rle, &plain, &values, AggKind::Sum, &[1], "prop rle key");
            sort_both(&rle, &plain, &[1], "prop rle");
        }
        spill_round_trip(&frame(vec![("r", rle)]), "prop rle");
    }
}

/// `Column::filter` on a Dict column keeps the full dictionary, so the
/// survivors reference entries that no longer occur in any row —
/// including the would-be min (`"aa"`) and max (`"zz"`). Every
/// encoding-aware kernel must answer from per-row codes, never from the
/// raw dictionary; each is checked against the plain twin filtered with
/// the same mask.
#[test]
fn dict_unused_entries_after_filter_match_plain() {
    let raw = [
        "aa", "mm", "zz", "bb", "qq", "mm", "cc", "zz", "aa", "bb", "cc", "qq",
    ];
    let vals: Vec<String> = raw.iter().map(|s| s.to_string()).collect();
    let nulls: Vec<bool> = (0..raw.len()).map(|i| i == 5).collect();
    let (plain, dict) = dict_pair(&vals, &nulls);
    // Drop every aa/zz/qq row; bb/cc/mm rows and the null survive.
    let keep: Vec<bool> = raw
        .iter()
        .map(|s| !matches!(*s, "aa" | "zz" | "qq"))
        .collect();
    let mask = Bitmap::from_bools(&keep);
    let dict_f = dict.filter(&mask).unwrap();
    let plain_f = plain.filter(&mask).unwrap();
    // Precondition, or this test guards nothing: the filtered column is
    // still Dict and its dictionary still holds all six categories even
    // though only three remain reachable.
    match &dict_f {
        Column::Dict(cat, _) => assert!(cat.dict.len() >= 6, "full dictionary kept"),
        other => panic!("filter must preserve Dict encoding, got {:?}", other.dtype()),
    }
    assert_col_equiv(&dict_f.decode(), &plain_f, "filtered dict decode");

    // Scalar reductions: min/max must not report the unused extremes,
    // nunique must not count unused entries.
    assert_eq!(dict_f.min(), plain_f.min(), "min ignores unused entries");
    assert_eq!(dict_f.max(), plain_f.max(), "max ignores unused entries");
    assert_eq!(dict_f.nunique(), plain_f.nunique(), "nunique ignores unused entries");

    // Verdict-table compares against vanished, surviving, and novel
    // literals.
    for lit in ["aa", "qq", "zz", "bb", "mm", "nope"] {
        for op in [CmpOp::Eq, CmpOp::Ne, CmpOp::Lt, CmpOp::Ge] {
            let got = dict_f.compare_scalar(op, &Scalar::Str(lit.into())).unwrap();
            let want = plain_f.compare_scalar(op, &Scalar::Str(lit.into())).unwrap();
            assert_eq!(got, want, "compare_scalar {op:?} {lit:?}");
        }
    }

    // fillna with an unused-but-present category and with a novel one.
    for fill in ["qq", "brand-new"] {
        assert_col_equiv(
            &dict_f.fillna(&Scalar::Str(fill.into())).unwrap(),
            &plain_f.fillna(&Scalar::Str(fill.into())).unwrap(),
            &format!("fillna {fill:?} with unused entries"),
        );
    }

    // Sort and groupby-as-key walk per-row codes.
    sort_both(&dict_f, &plain_f, &THREADS, "filtered dict");
    let values = Column::from_opt_i64((0..dict_f.len()).map(|i| Some(i as i64 - 3)).collect());
    for agg in [AggKind::Sum, AggKind::Count, AggKind::NUnique] {
        groupby_both(&dict_f, &plain_f, &values, agg, &THREADS, "filtered dict key");
    }

    // Dict as the *value* column: per-group Min/Max/NUnique/Count over
    // a column whose dictionary has unused entries.
    let key = Column::from_opt_i64((0..dict_f.len()).map(|i| Some(i as i64 % 2)).collect());
    let fe = frame(vec![("k", key.clone()), ("v", dict_f.clone())]);
    let fp = frame(vec![("k", key), ("v", plain_f.clone())]);
    for agg in [AggKind::Min, AggKind::Max, AggKind::NUnique, AggKind::Count] {
        let spec = GroupBySpec {
            keys: vec!["k".into()],
            value: "v".into(),
            agg,
        };
        let reference = group_by(&fp, &spec).unwrap();
        for &t in &THREADS {
            let got = if t <= 1 {
                group_by(&fe, &spec).unwrap()
            } else {
                group_by_par(&fe, &spec, &WorkerPool::new(t)).unwrap()
            };
            assert_frame_equiv(&got, &reference, &format!("dict value {agg:?} t={t}"));
        }
    }

    // The category flavour of the filtered column keeps the same
    // dictionary, unused entries included.
    let cat_f = dict_f.to_categorical().unwrap();
    match &cat_f {
        Column::Dict(cat, _) => assert!(cat.category && cat.dict.len() >= 6),
        other => panic!("to_categorical must keep the Dict payload, got {other:?}"),
    }
    let pivots = ["aa", "qq", "zz", "bb", "mm", "nope"];
    category_flavour_matches_oracle(&cat_f, &plain_f, &values, &pivots, &THREADS, "filtered");

    // And the filtered column round-trips through the spill format with
    // its full dictionary intact.
    spill_round_trip(&frame(vec![("s", dict_f), ("c", cat_f)]), "filtered dict");
}
