//! Differential property tests: every vectorized kernel must produce
//! results identical to a naive `Scalar`-per-row reference implementation
//! (the seed-era algorithms), including null-handling edge cases. The
//! vectorization overhaul is only allowed to change the *cost* of a
//! kernel, never its result.

use lafp_columnar::column::{ArithOp, CmpOp};
use lafp_columnar::csv::{quote_field, read_csv, CsvOptions};
use lafp_columnar::encoding::dict_encode;
use lafp_columnar::groupby::{group_by, GroupBySpec};
use lafp_columnar::join::{merge, JoinKind};
use lafp_columnar::sort::{nlargest, nsmallest, sort_values, top_k, SortOptions};
use lafp_columnar::{AggKind, Column, DType, DataFrame, Scalar, Series};
use lafp_oracle::equiv;
use lafp_oracle::reference::{
    arith_ref, cast_ref, compare_ref, fillna_ref, force_rle, group_by_ref, merge_ref,
    read_csv_infer_ref as read_csv_ref, slice_ref, sort_values_ref,
};
use proptest::prelude::*;

// ---------------------------------------------------------------------------
// Input builders (values + null mask, zipped to the shorter length)
// ---------------------------------------------------------------------------

fn col_i64(vals: &[i64], nulls: &[bool]) -> Column {
    let n = vals.len().min(nulls.len());
    Column::from_opt_i64((0..n).map(|i| (!nulls[i]).then(|| vals[i])).collect())
}

fn col_f64(vals: &[f64], nulls: &[bool]) -> Column {
    let n = vals.len().min(nulls.len());
    Column::from_opt_f64((0..n).map(|i| (!nulls[i]).then(|| vals[i])).collect())
}

fn col_str(vals: &[String], nulls: &[bool]) -> Column {
    let n = vals.len().min(nulls.len());
    Column::from_opt_strings((0..n).map(|i| (!nulls[i]).then(|| vals[i].clone())).collect())
}

/// Representation-agnostic equivalence (see `lafp_oracle::equiv`):
/// same length, dtype, and per-row scalars (nulls equal nulls; NaN is
/// null). Thin 2-arg adapters over the shared 3-arg asserts.
fn assert_col_equiv(actual: &Column, expected: &Column) {
    equiv::assert_col_equiv(actual, expected, "column");
}

fn assert_frame_equiv(actual: &DataFrame, expected: &DataFrame) {
    equiv::assert_frame_equiv(actual, expected, "frame");
}

// ---------------------------------------------------------------------------
// Properties
// ---------------------------------------------------------------------------

const OPS: [ArithOp; 5] = [
    ArithOp::Add,
    ArithOp::Sub,
    ArithOp::Mul,
    ArithOp::Div,
    ArithOp::Mod,
];

const CMPS: [CmpOp; 6] = [
    CmpOp::Eq,
    CmpOp::Ne,
    CmpOp::Lt,
    CmpOp::Le,
    CmpOp::Gt,
    CmpOp::Ge,
];

proptest! {
    #[test]
    fn arith_i64_matches_reference(
        a in prop::collection::vec(-40i64..40, 0..90),
        b in prop::collection::vec(-40i64..40, 0..90),
        na in prop::collection::vec(any::<bool>(), 0..90),
        nb in prop::collection::vec(any::<bool>(), 0..90),
    ) {
        let n = a.len().min(b.len()).min(na.len()).min(nb.len());
        let left = col_i64(&a[..n], &na[..n]);
        let right = col_i64(&b[..n], &nb[..n]);
        for op in OPS {
            assert_col_equiv(&left.arith(op, &right).unwrap(), &arith_ref(&left, op, &right));
        }
    }

    #[test]
    fn arith_f64_matches_reference(
        a in prop::collection::vec(-100.0f64..100.0, 0..90),
        b in prop::collection::vec(-100.0f64..100.0, 0..90),
        na in prop::collection::vec(any::<bool>(), 0..90),
        nb in prop::collection::vec(any::<bool>(), 0..90),
    ) {
        let n = a.len().min(b.len()).min(na.len()).min(nb.len());
        let left = col_f64(&a[..n], &na[..n]);
        let right = col_f64(&b[..n], &nb[..n]);
        for op in OPS {
            assert_col_equiv(&left.arith(op, &right).unwrap(), &arith_ref(&left, op, &right));
        }
    }

    #[test]
    fn arith_mixed_matches_reference(
        a in prop::collection::vec(-40i64..40, 1..90),
        b in prop::collection::vec(-100.0f64..100.0, 1..90),
        na in prop::collection::vec(any::<bool>(), 1..90),
        nb in prop::collection::vec(any::<bool>(), 1..90),
    ) {
        let n = a.len().min(b.len()).min(na.len()).min(nb.len());
        let left = col_i64(&a[..n], &na[..n]);
        let right = col_f64(&b[..n], &nb[..n]);
        for op in OPS {
            assert_col_equiv(&left.arith(op, &right).unwrap(), &arith_ref(&left, op, &right));
            assert_col_equiv(&right.arith(op, &left).unwrap(), &arith_ref(&right, op, &left));
        }
    }

    #[test]
    fn compare_matches_reference(
        a in prop::collection::vec(-20i64..20, 0..90),
        b in prop::collection::vec(-20i64..20, 0..90),
        f in prop::collection::vec(-20.0f64..20.0, 0..90),
        na in prop::collection::vec(any::<bool>(), 0..90),
        nb in prop::collection::vec(any::<bool>(), 0..90),
    ) {
        let n = a.len().min(b.len()).min(f.len()).min(na.len()).min(nb.len());
        let ints_a = col_i64(&a[..n], &na[..n]);
        let ints_b = col_i64(&b[..n], &nb[..n]);
        let floats = col_f64(&f[..n], &nb[..n]);
        for op in CMPS {
            assert_eq!(ints_a.compare(op, &ints_b).unwrap(), compare_ref(&ints_a, op, &ints_b));
            assert_eq!(ints_a.compare(op, &floats).unwrap(), compare_ref(&ints_a, op, &floats));
            assert_eq!(floats.compare(op, &ints_b).unwrap(), compare_ref(&floats, op, &ints_b));
        }
    }

    #[test]
    fn compare_strings_matches_reference(
        a in prop::collection::vec("[abc]{0,3}", 0..60),
        b in prop::collection::vec("[abc]{0,3}", 0..60),
        na in prop::collection::vec(any::<bool>(), 0..60),
        nb in prop::collection::vec(any::<bool>(), 0..60),
    ) {
        let n = a.len().min(b.len()).min(na.len()).min(nb.len());
        let left = col_str(&a[..n], &na[..n]);
        let right = col_str(&b[..n], &nb[..n]);
        for op in CMPS {
            assert_eq!(left.compare(op, &right).unwrap(), compare_ref(&left, op, &right));
        }
    }

    #[test]
    fn fillna_matches_reference(
        a in prop::collection::vec(-40i64..40, 0..90),
        f in prop::collection::vec(-40.0f64..40.0, 0..90),
        na in prop::collection::vec(any::<bool>(), 0..90),
        fill in -10i64..10,
    ) {
        let n = a.len().min(f.len()).min(na.len());
        let ints = col_i64(&a[..n], &na[..n]);
        let floats = col_f64(&f[..n], &na[..n]);
        assert_col_equiv(
            &ints.fillna(&Scalar::Int(fill)).unwrap(),
            &fillna_ref(&ints, &Scalar::Int(fill)),
        );
        assert_col_equiv(
            &floats.fillna(&Scalar::Float(fill as f64)).unwrap(),
            &fillna_ref(&floats, &Scalar::Float(fill as f64)),
        );
        // Cross-dtype fill coerces like the builder did.
        assert_col_equiv(
            &floats.fillna(&Scalar::Int(fill)).unwrap(),
            &fillna_ref(&floats, &Scalar::Int(fill)),
        );
        // Null fill keeps nulls.
        assert_col_equiv(
            &ints.fillna(&Scalar::Null).unwrap(),
            &fillna_ref(&ints, &Scalar::Null),
        );
    }

    #[test]
    fn cast_matches_reference(
        a in prop::collection::vec(-40i64..40, 0..90),
        f in prop::collection::vec(-40.0f64..40.0, 0..90),
        na in prop::collection::vec(any::<bool>(), 0..90),
    ) {
        let n = a.len().min(f.len()).min(na.len());
        let ints = col_i64(&a[..n], &na[..n]);
        let floats = col_f64(&f[..n], &na[..n]);
        for (col, target) in [
            (&ints, DType::Float64),
            (&ints, DType::Utf8),
            (&ints, DType::Datetime),
            (&floats, DType::Int64),
            (&floats, DType::Utf8),
        ] {
            let expected = cast_ref(col, target).unwrap();
            assert_col_equiv(&col.cast(target).unwrap(), &expected);
        }
        // String round-trip: Utf8 -> Int64 parse.
        let strs = ints.cast(DType::Utf8).unwrap();
        assert_col_equiv(
            &strs.cast(DType::Int64).unwrap(),
            &cast_ref(&strs, DType::Int64).unwrap(),
        );
    }

    #[test]
    fn slice_matches_reference(
        a in prop::collection::vec(-40i64..40, 0..90),
        s in prop::collection::vec("[xy]{0,2}", 0..90),
        na in prop::collection::vec(any::<bool>(), 0..90),
        offset in 0usize..100,
        len in 0usize..100,
    ) {
        let n = a.len().min(s.len()).min(na.len());
        let ints = col_i64(&a[..n], &na[..n]);
        let strs = col_str(&s[..n], &na[..n]);
        assert_col_equiv(&ints.slice(offset, len), &slice_ref(&ints, offset, len));
        assert_col_equiv(&strs.slice(offset, len), &slice_ref(&strs, offset, len));
    }

    #[test]
    fn groupby_matches_reference(
        keys in prop::collection::vec(0i64..6, 1..120),
        skeys in prop::collection::vec("[ab]{1,2}", 1..120),
        vals in prop::collection::vec(-30i64..30, 1..120),
        nk in prop::collection::vec(any::<bool>(), 1..120),
        nv in prop::collection::vec(any::<bool>(), 1..120),
    ) {
        let n = keys.len().min(skeys.len()).min(vals.len()).min(nk.len()).min(nv.len());
        let frame = DataFrame::new(vec![
            Series::new("k", col_i64(&keys[..n], &nk[..n])),
            Series::new("s", col_str(&skeys[..n], &nk[..n])),
            Series::new("v", col_i64(&vals[..n], &nv[..n])),
        ])
        .unwrap();
        for agg in [
            AggKind::Sum,
            AggKind::Mean,
            AggKind::Count,
            AggKind::Min,
            AggKind::Max,
            AggKind::NUnique,
        ] {
            for keyset in [vec!["k".to_string()], vec!["s".into(), "k".into()]] {
                let spec = GroupBySpec {
                    keys: keyset,
                    value: "v".into(),
                    agg,
                };
                assert_frame_equiv(&group_by(&frame, &spec).unwrap(), &group_by_ref(&frame, &spec));
            }
        }
    }

    #[test]
    fn join_matches_reference(
        lk in prop::collection::vec(0i64..8, 1..60),
        rk in prop::collection::vec(0i64..8, 1..40),
        // The [abN] alphabet occasionally yields a literal "NaN" string,
        // which canonical key semantics equate with a null key.
        ls in prop::collection::vec("[abN]{0,3}", 1..60),
        rs in prop::collection::vec("[abN]{0,3}", 1..40),
        nl in prop::collection::vec(any::<bool>(), 1..60),
        nr in prop::collection::vec(any::<bool>(), 1..40),
        fv in prop::collection::vec(-50.0f64..50.0, 1..40),
        left_join in any::<bool>(),
    ) {
        let n = lk.len().min(ls.len()).min(nl.len());
        let m = rk.len().min(rs.len()).min(nr.len()).min(fv.len());
        // Overlapping non-key column "v" on both sides exercises the
        // _x/_y suffix path; "w" exercises the null-aware typed gather.
        let left = DataFrame::new(vec![
            Series::new("k", col_i64(&lk[..n], &nl[..n])),
            Series::new("s", col_str(&ls[..n], &nl[..n])),
            Series::new("v", col_i64(&lk[..n], &[false].repeat(n))),
        ])
        .unwrap();
        let right = DataFrame::new(vec![
            Series::new("k", col_i64(&rk[..m], &nr[..m])),
            Series::new("s", col_str(&rs[..m], &nr[..m])),
            Series::new("v", col_i64(&rk[..m], &[false].repeat(m))),
            Series::new("w", col_f64(&fv[..m], &nr[..m])),
        ])
        .unwrap();
        let how = if left_join { JoinKind::Left } else { JoinKind::Inner };
        for keys in [
            vec!["k".to_string()],
            vec!["s".to_string()],
            vec!["k".to_string(), "s".to_string()],
        ] {
            assert_frame_equiv(
                &merge(&left, &right, &keys, how).unwrap(),
                &merge_ref(&left, &right, &keys, how),
            );
        }
    }

    #[test]
    fn sort_matches_reference(
        iv in prop::collection::vec(-20i64..20, 1..80),
        fv in prop::collection::vec(-20.0f64..20.0, 1..80),
        sv in prop::collection::vec("[abc]{0,2}", 1..80),
        ni in prop::collection::vec(any::<bool>(), 1..80),
        nf in prop::collection::vec(any::<bool>(), 1..80),
        a1 in any::<bool>(),
        a2 in any::<bool>(),
        a3 in any::<bool>(),
    ) {
        let n = iv.len().min(fv.len()).min(sv.len()).min(ni.len()).min(nf.len());
        // "tag" is a unique row id: frame equivalence after sorting by it
        // proves the permutations (including tie order) are identical.
        let tags: Vec<i64> = (0..n as i64).collect();
        let frame = DataFrame::new(vec![
            Series::new("i", col_i64(&iv[..n], &ni[..n])),
            Series::new("f", col_f64(&fv[..n], &nf[..n])),
            Series::new("s", col_str(&sv[..n], &ni[..n])),
            Series::new("tag", col_i64(&tags, &[false].repeat(n))),
        ])
        .unwrap();
        for options in [
            SortOptions::single("i", a1),
            SortOptions::single("f", a2),
            SortOptions::single("s", a3),
            SortOptions {
                by: vec!["s".into(), "i".into()],
                ascending: vec![a1, a2],
            },
            SortOptions {
                by: vec!["i".into(), "f".into(), "s".into()],
                ascending: vec![a1, a2, a3],
            },
        ] {
            assert_frame_equiv(
                &sort_values(&frame, &options).unwrap(),
                &sort_values_ref(&frame, &options),
            );
        }
    }

    #[test]
    fn top_n_matches_reference(
        fv in prop::collection::vec(-50.0f64..50.0, 1..60),
        nf in prop::collection::vec(any::<bool>(), 1..60),
        n_top in 0usize..70,
    ) {
        let n = fv.len().min(nf.len());
        let tags: Vec<i64> = (0..n as i64).collect();
        let frame = DataFrame::new(vec![
            Series::new("f", col_f64(&fv[..n], &nf[..n])),
            Series::new("tag", col_i64(&tags, &[false].repeat(n))),
        ])
        .unwrap();
        assert_frame_equiv(
            &nlargest(&frame, n_top, "f").unwrap(),
            &sort_values_ref(&frame, &SortOptions::single("f", false)).head(n_top),
        );
        assert_frame_equiv(
            &nsmallest(&frame, n_top, "f").unwrap(),
            &sort_values_ref(&frame, &SortOptions::single("f", true)).head(n_top),
        );
    }

    /// `top_k` is exactly `sort_values(..).head(n)` for every key dtype
    /// (NaN, ±0.0 and nulls included, dictionary, categorical and
    /// run-length keys too), 1–3 keys in mixed directions, heavy ties,
    /// and `n` on both sides of the row count.
    #[test]
    fn top_k_matches_reference(
        iv in prop::collection::vec(0i64..4, 1..70),
        fv in prop::collection::vec(0u8..6, 1..70),
        sv in prop::collection::vec("[ab]{0,1}", 1..70),
        bv in prop::collection::vec(any::<bool>(), 1..70),
        nulls in prop::collection::vec(any::<bool>(), 1..70),
        picks in prop::collection::vec(0usize..8, 1..4),
        dirs in prop::collection::vec(any::<bool>(), 3..4),
        n_pick in 0usize..6,
    ) {
        let n = iv.len().min(fv.len()).min(sv.len()).min(bv.len()).min(nulls.len());
        let floats: Vec<Option<f64>> = fv[..n]
            .iter()
            .map(|c| [Some(-1.0), Some(-0.0), Some(0.0), Some(2.5), Some(f64::NAN), None][*c as usize])
            .collect();
        let strs = col_str(&sv[..n], &nulls[..n]);
        let bools: Vec<Scalar> = (0..n)
            .map(|i| if nulls[i] { Scalar::Null } else { Scalar::Bool(bv[i]) })
            .collect();
        let names = ["i", "f", "s", "d", "c", "b", "t", "r"];
        let frame = DataFrame::new(vec![
            Series::new("i", col_i64(&iv[..n], &nulls[..n])),
            Series::new("f", Column::from_opt_f64(floats)),
            Series::new("s", strs.clone()),
            Series::new("d", dict_encode(&strs).unwrap()),
            Series::new("c", strs.to_categorical().unwrap()),
            Series::new("b", Column::from_scalars(DType::Bool, &bools).unwrap()),
            Series::new(
                "t",
                Column::from_opt_datetimes(
                    (0..n).map(|i| (!nulls[i]).then(|| iv[i] * 86_400)).collect(),
                ),
            ),
            Series::new("r", force_rle(&Column::from_i64(iv[..n].to_vec()))),
            Series::new("tag", Column::from_i64((0..n as i64).collect())),
        ])
        .unwrap();
        let mut by: Vec<String> = Vec::new();
        for &k in &picks {
            if !by.iter().any(|b| b == names[k]) {
                by.push(names[k].to_string());
            }
        }
        let options = SortOptions {
            ascending: dirs[..by.len()].to_vec(),
            by,
        };
        let n_top = [0, 1, n.saturating_sub(1), n, n + 7, n / 2][n_pick];
        // "tag" is a unique row id, so equivalence pins tie order too.
        assert_frame_equiv(
            &top_k(&frame, &options, n_top).unwrap(),
            &sort_values_ref(&frame, &options).head(n_top),
        );
    }

    #[test]
    fn csv_read_matches_reference(
        strs in prop::collection::vec("[ab,\" x]{0,6}", 1..40),
        ints in prop::collection::vec(-999i64..999, 1..40),
        int_nulls in prop::collection::vec(any::<bool>(), 1..40),
        floats in prop::collection::vec(-99.0f64..99.0, 1..40),
        project in any::<bool>(),
        force_utf8 in any::<bool>(),
    ) {
        let n = strs
            .len()
            .min(ints.len())
            .min(int_nulls.len())
            .min(floats.len());
        let mut content = String::from("a,b,c\n");
        for i in 0..n {
            let b = if int_nulls[i] {
                String::new() // empty field reads back as null
            } else {
                ints[i].to_string()
            };
            content.push_str(&format!(
                "{},{},{}\n",
                quote_field(&strs[i]),
                b,
                floats[i],
            ));
        }
        let dir = std::env::temp_dir().join("lafp-differential-csv");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!(
            "d{}.csv",
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .as_nanos()
        ));
        std::fs::write(&path, &content).unwrap();
        let mut options = CsvOptions::new();
        if project {
            options = options.with_usecols(vec!["a".into(), "c".into()]);
        }
        if force_utf8 {
            options = options.with_dtype("a", DType::Utf8).with_dtype("c", DType::Utf8);
        }
        let actual = read_csv(&path, &options).unwrap();
        let expected = read_csv_ref(&path, &options);
        std::fs::remove_file(&path).ok();
        assert_frame_equiv(&actual, &expected);
    }

    #[test]
    fn groupby_streaming_and_merge_match_oneshot(
        keys in prop::collection::vec(0i64..5, 1..100),
        quarters in prop::collection::vec(-120i64..120, 1..100),
        nv in prop::collection::vec(any::<bool>(), 1..100),
        split in 0usize..100,
    ) {
        use lafp_columnar::groupby::GroupByAccumulator;
        // Dyadic values (multiples of 0.25): float addition over them is
        // exact at these magnitudes, so merge order cannot perturb sums
        // (plain reals would make merge-vs-oneshot equality too strict —
        // the seed accumulator was order-sensitive the same way).
        let vals: Vec<f64> = quarters.iter().map(|&q| q as f64 / 4.0).collect();
        let n = keys.len().min(vals.len()).min(nv.len());
        let frame = DataFrame::new(vec![
            Series::new("k", col_i64(&keys[..n], &[false].repeat(n))),
            Series::new("v", col_f64(&vals[..n], &nv[..n])),
        ])
        .unwrap();
        let split = split.min(n);
        for agg in [AggKind::Sum, AggKind::Mean, AggKind::Min, AggKind::NUnique] {
            let spec = GroupBySpec { keys: vec!["k".into()], value: "v".into(), agg };
            let whole = group_by(&frame, &spec).unwrap();
            // Streaming chunks.
            let mut acc = GroupByAccumulator::new(spec.clone());
            acc.update(&frame.slice(0, split)).unwrap();
            acc.update(&frame.slice(split, n - split)).unwrap();
            assert_frame_equiv(&acc.finish().unwrap(), &whole);
            // Parallel merge.
            let mut left = GroupByAccumulator::new(spec.clone());
            left.update(&frame.slice(0, split)).unwrap();
            let mut right = GroupByAccumulator::new(spec);
            right.update(&frame.slice(split, n - split)).unwrap();
            left.merge(&right);
            assert_frame_equiv(&left.finish().unwrap(), &whole);
        }
    }
}
