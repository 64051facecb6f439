//! Differential tests for the n-way concat kernel: for every column
//! variant, `Column::concat_many` over a list of parts must equal a left
//! fold of the two-input `concat` *structurally* (same variant, same
//! dictionary and codes, same null-slot sentinels, same validity shape)
//! and the seed row-wise `lafp_oracle::reference::concat_ref` logically.
//! For plain parts the oracle's builder output is also the exact layout
//! the n-way kernel must reproduce; dictionary parts (transparent or
//! category) follow the one unification rule, whose entry order the
//! builder does not share and no consumer observes.
//!
//! Part lengths deliberately straddle 64-row bitmap words, and part lists
//! mix zero-row parts, nulls, NaN cells, shared and distinct
//! dictionaries, unused dictionary entries, run-length parts and mixed
//! encodings of one dtype.

use lafp_columnar::column::Categorical;
use lafp_columnar::encoding::dict_encode;
use lafp_columnar::{Bitmap, Column, DType, DataFrame, Scalar, Series, Utf8Col};
use lafp_oracle::equiv::{assert_col_equiv, assert_frame_equiv};
use lafp_oracle::reference::{concat_ref, force_rle};
use std::sync::Arc;

// ---------------------------------------------------------------------------
// Comparators
// ---------------------------------------------------------------------------

/// Buffer-for-buffer equality: floats by bit pattern (NaN sentinels
/// included), run-length columns by run ends plus run values, every
/// other variant through `Column`'s same-variant structural `==`.
fn same_layout(a: &Column, b: &Column) -> bool {
    match (a, b) {
        (Column::Float64(x, vx), Column::Float64(y, vy)) => {
            vx == vy
                && x.len() == y.len()
                && x.iter().zip(y).all(|(p, q)| p.to_bits() == q.to_bits())
        }
        (Column::Rle(x), Column::Rle(y)) => x.ends == y.ends && same_layout(&x.values, &y.values),
        _ => std::mem::discriminant(a) == std::mem::discriminant(b) && a == b,
    }
}

fn frame(col: &Column) -> DataFrame {
    DataFrame::new(vec![Series::new("c", col.clone())]).unwrap()
}

/// The seed row-wise concat folded over the parts.
fn oracle(parts: &[Column]) -> Column {
    let stacked = parts[1..]
        .iter()
        .fold(frame(&parts[0]), |acc, p| concat_ref(&acc, &frame(p)));
    stacked.column("c").unwrap().column().clone()
}

/// Check one part list three ways and return the n-way result.
fn check(parts: &[Column], what: &str) -> Column {
    let refs: Vec<&Column> = parts.iter().collect();
    let many = Column::concat_many(&refs).unwrap();
    let folded = parts[1..]
        .iter()
        .fold(parts[0].clone(), |acc, p| acc.concat(p).unwrap());
    assert!(
        same_layout(&many, &folded),
        "{what}: n-way layout differs from the pairwise fold\n n-way: {many:?}\n  fold: {folded:?}"
    );
    let reference = oracle(parts);
    assert_col_equiv(&many, &reference, what);
    let plain = |p: &Column| !matches!(p, Column::Dict(..) | Column::Rle(_));
    if parts.len() >= 2 && parts.iter().all(plain) {
        assert!(
            same_layout(&many, &reference),
            "{what}: n-way layout differs from the builder path\n n-way: {many:?}\n   ref: {reference:?}"
        );
    }
    many
}

// ---------------------------------------------------------------------------
// Deterministic generator
// ---------------------------------------------------------------------------

/// splitmix64: a tiny seeded generator so every case is reproducible.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// A part length: empty, word-boundary neighbours, or odd sizes.
    fn len(&mut self) -> usize {
        [0, 1, 7, 63, 64, 65, 100, 130][self.below(8)]
    }
}

#[derive(Clone, Copy, Debug)]
enum Kind {
    Int,
    Float,
    Bool,
    Utf8,
    Datetime,
    Categorical,
}

const KINDS: [Kind; 6] = [
    Kind::Int,
    Kind::Float,
    Kind::Bool,
    Kind::Utf8,
    Kind::Datetime,
    Kind::Categorical,
];

/// One plain part of `kind`; `nulls` selects a null density (0 = none).
fn plain_part(kind: Kind, len: usize, nulls: usize, rng: &mut Rng) -> Column {
    let valid: Vec<bool> = (0..len)
        .map(|_| nulls == 0 || rng.below(nulls) != 0)
        .collect();
    let ints: Vec<i64> = (0..len).map(|_| rng.below(9) as i64 - 4).collect();
    let opt = |i: usize, v: i64| valid[i].then_some(v);
    match kind {
        Kind::Int => Column::from_opt_i64((0..len).map(|i| opt(i, ints[i])).collect()),
        Kind::Datetime => Column::from_opt_datetimes(
            (0..len)
                .map(|i| opt(i, 1_700_000_000 + ints[i] * 3600))
                .collect(),
        ),
        // Half the float parts carry their nulls as bare NaN cells
        // (no validity mask), the other half as masked slots.
        Kind::Float if rng.below(2) == 0 => Column::from_f64(
            (0..len)
                .map(|i| {
                    if valid[i] {
                        ints[i] as f64 * 0.5
                    } else {
                        f64::NAN
                    }
                })
                .collect(),
        ),
        Kind::Float => Column::from_opt_f64(
            (0..len)
                .map(|i| valid[i].then_some(ints[i] as f64 * 0.25))
                .collect(),
        ),
        // Null slots keep whatever bit the data had: the concat must
        // normalize them to false.
        Kind::Bool => Column::Bool(
            Bitmap::from_iter((0..len).map(|i| ints[i] > 0)),
            (nulls > 0).then(|| Bitmap::from_bools(&valid)),
        ),
        Kind::Utf8 | Kind::Categorical => {
            let col = Column::from_opt_strings(
                (0..len)
                    .map(|i| {
                        valid[i].then(|| {
                            ["", "NaN", "x", "yy", "zzz"][ints[i].unsigned_abs() as usize % 5]
                                .to_string()
                        })
                    })
                    .collect(),
            );
            match kind {
                Kind::Categorical => col.to_categorical().unwrap(),
                _ => col,
            }
        }
    }
}

/// A part, possibly encoded: Utf8 parts may become `Dict` (own
/// dictionary), numeric and category parts `Rle`.
fn part(kind: Kind, rng: &mut Rng) -> Column {
    let len = rng.len();
    let nulls = [0, 0, 2, 5][rng.below(4)];
    let col = plain_part(kind, len, nulls, rng);
    match (kind, rng.below(3)) {
        (Kind::Utf8, 0) => dict_encode(&col).unwrap(),
        (Kind::Int | Kind::Float | Kind::Datetime | Kind::Bool | Kind::Categorical, 0) => {
            force_rle(&col)
        }
        _ => col,
    }
}

// ---------------------------------------------------------------------------
// Randomized sweep
// ---------------------------------------------------------------------------

#[test]
fn random_part_lists_match_fold_and_oracle() {
    for seed in 0..600u64 {
        let mut rng = Rng(seed);
        let kind = KINDS[rng.below(KINDS.len())];
        let n = 1 + rng.below(5);
        let parts: Vec<Column> = (0..n).map(|_| part(kind, &mut rng)).collect();
        check(&parts, &format!("seed {seed} {kind:?} x{n}"));
    }
}

#[test]
fn plain_variants_with_and_without_nulls() {
    let mut rng = Rng(7);
    for kind in KINDS {
        for nulls in [0, 3] {
            let parts: Vec<Column> = [65, 0, 63, 130]
                .iter()
                .map(|&len| plain_part(kind, len, nulls, &mut rng))
                .collect();
            let out = check(&parts, &format!("{kind:?} nulls={nulls}"));
            assert_eq!(out.len(), 258);
            assert_eq!(
                out.validity().is_some(),
                out.count_null() > 0,
                "{kind:?}: mask shape"
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Dictionaries
// ---------------------------------------------------------------------------

fn dict_col(entries: &[&str], codes: Vec<u32>, valid: Option<&[bool]>) -> Column {
    Column::Dict(
        Categorical {
            codes,
            dict: Arc::new(Utf8Col::from_values(entries)),
            category: false,
        },
        valid.map(Bitmap::from_bools),
    )
}

fn dict_of(c: &Column) -> (&[u32], Vec<&str>) {
    match c {
        Column::Dict(p, _) => (&p.codes, p.dict.iter().collect()),
        other => panic!("expected a dictionary column, got {other:?}"),
    }
}

#[test]
fn distinct_dicts_unify_once_in_part_order() {
    // "zz" is never referenced: unused entries still join the union,
    // exactly as the pairwise unification kept them.
    let parts = vec![
        dict_col(&["a", "b", "zz"], vec![1, 0, 1], None),
        dict_col(&["c", "a"], vec![0, 1], None),
        dict_col(&["d", "b", "c"], vec![2, 0, 1], Some(&[true, false, true])),
        dict_col(&["e"], vec![], None),
    ];
    let out = check(&parts, "distinct dicts");
    let (codes, dict) = dict_of(&out);
    assert_eq!(dict, vec!["a", "b", "zz", "c", "d", "e"]);
    assert_eq!(codes, &[1, 0, 1, 3, 0, 3, 4, 1]);
    assert!(out.is_null_at(6) && out.count_null() == 1);
}

#[test]
fn shared_dict_concatenates_codes_only() {
    let vals: Vec<Option<String>> = (0..300)
        .map(|i| (i % 11 != 0).then(|| format!("k{}", i % 7)))
        .collect();
    let whole = dict_encode(&Column::from_opt_strings(vals)).unwrap();
    let parts: Vec<Column> = [(0, 70), (70, 0), (70, 129), (199, 101)]
        .iter()
        .map(|&(o, l)| whole.slice(o, l))
        .collect();
    let out = check(&parts, "shared dict");
    match (&out, &whole) {
        (Column::Dict(a, _), Column::Dict(b, _)) => {
            assert!(
                Arc::ptr_eq(&a.dict, &b.dict),
                "one shared dictionary must be reused"
            );
            assert_eq!(a.codes, b.codes);
        }
        other => panic!("expected Dict output, got {other:?}"),
    }
    assert!(same_layout(&out, &whole));
}

fn strs(values: &[Option<&str>]) -> Vec<Scalar> {
    values
        .iter()
        .map(|v| v.map_or(Scalar::Null, |s| Scalar::Str(s.into())))
        .collect()
}

#[test]
fn categorical_null_codes_read_as_null_after_concat() {
    // The null row's code points at "w", an entry no valid row uses:
    // the row must read null and "w" must not surface anywhere.
    let a = dict_col(&["w", "y"], vec![0, 1], Some(&[false, true]))
        .to_categorical()
        .unwrap();
    let b = Column::from_opt_strings(vec![
        Some("x".into()),
        Some("y".into()),
        None,
        Some("".into()),
    ])
    .to_categorical()
    .unwrap();
    let out = check(&[a, b], "categorical");
    assert_eq!(out.dtype(), DType::Categorical);
    assert_eq!(
        out.iter().collect::<Vec<_>>(),
        strs(&[None, Some("y"), Some("x"), Some("y"), None, Some("")])
    );
    assert_eq!(out.count_null(), 2);
    assert_eq!(out.nunique(), Scalar::Int(3));
    assert_eq!(out.max(), Scalar::Str("y".into()));
}

#[test]
fn categorical_unused_and_skewed_entries_concat_logically() {
    // A part whose dictionary order is not first-appearance order, with
    // an entry no row references.
    let skewed = dict_col(&["late", "unused", "early"], vec![2, 2, 0], None)
        .to_categorical()
        .unwrap();
    let other = Column::from_strings(["late", "fresh"])
        .to_categorical()
        .unwrap();
    let out = check(&[skewed, other], "categorical reorder");
    assert_eq!(out.dtype(), DType::Categorical);
    assert_eq!(
        out.iter().collect::<Vec<_>>(),
        strs(&[
            Some("early"),
            Some("early"),
            Some("late"),
            Some("late"),
            Some("fresh")
        ])
    );
    // The unused entry is invisible to the used-code reductions.
    assert_eq!(out.nunique(), Scalar::Int(3));
    assert_eq!(out.min(), Scalar::Str("early".into()));
    assert_eq!(out.max(), Scalar::Str("late".into()));
}

// ---------------------------------------------------------------------------
// Run-length and mixed encodings
// ---------------------------------------------------------------------------

#[test]
fn rle_parts_rebase_run_ends() {
    let mut rng = Rng(3);
    let parts: Vec<Column> = [64, 0, 65, 7]
        .iter()
        .map(|&len| force_rle(&plain_part(Kind::Int, len, 3, &mut rng)))
        .collect();
    let out = check(&parts, "rle");
    match &out {
        Column::Rle(r) => assert_eq!(r.len(), 136),
        other => panic!("expected Rle output, got {other:?}"),
    }
}

#[test]
fn mixed_encodings_decode_to_plain() {
    let mut rng = Rng(11);
    let utf8 = plain_part(Kind::Utf8, 65, 3, &mut rng);
    let dict = dict_encode(&plain_part(Kind::Utf8, 63, 3, &mut rng)).unwrap();
    for parts in [
        vec![dict.clone(), utf8.clone(), dict.clone()],
        vec![utf8.clone(), dict.clone()],
    ] {
        let out = check(&parts, "dict + utf8");
        assert!(
            matches!(out, Column::Utf8(..)),
            "mixed Dict/Utf8 must decode: {out:?}"
        );
    }
    let plain = plain_part(Kind::Float, 130, 3, &mut rng);
    let rle = force_rle(&plain_part(Kind::Float, 64, 3, &mut rng));
    for parts in [
        vec![rle.clone(), plain.clone()],
        vec![plain, rle.clone(), rle],
    ] {
        let out = check(&parts, "rle + plain");
        assert!(
            matches!(out, Column::Float64(..)),
            "mixed Rle/plain must decode: {out:?}"
        );
    }
}

// ---------------------------------------------------------------------------
// Degenerate inputs and frames
// ---------------------------------------------------------------------------

#[test]
fn zero_row_parts_and_errors() {
    let empty = Column::from_i64(vec![]);
    let out = check(&[empty.clone(), empty.clone(), empty.clone()], "all empty");
    assert_eq!(out, Column::from_i64(vec![]));
    assert!(
        Column::concat_many(&[]).is_err(),
        "zero parts have no dtype"
    );
    let strings = Column::from_strings(["x"]);
    assert!(
        Column::concat_many(&[&empty, &strings]).is_err(),
        "dtype mismatch"
    );
}

#[test]
fn frames_skip_zero_column_parts_and_keep_first_order() {
    let a = DataFrame::new(vec![
        Series::new("k", Column::from_strings(["a", "b"])),
        Series::new("v", Column::from_opt_i64(vec![Some(1), None])),
    ])
    .unwrap();
    // Same columns in another order: the first frame's order wins.
    let b = DataFrame::new(vec![
        Series::new("v", Column::from_i64(vec![3])),
        Series::new("k", Column::from_strings(["c"])),
    ])
    .unwrap();
    let parts = [
        DataFrame::empty(),
        a.clone(),
        DataFrame::empty(),
        b.clone(),
        a.head(0),
    ];
    let many = DataFrame::concat_many(&parts).unwrap();
    let folded = parts[1..]
        .iter()
        .fold(parts[0].clone(), |acc, f| acc.concat(f).unwrap());
    assert_eq!(many, folded);
    assert_eq!(many.column_names(), vec!["k", "v"]);
    assert_frame_equiv(&many, &concat_ref(&a, &b), "frames");
    assert_eq!(
        DataFrame::concat_many::<DataFrame>(&[]).unwrap(),
        DataFrame::empty()
    );
    assert_eq!(
        DataFrame::concat_many(&[DataFrame::empty(), a.clone()]).unwrap(),
        a
    );
    let missing = DataFrame::new(vec![Series::new("k", Column::from_strings(["z"]))]).unwrap();
    assert!(
        DataFrame::concat_many(&[&a, &missing]).is_err(),
        "missing column"
    );
}
