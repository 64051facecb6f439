//! Graph-level differential for the sort-then-head → top-k rewrite.
//!
//! Random `Sort → (projection | with-column)* → Head(n)` chains run on
//! LPandas, LModin and LDask (LDask also under a budget so small that
//! the full sort spills, for every `n` the un-rewritten plan completes
//! under it). Each result must equal the
//! un-rewritten run: the frozen reference sort followed by the same
//! links applied eagerly. `explain` must show the rewrite firing, and
//! statements that read the sorted frame after a rewritten head must
//! still see the full sort.

use lafp_backends::{BackendKind, DaskEngine, DaskOp, EagerEngine, MemoryTracker};
use lafp_columnar::column::ArithOp;
use lafp_columnar::csv::{read_csv, write_csv, CsvOptions};
use lafp_columnar::sort::SortOptions;
use lafp_columnar::{Column, DataFrame, HeapSize, Scalar, Series};
use lafp_core::{LaFP, LafpConfig, LazyFrame};
use lafp_expr::Expr;
use lafp_oracle::equiv::assert_frame_equiv;
use lafp_oracle::fuzz::gen::SplitMix;
use lafp_oracle::reference::sort_values_ref;
use std::path::PathBuf;

/// One row-local link between the sort and the head.
#[derive(Debug, Clone)]
enum Link {
    Select(Vec<String>),
    Drop(Vec<String>),
    Rename(String, String),
    With(String, Expr),
}

impl Link {
    fn apply_lazy(&self, frame: &LazyFrame) -> LazyFrame {
        match self {
            Link::Select(cols) => frame.select(cols.clone()),
            Link::Drop(cols) => frame.drop(cols.clone()),
            Link::Rename(old, new) => frame.rename(vec![(old.clone(), new.clone())]),
            Link::With(name, e) => frame.with_column(name.clone(), e.clone()),
        }
    }

    fn dask_op(&self) -> DaskOp {
        match self {
            Link::Select(cols) => DaskOp::Select(cols.clone()),
            Link::Drop(cols) => DaskOp::DropColumns(cols.clone()),
            Link::Rename(old, new) => DaskOp::Rename(vec![(old.clone(), new.clone())]),
            Link::With(name, e) => DaskOp::WithColumn(name.clone(), e.clone()),
        }
    }

    fn apply_eager(&self, frame: &DataFrame) -> DataFrame {
        match self {
            Link::Select(cols) => frame.select(cols).unwrap(),
            Link::Drop(cols) => frame.drop(cols).unwrap(),
            Link::Rename(old, new) => frame.rename(&[(old.clone(), new.clone())]).unwrap(),
            Link::With(name, e) => frame.with_column(name, e.evaluate(frame).unwrap()).unwrap(),
        }
    }
}

fn pick<T>(rng: &mut SplitMix, items: &[T]) -> usize {
    (rng.next_u64() % items.len() as u64) as usize
}

/// Heavy ties, nulls, NaN and ±0.0 over 3–120 rows, written to a CSV.
fn random_csv(rng: &mut SplitMix, case: u64) -> PathBuf {
    let rows = 3 + (rng.next_u64() % 118) as usize;
    let mut ints = Vec::with_capacity(rows);
    let mut floats = Vec::with_capacity(rows);
    let mut strs = Vec::with_capacity(rows);
    let mut bools = Vec::with_capacity(rows);
    for _ in 0..rows {
        let r = rng.next_u64();
        ints.push((!r.is_multiple_of(7)).then_some((r % 4) as i64));
        floats.push(
            [
                Some(-1.5),
                Some(-0.0),
                Some(0.0),
                Some(2.5),
                Some(f64::NAN),
                None,
            ][(r >> 8) as usize % 6],
        );
        strs.push((r >> 16 & 7 != 0).then(|| ["x", "y", "z"][(r >> 20) as usize % 3].to_string()));
        bools.push((r >> 24) & 1 == 0);
    }
    let frame = DataFrame::new(vec![
        Series::new("i", Column::from_opt_i64(ints)),
        Series::new("f", Column::from_opt_f64(floats)),
        Series::new("s", Column::from_opt_strings(strs)),
        Series::new("b", Column::from_bool(bools)),
        Series::new("tag", Column::from_i64((0..rows as i64).collect())),
    ])
    .unwrap();
    let dir = std::env::temp_dir().join("lafp-top-k-tests");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("case{case}-{}.csv", std::process::id()));
    write_csv(&frame, &path).unwrap();
    path
}

/// 1–3 distinct keys with random directions.
fn random_sort(rng: &mut SplitMix) -> SortOptions {
    let keys = ["i", "f", "s", "b"];
    let mut by: Vec<String> = Vec::new();
    for _ in 0..1 + rng.next_u64() % 3 {
        let key = keys[pick(rng, &keys)].to_string();
        if !by.contains(&key) {
            by.push(key);
        }
    }
    let ascending = by.iter().map(|_| rng.next_u64() & 1 == 0).collect();
    SortOptions { by, ascending }
}

/// 0–3 links valid against the evolving schema.
fn random_links(rng: &mut SplitMix, mut cols: Vec<String>) -> Vec<Link> {
    let mut links = Vec::new();
    for k in 0..rng.next_u64() % 4 {
        let link = match rng.next_u64() % 4 {
            0 => {
                let mut keep: Vec<String> = cols
                    .iter()
                    .filter(|_| !rng.next_u64().is_multiple_of(3))
                    .cloned()
                    .collect();
                if keep.is_empty() {
                    keep.push(cols[pick(rng, &cols)].clone());
                }
                keep.reverse();
                Link::Select(keep)
            }
            1 if cols.len() > 1 => Link::Drop(vec![cols[pick(rng, &cols)].clone()]),
            2 => {
                let old = cols[pick(rng, &cols)].clone();
                Link::Rename(old.clone(), format!("{old}_r{k}"))
            }
            _ => {
                let src = cols[pick(rng, &cols)].clone();
                let e = if src.starts_with("tag") {
                    Expr::col(src).arith(ArithOp::Mul, Expr::lit_int(2))
                } else {
                    Expr::col(src)
                };
                Link::With(format!("w{k}"), e)
            }
        };
        cols = match &link {
            Link::Select(keep) => keep.clone(),
            Link::Drop(gone) => cols.into_iter().filter(|c| !gone.contains(c)).collect(),
            Link::Rename(old, new) => cols
                .into_iter()
                .map(|c| if &c == old { new.clone() } else { c })
                .collect(),
            Link::With(name, _) => {
                cols.push(name.clone());
                cols
            }
        };
        links.push(link);
    }
    links
}

fn session(backend: BackendKind, budget: usize, chunk_rows: usize) -> LaFP {
    LaFP::with_config(LafpConfig {
        backend,
        memory_budget: budget,
        threads: 2,
        chunk_rows,
        ..Default::default()
    })
}

/// Whether the un-rewritten plan on the Dask engine — full sort, the
/// links, then head — completes under `budget`.
fn sort_head_completes(
    path: &std::path::Path,
    options: &SortOptions,
    links: &[Link],
    n: usize,
    budget: usize,
) -> bool {
    let mut e = DaskEngine::new(MemoryTracker::with_budget(budget), 16);
    let scan = DaskOp::ReadCsv {
        path: path.to_path_buf(),
        options: CsvOptions::new(),
        limit: None,
    };
    let mut cur = e.add(scan, vec![]);
    cur = e.add(DaskOp::Sort(options.clone()), vec![cur]);
    for link in links {
        cur = e.add(link.dask_op(), vec![cur]);
    }
    let head = e.add(DaskOp::Head(n), vec![cur]);
    e.gather(head).is_ok()
}

#[test]
fn rewritten_chains_match_the_unrewritten_run() {
    let mut rng = SplitMix::new(0x70b_c0de);
    let mut budgeted_large_n = 0;
    for case in 0..40 {
        let path = random_csv(&mut rng, case);
        let base = read_csv(&path, &CsvOptions::new()).unwrap();
        let rows = base.num_rows();
        let options = random_sort(&mut rng);
        let links = random_links(
            &mut rng,
            base.column_names().iter().map(|c| c.to_string()).collect(),
        );
        let n = [
            0,
            1,
            rows - 1,
            rows,
            rows + 7,
            (rng.next_u64() % rows as u64) as usize,
        ][(rng.next_u64() % 6) as usize];

        // The un-rewritten runs: the frozen reference sort, and the eager
        // Pandas engine's full sort, each followed by the links and head.
        let reference = links
            .iter()
            .fold(sort_values_ref(&base, &options), |f, l| l.apply_eager(&f))
            .head(n);
        let pandas = EagerEngine::new(BackendKind::Pandas, MemoryTracker::unlimited(), 1);
        let eager = links
            .iter()
            .fold(pandas.sort_values(&base, &options).unwrap(), |f, l| {
                l.apply_eager(&f)
            })
            .head(n);
        assert_frame_equiv(&eager, &reference, &format!("case {case}: eager full sort"));

        let mut sessions = vec![
            ("lpandas", session(BackendKind::Pandas, usize::MAX, 0)),
            ("lmodin", session(BackendKind::Modin, usize::MAX, 0)),
            ("ldask", session(BackendKind::Dask, usize::MAX, 16)),
        ];
        // Half the input's bytes cannot hold the sort buffer, so the full
        // sort spills. Top-k must finish wherever that plan did: in
        // O(n) for small n, through its own spill for large n.
        let budget = base.heap_size() / 2;
        if sort_head_completes(&path, &options, &links, n, budget) {
            budgeted_large_n += usize::from(n > rows / 2);
            sessions.push(("ldask-budget", session(BackendKind::Dask, budget, 16)));
        }
        for (label, pd) in sessions {
            let sorted = pd.read_csv(&path).sort_values(options.clone());
            let head = links.iter().fold(sorted, |f, l| l.apply_lazy(&f)).head(n);
            let what = format!("case {case} {label}: {options:?} {links:?} head({n})");
            let out = head.compute(&[]).unwrap_or_else(|e| panic!("{what}: {e}"));
            assert_frame_equiv(&out, &reference, &what);
            let plan = pd.explain(&[head.node()]);
            assert!(
                plan.contains("top_k"),
                "{what}: rewrite did not fire\n{plan}"
            );
            assert!(
                !plan.contains("sort_values"),
                "{what}: full sort left\n{plan}"
            );
        }
        let _ = std::fs::remove_file(&path);
    }
    assert!(budgeted_large_n > 0, "no budgeted case with n past half the rows");
}

#[test]
fn later_readers_still_see_the_full_sort() {
    let mut rng = SplitMix::new(7);
    let path = random_csv(&mut rng, 1000);
    let base = read_csv(&path, &CsvOptions::new()).unwrap();
    let options = SortOptions {
        by: vec!["i".into(), "f".into()],
        ascending: vec![false, true],
    };
    let full = sort_values_ref(&base, &options);
    let cols = vec!["tag".to_string(), "i".to_string()];
    for backend in BackendKind::ALL {
        let pd = session(backend, usize::MAX, 16);
        let top = pd.read_csv(&path).sort_values(options.clone());
        let report = top.select(cols.clone());
        let head = report.head(10);
        let out = head.compute(&[]).unwrap();
        assert!(pd.explain(&[head.node()]).contains("top_k"), "{backend}");
        let expected = full.select(&cols).unwrap().head(10);
        assert_frame_equiv(&out, &expected, &format!("{backend}: report.head(10)"));

        // Two later statements read `top` and `report` in full.
        let tail = top.tail(3).compute(&[]).unwrap();
        assert_frame_equiv(&tail, &full.tail(3), &format!("{backend}: top.tail(3)"));
        let len = report.len().compute(&[]).unwrap();
        assert_eq!(
            len,
            Scalar::Int(base.num_rows() as i64),
            "{backend}: len(report)"
        );
    }
    let _ = std::fs::remove_file(&path);
}
