//! The eager engines: Pandas-like (single-threaded, whole-frame) and
//! Modin-like (the same API executed partition-parallel across threads).
//!
//! Both are *eager*: every call materializes its result immediately, which
//! is exactly why the paper's LaFP optimizations matter most on these
//! backends (§2.6 — "the backend cannot perform optimization across
//! nodes"). The engine charges a transient working set per operation
//! (scaled by [`BackendKind::transient_factor`]) against the shared
//! [`MemoryTracker`]; result frames are charged by the caller, which owns
//! their lifetime.

use crate::kind::BackendKind;
use crate::memory::MemoryTracker;
use lafp_columnar::csv::{read_csv_par, CsvOptions};
use lafp_columnar::describe::describe;
use lafp_columnar::groupby::{group_by_par, GroupBySpec};
use lafp_columnar::join::{merge_par, JoinKind};
use lafp_columnar::pool::WorkerPool;
use lafp_columnar::sort::{sort_values_par, top_k_par, SortOptions};
use lafp_columnar::{AggKind, DataFrame, HeapSize, Result, Scalar, Series};
use lafp_expr::Expr;
use std::path::Path;
use std::sync::Arc;

/// An eager execution engine over materialized frames.
#[derive(Debug, Clone)]
pub struct EagerEngine {
    kind: BackendKind,
    tracker: Arc<MemoryTracker>,
    pool: Arc<WorkerPool>,
}

impl EagerEngine {
    /// Create an engine of `kind` charging `tracker`.
    ///
    /// `threads` only matters for [`BackendKind::Modin`]: the Pandas
    /// engine is single-threaded *by definition* (that is the backend it
    /// models), so it always gets one worker no matter what is
    /// requested. For Modin, `threads = 0` means the process
    /// configuration's count ([`lafp_columnar::ExecConfig::from_env`]),
    /// the same default every other layer uses.
    pub fn new(kind: BackendKind, tracker: Arc<MemoryTracker>, threads: usize) -> EagerEngine {
        let threads = if kind == BackendKind::Modin { threads } else { 1 };
        EagerEngine {
            kind,
            tracker,
            pool: Arc::new(WorkerPool::new(threads)),
        }
    }

    /// The backend kind this engine implements.
    pub fn kind(&self) -> BackendKind {
        self.kind
    }

    /// The shared memory tracker.
    pub fn tracker(&self) -> &Arc<MemoryTracker> {
        &self.tracker
    }

    /// Worker threads used for partition-parallel ops (1 for Pandas).
    pub fn threads(&self) -> usize {
        self.pool.threads()
    }

    /// Charge the transient working set for an op over `input`, returning
    /// the reservation to hold for the op's duration.
    fn transient(&self, input: &DataFrame) -> Result<crate::memory::MemoryReservation> {
        let bytes = (input.heap_size() as f64 * self.kind.transient_factor()) as usize;
        self.tracker.charge(bytes)
    }

    /// Momentarily charge an op's result while its transient scratch is
    /// still held — input, scratch and output coexist at the peak of a
    /// whole-frame eager operation, as in real pandas. The caller
    /// re-charges the returned frame for its lifetime.
    fn finish(&self, out: DataFrame) -> Result<DataFrame> {
        let _peak = self.tracker.charge(out.heap_size())?;
        Ok(out)
    }

    /// Split a frame into up to `self.threads()` contiguous partitions.
    fn partition(&self, df: &DataFrame) -> Vec<DataFrame> {
        let rows = df.num_rows();
        let n = self.threads().min(rows.max(1));
        let base = rows / n;
        let extra = rows % n;
        let mut out = Vec::with_capacity(n);
        let mut start = 0;
        for i in 0..n {
            let len = base + usize::from(i < extra);
            out.push(df.slice(start, len));
            start += len;
        }
        out
    }

    /// Apply `f` to each partition on the shared worker pool and
    /// re-concatenate in partition order (Modin preserves row order).
    fn map_partitions<F>(&self, df: &DataFrame, f: F) -> Result<DataFrame>
    where
        F: Fn(&DataFrame) -> Result<DataFrame> + Sync,
    {
        if !self.pool.is_parallel() || df.num_rows() < 2 {
            return f(df);
        }
        let parts = self.partition(df);
        // try_map isolates a panicking partition worker (surfacing
        // `WorkerPanic` instead of aborting) and honours the pool's
        // cancellation token between claims.
        let results = self.pool.try_map(parts, |_, p| f(&p))?;
        DataFrame::concat_many(&results)
    }

    // -- operators --------------------------------------------------------

    /// `pd.read_csv(path, ...)`.
    pub fn read_csv(&self, path: &Path, options: &CsvOptions) -> Result<DataFrame> {
        // Parsing scratch is proportional to the file's text size and
        // coexists with the columns being built; charge both so a huge
        // unprojected read can itself blow the budget (the caller
        // re-charges the returned frame for its lifetime).
        let file_bytes = std::fs::metadata(path).map(|m| m.len() as usize).unwrap_or(0);
        let scale = if self.kind == BackendKind::Modin { 0.25 } else { 1.0 };
        let _scratch = self.tracker.charge((file_bytes as f64 * scale) as usize)?;
        let df = read_csv_par(path, options, &self.pool)?;
        let _built = self.tracker.charge(df.heap_size())?;
        Ok(df)
    }

    /// `df[mask-expr]` row filter.
    pub fn filter(&self, df: &DataFrame, predicate: &Expr) -> Result<DataFrame> {
        let _t = self.transient(df)?;
        let out = self.map_partitions(df, |p| p.filter(&predicate.evaluate_mask(p)?))?;
        self.finish(out)
    }

    /// `df[col] = <expr>` (add or replace a computed column).
    pub fn with_column(&self, df: &DataFrame, name: &str, expr: &Expr) -> Result<DataFrame> {
        let _t = self.transient(df)?;
        let out = self.map_partitions(df, |p| p.with_column(name, expr.evaluate(p)?))?;
        self.finish(out)
    }

    /// `df[[cols]]` projection.
    pub fn select(&self, df: &DataFrame, cols: &[String]) -> Result<DataFrame> {
        df.select(cols)
    }

    /// `df.drop(columns=[...])`.
    pub fn drop(&self, df: &DataFrame, cols: &[String]) -> Result<DataFrame> {
        df.drop(cols)
    }

    /// `df.rename(columns={...})`.
    pub fn rename(&self, df: &DataFrame, mapping: &[(String, String)]) -> Result<DataFrame> {
        df.rename(mapping)
    }

    /// `df.head(n)`.
    pub fn head(&self, df: &DataFrame, n: usize) -> Result<DataFrame> {
        Ok(df.head(n))
    }

    /// `df.tail(n)`.
    pub fn tail(&self, df: &DataFrame, n: usize) -> Result<DataFrame> {
        Ok(df.tail(n))
    }

    /// `df.groupby(keys)[value].agg()`. Modin runs the morsel-parallel
    /// kernel: worker-local accumulators over dynamically claimed row
    /// ranges, merged through the typed merge path.
    pub fn group_by(&self, df: &DataFrame, spec: &GroupBySpec) -> Result<DataFrame> {
        let _t = self.transient(df)?;
        self.finish(group_by_par(df, spec, &self.pool)?)
    }

    /// `left.merge(right, on=..., how=...)`.
    pub fn merge(
        &self,
        left: &DataFrame,
        right: &DataFrame,
        on: &[String],
        how: JoinKind,
    ) -> Result<DataFrame> {
        // Join scratch: build table over right + output assembly.
        let bytes = ((left.heap_size() + right.heap_size()) as f64
            * self.kind.transient_factor()) as usize;
        let _t = self.tracker.charge(bytes)?;
        // Modin path: the pool-driven join partitions the build side by
        // hash and probes the left side in morsels (the build table is
        // shared, not rebuilt per partition as the old
        // partition-and-rejoin path did).
        self.finish(merge_par(left, right, on, how, &self.pool)?)
    }

    /// `df.sort_values(by=..., ascending=...)`.
    pub fn sort_values(&self, df: &DataFrame, options: &SortOptions) -> Result<DataFrame> {
        let _t = self.transient(df)?;
        // Morsel-parallel argsort + pairwise run merge on the pool; the
        // result is the sequential stable sort bit for bit.
        self.finish(sort_values_par(df, options, &self.pool)?)
    }

    /// `df.sort_values(by=..., ascending=...).head(n)` as one top-k,
    /// charged like the sort it replaces; `n ≥ rows` sorts on the pool.
    pub fn top_k(&self, df: &DataFrame, options: &SortOptions, n: usize) -> Result<DataFrame> {
        let _t = self.transient(df)?;
        self.finish(top_k_par(df, options, n, &self.pool)?)
    }

    /// `df.drop_duplicates(subset=...)`.
    pub fn drop_duplicates(&self, df: &DataFrame, subset: &[String]) -> Result<DataFrame> {
        let _t = self.transient(df)?;
        df.drop_duplicates(subset)
    }

    /// `df.describe()`.
    pub fn describe(&self, df: &DataFrame) -> Result<DataFrame> {
        let _t = self.transient(df)?;
        describe(df)
    }

    /// Frame-level `df.fillna(value)` over every column where it applies.
    pub fn fillna(&self, df: &DataFrame, value: &Scalar) -> Result<DataFrame> {
        let _t = self.transient(df)?;
        self.map_partitions(df, |p| {
            let mut cols = Vec::with_capacity(p.num_columns());
            for s in p.series() {
                // Only fill columns whose dtype can absorb the value.
                let filled = s.column().fillna(value);
                cols.push(match filled {
                    Ok(c) => Series::new(s.name(), c),
                    Err(_) => s.clone(),
                });
            }
            DataFrame::new(cols)
        })
    }

    /// Scalar reduction over one column (`df[col].sum()` etc.).
    pub fn reduce(&self, df: &DataFrame, column: &str, agg: AggKind) -> Result<Scalar> {
        let col = df.column(column)?.column();
        Ok(match agg {
            AggKind::Sum => col.sum(),
            AggKind::Mean => col.mean(),
            AggKind::Count => col.count(),
            AggKind::Min => col.min(),
            AggKind::Max => col.max(),
            AggKind::NUnique => col.nunique(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lafp_columnar::column::Column;
    use lafp_columnar::df;

    fn engines() -> Vec<EagerEngine> {
        vec![
            EagerEngine::new(BackendKind::Pandas, MemoryTracker::unlimited(), 0),
            EagerEngine::new(BackendKind::Modin, MemoryTracker::unlimited(), 4),
        ]
    }

    fn sample(rows: usize) -> DataFrame {
        df![
            (
                "fare",
                Column::from_f64((0..rows).map(|i| (i as f64) - 2.0).collect())
            ),
            (
                "day",
                Column::from_i64((0..rows).map(|i| (i % 7) as i64).collect())
            ),
            (
                "passenger_count",
                Column::from_i64((0..rows).map(|i| (i % 4 + 1) as i64).collect())
            ),
        ]
    }

    #[test]
    fn pandas_is_single_threaded_modin_parallel() {
        let p = EagerEngine::new(BackendKind::Pandas, MemoryTracker::unlimited(), 8);
        assert_eq!(p.threads(), 1);
        let m = EagerEngine::new(BackendKind::Modin, MemoryTracker::unlimited(), 0);
        assert!(m.threads() >= 1);
    }

    #[test]
    fn filter_matches_across_engines() {
        let df = sample(101);
        let pred = Expr::col("fare").gt(Expr::lit_float(0.0));
        let expected = engines()[0].filter(&df, &pred).unwrap();
        for e in engines() {
            let got = e.filter(&df, &pred).unwrap();
            assert_eq!(got, expected, "{}", e.kind());
            assert_eq!(got.num_rows(), 98);
        }
    }

    #[test]
    fn with_column_matches_across_engines() {
        let df = sample(50);
        let expr = Expr::col("fare").arith(lafp_columnar::column::ArithOp::Mul, Expr::lit_float(2.0));
        let expected = engines()[0].with_column(&df, "double", &expr).unwrap();
        for e in engines() {
            assert_eq!(e.with_column(&df, "double", &expr).unwrap(), expected);
        }
    }

    #[test]
    fn group_by_matches_across_engines() {
        let df = sample(97);
        let spec = GroupBySpec {
            keys: vec!["day".into()],
            value: "passenger_count".into(),
            agg: AggKind::Sum,
        };
        let expected = engines()[0].group_by(&df, &spec).unwrap();
        for e in engines() {
            assert_eq!(e.group_by(&df, &spec).unwrap(), expected, "{}", e.kind());
        }
    }

    #[test]
    fn merge_matches_across_engines() {
        let left = sample(40);
        let lookup = df![
            ("day", Column::from_i64(vec![0, 1, 2, 3, 4, 5, 6])),
            (
                "day_name",
                Column::from_strings(vec!["mon", "tue", "wed", "thu", "fri", "sat", "sun"])
            ),
        ];
        let expected = engines()[0]
            .merge(&left, &lookup, &["day".into()], JoinKind::Inner)
            .unwrap();
        for e in engines() {
            let got = e
                .merge(&left, &lookup, &["day".into()], JoinKind::Inner)
                .unwrap();
            assert_eq!(got, expected, "{}", e.kind());
        }
    }

    /// Top-k equals sort → head on every engine, for n inside and past
    /// the input, and charges the sort's transient: a budget the sort
    /// cannot run in fails it too.
    #[test]
    fn top_k_is_sort_then_head_and_charges_like_it() {
        let df = sample(60);
        let options = SortOptions {
            by: vec!["day".into(), "fare".into()],
            ascending: vec![false, true],
        };
        let sorted = engines()[0].sort_values(&df, &options).unwrap();
        for e in engines() {
            for n in [0, 5, 60, 70] {
                let got = e.top_k(&df, &options, n).unwrap();
                assert_eq!(got, sorted.head(n), "{} n={n}", e.kind());
            }
        }
        let tight = EagerEngine::new(BackendKind::Pandas, MemoryTracker::with_budget(2_000), 0);
        let df = sample(500);
        assert!(tight.sort_values(&df, &options).is_err());
        assert!(tight.top_k(&df, &options, 5).is_err());
    }

    #[test]
    fn reduce_and_describe() {
        let e = &engines()[0];
        let df = sample(10);
        assert_eq!(e.reduce(&df, "day", AggKind::Max).unwrap(), Scalar::Int(6));
        let d = e.describe(&df).unwrap();
        assert_eq!(d.num_rows(), 8);
        assert!(e.reduce(&df, "ghost", AggKind::Sum).is_err());
    }

    #[test]
    fn transient_charge_can_oom() {
        // Budget below the transient factor of a pandas filter over ~8KB.
        let tracker = MemoryTracker::with_budget(2_000);
        let e = EagerEngine::new(BackendKind::Pandas, tracker, 0);
        let df = sample(500);
        let pred = Expr::col("fare").gt(Expr::lit_float(0.0));
        let err = e.filter(&df, &pred).unwrap_err();
        assert!(matches!(
            err,
            lafp_columnar::ColumnarError::OutOfMemory { .. }
        ));
    }

    #[test]
    fn modin_transient_is_cheaper_than_pandas() {
        // At an eager op's peak, input + scratch + result coexist: pandas
        // needs ~2x the input beyond what it holds (factor 1.0 + result),
        // modin ~1.3x (factor 0.25 + result) — the calibration behind the
        // Figure-12 matrix.
        let df = sample(500);
        let budget = (df.heap_size() as f64 * 1.6) as usize;
        let pred = Expr::col("fare").gt(Expr::lit_float(0.0));
        let pandas = EagerEngine::new(BackendKind::Pandas, MemoryTracker::with_budget(budget), 0);
        assert!(pandas.filter(&df, &pred).is_err());
        let modin = EagerEngine::new(BackendKind::Modin, MemoryTracker::with_budget(budget), 2);
        assert!(modin.filter(&df, &pred).is_ok());
    }

    #[test]
    fn fillna_fills_compatible_columns() {
        let e = &engines()[0];
        let df = df![
            ("x", Column::from_opt_f64(vec![Some(1.0), None])),
            ("s", Column::from_strings(vec!["a", "b"])),
        ];
        let out = e.fillna(&df, &Scalar::Float(0.0)).unwrap();
        assert_eq!(out.column("x").unwrap().get(1), Scalar::Float(0.0));
        assert_eq!(out.column("s").unwrap().get(0), Scalar::Str("a".into()));
    }

    #[test]
    fn sort_and_dedup_and_headtail() {
        let e = &engines()[1];
        let df = sample(20);
        let sorted = e
            .sort_values(&df, &SortOptions::single("fare", false))
            .unwrap();
        assert_eq!(sorted.column("fare").unwrap().get(0), Scalar::Float(17.0));
        let d = e.drop_duplicates(&df, &["day".into()]).unwrap();
        assert_eq!(d.num_rows(), 7);
        assert_eq!(e.head(&df, 3).unwrap().num_rows(), 3);
        assert_eq!(e.tail(&df, 3).unwrap().num_rows(), 3);
    }
}
