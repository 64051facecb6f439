//! The logical operators of the LaFP task graph and the per-operator facts
//! (`used_attrs` / `mod_attrs`, pushdown safety) the optimizer consumes.

use lafp_columnar::csv::CsvOptions;
use lafp_columnar::groupby::GroupBySpec;
use lafp_columnar::join::JoinKind;
use lafp_columnar::sort::SortOptions;
use lafp_columnar::{AggKind, DataFrame, Scalar};
use lafp_expr::Expr;
use std::collections::BTreeSet;
use std::path::PathBuf;
use std::sync::Arc;

/// One piece of a (possibly deferred f-string) print template.
///
/// The paper defers f-string dataframe slots by replacing the variable with
/// "the unique ID of the task graph node ... along with an escape sequence"
/// (§3.3). Here the escape sequence is structural: a [`PrintPiece::Value`]
/// holds an index into the print node's inputs, which are node ids.
#[derive(Debug, Clone, PartialEq)]
pub enum PrintPiece {
    /// Literal text.
    Text(String),
    /// The rendered value of the print node's n-th input.
    Value(usize),
}

/// A logical operator in the LaFP task graph.
#[derive(Debug, Clone)]
pub enum LogicalOp {
    /// Read a CSV dataset lazily.
    ReadCsv {
        /// Source path.
        path: PathBuf,
        /// Scan options (projection from static column selection, dtypes
        /// from the metastore, parse_dates).
        options: CsvOptions,
    },
    /// Wrap an already-materialized frame.
    FromFrame(Arc<DataFrame>),
    /// Row filter `df[pred]`.
    Filter(Expr),
    /// Computed column `df[name] = expr`.
    WithColumn(String, Expr),
    /// Projection `df[[cols]]`.
    Select(Vec<String>),
    /// `df.drop(columns=...)`.
    DropColumns(Vec<String>),
    /// `df.rename(columns={old: new})`.
    Rename(Vec<(String, String)>),
    /// Frame-wide `df.fillna(value)`.
    FillNa(Scalar),
    /// `df.drop_duplicates(subset)` (empty = all columns).
    DropDuplicates(Vec<String>),
    /// `df.groupby(keys)[value].agg()`.
    GroupByAgg(GroupBySpec),
    /// `left.merge(right, on, how)` — two inputs.
    Merge {
        /// Join keys.
        on: Vec<String>,
        /// Join kind.
        how: JoinKind,
    },
    /// `df.sort_values(...)`.
    Sort(SortOptions),
    /// `df.head(n)`.
    Head(usize),
    /// `sort_values(by).head(n)` in one operator: the first `n` rows of
    /// the stable sort. Never built by the API; the optimizer rewrites
    /// sort-then-head chains into it.
    TopK {
        /// Sort keys and directions.
        by: SortOptions,
        /// Rows kept.
        n: usize,
    },
    /// `df.tail(n)`.
    Tail(usize),
    /// `df.describe()`.
    Describe,
    /// Vertical concat — two inputs.
    Concat,
    /// Scalar reduction `df[col].agg()`.
    Reduce {
        /// Reduced column.
        column: String,
        /// Aggregate.
        agg: AggKind,
    },
    /// Lazy `len(df)`.
    Len,
    /// Lazy print (§3.3): renders `template` from its inputs' values.
    Print(Vec<PrintPiece>),
}

/// Result of evaluating a task-graph node.
#[derive(Debug, Clone)]
pub enum Value {
    /// A frame (shared so persisted results are cheap to hand out).
    Frame(Arc<DataFrame>),
    /// A scalar.
    Scalar(Scalar),
    /// Side-effect-only nodes (print).
    None,
}

impl Value {
    /// Borrow the frame, if this is one.
    pub fn as_frame(&self) -> Option<&Arc<DataFrame>> {
        match self {
            Value::Frame(f) => Some(f),
            _ => None,
        }
    }

    /// Borrow the scalar, if this is one.
    pub fn as_scalar(&self) -> Option<&Scalar> {
        match self {
            Value::Scalar(s) => Some(s),
            _ => None,
        }
    }
}

impl LogicalOp {
    /// Does this node produce a frame (vs a scalar or nothing)?
    pub fn is_frame_valued(&self) -> bool {
        !matches!(
            self,
            LogicalOp::Reduce { .. } | LogicalOp::Len | LogicalOp::Print(_)
        )
    }

    /// Attributes this operator reads from its input — the paper's
    /// `used_attrs(u)` (§3.2). `None` means "all/unknown".
    pub fn used_attrs(&self) -> Option<BTreeSet<String>> {
        match self {
            LogicalOp::Filter(e) => Some(e.used_columns()),
            LogicalOp::WithColumn(_, e) => Some(e.used_columns()),
            LogicalOp::Select(cols) => Some(cols.iter().cloned().collect()),
            LogicalOp::GroupByAgg(spec) => {
                let mut s: BTreeSet<String> = spec.keys.iter().cloned().collect();
                s.insert(spec.value.clone());
                Some(s)
            }
            LogicalOp::Reduce { column, .. } => Some([column.clone()].into_iter().collect()),
            LogicalOp::Sort(opts) | LogicalOp::TopK { by: opts, .. } => {
                Some(opts.by.iter().cloned().collect())
            }
            LogicalOp::Merge { on, .. } => Some(on.iter().cloned().collect()),
            LogicalOp::DropDuplicates(subset) if !subset.is_empty() => {
                Some(subset.iter().cloned().collect())
            }
            _ => None,
        }
    }

    /// Attributes this operator modifies or computes — the paper's
    /// `mod_attrs(u)` (§3.2). `None` means "all/unknown" (conservative).
    pub fn mod_attrs(&self) -> Option<BTreeSet<String>> {
        match self {
            LogicalOp::WithColumn(name, _) => Some([name.clone()].into_iter().collect()),
            LogicalOp::Filter(_)
            | LogicalOp::Select(_)
            | LogicalOp::DropColumns(_)
            | LogicalOp::Sort(_)
            | LogicalOp::DropDuplicates(_)
            | LogicalOp::Head(_)
            | LogicalOp::TopK { .. }
            | LogicalOp::Tail(_) => Some(BTreeSet::new()),
            // Rename handled specially (substitution), FillNa may modify
            // any column holding nulls, aggregates recompute everything.
            _ => None,
        }
    }

    /// Can a filter with `used` attributes be swapped below this operator
    /// without changing program semantics? Implements §3.2's conditions
    /// (1) `mod_attrs(u) ∩ used_attrs(f) = ∅` and (2) row-wise value
    /// stability, per operator:
    ///
    /// * `WithColumn` — pushable when the predicate doesn't read the
    ///   computed column.
    /// * `Select` / `DropColumns` — pushable when the predicate's columns
    ///   still exist below.
    /// * `Rename` — pushable with name substitution (see
    ///   [`LogicalOp::rename_substitution`]).
    /// * `Sort` — filters commute with reordering.
    /// * `DropDuplicates` — only when the predicate reads key columns
    ///   only (duplicate rows then agree on the predicate), or the subset
    ///   is all columns.
    /// * `Head`/`Tail` select rows positionally — never pushable, and
    ///   neither is `TopK`: which rows survive depends on every row.
    /// * `Merge`, `GroupByAgg`, `Concat`, `FillNa`, `Describe`, scans —
    ///   not pushable (row counts / values change, per the paper).
    pub fn filter_can_push_below(&self, used: &BTreeSet<String>) -> bool {
        match self {
            LogicalOp::WithColumn(name, _) => !used.contains(name),
            LogicalOp::Select(cols) => used.iter().all(|u| cols.contains(u)),
            LogicalOp::DropColumns(_) => true, // dropped cols can't be used above
            LogicalOp::Rename(_) => true,      // with substitution
            LogicalOp::Sort(_) => true,
            LogicalOp::DropDuplicates(subset) => {
                subset.is_empty() || used.iter().all(|u| subset.contains(u))
            }
            _ => false,
        }
    }

    /// For pushing a predicate below a `Rename`: maps post-rename names
    /// back to pre-rename names.
    pub fn rename_substitution(&self, col: &str) -> Option<String> {
        match self {
            LogicalOp::Rename(mapping) => mapping
                .iter()
                .find(|(_, new)| new == col)
                .map(|(old, _)| old.clone()),
            _ => None,
        }
    }

    /// Structural fingerprint for common-subexpression detection: two ops
    /// with equal fingerprints and identical inputs compute the same value.
    /// `FromFrame` hashes by pointer identity; `Print` is never merged
    /// (side effects) and fingerprints uniquely by a counter the graph
    /// provides, so this function is only called for the other ops.
    pub fn fingerprint(&self) -> u64 {
        let mix = |h: u64, v: u64| (h ^ v).wrapping_mul(0x100000001b3);
        let mix_str = |mut h: u64, s: &str| {
            for b in s.as_bytes() {
                h = mix(h, *b as u64);
            }
            mix(h, 0xFF)
        };
        let mut h: u64 = 0xcbf29ce484222325;
        match self {
            LogicalOp::ReadCsv { path, options } => {
                h = mix(h, 1);
                h = mix_str(h, &path.display().to_string());
                h = mix_str(h, &format!("{options:?}"));
            }
            LogicalOp::FromFrame(frame) => {
                h = mix(h, 2);
                h = mix(h, Arc::as_ptr(frame) as u64);
            }
            LogicalOp::Filter(e) => {
                h = mix(h, 3);
                h = mix(h, e.fingerprint());
            }
            LogicalOp::WithColumn(name, e) => {
                h = mix(h, 4);
                h = mix_str(h, name);
                h = mix(h, e.fingerprint());
            }
            LogicalOp::Select(cols) => {
                h = mix(h, 5);
                for c in cols {
                    h = mix_str(h, c);
                }
            }
            LogicalOp::DropColumns(cols) => {
                h = mix(h, 6);
                for c in cols {
                    h = mix_str(h, c);
                }
            }
            LogicalOp::Rename(mapping) => {
                h = mix(h, 7);
                for (a, b) in mapping {
                    h = mix_str(h, a);
                    h = mix_str(h, b);
                }
            }
            LogicalOp::FillNa(v) => {
                h = mix(h, 8);
                h = mix_str(h, &format!("{v:?}"));
            }
            LogicalOp::DropDuplicates(subset) => {
                h = mix(h, 9);
                for c in subset {
                    h = mix_str(h, c);
                }
            }
            LogicalOp::GroupByAgg(spec) => {
                h = mix(h, 10);
                h = mix_str(h, &format!("{spec:?}"));
            }
            LogicalOp::Merge { on, how } => {
                h = mix(h, 11);
                for c in on {
                    h = mix_str(h, c);
                }
                h = mix_str(h, how.name());
            }
            LogicalOp::Sort(opts) => {
                h = mix(h, 12);
                h = mix_str(h, &format!("{opts:?}"));
            }
            LogicalOp::Head(n) => {
                h = mix(h, 13);
                h = mix(h, *n as u64);
            }
            LogicalOp::Tail(n) => {
                h = mix(h, 14);
                h = mix(h, *n as u64);
            }
            LogicalOp::TopK { by, n } => {
                h = mix(h, 20);
                h = mix_str(h, &format!("{by:?}"));
                h = mix(h, *n as u64);
            }
            LogicalOp::Describe => h = mix(h, 15),
            LogicalOp::Concat => h = mix(h, 16),
            LogicalOp::Reduce { column, agg } => {
                h = mix(h, 17);
                h = mix_str(h, column);
                h = mix_str(h, agg.name());
            }
            LogicalOp::Len => h = mix(h, 18),
            LogicalOp::Print(pieces) => {
                h = mix(h, 19);
                h = mix_str(h, &format!("{pieces:?}"));
            }
        }
        h
    }

    /// Short operator name for plan rendering (Figure-6-style output).
    pub fn label(&self) -> String {
        match self {
            LogicalOp::ReadCsv { path, options } => {
                let cols = options
                    .usecols
                    .as_ref()
                    .map(|c| format!(" usecols={c:?}"))
                    .unwrap_or_default();
                format!(
                    "read_csv {}{}",
                    path.file_name()
                        .map(|f| f.to_string_lossy().to_string())
                        .unwrap_or_else(|| path.display().to_string()),
                    cols
                )
            }
            LogicalOp::FromFrame(_) => "from_frame".into(),
            LogicalOp::Filter(e) => format!("filter {e}"),
            LogicalOp::WithColumn(name, e) => format!("set_item {name} = {e}"),
            LogicalOp::Select(cols) => format!("get_item {cols:?}"),
            LogicalOp::DropColumns(cols) => format!("drop {cols:?}"),
            LogicalOp::Rename(m) => format!("rename {m:?}"),
            LogicalOp::FillNa(v) => format!("fillna {v}"),
            LogicalOp::DropDuplicates(s) => format!("drop_duplicates {s:?}"),
            LogicalOp::GroupByAgg(spec) => format!(
                "groupby {:?} [{}] {}",
                spec.keys,
                spec.value,
                spec.agg.name()
            ),
            LogicalOp::Merge { on, how } => format!("merge on={on:?} how={}", how.name()),
            LogicalOp::Sort(opts) => format!("sort_values {:?}", opts.by),
            LogicalOp::Head(n) => format!("head {n}"),
            LogicalOp::Tail(n) => format!("tail {n}"),
            LogicalOp::TopK { by, n } => format!("top_k {:?} {n}", by.by),
            LogicalOp::Describe => "describe".into(),
            LogicalOp::Concat => "concat".into(),
            LogicalOp::Reduce { column, agg } => format!("{}({column})", agg.name()),
            LogicalOp::Len => "len".into(),
            LogicalOp::Print(_) => "print".into(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lafp_columnar::column::CmpOp;

    fn pred(col: &str) -> BTreeSet<String> {
        [col.to_string()].into_iter().collect()
    }

    #[test]
    fn with_column_pushdown_rules() {
        let op = LogicalOp::WithColumn(
            "day".into(),
            Expr::col("ts").dt(lafp_columnar::column::DtField::DayOfWeek),
        );
        assert!(op.filter_can_push_below(&pred("fare")));
        assert!(!op.filter_can_push_below(&pred("day")));
    }

    #[test]
    fn select_pushdown_requires_columns_below() {
        let op = LogicalOp::Select(vec!["a".into(), "b".into()]);
        assert!(op.filter_can_push_below(&pred("a")));
        assert!(!op.filter_can_push_below(&pred("z")));
    }

    #[test]
    fn sort_and_rename_pushable_merge_not() {
        assert!(LogicalOp::Sort(SortOptions::single("x", true))
            .filter_can_push_below(&pred("x")));
        assert!(LogicalOp::Rename(vec![("a".into(), "b".into())])
            .filter_can_push_below(&pred("b")));
        let merge = LogicalOp::Merge {
            on: vec!["k".into()],
            how: JoinKind::Inner,
        };
        assert!(!merge.filter_can_push_below(&pred("k")));
        assert!(!LogicalOp::Head(5).filter_can_push_below(&pred("x")));
        let top = LogicalOp::TopK {
            by: SortOptions::single("x", false),
            n: 3,
        };
        assert!(!top.filter_can_push_below(&pred("x")));
        assert_eq!(top.used_attrs(), Some(pred("x")));
        assert_eq!(top.label(), r#"top_k ["x"] 3"#);
        assert!(!LogicalOp::FillNa(Scalar::Int(0)).filter_can_push_below(&pred("x")));
    }

    #[test]
    fn dedup_pushdown_needs_key_only_predicates() {
        let op = LogicalOp::DropDuplicates(vec!["k".into()]);
        assert!(op.filter_can_push_below(&pred("k")));
        assert!(!op.filter_can_push_below(&pred("v")));
        // full-row dedup: always safe
        assert!(LogicalOp::DropDuplicates(vec![]).filter_can_push_below(&pred("v")));
    }

    #[test]
    fn rename_substitution_maps_new_to_old() {
        let op = LogicalOp::Rename(vec![("old".into(), "new".into())]);
        assert_eq!(op.rename_substitution("new"), Some("old".into()));
        assert_eq!(op.rename_substitution("other"), None);
    }

    #[test]
    fn fingerprints_distinguish_ops() {
        let a = LogicalOp::Filter(Expr::col("x").cmp(CmpOp::Gt, Expr::lit_int(0)));
        let b = LogicalOp::Filter(Expr::col("x").cmp(CmpOp::Gt, Expr::lit_int(0)));
        let c = LogicalOp::Filter(Expr::col("x").cmp(CmpOp::Ge, Expr::lit_int(0)));
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_ne!(a.fingerprint(), c.fingerprint());
        assert_ne!(LogicalOp::Len.fingerprint(), LogicalOp::Describe.fingerprint());
    }

    #[test]
    fn used_and_mod_attrs() {
        let op = LogicalOp::GroupByAgg(GroupBySpec {
            keys: vec!["day".into()],
            value: "fare".into(),
            agg: AggKind::Sum,
        });
        let used = op.used_attrs().unwrap();
        assert!(used.contains("day") && used.contains("fare"));
        assert!(op.mod_attrs().is_none(), "aggregates recompute everything");
        let wc = LogicalOp::WithColumn("d".into(), Expr::col("x"));
        assert_eq!(wc.mod_attrs().unwrap().len(), 1);
    }

    #[test]
    fn labels_are_compact() {
        let op = LogicalOp::Head(5);
        assert_eq!(op.label(), "head 5");
        assert!(!LogicalOp::Len.is_frame_valued());
        assert!(LogicalOp::Describe.is_frame_valued());
    }
}
