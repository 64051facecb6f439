//! The `DataFrame`: an ordered collection of equal-length named columns,
//! plus the relational kernels the LaFP operator set needs.

use crate::bitmap::Bitmap;
use crate::column::Column;
use crate::dtype::DType;
use crate::error::{ColumnarError, Result};
use crate::series::Series;
use crate::HeapSize;
use std::borrow::Borrow;
use std::collections::HashSet;

/// A 2-D table of named, equal-length columns.
///
/// Row identity is positional (a RangeIndex in pandas terms). The Dask-like
/// backend may reorder rows; order-sensitivity is tracked a level up, in the
/// backend layer, mirroring the paper's discussion (§5.2).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct DataFrame {
    columns: Vec<Series>,
}

impl DataFrame {
    /// Empty frame (0 columns, 0 rows).
    pub fn empty() -> DataFrame {
        DataFrame::default()
    }

    /// Build from series; all must share one length and names must be unique.
    pub fn new(columns: Vec<Series>) -> Result<DataFrame> {
        let mut seen = HashSet::new();
        for s in &columns {
            if !seen.insert(s.name().to_string()) {
                return Err(ColumnarError::DuplicateColumn(s.name().to_string()));
            }
        }
        if let Some(first) = columns.first() {
            let n = first.len();
            for s in &columns {
                if s.len() != n {
                    return Err(ColumnarError::LengthMismatch {
                        left: n,
                        right: s.len(),
                    });
                }
            }
        }
        Ok(DataFrame { columns })
    }

    /// Number of rows.
    pub fn num_rows(&self) -> usize {
        self.columns.first().map_or(0, Series::len)
    }

    /// Number of columns.
    pub fn num_columns(&self) -> usize {
        self.columns.len()
    }

    /// `(rows, cols)` like pandas `shape`.
    pub fn shape(&self) -> (usize, usize) {
        (self.num_rows(), self.num_columns())
    }

    /// Column names in order.
    pub fn column_names(&self) -> Vec<&str> {
        self.columns.iter().map(Series::name).collect()
    }

    /// All series, in order.
    pub fn series(&self) -> &[Series] {
        &self.columns
    }

    /// Look up a column by name.
    pub fn column(&self, name: &str) -> Result<&Series> {
        self.columns
            .iter()
            .find(|s| s.name() == name)
            .ok_or_else(|| ColumnarError::ColumnNotFound(name.to_string()))
    }

    /// True if the frame has a column of this name.
    pub fn has_column(&self, name: &str) -> bool {
        self.columns.iter().any(|s| s.name() == name)
    }

    /// `(name, dtype)` schema pairs.
    pub fn schema(&self) -> Vec<(String, DType)> {
        self.columns
            .iter()
            .map(|s| (s.name().to_string(), s.dtype()))
            .collect()
    }

    /// Project to `names` (order follows `names`). Pandas `df[cols]`.
    pub fn select(&self, names: &[String]) -> Result<DataFrame> {
        let cols = names
            .iter()
            .map(|n| self.column(n).cloned())
            .collect::<Result<Vec<_>>>()?;
        DataFrame::new(cols)
    }

    /// Drop columns by name; missing names are an error (pandas default).
    pub fn drop(&self, names: &[String]) -> Result<DataFrame> {
        for n in names {
            if !self.has_column(n) {
                return Err(ColumnarError::ColumnNotFound(n.clone()));
            }
        }
        let keep: Vec<Series> = self
            .columns
            .iter()
            .filter(|s| !names.iter().any(|n| n == s.name()))
            .cloned()
            .collect();
        DataFrame::new(keep)
    }

    /// Add or replace a column (pandas `df[name] = values`). A scalar is
    /// broadcast to the frame's length.
    pub fn with_column(&self, name: &str, column: Column) -> Result<DataFrame> {
        if !self.columns.is_empty() && column.len() != self.num_rows() {
            return Err(ColumnarError::LengthMismatch {
                left: self.num_rows(),
                right: column.len(),
            });
        }
        let mut cols = self.columns.clone();
        match cols.iter_mut().find(|s| s.name() == name) {
            Some(slot) => *slot = Series::new(name, column),
            None => cols.push(Series::new(name, column)),
        }
        Ok(DataFrame { columns: cols })
    }

    /// Rename columns via `(old, new)` pairs; unknown names error.
    pub fn rename(&self, mapping: &[(String, String)]) -> Result<DataFrame> {
        for (old, _) in mapping {
            if !self.has_column(old) {
                return Err(ColumnarError::ColumnNotFound(old.clone()));
            }
        }
        let cols = self
            .columns
            .iter()
            .map(|s| {
                match mapping.iter().find(|(old, _)| old == s.name()) {
                    Some((_, new)) => s.clone().renamed(new.clone()),
                    None => s.clone(),
                }
            })
            .collect();
        DataFrame::new(cols)
    }

    /// Keep rows where `mask` is set.
    pub fn filter(&self, mask: &Bitmap) -> Result<DataFrame> {
        let cols = self
            .columns
            .iter()
            .map(|s| s.map_column(|c| c.filter(mask)))
            .collect::<Result<Vec<_>>>()?;
        Ok(DataFrame { columns: cols })
    }

    /// Gather rows at `indices`.
    pub fn take(&self, indices: &[usize]) -> Result<DataFrame> {
        let cols = self
            .columns
            .iter()
            .map(|s| s.map_column(|c| c.take(indices)))
            .collect::<Result<Vec<_>>>()?;
        Ok(DataFrame { columns: cols })
    }

    /// First `n` rows (pandas `head`).
    pub fn head(&self, n: usize) -> DataFrame {
        self.slice(0, n)
    }

    /// Last `n` rows (pandas `tail`).
    pub fn tail(&self, n: usize) -> DataFrame {
        let rows = self.num_rows();
        let start = rows.saturating_sub(n);
        self.slice(start, rows - start)
    }

    /// Contiguous row range.
    pub fn slice(&self, offset: usize, len: usize) -> DataFrame {
        DataFrame {
            columns: self
                .columns
                .iter()
                .map(|s| Series::new(s.name(), s.column().slice(offset, len)))
                .collect(),
        }
    }

    /// Vertically stack `other` under `self`: [`DataFrame::concat_many`]
    /// over the pair.
    pub fn concat(&self, other: &DataFrame) -> Result<DataFrame> {
        DataFrame::concat_many(&[self, other])
    }

    /// Vertically stack `frames` in order, each output column assembled
    /// by one [`Column::concat_many`]. Zero-column frames are skipped;
    /// the remaining frames must carry the first one's columns by name,
    /// and its column order wins. A lone frame is returned as a clone, no
    /// frame at all as [`DataFrame::empty`].
    pub fn concat_many<F: Borrow<DataFrame>>(frames: &[F]) -> Result<DataFrame> {
        let live: Vec<&DataFrame> = frames
            .iter()
            .map(Borrow::borrow)
            .filter(|f: &&DataFrame| !f.columns.is_empty())
            .collect();
        let Some((first, rest)) = live.split_first() else {
            return Ok(DataFrame::empty());
        };
        if rest.is_empty() {
            return Ok((*first).clone());
        }
        let cols = first
            .columns
            .iter()
            .map(|s| {
                let parts = live
                    .iter()
                    .map(|f| f.column(s.name()).map(Series::column))
                    .collect::<Result<Vec<_>>>()?;
                Ok(Series::new(s.name(), Column::concat_many(&parts)?))
            })
            .collect::<Result<Vec<_>>>()?;
        Ok(DataFrame { columns: cols })
    }

    /// Remove duplicate rows over `subset` (all columns when empty),
    /// keeping the first occurrence — pandas `drop_duplicates`.
    pub fn drop_duplicates(&self, subset: &[String]) -> Result<DataFrame> {
        let keys: Vec<String> = if subset.is_empty() {
            self.column_names().iter().map(|s| s.to_string()).collect()
        } else {
            subset.to_vec()
        };
        let key_cols: Vec<&Series> = keys
            .iter()
            .map(|k| self.column(k))
            .collect::<Result<Vec<_>>>()?;
        let mut seen: HashSet<String> = HashSet::new();
        let mut keep = Vec::new();
        for i in 0..self.num_rows() {
            let key: String = key_cols
                .iter()
                .map(|s| s.get(i).to_string())
                .collect::<Vec<_>>()
                .join("\u{1}");
            if seen.insert(key) {
                keep.push(i);
            }
        }
        self.take(&keep)
    }

    /// Per-row combined hash over all columns (row fingerprints for the
    /// regression framework and join keys).
    pub fn row_hashes(&self, subset: &[String]) -> Result<Vec<u64>> {
        let mut hashes = vec![0xcbf29ce484222325u64; self.num_rows()];
        let names: Vec<String> = if subset.is_empty() {
            self.column_names().iter().map(|s| s.to_string()).collect()
        } else {
            subset.to_vec()
        };
        for name in &names {
            self.column(name)?.column().hash_into(&mut hashes);
        }
        Ok(hashes)
    }

    /// Render up to `max_rows` rows as an aligned-ish text table (used by
    /// the lazy `print` operator).
    pub fn to_display_string(&self, max_rows: usize) -> String {
        let mut out = String::new();
        out.push_str(&self.column_names().join("\t"));
        out.push('\n');
        let rows = self.num_rows();
        let shown = rows.min(max_rows);
        for i in 0..shown {
            let row: Vec<String> = self
                .columns
                .iter()
                .map(|s| s.get(i).to_string())
                .collect();
            out.push_str(&row.join("\t"));
            out.push('\n');
        }
        if rows > shown {
            out.push_str(&format!("... [{rows} rows x {} columns]", self.num_columns()));
        } else {
            out.push_str(&format!("[{rows} rows x {} columns]", self.num_columns()));
        }
        out
    }
}

impl HeapSize for DataFrame {
    fn heap_size(&self) -> usize {
        self.columns.iter().map(HeapSize::heap_size).sum()
    }
}

/// Convenience constructor used heavily in tests:
/// `df![("a", Column::from_i64(vec![1,2]))]`.
#[macro_export]
macro_rules! df {
    ($(($name:expr, $col:expr)),* $(,)?) => {
        $crate::DataFrame::new(vec![
            $($crate::Series::new($name, $col)),*
        ]).expect("valid test frame")
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::CmpOp;
    use crate::value::Scalar;

    fn taxi() -> DataFrame {
        df![
            ("fare", Column::from_f64(vec![5.0, -1.0, 12.5, 7.25])),
            ("passengers", Column::from_i64(vec![1, 2, 3, 1])),
            ("city", Column::from_strings(vec!["NY", "NY", "SF", "LA"])),
        ]
    }

    #[test]
    fn shape_and_names() {
        let df = taxi();
        assert_eq!(df.shape(), (4, 3));
        assert_eq!(df.column_names(), vec!["fare", "passengers", "city"]);
        assert!(df.has_column("fare"));
        assert!(!df.has_column("tip"));
    }

    #[test]
    fn new_rejects_ragged_and_duplicates() {
        let err = DataFrame::new(vec![
            Series::new("a", Column::from_i64(vec![1])),
            Series::new("b", Column::from_i64(vec![1, 2])),
        ]);
        assert!(matches!(err, Err(ColumnarError::LengthMismatch { .. })));
        let err = DataFrame::new(vec![
            Series::new("a", Column::from_i64(vec![1])),
            Series::new("a", Column::from_i64(vec![2])),
        ]);
        assert!(matches!(err, Err(ColumnarError::DuplicateColumn(_))));
    }

    #[test]
    fn select_projects_and_orders() {
        let df = taxi();
        let p = df.select(&["city".into(), "fare".into()]).unwrap();
        assert_eq!(p.column_names(), vec!["city", "fare"]);
        assert!(df.select(&["nope".into()]).is_err());
    }

    #[test]
    fn drop_removes_columns() {
        let df = taxi().drop(&["city".into()]).unwrap();
        assert_eq!(df.column_names(), vec!["fare", "passengers"]);
        assert!(taxi().drop(&["ghost".into()]).is_err());
    }

    #[test]
    fn with_column_adds_and_replaces() {
        let df = taxi();
        let df2 = df
            .with_column("tip", Column::from_f64(vec![1.0, 0.0, 2.0, 1.5]))
            .unwrap();
        assert_eq!(df2.num_columns(), 4);
        let df3 = df2
            .with_column("tip", Column::from_f64(vec![0.0; 4]))
            .unwrap();
        assert_eq!(df3.num_columns(), 4);
        assert_eq!(df3.column("tip").unwrap().get(0), Scalar::Float(0.0));
        assert!(df.with_column("bad", Column::from_i64(vec![1])).is_err());
    }

    #[test]
    fn rename_columns() {
        let df = taxi()
            .rename(&[("fare".into(), "fare_amount".into())])
            .unwrap();
        assert!(df.has_column("fare_amount"));
        assert!(!df.has_column("fare"));
        assert!(taxi().rename(&[("zzz".into(), "y".into())]).is_err());
    }

    #[test]
    fn filter_by_predicate() {
        let df = taxi();
        let mask = df
            .column("fare")
            .unwrap()
            .column()
            .compare_scalar(CmpOp::Gt, &Scalar::Float(0.0))
            .unwrap();
        let kept = df.filter(&mask).unwrap();
        assert_eq!(kept.num_rows(), 3);
        assert_eq!(kept.column("city").unwrap().get(0), Scalar::Str("NY".into()));
    }

    #[test]
    fn head_tail_slice() {
        let df = taxi();
        assert_eq!(df.head(2).num_rows(), 2);
        assert_eq!(df.head(99).num_rows(), 4);
        let t = df.tail(1);
        assert_eq!(t.num_rows(), 1);
        assert_eq!(t.column("city").unwrap().get(0), Scalar::Str("LA".into()));
        assert_eq!(df.slice(1, 2).num_rows(), 2);
    }

    #[test]
    fn concat_stacks_rows() {
        let df = taxi();
        let both = df.concat(&df).unwrap();
        assert_eq!(both.num_rows(), 8);
        assert_eq!(both.num_columns(), 3);
        let empty = DataFrame::empty();
        assert_eq!(empty.concat(&df).unwrap().num_rows(), 4);
        assert_eq!(df.concat(&empty).unwrap().num_rows(), 4);
    }

    #[test]
    fn concat_requires_matching_schema() {
        let df = taxi();
        let other = df![("other", Column::from_i64(vec![1]))];
        assert!(df.concat(&other).is_err());
    }

    #[test]
    fn drop_duplicates_keeps_first() {
        let df = df![
            ("k", Column::from_strings(vec!["a", "b", "a", "c"])),
            ("v", Column::from_i64(vec![1, 2, 3, 4])),
        ];
        let d = df.drop_duplicates(&["k".into()]).unwrap();
        assert_eq!(d.num_rows(), 3);
        assert_eq!(d.column("v").unwrap().get(0), Scalar::Int(1));
        // full-row dedup
        let full = df.concat(&df).unwrap().drop_duplicates(&[]).unwrap();
        assert_eq!(full.num_rows(), 4);
    }

    #[test]
    fn row_hashes_are_row_fingerprints() {
        let df = taxi();
        let h = df.row_hashes(&[]).unwrap();
        assert_eq!(h.len(), 4);
        let dup = df.concat(&df).unwrap();
        let h2 = dup.row_hashes(&[]).unwrap();
        assert_eq!(h2[0], h2[4]);
        assert_ne!(h2[0], h2[1]);
    }

    #[test]
    fn display_truncates() {
        let df = taxi();
        let text = df.to_display_string(2);
        assert!(text.contains("fare"));
        assert!(text.contains("... [4 rows x 3 columns]"));
        let full = df.to_display_string(10);
        assert!(full.contains("[4 rows x 3 columns]"));
    }
}
