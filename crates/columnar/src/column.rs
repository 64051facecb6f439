//! Typed column vectors and their vectorized kernels.

use crate::bitmap::{BitWriter, Bitmap};
use crate::dtype::DType;
use crate::error::{ColumnarError, Result};
use crate::strings::{Utf8Builder, Utf8Col};
use crate::value::{self, Scalar};
use crate::HeapSize;
use std::sync::Arc;

/// Internal index abstraction so gather kernels can run over `u32` or
/// `usize` index vectors — the join emits `u32` row ids when both sides
/// fit, halving the index memory traffic through output assembly.
pub(crate) trait IndexLike: Copy {
    /// Widen to a `usize` index.
    fn idx(self) -> usize;
    /// Narrow from a `usize` index (caller guarantees it fits).
    fn from_usize(i: usize) -> Self;
    /// Sentinel marking "no source row" in null-aware gathers.
    const SENTINEL: Self;
    /// Is this the sentinel?
    fn is_sentinel(self) -> bool;
}

impl IndexLike for usize {
    #[inline]
    fn idx(self) -> usize {
        self
    }
    #[inline]
    fn from_usize(i: usize) -> Self {
        i
    }
    const SENTINEL: usize = usize::MAX;
    #[inline]
    fn is_sentinel(self) -> bool {
        self == usize::MAX
    }
}

impl IndexLike for u32 {
    #[inline]
    fn idx(self) -> usize {
        self as usize
    }
    #[inline]
    fn from_usize(i: usize) -> Self {
        debug_assert!(i < u32::MAX as usize);
        i as u32
    }
    const SENTINEL: u32 = u32::MAX;
    #[inline]
    fn is_sentinel(self) -> bool {
        self == u32::MAX
    }
}

/// The payload of a [`Column::Dict`]: `u32` codes into a deduplicated
/// string dictionary, plus the column's logical dtype. One layout serves
/// both the transparent ingest encoding (`category == false`, a string
/// column that happens to be compressed) and pandas `category`
/// (`category == true`); filter / take / slice / concat carry the flag
/// with the dictionary.
#[derive(Debug, Clone, PartialEq)]
pub struct Categorical {
    /// Per-row indexes into `dict`.
    pub codes: Vec<u32>,
    /// The (deduplicated) dictionary entries — stored in the same
    /// arena-backed layout as plain `Utf8` columns and shared across
    /// derived columns. Entry order is not observable: sort, group-by
    /// and join all compare entry bytes.
    pub dict: Arc<Utf8Col>,
    /// True when the column's dtype is [`DType::Categorical`]; false for
    /// the transparent encoding, whose dtype is [`DType::Utf8`].
    pub category: bool,
}

impl Categorical {
    /// New codes over this payload's dictionary and flag.
    fn with_codes(&self, codes: Vec<u32>) -> Categorical {
        Categorical {
            codes,
            dict: Arc::clone(&self.dict),
            category: self.category,
        }
    }
}

/// Run-length-encoded column payload: `values` holds one row per
/// maximal run of equal values (null runs included — run-level nulls
/// live in `values`' own validity/NaN state), `ends[k]` is the
/// exclusive row index where run `k` stops. `ends` is strictly
/// increasing and its last entry is the logical row count.
#[derive(Debug, Clone)]
pub struct RleCol {
    /// One row per run: the run's value (or null).
    pub values: Box<Column>,
    /// Exclusive end row of each run; `ends.last()` is the column length.
    pub ends: Vec<u32>,
}

impl RleCol {
    /// Logical row count.
    pub fn len(&self) -> usize {
        self.ends.last().map_or(0, |&e| e as usize)
    }

    /// True when the column has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of runs.
    pub fn num_runs(&self) -> usize {
        self.ends.len()
    }

    /// The run containing row `i` (binary search over run ends).
    #[inline]
    pub fn run_of(&self, i: usize) -> usize {
        debug_assert!(i < self.len());
        self.ends.partition_point(|&e| e as usize <= i)
    }

    /// Start row of run `k`.
    #[inline]
    pub fn run_start(&self, k: usize) -> usize {
        if k == 0 {
            0
        } else {
            self.ends[k - 1] as usize
        }
    }

    /// `(start, end)` row range of run `k`.
    #[inline]
    pub fn run_bounds(&self, k: usize) -> (usize, usize) {
        (self.run_start(k), self.ends[k] as usize)
    }
}

/// A typed column of values with an optional validity mask.
///
/// `validity == None` means "no nulls". For `Float64`, `NaN` additionally
/// counts as null, matching pandas.
///
/// [`Column::Rle`] is an *encoding*, not a dtype: it reports its run
/// values' dtype. [`Column::Dict`] is one dictionary layout whose
/// payload flag picks the dtype: the transparent encoding reports
/// [`DType::Utf8`], a category column [`DType::Categorical`]. The
/// planner and schema layers see only dtypes. Kernels either run on the
/// dictionary or runs directly (the fast paths) or fall back through
/// [`Column::decode`]. Equality is *logical* across encodings: a
/// transparent `Dict` column equals the `Utf8` column it decodes to.
///
/// ```
/// use lafp_columnar::{Column, Scalar};
/// let c = Column::from_opt_i64(vec![Some(3), None, Some(5)]);
/// assert_eq!(c.len(), 3);
/// assert!(c.is_null_at(1));
/// assert_eq!(c.sum(), Scalar::Int(8));
/// ```
#[derive(Debug, Clone)]
pub enum Column {
    /// 64-bit integers.
    Int64(Vec<i64>, Option<Bitmap>),
    /// 64-bit floats (NaN ≡ null).
    Float64(Vec<f64>, Option<Bitmap>),
    /// Booleans.
    Bool(Bitmap, Option<Bitmap>),
    /// UTF-8 strings in an arena ([`Utf8Col`]): one contiguous byte
    /// buffer plus row offsets. Gathers (`filter`/`take`/`sort`) are
    /// byte memcpys into a fresh compact arena; `slice` shares the
    /// arena zero-copy.
    Utf8(Utf8Col, Option<Bitmap>),
    /// Epoch-second timestamps.
    Datetime(Vec<i64>, Option<Bitmap>),
    /// Dictionary strings: codes into an arena-backed dictionary. With
    /// `category` unset the column is transparent — `dtype()` reports
    /// `Utf8`, `decode()` gathers it into a plain `Utf8` column, and
    /// null rows' codes point at an interned `""` entry so the decode
    /// reproduces the normalized null-slot sentinel. With `category` set
    /// it is pandas `category`: `dtype()` reports `Categorical`, and
    /// `decode()` leaves it as it is.
    Dict(Categorical, Option<Bitmap>),
    /// Run-length-encoded scalar lanes (see [`RleCol`]); `dtype()`
    /// reports the run values' dtype.
    Rle(RleCol),
}

impl PartialEq for Column {
    /// Same-variant pairs compare structurally (buffer-for-buffer, the
    /// semantics the previous `derive(PartialEq)` had); any pair that
    /// involves an encoding compares *logically*, row by row, so an
    /// encoded column equals its decoded form.
    fn eq(&self, other: &Column) -> bool {
        match (self, other) {
            (Column::Int64(a, va), Column::Int64(b, vb)) => a == b && va == vb,
            (Column::Float64(a, va), Column::Float64(b, vb)) => a == b && va == vb,
            (Column::Bool(a, va), Column::Bool(b, vb)) => a == b && va == vb,
            (Column::Utf8(a, va), Column::Utf8(b, vb)) => a == b && va == vb,
            (Column::Datetime(a, va), Column::Datetime(b, vb)) => a == b && va == vb,
            (Column::Dict(a, va), Column::Dict(b, vb)) => a == b && va == vb,
            (Column::Dict(..) | Column::Rle(..), _) | (_, Column::Dict(..) | Column::Rle(..)) => {
                logical_eq(self, other)
            }
            _ => false,
        }
    }
}

/// Row-by-row logical equality across representations: same dtype, same
/// length, same null positions, equal scalars at every valid row.
fn logical_eq(a: &Column, b: &Column) -> bool {
    a.dtype() == b.dtype()
        && a.len() == b.len()
        && (0..a.len()).all(|i| match (a.is_null_at(i), b.is_null_at(i)) {
            (true, true) => true,
            (false, false) => a.get(i) == b.get(i),
            _ => false,
        })
}

/// Binary comparison operators for [`Column::compare`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    /// `==`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl CmpOp {
    /// Apply to an `Ordering`-comparable pair.
    fn eval(self, ord: std::cmp::Ordering) -> bool {
        use std::cmp::Ordering::*;
        match self {
            CmpOp::Eq => ord == Equal,
            CmpOp::Ne => ord != Equal,
            CmpOp::Lt => ord == Less,
            CmpOp::Le => ord != Greater,
            CmpOp::Gt => ord == Greater,
            CmpOp::Ge => ord != Less,
        }
    }
}

/// Binary arithmetic operators for [`Column::arith`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ArithOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/` (always produces float, like pandas true division)
    Div,
    /// `%`
    Mod,
}

/// Datetime accessor fields (`.dt.*`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DtField {
    /// Monday=0 .. Sunday=6.
    DayOfWeek,
    /// Hour of day 0..23.
    Hour,
    /// Day of month 1..31.
    Day,
    /// Month 1..12.
    Month,
    /// Calendar year.
    Year,
}

impl DtField {
    /// Parse the pandas accessor name.
    pub fn parse(name: &str) -> Option<DtField> {
        match name {
            "dayofweek" | "weekday" => Some(DtField::DayOfWeek),
            "hour" => Some(DtField::Hour),
            "day" => Some(DtField::Day),
            "month" => Some(DtField::Month),
            "year" => Some(DtField::Year),
            _ => None,
        }
    }
}

/// String accessor operations (`.str.*`).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum StrOp {
    /// Lowercase.
    Lower,
    /// Uppercase.
    Upper,
    /// Character count (as Int64).
    Len,
    /// Substring containment test (as Bool).
    Contains(String),
    /// Prefix test (as Bool).
    StartsWith(String),
}

impl Column {
    // -- constructors --------------------------------------------------

    /// Int column without nulls.
    pub fn from_i64(values: Vec<i64>) -> Column {
        Column::Int64(values, None)
    }

    /// Float column without a validity mask (NaN still reads as null).
    pub fn from_f64(values: Vec<f64>) -> Column {
        Column::Float64(values, None)
    }

    /// Bool column without nulls.
    pub fn from_bool(values: Vec<bool>) -> Column {
        Column::Bool(Bitmap::from_bools(&values), None)
    }

    /// String column without nulls.
    pub fn from_strings<S: AsRef<str>, I: IntoIterator<Item = S>>(values: I) -> Column {
        Column::Utf8(Utf8Col::from_values(values), None)
    }

    /// Datetime column (epoch seconds) without nulls.
    pub fn from_datetimes(values: Vec<i64>) -> Column {
        Column::Datetime(values, None)
    }

    /// Int column with nulls.
    pub fn from_opt_i64(values: Vec<Option<i64>>) -> Column {
        let validity = Bitmap::from_iter(values.iter().map(Option::is_some));
        let data = values.into_iter().map(Option::unwrap_or_default).collect();
        Column::Int64(data, some_if_has_nulls(validity))
    }

    /// Float column with nulls (stored as NaN and masked).
    pub fn from_opt_f64(values: Vec<Option<f64>>) -> Column {
        let validity = Bitmap::from_iter(values.iter().map(Option::is_some));
        let data = values
            .into_iter()
            .map(|v| v.unwrap_or(f64::NAN))
            .collect();
        Column::Float64(data, some_if_has_nulls(validity))
    }

    /// String column with nulls (null slots hold the empty string).
    pub fn from_opt_strings(values: Vec<Option<String>>) -> Column {
        let validity = Bitmap::from_iter(values.iter().map(Option::is_some));
        let data =
            Utf8Col::from_values(values.iter().map(|v| v.as_deref().unwrap_or_default()));
        Column::Utf8(data, some_if_has_nulls(validity))
    }

    /// Datetime column with nulls.
    pub fn from_opt_datetimes(values: Vec<Option<i64>>) -> Column {
        let validity = Bitmap::from_iter(values.iter().map(Option::is_some));
        let data = values.into_iter().map(Option::unwrap_or_default).collect();
        Column::Datetime(data, some_if_has_nulls(validity))
    }

    /// Column of `len` copies of a scalar.
    pub fn full(len: usize, value: &Scalar) -> Column {
        match value {
            Scalar::Null => Column::Float64(vec![f64::NAN; len], Some(Bitmap::new(len, false))),
            Scalar::Int(v) => Column::from_i64(vec![*v; len]),
            Scalar::Float(v) => Column::from_f64(vec![*v; len]),
            Scalar::Bool(v) => Column::from_bool(vec![*v; len]),
            Scalar::Str(v) => {
                Column::Utf8(Utf8Col::from_values(std::iter::repeat_n(v.as_str(), len)), None)
            }
            Scalar::Datetime(v) => Column::from_datetimes(vec![*v; len]),
        }
    }

    /// Build a column of the given dtype from scalars (used by builders and
    /// tests). Scalars must be null or coercible to `dtype`.
    pub fn from_scalars(dtype: DType, values: &[Scalar]) -> Result<Column> {
        let mut col = ColumnBuilder::new(dtype);
        for v in values {
            col.push_scalar(v)?;
        }
        Ok(col.finish())
    }

    // -- basics --------------------------------------------------------

    /// Number of rows.
    pub fn len(&self) -> usize {
        match self {
            Column::Int64(v, _) => v.len(),
            Column::Float64(v, _) => v.len(),
            Column::Bool(v, _) => v.len(),
            Column::Utf8(v, _) => v.len(),
            Column::Datetime(v, _) => v.len(),
            Column::Dict(c, _) => c.codes.len(),
            Column::Rle(r) => r.len(),
        }
    }

    /// True when the column has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The column's dtype. Encodings are transparent: a `Dict` is a
    /// string column unless its payload is flagged `category`, and `Rle`
    /// has its run values' dtype.
    pub fn dtype(&self) -> DType {
        match self {
            Column::Int64(..) => DType::Int64,
            Column::Float64(..) => DType::Float64,
            Column::Bool(..) => DType::Bool,
            Column::Utf8(..) => DType::Utf8,
            Column::Datetime(..) => DType::Datetime,
            Column::Dict(c, _) if c.category => DType::Categorical,
            Column::Dict(..) => DType::Utf8,
            Column::Rle(r) => r.values.dtype(),
        }
    }

    /// True when the column is stored in a transparent encoding: a
    /// [`Column::Dict`] that is not a category, or a [`Column::Rle`].
    /// A category column is its dtype's own layout, not an encoding.
    pub fn is_encoded(&self) -> bool {
        match self {
            Column::Dict(c, _) => !c.category,
            Column::Rle(_) => true,
            _ => false,
        }
    }

    /// Validity mask, if any. `Rle` columns keep nulls at run
    /// granularity inside their values column and report `None` here;
    /// use [`Column::is_null_at`] / [`Column::count_null`] for
    /// row-level null state that covers every representation.
    pub fn validity(&self) -> Option<&Bitmap> {
        match self {
            Column::Int64(_, v)
            | Column::Float64(_, v)
            | Column::Bool(_, v)
            | Column::Utf8(_, v)
            | Column::Datetime(_, v)
            | Column::Dict(_, v) => v.as_ref(),
            Column::Rle(_) => None,
        }
    }

    /// Is row `i` null? (NaN counts for floats.)
    pub fn is_null_at(&self, i: usize) -> bool {
        if let Some(v) = self.validity() {
            if !v.get(i) {
                return true;
            }
        }
        match self {
            Column::Float64(data, _) => data[i].is_nan(),
            Column::Rle(r) => r.values.is_null_at(r.run_of(i)),
            _ => false,
        }
    }

    /// Number of non-null rows.
    pub fn count_valid(&self) -> usize {
        match self {
            // Floats must additionally discount NaN cells.
            Column::Float64(data, validity) => match validity {
                Some(m) => data
                    .iter()
                    .enumerate()
                    .filter(|(i, v)| m.get(*i) && !v.is_nan())
                    .count(),
                None => data.iter().filter(|v| !v.is_nan()).count(),
            },
            // Per-run: a run contributes its whole width when its value
            // row is valid.
            Column::Rle(r) => (0..r.num_runs())
                .filter(|&k| !r.values.is_null_at(k))
                .map(|k| {
                    let (s, e) = r.run_bounds(k);
                    e - s
                })
                .sum(),
            _ => match self.validity() {
                Some(m) => m.count_set(),
                None => self.len(),
            },
        }
    }

    /// Number of null rows.
    pub fn count_null(&self) -> usize {
        self.len() - self.count_valid()
    }

    /// Value at row `i` as a scalar.
    pub fn get(&self, i: usize) -> Scalar {
        if self.is_null_at(i) {
            return Scalar::Null;
        }
        match self {
            Column::Int64(v, _) => Scalar::Int(v[i]),
            Column::Float64(v, _) => Scalar::Float(v[i]),
            Column::Bool(v, _) => Scalar::Bool(v.get(i)),
            Column::Utf8(v, _) => Scalar::Str(v.get(i).to_string()),
            Column::Datetime(v, _) => Scalar::Datetime(v[i]),
            Column::Dict(c, _) => Scalar::Str(c.dict.get(c.codes[i] as usize).to_string()),
            Column::Rle(r) => r.values.get(r.run_of(i)),
        }
    }

    // -- encodings -------------------------------------------------------

    /// Materialize an encoded column into its plain representation:
    /// a transparent `Dict` gathers dictionary bytes into a fresh arena,
    /// `Rle` expands runs into full lanes. Plain and category columns
    /// clone, so a category never silently becomes `Utf8`. This is the
    /// explicit, caller-requested decode — kernels that bail out of an encoded
    /// fast path go through the crate-internal `Column::decoded` instead,
    /// which also bumps the decode-fallback counter.
    pub fn decode(&self) -> Column {
        match self {
            Column::Dict(c, validity) if !c.category => {
                Column::Utf8(c.dict.gather(&c.codes), validity.clone())
            }
            Column::Rle(r) => {
                let plain = r.values.decode();
                let runs = r.num_runs();
                let mut idx: Vec<u32> = Vec::with_capacity(r.len());
                for k in 0..runs {
                    let (s, e) = r.run_bounds(k);
                    idx.extend(std::iter::repeat_n(k as u32, e - s));
                }
                let expanded = plain.take_unchecked(&idx);
                // Normalize the validity shape: run-level nulls expand
                // to a row-level mask only when nulls exist.
                match expanded.count_null() {
                    0 => expanded.with_validity(None),
                    _ => expanded,
                }
            }
            other => other.clone(),
        }
    }

    /// The column viewed in plain representation: borrows `self` when it
    /// is already plain, decodes otherwise. Kernels use this as the
    /// universal fallback when no encoded fast path applies; each real
    /// decode is recorded in [`crate::encoding`]'s fallback counter (the
    /// zero-decode acceptance tests key off it).
    pub(crate) fn decoded(&self) -> std::borrow::Cow<'_, Column> {
        if self.is_encoded() {
            crate::encoding::global().record_decode_fallback();
            std::borrow::Cow::Owned(self.decode())
        } else {
            std::borrow::Cow::Borrowed(self)
        }
    }

    /// Like [`decoded`](Self::decoded), but only expands run-length
    /// columns: kernels with dictionary fast paths (group-by, join, sort
    /// keying) call this so `Dict` flows through untouched while `Rle`
    /// falls back to plain rows.
    pub(crate) fn rle_decoded(&self) -> std::borrow::Cow<'_, Column> {
        if matches!(self, Column::Rle(_)) {
            crate::encoding::global().record_decode_fallback();
            std::borrow::Cow::Owned(self.decode())
        } else {
            std::borrow::Cow::Borrowed(self)
        }
    }

    /// Iterate rows as scalars.
    pub fn iter(&self) -> impl Iterator<Item = Scalar> + '_ {
        (0..self.len()).map(move |i| self.get(i))
    }

    /// Bool column flagging null rows (pandas `isna`).
    pub fn is_null_mask(&self) -> Bitmap {
        Bitmap::from_iter((0..self.len()).map(|i| self.is_null_at(i)))
    }

    // -- selection kernels ----------------------------------------------

    /// Keep rows where `mask` is set. Compaction runs straight off the
    /// mask words — no index vector is materialized.
    pub fn filter(&self, mask: &Bitmap) -> Result<Column> {
        if mask.len() != self.len() {
            return Err(ColumnarError::LengthMismatch {
                left: self.len(),
                right: mask.len(),
            });
        }
        let n = mask.count_set();
        let validity = self.validity().map(|v| v.filter(mask));
        Ok(match self {
            // Fixed-width lanes compact run-at-a-time: each maximal run
            // of surviving rows is one slice memcpy, and all-set mask
            // words are consumed 64 rows per step.
            Column::Int64(data, _) => {
                let mut out = Vec::with_capacity(n);
                mask.for_each_set_run(|s, l| out.extend_from_slice(&data[s..s + l]));
                Column::Int64(out, validity)
            }
            Column::Float64(data, _) => {
                let mut out = Vec::with_capacity(n);
                mask.for_each_set_run(|s, l| out.extend_from_slice(&data[s..s + l]));
                Column::Float64(out, validity)
            }
            Column::Bool(data, _) => Column::Bool(data.filter(mask), validity),
            // Arena compaction: contiguous kept runs copy their bytes in
            // one extend_from_slice, no per-row refcount traffic.
            Column::Utf8(data, _) => Column::Utf8(data.filter(mask), validity),
            Column::Datetime(data, _) => {
                let mut out = Vec::with_capacity(n);
                mask.for_each_set_run(|s, l| out.extend_from_slice(&data[s..s + l]));
                Column::Datetime(out, validity)
            }
            Column::Dict(c, _) => {
                let mut codes = Vec::with_capacity(n);
                mask.for_each_set_run(|s, l| codes.extend_from_slice(&c.codes[s..s + l]));
                Column::Dict(c.with_codes(codes), validity)
            }
            // Run-aligned compaction: size each surviving run with one
            // popcount per touched mask word, never visiting rows.
            Column::Rle(r) => {
                let mut kept_runs = Bitmap::new(r.num_runs(), false);
                let mut ends: Vec<u32> = Vec::new();
                let mut total = 0u32;
                for k in 0..r.num_runs() {
                    let (s, e) = r.run_bounds(k);
                    let cnt = mask.count_range(s, e) as u32;
                    if cnt > 0 {
                        kept_runs.set(k, true);
                        total += cnt;
                        ends.push(total);
                    }
                }
                let values = r.values.filter(&kept_runs)?;
                Column::Rle(RleCol {
                    values: Box::new(values),
                    ends,
                })
            }
        })
    }

    /// Gather rows at `indices` (must be in bounds).
    pub fn take(&self, indices: &[usize]) -> Result<Column> {
        let len = self.len();
        if let Some(&bad) = indices.iter().find(|&&i| i >= len) {
            return Err(ColumnarError::InvalidArgument(format!(
                "take index {bad} out of bounds for column of length {len}"
            )));
        }
        Ok(self.take_unchecked(indices))
    }

    /// `take` without the bounds scan, for callers whose indices are in
    /// bounds by construction (join assembly over computed row ids).
    /// Generic over the index width — joins pass `u32` row ids.
    pub(crate) fn take_unchecked<I: IndexLike>(&self, indices: &[I]) -> Column {
        let validity = self.validity().map(|v| v.take_idx(indices));
        match self {
            Column::Int64(data, _) => {
                Column::Int64(indices.iter().map(|&i| data[i.idx()]).collect(), validity)
            }
            Column::Float64(data, _) => {
                Column::Float64(indices.iter().map(|&i| data[i.idx()]).collect(), validity)
            }
            Column::Bool(data, _) => Column::Bool(data.take_idx(indices), validity),
            // Offset-range memcpys; ascending runs (join assembly)
            // collapse to single byte-range copies — see Utf8Col::gather.
            Column::Utf8(data, _) => Column::Utf8(data.gather(indices), validity),
            Column::Datetime(data, _) => {
                Column::Datetime(indices.iter().map(|&i| data[i.idx()]).collect(), validity)
            }
            Column::Dict(c, _) => Column::Dict(
                c.with_codes(indices.iter().map(|&i| c.codes[i.idx()]).collect()),
                validity,
            ),
            // Random gathers destroy run structure: map each index to
            // its run and gather from the (small) run values column.
            // Output is plain, proportional to the index count.
            Column::Rle(r) => {
                let run_idx: Vec<usize> = indices.iter().map(|&i| r.run_of(i.idx())).collect();
                let gathered = r.values.decode().take_unchecked(&run_idx);
                match gathered.count_null() {
                    0 => gathered.with_validity(None),
                    _ => gathered,
                }
            }
        }
    }

    /// Contiguous row range `[offset, offset + len)`, clamped to the
    /// column length. Slices the underlying buffers directly — O(len)
    /// memcpy-style copies, no index vector, no per-row work — so `head(n)`
    /// no longer costs O(column length).
    pub fn slice(&self, offset: usize, len: usize) -> Column {
        let start = offset.min(self.len());
        let end = offset.saturating_add(len).min(self.len());
        let n = end - start;
        let validity = self.validity().map(|v| v.slice(start, n));
        match self {
            Column::Int64(data, _) => Column::Int64(data[start..end].to_vec(), validity),
            Column::Float64(data, _) => Column::Float64(data[start..end].to_vec(), validity),
            Column::Bool(data, _) => Column::Bool(data.slice(start, n), validity),
            // Zero-copy: the arena is shared, only the offset window moves.
            Column::Utf8(data, _) => Column::Utf8(data.slice(start, n), validity),
            Column::Datetime(data, _) => Column::Datetime(data[start..end].to_vec(), validity),
            Column::Dict(c, _) => {
                Column::Dict(c.with_codes(c.codes[start..end].to_vec()), validity)
            }
            // Clip the run list to the window: O(runs-in-window), with
            // the (small) values column sliced to the same run range.
            Column::Rle(r) => {
                if n == 0 {
                    return Column::Rle(RleCol {
                        values: Box::new(r.values.slice(0, 0)),
                        ends: Vec::new(),
                    });
                }
                let lo = r.run_of(start);
                let hi = r.run_of(end - 1);
                let ends = (lo..=hi)
                    .map(|k| ((r.ends[k] as usize).min(end) - start) as u32)
                    .collect();
                Column::Rle(RleCol {
                    values: Box::new(r.values.slice(lo, hi - lo + 1)),
                    ends,
                })
            }
        }
    }

    /// Concatenate two same-dtype columns: [`Column::concat_many`] over
    /// the pair.
    pub fn concat(&self, other: &Column) -> Result<Column> {
        Column::concat_many(&[self, other])
    }

    /// Stack same-dtype columns in order, sizing every output buffer
    /// once. The result equals a left fold of pairwise concats, built in
    /// one pass over the rows instead of one per fold step:
    ///
    /// * null slots normalize to the builder sentinels (0 / NaN / `""` /
    ///   false), and the validity mask exists only when some row is null;
    /// * all-`Dict` parts — transparent or category — unify their
    ///   dictionaries once, in part order — the first dictionary's
    ///   entries, then each later dictionary's new entries in its own
    ///   order — and remap codes (parts sharing one `Arc` dictionary only
    ///   append codes);
    /// * all-`Rle` parts concatenate their run values and rebase run ends;
    /// * mixed encodings of one dtype decode the encoded parts and take
    ///   the plain path, or the dictionary path when the dtype is
    ///   category (a decoded category is still a `Dict`).
    ///
    /// A single part is returned as a clone; zero parts are an error.
    pub fn concat_many(parts: &[&Column]) -> Result<Column> {
        let Some((first, rest)) = parts.split_first() else {
            return Err(ColumnarError::InvalidArgument(
                "concat of zero columns".into(),
            ));
        };
        if let Some(bad) = rest.iter().find(|p| p.dtype() != first.dtype()) {
            return Err(ColumnarError::TypeMismatch {
                op: format!("concat with {}", bad.dtype()),
                dtype: first.dtype().to_string(),
            });
        }
        if rest.is_empty() {
            return Ok((*first).clone());
        }
        if parts.iter().all(|p| matches!(p, Column::Dict(..))) {
            return Ok(concat_dicts(parts));
        }
        if parts.iter().all(|p| matches!(p, Column::Rle(_))) {
            return concat_rles(parts);
        }
        let decoded: Vec<std::borrow::Cow<'_, Column>> = parts
            .iter()
            .map(|p| {
                if p.is_encoded() {
                    std::borrow::Cow::Owned(p.decode())
                } else {
                    std::borrow::Cow::Borrowed(*p)
                }
            })
            .collect();
        let plain: Vec<&Column> = decoded.iter().map(AsRef::as_ref).collect();
        Ok(match plain[0] {
            Column::Dict(..) => concat_dicts(&plain),
            _ => concat_plain(&plain),
        })
    }

    // -- comparison / arithmetic / logic ---------------------------------

    /// Element-wise comparison against another column; null op anything is
    /// null... which for a filter mask means "excluded", so we surface the
    /// pandas behaviour of nulls comparing false.
    pub fn compare(&self, op: CmpOp, other: &Column) -> Result<Bitmap> {
        if self.len() != other.len() {
            return Err(ColumnarError::LengthMismatch {
                left: self.len(),
                right: other.len(),
            });
        }
        let len = self.len();
        // Typed fast paths: match the buffer pair once, then run a tight
        // loop. Null rows compare false except under `Ne` (pandas).
        let bits = match (self, other) {
            (Column::Int64(a, va), Column::Int64(b, vb)) => {
                cmp_loop(op, len, va, vb, |i| a[i].cmp(&b[i]))
            }
            (Column::Datetime(a, va), Column::Datetime(b, vb)) => {
                cmp_loop(op, len, va, vb, |i| a[i].cmp(&b[i]))
            }
            (Column::Float64(a, va), Column::Float64(b, vb)) => {
                Bitmap::from_iter((0..len).map(|i| {
                    let (x, y) = (a[i], b[i]);
                    if x.is_nan()
                        || y.is_nan()
                        || va.as_ref().is_some_and(|m| !m.get(i))
                        || vb.as_ref().is_some_and(|m| !m.get(i))
                    {
                        op == CmpOp::Ne
                    } else {
                        op.eval(x.partial_cmp(&y).unwrap_or(std::cmp::Ordering::Equal))
                    }
                }))
            }
            (Column::Int64(a, va), Column::Float64(b, vb)) => {
                Bitmap::from_iter((0..len).map(|i| {
                    if b[i].is_nan()
                        || va.as_ref().is_some_and(|m| !m.get(i))
                        || vb.as_ref().is_some_and(|m| !m.get(i))
                    {
                        op == CmpOp::Ne
                    } else {
                        op.eval(
                            (a[i] as f64)
                                .partial_cmp(&b[i])
                                .unwrap_or(std::cmp::Ordering::Equal),
                        )
                    }
                }))
            }
            (Column::Float64(a, va), Column::Int64(b, vb)) => {
                Bitmap::from_iter((0..len).map(|i| {
                    if a[i].is_nan()
                        || va.as_ref().is_some_and(|m| !m.get(i))
                        || vb.as_ref().is_some_and(|m| !m.get(i))
                    {
                        op == CmpOp::Ne
                    } else {
                        op.eval(
                            a[i].partial_cmp(&(b[i] as f64))
                                .unwrap_or(std::cmp::Ordering::Equal),
                        )
                    }
                }))
            }
            (Column::Utf8(a, va), Column::Utf8(b, vb)) => {
                cmp_loop(op, len, va, vb, |i| a.bytes_at(i).cmp(b.bytes_at(i)))
            }
            (Column::Bool(a, va), Column::Bool(b, vb)) => {
                cmp_loop(op, len, va, vb, |i| a.get(i).cmp(&b.get(i)))
            }
            // Mixed / categorical pairs fall back to the scalar loop.
            _ => Bitmap::from_iter((0..len).map(|i| {
                let (a, b) = (self.get(i), other.get(i));
                if a.is_null() || b.is_null() {
                    op == CmpOp::Ne
                } else {
                    op.eval(a.cmp_values(&b))
                }
            })),
        };
        Ok(bits)
    }

    /// Element-wise comparison against a scalar.
    pub fn compare_scalar(&self, op: CmpOp, rhs: &Scalar) -> Result<Bitmap> {
        // Fast paths for the hot numeric cases.
        match (self, rhs.as_f64()) {
            (Column::Int64(data, validity), Some(x)) => {
                return Ok(Bitmap::from_iter(data.iter().enumerate().map(|(i, v)| {
                    if validity.as_ref().is_some_and(|m| !m.get(i)) {
                        op == CmpOp::Ne
                    } else {
                        op.eval((*v as f64).partial_cmp(&x).unwrap())
                    }
                })))
            }
            (Column::Float64(data, validity), Some(x)) => {
                return Ok(Bitmap::from_iter(data.iter().enumerate().map(|(i, v)| {
                    let null = v.is_nan() || validity.as_ref().is_some_and(|m| !m.get(i));
                    if null {
                        op == CmpOp::Ne
                    } else {
                        match v.partial_cmp(&x) {
                            Some(ord) => op.eval(ord),
                            None => false,
                        }
                    }
                })))
            }
            _ => {}
        }
        // String fast path: compare &str directly, no Scalar per row.
        if let (Column::Utf8(data, validity), Scalar::Str(s)) = (self, rhs) {
            return Ok(Bitmap::from_iter(data.iter().enumerate().map(|(i, v)| {
                if validity.as_ref().is_some_and(|m| !m.get(i)) {
                    op == CmpOp::Ne
                } else {
                    op.eval(v.cmp(s.as_str()))
                }
            })));
        }
        // Dictionary fast path (transparent and category alike): evaluate
        // the predicate once per distinct entry into a verdict table, then
        // answer each row with one code lookup — O(dict + rows) instead of
        // O(rows) comparisons.
        if let Column::Dict(c, validity) = self {
            let verdicts: Vec<bool> = (0..c.dict.len())
                .map(|e| {
                    if rhs.is_null() {
                        op == CmpOp::Ne
                    } else {
                        match rhs {
                            Scalar::Str(s) => op.eval(c.dict.get(e).cmp(s.as_str())),
                            other => op.eval(Scalar::Str(c.dict.get(e).to_string()).cmp_values(other)),
                        }
                    }
                })
                .collect();
            return Ok(Bitmap::from_iter(c.codes.iter().enumerate().map(
                |(i, &code)| {
                    if validity.as_ref().is_some_and(|m| !m.get(i)) {
                        op == CmpOp::Ne
                    } else {
                        verdicts[code as usize]
                    }
                },
            )));
        }
        // Run fast path: one predicate evaluation per run (through the
        // values column's own scalar-compare kernel, so null and NaN
        // semantics match the decoded execution bit for bit), expanded
        // to a row mask 64 bits at a time.
        if let Column::Rle(r) = self {
            let per_run = r.values.compare_scalar(op, rhs)?;
            let mut w = crate::bitmap::BitWriter::with_capacity(r.len());
            for k in 0..r.num_runs() {
                let (s, e) = r.run_bounds(k);
                w.append_run(per_run.get(k), e - s);
            }
            return Ok(w.finish());
        }
        Ok(Bitmap::from_iter((0..self.len()).map(|i| {
            let a = self.get(i);
            if a.is_null() || rhs.is_null() {
                op == CmpOp::Ne
            } else {
                op.eval(a.cmp_values(rhs))
            }
        })))
    }

    /// Element-wise arithmetic against another column. Int/Int stays int
    /// except for `Div`, which is float like pandas.
    pub fn arith(&self, op: ArithOp, other: &Column) -> Result<Column> {
        if self.len() != other.len() {
            return Err(ColumnarError::LengthMismatch {
                left: self.len(),
                right: other.len(),
            });
        }
        // A run-length operand paired with a varying column cannot keep
        // its run structure; expand it so the typed arms below see the
        // same lanes (and produce the same output dtype) as decoded
        // execution.
        if matches!(self, Column::Rle(_)) || matches!(other, Column::Rle(_)) {
            let a = self.rle_decoded();
            let b = other.rle_decoded();
            return a.arith(op, b.as_ref());
        }
        let len = self.len();
        if let (Column::Int64(a, va), Column::Int64(b, vb)) = (self, other) {
            if op != ArithOp::Div {
                return Ok(int_arith(op, a, va.as_ref(), b, vb.as_ref()));
            }
        }
        let apply = |x: f64, y: f64| match op {
            ArithOp::Add => x + y,
            ArithOp::Sub => x - y,
            ArithOp::Mul => x * y,
            ArithOp::Div => x / y,
            ArithOp::Mod => x.rem_euclid(y),
        };
        // Direct arms for the dominant float pairs: one fused loop, no
        // intermediate lane buffers. Null operands read as NaN.
        let fval = |d: &[f64], m: &Option<Bitmap>, i: usize| -> f64 {
            if m.as_ref().is_some_and(|m| !m.get(i)) {
                f64::NAN
            } else {
                d[i]
            }
        };
        let ival = |d: &[i64], m: &Option<Bitmap>, i: usize| -> f64 {
            if m.as_ref().is_some_and(|m| !m.get(i)) {
                f64::NAN
            } else {
                d[i] as f64
            }
        };
        let out: Vec<f64> = match (self, other) {
            (Column::Float64(a, va), Column::Float64(b, vb)) => (0..len)
                .map(|i| apply(fval(a, va, i), fval(b, vb, i)))
                .collect(),
            (Column::Int64(a, va), Column::Float64(b, vb)) => (0..len)
                .map(|i| apply(ival(a, va, i), fval(b, vb, i)))
                .collect(),
            (Column::Float64(a, va), Column::Int64(b, vb)) => (0..len)
                .map(|i| apply(fval(a, va, i), ival(b, vb, i)))
                .collect(),
            // Remaining numeric mixes (bool/datetime operands, int÷int) go
            // through f64 lanes with NaN in the null slots. Non-numeric
            // operands are all-NaN, the same result the old scalar loop
            // produced via `as_f64() == None`.
            _ => match (self.f64_lanes(), other.f64_lanes()) {
                (Some(a), Some(b)) => {
                    a.iter().zip(&b).map(|(&x, &y)| apply(x, y)).collect()
                }
                _ => vec![f64::NAN; len],
            },
        };
        Ok(Column::Float64(out, None))
    }

    /// The column lowered to f64 values with NaN in every null slot; `None`
    /// for non-numeric dtypes. This is the common carrier for mixed-dtype
    /// arithmetic.
    fn f64_lanes(&self) -> Option<Vec<f64>> {
        let valid = |validity: &Option<Bitmap>, i: usize| -> bool {
            validity.as_ref().is_none_or(|m| m.get(i))
        };
        match self {
            Column::Int64(data, validity) | Column::Datetime(data, validity) => Some(
                data.iter()
                    .enumerate()
                    .map(|(i, &v)| if valid(validity, i) { v as f64 } else { f64::NAN })
                    .collect(),
            ),
            Column::Float64(data, validity) => Some(
                data.iter()
                    .enumerate()
                    .map(|(i, &v)| if valid(validity, i) { v } else { f64::NAN })
                    .collect(),
            ),
            Column::Bool(data, validity) => Some(
                (0..data.len())
                    .map(|i| {
                        if valid(validity, i) {
                            if data.get(i) {
                                1.0
                            } else {
                                0.0
                            }
                        } else {
                            f64::NAN
                        }
                    })
                    .collect(),
            ),
            Column::Utf8(..) | Column::Dict(..) => None,
            // Expand the (small) run lanes — same f64 per row as the
            // decoded column, no decode fallback.
            Column::Rle(r) => {
                let inner = r.values.f64_lanes()?;
                let mut out = Vec::with_capacity(r.len());
                for (k, &v) in inner.iter().enumerate() {
                    let (s, e) = r.run_bounds(k);
                    out.extend(std::iter::repeat_n(v, e - s));
                }
                Some(out)
            }
        }
    }

    /// Element-wise arithmetic against a scalar.
    pub fn arith_scalar(&self, op: ArithOp, rhs: &Scalar) -> Result<Column> {
        // Run fast path: apply the operator once per run and keep the
        // run structure. Element-wise ops on equal inputs give equal
        // outputs, so this is bit-identical to decoded execution.
        if let Column::Rle(r) = self {
            let values = r.values.arith_scalar(op, rhs)?;
            return Ok(Column::Rle(RleCol {
                values: Box::new(values),
                ends: r.ends.clone(),
            }));
        }
        // Fast integer path.
        if let (Column::Int64(data, validity), Some(x), false) =
            (self, rhs.as_i64(), matches!(rhs, Scalar::Datetime(_)))
        {
            if op != ArithOp::Div && !(op == ArithOp::Mod && x == 0) {
                let out: Vec<i64> = data
                    .iter()
                    .map(|&v| match op {
                        ArithOp::Add => v.wrapping_add(x),
                        ArithOp::Sub => v.wrapping_sub(x),
                        ArithOp::Mul => v.wrapping_mul(x),
                        ArithOp::Mod => v.rem_euclid(x),
                        ArithOp::Div => unreachable!(),
                    })
                    .collect();
                return Ok(Column::Int64(out, validity.clone()));
            }
        }
        let rhs_col = Column::full(self.len(), rhs);
        self.arith(op, &rhs_col)
    }

    /// Element-wise logical AND of two bool columns.
    pub fn and(&self, other: &Column) -> Result<Bitmap> {
        Ok(self.as_mask()?.and(&other.as_mask()?))
    }

    /// Element-wise logical OR of two bool columns.
    pub fn or(&self, other: &Column) -> Result<Bitmap> {
        Ok(self.as_mask()?.or(&other.as_mask()?))
    }

    /// Logical NOT of a bool column.
    pub fn invert(&self) -> Result<Bitmap> {
        Ok(self.as_mask()?.not())
    }

    /// View a bool column as a filter mask (nulls read as false).
    pub fn as_mask(&self) -> Result<Bitmap> {
        match self {
            Column::Bool(bits, validity) => Ok(match validity {
                Some(v) => bits.and(v),
                None => bits.clone(),
            }),
            // Run-expand the values column's mask (errors with the run
            // dtype's name for non-bool lanes, same as decoded).
            Column::Rle(r) => {
                let run_mask = r.values.as_mask()?;
                let mut w = crate::bitmap::BitWriter::with_capacity(r.len());
                for k in 0..r.num_runs() {
                    let (s, e) = r.run_bounds(k);
                    w.append_run(run_mask.get(k), e - s);
                }
                Ok(w.finish())
            }
            _ => Err(ColumnarError::TypeMismatch {
                op: "as_mask".into(),
                dtype: self.dtype().to_string(),
            }),
        }
    }

    // -- unary kernels ---------------------------------------------------

    /// Absolute value (numeric columns).
    pub fn abs(&self) -> Result<Column> {
        match self {
            Column::Int64(v, m) => Ok(Column::Int64(
                v.iter().map(|x| x.wrapping_abs()).collect(),
                m.clone(),
            )),
            Column::Float64(v, m) => {
                Ok(Column::Float64(v.iter().map(|x| x.abs()).collect(), m.clone()))
            }
            Column::Rle(r) => Ok(Column::Rle(RleCol {
                values: Box::new(r.values.abs()?),
                ends: r.ends.clone(),
            })),
            _ => Err(ColumnarError::TypeMismatch {
                op: "abs".into(),
                dtype: self.dtype().to_string(),
            }),
        }
    }

    /// Round to `digits` decimal places (floats; ints pass through).
    pub fn round(&self, digits: i32) -> Result<Column> {
        match self {
            Column::Float64(v, m) => {
                let p = 10f64.powi(digits);
                Ok(Column::Float64(
                    v.iter().map(|x| (x * p).round() / p).collect(),
                    m.clone(),
                ))
            }
            Column::Int64(..) => Ok(self.clone()),
            Column::Rle(r) => Ok(Column::Rle(RleCol {
                values: Box::new(r.values.round(digits)?),
                ends: r.ends.clone(),
            })),
            _ => Err(ColumnarError::TypeMismatch {
                op: "round".into(),
                dtype: self.dtype().to_string(),
            }),
        }
    }

    /// Replace nulls with `fill` (pandas `fillna`).
    pub fn fillna(&self, fill: &Scalar) -> Result<Column> {
        // No nulls: nothing to fill. Reproduce the builder's output shape
        // (validity dropped) without touching any row.
        if self.count_null() == 0 {
            return Ok(self.with_validity(None));
        }
        let coerced = match cast_scalar(fill, self.dtype()) {
            Some(s) => s,
            None => {
                return Err(ColumnarError::ParseError {
                    value: fill.to_string(),
                    dtype: self.dtype().to_string(),
                    line: None,
                })
            }
        };
        match (self, &coerced) {
            (Column::Int64(data, _), Scalar::Int(fv)) => Ok(Column::Int64(
                data.iter()
                    .enumerate()
                    .map(|(i, &v)| if self.is_null_at(i) { *fv } else { v })
                    .collect(),
                None,
            )),
            (Column::Datetime(data, _), Scalar::Datetime(fv)) => Ok(Column::Datetime(
                data.iter()
                    .enumerate()
                    .map(|(i, &v)| if self.is_null_at(i) { *fv } else { v })
                    .collect(),
                None,
            )),
            (Column::Float64(data, _), Scalar::Float(fv)) => Ok(Column::Float64(
                data.iter()
                    .enumerate()
                    .map(|(i, &v)| if self.is_null_at(i) { *fv } else { v })
                    .collect(),
                None,
            )),
            (Column::Bool(data, _), Scalar::Bool(fv)) => Ok(Column::Bool(
                Bitmap::from_iter(
                    (0..data.len()).map(|i| if self.is_null_at(i) { *fv } else { data.get(i) }),
                ),
                None,
            )),
            (Column::Utf8(data, _), Scalar::Str(fv)) => {
                let mut out = Utf8Builder::with_capacity(data.len(), data.value_bytes());
                for (i, v) in data.iter().enumerate() {
                    out.push(if self.is_null_at(i) { fv.as_str() } else { v });
                }
                Ok(Column::Utf8(out.finish(), None))
            }
            // Null fill, or a dictionary column (re-encodes): builder
            // fallback.
            _ => {
                let mut b = ColumnBuilder::new(self.dtype());
                for i in 0..self.len() {
                    if self.is_null_at(i) {
                        b.push_scalar(fill)?;
                    } else {
                        b.push_scalar(&self.get(i))?;
                    }
                }
                Ok(b.finish())
            }
        }
    }

    /// The same data with a different validity mask (internal helper for
    /// null-normalizing fast paths).
    fn with_validity(&self, validity: Option<Bitmap>) -> Column {
        match self {
            Column::Int64(d, _) => Column::Int64(d.clone(), validity),
            Column::Float64(d, _) => Column::Float64(d.clone(), validity),
            Column::Bool(d, _) => Column::Bool(d.clone(), validity),
            Column::Utf8(d, _) => Column::Utf8(d.clone(), validity),
            Column::Datetime(d, _) => Column::Datetime(d.clone(), validity),
            Column::Dict(c, _) => Column::Dict(c.clone(), validity),
            // Rle keeps nulls at run granularity; attaching a row-level
            // mask forces materialization.
            Column::Rle(r) => match validity {
                None => Column::Rle(r.clone()),
                some => self.decode().with_validity(some),
            },
        }
    }

    /// Cast to `target` dtype (pandas `astype`).
    pub fn cast(&self, target: DType) -> Result<Column> {
        if self.dtype() == target {
            return Ok(self.clone());
        }
        if target == DType::Categorical {
            return self.to_categorical();
        }
        // Typed numeric↔numeric and string-parse paths; anything else
        // (formatting to strings, bool parsing, datetime strings) keeps the
        // scalar builder loop, whose per-row cost is inherent to the
        // conversion.
        let validity = || self.normalized_validity();
        match (self, target) {
            (Column::Int64(data, _), DType::Float64) => Ok(Column::Float64(
                data.iter()
                    .enumerate()
                    .map(|(i, &v)| if self.is_null_at(i) { f64::NAN } else { v as f64 })
                    .collect(),
                validity(),
            )),
            (Column::Int64(data, _), DType::Datetime) => {
                Ok(Column::Datetime(data.clone(), validity()))
            }
            (Column::Datetime(data, _), DType::Int64) => {
                Ok(Column::Int64(data.clone(), validity()))
            }
            (Column::Datetime(data, _), DType::Float64) => Ok(Column::Float64(
                data.iter()
                    .enumerate()
                    .map(|(i, &v)| if self.is_null_at(i) { f64::NAN } else { v as f64 })
                    .collect(),
                validity(),
            )),
            (Column::Float64(data, _), DType::Int64) => Ok(Column::Int64(
                data.iter()
                    .enumerate()
                    .map(|(i, &v)| if self.is_null_at(i) { 0 } else { v as i64 })
                    .collect(),
                validity(),
            )),
            (Column::Bool(data, _), DType::Int64) => Ok(Column::Int64(
                (0..data.len())
                    .map(|i| if self.is_null_at(i) { 0 } else { i64::from(data.get(i)) })
                    .collect(),
                validity(),
            )),
            (Column::Bool(data, _), DType::Float64) => Ok(Column::Float64(
                (0..data.len())
                    .map(|i| {
                        if self.is_null_at(i) {
                            f64::NAN
                        } else if data.get(i) {
                            1.0
                        } else {
                            0.0
                        }
                    })
                    .collect(),
                validity(),
            )),
            (Column::Utf8(data, _), DType::Int64) => {
                let mut out = Vec::with_capacity(data.len());
                for (i, v) in data.iter().enumerate() {
                    if self.is_null_at(i) {
                        out.push(0);
                    } else {
                        out.push(v.trim().parse().map_err(|_| ColumnarError::ParseError {
                            value: v.to_string(),
                            dtype: target.to_string(),
                            line: None,
                        })?);
                    }
                }
                Ok(Column::Int64(out, validity()))
            }
            (Column::Utf8(data, _), DType::Float64) => {
                let mut out = Vec::with_capacity(data.len());
                for (i, v) in data.iter().enumerate() {
                    if self.is_null_at(i) {
                        out.push(f64::NAN);
                    } else {
                        out.push(v.trim().parse().map_err(|_| ColumnarError::ParseError {
                            value: v.to_string(),
                            dtype: target.to_string(),
                            line: None,
                        })?);
                    }
                }
                Ok(Column::Float64(out, validity()))
            }
            // A category (dtype differs from Utf8): one gather off the
            // dictionary, after expanding runs.
            (Column::Dict(..), DType::Utf8) => self.to_utf8(),
            (Column::Rle(_), DType::Utf8) if self.dtype() == DType::Categorical => {
                self.decode().to_utf8()
            }
            _ => {
                let mut b = ColumnBuilder::new(target);
                for i in 0..self.len() {
                    let s = self.get(i);
                    let converted =
                        cast_scalar(&s, target).ok_or_else(|| ColumnarError::ParseError {
                            value: s.to_string(),
                            dtype: target.to_string(),
                            line: None,
                        })?;
                    b.push_scalar(&converted)?;
                }
                Ok(b.finish())
            }
        }
    }

    /// `Some(valid-bits)` when the column has nulls, `None` otherwise —
    /// the shape the scalar builder produces, with float NaN folded in.
    fn normalized_validity(&self) -> Option<Bitmap> {
        if self.count_null() == 0 {
            None
        } else {
            Some(Bitmap::from_iter((0..self.len()).map(|i| !self.is_null_at(i))))
        }
    }

    /// Convert a string column to pandas `category`: distinct values land
    /// in a (small) arena-backed dictionary built by
    /// [`encoding::build_dict`](crate::encoding), rows become `u32` codes.
    /// A transparent `Dict` keeps its payload and only sets the flag.
    pub fn to_categorical(&self) -> Result<Column> {
        match self {
            Column::Utf8(values, validity) => {
                let (codes, dict) = crate::encoding::build_dict(values, validity.as_ref(), None)
                    .expect("an uncapped dictionary build always succeeds");
                Ok(Column::Dict(
                    Categorical {
                        codes,
                        dict: Arc::new(dict),
                        category: true,
                    },
                    validity.clone(),
                ))
            }
            Column::Dict(c, validity) => Ok(Column::Dict(
                Categorical {
                    category: true,
                    ..c.clone()
                },
                validity.clone(),
            )),
            Column::Rle(_) if self.dtype() == DType::Utf8 => self.decoded().to_categorical(),
            _ => Err(ColumnarError::TypeMismatch {
                op: "astype(category)".into(),
                dtype: self.dtype().to_string(),
            }),
        }
    }

    /// Decode a dictionary column (transparent or category) to plain
    /// strings (no-op for Utf8).
    pub fn to_utf8(&self) -> Result<Column> {
        match self {
            Column::Utf8(..) => Ok(self.clone()),
            // One run-collapsing gather off the dictionary.
            Column::Dict(c, validity) => {
                Ok(Column::Utf8(c.dict.gather(&c.codes), validity.clone()))
            }
            Column::Rle(_) if self.dtype() == DType::Utf8 => Ok(self.decode()),
            _ => Err(ColumnarError::TypeMismatch {
                op: "to_utf8".into(),
                dtype: self.dtype().to_string(),
            }),
        }
    }

    /// Datetime field accessor (`.dt.<field>`), producing Int64.
    pub fn dt_field(&self, field: DtField) -> Result<Column> {
        match self {
            Column::Datetime(values, validity) => {
                let out: Vec<i64> = values
                    .iter()
                    .map(|&secs| {
                        let days = secs.div_euclid(86_400);
                        let (y, m, d) = value::civil_from_days(days);
                        match field {
                            DtField::DayOfWeek => value::dayofweek(secs),
                            DtField::Hour => secs.rem_euclid(86_400) / 3600,
                            DtField::Day => d as i64,
                            DtField::Month => m as i64,
                            DtField::Year => y,
                        }
                    })
                    .collect();
                Ok(Column::Int64(out, validity.clone()))
            }
            // Compute the accessor once per run; the output stays RLE.
            Column::Rle(r) => Ok(Column::Rle(RleCol {
                values: Box::new(r.values.dt_field(field)?),
                ends: r.ends.clone(),
            })),
            _ => Err(ColumnarError::TypeMismatch {
                op: format!("dt.{field:?}"),
                dtype: self.dtype().to_string(),
            }),
        }
    }

    /// String accessor (`.str.<op>`).
    pub fn str_op(&self, op: &StrOp) -> Result<Column> {
        // Dictionary fast path (transparent and category alike): evaluate
        // the op once per distinct entry instead of once per row. Case
        // transforms keep the dictionary layout (re-deduplicated, since
        // e.g. "A" and "a" collide after lowering) but are logically
        // `Utf8`, as pandas' `.str` on a category yields `object`;
        // predicates and lengths expand a per-entry table through the
        // codes.
        if let Column::Dict(c, validity) = self {
            return Ok(match op {
                StrOp::Lower | StrOp::Upper => {
                    let transformed: Vec<String> = c
                        .dict
                        .iter()
                        .map(|s| {
                            if matches!(op, StrOp::Lower) {
                                s.to_lowercase()
                            } else {
                                s.to_uppercase()
                            }
                        })
                        .collect();
                    let mut interner = Interner::default();
                    let remap: Vec<u32> = transformed.iter().map(|t| interner.code(t)).collect();
                    Column::Dict(
                        Categorical {
                            codes: c.codes.iter().map(|&code| remap[code as usize]).collect(),
                            dict: interner.finish(),
                            category: false,
                        },
                        validity.clone(),
                    )
                }
                StrOp::Len => {
                    let table: Vec<i64> = (0..c.dict.len())
                        .map(|e| c.dict.get(e).chars().count() as i64)
                        .collect();
                    Column::Int64(
                        c.codes.iter().map(|&code| table[code as usize]).collect(),
                        validity.clone(),
                    )
                }
                StrOp::Contains(pat) => {
                    let table: Vec<bool> = (0..c.dict.len())
                        .map(|e| c.dict.get(e).contains(pat.as_str()))
                        .collect();
                    Column::Bool(
                        Bitmap::from_iter(c.codes.iter().map(|&code| table[code as usize])),
                        validity.clone(),
                    )
                }
                StrOp::StartsWith(pat) => {
                    let table: Vec<bool> = (0..c.dict.len())
                        .map(|e| c.dict.get(e).starts_with(pat.as_str()))
                        .collect();
                    Column::Bool(
                        Bitmap::from_iter(c.codes.iter().map(|&code| table[code as usize])),
                        validity.clone(),
                    )
                }
            });
        }
        let utf8 = match self {
            Column::Utf8(..) => self.to_utf8()?,
            Column::Rle(_) if self.dtype() == DType::Utf8 => self.decoded().to_utf8()?,
            _ => {
                return Err(ColumnarError::TypeMismatch {
                    op: format!("str.{op:?}"),
                    dtype: self.dtype().to_string(),
                })
            }
        };
        let (values, validity) = match utf8 {
            Column::Utf8(v, m) => (v, m),
            _ => unreachable!(),
        };
        Ok(match op {
            StrOp::Lower => {
                let mut out = Utf8Builder::with_capacity(values.len(), values.value_bytes());
                for s in values.iter() {
                    out.push(&s.to_lowercase());
                }
                Column::Utf8(out.finish(), validity)
            }
            StrOp::Upper => {
                let mut out = Utf8Builder::with_capacity(values.len(), values.value_bytes());
                for s in values.iter() {
                    out.push(&s.to_uppercase());
                }
                Column::Utf8(out.finish(), validity)
            }
            StrOp::Len => Column::Int64(
                values.iter().map(|s| s.chars().count() as i64).collect(),
                validity,
            ),
            StrOp::Contains(pat) => Column::Bool(
                Bitmap::from_iter(values.iter().map(|s| s.contains(pat.as_str()))),
                validity,
            ),
            StrOp::StartsWith(pat) => Column::Bool(
                Bitmap::from_iter(values.iter().map(|s| s.starts_with(pat.as_str()))),
                validity,
            ),
        })
    }

    // -- reductions --------------------------------------------------------

    /// Sum of non-null values (int columns sum to int, others to float).
    pub fn sum(&self) -> Scalar {
        match self {
            Column::Int64(v, validity) => {
                let mut acc = 0i64;
                match validity {
                    None => {
                        for val in v {
                            acc = acc.wrapping_add(*val);
                        }
                    }
                    Some(m) => {
                        for (i, val) in v.iter().enumerate() {
                            if m.get(i) {
                                acc = acc.wrapping_add(*val);
                            }
                        }
                    }
                }
                Scalar::Int(acc)
            }
            Column::Float64(v, validity) => {
                let mut acc = 0.0;
                let mut any = false;
                for (i, &x) in v.iter().enumerate() {
                    if !x.is_nan() && validity.as_ref().is_none_or(|m| m.get(i)) {
                        acc += x;
                        any = true;
                    }
                }
                if any {
                    Scalar::Float(acc)
                } else {
                    Scalar::Null
                }
            }
            Column::Datetime(v, validity) => {
                let mut acc = 0.0;
                let mut any = false;
                for (i, &x) in v.iter().enumerate() {
                    if validity.as_ref().is_none_or(|m| m.get(i)) {
                        acc += x as f64;
                        any = true;
                    }
                }
                if any {
                    Scalar::Float(acc)
                } else {
                    Scalar::Null
                }
            }
            Column::Bool(v, validity) => {
                let mut acc = 0.0;
                let mut any = false;
                for i in 0..v.len() {
                    if validity.as_ref().is_none_or(|m| m.get(i)) {
                        acc += if v.get(i) { 1.0 } else { 0.0 };
                        any = true;
                    }
                }
                if any {
                    Scalar::Float(acc)
                } else {
                    Scalar::Null
                }
            }
            // Strings have no numeric view: the old loop skipped every row.
            Column::Utf8(..) | Column::Dict(..) => Scalar::Null,
            // Integer runs sum exactly as value × width (wrapping
            // multiplication ≡ repeated wrapping addition mod 2⁶⁴).
            // Float/bool/datetime sums accumulate in f64, where addition
            // order matters — decode so the result stays bit-identical
            // to plain execution.
            Column::Rle(r) => match &*r.values {
                Column::Int64(vals, _) => {
                    let mut acc = 0i64;
                    for (k, &v) in vals.iter().enumerate() {
                        if !r.values.is_null_at(k) {
                            let (s, e) = r.run_bounds(k);
                            acc = acc.wrapping_add(v.wrapping_mul((e - s) as i64));
                        }
                    }
                    Scalar::Int(acc)
                }
                _ => self.decoded().sum(),
            },
        }
    }

    /// Mean of non-null values.
    pub fn mean(&self) -> Scalar {
        let n = self.count_valid();
        if n == 0 {
            return Scalar::Null;
        }
        match self.sum() {
            Scalar::Int(s) => Scalar::Float(s as f64 / n as f64),
            Scalar::Float(s) => Scalar::Float(s / n as f64),
            _ => Scalar::Null,
        }
    }

    /// Minimum non-null value.
    pub fn min(&self) -> Scalar {
        self.extreme(true)
    }

    /// Maximum non-null value.
    pub fn max(&self) -> Scalar {
        self.extreme(false)
    }

    /// Typed min/max: fold over the raw buffer, skipping nulls.
    fn extreme(&self, want_min: bool) -> Scalar {
        fn fold<T: Copy, S>(
            items: impl Iterator<Item = T>,
            better: impl Fn(T, T) -> bool,
            wrap: impl Fn(T) -> S,
        ) -> Option<S> {
            let mut best: Option<T> = None;
            for v in items {
                best = Some(match best {
                    Some(b) if !better(v, b) => b,
                    _ => v,
                });
            }
            best.map(wrap)
        }
        let valid = |validity: &Option<Bitmap>, i: usize| -> bool {
            validity.as_ref().is_none_or(|m| m.get(i))
        };
        match self {
            Column::Int64(v, m) => fold(
                v.iter()
                    .enumerate()
                    .filter(|(i, _)| valid(m, *i))
                    .map(|(_, &x)| x),
                |a, b| if want_min { a < b } else { a > b },
                Scalar::Int,
            )
            .unwrap_or(Scalar::Null),
            Column::Datetime(v, m) => fold(
                v.iter()
                    .enumerate()
                    .filter(|(i, _)| valid(m, *i))
                    .map(|(_, &x)| x),
                |a, b| if want_min { a < b } else { a > b },
                Scalar::Datetime,
            )
            .unwrap_or(Scalar::Null),
            Column::Float64(v, m) => fold(
                v.iter()
                    .enumerate()
                    .filter(|(i, x)| valid(m, *i) && !x.is_nan())
                    .map(|(_, &x)| x),
                |a, b| if want_min { a < b } else { a > b },
                Scalar::Float,
            )
            .unwrap_or(Scalar::Null),
            Column::Bool(v, m) => fold(
                (0..v.len()).filter(|&i| valid(m, i)).map(|i| v.get(i)),
                |a, b| if want_min { !a & b } else { a & !b },
                Scalar::Bool,
            )
            .unwrap_or(Scalar::Null),
            Column::Utf8(v, m) => {
                let mut best: Option<&str> = None;
                for (i, s) in v.iter().enumerate() {
                    if !valid(m, i) {
                        continue;
                    }
                    let replace = match best {
                        None => true,
                        Some(b) => {
                            if want_min {
                                s < b
                            } else {
                                s > b
                            }
                        }
                    };
                    if replace {
                        best = Some(s);
                    }
                }
                best.map(|s| Scalar::Str(s.to_string())).unwrap_or(Scalar::Null)
            }
            // The extreme over rows is the extreme over *used* dictionary
            // entries: one pass marking used codes, one pass over the
            // (small) dictionary.
            Column::Dict(c, m) => {
                let mut used = vec![false; c.dict.len()];
                match m {
                    None => {
                        for &code in &c.codes {
                            used[code as usize] = true;
                        }
                    }
                    Some(mask) => {
                        for (i, &code) in c.codes.iter().enumerate() {
                            if mask.get(i) {
                                used[code as usize] = true;
                            }
                        }
                    }
                }
                let mut best: Option<&str> = None;
                for (e, &is_used) in used.iter().enumerate() {
                    if !is_used {
                        continue;
                    }
                    let s = c.dict.get(e);
                    let replace = match best {
                        None => true,
                        Some(b) => {
                            if want_min {
                                s < b
                            } else {
                                s > b
                            }
                        }
                    };
                    if replace {
                        best = Some(s);
                    }
                }
                best.map(|s| Scalar::Str(s.to_string())).unwrap_or(Scalar::Null)
            }
            // The extreme over runs equals the extreme over rows.
            Column::Rle(r) => r.values.extreme(want_min),
        }
    }

    /// Count of non-null values.
    pub fn count(&self) -> Scalar {
        Scalar::Int(self.count_valid() as i64)
    }

    /// Number of distinct non-null values.
    pub fn nunique(&self) -> Scalar {
        match self {
            // Distinct rows = distinct *used* codes (filters and slices
            // can leave dictionary entries with no referencing row).
            Column::Dict(c, m) => {
                let mut used = vec![false; c.dict.len()];
                for (i, &code) in c.codes.iter().enumerate() {
                    if m.as_ref().is_none_or(|mask| mask.get(i)) {
                        used[code as usize] = true;
                    }
                }
                Scalar::Int(used.iter().filter(|&&u| u).count() as i64)
            }
            // Distinct run values = distinct row values.
            Column::Rle(r) => r.values.nunique(),
            _ => {
                let mut seen = std::collections::HashSet::new();
                for s in self.iter().filter(|s| !s.is_null()) {
                    seen.insert(s.to_string());
                }
                Scalar::Int(seen.len() as i64)
            }
        }
    }

    /// Sample standard deviation (ddof = 1), pandas default.
    pub fn std(&self) -> Scalar {
        let values: Vec<f64> = (0..self.len())
            .filter(|&i| !self.is_null_at(i))
            .filter_map(|i| self.get(i).as_f64())
            .collect();
        if values.len() < 2 {
            return Scalar::Null;
        }
        let mean = values.iter().sum::<f64>() / values.len() as f64;
        let var = values.iter().map(|v| (v - mean).powi(2)).sum::<f64>()
            / (values.len() - 1) as f64;
        Scalar::Float(var.sqrt())
    }

    // -- hashing (group-by / join / dedup) --------------------------------

    /// Mix each row's value into the provided per-row hash accumulators
    /// (FNV-1a style). `hashes.len()` must equal `self.len()`.
    pub fn hash_into(&self, hashes: &mut [u64]) {
        debug_assert_eq!(hashes.len(), self.len());
        self.hash_range_into(0, hashes);
    }

    /// Mix rows `offset .. offset + hashes.len()` into `hashes` (slot `j`
    /// accumulates row `offset + j`). The range form lets parallel
    /// kernels hash disjoint morsels into disjoint sub-slices of one
    /// hash array.
    pub fn hash_range_into(&self, offset: usize, hashes: &mut [u64]) {
        let len = hashes.len();
        debug_assert!(offset + len <= self.len());
        let valid = |validity: &Option<Bitmap>, i: usize| -> bool {
            validity.as_ref().is_none_or(|m| m.get(i))
        };
        // Dispatch on the buffer once; every arm is a tight loop.
        let mut mix = |j: usize, v: u64| {
            let h = &mut hashes[j];
            *h = (*h ^ v).wrapping_mul(HASH_PRIME);
        };
        match self {
            Column::Int64(v, m) | Column::Datetime(v, m) => {
                for (j, &x) in v[offset..offset + len].iter().enumerate() {
                    mix(j, if valid(m, offset + j) { x as u64 } else { u64::MAX });
                }
            }
            Column::Float64(v, m) => {
                for (j, &x) in v[offset..offset + len].iter().enumerate() {
                    let null = x.is_nan() || !valid(m, offset + j);
                    mix(j, if null { u64::MAX } else { x.to_bits() });
                }
            }
            Column::Bool(v, m) => {
                for j in 0..len {
                    let i = offset + j;
                    mix(j, if valid(m, i) { v.get(i) as u64 } else { u64::MAX });
                }
            }
            Column::Utf8(v, m) => {
                // Hash straight off the arena bytes — no str conversion.
                for j in 0..len {
                    let i = offset + j;
                    mix(j, if valid(m, i) { fnv1a(v.bytes_at(i)) } else { u64::MAX });
                }
            }
            Column::Dict(c, m) => {
                // Hash each dictionary entry once, then look codes up.
                let dict_hashes: Vec<u64> =
                    (0..c.dict.len()).map(|d| fnv1a(c.dict.bytes_at(d))).collect();
                for (j, &code) in c.codes[offset..offset + len].iter().enumerate() {
                    let i = offset + j;
                    mix(
                        j,
                        if valid(m, i) {
                            dict_hashes[code as usize]
                        } else {
                            u64::MAX
                        },
                    );
                }
            }
            Column::Rle(r) => {
                // Hash each run value once, then spread it over the run's
                // rows intersecting the requested range.
                let lo = r.run_of(offset);
                let hi = r.run_of(offset + len - 1);
                for k in lo..=hi {
                    let v = r.values.hash_lane_at(k);
                    let (s, e) = r.run_bounds(k);
                    let s = s.max(offset);
                    let e = e.min(offset + len);
                    for i in s..e {
                        mix(i - offset, v);
                    }
                }
            }
        }
    }

    /// The per-row hash lane `hash_range_into` would mix for row `i` —
    /// one value, no accumulator. Used by the RLE arm to hash each run
    /// value once.
    fn hash_lane_at(&self, i: usize) -> u64 {
        if self.is_null_at(i) {
            return u64::MAX;
        }
        match self {
            Column::Int64(v, _) | Column::Datetime(v, _) => v[i] as u64,
            Column::Float64(v, _) => v[i].to_bits(),
            Column::Bool(v, _) => v.get(i) as u64,
            Column::Utf8(v, _) => fnv1a(v.bytes_at(i)),
            Column::Dict(c, _) => fnv1a(c.dict.bytes_at(c.codes[i] as usize)),
            Column::Rle(r) => r.values.hash_lane_at(r.run_of(i)),
        }
    }
}

/// The FNV-1a prime — the one mixing constant every row-hash consumer
/// (`hash_into`, group-by keying, join keying) must agree on.
pub(crate) const HASH_PRIME: u64 = 0x100000001b3;

/// FNV-1a over a byte slice.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for &b in bytes {
        h = (h ^ b as u64).wrapping_mul(HASH_PRIME);
    }
    h
}

/// Identity hasher for tables keyed by already-FNV-mixed `u64` row
/// hashes; feeding them through SipHash again would waste most of each
/// probe.
#[derive(Default)]
pub(crate) struct PreHashed(u64);

impl std::hash::Hasher for PreHashed {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, _: &[u8]) {
        unreachable!("PreHashed only hashes u64 keys");
    }
    fn write_u64(&mut self, v: u64) {
        self.0 = v;
    }
}

/// Hash table from a mixed row hash to the group ids sharing it, used by
/// both the group-by accumulator and the join build side.
pub(crate) type HashTable =
    std::collections::HashMap<u64, Vec<u32>, std::hash::BuildHasherDefault<PreHashed>>;

/// Comparison loop over a typed accessor for dtypes whose null state lives
/// entirely in the validity mask (ints, strings, bools, datetimes).
fn cmp_loop(
    op: CmpOp,
    len: usize,
    va: &Option<Bitmap>,
    vb: &Option<Bitmap>,
    ord: impl Fn(usize) -> std::cmp::Ordering,
) -> Bitmap {
    Bitmap::from_iter((0..len).map(|i| {
        if va.as_ref().is_some_and(|m| !m.get(i)) || vb.as_ref().is_some_and(|m| !m.get(i)) {
            op == CmpOp::Ne
        } else {
            op.eval(ord(i))
        }
    }))
}

/// Int64 ⊙ Int64 arithmetic (`Div` excluded — that promotes to float).
/// One tight loop over the raw `i64` buffers; nulls (and mod-by-zero rows)
/// produce null output slots holding 0, exactly like the old scalar loop.
fn int_arith(
    op: ArithOp,
    a: &[i64],
    va: Option<&Bitmap>,
    b: &[i64],
    vb: Option<&Bitmap>,
) -> Column {
    let len = a.len();
    let mut out = Vec::with_capacity(len);
    let mut validity = Bitmap::new(len, true);
    let mut has_null = false;
    for i in 0..len {
        let ok = va.is_none_or(|m| m.get(i))
            && vb.is_none_or(|m| m.get(i))
            && !(op == ArithOp::Mod && b[i] == 0);
        if ok {
            out.push(match op {
                ArithOp::Add => a[i].wrapping_add(b[i]),
                ArithOp::Sub => a[i].wrapping_sub(b[i]),
                ArithOp::Mul => a[i].wrapping_mul(b[i]),
                ArithOp::Mod => a[i].rem_euclid(b[i]),
                ArithOp::Div => unreachable!("Div promotes to float"),
            });
        } else {
            out.push(0);
            validity.set(i, false);
            has_null = true;
        }
    }
    Column::Int64(out, has_null.then_some(validity))
}

fn cast_scalar(s: &Scalar, target: DType) -> Option<Scalar> {
    if s.is_null() {
        return Some(Scalar::Null);
    }
    Some(match target {
        DType::Int64 => match s {
            Scalar::Int(v) => Scalar::Int(*v),
            Scalar::Float(v) => Scalar::Int(*v as i64),
            Scalar::Bool(b) => Scalar::Int(i64::from(*b)),
            Scalar::Str(t) => Scalar::Int(t.trim().parse().ok()?),
            Scalar::Datetime(v) => Scalar::Int(*v),
            Scalar::Null => unreachable!(),
        },
        DType::Float64 => Scalar::Float(match s {
            Scalar::Str(t) => t.trim().parse().ok()?,
            other => other.as_f64()?,
        }),
        DType::Bool => match s {
            Scalar::Bool(b) => Scalar::Bool(*b),
            Scalar::Int(v) => Scalar::Bool(*v != 0),
            Scalar::Float(v) => Scalar::Bool(*v != 0.0),
            Scalar::Str(t) => match t.trim() {
                "True" | "true" | "1" => Scalar::Bool(true),
                "False" | "false" | "0" => Scalar::Bool(false),
                _ => return None,
            },
            _ => return None,
        },
        DType::Utf8 | DType::Categorical => Scalar::Str(s.to_string()),
        DType::Datetime => match s {
            Scalar::Datetime(v) => Scalar::Datetime(*v),
            Scalar::Int(v) => Scalar::Datetime(*v),
            Scalar::Str(t) => Scalar::Datetime(value::parse_datetime(t)?),
            _ => return None,
        },
    })
}

fn some_if_has_nulls(validity: Bitmap) -> Option<Bitmap> {
    if validity.all_set() {
        None
    } else {
        Some(validity)
    }
}

// -- n-way concat helpers (see `Column::concat_many`) ---------------------

/// Output dictionary under construction: distinct strings in the order
/// they were first interned, borrowed from the input dictionaries (or a
/// `.str` transform's per-entry outputs) until
/// [`finish`](Interner::finish) copies them into one exactly-sized arena.
/// The one dictionaries → union routine; rows → dictionary is
/// `encoding::build_dict`.
#[derive(Default)]
struct Interner<'a> {
    index: std::collections::HashMap<&'a str, u32>,
    entries: Vec<&'a str>,
}

impl<'a> Interner<'a> {
    /// `v`'s output code, appending it as a new entry on first sight.
    fn code(&mut self, v: &'a str) -> u32 {
        let next = self.entries.len() as u32;
        *self.index.entry(v).or_insert_with(|| {
            self.entries.push(v);
            next
        })
    }

    fn finish(self) -> Arc<Utf8Col> {
        let bytes = self.entries.iter().map(|e| e.len()).sum();
        let mut dict = Utf8Builder::with_capacity(self.entries.len(), bytes);
        for e in self.entries {
            dict.push(e);
        }
        Arc::new(dict.finish())
    }
}

/// Validity of the stacked parts in the builder's shape: `None` unless
/// some part has a null row, else assembled a word at a time — null-free
/// parts append an all-valid run, masked parts their mask words, and
/// float parts fold NaN cells into the mask 64 rows per word.
fn concat_validity(parts: &[&Column], nulls: &[usize]) -> Option<Bitmap> {
    if nulls.iter().all(|&n| n == 0) {
        return None;
    }
    let mut bits = BitWriter::with_capacity(parts.iter().map(|p| p.len()).sum());
    for (p, &n) in parts.iter().zip(nulls) {
        match (n, p) {
            (0, _) => bits.append_run(true, p.len()),
            (_, Column::Float64(data, mask)) => {
                for (k, chunk) in data.chunks(64).enumerate() {
                    let mut word = chunk
                        .iter()
                        .enumerate()
                        .fold(0u64, |w, (j, x)| w | (u64::from(!x.is_nan()) << j));
                    if let Some(m) = mask {
                        word &= m.as_words()[k];
                    }
                    bits.append_word(word, chunk.len());
                }
            }
            _ => match p.validity() {
                Some(m) => bits.append_bitmap(m),
                None => bits.append_run(true, p.len()),
            },
        }
    }
    Some(bits.finish())
}

fn i64_lane(c: &Column) -> &[i64] {
    match c {
        Column::Int64(v, _) | Column::Datetime(v, _) => v,
        _ => unreachable!("concat parts share one plain variant"),
    }
}

fn f64_lane(c: &Column) -> &[f64] {
    match c {
        Column::Float64(v, _) => v,
        _ => unreachable!("concat parts share one plain variant"),
    }
}

fn utf8_lane(c: &Column) -> &Utf8Col {
    match c {
        Column::Utf8(v, _) => v,
        _ => unreachable!("concat parts share one plain variant"),
    }
}

fn dict_payload(c: &Column) -> &Categorical {
    match c {
        Column::Dict(c, _) => c,
        _ => unreachable!("all parts are Dict"),
    }
}

/// Stack fixed-width lanes: null-free parts are one `extend_from_slice`;
/// only parts with nulls pass each slot through `fix(value, valid)`.
fn concat_lanes<T: Copy>(
    parts: &[&Column],
    nulls: &[usize],
    lane: fn(&Column) -> &[T],
    fix: impl Fn(T, bool) -> T,
) -> Vec<T> {
    let mut out = Vec::with_capacity(parts.iter().map(|p| p.len()).sum());
    for (p, &n) in parts.iter().zip(nulls) {
        let data = lane(p);
        if n == 0 {
            out.extend_from_slice(data);
        } else {
            let mask = p.validity();
            out.extend(
                data.iter()
                    .enumerate()
                    .map(|(i, &x)| fix(x, mask.is_none_or(|m| m.get(i)))),
            );
        }
    }
    out
}

/// n-way concat of plain parts that all share one variant.
fn concat_plain(parts: &[&Column]) -> Column {
    let nulls: Vec<usize> = parts.iter().map(|p| p.count_null()).collect();
    let validity = concat_validity(parts, &nulls);
    let int_fix = |x: i64, ok: bool| if ok { x } else { 0 };
    match parts[0] {
        Column::Int64(..) => {
            Column::Int64(concat_lanes(parts, &nulls, i64_lane, int_fix), validity)
        }
        Column::Datetime(..) => {
            Column::Datetime(concat_lanes(parts, &nulls, i64_lane, int_fix), validity)
        }
        Column::Float64(..) => {
            let fix = |x: f64, ok: bool| if ok && !x.is_nan() { x } else { f64::NAN };
            Column::Float64(concat_lanes(parts, &nulls, f64_lane, fix), validity)
        }
        Column::Bool(..) => {
            let mut bits = BitWriter::with_capacity(parts.iter().map(|p| p.len()).sum());
            for (p, &n) in parts.iter().zip(&nulls) {
                match p {
                    Column::Bool(data, Some(m)) if n > 0 => bits.append_bitmap(&data.and(m)),
                    Column::Bool(data, _) => bits.append_bitmap(data),
                    _ => unreachable!("concat parts share one plain variant"),
                }
            }
            Column::Bool(bits.finish(), validity)
        }
        Column::Utf8(..) => {
            let rows = parts.iter().map(|p| p.len()).sum();
            let bytes = parts.iter().map(|p| utf8_lane(p).value_bytes()).sum();
            let mut out = Utf8Builder::with_capacity(rows, bytes);
            for (p, &n) in parts.iter().zip(&nulls) {
                let s = utf8_lane(p);
                if n == 0 {
                    // Dense part: one bulk copy of its used byte range.
                    out.append_col(s);
                } else {
                    for (i, v) in s.iter().enumerate() {
                        out.push(if p.is_null_at(i) { "" } else { v });
                    }
                }
            }
            Column::Utf8(out.finish(), validity)
        }
        Column::Dict(..) | Column::Rle(_) => {
            unreachable!("dictionary parts take concat_dicts, run parts are decoded first")
        }
    }
}

/// Dict parts (one dtype, so one `category` flag): unify the
/// dictionaries once in part order and remap each part's codes (a part
/// whose remap is the identity copies its codes). Parts that all share
/// one `Arc` dictionary keep it and append codes.
fn concat_dicts(parts: &[&Column]) -> Column {
    let nulls: Vec<usize> = parts.iter().map(|p| p.count_null()).collect();
    let validity = concat_validity(parts, &nulls);
    let first = dict_payload(parts[0]);
    let mut codes = Vec::with_capacity(parts.iter().map(|p| p.len()).sum());
    if parts
        .iter()
        .all(|p| Arc::ptr_eq(&dict_payload(p).dict, &first.dict))
    {
        for p in parts {
            codes.extend_from_slice(&dict_payload(p).codes);
        }
        return Column::Dict(first.with_codes(codes), validity);
    }
    let mut interner = Interner::default();
    let mut remap: Vec<u32> = Vec::new();
    let mut identity = false;
    let mut remap_dict: Option<&Arc<Utf8Col>> = None;
    for p in parts {
        let c = dict_payload(p);
        if !remap_dict.is_some_and(|d| Arc::ptr_eq(d, &c.dict)) {
            remap = (0..c.dict.len())
                .map(|e| interner.code(c.dict.get(e)))
                .collect();
            identity = remap.iter().enumerate().all(|(e, &r)| r as usize == e);
            remap_dict = Some(&c.dict);
        }
        if identity {
            codes.extend_from_slice(&c.codes);
        } else {
            codes.extend(c.codes.iter().map(|&k| remap[k as usize]));
        }
    }
    Column::Dict(
        Categorical {
            codes,
            dict: interner.finish(),
            category: first.category,
        },
        validity,
    )
}

/// Rle parts: concatenate the run values, rebase each part's run ends.
fn concat_rles(parts: &[&Column]) -> Result<Column> {
    let runs: Vec<&RleCol> = parts
        .iter()
        .map(|p| match p {
            Column::Rle(r) => r,
            _ => unreachable!("all parts are Rle"),
        })
        .collect();
    let values: Vec<&Column> = runs.iter().map(|r| r.values.as_ref()).collect();
    let values = Column::concat_many(&values)?;
    let mut ends = Vec::with_capacity(runs.iter().map(|r| r.num_runs()).sum());
    let mut base = 0u32;
    for r in &runs {
        ends.extend(r.ends.iter().map(|&e| base + e));
        base += r.len() as u32;
    }
    Ok(Column::Rle(RleCol {
        values: Box::new(values),
        ends,
    }))
}

/// Incremental column builder used by casts, CSV parsing and row gathers.
///
/// String pushes append bytes to a private [`Utf8Builder`] arena — no
/// per-value allocation — and [`append`](ColumnBuilder::append)
/// concatenates builders wholesale, which is how the parallel CSV
/// reader stitches per-chunk builders back together in file order.
///
/// ```
/// use lafp_columnar::column::ColumnBuilder;
/// use lafp_columnar::{DType, Scalar};
/// let mut b = ColumnBuilder::new(DType::Utf8);
/// b.push_str("hot");
/// b.push_null();
/// let col = b.finish();
/// assert_eq!(col.get(0), Scalar::Str("hot".into()));
/// assert!(col.is_null_at(1));
/// ```
#[derive(Debug)]
pub struct ColumnBuilder {
    dtype: DType,
    ints: Vec<i64>,
    floats: Vec<f64>,
    bools: Bitmap,
    strings: Utf8Builder,
    validity: Bitmap,
    has_null: bool,
}

impl ColumnBuilder {
    /// New builder producing a column of `dtype`.
    pub fn new(dtype: DType) -> Self {
        ColumnBuilder {
            dtype,
            ints: Vec::new(),
            floats: Vec::new(),
            bools: Bitmap::empty(),
            strings: Utf8Builder::new(),
            validity: Bitmap::empty(),
            has_null: false,
        }
    }

    /// Rows pushed so far.
    pub fn len(&self) -> usize {
        self.validity.len()
    }

    /// True if no rows were pushed.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Reserve room for `additional` more rows (data and validity).
    pub fn reserve(&mut self, additional: usize) {
        self.validity.reserve(additional);
        match self.dtype {
            DType::Int64 | DType::Datetime => self.ints.reserve(additional),
            DType::Float64 => self.floats.reserve(additional),
            DType::Bool => self.bools.reserve(additional),
            DType::Utf8 | DType::Categorical => self.strings.reserve(additional),
        }
    }

    /// Push a null row.
    pub fn push_null(&mut self) {
        self.has_null = true;
        self.validity.push(false);
        match self.dtype {
            DType::Int64 | DType::Datetime => self.ints.push(0),
            DType::Float64 => self.floats.push(f64::NAN),
            DType::Bool => self.bools.push(false),
            DType::Utf8 | DType::Categorical => self.strings.push(""),
        }
    }

    // -- typed pushes ---------------------------------------------------
    //
    // The zero-alloc ingestion paths (CSV parsing, typed gathers) push
    // already-parsed values straight into the typed buffers; no `Scalar`
    // is boxed and no coercion runs. Each method debug-asserts the
    // builder's dtype — callers dispatch on dtype once per column, not
    // once per cell.

    /// Push an `i64` into an Int64 builder.
    #[inline]
    pub fn push_i64(&mut self, v: i64) {
        debug_assert_eq!(self.dtype, DType::Int64);
        self.validity.push(true);
        self.ints.push(v);
    }

    /// Push an epoch-second timestamp into a Datetime builder.
    #[inline]
    pub fn push_datetime(&mut self, v: i64) {
        debug_assert_eq!(self.dtype, DType::Datetime);
        self.validity.push(true);
        self.ints.push(v);
    }

    /// Push an `f64` into a Float64 builder (NaN still reads as null).
    #[inline]
    pub fn push_f64(&mut self, v: f64) {
        debug_assert_eq!(self.dtype, DType::Float64);
        self.validity.push(true);
        self.floats.push(v);
    }

    /// Push a `bool` into a Bool builder.
    #[inline]
    pub fn push_bool(&mut self, v: bool) {
        debug_assert_eq!(self.dtype, DType::Bool);
        self.validity.push(true);
        self.bools.push(v);
    }

    /// Push a string slice into a Utf8/Categorical builder: one byte
    /// append into the arena, no per-value allocation at all (the
    /// `Arc<str>` representation allocated a refcounted string here; the
    /// seed path built an intermediate `String` on top of that).
    #[inline]
    pub fn push_str(&mut self, v: &str) {
        debug_assert!(matches!(self.dtype, DType::Utf8 | DType::Categorical));
        self.validity.push(true);
        self.strings.push(v);
    }

    /// Push a scalar, coercing where safe; errors on incompatible values.
    pub fn push_scalar(&mut self, s: &Scalar) -> Result<()> {
        if s.is_null() {
            self.push_null();
            return Ok(());
        }
        let coerced = cast_scalar(s, self.dtype).ok_or_else(|| ColumnarError::ParseError {
            value: s.to_string(),
            dtype: self.dtype.to_string(),
            line: None,
        })?;
        self.validity.push(true);
        match (self.dtype, coerced) {
            (DType::Int64, Scalar::Int(v)) | (DType::Datetime, Scalar::Datetime(v)) => {
                self.ints.push(v)
            }
            (DType::Float64, Scalar::Float(v)) => self.floats.push(v),
            (DType::Bool, Scalar::Bool(v)) => self.bools.push(v),
            (DType::Utf8, Scalar::Str(v)) | (DType::Categorical, Scalar::Str(v)) => {
                self.strings.push(&v)
            }
            (dt, other) => {
                return Err(ColumnarError::ParseError {
                    value: other.to_string(),
                    dtype: dt.to_string(),
                    line: None,
                })
            }
        }
        Ok(())
    }

    /// Append every row of `other` (same dtype) after this builder's
    /// rows. Typed buffers are moved/extended wholesale — string arenas
    /// concatenate in one byte copy — which is how the parallel CSV
    /// reader concatenates per-chunk builders in file order without a
    /// per-row pass.
    pub fn append(&mut self, mut other: ColumnBuilder) {
        debug_assert_eq!(self.dtype, other.dtype, "append requires one dtype");
        self.ints.append(&mut other.ints);
        self.floats.append(&mut other.floats);
        self.bools.extend_from(&other.bools);
        self.strings.append(other.strings);
        self.validity.extend_from(&other.validity);
        self.has_null |= other.has_null;
    }

    /// Finish into a column.
    pub fn finish(self) -> Column {
        let validity = if self.has_null {
            Some(self.validity)
        } else {
            None
        };
        match self.dtype {
            DType::Int64 => Column::Int64(self.ints, validity),
            DType::Datetime => Column::Datetime(self.ints, validity),
            DType::Float64 => Column::Float64(self.floats, validity),
            DType::Bool => Column::Bool(self.bools, validity),
            DType::Utf8 => Column::Utf8(self.strings.finish(), validity),
            DType::Categorical => {
                let utf8 = Column::Utf8(self.strings.finish(), validity);
                utf8.to_categorical().expect("utf8 to categorical")
            }
        }
    }
}

impl HeapSize for Column {
    fn heap_size(&self) -> usize {
        let validity_size = self.validity().map_or(0, HeapSize::heap_size);
        validity_size
            + match self {
                Column::Int64(v, _) | Column::Datetime(v, _) => v.capacity() * 8,
                Column::Float64(v, _) => v.capacity() * 8,
                Column::Bool(v, _) => v.heap_size(),
                Column::Utf8(v, _) => v.heap_size(),
                // The dictionary is shared: slices / partitions holding
                // the same `Arc` must not each charge its full bytes
                // against a memory budget, so split it across holders.
                Column::Dict(c, _) => {
                    let holders = std::sync::Arc::strong_count(&c.dict).max(1);
                    c.codes.capacity() * 4 + c.dict.heap_size() / holders
                }
                Column::Rle(r) => r.values.heap_size() + r.ends.capacity() * 4,
            }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn int_col() -> Column {
        Column::from_i64(vec![3, 1, 4, 1, 5])
    }

    #[test]
    fn basic_accessors() {
        let c = int_col();
        assert_eq!(c.len(), 5);
        assert_eq!(c.dtype(), DType::Int64);
        assert_eq!(c.get(2), Scalar::Int(4));
        assert_eq!(c.count_valid(), 5);
    }

    #[test]
    fn nulls_in_opt_constructors() {
        let c = Column::from_opt_i64(vec![Some(1), None, Some(3)]);
        assert!(c.is_null_at(1));
        assert!(!c.is_null_at(0));
        assert_eq!(c.get(1), Scalar::Null);
        assert_eq!(c.count_null(), 1);
        // NaN counts as null for floats even without a mask.
        let f = Column::from_f64(vec![1.0, f64::NAN]);
        assert!(f.is_null_at(1));
        assert_eq!(f.count_valid(), 1);
    }

    #[test]
    fn filter_take_slice() {
        let c = int_col();
        let mask = Bitmap::from_bools(&[true, false, true, false, true]);
        let filtered = c.filter(&mask).unwrap();
        assert_eq!(filtered, Column::from_i64(vec![3, 4, 5]));
        let taken = c.take(&[4, 0]).unwrap();
        assert_eq!(taken, Column::from_i64(vec![5, 3]));
        assert!(c.take(&[9]).is_err());
        assert_eq!(c.slice(1, 2), Column::from_i64(vec![1, 4]));
        assert_eq!(c.slice(4, 10).len(), 1);
    }

    #[test]
    fn compare_scalar_numeric() {
        let c = int_col();
        let mask = c.compare_scalar(CmpOp::Gt, &Scalar::Int(2)).unwrap();
        assert_eq!(mask, Bitmap::from_bools(&[true, false, true, false, true]));
        let mask = c.compare_scalar(CmpOp::Eq, &Scalar::Float(1.0)).unwrap();
        assert_eq!(
            mask,
            Bitmap::from_bools(&[false, true, false, true, false])
        );
    }

    #[test]
    fn compare_nulls_are_false() {
        let c = Column::from_opt_i64(vec![Some(1), None]);
        let m = c.compare_scalar(CmpOp::Gt, &Scalar::Int(0)).unwrap();
        assert_eq!(m, Bitmap::from_bools(&[true, false]));
        // != with null is true (pandas semantics)
        let m = c.compare_scalar(CmpOp::Ne, &Scalar::Int(0)).unwrap();
        assert_eq!(m, Bitmap::from_bools(&[true, true]));
    }

    #[test]
    fn arith_int_and_float() {
        let c = int_col();
        let sum = c.arith_scalar(ArithOp::Add, &Scalar::Int(10)).unwrap();
        assert_eq!(sum, Column::from_i64(vec![13, 11, 14, 11, 15]));
        let div = c.arith_scalar(ArithOp::Div, &Scalar::Int(2)).unwrap();
        assert_eq!(div.dtype(), DType::Float64);
        assert_eq!(div.get(0), Scalar::Float(1.5));
        let prod = c.arith(ArithOp::Mul, &int_col()).unwrap();
        assert_eq!(prod, Column::from_i64(vec![9, 1, 16, 1, 25]));
    }

    #[test]
    fn arith_null_propagates() {
        let a = Column::from_opt_i64(vec![Some(1), None]);
        let b = Column::from_i64(vec![10, 10]);
        let out = a.arith(ArithOp::Add, &b).unwrap();
        assert_eq!(out.get(0), Scalar::Int(11));
        assert!(out.is_null_at(1));
    }

    #[test]
    fn logical_ops() {
        let a = Column::from_bool(vec![true, true, false]);
        let b = Column::from_bool(vec![true, false, false]);
        assert_eq!(a.and(&b).unwrap(), Bitmap::from_bools(&[true, false, false]));
        assert_eq!(a.or(&b).unwrap(), Bitmap::from_bools(&[true, true, false]));
        assert_eq!(a.invert().unwrap(), Bitmap::from_bools(&[false, false, true]));
        assert!(int_col().as_mask().is_err());
    }

    #[test]
    fn fillna_and_round_abs() {
        let c = Column::from_opt_f64(vec![Some(1.26), None, Some(-2.74)]);
        let filled = c.fillna(&Scalar::Float(0.0)).unwrap();
        assert_eq!(filled.count_null(), 0);
        assert_eq!(filled.get(1), Scalar::Float(0.0));
        let rounded = filled.round(1).unwrap();
        assert_eq!(rounded.get(0), Scalar::Float(1.3));
        let absd = rounded.abs().unwrap();
        assert_eq!(absd.get(2), Scalar::Float(2.7));
    }

    #[test]
    fn cast_between_types() {
        let ints = int_col();
        let floats = ints.cast(DType::Float64).unwrap();
        assert_eq!(floats.get(0), Scalar::Float(3.0));
        let strs = ints.cast(DType::Utf8).unwrap();
        assert_eq!(strs.get(0), Scalar::Str("3".into()));
        let back = strs.cast(DType::Int64).unwrap();
        assert_eq!(back, ints);
        let bad = Column::from_strings(vec!["xyz"]).cast(DType::Int64);
        assert!(bad.is_err());
    }

    #[test]
    fn categorical_roundtrip_and_size() {
        let c = Column::from_strings(vec!["NY", "SF", "NY", "NY", "LA"]);
        let cat = c.to_categorical().unwrap();
        assert_eq!(cat.dtype(), DType::Categorical);
        assert_eq!(cat.get(0), Scalar::Str("NY".into()));
        assert_eq!(cat.get(4), Scalar::Str("LA".into()));
        let back = cat.to_utf8().unwrap();
        assert_eq!(back, c);
        // dictionary encoding of a repetitive column is smaller
        let many: Vec<&str> = std::iter::repeat_n("category-value", 1000).collect();
        let plain = Column::from_strings(many.clone());
        let encoded = plain.to_categorical().unwrap();
        assert!(encoded.heap_size() < plain.heap_size());
    }

    #[test]
    fn dt_accessors() {
        let ts = value::parse_datetime("2024-05-17 13:45:09").unwrap();
        let c = Column::from_datetimes(vec![ts]);
        assert_eq!(c.dt_field(DtField::Year).unwrap().get(0), Scalar::Int(2024));
        assert_eq!(c.dt_field(DtField::Month).unwrap().get(0), Scalar::Int(5));
        assert_eq!(c.dt_field(DtField::Day).unwrap().get(0), Scalar::Int(17));
        assert_eq!(c.dt_field(DtField::Hour).unwrap().get(0), Scalar::Int(13));
        // 2024-05-17 was a Friday => 4
        assert_eq!(
            c.dt_field(DtField::DayOfWeek).unwrap().get(0),
            Scalar::Int(4)
        );
        assert!(int_col().dt_field(DtField::Year).is_err());
    }

    #[test]
    fn str_accessors() {
        let c = Column::from_strings(vec!["Hello", "world"]);
        assert_eq!(
            c.str_op(&StrOp::Lower).unwrap().get(0),
            Scalar::Str("hello".into())
        );
        assert_eq!(
            c.str_op(&StrOp::Upper).unwrap().get(1),
            Scalar::Str("WORLD".into())
        );
        assert_eq!(c.str_op(&StrOp::Len).unwrap().get(0), Scalar::Int(5));
        let m = c.str_op(&StrOp::Contains("orl".into())).unwrap();
        assert_eq!(m.get(0), Scalar::Bool(false));
        assert_eq!(m.get(1), Scalar::Bool(true));
        let m = c.str_op(&StrOp::StartsWith("He".into())).unwrap();
        assert_eq!(m.get(0), Scalar::Bool(true));
    }

    #[test]
    fn reductions() {
        let c = int_col();
        assert_eq!(c.sum(), Scalar::Int(14));
        assert_eq!(c.mean(), Scalar::Float(2.8));
        assert_eq!(c.min(), Scalar::Int(1));
        assert_eq!(c.max(), Scalar::Int(5));
        assert_eq!(c.count(), Scalar::Int(5));
        assert_eq!(c.nunique(), Scalar::Int(4));
        let with_null = Column::from_opt_f64(vec![Some(2.0), None, Some(4.0)]);
        assert_eq!(with_null.sum(), Scalar::Float(6.0));
        assert_eq!(with_null.mean(), Scalar::Float(3.0));
        assert_eq!(with_null.count(), Scalar::Int(2));
        let empty = Column::from_f64(vec![]);
        assert_eq!(empty.sum(), Scalar::Null);
        assert_eq!(empty.mean(), Scalar::Null);
    }

    #[test]
    fn std_matches_sample_formula() {
        let c = Column::from_f64(vec![2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        if let Scalar::Float(s) = c.std() {
            assert!((s - 2.138089935299395).abs() < 1e-12);
        } else {
            panic!("std should be float");
        }
        assert_eq!(Column::from_f64(vec![1.0]).std(), Scalar::Null);
    }

    #[test]
    fn concat_same_and_mismatched() {
        let a = Column::from_i64(vec![1, 2]);
        let b = Column::from_i64(vec![3]);
        assert_eq!(a.concat(&b).unwrap(), Column::from_i64(vec![1, 2, 3]));
        assert!(a.concat(&Column::from_strings(vec!["x"])).is_err());
    }

    #[test]
    fn hashing_distinguishes_rows() {
        let c = Column::from_strings(vec!["a", "b", "a"]);
        let mut h = vec![0u64; 3];
        c.hash_into(&mut h);
        assert_eq!(h[0], h[2]);
        assert_ne!(h[0], h[1]);
        // combined with a second column the tuples (a,1) (b,1) (a,2) differ
        let c2 = Column::from_i64(vec![1, 1, 2]);
        c2.hash_into(&mut h);
        assert_ne!(h[0], h[2]);
    }

    #[test]
    fn builder_coerces_and_rejects() {
        let mut b = ColumnBuilder::new(DType::Float64);
        b.push_scalar(&Scalar::Int(1)).unwrap();
        b.push_scalar(&Scalar::Float(2.5)).unwrap();
        b.push_null();
        let col = b.finish();
        assert_eq!(col.dtype(), DType::Float64);
        assert_eq!(col.get(0), Scalar::Float(1.0));
        assert!(col.is_null_at(2));

        let mut b = ColumnBuilder::new(DType::Int64);
        assert!(b.push_scalar(&Scalar::Str("abc".into())).is_err());
    }

    #[test]
    fn full_column_from_scalar() {
        let c = Column::full(3, &Scalar::Str("x".into()));
        assert_eq!(c.len(), 3);
        assert_eq!(c.get(2), Scalar::Str("x".into()));
        let n = Column::full(2, &Scalar::Null);
        assert_eq!(n.count_null(), 2);
    }

    #[test]
    fn arith_propagates_nulls_int() {
        let a = Column::from_opt_i64(vec![Some(10), None, Some(30)]);
        let b = Column::from_opt_i64(vec![Some(1), Some(2), None]);
        for op in [ArithOp::Add, ArithOp::Sub, ArithOp::Mul, ArithOp::Mod] {
            let out = a.arith(op, &b).unwrap();
            assert_eq!(out.dtype(), DType::Int64, "{op:?} keeps int dtype");
            assert!(!out.is_null_at(0), "{op:?} valid op valid");
            assert!(out.is_null_at(1), "{op:?} null lhs propagates");
            assert!(out.is_null_at(2), "{op:?} null rhs propagates");
        }
        // Scalar variants propagate the same way.
        let out = a.arith_scalar(ArithOp::Add, &Scalar::Int(5)).unwrap();
        assert_eq!(out.get(0), Scalar::Int(15));
        assert!(out.is_null_at(1));
    }

    #[test]
    fn arith_propagates_nulls_float() {
        // Division always produces float; nulls become NaN (= null).
        let a = Column::from_opt_i64(vec![Some(10), None]);
        let out = a.arith_scalar(ArithOp::Div, &Scalar::Int(4)).unwrap();
        assert_eq!(out.dtype(), DType::Float64);
        assert_eq!(out.get(0), Scalar::Float(2.5));
        assert!(out.is_null_at(1));
        // NaN inputs count as null and stay null through arithmetic.
        let f = Column::from_f64(vec![1.5, f64::NAN]);
        let out = f.arith_scalar(ArithOp::Mul, &Scalar::Float(2.0)).unwrap();
        assert_eq!(out.get(0), Scalar::Float(3.0));
        assert!(out.is_null_at(1));
    }

    #[test]
    fn mod_by_zero_is_null() {
        let a = Column::from_i64(vec![7, 9]);
        let z = Column::from_i64(vec![0, 2]);
        let out = a.arith(ArithOp::Mod, &z).unwrap();
        assert!(out.is_null_at(0), "x % 0 is null, not a panic");
        assert_eq!(out.get(1), Scalar::Int(1));
        let out = a.arith_scalar(ArithOp::Mod, &Scalar::Int(0)).unwrap();
        assert_eq!(out.count_null(), 2);
    }

    #[test]
    fn compare_columns_with_nulls() {
        let a = Column::from_opt_i64(vec![Some(1), None, Some(3), None]);
        let b = Column::from_opt_i64(vec![Some(1), Some(2), None, None]);
        // Null on either side: every comparison is false except `!=`.
        for op in [CmpOp::Eq, CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge] {
            let m = a.compare(op, &b).unwrap();
            assert!(!m.get(1), "{op:?} with null lhs");
            assert!(!m.get(2), "{op:?} with null rhs");
            assert!(!m.get(3), "{op:?} with both null");
        }
        let ne = a.compare(CmpOp::Ne, &b).unwrap();
        assert_eq!(ne, Bitmap::from_bools(&[false, true, true, true]));
        let eq = a.compare(CmpOp::Eq, &b).unwrap();
        assert_eq!(eq, Bitmap::from_bools(&[true, false, false, false]));
    }

    #[test]
    fn compare_scalar_float_nan_lhs() {
        // The Float64 fast path must treat NaN cells as null.
        let c = Column::from_f64(vec![1.0, f64::NAN, -2.0]);
        let m = c.compare_scalar(CmpOp::Lt, &Scalar::Float(0.0)).unwrap();
        assert_eq!(m, Bitmap::from_bools(&[false, false, true]));
        let m = c.compare_scalar(CmpOp::Ne, &Scalar::Float(1.0)).unwrap();
        assert_eq!(m, Bitmap::from_bools(&[false, true, true]));
    }

    #[test]
    fn compare_scalar_null_rhs() {
        let c = int_col();
        let m = c.compare_scalar(CmpOp::Eq, &Scalar::Null).unwrap();
        assert_eq!(m.count_set(), 0);
        let m = c.compare_scalar(CmpOp::Ne, &Scalar::Null).unwrap();
        assert_eq!(m.count_set(), c.len());
    }

    #[test]
    fn sum_and_mean_skip_nulls() {
        let c = Column::from_opt_i64(vec![Some(1), None, Some(5)]);
        assert_eq!(c.sum(), Scalar::Int(6));
        assert_eq!(c.mean(), Scalar::Float(3.0));
        assert_eq!(c.count(), Scalar::Int(2));
    }
}
