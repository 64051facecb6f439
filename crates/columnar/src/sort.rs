//! Multi-key sorting (pandas `sort_values`).
//!
//! The argsort is typed end to end: each key column is matched to a
//! borrowed view once, nulls are handled via the validity mask (floats
//! additionally treat NaN as null), and the comparators run over raw
//! `i64`/`f64` slices and arena byte ranges. No [`Scalar`](crate::Scalar) is boxed per
//! row — the
//! seed implementation materialized a `Vec<Scalar>` per key column and
//! dispatched `cmp_values` per comparison, which dominated the sort's
//! cost. A single-key sort takes a fast path that sorts indices directly
//! against one slice; [`top_k`] (and `nlargest`/`nsmallest` over it) uses
//! a partial `select_nth_unstable`-based selection instead of sorting the
//! whole frame.
//!
//! Multi-key sorts additionally pack the leading keys into a single
//! `u64` *normalized key* per row (`NormKeys`): each key gets a lane
//! (order-preserving encoding + a null slot that sorts last in either
//! direction), stats-compressed so as many keys as possible fit
//! losslessly; one final lossy prefix lane may follow. Most comparisons
//! then resolve with one integer compare instead of one virtual-ish
//! dispatch per key — the multi-key comparator was the last ~1.4× soft
//! spot. A comparison only falls back to the typed comparators for the
//! keys the normalized key does not cover losslessly.
//!
//! [`sort_values_par`] runs the same argsort morsel-parallel: workers
//! sort per-morsel index runs under the (total, index-tie-broken)
//! normalized comparator, runs merge pairwise on the pool, and output
//! columns gather in parallel — the result is bit-identical to the
//! sequential stable sort at any thread count.

use crate::bitmap::Bitmap;
use crate::column::{Categorical, Column};
use crate::error::{ColumnarError, Result};
use crate::frame::DataFrame;
use crate::pool::{kernel_morsels, WorkerPool, PAR_MIN_ROWS};
use crate::series::Series;
use crate::strings::Utf8Col;
use std::cmp::Ordering;

/// Options for a `sort_values` call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SortOptions {
    /// Key column names, highest priority first.
    pub by: Vec<String>,
    /// Per-key ascending flags; a single flag is broadcast over all keys,
    /// any other length mismatch is an error.
    pub ascending: Vec<bool>,
}

impl SortOptions {
    /// Ascending sort on the given keys.
    pub fn ascending(by: Vec<String>) -> SortOptions {
        let n = by.len();
        SortOptions {
            by,
            ascending: vec![true; n],
        }
    }

    /// Single-key sort with a direction.
    pub fn single(key: impl Into<String>, ascending: bool) -> SortOptions {
        SortOptions {
            by: vec![key.into()],
            ascending: vec![ascending],
        }
    }

    /// pandas' check at every sort entry point: one flag broadcasts,
    /// otherwise there must be exactly one flag per key.
    fn validate(&self) -> Result<()> {
        let (asc, by) = (self.ascending.len(), self.by.len());
        if asc == by || asc == 1 {
            Ok(())
        } else {
            Err(ColumnarError::InvalidArgument(format!(
                "Length of ascending ({asc}) != length of by ({by})"
            )))
        }
    }

    /// Direction of key `k` (call only after [`validate`](Self::validate)).
    fn dir(&self, k: usize) -> bool {
        match self.ascending.as_slice() {
            [one] => *one,
            flags => flags[k],
        }
    }
}

/// A borrowed typed view of one sort key column plus its direction.
/// Matched once per sort so every comparison runs over raw buffers.
struct SortKey<'a> {
    view: KeyData<'a>,
    validity: Option<&'a Bitmap>,
    ascending: bool,
}

enum KeyData<'a> {
    /// Int64 and Datetime both order by the raw `i64`.
    I64(&'a [i64]),
    F64(&'a [f64]),
    Bool(&'a Bitmap),
    Str(&'a Utf8Col),
    Cat(&'a Categorical),
}

impl<'a> SortKey<'a> {
    fn new(col: &'a Column, ascending: bool) -> SortKey<'a> {
        let (view, validity) = match col {
            Column::Int64(d, v) | Column::Datetime(d, v) => (KeyData::I64(d), v.as_ref()),
            Column::Float64(d, v) => (KeyData::F64(d), v.as_ref()),
            Column::Bool(d, v) => (KeyData::Bool(d), v.as_ref()),
            Column::Utf8(d, v) => (KeyData::Str(d), v.as_ref()),
            Column::Dict(c, v) => (KeyData::Cat(c), v.as_ref()),
            // Sort entry points expand run-length keys before building
            // views; a borrowed view cannot own the expansion.
            Column::Rle(_) => unreachable!("RLE keys are decoded before view construction"),
        };
        SortKey {
            view,
            validity,
            ascending,
        }
    }

    #[inline]
    fn is_null(&self, i: usize) -> bool {
        if self.validity.is_some_and(|m| !m.get(i)) {
            return true;
        }
        matches!(&self.view, KeyData::F64(d) if d[i].is_nan())
    }

    /// Compare two non-null rows in this key's direction.
    #[inline]
    fn cmp_valid(&self, a: usize, b: usize) -> Ordering {
        let ord = match &self.view {
            KeyData::I64(d) => d[a].cmp(&d[b]),
            KeyData::F64(d) => d[a].partial_cmp(&d[b]).unwrap_or(Ordering::Equal),
            KeyData::Bool(d) => d.get(a).cmp(&d.get(b)),
            KeyData::Str(d) => d.bytes_at(a).cmp(d.bytes_at(b)),
            KeyData::Cat(c) => c
                .dict
                .bytes_at(c.codes[a] as usize)
                .cmp(c.dict.bytes_at(c.codes[b] as usize)),
        };
        if self.ascending {
            ord
        } else {
            ord.reverse()
        }
    }

    /// Full row comparison: nulls sort last regardless of direction
    /// (pandas `na_position='last'` default).
    #[inline]
    fn cmp_rows(&self, a: usize, b: usize) -> Ordering {
        match (self.is_null(a), self.is_null(b)) {
            (true, true) => Ordering::Equal,
            (true, false) => Ordering::Greater,
            (false, true) => Ordering::Less,
            (false, false) => self.cmp_valid(a, b),
        }
    }
}

/// The resolved sort keys of one frame under a [`SortOptions`],
/// reusable across many comparisons. Built once per run cursor by an
/// external (spilled) sort's k-way merge, so the per-comparison cost is
/// the same typed dispatch [`sort_values`] pays — no per-row name
/// lookups and no boxed scalars.
pub struct FrameSortKeys<'a> {
    keys: Vec<SortKey<'a>>,
}

impl<'a> FrameSortKeys<'a> {
    /// Resolve `options`' key columns against `frame`.
    pub fn resolve(frame: &'a DataFrame, options: &SortOptions) -> Result<FrameSortKeys<'a>> {
        Ok(FrameSortKeys {
            keys: sort_keys(frame, options)?,
        })
    }
}

/// Compare row `ai` under keys `a` with row `bi` under keys `b` —
/// the cross-frame comparator an external sort-merge needs. Semantics
/// match [`sort_values`] exactly: keys compare lexicographically, nulls
/// (and float `NaN`) sort last regardless of direction, strings and
/// categoricals compare raw bytes, descending keys reverse. The two
/// sides are chunks of one logical frame; panics if a key's dtypes
/// disagree across them.
pub fn cmp_rows_across(
    a: &FrameSortKeys<'_>,
    ai: usize,
    b: &FrameSortKeys<'_>,
    bi: usize,
) -> Ordering {
    for (ka, kb) in a.keys.iter().zip(&b.keys) {
        let ord = match (ka.is_null(ai), kb.is_null(bi)) {
            (true, true) => Ordering::Equal,
            (true, false) => Ordering::Greater,
            (false, true) => Ordering::Less,
            (false, false) => {
                let ord = match (&ka.view, &kb.view) {
                    (KeyData::I64(x), KeyData::I64(y)) => x[ai].cmp(&y[bi]),
                    (KeyData::F64(x), KeyData::F64(y)) => {
                        x[ai].partial_cmp(&y[bi]).unwrap_or(Ordering::Equal)
                    }
                    (KeyData::Bool(x), KeyData::Bool(y)) => x.get(ai).cmp(&y.get(bi)),
                    // String-class keys all compare raw bytes, so Utf8
                    // and dictionary chunks interoperate.
                    (KeyData::Str(_) | KeyData::Cat(_), KeyData::Str(_) | KeyData::Cat(_)) => {
                        key_bytes(ka, ai).cmp(key_bytes(kb, bi))
                    }
                    _ => panic!("cmp_rows_across: key dtype mismatch between chunks"),
                };
                if ka.ascending {
                    ord
                } else {
                    ord.reverse()
                }
            }
        };
        if ord != Ordering::Equal {
            return ord;
        }
    }
    Ordering::Equal
}

/// Raw bytes of a non-null string-class key row.
#[inline]
fn key_bytes<'a>(key: &'a SortKey<'_>, i: usize) -> &'a [u8] {
    match &key.view {
        KeyData::Str(d) => d.bytes_at(i),
        KeyData::Cat(c) => c.dict.bytes_at(c.codes[i] as usize),
        _ => unreachable!("key_bytes on non-string key"),
    }
}

// ---------------------------------------------------------------------------
// Normalized keys
// ---------------------------------------------------------------------------

/// Layout of one key's lane inside the packed `u64` normalized key.
#[derive(Debug, Clone, Copy)]
struct LanePlan {
    /// Lane width in bits (≥ 1; the null slot is part of the domain).
    bits: u32,
    /// How row values map into the lane.
    kind: LaneKind,
}

#[derive(Debug, Clone, Copy)]
enum LaneKind {
    /// Range-compressed order-preserving integer image:
    /// `enc = monotone(v) - min`, null = `range + 1` (sorts last). The
    /// lane is lossless — lane equality implies key equality.
    Monotone {
        /// Minimum monotone image over the non-null rows.
        min: u64,
        /// `max - min` over the non-null rows.
        range: u64,
    },
    /// Zero-padded big-endian string bytes (lossless: every value fits
    /// in `bytes` and contains no NUL, and 0xFF never appears in UTF-8,
    /// so null = `1 << (8 * bytes)` sorts after every value).
    StrBytes {
        /// Payload bytes per value.
        bytes: u32,
    },
    /// Final lossy lane: the top `bits - 1` bits of the full 64-bit
    /// monotone image (numeric) or 8-byte prefix (strings); the lane's
    /// top bit flags null. Lane inequality still orders correctly; lane
    /// equality defers to the typed fallback comparator.
    Lossy,
}

/// The packed normalized keys of a sort: one `u64` per row, plus the
/// index of the first key the packing does *not* cover losslessly
/// (comparisons that tie on the normalized key re-compare keys from
/// `fallback_start` on with the typed comparators).
struct NormKeys {
    values: Vec<u64>,
    fallback_start: usize,
}

const SIGN_FLIP: u64 = 1 << 63;

/// Is this key string-class (compared by string bytes)?
fn is_string_key(key: &SortKey<'_>) -> bool {
    matches!(key.view, KeyData::Str(_) | KeyData::Cat(_))
}

/// Order-preserving `u64` image of a non-null numeric-class row:
/// `a < b  ⟺  monotone(a) < monotone(b)` under the key's value order.
#[inline]
fn monotone_at(key: &SortKey<'_>, i: usize) -> u64 {
    match &key.view {
        KeyData::I64(d) => (d[i] as u64) ^ SIGN_FLIP,
        KeyData::F64(d) => {
            // Normalize -0.0: the comparator treats it equal to 0.0, so
            // the encoding must too.
            let v = if d[i] == 0.0 { 0.0 } else { d[i] };
            let b = v.to_bits();
            if b >> 63 == 1 {
                !b
            } else {
                b | SIGN_FLIP
            }
        }
        KeyData::Bool(d) => d.get(i) as u64,
        KeyData::Str(_) | KeyData::Cat(_) => unreachable!("monotone_at on string key"),
    }
}

/// The string value of a non-null string-class row.
#[inline]
fn str_at<'a>(key: &'a SortKey<'_>, i: usize) -> &'a str {
    match &key.view {
        KeyData::Str(d) => d.get(i),
        KeyData::Cat(c) => c.dict.get(c.codes[i] as usize),
        _ => unreachable!("str_at on non-string key"),
    }
}

/// First 8 bytes of `s`, big-endian, zero-padded (an order-consistent
/// prefix: prefix(a) < prefix(b) implies a < b).
#[inline]
fn str_prefix64(s: &str) -> u64 {
    let b = s.as_bytes();
    let mut v = 0u64;
    for k in 0..8 {
        v = (v << 8) | b.get(k).copied().unwrap_or(0) as u64;
    }
    v
}

/// `s` packed into `bytes` big-endian bytes (caller guarantees it fits).
#[inline]
fn str_bytes_enc(s: &str, bytes: u32) -> u64 {
    let b = s.as_bytes();
    let mut v = 0u64;
    for k in 0..bytes as usize {
        v = (v << 8) | b.get(k).copied().unwrap_or(0) as u64;
    }
    v
}

/// All-ones value of `bits` bits (`bits ≤ 64`).
#[inline]
fn ones(bits: u32) -> u64 {
    if bits >= 64 {
        u64::MAX
    } else {
        (1u64 << bits) - 1
    }
}

/// Min/max of the monotone image over non-null rows (morsel-parallel);
/// `None` when every row is null.
fn numeric_stats(key: &SortKey<'_>, n: usize, pool: &WorkerPool) -> Option<(u64, u64)> {
    let morsels = kernel_morsels(n, pool.threads());
    let partials: Vec<Option<(u64, u64)>> = pool.map(morsels, |_, (start, len)| {
        let mut mn = u64::MAX;
        let mut mx = 0u64;
        let mut any = false;
        for i in start..start + len {
            if !key.is_null(i) {
                let m = monotone_at(key, i);
                mn = mn.min(m);
                mx = mx.max(m);
                any = true;
            }
        }
        any.then_some((mn, mx))
    });
    partials
        .into_iter()
        .flatten()
        .reduce(|(amn, amx), (bmn, bmx)| (amn.min(bmn), amx.max(bmx)))
}

/// Max byte length and NUL-byte presence over a string key's values.
/// Dictionary keys scan their (small) dictionary; Utf8 scans row values
/// morsel-parallel (null slots hold `""` and contribute nothing).
fn string_stats(key: &SortKey<'_>, n: usize, pool: &WorkerPool) -> (usize, bool) {
    match &key.view {
        KeyData::Cat(c) => (0..c.dict.len())
            .map(|d| c.dict.bytes_at(d))
            .fold((0usize, false), |(len, nul), s| {
                (len.max(s.len()), nul || s.contains(&0))
            }),
        KeyData::Str(d) => {
            let morsels = kernel_morsels(n, pool.threads());
            let partials: Vec<(usize, bool)> = pool.map(morsels, |_, (start, len)| {
                (start..start + len)
                    .map(|i| d.bytes_at(i))
                    .fold((0usize, false), |(l, nul), s| {
                        (l.max(s.len()), nul || s.contains(&0))
                    })
            });
            partials
                .into_iter()
                .fold((0, false), |(l, nul), (pl, pn)| (l.max(pl), nul || pn))
        }
        _ => unreachable!("string_stats on non-string key"),
    }
}

/// Plan the lanes: pack keys in order while they fit losslessly in the
/// remaining bits; at most one final lossy lane follows. Returns the
/// plans plus the count of losslessly covered leading keys.
fn plan_lanes(
    keys: &[SortKey<'_>],
    n: usize,
    pool: &WorkerPool,
) -> (Vec<LanePlan>, usize) {
    let mut lanes: Vec<LanePlan> = Vec::with_capacity(keys.len());
    let mut remaining = 64u32;
    let mut covered = 0usize;
    for key in keys {
        if remaining < 2 {
            break;
        }
        if is_string_key(key) {
            let (max_len, has_nul) = string_stats(key, n, pool);
            let bits = 8 * max_len as u32 + 1;
            if !has_nul && max_len <= 7 && bits <= remaining {
                lanes.push(LanePlan {
                    bits,
                    kind: LaneKind::StrBytes {
                        bytes: max_len as u32,
                    },
                });
                remaining -= bits;
                covered += 1;
                continue;
            }
        } else {
            match numeric_stats(key, n, pool) {
                None => {
                    // Every row null: one bit holds the null flag.
                    lanes.push(LanePlan {
                        bits: 1,
                        kind: LaneKind::Monotone { min: 0, range: 0 },
                    });
                    remaining -= 1;
                    covered += 1;
                    continue;
                }
                Some((min, max)) => {
                    let range = max - min;
                    if range < u64::MAX {
                        // Max lane value is `range + 1` (the null slot).
                        let bits = 64 - (range + 1).leading_zeros();
                        if bits <= remaining {
                            lanes.push(LanePlan {
                                bits,
                                kind: LaneKind::Monotone { min, range },
                            });
                            remaining -= bits;
                            covered += 1;
                            continue;
                        }
                    }
                }
            }
        }
        // Lossless packing didn't fit: spend what's left on a lossy
        // prefix of this key, then stop — later lanes would be unsound
        // (a lossy tie must defer to the fallback comparator).
        lanes.push(LanePlan {
            bits: remaining,
            kind: LaneKind::Lossy,
        });
        break;
    }
    (lanes, covered)
}

/// Pack row `i`'s lanes into one `u64`.
#[inline]
fn norm_at(keys: &[SortKey<'_>], lanes: &[LanePlan], i: usize) -> u64 {
    let mut out = 0u64;
    for (key, lane) in keys.iter().zip(lanes) {
        let v = if key.is_null(i) {
            // Nulls sort last regardless of direction.
            match lane.kind {
                LaneKind::Monotone { range, .. } => range.wrapping_add(1),
                LaneKind::StrBytes { bytes } => 1u64 << (8 * bytes),
                LaneKind::Lossy => 1u64 << (lane.bits - 1),
            }
        } else {
            match lane.kind {
                LaneKind::Monotone { min, range } => {
                    let e = monotone_at(key, i) - min;
                    if key.ascending {
                        e
                    } else {
                        range - e
                    }
                }
                LaneKind::StrBytes { bytes } => {
                    let e = str_bytes_enc(str_at(key, i), bytes);
                    if key.ascending {
                        e
                    } else {
                        ones(8 * bytes) - e
                    }
                }
                LaneKind::Lossy => {
                    let full = if is_string_key(key) {
                        str_prefix64(str_at(key, i))
                    } else {
                        monotone_at(key, i)
                    };
                    let adjusted = if key.ascending { full } else { !full };
                    adjusted >> (64 - (lane.bits - 1))
                }
            }
        };
        out = if lane.bits >= 64 { v } else { (out << lane.bits) | v };
    }
    out
}

impl NormKeys {
    /// Build the normalized keys for `n` rows (lane stats and the fill
    /// pass both run morsel-parallel on `pool`).
    fn build(keys: &[SortKey<'_>], n: usize, pool: &WorkerPool) -> NormKeys {
        let (lanes, covered) = plan_lanes(keys, n, pool);
        let mut values = vec![0u64; n];
        if !lanes.is_empty() {
            let morsels = kernel_morsels(n, pool.threads());
            let chunks = crate::pool::split_mut_chunks(&mut values, &morsels);
            pool.map(chunks, |_, (start, chunk)| {
                for (j, slot) in chunk.iter_mut().enumerate() {
                    *slot = norm_at(keys, &lanes, start + j);
                }
            });
        }
        NormKeys {
            values,
            fallback_start: covered,
        }
    }
}

/// Typed lexicographic comparison over `keys` (the fallback tail).
#[inline]
fn cmp_keys(keys: &[SortKey<'_>], a: usize, b: usize) -> Ordering {
    for key in keys {
        let ord = key.cmp_rows(a, b);
        if ord != Ordering::Equal {
            return ord;
        }
    }
    Ordering::Equal
}

/// Stable argsort of `0..n` under the composed key comparators.
fn argsort(keys: &[SortKey<'_>], n: usize) -> Vec<usize> {
    if let [key] = keys {
        return argsort_single(key, n);
    }
    let mut order: Vec<usize> = (0..n).collect();
    if keys.is_empty() {
        return order;
    }
    // Normalized-key comparator: one u64 compare resolves the covered
    // keys; only normalized ties re-compare the uncovered tail.
    let norm = NormKeys::build(keys, n, &WorkerPool::sequential());
    let tail = &keys[norm.fallback_start..];
    let values = &norm.values;
    if tail.is_empty() {
        order.sort_by(|&a, &b| values[a].cmp(&values[b]));
    } else {
        order.sort_by(|&a, &b| values[a].cmp(&values[b]).then_with(|| cmp_keys(tail, a, b)));
    }
    order
}

/// Parallel argsort: per-morsel index runs sorted under the total
/// (index-tie-broken) normalized comparator, merged pairwise on the
/// pool. The total order makes the merged result exactly the stable
/// sequential argsort.
fn argsort_par(keys: &[SortKey<'_>], n: usize, pool: &WorkerPool) -> Vec<usize> {
    let norm = NormKeys::build(keys, n, pool);
    let tail = &keys[norm.fallback_start..];
    let values = &norm.values;
    let cmp_total = |a: usize, b: usize| {
        values[a]
            .cmp(&values[b])
            .then_with(|| cmp_keys(tail, a, b))
            .then_with(|| a.cmp(&b))
    };
    let morsels = kernel_morsels(n, pool.threads());
    let mut runs: Vec<Vec<usize>> = pool.map(morsels, |_, (start, len)| {
        let mut idx: Vec<usize> = (start..start + len).collect();
        idx.sort_unstable_by(|&a, &b| cmp_total(a, b));
        idx
    });
    while runs.len() > 1 {
        let mut pairs: Vec<(Vec<usize>, Option<Vec<usize>>)> =
            Vec::with_capacity(runs.len().div_ceil(2));
        let mut it = runs.into_iter();
        while let Some(a) = it.next() {
            pairs.push((a, it.next()));
        }
        runs = pool.map(pairs, |_, (a, b)| match b {
            Some(b) => merge_runs(&a, &b, &cmp_total),
            None => a,
        });
    }
    runs.pop().unwrap_or_default()
}

/// Merge two runs sorted under the total comparator.
fn merge_runs(
    a: &[usize],
    b: &[usize],
    cmp: &impl Fn(usize, usize) -> Ordering,
) -> Vec<usize> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        if cmp(a[i], b[j]) != Ordering::Greater {
            out.push(a[i]);
            i += 1;
        } else {
            out.push(b[j]);
            j += 1;
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

/// Single-key fast path: partition null rows off (stable, nulls last),
/// then sort the valid indices directly against the one raw slice.
fn argsort_single(key: &SortKey<'_>, n: usize) -> Vec<usize> {
    let mut valid: Vec<usize> = Vec::with_capacity(n);
    let mut nulls: Vec<usize> = Vec::new();
    if key.validity.is_none() && !matches!(key.view, KeyData::F64(_)) {
        valid.extend(0..n);
    } else {
        for i in 0..n {
            if key.is_null(i) {
                nulls.push(i);
            } else {
                valid.push(i);
            }
        }
    }
    // Stable sorts keep ties in row order in both directions, exactly as
    // the seed's `sort_by` with a reversed comparator did.
    match &key.view {
        KeyData::I64(d) => {
            if key.ascending {
                valid.sort_by_key(|&i| d[i]);
            } else {
                valid.sort_by_key(|&i| std::cmp::Reverse(d[i]));
            }
        }
        KeyData::F64(d) => {
            // Valid rows exclude NaN, so partial_cmp is total here.
            if key.ascending {
                valid.sort_by(|&a, &b| d[a].partial_cmp(&d[b]).unwrap_or(Ordering::Equal));
            } else {
                valid.sort_by(|&a, &b| d[b].partial_cmp(&d[a]).unwrap_or(Ordering::Equal));
            }
        }
        KeyData::Bool(d) => {
            if key.ascending {
                valid.sort_by_key(|&i| d.get(i));
            } else {
                valid.sort_by_key(|&i| std::cmp::Reverse(d.get(i)));
            }
        }
        KeyData::Str(d) => {
            if key.ascending {
                valid.sort_by(|&a, &b| d.bytes_at(a).cmp(d.bytes_at(b)));
            } else {
                valid.sort_by(|&a, &b| d.bytes_at(b).cmp(d.bytes_at(a)));
            }
        }
        KeyData::Cat(c) => {
            // Order codes through a per-entry rank table: one (small)
            // dictionary sort, then each row compares by u32 rank instead
            // of byte-comparing arena strings at every sort step.
            // Byte-equal entries share a rank, so ties keep row order
            // exactly as the direct byte comparison did.
            let mut entry_order: Vec<u32> = (0..c.dict.len() as u32).collect();
            entry_order.sort_by(|&a, &b| {
                c.dict.bytes_at(a as usize).cmp(c.dict.bytes_at(b as usize))
            });
            let mut rank = vec![0u32; c.dict.len()];
            let mut r = 0u32;
            for (k, &e) in entry_order.iter().enumerate() {
                if k > 0
                    && c.dict.bytes_at(e as usize)
                        != c.dict.bytes_at(entry_order[k - 1] as usize)
                {
                    r += 1;
                }
                rank[e as usize] = r;
            }
            if key.ascending {
                valid.sort_by_key(|&i| rank[c.codes[i] as usize]);
            } else {
                valid.sort_by_key(|&i| std::cmp::Reverse(rank[c.codes[i] as usize]));
            }
        }
    }
    valid.extend(nulls);
    valid
}

/// Resolve the key columns and directions of `options` against `frame`.
fn sort_keys<'a>(frame: &'a DataFrame, options: &SortOptions) -> Result<Vec<SortKey<'a>>> {
    options.validate()?;
    options
        .by
        .iter()
        .enumerate()
        .map(|(k, name)| {
            frame
                .column(name)
                .map(|s| SortKey::new(s.column(), options.dir(k)))
        })
        .collect()
}

/// Run-length key columns expanded to plain rows (dictionary keys pass
/// through; the sort machinery orders their codes natively). The
/// returned storage outlives the borrowed [`SortKey`] views built on it.
fn plain_key_storage<'a>(
    frame: &'a DataFrame,
    options: &SortOptions,
) -> Result<Vec<std::borrow::Cow<'a, Column>>> {
    options.validate()?;
    options
        .by
        .iter()
        .map(|name| frame.column(name).map(|s| s.column().rle_decoded()))
        .collect()
}

/// Build the per-key views over pre-resolved key storage.
fn keys_from_storage<'a>(
    storage: &'a [std::borrow::Cow<'a, Column>],
    options: &SortOptions,
) -> Vec<SortKey<'a>> {
    storage
        .iter()
        .enumerate()
        .map(|(k, c)| SortKey::new(c.as_ref(), options.dir(k)))
        .collect()
}

/// Stable multi-key sort; nulls sort last regardless of direction
/// (pandas `na_position='last'` default).
pub fn sort_values(frame: &DataFrame, options: &SortOptions) -> Result<DataFrame> {
    let storage = plain_key_storage(frame, options)?;
    let keys = keys_from_storage(&storage, options);
    let order = argsort(&keys, frame.num_rows());
    frame.take(&order)
}

/// [`sort_values`] driven through a worker pool: normalized keys fill
/// morsel-parallel, per-morsel index runs sort concurrently and merge
/// pairwise, and the output permutation gathers each column on the
/// pool. Bit-identical to the sequential stable sort at any thread
/// count (the merge comparator is total, tie-broken by row index).
pub fn sort_values_par(
    frame: &DataFrame,
    options: &SortOptions,
    pool: &WorkerPool,
) -> Result<DataFrame> {
    let rows = frame.num_rows();
    if !pool.is_parallel() || rows < PAR_MIN_ROWS || options.by.is_empty() {
        return sort_values(frame, options);
    }
    let storage = plain_key_storage(frame, options)?;
    let keys = keys_from_storage(&storage, options);
    let order = argsort_par(&keys, rows, pool);
    drop(keys);
    drop(storage);
    // Gather the sorted frame column-parallel; the permutation indexes
    // are in bounds by construction.
    let series: Vec<&Series> = frame.series().iter().collect();
    let cols = pool.map(series, |_, s| {
        Series::new(s.name(), s.column().take_unchecked(&order))
    });
    DataFrame::new(cols)
}

/// `sort_values(options).head(n)` without sorting the whole frame: the
/// `n` rows that head the stable sort, in sorted order. Nulls and NaN
/// sort last in either direction and ties keep input order, exactly as
/// in [`sort_values`]; `n ≥ rows` is the full stable sort. (pandas
/// `nlargest` drops NaN and takes `keep=`; that is not this contract.)
///
/// `select_nth_unstable_by` partitions the row indices under the
/// multi-key comparator tie-broken by row index. The tie-break makes
/// the order total, so the unstable selection reproduces the stable
/// sort's prefix exactly; only the `n` selected rows are then sorted
/// and gathered.
pub fn top_k(frame: &DataFrame, options: &SortOptions, n: usize) -> Result<DataFrame> {
    let rows = frame.num_rows();
    if n >= rows {
        return sort_values(frame, options);
    }
    let storage = plain_key_storage(frame, options)?;
    let keys = keys_from_storage(&storage, options);
    if n == 0 {
        return frame.take(&[]);
    }
    // One key compares directly, as in `argsort`. The row-index
    // tie-break makes either comparator total.
    let idx = match keys.as_slice() {
        [key] => select_prefix(rows, n, |a: &usize, b: &usize| {
            key.cmp_rows(*a, *b).then(a.cmp(b))
        }),
        keys => select_prefix(rows, n, |a: &usize, b: &usize| {
            cmp_keys(keys, *a, *b).then(a.cmp(b))
        }),
    };
    frame.take(&idx)
}

/// [`top_k`] with its full-sort case (`n ≥ rows`) on the pool, through
/// [`sort_values_par`].
pub fn top_k_par(
    frame: &DataFrame,
    options: &SortOptions,
    n: usize,
    pool: &WorkerPool,
) -> Result<DataFrame> {
    if n >= frame.num_rows() {
        sort_values_par(frame, options, pool)
    } else {
        top_k(frame, options, n)
    }
}

/// The first `n` (`0 < n < rows`) row indices under the total order
/// `cmp`, in order.
fn select_prefix(
    rows: usize,
    n: usize,
    cmp: impl Fn(&usize, &usize) -> Ordering + Copy,
) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..rows).collect();
    idx.select_nth_unstable_by(n - 1, cmp);
    let mut top = idx[..n].to_vec();
    top.sort_unstable_by(cmp);
    top
}

/// `df.nlargest(n, col)` — top-n by one column, descending.
pub fn nlargest(frame: &DataFrame, n: usize, column: &str) -> Result<DataFrame> {
    top_k(frame, &SortOptions::single(column, false), n)
}

/// `df.nsmallest(n, col)` — bottom-n by one column, ascending.
pub fn nsmallest(frame: &DataFrame, n: usize, column: &str) -> Result<DataFrame> {
    top_k(frame, &SortOptions::single(column, true), n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::Column;
    use crate::df;
    use crate::value::Scalar;

    fn sample() -> DataFrame {
        df![
            ("name", Column::from_strings(vec!["b", "a", "c", "a"])),
            ("score", Column::from_opt_f64(vec![Some(2.0), Some(3.0), None, Some(1.0)])),
        ]
    }

    #[test]
    fn single_key_ascending() {
        let out = sort_values(&sample(), &SortOptions::single("score", true)).unwrap();
        assert_eq!(out.column("score").unwrap().get(0), Scalar::Float(1.0));
        // null last
        assert!(out.column("score").unwrap().column().is_null_at(3));
    }

    #[test]
    fn single_key_descending_nulls_still_last() {
        let out = sort_values(&sample(), &SortOptions::single("score", false)).unwrap();
        assert_eq!(out.column("score").unwrap().get(0), Scalar::Float(3.0));
        assert!(out.column("score").unwrap().column().is_null_at(3));
    }

    #[test]
    fn multi_key_with_mixed_directions() {
        let out = sort_values(
            &sample(),
            &SortOptions {
                by: vec!["name".into(), "score".into()],
                ascending: vec![true, false],
            },
        )
        .unwrap();
        // names: a, a, b, c; within the 'a's score desc: 3.0 then 1.0
        assert_eq!(out.column("name").unwrap().get(0), Scalar::Str("a".into()));
        assert_eq!(out.column("score").unwrap().get(0), Scalar::Float(3.0));
        assert_eq!(out.column("score").unwrap().get(1), Scalar::Float(1.0));
    }

    #[test]
    fn sort_is_stable() {
        let df = df![
            ("k", Column::from_i64(vec![1, 1, 1])),
            ("tag", Column::from_strings(vec!["first", "second", "third"])),
        ];
        let out = sort_values(&df, &SortOptions::single("k", true)).unwrap();
        assert_eq!(out.column("tag").unwrap().get(0), Scalar::Str("first".into()));
        assert_eq!(out.column("tag").unwrap().get(2), Scalar::Str("third".into()));
    }

    #[test]
    fn descending_ties_keep_row_order() {
        let df = df![
            ("k", Column::from_i64(vec![2, 1, 2, 1])),
            ("tag", Column::from_strings(vec!["a", "b", "c", "d"])),
        ];
        let out = sort_values(&df, &SortOptions::single("k", false)).unwrap();
        // ties within k=2 and k=1 keep original row order
        assert_eq!(out.column("tag").unwrap().get(0), Scalar::Str("a".into()));
        assert_eq!(out.column("tag").unwrap().get(1), Scalar::Str("c".into()));
        assert_eq!(out.column("tag").unwrap().get(2), Scalar::Str("b".into()));
        assert_eq!(out.column("tag").unwrap().get(3), Scalar::Str("d".into()));
    }

    #[test]
    fn nlargest_nsmallest() {
        let top = nlargest(&sample(), 2, "score").unwrap();
        assert_eq!(top.num_rows(), 2);
        assert_eq!(top.column("score").unwrap().get(0), Scalar::Float(3.0));
        let bottom = nsmallest(&sample(), 1, "score").unwrap();
        assert_eq!(bottom.column("score").unwrap().get(0), Scalar::Float(1.0));
    }

    #[test]
    fn top_n_matches_full_sort_with_duplicates() {
        let df = df![
            ("k", Column::from_i64(vec![3, 1, 3, 2, 3, 1, 2])),
            ("tag", Column::from_strings(vec!["a", "b", "c", "d", "e", "f", "g"])),
        ];
        for n in 0..=7 {
            let top = nlargest(&df, n, "k").unwrap();
            let full = sort_values(&df, &SortOptions::single("k", false)).unwrap().head(n);
            assert_eq!(top, full, "nlargest({n})");
            let bottom = nsmallest(&df, n, "k").unwrap();
            let full = sort_values(&df, &SortOptions::single("k", true)).unwrap().head(n);
            assert_eq!(bottom, full, "nsmallest({n})");
        }
    }

    #[test]
    fn top_n_with_nulls_matches_full_sort() {
        let df = df![
            ("k", Column::from_opt_f64(vec![Some(2.0), None, Some(5.0), None, Some(1.0)])),
        ];
        for n in 0..=5 {
            let top = nlargest(&df, n, "k").unwrap();
            let full = sort_values(&df, &SortOptions::single("k", false)).unwrap().head(n);
            // NaN payloads defeat derived equality; compare row scalars.
            assert_eq!(top.shape(), full.shape(), "nlargest({n}) with nulls");
            for i in 0..top.num_rows() {
                let (a, b) = (top.column("k").unwrap().get(i), full.column("k").unwrap().get(i));
                assert!(
                    (a.is_null() && b.is_null()) || a == b,
                    "nlargest({n}) row {i}: {a:?} vs {b:?}"
                );
            }
        }
    }

    #[test]
    fn sort_all_dtypes() {
        let cat = Column::from_strings(vec!["b", "a", "c"]).to_categorical().unwrap();
        let df = df![
            ("i", Column::from_i64(vec![3, 1, 2])),
            ("d", Column::from_datetimes(vec![30, 10, 20])),
            ("b", Column::from_bool(vec![true, false, true])),
            ("s", Column::from_strings(vec!["z", "x", "y"])),
            ("c", cat),
        ];
        for key in ["i", "d", "b", "s", "c"] {
            let out = sort_values(&df, &SortOptions::single(key, true)).unwrap();
            assert_eq!(out.num_rows(), 3, "{key}");
            let first = out.column(key).unwrap().get(0);
            let last = out.column(key).unwrap().get(2);
            assert!(first.cmp_values(&last).is_le(), "{key}: {first:?} <= {last:?}");
        }
    }

    #[test]
    fn unknown_key_errors() {
        assert!(sort_values(&sample(), &SortOptions::single("ghost", true)).is_err());
        assert!(top_k(&sample(), &SortOptions::single("ghost", true), 0).is_err());
    }

    #[test]
    fn ascending_length_mismatch_is_an_error() {
        let options = SortOptions {
            by: vec!["name".into(), "score".into(), "name".into()],
            ascending: vec![true, false],
        };
        let expected = "Length of ascending (2) != length of by (3)";
        for err in [
            sort_values(&sample(), &options).unwrap_err(),
            top_k(&sample(), &options, 1).unwrap_err(),
            sort_values_par(&sample(), &options, &WorkerPool::new(2)).unwrap_err(),
        ] {
            assert!(err.to_string().contains(expected), "{err}");
        }
        assert!(FrameSortKeys::resolve(&sample(), &options).is_err());
        // One flag still broadcasts over every key.
        let broadcast = SortOptions {
            by: vec!["name".into(), "score".into()],
            ascending: vec![false],
        };
        assert!(sort_values(&sample(), &broadcast).is_ok());
    }

    /// The cross-frame comparator must order any pair of rows exactly as
    /// the in-frame comparator orders them after concatenation.
    #[test]
    fn cmp_rows_across_matches_in_frame_sort() {
        let a = df![
            ("k", Column::from_opt_f64(vec![Some(2.0), None, Some(1.0)])),
            ("s", Column::from_strings(vec!["x", "y", "x"])),
        ];
        let b = df![
            ("k", Column::from_opt_f64(vec![Some(2.0), Some(f64::NAN), Some(0.5)])),
            ("s", Column::from_strings(vec!["w", "z", "x"])),
        ];
        for ascending in [true, false] {
            let options = SortOptions {
                by: vec!["k".into(), "s".into()],
                ascending: vec![ascending, true],
            };
            let ka = FrameSortKeys::resolve(&a, &options).unwrap();
            let kb = FrameSortKeys::resolve(&b, &options).unwrap();
            let keys_a = sort_keys(&a, &options).unwrap();
            let keys_b = sort_keys(&b, &options).unwrap();
            for i in 0..3 {
                for j in 0..3 {
                    // Reference: compare via each frame's own typed keys
                    // against itself (rows i of a vs j of b must order the
                    // same as the concatenated frame would order rows i
                    // and 3 + j).
                    let concat = a.concat(&b).unwrap();
                    let kc = sort_keys(&concat, &options).unwrap();
                    let expect = cmp_keys(&kc, i, 3 + j);
                    assert_eq!(
                        cmp_rows_across(&ka, i, &kb, j),
                        expect,
                        "asc={ascending} i={i} j={j}"
                    );
                    // Same-frame comparisons agree with cmp_keys too.
                    assert_eq!(cmp_rows_across(&ka, i, &ka, j), cmp_keys(&keys_a, i, j));
                    assert_eq!(cmp_rows_across(&kb, i, &kb, j), cmp_keys(&keys_b, i, j));
                }
            }
        }
    }
}
