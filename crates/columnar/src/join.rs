//! Hash joins (pandas `merge`).
//!
//! The join is keyed by a `u64` row hash (the same FNV-1a mix
//! [`Column::hash_into`] uses everywhere) over typed key views: the right
//! (build) side's rows are bucketed by hash with column-wise typed
//! equality on collision, and the left side probes with the same hashes.
//! No key is ever rendered to a `String` on the typed path — the seed
//! implementation built one canonical key `String` per row on *both*
//! sides, which dominated the join's cost.
//!
//! Equality follows the seed's canonical-rendering semantics exactly:
//! nulls match nulls, floats compare by bits (`0.0` and `-0.0` rendered
//! differently and therefore never joined), and a null string key renders
//! as `"NaN"` — equal to a literal `"NaN"` string value, as the old
//! stringly keying had it. Key column pairs whose dtypes disagree across
//! the two sides (degenerate inputs) fall back to the canonical-string
//! path, which reproduces the old behaviour verbatim.

use crate::bitmap::{BitWriter, Bitmap};
use crate::column::{fnv1a, Categorical, Column, ColumnBuilder, HashTable, IndexLike, HASH_PRIME};
use crate::error::{ColumnarError, Result};
use crate::frame::DataFrame;
use crate::pool::{kernel_morsels, WorkerPool, PAR_MIN_ROWS};
use crate::series::Series;
use crate::strings::{Utf8Builder, Utf8Col};
use std::collections::HashMap;

/// Join kinds supported by `merge(..., how=...)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum JoinKind {
    /// Keep only matching rows.
    Inner,
    /// Keep every left row; right columns are null when unmatched.
    Left,
}

impl JoinKind {
    /// Parse the pandas `how=` value.
    pub fn parse(name: &str) -> Option<JoinKind> {
        match name {
            "inner" => Some(JoinKind::Inner),
            "left" => Some(JoinKind::Left),
            _ => None,
        }
    }

    /// The `how=` spelling.
    pub fn name(self) -> &'static str {
        match self {
            JoinKind::Inner => "inner",
            JoinKind::Left => "left",
        }
    }
}

/// Hash-join `left` and `right` on equality of the named key columns
/// (`on` must exist on both sides, like pandas `merge(on=...)`).
///
/// Non-key columns that exist on both sides get pandas-style `_x` / `_y`
/// suffixes. The right side is the build side; output preserves left row
/// order (then right match order), matching pandas.
pub fn merge(
    left: &DataFrame,
    right: &DataFrame,
    on: &[String],
    how: JoinKind,
) -> Result<DataFrame> {
    merge_par(left, right, on, how, &WorkerPool::sequential())
}

/// [`merge`] driven through a worker pool: the build side is hashed and
/// hash-partitioned across workers, the left side is probed in
/// row-range morsels whose output runs are stitched back in morsel
/// order, and the output columns are gathered in parallel. The result
/// is bit-identical to the sequential join at any thread count (probe
/// order is preserved per morsel; per-key build row lists stay in scan
/// order because one key's rows all hash into one partition).
pub fn merge_par(
    left: &DataFrame,
    right: &DataFrame,
    on: &[String],
    how: JoinKind,
    pool: &WorkerPool,
) -> Result<DataFrame> {
    if on.is_empty() {
        return Err(ColumnarError::InvalidArgument(
            "merge requires at least one key".into(),
        ));
    }
    // Row ids are carried as u32 whenever both sides fit (always, in
    // practice) — half the index memory traffic through output assembly.
    if left.num_rows() < u32::MAX as usize && right.num_rows() < u32::MAX as usize {
        merge_impl::<u32>(left, right, on, how, pool)
    } else {
        merge_impl::<usize>(left, right, on, how, pool)
    }
}

fn merge_impl<I: IndexLike + Send + Sync>(
    left: &DataFrame,
    right: &DataFrame,
    on: &[String],
    how: JoinKind,
    pool: &WorkerPool,
) -> Result<DataFrame> {
    // Run-length keys fall back to plain rows; dictionary keys flow
    // through the Cat views natively (and, single-key, probe on codes).
    let left_keys: Vec<std::borrow::Cow<'_, Column>> = on
        .iter()
        .map(|k| left.column(k).map(|s| s.column().rle_decoded()))
        .collect::<Result<Vec<_>>>()?;
    let right_keys: Vec<std::borrow::Cow<'_, Column>> = on
        .iter()
        .map(|k| right.column(k).map(|s| s.column().rle_decoded()))
        .collect::<Result<Vec<_>>>()?;

    let left_views: Vec<KeyView<'_>> = left_keys.iter().map(|c| KeyView::new(c.as_ref())).collect();
    let right_views: Vec<KeyView<'_>> =
        right_keys.iter().map(|c| KeyView::new(c.as_ref())).collect();
    // The typed build table stores row ids as u32, so it additionally
    // requires both sides to fit u32 (they always do when merge picked
    // I = u32; the I = usize instantiation exists for the >4-billion-row
    // case, which routes through the canonical path below instead).
    let fits_u32 =
        left.num_rows() < u32::MAX as usize && right.num_rows() < u32::MAX as usize;
    let (left_idx, right_idx, any_miss): (Vec<I>, Vec<I>, bool) =
        if fits_u32 && same_classes(&left_views, &right_views) {
            join_indices_typed(
                &left_views,
                left.num_rows(),
                &right_views,
                right.num_rows(),
                how,
                pool,
            )
        } else {
            // Degenerate cross-dtype keys (or an absurdly large build
            // side): the seed canonical-string join.
            join_indices_canonical(left, right, on, how)?
        };

    // Assemble output columns (the dominant join cost — see ROADMAP):
    // plan every gather, then run the per-column gathers on the pool.
    let key_set: std::collections::HashSet<&str> = on.iter().map(String::as_str).collect();
    let overlap: std::collections::HashSet<&str> = left
        .column_names()
        .into_iter()
        .filter(|n| !key_set.contains(n) && right.has_column(n))
        .collect();

    // FK-join shape: every left row matched exactly once, in order. The
    // left gather is the identity permutation — clone the buffers
    // (memcpy) instead of gathering element by element.
    let identity = left_idx.len() == left.num_rows()
        && left_idx.iter().enumerate().all(|(k, &i)| i.idx() == k);

    // (name, source column, is_right_side) for every output column.
    let mut plan: Vec<(String, &Column, bool)> = Vec::new();
    for s in left.series() {
        let name = if overlap.contains(s.name()) {
            format!("{}_x", s.name())
        } else {
            s.name().to_string()
        };
        plan.push((name, s.column(), false));
    }
    for s in right.series() {
        if key_set.contains(s.name()) {
            continue; // key columns come from the left side
        }
        let name = if overlap.contains(s.name()) {
            format!("{}_y", s.name())
        } else {
            s.name().to_string()
        };
        plan.push((name, s.column(), true));
    }
    // The computed row ids are in bounds by construction, so assembly
    // skips `take`'s per-column bounds scan. Small outputs gather
    // sequentially — scoped workers don't amortize below PAR_MIN_ROWS.
    let seq = WorkerPool::sequential();
    let gather_pool = if left_idx.len() >= PAR_MIN_ROWS { pool } else { &seq };
    let out: Vec<Series> = gather_pool.map(plan, |_, (name, col, is_right)| {
        let gathered = if is_right {
            if any_miss {
                gather_optional(col, &right_idx)
            } else {
                col.take_unchecked(&right_idx)
            }
        } else if identity {
            col.clone()
        } else {
            col.take_unchecked(&left_idx)
        };
        Series::new(name, gathered)
    });
    DataFrame::new(out)
}

// ---------------------------------------------------------------------------
// Typed key views
// ---------------------------------------------------------------------------

/// A borrowed typed view of one key column, matched once per join so the
/// per-row hash and equality paths are branch-cheap and allocation-free.
enum KeyView<'a> {
    Int(&'a [i64], Option<&'a Bitmap>),
    Dt(&'a [i64], Option<&'a Bitmap>),
    Float(&'a [f64], Option<&'a Bitmap>),
    Bool(&'a Bitmap, Option<&'a Bitmap>),
    Utf8(&'a Utf8Col, Option<&'a Bitmap>),
    Cat(&'a Categorical, Option<&'a Bitmap>),
}

/// Key equality classes: pairs within one class compare typed; anything
/// else falls back to canonical strings.
#[derive(PartialEq, Eq, Clone, Copy)]
enum KeyClass {
    Int,
    Dt,
    Float,
    Bool,
    Str,
}

impl<'a> KeyView<'a> {
    fn new(col: &'a Column) -> KeyView<'a> {
        match col {
            Column::Int64(d, v) => KeyView::Int(d, v.as_ref()),
            Column::Datetime(d, v) => KeyView::Dt(d, v.as_ref()),
            Column::Float64(d, v) => KeyView::Float(d, v.as_ref()),
            Column::Bool(d, v) => KeyView::Bool(d, v.as_ref()),
            Column::Utf8(d, v) => KeyView::Utf8(d, v.as_ref()),
            Column::Dict(c, v) => KeyView::Cat(c, v.as_ref()),
            // `merge_impl` expands run-length keys before building views;
            // a borrowed view cannot own the expansion.
            Column::Rle(_) => unreachable!("RLE keys are decoded before view construction"),
        }
    }

    fn class(&self) -> KeyClass {
        match self {
            KeyView::Int(..) => KeyClass::Int,
            KeyView::Dt(..) => KeyClass::Dt,
            KeyView::Float(..) => KeyClass::Float,
            KeyView::Bool(..) => KeyClass::Bool,
            KeyView::Utf8(..) | KeyView::Cat(..) => KeyClass::Str,
        }
    }

    #[inline]
    fn is_null(&self, i: usize) -> bool {
        let masked = |m: &Option<&Bitmap>| m.is_some_and(|m| !m.get(i));
        match self {
            KeyView::Float(d, m) => d[i].is_nan() || masked(m),
            KeyView::Int(_, m)
            | KeyView::Dt(_, m)
            | KeyView::Bool(_, m)
            | KeyView::Utf8(_, m)
            | KeyView::Cat(_, m) => masked(m),
        }
    }

    /// String-class cell rendering: nulls render `"NaN"` (the canonical
    /// semantics the seed's key strings had).
    #[inline]
    fn str_at(&self, i: usize) -> &str {
        if self.is_null(i) {
            return "NaN";
        }
        match self {
            KeyView::Utf8(d, _) => d.get(i),
            KeyView::Cat(c, _) => c.dict.get(c.codes[i] as usize),
            _ => unreachable!("str_at on non-string key view"),
        }
    }

    /// Mix the per-row hash contribution of rows
    /// `offset .. offset + hashes.len()` into `hashes` (slot `j`
    /// accumulates row `offset + j`), matching [`Column::hash_into`]'s
    /// scheme — except string-class nulls, which hash as the rendered
    /// `"NaN"` so they land in the same bucket as a literal `"NaN"` value
    /// (which canonical equality equates them with). The range form lets
    /// parallel workers fill disjoint sub-slices of one hash array.
    fn hash_range_into(&self, offset: usize, hashes: &mut [u64]) {
        let len = hashes.len();
        let mut mix = |j: usize, v: u64| {
            let h = &mut hashes[j];
            *h = (*h ^ v).wrapping_mul(HASH_PRIME);
        };
        match self {
            KeyView::Int(d, _) | KeyView::Dt(d, _) => {
                for (j, &x) in d[offset..offset + len].iter().enumerate() {
                    mix(j, if self.is_null(offset + j) { u64::MAX } else { x as u64 });
                }
            }
            KeyView::Float(d, _) => {
                for (j, &x) in d[offset..offset + len].iter().enumerate() {
                    mix(j, if self.is_null(offset + j) { u64::MAX } else { x.to_bits() });
                }
            }
            KeyView::Bool(d, _) => {
                for j in 0..len {
                    let i = offset + j;
                    mix(j, if self.is_null(i) { u64::MAX } else { d.get(i) as u64 });
                }
            }
            KeyView::Utf8(d, _) => {
                // Hash straight off the arena bytes.
                let nan = fnv1a(b"NaN");
                for j in 0..len {
                    let i = offset + j;
                    mix(j, if self.is_null(i) { nan } else { fnv1a(d.bytes_at(i)) });
                }
            }
            KeyView::Cat(c, _) => {
                // Hash each dictionary entry once, then look codes up.
                let nan = fnv1a(b"NaN");
                let dict_hashes: Vec<u64> =
                    (0..c.dict.len()).map(|d| fnv1a(c.dict.bytes_at(d))).collect();
                for (j, &code) in c.codes[offset..offset + len].iter().enumerate() {
                    let i = offset + j;
                    mix(j, if self.is_null(i) { nan } else { dict_hashes[code as usize] });
                }
            }
        }
    }
}

/// All key columns' row hashes, filled morsel-parallel when the side is
/// big enough to amortize the workers.
fn hash_rows(views: &[KeyView<'_>], rows: usize, pool: &WorkerPool) -> Vec<u64> {
    let mut hashes = vec![0u64; rows];
    if !pool.is_parallel() || rows < PAR_MIN_ROWS {
        for v in views {
            v.hash_range_into(0, &mut hashes);
        }
        return hashes;
    }
    let morsels = kernel_morsels(rows, pool.threads());
    let chunks = crate::pool::split_mut_chunks(&mut hashes, &morsels);
    pool.map(chunks, |_, (start, chunk)| {
        for v in views {
            v.hash_range_into(start, chunk);
        }
    });
    hashes
}

/// Canonical-rendering equality of row `i` of `a` and row `j` of `b`.
/// Caller guarantees `a.class() == b.class()`.
#[inline]
fn rows_equal(a: &KeyView<'_>, i: usize, b: &KeyView<'_>, j: usize) -> bool {
    match (a, b) {
        (KeyView::Int(ad, _), KeyView::Int(bd, _)) | (KeyView::Dt(ad, _), KeyView::Dt(bd, _)) => {
            match (a.is_null(i), b.is_null(j)) {
                (true, true) => true,
                (false, false) => ad[i] == bd[j],
                _ => false,
            }
        }
        (KeyView::Float(ad, _), KeyView::Float(bd, _)) => match (a.is_null(i), b.is_null(j)) {
            (true, true) => true,
            // Bit equality matches rendered equality (-0.0 and 0.0 render
            // differently, so the seed never joined them).
            (false, false) => ad[i].to_bits() == bd[j].to_bits(),
            _ => false,
        },
        (KeyView::Bool(ad, _), KeyView::Bool(bd, _)) => match (a.is_null(i), b.is_null(j)) {
            (true, true) => true,
            (false, false) => ad.get(i) == bd.get(j),
            _ => false,
        },
        // String class (Utf8 / Dict in any mix): rendered equality,
        // nulls rendering "NaN".
        _ => a.str_at(i) == b.str_at(j),
    }
}

/// Do the two sides' key columns pair up class-wise?
fn same_classes(a: &[KeyView<'_>], b: &[KeyView<'_>]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.class() == y.class())
}

// ---------------------------------------------------------------------------
// The hash table
// ---------------------------------------------------------------------------

/// One hash partition's build output: distinct keys (representative row
/// + hash) with their right-row lists in scan order.
struct BuildPartition {
    group_repr: Vec<u32>,
    group_hash: Vec<u64>,
    group_rows: Vec<Vec<u32>>,
}

/// Which build partition a row hash belongs to. Uses high hash bits so
/// it stays independent of the probe table's low-bit slot mask.
#[inline]
fn partition_of(h: u64, nparts: usize) -> usize {
    ((h >> 32) as usize) % nparts
}

/// Build the distinct-key groups of one hash partition: scan every right
/// row, keep the ones whose hash lands in partition `part`. Because all
/// rows of one key share a hash, a key's rows live wholly in one
/// partition and its row list stays in global scan order — which is what
/// keeps parallel build output identical to the sequential build.
fn build_partition(
    right_views: &[KeyView<'_>],
    right_hashes: &[u64],
    part: usize,
    nparts: usize,
) -> BuildPartition {
    let eq = |i: usize, j: usize| {
        right_views
            .iter()
            .zip(right_views)
            .all(|(a, b)| rows_equal(a, i, b, j))
    };
    let mut table = HashTable::default();
    let mut group_repr: Vec<u32> = Vec::new();
    let mut group_hash: Vec<u64> = Vec::new();
    let mut group_rows: Vec<Vec<u32>> = Vec::new();
    for (i, &h) in right_hashes.iter().enumerate() {
        if nparts > 1 && partition_of(h, nparts) != part {
            continue;
        }
        let bucket: &mut Vec<u32> = table.entry(h).or_default();
        match bucket
            .iter()
            .find(|&&g| eq(group_repr[g as usize] as usize, i))
        {
            Some(&g) => group_rows[g as usize].push(i as u32),
            None => {
                let g = group_repr.len() as u32;
                bucket.push(g);
                group_repr.push(i as u32);
                group_hash.push(h);
                group_rows.push(vec![i as u32]);
            }
        }
    }
    BuildPartition {
        group_repr,
        group_hash,
        group_rows,
    }
}

/// Typed hash join: build on the right side, probe with the left.
///
/// Build groups rows by *distinct key* (hash bucket + typed equality
/// against one representative row per key), so probing a duplicate-heavy
/// build side checks equality once per distinct key, not once per row.
/// With a parallel pool, the build is hash-partitioned across workers
/// and the probe runs over left-side morsels (see [`BuildSide::probe`]).
fn join_indices_typed<I: IndexLike + Send + Sync>(
    left_views: &[KeyView<'_>],
    left_rows: usize,
    right_views: &[KeyView<'_>],
    right_rows: usize,
    how: JoinKind,
    pool: &WorkerPool,
) -> (Vec<I>, Vec<I>, bool) {
    let eq = |av: &[KeyView<'_>], i: usize, bv: &[KeyView<'_>], j: usize| {
        av.iter().zip(bv).all(|(a, b)| rows_equal(a, i, b, j))
    };

    // Hash the build side (morsel-parallel when it is big enough), then
    // build its distinct-key groups — one hash partition per worker.
    let right_hashes = hash_rows(right_views, right_rows, pool);
    let nparts = if pool.is_parallel() && right_rows >= PAR_MIN_ROWS {
        pool.threads()
    } else {
        1
    };
    let parts: Vec<BuildPartition> = pool.map((0..nparts).collect(), |_, p| {
        build_partition(right_views, &right_hashes, p, nparts)
    });

    // Merge the partitions and flatten the per-group row lists into CSR
    // form (offsets + one flat row array) so each probe hit walks a
    // contiguous slice. A build side with unique keys — the common
    // dimension-table shape — takes a one-row fast path with no inner
    // loop at all.
    let n_groups: usize = parts.iter().map(|p| p.group_repr.len()).sum();
    let mut group_repr: Vec<u32> = Vec::with_capacity(n_groups);
    let mut group_hash: Vec<u64> = Vec::with_capacity(n_groups);
    let mut offsets: Vec<u32> = Vec::with_capacity(n_groups + 1);
    let mut flat_rows: Vec<u32> = Vec::with_capacity(right_rows);
    offsets.push(0);
    let mut all_unique = true;
    for p in &parts {
        group_repr.extend_from_slice(&p.group_repr);
        group_hash.extend_from_slice(&p.group_hash);
        for rows in &p.group_rows {
            all_unique &= rows.len() == 1;
            flat_rows.extend_from_slice(rows);
            offsets.push(flat_rows.len() as u32);
        }
    }

    // Re-bucket the distinct keys into a flat power-of-two linear-probe
    // table (hash, group) so each probe is an array walk instead of a
    // `HashMap` lookup with a bucket-`Vec` pointer chase. Hash-equal but
    // key-unequal groups sit in one probe cluster; the stored hash gives
    // a cheap reject before the column-wise equality runs.
    let cap = (group_repr.len() * 2).next_power_of_two().max(16);
    let mask = cap - 1;
    let mut slots: Vec<(u64, u32)> = vec![(0, u32::MAX); cap];
    for (g, &h) in group_hash.iter().enumerate() {
        let mut s = (h as usize) & mask;
        while slots[s].1 != u32::MAX {
            s = (s + 1) & mask;
        }
        slots[s] = (h, g as u32);
    }

    // Probe with the left side, preserving left row order. The probe
    // skeleton is generic over a per-row hash and a representative-row
    // equality, so the single-key arms below monomorphize into tight
    // loops that hash inline off the raw slice — no left-side hash array
    // is ever materialized for them.
    let build = BuildSide {
        slots: &slots,
        mask,
        group_repr: &group_repr,
        offsets: &offsets,
        flat_rows: &flat_rows,
        all_unique,
        how,
    };
    let mix1 = |v: u64| v.wrapping_mul(HASH_PRIME);
    // Dictionary keys on both sides: probe on u32 codes. Each left
    // dictionary entry is hashed once and remapped to its build-side
    // code once (the identity when the sides share one `Arc`), so the
    // per-row probe compares two u32s instead of arena bytes.
    if let ([KeyView::Cat(lc, None)], [KeyView::Cat(rc, None)]) = (left_views, right_views) {
        if let Some(remap) = dict_probe_remap(lc, rc) {
            let lhash: Vec<u64> = (0..lc.dict.len())
                .map(|e| mix1(fnv1a(lc.dict.bytes_at(e))))
                .collect();
            return build.probe(
                pool,
                left_rows,
                |i| lhash[lc.codes[i] as usize],
                |i, r| remap[lc.codes[i] as usize] == rc.codes[r],
            );
        }
    }
    match (left_views, right_views) {
        ([KeyView::Int(ld, None)], [KeyView::Int(rd, None)])
        | ([KeyView::Dt(ld, None)], [KeyView::Dt(rd, None)]) => build.probe(
            pool,
            left_rows,
            |i| mix1(ld[i] as u64),
            |i, r| ld[i] == rd[r],
        ),
        ([KeyView::Float(ld, None)], [KeyView::Float(rd, None)]) => build.probe(
            pool,
            left_rows,
            |i| {
                let x = ld[i];
                mix1(if x.is_nan() { u64::MAX } else { x.to_bits() })
            },
            |i, r| {
                let (a, b) = (ld[i], rd[r]);
                // NaN cells are nulls, and null keys match each other.
                (a.is_nan() && b.is_nan()) || a.to_bits() == b.to_bits()
            },
        ),
        ([KeyView::Utf8(ld, None)], [KeyView::Utf8(rd, None)]) => build.probe(
            pool,
            left_rows,
            |i| mix1(fnv1a(ld.bytes_at(i))),
            |i, r| ld.bytes_at(i) == rd.bytes_at(r),
        ),
        _ => {
            let left_hashes = hash_rows(left_views, left_rows, pool);
            build.probe(
                pool,
                left_rows,
                |i| left_hashes[i],
                |i, r| eq(left_views, i, right_views, r),
            )
        }
    }
}

/// The probe-side (left) code → build-side (right) code remap for the
/// dictionary join fast path, or `None` when the gate fails. Codes stand
/// in for string equality only when the build dictionary has no duplicate
/// entries (build groups key on *bytes*, so a duplicated entry's group
/// representative could carry either code); unmatched probe entries map
/// to `u32::MAX`, which no real build code equals. Shared-`Arc` sides
/// skip the byte lookups entirely.
fn dict_probe_remap(lc: &Categorical, rc: &Categorical) -> Option<Vec<u32>> {
    if std::sync::Arc::ptr_eq(&lc.dict, &rc.dict) {
        return Some((0..lc.dict.len() as u32).collect());
    }
    let mut index: HashMap<&[u8], u32> = HashMap::with_capacity(rc.dict.len());
    for e in 0..rc.dict.len() {
        if index.insert(rc.dict.bytes_at(e), e as u32).is_some() {
            return None;
        }
    }
    Some(
        (0..lc.dict.len())
            .map(|e| index.get(lc.dict.bytes_at(e)).copied().unwrap_or(u32::MAX))
            .collect(),
    )
}

/// The built (right) side of a typed join, ready to probe: a flat
/// linear-probe table over the distinct keys plus CSR row lists.
struct BuildSide<'t> {
    slots: &'t [(u64, u32)],
    mask: usize,
    group_repr: &'t [u32],
    offsets: &'t [u32],
    flat_rows: &'t [u32],
    all_unique: bool,
    how: JoinKind,
}

impl BuildSide<'_> {
    /// Probe every left row in order; `hash_of` yields the row's key hash
    /// and `eq_repr(i, r)` compares left row `i` against representative
    /// right row `r`. Monomorphizes per caller. With a parallel pool and
    /// a big enough probe side, left-row morsels probe concurrently and
    /// their output runs are stitched back in morsel order — the
    /// concatenation is exactly the sequential probe's output.
    fn probe<I: IndexLike + Send + Sync>(
        &self,
        pool: &WorkerPool,
        left_rows: usize,
        hash_of: impl Fn(usize) -> u64 + Sync,
        eq_repr: impl Fn(usize, usize) -> bool + Sync,
    ) -> (Vec<I>, Vec<I>, bool) {
        if !pool.is_parallel() || left_rows < PAR_MIN_ROWS {
            return self.probe_range(0, left_rows, &hash_of, &eq_repr);
        }
        let morsels = kernel_morsels(left_rows, pool.threads());
        let runs: Vec<(Vec<I>, Vec<I>, bool)> = pool.map(morsels, |_, (start, len)| {
            self.probe_range(start, start + len, &hash_of, &eq_repr)
        });
        let total: usize = runs.iter().map(|(l, _, _)| l.len()).sum();
        let mut left_idx: Vec<I> = Vec::with_capacity(total);
        let mut right_idx: Vec<I> = Vec::with_capacity(total);
        let mut any_miss = false;
        for (l, r, miss) in runs {
            left_idx.extend_from_slice(&l);
            right_idx.extend_from_slice(&r);
            any_miss |= miss;
        }
        (left_idx, right_idx, any_miss)
    }

    /// Probe rows `start..end` of the left side in order.
    fn probe_range<I: IndexLike>(
        &self,
        start: usize,
        end: usize,
        hash_of: &impl Fn(usize) -> u64,
        eq_repr: &impl Fn(usize, usize) -> bool,
    ) -> (Vec<I>, Vec<I>, bool) {
        let mut left_idx: Vec<I> = Vec::with_capacity(end - start);
        let mut right_idx: Vec<I> = Vec::with_capacity(end - start);
        let mut any_miss = false;
        for i in start..end {
            let h = hash_of(i);
            let mut s = (h as usize) & self.mask;
            let hit = loop {
                let (sh, g) = self.slots[s];
                if g == u32::MAX {
                    break None;
                }
                if sh == h && eq_repr(i, self.group_repr[g as usize] as usize) {
                    break Some(g);
                }
                s = (s + 1) & self.mask;
            };
            match hit {
                Some(g) => {
                    if self.all_unique {
                        left_idx.push(I::from_usize(i));
                        right_idx.push(I::from_usize(self.group_repr[g as usize] as usize));
                    } else {
                        let (lo, hi) =
                            (self.offsets[g as usize] as usize, self.offsets[g as usize + 1] as usize);
                        for &j in &self.flat_rows[lo..hi] {
                            left_idx.push(I::from_usize(i));
                            right_idx.push(I::from_usize(j as usize));
                        }
                    }
                }
                None => {
                    if self.how == JoinKind::Left {
                        left_idx.push(I::from_usize(i));
                        right_idx.push(I::SENTINEL);
                        any_miss = true;
                    }
                }
            }
        }
        (left_idx, right_idx, any_miss)
    }
}

/// The seed join for degenerate cross-dtype keys: canonical per-row key
/// strings on both sides (`Int(1)` joins `Str("1")`, exactly as before).
fn join_indices_canonical<I: IndexLike>(
    left: &DataFrame,
    right: &DataFrame,
    on: &[String],
    how: JoinKind,
) -> Result<(Vec<I>, Vec<I>, bool)> {
    let right_keys = key_strings(right, on)?;
    let mut build: HashMap<&str, Vec<usize>> = HashMap::new();
    for (i, k) in right_keys.iter().enumerate() {
        build.entry(k.as_str()).or_default().push(i);
    }
    let left_keys = key_strings(left, on)?;
    let mut left_idx: Vec<I> = Vec::new();
    let mut right_idx: Vec<I> = Vec::new();
    let mut any_miss = false;
    for (i, k) in left_keys.iter().enumerate() {
        match build.get(k.as_str()) {
            Some(matches) => {
                for &j in matches {
                    left_idx.push(I::from_usize(i));
                    right_idx.push(I::from_usize(j));
                }
            }
            None => {
                if how == JoinKind::Left {
                    left_idx.push(I::from_usize(i));
                    right_idx.push(I::SENTINEL);
                    any_miss = true;
                }
            }
        }
    }
    Ok((left_idx, right_idx, any_miss))
}

/// Canonical per-row key strings for the join columns.
fn key_strings(frame: &DataFrame, on: &[String]) -> Result<Vec<String>> {
    let cols: Vec<&Series> = on
        .iter()
        .map(|k| frame.column(k))
        .collect::<Result<Vec<_>>>()?;
    Ok((0..frame.num_rows())
        .map(|i| {
            cols.iter()
                .map(|s| s.get(i).to_string())
                .collect::<Vec<_>>()
                .join("\u{1}")
        })
        .collect())
}

/// Gather with the index sentinel producing a null row (left-join
/// misses).
///
/// Typed: each dtype gathers straight off its raw buffer with null slots
/// normalized to the builder sentinels (0 / NaN / "" / false), so the
/// output is bit-identical to the old per-row `push_scalar` loop without
/// boxing a `Scalar` per cell. Callers with no misses use `Column::take`
/// instead.
fn gather_optional<I: IndexLike>(col: &Column, indices: &[I]) -> Column {
    let n = indices.len();
    // The caller saw at least one miss, so the output always carries a
    // validity mask (matching the builder's `has_null` behaviour).
    let mut validity = BitWriter::with_capacity(n);
    let valid_src = |i: usize| !col.is_null_at(i);
    match col {
        Column::Int64(data, _) => {
            let mut out = Vec::with_capacity(n);
            for &ix in indices {
                if !ix.is_sentinel() && valid_src(ix.idx()) {
                    out.push(data[ix.idx()]);
                    validity.append_bit(true);
                } else {
                    out.push(0);
                    validity.append_bit(false);
                }
            }
            Column::Int64(out, Some(validity.finish()))
        }
        Column::Datetime(data, _) => {
            let mut out = Vec::with_capacity(n);
            for &ix in indices {
                if !ix.is_sentinel() && valid_src(ix.idx()) {
                    out.push(data[ix.idx()]);
                    validity.append_bit(true);
                } else {
                    out.push(0);
                    validity.append_bit(false);
                }
            }
            Column::Datetime(out, Some(validity.finish()))
        }
        Column::Float64(data, _) => {
            let mut out = Vec::with_capacity(n);
            for &ix in indices {
                if !ix.is_sentinel() && valid_src(ix.idx()) {
                    out.push(data[ix.idx()]);
                    validity.append_bit(true);
                } else {
                    out.push(f64::NAN);
                    validity.append_bit(false);
                }
            }
            Column::Float64(out, Some(validity.finish()))
        }
        Column::Bool(data, _) => {
            let mut out = BitWriter::with_capacity(n);
            for &ix in indices {
                if !ix.is_sentinel() && valid_src(ix.idx()) {
                    out.append_bit(data.get(ix.idx()));
                    validity.append_bit(true);
                } else {
                    out.append_bit(false);
                    validity.append_bit(false);
                }
            }
            Column::Bool(out.finish(), Some(validity.finish()))
        }
        Column::Utf8(data, _) => {
            // Byte memcpy per hit row, empty range per miss — no shared
            // pointers, the output arena is compact.
            let mut out = Utf8Builder::with_capacity(n, n * data.avg_row_bytes());
            for &ix in indices {
                if !ix.is_sentinel() && valid_src(ix.idx()) {
                    out.push(data.get(ix.idx()));
                    validity.append_bit(true);
                } else {
                    out.push("");
                    validity.append_bit(false);
                }
            }
            Column::Utf8(out.finish(), Some(validity.finish()))
        }
        // Dictionary and run columns take the builder fallback (cold
        // path): `dtype()` routes a transparent Dict to a plain Utf8
        // output, a category to a fresh category, and Rle to its value
        // dtype.
        Column::Dict(..) | Column::Rle(_) => {
            let mut b = ColumnBuilder::new(col.dtype());
            for &ix in indices {
                if ix.is_sentinel() {
                    b.push_null();
                } else {
                    b.push_scalar(&col.get(ix.idx())).expect("same-dtype gather");
                }
            }
            b.finish()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::df;
    use crate::value::Scalar;

    fn ratings() -> DataFrame {
        df![
            ("movie_id", Column::from_i64(vec![1, 2, 1, 3])),
            ("rating", Column::from_f64(vec![4.0, 3.5, 5.0, 2.0])),
        ]
    }

    fn titles() -> DataFrame {
        df![
            ("movie_id", Column::from_i64(vec![1, 2, 4])),
            ("title", Column::from_strings(vec!["Heat", "Tron", "Solaris"])),
        ]
    }

    #[test]
    fn inner_join_matches_only() {
        let out = merge(&ratings(), &titles(), &["movie_id".into()], JoinKind::Inner).unwrap();
        assert_eq!(out.num_rows(), 3); // movie 3 has no title; movie 4 no rating
        assert_eq!(out.column_names(), vec!["movie_id", "rating", "title"]);
        assert_eq!(out.column("title").unwrap().get(0), Scalar::Str("Heat".into()));
        // left order preserved: rows for movie 1, 2, 1
        assert_eq!(out.column("movie_id").unwrap().get(2), Scalar::Int(1));
    }

    #[test]
    fn left_join_keeps_unmatched_with_nulls() {
        let out = merge(&ratings(), &titles(), &["movie_id".into()], JoinKind::Left).unwrap();
        assert_eq!(out.num_rows(), 4);
        assert!(out.column("title").unwrap().column().is_null_at(3));
    }

    #[test]
    fn one_to_many_duplicates_probe_rows() {
        let dup_titles = df![
            ("movie_id", Column::from_i64(vec![1, 1])),
            ("title", Column::from_strings(vec!["Heat", "Heat (1995)"])),
        ];
        let out = merge(&ratings(), &dup_titles, &["movie_id".into()], JoinKind::Inner).unwrap();
        // movie 1 appears twice on the left, twice on the right => 4 rows
        assert_eq!(out.num_rows(), 4);
    }

    #[test]
    fn overlapping_columns_get_suffixes() {
        let left = df![
            ("k", Column::from_i64(vec![1])),
            ("v", Column::from_i64(vec![10])),
        ];
        let right = df![
            ("k", Column::from_i64(vec![1])),
            ("v", Column::from_i64(vec![20])),
        ];
        let out = merge(&left, &right, &["k".into()], JoinKind::Inner).unwrap();
        assert_eq!(out.column_names(), vec!["k", "v_x", "v_y"]);
        assert_eq!(out.column("v_x").unwrap().get(0), Scalar::Int(10));
        assert_eq!(out.column("v_y").unwrap().get(0), Scalar::Int(20));
    }

    #[test]
    fn multi_key_join() {
        let left = df![
            ("a", Column::from_strings(vec!["x", "x"])),
            ("b", Column::from_i64(vec![1, 2])),
            ("v", Column::from_i64(vec![10, 20])),
        ];
        let right = df![
            ("a", Column::from_strings(vec!["x"])),
            ("b", Column::from_i64(vec![2])),
            ("w", Column::from_i64(vec![99])),
        ];
        let out = merge(&left, &right, &["a".into(), "b".into()], JoinKind::Inner).unwrap();
        assert_eq!(out.num_rows(), 1);
        assert_eq!(out.column("v").unwrap().get(0), Scalar::Int(20));
    }

    #[test]
    fn missing_key_errors() {
        assert!(merge(&ratings(), &titles(), &["nope".into()], JoinKind::Inner).is_err());
        assert!(merge(&ratings(), &titles(), &[], JoinKind::Inner).is_err());
    }

    #[test]
    fn join_kind_parse() {
        assert_eq!(JoinKind::parse("inner"), Some(JoinKind::Inner));
        assert_eq!(JoinKind::parse("left"), Some(JoinKind::Left));
        assert_eq!(JoinKind::parse("outer"), None);
        assert_eq!(JoinKind::Inner.name(), "inner");
    }

    #[test]
    fn null_keys_join_each_other() {
        // Canonical semantics: null keys render "NaN" and therefore match
        // other null keys (and a literal "NaN" string key).
        let left = df![
            ("k", Column::from_opt_i64(vec![Some(1), None, Some(2)])),
            ("v", Column::from_i64(vec![10, 20, 30])),
        ];
        let right = df![
            ("k", Column::from_opt_i64(vec![None, Some(2)])),
            ("w", Column::from_i64(vec![100, 200])),
        ];
        let out = merge(&left, &right, &["k".into()], JoinKind::Inner).unwrap();
        assert_eq!(out.num_rows(), 2);
        assert_eq!(out.column("v").unwrap().get(0), Scalar::Int(20));
        assert_eq!(out.column("w").unwrap().get(0), Scalar::Int(100));
        assert_eq!(out.column("w").unwrap().get(1), Scalar::Int(200));
    }

    #[test]
    fn null_string_key_equals_literal_nan() {
        let left = df![
            ("k", Column::from_opt_strings(vec![None, Some("x".into())])),
            ("v", Column::from_i64(vec![1, 2])),
        ];
        let right = df![
            ("k", Column::from_strings(vec!["NaN"])),
            ("w", Column::from_i64(vec![9])),
        ];
        let out = merge(&left, &right, &["k".into()], JoinKind::Inner).unwrap();
        assert_eq!(out.num_rows(), 1);
        assert_eq!(out.column("v").unwrap().get(0), Scalar::Int(1));
    }

    #[test]
    fn cross_dtype_keys_fall_back_to_canonical() {
        // Int 1 joins Str "1" under the seed's rendered-key semantics.
        let left = df![
            ("k", Column::from_i64(vec![1, 2])),
            ("v", Column::from_i64(vec![10, 20])),
        ];
        let right = df![
            ("k", Column::from_strings(vec!["1", "3"])),
            ("w", Column::from_i64(vec![100, 300])),
        ];
        let out = merge(&left, &right, &["k".into()], JoinKind::Left).unwrap();
        assert_eq!(out.num_rows(), 2);
        assert_eq!(out.column("w").unwrap().get(0), Scalar::Int(100));
        assert!(out.column("w").unwrap().column().is_null_at(1));
    }

    #[test]
    fn left_join_gathers_typed_nulls_for_every_dtype() {
        let left = df![("k", Column::from_i64(vec![1, 5, 2]))];
        let right = df![
            ("k", Column::from_i64(vec![1, 2])),
            ("i", Column::from_i64(vec![7, 8])),
            ("f", Column::from_f64(vec![0.5, 1.5])),
            ("s", Column::from_strings(vec!["a", "b"])),
            ("b", Column::from_bool(vec![true, false])),
            ("d", Column::from_datetimes(vec![111, 222])),
        ];
        let out = merge(&left, &right, &["k".into()], JoinKind::Left).unwrap();
        assert_eq!(out.num_rows(), 3);
        for c in ["i", "f", "s", "b", "d"] {
            let col = out.column(c).unwrap().column();
            assert!(col.is_null_at(1), "{c} miss row is null");
            assert!(!col.is_null_at(0), "{c} hit row is valid");
            assert!(!col.is_null_at(2), "{c} hit row is valid");
        }
        assert_eq!(out.column("s").unwrap().get(2), Scalar::Str("b".into()));
        assert_eq!(out.column("d").unwrap().get(2), Scalar::Datetime(222));
        assert_eq!(out.column("b").unwrap().get(0), Scalar::Bool(true));
    }

    #[test]
    fn float_keys_join_by_bits() {
        let left = df![
            ("k", Column::from_f64(vec![0.0, -0.0, 1.5])),
            ("v", Column::from_i64(vec![1, 2, 3])),
        ];
        let right = df![
            ("k", Column::from_f64(vec![0.0, 1.5])),
            ("w", Column::from_i64(vec![10, 30])),
        ];
        let out = merge(&left, &right, &["k".into()], JoinKind::Left).unwrap();
        // -0.0 renders "-0.0": no match under canonical-string semantics.
        assert_eq!(out.column("w").unwrap().get(0), Scalar::Int(10));
        assert!(out.column("w").unwrap().column().is_null_at(1));
        assert_eq!(out.column("w").unwrap().get(2), Scalar::Int(30));
    }
}
