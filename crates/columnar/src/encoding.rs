//! Encoding decisions and telemetry for compressed execution.
//!
//! PR 9 makes column encodings a first-class execution concept: strings
//! can live as [`Column::Dict`] (u32 codes over a shared dictionary) and
//! any scalar lane as [`Column::Rle`] (run values + run ends), and the
//! hot kernels consume both *without decompressing* — group-by keys hash
//! and compare codes, filters evaluate predicates once per run, sort
//! orders codes through a dictionary permutation, and spill writes the
//! compressed form. This module owns the two cross-cutting concerns:
//!
//! - **Decisions.** [`dict_encode_auto`] is the ingest-side heuristic the
//!   CSV readers apply to finished string columns: encode only when the
//!   column is big enough to matter, the cardinality is low, and the
//!   encoded representation is actually smaller. [`dict_encode`] and
//!   [`rle_encode`] are the unconditional constructors used by tests and
//!   benchmarks. `LAFP_NO_ENCODE=1` (checked per call, like
//!   `LAFP_NO_FUSE`) disables auto-encoding entirely so every pipeline
//!   can be exercised on plain columns.
//! - **Telemetry.** Process-wide counters record how many columns were
//!   encoded, how many bytes that saved, and — crucially for the
//!   acceptance tests — how many times a kernel fell back to
//!   [`Column::decode`] instead of running encoded. A low-cardinality
//!   query that stays on the fast paths must report **zero** decode
//!   fallbacks.
//!
//! ```
//! use lafp_columnar::column::Column;
//! use lafp_columnar::encoding;
//! let city = Column::from_strings(["NYC", "NYC", "LA", "NYC", "LA"]);
//! let dict = encoding::dict_encode(&city).expect("string column encodes");
//! assert_eq!(dict.decode(), city);
//! ```

use crate::bitmap::Bitmap;
use crate::column::{fnv1a, Categorical, Column, RleCol};
use crate::strings::{Utf8Builder, Utf8Col};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Columns shorter than this are never auto-encoded: the constant-factor
/// win can't pay for the dictionary build, and tiny test frames keep
/// their plain representation.
pub const DICT_MIN_ROWS: usize = 1024;

/// Hard cap on dictionary cardinality. Beyond this the column is not
/// "low-cardinality" in any useful sense, and the code-indexed group-by
/// fast path (which allocates one dense slot per dictionary entry)
/// stops being a win.
pub const DICT_MAX_CARDINALITY: usize = 65_536;

/// True unless `LAFP_NO_ENCODE=1` disables ingest-time auto-encoding.
/// Checked per call (same contract as the `LAFP_NO_FUSE` fusion gate) so
/// tests can flip it without rebuilding readers.
pub fn enabled() -> bool {
    !matches!(
        std::env::var("LAFP_NO_ENCODE").ok().as_deref(),
        Some("1") | Some("true")
    )
}

/// Cumulative encoding counters (process-wide; see [`global`]).
#[derive(Debug, Default)]
pub struct EncodingStats {
    dict_columns: AtomicU64,
    rle_columns: AtomicU64,
    decode_fallbacks: AtomicU64,
    bytes_saved: AtomicU64,
}

/// A point-in-time copy of the encoding counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EncodingSnapshot {
    /// String columns dictionary-encoded (at ingest or explicitly).
    pub dict_columns: u64,
    /// Columns run-length-encoded.
    pub rle_columns: u64,
    /// Times a kernel decoded an encoded column instead of running on
    /// it directly (the universal fallback). Zero for a query that
    /// stayed on the encoded fast paths end to end.
    pub decode_fallbacks: u64,
    /// Heap bytes saved by encoding (plain representation minus
    /// encoded representation, summed over encoded columns).
    pub bytes_saved: u64,
}

impl EncodingStats {
    /// Record one dictionary-encoded column that saved `bytes_saved`
    /// heap bytes versus its plain form.
    pub fn record_dict(&self, bytes_saved: u64) {
        self.dict_columns.fetch_add(1, Ordering::Relaxed);
        self.bytes_saved.fetch_add(bytes_saved, Ordering::Relaxed);
    }

    /// Record one run-length-encoded column that saved `bytes_saved`.
    pub fn record_rle(&self, bytes_saved: u64) {
        self.rle_columns.fetch_add(1, Ordering::Relaxed);
        self.bytes_saved.fetch_add(bytes_saved, Ordering::Relaxed);
    }

    /// Record one decode fallback taken by a kernel.
    pub fn record_decode_fallback(&self) {
        self.decode_fallbacks.fetch_add(1, Ordering::Relaxed);
    }

    /// Copy the current counter values.
    pub fn snapshot(&self) -> EncodingSnapshot {
        EncodingSnapshot {
            dict_columns: self.dict_columns.load(Ordering::Relaxed),
            rle_columns: self.rle_columns.load(Ordering::Relaxed),
            decode_fallbacks: self.decode_fallbacks.load(Ordering::Relaxed),
            bytes_saved: self.bytes_saved.load(Ordering::Relaxed),
        }
    }

    /// Zero every counter (between measured runs).
    pub fn reset(&self) {
        self.dict_columns.store(0, Ordering::Relaxed);
        self.rle_columns.store(0, Ordering::Relaxed);
        self.decode_fallbacks.store(0, Ordering::Relaxed);
        self.bytes_saved.store(0, Ordering::Relaxed);
    }
}

/// The process-wide encoding counters.
pub fn global() -> &'static EncodingStats {
    static GLOBAL: EncodingStats = EncodingStats {
        dict_columns: AtomicU64::new(0),
        rle_columns: AtomicU64::new(0),
        decode_fallbacks: AtomicU64::new(0),
        bytes_saved: AtomicU64::new(0),
    };
    &GLOBAL
}

/// Snapshot of the process-wide counters.
pub fn snapshot() -> EncodingSnapshot {
    global().snapshot()
}

/// Reset the process-wide counters.
pub fn reset() {
    global().reset()
}

/// Build the code vector + dictionary for a string column, entries in
/// first-appearance order — the one rows → dictionary routine, shared by
/// the ingest encoders and `Column::to_categorical`. With `Some(cap)` it
/// aborts (`None`) as soon as the distinct count exceeds `cap`; `None`
/// builds uncapped and always succeeds. Null rows are interned as `""`
/// so that `decode()` reproduces the normalized null-slot sentinel the
/// plain builders use; validity still marks them null.
pub(crate) fn build_dict(
    values: &Utf8Col,
    validity: Option<&Bitmap>,
    cap: Option<usize>,
) -> Option<(Vec<u32>, Utf8Col)> {
    let rows = values.len();
    let mut codes = Vec::with_capacity(rows);
    // Capped builds pre-size for the cap; an uncapped build grows with
    // the distinct count, so a small dictionary stays small.
    let mut builder = match cap {
        Some(cap) => Utf8Builder::with_capacity(cap.min(rows), 0),
        None => Utf8Builder::new(),
    };
    // fnv hash of entry bytes -> candidate codes (collision list).
    let mut index: HashMap<u64, Vec<u32>> = HashMap::new();
    // Entry bytes live in `values`' arena for valid rows; remember each
    // distinct entry's first row so candidates compare without copying
    // (u32::MAX marks the interned-"" entry for null rows).
    let mut first_row: Vec<u32> = Vec::new();
    for i in 0..rows {
        let valid = validity.map(|v| v.get(i)).unwrap_or(true);
        let bytes: &[u8] = if valid { values.bytes_at(i) } else { b"" };
        let h = fnv1a(bytes);
        let slot = index.entry(h).or_default();
        let mut code = u32::MAX;
        for &c in slot.iter() {
            let fr = first_row[c as usize] as usize;
            let existing: &[u8] = if fr == u32::MAX as usize {
                b""
            } else {
                values.bytes_at(fr)
            };
            if existing == bytes {
                code = c;
                break;
            }
        }
        if code == u32::MAX {
            if cap.is_some_and(|cap| builder.len() >= cap) {
                return None;
            }
            code = builder.len() as u32;
            // Safety of utf8: bytes come from a Utf8Col row (or are "").
            builder.push(if valid { values.get(i) } else { "" });
            first_row.push(if valid { i as u32 } else { u32::MAX });
            slot.push(code);
        }
        codes.push(code);
    }
    Some((codes, builder.finish()))
}

/// Dictionary-encode a string column unconditionally (subject only to
/// the [`DICT_MAX_CARDINALITY`] cap). Returns `None` for non-string
/// columns, columns that blow the cap, and already-encoded columns.
/// Does not consult [`enabled`] and does not touch the counters —
/// callers that represent real ingest decisions go through
/// [`dict_encode_auto`].
pub fn dict_encode(col: &Column) -> Option<Column> {
    let (values, validity) = match col {
        Column::Utf8(v, validity) => (v, validity.as_ref()),
        _ => return None,
    };
    let (codes, dict) = build_dict(values, validity, Some(DICT_MAX_CARDINALITY))?;
    Some(Column::Dict(
        Categorical {
            codes,
            dict: Arc::new(dict),
            category: false,
        },
        validity.cloned(),
    ))
}

/// The ingest-side heuristic: dictionary-encode `col` if it is a string
/// column of at least [`DICT_MIN_ROWS`] rows whose cardinality stays
/// under both [`DICT_MAX_CARDINALITY`] and a quarter of the row count,
/// and whose encoded form is strictly smaller than the plain arena.
/// Records the encode (and bytes saved) in the global counters.
/// Returns `None` when the column should stay plain — including always
/// when `LAFP_NO_ENCODE=1`.
pub fn dict_encode_auto(col: &Column) -> Option<Column> {
    if !enabled() {
        return None;
    }
    let (values, validity) = match col {
        Column::Utf8(v, validity) => (v, validity.as_ref()),
        _ => return None,
    };
    let rows = values.len();
    if rows < DICT_MIN_ROWS {
        return None;
    }
    let cap = DICT_MAX_CARDINALITY.min(rows / 4);
    let (codes, dict) = build_dict(values, validity, Some(cap))?;
    let plain_bytes = values.heap_bytes();
    let encoded_bytes = codes.len() * 4 + dict.heap_bytes();
    if encoded_bytes >= plain_bytes {
        return None;
    }
    global().record_dict((plain_bytes - encoded_bytes) as u64);
    Some(Column::Dict(
        Categorical {
            codes,
            dict: Arc::new(dict),
            category: false,
        },
        validity.cloned(),
    ))
}

/// Run-length-encode a column: one entry per maximal run of equal
/// values (null runs count as equal-null). Works for any scalar lane —
/// ints, floats, bools, datetimes, even dictionary codes. Returns
/// `None` for columns that are already encoded, for empty columns, and
/// for columns where RLE would not shrink the representation (more than
/// half the rows start a new run). Does not touch the counters; use
/// [`rle_encode_auto`] for ingest decisions.
pub fn rle_encode(col: &Column) -> Option<Column> {
    if col.is_encoded() {
        return None;
    }
    let rows = col.len();
    if rows == 0 || rows > u32::MAX as usize {
        return None;
    }
    // Find run boundaries by comparing adjacent rows logically (null
    // runs group together; for floats NaN is null so NaN runs group).
    let mut ends: Vec<u32> = Vec::new();
    let mut starts: Vec<usize> = vec![0];
    for i in 1..rows {
        let an = col.is_null_at(i - 1);
        let bn = col.is_null_at(i);
        let same = match (an, bn) {
            (true, true) => true,
            (false, false) => col.get(i - 1) == col.get(i),
            _ => false,
        };
        if !same {
            ends.push(i as u32);
            starts.push(i);
        }
    }
    ends.push(rows as u32);
    if starts.len() * 2 > rows {
        return None;
    }
    let values = col.take(&starts).ok()?;
    Some(Column::Rle(RleCol {
        values: Box::new(values),
        ends,
    }))
}

/// [`rle_encode`] behind the [`enabled`] gate, recording bytes saved in
/// the global counters when the encode happens.
pub fn rle_encode_auto(col: &Column) -> Option<Column> {
    if !enabled() {
        return None;
    }
    let encoded = rle_encode(col)?;
    let plain = crate::HeapSize::heap_size(col) as u64;
    let packed = crate::HeapSize::heap_size(&encoded) as u64;
    global().record_rle(plain.saturating_sub(packed));
    Some(encoded)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::Column;

    #[test]
    fn counters_accumulate_and_reset() {
        let stats = EncodingStats::default();
        stats.record_dict(100);
        stats.record_rle(50);
        stats.record_decode_fallback();
        assert_eq!(
            stats.snapshot(),
            EncodingSnapshot {
                dict_columns: 1,
                rle_columns: 1,
                decode_fallbacks: 1,
                bytes_saved: 150,
            }
        );
        stats.reset();
        assert_eq!(stats.snapshot(), EncodingSnapshot::default());
    }

    #[test]
    fn dict_encode_round_trips() {
        let vals: Vec<String> = (0..2000).map(|i| format!("city{}", i % 7)).collect();
        let col = Column::from_strings(&vals);
        let enc = dict_encode(&col).expect("encodes");
        match &enc {
            Column::Dict(c, v) => {
                assert_eq!(c.dict.len(), 7);
                assert_eq!(c.codes.len(), 2000);
                assert!(v.is_none());
            }
            other => panic!("expected Dict, got {other:?}"),
        }
        assert_eq!(enc.decode(), col);
    }

    #[test]
    fn dict_encode_auto_respects_thresholds() {
        // Too small.
        let small = Column::from_strings(["a", "b", "a"]);
        assert!(dict_encode_auto(&small).is_none());
        // High cardinality: every value distinct.
        let vals: Vec<String> = (0..2000).map(|i| format!("unique-{i}")).collect();
        assert!(dict_encode_auto(&Column::from_strings(&vals)).is_none());
        // Low cardinality and big enough: encodes.
        let vals: Vec<String> = (0..2000).map(|i| format!("city-{}", i % 5)).collect();
        let col = Column::from_strings(&vals);
        let enc = dict_encode_auto(&col).expect("auto-encodes");
        assert_eq!(enc.decode(), col);
    }

    #[test]
    fn dict_encode_handles_nulls_as_empty_sentinel() {
        let col = Column::from_opt_strings(vec![
            Some("x".to_string()),
            None,
            Some("x".to_string()),
            None,
            Some("y".to_string()),
        ]);
        let enc = dict_encode(&col).expect("encodes");
        assert!(enc.is_null_at(1) && enc.is_null_at(3));
        assert_eq!(enc.decode(), col);
    }

    #[test]
    fn rle_encode_round_trips_and_rejects_noise() {
        let clustered: Vec<i64> = (0..1000).map(|i| (i / 100) as i64).collect();
        let col = Column::from_i64(clustered);
        let enc = rle_encode(&col).expect("clustered data encodes");
        match &enc {
            Column::Rle(r) => assert_eq!(r.ends.len(), 10),
            other => panic!("expected Rle, got {other:?}"),
        }
        assert_eq!(enc.decode(), col);
        // Alternating values: every row a new run, no win.
        let noisy = Column::from_i64((0..100).map(|i| i % 2).collect());
        assert!(rle_encode(&noisy).is_none());
    }

    #[test]
    fn rle_encode_groups_null_runs() {
        let col = Column::from_opt_i64(vec![
            Some(1),
            Some(1),
            None,
            None,
            None,
            Some(2),
            Some(2),
            Some(2),
        ]);
        let enc = rle_encode(&col).expect("encodes");
        match &enc {
            Column::Rle(r) => assert_eq!(r.ends, vec![2, 5, 8]),
            other => panic!("expected Rle, got {other:?}"),
        }
        assert_eq!(enc.decode(), col);
    }

    #[test]
    fn no_encode_env_disables_auto() {
        // Serialized via the env-var guard in csv tests; here we only
        // check the pure predicate logic by restoring the prior value.
        let prior = std::env::var("LAFP_NO_ENCODE").ok();
        std::env::set_var("LAFP_NO_ENCODE", "1");
        assert!(!enabled());
        let vals: Vec<String> = (0..2000).map(|i| format!("c{}", i % 3)).collect();
        assert!(dict_encode_auto(&Column::from_strings(&vals)).is_none());
        match prior {
            Some(v) => std::env::set_var("LAFP_NO_ENCODE", v),
            None => std::env::remove_var("LAFP_NO_ENCODE"),
        }
        assert!(enabled() || std::env::var("LAFP_NO_ENCODE").is_ok());
    }
}
