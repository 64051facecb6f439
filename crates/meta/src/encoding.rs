//! Process-wide column-encoding telemetry.
//!
//! The counters themselves live in `lafp-columnar`
//! (`lafp_columnar::encoding`) because the encode decisions and the
//! decode fallbacks both happen inside the kernel crate, below this one
//! in the dependency graph. This module re-exports them alongside the
//! other MetaStore telemetry surfaces ([`crate::spill`],
//! [`crate::fusion`], [`crate::faults`]) so instrumentation consumers —
//! benchmarks, regression tests, a future query service — have one
//! crate to import.
//!
//! Three counters matter for encoded execution health:
//!
//! - `dict_columns` / `rle_columns`: how many columns the decision
//!   layer actually encoded (ingest auto-detection plus explicit
//!   `dict_encode` / `rle_encode` calls).
//! - `decode_fallbacks`: how many times a kernel could not operate on
//!   the encoded form and expanded a column back to its plain
//!   representation. A low-cardinality pipeline that stays on the
//!   fast-pathed operators should report **zero** — the e2e test in
//!   `tests/encoding_e2e.rs` pins that invariant.
//! - `bytes_saved`: heap bytes the encoded form avoided relative to
//!   the plain column at encode time.
//!
//! Counters are process-global atomics; `reset()` zeroes them between
//! measurement windows. `LAFP_NO_ENCODE=1` clears
//! `lafp_columnar::ExecConfig::encode`, so the CSV readers skip the
//! decision layer and the ingest counters stay at zero.

pub use lafp_columnar::encoding::{global, reset, snapshot, EncodingSnapshot, EncodingStats};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn facade_reaches_global_counters() {
        reset();
        global().record_dict(128);
        global().record_decode_fallback();
        let snap = snapshot();
        assert_eq!(snap.dict_columns, 1);
        assert_eq!(snap.decode_fallbacks, 1);
        assert_eq!(snap.bytes_saved, 128);
        reset();
        assert_eq!(snapshot().dict_columns, 0);
    }
}
