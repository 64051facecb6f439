//! The simulated memory budget.
//!
//! The paper runs on a 32 GB machine and reports which programs run out of
//! memory per backend and dataset size (Figure 12), plus peak memory
//! consumption (Figure 15). We reproduce both with an explicit tracker:
//! every materialized frame (and transient working set) is *charged*
//! against a budget; exceeding it raises `ColumnarError::OutOfMemory`
//! instead of letting the OS kill the process. Datasets and budget are
//! scaled 1:100, which preserves the working-set-to-budget ratios that
//! decide success or failure.

use lafp_columnar::faults::{FaultSite, Faults};
use lafp_columnar::{ColumnarError, ExecConfig, Result};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Tracks simulated memory usage against a budget and records the peak.
#[derive(Debug)]
pub struct MemoryTracker {
    current: AtomicUsize,
    peak: AtomicUsize,
    budget: usize,
    /// The `alloc` injection plan.
    faults: Faults,
}

impl MemoryTracker {
    /// A tracker with the given budget in bytes, under the process
    /// configuration's fault plan ([`ExecConfig::from_env`]).
    pub fn with_budget(budget: usize) -> Arc<MemoryTracker> {
        Self::with_config(budget, &ExecConfig::from_env())
    }

    /// A tracker with the given budget in bytes and `config`'s fault plan.
    pub fn with_config(budget: usize, config: &ExecConfig) -> Arc<MemoryTracker> {
        Arc::new(MemoryTracker {
            current: AtomicUsize::new(0),
            peak: AtomicUsize::new(0),
            budget,
            faults: config.faults.clone(),
        })
    }

    /// A tracker that never refuses (still records the peak).
    pub fn unlimited() -> Arc<MemoryTracker> {
        Self::with_budget(usize::MAX)
    }

    /// The configured budget.
    pub fn budget(&self) -> usize {
        self.budget
    }

    /// Bytes currently charged.
    pub fn current(&self) -> usize {
        self.current.load(Ordering::Relaxed)
    }

    /// High-water mark since construction (or the last [`reset_peak`]).
    ///
    /// [`reset_peak`]: MemoryTracker::reset_peak
    pub fn peak(&self) -> usize {
        self.peak.load(Ordering::Relaxed)
    }

    /// Reset the high-water mark to the current usage.
    pub fn reset_peak(&self) {
        self.peak.store(self.current(), Ordering::Relaxed);
    }

    /// Charge `bytes`, failing with `OutOfMemory` if the budget would be
    /// exceeded. Returns an RAII reservation that releases on drop.
    pub fn charge(self: &Arc<Self>, bytes: usize) -> Result<MemoryReservation> {
        // Fault injection: the `alloc` site denies an otherwise-fitting
        // charge, exercising the same degraded path as a genuine budget
        // overflow (spill, or a clean OutOfMemory error).
        if self.faults.fire(FaultSite::Alloc).is_some() {
            return Err(ColumnarError::OutOfMemory {
                requested: bytes,
                available: self.budget.saturating_sub(self.current()),
            });
        }
        let mut cur = self.current.load(Ordering::Relaxed);
        loop {
            let next = cur.saturating_add(bytes);
            if next > self.budget {
                return Err(ColumnarError::OutOfMemory {
                    requested: bytes,
                    available: self.budget.saturating_sub(cur),
                });
            }
            match self.current.compare_exchange_weak(
                cur,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => {
                    self.peak.fetch_max(next, Ordering::Relaxed);
                    return Ok(MemoryReservation {
                        tracker: Arc::clone(self),
                        bytes,
                    });
                }
                Err(actual) => cur = actual,
            }
        }
    }

    fn release(&self, bytes: usize) {
        self.current.fetch_sub(bytes, Ordering::Relaxed);
    }
}

/// RAII guard for charged bytes; dropping it releases the charge.
#[derive(Debug)]
pub struct MemoryReservation {
    tracker: Arc<MemoryTracker>,
    bytes: usize,
}

impl MemoryReservation {
    /// An empty reservation against `tracker` (charges nothing).
    pub fn empty(tracker: &Arc<MemoryTracker>) -> MemoryReservation {
        MemoryReservation {
            tracker: Arc::clone(tracker),
            bytes: 0,
        }
    }

    /// Bytes held by this reservation.
    pub fn bytes(&self) -> usize {
        self.bytes
    }

    /// Grow the reservation by `extra` bytes (used by streaming
    /// accumulators whose state grows as partitions arrive).
    pub fn grow(&mut self, extra: usize) -> Result<()> {
        let more = self.tracker.charge(extra)?;
        self.bytes += more.bytes;
        std::mem::forget(more);
        Ok(())
    }

    /// Give back part of the reservation (used when a buffered partition
    /// is spilled to disk: its bytes leave the simulated working set but
    /// the rest of the buffer stays charged). Clamped to the held amount.
    pub fn shrink(&mut self, bytes: usize) {
        let freed = bytes.min(self.bytes);
        self.tracker.release(freed);
        self.bytes -= freed;
    }
}

impl Drop for MemoryReservation {
    fn drop(&mut self) {
        self.tracker.release(self.bytes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charge_and_release_via_drop() {
        let t = MemoryTracker::with_budget(100);
        let r = t.charge(60).unwrap();
        assert_eq!(t.current(), 60);
        assert_eq!(t.peak(), 60);
        drop(r);
        assert_eq!(t.current(), 0);
        assert_eq!(t.peak(), 60, "peak survives release");
    }

    #[test]
    fn budget_enforced() {
        let t = MemoryTracker::with_budget(100);
        let _r = t.charge(80).unwrap();
        let err = t.charge(30).unwrap_err();
        match err {
            ColumnarError::OutOfMemory {
                requested,
                available,
            } => {
                assert_eq!(requested, 30);
                assert_eq!(available, 20);
            }
            other => panic!("unexpected error {other:?}"),
        }
        // After the failure, a smaller charge still fits.
        assert!(t.charge(20).is_ok());
    }

    #[test]
    fn grow_extends_reservation() {
        let t = MemoryTracker::with_budget(100);
        let mut r = t.charge(10).unwrap();
        r.grow(50).unwrap();
        assert_eq!(t.current(), 60);
        assert_eq!(r.bytes(), 60);
        assert!(r.grow(100).is_err());
        drop(r);
        assert_eq!(t.current(), 0);
    }

    #[test]
    fn shrink_releases_partially_and_clamps() {
        let t = MemoryTracker::with_budget(100);
        let mut r = t.charge(80).unwrap();
        r.shrink(30);
        assert_eq!(t.current(), 50);
        assert_eq!(r.bytes(), 50);
        // Shrinking past the held amount clamps instead of underflowing.
        r.shrink(1000);
        assert_eq!(t.current(), 0);
        assert_eq!(r.bytes(), 0);
        drop(r);
        assert_eq!(t.current(), 0);
    }

    #[test]
    fn peak_tracks_high_water_mark() {
        let t = MemoryTracker::unlimited();
        let a = t.charge(100).unwrap();
        drop(a);
        let _b = t.charge(40).unwrap();
        assert_eq!(t.peak(), 100);
        t.reset_peak();
        assert_eq!(t.peak(), 40);
    }

    #[test]
    fn shared_dictionary_charged_once_across_chunks() {
        use lafp_columnar::{encoding, Column, HeapSize};

        // 4096 rows over 8 long distinct entries: with per-chunk double
        // counting the dictionary bytes would dominate the charge.
        let vals: Vec<String> = (0..4096)
            .map(|i| format!("category-with-a-deliberately-long-name-{}", i % 8))
            .collect();
        let encoded = encoding::dict_encode(&Column::from_strings(&vals)).expect("encodes");
        let dict_bytes = match &encoded {
            Column::Dict(c, _) => c.dict.heap_size(),
            other => panic!("expected Dict, got {other:?}"),
        };
        let whole = encoded.heap_size();

        // Chunk the column the way the Dask engine partitions frames:
        // eight slices, all holding the same `Arc`'d dictionary.
        let chunks: Vec<Column> = (0..8).map(|k| encoded.slice(k * 512, 512)).collect();
        let summed: usize = chunks.iter().map(HeapSize::heap_size).sum();

        // The dictionary must be amortized across its holders, not
        // charged per chunk: the chunked total stays within one extra
        // dictionary of the unchunked column instead of ballooning by
        // eight dictionaries.
        assert!(
            summed <= whole + dict_bytes,
            "shared dict double-counted: chunks={summed} whole={whole} dict={dict_bytes}"
        );

        // And a budget sized for single-counting admits every chunk at
        // once — the regression (full dict charged per chunk) overflows.
        let tracker = MemoryTracker::with_budget(whole + dict_bytes);
        let reservations: Vec<MemoryReservation> = chunks
            .iter()
            .map(|c| tracker.charge(c.heap_size()).expect("chunk fits budget"))
            .collect();
        assert!(tracker.current() <= tracker.budget());
        drop(reservations);
        assert_eq!(tracker.current(), 0);
    }

    #[test]
    fn concurrent_charges_stay_within_budget() {
        let t = MemoryTracker::with_budget(1000);
        std::thread::scope(|s| {
            for _ in 0..8 {
                let t = Arc::clone(&t);
                s.spawn(move || {
                    for _ in 0..100 {
                        if let Ok(r) = t.charge(10) {
                            assert!(t.current() <= 1000);
                            drop(r);
                        }
                    }
                });
            }
        });
        assert_eq!(t.current(), 0);
    }
}
