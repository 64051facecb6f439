//! Deterministic fault injection — the executor's chaos harness.
//!
//! A production engine must treat failure as data: a panicking morsel, a
//! full spill disk, or a corrupt spill file should fail *one query* with
//! a structured [`ColumnarError`], never the process. This module is how
//! that property gets tested: a seeded plan of **injection points**
//! fires synthetic faults at the executor's I/O and execution boundaries
//! so the recovery paths (pool panic isolation, spill retry/fallback,
//! pipeline hang-up cascades) run constantly under test instead of only
//! on the day the disk actually fills up.
//!
//! ## Configuration
//!
//! A plan is part of the engine configuration: [`ExecConfig::from_env`]
//! parses the `LAFP_FAULTS` environment variable — a comma-separated
//! list of `site:probability` pairs plus an optional `seed`:
//!
//! ```text
//! LAFP_FAULTS=spill_write:0.05,worker_panic:0.01,seed=42
//! ```
//!
//! or a test builds one with [`FaultPlan`] and puts `Faults::new(plan)`
//! in the [`ExecConfig`] it passes to the owners under test. Every owner
//! of an injection site holds a [`Faults`] handle: plans never leak
//! between owners built from different configs.
//!
//! [`ExecConfig`]: crate::ExecConfig
//! [`ExecConfig::from_env`]: crate::ExecConfig::from_env
//!
//! Sites and their default fault shapes:
//!
//! | key              | fires at                         | shape                          |
//! |------------------|----------------------------------|--------------------------------|
//! | `spill_write`    | spill-file create/write/flush    | transient I/O error / ENOSPC   |
//! | `spill_read`     | spill-file open/frame read       | transient I/O error / short read |
//! | `csv_read`       | CSV open / chunk parse           | transient I/O error            |
//! | `worker_panic`   | morsel execution (pool + driver) | worker panic                   |
//! | `pipeline_stage` | pipeline stage startup           | stage panic                    |
//! | `alloc`          | memory-tracker charges           | allocation-budget denial       |
//!
//! ## Determinism
//!
//! Every decision is a pure function of `(seed, site, draw-index)` — a
//! per-site atomic counter of the handle indexes draws, and a splitmix64 hash of the
//! triple is compared against the site's probability threshold. Two runs
//! with the same seed and the same per-site draw counts fire the same
//! *number* of faults at each site regardless of thread interleaving,
//! and a single-threaded replay fires exactly the same draws.
//!
//! Retries redraw: a retried spill write consults the plan again
//! with the next draw index, so injected faults are *transient* by
//! construction and the retry/fallback machinery genuinely recovers.
//! Recovery is counted ([`FaultSnapshot::retries_recovered`],
//! [`FaultSnapshot::dir_fallbacks`]) so tests can assert the recovery
//! path actually ran rather than the fault never firing.
//!
//! ## Overhead
//!
//! When a site's probability is zero (always, in production) its hook
//! is a single load returning `None` — the bench suite pins that the
//! hooks add no measurable cost to the kernel ratios.

use crate::error::{ColumnarError, Result};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Number of injection sites (array-indexed by [`FaultSite`]).
pub const N_SITES: usize = 6;

/// Where a synthetic fault can fire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultSite {
    /// Spill-file create / frame write / flush.
    SpillWrite,
    /// Spill-file open / frame read.
    SpillRead,
    /// CSV open / chunk read.
    CsvRead,
    /// Morsel execution — pool worker claims and the driver's per-morsel
    /// operator work (env key `worker_panic`).
    MorselExecute,
    /// Pipeline stage startup (producer / middle stage threads).
    PipelineStage,
    /// Memory-tracker charge (allocation-budget denial).
    Alloc,
}

impl FaultSite {
    /// All sites, index-aligned with the per-site arrays.
    pub const ALL: [FaultSite; N_SITES] = [
        FaultSite::SpillWrite,
        FaultSite::SpillRead,
        FaultSite::CsvRead,
        FaultSite::MorselExecute,
        FaultSite::PipelineStage,
        FaultSite::Alloc,
    ];

    /// The site's `LAFP_FAULTS` key.
    pub fn key(self) -> &'static str {
        match self {
            FaultSite::SpillWrite => "spill_write",
            FaultSite::SpillRead => "spill_read",
            FaultSite::CsvRead => "csv_read",
            FaultSite::MorselExecute => "worker_panic",
            FaultSite::PipelineStage => "pipeline_stage",
            FaultSite::Alloc => "alloc",
        }
    }

    fn index(self) -> usize {
        match self {
            FaultSite::SpillWrite => 0,
            FaultSite::SpillRead => 1,
            FaultSite::CsvRead => 2,
            FaultSite::MorselExecute => 3,
            FaultSite::PipelineStage => 4,
            FaultSite::Alloc => 5,
        }
    }
}

/// The shape of an injected fault, decided by the firing site.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultKind {
    /// A transient I/O failure (retryable).
    Io(String),
    /// Device-full (`ENOSPC`-shaped; retry on the same dir is futile but
    /// a fallback dir may succeed).
    Enospc,
    /// Short read / corrupt payload.
    Corrupt,
    /// Allocation-budget denial.
    Oom,
    /// A worker / stage panic.
    Panic(String),
}

/// A seeded set of per-site fire probabilities.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    seed: u64,
    /// Fire threshold per site in 1/2³² units (`0` = never).
    thresholds: [u64; N_SITES],
}

impl FaultPlan {
    /// An empty plan (nothing fires) with the given seed.
    pub fn new(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            thresholds: [0; N_SITES],
        }
    }

    /// Set a site's fire probability (clamped to `0..=1`).
    pub fn with(mut self, site: FaultSite, probability: f64) -> FaultPlan {
        let p = probability.clamp(0.0, 1.0);
        self.thresholds[site.index()] = (p * (1u64 << 32) as f64) as u64;
        self
    }

    /// The plan's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Parse the `LAFP_FAULTS` syntax
    /// (`site:prob,site:prob,...,seed=N`). Unknown keys are rejected so
    /// typos fail loudly instead of silently injecting nothing.
    pub fn parse(spec: &str) -> Result<FaultPlan> {
        let mut plan = FaultPlan::new(0);
        for part in spec.split(',') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            if let Some(seed) = part.strip_prefix("seed=") {
                plan.seed = seed.trim().parse::<u64>().map_err(|_| {
                    ColumnarError::InvalidArgument(format!("LAFP_FAULTS: bad seed {seed:?}"))
                })?;
                continue;
            }
            let (key, prob) = part.split_once(':').ok_or_else(|| {
                ColumnarError::InvalidArgument(format!(
                    "LAFP_FAULTS: expected site:probability, got {part:?}"
                ))
            })?;
            let site = FaultSite::ALL
                .iter()
                .find(|s| s.key() == key.trim())
                .copied()
                .ok_or_else(|| {
                    ColumnarError::InvalidArgument(format!(
                        "LAFP_FAULTS: unknown site {key:?}"
                    ))
                })?;
            let p = prob.trim().parse::<f64>().map_err(|_| {
                ColumnarError::InvalidArgument(format!(
                    "LAFP_FAULTS: bad probability {prob:?} for {key}"
                ))
            })?;
            plan = plan.with(site, p);
        }
        Ok(plan)
    }

    /// Does any site ever fire?
    pub fn is_armed(&self) -> bool {
        self.thresholds.iter().any(|&t| t > 0)
    }
}

/// A point-in-time copy of a [`Faults`] handle's counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultSnapshot {
    /// Faults fired per site (index-aligned with [`FaultSite::ALL`]).
    pub injected: [u64; N_SITES],
    /// Plan consultations per site.
    pub draws: [u64; N_SITES],
    /// Operations that failed at least once and then succeeded on retry
    /// (same spill dir).
    pub retries_recovered: u64,
    /// Spill writes that recovered by switching to a fallback dir.
    pub dir_fallbacks: u64,
    /// Worker / stage panics converted into structured errors.
    pub panics_isolated: u64,
}

impl FaultSnapshot {
    /// Total faults fired across every site.
    pub fn total_injected(&self) -> u64 {
        self.injected.iter().sum()
    }

    /// Faults fired at one site.
    pub fn injected_at(&self, site: FaultSite) -> u64 {
        self.injected[site.index()]
    }
}

/// A fault plan plus its draw and recovery counters: the handle each
/// owner of an injection site holds (the pool and its pipelines, a
/// spill dir, a memory tracker, CSV read options, the Dask engine).
/// Clones share the plan and the counters, so every owner built from
/// one [`ExecConfig`](crate::ExecConfig) draws from one sequence. The
/// default handle never fires.
#[derive(Debug, Clone, Default)]
pub struct Faults(Arc<FaultState>);

#[derive(Debug, Default)]
struct FaultState {
    plan: FaultPlan,
    injected: [AtomicU64; N_SITES],
    draws: [AtomicU64; N_SITES],
    retries_recovered: AtomicU64,
    dir_fallbacks: AtomicU64,
    panics_isolated: AtomicU64,
}

impl Faults {
    /// A handle firing `plan`, its counters at zero.
    pub fn new(plan: FaultPlan) -> Faults {
        Faults(Arc::new(FaultState {
            plan,
            ..FaultState::default()
        }))
    }

    /// The plan this handle fires.
    pub fn plan(&self) -> &FaultPlan {
        &self.0.plan
    }

    /// Copy the counters.
    pub fn snapshot(&self) -> FaultSnapshot {
        let load = |a: &[AtomicU64; N_SITES]| a.each_ref().map(|c| c.load(Ordering::Relaxed));
        FaultSnapshot {
            injected: load(&self.0.injected),
            draws: load(&self.0.draws),
            retries_recovered: self.0.retries_recovered.load(Ordering::Relaxed),
            dir_fallbacks: self.0.dir_fallbacks.load(Ordering::Relaxed),
            panics_isolated: self.0.panics_isolated.load(Ordering::Relaxed),
        }
    }

    /// Record an operation that failed and then succeeded on a same-dir
    /// retry (called by the spill recovery path).
    pub fn record_retry_recovered(&self) {
        self.0.retries_recovered.fetch_add(1, Ordering::Relaxed);
    }

    /// Record a spill write that recovered by switching to a fallback dir.
    pub fn record_dir_fallback(&self) {
        self.0.dir_fallbacks.fetch_add(1, Ordering::Relaxed);
    }

    /// Record a worker / stage panic converted into a structured
    /// [`ColumnarError::WorkerPanic`] (called by the pool, pipelines and
    /// engines — counts *real* panics too).
    pub fn record_panic_isolated(&self) {
        self.0.panics_isolated.fetch_add(1, Ordering::Relaxed);
    }

    /// Consult the plan at `site`. Returns the fault to simulate, or
    /// `None` (the overwhelmingly common case; one load when the site's
    /// probability is zero).
    pub fn fire(&self, site: FaultSite) -> Option<FaultKind> {
        let i = site.index();
        let threshold = self.0.plan.thresholds[i];
        if threshold == 0 {
            return None;
        }
        let draw = self.0.draws[i].fetch_add(1, Ordering::Relaxed);
        let h = splitmix64(self.0.plan.seed ^ splitmix64((i as u64) << 32 | draw));
        if (h >> 32) >= threshold {
            return None;
        }
        self.0.injected[i].fetch_add(1, Ordering::Relaxed);
        Some(match site {
            FaultSite::SpillWrite => {
                if h & 1 == 0 {
                    FaultKind::Io(format!("injected transient spill-write error (draw {draw})"))
                } else {
                    FaultKind::Enospc
                }
            }
            FaultSite::SpillRead => {
                if h & 1 == 0 {
                    FaultKind::Io(format!("injected transient spill-read error (draw {draw})"))
                } else {
                    FaultKind::Corrupt
                }
            }
            FaultSite::CsvRead => {
                FaultKind::Io(format!("injected transient csv-read error (draw {draw})"))
            }
            FaultSite::MorselExecute => {
                FaultKind::Panic(format!("injected worker panic (draw {draw})"))
            }
            FaultSite::PipelineStage => {
                FaultKind::Panic(format!("injected pipeline-stage panic (draw {draw})"))
            }
            FaultSite::Alloc => FaultKind::Oom,
        })
    }

    /// Hook for I/O layers: `Err(io::Error)` when a fault fires at `site`.
    pub fn inject_io(&self, site: FaultSite) -> std::io::Result<()> {
        match self.fire(site) {
            None => Ok(()),
            Some(FaultKind::Enospc) => Err(std::io::Error::new(
                std::io::ErrorKind::StorageFull,
                "injected ENOSPC (device full)",
            )),
            Some(FaultKind::Corrupt) => Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "injected short read (corrupt payload)",
            )),
            Some(FaultKind::Io(msg)) => Err(std::io::Error::other(msg)),
            Some(FaultKind::Oom) => Err(std::io::Error::other("injected allocation denial")),
            // Panic kinds never fire at I/O sites, but honor the contract.
            Some(FaultKind::Panic(msg)) => panic!("{msg}"),
        }
    }

    /// Hook for execution layers: panics on a `Panic` fault (the caller's
    /// `catch_unwind` boundary is what is under test), errors otherwise.
    pub fn inject(&self, site: FaultSite) -> Result<()> {
        match self.fire(site) {
            None => Ok(()),
            Some(FaultKind::Panic(msg)) => panic!("{msg}"),
            Some(FaultKind::Oom) => Err(ColumnarError::OutOfMemory {
                requested: 0,
                available: 0,
            }),
            Some(FaultKind::Enospc) => Err(ColumnarError::Io {
                kind: std::io::ErrorKind::StorageFull,
                message: "injected ENOSPC (device full)".into(),
            }),
            Some(FaultKind::Corrupt) => Err(ColumnarError::Io {
                kind: std::io::ErrorKind::UnexpectedEof,
                message: "injected short read (corrupt payload)".into(),
            }),
            Some(FaultKind::Io(msg)) => Err(ColumnarError::Io {
                kind: std::io::ErrorKind::Other,
                message: msg,
            }),
        }
    }
}

/// splitmix64 — a tiny strong mixer, the standard seed expander.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_full_spec() {
        let plan =
            FaultPlan::parse("spill_write:0.5, worker_panic:0.25 ,seed=42,csv_read:1.0").unwrap();
        assert_eq!(plan.seed(), 42);
        assert!(plan.is_armed());
        assert!(plan.thresholds[FaultSite::SpillWrite.index()] > 0);
        assert_eq!(
            plan.thresholds[FaultSite::CsvRead.index()],
            1u64 << 32,
            "p=1.0 always fires"
        );
        assert_eq!(plan.thresholds[FaultSite::Alloc.index()], 0);
    }

    #[test]
    fn parse_rejects_junk() {
        assert!(FaultPlan::parse("bogus_site:0.5").is_err());
        assert!(FaultPlan::parse("spill_write=0.5").is_err());
        assert!(FaultPlan::parse("seed=abc").is_err());
        assert!(FaultPlan::parse("spill_write:x").is_err());
        assert!(!FaultPlan::parse("").unwrap().is_armed());
    }

    #[test]
    fn disarmed_fires_nothing() {
        let faults = Faults::default();
        for site in FaultSite::ALL {
            assert_eq!(faults.fire(site), None);
        }
        assert_eq!(faults.snapshot(), FaultSnapshot::default(), "no draw is counted");
    }

    #[test]
    fn p1_always_fires_and_counts() {
        let faults = Faults::new(FaultPlan::new(7).with(FaultSite::CsvRead, 1.0));
        for _ in 0..10 {
            assert!(faults.fire(FaultSite::CsvRead).is_some());
        }
        assert_eq!(faults.snapshot().injected_at(FaultSite::CsvRead), 10);
        assert_eq!(faults.fire(FaultSite::SpillRead), None, "other sites stay quiet");
    }

    #[test]
    fn seeded_rate_is_roughly_probability() {
        let faults = Faults::new(FaultPlan::new(1234).with(FaultSite::SpillWrite, 0.2));
        let fired = (0..2000)
            .filter(|_| faults.fire(FaultSite::SpillWrite).is_some())
            .count();
        assert!(
            (200..600).contains(&fired),
            "p=0.2 over 2000 draws fired {fired}"
        );
    }

    #[test]
    fn panic_site_panics_via_inject() {
        let faults = Faults::new(FaultPlan::new(1).with(FaultSite::MorselExecute, 1.0));
        let r = std::panic::catch_unwind(|| faults.inject(FaultSite::MorselExecute));
        assert!(r.is_err(), "worker_panic site must panic");
    }

    #[test]
    fn io_site_yields_io_error() {
        let faults = Faults::new(FaultPlan::new(1).with(FaultSite::SpillWrite, 1.0));
        assert!(faults.inject_io(FaultSite::SpillWrite).is_err());
        let err = faults.inject(FaultSite::SpillWrite).unwrap_err();
        assert!(matches!(err, ColumnarError::Io { .. }));
    }

    #[test]
    fn clones_share_counters_and_handles_do_not() {
        let plan = FaultPlan::new(1).with(FaultSite::Alloc, 1.0);
        let a = Faults::new(plan.clone());
        let shared = a.clone();
        assert!(shared.fire(FaultSite::Alloc).is_some());
        assert_eq!(a.snapshot().injected_at(FaultSite::Alloc), 1);
        let other = Faults::new(plan);
        assert_eq!(other.snapshot().draws, [0; N_SITES], "a new handle starts at draw 0");
    }
}
