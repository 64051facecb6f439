//! The byte-driven differential fuzzer.
//!
//! A fuzz *case* is a [`trace::Trace`]: frame-generation plans (dtypes,
//! null densities, cardinalities, encodings, row counts up to and past
//! the 64 Ki morsel seam, optionally routed through a CSV file) plus a
//! sequence of ops over the op alphabet (filter, arith, compare,
//! fillna, groupby, join, sort, top-n, multi-key top-k, concat, slice, spill
//! round-trip, encode, decode, head). Every byte string decodes to a
//! valid trace; [`gen::seeded_case_bytes`] produces the canonical
//! random ones.
//!
//! Each case executes on the frozen references
//! ([`crate::reference`]) and on the real engine under one cell of the
//! execution-config matrix ([`exec::default_configs`]); every
//! materialization point must match within a 1e-12 relative Float64
//! tolerance. A divergence is shrunk ([`shrink::shrink`]) to a minimal
//! trace and reported as a hex string that
//! [`replay_hex`] (and `LAFP_FUZZ_REPLAY=<hex>` through the bench
//! harness) re-executes exactly.

pub mod exec;
pub mod gen;
pub mod shrink;
pub mod trace;

pub use exec::{config_by_name, default_configs, FuzzConfig, Mode, Mutation};

use std::sync::Mutex;

/// Environment variable the harness checks for a replay trace.
pub const REPLAY_ENV: &str = "LAFP_FUZZ_REPLAY";

/// Serializes case execution: a case may mutate process-global state
/// (`LAFP_NO_ENCODE`, the installed fault plan), so cases — including
/// shrink re-executions — never overlap.
static CASE_LOCK: Mutex<()> = Mutex::new(());

/// Restores an environment variable on drop.
struct EnvGuard {
    key: &'static str,
    prior: Option<String>,
}

impl EnvGuard {
    fn set(key: &'static str, value: &str) -> EnvGuard {
        let prior = std::env::var(key).ok();
        std::env::set_var(key, value);
        EnvGuard { key, prior }
    }
}

impl Drop for EnvGuard {
    fn drop(&mut self) {
        match &self.prior {
            Some(v) => std::env::set_var(self.key, v),
            None => std::env::remove_var(self.key),
        }
    }
}

/// Outcome of a passing case.
pub struct CaseOutcome {
    /// The structured engine error accepted under a fault/budget
    /// config, if the run ended in one.
    pub engine_error: Option<String>,
}

/// Execute one trace under one config: oracle run, engine run, and
/// comparison at every materialization point. `Err` is a divergence
/// message.
pub fn run_case(
    t: &trace::Trace,
    cfg: &FuzzConfig,
    mutation: Mutation,
) -> Result<CaseOutcome, String> {
    let _case = CASE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let _env = cfg
        .no_encode
        .then(|| EnvGuard::set("LAFP_NO_ENCODE", "1"));
    let orun = exec::run_oracle(t);
    let _faults = cfg.faults.then(|| {
        use lafp_columnar::faults::{install, FaultPlan, FaultSite};
        install(
            FaultPlan::new(cfg.fault_seed)
                .with(FaultSite::SpillWrite, 0.05)
                .with(FaultSite::SpillRead, 0.05),
        )
    });
    let report = exec::run_engine(t, &orun, cfg, mutation)?;
    Ok(CaseOutcome {
        engine_error: report.error,
    })
}

/// One shrunk, replayable divergence.
#[derive(Debug)]
pub struct FailureReport {
    /// Batch case index.
    pub case: u64,
    /// Config cell the divergence appeared under.
    pub config: &'static str,
    /// The first divergence message (from the *shrunk* trace).
    pub message: String,
    /// Canonical hex of the original failing trace.
    pub hex_original: String,
    /// Canonical hex of the shrunk trace — the replay string.
    pub hex_shrunk: String,
    /// Op count after shrinking.
    pub shrunk_ops: usize,
}

/// A fixed-seed batch's summary.
#[derive(Debug, Default)]
pub struct BatchReport {
    /// Cases executed.
    pub cases: u64,
    /// Cases that ended in an accepted structured engine error
    /// (fault/budget configs only).
    pub engine_errors: u64,
    /// Shrunk divergences (the batch stops collecting after five).
    pub failures: Vec<FailureReport>,
}

/// Run `cases` seeded cases, rotating each across the config matrix
/// (`case % configs.len()`). Divergences are shrunk and reported; the
/// batch stops early after five.
pub fn run_batch(
    seed: u64,
    cases: u64,
    configs: &[FuzzConfig],
    mutation: Mutation,
) -> BatchReport {
    assert!(!configs.is_empty(), "run_batch needs at least one config");
    let mut report = BatchReport::default();
    for case in 0..cases {
        let bytes = gen::seeded_case_bytes(seed, case);
        let t = trace::decode(&bytes);
        let cfg = &configs[(case % configs.len() as u64) as usize];
        report.cases += 1;
        match run_case(&t, cfg, mutation) {
            Ok(outcome) => {
                if outcome.engine_error.is_some() {
                    report.engine_errors += 1;
                }
            }
            Err(first_message) => {
                let shrunk = shrink::shrink(&t, cfg, mutation);
                let message = run_case(&shrunk, cfg, mutation)
                    .err()
                    .unwrap_or(first_message);
                report.failures.push(FailureReport {
                    case,
                    config: cfg.name,
                    message,
                    hex_original: trace::to_hex(&trace::encode(&t)),
                    hex_shrunk: trace::to_hex(&trace::encode(&shrunk)),
                    shrunk_ops: shrunk.ops.len(),
                });
                if report.failures.len() >= 5 {
                    break;
                }
            }
        }
    }
    report
}

/// Re-execute a replay hex string against every config in `configs`.
/// Returns the per-config divergences (empty = trace passes
/// everywhere).
pub fn replay_hex(
    hex: &str,
    configs: &[FuzzConfig],
    mutation: Mutation,
) -> Result<Vec<(&'static str, String)>, String> {
    let bytes = trace::from_hex(hex).ok_or_else(|| format!("not a hex trace: {hex:?}"))?;
    let t = trace::decode(&bytes);
    let mut divergences = Vec::new();
    for cfg in configs {
        if let Err(msg) = run_case(&t, cfg, mutation) {
            divergences.push((cfg.name, msg));
        }
    }
    Ok(divergences)
}
