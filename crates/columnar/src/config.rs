//! Engine configuration as one value.
//!
//! Every engine-wide setting — worker threads, chain fusion, ingest
//! encoding, spill fallback roots, the fault plan and the query deadline
//! — lives in one [`ExecConfig`]. [`ExecConfig::from_env`] is the only
//! place the `LAFP_*` environment variables are read; every default
//! constructor (`WorkerPool::new(0)`, `SpillDir::in_temp`,
//! `CsvOptions::new`, the memory tracker and the engines) takes its
//! settings from it, and tests and tools build an `ExecConfig` and pass
//! it, so two configurations can run side by side in one process.

use crate::faults::{FaultPlan, Faults};
use std::path::PathBuf;
use std::sync::OnceLock;
use std::time::Duration;

/// The engine's settings (see the module docs).
///
/// ```
/// use lafp_columnar::ExecConfig;
/// let cfg = ExecConfig { fuse: false, ..ExecConfig::default() }.with_threads(2);
/// assert_eq!((cfg.threads, cfg.fuse, cfg.encode), (2, false, true));
/// ```
#[derive(Debug, Clone)]
pub struct ExecConfig {
    /// Worker threads for the pooled kernels, the Modin engine and the
    /// Dask engine (≥ 1).
    pub threads: usize,
    /// Fuse runs of row-wise operators into one pass per morsel (Dask).
    pub fuse: bool,
    /// Dictionary-encode low-cardinality string columns at CSV ingest.
    pub encode: bool,
    /// Spill roots tried, in order, after the temp dir fills up.
    pub spill_dirs: Vec<PathBuf>,
    /// The fault plan and counters shared by every owner built from
    /// this value.
    pub faults: Faults,
    /// Deadline of each Dask-engine query (`None` = no deadline;
    /// zero = already expired).
    pub query_timeout: Option<Duration>,
}

impl Default for ExecConfig {
    /// The settings with no `LAFP_*` variable set.
    fn default() -> ExecConfig {
        ExecConfig {
            threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
            fuse: true,
            encode: true,
            spill_dirs: Vec::new(),
            faults: Faults::default(),
            query_timeout: None,
        }
    }
}

impl ExecConfig {
    /// The process configuration, read from the environment once and
    /// memoized (every call shares one fault handle, so one draw
    /// sequence and one set of counters):
    ///
    /// | variable | field | value | unset or invalid |
    /// |---|---|---|---|
    /// | `LAFP_THREADS` | `threads` | positive integer | available parallelism |
    /// | `LAFP_NO_FUSE` | `fuse` | anything but empty or `0` turns it off | on |
    /// | `LAFP_NO_ENCODE` | `encode` | `1` or `true` turns it off | on |
    /// | `LAFP_SPILL_DIRS` | `spill_dirs` | colon-separated directories | none |
    /// | `LAFP_QUERY_TIMEOUT_MS` | `query_timeout` | milliseconds | none |
    /// | `LAFP_FAULTS` | `faults` | `site:p,…,seed=N` ([`FaultPlan::parse`]) | nothing fires |
    pub fn from_env() -> ExecConfig {
        static ENV: OnceLock<ExecConfig> = OnceLock::new();
        ENV.get_or_init(|| {
            let var = |key: &str| std::env::var(key).ok();
            let threads = var("LAFP_THREADS").and_then(|v| v.trim().parse::<usize>().ok());
            let mut cfg = ExecConfig::default().with_threads(threads.unwrap_or(0));
            cfg.fuse = var("LAFP_NO_FUSE").is_none_or(|v| matches!(v.trim(), "" | "0"));
            cfg.encode = !matches!(var("LAFP_NO_ENCODE").as_deref(), Some("1" | "true"));
            cfg.spill_dirs = var("LAFP_SPILL_DIRS").map_or_else(Vec::new, |spec| {
                spec.split(':')
                    .map(str::trim)
                    .filter(|d| !d.is_empty())
                    .map(PathBuf::from)
                    .collect()
            });
            cfg.query_timeout = var("LAFP_QUERY_TIMEOUT_MS")
                .and_then(|v| v.trim().parse::<u64>().ok())
                .map(Duration::from_millis);
            if let Some(spec) = var("LAFP_FAULTS").filter(|s| !s.trim().is_empty()) {
                match FaultPlan::parse(&spec) {
                    Ok(plan) => cfg.faults = Faults::new(plan),
                    Err(e) => eprintln!("ignoring invalid LAFP_FAULTS: {e}"),
                }
            }
            cfg
        })
        .clone()
    }

    /// This configuration with `threads` workers (`0` keeps its own).
    pub fn with_threads(mut self, threads: usize) -> ExecConfig {
        if threads > 0 {
            self.threads = threads;
        }
        self
    }
}
