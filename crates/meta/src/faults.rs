//! Fault-injection and recovery telemetry.
//!
//! The plans and their counters live in `lafp-columnar`
//! (`lafp_columnar::faults`) because the spill, CSV and pool layers that
//! host the injection points sit below this crate in the dependency
//! graph. This module re-exports them alongside the other MetaStore
//! telemetry surfaces ([`crate::spill`], [`crate::fusion`]) so
//! instrumentation consumers — benchmarks, the chaos suite, a future
//! query service — have one crate to import. Each [`Faults`] handle
//! counts for the owners built from one `ExecConfig`.
//!
//! See the columnar module docs for the `LAFP_FAULTS` spec grammar, the
//! deterministic seeded draw scheme, and the per-site counters
//! (`injected`, `draws`, `retries_recovered`, `dir_fallbacks`,
//! `panics_isolated`).

pub use lafp_columnar::faults::{FaultKind, FaultPlan, FaultSite, FaultSnapshot, Faults};
