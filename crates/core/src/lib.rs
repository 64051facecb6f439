//! # lafp-core — the Lazy Fat Pandas runtime
//!
//! This crate is the paper's primary contribution ("Efficient Dataframe
//! Systems: Lazy Fat Pandas on a Diet", EDBT 2026): a lazy dataframe
//! wrapper that records plain Pandas-style API calls into a task-graph DAG
//! (Figure 6), optimizes the DAG with database-style transformations at the
//! moment computation is forced, and executes it on a pluggable backend
//! (Pandas-like, Modin-like or Dask-like — §2.5–2.6).
//!
//! Implemented run-time optimizations (§3):
//!
//! * **Predicate pushdown with safe points** (§3.2) — filters move toward
//!   the data source past operators whose `mod_attrs` don't intersect the
//!   predicate's `used_attrs`, including the multi-parent rules (common
//!   filter hoisting and conjunction pushing).
//! * **Lazy print** (§3.3) — `print` becomes a graph node with order edges
//!   to earlier prints; f-string slots defer to node results at flush time.
//! * **Forced computation for external APIs** (§3.4) — `compute(live_df)`
//!   flushes pending prints first and materializes a frame for callees
//!   that cannot accept lazy frames.
//! * **Common computation reuse** (§3.5) — subexpressions shared between
//!   the computed root and still-live dataframes are persisted; persisted
//!   results are dropped after their last use.
//! * **Dead-node culling and common-subexpression merging**, and
//!   ref-counted result clearing during eager execution (§2.6).

#![warn(missing_docs)]

pub mod context;
pub mod exec;
pub mod frame;
pub mod graph;
pub mod op;
pub mod optimizer;

pub use context::{LaFP, LafpConfig};
pub use frame::{LazyFrame, LazyScalar, PrintArg};
pub use graph::{NodeId, TaskGraph};
pub use lafp_backends::ExecConfig;
pub use op::{LogicalOp, PrintPiece, Value};
