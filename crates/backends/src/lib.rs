//! # lafp-backends
//!
//! The three execution backends the paper's LaFP runtime targets (§2.5–2.6),
//! rebuilt from scratch on top of `lafp-columnar`:
//!
//! * **Pandas-like** ([`eager::EagerEngine`] with [`BackendKind::Pandas`]) —
//!   single-threaded, whole-frame, row-order-preserving, memory-resident.
//! * **Modin-like** ([`BackendKind::Modin`]) — the same eager API executed
//!   partition-parallel across threads; order preserving.
//! * **Dask-like** ([`dask::DaskEngine`]) — a self-contained lazy framework
//!   with its own task graph, its own optimizer (cull / scan pushdown /
//!   head limiting) and a streaming, partition-at-a-time executor that
//!   supports datasets larger than the (simulated) memory budget, plus
//!   `persist()`. It does not guarantee row order for positional access,
//!   mirroring the paper's discussion of Dask (§5.2).
//!
//! All engines charge a shared [`memory::MemoryTracker`]; exceeding its
//! budget produces `ColumnarError::OutOfMemory`, which is how the
//! reproduction regenerates the paper's Figure 12 success/failure matrix.

#![warn(missing_docs)]

pub mod dask;
pub mod eager;
pub mod kind;
pub mod memory;

pub use dask::{DaskEngine, DaskNodeId, DaskOp, DaskValue};
pub use eager::EagerEngine;
pub use kind::BackendKind;
pub use lafp_columnar::ExecConfig;
pub use memory::{MemoryReservation, MemoryTracker};
