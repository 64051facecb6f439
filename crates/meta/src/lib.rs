//! # lafp-meta
//!
//! The LaFP MetaStore (paper §3.6): per-dataset metadata — column types,
//! value ranges, distinct-count estimates (selectivity), approximate row
//! size and row count — computed by scanning the file once (in practice as
//! a background task) and stored in a sidecar file next to the dataset.
//! A stored entry is invalidated when the dataset's modification time
//! changes, exactly as the paper prescribes.
//!
//! The optimizer consumes this metadata to: pass `dtype=` to `read_csv`
//! (avoiding inference cost and picking cheaper types), declare
//! low-cardinality **read-only** string columns as `category`, and estimate
//! dataframe memory footprints for backend choice.
//!
//! The sidecar format is a deliberately tiny line-oriented `key=value`
//! text format (one section per column) rather than JSON, keeping the crate
//! inside the sanctioned dependency set.

#![warn(missing_docs)]

pub mod encoding;
pub mod faults;
pub mod fusion;
pub mod scan;
pub mod spill;
pub mod store;

pub use encoding::{EncodingSnapshot, EncodingStats};
pub use faults::{FaultPlan, FaultSite, FaultSnapshot, Faults};
pub use fusion::{FusionSnapshot, FusionStats};
pub use scan::compute_metadata;
pub use spill::{SpillSnapshot, SpillStats};
pub use store::{ColumnMeta, DatasetMeta, MetaStore};
