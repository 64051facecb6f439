//! # lafp-columnar
//!
//! The columnar dataframe substrate underneath Lazy Fat Pandas (LaFP).
//!
//! The paper ("Efficient Dataframe Systems: Lazy Fat Pandas on a Diet",
//! EDBT 2026) runs on top of Pandas/Modin/Dask; this crate provides the
//! equivalent storage and kernel layer, built from scratch:
//!
//! * [`DType`] / [`Scalar`] — the type system (int64, float64, bool, utf8,
//!   datetime, categorical) and scalar values with nulls.
//! * [`Bitmap`] — bit-packed validity masks.
//! * [`Column`] — a typed column vector plus vectorized kernels
//!   (comparisons, arithmetic, casts, date accessors, string ops, take /
//!   filter / concat, reductions).
//! * [`strings`] — arena-backed UTF-8 storage ([`Utf8Col`]): one
//!   contiguous byte buffer plus row offsets, so string gathers are
//!   memcpys and slices are zero-copy.
//! * [`Series`] — a named column.
//! * [`DataFrame`] — an ordered collection of equal-length series with
//!   relational kernels: filter, projection, group-by aggregation, hash
//!   joins, sorts, dedup, describe, concat.
//! * [`csv`] — a quoted-CSV reader (with projection, dtype overrides, date
//!   parsing and chunked/streaming access used by the out-of-core backend)
//!   and writer.
//! * [`config`] — [`ExecConfig`], every engine setting as one value
//!   (threads, fusion, encoding, spill roots, faults, query deadline).
//! * [`faults`] / [`cancel`] — the robustness layer: deterministic,
//!   seeded fault-injection plans (`LAFP_FAULTS`) firing synthetic
//!   I/O errors, ENOSPC, corruption, allocation denials and worker
//!   panics at the executor's recovery boundaries, and a cooperative
//!   [`CancelToken`] checked at morsel claims and spill operations.
//!
//! Every structure reports its heap footprint via [`HeapSize`], which the
//! backend layer uses to charge the simulated memory budget that reproduces
//! the paper's out-of-memory matrix (Figure 12).

#![warn(missing_docs)]

pub mod bitmap;
pub mod cancel;
pub mod column;
pub mod config;
pub mod csv;
pub mod describe;
pub mod dtype;
pub mod encoding;
pub mod error;
pub mod faults;
pub mod frame;
pub mod groupby;
pub mod join;
pub mod pool;
pub mod series;
pub mod sort;
pub mod spill;
pub mod strings;
pub mod value;

pub use bitmap::Bitmap;
pub use cancel::CancelToken;
pub use column::Column;
pub use config::ExecConfig;
pub use dtype::DType;
pub use error::{ColumnarError, Result};
pub use frame::DataFrame;
pub use groupby::{AggKind, GroupBySpec};
pub use join::JoinKind;
pub use pool::WorkerPool;
pub use series::Series;
pub use sort::SortOptions;
pub use strings::{StrArena, Utf8Builder, Utf8Col};
pub use value::Scalar;

/// Heap footprint reporting used by the simulated memory budget.
pub trait HeapSize {
    /// Bytes of heap memory retained by `self` (excluding `size_of::<Self>()`).
    fn heap_size(&self) -> usize;
}

impl HeapSize for String {
    fn heap_size(&self) -> usize {
        self.capacity()
    }
}

impl<T: HeapSize> HeapSize for Vec<T> {
    fn heap_size(&self) -> usize {
        self.capacity() * std::mem::size_of::<T>()
            + self.iter().map(HeapSize::heap_size).sum::<usize>()
    }
}
