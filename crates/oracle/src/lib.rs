//! # lafp-oracle
//!
//! The conformance substrate: frozen seed-semantics reference
//! implementations of every kernel ([`mod@reference`]) and of the two
//! dataset scans ([`scan_ref`]), representation-agnostic result
//! comparison ([`equiv`]), and a byte-driven
//! differential fuzzer ([`fuzz`]) that generates random frame plans and
//! op sequences, executes them on both the references and the real
//! engine across an execution-config matrix, and shrinks any divergence
//! to a minimal replayable hex trace.
//!
//! The references are the single source of truth consumed by
//! `crates/columnar/tests/differential.rs`,
//! `crates/columnar/tests/encoding_differential.rs`, and
//! `crates/bench/src/kernel_bench.rs` — the bench suite times exactly
//! the code the tests verify against.

#![warn(missing_docs)]

pub mod equiv;
pub mod fuzz;
pub mod reference;
pub mod scan_ref;
