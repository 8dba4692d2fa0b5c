//! End-to-end and per-layer benchmark of the PCAPS reproduction.
//!
//! `probe` holds the span recorder and the timing wrappers around each
//! layer's public entry points, `workloads` the three workloads and their
//! output checks, and `report` turns a traced trial's spans into per-layer
//! metrics.  `main.rs` is the command-line driver.

pub mod probe;
pub mod report;
pub mod workloads;
