//! # pnet-bench
//!
//! The experiment harness: one binary per table/figure of the paper (see
//! DESIGN.md for the index) plus Criterion micro-benchmarks of the
//! substrates. This library holds the shared scaffolding: argument parsing,
//! table/CSV output, and the four-network comparison setups.

pub mod args;
pub mod report;
pub mod setups;

pub use args::{or_exit, Args};
pub use report::{banner, f3, human_bytes, min_index_total, pct, Table};
