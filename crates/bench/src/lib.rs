#![warn(missing_docs)]
//! The `simcxl-report` library: the five bench suites behind the
//! committed, fully deterministic `BENCH_*.json` reports
//! ([`report::SUITES`]), the paper's figures among them
//! ([`figures`]).

pub mod faults;
pub mod figures;
pub mod hotpath;
pub mod rebalance;
pub mod report;
pub mod scenarios;
