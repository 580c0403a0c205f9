#![warn(missing_docs)]
//! Workload generators for the Cohet evaluation.
//!
//! * [`circustent`] — the six atomic-memory-operation patterns of the
//!   CircusTent suite \[41\] used in the paper's Fig. 17 (RAND, STRIDE1,
//!   CENTRAL, SG, SCATTER, GATHER).
//! * [`lsu`] — the load/store-unit microbenchmark the paper implements on
//!   the CXL-FPGA to calibrate latency/bandwidth (Figs. 12–16).
//! * [`axpy`] — the AXPY kernel from the programming-model comparison
//!   (Fig. 4).
//! * [`kvstore`] and [`graph`] — the in-memory KV-store and graph
//!   traversal workloads the paper names as future Cohet applications
//!   (§VIII), used by the extension benches.
//! * [`scenario`] — the declarative million-client scenario engine:
//!   phased traffic (ramp / steady / burst / hot-key storm), open- and
//!   closed-loop arrivals, and per-client session state machines
//!   multiplexed over a handful of real cache agents.

pub mod axpy;
pub mod circustent;
pub mod graph;
pub mod kvstore;
pub mod lsu;
pub mod scenario;

pub use circustent::{CtConfig, CtPattern, RaoOp};
pub use lsu::{LsuOp, LsuPattern, LsuRequest};
pub use scenario::{ScenarioOutcome, ScenarioSpec};
