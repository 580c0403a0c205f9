#![warn(missing_docs)]
//! Ruby-style directory-MESI coherence protocol engine (SimCXL §IV-B2).
//!
//! The paper extends gem5's Ruby subsystem with a "directory-based
//! two-level MESI protocol optimized for heterogeneous systems": CPU L1
//! caches and the device's host-memory cache (HMC) are *peer caches*
//! sharing an inclusive LLC whose line metadata embeds the directory
//! (state, exclusive-owner ID, sharer bit-vector). This crate implements
//! that protocol as a genuine message-passing, event-driven state machine:
//!
//! * `CacheAgent` — a peer cache (CPU L1 or device
//!   HMC behind the DCOH), with MSHRs, LRU arrays, line locking for
//!   atomics, and the CXL.cache D2H request set (`RdShared`, `RdOwn`,
//!   `ItoMWr`/NC-P, `DirtyEvict`, `CleanEvict`).
//! * `HomeAgent` — the shared LLC home agent: serializes
//!   per-line transactions, snoops peers (`SnpInv`/`SnpData`), grants
//!   `Data`+`GO-E`/`GO-S`, and pulls writebacks with `GO-WritePull`/`GO-I`
//!   exactly as in the paper's Fig. 7.
//! * [`MemAgent`](engine) — bridges the home agent to a
//!   [`simcxl_mem::MemoryInterface`].
//! * [`ProtocolEngine`] — the event loop gluing
//!   them together, plus a functional memory so workloads compute real
//!   values through the simulated hierarchy.
//!
//! # Example: a store that must invalidate a peer (paper Fig. 7)
//!
//! ```
//! use simcxl_coherence::prelude::*;
//! use simcxl_mem::PhysAddr;
//! use sim_core::Tick;
//!
//! let mut eng = ProtocolEngine::builder().build();
//! let cpu = eng.add_cache(CacheConfig::cpu_l1());
//! let hmc = eng.add_cache(CacheConfig::hmc_128k());
//! let a = PhysAddr::new(0x1000);
//!
//! // CPU dirties the line, then the device stores to it: the home agent
//! // must SnpInv the CPU copy and grant ownership to the HMC.
//! eng.issue(cpu, MemOp::Store { value: 7 }, a, Tick::ZERO);
//! eng.run_to_quiescence();
//! let id = eng.issue(hmc, MemOp::Load, a, Tick::from_us(1));
//! let done = eng.run_to_quiescence();
//! let c = done.iter().find(|c| c.req == id).unwrap();
//! assert_eq!(c.value, 7);
//! eng.verify_invariants();
//! ```

pub mod array;
pub mod cache;
pub mod config;
pub mod engine;
pub mod fault;
pub mod funcmem;
pub mod home;
pub mod msg;
pub(crate) mod pending;
pub mod profile;
pub mod rebalance;
pub mod topology;

pub use config::{CacheConfig, HomeConfig};
pub use engine::{Completion, ProtocolEngine, ProtocolEngineBuilder};
pub use fault::{
    FaultKind, FaultPlan, FaultStatsView, LinkFaultStats, PortFaultStats, RehomeStats,
};
pub use funcmem::{AtomicKind, FuncMem};
pub use home::{HomeStats, HomeStatsView};
pub use msg::{AgentId, HitLevel, MemOp, ReqId};
pub use profile::{DepthHist, EngineProfile};
pub use rebalance::{RebalanceController, RebalanceDecision, RebalanceSpec};
pub use topology::{HomeId, Topology};

/// Convenient glob-import of the types most users need.
pub mod prelude {
    pub use crate::config::{CacheConfig, HomeConfig};
    pub use crate::engine::{Completion, ProtocolEngine};
    pub use crate::fault::{FaultKind, FaultPlan};
    pub use crate::funcmem::AtomicKind;
    pub use crate::home::{HomeStats, HomeStatsView};
    pub use crate::msg::{AgentId, HitLevel, MemOp, ReqId};
    pub use crate::topology::{HomeId, Topology};
}
