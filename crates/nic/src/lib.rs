#![warn(missing_docs)]
//! NIC models: the paper's two killer-app offload designs on both
//! interconnects (§V).
//!
//! * [`rao`] — remote atomic operation offload: the PCIe-NIC executes
//!   each RAO as an ordered DMA read-modify-write pair (RAW-hazard
//!   guarded), while the CXL-NIC services RAOs in its HMC through the
//!   coherence engine with line locking (Figs. 8/9, evaluated in
//!   Fig. 17).
//! * [`rpc`] — RPC (de)serialization offload: the RpcNIC \[49\] baseline
//!   (field-by-field decode into a 4 KB temp buffer, one-shot DMA, ring
//!   doorbells, DSA-style pre-serialization) versus the CXL-NIC variants
//!   (NC-P field pushes; CXL.cache serialization with an optional
//!   multi-stride prefetcher; CXL.mem construction in device memory)
//!   (Figs. 10/11, evaluated in Fig. 18).
//! * [`prefetch`] — the multi-stride RPC prefetcher (§V-B2).
//! * [`layout`] — in-memory object-graph layout of protobuf messages,
//!   producing the line-granular access streams serialization reads.

pub mod layout;
pub mod prefetch;
pub mod rao;
pub mod rpc;

pub use prefetch::MultiStridePrefetcher;
pub use rao::{CxlRaoNic, PcieRaoNic, RaoResult};
pub use rpc::{RpcNicModel, RpcTiming, SerializeMode};
