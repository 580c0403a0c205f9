#![warn(missing_docs)]
//! PCIe substrate: link/TLP model and a descriptor-based DMA engine.
//!
//! This crate models the *baseline* interconnect the paper compares
//! against (PCIe-FPGA / PCIe-ASIC): high per-transaction latency and DMA
//! transfers with substantial per-transfer setup overhead that only
//! amortizes for bulk messages (paper §II-A).

pub mod dma;
pub mod link;

pub use dma::{DmaConfig, DmaEngine};
pub use link::{PcieGen, PcieLink, PcieLinkConfig};
