#![warn(missing_docs)]
//! **Cohet** — a CXL-driven coherent heterogeneous computing framework,
//! with the SimCXL full-system simulation substrate underneath.
//!
//! This crate is the paper's primary contribution: CPU and XPU compute
//! pools sharing a single coherent memory pool and a single per-process
//! page table, programmed through plain `malloc` plus an
//! OpenCL-style kernel launch (paper §III). The substrates live in the
//! sibling crates (`sim-core`, `simcxl-mem`, `simcxl-coherence`,
//! `simcxl-pcie`, `simcxl-cxl`, `cohet-os`, `simcxl-nic`); this crate
//! wires them into:
//!
//! * [`CohetSystem`]/[`CohetProcess`] — the user-facing framework
//!   (Fig. 4's programming model),
//! * [`profile`] — hardware-calibrated device profiles (Table I),
//! * [`experiments`] — runners regenerating every evaluation figure
//!   (Figs. 12–18) plus the calibration MAPE the paper reports.
//!
//! # Quick start: the paper's AXPY example (Fig. 4c)
//!
//! ```
//! use cohet::prelude::*;
//!
//! let mut proc = CohetSystem::builder().build().spawn_process();
//! // 1. Allocate coherent memory for X and Y (plain malloc).
//! let n = 64u64;
//! let x = proc.malloc(n * 8)?;
//! let y = proc.malloc(n * 8)?;
//! for i in 0..n {
//!     proc.write_u64(x + i * 8, f64::to_bits(i as f64))?;
//!     proc.write_u64(y + i * 8, f64::to_bits(1.0))?;
//! }
//! // 2. Launch the AXPY kernel on the XPU: same pointers, no copies.
//! proc.launch_kernel(0, n, move |ctx, i| {
//!     let xi = f64::from_bits(ctx.load(x + i * 8)?);
//!     let yi = f64::from_bits(ctx.load(y + i * 8)?);
//!     ctx.store(y + i * 8, f64::to_bits(2.0 * xi + yi))
//! })?;
//! // 3. CPU consumes Y directly.
//! assert_eq!(f64::from_bits(proc.read_u64(y + 8)?), 3.0);
//! # Ok::<(), cohet::CohetError>(())
//! ```

pub mod experiments;
pub mod extensions;
pub mod faults;
pub mod profile;
pub mod rebalance;
pub mod system;
pub mod topo;

pub use faults::{FaultCase, FaultOutcome, FaultPhase};
pub use profile::DeviceProfile;
pub use rebalance::{EpochReport, RebalanceCase, RebalanceOutcome, RebalanceRun};
pub use system::{CohetError, CohetProcess, CohetSystem, KernelCtx};
pub use topo::TopologySpec;

/// The types most applications need.
pub mod prelude {
    pub use crate::profile::DeviceProfile;
    pub use crate::system::{CohetError, CohetProcess, CohetSystem, KernelCtx};
    pub use crate::topo::TopologySpec;
    pub use cohet_os::VirtAddr;
    pub use simcxl_coherence::fault::{FaultKind, FaultPlan};
}
