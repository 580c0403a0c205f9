#![warn(missing_docs)]
//! Library OS for the Cohet framework (paper §III-C2).
//!
//! The paper modifies the Linux kernel so that CPUs and XPUs appear as
//! separate NUMA nodes sharing one unified per-process page table, with
//! heterogeneous memory management (HMM) merging device memory into the
//! system pool behind standard `malloc`/`mmap`. This crate reimplements
//! those mechanisms as a deterministic library OS running inside the
//! simulation:
//!
//! * [`page_table`] — a real 4-level x86-style radix page table.
//! * [`vma`] — virtual address space management (`mmap` regions).
//! * [`numa`] — NUMA nodes (CPU, XPU, CPU-less memory) with frame
//!   allocators.
//! * [`process`] — the per-process view: `malloc`/`free` with
//!   overcommit, demand paging with first-touch placement, and unified
//!   CPU/XPU access through one page table.
//! * [`hmm`] — HMM notifier chains driving device ATC invalidation on
//!   page-table updates.
//! * [`migration`] — page migration between nodes (blocking the device,
//!   updating the PTE, invalidating the ATC, resuming), plus a simple
//!   access-counting adaptive policy (paper future work).

pub mod hmm;
pub mod migration;
pub mod numa;
pub mod page_table;
pub mod process;
pub mod vma;

pub use numa::{NodeId, NumaNode, NumaTopology};
pub use page_table::{PageTable, Pte, PAGE_SIZE};
pub use process::{AccessKind, Accessor, OsError, Process};
pub use vma::{Prot, VirtAddr, Vma};
