#![warn(missing_docs)]
//! CXL models behind the Cohet system (SimCXL §IV).
//!
//! * [`ats`] — the address translation service: a device-side ATC per
//!   XPU plus the host IOMMU's page-walk cost (§III-C1).
//! * [`mem_path`] — CXL.mem: host loads and stores to device-attached
//!   memory, and the configuration of the expander the system builds.
//!
//! CXL.cache itself is the directory-MESI engine in `simcxl_coherence`.

pub mod ats;
pub mod mem_path;

pub use ats::{Atc, AtcConfig, IommuConfig, TranslationOutcome};
pub use mem_path::{CxlMemConfig, CxlMemPath};
