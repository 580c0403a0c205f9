#![warn(missing_docs)]
//! Discrete-event simulation kernel used by every SimCXL component.
//!
//! The kernel follows gem5's conventions: simulated time is measured in
//! integer [`Tick`]s where one tick equals one picosecond. Events are
//! ordered by an [`EventQueue`], shared transport resources are modelled
//! by [`Link`]s (latency + serialization bandwidth), and measurements are
//! collected with [`stats`] helpers.
//!
//! # Example
//!
//! ```
//! use sim_core::{EventQueue, Tick};
//!
//! let mut q: EventQueue<&'static str> = EventQueue::new();
//! q.push(Tick::from_ns(5), "b");
//! q.push(Tick::from_ns(1), "a");
//! assert_eq!(q.pop(), Some((Tick::from_ns(1), "a")));
//! assert_eq!(q.pop(), Some((Tick::from_ns(5), "b")));
//! assert_eq!(q.pop(), None);
//! ```

pub mod event;
pub mod fxhash;
pub mod link;
pub mod rng;
pub mod stats;
pub mod time;

pub use event::EventQueue;
pub use fxhash::{FxHashMap, FxHashSet};
pub use link::{Link, LinkConfig};
pub use rng::{mix64, SimRng};
pub use stats::{mape, Summary};
pub use time::{Tick, Window};
