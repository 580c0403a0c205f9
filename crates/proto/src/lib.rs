#![warn(missing_docs)]
//! A protobuf wire-format implementation plus a HyperProtoBench-like
//! workload generator.
//!
//! The paper's RPC killer-app (§V-B) offloads Protocol Buffers
//! (de)serialization to NIC hardware and evaluates on HyperProtoBench
//! \[52\], Google's benchmark distilled from fleet-wide protobuf usage.
//! Neither is available here as a dependency, so this crate implements
//! the actual wire format — varints, zigzag, tagged fields,
//! length-delimited nesting — and a generator producing six benchmark
//! profiles (`Bench0`–`Bench5`) that mirror the message-shape properties
//! the paper's analysis hinges on: most messages are tiny (56% ≤ 32 B,
//! 93% ≤ 512 B in Google's fleet), nesting can exceed ten levels, and a
//! minority of benches carry large string fields.
//!
//! # Example
//!
//! ```
//! use protowire::{genbench, BenchId};
//!
//! let bench = genbench::generate(BenchId::Bench1, 42);
//! let msg = &bench.messages[0];
//! let bytes = protowire::encode(&bench.schema, msg);
//! let back = protowire::decode(&bench.schema, &bytes).unwrap();
//! assert_eq!(*msg, back);
//! ```

pub mod decode;
pub mod encode;
pub mod genbench;
pub mod schema;
pub mod value;
pub mod wire;

pub use decode::{decode, DecodeError};
pub use encode::encode;
pub use genbench::{BenchId, BenchWorkload};
pub use schema::{FieldDescriptor, FieldType, MessageDescriptor, Schema};
pub use value::{MessageValue, Value};
