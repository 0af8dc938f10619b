//! Loop intermediate representation for software-pipelined VLIW loops.
//!
//! This crate provides the data structures the rest of the reproduction is
//! built on: operation kinds, data-dependence graphs (DDGs) with
//! `(latency, distance)` annotated edges, recurrence analysis and the lower
//! bounds on the initiation interval (ResMII / RecMII) used by every modulo
//! scheduler in the paper.
//!
//! The IR is machine independent: edges carry only the iteration *distance*;
//! latencies are supplied by an [`OpLatencies`] table (normally produced from
//! a machine configuration) whenever an analysis needs them.
//!
//! # Example
//!
//! ```
//! use hcrf_ir::{DdgBuilder, OpKind, OpLatencies};
//!
//! // v[i] = a[i] * b[i] + c  (a multiply-add fed by two loads)
//! let mut b = DdgBuilder::new("fma");
//! let la = b.load(0, 8);
//! let lb = b.load(1, 8);
//! let mul = b.op(OpKind::FMul);
//! let add = b.op(OpKind::FAdd);
//! let st = b.store(2, 8);
//! b.flow(la, mul, 0);
//! b.flow(lb, mul, 0);
//! b.flow(mul, add, 0);
//! b.flow(add, st, 0);
//! let ddg = b.build();
//!
//! let lat = OpLatencies::paper_baseline();
//! assert_eq!(ddg.rec_mii(&lat), 1); // no recurrences
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod analysis;
pub mod builder;
pub mod ddg;
pub mod mii;
pub mod op;

pub use analysis::{AcyclicSchedule, Recurrence, SccId, SlackInfo};
pub use builder::DdgBuilder;
pub use ddg::{Ddg, DepKind, Edge, EdgeId, Loop, MemAccess, Node, NodeId};
pub use mii::{cluster_res_mii, mii as min_initiation_interval, rec_mii, res_mii, ResourceCounts};
pub use op::{OpKind, OpLatencies, ResourceClass};
