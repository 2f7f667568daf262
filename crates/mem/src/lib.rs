#![warn(missing_docs)]
#![forbid(unsafe_code)]
//! # tcf-mem — the memory system of the (extended) PRAM-NUMA machine
//!
//! The PRAM-NUMA model (Forsell & Leppänen) gives every processor group two
//! views of storage:
//!
//! * a **word-wise accessible global shared memory**, physically distributed
//!   over `M` memory modules and reached through the interconnection
//!   network (the *emulated shared memory* of ESM machines), and
//! * a **local memory block** per processor group, accessed directly in
//!   NUMA mode.
//!
//! This crate implements both, together with the concurrent-access
//! semantics the model family needs:
//!
//! * step-synchronous PRAM access — within one step all reads observe the
//!   state *before* the step's writes ([`SharedMemory::step`]),
//! * configurable concurrent-write resolution ([`CrcwPolicy`]),
//! * **multioperations** — concurrent writes to one word combined by the
//!   active memory unit (`madd`, `mmax`, …), and
//! * **multiprefixes** — the ordered variant where every participant also
//!   receives the prefix of the combination in thread-rank order.
//!
//! Address-to-module placement is pluggable ([`ModuleMap`]): plain
//! interleaving or the randomizing linear hash used by ESM realizations to
//! spread references evenly over modules. Per-step congestion statistics
//! ([`StepStats`]) feed the network model of `tcf-machine`.

pub mod error;
pub mod hash;
pub mod local;
pub mod module;
pub mod refs;
pub mod shared;
pub mod stats;

pub use error::MemError;
pub use hash::ModuleMap;
pub use local::LocalMemory;
pub use refs::{MemOp, MemRef, RefOrigin};
pub use shared::{
    BulkPathStats, BulkReplies, BulkView, CrcwPolicy, ShardOutcome, SharedMemory, StepScratch,
};
pub use stats::StepStats;
