#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![warn(clippy::too_many_lines)]
//! # tcf-core — the extended PRAM-NUMA model of computation
//!
//! The paper's contribution: replace the *thread* of the PRAM-NUMA model
//! with the **Thick Control Flow** (TCF) — a control flow with one program
//! counter, one call stack and a dynamically variable *thickness* `T`. One
//! TCF instruction means `T` identical data-parallel operations (PRAM
//! mode) or, with thickness `1/T` (NUMA mode), `T` consecutive
//! instructions of a single sequential stream.
//!
//! This crate implements the extended model and **all six of its variants**
//! (§3.2), each tied to an existing machine class:
//!
//! | [`Variant`] | corresponds to |
//! |---|---|
//! | `SingleInstruction` | the true TCF-aware model (this paper) |
//! | `Balanced { bound }` | TCF-aware with bounded per-step slices |
//! | `MultiInstruction` | XMT-style asynchronous spawn/join |
//! | `SingleOperation` | classic interleaved ESM (SB-PRAM, ECLIPSE) |
//! | `ConfigurableSingleOperation` | original PRAM-NUMA (TOTAL ECLIPSE) |
//! | `FixedThickness { width }` | traditional vector/SIMD machine |
//!
//! Key model behaviours implemented here:
//!
//! * **flow-wise execution** — calls, returns and branches happen once per
//!   flow, never per implicit thread; a non-uniform branch condition is a
//!   fault (the whole flow must select exactly one path, §2.2),
//! * **uniform-operand scalarization** — instructions whose operands are
//!   uniform across the flow execute once on common operands (the paper's
//!   "eliminates the need for replicating registers with identical value"),
//!   tracked by [`ThickValue`],
//! * **`split`/`join` control parallelism** — the `parallel` statement:
//!   child flows with their own thicknesses, implicit join, flow creation
//!   charged `O(R)` (Table 1's flow-branch row),
//! * **free task switching** — flows resident in the per-group
//!   [`TcfBuffer`] switch at zero cost; the buffer-capacity knee is the
//!   multitasking experiment,
//! * **horizontal allocation** — overly thick flows are split into
//!   fragments across processor groups (§3.3/§5), configurable via
//!   [`Allocation`].
//!
//! [`TcfBuffer`]: tcf_machine::TcfBuffer

pub mod counters;
mod decoded;
pub mod error;
pub mod exec_async;
pub mod exec_numa;
pub mod exec_sync;
pub mod flow;
pub mod lanes;
pub mod machine;
pub mod par_engine;
pub mod sched;
mod semantics;
pub mod thick;
mod thick_exec;
pub mod variant;

pub use counters::{EngineCounters, ThickDecayCounters};
pub use error::{TcfError, TcfFault};
pub use flow::{Flow, FlowStatus, Fragment};
pub use machine::{TcfMachine, DEFAULT_STEP_BUDGET};
pub use par_engine::Engine;
pub use sched::Allocation;
pub use thick::{
    affine_alu, AffineRuns, LaneMask, MaskError, MaskRun, Seg, ThickRegs, ThickValue,
    MASK_RUN_BUDGET,
};
pub use variant::Variant;
