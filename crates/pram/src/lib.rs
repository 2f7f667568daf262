#![warn(missing_docs)]
#![forbid(unsafe_code)]
//! # tcf-pram — the original PRAM-NUMA model of computation (baseline)
//!
//! This crate implements the model the paper *extends*: a configurable
//! synchronous shared-memory machine of `P` groups × `T_p` threads
//! (Forsell & Leppänen §2.1, Figure 2). It is both a complete runtime in
//! its own right and the baseline every TCF experiment compares against:
//!
//! * **PRAM mode** — in each synchronous step every live thread executes
//!   exactly one instruction; shared-memory reads observe the pre-step
//!   state; concurrent writes resolve per the machine's CRCW policy;
//!   multioperations and multiprefixes complete in one step.
//! * **NUMA mode** — two or more threads of one group are configured into
//!   a *bunch* that executes a single instruction stream like one faster
//!   processor: a bunch of `T` threads executes `T` consecutive
//!   instructions per step against the group's local memory block.
//! * **Fixed slot rotation** — a group's issue pipeline always cycles
//!   through its `T_p` thread slots, so dead or idle slots burn cycles.
//!   This is the low-TLP utilization problem that motivates both NUMA
//!   bunching and, ultimately, the TCF extension.
//!
//! Thread-model programs are written against the global thread rank
//! (`mfs rd, tid` — the `thread_id` of the paper's §4 examples) and use
//! loops/guards to bridge problem size and machine size; the `tcf-core`
//! crate implements the extended model that removes exactly that thread
//! arithmetic.

pub mod bunch;
pub mod error;
pub mod machine;
pub mod thread;

pub use bunch::Bunch;
pub use error::{ExecError, Fault};
pub use machine::PramMachine;
pub use tcf_machine::{summary_metrics, RunSummary};
pub use thread::ThreadState;
