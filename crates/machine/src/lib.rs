#![warn(missing_docs)]
#![forbid(unsafe_code)]
//! # tcf-machine — cycle-level CESM machine model
//!
//! The Configurable Emulated Shared Memory machine (CESM) underlying the
//! PRAM-NUMA model consists of `P` multithreaded processors (groups of
//! `T_p` thread slots) connected to distributed memory modules through a
//! distance-aware network; the extended model adds a **TCF storage buffer**
//! to each processor's front end so flows, not threads, are the scheduled
//! unit (Forsell & Leppänen, §3.3, Figure 13).
//!
//! This crate is the *timing* layer shared by both runtimes:
//!
//! * [`MachineConfig`] — the machine's parameters (`P`, `T_p`, `R`,
//!   topology, latencies, TCF buffer capacity) and its component inventory
//!   (Figures 1, 2 and 5 are reproduced as structural descriptions of this
//!   config),
//! * [`GroupPipeline`] — per-group issue engine: one operation per cycle,
//!   memory round trips through [`tcf_net::Network`], steps end when every
//!   unit has issued *and* every reply has returned, which reproduces the
//!   ESM latency-hiding law (utilization collapses when the issue window is
//!   shorter than the memory latency — Figure 6),
//! * [`TcfBuffer`] — the flow descriptor store whose residency determines
//!   whether a task switch is free (the Table 1 `cost of task switch` row),
//! * [`Trace`] — per-cycle, per-slot execution records with an ASCII Gantt
//!   rendering used to regenerate the schedule figures (7–12) and the
//!   pipeline occupancy figure (13).
//!
//! Functional execution (register/memory contents) lives in `tcf-pram` and
//! `tcf-core`; they feed issue units into this crate to obtain cycle
//! counts and traces, so timing assumptions cannot drift between models.

pub mod config;
pub mod pipeline;
pub mod stats;
pub mod summary;
pub mod tcf_buffer;
pub mod trace;

pub use config::MachineConfig;
pub use pipeline::{GroupPipeline, IssueUnit, StepOutcome, UnitSeq};
pub use stats::MachineStats;
pub use summary::{summary_metrics, RunSummary};
pub use tcf_buffer::{FlowDesc, FlowMode, TcfBuffer};
pub use trace::{FlowTag, Trace, TraceEvent, UnitKind};
