#![warn(missing_docs)]
#![forbid(unsafe_code)]
//! # tcf — Extended PRAM-NUMA model of computation for TCF programming
//!
//! Umbrella crate re-exporting the whole workspace under one name. See the
//! README for an architecture overview, DESIGN.md for the system inventory,
//! and EXPERIMENTS.md for the reproduction results.
//!
//! * [`isa`] — instruction set, assembler, disassembler, binary encoding.
//! * [`mem`] — shared-memory modules, local memories, multioperations.
//! * [`net`] — distance-aware interconnection network.
//! * [`machine`] — cycle-level CESM pipeline with TCF storage buffer.
//! * [`pram`] — the original PRAM-NUMA model (baseline).
//! * [`core`] — the extended model: thick control flows and its six
//!   execution variants.
//! * [`lang`] — the tce language: compiler and runtime for TCF programs.

pub use tcf_core as core;
pub use tcf_isa as isa;
pub use tcf_lang as lang;
pub use tcf_machine as machine;
pub use tcf_mem as mem;
pub use tcf_net as net;
pub use tcf_pram as pram;

pub use tcf_machine::{summary_metrics, RunSummary};
