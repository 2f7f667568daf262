#![warn(missing_docs)]
#![forbid(unsafe_code)]
//! # tcf-bench — experiment harness reproducing every table and figure
//!
//! The paper's evaluation is qualitative: one property/cost table
//! (Table 1), thirteen figures (machine organisations and per-variant
//! execution schedules) and the paired programming examples of §4. This
//! crate regenerates all of them from the simulator:
//!
//! * [`table1`] — the analytic property matrix plus *measured*
//!   fetches-per-TCF, task-switch and flow-branch costs per variant,
//! * [`figures`] — structural inventories (Figs 1/2/5), thickness traces
//!   (Figs 3/4), latency-hiding schedules (Fig 6), per-variant schedule
//!   Gantt strips for one mixed workload (Figs 7–12) and the TCF-buffer
//!   occupancy/knee (Fig 13),
//! * [`progs`] — the §4 example pairs (P1–P8): each paper construct
//!   executed on the model it belongs to, reporting steps, cycles,
//!   issued operations and utilization,
//! * [`report`] — plain-text table rendering shared by the `repro`
//!   binary and the Criterion benches.
//!
//! The `repro` binary prints any experiment (`repro all`, `repro table1`,
//! `repro fig7`, `repro progs`, …); EXPERIMENTS.md archives its output
//! against the paper's claims.

pub mod debugger;
pub mod figures;
pub mod parallel;
pub mod progs;
pub mod report;
pub mod table1;
pub mod trace_export;
pub mod workloads;

use tcf_machine::MachineConfig;

/// The small experiment machine: `P = 4`, `T_p = 16` (fast, used by unit
/// tests and quick sweeps).
pub fn small_config() -> MachineConfig {
    MachineConfig::small()
}

/// The paper-scale machine: `P = 16` groups × `T_p = 64` threads
/// (ECLIPSE-like dimensioning) used for headline numbers.
pub fn paper_config() -> MachineConfig {
    MachineConfig::default_machine()
}
