//! Compression and engine counters — the low-overhead telemetry the
//! `repro metrics` command and the exporters surface.
//!
//! Two groups:
//!
//! * [`ThickDecayCounters`] — **why** compressed thick values
//!   (`Affine`/`Segments`) decayed to explicit per-thread lanes. Each
//!   field is one reason of the taxonomy (see
//!   `docs/OBSERVABILITY.md`); together they explain where a workload
//!   loses its stride compression.
//! * [`EngineCounters`] — what the thick-execution engine did: how many
//!   slices ran closed-form vs per-lane, how often rank-adjacent bulk
//!   references coalesced, how many observability events the merge
//!   absorbed, and how much work the parallel engine sharded.
//!
//! Both structs are plain saturating-free `u64` adders updated on paths
//! that already branch (a decay, a slice merge), so the recording cost
//! is a handful of increments per *instruction*, not per lane — they
//! stay within the observability overhead budget and are
//! engine-independent (identical under `seq` and `par:N`), except for
//! the two `sharded_*` counts, which say what the engine chosen did.

/// Why compressed (`Affine`/`Segments`) thick registers decayed to
/// explicit per-thread lanes. One counter per reason in the taxonomy.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ThickDecayCounters {
    /// Decays forced by a thickness change (`setthick`). Always 0: a
    /// thickness change pins affine registers in closed form (one run of
    /// the old thickness) and decays nothing. Kept so readers of the
    /// taxonomy keep their field.
    pub setthick: u64,
    /// Decays caused by a per-lane register write disagreeing with the
    /// compressed progression (the merge's `write_lanes` replay).
    pub lane_write: u64,
    /// Decays caused by a shared-memory reply landing lane-wise in a
    /// compressed register (phase-3 write-back).
    pub mem_reply: u64,
    /// Slices whose masked / piecewise closed-form execution was abandoned
    /// because the mask or operand run count exceeded
    /// [`MASK_RUN_BUDGET`](crate::thick::MASK_RUN_BUDGET) — the value had
    /// effectively lost its run structure, so execution decayed to the SoA
    /// lane planes.
    pub mask_runs: u64,
    /// Decays caused by a fault frontier: a faulting instruction stopped
    /// mid-thickness, so the partial lane writes of the already-executed
    /// prefix disagreed with the compressed progression when the merge
    /// replayed them (would have been `lane_write` on a completed
    /// instruction).
    pub fault: u64,
    /// Decays on a *partial* (resumed) Balanced instruction: the
    /// bound-split merge replayed a sub-instruction lane run into a
    /// compressed register and the splice had to materialize. A
    /// fully-compressed Balanced resume never increments this — the run
    /// splits in O(1) at the bound boundary.
    pub balanced_resume: u64,
    /// Decays inside an asynchronous (MultiInstruction) block slice: the
    /// per-lane fallback of the block executor materialized a compressed
    /// register, or a block had to shatter into unit flows (nested
    /// `spawn`).
    pub async_slice: u64,
}

impl ThickDecayCounters {
    /// Total decays across every reason.
    pub fn total(&self) -> u64 {
        self.setthick
            + self.lane_write
            + self.mem_reply
            + self.mask_runs
            + self.fault
            + self.balanced_resume
            + self.async_slice
    }
}

/// What the thick-execution engine did, counted at slice/merge
/// granularity (never per lane).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EngineCounters {
    /// Thick instructions executed (one per flow per step that took the
    /// thick path).
    pub thick_instrs: u64,
    /// Fragment slices executed (a thick instruction spans one slice per
    /// fragment chunk).
    pub slices: u64,
    /// Slices fully handled by the closed-form compressed executor.
    pub compressed_slices: u64,
    /// Slices that fell back to the general per-lane executor.
    pub per_lane_slices: u64,
    /// Slices that stayed closed-form *through divergence*: a run-length
    /// lane mask or a piecewise operand split kept a `Sel`, comparison,
    /// masked store or strided reference compressed where it previously
    /// decayed to per-lane execution.
    pub mask_hits: u64,
    /// Slices that attempted masked / piecewise execution but fell back
    /// to the per-lane path (explicit-lane operands, inexact progressions,
    /// unguardable addresses, or the run budget — the budget subset is
    /// also counted as `decay_mask_runs`).
    pub mask_misses: u64,
    /// Rank-adjacent bulk references merged by `coalesce_bulk_multi`.
    pub coalesce_hits: u64,
    /// Bulk references that stayed separate (shape or adjacency mismatch).
    pub coalesce_misses: u64,
    /// Observability events absorbed from fragment outputs into the main
    /// sink during the merge.
    pub absorbed_events: u64,
    /// Flows the per-step flow enumerations walked: the run list's length,
    /// added once per step by the workable-flow check and once by the
    /// executor's snapshot. A step costs its runnable flows, not the
    /// flow table.
    pub flows_visited: u64,
    /// Per-lane slices that ran inside a sharded region: a memory
    /// instruction under [`Engine::Parallel`](crate::Engine::Parallel)
    /// whose closed-form attempts left at least `LANE_GRAIN` lanes to the
    /// lane loop. With two or more workers all but the first chunk of them
    /// ran off the coordinating thread. Zero under the sequential engine;
    /// a function of the program and the engine, not of host scheduling.
    /// Kept out of `metrics()`.
    pub sharded_slices: u64,
    /// Memory-module buckets resolved inside a sharded region (a scalar
    /// memory step of at least `REF_GRAIN` references); as above.
    pub sharded_buckets: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decay_total_sums_reasons() {
        let c = ThickDecayCounters {
            setthick: 2,
            lane_write: 3,
            mem_reply: 5,
            mask_runs: 7,
            fault: 11,
            balanced_resume: 13,
            async_slice: 17,
        };
        assert_eq!(c.total(), 58);
    }
}
