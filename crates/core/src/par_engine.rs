//! The deterministic parallel execution engine for the synchronous
//! variants.
//!
//! Chosen with [`TcfMachine::set_engine`]. Under [`Engine::Parallel`] the
//! two embarrassingly parallel regions of a synchronous step are sharded
//! over scoped host threads (`for_each_chunked`) when — and only when —
//! the step holds enough per-lane work to pay for the threads
//! ([`LANE_GRAIN`], [`REF_GRAIN`]); everything else runs on the
//! coordinator exactly as under [`Engine::Sequential`]. The step phases
//! stay barriers:
//!
//! * **phase 1, thick execution** (`TcfMachine::exec_slices`) — a thick
//!   instruction's fragments live on *distinct* processor groups, per-lane
//!   operations never read another lane's same-instruction writes, and
//!   local memories are per-group, so the slices whose closed-form attempt
//!   declined run their per-lane rungs concurrently against a read-only
//!   view of the registers, each producing a `FragOut` (issue units,
//!   memory references, a register write log, a local-memory undo log).
//!   The coordinator merges the outputs in fragment order through the
//!   exact `ThickRegs` write sequence the sequential engine performs.
//! * **phase 2, shared-memory step** (`TcfMachine::memory_step_sharded`)
//!   — an address maps to exactly one module, so per-module reference
//!   buckets resolve concurrently; every ordering-sensitive decision (CRCW
//!   winner, multiprefix order) is derived from thread ranks inside the
//!   shard, and the staged results commit together.
//!
//! Flow-wise instructions, NUMA slices and the timing phase stay on the
//! coordinator: flows interact (split/join/bunch absorption, shared local
//! memories), and the network's link/service reservations are
//! order-dependent, so parallelizing them could not be bit-identical. See
//! `docs/PARALLEL.md` for the full determinism argument and the
//! measurements behind the grains.

use tcf_mem::{MemError, MemRef, ShardOutcome, StepStats};

use crate::error::TcfError;
use crate::machine::TcfMachine;

/// Which execution engine a machine steps with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// The default single-threaded engine.
    Sequential,
    /// The deterministic parallel engine: per-lane slices and memory-module
    /// buckets above the grain are sharded over `workers` host threads (the
    /// coordinating thread counts as one worker). `workers == 1` exercises
    /// the sharded code path without spawning a thread.
    Parallel {
        /// Total worker count, coordinator included (0 is taken as 1).
        workers: usize,
    },
}

/// Fewest lanes the closed-form attempts of one thick memory instruction
/// may leave to the scalar lane loop for its slices to be sharded.
///
/// Measured on the host this repository is grown on (docs/PARALLEL.md,
/// "The grain"): one scoped region — spawn, run an empty chunk, join —
/// costs 15 µs at `workers: 2` (p50 of 2 000; p90 23 µs) and 43 µs at 4;
/// a lane of the scalar loop costs 12–13 ns. 16 384 lanes are therefore
/// ≈210 µs, about ten regions. On the six `BENCHMARK.json` workloads the
/// lane loops of an instruction hold at most 2 047 lanes
/// (`thread_flows`, `traced_export`, `compile_corpus`, most of
/// `thick_mem`) or at least 32 768 (`irregular_lanes`, the rest of
/// `thick_mem`), so the constant sits in the empty stretch between.
pub const LANE_GRAIN: usize = 16_384;

/// Fewest scalar references of one memory step that are bucketed per
/// module and resolved concurrently.
///
/// Same measurement: a scalar reference resolves in 15–25 ns, so 8 192 of
/// them are 120–200 µs, again about ten regions at `workers: 2`; the
/// workloads' scalar steps hold at most 2 047 references or at least
/// 16 384.
pub const REF_GRAIN: usize = 8_192;

/// Runs `f` on every item, `items` split into at most `workers` contiguous
/// chunks of equal length (the last may be shorter): the calling thread
/// takes the first chunk, one scoped thread each of the others. Returns
/// when every chunk is done; a panic on any thread propagates to the
/// caller after the rest have finished.
pub(crate) fn for_each_chunked<T: Send>(
    workers: usize,
    items: &mut [T],
    f: impl Fn(&mut T) + Sync,
) {
    let per = items.len().div_ceil(workers.max(1)).max(1);
    let mut chunks = items.chunks_mut(per);
    let first = chunks.next().unwrap_or_default();
    let f = &f;
    std::thread::scope(|s| {
        for chunk in chunks {
            s.spawn(move || chunk.iter_mut().for_each(f));
        }
        first.iter_mut().for_each(f);
    });
}

impl TcfMachine {
    /// The memory step of a scalar reference list above [`REF_GRAIN`]:
    /// references bucketed per module, the non-empty buckets resolved
    /// concurrently, each against its own scratch, and the staged outcomes
    /// committed together.
    pub(crate) fn memory_step_sharded(
        &mut self,
        workers: usize,
        refs: &[MemRef],
    ) -> Result<StepStats, TcfError> {
        let mut stats = self
            .shared
            .shard_refs_into(refs, &mut self.mem_buckets)
            .map_err(|e| self.host_err(e.into()))?;
        let shared = &self.shared;
        debug_assert_eq!(self.mem_buckets.len(), self.shard_scratch.len());
        // Zipping buckets with the per-module scratch keeps each thread on
        // its own buffers (threads only hold `&self.shared`).
        let mut shards: Vec<_> = self
            .mem_buckets
            .iter()
            .zip(self.shard_scratch.iter_mut())
            .filter(|(idxs, _)| !idxs.is_empty())
            .map(|(idxs, scratch)| (idxs, scratch, Ok(ShardOutcome::default())))
            .collect();
        for_each_chunked(workers, &mut shards, |(idxs, scratch, outcome)| {
            *outcome = shared.resolve_shard_with(refs, idxs, scratch);
        });
        self.engine_counters.sharded_buckets += shards.len() as u64;
        let mut outcomes: Vec<ShardOutcome> = Vec::with_capacity(shards.len());
        let mut fault: Option<MemError> = None;
        for (_, _, outcome) in shards {
            match outcome {
                Ok(o) => outcomes.push(o),
                // The sequential step resolves addresses in ascending
                // order: the lowest faulting address wins.
                Err(e) if fault.as_ref().is_none_or(|f| e.addr() < f.addr()) => fault = Some(e),
                Err(_) => {}
            }
        }
        if let Some(e) = fault {
            return Err(self.host_err(e.into()));
        }
        self.mem_replies.clear();
        self.mem_replies.resize(refs.len(), None);
        for o in &outcomes {
            stats.hot_addrs += o.hot_addrs;
            stats.combined += o.combined;
            for &(i, v) in &o.replies {
                self.mem_replies[i] = Some(v);
            }
        }
        self.shared.commit_shards(&outcomes);
        Ok(stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    /// Squares every item in place and records which thread ran it.
    fn square_all(workers: usize, n: usize) -> Vec<(usize, Option<std::thread::ThreadId>)> {
        let mut items: Vec<_> = (0..n).map(|i| (i, None)).collect();
        for_each_chunked(workers, &mut items, |(v, who)| {
            *v *= *v;
            *who = Some(std::thread::current().id());
        });
        items
    }

    /// Lengths of the maximal runs of items that ran on one thread.
    fn chunk_lens(items: &[(usize, Option<std::thread::ThreadId>)]) -> Vec<usize> {
        let mut lens: Vec<usize> = Vec::new();
        for (i, (_, who)) in items.iter().enumerate() {
            if i > 0 && items[i - 1].1 == *who {
                *lens.last_mut().unwrap() += 1;
            } else {
                lens.push(1);
            }
        }
        lens
    }

    #[test]
    fn pool_runs_all_tasks_with_borrows() {
        let me = Some(std::thread::current().id());
        // Uneven: ten items over four workers are chunks of 3, 3, 3, 1.
        let items = square_all(4, 10);
        assert!(items.iter().enumerate().all(|(i, &(v, _))| v == i * i));
        assert_eq!(chunk_lens(&items), [3, 3, 3, 1]);
        assert_eq!(items[0].1, me);
        assert!(items[3..].iter().all(|&(_, who)| who != me));
        // Seven workers, seven items: one each.
        assert_eq!(chunk_lens(&square_all(7, 7)), [1; 7]);
    }

    #[test]
    fn single_worker_pool_drains_on_coordinator() {
        let me = Some(std::thread::current().id());
        for workers in [0, 1] {
            let items = square_all(workers, 9);
            assert!(items
                .iter()
                .enumerate()
                .all(|(i, &(v, who))| v == i * i && who == me));
        }
    }

    #[test]
    fn more_workers_than_items_spawns_one_thread_per_extra_item() {
        let items = square_all(7, 3);
        assert!(items.iter().enumerate().all(|(i, &(v, _))| v == i * i));
        assert_eq!(chunk_lens(&items), [1, 1, 1]);
        assert!(square_all(4, 0).is_empty());
    }

    #[test]
    fn pool_propagates_worker_panics() {
        let mut items: Vec<usize> = (0..8).collect();
        let caught = catch_unwind(AssertUnwindSafe(|| {
            for_each_chunked(2, &mut items, |v| {
                assert!(*v != 6, "worker exploded");
                *v += 100;
            });
        }));
        assert!(caught.is_err());
        // Item 6 is in the second chunk, which is not the caller's: the
        // caller's own chunk ran to its end before the panic surfaced.
        assert_eq!(items[..4], [100, 101, 102, 103]);
    }
}
