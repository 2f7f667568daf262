//! The emulated shared memory: step-synchronous word storage distributed
//! over modules.

use serde::{Deserialize, Serialize};

use tcf_isa::instr::MultiKind;
use tcf_isa::program::DataBlock;
use tcf_isa::progression::{AddrRun, Seg};
use tcf_isa::word::{Addr, Word};

use crate::error::MemError;
use crate::hash::ModuleMap;
use crate::module::combine;
use crate::refs::{MemOp, MemRef, RefOrigin};
use crate::stats::StepStats;

/// Concurrent-access policy of the shared memory.
///
/// The PRAM-NUMA machine family is a CRCW PRAM with multioperations; the
/// weaker policies are provided so algorithm implementations can be checked
/// against stricter PRAM submodels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CrcwPolicy {
    /// Concurrent writes allowed; the *highest*-rank writer wins. (A legal
    /// refinement of "arbitrary" that keeps simulation deterministic, and
    /// deliberately different from `Priority` so the two are observably
    /// distinct.)
    Arbitrary,
    /// Concurrent writes allowed; the *lowest*-rank writer wins (the
    /// classical Priority CRCW PRAM).
    Priority,
    /// Concurrent writes must all carry the same value, else a fault.
    Common,
    /// Concurrent reads allowed, concurrent writes fault (CREW).
    Crew,
    /// Any concurrent access to one address faults (EREW).
    Erew,
}

/// Outcome of resolving one module's references without mutating the
/// memory (see [`SharedMemory::resolve_shard`]): the values staged for the
/// module's addresses, the replies owed to individual references, and the
/// shard's contribution to the step statistics.
///
/// Shards of one step touch disjoint address sets (an address maps to
/// exactly one module), so outcomes can be produced concurrently and
/// committed in any order; every ordering-sensitive decision (CRCW winner,
/// multiprefix order) is taken inside the shard from reference ranks.
#[derive(Debug, Clone, Default)]
pub struct ShardOutcome {
    /// `(addr, new value)` pairs to apply at commit.
    pub staged: Vec<(Addr, Word)>,
    /// `(reference index, reply)` pairs for `Read`/`Prefix` references.
    pub replies: Vec<(usize, Word)>,
    /// Addresses that received more than one reference.
    pub hot_addrs: usize,
    /// References absorbed by combining.
    pub combined: usize,
}

/// How bulk (strided) references were resolved so far: through the
/// disjoint closed-form path or through literal lane expansion. These are
/// memory-lifetime counters (not per-step [`StepStats`]) so the
/// fast-vs-expansion equivalence tests, which compare per-step stats
/// across the two paths, stay meaningful.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct BulkPathStats {
    /// Bulk references resolved by the disjoint fast path (no lane
    /// materialization).
    pub fast: u64,
    /// Bulk references that fell back to literal lane expansion
    /// (conflict-driven: overlapping address sets or a zero stride).
    pub expanded: u64,
    /// Total lanes materialized by those expansions.
    pub expanded_lanes: u64,
}

/// Reusable buffers for the shared-memory step: the sort-based
/// address-grouping pairs plus per-address resolution arenas.
///
/// A machine in steady state issues a memory step every cycle; building a
/// fresh `BTreeMap<Addr, Vec<usize>>` (plus per-address vectors) each time
/// dominated the resolution cost. A `StepScratch` persists across steps —
/// its vectors reach the workload's high-water mark once and then recycle
/// their allocations. [`SharedMemory::step_with`] and
/// [`SharedMemory::resolve_shard_with`] take one; the scratch-free
/// [`step`](SharedMemory::step)/[`resolve_shard`](SharedMemory::resolve_shard)
/// wrappers build a throwaway (tests, one-shot host calls).
///
/// Determinism is unchanged: the pair sort orders by `(addr, ref index)`,
/// reproducing the old map's ascending-address iteration with
/// ascending-index groups, and the per-kind combine buffers are visited in
/// [`MultiKind`] declaration order — the same order the old
/// `BTreeMap<MultiKind, _>` iterated, since the enum's `Ord` derives from
/// declaration order.
#[derive(Debug, Default, Clone)]
pub struct StepScratch {
    /// `(addr, ref index)` pairs, sorted to group references by address.
    pairs: Vec<(Addr, usize)>,
    /// The step's pending replies and staged writes.
    out: ShardOutcome,
    /// Per-address resolution arena.
    addr: AddrScratch,
    /// Lane-expanded references of a bulk step that could not take the
    /// disjoint fast path.
    flat: Vec<MemRef>,
    /// Reply slots of the lane-expanded step.
    flat_replies: Vec<Option<Word>>,
}

/// Per-address scratch of [`StepScratch`]: plain-write and combining
/// buffers, cleared for every resolved address.
#[derive(Debug, Default, Clone)]
struct AddrScratch {
    /// `(rank, value)` plain-write contenders.
    plain_writes: Vec<(usize, Word)>,
    /// `(rank, contribution, reply slot)` per combining kind, indexed by
    /// `MultiKind` declaration order.
    combines: [Vec<(usize, Word, Option<usize>)>; 6],
    /// Rank-ordered contribution values handed to the combiner.
    values: Vec<Word>,
    /// Rank-indexed slot map of the dense scatter (`u32::MAX` = empty).
    slots: Vec<u32>,
    /// Scatter output, swapped with the combine buffer being ordered.
    sorted: Vec<(usize, Word, Option<usize>)>,
}

/// Orders combine entries by rank. Ranks within one combining step are
/// lane ids and in practice unique and near-contiguous, so a dense
/// rank-bucket scatter replaces the former `O(n log n)`
/// `sort_by_key(rank)`: place each entry at `rank - min` in a slot map,
/// then read the slots back in order. Falls back to the stable sort when
/// ranks collide (two flows contributing under the same rank) or span too
/// wide a range for a cheap slot fill — the fallback preserves the exact
/// pre-scatter semantics (issue order among equal ranks).
fn order_by_rank(
    entries: &mut Vec<(usize, Word, Option<usize>)>,
    slots: &mut Vec<u32>,
    sorted: &mut Vec<(usize, Word, Option<usize>)>,
) {
    let n = entries.len();
    if n <= 1 {
        return;
    }
    let mut lo = usize::MAX;
    let mut hi = 0usize;
    for &(rank, _, _) in entries.iter() {
        lo = lo.min(rank);
        hi = hi.max(rank);
    }
    let range = hi - lo + 1;
    // `range < n` implies a duplicate; a huge sparse range would make the
    // slot fill itself the cost.
    if range >= n && range <= 4 * n + 1024 {
        slots.clear();
        slots.resize(range, u32::MAX);
        let mut unique = true;
        for (j, &(rank, _, _)) in entries.iter().enumerate() {
            let s = rank - lo;
            if slots[s] != u32::MAX {
                unique = false;
                break;
            }
            slots[s] = j as u32;
        }
        if unique {
            sorted.clear();
            sorted.extend(
                slots
                    .iter()
                    .filter(|&&j| j != u32::MAX)
                    .map(|&j| entries[j as usize]),
            );
            std::mem::swap(entries, sorted);
            return;
        }
    }
    entries.sort_by_key(|&(rank, _, _)| rank);
}

/// The step-synchronous shared memory of one machine.
///
/// Within a [`step`](SharedMemory::step) every read observes the state
/// before the step's writes (the classical PRAM read-then-write step), plain
/// concurrent writes resolve per [`CrcwPolicy`], and
/// multioperation/multiprefix contributions to one word are combined by the
/// active memory unit in thread-rank order. Multioperations are exempt from
/// the exclusivity checks of `Crew`/`Erew`: combining is their entire
/// purpose, and the machines that provide them route them through dedicated
/// hardware.
///
/// If one step mixes plain writes and multioperations on the same address,
/// the plain writes resolve first and the combinations apply on top — a
/// defined (if inadvisable) guest behaviour.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SharedMemory {
    words: Vec<Word>,
    modules: usize,
    map: ModuleMap,
    policy: CrcwPolicy,
    bulk_stats: BulkPathStats,
}

impl SharedMemory {
    /// Creates a zeroed shared memory of `size` words over `modules`
    /// modules.
    pub fn new(size: usize, modules: usize, map: ModuleMap, policy: CrcwPolicy) -> SharedMemory {
        assert!(modules > 0, "a machine needs at least one memory module");
        SharedMemory {
            words: vec![0; size],
            modules,
            map,
            policy,
            bulk_stats: BulkPathStats::default(),
        }
    }

    /// Bulk-resolution counters so far (fast-path vs conflict-driven
    /// expansion).
    pub fn bulk_stats(&self) -> &BulkPathStats {
        &self.bulk_stats
    }

    /// Size of the address space in words.
    #[inline]
    pub fn size(&self) -> usize {
        self.words.len()
    }

    /// Number of physical modules.
    #[inline]
    pub fn modules(&self) -> usize {
        self.modules
    }

    /// The module an address maps to.
    #[inline]
    pub fn module_of(&self, addr: Addr) -> usize {
        self.map.module_of(addr, self.modules)
    }

    /// Per-lane module increment of an address progression with the given
    /// stride, when the module map preserves progressions: under low-order
    /// interleaving lane `k` of a strided access hits module
    /// `(module_of(base) + k·step) mod modules`. A hashed map scatters the
    /// progression, so there is no step — callers fall back to per-lane
    /// module lookups.
    #[inline]
    pub fn strided_node_step(&self, stride: i64) -> Option<usize> {
        match self.map {
            ModuleMap::Interleaved => Some(stride.rem_euclid(self.modules as i64) as usize),
            ModuleMap::LinearHash { .. } => None,
        }
    }

    /// Host read (no step semantics), for runtimes and tests.
    pub fn peek(&self, addr: Addr) -> Result<Word, MemError> {
        self.words.get(addr).copied().ok_or(MemError::OutOfBounds {
            addr,
            size: self.words.len(),
        })
    }

    /// Host write (no step semantics), for runtimes and tests.
    pub fn poke(&mut self, addr: Addr, value: Word) -> Result<(), MemError> {
        let size = self.words.len();
        match self.words.get_mut(addr) {
            Some(w) => {
                *w = value;
                Ok(())
            }
            None => Err(MemError::OutOfBounds { addr, size }),
        }
    }

    /// Host read of a contiguous range.
    pub fn peek_range(&self, base: Addr, len: usize) -> Result<Vec<Word>, MemError> {
        (base..base + len).map(|a| self.peek(a)).collect()
    }

    /// Loads a program's static data blocks.
    pub fn load_data(&mut self, blocks: &[DataBlock]) -> Result<(), MemError> {
        for block in blocks {
            for (i, &w) in block.words.iter().enumerate() {
                self.poke(block.base + i, w)?;
            }
        }
        Ok(())
    }

    /// Executes one synchronous memory step.
    ///
    /// Returns one reply slot per input reference (aligned by index): the
    /// read value for `Read`, the rank-order exclusive prefix for `Prefix`,
    /// and `None` for `Write`/`Multi`. Also returns the step's congestion
    /// statistics.
    pub fn step(&mut self, refs: &[MemRef]) -> Result<(Vec<Option<Word>>, StepStats), MemError> {
        let mut scratch = StepScratch::default();
        self.step_with(refs, &mut scratch)
    }

    /// [`step`](SharedMemory::step) with caller-provided scratch buffers —
    /// the steady-state entry point. Machines keep one [`StepScratch`] per
    /// resolution context so the per-step address grouping and combining
    /// allocate nothing once warm.
    pub fn step_with(
        &mut self,
        refs: &[MemRef],
        scratch: &mut StepScratch,
    ) -> Result<(Vec<Option<Word>>, StepStats), MemError> {
        let mut replies = Vec::new();
        let stats = self.step_into(refs, scratch, &mut replies)?;
        Ok((replies, stats))
    }

    /// [`step_with`](SharedMemory::step_with), writing the per-reference
    /// reply slots into a caller-owned buffer (cleared and refilled each
    /// call) so a warm caller allocates nothing at all.
    pub fn step_into(
        &mut self,
        refs: &[MemRef],
        scratch: &mut StepScratch,
        replies: &mut Vec<Option<Word>>,
    ) -> Result<StepStats, MemError> {
        debug_assert!(
            refs.iter().all(|r| !r.op.is_bulk()),
            "bulk references resolve through step_bulk_into"
        );
        let mut stats = StepStats::new(self.modules);
        stats.refs = refs.len();

        // Bounds check and module accounting up front so faults are
        // reported before any mutation.
        for r in refs {
            let addr = r.op.addr();
            if addr >= self.words.len() {
                return Err(MemError::OutOfBounds {
                    addr,
                    size: self.words.len(),
                });
            }
            stats.per_module[self.module_of(addr)] += 1;
        }

        // Group references by address, deterministically: sorting the
        // `(addr, index)` pairs yields ascending addresses with ascending
        // indices inside each address run (the pair order is total, so the
        // unstable sort is deterministic).
        scratch.pairs.clear();
        scratch
            .pairs
            .extend(refs.iter().enumerate().map(|(i, r)| (r.op.addr(), i)));
        scratch.pairs.sort_unstable();

        replies.clear();
        replies.resize(refs.len(), None);
        // The step is atomic: new values are staged and applied only after
        // every address resolved without fault, so a failed step never
        // leaves partial writes behind.
        self.resolve_pairs(refs, scratch, &mut stats)?;
        self.apply_scalars(&scratch.out, replies);
        Ok(stats)
    }

    /// Resolves the sorted `(addr, index)` pairs in `scratch.pairs` into
    /// the cleared `scratch.out` and adds its `hot_addrs`/`combined` to
    /// `stats` — the scalar resolution of
    /// [`step_into`](SharedMemory::step_into) and of the bulk path's
    /// scalar subset.
    fn resolve_pairs(
        &self,
        refs: &[MemRef],
        scratch: &mut StepScratch,
        stats: &mut StepStats,
    ) -> Result<(), MemError> {
        let StepScratch {
            pairs, addr, out, ..
        } = scratch;
        out.staged.clear();
        out.replies.clear();
        (out.hot_addrs, out.combined) = (0, 0);
        self.resolve_sorted(refs, pairs, addr, out)?;
        stats.hot_addrs += out.hot_addrs;
        stats.combined += out.combined;
        Ok(())
    }

    /// Fills the (cleared, per-reference) reply slots from a resolved
    /// outcome and applies its staged writes.
    fn apply_scalars(&mut self, out: &ShardOutcome, replies: &mut [Option<Word>]) {
        for &(i, v) in &out.replies {
            replies[i] = Some(v);
        }
        for &(addr, value) in &out.staged {
            self.words[addr] = value;
        }
    }

    /// The address-grouped core of every scalar resolution: walks the
    /// sorted `(addr, index)` pairs one address at a time, in ascending
    /// order, appending replies, staged values and conflict counts to
    /// `out`. Pure with respect to the stored words.
    fn resolve_sorted(
        &self,
        refs: &[MemRef],
        pairs: &[(Addr, usize)],
        arena: &mut AddrScratch,
        out: &mut ShardOutcome,
    ) -> Result<(), MemError> {
        let mut start = 0;
        while start < pairs.len() {
            let addr = pairs[start].0;
            let mut end = start + 1;
            while end < pairs.len() && pairs[end].0 == addr {
                end += 1;
            }
            let value = if end - start == 1 {
                // Overwhelmingly common case (per-thread strided access):
                // one reference per address needs no policy check and no
                // combine arena.
                self.resolve_single(pairs[start].1, refs, &mut out.replies)
            } else {
                out.hot_addrs += 1;
                let run = &pairs[start..end];
                let (value, combined) =
                    self.resolve_addr(addr, run, refs, arena, &mut out.replies)?;
                out.combined += combined;
                value
            };
            out.staged.push((addr, value));
            start = end;
        }
        Ok(())
    }

    /// Resolves an address referenced exactly once — the overwhelmingly
    /// common case under per-thread strided access. A lone reference can
    /// violate no exclusivity policy and a lone multioperation
    /// contribution combines directly, so the combine arena (and its
    /// per-address clear/sort work) is skipped entirely. Must agree with
    /// [`resolve_addr`](Self::resolve_addr) on single-element runs (see
    /// the `single_ref_fast_path_matches_general_path` test).
    #[inline]
    fn resolve_single(&self, i: usize, refs: &[MemRef], replies: &mut Vec<(usize, Word)>) -> Word {
        match refs[i].op {
            MemOp::Read(addr) => {
                let old = self.words[addr];
                replies.push((i, old));
                old
            }
            MemOp::Write(_, v) => v,
            MemOp::Multi(kind, addr, v) => kind.combine(self.words[addr], v),
            MemOp::Prefix(kind, addr, v) => {
                // The exclusive prefix of the sole participant is the
                // memory's old value (the combine seed).
                let old = self.words[addr];
                replies.push((i, old));
                kind.combine(old, v)
            }
            _ => unreachable!("bulk references resolve through step_bulk_into"),
        }
    }

    /// Resolves every reference to one address (the `run` of sorted
    /// `(addr, index)` pairs): CRCW policy checks, plain write resolution,
    /// multioperation combining. Pure with respect to the stored words;
    /// both the sequential [`step`](SharedMemory::step) and the sharded
    /// path go through here so the two cannot diverge. Replies append to
    /// `replies`; returns `(staged value, references absorbed by
    /// combining)`.
    fn resolve_addr(
        &self,
        addr: Addr,
        run: &[(Addr, usize)],
        refs: &[MemRef],
        arena: &mut AddrScratch,
        replies: &mut Vec<(usize, Word)>,
    ) -> Result<(Word, usize), MemError> {
        let old = self.words[addr];
        let mut combined = 0usize;

        arena.plain_writes.clear();
        for c in &mut arena.combines {
            c.clear();
        }
        let mut readers = 0usize;
        let mut writers = 0usize;

        for &(_, i) in run {
            match refs[i].op {
                MemOp::Read(_) => {
                    replies.push((i, old));
                    readers += 1;
                }
                MemOp::Write(_, v) => {
                    arena.plain_writes.push((refs[i].origin.rank, v));
                    writers += 1;
                }
                MemOp::Multi(kind, _, v) => {
                    arena.combines[kind as usize].push((refs[i].origin.rank, v, None));
                }
                MemOp::Prefix(kind, _, v) => {
                    arena.combines[kind as usize].push((refs[i].origin.rank, v, Some(i)));
                }
                _ => unreachable!("bulk references resolve through step_bulk_into"),
            }
        }

        // Exclusivity policies (multioperations exempt, see type docs).
        match self.policy {
            CrcwPolicy::Erew => {
                if readers + writers > 1 {
                    return Err(MemError::ExclusiveViolation {
                        addr,
                        refs: readers + writers,
                    });
                }
            }
            CrcwPolicy::Crew => {
                if writers > 1 {
                    return Err(MemError::ExclusiveViolation {
                        addr,
                        refs: writers,
                    });
                }
            }
            CrcwPolicy::Common => {
                if writers > 1 {
                    let first = arena.plain_writes[0].1;
                    if arena.plain_writes.iter().any(|&(_, v)| v != first) {
                        return Err(MemError::CommonWriteConflict { addr });
                    }
                }
            }
            CrcwPolicy::Arbitrary | CrcwPolicy::Priority => {}
        }

        // Resolve plain writes. Only one extreme-rank contender survives,
        // so a linear scan replaces the former stable sort: `Arbitrary`
        // takes the highest rank (`>=` so the later contender wins rank
        // ties, as `.last()` after a stable sort did), everything else
        // the lowest (strict `<` keeps the earliest tied contender, as
        // `.first()` did).
        let mut value = old;
        if let Some(&first) = arena.plain_writes.first() {
            let mut best = first;
            match self.policy {
                CrcwPolicy::Arbitrary => {
                    for &(rank, v) in &arena.plain_writes[1..] {
                        if rank >= best.0 {
                            best = (rank, v);
                        }
                    }
                }
                _ => {
                    for &(rank, v) in &arena.plain_writes[1..] {
                        if rank < best.0 {
                            best = (rank, v);
                        }
                    }
                }
            }
            value = best.1;
        }

        // Apply combinations in `MultiKind` declaration order (== the
        // enum's `Ord`, so the same deterministic order the former
        // `BTreeMap<MultiKind, _>` iterated in).
        for k in 0..arena.combines.len() {
            if arena.combines[k].is_empty() {
                continue;
            }
            let kind = MultiKind::ALL[k];
            {
                let AddrScratch {
                    combines,
                    slots,
                    sorted,
                    ..
                } = arena;
                order_by_rank(&mut combines[k], slots, sorted);
            }
            combined += arena.combines[k].len().saturating_sub(1);
            arena.values.clear();
            arena
                .values
                .extend(arena.combines[k].iter().map(|&(_, v, _)| v));
            let want_prefixes = arena.combines[k].iter().any(|&(_, _, slot)| slot.is_some());
            let outcome = combine(kind, value, &arena.values, want_prefixes);
            if want_prefixes {
                for (j, &(_, _, slot)) in arena.combines[k].iter().enumerate() {
                    if let Some(i) = slot {
                        replies.push((i, outcome.prefixes[j]));
                    }
                }
            }
            value = outcome.new_value;
        }

        Ok((value, combined))
    }

    /// Buckets `refs` (by index) per module, bounds-checking every address
    /// up front — the first out-of-bounds reference in issue order faults,
    /// exactly as [`step`](SharedMemory::step) does. Returns the buckets
    /// and a [`StepStats`] with `refs`/`per_module` filled in; the caller
    /// accumulates `hot_addrs`/`combined` from the shard outcomes.
    pub fn shard_refs(&self, refs: &[MemRef]) -> Result<(Vec<Vec<usize>>, StepStats), MemError> {
        let mut buckets = Vec::new();
        let stats = self.shard_refs_into(refs, &mut buckets)?;
        Ok((buckets, stats))
    }

    /// [`shard_refs`](SharedMemory::shard_refs) into caller-owned buckets:
    /// the outer vector is resized to the module count and every inner
    /// vector is cleared, so a machine reusing the same buckets each step
    /// stops allocating once they reach the workload's high-water mark.
    pub fn shard_refs_into(
        &self,
        refs: &[MemRef],
        buckets: &mut Vec<Vec<usize>>,
    ) -> Result<StepStats, MemError> {
        debug_assert!(
            refs.iter().all(|r| !r.op.is_bulk()),
            "bulk references resolve through the sequential step_bulk_into"
        );
        let mut stats = StepStats::new(self.modules);
        stats.refs = refs.len();
        buckets.resize_with(self.modules, Vec::new);
        for b in buckets.iter_mut() {
            b.clear();
        }
        for (i, r) in refs.iter().enumerate() {
            let addr = r.op.addr();
            if addr >= self.words.len() {
                return Err(MemError::OutOfBounds {
                    addr,
                    size: self.words.len(),
                });
            }
            let m = self.module_of(addr);
            stats.per_module[m] += 1;
            buckets[m].push(i);
        }
        Ok(stats)
    }

    /// Resolves one module's references (`idxs` into `refs`, as produced
    /// by [`shard_refs`](SharedMemory::shard_refs)) without mutating the
    /// memory. Addresses resolve in ascending order, so a faulting shard
    /// reports its *lowest* faulting address — the caller takes the
    /// minimum over shards to reproduce the sequential step's first fault.
    pub fn resolve_shard(&self, refs: &[MemRef], idxs: &[usize]) -> Result<ShardOutcome, MemError> {
        let mut scratch = StepScratch::default();
        self.resolve_shard_with(refs, idxs, &mut scratch)
    }

    /// [`resolve_shard`](SharedMemory::resolve_shard) with caller-provided
    /// scratch. Concurrent shard workers each need their own
    /// [`StepScratch`]; a machine keeps one per module so the parallel
    /// resolution path stays allocation-free in steady state (the returned
    /// [`ShardOutcome`] still owns its staged/reply vectors — they outlive
    /// the call).
    pub fn resolve_shard_with(
        &self,
        refs: &[MemRef],
        idxs: &[usize],
        scratch: &mut StepScratch,
    ) -> Result<ShardOutcome, MemError> {
        scratch.pairs.clear();
        scratch
            .pairs
            .extend(idxs.iter().map(|&i| (refs[i].op.addr(), i)));
        scratch.pairs.sort_unstable();
        let mut out = ShardOutcome::default();
        self.resolve_sorted(refs, &scratch.pairs, &mut scratch.addr, &mut out)?;
        Ok(out)
    }

    /// Applies staged shard outcomes. Shards stage disjoint address sets,
    /// so the application order is immaterial; commit nothing when any
    /// shard faulted to keep the step atomic.
    pub fn commit_shards(&mut self, outcomes: &[ShardOutcome]) {
        for o in outcomes {
            for &(addr, value) in &o.staged {
                self.words[addr] = value;
            }
        }
    }

    /// [`step`](SharedMemory::step) for reference lists that may contain
    /// bulk (strided) references; the one-shot convenience wrapper around
    /// [`step_bulk_into`](SharedMemory::step_bulk_into).
    pub fn step_bulk(
        &mut self,
        refs: &[MemRef],
    ) -> Result<(Vec<Option<Word>>, BulkReplies, StepStats), MemError> {
        let mut scratch = StepScratch::default();
        let mut replies = Vec::new();
        let mut bulk = BulkReplies::default();
        let stats = self.step_bulk_into(refs, &mut scratch, &mut replies, &mut bulk)?;
        Ok((replies, bulk, stats))
    }

    /// [`step_into`](SharedMemory::step_into) accepting bulk (strided)
    /// references.
    ///
    /// A bulk reference's semantics are its lane expansion (see
    /// [`MemOp`]); this entry point resolves it without materializing the
    /// lanes whenever the step's address sets are provably disjoint —
    /// each bulk read gathers directly (compressing an affine value run
    /// back to `base + k·stride` form when it detects one) and each bulk
    /// write scatters its progression, for O(lanes) word traffic instead
    /// of O(lanes · log lanes) sort-and-resolve work and no per-lane
    /// `MemRef` materialization. Anything short of provable disjointness
    /// (including a zero address stride) falls back to literal expansion,
    /// so CRCW policies, combining and fault semantics cannot diverge
    /// from the scalar path.
    ///
    /// Scalar replies land in `replies` (aligned by reference index, as
    /// in `step_into`; bulk slots stay `None`); each `StridedRead`'s lane
    /// values land in `bulk` keyed by its reference index.
    pub fn step_bulk_into(
        &mut self,
        refs: &[MemRef],
        scratch: &mut StepScratch,
        replies: &mut Vec<Option<Word>>,
        bulk: &mut BulkReplies,
    ) -> Result<StepStats, MemError> {
        bulk.clear();
        if refs.iter().all(|r| !r.op.is_bulk()) {
            return self.step_into(refs, scratch, replies);
        }
        if self.bulk_overlaps(refs) {
            for r in refs.iter().filter(|r| r.op.is_bulk()) {
                self.bulk_stats.expanded += 1;
                self.bulk_stats.expanded_lanes += r.op.lanes() as u64;
            }
            return self.step_bulk_expanded(refs, scratch, replies, bulk);
        }
        self.bulk_stats.fast += refs.iter().filter(|r| r.op.is_bulk()).count() as u64;

        // Disjoint fast path. Bounds-check every lane in issue order
        // first, so faults are reported before any mutation and agree
        // with the expansion.
        let mut stats = StepStats::new(self.modules);
        // Zero-astride multioperation targets, grouped after the scan:
        // a rank-ordered chain of same-word references must count its hot
        // address once with `total - 1` combines, matching the expansion.
        let mut hot: Vec<(Addr, usize)> = Vec::new();
        for r in refs {
            let run = r.op.addrs();
            if let Some(addr) = run.first_outside(self.words.len()) {
                return Err(MemError::OutOfBounds {
                    addr,
                    size: self.words.len(),
                });
            }
            stats.refs += run.count as usize;
            self.count_strided_modules(run, &mut stats);
            if let Some(((base, ..), lo, hi)) = r.multi_chain_key() {
                if hi > lo {
                    hot.push((base, hi - lo));
                }
            }
        }
        // The expansion resolves all contributions to one word through the
        // combine arena, whether they arrive as one `BulkMulti` or as a
        // rank-ordered chain of them.
        hot.sort_unstable();
        let mut k = 0usize;
        while k < hot.len() {
            let base = hot[k].0;
            let mut total = 0usize;
            while k < hot.len() && hot[k].0 == base {
                total += hot[k].1;
                k += 1;
            }
            if total >= 2 {
                stats.hot_addrs += 1;
                stats.combined += total - 1;
            }
        }

        // Resolve the scalar subset through the ordinary grouped path
        // (it may still fault on a policy violation, in which case
        // nothing has been applied yet).
        scratch.pairs.clear();
        scratch.pairs.extend(
            refs.iter()
                .enumerate()
                .filter(|(_, r)| !r.op.is_bulk())
                .map(|(i, r)| (r.op.addr(), i)),
        );
        scratch.pairs.sort_unstable();
        self.resolve_pairs(refs, scratch, &mut stats)?;

        // Gather bulk reads against the pre-step state (scalar writes are
        // still only staged), resolve bulk multioperations and scatter
        // bulk writes in the same pass, then apply the scalar writes.
        // Disjointness proves no other reference of the step touches a
        // bulk reference's addresses, so neither a scatter nor a
        // read-combine-write (and its prefix replies, pushed in reference
        // order like the reads) can be observed out of order.
        for (i, r) in refs.iter().enumerate() {
            let (run, values) = (r.op.addrs(), r.op.values());
            let lanes = 0..run.count as usize;
            match r.op {
                MemOp::StridedRead { .. } => {
                    bulk.push_gathered(i, lanes.map(|k| self.words[run.at(k)]));
                }
                MemOp::StridedWrite { .. } => {
                    for k in lanes {
                        self.words[run.at(k)] = values.at(k);
                    }
                }
                MemOp::BulkMulti { kind, prefix, .. } => {
                    self.resolve_bulk_multi(i, kind, prefix, run, values, bulk);
                }
                _ => {}
            }
        }
        replies.clear();
        replies.resize(refs.len(), None);
        self.apply_scalars(&scratch.out, replies);
        Ok(stats)
    }

    /// Resolves one disjoint-path `BulkMulti`: lane `k` contributes
    /// `values.at(k)` to `run.at(k)`, with rank order equal to lane order
    /// by construction. With a zero address stride the whole run combines
    /// into one word: `Add` folds by the arithmetic-series sum in O(1)
    /// (exact mod 2^64), `Max`/`Min` take the progression's endpoint
    /// extremes when it provably does not wrap, the bitwise kinds
    /// collapse for uniform contributions, and anything else folds the
    /// `count` values directly — still without materializing per-lane
    /// `MemRef`s or touching the combine arena. Prefix replies are the
    /// running combine in lane (= rank) order, pushed through the same
    /// compressing reply arena as bulk reads. Only called from the
    /// disjoint fast path, where no other reference of the step can touch
    /// this reference's addresses.
    fn resolve_bulk_multi(
        &mut self,
        ref_idx: usize,
        kind: MultiKind,
        prefix: bool,
        run: AddrRun,
        values: Seg,
        bulk: &mut BulkReplies,
    ) {
        let count = run.count as usize;
        if count == 0 {
            if prefix {
                bulk.push_gathered(ref_idx, std::iter::empty());
            }
            return;
        }
        if run.stride != 0 {
            // Distinct addresses: every lane is its combine's sole
            // participant, so its exclusive prefix is the word's old
            // value (the combine seed).
            if prefix {
                bulk.push_gathered(ref_idx, (0..count).map(|k| self.words[run.at(k)]));
            }
            for k in 0..count {
                let addr = run.at(k);
                self.words[addr] = kind.combine(self.words[addr], values.at(k));
            }
            return;
        }
        let old = self.words[run.base];
        if prefix {
            let mut acc = old;
            bulk.push_gathered(
                ref_idx,
                (0..count).map(|k| {
                    let p = acc;
                    acc = kind.combine(acc, values.at(k));
                    p
                }),
            );
            self.words[run.base] = acc;
            return;
        }
        let (vbase, vstride) = (values.base, values.stride);
        let new = match (kind, values.exact_last()) {
            (MultiKind::Add, _) => {
                // Σ_k (vbase + k·vstride) = count·vbase + vstride·T(count−1),
                // with the triangular number taken mod 2^64 — wrapping
                // addition is associative and commutative, so the series
                // sum equals the lane-order fold exactly.
                let tri = ((count as u128 * (count as u128 - 1)) / 2) as u64 as i64;
                old.wrapping_add((count as Word).wrapping_mul(vbase))
                    .wrapping_add(vstride.wrapping_mul(tri))
            }
            // No wrap ⇒ the progression is monotone, so its extremes sit
            // at the endpoints.
            (MultiKind::Max, Some(last)) => old.max(vbase.max(last)),
            (MultiKind::Min, Some(last)) => old.min(vbase.min(last)),
            (MultiKind::And, _) if vstride == 0 => old & vbase,
            (MultiKind::Or, _) if vstride == 0 => old | vbase,
            (MultiKind::Xor, _) if vstride == 0 => {
                if count % 2 == 1 {
                    old ^ vbase
                } else {
                    old
                }
            }
            // No closed form: chunked progression reduction (exact —
            // every kind is associative and commutative).
            _ => crate::module::fold_progression(kind, old, vbase, vstride, count),
        };
        self.words[run.base] = new;
    }

    /// The literal-expansion fallback of
    /// [`step_bulk_into`](SharedMemory::step_bulk_into): replace every
    /// bulk reference by its lanes in place ([`MemOp::lane`], lane `k` at
    /// rank `origin.rank + k`), run the scalar step, and reassemble the
    /// bulk replies. Trivially equivalent to the defined semantics.
    fn step_bulk_expanded(
        &mut self,
        refs: &[MemRef],
        scratch: &mut StepScratch,
        replies: &mut Vec<Option<Word>>,
        bulk: &mut BulkReplies,
    ) -> Result<StepStats, MemError> {
        let mut flat = std::mem::take(&mut scratch.flat);
        let mut flat_replies = std::mem::take(&mut scratch.flat_replies);
        flat.clear();
        for r in refs {
            flat.extend((0..r.op.lanes()).map(|k| {
                MemRef::new(
                    RefOrigin::new(r.origin.group, r.origin.rank + k),
                    r.op.lane(k),
                )
            }));
        }
        let result = self.step_into(&flat, scratch, &mut flat_replies);
        scratch.flat = flat;
        let stats = match result {
            Ok(s) => s,
            Err(e) => {
                scratch.flat_replies = flat_replies;
                return Err(e);
            }
        };
        replies.clear();
        replies.resize(refs.len(), None);
        let mut pos = 0usize;
        for (i, r) in refs.iter().enumerate() {
            let lanes = &flat_replies[pos..pos + r.op.lanes()];
            if !r.op.is_bulk() {
                replies[i] = lanes[0];
            } else if r.op.wants_reply() {
                bulk.push_gathered(
                    i,
                    lanes
                        .iter()
                        .map(|v| v.expect("a replying lane always replies")),
                );
            }
            pos += lanes.len();
        }
        scratch.flat_replies = flat_replies;
        Ok(stats)
    }

    /// Adds a reference's per-module load to `stats`, matching the lane
    /// expansion. Under low-order interleaving the progression's
    /// residues cycle with period `modules / gcd(stride, modules)`, so
    /// the count folds into one pass over that cycle; a hashed map gets
    /// the per-lane walk.
    fn count_strided_modules(&self, run: AddrRun, stats: &mut StepStats) {
        let count = run.count as usize;
        match self.map {
            ModuleMap::Interleaved => {
                let m = self.modules;
                let s = run.stride.rem_euclid(m as i64) as usize;
                let cycle = if s == 0 { 1 } else { m / gcd(s, m) };
                let mut module = run.base % m;
                for k in 0..cycle.min(count) {
                    // Lanes k, k+cycle, k+2·cycle… all land on `module`.
                    stats.per_module[module] += (count - k).div_ceil(cycle);
                    module = (module + s) % m;
                }
            }
            ModuleMap::LinearHash { .. } => {
                for k in 0..count {
                    stats.per_module[self.module_of(run.at(k))] += 1;
                }
            }
        }
    }

    /// Whether any two references of the step can touch a common address,
    /// treating bulk references as their lane progressions. Conservative:
    /// `true` routes to the expansion path, so false positives cost only
    /// speed, never correctness. Progressions are compared exactly when
    /// they share a stride (the common case: slices of one thick access),
    /// by address-interval intersection otherwise.
    fn bulk_overlaps(&self, refs: &[MemRef]) -> bool {
        type Chain = ((Addr, MultiKind, bool), usize, usize);
        /// `(lo, hi, step)` of a reference's lane addresses, `step > 0`.
        type Span = ((i128, i128, i128), Option<Chain>);
        // A masked thick multioperation splits into up to one chained
        // same-word reference per mask run, so the cheap pairwise check
        // must hold a full run-budget chain plus the step's other bulk
        // refs before giving up and expanding.
        let mut spans: [Option<Span>; 48] = [None; 48];
        let mut n = 0usize;
        for r in refs {
            let run = r.op.addrs();
            let Some((lo2, hi2)) = run.span() else {
                continue;
            };
            // Every lane of a same-word multioperation combining into
            // that word is the reference's purpose, not a self-conflict;
            // any other zero-stride bulk reference overlaps itself.
            let chain = r.multi_chain_key();
            if run.stride == 0 && run.count > 1 && chain.is_none() {
                return true;
            }
            let s2 = (run.stride as i128).abs().max(1);
            for &((lo1, hi1, s1), pchain) in spans.iter().take(n).flatten() {
                if hi1 < lo2 || hi2 < lo1 {
                    continue; // disjoint intervals
                }
                let collide = if s1 == s2 {
                    // Same stride: progressions collide iff their bases
                    // agree modulo the stride (given the intervals meet).
                    (lo1 - lo2).rem_euclid(s1) == 0
                } else {
                    true // different strides, intervals meet: assume the worst
                };
                if collide {
                    // Exception: a rank-ordered chain of same-word bulk
                    // multioperations (equal address/operator/reply kind,
                    // later reference's rank window strictly after the
                    // earlier's) combines associatively in reference
                    // order — exactly the rank-ordered expansion — so the
                    // disjoint fast path resolves it sequentially. This
                    // is what a masked thick multioperation splits into.
                    if let (Some((pk, _, pend)), Some((ck, clo, _))) = (pchain, chain) {
                        if pk == ck && clo >= pend {
                            continue;
                        }
                    }
                    return true;
                }
            }
            if n == spans.len() {
                return true; // too many spans to check cheaply: expand
            }
            spans[n] = Some(((lo2, hi2, s2), chain));
            n += 1;
        }
        false
    }
}

/// Greatest common divisor (positive inputs).
fn gcd(mut a: usize, mut b: usize) -> usize {
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

/// Reply data of one bulk step's `StridedRead` references.
///
/// Lane values are either recognized as an arithmetic progression
/// (`Affine`) — which lets the machine write the destination register
/// back in compressed form — or stored in a flat arena shared by the
/// step's reads. Cleared and refilled by every
/// [`SharedMemory::step_bulk_into`] call.
#[derive(Debug, Default, Clone)]
pub struct BulkReplies {
    /// `(reference index, data)` per replying bulk reference, ascending
    /// in reference index.
    entries: Vec<(usize, BulkData)>,
    /// Value arena backing [`BulkData::Values`].
    words: Vec<Word>,
}

/// The shape of one bulk read's lane values.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BulkData {
    /// The lanes read one progression.
    Affine(Seg),
    /// Lane values live in the arena at `start .. start + len`.
    Values {
        /// Arena offset of lane 0.
        start: usize,
        /// Lane count.
        len: usize,
    },
}

/// A borrowed view of one bulk read's lane values.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BulkView<'a> {
    /// The lanes read one progression (as long as the reference is wide).
    Affine(Seg),
    /// One value per lane.
    Values(&'a [Word]),
}

impl BulkReplies {
    /// Drops all entries and arena contents (capacity is kept).
    pub fn clear(&mut self) {
        self.entries.clear();
        self.words.clear();
    }

    /// The lane values of the bulk read at reference index `ref_idx`.
    pub fn get(&self, ref_idx: usize) -> Option<BulkView<'_>> {
        let at = self.entries.binary_search_by_key(&ref_idx, |e| e.0).ok()?;
        Some(match self.entries[at].1 {
            BulkData::Affine(run) => BulkView::Affine(run),
            BulkData::Values { start, len } => BulkView::Values(&self.words[start..start + len]),
        })
    }

    /// Lane `k` of the bulk read at `ref_idx` (test/debug convenience).
    pub fn lane(&self, ref_idx: usize, k: usize) -> Option<Word> {
        match self.get(ref_idx)? {
            BulkView::Affine(run) => Some(run.at(k)),
            BulkView::Values(vals) => vals.get(k).copied(),
        }
    }

    /// Records the gathered lane values of the read at `ref_idx`,
    /// compressing them to affine form when they form an arithmetic
    /// progression (so an affine value written by a strided sweep reads
    /// back in the same compressed representation it was written from).
    /// Both resolution paths push while walking the references in order,
    /// so `entries` stays sorted by `ref_idx` —
    /// [`get`](BulkReplies::get) searches on that.
    fn push_gathered(&mut self, ref_idx: usize, vals: impl Iterator<Item = Word>) {
        let start = self.words.len();
        self.words.extend(vals);
        let lane = &self.words[start..];
        let affine = match lane {
            [] | [_] => true,
            [first, second, rest @ ..] => {
                let d = second.wrapping_sub(*first);
                let mut prev = *second;
                let mut ok = true;
                for &w in rest {
                    if w.wrapping_sub(prev) != d {
                        ok = false;
                        break;
                    }
                    prev = w;
                }
                ok
            }
        };
        let data = if affine {
            let base = lane.first().copied().unwrap_or(0);
            let stride = lane.get(1).map_or(0, |second| second.wrapping_sub(base));
            let run = Seg::new(lane.len(), base, stride);
            self.words.truncate(start);
            BulkData::Affine(run)
        } else {
            BulkData::Values {
                start,
                len: self.words.len() - start,
            }
        };
        debug_assert!(self.entries.last().is_none_or(|e| e.0 < ref_idx));
        self.entries.push((ref_idx, data));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::refs::RefOrigin;

    fn sm(policy: CrcwPolicy) -> SharedMemory {
        SharedMemory::new(64, 4, ModuleMap::Interleaved, policy)
    }

    fn rref(rank: usize, addr: Addr) -> MemRef {
        MemRef::new(RefOrigin::new(0, rank), MemOp::Read(addr))
    }

    /// The rank-bucket scatter must reproduce the stable sort it replaced
    /// across its regimes: dense unique ranks, gappy ranks, duplicate
    /// ranks (fallback), and ranges too sparse to scatter (fallback).
    #[test]
    fn order_by_rank_matches_stable_sort() {
        let cases: Vec<Vec<usize>> = vec![
            vec![],
            vec![7],
            vec![3, 1, 2, 0],            // dense unique, shuffled
            vec![10, 2, 6, 4],           // gappy unique
            vec![5, 1, 5, 3],            // duplicate -> fallback
            vec![100_000, 3, 50_000, 7], // sparse -> fallback
            (0..500).rev().collect(),    // larger dense run
        ];
        let mut slots = Vec::new();
        let mut sorted = Vec::new();
        for ranks in cases {
            // Payload tags each entry with its issue position so tie
            // handling is observable.
            let mut scattered: Vec<(usize, Word, Option<usize>)> = ranks
                .iter()
                .enumerate()
                .map(|(j, &r)| (r, j as Word, Some(j)))
                .collect();
            let mut reference = scattered.clone();
            reference.sort_by_key(|&(rank, _, _)| rank);
            order_by_rank(&mut scattered, &mut slots, &mut sorted);
            assert_eq!(scattered, reference, "ranks {ranks:?}");
        }
    }

    fn wref(rank: usize, addr: Addr, v: Word) -> MemRef {
        MemRef::new(RefOrigin::new(0, rank), MemOp::Write(addr, v))
    }

    #[test]
    fn reads_see_pre_step_state() {
        let mut m = sm(CrcwPolicy::Arbitrary);
        m.poke(5, 100).unwrap();
        let (replies, _) = m.step(&[rref(0, 5), wref(1, 5, 7)]).unwrap();
        assert_eq!(replies[0], Some(100)); // read ignores same-step write
        assert_eq!(m.peek(5).unwrap(), 7);
    }

    #[test]
    fn arbitrary_highest_rank_wins_priority_lowest() {
        let refs = [wref(2, 1, 20), wref(0, 1, 10), wref(1, 1, 15)];
        let mut m = sm(CrcwPolicy::Arbitrary);
        m.step(&refs).unwrap();
        assert_eq!(m.peek(1).unwrap(), 20);
        let mut m = sm(CrcwPolicy::Priority);
        m.step(&refs).unwrap();
        assert_eq!(m.peek(1).unwrap(), 10);
    }

    #[test]
    fn common_agreeing_ok_conflict_faults() {
        let mut m = sm(CrcwPolicy::Common);
        m.step(&[wref(0, 2, 9), wref(1, 2, 9)]).unwrap();
        assert_eq!(m.peek(2).unwrap(), 9);
        let e = m.step(&[wref(0, 2, 1), wref(1, 2, 2)]).unwrap_err();
        assert!(matches!(e, MemError::CommonWriteConflict { addr: 2 }));
    }

    #[test]
    fn crew_faults_on_concurrent_writes_only() {
        let mut m = sm(CrcwPolicy::Crew);
        m.step(&[rref(0, 3), rref(1, 3), wref(2, 4, 1)]).unwrap();
        let e = m.step(&[wref(0, 3, 1), wref(1, 3, 2)]).unwrap_err();
        assert!(matches!(e, MemError::ExclusiveViolation { .. }));
    }

    #[test]
    fn erew_faults_on_any_concurrency() {
        let mut m = sm(CrcwPolicy::Erew);
        m.step(&[rref(0, 3), wref(1, 4, 1)]).unwrap();
        let e = m.step(&[rref(0, 3), rref(1, 3)]).unwrap_err();
        assert!(matches!(e, MemError::ExclusiveViolation { .. }));
    }

    #[test]
    fn multiadd_combines_in_one_step() {
        let mut m = sm(CrcwPolicy::Arbitrary);
        m.poke(10, 5).unwrap();
        let refs: Vec<MemRef> = (0..8)
            .map(|rank| {
                MemRef::new(
                    RefOrigin::new(0, rank),
                    MemOp::Multi(MultiKind::Add, 10, rank as Word + 1),
                )
            })
            .collect();
        let (_, stats) = m.step(&refs).unwrap();
        assert_eq!(m.peek(10).unwrap(), 5 + 36);
        assert_eq!(stats.combined, 7);
        assert_eq!(stats.hot_addrs, 1);
    }

    #[test]
    fn multiprefix_returns_rank_ordered_prefixes() {
        let mut m = sm(CrcwPolicy::Arbitrary);
        m.poke(10, 100).unwrap();
        // Issue out of rank order to check the sort.
        let refs = vec![
            MemRef::new(RefOrigin::new(0, 2), MemOp::Prefix(MultiKind::Add, 10, 30)),
            MemRef::new(RefOrigin::new(0, 0), MemOp::Prefix(MultiKind::Add, 10, 10)),
            MemRef::new(RefOrigin::new(0, 1), MemOp::Prefix(MultiKind::Add, 10, 20)),
        ];
        let (replies, _) = m.step(&refs).unwrap();
        assert_eq!(replies[1], Some(100)); // rank 0: memory seed
        assert_eq!(replies[2], Some(110)); // rank 1: seed + 10
        assert_eq!(replies[0], Some(130)); // rank 2: seed + 10 + 20
        assert_eq!(m.peek(10).unwrap(), 160);
    }

    #[test]
    fn multiops_allowed_under_erew() {
        let mut m = sm(CrcwPolicy::Erew);
        let refs: Vec<MemRef> = (0..4)
            .map(|rank| {
                MemRef::new(
                    RefOrigin::new(0, rank),
                    MemOp::Multi(MultiKind::Max, 0, rank as Word),
                )
            })
            .collect();
        m.step(&refs).unwrap();
        assert_eq!(m.peek(0).unwrap(), 3);
    }

    #[test]
    fn mixed_write_and_multi_write_first() {
        let mut m = sm(CrcwPolicy::Priority);
        m.poke(0, 1000).unwrap();
        let refs = vec![
            MemRef::new(RefOrigin::new(0, 0), MemOp::Write(0, 50)),
            MemRef::new(RefOrigin::new(0, 1), MemOp::Multi(MultiKind::Add, 0, 3)),
        ];
        m.step(&refs).unwrap();
        assert_eq!(m.peek(0).unwrap(), 53); // write resolves, then combine
    }

    #[test]
    fn out_of_bounds_faults_before_mutation() {
        let mut m = sm(CrcwPolicy::Arbitrary);
        let e = m.step(&[wref(0, 1, 7), wref(1, 9999, 1)]).unwrap_err();
        assert!(matches!(e, MemError::OutOfBounds { addr: 9999, .. }));
        assert_eq!(m.peek(1).unwrap(), 0); // first write not applied
    }

    /// Drives the sharding API the way the parallel engine does and
    /// returns the same `(replies, stats)` shape as `step`.
    fn sharded_step(
        m: &mut SharedMemory,
        refs: &[MemRef],
    ) -> Result<(Vec<Option<Word>>, StepStats), MemError> {
        let (buckets, mut stats) = m.shard_refs(refs)?;
        let mut outcomes = Vec::new();
        let mut fault: Option<MemError> = None;
        for b in buckets.iter().filter(|b| !b.is_empty()) {
            match m.resolve_shard(refs, b) {
                Ok(o) => outcomes.push(o),
                Err(e) => {
                    if fault.as_ref().map(|f| e.addr() < f.addr()).unwrap_or(true) {
                        fault = Some(e);
                    }
                }
            }
        }
        if let Some(e) = fault {
            return Err(e);
        }
        let mut replies = vec![None; refs.len()];
        for o in &outcomes {
            stats.hot_addrs += o.hot_addrs;
            stats.combined += o.combined;
            for &(i, v) in &o.replies {
                replies[i] = Some(v);
            }
        }
        m.commit_shards(&outcomes);
        Ok((replies, stats))
    }

    #[test]
    fn sharded_step_matches_sequential_step() {
        // A mixed bag across modules: reads, competing writes, multi-adds
        // and prefixes, some sharing addresses.
        let refs = vec![
            rref(0, 5),
            wref(1, 5, 70),
            wref(9, 5, 90),
            MemRef::new(RefOrigin::new(0, 2), MemOp::Prefix(MultiKind::Add, 9, 3)),
            MemRef::new(RefOrigin::new(1, 3), MemOp::Prefix(MultiKind::Add, 9, 4)),
            MemRef::new(RefOrigin::new(1, 4), MemOp::Multi(MultiKind::Max, 13, 44)),
            wref(5, 2, 11),
            rref(6, 2),
            rref(7, 63),
        ];
        for policy in [CrcwPolicy::Arbitrary, CrcwPolicy::Priority] {
            let mut seq = sm(policy);
            let mut par = sm(policy);
            for a in 0..64 {
                seq.poke(a, a as Word * 10).unwrap();
                par.poke(a, a as Word * 10).unwrap();
            }
            let (r1, s1) = seq.step(&refs).unwrap();
            let (r2, s2) = sharded_step(&mut par, &refs).unwrap();
            assert_eq!(r1, r2);
            assert_eq!(s1, s2);
            for a in 0..64 {
                assert_eq!(seq.peek(a).unwrap(), par.peek(a).unwrap());
            }
        }
    }

    #[test]
    fn sharded_step_faults_atomically_with_lowest_address() {
        // Module 1 (addr 9) and module 3 (addr 3) both violate CREW; the
        // reported fault must be the lowest address, and nothing commits.
        let refs = vec![
            wref(0, 9, 1),
            wref(1, 9, 2),
            wref(2, 3, 5),
            wref(3, 3, 6),
            wref(4, 8, 77),
        ];
        let mut seq = sm(CrcwPolicy::Crew);
        let mut par = sm(CrcwPolicy::Crew);
        let e1 = seq.step(&refs).unwrap_err();
        let e2 = sharded_step(&mut par, &refs).unwrap_err();
        assert_eq!(e1, e2);
        assert!(matches!(e2, MemError::ExclusiveViolation { addr: 3, .. }));
        assert_eq!(par.peek(8).unwrap(), 0); // non-faulting shard not applied
    }

    #[test]
    fn shard_refs_reports_first_out_of_bounds_in_issue_order() {
        let m = sm(CrcwPolicy::Arbitrary);
        let refs = vec![wref(0, 1, 7), wref(1, 9999, 1), wref(2, 8888, 1)];
        let e = m.shard_refs(&refs).unwrap_err();
        assert!(matches!(e, MemError::OutOfBounds { addr: 9999, .. }));
    }

    #[test]
    fn multikind_cast_indexes_declaration_order() {
        // The per-kind combine buffers are indexed by `kind as usize`;
        // that is only the declaration (== `Ord`) order while the enum
        // carries no explicit discriminants.
        for (k, kind) in MultiKind::ALL.iter().enumerate() {
            assert_eq!(*kind as usize, k);
        }
    }

    #[test]
    fn step_with_reused_scratch_matches_fresh_scratch() {
        // One scratch driven across dissimilar steps (combines, then plain
        // writes, then a faulting step, then reads) must behave exactly
        // like per-step fresh scratch: stale buffer contents never leak.
        let steps: Vec<Vec<MemRef>> = vec![
            vec![
                MemRef::new(RefOrigin::new(0, 1), MemOp::Prefix(MultiKind::Add, 9, 4)),
                MemRef::new(RefOrigin::new(0, 0), MemOp::Prefix(MultiKind::Add, 9, 3)),
                MemRef::new(RefOrigin::new(0, 2), MemOp::Multi(MultiKind::Max, 13, 44)),
            ],
            vec![wref(2, 1, 20), wref(0, 1, 10), rref(1, 9)],
            vec![wref(0, 2, 7), wref(1, 9999, 1)], // faults, nothing staged
            vec![rref(0, 1), rref(1, 13), rref(2, 2)],
        ];
        let mut reused = sm(CrcwPolicy::Arbitrary);
        let mut fresh = sm(CrcwPolicy::Arbitrary);
        let mut scratch = StepScratch::default();
        for refs in &steps {
            let a = reused.step_with(refs, &mut scratch);
            let b = fresh.step(refs);
            match (a, b) {
                (Ok((r1, s1)), Ok((r2, s2))) => {
                    assert_eq!(r1, r2);
                    assert_eq!(s1, s2);
                }
                (Err(e1), Err(e2)) => assert_eq!(e1, e2),
                (a, b) => panic!("diverged: {a:?} vs {b:?}"),
            }
        }
        for a in 0..64 {
            assert_eq!(reused.peek(a).unwrap(), fresh.peek(a).unwrap());
        }
    }

    #[test]
    fn single_ref_fast_path_matches_general_path() {
        // Every op kind through a single-reference address must produce
        // the replies, staged value and stats `resolve_addr` would: pair
        // each lone reference with a two-reference run of the same ops so
        // both paths execute in one step, then cross-check against a
        // memory resolving the lone references via the general path (by
        // duplicating them at rank order extremes that keep the outcome).
        for kind in MultiKind::ALL {
            let mut m = sm(CrcwPolicy::Arbitrary);
            m.poke(3, 100).unwrap();
            m.poke(7, -5).unwrap();
            let refs = vec![
                rref(0, 3),
                wref(1, 5, 42),
                MemRef::new(RefOrigin::new(0, 2), MemOp::Multi(kind, 7, 9)),
                MemRef::new(RefOrigin::new(0, 3), MemOp::Prefix(kind, 11, 6)),
            ];
            let (replies, stats) = m.step(&refs).unwrap();
            assert_eq!(replies[0], Some(100));
            assert_eq!(replies[1], None);
            assert_eq!(replies[2], None);
            assert_eq!(replies[3], Some(0)); // exclusive prefix = old value
            assert_eq!(m.peek(5).unwrap(), 42);
            assert_eq!(m.peek(7).unwrap(), kind.combine(-5, 9));
            assert_eq!(m.peek(11).unwrap(), kind.combine(0, 6));
            assert_eq!(m.peek(3).unwrap(), 100); // read stages the old value
            assert_eq!(stats.hot_addrs, 0);
            assert_eq!(stats.combined, 0);
        }
    }

    /// Expands bulk references into their defining lane references (the
    /// reference semantics the bulk path must reproduce).
    fn expand(refs: &[MemRef]) -> Vec<MemRef> {
        let mut flat = Vec::new();
        for r in refs {
            match r.op {
                MemOp::StridedRead {
                    base,
                    stride,
                    count,
                } => flat.extend((0..count as usize).map(|k| {
                    MemRef::new(
                        RefOrigin::new(r.origin.group, r.origin.rank + k),
                        MemOp::Read((base as i64 + k as i64 * stride) as usize),
                    )
                })),
                MemOp::StridedWrite {
                    base,
                    stride,
                    count,
                    vbase,
                    vstride,
                } => flat.extend((0..count as usize).map(|k| {
                    MemRef::new(
                        RefOrigin::new(r.origin.group, r.origin.rank + k),
                        MemOp::Write(
                            (base as i64 + k as i64 * stride) as usize,
                            vbase.wrapping_add((k as Word).wrapping_mul(vstride)),
                        ),
                    )
                })),
                _ => flat.push(*r),
            }
        }
        flat
    }

    /// Runs `refs` through the bulk step on one memory and the expansion
    /// through the scalar step on another, asserting identical faults,
    /// replies, statistics, and final memory.
    fn assert_bulk_matches_expansion(policy: CrcwPolicy, refs: &[MemRef]) {
        let mut a = sm(policy);
        let mut b = sm(policy);
        for addr in 0..64 {
            a.poke(addr, addr as Word * 3 - 20).unwrap();
            b.poke(addr, addr as Word * 3 - 20).unwrap();
        }
        let flat = expand(refs);
        let bulk_result = a.step_bulk(refs);
        let flat_result = b.step(&flat);
        match (bulk_result, flat_result) {
            (Err(e1), Err(e2)) => assert_eq!(e1, e2),
            (Ok((replies, bulk, s1)), Ok((flat_replies, s2))) => {
                assert_eq!(s1, s2, "stats diverged");
                let mut pos = 0usize;
                for (i, r) in refs.iter().enumerate() {
                    match r.op {
                        MemOp::StridedRead { count, .. } => {
                            for k in 0..count as usize {
                                assert_eq!(
                                    bulk.lane(i, k),
                                    flat_replies[pos + k],
                                    "lane {k} of bulk read {i}"
                                );
                            }
                            pos += count as usize;
                        }
                        MemOp::StridedWrite { count, .. } => pos += count as usize,
                        _ => {
                            assert_eq!(replies[i], flat_replies[pos]);
                            pos += 1;
                        }
                    }
                }
            }
            (x, y) => panic!("fault behaviour diverged: {x:?} vs {y:?}"),
        }
        for addr in 0..64 {
            assert_eq!(
                a.peek(addr).unwrap(),
                b.peek(addr).unwrap(),
                "address {addr} diverged"
            );
        }
    }

    fn sread(rank: usize, base: Addr, stride: i64, count: u32) -> MemRef {
        MemRef::new(
            RefOrigin::new(0, rank),
            MemOp::StridedRead {
                base,
                stride,
                count,
            },
        )
    }

    fn swrite(
        rank: usize,
        base: Addr,
        stride: i64,
        count: u32,
        vbase: Word,
        vstride: Word,
    ) -> MemRef {
        MemRef::new(
            RefOrigin::new(0, rank),
            MemOp::StridedWrite {
                base,
                stride,
                count,
                vbase,
                vstride,
            },
        )
    }

    #[test]
    fn strided_write_then_read_roundtrips_affine() {
        let mut m = sm(CrcwPolicy::Arbitrary);
        let (_, _, stats) = m.step_bulk(&[swrite(0, 4, 2, 16, 100, 7)]).unwrap();
        assert_eq!(stats.refs, 16);
        for k in 0..16 {
            assert_eq!(m.peek(4 + 2 * k).unwrap(), 100 + 7 * k as Word);
        }
        let (replies, bulk, _) = m.step_bulk(&[sread(0, 4, 2, 16)]).unwrap();
        assert_eq!(replies[0], None); // bulk replies bypass the scalar slot
        assert_eq!(
            bulk.get(0),
            Some(BulkView::Affine(Seg {
                len: 16,
                base: 100,
                stride: 7
            })),
            "an affine sweep must read back in compressed form"
        );
    }

    #[test]
    fn non_affine_gather_returns_values() {
        let mut m = sm(CrcwPolicy::Arbitrary);
        m.poke(10, 5).unwrap();
        m.poke(11, 6).unwrap();
        m.poke(12, 99).unwrap();
        let (_, bulk, _) = m.step_bulk(&[sread(0, 10, 1, 3)]).unwrap();
        assert_eq!(bulk.get(0), Some(BulkView::Values(&[5, 6, 99])));
    }

    #[test]
    fn bulk_fast_path_matches_expansion_when_disjoint() {
        for policy in [
            CrcwPolicy::Arbitrary,
            CrcwPolicy::Priority,
            CrcwPolicy::Common,
            CrcwPolicy::Crew,
            CrcwPolicy::Erew,
        ] {
            // One read sweep, one write sweep, and scalar traffic — all
            // address-disjoint.
            assert_bulk_matches_expansion(
                policy,
                &[
                    sread(0, 0, 2, 8),
                    swrite(8, 1, 2, 8, -4, 3),
                    rref(16, 63),
                    wref(17, 33, 7),
                ],
            );
        }
    }

    #[test]
    fn overlapping_bulk_falls_back_to_expansion() {
        // Zero-stride bulk write: every lane hits one address; the CRCW
        // policy decides (Arbitrary: highest lane rank wins).
        assert_bulk_matches_expansion(CrcwPolicy::Arbitrary, &[swrite(0, 9, 0, 5, 10, 1)]);
        let mut m = sm(CrcwPolicy::Arbitrary);
        m.step_bulk(&[swrite(0, 9, 0, 5, 10, 1)]).unwrap();
        assert_eq!(m.peek(9).unwrap(), 14);

        // Bulk write crossing a scalar read and a scalar write.
        for policy in [CrcwPolicy::Arbitrary, CrcwPolicy::Priority] {
            assert_bulk_matches_expansion(
                policy,
                &[swrite(0, 0, 3, 10, 50, 5), rref(10, 6), wref(11, 9, -1)],
            );
        }
        // Two overlapping sweeps with equal strides.
        assert_bulk_matches_expansion(
            CrcwPolicy::Arbitrary,
            &[swrite(0, 0, 2, 10, 1, 1), swrite(10, 4, 2, 10, 2, 2)],
        );
        // EREW must fault on the collision exactly as the expansion does.
        assert_bulk_matches_expansion(
            CrcwPolicy::Erew,
            &[swrite(0, 0, 2, 10, 1, 1), swrite(10, 4, 2, 10, 2, 2)],
        );
    }

    #[test]
    fn bulk_out_of_bounds_faults_atomically_with_first_lane() {
        let mut m = sm(CrcwPolicy::Arbitrary);
        // Lanes 0..10 at stride 7 from 22: lane 6 is the first ≥ 64.
        let e = m
            .step_bulk(&[swrite(0, 0, 1, 4, 9, 0), sread(4, 22, 7, 10)])
            .unwrap_err();
        assert!(matches!(e, MemError::OutOfBounds { addr: 64, .. }));
        assert_eq!(m.peek(0).unwrap(), 0, "faulted step must not mutate");
        // A two-lane sweep whose second lane crosses the boundary.
        let e = m.step_bulk(&[sread(0, 63, 1, 2)]).unwrap_err();
        assert!(matches!(e, MemError::OutOfBounds { addr: 64, .. }));
    }

    #[test]
    fn bulk_module_stats_match_expansion() {
        // Strides that are coprime with, divide, and share factors with
        // the module count, plus descending progressions.
        for (base, stride, count) in [
            (0usize, 1i64, 13u32),
            (5, 3, 9),
            (0, 4, 10),
            (2, 6, 7),
            (63, -2, 20),
            (8, 0, 1),
        ] {
            let refs = [sread(0, base, stride, count)];
            let mut a = sm(CrcwPolicy::Arbitrary);
            let mut b = sm(CrcwPolicy::Arbitrary);
            let (_, _, s1) = a.step_bulk(&refs).unwrap();
            let (_, s2) = b.step(&expand(&refs)).unwrap();
            assert_eq!(s1.per_module, s2.per_module, "stride {stride}");
            assert_eq!(s1.refs, s2.refs);
        }
    }

    #[test]
    fn step_bulk_without_bulk_refs_matches_step() {
        let refs = [rref(0, 5), wref(1, 5, 70), wref(2, 9, 4)];
        let mut a = sm(CrcwPolicy::Arbitrary);
        let mut b = sm(CrcwPolicy::Arbitrary);
        let (r1, bulk, s1) = a.step_bulk(&refs).unwrap();
        let (r2, s2) = b.step(&refs).unwrap();
        assert_eq!(r1, r2);
        assert_eq!(s1, s2);
        assert!(bulk.get(0).is_none());
    }

    #[test]
    fn load_data_places_blocks() {
        let mut m = sm(CrcwPolicy::Arbitrary);
        m.load_data(&[DataBlock {
            base: 8,
            words: vec![1, 2, 3],
        }])
        .unwrap();
        assert_eq!(m.peek_range(8, 3).unwrap(), vec![1, 2, 3]);
    }

    #[test]
    fn stats_track_module_loads() {
        let mut m = sm(CrcwPolicy::Arbitrary);
        // Interleaved over 4 modules: addresses 0,4,8 hit module 0.
        let (_, stats) = m
            .step(&[rref(0, 0), rref(1, 4), rref(2, 8), rref(3, 1)])
            .unwrap();
        assert_eq!(stats.per_module[0], 3);
        assert_eq!(stats.max_module_load(), 3);
    }
}
