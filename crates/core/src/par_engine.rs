//! The deterministic parallel execution engine for the synchronous
//! variants.
//!
//! Opt-in via [`TcfMachine::set_engine`] or the `TCF_ENGINE` environment
//! variable (`seq` or `par:<workers>`). The engine shards the two
//! embarrassingly parallel regions of a synchronous step across a
//! persistent worker pool, keeping the step phases as barriers:
//!
//! * **phase 1, thick execution** — a thick instruction's fragments live on
//!   *distinct* processor groups, per-lane operations never read another
//!   lane's same-instruction writes, and local memories are per-group, so
//!   each fragment executes on its own worker against a read-only view of
//!   the registers, producing a [`FragOut`] (issue units, memory
//!   references, a register write log, a local-memory undo log). The
//!   coordinator merges the outputs in fragment order, replaying register
//!   writes through the exact `ThickRegs::set` sequence the sequential
//!   engine performs — bit-identical down to the `Uniform`/`PerThread`
//!   representation.
//! * **phase 2, shared-memory step** — an address maps to exactly one
//!   module, so per-module reference buckets resolve concurrently
//!   ([`SharedMemory::resolve_shard`]); every ordering-sensitive decision
//!   (CRCW winner, multiprefix order) is derived from thread ranks inside
//!   the shard, and the staged results commit atomically.
//!
//! Flow-wise instructions, NUMA slices and the timing phase stay on the
//! coordinator: flows interact (split/join/bunch absorption, shared local
//! memories), and the network's link/service reservations are
//! order-dependent, so parallelizing them could not be bit-identical. See
//! `docs/PARALLEL.md` for the full determinism argument.
//!
//! Both engines execute thick lanes through the same
//! [`exec_thick_lanes`]/[`TcfMachine::merge_frag_outs`] pair — the
//! sequential engine simply runs the fragments inline — so the differential
//! conformance suite (`tests/engine_differential.rs`) guards the merge
//! logic rather than two divergent interpreters.
//!
//! [`SharedMemory::resolve_shard`]: tcf_mem::SharedMemory::resolve_shard

use std::collections::{HashMap, VecDeque};
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

use tcf_isa::instr::{MemSpace, MultiKind, Operand};
use tcf_isa::op::AluOp;
use tcf_isa::reg::Reg;
use tcf_isa::word::{to_addr, Addr, Word};
use tcf_machine::{MachineConfig, UnitSeq};
use tcf_mem::{
    LocalMemory, MemError, MemOp, MemRef, RefOrigin, ShardOutcome, SharedMemory, StepStats,
};
use tcf_obs::{FlowEvent, ObsSink};

use crate::decoded::DecodedInst;
use crate::error::TcfError;
use crate::flow::{Flow, Fragment};
use crate::lanes::{self, LanePlanes};
use crate::machine::{special_stride, special_value, TcfMachine};
use crate::semantics::{lane, MemPort, StepPort, StepSink, WbTarget, Writeback};
use crate::thick::{affine_alu, LaneMask, MaskError, Seg, ThickRegs, MASK_RUN_BUDGET};

/// Which execution engine a machine steps with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// The default single-threaded engine.
    Sequential,
    /// The deterministic parallel engine: fragment and memory-module work
    /// sharded over `workers` host threads (the coordinating thread counts
    /// as one worker). `workers == 1` exercises the parallel code path
    /// without spawning threads.
    Parallel {
        /// Total worker count, coordinator included (clamped to ≥ 1).
        workers: usize,
    },
}

impl Engine {
    /// Parses an engine spec: `seq`/`sequential` or `par:<workers>`.
    pub fn from_spec(spec: &str) -> Option<Engine> {
        let s = spec.trim();
        if s.eq_ignore_ascii_case("seq") || s.eq_ignore_ascii_case("sequential") {
            return Some(Engine::Sequential);
        }
        let n = s.strip_prefix("par:")?;
        let workers: usize = n.trim().parse().ok()?;
        Some(Engine::Parallel {
            workers: workers.max(1),
        })
    }

    /// The engine selected by the `TCF_ENGINE` environment variable
    /// (`Sequential` when unset or unparseable).
    pub fn from_env() -> Engine {
        std::env::var("TCF_ENGINE")
            .ok()
            .and_then(|s| Engine::from_spec(&s))
            .unwrap_or(Engine::Sequential)
    }

    /// Whether this is the parallel engine.
    pub fn is_parallel(&self) -> bool {
        matches!(self, Engine::Parallel { .. })
    }
}

// ---------------------------------------------------------------------------
// Worker pool
// ---------------------------------------------------------------------------

type StaticTask = Box<dyn FnOnce() + Send + 'static>;

struct BatchState {
    remaining: usize,
    panic: Option<Box<dyn std::any::Any + Send>>,
}

struct Batch {
    state: Mutex<BatchState>,
    done: Condvar,
}

struct PoolInner {
    queue: Mutex<VecDeque<StaticTask>>,
    work_ready: Condvar,
}

/// A persistent pool of host worker threads. Pools are process-global
/// (keyed by worker count, see [`global_pool`]) so repeated short steps
/// reuse warm threads instead of paying a spawn per step; idle workers
/// park on a condvar.
pub struct WorkerPool {
    inner: Arc<PoolInner>,
    workers: usize,
}

impl WorkerPool {
    /// A pool where `workers` threads (including the calling coordinator)
    /// drain each batch; `workers - 1` background threads are spawned.
    fn new(workers: usize) -> WorkerPool {
        let inner = Arc::new(PoolInner {
            queue: Mutex::new(VecDeque::new()),
            work_ready: Condvar::new(),
        });
        for _ in 1..workers {
            let inner = Arc::clone(&inner);
            std::thread::Builder::new()
                .name("tcf-par-worker".into())
                .spawn(move || worker_loop(inner))
                .expect("spawn pool worker");
        }
        WorkerPool { inner, workers }
    }

    /// Total worker count (coordinator included).
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Runs `tasks` to completion across the pool. The calling thread
    /// participates in draining the queue, then blocks until the last task
    /// finishes; a panicking task is re-raised here after the whole batch
    /// has drained.
    pub fn run<'env>(&self, tasks: Vec<Box<dyn FnOnce() + Send + 'env>>) {
        if tasks.is_empty() {
            return;
        }
        let batch = Arc::new(Batch {
            state: Mutex::new(BatchState {
                remaining: tasks.len(),
                panic: None,
            }),
            done: Condvar::new(),
        });
        {
            let mut queue = self.inner.queue.lock().expect("pool queue poisoned");
            for task in tasks {
                let b = Arc::clone(&batch);
                let wrapped: Box<dyn FnOnce() + Send + 'env> = Box::new(move || {
                    let outcome = catch_unwind(AssertUnwindSafe(task));
                    let mut st = b.state.lock().expect("batch state poisoned");
                    st.remaining -= 1;
                    if let Err(p) = outcome {
                        st.panic.get_or_insert(p);
                    }
                    if st.remaining == 0 {
                        b.done.notify_all();
                    }
                });
                // SAFETY: `run` does not return before `remaining` reaches
                // zero (the wait below), so every borrow captured by the
                // task outlives its execution on whichever thread picks it
                // up. This is the scoped-thread guarantee, applied to a
                // persistent pool.
                let wrapped: StaticTask = unsafe {
                    std::mem::transmute::<Box<dyn FnOnce() + Send + 'env>, StaticTask>(wrapped)
                };
                queue.push_back(wrapped);
            }
            self.inner.work_ready.notify_all();
        }
        // The coordinator drains too — essential on hosts where it holds
        // the only runnable CPU, and it keeps `workers == 1` pools valid
        // with zero background threads.
        loop {
            let task = self
                .inner
                .queue
                .lock()
                .expect("pool queue poisoned")
                .pop_front();
            match task {
                Some(t) => t(),
                None => break,
            }
        }
        let mut st = batch.state.lock().expect("batch state poisoned");
        while st.remaining > 0 {
            st = batch.done.wait(st).expect("batch state poisoned");
        }
        if let Some(p) = st.panic.take() {
            drop(st);
            resume_unwind(p);
        }
    }
}

fn worker_loop(inner: Arc<PoolInner>) {
    loop {
        let task = {
            let mut queue = inner.queue.lock().expect("pool queue poisoned");
            loop {
                if let Some(t) = queue.pop_front() {
                    break t;
                }
                queue = inner.work_ready.wait(queue).expect("pool queue poisoned");
            }
        };
        task();
    }
}

/// The process-global pool for `workers` total workers. Machines with the
/// same `par:<N>` engine share one pool; threads persist for the process
/// lifetime and park when idle.
pub fn global_pool(workers: usize) -> Arc<WorkerPool> {
    static POOLS: OnceLock<Mutex<HashMap<usize, Arc<WorkerPool>>>> = OnceLock::new();
    let pools = POOLS.get_or_init(|| Mutex::new(HashMap::new()));
    let mut pools = pools.lock().expect("pool registry poisoned");
    Arc::clone(
        pools
            .entry(workers)
            .or_insert_with(|| Arc::new(WorkerPool::new(workers))),
    )
}

// ---------------------------------------------------------------------------
// Engine-shared thick-lane executor
// ---------------------------------------------------------------------------

/// Read-only context for executing one slice's lanes of a thick
/// instruction. Everything mutable lands in a [`FragOut`] or goes through
/// the slice's [`MemPort`].
pub(crate) struct ThickCtx<'a> {
    pub flow: &'a Flow,
    pub instr: DecodedInst,
    pub group: usize,
    pub config: &'a MachineConfig,
    pub step: u64,
}

/// One fragment's outputs from a thick instruction, merged by the
/// coordinator in fragment order (see [`TcfMachine::merge_frag_outs`]).
pub(crate) struct FragOut {
    pub frag: Fragment,
    pub range: Range<usize>,
    /// Issue units for `frag.group`, in lane order (run-length compressed
    /// when the slice executed in closed form).
    pub units: Vec<UnitSeq>,
    /// Shared-memory references in lane order (one strided bulk reference
    /// stands for a whole run on the compressed path), the write-backs
    /// waiting on them (`ref_idx` relative to this slice's references),
    /// and the slice's local-memory undo log.
    pub mem: StepSink,
    /// Affine register writes as `(rd, base lane, count, vbase, vstride)`
    /// — the compressed path's counterpart of `reg_runs`, replayed by the
    /// coordinator through `ThickRegs::write_affine`. A slice populates
    /// either this or `reg_runs`, never both.
    pub reg_affine: Vec<(Reg, usize, usize, Word, Word)>,
    /// Register writes as contiguous lane runs `(rd, base lane, range
    /// into reg_values)`, replayed by the coordinator through
    /// `ThickRegs::write_lanes` (bit-identical to an ascending per-lane
    /// replay). Lanes execute in ascending order writing one register per
    /// instruction, so a slice's whole log is typically ONE run — the
    /// flat encoding makes the replay a bulk copy instead of a per-lane
    /// representation decision.
    pub reg_runs: Vec<(Reg, usize, Range<usize>)>,
    /// Backing values of `reg_runs`, in push order.
    pub reg_values: Vec<Word>,
    /// Worker-side observability events, absorbed in fragment order.
    pub obs: ObsSink,
    /// First fault; lanes after it did not execute.
    pub fault: Option<TcfError>,
    /// Whether the slice executed on the closed-form compressed path
    /// (feeds the `engine.compressed_slices` counter).
    pub compressed: bool,
    /// Whether the slice stayed closed-form *through divergence* — a lane
    /// mask or piecewise operand split was used (feeds `engine.mask_hits`).
    pub mask_hit: bool,
    /// Whether a masked / piecewise attempt fell back to the per-lane path
    /// (feeds `engine.mask_misses`).
    pub mask_miss: bool,
    /// Whether the fallback was specifically the mask-run budget — the
    /// `decay_mask_runs` reason of the decay taxonomy.
    pub mask_decay: bool,
    /// Pooled structure-of-arrays operand planes for the vectorized
    /// per-lane fallback ([`exec_thick_vector`]); capacity survives
    /// `reset`, so steady-state slices gather operands allocation-free.
    pub planes: LanePlanes,
    /// Pooled run-length scratch of the masked compressed path; capacity
    /// survives `reset`.
    pub scratch: MaskScratch,
}

/// Pooled buffers of the masked compressed executor: the condition's lane
/// mask and two piece lists for operand splitting.
#[derive(Debug, Default)]
pub(crate) struct MaskScratch {
    pub mask: LaneMask,
    pub a: Vec<Seg>,
    pub b: Vec<Seg>,
}

impl FragOut {
    /// A pool placeholder; [`reset`](FragOut::reset) before use.
    pub(crate) fn empty() -> FragOut {
        FragOut {
            frag: Fragment::new(0, 0, 0),
            range: 0..0,
            units: Vec::new(),
            mem: StepSink::default(),
            reg_runs: Vec::new(),
            reg_values: Vec::new(),
            reg_affine: Vec::new(),
            obs: ObsSink::disabled(),
            fault: None,
            compressed: false,
            mask_hit: false,
            mask_miss: false,
            mask_decay: false,
            planes: LanePlanes::default(),
            scratch: MaskScratch::default(),
        }
    }

    /// Rearms a pooled output for one slice, keeping every buffer's
    /// allocation.
    pub(crate) fn reset(&mut self, frag: Fragment, range: Range<usize>, obs_enabled: bool) {
        self.frag = frag;
        self.range = range;
        self.units.clear();
        self.mem.clear();
        self.reg_runs.clear();
        self.reg_values.clear();
        self.reg_affine.clear();
        self.obs = if obs_enabled {
            ObsSink::recording()
        } else {
            ObsSink::disabled()
        };
        self.fault = None;
        self.compressed = false;
        self.mask_hit = false;
        self.mask_miss = false;
        self.mask_decay = false;
    }

    /// Appends one lane's register write, extending the current run when
    /// it continues the same register at the next lane.
    #[inline]
    fn log_reg(&mut self, rd: Reg, e: usize, v: Word) {
        let n = self.reg_values.len();
        if let Some((lrd, base, range)) = self.reg_runs.last_mut() {
            if *lrd == rd && *base + (range.end - range.start) == e && range.end == n {
                self.reg_values.push(v);
                range.end = n + 1;
                return;
            }
        }
        self.reg_values.push(v);
        self.reg_runs.push((rd, e, n..n + 1));
    }

    /// Logs consecutive affine runs of `rd` starting at lane `at`.
    fn log_affine_runs(&mut self, rd: Reg, mut at: usize, runs: &[Seg]) {
        for s in runs {
            self.reg_affine
                .push((rd, at, s.len as usize, s.base, s.stride));
            at += s.len as usize;
        }
    }

    /// Replays the slice's register logs into `regs` (of a flow of
    /// thickness `t`) — the exact `ThickRegs` write sequence an ascending
    /// per-lane execution performs. A slice logs register writes either
    /// per-lane (`reg_runs`) or compressed (`reg_affine`), never both, so
    /// replay order between the two logs is immaterial. Returns how many
    /// compressed registers the lane runs decayed.
    pub(crate) fn replay_regs(&self, regs: &mut ThickRegs, t: usize) -> u64 {
        let mut decays = 0;
        for (rd, base, range) in &self.reg_runs {
            decays += regs.write_lanes(*rd, *base, &self.reg_values[range.clone()], t) as u64;
        }
        for &(rd, base, count, vbase, vstride) in &self.reg_affine {
            regs.write_affine(rd, base, count, vbase, vstride, t);
        }
        decays
    }
}

/// Lane addresses `to_addr(lane_value + off)` of an affine base operand
/// as an exact strided progression, when per-lane wrapping and clamping
/// provably cannot kick in: the exact (i128) progression must stay in
/// `[0, i64::MAX]` — it is monotone, so checking both endpoints covers
/// every lane (the wrapped per-lane i64 result is the unique
/// representative of the exact value's residue class in i64 range, hence
/// equal to it, and `to_addr` is the identity on non-negatives) — and the
/// module map must advance by a constant node step per lane
/// ([`SharedMemory::strided_node_step`]; low-order interleaving only).
/// Returns lane 0's address and the node step.
fn strided_addr(
    shared: &SharedMemory,
    ab: Word,
    off: Word,
    astride: Word,
    len: usize,
) -> Option<(Addr, usize)> {
    let w0 = (ab as i128) + (off as i128);
    let wlast = w0 + (astride as i128) * ((len - 1) as i128);
    let max = i64::MAX as i128;
    if w0 < 0 || w0 > max || wlast < 0 || wlast > max {
        return None;
    }
    let node_step = shared.strided_node_step(astride)?;
    Some((w0 as Addr, node_step))
}

/// Walks two piece lists covering the same lane count in lockstep,
/// calling `f(start, len, a_run, b_run)` once per maximal sub-run over
/// which both lists are single progressions — the union of the two run
/// boundary sets. Aborts (returning `false`) as soon as `f` does.
fn each_piece_pair(
    a: &[Seg],
    b: &[Seg],
    mut f: impl FnMut(usize, usize, (Word, Word), (Word, Word)) -> bool,
) -> bool {
    let (mut ai, mut aoff) = (0usize, 0usize);
    let (mut bi, mut boff) = (0usize, 0usize);
    let mut at = 0usize;
    while ai < a.len() && bi < b.len() {
        let ra = a[ai].len as usize - aoff;
        let rb = b[bi].len as usize - boff;
        let n = ra.min(rb);
        let ar = (a[ai].get(aoff), a[ai].stride);
        let br = (b[bi].get(boff), b[bi].stride);
        if !f(at, n, ar, br) {
            return false;
        }
        at += n;
        aoff += n;
        boff += n;
        if aoff == a[ai].len as usize {
            ai += 1;
            aoff = 0;
        }
        if boff == b[bi].len as usize {
            bi += 1;
            boff = 0;
        }
    }
    true
}

/// Why a closed-form attempt handed its slice to the per-lane rungs,
/// ordered by what the counters record.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Escape {
    /// The single-run fast path declined; nothing masked or piecewise was
    /// attempted.
    Plain,
    /// A masked / piecewise attempt met explicit lanes, an inexact
    /// progression or an unguardable address (`engine.mask_misses`).
    Miss,
    /// The run count passed [`MASK_RUN_BUDGET`] (`decay_mask_runs`, and a
    /// miss).
    Budget,
}

impl From<MaskError> for Escape {
    fn from(e: MaskError) -> Escape {
        match e {
            MaskError::Lanes => Escape::Miss,
            MaskError::Budget => Escape::Budget,
        }
    }
}

/// `Ok(masked)`: the slice completed in closed form, `masked` when it got
/// there through a lane mask or a piecewise operand split
/// (`engine.mask_hits`).
type Closed = Result<bool, Escape>;

/// Appends the affine pieces of operand `o` over lanes `[lo, lo + len)`
/// to the cleared `dst`; a miss on explicit lanes.
fn pieces(
    flow: &Flow,
    o: Operand,
    lo: usize,
    len: usize,
    dst: &mut Vec<Seg>,
) -> Result<(), Escape> {
    dst.clear();
    let ok = match o {
        Operand::Reg(r) => flow.regs.value(r).piece_runs(lo, len, dst),
        Operand::Imm(w) => {
            dst.push(Seg {
                len: len as u32,
                base: w,
                stride: 0,
            });
            true
        }
    };
    ok.then_some(()).ok_or(Escape::Miss)
}

/// One closed-form attempt at a slice: the per-opcode-class arms of
/// [`exec_thick_compressed`] and the state they share (the pooled
/// [`MaskScratch`] is passed beside it, so an arm can walk a piece list
/// while it emits).
struct ClosedForm<'a> {
    ctx: &'a ThickCtx<'a>,
    out: &'a mut FragOut,
    /// Module map and reference sink of a reference-collecting port.
    /// `None` under the direct port: there memory applies lane by lane in
    /// execution order, so memory instructions always take the lane loop.
    bulk: Option<(&'a SharedMemory, &'a mut StepSink)>,
    lo: usize,
    len: usize,
}

impl<'a> ClosedForm<'a> {
    fn affine_reg(&self, r: Reg) -> Option<(Word, Word)> {
        self.ctx.flow.regs.value(r).affine_over(self.lo, self.len)
    }

    fn affine_opnd(&self, o: Operand) -> Option<(Word, Word)> {
        match o {
            Operand::Reg(r) => self.affine_reg(r),
            Operand::Imm(w) => Some((w, 0)),
        }
    }

    fn compute_run(&mut self, thread0: usize, count: usize) {
        self.out.units.push(UnitSeq::ComputeRun {
            flow: self.ctx.flow.id,
            thread0,
            count,
        });
    }

    /// The whole slice of `rd` becomes one progression.
    fn whole(&mut self, rd: Reg, (vbase, vstride): (Word, Word)) -> Closed {
        self.out
            .reg_affine
            .push((rd, self.lo, self.len, vbase, vstride));
        self.compute_run(self.lo, self.len);
        Ok(false)
    }

    fn alu(&mut self, s: &mut MaskScratch, op: AluOp, rd: Reg, ra: Reg, rb: Operand) -> Closed {
        let (flow, lo, len) = (self.ctx.flow, self.lo, self.len);
        // Single-run fast path: both operands are one progression over
        // the whole slice.
        if let (Some(a), Some(b)) = (self.affine_reg(ra), self.affine_opnd(rb)) {
            let runs = affine_alu(op, a, b, len).ok_or(Escape::Plain)?;
            self.out.log_affine_runs(rd, lo, runs.runs());
            self.compute_run(lo, len);
            return Ok(false);
        }
        // Piecewise path: split at the union of both operands' run
        // boundaries and fold each sub-run. This keeps comparison
        // results over `Segments` operands compressed — they become
        // runs (masks) instead of decaying to lanes.
        pieces(flow, Operand::Reg(ra), lo, len, &mut s.a)?;
        pieces(flow, rb, lo, len, &mut s.b)?;
        if s.a.len().max(s.b.len()) > MASK_RUN_BUDGET {
            return Err(Escape::Budget);
        }
        let folded = each_piece_pair(&s.a, &s.b, |start, n, ar, br| {
            let Some(runs) = affine_alu(op, ar, br, n) else {
                return false;
            };
            self.out.log_affine_runs(rd, lo + start, runs.runs());
            true
        });
        if !folded {
            return Err(Escape::Miss);
        }
        self.compute_run(lo, len);
        Ok(true)
    }

    fn sel(&mut self, s: &mut MaskScratch, rd: Reg, cond: Reg, rt: Reg, rf: Operand) -> Closed {
        let (flow, lo, len) = (self.ctx.flow, self.lo, self.len);
        // Uniform condition over the slice: every lane takes the same
        // branch, so the result is the chosen operand's run.
        if let Some((c, 0)) = self.affine_reg(cond) {
            let chosen = if c != 0 {
                self.affine_reg(rt)
            } else {
                self.affine_opnd(rf)
            };
            if let Some(run) = chosen {
                return self.whole(rd, run);
            }
        }
        // Masked path: classify the condition's truthiness into a
        // run-length lane mask and let each run take its branch's pieces.
        // A uniform condition with a piecewise chosen operand lands here
        // too — the mask is then a single run.
        s.mask
            .rebuild(flow.regs.value(cond), lo, len, MASK_RUN_BUDGET)?;
        let mut emitted = 0usize;
        for run in s.mask.runs() {
            let src = if run.set { Operand::Reg(rt) } else { rf };
            pieces(flow, src, lo + run.start, run.len, &mut s.a)?;
            emitted += s.a.len();
            if emitted > MASK_RUN_BUDGET {
                return Err(Escape::Budget);
            }
            self.out.log_affine_runs(rd, lo + run.start, &s.a);
        }
        self.compute_run(lo, len);
        Ok(true)
    }

    /// Emits the run-length form of `count` lanes from `thread0` referencing
    /// shared memory from address `a0` on: one [`UnitSeq::SharedRun`], one
    /// bulk reference `op`, and — when the reference replies — the lane
    /// window write-back into `rd`.
    fn emit_bulk(
        &mut self,
        thread0: usize,
        count: usize,
        (a0, node_step): (Addr, usize),
        rd: Option<Reg>,
        op: MemOp,
    ) {
        let flow = self.ctx.flow;
        let (shared, sink) = self.bulk.as_mut().expect("memory arms hold the sink");
        self.out.units.push(UnitSeq::SharedRun {
            flow: flow.id,
            thread0,
            count,
            node0: shared.module_of(a0),
            node_step,
            nodes: shared.modules(),
        });
        let target = WbTarget::Lanes {
            base: thread0,
            count,
        };
        sink.push(
            RefOrigin::new(self.ctx.group, flow.rank_base + thread0),
            op,
            rd.map(|rd| (flow.id, rd, target)),
        );
    }

    fn shared(&self) -> Result<&'a SharedMemory, Escape> {
        self.bulk.as_ref().map(|b| b.0).ok_or(Escape::Plain)
    }

    fn ld(&mut self, s: &mut MaskScratch, rd: Reg, base: Reg, off: Word) -> Closed {
        let shared = self.shared()?;
        let (flow, lo, len) = (self.ctx.flow, self.lo, self.len);
        let read = |a0, stride, count: usize| MemOp::StridedRead {
            base: a0,
            stride,
            count: count as u32,
        };
        if let Some((ab, astride)) = self.affine_reg(base) {
            let at = strided_addr(shared, ab, off, astride, len).ok_or(Escape::Plain)?;
            self.emit_bulk(lo, len, at, Some(rd), read(at.0, astride, len));
            return Ok(false);
        }
        // Piecewise base: one strided read per address-progression run,
        // each with its own lane-window writeback — the replies still
        // land closed-form via `BulkView`.
        pieces(flow, Operand::Reg(base), lo, len, &mut s.a)?;
        if s.a.len() > MASK_RUN_BUDGET {
            return Err(Escape::Budget);
        }
        let mut thread0 = lo;
        for p in &s.a {
            let m = p.len as usize;
            let at = strided_addr(shared, p.base, off, p.stride, m).ok_or(Escape::Miss)?;
            self.emit_bulk(thread0, m, at, Some(rd), read(at.0, p.stride, m));
            thread0 += m;
        }
        Ok(true)
    }

    /// The closed-form stores of lanes `[sub_lo, sub_lo + n)` — one bulk
    /// `StridedWrite` per sub-run of the union split of the base and value
    /// registers' run boundaries. Escapes `Plain` when either register
    /// holds explicit lanes or an address progression escapes the
    /// [`strided_addr`] guard, `Budget` past the run budget.
    fn strided_store(
        &mut self,
        s: &mut MaskScratch,
        base: Reg,
        off: Word,
        rs: Reg,
        sub_lo: usize,
        n: usize,
    ) -> Result<(), Escape> {
        let shared = self.shared()?;
        let flow = self.ctx.flow;
        s.a.clear();
        s.b.clear();
        if !flow.regs.value(base).piece_runs(sub_lo, n, &mut s.a)
            || !flow.regs.value(rs).piece_runs(sub_lo, n, &mut s.b)
        {
            return Err(Escape::Plain);
        }
        if s.a.len().max(s.b.len()) > MASK_RUN_BUDGET {
            return Err(Escape::Budget);
        }
        let stored = each_piece_pair(&s.a, &s.b, |start, m, (ab, astride), (vbase, vstride)| {
            let Some(at) = strided_addr(shared, ab, off, astride, m) else {
                return false;
            };
            let op = MemOp::StridedWrite {
                base: at.0,
                stride: astride,
                count: m as u32,
                vbase,
                vstride,
            };
            self.emit_bulk(sub_lo + start, m, at, None, op);
            true
        });
        stored.then_some(()).ok_or(Escape::Plain)
    }

    /// `st` (`cond == None`) and `stmasked`.
    fn st(
        &mut self,
        s: &mut MaskScratch,
        cond: Option<Reg>,
        rs: Reg,
        base: Reg,
        off: Word,
    ) -> Closed {
        self.shared()?;
        let (lo, len) = (self.lo, self.len);
        // Resolve the store mask. `St` and a uniformly-selected
        // `StMasked` store every lane; a divergent `StMasked` condition
        // classifies into truthiness runs so the write splits at run
        // boundaries instead of materializing lanes.
        let mut masked = false;
        if let Some(cond) = cond {
            match self.affine_reg(cond) {
                // Uniformly masked out: every lane still burns its issue
                // slot as a compute unit.
                Some((0, 0)) => {
                    self.compute_run(lo, len);
                    return Ok(false);
                }
                Some((_, 0)) => {} // uniformly selected: plain store
                _ => {
                    let cv = self.ctx.flow.regs.value(cond);
                    s.mask.rebuild(cv, lo, len, MASK_RUN_BUDGET)?;
                    masked = true;
                }
            }
        }
        let emitted = |cf: &Self| cf.bulk.as_ref().map_or(0, |b| b.1.refs.len());
        let refs0 = emitted(self);
        if !masked {
            self.strided_store(s, base, off, rs, lo, len)?;
            // A single strided ref is the pre-mask fast path; more than
            // one means a piecewise operand stayed closed-form.
            return Ok(emitted(self) - refs0 > 1);
        }
        // Emitting runs in lane order — set runs become strided writes,
        // clear runs burn their issue slots as compute units — expands to
        // exactly the per-lane sequence.
        let mask = std::mem::take(&mut s.mask);
        let mut res = Ok(true);
        for run in mask.runs() {
            if !run.set {
                self.compute_run(lo + run.start, run.len);
                continue;
            }
            if let Err(e) = self.strided_store(s, base, off, rs, lo + run.start, run.len) {
                res = Err(e.max(Escape::Miss));
                break;
            }
            if emitted(self) - refs0 > MASK_RUN_BUDGET {
                res = Err(Escape::Budget);
                break;
            }
        }
        s.mask = mask;
        res
    }

    /// `multiop` (`rd == None`) and `multiprefix`: one [`MemOp::BulkMulti`]
    /// per sub-run of the union split of the base and contribution
    /// registers; the single-progression case is just a one-piece walk.
    fn multi(
        &mut self,
        s: &mut MaskScratch,
        kind: MultiKind,
        rd: Option<Reg>,
        base: Reg,
        off: Word,
        rs: Reg,
    ) -> Closed {
        let shared = self.shared()?;
        let (flow, lo, len) = (self.ctx.flow, self.lo, self.len);
        pieces(flow, Operand::Reg(base), lo, len, &mut s.a)?;
        pieces(flow, Operand::Reg(rs), lo, len, &mut s.b)?;
        if s.a.len().max(s.b.len()) > MASK_RUN_BUDGET {
            return Err(Escape::Budget);
        }
        let piecewise = s.a.len() > 1 || s.b.len() > 1;
        let ok = each_piece_pair(&s.a, &s.b, |start, m, (ab, astride), (vbase, vstride)| {
            let at = if astride == 0 {
                // Uniform base: every lane targets one word, and the
                // per-lane wrap/clamp applies identically to each lane —
                // no exactness guard needed, and the single module works
                // under any map (node step 0).
                (to_addr(ab.wrapping_add(off)), 0)
            } else {
                match strided_addr(shared, ab, off, astride, m) {
                    Some(x) => x,
                    None => return false,
                }
            };
            let op = MemOp::BulkMulti {
                kind,
                prefix: rd.is_some(),
                base: at.0,
                astride,
                count: m as u32,
                vbase,
                vstride,
            };
            self.emit_bulk(lo + start, m, at, rd, op);
            true
        });
        match (ok, piecewise) {
            (true, _) => Ok(piecewise),
            (false, true) => Err(Escape::Miss),
            (false, false) => Err(Escape::Plain),
        }
    }
}

/// Attempts to execute the whole slice in closed form: when every operand
/// the instruction reads is stride-compressed (uniform, affine or a
/// segment run) over the slice's lanes, the per-lane loop collapses to
/// O(#runs) affine algebra — run-length [`UnitSeq`] spans, an affine
/// register-write log, and (for shared-memory traffic on a
/// reference-collecting port) strided bulk references. Divergence does not
/// force a fallback: a non-uniform `Sel`/`StMasked` condition classifies
/// into a run-length [`LaneMask`] and each run executes its branch
/// closed-form, while operands whose range straddles `Segments` boundaries
/// split at the union of their run boundaries ([`each_piece_pair`]) — so
/// comparisons over compressed operands produce masks (segment runs)
/// instead of decaying. Returns `false` to fall back to the per-lane rungs
/// only when the algebra genuinely escapes (per-thread operands, guarded
/// comparisons out of exact range, wrapping/clamping addresses, hashed
/// module maps on strided targets, local memory, a direct port) or when
/// the run count exceeds [`MASK_RUN_BUDGET`]; the [`Escape`] says which,
/// and everything the attempt emitted is unwound.
///
/// Bit-identity with the per-lane path holds by construction: ALU folding
/// goes through [`affine_alu`] (exact mod 2^64; comparisons only when
/// both progressions are provably exact), mask classification only
/// happens on exact progressions, strided addresses are only emitted
/// under the [`strided_addr`] guard, and every run-length unit/reference
/// sequence expands to exactly the per-lane sequence in lane order.
///
/// [`LaneMask`]: crate::thick::LaneMask
fn exec_thick_compressed(
    ctx: &ThickCtx<'_>,
    bulk: Option<(&SharedMemory, &mut StepSink)>,
    out: &mut FragOut,
    scratch: &mut MaskScratch,
) -> bool {
    let (lo, len) = (out.range.start, out.range.len());
    if len == 0 {
        out.compressed = true;
        return true;
    }
    let flow = ctx.flow;
    let marks = (out.units.len(), out.reg_affine.len());
    let sink_marks = bulk.as_ref().map(|(_, s)| (s.refs.len(), s.wbs.len()));
    let mut cf = ClosedForm {
        ctx,
        out,
        bulk,
        lo,
        len,
    };
    let closed = match ctx.instr {
        DecodedInst::Alu { op, rd, ra, rb } => cf.alu(scratch, op, rd, ra, rb),
        DecodedInst::Ldi { rd, imm } => cf.whole(rd, (imm, 0)),
        // Every special register is the lane index times a flow constant
        // plus a flow constant.
        DecodedInst::Mfs { rd, sr } => cf.whole(
            rd,
            (
                special_value(flow, lo, sr, ctx.config),
                special_stride(flow, sr),
            ),
        ),
        DecodedInst::Sel { rd, cond, rt, rf } => cf.sel(scratch, rd, cond, rt, rf),
        DecodedInst::Ld {
            rd,
            base,
            off,
            space: MemSpace::Shared,
        } => cf.ld(scratch, rd, base, off),
        DecodedInst::St {
            rs,
            base,
            off,
            space: MemSpace::Shared,
        } => cf.st(scratch, None, rs, base, off),
        DecodedInst::StMasked {
            cond,
            rs,
            base,
            off,
            space: MemSpace::Shared,
        } => cf.st(scratch, Some(cond), rs, base, off),
        DecodedInst::MultiOp {
            kind,
            base,
            off,
            rs,
        } => cf.multi(scratch, kind, None, base, off, rs),
        DecodedInst::MultiPrefix {
            kind,
            rd,
            base,
            off,
            rs,
        } => cf.multi(scratch, kind, Some(rd), base, off, rs),
        _ => Err(Escape::Plain),
    };
    let ClosedForm { out, bulk, .. } = cf;
    match closed {
        Ok(masked) => {
            out.compressed = true;
            out.mask_hit = masked;
        }
        // The per-lane rungs re-execute the whole slice: unwind what the
        // attempt emitted before it escaped.
        Err(escape) => {
            out.units.truncate(marks.0);
            out.reg_affine.truncate(marks.1);
            if let (Some((_, sink)), Some((refs, wbs))) = (bulk, sink_marks) {
                sink.refs.truncate(refs);
                sink.wbs.truncate(wbs);
            }
            out.mask_miss = escape >= Escape::Miss;
            out.mask_decay = escape == Escape::Budget;
        }
    }
    closed.is_ok()
}

/// Executes `out.range`'s lanes of `ctx.instr` against a read-only
/// register view, logging register writes into `out` and sending memory
/// traffic through `port`. Stops at the first fault.
///
/// Every engine and variant runs thick lanes through here — a ladder of
/// three rungs, each bit-identical to the one below it: the closed-form
/// evaluator ([`exec_thick_compressed`]), the structure-of-arrays kernels
/// for what is left of pure compute ([`exec_thick_vector`]), and the
/// scalar [`lane`] loop. Because a slice's bounds derive only from the
/// fragments and the variant's window, both engines make the same rung
/// decision for every slice.
pub(crate) fn exec_thick_lanes<P: MemPort>(ctx: &ThickCtx<'_>, port: &mut P, out: &mut FragOut) {
    // The scratch is swapped out of `out` so the rungs can borrow the
    // fragment output mutably while reusing the pooled mask/run buffers.
    let mut scratch = std::mem::take(&mut out.scratch);
    let done = exec_thick_compressed(ctx, port.bulk(), out, &mut scratch)
        || exec_thick_vector(ctx, out, &mut scratch);
    out.scratch = scratch;
    if done {
        return;
    }
    for e in out.range.clone() {
        match lane(ctx.instr, ctx.flow, e, ctx.config, port) {
            Ok((unit, write)) => {
                if let Some((rd, v)) = write {
                    out.log_reg(rd, e, v);
                }
                out.units.push(unit.into());
            }
            Err(fault) => {
                out.fault = Some(TcfError {
                    fault,
                    step: ctx.step,
                    flow: Some(ctx.flow.id),
                });
                return;
            }
        }
    }
}

/// [`exec_thick_lanes`] under the PRAM step discipline: shared references
/// and write-backs collect in `out.mem`, local traffic applies to the
/// fragment group's own `local` (which no other fragment of the
/// instruction can touch) with an undo log.
fn exec_thick_step(
    ctx: &ThickCtx<'_>,
    shared: &SharedMemory,
    local: &mut LocalMemory,
    out: &mut FragOut,
) {
    let mut sink = std::mem::take(&mut out.mem);
    let mut port = StepPort {
        shared,
        local,
        sink: &mut sink,
        flow: ctx.flow.id,
        group: ctx.group,
        rank_base: ctx.flow.rank_base,
        flowwise: false,
    };
    exec_thick_lanes(ctx, &mut port, out);
    out.mem = sink;
}

/// Vectorized per-lane rung for the pure compute instructions (`Alu`,
/// `Sel`) once the compressed path has declined — the structure-of-arrays
/// kernels of [`crate::lanes`]. Operands are gathered into the slice's
/// pooled [`LanePlanes`] via [`ThickValue::fill_lanes`] (bit-identical to
/// per-lane `regs.read`), evaluated by one chunked kernel directly into
/// `reg_values`, and logged as a single register run plus one
/// [`UnitSeq::ComputeRun`]. Both encodings are exactly what the scalar
/// loop's ascending per-lane `log_reg`/`IssueUnit::compute` pushes replay
/// to: `write_lanes` sees the same `(rd, base, values)` run, and
/// `ComputeRun` expands to the same per-lane units for timing, stats and
/// traces (the PR 4 run-length contract). Memory instructions keep the
/// scalar loop — their per-lane addresses, undo logs and first-fault stop
/// are inherently lane-serial.
///
/// [`ThickValue::fill_lanes`]: crate::thick::ThickValue::fill_lanes
fn exec_thick_vector(ctx: &ThickCtx<'_>, out: &mut FragOut, scratch: &mut MaskScratch) -> bool {
    let flow = ctx.flow;
    let lo = out.range.start;
    let len = out.range.len();
    if len == 0 {
        return false;
    }
    let rd = match ctx.instr {
        DecodedInst::Alu { op, rd, ra, rb } => {
            let a = lanes::prep(&mut out.planes.a, len);
            flow.regs.value(ra).fill_lanes(lo, a);
            let b = lanes::prep(&mut out.planes.b, len);
            match rb {
                Operand::Reg(r) => flow.regs.value(r).fill_lanes(lo, b),
                Operand::Imm(w) => b.fill(w),
            }
            out.reg_values.resize(len, 0);
            lanes::alu_lanes(op, a, b, &mut out.reg_values);
            rd
        }
        DecodedInst::Sel { rd, cond, rt, rf } => {
            let t = lanes::prep(&mut out.planes.b, len);
            flow.regs.value(rt).fill_lanes(lo, t);
            let f = lanes::prep(&mut out.planes.c, len);
            match rf {
                Operand::Reg(r) => flow.regs.value(r).fill_lanes(lo, f),
                Operand::Imm(w) => f.fill(w),
            }
            out.reg_values.resize(len, 0);
            // A condition with run structure blends run-wise through the
            // masked kernel (no per-lane condition plane); explicit lanes
            // fall back to the branchless per-lane blend.
            let cv = flow.regs.value(cond);
            if scratch.mask.rebuild(cv, lo, len, usize::MAX).is_ok() {
                lanes::select_lanes_mask(scratch.mask.runs(), t, f, &mut out.reg_values);
            } else {
                let c = lanes::prep(&mut out.planes.a, len);
                cv.fill_lanes(lo, c);
                lanes::select_lanes(c, t, f, &mut out.reg_values);
            }
            rd
        }
        _ => return false,
    };
    out.reg_runs.push((rd, lo, 0..len));
    out.units.push(UnitSeq::ComputeRun {
        flow: flow.id,
        thread0: lo,
        count: len,
    });
    true
}

/// Tries to merge a fragment's sole `BulkMulti` reference into the run at
/// the tail of `refs`. A thick multioperation compresses per slice, so
/// with `g` fragment groups it arrives as `g` rank-adjacent `BulkMulti`
/// references to the same word (or one affine target progression) — the
/// slice boundary is an engine artifact, not a semantic split, and left
/// unmerged the same-address spans trip the bulk overlap check and expand
/// to per-lane resolution. Merging requires exact continuation in rank,
/// address, contribution value and (for prefixes) the destination lane
/// window of the same flow's writeback; the merged run expands to
/// precisely the union of the two runs' lanes in the same rank order, so
/// semantics are untouched. Returns `false` (the caller appends normally)
/// whenever anything does not line up.
fn coalesce_bulk_multi(refs: &mut [MemRef], wbs: &mut [Writeback], out: &StepSink) -> bool {
    if out.refs.len() != 1 {
        return false;
    }
    let new = out.refs[0];
    let MemOp::BulkMulti {
        kind,
        prefix,
        base,
        astride,
        count,
        vbase,
        vstride,
    } = new.op
    else {
        return false;
    };
    let Some(last) = refs.last() else {
        return false;
    };
    let MemOp::BulkMulti {
        kind: lkind,
        prefix: lprefix,
        base: lbase,
        astride: lastride,
        count: lcount,
        vbase: lvbase,
        vstride: lvstride,
    } = last.op
    else {
        return false;
    };
    if kind != lkind
        || prefix != lprefix
        || astride != lastride
        || vstride != lvstride
        || new.origin.rank != last.origin.rank + lcount as usize
        || base as i128 != lbase as i128 + lcount as i128 * astride as i128
        || vbase != lvbase.wrapping_add((lcount as Word).wrapping_mul(vstride))
    {
        return false;
    }
    let merged_wb = if prefix {
        // The continuation must extend the previous slice's reply window
        // (same flow, same destination, adjacent lanes).
        if out.wbs.len() != 1 {
            return false;
        }
        let new_wb = out.wbs[0];
        let WbTarget::Lanes {
            base: nwb,
            count: nwc,
        } = new_wb.target
        else {
            return false;
        };
        let Some(wlast) = wbs.last() else {
            return false;
        };
        let WbTarget::Lanes {
            base: owb,
            count: owc,
        } = wlast.target
        else {
            return false;
        };
        if new_wb.ref_idx != 0
            || wlast.flow != new_wb.flow
            || wlast.rd != new_wb.rd
            || wlast.ref_idx != refs.len() - 1
            || owb + owc != nwb
            || nwc != count as usize
        {
            return false;
        }
        Some(WbTarget::Lanes {
            base: owb,
            count: owc + nwc,
        })
    } else {
        if !out.wbs.is_empty() {
            return false;
        }
        None
    };
    if let Some(target) = merged_wb {
        wbs.last_mut().expect("checked above").target = target;
    }
    refs.last_mut().expect("checked above").op = MemOp::BulkMulti {
        kind,
        prefix,
        base: lbase,
        astride,
        count: lcount + count,
        vbase: lvbase,
        vstride,
    };
    true
}

// ---------------------------------------------------------------------------
// Coordinator-side orchestration
// ---------------------------------------------------------------------------

impl TcfMachine {
    /// Executes the rank-contiguous `slices` of one thick instruction —
    /// inline for the sequential engine, fanned out over the worker pool
    /// for the parallel engine — and returns the fragment outputs in
    /// fragment order. Workers see a read-only flow and shared memory plus
    /// exclusive access to their fragment group's local memory.
    pub(crate) fn exec_slices(
        &mut self,
        flow: &Flow,
        instr: DecodedInst,
        slices: &[(Fragment, Range<usize>)],
        outs: &mut Vec<FragOut>,
    ) {
        let obs_on = self.obs.is_enabled();
        let step = self.steps;
        let pool = match (&self.engine, &self.pool) {
            (Engine::Parallel { .. }, Some(pool)) if slices.len() > 1 => Some(Arc::clone(pool)),
            _ => None,
        };
        while outs.len() < slices.len() {
            outs.push(FragOut::empty());
        }
        let outs = &mut outs[..slices.len()];
        for (out, &(frag, ref range)) in outs.iter_mut().zip(slices.iter()) {
            out.reset(frag, range.clone(), obs_on);
        }
        let shared = &self.shared;
        let config = &self.config;
        let locals = &mut self.locals;
        let ctx = |group: usize| ThickCtx {
            flow,
            instr,
            group,
            config,
            step,
        };
        match pool {
            None => {
                for out in outs.iter_mut() {
                    let g = out.frag.group;
                    exec_thick_step(&ctx(g), shared, &mut locals[g], out);
                }
            }
            Some(pool) => {
                // Fragments of one flow occupy distinct groups (the
                // scheduler guarantees it), so handing each slice its
                // group's local memory takes each `&mut` exactly once.
                let mut lm: Vec<Option<&mut LocalMemory>> = locals.iter_mut().map(Some).collect();
                let mut tasks: Vec<Box<dyn FnOnce() + Send + '_>> =
                    Vec::with_capacity(slices.len());
                for out in outs.iter_mut() {
                    let g = out.frag.group;
                    let local = lm[g]
                        .take()
                        .expect("fragments of one flow have distinct groups");
                    tasks.push(Box::new(move || {
                        exec_thick_step(&ctx(g), shared, local, out)
                    }));
                }
                pool.run(tasks);
            }
        }
        // Engine counters, at slice granularity. The worker assignment is
        // *virtual* (slice `i` → worker `i mod workers`), matching how the
        // pool hands out tasks, so the lane distribution is a property of
        // the slicing, not of runtime scheduling — deterministic across
        // runs and engines of the same worker count.
        let workers = match self.engine {
            Engine::Parallel { workers } => workers.max(1),
            Engine::Sequential => 1,
        };
        self.engine_counters.thick_instrs += 1;
        self.engine_counters.slices += outs.len() as u64;
        self.engine_counters.ensure_workers(workers);
        for (i, out) in outs.iter().enumerate() {
            self.tally_slice(out);
            let w = i % workers;
            self.engine_counters.worker_lanes[w] += out.range.len() as u64;
            self.engine_counters.worker_slices[w] += 1;
        }
    }

    /// Counts which rung of the thick ladder served one slice.
    pub(crate) fn tally_slice(&mut self, out: &FragOut) {
        let e = &mut self.engine_counters;
        if out.compressed {
            e.compressed_slices += 1;
        } else {
            e.per_lane_slices += 1;
        }
        e.mask_hits += out.mask_hit as u64;
        e.mask_misses += out.mask_miss as u64;
        self.thick_decay.mask_runs += out.mask_decay as u64;
    }

    /// Merges fragment outputs in fragment order: register-write replay,
    /// unit/reference accumulation (with write-back index fixup), worker
    /// sink absorption and the §3.3 spill check — the exact interleaving
    /// the sequential engine performs. On a fault, later fragments' local
    /// writes are rolled back (the sequential engine never executed them)
    /// and the first fault in fragment order is returned.
    pub(crate) fn merge_frag_outs(
        &mut self,
        flow: &mut Flow,
        outs: &mut [FragOut],
        units: &mut [Vec<UnitSeq>],
        sink: &mut StepSink,
    ) -> Result<(), TcfError> {
        let t = flow.thickness;
        let cap = self.config.reg_cache_words;
        // A merge covering fewer lanes than the thickness is a *partial*
        // instruction — a Balanced bound-split slice resumed via
        // `next_op`. Its lane writes splice a window into the register,
        // so a decay here is the price of resuming, not of the values:
        // attribute it to the `balanced_resume` taxonomy reason.
        let partial = outs.iter().map(|o| o.range.len()).sum::<usize>() < t;
        let mut fault: Option<TcfError> = None;
        for out in outs.iter_mut() {
            if fault.is_some() {
                for &(addr, old) in out.mem.local_undo.iter().rev() {
                    self.locals[out.frag.group]
                        .write(addr, old)
                        .expect("undo targets a previously written address");
                }
                continue;
            }
            // A faulting fragment's replay writes only the executed
            // prefix — the fault frontier — so its decay belongs to the
            // `fault` reason (highest priority), then `balanced_resume`,
            // then the generic lane write.
            let decays = out.replay_regs(&mut flow.regs, t);
            if out.fault.is_some() {
                self.thick_decay.fault += decays;
            } else if partial {
                self.thick_decay.balanced_resume += decays;
            } else {
                self.thick_decay.lane_write += decays;
            }
            self.engine_counters.absorbed_events += out.obs.len() as u64;
            self.obs.absorb(&out.obs);
            if out.fault.is_some() {
                fault = out.fault.take();
                continue;
            }
            let base = sink.refs.len();
            units[out.frag.group].extend_from_slice(&out.units);
            // Coalescing is only ever attempted for the compressed path's
            // single-BulkMulti shape; count its hit/miss rate there.
            let coalescable =
                out.mem.refs.len() == 1 && matches!(out.mem.refs[0].op, MemOp::BulkMulti { .. });
            if coalesce_bulk_multi(&mut sink.refs, &mut sink.wbs, &out.mem) {
                self.engine_counters.coalesce_hits += 1;
            } else {
                if coalescable {
                    self.engine_counters.coalesce_misses += 1;
                }
                sink.refs.extend_from_slice(&out.mem.refs);
                sink.wbs.extend(out.mem.wbs.iter().map(|wb| Writeback {
                    ref_idx: base + wb.ref_idx,
                    ..*wb
                }));
            }
            // §3.3 operand storage: if this fragment's per-thread register
            // footprint exceeds the cached register file, the operands
            // live in the local memory — every thick operation pays one
            // extra local access (spill traffic).
            if cap > 0 && flow.regs.per_thread_count() * out.frag.len > cap {
                units[out.frag.group].push(UnitSeq::LocalRun {
                    flow: flow.id,
                    thread0: out.range.start,
                    count: out.range.len(),
                });
                // One run-compressed spill event covers the fragment's
                // lanes: a T-thick spilling step emits O(fragments)
                // events and timing spans, never O(T) of either.
                self.stats.spill_refs += out.range.len() as u64;
                self.obs.emit(
                    self.steps,
                    self.clock,
                    FlowEvent::Spill {
                        flow: flow.id,
                        group: out.frag.group,
                        lanes: out.range.len(),
                    },
                );
            }
        }
        match fault {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    /// Phase 2: one PRAM memory step for all collected references —
    /// sequential, or sharded per module under the parallel engine. Both
    /// paths return identical replies and statistics (the shards resolve
    /// through the same per-address logic and merge in module order).
    pub(crate) fn memory_step(&mut self, refs: &[MemRef]) -> Result<StepStats, TcfError> {
        if refs.iter().any(|r| r.op.is_bulk()) {
            // Strided bulk references resolve on the coordinator under
            // BOTH engines: the disjoint fast path is already
            // O(modules + conflicting lanes), so sharding buys nothing,
            // and one code path keeps the engines trivially identical.
            let mut bulk = std::mem::take(&mut self.mem_bulk);
            let r = self
                .shared
                .step_bulk_into(
                    refs,
                    &mut self.mem_scratch,
                    &mut self.mem_replies,
                    &mut bulk,
                )
                .map_err(|e| self.host_err(e.into()));
            self.mem_bulk = bulk;
            return r;
        }
        self.mem_bulk.clear();
        let pool = match (&self.engine, &self.pool) {
            (Engine::Parallel { .. }, Some(pool))
                if refs.len() > 1 && self.shared.modules() > 1 =>
            {
                Arc::clone(pool)
            }
            _ => {
                return self
                    .shared
                    .step_into(refs, &mut self.mem_scratch, &mut self.mem_replies)
                    .map_err(|e| self.host_err(e.into()));
            }
        };
        let mut stats = self
            .shared
            .shard_refs_into(refs, &mut self.mem_buckets)
            .map_err(|e| self.host_err(e.into()))?;
        let shared = &self.shared;
        let buckets = &self.mem_buckets;
        debug_assert_eq!(buckets.len(), self.shard_scratch.len());
        let n_active = buckets.iter().filter(|b| !b.is_empty()).count();
        let mut slots: Vec<Option<Result<ShardOutcome, MemError>>> = vec![None; n_active];
        {
            let mut tasks: Vec<Box<dyn FnOnce() + Send + '_>> = Vec::with_capacity(n_active);
            let mut slot_iter = slots.iter_mut();
            // Zipping buckets with the per-module scratch keeps each
            // worker on its own buffers (workers only hold `&self.shared`).
            for (idxs, scratch) in buckets.iter().zip(self.shard_scratch.iter_mut()) {
                if idxs.is_empty() {
                    continue;
                }
                let slot = slot_iter.next().expect("one slot per active bucket");
                tasks.push(Box::new(move || {
                    *slot = Some(shared.resolve_shard_with(refs, idxs, scratch));
                }));
            }
            pool.run(tasks);
        }
        let mut outcomes: Vec<ShardOutcome> = Vec::with_capacity(slots.len());
        let mut fault: Option<MemError> = None;
        for slot in slots {
            match slot.expect("pool ran every task") {
                Ok(o) => outcomes.push(o),
                Err(e) => {
                    // The sequential step resolves addresses in ascending
                    // order: the lowest faulting address wins.
                    if fault.as_ref().map(|f| e.addr() < f.addr()).unwrap_or(true) {
                        fault = Some(e);
                    }
                }
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
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn coalesce_bulk_multi_merges_exact_continuations() {
        use tcf_isa::reg::r;

        fn bm(rank: usize, count: u32, vbase: Word, prefix: bool) -> MemRef {
            MemRef::new(
                RefOrigin::new(0, rank),
                MemOp::BulkMulti {
                    kind: MultiKind::Add,
                    prefix,
                    base: 64,
                    astride: 0,
                    count,
                    vbase,
                    vstride: 1,
                },
            )
        }
        fn cont(out: &mut StepSink, r: MemRef) {
            out.clear();
            out.refs.push(r);
        }

        let mut out = StepSink::default();
        let mut no_wbs: Vec<Writeback> = Vec::new();

        // A rank- and value-exact continuation merges into one run.
        let mut refs = vec![bm(0, 256, 0, false)];
        cont(&mut out, bm(256, 256, 256, false));
        assert!(coalesce_bulk_multi(&mut refs, &mut no_wbs, &out));
        assert_eq!(refs.len(), 1);
        let MemOp::BulkMulti { count, vbase, .. } = refs[0].op else {
            panic!("not a bulk multi");
        };
        assert_eq!((count, vbase), (512, 0));

        // A rank gap (not the next slice) refuses.
        let mut refs = vec![bm(0, 256, 0, false)];
        cont(&mut out, bm(300, 256, 256, false));
        assert!(!coalesce_bulk_multi(&mut refs, &mut no_wbs, &out));

        // A broken value progression refuses.
        let mut refs = vec![bm(0, 256, 0, false)];
        cont(&mut out, bm(256, 256, 999, false));
        assert!(!coalesce_bulk_multi(&mut refs, &mut no_wbs, &out));

        // Prefix runs merge their reply windows too.
        let mut refs = vec![bm(0, 256, 0, true)];
        let mut wbs = vec![Writeback {
            flow: 7,
            rd: r(2),
            target: WbTarget::Lanes {
                base: 0,
                count: 256,
            },
            ref_idx: 0,
        }];
        cont(&mut out, bm(256, 256, 256, true));
        out.wbs.push(Writeback {
            flow: 7,
            rd: r(2),
            target: WbTarget::Lanes {
                base: 256,
                count: 256,
            },
            ref_idx: 0,
        });
        assert!(coalesce_bulk_multi(&mut refs, &mut wbs, &out));
        let MemOp::BulkMulti { count, .. } = refs[0].op else {
            panic!("not a bulk multi");
        };
        assert_eq!(count, 512);
        assert_eq!(wbs.len(), 1);
        let WbTarget::Lanes { base, count } = wbs[0].target else {
            panic!("not a lane window");
        };
        assert_eq!((base, count), (0, 512));

        // A prefix continuation from another flow's writeback refuses.
        let mut refs = vec![bm(0, 256, 0, true)];
        let mut wbs = vec![Writeback {
            flow: 8,
            rd: r(2),
            target: WbTarget::Lanes {
                base: 0,
                count: 256,
            },
            ref_idx: 0,
        }];
        cont(&mut out, bm(256, 256, 256, true));
        out.wbs.push(Writeback {
            flow: 7,
            rd: r(2),
            target: WbTarget::Lanes {
                base: 256,
                count: 256,
            },
            ref_idx: 0,
        });
        assert!(!coalesce_bulk_multi(&mut refs, &mut wbs, &out));
    }

    #[test]
    fn engine_spec_parsing() {
        assert_eq!(Engine::from_spec("seq"), Some(Engine::Sequential));
        assert_eq!(Engine::from_spec("Sequential"), Some(Engine::Sequential));
        assert_eq!(
            Engine::from_spec("par:4"),
            Some(Engine::Parallel { workers: 4 })
        );
        assert_eq!(
            Engine::from_spec(" par:1 "),
            Some(Engine::Parallel { workers: 1 })
        );
        // 0 workers clamps to 1 rather than deadlocking.
        assert_eq!(
            Engine::from_spec("par:0"),
            Some(Engine::Parallel { workers: 1 })
        );
        assert_eq!(Engine::from_spec("par"), None);
        assert_eq!(Engine::from_spec("par:x"), None);
        assert_eq!(Engine::from_spec(""), None);
    }

    #[test]
    fn pool_runs_all_tasks_with_borrows() {
        let pool = global_pool(4);
        let mut results = vec![0usize; 64];
        {
            let mut tasks: Vec<Box<dyn FnOnce() + Send + '_>> = Vec::new();
            for (i, slot) in results.iter_mut().enumerate() {
                tasks.push(Box::new(move || *slot = i * i));
            }
            pool.run(tasks);
        }
        for (i, &r) in results.iter().enumerate() {
            assert_eq!(r, i * i);
        }
    }

    #[test]
    fn single_worker_pool_drains_on_coordinator() {
        let pool = global_pool(1);
        let counter = AtomicUsize::new(0);
        let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = (0..16)
            .map(|_| {
                let c = &counter;
                Box::new(move || {
                    c.fetch_add(1, Ordering::SeqCst);
                }) as Box<dyn FnOnce() + Send + '_>
            })
            .collect();
        pool.run(tasks);
        assert_eq!(counter.load(Ordering::SeqCst), 16);
    }

    #[test]
    fn pool_propagates_worker_panics() {
        let pool = global_pool(2);
        let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
            let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = vec![
                Box::new(|| {}),
                Box::new(|| panic!("worker exploded")),
                Box::new(|| {}),
            ];
            pool.run(tasks);
        }));
        assert!(caught.is_err());
        // The pool survives a panicking batch.
        let ok = AtomicUsize::new(0);
        let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = vec![Box::new(|| {
            ok.fetch_add(1, Ordering::SeqCst);
        })];
        pool.run(tasks);
        assert_eq!(ok.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn global_pool_is_shared_per_worker_count() {
        let a = global_pool(3);
        let b = global_pool(3);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(a.workers(), 3);
    }
}
