//! Thick execution: how the lanes of one thick instruction run, whichever
//! engine and variant schedules them.
//!
//! * the ladder — [`exec_thick_lanes`]: a slice of lanes goes through the
//!   closed-form evaluator over compressed operands ([`ClosedForm`], one
//!   method per opcode class), else the structure-of-arrays kernels of
//!   [`crate::lanes`], else the scalar [`lane`] loop, each rung
//!   bit-identical to the one below it. What a slice produces lands in a
//!   pooled [`FragOut`];
//! * the coordinator — [`TcfMachine::exec_slices`] runs the slices of an
//!   instruction (inline, or above the grain of [`crate::par_engine`] on
//!   scoped threads), [`TcfMachine::merge_frag_outs`] replays their
//!   outputs in fragment order, and [`TcfMachine::memory_step`] resolves
//!   the step's collected references.
//!
//! Both engines run this same code — the sequential one simply runs the
//! fragments inline — so the differential conformance suite
//! (`tests/engine_differential.rs`) guards the merge logic rather than two
//! divergent interpreters.

use std::ops::Range;

use tcf_isa::instr::{Instr, MemSpace, MultiKind, Operand};
use tcf_isa::op::AluOp;
use tcf_isa::progression::{lockstep, AddrRun};
use tcf_isa::reg::Reg;
use tcf_isa::word::{to_addr, Word};
use tcf_machine::{MachineConfig, UnitSeq};
use tcf_mem::{LocalMemory, MemOp, MemRef, RefOrigin, SharedMemory, StepStats};
use tcf_obs::{FlowEvent, ObsSink};

use crate::error::TcfError;
use crate::flow::{Flow, Fragment};
use crate::lanes::{self, LanePlanes};
use crate::machine::{special_stride, special_value, TcfMachine};
use crate::par_engine::{for_each_chunked, Engine, LANE_GRAIN, REF_GRAIN};
use crate::semantics::{lane, MemPort, StepPort, StepSink, WbTarget, Writeback};
use crate::thick::{affine_alu, LaneMask, MaskError, Seg, ThickRegs, MASK_RUN_BUDGET};

// ---------------------------------------------------------------------------
// Engine-shared thick-lane executor
// ---------------------------------------------------------------------------

/// Read-only context for executing one slice's lanes of a thick
/// instruction. Everything mutable lands in a [`FragOut`] or goes through
/// the slice's [`MemPort`].
pub(crate) struct ThickCtx<'a> {
    pub flow: &'a Flow,
    pub instr: &'a Instr,
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
    /// Affine register writes as `(rd, base lane, run)` — the compressed
    /// path's counterpart of `reg_runs`, replayed by the coordinator
    /// through `ThickRegs::write_affine`. A slice populates either this or
    /// `reg_runs`, never both.
    pub reg_affine: Vec<(Reg, usize, Seg)>,
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
        for &s in runs {
            self.reg_affine.push((rd, at, s));
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
        for &(rd, base, s) in &self.reg_affine {
            regs.write_affine(rd, base, s.len as usize, s.base, s.stride, t);
        }
        decays
    }
}

/// Lane addresses `to_addr(lane_value + off)` of an affine base operand
/// as an exact address run ([`AddrRun::from_words`]: per-lane wrapping and
/// clamping provably cannot kick in), when the module map also advances
/// by a constant node step per lane
/// ([`SharedMemory::strided_node_step`]; low-order interleaving only).
/// Returns the run and the node step.
fn strided_addr(shared: &SharedMemory, words: Seg, off: Word) -> Option<(AddrRun, usize)> {
    let run = AddrRun::from_words(words, off)?;
    Some((run, shared.strided_node_step(run.stride)?))
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
            dst.push(Seg::new(len, w, 0));
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
    fn whole(&mut self, rd: Reg, (base, stride): (Word, Word)) -> Closed {
        let run = self.slice_run(base, stride);
        self.out.reg_affine.push((rd, self.lo, run));
        self.compute_run(self.lo, self.len);
        Ok(false)
    }

    /// The progression `(base, stride)` over the slice's lanes, stride
    /// kept as the operand had it.
    fn slice_run(&self, base: Word, stride: Word) -> Seg {
        Seg {
            len: self.len as u32,
            base,
            stride,
        }
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
        for (start, a, b) in lockstep(&s.a, &s.b) {
            let runs = affine_alu(op, (a.base, a.stride), (b.base, b.stride), a.len as usize)
                .ok_or(Escape::Miss)?;
            self.out.log_affine_runs(rd, lo + start, runs.runs());
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

    /// Emits the run-length form of the lanes from `thread0` on making the
    /// bulk reference `op`, whose module advances by `node_step` per lane:
    /// one [`UnitSeq::SharedRun`], the reference, and — when it replies —
    /// the lane window write-back into `rd`.
    fn emit_bulk(&mut self, thread0: usize, node_step: usize, rd: Option<Reg>, op: MemOp) {
        let flow = self.ctx.flow;
        let (shared, sink) = self.bulk.as_mut().expect("memory arms hold the sink");
        let count = op.lanes();
        self.out.units.push(UnitSeq::SharedRun {
            flow: flow.id,
            thread0,
            count,
            node0: shared.module_of(op.addr()),
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
        let read = |run: AddrRun| MemOp::StridedRead {
            base: run.base,
            stride: run.stride,
            count: run.count,
        };
        if let Some((ab, astride)) = self.affine_reg(base) {
            let (run, node_step) =
                strided_addr(shared, self.slice_run(ab, astride), off).ok_or(Escape::Plain)?;
            self.emit_bulk(lo, node_step, Some(rd), read(run));
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
        for &p in &s.a {
            let (run, node_step) = strided_addr(shared, p, off).ok_or(Escape::Miss)?;
            self.emit_bulk(thread0, node_step, Some(rd), read(run));
            thread0 += p.len as usize;
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
        for (start, addrs, values) in lockstep(&s.a, &s.b) {
            let (run, node_step) = strided_addr(shared, addrs, off).ok_or(Escape::Plain)?;
            let op = MemOp::StridedWrite {
                base: run.base,
                stride: run.stride,
                count: run.count,
                vbase: values.base,
                vstride: values.stride,
            };
            self.emit_bulk(sub_lo + start, node_step, None, op);
        }
        Ok(())
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
        let escape = if piecewise {
            Escape::Miss
        } else {
            Escape::Plain
        };
        for (start, addrs, values) in lockstep(&s.a, &s.b) {
            let (run, node_step) = if addrs.stride == 0 {
                // Uniform base: every lane targets one word, and the
                // per-lane wrap/clamp applies identically to each lane —
                // no exactness guard needed, and the single module works
                // under any map (node step 0).
                let run = AddrRun {
                    base: to_addr(addrs.base.wrapping_add(off)),
                    stride: 0,
                    count: addrs.len,
                };
                (run, 0)
            } else {
                strided_addr(shared, addrs, off).ok_or(escape)?
            };
            let op = MemOp::BulkMulti {
                kind,
                prefix: rd.is_some(),
                base: run.base,
                astride: run.stride,
                count: run.count,
                vbase: values.base,
                vstride: values.stride,
            };
            self.emit_bulk(lo + start, node_step, rd, op);
        }
        Ok(piecewise)
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
/// split at the union of their run boundaries ([`lockstep`]) — so
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
    let closed = match *ctx.instr {
        Instr::Alu { op, rd, ra, rb } => cf.alu(scratch, op, rd, ra, rb),
        Instr::Ldi { rd, imm } => cf.whole(rd, (imm, 0)),
        // Every special register is the lane index times a flow constant
        // plus a flow constant.
        Instr::Mfs { rd, sr } => cf.whole(
            rd,
            (
                special_value(flow, lo, sr, ctx.config),
                special_stride(flow, sr),
            ),
        ),
        Instr::Sel { rd, cond, rt, rf } => cf.sel(scratch, rd, cond, rt, rf),
        Instr::Ld {
            rd,
            base,
            off,
            space: MemSpace::Shared,
        } => cf.ld(scratch, rd, base, off),
        Instr::St {
            rs,
            base,
            off,
            space: MemSpace::Shared,
        } => cf.st(scratch, None, rs, base, off),
        Instr::StMasked {
            cond,
            rs,
            base,
            off,
            space: MemSpace::Shared,
        } => cf.st(scratch, Some(cond), rs, base, off),
        Instr::MultiOp {
            kind,
            base,
            off,
            rs,
        } => cf.multi(scratch, kind, None, base, off, rs),
        Instr::MultiPrefix {
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

/// Which rungs of the thick ladder a call runs: all of them, or one side
/// of the split the parallel engine makes — the closed-form attempt is
/// O(runs) whatever the thickness and stays on the coordinator, the
/// per-lane rungs are what a sharded region runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Rungs {
    All,
    Closed,
    PerLane,
}

/// Executes `out.range`'s lanes of `ctx.instr` against a read-only
/// register view, logging register writes into `out` and sending memory
/// traffic through `port`. Stops at the first fault.
///
/// Every engine and variant runs thick lanes through here — a ladder of
/// three rungs, each bit-identical to the one below it: the closed-form
/// evaluator ([`exec_thick_compressed`], which sets `out.compressed` when
/// it served the slice), the structure-of-arrays kernels for what is left
/// of pure compute ([`exec_thick_vector`]), and the scalar [`lane`] loop.
/// Because a slice's bounds derive only from the fragments and the
/// variant's window, both engines make the same rung decision for every
/// slice.
pub(crate) fn exec_thick_lanes<P: MemPort>(
    ctx: &ThickCtx<'_>,
    port: &mut P,
    out: &mut FragOut,
    rungs: Rungs,
) {
    // The scratch is swapped out of `out` so the rungs can borrow the
    // fragment output mutably while reusing the pooled mask/run buffers.
    let mut scratch = std::mem::take(&mut out.scratch);
    let done = (rungs != Rungs::PerLane
        && exec_thick_compressed(ctx, port.bulk(), out, &mut scratch))
        || (rungs != Rungs::Closed && exec_thick_vector(ctx, out, &mut scratch));
    out.scratch = scratch;
    if done || rungs == Rungs::Closed {
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
    rungs: Rungs,
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
    exec_thick_lanes(ctx, &mut port, out, rungs);
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
    let rd = match *ctx.instr {
        Instr::Alu { op, rd, ra, rb } => {
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
        Instr::Sel { rd, cond, rt, rf } => {
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
    let ([new], Some(last)) = (&out.refs[..], refs.last()) else {
        return false;
    };
    let (
        MemOp::BulkMulti { kind, prefix, .. },
        MemOp::BulkMulti {
            kind: lkind,
            prefix: lprefix,
            ..
        },
    ) = (new.op, last.op)
    else {
        return false;
    };
    let addrs = last.op.addrs();
    let Some(values) = last.op.values().continued_by(&new.op.values()) else {
        return false;
    };
    if kind != lkind
        || prefix != lprefix
        || new.origin.rank != last.origin.rank + addrs.count as usize
        || !addrs.continues(&new.op.addrs())
    {
        return false;
    }
    let merged_wb = if prefix {
        // The continuation must extend the previous slice's reply window
        // (same flow, same destination, adjacent lanes).
        let ([new_wb], Some(wlast)) = (&out.wbs[..], wbs.last()) else {
            return false;
        };
        let (
            WbTarget::Lanes {
                base: nwb,
                count: nwc,
            },
            WbTarget::Lanes {
                base: owb,
                count: owc,
            },
        ) = (new_wb.target, wlast.target)
        else {
            return false;
        };
        if new_wb.ref_idx != 0
            || wlast.flow != new_wb.flow
            || wlast.rd != new_wb.rd
            || wlast.ref_idx != refs.len() - 1
            || owb + owc != nwb
            || nwc != new.op.lanes()
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
        base: addrs.base,
        astride: addrs.stride,
        count: values.len,
        vbase: values.base,
        vstride: values.stride,
    };
    true
}

// ---------------------------------------------------------------------------
// Coordinator-side orchestration
// ---------------------------------------------------------------------------

impl TcfMachine {
    /// Executes the rank-contiguous `slices` of one thick instruction and
    /// returns the fragment outputs in fragment order. Under the parallel
    /// engine the closed-form attempts of a memory instruction run first,
    /// and if the slices they declined hold [`LANE_GRAIN`] lanes between
    /// them, those slices' lane loops run on scoped threads: each sees a
    /// read-only flow and shared memory plus exclusive access to its
    /// fragment group's local memory.
    pub(crate) fn exec_slices(
        &mut self,
        flow: &Flow,
        instr: &Instr,
        slices: &[(Fragment, Range<usize>)],
        outs: &mut Vec<FragOut>,
    ) {
        let obs_on = self.obs.is_enabled();
        let step = self.steps;
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
        let step_slice = |out: &mut FragOut, local: &mut LocalMemory, rungs: Rungs| {
            let ctx = ThickCtx {
                flow,
                instr,
                group: out.frag.group,
                config,
                step,
            };
            exec_thick_step(&ctx, shared, local, out, rungs)
        };
        let mut run = |outs: &mut [FragOut], rungs: Rungs| {
            for out in outs.iter_mut().filter(|o| !o.compressed) {
                step_slice(out, &mut locals[out.frag.group], rungs);
            }
        };
        match self.engine {
            // `Alu` and `Sel` end on the vector rung at the latest — 2 ns a
            // lane, each lane replayed by the coordinator afterwards — so
            // only the scalar loop of a memory instruction is worth a region.
            Engine::Parallel { workers }
                if outs.len() > 1 && !matches!(instr, Instr::Alu { .. } | Instr::Sel { .. }) =>
            {
                run(outs, Rungs::Closed);
                let pending = outs.iter().filter(|o| !o.compressed);
                if pending.map(|o| o.range.len()).sum::<usize>() < LANE_GRAIN {
                    run(outs, Rungs::PerLane);
                } else {
                    // Fragments of one flow occupy distinct groups (the
                    // scheduler guarantees it), so this takes each local
                    // memory at most once.
                    let mut lm: Vec<_> = locals.iter_mut().map(Some).collect();
                    let mut work: Vec<_> = outs
                        .iter_mut()
                        .filter(|o| !o.compressed)
                        .map(|out| {
                            let local = lm[out.frag.group].take();
                            (
                                out,
                                local.expect("fragments of one flow have distinct groups"),
                            )
                        })
                        .collect();
                    for_each_chunked(workers, &mut work, |(out, local)| {
                        step_slice(out, local, Rungs::PerLane)
                    });
                    self.engine_counters.sharded_slices += work.len() as u64;
                }
            }
            _ => run(outs, Rungs::All),
        }
        self.engine_counters.thick_instrs += 1;
        self.engine_counters.slices += outs.len() as u64;
        for out in outs.iter() {
            self.tally_slice(out);
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
    /// sequential, or above [`REF_GRAIN`] under the parallel engine sharded
    /// per module. Both paths return identical replies and statistics (the
    /// shards resolve through the same per-address logic and merge in
    /// module order).
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
        match self.engine {
            Engine::Parallel { workers }
                if refs.len() >= REF_GRAIN && self.shared.modules() > 1 =>
            {
                self.memory_step_sharded(workers, refs)
            }
            _ => self
                .shared
                .step_into(refs, &mut self.mem_scratch, &mut self.mem_replies)
                .map_err(|e| self.host_err(e.into())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
}
