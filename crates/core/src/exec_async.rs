//! The Multi-instruction (XMT-like) asynchronous engine (§3.2, Figure 9).
//!
//! Threads are spawned asynchronously and run from creation to
//! termination; a step is only a scheduling quantum — each group executes
//! up to `T_p` instructions distributed round-robin over its runnable
//! virtual threads, with **no** machine-instruction-level lockstep and no
//! PRAM read-before-write step semantics: memory applies per instruction
//! in execution order. Synchronization happens exclusively at
//! `spawn`/`sjoin` boundaries, which is the variant's coarser granularity
//! the paper points out. A multiprefix degenerates to the XMT `ps`
//! (atomic fetch-and-op) primitive.
//!
//! ## Spawn blocks: compressed thick slices
//!
//! `spawn n` does **not** materialize `n` unit flows. It creates at most
//! one *block flow* per group — lanes `g, g + G, g + 2G, …` of the spawn,
//! sharing one pc, one compressed register file (`tid` is the affine
//! progression `tid_offset + e·tid_stride`), and one flow-table slot — so
//! a `spawn 10^8` costs O(G), not O(n). The quantum scheduler accounts a
//! block's single-instruction execution as `thickness` budget units in
//! closed form; when the remaining budget is smaller than the block, the
//! block splits at the budget boundary in O(#register runs)
//! ([`ThickRegs::slice_lanes`]): the front window executes, the tail
//! keeps the old pc and waits its turn — exactly the starvation order the
//! per-thread round-robin produced. Executing windows are therefore never
//! wider than the quantum, so the per-lane memory loops inside a window
//! stay O(T_p) per quantum regardless of the logical spawn width.
//!
//! Divergence (a non-uniform branch) splits a block into contiguous
//! same-target runs; a block forced onto the per-lane fallback that
//! materializes a compressed register counts the `decay_async_slice`
//! taxonomy reason, as does a block shattering into unit flows on a
//! nested `spawn`.
//!
//! [`ThickRegs::slice_lanes`]: crate::thick::ThickRegs::slice_lanes

use tcf_isa::instr::{BrCond, Instr, Operand, Target};
use tcf_isa::program::Program;
use tcf_isa::reg::{Reg, SpecialReg};
use tcf_machine::{IssueUnit, UnitSeq};
use tcf_obs::FlowEvent;

use crate::error::{TcfError, TcfFault};
use crate::flow::{Flow, FlowStatus, Fragment, TakenFlow};
use crate::machine::TcfMachine;
use crate::semantics::{flowwise, Control, DirectPort};
use crate::thick::ThickValue;
use crate::thick_exec::{exec_thick_lanes, FragOut, Rungs, ThickCtx};

/// Pooled per-quantum buffers of [`TcfMachine::step_async`], kept on the
/// machine so steady-state quanta allocate nothing — the same discipline
/// as the synchronous engine's `StepBufs` (docs/PERFORMANCE.md).
#[derive(Default)]
pub(crate) struct AsyncBufs {
    units: Vec<Vec<UnitSeq>>,
    numa_units: Vec<Vec<UnitSeq>>,
    /// Threads runnable at the start of the quantum, per group.
    per_group: Vec<Vec<u32>>,
    /// Round-robin worklist of the current pass, and the survivors that
    /// roll into the next pass (swapped instead of reallocated).
    runnable: Vec<u32>,
    still: Vec<u32>,
    scratch: AsyncScratch,
}

/// Per-instruction scratch of the block executor (pooled; a window is at
/// most one quantum wide, so these stay small).
#[derive(Default)]
pub(crate) struct AsyncScratch {
    /// Contiguous same-outcome runs of a divergent branch.
    runs: Vec<(usize, bool)>,
    /// Flows split off during the instruction, scheduled into the pass
    /// rotation right after their block.
    pending: Vec<u32>,
}

/// Shrinks block `flow` on group `g` to its first `len` lanes, the rest
/// having been carved off. Registers are left as they are: lanes past the
/// thickness are never read.
fn keep_front(flow: &mut Flow, g: usize, len: usize) {
    flow.thickness = len;
    flow.fragments.clear();
    flow.fragments.push(Fragment::new(g, 0, len));
}

impl TcfMachine {
    /// One asynchronous scheduling quantum. The quantum buffers are taken
    /// out of the machine for the duration (and put back even on a
    /// faulting quantum) so the scheduling loop can borrow them
    /// independently of `self`.
    pub(crate) fn step_async(&mut self, program: &Program) -> Result<(), TcfError> {
        let mut bufs = std::mem::take(&mut self.async_bufs);
        let r = self.step_async_inner(&mut bufs, program);
        self.async_bufs = bufs;
        r
    }

    fn step_async_inner(
        &mut self,
        bufs: &mut AsyncBufs,
        program: &Program,
    ) -> Result<(), TcfError> {
        let ngroups = self.config.groups;
        let quantum = self.config.threads_per_group;
        bufs.units.resize_with(ngroups, Vec::new);
        bufs.numa_units.resize_with(ngroups, Vec::new);
        bufs.per_group.resize_with(ngroups, Vec::new);
        for v in bufs.units.iter_mut().chain(&mut bufs.numa_units) {
            v.clear();
        }
        // Threads runnable at the start of the quantum; spawns become
        // runnable next quantum.
        for v in &mut bufs.per_group {
            v.clear();
        }
        self.engine_counters.flows_visited += self.flows.runnable().len() as u64;
        for f in self.flows.running() {
            bufs.per_group[f.home_group()].push(f.id);
        }

        for g in 0..ngroups {
            let mut budget = quantum;
            bufs.runnable.clear();
            bufs.runnable.extend_from_slice(&bufs.per_group[g]);
            while budget > 0 && !bufs.runnable.is_empty() {
                bufs.still.clear();
                for i in 0..bufs.runnable.len() {
                    let id = bufs.runnable[i];
                    if budget == 0 {
                        bufs.still.push(id);
                        continue;
                    }
                    let width = match self.flows.get(&id) {
                        Some(f) if f.is_running() => f.thickness,
                        _ => continue,
                    };
                    if width > budget {
                        // Budget boundary inside the block: the front
                        // window executes this pass, the tail keeps the
                        // old pc under a fresh (higher) id and is
                        // snapshotted next quantum — the same lanes the
                        // per-thread round-robin would have starved.
                        self.split_async_block(id, budget, g);
                    }
                    let lanes = self.exec_async_instr(
                        id,
                        g,
                        program,
                        &mut bufs.units,
                        &mut bufs.still,
                        &mut bufs.scratch,
                    )?;
                    budget -= lanes.min(budget);
                }
                std::mem::swap(&mut bufs.runnable, &mut bufs.still);
            }
        }

        self.apply_timing(&bufs.units, &bufs.numa_units);
        Ok(())
    }

    /// Carves lanes `[lo, lo + len)` of block `flow` into a sibling block
    /// at `pc` on group `g`, announced as spawned by `announced_parent`.
    /// Costs O(#register runs), not O(thickness). Returns the sibling's
    /// id.
    fn carve_block(
        &mut self,
        flow: &Flow,
        g: usize,
        lo: usize,
        len: usize,
        pc: usize,
        announced_parent: Option<u32>,
    ) -> u32 {
        let sid = self.alloc_id();
        // No registers of its own to build: it takes a slice of the block's.
        let mut sib = Flow::new(sid, len, pc, 0);
        sib.regs = flow.regs.slice_lanes(lo, len);
        sib.call_stack = flow.call_stack.clone();
        sib.parent = flow.parent;
        sib.tid_offset = flow.tid_offset + lo * flow.tid_stride;
        sib.tid_stride = flow.tid_stride;
        sib.fragments = vec![Fragment::new(g, 0, len)];
        self.flows.insert(sib);
        self.obs.emit(
            self.steps,
            self.clock,
            FlowEvent::FlowSpawned {
                flow: sid,
                parent: announced_parent,
                thickness: len,
            },
        );
        sid
    }

    /// Splits the running block `id` so its first `keep` lanes stay under
    /// `id` and the rest continue as a fresh flow at the same pc.
    fn split_async_block(&mut self, id: u32, keep: usize, g: usize) {
        let mut flow = self.flows.take(id);
        self.carve_block(&flow, g, keep, flow.thickness - keep, flow.pc, Some(id));
        keep_front(&mut flow, g, keep);
        self.flows.put(flow);
    }

    /// Executes exactly one instruction of flow `id` (all of its lanes) on
    /// group `g`, with direct (asynchronous) memory access. Returns how
    /// many lanes executed — the flow's budget charge. Flows split off by
    /// a divergent branch are appended to `follow` right after `id`, so
    /// the pass rotation matches the per-thread order.
    fn exec_async_instr(
        &mut self,
        id: u32,
        g: usize,
        program: &Program,
        units: &mut [Vec<UnitSeq>],
        follow: &mut Vec<u32>,
        scratch: &mut AsyncScratch,
    ) -> Result<usize, TcfError> {
        let mut flow = self.flows.take(id);
        scratch.pending.clear();
        let result = self.async_instr_inner(&mut flow, g, program, units, scratch);
        let running = flow.is_running();
        self.flows.put(flow);
        let lanes = result?;
        if running {
            follow.push(id);
        }
        follow.append(&mut scratch.pending);
        Ok(lanes)
    }

    /// One instruction of `flow` on group `g`. `spawn`/`sjoin`, the block
    /// shatter and the divergent-branch split are this engine's own;
    /// control transfer and the data instructions get their meaning from
    /// [`crate::semantics`] — a unit flow through the scalar lane, a block
    /// through the same thick ladder as the synchronous engine, both on
    /// the direct port.
    fn async_instr_inner(
        &mut self,
        flow: &mut TakenFlow,
        g: usize,
        program: &Program,
        units: &mut [Vec<UnitSeq>],
        scratch: &mut AsyncScratch,
    ) -> Result<usize, TcfError> {
        let pc = flow.pc;
        if flow.thickness > 1 && matches!(program.fetch(pc), Some(Instr::Spawn { .. })) {
            // A block cannot execute `spawn` collectively (every lane
            // waits on its own children): shatter it into unit flows
            // first. Lane 0 spawns now; the rest re-join the rotation.
            for e in 1..flow.thickness {
                let sid = self.carve_block(flow, g, e, 1, pc, flow.parent);
                scratch.pending.push(sid);
            }
            keep_front(flow, g, 1);
            self.thick_decay.async_slice += 1;
        }
        // One fetch serves a whole block — the shared-pc compression.
        let instr = self.fetch(program, flow)?;
        let n = flow.thickness;
        if n > 1 {
            self.engine_counters.slices += 1;
        }
        let mut next_pc = pc + 1;
        // What the instruction's lanes occupy in the pipeline, unless the
        // data path already queued their units.
        let mut unit = Some(if n > 1 {
            UnitSeq::ComputeRun {
                flow: flow.id,
                thread0: 0,
                count: n,
            }
        } else {
            IssueUnit::compute(flow.id, 0).into()
        });

        match *instr {
            Instr::Spawn { count, ref target } => {
                self.async_spawn(flow, count, target)?;
                unit = Some(IssueUnit::overhead(flow.id).into());
            }
            Instr::SJoin => {
                // A whole block joins at once: one bulk notification
                // covers all `n` threads.
                let parent = flow
                    .parent
                    .ok_or_else(|| self.flow_err(flow.id, TcfFault::StrayJoin))?;
                flow.set_status(FlowStatus::Halted);
                self.obs.emit(
                    self.steps,
                    self.clock,
                    FlowEvent::Join {
                        flow: flow.id,
                        parent: Some(parent),
                    },
                );
                self.obs.emit(
                    self.steps,
                    self.clock,
                    FlowEvent::FlowHalted { flow: flow.id },
                );
                self.notify_join_many(parent, n)?;
            }
            Instr::Br {
                cond,
                rs,
                ref target,
            } if flow.regs.value(rs).uniform_over(n).is_none() => {
                next_pc = self.split_divergent(flow, g, cond, rs, target, scratch)?;
            }
            _ if instr.is_data() && n == 1 => {
                let mut port = DirectPort {
                    shared: &mut self.shared,
                    local: &mut self.locals[g],
                };
                let u = flowwise(instr, flow, &self.config, &mut port)
                    .map_err(|f| self.flow_err(flow.id, f))?;
                unit = Some(u.into());
            }
            _ if instr.is_data() => {
                self.async_block_data(flow, g, instr, &mut units[g])?;
                unit = None;
            }
            _ => match self.control(flow, instr)? {
                Some(Control::Goto(t)) => {
                    next_pc = t;
                    if n > 1 && matches!(instr, Instr::Br { .. }) {
                        self.engine_counters.compressed_slices += 1;
                    }
                }
                Some(Control::Halt) => {}
                None => return Err(self.unsupported(flow.id, instr, self.variant.name())),
            },
        }

        flow.pc = next_pc;
        units[g].extend(unit);
        Ok(n)
    }

    /// `spawn n` by unit flow `flow`: one block flow per group carries the
    /// spawn's lanes `g, g + G, g + 2G, …` — O(G) flows for any `n`, with
    /// `tid` as a compressed affine progression. The round-robin group
    /// mapping matches the per-thread XMT dynamic scheduling exactly.
    fn async_spawn(
        &mut self,
        flow: &mut TakenFlow,
        count: Operand,
        target: &Target,
    ) -> Result<(), TcfError> {
        let n = match count {
            Operand::Reg(r) => flow.regs.read(r, 0),
            Operand::Imm(w) => w,
        };
        if n < 0 {
            return Err(self.flow_err(flow.id, TcfFault::BadThickness { requested: n }));
        }
        let entry = self.abs(flow.id, target)?;
        let n = n as usize;
        if n == 0 {
            // Nothing to wait for; fall through.
            return Ok(());
        }
        let groups = self.config.groups;
        for g2 in 0..groups.min(n) {
            let len = (n - g2).div_ceil(groups);
            let cid = self.alloc_id();
            let mut child = Flow::new(cid, len, entry, 0);
            // Flow-wise inheritance without first cloning the parent's
            // per-thread lane storage.
            child.regs = flow.regs.clone_flowwise();
            child.parent = Some(flow.id);
            child.tid_offset = g2;
            child.tid_stride = groups;
            child.fragments = vec![Fragment::new(g2, 0, len)];
            self.flows.insert(child);
            self.obs.emit(
                self.steps,
                self.clock,
                FlowEvent::FlowSpawned {
                    flow: cid,
                    parent: Some(flow.id),
                    thickness: len,
                },
            );
        }
        flow.set_status(FlowStatus::WaitingSpawn { pending: n });
        self.obs.emit(
            self.steps,
            self.clock,
            FlowEvent::Split {
                flow: flow.id,
                arms: n,
            },
        );
        self.obs.emit(
            self.steps,
            self.clock,
            FlowEvent::WaitBegin {
                flow: flow.id,
                pending: n,
            },
        );
        Ok(())
    }

    /// A branch whose operand differs between the block's lanes: split
    /// the block into contiguous same-outcome runs (compressed condition
    /// values yield their runs without materializing; explicit lanes force
    /// the scan). The first run stays on `flow`; returns its next pc.
    fn split_divergent(
        &mut self,
        flow: &mut Flow,
        g: usize,
        cond: BrCond,
        rs: Reg,
        target: &Target,
        scratch: &mut AsyncScratch,
    ) -> Result<usize, TcfError> {
        let (pc, n) = (flow.pc, flow.thickness);
        let taken_pc = self.abs(flow.id, target)?;
        if flow.regs.value(rs).run_count() > 0 {
            self.engine_counters.mask_hits += 1;
        } else {
            self.engine_counters.mask_misses += 1;
        }
        scratch.runs.clear();
        let mut e = 0usize;
        while e < n {
            let t0 = cond.holds(flow.regs.read(rs, e));
            let mut j = e + 1;
            while j < n && cond.holds(flow.regs.read(rs, j)) == t0 {
                j += 1;
            }
            scratch.runs.push((j - e, t0));
            e = j;
        }
        let dest = |taken: bool| if taken { taken_pc } else { pc + 1 };
        let (front_len, front_taken) = scratch.runs[0];
        let mut off = front_len;
        for &(len, taken) in &scratch.runs[1..] {
            let sid = self.carve_block(flow, g, off, len, dest(taken), flow.parent);
            scratch.pending.push(sid);
            off += len;
        }
        keep_front(flow, g, front_len);
        Ok(dest(front_taken))
    }

    /// One data instruction of a multi-lane spawn block, through the thick
    /// ladder on the direct port: closed-form and vectorized where the
    /// operands allow it, the scalar lane loop otherwise and for every
    /// memory instruction. The window is never wider than the scheduling
    /// quantum, so the lane loop is O(T_p), not O(spawn width). A lane
    /// run that materializes a compressed register counts under the
    /// `async_slice` decay reason.
    fn async_block_data(
        &mut self,
        flow: &mut Flow,
        g: usize,
        instr: &Instr,
        units: &mut Vec<UnitSeq>,
    ) -> Result<(), TcfError> {
        let n = flow.thickness;
        // Every spawned XMT thread is unit-thick, however wide the block
        // carrying it.
        let unit_thickness;
        let instr = match *instr {
            Instr::Mfs {
                rd,
                sr: SpecialReg::Thickness,
            } => {
                unit_thickness = Instr::Ldi { rd, imm: 1 };
                &unit_thickness
            }
            _ => instr,
        };
        // The pooled output stays in its slot (a `FragOut` is a few hundred
        // bytes of buffer headers); only the pool's own header moves.
        let mut pool = std::mem::take(&mut self.frag_pool);
        if pool.is_empty() {
            pool.push(FragOut::empty());
        }
        let out = &mut pool[0];
        out.reset(Fragment::new(g, 0, n), 0..n, false);
        let ctx = ThickCtx {
            flow,
            instr,
            group: g,
            config: &self.config,
            step: self.steps,
        };
        let mut port = DirectPort {
            shared: &mut self.shared,
            local: &mut self.locals[g],
        };
        exec_thick_lanes(&ctx, &mut port, out, Rungs::All);
        let fault = out.fault.take();
        if fault.is_none() {
            self.tally_slice(out);
            match out.reg_affine[..] {
                // The window is the whole flow, so one progression over it
                // replaces the register outright, explicit lanes included.
                [(rd, 0, run)] if run.len as usize == n => flow
                    .regs
                    .write_value(rd, ThickValue::affine(run.base, run.stride)),
                _ => self.thick_decay.async_slice += out.replay_regs(&mut flow.regs, n),
            }
            units.extend_from_slice(&out.units);
        }
        self.frag_pool = pool;
        fault.map_or(Ok(()), Err)
    }
}

#[cfg(test)]
mod tests {
    use tcf_isa::reg::{r, SpecialReg};
    use tcf_isa::ProgramBuilder;
    use tcf_machine::MachineConfig;

    use crate::machine::TcfMachine;
    use crate::variant::Variant;

    fn machine(program: tcf_isa::program::Program) -> TcfMachine {
        TcfMachine::new(MachineConfig::small(), Variant::MultiInstruction, program)
    }

    /// A huge spawn never materializes one unit flow per thread: the
    /// scheduler holds one block flow per group plus the windows split
    /// off within the current quantum, and retires exactly `P * T_p`
    /// lanes per step.
    #[test]
    fn huge_spawn_stays_block_compressed() {
        let n = 100_000usize;
        let mut b = ProgramBuilder::new();
        b.spawn(n as tcf_isa::Word, "task");
        b.halt();
        b.label("task");
        b.sjoin();
        let mut m = machine(b.build().unwrap());

        for _ in 0..50 {
            m.step().expect("spawn steps");
        }
        let live = m.live_flows();
        assert!(live <= 16, "spawn materialized {live} flows");

        let s = m.run(10_000_000).expect("spawn drains");
        assert!(s.halted);
        assert_eq!(m.live_flows(), 0);
        // 64 lanes (4 groups x T_p = 16) retire per step, so a full drain
        // of 10^5 spawned threads needs ~1,563 steps — per-step work is
        // bounded by the machine size, not the spawn count.
        assert!(
            (1_500..1_800).contains(&s.steps),
            "unexpected drain length: {} steps",
            s.steps
        );
    }

    /// A windowed per-lane write that lands on a compressed (affine)
    /// register is billed to the `async_slice` decay reason; uniform
    /// promotions stay free, exactly like the synchronous engines. Memory
    /// applies lane by lane on the direct port, so a load's replies are
    /// such a write (a masked `sel` would stay compressed).
    #[test]
    fn affine_overwrite_in_a_block_counts_async_slice() {
        let mut b = ProgramBuilder::new();
        b.spawn(64, "task");
        b.halt();
        b.label("task");
        b.mfs(r(1), SpecialReg::Tid); // affine across the block
        b.ld(r(1), r(1), 0); // per-lane replies (all 0) onto affine r1
        b.sjoin();
        let mut m = machine(b.build().unwrap());
        let s = m.run(10_000_000).expect("spawn drains");
        assert!(s.halted);
        assert!(
            m.thick_decay().async_slice > 0,
            "affine overwrite was not billed: {:?}",
            m.thick_decay()
        );
        // The decay taxonomy stays exhaustive: nothing else decayed.
        assert_eq!(m.thick_decay().total(), m.thick_decay().async_slice);
    }
}
