//! The synchronous step engine: Single instruction, Balanced,
//! Single-operation, Configurable single operation and Fixed thickness.
//!
//! All five lockstep variants share this engine; they differ only in the
//! per-step operation bound (`Balanced`), in their capability checks
//! (which instructions fault), and in how their initial flows were created
//! (see [`crate::machine`]). Instructions are classified *flow-wise* —
//! control flow, thickness control, and any data instruction whose
//! operands are uniform across the flow (executed once on common
//! operands) — or *thick* — one operation per implicit thread, executed
//! over the flow's fragments and bounded per step under Balanced.

use tcf_isa::instr::Operand;
use tcf_isa::reg::{Reg, SpecialReg};
use tcf_isa::word::Word;
use tcf_machine::{IssueUnit, UnitSeq};
use tcf_mem::BulkView;
use tcf_obs::{FlowEvent, Mode};

use crate::decoded::DecodedInst;
use crate::error::{TcfError, TcfFault};
use crate::flow::{ExecMode, Flow, FlowStatus, Fragment, TakenFlow};
use crate::machine::{TcfMachine, MAX_THICKNESS};
use crate::semantics::{flowwise, Control, StepPort, StepSink, WbTarget};
use crate::variant::Variant;

/// Reusable buffers of the synchronous step — one bundle per machine, so
/// the steady-state loop performs no per-step allocation once every
/// buffer has grown to the workload's high-water mark. Taken out of the
/// machine (`std::mem::take`) for the duration of a step to keep the
/// borrow checker out of the phase structure, then put back.
#[derive(Default)]
pub(crate) struct StepBufs {
    pram_units: Vec<Vec<UnitSeq>>,
    numa_units: Vec<Vec<UnitSeq>>,
    /// The step's shared references and pending write-backs.
    mem: StepSink,
    numa_flows: Vec<u32>,
    slots_used: Vec<usize>,
    /// The run list as it stood at step start: a flow created mid-step
    /// first runs next step.
    ids: Vec<u32>,
}

impl TcfMachine {
    /// One synchronous step (phases 1–5 of the machine docs). The step
    /// buffers are taken out of the machine for the duration of the step
    /// (and put back even on a faulting step) so the phase structure can
    /// borrow them independently of `self`.
    pub(crate) fn step_sync(&mut self) -> Result<(), TcfError> {
        let mut bufs = std::mem::take(&mut self.step_bufs);
        let r = self.step_sync_inner(&mut bufs);
        self.step_bufs = bufs;
        r
    }

    fn step_sync_inner(&mut self, bufs: &mut StepBufs) -> Result<(), TcfError> {
        let ngroups = self.config.groups;
        bufs.pram_units.resize_with(ngroups, Vec::new);
        bufs.numa_units.resize_with(ngroups, Vec::new);
        for u in &mut bufs.pram_units {
            u.clear();
        }
        for u in &mut bufs.numa_units {
            u.clear();
        }
        bufs.mem.clear();
        bufs.numa_flows.clear();
        let StepBufs {
            pram_units,
            numa_units,
            mem,
            numa_flows,
            slots_used,
            ids,
        } = bufs;

        // Fixed thread-slot accounting of the thread-based variants: an
        // interleaved ESM processor always rotates through its T_p slots,
        // so dead or absorbed slots burn issue cycles (the low-TLP
        // utilization problem of §1/§2.1). The TCF variants schedule
        // flows, not slots, and are exempt.
        let fixed_rotation = matches!(
            self.variant,
            Variant::SingleOperation | Variant::ConfigurableSingleOperation
        );
        slots_used.clear();
        slots_used.resize(ngroups, 0);

        ids.clear();
        let runnable = self.flows.runnable();
        self.engine_counters.flows_visited += runnable.len() as u64;
        ids.extend_from_slice(runnable);
        for &id in ids.iter() {
            // Status can change mid-step (bunch absorption), so re-check.
            if !self.flows[&id].is_running() {
                continue;
            }
            let mut flow = self.flows.take(id);
            let mut result = Ok(());
            match flow.mode {
                ExecMode::Numa { slots } if slots > 0 => {
                    self.activate_in_buffers(&flow, numa_units);
                    slots_used[flow.home_group()] += slots;
                    numa_flows.push(id);
                }
                // A dormant flow (thickness 0) executes nothing (§3.1).
                ExecMode::Pram if flow.thickness > 0 => {
                    self.activate_in_buffers(&flow, pram_units);
                    slots_used[flow.home_group()] += 1;
                    result = self.exec_pram_inner(&mut flow, pram_units, mem);
                }
                _ => {}
            }
            self.flows.put(flow);
            result?;
        }

        if fixed_rotation {
            let tp = self.config.threads_per_group;
            for g in 0..ngroups {
                for _ in slots_used[g]..tp {
                    pram_units[g].push(IssueUnit::idle().into());
                }
            }
        }

        // Phase 2: one PRAM memory step for all flows' references
        // (sharded per memory module above the parallel engine's grain). Replies
        // land in the machine-owned `mem_replies` buffer.
        let mstats = self.memory_step(&mem.refs)?;
        self.mem_stats.absorb(&mstats);

        // Phase 3: write-backs. Bulk (strided-read) replies are taken
        // out of the machine for the loop so a borrowed reply view can
        // coexist with the `&mut` flow borrow.
        let bulk = std::mem::take(&mut self.mem_bulk);
        for wb in mem.wbs.iter() {
            match wb.target {
                WbTarget::Uniform => {
                    if let Some(v) = self.mem_replies[wb.ref_idx] {
                        let flow = self.flows.get_mut(&wb.flow).expect("flow exists");
                        flow.regs.write_uniform(wb.rd, v);
                    }
                }
                WbTarget::Lane(e) => {
                    if let Some(v) = self.mem_replies[wb.ref_idx] {
                        let flow = self.flows.get_mut(&wb.flow).expect("flow exists");
                        let t = flow.thickness;
                        flow.regs.write(wb.rd, e, v, t);
                    }
                }
                WbTarget::Lanes { base, count } => {
                    if let Some(view) = bulk.get(wb.ref_idx) {
                        let flow = self.flows.get_mut(&wb.flow).expect("flow exists");
                        let t = flow.thickness;
                        match view {
                            BulkView::Affine(run) => flow
                                .regs
                                .write_affine(wb.rd, base, count, run.base, run.stride, t),
                            BulkView::Values(vals) => {
                                if flow.regs.write_lanes(wb.rd, base, vals, t) {
                                    self.thick_decay.mem_reply += 1;
                                }
                            }
                        }
                    }
                }
            }
        }
        self.mem_bulk = bulk;

        // Phase 4: NUMA slices.
        for &id in numa_flows.iter() {
            if self.flows[&id].is_running() {
                self.run_numa_slice(id, numa_units)?;
            }
        }

        // Phase 5: timing.
        self.apply_timing(pram_units, numa_units);
        Ok(())
    }

    fn operand_uniform(&self, flow: &Flow, o: Operand) -> bool {
        match o {
            Operand::Imm(_) => true,
            Operand::Reg(r) => flow.regs.value(r).is_uniform(),
        }
    }

    /// Whether `instr` needs one operation per implicit thread.
    fn is_thick(&self, flow: &Flow, instr: DecodedInst) -> bool {
        if flow.thickness <= 1 {
            // One implicit thread: flow-wise and thick coincide; treat as
            // flow-wise so unit flows cost one operation.
            return matches!(
                instr,
                DecodedInst::MultiOp { .. } | DecodedInst::MultiPrefix { .. }
            );
        }
        let u = |r: Reg| flow.regs.value(r).is_uniform();
        match instr {
            DecodedInst::Alu { ra, rb, .. } => !u(ra) || !self.operand_uniform(flow, rb),
            DecodedInst::Ldi { .. } => false,
            DecodedInst::Mfs { sr, .. } => matches!(sr, SpecialReg::Tid | SpecialReg::Gid),
            DecodedInst::Sel { cond, rt, rf, .. } => {
                !u(cond) || !u(rt) || !self.operand_uniform(flow, rf)
            }
            DecodedInst::Ld { base, .. } => !u(base),
            DecodedInst::St { rs, base, .. } => !u(rs) || !u(base),
            DecodedInst::StMasked { cond, rs, base, .. } => !u(cond) || !u(rs) || !u(base),
            // Every implicit thread contributes, whatever the operands.
            DecodedInst::MultiOp { .. } | DecodedInst::MultiPrefix { .. } => true,
            _ => false,
        }
    }

    fn uniform_value(&self, flow: &Flow, o: Operand, what: &'static str) -> Result<Word, TcfError> {
        match o {
            Operand::Imm(w) => Ok(w),
            Operand::Reg(r) => flow
                .regs
                .value(r)
                .uniform_over(flow.thickness.max(1))
                .ok_or_else(|| self.flow_err(flow.id, TcfFault::NonUniformOperand { what })),
        }
    }

    /// Executes (a slice of) one PRAM-mode instruction of `flow`.
    fn exec_pram_inner(
        &mut self,
        flow: &mut TakenFlow,
        units: &mut [Vec<UnitSeq>],
        sink: &mut StepSink,
    ) -> Result<(), TcfError> {
        let pc = flow.pc;
        let instr = self.fetch(flow)?;

        if self.is_thick(flow, instr) {
            // Rank-contiguous slicing: the flow has ONE next-operation
            // pointer (§3.3's TCF-buffer resume pointer). Each fragment's
            // group contributes up to `bound` (Balanced) or its share
            // (Single instruction) of operations per step, taken in rank
            // order, which preserves multiprefix rank ordering across
            // sliced instructions.
            let bound = self.variant.bound().unwrap_or(usize::MAX);
            let mut cursor = flow.next_op;
            let mut slices = std::mem::take(&mut self.slice_buf);
            slices.clear();
            for fi in 0..flow.fragments.len() {
                if cursor >= flow.thickness {
                    break;
                }
                let frag = flow.fragments[fi];
                let n = bound.min(frag.len).min(flow.thickness - cursor);
                if n == 0 {
                    continue;
                }
                slices.push((frag, cursor..cursor + n));
                cursor += n;
            }
            // Lanes execute per slice (inline, or above the grain under the
            // parallel engine on scoped threads — the fragments' groups are
            // distinct, so the slices are independent) and merge in
            // fragment order.
            let mut outs = std::mem::take(&mut self.frag_pool);
            self.exec_slices(flow, instr, &slices, &mut outs);
            let n = slices.len();
            let merged = self.merge_frag_outs(flow, &mut outs[..n], units, sink);
            self.slice_buf = slices;
            self.frag_pool = outs;
            merged?;
            flow.next_op = cursor;
            if flow.instruction_complete() {
                flow.pc = pc + 1;
                flow.reset_progress();
            }
            Ok(())
        } else {
            self.exec_flowwise(flow, instr, units, sink)
        }
    }

    /// Executes a flow-wise instruction: one operation on the home group's
    /// common operands.
    fn exec_flowwise(
        &mut self,
        flow: &mut TakenFlow,
        instr: DecodedInst,
        units: &mut [Vec<UnitSeq>],
        sink: &mut StepSink,
    ) -> Result<(), TcfError> {
        let home = flow.home_group();
        let (next_pc, unit) = if instr.is_data() {
            // Lane 0 stands for the whole flow: its operands are the
            // common operands, its reference ranks as implicit thread 0,
            // and its result is uniform.
            let mut port = StepPort {
                shared: &self.shared,
                local: &mut self.locals[home],
                sink,
                flow: flow.id,
                group: home,
                rank_base: flow.rank_base,
                flowwise: true,
            };
            let unit = flowwise(instr, flow, &self.config, &mut port)
                .map_err(|f| self.flow_err(flow.id, f))?;
            (flow.pc + 1, unit)
        } else {
            self.exec_flow_control(flow, instr, units)?
        };
        flow.pc = next_pc;
        units[home].push(unit.into());
        Ok(())
    }

    /// The flow-wise instructions that are not data: this engine's own
    /// thickness control, NUMA entry and `split`/`join`, and the control
    /// transfer shared with every engine ([`TcfMachine::control`]).
    /// Returns the next pc and the issue unit the instruction occupies.
    fn exec_flow_control(
        &mut self,
        flow: &mut TakenFlow,
        instr: DecodedInst,
        units: &mut [Vec<UnitSeq>],
    ) -> Result<(usize, IssueUnit), TcfError> {
        let home = flow.home_group();
        let pc = flow.pc;
        let mut next_pc = pc + 1;
        let mut unit = IssueUnit::compute(flow.id, 0);

        match instr {
            DecodedInst::SetThick { src } => {
                if !self.variant.supports_setthick() {
                    return Err(self.unsupported(flow.id, pc, self.variant.name()));
                }
                let v = self.uniform_value(flow, src, "setthick")?;
                if v < 0 || v as usize > MAX_THICKNESS {
                    return Err(self.flow_err(flow.id, TcfFault::BadThickness { requested: v }));
                }
                self.obs.emit(
                    self.steps,
                    self.clock,
                    FlowEvent::ThicknessChange {
                        flow: flow.id,
                        from: flow.thickness,
                        to: v as usize,
                    },
                );
                // Affine registers describe an unbounded progression; pin
                // them at the OLD thickness before it changes, in closed
                // form, so lanes exposed by a later grow read 0 exactly
                // as per-thread storage would.
                let old = flow.thickness;
                if v as usize != old {
                    flow.regs.pin(old);
                }
                flow.thickness = v as usize;
                flow.fragments =
                    self.allocation
                        .fragments(flow.id, flow.thickness, self.config.groups);
                flow.reset_progress();
                unit = IssueUnit::overhead(flow.id);
            }
            DecodedInst::Numa { slots } => {
                if !self.variant.supports_numa() {
                    return Err(self.unsupported(flow.id, pc, self.variant.name()));
                }
                let v = self.uniform_value(flow, slots, "numa bunch length")?;
                if v < 1 || v as usize > MAX_THICKNESS {
                    return Err(self.flow_err(flow.id, TcfFault::BadThickness { requested: v }));
                }
                let slots = v as usize;
                self.absorb_bunch(flow, slots, pc)?;
                flow.mode = ExecMode::Numa { slots };
                flow.regs.collapse_to_flowwise();
                flow.fragments = vec![Fragment::new(home, 0, 1)];
                unit = IssueUnit::overhead(flow.id);
                self.obs.emit(
                    self.steps,
                    self.clock,
                    FlowEvent::ModeSwitch {
                        flow: flow.id,
                        mode: Mode::Numa,
                    },
                );
            }
            DecodedInst::EndNuma => return Err(self.flow_err(flow.id, TcfFault::NotInNuma)),
            DecodedInst::Split { arms } => {
                if !self.variant.supports_split() {
                    return Err(self.unsupported(flow.id, pc, self.variant.name()));
                }
                let mut pending = 0;
                for ai in arms.indices() {
                    // Arms are `Copy` entries of the decoded side table;
                    // fetching one by index keeps `self` unborrowed.
                    let arm = self.decoded.arm(ai);
                    let t = self.uniform_value(flow, arm.thickness, "split arm thickness")?;
                    if t < 1 || t as usize > MAX_THICKNESS {
                        return Err(self.flow_err(flow.id, TcfFault::BadThickness { requested: t }));
                    }
                    let target = self.abs(flow.id, arm.target)?;
                    let child_id = self.alloc_id();
                    let mut child = Flow::new(child_id, t as usize, target, flow.regs.len());
                    child.regs = flow.regs.clone();
                    child.regs.collapse_to_flowwise();
                    child.parent = Some(flow.id);
                    child.fragments =
                        self.allocation
                            .fragments(child_id, t as usize, self.config.groups);
                    self.flows.insert(child);
                    self.obs.emit(
                        self.steps,
                        self.clock,
                        FlowEvent::FlowSpawned {
                            flow: child_id,
                            parent: Some(flow.id),
                            thickness: t as usize,
                        },
                    );
                    pending += 1;
                    // Flow creation copies the R common registers: the
                    // O(R) flow-branch cost of Table 1.
                    units[home].push(UnitSeq::OverheadRun {
                        flow: flow.id,
                        count: self.config.regs_per_thread,
                    });
                }
                if pending > 0 {
                    flow.set_status(FlowStatus::WaitingJoin { pending });
                    self.obs.emit(
                        self.steps,
                        self.clock,
                        FlowEvent::Split {
                            flow: flow.id,
                            arms: pending,
                        },
                    );
                    self.obs.emit(
                        self.steps,
                        self.clock,
                        FlowEvent::WaitBegin {
                            flow: flow.id,
                            pending,
                        },
                    );
                }
            }
            DecodedInst::Join => {
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
                self.notify_join(parent)?;
            }
            _ => match self.control(flow, instr)? {
                Some(Control::Goto(target)) => next_pc = target,
                Some(Control::Halt) => {}
                None => return Err(self.unsupported(flow.id, pc, self.variant.name())),
            },
        }
        Ok((next_pc, unit))
    }

    /// Decrements a parent's pending-join count, waking it at zero.
    pub(crate) fn notify_join(&mut self, parent: u32) -> Result<(), TcfError> {
        self.notify_join_many(parent, 1)
    }

    /// Decrements a parent's pending-join count by `count` arrivals at
    /// once — how an async spawn *block* of `count` threads reports its
    /// collective `sjoin` in O(1) — waking the parent at zero.
    pub(crate) fn notify_join_many(&mut self, parent: u32, count: usize) -> Result<(), TcfError> {
        let step = self.steps;
        let missing = move |what: String| TcfError {
            fault: TcfFault::Internal { what },
            step,
            flow: None,
        };
        let status = self
            .flows
            .get(&parent)
            .ok_or_else(|| missing(format!("join to missing parent {parent}")))?
            .status();
        let next = match status {
            FlowStatus::WaitingJoin { pending } if pending > count => FlowStatus::WaitingJoin {
                pending: pending - count,
            },
            FlowStatus::WaitingSpawn { pending } if pending > count => FlowStatus::WaitingSpawn {
                pending: pending - count,
            },
            FlowStatus::WaitingJoin { .. } | FlowStatus::WaitingSpawn { .. } => FlowStatus::Running,
            _ => {
                return Err(self.host_err(TcfFault::Internal {
                    what: format!("join to non-waiting parent {parent}"),
                }))
            }
        };
        self.flows.set_status(parent, next);
        if next == FlowStatus::Running {
            self.obs
                .emit(self.steps, self.clock, FlowEvent::WaitEnd { flow: parent });
        }
        Ok(())
    }

    /// Configurable single operation: `numa T` executed by a unit flow
    /// absorbs its `T - 1` same-group sibling flows (which must be at the
    /// same `numa` instruction) into a bunch. Under every other variant a
    /// flow enters NUMA mode alone.
    fn absorb_bunch(&mut self, leader: &mut Flow, slots: usize, pc: usize) -> Result<(), TcfError> {
        let group = leader.home_group();
        let leader_id = leader.id;
        let step = self.steps;
        let fail = move |why: &str| TcfError {
            fault: TcfFault::BunchFormation {
                why: why.to_string(),
            },
            step,
            flow: Some(leader_id),
        };
        for sid in self.bunch_siblings(leader_id, slots) {
            let sibling = self
                .flows
                .get(&sid)
                .ok_or_else(|| fail("sibling flow missing"))?;
            if sibling.home_group() != group {
                return Err(fail("sibling in another group"));
            }
            if !sibling.is_running() {
                return Err(fail("sibling not running"));
            }
            if sibling.pc != pc {
                return Err(fail("siblings not at a common pc"));
            }
            self.flows
                .set_status(sid, FlowStatus::Absorbed { leader: leader_id });
        }
        Ok(())
    }

    /// Ids of the sibling unit flows a bunch of `slots` led by `leader`
    /// absorbs: none under the variants whose flows enter NUMA mode alone.
    pub(crate) fn bunch_siblings(&self, leader: u32, slots: usize) -> std::ops::Range<u32> {
        match self.variant {
            Variant::ConfigurableSingleOperation => leader + 1..leader + slots as u32,
            _ => 0..0,
        }
    }
}
