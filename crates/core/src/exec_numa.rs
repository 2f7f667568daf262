//! NUMA-mode slice execution.
//!
//! A flow with thickness `1/T` executes `T` consecutive instructions of a
//! single sequential stream per synchronous step (§3.1). Memory accesses
//! are direct and sequentially consistent: a sequential stream cannot
//! reorder around its own references, and the timing layer serializes them
//! ([`GroupPipeline::run_step`] with `serialize_mem`), which is exactly why
//! NUMA code should target the group's local block rather than the shared
//! memory.
//!
//! [`GroupPipeline::run_step`]: tcf_machine::GroupPipeline::run_step

use tcf_machine::{IssueUnit, UnitKind, UnitSeq};
use tcf_obs::{FlowEvent, Mode};

use crate::decoded::DecodedInst;
use crate::error::{TcfError, TcfFault};
use crate::flow::{ExecMode, Flow, FlowStatus, TakenFlow};
use crate::machine::TcfMachine;
use crate::semantics::{flowwise, Control, DirectPort};

impl TcfMachine {
    /// Executes one step's slice (up to `slots` instructions) of NUMA-mode
    /// flow `id`.
    pub(crate) fn run_numa_slice(
        &mut self,
        id: u32,
        units: &mut [Vec<UnitSeq>],
    ) -> Result<(), TcfError> {
        let mut flow = self.flows.take(id);
        let result = self.numa_slice_inner(&mut flow, units);
        self.flows.put(flow);
        result
    }

    fn numa_slice_inner(
        &mut self,
        flow: &mut TakenFlow,
        units: &mut [Vec<UnitSeq>],
    ) -> Result<(), TcfError> {
        let slots = match flow.mode {
            ExecMode::Numa { slots } => slots,
            ExecMode::Pram => {
                return Err(self.flow_err(
                    flow.id,
                    TcfFault::Internal {
                        what: "numa slice on PRAM-mode flow".into(),
                    },
                ))
            }
        };
        let home = flow.home_group();
        // Consecutive same-kind units of the bunch coalesce into
        // run-length spans (thread rank = slot index), so a long
        // compute-only or local-only stretch of a `1/T` stream reaches the
        // timing layer as O(#kind changes) spans instead of `T` units —
        // the closed-form `ComputeRun`/serialized-`LocalRun` arms of
        // [`GroupPipeline::run_step_seq`] then replay each span in O(1).
        // Shared references stay `One`: a serialized remote round trip
        // must walk the router per message.
        let mut run: Option<UnitSeq> = None;

        for slot in 0..slots {
            let pc = flow.pc;
            let instr = self.fetch(flow)?;
            let mut next_pc = pc + 1;
            let mut unit = IssueUnit::compute(flow.id, 0);

            if instr.is_data() {
                // The stream is flow-wise (registers collapsed on entry):
                // lane 0, sequentially consistent memory.
                let mut port = DirectPort {
                    shared: &mut self.shared,
                    local: &mut self.locals[home],
                };
                unit = flowwise(instr, flow, &self.config, &mut port)
                    .map_err(|f| self.flow_err(flow.id, f))?;
            } else if let DecodedInst::EndNuma = instr {
                flow.pc = pc + 1;
                self.exit_numa(flow, slots);
                self.obs.emit(
                    self.steps,
                    self.clock,
                    FlowEvent::ModeSwitch {
                        flow: flow.id,
                        mode: Mode::Pram,
                    },
                );
                units[home].extend(run.take());
                units[home].push(IssueUnit::overhead(flow.id).into());
                return Ok(());
            } else {
                match self.control(flow, instr)? {
                    Some(Control::Goto(target)) => next_pc = target,
                    Some(Control::Halt) => {
                        self.halt_absorbed(flow.id, slots);
                        units[home].extend(run.take());
                        units[home].push(unit.into());
                        return Ok(());
                    }
                    None => return Err(self.unsupported(flow.id, pc, "NUMA mode")),
                }
            }

            flow.pc = next_pc;
            match (unit.kind, &mut run) {
                (UnitKind::Compute, Some(UnitSeq::ComputeRun { count, .. })) => *count += 1,
                (UnitKind::MemLocal, Some(UnitSeq::LocalRun { count, .. })) => *count += 1,
                (UnitKind::Compute, r) => {
                    units[home].extend(r.take());
                    *r = Some(UnitSeq::ComputeRun {
                        flow: flow.id,
                        thread0: slot,
                        count: 1,
                    });
                }
                (UnitKind::MemLocal, r) => {
                    units[home].extend(r.take());
                    *r = Some(UnitSeq::LocalRun {
                        flow: flow.id,
                        thread0: slot,
                        count: 1,
                    });
                }
                (_, r) => {
                    units[home].extend(r.take());
                    units[home].push(unit.into());
                }
            }
        }
        units[home].extend(run);
        Ok(())
    }

    /// Leaves NUMA mode: the flow resumes PRAM execution with thickness 1;
    /// under the Configurable single operation variant the siblings its
    /// bunch of `slots` absorbed resume with a copy of the bunch's final
    /// state.
    fn exit_numa(&mut self, flow: &mut Flow, slots: usize) {
        flow.mode = ExecMode::Pram;
        flow.thickness = 1;
        flow.fragments = self.allocation.fragments(flow.id, 1, self.config.groups);
        for sid in self.bunch_siblings(flow.id, slots) {
            let sibling = self.flows.get_mut(&sid).expect("absorbed sibling exists");
            debug_assert_eq!(sibling.status(), FlowStatus::Absorbed { leader: flow.id });
            // NUMA execution is flow-wise (registers collapsed on entry),
            // so the sibling restarts from lane-0 views only — no
            // per-thread lane vectors are ever copied here, keeping bunch
            // exits O(registers) like the masked compressed path keeps
            // divergent thick steps O(runs). The sibling's first thick
            // step re-enters the same compressed pipeline.
            sibling.regs = flow.regs.clone_flowwise();
            sibling.call_stack = flow.call_stack.clone();
            sibling.pc = flow.pc;
            self.flows.set_status(sid, FlowStatus::Running);
        }
    }

    /// Halts every flow absorbed into the bunch of `slots` led by `leader`.
    fn halt_absorbed(&mut self, leader: u32, slots: usize) {
        for sid in self.bunch_siblings(leader, slots) {
            self.flows.set_status(sid, FlowStatus::Halted);
        }
    }
}

#[cfg(test)]
mod tests {
    use tcf_isa::instr::{Instr, Operand};
    use tcf_isa::op::AluOp;
    use tcf_isa::program::Program;
    use tcf_isa::reg::r;
    use tcf_isa::word::Word;
    use tcf_machine::MachineConfig;

    use crate::error::TcfFault;
    use crate::machine::{TcfMachine, MAX_THICKNESS};
    use crate::variant::Variant;

    /// `numa <slots>; r1 += 1  (× body); endnuma; halt`.
    fn numa_prog(slots: Word, body: usize) -> Program {
        let mut instrs = vec![Instr::Numa {
            slots: Operand::Imm(slots),
        }];
        for _ in 0..body {
            instrs.push(Instr::Alu {
                op: AluOp::Add,
                rd: r(1),
                ra: r(1),
                rb: Operand::Imm(1),
            });
        }
        instrs.push(Instr::EndNuma);
        instrs.push(Instr::Halt);
        Program::new(instrs, Default::default(), vec![]).unwrap()
    }

    fn machine(slots: Word, body: usize) -> TcfMachine {
        TcfMachine::new(
            MachineConfig::small(),
            Variant::SingleInstruction,
            numa_prog(slots, body),
        )
    }

    #[test]
    fn bunch_length_one_is_the_slowest_legal_bunch() {
        // T = 1 (thickness 1/1): exactly one sequential instruction per
        // synchronous step — the boundary where NUMA mode degenerates to
        // plain sequential stepping.
        let mut m1 = machine(1, 5);
        let s1 = m1.run(1_000).unwrap();
        assert_eq!(m1.flow(0).unwrap().regs.read(r(1), 0), 5);
        // A bunch long enough to swallow the body in one slice.
        let mut m6 = machine(6, 5);
        let s6 = m6.run(1_000).unwrap();
        assert_eq!(m6.flow(0).unwrap().regs.read(r(1), 0), 5);
        assert!(
            s1.steps > s6.steps,
            "T=1 ({} steps) must step more often than T=6 ({} steps)",
            s1.steps,
            s6.steps
        );
        // 5 adds + endnuma at one instruction per step, plus the numa and
        // halt steps.
        assert_eq!(s1.steps, 8);
    }

    #[test]
    fn bunch_length_max_thickness_is_accepted() {
        // T = MAX_THICKNESS is the far boundary of 1/T: legal, and an
        // immediate endnuma must terminate the slice without executing
        // MAX instructions.
        let mut m = machine(MAX_THICKNESS as Word, 0);
        let s = m.run(1_000).unwrap();
        assert!(s.halted);
        assert_eq!(m.live_flows(), 0);
    }

    #[test]
    fn bunch_length_zero_is_rejected() {
        let mut m = machine(0, 1);
        let err = m.run(1_000).unwrap_err();
        assert!(
            matches!(err.fault, TcfFault::BadThickness { requested: 0 }),
            "got {:?}",
            err.fault
        );
    }

    #[test]
    fn bunch_length_above_max_thickness_is_rejected() {
        let mut m = machine(MAX_THICKNESS as Word + 1, 1);
        let err = m.run(1_000).unwrap_err();
        assert!(
            matches!(err.fault, TcfFault::BadThickness { .. }),
            "got {:?}",
            err.fault
        );
    }

    #[test]
    fn negative_bunch_length_is_rejected() {
        let mut m = machine(-3, 1);
        let err = m.run(1_000).unwrap_err();
        assert!(
            matches!(err.fault, TcfFault::BadThickness { requested: -3 }),
            "got {:?}",
            err.fault
        );
    }
}
