//! Where an instruction gets its meaning.
//!
//! The paper's six variants are one model that differs in *scheduling*
//! (which lanes of which flow run this step) and in *memory discipline*
//! (a PRAM step with collected references, or sequentially consistent
//! direct access). This module holds the part that does not differ:
//!
//! * [`lane`] — what each of the nine data instructions does for one
//!   implicit thread, generic over a [`MemPort`] ([`flowwise`] is lane 0
//!   standing for the whole flow);
//! * [`StepPort`] / [`DirectPort`] — the two memory disciplines;
//! * [`TcfMachine::control`] — `jmp/br/call/ret/halt/sync/nop`, which
//!   happen once per flow whatever its thickness.
//!
//! The executors ([`crate::exec_sync`], [`crate::exec_numa`],
//! [`crate::exec_async`]) keep what the paper says differs: the Balanced
//! bound window, the async quantum and block split, the NUMA bunch slot
//! loop, and `setthick/numa/split/join/spawn/sjoin/endnuma`. The
//! compressed and vectorized rungs of thick execution
//! ([`crate::thick_exec`]) are shortcuts for many lanes of [`lane`] at
//! once and are pinned against it by the differential suites.

use tcf_isa::instr::{Instr, MemSpace, MultiKind, Operand, Target};
use tcf_isa::program::Program;
use tcf_isa::reg::Reg;
use tcf_isa::word::{to_addr, Addr, Word};
use tcf_machine::{IssueUnit, MachineConfig};
use tcf_mem::{LocalMemory, MemError, MemOp, MemRef, RefOrigin, SharedMemory};
use tcf_obs::FlowEvent;

use crate::error::{TcfError, TcfFault};
use crate::flow::{Flow, FlowStatus, TakenFlow};
use crate::machine::{special_value, TcfMachine};

/// Destination lanes of a pending register write-back.
#[derive(Debug, Clone, Copy)]
pub(crate) enum WbTarget {
    /// Flow-wise load: the value becomes uniform.
    Uniform,
    /// One implicit thread's lane.
    Lane(usize),
    /// `count` consecutive lanes starting at `base`, served by a single
    /// strided bulk reference; replies arrive via
    /// [`tcf_mem::BulkReplies`] rather than the scalar reply vector.
    Lanes { base: usize, count: usize },
}

/// Pending register write-back from the shared-memory step.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Writeback {
    pub flow: u32,
    pub rd: Reg,
    pub target: WbTarget,
    /// Index into the reference list the write-back was queued beside.
    pub ref_idx: usize,
}

/// What a PRAM step collects before memory resolves: the shared
/// references, the write-backs waiting on their replies, and the undo log
/// of local writes already applied.
#[derive(Default)]
pub(crate) struct StepSink {
    pub refs: Vec<MemRef>,
    pub wbs: Vec<Writeback>,
    /// `(addr, previous value)` per local-memory write, for rolling a
    /// group's local memory back when an *earlier* fragment faulted (the
    /// sequential engine would never have reached this one).
    pub local_undo: Vec<(Addr, Word)>,
}

impl StepSink {
    pub(crate) fn clear(&mut self) {
        self.refs.clear();
        self.wbs.clear();
        self.local_undo.clear();
    }

    /// Queues one shared reference and, when it replies, the write-back
    /// `(flow, rd, lanes)` that consumes the reply.
    pub(crate) fn push(&mut self, origin: RefOrigin, op: MemOp, wb: Option<(u32, Reg, WbTarget)>) {
        if let Some((flow, rd, target)) = wb {
            self.wbs.push(Writeback {
                flow,
                rd,
                target,
                ref_idx: self.refs.len(),
            });
        }
        self.refs.push(MemRef::new(origin, op));
    }
}

/// How a lane's memory accesses reach memory.
pub(crate) trait MemPort {
    /// The shared memory's module map.
    fn shared(&self) -> &SharedMemory;
    /// Lane `e` loads `addr` into `rd`: `Some(value)` when served now,
    /// `None` when a write-back was queued instead.
    fn load(
        &mut self,
        space: MemSpace,
        addr: Addr,
        rd: Reg,
        e: usize,
    ) -> Result<Option<Word>, MemError>;
    /// Lane `e` stores `v` to `addr`.
    fn store(&mut self, space: MemSpace, addr: Addr, v: Word, e: usize) -> Result<(), MemError>;
    /// Lane `e` contributes `v` to the multioperation on shared `addr`;
    /// with `rd` it is a multiprefix whose reply is the word before the
    /// lane's contribution (`Some` when served now).
    fn multi(
        &mut self,
        kind: MultiKind,
        addr: Addr,
        v: Word,
        rd: Option<Reg>,
        e: usize,
    ) -> Result<Option<Word>, MemError>;
    /// The module map and reference sink for strided bulk references, on
    /// the port that collects references.
    fn bulk(&mut self) -> Option<(&SharedMemory, &mut StepSink)>;
}

/// The PRAM step discipline: shared accesses become [`MemRef`]s plus
/// pending write-backs, resolved together after every flow has issued;
/// local accesses apply at once, logged for undo.
pub(crate) struct StepPort<'a> {
    pub shared: &'a SharedMemory,
    pub local: &'a mut LocalMemory,
    pub sink: &'a mut StepSink,
    pub flow: u32,
    /// Issuing processor group.
    pub group: usize,
    /// Global rank of the flow's lane 0 (reference ordering).
    pub rank_base: usize,
    /// One operation on the flow's common operands: replies broadcast to
    /// every lane, and nothing can follow that would need the undo log.
    pub flowwise: bool,
}

impl StepPort<'_> {
    fn push(&mut self, e: usize, op: MemOp, rd: Option<Reg>) {
        let target = if self.flowwise {
            WbTarget::Uniform
        } else {
            WbTarget::Lane(e)
        };
        self.sink.push(
            RefOrigin::new(self.group, self.rank_base + e),
            op,
            rd.map(|rd| (self.flow, rd, target)),
        );
    }
}

impl MemPort for StepPort<'_> {
    fn shared(&self) -> &SharedMemory {
        self.shared
    }

    fn load(
        &mut self,
        space: MemSpace,
        addr: Addr,
        rd: Reg,
        e: usize,
    ) -> Result<Option<Word>, MemError> {
        match space {
            MemSpace::Shared => {
                self.push(e, MemOp::Read(addr), Some(rd));
                Ok(None)
            }
            MemSpace::Local => self.local.read(addr).map(Some),
        }
    }

    fn store(&mut self, space: MemSpace, addr: Addr, v: Word, e: usize) -> Result<(), MemError> {
        match space {
            MemSpace::Shared => {
                self.push(e, MemOp::Write(addr, v), None);
                Ok(())
            }
            MemSpace::Local => {
                if !self.flowwise {
                    if let Ok(old) = self.local.read(addr) {
                        self.sink.local_undo.push((addr, old));
                    }
                }
                self.local.write(addr, v)
            }
        }
    }

    fn multi(
        &mut self,
        kind: MultiKind,
        addr: Addr,
        v: Word,
        rd: Option<Reg>,
        e: usize,
    ) -> Result<Option<Word>, MemError> {
        let op = match rd {
            Some(_) => MemOp::Prefix(kind, addr, v),
            None => MemOp::Multi(kind, addr, v),
        };
        self.push(e, op, rd);
        Ok(None)
    }

    fn bulk(&mut self) -> Option<(&SharedMemory, &mut StepSink)> {
        Some((self.shared, self.sink))
    }
}

/// The sequentially consistent discipline of NUMA streams and
/// Multi-instruction (XMT) threads: every access applies at once, in
/// execution order; a multioperation is an atomic fetch-and-op (`ps`).
pub(crate) struct DirectPort<'a> {
    pub shared: &'a mut SharedMemory,
    pub local: &'a mut LocalMemory,
}

impl MemPort for DirectPort<'_> {
    fn shared(&self) -> &SharedMemory {
        self.shared
    }

    fn load(
        &mut self,
        space: MemSpace,
        addr: Addr,
        _rd: Reg,
        _e: usize,
    ) -> Result<Option<Word>, MemError> {
        match space {
            MemSpace::Shared => self.shared.peek(addr),
            MemSpace::Local => self.local.read(addr),
        }
        .map(Some)
    }

    fn store(&mut self, space: MemSpace, addr: Addr, v: Word, _e: usize) -> Result<(), MemError> {
        match space {
            MemSpace::Shared => self.shared.poke(addr, v),
            MemSpace::Local => self.local.write(addr, v),
        }
    }

    fn multi(
        &mut self,
        kind: MultiKind,
        addr: Addr,
        v: Word,
        _rd: Option<Reg>,
        _e: usize,
    ) -> Result<Option<Word>, MemError> {
        let old = self.shared.peek(addr)?;
        self.shared.poke(addr, kind.combine(old, v))?;
        Ok(Some(old))
    }

    fn bulk(&mut self) -> Option<(&SharedMemory, &mut StepSink)> {
        None
    }
}

/// Executes data instruction `inst` for implicit thread `e` of `flow`:
/// the issue unit the lane occupies and the register write it produces
/// now (a load or multiprefix the port defers produces none — its
/// write-back is queued on the port). Registers are read-only here so
/// that every lane of an instruction sees the pre-instruction values;
/// the caller applies the write in the representation it schedules for
/// (uniform for flow-wise execution, a lane log for thick slices).
///
/// Inlined into each executor's loop: as a call it returns ~100 bytes
/// through memory per instruction, measured 1.6x slower on a NUMA stream.
#[inline(always)]
pub(crate) fn lane<P: MemPort>(
    inst: &Instr,
    flow: &Flow,
    e: usize,
    config: &MachineConfig,
    port: &mut P,
) -> Result<(IssueUnit, Option<(Reg, Word)>), TcfFault> {
    let fid = flow.id;
    let read = |r: Reg| flow.regs.read(r, e);
    let opnd = |o: Operand| match o {
        Operand::Reg(r) => read(r),
        Operand::Imm(w) => w,
    };
    let addr_of = |base: Reg, off: Word| to_addr(read(base).wrapping_add(off));
    let mem_unit = |port: &P, space: MemSpace, addr: Addr| match space {
        MemSpace::Shared => IssueUnit::shared_mem(fid, e, port.shared().module_of(addr)),
        MemSpace::Local => IssueUnit::local_mem(fid, e),
    };
    let compute = IssueUnit::compute(fid, e);
    Ok(match *inst {
        Instr::Alu { op, rd, ra, rb } => (compute, Some((rd, op.eval(read(ra), opnd(rb))))),
        Instr::Ldi { rd, imm } => (compute, Some((rd, imm))),
        Instr::Mfs { rd, sr } => (compute, Some((rd, special_value(flow, e, sr, config)))),
        Instr::Sel { rd, cond, rt, rf } => {
            let v = if read(cond) != 0 { read(rt) } else { opnd(rf) };
            (compute, Some((rd, v)))
        }
        Instr::Ld {
            rd,
            base,
            off,
            space,
        } => {
            let addr = addr_of(base, off);
            let unit = mem_unit(port, space, addr);
            (unit, port.load(space, addr, rd, e)?.map(|v| (rd, v)))
        }
        Instr::St {
            rs,
            base,
            off,
            space,
        }
        | Instr::StMasked {
            rs,
            base,
            off,
            space,
            ..
        } => {
            if matches!(*inst, Instr::StMasked { cond, .. } if read(cond) == 0) {
                // A masked-out lane still occupies its issue slot
                // (vector-style masked execution).
                (compute, None)
            } else {
                let addr = addr_of(base, off);
                port.store(space, addr, read(rs), e)?;
                (mem_unit(port, space, addr), None)
            }
        }
        Instr::MultiOp {
            kind,
            base,
            off,
            rs,
        }
        | Instr::MultiPrefix {
            kind,
            base,
            off,
            rs,
            ..
        } => {
            let rd = match *inst {
                Instr::MultiPrefix { rd, .. } => Some(rd),
                _ => None,
            };
            let addr = addr_of(base, off);
            let old = port.multi(kind, addr, read(rs), rd, e)?;
            (mem_unit(port, MemSpace::Shared, addr), rd.zip(old))
        }
        _ => {
            return Err(TcfFault::Internal {
                what: format!("`{inst}` has no per-lane meaning"),
            })
        }
    })
}

/// [`lane`] for an instruction that executes once on its flow's common
/// operands — lane 0 stands for every lane, so the result is written back
/// uniform. Returns the issue unit the operation occupies.
#[inline(always)]
pub(crate) fn flowwise<P: MemPort>(
    inst: &Instr,
    flow: &mut Flow,
    config: &MachineConfig,
    port: &mut P,
) -> Result<IssueUnit, TcfFault> {
    let (unit, write) = lane(inst, flow, 0, config, port)?;
    if let Some((rd, v)) = write {
        flow.regs.write_uniform(rd, v);
    }
    Ok(unit)
}

/// Where a control instruction sends its flow.
pub(crate) enum Control {
    /// Continue at this pc.
    Goto(usize),
    /// The flow halted (status set, `FlowHalted` emitted).
    Halt,
}

impl TcfMachine {
    /// Fetches `flow`'s current instruction — once per flow, whatever its
    /// thickness (Table 1's fetches-per-TCF advantage). `program` is the
    /// step's handle on [`TcfMachine::program`], so the borrowed
    /// instruction leaves `self` free.
    #[inline]
    pub(crate) fn fetch<'p>(
        &mut self,
        program: &'p Program,
        flow: &Flow,
    ) -> Result<&'p Instr, TcfError> {
        let pc = flow.pc;
        let Some(instr) = program.fetch(pc) else {
            return Err(self.flow_err(flow.id, TcfFault::PcOutOfRange { pc }));
        };
        self.stats.fetches += 1;
        self.obs
            .emit(self.steps, self.clock, FlowEvent::Fetch { flow: flow.id });
        Ok(instr)
    }

    /// Executes `instr` when it is one of `jmp/br/call/ret/halt/sync/nop`
    /// — flow-wise by definition: one pc and one call stack per flow
    /// (§2.2), so a branch operand that differs between the flow's lanes
    /// is a fault. `None` for every other instruction.
    #[inline]
    pub(crate) fn control(
        &mut self,
        flow: &mut TakenFlow,
        instr: &Instr,
    ) -> Result<Option<Control>, TcfError> {
        let pc = flow.pc;
        Ok(Some(match *instr {
            Instr::Jmp { ref target } => Control::Goto(self.abs(flow.id, target)?),
            Instr::Br {
                cond,
                rs,
                ref target,
            } => {
                // Tested in place: no clone of a per-thread vector, no
                // representation write-back.
                match flow.regs.value(rs).uniform_over(flow.thickness.max(1)) {
                    Some(v) if cond.holds(v) => Control::Goto(self.abs(flow.id, target)?),
                    Some(_) => Control::Goto(pc + 1),
                    None => return Err(self.flow_err(flow.id, TcfFault::DivergentBranch { pc })),
                }
            }
            Instr::Call { ref target } => {
                let dst = self.abs(flow.id, target)?;
                flow.call_stack.push(pc + 1);
                Control::Goto(dst)
            }
            Instr::Ret => match flow.call_stack.pop() {
                Some(ra) => Control::Goto(ra),
                None => return Err(self.flow_err(flow.id, TcfFault::EmptyCallStack)),
            },
            Instr::Sync | Instr::Nop => Control::Goto(pc + 1),
            Instr::Halt => {
                flow.set_status(FlowStatus::Halted);
                self.obs.emit(
                    self.steps,
                    self.clock,
                    FlowEvent::FlowHalted { flow: flow.id },
                );
                Control::Halt
            }
            _ => return Ok(None),
        }))
    }

    /// The instruction index of a control-transfer target. `Program::new`
    /// resolves every label, so a `Target::Label` here comes from a
    /// program built by hand around it, and faults.
    pub(crate) fn abs(&self, flow: u32, t: &Target) -> Result<usize, TcfError> {
        t.abs().ok_or_else(|| {
            self.flow_err(
                flow,
                TcfFault::Internal {
                    what: "unresolved target".into(),
                },
            )
        })
    }

    /// The fault for an instruction the executing variant (or mode) does
    /// not have.
    pub(crate) fn unsupported(&self, flow: u32, instr: &Instr, variant: &'static str) -> TcfError {
        let instr = instr.to_string();
        self.flow_err(flow, TcfFault::UnsupportedByVariant { instr, variant })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcf_isa::op::AluOp;
    use tcf_isa::reg::r;

    const FID: u32 = 3;
    const GROUP: usize = 2;

    /// A machine's worth of memory plus a unit flow whose registers are
    /// `r1 = 6`, `r2 = -4`, `r3 = 40` (an address), `r4 = 0`.
    struct Rig {
        config: MachineConfig,
        shared: SharedMemory,
        local: LocalMemory,
        sink: StepSink,
        flow: Flow,
    }

    impl Rig {
        fn new() -> Rig {
            let config = MachineConfig::small();
            let shared = SharedMemory::new(
                config.shared_size,
                config.groups,
                config.module_map,
                config.crcw,
            );
            let mut flow = Flow::new(FID, 1, 0, config.regs_per_thread);
            for (k, v) in [(1, 6), (2, -4), (3, 40)] {
                flow.regs.write_uniform(r(k), v);
            }
            Rig {
                local: LocalMemory::new(GROUP, config.local_size),
                shared,
                sink: StepSink::default(),
                flow,
                config,
            }
        }

        fn step(&mut self, inst: &Instr, flowwise: bool) -> Result<LaneOut, TcfFault> {
            let mut port = StepPort {
                shared: &self.shared,
                local: &mut self.local,
                sink: &mut self.sink,
                flow: FID,
                group: GROUP,
                rank_base: self.flow.rank_base,
                flowwise,
            };
            lane(inst, &self.flow, 0, &self.config, &mut port)
        }

        fn direct(&mut self, inst: &Instr) -> Result<LaneOut, TcfFault> {
            let mut port = DirectPort {
                shared: &mut self.shared,
                local: &mut self.local,
            };
            lane(inst, &self.flow, 0, &self.config, &mut port)
        }
    }

    type LaneOut = (IssueUnit, Option<(Reg, Word)>);

    fn shared_unit(rig: &Rig, addr: Addr) -> IssueUnit {
        IssueUnit::shared_mem(FID, 0, rig.shared.module_of(addr))
    }

    #[test]
    fn every_alu_op_is_aluop_eval_on_both_ports() {
        let mut rig = Rig::new();
        for &op in AluOp::ALL.iter() {
            for (rb, b) in [(Operand::Reg(r(2)), -4), (Operand::Imm(9), 9)] {
                let inst = Instr::Alu {
                    op,
                    rd: r(5),
                    ra: r(1),
                    rb,
                };
                let want = (IssueUnit::compute(FID, 0), Some((r(5), op.eval(6, b))));
                assert_eq!(rig.step(&inst, true).unwrap(), want, "{op:?} step port");
                assert_eq!(rig.direct(&inst).unwrap(), want, "{op:?} direct port");
            }
        }
        assert!(rig.sink.refs.is_empty());
    }

    #[test]
    fn register_only_instructions_read_their_lane() {
        let mut rig = Rig::new();
        let compute = IssueUnit::compute(FID, 0);
        let ldi = Instr::Ldi { rd: r(5), imm: -77 };
        assert_eq!(rig.direct(&ldi).unwrap(), (compute, Some((r(5), -77))));
        let mfs = Instr::Mfs {
            rd: r(5),
            sr: tcf_isa::reg::SpecialReg::Fid,
        };
        assert_eq!(
            rig.step(&mfs, false).unwrap(),
            (compute, Some((r(5), FID as Word)))
        );
        // r1 != 0 selects rt; r4 == 0 selects rf, register or immediate.
        for (cond, rf, want) in [
            (r(1), Operand::Imm(8), -4),
            (r(4), Operand::Imm(8), 8),
            (r(4), Operand::Reg(r(3)), 40),
        ] {
            let sel = Instr::Sel {
                rd: r(5),
                cond,
                rt: r(2),
                rf,
            };
            assert_eq!(rig.direct(&sel).unwrap(), (compute, Some((r(5), want))));
            assert_eq!(rig.step(&sel, true).unwrap(), (compute, Some((r(5), want))));
        }
    }

    #[test]
    fn loads_and_stores_on_both_ports_and_spaces() {
        let mut rig = Rig::new();
        let st = |space| Instr::St {
            rs: r(1),
            base: r(3),
            off: 2,
            space,
        };
        let ld = |space| Instr::Ld {
            rd: r(5),
            base: r(3),
            off: 2,
            space,
        };
        let local_unit = IssueUnit::local_mem(FID, 0);

        // Direct: applied at once, in order.
        assert_eq!(
            rig.direct(&st(MemSpace::Shared)).unwrap(),
            (shared_unit(&rig, 42), None)
        );
        assert_eq!(rig.shared.peek(42).unwrap(), 6);
        assert_eq!(
            rig.direct(&ld(MemSpace::Shared)).unwrap(),
            (shared_unit(&rig, 42), Some((r(5), 6)))
        );
        assert_eq!(
            rig.direct(&st(MemSpace::Local)).unwrap(),
            (local_unit, None)
        );
        assert_eq!(
            rig.direct(&ld(MemSpace::Local)).unwrap(),
            (local_unit, Some((r(5), 6)))
        );

        // Step: local traffic applies (with an undo entry unless
        // flow-wise), shared traffic is queued with its write-back.
        rig.local.write(42, 1).unwrap();
        assert_eq!(
            rig.step(&st(MemSpace::Local), false).unwrap(),
            (local_unit, None)
        );
        assert_eq!(rig.sink.local_undo, [(42, 1)]);
        assert_eq!(
            rig.step(&st(MemSpace::Local), true).unwrap(),
            (local_unit, None)
        );
        assert_eq!(rig.sink.local_undo.len(), 1);
        assert_eq!(
            rig.step(&ld(MemSpace::Local), false).unwrap(),
            (local_unit, Some((r(5), 6)))
        );
        assert_eq!(
            rig.step(&st(MemSpace::Shared), false).unwrap(),
            (shared_unit(&rig, 42), None)
        );
        assert_eq!(
            rig.step(&ld(MemSpace::Shared), false).unwrap(),
            (shared_unit(&rig, 42), None)
        );
        assert_eq!(
            rig.step(&ld(MemSpace::Shared), true).unwrap(),
            (shared_unit(&rig, 42), None)
        );
        let origin = RefOrigin::new(GROUP, rig.flow.rank_base);
        assert_eq!(
            rig.sink.refs,
            [
                MemRef::new(origin, MemOp::Write(42, 6)),
                MemRef::new(origin, MemOp::Read(42)),
                MemRef::new(origin, MemOp::Read(42)),
            ]
        );
        let wbs: Vec<_> = rig
            .sink
            .wbs
            .iter()
            .map(|w| (w.flow, w.rd, w.ref_idx))
            .collect();
        assert_eq!(wbs, [(FID, r(5), 1), (FID, r(5), 2)]);
        assert!(matches!(rig.sink.wbs[0].target, WbTarget::Lane(0)));
        assert!(matches!(rig.sink.wbs[1].target, WbTarget::Uniform));
    }

    #[test]
    fn masked_store_selected_and_masked_out() {
        let mut rig = Rig::new();
        let stm = |cond, space| Instr::StMasked {
            cond,
            rs: r(1),
            base: r(3),
            off: 0,
            space,
        };
        let compute = IssueUnit::compute(FID, 0);
        for space in [MemSpace::Shared, MemSpace::Local] {
            // r4 == 0: the lane keeps its issue slot and touches nothing.
            assert_eq!(rig.direct(&stm(r(4), space)).unwrap(), (compute, None));
            assert_eq!(rig.step(&stm(r(4), space), false).unwrap(), (compute, None));
        }
        assert_eq!(rig.shared.peek(40).unwrap(), 0);
        assert_eq!(rig.local.read(40).unwrap(), 0);
        assert!(rig.sink.refs.is_empty() && rig.sink.local_undo.is_empty());
        // r2 != 0: an ordinary store.
        rig.direct(&stm(r(2), MemSpace::Shared)).unwrap();
        rig.direct(&stm(r(2), MemSpace::Local)).unwrap();
        assert_eq!(rig.shared.peek(40).unwrap(), 6);
        assert_eq!(rig.local.read(40).unwrap(), 6);
        rig.step(&stm(r(2), MemSpace::Shared), false).unwrap();
        assert_eq!(rig.sink.refs[0].op, MemOp::Write(40, 6));
    }

    #[test]
    fn every_multi_kind_is_multikind_combine_on_the_direct_port() {
        for &kind in MultiKind::ALL.iter() {
            let mut rig = Rig::new();
            rig.shared.poke(40, 13).unwrap();
            let multiop = Instr::MultiOp {
                kind,
                base: r(3),
                off: 0,
                rs: r(2),
            };
            let prefix = Instr::MultiPrefix {
                kind,
                rd: r(5),
                base: r(3),
                off: 0,
                rs: r(1),
            };
            let unit = shared_unit(&rig, 40);
            let once = kind.combine(13, -4);
            assert_eq!(rig.direct(&multiop).unwrap(), (unit, None), "{kind:?}");
            assert_eq!(rig.shared.peek(40).unwrap(), once, "{kind:?}");
            // A multiprefix replies with the word before its contribution.
            assert_eq!(rig.direct(&prefix).unwrap(), (unit, Some((r(5), once))));
            assert_eq!(rig.shared.peek(40).unwrap(), kind.combine(once, 6));

            // The step port only queues; tcf-mem combines in rank order.
            assert_eq!(rig.step(&multiop, false).unwrap(), (unit, None));
            assert_eq!(rig.step(&prefix, false).unwrap(), (unit, None));
            let ops: Vec<_> = rig.sink.refs.iter().map(|m| m.op).collect();
            assert_eq!(
                ops,
                [MemOp::Multi(kind, 40, -4), MemOp::Prefix(kind, 40, 6)]
            );
            assert_eq!(rig.sink.wbs.len(), 1);
            assert_eq!((rig.sink.wbs[0].rd, rig.sink.wbs[0].ref_idx), (r(5), 1));
        }
    }

    #[test]
    fn faulting_addresses_fault_where_memory_is_touched() {
        let mut rig = Rig::new();
        let past_shared = rig.config.shared_size as Word;
        let past_local = rig.config.local_size as Word;
        let ld = |off, space| Instr::Ld {
            rd: r(5),
            base: r(0),
            off,
            space,
        };
        let st = |off, space| Instr::St {
            rs: r(1),
            base: r(0),
            off,
            space,
        };
        let is_mem = |res: Result<LaneOut, TcfFault>| matches!(res, Err(TcfFault::Mem(_)));
        assert!(is_mem(rig.direct(&ld(past_shared, MemSpace::Shared))));
        assert!(is_mem(rig.direct(&st(past_shared, MemSpace::Shared))));
        assert!(is_mem(rig.direct(&ld(past_local, MemSpace::Local))));
        assert!(is_mem(rig.step(&ld(past_local, MemSpace::Local), false)));
        assert!(is_mem(rig.step(&st(past_local, MemSpace::Local), false)));
        assert!(rig.sink.local_undo.is_empty());
        let multi = Instr::MultiOp {
            kind: MultiKind::Add,
            base: r(0),
            off: past_shared,
            rs: r(1),
        };
        assert!(is_mem(rig.direct(&multi)));
        // The step port defers shared references, and their faults, to
        // the memory step.
        assert!(rig.step(&ld(past_shared, MemSpace::Shared), false).is_ok());
        // Not a data instruction at all.
        assert!(matches!(
            rig.direct(&Instr::Halt),
            Err(TcfFault::Internal { .. })
        ));
    }
}
