//! The PRAM-NUMA machine: synchronous interpreter plus timing.
//!
//! Each synchronous step has five phases:
//!
//! 1. **Issue** — every running, unbunched thread executes exactly one
//!    instruction. Thread-private effects (registers, pc, call stack) and
//!    local-memory accesses apply immediately; shared-memory operations are
//!    collected as [`MemRef`]s.
//! 2. **Shared-memory step** — the collected references execute with PRAM
//!    semantics (reads see pre-step state, CRCW resolution, multioperation
//!    combining) in [`SharedMemory::step`].
//! 3. **Write-back** — read/multiprefix replies land in registers.
//! 4. **Bunch slices** — every NUMA bunch executes up to `len` consecutive
//!    instructions of its single stream with direct (sequentially
//!    consistent) memory access. Bunches therefore observe the step's PRAM
//!    writes; the paper leaves this ordering open and this choice is the
//!    deterministic one.
//! 5. **Timing** — each group's issued units run through its
//!    [`GroupPipeline`]: the PRAM portion as a full `T_p`-slot rotation
//!    (idle slots burn cycles — the baseline's low-TLP problem), the bunch
//!    portion serialized (sequential stream). The machine clock advances to
//!    the slowest group (synchronous step barrier).
//!
//! Local-memory accesses by PRAM-mode threads of one group are serialized
//! in thread order within the step; the local block is NUMA territory and
//! carries no PRAM read-before-write guarantee.

use std::sync::Arc;

use tcf_isa::instr::{Instr, MemSpace, Operand, Target};
use tcf_isa::program::Program;
use tcf_isa::reg::SpecialReg;
use tcf_isa::word::{to_addr, Word};
use tcf_machine::{GroupPipeline, IssueUnit, MachineConfig, MachineStats, RunSummary, Trace};
use tcf_mem::{
    LocalMemory, MemError, MemOp, MemRef, RefOrigin, SharedMemory, StepScratch, StepStats,
};
use tcf_net::Network;

use crate::bunch::Bunch;
use crate::error::{ExecError, Fault};
use crate::thread::{ThreadState, ThreadStatus};

/// Default step budget for [`PramMachine::run`].
pub const DEFAULT_STEP_BUDGET: u64 = 1_000_000;

struct GroupState {
    threads: Vec<ThreadState>,
    bunches: Vec<Bunch>,
}

/// A baseline PRAM-NUMA machine executing one program SPMD-style on all
/// `P × T_p` threads.
pub struct PramMachine {
    config: MachineConfig,
    program: Arc<Program>,
    /// Why the program's static data did not fit shared memory; every
    /// step returns it.
    load_error: Option<MemError>,
    shared: SharedMemory,
    locals: Vec<LocalMemory>,
    groups: Vec<GroupState>,
    pipes: Vec<GroupPipeline>,
    net: Network,
    trace: Trace,
    stats: MachineStats,
    mem_stats: StepStats,
    clock: u64,
    steps: u64,
    /// Persistent scratch of the shared-memory step.
    mem_scratch: StepScratch,
}

/// Pending register write-back from the shared-memory step.
struct Writeback {
    group: usize,
    thread: usize,
    rd: tcf_isa::reg::Reg,
    ref_idx: usize,
}

impl PramMachine {
    /// Builds a machine and loads `program` (including its static data).
    /// All threads start at the program entry. Static data outside the
    /// configured shared memory does not stop construction: the machine
    /// keeps the [`MemError`] and every [`step`](PramMachine::step)
    /// returns it as [`Fault::Mem`].
    pub fn new(config: MachineConfig, program: Program) -> PramMachine {
        config.validate();
        let mut shared = SharedMemory::new(
            config.shared_size,
            config.groups,
            config.module_map,
            config.crcw,
        );
        let load_error = shared.load_data(&program.data).err();
        let groups = (0..config.groups)
            .map(|_| GroupState {
                threads: (0..config.threads_per_group)
                    .map(|_| ThreadState::new(program.entry, config.regs_per_thread))
                    .collect(),
                bunches: Vec::new(),
            })
            .collect();
        let pipes = (0..config.groups)
            .map(|g| {
                GroupPipeline::with_ilp(
                    g,
                    config.module_latency,
                    config.local_latency,
                    config.ilp_width,
                )
            })
            .collect();
        let locals = (0..config.groups)
            .map(|g| LocalMemory::new(g, config.local_size))
            .collect();
        let net = Network::new(config.topology, config.hop_latency);
        PramMachine {
            program: Arc::new(program),
            load_error,
            shared,
            locals,
            groups,
            pipes,
            net,
            trace: Trace::disabled(),
            stats: MachineStats::default(),
            mem_stats: StepStats::default(),
            clock: 0,
            steps: 0,
            mem_scratch: StepScratch::default(),
            config,
        }
    }

    /// Enables or disables execution tracing (disabled by default).
    pub fn set_tracing(&mut self, on: bool) {
        self.trace = if on {
            Trace::recording()
        } else {
            Trace::disabled()
        };
    }

    /// The machine configuration.
    pub fn config(&self) -> &MachineConfig {
        &self.config
    }

    /// The loaded program.
    pub fn program(&self) -> &Arc<Program> {
        &self.program
    }

    /// Shared-memory host read.
    pub fn peek(&self, addr: usize) -> Result<Word, ExecError> {
        self.shared.peek(addr).map_err(|e| self.host_err(e.into()))
    }

    /// Shared-memory host read of a range.
    pub fn peek_range(&self, base: usize, len: usize) -> Result<Vec<Word>, ExecError> {
        self.shared
            .peek_range(base, len)
            .map_err(|e| self.host_err(e.into()))
    }

    /// Shared-memory host write.
    pub fn poke(&mut self, addr: usize, v: Word) -> Result<(), ExecError> {
        let step = self.steps;
        self.shared.poke(addr, v).map_err(|e| ExecError {
            fault: e.into(),
            step,
            group: 0,
            thread: None,
        })
    }

    /// Local-memory host read.
    pub fn peek_local(&self, group: usize, addr: usize) -> Result<Word, ExecError> {
        self.locals[group]
            .read(addr)
            .map_err(|e| self.host_err(e.into()))
    }

    /// Immutable access to a thread's state.
    pub fn thread(&self, group: usize, thread: usize) -> &ThreadState {
        &self.groups[group].threads[thread]
    }

    /// Host-side bunch configuration (the paper's "configured to a NUMA
    /// bunch"): threads `leader..leader+len` of `group` become one bunch.
    pub fn form_bunch(&mut self, group: usize, leader: usize, len: usize) -> Result<(), ExecError> {
        let step = self.steps;
        let gs = &mut self.groups[group];
        let bunch = Bunch::new(leader, len);
        let fail = |why: &str| ExecError {
            fault: Fault::BunchFormation { why: why.into() },
            step,
            group,
            thread: Some(leader),
        };
        if leader + len > gs.threads.len() {
            return Err(fail("members out of range"));
        }
        if gs.bunches.iter().any(|b| b.overlaps(&bunch)) {
            return Err(fail("overlaps an existing bunch"));
        }
        let pc = gs.threads[leader].pc;
        for t in bunch.members() {
            if !gs.threads[t].is_running() {
                return Err(fail("member not running"));
            }
            if gs.threads[t].pc != pc {
                return Err(fail("members not at a common pc"));
            }
        }
        for t in bunch.members().skip(1) {
            gs.threads[t].status = ThreadStatus::Bunched { leader };
        }
        gs.bunches.push(bunch);
        Ok(())
    }

    /// The recorded trace.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Pipeline statistics so far.
    pub fn stats(&self) -> &MachineStats {
        &self.stats
    }

    /// Steps executed so far.
    pub fn steps_executed(&self) -> u64 {
        self.steps
    }

    /// Cycles elapsed so far.
    pub fn cycles(&self) -> u64 {
        self.clock
    }

    /// Whether any thread still has work.
    pub fn is_live(&self) -> bool {
        self.groups
            .iter()
            .any(|g| g.threads.iter().any(|t| t.is_running()))
    }

    fn host_err(&self, fault: Fault) -> ExecError {
        ExecError {
            fault,
            step: self.steps,
            group: 0,
            thread: None,
        }
    }

    fn err(&self, group: usize, thread: usize, fault: Fault) -> ExecError {
        ExecError {
            fault,
            step: self.steps,
            group,
            thread: Some(thread),
        }
    }

    fn special(&self, group: usize, thread: usize, sr: SpecialReg) -> Word {
        let tp = self.config.threads_per_group;
        let rank = (group * tp + thread) as Word;
        match sr {
            SpecialReg::Tid | SpecialReg::Gid | SpecialReg::Fid => rank,
            SpecialReg::Thickness => 1,
            SpecialReg::Pid => group as Word,
            SpecialReg::NProcs => self.config.groups as Word,
            SpecialReg::NThreads => tp as Word,
        }
    }

    /// Executes one synchronous machine step. Returns `false` when no
    /// thread had work (the machine is finished).
    pub fn step(&mut self) -> Result<bool, ExecError> {
        if let Some(e) = &self.load_error {
            return Err(self.host_err(Fault::Mem(e.clone())));
        }
        if !self.is_live() {
            return Ok(false);
        }
        // One reference count per step; fetches borrow from it, not `self`.
        let program = Arc::clone(&self.program);
        let ngroups = self.groups.len();
        let mut pram_units: Vec<Vec<IssueUnit>> = vec![Vec::new(); ngroups];
        let mut bunch_units: Vec<Vec<IssueUnit>> = vec![Vec::new(); ngroups];
        let mut refs: Vec<MemRef> = Vec::new();
        let mut writebacks: Vec<Writeback> = Vec::new();

        // Phase 1: PRAM-mode issue, one instruction per running thread.
        #[allow(clippy::needless_range_loop)] // g also indexes self.groups
        for g in 0..ngroups {
            for t in 0..self.config.threads_per_group {
                match self.groups[g].threads[t].status {
                    ThreadStatus::Halted => pram_units[g].push(IssueUnit::idle()),
                    ThreadStatus::Bunched { .. } => {} // slot donated to the bunch
                    ThreadStatus::Running => {
                        if self.groups[g].bunches.iter().any(|b| b.leader == t) {
                            // Leaders execute their slice in phase 4.
                            continue;
                        }
                        let unit = self.issue_thread(g, t, &program, &mut refs, &mut writebacks)?;
                        pram_units[g].push(unit);
                    }
                }
            }
        }

        // Phase 2: the shared-memory step.
        let (replies, mstats) = self
            .shared
            .step_with(&refs, &mut self.mem_scratch)
            .map_err(|e| self.host_err(e.into()))?;
        self.mem_stats.absorb(&mstats);

        // Phase 3: write-backs.
        for wb in writebacks {
            if let Some(v) = replies[wb.ref_idx] {
                self.groups[wb.group].threads[wb.thread].write_reg(wb.rd, v);
            }
        }

        // Phase 4: bunch slices (sequential streams, direct memory).
        for (g, units) in bunch_units.iter_mut().enumerate() {
            let bunches = self.groups[g].bunches.clone();
            for bunch in bunches {
                self.run_bunch_slice(g, bunch, &program, units)?;
            }
        }

        // Phase 5: timing. All groups start the step together; the machine
        // clock advances to the slowest group's completion.
        let start = self.clock;
        let mut end = start;
        #[allow(clippy::needless_range_loop)] // parallel arrays indexed together
        for g in 0..ngroups {
            let out = self.pipes[g].run_step(
                start,
                &pram_units[g],
                false,
                &mut self.net,
                &mut self.trace,
                &mut self.stats,
            );
            let mut gend = out.end_cycle;
            if !bunch_units[g].is_empty() {
                let out2 = self.pipes[g].run_step(
                    gend,
                    &bunch_units[g],
                    true,
                    &mut self.net,
                    &mut self.trace,
                    &mut self.stats,
                );
                gend = out2.end_cycle;
            }
            end = end.max(gend);
        }
        self.clock = end;
        self.stats.cycles = end;
        self.steps += 1;
        // The machine owns the step counter (a step may span several
        // pipeline calls); mirror it into the stats snapshot.
        self.stats.steps = self.steps;
        Ok(true)
    }

    /// Runs until every thread halts or the step budget is exhausted.
    pub fn run(&mut self, max_steps: u64) -> Result<RunSummary, ExecError> {
        while self.is_live() {
            if self.steps >= max_steps {
                return Err(self.host_err(Fault::StepBudgetExhausted { budget: max_steps }));
            }
            self.step()?;
        }
        Ok(RunSummary {
            steps: self.steps,
            cycles: self.clock,
            halted: true,
            machine: self.stats,
            memory: self.mem_stats.clone(),
            network: self.net.stats().clone(),
        })
    }

    fn operand(&self, group: usize, thread: usize, o: Operand) -> Word {
        match o {
            Operand::Reg(r) => self.groups[group].threads[thread].read_reg(r),
            Operand::Imm(w) => w,
        }
    }

    fn target_abs(&self, group: usize, thread: usize, t: &Target) -> Result<usize, ExecError> {
        t.abs().ok_or_else(|| {
            self.err(
                group,
                thread,
                Fault::Malformed {
                    what: "unresolved target".into(),
                },
            )
        })
    }

    /// Issues one PRAM-mode instruction for thread `t` of group `g`.
    fn issue_thread(
        &mut self,
        g: usize,
        t: usize,
        program: &Program,
        refs: &mut Vec<MemRef>,
        writebacks: &mut Vec<Writeback>,
    ) -> Result<IssueUnit, ExecError> {
        let pc = self.groups[g].threads[t].pc;
        let Some(instr) = program.fetch(pc) else {
            return Err(self.err(g, t, Fault::PcOutOfRange { pc }));
        };
        self.stats.fetches += 1;
        let flow = (g * self.config.threads_per_group + t) as u32;
        let rank = g * self.config.threads_per_group + t;
        let origin = RefOrigin::new(g, rank);
        let mut next_pc = pc + 1;
        let mut unit = IssueUnit::compute(flow, t);

        match *instr {
            Instr::Alu { op, rd, ra, rb } => {
                let a = self.groups[g].threads[t].read_reg(ra);
                let b = self.operand(g, t, rb);
                self.groups[g].threads[t].write_reg(rd, op.eval(a, b));
            }
            Instr::Ldi { rd, imm } => self.groups[g].threads[t].write_reg(rd, imm),
            Instr::Mfs { rd, sr } => {
                let v = self.special(g, t, sr);
                self.groups[g].threads[t].write_reg(rd, v);
            }
            Instr::Sel { rd, cond, rt, rf } => {
                let c = self.groups[g].threads[t].read_reg(cond);
                let v = if c != 0 {
                    self.groups[g].threads[t].read_reg(rt)
                } else {
                    self.operand(g, t, rf)
                };
                self.groups[g].threads[t].write_reg(rd, v);
            }
            Instr::Ld {
                rd,
                base,
                off,
                space,
            } => {
                let addr = to_addr(self.groups[g].threads[t].read_reg(base).wrapping_add(off));
                match space {
                    MemSpace::Shared => {
                        unit = IssueUnit::shared_mem(flow, t, self.shared.module_of(addr));
                        writebacks.push(Writeback {
                            group: g,
                            thread: t,
                            rd,
                            ref_idx: refs.len(),
                        });
                        refs.push(MemRef::new(origin, MemOp::Read(addr)));
                    }
                    MemSpace::Local => {
                        unit = IssueUnit::local_mem(flow, t);
                        let v = self.locals[g]
                            .read(addr)
                            .map_err(|e| self.err(g, t, e.into()))?;
                        self.groups[g].threads[t].write_reg(rd, v);
                    }
                }
            }
            Instr::St {
                rs,
                base,
                off,
                space,
            } => {
                let st = &self.groups[g].threads[t];
                let addr = to_addr(st.read_reg(base).wrapping_add(off));
                let v = st.read_reg(rs);
                match space {
                    MemSpace::Shared => {
                        unit = IssueUnit::shared_mem(flow, t, self.shared.module_of(addr));
                        refs.push(MemRef::new(origin, MemOp::Write(addr, v)));
                    }
                    MemSpace::Local => {
                        unit = IssueUnit::local_mem(flow, t);
                        self.locals[g]
                            .write(addr, v)
                            .map_err(|e| self.err(g, t, e.into()))?;
                    }
                }
            }
            Instr::StMasked {
                cond,
                rs,
                base,
                off,
                space,
            } => {
                let st = &self.groups[g].threads[t];
                let masked_in = st.read_reg(cond) != 0;
                let addr = to_addr(st.read_reg(base).wrapping_add(off));
                let v = st.read_reg(rs);
                if masked_in {
                    match space {
                        MemSpace::Shared => {
                            unit = IssueUnit::shared_mem(flow, t, self.shared.module_of(addr));
                            refs.push(MemRef::new(origin, MemOp::Write(addr, v)));
                        }
                        MemSpace::Local => {
                            unit = IssueUnit::local_mem(flow, t);
                            self.locals[g]
                                .write(addr, v)
                                .map_err(|e| self.err(g, t, e.into()))?;
                        }
                    }
                }
            }
            Instr::MultiOp {
                kind,
                base,
                off,
                rs,
            } => {
                let st = &self.groups[g].threads[t];
                let addr = to_addr(st.read_reg(base).wrapping_add(off));
                let v = st.read_reg(rs);
                unit = IssueUnit::shared_mem(flow, t, self.shared.module_of(addr));
                refs.push(MemRef::new(origin, MemOp::Multi(kind, addr, v)));
            }
            Instr::MultiPrefix {
                kind,
                rd,
                base,
                off,
                rs,
            } => {
                let st = &self.groups[g].threads[t];
                let addr = to_addr(st.read_reg(base).wrapping_add(off));
                let v = st.read_reg(rs);
                unit = IssueUnit::shared_mem(flow, t, self.shared.module_of(addr));
                writebacks.push(Writeback {
                    group: g,
                    thread: t,
                    rd,
                    ref_idx: refs.len(),
                });
                refs.push(MemRef::new(origin, MemOp::Prefix(kind, addr, v)));
            }
            Instr::Jmp { ref target } => next_pc = self.target_abs(g, t, target)?,
            Instr::Br {
                cond,
                rs,
                ref target,
            } => {
                if cond.holds(self.groups[g].threads[t].read_reg(rs)) {
                    next_pc = self.target_abs(g, t, target)?;
                }
            }
            Instr::Call { ref target } => {
                let dst = self.target_abs(g, t, target)?;
                self.groups[g].threads[t].call_stack.push(pc + 1);
                next_pc = dst;
            }
            Instr::Ret => match self.groups[g].threads[t].call_stack.pop() {
                Some(ra) => next_pc = ra,
                None => return Err(self.err(g, t, Fault::EmptyCallStack)),
            },
            Instr::Numa { slots } => {
                let len = self.operand(g, t, slots).max(1) as usize;
                self.form_bunch(g, t, len)?;
                unit = IssueUnit::overhead(flow);
            }
            Instr::EndNuma => return Err(self.err(g, t, Fault::NotInBunch)),
            Instr::Sync | Instr::Nop => {}
            Instr::Halt => {
                self.groups[g].threads[t].status = ThreadStatus::Halted;
            }
            Instr::SetThick { .. }
            | Instr::Split { .. }
            | Instr::Join
            | Instr::Spawn { .. }
            | Instr::SJoin => {
                return Err(self.err(
                    g,
                    t,
                    Fault::Unsupported {
                        instr: instr.to_string(),
                    },
                ))
            }
        }

        self.groups[g].threads[t].pc = next_pc;
        Ok(unit)
    }

    /// Executes one bunch's slice: up to `len` consecutive instructions of
    /// the leader's stream with direct memory access.
    fn run_bunch_slice(
        &mut self,
        g: usize,
        bunch: Bunch,
        program: &Program,
        units: &mut Vec<IssueUnit>,
    ) -> Result<(), ExecError> {
        let leader = bunch.leader;
        if !self.groups[g].threads[leader].is_running() {
            return Ok(());
        }
        let flow = (g * self.config.threads_per_group + leader) as u32;

        for _ in 0..bunch.len {
            let pc = self.groups[g].threads[leader].pc;
            let Some(instr) = program.fetch(pc) else {
                return Err(self.err(g, leader, Fault::PcOutOfRange { pc }));
            };
            self.stats.fetches += 1;
            let mut next_pc = pc + 1;
            let mut unit = IssueUnit::compute(flow, leader);

            match *instr {
                Instr::Alu { op, rd, ra, rb } => {
                    let a = self.groups[g].threads[leader].read_reg(ra);
                    let b = self.operand(g, leader, rb);
                    self.groups[g].threads[leader].write_reg(rd, op.eval(a, b));
                }
                Instr::Ldi { rd, imm } => self.groups[g].threads[leader].write_reg(rd, imm),
                Instr::Mfs { rd, sr } => {
                    let v = self.special(g, leader, sr);
                    self.groups[g].threads[leader].write_reg(rd, v);
                }
                Instr::Sel { rd, cond, rt, rf } => {
                    let c = self.groups[g].threads[leader].read_reg(cond);
                    let v = if c != 0 {
                        self.groups[g].threads[leader].read_reg(rt)
                    } else {
                        self.operand(g, leader, rf)
                    };
                    self.groups[g].threads[leader].write_reg(rd, v);
                }
                Instr::Ld {
                    rd,
                    base,
                    off,
                    space,
                } => {
                    let addr = to_addr(
                        self.groups[g].threads[leader]
                            .read_reg(base)
                            .wrapping_add(off),
                    );
                    let v = match space {
                        MemSpace::Shared => {
                            unit = IssueUnit::shared_mem(flow, leader, self.shared.module_of(addr));
                            self.shared
                                .peek(addr)
                                .map_err(|e| self.err(g, leader, e.into()))?
                        }
                        MemSpace::Local => {
                            unit = IssueUnit::local_mem(flow, leader);
                            self.locals[g]
                                .read(addr)
                                .map_err(|e| self.err(g, leader, e.into()))?
                        }
                    };
                    self.groups[g].threads[leader].write_reg(rd, v);
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
                    let masked_out = matches!(*instr, Instr::StMasked { cond, .. }
                        if self.groups[g].threads[leader].read_reg(cond) == 0);
                    let st = &self.groups[g].threads[leader];
                    let addr = to_addr(st.read_reg(base).wrapping_add(off));
                    let v = st.read_reg(rs);
                    if !masked_out {
                        match space {
                            MemSpace::Shared => {
                                unit = IssueUnit::shared_mem(
                                    flow,
                                    leader,
                                    self.shared.module_of(addr),
                                );
                                self.shared
                                    .poke(addr, v)
                                    .map_err(|e| self.err(g, leader, e.into()))?;
                            }
                            MemSpace::Local => {
                                unit = IssueUnit::local_mem(flow, leader);
                                self.locals[g]
                                    .write(addr, v)
                                    .map_err(|e| self.err(g, leader, e.into()))?;
                            }
                        }
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
                    // Sequential stream: a multioperation degenerates to a
                    // read-modify-write; a multiprefix additionally returns
                    // the old value.
                    let st = &self.groups[g].threads[leader];
                    let addr = to_addr(st.read_reg(base).wrapping_add(off));
                    let v = st.read_reg(rs);
                    unit = IssueUnit::shared_mem(flow, leader, self.shared.module_of(addr));
                    let old = self
                        .shared
                        .peek(addr)
                        .map_err(|e| self.err(g, leader, e.into()))?;
                    self.shared
                        .poke(addr, kind.combine(old, v))
                        .map_err(|e| self.err(g, leader, e.into()))?;
                    if let Instr::MultiPrefix { rd, .. } = *instr {
                        self.groups[g].threads[leader].write_reg(rd, old);
                    }
                }
                Instr::Jmp { ref target } => next_pc = self.target_abs(g, leader, target)?,
                Instr::Br {
                    cond,
                    rs,
                    ref target,
                } => {
                    if cond.holds(self.groups[g].threads[leader].read_reg(rs)) {
                        next_pc = self.target_abs(g, leader, target)?;
                    }
                }
                Instr::Call { ref target } => {
                    let dst = self.target_abs(g, leader, target)?;
                    self.groups[g].threads[leader].call_stack.push(pc + 1);
                    next_pc = dst;
                }
                Instr::Ret => match self.groups[g].threads[leader].call_stack.pop() {
                    Some(ra) => next_pc = ra,
                    None => return Err(self.err(g, leader, Fault::EmptyCallStack)),
                },
                Instr::EndNuma => {
                    // Dissolve: all members share the bunch's final state.
                    self.dissolve_bunch(g, bunch, pc + 1);
                    units.push(IssueUnit::overhead(flow));
                    return Ok(());
                }
                Instr::Halt => {
                    for t in bunch.members() {
                        self.groups[g].threads[t].status = ThreadStatus::Halted;
                    }
                    self.groups[g].bunches.retain(|b| b.leader != bunch.leader);
                    units.push(unit);
                    return Ok(());
                }
                Instr::Numa { .. } => {
                    return Err(self.err(
                        g,
                        leader,
                        Fault::BunchFormation {
                            why: "nested numa inside a bunch".into(),
                        },
                    ))
                }
                Instr::Sync | Instr::Nop => {}
                Instr::SetThick { .. }
                | Instr::Split { .. }
                | Instr::Join
                | Instr::Spawn { .. }
                | Instr::SJoin => {
                    return Err(self.err(
                        g,
                        leader,
                        Fault::Unsupported {
                            instr: instr.to_string(),
                        },
                    ))
                }
            }

            self.groups[g].threads[leader].pc = next_pc;
            units.push(unit);
        }
        Ok(())
    }

    fn dissolve_bunch(&mut self, g: usize, bunch: Bunch, resume_pc: usize) {
        let leader_state = {
            let l = &mut self.groups[g].threads[bunch.leader];
            l.pc = resume_pc;
            l.clone()
        };
        for t in bunch.members().skip(1) {
            let member = &mut self.groups[g].threads[t];
            *member = leader_state.clone();
            member.status = ThreadStatus::Running;
        }
        self.groups[g].bunches.retain(|b| b.leader != bunch.leader);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcf_isa::asm::assemble;

    fn small() -> MachineConfig {
        MachineConfig::small()
    }

    fn machine(src: &str) -> PramMachine {
        PramMachine::new(small(), assemble(src).unwrap())
    }

    #[test]
    fn all_threads_run_spmd() {
        // Every thread writes its global rank to mem[1000 + rank].
        let mut m = machine(
            "main:
                mfs r1, gid
                ldi r2, 1000
                add r3, r2, r1
                st r1, [r3+0]
                halt
            ",
        );
        let s = m.run(100).unwrap();
        assert_eq!(s.steps, 5);
        let total = small().total_threads();
        let vals = m.peek_range(1000, total).unwrap();
        for (i, v) in vals.iter().enumerate() {
            assert_eq!(*v, i as Word);
        }
    }

    #[test]
    fn thread_loop_covers_oversized_array() {
        // for (i = thread_id; i < 256; i += nthreads) c[i] = i * 2
        let mut m = machine(
            "main:
                mfs r1, gid          ; i = thread_id
                mfs r2, nprocs
                mfs r3, nthreads
                mul r2, r2, r3       ; total threads = 64
            loop:
                slt r4, r1, 256
                beqz r4, done
                shl r5, r1, 1        ; i * 2
                ldi r6, 2000
                add r6, r6, r1
                st r5, [r6+0]
                add r1, r1, r2
                jmp loop
            done:
                halt
            ",
        );
        m.run(1000).unwrap();
        let vals = m.peek_range(2000, 256).unwrap();
        for (i, v) in vals.iter().enumerate() {
            assert_eq!(*v, 2 * i as Word, "element {i}");
        }
    }

    #[test]
    fn multiprefix_sums_across_machine() {
        let mut m = machine(
            "main:
                ldi r1, 1
                mpadd r2, [r0+500], r1   ; every thread adds 1
                mfs r3, gid
                ldi r4, 600
                add r4, r4, r3
                st r2, [r4+0]            ; store my prefix
                halt
            ",
        );
        m.run(100).unwrap();
        let total = small().total_threads();
        assert_eq!(m.peek(500).unwrap(), total as Word);
        let prefixes = m.peek_range(600, total).unwrap();
        for (rank, p) in prefixes.iter().enumerate() {
            assert_eq!(*p, rank as Word, "prefix of rank {rank}");
        }
    }

    #[test]
    fn concurrent_write_resolution_is_policy_driven() {
        let mut m = machine(
            "main:
                mfs r1, gid
                st r1, [r0+50]
                halt
            ",
        );
        m.run(100).unwrap();
        // Arbitrary policy: highest rank wins.
        assert_eq!(m.peek(50).unwrap(), (small().total_threads() - 1) as Word);
    }

    #[test]
    fn call_and_ret_per_thread() {
        let mut m = machine(
            "main:
                ldi r1, 5
                call double
                st r1, [r0+70]
                halt
            double:
                shl r1, r1, 1
                ret
            ",
        );
        m.run(100).unwrap();
        assert_eq!(m.peek(70).unwrap(), 10);
    }

    #[test]
    fn numa_bunch_runs_sequentially_faster() {
        // SPMD `numa 4` partitions each group's 16 threads into 4 bunches
        // of 4; every bunch counts to 40 sequentially, then dissolves.
        let src = |bunch: bool| {
            format!(
                "main:
                    {numa}
                    ldi r4, 0
                loop:
                    add r4, r4, 1
                    slt r5, r4, 40
                    bnez r5, loop
                    {endnuma}
                    mfs r1, gid
                    mfs r2, nthreads
                    mod r3, r1, r2
                    bnez r3, out
                    mfs r6, pid
                    ldi r7, 300
                    add r7, r7, r6
                    st r4, [r7+0]
                    halt
                out:
                    halt
                ",
                numa = if bunch { "numa 4" } else { "nop" },
                endnuma = if bunch { "endnuma" } else { "nop" },
            )
        };
        let mut with = machine(&src(true));
        let s_with = with.run(1000).unwrap();
        for g in 0..small().groups {
            assert_eq!(with.peek(300 + g).unwrap(), 40);
        }
        let mut without = machine(&src(false));
        let s_without = without.run(1000).unwrap();
        // The 120-instruction sequential loop takes ~120 steps on plain
        // threads but ~30 bunch slices in 4-thread bunches.
        assert!(
            s_with.steps * 3 < s_without.steps,
            "bunching gave no speedup: {} vs {} steps",
            s_with.steps,
            s_without.steps
        );
    }

    #[test]
    fn bunch_dissolve_shares_state() {
        // Inside the bunch only the leader's stream runs; it captures the
        // leader's gid in r2. After `endnuma` every member continues with a
        // copy of that shared state, so member slots store the *leader's*
        // gid, not their own.
        let mut m = machine(
            "main:
                numa 4
                mfs r2, gid          ; leader's rank, captured in the bunch
                endnuma
                mfs r3, gid          ; threads diverge again after endnuma
                ldi r4, 400
                add r4, r4, r3
                st r2, [r4+0]
                halt
            ",
        );
        m.run(200).unwrap();
        let total = small().total_threads();
        let vals = m.peek_range(400, total).unwrap();
        for (rank, v) in vals.iter().enumerate() {
            let leader_rank = (rank / 4) * 4;
            assert_eq!(*v, leader_rank as Word, "thread {rank}");
        }
    }

    #[test]
    fn unsupported_tcf_instructions_fault() {
        let mut m = machine("main:\n setthick 4\n halt\n");
        let e = m.run(10).unwrap_err();
        assert!(matches!(e.fault, Fault::Unsupported { .. }));
    }

    #[test]
    fn endnuma_outside_bunch_faults() {
        let mut m = machine("main:\n endnuma\n halt\n");
        let e = m.run(10).unwrap_err();
        assert!(matches!(e.fault, Fault::NotInBunch));
    }

    #[test]
    fn data_outside_shared_memory_faults_the_first_step() {
        let mut m = machine(".data 100000000: 1 2\nmain:\n halt\n");
        let e = m.run(10).unwrap_err();
        assert!(matches!(e.fault, Fault::Mem(_)), "{e}");
        assert_eq!(m.steps_executed(), 0);
    }

    #[test]
    fn runaway_program_hits_budget() {
        let mut m = machine("main:\n jmp main\n");
        let e = m.run(50).unwrap_err();
        assert!(matches!(e.fault, Fault::StepBudgetExhausted { budget: 50 }));
    }

    #[test]
    fn falling_off_program_faults() {
        let mut m = machine("main:\n nop\n");
        let e = m.run(10).unwrap_err();
        assert!(matches!(e.fault, Fault::PcOutOfRange { .. }));
    }

    #[test]
    fn masked_store_only_writes_selected_threads() {
        let mut m = machine(
            "main:
                mfs r1, gid
                slt r2, r1, 4        ; threads 0..3 selected
                ldi r3, 800
                add r3, r3, r1
                ldi r4, 9
                stm r2, r4, [r3+0]
                halt
            ",
        );
        m.run(100).unwrap();
        let vals = m.peek_range(800, 8).unwrap();
        assert_eq!(vals, vec![9, 9, 9, 9, 0, 0, 0, 0]);
    }

    #[test]
    fn local_memory_is_per_group() {
        let mut m = machine(
            "main:
                mfs r1, gid
                mfs r2, nthreads
                mod r3, r1, r2
                bnez r3, done        ; one thread per group
                mfs r4, pid
                stl r4, [r0+5]       ; local mem of own group
                ldl r5, [r0+5]
                ldi r6, 900
                add r6, r6, r4
                st r5, [r6+0]
                halt
            done:
                halt
            ",
        );
        m.run(100).unwrap();
        for g in 0..small().groups {
            assert_eq!(m.peek(900 + g).unwrap(), g as Word);
            assert_eq!(m.peek_local(g, 5).unwrap(), g as Word);
        }
    }

    #[test]
    fn low_tlp_burns_idle_slots() {
        // One live thread per group: utilization collapses towards 1/T_p.
        let mut m = machine(
            "main:
                mfs r1, gid
                mfs r2, nthreads
                mod r3, r1, r2
                bnez r3, done
                ldi r4, 100
            loop:
                sub r4, r4, 1
                bnez r4, loop
                halt
            done:
                halt
            ",
        );
        let s = m.run(10_000).unwrap();
        // One live thread in a 16-slot rotation: utilization collapses to
        // the order of 1/T_p (fetch accounting doubles the issued-work
        // count, hence the threshold of 0.2 rather than 1/16).
        assert!(
            s.machine.utilization() < 0.2,
            "expected slot-rotation collapse, got {}",
            s.machine.utilization()
        );
    }
}
