//! The extended PRAM-NUMA machine: flow scheduling, memory phases, timing.
//!
//! One synchronous step of the lockstep variants:
//!
//! 1. **Plan & issue** — every runnable PRAM-mode flow is activated in the
//!    TCF buffers of its fragments' groups (a non-resident activation
//!    costs `tcf_load_cost` overhead cycles — the multitasking knee), its
//!    current instruction is fetched once per flow (Table 1's
//!    fetches-per-TCF advantage), classified as *flow-wise* (control,
//!    uniform-operand scalar work: one operation on the home group) or
//!    *thick* (one operation per implicit thread, spread over the flow's
//!    fragments, bounded per step under the Balanced variant), and
//!    executed. Shared-memory operations become collected references.
//! 2. **Shared-memory step** — all collected references execute with PRAM
//!    semantics in one [`SharedMemory::step`].
//! 3. **Write-back** — replies land in thick registers.
//! 4. **NUMA slices** — flows with thickness `1/T` execute `T` consecutive
//!    instructions of their sequential stream with direct memory access.
//! 5. **Timing** — per group, issued units run through the
//!    [`GroupPipeline`]; the machine clock advances to the slowest group.
//!
//! The Multi-instruction variant replaces 1–4 with asynchronous
//! round-robin execution (see [`crate::exec_async`]).
//!
//! [`SharedMemory::step`]: tcf_mem::SharedMemory::step
//! [`GroupPipeline`]: tcf_machine::GroupPipeline

use std::sync::Arc;

use tcf_isa::program::Program;
use tcf_isa::reg::SpecialReg;
use tcf_isa::word::Word;
use tcf_machine::{
    summary_metrics, FlowDesc, GroupPipeline, MachineConfig, MachineStats, RunSummary, TcfBuffer,
    Trace, UnitSeq,
};
use tcf_mem::{BulkReplies, LocalMemory, SharedMemory, StepScratch, StepStats};
use tcf_net::{NetStats, Network};
use tcf_obs::{FlowEvent, MetricsRegistry, ObsSink};

use crate::counters::{EngineCounters, ThickDecayCounters};
use crate::decoded::DecodedProgram;
use crate::error::{TcfError, TcfFault};
use crate::exec_async::AsyncBufs;
use crate::exec_sync::StepBufs;
use crate::flow::{ExecMode, Flow, FlowStatus, FlowTable, Fragment};
use crate::par_engine::Engine;
use crate::sched::Allocation;
use crate::thick_exec::FragOut;
use crate::variant::Variant;

/// Default step budget for [`TcfMachine::run`].
pub const DEFAULT_STEP_BUDGET: u64 = 1_000_000;

/// Hard ceiling on a flow's thickness, protecting the host simulator from
/// runaway `setthick` values. Compressed (`Affine`/`Segments`) execution
/// never materializes lanes, so thickness-10^8 workloads that stay on the
/// masked closed-form path are cheap — the ceiling only bounds what a
/// *decay* to per-thread lanes could be asked to allocate.
pub const MAX_THICKNESS: usize = 1 << 27;

/// A machine executing the extended PRAM-NUMA model under a chosen
/// [`Variant`].
pub struct TcfMachine {
    pub(crate) config: MachineConfig,
    pub(crate) variant: Variant,
    pub(crate) allocation: Allocation,
    pub(crate) program: Arc<Program>,
    /// `program` pre-decoded to flat `Copy` instructions — the hot fetch
    /// path (see [`crate::decoded`]); `program` stays the source of truth
    /// for listings and fault messages.
    pub(crate) decoded: Arc<DecodedProgram>,
    pub(crate) shared: SharedMemory,
    pub(crate) locals: Vec<LocalMemory>,
    pub(crate) net: Network,
    pub(crate) pipes: Vec<GroupPipeline>,
    pub(crate) buffers: Vec<TcfBuffer>,
    pub(crate) flows: FlowTable,
    pub(crate) next_flow_id: u32,
    pub(crate) trace: Trace,
    pub(crate) obs: ObsSink,
    pub(crate) stats: MachineStats,
    pub(crate) mem_stats: StepStats,
    /// Why compressed thick registers decayed (reason taxonomy).
    pub(crate) thick_decay: ThickDecayCounters,
    /// Thick-execution engine counters (slices, coalescing, sharding).
    pub(crate) engine_counters: EngineCounters,
    pub(crate) clock: u64,
    pub(crate) steps: u64,
    pub(crate) engine: Engine,
    /// Persistent scratch of the sequential shared-memory step.
    pub(crate) mem_scratch: StepScratch,
    /// Per-module scratch for concurrent shard resolution (one per
    /// module: shard workers run with `&SharedMemory` and cannot share).
    pub(crate) shard_scratch: Vec<StepScratch>,
    /// Reused per-module reference buckets of the sharded step.
    pub(crate) mem_buckets: Vec<Vec<usize>>,
    /// Reply slots of the last memory step (index-aligned with its refs).
    pub(crate) mem_replies: Vec<Option<Word>>,
    /// Bulk (strided-read) replies of the last memory step.
    pub(crate) mem_bulk: BulkReplies,
    /// Reusable per-step buffers of the synchronous engine.
    pub(crate) step_bufs: StepBufs,
    /// Reusable per-quantum buffers of the asynchronous engine.
    pub(crate) async_bufs: AsyncBufs,
    /// Reusable fragment-output pool of thick execution.
    pub(crate) frag_pool: Vec<FragOut>,
    /// Reusable slice list of thick execution.
    pub(crate) slice_buf: Vec<(Fragment, std::ops::Range<usize>)>,
}

impl TcfMachine {
    /// Builds a machine under `variant` and loads `program`.
    ///
    /// Initial flows depend on the variant: the thread-based variants
    /// (`SingleOperation`, `ConfigurableSingleOperation`) start `P × T_p`
    /// unit flows SPMD-style (their `tid` is the global thread rank, as in
    /// the baseline machine); `FixedThickness` starts one flow of the
    /// fixed width on group 0; the TCF variants start a single flow of
    /// thickness 1 — programs grow it with `setthick`.
    pub fn new(config: MachineConfig, variant: Variant, program: Program) -> TcfMachine {
        let allocation = match variant {
            Variant::SingleInstruction | Variant::Balanced { .. } => Allocation::Horizontal,
            _ => Allocation::Vertical,
        };
        TcfMachine::with_allocation(config, variant, program, allocation)
    }

    /// Like [`new`](TcfMachine::new) with an explicit fragment-allocation
    /// policy (the §5 horizontal-vs-vertical experiment).
    pub fn with_allocation(
        config: MachineConfig,
        variant: Variant,
        program: Program,
        allocation: Allocation,
    ) -> TcfMachine {
        config.validate();
        let mut shared = SharedMemory::new(
            config.shared_size,
            config.groups,
            config.module_map,
            config.crcw,
        );
        shared
            .load_data(&program.data)
            .expect("program data outside configured shared memory");
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
        let buffers = (0..config.groups)
            .map(|_| TcfBuffer::new(config.tcf_buffer_slots, config.tcf_load_cost))
            .collect();
        let net = Network::new(config.topology, config.hop_latency);
        let decoded = Arc::new(DecodedProgram::decode(&program));
        let mut m = TcfMachine {
            variant,
            allocation,
            program: Arc::new(program),
            decoded,
            shared,
            locals,
            net,
            pipes,
            buffers,
            flows: FlowTable::new(),
            next_flow_id: 0,
            trace: Trace::disabled(),
            obs: ObsSink::disabled(),
            stats: MachineStats::default(),
            mem_stats: StepStats::default(),
            thick_decay: ThickDecayCounters::default(),
            engine_counters: EngineCounters::default(),
            clock: 0,
            steps: 0,
            engine: Engine::Sequential,
            mem_scratch: StepScratch::default(),
            shard_scratch: vec![StepScratch::default(); config.groups],
            mem_buckets: Vec::new(),
            mem_replies: Vec::new(),
            mem_bulk: BulkReplies::default(),
            step_bufs: StepBufs::default(),
            async_bufs: AsyncBufs::default(),
            frag_pool: Vec::new(),
            slice_buf: Vec::new(),
            config,
        };
        m.create_initial_flows();
        m
    }

    /// Selects the execution engine (default: sequential). The parallel
    /// engine is deterministic — it produces bit-identical results,
    /// statistics and event streams to the sequential engine at any
    /// worker count; see `docs/PARALLEL.md`.
    pub fn set_engine(&mut self, engine: Engine) {
        self.engine = engine;
    }

    /// The active execution engine.
    pub fn engine(&self) -> Engine {
        self.engine
    }

    fn create_initial_flows(&mut self) {
        let entry = self.program.entry;
        let nregs = self.config.regs_per_thread;
        match self.variant {
            Variant::SingleInstruction | Variant::Balanced { .. } | Variant::MultiInstruction => {
                let mut f = Flow::new(self.alloc_id(), 1, entry, nregs);
                f.rank_base = 0;
                f.fragments = self.allocation.fragments(f.id, 1, self.config.groups);
                self.flows.insert(f);
            }
            Variant::SingleOperation | Variant::ConfigurableSingleOperation => {
                let tp = self.config.threads_per_group;
                for rank in 0..self.config.total_threads() {
                    let id = self.alloc_id();
                    let mut f = Flow::new(id, 1, entry, nregs);
                    f.rank_base = rank;
                    f.tid_offset = rank;
                    f.fragments = vec![crate::flow::Fragment::new(rank / tp, 0, 1)];
                    self.flows.insert(f);
                }
            }
            Variant::FixedThickness { width } => {
                let mut f = Flow::new(self.alloc_id(), width, entry, nregs);
                f.rank_base = 0;
                // A vector machine is a single processor: everything on
                // group 0.
                f.fragments = vec![crate::flow::Fragment::new(0, 0, width)];
                self.flows.insert(f);
            }
        }
    }

    pub(crate) fn alloc_id(&mut self) -> u32 {
        let id = self.next_flow_id;
        self.next_flow_id += 1;
        id
    }

    /// Enables or disables execution tracing (disabled by default).
    pub fn set_tracing(&mut self, on: bool) {
        self.trace = if on {
            Trace::recording()
        } else {
            Trace::disabled()
        };
    }

    /// Enables execution tracing into a bounded ring buffer that keeps
    /// only the `capacity` most recent events (constant memory for long
    /// runs; see `Trace::dropped`).
    pub fn set_trace_ring(&mut self, capacity: usize) {
        self.trace = Trace::ring(capacity);
    }

    /// Enables or disables flow-lifecycle observation (disabled by
    /// default). Enabling emits a retroactive `FlowSpawned` for every
    /// live flow, since initial flows are created before observation can
    /// be switched on.
    pub fn set_observing(&mut self, on: bool) {
        if on {
            self.obs = ObsSink::recording();
            self.emit_existing_flows();
        } else {
            self.obs = ObsSink::disabled();
        }
    }

    /// Like [`set_observing`](TcfMachine::set_observing) but keeping only
    /// the `capacity` most recent events.
    pub fn set_observing_ring(&mut self, capacity: usize) {
        self.obs = ObsSink::ring(capacity);
        self.emit_existing_flows();
    }

    fn emit_existing_flows(&mut self) {
        let live: Vec<(u32, Option<u32>, usize)> = self
            .flows
            .values()
            .filter(|f| f.status() != FlowStatus::Halted)
            .map(|f| (f.id, f.parent, f.thickness))
            .collect();
        for (id, parent, thickness) in live {
            self.obs.emit(
                self.steps,
                self.clock,
                FlowEvent::FlowSpawned {
                    flow: id,
                    parent,
                    thickness,
                },
            );
        }
    }

    /// The machine configuration.
    pub fn config(&self) -> &MachineConfig {
        &self.config
    }

    /// The active variant.
    pub fn variant(&self) -> Variant {
        self.variant
    }

    /// The loaded program.
    pub fn program(&self) -> &Arc<Program> {
        &self.program
    }

    /// Shared-memory host read.
    pub fn peek(&self, addr: usize) -> Result<Word, TcfError> {
        self.shared.peek(addr).map_err(|e| self.host_err(e.into()))
    }

    /// Shared-memory host read of a range.
    pub fn peek_range(&self, base: usize, len: usize) -> Result<Vec<Word>, TcfError> {
        self.shared
            .peek_range(base, len)
            .map_err(|e| self.host_err(e.into()))
    }

    /// Shared-memory host write.
    pub fn poke(&mut self, addr: usize, v: Word) -> Result<(), TcfError> {
        let step = self.steps;
        self.shared.poke(addr, v).map_err(|e| TcfError {
            fault: e.into(),
            step,
            flow: None,
        })
    }

    /// Local-memory host read.
    pub fn peek_local(&self, group: usize, addr: usize) -> Result<Word, TcfError> {
        self.locals[group]
            .read(addr)
            .map_err(|e| self.host_err(e.into()))
    }

    /// A flow by id.
    pub fn flow(&self, id: u32) -> Option<&Flow> {
        self.flows.get(&id)
    }

    /// Sum of the thicknesses of all currently running flows (NUMA-mode
    /// flows count their fractional thickness as 0) — the machine-wide
    /// thickness profile used by the Figure 3/4 reproductions.
    pub fn running_thickness(&self) -> usize {
        self.flows
            .running()
            .map(|f| match f.mode {
                ExecMode::Pram => f.thickness,
                ExecMode::Numa { .. } => 0,
            })
            .sum()
    }

    /// Ids of all flows ever created (including halted ones).
    pub fn flow_ids(&self) -> Vec<u32> {
        self.flows.keys().collect()
    }

    /// Test support: force-materializes every flow's registers into
    /// per-thread form (see [`ThickRegs::materialize_all`]) — semantically
    /// the identity, but it disables the uniform-operand scalarization so
    /// property tests can check the fast path against the general thick
    /// path.
    ///
    /// [`ThickRegs::materialize_all`]: crate::ThickRegs::materialize_all
    pub fn materialize_all_registers(&mut self) {
        for f in self.flows.values_mut() {
            let t = f.thickness.max(1);
            f.regs.materialize_all(t);
        }
    }

    /// Number of flows that still have work or are waiting.
    pub fn live_flows(&self) -> usize {
        self.flows.live()
    }

    /// Test support: recounts the scheduler's run list and flow counts
    /// from the flows themselves (see [`FlowTable::check`]). Debug builds
    /// assert it as they step.
    #[doc(hidden)]
    pub fn check_flow_table(&self) -> Result<(), String> {
        self.flows.check()
    }

    /// The recorded trace.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// The recorded flow-lifecycle event stream.
    pub fn obs(&self) -> &ObsSink {
        &self.obs
    }

    /// Pipeline statistics so far.
    pub fn stats(&self) -> &MachineStats {
        &self.stats
    }

    /// Network statistics so far.
    pub fn net_stats(&self) -> &NetStats {
        self.net.stats()
    }

    /// Aggregated shared-memory step statistics so far.
    pub fn mem_stats(&self) -> &StepStats {
        &self.mem_stats
    }

    /// Compressed-register decay counters, by reason.
    pub fn thick_decay(&self) -> &ThickDecayCounters {
        &self.thick_decay
    }

    /// Bulk-resolution path statistics (fast closed-form vs expanded).
    pub fn bulk_stats(&self) -> &tcf_mem::BulkPathStats {
        self.shared.bulk_stats()
    }

    /// Thick-execution engine counters (slices, coalescing, sharded work).
    pub fn engine_counters(&self) -> &EngineCounters {
        &self.engine_counters
    }

    /// All of the machine's measurements as one named-series registry
    /// (machine, memory, network and TCF-buffer metrics plus the latency
    /// histograms). See `docs/OBSERVABILITY.md` for the naming scheme.
    pub fn metrics(&self) -> MetricsRegistry {
        let mut reg = summary_metrics(&self.stats, &self.mem_stats, self.net.stats());
        let mut switches = 0u64;
        let mut misses = 0u64;
        let mut overhead = 0u64;
        let mut reload = tcf_obs::LatencyHistogram::new();
        for b in &self.buffers {
            switches += b.switches;
            misses += b.misses;
            overhead += b.overhead_cycles;
            reload.merge(&b.reload);
        }
        reg.set_counter("buffer.switches", switches);
        reg.set_counter("buffer.misses", misses);
        reg.set_counter("buffer.overhead_cycles", overhead);
        reg.set_histogram("buffer.reload", reload);
        reg.set_counter("thick.decay_setthick", self.thick_decay.setthick);
        reg.set_counter("thick.decay_lane_write", self.thick_decay.lane_write);
        reg.set_counter("thick.decay_mem_reply", self.thick_decay.mem_reply);
        reg.set_counter("thick.decay_mask_runs", self.thick_decay.mask_runs);
        reg.set_counter("thick.decay_fault", self.thick_decay.fault);
        reg.set_counter(
            "thick.decay_balanced_resume",
            self.thick_decay.balanced_resume,
        );
        reg.set_counter("thick.decay_async_slice", self.thick_decay.async_slice);
        reg.set_counter("thick.decay_total", self.thick_decay.total());
        let e = &self.engine_counters;
        reg.set_counter("engine.thick_instrs", e.thick_instrs);
        reg.set_counter("engine.slices", e.slices);
        reg.set_counter("engine.compressed_slices", e.compressed_slices);
        reg.set_counter("engine.per_lane_slices", e.per_lane_slices);
        reg.set_counter("engine.mask_hits", e.mask_hits);
        reg.set_counter("engine.mask_misses", e.mask_misses);
        reg.set_counter("engine.coalesce_hits", e.coalesce_hits);
        reg.set_counter("engine.coalesce_misses", e.coalesce_misses);
        reg.set_counter("engine.absorbed_events", e.absorbed_events);
        reg.set_counter("engine.flows_visited", e.flows_visited);
        let bulk = self.shared.bulk_stats();
        reg.set_counter("mem.bulk_fast", bulk.fast);
        reg.set_counter("mem.bulk_expanded", bulk.expanded);
        reg.set_counter("mem.bulk_expanded_lanes", bulk.expanded_lanes);
        reg.set_counter("obs.trace_dropped", self.trace.dropped());
        reg.set_counter("obs.events_dropped", self.obs.dropped());
        reg
    }

    /// Per-group TCF buffers (multitasking statistics).
    pub fn buffers(&self) -> &[TcfBuffer] {
        &self.buffers
    }

    /// Steps executed so far.
    pub fn steps_executed(&self) -> u64 {
        self.steps
    }

    /// Cycles elapsed so far.
    pub fn cycles(&self) -> u64 {
        self.clock
    }

    /// Adds an independent task as a new root flow at `entry` with the
    /// given thickness — multitasking in the extended model treats tasks
    /// as TCFs (§5). Only meaningful for the TCF variants (and, with
    /// thickness 1, Multi-instruction).
    pub fn spawn_task(&mut self, entry: usize, thickness: usize) -> Result<u32, TcfError> {
        if thickness != 1 && !self.variant.supports_setthick() {
            return Err(self.host_err(TcfFault::UnsupportedByVariant {
                instr: format!("spawn_task(thickness = {thickness})"),
                variant: self.variant.name(),
            }));
        }
        if matches!(
            self.variant,
            Variant::SingleOperation
                | Variant::ConfigurableSingleOperation
                | Variant::FixedThickness { .. }
        ) {
            return Err(self.host_err(TcfFault::UnsupportedByVariant {
                instr: "spawn_task".into(),
                variant: self.variant.name(),
            }));
        }
        let id = self.alloc_id();
        let mut f = Flow::new(id, thickness, entry, self.config.regs_per_thread);
        f.fragments = self.allocation.fragments(id, thickness, self.config.groups);
        self.flows.insert(f);
        self.obs.emit(
            self.steps,
            self.clock,
            FlowEvent::FlowSpawned {
                flow: id,
                parent: None,
                thickness,
            },
        );
        Ok(id)
    }

    pub(crate) fn host_err(&self, fault: TcfFault) -> TcfError {
        TcfError {
            fault,
            step: self.steps,
            flow: None,
        }
    }

    pub(crate) fn flow_err(&self, flow: u32, fault: TcfFault) -> TcfError {
        TcfError {
            fault,
            step: self.steps,
            flow: Some(flow),
        }
    }

    /// Whether any flow can make progress this step.
    fn has_workable_flow(&mut self) -> bool {
        self.engine_counters.flows_visited += self.flows.runnable().len() as u64;
        self.flows.running().any(|f| match f.mode {
            ExecMode::Pram => f.thickness > 0,
            ExecMode::Numa { slots } => slots > 0,
        })
    }

    /// Executes one machine step. Returns `false` when no flow had work.
    pub fn step(&mut self) -> Result<bool, TcfError> {
        if !self.has_workable_flow() {
            if self.flows.waiting() > 0 {
                return Err(self.host_err(TcfFault::Deadlock));
            }
            return Ok(false);
        }
        let stepped = match self.variant {
            Variant::MultiInstruction => self.step_async(),
            _ => self.step_sync(),
        };
        self.flows.settle();
        stepped?;
        // A recount walks every slot, so debug builds space it to stay
        // O(1) per step amortised: every step while the table is small,
        // every 157th behind 10^4 flows.
        let spacing = self.flows.len() as u64 / 64 + 1;
        if cfg!(debug_assertions) && self.steps.is_multiple_of(spacing) {
            assert_eq!(self.flows.check(), Ok(()));
        }
        self.steps += 1;
        // The machine owns the step counter (a step may span several
        // pipeline calls); mirror it into the stats snapshot.
        self.stats.steps = self.steps;
        self.obs.emit(
            self.steps,
            self.clock,
            FlowEvent::StepEnd {
                step: self.steps,
                cycle: self.clock,
            },
        );
        Ok(true)
    }

    /// Runs until every flow halts (or sleeps at thickness 0) or the step
    /// budget is exhausted.
    pub fn run(&mut self, max_steps: u64) -> Result<RunSummary, TcfError> {
        loop {
            if self.steps >= max_steps {
                return Err(self.host_err(TcfFault::StepBudgetExhausted { budget: max_steps }));
            }
            if !self.step()? {
                break;
            }
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

    /// Phase 5 timing: runs each group's unit lists through its pipeline
    /// and advances the machine clock to the slowest group. Units arrive
    /// run-length compressed ([`UnitSeq`]); the pipeline advances its
    /// cadence in closed form over compressed runs, so a `T`-thick compute
    /// instruction's timing costs O(1) instead of O(T).
    pub(crate) fn apply_timing(
        &mut self,
        pram_units: &[Vec<UnitSeq>],
        numa_units: &[Vec<UnitSeq>],
    ) {
        let start = self.clock;
        let mut end = start;
        for g in 0..self.config.groups {
            let out = self.pipes[g].run_step_seq(
                start,
                &pram_units[g],
                false,
                &mut self.net,
                &mut self.trace,
                &mut self.stats,
            );
            let mut gend = out.end_cycle;
            if !numa_units[g].is_empty() {
                let out2 = self.pipes[g].run_step_seq(
                    gend,
                    &numa_units[g],
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
    }

    /// Activates `flow`'s descriptor in the TCF buffer of every fragment
    /// group, pushing one reload-overhead run where it missed. Free when
    /// resident — the extended model's zero-cost task switch.
    pub(crate) fn activate_in_buffers(&mut self, flow: &Flow, units: &mut [Vec<UnitSeq>]) {
        let desc = match flow.mode {
            ExecMode::Pram => FlowDesc::pram(flow.id, flow.thickness, flow.pc),
            ExecMode::Numa { slots } => FlowDesc::numa(flow.id, slots, flow.pc),
        };
        for frag in &flow.fragments {
            let g = frag.group;
            let cost = self.buffers[g].activate(desc);
            if cost > 0 {
                self.obs.emit(
                    self.steps,
                    self.clock,
                    FlowEvent::BufferReload {
                        flow: flow.id,
                        group: g,
                        cost,
                    },
                );
                units[g].push(UnitSeq::OverheadRun {
                    flow: flow.id,
                    count: cost as usize,
                });
            }
        }
    }
}

/// Special-register value for implicit thread `e` of `flow` — a free
/// function (no machine borrow) so engine workers can evaluate `mfs`
/// lanes against a read-only flow and configuration.
pub(crate) fn special_value(flow: &Flow, e: usize, sr: SpecialReg, config: &MachineConfig) -> Word {
    match sr {
        SpecialReg::Tid => (flow.tid_offset + e * flow.tid_stride) as Word,
        SpecialReg::Gid => (flow.rank_base + e) as Word,
        SpecialReg::Thickness => match flow.mode {
            ExecMode::Pram => flow.thickness as Word,
            ExecMode::Numa { .. } => 1,
        },
        SpecialReg::Fid => flow.id as Word,
        SpecialReg::Pid => flow.home_group() as Word,
        SpecialReg::NProcs => config.groups as Word,
        SpecialReg::NThreads => config.threads_per_group as Word,
    }
}

/// Per-lane increment of special register `sr`: lane `e` reads
/// `special_value(flow, 0, sr) + e · special_stride(flow, sr)`, which is
/// what lets a thick `mfs` write one affine progression.
pub(crate) fn special_stride(flow: &Flow, sr: SpecialReg) -> Word {
    match sr {
        SpecialReg::Tid => flow.tid_stride as Word,
        SpecialReg::Gid => 1,
        _ => 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcf_isa::asm::assemble;

    fn small() -> MachineConfig {
        MachineConfig::small()
    }

    #[test]
    fn initial_flow_count_per_variant() {
        let p = || assemble("main:\n halt\n").unwrap();
        let m = TcfMachine::new(small(), Variant::SingleInstruction, p());
        assert_eq!(m.flows.len(), 1);
        let m = TcfMachine::new(small(), Variant::SingleOperation, p());
        assert_eq!(m.flows.len(), 64);
        let m = TcfMachine::new(small(), Variant::FixedThickness { width: 16 }, p());
        assert_eq!(m.flows.len(), 1);
        assert_eq!(m.flows[&0].thickness, 16);
    }

    #[test]
    fn spawn_task_rejected_on_thread_variants() {
        let p = assemble("main:\n halt\n").unwrap();
        let mut m = TcfMachine::new(small(), Variant::SingleOperation, p);
        assert!(m.spawn_task(0, 1).is_err());
    }

    #[test]
    fn trivial_program_halts() {
        let p = assemble("main:\n halt\n").unwrap();
        let mut m = TcfMachine::new(small(), Variant::SingleInstruction, p);
        let s = m.run(10).unwrap();
        assert_eq!(s.steps, 1);
        assert_eq!(m.live_flows(), 0);
    }
}
