//! Hot-path throughput probes: the fixed workload set measured and
//! exported by `repro bench-json`.
//!
//! Seven workloads cover the simulator's steady states (see
//! `docs/PERFORMANCE.md`):
//!
//! * **thick_pram_flow** — one flow of thickness 1024 looping over a
//!   shared array: stresses per-lane operand access and the shared-memory
//!   resolution path (fully affine: lane ids, unit-stride addresses).
//! * **thin_numa_flow** — a thickness-1 NUMA bunch spinning a counter:
//!   stresses instruction fetch/dispatch with no memory pressure.
//! * **mixed_multitasking** — a dozen tasks of mixed thickness scheduled
//!   against each other: stresses flow management plus both regimes at
//!   once.
//! * **broadcast_stride_sweep** — a thick flow broadcasting a uniform
//!   value through a stride-2 array sweep: stresses the non-unit-stride
//!   bulk memory path and affine load-to-store forwarding.
//! * **lane_id_reduction** — a thick flow folding its lane ids into a
//!   multiprefix accumulator: stresses the bulk multioperation path
//!   (closed-form combining) seeded from a compressed lane-id read.
//! * **branchy_divergence** — a `Sel`-heavy parity recurrence whose first
//!   instruction (`and` on the lane ids) escapes the affine algebra, so
//!   every register decays to explicit lanes: stresses the per-lane
//!   fallback (the structure-of-arrays SIMD kernels of `tcf_core::lanes`).
//! * **divergent_compressed** — a `Sel`-heavy threshold recurrence at
//!   thickness 10^6 whose per-iteration cut point moves through the lane
//!   range (never aligned to a fragment boundary), so every step is
//!   genuinely divergent yet stays compressed under run-length lane
//!   masks: stresses the masked/piecewise closed-form path (mask
//!   classification, masked `Sel`, piecewise ALU, and the rank-ordered
//!   masked multioperation chain). Per-step cost is O(#mask runs), not
//!   O(thickness) — `bench_json` re-measures it at 100× the thickness
//!   (10^8 lanes) as `divergent_compressed_100x`, and `tools/bench_gate.py`
//!   asserts the two step rates stay within 2×.
//!
//! On top of the workload set, the [`VariantProbe`] family re-expresses
//! the divergent recurrence in every other execution variant's natural
//! idiom — `divergent_balanced` (bounded resume), `divergent_async`
//! (`spawn` block flows), `divergent_numa` (a `1/slots` bunch stream),
//! `divergent_fixed` (machine-fixed vector width) and `divergent_spmd`
//! (`SingleOperation` unit flows) — each at a baseline and a `_100x`
//! size, so the gate can pin the flat-cost-in-thickness claim on all six
//! variants, not just `SingleInstruction`.
//!
//! The `recorded_compressed` / `recorded_compressed_100x` pair
//! ([`measure_recorded`]) runs `divergent_compressed`'s program at 10^6
//! and 10^8 lanes with both sinks recording: the trace stores runs, so
//! recording a step costs what the step's runs cost, not its lanes.
//!
//! The `resident_flows` / `resident_flows_100x` pair
//! ([`resident_flows_program`]) runs one scalar loop behind 10^2 and 10^4
//! halted flows: a step costs what its runnable flows cost, not what the
//! flow table holds.
//!
//! All run on the small machine (`P = 4`, `T_p = 16`) so a probe
//! completes in milliseconds; throughput is reported as simulated machine
//! steps and issued units ("instrs") per host second.

use std::time::Instant;

use tcf_core::{TcfMachine, Variant};
use tcf_isa::program::Program;
use tcf_machine::MachineConfig;
use tcf_obs::stream::{drain_ndjson, header_line, DRAIN_INTERVAL_STEPS};
use tcf_obs::StreamCursor;
use tcf_pram::RunSummary;

use crate::workloads;

/// One of the measured workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Thick PRAM-mode flow (thickness 1024 array loop).
    ThickPram,
    /// Thin NUMA-mode flow (thickness-1 counter loop).
    ThinNuma,
    /// Mixed-thickness multitasking (12 concurrent tasks).
    MixedMultitasking,
    /// Broadcast plus stride-2 array sweep (thickness 1024).
    BroadcastStride,
    /// Lane-id multiprefix reduction (thickness 1024).
    LaneIdReduction,
    /// Sel-heavy parity recurrence on decayed lanes (thickness 1024).
    BranchyDivergence,
    /// Sel-heavy threshold recurrence under lane masks (thickness 10^6).
    DivergentCompressed,
}

/// Thickness of the [`Workload::DivergentCompressed`] probe. The
/// `divergent_compressed_100x` scaling probe runs the same program at
/// 100× this (10^8 lanes, still below `tcf_core`'s `MAX_THICKNESS`).
pub const DIVERGENT_THICKNESS: usize = 1_000_000;

/// Builds the divergent-compressed recurrence at an arbitrary thickness
/// `n` — the body of [`Workload::DivergentCompressed`] and its 100×
/// scaling probe. Sixteen iterations; iteration `i` compares the affine
/// lane ids against the moving cut `i·(n/24 + 7) + n/3 + 11` (coprime-ish
/// steps, so the cut never lands on a fragment boundary), folds the
/// masked `Sel` rejoin into a `Segments` accumulator (one extra run per
/// iteration, bounded well below `MASK_RUN_BUDGET`), and contributes
/// every lane to one shared sum word — a rank-ordered chain of
/// zero-astride bulk multioperations that shared memory combines in
/// closed form. No instruction in the loop costs more than O(#mask runs).
pub fn divergent_program(n: usize) -> Program {
    use tcf_isa::{ProgramBuilder, Word};
    let mut b = ProgramBuilder::new();
    b.setthick(n as Word);
    emit_divergent_body(&mut b, n);
    b.halt();
    b.build().expect("workload assembles")
}

/// The recurrence shared by every `divergent_*` probe leg: sixteen
/// iterations of moving-cut `Slt`/`Sel`/fold plus one shared-sum
/// multioperation per iteration (see [`divergent_program`]). The caller
/// provides the thickness (`setthick`, the variant's fixed width, a
/// `spawn`, or the SPMD thread count) and the epilogue (`halt`/`sjoin`).
fn emit_divergent_body(b: &mut tcf_isa::ProgramBuilder, n: usize) {
    use tcf_isa::instr::MultiKind;
    use tcf_isa::reg::{r, Reg, SpecialReg};
    use tcf_isa::{AluOp, Word};
    let cut_step = (n / 24 + 7) as Word;
    let cut_base = (n / 3 + 11) as Word;
    b.mfs(r(1), SpecialReg::Tid); // r1 = lane id (affine, stays affine)
    b.ldi(r(3), 0); // r3 = accumulator (grows one run per iteration)
    b.ldi(r(4), 0); // r4 = loop counter (uniform)
    b.label("loop");
    b.alu(AluOp::Mul, r(7), r(4), cut_step);
    b.alu(AluOp::Add, r(7), r(7), cut_base); // r7 = this iteration's cut
    b.alu(AluOp::Slt, r(2), r(1), r(7)); // r2 = lane mask (2 runs)
    b.sel(r(6), r(2), r(1), r(3)); // masked select: id below the cut
    b.alu(AluOp::Add, r(3), r(3), r(6)); // piecewise fold of the rejoin
    b.multiop(MultiKind::Add, Reg::ZERO, 64, r(3)); // sum @ 64, closed form
    b.alu(AluOp::Add, r(4), r(4), 1);
    b.alu(AluOp::Slt, r(8), r(4), 16);
    b.bnez(r(8), "loop");
}

/// The divergent recurrence without a `setthick` prologue, for the
/// variants whose thickness is fixed by the machine rather than the
/// program: `FixedThickness { width: n }` (one vector flow) and
/// `SingleOperation` (`n` SPMD unit flows reading their rank as `tid`).
pub fn divergent_program_preset(n: usize) -> Program {
    use tcf_isa::ProgramBuilder;
    let mut b = ProgramBuilder::new();
    emit_divergent_body(&mut b, n);
    b.halt();
    b.build().expect("workload assembles")
}

/// Spawn-based divergent kernel of the Multi-instruction probe legs: the
/// initial flow spawns `n` asynchronous threads that each run the
/// recurrence on their spawn index and `sjoin`. The spawn materializes at
/// most one compressed *block flow* per group (lanes `g, g+G, …` sharing
/// one pc and affine `tid`), so spawning 10^8 threads is O(groups); the
/// quantum scheduler then splits windows of at most `T_p` lanes off each
/// block per pass, keeping per-step cost flat in `n`.
pub fn divergent_async_program(n: usize) -> Program {
    use tcf_isa::{ProgramBuilder, Word};
    let mut b = ProgramBuilder::new();
    b.spawn(n as Word, "task");
    b.halt();
    b.label("task");
    emit_divergent_body(&mut b, n);
    b.sjoin();
    b.build().expect("workload assembles")
}

/// NUMA-stream probe: a `1/slots` bunch spinning a counter for `iters`
/// iterations (3 instructions each), so each synchronous step carries
/// `slots` sequential instructions of the stream. Every instruction in
/// the loop is a compute unit, so a whole step reaches the timing layer
/// as one coalesced `ComputeRun` span per bunch — O(1) timing work per
/// step no matter how many slots it carries. Run under
/// `ConfigurableSingleOperation`, whose per-group bunching absorbs the
/// group's SPMD siblings into one leader stream per group (bunch length
/// = group size); the scaling probe stretches `iters`, not the machine,
/// so the pair measures steady-state stream throughput on identical
/// hardware.
pub fn divergent_numa_program(slots: usize, iters: usize) -> Program {
    use tcf_isa::reg::r;
    use tcf_isa::{AluOp, ProgramBuilder, Word};
    let iters = iters.max(4) as Word;
    let mut b = ProgramBuilder::new();
    b.numa(slots as Word);
    b.ldi(r(1), 0);
    b.label("loop");
    b.alu(AluOp::Add, r(1), r(1), 1);
    b.alu(AluOp::Slt, r(2), r(1), iters);
    b.bnez(r(2), "loop");
    b.endnuma();
    b.halt();
    b.build().expect("workload assembles")
}

/// Halted flows resident at the baseline [`resident_flows_program`] leg;
/// the `resident_flows_100x` leg leaves 100× as many behind.
pub const RESIDENT_FLOWS: usize = 100;

/// Iterations of the scalar loop both `resident_flows` legs run once
/// their flows have halted: 3 steps each, against the 5 steps per
/// ten-arm `split` round that made the flows — 92% of the 100× leg's
/// steps, so what the pair compares is the cost of a one-flow step with
/// 10^2 and with 10^4 dead flows in the table.
const RESIDENT_SPIN_ITERS: i64 = 20_000;

/// The "halted flows cost nothing" probe: a `SingleInstruction` root
/// `split`s ten unit flows at a time until `flows` of them have joined
/// and halted — their flow-table slots are never reclaimed — then spins a
/// scalar counter. A step of the spin loop runs one flow; its cost must
/// not depend on how many flows exist (`tools/bench_gate.py` holds the
/// 100× leg to at least half the baseline's step rate).
pub fn resident_flows_program(flows: usize) -> Program {
    use tcf_isa::instr::Operand;
    use tcf_isa::reg::r;
    use tcf_isa::{AluOp, ProgramBuilder, Word};
    const ARMS: usize = 10;
    let mut b = ProgramBuilder::new();
    b.ldi(r(1), 0);
    b.label("make");
    b.split(vec![(Operand::Imm(1), "child".to_string()); ARMS]);
    b.alu(AluOp::Add, r(1), r(1), 1);
    b.alu(AluOp::Slt, r(2), r(1), (flows / ARMS) as Word);
    b.bnez(r(2), "make");
    b.ldi(r(3), 0);
    b.label("spin");
    b.alu(AluOp::Add, r(3), r(3), 1);
    b.alu(AluOp::Slt, r(4), r(3), RESIDENT_SPIN_ITERS);
    b.bnez(r(4), "spin");
    b.halt();
    b.label("child");
    b.join();
    b.build().expect("workload assembles")
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 7] = [
        Workload::ThickPram,
        Workload::ThinNuma,
        Workload::MixedMultitasking,
        Workload::BroadcastStride,
        Workload::LaneIdReduction,
        Workload::BranchyDivergence,
        Workload::DivergentCompressed,
    ];

    /// Stable identifier used in bench output and `BENCH_hotpath.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ThickPram => "thick_pram_flow",
            Workload::ThinNuma => "thin_numa_flow",
            Workload::MixedMultitasking => "mixed_multitasking",
            Workload::BroadcastStride => "broadcast_stride_sweep",
            Workload::LaneIdReduction => "lane_id_reduction",
            Workload::BranchyDivergence => "branchy_divergence",
            Workload::DivergentCompressed => "divergent_compressed",
        }
    }

    /// Compiles the workload's program (do this once, outside timing).
    pub fn program(self) -> Program {
        match self {
            Workload::ThickPram => tcf_lang::compile(&format!(
                "shared int a[1024] @ {};
                 void main() {{
                     #1024;
                     int i = 0;
                     while (i < 24) {{
                         a[.] = a[.] + .;
                         i = i + 1;
                     }}
                 }}",
                workloads::A_BASE
            ))
            .expect("workload compiles"),
            Workload::ThinNuma => workloads::tcf_numa_seq(400, 8),
            Workload::MixedMultitasking => workloads::task_program(150),
            Workload::BroadcastStride => tcf_lang::compile(&format!(
                "shared int a[2048] @ {};
                 shared int b[1024] @ {};
                 void main() {{
                     #1024;
                     int i = 0;
                     while (i < 16) {{
                         a[2 * .] = a[2 * .] + i;
                         b[.] = a[2 * .];
                         i = i + 1;
                     }}
                 }}",
                workloads::A_BASE,
                workloads::B_BASE
            ))
            .expect("workload compiles"),
            Workload::LaneIdReduction => tcf_lang::compile(&format!(
                "shared int sum @ 64;
                 shared int out[1024] @ {};
                 void main() {{
                     #1024;
                     int i = 0;
                     while (i < 8) {{
                         out[.] = prefix(sum, MPADD, .);
                         i = i + 1;
                     }}
                 }}",
                workloads::C_BASE
            ))
            .expect("workload compiles"),
            // tce has no per-lane ternary, so this one is built directly:
            // a parity-driven select/accumulate recurrence. The opening
            // `and` of the affine lane ids falls outside the affine
            // closure algebra, decaying every derived register to explicit
            // lanes — from then on the loop body (two `sel`s and three
            // lane-wise ALU ops per iteration) runs entirely on the
            // per-lane fallback path.
            Workload::BranchyDivergence => {
                use tcf_isa::reg::{r, SpecialReg};
                use tcf_isa::{AluOp, ProgramBuilder};
                let mut b = ProgramBuilder::new();
                b.setthick(1024);
                b.mfs(r(1), SpecialReg::Tid); // r1 = lane id
                b.alu(AluOp::And, r(2), r(1), 1); // r2 = parity (decays)
                b.ldi(r(3), 0); // r3 = accumulator
                b.ldi(r(4), 0); // r4 = loop counter (uniform)
                b.label("loop");
                b.sel(r(6), r(2), r(1), r(3)); // odd parity: take id, else acc
                b.alu(AluOp::Add, r(3), r(3), r(6));
                b.alu(AluOp::Xor, r(2), r(2), 1); // flip parity
                b.alu(AluOp::Sub, r(5), r(3), r(1));
                b.sel(r(3), r(2), r(5), r(3)); // new-odd lanes: acc -= id
                b.alu(AluOp::Add, r(4), r(4), 1);
                b.alu(AluOp::Slt, r(7), r(4), 16);
                b.bnez(r(7), "loop");
                b.st(r(3), r(1), workloads::C_BASE as tcf_isa::Word);
                b.halt();
                b.build().expect("workload assembles")
            }
            Workload::DivergentCompressed => divergent_program(DIVERGENT_THICKNESS),
        }
    }

    /// Builds a machine ready to run (tasks spawned, inputs in place).
    pub fn build(self, program: &Program) -> TcfMachine {
        let config = crate::small_config();
        let mut m = TcfMachine::new(config, Variant::SingleInstruction, program.clone());
        if self == Workload::MixedMultitasking {
            let entry = program.label("task").expect("task label");
            for i in 0..12 {
                // Thicknesses cycle 1, 4, 16: thin, medium, thick tasks
                // competing for the same groups.
                let thickness = [1usize, 4, 16][i % 3];
                m.spawn_task(entry, thickness).expect("spawn task");
            }
        }
        m
    }

    /// Runs a freshly [`build`](Workload::build)-t machine to completion.
    pub fn run(self, m: &mut TcfMachine) -> RunSummary {
        m.run(10_000_000).expect("workload halts")
    }
}

/// Throughput measurement for one workload.
#[derive(Debug, Clone, Copy)]
pub struct Measurement {
    /// Simulated machine steps per run.
    pub steps: u64,
    /// Issued units (compute + memory + fetch) per run.
    pub instrs: u64,
    /// Best wall-clock seconds over the repeats (machine build excluded).
    pub elapsed_sec: f64,
}

impl Measurement {
    /// Simulated steps per host second.
    pub fn steps_per_sec(&self) -> f64 {
        self.steps as f64 / self.elapsed_sec
    }

    /// Issued units per host second.
    pub fn instrs_per_sec(&self) -> f64 {
        self.instrs as f64 / self.elapsed_sec
    }
}

/// Minimum wall-clock time one timed sample must cover. The fastest
/// workload completes in ~100µs, where scheduler jitter alone swings a
/// single run by 2×; batching runs until a sample spans at least this
/// long keeps the reported rates stable enough for the CI regression
/// diff against `BENCH_hotpath.json`.
const MIN_SAMPLE_SECS: f64 = 0.05;

/// Measures one workload: one warmup run calibrates how many program
/// executions one sample needs to span [`MIN_SAMPLE_SECS`], then
/// `repeats` batched samples run and the fastest average per-run time is
/// kept (the minimum over batch means — the least-perturbed
/// sample of a deterministic simulation). Steps and instruction counts
/// are per run, not per batch.
pub fn measure(w: Workload, repeats: usize) -> Measurement {
    let program = w.program();
    measure_with(&|| w.build(&program), repeats)
}

/// Measures an arbitrary single-flow program on the small machine with
/// the same harness as [`measure`] — used for the
/// `divergent_compressed_100x` thickness-scaling probe, which re-runs
/// [`divergent_program`] at 100× [`DIVERGENT_THICKNESS`].
pub fn measure_program(program: &Program, repeats: usize) -> Measurement {
    measure_single_flow(program, false, repeats)
}

/// [`measure_program`] under [`ObsMode::Record`]: the cycle trace and the
/// flow-event sink both recording, unbounded — the
/// `recorded_compressed` / `recorded_compressed_100x` pair.
pub fn measure_recorded(program: &Program, repeats: usize) -> Measurement {
    measure_single_flow(program, true, repeats)
}

fn measure_single_flow(program: &Program, recorded: bool, repeats: usize) -> Measurement {
    measure_with(
        &|| {
            let mut m = TcfMachine::new(
                crate::small_config(),
                Variant::SingleInstruction,
                program.clone(),
            );
            m.set_tracing(recorded);
            m.set_observing(recorded);
            m
        },
        repeats,
    )
}

fn measure_with(build: &dyn Fn() -> TcfMachine, repeats: usize) -> Measurement {
    measure_runs(build, &|m| run_capped(m, None), repeats)
}

/// The calibrated-batch harness shared by every probe: one warmup run
/// calibrates how many executions one sample needs to span
/// [`MIN_SAMPLE_SECS`], then `repeats` batched samples run and the
/// fastest mean per-run time is kept (see [`measure`]). The `run`
/// closure executes one freshly built machine and reports its
/// (steps, issued-units) counts.
fn measure_runs(
    build: &dyn Fn() -> TcfMachine,
    run: &dyn Fn(&mut TcfMachine) -> (u64, u64),
    repeats: usize,
) -> Measurement {
    let ((steps, instrs), iters) = {
        let mut m = build();
        let start = Instant::now();
        let counts = run(&mut m);
        let once = start.elapsed().as_secs_f64().max(1e-9);
        (counts, (MIN_SAMPLE_SECS / once).ceil().max(1.0) as usize)
    };
    let mut best = f64::INFINITY;
    for _ in 0..repeats.max(1) {
        // One sample averages `iters` back-to-back runs; machine builds
        // stay outside the per-run timers.
        let mut total = 0.0;
        for _ in 0..iters {
            let mut m = build();
            let start = Instant::now();
            run(&mut m);
            total += start.elapsed().as_secs_f64();
        }
        best = best.min(total / iters as f64);
    }
    Measurement {
        steps,
        instrs,
        elapsed_sec: best.max(f64::MIN_POSITIVE),
    }
}

/// Runs a probe machine to completion — or to `cap` steps for the legs
/// whose full runs are unaffordable, where hitting the step budget is the
/// expected outcome (the sample measures steady-state throughput), not an
/// error.
fn run_capped(m: &mut TcfMachine, cap: Option<u64>) -> (u64, u64) {
    use tcf_core::TcfFault;
    match m.run(cap.unwrap_or(10_000_000)) {
        Ok(s) => (s.steps, s.machine.issued()),
        Err(e) if cap.is_some() && matches!(e.fault, TcfFault::StepBudgetExhausted { .. }) => {
            (m.steps_executed(), m.stats().issued())
        }
        Err(e) => panic!("probe faulted: {e:?}"),
    }
}

/// One family of the per-variant `divergent_*` scaling legs: the same
/// divergent recurrence expressed in each remaining execution variant's
/// natural idiom (the `SingleInstruction` legs are `divergent_compressed`
/// and its `_100x` twin above). Each family is measured at a baseline
/// size and at 100× it; `tools/bench_gate.py` asserts every pair's rate
/// stays within 2×, pinning the flat-cost-in-thickness claim on all six
/// variants.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VariantProbe {
    /// `Balanced { bound: 64 }` on the `setthick` recurrence. The step
    /// cap keeps both legs inside the same partially executed thick
    /// instruction, which each step resumes at its stored next-operation
    /// boundary without decaying to lanes — per-step cost is O(bound),
    /// independent of thickness. Step-capped (a full 10^8-lane run walks
    /// every lane); rate compared as steps/sec.
    Balanced,
    /// `MultiInstruction`: `spawn n` threads materialize as O(groups)
    /// compressed block flows (affine `tid`, shared pc), and the quantum
    /// scheduler splits at most `T_p`-lane windows off each block per
    /// step — per-step cost is O(P·T_p), independent of `n`. Step-capped;
    /// rate compared as steps/sec.
    Async,
    /// `ConfigurableSingleOperation` entering a `numa` stream of `n`
    /// total sequential instructions (one bunch per group, bunch length =
    /// group size = 16). The scaling leg stretches the stream 100×, not
    /// the machine: per-step the leaders carry the same 16-instruction
    /// slices, reaching the timing layer as coalesced `ComputeRun` spans,
    /// so per-instruction cost must not grow with stream length. Runs to
    /// completion; compared as instrs/sec.
    Numa,
    /// `FixedThickness { width: n }`: the machine-fixed vector width runs
    /// the recurrence with no `setthick` prologue; per-step cost is
    /// O(#mask runs). Runs to completion; compared as steps/sec.
    Fixed,
    /// `SingleOperation`: the recurrence as `n` SPMD unit flows reading
    /// their rank as `tid`. Thickness here *is* the machine size `P·T_p`
    /// (the baseline variant materializes every thread — the limitation
    /// the compressed variants remove), so sizes stay small (10^3 and
    /// 10^5) and the pair is compared as instrs/sec.
    Spmd,
}

impl VariantProbe {
    /// Every probe family, in report order.
    pub const ALL: [VariantProbe; 5] = [
        VariantProbe::Balanced,
        VariantProbe::Async,
        VariantProbe::Numa,
        VariantProbe::Fixed,
        VariantProbe::Spmd,
    ];

    /// Stable `BENCH_hotpath.json` key of the baseline leg.
    pub fn name(self) -> &'static str {
        match self {
            VariantProbe::Balanced => "divergent_balanced",
            VariantProbe::Async => "divergent_async",
            VariantProbe::Numa => "divergent_numa",
            VariantProbe::Fixed => "divergent_fixed",
            VariantProbe::Spmd => "divergent_spmd",
        }
    }

    /// Stable `BENCH_hotpath.json` key of the 100×-size leg.
    pub fn name_100x(self) -> &'static str {
        match self {
            VariantProbe::Balanced => "divergent_balanced_100x",
            VariantProbe::Async => "divergent_async_100x",
            VariantProbe::Numa => "divergent_numa_100x",
            VariantProbe::Fixed => "divergent_fixed_100x",
            VariantProbe::Spmd => "divergent_spmd_100x",
        }
    }

    /// Baseline problem size (thickness / spawn count / bunch length /
    /// SPMD thread count); the `_100x` leg runs 100× this.
    pub fn base_size(self) -> usize {
        match self {
            // SingleOperation materializes one unit flow per hardware
            // thread, so its size is the machine size — kept small by
            // design (the limitation the compressed variants remove;
            // docs/PERFORMANCE.md).
            VariantProbe::Spmd => 1_000,
            // Total sequential instructions in the bunch streams; the
            // machine stays the small one.
            VariantProbe::Numa => 10_000,
            _ => DIVERGENT_THICKNESS,
        }
    }

    /// Step cap for the legs whose full runs are unaffordable (Balanced
    /// retires `bound` lanes per processor per step; async retires
    /// `P·T_p` spawned lanes per step — running 10^8 lanes dry would take
    /// ~10^6 steps). Both legs of a pair use the same cap, so their step
    /// rates are directly comparable.
    fn cap(self) -> Option<u64> {
        match self {
            VariantProbe::Balanced => Some(4_000),
            VariantProbe::Async => Some(2_000),
            _ => None,
        }
    }

    fn variant(self, n: usize) -> Variant {
        match self {
            VariantProbe::Balanced => Variant::Balanced { bound: 64 },
            VariantProbe::Async => Variant::MultiInstruction,
            VariantProbe::Numa => Variant::ConfigurableSingleOperation,
            VariantProbe::Fixed => Variant::FixedThickness { width: n },
            VariantProbe::Spmd => Variant::SingleOperation,
        }
    }

    fn config(self, n: usize) -> MachineConfig {
        let mut c = crate::small_config();
        if self == VariantProbe::Spmd {
            // SingleOperation's thickness IS the machine size: one unit
            // flow per hardware thread, `tid` = rank.
            c.threads_per_group = n / c.groups;
        }
        c
    }

    fn program(self, n: usize) -> Program {
        match self {
            VariantProbe::Balanced => divergent_program(n),
            VariantProbe::Async => divergent_async_program(n),
            // One bunch per group (bunch length = T_p), streams totalling
            // ~n instructions: 4 leaders x 3 instructions per iteration.
            VariantProbe::Numa => {
                let c = crate::small_config();
                divergent_numa_program(c.threads_per_group, n / (3 * c.groups))
            }
            VariantProbe::Fixed | VariantProbe::Spmd => divergent_program_preset(n),
        }
    }

    /// Builds the machine for one leg (`scale` is 1 or 100).
    pub fn build(self, scale: usize) -> TcfMachine {
        let n = self.base_size() * scale;
        TcfMachine::new(self.config(n), self.variant(n), self.program(n))
    }

    /// Measures one leg with the calibrated-batch harness, honoring the
    /// family's step cap.
    pub fn measure(self, scale: usize, repeats: usize) -> Measurement {
        let n = self.base_size() * scale;
        let program = self.program(n);
        let variant = self.variant(n);
        let config = self.config(n);
        measure_runs(
            &|| TcfMachine::new(config.clone(), variant, program.clone()),
            &|m| run_capped(m, self.cap()),
            repeats,
        )
    }
}

/// Observability configuration for the `obs_overhead_*` probes, which
/// re-run [`Workload::ThickPram`] under each mode to price the telemetry
/// pipeline (docs/OBSERVABILITY.md "Measured overhead"). CI gates the
/// `Off` mode at ≤5% below the plain `thick_pram_flow` rate: recording
/// hooks that are compiled in but disabled must stay (nearly) free.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ObsMode {
    /// Sinks disabled (the default): hooks early-return.
    Off,
    /// Cycle trace and flow-event recording on, batch export afterwards.
    Record,
    /// Recording on plus a live streaming subscriber: a cursor drain
    /// appends `tcf-obs-stream/v2` NDJSON every `DRAIN_INTERVAL_STEPS`
    /// machine steps (plus a final catch-up), as `repro --stream` does.
    Stream,
}

impl ObsMode {
    /// Every mode, in report order.
    pub const ALL: [ObsMode; 3] = [ObsMode::Off, ObsMode::Record, ObsMode::Stream];

    /// Stable identifier used in `BENCH_hotpath.json`.
    pub fn name(self) -> &'static str {
        match self {
            ObsMode::Off => "obs_overhead_off",
            ObsMode::Record => "obs_overhead_record",
            ObsMode::Stream => "obs_overhead_stream",
        }
    }

    fn build(self, program: &Program) -> TcfMachine {
        let mut m = Workload::ThickPram.build(program);
        if self != ObsMode::Off {
            m.set_tracing(true);
            m.set_observing(true);
        }
        m
    }

    /// Runs the machine to completion under this mode; the streamed NDJSON
    /// document is produced (and discarded) inside the timed region, like
    /// a real subscriber would consume it.
    fn run(self, m: &mut TcfMachine) -> (u64, u64) {
        match self {
            ObsMode::Stream => {
                let mut cursor = StreamCursor::default();
                let mut doc = header_line();
                let mut steps = 0u64;
                loop {
                    let more = m.step().expect("workload halts");
                    steps += 1;
                    if steps.is_multiple_of(DRAIN_INTERVAL_STEPS) {
                        drain_ndjson(m.trace(), m.obs(), &mut cursor, &mut doc);
                    }
                    if !more {
                        break;
                    }
                }
                drain_ndjson(m.trace(), m.obs(), &mut cursor, &mut doc);
                std::hint::black_box(doc.len());
            }
            // What `thick_pram_flow` is measured through, in the same
            // harness: `off` against it prices the sinks and nothing else.
            ObsMode::Off | ObsMode::Record => return run_capped(m, None),
        }
        (m.steps_executed(), m.stats().issued())
    }
}

/// Measures the observability-overhead probe for one mode, with the same
/// calibrated-batch harness as [`measure`].
pub fn measure_obs(mode: ObsMode, repeats: usize) -> Measurement {
    let program = Workload::ThickPram.program();
    measure_runs(&|| mode.build(&program), &|m| mode.run(m), repeats)
}

/// Renders the `BENCH_hotpath.json` document (`tcf-bench-hotpath/v1`):
/// steps/sec and instrs/sec for every workload in [`Workload::ALL`],
/// plus the [`ObsMode`] overhead probes.
pub fn bench_json(repeats: usize) -> String {
    let mut entries: Vec<(&'static str, Measurement)> = Vec::new();
    for w in Workload::ALL {
        entries.push((w.name(), measure(w, repeats)));
    }
    // Thickness-scaling probe: the divergent-compressed recurrence again
    // at 100× the thickness. Per-step cost is O(#mask runs), so the step
    // rate must stay flat — `tools/bench_gate.py` asserts it lands within
    // 2× of the baseline `divergent_compressed` rate.
    let program_100x = divergent_program(100 * DIVERGENT_THICKNESS);
    entries.push((
        "divergent_compressed_100x",
        measure_program(&program_100x, repeats),
    ));
    // The same recurrence in every remaining variant's idiom, each at a
    // baseline and a 100× size — together with the two entries above,
    // one flat-cost pair per execution variant. The gate compares
    // steps/sec for the thick-instruction legs and instrs/sec for the
    // SPMD-shaped ones (see [`VariantProbe`]).
    for probe in VariantProbe::ALL {
        entries.push((probe.name(), probe.measure(1, repeats)));
        entries.push((probe.name_100x(), probe.measure(100, repeats)));
    }
    // Recording-scaling probe: the divergent recurrence with both sinks
    // recording (unbounded), at 10^6 and at 10^8 lanes. The trace stores
    // a thick instruction's issue as a run per group, so the step rate
    // must stay as flat as it does with the sinks off: recording is
    // O(#runs). (One record per unit would be 4.8 GB per instruction on
    // the 100x leg.)
    for (name, scale) in [
        ("recorded_compressed", 1),
        ("recorded_compressed_100x", 100),
    ] {
        let program = divergent_program(scale * DIVERGENT_THICKNESS);
        entries.push((name, measure_recorded(&program, repeats)));
    }
    // Halted-flow scaling probe: the same scalar loop behind 10^2 and
    // behind 10^4 halted flows; the gate compares the two step rates.
    for (name, scale) in [("resident_flows", 1), ("resident_flows_100x", 100)] {
        let program = resident_flows_program(scale * RESIDENT_FLOWS);
        entries.push((name, measure_program(&program, repeats)));
    }
    for mode in ObsMode::ALL {
        entries.push((mode.name(), measure_obs(mode, repeats)));
    }
    let mut out = String::from("{\n  \"schema\": \"tcf-bench-hotpath/v1\",\n  \"workloads\": {\n");
    for (i, (name, m)) in entries.iter().enumerate() {
        out.push_str(&format!(
            "    \"{}\": {{\n      \"steps\": {},\n      \"instrs\": {},\n      \
             \"elapsed_sec\": {:.6},\n      \"steps_per_sec\": {:.1},\n      \
             \"instrs_per_sec\": {:.1}\n    }}{}\n",
            name,
            m.steps,
            m.instrs,
            m.elapsed_sec,
            m.steps_per_sec(),
            m.instrs_per_sec(),
            if i + 1 < entries.len() { "," } else { "" }
        ));
    }
    out.push_str("  }\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_workloads_halt_and_count() {
        for w in Workload::ALL {
            let program = w.program();
            let mut m = w.build(&program);
            let s = w.run(&mut m);
            assert!(s.halted, "{} did not halt", w.name());
            assert!(s.steps > 0, "{} executed no steps", w.name());
            assert!(s.machine.issued() > 0, "{} issued nothing", w.name());
        }
    }

    #[test]
    fn thick_workload_computes_the_loop() {
        let w = Workload::ThickPram;
        let program = w.program();
        let mut m = w.build(&program);
        w.run(&mut m);
        // a[j] starts 0 and gains j per iteration, 24 iterations.
        for j in [0usize, 1, 513, 1023] {
            assert_eq!(m.peek(workloads::A_BASE + j).unwrap(), 24 * j as i64);
        }
    }

    #[test]
    fn broadcast_stride_workload_computes_the_sweep() {
        let w = Workload::BroadcastStride;
        let program = w.program();
        let mut m = w.build(&program);
        w.run(&mut m);
        // a[2j] gains i per iteration i: sum 0..15 = 120; b[j] mirrors it.
        for j in [0usize, 1, 511, 1023] {
            assert_eq!(m.peek(workloads::A_BASE + 2 * j).unwrap(), 120);
            assert_eq!(m.peek(workloads::B_BASE + j).unwrap(), 120);
            // Odd elements of `a` are never touched by the stride-2 sweep.
            assert_eq!(m.peek(workloads::A_BASE + 2 * j + 1).unwrap(), 0);
        }
    }

    #[test]
    fn lane_id_reduction_computes_prefixes() {
        let w = Workload::LaneIdReduction;
        let program = w.program();
        let mut m = w.build(&program);
        w.run(&mut m);
        // One round adds sum(0..1023) = 523776; lane j's final (8th-round)
        // prefix is 7 rounds' total plus the ids below it.
        let round: i64 = 1023 * 1024 / 2;
        for j in [0usize, 1, 513, 1023] {
            let below = (j as i64) * (j as i64 - 1) / 2;
            assert_eq!(
                m.peek(workloads::C_BASE + j).unwrap(),
                7 * round + below,
                "out[{j}] wrong"
            );
        }
        assert_eq!(m.peek(64).unwrap(), 8 * round);
    }

    #[test]
    fn branchy_divergence_computes_the_recurrence() {
        let w = Workload::BranchyDivergence;
        let program = w.program();
        let mut m = w.build(&program);
        w.run(&mut m);
        // Mirror of the parity recurrence the program runs per lane.
        for j in [0usize, 1, 2, 513, 1022, 1023] {
            let id = j as i64;
            let (mut par, mut acc) = (id & 1, 0i64);
            for _ in 0..16 {
                acc += if par != 0 { id } else { acc };
                par ^= 1;
                if par != 0 {
                    acc -= id;
                }
            }
            assert_eq!(m.peek(workloads::C_BASE + j).unwrap(), acc, "lane {j}");
        }
    }

    /// Per-lane mirror of the divergent-compressed recurrence: lane `j`
    /// below iteration `i`'s cut takes its id, every lane folds into the
    /// accumulator, and every iteration contributes all accumulators to
    /// the shared sum (wrapping word arithmetic throughout).
    fn divergent_mirror(n: usize) -> i64 {
        let cut_step = (n / 24 + 7) as i64;
        let cut_base = (n / 3 + 11) as i64;
        let mut sum = 0i64;
        for j in 0..n {
            let id = j as i64;
            let mut acc = 0i64;
            for i in 0..16 {
                let cut = (i as i64).wrapping_mul(cut_step).wrapping_add(cut_base);
                let pick = if id < cut { id } else { acc };
                acc = acc.wrapping_add(pick);
                sum = sum.wrapping_add(acc);
            }
        }
        sum
    }

    #[test]
    fn divergent_compressed_computes_the_recurrence() {
        // Small instance first (cheap to mirror), then the full workload.
        for n in [4096usize, DIVERGENT_THICKNESS] {
            let program = divergent_program(n);
            let mut m = TcfMachine::new(crate::small_config(), Variant::SingleInstruction, program);
            m.run(10_000_000).expect("workload halts");
            assert_eq!(m.peek(64).unwrap(), divergent_mirror(n), "thickness {n}");
        }
    }

    #[test]
    fn divergent_compressed_stays_compressed() {
        let w = Workload::DivergentCompressed;
        let program = w.program();
        let mut m = w.build(&program);
        w.run(&mut m);
        // The whole run must stay on the masked/piecewise closed-form
        // path: divergence is absorbed by lane masks (mask hits, zero
        // decays of any kind), never by materializing 10^6 lanes.
        let decay = m.thick_decay();
        assert_eq!(decay.total(), 0, "workload decayed: {decay:?}");
        assert!(
            m.engine_counters().mask_hits > 0,
            "workload never took the masked path: {:?}",
            m.engine_counters()
        );
        assert_eq!(
            m.engine_counters().mask_misses,
            0,
            "workload fell off the masked path: {:?}",
            m.engine_counters()
        );
    }

    /// The O(#runs) claim, measured: stepping the recurrence at 64× the
    /// thickness must not cost anywhere near 64× the time. A loose 8×
    /// envelope keeps the assertion robust on noisy CI hosts — the real
    /// ratio is near 1, and a per-lane regression would show up as ~64×.
    #[test]
    fn divergent_compressed_step_cost_is_flat_in_thickness() {
        let time_run = |n: usize| {
            let program = divergent_program(n);
            let mut m = TcfMachine::new(crate::small_config(), Variant::SingleInstruction, program);
            let start = std::time::Instant::now();
            m.run(10_000_000).expect("workload halts");
            start.elapsed().as_secs_f64()
        };
        time_run(1 << 14); // warmup
        let base = time_run(1 << 14).max(1e-6);
        let scaled = time_run(1 << 20);
        assert!(
            scaled < 8.0 * base,
            "64x thickness cost {scaled:.6}s vs {base:.6}s at baseline — not flat"
        );
    }

    /// Bit-exactness of the per-variant probe programs against the
    /// per-lane mirror, at mirrorable sizes: the fixed-width vector leg,
    /// the SPMD leg (thickness = machine size) and the spawn-based async
    /// leg all fold the same per-thread recurrence into the shared sum.
    #[test]
    fn variant_probe_programs_compute_the_recurrence() {
        let n = 4096;
        let mut m = TcfMachine::new(
            crate::small_config(),
            Variant::FixedThickness { width: n },
            divergent_program_preset(n),
        );
        m.run(10_000_000).expect("fixed probe halts");
        assert_eq!(m.peek(64).unwrap(), divergent_mirror(n), "fixed");

        // SingleOperation: one unit flow per hardware thread (64 on the
        // small machine), each reading its rank as `tid`.
        let n = 64;
        let mut m = TcfMachine::new(
            crate::small_config(),
            Variant::SingleOperation,
            divergent_program_preset(n),
        );
        m.run(10_000_000).expect("spmd probe halts");
        assert_eq!(m.peek(64).unwrap(), divergent_mirror(n), "spmd");

        // MultiInstruction: 64 spawned threads whose `tid`s are exactly
        // the spawn indices 0..64 (distributed round-robin over groups).
        let mut m = TcfMachine::new(
            crate::small_config(),
            Variant::MultiInstruction,
            divergent_async_program(n),
        );
        m.run(10_000_000).expect("async probe halts");
        assert_eq!(m.peek(64).unwrap(), divergent_mirror(n), "async");
    }

    /// The Balanced leg never decays: each step resumes the partially
    /// executed thick instruction at its `bound` boundary on the
    /// compressed representation.
    #[test]
    fn balanced_probe_resumes_without_decay() {
        let mut m = VariantProbe::Balanced.build(1);
        let (steps, instrs) = run_capped(&mut m, Some(500));
        assert_eq!(steps, 500, "cap not honored");
        assert!(instrs > 0);
        let decay = m.thick_decay();
        assert_eq!(decay.total(), 0, "balanced run decayed: {decay:?}");
    }

    /// Spawning 10^6 asynchronous threads materializes O(groups) block
    /// flows plus at most a few split-off windows in flight — never 10^6
    /// unit flows.
    #[test]
    fn async_probe_spawn_stays_block_compressed() {
        let mut m = VariantProbe::Async.build(1);
        let (steps, _) = run_capped(&mut m, Some(200));
        assert_eq!(steps, 200, "cap not honored");
        let live = m.live_flows();
        assert!(live < 64, "spawn materialized {live} flows");
    }

    /// The NUMA leg streams 16 sequential instructions per bunch leader
    /// per synchronous step: the baseline's ~10^4 total instructions
    /// finish in ~160 steps (2500 per leader / 16 per step), not one
    /// step per instruction.
    #[test]
    fn numa_probe_streams_with_full_bunches() {
        let mut m = VariantProbe::Numa.build(1);
        let s = m.run(10_000_000).expect("numa probe halts");
        assert!(s.halted, "numa probe did not halt");
        assert!(
            (100..400).contains(&s.steps),
            "bunch stream took {} steps",
            s.steps
        );
        assert!(
            s.machine.issued() > 8_000,
            "bunch stream too short: {} units",
            s.machine.issued()
        );
    }

    /// Full-run legs halt; step-capped legs reach their cap — every leg
    /// produces nonzero throughput numbers at baseline size.
    #[test]
    fn variant_probes_measure_cleanly() {
        for probe in VariantProbe::ALL {
            let mut m = probe.build(1);
            let (steps, instrs) = run_capped(&mut m, probe.cap().map(|_| 100));
            assert!(steps > 0, "{} ran no steps", probe.name());
            assert!(instrs > 0, "{} issued nothing", probe.name());
        }
    }

    /// Both legs leave exactly their flows behind, halted, and the 100×
    /// leg still spends nine steps in ten in the scalar loop.
    #[test]
    fn resident_flows_probe_accumulates_halted_flows() {
        for scale in [1, 100] {
            let flows = scale * RESIDENT_FLOWS;
            let mut m = TcfMachine::new(
                crate::small_config(),
                Variant::SingleInstruction,
                resident_flows_program(flows),
            );
            let s = m.run(10_000_000).expect("probe halts");
            assert_eq!(m.flow_ids().len(), flows + 1);
            assert_eq!(m.live_flows(), 0);
            let spin = 3 * RESIDENT_SPIN_ITERS as u64;
            assert!(
                10 * spin >= 9 * s.steps,
                "{flows} flows: spin loop is {spin} of {} steps",
                s.steps
            );
        }
    }

    #[test]
    fn bench_json_contains_all_workloads() {
        let json = bench_json(1);
        for w in Workload::ALL {
            assert!(json.contains(w.name()), "missing {}", w.name());
        }
        assert!(json.contains("divergent_compressed_100x"));
        assert!(json.contains("\"resident_flows\""));
        assert!(json.contains("resident_flows_100x"));
        assert!(json.contains("\"recorded_compressed\""));
        assert!(json.contains("recorded_compressed_100x"));
        for probe in VariantProbe::ALL {
            assert!(json.contains(probe.name()), "missing {}", probe.name());
            assert!(
                json.contains(probe.name_100x()),
                "missing {}",
                probe.name_100x()
            );
        }
        for mode in ObsMode::ALL {
            assert!(json.contains(mode.name()), "missing {}", mode.name());
        }
        assert!(json.contains("steps_per_sec"));
        assert!(json.contains("instrs_per_sec"));
    }

    #[test]
    fn obs_modes_execute_the_same_simulation() {
        let program = Workload::ThickPram.program();
        let mut counts = Vec::new();
        for mode in ObsMode::ALL {
            let mut m = mode.build(&program);
            let (steps, instrs) = mode.run(&mut m);
            assert!(steps > 0 && instrs > 0, "{} ran nothing", mode.name());
            counts.push((steps, instrs));
            // The simulation result is identical no matter what the
            // telemetry pipeline observes.
            assert_eq!(m.peek(workloads::A_BASE + 513).unwrap(), 24 * 513);
            // Recording modes actually captured events; Off stayed empty.
            let recorded = !m.obs().events().is_empty();
            assert_eq!(recorded, mode != ObsMode::Off, "{}", mode.name());
        }
        assert!(counts.windows(2).all(|w| w[0] == w[1]), "{counts:?}");
    }
}
