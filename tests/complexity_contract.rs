//! The complexity contract: what a run costs the host, counted.
//!
//! Every host-cost guarantee of the simulator is a statement about counts
//! — a thick instruction's step costs its runs, not its lanes, on all six
//! variants; a halted flow costs nothing; recording costs O(#runs); a
//! thickness change costs its registers — just as the paper's Table 1
//! charges a thick instruction one fetch whatever its thickness. Each case
//! below runs one guarantee at size `n` and at `100·n` and compares what
//! the machine counted: every counter of `metrics()` that is not weighted
//! by thickness (the flows the per-step enumerations walked,
//! `engine.flows_visited`, among them), the stored trace runs, the bytes
//! a live subscriber streamed, and the allocations made while it ran.
//! Per the case's normalizer — the run, a step, or a thread — the `100·n`
//! leg must stay within 2× of the `n` leg, and a count that is zero at
//! `n` must stay zero. No wall clock is read: the contract is exact on
//! any host.
//!
//! Each case also checks what its workload computed, against a host
//! mirror of the recurrence or the property the workload exists to show.
//!
//! Allocations are counted by this test binary's global allocator, which
//! forwards to `System`; the cases take one lock so that no two of them
//! share the process-wide count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Mutex, MutexGuard};

use tcf::core::{TcfFault, TcfMachine, Variant};
use tcf::isa::instr::{MultiKind, Operand};
use tcf::isa::program::Program;
use tcf::isa::reg::{r, Reg, SpecialReg};
use tcf::isa::{AluOp, ProgramBuilder, Word};
use tcf::machine::MachineConfig;
use tcf_obs::registry::MetricValue;
use tcf_obs::stream::{drain_ndjson, header_line, DRAIN_INTERVAL_STEPS};
use tcf_obs::StreamCursor;

struct Counting;

static CALLS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards to `System` unchanged (`alloc_zeroed`
// through `alloc`); the counters do not touch the memory handed out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        CALLS.fetch_add(1, Relaxed);
        BYTES.fetch_add(layout.size() as u64, Relaxed);
        // SAFETY: same contract as the caller's.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        CALLS.fetch_add(1, Relaxed);
        BYTES.fetch_add(new_size.saturating_sub(layout.size()) as u64, Relaxed);
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// One case at a time: the allocation count is process-wide.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Counters of `metrics()` that grow with the simulated work by design,
/// each with the reason. The model charges what a thick instruction does
/// per lane — an issue slot, a reference, a message — so these follow
/// thickness (or, for the maxima, are not sums over the run).
const EXEMPT: [(&str, &str); 16] = [
    ("machine.cycles", "simulated time"),
    ("machine.compute_ops", "one issue slot per lane"),
    ("machine.shared_refs", "one reference per lane"),
    (
        "machine.bubbles",
        "issue slots idle while a lane's reply travels",
    ),
    (
        "machine.overhead_cycles",
        "simulated switch cost, per flow past the buffer",
    ),
    (
        "buffer.misses",
        "simulated TCF-buffer reloads, per flow past its slots",
    ),
    (
        "buffer.overhead_cycles",
        "simulated reload cycles, as above",
    ),
    ("mem.refs", "one reference per lane"),
    ("mem.combined", "references combined per lane"),
    ("mem.max_module_load", "a maximum over per-lane traffic"),
    ("net.messages", "one message per reference leg"),
    ("net.hops", "hops of per-lane messages"),
    ("net.local_deliveries", "per-lane messages"),
    ("net.route_sends", "per-lane messages"),
    (
        "net.queue_cycles",
        "simulated link waits of per-lane messages",
    ),
    ("net.max_queue_cycles", "a maximum over per-lane messages"),
];

/// What a run costs, by name.
type Cost = BTreeMap<String, u64>;

/// What `m` has counted so far, exempt counters left out.
fn counted(m: &TcfMachine) -> Cost {
    let mut c: Cost = m
        .metrics()
        .iter()
        .filter(|(k, _)| !EXEMPT.iter().any(|(e, _)| e == k))
        .filter_map(|(k, v)| match v {
            MetricValue::Counter(n) => Some((k.to_string(), *n)),
            _ => None,
        })
        .collect();
    c.insert("trace.runs".into(), m.trace().events().len() as u64);
    c
}

/// What `work` costs on `m`: the growth of every counted series and the
/// allocations made meanwhile.
fn cost(m: &mut TcfMachine, work: impl FnOnce(&mut TcfMachine)) -> Cost {
    let before = counted(m);
    let (calls, bytes) = (CALLS.load(Relaxed), BYTES.load(Relaxed));
    work(m);
    let allocs = [
        ("alloc.calls", CALLS.load(Relaxed) - calls),
        ("alloc.bytes", BYTES.load(Relaxed) - bytes),
    ];
    let mut c = counted(m);
    for (k, v) in &mut c {
        *v -= before.get(k).copied().unwrap_or(0);
    }
    c.extend(allocs.map(|(k, v)| (k.to_string(), v)));
    c
}

/// What a case's counts are divided by before the legs are compared.
#[derive(Clone, Copy, Debug)]
enum Per {
    /// Both legs do the same work: compared as they are.
    Run,
    /// The `100·n` leg runs longer: compared per machine step.
    Step,
    /// One unit flow per thread: compared per thread.
    Thread,
}

/// The contract: the `100·n` leg (`big`) within 2× of the `n` leg
/// (`small`) per normalizer unit, and zero wherever the `n` leg is zero.
fn assert_flat(case: &str, per: Per, n: usize, small: &Cost, big: &Cost) {
    let unit = |c: &Cost, size: usize| match per {
        Per::Run => 1,
        Per::Step => c["machine.steps"] as u128,
        Per::Thread => size as u128,
    };
    let (us, ub) = (unit(small, n), unit(big, 100 * n));
    let steep: Vec<String> = small
        .iter()
        .map(|(k, &a)| (k, a, big[k]))
        .filter(|&(_, a, b)| {
            if a == 0 {
                b != 0
            } else {
                b as u128 * us > 2 * a as u128 * ub
            }
        })
        .map(|(k, a, b)| format!("{k}: {a} -> {b}"))
        .collect();
    assert!(
        steep.is_empty(),
        "{case}, n = {n} -> 100·n, per {per:?}:\n  {}",
        steep.join("\n  ")
    );
}

/// The small machine (`P = 4`, `T_p = 16`) under `variant`.
fn machine(variant: Variant, program: Program) -> TcfMachine {
    TcfMachine::new(MachineConfig::small(), variant, program)
}

/// Runs `m` to completion, or to `cap` steps where the full run is
/// unaffordable and the budget is the expected end.
fn run(m: &mut TcfMachine, cap: Option<u64>) {
    match m.run(cap.unwrap_or(10_000_000)) {
        Ok(s) => assert!(s.halted),
        Err(e) if cap.is_some() && matches!(e.fault, TcfFault::StepBudgetExhausted { .. }) => {}
        Err(e) => panic!("workload faulted: {e}"),
    }
}

// ---------------------------------------------------------------------------
// The divergent recurrence, in every variant's idiom
// ---------------------------------------------------------------------------

/// Sixteen iterations of a threshold recurrence over the lane ids:
/// iteration `i` compares them against the moving cut
/// `i·(n/24 + 7) + n/3 + 11` (never on a fragment boundary), folds the
/// masked `Sel` rejoin into a `Segments` accumulator (one run more per
/// iteration, well under the mask-run budget) and adds every lane to one
/// shared word — a rank-ordered chain of bulk multioperations memory
/// combines in closed form. No instruction costs more than O(#mask runs).
/// The caller sets the thickness and ends the body.
fn divergent_body(b: &mut ProgramBuilder, n: usize) {
    b.mfs(r(1), SpecialReg::Tid); // lane id (affine)
    b.ldi(r(3), 0); // accumulator (one run more per iteration)
    b.ldi(r(4), 0); // loop counter (uniform)
    b.label("loop");
    b.alu(AluOp::Mul, r(7), r(4), (n / 24 + 7) as Word);
    b.alu(AluOp::Add, r(7), r(7), (n / 3 + 11) as Word); // this iteration's cut
    b.alu(AluOp::Slt, r(2), r(1), r(7)); // lane mask (2 runs)
    b.sel(r(6), r(2), r(1), r(3)); // masked select: id below the cut
    b.alu(AluOp::Add, r(3), r(3), r(6)); // piecewise fold of the rejoin
    b.multiop(MultiKind::Add, Reg::ZERO, 64, r(3)); // sum @ 64, closed form
    b.alu(AluOp::Add, r(4), r(4), 1);
    b.alu(AluOp::Slt, r(8), r(4), 16);
    b.bnez(r(8), "loop");
}

/// The recurrence at thickness `n` (`setthick n`, or the width the
/// machine fixes when `thick` is false), halting after it.
fn divergent_program(n: usize, thick: bool) -> Program {
    let mut b = ProgramBuilder::new();
    if thick {
        b.setthick(n as Word);
    }
    divergent_body(&mut b, n);
    b.halt();
    b.build().expect("workload assembles")
}

/// `spawn n` threads that each run the recurrence on their spawn index
/// and `sjoin`: O(groups) block flows, split into at most `T_p`-lane
/// windows per step.
fn divergent_async_program(n: usize) -> Program {
    let mut b = ProgramBuilder::new();
    b.spawn(n as Word, "task");
    b.halt();
    b.label("task");
    divergent_body(&mut b, n);
    b.sjoin();
    b.build().expect("workload assembles")
}

/// The shared word at 64 after the recurrence over `n` lanes, on the
/// host: lane `j` takes its id below iteration `i`'s cut, folds it into
/// its accumulator, and every accumulator joins the sum (wrapping).
fn divergent_mirror(n: usize) -> Word {
    let (step, base) = ((n / 24 + 7) as Word, (n / 3 + 11) as Word);
    let mut sum: Word = 0;
    for id in 0..n as Word {
        let mut acc: Word = 0;
        for i in 0..16 {
            let pick = if id < i * step + base { id } else { acc };
            acc = acc.wrapping_add(pick);
            sum = sum.wrapping_add(acc);
        }
    }
    sum
}

/// The masked path's claim, beside the counts: divergence absorbed by
/// lane masks, never one slice per lane and never a decay.
fn assert_masked(case: &str, m: &TcfMachine) {
    let e = m.engine_counters();
    assert!(e.mask_hits > 0, "{case}: never took the masked path");
    assert_eq!((e.mask_misses, e.per_lane_slices), (0, 0), "{case}");
    assert_eq!(m.thick_decay().total(), 0, "{case}: {:?}", m.thick_decay());
}

const N: usize = 10_000;

/// The `SingleInstruction` recurrence at thickness `n` and `100·n`: each
/// leg's machine after the run, and what the run cost.
fn single_instruction_legs() -> [(usize, TcfMachine, Cost); 2] {
    [N, 100 * N].map(|n| {
        let mut m = machine(Variant::SingleInstruction, divergent_program(n, true));
        let c = cost(&mut m, |m| run(m, None));
        (n, m, c)
    })
}

#[test]
fn divergent_single_instruction_computes_the_recurrence() {
    let _serial = serial();
    for (n, m, _) in single_instruction_legs() {
        assert_eq!(m.peek(64).unwrap(), divergent_mirror(n), "thickness {n}");
    }
}

#[test]
fn divergent_single_instruction_stays_compressed() {
    let _serial = serial();
    for (n, m, _) in single_instruction_legs() {
        assert_masked(&format!("single instruction, thickness {n}"), &m);
    }
}

#[test]
fn divergent_single_instruction_costs_its_runs() {
    let _serial = serial();
    let [(_, _, small), (_, _, big)] = single_instruction_legs();
    assert_flat("single instruction", Per::Run, N, &small, &big);
}

#[test]
fn divergent_fixed_thickness_costs_its_runs() {
    let _serial = serial();
    let legs = [N, 100 * N].map(|n| {
        let variant = Variant::FixedThickness { width: n };
        let mut m = machine(variant, divergent_program(n, false));
        let c = cost(&mut m, |m| run(m, None));
        assert_masked("fixed thickness", &m);
        assert_eq!(m.peek(64).unwrap(), divergent_mirror(n), "width {n}");
        c
    });
    assert_flat("fixed thickness", Per::Run, N, &legs[0], &legs[1]);
}

/// `Balanced { bound: 64 }` retires 64 lanes per group per step: capped
/// inside the first thick instruction, both legs resume it at its bound
/// boundary on the compressed form, never decaying to lanes.
#[test]
fn divergent_balanced_resumes_at_its_bound() {
    let _serial = serial();
    const CAP: u64 = 30;
    let legs = [N, 100 * N].map(|n| {
        let mut m = machine(Variant::Balanced { bound: 64 }, divergent_program(n, true));
        let c = cost(&mut m, |m| run(m, Some(CAP)));
        assert_eq!(m.steps_executed(), CAP);
        assert_eq!(m.thick_decay().total(), 0, "{:?}", m.thick_decay());
        c
    });
    assert_flat("balanced", Per::Run, N, &legs[0], &legs[1]);
}

/// `spawn n` is O(groups) block flows with an affine `tid`; the quantum
/// scheduler splits `T_p`-lane windows off them, so a step costs the
/// machine size, not the spawn.
#[test]
fn divergent_async_spawn_stays_block_compressed() {
    let _serial = serial();
    const CAP: u64 = 200;
    let legs = [N, 100 * N].map(|n| {
        let mut m = machine(Variant::MultiInstruction, divergent_async_program(n));
        let c = cost(&mut m, |m| run(m, Some(CAP)));
        assert_eq!(m.steps_executed(), CAP);
        assert!(
            m.live_flows() < 64,
            "spawn of {n} holds {} flows",
            m.live_flows()
        );
        c
    });
    assert_flat("async", Per::Run, N, &legs[0], &legs[1]);
    // The spawned threads' `tid`s are the spawn indices, round-robin over
    // the groups: the whole run computes the same sum.
    let mut m = machine(Variant::MultiInstruction, divergent_async_program(64));
    run(&mut m, None);
    assert_eq!(m.peek(64).unwrap(), divergent_mirror(64));
}

/// `SingleOperation` holds one unit flow per hardware thread, so its
/// thickness is the machine size and a step costs every thread:
/// compared per thread.
#[test]
fn divergent_spmd_costs_its_threads() {
    let _serial = serial();
    const SPMD: usize = 256;
    let legs = [SPMD, 100 * SPMD].map(|n| {
        let mut config = MachineConfig::small();
        config.threads_per_group = n / config.groups;
        let mut m = TcfMachine::new(
            config,
            Variant::SingleOperation,
            divergent_program(n, false),
        );
        let c = cost(&mut m, |m| run(m, None));
        assert_eq!(m.peek(64).unwrap(), divergent_mirror(n), "{n} threads");
        c
    });
    assert_flat("spmd", Per::Thread, SPMD, &legs[0], &legs[1]);
}

/// A `1/16` bunch per group spinning a counter: each step carries 16
/// sequential instructions per leader and reaches timing as one compute
/// run. The `100·n` leg streams 100× the instructions on the same
/// machine: compared per step.
#[test]
fn divergent_numa_streams_full_bunches() {
    let _serial = serial();
    const INSTRS: usize = 1_000;
    let legs = [INSTRS, 100 * INSTRS].map(|n| {
        let iters = (n / 12) as Word;
        let mut b = ProgramBuilder::new();
        b.numa(16);
        b.ldi(r(1), 0);
        b.label("loop");
        b.alu(AluOp::Add, r(1), r(1), 1);
        b.alu(AluOp::Slt, r(2), r(1), iters);
        b.bnez(r(2), "loop");
        b.endnuma();
        b.halt();
        let program = b.build().expect("workload assembles");
        let mut m = machine(Variant::ConfigurableSingleOperation, program);
        let c = cost(&mut m, |m| run(m, None));
        let (steps, issued) = (m.steps_executed(), m.stats().issued());
        assert!(issued >= n as u64, "{n}: {issued} units issued");
        assert!(
            64 * steps <= 2 * issued,
            "{n}: {issued} units in {steps} steps"
        );
        c
    });
    assert_flat("numa", Per::Step, INSTRS, &legs[0], &legs[1]);
}

// ---------------------------------------------------------------------------
// Observing, halted flows, thickness changes
// ---------------------------------------------------------------------------

/// Both sinks recording: the trace stores a thick instruction's issue as
/// a run per group, so recording a step costs its runs, not its lanes.
#[test]
fn recording_costs_its_runs() {
    let _serial = serial();
    let legs = [N, 100 * N].map(|n| {
        let mut m = machine(Variant::SingleInstruction, divergent_program(n, true));
        m.set_tracing(true);
        m.set_observing(true);
        let c = cost(&mut m, |m| run(m, None));
        assert_masked("recorded", &m);
        assert!(!m.obs().events().is_empty() && !m.trace().is_empty());
        assert_eq!(m.peek(64).unwrap(), divergent_mirror(n), "thickness {n}");
        c
    });
    assert_flat("recorded", Per::Run, N, &legs[0], &legs[1]);
}

/// A live subscriber draining both sinks into `tcf-obs-stream/v2` NDJSON
/// every `DRAIN_INTERVAL_STEPS` steps, as `repro --stream` does: the
/// document carries one line per run. Observing does not change the
/// simulation: the sinks-off run takes the same steps and issues the same
/// units.
#[test]
fn streaming_costs_its_runs() {
    let _serial = serial();
    let legs = [N, 100 * N].map(|n| {
        let program = divergent_program(n, true);
        let mut off = machine(Variant::SingleInstruction, program.clone());
        run(&mut off, None);
        let mut m = machine(Variant::SingleInstruction, program);
        m.set_tracing(true);
        m.set_observing(true);
        let mut bytes = 0;
        let mut c = cost(&mut m, |m| {
            let (mut cursor, mut doc) = (StreamCursor::default(), header_line());
            while m.step().expect("workload halts") {
                if m.steps_executed().is_multiple_of(DRAIN_INTERVAL_STEPS) {
                    drain_ndjson(m.trace(), m.obs(), &mut cursor, &mut doc);
                }
            }
            drain_ndjson(m.trace(), m.obs(), &mut cursor, &mut doc);
            bytes = doc.len() as u64;
        });
        c.insert("stream.bytes".into(), bytes);
        let same = |m: &TcfMachine| (m.steps_executed(), m.stats().issued(), m.peek(64).unwrap());
        assert_eq!(same(&m), same(&off), "thickness {n}");
        c
    });
    assert_flat("streamed", Per::Run, N, &legs[0], &legs[1]);
}

/// A `SingleInstruction` root `split`s ten unit flows at a time until
/// `flows` of them have joined and halted — their slots are never
/// reclaimed — then spins a scalar loop. A step of the loop runs one
/// flow: it must cost that flow, not the 10^2 or 10^4 in the table.
#[test]
fn halted_flows_cost_nothing() {
    let _serial = serial();
    const FLOWS: usize = 100;
    let legs = [FLOWS, 100 * FLOWS].map(|flows| {
        let mut b = ProgramBuilder::new();
        b.ldi(r(1), 0);
        b.label("make");
        b.split(vec![(Operand::Imm(1), "child".to_string()); 10]);
        b.alu(AluOp::Add, r(1), r(1), 1);
        b.alu(AluOp::Slt, r(2), r(1), (flows / 10) as Word);
        b.bnez(r(2), "make");
        b.label("spin");
        b.alu(AluOp::Add, r(3), r(3), 1);
        b.alu(AluOp::Slt, r(4), r(3), 2_000);
        b.bnez(r(4), "spin");
        b.halt();
        b.label("child");
        b.join();
        let program = b.build().expect("workload assembles");
        let spin = program.label("spin").expect("spin label");
        let mut m = machine(Variant::SingleInstruction, program);
        while m.flow(0).unwrap().pc != spin || m.live_flows() > 1 {
            m.step().expect("flows made");
        }
        assert_eq!((m.flow_ids().len(), m.live_flows()), (flows + 1, 1));
        let c = cost(&mut m, |m| run(m, None));
        assert_eq!(c["machine.steps"], 3 * 2_000 + 1);
        c
    });
    assert_flat("halted flows", Per::Run, FLOWS, &legs[0], &legs[1]);
}

/// A shrinking `setthick` pins each affine register as one run of the old
/// thickness: it costs the registers, not the lanes, and decays nothing.
/// The lanes the shrink left behind are read again after a regrow.
#[test]
fn shrinking_setthick_costs_its_registers() {
    let _serial = serial();
    let legs = [N, 100 * N].map(|n| {
        let mut b = ProgramBuilder::new();
        b.setthick(n as Word);
        b.mfs(r(1), SpecialReg::Tid);
        b.alu(AluOp::Add, r(2), r(1), 7);
        b.setthick(16);
        b.setthick(32);
        b.mfs(r(1), SpecialReg::Tid);
        b.st(r(2), r(1), 1000);
        b.halt();
        let mut m = machine(Variant::SingleInstruction, b.build().unwrap());
        let c = cost(&mut m, |m| run(m, None));
        assert_eq!(m.thick_decay().total(), 0, "{:?}", m.thick_decay());
        let want: Vec<Word> = (7..39).collect();
        assert_eq!(m.peek_range(1000, 32).unwrap(), want, "thickness {n}");
        c
    });
    assert_flat("shrinking setthick", Per::Run, N, &legs[0], &legs[1]);
}
