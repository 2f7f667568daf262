//! Edge-case tests of the extended-model runtime: NUMA-mode behaviours,
//! fault paths, variant restrictions, and scheduler corners.

use tcf_core::{TcfFault, TcfMachine, Variant};
use tcf_isa::asm::assemble;
use tcf_machine::MachineConfig;

fn machine(variant: Variant, src: &str) -> TcfMachine {
    TcfMachine::new(MachineConfig::small(), variant, assemble(src).unwrap())
}

#[test]
fn numa_shared_access_serializes_but_local_is_cheap() {
    // The same sequential section against shared vs local memory: the
    // NUMA stream blocks on every shared round trip but runs the local
    // block at ~1 access/cycle — why NUMA code should use the local
    // memory.
    let src = |space: &str| {
        format!(
            "main:
                numa 8
                ldi r1, 16
            loop:
                {space} r2, [r0+5]
                sub r1, r1, 1
                bnez r1, loop
                endnuma
                halt
            "
        )
    };
    let mut shared = machine(Variant::SingleInstruction, &src("ld"));
    let s_shared = shared.run(10_000).unwrap();
    let mut local = machine(Variant::SingleInstruction, &src("ldl"));
    let s_local = local.run(10_000).unwrap();
    assert!(
        s_shared.cycles > 2 * s_local.cycles,
        "shared {} vs local {}",
        s_shared.cycles,
        s_local.cycles
    );
}

#[test]
fn endnuma_restores_pram_mode() {
    let mut m = machine(
        Variant::SingleInstruction,
        "main:
            numa 4
            ldi r1, 7
            endnuma
            setthick 8           ; must be legal again after endnuma
            mfs r2, tid
            ldi r3, 100
            add r3, r3, r2
            st r1, [r3+0]
            halt
        ",
    );
    m.run(100).unwrap();
    for t in 0..8 {
        assert_eq!(m.peek(100 + t).unwrap(), 7);
    }
}

#[test]
fn setthick_inside_numa_faults() {
    let mut m = machine(
        Variant::SingleInstruction,
        "main:
            numa 4
            setthick 8
            halt
        ",
    );
    let e = m.run(100).unwrap_err();
    assert!(matches!(e.fault, TcfFault::UnsupportedByVariant { .. }));
}

#[test]
fn endnuma_in_pram_mode_faults() {
    let mut m = machine(Variant::SingleInstruction, "main:\n endnuma\n halt\n");
    let e = m.run(100).unwrap_err();
    assert!(matches!(e.fault, TcfFault::NotInNuma));
}

#[test]
fn absurd_thickness_faults() {
    let mut m = machine(
        Variant::SingleInstruction,
        "main:\n ldi r1, 1000000000\n setthick r1\n halt\n",
    );
    let e = m.run(100).unwrap_err();
    assert!(matches!(e.fault, TcfFault::BadThickness { .. }));
}

#[test]
fn negative_thickness_faults() {
    let mut m = machine(Variant::SingleInstruction, "main:\n setthick -3\n halt\n");
    let e = m.run(100).unwrap_err();
    assert!(matches!(e.fault, TcfFault::BadThickness { requested: -3 }));
}

#[test]
fn non_uniform_thickness_operand_faults() {
    let mut m = machine(
        Variant::SingleInstruction,
        "main:
            setthick 4
            mfs r1, tid
            setthick r1          ; per-thread value: not a flow-wise thickness
            halt
        ",
    );
    let e = m.run(100).unwrap_err();
    assert!(matches!(e.fault, TcfFault::NonUniformOperand { .. }));
}

#[test]
fn split_thickness_from_register() {
    let mut m = machine(
        Variant::SingleInstruction,
        "main:
            ldi r1, 6
            split (r1 -> child)
            halt
        child:
            mfs r2, tid
            ldi r3, 100
            add r3, r3, r2
            st r2, [r3+0]
            join
        ",
    );
    m.run(100).unwrap();
    for t in 0..6 {
        assert_eq!(m.peek(100 + t).unwrap(), t as i64);
    }
}

#[test]
fn split_zero_thickness_faults() {
    let mut m = machine(
        Variant::SingleInstruction,
        "main:\n split (0 -> child)\n halt\nchild:\n join\n",
    );
    let e = m.run(100).unwrap_err();
    assert!(matches!(e.fault, TcfFault::BadThickness { requested: 0 }));
}

#[test]
fn join_without_parent_faults() {
    let mut m = machine(Variant::SingleInstruction, "main:\n join\n");
    let e = m.run(100).unwrap_err();
    assert!(matches!(e.fault, TcfFault::StrayJoin));
}

#[test]
fn cso_bunch_formation_fails_on_diverged_siblings() {
    // Odd-ranked unit flows branch past the `numa`, so when an even flow
    // tries to absorb its neighbour the pcs disagree.
    let mut m = machine(
        Variant::ConfigurableSingleOperation,
        "main:
            mfs r1, tid
            mod r2, r1, 2
            bnez r2, out
            numa 2
            endnuma
            halt
        out:
            nop
            halt
        ",
    );
    let e = m.run(100).unwrap_err();
    assert!(
        matches!(e.fault, TcfFault::BunchFormation { .. }),
        "unexpected: {e}"
    );
}

#[test]
fn spawn_zero_threads_continues() {
    let mut m = machine(
        Variant::MultiInstruction,
        "main:
            spawn 0, body
            ldi r1, 42
            st r1, [r0+9]
            halt
        body:
            sjoin
        ",
    );
    m.run(100).unwrap();
    assert_eq!(m.peek(9).unwrap(), 42);
}

#[test]
fn spawn_negative_count_faults() {
    let mut m = machine(
        Variant::MultiInstruction,
        "main:
            ldi r1, -2
            spawn r1, body
            halt
        body:
            sjoin
        ",
    );
    let e = m.run(100).unwrap_err();
    assert!(matches!(e.fault, TcfFault::BadThickness { .. }));
}

#[test]
fn balanced_with_large_bound_equals_single_instruction_steps() {
    let src = "main:
            setthick 32
            mfs r1, tid
            add r2, r1, 1
            ldi r3, 500
            add r3, r3, r1
            st r2, [r3+0]
            halt
        ";
    let mut si = machine(Variant::SingleInstruction, src);
    let s1 = si.run(1000).unwrap();
    let mut bal = machine(Variant::Balanced { bound: 1000 }, src);
    let s2 = bal.run(1000).unwrap();
    assert_eq!(s1.steps, s2.steps);
    for t in 0..32 {
        assert_eq!(bal.peek(500 + t).unwrap(), t as i64 + 1);
    }
}

#[test]
fn spawn_task_works_on_balanced() {
    let program = assemble(
        "main:
            halt
        task:
            mfs r1, tid
            ldi r2, 700
            add r2, r2, r1
            st r1, [r2+0]
            halt
        ",
    )
    .unwrap();
    let entry = program.label("task").unwrap();
    let mut m = TcfMachine::new(
        MachineConfig::small(),
        Variant::Balanced { bound: 2 },
        program,
    );
    m.spawn_task(entry, 7).unwrap();
    m.run(1000).unwrap();
    for t in 0..7 {
        assert_eq!(m.peek(700 + t).unwrap(), t as i64);
    }
}

#[test]
fn step_budget_exhaustion_reported() {
    let mut m = machine(Variant::SingleInstruction, "main:\n jmp main\n");
    let e = m.run(25).unwrap_err();
    assert!(matches!(
        e.fault,
        TcfFault::StepBudgetExhausted { budget: 25 }
    ));
}

#[test]
fn peek_out_of_bounds_is_error() {
    let m = machine(Variant::SingleInstruction, "main:\n halt\n");
    assert!(m.peek(1 << 40).is_err());
}

#[test]
fn thick_sel_per_thread() {
    let mut m = machine(
        Variant::SingleInstruction,
        "main:
            setthick 8
            mfs r1, tid
            slt r2, r1, 4        ; threads 0..3 select rt
            ldi r3, 111
            sel r4, r2, r3, 222
            ldi r5, 300
            add r5, r5, r1
            st r4, [r5+0]
            halt
        ",
    );
    m.run(100).unwrap();
    for t in 0..4 {
        assert_eq!(m.peek(300 + t).unwrap(), 111);
    }
    for t in 4..8 {
        assert_eq!(m.peek(300 + t).unwrap(), 222);
    }
}

#[test]
fn trace_records_thick_execution() {
    let mut m = machine(
        Variant::SingleInstruction,
        "main:
            setthick 8
            mfs r1, tid
            add r2, r1, 1
            halt
        ",
    );
    m.set_tracing(true);
    m.run(100).unwrap();
    let csv = m.trace().to_csv();
    // Thick instructions appear once per implicit thread.
    assert!(csv.lines().filter(|l| l.contains("compute")).count() >= 16);
    let gantt = m.trace().gantt(0);
    assert!(gantt.contains("flow"));
}

#[test]
fn trace_and_stats_agree_on_issue_slot_accounting() {
    // The trace and MachineStats count the same issue slots: trace busy
    // cycles (compute + memory, not bubbles, not overhead) must equal the
    // stats' slot-occupying issued work, and the total recorded slots must
    // equal issued + bubbles + overhead. Fetches are counted per TCF by
    // the front end and never occupy an issue slot, hence the subtraction.
    let mut m = machine(
        Variant::SingleInstruction,
        "main:
            setthick 24
            mfs r1, tid
            add r2, r1, 1
            ldi r3, 400
            add r3, r3, r1
            st r2, [r3+0]
            ld r4, [r3+0]
            halt
        ",
    );
    m.set_tracing(true);
    let summary = m.run(1_000).unwrap();
    let s = summary.machine;

    let groups = m.config().groups;
    let trace_busy: u64 = (0..groups).map(|g| m.trace().busy_cycles(g)).sum();
    let trace_total = m.trace().len();
    let slot_issued = s.compute_ops + s.shared_refs + s.local_refs;

    assert_eq!(trace_busy, slot_issued);
    assert_eq!(trace_total, slot_issued + s.bubbles + s.overhead_cycles);
    // And the derived utilizations agree once fetches are excluded on the
    // stats side.
    let trace_util: f64 = trace_busy as f64 / trace_total as f64;
    let stats_util = slot_issued as f64 / (slot_issued + s.bubbles + s.overhead_cycles) as f64;
    assert!((trace_util - stats_util).abs() < 1e-12);
}

#[test]
fn flows_api_exposes_state() {
    let mut m = machine(
        Variant::SingleInstruction,
        "main:\n setthick 12\n nop\n halt\n",
    );
    m.step().unwrap();
    m.step().unwrap();
    let ids = m.flow_ids();
    assert_eq!(ids.len(), 1);
    let f = m.flow(ids[0]).unwrap();
    assert_eq!(f.thickness, 12);
    assert_eq!(m.running_thickness(), 12);
    m.run(100).unwrap();
    assert_eq!(m.live_flows(), 0);
}
