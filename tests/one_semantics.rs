//! One meaning per instruction, whatever schedules it: a straight-line
//! body using all nine data instructions at thickness 1 must leave the
//! same registers, shared memory and local memory when it runs flow-wise
//! on each synchronous variant, as a NUMA stream (`numa 1 … endnuma`),
//! as a spawned Multi-instruction thread (`spawn 1 … sjoin`), and on the
//! independent baseline machine (`tcf-pram`).

use tcf::core::{TcfMachine, Variant};
use tcf::isa::instr::MultiKind;
use tcf::isa::op::AluOp;
use tcf::isa::program::Program;
use tcf::isa::reg::{r, SpecialReg};
use tcf::isa::word::Word;
use tcf::isa::ProgramBuilder;
use tcf::machine::MachineConfig;
use tcf::pram::PramMachine;

const SHARED: std::ops::Range<usize> = 300..308;
const LOCAL: usize = 5;
const REGS: std::ops::RangeInclusive<u8> = 2..=11;

/// `ldi, mfs, alu (reg and imm), sel (both ways), st/ld shared, st/ld
/// local, stmasked (selected and masked out), multiop, multiprefix`.
fn body(b: &mut ProgramBuilder) {
    b.ldi(r(2), 7);
    b.mfs(r(3), SpecialReg::NThreads);
    b.alu(AluOp::Add, r(4), r(2), r(3));
    b.alu(AluOp::Mul, r(4), r(4), 3);
    b.sel(r(5), r(4), r(2), 99);
    b.alu(AluOp::Sub, r(6), r(2), r(2));
    b.sel(r(7), r(6), r(2), r(3));
    b.st(r(4), r(0), 300);
    b.ld(r(8), r(0), 300);
    b.stl(r(8), r(0), LOCAL as Word);
    b.ldl(r(9), r(0), LOCAL as Word);
    b.stm(r(6), r(2), r(0), 301);
    b.stm(r(2), r(3), r(0), 302);
    b.multiop(MultiKind::Add, r(0), 300, r(2));
    b.multiprefix(MultiKind::Max, r(10), r(0), 300, r(3));
    b.ld(r(11), r(0), 300);
    b.st(r(10), r(0), 303);
}

/// The body guarded so that only the thread of global rank 0 runs it (the
/// thread-based variants and the baseline start `P × T_p` threads).
fn guarded(wrap: impl Fn(&mut ProgramBuilder)) -> Program {
    let mut b = ProgramBuilder::new();
    b.mfs(r(1), SpecialReg::Gid);
    b.bnez(r(1), "done");
    wrap(&mut b);
    b.label("done");
    b.halt();
    b.build().unwrap()
}

fn in_numa(b: &mut ProgramBuilder) {
    b.numa(1);
    body(b);
    b.endnuma();
}

fn spawned() -> Program {
    let mut b = ProgramBuilder::new();
    b.spawn(1, "task");
    b.halt();
    b.label("task");
    body(&mut b);
    b.sjoin();
    b.build().unwrap()
}

/// `(registers, shared window, local word)` left by flow `flow`.
fn run_core(variant: Variant, program: Program, flow: u32) -> (Vec<Word>, Vec<Word>, Word) {
    let mut m = TcfMachine::new(MachineConfig::small(), variant, program);
    m.run(10_000).unwrap_or_else(|e| panic!("{variant:?}: {e}"));
    let f = m.flow(flow).expect("flow exists");
    (
        REGS.map(|k| f.regs.read(r(k), 0)).collect(),
        m.peek_range(SHARED.start, SHARED.len()).unwrap(),
        m.peek_local(0, LOCAL).unwrap(),
    )
}

#[test]
fn nine_data_instructions_mean_the_same_under_every_schedule() {
    let mut pram = PramMachine::new(MachineConfig::small(), guarded(body));
    pram.run(10_000).expect("baseline halts");
    let reference = (
        REGS.map(|k| pram.thread(0, 0).read_reg(r(k)))
            .collect::<Vec<_>>(),
        pram.peek_range(SHARED.start, SHARED.len()).unwrap(),
        pram.peek_local(0, LOCAL).unwrap(),
    );
    // r4 = (7 + T_p) * 3; the prefix returns the word before its max.
    let tp = MachineConfig::small().threads_per_group as Word;
    let r4 = (7 + tp) * 3;
    assert_eq!(reference.1[..4], [(r4 + 7).max(tp), 0, tp, r4 + 7]);
    assert_eq!(reference.2, r4);

    let synchronous = [
        Variant::SingleInstruction,
        Variant::Balanced { bound: 4 },
        Variant::SingleOperation,
        Variant::ConfigurableSingleOperation,
        Variant::FixedThickness { width: 1 },
    ];
    for variant in synchronous {
        assert_eq!(
            run_core(variant, guarded(body), 0),
            reference,
            "{variant:?}, flow-wise"
        );
        if variant.supports_numa() {
            assert_eq!(
                run_core(variant, guarded(in_numa), 0),
                reference,
                "{variant:?}, NUMA stream"
            );
        }
    }
    // The spawned thread is flow 1 (the spawner is flow 0).
    assert_eq!(
        run_core(Variant::MultiInstruction, spawned(), 1),
        reference,
        "MultiInstruction, spawned thread"
    );
}

/// One memory instruction at the effective address `r1 + off`, storing or
/// contributing `r2`, loading into `r3`.
#[derive(Debug, Clone, Copy)]
enum Access {
    St,
    Ld,
    Multi,
    Prefix,
    Stl,
    Ldl,
}

impl Access {
    const ALL: [Access; 6] = [
        Access::St,
        Access::Ld,
        Access::Multi,
        Access::Prefix,
        Access::Stl,
        Access::Ldl,
    ];

    fn emit(self, b: &mut ProgramBuilder, off: Word) {
        b.ldi(r(2), 1);
        match self {
            Access::St => b.st(r(2), r(1), off),
            Access::Ld => b.ld(r(3), r(1), off),
            Access::Multi => b.multiop(MultiKind::Add, r(1), off, r(2)),
            Access::Prefix => b.multiprefix(MultiKind::Add, r(3), r(1), off, r(2)),
            Access::Stl => b.stl(r(2), r(1), off),
            Access::Ldl => b.ldl(r(3), r(1), off),
        };
    }
}

/// How the lanes of a thick access get their base register `r1`.
#[derive(Debug, Clone, Copy)]
enum Base {
    /// `tid`: an affine register, whose address run `AddrRun::from_words`
    /// declines because lanes fall below 0.
    Affine,
    /// `tid & 3`: explicit lanes.
    Lanes,
}

/// `access` at `r1 − 200` from every lane of a flow eight thick (however
/// `variant` gets there), lanes 0..8 of `r1` set per `base`.
fn thick_negative(variant: Variant, access: Access, base: Base) -> Program {
    let mut b = ProgramBuilder::new();
    match variant {
        Variant::FixedThickness { .. } => {}
        Variant::MultiInstruction => {
            b.spawn(8, "task");
            b.halt();
            b.label("task");
        }
        _ => {
            b.setthick(8);
        }
    }
    b.mfs(r(1), SpecialReg::Tid);
    if let Base::Lanes = base {
        b.alu(AluOp::And, r(1), r(1), 3);
    }
    access.emit(&mut b, -200);
    if matches!(variant, Variant::MultiInstruction) {
        b.sjoin();
    } else {
        b.halt();
    }
    b.build().unwrap()
}

/// A negative effective address is a memory fault — on the step port
/// (flow-wise, per-lane and with an affine base the closed form declines),
/// on the direct port (a NUMA stream, a spawned block) and on the baseline
/// machine — and never an access to word 0.
#[test]
fn a_negative_effective_address_faults_under_every_schedule() {
    use tcf::core::TcfFault;
    use tcf::mem::MemError;

    fn expect_fault(what: &str, variant: Variant, program: Program) {
        let mut m = TcfMachine::new(MachineConfig::small(), variant, program);
        m.poke(0, 77).unwrap();
        let err = m
            .run(10_000)
            .expect_err(&format!("{what} / {variant:?}: ran to the end"));
        assert!(
            matches!(
                err.fault,
                TcfFault::Mem(
                    MemError::OutOfBounds { addr, .. } | MemError::LocalOutOfBounds { addr, .. }
                ) if addr == usize::MAX
            ),
            "{what} / {variant:?}: {err}"
        );
        assert_eq!(m.peek(0).unwrap(), 77, "{what} / {variant:?}: word 0");
        for g in 0..MachineConfig::small().groups {
            assert_eq!(m.peek_local(g, 0).unwrap(), 0, "{what} / {variant:?}");
        }
    }

    for access in Access::ALL {
        // `r1` is 0 on the one thread that gets here: address −200.
        let unit = |b: &mut ProgramBuilder| access.emit(b, -200);
        let in_numa = |b: &mut ProgramBuilder| {
            b.numa(1);
            access.emit(b, -200);
            b.endnuma();
        };
        let what = format!("{access:?}");
        for variant in [
            Variant::SingleInstruction,
            Variant::Balanced { bound: 3 },
            Variant::SingleOperation,
            Variant::ConfigurableSingleOperation,
            Variant::FixedThickness { width: 8 },
            Variant::MultiInstruction,
        ] {
            // Thread variants run unit flows only; the others go thick.
            if matches!(
                variant,
                Variant::SingleOperation | Variant::ConfigurableSingleOperation
            ) {
                expect_fault(&what, variant, guarded(unit));
            } else {
                for base in [Base::Affine, Base::Lanes] {
                    let program = thick_negative(variant, access, base);
                    expect_fault(&format!("{what}, {base:?}"), variant, program);
                }
            }
            if variant.supports_numa() {
                expect_fault(&format!("{what}, NUMA"), variant, guarded(in_numa));
            }
        }

        let mut pram = PramMachine::new(MachineConfig::small(), guarded(unit));
        pram.poke(0, 77).unwrap();
        let err = pram.run(10_000).expect_err("baseline ran to the end");
        assert!(
            matches!(
                err.fault,
                tcf::pram::Fault::Mem(
                    MemError::OutOfBounds { addr, .. } | MemError::LocalOutOfBounds { addr, .. }
                ) if addr == usize::MAX
            ),
            "{what} / baseline: {err}"
        );
        assert_eq!(pram.peek(0).unwrap(), 77, "{what} / baseline: word 0");
        assert_eq!(pram.peek_local(0, 0).unwrap(), 0, "{what} / baseline");
    }
}

/// `min` over two progressions that cross (`tid − 8` against `−tid − 7`:
/// lanes −8, −8, −9, …) and its `max` mirror, stored to words 100…: the
/// closed form's first region is one lane wide and the second starts at
/// the value the first ended on — a single-lane run must not adopt the
/// next run's stride. The thickness `n` is set the way `variant` sets it.
/// Returns the program and the index of the `min`/`max`.
fn crossing(op: AluOp, variant: Variant, n: usize) -> (Program, usize) {
    // The mirror: `tid + 7` against `8 − tid`, lanes 8, 8, 9, ….
    let (c1, c2) = if op == AluOp::Min { (-8, -7) } else { (7, 8) };
    let spawned = matches!(variant, Variant::MultiInstruction);
    let mut b = ProgramBuilder::new();
    match variant {
        // The machine's width is the thickness.
        Variant::FixedThickness { .. } => {}
        Variant::MultiInstruction => {
            b.spawn(n as Word, "task");
            b.halt();
            b.label("task");
        }
        _ => {
            b.setthick(n as Word);
        }
    }
    b.mfs(r(1), SpecialReg::Tid);
    b.alu(AluOp::Add, r(4), r(1), 100);
    b.alu(AluOp::Sub, r(2), r(0), r(1));
    b.alu(AluOp::Add, r(1), r(1), c1);
    b.alu(AluOp::Add, r(2), r(2), c2);
    let at = b.here();
    b.alu(op, r(3), r(1), r(2));
    b.st(r(3), r(4), 0);
    if spawned {
        b.sjoin();
    } else {
        b.halt();
    }
    (b.build().unwrap(), at)
}

/// Words `100..100 + n` after running `program`; with `materialize_at`,
/// every register is forced into explicit lanes whenever a flow is about
/// to execute that instruction.
fn crossing_words(
    variant: Variant,
    program: &Program,
    n: usize,
    materialize_at: Option<usize>,
) -> Vec<Word> {
    let mut m = TcfMachine::new(MachineConfig::small(), variant, program.clone());
    for _ in 0..100_000 {
        if m.live_flows() == 0 {
            break;
        }
        let at_op = |id: &u32| m.flow(*id).is_some_and(|f| Some(f.pc) == materialize_at);
        if m.flow_ids().iter().any(at_op) {
            m.materialize_all_registers();
        }
        m.step().unwrap_or_else(|e| panic!("{variant:?}: {e}"));
    }
    assert_eq!(m.live_flows(), 0, "{variant:?} did not finish");
    m.peek_range(100, n).unwrap()
}

#[test]
fn crossing_min_max_read_the_same_compressed_materialized_and_on_the_host() {
    for n in [64usize, 4099] {
        // The two thread variants run unit flows and never reach the
        // closed form.
        let variants = [
            Variant::SingleInstruction,
            Variant::Balanced { bound: 3 },
            Variant::Balanced { bound: 64 },
            Variant::FixedThickness { width: n },
            Variant::MultiInstruction,
        ];
        for op in [AluOp::Min, AluOp::Max] {
            let host: Vec<Word> = (0..n as Word)
                .map(|tid| match op {
                    AluOp::Min => (tid - 8).min(-tid - 7),
                    _ => (tid + 7).max(8 - tid),
                })
                .collect();
            let sign: Word = if op == AluOp::Min { -1 } else { 1 };
            assert_eq!(host[..3], [8 * sign, 8 * sign, 9 * sign]);
            for variant in variants {
                let (program, at) = crossing(op, variant, n);
                let compressed = crossing_words(variant, &program, n, None);
                assert_eq!(compressed, host, "{variant:?} {op:?} n={n}, compressed");
                let materialized = crossing_words(variant, &program, n, Some(at));
                assert_eq!(materialized, host, "{variant:?} {op:?} n={n}, materialized");
            }
        }
    }
}
