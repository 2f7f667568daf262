//! Differential property tests inside the extended model: the Balanced
//! variant (any bound) and both fragment-allocation policies are
//! *scheduling* choices — the paper insists they do not affect
//! programmability (§3.2: "this does not effect the programmability of
//! the model, but just the scheduling of instructions"). So for any
//! well-formed TCF program, Single-instruction/Horizontal,
//! Single-instruction/Vertical and Balanced{b}/Horizontal must leave
//! bit-identical shared memory.
//!
//! One documented exception, found by an earlier version of this very
//! property: a *thick* plain store whose threads write different values
//! to the *same* address. Under Arbitrary CRCW any writer may win; the
//! Single-instruction variant resolves the whole instruction in one
//! memory step (deterministically: highest rank), while Balanced resolves
//! each slice in its own step, so a different — equally legal — winner
//! survives. The generator therefore keeps thick stores per-thread
//! distinct (multioperations, which combine associatively, remain fair
//! game at any address). This is deviation #2 of EXPERIMENTS.md.

use proptest::prelude::*;

use tcf_core::{Allocation, Engine, TcfMachine, Variant};
use tcf_isa::instr::{Instr, MemSpace, MultiKind, Operand};
use tcf_isa::op::AluOp;
use tcf_isa::program::Program;
use tcf_isa::reg::{r, Reg, SpecialReg};
use tcf_isa::word::Word;
use tcf_machine::MachineConfig;

const MEM_WINDOW: usize = 4096;

/// A generator of well-formed TCF program segments: thickness changes,
/// uniform compute, and thick memory traffic through a dedicated
/// tid-derived address register (always in bounds).
#[derive(Debug, Clone)]
enum Segment {
    SetThick(usize),
    UniformAlu(AluOp, u8, u8, Word),
    ThickInit(u8), // rX = tid * 3 + 1  (per-thread data)
    ThickStore {
        base: usize,
        src: u8,
    },
    ThickLoad {
        base: usize,
        dst: u8,
    },
    Multi {
        kind: MultiKind,
        addr: usize,
        src: u8,
    },
    Prefix {
        kind: MultiKind,
        addr: usize,
        dst: u8,
        src: u8,
    },
    UniformStore {
        addr: usize,
        src: u8,
    },
}

fn data_reg() -> impl Strategy<Value = u8> {
    1u8..7
}

fn arb_segment() -> impl Strategy<Value = Segment> {
    let base = 0usize..(MEM_WINDOW - 256);
    prop_oneof![
        (1usize..80).prop_map(Segment::SetThick),
        (
            prop::sample::select(
                &[
                    AluOp::Add,
                    AluOp::Sub,
                    AluOp::Mul,
                    AluOp::Xor,
                    AluOp::Min,
                    AluOp::Max
                ][..]
            ),
            data_reg(),
            data_reg(),
            -50i64..50
        )
            .prop_map(|(op, rd, ra, imm)| Segment::UniformAlu(op, rd, ra, imm)),
        data_reg().prop_map(Segment::ThickInit),
        (base.clone(), data_reg()).prop_map(|(base, src)| Segment::ThickStore { base, src }),
        (base.clone(), data_reg()).prop_map(|(base, dst)| Segment::ThickLoad { base, dst }),
        (
            prop::sample::select(&MultiKind::ALL[..]),
            base.clone(),
            data_reg()
        )
            .prop_map(|(kind, addr, src)| Segment::Multi { kind, addr, src }),
        (
            prop::sample::select(&MultiKind::ALL[..]),
            base.clone(),
            data_reg(),
            data_reg()
        )
            .prop_map(|(kind, addr, dst, src)| Segment::Prefix {
                kind,
                addr,
                dst,
                src
            }),
        (base, data_reg()).prop_map(|(addr, src)| Segment::UniformStore { addr, src }),
    ]
}

fn lower(segments: &[Segment]) -> Program {
    let addr = r(7); // dedicated thick address register
    let mut instrs: Vec<Instr> = Vec::new();
    // Static taint: which data registers currently hold per-thread values.
    // A uniform store of a tainted register would be a same-address
    // concurrent write with divergent values — the documented Balanced
    // exception — so such stores are lowered as per-thread stores instead.
    let mut tainted = [false; 8];
    for seg in segments {
        match *seg {
            Segment::SetThick(k) => instrs.push(Instr::SetThick {
                src: Operand::Imm(k as Word),
            }),
            Segment::UniformAlu(op, rd, ra, imm) => {
                tainted[rd as usize] = tainted[ra as usize];
                instrs.push(Instr::Alu {
                    op,
                    rd: r(rd),
                    ra: r(ra),
                    rb: Operand::Imm(imm),
                });
            }
            Segment::ThickInit(rd) => {
                tainted[rd as usize] = true;
                instrs.push(Instr::Mfs {
                    rd: r(rd),
                    sr: SpecialReg::Tid,
                });
                instrs.push(Instr::Alu {
                    op: AluOp::Mul,
                    rd: r(rd),
                    ra: r(rd),
                    rb: Operand::Imm(3),
                });
                instrs.push(Instr::Alu {
                    op: AluOp::Add,
                    rd: r(rd),
                    ra: r(rd),
                    rb: Operand::Imm(1),
                });
            }
            Segment::ThickStore { base, src } => {
                // addr = (tid & 255) + base  — always in the window.
                instrs.push(Instr::Mfs {
                    rd: addr,
                    sr: SpecialReg::Tid,
                });
                instrs.push(Instr::Alu {
                    op: AluOp::And,
                    rd: addr,
                    ra: addr,
                    rb: Operand::Imm(255),
                });
                instrs.push(Instr::St {
                    rs: r(src),
                    base: addr,
                    off: base as Word,
                    space: MemSpace::Shared,
                });
            }
            Segment::ThickLoad { base, dst } => {
                tainted[dst as usize] = true;
                instrs.push(Instr::Mfs {
                    rd: addr,
                    sr: SpecialReg::Tid,
                });
                instrs.push(Instr::Alu {
                    op: AluOp::And,
                    rd: addr,
                    ra: addr,
                    rb: Operand::Imm(255),
                });
                instrs.push(Instr::Ld {
                    rd: r(dst),
                    base: addr,
                    off: base as Word,
                    space: MemSpace::Shared,
                });
            }
            Segment::Multi { kind, addr: a, src } => instrs.push(Instr::MultiOp {
                kind,
                base: Reg::ZERO,
                off: a as Word,
                rs: r(src),
            }),
            Segment::Prefix {
                kind,
                addr: a,
                dst,
                src,
            } => {
                tainted[dst as usize] = true;
                instrs.push(Instr::MultiPrefix {
                    kind,
                    rd: r(dst),
                    base: Reg::ZERO,
                    off: a as Word,
                    rs: r(src),
                });
            }
            Segment::UniformStore { addr: a, src } => {
                if tainted[src as usize] {
                    // Per-thread values: store them per-thread to keep the
                    // program CRCW-race-free (see module docs).
                    instrs.push(Instr::Mfs {
                        rd: addr,
                        sr: SpecialReg::Tid,
                    });
                    instrs.push(Instr::Alu {
                        op: AluOp::And,
                        rd: addr,
                        ra: addr,
                        rb: Operand::Imm(255),
                    });
                    instrs.push(Instr::St {
                        rs: r(src),
                        base: addr,
                        off: a as Word,
                        space: MemSpace::Shared,
                    });
                } else {
                    instrs.push(Instr::St {
                        rs: r(src),
                        base: Reg::ZERO,
                        off: a as Word,
                        space: MemSpace::Shared,
                    });
                }
            }
        }
    }
    instrs.push(Instr::Halt);
    Program::new(instrs, Default::default(), vec![]).unwrap()
}

fn run(variant: Variant, alloc: Allocation, program: Program) -> Vec<Word> {
    let mut m = TcfMachine::with_allocation(MachineConfig::small(), variant, program, alloc);
    m.run(200_000).expect("program halts");
    m.peek_range(0, MEM_WINDOW).unwrap()
}

/// Runs under an explicit execution engine and returns everything the
/// parallel engine promises to keep bit-identical: memory, machine
/// statistics, and memory-step statistics.
fn run_engine(engine: Engine, program: Program) -> (Vec<Word>, String) {
    let mut m = TcfMachine::with_allocation(
        MachineConfig::small(),
        Variant::SingleInstruction,
        program,
        Allocation::Horizontal,
    );
    m.set_engine(engine);
    m.run(200_000).expect("program halts");
    let mem = m.peek_range(0, MEM_WINDOW).unwrap();
    let stats = format!("{:?} {:?}", m.stats(), m.mem_stats());
    (mem, stats)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Scheduling choices (Balanced bound, allocation) never change the
    /// program's memory effects.
    #[test]
    fn scheduling_is_semantically_transparent(
        segments in prop::collection::vec(arb_segment(), 1..16)
    ) {
        let program = lower(&segments);
        let reference = run(
            Variant::SingleInstruction,
            Allocation::Horizontal,
            program.clone(),
        );
        let vertical = run(
            Variant::SingleInstruction,
            Allocation::Vertical,
            program.clone(),
        );
        prop_assert_eq!(&reference, &vertical, "vertical allocation diverged");
        for bound in [1usize, 3, 8] {
            let balanced = run(
                Variant::Balanced { bound },
                Allocation::Horizontal,
                program.clone(),
            );
            prop_assert_eq!(&reference, &balanced, "Balanced{{{}}} diverged", bound);
        }
    }

    /// The parallel engine is a pure scheduling choice too: for any
    /// well-formed program — multioperations and multiprefixes included,
    /// so both the bulk-combining fast path and its per-lane expansion
    /// are crossed — seq and par:4 leave bit-identical memory and
    /// statistics.
    #[test]
    fn parallel_engine_is_bit_identical(
        segments in prop::collection::vec(arb_segment(), 1..16)
    ) {
        let program = lower(&segments);
        let (seq_mem, seq_stats) = run_engine(Engine::Sequential, program.clone());
        let (par_mem, par_stats) = run_engine(Engine::Parallel { workers: 4 }, program);
        prop_assert_eq!(&seq_mem, &par_mem, "par:4 memory diverged");
        prop_assert_eq!(&seq_stats, &par_stats, "par:4 statistics diverged");
    }

    /// Thickness changes preserve flow-wise register state.
    #[test]
    fn thickness_changes_keep_uniform_registers(k1 in 1usize..64, k2 in 1usize..64, v in -1000i64..1000) {
        let program = lower(&[
            Segment::UniformAlu(AluOp::Add, 1, 0, v), // r1 = v
            Segment::SetThick(k1),
            Segment::SetThick(k2),
            Segment::UniformStore { addr: 10, src: 1 },
        ]);
        let mem = run(Variant::SingleInstruction, Allocation::Horizontal, program);
        prop_assert_eq!(mem[10], v);
    }
}

#[test]
fn thickness_preserving_setthick_keeps_lane_state() {
    // SetThick to the *same* thickness must be observably the identity:
    // per-lane data written before the no-op change reads back unchanged
    // after it.
    let k = 5usize;
    let program = lower(&[
        Segment::SetThick(k),
        Segment::ThickInit(1), // r1 = 3*tid + 1, an affine register
        Segment::SetThick(k),  // thickness-preserving
        Segment::ThickStore { base: 2000, src: 1 },
    ]);
    let mem = run(Variant::SingleInstruction, Allocation::Horizontal, program);
    for t in 0..k {
        assert_eq!(mem[2000 + t], 3 * t as Word + 1, "lane {t}");
    }
}

#[test]
fn fragmented_multiprefix_is_rank_ordered() {
    // A multiprefix over a flow spread across all four groups must still
    // deliver prefixes in tid order — fragmentation must not reorder the
    // combining.
    let program = lower(&[
        Segment::SetThick(61), // awkward size: uneven fragments
        Segment::ThickInit(1), // r1 = 3*tid + 1
        Segment::Prefix {
            kind: MultiKind::Add,
            addr: 500,
            dst: 2,
            src: 1,
        },
        Segment::ThickStore { base: 1000, src: 2 },
    ]);
    let mem = run(Variant::SingleInstruction, Allocation::Horizontal, program);
    let mut acc = 0;
    for t in 0..61 {
        assert_eq!(mem[1000 + t], acc, "prefix of tid {t}");
        acc += 3 * t as Word + 1;
    }
    assert_eq!(mem[500], acc);
}
