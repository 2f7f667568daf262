//! Property tests: assembler ⇄ disassembler and encoder ⇄ decoder round
//! trips over arbitrary instructions.

use proptest::prelude::*;
use std::collections::BTreeMap;

use tcf_isa::asm::assemble;
use tcf_isa::encode::{decode, encode};
use tcf_isa::instr::{BrCond, Instr, MemSpace, MultiKind, Operand, SplitArm, Target};
use tcf_isa::op::AluOp;
use tcf_isa::program::Program;
use tcf_isa::reg::{Reg, SpecialReg, NUM_REGS};
use tcf_isa::word::Word;

fn arb_reg() -> impl Strategy<Value = Reg> {
    (0..NUM_REGS as u8).prop_map(Reg::new)
}

fn arb_operand() -> impl Strategy<Value = Operand> {
    prop_oneof![
        arb_reg().prop_map(Operand::Reg),
        any::<Word>().prop_map(Operand::Imm),
    ]
}

fn arb_space() -> impl Strategy<Value = MemSpace> {
    prop_oneof![Just(MemSpace::Shared), Just(MemSpace::Local)]
}

fn arb_multikind() -> impl Strategy<Value = MultiKind> {
    prop::sample::select(&MultiKind::ALL[..])
}

/// Targets always resolve to instruction 0, which exists in the one-or-more
/// instruction programs we generate.
fn arb_target() -> impl Strategy<Value = Target> {
    Just(Target::Abs(0))
}

fn arb_instr() -> impl Strategy<Value = Instr> {
    let off = -1024_i64..1024_i64;
    prop_oneof![
        (
            prop::sample::select(&AluOp::ALL[..]),
            arb_reg(),
            arb_reg(),
            arb_operand()
        )
            .prop_map(|(op, rd, ra, rb)| {
                // Unary ops print without rb; normalize so display
                // round-trips structurally.
                let rb = if op.is_unary() {
                    Operand::Reg(Reg::ZERO)
                } else {
                    rb
                };
                Instr::Alu { op, rd, ra, rb }
            }),
        (arb_reg(), any::<Word>()).prop_map(|(rd, imm)| Instr::Ldi { rd, imm }),
        (arb_reg(), prop::sample::select(&SpecialReg::ALL[..]))
            .prop_map(|(rd, sr)| Instr::Mfs { rd, sr }),
        (arb_reg(), arb_reg(), arb_reg(), arb_operand())
            .prop_map(|(rd, cond, rt, rf)| Instr::Sel { rd, cond, rt, rf }),
        (arb_reg(), arb_reg(), off.clone(), arb_space()).prop_map(|(rd, base, off, space)| {
            Instr::Ld {
                rd,
                base,
                off,
                space,
            }
        }),
        (arb_reg(), arb_reg(), off.clone(), arb_space()).prop_map(|(rs, base, off, space)| {
            Instr::St {
                rs,
                base,
                off,
                space,
            }
        }),
        (arb_reg(), arb_reg(), arb_reg(), off.clone(), arb_space()).prop_map(
            |(cond, rs, base, off, space)| Instr::StMasked {
                cond,
                rs,
                base,
                off,
                space,
            }
        ),
        (arb_multikind(), arb_reg(), off.clone(), arb_reg()).prop_map(|(kind, base, off, rs)| {
            Instr::MultiOp {
                kind,
                base,
                off,
                rs,
            }
        }),
        (
            arb_multikind(),
            arb_reg(),
            arb_reg(),
            off.clone(),
            arb_reg()
        )
            .prop_map(|(kind, rd, base, off, rs)| Instr::MultiPrefix {
                kind,
                rd,
                base,
                off,
                rs,
            }),
        arb_target().prop_map(|target| Instr::Jmp { target }),
        (
            prop::sample::select(&BrCond::ALL[..]),
            arb_reg(),
            arb_target()
        )
            .prop_map(|(cond, rs, target)| Instr::Br { cond, rs, target }),
        arb_target().prop_map(|target| Instr::Call { target }),
        Just(Instr::Ret),
        arb_operand().prop_map(|src| Instr::SetThick { src }),
        arb_operand().prop_map(|slots| Instr::Numa { slots }),
        Just(Instr::EndNuma),
        prop::collection::vec((arb_operand(), arb_target()), 1..4).prop_map(|arms| {
            Instr::Split {
                arms: arms
                    .into_iter()
                    .map(|(thickness, target)| SplitArm { thickness, target })
                    .collect(),
            }
        }),
        Just(Instr::Join),
        (arb_operand(), arb_target()).prop_map(|(count, target)| Instr::Spawn { count, target }),
        Just(Instr::SJoin),
        Just(Instr::Sync),
        Just(Instr::Halt),
        Just(Instr::Nop),
    ]
}

fn program_of(instrs: Vec<Instr>) -> Program {
    Program::new(instrs, BTreeMap::new(), vec![]).expect("valid program")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn assembler_roundtrips_listing(instrs in prop::collection::vec(arb_instr(), 1..40)) {
        let p = program_of(instrs);
        let listing = p.listing();
        let q = assemble(&listing).unwrap_or_else(|e| panic!("reassembly failed: {e}\n{listing}"));
        prop_assert_eq!(&p.instrs, &q.instrs);
    }

    #[test]
    fn binary_roundtrips(instrs in prop::collection::vec(arb_instr(), 1..40)) {
        let p = program_of(instrs);
        let bin = encode(&p).unwrap();
        let q = decode(&bin).unwrap();
        prop_assert_eq!(&p.instrs, &q.instrs);
        prop_assert_eq!(p.entry, q.entry);
    }
}

/// A label index that is a decimal prefix of another (2 and 20–29) must not
/// capture the longer one's references: with ≥ 40 labelled branch targets
/// the listing re-assembles to exactly the same targets.
#[test]
fn listing_with_prefix_sharing_label_indices_roundtrips() {
    let mut b = tcf_isa::ProgramBuilder::new();
    let n = 48;
    b.label("main");
    b.jmp("body");
    for i in 1..n {
        b.label(format!("L{i}"));
        b.nop();
    }
    b.halt();
    b.label("body");
    for i in 1..n {
        b.bnez(Reg::new(1), format!("L{}", (i * 7) % (n - 1) + 1));
    }
    b.halt();
    let p = b.build().expect("labels resolve");
    assert!((1..n).all(|i| p.labels[&format!("L{i}")] == i));
    let listing = p.listing();
    let q = assemble(&listing).unwrap_or_else(|e| panic!("reassembly failed: {e}\n{listing}"));
    assert_eq!(p.instrs, q.instrs);
}
