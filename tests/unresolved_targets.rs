//! `Program::new` resolves every label, but a program built from its
//! public fields can keep a `Target::Label`. Every engine that reaches
//! such a target must fault with "unresolved target", never panic.

use std::collections::BTreeMap;

use tcf::core::{TcfFault, TcfMachine, Variant};
use tcf::isa::instr::{BrCond, Instr, Operand, SplitArm, Target};
use tcf::isa::program::Program;
use tcf::isa::reg::r;
use tcf::machine::MachineConfig;
use tcf::pram::{Fault, PramMachine};

fn nowhere() -> Target {
    Target::Label("nowhere".into())
}

/// `instr; halt`, bypassing `Program::new` so the label stays.
fn unresolved(instr: Instr) -> Program {
    Program {
        instrs: vec![instr, Instr::Halt],
        labels: BTreeMap::new(),
        data: vec![],
        entry: 0,
    }
}

fn assert_faults(variant: Variant, instr: Instr) {
    let what = format!("`{instr}` on {}", variant.name());
    let mut m = TcfMachine::new(MachineConfig::small(), variant, unresolved(instr));
    let err = m.run(10).expect_err(&what);
    let want = TcfFault::Internal {
        what: "unresolved target".into(),
    };
    assert_eq!(err.fault, want, "{what}");
}

#[test]
fn unresolved_targets_fault_on_every_variant() {
    let control = [
        Instr::Jmp { target: nowhere() },
        // r0 reads zero, so the branch is taken.
        Instr::Br {
            cond: BrCond::Eqz,
            rs: r(0),
            target: nowhere(),
        },
        Instr::Call { target: nowhere() },
    ];
    for variant in Variant::all(MachineConfig::small().threads_per_group) {
        for instr in &control {
            assert_faults(variant, instr.clone());
        }
        if variant.supports_spawn() {
            let count = Operand::Imm(4);
            assert_faults(
                variant,
                Instr::Spawn {
                    count,
                    target: nowhere(),
                },
            );
        }
        if variant.supports_split() {
            let arm = |target| SplitArm {
                thickness: Operand::Imm(2),
                target,
            };
            let arms = vec![arm(Target::Abs(1)), arm(nowhere())];
            assert_faults(variant, Instr::Split { arms });
        }
    }
}

#[test]
fn unresolved_jump_faults_on_the_baseline_machine() {
    let program = unresolved(Instr::Jmp { target: nowhere() });
    let mut m = PramMachine::new(MachineConfig::small(), program);
    let err = m.run(10).unwrap_err();
    let want = Fault::Malformed {
        what: "unresolved target".into(),
    };
    assert_eq!(err.fault, want);
}
