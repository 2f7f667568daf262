//! Pre-decoded programs: the zero-allocation instruction fetch path.
//!
//! [`Program`] stores [`Instr`], whose control-transfer targets are
//! heap-carrying [`Target`] values (and whose `Split` arms live in a
//! `Vec`), so the execution engines used to `clone()` every fetched
//! instruction to release the borrow on the program. That clone sat on
//! the hottest path of the simulator — once per flow per step, plus once
//! per NUMA slot.
//!
//! [`DecodedProgram`] flattens the program once at machine construction:
//! every instruction becomes a `Copy` [`DecodedInst`] with targets as
//! plain instruction indices, and `split` arms move into one shared side
//! table referenced by range. Fetching is an indexed copy of a few words
//! — no allocation, no borrow on the machine.
//!
//! Targets are pre-resolved by [`Program::new`]; a `Target::Label` that
//! somehow survives (e.g. a hand-deserialized program) decodes to the
//! [`DecodedProgram::UNRESOLVED`] sentinel, which the engines turn into
//! the same "unresolved target" fault they raised before.
//!
//! [`Target`]: tcf_isa::instr::Target

use tcf_isa::instr::{BrCond, Instr, MemSpace, MultiKind, Operand, Target};
use tcf_isa::op::AluOp;
use tcf_isa::program::Program;
use tcf_isa::reg::{Reg, SpecialReg};
use tcf_isa::word::Word;

/// One decoded `split` arm: uniform thickness operand plus entry index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct DecodedArm {
    pub thickness: Operand,
    pub target: usize,
}

/// A range of arms in the [`DecodedProgram`] side table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ArmsRef {
    start: u32,
    len: u32,
}

impl ArmsRef {
    /// Indices of this instruction's arms in the side table.
    #[inline]
    pub fn indices(self) -> std::ops::Range<usize> {
        self.start as usize..(self.start as usize + self.len as usize)
    }
}

/// A flat, `Copy` mirror of [`Instr`]: targets are instruction indices
/// ([`DecodedProgram::UNRESOLVED`] when a label survived resolution) and
/// `split` arms are a side-table range.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum DecodedInst {
    Alu {
        op: AluOp,
        rd: Reg,
        ra: Reg,
        rb: Operand,
    },
    Ldi {
        rd: Reg,
        imm: Word,
    },
    Mfs {
        rd: Reg,
        sr: SpecialReg,
    },
    Sel {
        rd: Reg,
        cond: Reg,
        rt: Reg,
        rf: Operand,
    },
    Ld {
        rd: Reg,
        base: Reg,
        off: Word,
        space: MemSpace,
    },
    St {
        rs: Reg,
        base: Reg,
        off: Word,
        space: MemSpace,
    },
    StMasked {
        cond: Reg,
        rs: Reg,
        base: Reg,
        off: Word,
        space: MemSpace,
    },
    MultiOp {
        kind: MultiKind,
        base: Reg,
        off: Word,
        rs: Reg,
    },
    MultiPrefix {
        kind: MultiKind,
        rd: Reg,
        base: Reg,
        off: Word,
        rs: Reg,
    },
    Jmp {
        target: usize,
    },
    Br {
        cond: BrCond,
        rs: Reg,
        target: usize,
    },
    Call {
        target: usize,
    },
    Ret,
    SetThick {
        src: Operand,
    },
    Numa {
        slots: Operand,
    },
    EndNuma,
    Split {
        arms: ArmsRef,
    },
    Join,
    Spawn {
        count: Operand,
        target: usize,
    },
    SJoin,
    Sync,
    Halt,
    Nop,
}

impl DecodedInst {
    /// Whether this is one of the nine data instructions — the ones with a
    /// per-lane meaning ([`crate::semantics::lane`]); the rest are control
    /// transfer and the variants' flow management.
    #[inline]
    pub fn is_data(self) -> bool {
        matches!(
            self,
            DecodedInst::Alu { .. }
                | DecodedInst::Ldi { .. }
                | DecodedInst::Mfs { .. }
                | DecodedInst::Sel { .. }
                | DecodedInst::Ld { .. }
                | DecodedInst::St { .. }
                | DecodedInst::StMasked { .. }
                | DecodedInst::MultiOp { .. }
                | DecodedInst::MultiPrefix { .. }
        )
    }

    /// Mnemonic family name, for diagnostics on paths that no longer hold
    /// the original [`Instr`] (the source instruction is still available
    /// cold via `Program::fetch` where the pc is known).
    pub fn name(self) -> &'static str {
        match self {
            DecodedInst::Alu { .. } => "alu",
            DecodedInst::Ldi { .. } => "ldi",
            DecodedInst::Mfs { .. } => "mfs",
            DecodedInst::Sel { .. } => "sel",
            DecodedInst::Ld { .. } => "ld",
            DecodedInst::St { .. } => "st",
            DecodedInst::StMasked { .. } => "stm",
            DecodedInst::MultiOp { .. } => "multiop",
            DecodedInst::MultiPrefix { .. } => "multiprefix",
            DecodedInst::Jmp { .. } => "jmp",
            DecodedInst::Br { .. } => "br",
            DecodedInst::Call { .. } => "call",
            DecodedInst::Ret => "ret",
            DecodedInst::SetThick { .. } => "setthick",
            DecodedInst::Numa { .. } => "numa",
            DecodedInst::EndNuma => "endnuma",
            DecodedInst::Split { .. } => "split",
            DecodedInst::Join => "join",
            DecodedInst::Spawn { .. } => "spawn",
            DecodedInst::SJoin => "sjoin",
            DecodedInst::Sync => "sync",
            DecodedInst::Halt => "halt",
            DecodedInst::Nop => "nop",
        }
    }
}

/// The decoded form of one [`Program`]: a flat instruction vector plus
/// the shared `split`-arm side table. Built once per machine; immutable
/// afterwards (shared behind an `Arc` alongside the source program).
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct DecodedProgram {
    insts: Vec<DecodedInst>,
    arms: Vec<DecodedArm>,
}

impl DecodedProgram {
    /// Sentinel target index for an unresolved label. Far above any valid
    /// program length, so it also faults naturally as a pc if ever jumped
    /// to without the explicit check.
    pub const UNRESOLVED: usize = usize::MAX;

    /// Decodes every instruction of `p`.
    pub fn decode(p: &Program) -> DecodedProgram {
        let mut arms = Vec::new();
        let insts = p.instrs.iter().map(|i| decode_one(i, &mut arms)).collect();
        DecodedProgram { insts, arms }
    }

    /// Fetches the decoded instruction at `pc`, or `None` past the end.
    #[inline]
    pub fn fetch(&self, pc: usize) -> Option<DecodedInst> {
        self.insts.get(pc).copied()
    }

    /// One arm of the side table (see [`DecodedInst::Split`]).
    #[inline]
    pub fn arm(&self, idx: usize) -> DecodedArm {
        self.arms[idx]
    }
}

fn decode_target(t: &Target) -> usize {
    t.abs().unwrap_or(DecodedProgram::UNRESOLVED)
}

fn decode_one(i: &Instr, arms: &mut Vec<DecodedArm>) -> DecodedInst {
    match *i {
        Instr::Alu { op, rd, ra, rb } => DecodedInst::Alu { op, rd, ra, rb },
        Instr::Ldi { rd, imm } => DecodedInst::Ldi { rd, imm },
        Instr::Mfs { rd, sr } => DecodedInst::Mfs { rd, sr },
        Instr::Sel { rd, cond, rt, rf } => DecodedInst::Sel { rd, cond, rt, rf },
        Instr::Ld {
            rd,
            base,
            off,
            space,
        } => DecodedInst::Ld {
            rd,
            base,
            off,
            space,
        },
        Instr::St {
            rs,
            base,
            off,
            space,
        } => DecodedInst::St {
            rs,
            base,
            off,
            space,
        },
        Instr::StMasked {
            cond,
            rs,
            base,
            off,
            space,
        } => DecodedInst::StMasked {
            cond,
            rs,
            base,
            off,
            space,
        },
        Instr::MultiOp {
            kind,
            base,
            off,
            rs,
        } => DecodedInst::MultiOp {
            kind,
            base,
            off,
            rs,
        },
        Instr::MultiPrefix {
            kind,
            rd,
            base,
            off,
            rs,
        } => DecodedInst::MultiPrefix {
            kind,
            rd,
            base,
            off,
            rs,
        },
        Instr::Jmp { ref target } => DecodedInst::Jmp {
            target: decode_target(target),
        },
        Instr::Br {
            cond,
            rs,
            ref target,
        } => DecodedInst::Br {
            cond,
            rs,
            target: decode_target(target),
        },
        Instr::Call { ref target } => DecodedInst::Call {
            target: decode_target(target),
        },
        Instr::Ret => DecodedInst::Ret,
        Instr::SetThick { src } => DecodedInst::SetThick { src },
        Instr::Numa { slots } => DecodedInst::Numa { slots },
        Instr::EndNuma => DecodedInst::EndNuma,
        Instr::Split { arms: ref src_arms } => {
            let start = arms.len() as u32;
            arms.extend(src_arms.iter().map(|a| DecodedArm {
                thickness: a.thickness,
                target: decode_target(&a.target),
            }));
            DecodedInst::Split {
                arms: ArmsRef {
                    start,
                    len: src_arms.len() as u32,
                },
            }
        }
        Instr::Join => DecodedInst::Join,
        Instr::Spawn { count, ref target } => DecodedInst::Spawn {
            count,
            target: decode_target(target),
        },
        Instr::SJoin => DecodedInst::SJoin,
        Instr::Sync => DecodedInst::Sync,
        Instr::Halt => DecodedInst::Halt,
        Instr::Nop => DecodedInst::Nop,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;
    use tcf_isa::instr::SplitArm;
    use tcf_isa::reg::r;

    #[test]
    fn decode_resolves_targets_to_indices() {
        let mut labels = BTreeMap::new();
        labels.insert("loop".to_string(), 0);
        let p = Program::new(
            vec![
                Instr::Nop,
                Instr::Jmp {
                    target: Target::Label("loop".into()),
                },
                Instr::Halt,
            ],
            labels,
            vec![],
        )
        .unwrap();
        let d = DecodedProgram::decode(&p);
        assert_eq!(d.fetch(0), Some(DecodedInst::Nop));
        assert_eq!(d.fetch(1), Some(DecodedInst::Jmp { target: 0 }));
        assert_eq!(d.fetch(2), Some(DecodedInst::Halt));
        assert_eq!(d.fetch(3), None);
    }

    #[test]
    fn decode_moves_split_arms_to_side_table() {
        let mut labels = BTreeMap::new();
        labels.insert("a".to_string(), 1);
        labels.insert("b".to_string(), 2);
        let p = Program::new(
            vec![
                Instr::Split {
                    arms: vec![
                        SplitArm {
                            thickness: Operand::Imm(4),
                            target: Target::Label("a".into()),
                        },
                        SplitArm {
                            thickness: Operand::Reg(r(2)),
                            target: Target::Label("b".into()),
                        },
                    ],
                },
                Instr::Join,
                Instr::Join,
            ],
            labels,
            vec![],
        )
        .unwrap();
        let d = DecodedProgram::decode(&p);
        let arms = match d.fetch(0) {
            Some(DecodedInst::Split { arms }) => arms,
            other => panic!("expected split, got {other:?}"),
        };
        let decoded: Vec<DecodedArm> = arms.indices().map(|i| d.arm(i)).collect();
        assert_eq!(
            decoded,
            vec![
                DecodedArm {
                    thickness: Operand::Imm(4),
                    target: 1
                },
                DecodedArm {
                    thickness: Operand::Reg(r(2)),
                    target: 2
                },
            ]
        );
    }

    #[test]
    fn unresolved_label_decodes_to_sentinel() {
        // Deserialization can hand the engines a program that skipped
        // `Program::new` resolution; the decoder must not panic on it.
        let p = Program {
            instrs: vec![Instr::Jmp {
                target: Target::Label("nowhere".into()),
            }],
            labels: BTreeMap::new(),
            data: vec![],
            entry: 0,
        };
        let d = DecodedProgram::decode(&p);
        assert_eq!(
            d.fetch(0),
            Some(DecodedInst::Jmp {
                target: DecodedProgram::UNRESOLVED
            })
        );
    }

    #[test]
    fn every_variant_round_trips_shape() {
        // One instruction of every kind decodes without loss of the
        // operand fields the engines read.
        let p = Program::new(
            vec![
                Instr::Alu {
                    op: AluOp::Add,
                    rd: r(1),
                    ra: r(2),
                    rb: Operand::Imm(5),
                },
                Instr::StMasked {
                    cond: r(3),
                    rs: r(4),
                    base: r(5),
                    off: 7,
                    space: MemSpace::Local,
                },
                Instr::MultiPrefix {
                    kind: MultiKind::Max,
                    rd: r(1),
                    base: r(2),
                    off: 0,
                    rs: r(3),
                },
                Instr::Halt,
            ],
            BTreeMap::new(),
            vec![],
        )
        .unwrap();
        let d = DecodedProgram::decode(&p);
        assert_eq!(
            d.fetch(0),
            Some(DecodedInst::Alu {
                op: AluOp::Add,
                rd: r(1),
                ra: r(2),
                rb: Operand::Imm(5),
            })
        );
        assert_eq!(
            d.fetch(1),
            Some(DecodedInst::StMasked {
                cond: r(3),
                rs: r(4),
                base: r(5),
                off: 7,
                space: MemSpace::Local,
            })
        );
        assert_eq!(
            d.fetch(2),
            Some(DecodedInst::MultiPrefix {
                kind: MultiKind::Max,
                rd: r(1),
                base: r(2),
                off: 0,
                rs: r(3),
            })
        );
        assert_eq!(d.fetch(2).unwrap().name(), "multiprefix");
    }
}
