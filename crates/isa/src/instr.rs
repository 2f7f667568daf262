//! Instruction forms of the TCF machine family.
//!
//! The set decomposes into four groups:
//!
//! 1. **Scalar compute** (`Alu`, `Ldi`, `Mfs`, `Sel`) — executed per implicit
//!    thread of a flow.
//! 2. **Memory** (`Ld`, `St`, `StMasked`, `MultiOp`, `MultiPrefix`) — against
//!    the shared (PRAM) or local (NUMA) memory space.
//! 3. **Control** (`Jmp`, `Br`, `Call`, `Ret`, `Halt`, `Nop`) — flow-wise:
//!    a TCF has one program counter and one call stack regardless of its
//!    thickness, which is the paper's claimed-novel call semantics.
//! 4. **TCF control** (`SetThick`, `Numa`, `Split`, `Join`, `Spawn`,
//!    `SJoin`, `Sync`) — thickness manipulation and flow creation.
//!
//! `Display` impls double as the disassembler; [`crate::asm`] parses the same
//! syntax back, and the two are property-tested as an exact round trip.

use core::fmt;
use serde::{Deserialize, Serialize};

use crate::op::AluOp;
use crate::reg::{Reg, SpecialReg};
use crate::word::Word;

/// A source operand: register or immediate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Operand {
    /// Read a general register.
    Reg(Reg),
    /// A literal word.
    Imm(Word),
}

impl From<Reg> for Operand {
    fn from(r: Reg) -> Operand {
        Operand::Reg(r)
    }
}

impl From<Word> for Operand {
    fn from(w: Word) -> Operand {
        Operand::Imm(w)
    }
}

impl fmt::Display for Operand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Operand::Reg(r) => write!(f, "{r}"),
            Operand::Imm(w) => write!(f, "{w}"),
        }
    }
}

/// A control-transfer target.
///
/// The assembler and `ProgramBuilder` emit `Label`s; `Program::resolve`
/// rewrites every target to `Abs` before execution. Execution engines treat
/// an unresolved `Label` as a fault.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Target {
    /// A symbolic label, pre-resolution.
    Label(String),
    /// An absolute instruction index, post-resolution.
    Abs(usize),
}

impl Target {
    /// The absolute instruction index, if resolved.
    #[inline]
    pub fn abs(&self) -> Option<usize> {
        match self {
            Target::Abs(i) => Some(*i),
            Target::Label(_) => None,
        }
    }
}

impl fmt::Display for Target {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Target::Label(l) => write!(f, "{l}"),
            Target::Abs(i) => write!(f, "@{i}"),
        }
    }
}

/// Memory space selector: the emulated PRAM shared memory or the processor
/// group's NUMA local memory block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MemSpace {
    /// Word-wise shared memory, distributed over the machine's modules.
    Shared,
    /// The local memory block of the executing processor group.
    Local,
}

impl fmt::Display for MemSpace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            MemSpace::Shared => "shared",
            MemSpace::Local => "local",
        })
    }
}

/// Combining operator of multioperations and multiprefixes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum MultiKind {
    /// Sum of contributions (`MPADD` of the paper).
    Add,
    /// Bitwise and.
    And,
    /// Bitwise or.
    Or,
    /// Bitwise xor.
    Xor,
    /// Maximum.
    Max,
    /// Minimum.
    Min,
}

impl MultiKind {
    /// All combining operators.
    pub const ALL: [MultiKind; 6] = [
        MultiKind::Add,
        MultiKind::And,
        MultiKind::Or,
        MultiKind::Xor,
        MultiKind::Max,
        MultiKind::Min,
    ];

    /// Combines two contributions. All operators are associative and
    /// commutative, which the memory unit relies on to combine concurrent
    /// references in arbitrary arrival order.
    #[inline]
    pub fn combine(self, a: Word, b: Word) -> Word {
        match self {
            MultiKind::Add => a.wrapping_add(b),
            MultiKind::And => a & b,
            MultiKind::Or => a | b,
            MultiKind::Xor => a ^ b,
            MultiKind::Max => a.max(b),
            MultiKind::Min => a.min(b),
        }
    }

    /// Identity element of the operator.
    #[inline]
    pub fn identity(self) -> Word {
        match self {
            MultiKind::Add | MultiKind::Or | MultiKind::Xor => 0,
            MultiKind::And => -1,
            MultiKind::Max => Word::MIN,
            MultiKind::Min => Word::MAX,
        }
    }

    /// Mnemonic suffix (`madd`, `mpadd`, …).
    pub fn suffix(self) -> &'static str {
        match self {
            MultiKind::Add => "add",
            MultiKind::And => "and",
            MultiKind::Or => "or",
            MultiKind::Xor => "xor",
            MultiKind::Max => "max",
            MultiKind::Min => "min",
        }
    }

    /// Parses a mnemonic suffix.
    pub fn from_suffix(s: &str) -> Option<MultiKind> {
        MultiKind::ALL.into_iter().find(|k| k.suffix() == s)
    }
}

/// Branch condition of `Br`, testing one register against zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BrCond {
    /// Taken when `rs == 0`.
    Eqz,
    /// Taken when `rs != 0`.
    Nez,
    /// Taken when `rs < 0`.
    Ltz,
    /// Taken when `rs <= 0`.
    Lez,
    /// Taken when `rs > 0`.
    Gtz,
    /// Taken when `rs >= 0`.
    Gez,
}

impl BrCond {
    /// All branch conditions.
    pub const ALL: [BrCond; 6] = [
        BrCond::Eqz,
        BrCond::Nez,
        BrCond::Ltz,
        BrCond::Lez,
        BrCond::Gtz,
        BrCond::Gez,
    ];

    /// Evaluates the condition.
    #[inline]
    pub fn holds(self, v: Word) -> bool {
        match self {
            BrCond::Eqz => v == 0,
            BrCond::Nez => v != 0,
            BrCond::Ltz => v < 0,
            BrCond::Lez => v <= 0,
            BrCond::Gtz => v > 0,
            BrCond::Gez => v >= 0,
        }
    }

    /// Assembler mnemonic (`beqz`, `bnez`, …).
    pub fn mnemonic(self) -> &'static str {
        match self {
            BrCond::Eqz => "beqz",
            BrCond::Nez => "bnez",
            BrCond::Ltz => "bltz",
            BrCond::Lez => "blez",
            BrCond::Gtz => "bgtz",
            BrCond::Gez => "bgez",
        }
    }

    /// Parses an assembler mnemonic.
    pub fn from_mnemonic(s: &str) -> Option<BrCond> {
        BrCond::ALL.into_iter().find(|c| c.mnemonic() == s)
    }
}

/// One arm of a `split` instruction: a child flow of the given thickness
/// starting at the given target. The child executes until the matching
/// `join`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct SplitArm {
    /// Thickness of the child flow (evaluated flow-wise, must be uniform).
    pub thickness: Operand,
    /// Entry point of the child flow.
    pub target: Target,
}

impl fmt::Display for SplitArm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({} -> {})", self.thickness, self.target)
    }
}

/// One machine instruction.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Instr {
    /// Three-address ALU operation, applied per implicit thread.
    Alu {
        /// Operation.
        op: AluOp,
        /// Destination register.
        rd: Reg,
        /// First source register.
        ra: Reg,
        /// Second source operand (ignored by unary ops).
        rb: Operand,
    },
    /// Load immediate: `rd = imm`.
    Ldi {
        /// Destination register.
        rd: Reg,
        /// Immediate value.
        imm: Word,
    },
    /// Move from special register: `rd = <special>`.
    Mfs {
        /// Destination register.
        rd: Reg,
        /// Which special register to read.
        sr: SpecialReg,
    },
    /// Per-thread conditional select: `rd = cond != 0 ? rt : rf`.
    ///
    /// This is what the Fixed-thickness (SIMD) variant compiles `if` bodies
    /// to, since it lacks control parallelism (paper §4).
    Sel {
        /// Destination register.
        rd: Reg,
        /// Per-thread condition register.
        cond: Reg,
        /// Value when the condition is non-zero.
        rt: Reg,
        /// Value when the condition is zero.
        rf: Operand,
    },
    /// Load `rd = mem[base + off]`.
    Ld {
        /// Destination register.
        rd: Reg,
        /// Base address register.
        base: Reg,
        /// Word offset.
        off: Word,
        /// Memory space.
        space: MemSpace,
    },
    /// Store `mem[base + off] = rs`.
    St {
        /// Source register.
        rs: Reg,
        /// Base address register.
        base: Reg,
        /// Word offset.
        off: Word,
        /// Memory space.
        space: MemSpace,
    },
    /// Per-thread masked store: threads with `cond != 0` store, others are
    /// inert. Used by the Fixed-thickness variant for guarded writes.
    StMasked {
        /// Per-thread condition register.
        cond: Reg,
        /// Source register.
        rs: Reg,
        /// Base address register.
        base: Reg,
        /// Word offset.
        off: Word,
        /// Memory space.
        space: MemSpace,
    },
    /// Multioperation: all participating threads' `rs` contributions to
    /// `mem[base + off]` are combined by the active memory unit in one step.
    MultiOp {
        /// Combining operator.
        kind: MultiKind,
        /// Base address register.
        base: Reg,
        /// Word offset.
        off: Word,
        /// Per-thread contribution.
        rs: Reg,
    },
    /// Multiprefix: like `MultiOp`, but each thread additionally receives in
    /// `rd` the exclusive prefix (in thread-rank order) of the combination.
    MultiPrefix {
        /// Combining operator.
        kind: MultiKind,
        /// Destination register for the per-thread prefix.
        rd: Reg,
        /// Base address register.
        base: Reg,
        /// Word offset.
        off: Word,
        /// Per-thread contribution.
        rs: Reg,
    },
    /// Unconditional flow-wise jump.
    Jmp {
        /// Destination.
        target: Target,
    },
    /// Conditional flow-wise branch. The condition must be uniform across
    /// the flow (the paper requires the whole flow to select exactly one
    /// path); divergence is an execution fault.
    Br {
        /// Condition against zero.
        cond: BrCond,
        /// Register tested.
        rs: Reg,
        /// Destination when taken.
        target: Target,
    },
    /// Flow-wise call: the *flow* calls once with all its threads; the call
    /// stack belongs to the flow, not to any thread.
    Call {
        /// Callee entry.
        target: Target,
    },
    /// Flow-wise return.
    Ret,
    /// Set the thickness of the current flow (`#n;` of the tce language).
    SetThick {
        /// New thickness (uniform).
        src: Operand,
    },
    /// Enter NUMA mode with bunch length `T` (`#1/T;` of tce): the flow's
    /// thickness becomes the fraction `1/T`, i.e. one step executes `T`
    /// consecutive instructions of a single sequential stream.
    Numa {
        /// Bunch length `T`.
        slots: Operand,
    },
    /// Leave NUMA mode and restore PRAM-mode execution with thickness 1.
    EndNuma,
    /// Split the current flow into parallel child flows, one per arm; the
    /// parent is suspended until all children reach their `Join` (the
    /// implicit join of the paper's `parallel` statement).
    Split {
        /// Child flows.
        arms: Vec<SplitArm>,
    },
    /// Terminate a child flow created by `Split` and rendezvous with its
    /// siblings.
    Join,
    /// Asynchronous spawn of `count` unit-thickness threads starting at
    /// `target` (the `fork` construct of the Multi-instruction / XMT
    /// variant). The spawning flow continues at `SJoin`, which blocks until
    /// all spawned threads have executed `SJoin` themselves.
    Spawn {
        /// Number of threads to create.
        count: Operand,
        /// Entry point of each spawned thread (thread index in `tid`).
        target: Target,
    },
    /// Join point of `Spawn`.
    SJoin,
    /// Machine-wide step barrier. A no-op in the synchronous variants where
    /// every step is already a barrier; a real rendezvous in the
    /// Multi-instruction variant.
    Sync,
    /// Stop the flow (and the machine once every flow has halted).
    Halt,
    /// No operation.
    Nop,
}

impl Instr {
    /// Whether this instruction can transfer control (used by the pipeline
    /// hazard model and by compiler basic-block splitting).
    pub fn is_control(&self) -> bool {
        matches!(
            self,
            Instr::Jmp { .. }
                | Instr::Br { .. }
                | Instr::Call { .. }
                | Instr::Ret
                | Instr::Split { .. }
                | Instr::Join
                | Instr::Spawn { .. }
                | Instr::SJoin
                | Instr::Halt
        )
    }

    /// Whether this is one of the nine data instructions, the ones with a
    /// per-thread meaning; the rest are control transfer and flow
    /// management.
    #[inline]
    pub fn is_data(&self) -> bool {
        matches!(
            self,
            Instr::Alu { .. }
                | Instr::Ldi { .. }
                | Instr::Mfs { .. }
                | Instr::Sel { .. }
                | Instr::Ld { .. }
                | Instr::St { .. }
                | Instr::StMasked { .. }
                | Instr::MultiOp { .. }
                | Instr::MultiPrefix { .. }
        )
    }

    /// Whether this instruction accesses memory (any space).
    pub fn is_memory(&self) -> bool {
        matches!(
            self,
            Instr::Ld { .. }
                | Instr::St { .. }
                | Instr::StMasked { .. }
                | Instr::MultiOp { .. }
                | Instr::MultiPrefix { .. }
        )
    }

    /// Collects the control-transfer targets of this instruction, mutably,
    /// so `Program::resolve` can rewrite labels in place.
    pub(crate) fn targets_mut(&mut self) -> Vec<&mut Target> {
        match self {
            Instr::Jmp { target }
            | Instr::Br { target, .. }
            | Instr::Call { target }
            | Instr::Spawn { target, .. } => vec![target],
            Instr::Split { arms } => arms.iter_mut().map(|a| &mut a.target).collect(),
            _ => Vec::new(),
        }
    }

    /// Collects the control-transfer targets of this instruction.
    pub fn targets(&self) -> Vec<&Target> {
        match self {
            Instr::Jmp { target }
            | Instr::Br { target, .. }
            | Instr::Call { target }
            | Instr::Spawn { target, .. } => vec![target],
            Instr::Split { arms } => arms.iter().map(|a| &a.target).collect(),
            _ => Vec::new(),
        }
    }
}

fn space_suffix(space: MemSpace) -> &'static str {
    match space {
        MemSpace::Shared => "",
        MemSpace::Local => "l",
    }
}

impl fmt::Display for Instr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Instr::Alu { op, rd, ra, rb } => {
                if op.is_unary() {
                    write!(f, "{op} {rd}, {ra}")
                } else {
                    write!(f, "{op} {rd}, {ra}, {rb}")
                }
            }
            Instr::Ldi { rd, imm } => write!(f, "ldi {rd}, {imm}"),
            Instr::Mfs { rd, sr } => write!(f, "mfs {rd}, {sr}"),
            Instr::Sel { rd, cond, rt, rf } => write!(f, "sel {rd}, {cond}, {rt}, {rf}"),
            Instr::Ld {
                rd,
                base,
                off,
                space,
            } => write!(f, "ld{} {rd}, [{base}+{off}]", space_suffix(*space)),
            Instr::St {
                rs,
                base,
                off,
                space,
            } => write!(f, "st{} {rs}, [{base}+{off}]", space_suffix(*space)),
            Instr::StMasked {
                cond,
                rs,
                base,
                off,
                space,
            } => write!(
                f,
                "stm{} {cond}, {rs}, [{base}+{off}]",
                space_suffix(*space)
            ),
            Instr::MultiOp {
                kind,
                base,
                off,
                rs,
            } => {
                write!(f, "m{} [{base}+{off}], {rs}", kind.suffix())
            }
            Instr::MultiPrefix {
                kind,
                rd,
                base,
                off,
                rs,
            } => write!(f, "mp{} {rd}, [{base}+{off}], {rs}", kind.suffix()),
            Instr::Jmp { target } => write!(f, "jmp {target}"),
            Instr::Br { cond, rs, target } => write!(f, "{} {rs}, {target}", cond.mnemonic()),
            Instr::Call { target } => write!(f, "call {target}"),
            Instr::Ret => f.write_str("ret"),
            Instr::SetThick { src } => write!(f, "setthick {src}"),
            Instr::Numa { slots } => write!(f, "numa {slots}"),
            Instr::EndNuma => f.write_str("endnuma"),
            Instr::Split { arms } => {
                f.write_str("split ")?;
                for (i, arm) in arms.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{arm}")?;
                }
                Ok(())
            }
            Instr::Join => f.write_str("join"),
            Instr::Spawn { count, target } => write!(f, "spawn {count}, {target}"),
            Instr::SJoin => f.write_str("sjoin"),
            Instr::Sync => f.write_str("sync"),
            Instr::Halt => f.write_str("halt"),
            Instr::Nop => f.write_str("nop"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reg::r;

    #[test]
    fn multikind_combine_identity() {
        for k in MultiKind::ALL {
            for v in [-17, 0, 3, Word::MAX, Word::MIN] {
                assert_eq!(k.combine(k.identity(), v), v, "{k:?} identity");
            }
        }
    }

    #[test]
    fn multikind_combine_associative_commutative() {
        let vals = [-3, 0, 1, 7, 100];
        for k in MultiKind::ALL {
            for &a in &vals {
                for &b in &vals {
                    assert_eq!(k.combine(a, b), k.combine(b, a));
                    for &c in &vals {
                        assert_eq!(k.combine(k.combine(a, b), c), k.combine(a, k.combine(b, c)));
                    }
                }
            }
        }
    }

    #[test]
    fn brcond_holds() {
        assert!(BrCond::Eqz.holds(0));
        assert!(!BrCond::Eqz.holds(1));
        assert!(BrCond::Nez.holds(-1));
        assert!(BrCond::Ltz.holds(-1));
        assert!(!BrCond::Ltz.holds(0));
        assert!(BrCond::Lez.holds(0));
        assert!(BrCond::Gtz.holds(2));
        assert!(BrCond::Gez.holds(0));
    }

    #[test]
    fn classification() {
        assert!(Instr::Jmp {
            target: Target::Abs(0)
        }
        .is_control());
        assert!(Instr::Halt.is_control());
        assert!(!Instr::Nop.is_control());
        assert!(Instr::Ld {
            rd: r(1),
            base: r(2),
            off: 0,
            space: MemSpace::Shared
        }
        .is_memory());
        assert!(!Instr::Ret.is_memory());
        assert!(Instr::Ldi { rd: r(1), imm: 3 }.is_data());
        assert!(!Instr::Join.is_data());
    }

    #[test]
    fn display_formats() {
        let i = Instr::Alu {
            op: AluOp::Add,
            rd: r(1),
            ra: r(2),
            rb: Operand::Imm(5),
        };
        assert_eq!(i.to_string(), "add r1, r2, 5");
        let i = Instr::Alu {
            op: AluOp::Neg,
            rd: r(1),
            ra: r(2),
            rb: Operand::Reg(r(0)),
        };
        assert_eq!(i.to_string(), "neg r1, r2");
        let i = Instr::Ld {
            rd: r(3),
            base: r(4),
            off: 8,
            space: MemSpace::Local,
        };
        assert_eq!(i.to_string(), "ldl r3, [r4+8]");
        let i = Instr::Split {
            arms: vec![
                SplitArm {
                    thickness: Operand::Imm(12),
                    target: Target::Label("a".into()),
                },
                SplitArm {
                    thickness: Operand::Reg(r(2)),
                    target: Target::Label("b".into()),
                },
            ],
        };
        assert_eq!(i.to_string(), "split (12 -> a), (r2 -> b)");
    }

    #[test]
    fn targets_collects_all() {
        let mut i = Instr::Split {
            arms: vec![
                SplitArm {
                    thickness: Operand::Imm(1),
                    target: Target::Label("x".into()),
                },
                SplitArm {
                    thickness: Operand::Imm(2),
                    target: Target::Label("y".into()),
                },
            ],
        };
        assert_eq!(i.targets().len(), 2);
        for t in i.targets_mut() {
            *t = Target::Abs(9);
        }
        assert!(i.targets().iter().all(|t| t.abs() == Some(9)));
    }
}
