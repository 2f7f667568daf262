//! Assembled programs: instruction sequence, labels and static data.

use std::collections::BTreeMap;
use std::fmt;

use serde::{Deserialize, Serialize};

use crate::error::IsaError;
use crate::instr::{Instr, Target};
use crate::word::{Addr, Word};

/// A block of words to be placed in shared memory before execution starts
/// (the `.data` directive of the assembler).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DataBlock {
    /// First word address of the block.
    pub base: Addr,
    /// Initial contents.
    pub words: Vec<Word>,
}

/// An executable program: resolved instructions plus metadata.
///
/// Programs are produced by [`crate::asm::assemble`] or
/// [`crate::builder::ProgramBuilder`] and are immutable afterwards; all
/// execution engines in the workspace share them by reference (often behind
/// an `Arc`).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Program {
    /// The instruction memory.
    pub instrs: Vec<Instr>,
    /// Label name → instruction index. Kept for disassembly and debugging.
    pub labels: BTreeMap<String, usize>,
    /// Static shared-memory initializers.
    pub data: Vec<DataBlock>,
    /// Entry point (instruction index), normally 0 or the `main` label.
    pub entry: usize,
}

impl Program {
    /// Creates a program from raw parts and resolves every symbolic target.
    pub fn new(
        instrs: Vec<Instr>,
        labels: BTreeMap<String, usize>,
        data: Vec<DataBlock>,
    ) -> Result<Program, IsaError> {
        let mut p = Program {
            instrs,
            labels,
            data,
            entry: 0,
        };
        p.resolve()?;
        if let Some(&main) = p.labels.get("main") {
            p.entry = main;
        }
        p.validate()?;
        Ok(p)
    }

    /// Number of instructions.
    #[inline]
    pub fn len(&self) -> usize {
        self.instrs.len()
    }

    /// Whether the program has no instructions.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.instrs.is_empty()
    }

    /// Fetches the instruction at `pc`, or `None` past the end.
    #[inline]
    pub fn fetch(&self, pc: usize) -> Option<&Instr> {
        self.instrs.get(pc)
    }

    /// Looks up a label.
    pub fn label(&self, name: &str) -> Option<usize> {
        self.labels.get(name).copied()
    }

    /// Rewrites every `Target::Label` to `Target::Abs` using the label map.
    fn resolve(&mut self) -> Result<(), IsaError> {
        let labels = self.labels.clone();
        for (idx, instr) in self.instrs.iter_mut().enumerate() {
            for t in instr.targets_mut() {
                if let Target::Label(name) = t {
                    match labels.get(name.as_str()) {
                        Some(&abs) => *t = Target::Abs(abs),
                        None => {
                            return Err(IsaError::UnknownLabel {
                                label: name.clone(),
                                at: idx,
                            })
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// Checks that all targets are resolved and within the program, and the
    /// entry point is valid.
    fn validate(&self) -> Result<(), IsaError> {
        for (idx, instr) in self.instrs.iter().enumerate() {
            for t in instr.targets() {
                match t.abs() {
                    Some(abs) if abs <= self.instrs.len() => {}
                    Some(abs) => {
                        return Err(IsaError::TargetOutOfRange {
                            at: idx,
                            target: abs,
                            len: self.instrs.len(),
                        })
                    }
                    None => {
                        return Err(IsaError::UnresolvedTarget { at: idx });
                    }
                }
            }
        }
        if self.entry > self.instrs.len() {
            return Err(IsaError::TargetOutOfRange {
                at: 0,
                target: self.entry,
                len: self.instrs.len(),
            });
        }
        Ok(())
    }

    /// Produces an assembler listing with labels interleaved, suitable for
    /// re-assembly (`asm::assemble(&p.listing())` round-trips).
    pub fn listing(&self) -> String {
        let mut by_index: BTreeMap<usize, Vec<&str>> = BTreeMap::new();
        for (name, &idx) in &self.labels {
            by_index.entry(idx).or_default().push(name);
        }
        let mut out = String::new();
        for block in &self.data {
            out.push_str(&format!(".data {}:", block.base));
            for w in &block.words {
                out.push_str(&format!(" {w}"));
            }
            out.push('\n');
        }
        for (idx, instr) in self.instrs.iter().enumerate() {
            if let Some(names) = by_index.get(&idx) {
                for name in names {
                    out.push_str(&format!("{name}:\n"));
                }
            }
            out.push_str("    ");
            out.push_str(&render_instr(instr, &by_index));
            out.push('\n');
        }
        if let Some(names) = by_index.get(&self.instrs.len()) {
            for name in names {
                out.push_str(&format!("{name}:\n"));
            }
        }
        out
    }
}

/// Renders `instr` with each resolved target that has a label shown by that
/// label (the alphabetically first when several share the index), so the
/// listing re-assembles to the same targets.
fn render_instr(instr: &Instr, by_index: &BTreeMap<usize, Vec<&str>>) -> String {
    if instr.targets().is_empty() {
        return instr.to_string();
    }
    let mut symbolic = instr.clone();
    for t in symbolic.targets_mut() {
        if let Some(names) = t.abs().and_then(|idx| by_index.get(&idx)) {
            *t = Target::Label(names[0].to_string());
        }
    }
    symbolic.to_string()
}

impl fmt::Display for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.listing())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instr::{BrCond, Operand};
    use crate::op::AluOp;
    use crate::reg::r;

    fn jmp(l: &str) -> Instr {
        Instr::Jmp {
            target: Target::Label(l.into()),
        }
    }

    #[test]
    fn resolves_labels() {
        let mut labels = BTreeMap::new();
        labels.insert("loop".to_string(), 0);
        let p = Program::new(vec![Instr::Nop, jmp("loop")], labels, vec![]).unwrap();
        assert_eq!(p.instrs[1].targets()[0].abs(), Some(0));
    }

    #[test]
    fn unknown_label_is_error() {
        let e = Program::new(vec![jmp("nowhere")], BTreeMap::new(), vec![]).unwrap_err();
        assert!(matches!(e, IsaError::UnknownLabel { .. }));
    }

    #[test]
    fn entry_defaults_to_main() {
        let mut labels = BTreeMap::new();
        labels.insert("main".to_string(), 1);
        let p = Program::new(vec![Instr::Nop, Instr::Halt], labels, vec![]).unwrap();
        assert_eq!(p.entry, 1);
    }

    #[test]
    fn out_of_range_target_is_error() {
        let p = Program::new(
            vec![Instr::Jmp {
                target: Target::Abs(5),
            }],
            BTreeMap::new(),
            vec![],
        );
        assert!(matches!(p, Err(IsaError::TargetOutOfRange { .. })));
    }

    #[test]
    fn listing_renders_labels() {
        let mut labels = BTreeMap::new();
        labels.insert("top".to_string(), 0);
        let p = Program::new(
            vec![
                Instr::Alu {
                    op: AluOp::Add,
                    rd: r(1),
                    ra: r(1),
                    rb: Operand::Imm(1),
                },
                Instr::Br {
                    cond: BrCond::Nez,
                    rs: r(1),
                    target: Target::Label("top".into()),
                },
            ],
            labels,
            vec![DataBlock {
                base: 100,
                words: vec![1, 2, 3],
            }],
        )
        .unwrap();
        let listing = p.listing();
        assert!(listing.contains("top:"));
        assert!(listing.contains("bnez r1, top"));
        assert!(listing.contains(".data 100: 1 2 3"));
    }

    #[test]
    fn fetch_past_end_is_none() {
        let p = Program::new(vec![Instr::Halt], BTreeMap::new(), vec![]).unwrap();
        assert!(p.fetch(0).is_some());
        assert!(p.fetch(1).is_none());
    }
}
