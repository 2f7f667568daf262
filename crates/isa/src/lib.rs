#![warn(missing_docs)]
#![forbid(unsafe_code)]
//! # tcf-isa — instruction set of the extended PRAM-NUMA / TCF machine family
//!
//! This crate defines the word-oriented RISC-style instruction set shared by
//! every execution model in the workspace: the original PRAM-NUMA baseline
//! (`tcf-pram`), the six variants of the extended PRAM-NUMA model
//! (`tcf-core`) and the cycle-level CESM pipeline (`tcf-machine`).
//!
//! The ISA follows the architecture sketched in Forsell & Leppänen,
//! *"An Extended PRAM-NUMA Model of Computation for TCF Programming"*:
//!
//! * plain three-address ALU operations over 64-bit words,
//! * loads/stores against the **shared** (emulated PRAM) and **local**
//!   (NUMA) memory spaces,
//! * **multioperations** (`madd`, `mmax`, …) — concurrent writes to a single
//!   shared-memory word combined by an active memory unit,
//! * **multiprefixes** (`mpadd`, …) — the ordered variant returning the
//!   prefix value to each participating thread,
//! * **TCF control**: setting the thickness of the current flow
//!   (`setthick`), entering NUMA mode (`numa`, thickness `1/T`), splitting a
//!   flow into parallel child flows (`split`/`join`), and the asynchronous
//!   `spawn`/`sjoin` pair used by the Multi-instruction (XMT-like) variant.
//!
//! The crate also provides a text assembler ([`asm::assemble`]), a
//! disassembler (the [`core::fmt::Display`] impls), a programmatic
//! [`builder::ProgramBuilder`] used by the `tcf-lang` compiler, and a
//! variable-length binary encoding ([`encode`]).
//!
//! Instruction *semantics* that are identical across all execution models —
//! pure ALU evaluation — live here too ([`op::AluOp::eval`]), so that the
//! baseline and the extended model cannot drift apart. So does the shape a
//! thick instruction's operands take — runs of lanes in arithmetic
//! progression ([`progression`]) — because every layer above holds some.

pub mod asm;
pub mod builder;
pub mod encode;
pub mod error;
pub mod instr;
pub mod op;
pub mod program;
pub mod progression;
pub mod reg;
pub mod word;

pub use builder::ProgramBuilder;
pub use error::IsaError;
pub use instr::{BrCond, Instr, MemSpace, MultiKind, Operand, SplitArm, Target};
pub use op::AluOp;
pub use program::{DataBlock, Program};
pub use reg::{Reg, SpecialReg, NUM_REGS};
pub use word::{Addr, Word};
