#![warn(missing_docs)]
#![forbid(unsafe_code)]
//! # tcf-lang — the *tce* language for Thick Control Flow programming
//!
//! A small c-like language realizing the programming style of the paper's
//! §4, compiled to the `tcf-isa` instruction set and executed on any
//! `tcf-core` variant (or the `tcf-pram` baseline, for thread-model
//! programs):
//!
//! ```text
//! shared int a[256] @ 1000;
//! shared int b[256] @ 2000;
//! shared int c[256] @ 3000;
//!
//! void main() {
//!     #256;                    // thickness statement: set thickness
//!     c[.] = a[.] + b[.];      // thick expression, `.` is the tid
//! }
//! ```
//!
//! Supported constructs (each mapping to a §4 example):
//!
//! * `#e;` — set the flow's thickness (`setthick`),
//! * `#1/e;` — enter NUMA mode with bunch length `e`,
//! * `#e: stmt;` — thickness-scoped statement (save, set, restore),
//! * `numa (e) stmt` — NUMA-scoped statement (`numa` … `endnuma`),
//! * `parallel { #e1: s1; #e2: s2; … }` — the parallel statement: one
//!   child flow per arm (`split`/`join`),
//! * `fork (i = e0; i < e1) stmt` — the Multi-instruction variant's
//!   asynchronous spawn construct,
//! * `prefix(target, MPADD, e)` — multiprefix expression returning each
//!   thread's prefix; `multi(target, MPADD, e);` — combining-only form,
//! * flow-wise `if`/`while`/`for`, `void` functions with flow-wise call
//!   semantics, `shared` scalars/arrays (optionally placed with `@`),
//!   register-allocated `int` locals that are transparently thick,
//! * builtins `tid` (also spelled `.`), `thickness`, `fid`, `pid`,
//!   `nprocs`, `nthreads`, `gid`.
//!
//! Entry points: [`compile`] (source → [`tcf_isa::Program`]) and the
//! [`CompileOptions`] knob for masked conditionals (Fixed-thickness
//! variant codegen).

pub mod ast;
pub mod codegen;
pub mod error;
pub mod lexer;
pub mod parser;

pub use codegen::{compile, compile_with, CompileOptions};
pub use error::LangError;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn end_to_end_smoke() {
        let p = compile(
            "shared int x;
             void main() { x = 1 + 2 * 3; }",
        )
        .unwrap();
        assert!(p.len() > 2);
    }
}
