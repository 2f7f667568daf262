//! The six workloads: each is a list of [`Job`]s — a program as source
//! text, the machine it runs on, its seeded input data and the answer a
//! host-Rust oracle computed for it. The simulator receives nothing else.
//!
//! Why each workload exists is recorded in `BENCHMARK.json` and in
//! `README.md`; the sizes below are frozen there too.

use tcf_core::Variant;
use tcf_isa::word::Word;

mod compile_corpus;
mod irregular_lanes;
mod thick_mem;
mod thick_regs;
mod thread_flows;
mod traced_export;

/// Workload names, in `BENCHMARK.json` order.
pub const NAMES: [&str; 6] = [
    "thick_regs",
    "thick_mem",
    "irregular_lanes",
    "thread_flows",
    "traced_export",
    "compile_corpus",
];

/// `Full` is what `BENCHMARK.json` measures; `Smoke` shrinks every size so
/// the package's own test runs all six workloads in seconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Smoke,
}

impl Scale {
    /// `full` at full scale, `smoke` in the smoke test.
    pub fn pick(self, full: usize, smoke: usize) -> usize {
        match self {
            Scale::Full => full,
            Scale::Smoke => smoke,
        }
    }
}

/// Program text in one of the two front-end languages.
pub enum Source {
    /// tce, compiled by `tcf_lang::compile`.
    Tce(String),
    /// Assembly, for what tce cannot express (`sel`), through
    /// `tcf_isa::asm::assemble`.
    Asm(String),
}

/// One program of a workload: one *operation* per pass.
pub struct Job {
    pub name: String,
    pub source: Source,
    pub variant: Variant,
    /// `MachineConfig::shared_size`, raised from the default as needed.
    pub shared_size: usize,
    /// Input data: `(base address, words)`.
    pub pokes: Vec<(usize, Vec<Word>)>,
    /// Oracle answers: `(base address, expected words)`.
    pub expect: Vec<(usize, Vec<Word>)>,
    /// Run with both sinks recording and push the run through every
    /// exporter (the `traced_export` workload).
    pub export: bool,
    /// Low-order interleaved module placement instead of the default
    /// hashed one: the placement under which strided references resolve in
    /// bulk (`step_bulk_into`) rather than lane by lane.
    pub interleaved: bool,
    /// A thread-model program `tcf_pram::PramMachine` can run too; the
    /// traced run reports the cross-model cycle ratio for these.
    pub pram_ref: bool,
}

impl Job {
    fn new(name: &str, source: Source, variant: Variant, shared_size: usize) -> Job {
        Job {
            name: name.to_string(),
            source,
            variant,
            shared_size,
            pokes: Vec::new(),
            expect: Vec::new(),
            export: false,
            interleaved: false,
            pram_ref: false,
        }
    }
}

/// Generates a workload's programs, inputs and oracle answers from the
/// seed. This is what `setup_s` times.
pub fn build(name: &str, seed: u64, scale: Scale) -> Option<Vec<Job>> {
    Some(match name {
        "thick_regs" => thick_regs::build(seed, scale),
        "thick_mem" => thick_mem::build(seed, scale),
        "irregular_lanes" => irregular_lanes::build(seed, scale),
        "thread_flows" => thread_flows::build(seed, scale),
        "traced_export" => traced_export::build(seed, scale),
        "compile_corpus" => compile_corpus::build(seed, scale),
        _ => return None,
    })
}

/// Default shared-memory size of the paper-scale machine (2^20 words).
const SHARED_DEFAULT: usize = 1 << 20;

/// Seeded input array with values in `0..limit`.
fn random_words(rng: &mut crate::rng::Rng, n: usize, limit: u64) -> Vec<Word> {
    (0..n).map(|_| rng.below(limit) as Word).collect()
}
