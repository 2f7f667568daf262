//! Differential conformance suite for the parallel execution engine: for
//! every variant, every paper workload and randomly generated programs,
//! `par:<N>` execution must be *bit-identical* to sequential execution at
//! every worker count — the run summary (steps, cycles, machine, memory
//! and network statistics), the final shared and local memories, the
//! metrics registry and the Chrome trace, and even the error on faulting
//! programs (later fragments are rolled back so faults leave the exact
//! partial state sequential execution leaves).
//!
//! The engine shards a step only above its grain (`LANE_GRAIN` per-lane
//! lanes of one memory instruction, `REF_GRAIN` scalar references of one
//! memory step), so every case here comes in two sizes: the small one pins
//! that below the grain `par:N` stays on the coordinator (both `sharded_*`
//! counters 0), the sized-up one — on [`hashed`], where an affine thick
//! reference is one reference per lane — is where threads actually run, and
//! asserts through the same counters that they did.
//!
//! This is the contract `docs/PARALLEL.md` argues for; this suite enforces
//! it observable-by-observable.

use proptest::prelude::*;

use tcf::core::{Engine, TcfError, TcfFault, TcfMachine, Variant};
use tcf::isa::instr::{BrCond, Instr, MemSpace, MultiKind, Operand, Target};
use tcf::isa::op::AluOp;
use tcf::isa::program::Program;
use tcf::isa::reg::{r, Reg, SpecialReg};
use tcf::isa::word::Word;
use tcf::isa::ProgramBuilder;
use tcf::machine::MachineConfig;
use tcf::mem::{CrcwPolicy, MemError, ModuleMap};
use tcf::pram::RunSummary;
use tcf_bench::workloads;
use tcf_obs::chrome::chrome_trace;
use tcf_obs::json::metrics_json;

const WORKERS: &[usize] = &[1, 2, 4, 7];
const SHARED_WINDOW: usize = 4096;

/// A thickness above both grains that the workload arrays (2^14 words
/// apart) still hold.
const BIG: usize = 1 << 14;

/// `MachineConfig::small()` under the hashed module map of the default
/// machine: the closed form declines a strided reference there, so a thick
/// load or store is one scalar reference per lane — what `thick_mem` runs.
fn hashed() -> MachineConfig {
    MachineConfig {
        module_map: ModuleMap::linear(0xC0FFEE),
        ..MachineConfig::small()
    }
}

/// Everything externally observable about one run.
#[derive(Debug, Clone, PartialEq)]
struct Observed {
    outcome: Result<RunSummary, TcfError>,
    shared: Vec<Word>,
    locals: Vec<Vec<Word>>,
    metrics: String,
    trace: String,
}

/// What the engine sharded, `(slices, memory buckets)` — beside
/// [`Observed`], not in it: this is what the engines are allowed to differ
/// in.
type Sharded = (u64, u64);

/// Which side of the grain a case is sized for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Grain {
    /// Nothing leaves the coordinator at any worker count.
    Below,
    /// Slices and memory buckets are both sharded.
    Above,
    /// One fragment (vertical allocation), so no slice to shard; the
    /// memory step is.
    MemoryOnly,
}

impl Grain {
    fn holds(self, (slices, buckets): Sharded) -> bool {
        match self {
            Grain::Below => slices == 0 && buckets == 0,
            Grain::Above => slices > 0 && buckets > 0,
            Grain::MemoryOnly => slices == 0 && buckets > 0,
        }
    }
}

fn observe(
    config: MachineConfig,
    variant: Variant,
    program: &Program,
    engine: Engine,
    init: impl Fn(&mut TcfMachine),
) -> (Observed, Sharded) {
    let (groups, local_size) = (config.groups, config.local_size);
    let shared_size = config.shared_size;
    let mut m = TcfMachine::new(config, variant, program.clone());
    m.set_engine(engine);
    m.set_tracing(true);
    m.set_observing(true);
    init(&mut m);
    let outcome = m.run(50_000);
    let locals = (0..groups)
        .map(|g| {
            (0..local_size)
                .map(|a| m.peek_local(g, a).unwrap())
                .collect()
        })
        .collect();
    let counters = m.engine_counters();
    let sharded = (counters.sharded_slices, counters.sharded_buckets);
    let observed = Observed {
        outcome,
        shared: m.peek_range(0, shared_size).unwrap(),
        locals,
        metrics: metrics_json(&m.metrics()),
        trace: chrome_trace(&m.trace().events(), &m.obs().events()),
    };
    (observed, sharded)
}

fn all_variants() -> Vec<Variant> {
    vec![
        Variant::SingleInstruction,
        Variant::Balanced { bound: 3 },
        Variant::MultiInstruction,
        Variant::SingleOperation,
        Variant::ConfigurableSingleOperation,
        Variant::FixedThickness { width: 16 },
    ]
}

/// Variants to run a case under, each with the side of the grain the case
/// is sized for there.
type Variants = Vec<(Variant, Grain)>;

/// The six variants, sized for the small machine: nothing here reaches a
/// grain.
fn small_variants() -> Variants {
    all_variants()
        .into_iter()
        .map(|v| (v, Grain::Below))
        .collect()
}

/// The two TCF variants, which spread a flow over the four groups:
/// `Balanced` in steps of 4 x `BIG / 4` lanes, so a thicker instruction
/// resumes, and its last step may fall below the grain.
fn tcf_variants() -> Variants {
    vec![
        (Variant::SingleInstruction, Grain::Above),
        (Variant::Balanced { bound: BIG / 4 }, Grain::Above),
    ]
}

/// Runs `program` on `config` under each of `variants` sequentially and at
/// every worker count, asserting bit-identical observables and that the
/// parallel runs sharded what the variant's [`Grain`] says (the sequential
/// run never does). A variant that faults on the program (e.g. `setthick`
/// on a thread-based variant) must fault identically under the parallel
/// engine, so faults are compared, not skipped.
fn assert_engine_transparent(
    name: &str,
    config: &MachineConfig,
    variants: &[(Variant, Grain)],
    program: &Program,
    init: impl Fn(&mut TcfMachine),
) {
    for &(variant, grain) in variants {
        let (reference, sharded) =
            observe(config.clone(), variant, program, Engine::Sequential, &init);
        assert_eq!(sharded, (0, 0), "{name} / {variant:?}: seq sharded");
        for &w in WORKERS {
            let engine = Engine::Parallel { workers: w };
            let (par, sharded) = observe(config.clone(), variant, program, engine, &init);
            assert_eq!(
                reference.outcome, par.outcome,
                "{name} / {variant:?} / par:{w}: run outcome diverged"
            );
            assert!(
                reference.shared == par.shared,
                "{name} / {variant:?} / par:{w}: shared memory diverged"
            );
            assert!(
                reference.locals == par.locals,
                "{name} / {variant:?} / par:{w}: local memories diverged"
            );
            assert_eq!(
                reference.metrics, par.metrics,
                "{name} / {variant:?} / par:{w}: metrics diverged"
            );
            assert!(
                reference.trace == par.trace,
                "{name} / {variant:?} / par:{w}: trace diverged"
            );
            assert!(
                grain.holds(sharded),
                "{name} / {variant:?} / par:{w}: sized {grain:?}, sharded {sharded:?}"
            );
        }
    }
}

#[test]
fn paper_workloads_match_across_engines() {
    let cases: Vec<(&str, Program, usize)> = vec![
        ("tcf_vector_add", workloads::tcf_vector_add(96), 96),
        ("loop_vector_add", workloads::loop_vector_add(64), 64),
        ("guard_vector_add", workloads::guard_vector_add(64), 64),
        ("tcf_scan", workloads::tcf_scan(64), 64),
        ("tcf_prefix", workloads::tcf_prefix(48), 48),
        ("masked_two_way", workloads::masked_two_way(64), 64),
        ("tcf_numa_seq", workloads::tcf_numa_seq(10, 4), 0),
    ];
    for (name, program, size) in cases {
        let init = |m: &mut TcfMachine| workloads::init_arrays_tcf(m, size);
        assert_engine_transparent(
            name,
            &MachineConfig::small(),
            &small_variants(),
            &program,
            init,
        );
    }
}

/// The thick workloads again where the engine shards them. The scan's
/// thickness shrinks from `2 * BIG - 1` to `BIG`, which `Balanced` runs as
/// a sharded step of `BIG` lanes and an unsharded rest. `masked_two_way`
/// is the fixed-thickness program (the others set their thickness, which
/// that variant refuses): one fragment, so no slice to shard.
#[test]
fn sized_up_paper_workloads_shard_and_match_across_engines() {
    let fixed = vec![(Variant::FixedThickness { width: BIG }, Grain::MemoryOnly)];
    let cases: Vec<(&str, Program, Variants)> = vec![
        (
            "tcf_vector_add",
            workloads::tcf_vector_add(BIG),
            tcf_variants(),
        ),
        ("tcf_scan", workloads::tcf_scan(2 * BIG), tcf_variants()),
        ("tcf_prefix", workloads::tcf_prefix(BIG), tcf_variants()),
        ("masked_two_way", workloads::masked_two_way(BIG), fixed),
    ];
    for (name, program, variants) in cases {
        let init = |m: &mut TcfMachine| workloads::init_arrays_tcf(m, BIG);
        assert_engine_transparent(name, &hashed(), &variants, &program, init);
    }
}

/// Steps `program` under `variant` to its end (a halt, a fault or the
/// step budget), recounting the scheduler's run list and flow counts from
/// the flows themselves after every step — debug builds assert the same
/// inside `step`, this holds it in release builds too.
fn assert_run_list_tracks_statuses(
    name: &str,
    config: MachineConfig,
    variant: Variant,
    program: &Program,
    init: impl Fn(&mut TcfMachine),
) {
    for engine in [Engine::Sequential, Engine::Parallel { workers: 4 }] {
        let mut m = TcfMachine::new(config.clone(), variant, program.clone());
        m.set_engine(engine);
        init(&mut m);
        for _ in 0..50_000 {
            let stepped = m.step();
            if let Err(e) = m.check_flow_table() {
                panic!(
                    "{name} / {variant:?} / {engine:?}, step {}: {e}",
                    m.steps_executed()
                );
            }
            if !matches!(stepped, Ok(true)) {
                break;
            }
        }
    }
}

#[test]
fn run_list_equals_running_flows_after_every_step() {
    let small = MachineConfig::small;
    let variants = || {
        let mut v = all_variants();
        v.extend([
            Variant::Balanced { bound: 1 },
            Variant::Balanced { bound: 64 },
        ]);
        v
    };
    // The paper workloads under every variant, faults included.
    let cases: Vec<(&str, Program, usize)> = vec![
        ("tcf_vector_add", workloads::tcf_vector_add(96), 96),
        ("loop_vector_add", workloads::loop_vector_add(64), 64),
        ("guard_vector_add", workloads::guard_vector_add(64), 64),
        ("tcf_scan", workloads::tcf_scan(64), 64),
        ("fork_scan", workloads::fork_scan(64), 64),
        ("tcf_two_way", workloads::tcf_two_way(64), 64),
        ("tcf_numa_seq", workloads::tcf_numa_seq(10, 4), 0),
    ];
    for (name, program, size) in &cases {
        for variant in variants() {
            assert_run_list_tracks_statuses(name, small(), variant, program, |m| {
                if *size > 0 {
                    workloads::init_arrays_tcf(m, *size);
                }
            });
        }
    }
    // Nested `split`/`join`: parents wait, children halt, parents wake.
    let nested = tcf::isa::asm::assemble(
        "main:
            split (4 -> outer), (1 -> outer), (9 -> leaf)
            split (2 -> leaf), (2 -> leaf)
            halt
        outer:
            split (3 -> leaf), (1 -> leaf)
            join
        leaf:
            mfs r1, tid
            st r1, [r1+200]
            join
        ",
    )
    .unwrap();
    for variant in [Variant::SingleInstruction, Variant::Balanced { bound: 3 }] {
        assert_run_list_tracks_statuses("nested_split", small(), variant, &nested, |_| {});
    }
    // Bunches of four unit flows: absorbed at `numa`, then every other
    // bunch halts inside NUMA mode (its siblings halt with it) and the
    // rest leave it and go on as unit flows.
    let bunches = tcf::lang::compile(
        "shared int acc @ 70;
         shared int c[64] @ 300;
         void main() {
             numa (4) {
                 int k = 0;
                 while (k < 9) { k = k + 1; }
                 acc = k;
                 if (gid % 8 == 4) { return; }
             }
             c[gid] = gid;
         }",
    )
    .unwrap();
    for variant in [
        Variant::ConfigurableSingleOperation,
        Variant::SingleInstruction,
    ] {
        assert_run_list_tracks_statuses("bunches", small(), variant, &bunches, |_| {});
    }
    // A spawn wider than a quantum (4 groups x 16): blocks split at the
    // budget boundary, tails get fresh ids, divergent branches carve more.
    for n in [40usize, 100, 1000] {
        let program = spawn_task(
            n,
            &[
                Segment::ThickInit(1),
                Segment::ThickStore { base: 0, src: 1 },
            ],
        );
        for shatter in [0, 1] {
            assert_run_list_tracks_statuses(
                "spawn_blocks",
                small(),
                Variant::MultiInstruction,
                &program,
                |m| m.poke(SHATTER_FLAG, shatter).unwrap(),
            );
        }
    }
}

/// `setthick thickness; r1 = tid;` then `body`, then `halt`.
fn thick_program(thickness: usize, body: impl Fn(&mut ProgramBuilder)) -> Program {
    let mut b = ProgramBuilder::new();
    b.setthick(thickness as Word);
    b.mfs(r(1), SpecialReg::Tid);
    body(&mut b);
    b.halt();
    b.build().unwrap()
}

#[test]
fn faulting_program_leaves_identical_partial_state() {
    // A thick store that walks out of the shared window mid-instruction:
    // some lanes' register writes land before the fault. The parallel
    // engine must reproduce the exact partial state, not just the error.
    // addr = tid * 40_000: lanes 0 and 1 are fine, lane 2 is out of the
    // 1<<16-word shared space.
    let shared_fault = thick_program(50, |b| {
        b.alu(AluOp::Mul, r(2), r(1), 40_000);
        b.st(r(1), r(2), 0);
    });
    // Same for a local-memory fault (local space is 1<<12 words).
    let local_fault = thick_program(50, |b| {
        b.alu(AluOp::Mul, r(2), r(1), 300);
        b.stl(r(1), r(2), 0);
    });
    let small = MachineConfig::small();
    for (name, program) in [("shared_fault", shared_fault), ("local_fault", local_fault)] {
        assert_engine_transparent(name, &small, &small_variants(), &program, |_| {});
    }
}

/// The faults again with every fragment's lanes on a thread of their own.
/// Each program first stores from every lane (`rs` to `[100 + (tid &
/// 4095)]`, all lanes of an address the same value), so both regions are
/// sharded before the faulting instruction is reached.
#[test]
fn sized_up_faults_leave_identical_partial_state() {
    let warmed_up = |rs: Reg, body: &dyn Fn(&mut ProgramBuilder)| {
        thick_program(BIG + 4000, |b| {
            b.alu(AluOp::And, r(2), r(1), 4095);
            b.st(rs, r(2), 100);
            body(b);
        })
    };

    // Out of the shared window: lanes from 2^14 on store past the end, and
    // the memory step refuses the whole reference list.
    let out_of_window = warmed_up(r(2), &|b| {
        b.alu(AluOp::Mul, r(3), r(1), 4);
        b.st(r(1), r(3), 0);
    });
    assert_engine_transparent(
        "out_of_window",
        &hashed(),
        &tcf_variants(),
        &out_of_window,
        |_| {},
    );

    // A fault found while resolving: under the Common policy lanes `k` and
    // `k + 4096` write different values to one word, at every one of 4096
    // addresses spread over all four modules. Sequential resolution walks
    // addresses upwards and reports the lowest; each shard reports its own
    // lowest and the engine must pick the same one.
    let common = MachineConfig {
        crcw: CrcwPolicy::Common,
        ..hashed()
    };
    let conflict = warmed_up(r(0), &|b| {
        b.st(r(1), r(2), 100);
    });
    assert_engine_transparent(
        "common_conflict",
        &common,
        &tcf_variants(),
        &conflict,
        |_| {},
    );
    let variant = Variant::SingleInstruction;
    let (seq, _) = observe(common, variant, &conflict, Engine::Sequential, |_| {});
    let err = seq.outcome.expect_err("conflicting writes fault");
    assert_eq!(
        err.fault,
        TcfFault::Mem(MemError::CommonWriteConflict { addr: 100 }),
        "the lowest conflicting address"
    );

    // A local fault in the first fragment only: lane 3000 stores out of
    // its group's block, every other lane — the other three fragments
    // whole — stores in range, so three fragments' local writes are undone.
    let local_undo = warmed_up(r(2), &|b| {
        b.alu(AluOp::Seq, r(3), r(1), 3000);
        b.alu(AluOp::Mul, r(3), r(3), 100_000);
        b.alu(AluOp::Add, r(3), r(3), r(2));
        b.stl(r(1), r(3), 0);
    });
    assert_engine_transparent(
        "local_undo",
        &hashed(),
        &tcf_variants(),
        &local_undo,
        |_| {},
    );
    let (seq, _) = observe(hashed(), variant, &local_undo, Engine::Sequential, |_| {});
    assert!(seq.outcome.is_err(), "lane 3000 faults");
    // Group 0 keeps what lanes 0..3000 wrote, the rolled-back groups
    // nothing.
    assert_eq!(seq.locals[0][2999], 2999);
    assert_eq!(seq.locals[0][3000], 0);
    assert!(seq.locals[1..].iter().all(|l| l.iter().all(|&w| w == 0)));
}

// ---------------------------------------------------------------------------
// Random-program differential (proptest)
// ---------------------------------------------------------------------------

/// Generator of well-formed TCF program segments, covering the thick
/// paths the engine shards: per-lane ALU/select traffic, shared and
/// *local* loads and stores, multioperations and multiprefixes, and
/// thickness changes that re-fragment the flow.
#[derive(Debug, Clone)]
enum Segment {
    SetThick(usize),
    UniformAlu(AluOp, u8, u8, Word),
    ThickInit(u8),
    ThickStore {
        base: usize,
        src: u8,
    },
    ThickLoad {
        base: usize,
        dst: u8,
    },
    LocalStore {
        base: usize,
        src: u8,
    },
    LocalLoad {
        base: usize,
        dst: u8,
    },
    /// `scattered`: through the per-thread address (up to `T / 256`
    /// contributions combine in each of 256 words) instead of all into one
    /// word.
    Multi {
        kind: MultiKind,
        addr: usize,
        src: u8,
        scattered: bool,
    },
    Prefix {
        kind: MultiKind,
        addr: usize,
        dst: u8,
        src: u8,
        scattered: bool,
    },
}

fn data_reg() -> impl Strategy<Value = u8> {
    1u8..7
}

fn arb_segment() -> impl Strategy<Value = Segment> {
    let base = 0usize..(SHARED_WINDOW - 256);
    let local_base = 0usize..((1 << 12) - 256);
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
        (local_base.clone(), data_reg()).prop_map(|(base, src)| Segment::LocalStore { base, src }),
        (local_base, data_reg()).prop_map(|(base, dst)| Segment::LocalLoad { base, dst }),
        (
            prop::sample::select(&MultiKind::ALL[..]),
            base.clone(),
            data_reg(),
            any::<bool>()
        )
            .prop_map(|(kind, addr, src, scattered)| Segment::Multi {
                kind,
                addr,
                src,
                scattered
            }),
        (
            prop::sample::select(&MultiKind::ALL[..]),
            base,
            data_reg(),
            data_reg(),
            any::<bool>()
        )
            .prop_map(|(kind, addr, dst, src, scattered)| Segment::Prefix {
                kind,
                addr,
                dst,
                src,
                scattered
            }),
    ]
}

/// `addr_reg = (tid & 255) + 0`, the bounded per-thread address.
fn thick_addr(instrs: &mut Vec<Instr>, addr: Reg) {
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
}

fn lower(segments: &[Segment]) -> Program {
    let addr = r(7);
    let mut instrs: Vec<Instr> = Vec::new();
    for seg in segments {
        match *seg {
            Segment::SetThick(k) => instrs.push(Instr::SetThick {
                src: Operand::Imm(k as Word),
            }),
            Segment::UniformAlu(op, rd, ra, imm) => instrs.push(Instr::Alu {
                op,
                rd: r(rd),
                ra: r(ra),
                rb: Operand::Imm(imm),
            }),
            Segment::ThickInit(rd) => {
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
            }
            Segment::ThickStore { base, src } => {
                thick_addr(&mut instrs, addr);
                instrs.push(Instr::St {
                    rs: r(src),
                    base: addr,
                    off: base as Word,
                    space: MemSpace::Shared,
                });
            }
            Segment::ThickLoad { base, dst } => {
                thick_addr(&mut instrs, addr);
                instrs.push(Instr::Ld {
                    rd: r(dst),
                    base: addr,
                    off: base as Word,
                    space: MemSpace::Shared,
                });
            }
            Segment::LocalStore { base, src } => {
                thick_addr(&mut instrs, addr);
                instrs.push(Instr::St {
                    rs: r(src),
                    base: addr,
                    off: base as Word,
                    space: MemSpace::Local,
                });
            }
            Segment::LocalLoad { base, dst } => {
                thick_addr(&mut instrs, addr);
                instrs.push(Instr::Ld {
                    rd: r(dst),
                    base: addr,
                    off: base as Word,
                    space: MemSpace::Local,
                });
            }
            Segment::Multi {
                kind,
                addr: a,
                src,
                scattered,
            } => {
                if scattered {
                    thick_addr(&mut instrs, addr);
                }
                instrs.push(Instr::MultiOp {
                    kind,
                    base: if scattered { addr } else { Reg::ZERO },
                    off: a as Word,
                    rs: r(src),
                });
            }
            Segment::Prefix {
                kind,
                addr: a,
                dst,
                src,
                scattered,
            } => {
                if scattered {
                    thick_addr(&mut instrs, addr);
                }
                instrs.push(Instr::MultiPrefix {
                    kind,
                    rd: r(dst),
                    base: if scattered { addr } else { Reg::ZERO },
                    off: a as Word,
                    rs: r(src),
                });
            }
        }
    }
    instrs.push(Instr::Halt);
    Program::new(instrs, Default::default(), vec![]).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Random thick programs observe identical machines under every
    /// engine. The thick-flow variants are swept here — `Balanced` across
    /// its boundary bounds (1 = one operation per processor per step,
    /// 64 = a whole instruction per step on the small machine), and
    /// `FixedThickness` at widths off the `LANE_CHUNK` (= 8) grid so
    /// partially filled SIMD chunks execute identically — all of it below
    /// the grain; then the same segments at thicknesses above it. The paper
    /// workloads test above covers all six variants per workload.
    #[test]
    fn random_programs_match_across_engines(
        segments in prop::collection::vec(arb_segment(), 1..14)
    ) {
        let small = MachineConfig::small;
        let program = lower(&segments);
        for variant in [
            Variant::SingleInstruction,
            Variant::Balanced { bound: 1 },
            Variant::Balanced { bound: 3 },
            Variant::Balanced { bound: 64 },
        ] {
            let (reference, _) = observe(small(), variant, &program, Engine::Sequential, |_| {});
            for &w in &[2usize, 4] {
                let engine = Engine::Parallel { workers: w };
                let (par, sharded) = observe(small(), variant, &program, engine, |_| {});
                prop_assert!(reference == par, "{:?} diverged under par:{}", variant, w);
                prop_assert_eq!(sharded, (0, 0), "{:?} sharded under par:{}", variant, w);
            }
        }
        // `FixedThickness` rejects `setthick`, so sweep it over the same
        // segment list minus thickness changes; widths 13 and 50 are not
        // multiples of LANE_CHUNK, leaving a ragged trailing chunk in
        // every per-lane kernel.
        let preset: Vec<Segment> = segments
            .iter()
            .filter(|s| !matches!(s, Segment::SetThick(_)))
            .cloned()
            .collect();
        let program = lower(&preset);
        for width in [13usize, 50] {
            let variant = Variant::FixedThickness { width };
            let (reference, _) = observe(small(), variant, &program, Engine::Sequential, |_| {});
            for &w in &[2usize, 4] {
                let engine = Engine::Parallel { workers: w };
                let (par, sharded) = observe(small(), variant, &program, engine, |_| {});
                prop_assert!(reference == par, "{:?} diverged under par:{}", variant, w);
                prop_assert_eq!(sharded, (0, 0), "{:?} sharded under par:{}", variant, w);
            }
        }
        // Above the grain: the flow starts `BIG` thick and every
        // `setthick k` asks for `BIG + 100 k`. The segments address memory
        // through `tid & 255`, explicit lanes, so each shared load, store
        // or scattered multioperation is a sharded instruction and a
        // sharded memory step, each local access a sharded instruction;
        // multioperations on one word stay bulk.
        let thick: Vec<Segment> = std::iter::once(Segment::SetThick(BIG))
            .chain(segments.iter().map(|s| match s {
                Segment::SetThick(k) => Segment::SetThick(BIG + 100 * k),
                other => other.clone(),
            }))
            .collect();
        let shared = segments.iter().any(|s| {
            matches!(
                s,
                Segment::ThickStore { .. }
                    | Segment::ThickLoad { .. }
                    | Segment::Multi { scattered: true, .. }
                    | Segment::Prefix { scattered: true, .. }
            )
        });
        let local = segments
            .iter()
            .any(|s| matches!(s, Segment::LocalStore { .. } | Segment::LocalLoad { .. }));
        let program = lower(&thick);
        let variant = Variant::SingleInstruction;
        let (reference, _) = observe(small(), variant, &program, Engine::Sequential, |_| {});
        for &w in &[2usize, 7] {
            let engine = Engine::Parallel { workers: w };
            let (par, (slices, buckets)) = observe(small(), variant, &program, engine, |_| {});
            prop_assert!(reference == par, "thick segments diverged under par:{}", w);
            prop_assert_eq!(slices > 0, shared || local, "par:{} sharded {} slices", w, slices);
            prop_assert_eq!(buckets > 0, shared, "par:{} sharded {} buckets", w, buckets);
        }
        // `MultiInstruction`: a spawn executed as compressed blocks must
        // be indistinguishable from the same spawn executed thread by
        // thread — memories, steps, cycles and every pipeline statistic
        // except the fetch count, which is what sharing a pc saves. The
        // quantum is made wide enough that no block splits at a budget
        // boundary: split tails get fresh flow ids, so after a second
        // split the rotation (id order) leaves lane order, which the
        // per-thread rotation never does.
        let mut wide = MachineConfig::small();
        wide.threads_per_group = 1 << 12;
        for n in [40usize, 100] {
            let program = spawn_task(n, &preset);
            let run = |shatter: Word| {
                let (mut o, _) = observe(
                    wide.clone(),
                    Variant::MultiInstruction,
                    &program,
                    Engine::Sequential,
                    |m| m.poke(SHATTER_FLAG, shatter).unwrap(),
                );
                o.shared[SHATTER_FLAG] = 0;
                if let Ok(s) = &mut o.outcome {
                    s.machine.fetches = 0;
                }
                o
            };
            let (blocks, units) = (run(0), run(1));
            prop_assert_eq!(&blocks.outcome, &units.outcome, "spawn {}: outcome diverged", n);
            prop_assert_eq!(&blocks.shared, &units.shared, "spawn {}: shared diverged", n);
            prop_assert_eq!(&blocks.locals, &units.locals, "spawn {}: locals diverged", n);
            // ... and the flag did change how the spawn executed (fetch and
            // slice counts are in the metrics).
            prop_assert!(blocks.metrics != units.metrics, "spawn {}: never shattered", n);
        }
    }
}

/// Word the spawned task of [`spawn_task`] reads its shatter flag from
/// (above everything the segments address).
const SHATTER_FLAG: usize = SHARED_WINDOW - 1;

/// `spawn n` of a task running `segments`, under `MultiInstruction`. The
/// task opens with a branch to the next instruction on
/// `((tid / groups) & 1) * mem[SHATTER_FLAG]`: with the flag 0 the operand
/// is uniform and the spawn's blocks stay blocks; with the flag 1 it
/// alternates lane by lane, so the same instruction stream splits every
/// block into unit flows — per-thread XMT execution.
fn spawn_task(n: usize, segments: &[Segment]) -> Program {
    let (alt, flag) = (r(8), r(9));
    let mut task = vec![
        Instr::Mfs {
            rd: alt,
            sr: SpecialReg::Tid,
        },
        Instr::Alu {
            op: AluOp::Div,
            rd: alt,
            ra: alt,
            rb: Operand::Imm(MachineConfig::small().groups as Word),
        },
        Instr::Alu {
            op: AluOp::And,
            rd: alt,
            ra: alt,
            rb: Operand::Imm(1),
        },
        Instr::Ld {
            rd: flag,
            base: Reg::ZERO,
            off: SHATTER_FLAG as Word,
            space: MemSpace::Shared,
        },
        Instr::Alu {
            op: AluOp::Mul,
            rd: alt,
            ra: alt,
            rb: Operand::Reg(flag),
        },
    ];
    let body = lower(segments);
    // spawn, halt, the prologue above, its branch, the body, sjoin.
    let entry = 2;
    let after_branch = entry + task.len() + 1;
    task.push(Instr::Br {
        cond: BrCond::Nez,
        rs: alt,
        target: Target::Abs(after_branch),
    });
    let mut instrs = vec![
        Instr::Spawn {
            count: Operand::Imm(n as Word),
            target: Target::Abs(entry),
        },
        Instr::Halt,
    ];
    instrs.extend(task);
    instrs.extend(
        body.instrs
            .iter()
            .filter(|i| !matches!(i, Instr::Halt))
            .cloned(),
    );
    instrs.push(Instr::SJoin);
    Program::new(instrs, Default::default(), vec![]).unwrap()
}

// ---------------------------------------------------------------------------
// Decay-taxonomy accounting
// ---------------------------------------------------------------------------

/// Every thick-register decay is billed to exactly one taxonomy reason:
/// across a differential run the per-reason counters exported by
/// `metrics()` must sum to `thick.decay_total`, on both engines — the
/// parallel one sharding the load. A new
/// decay site that bumps the total without (or with a double) reason
/// attribution breaks this identity.
#[test]
fn decay_taxonomy_sums_to_total() {
    // `and` on the affine lane ids escapes the affine algebra and lands
    // per-lane on a compressed register (`lane_write`, or
    // `balanced_resume` when a bound makes the write partial); the load
    // through it is one reference per lane, replying into the affine r3;
    // the later `setthick` pins the still-affine r4 and decays nothing.
    let program = thick_program(BIG + 4000, |b| {
        b.alu(AluOp::And, r(1), r(1), 1);
        b.mfs(r(3), SpecialReg::Tid);
        b.ld(r(3), r(1), 100);
        b.mfs(r(4), SpecialReg::Tid);
        b.setthick(BIG as Word / 2);
    });
    const REASONS: [&str; 7] = [
        "thick.decay_setthick",
        "thick.decay_lane_write",
        "thick.decay_mem_reply",
        "thick.decay_mask_runs",
        "thick.decay_fault",
        "thick.decay_balanced_resume",
        "thick.decay_async_slice",
    ];
    for (variant, grain) in tcf_variants() {
        for engine in [Engine::Sequential, Engine::Parallel { workers: 4 }] {
            let mut m = TcfMachine::new(hashed(), variant, program.clone());
            m.set_engine(engine);
            m.run(50_000).unwrap();
            let reg = m.metrics();
            let total = reg.counter("thick.decay_total").unwrap();
            let by_reason: u64 = REASONS
                .iter()
                .map(|k| reg.counter(k).unwrap_or_else(|| panic!("missing {k}")))
                .sum();
            assert_eq!(
                total, by_reason,
                "{variant:?} / {engine:?}: decay reasons don't sum to the total"
            );
            assert!(
                total > 0,
                "{variant:?} / {engine:?}: workload never decayed"
            );
            let counters = m.engine_counters();
            let sharded = (counters.sharded_slices, counters.sharded_buckets);
            assert_eq!(
                grain.holds(sharded),
                engine != Engine::Sequential,
                "{variant:?} / {engine:?}: sharded {sharded:?}"
            );
        }
    }
}
