//! Differential conformance suite for the parallel execution engine: for
//! every variant, every paper workload and randomly generated programs,
//! `par:<N>` execution must be *bit-identical* to sequential execution at
//! every worker count — the run summary (steps, cycles, machine, memory
//! and network statistics), the final shared and local memories, the
//! metrics registry and the Chrome trace, and even the error on faulting
//! programs (the parallel engine rolls later fragments back so faults
//! leave the exact partial state sequential execution leaves).
//!
//! This is the contract `docs/PARALLEL.md` argues for; this suite enforces
//! it observable-by-observable.

use proptest::prelude::*;

use tcf::core::{Engine, TcfError, TcfMachine, Variant};
use tcf::isa::instr::{BrCond, Instr, MemSpace, MultiKind, Operand, Target};
use tcf::isa::op::AluOp;
use tcf::isa::program::Program;
use tcf::isa::reg::{r, Reg, SpecialReg};
use tcf::isa::word::Word;
use tcf::machine::MachineConfig;
use tcf::pram::RunSummary;
use tcf_bench::workloads;
use tcf_obs::chrome::chrome_trace;
use tcf_obs::json::metrics_json;

const WORKERS: &[usize] = &[1, 2, 4, 7];
const LOCAL_WINDOW: usize = 128;
const SHARED_WINDOW: usize = 4096;

/// Everything externally observable about one run.
#[derive(Debug, Clone, PartialEq)]
struct Observed {
    outcome: Result<RunSummary, TcfError>,
    shared: Vec<Word>,
    locals: Vec<Vec<Word>>,
    metrics: String,
    trace: String,
}

fn observe(
    variant: Variant,
    program: &Program,
    engine: Engine,
    init: impl Fn(&mut TcfMachine),
) -> Observed {
    observe_on(MachineConfig::small(), variant, program, engine, init)
}

fn observe_on(
    config: MachineConfig,
    variant: Variant,
    program: &Program,
    engine: Engine,
    init: impl Fn(&mut TcfMachine),
) -> Observed {
    let groups = config.groups;
    let mut m = TcfMachine::new(config, variant, program.clone());
    m.set_engine(engine);
    m.set_tracing(true);
    m.set_observing(true);
    init(&mut m);
    let outcome = m.run(50_000);
    let locals = (0..groups)
        .map(|g| {
            (0..LOCAL_WINDOW)
                .map(|a| m.peek_local(g, a).unwrap())
                .collect()
        })
        .collect();
    Observed {
        outcome,
        shared: m.peek_range(0, SHARED_WINDOW).unwrap(),
        locals,
        metrics: metrics_json(&m.metrics()),
        trace: chrome_trace(&m.trace().events(), &m.obs().events()),
    }
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

/// Runs `program` under every variant sequentially and at every worker
/// count, asserting bit-identical observables. A variant that faults on
/// the program (e.g. `setthick` on a thread-based variant) must fault
/// identically under the parallel engine, so faults are compared, not
/// skipped.
fn assert_engine_transparent(name: &str, program: &Program, init: impl Fn(&mut TcfMachine)) {
    for variant in all_variants() {
        let reference = observe(variant, program, Engine::Sequential, &init);
        for &w in WORKERS {
            let par = observe(variant, program, Engine::Parallel { workers: w }, &init);
            assert_eq!(
                reference.outcome, par.outcome,
                "{name} / {variant:?} / par:{w}: run outcome diverged"
            );
            assert_eq!(
                reference.shared, par.shared,
                "{name} / {variant:?} / par:{w}: shared memory diverged"
            );
            assert_eq!(
                reference.locals, par.locals,
                "{name} / {variant:?} / par:{w}: local memories diverged"
            );
            assert_eq!(
                reference.metrics, par.metrics,
                "{name} / {variant:?} / par:{w}: metrics diverged"
            );
            assert_eq!(
                reference.trace, par.trace,
                "{name} / {variant:?} / par:{w}: trace diverged"
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
        assert_engine_transparent(name, &program, |m| {
            if size > 0 {
                workloads::init_arrays_tcf(m, size);
            }
        });
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

#[test]
fn engine_env_spec_selects_parallel() {
    // Machines pick the engine up from TCF_ENGINE at construction (other
    // tests constructing machines concurrently just run parallel — which
    // is bit-identical, so harmless).
    std::env::set_var("TCF_ENGINE", "par:3");
    let m = TcfMachine::new(
        MachineConfig::small(),
        Variant::SingleInstruction,
        workloads::tcf_vector_add(8),
    );
    std::env::remove_var("TCF_ENGINE");
    assert_eq!(m.engine(), Engine::Parallel { workers: 3 });
    let m = TcfMachine::new(
        MachineConfig::small(),
        Variant::SingleInstruction,
        workloads::tcf_vector_add(8),
    );
    assert_eq!(m.engine(), Engine::Sequential);
}

#[test]
fn faulting_program_leaves_identical_partial_state() {
    // A thick store that walks out of the shared window mid-instruction:
    // some lanes' register writes land before the fault. The parallel
    // engine must reproduce the exact partial state, not just the error.
    let program = Program::new(
        vec![
            Instr::SetThick {
                src: Operand::Imm(50),
            },
            Instr::Mfs {
                rd: r(1),
                sr: SpecialReg::Tid,
            },
            Instr::Alu {
                op: AluOp::Mul,
                rd: r(2),
                ra: r(1),
                rb: Operand::Imm(40_000),
            },
            // addr = tid * 40_000: lanes 0 and 1 are fine, lane 2 is out
            // of the 1<<16-word shared space.
            Instr::St {
                rs: r(1),
                base: r(2),
                off: 0,
                space: MemSpace::Shared,
            },
            Instr::Halt,
        ],
        Default::default(),
        vec![],
    )
    .unwrap();
    assert_engine_transparent("mid_instruction_fault", &program, |_| {});

    // Same for a local-memory fault (local space is 1<<12 words).
    let program = Program::new(
        vec![
            Instr::SetThick {
                src: Operand::Imm(50),
            },
            Instr::Mfs {
                rd: r(1),
                sr: SpecialReg::Tid,
            },
            Instr::Alu {
                op: AluOp::Mul,
                rd: r(2),
                ra: r(1),
                rb: Operand::Imm(300),
            },
            Instr::St {
                rs: r(1),
                base: r(2),
                off: 0,
                space: MemSpace::Local,
            },
            Instr::Halt,
        ],
        Default::default(),
        vec![],
    )
    .unwrap();
    assert_engine_transparent("local_fault", &program, |_| {});
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
            data_reg()
        )
            .prop_map(|(kind, addr, src)| Segment::Multi { kind, addr, src }),
        (
            prop::sample::select(&MultiKind::ALL[..]),
            base,
            data_reg(),
            data_reg()
        )
            .prop_map(|(kind, addr, dst, src)| Segment::Prefix {
                kind,
                addr,
                dst,
                src
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
            } => instrs.push(Instr::MultiPrefix {
                kind,
                rd: r(dst),
                base: Reg::ZERO,
                off: a as Word,
                rs: r(src),
            }),
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
    /// partially filled SIMD chunks shard identically. The paper
    /// workloads test above covers all six variants per workload.
    #[test]
    fn random_programs_match_across_engines(
        segments in prop::collection::vec(arb_segment(), 1..14)
    ) {
        let program = lower(&segments);
        for variant in [
            Variant::SingleInstruction,
            Variant::Balanced { bound: 1 },
            Variant::Balanced { bound: 3 },
            Variant::Balanced { bound: 64 },
        ] {
            let reference = observe(variant, &program, Engine::Sequential, |_| {});
            for &w in &[2usize, 4] {
                let par = observe(variant, &program, Engine::Parallel { workers: w }, |_| {});
                prop_assert_eq!(&reference, &par, "{:?} diverged under par:{}", variant, w);
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
            let reference = observe(variant, &program, Engine::Sequential, |_| {});
            for &w in &[2usize, 4] {
                let par = observe(variant, &program, Engine::Parallel { workers: w }, |_| {});
                prop_assert_eq!(&reference, &par, "{:?} diverged under par:{}", variant, w);
            }
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
                let mut o = observe_on(
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
/// `metrics()` must sum to `thick.decay_total`, on both engines. A new
/// decay site that bumps the total without (or with a double) reason
/// attribution breaks this identity.
#[test]
fn decay_taxonomy_sums_to_total() {
    // `and` on the affine lane ids escapes the affine algebra and lands
    // per-lane on a compressed register (`lane_write`, or
    // `balanced_resume` when a bound makes the write partial); the later
    // `setthick` then decays the still-affine r3 (`setthick`).
    let program = Program::new(
        vec![
            Instr::SetThick {
                src: Operand::Imm(40),
            },
            Instr::Mfs {
                rd: r(1),
                sr: SpecialReg::Tid,
            },
            Instr::Alu {
                op: AluOp::And,
                rd: r(1),
                ra: r(1),
                rb: Operand::Imm(1),
            },
            Instr::Mfs {
                rd: r(3),
                sr: SpecialReg::Tid,
            },
            Instr::SetThick {
                src: Operand::Imm(20),
            },
            Instr::Halt,
        ],
        Default::default(),
        vec![],
    )
    .unwrap();
    const REASONS: [&str; 7] = [
        "thick.decay_setthick",
        "thick.decay_lane_write",
        "thick.decay_mem_reply",
        "thick.decay_mask_runs",
        "thick.decay_fault",
        "thick.decay_balanced_resume",
        "thick.decay_async_slice",
    ];
    for variant in [Variant::SingleInstruction, Variant::Balanced { bound: 3 }] {
        for engine in [Engine::Sequential, Engine::Parallel { workers: 4 }] {
            let mut m = TcfMachine::new(MachineConfig::small(), variant, program.clone());
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
        }
    }
}
