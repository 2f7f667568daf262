//! Property test of the uniform-operand scalarization fast path.
//!
//! A `Uniform` register is an optimization of representation, never of
//! per-step meaning: at every reachable machine state, force-materializing
//! every register into its per-thread form (so the next instruction takes
//! the general thick path, one operation per implicit thread, instead of
//! scalarizing) must not change that step's memory effects. The borrow
//! based operand-select rewrite leans on exactly this equivalence — a
//! `uniform_over` read deciding "scalarize" must never change what the
//! program computes.
//!
//! The property is deliberately *per step at the current thickness*, not
//! whole-run: `Uniform(v)` and `PerThread([v; T])` are only equivalent up
//! to thickness `T`. A later `setthick` to a larger thickness reads `v`
//! from the uniform register at the new lanes but 0 beyond the
//! materialized vector (documented `ThickValue` semantics), so a
//! materialized machine legitimately diverges *across* thickness growth.
//! Stepping a freshly materialized machine exactly once sidesteps that
//! while still driving every instruction down both paths.
//!
//! Plain stores of per-thread-divergent values to one address are kept
//! out of the generator for the same reason as in `differential.rs`: the
//! CRCW winner is schedule-dependent there (the documented deviation #2),
//! and forced materialization turns flow-wise stores into same-value
//! concurrent thick stores, which are winner-independent only when the
//! values agree.

use proptest::prelude::*;

use tcf_core::lanes;
use tcf_core::{affine_alu, Allocation, Engine, Seg, TcfMachine, ThickRegs, ThickValue, Variant};
use tcf_isa::instr::{Instr, MemSpace, MultiKind, Operand};
use tcf_isa::op::AluOp;
use tcf_isa::program::Program;
use tcf_isa::reg::{r, Reg, SpecialReg};
use tcf_isa::word::Word;
use tcf_isa::ProgramBuilder;
use tcf_machine::MachineConfig;

const MEM_WINDOW: usize = 4096;
const MAX_STEPS: u64 = 200_000;

/// Program segments mirroring `differential.rs`'s generator, trimmed to
/// the shapes that exercise the scalarization decision: thickness
/// changes, uniform compute, per-thread data, and both memory styles.
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
    UniformStore {
        addr: usize,
        src: u8,
    },
}

fn data_reg() -> impl Strategy<Value = u8> {
    1u8..7
}

fn arb_segment() -> impl Strategy<Value = Segment> {
    let base = 0usize..(MEM_WINDOW - 256);
    prop_oneof![
        (1usize..48).prop_map(Segment::SetThick),
        (
            prop::sample::select(&[AluOp::Add, AluOp::Sub, AluOp::Mul, AluOp::Xor][..]),
            data_reg(),
            data_reg(),
            -50i64..50
        )
            .prop_map(|(op, rd, ra, imm)| Segment::UniformAlu(op, rd, ra, imm)),
        data_reg().prop_map(Segment::ThickInit),
        (base.clone(), data_reg()).prop_map(|(base, src)| Segment::ThickStore { base, src }),
        (base.clone(), data_reg()).prop_map(|(base, dst)| Segment::ThickLoad { base, dst }),
        (
            prop::sample::select(&MultiKind::ALL[..]),
            base.clone(),
            data_reg()
        )
            .prop_map(|(kind, addr, src)| Segment::Multi { kind, addr, src }),
        (
            prop::sample::select(&MultiKind::ALL[..]),
            base.clone(),
            data_reg(),
            data_reg()
        )
            .prop_map(|(kind, addr, dst, src)| Segment::Prefix {
                kind,
                addr,
                dst,
                src
            }),
        (base, data_reg()).prop_map(|(addr, src)| Segment::UniformStore { addr, src }),
    ]
}

/// Emits `addr_reg = (tid & 255)` — the per-thread address recipe.
fn tid_addr(instrs: &mut Vec<Instr>, addr: Reg) {
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
    // Taint: registers holding per-thread-divergent values must not be
    // stored flow-wise (see module docs).
    let mut tainted = [false; 8];
    for seg in segments {
        match *seg {
            Segment::SetThick(k) => instrs.push(Instr::SetThick {
                src: Operand::Imm(k as Word),
            }),
            Segment::UniformAlu(op, rd, ra, imm) => {
                tainted[rd as usize] = tainted[ra as usize];
                instrs.push(Instr::Alu {
                    op,
                    rd: r(rd),
                    ra: r(ra),
                    rb: Operand::Imm(imm),
                });
            }
            Segment::ThickInit(rd) => {
                tainted[rd as usize] = true;
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
                tid_addr(&mut instrs, addr);
                instrs.push(Instr::St {
                    rs: r(src),
                    base: addr,
                    off: base as Word,
                    space: MemSpace::Shared,
                });
            }
            Segment::ThickLoad { base, dst } => {
                tainted[dst as usize] = true;
                tid_addr(&mut instrs, addr);
                instrs.push(Instr::Ld {
                    rd: r(dst),
                    base: addr,
                    off: base as Word,
                    space: MemSpace::Shared,
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
            } => {
                tainted[dst as usize] = true;
                instrs.push(Instr::MultiPrefix {
                    kind,
                    rd: r(dst),
                    base: Reg::ZERO,
                    off: a as Word,
                    rs: r(src),
                });
            }
            Segment::UniformStore { addr: a, src } => {
                if tainted[src as usize] {
                    tid_addr(&mut instrs, addr);
                    instrs.push(Instr::St {
                        rs: r(src),
                        base: addr,
                        off: a as Word,
                        space: MemSpace::Shared,
                    });
                } else {
                    instrs.push(Instr::St {
                        rs: r(src),
                        base: Reg::ZERO,
                        off: a as Word,
                        space: MemSpace::Shared,
                    });
                }
            }
        }
    }
    instrs.push(Instr::Halt);
    Program::new(instrs, Default::default(), vec![]).unwrap()
}

fn machine(program: Program) -> TcfMachine {
    TcfMachine::with_allocation(
        MachineConfig::small(),
        Variant::SingleInstruction,
        program,
        Allocation::Horizontal,
    )
}

/// Steps `m` `k` times (the program must not halt before that).
fn step_n(m: &mut TcfMachine, k: u64) {
    for _ in 0..k {
        assert!(m.step().expect("prefix faulted"), "halted inside prefix");
    }
}

/// Memory-effect comparison of step `k`: the scalarized step against the
/// same step with all registers force-materialized first. Deterministic
/// execution makes the two machines' states identical after the shared
/// `k`-step prefix, so any divergence is the scalarization decision's.
fn check_step(program: &Program, k: u64) -> Result<(), String> {
    let mut fast = machine(program.clone());
    step_n(&mut fast, k);
    let mut general = machine(program.clone());
    step_n(&mut general, k);
    general.materialize_all_registers();
    let a = fast.step().expect("scalarized step faulted");
    let b = general.step().expect("materialized step faulted");
    if a != b {
        return Err(format!("halt status diverged at step {k}: {a} vs {b}"));
    }
    let ma = fast.peek_range(0, MEM_WINDOW).unwrap();
    let mb = general.peek_range(0, MEM_WINDOW).unwrap();
    for (addr, (x, y)) in ma.iter().zip(&mb).enumerate() {
        if x != y {
            return Err(format!(
                "step {k} diverged at mem[{addr}]: scalarized={x} materialized={y}"
            ));
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Uniform-register scalarization never changes a step's memory
    /// effects.
    #[test]
    fn scalarization_is_semantically_transparent(
        segments in prop::collection::vec(arb_segment(), 1..12)
    ) {
        let program = lower(&segments);
        // Count the program's steps with one plain run.
        let mut probe = machine(program.clone());
        let mut steps = 0u64;
        while probe.step().expect("program halts") {
            steps += 1;
            prop_assert!(steps < MAX_STEPS, "program did not halt");
        }
        for k in 0..=steps {
            if let Err(e) = check_step(&program, k) {
                return Err(TestCaseError::fail(format!("{e}\nprogram:\n{program}")));
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Affine / segment arithmetic against the materialized-lane reference
// ---------------------------------------------------------------------------

/// A compressed thick value: uniform, affine, or a short segment run.
/// Strides and bases mix small magnitudes (where comparison folding is in
/// exact range and must engage) with near-extreme ones (where the
/// `progression_exact` guard must either refuse or still match per-lane
/// wrapping exactly).
fn arb_compressed() -> impl Strategy<Value = ThickValue> {
    let word = prop_oneof![
        -1000i64..1000,
        prop::sample::select(&[i64::MIN, i64::MIN + 7, -1, 0, 1, i64::MAX - 7, i64::MAX][..]),
    ];
    let stride = prop_oneof![
        -6i64..6,
        prop::sample::select(&[i64::MIN, -(1i64 << 40), 1i64 << 40, i64::MAX][..]),
    ];
    prop_oneof![
        word.clone().prop_map(ThickValue::Uniform),
        (word.clone(), stride.clone())
            .prop_map(|(base, stride)| ThickValue::Affine { base, stride }),
        prop::collection::vec((1u32..9, word, stride), 1..4).prop_map(|segs| {
            ThickValue::Segments(
                segs.into_iter()
                    .map(|(len, base, stride)| Seg { len, base, stride })
                    .collect(),
            )
        }),
    ]
}

/// One lane's worth of data: small magnitudes plus the wrapping extremes
/// the SIMD kernels must reproduce bit-for-bit.
fn arb_lane_word() -> impl Strategy<Value = Word> {
    prop_oneof![
        -1000i64..1000,
        prop::sample::select(&[i64::MIN, i64::MIN + 7, -1, 0, 1, i64::MAX - 7, i64::MAX][..]),
    ]
}

/// Every `ThickValue` representation: the compressed forms plus an
/// explicit `PerThread` vector (whose implicit-zero tail beyond the
/// materialized length is part of the `get` contract).
fn arb_thick() -> impl Strategy<Value = ThickValue> {
    prop_oneof![
        arb_compressed(),
        prop::collection::vec(arb_lane_word(), 0..24).prop_map(ThickValue::PerThread),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `affine_over` never lies: whenever a compressed value reports the
    /// lane range `[lo, lo+len)` as a progression, every lane of the
    /// progression equals the per-lane `get` the representation defines.
    #[test]
    fn affine_over_matches_lane_reads(
        v in arb_compressed(),
        lo in 0usize..20,
        len in 0usize..40,
    ) {
        if let Some((base, stride)) = v.affine_over(lo, len) {
            for k in 0..len {
                let expect = v.get(lo + k);
                let got = base.wrapping_add(stride.wrapping_mul(k as Word));
                prop_assert_eq!(
                    got, expect,
                    "affine_over({}, {}) diverged at lane {} of {:?}",
                    lo, len, lo + k, v
                );
            }
        }
    }

    /// The chunked SIMD ALU kernel is bit-exact with the scalar per-lane
    /// reference for EVERY op, at every length — including 0, 1, and the
    /// non-multiple-of-[`lanes::LANE_CHUNK`] tails the remainder loop
    /// covers.
    #[test]
    fn alu_lanes_matches_scalar_reference(
        a in prop::collection::vec(arb_lane_word(), 0..40),
        seed in any::<i64>(),
    ) {
        // Same length as `a`, derived values (mix of agreeing lanes,
        // zeros for the shift/division edge cases, and sign flips).
        let b: Vec<Word> = a
            .iter()
            .enumerate()
            .map(|(i, &x)| match i % 4 {
                0 => x,
                1 => 0,
                2 => x.wrapping_mul(-1),
                _ => x.wrapping_add(seed),
            })
            .collect();
        let mut simd = vec![0; a.len()];
        let mut scalar = vec![0; a.len()];
        for &op in AluOp::ALL.iter() {
            lanes::alu_lanes(op, &a, &b, &mut simd);
            lanes::alu_lanes_scalar_ref(op, &a, &b, &mut scalar);
            prop_assert_eq!(
                &simd, &scalar,
                "{:?} diverged over {} lanes", op, a.len()
            );
        }
    }

    /// The branchless lane-mask `Sel` blend is bit-exact with the scalar
    /// reference, for every mix of zero / non-zero conditions and every
    /// tail length.
    #[test]
    fn select_lanes_matches_scalar_reference(
        lanes_in in prop::collection::vec(
            (arb_lane_word(), arb_lane_word(), arb_lane_word()),
            0..40
        ),
    ) {
        let cond: Vec<Word> = lanes_in.iter().map(|l| l.0 % 3).collect();
        let t: Vec<Word> = lanes_in.iter().map(|l| l.1).collect();
        let f: Vec<Word> = lanes_in.iter().map(|l| l.2).collect();
        let mut simd = vec![0; cond.len()];
        let mut scalar = vec![0; cond.len()];
        lanes::select_lanes(&cond, &t, &f, &mut simd);
        lanes::select_lanes_scalar_ref(&cond, &t, &f, &mut scalar);
        prop_assert_eq!(simd, scalar);
    }

    /// `ThickValue::fill_lanes` gathers exactly what per-lane `get` reads
    /// for every representation — Uniform, Affine, Segments, and
    /// PerThread including its implicit-zero tail.
    #[test]
    fn fill_lanes_matches_lane_reads(
        v in arb_thick(),
        lo in 0usize..20,
        len in 0usize..40,
    ) {
        let mut out = vec![i64::MIN + 3; len]; // poison: every lane must be overwritten
        v.fill_lanes(lo, &mut out);
        for (k, &got) in out.iter().enumerate() {
            prop_assert_eq!(
                got, v.get(lo + k),
                "fill_lanes({}, len {}) diverged at lane {} of {:?}",
                lo, len, lo + k, v
            );
        }
    }

    /// `ThickValue::first_mismatch` agrees with the naive scan for every
    /// representation, both on agreement (None) and at the exact first
    /// disagreeing lane.
    #[test]
    fn first_mismatch_matches_naive_scan(
        v in arb_thick(),
        lo in 0usize..20,
        len in 0usize..40,
        flip in (any::<bool>(), 0usize..40, any::<i64>()),
    ) {
        let mut values = vec![0; len];
        v.fill_lanes(lo, &mut values);
        let (do_flip, at, delta) = flip;
        if do_flip && at < len {
            values[at] = values[at].wrapping_add(delta);
        }
        let expect = (0..len).find(|&k| values[k] != v.get(lo + k));
        prop_assert_eq!(
            v.first_mismatch(lo, &values), expect,
            "first_mismatch({}, {:?}) diverged for {:?}", lo, values, v
        );
    }

    /// `ThickRegs::write_lanes` is exactly one per-lane `write` per lane
    /// in ascending order — representation decisions included — for every
    /// starting representation and at the thickness 0/1 edges.
    #[test]
    fn write_lanes_replays_per_lane_writes(
        start in arb_thick(),
        base in 0usize..12,
        values in prop::collection::vec(arb_lane_word(), 0..24),
        thickness in 0usize..24,
    ) {
        let reg = r(1);
        let mut bulk = ThickRegs::new(8);
        bulk.write_value(reg, start.clone());
        let mut lane_by_lane = ThickRegs::new(8);
        lane_by_lane.write_value(reg, start.clone());

        bulk.write_lanes(reg, base, &values, thickness);
        for (k, &v) in values.iter().enumerate() {
            lane_by_lane.write(reg, base + k, v, thickness);
        }
        prop_assert_eq!(
            bulk.value(reg), lane_by_lane.value(reg),
            "write_lanes(base {}, {:?}, thickness {}) diverged from replay starting at {:?}",
            base, values, thickness, start
        );
    }

    /// Closed-form ALU folding is bit-exact with the per-lane reference
    /// for EVERY ALU op: wherever `affine_alu` answers, each lane of the
    /// produced runs equals `op.eval` of the materialized operand lanes.
    /// (Where it declines — e.g. comparisons whose operands escape exact
    /// range — the engine falls back to per-lane evaluation, so declining
    /// is always safe.)
    #[test]
    fn affine_alu_matches_materialized_lanes(
        a in arb_compressed(),
        b in arb_compressed(),
        lo in 0usize..12,
        len in 1usize..48,
    ) {
        let (ap, bp) = match (a.affine_over(lo, len), b.affine_over(lo, len)) {
            (Some(ap), Some(bp)) => (ap, bp),
            _ => return Ok(()),
        };
        for &op in AluOp::ALL.iter() {
            if let Some(runs) = affine_alu(op, ap, bp, len) {
                let total: usize = runs.runs().iter().map(|s| s.len as usize).sum();
                prop_assert_eq!(total, len, "{:?} runs cover {} of {} lanes", op, total, len);
                for k in 0..len {
                    let expect = op.eval(a.get(lo + k), b.get(lo + k));
                    prop_assert_eq!(
                        runs.get(k), expect,
                        "{:?} diverged at lane {}: operands {:?} / {:?} over [{}, {}+{})",
                        op, lo + k, a, b, lo, lo, len
                    );
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Masked execution against the materialized-lane reference
// ---------------------------------------------------------------------------

/// A divergence kernel that drives every stage of the lane-mask pipeline
/// at thickness `t`: an affine lane id (`Mfs Tid`) splits at `cut` into a
/// run-length mask (`Slt` — a piecewise comparison over compressed
/// operands), a masked `Sel` rejoins the branches into a `Segments`
/// value, a further ALU op folds piecewise over the rejoin, a masked
/// store (`StMasked`) writes only the true-branch lanes by splitting the
/// address progression at mask-run boundaries, and a plain store of the
/// segmented value exercises the piecewise strided writeback.
fn masked_program(op: AluOp, t: usize, cut: Word, sel_imm: Word) -> Program {
    let instrs = vec![
        Instr::SetThick {
            src: Operand::Imm(t as Word),
        },
        Instr::Mfs {
            rd: r(1),
            sr: SpecialReg::Tid,
        },
        Instr::Alu {
            op: AluOp::Slt,
            rd: r(2),
            ra: r(1),
            rb: Operand::Imm(cut),
        },
        Instr::Sel {
            rd: r(3),
            cond: r(2),
            rt: r(1),
            rf: Operand::Imm(sel_imm),
        },
        Instr::Alu {
            op,
            rd: r(4),
            ra: r(3),
            rb: Operand::Imm(3),
        },
        Instr::StMasked {
            cond: r(2),
            rs: r(4),
            base: r(1),
            off: 64,
            space: MemSpace::Shared,
        },
        Instr::St {
            rs: r(4),
            base: r(1),
            off: 512,
            space: MemSpace::Shared,
        },
        Instr::Halt,
    ];
    Program::new(instrs, Default::default(), vec![]).unwrap()
}

/// [`check_step`] with an explicit engine on both machines, so the masked
/// compressed path is compared against the per-lane reference under both
/// the sequential and the deterministic parallel engine.
fn check_step_with(program: &Program, k: u64, engine: Engine) -> Result<(), String> {
    let mut fast = machine(program.clone());
    fast.set_engine(engine);
    step_n(&mut fast, k);
    let mut general = machine(program.clone());
    general.set_engine(engine);
    step_n(&mut general, k);
    general.materialize_all_registers();
    let a = fast.step().expect("masked step faulted");
    let b = general.step().expect("materialized step faulted");
    if a != b {
        return Err(format!("halt status diverged at step {k}: {a} vs {b}"));
    }
    let ma = fast.peek_range(0, MEM_WINDOW).unwrap();
    let mb = general.peek_range(0, MEM_WINDOW).unwrap();
    for (addr, (x, y)) in ma.iter().zip(&mb).enumerate() {
        if x != y {
            return Err(format!(
                "step {k} diverged at mem[{addr}]: masked={x} materialized={y}"
            ));
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Masked/piecewise compressed execution never changes a step's
    /// memory effects: for EVERY ALU op the divergence kernel's steps —
    /// mask classification, masked `Sel`, piecewise ALU over the rejoined
    /// `Segments`, masked and piecewise strided stores — match the same
    /// steps with every register force-materialized into lanes, under
    /// both engines. `cut` sweeps past both ends of the lane range so the
    /// all-set and all-clear mask edges are covered alongside genuine
    /// divergence, including cuts that do not align with slice
    /// boundaries.
    #[test]
    fn masked_execution_matches_materialized_lanes(
        t in 2usize..48,
        cut in -2i64..50,
        sel_imm in arb_lane_word(),
    ) {
        for &op in AluOp::ALL.iter() {
            let program = masked_program(op, t, cut, sel_imm);
            let mut probe = machine(program.clone());
            let mut steps = 0u64;
            while probe.step().expect("program halts") {
                steps += 1;
                prop_assert!(steps < MAX_STEPS, "program did not halt");
            }
            for k in 0..=steps {
                for engine in [Engine::Sequential, Engine::Parallel { workers: 4 }] {
                    if let Err(e) = check_step_with(&program, k, engine) {
                        return Err(TestCaseError::fail(format!(
                            "{op:?} under {engine:?}: {e}\nprogram:\n{program}"
                        )));
                    }
                }
            }
        }
    }
}

/// Masked writebacks that tile a register with complementary mask runs
/// must re-coalesce: once the runs rejoin into one arithmetic
/// progression, the stored representation is a single run again, not a
/// run list that grows with every divergent step. This is the value-level
/// guarantee behind the O(#runs) claim — without re-coalescing, run count
/// (and with it per-step cost) would grow linearly in steps executed.
#[test]
fn rejoin_writebacks_recoalesce_runs() {
    let t = 64usize;
    let reg = r(1);

    // Block-granular rejoin: even 4-lane runs first, then the odd ones,
    // all writing windows of the same progression `2·lane`.
    let mut regs = ThickRegs::new(8);
    regs.write_value(reg, ThickValue::Uniform(0));
    for round in 0..10 {
        for start in (0..t).step_by(8) {
            regs.write_affine(reg, start, 4, (2 * start) as Word + round, 2, t);
        }
        for start in (4..t).step_by(8) {
            regs.write_affine(reg, start, 4, (2 * start) as Word + round, 2, t);
        }
        assert_eq!(
            regs.value(reg).run_count(),
            1,
            "block rejoin failed to re-coalesce in round {round}: {:?}",
            regs.value(reg)
        );
    }

    // Single-lane rejoin: every even lane, then every odd lane, each a
    // one-lane write of `3·lane + round` — the adjacent single-run merge
    // must recover the stride-3 progression.
    let mut regs = ThickRegs::new(8);
    regs.write_value(reg, ThickValue::Uniform(0));
    for round in 0..4 {
        for k in (0..t).step_by(2) {
            regs.write_affine(reg, k, 1, (3 * k) as Word + round, 0, t);
        }
        for k in (1..t).step_by(2) {
            regs.write_affine(reg, k, 1, (3 * k) as Word + round, 0, t);
        }
        assert_eq!(
            regs.value(reg).run_count(),
            1,
            "single-lane rejoin grew the run list in round {round}: {:?}",
            regs.value(reg)
        );
    }
}

// ---------------------------------------------------------------------------
// Thickness changes against the materialized-lane reference
// ---------------------------------------------------------------------------

const RESIZE_MAX: usize = 64;
const RESIZE_IN: usize = 512;
const RESIZE_OUT: usize = 1024;

/// A straight-line program of random grows, shrinks and regrows between
/// thick computations, on the shapes whose lanes 0 and 1 always differ —
/// lane ids plus a constant, their bijections (`add`/`sub`/`xor` of a
/// constant, `mul` by an odd one), loads of distinct words, a `sel`
/// taking the ids below a cut of at least 2 — so no value register is ever a non-zero uniform,
/// which a materialized register legitimately reads differently past a
/// regrow (see the top of this file). Every thickness is at least 4; `r1`
/// is the lane id again after each change, `r7` a mask used at once, and
/// each store writes its own window of memory.
fn resize_program(seed: u64) -> Program {
    let mut state = seed;
    let mut next = move |n: usize| {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let z = (state ^ (state >> 31)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        ((z ^ (z >> 29)) % n as u64) as usize
    };
    let (tid, mask) = (r(1), r(7));
    let mut b = ProgramBuilder::new();
    let mut t = 4 + next(RESIZE_MAX - 3);
    b.setthick(t as Word);
    b.mfs(tid, SpecialReg::Tid);
    for k in 2..7 {
        b.alu(AluOp::Add, r(k), tid, next(3) as Word);
    }
    let mut window = 0;
    let mut store = |b: &mut ProgramBuilder, rs: Reg| {
        b.st(rs, tid, (RESIZE_OUT + window * RESIZE_MAX) as Word);
        window += 1;
    };
    for _ in 0..16 {
        let (rd, rs) = (r(2 + next(5) as u8), r(2 + next(5) as u8));
        match next(7) {
            0 | 1 => {
                t = 4 + next(RESIZE_MAX - 3);
                b.setthick(t as Word);
                b.mfs(tid, SpecialReg::Tid);
            }
            2 => {
                let (op, k) = [
                    (AluOp::Add, 1),
                    (AluOp::Sub, 1),
                    (AluOp::Xor, 1),
                    (AluOp::Mul, 2),
                ][next(4)];
                b.alu(op, rd, rs, (k * next(50) + 1) as Word);
            }
            3 => {
                b.ld(rd, tid, (RESIZE_IN + next(8)) as Word);
            }
            4 => {
                b.alu(AluOp::Slt, mask, tid, (2 + next(t - 2)) as Word);
                b.sel(rd, mask, tid, rs);
            }
            // Often the progression a pinned register already holds: the
            // spliced run then reaches past the thickness.
            5 => {
                b.alu(AluOp::Add, rd, tid, next(3) as Word);
            }
            _ => store(&mut b, rs),
        }
    }
    for k in 1..7 {
        store(&mut b, r(k));
    }
    b.halt();
    b.build().expect("resize program assembles")
}

/// `setthick` pins affine registers in closed form instead of decaying
/// them. Whatever the order of grows, shrinks and regrows, registers and
/// memory must end where a machine whose registers are force-materialized
/// before every step ends, on every variant that has `setthick` — the
/// lanes a shrink leaves behind are read again after a regrow, through
/// every kind of write at the smaller thickness.
#[test]
fn thickness_changes_match_materialized_lanes() {
    let variants = [
        Variant::SingleInstruction,
        Variant::Balanced { bound: 3 },
        Variant::Balanced { bound: 16 },
    ];
    for seed in 0..48 {
        let program = resize_program(seed);
        for variant in variants {
            let run = |materialize: bool| {
                let mut m = TcfMachine::new(MachineConfig::small(), variant, program.clone());
                for a in 0..RESIZE_MAX + 8 {
                    m.poke(RESIZE_IN + a, 1000 + 7 * a as Word).unwrap();
                }
                loop {
                    if materialize {
                        m.materialize_all_registers();
                    }
                    if !m.step().expect("resize program runs") {
                        break;
                    }
                }
                let f = m.flow(0).expect("root flow");
                let mut words = m.peek_range(RESIZE_OUT, 24 * RESIZE_MAX).unwrap();
                for k in 1..7 {
                    words.extend((0..f.thickness).map(|lane| f.regs.read(r(k), lane)));
                }
                words
            };
            let (compressed, materialized) = (run(false), run(true));
            if let Some(i) = (0..compressed.len()).find(|&i| compressed[i] != materialized[i]) {
                panic!(
                    "seed {seed}, {variant:?}: word {i} reads {} compressed, {} materialized\nprogram:\n{program}",
                    compressed[i], materialized[i]
                );
            }
        }
    }
}
