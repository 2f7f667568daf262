//! Per-layer replays for the traced run: each layer driven directly
//! through its `pub` functions with batches shaped like the workloads',
//! reported as host nanoseconds per unit of that layer's work. Inputs come
//! from the seed; nothing here enters an end-to-end metric.

use std::hint::black_box;
use std::time::Instant;

use tcf_core::{affine_alu, lanes, ThickRegs, ThickValue};
use tcf_isa::instr::MultiKind;
use tcf_isa::reg::r;
use tcf_isa::word::Word;
use tcf_isa::AluOp;
use tcf_machine::{
    FlowDesc, GroupPipeline, IssueUnit, MachineConfig, MachineStats, TcfBuffer, Trace, UnitSeq,
};
use tcf_mem::{BulkReplies, LocalMemory, MemOp, MemRef, RefOrigin, SharedMemory, StepScratch};
use tcf_net::Network;

use crate::rng::Rng;

/// Replays, each repeated for `seconds` of wall time after a warm-up call.
struct Replays {
    seconds: f64,
    out: Vec<(&'static str, f64)>,
}

impl Replays {
    /// Records the mean nanoseconds per unit of `f`, which does `units`
    /// units per call.
    fn ns_per(&mut self, name: &'static str, units: usize, mut f: impl FnMut()) {
        f();
        let start = Instant::now();
        let mut calls = 0u64;
        while calls == 0 || start.elapsed().as_secs_f64() < self.seconds {
            f();
            calls += 1;
        }
        let ns = start.elapsed().as_secs_f64() * 1e9 / (calls as f64 * units as f64);
        self.out.push((name, ns));
    }
}

pub fn replay_all(seed: u64, seconds_each: f64) -> Vec<(&'static str, f64)> {
    let mut rng = Rng::new(seed, 7);
    let mut r = Replays {
        seconds: seconds_each,
        out: Vec::new(),
    };
    kernels(&mut rng, &mut r);
    memory(&mut rng, &mut r);
    network(&mut rng, &mut r);
    machine(&mut r);
    r.out
}

/// `tcf_core::lanes` and friends on 2^16-lane buffers: what a decayed
/// register costs per lane, and what a compressed one costs per operation.
fn kernels(rng: &mut Rng, out: &mut Replays) {
    const N: usize = 1 << 16;
    let a: Vec<Word> = (0..N).map(|_| rng.next() as Word).collect();
    let b: Vec<Word> = (0..N).map(|_| rng.range(-1000, 1000)).collect();
    let cond: Vec<Word> = (0..N).map(|_| rng.below(2) as Word).collect();
    let mut dst = vec![0; N];

    const OPS: [AluOp; 4] = [AluOp::Add, AluOp::Mul, AluOp::Slt, AluOp::Xor];
    out.ns_per("core.alu_lanes_ns_per_lane", OPS.len() * N, || {
        for op in OPS {
            lanes::alu_lanes(op, &a, &b, &mut dst);
        }
        black_box(&dst);
    });
    out.ns_per("core.select_lanes_ns_per_lane", N, || {
        lanes::select_lanes(&cond, &a, &b, &mut dst);
        black_box(&dst);
    });
    let affine = ThickValue::affine(rng.range(1, 99), rng.range(1, 9));
    out.ns_per("core.fill_lanes_ns_per_lane", N, || {
        black_box(&affine).fill_lanes(0, &mut dst);
        black_box(&dst);
    });
    let mut regs = ThickRegs::new(32);
    out.ns_per("core.write_lanes_ns_per_lane", N, || {
        black_box(regs.write_lanes(r(3), 0, &a, N));
    });
    const AFFINE_OPS: [AluOp; 4] = [AluOp::Add, AluOp::Mul, AluOp::Slt, AluOp::Min];
    let operands: Vec<((Word, Word), (Word, Word))> = (0..256)
        .map(|_| {
            (
                (rng.range(0, 1 << 20), rng.range(0, 5)),
                (rng.range(0, 1 << 20), rng.below(2) as Word),
            )
        })
        .collect();
    out.ns_per(
        "core.affine_alu_ns_per_op",
        AFFINE_OPS.len() * operands.len(),
        || {
            for op in AFFINE_OPS {
                for &(x, y) in &operands {
                    black_box(affine_alu(op, x, y, 1 << 20));
                }
            }
        },
    );
}

/// `SharedMemory` on the paper-scale map (16 modules, hashed placement).
fn memory(rng: &mut Rng, out: &mut Replays) {
    let config = MachineConfig::default_machine();
    let groups = config.groups;
    let mut mem = SharedMemory::new(config.shared_size, groups, config.module_map, config.crcw);
    let mut scratch = StepScratch::default();
    let mut replies = Vec::new();

    // `thick_mem`'s shape: a thickness-1e5 flow as one fragment per group,
    // reading one array, writing another and combining into one word.
    let frag = 100_000 / groups;
    let bulk: Vec<MemRef> = (0..groups)
        .flat_map(|g| {
            let origin = RefOrigin::new(g, g * frag);
            let count = frag as u32;
            [
                MemOp::StridedRead {
                    base: (1 << 17) + g * frag,
                    stride: 1,
                    count,
                },
                MemOp::StridedWrite {
                    base: (1 << 18) + g * frag,
                    stride: 1,
                    count,
                    vbase: g as Word,
                    vstride: 3,
                },
                MemOp::BulkMulti {
                    kind: MultiKind::Add,
                    prefix: false,
                    base: 64,
                    astride: 0,
                    count,
                    vbase: (g * frag) as Word,
                    vstride: 1,
                },
            ]
            .map(|op| MemRef::new(origin, op))
        })
        .collect();
    let mut bulk_replies = BulkReplies::default();
    out.ns_per("mem.bulk_ns_per_word", 3 * frag * groups, || {
        mem.step_bulk_into(&bulk, &mut scratch, &mut replies, &mut bulk_replies)
            .expect("replay addresses are in range");
    });

    // `irregular_lanes`'s shape: 2^15 combining references whose keys pile
    // up on the low buckets (minimum of three uniform draws), so most of
    // them conflict.
    let scatter: Vec<MemRef> = (0..1usize << 15)
        .map(|lane| {
            let key = (0..3).map(|_| rng.below(256)).min().unwrap() as usize;
            MemRef::new(
                RefOrigin::new((lane * groups) >> 15, lane),
                MemOp::Multi(MultiKind::Add, (1 << 19) + key, 1),
            )
        })
        .collect();
    out.ns_per("mem.perlane_ns_per_ref", scatter.len(), || {
        mem.step_into(&scatter, &mut scratch, &mut replies)
            .expect("replay addresses are in range");
    });
    let mut buckets = Vec::new();
    let mut shard_scratch = vec![StepScratch::default(); groups];
    out.ns_per("mem.shard_ns_per_ref", scatter.len(), || {
        mem.shard_refs_into(&scatter, &mut buckets)
            .expect("replay addresses are in range");
        let outcomes: Vec<_> = buckets
            .iter()
            .zip(&mut shard_scratch)
            .map(|(idxs, s)| {
                mem.resolve_shard_with(&scatter, idxs, s)
                    .expect("replay addresses are in range")
            })
            .collect();
        mem.commit_shards(&outcomes);
    });

    let mut local = LocalMemory::new(0, config.local_size);
    let addrs: Vec<usize> = (0..4096)
        .map(|_| rng.below(config.local_size as u64) as usize)
        .collect();
    out.ns_per("mem.local_ns_per_ref", 2 * addrs.len(), || {
        for &a in &addrs {
            let v = local.read(a).expect("in range");
            local.write(a, v.wrapping_add(1)).expect("in range");
        }
    });
}

/// `Network` on the 4x4 mesh: per-message routing, the precomputed-route
/// variant, and the closed-form tail replay.
fn network(rng: &mut Rng, out: &mut Replays) {
    let config = MachineConfig::default_machine();
    let mut net = Network::new(config.topology, config.hop_latency);
    let pairs: Vec<(usize, usize)> = (0..4096)
        .map(|_| {
            (
                rng.below(config.groups as u64) as usize,
                rng.below(config.groups as u64) as usize,
            )
        })
        .collect();
    let mut now = 0u64;
    out.ns_per("net.send_ns_per_msg", pairs.len(), || {
        for &(src, dst) in &pairs {
            now = now.max(black_box(net.send(src, dst, now))) + 1;
        }
    });
    out.ns_per("net.send_on_ns_per_msg", pairs.len(), || {
        for &(src, dst) in &pairs {
            let route = net.route_to(src, dst).expect("mesh routes fit the handle");
            now = now.max(black_box(net.send_on(&route, now))) + 1;
        }
    });
    out.ns_per("net.replay_tail_ns_per_call", pairs.len(), || {
        for &(src, dst) in &pairs {
            let fwd = net.route_to(src, dst).expect("mesh routes fit the handle");
            let rev = net.route_to(dst, src).expect("mesh routes fit the handle");
            // Message 0 walks the router; 99 999 more follow in closed form.
            let s0 = now;
            let arrive = net.send_on(&fwd, s0);
            let served = net.service(dst, arrive, config.module_latency);
            let back = net.send_on(&rev, served);
            net.replay_roundtrip_tail(&fwd, &rev, dst, 99_999, s0, arrive, served, back, 0, 1);
            now = back + 100_000;
        }
    });
}

/// `GroupPipeline::run_step_seq` on one-unit lists (what thin flows
/// produce), on closed-form runs (what thick flows produce) and with the
/// trace on; `TcfBuffer` past its capacity.
fn machine(out: &mut Replays) {
    let config = MachineConfig::default_machine();
    let pipe = GroupPipeline::with_ilp(
        0,
        config.module_latency,
        config.local_latency,
        config.ilp_width,
    );
    let mut net = Network::new(config.topology, config.hop_latency);
    let mut stats = MachineStats::default();
    let mut off = Trace::disabled();
    let mut clock = 0u64;

    // 1024 unit flows' worth of a step: a fetch, two computes and a shared
    // reference each.
    let ones: Vec<UnitSeq> = (0..1024u32)
        .flat_map(|flow| {
            [
                IssueUnit::fetch(flow),
                IssueUnit::compute(flow, 0),
                IssueUnit::compute(flow, 0),
                IssueUnit::shared_mem(flow, 0, flow as usize % config.groups),
            ]
        })
        .map(UnitSeq::One)
        .collect();
    out.ns_per("machine.pipe_ns_per_unit_one", ones.len(), || {
        clock = pipe
            .run_step_seq(clock, &ones, false, &mut net, &mut off, &mut stats)
            .end_cycle;
    });
    let computes: Vec<UnitSeq> = (0..64)
        .map(|k| UnitSeq::ComputeRun {
            flow: 0,
            thread0: k * 1_000_000,
            count: 1_000_000,
        })
        .collect();
    out.ns_per("machine.pipe_ns_per_run_compute", computes.len(), || {
        clock = pipe
            .run_step_seq(clock, &computes, false, &mut net, &mut off, &mut stats)
            .end_cycle;
    });
    let shareds: Vec<UnitSeq> = (0..64)
        .map(|k| UnitSeq::SharedRun {
            flow: 0,
            thread0: k * 100_000,
            count: 100_000,
            node0: k % config.groups,
            node_step: 0,
            nodes: config.groups,
        })
        .collect();
    out.ns_per("machine.pipe_ns_per_run_shared", shareds.len(), || {
        clock = pipe
            .run_step_seq(clock, &shareds, false, &mut net, &mut off, &mut stats)
            .end_cycle;
    });
    let mut on = Trace::recording();
    out.ns_per("machine.pipe_traced_ns_per_unit", ones.len(), || {
        on.clear();
        clock = pipe
            .run_step_seq(clock, &ones, false, &mut net, &mut on, &mut stats)
            .end_cycle;
    });

    // Twice as many flows as slots, visited round-robin: every activation
    // misses and evicts.
    let mut buffer = TcfBuffer::new(config.tcf_buffer_slots, config.tcf_load_cost);
    let flows = 2 * config.tcf_buffer_slots as u32;
    out.ns_per("machine.buffer_ns_per_activate", flows as usize, || {
        for id in 0..flows {
            black_box(buffer.activate(FlowDesc::pram(id, 16, 0)));
            black_box(buffer.next_flow());
        }
    });
}
