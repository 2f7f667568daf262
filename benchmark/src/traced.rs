//! The traced run (`--trace 1`): passes with spans recorded around every
//! call into a layer, a stepped pass timing each `step()`, a pass with the
//! allocation counter read around `run`, the recorded/un-recorded and
//! `par:2`/`seq` pairs, the `tcf-pram` cross-check, the `listing()` probes
//! and the per-layer replays of `layers.rs`. End-to-end metrics never come
//! from here.

use std::collections::BTreeMap;
use std::time::Instant;

use tcf_core::{Engine, TcfMachine, Variant};
use tcf_isa::program::Program;
use tcf_pram::PramMachine;

use crate::metrics::{median, quantile, PER_LAYER};
use crate::pass::{self, run_pass, PassOpts, Probe, StepProbe};
use crate::spans::Tracer;
use crate::workloads::{Job, Scale, Source};
use crate::{alloc, layers, setup, Args, Report, Tally};

/// Programs larger than this skip the `listing()` round trip, which is
/// quadratic in program length today.
const LISTING_MAX_INSTRS: usize = 6_000;

pub fn run(args: &Args) -> Report {
    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();
    let (jobs, setup_s) = setup(args, 1);
    m.insert("bench.setup_s", setup_s);
    let budget = Instant::now();

    // Reference: tracing off, as the timed run measures.
    let mut off = Tracer::new(false);
    let reference = run_pass(&jobs, &mut off, Probe::None, PassOpts::default());
    let mut tally = Tally::default();
    tally.add(&reference, &reference);
    let again = run_pass(&jobs, &mut off, Probe::None, PassOpts::default());
    tally.add(&again, &reference);
    let untraced = [reference.wall_s, again.wall_s];

    // Traced passes for up to 40% of the time asked for, two at least.
    let mut tr = Tracer::new(true);
    let mut traced = Vec::new();
    while traced.len() < 2 || budget.elapsed().as_secs_f64() < 0.4 * args.seconds {
        let p = run_pass(&jobs, &mut tr, Probe::None, PassOpts::default());
        tally.add(&p, &reference);
        traced.push(p.wall_s);
    }
    let passes = traced.len() as f64;
    span_metrics(&tr, passes, &mut m);
    m.insert("bench.samples", passes);
    m.insert(
        "bench.trace_overhead_x",
        median(&traced) / median(&untraced),
    );
    if let Some(path) = &args.spans_out {
        if let Err(e) = std::fs::write(path, tr.dump()) {
            eprintln!("tcf-benchmark: cannot write {path}: {e}");
        }
    }

    // Exact counts of the reference pass.
    for (&name, &v) in &reference.counts.0 {
        m.insert(name, v as f64);
    }
    let c = &reference.counts;
    let busy =
        c.get("machine.issued") + c.get("machine.bubbles") + c.get("machine.overhead_cycles");
    m.insert(
        "machine.util",
        ratio(c.get("machine.issued") as f64, busy as f64),
    );
    m.insert(
        "machine.buffer_miss_ratio",
        ratio(
            c.get("machine.buffer_misses") as f64,
            c.get("machine.buffer_switches") as f64,
        ),
    );
    m.insert(
        "core.ops_per_s",
        ratio(c.get("core.ops") as f64, m["core.run_s"]),
    );
    m.insert(
        "lang.bytes_per_s",
        ratio(c.get("lang.src_bytes") as f64, m["lang.compile_s"]),
    );
    m.insert("lang.tokens", tokens(&jobs) as f64);
    m.insert("bench.stats_digest", (c.digest() & ((1 << 48) - 1)) as f64);

    // Every `step()` call timed.
    let mut steps = StepProbe::default();
    steps.ns.reserve(c.get("core.steps") as usize);
    let p = run_pass(
        &jobs,
        &mut off,
        Probe::Steps(&mut steps),
        PassOpts::default(),
    );
    tally.add(&p, &reference);
    let us: Vec<f64> = steps.ns.iter().map(|&ns| ns as f64 * 1e-3).collect();
    m.insert("core.step_us_p50", quantile(&us, 0.5));
    m.insert("core.step_us_p99", quantile(&us, 0.99));
    m.insert("core.step_us_max", quantile(&us, 1.0));
    m.insert("core.live_flows_max", steps.live_flows_max as f64);

    // Allocations inside `run`.
    let mut delta = alloc::Delta::default();
    let p = run_pass(
        &jobs,
        &mut off,
        Probe::Allocs(&mut delta),
        PassOpts::default(),
    );
    tally.add(&p, &reference);
    let nsteps = c.get("core.steps") as f64;
    m.insert("core.allocs_per_step", ratio(delta.calls as f64, nsteps));
    m.insert(
        "core.alloc_bytes_per_step",
        ratio(delta.bytes as f64, nsteps),
    );

    // What recording costs: the recorded program again with the sinks off.
    if jobs.iter().any(|j| j.export) {
        let opts = PassOpts {
            export: Some(false),
            ..PassOpts::default()
        };
        let plain = run_pass(&jobs, &mut off, Probe::None, opts);
        m.insert("obs.record_x", ratio(reference.run_s, plain.run_s));
    }

    // `par:2` against `seq`, where thick lanes and memory shards can be
    // split. Informational: see `bench.host_nproc`.
    if matches!(args.workload.as_str(), "thick_mem" | "irregular_lanes") {
        let opts = PassOpts {
            engine: Engine::Parallel { workers: 2 },
            ..PassOpts::default()
        };
        run_pass(&jobs, &mut off, Probe::None, opts); // starts the workers
        let par = run_pass(&jobs, &mut off, Probe::None, opts);
        tally.add(&par, &reference);
        m.insert("core.par2_speedup_x", ratio(reference.run_s, par.run_s));
    }
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    m.insert("bench.host_nproc", nproc as f64);

    pram_cross_check(&jobs, &mut m, &mut tally);
    // The smoke test wants the names, not steady numbers.
    let smoke = args.scale == Scale::Smoke;
    listing_probes(&jobs, if smoke { 16 } else { 1 }, &mut m);
    m.extend(layers::replay_all(
        args.seed,
        if smoke { 0.0 } else { 0.03 },
    ));

    m.insert(
        "bench.fail_share",
        tally.failed as f64 / tally.attempted as f64,
    );
    Report {
        tally,
        metrics: PER_LAYER
            .iter()
            .map(|&(name, _)| {
                (
                    name,
                    m.get(name)
                        .copied()
                        .filter(|v| v.is_finite())
                        .unwrap_or(0.0),
                )
            })
            .collect(),
    }
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

fn tokens(jobs: &[Job]) -> usize {
    jobs.iter()
        .filter_map(|j| match &j.source {
            Source::Tce(src) => tcf_lang::lexer::lex(src).ok().map(|t| t.len()),
            Source::Asm(_) => None,
        })
        .sum()
}

/// Per-pass self times of the named spans, the per-layer shares and the
/// coverage of the pass by named spans.
fn span_metrics(tr: &Tracer, passes: f64, m: &mut BTreeMap<&'static str, f64>) {
    let own = tr.self_seconds();
    let per_pass = |name: &str| own.get(name).copied().unwrap_or(0.0) / passes;
    for (metric, span) in [
        ("lang.lex_s", "lang.lex"),
        ("isa.encode_s", "isa.encode"),
        ("isa.decode_s", "isa.decode"),
        ("core.build_s", "core.build"),
        ("core.init_s", "core.init"),
        ("core.run_s", "core.run"),
        ("core.readback_s", "core.readback"),
        ("core.metrics_s", "core.metrics"),
        ("obs.events_clone_s", "obs.events_clone"),
        ("obs.chrome_s", "obs.chrome"),
        ("obs.stream_drain_s", "obs.stream_drain"),
        ("obs.stream_parse_s", "obs.stream_parse"),
        ("obs.replay_s", "obs.replay"),
        ("obs.metrics_json_s", "obs.metrics_json"),
    ] {
        m.insert(metric, per_pass(span));
    }
    // `parse` lexes and `compile` parses: subtract to get each stage alone.
    m.insert(
        "lang.parse_s",
        (per_pass("lang.parse") - per_pass("lang.lex")).max(0.0),
    );
    m.insert(
        "lang.codegen_s",
        (per_pass("lang.compile") - per_pass("lang.parse")).max(0.0),
    );
    m.insert("lang.compile_s", per_pass("lang.compile"));
    m.insert(
        "isa.assemble_s",
        per_pass("isa.assemble") + per_pass("isa.assemble_text"),
    );

    let total: f64 = own.values().sum();
    for (metric, layer) in [
        ("share.lang", "lang."),
        ("share.isa", "isa."),
        ("share.core", "core."),
        ("share.obs", "obs."),
        ("share.bench", "bench."),
    ] {
        let layer_s: f64 = own
            .iter()
            .filter(|(name, _)| name.starts_with(layer))
            .map(|(_, s)| s)
            .sum();
        m.insert(metric, ratio(layer_s, total));
    }
    // What of the pass lies inside a named span under the root.
    m.insert(
        "bench.span_coverage",
        1.0 - ratio(own.get("bench.pass").copied().unwrap_or(0.0), total),
    );
}

/// The thread-model programs on `tcf-pram`, the repo's only reference
/// model, against `ConfigurableSingleOperation`: same answers, and the
/// ratio of simulated cycles.
fn pram_cross_check(jobs: &[Job], m: &mut BTreeMap<&'static str, f64>, tally: &mut Tally) {
    let (mut pram_cycles, mut cso_cycles, mut ops, mut secs) = (0u64, 0u64, 0u64, 0.0);
    for job in jobs.iter().filter(|j| j.pram_ref) {
        tally.attempted += 1;
        let done = (|| -> Result<(), String> {
            let program = pass::front_end(job, &mut Tracer::new(false))?;
            let mut pram = PramMachine::new(pass::config_for(job), program.clone());
            let mut cso = TcfMachine::new(
                pass::config_for(job),
                Variant::ConfigurableSingleOperation,
                program,
            );
            cso.set_engine(Engine::Sequential);
            for (base, data) in &job.pokes {
                for (i, &w) in data.iter().enumerate() {
                    pram.poke(base + i, w).map_err(|e| e.to_string())?;
                    cso.poke(base + i, w).map_err(|e| e.to_string())?;
                }
            }
            let start = Instant::now();
            let summary = pram.run(50_000_000).map_err(|e| e.to_string())?;
            secs += start.elapsed().as_secs_f64();
            cso.run(50_000_000).map_err(|e| e.to_string())?;
            for (base, want) in &job.expect {
                if pram
                    .peek_range(*base, want.len())
                    .map_err(|e| e.to_string())?
                    != *want
                {
                    return Err("tcf-pram disagrees with the oracle".into());
                }
            }
            pram_cycles += summary.cycles;
            cso_cycles += cso.cycles();
            ops += summary.machine.issued();
            Ok(())
        })();
        if let Err(e) = done {
            eprintln!("operation failed: {} on tcf-pram: {e}", job.name);
            tally.failed += 1;
        }
    }
    m.insert("pram.run_s", secs);
    m.insert("pram.ops_per_s", ratio(ops as f64, secs));
    m.insert(
        "pram.cycle_ratio",
        ratio(pram_cycles as f64, cso_cycles as f64),
    );
}

/// `Program::listing()` is kept out of the timed pass: it is quadratic in
/// program length today, which the 1k/4k pair shows as growth in cost per
/// instruction, and `assemble(listing())` does not reproduce every
/// compiler-labelled program, which the failure count shows.
fn listing_probes(jobs: &[Job], shrink: usize, m: &mut BTreeMap<&'static str, f64>) {
    let labelled = |branches: usize| {
        let body: String = (0..branches)
            .map(|k| format!("    if (i < {k}) {{ a[.] = a[.] + {k}; }}\n"))
            .collect();
        tcf_lang::compile(&format!(
            "shared int a[64] @ 4096;\nvoid main() {{\n    #64;\n    int i = 7;\n{body}}}\n"
        ))
        .expect("listing probe compiles")
    };
    let round_trips = |p: &Program| {
        tcf_isa::asm::assemble(&p.listing()).is_ok_and(|again| again.instrs == p.instrs)
    };
    let mut fails = 0;
    for (metric, branches) in [
        ("isa.listing_ns_per_instr_1k", 125),
        ("isa.listing_ns_per_instr_4k", 500),
    ] {
        let p = labelled(branches / shrink);
        let start = Instant::now();
        let text = p.listing();
        let ns = start.elapsed().as_secs_f64() * 1e9;
        std::hint::black_box(text.len());
        m.insert(metric, ns / p.len() as f64);
        fails += !round_trips(&p) as usize;
    }
    for job in jobs {
        if let Ok(p) = pass::front_end(job, &mut Tracer::new(false)) {
            if p.len() <= LISTING_MAX_INSTRS {
                fails += !round_trips(&p) as usize;
            }
        }
    }
    m.insert("isa.listing_roundtrip_fail", fails as f64);
}
