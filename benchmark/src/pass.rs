//! One pass: every job of a workload taken from source text to checked
//! results, the way a user of the simulator would (closed loop, one
//! client, single-threaded `seq` engine):
//!
//! source text → `tcf_lang::compile` / `asm::assemble` → `encode` →
//! `decode` → `TcfMachine::new` → input `poke`s → `run` → `peek_range`
//! read-back → oracle compare → `metrics()` + `metrics_json`.
//!
//! One job in one pass is one *operation*. It fails on any error, oracle
//! mismatch, or (checked by the caller) a simulated-statistics digest that
//! differs from the first pass.

use std::collections::BTreeMap;
use std::time::Instant;

use tcf_core::{Engine, TcfMachine};
use tcf_isa::program::Program;
use tcf_machine::MachineConfig;
use tcf_mem::ModuleMap;
use tcf_obs::chrome::chrome_trace_with_drops;
use tcf_obs::json::metrics_json;
use tcf_obs::stream::{drain_ndjson, header_line, parse_stream, DRAIN_INTERVAL_STEPS};
use tcf_obs::{MetricsRegistry, StreamCursor};

use crate::alloc;
use crate::spans::Tracer;
use crate::workloads::{Job, Source};

const STEP_BUDGET: u64 = 50_000_000;

/// Exact, seed-deterministic counts of one or more jobs, by per-layer
/// metric name. `BTreeMap` so that iteration (and the digest) is ordered.
#[derive(Default, Clone, PartialEq)]
pub struct Counts(pub BTreeMap<&'static str, u64>);

impl Counts {
    fn add(&mut self, name: &'static str, v: u64) {
        *self.0.entry(name).or_insert(0) += v;
    }

    /// Folds one job's counts into a pass's: sums, except the one maximum.
    fn merge(&mut self, job: &Counts) {
        for (&name, &v) in &job.0 {
            let slot = self.0.entry(name).or_insert(0);
            *slot = if name == "mem.max_module_load" {
                (*slot).max(v)
            } else {
                *slot + v
            };
        }
    }

    pub fn get(&self, name: &str) -> u64 {
        self.0.get(name).copied().unwrap_or(0)
    }

    /// FNV-1a over names and values: the simulated-statistics digest.
    pub fn digest(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h = (h ^ b as u64).wrapping_mul(0x0100_0000_01b3);
            }
        };
        for (name, v) in &self.0 {
            eat(name.as_bytes());
            eat(&v.to_le_bytes());
        }
        h
    }
}

/// What a caller may observe during `run`, beyond its wall time.
pub enum Probe<'a> {
    None,
    /// Time every `step()` call and track the live-flow high-water mark.
    Steps(&'a mut StepProbe),
    /// Count heap allocations made inside `run`.
    Allocs(&'a mut alloc::Delta),
}

#[derive(Default)]
pub struct StepProbe {
    /// Host nanoseconds of each `step()` call.
    pub ns: Vec<u32>,
    pub live_flows_max: usize,
}

pub struct PassResult {
    pub wall_s: f64,
    /// Wall time inside `TcfMachine::run` (stream drains excluded).
    pub run_s: f64,
    /// Counts summed over the jobs that succeeded.
    pub counts: Counts,
    /// Per job: its simulated-statistics digest, or why it failed.
    pub jobs: Vec<Result<u64, String>>,
}

/// How a pass departs from what the workload asks for (the traced run's
/// recorded/un-recorded and `par:2`/`seq` pairs).
#[derive(Clone, Copy)]
pub struct PassOpts {
    /// `Some(x)` forces the sinks and exporters on or off for every job.
    pub export: Option<bool>,
    pub engine: Engine,
}

impl Default for PassOpts {
    fn default() -> PassOpts {
        PassOpts {
            export: None,
            engine: Engine::Sequential,
        }
    }
}

impl PassResult {
    pub fn steps(&self) -> u64 {
        self.counts.get("core.steps")
    }

    pub fn cycles(&self) -> u64 {
        self.counts.get("core.cycles")
    }
}

pub fn config_for(job: &Job) -> MachineConfig {
    let mut config = MachineConfig::default_machine();
    config.shared_size = job.shared_size;
    if job.interleaved {
        config.module_map = ModuleMap::Interleaved;
    }
    config
}

/// Source text to `Program`, through the front end the job names.
pub fn front_end(job: &Job, tr: &mut Tracer) -> Result<Program, String> {
    match &job.source {
        Source::Tce(src) => {
            if tr.is_on() {
                // The stages `compile` runs inside, timed apart: lexing is
                // `lang.lex`, parsing `lang.parse - lang.lex`, code
                // generation `lang.compile - lang.parse`.
                let tokens = tr.time("lang.lex", || tcf_lang::lexer::lex(src));
                std::hint::black_box(tokens.map_err(|e| e.to_string())?.len());
                let ast = tr.time("lang.parse", || tcf_lang::parser::parse(src));
                std::hint::black_box(ast.map_err(|e| e.to_string())?.funcs.len());
            }
            tr.time("lang.compile", || tcf_lang::compile(src))
                .map_err(|e| e.to_string())
        }
        Source::Asm(src) => tr
            .time("isa.assemble", || tcf_isa::asm::assemble(src))
            .map_err(|e| e.to_string()),
    }
}

/// Runs every job once.
pub fn run_pass(jobs: &[Job], tr: &mut Tracer, mut probe: Probe<'_>, opts: PassOpts) -> PassResult {
    tr.next_pass();
    let root = tr.begin("bench.pass");
    let start = Instant::now();
    let mut out = PassResult {
        wall_s: 0.0,
        run_s: 0.0,
        counts: Counts::default(),
        jobs: Vec::with_capacity(jobs.len()),
    };
    for job in jobs {
        let mut counts = Counts::default();
        let done = run_job(job, tr, &mut probe, opts, &mut counts, &mut out.run_s);
        out.jobs.push(match done {
            Ok(()) => {
                out.counts.merge(&counts);
                Ok(counts.digest())
            }
            Err(e) => Err(format!("{}: {e}", job.name)),
        });
    }
    out.wall_s = start.elapsed().as_secs_f64();
    tr.end(root);
    out
}

fn run_job(
    job: &Job,
    tr: &mut Tracer,
    probe: &mut Probe<'_>,
    opts: PassOpts,
    counts: &mut Counts,
    run_s: &mut f64,
) -> Result<(), String> {
    let export = opts.export.unwrap_or(job.export);
    let program = front_end(job, tr)?;

    let words = tr
        .time("isa.encode", || tcf_isa::encode::encode(&program))
        .map_err(|e| e.to_string())?;
    let decoded = tr
        .time("isa.decode", || tcf_isa::encode::decode(&words))
        .map_err(|e| e.to_string())?;
    if !tr.time("bench.check", || decoded.instrs == program.instrs) {
        return Err("decode(encode(program)) differs from program".into());
    }
    if let Source::Tce(src) = &job.source {
        counts.add("lang.src_bytes", src.len() as u64);
    }
    counts.add("isa.instrs", program.len() as u64);
    counts.add("isa.code_words", words.len() as u64);
    if tr.is_on() {
        // The assembler on the same program: every instruction through
        // `Display` (numeric targets), outside what the timed pass does.
        let text: String = tr.time("isa.display", || {
            program
                .instrs
                .iter()
                .map(|i| format!("    {i}\n"))
                .collect()
        });
        let again = tr
            .time("isa.assemble_text", || tcf_isa::asm::assemble(&text))
            .map_err(|e| e.to_string())?;
        if again.instrs != program.instrs {
            return Err("assemble(display(program)) differs from program".into());
        }
    }

    let mut m = tr.time("core.build", || {
        let mut m = TcfMachine::new(config_for(job), job.variant, decoded);
        m.set_engine(opts.engine);
        m
    });
    tr.time("core.init", || {
        job.pokes.iter().try_for_each(|(base, data)| {
            data.iter()
                .enumerate()
                .try_for_each(|(i, &w)| m.poke(base + i, w))
        })
    })
    .map_err(|e| e.to_string())?;

    let mut doc = String::new();
    let s = tr.begin("core.run");
    let run = if export {
        run_recorded(&mut m, tr, probe, &mut doc)
    } else {
        run_plain(&mut m, probe)
    };
    tr.end(s);
    *run_s += run?;

    tr.time("core.readback", || {
        for (base, want) in &job.expect {
            let got = m.peek_range(*base, want.len()).map_err(|e| e.to_string())?;
            if let Some(i) = got.iter().zip(want).position(|(g, w)| g != w) {
                return Err(format!(
                    "oracle mismatch at word {}: got {}, want {}",
                    base + i,
                    got[i],
                    want[i]
                ));
            }
        }
        Ok(())
    })?;

    let reg = tr.time("core.metrics", || m.metrics());
    std::hint::black_box(tr.time("obs.metrics_json", || metrics_json(&reg)).len());

    if export {
        export_all(&m, &doc, tr, counts)?;
    }
    collect_counts(&m, counts);
    tr.time("core.teardown", || drop(m));
    tr.time("bench.teardown", || drop((program, words, doc)));
    Ok(())
}

/// One `step()`, timed when the probe asks for it.
fn step(m: &mut TcfMachine, probe: &mut Probe<'_>) -> Result<bool, String> {
    let Probe::Steps(p) = probe else {
        return m.step().map_err(|e| e.to_string());
    };
    p.live_flows_max = p.live_flows_max.max(m.live_flows());
    let t = Instant::now();
    let more = m.step();
    p.ns.push(t.elapsed().as_nanos().min(u32::MAX as u128) as u32);
    more.map_err(|e| e.to_string())
}

/// `run` as a user calls it; returns the seconds spent inside.
fn run_plain(m: &mut TcfMachine, probe: &mut Probe<'_>) -> Result<f64, String> {
    let start = Instant::now();
    match probe {
        Probe::None => {
            m.run(STEP_BUDGET).map_err(|e| e.to_string())?;
        }
        Probe::Allocs(delta) => {
            let before = alloc::snapshot();
            let r = m.run(STEP_BUDGET);
            delta.add(before, alloc::snapshot());
            r.map_err(|e| e.to_string())?;
        }
        Probe::Steps(_) => {
            while step(m, probe)? {
                if m.steps_executed() >= STEP_BUDGET {
                    return Err("step budget exhausted".into());
                }
            }
        }
    }
    Ok(start.elapsed().as_secs_f64())
}

/// `run` with both sinks recording and a live subscriber draining them
/// into a v2 NDJSON document, as `repro --stream` does.
fn run_recorded(
    m: &mut TcfMachine,
    tr: &mut Tracer,
    probe: &mut Probe<'_>,
    doc: &mut String,
) -> Result<f64, String> {
    m.set_tracing(true);
    m.set_observing(true);
    *doc = header_line();
    let mut cursor = StreamCursor::default();
    let start = Instant::now();
    let mut drain_s = 0.0;
    let mut drain = |m: &TcfMachine, tr: &mut Tracer, doc: &mut String| {
        let t = Instant::now();
        let s = tr.begin("obs.stream_drain");
        drain_ndjson(m.trace(), m.obs(), &mut cursor, doc);
        tr.end(s);
        drain_s += t.elapsed().as_secs_f64();
    };
    let before = alloc::snapshot();
    loop {
        let more = step(m, probe)?;
        if m.steps_executed().is_multiple_of(DRAIN_INTERVAL_STEPS) {
            drain(m, tr, doc);
        }
        if !more {
            break;
        }
    }
    drain(m, tr, doc);
    if let Probe::Allocs(delta) = probe {
        delta.add(before, alloc::snapshot());
    }
    Ok(start.elapsed().as_secs_f64() - drain_s)
}

/// Every exporter over the recorded run, batch and replayed from the
/// streamed document; the two must agree byte for byte.
fn export_all(
    m: &TcfMachine,
    doc: &str,
    tr: &mut Tracer,
    counts: &mut Counts,
) -> Result<(), String> {
    let (trace, events) = tr.time("obs.events_clone", || {
        (m.trace().events(), m.obs().events())
    });
    let export = |tr: &mut Tracer, trace: &[_], events: &[_], trace_dropped, events_dropped| {
        let chrome = tr.time("obs.chrome", || {
            chrome_trace_with_drops(trace, events, trace_dropped, events_dropped)
        });
        let replayed = tr.time("obs.replay", || MetricsRegistry::replay(trace, events));
        (
            chrome,
            tr.time("obs.metrics_json", || metrics_json(&replayed)),
        )
    };
    let batch = export(tr, &trace, &events, m.trace().dropped(), m.obs().dropped());
    let re = tr.time("obs.stream_parse", || parse_stream(doc))?;
    let streamed = export(
        tr,
        &re.trace,
        &re.events,
        re.trace_dropped,
        re.events_dropped,
    );
    if batch.0 != streamed.0 {
        return Err("Chrome trace replayed from the stream differs from the batch export".into());
    }
    if batch.1 != streamed.1 {
        return Err("metrics JSON replayed from the stream differs from the batch export".into());
    }
    counts.add("obs.trace_events", trace.len() as u64);
    counts.add("obs.flow_events", events.len() as u64);
    counts.add("obs.chrome_bytes", batch.0.len() as u64);
    counts.add("obs.stream_bytes", doc.len() as u64);
    Ok(())
}

fn collect_counts(m: &TcfMachine, c: &mut Counts) {
    let st = m.stats();
    c.add("core.steps", m.steps_executed());
    c.add("core.cycles", m.cycles());
    c.add("core.ops", st.issued());
    c.add("machine.issued", st.issued());
    c.add("machine.compute_ops", st.compute_ops);
    c.add("machine.shared_refs", st.shared_refs);
    c.add("machine.local_refs", st.local_refs);
    c.add("machine.fetches", st.fetches);
    c.add("machine.bubbles", st.bubbles);
    c.add("machine.overhead_cycles", st.overhead_cycles);
    for b in m.buffers() {
        c.add("machine.buffer_switches", b.switches);
        c.add("machine.buffer_misses", b.misses);
    }
    let d = m.thick_decay();
    c.add("core.decay_total", d.total());
    c.add("core.decay_setthick", d.setthick);
    c.add("core.decay_lane_write", d.lane_write);
    c.add("core.decay_mem_reply", d.mem_reply);
    c.add("core.decay_mask_runs", d.mask_runs);
    c.add("core.decay_fault", d.fault);
    c.add("core.decay_balanced_resume", d.balanced_resume);
    c.add("core.decay_async_slice", d.async_slice);
    let e = m.engine_counters();
    c.add("core.slices_compressed", e.compressed_slices);
    c.add("core.slices_perlane", e.per_lane_slices);
    c.add("core.mask_hits", e.mask_hits);
    c.add("core.mask_misses", e.mask_misses);
    c.add("core.coalesce_hits", e.coalesce_hits);
    c.add("core.coalesce_misses", e.coalesce_misses);
    let mem = m.mem_stats();
    c.add("mem.refs", mem.refs as u64);
    c.add("mem.combined", mem.combined as u64);
    c.add("mem.hot_addrs", mem.hot_addrs as u64);
    c.add("mem.max_module_load", mem.max_module_load() as u64);
    let bulk = m.bulk_stats();
    c.add("mem.bulk_fast", bulk.fast);
    c.add("mem.bulk_expanded", bulk.expanded);
    c.add("mem.bulk_expanded_lanes", bulk.expanded_lanes);
    let net = m.net_stats();
    c.add("net.msgs", net.messages as u64);
    c.add("net.hops_total", net.hops as u64);
    c.add("net.queue_cycles_total", net.queue_cycles);
    c.add("net.route_sends", net.route_sends as u64);
    c.add("obs.dropped", m.trace().dropped() + m.obs().dropped());
}
