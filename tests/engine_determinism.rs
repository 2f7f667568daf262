//! Determinism regression for the parallel engine: running the same
//! workload twice under `par:4` must produce byte-identical exported
//! artifacts — the Chrome trace JSON and the metrics JSON — not merely
//! equal final memories. Any scheduling leak (thread completion order
//! reaching a stat, an event stream, a histogram) shows up here as a
//! one-byte diff.
//!
//! The workload is the scan at two sizes: [`SMALL`], where `par:N` never
//! leaves the coordinator, and [`BIG`] on hashed placement, where every
//! load and store is a sharded instruction and a sharded memory step until
//! the shrinking thickness falls through the grain. Each test runs both and
//! checks through the `sharded_*` counters which one it got.

use tcf::core::{Engine, TcfMachine, Variant};
use tcf::machine::MachineConfig;
use tcf::mem::ModuleMap;
use tcf_bench::workloads;
use tcf_obs::chrome::chrome_trace;
use tcf_obs::json::metrics_json;
use tcf_obs::stream::{drain_ndjson, header_line, parse_stream};
use tcf_obs::StreamCursor;

const SMALL: usize = 96;
const BIG: usize = 3 << 13;

/// The scan of `size` elements, ready to run under `engine`: on the small
/// machine, with the default machine's hashed module map at [`BIG`].
fn scan_machine(size: usize, engine: Engine) -> TcfMachine {
    let mut config = MachineConfig::small();
    if size == BIG {
        config.module_map = ModuleMap::linear(0xC0FFEE);
    }
    let mut m = TcfMachine::new(
        config,
        Variant::SingleInstruction,
        workloads::tcf_scan(size),
    );
    m.set_engine(engine);
    workloads::init_arrays_tcf(&mut m, size.min(1 << 14));
    m
}

/// Whether the run sharded what its size and engine say it should: slices
/// and memory buckets at [`BIG`] under the parallel engine, nothing
/// otherwise.
fn sharded_as_sized(m: &TcfMachine, size: usize) -> bool {
    let c = m.engine_counters();
    if size == BIG && m.engine() != Engine::Sequential {
        c.sharded_slices > 0 && c.sharded_buckets > 0
    } else {
        c.sharded_slices == 0 && c.sharded_buckets == 0
    }
}

fn artifacts(size: usize, engine: Engine) -> (String, String) {
    let mut m = scan_machine(size, engine);
    m.set_tracing(true);
    m.set_observing(true);
    m.run(50_000).expect("workload halts");
    assert!(sharded_as_sized(&m, size), "{size} / {engine:?}");
    (
        chrome_trace(&m.trace().events(), &m.obs().events()),
        metrics_json(&m.metrics()),
    )
}

#[test]
fn repeated_parallel_runs_export_identical_bytes() {
    let engine = Engine::Parallel { workers: 4 };
    for size in [SMALL, BIG] {
        let (trace_a, metrics_a) = artifacts(size, engine);
        let (trace_b, metrics_b) = artifacts(size, engine);
        assert!(trace_a == trace_b, "{size}: Chrome trace bytes diverged");
        assert_eq!(metrics_a, metrics_b, "{size}: metrics JSON bytes diverged");
        assert!(!trace_a.is_empty() && !metrics_a.is_empty());
    }
}

#[test]
fn parallel_artifacts_match_sequential_bytes() {
    for size in [SMALL, BIG] {
        let (trace_seq, metrics_seq) = artifacts(size, Engine::Sequential);
        for workers in [1usize, 4] {
            let (trace_par, metrics_par) = artifacts(size, Engine::Parallel { workers });
            assert!(
                trace_seq == trace_par,
                "{size}: trace diverged under par:{workers}"
            );
            assert_eq!(
                metrics_seq, metrics_par,
                "{size}: metrics diverged under par:{workers}"
            );
        }
    }
}

/// How the telemetry pipeline observes a run in [`observed_run`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Obs {
    /// Sinks disabled — the hooks early-return.
    Disabled,
    /// Recording on, exported in one batch after the run.
    Recording,
    /// Recording on plus a per-step streaming drain; the exported
    /// artifacts are rebuilt from the parsed NDJSON document.
    Streaming,
}

/// Runs the scan workload under one engine/observability pairing and
/// returns (results bytes, exported artifacts). Results — the output
/// array plus step/cycle counts — exist for every mode; artifacts only
/// when events were recorded.
fn observed_run(size: usize, engine: Engine, obs: Obs) -> (Vec<i64>, Option<(String, String)>) {
    let mut m = scan_machine(size, engine);
    if obs != Obs::Disabled {
        m.set_tracing(true);
        m.set_observing(true);
    }
    let artifacts = match obs {
        Obs::Streaming => {
            let mut cursor = StreamCursor::default();
            let mut doc = header_line();
            loop {
                let more = m.step().expect("workload halts");
                drain_ndjson(m.trace(), m.obs(), &mut cursor, &mut doc);
                if !more {
                    break;
                }
            }
            let re = parse_stream(&doc).expect("stream parses");
            Some((
                chrome_trace(&re.trace, &re.events),
                metrics_json(&tcf_obs::MetricsRegistry::replay(&re.trace, &re.events)),
            ))
        }
        Obs::Recording | Obs::Disabled => {
            m.run(50_000).expect("workload halts");
            (obs == Obs::Recording).then(|| {
                (
                    chrome_trace(&m.trace().events(), &m.obs().events()),
                    metrics_json(&tcf_obs::MetricsRegistry::replay(
                        &m.trace().events(),
                        &m.obs().events(),
                    )),
                )
            })
        }
    };
    assert!(sharded_as_sized(&m, size), "{size} / {engine:?} / {obs:?}");
    let mut results = m.peek_range(workloads::A_BASE, size).expect("output array");
    results.push(m.steps_executed() as i64);
    results.push(m.cycles() as i64);
    (results, artifacts)
}

/// The telemetry pipeline is a pure observer: disabled, recording and
/// streaming sinks all leave the simulation byte-identical, and the
/// streamed artifacts replay to the same bytes the batch export
/// produces — under both engines, on either side of the grain.
#[test]
fn observability_modes_never_perturb_results_or_artifacts() {
    for size in [SMALL, BIG] {
        for engine in [Engine::Sequential, Engine::Parallel { workers: 4 }] {
            let (res_off, none) = observed_run(size, engine, Obs::Disabled);
            assert!(none.is_none(), "disabled sinks recorded events");
            let (res_rec, rec) = observed_run(size, engine, Obs::Recording);
            let (res_str, streamed) = observed_run(size, engine, Obs::Streaming);
            assert!(res_off == res_rec, "{size}: recording perturbed {engine:?}");
            assert!(res_off == res_str, "{size}: streaming perturbed {engine:?}");
            assert!(
                rec.expect("recording artifacts") == streamed.expect("streamed artifacts"),
                "{size}: streamed artifacts diverged from batch export under {engine:?}"
            );
        }
    }
}
