//! Trace/metrics export helpers behind `repro --trace-out` and
//! `repro metrics`.
//!
//! Runs one small demo workload that exercises every lifecycle event the
//! observability layer records — `parallel` (split/join), `numa`
//! (mode switches both ways), a thickness change and TCF-buffer reloads —
//! with both the cycle-level [`Trace`] and the flow-event [`ObsSink`]
//! enabled, then serializes the run as a Chrome `trace_event` JSON file
//! (loadable in Perfetto / `chrome://tracing`) or a stable-schema metrics
//! dump. See `docs/OBSERVABILITY.md`.
//!
//! [`Trace`]: tcf_obs::Trace
//! [`ObsSink`]: tcf_obs::ObsSink

use tcf_core::{TcfMachine, Variant};
use tcf_isa::word::Word;
use tcf_lang::compile;
use tcf_machine::MachineConfig;
use tcf_obs::chrome::chrome_trace_with_drops;
use tcf_obs::json::metrics_json;
use tcf_obs::stream::{drain_ndjson, header_line, DRAIN_INTERVAL_STEPS};
use tcf_obs::StreamCursor;

use crate::workloads::{A_BASE, B_BASE, C_BASE};

/// The demo source: a two-arm `parallel` block (split + join spans), a
/// NUMA sequential section (mode-switch spans) and a final thick phase
/// (thickness-change span).
fn demo_source() -> String {
    format!(
        "shared int a[32] @ {A_BASE};
         shared int b[32] @ {B_BASE};
         shared int c[32] @ {C_BASE};
         shared int acc @ 70;
         void main() {{
             parallel {{
                 #16: c[.] = a[.] + b[.];
                 #16: c[. + 16] = a[. + 16] * 2;
             }}
             numa (4) {{
                 int i = 0;
                 while (i < 12) {{
                     i = i + 1;
                 }}
                 acc = i;
             }}
             #32;
             c[.] = c[.] + 1;
         }}"
    )
}

/// Builds the demo machine with tracing and flow-event recording on.
pub fn demo_machine(config: &MachineConfig) -> TcfMachine {
    let program = compile(&demo_source()).expect("demo workload compiles");
    let mut m = TcfMachine::new(config.clone(), Variant::SingleInstruction, program);
    for i in 0..32 {
        m.poke(A_BASE + i, i as Word).unwrap();
        m.poke(B_BASE + i, 2 * i as Word).unwrap();
    }
    m.set_tracing(true);
    m.set_observing(true);
    m
}

/// Runs the demo and returns the Chrome `trace_event` JSON document,
/// including ring-truncation notices.
pub fn chrome_trace_demo(config: &MachineConfig) -> String {
    let mut m = demo_machine(config);
    m.run(1_000_000).expect("demo runs to completion");
    chrome_trace_with_drops(
        &m.trace().events(),
        &m.obs().events(),
        m.trace().dropped(),
        m.obs().dropped(),
    )
}

/// Runs the demo with a live streaming subscriber attached: every
/// [`DRAIN_INTERVAL_STEPS`] machine steps (and once after the run),
/// everything new in both event buffers is drained through a
/// [`StreamCursor`] and appended as `tcf-obs-stream/v2` NDJSON — the
/// incremental pump behind `repro --stream`. The resulting document
/// replays through the batch exporters to byte-identical artifacts (the
/// round-trip test below pins this); the drain interval only changes how
/// the lines are interleaved between the two streams, never the per-stream
/// sequences the replay reads.
pub fn stream_demo(config: &MachineConfig) -> String {
    let mut m = demo_machine(config);
    let mut cursor = StreamCursor::default();
    let mut doc = header_line();
    let mut steps = 0u64;
    loop {
        let more = m.step().expect("demo runs to completion");
        steps += 1;
        if steps.is_multiple_of(DRAIN_INTERVAL_STEPS) {
            drain_ndjson(m.trace(), m.obs(), &mut cursor, &mut doc);
        }
        if !more {
            break;
        }
    }
    drain_ndjson(m.trace(), m.obs(), &mut cursor, &mut doc);
    doc
}

/// Runs the demo and returns the stable-schema metrics JSON dump
/// (`tcf-metrics/v1`), including the per-step snapshots replayed from the
/// recorded event stream.
pub fn metrics_demo(config: &MachineConfig) -> String {
    let mut m = demo_machine(config);
    m.run(1_000_000).expect("demo runs to completion");
    let mut reg = m.metrics();
    let replayed = tcf_obs::MetricsRegistry::replay(&m.trace().events(), &m.obs().events());
    reg.snapshots_mut()
        .extend(replayed.snapshots().iter().cloned());
    metrics_json(&reg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcf_obs::json::validate_json;

    #[test]
    fn demo_trace_is_valid_and_has_lifecycle_spans() {
        let json = chrome_trace_demo(&MachineConfig::small());
        validate_json(&json).expect("chrome trace is valid JSON");
        for name in ["split", "join", "mode_switch"] {
            assert!(
                json.contains(&format!("\"name\":\"{name}\"")),
                "missing {name} span in {json}"
            );
        }
    }

    #[test]
    fn streamed_demo_replays_to_identical_artifacts() {
        use tcf_obs::chrome::chrome_trace_with_drops;
        use tcf_obs::stream::parse_stream;
        use tcf_obs::MetricsRegistry;

        let config = MachineConfig::small();
        let doc = stream_demo(&config);
        let re = parse_stream(&doc).expect("stream parses");
        assert_eq!(re.trace_dropped + re.events_dropped, 0, "unbounded sinks");

        let mut m = demo_machine(&config);
        m.run(1_000_000).unwrap();
        assert_eq!(re.trace, m.trace().events(), "trace stream diverged");
        assert_eq!(re.events, m.obs().events(), "flow stream diverged");
        // Replaying the streamed document through the batch exporters is
        // byte-identical to exporting the non-streamed run directly.
        assert_eq!(
            chrome_trace_with_drops(&re.trace, &re.events, re.trace_dropped, re.events_dropped),
            chrome_trace_with_drops(
                &m.trace().events(),
                &m.obs().events(),
                m.trace().dropped(),
                m.obs().dropped()
            )
        );
        assert_eq!(
            metrics_json(&MetricsRegistry::replay(&re.trace, &re.events)),
            metrics_json(&MetricsRegistry::replay(
                &m.trace().events(),
                &m.obs().events()
            ))
        );
    }

    #[test]
    fn demo_metrics_report_the_new_counters() {
        let json = metrics_demo(&MachineConfig::small());
        for key in [
            "thick.decay_setthick",
            "thick.decay_lane_write",
            "thick.decay_mem_reply",
            "thick.decay_fault",
            "thick.decay_balanced_resume",
            "thick.decay_async_slice",
            "engine.compressed_slices",
            "engine.coalesce_hits",
            "engine.flows_visited",
            "mem.bulk_fast",
            "net.route_sends",
            "obs.trace_dropped",
        ] {
            assert!(json.contains(&format!("\"{key}\"")), "missing {key}");
        }
    }

    #[test]
    fn demo_metrics_are_valid_json_with_snapshots() {
        let json = metrics_demo(&MachineConfig::small());
        validate_json(&json).expect("metrics dump is valid JSON");
        assert!(json.contains("\"schema\":\"tcf-metrics/v1\""), "{json}");
        assert!(json.contains("machine.cycles"), "{json}");
        assert!(json.contains("\"steps\":["), "{json}");
    }
}
