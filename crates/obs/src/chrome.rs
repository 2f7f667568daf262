//! Chrome `trace_event` JSON export.
//!
//! Produces a JSON document loadable in Perfetto (<https://ui.perfetto.dev>)
//! or `chrome://tracing`:
//!
//! * **pid 0 — "groups"**: one track per processor group. Consecutive
//!   cycles with the same issue kind and flow are merged into one complete
//!   (`ph: "X"`) span named by [`UnitKind::as_str`], with the flow in
//!   `args`. The trace arrives as runs and a span is computed per run,
//!   not per unit.
//! * **pid 1 — "flows"**: one track per flow, carrying the lifecycle
//!   spans — `spawn`, `split`, `join`, `mode_switch`, `thickness`,
//!   `reload`, `halt`, and `wait` spans stretched between matching
//!   `WaitBegin`/`WaitEnd` events.
//!
//! One simulated cycle maps to one microsecond of trace time (`ts` is in
//! µs in the trace_event format). High-volume bookkeeping events (`Fetch`,
//! `Spill`, `StepEnd`) are deliberately not exported.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};
use std::fmt::Write as _;

use crate::event::{FlowEvent, TimedEvent};
use crate::trace::{FlowTag, TraceEvent, UnitKind};

/// One complete (`ph: "X"`) span before serialization.
struct Span<'a> {
    pid: u32,
    tid: u64,
    ts: u64,
    dur: u64,
    name: &'a str,
    args: Vec<(&'a str, String)>,
}

fn push_span(out: &mut String, first: &mut bool, span: &Span<'_>) {
    if !*first {
        out.push(',');
    }
    *first = false;
    let _ = write!(
        out,
        "{{\"ph\":\"X\",\"pid\":{},\"tid\":{},\"ts\":{},\"dur\":{},\"name\":\"{}\"",
        span.pid, span.tid, span.ts, span.dur, span.name
    );
    if !span.args.is_empty() {
        out.push_str(",\"args\":{");
        for (i, (k, v)) in span.args.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{k}\":{v}");
        }
        out.push('}');
    }
    out.push('}');
}

fn push_meta(
    out: &mut String,
    first: &mut bool,
    pid: u32,
    tid: Option<u64>,
    kind: &str,
    name: &str,
) {
    if !*first {
        out.push(',');
    }
    *first = false;
    let _ = write!(out, "{{\"ph\":\"M\",\"pid\":{pid}");
    if let Some(tid) = tid {
        let _ = write!(out, ",\"tid\":{tid}");
    }
    let _ = write!(
        out,
        ",\"name\":\"{kind}\",\"args\":{{\"name\":\"{name}\"}}}}"
    );
}

/// One group's issue track being written: the units of the group in
/// cycle order (ties in recording order), with consecutive cycles of one
/// kind and flow merged into one span. Units that share a cycle — an
/// `ilp_width > 1` run — are a span each, so such a run costs its output;
/// a one-per-cycle run costs O(1).
struct GroupTrack<'a> {
    out: &'a mut String,
    first: &'a mut bool,
    tid: u64,
    /// The span still growing: `(first cycle, last cycle, kind, flow)`.
    open: Option<(u64, u64, UnitKind, Option<FlowTag>)>,
}

impl GroupTrack<'_> {
    fn flush(&mut self) {
        let Some((ts, end, kind, flow)) = self.open.take() else {
            return;
        };
        let args = flow.map(|f| ("flow", f.to_string()));
        push_span(
            self.out,
            self.first,
            &Span {
                pid: 0,
                tid: self.tid,
                ts,
                dur: end - ts + 1,
                name: kind.as_str(),
                args: args.into_iter().collect(),
            },
        );
    }

    /// `len` units, one per cycle from `cycle` on.
    fn chain(&mut self, cycle: u64, len: u64, kind: UnitKind, flow: Option<FlowTag>) {
        match &mut self.open {
            Some((_, end, k, f))
                if (*k, *f) == (kind, flow) && end.checked_add(1) == Some(cycle) =>
            {
                *end += len;
            }
            _ => {
                self.flush();
                self.open = Some((cycle, cycle + (len - 1), kind, flow));
            }
        }
    }

    /// `n` units on one cycle: only the first can continue a span and
    /// only the last can be continued.
    fn row(&mut self, cycle: u64, n: u64, kind: UnitKind, flow: Option<FlowTag>) {
        self.chain(cycle, 1, kind, flow);
        for _ in 1..n {
            self.flush();
            self.open = Some((cycle, cycle, kind, flow));
        }
    }

    fn run(&mut self, r: &TraceEvent) {
        self.row(r.cycle, r.first(), r.kind, r.flow);
        let mut left = r.count() - r.first();
        if left > 0 && r.width() == 1 {
            self.chain(r.cycle + 1, left, r.kind, r.flow);
            return;
        }
        let mut cycle = r.cycle;
        while left > 0 {
            cycle += 1;
            let n = left.min(r.width());
            self.row(cycle, n, r.kind, r.flow);
            left -= n;
        }
    }

    /// Writes the track of `runs` (one group's, in recording order). The
    /// machine records a group's runs in cycle order and each is then
    /// taken whole; runs a document put out of order or on overlapping
    /// cycles are cut where another run's units sort in between.
    fn spans(&mut self, mut runs: Vec<TraceEvent>) {
        let mut next: BinaryHeap<Reverse<(u64, usize)>> = runs
            .iter()
            .enumerate()
            .map(|(seq, r)| Reverse((r.cycle, seq)))
            .collect();
        while let Some(Reverse((_, seq))) = next.pop() {
            let run = runs[seq];
            // Units of `run` that sort before the next run's first unit.
            let n = match next.peek() {
                None => run.count(),
                Some(&Reverse((cycle, other))) if seq < other => cycle
                    .checked_add(1)
                    .map_or(run.count(), |c| run.units_before(c)),
                Some(&Reverse((cycle, _))) => run.units_before(cycle),
            };
            self.run(&run.prefix(n));
            if n < run.count() {
                runs[seq] = run.suffix(n);
                next.push(Reverse((runs[seq].cycle, seq)));
            }
        }
        self.flush();
    }
}

/// Renders a trace and a flow-event stream as a Chrome `trace_event` JSON
/// document (`{"traceEvents": [...]}`).
pub fn chrome_trace(trace: &[TraceEvent], events: &[TimedEvent]) -> String {
    chrome_trace_with_drops(trace, events, 0, 0)
}

/// [`chrome_trace`], declaring how many events each ring buffer evicted
/// before export. Nonzero counts surface as global instant events named
/// `truncated: N trace events dropped` / `… flow events dropped` at the
/// start of the timeline, so a clipped recording is visibly clipped in
/// Perfetto rather than silently short. With both counts 0 the output is
/// byte-identical to [`chrome_trace`].
pub fn chrome_trace_with_drops(
    trace: &[TraceEvent],
    events: &[TimedEvent],
    trace_dropped: u64,
    events_dropped: u64,
) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    let mut first = true;

    for (dropped, what) in [(trace_dropped, "trace"), (events_dropped, "flow")] {
        if dropped > 0 {
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(
                out,
                "{{\"ph\":\"i\",\"pid\":0,\"tid\":0,\"ts\":0,\"s\":\"g\",\
                 \"name\":\"truncated: {dropped} {what} events dropped\"}}"
            );
        }
    }

    // --- pid 0: per-group issue tracks -------------------------------
    let mut groups: BTreeMap<usize, Vec<TraceEvent>> = BTreeMap::new();
    for e in trace {
        groups.entry(e.group).or_default().push(*e);
    }
    push_meta(&mut out, &mut first, 0, None, "process_name", "groups");
    for (g, runs) in groups {
        push_meta(
            &mut out,
            &mut first,
            0,
            Some(g as u64),
            "thread_name",
            &format!("group {g}"),
        );
        let mut track = GroupTrack {
            out: &mut out,
            first: &mut first,
            tid: g as u64,
            open: None,
        };
        track.spans(runs);
    }

    // --- pid 1: per-flow lifecycle tracks ----------------------------
    push_meta(&mut out, &mut first, 1, None, "process_name", "flows");
    let mut named_flows: BTreeMap<FlowTag, ()> = BTreeMap::new();
    let mut wait_open: BTreeMap<FlowTag, u64> = BTreeMap::new();
    let mut flow_spans: Vec<Span<'static>> = Vec::new();
    let span = |flow: FlowTag, ts: u64, dur: u64, name: &'static str, args| Span {
        pid: 1,
        tid: flow as u64,
        ts,
        dur,
        name,
        args,
    };
    for ev in events {
        let Some(flow) = ev.event.flow() else {
            continue;
        };
        named_flows.entry(flow).or_insert(());
        match ev.event {
            FlowEvent::FlowSpawned { thickness, .. } => {
                flow_spans.push(span(
                    flow,
                    ev.cycle,
                    1,
                    "spawn",
                    vec![("thickness", thickness.to_string())],
                ));
            }
            FlowEvent::Split { arms, .. } => {
                flow_spans.push(span(
                    flow,
                    ev.cycle,
                    1,
                    "split",
                    vec![("arms", arms.to_string())],
                ));
            }
            FlowEvent::Join { parent, .. } => {
                let mut args = Vec::new();
                if let Some(p) = parent {
                    args.push(("parent", p.to_string()));
                }
                flow_spans.push(span(flow, ev.cycle, 1, "join", args));
            }
            FlowEvent::ModeSwitch { mode, .. } => {
                flow_spans.push(span(
                    flow,
                    ev.cycle,
                    1,
                    "mode_switch",
                    vec![("mode", format!("\"{}\"", mode.as_str()))],
                ));
            }
            FlowEvent::ThicknessChange { from, to, .. } => {
                flow_spans.push(span(
                    flow,
                    ev.cycle,
                    1,
                    "thickness",
                    vec![("from", from.to_string()), ("to", to.to_string())],
                ));
            }
            FlowEvent::BufferReload { group, cost, .. } => {
                flow_spans.push(span(
                    flow,
                    ev.cycle,
                    cost.max(1),
                    "reload",
                    vec![("group", group.to_string()), ("cost", cost.to_string())],
                ));
            }
            FlowEvent::WaitBegin { .. } => {
                wait_open.entry(flow).or_insert(ev.cycle);
            }
            FlowEvent::WaitEnd { .. } => {
                if let Some(begin) = wait_open.remove(&flow) {
                    flow_spans.push(span(
                        flow,
                        begin,
                        (ev.cycle.saturating_sub(begin)).max(1),
                        "wait",
                        Vec::new(),
                    ));
                }
            }
            FlowEvent::FlowHalted { .. } => {
                flow_spans.push(span(flow, ev.cycle, 1, "halt", Vec::new()));
            }
            FlowEvent::Fetch { .. } | FlowEvent::Spill { .. } | FlowEvent::StepEnd { .. } => {}
        }
    }
    // Waits still open at end of stream: close them at their begin cycle.
    for (flow, begin) in wait_open {
        flow_spans.push(span(flow, begin, 1, "wait", Vec::new()));
    }
    for flow in named_flows.keys() {
        push_meta(
            &mut out,
            &mut first,
            1,
            Some(*flow as u64),
            "thread_name",
            &format!("flow {flow}"),
        );
    }
    for s in &flow_spans {
        push_span(&mut out, &mut first, s);
    }

    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Mode;
    use crate::json::validate_json;

    fn unit(cycle: u64, flow: Option<FlowTag>, kind: UnitKind) -> TraceEvent {
        TraceEvent::unit(cycle, 0, flow, None, kind)
    }

    fn timed(cycle: u64, event: FlowEvent) -> TimedEvent {
        TimedEvent {
            step: 0,
            cycle,
            event,
        }
    }

    #[test]
    fn empty_streams_are_valid_json() {
        let json = chrome_trace(&[], &[]);
        validate_json(&json).expect("valid JSON");
        assert!(json.contains("\"traceEvents\""));
    }

    #[test]
    fn consecutive_same_kind_cycles_merge() {
        let trace = vec![
            unit(0, Some(1), UnitKind::Compute),
            unit(1, Some(1), UnitKind::Compute),
            unit(2, Some(1), UnitKind::Compute),
            unit(3, None, UnitKind::Bubble),
        ];
        let json = chrome_trace(&trace, &[]);
        validate_json(&json).expect("valid JSON");
        assert!(json.contains("\"ts\":0,\"dur\":3,\"name\":\"compute\""));
        assert!(json.contains("\"ts\":3,\"dur\":1,\"name\":\"bubble\""));
    }

    #[test]
    fn lifecycle_spans_appear_on_flow_tracks() {
        let events = vec![
            timed(
                0,
                FlowEvent::FlowSpawned {
                    flow: 1,
                    parent: None,
                    thickness: 8,
                },
            ),
            timed(2, FlowEvent::Split { flow: 1, arms: 2 }),
            timed(
                2,
                FlowEvent::WaitBegin {
                    flow: 1,
                    pending: 2,
                },
            ),
            timed(
                5,
                FlowEvent::ModeSwitch {
                    flow: 2,
                    mode: Mode::Numa,
                },
            ),
            timed(
                9,
                FlowEvent::Join {
                    flow: 2,
                    parent: Some(1),
                },
            ),
            timed(9, FlowEvent::WaitEnd { flow: 1 }),
        ];
        let json = chrome_trace(&[], &events);
        validate_json(&json).expect("valid JSON");
        assert!(json.contains("\"name\":\"split\""));
        assert!(json.contains("\"name\":\"join\""));
        assert!(json.contains("\"name\":\"mode_switch\""));
        assert!(json.contains("\"ts\":2,\"dur\":7,\"name\":\"wait\""));
        assert!(json.contains("\"name\":\"flow 1\""));
        assert!(json.contains("\"name\":\"flow 2\""));
    }

    #[test]
    fn drop_counts_surface_as_instant_events() {
        let json = chrome_trace_with_drops(&[], &[], 12, 0);
        validate_json(&json).expect("valid JSON");
        assert!(json.contains("\"name\":\"truncated: 12 trace events dropped\""));
        assert!(!json.contains("flow events dropped"));
        // Zero drops emit nothing extra — byte-identical to chrome_trace.
        assert_eq!(
            chrome_trace_with_drops(&[], &[], 0, 0),
            chrome_trace(&[], &[])
        );
    }

    #[test]
    fn bookkeeping_events_are_excluded() {
        let events = vec![
            timed(0, FlowEvent::Fetch { flow: 1 }),
            timed(1, FlowEvent::StepEnd { step: 1, cycle: 1 }),
        ];
        let json = chrome_trace(&[], &events);
        validate_json(&json).expect("valid JSON");
        assert!(!json.contains("\"name\":\"fetch\""));
        assert!(!json.contains("step_end"));
    }
}
