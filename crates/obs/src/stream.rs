//! Incremental NDJSON event streaming.
//!
//! Turns the batch sinks into a live telemetry wire: a subscriber holds a
//! [`StreamCursor`] into the trace and flow-event buffers and periodically
//! appends everything new as newline-delimited JSON (`tcf-obs-stream/v2`).
//! The format round-trips: [`parse_stream`] reconstructs the exact
//! [`TraceEvent`]/`TimedEvent` sequences, so a streamed run replayed through
//! the batch exporters (`crate::chrome`, `MetricsRegistry::replay`) is
//! byte-identical to a non-streamed run's artifacts — the contract
//! `repro --stream` and its round-trip test hold.
//!
//! One JSON object per line; the first line is the schema header. Line
//! shapes (all keys fixed, values plain JSON):
//!
//! ```text
//! {"schema":"tcf-obs-stream/v2"}
//! {"t":"trace","cycle":4,"group":0,"flow":1,"thread":null,"kind":"compute"}
//! {"t":"trun","cycle":4,"group":0,"flow":1,"thread0":0,"count":256,"first":2,"width":4,"kind":"compute"}
//! {"t":"brun","cycle":9,"group":0,"count":12,"kind":"bubble"}
//! {"t":"flow","step":1,"cycle":7,"event":"split","flow":1,"arms":2}
//! {"t":"drop","stream":"trace","missed":128}
//! ```
//!
//! `trun` and `brun` are run lines (new in v2), and they are the trace's
//! own records: the recorder stores a thick instruction's issue as one
//! [`TraceEvent`] run ([`TraceEvent::absorb`] is the merge rule), and the
//! writer puts one stored run on one line — nothing is matched or
//! expanded on the way out or on the way in. A `trun` is a run with a flow
//! and threads: `count` units sharing group/flow/kind, on threads
//! `thread0..thread0+count`, in the issue cadence's cycle shape — `first`
//! units on `cycle`, then `width` per following cycle. A `brun` is a
//! flow-less, thread-less run (drain bubbles), one unit per cycle. A run
//! of fewer than three units, or of a flow without threads (fetches,
//! overhead cycles — v2 has no line for those), goes out as one plain
//! `trace` line per unit. [`parse_stream`] pushes every line through the
//! same merge, so what it returns is what the streamed machine stored,
//! however the drains cut a growing run into lines; a run line whose
//! numbers do not describe a run is an error.
//!
//! `drop` lines make ring-buffer truncation explicit on the wire: a
//! subscriber that fell behind a bounded sink learns exactly how many
//! events it lost (drop-aware resume), instead of silently re-syncing.
//! Like the rest of the crate, encoding and parsing are hand-rolled — the
//! workspace deliberately has no JSON dependency.

use crate::event::{FlowEvent, Mode, TimedEvent};
use crate::sink::ObsSink;
use crate::trace::{Trace, TraceEvent, UnitKind};

/// Schema identifier of the NDJSON stream, following the
/// `tcf-metrics/v1` convention.
pub const STREAM_SCHEMA: &str = "tcf-obs-stream/v2";

/// How many machine steps a streaming pump should let pass between
/// [`drain_ndjson`] calls. Draining every step costs a cursor walk per
/// step for a handful of fresh events; batching amortizes that without
/// changing the wire bytes (events are encoded exactly once either way,
/// in the same order). Callers with bounded sinks should keep the
/// interval well under `capacity / events_per_step` so nothing is
/// evicted unseen.
pub const DRAIN_INTERVAL_STEPS: u64 = 32;

/// A subscriber's position in both event buffers, the trace's counted in
/// units. Start at [`StreamCursor::default`] to stream from the beginning
/// of a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StreamCursor {
    /// Next trace-unit sequence number wanted.
    pub trace: u64,
    /// Next flow-event sequence number wanted.
    pub events: u64,
}

/// The schema header — the first line of every stream.
pub fn header_line() -> String {
    format!("{{\"schema\":\"{STREAM_SCHEMA}\"}}\n")
}

/// Upper bound on one encoded NDJSON line: the longest line shape
/// (`trun` with 20-digit stamps in every numeric field) stays under 250
/// bytes; 256 leaves slack so a future field can't silently overflow
/// (the staging buffer below panics on overflow rather than truncating).
const LINE_CAP: usize = 256;

/// One NDJSON line staged on the stack and flushed to the document with
/// a single `push_str` — a hand-rolled `itoa` plus constant-fragment
/// copies, so the per-event encoders never touch the `core::fmt`
/// machinery (padding state, trait dispatch, per-`write!` error
/// plumbing) and the document `String` sees one append per line instead
/// of ~10. The streaming overhead bench (`obs_overhead_stream`) is why:
/// a traced thick run encodes ~500 events per machine step, and the
/// encoder has to keep pace with the simulation itself.
struct LineBuf {
    len: usize,
    buf: [u8; LINE_CAP],
}

impl LineBuf {
    #[inline]
    fn new() -> LineBuf {
        LineBuf {
            len: 0,
            buf: [0; LINE_CAP],
        }
    }

    /// Appends a constant fragment (key names, punctuation, enum names).
    #[inline]
    fn lit(&mut self, s: &str) {
        self.buf[self.len..self.len + s.len()].copy_from_slice(s.as_bytes());
        self.len += s.len();
    }

    /// Appends `v` in decimal.
    #[inline]
    fn num(&mut self, mut v: u64) {
        let mut tmp = [0u8; 20];
        let mut i = tmp.len();
        loop {
            i -= 1;
            tmp[i] = b'0' + (v % 10) as u8;
            v /= 10;
            if v == 0 {
                break;
            }
        }
        let n = tmp.len() - i;
        self.buf[self.len..self.len + n].copy_from_slice(&tmp[i..]);
        self.len += n;
    }

    /// Appends `v` in decimal, or the JSON literal `null`.
    #[inline]
    fn opt(&mut self, v: Option<u64>) {
        match v {
            Some(v) => self.num(v),
            None => self.lit("null"),
        }
    }

    /// Appends the staged line to the document.
    #[inline]
    fn flush(&self, out: &mut String) {
        // Only ASCII fragments and digits ever go in, so this never fails.
        out.push_str(std::str::from_utf8(&self.buf[..self.len]).unwrap());
    }
}

/// Shortest run worth a `trun`/`brun` line: below this, plain `trace`
/// lines are no longer on the wire than the run encoding.
const MIN_RUN: u64 = 3;

/// Appends one stored run to `out`: a `trun` line for a run with a flow
/// and threads, a `brun` line for a flow-less thread-less one, and one
/// plain `trace` line per unit for a run of fewer than three units or of a
/// kind v2 has no run line for (a flow without threads: fetches,
/// overhead). Every line ends in a newline.
pub fn write_trace_line(out: &mut String, e: &TraceEvent) {
    let mut l = LineBuf::new();
    match (e.flow, e.thread) {
        (Some(flow), Some(thread0)) if e.count() >= MIN_RUN => {
            l.lit("{\"t\":\"trun\",\"cycle\":");
            l.num(e.cycle);
            l.lit(",\"group\":");
            l.num(e.group as u64);
            l.lit(",\"flow\":");
            l.num(u64::from(flow));
            l.lit(",\"thread0\":");
            l.num(thread0 as u64);
            l.lit(",\"count\":");
            l.num(e.count());
            l.lit(",\"first\":");
            l.num(e.first());
            l.lit(",\"width\":");
            l.num(e.width());
        }
        (None, None) if e.count() >= MIN_RUN => {
            l.lit("{\"t\":\"brun\",\"cycle\":");
            l.num(e.cycle);
            l.lit(",\"group\":");
            l.num(e.group as u64);
            l.lit(",\"count\":");
            l.num(e.count());
        }
        _ if e.count() > 1 => {
            for unit in e.units() {
                write_trace_line(out, &unit);
            }
            return;
        }
        _ => {
            l.lit("{\"t\":\"trace\",\"cycle\":");
            l.num(e.cycle);
            l.lit(",\"group\":");
            l.num(e.group as u64);
            l.lit(",\"flow\":");
            l.opt(e.flow.map(u64::from));
            l.lit(",\"thread\":");
            l.opt(e.thread.map(|t| t as u64));
        }
    }
    l.lit(",\"kind\":\"");
    l.lit(e.kind.as_str());
    l.lit("\"}\n");
    l.flush(out);
}

/// Encodes one stored run as its NDJSON line or lines.
pub fn trace_line(e: &TraceEvent) -> String {
    let mut out = String::new();
    write_trace_line(&mut out, e);
    out
}

impl LineBuf {
    #[inline]
    fn flow_field(&mut self, flow: u32) {
        self.lit(",\"flow\":");
        self.num(u64::from(flow));
    }
}

/// Appends one timed flow event to `out` as an NDJSON line (newline
/// included).
pub fn write_flow_line(out: &mut String, e: &TimedEvent) {
    let mut l = LineBuf::new();
    l.lit("{\"t\":\"flow\",\"step\":");
    l.num(e.step);
    l.lit(",\"cycle\":");
    l.num(e.cycle);
    l.lit(",\"event\":\"");
    l.lit(e.event.name());
    l.lit("\"");
    match e.event {
        FlowEvent::FlowSpawned {
            flow,
            parent,
            thickness,
        } => {
            l.flow_field(flow);
            l.lit(",\"parent\":");
            l.opt(parent.map(u64::from));
            l.lit(",\"thickness\":");
            l.num(thickness as u64);
        }
        FlowEvent::Split { flow, arms } => {
            l.flow_field(flow);
            l.lit(",\"arms\":");
            l.num(arms as u64);
        }
        FlowEvent::Join { flow, parent } => {
            l.flow_field(flow);
            l.lit(",\"parent\":");
            l.opt(parent.map(u64::from));
        }
        FlowEvent::ModeSwitch { flow, mode } => {
            l.flow_field(flow);
            l.lit(",\"mode\":\"");
            l.lit(mode.as_str());
            l.lit("\"");
        }
        FlowEvent::ThicknessChange { flow, from, to } => {
            l.flow_field(flow);
            l.lit(",\"from\":");
            l.num(from as u64);
            l.lit(",\"to\":");
            l.num(to as u64);
        }
        FlowEvent::BufferReload { flow, group, cost } => {
            l.flow_field(flow);
            l.lit(",\"group\":");
            l.num(group as u64);
            l.lit(",\"cost\":");
            l.num(cost);
        }
        FlowEvent::WaitBegin { flow, pending } => {
            l.flow_field(flow);
            l.lit(",\"pending\":");
            l.num(pending as u64);
        }
        FlowEvent::WaitEnd { flow }
        | FlowEvent::FlowHalted { flow }
        | FlowEvent::Fetch { flow } => {
            l.flow_field(flow);
        }
        FlowEvent::Spill { flow, group, lanes } => {
            l.flow_field(flow);
            l.lit(",\"group\":");
            l.num(group as u64);
            l.lit(",\"lanes\":");
            l.num(lanes as u64);
        }
        FlowEvent::StepEnd { step, cycle } => {
            l.lit(",\"end_step\":");
            l.num(step);
            l.lit(",\"end_cycle\":");
            l.num(cycle);
        }
    }
    l.lit("}\n");
    l.flush(out);
}

/// Encodes one timed flow event as an NDJSON line (newline included).
pub fn flow_line(e: &TimedEvent) -> String {
    let mut out = String::new();
    write_flow_line(&mut out, e);
    out
}

/// Appends a truncation notice to `out`: `missed` events of `stream`
/// (`"trace"`/`"flow"`) were evicted before the subscriber drained them.
pub fn write_drop_line(out: &mut String, stream: &str, missed: u64) {
    let mut l = LineBuf::new();
    l.lit("{\"t\":\"drop\",\"stream\":\"");
    l.lit(stream);
    l.lit("\",\"missed\":");
    l.num(missed);
    l.lit("}\n");
    l.flush(out);
}

/// Appends everything new in both buffers since `cursor` to `out` as
/// NDJSON lines (trace events first, then flow events, each stream in
/// order), advancing the cursor. Evictions the subscriber missed surface
/// as `drop` lines. This is the pump of `repro --stream`, called every
/// [`DRAIN_INTERVAL_STEPS`] steps (plus once after the run); the new runs
/// are walked in place ([`Trace::view_from`]; a tail run that grew since
/// the last drain gives the part the cursor has not seen) and encoded
/// straight into `out`, so the pump costs the lines it writes and
/// allocates nothing beyond `out`'s own growth.
pub fn drain_ndjson(trace: &Trace, obs: &ObsSink, cursor: &mut StreamCursor, out: &mut String) {
    let (items, next, missed) = trace.view_from(cursor.trace);
    if missed > 0 {
        write_drop_line(out, "trace", missed);
    }
    for run in items {
        write_trace_line(out, &run);
    }
    cursor.trace = next;

    let (items, next, missed) = obs.view_from(cursor.events);
    if missed > 0 {
        write_drop_line(out, "flow", missed);
    }
    for e in items {
        write_flow_line(out, e);
    }
    cursor.events = next;
}

/// Both event streams reassembled from an NDJSON document, plus the drop
/// totals its `drop` lines reported.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StreamReassembly {
    /// The trace as stored runs, in stream order — what
    /// [`Trace::events`] of the streamed machine returns, however the
    /// drains cut the runs into lines.
    pub trace: Vec<TraceEvent>,
    /// Flow events, in stream order.
    pub events: Vec<TimedEvent>,
    /// Trace units the stream declared dropped.
    pub trace_dropped: u64,
    /// Flow events the stream declared dropped.
    pub events_dropped: u64,
}

/// Most fields a line of this schema carries (`trun` has nine).
const MAX_FIELDS: usize = 12;

/// One NDJSON line split into its `"key":value` pairs in a single pass,
/// without allocating. Values in this schema are numbers, `null`, or bare
/// identifier strings (event/kind/mode names — never escaped), so a
/// scan suffices; a string value is held without its quotes.
struct Fields<'a> {
    line: &'a str,
    pairs: [(&'a str, &'a str); MAX_FIELDS],
    len: usize,
}

impl<'a> Fields<'a> {
    fn scan(line: &'a str) -> Result<Fields<'a>, String> {
        let bad = || format!("malformed line: {line}");
        let mut rest = line
            .trim()
            .strip_prefix('{')
            .and_then(|l| l.strip_suffix('}'))
            .ok_or_else(bad)?;
        let mut fields = Fields {
            line,
            pairs: [("", ""); MAX_FIELDS],
            len: 0,
        };
        while !rest.is_empty() {
            let (key, after) = rest
                .strip_prefix('"')
                .and_then(|r| r.split_once("\":"))
                .ok_or_else(bad)?;
            let (value, after) = match after.strip_prefix('"') {
                Some(quoted) => {
                    let (value, after) = quoted.split_once('"').ok_or_else(bad)?;
                    match after.strip_prefix(',') {
                        Some(more) if !more.is_empty() => (value, more),
                        None if after.is_empty() => (value, after),
                        _ => return Err(bad()),
                    }
                }
                None => match after.split_once(',') {
                    Some((value, more)) if !more.is_empty() => (value, more),
                    None => (after, ""),
                    _ => return Err(bad()),
                },
            };
            if fields.len == MAX_FIELDS {
                return Err(bad());
            }
            fields.pairs[fields.len] = (key, value);
            fields.len += 1;
            rest = after;
        }
        Ok(fields)
    }

    fn get(&self, key: &str) -> Option<&'a str> {
        self.pairs[..self.len]
            .iter()
            .find(|(k, _)| *k == key)
            .map(|&(_, v)| v)
    }

    fn str(&self, key: &str) -> Result<&'a str, String> {
        self.get(key)
            .ok_or_else(|| format!("missing \"{key}\" in: {}", self.line))
    }

    fn num<T: std::str::FromStr>(&self, key: &str) -> Result<T, String> {
        self.get(key)
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| format!("missing or bad \"{key}\" in: {}", self.line))
    }

    fn opt_u32(&self, key: &str) -> Result<Option<u32>, String> {
        match self.str(key)? {
            "null" => Ok(None),
            v => v
                .parse()
                .map(Some)
                .map_err(|_| format!("bad \"{key}\" in: {}", self.line)),
        }
    }

    fn flow(&self) -> Result<u32, String> {
        self.opt_u32("flow")?
            .ok_or_else(|| format!("null \"flow\" in: {}", self.line))
    }

    fn kind(&self) -> Result<UnitKind, String> {
        UnitKind::from_name(self.str("kind")?)
            .ok_or_else(|| format!("bad \"kind\" in: {}", self.line))
    }
}

fn parse_flow_event(f: &Fields<'_>) -> Result<FlowEvent, String> {
    Ok(match f.str("event")? {
        "flow_spawned" => FlowEvent::FlowSpawned {
            flow: f.flow()?,
            parent: f.opt_u32("parent")?,
            thickness: f.num("thickness")?,
        },
        "split" => FlowEvent::Split {
            flow: f.flow()?,
            arms: f.num("arms")?,
        },
        "join" => FlowEvent::Join {
            flow: f.flow()?,
            parent: f.opt_u32("parent")?,
        },
        "mode_switch" => FlowEvent::ModeSwitch {
            flow: f.flow()?,
            mode: Mode::from_name(f.str("mode")?)
                .ok_or_else(|| format!("bad \"mode\" in: {}", f.line))?,
        },
        "thickness_change" => FlowEvent::ThicknessChange {
            flow: f.flow()?,
            from: f.num("from")?,
            to: f.num("to")?,
        },
        "buffer_reload" => FlowEvent::BufferReload {
            flow: f.flow()?,
            group: f.num("group")?,
            cost: f.num("cost")?,
        },
        "wait_begin" => FlowEvent::WaitBegin {
            flow: f.flow()?,
            pending: f.num("pending")?,
        },
        "wait_end" => FlowEvent::WaitEnd { flow: f.flow()? },
        "flow_halted" => FlowEvent::FlowHalted { flow: f.flow()? },
        "fetch" => FlowEvent::Fetch { flow: f.flow()? },
        "spill" => FlowEvent::Spill {
            flow: f.flow()?,
            group: f.num("group")?,
            lanes: f.num("lanes")?,
        },
        "step_end" => FlowEvent::StepEnd {
            step: f.num("end_step")?,
            cycle: f.num("end_cycle")?,
        },
        other => return Err(format!("unknown event \"{other}\" in: {}", f.line)),
    })
}

/// The run a `trace`, `trun` or `brun` line stands for. A run line must
/// have the shape the writer gives it: `count`, `first` and `width` at
/// least 1, `first` at most `count`, and a last cycle and last thread
/// inside the integer range — anything else is an error, never a loop.
fn parse_trace_run(t: &str, f: &Fields<'_>) -> Result<TraceEvent, String> {
    let (flow, thread, shape) = match t {
        "trace" => (
            f.opt_u32("flow")?,
            f.opt_u32("thread")?.map(|t| t as usize),
            None,
        ),
        "trun" => (
            Some(f.flow()?),
            Some(f.num("thread0")?),
            Some((f.num("first")?, f.num("width")?)),
        ),
        _ => (None, None, Some((1, 1))),
    };
    let head = TraceEvent::unit(f.num("cycle")?, f.num("group")?, flow, thread, f.kind()?);
    let Some((first, width)) = shape else {
        return Ok(head);
    };
    let count: u64 = f.num("count")?;
    (first <= count)
        .then(|| TraceEvent::run(head, count, first, width))
        .flatten()
        .ok_or_else(|| format!("not a run the writer emits: {}", f.line))
}

/// Parses a `tcf-obs-stream/v2` NDJSON document back into its event
/// streams. The first non-empty line must be the schema header; unknown
/// line types or malformed fields are errors (the writer and reader are
/// the same schema version by construction). Trace lines go through the
/// recorder's own merge ([`Trace::push`]) and are never expanded, so a
/// line costs the same whatever its `count`, and the runs that come out
/// are the ones the streamed machine stored.
pub fn parse_stream(s: &str) -> Result<StreamReassembly, String> {
    let mut lines = s.lines().filter(|l| !l.trim().is_empty());
    match lines.next() {
        Some(header) if Fields::scan(header)?.get("schema") == Some(STREAM_SCHEMA) => {}
        Some(header) => return Err(format!("bad stream header: {header}")),
        None => return Err("empty stream".to_string()),
    }
    let mut out = StreamReassembly::default();
    let mut trace = Trace::recording();
    for line in lines {
        let f = Fields::scan(line)?;
        match f.str("t")? {
            t @ ("trace" | "trun" | "brun") => {
                let run = parse_trace_run(t, &f)?;
                if trace.next_seq().checked_add(run.count()).is_none() {
                    return Err(format!("more than 2^64 trace units at: {line}"));
                }
                trace.push(run);
            }
            "flow" => out.events.push(TimedEvent {
                step: f.num("step")?,
                cycle: f.num("cycle")?,
                event: parse_flow_event(&f)?,
            }),
            "drop" => {
                let missed: u64 = f.num("missed")?;
                let total = match f.str("stream")? {
                    "trace" => &mut out.trace_dropped,
                    "flow" => &mut out.events_dropped,
                    other => return Err(format!("unknown drop stream \"{other}\" in: {line}")),
                };
                *total = total
                    .checked_add(missed)
                    .ok_or_else(|| format!("drop total past 2^64 at: {line}"))?;
            }
            other => return Err(format!("unknown line type \"{other}\" in: {line}")),
        }
    }
    out.trace = trace.events();
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::validate_json;
    use crate::trace::FlowTag;

    fn all_flow_events() -> Vec<FlowEvent> {
        vec![
            FlowEvent::FlowSpawned {
                flow: 1,
                parent: None,
                thickness: 16,
            },
            FlowEvent::FlowSpawned {
                flow: 2,
                parent: Some(1),
                thickness: 8,
            },
            FlowEvent::Split { flow: 1, arms: 2 },
            FlowEvent::Join {
                flow: 2,
                parent: Some(1),
            },
            FlowEvent::ModeSwitch {
                flow: 2,
                mode: Mode::Numa,
            },
            FlowEvent::ThicknessChange {
                flow: 1,
                from: 16,
                to: 4,
            },
            FlowEvent::BufferReload {
                flow: 1,
                group: 3,
                cost: 9,
            },
            FlowEvent::WaitBegin {
                flow: 1,
                pending: 2,
            },
            FlowEvent::WaitEnd { flow: 1 },
            FlowEvent::FlowHalted { flow: 2 },
            FlowEvent::Fetch { flow: 1 },
            FlowEvent::Spill {
                flow: 1,
                group: 0,
                lanes: 7,
            },
            FlowEvent::StepEnd { step: 3, cycle: 40 },
        ]
    }

    #[test]
    fn every_event_round_trips() {
        for (i, event) in all_flow_events().into_iter().enumerate() {
            let ev = TimedEvent {
                step: i as u64,
                cycle: 2 * i as u64,
                event,
            };
            let line = flow_line(&ev);
            validate_json(line.trim()).expect("line is valid JSON");
            let doc = format!("{}{}", header_line(), line);
            let re = parse_stream(&doc).expect("parses");
            assert_eq!(re.events, vec![ev], "event {i} diverged");
        }
    }

    #[test]
    fn trace_events_round_trip() {
        let evs = vec![
            TraceEvent::unit(0, 0, Some(1 as FlowTag), Some(3), UnitKind::Compute),
            TraceEvent::unit(1, 2, None, None, UnitKind::Bubble),
        ];
        let mut doc = header_line();
        for e in &evs {
            let line = trace_line(e);
            validate_json(line.trim()).expect("line is valid JSON");
            doc.push_str(&line);
        }
        let re = parse_stream(&doc).expect("parses");
        assert_eq!(re.trace, evs);
        assert!(re.events.is_empty());
    }

    #[test]
    fn incremental_drains_match_batch_export() {
        let mut trace = Trace::recording();
        let mut obs = ObsSink::recording();
        let mut cursor = StreamCursor::default();
        let mut doc = header_line();
        for step in 0..4u64 {
            for c in 0..3u64 {
                trace.push(TraceEvent::unit(
                    step * 3 + c,
                    0,
                    Some(1),
                    None,
                    UnitKind::Compute,
                ));
            }
            obs.emit(
                step + 1,
                (step + 1) * 3,
                FlowEvent::StepEnd {
                    step: step + 1,
                    cycle: (step + 1) * 3,
                },
            );
            drain_ndjson(&trace, &obs, &mut cursor, &mut doc);
        }
        // Twelve units on twelve consecutive cycles: one stored run, which
        // every drain found three units longer than it left it.
        assert_eq!(trace.events().len(), 1);
        let re = parse_stream(&doc).expect("parses");
        assert_eq!(re.trace, trace.events());
        assert_eq!(re.events, obs.events());
        assert_eq!(re.trace_dropped + re.events_dropped, 0);
    }

    #[test]
    fn drops_surface_as_drop_lines() {
        let trace = Trace::recording();
        let mut obs = ObsSink::ring(2);
        let mut cursor = StreamCursor::default();
        for i in 0..7 {
            obs.emit(1, i, FlowEvent::Fetch { flow: 1 });
        }
        let mut doc = header_line();
        drain_ndjson(&trace, &obs, &mut cursor, &mut doc);
        let re = parse_stream(&doc).expect("parses");
        assert_eq!(re.events_dropped, 5);
        assert_eq!(re.events.len(), 2);
        assert_eq!(cursor.events, obs.next_seq());
    }

    /// Records `units` one by one, writes the stored runs and parses the
    /// document back, asserting exact reconstruction. (That the lines are
    /// the ones the v2 matcher of PR 7 wrote for the same units is
    /// `tests/runs.rs`.)
    fn batch_round_trips(units: &[TraceEvent]) -> String {
        let mut trace = Trace::recording();
        for u in units {
            trace.push(*u);
        }
        assert!(trace.units().eq(units.iter().copied()), "units diverged");
        let mut doc = header_line();
        for run in trace.events() {
            write_trace_line(&mut doc, &run);
        }
        for line in doc.lines().skip(1) {
            validate_json(line).expect("line is valid JSON");
        }
        let re = parse_stream(&doc).expect("parses");
        assert_eq!(re.trace, trace.events(), "stored runs diverged");
        doc
    }

    /// The per-unit expansion of a compute run, as `issue_one` produces
    /// it: `phase` units fit on the first cycle, then `width` per cycle.
    fn cadence(
        cycle0: u64,
        flow: u32,
        count: usize,
        phase: usize,
        width: usize,
    ) -> Vec<TraceEvent> {
        (0..count)
            .map(|i| {
                let cycle = if i < phase {
                    cycle0
                } else {
                    cycle0 + 1 + ((i - phase) / width) as u64
                };
                TraceEvent::unit(cycle, 1, Some(flow), Some(7 + i), UnitKind::Compute)
            })
            .collect()
    }

    #[test]
    fn cadence_runs_compress_and_round_trip() {
        for (count, phase, width) in [
            (256, 2, 4),
            (5, 5, 1),  // single cycle
            (9, 2, 7),  // two cycles, second partial
            (3, 1, 1),  // minimum run length
            (17, 4, 4), // phase == width, partial tail
        ] {
            let evs = cadence(10, 3, count, phase, width);
            let doc = batch_round_trips(&evs);
            assert_eq!(
                doc.lines().count(),
                2,
                "{count}/{phase}/{width} should be one trun line, got:\n{doc}"
            );
        }
    }

    #[test]
    fn bubble_runs_compress_and_round_trip() {
        let evs: Vec<TraceEvent> = (0..12)
            .map(|i| TraceEvent::unit(40 + i, 2, None, None, UnitKind::Bubble))
            .collect();
        let doc = batch_round_trips(&evs);
        assert_eq!(doc.lines().count(), 2, "one brun line:\n{doc}");
    }

    #[test]
    fn irregular_sequences_fall_back_to_plain_lines() {
        // Thread gaps, flow changes, cycle jumps, and sub-MIN_RUN runs:
        // everything must still reconstruct exactly.
        let mut evs = cadence(0, 1, 2, 1, 1); // too short for a run
        evs.push(TraceEvent::unit(
            9,
            1,
            Some(1),
            Some(100), // thread gap
            UnitKind::Compute,
        ));
        evs.extend(cadence(9, 2, 6, 3, 3)); // flow switch mid-stream
        evs.push(TraceEvent::unit(
            30, // cycle jump > 1
            1,
            Some(2),
            Some(13),
            UnitKind::MemLocal,
        ));
        // A lone bubble.
        evs.push(TraceEvent::unit(31, 1, None, None, UnitKind::Bubble));
        let doc = batch_round_trips(&evs);
        assert_eq!(doc.matches("\"t\":\"trace\"").count(), 5, "{doc}");
        assert_eq!(doc.matches("\"t\":\"trun\"").count(), 1, "{doc}");
    }

    #[test]
    fn adjacent_runs_split_at_shape_breaks() {
        // Two back-to-back cadence runs of the same flow: the second
        // starts a new thread base, so the first run must end exactly at
        // the boundary.
        let mut evs = cadence(0, 1, 8, 4, 4);
        evs.extend(cadence(2, 1, 8, 4, 4));
        let doc = batch_round_trips(&evs);
        assert_eq!(doc.lines().count(), 3, "two trun lines:\n{doc}");
    }

    #[test]
    fn run_lines_that_name_no_run_are_errors_not_loops() {
        let max = u64::MAX;
        for body in [
            // Last cycle past the range.
            format!("\"t\":\"brun\",\"cycle\":9,\"group\":0,\"count\":{max},\"kind\":\"bubble\""),
            // Last thread past the range, with cycles to spare.
            format!("\"t\":\"trun\",\"cycle\":0,\"group\":0,\"flow\":1,\"thread0\":{max},\"count\":3,\"first\":3,\"width\":1,\"kind\":\"compute\""),
            // Shapes the writer never emits.
            "\"t\":\"trun\",\"cycle\":0,\"group\":0,\"flow\":1,\"thread0\":0,\"count\":8,\"first\":2,\"width\":0,\"kind\":\"compute\"".to_string(),
            "\"t\":\"trun\",\"cycle\":0,\"group\":0,\"flow\":1,\"thread0\":0,\"count\":8,\"first\":0,\"width\":4,\"kind\":\"compute\"".to_string(),
            "\"t\":\"trun\",\"cycle\":0,\"group\":0,\"flow\":1,\"thread0\":0,\"count\":8,\"first\":9,\"width\":4,\"kind\":\"compute\"".to_string(),
            "\"t\":\"brun\",\"cycle\":0,\"group\":0,\"count\":0,\"kind\":\"bubble\"".to_string(),
        ] {
            let doc = format!("{}{{{body}}}\n", header_line());
            assert!(parse_stream(&doc).is_err(), "accepted: {body}");
        }
        // A count is a number, not a loop: the line that used to push
        // until the process died is one record, like the largest `brun`
        // that fits.
        let doc = format!(
            "{}{{\"t\":\"trun\",\"cycle\":4,\"group\":0,\"flow\":1,\"thread0\":0,\"count\":{max},\"first\":2,\"width\":4,\"kind\":\"compute\"}}\n",
            header_line(),
        );
        let re = parse_stream(&doc).expect("fits");
        assert_eq!((re.trace.len(), re.trace[0].count()), (1, max));
        let doc = format!(
            "{}{{\"t\":\"brun\",\"cycle\":1,\"group\":0,\"count\":{},\"kind\":\"bubble\"}}\n",
            header_line(),
            max - 1
        );
        let re = parse_stream(&doc).expect("fits");
        assert_eq!((re.trace.len(), re.trace[0].count()), (1, max - 1));
        // Two of them are more units than a sequence number can count.
        let twice = format!("{doc}{}", doc.lines().nth(1).unwrap());
        assert!(parse_stream(&twice).is_err());
    }

    #[test]
    fn line_buf_digits_match_display_at_the_edges() {
        for v in [0u64, 1, 9, 10, 99, 100, 12345, u64::MAX - 1, u64::MAX] {
            let mut l = LineBuf::new();
            l.num(v);
            let mut s = String::new();
            l.flush(&mut s);
            assert_eq!(s, v.to_string());
        }
    }

    #[test]
    fn parser_rejects_foreign_documents() {
        assert!(parse_stream("").is_err());
        assert!(parse_stream("{\"schema\":\"something-else/v9\"}\n").is_err());
        let doc = format!("{}{}", header_line(), "{\"t\":\"mystery\"}\n");
        assert!(parse_stream(&doc).is_err());
    }
}
