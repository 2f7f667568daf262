//! The trace stores runs; these properties hold it to the per-unit code
//! it replaced. Every oracle below is the body PR 14 ran over one record
//! per unit, kept here as the reference: the v2 writer's run matchers
//! (`unit_run`/`gap_run`), the Chrome exporter's sort-and-merge, the
//! registry's replay walk, the CSV and Gantt loops. For random unit
//! sequences and random run lists — out-of-order groups, overlapping
//! cycle ranges and runs straddling a `StepEnd`, which only a document
//! can produce, included — the run-shaped code must give the same bytes.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use proptest::prelude::*;
use proptest::test_runner::TestRng;

use tcf_obs::chrome::chrome_trace_with_drops;
use tcf_obs::gantt;
use tcf_obs::stream::{
    drain_ndjson, header_line, parse_stream, write_drop_line, write_flow_line, write_trace_line,
};
use tcf_obs::{
    FlowEvent, FlowTag, MetricsRegistry, ObsSink, StreamCursor, StreamReassembly, TimedEvent,
    Trace, TraceEvent, UnitKind,
};

const KINDS: [UnitKind; 6] = [
    UnitKind::Compute,
    UnitKind::MemShared,
    UnitKind::MemLocal,
    UnitKind::Fetch,
    UnitKind::Bubble,
    UnitKind::FlowOverhead,
];

/// A random run: any kind, with or without flow and thread, one to a few
/// hundred units in a cadence shape of width 1 to 4 (bubbles: 1).
fn random_run(rng: &mut TestRng, cycle: u64, group: usize) -> TraceEvent {
    let flow = (rng.below(4) > 0).then(|| 1 + rng.below(2) as FlowTag);
    let thread = (rng.below(3) > 0).then(|| rng.below(3) as usize);
    let kind = KINDS[rng.below(6) as usize];
    let head = TraceEvent::unit(cycle, group, flow, thread, kind);
    let count = [1, 1, 2, 3, 4, 9, 40, 333][rng.below(8) as usize];
    let gap = flow.is_none() && thread.is_none();
    let width = if gap { 1 } else { 1 + rng.below(4) };
    let slots = 1 + rng.below(width);
    TraceEvent::run(head, count, slots, width).expect("a small run is a run")
}

/// What a machine records: per group, runs in cycle order, most of them
/// continuing the one before (same flow, next thread, next slot) so that
/// the merge rule has work to do, some breaking off.
fn recorded_units(rng: &mut TestRng) -> Vec<TraceEvent> {
    let mut units = Vec::new();
    let mut cycle = rng.below(5);
    let mut last: Option<TraceEvent> = None;
    for _ in 0..1 + rng.below(12) {
        let run = match last {
            // Carry on where the last run stopped, in its width.
            Some(prev) if rng.below(3) > 0 => {
                let head = TraceEvent::unit(
                    prev.last_cycle() + rng.below(2),
                    prev.group,
                    prev.flow,
                    prev.thread.map(|t| t + prev.count() as usize),
                    prev.kind,
                );
                let count = [1, 2, 3, 7, 50][rng.below(5) as usize];
                let slots = 1 + rng.below(prev.width());
                TraceEvent::run(head, count, slots, prev.width()).expect("a run")
            }
            _ => {
                cycle += rng.below(3);
                let group = rng.below(2) as usize;
                random_run(rng, cycle, group)
            }
        };
        cycle = run.last_cycle();
        units.extend(run.units());
        last = Some(run);
    }
    units
}

// ----------------------------------------------------------------------
// Oracle: the v2 writer of PR 7–14, matching runs in a unit list.
// ----------------------------------------------------------------------

const MIN_RUN: usize = 3;

fn unit_run(evs: &[TraceEvent]) -> Option<(usize, usize, usize)> {
    let e0 = evs[0];
    let (flow, t0) = (e0.flow?, e0.thread?);
    let mut first: Option<usize> = None;
    let mut width: Option<usize> = None;
    let mut cycle = e0.cycle;
    let mut in_cycle = 1usize;
    let mut n = 1usize;
    for e in &evs[1..] {
        if e.group != e0.group
            || e.kind != e0.kind
            || e.flow != Some(flow)
            || e.thread != Some(t0 + n)
        {
            break;
        }
        if e.cycle == cycle {
            if width == Some(in_cycle) {
                break;
            }
            in_cycle += 1;
        } else if e.cycle == cycle + 1 {
            match (first, width) {
                (None, _) => first = Some(in_cycle),
                (Some(_), None) => width = Some(in_cycle),
                (Some(_), Some(w)) if in_cycle == w => {}
                _ => break,
            }
            cycle = e.cycle;
            in_cycle = 1;
        } else {
            break;
        }
        n += 1;
    }
    if n < MIN_RUN {
        return None;
    }
    let first = first.unwrap_or(n);
    let width = width.unwrap_or_else(|| (n - first).max(1));
    Some((n, first, width))
}

fn gap_run(evs: &[TraceEvent]) -> Option<usize> {
    let e0 = evs[0];
    if e0.flow.is_some() || e0.thread.is_some() {
        return None;
    }
    let mut n = 1usize;
    for e in &evs[1..] {
        if e.group != e0.group
            || e.kind != e0.kind
            || e.flow.is_some()
            || e.thread.is_some()
            || e.cycle != e0.cycle + n as u64
        {
            break;
        }
        n += 1;
    }
    (n >= MIN_RUN).then_some(n)
}

fn opt(v: Option<u64>) -> String {
    v.map_or("null".to_string(), |v| v.to_string())
}

/// The lines the per-unit writer gave one drain's worth of units.
fn oracle_trace_lines(evs: &[TraceEvent]) -> String {
    let mut out = String::new();
    let mut i = 0;
    while i < evs.len() {
        let e = evs[i];
        let (cycle, group, kind) = (e.cycle, e.group, e.kind.as_str());
        if let Some((n, first, width)) = unit_run(&evs[i..]) {
            let (flow, t0) = (e.flow.unwrap(), e.thread.unwrap());
            let _ = writeln!(
                out,
                "{{\"t\":\"trun\",\"cycle\":{cycle},\"group\":{group},\"flow\":{flow},\
                 \"thread0\":{t0},\"count\":{n},\"first\":{first},\"width\":{width},\
                 \"kind\":\"{kind}\"}}"
            );
            i += n;
        } else if let Some(n) = gap_run(&evs[i..]) {
            let _ = writeln!(
                out,
                "{{\"t\":\"brun\",\"cycle\":{cycle},\"group\":{group},\"count\":{n},\
                 \"kind\":\"{kind}\"}}"
            );
            i += n;
        } else {
            let _ = writeln!(
                out,
                "{{\"t\":\"trace\",\"cycle\":{cycle},\"group\":{group},\"flow\":{},\
                 \"thread\":{},\"kind\":\"{kind}\"}}",
                opt(e.flow.map(u64::from)),
                opt(e.thread.map(|t| t as u64)),
            );
            i += 1;
        }
    }
    out
}

// ----------------------------------------------------------------------
// Oracles: the exporters of PR 14, walking units.
// ----------------------------------------------------------------------

/// The whole Chrome document for a trace with no flow events and no
/// workers: the pid-0 tracks are sorted and merged unit by unit.
fn oracle_chrome(units: &[TraceEvent], trace_dropped: u64) -> String {
    let mut items: Vec<String> = Vec::new();
    if trace_dropped > 0 {
        items.push(format!(
            "{{\"ph\":\"i\",\"pid\":0,\"tid\":0,\"ts\":0,\"s\":\"g\",\
             \"name\":\"truncated: {trace_dropped} trace events dropped\"}}"
        ));
    }
    let meta = |pid: u32, tid: Option<u64>, kind: &str, name: &str| {
        let tid = tid.map_or(String::new(), |t| format!(",\"tid\":{t}"));
        format!("{{\"ph\":\"M\",\"pid\":{pid}{tid},\"name\":\"{kind}\",\"args\":{{\"name\":\"{name}\"}}}}")
    };
    let mut groups: BTreeMap<usize, Vec<&TraceEvent>> = BTreeMap::new();
    for e in units {
        groups.entry(e.group).or_default().push(e);
    }
    items.push(meta(0, None, "process_name", "groups"));
    for (g, evs) in &mut groups {
        items.push(meta(
            0,
            Some(*g as u64),
            "thread_name",
            &format!("group {g}"),
        ));
        evs.sort_by_key(|e| e.cycle);
        let mut i = 0;
        while i < evs.len() {
            let start = evs[i];
            let mut end_cycle = start.cycle;
            let mut j = i + 1;
            while j < evs.len()
                && evs[j].kind == start.kind
                && evs[j].flow == start.flow
                && evs[j].cycle == end_cycle + 1
            {
                end_cycle = evs[j].cycle;
                j += 1;
            }
            let args = start
                .flow
                .map_or(String::new(), |f| format!(",\"args\":{{\"flow\":{f}}}"));
            items.push(format!(
                "{{\"ph\":\"X\",\"pid\":0,\"tid\":{g},\"ts\":{},\"dur\":{},\"name\":\"{}\"{args}}}",
                start.cycle,
                end_cycle - start.cycle + 1,
                start.kind.as_str(),
            ));
            i = j;
        }
    }
    items.push(meta(1, None, "process_name", "flows"));
    format!("{{\"traceEvents\":[{}]}}", items.join(","))
}

fn oracle_replay(trace: &[TraceEvent], events: &[TimedEvent]) -> MetricsRegistry {
    let mut reg = MetricsRegistry::new();
    for name in [
        "machine.steps",
        "machine.cycles",
        "machine.compute_ops",
        "machine.shared_refs",
        "machine.local_refs",
        "machine.fetches",
        "machine.bubbles",
        "machine.overhead_cycles",
        "machine.spill_refs",
    ] {
        reg.set_counter(name, 0);
    }
    let mut ti = 0;
    let mut drain_trace_until = |reg: &mut MetricsRegistry, limit: Option<u64>| {
        while ti < trace.len() && limit.is_none_or(|c| trace[ti].cycle < c) {
            let name = match trace[ti].kind {
                UnitKind::Compute => "machine.compute_ops",
                UnitKind::MemShared => "machine.shared_refs",
                UnitKind::MemLocal => "machine.local_refs",
                UnitKind::Fetch => "machine.fetches",
                UnitKind::Bubble => "machine.bubbles",
                UnitKind::FlowOverhead => "machine.overhead_cycles",
            };
            reg.add_counter(name, 1);
            ti += 1;
        }
    };
    for ev in events {
        match ev.event {
            FlowEvent::Fetch { .. } => reg.add_counter("machine.fetches", 1),
            FlowEvent::Spill { lanes, .. } => reg.add_counter("machine.spill_refs", lanes as u64),
            FlowEvent::StepEnd { step, cycle } => {
                drain_trace_until(&mut reg, Some(cycle));
                reg.set_counter("machine.steps", step);
                reg.set_counter("machine.cycles", cycle);
                reg.record_snapshot(step, cycle);
            }
            _ => {}
        }
    }
    drain_trace_until(&mut reg, None);
    reg
}

fn oracle_csv(units: &[TraceEvent]) -> String {
    let mut out = String::from("cycle,group,flow,thread,kind\n");
    for e in units {
        let _ = writeln!(
            out,
            "{},{},{},{},{}",
            e.cycle,
            e.group,
            e.flow.map(|f| f.to_string()).unwrap_or_default(),
            e.thread.map(|t| t.to_string()).unwrap_or_default(),
            e.kind.as_str()
        );
    }
    out
}

fn oracle_gantt(units: &[TraceEvent], group: usize) -> String {
    let events: Vec<&TraceEvent> = units.iter().filter(|e| e.group == group).collect();
    if events.is_empty() {
        return format!("group {group}: (no events)\n");
    }
    let t0 = events.iter().map(|e| e.cycle).min().unwrap();
    let t1 = events.iter().map(|e| e.cycle).max().unwrap();
    let width = (t1 - t0 + 1) as usize;
    let mut rows: BTreeMap<Option<FlowTag>, Vec<char>> = BTreeMap::new();
    for e in &events {
        let key = if e.kind == UnitKind::Bubble {
            None
        } else {
            e.flow
        };
        rows.entry(key).or_insert_with(|| vec![' '; width])[(e.cycle - t0) as usize] =
            e.kind.glyph();
    }
    let mut out = String::new();
    let _ = writeln!(out, "group {group}, cycles {t0}..={t1}");
    for (flow, cells) in rows {
        let label = match flow {
            Some(f) => format!("flow {f:>3}"),
            None => "  (idle)".to_string(),
        };
        let _ = writeln!(out, "  {label} |{}|", cells.into_iter().collect::<String>());
    }
    out
}

// ----------------------------------------------------------------------

/// Pushes `units` cut into runs at random places: whole units, or any
/// stretch of them that is itself one run.
fn push_in_random_runs(rng: &mut TestRng, units: &[TraceEvent], trace: &mut Trace) {
    let mut i = 0;
    while i < units.len() {
        // Grow a run from unit `i` with the merge rule itself, then push
        // a random prefix of it in one piece.
        let mut run = units[i];
        let mut n = 1;
        while i + n < units.len() && run.absorb(units[i + n]).is_none() {
            n += 1;
        }
        let take = 1 + rng.below(n as u64);
        trace.push(run.prefix(take));
        i += take as usize;
    }
}

fn encode(re: &StreamReassembly) -> String {
    let mut doc = header_line();
    if re.trace_dropped > 0 {
        write_drop_line(&mut doc, "trace", re.trace_dropped);
    }
    for run in &re.trace {
        write_trace_line(&mut doc, run);
    }
    if re.events_dropped > 0 {
        write_drop_line(&mut doc, "flow", re.events_dropped);
    }
    for e in &re.events {
        write_flow_line(&mut doc, e);
    }
    doc
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Whoever produced the units — one push each, or runs cut anywhere —
    /// the trace holds the same runs, they say the same units, none can
    /// take a unit of the next, and on the wire they are the lines the
    /// per-unit matcher wrote.
    #[test]
    fn stored_runs_are_the_greedy_runs_of_the_units(seed in any::<u64>()) {
        let mut rng = TestRng::seeded(seed);
        let units = recorded_units(&mut rng);
        let mut by_unit = Trace::recording();
        for u in &units {
            by_unit.push(*u);
        }
        prop_assert!(by_unit.units().eq(units.iter().copied()));
        prop_assert_eq!((by_unit.len(), by_unit.next_seq()), (units.len() as u64, units.len() as u64));
        let runs = by_unit.events();
        for pair in runs.windows(2) {
            let mut a = pair[0];
            prop_assert_eq!(a.absorb(pair[1]), Some(pair[1]), "mergeable neighbours");
        }
        let mut by_run = Trace::recording();
        push_in_random_runs(&mut rng, &units, &mut by_run);
        prop_assert_eq!(by_run.events(), runs.clone());

        let mut doc = String::new();
        for run in &runs {
            write_trace_line(&mut doc, run);
        }
        prop_assert_eq!(doc, oracle_trace_lines(&units));
    }

    /// A bounded ring keeps exactly the last `n` units, trimming its front
    /// run where the boundary falls.
    #[test]
    fn a_ring_keeps_the_last_units(seed in any::<u64>(), capacity in 1usize..40) {
        let mut rng = TestRng::seeded(seed);
        let units = recorded_units(&mut rng);
        let mut ring = Trace::ring(capacity);
        push_in_random_runs(&mut rng, &units, &mut ring);
        let kept = capacity.min(units.len());
        prop_assert!(ring.units().eq(units[units.len() - kept..].iter().copied()));
        prop_assert_eq!(ring.len(), kept as u64);
        prop_assert_eq!(ring.dropped(), (units.len() - kept) as u64);
        prop_assert_eq!(ring.next_seq(), units.len() as u64);
        prop_assert_eq!(ring.to_csv(), oracle_csv(&units[units.len() - kept..]));
    }

    /// However the drains cut a growing trace into lines, the document
    /// parses back to the runs the trace stored; with one drain per step
    /// of a machine-shaped trace the lines are the per-unit writer's.
    #[test]
    fn stream_round_trip_however_the_drains_are_cut(seed in any::<u64>()) {
        let mut rng = TestRng::seeded(seed);
        let units = recorded_units(&mut rng);
        let mut trace = Trace::recording();
        let obs = ObsSink::recording();
        let mut cursor = StreamCursor::default();
        let mut doc = header_line();
        let mut pushed = 0;
        while pushed < units.len() {
            let batch = 1 + rng.below(6) as usize;
            for u in units[pushed..].iter().take(batch) {
                trace.push(*u);
                pushed += 1;
            }
            // Often mid-run: the next drain starts inside a stored run.
            if rng.below(2) == 0 {
                drain_ndjson(&trace, &obs, &mut cursor, &mut doc);
                prop_assert_eq!(cursor.trace, pushed as u64);
            }
        }
        drain_ndjson(&trace, &obs, &mut cursor, &mut doc);
        let re = parse_stream(&doc).expect("a written document parses");
        prop_assert_eq!(&re.trace, &trace.events());
        prop_assert!(re.trace.iter().flat_map(TraceEvent::units).eq(units.iter().copied()));
        // Re-encoding what was parsed is a fixpoint.
        prop_assert_eq!(parse_stream(&encode(&re)).expect("parses"), re);
    }

    /// The exporters on a list of runs give the bytes the per-unit
    /// exporters gave on its units — for any list: groups out of order,
    /// cycle ranges overlapping, runs straddling a `StepEnd`.
    #[test]
    fn exporters_match_the_per_unit_oracles(seed in any::<u64>()) {
        let mut rng = TestRng::seeded(seed);
        let runs: Vec<TraceEvent> = (0..rng.below(14))
            .map(|_| {
                let (cycle, group) = (rng.below(60), rng.below(3) as usize);
                random_run(&mut rng, cycle, group)
            })
            .collect();
        let units: Vec<TraceEvent> = runs.iter().flat_map(TraceEvent::units).collect();
        let mut events = Vec::new();
        for step in 1..=rng.below(6) {
            let cycle = rng.below(90);
            events.push(TimedEvent { step, cycle, event: FlowEvent::Fetch { flow: 1 } });
            events.push(TimedEvent {
                step,
                cycle,
                event: FlowEvent::Spill { flow: 1, group: 0, lanes: rng.below(9) as usize },
            });
            events.push(TimedEvent { step, cycle, event: FlowEvent::StepEnd { step, cycle } });
        }
        let dropped = rng.below(2) * 17;

        // Chrome: the group tracks against the oracle, and the rest of
        // the document unmoved by how the trace is cut into runs.
        prop_assert_eq!(
            chrome_trace_with_drops(&runs, &[], dropped, 0),
            oracle_chrome(&units, dropped)
        );
        prop_assert_eq!(
            chrome_trace_with_drops(&runs, &events, dropped, 3),
            chrome_trace_with_drops(&units, &events, dropped, 3)
        );
        // Replay: counters and every snapshot.
        prop_assert_eq!(
            MetricsRegistry::replay(&runs, &events),
            oracle_replay(&units, &events)
        );
        // Gantt, and CSV through a trace that stores the list as given.
        for group in 0..3 {
            prop_assert_eq!(gantt::render(&runs, group), oracle_gantt(&units, group));
        }
        let mut trace = Trace::recording();
        for run in &runs {
            trace.push(*run);
        }
        prop_assert_eq!(trace.to_csv(), oracle_csv(&units));
        prop_assert_eq!(trace.gantt(1), oracle_gantt(&units, 1));
        for group in 0..3 {
            let of_group = |keep: fn(UnitKind) -> bool| {
                units.iter().filter(|u| u.group == group && keep(u.kind)).count() as u64
            };
            prop_assert_eq!(trace.busy_cycles(group), of_group(UnitKind::is_issue));
            prop_assert_eq!(
                trace.overhead_cycles(group),
                of_group(|k| k == UnitKind::FlowOverhead)
            );
        }
    }

    /// A damaged document is an `Err` or a document — never a panic, a
    /// hang or an allocation the size of a number in it — and what parses
    /// re-encodes to a fixpoint.
    #[test]
    fn mutated_documents_parse_or_fail_cleanly(seed in any::<u64>()) {
        let mut rng = TestRng::seeded(seed);
        let units = recorded_units(&mut rng);
        let mut trace = Trace::recording();
        let mut obs = ObsSink::ring(4);
        for (i, u) in units.iter().enumerate() {
            trace.push(*u);
            let i = i as u64;
            obs.emit(i, u.cycle, FlowEvent::StepEnd { step: i, cycle: u.cycle });
            obs.emit(i, u.cycle, FlowEvent::Split { flow: 1, arms: 2 });
        }
        let mut doc = header_line();
        drain_ndjson(&trace, &obs, &mut StreamCursor::default(), &mut doc);

        let huge = ["18446744073709551615", "18446744073709551616", "4294967296", "0", "-1"];
        for _ in 0..40 {
            let mut bytes = doc.clone().into_bytes();
            let at = rng.below(bytes.len() as u64) as usize;
            match rng.below(5) {
                0 => bytes.truncate(at),
                // Flip a digit (or whatever is there) to another digit.
                1 => bytes[at] = b'0' + rng.below(10) as u8,
                // Swap two keys' names: `"count"` for `"cycle"`, say.
                2 => {
                    let text = String::from_utf8(bytes).unwrap();
                    let keys = ["cycle", "count", "first", "width", "group", "thread0", "flow"];
                    let (a, b) = (keys[rng.below(7) as usize], keys[rng.below(7) as usize]);
                    bytes = text
                        .replacen(&format!("\"{a}\":"), "\"\u{1}\":", 1)
                        .replacen(&format!("\"{b}\":"), &format!("\"{a}\":"), 1)
                        .replacen("\"\u{1}\":", &format!("\"{b}\":"), 1)
                        .into_bytes();
                }
                // A huge (or zero, or negative) number in place of one.
                3 => {
                    let text = String::from_utf8(bytes).unwrap();
                    let digits = |c: char| c.is_ascii_digit();
                    let start = text[at..].find(digits).map_or(at, |i| at + i);
                    let end = text[start..].find(|c| !digits(c)).map_or(text.len(), |i| start + i);
                    let with = huge[rng.below(5) as usize];
                    bytes = format!("{}{with}{}", &text[..start], &text[end..]).into_bytes();
                }
                // Drop a byte.
                _ => {
                    bytes.remove(at);
                }
            }
            let Ok(mutated) = String::from_utf8(bytes) else { continue };
            if let Ok(re) = parse_stream(&mutated) {
                let again = parse_stream(&encode(&re));
                prop_assert_eq!(again.as_ref(), Ok(&re), "not a fixpoint: {}", mutated);
            }
        }
    }
}
