//! ASCII Gantt rendering of trace event streams.
//!
//! Factored out of [`crate::Trace`] so any list of runs — a live trace, a
//! ring-buffer window, or a stream re-read from NDJSON — renders the same
//! single-processor view.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::trace::{FlowTag, TraceEvent, UnitKind};

/// Renders the Gantt strip of one group from a list of runs.
///
/// One row per flow (plus an idle row for bubbles), one column per cycle;
/// each cell is the [`UnitKind::glyph`] of what the slot executed. Cycles
/// are clipped to the window actually present in `events`. The strip has
/// a cell per unit, so this walks [`TraceEvent::units`].
pub fn render(events: &[TraceEvent], group: usize) -> String {
    let events: Vec<&TraceEvent> = events.iter().filter(|e| e.group == group).collect();
    if events.is_empty() {
        return format!("group {group}: (no events)\n");
    }
    let t0 = events.iter().map(|e| e.cycle).min().unwrap();
    let t1 = events.iter().map(|e| e.last_cycle()).max().unwrap();
    let width = (t1 - t0 + 1) as usize;

    let mut rows: BTreeMap<Option<FlowTag>, Vec<char>> = BTreeMap::new();
    for run in &events {
        let key = if run.kind == UnitKind::Bubble {
            None
        } else {
            run.flow
        };
        let cells = rows.entry(key).or_insert_with(|| vec![' '; width]);
        for e in run.units() {
            cells[(e.cycle - t0) as usize] = e.kind.glyph();
        }
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

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(cycle: u64, group: usize, flow: Option<FlowTag>, kind: UnitKind) -> TraceEvent {
        TraceEvent::unit(cycle, group, flow, None, kind)
    }

    #[test]
    fn renders_header_and_rows() {
        let events = vec![
            ev(4, 1, Some(3), UnitKind::Compute),
            ev(5, 1, None, UnitKind::Bubble),
            ev(6, 1, Some(3), UnitKind::FlowOverhead),
        ];
        let g = render(&events, 1);
        assert!(g.starts_with("group 1, cycles 4..=6"));
        assert!(g.contains("flow   3 |# +|"));
        assert!(g.contains("(idle) | . |"));
    }

    #[test]
    fn other_groups_are_filtered_out() {
        let events = vec![ev(0, 0, Some(1), UnitKind::Compute)];
        assert!(render(&events, 2).contains("no events"));
    }
}
