//! Named, typed metric series.
//!
//! The simulator's subsystems each keep their own counter struct
//! (`MachineStats`, `NetStats`, `StepStats`, TCF-buffer counters). The
//! [`MetricsRegistry`] unifies them into one namespace of named series —
//! counters, gauges and [`LatencyHistogram`]s — so exporters and the CLI
//! can enumerate everything a run measured without knowing each struct.
//! Names are dotted and stable (`machine.compute_ops`, `net.queue`,
//! `buffer.reload`, …); see `docs/OBSERVABILITY.md` for the full list.
//!
//! [`MetricsRegistry::replay`] rebuilds the machine counters purely from a
//! recorded event stream — the property test in `tcf-bench` checks that
//! replay agrees with the live `MachineStats` on every execution variant,
//! which pins down that the trace stream is complete (nothing is counted
//! that is not traced, and vice versa).

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use crate::event::{FlowEvent, TimedEvent};
use crate::hist::LatencyHistogram;
use crate::trace::{TraceEvent, UnitKind};

/// One metric series: a monotonic counter, an instantaneous gauge, or a
/// latency distribution.
///
/// The histogram variant is much larger than the scalar ones; that is
/// fine — registries hold a few dozen series, and keeping the enum `Copy`
/// (no boxing) keeps the accessors trivial.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum MetricValue {
    /// Monotonic event count.
    Counter(u64),
    /// Instantaneous derived value (utilization, IPC, ratios).
    Gauge(f64),
    /// Latency distribution.
    Histogram(LatencyHistogram),
}

/// Cumulative counter values captured at the end of one machine step.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct StepSnapshot {
    /// 1-based step number the snapshot closes.
    pub step: u64,
    /// Machine clock (cycles) at the snapshot.
    pub cycle: u64,
    /// Cumulative counter series at this step (counters only; gauges and
    /// histograms are end-of-run values).
    pub values: BTreeMap<String, u64>,
}

/// A namespace of named metric series plus optional per-step snapshots.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct MetricsRegistry {
    series: BTreeMap<String, MetricValue>,
    snapshots: Vec<StepSnapshot>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Sets (or replaces) a counter series.
    pub fn set_counter(&mut self, name: &str, v: u64) {
        self.series
            .insert(name.to_string(), MetricValue::Counter(v));
    }

    /// Adds to a counter series, creating it at 0 first if absent. Panics
    /// if `name` already holds a gauge or histogram.
    pub fn add_counter(&mut self, name: &str, v: u64) {
        match self
            .series
            .entry(name.to_string())
            .or_insert(MetricValue::Counter(0))
        {
            MetricValue::Counter(c) => *c += v,
            other => panic!("metric {name} is not a counter: {other:?}"),
        }
    }

    /// Sets (or replaces) a gauge series.
    pub fn set_gauge(&mut self, name: &str, v: f64) {
        self.series.insert(name.to_string(), MetricValue::Gauge(v));
    }

    /// Sets (or replaces) a histogram series.
    pub fn set_histogram(&mut self, name: &str, h: LatencyHistogram) {
        self.series
            .insert(name.to_string(), MetricValue::Histogram(h));
    }

    /// Reads a counter (`None` if absent or of another type).
    pub fn counter(&self, name: &str) -> Option<u64> {
        match self.series.get(name) {
            Some(MetricValue::Counter(c)) => Some(*c),
            _ => None,
        }
    }

    /// Reads a gauge (`None` if absent or of another type).
    pub fn gauge(&self, name: &str) -> Option<f64> {
        match self.series.get(name) {
            Some(MetricValue::Gauge(g)) => Some(*g),
            _ => None,
        }
    }

    /// Reads a histogram (`None` if absent or of another type).
    pub fn histogram(&self, name: &str) -> Option<&LatencyHistogram> {
        match self.series.get(name) {
            Some(MetricValue::Histogram(h)) => Some(h),
            _ => None,
        }
    }

    /// All series names, sorted.
    pub fn names(&self) -> Vec<&str> {
        self.series.keys().map(|s| s.as_str()).collect()
    }

    /// All series as `(name, value)`, sorted by name.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &MetricValue)> {
        self.series.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Captures the current counter series as a [`StepSnapshot`].
    pub fn record_snapshot(&mut self, step: u64, cycle: u64) {
        let values = self
            .series
            .iter()
            .filter_map(|(k, v)| match v {
                MetricValue::Counter(c) => Some((k.clone(), *c)),
                _ => None,
            })
            .collect();
        self.snapshots.push(StepSnapshot {
            step,
            cycle,
            values,
        });
    }

    /// Per-step snapshots, in step order.
    pub fn snapshots(&self) -> &[StepSnapshot] {
        &self.snapshots
    }

    /// Mutable access to the snapshot list, for callers that graft
    /// snapshots replayed from an event stream onto a live registry.
    pub fn snapshots_mut(&mut self) -> &mut Vec<StepSnapshot> {
        &mut self.snapshots
    }

    /// Rebuilds the `machine.*` counters from recorded streams: the
    /// issue-slot runs (`trace`) plus the flow-event stream (`events`).
    ///
    /// Issue kinds map to their counters (compute → `machine.compute_ops`,
    /// shared → `machine.shared_refs`, …); `Fetch` and `Spill` flow events
    /// add `machine.fetches` / `machine.spill_refs` (fetches and spill
    /// accounting never occupy an issue slot of their own); `StepEnd`
    /// events drive `machine.steps` / `machine.cycles` and close one
    /// [`StepSnapshot`] each. Both streams must be complete (recorded
    /// unbounded, not through a ring). A run adds its count to its kind's
    /// counter; one that straddles a `StepEnd` cycle is split there by
    /// arithmetic, so the cost is O(runs + steps).
    pub fn replay(trace: &[TraceEvent], events: &[TimedEvent]) -> MetricsRegistry {
        // One slot per issue kind (`kind as usize`), then the spill count.
        const SPILL: usize = 6;
        let mut counts = [0u64; SPILL + 1];
        let series = |counts: &[u64; SPILL + 1], steps: u64, cycles: u64| {
            let of = |kind: UnitKind| counts[kind as usize];
            [
                ("machine.steps", steps),
                ("machine.cycles", cycles),
                ("machine.compute_ops", of(UnitKind::Compute)),
                ("machine.shared_refs", of(UnitKind::MemShared)),
                ("machine.local_refs", of(UnitKind::MemLocal)),
                ("machine.fetches", of(UnitKind::Fetch)),
                ("machine.bubbles", of(UnitKind::Bubble)),
                ("machine.overhead_cycles", of(UnitKind::FlowOverhead)),
                ("machine.spill_refs", counts[SPILL]),
            ]
        };
        // Two cursors: flow events are globally ordered; trace units are
        // ordered per step (cycles of step k all precede the StepEnd cycle
        // of step k), so the trace cursor — a run and how many of its
        // units are already counted — is advanced at each StepEnd to keep
        // snapshots cumulative and exact.
        let (mut ti, mut counted) = (0, 0);
        let mut drain_trace_until = |counts: &mut [u64; SPILL + 1], limit: Option<u64>| {
            while let Some(run) = trace.get(ti) {
                // (`max`: a document may put a later StepEnd on an earlier
                // cycle, which counts nothing.)
                let upto = limit
                    .map_or(run.count(), |c| run.units_before(c))
                    .max(counted);
                counts[run.kind as usize] += upto - counted;
                if upto < run.count() {
                    counted = upto;
                    return;
                }
                ti += 1;
                counted = 0;
            }
        };
        let mut reg = MetricsRegistry::new();
        let (mut steps, mut cycles) = (0, 0);
        for ev in events {
            match ev.event {
                FlowEvent::Fetch { .. } => counts[UnitKind::Fetch as usize] += 1,
                FlowEvent::Spill { lanes, .. } => counts[SPILL] += lanes as u64,
                FlowEvent::StepEnd { step, cycle } => {
                    drain_trace_until(&mut counts, Some(cycle));
                    (steps, cycles) = (step, cycle);
                    reg.snapshots.push(StepSnapshot {
                        step,
                        cycle,
                        values: series(&counts, steps, cycles)
                            .into_iter()
                            .map(|(name, v)| (name.to_string(), v))
                            .collect(),
                    });
                }
                _ => {}
            }
        }
        drain_trace_until(&mut counts, None);
        for (name, v) in series(&counts, steps, cycles) {
            reg.set_counter(name, v);
        }
        reg
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::FlowTag;

    fn unit(cycle: u64, kind: UnitKind) -> TraceEvent {
        TraceEvent::unit(cycle, 0, Some(1 as FlowTag), None, kind)
    }

    fn timed(step: u64, cycle: u64, event: FlowEvent) -> TimedEvent {
        TimedEvent { step, cycle, event }
    }

    #[test]
    fn typed_accessors() {
        let mut r = MetricsRegistry::new();
        r.set_counter("a", 3);
        r.set_gauge("b", 0.5);
        let mut h = LatencyHistogram::new();
        h.record(9);
        r.set_histogram("c", h);
        assert_eq!(r.counter("a"), Some(3));
        assert_eq!(r.gauge("b"), Some(0.5));
        assert_eq!(r.histogram("c").unwrap().count(), 1);
        assert_eq!(r.counter("b"), None);
        assert_eq!(r.names(), vec!["a", "b", "c"]);
    }

    #[test]
    fn add_counter_accumulates() {
        let mut r = MetricsRegistry::new();
        r.add_counter("x", 2);
        r.add_counter("x", 3);
        assert_eq!(r.counter("x"), Some(5));
    }

    #[test]
    fn replay_counts_units_and_flow_events() {
        let trace = vec![
            unit(0, UnitKind::Compute),
            unit(1, UnitKind::MemShared),
            unit(2, UnitKind::Bubble),
            unit(3, UnitKind::MemLocal),
            unit(4, UnitKind::FlowOverhead),
        ];
        let events = vec![
            timed(0, 0, FlowEvent::Fetch { flow: 1 }),
            timed(
                0,
                3,
                FlowEvent::Spill {
                    flow: 1,
                    group: 0,
                    lanes: 3,
                },
            ),
            timed(1, 5, FlowEvent::StepEnd { step: 1, cycle: 5 }),
        ];
        let r = MetricsRegistry::replay(&trace, &events);
        assert_eq!(r.counter("machine.compute_ops"), Some(1));
        assert_eq!(r.counter("machine.shared_refs"), Some(1));
        assert_eq!(r.counter("machine.local_refs"), Some(1));
        assert_eq!(r.counter("machine.bubbles"), Some(1));
        assert_eq!(r.counter("machine.overhead_cycles"), Some(1));
        assert_eq!(r.counter("machine.fetches"), Some(1));
        // One run-compressed spill event carrying 3 lanes = 3 references.
        assert_eq!(r.counter("machine.spill_refs"), Some(3));
        assert_eq!(r.counter("machine.steps"), Some(1));
        assert_eq!(r.counter("machine.cycles"), Some(5));
    }

    #[test]
    fn replay_snapshots_are_cumulative_per_step() {
        let trace = vec![
            unit(0, UnitKind::Compute),
            unit(1, UnitKind::Compute),
            unit(2, UnitKind::MemShared),
        ];
        let events = vec![
            timed(1, 2, FlowEvent::StepEnd { step: 1, cycle: 2 }),
            timed(2, 3, FlowEvent::StepEnd { step: 2, cycle: 3 }),
        ];
        let r = MetricsRegistry::replay(&trace, &events);
        let snaps = r.snapshots();
        assert_eq!(snaps.len(), 2);
        assert_eq!(snaps[0].values["machine.compute_ops"], 2);
        assert_eq!(snaps[0].values["machine.shared_refs"], 0);
        assert_eq!(snaps[1].values["machine.shared_refs"], 1);
        assert_eq!(snaps[1].cycle, 3);
    }

    #[test]
    fn trailing_units_after_last_step_are_counted() {
        let trace = vec![unit(0, UnitKind::Compute), unit(9, UnitKind::Bubble)];
        let r = MetricsRegistry::replay(&trace, &[]);
        assert_eq!(r.counter("machine.compute_ops"), Some(1));
        assert_eq!(r.counter("machine.bubbles"), Some(1));
        assert!(r.snapshots().is_empty());
    }
}
