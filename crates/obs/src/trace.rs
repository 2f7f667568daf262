//! Execution traces.
//!
//! The paper illustrates each execution-model variant with a *single
//! processor view*: time on the horizontal axis, what the processor's
//! issue slot is doing in each cycle (which flow, which implicit thread,
//! or a bubble). [`Trace`] records exactly that, [`Trace::gantt`] renders
//! it (how the `repro` binary regenerates Figures 6–13), and
//! [`crate::chrome`] exports the same stream for Perfetto.
//!
//! **Events are runs.** A thickness-`T` instruction is one thing to the
//! machine — fetched once, timed as one `UnitSeq` run — and it is one
//! thing here: the stored record, [`TraceEvent`], is a run of `count`
//! units in the issue cadence's shape, and a single unit is a run of one.
//! [`Trace::push`] merges what it is given into the last stored run by
//! one rule ([`TraceEvent::absorb`], O(1)), so the trace holds the
//! greedy-maximal runs of the unit sequence whoever produced it — the
//! pipeline pushing whole runs, `tcf-pram` pushing units, the stream
//! parser pushing lines — and recording costs O(#runs). The per-unit
//! views (CSV rows, Gantt cells, `tdbg`) walk [`TraceEvent::units`];
//! everything else computes on runs.
//!
//! Everything a subscriber counts is still in **units**: sequence
//! numbers, [`Trace::next_seq`], [`Trace::dropped`], the `missed` of a
//! drain and the ring capacity. Traces can record unbounded
//! ([`Trace::recording`]) or into a bounded ring ([`Trace::ring`]) that
//! keeps exactly the most recent `capacity` units — constant memory for
//! arbitrarily long runs, at the cost of dropping the oldest cycles; the
//! ring cuts the front off its oldest run in closed form, and a cursor
//! that points into a run gets the rest of it ([`Trace::view_from`]).

use std::collections::VecDeque;
use std::fmt::Write as _;

use serde::{Deserialize, Serialize};

use crate::gantt;
use crate::ring::Drained;

/// Identifier of a flow (TCF) or, in baseline models, of a thread bunch.
pub type FlowTag = u32;

/// What an issue slot did in one cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum UnitKind {
    /// Executed an ALU/compute operation.
    Compute,
    /// Issued a shared-memory reference.
    MemShared,
    /// Issued a local-memory reference.
    MemLocal,
    /// Fetched an instruction (NUMA mode / per-thread fetch accounting).
    Fetch,
    /// Waited — no operation available or replies outstanding.
    Bubble,
    /// Spent a cycle on flow management (TCF buffer reload, split/join
    /// bookkeeping).
    FlowOverhead,
}

impl UnitKind {
    /// One-character cell used in Gantt rendering.
    pub fn glyph(self) -> char {
        match self {
            UnitKind::Compute => '#',
            UnitKind::MemShared => 'M',
            UnitKind::MemLocal => 'L',
            UnitKind::Fetch => 'F',
            UnitKind::Bubble => '.',
            UnitKind::FlowOverhead => '+',
        }
    }

    /// Stable lowercase name, shared by the CSV, Chrome-trace and metrics
    /// exporters (unlike `Debug` formatting, this is a schema guarantee).
    pub fn as_str(self) -> &'static str {
        match self {
            UnitKind::Compute => "compute",
            UnitKind::MemShared => "shared",
            UnitKind::MemLocal => "local",
            UnitKind::Fetch => "fetch",
            UnitKind::Bubble => "bubble",
            UnitKind::FlowOverhead => "overhead",
        }
    }

    /// Whether the slot issued real work this cycle (not a bubble, not
    /// flow-management overhead). This is the "issued" of the paper's
    /// utilization figures.
    pub fn is_issue(self) -> bool {
        !matches!(self, UnitKind::Bubble | UnitKind::FlowOverhead)
    }

    /// Inverse of [`as_str`](Self::as_str), for stream re-readers.
    pub fn from_name(name: &str) -> Option<UnitKind> {
        Some(match name {
            "compute" => UnitKind::Compute,
            "shared" => UnitKind::MemShared,
            "local" => UnitKind::MemLocal,
            "fetch" => UnitKind::Fetch,
            "bubble" => UnitKind::Bubble,
            "overhead" => UnitKind::FlowOverhead,
            _ => return None,
        })
    }
}

/// A run of issue-slot records: `count` units of one group, kind and
/// flow, in the shape the issue cadence gives them — `first` units on
/// `cycle`, then `width` per following cycle (the last cycle may be
/// partial) — on threads `thread`, `thread + 1`, … or on no thread at
/// all. A single unit is a run of `count == 1`; [`units`](Self::units)
/// gives the per-unit view.
///
/// The public fields describe the run's *first* unit. The shape is kept
/// canonical, so equal unit sequences compare equal: a run that fits one
/// cycle has `first == count, width == 1`, one that fits two has
/// `width == count - first`, and a flow-less, thread-less run (bubbles)
/// holds one unit per cycle. Build one with [`unit`](Self::unit) and
/// [`run`](Self::run).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceEvent {
    /// Cycle of the first unit (machine-global time).
    pub cycle: u64,
    /// Processor group.
    pub group: usize,
    /// Flow (or bunch) occupying the slot; `None` for a bubble.
    pub flow: Option<FlowTag>,
    /// Implicit thread index of the first unit within the flow, when
    /// meaningful; later units count up from it.
    pub thread: Option<usize>,
    /// What happened.
    pub kind: UnitKind,
    count: u64,
    first: u64,
    width: u64,
}

/// Where a run's last unit sits, which is all the merge rule needs to
/// know about a run to decide whether the next unit continues it.
enum Cadence {
    /// Every unit so far is on the first cycle: `first` and `width` are
    /// both still open.
    FirstCycle,
    /// The run is on its second cycle: `first` is fixed, `width` open.
    SecondCycle,
    /// Three cycles or more: the shape is fixed. The last cycle holds
    /// `in_cycle` of its `width` units.
    Steady { in_cycle: u64 },
}

impl TraceEvent {
    /// One unit.
    #[inline]
    pub fn unit(
        cycle: u64,
        group: usize,
        flow: Option<FlowTag>,
        thread: Option<usize>,
        kind: UnitKind,
    ) -> TraceEvent {
        TraceEvent {
            cycle,
            group,
            flow,
            thread,
            kind,
            count: 1,
            first: 1,
            width: 1,
        }
    }

    /// `count` units that start like `head`: up to `slots` of them on
    /// `head.cycle`, then `width` per following cycle, threads counting
    /// up from `head.thread`. `None` when the shape names no run: a zero
    /// `count`, `slots` or `width`, a last cycle or last thread past the
    /// integer range, or a flow-less, thread-less run with more than one
    /// unit per cycle (which the merge rule never builds).
    pub fn run(head: TraceEvent, count: u64, slots: u64, width: u64) -> Option<TraceEvent> {
        if count == 0 || slots == 0 || width == 0 {
            return None;
        }
        let first = slots.min(count);
        // Canonical shape: a width no unit has used yet is not recorded.
        let width = if count <= first.saturating_add(width) {
            (count - first).max(1)
        } else {
            width
        };
        if head.is_gap() && (first > 1 || width > 1) {
            return None;
        }
        let run = TraceEvent {
            count,
            first,
            width,
            ..head
        };
        run.cycle.checked_add(run.cycles() - 1)?;
        if let Some(t) = run.thread {
            t.checked_add(usize::try_from(count - 1).ok()?)?;
        }
        Some(run)
    }

    /// Number of units.
    #[inline]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Units on the first cycle.
    #[inline]
    pub fn first(&self) -> u64 {
        self.first
    }

    /// Units on each following cycle (the last may hold fewer).
    #[inline]
    pub fn width(&self) -> u64 {
        self.width
    }

    /// A flow-less, thread-less run: the `brun` of the stream, one unit
    /// per cycle.
    #[inline]
    fn is_gap(&self) -> bool {
        self.flow.is_none() && self.thread.is_none()
    }

    /// Cycles the run spans.
    #[inline]
    fn cycles(&self) -> u64 {
        1 + (self.count - self.first).div_ceil(self.width)
    }

    /// Cycle of the last unit.
    #[inline]
    pub fn last_cycle(&self) -> u64 {
        self.cycle + (self.cycles() - 1)
    }

    /// Cycle of unit `i`.
    #[inline]
    fn cycle_of(&self, i: u64) -> u64 {
        if i < self.first {
            self.cycle
        } else {
            self.cycle + 1 + (i - self.first) / self.width
        }
    }

    /// How many of the run's units lie on cycles before `cycle`.
    #[inline]
    pub(crate) fn units_before(&self, cycle: u64) -> u64 {
        if cycle <= self.cycle {
            return 0;
        }
        let later = (cycle - self.cycle - 1).saturating_mul(self.width);
        self.count.min(self.first.saturating_add(later))
    }

    /// The run's units one by one, in issue order: O(`count`), for the
    /// exporters whose output is a row per unit.
    pub fn units(&self) -> impl Iterator<Item = TraceEvent> + '_ {
        (0..self.count).map(move |i| {
            TraceEvent::unit(
                self.cycle_of(i),
                self.group,
                self.flow,
                self.thread.map(|t| t + i as usize),
                self.kind,
            )
        })
    }

    /// The first `n` units (`0 < n <= count`) as a run.
    pub fn prefix(&self, n: u64) -> TraceEvent {
        debug_assert!(0 < n && n <= self.count);
        TraceEvent::run(*self, n, self.first, self.width).expect("a prefix of a run is a run")
    }

    /// The run without its first `skip` units (`skip < count`).
    pub(crate) fn suffix(&self, skip: u64) -> TraceEvent {
        debug_assert!(skip < self.count);
        let slots = if skip < self.first {
            self.first - skip
        } else {
            self.width - (skip - self.first) % self.width
        };
        let head = TraceEvent {
            cycle: self.cycle_of(skip),
            thread: self.thread.map(|t| t + skip as usize),
            ..*self
        };
        TraceEvent::run(head, self.count - skip, slots, self.width)
            .expect("a suffix of a run is a run")
    }

    fn cadence(&self) -> Cadence {
        if self.count == self.first {
            Cadence::FirstCycle
        } else if self.count == self.first + self.width {
            Cadence::SecondCycle
        } else {
            Cadence::Steady {
                in_cycle: (self.count - self.first - 1) % self.width + 1,
            }
        }
    }

    /// Takes up to `n` units that sit together on `cycle` onto the end of
    /// the run; returns how many the cadence shape admits.
    fn take_row(&mut self, cycle: u64, n: u64) -> u64 {
        let last = self.last_cycle();
        let taken = if cycle == last {
            match self.cadence() {
                Cadence::FirstCycle => {
                    self.first += n;
                    n
                }
                Cadence::SecondCycle => {
                    self.width += n;
                    n
                }
                Cadence::Steady { in_cycle } => n.min(self.width - in_cycle),
            }
        } else if last.checked_add(1) == Some(cycle) {
            match self.cadence() {
                Cadence::FirstCycle => {
                    self.width = n;
                    n
                }
                Cadence::SecondCycle => n.min(self.width),
                // A short cycle can only be a run's last.
                Cadence::Steady { in_cycle } if in_cycle < self.width => 0,
                Cadence::Steady { .. } => n.min(self.width),
            }
        } else {
            0
        };
        self.count += taken;
        taken
    }

    /// Extends the run by as many of `next`'s leading units as continue
    /// it, and returns the rest of `next` (`None` when all of it merged).
    ///
    /// This is the merge rule of the whole crate — the recorder's tail
    /// merge, the stream parser and the v2 wire's `trun`/`brun` lines all
    /// mean it: same group, kind and flow; threads counting on (or none on
    /// either side); and the cycle shape above, where `first` is open
    /// while the run is on its first cycle, `width` while it is on its
    /// second, and after that a cycle takes exactly `width` units except
    /// the last. Flow-less thread-less units chain only one cycle apart.
    /// Whatever order and grouping the units arrive in, the runs come out
    /// the same: the greedy-maximal ones. O(1).
    pub fn absorb(&mut self, next: TraceEvent) -> Option<TraceEvent> {
        if self.same_track(&next) {
            self.take(next)
        } else {
            Some(next)
        }
    }

    /// The part of the merge rule that is not about cycles: `next` is of
    /// this run's group, kind and flow, and its threads count on from this
    /// run's (or neither has any). Most recorded neighbours fail here.
    #[inline]
    fn same_track(&self, next: &TraceEvent) -> bool {
        self.kind == next.kind
            && self.flow == next.flow
            && self.group == next.group
            && match (self.thread, next.thread) {
                (Some(a), Some(b)) => {
                    usize::try_from(self.count)
                        .ok()
                        .and_then(|n| a.checked_add(n))
                        == Some(b)
                }
                (None, None) => true,
                _ => false,
            }
    }

    /// [`absorb`](Self::absorb) for a `next` on the [same
    /// track](Self::same_track): the cycle shape decides.
    fn take(&mut self, next: TraceEvent) -> Option<TraceEvent> {
        if self.count.checked_add(next.count).is_none() {
            return Some(next);
        }
        if self.is_gap() {
            if self.last_cycle().checked_add(1) != Some(next.cycle) {
                return Some(next);
            }
            self.count += next.count;
            return None;
        }
        let mut taken = 0;
        let (mut cycle, mut row) = (next.cycle, next.first);
        loop {
            let got = self.take_row(cycle, row);
            taken += got;
            if taken == next.count {
                return None;
            }
            if got < row {
                return Some(next.suffix(taken));
            }
            cycle += 1;
            row = next.width.min(next.count - taken);
            // Full cycles of the same width, from a full cycle on: the
            // rest of `next` is the rest of this run.
            if matches!(self.cadence(), Cadence::Steady { in_cycle } if in_cycle == self.width)
                && self.width == next.width
            {
                self.count += next.count - taken;
                return None;
            }
        }
    }
}

/// A recorded execution: the issue-slot records of a run of the machine,
/// stored as greedy-maximal runs ([`TraceEvent::absorb`]) and counted in
/// units.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Trace {
    runs: VecDeque<TraceEvent>,
    /// Units to keep (`None` = all of them).
    capacity: Option<u64>,
    /// Units the stored runs hold.
    held: u64,
    /// Units ever pushed; the next unit's sequence number.
    pushed: u64,
    /// Units evicted by overflow.
    dropped: u64,
    enabled: bool,
}

impl Trace {
    /// A recording trace with unbounded storage.
    pub fn recording() -> Trace {
        Trace {
            enabled: true,
            ..Trace::default()
        }
    }

    /// A recording trace that keeps only the `capacity` most recent
    /// units, dropping the oldest on overflow.
    pub fn ring(capacity: usize) -> Trace {
        assert!(capacity > 0, "ring buffer needs at least one slot");
        Trace {
            capacity: Some(capacity as u64),
            enabled: true,
            ..Trace::default()
        }
    }

    /// A disabled trace: `push` is a no-op. Benches use this so tracing
    /// overhead never pollutes timing measurements.
    pub fn disabled() -> Trace {
        Trace::default()
    }

    /// Whether events are being recorded.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Records a unit or a whole run (no-op when disabled), merging it
    /// into the last stored run where it continues it. `#[inline]` so a
    /// disabled trace costs one predictable branch at each call site.
    #[inline]
    pub fn push(&mut self, ev: TraceEvent) {
        if self.enabled {
            self.record(ev);
        }
    }

    /// The unit-sized common case stays small — a few compares and one
    /// copy; what merges or trims is called out of line.
    #[inline(always)]
    fn record(&mut self, ev: TraceEvent) {
        self.pushed += ev.count;
        self.held += ev.count;
        match self.runs.back() {
            Some(tail) if tail.same_track(&ev) => self.merge(ev),
            _ => self.runs.push_back(ev),
        }
        if self.capacity.is_some_and(|capacity| self.held > capacity) {
            self.trim();
        }
    }

    #[inline(never)]
    fn merge(&mut self, ev: TraceEvent) {
        let tail = self.runs.back_mut().expect("merging needs a tail");
        if let Some(rest) = tail.take(ev) {
            self.runs.push_back(rest);
        }
    }

    /// Drops the oldest units past the capacity: whole runs, then the
    /// front of the run the boundary falls in, in closed form.
    #[inline(never)]
    fn trim(&mut self) {
        let capacity = self.capacity.expect("only a ring trims");
        while self.held > capacity {
            let excess = self.held - capacity;
            let front = self.runs.front_mut().expect("held units are in a run");
            let gone = excess.min(front.count);
            if gone == front.count {
                self.runs.pop_front();
            } else {
                *front = front.suffix(gone);
            }
            self.held -= gone;
            self.dropped += gone;
        }
    }

    /// Snapshot of the stored runs, oldest first (in ring mode, only the
    /// retained window, whose first run may be the tail of a longer one).
    pub fn events(&self) -> Vec<TraceEvent> {
        self.runs.iter().copied().collect()
    }

    /// The retained units one by one, oldest first: O(units).
    pub fn units(&self) -> impl Iterator<Item = TraceEvent> + '_ {
        self.runs.iter().flat_map(TraceEvent::units)
    }

    /// Number of units retained.
    pub fn len(&self) -> u64 {
        self.held
    }

    /// Whether no unit is retained.
    pub fn is_empty(&self) -> bool {
        self.held == 0
    }

    /// Units evicted by ring-buffer overflow (0 in unbounded mode).
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Sequence number the next recorded unit will get — the starting
    /// cursor for a subscriber that wants only future events.
    pub fn next_seq(&self) -> u64 {
        self.pushed
    }

    /// Incremental drain for streaming subscribers: every unit with
    /// sequence number ≥ `cursor` as runs, plus the advanced cursor and
    /// the count of units evicted before the subscriber saw them
    /// (drop-aware resume, as [`crate::RingBuffer::drain_from`]).
    pub fn drain_from(&self, cursor: u64) -> Drained<TraceEvent> {
        let (items, cursor, missed) = self.view_from(cursor);
        Drained {
            items: items.collect(),
            cursor,
            missed,
        }
    }

    /// [`drain_from`](Trace::drain_from) without the vector: `(runs
    /// holding the units ≥ cursor, next cursor, missed)`. Cursors count
    /// units, so one may point into a run — a tail run that grew since the
    /// last drain — and the first item is then the rest of that run. The
    /// walk starts at the newest run: a drain costs the runs it yields.
    pub fn view_from(&self, cursor: u64) -> (impl Iterator<Item = TraceEvent> + '_, u64, u64) {
        let first_seq = self.pushed - self.held;
        let missed = first_seq.saturating_sub(cursor);
        let wanted = self.pushed - cursor.clamp(first_seq, self.pushed);
        let mut from = self.runs.len();
        let mut covered = 0;
        while covered < wanted {
            from -= 1;
            covered += self.runs[from].count;
        }
        let head = (covered > wanted).then(|| self.runs[from].suffix(covered - wanted));
        let whole = self.runs.range(from + usize::from(head.is_some())..);
        (head.into_iter().chain(whole.copied()), self.pushed, missed)
    }

    /// Ring capacity in units (`None` = unbounded).
    pub fn capacity(&self) -> Option<usize> {
        self.capacity.map(|c| c as usize)
    }

    fn count_units(&self, group: usize, keep: impl Fn(UnitKind) -> bool) -> u64 {
        self.runs
            .iter()
            .filter(|e| e.group == group && keep(e.kind))
            .map(|e| e.count)
            .sum()
    }

    /// Number of cycles in which a group *issued* real work (compute,
    /// memory reference or fetch). Bubbles and flow-management overhead
    /// are not busy — they agree with `MachineStats::utilization`; use
    /// [`overhead_cycles`](Self::overhead_cycles) for the overhead
    /// breakdown.
    pub fn busy_cycles(&self, group: usize) -> u64 {
        self.count_units(group, UnitKind::is_issue)
    }

    /// Number of flow-management overhead cycles recorded for a group.
    pub fn overhead_cycles(&self, group: usize) -> u64 {
        self.count_units(group, |k| k == UnitKind::FlowOverhead)
    }

    /// Utilization of a group over the traced window: issued / total
    /// units (bubbles and overhead both count toward the denominator
    /// only).
    pub fn utilization(&self, group: usize) -> f64 {
        let total = self.count_units(group, |_| true);
        if total == 0 {
            return 0.0;
        }
        self.busy_cycles(group) as f64 / total as f64
    }

    /// Renders the single-processor-view Gantt strip of one group.
    ///
    /// One row per flow (plus a bubble row), one column per cycle; each
    /// cell is the [`UnitKind::glyph`] of what the slot executed for that
    /// flow in that cycle. This is the visual language of the paper's
    /// Figures 6–12.
    pub fn gantt(&self, group: usize) -> String {
        let mut out = String::new();
        if self.dropped() > 0 {
            let _ = writeln!(
                out,
                "!! truncated: ring dropped {} oldest trace events",
                self.dropped()
            );
        }
        out.push_str(&gantt::render(&self.events(), group));
        out
    }

    /// Clears all events.
    pub fn clear(&mut self) {
        self.runs.clear();
        self.held = 0;
    }

    /// Exports the trace as CSV (`cycle,group,flow,thread,kind`), one row
    /// per unit, for external plotting of schedules. `flow`/`thread` are
    /// empty for bubbles; `kind` uses the stable [`UnitKind::as_str`]
    /// names.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("cycle,group,flow,thread,kind\n");
        for e in self.units() {
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
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(cycle: u64, flow: Option<FlowTag>, kind: UnitKind) -> TraceEvent {
        TraceEvent::unit(cycle, 0, flow, None, kind)
    }

    #[test]
    fn disabled_trace_records_nothing() {
        let mut t = Trace::disabled();
        t.push(ev(0, Some(1), UnitKind::Compute));
        assert!(t.events().is_empty());
    }

    #[test]
    fn utilization_counts_bubbles() {
        let mut t = Trace::recording();
        t.push(ev(0, Some(1), UnitKind::Compute));
        t.push(ev(1, None, UnitKind::Bubble));
        t.push(ev(2, Some(1), UnitKind::MemShared));
        t.push(ev(3, None, UnitKind::Bubble));
        assert_eq!(t.busy_cycles(0), 2);
        assert!((t.utilization(0) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn overhead_is_not_busy() {
        let mut t = Trace::recording();
        t.push(ev(0, Some(1), UnitKind::Compute));
        t.push(ev(1, Some(1), UnitKind::FlowOverhead));
        t.push(ev(2, Some(1), UnitKind::FlowOverhead));
        t.push(ev(3, None, UnitKind::Bubble));
        assert_eq!(t.busy_cycles(0), 1);
        assert_eq!(t.overhead_cycles(0), 2);
        assert!((t.utilization(0) - 0.25).abs() < 1e-9);
    }

    #[test]
    fn ring_mode_keeps_recent_window() {
        let mut t = Trace::ring(2);
        for c in 0..5 {
            t.push(ev(c, Some(1), UnitKind::Compute));
        }
        let units: Vec<TraceEvent> = t.units().collect();
        assert_eq!(units.len(), 2);
        assert_eq!(units[0].cycle, 3);
        // One stored run: the last two units of the five-cycle run.
        assert_eq!(t.events().len(), 1);
        let run = t.events()[0];
        assert_eq!((run.cycle, run.count(), run.last_cycle()), (3, 2, 4));
        assert_eq!((t.len(), t.dropped()), (2, 3));
        assert_eq!(t.capacity(), Some(2));
    }

    #[test]
    fn gantt_renders_rows_per_flow() {
        let mut t = Trace::recording();
        t.push(ev(10, Some(1), UnitKind::Compute));
        t.push(ev(11, Some(2), UnitKind::MemShared));
        t.push(ev(12, None, UnitKind::Bubble));
        let g = t.gantt(0);
        assert!(g.contains("flow   1 |#  |"));
        assert!(g.contains("flow   2 | M |"));
        assert!(g.contains("(idle) |  .|"));
    }

    #[test]
    fn gantt_empty_group() {
        let t = Trace::recording();
        assert!(t.gantt(3).contains("no events"));
    }

    #[test]
    fn gantt_warns_when_ring_truncated() {
        let mut t = Trace::ring(1);
        t.push(ev(0, Some(1), UnitKind::Compute));
        t.push(ev(1, Some(1), UnitKind::Compute));
        let g = t.gantt(0);
        assert!(g.starts_with("!! truncated: ring dropped 1 oldest trace events"));
        // An untruncated trace renders without the warning.
        assert!(Trace::recording().gantt(0).starts_with("group 0"));
    }

    #[test]
    fn drain_from_resumes_after_drops() {
        let mut t = Trace::ring(2);
        for c in 0..5 {
            t.push(ev(c, Some(1), UnitKind::Compute));
        }
        let d = t.drain_from(0);
        assert_eq!(d.missed, 3);
        assert_eq!(d.items.len(), 1, "two units, one run");
        assert_eq!((d.items[0].cycle, d.items[0].count()), (3, 2));
        assert_eq!(d.cursor, t.next_seq());
    }

    #[test]
    fn csv_export_uses_stable_names() {
        let mut t = Trace::recording();
        t.push(ev(5, Some(2), UnitKind::MemShared));
        t.push(ev(6, None, UnitKind::Bubble));
        let csv = t.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "cycle,group,flow,thread,kind");
        assert_eq!(lines[1], "5,0,2,,shared");
        assert_eq!(lines[2], "6,0,,,bubble");
    }

    #[test]
    fn kind_names_cover_all_variants() {
        let kinds = [
            UnitKind::Compute,
            UnitKind::MemShared,
            UnitKind::MemLocal,
            UnitKind::Fetch,
            UnitKind::Bubble,
            UnitKind::FlowOverhead,
        ];
        let names: Vec<_> = kinds.iter().map(|k| k.as_str()).collect();
        assert_eq!(
            names,
            vec!["compute", "shared", "local", "fetch", "bubble", "overhead"]
        );
    }
}
