//! The per-group issue pipeline with ESM-style latency hiding.
//!
//! A CESM processor issues one operation per cycle. In PRAM mode, the
//! operations of a step belong to many threads (baseline) or to the many
//! implicit threads of resident TCFs (extended model), so memory round
//! trips overlap with the issuing of later operations: a step completes
//! only when every unit has issued **and** every shared-memory reply has
//! returned. When the issue window is long enough (`units ≥ roundtrip`)
//! latency is fully hidden; when it is shorter, the pipeline drains into
//! bubbles — exactly the low-TLP utilization collapse the PRAM-NUMA model
//! exists to fix (paper §1, §2.1, Figure 6).
//!
//! NUMA-mode steps run the same engine with `serialize_mem = true`: a
//! sequential instruction stream cannot issue past an outstanding load, so
//! references serialize, but against the *local* memory's one-cycle-ish
//! latency rather than the network round trip.

use tcf_net::{NetRun, Network};
use tcf_obs::LatencyRun;

use crate::stats::MachineStats;
use crate::trace::{FlowTag, Trace, TraceEvent, UnitKind};

/// One operation presented to the issue slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IssueUnit {
    /// Flow (TCF / bunch) the unit belongs to; `None` for a forced idle
    /// slot (a dead thread slot in the fixed rotation of baseline
    /// machines).
    pub flow: Option<FlowTag>,
    /// Implicit thread index within the flow, when meaningful.
    pub thread: Option<usize>,
    /// Unit kind. `Bubble` denotes a forced idle slot.
    pub kind: UnitKind,
    /// Destination node of a `MemShared` unit (the module's network node).
    pub mem_node: Option<usize>,
}

impl IssueUnit {
    /// A compute unit of `flow`.
    pub fn compute(flow: FlowTag, thread: usize) -> IssueUnit {
        IssueUnit {
            flow: Some(flow),
            thread: Some(thread),
            kind: UnitKind::Compute,
            mem_node: None,
        }
    }

    /// A shared-memory reference of `flow` to module node `node`.
    pub fn shared_mem(flow: FlowTag, thread: usize, node: usize) -> IssueUnit {
        IssueUnit {
            flow: Some(flow),
            thread: Some(thread),
            kind: UnitKind::MemShared,
            mem_node: Some(node),
        }
    }

    /// A local-memory reference of `flow`.
    pub fn local_mem(flow: FlowTag, thread: usize) -> IssueUnit {
        IssueUnit {
            flow: Some(flow),
            thread: Some(thread),
            kind: UnitKind::MemLocal,
            mem_node: None,
        }
    }

    /// An instruction fetch on behalf of `flow`.
    pub fn fetch(flow: FlowTag) -> IssueUnit {
        IssueUnit {
            flow: Some(flow),
            thread: None,
            kind: UnitKind::Fetch,
            mem_node: None,
        }
    }

    /// A flow-management overhead cycle.
    pub fn overhead(flow: FlowTag) -> IssueUnit {
        IssueUnit {
            flow: Some(flow),
            thread: None,
            kind: UnitKind::FlowOverhead,
            mem_node: None,
        }
    }

    /// A forced idle slot: the fixed thread rotation of an interleaved
    /// multithreaded processor spends a cycle on a dead or empty thread
    /// slot. This is how the baseline's low-TLP utilization problem
    /// (paper §1, §2.1) enters the timing model.
    pub fn idle() -> IssueUnit {
        IssueUnit {
            flow: None,
            thread: None,
            kind: UnitKind::Bubble,
            mem_node: None,
        }
    }
}

/// A run-length–compressed span of issue units.
///
/// Thick instructions issue one unit per lane with a completely regular
/// shape (consecutive thread ranks, and — for memory references under
/// low-order interleaving — module nodes in arithmetic progression).
/// Encoding the span instead of materializing one `IssueUnit` per lane
/// lets the pipeline advance its issue cadence in closed form, turning
/// the per-step timing cost of a `T`-thick compute instruction from
/// `O(T)` into `O(1)`. Network-bound spans (`SharedRun`) targeting one
/// module walk the router for message 0 and replay the rest in closed
/// form; spans rotating across modules make one fused
/// [`Network::roundtrip`] per message, but skip the per-unit dispatch.
///
/// Every span stands for exactly the unit sequence the uncompressed path
/// would have produced, and a recording trace stores it as what it is —
/// one run ([`TraceEvent::run`]) — so recording does not change what a
/// step costs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnitSeq {
    /// A single unit, exactly as in the uncompressed path.
    One(IssueUnit),
    /// `count` compute units of `flow` on threads `thread0 ..
    /// thread0 + count`.
    ComputeRun {
        /// Flow tag shared by the whole run.
        flow: FlowTag,
        /// Thread rank of the first lane.
        thread0: usize,
        /// Number of lanes.
        count: usize,
    },
    /// `count` shared-memory units of `flow` on threads `thread0 ..`;
    /// lane `k` targets module node `(node0 + k·node_step) mod nodes`.
    SharedRun {
        /// Flow tag shared by the whole run.
        flow: FlowTag,
        /// Thread rank of the first lane.
        thread0: usize,
        /// Number of lanes.
        count: usize,
        /// Module node of the first lane.
        node0: usize,
        /// Node increment between consecutive lanes (already reduced
        /// modulo `nodes`).
        node_step: usize,
        /// Module/node count of the machine.
        nodes: usize,
    },
    /// `count` local-memory units of `flow` on threads `thread0 ..`.
    LocalRun {
        /// Flow tag shared by the whole run.
        flow: FlowTag,
        /// Thread rank of the first lane.
        thread0: usize,
        /// Number of lanes.
        count: usize,
    },
    /// `count` flow-management overhead cycles of `flow` — a TCF-buffer
    /// reload, the register copies of a flow creation.
    OverheadRun {
        /// Flow the cycles are spent on.
        flow: FlowTag,
        /// Number of cycles.
        count: usize,
    },
}

impl From<IssueUnit> for UnitSeq {
    fn from(u: IssueUnit) -> UnitSeq {
        UnitSeq::One(u)
    }
}

impl UnitSeq {
    /// Number of issue units this span stands for.
    #[inline]
    pub fn len(&self) -> usize {
        match *self {
            UnitSeq::One(_) => 1,
            UnitSeq::ComputeRun { count, .. }
            | UnitSeq::SharedRun { count, .. }
            | UnitSeq::LocalRun { count, .. }
            | UnitSeq::OverheadRun { count, .. } => count,
        }
    }

    /// Whether the span is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The `k`-th unit of the span, as the uncompressed path would have
    /// built it.
    #[inline]
    pub fn unit_at(&self, k: usize) -> IssueUnit {
        match *self {
            UnitSeq::One(u) => u,
            UnitSeq::ComputeRun { flow, thread0, .. } => IssueUnit::compute(flow, thread0 + k),
            UnitSeq::SharedRun {
                flow,
                thread0,
                node0,
                node_step,
                nodes,
                ..
            } => IssueUnit::shared_mem(flow, thread0 + k, (node0 + k * node_step) % nodes),
            UnitSeq::LocalRun { flow, thread0, .. } => IssueUnit::local_mem(flow, thread0 + k),
            UnitSeq::OverheadRun { flow, .. } => IssueUnit::overhead(flow),
        }
    }
}

/// Timing result of one group step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StepOutcome {
    /// First cycle of the step.
    pub start_cycle: u64,
    /// First cycle *after* the step (start of the next step).
    pub end_cycle: u64,
    /// Units issued.
    pub issued: usize,
    /// Bubble cycles spent waiting for outstanding replies (or an empty
    /// step's mandatory cycle).
    pub drain_bubbles: u64,
}

impl StepOutcome {
    /// Step length in cycles.
    #[inline]
    pub fn cycles(&self) -> u64 {
        self.end_cycle - self.start_cycle
    }
}

/// Issue engine of one processor group.
#[derive(Debug, Clone)]
pub struct GroupPipeline {
    /// This group's index (its network node).
    pub group: usize,
    /// Module service latency in cycles.
    pub module_latency: u64,
    /// Local memory latency in cycles.
    pub local_latency: u64,
    /// Operations issued per cycle in PRAM mode (ILP-TLP co-execution,
    /// §3.2). Serialized (NUMA-mode) steps always issue one per cycle:
    /// a sequential stream has no independent operations to co-issue.
    pub ilp_width: usize,
}

impl GroupPipeline {
    /// Creates the pipeline of `group` with a single functional unit.
    pub fn new(group: usize, module_latency: u64, local_latency: u64) -> GroupPipeline {
        GroupPipeline {
            group,
            module_latency,
            local_latency,
            ilp_width: 1,
        }
    }

    /// Creates the pipeline of `group` with `ilp_width` functional units.
    pub fn with_ilp(
        group: usize,
        module_latency: u64,
        local_latency: u64,
        ilp_width: usize,
    ) -> GroupPipeline {
        assert!(ilp_width >= 1, "need at least one functional unit");
        GroupPipeline {
            group,
            module_latency,
            local_latency,
            ilp_width,
        }
    }

    /// Executes one step's worth of units starting at `start`.
    ///
    /// With `serialize_mem` (NUMA mode) each memory reference blocks the
    /// next issue until its reply returns; otherwise (PRAM mode) issue
    /// continues and the step merely cannot *end* before the last reply.
    /// An empty unit list still consumes one cycle (a step always takes
    /// time).
    pub fn run_step(
        &self,
        start: u64,
        units: &[IssueUnit],
        serialize_mem: bool,
        net: &mut Network,
        trace: &mut Trace,
        stats: &mut MachineStats,
    ) -> StepOutcome {
        let width = if serialize_mem { 1 } else { self.ilp_width };
        let mut st = IssueState::new(start);
        for u in units {
            self.issue_one(&mut st, u, width, serialize_mem, net, trace, stats);
        }
        self.finish_step(st, start, units.len(), net, trace, stats)
    }

    /// [`run_step`](GroupPipeline::run_step) over a run-length–compressed
    /// unit sequence.
    ///
    /// Produces the exact timing, statistics, network occupancy, and (when
    /// tracing) recorded trace of `run_step` on the expanded sequence.
    /// Compute, overhead and local-memory runs advance the issue cadence in
    /// closed form. Same-module shared-memory runs walk the router for
    /// message 0 only and replay the remaining messages in closed form
    /// ([`Network::replay_roundtrip_tail`]); runs that rotate across
    /// modules make one [`Network::roundtrip`] per message. Each of them
    /// is recorded as the one run it is, on the same path, tracing or not;
    /// only what has no cadence shape — single units, and memory
    /// references a serialized stream waits on — is recorded per unit.
    pub fn run_step_seq(
        &self,
        start: u64,
        seqs: &[UnitSeq],
        serialize_mem: bool,
        net: &mut Network,
        trace: &mut Trace,
        stats: &mut MachineStats,
    ) -> StepOutcome {
        let width = if serialize_mem { 1 } else { self.ilp_width };
        let mut st = IssueState::new(start);
        let mut issued_total = 0usize;
        for s in seqs {
            let count = s.len();
            issued_total += count;
            match *s {
                UnitSeq::One(u) => {
                    self.issue_one(&mut st, &u, width, serialize_mem, net, trace, stats);
                }
                _ if count == 0 => {}
                // Neither kind waits for a reply, serialized or not.
                UnitSeq::ComputeRun { .. } | UnitSeq::OverheadRun { .. } => {
                    self.begin_run(&st, s, s.unit_at(0).kind, width, trace, stats);
                    st.advance_issue(count, width);
                }
                UnitSeq::LocalRun { flow, thread0, .. } if serialize_mem => {
                    // A serialized stream re-synchronizes on every
                    // reply, so the cadence is strictly periodic: each
                    // local reference advances the clock by
                    // `max(1, local_latency)` and resets the issue
                    // slot — the whole run collapses to closed form.
                    // This is the NUMA bunch shape: `T` consecutive
                    // local references of a sequential stream cost
                    // O(1) timing work instead of O(T).
                    let period = self.local_latency.max(1);
                    if period == 1 {
                        self.begin_run(&st, s, UnitKind::MemLocal, width, trace, stats);
                    } else {
                        // `period` cycles apart is not a cadence shape:
                        // a recording trace takes these one by one.
                        stats.count_units(UnitKind::MemLocal, count as u64);
                        if trace.is_enabled() {
                            let (t0, _) = st.next_slot(width);
                            for k in 0..count {
                                trace.push(TraceEvent::unit(
                                    t0 + k as u64 * period,
                                    self.group,
                                    Some(flow),
                                    Some(thread0 + k),
                                    UnitKind::MemLocal,
                                ));
                            }
                        }
                    }
                    (st.t, _) = st.next_slot(width);
                    st.last_reply = st
                        .last_reply
                        .max(st.t + (count as u64 - 1) * period + self.local_latency);
                    st.t += count as u64 * period;
                    st.issued_this_cycle = 0;
                }
                UnitSeq::LocalRun { .. } => {
                    self.begin_run(&st, s, UnitKind::MemLocal, width, trace, stats);
                    // Replies are monotone in issue time, so only the
                    // last lane's reply can extend the step.
                    st.advance_issue(count, width);
                    st.last_reply = st.last_reply.max(st.t + self.local_latency);
                }
                UnitSeq::SharedRun { .. } if serialize_mem => {
                    // Every reference restarts the cadence at its reply.
                    for k in 0..count {
                        let u = s.unit_at(k);
                        self.issue_one(&mut st, &u, width, serialize_mem, net, trace, stats);
                    }
                }
                UnitSeq::SharedRun {
                    node0,
                    node_step,
                    nodes,
                    ..
                } => {
                    self.begin_run(&st, s, UnitKind::MemShared, width, trace, stats);
                    if node_step == 0 {
                        // Every lane targets the same module (the
                        // bulk-multioperation shape): both routes repeat
                        // per message. Message 0 walks the router exactly;
                        // every later message trails it by exactly one
                        // cycle (each directed link and the module are
                        // rate-1 FIFO servers fed at most one message per
                        // cycle by the issue cadence), so the tail
                        // collapses to closed-form occupancy shifts and
                        // cadence-ramp statistics — O(log T) per run
                        // instead of O(T).
                        let route = |from, to| {
                            net.route_to(from, to)
                                .expect("route_to never declines an in-range pair")
                        };
                        let (fwd, rev) = (route(self.group, node0), route(node0, self.group));
                        st.begin_issue(width);
                        let s0 = st.t;
                        let arrive = net.send_on(&fwd, s0);
                        let served = net.service(node0, arrive, self.module_latency);
                        let back = net.send_on(&rev, served);
                        st.roundtrip.record(back - s0, &mut stats.mem_roundtrip);
                        let tail = (count - 1) as u64;
                        if tail > 0 {
                            let c = (st.issued_this_cycle - 1) as u64;
                            let w = width as u64;
                            net.replay_roundtrip_tail(
                                &fwd, &rev, node0, tail, s0, arrive, served, back, c, w,
                            );
                            // Round trips of the tail: back_k − s_k with
                            // back_k = back + k and s_k on the cadence.
                            stats
                                .mem_roundtrip
                                .record_ramp(back - s0, c, w, 1, tail + 1);
                            st.advance_issue(count - 1, width);
                        }
                        st.last_reply = st.last_reply.max(back + tail);
                    } else {
                        let mut node = node0;
                        for _ in 0..count {
                            st.begin_issue(width);
                            let back = self.shared_ref(&mut st, node, net, stats);
                            st.last_reply = st.last_reply.max(back);
                            node += node_step;
                            if node >= nodes {
                                node -= nodes;
                            }
                        }
                    }
                }
            }
        }
        self.finish_step(st, start, issued_total, net, trace, stats)
    }

    /// Books a run that issues back to back from the cadence's next slot
    /// on: its units in the statistics and, when the trace records, the
    /// one [`TraceEvent`] run it is.
    #[inline(always)]
    fn begin_run(
        &self,
        st: &IssueState,
        s: &UnitSeq,
        kind: UnitKind,
        width: usize,
        trace: &mut Trace,
        stats: &mut MachineStats,
    ) {
        stats.count_units(kind, s.len() as u64);
        if trace.is_enabled() {
            self.record_run(st, s, width, trace);
        }
    }

    #[inline(never)]
    fn record_run(&self, st: &IssueState, s: &UnitSeq, width: usize, trace: &mut Trace) {
        let (cycle, slots) = st.next_slot(width);
        let head = s.unit_at(0);
        let head = TraceEvent::unit(cycle, self.group, head.flow, head.thread, head.kind);
        trace.push(
            TraceEvent::run(head, s.len() as u64, slots as u64, width as u64)
                .expect("the cadence shapes a run"),
        );
    }

    /// One shared-memory reference issued at `st.t`: the fused network
    /// round trip to the module at `node` and its latency sample, both
    /// into the step's run accumulators. Returns the reply cycle.
    #[inline]
    fn shared_ref(
        &self,
        st: &mut IssueState,
        node: usize,
        net: &mut Network,
        stats: &mut MachineStats,
    ) -> u64 {
        let back = net.roundtrip(self.group, node, st.t, self.module_latency, &mut st.net);
        st.roundtrip.record(back - st.t, &mut stats.mem_roundtrip);
        back
    }

    /// The per-unit issue body shared by the expanded and compressed
    /// paths: cadence, trace, stats, and the memory round trip.
    #[inline]
    #[allow(clippy::too_many_arguments)]
    fn issue_one(
        &self,
        st: &mut IssueState,
        u: &IssueUnit,
        width: usize,
        serialize_mem: bool,
        net: &mut Network,
        trace: &mut Trace,
        stats: &mut MachineStats,
    ) {
        st.begin_issue(width);
        // Tested here, not only inside `push`: the record is an argument,
        // and building it ahead of the test cost 1 ns a unit with the
        // trace off.
        if trace.is_enabled() {
            trace.push(TraceEvent::unit(st.t, self.group, u.flow, u.thread, u.kind));
        }
        stats.count_unit(u.kind);
        if u.kind == UnitKind::Bubble {
            return;
        }

        let reply = match u.kind {
            UnitKind::MemShared => {
                let node = u.mem_node.unwrap_or(self.group);
                Some(self.shared_ref(st, node, net, stats))
            }
            UnitKind::MemLocal => Some(st.t + self.local_latency),
            _ => None,
        };
        if let Some(r) = reply {
            st.last_reply = st.last_reply.max(r);
            if serialize_mem {
                // The forwarding network makes the reply consumable in
                // the cycle it returns, so the next dependent issue may
                // happen at `r` (not `r + 1`).
                st.t = (st.t + 1).max(r);
                st.issued_this_cycle = 0;
            }
        }
    }

    /// Step epilogue shared by both paths: the run accumulators' fold
    /// into the statistics, final-cycle close-out, drain bubbles, and the
    /// cycle-counter update.
    fn finish_step(
        &self,
        mut st: IssueState,
        start: u64,
        issued: usize,
        net: &mut Network,
        trace: &mut Trace,
        stats: &mut MachineStats,
    ) -> StepOutcome {
        // Both are no-ops for a step that made no shared reference.
        net.absorb(st.net);
        st.roundtrip.flush(&mut stats.mem_roundtrip);

        if st.issued_this_cycle > 0 {
            st.t += 1;
        }

        // The step ends when issue is done and every reply has returned.
        let mut end = st.t.max(st.last_reply);
        if issued == 0 {
            end = start + 1;
        }
        let drain = end - st.t.min(end);
        if drain > 0 && trace.is_enabled() {
            let head = TraceEvent::unit(st.t, self.group, None, None, UnitKind::Bubble);
            trace.push(TraceEvent::run(head, drain, 1, 1).expect("a bubble a cycle"));
        }
        stats.count_units(UnitKind::Bubble, drain);
        // `stats.steps` is owned by the machine driving the pipeline: a
        // machine step may span several `run_step` calls (one per group,
        // plus a serialized NUMA sub-step), so per-call counting here
        // would overcount.
        stats.cycles = stats.cycles.max(end);

        StepOutcome {
            start_cycle: start,
            end_cycle: end,
            issued,
            drain_bubbles: drain,
        }
    }
}

/// Mutable state threaded through one `run_step`: the issue cadence, and
/// the step's shared references' network counters and round-trip
/// latencies, accumulated here and folded into `NetStats` /
/// `MachineStats::mem_roundtrip` by `finish_step`.
#[derive(Debug)]
struct IssueState {
    t: u64,
    last_reply: u64,
    issued_this_cycle: usize,
    net: NetRun,
    roundtrip: LatencyRun,
}

impl IssueState {
    fn new(start: u64) -> IssueState {
        IssueState {
            t: start,
            last_reply: start,
            issued_this_cycle: 0,
            net: NetRun::default(),
            roundtrip: LatencyRun::default(),
        }
    }

    /// Where the next unit issues: `(cycle, free slots on it)`.
    #[inline]
    fn next_slot(&self, width: usize) -> (u64, usize) {
        if self.issued_this_cycle >= width {
            (self.t + 1, width)
        } else {
            (self.t, width - self.issued_this_cycle)
        }
    }

    /// Claims an issue slot for one unit: moves to the next cycle when
    /// this one's `width` slots are taken.
    #[inline]
    fn begin_issue(&mut self, width: usize) {
        if self.issued_this_cycle >= width {
            self.t += 1;
            self.issued_this_cycle = 0;
        }
        self.issued_this_cycle += 1;
    }

    /// Advances the cadence past `count` back-to-back non-blocking units
    /// in closed form: exactly what `count` iterations of the per-unit
    /// `if issued >= width { t += 1; issued = 0 } … issued += 1` loop
    /// would do. (`issued_this_cycle` never exceeds `width` between
    /// units, so the pre-increment carry folds into one division.)
    #[inline]
    fn advance_issue(&mut self, count: usize, width: usize) {
        // `issued_this_cycle ≤ width` here, so the lanes already issued in
        // the current cycle never contribute a whole extra cycle
        // themselves — the single division accounts for every carry.
        let total = self.issued_this_cycle + count;
        self.t += ((total - 1) / width) as u64;
        self.issued_this_cycle = (total - 1) % width + 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcf_net::Topology;

    fn net() -> Network {
        Network::new(Topology::Crossbar { nodes: 4 }, 2)
    }

    fn pipe() -> GroupPipeline {
        GroupPipeline::new(0, 2, 1)
    }

    fn run(units: &[IssueUnit], serialize: bool) -> StepOutcome {
        let mut n = net();
        let mut t = Trace::disabled();
        let mut s = MachineStats::default();
        pipe().run_step(0, units, serialize, &mut n, &mut t, &mut s)
    }

    #[test]
    fn compute_only_step_is_one_cycle_per_unit() {
        let units: Vec<IssueUnit> = (0..10).map(|i| IssueUnit::compute(1, i)).collect();
        let out = run(&units, false);
        assert_eq!(out.cycles(), 10);
        assert_eq!(out.drain_bubbles, 0);
    }

    #[test]
    fn empty_step_takes_one_cycle() {
        let out = run(&[], false);
        assert_eq!(out.cycles(), 1);
    }

    #[test]
    fn short_step_with_memory_drains_bubbles() {
        // Remote roundtrip: 2 hops * 2 cycles + 2 module = 6 cycles; one
        // unit issues in 1 cycle, so ~5 bubbles drain.
        let units = vec![IssueUnit::shared_mem(1, 0, 1)];
        let out = run(&units, false);
        assert_eq!(out.cycles(), 6);
        assert_eq!(out.drain_bubbles, 5);
    }

    #[test]
    fn long_step_hides_memory_latency() {
        // 32 units, each a remote reference: issue takes 32 cycles, far
        // beyond the ~6-cycle roundtrip, so the tail reply lands before
        // issuing ends (modulo destination-port queueing).
        let units: Vec<IssueUnit> = (0..32)
            .map(|i| IssueUnit::shared_mem(1, i, (i % 3) + 1))
            .collect();
        let out = run(&units, false);
        assert!(out.cycles() < 40, "latency not hidden: {out:?}");
        assert!(out.drain_bubbles < 8);
    }

    #[test]
    fn numa_serializes_on_shared_memory() {
        let units: Vec<IssueUnit> = (0..4).map(|i| IssueUnit::shared_mem(1, i, 1)).collect();
        let pram = run(&units, false);
        let numa = run(&units, true);
        assert!(
            numa.cycles() > pram.cycles(),
            "serialized {} vs pipelined {}",
            numa.cycles(),
            pram.cycles()
        );
    }

    #[test]
    fn numa_local_access_is_cheap() {
        // Local latency 1: serialization costs nothing extra at 1 IPC.
        let units: Vec<IssueUnit> = (0..8).map(|i| IssueUnit::local_mem(1, i)).collect();
        let out = run(&units, true);
        assert_eq!(out.cycles(), 8);
    }

    #[test]
    fn trace_records_bubbles_and_issues() {
        let mut n = net();
        let mut tr = Trace::recording();
        let mut s = MachineStats::default();
        let units = vec![IssueUnit::shared_mem(7, 0, 1)];
        pipe().run_step(0, &units, false, &mut n, &mut tr, &mut s);
        assert_eq!(s.shared_refs, 1);
        assert_eq!(s.bubbles, 5);
        // One reference, then the five bubbles as one run.
        let runs = tr.events();
        assert_eq!((runs.len(), tr.len()), (2, 6));
        assert_eq!((runs[0].flow, runs[0].count()), (Some(7), 1));
        assert_eq!((runs[1].kind, runs[1].count()), (UnitKind::Bubble, 5));
    }

    #[test]
    fn ilp_width_co_issues_independent_ops() {
        let mut n = net();
        let mut tr = Trace::disabled();
        let mut s = MachineStats::default();
        let units: Vec<IssueUnit> = (0..32).map(|i| IssueUnit::compute(1, i)).collect();
        let narrow =
            GroupPipeline::with_ilp(0, 2, 1, 1).run_step(0, &units, false, &mut n, &mut tr, &mut s);
        let wide =
            GroupPipeline::with_ilp(0, 2, 1, 4).run_step(0, &units, false, &mut n, &mut tr, &mut s);
        assert_eq!(narrow.cycles(), 32);
        assert_eq!(wide.cycles(), 8);
    }

    #[test]
    fn ilp_width_does_not_speed_serialized_streams() {
        // A sequential (NUMA) stream has no independent ops to co-issue.
        let mut n = net();
        let mut tr = Trace::disabled();
        let mut s = MachineStats::default();
        let units: Vec<IssueUnit> = (0..8).map(|i| IssueUnit::local_mem(1, i)).collect();
        let narrow =
            GroupPipeline::with_ilp(0, 2, 1, 1).run_step(0, &units, true, &mut n, &mut tr, &mut s);
        let wide =
            GroupPipeline::with_ilp(0, 2, 1, 4).run_step(0, &units, true, &mut n, &mut tr, &mut s);
        assert_eq!(narrow.cycles(), wide.cycles());
    }

    #[test]
    fn stats_cycles_track_end() {
        let mut n = net();
        let mut tr = Trace::disabled();
        let mut s = MachineStats::default();
        let p = pipe();
        let out1 = p.run_step(
            0,
            &[IssueUnit::compute(1, 0)],
            false,
            &mut n,
            &mut tr,
            &mut s,
        );
        let out2 = p.run_step(
            out1.end_cycle,
            &[IssueUnit::compute(1, 0)],
            false,
            &mut n,
            &mut tr,
            &mut s,
        );
        // Step counting belongs to the machine, not the pipeline.
        assert_eq!(s.steps, 0);
        assert_eq!(s.cycles, out2.end_cycle);
    }

    /// Every link's and every module's next-free cycle. (`service` at
    /// cycle 0 with latency 0 returns the slot; the clone keeps the probe
    /// from reserving it.)
    fn occupancy(net: &Network) -> (Vec<u64>, Vec<u64>) {
        let topology = net.topology();
        let n = topology.nodes();
        let links = (0..n)
            .flat_map(|from| (0..n).map(move |to| (from, to)))
            .filter(|&(from, to)| topology.distance(from, to) == 1)
            .map(|(from, to)| net.link_busy_until(from, to))
            .collect();
        let mut probe = net.clone();
        let modules = (0..n).map(|node| probe.service(node, 0, 0)).collect();
        (links, modules)
    }

    /// Expands each compressed step and checks the compressed path gives
    /// the same timing, statistics, network state, and trace as the
    /// uncompressed one. The steps run back to back on one network per
    /// path, so later steps start against the earlier ones' occupancy.
    fn assert_steps_match_expanded(
        mk_net: fn() -> Network,
        steps: &[&[UnitSeq]],
        serialize: bool,
        ilp: usize,
        recording: bool,
    ) -> Network {
        let p = GroupPipeline::with_ilp(0, 2, 1, ilp);
        let mk_trace = || {
            if recording {
                Trace::recording()
            } else {
                Trace::disabled()
            }
        };
        let (mut n1, mut t1, mut s1) = (mk_net(), mk_trace(), MachineStats::default());
        let (mut n2, mut t2, mut s2) = (mk_net(), mk_trace(), MachineStats::default());
        let mut start = 7;
        for seqs in steps {
            let expanded: Vec<IssueUnit> = seqs
                .iter()
                .flat_map(|s| (0..s.len()).map(move |k| s.unit_at(k)))
                .collect();
            let out1 = p.run_step(start, &expanded, serialize, &mut n1, &mut t1, &mut s1);
            let out2 = p.run_step_seq(start, seqs, serialize, &mut n2, &mut t2, &mut s2);
            assert_eq!(out1, out2, "outcome diverged (serialize={serialize})");
            start = out1.end_cycle;
        }
        assert_eq!(s1, s2, "stats diverged (serialize={serialize})");
        // `route_sends` counts which send API delivered a message, not
        // what was delivered — the compressed path reuses route handles
        // where the expanded path resolves per message, so it is the one
        // NetStats field allowed to differ between the two.
        let mut net1 = n1.stats().clone();
        let mut net2 = n2.stats().clone();
        net1.route_sends = 0;
        net2.route_sends = 0;
        assert_eq!(net1, net2, "net stats diverged");
        assert_eq!(occupancy(&n1), occupancy(&n2), "occupancy diverged");
        // The per-unit recorder and the run recorder store the same runs,
        // which say the same units.
        assert!(t1.units().eq(t2.units()), "traced units diverged");
        assert_eq!(t1.events(), t2.events(), "stored runs diverged");
        let traced = s1.issued() + s1.bubbles + s1.overhead_cycles;
        assert_eq!(t1.len(), if recording { traced } else { 0 });
        n2
    }

    fn assert_seq_matches_expanded(seqs: &[UnitSeq], serialize: bool, ilp: usize, recording: bool) {
        assert_steps_match_expanded(net, &[seqs], serialize, ilp, recording);
    }

    #[test]
    fn compressed_runs_match_expanded_units() {
        let cases: Vec<Vec<UnitSeq>> = vec![
            vec![],
            vec![UnitSeq::ComputeRun {
                flow: 1,
                thread0: 0,
                count: 17,
            }],
            vec![
                UnitSeq::One(IssueUnit::fetch(1)),
                UnitSeq::ComputeRun {
                    flow: 1,
                    thread0: 4,
                    count: 5,
                },
                UnitSeq::LocalRun {
                    flow: 1,
                    thread0: 4,
                    count: 3,
                },
                UnitSeq::One(IssueUnit::overhead(2)),
            ],
            vec![
                UnitSeq::One(IssueUnit::fetch(3)),
                UnitSeq::SharedRun {
                    flow: 3,
                    thread0: 0,
                    count: 13,
                    node0: 2,
                    node_step: 1,
                    nodes: 4,
                },
                UnitSeq::ComputeRun {
                    flow: 3,
                    thread0: 0,
                    count: 13,
                },
            ],
            vec![
                UnitSeq::SharedRun {
                    flow: 5,
                    thread0: 8,
                    count: 9,
                    node0: 0,
                    node_step: 3,
                    nodes: 4,
                },
                UnitSeq::SharedRun {
                    flow: 6,
                    thread0: 0,
                    count: 6,
                    node0: 1,
                    node_step: 0,
                    nodes: 4,
                },
            ],
            vec![
                UnitSeq::ComputeRun {
                    flow: 9,
                    thread0: 0,
                    count: 0,
                },
                UnitSeq::One(IssueUnit::idle()),
                UnitSeq::ComputeRun {
                    flow: 9,
                    thread0: 0,
                    count: 1,
                },
            ],
            // Mid-cycle start into a large same-module run, then a second
            // run to the same module against warmed link/module occupancy
            // — the closed-form tail replay must match per message.
            vec![
                UnitSeq::One(IssueUnit::compute(7, 0)),
                UnitSeq::One(IssueUnit::compute(7, 1)),
                UnitSeq::SharedRun {
                    flow: 7,
                    thread0: 0,
                    count: 100,
                    node0: 3,
                    node_step: 0,
                    nodes: 4,
                },
                UnitSeq::SharedRun {
                    flow: 7,
                    thread0: 100,
                    count: 23,
                    node0: 3,
                    node_step: 0,
                    nodes: 4,
                },
            ],
            // Same-module run to the group's own node: both routes are
            // zero-hop, only the module serializes.
            vec![
                UnitSeq::SharedRun {
                    flow: 8,
                    thread0: 0,
                    count: 41,
                    node0: 0,
                    node_step: 0,
                    nodes: 4,
                },
                UnitSeq::One(IssueUnit::shared_mem(8, 41, 0)),
            ],
            // A buffer reload entered mid-cycle (three singles into ILP 4),
            // then the degenerate lengths, then work behind them.
            vec![
                UnitSeq::One(IssueUnit::compute(2, 0)),
                UnitSeq::One(IssueUnit::compute(2, 1)),
                UnitSeq::One(IssueUnit::compute(2, 2)),
                UnitSeq::OverheadRun { flow: 3, count: 8 },
                UnitSeq::OverheadRun { flow: 4, count: 0 },
                UnitSeq::OverheadRun { flow: 5, count: 1 },
                UnitSeq::One(IssueUnit::shared_mem(3, 0, 2)),
                UnitSeq::ComputeRun {
                    flow: 3,
                    thread0: 0,
                    count: 6,
                },
            ],
            // Long local run entered mid-cycle, then more locals — the
            // serialized closed form (NUMA bunch shape) must carry the
            // cadence exactly like the per-unit replay.
            vec![
                UnitSeq::One(IssueUnit::fetch(4)),
                UnitSeq::One(IssueUnit::compute(4, 0)),
                UnitSeq::LocalRun {
                    flow: 4,
                    thread0: 1,
                    count: 57,
                },
                UnitSeq::One(IssueUnit::local_mem(4, 58)),
                UnitSeq::LocalRun {
                    flow: 4,
                    thread0: 59,
                    count: 1,
                },
                UnitSeq::ComputeRun {
                    flow: 4,
                    thread0: 60,
                    count: 4,
                },
            ],
        ];
        for seqs in &cases {
            for serialize in [false, true] {
                for ilp in [1, 4] {
                    for recording in [false, true] {
                        assert_seq_matches_expanded(seqs, serialize, ilp, recording);
                    }
                }
            }
        }
    }

    #[test]
    fn compressed_cadence_carries_partial_cycles() {
        // A run that starts mid-cycle must fold the already-issued lanes
        // into its carry arithmetic (ilp 4: 3 singles + run of 10 = 13
        // units → 4 cycles).
        let seqs = vec![
            UnitSeq::One(IssueUnit::compute(1, 0)),
            UnitSeq::One(IssueUnit::compute(1, 1)),
            UnitSeq::One(IssueUnit::compute(1, 2)),
            UnitSeq::ComputeRun {
                flow: 1,
                thread0: 3,
                count: 10,
            },
        ];
        assert_seq_matches_expanded(&seqs, false, 4, false);
        let mut n = net();
        let mut t = Trace::disabled();
        let mut s = MachineStats::default();
        let out = GroupPipeline::with_ilp(0, 2, 1, 4)
            .run_step_seq(0, &seqs, false, &mut n, &mut t, &mut s);
        assert_eq!(out.cycles(), 4);
        assert_eq!(out.issued, 13);
    }

    /// One step with every shape the timing walk has: single shared
    /// units and rotating runs (run accumulators), same-module runs
    /// (whose `send_on`/`replay_roundtrip_tail` write `NetStats` directly
    /// between the accumulated messages) and local runs.
    fn mixed_step(nodes: usize, far: usize) -> Vec<UnitSeq> {
        vec![
            UnitSeq::One(IssueUnit::fetch(1)),
            UnitSeq::One(IssueUnit::shared_mem(1, 0, far)),
            UnitSeq::One(IssueUnit::shared_mem(1, 1, 0)),
            UnitSeq::SharedRun {
                flow: 1,
                thread0: 2,
                count: 3 * nodes + 5,
                node0: 1,
                node_step: 3 % nodes,
                nodes,
            },
            UnitSeq::SharedRun {
                flow: 1,
                thread0: 0,
                count: 40,
                node0: far,
                node_step: 0,
                nodes,
            },
            UnitSeq::One(IssueUnit::shared_mem(1, 3, far)),
            UnitSeq::OverheadRun { flow: 2, count: 5 },
            UnitSeq::LocalRun {
                flow: 1,
                thread0: 0,
                count: 9,
            },
            UnitSeq::SharedRun {
                flow: 2,
                thread0: 0,
                count: 17,
                node0: nodes - 1,
                node_step: 1,
                nodes,
            },
            UnitSeq::ComputeRun {
                flow: 2,
                thread0: 0,
                count: 6,
            },
            UnitSeq::SharedRun {
                flow: 2,
                thread0: 17,
                count: 1,
                node0: far,
                node_step: 0,
                nodes,
            },
            UnitSeq::One(IssueUnit::shared_mem(2, 18, 1)),
        ]
    }

    #[test]
    fn mixed_steps_match_expanded_units_on_mesh_and_long_ring() {
        fn mesh() -> Network {
            Network::new(
                Topology::Mesh2D {
                    width: 4,
                    height: 4,
                },
                2,
            )
        }
        fn long_ring() -> Network {
            Network::new(Topology::Ring { nodes: 64 }, 1)
        }
        // A second, serialized-looking list: what a NUMA bunch issues.
        let numa_list = [
            UnitSeq::One(IssueUnit::fetch(3)),
            UnitSeq::LocalRun {
                flow: 3,
                thread0: 0,
                count: 12,
            },
            UnitSeq::One(IssueUnit::shared_mem(3, 0, 5)),
            UnitSeq::OverheadRun { flow: 4, count: 8 },
            UnitSeq::One(IssueUnit::compute(3, 0)),
        ];
        for (mk_net, nodes, far) in [(mesh as fn() -> Network, 16, 15), (long_ring, 64, 32)] {
            let step = mixed_step(nodes, far);
            for serialize in [false, true] {
                for ilp in [1, 4] {
                    for recording in [false, true] {
                        let after = assert_steps_match_expanded(
                            mk_net,
                            &[&step, &numa_list, &step],
                            serialize,
                            ilp,
                            recording,
                        );
                        // The same-module runs took the closed form (on the
                        // 32-hop ring route too), recorded or not.
                        let expect = if serialize { 0 } else { 2 * 2 * (40 + 1) };
                        assert_eq!(after.stats().route_sends, expect);
                    }
                }
            }
        }
    }

    /// A random step list: all five `UnitSeq` kinds, every unit kind as a
    /// single, run lengths 0, 1, 2, 3 (the wire's shortest run line) and
    /// large; at `ilp_width` 4 most runs start mid-cycle.
    fn random_steps(rng: &mut proptest::test_runner::TestRng) -> Vec<Vec<UnitSeq>> {
        let nodes = 4;
        let mut steps = Vec::new();
        for _ in 0..1 + rng.below(3) {
            let mut seqs = Vec::new();
            let mut thread0 = 0;
            for _ in 0..rng.below(9) {
                let flow = 1 + rng.below(2) as u32;
                let count = [0, 1, 2, 3, 5, 64, 301][rng.below(7) as usize];
                // Mostly carry the thread on, so neighbours can merge.
                if rng.below(4) == 0 {
                    thread0 = rng.below(3) as usize;
                }
                let single = |u| (UnitSeq::One(u), 1);
                let (seq, len) = match rng.below(10) {
                    0 => single(IssueUnit::compute(flow, thread0)),
                    1 => single(IssueUnit::shared_mem(flow, thread0, rng.below(4) as usize)),
                    2 => single(IssueUnit::local_mem(flow, thread0)),
                    3 => single(IssueUnit::fetch(flow)),
                    4 => single(if rng.below(2) == 0 {
                        IssueUnit::overhead(flow)
                    } else {
                        IssueUnit::idle()
                    }),
                    5 | 6 => (
                        UnitSeq::ComputeRun {
                            flow,
                            thread0,
                            count,
                        },
                        count,
                    ),
                    7 => (
                        UnitSeq::SharedRun {
                            flow,
                            thread0,
                            count,
                            node0: rng.below(nodes) as usize,
                            node_step: rng.below(3) as usize,
                            nodes: nodes as usize,
                        },
                        count,
                    ),
                    8 => (
                        UnitSeq::LocalRun {
                            flow,
                            thread0,
                            count,
                        },
                        count,
                    ),
                    _ => (UnitSeq::OverheadRun { flow, count }, 0),
                };
                thread0 += len;
                seqs.push(seq);
            }
            steps.push(seqs);
        }
        steps
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        /// `run_step_seq` records runs; the reference is the per-unit
        /// recorder — `run_step` on the expanded units, one `push` per
        /// unit. Same units, same stored runs, same counters, and a
        /// bounded ring holds exactly the last `n` of them.
        #[test]
        fn recorded_runs_match_the_per_unit_recorder(seed in 0u64..u64::MAX) {
            let mut rng = proptest::test_runner::TestRng::seeded(seed);
            let steps = random_steps(&mut rng);
            for (ilp, serialize, local_latency) in [
                (1, false, 1), (4, false, 1), (4, false, 3),
                (1, true, 1), (4, true, 1), (1, true, 3),
            ] {
                let p = GroupPipeline::with_ilp(0, 2, local_latency, ilp);
                let record = |mut trace: Trace, by_unit: bool| {
                    let (mut n, mut s) = (net(), MachineStats::default());
                    let mut start = 3;
                    for seqs in &steps {
                        let out = if by_unit {
                            let units: Vec<IssueUnit> = seqs
                                .iter()
                                .flat_map(|s| (0..s.len()).map(move |k| s.unit_at(k)))
                                .collect();
                            p.run_step(start, &units, serialize, &mut n, &mut trace, &mut s)
                        } else {
                            p.run_step_seq(start, seqs, serialize, &mut n, &mut trace, &mut s)
                        };
                        start = out.end_cycle;
                    }
                    (trace, s, start)
                };
                let (reference, stats, end) = record(Trace::recording(), true);
                let units: Vec<TraceEvent> = reference.units().collect();
                for capacity in [None, Some(1), Some(7), Some(64)] {
                    let mk = || capacity.map_or_else(Trace::recording, Trace::ring);
                    let (got, got_stats, got_end) = record(mk(), false);
                    proptest::prop_assert_eq!((got_stats, got_end), (stats, end));
                    let kept = capacity.map_or(units.len(), |c| c.min(units.len()));
                    let window = &units[units.len() - kept..];
                    proptest::prop_assert!(
                        got.units().eq(window.iter().copied()),
                        "units of the ring, capacity {:?}", capacity
                    );
                    proptest::prop_assert_eq!(got.len(), kept as u64);
                    proptest::prop_assert_eq!(got.dropped(), (units.len() - kept) as u64);
                    proptest::prop_assert_eq!(got.next_seq(), units.len() as u64);
                    let busy = window.iter().filter(|u| u.kind.is_issue()).count();
                    proptest::prop_assert_eq!(got.busy_cycles(0), busy as u64);
                    // The stored runs are the greedy-maximal ones: none
                    // takes a unit of its successor. (A front run the ring
                    // has trimmed is a suffix, not a run as recorded.)
                    let runs = got.events();
                    let trimmed = usize::from(got.dropped() > 0);
                    for pair in runs[trimmed.min(runs.len())..].windows(2) {
                        let mut a = pair[0];
                        proptest::prop_assert_eq!(a.absorb(pair[1]), Some(pair[1]));
                    }
                    // And they are the per-unit recorder's, to the record.
                    let (by_unit, _, _) = record(mk(), true);
                    proptest::prop_assert_eq!(by_unit.events(), runs);
                }
            }
        }
    }

    #[test]
    fn shared_memory_roundtrips_land_in_histogram() {
        let mut n = net();
        let mut tr = Trace::disabled();
        let mut s = MachineStats::default();
        let units: Vec<IssueUnit> = (0..4).map(|i| IssueUnit::shared_mem(1, i, 1)).collect();
        pipe().run_step(0, &units, false, &mut n, &mut tr, &mut s);
        assert_eq!(s.mem_roundtrip.count(), 4);
        // Uncontended remote roundtrip: 2 hops * 2 cycles + 2 module.
        assert!(s.mem_roundtrip.max() >= 6);
    }
}
