//! Cycle-based routing with link reservation.
//!
//! The model charges [`Network::hop_latency`] cycles per hop and allows one
//! message to *enter* each directed link per cycle. Distance-proportional
//! latency and congestion-induced queueing both fall out of this single
//! mechanism: an uncontended message from `s` to `d` is delivered after
//! `distance(s, d) × hop_latency` cycles, while messages competing for a
//! link serialize at one per cycle.
//!
//! # One walk
//!
//! [`Network::new`] asks the [`Topology`] once, for every ordered pair of
//! nodes, which link a message takes first, which node that enters and
//! how many hops remain, and keeps the answers in a `nodes²` table, one
//! row per destination. Every message after that — a
//! [`send`](Network::send), a [`send_on`](Network::send_on) along a
//! [`Route`] handle, both legs of a [`roundtrip`](Network::roundtrip), the
//! occupancy shift of [`replay_roundtrip_tail`](Network::replay_roundtrip_tail)
//! — goes through the one private `leg`, which follows the table hop by
//! hop: a load and a link reservation per hop, no `%`, no `/`, no
//! per-topology branch. The table costs 8 bytes per ordered pair (2 KB on
//! the paper's 4×4 mesh, 512 KB at 256 nodes) and O(nodes²) topology
//! calls to build; the routes it encodes are exactly
//! [`Topology::route`]'s.

use serde::{Deserialize, Serialize};
use tcf_obs::LatencyRun;

use crate::stats::NetStats;
use crate::topology::Topology;

/// First hop of the deterministic route of one ordered pair of nodes.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
struct Hop {
    /// Dense id of the directed link taken ([`Topology::link_id`]).
    link: u32,
    /// Node that link enters.
    next: u16,
    /// Hops left to the destination, this one included (0 on the diagonal).
    dist: u16,
}

/// The interconnection network of one machine.
///
/// Link and module occupancy live in flat vectors indexed by the
/// topology's dense [`link_id`](Topology::link_id)s and node ids, and the
/// routes in a flat first-hop table — the steady-state routing path
/// performs no hashing, no allocation and no topology arithmetic.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Network {
    topology: Topology,
    hop_latency: u64,
    nodes: usize,
    /// First hop of `src -> dst` at `dst * nodes + src`: one row per
    /// destination, so a walk stays in one row and its next index is the
    /// loaded `next` itself.
    first_hop: Vec<Hop>,
    /// Earliest cycle at which each directed link accepts its next
    /// message, indexed by [`Topology::link_id`].
    link_free: Vec<u64>,
    /// Earliest cycle at which each node's memory module accepts its next
    /// reference (modules are pipelined with an initiation interval of
    /// one reference per cycle), indexed by node.
    service_free: Vec<u64>,
    stats: NetStats,
}

/// A handle on the route of one ordered pair, with its hop count and
/// contention-free one-way latency looked up once. Taken per lane run
/// with [`Network::route_to`], then used per message by
/// [`Network::send_on`] and per run by
/// [`Network::replay_roundtrip_tail`].
#[derive(Debug, Clone, Copy)]
pub struct Route {
    src: usize,
    dst: usize,
    hops: usize,
    /// Contention-free one-way latency (distance × hop latency).
    base: u64,
}

impl Route {
    /// Hop count of the route (0 for a same-node pair).
    #[inline]
    pub fn hops(&self) -> usize {
        self.hops
    }
}

/// Traffic counters of a run of messages, held by the caller while it
/// loops over [`Network::roundtrip`] and folded into [`NetStats`] once by
/// [`Network::absorb`]. Every field is a sum or a maximum, so the fold
/// gives the totals per-message updates would have, in any interleaving
/// with the calls that update [`NetStats`] directly.
#[derive(Debug, Default)]
pub struct NetRun {
    messages: usize,
    hops: usize,
    local_deliveries: usize,
    queue_cycles: u64,
    queue: LatencyRun,
}

impl Network {
    /// Creates a network over `topology` charging `hop_latency` cycles per
    /// hop (must be ≥ 1). Builds the first-hop table: O(nodes²) time and
    /// 8 bytes per ordered pair.
    pub fn new(topology: Topology, hop_latency: u64) -> Network {
        assert!(hop_latency >= 1, "hop latency must be at least one cycle");
        let nodes = topology.nodes();
        assert!(
            nodes <= usize::from(u16::MAX),
            "{topology:?}: the route table holds node ids in 16 bits"
        );
        let mut first_hop = Vec::with_capacity(nodes * nodes);
        for dst in 0..nodes {
            for src in 0..nodes {
                first_hop.push(if src == dst {
                    Hop {
                        link: 0,
                        next: dst as u16,
                        dist: 0,
                    }
                } else {
                    let next = topology.next_hop(src, dst);
                    Hop {
                        link: u32::try_from(topology.link_id(src, next))
                            .expect("link ids fit 32 bits below 65536 nodes"),
                        next: next as u16,
                        dist: topology.distance(src, dst) as u16,
                    }
                });
            }
        }
        Network {
            topology,
            hop_latency,
            nodes,
            first_hop,
            link_free: vec![0; topology.link_count()],
            service_free: vec![0; nodes],
            stats: NetStats::default(),
        }
    }

    /// The one range check every public entry point that takes node ids
    /// shares.
    #[inline]
    fn check(&self, src: usize, dst: usize) {
        if src >= self.nodes || dst >= self.nodes {
            self.out_of_range(if src < self.nodes { dst } else { src });
        }
    }

    #[cold]
    #[inline(never)]
    fn out_of_range(&self, node: usize) -> ! {
        panic!(
            "node {node} out of range for {:?} ({} nodes)",
            self.topology, self.nodes
        );
    }

    /// Follows the table from `src` to `dst` (both in range), handing
    /// `reserve` the next-free slot of each directed link in traversal
    /// order; returns the hop count. The one route mechanism: everything
    /// that touches links goes through here.
    #[inline]
    fn leg(&mut self, src: usize, dst: usize, mut reserve: impl FnMut(&mut u64)) -> usize {
        let towards = &self.first_hop[dst * self.nodes..][..self.nodes];
        let (mut at, mut hops) = (src, 0);
        while at != dst {
            let hop = towards[at];
            reserve(&mut self.link_free[hop.link as usize]);
            at = usize::from(hop.next);
            hops += 1;
        }
        hops
    }

    /// Routes one message `src -> dst` (both in range), reserving links,
    /// and counts it into `run`; returns its delivery cycle. Always
    /// inlined: as a call per leg it cost the pipeline's reference loops
    /// 9–16% (`run` then lives in memory, not registers).
    #[inline(always)]
    fn deliver(&mut self, src: usize, dst: usize, now: u64, run: &mut NetRun) -> u64 {
        run.messages += 1;
        if src == dst {
            run.local_deliveries += 1;
            return now;
        }
        let hop_latency = self.hop_latency;
        let mut t = now;
        let hops = self.leg(src, dst, |slot| {
            let enter = t.max(*slot);
            *slot = enter + 1;
            t = enter + hop_latency;
        });
        run.hops += hops;
        let queued = t - (now + hops as u64 * hop_latency);
        run.queue_cycles += queued;
        run.queue.record(queued, &mut self.stats.queue);
        t
    }

    /// Folds a run's counters into the statistics; returns at once for a
    /// run that carried no message.
    #[inline]
    pub fn absorb(&mut self, mut run: NetRun) {
        if run.messages == 0 {
            return;
        }
        let stats = &mut self.stats;
        stats.messages += run.messages;
        stats.hops += run.hops;
        stats.local_deliveries += run.local_deliveries;
        stats.queue_cycles += run.queue_cycles;
        stats.max_queue_cycles = stats.max_queue_cycles.max(run.queue.max());
        run.queue.flush(&mut stats.queue);
    }

    /// Reserves the memory module at `node` for one reference arriving at
    /// `arrive`; returns the cycle its reply is ready. The module accepts
    /// one reference per cycle (pipelined) and serves each in
    /// `service_latency` cycles, so a module hammered by concurrent
    /// references serializes — the congestion that randomized placement
    /// ([`tcf_mem`-style hashing]) exists to avoid.
    ///
    /// [`tcf_mem`-style hashing]: crate
    #[inline]
    pub fn service(&mut self, node: usize, arrive: u64, service_latency: u64) -> u64 {
        let slot = &mut self.service_free[node];
        let start = arrive.max(*slot);
        *slot = start + 1;
        start + service_latency
    }

    /// The cycle at which the directed link `from -> to` (a one-hop
    /// neighbour pair) accepts its next message. Observability hook used
    /// by congestion diagnostics and the router conformance tests.
    pub fn link_busy_until(&self, from: usize, to: usize) -> u64 {
        self.check(from, to);
        let hop = self.first_hop[to * self.nodes + from];
        assert_eq!(hop.dist, 1, "{from} -> {to} is not a link");
        self.link_free[hop.link as usize]
    }

    /// The network's topology.
    #[inline]
    pub fn topology(&self) -> Topology {
        self.topology
    }

    /// Cycles per hop.
    #[inline]
    pub fn hop_latency(&self) -> u64 {
        self.hop_latency
    }

    /// Hop distance between two nodes.
    #[inline]
    pub fn distance(&self, from: usize, to: usize) -> usize {
        self.check(from, to);
        usize::from(self.first_hop[to * self.nodes + from].dist)
    }

    /// Routes one message injected at cycle `now`; returns its delivery
    /// cycle. Same-node messages are delivered immediately (the memory
    /// module is co-located with the processor group).
    ///
    /// # Panics
    /// If either node is out of range for the topology.
    #[inline]
    pub fn send(&mut self, src: usize, dst: usize, now: u64) -> u64 {
        self.check(src, dst);
        let mut run = NetRun::default();
        let t = self.deliver(src, dst, now, &mut run);
        self.absorb(run);
        t
    }

    /// Routes a batch in order; returns per-message delivery cycles and the
    /// cycle by which all are delivered.
    pub fn send_batch(&mut self, msgs: &[(usize, usize)], now: u64) -> (Vec<u64>, u64) {
        let deliveries: Vec<u64> = msgs.iter().map(|&(s, d)| self.send(s, d, now)).collect();
        let done = deliveries.iter().copied().max().unwrap_or(now);
        (deliveries, done)
    }

    /// One shared-memory reference, fused: the request leg `src -> node`
    /// injected at `now`, the module's [`service`](Network::service), and
    /// the reply leg back. Returns the cycle the reply reaches `src`.
    /// Reservations and delivery cycles are those of the three calls made
    /// one by one; the traffic counters go to the caller's `run`, to be
    /// [`absorb`](Network::absorb)ed once after its loop.
    ///
    /// # Panics
    /// If either node is out of range for the topology.
    #[inline]
    pub fn roundtrip(
        &mut self,
        src: usize,
        node: usize,
        now: u64,
        service_latency: u64,
        run: &mut NetRun,
    ) -> u64 {
        self.check(src, node);
        let arrive = self.deliver(src, node, now, run);
        let served = self.service(node, arrive, service_latency);
        self.deliver(node, src, served, run)
    }

    /// A [`Route`] handle for repeated [`send_on`](Network::send_on) calls
    /// over the same pair — the bulk-multioperation shape, where a whole
    /// lane run targets one module. Never declines an in-range pair (the
    /// `Option` is kept for callers written against the fixed-size handle
    /// this replaced).
    ///
    /// # Panics
    /// If either node is out of range for the topology.
    pub fn route_to(&self, src: usize, dst: usize) -> Option<Route> {
        let hops = self.distance(src, dst);
        Some(Route {
            src,
            dst,
            hops,
            base: hops as u64 * self.hop_latency,
        })
    }

    /// Routes one message along a [`Route`]: identical link reservations,
    /// delivery cycle, and statistics to [`send`](Network::send) over the
    /// same pair, and counted in [`NetStats::route_sends`].
    #[inline]
    pub fn send_on(&mut self, route: &Route, now: u64) -> u64 {
        self.stats.route_sends += 1;
        let mut run = NetRun::default();
        let t = self.deliver(route.src, route.dst, now, &mut run);
        self.absorb(run);
        t
    }

    /// Replays messages `1..=tail` of a same-route round-trip run in
    /// closed form, after the caller has walked message 0 exactly
    /// (fwd [`send_on`](Network::send_on) → [`service`](Network::service)
    /// → rev [`send_on`](Network::send_on)).
    ///
    /// Every directed link and the module are rate-1 FIFO servers, and
    /// the issue cadence `s_k = s0 + ⌊(c + k)/width⌋` never advances
    /// faster than one message per cycle, so message `k`'s whole
    /// trajectory is message 0's shifted by exactly `k` cycles: each
    /// touched resource's next-free slot moves by `tail`, deliveries are
    /// `back0 + k`, and the per-message queueing delays are cadence
    /// ramps (forward leg) or constant (return leg — the module emits
    /// exactly one reply per cycle). Field for field identical to
    /// issuing the `tail` messages one by one, at O(hops + log tail)
    /// cost.
    ///
    /// `(arrive0, served0, back0)` is message 0's trajectory as returned
    /// by the three calls above; `s0` is its issue cycle and `c < width`
    /// the number of messages the caller had already issued in cycle
    /// `s0` before it.
    #[allow(clippy::too_many_arguments)]
    pub fn replay_roundtrip_tail(
        &mut self,
        fwd: &Route,
        rev: &Route,
        node: usize,
        tail: u64,
        s0: u64,
        arrive0: u64,
        served0: u64,
        back0: u64,
        c: u64,
        width: u64,
    ) {
        if tail == 0 {
            return;
        }
        // Occupancy: every server's next-free slot advances one cycle per
        // trailing message.
        for route in [fwd, rev] {
            self.leg(route.src, route.dst, |slot| *slot += tail);
        }
        self.service_free[node] += tail;
        // Statistics, exactly as per-message `send_on` calls would have
        // accumulated them (the histogram is order-independent, so the
        // interleaving of forward and return samples does not matter).
        self.stats.messages += 2 * tail as usize;
        self.stats.route_sends += 2 * tail as usize;
        if fwd.hops == 0 {
            self.stats.local_deliveries += tail as usize;
        } else {
            self.stats.hops += fwd.hops * tail as usize;
            // queued_k = arrive_k − (s_k + base) ramps with the cadence.
            let q0 = arrive0 - (s0 + fwd.base);
            let (sum, last) = self.stats.queue.record_ramp(q0, c, width, 1, tail + 1);
            self.stats.queue_cycles += sum;
            self.stats.max_queue_cycles = self.stats.max_queue_cycles.max(last);
        }
        if rev.hops == 0 {
            self.stats.local_deliveries += tail as usize;
        } else {
            self.stats.hops += rev.hops * tail as usize;
            let q0 = back0 - (served0 + rev.base);
            let (sum, last) = self.stats.queue.record_ramp(q0, 0, 1, 1, tail + 1);
            self.stats.queue_cycles += sum;
            self.stats.max_queue_cycles = self.stats.max_queue_cycles.max(last);
        }
    }

    /// Traffic statistics since construction or the last [`reset`].
    ///
    /// [`reset`]: Network::reset
    #[inline]
    pub fn stats(&self) -> &NetStats {
        &self.stats
    }

    /// Clears link and module reservations and statistics.
    pub fn reset(&mut self) {
        self.link_free.fill(0);
        self.service_free.fill(0);
        self.stats = NetStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ring(n: usize, lat: u64) -> Network {
        Network::new(Topology::Ring { nodes: n }, lat)
    }

    #[test]
    fn uncontended_latency_proportional_to_distance() {
        let mut net = ring(8, 3);
        assert_eq!(net.send(0, 1, 10), 13);
        net.reset();
        assert_eq!(net.send(0, 4, 10), 10 + 4 * 3);
    }

    #[test]
    fn same_node_is_free() {
        let mut net = ring(8, 3);
        assert_eq!(net.send(5, 5, 42), 42);
        assert_eq!(net.stats().local_deliveries, 1);
    }

    #[test]
    fn contention_serializes_on_shared_link() {
        let mut net = ring(8, 1);
        // Two messages over the same first link (0 -> 1) at the same cycle.
        let d1 = net.send(0, 2, 0);
        let d2 = net.send(0, 2, 0);
        assert_eq!(d1, 2);
        assert_eq!(d2, 3); // one cycle behind on every link
        assert!(net.stats().queue_cycles > 0);
    }

    #[test]
    fn disjoint_paths_do_not_interfere() {
        let mut net = ring(8, 1);
        let d1 = net.send(0, 1, 0);
        let d2 = net.send(4, 5, 0);
        assert_eq!(d1, 1);
        assert_eq!(d2, 1);
        assert_eq!(net.stats().queue_cycles, 0);
    }

    #[test]
    fn crossbar_serializes_at_destination_port() {
        let mut net = Network::new(Topology::Crossbar { nodes: 8 }, 1);
        // All nodes hammer node 0: the (n, 0) links are distinct, so an
        // ideal crossbar delivers them all in one cycle.
        let msgs: Vec<(usize, usize)> = (1..8).map(|s| (s, 0)).collect();
        let (_, done) = net.send_batch(&msgs, 0);
        assert_eq!(done, 1);
        // But one node sending many messages serializes on its own link.
        net.reset();
        let msgs = vec![(3, 0); 5];
        let (deliveries, done) = net.send_batch(&msgs, 0);
        assert_eq!(deliveries, vec![1, 2, 3, 4, 5]);
        assert_eq!(done, 5);
    }

    #[test]
    fn batch_reports_completion() {
        let mut net = ring(6, 2);
        let (deliveries, done) = net.send_batch(&[(0, 1), (0, 2), (3, 3)], 100);
        assert_eq!(deliveries.len(), 3);
        assert_eq!(done, *deliveries.iter().max().unwrap());
    }

    #[test]
    fn reset_clears_reservations() {
        let mut net = ring(8, 1);
        net.send(0, 2, 0);
        net.reset();
        assert_eq!(net.send(0, 2, 0), 2);
        assert_eq!(net.stats().messages, 1);
    }

    #[test]
    fn module_service_serializes_one_per_cycle() {
        let mut net = ring(4, 1);
        // Three references arriving at the same module in the same cycle:
        // service starts pipeline at one per cycle.
        assert_eq!(net.service(0, 10, 2), 12);
        assert_eq!(net.service(0, 10, 2), 13);
        assert_eq!(net.service(0, 10, 2), 14);
        // A later arrival at an idle moment starts immediately.
        assert_eq!(net.service(0, 100, 2), 102);
        // Another module is independent.
        assert_eq!(net.service(1, 10, 2), 12);
    }

    #[test]
    fn reset_clears_service_reservations() {
        let mut net = ring(4, 1);
        net.service(0, 0, 1);
        net.reset();
        assert_eq!(net.service(0, 0, 1), 1);
    }

    /// The pre-flat-vector router, verbatim: link and service occupancy
    /// in hash maps keyed by `(prev, next)` pairs and node ids. Kept as
    /// the reference model for the dense-id rewrite.
    struct HashMapRouter {
        topology: Topology,
        hop_latency: u64,
        link_free: std::collections::HashMap<(usize, usize), u64>,
        service_free: std::collections::HashMap<usize, u64>,
    }

    impl HashMapRouter {
        fn new(topology: Topology, hop_latency: u64) -> HashMapRouter {
            HashMapRouter {
                topology,
                hop_latency,
                link_free: Default::default(),
                service_free: Default::default(),
            }
        }

        fn send(&mut self, src: usize, dst: usize, now: u64) -> u64 {
            if src == dst {
                return now;
            }
            let route = self.topology.route(src, dst);
            let mut t = now;
            let mut prev = src;
            for next in route {
                let slot = self.link_free.entry((prev, next)).or_insert(0);
                let enter = t.max(*slot);
                *slot = enter + 1;
                t = enter + self.hop_latency;
                prev = next;
            }
            t
        }

        fn service(&mut self, node: usize, arrive: u64, service_latency: u64) -> u64 {
            let slot = self.service_free.entry(node).or_insert(0);
            let start = arrive.max(*slot);
            *slot = start + 1;
            start + service_latency
        }
    }

    /// Every link of `topology`, as `(from, to)` one-hop pairs.
    fn links(topology: Topology) -> Vec<(usize, usize)> {
        let n = topology.nodes();
        (0..n)
            .flat_map(|from| (0..n).map(move |to| (from, to)))
            .filter(|&(from, to)| topology.distance(from, to) == 1)
            .collect()
    }

    fn test_topologies() -> [Topology; 3] {
        [
            Topology::Ring { nodes: 8 },
            Topology::Mesh2D {
                width: 4,
                height: 4,
            },
            Topology::Crossbar { nodes: 8 },
        ]
    }

    #[test]
    fn flat_occupancy_matches_hashmap_reference_trace() {
        for topology in test_topologies() {
            let n = topology.nodes();
            // `net` makes every call one by one; `fused` makes the round
            // trips of the same trace with `roundtrip` into one run
            // accumulator, absorbed at the end.
            let mut net = Network::new(topology, 3);
            let mut fused = Network::new(topology, 3);
            let mut run = NetRun::default();
            let mut reference = HashMapRouter::new(topology, 3);
            // A recorded trace of pseudo-random messages and module
            // reservations (deterministic LCG so the trace is stable).
            let mut state = 0x2545F4914F6CDD1Du64;
            let mut rng = move || {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (state >> 33) as usize
            };
            for i in 0..500 {
                let src = rng() % n;
                let dst = rng() % n;
                let now = (i / 3) as u64;
                let delivered = reference.send(src, dst, now);
                assert_eq!(
                    net.send(src, dst, now),
                    delivered,
                    "{topology:?}: delivery diverged for {src}->{dst} @ {now}"
                );
                assert_eq!(fused.send(src, dst, now), delivered);
                if i % 5 == 0 {
                    let node = rng() % n;
                    let served = reference.service(node, now, 2);
                    assert_eq!(
                        net.service(node, now, 2),
                        served,
                        "{topology:?}: service diverged at node {node}"
                    );
                    assert_eq!(fused.service(node, now, 2), served);
                }
                if i % 3 == 0 {
                    let arrive = reference.send(dst, src, now);
                    let served = reference.service(src, arrive, 2);
                    let back = reference.send(src, dst, served);
                    let arrive = net.send(dst, src, now);
                    let served = net.service(src, arrive, 2);
                    assert_eq!(net.send(src, dst, served), back);
                    assert_eq!(
                        fused.roundtrip(dst, src, now, 2, &mut run),
                        back,
                        "{topology:?}: round trip diverged for {dst}->{src} @ {now}"
                    );
                }
            }
            fused.absorb(run);
            assert_eq!(net.stats(), fused.stats(), "{topology:?}: stats");
            assert_eq!(net.service_free, fused.service_free, "{topology:?}");
            // Every link the reference trace touched shows the same
            // per-link busy-until time in the flat tables, and no other
            // link was touched.
            for (from, to) in links(topology) {
                let busy = reference.link_free.get(&(from, to)).copied().unwrap_or(0);
                for flat in [&net, &fused] {
                    assert_eq!(
                        flat.link_busy_until(from, to),
                        busy,
                        "{topology:?}: busy-until diverged on link {from}->{to}"
                    );
                }
            }
        }
    }

    #[test]
    fn send_on_matches_send_exactly() {
        for topology in test_topologies() {
            let n = topology.nodes();
            // The same round trips three ways: per-pair `send`s, `send_on`
            // along route handles, and the fused `roundtrip`.
            let mut by_pair = Network::new(topology, 3);
            let mut by_route = Network::new(topology, 3);
            let mut by_trip = Network::new(topology, 3);
            let mut run = NetRun::default();
            for src in 0..n {
                for dst in 0..n {
                    let fwd = by_route.route_to(src, dst).expect("never declines");
                    let rev = by_route.route_to(dst, src).expect("never declines");
                    assert_eq!(fwd.hops(), topology.distance(src, dst));
                    // Repeated messages exercise both the uncontended and
                    // the link-queued cases.
                    for i in 0..4u64 {
                        let arrive = by_pair.send(src, dst, i / 2);
                        assert_eq!(
                            arrive,
                            by_route.send_on(&fwd, i / 2),
                            "{topology:?}: delivery diverged for {src}->{dst}"
                        );
                        let served = by_pair.service(dst, arrive, 2);
                        assert_eq!(served, by_route.service(dst, arrive, 2));
                        let back = by_pair.send(dst, src, served);
                        assert_eq!(back, by_route.send_on(&rev, served));
                        assert_eq!(
                            back,
                            by_trip.roundtrip(src, dst, i / 2, 2, &mut run),
                            "{topology:?}: round trip diverged for {src}->{dst}"
                        );
                    }
                }
            }
            by_trip.absorb(run);
            // `send_on` additionally counts its route-handle reuse; every
            // timing/congestion statistic must still agree exactly.
            let mut route_stats = by_route.stats().clone();
            assert_eq!(route_stats.route_sends, n * n * 8);
            route_stats.route_sends = 0;
            assert_eq!(by_pair.stats(), &route_stats);
            assert_eq!(by_pair.stats(), by_trip.stats());
            for other in [&by_route, &by_trip] {
                assert_eq!(by_pair.link_free, other.link_free);
                assert_eq!(by_pair.service_free, other.service_free);
            }
        }
    }

    /// A `count`-message same-module run `group -> node` issued from the
    /// pipeline cadence (`width` per cycle, `initial_issued` already
    /// issued this cycle): message 0 exact plus the closed-form tail must
    /// equal the per-message loop field for field.
    fn assert_replay_matches_loop(
        topology: Topology,
        (group, node): (usize, usize),
        width: usize,
        initial_issued: usize,
        count: u64,
        warm: bool,
    ) {
        let mut looped = Network::new(topology, 2);
        let mut bulk = Network::new(topology, 2);
        if warm {
            // Pre-load links and the module so the run starts against
            // congestion.
            for i in 0..6 {
                looped.send(i % 8, node, 0);
                bulk.send(i % 8, node, 0);
                looped.service(node, 0, 3);
                bulk.service(node, 0, 3);
            }
        }
        let fwd = looped.route_to(group, node).unwrap();
        let rev = looped.route_to(node, group).unwrap();
        // Per-message reference, pipeline cadence.
        let (mut t, mut issued) = (10u64, initial_issued);
        let mut last_back = 0u64;
        for _ in 0..count {
            if issued >= width {
                t += 1;
                issued = 0;
            }
            issued += 1;
            let arrive = looped.send_on(&fwd, t);
            let served = looped.service(node, arrive, 3);
            last_back = looped.send_on(&rev, served);
        }
        // Closed form: message 0 exact, tail bulk.
        let (mut t, mut issued) = (10u64, initial_issued);
        if issued >= width {
            t += 1;
            issued = 0;
        }
        issued += 1;
        let s0 = t;
        let arrive0 = bulk.send_on(&fwd, s0);
        let served0 = bulk.service(node, arrive0, 3);
        let back0 = bulk.send_on(&rev, served0);
        bulk.replay_roundtrip_tail(
            &fwd,
            &rev,
            node,
            count - 1,
            s0,
            arrive0,
            served0,
            back0,
            (issued - 1) as u64,
            width as u64,
        );
        let ctx = format!(
            "{topology:?} {group}->{node} width {width} \
             phase {initial_issued} count {count} warm {warm}"
        );
        assert_eq!(back0 + (count - 1), last_back, "{ctx}: delivery");
        assert_eq!(looped.stats(), bulk.stats(), "{ctx}: stats");
        assert_eq!(looped.link_free, bulk.link_free, "{ctx}: links");
        assert_eq!(looped.service_free, bulk.service_free, "{ctx}: modules");
    }

    #[test]
    fn replay_roundtrip_tail_matches_per_message_loop() {
        for topology in test_topologies() {
            // (group, node) pairs: remote, fully local, and reversed-remote.
            for pair in [(0usize, 5usize), (3, 3), (2, 0)] {
                for width in [1usize, 4] {
                    for initial_issued in [0, width - 1] {
                        for count in [1u64, 2, 7, 64] {
                            for warm in [false, true] {
                                assert_replay_matches_loop(
                                    topology,
                                    pair,
                                    width,
                                    initial_issued,
                                    count,
                                    warm,
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn long_routes_take_the_closed_form() {
        // Diameter 32: twice what the fixed-size handle this replaced
        // could hold, so such runs fell back to the per-message loop.
        let topology = Topology::Ring { nodes: 64 };
        let net = Network::new(topology, 1);
        assert_eq!(net.route_to(0, 32).expect("never declines").hops(), 32);
        assert_eq!(net.route_to(0, 16).expect("never declines").hops(), 16);
        for width in [1usize, 4] {
            for warm in [false, true] {
                assert_replay_matches_loop(topology, (0, 32), width, width - 1, 64, warm);
            }
        }
    }

    #[test]
    fn table_walk_equals_topology_route() {
        let topologies = [
            Topology::Ring { nodes: 1 },
            Topology::Ring { nodes: 2 },
            Topology::Ring { nodes: 7 },
            Topology::Ring { nodes: 8 },
            Topology::Mesh2D {
                width: 1,
                height: 1,
            },
            Topology::Mesh2D {
                width: 3,
                height: 5,
            },
            Topology::Mesh2D {
                width: 4,
                height: 4,
            },
            Topology::Crossbar { nodes: 1 },
            Topology::Crossbar { nodes: 5 },
        ];
        for topology in topologies {
            let n = topology.nodes();
            let net = Network::new(topology, 2);
            assert_eq!(net.first_hop.len(), n * n);
            for src in 0..n {
                for dst in 0..n {
                    let ctx = format!("{topology:?} {src}->{dst}");
                    let route = topology.route(src, dst);
                    assert_eq!(net.distance(src, dst), route.len(), "{ctx}");
                    assert_eq!(net.distance(src, dst), topology.distance(src, dst));
                    assert_eq!(net.route_to(src, dst).unwrap().hops(), route.len());
                    let (mut at, mut entered, mut left) = (src, Vec::new(), route.len());
                    while at != dst {
                        let hop = net.first_hop[dst * n + at];
                        let next = usize::from(hop.next);
                        assert_eq!(hop.link as usize, topology.link_id(at, next), "{ctx}");
                        assert_eq!(usize::from(hop.dist), left, "{ctx}: hops left at {at}");
                        entered.push(next);
                        left -= 1;
                        at = next;
                    }
                    assert_eq!(entered, route, "{ctx}: nodes entered");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "node 99 out of range for Ring { nodes: 8 }")]
    fn send_rejects_an_out_of_range_node_on_a_ring() {
        ring(8, 1).send(0, 99, 0);
    }

    #[test]
    #[should_panic(expected = "node 16 out of range for Mesh2D { width: 4, height: 4 }")]
    fn route_to_rejects_an_out_of_range_node_on_a_mesh() {
        let net = Network::new(
            Topology::Mesh2D {
                width: 4,
                height: 4,
            },
            1,
        );
        net.route_to(16, 3);
    }

    #[test]
    #[should_panic(expected = "node 5 out of range for Crossbar { nodes: 5 }")]
    fn roundtrip_rejects_an_out_of_range_node_on_a_crossbar() {
        let mut net = Network::new(Topology::Crossbar { nodes: 5 }, 1);
        net.roundtrip(2, 5, 0, 1, &mut NetRun::default());
    }

    #[test]
    fn mean_hops_tracks_topology() {
        let mut net = Network::new(
            Topology::Mesh2D {
                width: 3,
                height: 3,
            },
            1,
        );
        net.send(0, 8, 0); // distance 4
        net.send(0, 1, 0); // distance 1
        assert_eq!(net.stats().hops, 5);
        assert!((net.stats().mean_hops() - 2.5).abs() < 1e-9);
    }
}
