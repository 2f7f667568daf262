//! Run results.

use serde::{Deserialize, Serialize};

use tcf_mem::StepStats;
use tcf_net::NetStats;
use tcf_obs::MetricsRegistry;

use crate::stats::MachineStats;

/// Outcome of running a program to completion.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunSummary {
    /// Synchronous steps executed.
    pub steps: u64,
    /// Machine cycles elapsed (the makespan over groups).
    pub cycles: u64,
    /// Whether every thread/flow halted (as opposed to hitting the step
    /// budget — which is reported as an error, so this is always true for
    /// successful runs; kept for serialized records).
    pub halted: bool,
    /// Aggregated pipeline statistics over all groups.
    pub machine: MachineStats,
    /// Aggregated shared-memory statistics.
    pub memory: StepStats,
    /// Network statistics.
    pub network: NetStats,
}

impl RunSummary {
    /// Instructions (issued units) per cycle across the whole machine.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.machine.issued() as f64 / self.cycles as f64
        }
    }

    /// All of the run's measurements as one named-series registry —
    /// machine, memory and network counters, derived gauges, and latency
    /// histograms — instead of reading three stats structs by hand. See
    /// `docs/OBSERVABILITY.md` for the naming scheme.
    pub fn metrics(&self) -> MetricsRegistry {
        summary_metrics(&self.machine, &self.memory, &self.network)
    }
}

/// Builds the unified registry from the three per-subsystem counter
/// structs. Shared by [`RunSummary::metrics`] and the extended machine's
/// live `metrics()` accessor (which adds the TCF-buffer series on top).
pub fn summary_metrics(
    machine: &MachineStats,
    memory: &StepStats,
    network: &NetStats,
) -> MetricsRegistry {
    let mut reg = MetricsRegistry::new();

    reg.set_counter("machine.steps", machine.steps);
    reg.set_counter("machine.cycles", machine.cycles);
    reg.set_counter("machine.compute_ops", machine.compute_ops);
    reg.set_counter("machine.shared_refs", machine.shared_refs);
    reg.set_counter("machine.local_refs", machine.local_refs);
    reg.set_counter("machine.fetches", machine.fetches);
    reg.set_counter("machine.bubbles", machine.bubbles);
    reg.set_counter("machine.overhead_cycles", machine.overhead_cycles);
    reg.set_counter("machine.spill_refs", machine.spill_refs);
    reg.set_gauge("machine.utilization", machine.utilization());
    let ipc = if machine.cycles == 0 {
        0.0
    } else {
        machine.issued() as f64 / machine.cycles as f64
    };
    reg.set_gauge("machine.ipc", ipc);
    reg.set_histogram("machine.mem_roundtrip", machine.mem_roundtrip);

    reg.set_counter("mem.refs", memory.refs as u64);
    reg.set_counter("mem.hot_addrs", memory.hot_addrs as u64);
    reg.set_counter("mem.combined", memory.combined as u64);
    reg.set_counter("mem.max_module_load", memory.max_module_load() as u64);
    reg.set_gauge("mem.imbalance", memory.imbalance());
    reg.set_histogram("mem.module_load", memory.load_hist);

    reg.set_counter("net.messages", network.messages as u64);
    reg.set_counter("net.hops", network.hops as u64);
    reg.set_counter("net.queue_cycles", network.queue_cycles);
    reg.set_counter("net.max_queue_cycles", network.max_queue_cycles);
    reg.set_counter("net.local_deliveries", network.local_deliveries as u64);
    reg.set_counter("net.route_sends", network.route_sends as u64);
    reg.set_gauge("net.mean_hops", network.mean_hops());
    reg.set_gauge("net.mean_queue_cycles", network.mean_queue_cycles());
    reg.set_histogram("net.queue", network.queue);

    reg
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ipc_handles_zero_cycles() {
        let s = RunSummary {
            steps: 0,
            cycles: 0,
            halted: true,
            machine: MachineStats::default(),
            memory: StepStats::default(),
            network: NetStats::default(),
        };
        assert_eq!(s.ipc(), 0.0);
    }

    #[test]
    fn metrics_mirror_the_stats_structs() {
        let machine = MachineStats {
            steps: 3,
            cycles: 30,
            compute_ops: 12,
            shared_refs: 6,
            bubbles: 9,
            ..Default::default()
        };
        let mut memory = StepStats::new(2);
        memory.refs = 6;
        memory.per_module = vec![4, 2];
        let network = NetStats {
            messages: 6,
            hops: 12,
            queue_cycles: 3,
            ..Default::default()
        };
        let s = RunSummary {
            steps: 3,
            cycles: 30,
            halted: true,
            machine,
            memory,
            network,
        };
        let reg = s.metrics();
        assert_eq!(reg.counter("machine.compute_ops"), Some(12));
        assert_eq!(reg.counter("machine.cycles"), Some(30));
        assert_eq!(reg.counter("mem.refs"), Some(6));
        assert_eq!(reg.counter("mem.max_module_load"), Some(4));
        assert_eq!(reg.counter("net.messages"), Some(6));
        assert!((reg.gauge("machine.ipc").unwrap() - 0.6).abs() < 1e-9);
        assert!((reg.gauge("machine.utilization").unwrap() - 18.0 / 27.0).abs() < 1e-9);
        assert!(reg.histogram("net.queue").is_some());
    }
}
