//! Network traffic statistics.

use serde::{Deserialize, Serialize};
use tcf_obs::LatencyHistogram;

/// Aggregate statistics of a [`crate::Network`]'s lifetime (or since the
/// last reset).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct NetStats {
    /// Messages routed.
    pub messages: usize,
    /// Total hops traversed by all messages.
    pub hops: usize,
    /// Total cycles messages spent queued behind busy links (delivery time
    /// minus the contention-free lower bound).
    pub queue_cycles: u64,
    /// Worst single-message queueing delay observed.
    pub max_queue_cycles: u64,
    /// Messages delivered to the sender's own node (distance 0).
    pub local_deliveries: usize,
    /// Messages routed along a [`Route`] handle ([`Network::send_on`],
    /// [`Network::replay_roundtrip_tail`]): the messages of closed-form
    /// same-module runs — the bulk-lane reuse the `net.route_sends`
    /// metric surfaces.
    ///
    /// [`Route`]: crate::Route
    /// [`Network::send_on`]: crate::Network::send_on
    /// [`Network::replay_roundtrip_tail`]: crate::Network::replay_roundtrip_tail
    pub route_sends: usize,
    /// Distribution of per-message queueing delays (routed messages only;
    /// local deliveries never queue).
    pub queue: LatencyHistogram,
}

impl NetStats {
    /// Mean hops per message; 0.0 when nothing was sent.
    pub fn mean_hops(&self) -> f64 {
        if self.messages == 0 {
            0.0
        } else {
            self.hops as f64 / self.messages as f64
        }
    }

    /// Mean queueing delay per message in cycles.
    pub fn mean_queue_cycles(&self) -> f64 {
        if self.messages == 0 {
            0.0
        } else {
            self.queue_cycles as f64 / self.messages as f64
        }
    }

    /// Median per-message queueing delay (log2-bucket resolution).
    pub fn p50_queue_cycles(&self) -> u64 {
        self.queue.p50()
    }

    /// 95th-percentile per-message queueing delay (log2-bucket
    /// resolution).
    pub fn p95_queue_cycles(&self) -> u64 {
        self.queue.p95()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn means_handle_empty() {
        let s = NetStats::default();
        assert_eq!(s.mean_hops(), 0.0);
        assert_eq!(s.mean_queue_cycles(), 0.0);
    }

    #[test]
    fn means_divide() {
        let s = NetStats {
            messages: 4,
            hops: 10,
            queue_cycles: 6,
            ..Default::default()
        };
        assert_eq!(s.mean_hops(), 2.5);
        assert_eq!(s.mean_queue_cycles(), 1.5);
    }

    #[test]
    fn percentiles_follow_the_histogram() {
        let mut s = NetStats::default();
        for _ in 0..19 {
            s.queue.record(0);
        }
        s.queue.record(12);
        assert_eq!(s.p50_queue_cycles(), 0);
        assert_eq!(s.p95_queue_cycles(), 0);
        assert_eq!(s.queue.percentile(1.0), 12);
    }
}
