//! Allocation-free log2-bucket latency histograms.
//!
//! Latencies in the simulator (shared-memory round trips, network queueing,
//! TCF-buffer reloads) span several orders of magnitude, so a histogram with
//! exponentially sized buckets captures the distribution in a fixed, small
//! footprint: one `[u64; 65]` array — bucket 0 for the value 0, bucket `k`
//! for values in `[2^(k-1), 2^k)`. Recording is a handful of integer ops and
//! never allocates, so it is safe on the simulator's hot paths.

use serde::{Deserialize, Serialize};

/// Number of buckets: one for zero plus one per bit position of `u64`.
pub const BUCKETS: usize = 65;

/// Fixed-size log2-bucket histogram of `u64` samples.
///
/// `Copy` on purpose: the counter structs that embed it (`MachineStats`,
/// `NetStats`, …) are themselves plain-old-data snapshots.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct LatencyHistogram {
    buckets: [u64; BUCKETS],
    count: u64,
    sum: u64,
    max: u64,
}

impl Default for LatencyHistogram {
    fn default() -> LatencyHistogram {
        LatencyHistogram {
            buckets: [0; BUCKETS],
            count: 0,
            sum: 0,
            max: 0,
        }
    }
}

/// Bucket index for a sample: 0 for 0, else `64 - leading_zeros(v)`.
#[inline]
fn bucket_of(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        64 - v.leading_zeros() as usize
    }
}

/// Largest value that falls into bucket `k` (inclusive).
fn bucket_upper(k: usize) -> u64 {
    if k == 0 {
        0
    } else if k >= 64 {
        u64::MAX
    } else {
        (1u64 << k) - 1
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> LatencyHistogram {
        LatencyHistogram::default()
    }

    /// Records one sample.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.buckets[bucket_of(v)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        if v > self.max {
            self.max = v;
        }
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Largest sample recorded (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean sample value (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Upper bound of the bucket containing the `p`-th percentile
    /// (`0.0 ..= 1.0`), clamped to the observed maximum. Returns 0 when
    /// empty. Resolution is one log2 bucket — adequate for order-of-
    /// magnitude latency reporting.
    pub fn percentile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let p = p.clamp(0.0, 1.0);
        // Rank of the target sample, 1-based; ceil so p50 of 2 samples is
        // the 1st.
        let rank = ((p * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (k, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return bucket_upper(k).min(self.max);
            }
        }
        self.max
    }

    /// Median sample (bucket-resolution); see [`percentile`](Self::percentile).
    pub fn p50(&self) -> u64 {
        self.percentile(0.50)
    }

    /// 95th-percentile sample (bucket-resolution).
    pub fn p95(&self) -> u64 {
        self.percentile(0.95)
    }

    /// Records the non-decreasing run `v_k = base + k − ⌊(c + k)/width⌋`
    /// for `k` in `[k_from, k_to)` — the closed-form shape of per-message
    /// latencies through a rate-1 pipeline fed `width` messages per cycle,
    /// where `c < width` is the in-cycle phase of message 0. (`width == 1`
    /// gives the constant run `v_k = base`.) Exactly equivalent to
    /// `record`-ing every `v_k` individually, at a cost of one binary
    /// search per touched log2 bucket instead of one update per sample.
    ///
    /// Returns `(sum, last)`: the total of the recorded values and the
    /// final (largest) one, for callers that mirror the histogram into
    /// side counters.
    pub fn record_ramp(
        &mut self,
        base: u64,
        c: u64,
        width: u64,
        k_from: u64,
        k_to: u64,
    ) -> (u64, u64) {
        assert!(width >= 1 && c < width, "cadence phase must be below width");
        if k_from >= k_to {
            return (0, 0);
        }
        // `k ≥ ⌊(c + k)/width⌋` for every `c < width`, so `v` never
        // underflows and is non-decreasing (increments of 0 or 1).
        let v = |k: u64| base + (k - (c + k) / width);
        let n = k_to - k_from;
        self.count += n;
        // Σ v_k = n·base + Σ k − Σ ⌊(c+k)/width⌋ over the k range; the
        // divisor sum telescopes through F(M) = Σ_{m<M} ⌊m/width⌋.
        let f = |m: u64| -> u128 {
            let q = (m / width) as u128;
            let r = (m % width) as u128;
            (width as u128) * q * q.saturating_sub(1) / 2 + r * q
        };
        let sum_k = (k_from as u128 + k_to as u128 - 1) * n as u128 / 2;
        let total = n as u128 * base as u128 + sum_k - (f(c + k_to) - f(c + k_from));
        debug_assert!(total <= u64::MAX as u128);
        let total = total as u64;
        self.sum = self.sum.saturating_add(total);
        let last = v(k_to - 1);
        if last > self.max {
            self.max = last;
        }
        // `v` is non-decreasing, so the samples landing in one bucket form
        // a k-interval; split the range at bucket upper bounds.
        let mut k = k_from;
        while k < k_to {
            let b = bucket_of(v(k));
            let hi = bucket_upper(b);
            // First k' with v(k') > hi (v is monotone).
            let (mut lo_s, mut hi_s) = (k + 1, k_to);
            while lo_s < hi_s {
                let mid = lo_s + (hi_s - lo_s) / 2;
                if v(mid) > hi {
                    hi_s = mid;
                } else {
                    lo_s = mid + 1;
                }
            }
            self.buckets[b] += lo_s - k;
            k = lo_s;
        }
        (total, last)
    }

    /// Adds all of `other`'s samples into `self`.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.max = self.max.max(other.max);
    }

    /// Non-empty buckets as `(range_lo, range_hi, count)`, ascending.
    pub fn nonempty_buckets(&self) -> Vec<(u64, u64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(k, &n)| {
                let lo = if k == 0 { 0 } else { 1u64 << (k - 1) };
                (lo, bucket_upper(k), n)
            })
            .collect()
    }

    /// Multi-line ASCII rendering (one row per non-empty bucket with a
    /// proportional bar), used by `tdbg`'s `hist` command. Empty
    /// histograms render as `"  (no samples)"`.
    pub fn render_ascii(&self) -> String {
        if self.count == 0 {
            return "  (no samples)".to_string();
        }
        let rows = self.nonempty_buckets();
        let widest = rows.iter().map(|&(_, _, n)| n).max().unwrap_or(1).max(1);
        let mut out = String::new();
        for (i, (lo, hi, n)) in rows.iter().enumerate() {
            if i > 0 {
                out.push('\n');
            }
            let bar_len = ((n * 40) / widest).max(1) as usize;
            let bar = "#".repeat(bar_len);
            out.push_str(&format!("  [{lo:>8} ..= {hi:>8}] {n:>8} |{bar}"));
        }
        out.push_str(&format!(
            "\n  count {}  mean {:.1}  p50 {}  p95 {}  max {}",
            self.count,
            self.mean(),
            self.p50(),
            self.p95(),
            self.max
        ));
        out
    }
}

/// A run of samples that fall into one bucket, held by the caller (small
/// enough to stay in registers across a loop) and written into the
/// [`LatencyHistogram`] when the bucket changes and once at the end.
///
/// Exactly equal to calling [`LatencyHistogram::record`] per sample:
/// bucket counts and `count` are sums, `max` is a maximum, and the
/// saturating unsigned `sum` gives `min(total, u64::MAX)` however the
/// additions are grouped, so neither the grouping into runs nor the
/// interleaving with direct `record`/`record_ramp` calls on the same
/// histogram can be observed. Consecutive latencies of one step mostly
/// share a log2 bucket, so a loop over messages pays four register
/// updates per sample instead of four read-modify-writes of the
/// histogram.
///
/// A run belongs to one histogram: pass the same one to every call, and
/// [`flush`](LatencyRun::flush) before reading it.
#[derive(Debug, Default)]
pub struct LatencyRun {
    bucket: usize,
    pending: u64,
    sum: u64,
    max: u64,
}

impl LatencyRun {
    /// Records one sample bound for `into`.
    #[inline]
    pub fn record(&mut self, v: u64, into: &mut LatencyHistogram) {
        let b = bucket_of(v);
        if b != self.bucket {
            self.flush(into);
            self.bucket = b;
        }
        self.pending += 1;
        self.sum = self.sum.saturating_add(v);
        self.max = self.max.max(v);
    }

    /// Writes the pending samples into `into`; a no-op when there are
    /// none.
    #[inline]
    pub fn flush(&mut self, into: &mut LatencyHistogram) {
        if self.pending > 0 {
            into.buckets[self.bucket] += self.pending;
            into.count += self.pending;
            into.sum = into.sum.saturating_add(self.sum);
            into.max = into.max.max(self.max);
            self.pending = 0;
            self.sum = 0;
        }
    }

    /// Largest sample recorded through this run so far, flushed or not
    /// (0 when none).
    #[inline]
    pub fn max(&self) -> u64 {
        self.max
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Samples at every bucket edge: 0, each `2^k − 1` and `2^k`, and
    /// `u64::MAX` (which saturates the sum).
    fn edge_samples() -> Vec<u64> {
        let mut v = vec![0, u64::MAX];
        for k in 0..64 {
            v.push(1u64 << k);
            v.push((1u64 << k) - 1);
        }
        v
    }

    /// One step of a histogram's history: a sample through the run, a
    /// sample recorded directly, or a direct cadence ramp.
    #[derive(Debug, Clone)]
    enum Op {
        Run(u64),
        Direct(u64),
        Ramp {
            base: u64,
            c: u64,
            width: u64,
            n: u64,
        },
    }

    fn arb_sample() -> impl Strategy<Value = u64> {
        prop_oneof![prop::sample::select(edge_samples()), 0u64..64, any::<u64>(),]
    }

    fn arb_op() -> impl Strategy<Value = Op> {
        prop_oneof![
            arb_sample().prop_map(Op::Run),
            arb_sample().prop_map(Op::Run),
            arb_sample().prop_map(Op::Direct),
            (0u64..5000, 1u64..5, 0u64..40).prop_map(|(base, width, n)| Op::Ramp {
                base,
                c: base % width,
                width,
                n,
            }),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The run accumulator cannot be told from per-sample `record`,
        /// whatever is recorded directly into the same histogram between
        /// its samples.
        #[test]
        fn run_accumulator_equals_per_sample_record(
            ops in prop::collection::vec(arb_op(), 0..200),
        ) {
            let mut expect = LatencyHistogram::new();
            let mut got = LatencyHistogram::new();
            let mut run = LatencyRun::default();
            let mut run_max = 0;
            for op in &ops {
                match *op {
                    Op::Run(v) => {
                        expect.record(v);
                        run.record(v, &mut got);
                        run_max = run_max.max(v);
                    }
                    Op::Direct(v) => {
                        expect.record(v);
                        got.record(v);
                    }
                    Op::Ramp { base, c, width, n } => {
                        expect.record_ramp(base, c, width, 0, n);
                        got.record_ramp(base, c, width, 0, n);
                    }
                }
            }
            run.flush(&mut got);
            prop_assert_eq!(got, expect);
            prop_assert_eq!(run.max(), run_max);
            // A second flush has nothing left to write.
            run.flush(&mut got);
            prop_assert_eq!(got, expect);
        }
    }

    #[test]
    fn run_accumulator_walks_every_bucket_edge() {
        let samples = edge_samples();
        let mut expect = LatencyHistogram::new();
        let mut got = LatencyHistogram::new();
        let mut run = LatencyRun::default();
        // Each edge twice in a row (a run of two), in both directions.
        for &v in samples.iter().chain(samples.iter().rev()) {
            for _ in 0..2 {
                expect.record(v);
                run.record(v, &mut got);
            }
        }
        run.flush(&mut got);
        assert_eq!(got, expect);
        assert_eq!(got.sum(), u64::MAX, "the sum saturates");
        assert_eq!(got.nonempty_buckets().len(), BUCKETS);
    }

    #[test]
    fn bucket_boundaries() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(u64::MAX), 64);
        assert_eq!(bucket_upper(0), 0);
        assert_eq!(bucket_upper(1), 1);
        assert_eq!(bucket_upper(2), 3);
        assert_eq!(bucket_upper(64), u64::MAX);
    }

    #[test]
    fn record_tracks_count_sum_max() {
        let mut h = LatencyHistogram::new();
        for v in [0, 1, 5, 100] {
            h.record(v);
        }
        assert_eq!(h.count(), 4);
        assert_eq!(h.sum(), 106);
        assert_eq!(h.max(), 100);
        assert!((h.mean() - 26.5).abs() < 1e-9);
    }

    #[test]
    fn percentiles_are_bucket_resolution_and_clamped() {
        let mut h = LatencyHistogram::new();
        for _ in 0..99 {
            h.record(4); // bucket 3, upper bound 7
        }
        h.record(1000);
        // p50 lands in bucket 3; upper bound 7 but clamped to max only if
        // smaller — here 7 < 1000 so stays 7.
        assert_eq!(h.p50(), 7);
        // p95 rank 95 still within the 99 fours.
        assert_eq!(h.p95(), 7);
        // p100 reaches the outlier; clamped to observed max.
        assert_eq!(h.percentile(1.0), 1000);
        assert_eq!(h.max(), 1000);
    }

    #[test]
    fn empty_histogram_is_zeroes() {
        let h = LatencyHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.p50(), 0);
        assert_eq!(h.p95(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.render_ascii(), "  (no samples)");
    }

    #[test]
    fn merge_combines() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        a.record(3);
        b.record(300);
        b.record(0);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.sum(), 303);
        assert_eq!(a.max(), 300);
        assert_eq!(a.nonempty_buckets().len(), 3);
    }

    #[test]
    fn single_sample_percentile_is_exactish() {
        let mut h = LatencyHistogram::new();
        h.record(6); // bucket 3 [4,7]; clamped to max 6
        assert_eq!(h.p50(), 6);
        assert_eq!(h.p95(), 6);
    }

    #[test]
    fn record_ramp_matches_per_sample_record() {
        // Sweep cadence shapes (width, phase), bases around bucket
        // boundaries, and ranges that straddle several buckets; the bulk
        // path must be bit-identical to the per-sample loop.
        for &width in &[1u64, 2, 3, 4, 7, 16] {
            for c in 0..width {
                for &base in &[0u64, 1, 3, 7, 100, (1 << 20) - 2] {
                    for &(k_from, k_to) in &[(0u64, 1u64), (0, 5), (1, 97), (3, 3), (0, 1000)] {
                        let mut bulk = LatencyHistogram::new();
                        bulk.record(base + 12345); // pre-existing state
                        let mut loopy = bulk;
                        let (sum, last) = bulk.record_ramp(base, c, width, k_from, k_to);
                        let mut expect_sum = 0u64;
                        let mut expect_last = 0u64;
                        for k in k_from..k_to {
                            let v = base + k - (c + k) / width;
                            loopy.record(v);
                            expect_sum += v;
                            expect_last = v;
                        }
                        assert_eq!(
                            bulk, loopy,
                            "width {width} c {c} base {base} range {k_from}..{k_to}"
                        );
                        assert_eq!((sum, last), (expect_sum, expect_last));
                    }
                }
            }
        }
    }

    #[test]
    fn ascii_render_mentions_counts() {
        let mut h = LatencyHistogram::new();
        h.record(2);
        h.record(2);
        h.record(9);
        let s = h.render_ascii();
        assert!(s.contains("count 3"));
        assert!(s.contains('#'));
    }
}
