//! Fixed-size log2-bucket latency histograms: the kernel's one latency
//! aggregate.
//!
//! [`LatencyHistogram`] is a 65-slot power-of-two bucket array plus exact
//! count/total/min/max. Every timed pathway (see
//! [`mod@crate::trace::span`]) feeds one, and so do the logical-clock
//! latencies in [`super::Metrics`] (named pathways and per-class dispatch
//! latency). The layout is allocation-free plain-old-data, so snapshots
//! cross threads and merge associatively and commutatively, which is
//! what per-thread shards and fleet benchmarks rely on.
//!
//! Bucket layout: bucket 0 holds exactly the value 0; bucket `k` (k ≥ 1)
//! holds values in `[2^(k-1), 2^k - 1]`. A `u64` value therefore always
//! fits: the largest inputs land in bucket 64. Percentiles are answered
//! with the bucket's inclusive upper bound, so a reported p99 is a
//! conservative (never under-reported) nanosecond figure.

/// Number of buckets: one for zero plus one per power of two up to 2^63.
pub const HIST_BUCKETS: usize = 65;

/// A fixed-size log2-bucket latency histogram (nanosecond-oriented, but
/// unit-agnostic). No allocation ever; merge is element-wise.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LatencyHistogram {
    /// Total observations.
    pub count: u64,
    /// Sum of observed values.
    pub total: u64,
    /// Smallest observed value (`u64::MAX` until the first observation).
    pub min: u64,
    /// Largest observed value.
    pub max: u64,
    /// Log2 buckets; see the module docs for the boundary convention.
    pub buckets: [u64; HIST_BUCKETS],
}

impl Default for LatencyHistogram {
    fn default() -> LatencyHistogram {
        LatencyHistogram::new()
    }
}

/// The bucket index `value` falls into.
#[inline]
pub fn bucket_of(value: u64) -> usize {
    (u64::BITS - value.leading_zeros()) as usize
}

/// The inclusive upper bound of bucket `idx` (`2^idx - 1`).
pub fn bucket_bound(idx: usize) -> u64 {
    u64::MAX
        .checked_shr(u64::BITS.saturating_sub(idx as u32))
        .unwrap_or(0)
}

impl LatencyHistogram {
    /// An empty histogram.
    pub const fn new() -> LatencyHistogram {
        LatencyHistogram {
            count: 0,
            total: 0,
            min: u64::MAX,
            max: 0,
            buckets: [0; HIST_BUCKETS],
        }
    }

    /// Records one observation.
    #[inline]
    pub fn observe(&mut self, value: u64) {
        self.count += 1;
        self.total = self.total.saturating_add(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
        self.buckets[bucket_of(value)] += 1;
    }

    /// Whether no observation has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// The smallest observation, or 0 when empty (the sentinel never
    /// leaks into rendered output).
    pub fn observed_min(&self) -> u64 {
        // Empty: min is the sentinel and max is 0.
        self.min.min(self.max)
    }

    /// The value at quantile `q` (0.0 ..= 1.0): the inclusive upper bound
    /// of the bucket containing the ceil(q·count)-th observation, clamped
    /// to the observed min/max so exact endpoints stay exact. Returns 0
    /// when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (idx, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return bucket_bound(idx).clamp(self.observed_min(), self.max);
            }
        }
        self.max
    }

    /// Median (conservative upper bound).
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 95th percentile (conservative upper bound).
    pub fn p95(&self) -> u64 {
        self.quantile(0.95)
    }

    /// 99th percentile (conservative upper bound).
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// Adds another histogram into this one. Element-wise, so the
    /// operation is associative and commutative and fleet merges are
    /// order-independent.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        self.count += other.count;
        self.total = self.total.saturating_add(other.total);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        for (mine, theirs) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *mine += theirs;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_are_exact_at_powers_of_two() {
        // 2^k is the *lower* edge of bucket k+1; 2^k - 1 the upper edge
        // of bucket k.
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        for k in 1..63 {
            let v = 1u64 << k;
            assert_eq!(bucket_of(v), k + 1, "2^{k}");
            assert_eq!(bucket_of(v - 1), k, "2^{k} - 1");
            assert_eq!(bucket_bound(k), v - 1);
        }
        assert_eq!(bucket_of(u64::MAX), 64);
        assert_eq!(bucket_bound(64), u64::MAX);
    }

    #[test]
    fn observe_tracks_count_total_min_max() {
        let mut h = LatencyHistogram::new();
        assert!(h.is_empty());
        assert_eq!(h.observed_min(), 0);
        for v in [7, 3, 1024, 3] {
            h.observe(v);
        }
        assert_eq!(h.count, 4);
        assert_eq!(h.total, 7 + 3 + 1024 + 3);
        assert_eq!(h.observed_min(), 3);
        assert_eq!(h.max, 1024);
    }

    #[test]
    fn percentiles_are_monotone_in_q() {
        let mut h = LatencyHistogram::new();
        for v in 0..1000u64 {
            h.observe(v * 17 % 4096);
        }
        let mut prev = 0;
        for i in 0..=100 {
            let q = i as f64 / 100.0;
            let v = h.quantile(q);
            assert!(v >= prev, "quantile({q}) regressed: {v} < {prev}");
            prev = v;
        }
        assert!(h.p50() <= h.p95());
        assert!(h.p95() <= h.p99());
        assert!(h.p99() <= h.max);
    }

    #[test]
    fn quantile_clamps_to_observed_range() {
        let mut h = LatencyHistogram::new();
        h.observe(5);
        h.observe(5);
        // Bucket bound for 5 is 7; clamping keeps the report exact.
        assert_eq!(h.p50(), 5);
        assert_eq!(h.p99(), 5);
        assert_eq!(h.quantile(0.0), 5);
    }

    #[test]
    fn merge_is_commutative_and_order_independent() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        for v in [1, 2, 300, 4096] {
            a.observe(v);
        }
        for v in [9, 0, 77] {
            b.observe(v);
        }
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.count, 7);
        assert_eq!(ab.observed_min(), 0);
        assert_eq!(ab.max, 4096);
    }
}
