//! Property tests for the latency-histogram algebra.
//!
//! Fleet aggregation and per-thread metric shards fold
//! [`LatencyHistogram`]s in whatever order worker reports arrive, so
//! `merge` must form a commutative monoid: associative, commutative,
//! with the empty histogram as identity. Quantiles must be monotone in
//! `q` and bucket boundaries exact at powers of two for every sample
//! stream, not just the hand-picked unit-test cases.

use proptest::prelude::*;
use sim_kernel::trace::{hist, LatencyHistogram};

/// Samples spanning every bucket regime: zeros, small exact values,
/// power-of-two boundaries and large magnitudes.
fn sample() -> impl Strategy<Value = u64> {
    prop_oneof!(
        Just(0u64),
        1u64..256,
        (0u32..63).prop_map(|k| 1u64 << k),
        (0u32..63).prop_map(|k| (1u64 << k).wrapping_sub(1)),
        0u64..u64::MAX / 2,
    )
}

fn hist_of(samples: &[u64]) -> LatencyHistogram {
    let mut h = LatencyHistogram::new();
    for &s in samples {
        h.observe(s);
    }
    h
}

proptest! {
    #[test]
    fn histogram_merge_is_commutative(
        a in prop::collection::vec(sample(), 0..64),
        b in prop::collection::vec(sample(), 0..64),
    ) {
        let (ha, hb) = (hist_of(&a), hist_of(&b));
        let mut ab = ha.clone();
        ab.merge(&hb);
        let mut ba = hb.clone();
        ba.merge(&ha);
        prop_assert_eq!(ab, ba);
    }

    #[test]
    fn histogram_merge_is_associative_with_identity(
        a in prop::collection::vec(sample(), 0..48),
        b in prop::collection::vec(sample(), 0..48),
        c in prop::collection::vec(sample(), 0..48),
    ) {
        let (ha, hb, hc) = (hist_of(&a), hist_of(&b), hist_of(&c));
        let mut left = ha.clone();
        left.merge(&hb);
        left.merge(&hc);
        let mut bc = hb.clone();
        bc.merge(&hc);
        let mut right = ha.clone();
        right.merge(&bc);
        prop_assert_eq!(&left, &right);
        // The empty histogram is the identity.
        let mut with_id = left.clone();
        with_id.merge(&LatencyHistogram::new());
        prop_assert_eq!(with_id, left);
    }

    #[test]
    fn merged_histogram_equals_histogram_of_concatenation(
        a in prop::collection::vec(sample(), 0..64),
        b in prop::collection::vec(sample(), 0..64),
    ) {
        let mut merged = hist_of(&a);
        merged.merge(&hist_of(&b));
        let mut both = a.clone();
        both.extend_from_slice(&b);
        prop_assert_eq!(merged, hist_of(&both));
    }

    #[test]
    fn quantiles_are_monotone_and_bounded(
        samples in prop::collection::vec(sample(), 1..128),
        q1 in 0u64..=1000,
        q2 in 0u64..=1000,
    ) {
        let h = hist_of(&samples);
        let (q1, q2) = (q1 as f64 / 1000.0, q2 as f64 / 1000.0);
        let (lo, hi) = if q1 <= q2 { (q1, q2) } else { (q2, q1) };
        prop_assert!(h.quantile(lo) <= h.quantile(hi));
        // Every quantile stays within the observed range.
        prop_assert!(h.quantile(lo) >= h.observed_min());
        prop_assert!(h.quantile(hi) <= h.max);
    }

    #[test]
    fn bucket_boundaries_are_exact_at_powers_of_two(k in 1u32..64) {
        let v = 1u64 << (k - 1);
        // 2^(k-1) opens bucket k; its predecessor lands strictly below.
        prop_assert_eq!(hist::bucket_of(v), k as usize);
        prop_assert!(hist::bucket_of(v - 1) < k as usize);
        prop_assert!(hist::bucket_bound(hist::bucket_of(v)) >= v);
    }
}
