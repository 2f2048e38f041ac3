//! The benchmark's own arithmetic: percentiles, span self-time
//! accounting, and the all-workers-running throughput window.

use sim_kernel::trace::{Pathway, TimingSnapshot};

/// A percentile is reported only when at least this many samples lie
/// strictly beyond it.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile `q` (in `0..1`) over the union of ascending
/// runs of samples (one run per worker), found by merging the runs
/// without a copy. `None` when fewer than [`MIN_BEYOND`] samples lie
/// beyond it — such a tail is too thin to report.
pub fn percentile(runs: &[&[u32]], q: f64) -> Option<u32> {
    let n: usize = runs.iter().map(|r| r.len()).sum();
    if n == 0 || !(0.0..1.0).contains(&q) {
        return None;
    }
    // 1-based nearest rank; the small epsilon keeps e.g. 0.99 * 1100
    // from rounding up past the exact rank 1089.
    let rank = ((q * n as f64 - 1e-9).ceil() as usize).clamp(1, n);
    if n - rank < MIN_BEYOND {
        return None;
    }
    if let [run] = runs {
        return Some(run[rank - 1]);
    }
    let mut heads = vec![0usize; runs.len()];
    for _ in 1..rank {
        let (i, _) = min_head(runs, &heads)?;
        heads[i] += 1;
    }
    min_head(runs, &heads).map(|(_, v)| v)
}

/// The run whose next unmerged sample is smallest, and that sample.
fn min_head(runs: &[&[u32]], heads: &[usize]) -> Option<(usize, u32)> {
    runs.iter()
        .zip(heads)
        .enumerate()
        .filter_map(|(i, (r, &h))| r.get(h).map(|&v| (i, v)))
        .min_by_key(|&(_, v)| v)
}

/// Median of unsorted values (mean of the middle two for even counts).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The `lsm_*` pathways: every security-module hook span.
pub const LSM_PATHWAYS: [Pathway; 12] = [
    Pathway::LsmCapable,
    Pathway::LsmSbMount,
    Pathway::LsmSbUmount,
    Pathway::LsmSocketCreate,
    Pathway::LsmSocketBind,
    Pathway::LsmTaskSetuid,
    Pathway::LsmTaskSetgid,
    Pathway::LsmBprmCheck,
    Pathway::LsmIoctl,
    Pathway::LsmFileOpen,
    Pathway::LsmConfig,
    Pathway::LsmNetfilter,
];

/// Summed self time of `pathways`, ns.
pub fn self_ns_of(snap: &TimingSnapshot, pathways: &[Pathway]) -> u64 {
    pathways.iter().map(|&p| snap.self_ns(p)).sum()
}

/// Summed span count of `pathways`.
pub fn calls_of(snap: &TimingSnapshot, pathways: &[Pathway]) -> u64 {
    pathways.iter().map(|&p| snap.hist(p).count).sum()
}

/// Share (in %) of the wall time the benchmark timed around its own
/// `Kernel::dispatch` calls that the root spans recorded. Self times are
/// charged exclusively, so they always sum to the root time
/// ([`TimingSnapshot::attributed_pct`]); this is the check that can fail:
/// time a dispatch spends outside its root span escapes every pathway.
pub fn covered_pct(root_ns: u64, timed_ns: u64) -> f64 {
    ratio(root_ns as f64 * 100.0, timed_ns as f64)
}

/// Time the benchmark's ops spent outside every kernel span — userland
/// code, the harness loop and the clock reads — given the ops' summed
/// wall time and the root-span time recorded while they ran.
pub fn userland_self_ns(op_wall_ns: u64, snap: &TimingSnapshot) -> u64 {
    op_wall_ns.saturating_sub(snap.root_ns)
}

/// One worker's measured loop: when its first op started and when each
/// op completed, in µs since a common epoch (ascending, as a closed loop
/// completes its ops in order).
#[derive(Clone, Copy, Debug, Default)]
pub struct Timeline<'a> {
    /// Start of the worker's first measured op.
    pub first_start_us: u32,
    /// Completion time of every op, ascending.
    pub ends_us: &'a [u32],
}

/// The interval in which every worker was running: from the last
/// worker's first op start to the first worker's last op completion.
/// `None` when the workers never overlapped.
pub fn all_running_window(workers: &[Timeline]) -> Option<(u32, u32)> {
    let start = workers.iter().map(|w| w.first_start_us).max()?;
    let end = workers
        .iter()
        .map(|w| w.ends_us.last().copied())
        .collect::<Option<Vec<u32>>>()?
        .into_iter()
        .min()?;
    (end > start).then_some((start, end))
}

/// Index range of `ends_us` whose ops completed inside `(start, end]`.
pub fn ops_in_window(ends_us: &[u32], (start, end): (u32, u32)) -> std::ops::Range<usize> {
    let lo = ends_us.partition_point(|&e| e <= start);
    let hi = ends_us.partition_point(|&e| e <= end);
    lo..hi
}

/// Throughput over a window: ops every worker completed inside it per
/// second of its length. Over the all-workers-running window, ops from
/// before the last worker started or after the first one stopped ran
/// with less contention and are not counted.
pub fn throughput(workers: &[Timeline], window: (u32, u32)) -> f64 {
    let ops: usize = workers
        .iter()
        .map(|w| ops_in_window(w.ends_us, window).len())
        .sum();
    ratio(ops as f64 * 1e6, f64::from(window.1 - window.0))
}

/// Ops per slice: latency percentiles are taken over runs of this many
/// consecutive ops, and the median slice is reported. Enough
/// for a p99 with ten samples beyond it; short enough (about 10 ms on
/// `web`) that a burst of host interference spoils few slices.
pub const SLICE_OPS: usize = 1024;

/// Indices `k` of the slices `k * len .. (k + 1) * len` that lie wholly
/// inside `range`.
pub fn full_slices(range: std::ops::Range<usize>, len: usize) -> std::ops::Range<usize> {
    let first = range.start.div_ceil(len);
    let end = range.end / len;
    first..end.max(first)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        let s: Vec<u32> = (1..=1000).collect();
        // 0.99 * 1000 = rank 990: exactly ten samples lie beyond it.
        assert_eq!(percentile(&[&s], 0.99), Some(990));
        // One sample fewer leaves only nine beyond rank 990.
        assert_eq!(percentile(&[&s[..999]], 0.99), None);
        assert_eq!(percentile(&[&s], 0.5), Some(500));
        assert_eq!(percentile(&[&s], 0.999), None);
        assert_eq!(percentile(&[&s[..20]], 0.5), Some(10));
        assert_eq!(percentile(&[&s[..19]], 0.5), None);
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn percentile_rank_is_exact_for_inexact_products() {
        let s: Vec<u32> = (1..=1100).collect();
        assert_eq!(percentile(&[&s], 0.99), Some(1089));
    }

    #[test]
    fn percentile_of_runs_is_the_merged_percentile() {
        let a: Vec<u32> = (0..700).map(|i| i * 3).collect();
        let b: Vec<u32> = (0..500).map(|i| i * 5 + 1).collect();
        let mut all: Vec<u32> = a.iter().chain(&b).copied().collect();
        all.sort_unstable();
        for q in [0.01, 0.5, 0.9, 0.99] {
            assert_eq!(percentile(&[&a, &b], q), percentile(&[&all], q));
        }
        // The ten-beyond rule counts samples of every run together.
        assert_eq!(percentile(&[&a[..500], &b[..499]], 0.99), None);
        assert!(percentile(&[&a[..500], &b[..500]], 0.99).is_some());
    }

    #[test]
    fn self_times_sum_to_root_time() {
        use sim_kernel::trace::span;
        fn spin(us: u64) {
            let t = std::time::Instant::now();
            while t.elapsed().as_micros() < u128::from(us) {
                std::hint::black_box(());
            }
        }
        span::reset();
        span::set_enabled(true);
        for _ in 0..3 {
            let _root = span::span(Pathway::Dispatch);
            spin(50);
            {
                let _fs = span::span(Pathway::SysFs);
                spin(50);
                {
                    let _vfs = span::span(Pathway::VfsResolve);
                    spin(50);
                }
                let _lsm = span::span(Pathway::LsmFileOpen);
                spin(20);
            }
        }
        span::set_enabled(false);
        let snap = span::snapshot();
        span::reset();
        assert_eq!(snap.root_spans, 3);
        let pct = snap.attributed_pct();
        assert!((pct - 100.0).abs() < 1e-9, "attributed {}%", pct);
        // Root spans cover the time around them only as far as they
        // reach.
        assert_eq!(covered_pct(snap.root_ns, snap.root_ns), 100.0);
        assert_eq!(covered_pct(snap.root_ns, 2 * snap.root_ns), 50.0);
        assert_eq!(calls_of(&snap, &LSM_PATHWAYS), 3);
        assert!(self_ns_of(&snap, &LSM_PATHWAYS) >= 3 * 20_000);
        // Ops that took longer than their spans leave the rest to
        // userland; never a negative remainder.
        assert_eq!(userland_self_ns(snap.root_ns + 1234, &snap), 1234);
        assert_eq!(userland_self_ns(0, &snap), 0);
    }

    #[test]
    fn shared_throughput_counts_only_the_all_running_window() {
        // Worker 0 runs 0..1000 µs, one op per 100 µs; worker 1 starts
        // late at 300 µs and stops early at 800 µs, one op per 50 µs.
        let e0: Vec<u32> = (1..=10).map(|i| i * 100).collect();
        let e1: Vec<u32> = (1..=10).map(|i| 300 + i * 50).collect();
        let workers = [
            Timeline {
                first_start_us: 0,
                ends_us: &e0,
            },
            Timeline {
                first_start_us: 300,
                ends_us: &e1,
            },
        ];
        let window = all_running_window(&workers).unwrap();
        assert_eq!(window, (300, 800));
        // Window (300, 800]: w0 completes at 400..=800 (5 ops), w1 all
        // 10: 15 ops in 500 µs.
        assert!((throughput(&workers, window) - 30_000.0).abs() < 1e-6);
        // The whole span (0, 1000] would have counted all 20 ops.
        assert!((throughput(&workers, (0, 1000)) - 20_000.0).abs() < 1e-6);
    }

    #[test]
    fn workers_that_never_overlap_have_no_window() {
        let (a, b) = ([10, 20], [40]);
        let w = |first_start_us, ends_us| Timeline {
            first_start_us,
            ends_us,
        };
        assert_eq!(all_running_window(&[w(0, &a), w(30, &b)]), None);
        assert_eq!(all_running_window(&[w(0, &a), w(0, &[])]), None);
    }

    #[test]
    fn full_slices_lie_inside_the_range() {
        assert_eq!(full_slices(0..10, 4), 0..2);
        assert_eq!(full_slices(3..11, 4), 1..2);
        assert_eq!(full_slices(3..12, 4), 1..3);
        assert_eq!(full_slices(1..7, 4), 1..1);
        assert_eq!(full_slices(0..3, 4), 0..0);
        assert_eq!(percentile(&[&[0u32; SLICE_OPS]], 0.99), Some(0));
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
