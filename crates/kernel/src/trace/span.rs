//! Kernel-wide timing spans with per-pathway latency histograms.
//!
//! A [`SpanGuard`] brackets one traversal of a named kernel pathway
//! (syscall dispatch, an interceptor pass, a `SecurityModule` hook, the
//! VFS resolve walk, …). Spans nest: each pathway is charged its **self
//! time** (elapsed minus time spent in nested spans) as well as its
//! inclusive elapsed time, so summed self time equals root-span wall time
//! by construction — what lets `tables profile` attribute ≥95% of
//! dispatched time to named pathways.
//!
//! Timings live in one process-wide [`Sharded`] store. A thread's shard
//! is created on its first *enabled* span and folded into the retired
//! total when the thread exits. [`snapshot`] and [`reset`] act on the
//! calling thread's shard (profilers and the benchmark time their own
//! thread; two kernels driven on one thread share it), while [`total`],
//! which `/proc/kernel/histograms` renders, merges every thread's, so a
//! root reader of a shared kernel sees all the workers' time.
//!
//! Cost model:
//!
//! * **Enabled** — two `Instant` reads, thread-local cursor updates, and
//!   one lookup of the thread's shard at exit. Only the owning thread
//!   writes a shard, so updates are relaxed atomic loads and stores (plain
//!   moves on x86): no lock, no read-modify-write, and readers on other
//!   threads never block the owner.
//! * **Runtime-disabled** (the default) — one thread-local flag read; the
//!   guard is inert, nothing is allocated and no shard is created.
//! * **Compiled out** (`--no-default-features`, dropping `span-timing`)
//!   — [`enabled`] is a constant `false` and the optimiser removes every
//!   call site.

use super::hist::{bucket_of, LatencyHistogram, HIST_BUCKETS};
use super::metrics::{table_key, Table};
use crate::sync::{Shard, Sharded};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::LazyLock;
use std::time::Instant;

table_key! {
    /// A named kernel pathway that feeds a latency histogram. The names
    /// are stable: `/proc/kernel/histograms` and the profile snapshot
    /// schema use them.
    #[derive(Clone, Copy, PartialEq, Eq, Debug)]
    pub enum Pathway {
        /// `Kernel::dispatch` end to end (the root span for syscalls).
        Dispatch => "dispatch",
        /// Interceptor chain `before` pass.
        InterceptBefore => "intercept_before",
        /// Interceptor chain `after` pass.
        InterceptAfter => "intercept_after",
        /// Filesystem-class syscall body.
        SysFs => "sys_fs",
        /// Identity-class (setuid/setgid/…) syscall body.
        SysId => "sys_id",
        /// Ioctl-class syscall body.
        SysIoctl => "sys_ioctl",
        /// Mount-class syscall body.
        SysMount => "sys_mount",
        /// Network-class syscall body.
        SysNet => "sys_net",
        /// Process-class syscall body.
        SysProcess => "sys_process",
        /// VFS path resolution (`resolve_cached` end to end).
        VfsResolve => "vfs_resolve",
        /// Dcache probe inside a resolve (hit or miss bookkeeping).
        DcacheProbe => "dcache_probe",
        /// Audit event emission: metrics record + sinks + ring push.
        AuditEmit => "audit_emit",
        /// `SecurityModule::capable`.
        LsmCapable => "lsm_capable",
        /// `SecurityModule::sb_mount`.
        LsmSbMount => "lsm_sb_mount",
        /// `SecurityModule::sb_umount`.
        LsmSbUmount => "lsm_sb_umount",
        /// `SecurityModule::socket_create`.
        LsmSocketCreate => "lsm_socket_create",
        /// `SecurityModule::socket_bind`.
        LsmSocketBind => "lsm_socket_bind",
        /// `SecurityModule::task_setuid`.
        LsmTaskSetuid => "lsm_task_setuid",
        /// `SecurityModule::task_setgid`.
        LsmTaskSetgid => "lsm_task_setgid",
        /// `SecurityModule::bprm_check`.
        LsmBprmCheck => "lsm_bprm_check",
        /// The four ioctl route/modem/dmcrypt/kms hooks.
        LsmIoctl => "lsm_ioctl",
        /// `SecurityModule::file_open`.
        LsmFileOpen => "lsm_file_open",
        /// LSM config-file reads and writes (`/proc/<lsm>/…`).
        LsmConfig => "lsm_config",
        /// `SecurityModule::boot_netfilter_rules`.
        LsmNetfilter => "lsm_netfilter",
        /// Policy decision caches (keyfile / binary-profile lookup caches).
        PolicyCache => "policy_cache",
        /// Name-interner insert path (`Name::intern` on a miss or first use).
        Intern => "intern",
    }
}

impl Pathway {
    /// The syscall-body pathway for a dispatch class.
    pub fn for_class(class: crate::syscall::SyscallClass) -> Pathway {
        use crate::syscall::SyscallClass;
        match class {
            SyscallClass::Fs => Pathway::SysFs,
            SyscallClass::Id => Pathway::SysId,
            SyscallClass::Ioctl => Pathway::SysIoctl,
            SyscallClass::Mount => Pathway::SysMount,
            SyscallClass::Net => Pathway::SysNet,
            SyscallClass::Process => Pathway::SysProcess,
        }
    }
}

/// A mergeable, thread-crossing copy of span timing state: one thread's
/// ([`snapshot`]) or the whole process's ([`total`]).
///
/// Mirrors the [`super::Metrics`] contract: plain data, `Send`, merged
/// element-wise so fleet aggregation is order-independent.
#[derive(Clone, Debug, Default)]
pub struct TimingSnapshot {
    /// Inclusive-latency histogram per pathway.
    pub hists: Table<Pathway, LatencyHistogram, { Pathway::COUNT }>,
    /// Self time (inclusive minus nested-span time) per pathway, ns.
    pub self_ns: Table<Pathway, u64, { Pathway::COUNT }>,
    /// Wall time covered by root (outermost) spans, ns.
    pub root_ns: u64,
    /// Number of root spans observed.
    pub root_spans: u64,
}

impl TimingSnapshot {
    /// An empty snapshot.
    pub fn new() -> TimingSnapshot {
        TimingSnapshot::default()
    }

    /// The histogram for `p`.
    pub fn hist(&self, p: Pathway) -> &LatencyHistogram {
        &self.hists[p]
    }

    /// Self time attributed to `p`, in nanoseconds.
    pub fn self_ns(&self, p: Pathway) -> u64 {
        self.self_ns[p]
    }

    /// Total self time attributed across all pathways, ns.
    pub fn attributed_ns(&self) -> u64 {
        self.self_ns.iter().map(|(_, ns)| ns).sum()
    }

    /// Percentage of root wall time attributed to named pathways.
    /// 100.0 when no root time was recorded (vacuously complete).
    pub fn attributed_pct(&self) -> f64 {
        if self.root_ns == 0 {
            100.0
        } else {
            self.attributed_ns() as f64 * 100.0 / self.root_ns as f64
        }
    }

    /// Whether any span was recorded.
    pub fn is_empty(&self) -> bool {
        self.root_spans == 0 && self.hists.iter().all(|(_, h)| h.is_empty())
    }

    /// Folds another snapshot into this one (element-wise; associative
    /// and commutative).
    pub fn merge(&mut self, other: &TimingSnapshot) {
        self.hists.merge_with(&other.hists, LatencyHistogram::merge);
        self.self_ns.merge_with(&other.self_ns, |a, b| *a += b);
        self.root_ns += other.root_ns;
        self.root_spans += other.root_spans;
    }

    /// Renders the `/proc/kernel/histograms` text: one line per touched
    /// pathway plus root-span summary lines. Stable, line-per-counter
    /// format like [`super::Metrics::render`].
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (p, h) in self.hists.iter().filter(|(_, h)| !h.is_empty()) {
            out.push_str(&format!(
                "hist_{} count={} total_ns={} self_ns={} min={} p50={} p95={} p99={} max={}\n",
                p.name(),
                h.count,
                h.total,
                self.self_ns[p],
                h.observed_min(),
                h.p50(),
                h.p95(),
                h.p99(),
                h.max,
            ));
        }
        out.push_str(&format!("root_spans {}\n", self.root_spans));
        out.push_str(&format!("root_total_ns {}\n", self.root_ns));
        out.push_str(&format!("attributed_self_ns {}\n", self.attributed_ns()));
        out
    }
}

/// Word layout of one pathway in a [`SpanShard`]: the histogram's count,
/// total, inverted min (`!min`, so an all-zero shard reads as empty and
/// both extremes update with `max`), max and buckets, then self time.
const COUNT: usize = 0;
const TOTAL: usize = 1;
const MIN_INV: usize = 2;
const MAX: usize = 3;
const SELF_NS: usize = 4;
const BUCKETS: usize = 5;
const WORDS: usize = BUCKETS + HIST_BUCKETS;

/// One thread's span timings. Only the owning thread writes it, so every
/// update is a relaxed load and store — exact without a lock or a
/// read-modify-write — and readers see each word whole.
struct SpanShard {
    pathways: [[AtomicU64; WORDS]; Pathway::COUNT],
    root_ns: AtomicU64,
    root_spans: AtomicU64,
}

fn get(w: &AtomicU64) -> u64 {
    w.load(Ordering::Relaxed)
}

fn set(w: &AtomicU64, v: u64) {
    w.store(v, Ordering::Relaxed)
}

fn add(w: &AtomicU64, v: u64) {
    set(w, get(w).saturating_add(v))
}

fn raise(w: &AtomicU64, v: u64) {
    set(w, get(w).max(v))
}

impl Default for SpanShard {
    fn default() -> Self {
        SpanShard {
            pathways: [const { [const { AtomicU64::new(0) }; WORDS] }; Pathway::COUNT],
            root_ns: AtomicU64::new(0),
            root_spans: AtomicU64::new(0),
        }
    }
}

impl SpanShard {
    /// Records one closed span: `elapsed` inclusive, `child_ns` of it in
    /// nested spans, and whether it was a root span.
    fn record(&self, pathway: Pathway, elapsed: u64, child_ns: u64, root: bool) {
        if root {
            add(&self.root_ns, elapsed);
            add(&self.root_spans, 1);
        }
        let w = &self.pathways[pathway as usize];
        add(&w[COUNT], 1);
        add(&w[TOTAL], elapsed);
        raise(&w[MIN_INV], !elapsed);
        raise(&w[MAX], elapsed);
        add(&w[SELF_NS], elapsed.saturating_sub(child_ns));
        add(&w[BUCKETS + bucket_of(elapsed)], 1);
    }

    fn load(&self) -> TimingSnapshot {
        let mut snap = TimingSnapshot::new();
        for (&p, w) in Pathway::ALL.iter().zip(&self.pathways) {
            let h = &mut snap.hists[p];
            h.count = get(&w[COUNT]);
            h.total = get(&w[TOTAL]);
            h.min = !get(&w[MIN_INV]);
            h.max = get(&w[MAX]);
            for (b, w) in h.buckets.iter_mut().zip(&w[BUCKETS..]) {
                *b = get(w);
            }
            snap.self_ns[p] = get(&w[SELF_NS]);
        }
        snap.root_ns = get(&self.root_ns);
        snap.root_spans = get(&self.root_spans);
        snap
    }

    fn store(&self, snap: &TimingSnapshot) {
        for (&p, w) in Pathway::ALL.iter().zip(&self.pathways) {
            let h = &snap.hists[p];
            set(&w[COUNT], h.count);
            set(&w[TOTAL], h.total);
            set(&w[MIN_INV], !h.min);
            set(&w[MAX], h.max);
            for (w, &b) in w[BUCKETS..].iter().zip(&h.buckets) {
                set(w, b);
            }
            set(&w[SELF_NS], snap.self_ns[p]);
        }
        set(&self.root_ns, snap.root_ns);
        set(&self.root_spans, snap.root_spans);
    }
}

impl Shard for SpanShard {
    fn fold_into(&self, total: &mut Self) {
        let mut sum = total.load();
        sum.merge(&self.load());
        total.store(&sum);
    }
}

/// Every thread's span shard.
static SHARDS: LazyLock<Sharded<SpanShard>> = LazyLock::new(Sharded::default);

// The calling thread's span switch and open-span cursor. None of these
// is merged across threads, so none lives in a shard.
thread_local! {
    /// Whether spans are timed: the one read a disabled span costs.
    static ENABLED: Cell<bool> = const { Cell::new(false) };
    /// Spans open on this thread.
    static DEPTH: Cell<u32> = const { Cell::new(0) };
    /// Nested-span time accumulated under the innermost open span.
    static CHILD_NS: Cell<u64> = const { Cell::new(0) };
    /// Bumped by [`reset`]; a span opened before a reset records nothing.
    static EPOCH: Cell<u64> = const { Cell::new(0) };
}

/// Guard for one pathway traversal; records on drop.
#[must_use = "a span measures the scope it is alive for"]
pub struct SpanGuard {
    pathway: Pathway,
    /// Start time, the enclosing span's child time so far, and the
    /// epoch; `None` when timing was off at entry.
    open: Option<(Instant, u64, u64)>,
}

/// Opens a span over `pathway`. When timing is disabled (the default)
/// this costs a single thread-local flag read and the returned guard is
/// inert.
#[inline]
pub fn span(pathway: Pathway) -> SpanGuard {
    if !enabled() {
        return SpanGuard {
            pathway,
            open: None,
        };
    }
    DEPTH.set(DEPTH.get() + 1);
    let (parent_child_ns, epoch) = (CHILD_NS.replace(0), EPOCH.get());
    SpanGuard {
        pathway,
        open: Some((Instant::now(), parent_child_ns, epoch)),
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some((start, parent_child_ns, epoch)) = self.open else {
            return;
        };
        let elapsed = start.elapsed().as_nanos() as u64;
        if EPOCH.get() != epoch {
            return;
        }
        let depth = DEPTH.get().saturating_sub(1);
        DEPTH.set(depth);
        let restored = if depth == 0 {
            0
        } else {
            parent_child_ns.saturating_add(elapsed)
        };
        let child_ns = CHILD_NS.replace(restored);
        SHARDS.with(|s| s.record(self.pathway, elapsed, child_ns, depth == 0));
    }
}

/// Turns span timing on or off for the current thread (a no-op when the
/// `span-timing` feature is compiled out).
pub fn set_enabled(on: bool) {
    ENABLED.set(on && cfg!(feature = "span-timing"));
}

/// Whether span timing is currently enabled on this thread.
#[inline]
pub fn enabled() -> bool {
    cfg!(feature = "span-timing") && ENABLED.get()
}

/// Clears the current thread's histograms. A span open across the reset
/// records nothing.
pub fn reset() {
    DEPTH.set(0);
    CHILD_NS.set(0);
    EPOCH.set(EPOCH.get() + 1);
    SHARDS.with_existing(|s| s.store(&TimingSnapshot::new()));
}

/// The current thread's timing state (empty if it never timed a span).
pub fn snapshot() -> TimingSnapshot {
    SHARDS.with_existing(SpanShard::load).unwrap_or_default()
}

/// Every thread's timing state merged — live threads' shards plus the
/// retired total of exited ones. `/proc/kernel/histograms` renders this.
pub fn total() -> TimingSnapshot {
    let mut out = TimingSnapshot::new();
    SHARDS.for_each(|s| out.merge(&s.load()));
    out
}

#[cfg(all(test, feature = "span-timing"))]
mod tests {
    use super::*;
    use std::time::Duration;

    fn fresh() {
        reset();
        set_enabled(true);
    }

    #[test]
    fn disabled_spans_record_nothing() {
        reset();
        set_enabled(false);
        {
            let _g = span(Pathway::Dispatch);
            std::thread::sleep(Duration::from_millis(1));
        }
        assert!(snapshot().is_empty());
    }

    #[test]
    fn span_nesting_child_time_within_parent() {
        fresh();
        {
            let _parent = span(Pathway::Dispatch);
            std::thread::sleep(Duration::from_millis(2));
            {
                let _child = span(Pathway::SysId);
                std::thread::sleep(Duration::from_millis(2));
            }
        }
        set_enabled(false);
        let s = snapshot();
        let parent = s.hist(Pathway::Dispatch);
        let child = s.hist(Pathway::SysId);
        assert_eq!(parent.count, 1);
        assert_eq!(child.count, 1);
        // Child inclusive time is contained in the parent's.
        assert!(child.total <= parent.total);
        // Parent self time excludes the child's inclusive time.
        assert_eq!(
            s.self_ns(Pathway::Dispatch),
            parent.total - child.total,
            "parent self = parent elapsed - child elapsed"
        );
        // All self time sums back to root wall time.
        assert_eq!(s.attributed_ns(), s.root_ns);
        assert_eq!(s.root_spans, 1);
        assert!((s.attributed_pct() - 100.0).abs() < 1e-9);
        reset();
    }

    #[test]
    fn sibling_spans_attribute_fully() {
        fresh();
        {
            let _root = span(Pathway::Dispatch);
            for _ in 0..3 {
                let _a = span(Pathway::VfsResolve);
                let _b = span(Pathway::DcacheProbe);
            }
        }
        set_enabled(false);
        let s = snapshot();
        assert_eq!(s.hist(Pathway::VfsResolve).count, 3);
        assert_eq!(s.hist(Pathway::DcacheProbe).count, 3);
        assert_eq!(s.attributed_ns(), s.root_ns);
        reset();
    }

    #[test]
    fn snapshot_merge_is_commutative() {
        fresh();
        {
            let _g = span(Pathway::LsmTaskSetgid);
        }
        let a = snapshot();
        reset();
        set_enabled(true);
        {
            let _g = span(Pathway::LsmTaskSetuid);
        }
        let b = snapshot();
        set_enabled(false);
        reset();

        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab.root_spans, 2);
        assert_eq!(ab.root_spans, ba.root_spans);
        assert_eq!(ab.root_ns, ba.root_ns);
        assert_eq!(ab.attributed_ns(), ba.attributed_ns());
        assert_eq!(ab.hist(Pathway::LsmTaskSetgid).count, 1);
        assert_eq!(ab.hist(Pathway::LsmTaskSetuid).count, 1);
    }

    #[test]
    fn render_lists_touched_pathways_only() {
        fresh();
        {
            let _g = span(Pathway::AuditEmit);
        }
        set_enabled(false);
        let text = snapshot().render();
        assert!(text.contains("hist_audit_emit count=1"));
        assert!(!text.contains("hist_sys_net"));
        assert!(text.contains("root_spans 1"));
        reset();
    }

    #[test]
    fn reset_inside_a_span_discards_it() {
        fresh();
        {
            let _outer = span(Pathway::Dispatch);
            reset();
            let _inner = span(Pathway::SysFs);
        }
        set_enabled(false);
        let s = snapshot();
        assert_eq!(s.hist(Pathway::Dispatch).count, 0);
        assert_eq!(s.hist(Pathway::SysFs).count, 1);
        assert_eq!(s.root_spans, 1);
        reset();
    }

    #[test]
    fn disabled_threads_create_no_shard() {
        std::thread::spawn(|| {
            reset();
            drop(span(Pathway::Dispatch));
            assert!(snapshot().is_empty());
            assert!(SHARDS.with_existing(|_| ()).is_none());
            set_enabled(true);
            assert!(
                SHARDS.with_existing(|_| ()).is_none(),
                "enabling alone creates none"
            );
            drop(span(Pathway::Dispatch));
            assert!(SHARDS.with_existing(|_| ()).is_some());
        })
        .join()
        .unwrap();
    }

    #[test]
    fn total_merges_every_thread_including_exited_ones() {
        let before = total().hist(Pathway::LsmNetfilter).count;
        let workers: Vec<_> = (0..4)
            .map(|_| {
                std::thread::spawn(|| {
                    set_enabled(true);
                    for _ in 0..10 {
                        let _root = span(Pathway::LsmNetfilter);
                    }
                    snapshot().hist(Pathway::LsmNetfilter).count
                })
            })
            .collect();
        let own: u64 = workers.into_iter().map(|w| w.join().unwrap()).sum();
        assert_eq!(own, 40);
        assert_eq!(total().hist(Pathway::LsmNetfilter).count - before, 40);
    }
}

#[cfg(all(test, not(feature = "span-timing")))]
mod compiled_out_tests {
    use super::*;

    #[test]
    fn spans_record_nothing_and_create_no_shard() {
        set_enabled(true);
        assert!(!enabled());
        {
            let _g = span(Pathway::Dispatch);
        }
        reset();
        assert!(snapshot().is_empty());
        assert!(SHARDS.with_existing(|_| ()).is_none());
        assert!(total().render().starts_with("root_spans 0\n"));
    }
}
