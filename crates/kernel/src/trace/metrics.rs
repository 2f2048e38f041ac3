//! Per-hook and per-syscall decision counters, an errno histogram, and
//! logical-clock latency observations.
//!
//! Hot-path counters are fixed arrays — a [`Table`] per key enum
//! ([`Hook`], [`SyscallClass`], the span `Pathway`) and one slot per ABI
//! syscall name — so recording never touches a map. Cold aggregates stay
//! in `BTreeMap`s, and rendering sorts by name, so `/proc/<lsm>/metrics`
//! lines come out in a stable order.

use super::event::{AuditEvent, DecisionKind, Hook};
use super::hist::LatencyHistogram;
use crate::sync::{lock, Shard};
use crate::syscall::{Syscall, SyscallClass};
use std::collections::BTreeMap;
use std::marker::PhantomData;
use std::sync::Mutex;

/// Allow/deny/use-default/defer/info counts for one key.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DecisionCounters {
    /// Module-granted decisions.
    pub allow: u64,
    /// Denials.
    pub deny: u64,
    /// Stock-policy decisions.
    pub use_default: u64,
    /// Deferred decisions (pending transitions).
    pub defer: u64,
    /// Informational events.
    pub info: u64,
}

impl DecisionCounters {
    /// Increments the counter for `kind`.
    pub fn bump(&mut self, kind: DecisionKind) {
        match kind {
            DecisionKind::Allow => self.allow += 1,
            DecisionKind::Deny => self.deny += 1,
            DecisionKind::UseDefault => self.use_default += 1,
            DecisionKind::Defer => self.defer += 1,
            DecisionKind::Info => self.info += 1,
        }
    }

    /// Sum over all decision kinds.
    pub fn total(&self) -> u64 {
        self.allow + self.deny + self.use_default + self.defer + self.info
    }

    /// Adds another counter set into this one.
    pub fn merge(&mut self, other: &DecisionCounters) {
        self.allow += other.allow;
        self.deny += other.deny;
        self.use_default += other.use_default;
        self.defer += other.defer;
        self.info += other.info;
    }
}

/// Hit/miss/invalidation counters for one kernel-side cache (the VFS
/// dcache, an LSM's compiled-policy lookup caches, ...).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that fell through to the slow path.
    pub misses: u64,
    /// Times the cache was flushed (generation bump, reload, overflow).
    pub invalidations: u64,
}

impl CacheStats {
    /// Adds another counter set into this one.
    pub fn merge(&mut self, other: &CacheStats) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.invalidations += other.invalidations;
    }
}

/// Dispatch counters for one syscall class, fed by the
/// [`crate::syscall::SyscallMeter`] interceptor: call and error totals
/// plus logical-clock latency over the dispatched call.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ClassStats {
    /// Calls dispatched in this class.
    pub calls: u64,
    /// Calls that returned an errno (including injected faults).
    pub errors: u64,
    /// Logical-clock latency over the dispatched call (normally 0 in the
    /// simulation; nonzero when a syscall advances the clock, e.g. an
    /// authentication prompt).
    pub latency: LatencyHistogram,
}

impl ClassStats {
    /// Adds another counter set into this one.
    pub fn merge(&mut self, other: &ClassStats) {
        self.calls += other.calls;
        self.errors += other.errors;
        self.latency.merge(&other.latency);
    }
}

/// A fieldless enum that indexes a [`Table`]; the kernel declares its
/// keys with the crate-internal `table_key!` macro.
pub trait TableKey: Copy + 'static {
    /// Every variant, in discriminant order.
    const ALL: &'static [Self];
    /// The variant's position in [`TableKey::ALL`].
    fn index(self) -> usize;
    /// Stable snake_case name, used for rendering.
    fn name(self) -> &'static str;
}

/// Declares a [`TableKey`] enum from one `Variant => "name"` list: the
/// enum itself, `COUNT`, `ALL` (discriminant order), `index`, `name`, and
/// the trait impl, so the variant list, the table size and the rendered
/// names cannot drift apart.
macro_rules! table_key {
    ($(#[$meta:meta])* pub enum $key:ident {
        $($(#[$doc:meta])* $variant:ident => $name:literal,)*
    }) => {
        $(#[$meta])*
        pub enum $key {
            $($(#[$doc])* $variant,)*
        }

        impl $key {
            /// Number of variants (the size of a table keyed by them).
            pub const COUNT: usize = [$($name),*].len();

            /// Every variant, in discriminant order.
            pub const ALL: [$key; $key::COUNT] = [$($key::$variant),*];

            /// Table index (the discriminant).
            #[inline]
            pub fn index(self) -> usize {
                self as usize
            }

            /// Stable snake_case name (metrics keys, `/proc` rendering).
            pub fn name(self) -> &'static str {
                match self {
                    $($key::$variant => $name,)*
                }
            }
        }

        impl $crate::trace::TableKey for $key {
            const ALL: &'static [$key] = &$key::ALL;
            fn index(self) -> usize {
                $key::index(self)
            }
            fn name(self) -> &'static str {
                $key::name(self)
            }
        }
    };
}
pub(crate) use table_key;

/// One `V` per variant of the key enum `K`, as a fixed array: lookups
/// and updates are array accesses, never a map probe or allocation.
/// `N` must equal `K::ALL.len()`, which building a table checks at
/// compile time.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Table<K, V, const N: usize> {
    slots: [V; N],
    key: PhantomData<fn() -> K>,
}

impl<K: TableKey, V: Default, const N: usize> Default for Table<K, V, N> {
    fn default() -> Self {
        const { assert!(N == K::ALL.len(), "table length must match its key enum") };
        Table {
            slots: std::array::from_fn(|_| V::default()),
            key: PhantomData,
        }
    }
}

impl<K: TableKey, V, const N: usize> Table<K, V, N> {
    /// Every `(key, value)` pair, in discriminant order.
    pub fn iter(&self) -> impl Iterator<Item = (K, &V)> {
        K::ALL.iter().copied().zip(self.slots.iter())
    }

    /// The `(name, value)` pairs for which `keep` holds, sorted by name
    /// (the stable order of the `/proc` renderings).
    pub fn by_name(&self, keep: impl Fn(&V) -> bool) -> Vec<(&'static str, &V)> {
        let mut rows: Vec<_> = self
            .iter()
            .filter(|(_, v)| keep(v))
            .map(|(k, v)| (k.name(), v))
            .collect();
        rows.sort_by_key(|(name, _)| *name);
        rows
    }

    /// Folds `other` into this table slot by slot with `merge`.
    pub fn merge_with(&mut self, other: &Self, merge: impl Fn(&mut V, &V)) {
        for (mine, theirs) in self.slots.iter_mut().zip(other.slots.iter()) {
            merge(mine, theirs);
        }
    }
}

impl<K: TableKey, V, const N: usize> std::ops::Index<K> for Table<K, V, N> {
    type Output = V;

    fn index(&self, key: K) -> &V {
        &self.slots[key.index()]
    }
}

impl<K: TableKey, V, const N: usize> std::ops::IndexMut<K> for Table<K, V, N> {
    fn index_mut(&mut self, key: K) -> &mut V {
        &mut self.slots[key.index()]
    }
}

/// Per-syscall decision counters: a fixed array indexed by the ABI name's
/// variant position (see [`Syscall::name_index`]) for the dispatch fast
/// path, plus a `BTreeMap` overflow for kernel-internal pathway names
/// (`"auth"`, `"register_lsm"`, `"capable"`, test fixtures, …) that are
/// not ABI syscalls.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SyscallCounters {
    fixed: [DecisionCounters; Syscall::COUNT],
    overflow: BTreeMap<&'static str, DecisionCounters>,
}

impl Default for SyscallCounters {
    fn default() -> SyscallCounters {
        SyscallCounters {
            fixed: [DecisionCounters::default(); Syscall::COUNT],
            overflow: BTreeMap::new(),
        }
    }
}

impl SyscallCounters {
    /// Increments the counter for `name`/`kind`. ABI names hit the fixed
    /// table; anything else falls back to the overflow map.
    #[inline]
    pub fn bump(&mut self, name: &'static str, kind: DecisionKind) {
        match Syscall::name_index(name) {
            Some(i) => self.fixed[i].bump(kind),
            None => self.overflow.entry(name).or_default().bump(kind),
        }
    }

    /// The counters recorded under `name`, if any.
    pub fn get(&self, name: &str) -> Option<&DecisionCounters> {
        match Syscall::name_index(name) {
            Some(i) => Some(&self.fixed[i]).filter(|c| c.total() > 0),
            None => self.overflow.get(name),
        }
    }

    /// Touched syscalls as `(name, counters)` pairs, sorted by name — the
    /// same visiting order the old `BTreeMap` produced (fixed-table and
    /// overflow rows interleaved alphabetically).
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, &DecisionCounters)> {
        let mut rows: Vec<(&'static str, &DecisionCounters)> = Syscall::NAMES
            .iter()
            .copied()
            .zip(self.fixed.iter())
            .filter(|(_, c)| c.total() > 0)
            .collect();
        rows.extend(self.overflow.iter().map(|(k, v)| (*k, v)));
        rows.sort_by_key(|(name, _)| *name);
        rows.into_iter()
    }

    /// Adds another table into this one.
    pub fn merge(&mut self, other: &SyscallCounters) {
        for (mine, theirs) in self.fixed.iter_mut().zip(other.fixed.iter()) {
            mine.merge(theirs);
        }
        for (k, v) in &other.overflow {
            self.overflow.entry(k).or_default().merge(v);
        }
    }
}

/// Kernel-wide observability counters. Updated on every emitted event,
/// independent of the `trace` flag and of ring-buffer eviction.
#[derive(Clone, Debug, Default)]
pub struct Metrics {
    /// Decision counts per LSM hook.
    pub per_hook: Table<Hook, DecisionCounters, { Hook::COUNT }>,
    /// Decision counts per syscall name (fixed array + overflow map).
    pub per_syscall: SyscallCounters,
    /// Denial errno histogram.
    pub errnos: BTreeMap<&'static str, u64>,
    /// Logical-clock latency aggregates (e.g. authentication prompts).
    pub latency: BTreeMap<&'static str, LatencyHistogram>,
    /// Cache counters keyed by cache name, synchronized from the VFS
    /// dcache and the registered module's policy caches when the
    /// `/proc/<lsm>/metrics` view is rendered.
    pub caches: BTreeMap<&'static str, CacheStats>,
    /// Per-class dispatch counters, fed by the
    /// [`crate::syscall::SyscallMeter`] interceptor.
    pub classes: Table<SyscallClass, ClassStats, { SyscallClass::COUNT }>,
    /// Total events emitted.
    pub events: u64,
}

impl Metrics {
    /// Folds one event into the counters.
    pub fn record(&mut self, ev: &AuditEvent) {
        self.events += 1;
        let kind = ev.provenance.decision;
        self.per_hook[ev.provenance.hook].bump(kind);
        self.per_syscall.bump(ev.syscall, kind);
        if let Some(e) = ev.provenance.errno {
            *self.errnos.entry(e.name()).or_insert(0) += 1;
        }
    }

    /// Records a logical-clock latency observation.
    pub fn observe_latency(&mut self, pathway: &'static str, delta: u64) {
        self.latency.entry(pathway).or_default().observe(delta);
    }

    /// Folds one dispatched call into the per-class counters.
    #[inline]
    pub fn observe_class(&mut self, class: SyscallClass, delta: u64, errored: bool) {
        let s = &mut self.classes[class];
        s.calls += 1;
        s.errors += u64::from(errored);
        s.latency.observe(delta);
    }

    /// Overwrites the snapshot for cache `name`. Cache owners keep the
    /// live counters (interior-mutable, on the hot path); this copies the
    /// current totals into the metrics view.
    pub fn record_cache(&mut self, name: &'static str, stats: CacheStats) {
        self.caches.insert(name, stats);
    }

    /// Total denials across all hooks.
    pub fn total_denials(&self) -> u64 {
        self.per_hook.iter().map(|(_, c)| c.deny).sum()
    }

    /// Adds another metrics snapshot into this one (corpus aggregation).
    pub fn merge(&mut self, other: &Metrics) {
        self.events += other.events;
        self.per_hook
            .merge_with(&other.per_hook, DecisionCounters::merge);
        self.per_syscall.merge(&other.per_syscall);
        for (k, v) in &other.errnos {
            *self.errnos.entry(k).or_insert(0) += v;
        }
        for (k, v) in &other.latency {
            self.latency.entry(k).or_default().merge(v);
        }
        for (k, v) in &other.caches {
            self.caches.entry(k).or_default().merge(v);
        }
        self.classes.merge_with(&other.classes, ClassStats::merge);
    }

    /// Renders the `/proc/<lsm>/metrics` view: one `key value` line per
    /// counter, stable-ordered for easy diffing.
    pub fn render(&self) -> String {
        let mut out = format!("events_total {}\n", self.events);
        let decisions = |out: &mut String, prefix, name, c: &DecisionCounters| {
            out.push_str(&format!(
                "{}{} allow={} deny={} use_default={} defer={} info={}\n",
                prefix, name, c.allow, c.deny, c.use_default, c.defer, c.info
            ));
        };
        for (hook, c) in self.per_hook.by_name(|c| c.total() > 0) {
            decisions(&mut out, "hook_", hook, c);
        }
        for (sys, c) in self.per_syscall.iter() {
            decisions(&mut out, "syscall_", sys, c);
        }
        for (errno, n) in &self.errnos {
            out.push_str(&format!("errno_{} {}\n", errno, n));
        }
        for (pathway, l) in &self.latency {
            out.push_str(&format!(
                "latency_{} samples={} total={} min={} max={}\n",
                pathway,
                l.count,
                l.total,
                l.observed_min(),
                l.max
            ));
        }
        for (cache, c) in &self.caches {
            out.push_str(&format!(
                "cache_{} hits={} misses={} invalidations={}\n",
                cache, c.hits, c.misses, c.invalidations
            ));
        }
        // The `syscall_class_` prefix keeps class rows distinct from the
        // per-syscall rows above ("mount" is both a class and a syscall).
        for (class, s) in self.classes.by_name(|s| s.calls > 0) {
            out.push_str(&format!(
                "syscall_class_{} calls={} errors={} clk_total={} clk_max={}\n",
                class, s.calls, s.errors, s.latency.total, s.latency.max
            ));
        }
        out
    }
}

/// A kernel's metrics are sharded per thread (see [`crate::sync::Sharded`])
/// and merged on read; an exited thread's shard folds into the total.
impl Shard for Mutex<Metrics> {
    fn fold_into(&self, total: &mut Self) {
        lock(total).merge(&lock(self));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::Errno;
    use crate::trace::{AuditObject, Provenance};

    fn ev(hook: Hook, kind: DecisionKind, errno: Option<Errno>) -> AuditEvent {
        AuditEvent {
            seq: 0,
            clock: 0,
            pid: 1,
            ruid: 1000,
            euid: 1000,
            syscall: "mount",
            object: AuditObject::None,
            provenance: Provenance::lsm("protego", hook, None, kind, errno),
            message: String::new(),
        }
    }

    #[test]
    fn counters_follow_decisions() {
        let mut m = Metrics::default();
        m.record(&ev(Hook::SbMount, DecisionKind::Allow, None));
        m.record(&ev(Hook::SbMount, DecisionKind::Deny, Some(Errno::EPERM)));
        m.record(&ev(Hook::SbMount, DecisionKind::Deny, Some(Errno::EACCES)));
        let c = m.per_hook[Hook::SbMount];
        assert_eq!((c.allow, c.deny, c.use_default), (1, 2, 0));
        assert_eq!(m.per_syscall.get("mount").map(|c| c.total()), Some(3));
        assert_eq!(m.errnos["EPERM"], 1);
        assert_eq!(m.errnos["EACCES"], 1);
        assert_eq!(m.total_denials(), 2);
    }

    #[test]
    fn non_abi_syscall_names_land_in_overflow() {
        let mut m = Metrics::default();
        let mut e = ev(Hook::Auth, DecisionKind::Info, None);
        e.syscall = "auth";
        m.record(&e);
        m.record(&ev(Hook::SbMount, DecisionKind::Allow, None));
        assert_eq!(m.per_syscall.get("auth").map(|c| c.info), Some(1));
        assert_eq!(m.per_syscall.get("auth").map(|c| c.total()), Some(1));
        assert_eq!(m.per_syscall.get("bind"), None);
        assert_eq!(m.per_syscall.get("no_such_pathway"), None);
        // Sorted interleave: "auth" (overflow) precedes "mount" (fixed).
        let names: Vec<_> = m.per_syscall.iter().map(|(n, _)| n).collect();
        assert_eq!(names, vec!["auth", "mount"]);
    }

    #[test]
    fn latency_aggregates() {
        let mut m = Metrics::default();
        m.observe_latency("auth", 3);
        m.observe_latency("auth", 7);
        let l = &m.latency["auth"];
        assert_eq!((l.count, l.total, l.max), (2, 10, 7));
        assert_eq!(l.observed_min(), 3);
    }

    #[test]
    fn merge_sums_everything() {
        let mut a = Metrics::default();
        let mut b = Metrics::default();
        a.record(&ev(Hook::SbMount, DecisionKind::Deny, Some(Errno::EPERM)));
        b.record(&ev(Hook::SbMount, DecisionKind::Deny, Some(Errno::EPERM)));
        b.observe_latency("auth", 5);
        a.merge(&b);
        assert_eq!(a.per_hook[Hook::SbMount].deny, 2);
        assert_eq!(a.errnos["EPERM"], 2);
        assert_eq!(a.latency["auth"].count, 1);
        assert_eq!(a.events, 2);
    }

    #[test]
    fn cache_counters_render_and_merge() {
        let mut m = Metrics::default();
        m.record_cache(
            "dcache",
            CacheStats {
                hits: 10,
                misses: 3,
                invalidations: 1,
            },
        );
        assert!(m
            .render()
            .contains("cache_dcache hits=10 misses=3 invalidations=1"));
        let mut other = Metrics::default();
        other.record_cache(
            "dcache",
            CacheStats {
                hits: 5,
                misses: 1,
                invalidations: 0,
            },
        );
        m.merge(&other);
        assert_eq!(
            m.caches["dcache"],
            CacheStats {
                hits: 15,
                misses: 4,
                invalidations: 1
            }
        );
    }

    /// Fleet workers snapshot metrics in-thread and ship them over a
    /// channel to the aggregating driver — that only works if `Metrics`
    /// stays `Send + 'static`. This is a compile-time guarantee; the
    /// function body never runs.
    #[allow(dead_code)]
    fn metrics_crosses_threads() {
        fn assert_send<T: Send + 'static>() {}
        assert_send::<Metrics>();
    }

    #[test]
    fn merged_snapshot_sums_class_counters() {
        let mut a = Metrics::default();
        a.observe_class(SyscallClass::Fs, 3, false);
        a.observe_class(SyscallClass::Fs, 0, true);
        let mut b = Metrics::default();
        b.observe_class(SyscallClass::Fs, 5, false);
        b.observe_class(SyscallClass::Net, 1, false);
        a.merge(&b);
        let fs = &a.classes[SyscallClass::Fs];
        assert_eq!((fs.calls, fs.errors), (3, 1));
        assert_eq!((fs.latency.total, fs.latency.max), (8, 5));
        assert_eq!(a.classes[SyscallClass::Net].calls, 1);
    }

    #[test]
    fn fixed_table_render_matches_btreemap_order() {
        // Bump hooks and syscalls deliberately out of alphabetical order;
        // the render must still come out sorted (byte-compatible with the
        // old BTreeMap layout).
        let mut m = Metrics::default();
        let mut e = ev(Hook::TaskSetuid, DecisionKind::Allow, None);
        e.syscall = "setuid";
        m.record(&e);
        let mut e = ev(Hook::Capable, DecisionKind::UseDefault, None);
        e.syscall = "chmod";
        m.record(&e);
        let text = m.render();
        let hook_lines: Vec<&str> = text.lines().filter(|l| l.starts_with("hook_")).collect();
        assert_eq!(hook_lines.len(), 2);
        assert!(hook_lines[0].starts_with("hook_capable "));
        assert!(hook_lines[1].starts_with("hook_task_setuid "));
        let sys_lines: Vec<&str> = text
            .lines()
            .filter(|l| l.starts_with("syscall_") && !l.starts_with("syscall_class_"))
            .collect();
        assert_eq!(sys_lines.len(), 2);
        assert!(sys_lines[0].starts_with("syscall_chmod "));
        assert!(sys_lines[1].starts_with("syscall_setuid "));
    }

    #[test]
    fn render_is_line_per_counter() {
        let mut m = Metrics::default();
        m.record(&ev(Hook::SbMount, DecisionKind::Deny, Some(Errno::EPERM)));
        let text = m.render();
        assert!(text.starts_with("events_total 1\n"));
        assert!(text.contains("hook_sb_mount allow=0 deny=1"));
        assert!(text.contains("syscall_mount"));
        assert!(text.contains("errno_EPERM 1"));
    }
}
