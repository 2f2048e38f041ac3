//! The traced run (`--trace 1`): the per-op count determinism check and
//! the per-layer metrics.

use crate::calib;
use crate::gen::RunKind;
use crate::host::Schedstat;
use crate::measure::{measure, median_ref_ns, LoopStats, Samples};
use crate::stats::{self, calls_of, ratio, self_ns_of, LSM_PATHWAYS};
use crate::workloads::{self, Client, Inputs, Workload};
use crate::{collect_errors, metric, sched_json, tally, Args, Outcome};
use bench::json::Value;
use sim_kernel::net::{Domain, SockType};
use sim_kernel::syscall::Syscall;
use sim_kernel::trace::{span, Metrics, Pathway, TimingSnapshot};
use sim_kernel::Errno;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Ops per fixed-length count pass (`--trace 1`, single-thread workloads).
fn count_pass_ops(wl: Workload) -> usize {
    match wl {
        Workload::Admin => 600,
        _ => 2000,
    }
}

/// Counters that must repeat exactly for a seed: per-class syscalls,
/// resolves, hook calls and decisions, audit events, cache traffic.
fn counts(snap: &TimingSnapshot, m0: &Metrics, m1: &Metrics) -> BTreeMap<&'static str, u64> {
    let mut c = BTreeMap::new();
    c.insert("syscalls", snap.hist(Pathway::Dispatch).count);
    for (name, p) in [
        ("syscalls.fs", Pathway::SysFs),
        ("syscalls.net", Pathway::SysNet),
        ("syscalls.id", Pathway::SysId),
        ("syscalls.mount", Pathway::SysMount),
        ("syscalls.process", Pathway::SysProcess),
        ("syscalls.ioctl", Pathway::SysIoctl),
        ("vfs_resolves", Pathway::VfsResolve),
        ("dcache_probes", Pathway::DcacheProbe),
        ("audit_emits", Pathway::AuditEmit),
        ("policy_cache_spans", Pathway::PolicyCache),
    ] {
        c.insert(name, snap.hist(p).count);
    }
    c.insert("lsm_hook_calls", calls_of(snap, &LSM_PATHWAYS));
    let decisions = |m: &Metrics| m.per_hook.iter().map(|(_, d)| d.total()).sum::<u64>();
    c.insert("hook_decisions", decisions(m1) - decisions(m0));
    c.insert("denials", m1.total_denials() - m0.total_denials());
    c.insert("audit_events", m1.events - m0.events);
    let cache = |m: &Metrics, name: &str| m.caches.get(name).copied().unwrap_or_default();
    let (d0, d1) = (cache(m0, "dcache"), cache(m1, "dcache"));
    c.insert("dcache_hits", d1.hits - d0.hits);
    c.insert("dcache_misses", d1.misses - d0.misses);
    c.insert("dcache_invalidations", d1.invalidations - d0.invalidations);
    let (p0, p1) = (policy_cache(m0), policy_cache(m1));
    c.insert("policy_cache_hits", p1.0 - p0.0);
    c.insert("policy_cache_misses", p1.1 - p0.1);
    c
}

/// Summed hits and misses of the security module's policy caches.
fn policy_cache(m: &Metrics) -> (u64, u64) {
    m.caches
        .iter()
        .filter(|(name, _)| !matches!(**name, "dcache" | "intern"))
        .fold((0, 0), |(h, mi), (_, s)| (h + s.hits, mi + s.misses))
}

fn intern_misses(m: &Metrics) -> u64 {
    m.caches.get("intern").map(|s| s.misses).unwrap_or(0)
}

/// One fixed-length pass on a fresh set-up with spans on: the counters
/// of its ops.
fn count_pass(wl: Workload, inputs: &Inputs) -> Result<BTreeMap<&'static str, u64>, String> {
    let mut clients = workloads::setup(wl, inputs)?;
    let c = &mut clients[0];
    let m0 = c.sys.kernel.metrics_snapshot();
    span::reset();
    span::set_enabled(true);
    for _ in 0..count_pass_ops(wl) {
        c.op()?;
        c.between_ops();
    }
    span::set_enabled(false);
    let snap = span::snapshot();
    span::reset();
    let m1 = c.sys.kernel.metrics_snapshot();
    c.finish(false);
    if c.check_failures > 0 {
        return Err(c.errors.join("; "));
    }
    Ok(counts(&snap, &m0, &m1))
}

/// Socket/close pairs per timed batch of the coverage probe, and batches.
const PROBE_PAIRS: usize = 32;
const PROBE_BATCHES: usize = 200;

/// What the coverage probe measured.
struct Coverage {
    /// Dispatched calls.
    calls: u64,
    /// Their root-span time, ns.
    root_ns: u64,
    /// Their wall time as the benchmark timed it, ns.
    timed_ns: u64,
    /// The span registry's own cost per root span outside the interval
    /// it records (the stack push before its clock read, the update
    /// after the last), ns.
    bookkeeping_ns: f64,
}

impl Coverage {
    /// Root-span time over timed time, less the registry's bookkeeping.
    fn pct(&self) -> f64 {
        let overhead = (self.bookkeeping_ns * self.calls as f64) as u64;
        stats::covered_pct(self.root_ns, self.timed_ns.saturating_sub(overhead))
    }
}

/// Span coverage of dispatched time: the benchmark calls
/// `Kernel::dispatch` itself, as `client`'s session on the workload's
/// system (calls every committed allowlist grants a session), in timed
/// batches of `socket` + `close` pairs with span timing on. After each
/// batch it times as many empty root spans, so the registry's own
/// bookkeeping is measured under the same host conditions.
fn dispatch_probe(client: &Client) -> Result<Coverage, String> {
    let kernel = &client.sys.kernel;
    let socket = || Syscall::Socket {
        domain: Domain::Inet,
        stype: SockType::Stream,
        protocol: 0,
    };
    let calls = 2 * PROBE_PAIRS;
    let (mut root_ns, mut timed_ns, mut empty_root_ns, mut empty_ns) = (0, 0, 0, 0);
    span::reset();
    span::set_enabled(true);
    let mut run = || -> Result<(), Errno> {
        for _ in 0..PROBE_BATCHES {
            let r0 = span::snapshot().root_ns;
            let t = Instant::now();
            for _ in 0..PROBE_PAIRS {
                let fd = kernel.dispatch(client.user, socket()).fd()?;
                kernel.dispatch(client.user, Syscall::Close { fd }).unit()?;
            }
            timed_ns += t.elapsed().as_nanos() as u64;
            let r1 = span::snapshot().root_ns;
            let t = Instant::now();
            for _ in 0..calls {
                drop(span::span(Pathway::Dispatch));
            }
            empty_ns += t.elapsed().as_nanos() as u64;
            root_ns += r1 - r0;
            empty_root_ns += span::snapshot().root_ns - r1;
        }
        Ok(())
    };
    let r = run();
    span::set_enabled(false);
    span::reset();
    r.map_err(|e| format!("dispatch probe: {}", e))?;
    let n = (calls * PROBE_BATCHES) as u64;
    Ok(Coverage {
        calls: n,
        root_ns,
        timed_ns,
        bookkeeping_ns: ratio(empty_ns.saturating_sub(empty_root_ns) as f64, n as f64),
    })
}

/// `--trace 1`: per-layer metrics from a traced phase, against an
/// untraced phase of the same set-up.
pub fn run_traced(
    args: &Args,
    inputs: &Inputs,
    samples: &mut [Samples],
) -> Result<Outcome, String> {
    let wl = args.workload;
    let mut detail = Vec::new();
    let mut errors = Vec::new();
    let mut failed = 0;

    // Count determinism: two fresh passes of the same seed must agree.
    let fixed_counts = if wl == Workload::Shared {
        None
    } else {
        let a = count_pass(wl, inputs)?;
        let b = count_pass(wl, inputs)?;
        if a != b {
            failed += 1;
            errors.push(format!(
                "per-op counts differ across passes: {:?} vs {:?}",
                a, b
            ));
        }
        detail.push((
            "count_pass".to_string(),
            Value::Obj(
                a.iter()
                    .map(|(k, v)| (k.to_string(), Value::Num(*v as f64)))
                    .chain([("ops".to_string(), Value::Num(count_pass_ops(wl) as f64))])
                    .collect(),
            ),
        ));
        Some(a)
    };

    let mut clients = workloads::setup(wl, inputs)?;
    let epoch = Instant::now();
    let phases = if wl == Workload::Shared { 3 } else { 2 };
    let phase = Duration::from_secs_f64(args.seconds as f64 / phases as f64);

    // Shared only: the same mix on one worker alone, the base of the
    // slowdown under contention.
    let solo = if wl == Workload::Shared {
        let (st, _) = measure(&mut clients[..1], &mut samples[..1], epoch, phase, false)?;
        Some(st[0].clone())
    } else {
        None
    };
    let (plain, _) = measure(&mut clients, samples, epoch, phase, false)?;
    let slowness = calib::slowness(median_ref_ns(samples).0);
    let m0 = clients[0].sys.kernel.metrics_snapshot();
    let dropped0 = clients[0].sys.kernel.audit.dropped();
    let intern0 = intern_misses(&m0);
    let (traced, snap) = measure(&mut clients, samples, epoch, phase, true)?;
    let m1 = clients[0].sys.kernel.metrics_snapshot();
    let dropped = clients[0].sys.kernel.audit.dropped() - dropped0;
    let intern = intern_misses(&m1) - intern0;
    let probe = dispatch_probe(&clients[0])?;
    let covered = probe.pct();
    for c in clients.iter_mut() {
        c.finish(true);
    }

    let mut all: Vec<LoopStats> = plain.clone();
    all.extend(traced.iter().cloned());
    all.extend(solo.iter().cloned());
    let (attempted, f) = tally(&all, &clients);
    failed += f;
    errors.extend(collect_errors(&clients));

    let ops: u64 = traced.iter().map(|s| s.ops).sum();
    let per_op = |v: u64| ratio(v as f64, ops as f64);
    let work_ns: u64 = traced.iter().map(|s| s.work_ns).sum();
    let plain_ops: u64 = plain.iter().map(|s| s.ops).sum();
    let plain_ns_per_op = ratio(
        plain.iter().map(|s| s.work_ns).sum::<u64>() as f64,
        plain_ops as f64,
    );
    let traced_ns_per_op = ratio(work_ns as f64, ops as f64);
    // Counts: from the fixed-length pass where there is one, so they
    // repeat exactly for a seed; from the traced phase otherwise.
    let cnt = fixed_counts.unwrap_or_else(|| counts(&snap, &m0, &m1));
    let count_ops = if wl == Workload::Shared {
        ops
    } else {
        count_pass_ops(wl) as u64
    };
    let per_count_op = |k: &str| ratio(cnt[k] as f64, count_ops as f64);
    let dispatch = snap.hist(Pathway::Dispatch);

    let mut m = vec![metric(
        "userland.self_ns_per_op",
        per_op(stats::userland_self_ns(work_ns, &snap)),
        "ns",
    )];
    for (i, kind) in RunKind::ALL.iter().enumerate() {
        let (ns, n): (u64, u64) = plain
            .iter()
            .fold((0, 0), |a, s| (a.0 + s.run_ns[i].0, a.1 + s.run_ns[i].1));
        m.push(metric(
            &format!("userland.run_ns.{}", kind.name()),
            ratio(ns as f64, n as f64),
            "ns",
        ));
    }
    m.push(metric(
        "syscall.calls_per_op",
        per_count_op("syscalls"),
        "count",
    ));
    for class in ["fs", "net", "id", "mount", "process"] {
        m.push(metric(
            &format!("syscall.calls_per_op.{}", class),
            per_count_op(&format!("syscalls.{}", class)),
            "count",
        ));
    }
    m.push(metric(
        "syscall.dispatch_self_ns_per_op",
        per_op(snap.self_ns(Pathway::Dispatch)),
        "ns",
    ));
    m.push(metric(
        "syscall.intercept_self_ns_per_op",
        per_op(self_ns_of(
            &snap,
            &[Pathway::InterceptBefore, Pathway::InterceptAfter],
        )),
        "ns",
    ));
    m.push(metric(
        "syscall.ns_per_call",
        ratio(dispatch.total as f64, dispatch.count as f64),
        "ns",
    ));
    for p in [
        Pathway::SysFs,
        Pathway::SysNet,
        Pathway::SysId,
        Pathway::SysMount,
        Pathway::SysProcess,
    ] {
        m.push(metric(
            &format!("{}.self_ns_per_op", p.name()),
            per_op(snap.self_ns(p)),
            "ns",
        ));
    }
    let dc_lookups = cnt["dcache_hits"] + cnt["dcache_misses"];
    m.extend([
        metric("vfs.resolves_per_op", per_count_op("vfs_resolves"), "count"),
        metric(
            "vfs.resolve_self_ns_per_op",
            per_op(snap.self_ns(Pathway::VfsResolve)),
            "ns",
        ),
        metric(
            "vfs.dcache_probe_self_ns_per_op",
            per_op(snap.self_ns(Pathway::DcacheProbe)),
            "ns",
        ),
        metric(
            "vfs.dcache_hit_ratio",
            ratio(cnt["dcache_hits"] as f64, dc_lookups as f64),
            "ratio",
        ),
        metric(
            "vfs.dcache_invalidations_per_op",
            per_count_op("dcache_invalidations"),
            "count",
        ),
        metric("vfs.intern_misses_per_op", per_op(intern), "count"),
        metric(
            "lsm.self_ns_per_op",
            per_op(self_ns_of(&snap, &LSM_PATHWAYS)),
            "ns",
        ),
        metric(
            "lsm.hook_calls_per_op",
            per_count_op("lsm_hook_calls"),
            "count",
        ),
        metric("lsm.denials_per_op", per_count_op("denials"), "count"),
        metric(
            "policy.cache_self_ns_per_op",
            per_op(snap.self_ns(Pathway::PolicyCache)),
            "ns",
        ),
        metric(
            "policy.cache_hit_ratio",
            ratio(
                cnt["policy_cache_hits"] as f64,
                (cnt["policy_cache_hits"] + cnt["policy_cache_misses"]) as f64,
            ),
            "ratio",
        ),
        metric(
            "audit.emit_self_ns_per_op",
            per_op(snap.self_ns(Pathway::AuditEmit)),
            "ns",
        ),
        metric("audit.events_per_op", per_count_op("audit_events"), "count"),
        metric("audit.dropped", dropped as f64, "count"),
    ]);

    // Where the measuring threads' time went in the untraced phase.
    let sched = plain
        .iter()
        .fold(Schedstat::default(), |a, s| a.plus(s.sched));
    let plain_work: u64 = plain.iter().map(|s| s.work_ns).sum();
    let blocked = plain_work.saturating_sub(sched.cpu_ns + sched.runq_ns);
    let plain_per_op = |v: u64| ratio(v as f64, plain_ops as f64);
    m.extend([
        metric("worker.cpu_ns_per_op", plain_per_op(sched.cpu_ns), "ns"),
        metric(
            "worker.runq_wait_ns_per_op",
            plain_per_op(sched.runq_ns),
            "ns",
        ),
        metric("worker.blocked_ns_per_op", plain_per_op(blocked), "ns"),
    ]);
    // Per-worker time per op: each worker's wall time over its own ops.
    let shared_ns_per_op =
        stats::median(&plain.iter().map(LoopStats::ns_per_op).collect::<Vec<_>>());
    let solo_ns_per_op = solo.as_ref().map(LoopStats::ns_per_op).unwrap_or(0.0);
    m.extend([
        metric(
            "shared.slowdown_vs_solo",
            ratio(shared_ns_per_op, solo_ns_per_op),
            "ratio",
        ),
        metric("shared.solo_ns_per_op", solo_ns_per_op, "ns"),
        metric(
            "shared.ns_per_op",
            if solo.is_some() {
                shared_ns_per_op
            } else {
                0.0
            },
            "ns",
        ),
        metric(
            "trace.overhead_pct",
            (ratio(traced_ns_per_op, plain_ns_per_op) - 1.0) * 100.0,
            "%",
        ),
        metric("trace.attributed_pct", covered, "%"),
        metric("host.slowness", slowness, "ratio"),
    ]);
    // Self times sum to root time by construction; whether root spans
    // cover the dispatched time is what the probe checks.
    if covered < 95.0 {
        failed += 1;
        errors.push(format!(
            "root spans cover only {:.1}% of dispatched time",
            covered
        ));
    }
    detail.push((
        "dispatch_probe".to_string(),
        Value::Obj(vec![
            ("calls".into(), Value::Num(probe.calls as f64)),
            ("root_ns".into(), Value::Num(probe.root_ns as f64)),
            ("timed_ns".into(), Value::Num(probe.timed_ns as f64)),
            (
                "root_span_bookkeeping_ns".into(),
                Value::Num(probe.bookkeeping_ns),
            ),
            (
                "covered_pct_raw".into(),
                Value::Num(stats::covered_pct(probe.root_ns, probe.timed_ns)),
            ),
            (
                "self_time_pct_of_root".into(),
                Value::Num(snap.attributed_pct()),
            ),
        ]),
    ));
    detail.push((
        "seccomp_violations".to_string(),
        Value::Num(clients[0].sys.kernel.seccomp.total_violations() as f64),
    ));
    detail.push((
        "phase_ns_per_op".to_string(),
        Value::Obj(vec![
            ("untraced".into(), Value::Num(plain_ns_per_op)),
            ("traced".into(), Value::Num(traced_ns_per_op)),
        ]),
    ));
    detail.push(("measured_sched".to_string(), sched_json(sched)));
    Ok(Outcome {
        attempted,
        failed,
        metrics: m,
        detail,
        errors,
    })
}
