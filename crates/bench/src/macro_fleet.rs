//! The fleet macro-benchmark engine: the paper's §6 macro workloads
//! (ApacheBench web serving, Postal mail delivery) scaled out over a
//! fleet of workers on one kernel.
//!
//! ## Worker topology
//!
//! [`run_shared_fleet`] boots *one* [`userland::System`] and hands each
//! worker thread a [`userland::System::worker_view`] onto the same
//! interior-locked kernel: N workers × 1 kernel. Every worker runs its
//! own service instance on a disjoint port with a disjoint mail spool,
//! so all contention measured is kernel-lock contention, not workload
//! aliasing. Workers send plain-data loop reports — op counts, busy
//! time, span histograms — over an [`std::sync::mpsc`] channel; the
//! driver takes the fleet-wide kernel-counter deltas itself and folds
//! everything into a [`FleetAggregate`].
//!
//! ## Paired interleaved runs
//!
//! Each contention point is measured as K interleaved legacy/protego
//! pairs (L, P, L, P, ...) and reported as the **median-of-K by on-CPU
//! throughput**, so a background scheduling hiccup in one run cannot
//! flip the ≤8% overhead verdict. Counts are deterministic across the K
//! runs; only timings differ.
//!
//! ## Throughput metric
//!
//! Aggregate fleet throughput is the **sum of per-worker rates**, each
//! worker's rate being its ops over its own *on-CPU* time (read from
//! `/proc/thread-self/schedstat`, falling back to wall clock where
//! schedstats are unavailable). On-CPU time excludes runqueue wait, so
//! the aggregate reflects what the fleet sustains per unit of hardware
//! rather than how a particular core count happens to interleave the
//! threads. Determinism guarantees cover op/syscall/fault *counts* —
//! never timings.
//!
//! ## Soak mode
//!
//! With a [`FaultSpec`] the fleet composes the existing seeded
//! [`FaultInjector`](sim_kernel::syscall::FaultInjector) (1-in-`rate`
//! errno storm) over the measured loop and proves the fleet completes
//! with **zero panics** (every worker reports) and **zero privileged
//! artifacts** ([`userland::workload::privileged_artifacts`] audit of
//! the shared kernel). The `bench-macro` soak is two such half-fleets,
//! web and mail.

use crate::json::Value;
use sim_kernel::syscall::{FaultConfig, SyscallClass};
use sim_kernel::trace::{span, Metrics, Pathway, TimingSnapshot};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{mpsc, Arc, Barrier};
use std::time::Instant;
use userland::workload::{self, Service};
use userland::{boot, System, SystemMode};

/// Which §6 macro workload a fleet drives.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MacroWorkload {
    /// ApacheBench-style closed loop: one HTTP round trip per op, the
    /// server doing stat + open + read + close on the docroot.
    Web,
    /// Postal-style closed loop: one SMTP delivery per op, committed
    /// with write-to-tmp + atomic-replace `rename` over the spool.
    Mail,
}

impl MacroWorkload {
    /// Stable name used in reports and JSON.
    pub fn name(self) -> &'static str {
        match self {
            MacroWorkload::Web => "web",
            MacroWorkload::Mail => "mail",
        }
    }
}

/// Seeded errno-storm parameters for soak runs.
#[derive(Clone, Copy, Debug)]
pub struct FaultSpec {
    /// PRNG seed of the one storm injector on the shared kernel.
    pub seed: u64,
    /// Injection rate as 1-in-`rate` per eligible call (100 = 1%).
    pub rate: u64,
}

/// One fleet run: a workload, a mode, a worker count.
#[derive(Clone, Copy, Debug)]
pub struct FleetSpec {
    /// The workload every worker drives.
    pub workload: MacroWorkload,
    /// Which image the workers boot.
    pub mode: SystemMode,
    /// Number of worker threads sharing the one kernel.
    pub workers: usize,
    /// Measured iterations per worker.
    pub iters: u64,
    /// Unmeasured warmup iterations per worker.
    pub warmup: u64,
    /// Optional errno storm over the measured loop (soak mode).
    pub fault: Option<FaultSpec>,
}

/// The driver's fold over every worker's report of one fleet run.
#[derive(Clone, Debug)]
pub struct FleetAggregate {
    /// The spec this aggregate came from.
    pub workers: usize,
    /// Total ops attempted across the fleet.
    pub ops: u64,
    /// Total failed ops across the fleet.
    pub failures: u64,
    /// Aggregate throughput: Σ per-worker (ops / busy seconds).
    pub ops_per_sec: f64,
    /// True when every worker measured with schedstat (not wall clock).
    pub used_schedstat: bool,
    /// Kernel metrics snapshot taken as the measured loops ended.
    pub metrics: Metrics,
    /// Summed per-class (calls, errors) over the measured loops.
    pub loop_classes: BTreeMap<&'static str, (u64, u64)>,
    /// Merged per-pathway latency histograms over the measured loops.
    /// Excluded from [`FleetAggregate::fingerprint`] — timings never
    /// participate in determinism checks.
    pub timing: TimingSnapshot,
    /// Total injected faults.
    pub injected: u64,
    /// Concatenated privileged-artifact findings (must be empty).
    pub artifacts: Vec<String>,
    /// Workers that panicked instead of reporting (must be 0).
    pub panicked: usize,
}

impl FleetAggregate {
    /// Fleet-wide dcache hit rate in [0, 1].
    pub fn dcache_hit_rate(&self) -> f64 {
        match self.metrics.caches.get("dcache") {
            Some(c) if c.hits + c.misses > 0 => c.hits as f64 / (c.hits + c.misses) as f64,
            _ => 0.0,
        }
    }

    /// A timing-free digest of everything that must reproduce per seed:
    /// op/failure/fault counts and per-class syscall counts.
    pub fn fingerprint(&self) -> String {
        let mut out = format!(
            "workers={} ops={} failures={} injected={}",
            self.workers, self.ops, self.failures, self.injected
        );
        for (class, (calls, errors)) in &self.loop_classes {
            out.push_str(&format!(" {}={}:{}", class, calls, errors));
        }
        out
    }
}

/// On-CPU nanoseconds of the calling thread, when the kernel exposes
/// populated schedstats.
fn thread_busy_ns() -> Option<u64> {
    let text = std::fs::read_to_string("/proc/thread-self/schedstat").ok()?;
    let first = text.split_whitespace().next()?;
    // Zero is a legitimate reading for a freshly spawned thread; the
    // caller falls back to wall clock only when the counter never moves
    // (schedstats compiled out report zero forever).
    first.parse::<u64>().ok()
}

fn run_one_op(
    sys: &mut System,
    wl: MacroWorkload,
    client: sim_kernel::Pid,
    srv: Service,
    worker: usize,
    i: u64,
) -> bool {
    match wl {
        MacroWorkload::Web => workload::web_request(sys, client, srv).is_ok(),
        // Each worker delivers to its own spool so the atomic-replace
        // renames of concurrent workers never collide.
        MacroWorkload::Mail => workload::mail_delivery(
            sys,
            client,
            srv,
            &workload::worker_rcpt(worker),
            &format!("fleet w{} op{}", worker, i),
        )
        .is_ok(),
    }
}

/// What one worker observed over its measured loop. Kernel counters are
/// *not* per-worker — the kernel is shared — so the driver computes
/// fleet-wide metric deltas itself; workers report only thread-local
/// observations.
struct LoopReport {
    ops: u64,
    failures: u64,
    busy_ns: u64,
    used_schedstat: bool,
    /// Thread-local span histograms over the measured loop.
    timing: TimingSnapshot,
}

/// Per-worker setup state carried from the warmup phase into the
/// measured phase.
struct WorkerState {
    sys: System,
    srv: Service,
    client: sim_kernel::Pid,
}

fn worker_setup(mut sys: System, spec: FleetSpec, worker: usize) -> WorkerState {
    let srv = match spec.workload {
        MacroWorkload::Web => workload::start_shared_web_service(&mut sys, worker),
        MacroWorkload::Mail => workload::start_shared_mail_service(&mut sys, worker),
    }
    .expect("fleet worker: service start on a clean boot");
    let client = workload::client_session(&mut sys).expect("fleet worker: client login");
    for i in 0..spec.warmup {
        run_one_op(&mut sys, spec.workload, client, srv, worker, i);
    }
    if spec.workload == MacroWorkload::Mail {
        workload::drain_spool(&mut sys, srv, &workload::worker_rcpt(worker));
    }
    WorkerState { sys, srv, client }
}

fn worker_measure(mut st: WorkerState, spec: FleetSpec, worker: usize) -> LoopReport {
    let WorkerState {
        ref mut sys,
        srv,
        client,
    } = st;
    // Span timing is thread-local, so each worker's histograms cover
    // exactly its own measured loop even on a shared kernel.
    span::reset();
    span::set_enabled(true);
    let wall_start = Instant::now();
    let busy_start = thread_busy_ns();
    let mut failures = 0u64;
    for i in 0..spec.iters {
        if spec.workload == MacroWorkload::Mail && i > 0 && i % 256 == 0 {
            workload::drain_spool(sys, srv, &workload::worker_rcpt(worker));
        }
        if !run_one_op(sys, spec.workload, client, srv, worker, spec.warmup + i) {
            failures += 1;
            // A fault injected into the server half can strand the
            // client's connection in the listen backlog; reap it so the
            // next op starts from a clean queue instead of wedging.
            workload::drain_backlog(sys, srv);
        }
    }
    let wall_ns = (wall_start.elapsed().as_nanos() as u64).max(1);
    let (busy_ns, used_schedstat) = match (busy_start, thread_busy_ns()) {
        (Some(a), Some(b)) if b > a => (b - a, true),
        _ => (wall_ns, false),
    };
    span::set_enabled(false);
    LoopReport {
        ops: spec.iters,
        failures,
        busy_ns,
        used_schedstat,
        timing: span::snapshot(),
    }
}

/// Runs one fleet: boots a single [`userland::System`],
/// hands every worker thread a [`System::worker_view`] onto the same
/// kernel, and drives `spec.workers` concurrent closed loops.
///
/// Three barriers fence the measurement so the driver can compute exact
/// fleet-wide kernel-counter deltas on a kernel it shares with the
/// workers: all warmups finish (`ready`), the driver snapshots metrics,
/// everyone starts the measured loops (`go`), all loops finish (`done`),
/// and the driver snapshots again before any post-loop syscall (the
/// privileged-artifact audit) can pollute the delta. Worker panics are
/// caught around each phase so a dying worker can never strand the
/// barriers; it is counted in [`FleetAggregate::panicked`] instead.
///
/// With a [`FaultSpec`] the storm interceptor is installed once on the
/// shared kernel after warmup. With several workers, fault *placement*
/// then depends on thread interleaving, so such storms assert safety —
/// zero panics, zero artifacts — not per-seed count equality; a
/// 1-worker storm has no interleaving and its counts reproduce per seed.
pub fn run_shared_fleet(spec: FleetSpec) -> FleetAggregate {
    let mut base = boot(spec.mode);
    base.attach_meter();
    let ready = Arc::new(Barrier::new(spec.workers + 1));
    let go = Arc::new(Barrier::new(spec.workers + 1));
    let done = Arc::new(Barrier::new(spec.workers + 1));

    let (tx, rx) = mpsc::channel::<LoopReport>();
    let mut handles = Vec::with_capacity(spec.workers);
    for worker in 0..spec.workers {
        let view = base.worker_view();
        let (tx, ready, go, done) = (tx.clone(), ready.clone(), go.clone(), done.clone());
        handles.push(std::thread::spawn(move || {
            let mut state =
                catch_unwind(AssertUnwindSafe(|| worker_setup(view, spec, worker))).ok();
            ready.wait();
            go.wait();
            let report = state.take().and_then(|st| {
                catch_unwind(AssertUnwindSafe(|| worker_measure(st, spec, worker))).ok()
            });
            done.wait();
            if let Some(r) = report {
                let _ = tx.send(r);
            }
        }));
    }
    drop(tx);

    ready.wait();
    // Every warmup has finished and no measured loop has started: this
    // delta base covers exactly the union of the measured loops.
    let fault_stats = spec.fault.map(|f| {
        let (_slot, stats) = base.attach_fault_injector(FaultConfig::storm(f.seed, f.rate));
        stats
    });
    let before = base.kernel.metrics_snapshot();
    go.wait();
    done.wait();
    let after = base.kernel.metrics_snapshot();

    let mut agg = FleetAggregate {
        workers: spec.workers,
        ops: 0,
        failures: 0,
        ops_per_sec: 0.0,
        used_schedstat: true,
        metrics: after.clone(),
        loop_classes: BTreeMap::new(),
        timing: TimingSnapshot::new(),
        injected: 0,
        artifacts: Vec::new(),
        panicked: 0,
    };
    for (class, a) in &after.classes {
        let prior = before.classes.get(class).copied().unwrap_or_default();
        agg.loop_classes
            .insert(class, (a.calls - prior.calls, a.errors - prior.errors));
    }
    let mut reports = 0usize;
    for report in rx {
        reports += 1;
        agg.ops += report.ops;
        agg.failures += report.failures;
        agg.ops_per_sec += report.ops as f64 / (report.busy_ns as f64 / 1e9);
        agg.used_schedstat &= report.used_schedstat;
        agg.timing.merge(&report.timing);
    }
    for h in handles {
        let _ = h.join();
    }
    agg.panicked = spec.workers - reports;
    agg.injected = fault_stats.map(|s| s.lock().unwrap().injected).unwrap_or(0);
    // One audit suffices: the artifacts live in the single shared kernel.
    agg.artifacts = workload::privileged_artifacts(&mut base);
    agg
}

/// Options for the full `bench-macro` matrix.
#[derive(Clone, Copy, Debug)]
pub struct MacroOptions {
    /// Smoke mode: tiny iteration counts, fleets of 1 and 8 workers,
    /// plus a per-seed determinism double-run.
    pub smoke: bool,
    /// Seed of the soak storm (and the determinism assertion).
    pub seed: u64,
}

impl MacroOptions {
    /// Fleet sizes: the contention curve's x axis.
    pub fn shared_worker_counts(self) -> &'static [usize] {
        if self.smoke {
            &[1, 8]
        } else {
            &[1, 8, 32, 128]
        }
    }

    /// Measured iterations per worker, scaled down with fleet size so
    /// the 128-worker point stays tractable while every worker still
    /// runs a statistically useful loop.
    pub fn shared_iters(self, workers: usize) -> u64 {
        if self.smoke {
            25
        } else {
            (16_000 / workers as u64).clamp(150, 4_000)
        }
    }

    /// Warmup iterations per worker.
    pub fn shared_warmup(self) -> u64 {
        if self.smoke {
            3
        } else {
            50
        }
    }

    /// How many interleaved legacy/protego run pairs each point is
    /// measured over (the K of median-of-K).
    pub fn shared_runs(self) -> usize {
        if self.smoke {
            1
        } else {
            3
        }
    }

    /// The soak's seeded errno storm: 1 in 100 eligible calls.
    pub fn soak_fault(self) -> FaultSpec {
        FaultSpec {
            seed: self.seed,
            rate: 100,
        }
    }

    /// One soak half-fleet: Protego workers driving `workload` under
    /// [`MacroOptions::soak_fault`]. Smoke runs 1 worker per half, so the
    /// storm has no interleaving and the determinism double-run covers
    /// its counts.
    pub fn soak_spec(self, workload: MacroWorkload) -> FleetSpec {
        let (workers, iters, warmup) = if self.smoke {
            (1, 30, 3)
        } else {
            (4, 10_000, 200)
        };
        FleetSpec {
            workload,
            mode: SystemMode::Protego,
            workers,
            iters,
            warmup,
            fault: Some(self.soak_fault()),
        }
    }
}

/// One shared-kernel contention point: both modes at one worker count,
/// each the median-of-K of paired interleaved runs.
#[derive(Clone, Debug)]
pub struct SharedPoint {
    /// Concurrent workers on the one kernel.
    pub workers: usize,
    /// How many runs per mode the medians were taken over.
    pub runs: usize,
    /// Median legacy run (by aggregate on-CPU throughput).
    pub legacy: FleetAggregate,
    /// Median Protego run.
    pub protego: FleetAggregate,
    /// Every legacy run's throughput, in run order.
    pub legacy_rates: Vec<f64>,
    /// Every Protego run's throughput, in run order.
    pub protego_rates: Vec<f64>,
}

impl SharedPoint {
    /// Protego overhead over the legacy baseline at this contention
    /// level, in percent, from the median runs.
    pub fn overhead_pct(&self) -> f64 {
        crate::overhead_pct(
            1.0 / self.legacy.ops_per_sec.max(f64::MIN_POSITIVE),
            1.0 / self.protego.ops_per_sec.max(f64::MIN_POSITIVE),
        )
    }
}

/// Selects the run with the median aggregate throughput; returns it plus
/// every run's rate in original order.
fn median_by_rate(mut runs: Vec<FleetAggregate>) -> (FleetAggregate, Vec<f64>) {
    let rates: Vec<f64> = runs.iter().map(|a| a.ops_per_sec).collect();
    let mut order: Vec<usize> = (0..runs.len()).collect();
    order.sort_by(|&a, &b| {
        runs[a]
            .ops_per_sec
            .partial_cmp(&runs[b].ops_per_sec)
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    let mid = order[order.len() / 2];
    (runs.swap_remove(mid), rates)
}

/// Measures one shared-kernel point: K interleaved legacy/protego pairs
/// (L, P, L, P, ...), folded to per-mode medians.
pub fn run_shared_point(
    workload: MacroWorkload,
    workers: usize,
    options: MacroOptions,
) -> SharedPoint {
    let spec = |mode| FleetSpec {
        workload,
        mode,
        workers,
        iters: options.shared_iters(workers),
        warmup: options.shared_warmup(),
        fault: None,
    };
    let runs = options.shared_runs();
    let mut legacy_runs = Vec::with_capacity(runs);
    let mut protego_runs = Vec::with_capacity(runs);
    for _ in 0..runs {
        legacy_runs.push(run_shared_fleet(spec(SystemMode::Legacy)));
        protego_runs.push(run_shared_fleet(spec(SystemMode::Protego)));
    }
    let (legacy, legacy_rates) = median_by_rate(legacy_runs);
    let (protego, protego_rates) = median_by_rate(protego_runs);
    SharedPoint {
        workers,
        runs,
        legacy,
        protego,
        legacy_rates,
        protego_rates,
    }
}

/// The whole bench-macro result set.
#[derive(Clone, Debug)]
pub struct MacroResults {
    /// Options the matrix ran with.
    pub options: MacroOptions,
    /// Per-workload contention curves over one kernel.
    pub shared_curves: Vec<(MacroWorkload, Vec<SharedPoint>)>,
    /// The soak fleet: both half-fleets of [`MacroOptions::soak_spec`]
    /// folded into one aggregate.
    pub soak: FleetAggregate,
}

impl MacroResults {
    /// Protego throughput scaling from 1 worker to the 8-worker
    /// contention point, for `workload` — the gated criterion (≥ 2.5× on
    /// one kernel).
    pub fn shared_scaling_1_to_8(&self, workload: MacroWorkload) -> f64 {
        let Some((_, points)) = self.shared_curves.iter().find(|(w, _)| *w == workload) else {
            return 0.0;
        };
        let one = points.iter().find(|p| p.workers == 1);
        let eight = points.iter().find(|p| p.workers == 8);
        match (one, eight) {
            (Some(a), Some(b)) if a.protego.ops_per_sec > 0.0 => {
                b.protego.ops_per_sec / a.protego.ops_per_sec
            }
            _ => 0.0,
        }
    }

    /// A timing-free digest of the whole matrix, for per-seed
    /// determinism checks: concatenates every fleet's
    /// [`FleetAggregate::fingerprint`]. Fault-free points are
    /// interleaving-independent (every op performs a fixed syscall mix
    /// and totals are sums); the soak is too when it runs 1 worker per
    /// half, as it does in smoke mode.
    pub fn fingerprint(&self) -> String {
        let mut out = String::new();
        for (wl, points) in &self.shared_curves {
            for p in points {
                out.push_str(&format!(
                    "{}/legacy {}\n",
                    wl.name(),
                    p.legacy.fingerprint()
                ));
                out.push_str(&format!(
                    "{}/protego {}\n",
                    wl.name(),
                    p.protego.fingerprint()
                ));
            }
        }
        out.push_str(&format!("soak {}\n", self.soak.fingerprint()));
        out
    }

    /// Driver-side sanity: every point finite, no failures outside the
    /// soak, soak clean (no panics, no artifacts, faults actually fired),
    /// and on full runs the ≥2.5× scaling and ≤8% overhead gates.
    pub fn check(&self) -> Result<(), String> {
        for (wl, points) in &self.shared_curves {
            for p in points {
                for (mode, agg) in [("legacy", &p.legacy), ("protego", &p.protego)] {
                    if agg.panicked > 0 {
                        return Err(format!(
                            "{}/{} x{}: {} worker(s) panicked",
                            wl.name(),
                            mode,
                            p.workers,
                            agg.panicked
                        ));
                    }
                    if agg.failures > 0 {
                        return Err(format!(
                            "{}/{} x{}: {} failed ops without fault injection",
                            wl.name(),
                            mode,
                            p.workers,
                            agg.failures
                        ));
                    }
                    if !agg.ops_per_sec.is_finite() || agg.ops_per_sec <= 0.0 {
                        return Err(format!(
                            "{}/{} x{}: non-finite throughput",
                            wl.name(),
                            mode,
                            p.workers
                        ));
                    }
                    if !agg.artifacts.is_empty() {
                        return Err(format!(
                            "{}/{} x{}: privileged artifacts: {:?}",
                            wl.name(),
                            mode,
                            p.workers,
                            agg.artifacts
                        ));
                    }
                }
                if !p.overhead_pct().is_finite() {
                    return Err(format!("{} x{}: non-finite overhead", wl.name(), p.workers));
                }
            }
            if !self.options.smoke {
                let scaling = self.shared_scaling_1_to_8(*wl);
                if scaling < 2.5 {
                    return Err(format!(
                        "{}: 8-worker throughput only {:.2}x the 1-worker point (need >= 2.5x)",
                        wl.name(),
                        scaling
                    ));
                }
                if let Some(p8) = points.iter().find(|p| p.workers == 8) {
                    if p8.overhead_pct() > 8.0 {
                        return Err(format!(
                            "{}: protego overhead {:.2}% under 8-worker contention (budget <= 8%)",
                            wl.name(),
                            p8.overhead_pct()
                        ));
                    }
                }
            }
        }
        if self.soak.panicked > 0 {
            return Err(format!("soak: {} worker(s) panicked", self.soak.panicked));
        }
        if self.soak.injected == 0 {
            return Err("soak: the storm never fired".into());
        }
        if !self.soak.artifacts.is_empty() {
            return Err(format!(
                "soak: privileged artifacts under storm: {:?}",
                self.soak.artifacts
            ));
        }
        Ok(())
    }
}

/// Runs the full matrix: every workload × fleet size × both modes, then
/// the soak's two half-fleets.
pub fn run_macro_matrix(options: MacroOptions) -> MacroResults {
    let shared_curves = [MacroWorkload::Web, MacroWorkload::Mail]
        .into_iter()
        .map(|workload| {
            let points = options
                .shared_worker_counts()
                .iter()
                .map(|&workers| run_shared_point(workload, workers, options))
                .collect();
            (workload, points)
        })
        .collect();
    let mut soak = run_shared_fleet(options.soak_spec(MacroWorkload::Web));
    let mail_half = run_shared_fleet(options.soak_spec(MacroWorkload::Mail));
    soak.workers += mail_half.workers;
    soak.ops += mail_half.ops;
    soak.failures += mail_half.failures;
    soak.ops_per_sec += mail_half.ops_per_sec;
    soak.used_schedstat &= mail_half.used_schedstat;
    soak.metrics.merge(&mail_half.metrics);
    for (class, (calls, errors)) in &mail_half.loop_classes {
        let e = soak.loop_classes.entry(class).or_insert((0, 0));
        e.0 += calls;
        e.1 += errors;
    }
    soak.timing.merge(&mail_half.timing);
    soak.injected += mail_half.injected;
    soak.artifacts.extend(mail_half.artifacts);
    soak.panicked += mail_half.panicked;
    MacroResults {
        options,
        shared_curves,
        soak,
    }
}

fn classes_json(classes: &BTreeMap<&'static str, (u64, u64)>) -> Value {
    Value::Obj(
        classes
            .iter()
            .map(|(class, (calls, errors))| {
                (
                    class.to_string(),
                    Value::Obj(vec![
                        ("calls".into(), Value::Num(*calls as f64)),
                        ("errors".into(), Value::Num(*errors as f64)),
                    ]),
                )
            })
            .collect(),
    )
}

/// Per-syscall-class latency breakdown from the fleet's merged span
/// histograms: one entry per class whose body pathway recorded spans.
/// Timings are additive documentation — they never enter the
/// determinism fingerprint.
fn class_latency_json(timing: &TimingSnapshot) -> Value {
    let mut members = Vec::new();
    for class in SyscallClass::ALL {
        let h = timing.hist(Pathway::for_class(class));
        if h.is_empty() {
            continue;
        }
        members.push((
            class.name().to_string(),
            Value::Obj(vec![
                ("count".into(), Value::Num(h.count as f64)),
                ("p50_ns".into(), Value::Num(h.p50() as f64)),
                ("p95_ns".into(), Value::Num(h.p95() as f64)),
                ("p99_ns".into(), Value::Num(h.p99() as f64)),
                ("max_ns".into(), Value::Num(h.max as f64)),
            ]),
        ));
    }
    Value::Obj(members)
}

fn aggregate_json(agg: &FleetAggregate) -> Value {
    Value::Obj(vec![
        ("ops".into(), Value::Num(agg.ops as f64)),
        ("failures".into(), Value::Num(agg.failures as f64)),
        ("ops_per_sec".into(), Value::Num(agg.ops_per_sec)),
        ("dcache_hit_rate".into(), Value::Num(agg.dcache_hit_rate())),
        ("syscall_classes".into(), classes_json(&agg.loop_classes)),
        ("class_latency".into(), class_latency_json(&agg.timing)),
        ("used_schedstat".into(), Value::Bool(agg.used_schedstat)),
    ])
}

fn rates_json(rates: &[f64]) -> Value {
    Value::Arr(rates.iter().map(|&r| Value::Num(r)).collect())
}

/// Renders the results as the committed `BENCH_macro.json` document
/// (`bench_macro/v3`): per-workload contention curves over one kernel,
/// with the per-run throughputs the medians were taken from, plus the
/// soak block.
pub fn macro_json(results: &MacroResults) -> String {
    let mut workloads = Vec::new();
    for (wl, points) in &results.shared_curves {
        let pts = points
            .iter()
            .map(|p| {
                Value::Obj(vec![
                    ("workers".into(), Value::Num(p.workers as f64)),
                    ("runs_per_mode".into(), Value::Num(p.runs as f64)),
                    (
                        "legacy_ops_per_sec".into(),
                        Value::Num(p.legacy.ops_per_sec),
                    ),
                    (
                        "protego_ops_per_sec".into(),
                        Value::Num(p.protego.ops_per_sec),
                    ),
                    ("overhead_pct".into(), Value::Num(p.overhead_pct())),
                    ("legacy_run_rates".into(), rates_json(&p.legacy_rates)),
                    ("protego_run_rates".into(), rates_json(&p.protego_rates)),
                    ("legacy".into(), aggregate_json(&p.legacy)),
                    ("protego".into(), aggregate_json(&p.protego)),
                ])
            })
            .collect();
        workloads.push(Value::Obj(vec![
            ("name".into(), Value::Str(wl.name().into())),
            ("points".into(), Value::Arr(pts)),
            (
                "protego_scaling_1_to_8".into(),
                Value::Num(results.shared_scaling_1_to_8(*wl)),
            ),
        ]));
    }
    let fault_rate_pct = 100.0 / results.options.soak_fault().rate as f64;
    let soak = Value::Obj(vec![
        ("workers".into(), Value::Num(results.soak.workers as f64)),
        ("fault_rate_pct".into(), Value::Num(fault_rate_pct)),
        ("injected".into(), Value::Num(results.soak.injected as f64)),
        ("ops".into(), Value::Num(results.soak.ops as f64)),
        ("failures".into(), Value::Num(results.soak.failures as f64)),
        (
            "panicked_workers".into(),
            Value::Num(results.soak.panicked as f64),
        ),
        (
            "privileged_artifacts".into(),
            Value::Num(results.soak.artifacts.len() as f64),
        ),
        ("completed".into(), Value::Bool(true)),
    ]);
    Value::Obj(vec![
        (
            "schema".into(),
            Value::Str(crate::json::MACRO_SCHEMA.into()),
        ),
        ("smoke".into(), Value::Bool(results.options.smoke)),
        ("workloads".into(), Value::Arr(workloads)),
        ("soak".into(), soak),
    ])
    .render()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_spec(mode: SystemMode, workload: MacroWorkload, workers: usize) -> FleetSpec {
        FleetSpec {
            workload,
            mode,
            workers,
            iters: 8,
            warmup: 1,
            fault: None,
        }
    }

    #[test]
    fn fleet_counts_are_deterministic_per_seed() {
        // One worker means no interleaving, so even a storm on the
        // shared kernel reproduces its counts per seed.
        for workload in [MacroWorkload::Web, MacroWorkload::Mail] {
            let spec = FleetSpec {
                workload,
                mode: SystemMode::Protego,
                workers: 1,
                iters: 30,
                warmup: 1,
                fault: Some(FaultSpec {
                    seed: 0xFEED,
                    rate: 50,
                }),
            };
            let a = run_shared_fleet(spec);
            let b = run_shared_fleet(spec);
            assert_eq!(a.fingerprint(), b.fingerprint(), "{:?}", workload);
            assert!(a.injected > 0, "a 2% storm over the loop must fire");
            assert_eq!(a.panicked, 0);
            assert!(a.artifacts.is_empty());
        }
    }

    #[test]
    fn shared_fleet_runs_both_workloads_both_modes() {
        for workload in [MacroWorkload::Web, MacroWorkload::Mail] {
            for mode in [SystemMode::Legacy, SystemMode::Protego] {
                let agg = run_shared_fleet(tiny_spec(mode, workload, 4));
                assert_eq!(agg.panicked, 0, "{:?}/{:?}", workload, mode);
                assert_eq!(agg.ops, 32);
                assert_eq!(agg.failures, 0, "{:?}/{:?}", workload, mode);
                assert!(agg.ops_per_sec > 0.0);
                assert!(agg.artifacts.is_empty());
                // The fleet-wide measured-loop delta saw every worker's
                // fs and net traffic.
                assert!(agg.loop_classes.get("fs").map_or(0, |c| c.0) > 0);
                assert!(agg.loop_classes.get("net").map_or(0, |c| c.0) > 0);
                // Per-worker thread-local span histograms merged.
                assert!(agg.timing.hist(Pathway::Dispatch).count > 0);
                assert!(agg.timing.hist(Pathway::SysNet).count > 0);
            }
        }
    }

    #[test]
    fn shared_fleet_counts_are_deterministic() {
        let spec = tiny_spec(SystemMode::Protego, MacroWorkload::Mail, 3);
        let a = run_shared_fleet(spec);
        let b = run_shared_fleet(spec);
        assert_eq!(
            a.fingerprint(),
            b.fingerprint(),
            "fault-free shared-fleet counts must not depend on interleaving"
        );
    }

    #[test]
    fn shared_fleet_storm_is_tolerated() {
        let agg = run_shared_fleet(FleetSpec {
            workload: MacroWorkload::Web,
            mode: SystemMode::Protego,
            workers: 3,
            iters: 20,
            warmup: 1,
            fault: Some(FaultSpec { seed: 11, rate: 25 }),
        });
        assert_eq!(agg.panicked, 0);
        assert_eq!(agg.ops, 60);
        assert!(
            agg.injected > 0,
            "a 4% storm over 60 concurrent ops must fire"
        );
        assert!(agg.artifacts.is_empty());
    }
}
