//! The Table 5 generator: measures every micro and macro row on both
//! systems, the hot-path before/after rows (compiled vs interpreted
//! policy, dcache-hit vs cold resolution), and renders the paper-style
//! table plus the machine-readable `BENCH_table5.json` document.

use crate::json::{self, Value};
use crate::micro::all_micro_ops;
use crate::workloads;
use crate::{both, fixture, overhead_pct, quick_time_ns};
use apparmor_lsm::{glob_match, AppArmorLsm, CompiledGlob};
use sim_kernel::cred::{Credentials, Gid, Uid};
use sim_kernel::lsm::{FileOpenCtx, SecurityModule};
use sim_kernel::vfs::{Access, Ino, Mode};
use std::hint::black_box;
use userland::SystemMode;

/// One measured Table 5 row.
#[derive(Clone, Debug)]
pub struct Row {
    /// Row name.
    pub name: String,
    /// Reported value for the legacy system (ns/op): the median round.
    pub linux_ns: f64,
    /// Reported value for Protego (ns/op): the median round.
    pub protego_ns: f64,
    /// Measured overhead percent (from the medians).
    pub overhead_pct: f64,
    /// The paper's overhead percent for the same row, when comparable.
    pub paper_overhead_pct: Option<f64>,
    /// Every measured legacy round (ns/op), in run order. Empty for rows
    /// measured without the paired median-of-K protocol (macro rows).
    pub linux_runs_ns: Vec<f64>,
    /// Every measured Protego round (ns/op), in run order.
    pub protego_runs_ns: Vec<f64>,
}

impl Row {
    fn summary(name: String, linux_ns: f64, protego_ns: f64, paper: Option<f64>) -> Row {
        Row {
            name,
            linux_ns,
            protego_ns,
            overhead_pct: overhead_pct(linux_ns, protego_ns),
            paper_overhead_pct: paper,
            linux_runs_ns: Vec::new(),
            protego_runs_ns: Vec::new(),
        }
    }
}

/// Paired interleaved rounds per mode for each micro row — the K of
/// median-of-K. Odd, so the reported median is an actually-measured
/// round rather than an average of two.
pub const MICRO_RUNS: usize = 7;

/// Median of a sample (empty -> 0).
fn median_of(xs: &[f64]) -> f64 {
    let mut sorted = xs.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    match sorted.len() {
        0 => 0.0,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// Measures all micro rows with the given iteration budget, reporting
/// per-mode medians over [`MICRO_RUNS`] paired interleaved rounds.
pub fn measure_micro(warmup: u32, iters: u32) -> Vec<Row> {
    measure_micro_runs(warmup, iters, MICRO_RUNS)
}

/// [`measure_micro`] with an explicit round count (the K of median-of-K).
///
/// Rounds interleave the two systems pairwise (L, P, L, P, ...), so host
/// drift — frequency scaling, competing load, allocator state — lands on
/// both modes alike instead of biasing whichever mode ran later; the
/// median then discards outlier rounds entirely, where a mean would
/// smear them into the result and a best-of pick would understate cost.
pub fn measure_micro_runs(warmup: u32, iters: u32, runs: usize) -> Vec<Row> {
    let (mut legacy, mut protego) = both();
    let mut rows = Vec::new();
    for op in all_micro_ops() {
        let pl = (op.prepare)(&mut legacy);
        let pp = (op.prepare)(&mut protego);
        // One unmeasured round per mode first, so one-time costs (name
        // interning, dcache fill, pool growth) never land inside a
        // measured window.
        quick_time_ns(warmup, iters, || (op.run)(&mut legacy, &pl));
        quick_time_ns(warmup, iters, || (op.run)(&mut protego, &pp));
        let mut l_runs = Vec::with_capacity(runs);
        let mut p_runs = Vec::with_capacity(runs);
        for _ in 0..runs {
            l_runs.push(quick_time_ns(warmup, iters, || (op.run)(&mut legacy, &pl)));
            p_runs.push(quick_time_ns(warmup, iters, || (op.run)(&mut protego, &pp)));
        }
        let linux_ns = median_of(&l_runs);
        let protego_ns = median_of(&p_runs);
        let paper = match (op.paper_linux_us, op.paper_protego_us) {
            (Some(a), Some(b)) => Some(overhead_pct(a, b)),
            _ => None,
        };
        rows.push(Row {
            name: op.name.to_string(),
            linux_ns,
            protego_ns,
            overhead_pct: overhead_pct(linux_ns, protego_ns),
            paper_overhead_pct: paper,
            linux_runs_ns: l_runs,
            protego_runs_ns: p_runs,
        });
    }
    rows
}

/// Measures the macro rows (Postal, kernel compile, ApacheBench sweeps).
pub fn measure_macro(postal_msgs: u64, compile_units: u64, ab_requests: u64) -> Vec<Row> {
    let mut rows = Vec::new();

    // Postal.
    {
        let (mut l, mut p) = both();
        let (ml, fdl) = workloads::start_mta(&mut l);
        let (mp, fdp) = workloads::start_mta(&mut p);
        // Warmup batch, then best-of-two measured rounds per system.
        let _ = workloads::postal(&mut l, ml, fdl, postal_msgs / 4);
        let _ = workloads::postal(&mut p, mp, fdp, postal_msgs / 4);
        let tl1 = workloads::postal(&mut l, ml, fdl, postal_msgs);
        let tp1 = workloads::postal(&mut p, mp, fdp, postal_msgs);
        let tl2 = workloads::postal(&mut l, ml, fdl, postal_msgs);
        let tp2 = workloads::postal(&mut p, mp, fdp, postal_msgs);
        let tl = if tl1.elapsed_ns < tl2.elapsed_ns {
            tl1
        } else {
            tl2
        };
        let tp = if tp1.elapsed_ns < tp2.elapsed_ns {
            tp1
        } else {
            tp2
        };
        // paper: 258.64 -> 258.75 msgs/min
        rows.push(Row::summary(
            "Postal (msg)".into(),
            tl.ns_per_op(),
            tp.ns_per_op(),
            Some(-0.04),
        ));
    }

    // Kernel compile.
    {
        let (mut l, mut p) = both();
        let _ = workloads::compile(&mut l, compile_units / 4);
        let _ = workloads::compile(&mut p, compile_units / 4);
        let tl1 = workloads::compile(&mut l, compile_units);
        let tp1 = workloads::compile(&mut p, compile_units);
        let tl2 = workloads::compile(&mut l, compile_units);
        let tp2 = workloads::compile(&mut p, compile_units);
        let tl = if tl1.elapsed_ns < tl2.elapsed_ns {
            tl1
        } else {
            tl2
        };
        let tp = if tp1.elapsed_ns < tp2.elapsed_ns {
            tp1
        } else {
            tp2
        };
        rows.push(Row::summary(
            "Kernel compile (unit)".into(),
            tl.ns_per_op(),
            tp.ns_per_op(),
            Some(1.44),
        ));
    }

    // ApacheBench at the paper's four concurrency levels.
    for (conc, paper) in [(25u64, 3.57), (50, 3.85), (100, 4.00), (200, 2.65)] {
        let (mut l, mut p) = both();
        let (wl, fdl) = workloads::start_httpd(&mut l);
        let (wp, fdp) = workloads::start_httpd(&mut p);
        // Warmup batch, then best-of-two measured rounds per system.
        let _ = workloads::apache_bench(&mut l, wl, fdl, ab_requests / 4, conc);
        let _ = workloads::apache_bench(&mut p, wp, fdp, ab_requests / 4, conc);
        let tl1 = workloads::apache_bench(&mut l, wl, fdl, ab_requests, conc);
        let tp1 = workloads::apache_bench(&mut p, wp, fdp, ab_requests, conc);
        let tl2 = workloads::apache_bench(&mut l, wl, fdl, ab_requests, conc);
        let tp2 = workloads::apache_bench(&mut p, wp, fdp, ab_requests, conc);
        let tl = if tl1.elapsed_ns < tl2.elapsed_ns {
            tl1
        } else {
            tl2
        };
        let tp = if tp1.elapsed_ns < tp2.elapsed_ns {
            tp1
        } else {
            tp2
        };
        rows.push(Row::summary(
            format!("ApacheBench c={}", conc),
            tl.ns_per_op(),
            tp.ns_per_op(),
            Some(paper),
        ));
    }
    rows
}

/// Renders rows in the paper's format.
pub fn render(rows: &[Row]) -> String {
    let mut s = String::new();
    s.push_str(&format!(
        "{:<24} {:>12} {:>12} {:>8} {:>10}\n",
        "Test", "Linux(ns)", "Protego(ns)", "%OH", "paper %OH"
    ));
    for r in rows {
        s.push_str(&format!(
            "{:<24} {:>12.0} {:>12.0} {:>8.2} {:>10}\n",
            r.name,
            r.linux_ns,
            r.protego_ns,
            r.overhead_pct,
            r.paper_overhead_pct
                .map(|p| format!("{:.2}", p))
                .unwrap_or_else(|| "-".into()),
        ));
    }
    s
}

/// The worst-case measured overhead across rows (Table 1's headline).
pub fn max_overhead(rows: &[Row]) -> f64 {
    rows.iter().map(|r| r.overhead_pct).fold(f64::MIN, f64::max)
}

/// One hot-path comparison row: the same operation with the fast path
/// disabled (the pre-caching interpreted/cold code, kept as the oracle)
/// and enabled (compiled globs, decision LRUs, dcache hits).
#[derive(Clone, Debug)]
pub struct HotpathRow {
    /// Row name (`glob_match`, `path_resolution`, `file_open`).
    pub name: &'static str,
    /// ns/op with the fast path disabled.
    pub before_ns: f64,
    /// ns/op with the fast path enabled.
    pub after_ns: f64,
    /// `before_ns / after_ns`.
    pub speedup: f64,
}

fn hotpath_row(name: &'static str, before_ns: f64, after_ns: f64) -> HotpathRow {
    HotpathRow {
        name,
        before_ns,
        after_ns,
        speedup: if after_ns > 0.0 {
            before_ns / after_ns
        } else {
            0.0
        },
    }
}

fn best_of_two<F: FnMut()>(warmup: u32, iters: u32, mut op: F) -> f64 {
    let a = quick_time_ns(warmup, iters, &mut op);
    let b = quick_time_ns(warmup, iters, &mut op);
    a.min(b)
}

/// Measures the three hot-path rows with best-of-two rounds per variant.
/// (The micro rows use the stronger paired interleaved median-of-K
/// protocol — see `measure_micro_runs`; these speedup rows compare
/// implementations at >=2x, where best-of-two is noise-proof enough.)
pub fn measure_hotpath(warmup: u32, iters: u32) -> Vec<HotpathRow> {
    let mut rows = Vec::new();

    // Glob matching: profile-shaped patterns evaluated by the recursive
    // interpreter vs the compiled engine with its literal/prefix fast
    // paths and reusable DP scratch.
    {
        const PAIRS: [(&str, &str); 4] = [
            ("/dev/**", "/dev/ttyS0"),
            ("/{bin,sbin}/mount", "/sbin/mount"),
            ("/etc/mtab", "/etc/mtab"),
            ("/usr/{lib,lib64,share}/**", "/usr/lib64/protego/policy.bin"),
        ];
        let compiled: Vec<CompiledGlob> = PAIRS.iter().map(|(p, _)| CompiledGlob::new(p)).collect();
        let before = best_of_two(warmup, iters, || {
            for (pattern, path) in PAIRS {
                black_box(glob_match(pattern, path));
            }
        });
        let after = best_of_two(warmup, iters, || {
            for (g, (_, path)) in compiled.iter().zip(PAIRS) {
                black_box(g.matches(path));
            }
        });
        rows.push(hotpath_row("glob_match", before, after));
    }

    // Path resolution on the VFS: a deep component walk vs a
    // generation-valid dcache hit. The cwd argument is irrelevant for an
    // absolute path.
    {
        let f = fixture(SystemMode::Protego);
        const DEEP: &str = "/srv/bench/a/b/c/d/e/f/g/h/i/j/leaf.conf";
        f.sys
            .kernel
            .vfs
            .install_file(DEEP, b"x", Mode(0o644), Uid::ROOT, Gid::ROOT)
            .expect("bench file installs");
        let vfs = &f.sys.kernel.vfs;
        vfs.set_dcache_enabled(false);
        let before = best_of_two(warmup, iters, || {
            black_box(vfs.resolve(Ino(0), DEEP).expect("resolves"));
        });
        vfs.set_dcache_enabled(true);
        let after = best_of_two(warmup, iters, || {
            black_box(vfs.resolve(Ino(0), DEEP).expect("resolves"));
        });
        rows.push(hotpath_row("path_resolution", before, after));
    }

    // The full AppArmor file_open hook round-trip: interpreted profile
    // lookup + rule walk vs binary→profile cache + decision LRU.
    {
        let a = AppArmorLsm::with_ubuntu_defaults();
        let root_cred = Credentials::root();
        let ctx = FileOpenCtx {
            cred: &root_cred,
            path: "/etc/fstab",
            binary: "/bin/mount",
            access: Access::READ,
            dac_allows: true,
            file_owner: Uid::ROOT,
            last_auth: None,
            last_auth_scope: None,
            now: 0,
        };
        a.set_caching(false);
        let before = best_of_two(warmup, iters, || {
            black_box(a.file_open(&ctx));
        });
        a.set_caching(true);
        let after = best_of_two(warmup, iters, || {
            black_box(a.file_open(&ctx));
        });
        rows.push(hotpath_row("file_open", before, after));
    }

    rows
}

/// The seccomp hot-path evidence row: the same `stat` dispatch on the
/// same booted image, measured with the registered
/// [`SeccompInterceptor`](sim_kernel::seccomp::SeccompInterceptor) in
/// mode `off` (the no-seccomp baseline: one mode load, then pass-through)
/// versus mode `enforce` under a profile that allows the call — so the
/// measured delta is exactly the per-dispatch cost of the profile
/// selection memo plus the packed allow-mask test.
#[derive(Clone, Debug)]
pub struct DispatchSeccompRow {
    /// Dispatch with seccomp off: the median round.
    pub base_ns: f64,
    /// Dispatch under an enforcing profile: the median round.
    pub seccomp_ns: f64,
    /// Overhead percent (from the medians).
    pub overhead_pct: f64,
    /// Every seccomp-off round (ns/op), in run order.
    pub base_runs_ns: Vec<f64>,
    /// Every enforced round (ns/op), in run order.
    pub seccomp_runs_ns: Vec<f64>,
}

/// Extra iteration factor for [`measure_dispatch_seccomp`] over the
/// shared micro sizes: the budgeted signal is ~1% of a single-dispatch
/// row, so this row needs far more samples per round than the 5–10%
/// micro rows to resolve it; the op is one syscall, so the rounds stay
/// cheap even at 40×.
const SECCOMP_ITER_SCALE: u32 = 40;

/// Measures the seccomp dispatch row with the same paired interleaved
/// median-of-[`MICRO_RUNS`] protocol as the micro rows — but A/B on a
/// *single* Protego image, flipping the seccomp mode between `off` and
/// `enforce` each round. Using one image (same heap, same caches, same
/// interceptor chain) removes fixture-layout bias that would swamp the
/// sub-1% signal; the mode flip is one atomic store. The acceptance
/// budget ([`json::DISPATCH_SECCOMP_BUDGET_PCT`]) is <1% on full runs.
pub fn measure_dispatch_seccomp(warmup: u32, iters: u32) -> DispatchSeccompRow {
    use sim_kernel::seccomp::{ProfileSpec, SeccompMode};
    use sim_kernel::syscall::Syscall;

    let warmup = warmup.saturating_mul(SECCOMP_ITER_SCALE);
    let iters = iters.saturating_mul(SECCOMP_ITER_SCALE);
    let mut f = fixture(SystemMode::Protego);
    let binary = f
        .sys
        .kernel
        .task_identity(f.user)
        .binary
        .as_str()
        .to_string();
    f.sys
        .kernel
        .seccomp
        .load_profiles(&[ProfileSpec::allowing(&binary, &["stat"])])
        .expect("bench profile compiles");
    f.sys.attach_seccomp();

    let stat = || Syscall::Stat {
        path: "/etc/motd".into(),
    };
    let mut run_round = |mode: SeccompMode| {
        let sys = &mut f.sys;
        let user = f.user;
        sys.kernel.seccomp.set_mode(mode);
        quick_time_ns(warmup, iters, || {
            let _ = sys.kernel.dispatch(user, stat());
        })
    };
    // One unmeasured round per mode (interning, dcache, selection-memo
    // fill), then the paired interleaved measured rounds.
    run_round(SeccompMode::Off);
    run_round(SeccompMode::Enforce);
    let mut base_runs = Vec::with_capacity(MICRO_RUNS);
    let mut seccomp_runs = Vec::with_capacity(MICRO_RUNS);
    for _ in 0..MICRO_RUNS {
        base_runs.push(run_round(SeccompMode::Off));
        seccomp_runs.push(run_round(SeccompMode::Enforce));
    }
    let base_ns = median_of(&base_runs);
    let seccomp_ns = median_of(&seccomp_runs);
    DispatchSeccompRow {
        base_ns,
        seccomp_ns,
        overhead_pct: overhead_pct(base_ns, seccomp_ns),
        base_runs_ns: base_runs,
        seccomp_runs_ns: seccomp_runs,
    }
}

/// One named cache's counters as parsed from a `/proc/<lsm>/metrics`
/// view (`cache_<name> hits=.. misses=.. invalidations=..`).
#[derive(Clone, Debug, Default)]
pub struct CacheCounters {
    /// Cache name (`dcache`, `apparmor_binary_lookup`, ...).
    pub name: String,
    /// Lookup hits.
    pub hits: u64,
    /// Lookup misses.
    pub misses: u64,
    /// Wholesale flushes.
    pub invalidations: u64,
}

fn merge_cache_lines(into: &mut Vec<CacheCounters>, metrics_text: &str) {
    for line in metrics_text.lines().filter(|l| l.starts_with("cache_")) {
        let mut fields = line.split_whitespace();
        let name = fields
            .next()
            .unwrap_or_default()
            .trim_start_matches("cache_")
            .to_string();
        let mut row = CacheCounters {
            name,
            ..CacheCounters::default()
        };
        for field in fields {
            if let Some((key, value)) = field.split_once('=') {
                let value: u64 = value.parse().unwrap_or(0);
                match key {
                    "hits" => row.hits = value,
                    "misses" => row.misses = value,
                    "invalidations" => row.invalidations = value,
                    _ => {}
                }
            }
        }
        if let Some(existing) = into.iter_mut().find(|c| c.name == row.name) {
            existing.hits += row.hits;
            existing.misses += row.misses;
            existing.invalidations += row.invalidations;
        } else {
            into.push(row);
        }
    }
}

/// Runs a short cache-exercising workload on both systems and collects
/// the counters their `/proc/<lsm>/metrics` views report (summed across
/// modes for the caches both share, like the dcache).
pub fn collect_cache_metrics() -> Vec<CacheCounters> {
    let mut merged = Vec::new();

    // Legacy: AppArmor confines tcpdump, so repeated opens by that binary
    // exercise the binary→profile cache, the decision LRU and the dcache.
    {
        let f = fixture(SystemMode::Legacy);
        let k = &f.sys.kernel;
        k.process(f.root)
            .write_file("/etc/hosts", b"127.0.0.1 localhost\n", Mode(0o644))
            .expect("hosts file");
        let shell = k.task_mut(f.root).expect("root task").binary.clone();
        k.task_mut(f.root).expect("root task").binary = "/usr/sbin/tcpdump".to_string();
        for _ in 0..8 {
            let _ = k.process(f.root).read_to_string("/etc/hosts");
        }
        // The confined binary may not read /proc; restore before sampling.
        k.task_mut(f.root).expect("root task").binary = shell;
        let text = k
            .read_to_string(f.root, "/proc/apparmor/metrics")
            .expect("apparmor metrics readable");
        merge_cache_lines(&mut merged, &text);
    }

    // Protego: every file_open consults the keyfile-rule cache, so plain
    // repeated reads exercise it together with the dcache.
    {
        let f = fixture(SystemMode::Protego);
        let k = &f.sys.kernel;
        k.process(f.root)
            .write_file("/etc/hosts", b"127.0.0.1 localhost\n", Mode(0o644))
            .expect("hosts file");
        for _ in 0..8 {
            let _ = k.process(f.user).read_to_string("/etc/hosts");
        }
        let text = k
            .read_to_string(f.root, "/proc/protego/metrics")
            .expect("protego metrics readable");
        merge_cache_lines(&mut merged, &text);
    }

    merged
}

fn row_to_value(r: &Row) -> Value {
    let mut fields = vec![
        ("name".into(), Value::Str(r.name.clone())),
        ("linux_ns".into(), Value::Num(r.linux_ns)),
        ("protego_ns".into(), Value::Num(r.protego_ns)),
        ("overhead_pct".into(), Value::Num(r.overhead_pct)),
        (
            "paper_overhead_pct".into(),
            r.paper_overhead_pct.map(Value::Num).unwrap_or(Value::Null),
        ),
    ];
    if !r.linux_runs_ns.is_empty() {
        let arr = |xs: &[f64]| Value::Arr(xs.iter().map(|&n| Value::Num(n)).collect());
        fields.push(("linux_runs_ns".into(), arr(&r.linux_runs_ns)));
        fields.push(("protego_runs_ns".into(), arr(&r.protego_runs_ns)));
    }
    Value::Obj(fields)
}

/// Builds the machine-readable `BENCH_table5.json` document: micro and
/// macro Table 5 rows, the hot-path before/after rows, and the cache
/// counters observed through the `/proc/<lsm>/metrics` views.
pub fn table5_json(
    quick: bool,
    warmup: u32,
    iters: u32,
    postal_msgs: u64,
    compile_units: u64,
    ab_requests: u64,
) -> String {
    let micro = measure_micro(warmup, iters);
    let macro_rows = measure_macro(postal_msgs, compile_units, ab_requests);
    let hotpath = measure_hotpath(warmup, iters);
    let seccomp = measure_dispatch_seccomp(warmup, iters);
    let caches = collect_cache_metrics();
    let runs_arr = |xs: &[f64]| Value::Arr(xs.iter().map(|&n| Value::Num(n)).collect());

    let doc = Value::Obj(vec![
        ("schema".into(), Value::Str(json::TABLE5_SCHEMA_V2.into())),
        ("quick".into(), Value::Bool(quick)),
        ("runs_per_mode".into(), Value::Num(MICRO_RUNS as f64)),
        (
            "micro".into(),
            Value::Arr(micro.iter().map(row_to_value).collect()),
        ),
        (
            "macro".into(),
            Value::Arr(macro_rows.iter().map(row_to_value).collect()),
        ),
        (
            "hotpath".into(),
            Value::Arr(
                hotpath
                    .iter()
                    .map(|r| {
                        Value::Obj(vec![
                            ("name".into(), Value::Str(r.name.into())),
                            ("before_ns".into(), Value::Num(r.before_ns)),
                            ("after_ns".into(), Value::Num(r.after_ns)),
                            ("speedup".into(), Value::Num(r.speedup)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "dispatch_seccomp".into(),
            Value::Obj(vec![
                ("base_ns".into(), Value::Num(seccomp.base_ns)),
                ("seccomp_ns".into(), Value::Num(seccomp.seccomp_ns)),
                ("overhead_pct".into(), Value::Num(seccomp.overhead_pct)),
                ("base_runs_ns".into(), runs_arr(&seccomp.base_runs_ns)),
                ("seccomp_runs_ns".into(), runs_arr(&seccomp.seccomp_runs_ns)),
            ]),
        ),
        (
            "cache_metrics".into(),
            Value::Obj(
                caches
                    .iter()
                    .map(|c| {
                        (
                            c.name.clone(),
                            Value::Obj(vec![
                                ("hits".into(), Value::Num(c.hits as f64)),
                                ("misses".into(), Value::Num(c.misses as f64)),
                                ("invalidations".into(), Value::Num(c.invalidations as f64)),
                            ]),
                        )
                    })
                    .collect(),
            ),
        ),
    ]);
    doc.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_micro_measurement_completes() {
        let rows = measure_micro(2, 5);
        assert!(rows.len() >= 20);
        for r in &rows {
            assert!(r.linux_ns > 0.0, "{}", r.name);
            assert!(r.protego_ns > 0.0, "{}", r.name);
        }
        let text = render(&rows);
        assert!(text.contains("mount/umnt"));
    }

    #[test]
    fn quick_macro_measurement_completes() {
        let rows = measure_macro(5, 3, 10);
        assert_eq!(rows.len(), 6);
        assert!(render(&rows).contains("ApacheBench c=200"));
    }

    #[test]
    fn hotpath_rows_measure_all_three_paths() {
        let rows = measure_hotpath(5, 50);
        let names: Vec<_> = rows.iter().map(|r| r.name).collect();
        assert_eq!(names, ["glob_match", "path_resolution", "file_open"]);
        for r in &rows {
            assert!(r.before_ns > 0.0 && r.after_ns > 0.0, "{:?}", r);
            assert!(r.speedup > 0.0, "{:?}", r);
        }
    }

    #[test]
    fn cache_metrics_report_hits_on_every_layer() {
        let caches = collect_cache_metrics();
        let hits = |name: &str| {
            caches
                .iter()
                .find(|c| c.name == name)
                .map(|c| c.hits)
                .unwrap_or(0)
        };
        assert!(hits("dcache") > 0, "dcache: {:?}", caches);
        assert!(hits("apparmor_binary_lookup") > 0, "{:?}", caches);
        assert!(hits("apparmor_decision_lru") > 0, "{:?}", caches);
        assert!(hits("protego_keyfile_lookup") > 0, "{:?}", caches);
    }

    #[test]
    fn dispatch_seccomp_row_measures_both_variants() {
        let row = measure_dispatch_seccomp(2, 20);
        assert!(row.base_ns > 0.0 && row.seccomp_ns > 0.0, "{:?}", row);
        assert_eq!(row.base_runs_ns.len(), MICRO_RUNS);
        assert_eq!(row.seccomp_runs_ns.len(), MICRO_RUNS);
        assert!(row.overhead_pct.is_finite());
    }

    #[test]
    fn json_document_is_well_formed() {
        let text = table5_json(true, 2, 5, 5, 3, 10);
        let doc = json::parse(&text).expect("emitted JSON parses");
        assert_eq!(
            doc.get("schema").and_then(Value::as_str),
            Some(json::TABLE5_SCHEMA_V2)
        );
        assert_eq!(
            doc.get("runs_per_mode").and_then(Value::as_f64),
            Some(MICRO_RUNS as f64)
        );
        let micro = doc.get("micro").unwrap().as_arr().unwrap();
        let runs = micro[0].get("linux_runs_ns").unwrap().as_arr().unwrap();
        assert_eq!(runs.len(), MICRO_RUNS);
        assert!(!doc.get("micro").unwrap().as_arr().unwrap().is_empty());
        assert!(!doc.get("macro").unwrap().as_arr().unwrap().is_empty());
        assert_eq!(doc.get("hotpath").unwrap().as_arr().unwrap().len(), 3);
        let dcache = doc.get("cache_metrics").unwrap().get("dcache").unwrap();
        assert!(dcache.get("hits").unwrap().as_f64().unwrap() > 0.0);
        let seccomp = doc.get("dispatch_seccomp").unwrap();
        assert_eq!(
            seccomp.get("base_runs_ns").unwrap().as_arr().unwrap().len(),
            MICRO_RUNS
        );
        assert!(seccomp.get("seccomp_ns").unwrap().as_f64().unwrap() > 0.0);
    }
}
