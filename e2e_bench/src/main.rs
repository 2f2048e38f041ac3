//! End-to-end and per-layer benchmark of the Protego image.
//!
//! ```text
//! cargo run --release --manifest-path e2e_bench/Cargo.toml -- \
//!     --workload <web|mail|admin|shared> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with span timing off, over
//! several fresh set-ups that share `--seconds` between them (see
//! [`run_plain`]). `--trace 1` is the separate traced run (see
//! [`traced`]): it checks that the per-op counts repeat exactly across
//! two fixed-length passes of the same seed, then splits `--seconds`
//! into an untraced and a traced phase and reports the per-layer
//! metrics. Both print a human-readable summary, a detail line (host
//! fingerprint, interference, inputs, counts) and, last, the result
//! object. Any failed or incorrect op makes the run exit 1.

mod calib;
mod gen;
mod host;
mod measure;
mod stats;
mod traced;
mod workloads;

use bench::json::Value;
use host::{Interference, Schedstat};
use measure::{measure, median_ref_ns, LoopStats, Samples, Slices};
use stats::ratio;
use std::time::{Duration, Instant};
use workloads::{Client, Inputs, Workload};

/// Independent set-ups (and measured sub-runs) per `--trace 0` run.
const BOOTS: usize = 7;

/// Sample slots per measuring thread per second of the run. A loop that
/// fills them stops early; every rate is taken over the time it ran.
const SAMPLES_PER_S: usize = 250_000;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

const USAGE: &str =
    "usage: e2e-bench --workload <web|mail|admin|shared> --seed <n> --seconds <s> --trace <0|1>";

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<&str, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {}", flag))?;
        argv.get(i + 1)
            .map(String::as_str)
            .ok_or(format!("{} needs a value", flag))
    };
    let workload = Workload::parse(get("--workload")?).ok_or("unknown workload")?;
    let seed = get("--seed")?.parse().map_err(|_| "bad --seed")?;
    let seconds: u64 = get("--seconds")?.parse().map_err(|_| "bad --seconds")?;
    if !(1..=600).contains(&seconds) {
        return Err("--seconds must be 1..=600".into());
    }
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        _ => return Err("--trace must be 0 or 1".into()),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// A metric line: name, value, unit.
type Metric = (String, f64, &'static str);

fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    (name.to_string(), value, unit)
}

/// `{"value": .., "unit": ..}`.
fn value_json(value: f64, unit: &str) -> Value {
    Value::Obj(vec![
        ("value".into(), Value::Num(value)),
        ("unit".into(), Value::Str(unit.to_string())),
    ])
}

fn metrics_json(metrics: &[Metric]) -> Value {
    Value::Obj(
        metrics
            .iter()
            .map(|(n, v, u)| (n.clone(), value_json(*v, u)))
            .collect(),
    )
}

/// What a run hands back to `main` for printing.
struct Outcome {
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
    detail: Vec<(String, Value)>,
    errors: Vec<String>,
}

/// Ops and failures of a set of loops plus the clients' own checks.
fn tally(stats: &[LoopStats], clients: &[Client]) -> (u64, u64) {
    let ops: u64 = stats.iter().map(|s| s.ops).sum();
    let failed: u64 = stats.iter().map(|s| s.failed).sum::<u64>()
        + clients.iter().map(|c| c.check_failures).sum::<u64>();
    (ops, failed)
}

fn collect_errors(clients: &[Client]) -> Vec<String> {
    clients
        .iter()
        .flat_map(|c| c.errors.iter().cloned())
        .collect()
}

/// `--trace 0`: end-to-end metrics with span timing off. The run is
/// [`BOOTS`] independent sub-runs, each a fresh set-up measured for an
/// equal share of `--seconds`. Each boot draws new hash-table keys and a
/// new heap layout, so no single draw decides the result. Throughput is
/// the median of the sub-runs' window throughputs; latencies are the
/// median over the 1024-op slices of all sub-runs, so bursts of
/// interference that spoil a minority of slices do not move them. Both
/// are rescaled to the nominal host (see [`calib`] and
/// [`Slices::add`]); the detail line has the same figures unscaled.
fn run_plain(args: &Args, inputs: &Inputs, samples: &mut [Samples]) -> Result<Outcome, String> {
    let share = Duration::from_secs_f64(args.seconds as f64 / BOOTS as f64);
    let (mut attempted, mut failed) = (0, 0);
    let mut setup_s = Vec::with_capacity(BOOTS);
    let mut raw_setup_s = Vec::with_capacity(BOOTS);
    let mut ref_ns = Vec::with_capacity(BOOTS);
    let mut map_ns = Vec::with_capacity(BOOTS);
    let mut slices = Slices::default();
    let mut sched = Schedstat::default();
    let mut errors = Vec::new();
    for _ in 0..BOOTS {
        let t = Instant::now();
        let mut clients = workloads::setup(args.workload, inputs)?;
        let setup = t.elapsed().as_secs_f64();
        let epoch = Instant::now();
        let (stats, _) = measure(&mut clients, samples, epoch, share, false)?;
        for c in clients.iter_mut() {
            c.finish(true);
        }
        let (a, f) = tally(&stats, &clients);
        attempted += a;
        failed += f;
        errors.extend(collect_errors(&clients));
        sched = stats.iter().fold(sched, |acc, s| acc.plus(s.sched));
        slices.add(&stats, samples)?;
        // Set-up is rescaled by the host speed seen right after it.
        let (r, m) = median_ref_ns(samples);
        ref_ns.push(r);
        map_ns.push(m);
        raw_setup_s.push(setup);
        setup_s.push(setup / calib::slowness(r));
    }
    let metrics = vec![
        metric("ops_per_s", stats::median(&slices.ops_per_s), "1/s"),
        metric("p50_us", stats::median(&slices.p50_us), "us"),
        metric("p99_us", stats::median(&slices.p99_us), "us"),
        metric("setup_s", stats::median(&setup_s), "s"),
        metric("peak_rss_mb", host::peak_rss_mb(), "MiB"),
    ];
    let unscaled = vec![
        metric("ops_per_s", stats::median(&slices.raw_ops_per_s), "1/s"),
        metric("p50_us", stats::median(&slices.raw_p50_us), "us"),
        metric("p99_us", stats::median(&slices.raw_p99_us), "us"),
        metric("setup_s", stats::median(&raw_setup_s), "s"),
    ];
    let each = |v: &[f64]| Value::Arr(v.iter().map(|&x| Value::Num(x)).collect());
    let detail = vec![
        ("unscaled".to_string(), metrics_json(&unscaled)),
        (
            "host_slowness".to_string(),
            Value::Num(calib::slowness(stats::median(&ref_ns))),
        ),
        (
            "latency_samples".to_string(),
            Value::Num(slices.samples as f64),
        ),
        ("slices".to_string(), Value::Num(slices.p50_us.len() as f64)),
        ("ops_per_s_each".to_string(), each(&slices.ops_per_s)),
        ("ref_block_ns".to_string(), each(&ref_ns)),
        ("ref_map_ns".to_string(), each(&map_ns)),
        ("setup_s_each".to_string(), each(&setup_s)),
        ("measured_sched".to_string(), sched_json(sched)),
    ];
    Ok(Outcome {
        attempted,
        failed,
        metrics,
        detail,
        errors,
    })
}

fn sched_json(s: Schedstat) -> Value {
    Value::Obj(vec![
        ("cpu_ns".into(), Value::Num(s.cpu_ns as f64)),
        ("runq_wait_ns".into(), Value::Num(s.runq_ns as f64)),
    ])
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {}\n{}", e, USAGE);
            std::process::exit(2);
        }
    };
    let interference = Interference::start();
    let inputs = Inputs::generate(args.workload, args.seed);
    // A traced run measures at most half of `--seconds` per phase, a
    // plain one a `BOOTS`-th per sub-run.
    let per_loop_s = if args.trace {
        args.seconds as f64 / 2.0
    } else {
        args.seconds as f64 / BOOTS as f64
    };
    let cap = (SAMPLES_PER_S as f64 * per_loop_s).ceil() as usize;
    let mut samples: Vec<Samples> = (0..inputs.plans.len()).map(|_| Samples::new(cap)).collect();
    let harness_bytes: usize = samples.iter().map(Samples::bytes).sum();

    let result = if args.trace {
        traced::run_traced(&args, &inputs, &mut samples)
    } else {
        run_plain(&args, &inputs, &mut samples)
    };
    let outcome = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {} run failed: {}", args.workload.name(), e);
            std::process::exit(1);
        }
    };

    // The error rate is printed and recorded but not a result metric:
    // it is 0 on a correct run, and result metrics must never be 0.
    let error_rate = ratio(outcome.failed as f64, outcome.attempted as f64);
    let summary = [metric("error_rate", error_rate, "ratio")];
    for (name, value, unit) in outcome.metrics.iter().chain(&summary) {
        println!("# {:<34} {:>16.4} {}", name, value, unit);
    }
    for e in &outcome.errors {
        eprintln!("failure: {}", e);
    }
    let measured = samples.len();
    let mut detail = vec![
        (
            "workload".to_string(),
            Value::Str(args.workload.name().into()),
        ),
        ("seed".to_string(), Value::Num(args.seed as f64)),
        ("trace".to_string(), Value::Bool(args.trace)),
        ("measuring_threads".to_string(), Value::Num(measured as f64)),
        (
            "harness_sample_mb".to_string(),
            Value::Num(harness_bytes as f64 / (1 << 20) as f64),
        ),
        ("host".to_string(), host::fingerprint()),
        ("interference".to_string(), interference.finish()),
        ("inputs".to_string(), inputs.describe()),
        ("error_rate".to_string(), value_json(error_rate, "ratio")),
    ];
    detail.extend(outcome.detail);
    println!("{}", Value::Obj(detail).render());
    let correct = outcome.failed == 0;
    let result = Value::Obj(vec![
        ("correct".into(), Value::Bool(correct)),
        ("attempted".into(), Value::Num(outcome.attempted as f64)),
        ("failed".into(), Value::Num(outcome.failed as f64)),
        ("metrics".into(), metrics_json(&outcome.metrics)),
    ]);
    println!("{}", result.render());
    if !correct {
        std::process::exit(1);
    }
}
