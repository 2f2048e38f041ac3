//! Host fingerprint and per-run interference readings, recorded with
//! every result so host drift can be told apart from a code change.

use bench::json::Value;

/// `/proc/thread-self/schedstat` of the calling thread: on-CPU time,
/// time spent runnable but waiting for a CPU, and timeslices.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Schedstat {
    /// Nanoseconds on CPU.
    pub cpu_ns: u64,
    /// Nanoseconds waiting on a runqueue.
    pub runq_ns: u64,
}

impl Schedstat {
    /// The calling thread's counters, or zeros where the kernel does not
    /// expose them.
    pub fn now() -> Schedstat {
        let text = std::fs::read_to_string("/proc/thread-self/schedstat").unwrap_or_default();
        let mut it = text
            .split_whitespace()
            .map(|f| f.parse::<u64>().unwrap_or(0));
        Schedstat {
            cpu_ns: it.next().unwrap_or(0),
            runq_ns: it.next().unwrap_or(0),
        }
    }

    /// Counters accrued since `earlier`.
    pub fn since(self, earlier: Schedstat) -> Schedstat {
        Schedstat {
            cpu_ns: self.cpu_ns.saturating_sub(earlier.cpu_ns),
            runq_ns: self.runq_ns.saturating_sub(earlier.runq_ns),
        }
    }

    /// Element-wise sum.
    pub fn plus(self, other: Schedstat) -> Schedstat {
        Schedstat {
            cpu_ns: self.cpu_ns + other.cpu_ns,
            runq_ns: self.runq_ns + other.runq_ns,
        }
    }
}

/// Host-wide steal ticks (the 8th field of the `cpu` line of
/// `/proc/stat`): time a hypervisor ran someone else on our CPUs.
pub fn steal_ticks() -> u64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|t| {
            t.lines()
                .next()
                .and_then(|l| l.split_whitespace().nth(8))
                .and_then(|f| f.parse().ok())
        })
        .unwrap_or(0)
}

/// The 1/5/15-minute load averages.
pub fn loadavg() -> [f64; 3] {
    let text = std::fs::read_to_string("/proc/loadavg").unwrap_or_default();
    let mut out = [0.0; 3];
    for (slot, f) in out.iter_mut().zip(text.split_whitespace()) {
        *slot = f.parse().unwrap_or(0.0);
    }
    out
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|t| {
            t.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.split_whitespace().next()?.parse::<u64>().ok())
        })
        .map(|kb| kb as f64 / 1024.0)
        .unwrap_or(0.0)
}

/// Number of CPUs this process may run on.
pub fn cores() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|t| {
            t.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Core count, CPU model, toolchain and source revision.
pub fn fingerprint() -> Value {
    Value::Obj(vec![
        ("cores".into(), Value::Num(cores() as f64)),
        ("cpu_model".into(), Value::Str(cpu_model())),
        (
            "rustc".into(),
            Value::Str(env!("BENCH_RUSTC_VERSION").to_string()),
        ),
        (
            "commit".into(),
            Value::Str(env!("BENCH_COMMIT").to_string()),
        ),
        (
            "source_hash".into(),
            Value::Str(env!("BENCH_SOURCE_HASH").to_string()),
        ),
    ])
}

/// Interference readings taken at the start of a run; [`Interference::finish`]
/// turns them into the run's deltas.
pub struct Interference {
    steal: u64,
    started: std::time::Instant,
}

impl Interference {
    /// Starts recording.
    pub fn start() -> Interference {
        Interference {
            steal: steal_ticks(),
            started: std::time::Instant::now(),
        }
    }

    /// Steal ticks over the run and load averages at its end.
    pub fn finish(&self) -> Value {
        let load = loadavg();
        Value::Obj(vec![
            (
                "steal_ticks".into(),
                Value::Num(steal_ticks().saturating_sub(self.steal) as f64),
            ),
            (
                "run_wall_s".into(),
                Value::Num(self.started.elapsed().as_secs_f64()),
            ),
            (
                "loadavg".into(),
                Value::Arr(load.iter().map(|&l| Value::Num(l)).collect()),
            ),
        ])
    }
}
