//! # bench
//!
//! Workloads and fixtures for regenerating the paper's evaluation
//! (Table 5 and the ablations), driven by the `tables` binary.
//!
//! The measured quantity is the cost of the simulated operation path:
//! Protego and the legacy system run the *identical* kernel mechanism
//! plus their respective policy code, so the relative overhead isolates
//! exactly what the paper measured — the added policy checks per
//! operation.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablations;
pub mod fuzz;
pub mod json;
pub mod macro_fleet;
pub mod micro;
pub mod profile;
pub mod seccomp_derive;
pub mod table5;
pub mod workloads;

use sim_kernel::task::Pid;
use userland::{boot, System, SystemMode};

/// A booted system plus ready sessions for benchmarking.
pub struct Fixture {
    /// The system under test.
    pub sys: System,
    /// A root session.
    pub root: Pid,
    /// An unprivileged session (alice).
    pub user: Pid,
}

/// Boots a benchmark fixture in the given mode.
pub fn fixture(mode: SystemMode) -> Fixture {
    let mut sys = boot(mode);
    let root = sys.login("root", "rootpw").expect("root login");
    let user = sys.login("alice", "alicepw").expect("user login");
    Fixture { sys, root, user }
}

/// Both systems, for side-by-side measurements.
pub fn both() -> (Fixture, Fixture) {
    (fixture(SystemMode::Legacy), fixture(SystemMode::Protego))
}

/// Measures the mean wall-clock nanoseconds of `op` over `iters`
/// iterations (after `warmup` unmeasured ones) — the quick estimator used
/// by the `tables` binary; `table5` adds the paired interleaved
/// median-of-K protocol on top for the committed document.
pub fn quick_time_ns<F: FnMut()>(warmup: u32, iters: u32, mut op: F) -> f64 {
    for _ in 0..warmup {
        op();
    }
    let start = std::time::Instant::now();
    for _ in 0..iters {
        op();
    }
    start.elapsed().as_nanos() as f64 / iters as f64
}

/// Percent overhead of `b` over `a`.
pub fn overhead_pct(a: f64, b: f64) -> f64 {
    if a == 0.0 {
        0.0
    } else {
        (b - a) / a * 100.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixtures_boot() {
        let (l, p) = both();
        assert_eq!(l.sys.mode, SystemMode::Legacy);
        assert_eq!(p.sys.mode, SystemMode::Protego);
    }

    #[test]
    fn overhead_math() {
        assert!((overhead_pct(100.0, 107.4) - 7.4).abs() < 1e-9);
        assert_eq!(overhead_pct(0.0, 5.0), 0.0);
        assert!(overhead_pct(100.0, 95.0) < 0.0);
    }
}
