//! The closed measuring loop and what it records: per-op latencies and
//! completion times, calibration blocks between slices of ops, and the
//! slice statistics the end-to-end metrics are medians of.

use crate::calib::{self, Reference};
use crate::host::Schedstat;
use crate::stats::{self, ratio, Timeline, SLICE_OPS};
use crate::workloads::Client;
use sim_kernel::trace::{span, TimingSnapshot};
use std::time::{Duration, Instant};

/// Per-thread latency and completion-time storage, allocated and
/// touched before boot so peak RSS tracks the system, not the run length,
/// plus the thread's calibration reference and its readings: `refs[k]`
/// and `maps[k]` time the reference block (and its map half) run just
/// before op `k * SLICE_OPS`, and one more closes the loop; `away_ns[k]`
/// is the whole time that block kept the thread from its ops.
pub struct Samples {
    lat_ns: Vec<u32>,
    ends_us: Vec<u32>,
    len: usize,
    reference: Reference,
    refs: Vec<u32>,
    maps: Vec<u32>,
    away_ns: Vec<u32>,
}

impl Samples {
    pub fn new(cap: usize) -> Samples {
        let mut lat_ns = vec![0u32; cap];
        let mut ends_us = vec![0u32; cap];
        std::hint::black_box(&mut lat_ns[..]).fill(1);
        std::hint::black_box(&mut ends_us[..]).fill(1);
        let blocks = cap / SLICE_OPS + 2;
        Samples {
            lat_ns,
            ends_us,
            len: 0,
            reference: Reference::new(),
            refs: Vec::with_capacity(blocks),
            maps: Vec::with_capacity(blocks),
            away_ns: Vec::with_capacity(blocks),
        }
    }

    /// Bytes of sample storage held for the whole run.
    pub fn bytes(&self) -> usize {
        4 * (self.lat_ns.len()
            + self.ends_us.len()
            + self.refs.capacity()
            + self.maps.capacity()
            + self.away_ns.capacity())
    }

    /// Runs and records one calibration block; returns the time it took
    /// from the loop.
    fn calibrate(&mut self) -> u64 {
        let t = Instant::now();
        let reading = self.reference.block();
        let away = t.elapsed().as_nanos() as u64;
        self.refs.push(reading.block_ns);
        self.maps.push(reading.map_ns);
        self.away_ns.push(u32::try_from(away).unwrap_or(u32::MAX));
        away
    }

    /// Records one op; false once full.
    fn push(&mut self, lat_ns: u64, end_us: u32) -> bool {
        if self.len == self.lat_ns.len() {
            return false;
        }
        self.lat_ns[self.len] = u32::try_from(lat_ns).unwrap_or(u32::MAX);
        self.ends_us[self.len] = end_us;
        self.len += 1;
        self.len < self.lat_ns.len()
    }
}

fn us_since(epoch: Instant, t: Instant) -> u32 {
    u32::try_from(t.duration_since(epoch).as_micros()).unwrap_or(u32::MAX)
}

/// One closed loop's totals.
#[derive(Clone, Debug, Default)]
pub struct LoopStats {
    pub ops: u64,
    pub failed: u64,
    /// Loop wall time, ns: ops plus the drains and checks between them,
    /// not the calibration blocks.
    pub work_ns: u64,
    pub sched: Schedstat,
    /// Summed latency and count of admin steps per utility.
    pub run_ns: [(u64, u64); 4],
    /// Start of the first op, µs since the run's epoch.
    pub first_start_us: u32,
}

impl LoopStats {
    pub fn ns_per_op(&self) -> f64 {
        ratio(self.work_ns as f64, self.ops as f64)
    }
}

/// Runs `client`'s closed loop until `deadline` (or until `samples` is
/// full): each op is issued only after the previous one completed.
fn run_loop(
    client: &mut Client,
    samples: &mut Samples,
    epoch: Instant,
    deadline: Instant,
) -> LoopStats {
    samples.len = 0;
    samples.refs.clear();
    samples.maps.clear();
    samples.away_ns.clear();
    let sched0 = Schedstat::now();
    let mut st = LoopStats::default();
    samples.calibrate();
    let mut away_ns = 0;
    let start = Instant::now();
    st.first_start_us = us_since(epoch, start);
    let mut t0 = start;
    loop {
        if st.ops > 0 && st.ops % SLICE_OPS as u64 == 0 {
            away_ns += samples.calibrate();
            t0 = Instant::now();
        }
        let r = client.op();
        let t1 = Instant::now();
        let lat = t1.duration_since(t0).as_nanos() as u64;
        st.ops += 1;
        match r {
            Ok(Some(kind)) => {
                let slot = &mut st.run_ns[kind as usize];
                slot.0 += lat;
                slot.1 += 1;
            }
            Ok(None) => {}
            Err(e) => {
                st.failed += 1;
                client.note_error(e);
            }
        }
        let room = samples.push(lat, us_since(epoch, t1));
        t0 = if client.between_ops() {
            Instant::now()
        } else {
            t1
        };
        if !room || t0 >= deadline {
            break;
        }
    }
    st.work_ns = (t0.duration_since(start).as_nanos() as u64).saturating_sub(away_ns);
    samples.calibrate();
    st.sched = Schedstat::now().since(sched0);
    st
}

/// Runs every client's loop for `dur` on its own thread, all started
/// together; with `traced`, each thread records spans and returns its
/// snapshot.
fn run_parallel(
    clients: &mut [Client],
    samples: &mut [Samples],
    epoch: Instant,
    dur: Duration,
    traced: bool,
) -> Result<(Vec<LoopStats>, TimingSnapshot), String> {
    let barrier = std::sync::Barrier::new(clients.len());
    let results: Vec<std::thread::Result<(LoopStats, TimingSnapshot)>> = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter_mut()
            .zip(samples.iter_mut())
            .map(|(c, smp)| {
                let barrier = &barrier;
                s.spawn(move || {
                    barrier.wait();
                    let deadline = Instant::now() + dur;
                    run_phase(c, smp, epoch, deadline, traced)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join()).collect()
    });
    let mut stats = Vec::new();
    let mut snap = TimingSnapshot::new();
    for r in results {
        let (st, sn) = r.map_err(|_| "a worker thread panicked".to_string())?;
        stats.push(st);
        snap.merge(&sn);
    }
    Ok((stats, snap))
}

/// One loop on the calling thread, with span timing on when `traced`.
fn run_phase(
    client: &mut Client,
    samples: &mut Samples,
    epoch: Instant,
    deadline: Instant,
    traced: bool,
) -> (LoopStats, TimingSnapshot) {
    span::reset();
    span::set_enabled(traced);
    let st = run_loop(client, samples, epoch, deadline);
    span::set_enabled(false);
    let snap = if traced {
        span::snapshot()
    } else {
        TimingSnapshot::new()
    };
    (st, snap)
}

/// Runs one measured phase over all clients: inline for one client,
/// one thread per client otherwise.
pub fn measure(
    clients: &mut [Client],
    samples: &mut [Samples],
    epoch: Instant,
    dur: Duration,
    traced: bool,
) -> Result<(Vec<LoopStats>, TimingSnapshot), String> {
    if clients.len() == 1 {
        let (st, snap) = run_phase(
            &mut clients[0],
            &mut samples[0],
            epoch,
            Instant::now() + dur,
            traced,
        );
        Ok((vec![st], snap))
    } else {
        run_parallel(clients, samples, epoch, dur, traced)
    }
}

/// Median calibration-block time, and median map-half time, over every
/// measuring thread's blocks, ns.
pub fn median_ref_ns(samples: &[Samples]) -> (f64, f64) {
    let median_of = |v: fn(&Samples) -> &Vec<u32>| {
        let all: Vec<f64> = samples
            .iter()
            .flat_map(|s| v(s).iter().map(|&r| f64::from(r)))
            .collect();
        stats::median(&all)
    };
    (median_of(|s| &s.refs), median_of(|s| &s.maps))
}

/// The end-to-end measurements of every sub-run, rescaled to the
/// nominal host (see [`calib`]) and as measured.
#[derive(Default)]
pub struct Slices {
    /// Per sub-run: throughput over its all-workers-running window.
    pub ops_per_s: Vec<f64>,
    pub raw_ops_per_s: Vec<f64>,
    /// Per slice: latency percentiles.
    pub p50_us: Vec<f64>,
    pub p99_us: Vec<f64>,
    pub raw_p50_us: Vec<f64>,
    pub raw_p99_us: Vec<f64>,
    /// Latency samples in all windows.
    pub samples: usize,
}

impl Slices {
    /// Adds one sub-run, over the interval in which every client was
    /// running (the whole loop when there is one).
    ///
    /// Throughput is every op completed in that window per second of
    /// it ([`stats::throughput`]), less the share of the window the
    /// clients spent on the reference blocks between their ops, and
    /// rescaled by the blocks' slowness weighted by the time of the
    /// slices around them. Latency percentiles are taken per slice: the
    /// runs of [`SLICE_OPS`] ops between a client's calibration blocks
    /// that lie wholly inside the window, each rescaled by the mean of
    /// the blocks on either side (p50 by their map halves, p99 by the
    /// whole blocks; see [`calib`]). Sorts each slice's latencies in
    /// place.
    pub fn add(&mut self, stats: &[LoopStats], samples: &mut [Samples]) -> Result<(), String> {
        let timelines: Vec<Timeline> = stats
            .iter()
            .zip(samples.iter())
            .map(|(st, smp)| Timeline {
                first_start_us: st.first_start_us,
                ends_us: &smp.ends_us[..smp.len],
            })
            .collect();
        let window = stats::all_running_window(&timelines).ok_or("workers never overlapped")?;
        let raw_throughput = stats::throughput(&timelines, window);
        let ranges: Vec<_> = timelines
            .iter()
            .map(|t| stats::ops_in_window(t.ends_us, window))
            .collect();
        drop(timelines);
        let (mut away_us, mut slice_us, mut nominal_us) = (0.0, 0.0, 0.0);
        for (smp, range) in samples.iter_mut().zip(ranges) {
            self.samples += range.len();
            let full = stats::full_slices(range, SLICE_OPS);
            if full.is_empty() {
                return Err(format!("fewer than {} ops in a sub-run", SLICE_OPS));
            }
            // The blocks between two slices of the window.
            away_us += smp.away_ns[full.start + 1..full.end]
                .iter()
                .map(|&ns| f64::from(ns) / 1e3)
                .sum::<f64>();
            for k in full {
                let ops = k * SLICE_OPS..(k + 1) * SLICE_OPS;
                let slow = calib::slowness(f64::from(smp.refs[k] / 2 + smp.refs[k + 1] / 2));
                let map_slow =
                    calib::map_slowness(f64::from(smp.maps[k] / 2 + smp.maps[k + 1] / 2));
                let ends = &smp.ends_us[ops.clone()];
                let us = f64::from(ends[SLICE_OPS - 1] - ends[0]);
                slice_us += us;
                nominal_us += us / slow;
                let lat = &mut smp.lat_ns[ops];
                lat.sort_unstable();
                let pct = |q: f64| {
                    stats::percentile(&[lat], q)
                        .map(|ns| f64::from(ns) / 1e3)
                        .ok_or(format!("too few samples for p{}", q * 100.0))
                };
                let (p50, p99) = (pct(0.50)?, pct(0.99)?);
                self.raw_p50_us.push(p50);
                self.raw_p99_us.push(p99);
                self.p50_us.push(p50 / map_slow);
                self.p99_us.push(p99 / slow);
            }
        }
        if nominal_us == 0.0 {
            return Err("a sub-run too short to time".into());
        }
        let away_share = away_us / samples.len() as f64 / f64::from(window.1 - window.0);
        let raw = raw_throughput / (1.0 - away_share);
        self.raw_ops_per_s.push(raw);
        self.ops_per_s.push(raw * slice_us / nominal_us);
        Ok(())
    }
}
