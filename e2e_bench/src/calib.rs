//! Host-speed calibration.
//!
//! On a shared host one core's speed for this kind of code drifts by a
//! factor of two or more within seconds, as neighbours come and go on
//! its sibling hyperthread, with no sign of it in steal time. Raw
//! wall-clock figures from two runs a minute apart then differ by more
//! than any change worth measuring. So the loop runs a fixed reference
//! block — the benchmark's own code, never the program's — between every
//! two slices of ops, and each slice's times are rescaled to a host on
//! which that block takes [`REF_NOMINAL_NS`]. Raw figures are reported
//! alongside.
//!
//! The block has two halves of about equal time: what the kernel's hot
//! paths do (format a path, hash it, probe a map), and a dependent
//! arithmetic chain that a busy sibling hardly slows. The map half alone
//! tracks the typical op (p50); the tail (p99) and throughput, which
//! also hold the drains and stalls that do not scale with core speed,
//! follow the whole block more closely (see the README for the fit).

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::time::Instant;

/// Nominal reference-block time: rescaled figures read as if measured
/// on a host where [`Reference::block`] takes this long.
pub const REF_NOMINAL_NS: f64 = 60_000.0;

/// Nominal time of the block's map half on that host.
pub const MAP_NOMINAL_NS: f64 = 28_000.0;

/// One reference block's timing.
#[derive(Clone, Copy, Debug)]
pub struct Reading {
    /// The whole block, ns.
    pub block_ns: u32,
    /// Its map half, ns.
    pub map_ns: u32,
}

/// Paths the map half of the block formats and looks up.
const REF_KEYS: u64 = 256;

/// Steps of the arithmetic half of the block.
const REF_CHAIN: u32 = 16_000;

/// The reference workload's state, built once per measuring thread.
/// The hasher is fixed-keyed, so the table's layout — and the block's
/// cost — is the same in every process.
pub struct Reference {
    map: HashMap<String, u64, BuildHasherDefault<DefaultHasher>>,
    chain: u64,
}

impl Reference {
    /// Builds the lookup table.
    pub fn new() -> Reference {
        Reference {
            map: (0..REF_KEYS)
                .map(|i| (format!("/var/mail/u{}", i), 0))
                .collect(),
            chain: 1,
        }
    }

    /// Runs one reference block and returns its timing. The block runs
    /// twice and only the second pass is timed: the first brings its
    /// table and heap chunks back into cache, so the cache and heap
    /// state the program's ops leave behind do not enter the yardstick.
    pub fn block(&mut self) -> Reading {
        self.map_pass();
        self.chain_pass();
        let t = Instant::now();
        self.map_pass();
        let t_map = Instant::now();
        self.chain_pass();
        let ns = |d: std::time::Duration| u32::try_from(d.as_nanos()).unwrap_or(u32::MAX);
        Reading {
            block_ns: ns(t.elapsed()),
            map_ns: ns(t_map.duration_since(t)),
        }
    }

    fn map_pass(&mut self) {
        for i in 0..REF_KEYS {
            let key = format!("/var/mail/u{}", (i * 7) % REF_KEYS);
            if let Some(n) = self.map.get_mut(std::hint::black_box(&key)) {
                *n += 1;
            }
        }
    }

    fn chain_pass(&mut self) {
        let mut x = std::hint::black_box(self.chain);
        for _ in 0..REF_CHAIN {
            x = x.wrapping_mul(0x2545_f491_4f6c_dd1d).rotate_left(7) ^ 3;
        }
        self.chain = std::hint::black_box(x);
    }
}

/// How much slower than nominal the host ran while a reference block
/// took `ref_ns`: divide a time (multiply a rate) by it to rescale.
pub fn slowness(ref_ns: f64) -> f64 {
    ref_ns / REF_NOMINAL_NS
}

/// The same from the block's map half, which took `map_ns`.
pub fn map_slowness(map_ns: f64) -> f64 {
    map_ns / MAP_NOMINAL_NS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slowness_is_relative_to_nominal() {
        assert_eq!(slowness(REF_NOMINAL_NS), 1.0);
        assert_eq!(slowness(2.0 * REF_NOMINAL_NS), 2.0);
        assert_eq!(map_slowness(MAP_NOMINAL_NS / 2.0), 0.5);
    }

    #[test]
    fn block_does_the_same_work_every_time() {
        let mut r = Reference::new();
        r.block();
        let t = r.block();
        assert!(r.map.values().all(|&n| n == 4));
        assert!(t.map_ns < t.block_ns);
    }
}
