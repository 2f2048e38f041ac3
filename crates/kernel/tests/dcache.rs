//! Dcache invalidation properties, exercised through the syscall layer:
//! an entry change re-walks the cached paths through its directory and
//! only those, mount/umount/directory rename flush everything, a stale
//! cached resolution can never be served, and the `/proc/<lsm>/metrics`
//! view must report the cache counters.

use sim_kernel::cred::{Credentials, Gid, Uid};
use sim_kernel::error::Errno;
use sim_kernel::kernel::Kernel;
use sim_kernel::lsm::NullLsm;
use sim_kernel::net::SimNet;
use sim_kernel::vfs::Mode;
use sim_kernel::Pid;

fn boot() -> (Kernel, Pid) {
    let k = Kernel::new(SimNet::new());
    k.install_standard_devices().unwrap();
    k.register_lsm(Box::new(NullLsm)).unwrap();
    let root = k.spawn_init();
    k.vfs
        .install_file("/data/a.txt", b"alpha", Mode(0o644), Uid::ROOT, Gid::ROOT)
        .unwrap();
    k.vfs
        .install_file("/data/b.txt", b"beta", Mode(0o644), Uid::ROOT, Gid::ROOT)
        .unwrap();
    k.vfs
        .install_file("/other/c.txt", b"gamma", Mode(0o644), Uid::ROOT, Gid::ROOT)
        .unwrap();
    (k, root)
}

/// Reads `path` and asserts the read re-walked it: the cached
/// entry was dropped as stale.
fn read_rewalks(k: &Kernel, root: Pid, path: &str) -> Result<String, Errno> {
    let before = k.vfs.dcache_stats();
    let got = k.read_to_string(root, path);
    let after = k.vfs.dcache_stats();
    assert!(
        after.invalidations > before.invalidations && after.hits == before.hits,
        "{} must be re-walked",
        path
    );
    got
}

/// Asserts that the sibling directory's cached path still hits.
fn assert_sibling_hits(k: &Kernel, root: Pid) {
    let before = k.vfs.dcache_stats();
    assert_eq!(k.read_to_string(root, "/other/c.txt").unwrap(), "gamma");
    let after = k.vfs.dcache_stats();
    assert!(
        after.hits > before.hits && after.misses == before.misses,
        "a sibling directory's cached path must still hit"
    );
}

#[test]
fn repeated_reads_hit_the_dcache() {
    let (k, root) = boot();
    k.read_to_string(root, "/data/a.txt").unwrap();
    let before = k.vfs.dcache_stats();
    k.read_to_string(root, "/data/a.txt").unwrap();
    let after = k.vfs.dcache_stats();
    assert!(after.hits > before.hits, "second read must hit the cache");
}

#[test]
fn rename_rewalks_its_directory_and_redirects() {
    let (k, root) = boot();
    assert_eq!(k.read_to_string(root, "/data/a.txt").unwrap(), "alpha");
    k.read_to_string(root, "/other/c.txt").unwrap();
    // Atomic replace: b.txt takes over the name a.txt.
    k.process(root)
        .rename("/data/b.txt", "/data/a.txt")
        .unwrap();
    // A stale hit would return "alpha".
    assert_eq!(read_rewalks(&k, root, "/data/a.txt").unwrap(), "beta");
    assert_sibling_hits(&k, root);
}

#[test]
fn unlink_rewalks_its_directory_and_uncaches() {
    let (k, root) = boot();
    k.read_to_string(root, "/data/a.txt").unwrap();
    k.read_to_string(root, "/other/c.txt").unwrap();
    k.process(root).unlink("/data/a.txt").unwrap();
    // A stale hit would resolve the dead inode instead of failing.
    assert_eq!(
        read_rewalks(&k, root, "/data/a.txt").unwrap_err(),
        Errno::ENOENT
    );
    assert_sibling_hits(&k, root);
}

#[test]
fn directory_rename_bumps_generation() {
    let (k, root) = boot();
    k.read_to_string(root, "/data/a.txt").unwrap();
    let g0 = k.vfs.namespace_generation();
    k.process(root).rename("/data", "/moved").unwrap();
    assert!(
        k.vfs.namespace_generation() > g0,
        "directory rename must bump gen"
    );
    // A stale hit would still find the file under its old directory.
    assert_eq!(
        k.read_to_string(root, "/data/a.txt").unwrap_err(),
        Errno::ENOENT
    );
    assert_eq!(k.read_to_string(root, "/moved/a.txt").unwrap(), "alpha");
}

#[test]
fn mount_and_umount_bump_generation() {
    let (k, root) = boot();
    k.vfs.mkdir_p("/mnt/usb").unwrap();
    k.vfs
        .install_file(
            "/mnt/usb/under.txt",
            b"under",
            Mode(0o644),
            Uid::ROOT,
            Gid::ROOT,
        )
        .unwrap();
    // Warm the cache on the to-be-covered path.
    assert_eq!(
        k.read_to_string(root, "/mnt/usb/under.txt").unwrap(),
        "under"
    );
    let g0 = k.vfs.namespace_generation();
    k.process(root)
        .mount("/dev/sdb1", "/mnt/usb", "vfat", "rw")
        .unwrap();
    assert!(k.vfs.namespace_generation() > g0, "mount must bump gen");
    // A stale hit would still see the covered file.
    assert_eq!(
        k.read_to_string(root, "/mnt/usb/under.txt").unwrap_err(),
        Errno::ENOENT
    );
    let g1 = k.vfs.namespace_generation();
    k.process(root).umount("/mnt/usb").unwrap();
    assert!(k.vfs.namespace_generation() > g1, "umount must bump gen");
    assert_eq!(
        k.read_to_string(root, "/mnt/usb/under.txt").unwrap(),
        "under"
    );
}

#[test]
fn chmod_keeps_cached_paths_and_dac_sees_the_new_mode() {
    let (k, root) = boot();
    let user = k.spawn_session(Credentials::user(Uid(1000), Gid(1000)), "/bin/cat");
    assert_eq!(k.read_to_string(user, "/data/a.txt").unwrap(), "alpha");
    k.process(root).chmod("/data/a.txt", Mode(0o600)).unwrap();
    // Resolution reads no mode bits, so the cached path still hits...
    let before = k.vfs.dcache_stats();
    assert_eq!(k.read_to_string(root, "/data/a.txt").unwrap(), "alpha");
    let after = k.vfs.dcache_stats();
    assert!(after.hits > before.hits && after.misses == before.misses);
    assert_eq!(after.invalidations, before.invalidations);
    // ...and the permission check on the hit sees the new mode.
    assert_eq!(
        k.read_to_string(user, "/data/a.txt").unwrap_err(),
        Errno::EACCES
    );
}

#[test]
fn invalidation_counter_advances_on_flush() {
    let (k, root) = boot();
    k.read_to_string(root, "/data/a.txt").unwrap();
    k.process(root).unlink("/data/b.txt").unwrap();
    let before = k.vfs.dcache_stats().invalidations;
    // The flush is lazy: the next lookup after the mutation performs it.
    let _ = k.read_to_string(root, "/data/a.txt");
    assert!(k.vfs.dcache_stats().invalidations > before);
}

#[test]
fn proc_metrics_reports_intern_counters() {
    let (k, root) = boot();
    // First resolve interns the components; repeats hit the interner.
    k.read_to_string(root, "/data/a.txt").unwrap();
    k.read_to_string(root, "/data/a.txt").unwrap();
    let text = k.read_to_string(root, "/proc/null/metrics").unwrap();
    let line = text
        .lines()
        .find(|l| l.starts_with("cache_intern "))
        .expect("metrics must carry a cache_intern line");
    assert!(
        !line.contains("hits=0 "),
        "intern hits must be nonzero after repeated resolves: {}",
        line
    );
}

#[test]
fn proc_metrics_reports_dcache_counters() {
    let (k, root) = boot();
    k.read_to_string(root, "/data/a.txt").unwrap();
    k.read_to_string(root, "/data/a.txt").unwrap();
    let text = k.read_to_string(root, "/proc/null/metrics").unwrap();
    let line = text
        .lines()
        .find(|l| l.starts_with("cache_dcache "))
        .expect("metrics must carry a cache_dcache line");
    assert!(
        !line.contains("hits=0 "),
        "dcache hits must be nonzero: {}",
        line
    );
}
