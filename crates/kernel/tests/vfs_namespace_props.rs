//! Property tests over the VFS namespace: arbitrary rename/link/unlink
//! sequences never create cycles, never orphan a live inode, and never
//! make `resolve` diverge.

use proptest::prelude::*;
use sim_kernel::cred::{Gid, Uid};
use sim_kernel::error::Errno;
use sim_kernel::vfs::{Create, Ino, InodeData, Mode, MountOptions, Vfs};
use std::collections::BTreeSet;

/// A namespace mutation drawn from a small pool of directory and file
/// names, so sequences collide often enough to exercise the interesting
/// paths (overwrites, ancestor moves, re-creates of reclaimed slots).
#[derive(Clone, Debug)]
enum NsOp {
    Mkdir(u8, u8),
    Create(u8, u8),
    Link(u8, u8, u8, u8),
    Unlink(u8, u8),
    Rmdir(u8, u8),
    Rename(u8, u8, u8, u8),
}

fn ns_op() -> impl Strategy<Value = NsOp> {
    prop_oneof![
        (0u8..6, 0u8..4).prop_map(|(d, n)| NsOp::Mkdir(d, n)),
        (0u8..6, 0u8..4).prop_map(|(d, n)| NsOp::Create(d, n)),
        (0u8..6, 0u8..4, 0u8..6, 0u8..4).prop_map(|(a, b, c, d)| NsOp::Link(a, b, c, d)),
        (0u8..6, 0u8..4).prop_map(|(d, n)| NsOp::Unlink(d, n)),
        (0u8..6, 0u8..4).prop_map(|(d, n)| NsOp::Rmdir(d, n)),
        (0u8..6, 0u8..4, 0u8..6, 0u8..4).prop_map(|(a, b, c, d)| NsOp::Rename(a, b, c, d)),
    ]
}

/// The six working directories ops address, resolved fresh each step so
/// renamed/removed directories fall back to root rather than dangling.
fn dir_pool(v: &Vfs) -> Vec<Ino> {
    let mut pool = vec![v.root()];
    for path in ["/d0", "/d1", "/d2", "/d0/d1", "/d1/d2"] {
        if let Ok(r) = v.resolve(v.root(), path) {
            pool.push(r.ino);
        } else {
            pool.push(v.root());
        }
    }
    pool
}

fn seed_tree() -> Vfs {
    let v = Vfs::new();
    v.mkdir_p("/d0/d1").unwrap();
    v.mkdir_p("/d1/d2").unwrap();
    v.mkdir_p("/d2").unwrap();
    v
}

/// Every inode slot that still carries links must be reachable from the
/// root by walking directory entries, and `path_of` must terminate on it
/// (its cycle guard reports `<cycle>` instead of hanging).
fn assert_live_inodes_root_reachable(v: &Vfs) {
    let mut reachable: BTreeSet<Ino> = BTreeSet::new();
    reachable.insert(v.root());
    let mut queue = vec![v.root()];
    while let Some(cur) = queue.pop() {
        let entries: Vec<Ino> = {
            let node = v.inode(cur);
            match node.dir_entries() {
                Some(e) => e.values().copied().collect(),
                None => continue,
            }
        };
        for child in entries {
            if !reachable.insert(child) {
                // Hard links give files multiple parents; a directory
                // reached twice means a cycle or double-parent — corrupt.
                assert!(
                    v.inode(child).dir_entries().is_none(),
                    "directory {:?} reachable via two paths: namespace cycle",
                    child
                );
                continue;
            }
            queue.push(child);
        }
    }
    let reclaimed: BTreeSet<Ino> = v.reclaimed_slots().iter().copied().collect();
    for idx in 0..v.inode_count() {
        let ino = Ino(idx);
        if reclaimed.contains(&ino) {
            continue;
        }
        let inode = v.inode(ino);
        if inode.nlink == 0 {
            continue; // dead (e.g. removed dir slot awaiting reuse)
        }
        assert!(
            reachable.contains(&ino),
            "live inode {:?} (nlink {}) unreachable from root at {}",
            ino,
            inode.nlink,
            v.path_of(ino)
        );
        assert_ne!(v.path_of(ino), "<cycle>", "path_of found a cycle");
    }
}

proptest! {
    /// Arbitrary rename/link/unlink/mkdir/rmdir sequences keep the
    /// namespace a rooted tree: `resolve` terminates on every probe, no
    /// live inode is orphaned, and directory-cycle renames are rejected
    /// (so a cycle can never be observed afterwards).
    #[test]
    fn namespace_stays_rooted_under_random_mutations(
        ops in prop::collection::vec(ns_op(), 0..60),
    ) {
        let v = seed_tree();
        for op in ops {
            let pool = dir_pool(&v);
            let dir_at = |i: u8| pool[i as usize % pool.len()];
            let name = |n: u8| format!("n{}", n);
            let dname = |n: u8| format!("d{}", n);
            match op {
                NsOp::Mkdir(d, n) => {
                    let _ = v.mkdir(dir_at(d), &dname(n), Mode(0o755), Uid::ROOT, Gid::ROOT);
                }
                NsOp::Create(d, n) => {
                    let _ = v.create_file(
                        dir_at(d), &name(n), Mode(0o644), Uid::ROOT, Gid::ROOT, Create::OrExisting,
                    );
                }
                NsOp::Link(sd, sn, td, tn) => {
                    if let Ok(r) = v.resolve(dir_at(sd), &name(sn)) {
                        let _ = v.link(dir_at(td), &name(tn), r.ino);
                    }
                }
                NsOp::Unlink(d, n) => {
                    let _ = v.unlink(dir_at(d), &name(n));
                }
                NsOp::Rmdir(d, n) => {
                    let _ = v.rmdir(dir_at(d), &dname(n));
                }
                NsOp::Rename(sd, sn, td, tn) => {
                    // Rename both file names and directory names so the
                    // ancestor check sees real directory moves.
                    let _ = v.rename(dir_at(sd), &name(sn), dir_at(td), &name(tn));
                    let _ = v.rename(dir_at(sd), &dname(sn), dir_at(td), &dname(tn));
                }
            }
            // resolve() must terminate on every step, from every pool dir.
            for probe in ["/d0/d1", "/d1/d2/n0", "d1/n1", "..", "../../d2"] {
                for &start in &pool {
                    let _ = v.resolve(start, probe);
                }
            }
        }
        assert_live_inodes_root_reachable(&v);
    }

    /// Directed adversarial sequence: repeatedly try to move an ancestor
    /// into its own descendant chain; every attempt must fail EINVAL and
    /// the tree must stay fully navigable.
    #[test]
    fn ancestor_moves_always_rejected(depth in 1usize..8) {
        let v = Vfs::new();
        let mut path = String::new();
        for i in 0..depth {
            path.push_str(&format!("/s{}", i));
        }
        v.mkdir_p(&path).unwrap();
        let top = v.resolve(v.root(), "/s0").unwrap().ino;
        let deepest = v.resolve(v.root(), &path).unwrap().ino;
        prop_assert_eq!(
            v.rename(v.root(), "s0", deepest, "loop").unwrap_err(),
            Errno::EINVAL
        );
        prop_assert_eq!(
            v.rename(v.root(), "s0", top, "self").unwrap_err(),
            Errno::EINVAL
        );
        prop_assert_eq!(v.resolve(v.root(), &path).unwrap().ino, deepest);
        assert_live_inodes_root_reachable(&v);
    }
}

/// Regression: before the ancestor check, this exact sequence detached
/// `/a` into an unreachable self-cycle and `path_of` reported `<cycle>`.
#[test]
fn rename_cycle_regression_shape() {
    let v = Vfs::new();
    v.mkdir_p("/a/b/c").unwrap();
    let c = v.resolve(v.root(), "/a/b/c").unwrap().ino;
    assert_eq!(
        v.rename(v.root(), "a", c, "a").unwrap_err(),
        Errno::EINVAL,
        "rename(\"/a\", \"/a/b/c/a\") must be rejected"
    );
    assert_eq!(v.path_of(c), "/a/b/c");
    assert_live_inodes_root_reachable(&v);
}

/// `dir_remove` is safe against the InodeData check even when handed a
/// non-directory parent.
#[test]
fn dir_remove_on_file_parent_is_enotdir() {
    let v = Vfs::new();
    v.install_file("/f", b"x", Mode(0o644), Uid::ROOT, Gid::ROOT)
        .unwrap();
    let f = v.resolve(v.root(), "/f").unwrap().ino;
    assert_eq!(v.dir_remove(f, "anything").unwrap_err(), Errno::ENOTDIR);
    assert_eq!(
        v.dir_remove(v.root(), "missing").unwrap_err(),
        Errno::ENOENT
    );
    let _ = f;
}

/// A namespace change for the dcache differential test. Every variant
/// draws from pools small enough that changes keep landing on paths the
/// probes have just cached.
#[derive(Clone, Debug)]
enum DcOp {
    Mkdir(u8, u8),
    Create(u8, u8),
    Link(u8, u8, u8, u8),
    Unlink(u8, u8),
    Rmdir(u8, u8),
    Symlink(u8, u8, u8),
    RenameFile(u8, u8, u8, u8),
    RenameDir(u8, u8, u8, u8),
    Mount(u8),
    Umount,
    Chmod(u8, u8, u8),
}

fn dc_op() -> impl Strategy<Value = DcOp> {
    prop_oneof![
        (0u8..6, 0u8..3).prop_map(|(d, n)| DcOp::Mkdir(d, n)),
        (0u8..6, 0u8..3).prop_map(|(d, n)| DcOp::Create(d, n)),
        (0u8..6, 0u8..3, 0u8..6, 0u8..3).prop_map(|(a, b, c, d)| DcOp::Link(a, b, c, d)),
        (0u8..6, 0u8..3).prop_map(|(d, n)| DcOp::Unlink(d, n)),
        (0u8..6, 0u8..3).prop_map(|(d, n)| DcOp::Rmdir(d, n)),
        (0u8..6, 0u8..2, 0u8..6).prop_map(|(d, n, t)| DcOp::Symlink(d, n, t)),
        (0u8..6, 0u8..3, 0u8..6, 0u8..3).prop_map(|(a, b, c, d)| DcOp::RenameFile(a, b, c, d)),
        (0u8..6, 0u8..3, 0u8..6, 0u8..3).prop_map(|(a, b, c, d)| DcOp::RenameDir(a, b, c, d)),
        (0u8..6).prop_map(DcOp::Mount),
        Just(DcOp::Umount),
        (0u8..6, 0u8..3, 0u8..2).prop_map(|(d, n, m)| DcOp::Chmod(d, n, m)),
    ]
}

/// Symlink targets: absolute, relative, through `..` and `.`, to a
/// directory, and into a loop through the other symlink.
const SYMLINK_TARGETS: [&str; 6] = ["/d0/f0", "f1", "../d1", "/d0/d1", "./s1", "s0"];

/// Probes: absolute and relative, with `.` and `..`, through symlinks
/// and across mountpoints.
const PROBES: [&str; 12] = [
    "/d0/f0",
    "/d0/d1/f1",
    "/d1/d0/f2",
    "d1/f0",
    "f0",
    "./d0/../f1",
    "../d0/f0",
    "/d1/../d0/./f1",
    "s0",
    "/d0/s1/f1",
    "d0/s0",
    "..",
];

/// The outcome a probe compares: the inode and the directory chain, or
/// the errno.
fn outcome(r: Result<sim_kernel::vfs::Resolved, Errno>) -> Result<(Ino, Vec<Ino>), Errno> {
    r.map(|r| (r.ino, r.dirs.iter().collect()))
}

proptest! {
    /// Interleaves random namespace changes with resolves: every resolve
    /// must give the same inode and directory chain, or the same errno,
    /// with the dcache on as with it off. A stale hit after an unlink or
    /// rename, or a cached path that survived a mount or directory move,
    /// shows up as a divergence.
    #[test]
    fn dcache_agrees_with_uncached_walks(
        ops in prop::collection::vec(dc_op(), 1..60),
    ) {
        let v = seed_tree();
        let mut mounts: Vec<String> = Vec::new();
        for op in ops {
            let pool = dir_pool(&v);
            let dir_at = |i: u8| pool[i as usize % pool.len()];
            let name = |n: u8| format!("f{}", n);
            let dname = |n: u8| format!("d{}", n);
            let file_at = |d: u8, n: u8| v.dir_lookup(dir_at(d), &name(n)).ok().flatten();
            match op {
                DcOp::Mkdir(d, n) => {
                    let _ = v.mkdir(dir_at(d), &dname(n), Mode(0o755), Uid::ROOT, Gid::ROOT);
                }
                DcOp::Create(d, n) => {
                    let _ = v.create_file(
                        dir_at(d), &name(n), Mode(0o644), Uid::ROOT, Gid::ROOT, Create::New,
                    );
                }
                DcOp::Link(sd, sn, td, tn) => {
                    if let Some(f) = file_at(sd, sn) {
                        let _ = v.link(dir_at(td), &name(tn), f);
                    }
                }
                DcOp::Unlink(d, n) => {
                    let _ = v.unlink(dir_at(d), &name(n));
                }
                DcOp::Rmdir(d, n) => {
                    let _ = v.rmdir(dir_at(d), &dname(n));
                }
                DcOp::Symlink(d, n, t) => {
                    let target = SYMLINK_TARGETS[t as usize % SYMLINK_TARGETS.len()];
                    let _ = v.symlink(dir_at(d), &format!("s{}", n), target, Uid::ROOT, Gid::ROOT);
                }
                DcOp::RenameFile(sd, sn, td, tn) => {
                    let _ = v.rename(dir_at(sd), &name(sn), dir_at(td), &name(tn));
                }
                DcOp::RenameDir(sd, sn, td, tn) => {
                    let _ = v.rename(dir_at(sd), &dname(sn), dir_at(td), &dname(tn));
                }
                DcOp::Mount(d) => {
                    let covered = dir_at(d);
                    let root = v.alloc(
                        v.root(), Mode(0o755), Uid::ROOT, Gid::ROOT,
                        InodeData::Directory(Default::default()),
                    );
                    let _ = v.create_file(root, "f0", Mode(0o644), Uid::ROOT, Gid::ROOT, Create::New);
                    let at = v.path_of(covered);
                    if v.add_mount("m", &at, "t", MountOptions::default(), root, covered, Uid::ROOT).is_ok() {
                        mounts.push(at);
                    }
                }
                DcOp::Umount => {
                    if let Some(at) = mounts.pop() {
                        let _ = v.remove_mount(&at);
                    }
                }
                DcOp::Chmod(d, n, m) => {
                    if let Some(f) = file_at(d, n) {
                        v.inode_mut(f).mode = Mode(if m == 0 { 0o600 } else { 0o755 });
                        v.touch(f);
                    }
                }
            }
            for probe in PROBES {
                for &start in &pool {
                    for follow in [true, false] {
                        let resolve = |v: &Vfs| {
                            outcome(if follow {
                                v.resolve(start, probe)
                            } else {
                                v.resolve_nofollow(start, probe)
                            })
                        };
                        let cached = resolve(&v);
                        v.set_dcache_enabled(false);
                        let walked = resolve(&v);
                        v.set_dcache_enabled(true);
                        prop_assert_eq!(
                            cached, walked,
                            "{:?} from {:?} (follow {}) after {:?}", probe, start, follow, op
                        );
                    }
                }
            }
        }
    }
}
