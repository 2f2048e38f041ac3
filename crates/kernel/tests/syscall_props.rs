//! Property tests over the syscall layer: totality under random
//! operation sequences and DAC consistency.

use proptest::prelude::*;
use sim_kernel::cred::{Credentials, Gid, Uid};
use sim_kernel::kernel::Kernel;
use sim_kernel::net::SimNet;
use sim_kernel::syscall::{OpenFlags, Whence};
use sim_kernel::task::Pid;
use sim_kernel::vfs::Mode;

fn boot() -> (Kernel, Pid, Pid) {
    let k = Kernel::new(SimNet::new());
    let root = k.spawn_init();
    k.vfs.mkdir_p("/tmp").unwrap();
    let t = k.vfs.resolve(k.vfs.root(), "/tmp").unwrap().ino;
    k.vfs.inode_mut(t).mode = Mode(0o1777);
    let user = k.spawn_session(Credentials::user(Uid(1000), Gid(1000)), "/bin/sh");
    (k, root, user)
}

/// One random syscall-ish operation.
#[derive(Clone, Debug)]
enum Op {
    Open(u8, bool),
    Close(i32),
    Read(i32),
    Write(i32),
    Lseek(i32, usize),
    Unlink(u8),
    Mkdir(u8),
    Fork,
    Pipe,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u8..5, any::<bool>()).prop_map(|(n, w)| Op::Open(n, w)),
        (0i32..8).prop_map(Op::Close),
        (0i32..8).prop_map(Op::Read),
        (0i32..8).prop_map(Op::Write),
        (0i32..8, 0usize..64).prop_map(|(f, o)| Op::Lseek(f, o)),
        (0u8..5).prop_map(Op::Unlink),
        (0u8..5).prop_map(Op::Mkdir),
        Just(Op::Fork),
        Just(Op::Pipe),
    ]
}

proptest! {
    /// Any interleaving of file/process operations leaves the kernel in a
    /// self-consistent state — no panics, and the DAC invariant holds at
    /// the end: a freshly created root-only file is unreadable by the
    /// user.
    #[test]
    fn random_syscall_sequences_are_safe(ops in prop::collection::vec(op_strategy(), 0..40)) {
        let (k, root, user) = boot();
        let mut forks: Vec<Pid> = Vec::new();
        for op in ops {
            match op {
                Op::Open(n, w) => {
                    let flags = if w {
                        OpenFlags::create_trunc(Mode(0o600))
                    } else {
                        OpenFlags::read_only()
                    };
                    let _ = k.process(user).open(&format!("/tmp/f{}", n), flags);
                }
                Op::Close(fd) => { let _ = k.process(user).close(fd); }
                Op::Read(fd) => { let _ = k.process(user).read(fd, 16); }
                Op::Write(fd) => { let _ = k.process(user).write(fd, b"xyz"); }
                Op::Lseek(fd, o) => { let _ = k.process(user).lseek(fd, o as i64, Whence::Set); }
                Op::Unlink(n) => { let _ = k.process(user).unlink(&format!("/tmp/f{}", n)); }
                Op::Mkdir(n) => { let _ = k.process(user).mkdir(&format!("/tmp/d{}", n), Mode(0o755)); }
                Op::Fork => {
                    if forks.len() < 4 {
                        if let Ok(c) = k.process(user).fork() { forks.push(c); }
                    }
                }
                Op::Pipe => { let _ = k.process(user).pipe(); }
            }
        }
        for c in forks {
            k.process(c).exit(0).unwrap();
            k.process(user).wait(c).unwrap();
        }
        // Post-conditions.
        k.process(root).write_file("/tmp/rootfile", b"secret", Mode(0o600)).unwrap();
        prop_assert!(k.process(user).read_file("/tmp/rootfile").is_err());
        prop_assert!(k.process(root).read_file("/tmp/rootfile").is_ok());
    }

    /// DAC truth table: the owner/group/other bits decide exactly.
    #[test]
    fn dac_truth_table(bits in 0u32..0o777, as_owner in any::<bool>()) {
        let (k, root, user) = boot();
        let owner = if as_owner { Uid(1000) } else { Uid::ROOT };
        k.vfs.install_file("/tmp/probe", b"x", Mode(bits), owner, Gid(4242)).unwrap();
        let _ = root;
        let can_read = k.process(user).read_file("/tmp/probe").is_ok();
        let relevant = if as_owner { (bits >> 6) & 4 } else { bits & 4 };
        prop_assert_eq!(can_read, relevant != 0);
        let can_write = k.process(user).append_file("/tmp/probe", b"y").is_ok();
        let relevant = if as_owner { (bits >> 6) & 2 } else { bits & 2 };
        prop_assert_eq!(can_write, relevant != 0);
    }

    /// chmod by the owner always round-trips the mode bits.
    #[test]
    fn chmod_roundtrip(bits in 0u32..0o7777) {
        let (k, _root, user) = boot();
        k.process(user).write_file("/tmp/own", b"", Mode(0o600)).unwrap();
        k.process(user).chmod("/tmp/own", Mode(bits)).unwrap();
        prop_assert_eq!(k.process(user).stat("/tmp/own").unwrap().mode, Mode(bits));
    }

    /// fork/exit/wait always balances the task table.
    #[test]
    fn task_table_balances(n in 0usize..10) {
        let (k, _root, user) = boot();
        let before = k.task_count();
        let kids: Vec<Pid> = (0..n).filter_map(|_| k.process(user).fork().ok()).collect();
        prop_assert_eq!(k.task_count(), before + kids.len());
        for c in kids {
            k.process(c).exit(0).unwrap();
            prop_assert_eq!(k.process(user).wait(c).unwrap(), 0);
        }
        prop_assert_eq!(k.task_count(), before);
    }

    /// Ephemeral binds never collide and always land in the dynamic range.
    #[test]
    fn ephemeral_ports_unique(n in 1usize..30) {
        use sim_kernel::net::{Domain, Ipv4, SockType};
        let (k, _root, user) = boot();
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..n {
            let fd = k.process(user).socket(Domain::Inet, SockType::Dgram, 0).unwrap();
            k.process(user).bind(fd, Ipv4::ANY, 0).unwrap();
            // Find the bound port through the task's socket.
            let sid = match k.task(user).unwrap().fd(fd).unwrap().object {
                sim_kernel::task::FdObject::Socket(s) => s,
                _ => unreachable!(),
            };
            let port = k.net.read().get(sid).unwrap().bound.unwrap().1;
            prop_assert!(port >= 32768);
            prop_assert!(seen.insert(port), "duplicate ephemeral port");
        }
    }
    /// Any random operation sequence under an aggressive errno storm is
    /// total (no panics) and leaves DAC intact: injected faults may fail
    /// calls, but never grant anything.
    #[test]
    fn errno_storm_never_panics_or_corrupts_dac(
        ops in prop::collection::vec(op_strategy(), 0..40),
        seed in any::<u64>(),
    ) {
        use sim_kernel::syscall::{FaultConfig, FaultInjector, Syscall};
        let (k, root, user) = boot();
        k.push_interceptor(Box::new(FaultInjector::new(FaultConfig::storm(seed, 3))));
        for op in ops {
            match op {
                Op::Open(n, w) => {
                    let flags = if w {
                        OpenFlags::create_trunc(Mode(0o600))
                    } else {
                        OpenFlags::read_only()
                    };
                    let _ = k.dispatch(user, Syscall::Open { path: format!("/tmp/f{}", n), flags });
                }
                Op::Close(fd) => { let _ = k.dispatch(user, Syscall::Close { fd }); }
                Op::Read(fd) => { let _ = k.dispatch(user, Syscall::Read { fd, count: 16 }); }
                Op::Write(fd) => {
                    let _ = k.dispatch(user, Syscall::Write { fd, data: b"xyz".to_vec() });
                }
                Op::Lseek(fd, o) => {
                    let _ = k.dispatch(
                        user,
                        Syscall::Lseek { fd, offset: o as i64, whence: Whence::Set },
                    );
                }
                Op::Unlink(n) => {
                    let _ = k.dispatch(user, Syscall::Unlink { path: format!("/tmp/f{}", n) });
                }
                Op::Mkdir(n) => {
                    let _ = k.dispatch(
                        user,
                        Syscall::Mkdir { path: format!("/tmp/d{}", n), mode: Mode(0o755) },
                    );
                }
                Op::Fork => {
                    if let Ok(c) = k.dispatch(user, Syscall::Fork).pid() {
                        let _ = k.dispatch(c, Syscall::Exit { status: 0 });
                        let _ = k.dispatch(user, Syscall::Wait { child: c });
                    }
                }
                Op::Pipe => { let _ = k.dispatch(user, Syscall::Pipe); }
            }
        }
        // DAC survives the storm: root's private file stays private.
        k.clear_interceptors();
        k.process(root).write_file("/tmp/rootfile", b"secret", Mode(0o600)).unwrap();
        prop_assert!(k.process(user).read_file("/tmp/rootfile").is_err());
        prop_assert!(k.process(root).read_file("/tmp/rootfile").is_ok());
    }
}

// ---------------------------------------------------------------------
// Classic unlink-while-open semantics (deterministic, not property).
// ---------------------------------------------------------------------

#[test]
fn open_unlinked_file_survives_until_close() {
    let (k, _root, user) = boot();
    k.process(user)
        .write_file("/tmp/ghost", b"still here", Mode(0o600))
        .unwrap();
    let fd = k
        .process(user)
        .open("/tmp/ghost", OpenFlags::read_only())
        .unwrap();
    k.process(user).unlink("/tmp/ghost").unwrap();
    // The name is gone...
    assert!(k.process(user).stat("/tmp/ghost").is_err());
    // ...but the open description still reads the data.
    assert_eq!(k.process(user).read(fd, 64).unwrap(), b"still here");
    k.process(user).close(fd).unwrap();
}

#[test]
fn reclaimed_slot_reuse_does_not_leak_content() {
    let (k, _root, user) = boot();
    k.process(user)
        .write_file("/tmp/secret", b"TOPSECRET", Mode(0o600))
        .unwrap();
    k.process(user).unlink("/tmp/secret").unwrap();
    // The next allocation may reuse the slot; a fresh empty file must not
    // expose the old bytes.
    k.process(user)
        .write_file("/tmp/fresh", b"", Mode(0o644))
        .unwrap();
    assert_eq!(k.process(user).read_file("/tmp/fresh").unwrap(), b"");
}

#[test]
fn fork_shares_open_description_refcount() {
    let (k, _root, user) = boot();
    k.process(user)
        .write_file("/tmp/shared", b"x", Mode(0o600))
        .unwrap();
    let fd = k
        .process(user)
        .open("/tmp/shared", OpenFlags::read_only())
        .unwrap();
    let child = k.process(user).fork().unwrap();
    k.process(user).unlink("/tmp/shared").unwrap();
    // Parent closes; the child's duplicate keeps the inode alive.
    k.process(user).close(fd).unwrap();
    assert_eq!(k.process(child).read(fd, 4).unwrap(), b"x");
    k.process(child).exit(0).unwrap();
    k.process(user).wait(child).unwrap();
}
