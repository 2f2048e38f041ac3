//! End-to-end coverage for the auto-seccomp subsystem (DESIGN.md §15):
//! the `/proc/seccomp/*` control plane driven through the real
//! open/read/write path, enforcement and the typed interceptor-slot
//! lifecycle through `Kernel::dispatch`, per-pid profile re-selection
//! across `execve`, the `Syscall::NAMES`/`Syscall::index` invariant the
//! flat action tables rely on, and a differential property test that
//! `enforce` behaves exactly as `complain` predicts (the
//! [`Trace::first_divergence`] oracle).

use proptest::prelude::*;
use sim_kernel::cred::{Credentials, Gid, Uid};
use sim_kernel::error::Errno;
use sim_kernel::kernel::Kernel;
use sim_kernel::net::SimNet;
use sim_kernel::seccomp::{ProfileSpec, Seccomp, SeccompInterceptor, SeccompMode};
use sim_kernel::syscall::{OpenFlags, Syscall};
use sim_kernel::task::Pid;
use sim_kernel::trace::TraceRecorder;
use sim_kernel::vfs::Mode;

fn boot() -> (Kernel, Pid, Pid) {
    let k = Kernel::new(SimNet::new());
    let root = k.spawn_init();
    k.vfs.mkdir_p("/tmp").unwrap();
    let t = k.vfs.resolve(k.vfs.root(), "/tmp").unwrap().ino;
    k.vfs.inode_mut(t).mode = Mode(0o1777);
    k.install_standard_devices().unwrap();
    let user = k.spawn_session(Credentials::user(Uid(1000), Gid(1000)), "/bin/sh");
    (k, root, user)
}

/// Arms the kernel's own seccomp control block with `specs` in `mode`
/// and puts its interceptor on the dispatch chain.
fn arm(
    k: &Kernel,
    specs: &[ProfileSpec],
    mode: SeccompMode,
) -> sim_kernel::kernel::InterceptorSlot {
    k.seccomp.load_profiles(specs).unwrap();
    k.seccomp.set_mode(mode);
    k.register_interceptor(Box::new(SeccompInterceptor::new(k.seccomp.clone())))
}

// ---------------------------------------------------------------------
// /proc/seccomp/* control plane through the real syscall path
// ---------------------------------------------------------------------

/// Root drives the whole lifecycle through file syscalls: load profiles,
/// switch mode, observe violations, clear the log — and reads always
/// reflect the control block's current state.
#[test]
fn proc_nodes_drive_the_full_lifecycle_as_root() {
    let (k, root, user) = boot();
    let mut r = k.process(root);
    assert!(k
        .read_to_string(root, "/proc/seccomp/status")
        .unwrap()
        .contains("mode: off"));

    // Load two profiles through the node, then read them back: the
    // written grammar and the rendered node must agree.
    let text = "# test profiles\n\
                profile /bin/sh default=deny(EPERM) allow=stat,getuid\n\
                profile /sbin/strict default=kill allow=exit\n";
    let fd = r
        .open("/proc/seccomp/profiles", OpenFlags::write_only())
        .unwrap();
    r.write(fd, text.as_bytes()).unwrap();
    r.close(fd).unwrap();
    assert_eq!(k.seccomp.profile_count(), 2);
    let rendered = k.read_to_string(root, "/proc/seccomp/profiles").unwrap();
    assert_eq!(
        Seccomp::parse_profiles_text(&rendered).unwrap(),
        k.seccomp.profiles()
    );
    assert!(rendered.contains("default=kill"));

    // Mode switch through the status node, then one enforced denial.
    let fd = r
        .open("/proc/seccomp/status", OpenFlags::write_only())
        .unwrap();
    r.write(fd, b"enforce").unwrap();
    r.close(fd).unwrap();
    assert_eq!(k.seccomp.mode(), SeccompMode::Enforce);
    k.register_interceptor(Box::new(SeccompInterceptor::new(k.seccomp.clone())));
    assert_eq!(k.dispatch(user, Syscall::Pipe).fd_pair(), Err(Errno::EPERM));
    let log = k.read_to_string(root, "/proc/seccomp/violations").unwrap();
    assert!(log.contains("pipe") && log.contains("denied"), "{log}");
    let status = k.read_to_string(root, "/proc/seccomp/status").unwrap();
    assert!(status.contains("mode: enforce") && status.contains("profiles: 2"));

    // `clear` empties the log; garbage writes are EINVAL.
    let fd = r
        .open("/proc/seccomp/violations", OpenFlags::write_only())
        .unwrap();
    r.write(fd, b"clear").unwrap();
    assert_eq!(r.write(fd, b"bogus"), Err(Errno::EINVAL));
    r.close(fd).unwrap();
    assert_eq!(k.seccomp.total_violations(), 0);
    let fd = r
        .open("/proc/seccomp/status", OpenFlags::write_only())
        .unwrap();
    assert_eq!(r.write(fd, b"sideways"), Err(Errno::EINVAL));
    r.close(fd).unwrap();
    // Bad profile text rejects the whole write and keeps the old table.
    let fd = r
        .open("/proc/seccomp/profiles", OpenFlags::write_only())
        .unwrap();
    assert_eq!(
        r.write(fd, b"profile /bin/x allow=frobnicate"),
        Err(Errno::EINVAL)
    );
    r.close(fd).unwrap();
    assert_eq!(k.seccomp.profile_count(), 2);
}

/// The nodes are 0600 root-owned: an unprivileged open — read or write —
/// dies at DAC with `EACCES` before any profile state can leak.
#[test]
fn proc_nodes_refuse_unprivileged_opens() {
    let (k, _root, user) = boot();
    for node in [
        "/proc/seccomp/profiles",
        "/proc/seccomp/status",
        "/proc/seccomp/violations",
    ] {
        assert_eq!(
            k.process(user)
                .open(node, OpenFlags::read_only())
                .unwrap_err(),
            Errno::EACCES,
            "{node} readable by non-root"
        );
        assert_eq!(
            k.process(user)
                .open(node, OpenFlags::write_only())
                .unwrap_err(),
            Errno::EACCES,
            "{node} writable by non-root"
        );
    }
}

/// An fd opened as root but used after a credential drop re-checks euid
/// at write time: the write fails `EPERM` and files an audit event, so a
/// leaked control-plane fd cannot rewrite allowlists.
#[test]
fn leaked_fd_after_cred_drop_gets_audited_eperm() {
    let (k, root, _user) = boot();
    let child = k.process(root).fork().unwrap();
    let mut c = k.process(child);
    let fd = c
        .open("/proc/seccomp/status", OpenFlags::write_only())
        .unwrap();
    c.setuid(Uid(1000)).unwrap();
    assert_eq!(c.write(fd, b"off"), Err(Errno::EPERM));
    let last = k.audit.last().expect("refused write files an event");
    assert!(
        last.contains("seccomp: non-root write"),
        "missing audit attribution: {}",
        last.render()
    );
    c.close(fd).unwrap();
    c.exit(0).unwrap();
    k.process(root).wait(child).unwrap();
}

// ---------------------------------------------------------------------
// Enforcement + slot lifecycle through dispatch
// ---------------------------------------------------------------------

/// The typed slot API gates enforcement live: disable lets calls
/// through, re-enable denies again, replacing the interceptor in place
/// swaps the policy without disturbing the chain, and removal ends it.
#[test]
fn slot_lifecycle_controls_enforcement_through_dispatch() {
    let (k, _root, user) = boot();
    let slot = arm(
        &k,
        &[ProfileSpec::allowing("/bin/sh", &["stat", "getuid"])],
        SeccompMode::Enforce,
    );
    let stat = || Syscall::Stat {
        path: "/tmp".into(),
    };
    assert!(k.dispatch(user, stat()).stat().is_ok());
    assert_eq!(k.dispatch(user, Syscall::Pipe).fd_pair(), Err(Errno::EPERM));
    // The denial is audited with the short-circuit rule carrying the
    // interceptor, the syscall name, and its class.
    let last = k.audit.last().unwrap().render();
    assert!(
        last.contains("seccomp:pipe:fs"),
        "deny rule should name interceptor, call, and class: {last}"
    );

    assert!(k.set_interceptor_enabled(slot, false));
    assert!(k.dispatch(user, Syscall::Pipe).fd_pair().is_ok());
    assert!(k.set_interceptor_enabled(slot, true));
    assert_eq!(k.dispatch(user, Syscall::Pipe).fd_pair(), Err(Errno::EPERM));

    // In-place replacement with an unrelated (empty ⇒ unconfining)
    // control block: the pid is immediately unconfined.
    assert!(k.replace_interceptor(slot, Box::new(SeccompInterceptor::new(Seccomp::new()))));
    assert!(k.dispatch(user, Syscall::Pipe).fd_pair().is_ok());
    assert!(k.replace_interceptor(slot, Box::new(SeccompInterceptor::new(k.seccomp.clone()))));
    assert_eq!(k.dispatch(user, Syscall::Pipe).fd_pair(), Err(Errno::EPERM));

    assert!(k.remove_interceptor(slot));
    assert!(k.dispatch(user, Syscall::Pipe).fd_pair().is_ok());
    assert!(!k.remove_interceptor(slot), "slot is gone");
}

/// `execve` re-selects the profile: the exec itself is judged under the
/// old image's allowlist, everything after under the new one.
#[test]
fn execve_reselects_the_profile_end_to_end() {
    let (k, _root, _user) = boot();
    k.vfs.mkdir_p("/bin").unwrap();
    k.vfs
        .install_file("/bin/a", b"", Mode(0o755), Uid::ROOT, Gid::ROOT)
        .unwrap();
    k.vfs
        .install_file("/bin/b", b"", Mode(0o755), Uid::ROOT, Gid::ROOT)
        .unwrap();
    let task = k.spawn_session(Credentials::user(Uid(1000), Gid(1000)), "/bin/a");
    arm(
        &k,
        &[
            ProfileSpec::allowing("/bin/a", &["getuid", "execve"]),
            ProfileSpec::allowing("/bin/b", &["pipe"]),
        ],
        SeccompMode::Enforce,
    );
    assert!(k.dispatch(task, Syscall::Getuid).uid().is_ok());
    assert_eq!(k.dispatch(task, Syscall::Pipe).fd_pair(), Err(Errno::EPERM));
    assert_eq!(
        k.dispatch(
            task,
            Syscall::Execve {
                path: "/bin/b".into()
            }
        )
        .path(),
        Ok("/bin/b".to_string())
    );
    // Same pid, new image: /bin/b's allowlist applies from the next call.
    assert!(k.dispatch(task, Syscall::Pipe).fd_pair().is_ok());
    assert_eq!(k.dispatch(task, Syscall::Getuid).uid(), Err(Errno::EPERM));
    // An exec *not* in the current allowlist is itself denied.
    assert_eq!(
        k.dispatch(
            task,
            Syscall::Execve {
                path: "/bin/a".into()
            }
        )
        .path(),
        Err(Errno::EPERM)
    );
}

// ---------------------------------------------------------------------
// The NAMES/index contract the flat action tables index by
// ---------------------------------------------------------------------

/// `Syscall::NAMES[c.index()] == c.name()` and `name_index` is its
/// inverse — the invariant that makes a compiled profile's
/// `[Action; COUNT]` array and the exchange grammar agree.
#[test]
fn names_index_and_name_index_agree() {
    assert_eq!(Syscall::NAMES.len(), Syscall::COUNT);
    for (i, name) in Syscall::NAMES.iter().enumerate() {
        assert_eq!(Syscall::name_index(name), Some(i), "name {name}");
    }
    assert_eq!(Syscall::name_index("frobnicate"), None);
    // Spot-check one constructed variant per class.
    let samples: Vec<Syscall> = vec![
        Syscall::Stat { path: "/".into() },
        Syscall::Getuid,
        Syscall::Ioctl {
            fd: 0,
            cmd: sim_kernel::syscall::IoctlCmd::Eject,
        },
        Syscall::Umount { target: "/".into() },
        Syscall::Socketpair,
        Syscall::Fork,
    ];
    for c in samples {
        assert_eq!(Syscall::NAMES[c.index()], c.name(), "variant {:?}", c);
        assert_eq!(Syscall::name_index(c.name()), Some(c.index()));
    }
}

// ---------------------------------------------------------------------
// Differential property: enforce ≡ what complain predicts
// ---------------------------------------------------------------------

/// The read-only operation pool the property drives. Every op is free of
/// side effects visible to later ops, so a call that runs under
/// `complain` but is denied under `enforce` cannot make any *other*
/// entry diverge — the only legal differences are the substituted error
/// returns at the violation positions themselves.
const POOL: usize = 8;

fn pool_call(i: usize) -> Syscall {
    match i % POOL {
        0 => Syscall::Stat {
            path: "/tmp".into(),
        },
        1 => Syscall::Stat {
            path: "/nope".into(),
        },
        2 => Syscall::Lstat {
            path: "/tmp".into(),
        },
        3 => Syscall::Readdir { path: "/".into() },
        4 => Syscall::Getuid,
        5 => Syscall::Geteuid,
        6 => Syscall::Getgid,
        _ => Syscall::NetfilterList,
    }
}

proptest! {
    /// Run one random call sequence twice from identical boots — once in
    /// `complain`, once in `enforce`, same random allowlist — and build
    /// the predicted enforcement trace from the complain run by
    /// substituting `Err(EPERM)` at exactly the violation positions.
    /// Oracle: [`sim_kernel::trace::Trace::first_divergence`] between
    /// prediction and the real enforced trace is `None`, and both runs
    /// agree on the violation count.
    #[test]
    fn enforce_matches_the_complain_prediction(
        ops in prop::collection::vec(0usize..POOL, 1..60),
        allow_mask in 0u8..=255,
    ) {
        // Random allowlist over the pool's distinct syscall names.
        let pool_names: Vec<&'static str> =
            (0..POOL).map(|i| pool_call(i).name()).collect();
        let allow: Vec<&str> = pool_names
            .iter()
            .enumerate()
            .filter(|(i, _)| allow_mask >> i & 1 == 1)
            .map(|(_, n)| *n)
            .collect();
        let spec = ProfileSpec::allowing("/bin/sh", &allow);

        let run = |mode: SeccompMode| {
            let (k, _root, user) = boot();
            let rec = TraceRecorder::new();
            let trace = rec.trace();
            k.register_interceptor(Box::new(rec));
            arm(&k, std::slice::from_ref(&spec), mode);
            for &i in &ops {
                let _ = k.dispatch(user, pool_call(i));
            }
            let t = trace.lock().unwrap().clone();
            (t, k.seccomp.total_violations())
        };
        let (complain_trace, complain_violations) = run(SeccompMode::Complain);
        let (enforced_trace, enforced_violations) = run(SeccompMode::Enforce);

        // Prediction: every op whose name is outside the allowlist is a
        // violation; under enforce its entry returns the deny errno.
        let mut predicted = complain_trace.clone();
        let mut expected_violations = 0u64;
        for (entry, &i) in predicted.entries.iter_mut().zip(&ops) {
            if !allow.contains(&pool_call(i).name()) {
                entry.ret = format!("{:?}", sim_kernel::syscall::SysRet::Err(Errno::EPERM));
                expected_violations += 1;
            }
        }
        prop_assert_eq!(complain_violations, expected_violations);
        prop_assert_eq!(enforced_violations, expected_violations);
        prop_assert_eq!(
            predicted.first_divergence(&enforced_trace),
            None,
            "complain trace:\n{}\nenforced trace:\n{}",
            complain_trace.render(),
            enforced_trace.render()
        );
    }
}
