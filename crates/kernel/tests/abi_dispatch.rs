//! The dispatch boundary, driven only through its public front end.
//! A sweep drives every [`Syscall`] variant through the [`Process`]
//! handle and checks that each returns its declared `SysRet` shape; the
//! rest exercises the interceptor stack: deterministic fault injection,
//! one-shot faults, per-class metering, and trace recording.

use sim_kernel::cred::{Credentials, Gid, Uid};
use sim_kernel::error::Errno;
use sim_kernel::kernel::Kernel;
use sim_kernel::lsm::NullLsm;
use sim_kernel::net::{Domain, Ipv4, Packet, Route, SimNet, SockType};
use sim_kernel::syscall::{
    FaultConfig, FaultInjector, Interceptor, IoctlCmd, IoctlOut, NetfilterOp, OpenFlags, RouteOp,
    SysCtx, SysRet, Syscall, SyscallMeter, Whence,
};
use sim_kernel::task::{NsKind, Pid};
use sim_kernel::trace::{AuditObject, DecisionKind, Hook, Provenance, TraceRecorder};
use sim_kernel::vfs::Mode;
use std::collections::BTreeSet;
use std::sync::{Arc, Mutex};

fn boot() -> (Kernel, Pid, Pid) {
    let k = Kernel::new(SimNet::new());
    let root = k.spawn_init();
    k.vfs.mkdir_p("/tmp").unwrap();
    k.vfs.mkdir_p("/mnt/cdrom").unwrap();
    let t = k.vfs.resolve(k.vfs.root(), "/tmp").unwrap().ino;
    k.vfs.inode_mut(t).mode = Mode(0o1777);
    k.install_standard_devices().unwrap();
    let user = k.spawn_session(Credentials::user(Uid(1000), Gid(1000)), "/bin/sh");
    (k, root, user)
}

/// Records the ABI index of every dispatched call, and the name and
/// errno of every call that failed.
#[derive(Default)]
struct Seen {
    calls: BTreeSet<usize>,
    failures: Vec<(&'static str, Errno)>,
}

struct SeenHook(Arc<Mutex<Seen>>);

impl Interceptor for SeenHook {
    fn name(&self) -> &'static str {
        "seen"
    }

    fn after(&self, _pid: Pid, call: &Syscall, ret: &SysRet, _ctx: &mut SysCtx<'_>) {
        let mut seen = self.0.lock().unwrap();
        seen.calls.insert(call.index());
        if let Some(e) = ret.err() {
            seen.failures.push((call.name(), e));
        }
    }
}

/// Drives all 46 `Syscall` variants through the [`Process`] handle and
/// returns the rendered audit stream. Each handle method unwraps the
/// response through its typed accessor, which panics on an ABI shape
/// mismatch, so a clean sweep proves every variant returns its declared
/// `SysRet` shape; the asserted values tell apart bodies that share a
/// shape (stat/lstat, getuid/geteuid).
fn sweep() -> Vec<String> {
    let (k, root, user) = boot();
    k.vfs
        .install_file("/bin/true", b"", Mode(0o755), Uid::ROOT, Gid::ROOT)
        .unwrap();
    let seen = Arc::new(Mutex::new(Seen::default()));
    k.push_interceptor(Box::new(SeenHook(seen.clone())));
    let (mut u, mut r) = (k.process(user), k.process(root));

    // ----- fs -----
    assert_eq!(u.mkdir("/tmp/d", Mode(0o755)), Ok(()));
    let fd = u
        .open("/tmp/d/f", OpenFlags::create_trunc(Mode(0o644)))
        .unwrap();
    assert_eq!(u.write(fd, b"hello, abi"), Ok(10));
    assert_eq!(u.lseek(fd, -4, Whence::Cur), Ok(6));
    let rd = u.open("/tmp/d/f", OpenFlags::read_only()).unwrap();
    assert_eq!(u.read(rd, 5).unwrap(), b"hello");
    assert_eq!(u.close(rd), Ok(()));
    assert_eq!(u.stat("/tmp/d/f").unwrap().size, 10);
    assert_eq!(u.symlink("/tmp/d/f", "/tmp/d/l"), Ok(()));
    // lstat names the link itself, stat follows it to the file.
    let (file, link) = (u.stat("/tmp/d/l").unwrap(), u.lstat("/tmp/d/l").unwrap());
    assert_eq!(file.ino, u.stat("/tmp/d/f").unwrap().ino);
    assert_ne!(link.ino, file.ino);
    assert_eq!(u.chmod("/tmp/d/f", Mode(0o600)), Ok(()));
    // chown: denied for the user, permitted for root.
    assert_eq!(
        u.chown("/tmp/d/f", Some(Uid::ROOT), None),
        Err(Errno::EPERM)
    );
    assert_eq!(r.chown("/tmp/d/f", None, Some(Gid(1000))), Ok(()));
    assert_eq!(u.readdir("/tmp/d").unwrap().len(), 2);
    assert_eq!(u.rename("/tmp/d/f", "/tmp/d/g"), Ok(()));
    assert_eq!(u.chdir("/tmp/d"), Ok(()));
    assert_eq!(u.close(fd), Ok(()));
    assert_eq!(u.unlink("/tmp/d/g"), Ok(()));
    assert_eq!(u.unlink("/tmp/d/l"), Ok(()));
    assert_eq!(u.chdir("/"), Ok(()));
    assert_eq!(u.rmdir("/tmp/d"), Ok(()));
    assert!(u.pipe().is_ok());

    // ----- id -----
    assert_eq!(u.setuid(Uid::ROOT), Err(Errno::EPERM));
    assert_eq!(u.seteuid(Uid(1000)), Ok(()));
    assert_eq!(u.setgid(Gid(1000)), Ok(()));
    assert_eq!(r.setgroups(&[Gid(0), Gid(24)]), Ok(()));
    assert_eq!(u.getgid(), Ok(Gid(1000)));
    // Distinct real, effective and group ids tell the getters apart.
    assert_eq!(r.seteuid(Uid(1000)), Ok(()));
    assert_eq!(r.setgid(Gid(24)), Ok(()));
    assert_eq!(r.getuid(), Ok(Uid::ROOT));
    assert_eq!(r.geteuid(), Ok(Uid(1000)));
    assert_eq!(r.getgid(), Ok(Gid(24)));
    assert_eq!(r.seteuid(Uid::ROOT), Ok(()));
    assert_eq!(r.geteuid(), Ok(Uid::ROOT));

    // ----- ioctl / mount -----
    assert_eq!(r.mount("/dev/cdrom", "/mnt/cdrom", "iso9660", "ro"), Ok(()));
    assert_eq!(r.umount("/mnt/cdrom"), Ok(()));
    let cdrom = r.open("/dev/cdrom", OpenFlags::read_only()).unwrap();
    assert_eq!(r.ioctl(cdrom, IoctlCmd::Eject), Ok(IoctlOut::None));

    // ----- net -----
    let srv = u.socket(Domain::Inet, SockType::Stream, 0).unwrap();
    assert_eq!(u.bind(srv, Ipv4::ANY, 9000), Ok(()));
    assert_eq!(u.listen(srv), Ok(()));
    let cli = u.socket(Domain::Inet, SockType::Stream, 0).unwrap();
    assert_eq!(u.connect(cli, Ipv4::LOOPBACK, 9000), Ok(()));
    let conn = u.accept(srv).unwrap();
    assert_eq!(u.send(cli, b"ping"), Ok(4));
    assert_eq!(u.recv(conn, 64).unwrap(), b"ping");
    let udp = u.socket(Domain::Inet, SockType::Dgram, 17).unwrap();
    assert_eq!(u.bind(udp, Ipv4::ANY, 5353), Ok(()));
    assert_eq!(u.sendto(udp, Ipv4::LOOPBACK, 5353, b"dgram"), Ok(5));
    assert_eq!(u.recv_packet(udp).unwrap().payload, b"dgram");
    let raw = r.socket(Domain::Inet, SockType::Raw, 1).unwrap();
    let probe = Packet::echo_request(Ipv4::LOOPBACK, Ipv4::LOOPBACK, 1, 1, Uid::ROOT);
    assert_eq!(r.send_packet(raw, probe), Ok(()));
    assert!(u.socketpair().is_ok());
    assert_eq!(r.netfilter(NetfilterOp::Flush), Ok(()));
    assert_eq!(u.netfilter_list(), Ok(Vec::new()));
    let route = Route {
        dest: Ipv4::new(10, 9, 0, 0),
        prefix: 16,
        gateway: None,
        dev: "lo".into(),
        created_by: Uid::ROOT,
    };
    assert_eq!(r.ioctl_route(RouteOp::Add(route)), Ok(()));
    let del = RouteOp::Del {
        dest: Ipv4::new(10, 9, 0, 0),
        prefix: 16,
    };
    assert_eq!(r.ioctl_route(del), Ok(()));

    // ----- process -----
    let child = r.fork().unwrap();
    let mut c = k.process(child);
    assert_eq!(c.execve("/bin/true").as_deref(), Ok("/bin/true"));
    assert_eq!(c.unshare(NsKind::Mount), Ok(()));
    assert_eq!(c.exit(7), Ok(()));
    assert_eq!(r.wait(child), Ok(7));

    let seen = seen.lock().unwrap();
    let missing: Vec<_> = (0..Syscall::NAMES.len())
        .filter(|i| !seen.calls.contains(i))
        .map(|i| Syscall::NAMES[i])
        .collect();
    assert!(missing.is_empty(), "variants not driven: {:?}", missing);
    assert_eq!(
        seen.failures,
        [("chown", Errno::EPERM), ("setuid", Errno::EPERM)],
        "only the two expected denials may fail"
    );
    k.audit.events().iter().map(|e| e.render()).collect()
}

/// The sweep covers every variant; its audit stream carries the
/// user's refused setuid and is a pure function of the call sequence.
#[test]
fn every_variant_returns_its_declared_shape() {
    let audit = sweep();
    let denials: Vec<_> = audit
        .iter()
        .filter(|l| l.contains("decision=deny"))
        .collect();
    assert_eq!(denials.len(), 1, "audit stream: {:#?}", audit);
    assert!(
        denials[0].contains("syscall=setuid hook=task_setuid")
            && denials[0].contains("errno=EPERM"),
        "{}",
        denials[0]
    );
    assert_eq!(audit, sweep(), "audit stream differs between runs");
}

/// Same seed + same call sequence → byte-identical injection pattern;
/// different seed → (almost surely) a different one.
#[test]
fn fault_injection_is_deterministic_under_a_fixed_seed() {
    let run = |seed: u64| -> Vec<bool> {
        let (k, _root, user) = boot();
        let inj = FaultInjector::new(FaultConfig::storm(seed, 10));
        let stats = inj.stats();
        k.push_interceptor(Box::new(inj));
        let pattern: Vec<bool> = (0..400)
            .map(|_| {
                k.dispatch(
                    user,
                    Syscall::Stat {
                        path: "/tmp".into(),
                    },
                )
                .is_err()
            })
            .collect();
        let s = stats.lock().unwrap();
        assert_eq!(s.seen, 400);
        assert!(s.injected > 0, "a 1-in-10 storm over 400 calls must fire");
        assert_eq!(s.injected, pattern.iter().filter(|&&b| b).count() as u64);
        pattern
    };
    let a = run(42);
    let b = run(42);
    let c = run(43);
    assert_eq!(a, b, "same seed must reproduce the same fault pattern");
    assert_ne!(a, c, "different seeds should perturb the fault pattern");
}

/// An injected fault is observable on the audit stream, attributed to
/// the interceptor, and never touches the credential getters.
#[test]
fn injected_faults_are_audited_and_getters_are_exempt() {
    let (k, _root, user) = boot();
    // rate 1 = inject on every eligible call.
    k.push_interceptor(Box::new(FaultInjector::new(FaultConfig::storm(7, 1))));
    let ret = k.dispatch(
        user,
        Syscall::Stat {
            path: "/tmp".into(),
        },
    );
    assert!(ret.is_err(), "rate-1 storm must fail the first fs call");
    let last = k.audit.last().expect("injection emits an audit event");
    assert!(
        last.contains("injected") && last.contains("fault_injector"),
        "audit event should attribute the fault: {}",
        last.render()
    );
    // Credential getters are exempt even at rate 1 — a vulnerable binary
    // must always be able to ask who it is.
    assert!(k.dispatch(user, Syscall::Getuid).uid().is_ok());
    assert!(k.dispatch(user, Syscall::Geteuid).uid().is_ok());
    assert!(k.dispatch(user, Syscall::Getgid).gid().is_ok());
}

/// The one-shot plan fails exactly the k-th occurrence of the named
/// syscall — here, the second mount — and nothing else.
#[test]
fn one_shot_fails_exactly_the_kth_mount() {
    let (mut k, root, _user) = boot();
    k.push_interceptor(Box::new(FaultInjector::new(
        FaultConfig::default().with_one_shot("mount", 2, Errno::EIO),
    )));
    let mount = |k: &mut Kernel| {
        k.dispatch(
            root,
            Syscall::Mount {
                source: "/dev/cdrom".into(),
                target: "/mnt/cdrom".into(),
                fstype: "iso9660".into(),
                options: "ro".into(),
            },
        )
        .unit()
    };
    let umount = |k: &mut Kernel| {
        k.dispatch(
            root,
            Syscall::Umount {
                target: "/mnt/cdrom".into(),
            },
        )
        .unit()
    };
    assert_eq!(mount(&mut k), Ok(()), "first mount is untouched");
    assert_eq!(umount(&mut k), Ok(()));
    assert_eq!(
        mount(&mut k),
        Err(Errno::EIO),
        "second mount takes the one-shot"
    );
    assert_eq!(mount(&mut k), Ok(()), "third mount is untouched again");
    assert_eq!(umount(&mut k), Ok(()));
}

/// A consumed one-shot must stay consumed across an injector
/// replace/rebuild cycle (the exec re-selection pattern): umount/remount
/// churn after the swap may not re-fire "fail the 2nd mount". The
/// consumption flag rides in the shared [`FaultStats`], which
/// [`FaultInjector::resuming`] carries into the replacement.
#[test]
fn consumed_one_shot_cannot_rearm_across_reselection() {
    let (k, root, _user) = boot();
    let config = FaultConfig::default().with_one_shot("mount", 2, Errno::EIO);
    let injector = FaultInjector::resuming(
        config.clone(),
        std::sync::Arc::new(std::sync::Mutex::new(Default::default())),
    );
    let stats = injector.stats();
    let slot = k.register_interceptor(Box::new(injector));

    let mount = |k: &Kernel| {
        k.dispatch(
            root,
            Syscall::Mount {
                source: "/dev/cdrom".into(),
                target: "/mnt/cdrom".into(),
                fstype: "iso9660".into(),
                options: "ro".into(),
            },
        )
        .unit()
    };
    let umount = |k: &Kernel| {
        k.dispatch(
            root,
            Syscall::Umount {
                target: "/mnt/cdrom".into(),
            },
        )
        .unit()
    };

    // Mount/umount churn up to the one-shot: the 2nd mount takes it.
    assert_eq!(mount(&k), Ok(()));
    assert_eq!(umount(&k), Ok(()));
    assert_eq!(
        mount(&k),
        Err(Errno::EIO),
        "second mount takes the one-shot"
    );
    assert_eq!(stats.lock().unwrap().one_shots_fired, vec![true]);

    // Disable/enable churn on the slot must not reset consumption.
    assert!(k.set_interceptor_enabled(slot, false));
    assert_eq!(mount(&k), Ok(()));
    assert_eq!(umount(&k), Ok(()));
    assert!(k.set_interceptor_enabled(slot, true));

    // Exec re-selection: the injector object is rebuilt from the same
    // config and swapped into the slot. Resuming the stats handle keeps
    // the one-shot consumed even though the replacement's occurrence
    // counter restarts (its own 2nd mount would otherwise match k=2).
    assert!(k.replace_interceptor(
        slot,
        Box::new(FaultInjector::resuming(config, stats.clone()))
    ));
    for _ in 0..4 {
        assert_eq!(mount(&k), Ok(()), "consumed one-shot must not re-fire");
        assert_eq!(umount(&k), Ok(()));
    }
    let s = stats.lock().unwrap();
    assert_eq!(s.injected, 1, "exactly one injection across both lives");
    assert_eq!(s.one_shots_fired, vec![true]);
}

/// The meter feeds per-class counters into the kernel metrics registry,
/// which renders them as `syscall_class_*` lines.
#[test]
fn meter_renders_per_class_metrics_lines() {
    let (k, root, user) = boot();
    k.push_interceptor(Box::new(SyscallMeter::new()));
    let _ = k.dispatch(
        user,
        Syscall::Stat {
            path: "/tmp".into(),
        },
    );
    let _ = k.dispatch(user, Syscall::Getuid);
    let _ = k.dispatch(
        root,
        Syscall::Mount {
            source: "/dev/cdrom".into(),
            target: "/mnt/cdrom".into(),
            fstype: "iso9660".into(),
            options: "ro".into(),
        },
    );
    let _ = k.dispatch(
        user,
        Syscall::Stat {
            path: "/nope".into(),
        },
    );
    let rendered = k.metrics_snapshot().render();
    assert!(
        rendered.contains("syscall_class_fs calls=2 errors=1"),
        "fs class line missing or wrong: {}",
        rendered
    );
    assert!(
        rendered.contains("syscall_class_id calls=1"),
        "{}",
        rendered
    );
    assert!(
        rendered.contains("syscall_class_mount calls=1"),
        "{}",
        rendered
    );
}

/// A recorder attached to a run captures the full (pid, call, ret)
/// stream; a second identical run replays it byte-for-byte.
#[test]
fn recorded_trace_replays_byte_identically() {
    let drive = |k: &mut Kernel, user: Pid| {
        let _ = k.dispatch(
            user,
            Syscall::Mkdir {
                path: "/tmp/t".into(),
                mode: Mode(0o755),
            },
        );
        let fd = k
            .dispatch(
                user,
                Syscall::Open {
                    path: "/tmp/t/x".into(),
                    flags: OpenFlags::create_trunc(Mode(0o644)),
                },
            )
            .fd()
            .unwrap();
        let _ = k.dispatch(
            user,
            Syscall::Write {
                fd,
                data: b"trace me".to_vec(),
            },
        );
        let _ = k.dispatch(user, Syscall::Close { fd });
        let _ = k.dispatch(user, Syscall::Getuid);
        let _ = k.dispatch(
            user,
            Syscall::Stat {
                path: "/tmp/t/x".into(),
            },
        );
    };

    let (mut k1, _r1, u1) = boot();
    let rec = TraceRecorder::new();
    let trace1 = rec.trace();
    k1.push_interceptor(Box::new(rec));
    drive(&mut k1, u1);
    let rendered = trace1.lock().unwrap().render();
    assert!(!trace1.lock().unwrap().is_empty());

    // Re-run from scratch: identical bytes.
    let (mut k2, _r2, u2) = boot();
    let rec2 = TraceRecorder::new();
    let trace2 = rec2.trace();
    k2.push_interceptor(Box::new(rec2));
    drive(&mut k2, u2);
    assert_eq!(rendered, trace2.lock().unwrap().render());

    // And the serialized form round-trips.
    let parsed = sim_kernel::trace::Trace::parse(&rendered).unwrap();
    assert_eq!(parsed.first_divergence(&trace2.lock().unwrap()), None);
}

/// Regression: the `/proc/<lsm>/audit` header printed a sequence counter
/// that never advanced (`next_seq=0` however many events were emitted).
/// Read through `dispatch` as root, it now reports the next sequence
/// number: one past the last event emitted, stored or trace-gated.
#[test]
fn audit_header_reports_the_next_sequence_number() {
    const N: u64 = 5;
    let (k, root, _user) = boot();
    k.register_lsm(Box::new(NullLsm)).unwrap();
    let fd = k
        .dispatch(
            root,
            Syscall::Open {
                path: "/proc/null/audit".into(),
                flags: OpenFlags::read_only(),
            },
        )
        .fd()
        .unwrap();
    let base = k.audit.next_seq();
    for _ in 0..N {
        k.emit_event(
            0,
            "test",
            AuditObject::None,
            Provenance::kernel(Hook::SbMount, DecisionKind::Deny, Some(Errno::EPERM)),
            "denied".into(),
        );
    }
    let data = k
        .dispatch(root, Syscall::Read { fd, count: 1 << 20 })
        .data()
        .unwrap();
    k.dispatch(root, Syscall::Close { fd }).unit().unwrap();
    let text = String::from_utf8(data).unwrap();
    let header = text.lines().next().unwrap();
    assert!(
        header.ends_with(&format!(" next_seq={}", base + N)),
        "{header}"
    );
    // Every emitted event took a sequence number and was counted.
    assert_eq!(k.metrics_snapshot().events, base + N);
}
