//! Shared-kernel concurrency stress: 8 worker threads hammer *one*
//! kernel through [`System::worker_view`] handles with a mixed fs/id/net
//! workload under a seeded 1% errno storm. The run must complete with
//! zero panics and zero privileged artifacts, and the VFS namespace
//! property invariants — resolution terminates, live inodes are
//! root-reachable at their own paths — must hold after the churn. A
//! second test runs atomic-replace mail delivery next to a reader of the
//! spool and of a sibling directory on the same kernel.

use protego::kernel::error::Errno;
use protego::kernel::net::{Domain, Ipv4, SockType};
use protego::kernel::syscall::FaultConfig;
use protego::kernel::vfs::Mode;
use protego::userland::workload::{
    deliver_atomic, privileged_artifacts, start_mail_service, vfs_namespace_violations,
};
use protego::userland::{boot, System, SystemMode};
use std::sync::{Arc, Barrier};

const WORKERS: usize = 8;
const ITERS: u64 = 400;

/// One worker's churn: per-iteration it mixes file create/rename/unlink
/// (both in a private directory and in the contended `/tmp`), identity
/// syscalls, and a loopback TCP round trip against its own listener.
/// Every result is ignored — under the storm any call may fail — but
/// nothing here may panic.
fn worker_churn(mut sys: System, session: protego::kernel::Pid, worker: usize) {
    let dir = format!("/tmp/stress{}", worker);
    let _ = sys.process(session).mkdir(&dir, Mode(0o755));
    let listen_port = 21000 + worker as u16;
    let listener = sys
        .process(session)
        .socket(Domain::Inet, SockType::Stream, 0)
        .ok()
        .filter(|&fd| {
            sys.process(session)
                .bind(fd, Ipv4::ANY, listen_port)
                .is_ok()
                && sys.process(session).listen(fd).is_ok()
        });

    for i in 0..ITERS {
        // fs: stage-and-rename in the private dir, plus shared-/tmp churn
        // under distinct names (contending the same VFS shard locks
        // without logical collisions).
        let tmp = format!("{}/.m{}.tmp", dir, i % 7);
        let dst = format!("{}/m{}", dir, i % 7);
        let _ = sys.process(session).write_file(
            &tmp,
            format!("w{} i{}", worker, i).as_bytes(),
            Mode(0o644),
        );
        let _ = sys.process(session).rename(&tmp, &dst);
        let _ = sys.process(session).read_to_string(&dst);
        let shared = format!("/tmp/shared_w{}_s{}", worker, i % 5);
        match i % 3 {
            0 => {
                let _ = sys
                    .process(session)
                    .write_file(&shared, b"churn", Mode(0o600));
            }
            1 => {
                let _ = sys.process(session).stat(&shared);
            }
            _ => {
                let _ = sys.process(session).unlink(&shared);
            }
        }
        if i % 11 == 0 {
            let sub = format!("{}/d{}", dir, i % 4);
            let _ = sys.process(session).mkdir(&sub, Mode(0o755));
            let _ = sys.process(session).rmdir(&sub);
        }

        // id: read-back credential syscalls through the per-task locks.
        let _ = sys.process(session).getuid();
        let _ = sys.process(session).geteuid();
        let _ = sys.process(session).getgid();

        // net: one loopback round trip against this worker's listener.
        if let Some(lfd) = listener {
            if let Ok(cli) = sys
                .process(session)
                .socket(Domain::Inet, SockType::Stream, 0)
            {
                if sys
                    .process(session)
                    .connect(cli, Ipv4::LOOPBACK, listen_port)
                    .is_ok()
                {
                    let _ = sys.process(session).send(cli, b"ping");
                    if let Ok(conn) = sys.process(session).accept(lfd) {
                        let _ = sys.process(session).recv(conn, 64);
                        let _ = sys.process(session).close(conn);
                    }
                }
                let _ = sys.process(session).close(cli);
            }
            // The storm can strand a connection in the backlog; reap so
            // the next iteration starts clean.
            while let Ok(stale) = sys.process(session).accept(lfd) {
                let _ = sys.process(session).close(stale);
            }
        }
    }
}

#[test]
fn eight_workers_storm_one_kernel_without_damage() {
    let mut base = boot(SystemMode::Protego);

    // Sessions are created storm-free so every worker starts from a
    // clean login; the storm then covers all concurrent churn.
    let sessions: Vec<_> = (0..WORKERS)
        .map(|_| base.login("alice", "alicepw").expect("login"))
        .collect();
    let (_slot, stats) = base.attach_fault_injector(FaultConfig::storm(0xD1CE, 100));

    let handles: Vec<_> = sessions
        .into_iter()
        .enumerate()
        .map(|(worker, session)| {
            let view = base.worker_view();
            std::thread::spawn(move || worker_churn(view, session, worker))
        })
        .collect();
    let mut panicked = 0;
    for h in handles {
        if h.join().is_err() {
            panicked += 1;
        }
    }
    assert_eq!(panicked, 0, "no worker may panic under the storm");

    let s = stats.lock().unwrap();
    assert!(s.seen > 0, "the churn must route through dispatch");
    assert!(
        s.injected > 0,
        "a 1% storm over {} concurrent workers must fire",
        WORKERS
    );
    drop(s);

    assert!(
        privileged_artifacts(&mut base).is_empty(),
        "concurrent churn under faults must not mint privileged artifacts"
    );
    let violations = vfs_namespace_violations(&base);
    assert!(
        violations.is_empty(),
        "namespace invariants violated after churn: {:?}",
        violations
    );
}

const SPOOL: &str = "/var/mail/alice";
const SIBLING: &str = "/var/www/index.html";
const DELIVERIES: usize = 600;
const LOCKSTEP_ROUNDS: usize = 50;

/// The spool image after `k` deliveries of [`deliver_atomic`].
fn spool_image(k: usize) -> String {
    (0..k)
        .map(|i| format!("From MTA: to alice\nmessage {}\n\n", i))
        .collect()
}

#[test]
fn atomic_replace_delivery_never_tears_a_concurrent_reader() {
    let mut base = boot(SystemMode::Protego);
    let srv = start_mail_service(&mut base).expect("exim4");
    let reader = base.login("root", "rootpw").expect("root login");
    assert_eq!(base.process(reader).read_to_string(SPOOL).unwrap(), "");
    let page = base.process(reader).read_to_string(SIBLING).unwrap();
    let lockstep = Arc::new(Barrier::new(2));

    let mut sys = base.worker_view();
    let gate = Arc::clone(&lockstep);
    let writer = std::thread::spawn(move || {
        let deliver = |sys: &mut System, i: usize| {
            deliver_atomic(sys, srv.pid, "alice", &format!("message {}", i))
                .unwrap_or_else(|e| panic!("delivery {} failed: {:?}", i, e));
        };
        for i in 0..DELIVERIES {
            deliver(&mut sys, i);
        }
        // Lockstep: each delivery completes before the reader probes.
        for i in DELIVERIES..DELIVERIES + LOCKSTEP_ROUNDS {
            gate.wait();
            deliver(&mut sys, i);
            gate.wait();
        }
    });

    let mut sys = base.worker_view();
    let (mut reads, mut last) = (0usize, 0usize);
    // Every read must be a whole delivered image: the rename swaps the
    // spool's entry in one step and the open pins the inode it found.
    let mut read_spool = |sys: &mut System| -> usize {
        sys.process(reader)
            .stat(SPOOL)
            .unwrap_or_else(|e| panic!("stat saw {:?} mid-replace", e));
        let got = match sys.process(reader).read_to_string(SPOOL) {
            Ok(text) => text,
            Err(Errno::ENOENT) => panic!("read saw ENOENT mid-replace"),
            Err(e) => panic!("read failed: {:?}", e),
        };
        let k = got.matches("From MTA: to alice\n").count();
        assert_eq!(
            got,
            spool_image(k),
            "torn spool image after {} reads",
            reads
        );
        reads += 1;
        k
    };
    while last < DELIVERIES {
        let k = read_spool(&mut sys);
        assert!(
            k >= last,
            "the spool went back from {} to {} messages",
            last,
            k
        );
        last = k;
        assert!(sys.process(reader).stat(SIBLING).is_ok());
        assert_eq!(sys.process(reader).read_to_string(SIBLING).unwrap(), page);
    }
    // With the writer paused after each delivery, the sibling directory's
    // cached path must still hit: a rename in /var/mail does not flush it.
    let mut sibling_hits = 0;
    for _ in 0..LOCKSTEP_ROUNDS {
        lockstep.wait();
        lockstep.wait();
        read_spool(&mut sys);
        let before = sys.kernel.vfs.dcache_stats();
        sys.process(reader).stat(SIBLING).unwrap();
        let after = sys.kernel.vfs.dcache_stats();
        assert_eq!(after.misses, before.misses, "sibling stat re-walked");
        sibling_hits += after.hits - before.hits;
    }
    writer.join().expect("writer panicked");
    assert_eq!(sibling_hits, LOCKSTEP_ROUNDS as u64);
    assert_eq!(
        base.process(reader).read_to_string(SPOOL).unwrap(),
        spool_image(DELIVERIES + LOCKSTEP_ROUNDS)
    );
}
