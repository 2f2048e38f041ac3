//! The per-dispatch caller snapshot stays fresh: a body that changes its
//! own task partway through a call re-reads it, and the next dispatch
//! always sees the task as the previous one left it — on one thread or
//! across the workers of a shared kernel.

use sim_kernel::cred::{Credentials, Gid, Uid};
use sim_kernel::error::Errno;
use sim_kernel::kernel::{Kernel, SharedKernel, AUTH_WINDOW_SECS};
use sim_kernel::lsm::{AuthProvider, AuthScope, FileDecision, FileOpenCtx, SecurityModule};
use sim_kernel::net::SimNet;
use sim_kernel::syscall::OpenFlags;
use sim_kernel::vfs::{Mode, Vfs};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

/// Grants `/etc/secret` only to a task that proved its own identity
/// within the recency window, and asks for that proof otherwise.
struct ReauthLsm;

impl SecurityModule for ReauthLsm {
    fn name(&self) -> &'static str {
        "reauth"
    }

    fn file_open(&self, ctx: &FileOpenCtx) -> FileDecision {
        if ctx.path != "/etc/secret" {
            return FileDecision::UseDefault;
        }
        let scope = AuthScope::User(ctx.cred.ruid);
        if ctx.authed_for(scope, AUTH_WINDOW_SECS) {
            FileDecision::Allow
        } else {
            FileDecision::NeedAuth(scope)
        }
    }
}

/// An agent that accepts every prompt and counts them.
struct CountingAgent(Arc<AtomicU32>);

impl AuthProvider for CountingAgent {
    fn authenticate(&mut self, _: AuthScope, _: &mut VecDeque<String>, _: &Vfs) -> bool {
        self.0.fetch_add(1, Ordering::Relaxed);
        true
    }
}

fn boot() -> Kernel {
    let k = Kernel::new(SimNet::new());
    k.install_standard_devices().unwrap();
    k.spawn_init();
    for (path, mode) in [("/etc/secret", 0o600), ("/etc/shadow", 0o600)] {
        k.vfs
            .install_file(path, b"x\n", Mode(mode), Uid::ROOT, Gid::ROOT)
            .unwrap();
    }
    k.vfs
        .install_file("/bin/passwd", b"#!sim", Mode(0o4755), Uid::ROOT, Gid::ROOT)
        .unwrap();
    k
}

/// The retry after a successful authentication sees the recency the
/// authentication just recorded, so one prompt opens the file. A retry
/// on the entry snapshot would be asked again and fail `EACCES`.
#[test]
fn open_retry_after_auth_sees_the_fresh_recency() {
    let k = boot();
    k.register_lsm(Box::new(ReauthLsm)).unwrap();
    let prompts = Arc::new(AtomicU32::new(0));
    k.register_auth(Box::new(CountingAgent(Arc::clone(&prompts))));
    let user = k.spawn_session(Credentials::user(Uid(1000), Gid(1000)), "/bin/cat");

    let fd = k
        .process(user)
        .open("/etc/secret", OpenFlags::read_only())
        .expect("granted after one authentication");
    assert_eq!(prompts.load(Ordering::Relaxed), 1);
    k.process(user).close(fd).unwrap();

    // Within the window the next dispatch's snapshot carries the proof.
    k.process(user)
        .read_file("/etc/secret")
        .expect("still authenticated");
    assert_eq!(prompts.load(Ordering::Relaxed), 1);
}

/// Executing a setuid-root binary commits the new credentials and image:
/// the next dispatch checks with them.
#[test]
fn exec_of_a_setuid_binary_is_seen_by_the_next_dispatch() {
    let k = boot();
    let user = k.spawn_session(Credentials::user(Uid(1000), Gid(1000)), "/bin/sh");
    let mut p = k.process(user);
    assert_eq!(p.read_file("/etc/shadow").unwrap_err(), Errno::EACCES);

    assert_eq!(p.execve("/bin/passwd").unwrap(), "/bin/passwd");
    assert_eq!(p.geteuid().unwrap(), Uid::ROOT);
    assert_eq!(p.getuid().unwrap(), Uid(1000));
    assert!(p.read_file("/etc/shadow").is_ok(), "DAC sees euid 0");
    let caller = k.caller(user);
    assert_eq!(caller.binary.as_str(), "/bin/passwd");
    assert_eq!(caller.cred.euid, Uid::ROOT);
}

/// On a shared kernel each worker's `setuid` is visible to its pid's
/// next dispatch, on the worker's thread and on any other.
#[test]
fn a_workers_setuid_is_seen_by_its_pids_next_dispatch() {
    let k = SharedKernel::new(boot());
    let pids: Vec<_> = (0..2)
        .map(|_| k.spawn_session(Credentials::root(), "/bin/sh"))
        .collect();
    let workers: Vec<_> = pids
        .iter()
        .enumerate()
        .map(|(i, &pid)| {
            let k = k.clone();
            std::thread::spawn(move || {
                let target = Uid(1000 + i as u32);
                let mut p = k.process(pid);
                for _ in 0..50 {
                    assert!(p.read_file("/etc/shadow").is_ok());
                }
                p.setuid(target).unwrap();
                assert_eq!(p.geteuid().unwrap(), target);
                assert_eq!(p.read_file("/etc/shadow").unwrap_err(), Errno::EACCES);
                assert_eq!(p.setuid(Uid::ROOT).unwrap_err(), Errno::EPERM);
            })
        })
        .collect();
    for w in workers {
        w.join().unwrap();
    }
    for (i, &pid) in pids.iter().enumerate() {
        let mut p = k.process(pid);
        assert_eq!(p.getuid().unwrap(), Uid(1000 + i as u32));
        assert_eq!(p.read_file("/etc/shadow").unwrap_err(), Errno::EACCES);
    }
}
