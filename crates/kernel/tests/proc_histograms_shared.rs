//! `/proc/kernel/histograms` on a shared kernel shows every worker's
//! time, not only the reading thread's.
//!
//! This file holds one test on purpose: span shards are process-wide,
//! so any other test enabling spans in this binary would add to the
//! merged counts it checks.

use sim_kernel::cred::{Credentials, Gid, Uid};
use sim_kernel::kernel::{Kernel, SharedKernel};
use sim_kernel::net::SimNet;
use sim_kernel::syscall::{OpenFlags, Syscall};
use sim_kernel::task::Pid;
use sim_kernel::trace::{span, Pathway};

const WORKERS: u64 = 8;
const DISPATCHES: u64 = 200;

fn read_all(k: &Kernel, pid: Pid, path: &str) -> String {
    let open = Syscall::Open {
        path,
        flags: OpenFlags::read_only(),
    };
    let fd = k.dispatch(pid, open).fd().expect("open");
    let data = k
        .dispatch(pid, Syscall::Read { fd, count: 1 << 20 })
        .data()
        .expect("read");
    k.dispatch(pid, Syscall::Close { fd })
        .unit()
        .expect("close");
    String::from_utf8(data).expect("proc text is utf-8")
}

/// Eight workers time their own dispatches; a root reader with spans
/// off then reads the node, and its dispatch count is the workers' sum.
#[test]
fn root_reader_sees_every_workers_dispatches() {
    let k = Kernel::new(SimNet::new());
    let root = k.spawn_init();
    k.install_standard_devices().unwrap();
    let k = SharedKernel::new(k);

    let workers: Vec<_> = (0..WORKERS)
        .map(|w| {
            let k = k.clone();
            std::thread::spawn(move || {
                let uid = Uid(1000 + w as u32);
                let pid = k.spawn_session(Credentials::user(uid, Gid(1000)), "/bin/sh");
                span::set_enabled(true);
                for _ in 0..DISPATCHES {
                    k.dispatch(pid, Syscall::Getuid).uid().expect("getuid");
                }
                span::set_enabled(false);
                span::snapshot().hist(Pathway::Dispatch).count
            })
        })
        .collect();
    let own: u64 = workers.into_iter().map(|w| w.join().unwrap()).sum();
    assert_eq!(own, WORKERS * DISPATCHES);

    assert!(!span::enabled());
    let text = read_all(&k, root, "/proc/kernel/histograms");
    let count = text
        .lines()
        .find_map(|l| l.strip_prefix("hist_dispatch count="))
        .and_then(|rest| rest.split(' ').next())
        .and_then(|n| n.parse::<u64>().ok());
    assert_eq!(count, Some(own), "histograms node:\n{text}");
}
