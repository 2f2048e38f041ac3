//! Counting-allocator proof that the steady-state VFS fast path is
//! allocation-free end to end: once the interner, dcache, path-arena
//! pools and fd table are warm, a resolve/open/read/close/getuid cycle
//! under the full Protego LSM performs **zero** heap allocations.
//!
//! The read leg runs through the kernel's caller-buffer inspection read
//! ([`Kernel::read_file_into`]): a dispatched `read` answers with an
//! owned `Data(Vec)`, which allocates by design. Requests borrow their
//! arguments, so `stat`, `open` and `close` of a path, `getuid`, and
//! `socket` + `close` run through `dispatch` itself: taking the caller
//! snapshot, the LSM hooks and the socket's owner identity must not
//! allocate either.
//!
//! Built only with `--features alloc-count` (see `[[test]]` in
//! Cargo.toml) so ordinary test runs keep the stock allocator.

use protego_core::ProtegoLsm;
use sim_kernel::cred::{Credentials, Gid, Uid};
use sim_kernel::kernel::Kernel;
use sim_kernel::net::{Domain, SimNet, SockType};
use sim_kernel::syscall::OpenFlags;
use sim_kernel::task::Pid;
use sim_kernel::vfs::Mode;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

// The gate and counter are per-thread with const initializers: a
// `thread_local!` with a const block lives in native TLS and its first
// access performs no lazy-init allocation, so the allocator hooks can
// read it re-entrancy-free. Per-thread matters: the libtest harness's
// main thread blocks on an mpsc receiver while the test runs and lazily
// allocates its wait context at an arbitrary moment — a process-global
// gate would count that unrelated allocation and flake.
thread_local! {
    static GATE: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// Delegates to the system allocator, counting allocations (not frees)
/// made by this thread while its gate is up, so harness and setup
/// allocations are invisible.
struct CountingAlloc;

fn count_if_gated() {
    GATE.with(|g| {
        if g.get() {
            ALLOCS.with(|a| a.set(a.get() + 1));
        }
    });
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_if_gated();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_if_gated();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_if_gated();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

fn fastpath_cycle(k: &Kernel, pid: Pid, buf: &mut Vec<u8>) {
    buf.clear();
    k.read_file_into(pid, "/etc/hosts", buf)
        .expect("open/read/close");
    std::hint::black_box(k.task(pid).expect("getuid").cred.ruid);
}

/// A Protego kernel with `/etc/hosts` and an unprivileged session.
fn boot() -> (Kernel, Pid) {
    let k = Kernel::new(SimNet::new());
    k.install_standard_devices().expect("devices");
    k.register_lsm(Box::new(ProtegoLsm::new())).expect("lsm");
    let _root = k.spawn_init();
    k.vfs
        .install_file(
            "/etc/hosts",
            b"127.0.0.1 localhost\n",
            Mode(0o644),
            Uid::ROOT,
            Gid::ROOT,
        )
        .expect("hosts");
    let user = k.spawn_session(Credentials::user(Uid(1000), Gid(1000)), "/bin/cat");
    (k, user)
}

/// Allocations `cycle` makes over 256 runs, after 64 unmeasured warmup
/// runs populate the interner, the dcache, the path-arena pools, the fd
/// and socket slots and any buffer capacity.
fn steady_state_allocs(mut cycle: impl FnMut()) -> u64 {
    for _ in 0..64 {
        cycle();
    }
    ALLOCS.with(|a| a.set(0));
    GATE.with(|g| g.set(true));
    for _ in 0..256 {
        cycle();
    }
    GATE.with(|g| g.set(false));
    ALLOCS.with(|a| a.get())
}

#[test]
fn steady_state_resolve_open_read_is_allocation_free() {
    let (k, user) = boot();
    let mut buf = Vec::with_capacity(4096);
    let n = steady_state_allocs(|| fastpath_cycle(&k, user, &mut buf));
    assert_eq!(
        n, 0,
        "steady-state open/read/close/getuid cycle allocated {} times (expected 0)",
        n
    );
}

#[test]
fn dispatched_getuid_is_allocation_free() {
    let (k, user) = boot();
    let n = steady_state_allocs(|| {
        std::hint::black_box(k.process(user).getuid().expect("getuid"));
    });
    assert_eq!(n, 0, "dispatched getuid allocated {} times (expected 0)", n);
}

#[test]
fn dispatched_socket_close_is_allocation_free() {
    let (k, user) = boot();
    let n = steady_state_allocs(|| {
        let mut p = k.process(user);
        let fd = p.socket(Domain::Inet, SockType::Stream, 0).expect("socket");
        p.close(fd).expect("close");
    });
    assert_eq!(
        n, 0,
        "dispatched socket + close allocated {} times (expected 0)",
        n
    );
}

#[test]
fn dispatched_stat_open_close_is_allocation_free() {
    let (k, user) = boot();
    let n = steady_state_allocs(|| {
        let mut p = k.process(user);
        std::hint::black_box(p.stat("/etc/hosts").expect("stat"));
        let fd = p.open("/etc/hosts", OpenFlags::read_only()).expect("open");
        p.close(fd).expect("close");
    });
    assert_eq!(
        n, 0,
        "dispatched stat + open + close allocated {} times (expected 0)",
        n
    );
}

#[test]
fn steady_state_resolve_parent_is_allocation_free() {
    // The parent walk create/unlink/rename/mkdir start with: the name
    // comes back borrowed from the path and the parent from the dcache.
    let (k, _user) = boot();
    let root = k.vfs.root();
    let n = steady_state_allocs(|| {
        let (parent, name) = k
            .vfs
            .resolve_parent(root, "/etc/hosts.new")
            .expect("parent");
        std::hint::black_box((parent.ino, name));
    });
    assert_eq!(n, 0, "resolve_parent allocated {} times (expected 0)", n);
}
