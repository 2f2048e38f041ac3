//! Counting-allocator proof that the steady-state VFS fast path is
//! allocation-free end to end: once the interner, dcache, path-arena
//! pools and fd table are warm, a resolve/open/read/close/getuid cycle
//! under the full Protego LSM performs **zero** heap allocations.
//!
//! The open/read/close legs run through the kernel's caller-buffer
//! inspection read ([`Kernel::read_file_into`]) and the getuid leg reads
//! the task's credentials: `dispatch` cannot serve this gate, because its
//! owned requests (`Open { path: String }`) and responses (`Data(Vec)`)
//! allocate by design.
//!
//! Built only with `--features alloc-count` (see `[[test]]` in
//! Cargo.toml) so ordinary test runs keep the stock allocator.

use protego_core::ProtegoLsm;
use sim_kernel::cred::{Credentials, Gid, Uid};
use sim_kernel::kernel::Kernel;
use sim_kernel::net::SimNet;
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

fn fastpath_cycle(k: &Kernel, pid: sim_kernel::task::Pid, buf: &mut Vec<u8>) {
    buf.clear();
    k.read_file_into(pid, "/etc/hosts", buf)
        .expect("open/read/close");
    std::hint::black_box(k.task(pid).expect("getuid").cred.ruid);
}

#[test]
fn steady_state_resolve_open_read_is_allocation_free() {
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

    // Warmup: populate the interner, the dcache entry for the path, the
    // path-arena pools, the fd slot, and the read buffer's capacity.
    let mut buf = Vec::with_capacity(4096);
    for _ in 0..64 {
        fastpath_cycle(&k, user, &mut buf);
    }

    ALLOCS.with(|a| a.set(0));
    GATE.with(|g| g.set(true));
    for _ in 0..256 {
        fastpath_cycle(&k, user, &mut buf);
    }
    GATE.with(|g| g.set(false));

    let n = ALLOCS.with(|a| a.get());
    assert_eq!(
        n, 0,
        "steady-state open/read/close/getuid cycle allocated {} times (expected 0)",
        n
    );
}
