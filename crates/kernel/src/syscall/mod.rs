//! The system-call surface, implemented as `impl Kernel` blocks.
//!
//! Eight system calls carry the privilege requirements the paper studies
//! (Table 4): `socket`, `ioctl`, `bind`, `mount`, `umount`, `setuid`,
//! `setgid`, and (credential-database) `open`. Each consults the active
//! LSM at the same decision point Protego hooks in Linux.
//!
//! The `sys_*` bodies are crate-private. The only public entry is the
//! typed ABI in [`abi`]:
//! [`Kernel::dispatch`](crate::kernel::Kernel::dispatch) maps a
//! [`Syscall`] request onto the matching body and threads it through the
//! registered [`Interceptor`] chain (seccomp, fault injection, trace
//! record/replay, per-class metering). [`Process`] is the typed,
//! pid-bound front end to it.

pub mod abi;
mod fs;
mod handle;
mod id;
pub mod interceptor;
mod ioctl;
mod mount;
mod net;
mod process;

pub use abi::{NetfilterRule, SysRet, Syscall, SyscallClass, Whence};
pub use fs::{OpenFlags, Stat};
pub use handle::Process;
pub use interceptor::{
    FaultConfig, FaultInjector, FaultStats, Interceptor, OneShot, SysCtx, SyscallMeter, Verdict,
};
pub use ioctl::{IoctlCmd, IoctlOut};
pub use net::{NetfilterOp, RouteOp};
