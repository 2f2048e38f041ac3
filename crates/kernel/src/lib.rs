//! # sim-kernel
//!
//! A deterministic, user-space simulation of the Linux kernel subsystems
//! that the EuroSys 2014 paper *"Practical Techniques to Obviate
//! Setuid-to-Root Binaries"* (Protego) studies and modifies:
//!
//! * tasks, credentials, and the 36 Linux capabilities;
//! * a VFS with permission bits (including the setuid bit), mounts,
//!   symlinks, `/proc`, `/sys`, and inotify-style change tracking;
//! * sockets (TCP/UDP/raw/packet), a port table, a routing table with the
//!   conflict predicate of §4.1.2, and a netfilter OUTPUT chain;
//! * devices: block media, dm-crypt mappings, modem lines, and a KMS-era
//!   video adapter;
//! * an LSM hook framework mirroring the hook placement Protego adds, plus
//!   a kernel-launched trusted-authentication pathway (§4.3).
//!
//! The crate is pure mechanism plus *stock* Linux policy: every privileged
//! interface defaults to the capability checks of Linux 3.6. Security
//! modules (the `apparmor-lsm` baseline and `protego-core`) plug into
//! [`lsm::SecurityModule`] to change those decisions.
//!
//! # Examples
//!
//! ```
//! use sim_kernel::cred::{Credentials, Uid, Gid};
//! use sim_kernel::kernel::Kernel;
//! use sim_kernel::net::SimNet;
//!
//! let k = Kernel::new(SimNet::new());
//! k.install_standard_devices().unwrap();
//! let root = k.spawn_init();
//! k.vfs.mkdir_p("/mnt/cdrom").unwrap();
//! // Root can mount; an unprivileged user cannot (stock policy).
//! k.process(root).mount("/dev/cdrom", "/mnt/cdrom", "iso9660", "ro").unwrap();
//! let user = k.spawn_session(Credentials::user(Uid(1000), Gid(1000)), "/bin/sh");
//! assert!(k.process(user).umount("/mnt/cdrom").is_err());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod caps;
pub mod cred;
pub mod dev;
pub mod error;
pub mod kernel;
pub mod lsm;
pub mod net;
pub mod seccomp;
pub mod sync;
pub mod syscall;
pub mod task;
pub mod trace;
pub mod vfs;

pub use error::{Errno, KResult};
pub use kernel::{Kernel, SharedKernel};
pub use task::Pid;
