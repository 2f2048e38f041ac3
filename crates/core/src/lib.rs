//! # protego-core
//!
//! The Protego security module (EuroSys 2014): kernel-enforced,
//! object-based policies that obviate setuid-to-root binaries.
//!
//! The crate provides:
//!
//! * [`ProtegoLsm`] — the LSM implementing every policy category of the
//!   paper's Table 4 over the simulated kernel's hook surface;
//! * [`policy`] — the kernel-side policy structures and the
//!   `/proc/protego/*` configuration grammar;
//! * [`fstab`] and [`sudoers`] — parsers for the legacy configuration
//!   files, plus the translations the trusted monitoring daemon applies
//!   to keep the kernel policy synchronized (Figure 1).
//!
//! # Examples
//!
//! ```
//! use protego_core::ProtegoLsm;
//! use sim_kernel::cred::{Credentials, Uid, Gid};
//! use sim_kernel::kernel::Kernel;
//! use sim_kernel::net::SimNet;
//!
//! let mut k = Kernel::new(SimNet::new());
//! k.install_standard_devices().unwrap();
//! k.register_lsm(Box::new(ProtegoLsm::new())).unwrap();
//! let root = k.spawn_init();
//! k.vfs.mkdir_p("/mnt/cdrom").unwrap();
//!
//! // The administrator (or monitoring daemon) whitelists the cdrom.
//! let mut admin = k.process(root);
//! let fd = admin.open("/proc/protego/mounts",
//!     sim_kernel::syscall::OpenFlags::write_only()).unwrap();
//! admin.write(fd, b"/dev/cdrom /mnt/cdrom iso9660 user ro\n").unwrap();
//! admin.close(fd).unwrap();
//!
//! // An unprivileged user now mounts it — no setuid binary involved.
//! let user = k.spawn_session(Credentials::user(Uid(1000), Gid(1000)), "/bin/mount");
//! k.process(user).mount("/dev/cdrom", "/mnt/cdrom", "iso9660", "ro").unwrap();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fstab;
mod index;
pub mod lsm;
pub mod policy;
pub mod sudoers;

pub use lsm::{ProtegoLsm, AUTH_WINDOW};
pub use policy::PolicySet;
