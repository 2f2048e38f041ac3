//! # userland
//!
//! The simulated distribution: a bootable system image (legacy Linux with
//! setuid-to-root binaries, or Protego with kernel-enforced policies),
//! reimplementations of the studied command-line utilities, and the two
//! trusted services — the authentication utility and the monitoring
//! daemon (Figure 1 / Table 2 of the paper).
//!
//! # Examples
//!
//! ```
//! use userland::{boot, SystemMode};
//!
//! // Boot Protego; alice mounts the CD-ROM with a non-setuid mount(8).
//! let mut sys = boot(SystemMode::Protego);
//! let alice = sys.login("alice", "alicepw").unwrap();
//! let r = sys.run(alice, "/bin/mount", &["/mnt/cdrom"], &[]).unwrap();
//! assert!(r.ok(), "{}", r.stdout);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod authd;
pub mod bins;
pub mod coverage;
pub mod db;
pub mod image;
pub mod monitord;
pub mod scenario;
pub mod suite;
pub mod system;
pub mod workload;

pub use image::boot;
pub use sim_kernel::syscall::Process;
pub use system::{AttackEvent, BinEntry, Exploit, Proc, RunResult, System, SystemMode};
