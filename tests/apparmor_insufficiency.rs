//! The paper's motivating argument (§1, §3.2): even *confining* the
//! setuid binary with AppArmor does not enforce least privilege for the
//! unprivileged user — the confined mount keeps CAP_SYS_ADMIN, so a
//! compromise can still re-shape the filesystem tree; VulSAN-style attack
//! paths remain. Protego removes the privilege instead of fencing it.

use protego::apparmor::AppArmorLsm;
use protego::kernel::cred::{Credentials, Gid, Uid};
use protego::kernel::kernel::Kernel;
use protego::kernel::net::SimNet;
use protego::kernel::vfs::Mode;

/// Boots a kernel with the *full* Ubuntu-style confinement profiles for
/// mount (unlike the default image, which models the realistic
/// unconfined baseline).
fn kernel_with_confined_mount() -> Kernel {
    let k = Kernel::new(SimNet::new());
    k.install_standard_devices().unwrap();
    k.register_lsm(Box::new(AppArmorLsm::with_ubuntu_defaults()))
        .unwrap();
    k.spawn_init();
    k.vfs.mkdir_p("/mnt/cdrom").unwrap();
    k.vfs.mkdir_p("/etc").unwrap();
    k.vfs
        .install_file(
            "/etc/passwd",
            b"root:x:0:0::/:/bin/sh\n",
            Mode(0o644),
            Uid::ROOT,
            Gid::ROOT,
        )
        .unwrap();
    k.vfs
        .install_file(
            "/etc/shadow",
            b"root:HASH:0:0\n",
            Mode(0o600),
            Uid::ROOT,
            Gid::ROOT,
        )
        .unwrap();
    k
}

/// A task standing in for an exploited setuid mount: it runs the
/// /bin/mount image with root credentials (what the setuid bit grants).
fn exploited_mount(k: &mut Kernel) -> protego::kernel::Pid {
    let mut cred = Credentials::root();
    cred.ruid = Uid(1000); // invoked by a user
    k.spawn_session(cred, "/bin/mount")
}

#[test]
fn confinement_blocks_file_reads_but_not_tree_attacks() {
    let mut k = kernel_with_confined_mount();
    let evil = exploited_mount(&mut k);

    // The profile stops the direct shadow read — confinement "works"...
    assert!(k.read_to_string(evil, "/etc/shadow").is_err());

    // ...but the profile must grant CAP_SYS_ADMIN for mount to function,
    // so the compromised binary grafts attacker media over /etc anyway.
    k.process(evil)
        .mount("/dev/sdb1", "/etc", "vfat", "rw")
        .unwrap();

    // /etc/passwd now resolves into the attacker-controlled tree: the
    // system's account database is gone from every other process's view.
    let probe = k.spawn_session(Credentials::user(Uid(1001), Gid(1001)), "/bin/sh");
    assert!(k.read_to_string(probe, "/etc/passwd").is_err());
}

#[test]
fn apparmor_cannot_express_the_object_policy() {
    // The object-based policy "only (cdrom -> /mnt/cdrom, ro)" is not
    // expressible as path confinement: with the profile loaded, the
    // confined root-mount may still choose arbitrary (device, target)
    // pairs. Protego's hook checks the *arguments*.
    let mut k = kernel_with_confined_mount();
    let evil = exploited_mount(&mut k);
    // Both the sanctioned and the hostile mount succeed identically.
    k.process(evil)
        .mount("/dev/cdrom", "/mnt/cdrom", "iso9660", "ro")
        .unwrap();
    k.vfs.mkdir_p("/lib").unwrap();
    k.process(evil)
        .mount("/dev/sdb1", "/lib", "vfat", "rw")
        .unwrap();
}

#[test]
fn profile_capability_mask_does_confine_other_caps() {
    // Fairness to AppArmor: the mask does stop capabilities outside the
    // profile — the confined mount cannot load kernel modules or change
    // identities even as euid 0.
    let mut k = kernel_with_confined_mount();
    let evil = exploited_mount(&mut k);
    assert!(
        k.process(evil).setuid(Uid(0)).is_err() || {
            // setuid requires CAP_SETUID, which the mount profile omits —
            // stock path must have been denied; re-check it did not change.
            k.task(evil).unwrap().cred.ruid == Uid(1000)
        }
    );
    assert!(k.process(evil).setgroups(&[Gid(0)]).is_err());
}
