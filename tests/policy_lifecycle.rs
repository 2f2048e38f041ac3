//! Live policy lifecycle through the monitoring daemon: grants appear
//! when configuration files change, and — just as important — *revoke*
//! when they are removed.

use protego::kernel::vfs::Mode;
use protego::userland::{boot, SystemMode};

#[test]
fn sudoers_d_rule_revokes_on_file_removal() {
    let mut sys = boot(SystemMode::Protego);
    let root = sys.login("root", "rootpw").unwrap();
    let alice = sys.login("alice", "alicepw").unwrap();

    // alice is not in sudoers: denied.
    let r = sys
        .run(alice, "/usr/bin/sudo", &["/bin/id"], &["alicepw"])
        .unwrap();
    assert!(!r.ok());

    // The admin drops in a sudoers.d file; the daemon syncs.
    sys.kernel
        .process(root)
        .write_file(
            "/etc/sudoers.d/alice",
            b"alice ALL=(ALL) NOPASSWD: ALL\n",
            Mode(0o440),
        )
        .unwrap();
    assert!(sys.sync_policies().unwrap());
    let r = sys.run(alice, "/usr/bin/sudo", &["/bin/id"], &[]).unwrap();
    assert!(r.ok(), "{}", r.stdout);
    assert!(r.stdout.contains("euid=0"));

    // The admin removes the file: the grant disappears on the next poll.
    sys.kernel
        .process(root)
        .unlink("/etc/sudoers.d/alice")
        .unwrap();
    assert!(sys.sync_policies().unwrap());
    sys.kernel.advance_clock(400); // expire any recency
    let r = sys
        .run(alice, "/usr/bin/sudo", &["/bin/id"], &["alicepw"])
        .unwrap();
    assert!(!r.ok(), "revoked rule still grants: {}", r.stdout);
}

#[test]
fn fstab_entry_revokes_on_removal() {
    let mut sys = boot(SystemMode::Protego);
    let root = sys.login("root", "rootpw").unwrap();
    let alice = sys.login("alice", "alicepw").unwrap();

    let r = sys.run(alice, "/bin/mount", &["/mnt/cdrom"], &[]).unwrap();
    assert!(r.ok());
    sys.run(alice, "/bin/umount", &["/mnt/cdrom"], &[]).unwrap();

    // Strip the cdrom line from fstab.
    let fstab = sys.kernel.read_to_string(root, "/etc/fstab").unwrap();
    let pruned: String = fstab
        .lines()
        .filter(|l| !l.contains("/mnt/cdrom"))
        .map(|l| format!("{}\n", l))
        .collect();
    sys.kernel
        .process(root)
        .write_file("/etc/fstab", pruned.as_bytes(), Mode(0o644))
        .unwrap();
    assert!(sys.sync_policies().unwrap());

    let r = sys.run(alice, "/bin/mount", &["/mnt/cdrom"], &[]).unwrap();
    assert!(!r.ok(), "revoked whitelist still grants: {}", r.stdout);
}

#[test]
fn bind_allocation_revokes_and_reassigns() {
    use protego::kernel::cred::{Gid, Uid};
    let mut sys = boot(SystemMode::Protego);
    let root = sys.login("root", "rootpw").unwrap();

    // Reassign port 25 from exim to a different instance.
    sys.kernel
        .process(root)
        .write_file(
            "/etc/bind",
            b"25 tcp /usr/sbin/rogue-mta 33\n80 tcp /usr/sbin/httpd 33\n",
            Mode(0o644),
        )
        .unwrap();
    assert!(sys.sync_policies().unwrap());

    // The mail user's exim is now refused...
    let mail = sys.service_session(Uid(8), Gid(8), "/bin/sh");
    let (_, r) = sys
        .spawn_service(mail, "/usr/sbin/exim4", &["--daemon"])
        .unwrap();
    assert!(!r.ok(), "{}", r.stdout);
    // ...and the newly blessed instance gets the port.
    let www = sys.service_session(Uid(33), Gid(33), "/bin/sh");
    let (_, r) = sys.spawn_service(www, "/usr/sbin/rogue-mta", &[]).unwrap();
    assert!(r.ok(), "{}", r.stdout);
}

#[test]
fn malformed_policy_write_keeps_previous_policy() {
    use protego::kernel::syscall::OpenFlags;
    let mut sys = boot(SystemMode::Protego);
    let root = sys.login("root", "rootpw").unwrap();
    let alice = sys.login("alice", "alicepw").unwrap();

    // A bad direct write to /proc is rejected...
    let fd = sys
        .kernel
        .process(root)
        .open("/proc/protego/mounts", OpenFlags::write_only())
        .unwrap();
    assert!(sys
        .kernel
        .process(root)
        .write(fd, b"complete garbage here")
        .is_err());
    sys.kernel.process(root).close(fd).unwrap();

    // ...and the previous whitelist still works.
    let r = sys.run(alice, "/bin/mount", &["/mnt/cdrom"], &[]).unwrap();
    assert!(r.ok(), "{}", r.stdout);
}
