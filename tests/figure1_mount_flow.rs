//! Figure 1 as assertions: where trust lives on each system, and what a
//! *compromised* mount binary can do on each.

use protego::kernel::cred::{Credentials, Gid, Uid};
use protego::userland::{boot, Exploit, Proc, SystemMode};

#[test]
fn trust_sets_differ_as_figure1_shows() {
    // Legacy: the policy engine is a setuid binary...
    let mut legacy = boot(SystemMode::Legacy);
    let init = legacy.init_pid();
    let st = legacy.kernel.process(init).stat("/bin/mount").unwrap();
    assert!(st.mode.is_setuid());
    assert!(st.uid.is_root());
    // ...and the kernel's own policy is just "root may".
    let user = legacy.kernel.spawn_session(
        Credentials::user(Uid(1000), Gid(1000)),
        "/bin/anything-at-all",
    );
    assert!(legacy
        .kernel
        .process(user)
        .mount("/dev/cdrom", "/mnt/cdrom", "iso9660", "ro")
        .is_err());

    // Protego: no setuid bit; the kernel holds the fstab-derived policy
    // and any binary whatsoever may issue the call.
    let mut protego = boot(SystemMode::Protego);
    let init = protego.init_pid();
    let st = protego.kernel.process(init).stat("/bin/mount").unwrap();
    assert!(!st.mode.is_setuid());
    let policy = protego
        .kernel
        .read_to_string(init, "/proc/protego/mounts")
        .unwrap();
    assert!(policy.contains("/dev/cdrom /mnt/cdrom iso9660 user ro"));
    let user = protego
        .kernel
        .spawn_session(Credentials::user(Uid(1000), Gid(1000)), "/home/x/my-tool");
    protego
        .kernel
        .process(user)
        .mount("/dev/cdrom", "/mnt/cdrom", "iso9660", "ro")
        .unwrap();
    // Forced hardening on the user mount.
    let m = protego.kernel.vfs.find_mount("/mnt/cdrom").unwrap();
    assert!(m.options.nosuid && m.options.nodev);
}

fn hostile_mount_payload(p: &mut Proc<'_>) {
    // The compromised mount tries the filesystem-tree attack the paper's
    // intro describes: grafting attacker content over /etc.
    let ok = p
        .sys
        .kernel
        .process(p.pid)
        .mount("/dev/sdb1", "/etc", "vfat", "rw")
        .is_ok();
    p.record_attack("mount-over-etc", ok);
}

#[test]
fn compromised_mount_can_reshape_tree_on_legacy_only() {
    for (mode, expect) in [(SystemMode::Legacy, true), (SystemMode::Protego, false)] {
        let mut sys = boot(mode);
        sys.arm_exploit(Exploit {
            binary: "/bin/mount".into(),
            point: "parse_options",
            payload: hostile_mount_payload,
        });
        let alice = sys.login("alice", "alicepw").unwrap();
        let _ = sys.run(alice, "/bin/mount", &["/mnt/cdrom"], &[]);
        let got = sys
            .attack_log
            .iter()
            .find(|e| e.action == "mount-over-etc")
            .map(|e| e.succeeded)
            .unwrap();
        assert_eq!(got, expect, "mode {:?}", mode);
        if expect {
            // On legacy /etc is now attacker-controlled: resolving
            // /etc/passwd lands on the removable media's tree.
            let init = sys.init_pid();
            assert!(sys.kernel.read_to_string(init, "/etc/passwd").is_err());
        }
    }
}

#[test]
fn audit_trail_names_the_granting_rule() {
    let mut sys = boot(SystemMode::Protego);
    sys.kernel.set_trace(true);
    let alice = sys.login("alice", "alicepw").unwrap();
    sys.run(alice, "/bin/mount", &["/mnt/cdrom"], &[]).unwrap();
    assert!(sys
        .kernel
        .audit
        .events()
        .into_iter()
        .any(|l| l.contains("mount: lsm granted /dev/cdrom -> /mnt/cdrom")));
}
