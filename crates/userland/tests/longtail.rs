//! §5.4: the long tail of setuid binaries. The interfaces are already
//! addressed by Protego, but some need *policy refinement* — the
//! tcptraceroute case is the paper's caveat made executable.

use userland::{boot, SystemMode};

#[test]
fn tcptraceroute_needs_a_policy_refinement_on_protego() {
    // Legacy: setuid-root, works out of the box.
    let mut legacy = boot(SystemMode::Legacy);
    let alice = legacy.login("alice", "alicepw").unwrap();
    let r = legacy
        .run(alice, "/usr/bin/tcptraceroute", &["8.8.8.8"], &[])
        .unwrap();
    assert!(r.ok(), "legacy: {}", r.stdout);

    // Protego, default policy: the raw-TCP probe is not on the whitelist
    // mined from the studied binaries -> filtered.
    let mut protego = boot(SystemMode::Protego);
    let alice = protego.login("alice", "alicepw").unwrap();
    let r = protego
        .run(alice, "/usr/bin/tcptraceroute", &["8.8.8.8"], &[])
        .unwrap();
    assert!(!r.ok());
    assert!(r.stdout.contains("filtered by policy"), "{}", r.stdout);

    // The administrator refines the netfilter policy with one iptables
    // rule (rule ordering is the admin's responsibility, as with real
    // iptables)...
    let root = protego.login("root", "rootpw").unwrap();
    let r = protego
        .run(
            root,
            "/sbin/iptables",
            &["-A", "allow-tcp-probes", "tcp", "accept"],
            &[],
        )
        .unwrap();
    assert!(r.ok(), "{}", r.stdout);

    // ...and the unprivileged tool now works — no setuid bit involved.
    let r = protego
        .run(alice, "/usr/bin/tcptraceroute", &["8.8.8.8"], &[])
        .unwrap();
    assert!(r.ok(), "after refinement: {}", r.stdout);
}

#[test]
fn lppasswd_uses_fragments_on_protego() {
    for mode in [SystemMode::Legacy, SystemMode::Protego] {
        let mut sys = boot(mode);
        let alice = sys.login("alice", "alicepw").unwrap();
        let r = sys
            .run(alice, "/usr/bin/lppasswd", &["printpw"], &[])
            .unwrap();
        assert!(r.ok(), "{:?}: {}", mode, r.stdout);
        let init = sys.init_pid();
        match mode {
            SystemMode::Legacy => {
                let digest = sys
                    .kernel
                    .read_to_string(init, "/etc/cups/passwd.md5")
                    .unwrap();
                assert!(digest.contains("alice:"));
            }
            SystemMode::Protego => {
                let frag = sys
                    .kernel
                    .read_to_string(init, "/etc/cups/passwds/alice")
                    .unwrap();
                assert!(frag.contains("alice:"));
                // bob cannot touch alice's fragment.
                let bob = sys.login("bob", "bobpw").unwrap();
                assert!(sys
                    .kernel
                    .process(bob)
                    .append_file("/etc/cups/passwds/alice", b"evil")
                    .is_err());
            }
        }
    }
}

#[test]
fn ecryptfs_private_mount_for_owner_only() {
    for mode in [SystemMode::Legacy, SystemMode::Protego] {
        let mut sys = boot(mode);
        let alice = sys.login("alice", "alicepw").unwrap();
        let r = sys
            .run(alice, "/sbin/mount.ecryptfs_private", &[], &[])
            .unwrap();
        assert!(r.ok(), "{:?}: {}", mode, r.stdout);
        assert!(sys.kernel.vfs.find_mount("/home/alice/Private").is_some());
        // Another user cannot unmount alice's Private ("user" scope).
        let bob = sys.login("bob", "bobpw").unwrap();
        let r = sys
            .run(bob, "/bin/umount", &["/home/alice/Private"], &[])
            .unwrap();
        assert!(!r.ok(), "{:?}", mode);
        let r = sys
            .run(alice, "/bin/umount", &["/home/alice/Private"], &[])
            .unwrap();
        assert!(r.ok(), "{:?}: {}", mode, r.stdout);
    }
}
