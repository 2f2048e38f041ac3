//! §4.6 / Table 8 extension: unprivileged user namespaces (Linux >= 3.8)
//! obviate the setuid sandbox helpers — "the security implications are
//! now better understood".

use protego::kernel::task::NsKind;
use protego::userland::{boot, SystemMode};

#[test]
fn sandbox_needs_setuid_only_on_the_old_kernel() {
    // Legacy image = Linux 3.6: the helper ships setuid and works.
    let mut legacy = boot(SystemMode::Legacy);
    let init = legacy.init_pid();
    let st = legacy
        .kernel
        .process(init)
        .stat("/usr/lib/chromium-sandbox")
        .unwrap();
    assert!(st.mode.is_setuid());
    let alice = legacy.login("alice", "alicepw").unwrap();
    let r = legacy
        .run(alice, "/usr/lib/chromium-sandbox", &[], &[])
        .unwrap();
    assert!(r.ok(), "{}", r.stdout);

    // Strip the bit (hardening): the old kernel refuses unprivileged
    // namespace creation.
    let root = legacy.login("root", "rootpw").unwrap();
    legacy
        .kernel
        .process(root)
        .chmod(
            "/usr/lib/chromium-sandbox",
            protego::kernel::vfs::Mode(0o755),
        )
        .unwrap();
    let r = legacy
        .run(alice, "/usr/lib/chromium-sandbox", &[], &[])
        .unwrap();
    assert!(!r.ok());
    assert!(r.stdout.contains("user namespace"));

    // The Protego image models >= 3.8: no bit, and it still works.
    let mut protego = boot(SystemMode::Protego);
    let init = protego.init_pid();
    let st = protego
        .kernel
        .process(init)
        .stat("/usr/lib/chromium-sandbox")
        .unwrap();
    assert!(!st.mode.is_setuid());
    let alice = protego.login("alice", "alicepw").unwrap();
    let r = protego
        .run(alice, "/usr/lib/chromium-sandbox", &[], &[])
        .unwrap();
    assert!(r.ok(), "{}", r.stdout);
}

#[test]
fn inner_namespaces_gate_on_the_user_namespace() {
    let mut sys = boot(SystemMode::Protego);
    let alice = sys.login("alice", "alicepw").unwrap();
    // Without a user namespace, mount/net namespaces stay privileged.
    assert!(sys.kernel.process(alice).unshare(NsKind::Net).is_err());
    sys.kernel.process(alice).unshare(NsKind::User).unwrap();
    sys.kernel.process(alice).unshare(NsKind::Net).unwrap();
    assert!(sys.kernel.task(alice).unwrap().in_namespace(NsKind::Net));
}

#[test]
fn namespaces_do_not_replace_protego_for_shared_resources() {
    // The related-work point: inside a sandbox a process still cannot
    // touch *shared* abstractions — mounting over the real /etc is
    // refused the same as outside.
    let mut sys = boot(SystemMode::Protego);
    let alice = sys.login("alice", "alicepw").unwrap();
    sys.kernel.process(alice).unshare(NsKind::User).unwrap();
    sys.kernel.process(alice).unshare(NsKind::Mount).unwrap();
    assert!(sys
        .kernel
        .process(alice)
        .mount("/dev/sdb1", "/etc", "vfat", "rw")
        .is_err());
    // While the Protego whitelist still admits what policy allows.
    sys.kernel
        .process(alice)
        .mount("/dev/cdrom", "/mnt/cdrom", "iso9660", "ro")
        .unwrap();
}
