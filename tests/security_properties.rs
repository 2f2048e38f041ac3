//! System-level security invariants on the Protego image: running the
//! whole functional battery leaves no privilege residue an unprivileged
//! user could harvest.

use protego::kernel::cred::Uid;
use protego::userland::suite::{run_functional_suite, run_service_suite};
use protego::userland::{boot, SystemMode};

#[test]
fn no_setuid_root_files_anywhere_after_full_suite() {
    let mut sys = boot(SystemMode::Protego);
    run_functional_suite(&mut sys);
    run_service_suite(&mut sys);
    let init = sys.init_pid();
    // Walk the common bin/tmp directories: nothing setuid-root may exist.
    for dir in ["/bin", "/sbin", "/usr/bin", "/usr/sbin", "/usr/lib", "/tmp"] {
        for name in sys.kernel.process(init).readdir(dir).unwrap_or_default() {
            let path = format!("{}/{}", dir, name);
            if let Ok(st) = sys.kernel.process(init).stat(&path) {
                assert!(
                    !(st.mode.is_setuid() && st.uid.is_root()),
                    "{} is setuid root on Protego",
                    path
                );
            }
        }
    }
}

#[test]
fn shadow_integrity_survives_the_suite() {
    let mut sys = boot(SystemMode::Protego);
    run_functional_suite(&mut sys);
    let init = sys.init_pid();
    let shadow = sys.kernel.read_to_string(init, "/etc/shadow").unwrap();
    // Only the image's accounts appear — no injected entries.
    for line in shadow.lines() {
        let name = line.split(':').next().unwrap();
        assert!(
            protego::userland::image::USERS
                .iter()
                .any(|u| u.name == name),
            "unexpected shadow entry '{}'",
            name
        );
    }
}

#[test]
fn unprivileged_sessions_hold_no_capabilities_after_suite() {
    let mut sys = boot(SystemMode::Protego);
    let alice = sys.login("alice", "alicepw").unwrap();
    let bob = sys.login("bob", "bobpw").unwrap();
    run_functional_suite(&mut sys);
    for pid in [alice, bob] {
        let cred = &sys.kernel.task(pid).unwrap().cred;
        assert!(cred.caps.is_empty(), "{:?} gained caps", pid);
        assert!(!cred.euid.is_root());
    }
}

#[test]
fn direct_lateral_setuid_without_rule_fails() {
    let mut sys = boot(SystemMode::Protego);
    let alice = sys.login("alice", "alicepw").unwrap();
    // alice -> carol: no sudoers rule, su rule demands carol's password,
    // which alice does not type.
    assert!(sys.kernel.process(alice).setuid(Uid(1002)).is_err());
    assert_eq!(sys.kernel.task(alice).unwrap().cred.euid, Uid(1000));
}

#[test]
fn pending_transition_cannot_be_inherited_by_children() {
    let mut sys = boot(SystemMode::Protego);
    let bob = sys.login("bob", "bobpw").unwrap();
    sys.kernel.task_mut(bob).unwrap().type_input("bobpw");
    // bob's lpr rule records a pending transition...
    sys.kernel.process(bob).setuid(Uid(1000)).unwrap();
    assert!(sys.kernel.task(bob).unwrap().pending_setuid.is_some());
    // ...which a forked child must NOT carry.
    let child = sys.kernel.process(bob).fork().unwrap();
    assert!(sys.kernel.task(child).unwrap().pending_setuid.is_none());
    // The child execs the permitted binary: no transition happens.
    sys.kernel.process(child).execve("/usr/bin/lpr").unwrap();
    assert_eq!(sys.kernel.task(child).unwrap().cred.euid, Uid(1001));
}

#[test]
fn shadow_fragment_handles_are_cloexec() {
    let mut sys = boot(SystemMode::Protego);
    let alice = sys.login("alice", "alicepw").unwrap();
    sys.kernel.task_mut(alice).unwrap().type_input("alicepw");
    let fd = sys
        .kernel
        .process(alice)
        .open(
            "/etc/shadows/alice",
            protego::kernel::syscall::OpenFlags::read_only(),
        )
        .unwrap();
    assert!(sys.kernel.task(alice).unwrap().fd(fd).unwrap().cloexec);
    // After exec, the handle is gone (§4.4's inheritance restriction).
    sys.kernel.process(alice).execve("/bin/sh").unwrap();
    assert!(sys.kernel.task(alice).unwrap().fd(fd).is_err());
}

#[test]
fn host_key_never_readable_except_by_keysign() {
    let mut sys = boot(SystemMode::Protego);
    let root = sys.login("root", "rootpw").unwrap();
    let alice = sys.login("alice", "alicepw").unwrap();
    // alice's shell: denied.
    assert!(sys
        .kernel
        .read_to_string(alice, "/etc/ssh/ssh_host_key")
        .is_err());
    // even root's shell: denied — the rule binds the *binary* identity.
    assert!(sys
        .kernel
        .read_to_string(root, "/etc/ssh/ssh_host_key")
        .is_err());
    // the named binary, run by an unprivileged user: signs successfully.
    let r = sys
        .run(alice, "/usr/lib/ssh-keysign", &["challenge"], &[])
        .unwrap();
    assert!(r.ok(), "{}", r.stdout);
    assert!(r.stdout.contains("signature:"));
}
