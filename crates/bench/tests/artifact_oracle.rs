//! The privileged-artifact oracle must see through an armed interceptor
//! chain. It looks through the kernel's inspection read and the VFS,
//! never through `dispatch`, so neither a fault plan nor init's
//! enforcing seccomp profile (which allows no `stat`) can hide what an
//! exploit left behind.

use sim_kernel::cred::Uid;
use sim_kernel::seccomp::SeccompMode;
use sim_kernel::syscall::FaultConfig;
use sim_kernel::vfs::Mode;
use userland::workload::privileged_artifacts;
use userland::{boot, SystemMode};

const SECCOMP_PROFILES: &str = include_str!("../../../SECCOMP_PROFILES.json");

#[test]
fn artifacts_are_reported_under_faults_and_enforcing_seccomp() {
    let mut sys = boot(SystemMode::Protego);
    let init = sys.init_pid();

    // Plant both artifacts the way the exploit payload does.
    let mut os = sys.process(init);
    os.append_file("/etc/shadow", b"haxor:$sim$hx$0:19000:0:99999:7:::\n")
        .unwrap();
    os.write_file("/tmp/rootshell", b"#!sim-shell", Mode(0o755))
        .unwrap();
    os.chown("/tmp/rootshell", Some(Uid::ROOT), None).unwrap();
    os.chmod("/tmp/rootshell", Mode(0o4755)).unwrap();

    // Enforce the committed profiles (init's among them) and fail every
    // fault-eligible call.
    let specs = bench::seccomp_derive::parse_profiles(SECCOMP_PROFILES).unwrap();
    assert!(specs.iter().any(|s| s.binary == "/sbin/init"));
    sys.kernel.seccomp.load_profiles(&specs).unwrap();
    sys.kernel.seccomp.set_mode(SeccompMode::Enforce);
    sys.attach_seccomp();
    sys.attach_fault_injector(FaultConfig::storm(1, 1));
    assert_eq!(sys.kernel.task(init).unwrap().binary, "/sbin/init");
    // The syscall path is closed to init now...
    assert!(sys.process(init).stat("/tmp/rootshell").is_err());
    assert!(sys.process(init).read_to_string("/etc/shadow").is_err());

    // ...but the oracle still reports both artifacts.
    let found = privileged_artifacts(&mut sys);
    assert!(
        found.contains(&"rogue account in /etc/shadow".to_string()),
        "{:?}",
        found
    );
    assert!(
        found.contains(&"setuid-root /tmp/rootshell planted".to_string()),
        "{:?}",
        found
    );
}
