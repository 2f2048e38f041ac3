//! §4.1.2's verification, simulated: an unprivileged pppd brings up a
//! link and routes a previously-unreachable network; the machine can then
//! reach "remote websites" over it. Conflicting routes degrade to
//! tty-only access.

use protego::kernel::net::{Domain, Ipv4, RemoteHost, SockType};
use protego::userland::{boot, SystemMode};
use std::collections::BTreeSet;

#[test]
fn unprivileged_pppd_makes_a_network_reachable() {
    let mut sys = boot(SystemMode::Protego);
    let root = sys.login("root", "rootpw").unwrap();
    let alice = sys.login("alice", "alicepw").unwrap();

    // A web server living behind the (not yet routed) PPP network.
    let mut open = BTreeSet::new();
    open.insert(80);
    sys.kernel.simnet.add_host(
        Ipv4::new(192, 168, 99, 5),
        RemoteHost {
            hops: vec![],
            answers_ping: true,
            tcp_open: open,
            udp_unreachable: true,
            answers_arp: false,
        },
    );
    // Remove the default route so reachability hinges on pppd's route.
    sys.kernel
        .process(root)
        .ioctl_route(protego::kernel::syscall::RouteOp::Del {
            dest: Ipv4::ANY,
            prefix: 0,
        })
        .unwrap();

    // Before the link: unreachable.
    let cli = sys
        .kernel
        .process(alice)
        .socket(Domain::Inet, SockType::Stream, 0)
        .unwrap();
    assert!(sys
        .kernel
        .process(alice)
        .connect(cli, Ipv4::new(192, 168, 99, 5), 80)
        .is_err());

    // alice (in the dialout group, no privilege) brings the link up.
    let r = sys
        .run(alice, "/usr/sbin/pppd", &["192.168.99.0", "24"], &[])
        .unwrap();
    assert!(r.ok(), "{}", r.stdout);
    assert!(r.stdout.contains("link up"));

    // The website is now reachable — through a route alice created.
    let cli = sys
        .kernel
        .process(alice)
        .socket(Domain::Inet, SockType::Stream, 0)
        .unwrap();
    sys.kernel
        .process(alice)
        .connect(cli, Ipv4::new(192, 168, 99, 5), 80)
        .unwrap();

    // Only the route's creator (or root) may tear it down.
    let bob = sys.login("bob", "bobpw").unwrap();
    assert!(sys
        .kernel
        .process(bob)
        .ioctl_route(protego::kernel::syscall::RouteOp::Del {
            dest: Ipv4::new(192, 168, 99, 0),
            prefix: 24,
        })
        .is_err());
    sys.kernel
        .process(alice)
        .ioctl_route(protego::kernel::syscall::RouteOp::Del {
            dest: Ipv4::new(192, 168, 99, 0),
            prefix: 24,
        })
        .unwrap();
}

#[test]
fn conflicting_ppp_route_degrades_to_tty_only() {
    let mut sys = boot(SystemMode::Protego);
    let alice = sys.login("alice", "alicepw").unwrap();
    let before = sys.kernel.routes.read().len();
    // 10.0.0.0/8 overlaps the boot-time default/LAN routing.
    let r = sys
        .run(alice, "/usr/sbin/pppd", &["10.0.0.0", "8"], &[])
        .unwrap();
    assert!(r.ok(), "{}", r.stdout);
    assert!(r.stdout.contains("no route"), "{}", r.stdout);
    // No routing state changed (Table 4: protect unrelated applications).
    assert_eq!(sys.kernel.routes.read().len(), before);
}

#[test]
fn hardware_reset_stays_privileged() {
    use protego::kernel::dev::ModemOpt;
    use protego::kernel::syscall::{IoctlCmd, OpenFlags};
    let mut sys = boot(SystemMode::Protego);
    let alice = sys.login("alice", "alicepw").unwrap();
    let fd = sys
        .kernel
        .process(alice)
        .open("/dev/ttyS0", OpenFlags::read_write())
        .unwrap();
    // Safe option: granted by policy.
    sys.kernel
        .process(alice)
        .ioctl(fd, IoctlCmd::Modem(ModemOpt::Baud(57600)))
        .unwrap();
    // Unsafe option: still root-only.
    assert!(sys
        .kernel
        .process(alice)
        .ioctl(fd, IoctlCmd::Modem(ModemOpt::HardwareReset))
        .is_err());
}
