//! Reusable closed-loop macro workload drivers (the paper's §6 setup).
//!
//! The Table 5 macro benchmarks drive whole services, not single
//! syscalls: ApacheBench hammers the web server, Postal hammers the
//! MTA. This module packages those loops as reusable drivers so the
//! micro-bench crate, the fleet macro-benchmark engine, and tests all
//! exercise the same code paths:
//!
//! - [`web_request`] — one HTTP round trip; the serving side stats,
//!   opens, reads, and closes the docroot file per request.
//! - [`mail_delivery`] — one SMTP round trip delivered with the
//!   atomic-replace pattern: stage the new spool image to a tmp file,
//!   then `rename` it over the spool (the crash-safe hot path the VFS
//!   rename-cycle fix protects).
//!
//! Every driver returns `KResult` and is total under fault injection:
//! a worker loop may count failures but never panics.

use crate::bins::mail;
use crate::system::{System, SystemMode};
use sim_kernel::cred::{Gid, Uid};
use sim_kernel::error::{Errno, KResult};
use sim_kernel::net::{Domain, Ipv4, SockType};
use sim_kernel::task::Pid;
use sim_kernel::vfs::Mode;

/// A started network service: the daemon task plus its listening socket.
#[derive(Clone, Copy, Debug)]
pub struct Service {
    /// The daemon task.
    pub pid: Pid,
    /// The listening fd announced at startup.
    pub listen_fd: i32,
    /// The TCP port clients connect to.
    pub port: u16,
}

/// Spawns a mode-appropriate session for a service user: a root login on
/// the legacy image (daemons start privileged and drop), the service
/// user's own session under Protego.
fn service_launch_session(sys: &mut System, uid: Uid, gid: Gid) -> KResult<Pid> {
    match sys.mode {
        SystemMode::Legacy => sys.login("root", "rootpw"),
        SystemMode::Protego => Ok(sys.service_session(uid, gid, "/bin/sh")),
    }
}

fn start_service(
    sys: &mut System,
    binary: &str,
    uid: Uid,
    gid: Gid,
    port: u16,
) -> KResult<Service> {
    let session = service_launch_session(sys, uid, gid)?;
    let (pid, startup) = sys.spawn_service(session, binary, &["--daemon"])?;
    let listen_fd = mail::parse_listen_fd(&startup).ok_or(Errno::EIO)?;
    Ok(Service {
        pid,
        listen_fd,
        port,
    })
}

/// Starts the image's MTA (`exim4` on port 25).
pub fn start_mail_service(sys: &mut System) -> KResult<Service> {
    start_service(sys, "/usr/sbin/exim4", Uid(mail::MAIL_UID), Gid(8), 25)
}

/// Starts the image's web server (`httpd` on port 80).
pub fn start_web_service(sys: &mut System) -> KResult<Service> {
    start_service(sys, "/usr/sbin/httpd", Uid(mail::WWW_UID), Gid(33), 80)
}

/// The web port shared-fleet worker `w` serves on. Ports are disjoint
/// per worker so concurrent workers on one kernel never steal each
/// other's connections out of a shared listen backlog; they sit above
/// 1024 so the Protego bind policy treats them as unrestricted.
pub fn shared_web_port(worker: usize) -> u16 {
    8080 + worker as u16
}

/// The SMTP port shared-fleet worker `w` serves on.
pub fn shared_mail_port(worker: usize) -> u16 {
    2525 + worker as u16
}

/// The spool name shared-fleet worker `w` delivers to: per-worker
/// recipients keep the atomic-replace `rename` commits of concurrent
/// workers on disjoint spool files.
pub fn worker_rcpt(worker: usize) -> String {
    format!("worker{}", worker)
}

/// Starts one worker's service instance on a *shared* kernel: instead of
/// exec-ing the daemon binary (which hard-binds the privileged port),
/// the service session binds the worker's own high port directly. Legacy
/// images keep the paper's privilege shape — the daemon session starts
/// as root, binds, and drops euid while retaining saved uid 0 (so
/// delivery still pays the seteuid round trip); Protego sessions run as
/// the service user throughout.
fn start_shared_service(
    sys: &mut System,
    binary: &str,
    uid: Uid,
    gid: Gid,
    port: u16,
) -> KResult<Service> {
    let pid = match sys.mode {
        SystemMode::Legacy => sys.login("root", "rootpw")?,
        SystemMode::Protego => sys.service_session(uid, gid, binary),
    };
    let fd = sys.process(pid).socket(Domain::Inet, SockType::Stream, 0)?;
    sys.process(pid).bind(fd, Ipv4::ANY, port)?;
    sys.process(pid).listen(fd)?;
    if sys.mode == SystemMode::Legacy {
        // The classic daemon etiquette: drop the effective uid after the
        // bind, keeping saved uid 0 for per-delivery raises (§4.4).
        sys.process(pid).seteuid(uid)?;
    }
    Ok(Service {
        pid,
        listen_fd: fd,
        port,
    })
}

/// Starts shared-fleet worker `w`'s web server on its own port.
pub fn start_shared_web_service(sys: &mut System, worker: usize) -> KResult<Service> {
    start_shared_service(
        sys,
        "/usr/sbin/httpd",
        Uid(mail::WWW_UID),
        Gid(33),
        shared_web_port(worker),
    )
}

/// Starts shared-fleet worker `w`'s MTA on its own port.
pub fn start_shared_mail_service(sys: &mut System, worker: usize) -> KResult<Service> {
    start_shared_service(
        sys,
        "/usr/sbin/exim4",
        Uid(mail::MAIL_UID),
        Gid(8),
        shared_mail_port(worker),
    )
}

/// Logs in the workload's client user.
pub fn client_session(sys: &mut System) -> KResult<Pid> {
    sys.login("alice", "alicepw")
}

/// One ApacheBench-style request: connect, GET, serve (stat + open +
/// read + close on the server), read the response, verify `200 OK`.
pub fn web_request(sys: &mut System, client: Pid, srv: Service) -> KResult<()> {
    let cli = sys
        .process(client)
        .socket(Domain::Inet, SockType::Stream, 0)?;
    let run = (|| {
        sys.process(client).connect(cli, Ipv4::LOOPBACK, srv.port)?;
        sys.process(client).send(cli, b"GET / HTTP/1.0\r\n\r\n")?;
        mail::httpd_serve_one(sys, srv.pid, srv.listen_fd)?;
        let resp = sys.process(client).recv(cli, 65536)?;
        let text = String::from_utf8_lossy(&resp);
        if !text.starts_with("HTTP/1.0 200 OK") || !text.contains("</html>") {
            return Err(Errno::EIO);
        }
        Ok(())
    })();
    let _ = sys.process(client).close(cli);
    run
}

/// One Postal-style delivery: SMTP round trip whose server side commits
/// the message with write-to-tmp + atomic-replace `rename` over the
/// spool, then acknowledges `250 OK`.
pub fn mail_delivery(
    sys: &mut System,
    client: Pid,
    srv: Service,
    rcpt: &str,
    body: &str,
) -> KResult<()> {
    let cli = sys
        .process(client)
        .socket(Domain::Inet, SockType::Stream, 0)?;
    let run = (|| {
        sys.process(client).connect(cli, Ipv4::LOOPBACK, srv.port)?;
        let msg = format!("MAIL TO:<{}>\n{}", rcpt, body);
        sys.process(client).send(cli, msg.as_bytes())?;
        serve_one_atomic(sys, srv.pid, srv.listen_fd)?;
        let reply = sys.process(client).recv(cli, 1024)?;
        if !String::from_utf8_lossy(&reply).starts_with("250") {
            return Err(Errno::EIO);
        }
        Ok(())
    })();
    let _ = sys.process(client).close(cli);
    run
}

/// Server half of [`mail_delivery`]: accept, parse, deliver atomically,
/// acknowledge.
fn serve_one_atomic(sys: &mut System, server: Pid, listen_fd: i32) -> KResult<()> {
    let conn = sys.process(server).accept(listen_fd)?;
    let run = (|| {
        let req = sys.process(server).recv(conn, 65536)?;
        let text = String::from_utf8_lossy(&req).to_string();
        let rcpt = text
            .lines()
            .next()
            .and_then(|l| l.strip_prefix("MAIL TO:<"))
            .and_then(|l| l.strip_suffix('>'))
            .ok_or(Errno::EINVAL)?
            .to_string();
        let body: String = text.lines().skip(1).collect::<Vec<_>>().join("\n");
        match deliver_atomic(sys, server, &rcpt, &body) {
            Ok(()) => {
                sys.process(server).send(conn, b"250 OK\r\n")?;
                Ok(())
            }
            Err(e) => {
                let _ = sys.process(server).send(conn, b"451 delivery failed\r\n");
                Err(e)
            }
        }
    })();
    let _ = sys.process(server).close(conn);
    run
}

/// Atomic-replace spool commit: read the current spool, stage the
/// appended image to `/var/mail/.<rcpt>.tmp`, `rename` it over the
/// spool. The legacy MTA raises its saved root euid around the commit
/// (the §4.4 pattern Protego obviates); the Protego MTA runs it with
/// nothing but the `mail` group.
pub fn deliver_atomic(sys: &mut System, server: Pid, rcpt: &str, body: &str) -> KResult<()> {
    sys.coverage.hit("/usr/sbin/exim4", "deliver");
    let legacy_raise = sys.mode == SystemMode::Legacy
        && sys
            .kernel
            .task(server)
            .map(|t| t.cred.suid.is_root() && !t.cred.euid.is_root())
            .unwrap_or(false);
    if legacy_raise {
        sys.process(server).seteuid(Uid::ROOT)?;
    }
    let spool = format!("/var/mail/{}", rcpt);
    let tmp = format!("/var/mail/.{}.tmp", rcpt);
    let result = (|| {
        let mut image = match sys.process(server).read_file(&spool) {
            Ok(data) => data,
            Err(Errno::ENOENT) => Vec::new(),
            Err(e) => return Err(e),
        };
        image.extend_from_slice(format!("From MTA: to {}\n{}\n\n", rcpt, body).as_bytes());
        sys.process(server).write_file(&tmp, &image, Mode(0o660))?;
        sys.process(server).rename(&tmp, &spool)
    })();
    if result.is_err() {
        sys.coverage.hit("/usr/sbin/exim4", "deliver_fail");
        // Never leave a stale staging file behind a failed commit.
        let _ = sys.process(server).unlink(&tmp);
    }
    if legacy_raise {
        let _ = sys.process(server).seteuid(Uid(mail::MAIL_UID));
    }
    result
}

/// The mail reader's half of the closed loop: truncates the spools the
/// way an MDA/user drains a real mailbox. Without a consumer the spool
/// grows without bound and [`deliver_atomic`]'s read-append-rename
/// commit gets slower with every message, making throughput depend on
/// how long the benchmark has been running. Uses the same legacy euid
/// raise as delivery so both modes pay symmetric costs.
pub fn drain_spools(sys: &mut System, srv: Service) {
    let legacy_raise = sys.mode == SystemMode::Legacy
        && sys
            .kernel
            .task(srv.pid)
            .map(|t| t.cred.suid.is_root() && !t.cred.euid.is_root())
            .unwrap_or(false);
    if legacy_raise {
        let _ = sys.process(srv.pid).seteuid(Uid::ROOT);
    }
    for rcpt in ["alice", "bob"] {
        let _ = sys.process(srv.pid).unlink(&format!("/var/mail/{}", rcpt));
    }
    if legacy_raise {
        let _ = sys.process(srv.pid).seteuid(Uid(mail::MAIL_UID));
    }
}

/// Drains one named spool — the shared fleet's per-worker consumer,
/// paying the same legacy euid raise as [`drain_spools`].
pub fn drain_spool(sys: &mut System, srv: Service, rcpt: &str) {
    let legacy_raise = sys.mode == SystemMode::Legacy
        && sys
            .kernel
            .task(srv.pid)
            .map(|t| t.cred.suid.is_root() && !t.cred.euid.is_root())
            .unwrap_or(false);
    if legacy_raise {
        let _ = sys.process(srv.pid).seteuid(Uid::ROOT);
    }
    let _ = sys.process(srv.pid).unlink(&format!("/var/mail/{}", rcpt));
    if legacy_raise {
        let _ = sys.process(srv.pid).seteuid(Uid(mail::MAIL_UID));
    }
}

/// Flushes connections stranded in `srv`'s listen backlog by a failed
/// request (e.g. a fault injected into the server's `accept`): without
/// this, every later request would be served the *previous* client's
/// connection and the loop would wedge permanently one-off. Returns how
/// many stale connections were reaped.
pub fn drain_backlog(sys: &mut System, srv: Service) -> usize {
    let mut reaped = 0;
    // Bounded: the backlog can only hold connections from failed ops,
    // and the drain itself may be fault-injected mid-way — the next
    // failed op simply drains again.
    for _ in 0..64 {
        match sys.process(srv.pid).accept(srv.listen_fd) {
            Ok(conn) => {
                let _ = sys.process(srv.pid).close(conn);
                reaped += 1;
            }
            Err(_) => break,
        }
    }
    reaped
}

/// Escalation artifacts only an exploit (or corrupted kernel) produces;
/// the macro workloads must never create any. Returns human-readable
/// descriptions of everything found, empty when clean — the fleet soak
/// asserts emptiness per worker. Looks through the kernel's inspection
/// read and the VFS, never through `dispatch`, so an armed interceptor
/// (fault plan, enforcing seccomp profile) cannot hide an artifact.
pub fn privileged_artifacts(sys: &mut System) -> Vec<String> {
    let root = sys.init_pid();
    let mut found = Vec::new();
    match sys.kernel.read_to_string(root, "/etc/shadow") {
        Ok(shadow) => {
            if shadow.contains("haxor") {
                found.push("rogue account in /etc/shadow".to_string());
            }
        }
        Err(e) => found.push(format!("/etc/shadow unreadable by root: {}", e)),
    }
    let vfs = &sys.kernel.vfs;
    if let Ok(r) = vfs.resolve(vfs.root(), "/tmp/rootshell") {
        if vfs.inode(r.ino).mode.is_setuid() {
            found.push("setuid-root /tmp/rootshell planted".to_string());
        }
    }
    if vfs.resolve(vfs.root(), "/lib/modules/evil.ko").is_ok() {
        found.push("rootkit module /lib/modules/evil.ko appeared".to_string());
    }
    found
}

/// The VFS namespace property invariants from the proptests, as a
/// non-panicking detector: a directory walk from the root must terminate
/// within the live-inode budget (no namespace cycles), and every
/// reachable inode must resolve back to itself at its own `path_of`
/// (live inodes stay root-reachable). Mount-covered nodes are exempt
/// from the ino equality — resolution legitimately lands in the mounted
/// filesystem — but must still resolve. Returns human-readable
/// descriptions of every violation, empty when the namespace is sound;
/// the stress tests assert emptiness and the fuzz oracle treats any
/// entry as a security failure.
pub fn vfs_namespace_violations(sys: &System) -> Vec<String> {
    let vfs = &sys.kernel.vfs;
    let root = vfs.root();
    let budget = vfs.inode_count() + 1;
    let mut found = Vec::new();
    let mut queue = vec![root];
    let mut seen = std::collections::BTreeSet::new();
    seen.insert(root);
    let mut visited = 0usize;
    while let Some(dir) = queue.pop() {
        visited += 1;
        if visited > budget {
            found.push(format!(
                "directory walk visited {} nodes with only {} live inodes: namespace cycle",
                visited,
                budget - 1
            ));
            return found;
        }
        // A mount covering this directory shadows its underlying
        // children (mounting over a non-empty directory legitimately
        // hides its contents until umount) — the shadowed subtree is
        // unreachable by design, not a namespace violation.
        if vfs.mount_covering(dir).is_some() {
            continue;
        }
        let names = match vfs.dir_names(dir) {
            Ok(n) => n,
            Err(_) => continue,
        };
        for name in names {
            let child = match vfs.dir_lookup(dir, &name) {
                Ok(Some(c)) => c,
                _ => continue,
            };
            let path = vfs.path_of(child);
            let resolved = match vfs.resolve_nofollow(root, &path) {
                Ok(r) => r,
                Err(e) => {
                    found.push(format!(
                        "live inode {:?} unresolvable at {:?}: {}",
                        child, path, e
                    ));
                    continue;
                }
            };
            let mounted =
                vfs.mount_covering(child).is_some() || vfs.mount_rooted_at(child).is_some();
            if !mounted && resolved.ino != child {
                found.push(format!(
                    "path {:?} resolves to a different inode than the tree walk",
                    path
                ));
            }
            let is_dir = vfs.inode(child).data.is_dir();
            if is_dir && seen.insert(child) {
                queue.push(child);
            }
        }
    }
    found
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::image::boot;

    #[test]
    fn web_request_serves_docroot_on_both_modes() {
        for mode in [SystemMode::Legacy, SystemMode::Protego] {
            let mut sys = boot(mode);
            let srv = start_web_service(&mut sys).expect("web service");
            let client = client_session(&mut sys).expect("client login");
            for _ in 0..5 {
                web_request(&mut sys, client, srv).expect("request");
            }
        }
    }

    #[test]
    fn mail_delivery_renames_atomically_on_both_modes() {
        for mode in [SystemMode::Legacy, SystemMode::Protego] {
            let mut sys = boot(mode);
            let srv = start_mail_service(&mut sys).expect("mail service");
            let client = client_session(&mut sys).expect("client login");
            for i in 0..4 {
                mail_delivery(&mut sys, client, srv, "bob", &format!("msg {}", i))
                    .expect("delivery");
            }
            let init = sys.init_pid();
            let spool = sys
                .kernel
                .read_to_string(init, "/var/mail/bob")
                .expect("spool");
            for i in 0..4 {
                assert!(
                    spool.contains(&format!("msg {}", i)),
                    "{:?}: {}",
                    mode,
                    spool
                );
            }
            // The staging file never survives a completed delivery.
            assert!(sys.kernel.process(init).stat("/var/mail/.bob.tmp").is_err());
            assert!(privileged_artifacts(&mut sys).is_empty());
        }
    }
}
