//! Network services: the `exim4` mail server and an `httpd` web server
//! (§4.1.3 and the ApacheBench/Postal workloads of Table 5).
//!
//! Both need a port below 1024. On stock Linux they start as root (or
//! setuid) to bind and then drop privilege; under Protego they start as
//! their service users and `/etc/bind` allocates the port to the
//! (binary, uid) application instance.

use super::{fail, CatalogItem};
use crate::system::{BinEntry, Proc, RunResult, System, SystemMode};
use sim_kernel::cred::Uid;
use sim_kernel::error::{Errno, KResult};
use sim_kernel::net::{Domain, Ipv4, SockType};
use sim_kernel::task::Pid;

/// The uid the mail service runs under (`mail`).
pub const MAIL_UID: u32 = 8;
/// The uid the web service runs under (`www-data`).
pub const WWW_UID: u32 = 33;

/// Catalog entries for this module.
pub fn catalog() -> Vec<CatalogItem> {
    vec![
        CatalogItem {
            path: "/usr/sbin/exim4",
            entry: BinEntry {
                func: exim_main,
                points: &[
                    "start",
                    "parse_args",
                    "bind_ok",
                    "bind_fail",
                    "drop_priv",
                    "deliver",
                    "forward_used",
                    "forward_unreadable",
                    "deliver_fail",
                ],
            },
            // Historically exim/sendmail ship setuid root.
            setuid: true,
        },
        CatalogItem {
            path: "/usr/sbin/httpd",
            entry: BinEntry {
                func: httpd_main,
                points: &["start", "bind_ok", "bind_fail", "drop_priv"],
            },
            setuid: false,
        },
        // A compromised/rogue service used to demonstrate port
        // exclusivity: it tries to take port 25 while being the web
        // server binary.
        CatalogItem {
            path: "/usr/sbin/rogue-mta",
            entry: BinEntry {
                func: rogue_main,
                points: &["start", "bind_ok", "bind_fail"],
            },
            setuid: false,
        },
    ]
}

fn bind_service(p: &mut Proc<'_>, prog: &str, port: u16, drop_to: u32) -> Result<i32, i32> {
    let fd = match p.os().socket(Domain::Inet, SockType::Stream, 0) {
        Ok(fd) => fd,
        Err(e) => return Err(fail(p, prog, "socket", e)),
    };
    match p.os().bind(fd, Ipv4::ANY, port) {
        Ok(()) => p.cov("bind_ok"),
        Err(e) => {
            p.cov("bind_fail");
            return Err(fail(p, prog, &format!("bind {}", port), e));
        }
    }
    if let Err(e) = p.os().listen(fd) {
        return Err(fail(p, prog, "listen", e));
    }
    // Legacy etiquette: drop the *effective* uid after the privileged
    // bind, keeping the saved uid 0 — classic MTAs regain root per
    // delivery (to read `.forward` across DAC, §4.4). That retained
    // privilege is exactly the risk Protego removes.
    if p.sys.mode == SystemMode::Legacy && p.euid().is_root() {
        p.cov("drop_priv");
        let _ = p.os().seteuid(Uid(drop_to));
    }
    p.println(&format!("{}: listening on port {} (fd {})", prog, port, fd));
    Ok(fd)
}

/// `exim4 --daemon` — binds port 25 and leaves the listening socket open;
/// the event loop is driven by [`exim_serve_one`].
pub fn exim_main(p: &mut Proc<'_>) -> i32 {
    p.cov("start");
    // Historical exploit site: the MTA's setuid entry path
    // (CVE-2010-2023/2024, and sendmail's CVE-1999-0130/0203 class).
    p.vuln("parse_args");
    if p.args.first().map(String::as_str) != Some("--daemon") {
        p.println("usage: exim4 --daemon");
        return 2;
    }
    match bind_service(p, "exim4", 25, MAIL_UID) {
        Ok(_) => 0,
        Err(code) => code,
    }
}

/// `httpd --daemon` — binds port 80.
pub fn httpd_main(p: &mut Proc<'_>) -> i32 {
    p.cov("start");
    if p.args.first().map(String::as_str) != Some("--daemon") {
        p.println("usage: httpd --daemon");
        return 2;
    }
    match bind_service(p, "httpd", 80, WWW_UID) {
        Ok(_) => 0,
        Err(code) => code,
    }
}

/// A malicious service that, having been given port 80's identity, also
/// tries to become the mail server (§4.1.3's threat).
pub fn rogue_main(p: &mut Proc<'_>) -> i32 {
    p.cov("start");
    let fd = match p.os().socket(Domain::Inet, SockType::Stream, 0) {
        Ok(fd) => fd,
        Err(e) => return fail(p, "rogue-mta", "socket", e),
    };
    match p.os().bind(fd, Ipv4::ANY, 25) {
        Ok(()) => {
            p.cov("bind_ok");
            p.println("rogue-mta: captured port 25!");
            0
        }
        Err(e) => {
            p.cov("bind_fail");
            fail(p, "rogue-mta", "bind 25", e)
        }
    }
}

// ---------------------------------------------------------------------
// Service event loops (driven by tests, benches, and examples)
// ---------------------------------------------------------------------

/// Handles one SMTP connection on the exim daemon task: accepts, reads
/// `MAIL TO:<user>\n<body>`, delivers, replies `250 OK`.
pub fn exim_serve_one(sys: &mut System, server: Pid, listen_fd: i32) -> KResult<String> {
    let conn = sys.process(server).accept(listen_fd)?;
    let req = sys.process(server).recv(conn, 65536)?;
    let text = String::from_utf8_lossy(&req).to_string();
    let reply = match deliver(sys, server, &text) {
        Ok(log) => {
            sys.process(server).send(conn, b"250 OK\r\n")?;
            log
        }
        Err(e) => {
            sys.process(server).send(conn, b"451 delivery failed\r\n")?;
            format!("delivery failed: {}", e)
        }
    };
    sys.process(server).close(conn)?;
    Ok(reply)
}

/// Mail delivery (the §4.4 `.forward` case): consult the recipient's
/// `~/.forward` if readable; on Protego the unprivileged MDA may not read
/// it, in which case a diagnostic goes to the log and delivery proceeds
/// to the spool.
fn deliver(sys: &mut System, server: Pid, text: &str) -> KResult<String> {
    let rcpt = text
        .lines()
        .next()
        .and_then(|l| l.strip_prefix("MAIL TO:<"))
        .and_then(|l| l.strip_suffix('>'))
        .ok_or(Errno::EINVAL)?
        .to_string();
    let body: String = text.lines().skip(1).collect::<Vec<_>>().join("\n");
    sys.coverage.hit("/usr/sbin/exim4", "deliver");

    // The legacy MTA regains root for delivery (its saved uid is still
    // 0); the Protego MTA has nothing to regain.
    let legacy_raise = sys.mode == SystemMode::Legacy
        && sys
            .kernel
            .task(server)
            .map(|t| t.cred.suid.is_root() && !t.cred.euid.is_root())
            .unwrap_or(false);
    if legacy_raise {
        sys.process(server).seteuid(Uid::ROOT)?;
    }

    let forward_path = format!("/home/{}/.forward", rcpt);
    let target = match sys.process(server).read_to_string(&forward_path) {
        Ok(fwd) => {
            sys.coverage.hit("/usr/sbin/exim4", "forward_used");
            let t = fwd.trim().to_string();
            if t.is_empty() {
                format!("/var/mail/{}", rcpt)
            } else {
                t
            }
        }
        Err(Errno::EACCES) => {
            // Protego's answer: a clear warning in the log instead of a
            // root-powered DAC bypass (§4.4).
            sys.coverage.hit("/usr/sbin/exim4", "forward_unreadable");
            let warn = format!(
                "warning: cannot read {} (permission denied); delivering to spool\n",
                forward_path
            );
            let _ = sys
                .kernel
                .process(server)
                .append_file("/var/log/exim4/mainlog", warn.as_bytes());
            format!("/var/mail/{}", rcpt)
        }
        Err(_) => format!("/var/mail/{}", rcpt),
    };
    let line = format!("From MTA: to {}\n{}\n\n", rcpt, body);
    let result = match sys.process(server).append_file(&target, line.as_bytes()) {
        Ok(()) => Ok(format!("delivered to {}", target)),
        Err(e) => {
            sys.coverage.hit("/usr/sbin/exim4", "deliver_fail");
            Err(e)
        }
    };
    if legacy_raise {
        let _ = sys.process(server).seteuid(Uid(MAIL_UID));
    }
    result
}

/// Sends one message through the local SMTP port from `session`; returns
/// the server's reply line.
pub fn smtp_send(
    sys: &mut System,
    session: Pid,
    server: Pid,
    listen_fd: i32,
    rcpt: &str,
    body: &str,
) -> KResult<String> {
    let cli = sys
        .process(session)
        .socket(Domain::Inet, SockType::Stream, 0)?;
    sys.process(session).connect(cli, Ipv4::LOOPBACK, 25)?;
    let msg = format!("MAIL TO:<{}>\n{}", rcpt, body);
    sys.process(session).send(cli, msg.as_bytes())?;
    exim_serve_one(sys, server, listen_fd)?;
    let reply = sys.process(session).recv(cli, 1024)?;
    sys.process(session).close(cli)?;
    Ok(String::from_utf8_lossy(&reply).to_string())
}

/// The page served when the docroot is missing or unreadable.
pub const HTTPD_FALLBACK_PAGE: &str = "<html><body>It works!</body></html>";

/// The docroot file `httpd` serves.
pub const HTTPD_DOCROOT_INDEX: &str = "/var/www/index.html";

/// Handles one HTTP connection on the httpd task: accepts, reads the
/// request, and serves the docroot index — a stat + open + read + close
/// per request, the per-request syscall mix ApacheBench measures —
/// falling back to a fixed page if the docroot is absent.
pub fn httpd_serve_one(sys: &mut System, server: Pid, listen_fd: i32) -> KResult<()> {
    let conn = sys.process(server).accept(listen_fd)?;
    let _req = sys.process(server).recv(conn, 65536)?;
    let mut p = sys.process(server);
    let body = match p.stat(HTTPD_DOCROOT_INDEX) {
        Ok(_) => p
            .read_to_string(HTTPD_DOCROOT_INDEX)
            .unwrap_or_else(|_| HTTPD_FALLBACK_PAGE.to_string()),
        Err(_) => HTTPD_FALLBACK_PAGE.to_string(),
    };
    let resp = format!(
        "HTTP/1.0 200 OK\r\nContent-Length: {}\r\n\r\n{}",
        body.len(),
        body
    );
    sys.process(server).send(conn, resp.as_bytes())?;
    sys.process(server).close(conn)
}

/// One client HTTP request against the local httpd; returns the response.
pub fn http_get(sys: &mut System, session: Pid, server: Pid, listen_fd: i32) -> KResult<String> {
    let cli = sys
        .process(session)
        .socket(Domain::Inet, SockType::Stream, 0)?;
    sys.process(session).connect(cli, Ipv4::LOOPBACK, 80)?;
    sys.process(session).send(cli, b"GET / HTTP/1.0\r\n\r\n")?;
    httpd_serve_one(sys, server, listen_fd)?;
    let resp = sys.process(session).recv(cli, 65536)?;
    sys.process(session).close(cli)?;
    Ok(String::from_utf8_lossy(&resp).to_string())
}

/// Extracts the listening fd a daemon announced in its startup output.
pub fn parse_listen_fd(startup: &RunResult) -> Option<i32> {
    startup
        .stdout
        .split("(fd ")
        .nth(1)?
        .split(')')
        .next()?
        .parse()
        .ok()
}
