//! Macro workloads of Table 5: the Postal mail benchmark, the kernel
//! compile, and ApacheBench.

use crate::Fixture;
use sim_kernel::vfs::Mode;
use userland::bins::mail;
use userland::workload;

/// Result of a throughput workload.
#[derive(Clone, Copy, Debug)]
pub struct Throughput {
    /// Operations completed.
    pub ops: u64,
    /// Wall-clock nanoseconds.
    pub elapsed_ns: u128,
}

impl Throughput {
    /// Operations per simulated minute of wall-clock time.
    pub fn per_minute(&self) -> f64 {
        self.ops as f64 / (self.elapsed_ns as f64 / 60e9)
    }

    /// Nanoseconds per operation.
    pub fn ns_per_op(&self) -> f64 {
        self.elapsed_ns as f64 / self.ops as f64
    }
}

/// Starts the image's mail service and returns (server task, listen fd).
pub fn start_mta(f: &mut Fixture) -> (sim_kernel::Pid, i32) {
    let srv = workload::start_mail_service(&mut f.sys).expect("spawn mta");
    (srv.pid, srv.listen_fd)
}

/// The Postal benchmark: `messages` SMTP round-trips through the MTA.
pub fn postal(f: &mut Fixture, server: sim_kernel::Pid, fd: i32, messages: u64) -> Throughput {
    let start = std::time::Instant::now();
    for i in 0..messages {
        let rcpt = if i % 2 == 0 { "alice" } else { "bob" };
        let _ = mail::smtp_send(
            &mut f.sys,
            f.user,
            server,
            fd,
            rcpt,
            "postal benchmark body",
        );
    }
    Throughput {
        ops: messages,
        elapsed_ns: start.elapsed().as_nanos(),
    }
}

/// The kernel-compile stand-in: per "translation unit", fork+exec a
/// compiler process that reads the source and writes an object file —
/// the fork/exec/open/read/write mix that dominates a real build.
pub fn compile(f: &mut Fixture, units: u64) -> Throughput {
    // Lay out the "source tree" once.
    let mut u = f.sys.kernel.process(f.user);
    for i in 0..units {
        let _ = u.write_file(
            &format!("/tmp/src{}.c", i),
            b"int main(void) { return 0; }\n",
            Mode(0o644),
        );
    }
    let start = std::time::Instant::now();
    for i in 0..units {
        // cc: fork + exec + read source + write object.
        let _ = f.sys.run(f.user, "/bin/sh", &[], &[]);
        let mut u = f.sys.kernel.process(f.user);
        let src = u.read_file(&format!("/tmp/src{}.c", i)).unwrap_or_default();
        let _ = u.write_file(&format!("/tmp/src{}.o", i), &src, Mode(0o644));
    }
    let t = Throughput {
        ops: units,
        elapsed_ns: start.elapsed().as_nanos(),
    };
    let mut u = f.sys.kernel.process(f.user);
    for i in 0..units {
        let _ = u.unlink(&format!("/tmp/src{}.c", i));
        let _ = u.unlink(&format!("/tmp/src{}.o", i));
    }
    t
}

/// Starts the image's web service and returns (server task, listen fd).
pub fn start_httpd(f: &mut Fixture) -> (sim_kernel::Pid, i32) {
    let srv = workload::start_web_service(&mut f.sys).expect("spawn httpd");
    (srv.pid, srv.listen_fd)
}

/// ApacheBench: `requests` HTTP round-trips issued in batches of
/// `concurrency` open connections (connect all, serve all, read all).
pub fn apache_bench(
    f: &mut Fixture,
    server: sim_kernel::Pid,
    fd: i32,
    requests: u64,
    concurrency: u64,
) -> Throughput {
    use sim_kernel::net::{Domain, Ipv4, SockType};
    let start = std::time::Instant::now();
    let mut done = 0u64;
    while done < requests {
        let batch = concurrency.min(requests - done);
        let mut clients = Vec::with_capacity(batch as usize);
        for _ in 0..batch {
            let mut u = f.sys.kernel.process(f.user);
            if let Ok(cli) = u.socket(Domain::Inet, SockType::Stream, 0) {
                if u.connect(cli, Ipv4::LOOPBACK, 80).is_ok() {
                    let _ = u.send(cli, b"GET / HTTP/1.0\r\n\r\n");
                    clients.push(cli);
                }
            }
        }
        for _ in 0..clients.len() {
            let _ = mail::httpd_serve_one(&mut f.sys, server, fd);
        }
        let mut u = f.sys.kernel.process(f.user);
        for cli in clients {
            let _ = u.recv(cli, 65536);
            let _ = u.close(cli);
            done += 1;
        }
    }
    Throughput {
        ops: requests,
        elapsed_ns: start.elapsed().as_nanos(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixture;
    use userland::SystemMode;

    #[test]
    fn postal_runs_on_both_modes() {
        for mode in [SystemMode::Legacy, SystemMode::Protego] {
            let mut f = fixture(mode);
            let (mta, fd) = start_mta(&mut f);
            let t = postal(&mut f, mta, fd, 10);
            assert_eq!(t.ops, 10);
            // Mail actually landed.
            let init = f.sys.init_pid();
            let spool = f.sys.kernel.read_to_string(init, "/var/mail/bob").unwrap();
            assert!(spool.contains("postal benchmark body"));
        }
    }

    #[test]
    fn compile_runs_and_cleans_up() {
        let mut f = fixture(SystemMode::Protego);
        let t = compile(&mut f, 5);
        assert_eq!(t.ops, 5);
        assert!(f
            .sys
            .kernel
            .process(f.user)
            .read_file("/tmp/src0.o")
            .is_err());
    }

    #[test]
    fn apache_bench_serves_all_requests() {
        for mode in [SystemMode::Legacy, SystemMode::Protego] {
            let mut f = fixture(mode);
            let (web, fd) = start_httpd(&mut f);
            let t = apache_bench(&mut f, web, fd, 20, 5);
            assert_eq!(t.ops, 20);
            assert!(t.ns_per_op() > 0.0);
        }
    }
}
