//! The userland runtime: a booted system image, a registry of program
//! images, and the process model that runs them against the simulated
//! kernel.
//!
//! Binaries are Rust functions invoked when a task `exec`s their path —
//! the kernel performs all credential mathematics and policy checks; the
//! function is the program body. The runtime also carries the
//! vulnerability-injection machinery used by the `exploits` crate
//! (Table 6): a payload can be armed to run *at a named point inside a
//! binary, with the binary's live credentials*, which is precisely what a
//! memory-corruption exploit achieves.

use crate::coverage::Coverage;
use sim_kernel::cred::{Credentials, Gid, Uid};
use sim_kernel::error::{Errno, KResult};
use sim_kernel::kernel::{Kernel, SharedKernel};
use sim_kernel::syscall::OpenFlags;
use sim_kernel::syscall::Process;
use sim_kernel::task::Pid;
use sim_kernel::vfs::Mode;

/// Which of the paper's two systems this image is.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SystemMode {
    /// Stock Linux 3.6 + AppArmor, setuid-to-root binaries.
    Legacy,
    /// Protego: no setuid bits, policies in the kernel.
    Protego,
}

/// A program image.
pub type BinFn = fn(&mut Proc<'_>) -> i32;

/// Registry entry: the program body plus its declared coverage points.
#[derive(Clone)]
pub struct BinEntry {
    /// The program body.
    pub func: BinFn,
    /// All coverage/vulnerability points the binary contains.
    pub points: &'static [&'static str],
}

/// An armed exploit: attacker-controlled code that runs when `binary`
/// reaches `point`, with the binary's credentials at that moment.
pub struct Exploit {
    /// Target binary path.
    pub binary: String,
    /// Vulnerability point name.
    pub point: &'static str,
    /// The attacker's payload.
    pub payload: fn(&mut Proc<'_>),
}

/// Outcome records appended by exploit payloads.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AttackEvent {
    /// Which privileged effect was attempted.
    pub action: String,
    /// Whether the kernel permitted it.
    pub succeeded: bool,
    /// Effective uid at the time of the attempt.
    pub euid: u32,
}

/// Result of running a command.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RunResult {
    /// Exit code (0 = success; errno value on failure by convention).
    pub code: i32,
    /// Captured stdout+stderr.
    pub stdout: String,
}

impl RunResult {
    /// Whether the command exited 0.
    pub fn ok(&self) -> bool {
        self.code == 0
    }
}

/// A booted system: kernel + program registry + instrumentation.
///
/// The kernel is held through a [`SharedKernel`] handle, so a fleet of
/// worker threads can drive **one** kernel concurrently: build the image
/// once, then hand each worker its own [`System::worker_view`].
pub struct System {
    /// The simulated kernel (a cloneable, thread-shareable handle).
    pub kernel: SharedKernel,
    /// Legacy or Protego.
    pub mode: SystemMode,
    /// Coverage instrumentation (Table 7).
    pub coverage: Coverage,
    /// Records produced by exploit payloads.
    pub attack_log: Vec<AttackEvent>,
    /// The trusted monitoring daemon (present on Protego images).
    pub monitord: Option<crate::monitord::MonitorDaemon>,
    registry: std::collections::BTreeMap<String, BinEntry>,
    exploit: Option<Exploit>,
    init: Option<Pid>,
}

impl System {
    /// Wraps a kernel; binaries are registered afterwards.
    pub fn new(kernel: Kernel, mode: SystemMode) -> System {
        System::from_shared(SharedKernel::new(kernel), mode)
    }

    /// Wraps an already-shared kernel handle.
    pub fn from_shared(kernel: SharedKernel, mode: SystemMode) -> System {
        System {
            kernel,
            mode,
            coverage: Coverage::new(),
            attack_log: Vec::new(),
            monitord: None,
            registry: Default::default(),
            exploit: None,
            init: None,
        }
    }

    /// A worker's view onto the *same* kernel: shares the kernel handle,
    /// the program registry, and the init task, but carries its own
    /// coverage/attack instrumentation and no monitoring daemon. Views
    /// are what fleet workers drive concurrently — userland bookkeeping
    /// stays per-worker while every syscall lands in the shared kernel.
    pub fn worker_view(&self) -> System {
        System {
            kernel: self.kernel.clone(),
            mode: self.mode,
            coverage: Coverage::new(),
            attack_log: Vec::new(),
            monitord: None,
            registry: self.registry.clone(),
            exploit: None,
            init: self.init,
        }
    }

    // ------------------------------------------------------------------
    // Typed interceptor registration (the InterceptorSlot surface):
    // helpers that box the standard interceptors onto the dispatch chain
    // and hand back both the slot handle (enable/disable/replace) and the
    // interceptor's shared observer handle where it has one.
    // ------------------------------------------------------------------

    /// Installs a [`FaultInjector`](sim_kernel::syscall::FaultInjector)
    /// built from `config`, returning its chain slot and the shared
    /// stats handle.
    pub fn attach_fault_injector(
        &mut self,
        config: sim_kernel::syscall::FaultConfig,
    ) -> (
        sim_kernel::kernel::InterceptorSlot,
        std::sync::Arc<std::sync::Mutex<sim_kernel::syscall::FaultStats>>,
    ) {
        let injector = sim_kernel::syscall::FaultInjector::new(config);
        let stats = injector.stats();
        let slot = self.kernel.register_interceptor(Box::new(injector));
        (slot, stats)
    }

    /// Installs a [`TraceRecorder`](sim_kernel::trace::TraceRecorder),
    /// returning its chain slot and the shared trace handle.
    pub fn attach_recorder(
        &mut self,
    ) -> (
        sim_kernel::kernel::InterceptorSlot,
        std::sync::Arc<std::sync::Mutex<sim_kernel::trace::Trace>>,
    ) {
        let recorder = sim_kernel::trace::TraceRecorder::new();
        let trace = recorder.trace();
        let slot = self.kernel.register_interceptor(Box::new(recorder));
        (slot, trace)
    }

    /// Installs a [`SyscallMeter`](sim_kernel::syscall::SyscallMeter),
    /// returning its chain slot.
    pub fn attach_meter(&mut self) -> sim_kernel::kernel::InterceptorSlot {
        self.kernel
            .register_interceptor(Box::new(sim_kernel::syscall::SyscallMeter::new()))
    }

    /// Installs a [`SeccompInterceptor`](sim_kernel::seccomp::SeccompInterceptor)
    /// wired to this kernel's [`Seccomp`](sim_kernel::seccomp::Seccomp)
    /// control block, returning its chain slot. Profiles and mode are
    /// managed through `kernel.seccomp` (or `/proc/seccomp/*`); the
    /// interceptor is inert while the mode is `off`.
    pub fn attach_seccomp(&mut self) -> sim_kernel::kernel::InterceptorSlot {
        let ic = sim_kernel::seccomp::SeccompInterceptor::new(self.kernel.seccomp.clone());
        self.kernel.register_interceptor(Box::new(ic))
    }

    /// Runs one monitoring-daemon poll cycle (Protego's policy
    /// synchronization); returns whether any policy was pushed.
    pub fn sync_policies(&mut self) -> KResult<bool> {
        let mut d = match self.monitord.take() {
            Some(d) => d,
            None => return Ok(false),
        };
        let r = d.poll(&self.kernel);
        self.monitord = Some(d);
        r
    }

    /// A [`Process`] syscall context bound to `pid` — the typed-dispatch
    /// route into the kernel.
    pub fn process(&mut self, pid: Pid) -> Process<'_> {
        self.kernel.process(pid)
    }

    /// The init (pid 1, root) task, creating it on first use.
    pub fn init_pid(&mut self) -> Pid {
        match self.init {
            Some(p) => p,
            None => {
                let p = self.kernel.spawn_init();
                self.init = Some(p);
                p
            }
        }
    }

    /// Registers a program image at an absolute path and declares its
    /// coverage points.
    pub fn register(&mut self, path: &str, entry: BinEntry) {
        self.coverage.declare(path, entry.points);
        self.registry.insert(path.to_string(), entry);
    }

    /// Looks up a registered program.
    pub fn lookup(&self, path: &str) -> Option<&BinEntry> {
        self.registry.get(path)
    }

    /// Arms an exploit; at most one may be armed at a time.
    pub fn arm_exploit(&mut self, exploit: Exploit) {
        self.exploit = Some(exploit);
    }

    /// Disarms any armed exploit.
    pub fn disarm_exploit(&mut self) {
        self.exploit = None;
    }

    /// Creates a login session for a user by verifying the password
    /// against the shadow database (via the login program's logic) and
    /// spawning a shell task. Returns the session pid.
    pub fn login(&mut self, name: &str, password: &str) -> KResult<Pid> {
        let init = self.init_pid();
        let passwd = self.process(init).read_to_string("/etc/passwd")?;
        let entry = crate::db::parse_db(&passwd, crate::db::PasswdEntry::parse)
            .into_iter()
            .find(|e| e.name == name)
            .ok_or(Errno::ENOENT)?;
        let shadow = self.process(init).read_to_string("/etc/shadow")?;
        let sh = crate::db::parse_db(&shadow, crate::db::ShadowEntry::parse)
            .into_iter()
            .find(|e| e.name == name)
            .ok_or(Errno::ENOENT)?;
        if !sh.verify(password) {
            return Err(Errno::EAUTH);
        }
        // Group membership from /etc/group.
        let groups_text = self.process(init).read_to_string("/etc/group")?;
        // Root logins get the full capability set, as stock Linux grants
        // any euid-0 process.
        let mut cred = if entry.uid == 0 {
            Credentials::root()
        } else {
            Credentials::user(Uid(entry.uid), Gid(entry.gid))
        };
        for g in crate::db::parse_db(&groups_text, crate::db::GroupEntry::parse) {
            if g.members.iter().any(|m| m == name) && !cred.groups.contains(&Gid(g.gid)) {
                cred.groups.push(Gid(g.gid));
            }
        }
        let pid = self.kernel.spawn_session(cred, &entry.shell);
        self.kernel.task_mut(pid)?.setenv("HOME", &entry.home);
        self.kernel.task_mut(pid)?.setenv("USER", &entry.name);
        self.kernel.task_mut(pid)?.setenv("LANG", "en_US.UTF-8");
        self.kernel
            .task_mut(pid)?
            .setenv("LD_PRELOAD_GUARD", "session");
        Ok(pid)
    }

    /// Runs `path` as a child of `session`, with terminal input queued for
    /// any password prompts. This is the fork/exec/wait cycle of a shell.
    pub fn run(
        &mut self,
        session: Pid,
        path: &str,
        args: &[&str],
        input: &[&str],
    ) -> KResult<RunResult> {
        let child = self.process(session).fork()?;
        for line in input {
            self.kernel.task_mut(child)?.type_input(line);
        }
        let mut out = String::new();
        let code = self.exec_into(child, path, &args_vec(args), &mut out);
        let _ = self.process(child).exit(code);
        let code = self.process(session).wait(child).unwrap_or(code);
        Ok(RunResult { code, stdout: out })
    }

    /// Starts a long-running service: forks from `session`, execs `path`,
    /// and runs its setup body, but leaves the task alive so its sockets
    /// persist. Returns the service pid and the setup output.
    pub fn spawn_service(
        &mut self,
        session: Pid,
        path: &str,
        args: &[&str],
    ) -> KResult<(Pid, RunResult)> {
        let child = self.process(session).fork()?;
        let mut out = String::new();
        let code = self.exec_into(child, path, &args_vec(args), &mut out);
        Ok((child, RunResult { code, stdout: out }))
    }

    /// Creates a bare service session (a task for a daemon user), without
    /// going through login.
    pub fn service_session(&mut self, uid: Uid, gid: Gid, binary: &str) -> Pid {
        self.kernel
            .spawn_session(Credentials::user(uid, gid), binary)
    }

    /// The exec half: transforms task `pid` into the program at `path` and
    /// runs its body, appending output to `out`.
    pub(crate) fn exec_into(
        &mut self,
        pid: Pid,
        path: &str,
        args: &[String],
        out: &mut String,
    ) -> i32 {
        let abs = match self.process(pid).execve(path) {
            Ok(a) => a,
            Err(e) => {
                out.push_str(&format!("exec {}: {}\n", path, e));
                return e.as_errno_i32();
            }
        };
        let func = match self.registry.get(&abs) {
            Some(e) => e.func,
            None => {
                out.push_str(&format!("exec {}: not a registered program\n", abs));
                return 127;
            }
        };
        let mut proc = Proc {
            sys: self,
            pid,
            args: args.to_vec(),
            out,
        };
        func(&mut proc)
    }
}

fn args_vec(args: &[&str]) -> Vec<String> {
    args.iter().map(|s| s.to_string()).collect()
}

/// The view a running program has of itself: its task, arguments, and
/// output stream, plus the instrumentation entry points.
pub struct Proc<'a> {
    /// The system (kernel + runtime).
    pub sys: &'a mut System,
    /// This process.
    pub pid: Pid,
    /// argv[1..].
    pub args: Vec<String>,
    /// stdout/stderr.
    pub out: &'a mut String,
}

impl<'a> Proc<'a> {
    /// Appends a line to the program's output.
    pub fn println(&mut self, s: &str) {
        self.out.push_str(s);
        self.out.push('\n');
    }

    /// The binary path this task is executing.
    pub fn binary(&self) -> String {
        self.sys
            .kernel
            .task(self.pid)
            .map(|t| t.binary.clone())
            .unwrap_or_default()
    }

    /// Real uid.
    pub fn ruid(&self) -> Uid {
        self.sys
            .kernel
            .task(self.pid)
            .map(|t| t.cred.ruid)
            .unwrap_or(Uid(u32::MAX))
    }

    /// Effective uid.
    pub fn euid(&self) -> Uid {
        self.sys
            .kernel
            .task(self.pid)
            .map(|t| t.cred.euid)
            .unwrap_or(Uid(u32::MAX))
    }

    /// Marks a coverage point.
    pub fn cov(&mut self, point: &'static str) {
        let b = self.binary();
        self.sys.coverage.hit(&b, point);
    }

    /// Marks a coverage point that is also a *vulnerability point*: if an
    /// exploit is armed for (this binary, this point), the attacker's
    /// payload runs here with the program's current credentials.
    pub fn vuln(&mut self, point: &'static str) {
        self.cov(point);
        let b = self.binary();
        let payload = match &self.sys.exploit {
            Some(e) if e.binary == b && e.point == point => Some(e.payload),
            _ => None,
        };
        if let Some(p) = payload {
            p(self);
        }
    }

    /// Records the outcome of a privileged action attempted by an exploit
    /// payload.
    pub fn record_attack(&mut self, action: &str, succeeded: bool) {
        let euid = self.euid().0;
        self.sys.attack_log.push(AttackEvent {
            action: action.to_string(),
            succeeded,
            euid,
        });
    }

    /// Replaces this process image with another program (classic exec):
    /// the callee's exit code becomes this program's.
    pub fn exec(&mut self, path: &str, args: &[&str]) -> i32 {
        let args = args_vec(args);
        self.sys.exec_into(self.pid, path, &args, self.out)
    }

    // -- thin syscall wrappers -----------------------------------------

    /// The typed syscall context for this process — every call made
    /// through it goes via `Kernel::dispatch` and is therefore visible to
    /// interceptors (fault injection, tracing, metering).
    pub fn os(&mut self) -> Process<'_> {
        self.sys.process(self.pid)
    }

    /// Reads a whole file as UTF-8.
    pub fn read_to_string(&mut self, path: &str) -> KResult<String> {
        self.os().read_to_string(path)
    }

    /// Creates/truncates a file.
    pub fn write_file(&mut self, path: &str, data: &[u8], mode: Mode) -> KResult<()> {
        self.os().write_file(path, data, mode)
    }

    /// Appends to a file.
    pub fn append_file(&mut self, path: &str, data: &[u8]) -> KResult<()> {
        self.os().append_file(path, data)
    }

    /// Opens a file.
    pub fn open(&mut self, path: &str, flags: OpenFlags) -> KResult<i32> {
        self.os().open(path, flags)
    }

    /// Reads the next queued terminal line (a password prompt).
    pub fn read_tty(&mut self) -> Option<String> {
        self.sys
            .kernel
            .task_mut(self.pid)
            .ok()
            .and_then(|mut t| t.terminal_input.pop_front())
    }

    /// Environment lookup.
    pub fn getenv(&self, key: &str) -> Option<String> {
        self.sys
            .kernel
            .task(self.pid)
            .ok()
            .and_then(|t| t.getenv(key).map(String::from))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_kernel::net::SimNet;

    fn echo_main(p: &mut Proc<'_>) -> i32 {
        p.cov("start");
        let line = p.args.join(" ");
        p.println(&line);
        0
    }

    fn id_main(p: &mut Proc<'_>) -> i32 {
        let (r, e) = (p.ruid().0, p.euid().0);
        p.println(&format!("uid={} euid={}", r, e));
        0
    }

    fn chain_main(p: &mut Proc<'_>) -> i32 {
        p.exec("/bin/id", &[])
    }

    fn minimal_system() -> System {
        let k = Kernel::new(SimNet::new());
        k.install_standard_devices().unwrap();
        let mut sys = System::new(k, SystemMode::Legacy);
        let init = sys.init_pid();
        for (path, f) in [
            ("/bin/echo", echo_main as BinFn),
            ("/bin/id", id_main as BinFn),
            ("/bin/chain", chain_main as BinFn),
        ] {
            sys.kernel
                .vfs
                .install_file(path, b"#!sim", Mode(0o755), Uid::ROOT, Gid::ROOT)
                .unwrap();
            sys.register(
                path,
                BinEntry {
                    func: f,
                    points: &["start"],
                },
            );
        }
        // Minimal credential databases for login().
        sys.kernel
            .vfs
            .install_file(
                "/etc/passwd",
                b"root:x:0:0:root:/root:/bin/sh\nalice:x:1000:1000:A:/home/alice:/bin/sh\n",
                Mode(0o644),
                Uid::ROOT,
                Gid::ROOT,
            )
            .unwrap();
        let shadow = format!(
            "{}\n{}\n",
            crate::db::ShadowEntry::with_password("root", "rootpw").render(),
            crate::db::ShadowEntry::with_password("alice", "alicepw").render()
        );
        sys.kernel
            .vfs
            .install_file(
                "/etc/shadow",
                shadow.as_bytes(),
                Mode(0o600),
                Uid::ROOT,
                Gid::ROOT,
            )
            .unwrap();
        sys.kernel
            .vfs
            .install_file(
                "/etc/group",
                b"cdrom:x:24:alice\n",
                Mode(0o644),
                Uid::ROOT,
                Gid::ROOT,
            )
            .unwrap();
        sys.kernel
            .vfs
            .install_file("/bin/sh", b"#!sim", Mode(0o755), Uid::ROOT, Gid::ROOT)
            .unwrap();
        let _ = init;
        sys
    }

    #[test]
    fn login_and_run() {
        let mut sys = minimal_system();
        let alice = sys.login("alice", "alicepw").unwrap();
        let r = sys
            .run(alice, "/bin/echo", &["hello", "world"], &[])
            .unwrap();
        assert!(r.ok());
        assert_eq!(r.stdout, "hello world\n");
    }

    #[test]
    fn login_wrong_password() {
        let mut sys = minimal_system();
        assert_eq!(sys.login("alice", "wrong").unwrap_err(), Errno::EAUTH);
        assert_eq!(sys.login("mallory", "x").unwrap_err(), Errno::ENOENT);
    }

    #[test]
    fn login_collects_groups() {
        let mut sys = minimal_system();
        let alice = sys.login("alice", "alicepw").unwrap();
        assert!(sys.kernel.task(alice).unwrap().cred.in_group(Gid(24)));
    }

    #[test]
    fn run_reports_uids() {
        let mut sys = minimal_system();
        let alice = sys.login("alice", "alicepw").unwrap();
        let r = sys.run(alice, "/bin/id", &[], &[]).unwrap();
        assert_eq!(r.stdout, "uid=1000 euid=1000\n");
    }

    #[test]
    fn exec_chains_within_process() {
        let mut sys = minimal_system();
        let alice = sys.login("alice", "alicepw").unwrap();
        let r = sys.run(alice, "/bin/chain", &[], &[]).unwrap();
        assert!(r.ok());
        assert!(r.stdout.contains("uid=1000"));
    }

    #[test]
    fn unregistered_binary_is_127() {
        let mut sys = minimal_system();
        let alice = sys.login("alice", "alicepw").unwrap();
        sys.kernel
            .vfs
            .install_file("/bin/ghost", b"#!sim", Mode(0o755), Uid::ROOT, Gid::ROOT)
            .unwrap();
        let r = sys.run(alice, "/bin/ghost", &[], &[]).unwrap();
        assert_eq!(r.code, 127);
    }

    #[test]
    fn missing_binary_reports_errno() {
        let mut sys = minimal_system();
        let alice = sys.login("alice", "alicepw").unwrap();
        let r = sys.run(alice, "/bin/nope", &[], &[]).unwrap();
        assert_eq!(r.code, Errno::ENOENT.as_errno_i32());
        assert!(r.stdout.contains("ENOENT"));
    }

    #[test]
    fn exploit_fires_at_point_with_live_credentials() {
        fn vulnerable_main(p: &mut Proc<'_>) -> i32 {
            p.vuln("parse");
            0
        }
        fn payload(p: &mut Proc<'_>) {
            let ok = p.write_file("/etc/owned", b"!", Mode(0o644)).is_ok();
            p.record_attack("write /etc/owned", ok);
        }
        let mut sys = minimal_system();
        sys.kernel
            .vfs
            .install_file("/bin/vuln", b"#!sim", Mode(0o755), Uid::ROOT, Gid::ROOT)
            .unwrap();
        sys.register(
            "/bin/vuln",
            BinEntry {
                func: vulnerable_main,
                points: &["parse"],
            },
        );
        sys.arm_exploit(Exploit {
            binary: "/bin/vuln".into(),
            point: "parse",
            payload,
        });
        let alice = sys.login("alice", "alicepw").unwrap();
        sys.run(alice, "/bin/vuln", &[], &[]).unwrap();
        assert_eq!(sys.attack_log.len(), 1);
        // Unprivileged binary: the payload could not write /etc.
        assert!(!sys.attack_log[0].succeeded);
        assert_eq!(sys.attack_log[0].euid, 1000);
    }

    #[test]
    fn coverage_recorded_through_runs() {
        let mut sys = minimal_system();
        let alice = sys.login("alice", "alicepw").unwrap();
        sys.run(alice, "/bin/echo", &["x"], &[]).unwrap();
        assert_eq!(sys.coverage.count("/bin/echo", "start"), 1);
    }
}
