//! Tasks (processes) and file-descriptor tables.

use crate::cred::{Credentials, Gid, Uid};
use crate::error::{Errno, KResult};
use crate::lsm::{AuthScope, PendingSetuid};
use crate::net::SockId;
use crate::vfs::{Ino, Name};
use std::collections::VecDeque;
use std::sync::{Arc, OnceLock};

/// A process identity.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct Pid(pub u32);

/// The path of the binary image a task runs, interned once when the task
/// is spawned or execs: the symbol for integer compares and map keys
/// (seccomp profile selection) and its text for glob matches and audit
/// messages, so no syscall interns, resolves or clones it.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Binary {
    name: Name,
    path: &'static str,
}

impl Binary {
    /// Interns `path`.
    pub fn new(path: &str) -> Binary {
        let name = Name::intern(path);
        Binary {
            name,
            path: name.as_str(),
        }
    }

    /// The interned path.
    pub fn name(self) -> Name {
        self.name
    }

    /// The path's text.
    pub fn as_str(self) -> &'static str {
        self.path
    }
}

impl From<&str> for Binary {
    fn from(path: &str) -> Binary {
        Binary::new(path)
    }
}

impl std::fmt::Display for Binary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.path)
    }
}

/// The calling task as one dispatched syscall sees it: the kernel's
/// `current_cred()`.
///
/// [`crate::kernel::Kernel::dispatch`] takes one `Caller` per call (a
/// single task-shard read) and hands it by reference to every
/// interceptor (via [`SysCtx`](crate::syscall::SysCtx)), to the `sys_*`
/// body, to the path walk and DAC checks, to `capable` and to each LSM
/// hook context. The credentials are the task's own `Arc`, shared rather
/// than copied, and the binary is interned, so taking the snapshot
/// allocates nothing. A body that changes its own task partway through a
/// call (authentication, a credential or image commit) takes a fresh
/// snapshot for its later checks; no `Caller` outlives its dispatch.
#[derive(Debug)]
pub struct Caller {
    /// The dispatching process.
    pub pid: Pid,
    /// Credentials at dispatch time.
    pub cred: Arc<Credentials>,
    /// Working directory at dispatch time.
    pub cwd: Ino,
    /// The binary image the task is executing (re-resolved across
    /// `execve`, so a profile keyed on it follows the image, not the
    /// pid). [`Caller::UNKNOWN_BINARY`] when the pid has no live task.
    pub binary: Binary,
    /// Logical time of the task's last successful authentication.
    pub last_auth: Option<u64>,
    /// Which principal that authentication proved.
    pub last_auth_scope: Option<AuthScope>,
    /// Whether the pid mapped to a live task when the snapshot was taken.
    /// Dead or never-born pids still dispatch (interceptors see them; the
    /// call fails with `ESRCH`), so interceptors must not assume liveness.
    pub alive: bool,
}

impl Caller {
    /// Binary-path placeholder used when the pid has no live task.
    pub const UNKNOWN_BINARY: &'static str = "[unknown]";

    /// The snapshot for a pid with no live task: overflow uids and no
    /// capabilities, the [`Caller::UNKNOWN_BINARY`] placeholder, `alive ==
    /// false`.
    pub fn unknown(pid: Pid) -> Caller {
        static NOBODY: OnceLock<(Arc<Credentials>, Binary)> = OnceLock::new();
        let (cred, binary) = NOBODY.get_or_init(|| {
            let overflow = Credentials::user(Uid(u32::MAX), Gid(u32::MAX));
            (Arc::new(overflow), Binary::new(Caller::UNKNOWN_BINARY))
        });
        Caller {
            pid,
            cred: Arc::clone(cred),
            cwd: Ino(0),
            binary: *binary,
            last_auth: None,
            last_auth_scope: None,
            alive: false,
        }
    }

    /// Snapshots a live task.
    pub fn of(task: &Task) -> Caller {
        Caller {
            pid: task.pid,
            cred: Arc::clone(&task.cred),
            cwd: task.cwd,
            binary: task.binary,
            last_auth: task.last_auth,
            last_auth_scope: task.last_auth_scope,
            alive: true,
        }
    }
}

/// A pipe identity (index into the kernel pipe arena).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct PipeId(pub usize);

/// What an open file descriptor refers to.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FdObject {
    /// An open VFS file.
    File {
        /// Backing inode.
        ino: Ino,
        /// Current offset.
        offset: usize,
        /// Opened for reading.
        readable: bool,
        /// Opened for writing.
        writable: bool,
        /// Append mode.
        append: bool,
        /// Resolved path at open time, interned (for diagnostics and
        /// policy audit); keeps every field `Copy` so cloning the fd on
        /// each read/write touches no heap.
        path: Name,
    },
    /// A socket.
    Socket(SockId),
    /// The read end of a pipe.
    PipeRead(PipeId),
    /// The write end of a pipe.
    PipeWrite(PipeId),
}

/// A file-descriptor table slot.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Fd {
    /// The referenced object.
    pub object: FdObject,
    /// Close-on-exec flag.
    pub cloexec: bool,
}

/// Maximum file descriptors per task (like RLIMIT_NOFILE).
pub const MAX_FDS: usize = 1024;

/// Namespace kinds a task can unshare (§4.6: sandboxing with restricted
/// namespaces, Linux 2.6.23+; unprivileged creation from 3.8).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum NsKind {
    /// CLONE_NEWUSER.
    User,
    /// CLONE_NEWNS.
    Mount,
    /// CLONE_NEWNET.
    Net,
    /// CLONE_NEWPID.
    Pid,
}

/// A simulated process.
#[derive(Clone, Debug)]
pub struct Task {
    /// Process id.
    pub pid: Pid,
    /// Parent process id.
    pub ppid: Pid,
    /// Credential state, shared with the [`Caller`] snapshots of the
    /// task's in-flight calls. Commits replace it through
    /// `Arc::make_mut`, in the style of Linux's `commit_creds`: a
    /// snapshot keeps the credentials it was taken with.
    pub cred: Arc<Credentials>,
    /// Current working directory inode.
    pub cwd: Ino,
    /// Open file descriptors.
    pub fds: Vec<Option<Fd>>,
    /// The binary image the task is executing.
    pub binary: Binary,
    /// Environment variables.
    pub env: Vec<(String, String)>,
    /// Logical time of the task's last successful authentication — the
    /// kernel-tracked recency Protego stores in `task_struct` (§4.3).
    pub last_auth: Option<u64>,
    /// Which principal that authentication proved (self, another user, a
    /// group) — so su-style target authentication is not confused with
    /// sudo-style invoker authentication.
    pub last_auth_scope: Option<AuthScope>,
    /// A restricted uid transition awaiting `exec` (§4.3).
    pub pending_setuid: Option<PendingSetuid>,
    /// Simulated terminal input (password attempts queued by the user).
    pub terminal_input: VecDeque<String>,
    /// Namespaces this task has unshared.
    pub namespaces: Vec<NsKind>,
    /// Exit status once the task has exited.
    pub exit_status: Option<i32>,
}

impl Task {
    /// Creates a task with empty tables.
    pub fn new(pid: Pid, ppid: Pid, cred: Credentials, cwd: Ino, binary: &str) -> Task {
        Task {
            pid,
            ppid,
            cred: Arc::new(cred),
            cwd,
            fds: Vec::new(),
            binary: Binary::new(binary),
            env: Vec::new(),
            last_auth: None,
            last_auth_scope: None,
            pending_setuid: None,
            terminal_input: VecDeque::new(),
            namespaces: Vec::new(),
            exit_status: None,
        }
    }

    /// Whether the task is inside a namespace of the given kind.
    pub fn in_namespace(&self, kind: NsKind) -> bool {
        self.namespaces.contains(&kind)
    }

    /// Installs `fd` in the lowest free slot, returning its number.
    pub fn fd_install(&mut self, fd: Fd) -> KResult<i32> {
        for (i, slot) in self.fds.iter_mut().enumerate() {
            if slot.is_none() {
                *slot = Some(fd);
                return Ok(i as i32);
            }
        }
        if self.fds.len() >= MAX_FDS {
            return Err(Errno::EMFILE);
        }
        self.fds.push(Some(fd));
        Ok((self.fds.len() - 1) as i32)
    }

    /// Immutable fd lookup.
    pub fn fd(&self, n: i32) -> KResult<&Fd> {
        if n < 0 {
            return Err(Errno::EBADF);
        }
        self.fds
            .get(n as usize)
            .and_then(|f| f.as_ref())
            .ok_or(Errno::EBADF)
    }

    /// Mutable fd lookup.
    pub fn fd_mut(&mut self, n: i32) -> KResult<&mut Fd> {
        if n < 0 {
            return Err(Errno::EBADF);
        }
        self.fds
            .get_mut(n as usize)
            .and_then(|f| f.as_mut())
            .ok_or(Errno::EBADF)
    }

    /// Removes and returns an fd.
    pub fn fd_take(&mut self, n: i32) -> KResult<Fd> {
        if n < 0 {
            return Err(Errno::EBADF);
        }
        self.fds
            .get_mut(n as usize)
            .and_then(|f| f.take())
            .ok_or(Errno::EBADF)
    }

    /// Environment lookup.
    pub fn getenv(&self, key: &str) -> Option<&str> {
        self.env
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// Sets (or replaces) an environment variable.
    pub fn setenv(&mut self, key: &str, value: &str) {
        if let Some(kv) = self.env.iter_mut().find(|(k, _)| k == key) {
            kv.1 = value.to_string();
        } else {
            self.env.push((key.to_string(), value.to_string()));
        }
    }

    /// Queues a line of terminal input (e.g. a password the user types).
    pub fn type_input(&mut self, line: &str) {
        self.terminal_input.push_back(line.to_string());
    }

    /// Whether the task authenticated within `window` of logical time
    /// `now` — sudo's 5-minute recency check, kernelized.
    pub fn recently_authenticated(&self, now: u64, window: u64) -> bool {
        match self.last_auth {
            Some(t) => now.saturating_sub(t) <= window,
            None => false,
        }
    }

    /// Like [`Task::recently_authenticated`], additionally requiring that
    /// the proof was for `scope`.
    pub fn recently_authenticated_for(&self, scope: AuthScope, now: u64, window: u64) -> bool {
        self.recently_authenticated(now, window) && self.last_auth_scope == Some(scope)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn task() -> Task {
        Task::new(
            Pid(2),
            Pid(1),
            Credentials::user(Uid(1000), Gid(1000)),
            Ino(0),
            "/bin/sh",
        )
    }

    #[test]
    fn fd_install_reuses_lowest_slot() {
        let mut t = task();
        let fd = Fd {
            object: FdObject::PipeRead(PipeId(0)),
            cloexec: false,
        };
        assert_eq!(t.fd_install(fd.clone()).unwrap(), 0);
        assert_eq!(t.fd_install(fd.clone()).unwrap(), 1);
        assert_eq!(t.fd_install(fd.clone()).unwrap(), 2);
        t.fd_take(1).unwrap();
        assert_eq!(t.fd_install(fd).unwrap(), 1);
    }

    #[test]
    fn bad_fd_is_ebadf() {
        let mut t = task();
        assert_eq!(t.fd(0).unwrap_err(), Errno::EBADF);
        assert_eq!(t.fd(-1).unwrap_err(), Errno::EBADF);
        assert_eq!(t.fd_take(7).unwrap_err(), Errno::EBADF);
    }

    #[test]
    fn env_roundtrip() {
        let mut t = task();
        t.setenv("PATH", "/bin");
        t.setenv("LD_PRELOAD", "/tmp/evil.so");
        t.setenv("PATH", "/usr/bin:/bin");
        assert_eq!(t.getenv("PATH"), Some("/usr/bin:/bin"));
        assert_eq!(t.getenv("LD_PRELOAD"), Some("/tmp/evil.so"));
        assert_eq!(t.getenv("HOME"), None);
    }

    #[test]
    fn auth_recency_window() {
        let mut t = task();
        assert!(!t.recently_authenticated(1000, 300));
        t.last_auth = Some(900);
        assert!(t.recently_authenticated(1000, 300));
        assert!(t.recently_authenticated(1200, 300));
        assert!(!t.recently_authenticated(1201, 300));
    }
}
