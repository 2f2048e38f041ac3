//! Filesystem system calls: open, read, write, stat, directory and
//! metadata operations.

use crate::caps::Cap;
use crate::cred::{Gid, Uid};
use crate::error::{Errno, KResult};
use crate::kernel::Kernel;
use crate::lsm::{FileDecision, FileOpenCtx};
use crate::syscall::abi::Whence;
use crate::task::{Caller, Fd, FdObject, Pid};
use crate::trace::{AuditObject, DecisionKind, Hook};
use crate::vfs::{Access, Create, Ino, InodeData, Mode, Name, PathArena, ProcHook, Resolved};

/// Flags for [`Process::open`](crate::syscall::Process::open).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OpenFlags {
    /// Open for reading.
    pub read: bool,
    /// Open for writing.
    pub write: bool,
    /// Append on every write.
    pub append: bool,
    /// Create if missing.
    pub create: bool,
    /// With `create`: fail if the file exists.
    pub excl: bool,
    /// Truncate on open.
    pub truncate: bool,
    /// Close on exec.
    pub cloexec: bool,
    /// Mode for newly created files.
    pub mode: Mode,
}

impl OpenFlags {
    /// `O_RDONLY`.
    pub fn read_only() -> OpenFlags {
        OpenFlags {
            read: true,
            write: false,
            append: false,
            create: false,
            excl: false,
            truncate: false,
            cloexec: false,
            mode: Mode(0o644),
        }
    }

    /// `O_WRONLY`.
    pub fn write_only() -> OpenFlags {
        OpenFlags {
            read: false,
            write: true,
            ..OpenFlags::read_only()
        }
    }

    /// `O_RDWR`.
    pub fn read_write() -> OpenFlags {
        OpenFlags {
            read: true,
            write: true,
            ..OpenFlags::read_only()
        }
    }

    /// `O_WRONLY|O_CREAT|O_TRUNC` with the given mode.
    pub fn create_trunc(mode: Mode) -> OpenFlags {
        OpenFlags {
            read: false,
            write: true,
            create: true,
            truncate: true,
            mode,
            ..OpenFlags::read_only()
        }
    }

    /// `O_WRONLY|O_APPEND`.
    pub fn append_only() -> OpenFlags {
        OpenFlags {
            read: false,
            write: true,
            append: true,
            ..OpenFlags::read_only()
        }
    }

    fn access(&self) -> Access {
        let mut a = Access(0);
        if self.read {
            a = a.and(Access::READ);
        }
        if self.write || self.truncate || self.append {
            a = a.and(Access::WRITE);
        }
        a
    }
}

/// `stat(2)` result.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Stat {
    /// Inode number.
    pub ino: Ino,
    /// Mode bits.
    pub mode: Mode,
    /// Owner.
    pub uid: Uid,
    /// Group.
    pub gid: Gid,
    /// Size in bytes.
    pub size: usize,
    /// Link count.
    pub nlink: u32,
    /// Whether this is a directory.
    pub is_dir: bool,
}

impl Kernel {
    // ------------------------------------------------------------------
    // Permission helpers
    // ------------------------------------------------------------------

    /// Checks a DAC access on an inode for the caller, honouring the
    /// DAC-override capabilities through the (LSM-aware) `capable` path.
    ///
    /// Called once per traversed directory on every walk, so it reads
    /// the caller's credentials from the dispatch snapshot and takes no
    /// task-table lock.
    pub(crate) fn check_access(&self, c: &Caller, ino: Ino, want: Access) -> KResult<()> {
        let cred = &*c.cred;
        let allowed = crate::vfs::Vfs::dac_allows(
            &self.vfs.inode(ino),
            cred.fsuid,
            |g| cred.in_group(g),
            want,
        );
        if allowed {
            return Ok(());
        }
        // CAP_DAC_READ_SEARCH covers read and directory search.
        let read_or_search =
            !want.wants_write() && (!want.wants_exec() || self.vfs.inode(ino).data.is_dir());
        if read_or_search && self.capable(c, Cap::DacReadSearch) {
            return Ok(());
        }
        // CAP_DAC_OVERRIDE covers everything except exec of a file with no
        // exec bits at all. One scoped guard: taking the same inode's
        // shard lock twice in one expression invites a deadlock once
        // writers contend.
        let exec_plain_file = {
            let inode = self.vfs.inode(ino);
            want.wants_exec() && !inode.data.is_dir() && inode.mode.bits() & 0o111 == 0
        };
        if !exec_plain_file && self.capable(c, Cap::DacOverride) {
            return Ok(());
        }
        Err(Errno::EACCES)
    }

    /// Resolves a path from the caller's working directory, checking
    /// search permission on every traversed directory.
    pub(crate) fn walk(&self, c: &Caller, path: &str) -> KResult<Resolved> {
        let r = self.vfs.resolve(c.cwd, path)?;
        for dir in r.dirs.iter() {
            self.check_access(c, dir, Access::EXEC)?;
        }
        Ok(r)
    }

    /// Like [`Kernel::walk`] but stops at a trailing symlink.
    pub(crate) fn walk_nofollow(&self, c: &Caller, path: &str) -> KResult<Resolved> {
        let r = self.vfs.resolve_nofollow(c.cwd, path)?;
        for dir in r.dirs.iter() {
            self.check_access(c, dir, Access::EXEC)?;
        }
        Ok(r)
    }

    // ------------------------------------------------------------------
    // open / close
    // ------------------------------------------------------------------

    /// `open(2)`.
    ///
    /// After DAC evaluation the LSM `file_open` hook runs; it may deny an
    /// access DAC would grant (AppArmor confinement), grant one DAC would
    /// refuse (Protego's binary-identity rules for ssh-keysign), demand
    /// re-authentication (Protego's shadow files), or force close-on-exec.
    pub(crate) fn sys_open(&self, c: &Caller, path: &str, flags: OpenFlags) -> KResult<i32> {
        let ino = self.open_pin(c, path, flags)?;
        self.open_pinned(c, ino, flags)
            .inspect_err(|_| self.vfs.dec_open(ino))
    }

    /// Resolves (or creates) the file `open` names and pins it open, so a
    /// concurrent unlink or atomic replace cannot reclaim and recycle the
    /// inode while the checks below run.
    fn open_pin(&self, c: &Caller, path: &str, flags: OpenFlags) -> KResult<Ino> {
        loop {
            match self.walk(c, path) {
                Ok(r) => {
                    if flags.create && flags.excl {
                        return Err(Errno::EEXIST);
                    }
                    if self.vfs.pin(&r) {
                        return Ok(r.ino);
                    }
                    // The name changed between the walk and the pin.
                }
                Err(Errno::ENOENT) if flags.create => break,
                Err(e) => return Err(e),
            }
        }
        let (parent, name) = self.vfs.resolve_parent(c.cwd, path)?;
        for d in parent.dirs.iter() {
            self.check_access(c, d, Access::EXEC)?;
        }
        self.check_access(c, parent.ino, Access::WRITE.and(Access::EXEC))?;
        let ino = self.vfs.create_file(
            parent.ino,
            name,
            flags.mode,
            c.cred.fsuid,
            c.cred.egid,
            Create::NewOpen,
        )?;
        self.vfs.touch(ino);
        Ok(ino)
    }

    /// The checks and descriptor install of `open` on a pinned inode.
    fn open_pinned(&self, c: &Caller, ino: Ino, flags: OpenFlags) -> KResult<i32> {
        let want = flags.access();
        if self.vfs.inode(ino).data.is_dir() && want.wants_write() {
            return Err(Errno::EISDIR);
        }

        // DAC on the final object.
        let dac = self.check_access(c, ino, want);
        let dac_ok = dac.is_ok();

        // LSM file-open hook, with one authentication retry. The
        // absolute path is reconstructed into the per-thread arena and
        // the hook context borrows it together with the caller's
        // credentials, so the steady-state approve path (UseDefault with
        // DAC ok) allocates nothing.
        let file_owner = self.vfs.inode(ino).uid;
        let mut force_cloexec = false;
        // After a successful authentication the task's recency changed:
        // the retry sees a fresh snapshot, not the one taken at entry.
        let mut refreshed: Option<Caller> = None;
        let abs_name = PathArena::scope(|arena| -> KResult<Name> {
            let abs = self.vfs.path_of_in(arena, ino);
            let mut attempts = 0;
            loop {
                let now = refreshed.as_ref().unwrap_or(c);
                let decision = self.lsm().file_open(&FileOpenCtx {
                    cred: &now.cred,
                    path: &abs,
                    binary: now.binary.as_str(),
                    access: want,
                    dac_allows: dac_ok,
                    file_owner,
                    last_auth: now.last_auth,
                    last_auth_scope: now.last_auth_scope,
                    now: self.clock(),
                });
                match decision {
                    FileDecision::UseDefault => {
                        dac?;
                        break;
                    }
                    FileDecision::Allow => {
                        let msg = format!("open: lsm granted {}", abs);
                        self.emit_lsm_event(
                            c.pid,
                            "open",
                            Hook::FileOpen,
                            DecisionKind::Allow,
                            None,
                            AuditObject::Path(abs.to_string()),
                            msg,
                        );
                        break;
                    }
                    FileDecision::AllowCloexec => {
                        force_cloexec = true;
                        let msg = format!("open: lsm granted {} (cloexec forced)", abs);
                        self.emit_lsm_event(
                            c.pid,
                            "open",
                            Hook::FileOpen,
                            DecisionKind::Allow,
                            None,
                            AuditObject::Path(abs.to_string()),
                            msg,
                        );
                        break;
                    }
                    FileDecision::Deny(e) => {
                        let msg = format!("open: lsm denied {} ({})", abs, e.name());
                        self.emit_lsm_event(
                            c.pid,
                            "open",
                            Hook::FileOpen,
                            DecisionKind::Deny,
                            Some(e),
                            AuditObject::Path(abs.to_string()),
                            msg,
                        );
                        return Err(e);
                    }
                    FileDecision::NeedAuth(scope) => {
                        attempts += 1;
                        if attempts > 1 || !self.run_auth(c.pid, scope) {
                            let msg = format!("open: auth failed for {}", abs);
                            self.emit_lsm_event(
                                c.pid,
                                "open",
                                Hook::FileOpen,
                                DecisionKind::Deny,
                                Some(Errno::EACCES),
                                AuditObject::Path(abs.to_string()),
                                msg,
                            );
                            return Err(Errno::EACCES);
                        }
                        refreshed = Some(self.live_caller(c.pid)?);
                    }
                }
            }
            // The fd table records the path as an interned symbol so the
            // descriptor stays `Copy`-cheap to clone on every read/write.
            Ok(Name::intern(&abs))
        })?;

        if flags.truncate && matches!(self.vfs.inode(ino).data, InodeData::Regular(_)) {
            self.vfs.write_all(ino, b"")?;
        }

        let fd = Fd {
            object: FdObject::File {
                ino,
                offset: 0,
                readable: flags.read,
                writable: flags.write || flags.append || flags.truncate,
                append: flags.append,
                path: abs_name,
            },
            cloexec: flags.cloexec || force_cloexec,
        };
        self.task_mut(c.pid)?.fd_install(fd)
    }

    /// `lseek(2)` — repositions the file offset relative to `whence`.
    pub(crate) fn sys_lseek(
        &self,
        c: &Caller,
        fd: i32,
        offset: i64,
        whence: Whence,
    ) -> KResult<usize> {
        // One fd-table access: the size read for `End` nests an inode
        // guard (a VFS leaf) under the task guard.
        let mut t = self.task_mut(c.pid)?;
        let FdObject::File {
            ino, offset: cur, ..
        } = &mut t.fd_mut(fd)?.object
        else {
            return Err(Errno::EINVAL);
        };
        let base = match whence {
            Whence::Set => 0,
            Whence::Cur => *cur as i64,
            Whence::End => self.vfs.inode(*ino).size() as i64,
        };
        let new = base.checked_add(offset).ok_or(Errno::EINVAL)?;
        if new < 0 {
            return Err(Errno::EINVAL);
        }
        *cur = new as usize;
        Ok(new as usize)
    }

    /// `close(2)`.
    pub(crate) fn sys_close(&self, c: &Caller, fd: i32) -> KResult<()> {
        let taken = self.task_mut(c.pid)?.fd_take(fd)?;
        self.release_fd_object(taken.object);
        Ok(())
    }

    /// Drops kernel-side state backing an fd object.
    pub(crate) fn release_fd_object(&self, obj: FdObject) {
        match obj {
            FdObject::Socket(sid) => {
                let _ = self.net.write().close(sid);
            }
            FdObject::PipeRead(pid_) => {
                self.pipes.release_read(pid_);
            }
            FdObject::PipeWrite(pid_) => {
                self.pipes.release_write(pid_);
            }
            FdObject::File { ino, .. } => {
                self.vfs.dec_open(ino);
            }
        }
    }

    // ------------------------------------------------------------------
    // read / write
    // ------------------------------------------------------------------

    /// `read(2)`.
    pub(crate) fn sys_read(
        &self,
        c: &Caller,
        fd: i32,
        buf: &mut Vec<u8>,
        count: usize,
    ) -> KResult<usize> {
        // Regular files take one fd-table access: the content is copied
        // straight out of the inode guard (a VFS leaf, nested under the
        // task guard) and the offset advances in place. Everything else
        // leaves the guard with a copy of the descriptor.
        let object = {
            let mut t = self.task_mut(c.pid)?;
            let object = &mut t.fd_mut(fd)?.object;
            if let FdObject::File {
                ino,
                offset,
                readable,
                ..
            } = object
            {
                if !*readable {
                    return Err(Errno::EBADF);
                }
                let inode = self.vfs.inode(*ino);
                if let InodeData::Regular(d) = &inode.data {
                    let end = (*offset + count).min(d.len());
                    let slice = &d[(*offset).min(d.len())..end];
                    buf.extend_from_slice(slice);
                    *offset += slice.len();
                    return Ok(slice.len());
                }
            }
            object.clone()
        };
        match object {
            FdObject::File { ino, offset, .. } => {
                // Dynamic nodes (and the EISDIR/EINVAL cases) render
                // without any task or inode guard held: several
                // renderers re-enter kernel locks.
                let content = self.render_node(ino)?;
                let end = (offset + count).min(content.len());
                let slice = &content[offset.min(content.len())..end];
                buf.extend_from_slice(slice);
                let n = slice.len();
                if let FdObject::File { offset, .. } = &mut self.task_mut(c.pid)?.fd_mut(fd)?.object
                {
                    *offset += n;
                }
                Ok(n)
            }
            FdObject::PipeRead(id) => self.pipes.with(id, |p| {
                if p.buf.is_empty() {
                    return if p.writers == 0 {
                        Ok(0)
                    } else {
                        Err(Errno::EAGAIN)
                    };
                }
                let n = count.min(p.buf.len());
                buf.extend(p.buf.drain(..n));
                Ok(n)
            }),
            FdObject::PipeWrite(_) => Err(Errno::EBADF),
            FdObject::Socket(_) => Err(Errno::EINVAL), // use recv
        }
    }

    /// Materializes the byte content of an inode for reading, dispatching
    /// dynamic `/proc` and `/sys` nodes.
    fn render_node(&self, ino: Ino) -> KResult<Vec<u8>> {
        // Copy the hook out before rendering: several hook renderers
        // re-enter VFS or LSM locks, which must not happen under this
        // inode's shard guard.
        let hook = {
            let inode = self.vfs.inode(ino);
            match &inode.data {
                InodeData::Regular(d) => return Ok(d.clone()),
                InodeData::Directory(_) => return Err(Errno::EISDIR),
                InodeData::CharDev(_) | InodeData::BlockDev(_) => return Ok(Vec::new()),
                InodeData::Symlink(t) => return Ok(t.clone().into_bytes()),
                InodeData::Fifo => return Err(Errno::EINVAL),
                InodeData::Hook(h) => h.clone(),
            }
        };
        match hook {
            ProcHook::Mounts => Ok(self.vfs.render_proc_mounts().into_bytes()),
            ProcHook::Uptime => Ok(format!("{}.00 0.00\n", self.clock()).into_bytes()),
            ProcHook::LsmConfig(name) => Ok(self.lsm().config_read(name)?.into_bytes()),
            ProcHook::Audit => Ok(self.audit.render().into_bytes()),
            ProcHook::Metrics => Ok(self.metrics_snapshot().render().into_bytes()),
            ProcHook::Histograms => Ok(crate::trace::span::total().render().into_bytes()),
            ProcHook::SysAttr(attr) => Ok(self.sys_attr_read(&attr)?.into_bytes()),
            ProcHook::SeccompProfiles => Ok(self.seccomp.render_profiles().into_bytes()),
            ProcHook::SeccompStatus => Ok(self.seccomp.render_status().into_bytes()),
            ProcHook::SeccompViolations => Ok(self.seccomp.render_violations().into_bytes()),
        }
    }

    /// `write(2)`.
    pub(crate) fn sys_write(&self, c: &Caller, fd: i32, data: &[u8]) -> KResult<usize> {
        let fdo = self.task(c.pid)?.fd(fd)?.clone();
        match fdo.object {
            FdObject::File {
                ino,
                offset,
                writable,
                append,
                ..
            } => {
                if !writable {
                    return Err(Errno::EBADF);
                }
                let hook = {
                    let inode = self.vfs.inode(ino);
                    match &inode.data {
                        InodeData::Hook(h) => Some(h.clone()),
                        InodeData::CharDev(_) => return Ok(data.len()), // /dev/null sink
                        _ => None,
                    }
                };
                if let Some(h) = hook {
                    return self.write_hook_node(c, h, data);
                }
                if append {
                    self.vfs.append(ino, data)?;
                } else {
                    // Positional overwrite.
                    let mut content = self.vfs.read_all(ino)?.to_vec();
                    if offset + data.len() > content.len() {
                        content.resize(offset + data.len(), 0);
                    }
                    content[offset..offset + data.len()].copy_from_slice(data);
                    self.vfs.write_all(ino, &content)?;
                    if let FdObject::File { offset, .. } =
                        &mut self.task_mut(c.pid)?.fd_mut(fd)?.object
                    {
                        *offset += data.len();
                    }
                }
                Ok(data.len())
            }
            FdObject::PipeWrite(id) => self.pipes.with(id, |p| {
                if p.readers == 0 {
                    return Err(Errno::EPIPE);
                }
                p.buf.extend(data.iter().copied());
                Ok(data.len())
            }),
            FdObject::PipeRead(_) => Err(Errno::EBADF),
            FdObject::Socket(_) => Err(Errno::EINVAL), // use send
        }
    }

    /// Handles a write to a dynamic node. LSM configuration files accept
    /// writes only from root — the trusted daemon/administrator path of
    /// Figure 1.
    fn write_hook_node(&self, c: &Caller, hook: ProcHook, data: &[u8]) -> KResult<usize> {
        match hook {
            ProcHook::LsmConfig(name) => {
                let cred = &c.cred;
                if !cred.euid.is_root() {
                    let msg = format!("lsm-config: non-root write to '{}' refused", name);
                    self.emit_kernel_event(
                        c.pid,
                        "write",
                        Hook::LsmConfig,
                        DecisionKind::Deny,
                        Some(Errno::EPERM),
                        AuditObject::Config(name.to_string()),
                        msg,
                    );
                    return Err(Errno::EPERM);
                }
                let content = String::from_utf8(data.to_vec()).map_err(|_| Errno::EINVAL)?;
                self.lsm_mut().config_write(name, &content)?;
                let msg = format!("lsm-config: '{}' updated", name);
                self.emit_kernel_event(
                    c.pid,
                    "write",
                    Hook::LsmConfig,
                    DecisionKind::Info,
                    None,
                    AuditObject::Config(name.to_string()),
                    msg,
                );
                Ok(data.len())
            }
            ProcHook::SeccompProfiles | ProcHook::SeccompStatus | ProcHook::SeccompViolations => {
                self.write_seccomp_node(c, hook, data)
            }
            _ => Err(Errno::EACCES),
        }
    }

    /// Writes to the `/proc/seccomp/*` control plane. The nodes are 0600
    /// root-owned (non-root opens already fail `EACCES` at DAC); this
    /// re-checks euid like the LSM config path so an fd leaked across a
    /// credential drop still refuses, with an audited `EPERM`.
    fn write_seccomp_node(&self, c: &Caller, hook: ProcHook, data: &[u8]) -> KResult<usize> {
        let node = match hook {
            ProcHook::SeccompProfiles => "seccomp/profiles",
            ProcHook::SeccompStatus => "seccomp/status",
            _ => "seccomp/violations",
        };
        if !c.cred.euid.is_root() {
            let msg = format!("seccomp: non-root write to '{}' refused", node);
            self.emit_kernel_event(
                c.pid,
                "write",
                Hook::LsmConfig,
                DecisionKind::Deny,
                Some(Errno::EPERM),
                AuditObject::Config(node.to_string()),
                msg,
            );
            return Err(Errno::EPERM);
        }
        let content = String::from_utf8(data.to_vec()).map_err(|_| Errno::EINVAL)?;
        let msg = match hook {
            ProcHook::SeccompProfiles => {
                let specs = crate::seccomp::Seccomp::parse_profiles_text(&content)
                    .map_err(|_| Errno::EINVAL)?;
                let n = self
                    .seccomp
                    .load_profiles(&specs)
                    .map_err(|_| Errno::EINVAL)?;
                format!("seccomp: loaded {} profiles", n)
            }
            ProcHook::SeccompStatus => {
                let mode = crate::seccomp::SeccompMode::parse(&content).ok_or(Errno::EINVAL)?;
                self.seccomp.set_mode(mode);
                format!("seccomp: mode -> {}", mode.name())
            }
            _ => {
                if content.trim() != "clear" {
                    return Err(Errno::EINVAL);
                }
                self.seccomp.clear_violations();
                "seccomp: violation log cleared".to_string()
            }
        };
        self.emit_kernel_event(
            c.pid,
            "write",
            Hook::LsmConfig,
            DecisionKind::Info,
            None,
            AuditObject::Config(node.to_string()),
            msg,
        );
        Ok(data.len())
    }

    // ------------------------------------------------------------------
    // Inspection reads: the kernel-side reads that checks, oracles and
    // benchmark verifiers use. They run the full open/read/close path, so
    // every policy check applies, but they do not go through `dispatch`:
    // an armed interceptor (fault plan, enforcing seccomp profile) must
    // not perturb a check of what the workload did. Tasks do their IO
    // through `Process`.
    // ------------------------------------------------------------------

    /// Opens `path` as `pid`, appends its whole content to `buf`, and
    /// closes — on every path, errors included.
    pub fn read_file_into(&self, pid: Pid, path: &str, buf: &mut Vec<u8>) -> KResult<()> {
        const CHUNK: usize = 65536;
        let c = &self.live_caller(pid)?;
        let fd = self.sys_open(c, path, OpenFlags::read_only())?;
        let read = loop {
            match self.sys_read(c, fd, buf, CHUNK) {
                Ok(CHUNK) => continue,
                Ok(_) => break Ok(()),
                Err(e) => break Err(e),
            }
        };
        let closed = self.sys_close(c, fd);
        read.and(closed)
    }

    /// Opens, reads fully as UTF-8, and closes.
    pub fn read_to_string(&self, pid: Pid, path: &str) -> KResult<String> {
        let mut buf = Vec::new();
        self.read_file_into(pid, path, &mut buf)?;
        String::from_utf8(buf).map_err(|_| Errno::EINVAL)
    }

    // ------------------------------------------------------------------
    // Metadata
    // ------------------------------------------------------------------

    /// `stat(2)`.
    pub(crate) fn sys_stat(&self, c: &Caller, path: &str) -> KResult<Stat> {
        let r = self.walk(c, path)?;
        let i = self.vfs.inode(r.ino);
        Ok(Stat {
            ino: i.ino,
            mode: i.mode,
            uid: i.uid,
            gid: i.gid,
            size: i.size(),
            nlink: i.nlink,
            is_dir: i.data.is_dir(),
        })
    }

    /// `lstat(2)` — like stat but does not follow a trailing symlink.
    pub(crate) fn sys_lstat(&self, c: &Caller, path: &str) -> KResult<Stat> {
        let r = self.walk_nofollow(c, path)?;
        let i = self.vfs.inode(r.ino);
        Ok(Stat {
            ino: i.ino,
            mode: i.mode,
            uid: i.uid,
            gid: i.gid,
            size: i.size(),
            nlink: i.nlink,
            is_dir: i.data.is_dir(),
        })
    }

    /// `chmod(2)` — owner or CAP_FOWNER.
    pub(crate) fn sys_chmod(&self, c: &Caller, path: &str, mode: Mode) -> KResult<()> {
        let r = self.walk(c, path)?;
        let cred = &c.cred;
        let owner = self.vfs.inode(r.ino).uid;
        if cred.fsuid != owner && !self.capable(c, Cap::Fowner) {
            return Err(Errno::EPERM);
        }
        // Setting setuid/setgid as non-root is allowed on own files (as on
        // Linux); the *power* of the bit depends on the owner.
        self.vfs.inode_mut(r.ino).mode = mode;
        self.vfs.touch(r.ino);
        // No dcache invalidation: resolution reads no mode bits, and the
        // search checks run on every walk's `dirs` afresh.
        Ok(())
    }

    /// `chown(2)` — changing the owner requires CAP_CHOWN; changing the
    /// group requires ownership and membership, or CAP_CHOWN.
    pub(crate) fn sys_chown(
        &self,
        c: &Caller,
        path: &str,
        uid: Option<Uid>,
        gid: Option<Gid>,
    ) -> KResult<()> {
        let r = self.walk(c, path)?;
        let cred = &c.cred;
        let inode_uid = self.vfs.inode(r.ino).uid;
        if let Some(new_uid) = uid {
            if new_uid != inode_uid && !self.capable(c, Cap::Chown) {
                return Err(Errno::EPERM);
            }
        }
        if let Some(new_gid) = gid {
            let owns = cred.fsuid == inode_uid;
            let group_change_ok = owns && cred.in_group(new_gid);
            if !group_change_ok && !self.capable(c, Cap::Chown) {
                return Err(Errno::EPERM);
            }
        }
        // As on Linux, chown by an unprivileged principal clears setuid.
        let clearing = !self.capable(c, Cap::Fsetid);
        {
            // Scoped: the guard must drop before `touch` relocks the shard.
            let mut inode = self.vfs.inode_mut(r.ino);
            if let Some(u) = uid {
                inode.uid = u;
            }
            if let Some(g) = gid {
                inode.gid = g;
            }
            if clearing {
                inode.mode = Mode(inode.mode.0 & !(Mode::SETUID | Mode::SETGID));
            }
        }
        self.vfs.touch(r.ino);
        Ok(())
    }

    /// `mkdir(2)`.
    pub(crate) fn sys_mkdir(&self, c: &Caller, path: &str, mode: Mode) -> KResult<()> {
        let (parent, name) = self.vfs.resolve_parent(c.cwd, path)?;
        for d in parent.dirs.iter() {
            self.check_access(c, d, Access::EXEC)?;
        }
        self.check_access(c, parent.ino, Access::WRITE.and(Access::EXEC))?;
        let cred = &c.cred;
        self.vfs
            .mkdir(parent.ino, name, mode, cred.fsuid, cred.egid)?;
        Ok(())
    }

    /// `unlink(2)`.
    pub(crate) fn sys_unlink(&self, c: &Caller, path: &str) -> KResult<()> {
        let (parent, name) = self.vfs.resolve_parent(c.cwd, path)?;
        for d in parent.dirs.iter() {
            self.check_access(c, d, Access::EXEC)?;
        }
        self.check_access(c, parent.ino, Access::WRITE.and(Access::EXEC))?;
        self.vfs.unlink(parent.ino, name)
    }

    /// `rmdir(2)`.
    pub(crate) fn sys_rmdir(&self, c: &Caller, path: &str) -> KResult<()> {
        let (parent, name) = self.vfs.resolve_parent(c.cwd, path)?;
        for d in parent.dirs.iter() {
            self.check_access(c, d, Access::EXEC)?;
        }
        self.check_access(c, parent.ino, Access::WRITE.and(Access::EXEC))?;
        self.vfs.rmdir(parent.ino, name)
    }

    /// `rename(2)` — both parents need write+search permission.
    pub(crate) fn sys_rename(&self, c: &Caller, from: &str, to: &str) -> KResult<()> {
        let (from_parent, from_name) = self.vfs.resolve_parent(c.cwd, from)?;
        for d in from_parent.dirs.iter() {
            self.check_access(c, d, Access::EXEC)?;
        }
        self.check_access(c, from_parent.ino, Access::WRITE.and(Access::EXEC))?;
        let (to_parent, to_name) = self.vfs.resolve_parent(c.cwd, to)?;
        for d in to_parent.dirs.iter() {
            self.check_access(c, d, Access::EXEC)?;
        }
        self.check_access(c, to_parent.ino, Access::WRITE.and(Access::EXEC))?;
        self.vfs
            .rename(from_parent.ino, from_name, to_parent.ino, to_name)
    }

    /// `symlink(2)`.
    pub(crate) fn sys_symlink(&self, c: &Caller, target: &str, linkpath: &str) -> KResult<()> {
        let (parent, name) = self.vfs.resolve_parent(c.cwd, linkpath)?;
        self.check_access(c, parent.ino, Access::WRITE.and(Access::EXEC))?;
        let cred = &c.cred;
        self.vfs
            .symlink(parent.ino, name, target, cred.fsuid, cred.egid)?;
        Ok(())
    }

    /// `chdir(2)`.
    pub(crate) fn sys_chdir(&self, c: &Caller, path: &str) -> KResult<()> {
        let r = self.walk(c, path)?;
        if !self.vfs.inode(r.ino).data.is_dir() {
            return Err(Errno::ENOTDIR);
        }
        self.check_access(c, r.ino, Access::EXEC)?;
        self.task_mut(c.pid)?.cwd = r.ino;
        Ok(())
    }

    /// Lists a directory's entry names.
    pub(crate) fn sys_readdir(&self, c: &Caller, path: &str) -> KResult<Vec<String>> {
        let r = self.walk(c, path)?;
        self.check_access(c, r.ino, Access::READ)?;
        let inode = self.vfs.inode(r.ino);
        let entries = inode.dir_entries().ok_or(Errno::ENOTDIR)?;
        let mut names: Vec<String> = entries.keys().map(|n| n.as_str().to_string()).collect();
        names.sort();
        Ok(names)
    }

    /// `pipe(2)` — returns (read fd, write fd).
    pub(crate) fn sys_pipe(&self, c: &Caller) -> KResult<(i32, i32)> {
        let id = self.pipes.alloc();
        let mut t = self.task_mut(c.pid)?;
        let r = t.fd_install(Fd {
            object: FdObject::PipeRead(id),
            cloexec: false,
        })?;
        let w = t.fd_install(Fd {
            object: FdObject::PipeWrite(id),
            cloexec: false,
        })?;
        Ok((r, w))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cred::Credentials;
    use crate::net::SimNet;

    fn boot() -> (Kernel, Pid, Pid) {
        let k = Kernel::new(SimNet::new());
        let root = k.spawn_init();
        k.vfs.mkdir_p("/etc").unwrap();
        k.vfs.mkdir_p("/tmp").unwrap();
        // world-writable tmp
        let t = k.vfs.resolve(k.vfs.root(), "/tmp").unwrap().ino;
        k.vfs.inode_mut(t).mode = Mode(0o1777);
        k.vfs
            .install_file("/etc/motd", b"hello\n", Mode(0o644), Uid::ROOT, Gid::ROOT)
            .unwrap();
        k.vfs
            .install_file(
                "/etc/shadow",
                b"root:$sim$xx$0:0:0\n",
                Mode(0o600),
                Uid::ROOT,
                Gid::ROOT,
            )
            .unwrap();
        let user = k.spawn_session(Credentials::user(Uid(1000), Gid(1000)), "/bin/sh");
        (k, root, user)
    }

    #[test]
    fn user_reads_world_readable() {
        let (k, _, u) = boot();
        assert_eq!(k.process(u).read_file("/etc/motd").unwrap(), b"hello\n");
    }

    #[test]
    fn user_cannot_read_shadow() {
        let (k, _, u) = boot();
        assert_eq!(
            k.process(u).read_file("/etc/shadow").unwrap_err(),
            Errno::EACCES
        );
    }

    #[test]
    fn root_reads_shadow_via_dac_override() {
        let (k, r, _) = boot();
        assert!(k.process(r).read_file("/etc/shadow").is_ok());
    }

    #[test]
    fn inspection_read_closes_its_fd_on_error() {
        // Regression: a read error returned before the close, leaking the
        // descriptor, so the next open got fd 1 instead of 0.
        let (k, _, u) = boot();
        assert_eq!(k.read_to_string(u, "/tmp").unwrap_err(), Errno::EISDIR);
        assert_eq!(
            k.process(u).open("/etc/motd", OpenFlags::read_only()),
            Ok(0)
        );
    }

    #[test]
    fn user_cannot_write_etc() {
        let (k, _, u) = boot();
        assert_eq!(
            k.process(u)
                .write_file("/etc/evil", b"x", Mode(0o644))
                .unwrap_err(),
            Errno::EACCES
        );
        assert_eq!(
            k.process(u).append_file("/etc/motd", b"x").unwrap_err(),
            Errno::EACCES
        );
    }

    #[test]
    fn create_write_read_in_tmp() {
        let (k, _, u) = boot();
        k.process(u)
            .write_file("/tmp/a.txt", b"data", Mode(0o600))
            .unwrap();
        assert_eq!(k.process(u).read_file("/tmp/a.txt").unwrap(), b"data");
        let st = k.process(u).stat("/tmp/a.txt").unwrap();
        assert_eq!(st.uid, Uid(1000));
        assert_eq!(st.mode, Mode(0o600));
        assert_eq!(st.size, 4);
    }

    #[test]
    fn append_and_offsets() {
        let (k, _, u) = boot();
        k.process(u)
            .write_file("/tmp/log", b"one\n", Mode(0o644))
            .unwrap();
        k.process(u).append_file("/tmp/log", b"two\n").unwrap();
        assert_eq!(k.process(u).read_file("/tmp/log").unwrap(), b"one\ntwo\n");
    }

    #[test]
    fn excl_create() {
        let (k, _, u) = boot();
        let mut f = OpenFlags::create_trunc(Mode(0o600));
        f.excl = true;
        let fd = k.process(u).open("/tmp/x", f).unwrap();
        k.process(u).close(fd).unwrap();
        assert_eq!(k.process(u).open("/tmp/x", f).unwrap_err(), Errno::EEXIST);
    }

    #[test]
    fn read_requires_read_flag() {
        let (k, _, u) = boot();
        k.process(u)
            .write_file("/tmp/y", b"secret", Mode(0o600))
            .unwrap();
        let fd = k
            .process(u)
            .open("/tmp/y", OpenFlags::write_only())
            .unwrap();
        assert_eq!(k.process(u).read(fd, 10).unwrap_err(), Errno::EBADF);
    }

    #[test]
    fn chmod_chown_rules() {
        let (k, r, u) = boot();
        k.process(u)
            .write_file("/tmp/own", b"", Mode(0o644))
            .unwrap();
        k.process(u).chmod("/tmp/own", Mode(0o600)).unwrap();
        // Non-owner cannot chmod.
        assert_eq!(
            k.process(u).chmod("/etc/motd", Mode(0o777)).unwrap_err(),
            Errno::EPERM
        );
        // User cannot give a file away.
        assert_eq!(
            k.process(u)
                .chown("/tmp/own", Some(Uid::ROOT), None)
                .unwrap_err(),
            Errno::EPERM
        );
        // Root can.
        k.process(r)
            .chown("/tmp/own", Some(Uid(1001)), None)
            .unwrap();
        assert_eq!(k.process(r).stat("/tmp/own").unwrap().uid, Uid(1001));
    }

    #[test]
    fn chown_clears_setuid_bit() {
        let (k, r, _) = boot();
        k.process(r)
            .write_file("/tmp/suid", b"", Mode(0o4755))
            .unwrap();
        k.process(r).chmod("/tmp/suid", Mode(0o4755)).unwrap();
        // Root holds CAP_FSETID so the bit survives root's chown...
        k.process(r)
            .chown("/tmp/suid", Some(Uid(1000)), None)
            .unwrap();
        assert!(k.process(r).stat("/tmp/suid").unwrap().mode.is_setuid());
    }

    #[test]
    fn mkdir_unlink_rmdir() {
        let (k, _, u) = boot();
        k.process(u).mkdir("/tmp/d", Mode(0o755)).unwrap();
        k.process(u)
            .write_file("/tmp/d/f", b"x", Mode(0o644))
            .unwrap();
        assert_eq!(k.process(u).rmdir("/tmp/d").unwrap_err(), Errno::ENOTEMPTY);
        k.process(u).unlink("/tmp/d/f").unwrap();
        k.process(u).rmdir("/tmp/d").unwrap();
        assert_eq!(k.process(u).stat("/tmp/d").unwrap_err(), Errno::ENOENT);
    }

    #[test]
    fn search_permission_enforced() {
        let (k, r, u) = boot();
        k.vfs.mkdir_p("/secret").unwrap();
        let s = k.vfs.resolve(k.vfs.root(), "/secret").unwrap().ino;
        k.vfs.inode_mut(s).mode = Mode(0o700);
        k.process(r)
            .write_file("/secret/f", b"x", Mode(0o644))
            .unwrap();
        assert_eq!(
            k.process(u).read_file("/secret/f").unwrap_err(),
            Errno::EACCES
        );
        assert!(k.process(r).read_file("/secret/f").is_ok());
    }

    #[test]
    fn chdir_and_relative_paths() {
        let (k, _, u) = boot();
        k.process(u).chdir("/tmp").unwrap();
        k.process(u)
            .write_file("rel.txt", b"r", Mode(0o644))
            .unwrap();
        assert_eq!(k.process(u).read_file("/tmp/rel.txt").unwrap(), b"r");
        assert_eq!(k.process(u).chdir("/etc/motd").unwrap_err(), Errno::ENOTDIR);
    }

    #[test]
    fn readdir_lists_entries() {
        let (k, _, u) = boot();
        k.process(u).write_file("/tmp/a", b"", Mode(0o644)).unwrap();
        k.process(u).write_file("/tmp/b", b"", Mode(0o644)).unwrap();
        let names = k.process(u).readdir("/tmp").unwrap();
        assert_eq!(names, vec!["a".to_string(), "b".to_string()]);
    }

    #[test]
    fn pipe_roundtrip() {
        let (k, _, u) = boot();
        let (r, w) = k.process(u).pipe().unwrap();
        k.process(u).write(w, b"through the pipe").unwrap();
        assert_eq!(k.process(u).read(r, 1024).unwrap(), b"through the pipe");
        // Empty with live writer -> EAGAIN; after close -> EOF.
        assert_eq!(k.process(u).read(r, 1).unwrap_err(), Errno::EAGAIN);
        k.process(u).close(w).unwrap();
        assert!(k.process(u).read(r, 1).unwrap().is_empty());
    }

    #[test]
    fn write_to_closed_pipe_is_epipe() {
        let (k, _, u) = boot();
        let (r, w) = k.process(u).pipe().unwrap();
        k.process(u).close(r).unwrap();
        assert_eq!(k.process(u).write(w, b"x").unwrap_err(), Errno::EPIPE);
    }

    #[test]
    fn proc_uptime_readable() {
        let (k, _, u) = boot();
        k.install_standard_devices().unwrap();
        let s = k.read_to_string(u, "/proc/uptime").unwrap();
        assert!(s.contains(".00"));
    }

    #[test]
    fn dev_null_swallows_writes() {
        let (k, _, u) = boot();
        k.install_standard_devices().unwrap();
        let fd = k
            .process(u)
            .open("/dev/null", OpenFlags::write_only())
            .unwrap();
        assert_eq!(k.process(u).write(fd, b"gone").unwrap(), 4);
    }
}
