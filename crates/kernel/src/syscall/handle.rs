//! The pid-bound syscall handle: the public way into the kernel.
//!
//! A [`Process`] pairs a kernel borrow with one pid and routes each call
//! through [`Kernel::dispatch`] — the typed ABI boundary. The `sys_*`
//! bodies behind it are crate-private, so every call a binary, daemon,
//! benchmark or test makes passes the registered interceptors (seccomp,
//! fault injection, trace record/replay, per-class metering).
//!
//! The file helpers ([`Process::read_file`] and friends) issue their
//! open/read/write/close legs through dispatch too, so a program's
//! whole-file IO is equally fault-exposed and traced.

use crate::cred::{Gid, Uid};
use crate::error::{Errno, KResult};
use crate::kernel::Kernel;
use crate::net::{Domain, Ipv4, Packet, SockType};
use crate::syscall::{
    IoctlCmd, IoctlOut, NetfilterOp, NetfilterRule, OpenFlags, RouteOp, Stat, SysRet, Syscall,
    Whence,
};
use crate::task::{NsKind, Pid};
use crate::vfs::Mode;

/// A pid-bound handle issuing typed syscalls through the dispatch
/// boundary.
pub struct Process<'k> {
    kernel: &'k Kernel,
    pid: Pid,
}

impl<'k> Process<'k> {
    /// Binds `pid` to `kernel`; [`Kernel::process`] is the public way in.
    pub(crate) fn new(kernel: &'k Kernel, pid: Pid) -> Process<'k> {
        Process { kernel, pid }
    }

    /// The bound pid.
    pub fn pid(&self) -> Pid {
        self.pid
    }

    fn dispatch(&self, call: Syscall<'_>) -> SysRet {
        self.kernel.dispatch(self.pid, call)
    }

    // ------------------------------------------------------------- fs --

    /// `open(2)`.
    pub fn open(&mut self, path: &str, flags: OpenFlags) -> KResult<i32> {
        self.dispatch(Syscall::Open { path, flags }).fd()
    }

    /// `close(2)`.
    pub fn close(&mut self, fd: i32) -> KResult<()> {
        self.dispatch(Syscall::Close { fd }).unit()
    }

    /// `read(2)` — returns up to `count` bytes.
    pub fn read(&mut self, fd: i32, count: usize) -> KResult<Vec<u8>> {
        self.dispatch(Syscall::Read { fd, count }).data()
    }

    /// `write(2)`.
    pub fn write(&mut self, fd: i32, data: &[u8]) -> KResult<usize> {
        self.dispatch(Syscall::Write { fd, data }).size()
    }

    /// `lseek(2)`.
    pub fn lseek(&mut self, fd: i32, offset: i64, whence: Whence) -> KResult<usize> {
        self.dispatch(Syscall::Lseek { fd, offset, whence }).size()
    }

    /// `stat(2)`.
    pub fn stat(&mut self, path: &str) -> KResult<Stat> {
        self.dispatch(Syscall::Stat { path }).stat()
    }

    /// `lstat(2)`.
    pub fn lstat(&mut self, path: &str) -> KResult<Stat> {
        self.dispatch(Syscall::Lstat { path }).stat()
    }

    /// `chmod(2)`.
    pub fn chmod(&mut self, path: &str, mode: Mode) -> KResult<()> {
        self.dispatch(Syscall::Chmod { path, mode }).unit()
    }

    /// `chown(2)`.
    pub fn chown(&mut self, path: &str, uid: Option<Uid>, gid: Option<Gid>) -> KResult<()> {
        self.dispatch(Syscall::Chown { path, uid, gid }).unit()
    }

    /// `mkdir(2)`.
    pub fn mkdir(&mut self, path: &str, mode: Mode) -> KResult<()> {
        self.dispatch(Syscall::Mkdir { path, mode }).unit()
    }

    /// `unlink(2)`.
    pub fn unlink(&mut self, path: &str) -> KResult<()> {
        self.dispatch(Syscall::Unlink { path }).unit()
    }

    /// `rmdir(2)`.
    pub fn rmdir(&mut self, path: &str) -> KResult<()> {
        self.dispatch(Syscall::Rmdir { path }).unit()
    }

    /// `rename(2)`.
    pub fn rename(&mut self, from: &str, to: &str) -> KResult<()> {
        self.dispatch(Syscall::Rename { from, to }).unit()
    }

    /// `symlink(2)`.
    pub fn symlink(&mut self, target: &str, linkpath: &str) -> KResult<()> {
        self.dispatch(Syscall::Symlink { target, linkpath }).unit()
    }

    /// `chdir(2)`.
    pub fn chdir(&mut self, path: &str) -> KResult<()> {
        self.dispatch(Syscall::Chdir { path }).unit()
    }

    /// `readdir(3)`.
    pub fn readdir(&mut self, path: &str) -> KResult<Vec<String>> {
        self.dispatch(Syscall::Readdir { path }).names()
    }

    /// `pipe(2)`.
    pub fn pipe(&mut self) -> KResult<(i32, i32)> {
        self.dispatch(Syscall::Pipe).fd_pair()
    }

    // ------------------------------------------------------------- id --

    /// `setuid(2)`.
    pub fn setuid(&mut self, uid: Uid) -> KResult<()> {
        self.dispatch(Syscall::Setuid { uid }).unit()
    }

    /// `seteuid(2)`.
    pub fn seteuid(&mut self, uid: Uid) -> KResult<()> {
        self.dispatch(Syscall::Seteuid { uid }).unit()
    }

    /// `setgid(2)`.
    pub fn setgid(&mut self, gid: Gid) -> KResult<()> {
        self.dispatch(Syscall::Setgid { gid }).unit()
    }

    /// `setgroups(2)`.
    pub fn setgroups(&mut self, groups: &[Gid]) -> KResult<()> {
        self.dispatch(Syscall::Setgroups { groups }).unit()
    }

    /// `getuid(2)`.
    pub fn getuid(&mut self) -> KResult<Uid> {
        self.dispatch(Syscall::Getuid).uid()
    }

    /// `geteuid(2)`.
    pub fn geteuid(&mut self) -> KResult<Uid> {
        self.dispatch(Syscall::Geteuid).uid()
    }

    /// `getgid(2)`.
    pub fn getgid(&mut self) -> KResult<Gid> {
        self.dispatch(Syscall::Getgid).gid()
    }

    // -------------------------------------------------- ioctl / mount --

    /// `ioctl(2)`.
    pub fn ioctl(&mut self, fd: i32, cmd: IoctlCmd) -> KResult<IoctlOut> {
        self.dispatch(Syscall::Ioctl { fd, cmd }).ioctl()
    }

    /// `mount(2)`.
    pub fn mount(
        &mut self,
        source: &str,
        target: &str,
        fstype: &str,
        options: &str,
    ) -> KResult<()> {
        self.dispatch(Syscall::Mount {
            source,
            target,
            fstype,
            options,
        })
        .unit()
    }

    /// `umount(2)`.
    pub fn umount(&mut self, target: &str) -> KResult<()> {
        self.dispatch(Syscall::Umount { target }).unit()
    }

    // ------------------------------------------------------------ net --

    /// `socket(2)`.
    pub fn socket(&mut self, domain: Domain, stype: SockType, protocol: u8) -> KResult<i32> {
        self.dispatch(Syscall::Socket {
            domain,
            stype,
            protocol,
        })
        .fd()
    }

    /// `bind(2)`.
    pub fn bind(&mut self, fd: i32, addr: Ipv4, port: u16) -> KResult<()> {
        self.dispatch(Syscall::Bind { fd, addr, port }).unit()
    }

    /// `listen(2)`.
    pub fn listen(&mut self, fd: i32) -> KResult<()> {
        self.dispatch(Syscall::Listen { fd }).unit()
    }

    /// `connect(2)`.
    pub fn connect(&mut self, fd: i32, addr: Ipv4, port: u16) -> KResult<()> {
        self.dispatch(Syscall::Connect { fd, addr, port }).unit()
    }

    /// `accept(2)`.
    pub fn accept(&mut self, fd: i32) -> KResult<i32> {
        self.dispatch(Syscall::Accept { fd }).fd()
    }

    /// `send(2)`.
    pub fn send(&mut self, fd: i32, data: &[u8]) -> KResult<usize> {
        self.dispatch(Syscall::Send { fd, data }).size()
    }

    /// `recv(2)`.
    pub fn recv(&mut self, fd: i32, max: usize) -> KResult<Vec<u8>> {
        self.dispatch(Syscall::Recv { fd, max }).data()
    }

    /// Raw packet reception.
    pub fn recv_packet(&mut self, fd: i32) -> KResult<Packet> {
        self.dispatch(Syscall::RecvPacket { fd }).packet()
    }

    /// `sendto(2)`.
    pub fn sendto(&mut self, fd: i32, addr: Ipv4, port: u16, data: &[u8]) -> KResult<usize> {
        self.dispatch(Syscall::Sendto {
            fd,
            addr,
            port,
            data,
        })
        .size()
    }

    /// Raw packet transmission.
    pub fn send_packet(&mut self, fd: i32, pkt: Packet) -> KResult<()> {
        self.dispatch(Syscall::SendPacket { fd, pkt }).unit()
    }

    /// `socketpair(2)`.
    pub fn socketpair(&mut self) -> KResult<(i32, i32)> {
        self.dispatch(Syscall::Socketpair).fd_pair()
    }

    /// Netfilter administration.
    pub fn netfilter(&mut self, op: NetfilterOp) -> KResult<()> {
        self.dispatch(Syscall::Netfilter { op }).unit()
    }

    /// Lists the netfilter OUTPUT chain.
    pub fn netfilter_list(&mut self) -> KResult<Vec<NetfilterRule>> {
        self.dispatch(Syscall::NetfilterList).rules()
    }

    /// Routing-table ioctls.
    pub fn ioctl_route(&mut self, op: RouteOp) -> KResult<()> {
        self.dispatch(Syscall::IoctlRoute { op }).unit()
    }

    // -------------------------------------------------------- process --

    /// `fork(2)`.
    pub fn fork(&mut self) -> KResult<Pid> {
        self.dispatch(Syscall::Fork).pid()
    }

    /// `execve(2)` — returns the resolved binary path.
    pub fn execve(&mut self, path: &str) -> KResult<String> {
        self.dispatch(Syscall::Execve { path }).path()
    }

    /// `unshare(2)`.
    pub fn unshare(&mut self, kind: NsKind) -> KResult<()> {
        self.dispatch(Syscall::Unshare { kind }).unit()
    }

    /// `exit(2)`.
    pub fn exit(&mut self, status: i32) -> KResult<()> {
        self.dispatch(Syscall::Exit { status }).unit()
    }

    /// `waitpid(2)`.
    pub fn wait(&mut self, child: Pid) -> KResult<i32> {
        self.dispatch(Syscall::Wait { child }).status()
    }

    // ---------------------------------------------------- file helpers --

    /// Opens, reads fully, and closes — every leg through dispatch.
    pub fn read_file(&mut self, path: &str) -> KResult<Vec<u8>> {
        let fd = self.open(path, OpenFlags::read_only())?;
        let mut buf = Vec::new();
        loop {
            let chunk = match self.read(fd, 65536) {
                Ok(c) => c,
                Err(e) => {
                    let _ = self.close(fd);
                    return Err(e);
                }
            };
            let n = chunk.len();
            buf.extend_from_slice(&chunk);
            if n < 65536 {
                break;
            }
        }
        self.close(fd)?;
        Ok(buf)
    }

    /// Opens, reads fully as UTF-8, and closes.
    pub fn read_to_string(&mut self, path: &str) -> KResult<String> {
        String::from_utf8(self.read_file(path)?).map_err(|_| Errno::EINVAL)
    }

    /// Creates/truncates and writes a whole file.
    pub fn write_file(&mut self, path: &str, data: &[u8], mode: Mode) -> KResult<()> {
        let fd = self.open(path, OpenFlags::create_trunc(mode))?;
        if let Err(e) = self.write(fd, data) {
            let _ = self.close(fd);
            return Err(e);
        }
        self.close(fd)
    }

    /// Appends to an existing file.
    pub fn append_file(&mut self, path: &str, data: &[u8]) -> KResult<()> {
        let fd = self.open(path, OpenFlags::append_only())?;
        if let Err(e) = self.write(fd, data) {
            let _ = self.close(fd);
            return Err(e);
        }
        self.close(fd)
    }
}

impl Kernel {
    /// A [`Process`] handle bound to `pid`: the typed way to issue
    /// syscalls through [`Kernel::dispatch`].
    pub fn process(&self, pid: Pid) -> Process<'_> {
        Process::new(self, pid)
    }
}
