//! The unified syscall ABI: the typed request/response boundary that is
//! the only public way into the kernel.
//!
//! Every kernel entry point in the [`crate::syscall`] modules is a
//! crate-private `sys_*` body. Callers outside the crate build a
//! [`Syscall`] request and hand it to [`Kernel::dispatch`], usually
//! through the pid-bound [`crate::syscall::Process`] handle. The
//! dispatcher is a thin, total mapping onto the bodies, and it is the
//! one boundary at which the simulation can confine, perturb, record,
//! and replay a run:
//!
//! * [`crate::syscall::Interceptor`]s registered on the kernel see every
//!   call before and after execution. A `before` hook may short-circuit
//!   the call with an errno (seccomp enforcement, fault injection); an
//!   `after` hook observes the full `(pid, Syscall, SysRet)` triple
//!   (trace recording, replay checking, metering).
//! * Because the whole simulation is deterministic, the dispatched stream
//!   of a run replays byte-identically under the same seed, which turns
//!   behavioural comparisons (the paper's §5.3 legacy-vs-Protego
//!   divergence suite) into diffs over recorded traces.
//!
//! A request borrows its arguments (`&str`/`&[u8]` rather than owned
//! copies), so issuing a call copies nothing to the heap.

use crate::cred::{Gid, Uid};
use crate::error::{Errno, KResult};
use crate::kernel::Kernel;
use crate::net::{Domain, Ipv4, Packet, SockType};
use crate::syscall::interceptor::{SysCtx, Verdict};
use crate::syscall::{Interceptor, IoctlCmd, IoctlOut, NetfilterOp, OpenFlags, RouteOp, Stat};
use crate::task::{Caller, NsKind, Pid};
use crate::trace;
use crate::trace::{table_key, AuditObject, DecisionKind, Hook, Provenance};
use crate::vfs::Mode;
use std::sync::atomic::Ordering;
use std::sync::Arc;

table_key! {
    /// The class a syscall belongs to — the granularity at which the fault
    /// injector targets errno storms and the meter aggregates counters.
    /// Discriminant order is alphabetical-name order.
    #[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
    pub enum SyscallClass {
        /// Filesystem calls (open/read/write/stat/...).
        Fs => "fs",
        /// Credential calls (setuid/setgid/...).
        Id => "id",
        /// Device ioctls.
        Ioctl => "ioctl",
        /// mount/umount.
        Mount => "mount",
        /// Sockets, packets, netfilter, and routing.
        Net => "net",
        /// fork/execve/unshare/exit/wait.
        Process => "process",
    }
}

/// `lseek(2)` origin selector.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Whence {
    /// `SEEK_SET` — from the start of the file.
    Set,
    /// `SEEK_CUR` — from the current offset.
    Cur,
    /// `SEEK_END` — from the end of the file.
    End,
}

/// A netfilter OUTPUT-chain rule as reported by
/// [`Process::netfilter_list`](crate::syscall::Process::netfilter_list)
/// — the public view of the kernel's internal rule representation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NetfilterRule {
    /// Rule name (iptables comment).
    pub name: String,
    /// Matches only packets sent through raw/packet sockets.
    pub raw_socket_only: bool,
    /// Protocol match, rendered (`"icmp"`, `"tcp"`, `"udp"`, `"arp"`,
    /// `"ip"`), or `None` for any protocol.
    pub proto: Option<String>,
    /// ICMP type whitelist, when the rule carries one.
    pub icmp_types: Option<Vec<u8>>,
    /// Destination-port range match, when the rule carries one.
    pub dst_ports: Option<(u16, u16)>,
    /// Spoof-analysis match (`Some(true)` = spoofed only).
    pub spoofed: Option<bool>,
    /// Whether the rule accepts (vs drops) matching packets.
    pub accept: bool,
}

impl From<&crate::net::Rule> for NetfilterRule {
    fn from(r: &crate::net::Rule) -> NetfilterRule {
        use crate::net::{ProtoMatch, Verdict};
        NetfilterRule {
            name: r.name.clone(),
            raw_socket_only: r.raw_socket_only,
            proto: r.proto.map(|p| {
                match p {
                    ProtoMatch::Icmp => "icmp",
                    ProtoMatch::Tcp => "tcp",
                    ProtoMatch::Udp => "udp",
                    ProtoMatch::Arp => "arp",
                    ProtoMatch::OtherIp => "ip",
                }
                .to_string()
            }),
            icmp_types: r.icmp_types.clone(),
            dst_ports: r.dst_ports,
            spoofed: r.spoofed,
            accept: r.verdict == Verdict::Accept,
        }
    }
}

impl std::fmt::Display for NetfilterRule {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} {}",
            self.name,
            if self.accept { "ACCEPT" } else { "DROP" }
        )?;
        if self.raw_socket_only {
            write!(f, " raw")?;
        }
        if let Some(p) = &self.proto {
            write!(f, " proto={}", p)?;
        }
        if let Some(t) = &self.icmp_types {
            write!(f, " icmp-types={:?}", t)?;
        }
        if let Some((lo, hi)) = self.dst_ports {
            write!(f, " dports={}-{}", lo, hi)?;
        }
        if let Some(s) = self.spoofed {
            write!(f, " spoofed={}", s)?;
        }
        Ok(())
    }
}

/// Declares the request enum and its ABI tables from one list: each
/// entry is `Variant => "name", Class` plus the variant's fields, and the
/// macro generates [`Syscall::COUNT`], [`Syscall::NAMES`] (in entry
/// order), [`Syscall::index`], [`Syscall::name`], [`Syscall::name_index`]
/// and [`Syscall::class`] from it, so the name table, the dispatch index
/// and the metrics rows cannot drift apart.
macro_rules! syscalls {
    ($(#[$meta:meta])* pub enum $sys:ident<$a:lifetime> {
        $(
            $(#[$doc:meta])*
            $variant:ident => $name:literal, $class:ident
                $({ $($(#[$fdoc:meta])* $field:ident: $ty:ty,)* })?,
        )*
    }) => {
        $(#[$meta])*
        pub enum $sys<$a> {
            $($(#[$doc])* $variant $({ $($(#[$fdoc])* $field: $ty,)* })?,)*
        }

        /// The table position of each variant: its discriminant.
        enum Ordinal {
            $($variant,)*
        }

        impl $sys<'_> {
            /// Number of syscall variants (the fixed-counter table size).
            pub const COUNT: usize = [$($name),*].len();

            /// Every ABI syscall name, in variant-declaration order. The
            /// index of a name here matches [`Syscall::name_index`], so
            /// metrics can use a fixed `[T; Syscall::COUNT]` table instead
            /// of a map on the dispatch fast path.
            pub const NAMES: [&'static str; $sys::COUNT] = [$($name),*];

            /// Fixed table index for an ABI syscall name (a compiled string
            /// match — no allocation, no map). `None` for names that are
            /// not ABI syscalls (kernel-internal audit pathways like
            /// `"auth"`).
            pub fn name_index(name: &str) -> Option<usize> {
                match name {
                    $($name => Some(Ordinal::$variant as usize),)*
                    _ => None,
                }
            }

            /// Fixed table index of this call — the position of its name
            /// in [`Syscall::NAMES`], computed by a direct variant match so
            /// per-call table lookups (seccomp action arrays, per-syscall
            /// counters) cost a jump, not a string comparison.
            pub fn index(&self) -> usize {
                match self {
                    $($sys::$variant { .. } => Ordinal::$variant as usize,)*
                }
            }

            /// Stable syscall name (matches the audit-event `syscall` field
            /// where the call emits events).
            pub fn name(&self) -> &'static str {
                $sys::NAMES[self.index()]
            }

            /// The class this call belongs to.
            pub fn class(&self) -> SyscallClass {
                match self {
                    $($sys::$variant { .. } => SyscallClass::$class,)*
                }
            }
        }
    };
}

syscalls! {
    /// A typed syscall request: one variant per `sys_*` entry point. It
    /// borrows its paths, names and payloads from the caller for the span
    /// of one dispatch; a recorder keeps the request's `Debug` text, which
    /// renders a borrowed `&str`/`&[u8]` exactly as an owned one.
    #[derive(Clone, Debug)]
    pub enum Syscall<'a> {
        /// `open(2)`.
        Open => "open", Fs {
            /// Path to open.
            path: &'a str,
            /// Open flags.
            flags: OpenFlags,
        },
        /// `close(2)`.
        Close => "close", Fs {
            /// Descriptor to close.
            fd: i32,
        },
        /// `read(2)` — the response carries the bytes read.
        Read => "read", Fs {
            /// Descriptor to read from.
            fd: i32,
            /// Maximum byte count.
            count: usize,
        },
        /// `write(2)`.
        Write => "write", Fs {
            /// Descriptor to write to.
            fd: i32,
            /// Bytes to write.
            data: &'a [u8],
        },
        /// `lseek(2)`.
        Lseek => "lseek", Fs {
            /// Descriptor to seek.
            fd: i32,
            /// Signed displacement from `whence`.
            offset: i64,
            /// Seek origin.
            whence: Whence,
        },
        /// `stat(2)`.
        Stat => "stat", Fs {
            /// Path to inspect.
            path: &'a str,
        },
        /// `lstat(2)`.
        Lstat => "lstat", Fs {
            /// Path to inspect (not following a trailing symlink).
            path: &'a str,
        },
        /// `chmod(2)`.
        Chmod => "chmod", Fs {
            /// Path to change.
            path: &'a str,
            /// New mode bits.
            mode: Mode,
        },
        /// `chown(2)`.
        Chown => "chown", Fs {
            /// Path to change.
            path: &'a str,
            /// New owner, if changing.
            uid: Option<Uid>,
            /// New group, if changing.
            gid: Option<Gid>,
        },
        /// `mkdir(2)`.
        Mkdir => "mkdir", Fs {
            /// Directory to create.
            path: &'a str,
            /// Mode bits.
            mode: Mode,
        },
        /// `unlink(2)`.
        Unlink => "unlink", Fs {
            /// Path to remove.
            path: &'a str,
        },
        /// `rmdir(2)`.
        Rmdir => "rmdir", Fs {
            /// Directory to remove.
            path: &'a str,
        },
        /// `rename(2)`.
        Rename => "rename", Fs {
            /// Source path.
            from: &'a str,
            /// Destination path.
            to: &'a str,
        },
        /// `symlink(2)`.
        Symlink => "symlink", Fs {
            /// Link target.
            target: &'a str,
            /// Path of the new link.
            linkpath: &'a str,
        },
        /// `chdir(2)`.
        Chdir => "chdir", Fs {
            /// New working directory.
            path: &'a str,
        },
        /// `readdir(3)`.
        Readdir => "readdir", Fs {
            /// Directory to list.
            path: &'a str,
        },
        /// `pipe(2)`.
        Pipe => "pipe", Fs,
        /// `setuid(2)`.
        Setuid => "setuid", Id {
            /// Target uid.
            uid: Uid,
        },
        /// `seteuid(2)`.
        Seteuid => "seteuid", Id {
            /// Target effective uid.
            uid: Uid,
        },
        /// `setgid(2)`.
        Setgid => "setgid", Id {
            /// Target gid.
            gid: Gid,
        },
        /// `setgroups(2)`.
        Setgroups => "setgroups", Id {
            /// New supplementary group list.
            groups: &'a [Gid],
        },
        /// `getuid(2)`.
        Getuid => "getuid", Id,
        /// `geteuid(2)`.
        Geteuid => "geteuid", Id,
        /// `getgid(2)`.
        Getgid => "getgid", Id,
        /// `ioctl(2)` on a device fd.
        Ioctl => "ioctl", Ioctl {
            /// Device descriptor.
            fd: i32,
            /// Command.
            cmd: IoctlCmd,
        },
        /// `mount(2)`.
        Mount => "mount", Mount {
            /// Device or pseudo-fs source.
            source: &'a str,
            /// Mountpoint path.
            target: &'a str,
            /// Filesystem type.
            fstype: &'a str,
            /// Comma-separated options.
            options: &'a str,
        },
        /// `umount(2)`.
        Umount => "umount", Mount {
            /// Mountpoint path.
            target: &'a str,
        },
        /// `socket(2)`.
        Socket => "socket", Net {
            /// Address family.
            domain: Domain,
            /// Socket type.
            stype: SockType,
            /// Protocol number.
            protocol: u8,
        },
        /// `bind(2)`.
        Bind => "bind", Net {
            /// Socket descriptor.
            fd: i32,
            /// Local address.
            addr: Ipv4,
            /// Local port.
            port: u16,
        },
        /// `listen(2)`.
        Listen => "listen", Net {
            /// Socket descriptor.
            fd: i32,
        },
        /// `connect(2)`.
        Connect => "connect", Net {
            /// Socket descriptor.
            fd: i32,
            /// Remote address.
            addr: Ipv4,
            /// Remote port.
            port: u16,
        },
        /// `accept(2)`.
        Accept => "accept", Net {
            /// Listening descriptor.
            fd: i32,
        },
        /// `send(2)` on a connected socket.
        Send => "send", Net {
            /// Socket descriptor.
            fd: i32,
            /// Payload.
            data: &'a [u8],
        },
        /// `recv(2)` on a connected socket.
        Recv => "recv", Net {
            /// Socket descriptor.
            fd: i32,
            /// Maximum byte count.
            max: usize,
        },
        /// Raw packet reception.
        RecvPacket => "recv_packet", Net {
            /// Raw/packet socket descriptor.
            fd: i32,
        },
        /// `sendto(2)` on a UDP socket.
        Sendto => "sendto", Net {
            /// Socket descriptor.
            fd: i32,
            /// Destination address.
            addr: Ipv4,
            /// Destination port.
            port: u16,
            /// Payload.
            data: &'a [u8],
        },
        /// Raw packet transmission (caller-built headers).
        SendPacket => "send_packet", Net {
            /// Raw/packet socket descriptor.
            fd: i32,
            /// The packet, headers included.
            pkt: Packet,
        },
        /// `socketpair(2)`.
        Socketpair => "socketpair", Net,
        /// Netfilter administration (the iptables backend).
        Netfilter => "netfilter", Net {
            /// Chain operation.
            op: NetfilterOp,
        },
        /// Lists the OUTPUT-chain rules.
        NetfilterList => "netfilter_list", Net,
        /// Routing-table ioctls (`SIOCADDRT`/`SIOCDELRT`).
        IoctlRoute => "ioctl_route", Net {
            /// Route operation.
            op: RouteOp,
        },
        /// `fork(2)`.
        Fork => "fork", Process,
        /// `execve(2)`.
        Execve => "execve", Process {
            /// Program path.
            path: &'a str,
        },
        /// `unshare(2)`.
        Unshare => "unshare", Process {
            /// Namespace kind to unshare.
            kind: NsKind,
        },
        /// `exit(2)`.
        Exit => "exit", Process {
            /// Exit status.
            status: i32,
        },
        /// `waitpid(2)`.
        Wait => "wait", Process {
            /// Child to reap.
            child: Pid,
        },
    }
}

/// A typed syscall response. [`Kernel::dispatch`] returns the variant
/// matching the request (never a mismatched one), or [`SysRet::Err`].
#[derive(Clone, Debug, PartialEq)]
pub enum SysRet {
    /// Success with no payload.
    Unit,
    /// A new file descriptor.
    Fd(i32),
    /// A descriptor pair (pipe, socketpair).
    FdPair(i32, i32),
    /// A byte count (write, send, sendto) or resulting offset (lseek).
    Size(usize),
    /// Bytes read/received.
    Data(Vec<u8>),
    /// Directory entry names.
    Names(Vec<String>),
    /// File metadata.
    Stat(Stat),
    /// An ioctl result.
    Ioctl(IoctlOut),
    /// A received raw packet.
    Packet(Packet),
    /// A uid (getuid/geteuid).
    Uid(Uid),
    /// A gid (getgid).
    Gid(Gid),
    /// A child pid (fork).
    Pid(Pid),
    /// A resolved path (execve).
    Path(String),
    /// A child exit status (wait).
    Status(i32),
    /// The netfilter rule list.
    Rules(Vec<NetfilterRule>),
    /// The call failed (or an interceptor injected a fault).
    Err(Errno),
}

/// Typed accessors. Each converts the response into the `KResult` the
/// matching `sys_*` body produced; the mismatched-variant arms are
/// unreachable through [`Kernel::dispatch`], which maps every variant to
/// exactly one response shape.
impl SysRet {
    /// Whether the response is an errno.
    pub fn is_err(&self) -> bool {
        matches!(self, SysRet::Err(_))
    }

    /// The errno, if the call failed.
    pub fn err(&self) -> Option<Errno> {
        match self {
            SysRet::Err(e) => Some(*e),
            _ => None,
        }
    }

    /// Unit result.
    pub fn unit(self) -> KResult<()> {
        match self {
            SysRet::Unit => Ok(()),
            SysRet::Err(e) => Err(e),
            other => unreachable!("ABI mismatch: expected Unit, got {:?}", other),
        }
    }

    /// File-descriptor result.
    pub fn fd(self) -> KResult<i32> {
        match self {
            SysRet::Fd(n) => Ok(n),
            SysRet::Err(e) => Err(e),
            other => unreachable!("ABI mismatch: expected Fd, got {:?}", other),
        }
    }

    /// Descriptor-pair result.
    pub fn fd_pair(self) -> KResult<(i32, i32)> {
        match self {
            SysRet::FdPair(a, b) => Ok((a, b)),
            SysRet::Err(e) => Err(e),
            other => unreachable!("ABI mismatch: expected FdPair, got {:?}", other),
        }
    }

    /// Byte-count/offset result.
    pub fn size(self) -> KResult<usize> {
        match self {
            SysRet::Size(n) => Ok(n),
            SysRet::Err(e) => Err(e),
            other => unreachable!("ABI mismatch: expected Size, got {:?}", other),
        }
    }

    /// Byte-payload result.
    pub fn data(self) -> KResult<Vec<u8>> {
        match self {
            SysRet::Data(d) => Ok(d),
            SysRet::Err(e) => Err(e),
            other => unreachable!("ABI mismatch: expected Data, got {:?}", other),
        }
    }

    /// Name-list result.
    pub fn names(self) -> KResult<Vec<String>> {
        match self {
            SysRet::Names(n) => Ok(n),
            SysRet::Err(e) => Err(e),
            other => unreachable!("ABI mismatch: expected Names, got {:?}", other),
        }
    }

    /// Stat result.
    pub fn stat(self) -> KResult<Stat> {
        match self {
            SysRet::Stat(s) => Ok(s),
            SysRet::Err(e) => Err(e),
            other => unreachable!("ABI mismatch: expected Stat, got {:?}", other),
        }
    }

    /// Ioctl result.
    pub fn ioctl(self) -> KResult<IoctlOut> {
        match self {
            SysRet::Ioctl(o) => Ok(o),
            SysRet::Err(e) => Err(e),
            other => unreachable!("ABI mismatch: expected Ioctl, got {:?}", other),
        }
    }

    /// Packet result.
    pub fn packet(self) -> KResult<Packet> {
        match self {
            SysRet::Packet(p) => Ok(p),
            SysRet::Err(e) => Err(e),
            other => unreachable!("ABI mismatch: expected Packet, got {:?}", other),
        }
    }

    /// Uid result.
    pub fn uid(self) -> KResult<Uid> {
        match self {
            SysRet::Uid(u) => Ok(u),
            SysRet::Err(e) => Err(e),
            other => unreachable!("ABI mismatch: expected Uid, got {:?}", other),
        }
    }

    /// Gid result.
    pub fn gid(self) -> KResult<Gid> {
        match self {
            SysRet::Gid(g) => Ok(g),
            SysRet::Err(e) => Err(e),
            other => unreachable!("ABI mismatch: expected Gid, got {:?}", other),
        }
    }

    /// Pid result.
    pub fn pid(self) -> KResult<Pid> {
        match self {
            SysRet::Pid(p) => Ok(p),
            SysRet::Err(e) => Err(e),
            other => unreachable!("ABI mismatch: expected Pid, got {:?}", other),
        }
    }

    /// Path result.
    pub fn path(self) -> KResult<String> {
        match self {
            SysRet::Path(p) => Ok(p),
            SysRet::Err(e) => Err(e),
            other => unreachable!("ABI mismatch: expected Path, got {:?}", other),
        }
    }

    /// Exit-status result.
    pub fn status(self) -> KResult<i32> {
        match self {
            SysRet::Status(s) => Ok(s),
            SysRet::Err(e) => Err(e),
            other => unreachable!("ABI mismatch: expected Status, got {:?}", other),
        }
    }

    /// Netfilter rule-list result.
    pub fn rules(self) -> KResult<Vec<NetfilterRule>> {
        match self {
            SysRet::Rules(r) => Ok(r),
            SysRet::Err(e) => Err(e),
            other => unreachable!("ABI mismatch: expected Rules, got {:?}", other),
        }
    }
}

fn wrap<T>(r: KResult<T>, f: impl FnOnce(T) -> SysRet) -> SysRet {
    match r {
        Ok(v) => f(v),
        Err(e) => SysRet::Err(e),
    }
}

impl Kernel {
    /// Dispatches a typed syscall through the interceptor chain.
    ///
    /// Interceptor `before` hooks run in registration order; the first to
    /// return an errno short-circuits the call (the kernel entry point is
    /// never reached and an `interceptor`-provenance audit event records
    /// the injection). `after` hooks run in reverse order and always see
    /// the final response, injected or real.
    pub fn dispatch(&self, pid: Pid, call: Syscall<'_>) -> SysRet {
        let _dispatch_span = trace::span(trace::Pathway::Dispatch);
        // Snapshot the chain's shared handles under a brief read lock, so
        // hooks run without holding any kernel lock (an interceptor may
        // itself consult kernel state) and concurrent dispatches do not
        // serialize on the chain. An empty chain (the published length is
        // 0) takes no lock at all. Short chains (the overwhelmingly common
        // case) snapshot into a stack array so dispatch entry touches no
        // heap; longer chains spill to a clone.
        const IC_INLINE: usize = 4;
        let mut inline: [Option<Arc<dyn Interceptor>>; IC_INLINE] = [None, None, None, None];
        let mut spill: Vec<Arc<dyn Interceptor>> = Vec::new();
        if self.interceptors_len.load(Ordering::Acquire) != 0 {
            let guard = self.interceptors.read();
            if guard.len() <= IC_INLINE {
                for (slot, ic) in inline.iter_mut().zip(guard.iter()) {
                    *slot = Some(ic.clone());
                }
            } else {
                spill = guard.iter().cloned().collect();
            }
        }
        let chain = || {
            inline
                .iter()
                .filter_map(|s| s.as_deref())
                .chain(spill.iter().map(|a| &**a))
        };
        // One caller snapshot per dispatch — a single task-shard read —
        // shared by every hook and by the body of this dispatch.
        let caller = self.caller(pid);
        let entry_clock = self.clock();
        let mut injected = None;
        // Complain-mode notes filed by hooks via `Verdict::Note`; empty on
        // the fast path (`Vec::new` does not allocate until first push).
        let mut notes: Vec<(&'static str, Errno, String)> = Vec::new();
        {
            let _before_span = trace::span(trace::Pathway::InterceptBefore);
            for ic in chain() {
                let mut ctx = SysCtx {
                    clock: self.clock(),
                    entry_clock,
                    metrics: &self.metrics,
                    task: &caller,
                };
                match ic.before(pid, &call, &mut ctx) {
                    Verdict::Continue => {}
                    Verdict::Deny(e) => {
                        injected = Some((e, ic.name()));
                        break;
                    }
                    Verdict::Note { errno, note } => notes.push((ic.name(), errno, note)),
                }
            }
        }
        for (who, errno, note) in notes {
            self.emit_event(
                pid.0,
                call.name(),
                AuditObject::None,
                Provenance {
                    module: who,
                    hook: Hook::Interceptor,
                    rule: Some(format!("{}:{}:{}", who, call.name(), call.class().name())),
                    decision: DecisionKind::Info,
                    errno: Some(errno),
                },
                note,
            );
        }
        let ret = match injected {
            Some((e, who)) => {
                let msg = format!("{}: injected {} by interceptor '{}'", call.name(), e, who);
                self.emit_event(
                    pid.0,
                    call.name(),
                    AuditObject::None,
                    Provenance {
                        module: "interceptor",
                        hook: Hook::Interceptor,
                        // `rule` carries interceptor, syscall, and class, so
                        // Table-6-style provenance assertions can key on what
                        // was denied, not just who denied it.
                        rule: Some(format!("{}:{}:{}", who, call.name(), call.class().name())),
                        decision: DecisionKind::Deny,
                        errno: Some(e),
                    },
                    msg,
                );
                SysRet::Err(e)
            }
            None => {
                let _body_span = trace::span(trace::Pathway::for_class(call.class()));
                // Bracket the entry point in an arena scope so any pooled
                // path buffers borrowed below are trimmed back to bounds
                // when the dispatch exits (§14 reset discipline).
                crate::vfs::PathArena::scope(|_| self.dispatch_inner(&caller, &call))
            }
        };
        {
            let _after_span = trace::span(trace::Pathway::InterceptAfter);
            for ic in chain().rev() {
                let mut ctx = SysCtx {
                    clock: self.clock(),
                    entry_clock,
                    metrics: &self.metrics,
                    task: &caller,
                };
                ic.after(pid, &call, &ret, &mut ctx);
            }
        }
        ret
    }

    /// The total request→entry-point mapping behind [`Kernel::dispatch`].
    fn dispatch_inner(&self, c: &Caller, call: &Syscall<'_>) -> SysRet {
        // A pid with no live task fails every call up front, before any
        // body can act for it.
        if !c.alive {
            return SysRet::Err(Errno::ESRCH);
        }
        match call {
            Syscall::Open { path, flags } => wrap(self.sys_open(c, path, *flags), SysRet::Fd),
            Syscall::Close { fd } => wrap(self.sys_close(c, *fd), |()| SysRet::Unit),
            Syscall::Read { fd, count } => {
                let mut buf = Vec::new();
                wrap(self.sys_read(c, *fd, &mut buf, *count), |_| {
                    SysRet::Data(buf)
                })
            }
            Syscall::Write { fd, data } => wrap(self.sys_write(c, *fd, data), SysRet::Size),
            Syscall::Lseek { fd, offset, whence } => {
                wrap(self.sys_lseek(c, *fd, *offset, *whence), SysRet::Size)
            }
            Syscall::Stat { path } => wrap(self.sys_stat(c, path), SysRet::Stat),
            Syscall::Lstat { path } => wrap(self.sys_lstat(c, path), SysRet::Stat),
            Syscall::Chmod { path, mode } => {
                wrap(self.sys_chmod(c, path, *mode), |()| SysRet::Unit)
            }
            Syscall::Chown { path, uid, gid } => {
                wrap(self.sys_chown(c, path, *uid, *gid), |()| SysRet::Unit)
            }
            Syscall::Mkdir { path, mode } => {
                wrap(self.sys_mkdir(c, path, *mode), |()| SysRet::Unit)
            }
            Syscall::Unlink { path } => wrap(self.sys_unlink(c, path), |()| SysRet::Unit),
            Syscall::Rmdir { path } => wrap(self.sys_rmdir(c, path), |()| SysRet::Unit),
            Syscall::Rename { from, to } => wrap(self.sys_rename(c, from, to), |()| SysRet::Unit),
            Syscall::Symlink { target, linkpath } => {
                wrap(self.sys_symlink(c, target, linkpath), |()| SysRet::Unit)
            }
            Syscall::Chdir { path } => wrap(self.sys_chdir(c, path), |()| SysRet::Unit),
            Syscall::Readdir { path } => wrap(self.sys_readdir(c, path), SysRet::Names),
            Syscall::Pipe => wrap(self.sys_pipe(c), |(r, w)| SysRet::FdPair(r, w)),
            Syscall::Setuid { uid } => wrap(self.sys_setuid(c, *uid), |()| SysRet::Unit),
            Syscall::Seteuid { uid } => wrap(self.sys_seteuid(c, *uid), |()| SysRet::Unit),
            Syscall::Setgid { gid } => wrap(self.sys_setgid(c, *gid), |()| SysRet::Unit),
            Syscall::Setgroups { groups } => wrap(self.sys_setgroups(c, groups), |()| SysRet::Unit),
            Syscall::Getuid => wrap(self.sys_getuid(c), SysRet::Uid),
            Syscall::Geteuid => wrap(self.sys_geteuid(c), SysRet::Uid),
            Syscall::Getgid => wrap(self.sys_getgid(c), SysRet::Gid),
            Syscall::Ioctl { fd, cmd } => wrap(self.sys_ioctl(c, *fd, cmd.clone()), SysRet::Ioctl),
            Syscall::Mount {
                source,
                target,
                fstype,
                options,
            } => wrap(self.sys_mount(c, source, target, fstype, options), |()| {
                SysRet::Unit
            }),
            Syscall::Umount { target } => wrap(self.sys_umount(c, target), |()| SysRet::Unit),
            Syscall::Socket {
                domain,
                stype,
                protocol,
            } => wrap(self.sys_socket(c, *domain, *stype, *protocol), SysRet::Fd),
            Syscall::Bind { fd, addr, port } => {
                wrap(self.sys_bind(c, *fd, *addr, *port), |()| SysRet::Unit)
            }
            Syscall::Listen { fd } => wrap(self.sys_listen(c, *fd), |()| SysRet::Unit),
            Syscall::Connect { fd, addr, port } => {
                wrap(self.sys_connect(c, *fd, *addr, *port), |()| SysRet::Unit)
            }
            Syscall::Accept { fd } => wrap(self.sys_accept(c, *fd), SysRet::Fd),
            Syscall::Send { fd, data } => wrap(self.sys_send(c, *fd, data), SysRet::Size),
            Syscall::Recv { fd, max } => wrap(self.sys_recv(c, *fd, *max), SysRet::Data),
            Syscall::RecvPacket { fd } => wrap(self.sys_recv_packet(c, *fd), SysRet::Packet),
            Syscall::Sendto {
                fd,
                addr,
                port,
                data,
            } => wrap(self.sys_sendto(c, *fd, *addr, *port, data), SysRet::Size),
            Syscall::SendPacket { fd, pkt } => {
                wrap(self.sys_send_packet(c, *fd, pkt.clone()), |()| SysRet::Unit)
            }
            Syscall::Socketpair => wrap(self.sys_socketpair(c), |(a, b)| SysRet::FdPair(a, b)),
            Syscall::Netfilter { op } => wrap(self.sys_netfilter(c, op.clone()), |()| SysRet::Unit),
            Syscall::NetfilterList => wrap(self.sys_netfilter_list(c), SysRet::Rules),
            Syscall::IoctlRoute { op } => {
                wrap(self.sys_ioctl_route(c, op.clone()), |()| SysRet::Unit)
            }
            Syscall::Fork => wrap(self.sys_fork(c), SysRet::Pid),
            Syscall::Execve { path } => wrap(self.sys_execve(c, path), SysRet::Path),
            Syscall::Unshare { kind } => wrap(self.sys_unshare(c, *kind), |()| SysRet::Unit),
            Syscall::Exit { status } => wrap(self.sys_exit(c, *status), |()| SysRet::Unit),
            Syscall::Wait { child } => wrap(self.sys_wait(c, *child), SysRet::Status),
        }
    }
}
