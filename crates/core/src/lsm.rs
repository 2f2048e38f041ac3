//! The Protego security module.
//!
//! Implements every policy category of the paper's study (Table 4) as LSM
//! hook logic over the [`crate::policy::PolicySet`] configured through
//! `/proc/protego/*`:
//!
//! * **mount/umount** — whitelist of (device, mountpoint, options, scope);
//! * **bind** — privileged ports allocated to (binary, uid) instances;
//! * **socket** — raw/packet sockets for everyone, scoped by netfilter;
//! * **setuid/setgid** — sudoers-derived delegation with kernel-tracked
//!   authentication recency and setuid-on-exec for command-restricted
//!   rules;
//! * **ioctl** — non-conflicting route additions and safe modem options
//!   for unprivileged pppd; dm-crypt metadata stays privileged (the `/sys`
//!   attribute is the unprivileged replacement);
//! * **file open** — binary-identity grants (ssh-keysign) and
//!   reauthentication-gated, CLOEXEC-forced shadow fragments.

use crate::index::PolicyIndex;
use crate::policy::{self, AuthReq, CmdSpec, KeyFileRule, MountScope, PolicySet};
use sim_kernel::caps::Cap;
use sim_kernel::cred::{Credentials, Gid, Uid};
use sim_kernel::dev::{ModemOpt, ModemState};
use sim_kernel::error::{Errno, KResult};
use sim_kernel::lsm::{
    self, AuthScope, BindRequest, Decision, EnvPolicy, ExecCtx, ExecDecision, FileDecision,
    FileOpenCtx, KmsOp, MountRequest, PendingSetuid, SecurityModule, SetidCtx, SetuidDecision,
    UmountRequest,
};
use sim_kernel::net::{Domain, ProtoMatch, Route, RouteTable, Rule, SockType, Verdict};
use sim_kernel::sync::lock;
use sim_kernel::trace::CacheStats;
use sim_kernel::vfs::{Access, Name};
use std::collections::HashMap;
use std::sync::Mutex;

/// The authentication recency window (sudo's 5 minutes), in logical
/// seconds.
pub const AUTH_WINDOW: u64 = 300;

/// Bound on the keyfile-rule lookup cache; flushed wholesale on overflow.
const KEYFILE_CACHE_CAP: usize = 1024;

/// The Protego LSM.
#[derive(Debug, Default)]
pub struct ProtegoLsm {
    policy: PolicySet,
    /// The compiled rule lookups over `policy`, rebuilt per node on every
    /// policy write.
    index: PolicyIndex,
    /// Interned path → index of the governing keyfile rule (None = no
    /// rule). Keyed on [`Name`] so the steady-state probe hashes a u32
    /// and touches no heap; the cache stores the *index* rather than the
    /// decision so the rule-provenance side effects still fire on every
    /// hook. Dropped on any policy write.
    keyfile_cache: Mutex<HashMap<Name, Option<usize>>>,
    keyfile_cache_stats: Mutex<CacheStats>,
}

impl ProtegoLsm {
    /// An empty-policy module: everything behaves like stock Linux until
    /// the monitoring daemon (or the administrator) configures it.
    pub fn new() -> ProtegoLsm {
        ProtegoLsm::default()
    }

    /// A module preconfigured with a policy set (used by image builders).
    pub fn with_policy(policy: PolicySet) -> ProtegoLsm {
        ProtegoLsm {
            index: PolicyIndex::build(&policy),
            policy,
            ..ProtegoLsm::default()
        }
    }

    /// Read-only view of the active policy.
    pub fn policy(&self) -> &PolicySet {
        &self.policy
    }

    fn keyfile_rule(&self, path: &str) -> Option<&KeyFileRule> {
        let _span = sim_kernel::trace::span(sim_kernel::trace::Pathway::PolicyCache);
        // Any path the kernel hands a hook has already been interned by
        // the VFS walk, so a `lookup` miss means the path was never seen
        // and cannot be cached (probe without polluting the interner).
        if let Some(key) = Name::lookup(path) {
            let cache = lock(&self.keyfile_cache);
            if let Some(&idx) = cache.get(&key) {
                lock(&self.keyfile_cache_stats).hits += 1;
                return idx.map(|i| &self.policy.keyfiles[i]);
            }
        }
        lock(&self.keyfile_cache_stats).misses += 1;
        let idx = self.policy.keyfiles.iter().position(|k| k.path == path);
        let mut cache = lock(&self.keyfile_cache);
        if cache.len() >= KEYFILE_CACHE_CAP {
            cache.clear();
            lock(&self.keyfile_cache_stats).invalidations += 1;
        }
        cache.insert(Name::intern(path), idx);
        idx.map(|i| &self.policy.keyfiles[i])
    }

    /// Drops the keyfile lookup cache (policy reload).
    fn flush_keyfile_cache(&self) {
        let mut cache = lock(&self.keyfile_cache);
        if !cache.is_empty() {
            lock(&self.keyfile_cache_stats).invalidations += 1;
        }
        cache.clear();
    }

    /// Counters of the keyfile-rule lookup cache.
    pub fn keyfile_cache_stats(&self) -> CacheStats {
        *lock(&self.keyfile_cache_stats)
    }

    fn is_shadow_fragment(&self, path: &str) -> bool {
        self.policy
            .creddb
            .shadow_prefixes
            .iter()
            .any(|p| path.starts_with(p.as_str()))
    }

    /// The default raw-socket whitelist of §4.1.1, mined from the studied
    /// binaries: no spoofing, ICMP echo (ping/mtr), traceroute UDP probes,
    /// ARP (arping); all other raw traffic drops.
    pub fn default_raw_rules() -> Vec<Rule> {
        vec![
            Rule {
                name: "protego-no-spoof".into(),
                raw_socket_only: true,
                proto: None,
                icmp_types: None,
                dst_ports: None,
                spoofed: Some(true),
                verdict: Verdict::Drop,
            },
            Rule {
                name: "protego-allow-icmp-echo".into(),
                raw_socket_only: true,
                proto: Some(ProtoMatch::Icmp),
                icmp_types: Some(vec![0, 8]),
                dst_ports: None,
                spoofed: None,
                verdict: Verdict::Accept,
            },
            Rule {
                name: "protego-allow-traceroute-probes".into(),
                raw_socket_only: true,
                proto: Some(ProtoMatch::Udp),
                icmp_types: None,
                dst_ports: Some((33434, 33534)),
                spoofed: None,
                verdict: Verdict::Accept,
            },
            Rule {
                name: "protego-allow-arp".into(),
                raw_socket_only: true,
                proto: Some(ProtoMatch::Arp),
                icmp_types: None,
                dst_ports: None,
                spoofed: None,
                verdict: Verdict::Accept,
            },
            Rule {
                name: "protego-drop-raw-default".into(),
                raw_socket_only: true,
                proto: None,
                icmp_types: None,
                dst_ports: None,
                spoofed: None,
                verdict: Verdict::Drop,
            },
        ]
    }
}

impl SecurityModule for ProtegoLsm {
    fn name(&self) -> &'static str {
        "protego"
    }

    // ------------------------------------------------------------------
    // mount / umount (§2, §4.2)
    // ------------------------------------------------------------------

    fn sb_mount(&self, cred: &Credentials, req: &MountRequest) -> Decision {
        if cred.euid.is_root() {
            // The administrator path is unchanged.
            return Decision::UseDefault;
        }
        match self.index.mount(&self.policy, req) {
            Some(rule) => {
                lsm::note_rule(format!("mounts:{}->{}", rule.source, rule.mountpoint));
                if rule.read_only && !req.options.read_only {
                    // The whitelist requires ro; a rw request is refused
                    // outright rather than falling back to EPERM, so the
                    // user sees why.
                    Decision::Deny(Errno::EACCES)
                } else {
                    Decision::Allow
                }
            }
            None => Decision::UseDefault,
        }
    }

    fn sb_umount(&self, cred: &Credentials, req: &UmountRequest) -> Decision {
        if cred.euid.is_root() {
            return Decision::UseDefault;
        }
        match self.index.umount(&self.policy, &req.target) {
            Some(rule) => {
                lsm::note_rule(format!(
                    "mounts:{}->{} scope={:?}",
                    rule.source, rule.mountpoint, rule.scope
                ));
                match rule.scope {
                    MountScope::Users => Decision::Allow,
                    MountScope::User => {
                        if req.mounted_by == cred.ruid {
                            Decision::Allow
                        } else {
                            Decision::Deny(Errno::EPERM)
                        }
                    }
                }
            }
            None => Decision::UseDefault,
        }
    }

    // ------------------------------------------------------------------
    // socket / bind (§4.1.1, §4.1.3)
    // ------------------------------------------------------------------

    fn socket_create(
        &self,
        _cred: &Credentials,
        _domain: Domain,
        _stype: SockType,
        _protocol: u8,
    ) -> Decision {
        // Anyone may create raw/packet sockets; outgoing packets are
        // subject to the netfilter whitelist installed at boot.
        Decision::Allow
    }

    fn socket_bind(&self, cred: &Credentials, req: &BindRequest) -> Decision {
        match self.index.bind(&self.policy, req.port, req.tcp) {
            Some(rule) => {
                lsm::note_rule(format!(
                    "bind:{}/{} -> ({}, {})",
                    rule.port,
                    if rule.tcp { "tcp" } else { "udp" },
                    rule.binary,
                    rule.uid
                ));
                if rule.binary == req.binary.as_str() && Uid(rule.uid) == cred.euid {
                    Decision::Allow
                } else {
                    // The port is allocated to a different application
                    // instance: nobody else gets it, root included.
                    Decision::Deny(Errno::EACCES)
                }
            }
            None => Decision::UseDefault,
        }
    }

    // ------------------------------------------------------------------
    // setuid / setgid (§4.3)
    // ------------------------------------------------------------------

    fn task_setuid(&self, ctx: &SetidCtx, target: Uid) -> SetuidDecision {
        // Privileged daemons dropping privilege, and transitions among
        // already-held ids, keep stock semantics.
        if ctx.cred.has_cap(Cap::Setuid) || target == ctx.cred.ruid || target == ctx.cred.suid {
            return SetuidDecision::UseDefault;
        }
        let rule = match self.index.sudo(&self.policy, ctx.cred, target) {
            Some(r) => r,
            None => return SetuidDecision::UseDefault, // -> EPERM
        };
        lsm::note_rule(format!(
            "sudoers:{:?} -> {:?} cmd={:?} auth={:?}",
            rule.from, rule.target, rule.cmd, rule.auth
        ));
        // Authentication, enforced by the kernel, with recency (§4.3).
        match rule.auth {
            AuthReq::None => {}
            AuthReq::Invoker => {
                let scope = AuthScope::User(ctx.cred.ruid);
                if !ctx.authed_for(scope, AUTH_WINDOW) {
                    return SetuidDecision::NeedAuth(scope);
                }
            }
            AuthReq::Target => {
                let scope = AuthScope::User(target);
                if !ctx.authed_for(scope, AUTH_WINDOW) {
                    return SetuidDecision::NeedAuth(scope);
                }
            }
        }
        match &rule.cmd {
            CmdSpec::Any => SetuidDecision::Allow,
            CmdSpec::List(cmds) => SetuidDecision::Pending(PendingSetuid {
                target,
                allowed_binaries: cmds.clone(),
                require_target_auth: false,
                keep_env: rule.keep_env.clone(),
            }),
        }
    }

    fn task_setgid(&self, ctx: &SetidCtx, target: Gid) -> SetuidDecision {
        if ctx.cred.has_cap(Cap::Setgid) {
            return SetuidDecision::UseDefault;
        }
        // Transitions to already-held ids keep stock semantics (mirrors
        // task_setuid): stock grants these anyway, and answering
        // UseDefault keeps the hot re-assert path (every `id`-style
        // invocation calls setgid(own gid)) off the audit/metrics
        // emission path.
        if target == ctx.cred.rgid || target == ctx.cred.sgid {
            return SetuidDecision::UseDefault;
        }
        // A member may switch to any of her groups (stock allows only
        // rgid/sgid; newgrp's job was exactly this widening).
        if ctx.cred.in_group(target) {
            lsm::note_rule(format!("groups:membership gid={}", target.0));
            return SetuidDecision::Allow;
        }
        match self.index.group(&self.policy, target) {
            Some(g) if g.password_protected => {
                lsm::note_rule(format!("groups:{} password", g.gid));
                let scope = AuthScope::Group(target);
                if ctx.authed_for(scope, AUTH_WINDOW) {
                    SetuidDecision::Allow
                } else {
                    SetuidDecision::NeedAuth(scope)
                }
            }
            _ => SetuidDecision::UseDefault, // -> EPERM
        }
    }

    fn bprm_check(&self, ctx: &ExecCtx) -> ExecDecision {
        if let Some(p) = &ctx.pending {
            // Resolve a setuid-on-exec transition: the exec must name an
            // allowed binary, else permission denied (§4.3's deliberate
            // change in error behaviour).
            lsm::note_rule(format!(
                "sudoers:pending target={} cmds={:?}",
                p.target, p.allowed_binaries
            ));
            if !p.allowed_binaries.iter().any(|b| b == &ctx.binary) {
                return ExecDecision::Deny(Errno::EACCES);
            }
            if p.require_target_auth {
                let scope = AuthScope::User(p.target);
                if !ctx.authed_for(scope, AUTH_WINDOW) {
                    return ExecDecision::NeedAuth(scope);
                }
            }
            let mut cred = ctx.cred.clone();
            cred.ruid = p.target;
            cred.euid = p.target;
            cred.suid = p.target;
            cred.fsuid = p.target;
            cred.caps = if p.target.is_root() {
                sim_kernel::caps::CapSet::full()
            } else {
                sim_kernel::caps::CapSet::EMPTY
            };
            return ExecDecision::Transition {
                cred,
                env: EnvPolicy::ClearExcept(p.keep_env.clone()),
            };
        }
        // No pending transition: the setuid bit (if any) keeps stock
        // semantics — the Protego image simply ships without the bits, and
        // §4.6 allows an administrator to re-enable one deliberately.
        ExecDecision::UseDefault
    }

    // ------------------------------------------------------------------
    // ioctls (§4.1.2, Table 4)
    // ------------------------------------------------------------------

    fn ioctl_route_add(&self, cred: &Credentials, route: &Route, table: &RouteTable) -> Decision {
        if cred.euid.is_root() {
            return Decision::UseDefault;
        }
        if !self.policy.ppp.user_routes {
            return Decision::UseDefault;
        }
        lsm::note_rule("ppp:user_routes".to_string());
        match table.conflict_with(route) {
            None => Decision::Allow,
            Some(_) => Decision::Deny(Errno::EEXIST),
        }
    }

    fn ioctl_modem(&self, cred: &Credentials, opt: ModemOpt, state: &ModemState) -> Decision {
        if cred.euid.is_root() {
            return Decision::UseDefault;
        }
        if self.policy.ppp.safe_modem_opts && opt.is_safe() && state.in_use_by.is_none() {
            // "A user may configure a modem (if not in use)" — Table 4.
            lsm::note_rule("ppp:safe_modem_opts".to_string());
            return Decision::Allow;
        }
        if self.policy.ppp.safe_modem_opts && opt.is_safe() {
            // Already claimed: only the claimer's further configuration is
            // mediated by the claim ioctl; be conservative here.
            lsm::note_rule("ppp:safe_modem_opts".to_string());
            return Decision::Allow;
        }
        Decision::UseDefault
    }

    fn ioctl_dmcrypt(&self, _cred: &Credentials) -> Decision {
        // The all-or-nothing ioctl stays privileged; the `/sys` attribute
        // is the unprivileged replacement (Table 4: "abandon this ioctl").
        Decision::UseDefault
    }

    fn ioctl_kms(&self, _cred: &Credentials, _op: KmsOp) -> Decision {
        // KMS already removed the privilege requirement in-kernel (§4.5).
        Decision::UseDefault
    }

    // ------------------------------------------------------------------
    // file open (§4.4, §4.6)
    // ------------------------------------------------------------------

    fn file_open(&self, ctx: &FileOpenCtx) -> FileDecision {
        // Binary-identity grants: only the named binary may open the key
        // file, regardless of uid ("instead of, or in addition to, user
        // IDs" — Table 4).
        if let Some(rule) = self.keyfile_rule(ctx.path) {
            lsm::note_rule(format!("keyfiles:{} -> {}", rule.path, rule.binary));
            return if ctx.binary == rule.binary && !ctx.access.wants_write() {
                FileDecision::AllowCloexec
            } else {
                FileDecision::Deny(Errno::EACCES)
            };
        }
        // Per-user shadow fragments: reading your own requires a fresh
        // authentication, and the handle may not be inherited (§4.4).
        if self.is_shadow_fragment(ctx.path) && ctx.access.wants_read() {
            lsm::note_rule(format!("creddb:{}", ctx.path));
            if ctx.cred.euid.is_root() {
                // The trusted authentication agent and root tools.
                return FileDecision::UseDefault;
            }
            if !ctx.dac_allows || ctx.file_owner != ctx.cred.fsuid {
                return FileDecision::UseDefault; // DAC already refuses others.
            }
            let scope = AuthScope::User(ctx.cred.ruid);
            return if ctx.authed_for(scope, AUTH_WINDOW) {
                FileDecision::AllowCloexec
            } else {
                FileDecision::NeedAuth(scope)
            };
        }
        FileDecision::UseDefault
    }

    // ------------------------------------------------------------------
    // configuration (/proc/protego/*)
    // ------------------------------------------------------------------

    fn config_nodes(&self) -> Vec<&'static str> {
        vec![
            "mounts", "bind", "sudoers", "groups", "keyfiles", "ppp", "creddb",
        ]
    }

    fn config_write(&mut self, node: &str, content: &str) -> KResult<()> {
        match node {
            "mounts" => self.policy.mounts = policy::parse_mounts(content)?,
            "bind" => self.policy.binds = policy::parse_binds(content)?,
            "sudoers" => self.policy.sudo = policy::parse_sudo(content)?,
            "groups" => self.policy.groups = policy::parse_groups(content)?,
            "keyfiles" => self.policy.keyfiles = policy::parse_keyfiles(content)?,
            "ppp" => self.policy.ppp = policy::parse_ppp(content)?,
            "creddb" => self.policy.creddb = policy::parse_creddb(content)?,
            _ => return Err(Errno::ENOENT),
        }
        self.index.rebuild(node, &self.policy);
        // Any policy write may change what a cached lookup would answer;
        // be conservative and drop the whole cache.
        self.flush_keyfile_cache();
        Ok(())
    }

    fn config_read(&self, node: &str) -> KResult<String> {
        Ok(match node {
            "mounts" => policy::render_mounts(&self.policy.mounts),
            "bind" => policy::render_binds(&self.policy.binds),
            "sudoers" => policy::render_sudo(&self.policy.sudo),
            "groups" => policy::render_groups(&self.policy.groups),
            "keyfiles" => policy::render_keyfiles(&self.policy.keyfiles),
            "ppp" => policy::render_ppp(&self.policy.ppp),
            "creddb" => policy::render_creddb(&self.policy.creddb),
            _ => return Err(Errno::ENOENT),
        })
    }

    fn boot_netfilter_rules(&self) -> Vec<Rule> {
        Self::default_raw_rules()
    }

    fn cache_stats(&self) -> Vec<(&'static str, CacheStats)> {
        vec![("protego_keyfile_lookup", self.keyfile_cache_stats())]
    }
}

/// Convenience: access decision summary for diagnostics/tests.
pub fn describe_access(access: Access) -> &'static str {
    match (
        access.wants_read(),
        access.wants_write(),
        access.wants_exec(),
    ) {
        (true, true, _) => "read-write",
        (true, false, _) => "read",
        (false, true, _) => "write",
        (false, false, true) => "exec",
        _ => "none",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{BindRule, GroupRule, MountRule, Principal, SudoRule, Target};

    fn lsm_with(policy: PolicySet) -> ProtegoLsm {
        ProtegoLsm::with_policy(policy)
    }

    fn cdrom_policy() -> PolicySet {
        PolicySet {
            mounts: vec![MountRule {
                source: "/dev/cdrom".into(),
                mountpoint: "/mnt/cdrom".into(),
                fstype: Some("iso9660".into()),
                scope: MountScope::User,
                read_only: true,
            }],
            ..PolicySet::default()
        }
    }

    fn mount_req(source: &str, target: &str, fstype: &str, opts: &str) -> MountRequest {
        MountRequest {
            source: source.into(),
            target: target.into(),
            fstype: fstype.into(),
            options: sim_kernel::vfs::MountOptions::parse(opts),
        }
    }

    fn user_cred() -> Credentials {
        Credentials::user(Uid(1000), Gid(1000))
    }

    fn ctx(cred: &Credentials, authed: Option<AuthScope>) -> SetidCtx<'_> {
        SetidCtx {
            cred,
            binary: "/usr/bin/sudo",
            last_auth: authed.map(|_| 1000),
            last_auth_scope: authed,
            now: 1100,
        }
    }

    #[test]
    fn mount_whitelist_grants_matching_request() {
        let lsm = lsm_with(cdrom_policy());
        let d = lsm.sb_mount(
            &user_cred(),
            &mount_req("/dev/cdrom", "/mnt/cdrom", "iso9660", "ro"),
        );
        assert_eq!(d, Decision::Allow);
    }

    #[test]
    fn mount_whitelist_rejects_rw_when_ro_required() {
        let lsm = lsm_with(cdrom_policy());
        let d = lsm.sb_mount(
            &user_cred(),
            &mount_req("/dev/cdrom", "/mnt/cdrom", "iso9660", "rw"),
        );
        assert_eq!(d, Decision::Deny(Errno::EACCES));
    }

    #[test]
    fn mount_off_whitelist_falls_to_default() {
        let lsm = lsm_with(cdrom_policy());
        // Wrong mountpoint — the attack the paper highlights (mounting
        // over /etc).
        let d = lsm.sb_mount(
            &user_cred(),
            &mount_req("/dev/cdrom", "/etc", "iso9660", "ro"),
        );
        assert_eq!(d, Decision::UseDefault);
        // Wrong device.
        let d = lsm.sb_mount(
            &user_cred(),
            &mount_req("/dev/sda1", "/mnt/cdrom", "iso9660", "ro"),
        );
        assert_eq!(d, Decision::UseDefault);
    }

    #[test]
    fn root_mount_path_unchanged() {
        let lsm = lsm_with(cdrom_policy());
        let d = lsm.sb_mount(
            &Credentials::root(),
            &mount_req("/dev/cdrom", "/mnt/cdrom", "iso9660", "ro"),
        );
        assert_eq!(d, Decision::UseDefault);
    }

    #[test]
    fn umount_user_scope_restricted_to_mounter() {
        let lsm = lsm_with(cdrom_policy());
        let req = UmountRequest {
            target: "/mnt/cdrom".into(),
            source: "/dev/cdrom".into(),
            fstype: "iso9660".into(),
            mounted_by: Uid(1000),
        };
        assert_eq!(lsm.sb_umount(&user_cred(), &req), Decision::Allow);
        let other = Credentials::user(Uid(1001), Gid(1001));
        assert_eq!(lsm.sb_umount(&other, &req), Decision::Deny(Errno::EPERM));
    }

    #[test]
    fn bind_rule_is_exclusive_even_for_root() {
        let mut p = PolicySet::default();
        p.binds.push(BindRule {
            port: 25,
            tcp: true,
            binary: "/usr/sbin/exim4".into(),
            uid: 0,
        });
        let lsm = lsm_with(p);
        let good = BindRequest {
            port: 25,
            binary: Name::intern("/usr/sbin/exim4"),
            tcp: true,
        };
        assert_eq!(
            lsm.socket_bind(&Credentials::root(), &good),
            Decision::Allow
        );
        let rogue = BindRequest {
            port: 25,
            binary: Name::intern("/usr/sbin/httpd"),
            tcp: true,
        };
        assert_eq!(
            lsm.socket_bind(&Credentials::root(), &rogue),
            Decision::Deny(Errno::EACCES)
        );
    }

    #[test]
    fn sudo_rule_needs_auth_then_allows() {
        let mut p = PolicySet::default();
        p.sudo.push(SudoRule {
            from: Principal::Uid(1000),
            target: Target::Uid(0),
            cmd: CmdSpec::Any,
            auth: AuthReq::Invoker,
            keep_env: vec![],
        });
        let lsm = lsm_with(p);
        // Not authenticated yet -> kernel must launch the auth agent.
        let alice = user_cred();
        let d = lsm.task_setuid(&ctx(&alice, None), Uid::ROOT);
        assert_eq!(d, SetuidDecision::NeedAuth(AuthScope::User(Uid(1000))));
        // Recently authenticated -> allowed.
        let d = lsm.task_setuid(&ctx(&alice, Some(AuthScope::User(Uid(1000)))), Uid::ROOT);
        assert_eq!(d, SetuidDecision::Allow);
    }

    #[test]
    fn stale_auth_requires_reprompt() {
        let mut p = PolicySet::default();
        p.sudo.push(SudoRule {
            from: Principal::Uid(1000),
            target: Target::Uid(0),
            cmd: CmdSpec::Any,
            auth: AuthReq::Invoker,
            keep_env: vec![],
        });
        let lsm = lsm_with(p);
        let alice = user_cred();
        let mut c = ctx(&alice, Some(AuthScope::User(Uid(1000))));
        c.now = c.last_auth.unwrap() + AUTH_WINDOW + 1;
        assert!(matches!(
            lsm.task_setuid(&c, Uid::ROOT),
            SetuidDecision::NeedAuth(_)
        ));
    }

    #[test]
    fn command_restricted_rule_goes_pending() {
        let mut p = PolicySet::default();
        p.sudo.push(SudoRule {
            from: Principal::Uid(1001),
            target: Target::Uid(1000),
            cmd: CmdSpec::List(vec!["/usr/bin/lpr".into()]),
            auth: AuthReq::None,
            keep_env: vec!["PRINTER".into()],
        });
        let lsm = lsm_with(p);
        let bob = Credentials::user(Uid(1001), Gid(1001));
        match lsm.task_setuid(&ctx(&bob, None), Uid(1000)) {
            SetuidDecision::Pending(pend) => {
                assert_eq!(pend.target, Uid(1000));
                assert_eq!(pend.allowed_binaries, vec!["/usr/bin/lpr".to_string()]);
                assert_eq!(pend.keep_env, vec!["PRINTER".to_string()]);
            }
            other => panic!("expected pending, got {:?}", other),
        }
    }

    #[test]
    fn unrelated_user_gets_default_eperm_path() {
        let mut p = PolicySet::default();
        p.sudo.push(SudoRule {
            from: Principal::Uid(1000),
            target: Target::Uid(0),
            cmd: CmdSpec::Any,
            auth: AuthReq::Invoker,
            keep_env: vec![],
        });
        let lsm = lsm_with(p);
        let charlie = Credentials::user(Uid(1002), Gid(1002));
        assert_eq!(
            lsm.task_setuid(&ctx(&charlie, None), Uid::ROOT),
            SetuidDecision::UseDefault
        );
    }

    #[test]
    fn group_rule_matches_membership() {
        let mut p = PolicySet::default();
        p.sudo.push(SudoRule {
            from: Principal::Gid(27),
            target: Target::Any,
            cmd: CmdSpec::Any,
            auth: AuthReq::None,
            keep_env: vec![],
        });
        let lsm = lsm_with(p);
        let mut admin = Credentials::user(Uid(1003), Gid(1003));
        admin.groups.push(Gid(27));
        assert_eq!(
            lsm.task_setuid(&ctx(&admin, None), Uid::ROOT),
            SetuidDecision::Allow
        );
    }

    fn sudo_rule(from: Principal, target: Target, auth: AuthReq) -> SudoRule {
        SudoRule {
            from,
            target,
            cmd: CmdSpec::Any,
            auth,
            keep_env: vec![],
        }
    }

    #[test]
    fn first_match_holds_across_principal_buckets() {
        let mut carol = Credentials::user(Uid(1003), Gid(1003));
        carol.groups.push(Gid(27));
        let group = sudo_rule(Principal::Gid(27), Target::Any, AuthReq::None);
        let user = sudo_rule(Principal::Uid(1003), Target::Uid(0), AuthReq::Invoker);
        let setuid = |rules: &[SudoRule], who: &Credentials, target: Uid| {
            let p = PolicySet {
                sudo: rules.to_vec(),
                ..PolicySet::default()
            };
            lsm_with(p).task_setuid(&ctx(who, None), target)
        };
        // A %group rule at a lower ordinal beats a matching uid: rule, and
        // the other way round.
        assert_eq!(
            setuid(&[group.clone(), user.clone()], &carol, Uid::ROOT),
            SetuidDecision::Allow
        );
        assert_eq!(
            setuid(&[user, group], &carol, Uid::ROOT),
            SetuidDecision::NeedAuth(AuthScope::User(Uid(1003)))
        );
        // The su rule (`Any`) placed after an admin rule loses to it: the
        // admin proves their own password, where legacy su asks for the
        // target's (the pinned divergence of the functional battery).
        let admin = sudo_rule(Principal::Gid(27), Target::Any, AuthReq::Invoker);
        assert_eq!(
            setuid(&[admin.clone(), SudoRule::su_rule()], &carol, Uid(1001)),
            SetuidDecision::NeedAuth(AuthScope::User(Uid(1003)))
        );
        assert_eq!(
            setuid(&[SudoRule::su_rule(), admin], &carol, Uid(1001)),
            SetuidDecision::NeedAuth(AuthScope::User(Uid(1001)))
        );
    }

    /// `n` mount and `n` sudoers rules, with the rules the requests of the
    /// test below match (the cdrom line, the admin group's rule) last,
    /// where a linear scan pays for all of them.
    fn site_policy(n: u32) -> PolicySet {
        let mut p = PolicySet::default();
        for i in 0..n - 1 {
            p.mounts.push(MountRule {
                source: format!("/dev/site{}", i),
                mountpoint: format!("/srv/site/{}", i),
                fstype: None,
                scope: MountScope::Users,
                read_only: false,
            });
            let from = if i % 2 == 0 {
                Principal::Uid(1001)
            } else {
                Principal::Gid(8)
            };
            p.sudo
                .push(sudo_rule(from, Target::Uid(i % 4), AuthReq::Invoker));
        }
        p.mounts.extend(cdrom_policy().mounts);
        p.sudo
            .push(sudo_rule(Principal::Gid(27), Target::Any, AuthReq::Invoker));
        p
    }

    #[test]
    fn hook_lookups_examine_a_constant_number_of_rules() {
        use crate::index::{examined, linear};
        const N: u64 = 10_000;
        let p = site_policy(N as u32);
        let lsm = lsm_with(p.clone());
        let alice = user_cred();
        let mount = mount_req("/dev/cdrom", "/mnt/cdrom", "iso9660", "ro");
        let umount = UmountRequest {
            target: "/mnt/cdrom".into(),
            source: "/dev/cdrom".into(),
            fstype: "iso9660".into(),
            mounted_by: Uid(1000),
        };
        examined::take();
        assert_eq!(lsm.sb_mount(&alice, &mount), Decision::Allow);
        assert_eq!(lsm.sb_umount(&alice, &umount), Decision::Allow);
        let pair = examined::take();
        // alice holds no delegation rule.
        assert_eq!(
            lsm.task_setuid(&ctx(&alice, None), Uid::ROOT),
            SetuidDecision::UseDefault
        );
        let refused = examined::take();
        let mut carol = Credentials::user(Uid(1003), Gid(1003));
        carol.groups.push(Gid(27));
        assert_eq!(
            lsm.task_setuid(&ctx(&carol, None), Uid::ROOT),
            SetuidDecision::NeedAuth(AuthScope::User(Uid(1003)))
        );
        let granted = examined::take();
        assert!(
            pair <= 2 && refused <= 2 && granted <= 2,
            "rules examined: mount+umount {}, refused sudo {}, granted sudo {}",
            pair,
            refused,
            granted
        );
        // The linear scan the index replaced examines the whole policy.
        assert!(linear::mount(&p, &mount).is_some());
        assert!(linear::umount(&p, "/mnt/cdrom").is_some());
        assert_eq!(examined::take(), 2 * N);
        assert!(linear::sudo(&p, &alice, Uid::ROOT).is_none());
        assert_eq!(examined::take(), N);
    }

    #[test]
    fn su_rule_requires_target_password() {
        let mut p = PolicySet::default();
        p.sudo.push(SudoRule::su_rule());
        let lsm = lsm_with(p);
        let alice = user_cred();
        let d = lsm.task_setuid(&ctx(&alice, None), Uid(1001));
        assert_eq!(d, SetuidDecision::NeedAuth(AuthScope::User(Uid(1001))));
        // Proving the *wrong* (own) password is not enough.
        let d = lsm.task_setuid(&ctx(&alice, Some(AuthScope::User(Uid(1000)))), Uid(1001));
        assert_eq!(d, SetuidDecision::NeedAuth(AuthScope::User(Uid(1001))));
        // Target's password proven -> allowed.
        let d = lsm.task_setuid(&ctx(&alice, Some(AuthScope::User(Uid(1001)))), Uid(1001));
        assert_eq!(d, SetuidDecision::Allow);
    }

    #[test]
    fn newgrp_member_allowed_nonmember_needs_group_password() {
        let mut p = PolicySet::default();
        p.groups.push(GroupRule {
            gid: 101,
            password_protected: true,
        });
        let lsm = lsm_with(p);
        let mut member = user_cred();
        member.groups.push(Gid(101));
        assert_eq!(
            lsm.task_setgid(&ctx(&member, None), Gid(101)),
            SetuidDecision::Allow
        );
        let stranger = Credentials::user(Uid(1004), Gid(1004));
        assert_eq!(
            lsm.task_setgid(&ctx(&stranger, None), Gid(101)),
            SetuidDecision::NeedAuth(AuthScope::Group(Gid(101)))
        );
        assert_eq!(
            lsm.task_setgid(&ctx(&stranger, Some(AuthScope::Group(Gid(101)))), Gid(101)),
            SetuidDecision::Allow
        );
    }

    #[test]
    fn unprotected_group_falls_to_default() {
        let lsm = lsm_with(PolicySet::default());
        let stranger = Credentials::user(Uid(1004), Gid(1004));
        assert_eq!(
            lsm.task_setgid(&ctx(&stranger, None), Gid(101)),
            SetuidDecision::UseDefault
        );
    }

    #[test]
    fn pending_resolution_at_exec() {
        let lsm = lsm_with(PolicySet::default());
        let pend = PendingSetuid {
            target: Uid(1000),
            allowed_binaries: vec!["/usr/bin/lpr".into()],
            require_target_auth: false,
            keep_env: vec!["PRINTER".into()],
        };
        let mk = |binary: &str| ExecCtx {
            cred: Credentials::user(Uid(1001), Gid(1001)),
            binary: binary.into(),
            file_owner: Uid::ROOT,
            file_group: Gid::ROOT,
            setuid_bit: false,
            setgid_bit: false,
            pending: Some(pend.clone()),
            last_auth: None,
            last_auth_scope: None,
            now: 0,
        };
        match lsm.bprm_check(&mk("/usr/bin/lpr")) {
            ExecDecision::Transition { cred, env } => {
                assert_eq!(cred.euid, Uid(1000));
                assert_eq!(cred.ruid, Uid(1000));
                assert!(cred.caps.is_empty());
                assert_eq!(env, EnvPolicy::ClearExcept(vec!["PRINTER".into()]));
            }
            other => panic!("expected transition, got {:?}", other),
        }
        // Any other binary: permission denied at exec (§4.3).
        assert_eq!(
            lsm.bprm_check(&mk("/bin/sh")),
            ExecDecision::Deny(Errno::EACCES)
        );
    }

    #[test]
    fn pending_to_root_grants_full_caps_only_at_exec() {
        let lsm = lsm_with(PolicySet::default());
        let c = ExecCtx {
            cred: Credentials::user(Uid(1000), Gid(1000)),
            binary: "/usr/bin/apt".into(),
            file_owner: Uid::ROOT,
            file_group: Gid::ROOT,
            setuid_bit: false,
            setgid_bit: false,
            pending: Some(PendingSetuid {
                target: Uid::ROOT,
                allowed_binaries: vec!["/usr/bin/apt".into()],
                require_target_auth: false,
                keep_env: vec![],
            }),
            last_auth: None,
            last_auth_scope: None,
            now: 0,
        };
        match lsm.bprm_check(&c) {
            ExecDecision::Transition { cred, .. } => {
                assert!(cred.euid.is_root());
                assert!(cred.has_cap(Cap::SysAdmin));
            }
            other => panic!("expected transition, got {:?}", other),
        }
    }

    #[test]
    fn route_policy_non_conflicting_only() {
        let mut p = PolicySet::default();
        p.ppp.user_routes = true;
        let lsm = lsm_with(p);
        let mut table = RouteTable::new();
        table
            .add(Route {
                dest: sim_kernel::net::Ipv4::new(10, 0, 0, 0),
                prefix: 8,
                gateway: None,
                dev: "eth0".into(),
                created_by: Uid::ROOT,
            })
            .unwrap();
        let fresh = Route {
            dest: sim_kernel::net::Ipv4::new(192, 168, 9, 0),
            prefix: 24,
            gateway: None,
            dev: "ppp0".into(),
            created_by: Uid(1000),
        };
        assert_eq!(
            lsm.ioctl_route_add(&user_cred(), &fresh, &table),
            Decision::Allow
        );
        let conflicting = Route {
            dest: sim_kernel::net::Ipv4::new(10, 5, 0, 0),
            prefix: 16,
            gateway: None,
            dev: "ppp0".into(),
            created_by: Uid(1000),
        };
        assert_eq!(
            lsm.ioctl_route_add(&user_cred(), &conflicting, &table),
            Decision::Deny(Errno::EEXIST)
        );
    }

    #[test]
    fn route_policy_disabled_falls_to_default() {
        let lsm = lsm_with(PolicySet::default());
        let table = RouteTable::new();
        let r = Route {
            dest: sim_kernel::net::Ipv4::new(192, 168, 9, 0),
            prefix: 24,
            gateway: None,
            dev: "ppp0".into(),
            created_by: Uid(1000),
        };
        assert_eq!(
            lsm.ioctl_route_add(&user_cred(), &r, &table),
            Decision::UseDefault
        );
    }

    #[test]
    fn modem_safe_opts_for_users() {
        let mut p = PolicySet::default();
        p.ppp.safe_modem_opts = true;
        let lsm = lsm_with(p);
        let state = ModemState::default();
        assert_eq!(
            lsm.ioctl_modem(&user_cred(), ModemOpt::Baud(57600), &state),
            Decision::Allow
        );
        assert_eq!(
            lsm.ioctl_modem(&user_cred(), ModemOpt::HardwareReset, &state),
            Decision::UseDefault
        );
    }

    #[test]
    fn keyfile_binary_identity() {
        let mut p = PolicySet::default();
        p.keyfiles.push(KeyFileRule {
            path: "/etc/ssh/ssh_host_key".into(),
            binary: "/usr/lib/ssh-keysign".into(),
        });
        let lsm = lsm_with(p);
        fn mk<'a>(binary: &'a str, cred: &'a Credentials, access: Access) -> FileOpenCtx<'a> {
            FileOpenCtx {
                cred,
                path: "/etc/ssh/ssh_host_key",
                binary,
                access,
                dac_allows: false,
                file_owner: Uid::ROOT,
                last_auth: None,
                last_auth_scope: None,
                now: 0,
            }
        }
        // The named binary reads the key even as an unprivileged user.
        assert_eq!(
            lsm.file_open(&mk("/usr/lib/ssh-keysign", &user_cred(), Access::READ)),
            FileDecision::AllowCloexec
        );
        // Any other binary is refused, even running as root.
        assert_eq!(
            lsm.file_open(&mk("/bin/cat", &Credentials::root(), Access::READ)),
            FileDecision::Deny(Errno::EACCES)
        );
        // Writes are never granted through the keyfile rule.
        assert_eq!(
            lsm.file_open(&mk("/usr/lib/ssh-keysign", &user_cred(), Access::WRITE)),
            FileDecision::Deny(Errno::EACCES)
        );
    }

    #[test]
    fn shadow_fragment_requires_fresh_auth_and_cloexec() {
        let mut p = PolicySet::default();
        p.creddb.shadow_prefixes.push("/etc/shadows/".into());
        let lsm = lsm_with(p);
        let user = user_cred();
        let mk = |authed: Option<AuthScope>, now: u64| FileOpenCtx {
            cred: &user,
            path: "/etc/shadows/alice",
            binary: "/usr/bin/passwd",
            access: Access::READ,
            dac_allows: true,
            file_owner: Uid(1000),
            last_auth: authed.map(|_| 1000),
            last_auth_scope: authed,
            now,
        };
        assert_eq!(
            lsm.file_open(&mk(None, 1100)),
            FileDecision::NeedAuth(AuthScope::User(Uid(1000)))
        );
        assert_eq!(
            lsm.file_open(&mk(Some(AuthScope::User(Uid(1000))), 1100)),
            FileDecision::AllowCloexec
        );
        // Stale authentication is not enough.
        assert_eq!(
            lsm.file_open(&mk(
                Some(AuthScope::User(Uid(1000))),
                1000 + AUTH_WINDOW + 1
            )),
            FileDecision::NeedAuth(AuthScope::User(Uid(1000)))
        );
    }

    #[test]
    fn shadow_fragment_of_other_user_stays_dac_denied() {
        let mut p = PolicySet::default();
        p.creddb.shadow_prefixes.push("/etc/shadows/".into());
        let lsm = lsm_with(p);
        let user = user_cred();
        let c = FileOpenCtx {
            cred: &user,
            path: "/etc/shadows/bob",
            binary: "/usr/bin/passwd",
            access: Access::READ,
            dac_allows: false,
            file_owner: Uid(1001),
            last_auth: Some(1000),
            last_auth_scope: Some(AuthScope::User(Uid(1000))),
            now: 1001,
        };
        assert_eq!(lsm.file_open(&c), FileDecision::UseDefault);
    }

    #[test]
    fn keyfile_cache_hits_and_policy_write_invalidates() {
        let mut p = PolicySet::default();
        p.keyfiles.push(KeyFileRule {
            path: "/etc/ssh/ssh_host_key".into(),
            binary: "/usr/lib/ssh-keysign".into(),
        });
        let mut lsm = lsm_with(p);
        let user = user_cred();
        let mk = || FileOpenCtx {
            cred: &user,
            path: "/etc/ssh/ssh_host_key",
            binary: "/usr/lib/ssh-keysign",
            access: Access::READ,
            dac_allows: false,
            file_owner: Uid::ROOT,
            last_auth: None,
            last_auth_scope: None,
            now: 0,
        };
        assert_eq!(lsm.file_open(&mk()), FileDecision::AllowCloexec);
        assert_eq!(lsm.file_open(&mk()), FileDecision::AllowCloexec);
        // Provenance must still be recorded on the cached (second) hit.
        assert!(lsm::take_noted_rule().is_some());
        let s = lsm.keyfile_cache_stats();
        assert_eq!(s.hits, 1);
        assert!(s.misses >= 1);
        // A policy write drops the cache and the new rules take effect.
        lsm.config_write("keyfiles", "").unwrap();
        assert_eq!(lsm.keyfile_cache_stats().invalidations, 1);
        assert_eq!(lsm.file_open(&mk()), FileDecision::UseDefault);
    }

    #[test]
    fn config_roundtrip_through_module() {
        let mut lsm = ProtegoLsm::new();
        lsm.config_write("mounts", "/dev/cdrom /mnt/cdrom iso9660 user ro\n")
            .unwrap();
        assert_eq!(lsm.policy().mounts.len(), 1);
        assert_eq!(
            lsm.config_read("mounts").unwrap(),
            "/dev/cdrom /mnt/cdrom iso9660 user ro\n"
        );
        assert_eq!(lsm.config_write("bogus", "").unwrap_err(), Errno::ENOENT);
        assert_eq!(
            lsm.config_write("bind", "not a rule").unwrap_err(),
            Errno::EINVAL
        );
    }

    #[test]
    fn default_raw_rules_shape() {
        let rules = ProtegoLsm::default_raw_rules();
        assert_eq!(rules.len(), 5);
        assert_eq!(rules[0].name, "protego-no-spoof");
        assert!(rules.iter().all(|r| r.raw_socket_only));
        assert_eq!(rules.last().unwrap().verdict, Verdict::Drop);
    }

    #[test]
    fn bind_hook_grants_only_the_allocated_instance() {
        let mut p = PolicySet::default();
        p.binds.push(BindRule {
            port: 25,
            tcp: true,
            binary: "/usr/sbin/exim4".into(),
            uid: 8,
        });
        let lsm = lsm_with(p);
        let bind = |port, tcp, binary: &str, uid| {
            let cred = Credentials::user(Uid(uid), Gid(uid));
            let req = BindRequest {
                port,
                binary: Name::intern(binary),
                tcp,
            };
            lsm.socket_bind(&cred, &req)
        };
        assert_eq!(bind(25, true, "/usr/sbin/exim4", 8), Decision::Allow);
        // The right binary under another uid, and another binary under
        // the right uid, are refused.
        assert_eq!(
            bind(25, true, "/usr/sbin/exim4", 0),
            Decision::Deny(Errno::EACCES)
        );
        assert_eq!(
            bind(25, true, "/usr/sbin/httpd", 8),
            Decision::Deny(Errno::EACCES)
        );
        // The other protocol and another port are not allocated: stock
        // semantics decide.
        assert_eq!(bind(25, false, "/usr/sbin/exim4", 8), Decision::UseDefault);
        assert_eq!(bind(26, true, "/usr/sbin/exim4", 8), Decision::UseDefault);
    }

    #[test]
    fn matched_rule_is_recorded_and_drained() {
        let lsm = lsm_with(cdrom_policy());
        assert_eq!(lsm::take_noted_rule(), None);
        let d = lsm.sb_mount(
            &user_cred(),
            &mount_req("/dev/cdrom", "/mnt/cdrom", "iso9660", "ro"),
        );
        assert_eq!(d, Decision::Allow);
        let rule = lsm::take_noted_rule().expect("rule recorded");
        assert_eq!(rule, "mounts:/dev/cdrom->/mnt/cdrom");
        // Drained: a second take yields nothing.
        assert_eq!(lsm::take_noted_rule(), None);
        // Off-whitelist requests record no rule.
        let _ = lsm.sb_mount(
            &user_cred(),
            &mount_req("/dev/sda1", "/etc", "iso9660", "ro"),
        );
        assert_eq!(lsm::take_noted_rule(), None);
    }

    #[test]
    fn a_rule_noted_on_one_thread_never_reaches_another_threads_event() {
        use sim_kernel::kernel::Kernel;
        use sim_kernel::net::SimNet;
        use sim_kernel::task::Pid;
        use sim_kernel::trace::{AuditObject, DecisionKind, Hook};
        let k = Kernel::new(SimNet::new());
        k.register_lsm(Box::new(lsm_with(cdrom_policy()))).unwrap();
        // Thread A's hook matches a whitelisted mount; it reports nothing.
        // Thread B then reports its own decision on the same kernel. The
        // two run one after the other, so the interleaving is fixed.
        std::thread::scope(|s| {
            s.spawn(|| {
                let req = mount_req("/dev/cdrom", "/mnt/cdrom", "iso9660", "ro");
                assert_eq!(k.lsm().sb_mount(&user_cred(), &req), Decision::Allow);
            })
            .join()
            .unwrap();
            s.spawn(|| {
                k.emit_lsm_event(
                    Pid(1),
                    "mount",
                    Hook::SbMount,
                    DecisionKind::Deny,
                    Some(Errno::EPERM),
                    AuditObject::None,
                    "thread B's own decision".into(),
                );
            })
            .join()
            .unwrap();
        });
        let ev = k.audit.last().expect("a denial is always stored");
        assert_eq!(ev.message, "thread B's own decision");
        assert_eq!(
            ev.provenance.rule, None,
            "thread B's event carries thread A's rule"
        );
    }

    #[test]
    fn describe_access_names() {
        assert_eq!(describe_access(Access::READ), "read");
        assert_eq!(describe_access(Access::WRITE), "write");
        assert_eq!(
            describe_access(Access::READ.and(Access::WRITE)),
            "read-write"
        );
        assert_eq!(describe_access(Access::EXEC), "exec");
        assert_eq!(describe_access(Access(0)), "none");
    }
}
