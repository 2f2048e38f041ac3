//! Kernel-side policy structures and the `/proc/protego/*` grammar.
//!
//! The Protego LSM is configured through plain-text files under
//! `/proc/protego/` (Figure 1): either directly by the administrator or by
//! the trusted monitoring daemon that mirrors legacy configuration files
//! (`/etc/fstab`, `/etc/sudoers`, ...). The kernel grammar is *numeric*
//! (uids/gids, resolved paths); translating human-readable names is
//! userland's job — exactly the split the paper's prototype uses.

use sim_kernel::error::{Errno, KResult};

/// Who may operate on a whitelisted mountpoint (the fstab `user` vs
/// `users` options).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MountScope {
    /// `user`: any user may mount; only the mounting user may unmount.
    User,
    /// `users`: any user may mount or unmount.
    Users,
}

/// One entry of the kernel mount whitelist.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MountRule {
    /// Required source device.
    pub source: String,
    /// Required mountpoint.
    pub mountpoint: String,
    /// Required filesystem type (`None` = any).
    pub fstype: Option<String>,
    /// Scope of the grant.
    pub scope: MountScope,
    /// If set, the mount must be read-only.
    pub read_only: bool,
}

/// One entry of the privileged-port map (`/etc/bind`, §4.1.3): the paper's
/// application instance is the (binary path, uid) pair.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BindRule {
    /// Privileged port number (<1024).
    pub port: u16,
    /// True for TCP, false for UDP.
    pub tcp: bool,
    /// Absolute binary path.
    pub binary: String,
    /// Required uid.
    pub uid: u32,
}

/// Subject selector of a delegation rule.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Principal {
    /// A specific user.
    Uid(u32),
    /// Members of a group (sudoers `%group`).
    Gid(u32),
    /// Anyone.
    Any,
}

/// Target selector of a delegation rule.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Target {
    /// A specific user.
    Uid(u32),
    /// Any user (sudoers `(ALL)`).
    Any,
}

/// Commands a delegation covers.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CmdSpec {
    /// Any binary (sudoers `ALL`).
    Any,
    /// Only these absolute paths.
    List(Vec<String>),
}

/// Whose password must be proven, and when.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AuthReq {
    /// The invoking user authenticates (sudo semantics), subject to the
    /// kernel recency window.
    Invoker,
    /// The *target* user authenticates (su semantics).
    Target,
    /// No authentication (sudoers `NOPASSWD`).
    None,
}

/// A kernelized delegation rule (§4.3).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SudoRule {
    /// Who may use the rule.
    pub from: Principal,
    /// Which uid they may become.
    pub target: Target,
    /// Which binaries they may run as that uid.
    pub cmd: CmdSpec,
    /// Authentication requirement.
    pub auth: AuthReq,
    /// Environment variables preserved across the transition.
    pub keep_env: Vec<String>,
}

impl SudoRule {
    /// The rule Protego installs for `su`: anyone may become any user by
    /// proving the target's password.
    pub fn su_rule() -> SudoRule {
        SudoRule {
            from: Principal::Any,
            target: Target::Any,
            cmd: CmdSpec::Any,
            auth: AuthReq::Target,
            keep_env: Vec::new(),
        }
    }
}

/// A password-protected group (newgrp, §4.3).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GroupRule {
    /// The group id.
    pub gid: u32,
    /// Whether non-members may join by proving the group password.
    pub password_protected: bool,
}

/// A sensitive file restricted to a specific binary (ssh-keysign, §4.6).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct KeyFileRule {
    /// The protected path.
    pub path: String,
    /// The only binary allowed to open it.
    pub binary: String,
}

/// PPP policy mined from `/etc/ppp/options` (§4.1.2).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PppPolicy {
    /// Allow unprivileged users to set safe modem options.
    pub safe_modem_opts: bool,
    /// Allow unprivileged users to add non-conflicting routes.
    pub user_routes: bool,
}

/// Credential-database layout policy (§4.4).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CredDbPolicy {
    /// Directory prefixes whose per-user shadow fragments require a fresh
    /// authentication (and CLOEXEC handles) to read.
    pub shadow_prefixes: Vec<String>,
}

/// The full Protego policy state, as configured through `/proc`.
#[derive(Clone, Debug, Default)]
pub struct PolicySet {
    /// Mount whitelist.
    pub mounts: Vec<MountRule>,
    /// Privileged-port map.
    pub binds: Vec<BindRule>,
    /// Delegation rules.
    pub sudo: Vec<SudoRule>,
    /// Password-protected groups.
    pub groups: Vec<GroupRule>,
    /// Binary-identity file grants.
    pub keyfiles: Vec<KeyFileRule>,
    /// PPP policy.
    pub ppp: PppPolicy,
    /// Credential-database policy.
    pub creddb: CredDbPolicy,
}

// ---------------------------------------------------------------------
// Grammar: parse / render, one node per policy category
// ---------------------------------------------------------------------

fn non_comment_lines(text: &str) -> impl Iterator<Item = &str> {
    text.lines()
        .map(|l| l.split('#').next().unwrap_or("").trim())
        .filter(|l| !l.is_empty())
}

/// Parses the `mounts` node: `<source> <mountpoint> <fstype|*> <user|users> [ro]`.
pub fn parse_mounts(text: &str) -> KResult<Vec<MountRule>> {
    let mut out = Vec::new();
    for line in non_comment_lines(text) {
        let f: Vec<&str> = line.split_whitespace().collect();
        if f.len() < 4 || f.len() > 5 {
            return Err(Errno::EINVAL);
        }
        let scope = match f[3] {
            "user" => MountScope::User,
            "users" => MountScope::Users,
            _ => return Err(Errno::EINVAL),
        };
        let read_only = match f.get(4) {
            None => false,
            Some(&"ro") => true,
            Some(_) => return Err(Errno::EINVAL),
        };
        // Sources are device paths or pseudo-filesystem names (tmpfs,
        // fuse, proc, ...).
        let pseudo_ok = f[0].chars().all(|c| c.is_ascii_alphanumeric());
        if !f[0].starts_with('/') && !pseudo_ok {
            return Err(Errno::EINVAL);
        }
        if !f[1].starts_with('/') {
            return Err(Errno::EINVAL);
        }
        out.push(MountRule {
            source: f[0].into(),
            mountpoint: f[1].into(),
            fstype: if f[2] == "*" { None } else { Some(f[2].into()) },
            scope,
            read_only,
        });
    }
    Ok(out)
}

/// Renders the `mounts` node.
pub fn render_mounts(rules: &[MountRule]) -> String {
    rules
        .iter()
        .map(|r| {
            format!(
                "{} {} {} {}{}\n",
                r.source,
                r.mountpoint,
                r.fstype.as_deref().unwrap_or("*"),
                match r.scope {
                    MountScope::User => "user",
                    MountScope::Users => "users",
                },
                if r.read_only { " ro" } else { "" }
            )
        })
        .collect()
}

/// Parses the `bind` node: `<port> <tcp|udp> <binary> <uid>`.
pub fn parse_binds(text: &str) -> KResult<Vec<BindRule>> {
    let mut out: Vec<BindRule> = Vec::new();
    // One slot per (port, protocol) key: ports are below 1024.
    let mut taken = [false; 2048];
    for line in non_comment_lines(text) {
        let f: Vec<&str> = line.split_whitespace().collect();
        if f.len() != 4 {
            return Err(Errno::EINVAL);
        }
        let port: u16 = f[0].parse().map_err(|_| Errno::EINVAL)?;
        if port == 0 || port >= 1024 {
            return Err(Errno::EINVAL);
        }
        let tcp = match f[1] {
            "tcp" => true,
            "udp" => false,
            _ => return Err(Errno::EINVAL),
        };
        if !f[2].starts_with('/') {
            return Err(Errno::EINVAL);
        }
        let uid: u32 = f[3].parse().map_err(|_| Errno::EINVAL)?;
        // Each port maps to exactly one application instance (§4.1.3).
        if std::mem::replace(&mut taken[usize::from(port) * 2 + usize::from(tcp)], true) {
            return Err(Errno::EEXIST);
        }
        out.push(BindRule {
            port,
            tcp,
            binary: f[2].into(),
            uid,
        });
    }
    Ok(out)
}

/// Renders the `bind` node.
pub fn render_binds(rules: &[BindRule]) -> String {
    rules
        .iter()
        .map(|r| {
            format!(
                "{} {} {} {}\n",
                r.port,
                if r.tcp { "tcp" } else { "udp" },
                r.binary,
                r.uid
            )
        })
        .collect()
}

/// Parses the `sudoers` node:
/// `from=<uid:N|gid:N|any> target=<N|any> cmd=<p1[,p2]|any> auth=<invoker|target|none> keepenv=<A,B|->`.
pub fn parse_sudo(text: &str) -> KResult<Vec<SudoRule>> {
    let mut out = Vec::new();
    for line in non_comment_lines(text) {
        let mut from = None;
        let mut target = None;
        let mut cmd = None;
        let mut auth = None;
        let mut keep_env = Vec::new();
        for tok in line.split_whitespace() {
            let (k, v) = tok.split_once('=').ok_or(Errno::EINVAL)?;
            match k {
                "from" => {
                    from = Some(if v == "any" {
                        Principal::Any
                    } else if let Some(n) = v.strip_prefix("uid:") {
                        Principal::Uid(n.parse().map_err(|_| Errno::EINVAL)?)
                    } else if let Some(n) = v.strip_prefix("gid:") {
                        Principal::Gid(n.parse().map_err(|_| Errno::EINVAL)?)
                    } else {
                        return Err(Errno::EINVAL);
                    });
                }
                "target" => {
                    target = Some(if v == "any" {
                        Target::Any
                    } else {
                        Target::Uid(v.parse().map_err(|_| Errno::EINVAL)?)
                    });
                }
                "cmd" => {
                    cmd = Some(if v == "any" {
                        CmdSpec::Any
                    } else {
                        let paths: Vec<String> = v.split(',').map(String::from).collect();
                        if paths.iter().any(|p| !p.starts_with('/')) {
                            return Err(Errno::EINVAL);
                        }
                        CmdSpec::List(paths)
                    });
                }
                "auth" => {
                    auth = Some(match v {
                        "invoker" => AuthReq::Invoker,
                        "target" => AuthReq::Target,
                        "none" => AuthReq::None,
                        _ => return Err(Errno::EINVAL),
                    });
                }
                "keepenv" => {
                    if v != "-" {
                        keep_env = v.split(',').map(String::from).collect();
                    }
                }
                _ => return Err(Errno::EINVAL),
            }
        }
        out.push(SudoRule {
            from: from.ok_or(Errno::EINVAL)?,
            target: target.ok_or(Errno::EINVAL)?,
            cmd: cmd.ok_or(Errno::EINVAL)?,
            auth: auth.unwrap_or(AuthReq::Invoker),
            keep_env,
        });
    }
    Ok(out)
}

/// Renders the `sudoers` node.
pub fn render_sudo(rules: &[SudoRule]) -> String {
    rules
        .iter()
        .map(|r| {
            let from = match r.from {
                Principal::Uid(u) => format!("uid:{}", u),
                Principal::Gid(g) => format!("gid:{}", g),
                Principal::Any => "any".into(),
            };
            let target = match r.target {
                Target::Uid(u) => u.to_string(),
                Target::Any => "any".into(),
            };
            let cmd = match &r.cmd {
                CmdSpec::Any => "any".into(),
                CmdSpec::List(l) => l.join(","),
            };
            let auth = match r.auth {
                AuthReq::Invoker => "invoker",
                AuthReq::Target => "target",
                AuthReq::None => "none",
            };
            let keepenv = if r.keep_env.is_empty() {
                "-".into()
            } else {
                r.keep_env.join(",")
            };
            format!(
                "from={} target={} cmd={} auth={} keepenv={}\n",
                from, target, cmd, auth, keepenv
            )
        })
        .collect()
}

/// Parses the `groups` node: `<gid> <password|open>`.
pub fn parse_groups(text: &str) -> KResult<Vec<GroupRule>> {
    let mut out = Vec::new();
    for line in non_comment_lines(text) {
        let f: Vec<&str> = line.split_whitespace().collect();
        if f.len() != 2 {
            return Err(Errno::EINVAL);
        }
        let gid: u32 = f[0].parse().map_err(|_| Errno::EINVAL)?;
        let password_protected = match f[1] {
            "password" => true,
            "open" => false,
            _ => return Err(Errno::EINVAL),
        };
        out.push(GroupRule {
            gid,
            password_protected,
        });
    }
    Ok(out)
}

/// Renders the `groups` node.
pub fn render_groups(rules: &[GroupRule]) -> String {
    rules
        .iter()
        .map(|r| {
            format!(
                "{} {}\n",
                r.gid,
                if r.password_protected {
                    "password"
                } else {
                    "open"
                }
            )
        })
        .collect()
}

/// Parses the `keyfiles` node: `<path> <binary>`.
pub fn parse_keyfiles(text: &str) -> KResult<Vec<KeyFileRule>> {
    let mut out = Vec::new();
    for line in non_comment_lines(text) {
        let f: Vec<&str> = line.split_whitespace().collect();
        if f.len() != 2 || !f[0].starts_with('/') || !f[1].starts_with('/') {
            return Err(Errno::EINVAL);
        }
        out.push(KeyFileRule {
            path: f[0].into(),
            binary: f[1].into(),
        });
    }
    Ok(out)
}

/// Renders the `keyfiles` node.
pub fn render_keyfiles(rules: &[KeyFileRule]) -> String {
    rules
        .iter()
        .map(|r| format!("{} {}\n", r.path, r.binary))
        .collect()
}

/// Parses the `ppp` node: `safe-modem-opts <on|off>` / `user-routes <on|off>`.
pub fn parse_ppp(text: &str) -> KResult<PppPolicy> {
    let mut p = PppPolicy::default();
    for line in non_comment_lines(text) {
        let f: Vec<&str> = line.split_whitespace().collect();
        if f.len() != 2 {
            return Err(Errno::EINVAL);
        }
        let on = match f[1] {
            "on" => true,
            "off" => false,
            _ => return Err(Errno::EINVAL),
        };
        match f[0] {
            "safe-modem-opts" => p.safe_modem_opts = on,
            "user-routes" => p.user_routes = on,
            _ => return Err(Errno::EINVAL),
        }
    }
    Ok(p)
}

/// Renders the `ppp` node.
pub fn render_ppp(p: &PppPolicy) -> String {
    format!(
        "safe-modem-opts {}\nuser-routes {}\n",
        if p.safe_modem_opts { "on" } else { "off" },
        if p.user_routes { "on" } else { "off" }
    )
}

/// Parses the `creddb` node: `shadow-prefix <path/>` lines.
pub fn parse_creddb(text: &str) -> KResult<CredDbPolicy> {
    let mut p = CredDbPolicy::default();
    for line in non_comment_lines(text) {
        let f: Vec<&str> = line.split_whitespace().collect();
        if f.len() != 2 || f[0] != "shadow-prefix" || !f[1].starts_with('/') {
            return Err(Errno::EINVAL);
        }
        p.shadow_prefixes.push(f[1].into());
    }
    Ok(p)
}

/// Renders the `creddb` node.
pub fn render_creddb(p: &CredDbPolicy) -> String {
    p.shadow_prefixes
        .iter()
        .map(|s| format!("shadow-prefix {}\n", s))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mounts_roundtrip() {
        let text = "/dev/cdrom /mnt/cdrom iso9660 user ro\n/dev/sdb1 /media/usb * users\n";
        let rules = parse_mounts(text).unwrap();
        assert_eq!(rules.len(), 2);
        assert_eq!(rules[0].scope, MountScope::User);
        assert!(rules[0].read_only);
        assert_eq!(rules[1].fstype, None);
        assert_eq!(render_mounts(&rules), text);
    }

    #[test]
    fn mounts_reject_garbage() {
        assert_eq!(parse_mounts("one two").unwrap_err(), Errno::EINVAL);
        assert_eq!(
            parse_mounts("/d /m iso9660 sometimes").unwrap_err(),
            Errno::EINVAL
        );
        // Pseudo-fs names (tmpfs, fuse) pass; path-ish relative sources
        // do not.
        assert!(parse_mounts("fuse /m fuse user").is_ok());
        assert_eq!(
            parse_mounts("../etc /m iso9660 user").unwrap_err(),
            Errno::EINVAL
        );
        assert!(parse_mounts("# comment\n\n").unwrap().is_empty());
    }

    #[test]
    fn binds_roundtrip_and_exclusivity() {
        let text = "25 tcp /usr/sbin/exim4 0\n80 tcp /usr/sbin/httpd 33\n";
        let rules = parse_binds(text).unwrap();
        assert_eq!(rules.len(), 2);
        assert_eq!(render_binds(&rules), text);
        // One port, one instance.
        assert_eq!(
            parse_binds("25 tcp /a 0\n25 tcp /b 1\n").unwrap_err(),
            Errno::EEXIST
        );
        // Same port number on UDP is a different key.
        assert!(parse_binds("53 tcp /a 0\n53 udp /a 0\n").is_ok());
    }

    #[test]
    fn binds_validate_range() {
        assert_eq!(parse_binds("1024 tcp /a 0").unwrap_err(), Errno::EINVAL);
        assert_eq!(parse_binds("0 tcp /a 0").unwrap_err(), Errno::EINVAL);
        assert_eq!(parse_binds("25 sctp /a 0").unwrap_err(), Errno::EINVAL);
        assert_eq!(parse_binds("25 tcp relative 0").unwrap_err(), Errno::EINVAL);
    }

    #[test]
    fn sudo_roundtrip() {
        let text = "from=uid:1000 target=0 cmd=any auth=invoker keepenv=-\n\
                    from=uid:1001 target=1000 cmd=/usr/bin/lpr auth=invoker keepenv=PRINTER\n\
                    from=gid:27 target=any cmd=any auth=invoker keepenv=-\n\
                    from=any target=any cmd=any auth=target keepenv=-\n";
        let rules = parse_sudo(text).unwrap();
        assert_eq!(rules.len(), 4);
        assert_eq!(rules[0].from, Principal::Uid(1000));
        assert_eq!(rules[1].cmd, CmdSpec::List(vec!["/usr/bin/lpr".into()]));
        assert_eq!(rules[1].keep_env, vec!["PRINTER".to_string()]);
        assert_eq!(rules[3], SudoRule::su_rule());
        assert_eq!(render_sudo(&rules), text);
    }

    #[test]
    fn sudo_nopasswd() {
        let rules = parse_sudo("from=uid:5 target=0 cmd=/bin/ls auth=none keepenv=-").unwrap();
        assert_eq!(rules[0].auth, AuthReq::None);
    }

    #[test]
    fn sudo_rejects_bad_fields() {
        assert!(parse_sudo("from=bogus target=0 cmd=any").is_err());
        assert!(parse_sudo("from=uid:1 target=zero cmd=any").is_err());
        assert!(parse_sudo("from=uid:1 target=0 cmd=relative").is_err());
        assert!(parse_sudo("from=uid:1 target=0 cmd=any auth=maybe").is_err());
        assert!(parse_sudo("target=0 cmd=any").is_err()); // missing from
    }

    #[test]
    fn groups_roundtrip() {
        let text = "101 password\n24 open\n";
        let rules = parse_groups(text).unwrap();
        assert!(rules[0].password_protected);
        assert!(!rules[1].password_protected);
        assert_eq!(render_groups(&rules), text);
    }

    #[test]
    fn keyfiles_roundtrip() {
        let text = "/etc/ssh/ssh_host_key /usr/lib/ssh-keysign\n";
        let rules = parse_keyfiles(text).unwrap();
        assert_eq!(rules[0].binary, "/usr/lib/ssh-keysign");
        assert_eq!(render_keyfiles(&rules), text);
        assert!(parse_keyfiles("notapath x").is_err());
    }

    #[test]
    fn ppp_roundtrip() {
        let p = parse_ppp("safe-modem-opts on\nuser-routes on\n").unwrap();
        assert!(p.safe_modem_opts && p.user_routes);
        assert_eq!(render_ppp(&p), "safe-modem-opts on\nuser-routes on\n");
        assert!(!parse_ppp("").unwrap().safe_modem_opts);
        assert!(parse_ppp("user-routes sometimes").is_err());
    }

    #[test]
    fn creddb_roundtrip() {
        let p = parse_creddb("shadow-prefix /etc/shadows/\n").unwrap();
        assert_eq!(p.shadow_prefixes, vec!["/etc/shadows/".to_string()]);
        assert_eq!(render_creddb(&p), "shadow-prefix /etc/shadows/\n");
        assert!(parse_creddb("other-key /x").is_err());
    }
}
