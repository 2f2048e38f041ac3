//! Compiled policy indexes: the rule lookups the Protego hooks run on
//! every mount, umount, bind, setuid and setgid.
//!
//! Each index holds one policy node's `(key digest, rule ordinal)` pairs,
//! sorted. A key's ordinals therefore sit together in ascending (policy)
//! order. A lookup binary-searches the digest in that one contiguous
//! array, touching no rule, and then checks only the candidates it finds
//! against the full predicate, which also rejects a digest collision.
//! The first candidate that passes is the first rule in policy order that
//! matches: the linear scan's first match (DESIGN §17). A lookup costs
//! O(log n) integer comparisons plus its candidates. An index copies no
//! rule string; it costs 16 bytes a rule.
//!
//! [`ProtegoLsm`](crate::ProtegoLsm) builds every index when it is
//! constructed and rebuilds one node's index in `config_write`, the only
//! place policy changes.

use crate::policy::{BindRule, GroupRule, MountRule, PolicySet, Principal, SudoRule, Target};
use sim_kernel::cred::{Credentials, Gid, Uid};
use sim_kernel::lsm::MountRequest;
use std::hash::{DefaultHasher, Hash, Hasher};

/// `(key digest, ordinal)` pairs of one node's rules, sorted.
#[derive(Debug, Default)]
struct Ordinals(Vec<(u64, u32)>);

impl Ordinals {
    /// Indexes `rules` under the digest `key` gives each rule.
    fn build<T>(rules: &[T], key: impl Fn(&T) -> u64) -> Ordinals {
        let mut pairs: Vec<(u64, u32)> = (0u32..)
            .zip(rules)
            .map(|(i, rule)| (key(rule), i))
            .collect();
        pairs.sort_unstable();
        Ordinals(pairs)
    }

    /// The ordinals filed under `digest`, ascending: every rule whose key
    /// equals the probed key, plus any whose key only collides with it.
    fn candidates(&self, digest: u64) -> impl Iterator<Item = usize> + '_ {
        let lo = self.0.partition_point(|&(d, _)| d < digest);
        self.0[lo..]
            .iter()
            .take_while(move |&&(d, _)| d == digest)
            .map(|&(_, i)| examine(i as usize))
    }
}

/// The digest a lookup key is filed under. `DefaultHasher::new` is
/// unkeyed, so a key's digest is the same at build and at lookup. Only
/// root writes policy, and a colliding key costs one more candidate
/// check, never a wrong answer.
fn digest(key: impl Hash) -> u64 {
    let mut h = DefaultHasher::new();
    key.hash(&mut h);
    h.finish()
}

/// The compiled lookups over one [`PolicySet`]: mountpoint → mount rules,
/// (principal, target) → sudo rules, (port, protocol) → bind rule and
/// gid → group rule.
#[derive(Debug, Default)]
pub(crate) struct PolicyIndex {
    mounts: Ordinals,
    binds: Ordinals,
    sudo: Ordinals,
    groups: Ordinals,
}

impl PolicyIndex {
    /// Builds every index of `policy`.
    pub(crate) fn build(policy: &PolicySet) -> PolicyIndex {
        let mut index = PolicyIndex::default();
        for node in ["mounts", "bind", "sudoers", "groups"] {
            index.rebuild(node, policy);
        }
        index
    }

    /// Rebuilds the index of the `/proc/protego` node just written; a
    /// node without an index is a no-op.
    pub(crate) fn rebuild(&mut self, node: &str, policy: &PolicySet) {
        match node {
            "mounts" => {
                self.mounts = Ordinals::build(&policy.mounts, |r| digest(r.mountpoint.as_str()))
            }
            "bind" => self.binds = Ordinals::build(&policy.binds, |r| digest((r.port, r.tcp))),
            "sudoers" => self.sudo = Ordinals::build(&policy.sudo, |r| digest((r.from, r.target))),
            "groups" => self.groups = Ordinals::build(&policy.groups, |r| digest(r.gid)),
            _ => {}
        }
    }

    /// The first mount rule that whitelists `req`. Only rules for the
    /// requested mountpoint are examined.
    pub(crate) fn mount<'p>(
        &self,
        policy: &'p PolicySet,
        req: &MountRequest,
    ) -> Option<&'p MountRule> {
        self.mounts
            .candidates(digest(req.target.as_str()))
            .map(|i| &policy.mounts[i])
            .find(|r| mount_matches(r, req))
    }

    /// The first mount rule for the mountpoint `target`.
    pub(crate) fn umount<'p>(&self, policy: &'p PolicySet, target: &str) -> Option<&'p MountRule> {
        self.mounts
            .candidates(digest(target))
            .map(|i| &policy.mounts[i])
            .find(|r| r.mountpoint == target)
    }

    /// The rule allocating `port` over TCP (`tcp`) or UDP.
    pub(crate) fn bind<'p>(
        &self,
        policy: &'p PolicySet,
        port: u16,
        tcp: bool,
    ) -> Option<&'p BindRule> {
        self.binds
            .candidates(digest((port, tcp)))
            .map(|i| &policy.binds[i])
            .find(|r| r.port == port && r.tcp == tcp)
    }

    /// The first delegation rule that lets `cred` become `target`. A
    /// rule's principal matches the real uid, the effective gid, any
    /// supplementary gid, or anyone; its target is `target` or any user.
    /// Each such (principal, target) key offers its lowest ordinal, and
    /// the lowest of those is the first match.
    pub(crate) fn sudo<'p>(
        &self,
        policy: &'p PolicySet,
        cred: &Credentials,
        target: Uid,
    ) -> Option<&'p SudoRule> {
        let rules = &policy.sudo;
        let principals = [
            Principal::Any,
            Principal::Uid(cred.ruid.0),
            Principal::Gid(cred.egid.0),
        ]
        .into_iter()
        .chain(cred.groups.iter().map(|g| Principal::Gid(g.0)));
        let i = principals
            .flat_map(|from| [Target::Any, Target::Uid(target.0)].map(|to| (from, to)))
            .filter_map(|key| {
                self.sudo
                    .candidates(digest(key))
                    .find(|&i| (rules[i].from, rules[i].target) == key)
            })
            .min()?;
        Some(&rules[i])
    }

    /// The first group rule for `gid`.
    pub(crate) fn group<'p>(&self, policy: &'p PolicySet, gid: Gid) -> Option<&'p GroupRule> {
        self.groups
            .candidates(digest(gid.0))
            .map(|i| &policy.groups[i])
            .find(|r| r.gid == gid.0)
    }
}

/// Whether the mount rule `r` whitelists `req`.
fn mount_matches(r: &MountRule, req: &MountRequest) -> bool {
    r.source == req.source
        && r.mountpoint == req.target
        && r.fstype.as_deref().is_none_or(|t| t == req.fstype)
}

/// Marks a rule (or its ordinal) as examined by a lookup; counted in
/// tests only.
fn examine<T>(rule: T) -> T {
    #[cfg(test)]
    examined::count();
    rule
}

/// Per-thread count of the rules lookups examined, for the tests that pin
/// what one lookup costs.
#[cfg(test)]
pub(crate) mod examined {
    use std::cell::Cell;

    thread_local! {
        static COUNT: Cell<u64> = const { Cell::new(0) };
    }

    pub(crate) fn count() {
        COUNT.with(|c| c.set(c.get() + 1));
    }

    /// The calling thread's count since the last `take`.
    pub(crate) fn take() -> u64 {
        COUNT.with(|c| c.replace(0))
    }
}

/// The linear first-match scans the indexes replaced, kept as the oracle
/// the tests check them against.
#[cfg(test)]
pub(crate) mod linear {
    use super::*;

    pub(crate) fn mount<'p>(policy: &'p PolicySet, req: &MountRequest) -> Option<&'p MountRule> {
        policy
            .mounts
            .iter()
            .map(examine)
            .find(|r| mount_matches(r, req))
    }

    pub(crate) fn umount<'p>(policy: &'p PolicySet, target: &str) -> Option<&'p MountRule> {
        policy
            .mounts
            .iter()
            .map(examine)
            .find(|r| r.mountpoint == target)
    }

    pub(crate) fn bind(policy: &PolicySet, port: u16, tcp: bool) -> Option<&BindRule> {
        policy
            .binds
            .iter()
            .map(examine)
            .find(|r| r.port == port && r.tcp == tcp)
    }

    pub(crate) fn sudo<'p>(
        policy: &'p PolicySet,
        cred: &Credentials,
        target: Uid,
    ) -> Option<&'p SudoRule> {
        policy.sudo.iter().map(examine).find(|r| {
            let from = match r.from {
                Principal::Any => true,
                Principal::Uid(u) => cred.ruid == Uid(u),
                Principal::Gid(g) => cred.in_group(Gid(g)),
            };
            let to = match r.target {
                Target::Any => true,
                Target::Uid(u) => target == Uid(u),
            };
            from && to
        })
    }

    pub(crate) fn group(policy: &PolicySet, gid: Gid) -> Option<&GroupRule> {
        policy.groups.iter().map(examine).find(|g| g.gid == gid.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{AuthReq, CmdSpec, MountScope};
    use proptest::prelude::*;

    // Small domains, so random policies repeat mountpoints, ports, gids
    // and principals, and random requests hit them.
    const SOURCES: [&str; 3] = ["/dev/cdrom", "/dev/sdb1", "fuse"];
    const MOUNTPOINTS: [&str; 4] = ["/mnt/a", "/mnt/b", "/media/usb", "/mnt/a/b"];
    const FSTYPES: [&str; 3] = ["iso9660", "vfat", "fuse"];
    const IDS: u32 = 5;

    fn mount_rule() -> impl Strategy<Value = MountRule> {
        (
            0..3usize,
            0..4usize,
            0..4usize,
            any::<bool>(),
            any::<bool>(),
        )
            .prop_map(|(s, m, f, users, read_only)| MountRule {
                source: SOURCES[s].into(),
                mountpoint: MOUNTPOINTS[m].into(),
                // One draw in four is `fstype=*`.
                fstype: FSTYPES.get(f).map(|t| t.to_string()),
                scope: if users {
                    MountScope::Users
                } else {
                    MountScope::User
                },
                read_only,
            })
    }

    fn principal() -> impl Strategy<Value = Principal> {
        prop_oneof![
            Just(Principal::Any),
            (0..IDS).prop_map(Principal::Uid),
            (0..IDS).prop_map(Principal::Gid),
        ]
    }

    fn target() -> impl Strategy<Value = Target> {
        prop_oneof![Just(Target::Any), (0..IDS).prop_map(Target::Uid)]
    }

    fn sudo_rule() -> impl Strategy<Value = SudoRule> {
        (principal(), target()).prop_map(|(from, target)| SudoRule {
            from,
            target,
            cmd: CmdSpec::Any,
            auth: AuthReq::Invoker,
            keep_env: Vec::new(),
        })
    }

    fn policy() -> impl Strategy<Value = PolicySet> {
        (
            prop::collection::vec(mount_rule(), 0..12),
            prop::collection::vec((1..6u16, any::<bool>(), 0..IDS), 0..8),
            prop::collection::vec(sudo_rule(), 0..16),
            prop::collection::vec((0..IDS, any::<bool>()), 0..6),
        )
            .prop_map(|(mounts, binds, sudo, groups)| PolicySet {
                mounts,
                binds: binds
                    .into_iter()
                    .map(|(port, tcp, uid)| BindRule {
                        port,
                        tcp,
                        binary: format!("/bin/d{}", uid),
                        uid,
                    })
                    .collect(),
                sudo,
                groups: groups
                    .into_iter()
                    .map(|(gid, password_protected)| GroupRule {
                        gid,
                        password_protected,
                    })
                    .collect(),
                ..PolicySet::default()
            })
    }

    fn cred() -> impl Strategy<Value = Credentials> {
        (0..IDS, 0..IDS, prop::collection::vec(0..IDS, 0..3)).prop_map(|(uid, egid, groups)| {
            let mut c = Credentials::user(Uid(uid), Gid(uid));
            c.egid = Gid(egid);
            c.groups = groups.into_iter().map(Gid).collect();
            c
        })
    }

    /// Rule identity: the same ordinal, not just an equal rule.
    fn same<T>(a: Option<&T>, b: Option<&T>) -> bool {
        a.map(|r| r as *const T) == b.map(|r| r as *const T)
    }

    proptest! {
        /// Every indexed lookup answers with the very rule the linear
        /// first-match scan finds, over every request in the domain.
        #[test]
        fn index_agrees_with_linear_scan(
            policies in prop::collection::vec(policy(), 8),
            creds in prop::collection::vec(cred(), 6),
        ) {
            for p in &policies {
                let index = PolicyIndex::build(p);
                for source in SOURCES {
                    for target in MOUNTPOINTS.iter().chain(&["/mnt/none"]) {
                        for fstype in FSTYPES {
                            let req = MountRequest {
                                source: source.into(),
                                target: target.to_string(),
                                fstype: fstype.into(),
                                options: sim_kernel::vfs::MountOptions::parse("ro"),
                            };
                            prop_assert!(same(index.mount(p, &req), linear::mount(p, &req)));
                        }
                        prop_assert!(same(index.umount(p, target), linear::umount(p, target)));
                    }
                }
                for cred in &creds {
                    for to in 0..IDS + 1 {
                        prop_assert!(same(
                            index.sudo(p, cred, Uid(to)),
                            linear::sudo(p, cred, Uid(to))
                        ));
                    }
                }
                for port in 0..7 {
                    for tcp in [false, true] {
                        prop_assert!(same(index.bind(p, port, tcp), linear::bind(p, port, tcp)));
                    }
                }
                for gid in 0..IDS + 1 {
                    prop_assert!(same(index.group(p, Gid(gid)), linear::group(p, Gid(gid))));
                }
            }
        }
    }
}
