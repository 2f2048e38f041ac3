//! Identity system calls: the `setuid`/`setgid` family (§4.3).
//!
//! Stock Linux allows an arbitrary transition iff the caller holds
//! CAP_SETUID (CAP_SETGID), else only transitions among {ruid, euid, suid}.
//! Protego's hook enforces the delegation rules mined from
//! `/etc/sudoers`: transitions may be granted outright, denied, gated on
//! recent authentication, or — when restricted to particular commands —
//! turned into a *pending* transition that resolves at `exec`.

use crate::caps::{Cap, CapSet};
use crate::cred::{Gid, Uid};
use crate::error::{Errno, KResult};
use crate::kernel::Kernel;
use crate::lsm::{SetidCtx, SetuidDecision};
use crate::task::Caller;
use crate::trace::{AuditObject, DecisionKind, Hook};
use std::sync::Arc;

impl Kernel {
    /// `setuid(2)`.
    pub(crate) fn sys_setuid(&self, c: &Caller, target: Uid) -> KResult<()> {
        let mut attempts = 0;
        // After a successful authentication the retry sees a fresh
        // snapshot, not the one taken at entry.
        let mut refreshed: Option<Caller> = None;
        loop {
            // The hook context borrows the caller's credentials and binary
            // — no clones on the id fast path.
            let now = refreshed.as_ref().unwrap_or(c);
            let ruid = now.cred.ruid;
            let decision = self
                .lsm()
                .task_setuid(&SetidCtx::of(now, self.clock()), target);
            match decision {
                SetuidDecision::UseDefault => return self.setuid_stock(now, target),
                SetuidDecision::Allow => {
                    let msg = format!("setuid: lsm granted {} -> {}", ruid, target);
                    self.emit_lsm_event(
                        c.pid,
                        "setuid",
                        Hook::TaskSetuid,
                        DecisionKind::Allow,
                        None,
                        AuditObject::UidTarget(target.0),
                        msg,
                    );
                    let mut t = self.task_mut(c.pid)?;
                    let cred = Arc::make_mut(&mut t.cred);
                    cred.ruid = target;
                    cred.euid = target;
                    cred.suid = target;
                    cred.fsuid = target;
                    // Privilege is granted only *after* all checks pass
                    // (the paper's point about sudo-to-root).
                    cred.caps = if target.is_root() {
                        CapSet::full()
                    } else {
                        CapSet::EMPTY
                    };
                    return Ok(());
                }
                SetuidDecision::Deny(e) => {
                    let msg = format!("setuid: lsm denied {} -> {} ({})", ruid, target, e.name());
                    self.emit_lsm_event(
                        c.pid,
                        "setuid",
                        Hook::TaskSetuid,
                        DecisionKind::Deny,
                        Some(e),
                        AuditObject::UidTarget(target.0),
                        msg,
                    );
                    return Err(e);
                }
                SetuidDecision::Pending(p) => {
                    let msg = format!(
                        "setuid: pending transition {} -> {} restricted to {:?}",
                        ruid, target, p.allowed_binaries
                    );
                    self.emit_lsm_event(
                        c.pid,
                        "setuid",
                        Hook::TaskSetuid,
                        DecisionKind::Defer,
                        None,
                        AuditObject::UidTarget(target.0),
                        msg,
                    );
                    self.task_mut(c.pid)?.pending_setuid = Some(p);
                    // The call *reports* success; the credential change is
                    // deferred to exec (§4.3's change in error behaviour).
                    return Ok(());
                }
                SetuidDecision::NeedAuth(scope) => {
                    attempts += 1;
                    if attempts > 1 || !self.run_auth(c.pid, scope) {
                        let msg = format!("setuid: auth failed for {} -> {}", ruid, target);
                        self.emit_lsm_event(
                            c.pid,
                            "setuid",
                            Hook::TaskSetuid,
                            DecisionKind::Deny,
                            Some(Errno::EPERM),
                            AuditObject::UidTarget(target.0),
                            msg,
                        );
                        return Err(Errno::EPERM);
                    }
                    refreshed = Some(self.live_caller(c.pid)?);
                }
            }
        }
    }

    /// Stock `setuid(2)` semantics.
    fn setuid_stock(&self, c: &Caller, target: Uid) -> KResult<()> {
        if self.capable(c, Cap::Setuid) {
            let mut t = self.task_mut(c.pid)?;
            let cred = Arc::make_mut(&mut t.cred);
            cred.ruid = target;
            cred.euid = target;
            cred.suid = target;
            cred.fsuid = target;
            if !target.is_root() {
                // Dropping root drops the capability set.
                cred.caps = CapSet::EMPTY;
            }
            return Ok(());
        }
        let cred = &c.cred;
        if target != cred.ruid && target != cred.suid {
            let msg = format!(
                "setuid: stock denied {} -> {} (no CAP_SETUID)",
                cred.ruid, target
            );
            self.emit_kernel_event(
                c.pid,
                "setuid",
                Hook::TaskSetuid,
                DecisionKind::Deny,
                Some(Errno::EPERM),
                AuditObject::UidTarget(target.0),
                msg,
            );
            return Err(Errno::EPERM);
        }
        // A re-assert of the identity already held commits nothing.
        if cred.euid != target || cred.fsuid != target {
            let mut t = self.task_mut(c.pid)?;
            let cred = Arc::make_mut(&mut t.cred);
            cred.euid = target;
            cred.fsuid = target;
        }
        Ok(())
    }

    /// `seteuid(2)` — stock semantics only (no LSM hook needed: it cannot
    /// reach an identity the task does not already hold without
    /// CAP_SETUID).
    pub(crate) fn sys_seteuid(&self, c: &Caller, target: Uid) -> KResult<()> {
        let cred = &c.cred;
        let held = target == cred.ruid || target == cred.suid || target == cred.euid;
        if !self.capable(c, Cap::Setuid) && !held {
            return Err(Errno::EPERM);
        }
        if cred.euid != target || cred.fsuid != target {
            let mut t = self.task_mut(c.pid)?;
            let cred = Arc::make_mut(&mut t.cred);
            cred.euid = target;
            cred.fsuid = target;
        }
        Ok(())
    }

    /// `setgid(2)`.
    pub(crate) fn sys_setgid(&self, c: &Caller, target: Gid) -> KResult<()> {
        let mut attempts = 0;
        let mut refreshed: Option<Caller> = None;
        loop {
            // Clone-free hook context, as in sys_setuid.
            let now = refreshed.as_ref().unwrap_or(c);
            let rgid = now.cred.rgid;
            let decision = self
                .lsm()
                .task_setgid(&SetidCtx::of(now, self.clock()), target);
            match decision {
                SetuidDecision::UseDefault => return self.setgid_stock(now, target),
                SetuidDecision::Allow => {
                    let msg = format!("setgid: lsm granted {} -> {}", rgid.0, target.0);
                    self.emit_lsm_event(
                        c.pid,
                        "setgid",
                        Hook::TaskSetgid,
                        DecisionKind::Allow,
                        None,
                        AuditObject::GidTarget(target.0),
                        msg,
                    );
                    let mut t = self.task_mut(c.pid)?;
                    let cred = Arc::make_mut(&mut t.cred);
                    cred.rgid = target;
                    cred.egid = target;
                    cred.sgid = target;
                    if !cred.groups.contains(&target) {
                        cred.groups.push(target);
                    }
                    return Ok(());
                }
                SetuidDecision::Deny(e) => {
                    let msg = format!(
                        "setgid: lsm denied {} -> {} ({})",
                        rgid.0,
                        target.0,
                        e.name()
                    );
                    self.emit_lsm_event(
                        c.pid,
                        "setgid",
                        Hook::TaskSetgid,
                        DecisionKind::Deny,
                        Some(e),
                        AuditObject::GidTarget(target.0),
                        msg,
                    );
                    return Err(e);
                }
                SetuidDecision::Pending(_) => return Err(Errno::EINVAL),
                SetuidDecision::NeedAuth(scope) => {
                    attempts += 1;
                    if attempts > 1 || !self.run_auth(c.pid, scope) {
                        let msg = format!("setgid: auth failed for {} -> {}", rgid.0, target.0);
                        self.emit_lsm_event(
                            c.pid,
                            "setgid",
                            Hook::TaskSetgid,
                            DecisionKind::Deny,
                            Some(Errno::EPERM),
                            AuditObject::GidTarget(target.0),
                            msg,
                        );
                        return Err(Errno::EPERM);
                    }
                    refreshed = Some(self.live_caller(c.pid)?);
                }
            }
        }
    }

    /// Stock `setgid(2)` semantics.
    fn setgid_stock(&self, c: &Caller, target: Gid) -> KResult<()> {
        if self.capable(c, Cap::Setgid) {
            let mut t = self.task_mut(c.pid)?;
            let cred = Arc::make_mut(&mut t.cred);
            cred.rgid = target;
            cred.egid = target;
            cred.sgid = target;
            return Ok(());
        }
        let cred = &c.cred;
        if target != cred.rgid && target != cred.sgid {
            let msg = format!(
                "setgid: stock denied {} -> {} (no CAP_SETGID)",
                cred.rgid.0, target.0
            );
            self.emit_kernel_event(
                c.pid,
                "setgid",
                Hook::TaskSetgid,
                DecisionKind::Deny,
                Some(Errno::EPERM),
                AuditObject::GidTarget(target.0),
                msg,
            );
            return Err(Errno::EPERM);
        }
        if cred.egid != target {
            Arc::make_mut(&mut self.task_mut(c.pid)?.cred).egid = target;
        }
        Ok(())
    }

    /// `setgroups(2)` — requires CAP_SETGID.
    pub(crate) fn sys_setgroups(&self, c: &Caller, groups: &[Gid]) -> KResult<()> {
        if !self.capable(c, Cap::Setgid) {
            return Err(Errno::EPERM);
        }
        Arc::make_mut(&mut self.task_mut(c.pid)?.cred).groups = groups.to_vec();
        Ok(())
    }

    /// `getuid(2)`.
    pub(crate) fn sys_getuid(&self, c: &Caller) -> KResult<Uid> {
        Ok(c.cred.ruid)
    }

    /// `geteuid(2)`.
    pub(crate) fn sys_geteuid(&self, c: &Caller) -> KResult<Uid> {
        Ok(c.cred.euid)
    }

    /// `getgid(2)`.
    pub(crate) fn sys_getgid(&self, c: &Caller) -> KResult<Gid> {
        Ok(c.cred.rgid)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cred::Credentials;
    use crate::net::SimNet;
    use crate::task::Pid;

    fn boot() -> (Kernel, Pid, Pid) {
        let k = Kernel::new(SimNet::new());
        let root = k.spawn_init();
        let user = k.spawn_session(Credentials::user(Uid(1000), Gid(1000)), "/bin/sh");
        (k, root, user)
    }

    #[test]
    fn root_can_setuid_anywhere_and_drops_caps() {
        let (k, root, _) = boot();
        k.process(root).setuid(Uid(1000)).unwrap();
        {
            // Scoped: the guard must drop before the next sys_setuid call
            // re-locks the same task shard.
            let t = k.task(root).unwrap();
            let c = &t.cred;
            assert_eq!(c.ruid, Uid(1000));
            assert_eq!(c.euid, Uid(1000));
            assert_eq!(c.suid, Uid(1000));
            assert!(c.caps.is_empty());
        }
        // Once dropped, cannot regain.
        assert_eq!(k.process(root).setuid(Uid::ROOT).unwrap_err(), Errno::EPERM);
    }

    #[test]
    fn user_setuid_to_stranger_is_eperm() {
        let (k, _, user) = boot();
        assert_eq!(k.process(user).setuid(Uid(1001)).unwrap_err(), Errno::EPERM);
        assert_eq!(k.process(user).setuid(Uid::ROOT).unwrap_err(), Errno::EPERM);
    }

    #[test]
    fn user_setuid_to_self_ok() {
        let (k, _, user) = boot();
        k.process(user).setuid(Uid(1000)).unwrap();
        assert_eq!(k.process(user).geteuid().unwrap(), Uid(1000));
    }

    #[test]
    fn seteuid_among_held_ids() {
        let (k, _, user) = boot();
        // Simulate a setuid-nonroot binary: euid 38, ruid 1000, suid 38.
        {
            let mut t = k.task_mut(user).unwrap();
            let cred = Arc::make_mut(&mut t.cred);
            cred.euid = Uid(38);
            cred.suid = Uid(38);
            cred.fsuid = Uid(38);
        }
        // Temporarily drop to the real uid...
        k.process(user).seteuid(Uid(1000)).unwrap();
        assert_eq!(k.process(user).geteuid().unwrap(), Uid(1000));
        // ...and regain the saved uid.
        k.process(user).seteuid(Uid(38)).unwrap();
        assert_eq!(k.process(user).geteuid().unwrap(), Uid(38));
        // But never an unrelated uid.
        assert_eq!(k.process(user).seteuid(Uid(7)).unwrap_err(), Errno::EPERM);
    }

    #[test]
    fn setgid_stock_semantics() {
        let (k, root, user) = boot();
        k.process(root).setgid(Gid(1000)).unwrap();
        assert_eq!(k.task(root).unwrap().cred.egid, Gid(1000));
        assert_eq!(k.process(user).setgid(Gid(24)).unwrap_err(), Errno::EPERM);
        k.process(user).setgid(Gid(1000)).unwrap();
    }

    #[test]
    fn setgroups_requires_cap() {
        let (k, root, user) = boot();
        k.process(root).setgroups(&[Gid(0), Gid(24)]).unwrap();
        assert_eq!(
            k.process(user).setgroups(&[Gid(24)]).unwrap_err(),
            Errno::EPERM
        );
    }

    #[test]
    fn getters() {
        let (k, root, user) = boot();
        assert_eq!(k.process(root).getuid().unwrap(), Uid::ROOT);
        assert_eq!(k.process(user).getuid().unwrap(), Uid(1000));
        assert_eq!(k.process(user).getgid().unwrap(), Gid(1000));
    }
}
