//! The four workloads: set-up (boot, seeded policy install, service
//! start, logins, warm-up) and one closed-loop op at a time, each op's
//! output checked.

use crate::gen::{self, AdminStep, MailPlan, Rng, RunKind, SharedOp, SitePolicy};
use bench::json::Value;
use sim_kernel::net::{Domain, Ipv4, SockType};
use sim_kernel::seccomp::SeccompMode;
use sim_kernel::trace::span;
use sim_kernel::vfs::Mode;
use sim_kernel::Pid;
use userland::bins::mail::HTTPD_DOCROOT_INDEX;
use userland::workload::{self, Service};
use userland::{boot, System, SystemMode};

/// The committed per-binary syscall allowlists, enforced on `admin`.
const SECCOMP_PROFILES: &str = include_str!("../../SECCOMP_PROFILES.json");

/// Shared-kernel workers: one per core of the reference host.
pub const SHARED_WORKERS: usize = 2;

/// Deliveries per client between two drains of its spools: the cadence
/// of the repo's mail drivers (`bench::profile`, `bench::macro_fleet`).
pub const DRAIN_EVERY: usize = 256;

/// A workload name from the command line.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// One client, `web_request` against httpd.
    Web,
    /// One client, Postal-style `mail_delivery` with atomic replace.
    Mail,
    /// Deprivileged utilities through `System::run` under a site policy.
    Admin,
    /// Two workers on one shared kernel, mixed web and mail.
    Shared,
}

impl Workload {
    /// Parses a `--workload` value.
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "web" => Some(Workload::Web),
            "mail" => Some(Workload::Mail),
            "admin" => Some(Workload::Admin),
            "shared" => Some(Workload::Shared),
            _ => None,
        }
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Web => "web",
            Workload::Mail => "mail",
            Workload::Admin => "admin",
            Workload::Shared => "shared",
        }
    }

    /// Warm-up ops each client runs during set-up.
    fn warmup_ops(self) -> usize {
        match self {
            Workload::Web => 4000,
            Workload::Mail => 2048,
            Workload::Admin => 800,
            Workload::Shared => 2048,
        }
    }
}

/// What one client replays.
#[derive(Clone, Debug)]
pub enum Plan {
    /// Web requests only.
    Web,
    /// Deliveries only.
    Mail(MailPlan),
    /// Admin steps.
    Admin(Vec<AdminStep>),
    /// A web/mail mix over the client's own services.
    Mixed(Vec<SharedOp>, MailPlan),
}

/// Every input of one run, generated from the seed before boot.
#[derive(Clone, Debug)]
pub struct Inputs {
    /// The docroot page httpd serves.
    pub page: String,
    /// One plan per client (one client, or one per shared worker).
    pub plans: Vec<Plan>,
    /// The admin site policy.
    pub site: Option<SitePolicy>,
}

impl Inputs {
    /// Generates the inputs of `wl` for `seed`.
    pub fn generate(wl: Workload, seed: u64) -> Inputs {
        let mut rng = Rng::new(seed, 0);
        let page = gen::web_page(&mut rng);
        let (plans, site) = match wl {
            Workload::Web => (vec![Plan::Web], None),
            Workload::Mail => (
                vec![Plan::Mail(MailPlan::generate(
                    &mut rng,
                    "u",
                    gen::MAIL_RCPTS,
                    gen::PLAN_LEN,
                ))],
                None,
            ),
            Workload::Admin => {
                let site = gen::site_policy(&mut rng);
                (vec![Plan::Admin(gen::admin_plan(&mut rng))], Some(site))
            }
            Workload::Shared => {
                let plans = (0..SHARED_WORKERS)
                    .map(|w| {
                        let mut r = Rng::new(seed, 1 + w as u64);
                        let ops = gen::shared_plan(&mut r);
                        // One spool per worker, as in `bench::macro_fleet`.
                        let mail =
                            MailPlan::generate(&mut r, &format!("w{}r", w), 1, ops.len() / 3);
                        Plan::Mixed(ops, mail)
                    })
                    .collect();
                (plans, None)
            }
        };
        Inputs { page, plans, site }
    }

    /// The generated sizes, recorded with the result.
    pub fn describe(&self) -> Value {
        let mut out = vec![
            ("clients".to_string(), Value::Num(self.plans.len() as f64)),
            ("plan_len".to_string(), Value::Num(gen::PLAN_LEN as f64)),
            ("page_bytes".to_string(), Value::Num(self.page.len() as f64)),
        ];
        if let Some(site) = &self.site {
            out.push((
                "fstab_entries".into(),
                Value::Num(site.fstab_entries as f64),
            ));
            out.push((
                "sudoers_rules".into(),
                Value::Num(site.sudoers_rules as f64),
            ));
        }
        Value::Obj(out)
    }
}

/// The admin workload's login sessions.
#[derive(Clone, Copy, Debug)]
struct AdminSessions {
    alice: Pid,
    bob: Pid,
    carol: Pid,
}

/// One closed-loop client: a system (or a worker's view of a shared
/// one), its services and sessions, and its position in its plan.
pub struct Client {
    /// The system the client drives.
    pub sys: System,
    plan: Plan,
    web: Option<Service>,
    mail: Option<Service>,
    /// The client's login session (alice's on `admin`).
    pub user: Pid,
    admin: Option<AdminSessions>,
    page: String,
    cursor: usize,
    delivered: usize,
    /// Expected content of each spool since its last drain.
    expected: Vec<String>,
    /// Failures found by the between-op checks.
    pub check_failures: u64,
    /// The first few failure descriptions.
    pub errors: Vec<String>,
}

/// How many failure descriptions a client keeps.
const MAX_ERRORS: usize = 8;

/// Prefixes an error with what failed.
fn err<E: std::fmt::Display>(what: &'static str) -> impl Fn(E) -> String {
    move |e| format!("{}: {}", what, e)
}

/// Starts one client's services and sessions on `sys` (which is already
/// booted and configured) and warms it up.
fn start_client(
    mut sys: System,
    plan: Plan,
    wl: Workload,
    worker: usize,
    page: &str,
) -> Result<Client, String> {
    let (web, mail) = match &plan {
        Plan::Web => (
            Some(workload::start_web_service(&mut sys).map_err(err("httpd start"))?),
            None,
        ),
        Plan::Mail(_) => (
            None,
            Some(workload::start_mail_service(&mut sys).map_err(err("exim4 start"))?),
        ),
        Plan::Admin(_) => (None, None),
        Plan::Mixed(..) => (
            Some(workload::start_shared_web_service(&mut sys, worker).map_err(err("httpd start"))?),
            Some(
                workload::start_shared_mail_service(&mut sys, worker)
                    .map_err(err("exim4 start"))?,
            ),
        ),
    };
    let admin = match &plan {
        Plan::Admin(_) => Some(AdminSessions {
            alice: sys.login("alice", "alicepw").map_err(err("login alice"))?,
            bob: sys.login("bob", "bobpw").map_err(err("login bob"))?,
            carol: sys.login("carol", "carolpw").map_err(err("login carol"))?,
        }),
        _ => None,
    };
    let user = match admin {
        Some(a) => a.alice,
        None => workload::client_session(&mut sys).map_err(err("client login"))?,
    };
    let rcpts = match &plan {
        Plan::Mail(m) | Plan::Mixed(_, m) => m.rcpts.len(),
        _ => 0,
    };
    let mut client = Client {
        sys,
        plan,
        web,
        mail,
        user,
        admin,
        page: page.to_string(),
        cursor: 0,
        delivered: 0,
        expected: vec![String::new(); rcpts],
        check_failures: 0,
        errors: Vec::new(),
    };
    if let Some(srv) = client.web {
        client.check_page(srv)?;
    }
    for _ in 0..wl.warmup_ops() {
        client.op()?;
        client.between_ops();
    }
    client.drain();
    client.take_failures()?;
    Ok(client)
}

/// Boots the Protego image and installs the workload's seeded
/// configuration through the admin path.
fn boot_configured(inputs: &Inputs) -> Result<System, String> {
    let mut sys = boot(SystemMode::Protego);
    let init = sys.init_pid();
    sys.process(init)
        .write_file(HTTPD_DOCROOT_INDEX, inputs.page.as_bytes(), Mode(0o644))
        .map_err(|e| format!("docroot install: {}", e))?;
    if let Some(site) = &inputs.site {
        let root = sys
            .login("root", "rootpw")
            .map_err(|e| format!("root login: {}", e))?;
        sys.process(root)
            .write_file("/etc/fstab", site.fstab.as_bytes(), Mode(0o644))
            .map_err(|e| format!("fstab install: {}", e))?;
        sys.process(root)
            .write_file("/etc/sudoers", site.sudoers.as_bytes(), Mode(0o440))
            .map_err(|e| format!("sudoers install: {}", e))?;
        match sys.sync_policies() {
            Ok(true) => {}
            Ok(false) => return Err("policy sync pushed nothing".into()),
            Err(e) => return Err(format!("policy sync: {}", e)),
        }
        let specs = bench::seccomp_derive::parse_profiles(SECCOMP_PROFILES)?;
        sys.kernel.seccomp.load_profiles(&specs)?;
        sys.kernel.seccomp.set_mode(SeccompMode::Enforce);
        sys.attach_seccomp();
    }
    Ok(sys)
}

/// Full set-up of `wl`: boot, policy install, service start, logins and
/// warm-up of every client. Returns one client per plan; shared clients
/// are views onto one kernel.
pub fn setup(wl: Workload, inputs: &Inputs) -> Result<Vec<Client>, String> {
    let base = boot_configured(inputs)?;
    if wl != Workload::Shared {
        let plan = inputs.plans[0].clone();
        return Ok(vec![start_client(base, plan, wl, 0, &inputs.page)?]);
    }
    let mut clients = Vec::with_capacity(inputs.plans.len());
    for (w, plan) in inputs.plans.iter().enumerate() {
        clients.push(start_client(
            base.worker_view(),
            plan.clone(),
            wl,
            w,
            &inputs.page,
        )?);
    }
    Ok(clients)
}

/// Runs `f` with span timing off, so between-op checks never land in
/// the traced registry.
fn untraced<T>(f: impl FnOnce() -> T) -> T {
    let was = span::enabled();
    span::set_enabled(false);
    let out = f();
    span::set_enabled(was);
    out
}

impl Client {
    /// Keeps the description of a failure, up to [`MAX_ERRORS`].
    pub fn note_error(&mut self, what: String) {
        if self.errors.len() < MAX_ERRORS {
            self.errors.push(what);
        }
    }

    fn fail(&mut self, what: String) {
        self.check_failures += 1;
        self.note_error(what);
    }

    /// Moves the failures found so far into an error.
    fn take_failures(&mut self) -> Result<(), String> {
        if self.check_failures == 0 {
            return Ok(());
        }
        Err(self.errors.join("; "))
    }

    /// Fetches the page with a client of the benchmark's own and checks
    /// the reply byte for byte.
    fn check_page(&mut self, srv: Service) -> Result<(), String> {
        let (sys, user) = (&mut self.sys, self.user);
        let reply = (|| {
            let fd = sys
                .process(user)
                .socket(Domain::Inet, SockType::Stream, 0)?;
            sys.process(user).connect(fd, Ipv4::LOOPBACK, srv.port)?;
            sys.process(user).send(fd, b"GET / HTTP/1.0\r\n\r\n")?;
            userland::bins::mail::httpd_serve_one(sys, srv.pid, srv.listen_fd)?;
            let r = sys.process(user).recv(fd, 65536)?;
            sys.process(user).close(fd)?;
            Ok::<_, sim_kernel::Errno>(r)
        })()
        .map_err(|e| format!("page fetch: {}", e))?;
        let want = format!(
            "HTTP/1.0 200 OK\r\nContent-Length: {}\r\n\r\n{}",
            self.page.len(),
            self.page
        );
        if reply != want.as_bytes() {
            return Err(format!(
                "page reply differs: {:?}",
                String::from_utf8_lossy(&reply)
            ));
        }
        Ok(())
    }

    /// Runs the next op of the plan. `Ok(kind)` names the utility an
    /// admin step ran; `Err` describes a failed or incorrect op.
    pub fn op(&mut self) -> Result<Option<RunKind>, String> {
        let i = self.cursor % self.plan_len();
        self.cursor += 1;
        match &self.plan {
            Plan::Web => self.web_op().map(|_| None),
            Plan::Mail(_) => self.mail_op(i).map(|_| None),
            Plan::Admin(steps) => {
                let step = steps[i];
                self.admin_op(step).map(|_| Some(step.kind()))
            }
            Plan::Mixed(ops, _) => match ops[i] {
                SharedOp::Web => self.web_op().map(|_| None),
                SharedOp::Mail(k) => self.mail_op(k).map(|_| None),
            },
        }
    }

    fn plan_len(&self) -> usize {
        match &self.plan {
            Plan::Admin(steps) => steps.len(),
            Plan::Mixed(ops, _) => ops.len(),
            _ => gen::PLAN_LEN,
        }
    }

    fn web_op(&mut self) -> Result<(), String> {
        let srv = self.web.expect("web plans start httpd");
        workload::web_request(&mut self.sys, self.user, srv).map_err(|e| {
            workload::drain_backlog(&mut self.sys, srv);
            format!("web request: {}", e)
        })
    }

    fn mail_op(&mut self, k: usize) -> Result<(), String> {
        let srv = self.mail.expect("mail plans start exim4");
        let plan = match &self.plan {
            Plan::Mail(m) | Plan::Mixed(_, m) => m,
            _ => unreachable!("mail ops come from mail plans"),
        };
        let d = &plan.deliveries[k % plan.deliveries.len()];
        let rcpt = &plan.rcpts[d.rcpt];
        let r = workload::mail_delivery(&mut self.sys, self.user, srv, rcpt, &d.body);
        self.delivered += 1;
        match r {
            Ok(()) => {
                let spool = &mut self.expected[d.rcpt];
                spool.push_str("From MTA: to ");
                spool.push_str(rcpt);
                spool.push('\n');
                spool.push_str(&d.body);
                spool.push_str("\n\n");
                Ok(())
            }
            Err(e) => {
                workload::drain_backlog(&mut self.sys, srv);
                Err(format!("delivery to {}: {}", rcpt, e))
            }
        }
    }

    fn admin_op(&mut self, step: AdminStep) -> Result<(), String> {
        let s = self.admin.expect("admin plans log in their sessions");
        let (session, path, args, input, marker): (Pid, &str, &[&str], &[&str], &str) = match step {
            // The full form: the binary passes it straight to the
            // kernel, whose fstab whitelist makes the decision.
            AdminStep::MountCdrom => (
                s.alice,
                "/bin/mount",
                &["/dev/cdrom", "/mnt/cdrom", "iso9660", "ro"],
                &[],
                "mounted",
            ),
            AdminStep::UmountCdrom => (s.alice, "/bin/umount", &["/mnt/cdrom"], &[], "unmounted"),
            AdminStep::MountUsb => (
                s.bob,
                "/bin/mount",
                &["/dev/sdb1", "/media/usb", "vfat", "rw"],
                &[],
                "mounted",
            ),
            AdminStep::UmountUsb => (s.bob, "/bin/umount", &["/media/usb"], &[], "unmounted"),
            AdminStep::SudoStale => {
                self.sys.kernel.advance_clock(protego_core::AUTH_WINDOW + 1);
                (
                    s.carol,
                    "/usr/bin/sudo",
                    &["/bin/id"],
                    &["carolpw"],
                    "uid=0 euid=0",
                )
            }
            AdminStep::SudoRecent => (s.carol, "/usr/bin/sudo", &["/bin/id"], &[], "uid=0 euid=0"),
            AdminStep::SudoDenied => (
                s.alice,
                "/usr/bin/sudo",
                &["/bin/id"],
                &["alicepw"],
                "EPERM",
            ),
            AdminStep::Ping => (s.alice, "/bin/ping", &["10.0.0.1"], &[], "64 bytes from"),
        };
        let r = self
            .sys
            .run(session, path, args, input)
            .map_err(|e| format!("{:?}: {}", step, e))?;
        if r.code != step.expected_code() || !r.stdout.contains(marker) {
            return Err(format!(
                "{:?}: exit {} (want {}), output {:?}",
                step,
                r.code,
                step.expected_code(),
                r.stdout
            ));
        }
        Ok(())
    }

    /// Work between ops: every [`DRAIN_EVERY`] deliveries, check each
    /// spool holds exactly the messages delivered since the last drain,
    /// then drain them in the seeded order. Returns whether anything ran.
    pub fn between_ops(&mut self) -> bool {
        if self.delivered < DRAIN_EVERY {
            return false;
        }
        self.drain();
        true
    }

    /// Checks and drains every spool (a no-op for plans without mail).
    pub fn drain(&mut self) {
        let Some(srv) = self.mail else { return };
        let (rcpts, order) = match &self.plan {
            Plan::Mail(m) | Plan::Mixed(_, m) => (m.rcpts.clone(), m.drain_order.clone()),
            _ => return,
        };
        let init = self.sys.init_pid();
        for &r in &order {
            let path = format!("/var/mail/{}", rcpts[r]);
            let got = untraced(|| self.sys.kernel.read_to_string(init, &path));
            let ok = match got {
                Ok(text) => text == self.expected[r],
                Err(sim_kernel::Errno::ENOENT) => self.expected[r].is_empty(),
                Err(_) => false,
            };
            if !ok {
                self.fail(format!(
                    "spool {} does not hold the delivered messages",
                    path
                ));
            }
        }
        for &r in &order {
            workload::drain_spool(&mut self.sys, srv, &rcpts[r]);
            self.expected[r].clear();
        }
        self.delivered = 0;
    }

    /// End-of-run checks: the page still reads back exactly, spools are
    /// drained and verified, no escalation artifact exists, the VFS
    /// namespace invariants hold and (on `admin`) enforcement recorded
    /// no seccomp violation. Failures are counted and kept.
    pub fn finish(&mut self, check_namespace: bool) {
        untraced(|| {
            self.drain();
            if let Some(srv) = self.web {
                if let Err(e) = self.check_page(srv) {
                    self.fail(e);
                }
            }
            if check_namespace {
                for a in workload::privileged_artifacts(&mut self.sys) {
                    self.fail(format!("privileged artifact: {}", a));
                }
                for v in workload::vfs_namespace_violations(&self.sys) {
                    self.fail(format!("namespace violation: {}", v));
                }
                let violations = self.sys.kernel.seccomp.total_violations();
                if violations > 0 {
                    self.fail(format!("{} seccomp violations", violations));
                }
            }
        });
    }
}
