//! Seeded input generation. Every input the program sees — the admin
//! site policy, the op order, mail recipients and bodies, the served
//! page — is derived here from the `--seed` argument, so the same seed
//! always yields the same inputs.

/// SplitMix64: small, fast, and good enough to shuffle workload inputs.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`; `stream` separates independent draws
    /// (e.g. one per shared worker) made from one seed.
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0xd1b5_4a32_d192_ed03))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// `len` lowercase alphanumerics.
    pub fn token(&mut self, len: usize) -> String {
        const ALPHABET: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789";
        (0..len)
            .map(|_| ALPHABET[self.below(ALPHABET.len())] as char)
            .collect()
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }

    /// `rounds` seeded permutations of `items`, concatenated: the order
    /// is random but every round holds each item once, so the mix — and
    /// with it the cost of a run — is the same for every seed.
    pub fn rounds<T: Clone>(&mut self, items: &[T], rounds: usize) -> Vec<T> {
        let mut out = Vec::with_capacity(items.len() * rounds);
        for _ in 0..rounds {
            let mut round = items.to_vec();
            self.shuffle(&mut round);
            out.extend(round);
        }
        out
    }
}

/// Length of the cyclic op plan each workload replays. Long enough that
/// no pattern repeats within a drain window, short enough to build
/// before boot in well under a millisecond.
pub const PLAN_LEN: usize = 4096;

/// Mail recipients of a `mail` client, as in the repo's mail drivers
/// (`bench::profile`, `bench::macro_fleet`), which alternate two.
pub const MAIL_RCPTS: usize = 2;

/// Length of every mail body: that of the same drivers' fixed body, so
/// the spools grow as they did where the mail traffic was profiled.
const BODY_LEN: usize = 12;

/// One generated delivery: the recipient index and the message body.
#[derive(Clone, Debug)]
pub struct Delivery {
    /// Index into the client's recipient list.
    pub rcpt: usize,
    /// Message body.
    pub body: String,
}

/// A client's mail inputs: recipient names and a cyclic delivery plan.
#[derive(Clone, Debug)]
pub struct MailPlan {
    /// Spool names (one `/var/mail/<name>` each).
    pub rcpts: Vec<String>,
    /// Deliveries, replayed cyclically.
    pub deliveries: Vec<Delivery>,
    /// The order the drain visits the spools in.
    pub drain_order: Vec<usize>,
}

impl MailPlan {
    /// Generates `n_rcpts` recipients named `<prefix><token>` and `len`
    /// deliveries with fixed-length random bodies, spread evenly over
    /// the recipients in seeded order.
    pub fn generate(rng: &mut Rng, prefix: &str, n_rcpts: usize, len: usize) -> MailPlan {
        let rcpts = (0..n_rcpts)
            .map(|_| format!("{}{}", prefix, rng.token(6)))
            .collect();
        let indices: Vec<usize> = (0..n_rcpts).collect();
        let deliveries = rng
            .rounds(&indices, len.div_ceil(n_rcpts))
            .into_iter()
            .take(len)
            .map(|rcpt| Delivery {
                rcpt,
                body: rng.token(BODY_LEN),
            })
            .collect();
        let mut drain_order: Vec<usize> = (0..n_rcpts).collect();
        rng.shuffle(&mut drain_order);
        MailPlan {
            rcpts,
            deliveries,
            drain_order,
        }
    }
}

/// The served page: a fixed-size HTML document with a random token, so
/// the benchmark can check the exact reply body.
pub fn web_page(rng: &mut Rng) -> String {
    format!(
        "<html><body><p>{}</p></body></html>",
        (0..8).map(|_| rng.token(32)).collect::<Vec<_>>().join(" ")
    )
}

/// Size of the generated site policy: fstab entries, and sudoers rules.
/// Fixed, so the cost of a policy scan does not depend on the seed.
pub const SITE_RULES: usize = 1000;

/// The image's real entries sit among the last this many lines.
const REAL_ENTRY_SPREAD: usize = 16;

/// A generated site-sized admin policy.
#[derive(Clone, Debug)]
pub struct SitePolicy {
    /// Full `/etc/fstab` text.
    pub fstab: String,
    /// Full `/etc/sudoers` text.
    pub sudoers: String,
    /// Number of fstab entries.
    pub fstab_entries: usize,
    /// Number of sudoers rules.
    pub sudoers_rules: usize,
}

/// Generates a site policy of [`SITE_RULES`] fstab entries and as many
/// sudoers rules. The image's real entries (the user-mountable cdrom and
/// usb lines, the `%admin` rule the workload's sudo steps rely on) sit at
/// seeded places among the last few lines of each file, so every lookup
/// that matches them scans nearly the whole policy.
pub fn site_policy(rng: &mut Rng) -> SitePolicy {
    let n_fstab = SITE_RULES;
    let fs_types = ["ext4", "vfat", "iso9660", "nfs", "fuse"];
    let mut fstab_lines: Vec<String> = (0..n_fstab - 2)
        .map(|i| {
            let kind = fs_types[rng.below(fs_types.len())];
            let opts = if rng.below(2) == 0 {
                "rw,user,noauto"
            } else {
                "ro,users,noauto"
            };
            format!(
                "/dev/site{}{} /srv/site/{}{} {} {} 0 0",
                i,
                rng.token(3),
                i,
                rng.token(4),
                kind,
                opts
            )
        })
        .collect();
    for real in [
        "/dev/cdrom /mnt/cdrom iso9660 ro,user,noauto 0 0",
        "/dev/sdb1 /media/usb vfat rw,users,noauto 0 0",
    ] {
        let at = fstab_lines.len() - rng.below(REAL_ENTRY_SPREAD);
        fstab_lines.insert(at, real.to_string());
    }
    let fstab = format!(
        "/dev/sda1 / ext4 errors=remount-ro 0 1\n{}\n",
        fstab_lines.join("\n")
    );

    let n_sudo = SITE_RULES;
    // No generated rule names alice, carol or their groups: the refused
    // sudo step needs alice to hold no rule, and the kernel applies the
    // first rule matching (user, target), so a generated carol rule
    // would shadow the `%admin` one her sudo steps use.
    let subjects = ["bob", "%mail", "%www-data"];
    let runas = ["root", "alice", "bob", "mail"];
    let mut sudo_lines: Vec<String> = (0..n_sudo - 1)
        .map(|i| {
            format!(
                "{} ALL=({}) /usr/local/bin/site{}-{}",
                subjects[rng.below(subjects.len())],
                runas[rng.below(runas.len())],
                i,
                rng.token(5)
            )
        })
        .collect();
    let at = sudo_lines.len() - rng.below(REAL_ENTRY_SPREAD);
    sudo_lines.insert(at, "%admin ALL=(ALL) ALL".to_string());
    let sudoers = format!(
        "Defaults env_keep += \"LANG\"\nroot ALL=(ALL) ALL\n{}\n",
        sudo_lines.join("\n")
    );
    SitePolicy {
        fstab,
        sudoers,
        fstab_entries: n_fstab,
        sudoers_rules: n_sudo,
    }
}

/// One step of the admin mix: a deprivileged utility run from a user
/// session through the shell's fork/exec/wait cycle.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AdminStep {
    /// alice mounts the fstab-whitelisted cdrom (full device, target,
    /// type and options on the command line).
    MountCdrom,
    /// alice unmounts it again.
    UmountCdrom,
    /// bob mounts the `users` usb stick (full form, as for the cdrom).
    MountUsb,
    /// bob unmounts it again.
    UmountUsb,
    /// carol runs `sudo id` outside the authentication-recency window
    /// (the step first moves the clock past it) and types her password.
    SudoStale,
    /// carol runs `sudo id` again inside the window: no prompt.
    SudoRecent,
    /// alice, not in sudoers, is refused.
    SudoDenied,
    /// alice pings the gateway over a raw socket.
    Ping,
}

/// The utility each step prices (`userland.run_ns.<kind>`); the
/// discriminant indexes per-kind tables.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RunKind {
    /// `/bin/mount`.
    Mount,
    /// `/bin/umount`.
    Umount,
    /// `/usr/bin/sudo`.
    Sudo,
    /// `/bin/ping`.
    Ping,
}

impl RunKind {
    /// Every kind, in report order.
    pub const ALL: [RunKind; 4] = [
        RunKind::Mount,
        RunKind::Umount,
        RunKind::Sudo,
        RunKind::Ping,
    ];

    /// Metric-name suffix.
    pub fn name(self) -> &'static str {
        match self {
            RunKind::Mount => "mount",
            RunKind::Umount => "umount",
            RunKind::Sudo => "sudo",
            RunKind::Ping => "ping",
        }
    }
}

impl AdminStep {
    /// The exit code the step must return on the Protego image.
    pub fn expected_code(self) -> i32 {
        match self {
            AdminStep::SudoDenied => 1,
            _ => 0,
        }
    }

    /// Which utility the step runs.
    pub fn kind(self) -> RunKind {
        match self {
            AdminStep::MountCdrom | AdminStep::MountUsb => RunKind::Mount,
            AdminStep::UmountCdrom | AdminStep::UmountUsb => RunKind::Umount,
            AdminStep::SudoStale | AdminStep::SudoRecent | AdminStep::SudoDenied => RunKind::Sudo,
            AdminStep::Ping => RunKind::Ping,
        }
    }
}

/// The admin op plan: rounds of self-contained units (a mount and its
/// umount, a stale sudo and its in-window repeat, a refused sudo, a
/// ping), each round in seeded order, so every step's expected exit code
/// holds wherever it lands.
pub fn admin_plan(rng: &mut Rng) -> Vec<AdminStep> {
    const UNITS: [&[AdminStep]; 5] = [
        &[AdminStep::MountCdrom, AdminStep::UmountCdrom],
        &[AdminStep::MountUsb, AdminStep::UmountUsb],
        &[AdminStep::SudoStale, AdminStep::SudoRecent],
        &[AdminStep::SudoDenied],
        &[AdminStep::Ping, AdminStep::Ping],
    ];
    let round_len: usize = UNITS.iter().map(|u| u.len()).sum();
    rng.rounds(&UNITS, PLAN_LEN / round_len)
        .into_iter()
        .flatten()
        .copied()
        .collect()
}

/// One shared-worker op.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SharedOp {
    /// A web request against the worker's httpd.
    Web,
    /// A delivery (the index into the worker's mail plan).
    Mail(usize),
}

/// A shared worker's op plan: two web requests to each mail delivery,
/// in seeded order. With the two kinds half and half the median op would
/// sit on the boundary between their latency clusters and jump between
/// them from run to run; at two to one it lies inside the web cluster.
pub fn shared_plan(rng: &mut Rng) -> Vec<SharedOp> {
    let mut next_mail = 0;
    rng.rounds(&[false, false, true], PLAN_LEN / 3)
        .into_iter()
        .map(|mail| {
            if mail {
                next_mail += 1;
                SharedOp::Mail(next_mail - 1)
            } else {
                SharedOp::Web
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        let a = site_policy(&mut Rng::new(7, 0));
        let b = site_policy(&mut Rng::new(7, 0));
        assert_eq!(a.fstab, b.fstab);
        assert_eq!(a.sudoers, b.sudoers);
        let c = site_policy(&mut Rng::new(8, 0));
        assert_ne!(a.fstab, c.fstab);
    }

    #[test]
    fn site_policy_has_real_entries_and_sizes() {
        let p = site_policy(&mut Rng::new(1, 0));
        assert_eq!(p.fstab_entries, SITE_RULES);
        assert_eq!(p.fstab.lines().count(), p.fstab_entries + 1);
        assert!(p.fstab.contains("/dev/cdrom /mnt/cdrom"));
        assert!(p.sudoers.contains("%admin ALL=(ALL) ALL"));
        assert_eq!(p.sudoers.lines().count(), p.sudoers_rules + 2);
    }

    #[test]
    fn rounds_keep_the_mix_fixed() {
        let r = Rng::new(5, 0).rounds(&[1, 2, 3], 4);
        assert_eq!(r.len(), 12);
        for round in r.chunks(3) {
            let mut v = round.to_vec();
            v.sort();
            assert_eq!(v, [1, 2, 3]);
        }
        assert_ne!(r, Rng::new(6, 0).rounds(&[1, 2, 3], 4));
    }

    #[test]
    fn admin_plan_pairs_mounts() {
        let plan = admin_plan(&mut Rng::new(3, 0));
        let mut mounted = false;
        for s in plan {
            match s {
                AdminStep::MountCdrom => {
                    assert!(!mounted);
                    mounted = true
                }
                AdminStep::UmountCdrom => {
                    assert!(mounted);
                    mounted = false
                }
                _ => assert!(!mounted),
            }
        }
    }
}
