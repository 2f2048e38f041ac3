//! Global path-component interner.
//!
//! Every directory-entry name and policy-rule literal in the
//! simulator flows through here exactly once; afterwards it is a [`Name`]
//! — a `Copy` 4-byte symbol that compares, hashes, and orders as an
//! integer. Resolving a symbol back to its text is an O(1) indexed read
//! returning `&'static str` (interned strings are leaked; the table only
//! ever grows, which is the standard process-lifetime interner trade-off
//! and is documented in DESIGN.md §14).
//!
//! Layout: insertions are striped across `NSTRIPES` `RwLock`ed hash
//! maps selected by the name's hash, so concurrent interning from many
//! worker threads contends only when two threads race on names in the
//! same stripe. The resolve-back table is a separate `RwLock<Vec>`;
//! stripe → table is the only compound acquisition (on the insert miss
//! path) and both are leaf locks with respect to the VFS hierarchy in
//! DESIGN.md §13, so no cycle is possible.
//!
//! The fast path (`Name::lookup`, used by the path walk and the glob
//! literal matcher) takes one shared stripe lock and allocates nothing.
//! A probe miss is authoritative: a string that was never interned cannot
//! equal any interned name, so callers may treat `lookup() == None` as
//! "not equal to any symbol" without a string-compare fallback.

use crate::sync::{self, Shard, Sharded};
use crate::trace::{span, CacheStats, Pathway};
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{OnceLock, RwLock};

/// Number of insert stripes. Power of two so stripe selection is a mask.
const NSTRIPES: usize = 16;

/// An interned path component (or other short kernel string).
///
/// `Name`s are process-global: the same text always yields the same
/// symbol, so equality, hashing, and `Ord` are integer operations. The
/// ordering is **insertion order, not lexicographic** — callers that
/// present names to userland sorted (e.g. `readdir`) must resolve and
/// sort the strings.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Name(u32);

impl Name {
    /// Interns `s`, returning its symbol (allocates only on first sight).
    pub fn intern(s: &str) -> Name {
        interner().intern(s)
    }

    /// Probes for an existing symbol without inserting. `None` means `s`
    /// was never interned — and therefore equals no interned name.
    pub fn lookup(s: &str) -> Option<Name> {
        interner().lookup(s)
    }

    /// The interned text. O(1): one shared lock and an indexed read.
    pub fn as_str(self) -> &'static str {
        interner().resolve(self.0)
    }
}

impl std::fmt::Display for Name {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Hit/miss counters for the interner, in the same [`CacheStats`] shape
/// the dcache and LSM lookup caches report through `/proc/<lsm>/metrics`.
/// A "hit" is an intern or probe that found an existing symbol; a "miss"
/// is a fresh insertion or a failed probe. Invalidations are structurally
/// impossible (symbols are immortal) and stay 0. Hits are summed over
/// every thread's shard.
pub fn stats() -> CacheStats {
    let i = interner();
    let mut hits = 0;
    i.hits.for_each(|h| hits += h.0.load(Ordering::Relaxed));
    CacheStats {
        hits,
        misses: i.misses.load(Ordering::Relaxed),
        invalidations: 0,
    }
}

struct Interner {
    stripes: [RwLock<HashMap<&'static str, u32>>; NSTRIPES],
    names: RwLock<Vec<&'static str>>,
    /// Hits, counted per thread: every path probe hits, so one shared
    /// counter would be a cache line all workers write.
    hits: Sharded<Hits>,
    misses: AtomicU64,
}

/// One thread's hit count. Only the owning thread writes it (or, on the
/// fallback path of [`Sharded::with`], writers serialized by the retired
/// total's lock), so a plain load and store suffice.
#[derive(Default)]
struct Hits(AtomicU64);

impl Shard for Hits {
    fn fold_into(&self, total: &mut Hits) {
        *total.0.get_mut() += self.0.load(Ordering::Relaxed);
    }
}

fn interner() -> &'static Interner {
    static GLOBAL: OnceLock<Interner> = OnceLock::new();
    GLOBAL.get_or_init(|| Interner {
        stripes: std::array::from_fn(|_| RwLock::new(HashMap::new())),
        names: RwLock::new(Vec::new()),
        hits: Sharded::default(),
        misses: AtomicU64::new(0),
    })
}

fn stripe_of(s: &str) -> usize {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    s.hash(&mut h);
    (h.finish() as usize) & (NSTRIPES - 1)
}

impl Interner {
    fn hit(&self) {
        self.hits.with(|h| {
            h.0.store(h.0.load(Ordering::Relaxed) + 1, Ordering::Relaxed)
        });
    }

    fn intern(&self, s: &str) -> Name {
        let stripe = &self.stripes[stripe_of(s)];
        if let Some(&id) = sync::read(stripe).get(s) {
            self.hit();
            return Name(id);
        }
        // Miss path: leak the text, append to the resolve-back table,
        // publish in the stripe. Lock order: stripe, then names.
        let _span = span(Pathway::Intern);
        let mut map = sync::write(stripe);
        if let Some(&id) = map.get(s) {
            // Another thread inserted between our probe and the write lock.
            self.hit();
            return Name(id);
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let leaked: &'static str = Box::leak(s.to_owned().into_boxed_str());
        let mut names = sync::write(&self.names);
        let id = u32::try_from(names.len()).expect("interner symbol space exhausted");
        names.push(leaked);
        drop(names);
        map.insert(leaked, id);
        Name(id)
    }

    fn lookup(&self, s: &str) -> Option<Name> {
        let found = sync::read(&self.stripes[stripe_of(s)]).get(s).copied();
        match found {
            Some(id) => {
                self.hit();
                Some(Name(id))
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    fn resolve(&self, id: u32) -> &'static str {
        sync::read(&self.names)[id as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent_and_resolves_back() {
        let a = Name::intern("passwd");
        let b = Name::intern("passwd");
        assert_eq!(a, b);
        assert_eq!(a.as_str(), "passwd");
        assert_eq!(format!("{a}"), "passwd");
    }

    #[test]
    fn distinct_names_get_distinct_symbols() {
        let a = Name::intern("intern-test-alpha");
        let b = Name::intern("intern-test-beta");
        assert_ne!(a, b);
        assert_eq!(a.as_str(), "intern-test-alpha");
        assert_eq!(b.as_str(), "intern-test-beta");
    }

    #[test]
    fn lookup_probes_without_inserting() {
        assert_eq!(Name::lookup("intern-test-never-inserted-xyzzy"), None);
        let n = Name::intern("intern-test-probe");
        assert_eq!(Name::lookup("intern-test-probe"), Some(n));
    }

    #[test]
    fn stats_count_hits_and_misses() {
        let before = stats();
        Name::intern("intern-test-stats-fresh-1");
        Name::intern("intern-test-stats-fresh-1");
        let after = stats();
        assert!(after.misses > before.misses, "fresh insert counts a miss");
        assert!(after.hits > before.hits, "re-intern counts a hit");
        assert_eq!(after.invalidations, 0);
    }
}
