//! Property tests over the name interner and its dcache integration:
//! intern/resolve round-trips, one-symbol-per-name under concurrent
//! interning, and stale-hit freedom of the interned-key dcache.

use proptest::prelude::*;
use sim_kernel::cred::{Gid, Uid};
use sim_kernel::vfs::{Create, Mode, Name, Vfs};
use std::collections::HashMap;

proptest! {
    /// Interning is idempotent and resolves back to the exact string:
    /// for any batch of names, `intern` twice yields the same symbol and
    /// `as_str` returns the original text; distinct strings in the batch
    /// get distinct symbols.
    #[test]
    fn intern_resolve_round_trip(
        names in prop::collection::vec("[a-z0-9_.-]{1,24}", 1..32),
    ) {
        let mut by_text: HashMap<String, Name> = HashMap::new();
        for n in &names {
            let sym = Name::intern(n);
            prop_assert_eq!(sym.as_str(), n.as_str());
            prop_assert_eq!(Name::intern(n), sym);
            prop_assert_eq!(Name::lookup(n), Some(sym));
            if let Some(prev) = by_text.insert(n.clone(), sym) {
                prop_assert_eq!(prev, sym);
            }
        }
        // Distinct texts never alias to one symbol.
        let mut by_sym: HashMap<Name, String> = HashMap::new();
        for (text, sym) in by_text {
            if let Some(other) = by_sym.insert(sym, text.clone()) {
                prop_assert_eq!(other, text);
            }
        }
    }

    /// Eight threads interning the same name set concurrently agree on
    /// one symbol per distinct name — no stripe ever hands out two ids
    /// for one string, whatever the interleaving.
    #[test]
    fn concurrent_interning_yields_one_symbol_per_name(
        seed in 0u64..1_000_000,
        count in 1usize..48,
    ) {
        let names: Vec<String> = (0..count)
            .map(|i| format!("ct-{}-{}", seed, i))
            .collect();
        let handles: Vec<_> = (0..8)
            .map(|t| {
                let names = names.clone();
                std::thread::spawn(move || {
                    // Each thread walks the set in a different rotation so
                    // first-intern races land on every name.
                    let n = names.len();
                    (0..n)
                        .map(|i| {
                            let name = &names[(i + t * 7) % n];
                            (name.clone(), Name::intern(name))
                        })
                        .collect::<HashMap<String, Name>>()
                })
            })
            .collect();
        let maps: Vec<HashMap<String, Name>> =
            handles.into_iter().map(|h| h.join().unwrap()).collect();
        for name in &names {
            let first = maps[0][name];
            prop_assert_eq!(first.as_str(), name.as_str());
            for m in &maps {
                prop_assert_eq!(m[name], first);
            }
        }
    }

    /// Arbitrary create/unlink/rename sequences in one directory never
    /// produce a stale dcache hit: every resolve agrees
    /// with a shadow model of the namespace, and re-resolving a path
    /// right after a mutation sees the mutation.
    #[test]
    fn dcache_stays_stale_hit_free_under_file_churn(
        ops in prop::collection::vec((0u8..3, 0u8..5, 0u8..5), 0..60),
    ) {
        let v = Vfs::new();
        let dir = v.mkdir_p("/w").unwrap();
        // name index -> inode currently at /w/f<i>, per the model.
        let mut model: HashMap<u8, sim_kernel::vfs::Ino> = HashMap::new();
        let name = |i: u8| format!("f{}", i);
        let path = |i: u8| format!("/w/f{}", i);
        for (op, a, b) in ops {
            match op {
                // create (non-exclusive: no-op when present)
                0 => {
                    if let Ok(ino) =
                        v.create_file(dir, &name(a), Mode(0o644), Uid::ROOT, Gid::ROOT, Create::New)
                    {
                        model.insert(a, ino);
                    }
                }
                // unlink
                1 => {
                    if v.unlink(dir, &name(a)).is_ok() {
                        model.remove(&a);
                    }
                }
                // rename a -> b within /w
                _ => {
                    if v.rename(dir, &name(a), dir, &name(b)).is_ok() {
                        if let Some(ino) = model.remove(&a) {
                            model.insert(b, ino);
                        }
                    }
                }
            }
            // Every probe must match the model exactly — a stale dcache
            // hit would resurface a removed or renamed-away entry.
            for i in 0..5u8 {
                match model.get(&i) {
                    Some(&ino) => {
                        prop_assert_eq!(v.resolve(v.root(), &path(i)).unwrap().ino, ino);
                    }
                    None => {
                        prop_assert!(v.resolve(v.root(), &path(i)).is_err());
                    }
                }
            }
        }
    }
}
