//! Small concurrency utilities shared by the kernel's interior-locked
//! subsystems.
//!
//! Everything here is built on `std::sync` only (the crate vendors no
//! locking dependencies). Two pieces live here:
//!
//! * poison-tolerant lock helpers ([`read`], [`write()`], [`lock`]) — a
//!   panicking worker thread must not wedge every other worker on a
//!   poisoned `std` lock, so all kernel subsystems acquire through these;
//! * [`Sharded`], the one per-thread-shard store behind the kernel's
//!   telemetry (metrics, audit staging, span timing): each thread writes
//!   its own shard without cross-thread contention, and readers on any
//!   thread visit every shard.

use std::any::Any;
use std::cell::RefCell;
use std::sync::{Arc, Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard, Weak};

/// Acquires a read lock, recovering the guard if the lock was poisoned
/// by a panicking thread.
pub fn read<T: ?Sized>(lock: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    lock.read().unwrap_or_else(|e| e.into_inner())
}

/// Acquires a write lock, recovering the guard if the lock was poisoned.
pub fn write<T: ?Sized>(lock: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    lock.write().unwrap_or_else(|e| e.into_inner())
}

/// Acquires a mutex, recovering the guard if the lock was poisoned.
pub fn lock<T: ?Sized>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// A value kept as one shard per thread in a [`Sharded`] store.
///
/// Shards are reached through `&self`, so the type carries its own
/// interior mutability: a `Mutex` for map-backed aggregates, or atomics
/// written by the owning thread alone where even an uncontended lock is
/// too dear (span timing).
pub trait Shard: Default + Send + Sync + 'static {
    /// Adds this shard's contents into `total`. Called once when the
    /// owning thread exits, so memory held for exited threads is one
    /// `Self`, not one per thread.
    fn fold_into(&self, total: &mut Self);
}

/// A per-thread-sharded value: each thread gets its own `T`, registered
/// on first use and merged on read.
///
/// [`Sharded::with`] resolves the calling thread's shard through a
/// thread-local list (no cross-thread lock on the hot path);
/// [`Sharded::for_each`] visits the folded total of exited threads and
/// every live thread's shard, so a reader on any thread sees the whole
/// store. Dropping the store drops every shard; a thread's stale
/// handle is pruned the next time that thread registers a shard.
#[derive(Default)]
pub struct Sharded<T: Shard> {
    inner: Arc<Shards<T>>,
}

#[derive(Default)]
struct Shards<T> {
    live: Mutex<Vec<Arc<T>>>,
    retired: Mutex<T>,
}

/// One thread's handle on one store's shard, type-erased so a single
/// thread-local list can hold shards of every `T`.
trait Slot: Any {
    /// Whether the owning store has been dropped.
    fn orphaned(&self) -> bool;
    /// Moves the shard out of the live list into the retired total.
    fn retire(&self);
}

struct Held<T: Shard> {
    shard: Arc<T>,
    owner: Weak<Shards<T>>,
}

impl<T: Shard> Slot for Held<T> {
    fn orphaned(&self) -> bool {
        self.owner.strong_count() == 0
    }

    fn retire(&self) {
        if let Some(owner) = self.owner.upgrade() {
            let mut live = lock(&owner.live);
            live.retain(|s| !Arc::ptr_eq(s, &self.shard));
            self.shard.fold_into(&mut lock(&owner.retired));
        }
    }
}

/// The calling thread's shards, keyed by their store's address (each
/// entry holds a `Weak` to its store, so the address is not reused while
/// the entry exists). Dropped at thread exit, which folds every shard
/// into its store's retired total.
struct ThreadShards(RefCell<Vec<(usize, Box<dyn Slot>)>>);

impl Drop for ThreadShards {
    fn drop(&mut self) {
        for (_, slot) in self.0.get_mut().drain(..) {
            slot.retire();
        }
    }
}

thread_local! {
    static MINE: ThreadShards = const { ThreadShards(RefCell::new(Vec::new())) };
}

impl<T: Shard> Sharded<T> {
    fn key(&self) -> usize {
        Arc::as_ptr(&self.inner) as usize
    }

    /// Runs `f` over the calling thread's shard, if it has one. `f` runs
    /// while the thread's shard list is borrowed, so it may reach other
    /// stores' existing shards but not register new ones.
    pub fn with_existing<R>(&self, f: impl FnOnce(&T) -> R) -> Option<R> {
        MINE.try_with(|mine| {
            let list = mine.0.try_borrow().ok()?;
            let (_, slot) = list.iter().find(|(key, _)| *key == self.key())?;
            let held = (&**slot as &dyn Any).downcast_ref::<Held<T>>()?;
            Some(f(&held.shard))
        })
        .ok()
        .flatten()
    }

    /// Runs `f` once over the calling thread's shard, registering it on
    /// first use. Where no shard can be registered (during thread
    /// teardown, or from inside another store's `f`) it runs over the
    /// retired total instead, under its lock.
    pub fn with<R>(&self, mut f: impl FnMut(&T) -> R) -> R {
        match self.with_existing(&mut f) {
            Some(r) => r,
            None => self.register(f),
        }
    }

    #[cold]
    fn register<R>(&self, mut f: impl FnMut(&T) -> R) -> R {
        let shard = Arc::new(T::default());
        let held: Box<dyn Slot> = Box::new(Held {
            shard: Arc::clone(&shard),
            owner: Arc::downgrade(&self.inner),
        });
        let cached = MINE.try_with(|mine| match mine.0.try_borrow_mut() {
            Ok(mut list) => {
                list.retain(|(_, s)| !s.orphaned());
                list.push((self.key(), held));
                true
            }
            Err(_) => false,
        });
        if cached == Ok(true) {
            lock(&self.inner.live).push(Arc::clone(&shard));
            f(&shard)
        } else {
            f(&lock(&self.inner.retired))
        }
    }

    /// Visits the retired total of exited threads, then every live
    /// thread's shard. Holds the live list for the whole visit, so a
    /// thread exiting meanwhile is seen exactly once.
    pub fn for_each(&self, mut f: impl FnMut(&T)) {
        let live = lock(&self.inner.live);
        f(&lock(&self.inner.retired));
        for shard in live.iter() {
            f(shard);
        }
    }
}

/// A poison-tolerant `RwLock` wrapper for kernel subsystems that were
/// born single-threaded (`NetStack`, `Netfilter`, `RouteTable`,
/// `DeviceRegistry`). The wrapped type keeps its original `&self`/`&mut
/// self` API; callers take a scoped guard with [`Locked::read`] /
/// [`Locked::write`].
///
/// Lock discipline: guards are scope-local. Copy what you need out of the
/// guard and drop it before calling any other kernel method that may
/// take a lock — in particular the audit/emit paths and `capable()`.
#[derive(Debug, Default)]
pub struct Locked<T>(RwLock<T>);

impl<T> Locked<T> {
    /// Wraps a value.
    pub fn new(value: T) -> Locked<T> {
        Locked(RwLock::new(value))
    }

    /// Takes a shared read guard (poison-tolerant).
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        read(&self.0)
    }

    /// Takes an exclusive write guard (poison-tolerant).
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        write(&self.0)
    }

    /// Consumes the wrapper, returning the inner value.
    pub fn into_inner(self) -> T {
        self.0.into_inner().unwrap_or_else(|e| e.into_inner())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[derive(Default)]
    struct Count(AtomicU64);

    impl Shard for Count {
        fn fold_into(&self, total: &mut Self) {
            *total.0.get_mut() += self.0.load(Ordering::Relaxed);
        }
    }

    fn bump(s: &Sharded<Count>, n: u64) {
        s.with(|c| c.0.fetch_add(n, Ordering::Relaxed));
    }

    fn sum(s: &Sharded<Count>) -> u64 {
        let mut total = 0;
        s.for_each(|c| total += c.0.load(Ordering::Relaxed));
        total
    }

    #[test]
    fn shards_are_per_instance_and_per_thread() {
        let a: Arc<Sharded<Count>> = Arc::new(Sharded::default());
        let b: Sharded<Count> = Sharded::default();
        bump(&a, 7);
        bump(&b, 9);
        let a2 = Arc::clone(&a);
        let other = std::thread::spawn(move || {
            // A fresh thread starts from an empty shard of the same store.
            let mine = a2.with(|c| c.0.load(Ordering::Relaxed));
            bump(&a2, 1);
            mine
        })
        .join()
        .unwrap();
        assert_eq!(other, 0);
        assert_eq!(a.with(|c| c.0.load(Ordering::Relaxed)), 7);
        assert_eq!((sum(&a), sum(&b)), (8, 9));
    }

    #[test]
    fn exited_threads_fold_into_one_retired_total() {
        let s: Arc<Sharded<Count>> = Arc::new(Sharded::default());
        for _ in 0..16 {
            let s = Arc::clone(&s);
            std::thread::spawn(move || bump(&s, 2)).join().unwrap();
        }
        assert_eq!(
            lock(&s.inner.live).len(),
            0,
            "no shard kept per exited thread"
        );
        assert_eq!(sum(&s), 32);
    }

    #[test]
    fn with_existing_never_registers() {
        let s: Sharded<Count> = Sharded::default();
        assert_eq!(s.with_existing(|_| ()), None);
        assert_eq!(lock(&s.inner.live).len(), 0);
        bump(&s, 1);
        assert_eq!(s.with_existing(|c| c.0.load(Ordering::Relaxed)), Some(1));
    }

    #[test]
    fn dropped_stores_are_pruned_from_the_thread_list() {
        for _ in 0..8 {
            bump(&Sharded::default(), 1);
        }
        let held = MINE.with(|m| m.0.borrow().len());
        assert!(
            held <= 2,
            "stale shards pruned on registration, held {held}"
        );
    }

    #[test]
    fn poison_recovery() {
        let m = std::sync::Arc::new(Mutex::new(5));
        let m2 = std::sync::Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let _g = m2.lock().unwrap();
            panic!("poison it");
        })
        .join();
        assert_eq!(*lock(&m), 5);
    }
}
