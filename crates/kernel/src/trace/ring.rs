//! The bounded audit ring, shared by every worker thread of one kernel,
//! with kernel-audit-backlog drop semantics.
//!
//! * Sequence numbers come from an atomic, so `seq` stays strictly
//!   increasing and gap-revealing under concurrency.
//! * Events are staged in a per-thread [`Sharded`] buffer and flushed
//!   into the ring in one lock acquisition per [`AUDIT_STAGE_BATCH`]
//!   events — except denials, which flush immediately (denials are always
//!   recorded, never parked in a buffer).
//! * Every read flushes **all** threads' staging first, so
//!   `/proc/<lsm>/audit` never shows a stale view.
//! * A flush merges the batch in seq order and evicts the lowest seqs
//!   down to the capacity. An in-order batch (the common case) is
//!   appended; only an event older than the ring's tail — its seq was
//!   assigned before, but staged after, another thread's flush — is
//!   inserted in place. Eviction runs before insertion, so the backing
//!   buffer never grows past the capacity.

use super::event::AuditEvent;
use crate::sync::{lock, Shard, Sharded};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Default backlog, mirroring `audit_backlog_limit`-style bounds.
pub const DEFAULT_RING_CAPACITY: usize = 1024;

/// Staged events per worker before a batched ring flush.
pub const AUDIT_STAGE_BATCH: usize = 32;

/// A bounded, seq-ordered audit log shareable across worker threads.
/// When full, the lowest sequence numbers are discarded and counted —
/// the log never grows without bound and never loses the *newest* (most
/// relevant) events.
pub struct AuditRing {
    backlog: Mutex<Backlog>,
    next_seq: AtomicU64,
    stages: Sharded<Mutex<Vec<AuditEvent>>>,
}

struct Backlog {
    events: VecDeque<AuditEvent>,
    cap: usize,
    dropped: u64,
}

impl Backlog {
    fn new(cap: usize) -> Backlog {
        Backlog {
            events: VecDeque::with_capacity(cap.clamp(1, DEFAULT_RING_CAPACITY)),
            cap: cap.max(1),
            dropped: 0,
        }
    }

    /// Merges a seq-sorted batch, evicting the lowest seqs down to `cap`.
    fn absorb(&mut self, batch: Vec<AuditEvent>) {
        let excess = (self.events.len() + batch.len()).saturating_sub(self.cap);
        self.dropped += excess as u64;
        let mut batch = batch.into_iter().peekable();
        for _ in 0..excess {
            match (self.events.front(), batch.peek()) {
                (Some(old), Some(new)) if new.seq < old.seq => drop(batch.next()),
                (Some(_), _) => drop(self.events.pop_front()),
                (None, _) => drop(batch.next()),
            }
        }
        for ev in batch {
            let at = self.events.partition_point(|e| e.seq < ev.seq);
            self.events.insert(at, ev);
        }
    }
}

/// An exited thread's still-staged events wait in the retired stage
/// until the next flush.
impl Shard for Mutex<Vec<AuditEvent>> {
    fn fold_into(&self, total: &mut Self) {
        lock(total).append(&mut lock(self));
    }
}

impl AuditRing {
    /// An empty ring holding at most `cap` events (`cap >= 1`).
    pub fn new(cap: usize) -> AuditRing {
        AuditRing {
            backlog: Mutex::new(Backlog::new(cap)),
            next_seq: AtomicU64::new(0),
            stages: Sharded::default(),
        }
    }

    /// Replaces the ring with an empty one of capacity `cap`, discarding
    /// stored and staged events and the drop count (tests exercising
    /// overflow accounting shrink the ring this way). Sequence numbering
    /// is NOT reset — `seq` stays strictly increasing for the kernel's
    /// lifetime.
    pub fn set_capacity(&self, cap: usize) {
        self.flush();
        *lock(&self.backlog) = Backlog::new(cap);
    }

    /// Allocates the next sequence number. Every emitted event gets one,
    /// stored or not, so `seq` gaps reveal trace-gated events.
    pub fn assign_seq(&self) -> u64 {
        self.next_seq.fetch_add(1, Ordering::Relaxed)
    }

    /// The sequence number the next emitted event will get.
    pub fn next_seq(&self) -> u64 {
        self.next_seq.load(Ordering::SeqCst)
    }

    /// Stages an event for the ring. Denials flush immediately (they are
    /// always recorded); informational events flush once the staging
    /// buffer reaches [`AUDIT_STAGE_BATCH`], amortizing the ring lock.
    pub fn push(&self, ev: AuditEvent) {
        let urgent = ev.is_denial();
        let mut ev = Some(ev);
        let staged = self.stages.with(|s| {
            let mut s = lock(s);
            s.extend(ev.take());
            s.len()
        });
        if urgent || staged >= AUDIT_STAGE_BATCH {
            self.flush();
        }
    }

    /// Drains every thread's staging buffer into the ring in one ring
    /// lock acquisition.
    fn flush(&self) {
        let mut batch = Vec::new();
        self.stages.for_each(|s| batch.append(&mut lock(s)));
        if batch.is_empty() {
            return;
        }
        batch.sort_by_key(|e| e.seq);
        lock(&self.backlog).absorb(batch);
    }

    /// Number of events currently stored (staging flushed first).
    pub fn len(&self) -> usize {
        self.flush();
        lock(&self.backlog).events.len()
    }

    /// Whether no events are stored (staging flushed first).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Events discarded due to backlog overflow.
    pub fn dropped(&self) -> u64 {
        self.flush();
        lock(&self.backlog).dropped
    }

    /// All stored events, oldest first (staging flushed first).
    pub fn events(&self) -> Vec<AuditEvent> {
        self.since(0)
    }

    /// Stored events with `seq >= since` — "everything since I last
    /// looked", using a saved [`AuditRing::next_seq`] (staging flushed
    /// first).
    pub fn since(&self, since: u64) -> Vec<AuditEvent> {
        self.flush();
        let backlog = lock(&self.backlog);
        let from = backlog.events.partition_point(|e| e.seq < since);
        backlog.events.range(from..).cloned().collect()
    }

    /// The most recent stored event, if any (staging flushed first).
    pub fn last(&self) -> Option<AuditEvent> {
        self.flush();
        lock(&self.backlog).events.back().cloned()
    }

    /// Renders the `/proc/<lsm>/audit` view: a summary header followed by
    /// one structured line per stored event (staging flushed first).
    pub fn render(&self) -> String {
        self.flush();
        let backlog = lock(&self.backlog);
        let mut out = format!(
            "# audit ring: stored={} capacity={} dropped={} next_seq={}\n",
            backlog.events.len(),
            backlog.cap,
            backlog.dropped,
            self.next_seq()
        );
        for ev in &backlog.events {
            out.push_str(&ev.render());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::Errno;
    use crate::trace::{AuditObject, DecisionKind, Hook, Provenance};
    use std::sync::Arc;

    fn ev(ring: &AuditRing, deny: bool) -> AuditEvent {
        let (kind, errno) = if deny {
            (DecisionKind::Deny, Some(Errno::EPERM))
        } else {
            (DecisionKind::Info, None)
        };
        let seq = ring.assign_seq();
        AuditEvent {
            seq,
            clock: 0,
            pid: 1,
            ruid: 0,
            euid: 0,
            syscall: "test",
            object: AuditObject::None,
            provenance: Provenance::kernel(Hook::Lifecycle, kind, errno),
            message: format!("event {}", seq),
        }
    }

    fn seqs(r: &AuditRing) -> Vec<u64> {
        r.events().iter().map(|e| e.seq).collect()
    }

    #[test]
    fn overflow_evicts_oldest_and_counts_drops() {
        let r = AuditRing::new(3);
        for _ in 0..5 {
            let e = ev(&r, true);
            r.push(e);
        }
        assert_eq!(r.len(), 3);
        assert_eq!(r.dropped(), 2);
        assert_eq!(seqs(&r), vec![2, 3, 4], "newest events are retained");
        assert_eq!(r.last().unwrap().seq, 4);
        assert_eq!(r.next_seq(), 5);
    }

    /// Regression: a late event older than everything in a full ring is
    /// the one to evict. Flushing used to evict the front and append, then
    /// re-sort, keeping `[0, 4, 5, 6]`.
    #[test]
    fn late_old_event_is_evicted_not_the_oldest_stored() {
        let r = AuditRing::new(4);
        let held_back = ev(&r, false);
        for _ in 1..=6 {
            let e = ev(&r, true);
            r.push(e);
        }
        assert_eq!(seqs(&r), vec![3, 4, 5, 6]);
        r.push(held_back);
        assert_eq!(seqs(&r), vec![3, 4, 5, 6]);
        assert_eq!(r.dropped(), 3);
    }

    #[test]
    fn late_event_inside_the_window_is_inserted_in_order() {
        let r = AuditRing::new(8);
        let (first, second) = (ev(&r, false), ev(&r, false));
        for _ in 2..5 {
            let e = ev(&r, true);
            r.push(e);
        }
        r.push(second);
        assert_eq!(seqs(&r), vec![1, 2, 3, 4]);
        r.push(first);
        assert_eq!(seqs(&r), vec![0, 1, 2, 3, 4]);
        assert_eq!(r.dropped(), 0);
    }

    #[test]
    fn backing_buffer_never_grows_past_capacity() {
        let r = AuditRing::new(4);
        let cap0 = lock(&r.backlog).events.capacity();
        for _ in 0..100 {
            let e = ev(&r, true);
            r.push(e);
        }
        assert_eq!(r.len(), 4);
        assert_eq!(lock(&r.backlog).events.capacity(), cap0);
    }

    #[test]
    fn denials_flush_immediately_infos_batch() {
        let r = AuditRing::new(256);
        let info = ev(&r, false);
        r.push(info);
        // Staged, not yet in the ring (peek without flushing).
        assert_eq!(lock(&r.backlog).events.len(), 0);
        let deny = ev(&r, true);
        r.push(deny);
        // The denial flushed everything staged so far.
        assert_eq!(lock(&r.backlog).events.len(), 2);
    }

    #[test]
    fn reads_flush_and_filter() {
        let r = AuditRing::new(256);
        for _ in 0..5 {
            let e = ev(&r, false);
            r.push(e);
        }
        assert_eq!(r.len(), 5);
        assert_eq!(seqs(&r), vec![0, 1, 2, 3, 4]);
        assert_eq!(r.last().unwrap().seq, 4);
        let tail: Vec<u64> = r.since(3).iter().map(|e| e.seq).collect();
        assert_eq!(tail, vec![3, 4]);
        assert_eq!(r.next_seq(), 5);
    }

    #[test]
    fn render_header_reports_the_next_seq() {
        let r = AuditRing::new(2);
        for _ in 0..3 {
            let e = ev(&r, true);
            r.push(e);
        }
        let text = r.render();
        assert!(text.starts_with("# audit ring: stored=2 capacity=2 dropped=1 next_seq=3\n"));
        assert!(text.contains("seq=2"));
        assert!(text.contains("hook=lifecycle"));
    }

    #[test]
    fn cross_thread_staging_is_visible_to_any_reader() {
        let r = Arc::new(AuditRing::new(256));
        let r2 = Arc::clone(&r);
        std::thread::spawn(move || {
            let e = ev(&r2, false);
            r2.push(e);
        })
        .join()
        .unwrap();
        // The writer thread exited with its event still staged; this
        // thread's read drains it.
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn concurrent_pushes_keep_every_event_ordered() {
        let r = Arc::new(AuditRing::new(4096));
        let mut handles = Vec::new();
        for _ in 0..4 {
            let r = Arc::clone(&r);
            handles.push(std::thread::spawn(move || {
                for i in 0..200 {
                    let e = ev(&r, i % 50 == 0);
                    r.push(e);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let seqs = seqs(&r);
        assert_eq!(
            seqs,
            (0..800).collect::<Vec<u64>>(),
            "ring view is seq-ordered"
        );
        assert_eq!(r.next_seq(), 800);
    }
}
