//! Structured kernel observability: typed audit events with decision
//! provenance, one bounded audit ring, per-hook / per-syscall decision
//! metrics, span-timing histograms, and an [`AuditSink`] subscription
//! point for userland daemons.
//!
//! Every policy-relevant decision site emits an [`AuditEvent`] carrying
//! *which* LSM hook decided, *which* policy rule matched (when the module
//! tracks one), the decision kind and errno, and the subject and object
//! involved; [`AuditEvent::message`] keeps the human-readable line.
//! Telemetry is written per thread into [`crate::sync::Sharded`] stores
//! and merged on read, so `/proc/<lsm>/metrics` and
//! `/proc/kernel/histograms` show every worker of a shared kernel.
//!
//! Recording policy (see `Kernel::emit_event`):
//!
//! * `Deny` events are **always** recorded — dropping security denials
//!   because tracing is off would blind incident response;
//! * all other kinds (`Allow`, `UseDefault`, `Defer`, `Info`) are
//!   recorded only when `Kernel::trace` is on;
//! * [`Metrics`] counters and subscribed sinks observe every emitted
//!   event regardless of the flag.

mod event;
pub mod hist;
mod metrics;
mod recorder;
mod ring;
mod sink;
pub mod span;

pub use event::{AuditEvent, AuditObject, DecisionKind, Hook, Provenance};
pub use hist::{LatencyHistogram, HIST_BUCKETS};
pub(crate) use metrics::table_key;
pub use metrics::{
    CacheStats, ClassStats, DecisionCounters, Metrics, SyscallCounters, Table, TableKey,
};
pub use recorder::{Divergence, Trace, TraceEntry, TraceError, TraceRecorder, TraceReplayer};
pub use ring::{AuditRing, AUDIT_STAGE_BATCH, DEFAULT_RING_CAPACITY};
pub use sink::{AuditSink, CollectingSink};
pub use span::{span, Pathway, SpanGuard, TimingSnapshot};
