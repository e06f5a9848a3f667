//! # emx-obs — unified observability layer
//!
//! The paper's argument is built on *observing* runtime behaviour:
//! utilization, steal traffic, shared-counter contention, per-phase SCF
//! cost. This crate is the one place that behaviour is captured and
//! exported from, shared by the thread runtime, the distributed
//! simulator, the chemistry kernel and the `reproduce` harness:
//!
//! * [`ring`] — bounded per-worker SPSC profiling event rings, the one
//!   capture path (fixed capacity, overwrite-oldest, no allocation after
//!   setup), with one event schema for the thread runtime and simulator.
//! * [`attrib`] — critical path and blame over those event streams:
//!   per-worker compute / counter / steal / merge / idle time and task,
//!   steal and steal-attempt counts, plus differential comparison of two
//!   runs. Every other count is in the substrate's own report.
//! * [`chrome`] — Chrome trace-event JSON (the `chrome://tracing` /
//!   Perfetto format, which speedscope also imports) built from the same
//!   event streams: the one trace format.
//! * [`task_spans`] — the per-task intervals of one of those streams,
//!   the source of every measured task cost; [`render_timeline`] draws
//!   them as per-worker text occupancy strips.
//! * [`export`] — the stamp on every exported file: a schema version,
//!   experiment id and git-describe string.
//! * [`json`] — the minimal JSON value type backing the trace export
//!   (the workspace builds offline, so no serde).
//!
//! ## Example
//!
//! ```
//! use emx_obs::{Attribution, EventKind, RingSet};
//!
//! // Two workers, each writing its own ring (timestamps in ns).
//! let rings = RingSet::new(2, 64);
//! let mut w0 = rings.writer(0);
//! w0.record(EventKind::TaskStart, 0, 0);
//! w0.record(EventKind::TaskEnd, 0, 600);
//! // Worker 1 hunts (three failed probes), steals task 1 and runs it.
//! let mut w1 = rings.writer(1);
//! w1.record(EventKind::IdleStart, 3, 0);
//! w1.record(EventKind::StealAttempt, 0, 200);
//! w1.record(EventKind::StealSuccess, 0, 200);
//! w1.record(EventKind::TaskStart, 1, 200);
//! w1.record(EventKind::TaskEnd, 1, 1_000);
//!
//! let a = Attribution::from_rings("work-stealing", 1_000, &rings);
//! assert_eq!(a.totals().tasks, 2);
//! assert_eq!((a.workers[1].steals, a.workers[1].steal_attempts), (1, 4));
//! // Every worker's five blame categories sum to the wall clock.
//! assert!(a.max_sum_error() < 1e-9);
//! ```

pub mod attrib;
pub mod chrome;
pub mod export;
pub mod json;
pub mod ring;
mod timeline;

pub use attrib::{Attribution, AttributionDiff, WorkerBlame};
pub use chrome::ChromeTrace;
pub use export::{git_describe_string, RunMeta, SCHEMA_VERSION};
pub use json::Json;
pub use ring::{EventKind, EventRing, ProfEvent, RingSet, RingSnapshot, RingWriter};
pub use timeline::{render_timeline, task_spans};
