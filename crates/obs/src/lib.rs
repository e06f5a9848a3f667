//! # emx-obs — unified observability layer
//!
//! The paper's argument is built on *observing* runtime behaviour:
//! utilization, steal traffic, shared-counter contention, per-phase SCF
//! cost. This crate is the one place that behaviour is captured and
//! exported from, shared by the thread runtime, the distributed
//! simulator, the chemistry kernel and the `reproduce` harness:
//!
//! * [`metrics`] — a registry of named counters, gauges and log₂-bucketed
//!   histograms. Handles are `Arc`s that hot paths clone up front and
//!   update with relaxed atomics; the registry lock is touched only at
//!   registration and snapshot time.
//! * [`ring`] — bounded per-worker SPSC profiling event rings: the one
//!   per-worker capture path (fixed capacity, overwrite-oldest, no
//!   allocation after setup), sharing one event schema between the
//!   thread runtime and the discrete-event simulator.
//! * [`attrib`] — critical-path extraction and blame attribution over
//!   those event streams: wall time split into compute / counter /
//!   steal / merge / idle per worker, plus differential comparison of
//!   two runs.
//! * [`chrome`] — Chrome trace-event JSON (the `chrome://tracing` /
//!   Perfetto format, which speedscope also imports) built from the same
//!   event streams: the one trace format.
//! * [`task_spans`] — the per-task intervals of one of those streams,
//!   the source of every measured task cost; [`render_timeline`] draws
//!   them as per-worker text occupancy strips.
//! * [`export`] — JSONL metric snapshots, stamped with a schema version,
//!   experiment id and git-describe string.
//! * [`json`] — the minimal JSON value type backing the exporters (the
//!   workspace builds offline, so no serde).
//!
//! ## Example
//!
//! ```
//! use emx_obs::prelude::*;
//!
//! let registry = MetricsRegistry::new();
//! let steals = registry.counter("runtime.steals", "count");
//! let latency = registry.histogram("runtime.steal_latency", "ns");
//! steals.inc();
//! latency.record(1_500);
//! let meta = RunMeta::new("demo", "v0");
//! let jsonl = metrics_to_jsonl(&meta, &registry.snapshot(), &[]);
//! assert!(jsonl.lines().count() >= 3);
//! ```

pub mod attrib;
pub mod chrome;
pub mod export;
pub mod json;
pub mod metrics;
pub mod ring;
mod timeline;

pub use attrib::{Attribution, AttributionDiff, WorkerBlame};
pub use chrome::ChromeTrace;
pub use export::{git_describe_string, metrics_to_jsonl, RunMeta, SCHEMA_VERSION};
pub use json::Json;
pub use metrics::{
    Counter, Gauge, Histogram, HistogramSnapshot, MetricEntry, MetricValue, MetricsRegistry,
};
pub use ring::{EventKind, EventRing, ProfEvent, RingSet, RingSnapshot, RingWriter};
pub use timeline::{render_timeline, task_spans};

/// Common imports.
pub mod prelude {
    pub use crate::attrib::{Attribution, AttributionDiff, WorkerBlame};
    pub use crate::chrome::ChromeTrace;
    pub use crate::export::{git_describe_string, metrics_to_jsonl, RunMeta, SCHEMA_VERSION};
    pub use crate::json::Json;
    pub use crate::metrics::{
        Counter, Gauge, Histogram, MetricEntry, MetricValue, MetricsRegistry,
    };
    pub use crate::ring::{EventKind, EventRing, ProfEvent, RingSet, RingWriter};
}
