//! Observability layer for the spindle pipeline.
//!
//! The toolkit's whole purpose is measuring disk behaviour at multiple
//! time-scales; this crate gives the generate → simulate → analyze
//! pipeline the same treatment. It provides, with **zero external
//! dependencies** (the crate builds offline and adds nothing to the
//! dependency closure of the crates it instruments):
//!
//! * [`registry`] — a thread-safe [`MetricsRegistry`] of monotonic
//!   [`Counter`]s, [`Gauge`]s, and fixed-bucket [`Histogram`]s with
//!   p50/p95/p99 readout, all on `std::sync::atomic`.
//! * [`span`] — lightweight wall-clock span timers ([`ObsSpan`] and the
//!   [`time_scope!`] macro) attributing time to pipeline stages.
//! * [`sink`] — the pluggable [`MetricsSink`] export trait with
//!   [`TextSink`] and [`JsonSink`] implementations.
//! * [`rollup`] — hierarchical multi-resolution metric rollups
//!   ([`RollupSet`]): every counter/gauge/histogram banked into
//!   bounded ring-buffered windows at several sim-time and wall-time
//!   resolutions at once, with exact histogram merge across windows
//!   plus derived rates, burstiness, and idle statistics.
//! * [`exemplar`] — deterministic per-bucket histogram exemplars
//!   ([`ExemplarStore`]) linking tail buckets back to concrete request
//!   ids and flight-recorder slices.
//! * [`frame`] — the cross-process telemetry frame protocol: a
//!   compact, versioned, length-prefixed and checksummed binary codec
//!   (snapshot deltas, rollup-window batches, progress/phase events,
//!   log-tail events, flight-recorder span batches) with an
//!   incremental, hostile-input-safe decoder, spoken between job
//!   children and the `spindle serve` daemon.
//! * [`context`] — cross-process trace-context propagation: the
//!   [`TraceContext`] the serve daemon mints per job attempt and hands
//!   to children via `SPINDLE_TRACE_CONTEXT`, tying daemon lifecycle
//!   spans and child flight-recorder spans into one causal trace.
//! * [`events`] — a fixed-capacity ring-buffer [`EventLog`] for
//!   simulator-level events (request enqueue/dispatch/complete, cache
//!   hit/miss, destage, idle begin/end), gated behind [`ObsConfig`].
//! * [`logger`] — a tiny leveled stderr logger behind the
//!   [`progress!`]/[`detail!`] macros, driving `--verbose`/`--quiet`.
//! * [`prom`] — a Prometheus text exposition encoder ([`PromSink`]),
//!   the format the `spindle-pulse` `/metrics` endpoint serves.
//! * [`json`] — a minimal JSON value, emitter, and parser used by the
//!   JSON sink and its round-trip tests (the workspace pins no JSON
//!   dependency, and the offline build registry has none to offer).
//! * [`recorder`] — the [`FlightRecorder`]: full per-event capture of a
//!   run on two correlated timelines (simulated time and wall-clock
//!   time), attached only when a trace export is requested.
//! * [`trace_event`] — Chrome trace-event JSON export of a recorder,
//!   loadable in Perfetto / `chrome://tracing`.
//!
//! # Overhead guarantee
//!
//! Instrumented hot paths test one `Option` before touching telemetry;
//! with no observer attached (the default) the added cost is a
//! predicted-not-taken branch. Counter and histogram updates are single
//! relaxed atomic operations on pre-resolved handles — no map lookups on
//! the hot path. Event logging allocates nothing after construction and
//! is entirely disabled unless an [`ObsConfig`] with `events: true` is
//! supplied.
//!
//! # Example
//!
//! ```
//! use spindle_obs::{JsonSink, MetricsRegistry, MetricsSink};
//!
//! let registry = MetricsRegistry::new();
//! let served = registry.counter("disk.requests_completed");
//! let latency = registry.histogram("disk.response_us");
//! for us in [120, 450, 90, 3100] {
//!     served.inc();
//!     latency.record(us);
//! }
//! {
//!     let _t = registry.span("pipeline.simulate");
//!     // ... timed work ...
//! }
//! let snap = registry.snapshot();
//! assert_eq!(snap.counter("disk.requests_completed"), Some(4));
//! let json = JsonSink.export_string(&snap).unwrap();
//! assert!(json.contains("disk.response_us"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod config;
pub mod context;
pub mod events;
pub mod exemplar;
pub mod frame;
pub mod json;
pub mod logger;
pub mod prom;
pub mod recorder;
pub mod registry;
pub mod rollup;
pub mod sink;
pub mod span;
pub mod trace_event;

pub use config::ObsConfig;
pub use context::TraceContext;
pub use events::{Event, EventKind, EventLog};
pub use exemplar::{Exemplar, ExemplarHandle, ExemplarStore};
pub use frame::{Frame, FrameDecoder, FrameError, SpanBatch, SpanRec, WindowBatch};
pub use logger::LogLevel;
pub use prom::PromSink;
pub use recorder::{FlightRecorder, SimSlice, SliceArgs, WallSlice};
pub use registry::{
    global, Counter, Gauge, Histogram, HistogramSnapshot, MetricsRegistry, Snapshot, SpanStats,
};
pub use rollup::{Resolution, RollupSet, RollupSnapshot};
pub use sink::{JsonSink, MetricsSink, TextSink};
pub use span::ObsSpan;
pub use trace_event::TraceEventSink;
