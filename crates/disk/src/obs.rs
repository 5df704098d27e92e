//! Simulator instrumentation.
//!
//! [`SimObserver`] bundles pre-resolved metric handles and an optional
//! flight recorder so [`DiskSim`](crate::sim::DiskSim) can record
//! telemetry without any name lookups on the hot path. With no observer
//! attached (the default) the simulator pays only an untaken `Option`
//! branch per site, keeping benchmark numbers unchanged.
//!
//! Metric names exported here. The counters are the run's
//! [`SimResult`] totals, added once at the end of each run; the
//! histograms move per request.
//!
//! | name                       | kind      | meaning                                  |
//! |----------------------------|-----------|------------------------------------------|
//! | `disk.requests_completed`  | counter   | host-visible request completions         |
//! | `disk.read_hits`           | counter   | reads satisfied from the cache           |
//! | `disk.read_misses`         | counter   | reads serviced mechanically              |
//! | `disk.writes_cached`       | counter   | writes absorbed by the write-back cache  |
//! | `disk.writes_forced`       | counter   | writes forced to the medium              |
//! | `disk.destages`            | counter   | idle-time destage operations             |
//! | `disk.seeks`               | counter   | mechanical service operations (each one  |
//! |                            |           | repositions the head): read misses +     |
//! |                            |           | forced writes + destages                 |
//! | `disk.media_errors`        | counter   | injected media errors (retried next rev) |
//! | `disk.timeouts`            | counter   | injected command timeouts (retried)      |
//! | `disk.response_us`         | histogram | host-visible response time (µs)          |
//! | `disk.queue_us`            | histogram | time queued before dispatch (µs)         |
//! | `disk.seek_us`             | histogram | arm movement per mechanical service (µs) |
//! | `disk.rotation_us`         | histogram | rotational wait per mechanical service   |
//! |                            |           | (µs)                                     |
//! | `disk.transfer_us`         | histogram | media transfer per mechanical service    |
//! |                            |           | (µs)                                     |
//! | `disk.destage_us`          | histogram | idle-time destage duration (µs)          |
//! | `disk.queue_depth`         | histogram | queue length at each dispatch            |
//!
//! The attribution histograms (`queue_us`/`seek_us`/`rotation_us`/
//! `transfer_us`) decompose each request's latency into where the time
//! went; every recorded value also offers a deterministic
//! [`Exemplar`] to its bucket, so a tail bucket links straight back to
//! the request id carried by the flight-recorder slices. When a
//! sim-axis [`RollupSet`] is attached with [`SimObserver::with_rollups`]
//! the same observations are banked into multi-resolution simulated-time
//! windows.
//!
//! When a [`FlightRecorder`] is attached with
//! [`SimObserver::with_flight`], the simulator additionally records
//! per-request lifecycle intervals, idle/destage activity and one
//! instant per [`EventKind`] occurrence on the simulated-time tracks
//! listed in [`track`].
//!
//! [`SimResult`]: crate::sim::SimResult

use crate::sim::SimResult;
use spindle_obs::{
    Counter, Exemplar, ExemplarHandle, FlightRecorder, Histogram, MetricsRegistry, ObsConfig,
    RollupSet, SliceArgs,
};
use std::sync::Arc;

/// Simulated-time track names the disk instrumentation records on.
pub mod track {
    /// Per-request queueing intervals (arrival → dispatch).
    pub const QUEUE: &str = "drive.queue";
    /// Per-request service intervals (dispatch → completion), plus
    /// idle-time destage operations.
    pub const SERVICE: &str = "drive.service";
    /// Idle intervals (queue empty, waiting for arrivals or for the
    /// idle wait before a destage).
    pub const IDLE: &str = "drive.idle";
    /// One instant per [`EventKind`](super::EventKind) occurrence
    /// (cache hits/misses, destages, enqueues, ...), named by
    /// [`EventKind::name`](super::EventKind::name) and carrying a
    /// `detail` arg.
    pub const EVENTS: &str = "drive.events";
}

/// A simulator event, recorded as an instant on [`track::EVENTS`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EventKind {
    /// A request entered the scheduler queue.
    RequestEnqueue,
    /// The scheduler selected a request for service.
    RequestDispatch,
    /// A request completed (host-visible).
    RequestComplete,
    /// A request was satisfied by the cache (read hit or absorbed
    /// write-back write).
    CacheHit,
    /// A request required mechanical service.
    CacheMiss,
    /// A dirty cache segment was destaged to the medium.
    Destage,
    /// The drive went idle (queue empty, waiting for arrivals).
    IdleBegin,
    /// The drive left an idle period.
    IdleEnd,
    /// A mechanical transfer hit an unreadable sector and retried on
    /// the next revolution.
    MediaError,
    /// A command stalled past its deadline and was retried.
    Timeout,
}

impl EventKind {
    /// Stable lowercase name: the instant's name on the trace.
    pub fn name(self) -> &'static str {
        match self {
            EventKind::RequestEnqueue => "request_enqueue",
            EventKind::RequestDispatch => "request_dispatch",
            EventKind::RequestComplete => "request_complete",
            EventKind::CacheHit => "cache_hit",
            EventKind::CacheMiss => "cache_miss",
            EventKind::Destage => "destage",
            EventKind::IdleBegin => "idle_begin",
            EventKind::IdleEnd => "idle_end",
            EventKind::MediaError => "media_error",
            EventKind::Timeout => "timeout",
        }
    }
}

/// The run-total counters [`SimObserver::settle`] publishes, in the
/// order of the values it reads off the [`SimResult`].
const RUN_COUNTERS: [&str; 9] = [
    "disk.requests_completed",
    "disk.read_hits",
    "disk.read_misses",
    "disk.writes_cached",
    "disk.writes_forced",
    "disk.destages",
    "disk.seeks",
    "disk.media_errors",
    "disk.timeouts",
];

/// Pre-resolved telemetry handles for one simulator.
///
/// Cloning shares the underlying metrics and recorder.
#[derive(Debug, Clone)]
pub struct SimObserver {
    /// [`RUN_COUNTERS`], resolved.
    run_counters: [Counter; RUN_COUNTERS.len()],
    pub(crate) queue_depth: Histogram,
    /// Latency-attribution histograms (response plus components), each
    /// with one exemplar slot set linking tail buckets back to request
    /// ids.
    pub(crate) attribution: Attribution,
    pub(crate) flight: Option<Arc<FlightRecorder>>,
    /// Optional simulated-time rollup wheel the attribution also feeds.
    pub(crate) rollups: Option<Arc<RollupSet>>,
}

/// One instrumented histogram plus its exemplar slots and rollup name.
#[derive(Debug, Clone)]
pub(crate) struct Attributed {
    name: &'static str,
    hist: Histogram,
    exemplars: ExemplarHandle,
}

impl Attributed {
    fn new(registry: &MetricsRegistry, name: &'static str) -> Self {
        let hist = registry.histogram(name);
        let exemplars = registry.exemplars().handle(name, hist.bucket_count());
        Attributed {
            name,
            hist,
            exemplars,
        }
    }
}

/// The per-request latency-attribution handles.
#[derive(Debug, Clone)]
pub(crate) struct Attribution {
    pub(crate) response_us: Attributed,
    pub(crate) queue_us: Attributed,
    pub(crate) seek_us: Attributed,
    pub(crate) rotation_us: Attributed,
    pub(crate) transfer_us: Attributed,
    pub(crate) destage_us: Attributed,
}

impl Attribution {
    fn new(registry: &MetricsRegistry) -> Self {
        Attribution {
            response_us: Attributed::new(registry, "disk.response_us"),
            queue_us: Attributed::new(registry, "disk.queue_us"),
            seek_us: Attributed::new(registry, "disk.seek_us"),
            rotation_us: Attributed::new(registry, "disk.rotation_us"),
            transfer_us: Attributed::new(registry, "disk.transfer_us"),
            destage_us: Attributed::new(registry, "disk.destage_us"),
        }
    }
}

/// Latency components of one mechanical service, in microseconds.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Components {
    pub(crate) seek_us: u64,
    pub(crate) rotation_us: u64,
    pub(crate) transfer_us: u64,
}

impl SimObserver {
    /// Resolves handles against `registry`. Every [`ObsConfig`] gets
    /// the same handles: per-event capture comes from
    /// [`SimObserver::with_flight`], not from the configuration.
    pub fn new(registry: &MetricsRegistry, _config: &ObsConfig) -> Self {
        SimObserver {
            run_counters: RUN_COUNTERS.map(|name| registry.counter(name)),
            queue_depth: registry.histogram("disk.queue_depth"),
            attribution: Attribution::new(registry),
            flight: None,
            rollups: None,
        }
    }

    /// Attaches a flight recorder: the simulator records per-request
    /// lifecycle intervals and its [`EventKind`] instants onto
    /// simulated-time tracks.
    #[must_use]
    pub fn with_flight(mut self, recorder: Arc<FlightRecorder>) -> Self {
        self.flight = Some(recorder);
        self
    }

    /// Attaches a simulated-time rollup wheel: every attribution
    /// observation and completion is additionally banked into
    /// multi-resolution sim-time windows (stamped with simulated
    /// nanoseconds, so the wheel is identical at any `--jobs`).
    #[must_use]
    pub fn with_rollups(mut self, rollups: Arc<RollupSet>) -> Self {
        self.rollups = Some(rollups);
        self
    }

    /// The attached sim-axis rollup wheel, if any.
    pub fn rollups(&self) -> Option<&Arc<RollupSet>> {
        self.rollups.as_ref()
    }

    /// The attached flight recorder, if any.
    pub fn flight(&self) -> Option<&Arc<FlightRecorder>> {
        self.flight.as_ref()
    }

    #[inline]
    pub(crate) fn event(&self, t_ns: u64, kind: EventKind, detail: u64) {
        if let Some(rec) = &self.flight {
            rec.sim_instant(track::EVENTS, kind.name(), t_ns, || {
                vec![("detail".to_owned(), spindle_obs::json::Json::Uint(detail))]
            });
        }
    }

    /// Records the idle interval `[from_ns, to_ns)`: an `idle` slice
    /// bracketed by `idle_begin`/`idle_end` instants. An empty interval
    /// records nothing.
    #[inline]
    pub(crate) fn idle(&self, from_ns: f64, to_ns: f64) {
        if self.flight.is_none() || to_ns <= from_ns {
            return;
        }
        let begin_ns = from_ns.round() as u64;
        self.event(begin_ns, EventKind::IdleBegin, 0);
        self.event(to_ns.round() as u64, EventKind::IdleEnd, 0);
        self.sim_slice(
            track::IDLE,
            "idle",
            begin_ns,
            (to_ns - from_ns).round() as u64,
            Vec::new,
        );
    }

    /// Records an interval on a simulated-time track (no-op without a
    /// recorder). Pass the args as a closure where building them
    /// costs: a bounded recorder past its cap never calls it.
    #[inline]
    pub(crate) fn sim_slice(
        &self,
        track: &str,
        name: &str,
        begin_ns: u64,
        dur_ns: u64,
        args: impl SliceArgs,
    ) {
        if let Some(rec) = &self.flight {
            rec.sim_slice(track, name, begin_ns, dur_ns, args);
        }
    }

    /// Records one attributed observation: histogram, exemplar offer,
    /// and (when a wheel is attached) the sim-axis rollup.
    #[inline]
    fn observe(&self, a: &Attributed, value_us: u64, id: u64, t_ns: u64, op: &'static str) {
        a.hist.record(value_us);
        a.exemplars.offer(
            a.hist.bucket_index(value_us),
            Exemplar {
                value: value_us,
                id,
                t_ns,
                op,
            },
        );
        if let Some(roll) = &self.rollups {
            roll.record_hist(a.name, t_ns, value_us);
        }
    }

    /// Records the full latency attribution of one completed request:
    /// the host-visible response, the time it spent queued, and — for
    /// mechanically serviced requests — the seek/rotation/transfer
    /// decomposition. Each value lands in its component histogram,
    /// offers an exemplar carrying the request id, and feeds the
    /// sim-axis rollup wheel when one is attached.
    #[inline]
    pub(crate) fn attribute_request(
        &self,
        id: u64,
        op: &'static str,
        complete_ns: u64,
        response_us: u64,
        queue_us: u64,
        components: Option<Components>,
    ) {
        self.observe(
            &self.attribution.response_us,
            response_us,
            id,
            complete_ns,
            op,
        );
        self.observe(&self.attribution.queue_us, queue_us, id, complete_ns, op);
        if let Some(c) = components {
            self.observe(&self.attribution.seek_us, c.seek_us, id, complete_ns, op);
            self.observe(
                &self.attribution.rotation_us,
                c.rotation_us,
                id,
                complete_ns,
                op,
            );
            self.observe(
                &self.attribution.transfer_us,
                c.transfer_us,
                id,
                complete_ns,
                op,
            );
        }
        if let Some(roll) = &self.rollups {
            roll.add_counter("disk.requests_completed", complete_ns, 1);
            // Per-op completion counters exist only on the wheel (the
            // registry already splits reads/writes by cache outcome);
            // they are what the observatory's R/W-mix table windows.
            match op {
                "read" => roll.add_counter("disk.reads", complete_ns, 1),
                "write" => roll.add_counter("disk.writes", complete_ns, 1),
                _ => {}
            }
        }
    }

    /// Records one idle-time destage: duration histogram (keyed by the
    /// destaged extent's LBA in the exemplar id slot — destages have no
    /// request id) plus the sim-axis rollup.
    #[inline]
    pub(crate) fn attribute_destage(&self, lba: u64, t_ns: u64, dur_us: u64) {
        self.observe(&self.attribution.destage_us, dur_us, lba, t_ns, "destage");
        if let Some(roll) = &self.rollups {
            roll.add_counter("disk.destages", t_ns, 1);
        }
    }

    /// Publishes the run's totals: adds each [`SimResult`] count to its
    /// `disk.*` counter, once per run. `disk.seeks` is derived: every
    /// read miss, forced write and destage repositions the head.
    pub(crate) fn settle(&self, result: &SimResult) {
        let totals = [
            result.completed.len() as u64,
            result.read_hits,
            result.read_misses,
            result.writes_cached,
            result.writes_forced,
            result.destages,
            result.read_misses + result.writes_forced + result.destages,
            result.media_errors,
            result.timeouts,
        ];
        for (counter, n) in self.run_counters.iter().zip(totals) {
            counter.add(n);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn observer_resolves_named_metrics() {
        let registry = MetricsRegistry::new();
        let obs = SimObserver::new(&registry, &ObsConfig::metrics_only());
        assert!(obs.flight().is_none());
        obs.attribute_request(7, "read", 5_000, 250, 40, None);
        let snap = registry.snapshot();
        // Run counters are registered up front and move only at settle.
        for name in RUN_COUNTERS {
            assert_eq!(snap.counter(name), Some(0), "{name}");
        }
        assert_eq!(snap.histogram("disk.response_us").unwrap().count, 1);
        assert_eq!(snap.histogram("disk.queue_us").unwrap().count, 1);
        // No mechanical components were supplied.
        assert_eq!(snap.histogram("disk.seek_us").unwrap().count, 0);
        assert_eq!(snap.gauge("events.dropped"), None);
    }

    #[test]
    fn settle_publishes_run_totals() {
        let registry = MetricsRegistry::new();
        let obs = SimObserver::new(&registry, &ObsConfig::metrics_only());
        let result = SimResult {
            completed: Vec::new(),
            busy: crate::busy::BusyLogBuilder::new().finish(1).unwrap(),
            read_hits: 1,
            read_misses: 2,
            writes_cached: 3,
            writes_forced: 4,
            destages: 5,
            media_errors: 6,
            timeouts: 7,
        };
        // Two runs through one observer accumulate.
        obs.settle(&result);
        obs.settle(&result);
        let snap = registry.snapshot();
        assert_eq!(snap.counter("disk.requests_completed"), Some(0));
        assert_eq!(snap.counter("disk.read_hits"), Some(2));
        assert_eq!(snap.counter("disk.read_misses"), Some(4));
        assert_eq!(snap.counter("disk.writes_cached"), Some(6));
        assert_eq!(snap.counter("disk.writes_forced"), Some(8));
        assert_eq!(snap.counter("disk.destages"), Some(10));
        assert_eq!(snap.counter("disk.seeks"), Some(2 * (2 + 4 + 5)));
        assert_eq!(snap.counter("disk.media_errors"), Some(12));
        assert_eq!(snap.counter("disk.timeouts"), Some(14));
    }

    #[test]
    fn kind_names_are_stable() {
        assert_eq!(EventKind::RequestEnqueue.name(), "request_enqueue");
        assert_eq!(EventKind::Destage.name(), "destage");
    }

    #[test]
    fn attribution_offers_exemplars_and_feeds_rollups() {
        let registry = MetricsRegistry::new();
        let rollups = Arc::new(RollupSet::sim());
        let obs = SimObserver::new(&registry, &ObsConfig::metrics_only())
            .with_rollups(Arc::clone(&rollups));
        assert!(obs.rollups().is_some());
        obs.attribute_request(
            3,
            "read",
            12_000_000, // 12 ms sim time → second 10ms window
            900,
            100,
            Some(Components {
                seek_us: 400,
                rotation_us: 300,
                transfer_us: 200,
            }),
        );
        obs.attribute_destage(4096, 20_000_000, 550);
        // Exemplars: the response histogram's tail bucket names id 3.
        let ex = registry.exemplars().snapshot();
        let (_, slots) = ex
            .iter()
            .find(|(name, _)| name == "disk.response_us")
            .expect("response exemplars registered");
        let hit = slots.iter().flatten().next().expect("one exemplar kept");
        assert_eq!(hit.id, 3);
        assert_eq!(hit.value, 900);
        assert_eq!(hit.op, "read");
        // Rollups: every resolution's merge saw the observations.
        let snap = rollups.snapshot();
        for r in &snap.resolutions {
            let merged = r.merged();
            assert_eq!(merged.counters["disk.requests_completed"], 1);
            assert_eq!(merged.counters["disk.reads"], 1);
            assert!(!merged.counters.contains_key("disk.writes"));
            assert_eq!(merged.counters["disk.destages"], 1);
            assert_eq!(merged.histograms["disk.seek_us"].sum, 400);
            assert_eq!(merged.histograms["disk.destage_us"].count, 1);
        }
        // The 10ms wheel banked them in distinct windows.
        let fine = snap.resolution("10ms").unwrap();
        assert_eq!(fine.windows.len(), 2);
    }

    #[test]
    fn events_flow_only_when_enabled() {
        // Events are recorded only by an attached flight recorder.
        let registry = MetricsRegistry::new();
        let silent = SimObserver::new(&registry, &ObsConfig::enabled());
        silent.event(5, EventKind::CacheHit, 0);

        let rec = Arc::new(FlightRecorder::new());
        let traced =
            SimObserver::new(&registry, &ObsConfig::metrics_only()).with_flight(Arc::clone(&rec));
        traced.event(5, EventKind::CacheHit, 77);
        let sim = rec.sim_slices();
        assert_eq!(sim.len(), 1);
        assert_eq!(sim[0].name, "cache_hit");
        assert_eq!(
            sim[0].args,
            [("detail".to_owned(), spindle_obs::json::Json::Uint(77))]
        );
    }

    #[test]
    fn flight_mirrors_events_and_slices() {
        let registry = MetricsRegistry::new();
        let rec = Arc::new(FlightRecorder::new());
        let obs = SimObserver::new(&registry, &ObsConfig::enabled()).with_flight(Arc::clone(&rec));
        obs.event(10, EventKind::CacheMiss, 4096);
        obs.sim_slice(track::SERVICE, "read", 10, 500, vec![]);
        let sim = rec.sim_slices();
        assert_eq!(sim.len(), 2);
        assert_eq!(sim[0].track, track::EVENTS);
        assert_eq!(sim[0].dur_ns, None);
        assert_eq!(sim[1].track, track::SERVICE);
        assert_eq!(sim[1].dur_ns, Some(500));
    }
}
