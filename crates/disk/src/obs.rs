//! Simulator instrumentation.
//!
//! [`SimObserver`] bundles pre-resolved metric handles, an optional
//! event ring, and an optional flight recorder so
//! [`DiskSim`](crate::sim::DiskSim) can record telemetry without any
//! name lookups on the hot path. With no observer attached (the
//! default) the simulator pays only an untaken `Option` branch per
//! site, keeping benchmark numbers unchanged.
//!
//! Metric names exported here:
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
//! |                            |           | repositions the head)                    |
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
//! | `events.dropped`           | gauge     | event-ring entries overwritten (only     |
//! |                            |           | published when event tracing is on)      |
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
//! per-request lifecycle intervals and idle/destage activity on the
//! simulated-time tracks listed in [`track`].

use spindle_obs::{
    Counter, EventKind, EventLog, Exemplar, ExemplarHandle, FlightRecorder, Gauge, Histogram,
    MetricsRegistry, ObsConfig, RollupSet, SliceArgs,
};
use std::sync::Arc;

/// Simulated-time track names the disk instrumentation records on.
pub mod track {
    /// Per-request queueing intervals (arrival → dispatch).
    pub const QUEUE: &str = "drive.queue";
    /// Per-request service intervals (dispatch → completion), plus
    /// idle-time destage operations.
    pub const SERVICE: &str = "drive.service";
    /// Idle intervals (queue empty, waiting for arrivals).
    pub const IDLE: &str = "drive.idle";
    /// Instant events mirroring the [`EventLog`](spindle_obs::EventLog)
    /// ring (cache hits/misses, destages, enqueues, ...).
    pub const EVENTS: &str = "drive.events";
}

/// Pre-resolved telemetry handles for one simulator.
///
/// Cloning shares the underlying metrics, event ring, and recorder.
#[derive(Debug, Clone)]
pub struct SimObserver {
    pub(crate) requests_completed: Counter,
    pub(crate) read_hits: Counter,
    pub(crate) read_misses: Counter,
    pub(crate) writes_cached: Counter,
    pub(crate) writes_forced: Counter,
    pub(crate) destages: Counter,
    pub(crate) seeks: Counter,
    pub(crate) media_errors: Counter,
    pub(crate) timeouts: Counter,
    pub(crate) queue_depth: Histogram,
    /// Latency-attribution histograms (response plus components), each
    /// with one exemplar slot set linking tail buckets back to request
    /// ids.
    pub(crate) attribution: Attribution,
    pub(crate) events: Option<Arc<EventLog>>,
    /// Published only when event tracing is on, so a metrics-only run
    /// does not export a meaningless zero.
    pub(crate) events_dropped: Option<Gauge>,
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
    /// Resolves handles against `registry` and allocates the event ring
    /// `config` asks for.
    pub fn new(registry: &MetricsRegistry, config: &ObsConfig) -> Self {
        let events = config.event_log();
        let events_dropped = events.is_some().then(|| registry.gauge("events.dropped"));
        SimObserver {
            requests_completed: registry.counter("disk.requests_completed"),
            read_hits: registry.counter("disk.read_hits"),
            read_misses: registry.counter("disk.read_misses"),
            writes_cached: registry.counter("disk.writes_cached"),
            writes_forced: registry.counter("disk.writes_forced"),
            destages: registry.counter("disk.destages"),
            seeks: registry.counter("disk.seeks"),
            media_errors: registry.counter("disk.media_errors"),
            timeouts: registry.counter("disk.timeouts"),
            queue_depth: registry.histogram("disk.queue_depth"),
            attribution: Attribution::new(registry),
            events,
            events_dropped,
            flight: None,
            rollups: None,
        }
    }

    /// Attaches a flight recorder: the simulator records per-request
    /// lifecycle intervals and mirrors ring events onto simulated-time
    /// tracks.
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

    /// The event ring, when event tracing is enabled.
    pub fn event_log(&self) -> Option<Arc<EventLog>> {
        self.events.clone()
    }

    /// The attached flight recorder, if any.
    pub fn flight(&self) -> Option<&Arc<FlightRecorder>> {
        self.flight.as_ref()
    }

    #[inline]
    pub(crate) fn event(&self, t_ns: u64, kind: EventKind, detail: u64) {
        if let Some(log) = &self.events {
            log.record(t_ns, kind, detail);
        }
        if let Some(rec) = &self.flight {
            rec.sim_instant(track::EVENTS, kind.name(), t_ns, || {
                vec![("detail".to_owned(), spindle_obs::json::Json::Uint(detail))]
            });
        }
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

    /// Publishes end-of-run telemetry derived from the ring: the
    /// `events.dropped` gauge (and recorder metadata when both are
    /// attached), so truncated traces are visible instead of silent.
    pub fn settle(&self) {
        if let (Some(log), Some(gauge)) = (&self.events, &self.events_dropped) {
            gauge.set(i64::try_from(log.dropped()).unwrap_or(i64::MAX));
        }
        if let (Some(log), Some(rec)) = (&self.events, &self.flight) {
            use spindle_obs::json::Json;
            rec.set_meta("events.recorded", Json::Uint(log.total_recorded()));
            rec.set_meta("events.dropped", Json::Uint(log.dropped()));
            rec.set_meta("events.capacity", Json::Uint(log.capacity() as u64));
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
        assert!(obs.event_log().is_none());
        assert!(obs.flight().is_none());
        obs.requests_completed.inc();
        obs.attribute_request(7, "read", 5_000, 250, 40, None);
        let snap = registry.snapshot();
        assert_eq!(snap.counter("disk.requests_completed"), Some(1));
        assert_eq!(snap.histogram("disk.response_us").unwrap().count, 1);
        assert_eq!(snap.histogram("disk.queue_us").unwrap().count, 1);
        // No mechanical components were supplied.
        assert_eq!(snap.histogram("disk.seek_us").unwrap().count, 0);
        // Metrics-only observers do not publish the ring gauge.
        assert_eq!(snap.gauge("events.dropped"), None);
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
        let registry = MetricsRegistry::new();
        let silent = SimObserver::new(&registry, &ObsConfig::metrics_only());
        silent.event(5, EventKind::CacheHit, 0);

        let traced = SimObserver::new(&registry, &ObsConfig::enabled());
        traced.event(5, EventKind::CacheHit, 77);
        let log = traced.event_log().expect("ring allocated");
        assert_eq!(log.len(), 1);
        assert_eq!(log.snapshot()[0].detail, 77);
    }

    #[test]
    fn settle_publishes_dropped_count() {
        let mut cfg = ObsConfig::enabled();
        cfg.event_capacity = 2;
        let registry = MetricsRegistry::new();
        let obs = SimObserver::new(&registry, &cfg);
        for t in 0..5 {
            obs.event(t, EventKind::RequestEnqueue, t);
        }
        obs.settle();
        assert_eq!(registry.snapshot().gauge("events.dropped"), Some(3));
    }

    #[test]
    fn flight_mirrors_events_and_slices() {
        let registry = MetricsRegistry::new();
        let rec = Arc::new(FlightRecorder::new());
        let obs = SimObserver::new(&registry, &ObsConfig::enabled()).with_flight(Arc::clone(&rec));
        obs.event(10, EventKind::CacheMiss, 4096);
        obs.sim_slice(track::SERVICE, "read", 10, 500, vec![]);
        obs.settle();
        let sim = rec.sim_slices();
        assert_eq!(sim.len(), 2);
        assert_eq!(sim[0].track, track::EVENTS);
        assert_eq!(sim[0].dur_ns, None);
        assert_eq!(sim[1].track, track::SERVICE);
        assert_eq!(sim[1].dur_ns, Some(500));
        assert!(rec.meta().iter().any(|(k, _)| k == "events.dropped"));
    }
}
