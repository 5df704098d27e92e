//! Integration: a full generate → simulate pipeline run with
//! observability enabled must account for every request, both in the
//! metrics registry and in the flight recorder's `drive.events` track,
//! and the JSON export of that registry must round-trip through the
//! parser.

use spindle_bench::pipeline::EnvRun;
use spindle_bench::ExpConfig;
use spindle_disk::obs::{track, EventKind, SimObserver};
use spindle_disk::profile::DriveProfile;
use spindle_disk::sim::{DiskSim, SimConfig};
use spindle_obs::json::{self, Json};
use spindle_obs::sink::{JsonSink, MetricsSink};
use spindle_obs::{FlightRecorder, MetricsRegistry, ObsConfig};
use spindle_synth::presets::Environment;
use spindle_trace::OpKind;
use std::sync::Arc;

fn observed_run(env: Environment) -> (EnvRun, MetricsRegistry) {
    let mut cfg = ExpConfig::quick();
    cfg.ms_span_secs = 120.0;
    let registry = MetricsRegistry::new();
    let run = EnvRun::observed(
        env,
        &cfg,
        SimConfig::default(),
        &ObsConfig::enabled(),
        &registry,
    )
    .expect("observed pipeline run succeeds");
    (run, registry)
}

#[test]
fn registry_accounts_for_every_request() {
    for env in [Environment::Mail, Environment::Web] {
        let (run, registry) = observed_run(env);
        let snap = registry.snapshot();
        let total = run.requests.len() as u64;
        assert!(total > 0, "{env}: empty run proves nothing");

        assert_eq!(
            snap.counter("disk.requests_completed"),
            Some(total),
            "{env}: every request must be counted exactly once"
        );

        let reads_issued = run.requests.iter().filter(|r| r.op == OpKind::Read).count() as u64;
        let hits = snap.counter("disk.read_hits").unwrap_or(0);
        let misses = snap.counter("disk.read_misses").unwrap_or(0);
        assert_eq!(
            hits + misses,
            reads_issued,
            "{env}: cache hits + misses must equal reads issued"
        );
        // Cross-check against the simulator's own accounting.
        assert_eq!(hits, run.sim.read_hits, "{env}");
        assert_eq!(misses, run.sim.read_misses, "{env}");

        let writes_issued = total - reads_issued;
        assert_eq!(
            snap.counter("disk.writes_cached").unwrap_or(0)
                + snap.counter("disk.writes_forced").unwrap_or(0),
            writes_issued,
            "{env}: every write is either cached or forced"
        );

        let resp = snap
            .histogram("disk.response_us")
            .expect("response histogram present");
        assert_eq!(resp.count, total, "{env}: one response sample per request");
        let depth = snap
            .histogram("disk.queue_depth")
            .expect("queue-depth histogram present");
        assert_eq!(depth.count, total, "{env}: one depth sample per dispatch");

        // Per-stage spans were timed.
        for stage in ["pipeline.generate", "pipeline.simulate"] {
            let s = snap
                .span(stage)
                .unwrap_or_else(|| panic!("{env}: missing span {stage}"));
            assert_eq!(s.count, 1, "{env}: {stage} runs once");
        }
    }
}

#[test]
fn event_log_is_consistent_with_the_metrics() {
    let (run, registry) = observed_run(Environment::Web);
    let snap = registry.snapshot();
    // Replay the pipeline's requests with a private (unbounded) recorder
    // attached: installing the process-global one would also catch the
    // runs of the tests alongside.
    let rec = Arc::new(FlightRecorder::new());
    let mut sim = DiskSim::new(DriveProfile::cheetah_15k(), SimConfig::default());
    sim.attach_observer(
        SimObserver::new(&MetricsRegistry::new(), &ObsConfig::enabled())
            .with_flight(Arc::clone(&rec)),
    );
    let replay = sim.run(&run.requests).expect("replay succeeds");
    assert_eq!(replay, run.sim, "the traced replay is the pipeline's run");
    assert_eq!(rec.shed(), 0, "the counting assertions need every event");
    let instants: Vec<_> = rec
        .sim_slices()
        .into_iter()
        .filter(|s| s.track == track::EVENTS)
        .collect();
    for s in &instants {
        assert_eq!(s.dur_ns, None, "{}: events are instants", s.name);
        assert!(
            s.args.iter().any(|(k, _)| k == "detail"),
            "{}: every event carries a detail",
            s.name
        );
    }
    let count = |k: EventKind| instants.iter().filter(|s| s.name == k.name()).count() as u64;
    let total = run.requests.len() as u64;

    assert_eq!(count(EventKind::RequestEnqueue), total);
    assert_eq!(count(EventKind::RequestDispatch), total);
    assert_eq!(count(EventKind::RequestComplete), total);
    assert_eq!(
        count(EventKind::CacheHit),
        snap.counter("disk.read_hits").unwrap_or(0)
            + snap.counter("disk.writes_cached").unwrap_or(0)
    );
    assert_eq!(
        count(EventKind::CacheMiss),
        snap.counter("disk.read_misses").unwrap_or(0)
            + snap.counter("disk.writes_forced").unwrap_or(0)
    );
    assert_eq!(
        count(EventKind::Destage),
        snap.counter("disk.destages").unwrap_or(0)
    );
    assert_eq!(count(EventKind::IdleBegin), count(EventKind::IdleEnd));

    // The recorder keeps events in emission order, oldest first.
    for w in instants.windows(2) {
        assert!(
            w[1].begin_ns >= w[0].begin_ns || w[1].name == EventKind::RequestEnqueue.name(),
            "non-enqueue events are emitted in simulation-time order"
        );
    }
}

#[test]
fn json_export_of_a_real_run_round_trips() {
    let (run, registry) = observed_run(Environment::Mail);
    let text = JsonSink
        .export_string(&registry.snapshot())
        .expect("export succeeds");
    let doc = json::parse(text.trim()).expect("export is valid JSON");

    assert_eq!(
        doc.get("counters")
            .and_then(|c| c.get("disk.requests_completed"))
            .and_then(Json::as_u64),
        Some(run.requests.len() as u64)
    );
    let hist = doc
        .get("histograms")
        .and_then(|h| h.get("disk.response_us"))
        .expect("response-time histogram exported");
    let p50 = hist.get("p50").and_then(Json::as_f64).unwrap();
    let p95 = hist.get("p95").and_then(Json::as_f64).unwrap();
    let p99 = hist.get("p99").and_then(Json::as_f64).unwrap();
    assert!(p50 <= p95 && p95 <= p99, "p50={p50} p95={p95} p99={p99}");
    assert!(doc
        .get("spans")
        .and_then(|s| s.get("pipeline.simulate"))
        .is_some());
    // Re-emitting the parsed document is a fixed point.
    assert_eq!(json::parse(&doc.to_string()).unwrap(), doc);
}

#[test]
fn disabled_observability_changes_nothing() {
    let mut cfg = ExpConfig::quick();
    cfg.ms_span_secs = 60.0;
    // Dev's session gate can draw a single off-sojourn covering a span
    // this short; this seed is known to produce traffic within 60s.
    cfg.seed = 20091;
    let registry = MetricsRegistry::new();
    let plain = EnvRun::new(Environment::Dev, &cfg).unwrap();
    let observed = EnvRun::observed(
        Environment::Dev,
        &cfg,
        SimConfig::default(),
        &ObsConfig::enabled(),
        &registry,
    )
    .unwrap();
    assert_eq!(plain.requests, observed.requests);
    assert_eq!(plain.sim.completed, observed.sim.completed);
    assert_eq!(plain.sim.busy, observed.sim.busy);
}
