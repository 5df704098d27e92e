//! Flight-recorder determinism across worker counts.
//!
//! The trace-event exporter promises that the simulated-time tracks
//! are a pure function of the workload: recording order (and therefore
//! pool width) must not leak into the exported bytes. This is checked
//! at two levels — library (several simulators sharing one recorder
//! across a work-stealing pool) and binary (`spindle simulate
//! --trace-out` at `--jobs 1/2/8`). Wall-clock tracks honestly differ
//! run to run and are excluded from the comparison.
//!
//! A child that records only to ship its spans (a trace context, no
//! `--trace-out`) keeps a bounded recorder; its shipped records plus
//! the `dropped` it reports must still account for every slice a full
//! `--trace-out` recording of the same run holds.

use spindle_disk::obs::SimObserver;
use spindle_disk::profile::DriveProfile;
use spindle_disk::sim::{DiskSim, SimConfig};
use spindle_engine::Pool;
use spindle_obs::frame::{Frame, FrameDecoder, MAX_SHIPPED_SPANS, SINK_ENV};
use spindle_obs::json::{self, Json};
use spindle_obs::{FlightRecorder, MetricsRegistry, ObsConfig, TraceEventSink};
use std::io::Read;
use std::net::TcpListener;
use std::path::PathBuf;
use std::process::Command;
use std::sync::Arc;

/// Serialized simulated-time events of one export.
fn sim_events(trace_text: &str) -> String {
    let doc = json::parse(trace_text.trim()).expect("trace is valid JSON");
    let Some(Json::Arr(events)) = doc.get("traceEvents") else {
        panic!("traceEvents missing");
    };
    let sim: Vec<String> = events
        .iter()
        .filter(|e| e.get("pid").and_then(Json::as_u64) == Some(spindle_obs::trace_event::SIM_PID))
        .map(Json::to_string)
        .collect();
    assert!(!sim.is_empty(), "export carries simulated-time events");
    sim.join("\n")
}

/// Runs four differently-seeded simulations across a `jobs`-wide pool,
/// all recording into one shared recorder, and returns the sim-only
/// export.
fn pooled_export(jobs: usize) -> String {
    let env = spindle_synth::presets::parse_environment("mail").expect("preset exists");
    let workloads: Vec<Vec<spindle_trace::Request>> = (0..4u64)
        .map(|i| {
            env.spec(60.0)
                .generate(100 + i)
                .expect("generation succeeds")
        })
        .collect();
    let rec = Arc::new(FlightRecorder::new());
    let registry = MetricsRegistry::new();
    let completed = Pool::new(jobs).map(workloads, |_ord, requests| {
        let mut sim = DiskSim::new(DriveProfile::cheetah_15k(), SimConfig::default());
        sim.attach_observer(
            SimObserver::new(&registry, &ObsConfig::enabled()).with_flight(Arc::clone(&rec)),
        );
        sim.run(&requests)
            .expect("simulation succeeds")
            .completed
            .len()
    });
    assert!(completed.iter().all(|&n| n > 0));
    TraceEventSink::sim_only()
        .export_string(&rec)
        .expect("export succeeds")
}

#[test]
fn pooled_sim_tracks_are_byte_identical_across_worker_counts() {
    let baseline = pooled_export(1);
    assert!(baseline.contains("drive.service"));
    assert!(baseline.contains("drive.events"));
    for jobs in [2, 8] {
        let export = pooled_export(jobs);
        assert_eq!(
            sim_events(&baseline),
            sim_events(&export),
            "sim-time tracks differ between --jobs 1 and --jobs {jobs}"
        );
    }
}

#[test]
fn cli_trace_export_sim_tracks_are_deterministic_across_jobs() {
    let bin = env!("CARGO_BIN_EXE_spindle");
    let dir = std::env::temp_dir().join("spindle-flight-recorder-test");
    std::fs::create_dir_all(&dir).unwrap();
    let trace_in = dir.join("input.bin");
    let run = |args: &[&str]| {
        let out = Command::new(bin)
            .args(args)
            .current_dir(&dir)
            .output()
            .expect("spindle binary runs");
        assert!(
            out.status.success(),
            "spindle {args:?} failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    };
    run(&[
        "generate",
        "--env=mail",
        "--span=60",
        "--seed=7",
        "--out",
        trace_in.to_str().unwrap(),
    ]);

    let mut exports = Vec::new();
    for jobs in ["1", "2", "8"] {
        let trace_out: PathBuf = dir.join(format!("trace-jobs{jobs}.json"));
        run(&[
            "simulate",
            "--in",
            trace_in.to_str().unwrap(),
            "--jobs",
            jobs,
            "--trace-out",
            trace_out.to_str().unwrap(),
        ]);
        exports.push(sim_events(&std::fs::read_to_string(&trace_out).unwrap()));
    }
    assert_eq!(exports[0], exports[1], "--jobs 1 vs --jobs 2");
    assert_eq!(exports[0], exports[2], "--jobs 1 vs --jobs 8");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Slice events (not `M` metadata) of one trace export, per timeline:
/// `(sim, wall)`.
fn slice_counts(trace_text: &str) -> (u64, u64) {
    let doc = json::parse(trace_text.trim()).expect("trace is valid JSON");
    let Some(Json::Arr(events)) = doc.get("traceEvents") else {
        panic!("traceEvents missing");
    };
    let mut counts = (0, 0);
    for e in events {
        if e.get("ph").and_then(Json::as_str) == Some("M") {
            continue;
        }
        match e.get("pid").and_then(Json::as_u64) {
            Some(spindle_obs::trace_event::SIM_PID) => counts.0 += 1,
            Some(spindle_obs::trace_event::WALL_PID) => counts.1 += 1,
            other => panic!("slice on unknown pid {other:?}"),
        }
    }
    counts
}

#[test]
fn shipped_spans_account_for_every_recorded_slice() {
    let bin = env!("CARGO_BIN_EXE_spindle");
    let dir = std::env::temp_dir().join(format!("spindle-shipped-spans-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let trace_in = dir.join("input.bin");
    let trace_out = dir.join("full.json");
    let spindle = |args: &[&str], env: &[(&str, String)]| {
        let mut cmd = Command::new(bin);
        cmd.args(args)
            .env_remove(SINK_ENV)
            .env_remove(spindle_obs::context::TRACE_CONTEXT_ENV)
            .env_remove("SPINDLE_FAULTS");
        for (k, v) in env {
            cmd.env(k, v);
        }
        let out = cmd.output().expect("spindle binary runs");
        assert!(
            out.status.success(),
            "spindle {args:?} failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    };
    let input = trace_in.to_str().unwrap();
    spindle(
        &[
            "generate",
            "--env=mail",
            "--span=300",
            "--seed=1",
            "--out",
            input,
        ],
        &[],
    );
    spindle(
        &[
            "simulate",
            "--in",
            input,
            "--trace-out",
            trace_out.to_str().unwrap(),
        ],
        &[],
    );
    let (sim, wall) = slice_counts(&std::fs::read_to_string(&trace_out).unwrap());
    assert!(
        sim > MAX_SHIPPED_SPANS as u64,
        "the run must overflow the ship cap to exercise it: {sim} sim slices"
    );

    let listener = TcpListener::bind("127.0.0.1:0").expect("bind sink");
    let addr = listener.local_addr().expect("sink addr").to_string();
    let sink = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().expect("child connects");
        let mut decoder = FrameDecoder::new();
        let mut buf = [0u8; 8192];
        let mut batches = Vec::new();
        loop {
            match stream.read(&mut buf) {
                Ok(0) | Err(_) => break,
                Ok(n) => decoder.push(&buf[..n]),
            }
            while let Some(frame) = decoder.next_frame().expect("well-formed frames") {
                if let Frame::Span(batch) = frame {
                    batches.push(batch);
                }
            }
        }
        batches
    });
    let context = spindle_obs::TraceContext::mint("job-0001", 1).to_string();
    spindle(
        &["simulate", "--in", input],
        &[
            (SINK_ENV, addr),
            (spindle_obs::context::TRACE_CONTEXT_ENV, context),
        ],
    );
    let batches = sink.join().expect("sink thread");
    let shipped: Vec<_> = batches.iter().flat_map(|b| &b.spans).collect();
    let dropped: u64 = batches.iter().map(|b| b.dropped).sum();
    assert_eq!(
        shipped.len(),
        MAX_SHIPPED_SPANS,
        "the child ships up to the cap"
    );
    let shipped_wall = shipped.iter().filter(|r| !r.sim).count() as u64;
    assert_eq!(shipped_wall, wall, "every wall span ships");
    assert_eq!(
        shipped.len() as u64 + dropped,
        sim + wall,
        "shipped + dropped == slices in the full recording"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}
