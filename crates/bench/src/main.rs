//! `experiments` — regenerates every table and figure of the
//! evaluation.
//!
//! Usage:
//!
//! ```text
//! experiments [--quick] [--jobs N] [--metrics[=json|text]] [--record[=FILE]]
//!             [--trace-out FILE] [--timescales-out FILE] [--faults SPEC]
//!             [--resume FILE] [--serve [ADDR]] [--live] [--verbose|--quiet]
//!             [ids...]
//! experiments --quick t2 f5        # just T2 and F5, reduced scale
//! experiments                      # everything at paper scale
//! experiments --jobs 8             # fan the matrix across 8 workers
//! experiments --metrics=json t1    # T1 plus a JSON metrics dump on stderr
//! experiments --record t1 t2      # also write the bench-record file
//! experiments --trace-out t.json  # export a Chrome trace-event timeline
//! experiments --faults panic@3    # quarantine the 4th experiment
//! experiments --resume run.jsonl  # journal completions; resume a killed run
//! experiments --serve 127.0.0.1:0 # scrape /metrics, /status mid-run
//! experiments --live              # ANSI progress dashboard on stderr
//! ```
//!
//! The accepted ids in the usage line are derived from the experiment
//! table in [`spindle_bench::matrix`], so the two cannot drift apart.
//!
//! Experiments fan out across a [`spindle_engine::Pool`]; every
//! experiment is a pure function of the config, and outputs are merged
//! back in table order, so the report is byte-identical for every
//! `--jobs` value (`--jobs 1` runs inline on the main thread).
//!
//! A panicking experiment — its own bug or an injected `--faults`
//! panic — is quarantined rather than aborting the run: every other
//! experiment completes, the failure is reported on stderr, and the
//! exit status is 1. With `--resume FILE`, completions are journaled
//! (fsync'd JSON lines) as the matrix drains; re-running with the same
//! file replays finished experiments from the journal and executes
//! only the incomplete or failed ones, producing byte-identical
//! stdout to an uninterrupted run.

use spindle_bench::journal::{Journal, JournalEntry};
use spindle_bench::{matrix, pipeline, record, BenchRecord, BenchReport, ExpConfig};
use spindle_engine::{Pool, PoolMetrics};
use spindle_obs::sink::{JsonSink, MetricsSink, TextSink};
use spindle_obs::{progress, FlightRecorder, LogLevel, ObsConfig, TraceEventSink};
use std::collections::HashMap;
use std::sync::Arc;

/// Default destination of `--record` (the PR-over-PR perf trajectory
/// file tracked at the repository root).
const RECORD_DEFAULT: &str = "BENCH_pr8.json";

/// Exit status of a run killed by an injected `kill@N` fault, chosen
/// to look like SIGKILL so resume tests exercise the real path.
const KILL_STATUS: i32 = 137;

fn usage() -> String {
    format!
        ("usage: experiments [--quick] [--jobs N] [--metrics[=json|text]] [--record[=FILE]] [--trace-out FILE] [--timescales-out FILE] [--faults SPEC] [--resume FILE] [--serve [ADDR]] [--live] [--verbose|--quiet] [{}]",
        matrix::id_ranges()
    )
}

/// Whether a token following `--serve` is an address operand rather
/// than the next flag or an experiment id (`host:port` contains a
/// colon; no id or flag does).
fn looks_like_addr(s: &str) -> bool {
    !s.starts_with('-') && s.contains(':')
}

fn bad_usage(msg: &str) -> ! {
    eprintln!("{msg}");
    eprintln!("{}", usage());
    std::process::exit(2);
}

fn main() {
    let mut quick = false;
    let mut metrics: Option<&str> = None;
    let mut jobs: Option<usize> = None;
    let mut record_out: Option<String> = None;
    let mut trace_out: Option<String> = None;
    let mut timescales_out: Option<String> = None;
    let mut faults_spec: Option<String> = None;
    let mut resume: Option<String> = None;
    let mut serve: Option<Option<String>> = None;
    let mut live = false;
    let mut ids: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1).peekable();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--metrics" | "--metrics=text" => metrics = Some("text"),
            "--metrics=json" => metrics = Some("json"),
            "--record" => record_out = Some(RECORD_DEFAULT.to_owned()),
            other if other.starts_with("--record=") => {
                record_out = Some(other["--record=".len()..].to_owned());
            }
            "--trace-out" => {
                let Some(v) = args.next() else {
                    bad_usage("--trace-out needs a value");
                };
                trace_out = Some(v);
            }
            other if other.starts_with("--trace-out=") => {
                trace_out = Some(other["--trace-out=".len()..].to_owned());
            }
            "--timescales-out" => {
                let Some(v) = args.next() else {
                    bad_usage("--timescales-out needs a value");
                };
                timescales_out = Some(v);
            }
            other if other.starts_with("--timescales-out=") => {
                timescales_out = Some(other["--timescales-out=".len()..].to_owned());
            }
            "--faults" => {
                let Some(v) = args.next() else {
                    bad_usage("--faults needs a value");
                };
                faults_spec = Some(v);
            }
            other if other.starts_with("--faults=") => {
                faults_spec = Some(other["--faults=".len()..].to_owned());
            }
            "--resume" => {
                let Some(v) = args.next() else {
                    bad_usage("--resume needs a value");
                };
                resume = Some(v);
            }
            other if other.starts_with("--resume=") => {
                resume = Some(other["--resume=".len()..].to_owned());
            }
            "--serve" => {
                // The address operand is optional: consume the next
                // token only when it looks like host:port.
                let addr = match args.peek() {
                    Some(next) if looks_like_addr(next) => args.next(),
                    _ => None,
                };
                serve = Some(addr);
            }
            other if other.starts_with("--serve=") => {
                serve = Some(Some(other["--serve=".len()..].to_owned()));
            }
            "--live" => live = true,
            "--verbose" => spindle_obs::logger::set_level(LogLevel::Verbose),
            "--quiet" => spindle_obs::logger::set_level(LogLevel::Quiet),
            "--jobs" => {
                let Some(v) = args.next() else {
                    bad_usage("--jobs needs a value");
                };
                match spindle_engine::parse_jobs(&v) {
                    Ok(n) => jobs = Some(n),
                    Err(e) => bad_usage(&format!("bad value for --jobs: {e}")),
                }
            }
            other if other.starts_with("--jobs=") => {
                match spindle_engine::parse_jobs(&other["--jobs=".len()..]) {
                    Ok(n) => jobs = Some(n),
                    Err(e) => bad_usage(&format!("bad value for --jobs: {e}")),
                }
            }
            "--help" | "-h" => {
                eprintln!("{}", usage());
                return;
            }
            other if other.starts_with("--") => {
                bad_usage(&format!("unknown flag `{other}`"));
            }
            other => ids.push(other.to_ascii_lowercase()),
        }
    }
    let jobs = jobs.unwrap_or_else(spindle_engine::default_jobs);
    // Inner parallel loops (family generation) size their default pools
    // from this variable, so one flag governs the whole process.
    std::env::set_var(spindle_engine::JOBS_ENV, jobs.to_string());
    // The fault plan: an explicit --faults wins over the environment.
    let plan = match faults_spec {
        Some(spec) => match spindle_harden::FaultPlan::parse(&spec) {
            Ok(p) => Some(p),
            Err(e) => bad_usage(&format!("bad value for --faults: {e}")),
        },
        None => match spindle_harden::plan_from_env() {
            Ok(p) => p,
            Err(e) => bad_usage(&format!("bad {}: {e}", spindle_harden::FAULTS_ENV)),
        },
    };
    let plan = plan.map(Arc::new);
    if let Some(p) = &plan {
        spindle_harden::install(Arc::clone(p));
        progress!("# fault plan: {}", p.spec());
    }
    // A trace context in the environment (the serve daemon mints one
    // per job attempt) installs the recorder just as `--trace-out`
    // does: the spans ship back over the frame protocol at exporter
    // shutdown instead of landing in a local file, and the recorder is
    // bounded to what the exporter ships. Observer-only — stdout stays
    // byte-identical.
    let traced = trace_out.is_some() || spindle_obs::TraceContext::from_env().is_some();
    let recorder = traced.then(|| {
        let rec = Arc::new(if trace_out.is_some() {
            FlightRecorder::new()
        } else {
            FlightRecorder::bounded(spindle_obs::frame::MAX_SHIPPED_SPANS)
        });
        spindle_obs::recorder::install(Arc::clone(&rec));
        rec
    });
    // The simulator observers attach for a trace (the recorder takes
    // their sim-time tracks), for `--metrics`, and for a telemetry sink
    // in the environment (the serve daemon sets one for its children),
    // whose streamed snapshots would otherwise carry no disk counters.
    // Registry-only: stdout and every artifact stay byte-identical.
    let sink = std::env::var(spindle_obs::frame::SINK_ENV).is_ok_and(|v| !v.is_empty());
    if traced || metrics.is_some() || sink {
        pipeline::enable_observability(ObsConfig::metrics_only());
    }
    if ids.is_empty() {
        ids = matrix::EXPERIMENTS
            .iter()
            .map(|(id, _)| (*id).to_owned())
            .collect();
    }
    let cfg = if quick {
        ExpConfig::quick()
    } else {
        ExpConfig::full()
    };
    // Resume: replay completed experiments from the journal; only
    // incomplete or failed ones execute in this process.
    let mut journal: Option<Journal> = None;
    let mut replayed: HashMap<String, JournalEntry> = HashMap::new();
    if let Some(path) = &resume {
        match Journal::open_resume(path, quick, cfg.seed) {
            Ok((j, entries)) => {
                journal = Some(j);
                replayed = entries
                    .into_iter()
                    .filter(|e| e.ok)
                    .map(|e| (e.id.clone(), e))
                    .collect();
            }
            Err(e) => {
                eprintln!("# cannot resume: {e}");
                std::process::exit(2);
            }
        }
    }
    let todo: Vec<String> = ids
        .iter()
        .filter(|id| !replayed.contains_key(*id))
        .cloned()
        .collect();
    if !replayed.is_empty() {
        progress!(
            "# resume: {} of {} experiments already journaled, running {}",
            ids.len() - todo.len(),
            ids.len(),
            todo.len()
        );
    }
    progress!(
        "# config: seed={} ms_span={}s hour_weeks={} family_drives={} jobs={}",
        cfg.seed,
        cfg.ms_span_secs,
        cfg.hour_weeks,
        cfg.family_drives,
        jobs
    );
    // Live telemetry (--serve / --live): strictly read-only over the
    // registry, writing only to stderr/sockets, so stdout and the
    // computed results are byte-identical with or without it.
    let telemetry = match spindle_pulse::Session::start(
        spindle_obs::global(),
        serve.as_ref().map(Option::as_deref),
        live,
        ids.len() as u64,
        "running",
    ) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("# {e}");
            std::process::exit(2);
        }
    };
    // One progress status for every consumer: the session's when a
    // live front end is up, else a private one for the frame exporter
    // alone. The private status never registers the progress counter,
    // so the metrics registry is identical with the exporter off.
    let status = telemetry.as_ref().map_or_else(
        || Arc::new(spindle_pulse::RunStatus::new(ids.len() as u64)),
        |t| Arc::clone(&t.status),
    );
    status.set_phase("running");
    // Journal-replayed experiments are already done.
    for _ in todo.len()..ids.len() {
        status.complete_one();
    }
    // A serve-daemon child (or any run with the telemetry sink
    // variable set) streams snapshots and progress frames back over
    // the local socket; stdout and artifacts are untouched.
    let exporter = spindle_pulse::Exporter::from_env(
        spindle_obs::global(),
        Arc::clone(&status),
        "experiments",
    );
    let mut pool = Pool::new(jobs);
    if metrics.is_some() || telemetry.is_some() || exporter.is_some() {
        // Worker counters feed both the --metrics dump and the live
        // /status worker lanes.
        pool = pool.metrics(PoolMetrics::new(spindle_obs::global()));
    }
    let matrix_start = std::time::Instant::now();
    let mut failed = false;
    let mut outcome = matrix::run_matrix_isolated(&todo, &cfg, &pool, |res| {
        status.complete_one();
        let Some(j) = journal.as_mut() else { return };
        let entry = JournalEntry {
            id: res.id.clone(),
            ok: res.output.is_ok(),
            secs: res.secs,
            output: match &res.output {
                Ok(out) => out.clone(),
                Err(e) => e.to_string(),
            },
        };
        if let Err(e) = j.append(&entry) {
            // A dead journal must not kill the run; it just cannot be
            // resumed past this point.
            eprintln!("# {e}");
        } else if plan.as_ref().is_some_and(|p| p.kill_after(j.records() - 1)) {
            // Injected kill: simulate dying right after this record
            // reached the disk.
            eprintln!("# injected fault: killed after journaling {}", entry.id);
            std::process::exit(KILL_STATUS);
        }
    });
    // Quarantined experiments are journaled as failures so a resumed
    // run retries them.
    if let Some(j) = journal.as_mut() {
        for fail in &outcome.failures {
            let entry = JournalEntry {
                id: todo[fail.ordinal].clone(),
                ok: false,
                secs: 0.0,
                output: fail.payload.clone(),
            };
            if let Err(e) = j.append(&entry) {
                eprintln!("# {e}");
            }
        }
    }
    let total_secs = matrix_start.elapsed().as_secs_f64();
    let quarantined: HashMap<String, String> = outcome
        .failures
        .drain(..)
        .map(|f| (todo[f.ordinal].clone(), f.to_string()))
        .collect();
    let mut fresh: HashMap<String, matrix::MatrixResult> = outcome
        .results
        .drain(..)
        .map(|r| (r.id.clone(), r))
        .collect();
    let mut records = Vec::new();
    for id in &ids {
        if let Some(entry) = replayed.remove(id) {
            records.push(BenchRecord {
                id: entry.id,
                secs: entry.secs,
                ok: true,
            });
            println!("{}", entry.output);
            progress!("# {id} replayed from journal ({:.2}s original)", entry.secs);
        } else if let Some(res) = fresh.remove(id) {
            records.push(BenchRecord {
                id: res.id.clone(),
                secs: res.secs,
                ok: res.output.is_ok(),
            });
            match res.output {
                Ok(output) => {
                    println!("{output}");
                    progress!("# {} done in {:.2}s", res.id, res.secs);
                }
                Err(e) => {
                    // Failures stay visible even under --quiet.
                    eprintln!("# {} FAILED: {e}", res.id);
                    failed = true;
                }
            }
        } else if let Some(failure) = quarantined.get(id) {
            records.push(BenchRecord {
                id: id.clone(),
                secs: 0.0,
                ok: false,
            });
            eprintln!("# {id} FAILED: {failure}");
            failed = true;
        }
    }
    status.set_phase("exporting");
    let total_failures = records.iter().filter(|r| !r.ok).count();
    if total_failures > 0 {
        eprintln!(
            "# {total_failures} of {} experiments failed; surviving output is complete",
            records.len()
        );
    }
    if let Some(path) = record_out {
        let report = BenchReport {
            jobs,
            quick,
            seed: cfg.seed,
            total_secs,
            records,
        };
        match record::write_file_creating_parents(&path, &report.render()) {
            Ok(()) => progress!("# wrote bench record to {path}"),
            Err(e) => {
                eprintln!("# bench record export failed: {e}");
                failed = true;
            }
        }
    }
    if let (Some(rec), Some(path)) = (&recorder, &trace_out) {
        let export = TraceEventSink::full()
            .export_string(rec)
            .map_err(|e| e.to_string())
            .and_then(|json| record::write_file_creating_parents(path, &json));
        match export {
            Ok(()) => {
                progress!("# wrote trace to {path} (load it in Perfetto or chrome://tracing)")
            }
            Err(e) => {
                eprintln!("# trace export failed: {e}");
                failed = true;
            }
        }
    }
    if let Some(format) = metrics {
        let snapshot = spindle_obs::global().snapshot();
        let dump = match format {
            "json" => JsonSink.export_string(&snapshot),
            _ => TextSink.export_string(&snapshot),
        };
        match dump {
            Ok(text) => eprintln!("{text}"),
            Err(e) => eprintln!("# metrics export failed: {e}"),
        }
    }
    // Keep the session's rollup wheel reachable past finish() — the
    // final sample lands during finish, and the export reads after it.
    let rollups = telemetry.as_ref().map(|t| Arc::clone(t.rollups()));
    if let Some(t) = telemetry {
        t.finish();
    }
    if let Some(e) = exporter {
        // After the session's final sample, so the window batches in
        // the exporter's last flush carry the complete wheel.
        e.finish(rollups.as_deref());
    }
    if let Some(path) = timescales_out {
        let doc = match &rollups {
            Some(r) => r.to_json(),
            None => {
                // No live session was running: bank one final snapshot
                // so the file still carries the exact lifetime totals
                // (a single-window document on each resolution).
                let set = spindle_obs::RollupSet::wall();
                set.ingest_snapshot(
                    u64::try_from(matrix_start.elapsed().as_nanos()).unwrap_or(u64::MAX),
                    &spindle_obs::global().snapshot(),
                );
                set.to_json()
            }
        };
        match record::write_file_creating_parents(&path, &format!("{doc}\n")) {
            Ok(()) => progress!("# wrote timescale rollups to {path}"),
            Err(e) => {
                eprintln!("# timescale export failed: {e}");
                failed = true;
            }
        }
    }
    if failed {
        std::process::exit(1);
    }
}
