//! `perfbench-layers`: the in-process half of the spindle benchmark.
//!
//! `perfbench/run.py` drives the release binaries from outside; this
//! helper does what needs the crates' public APIs:
//!
//! ```text
//! perfbench-layers inputs --seed S --dir D --sizes fcfs=N,sstf=N,... --mail-requests N
//! perfbench-layers decode --in FILE --reps K
//! perfbench-layers expect --dir D --scheds fcfs,sstf,look,sptf
//! perfbench-layers layers --dir D --seed S
//! ```
//!
//! Every subcommand prints one JSON document on stdout. Spans carry
//! wall-clock (Unix epoch) nanoseconds so `run.py` can place them on
//! its own timeline.

use rand::rngs::StdRng;
use rand::SeedableRng;
use spindle_core::burstiness::BurstinessAnalysis;
use spindle_core::idle::IdleAnalysis;
use spindle_core::millisecond::MillisecondAnalysis;
use spindle_disk::cache::CacheConfig;
use spindle_disk::obs::SimObserver;
use spindle_disk::profile::DriveProfile;
use spindle_disk::scheduler::SchedulerKind;
use spindle_disk::sim::{DiskSim, SimConfig, SimResult};
use spindle_obs::frame::{Frame, FrameDecoder};
use spindle_obs::json::Json;
use spindle_obs::{FlightRecorder, MetricsRegistry, ObsConfig, RollupSet};
use spindle_stats::acf::acf;
use spindle_stats::dispersion::idc_curve;
use spindle_stats::ecdf::Ecdf;
use spindle_stats::fft::{fft_in_place, Complex};
use spindle_stats::hurst;
use spindle_stats::moments::StreamingMoments;
use spindle_stats::quantile::P2Quantile;
use spindle_stats::timeseries::scale_ladder;
use spindle_synth::arrival::ArrivalModel;
use spindle_synth::family::FamilySpec;
use spindle_synth::fgn::sample_fgn;
use spindle_synth::hourgen::{HourSeriesSpec, WEEK_HOURS};
use spindle_synth::presets::Environment;
use spindle_trace::{binary, text, DriveId, OpKind, Request};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::io::BufReader;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

type Res<T> = Result<T, Box<dyn std::error::Error>>;

/// Open-loop mean inter-arrival of the saturated trace: faster than the
/// drive can serve random I/O, so the queue grows for the whole run.
const SATURATED_MEAN_GAP_NS: f64 = 1_000_000.0;
/// Read share of the saturated trace.
const SATURATED_READ_FRACTION: f64 = 0.7;
/// Request sizes of the saturated trace in sectors (4 KiB to 256 KiB),
/// with their weights.
const SATURATED_SIZES: [(u32, u32); 5] = [(8, 40), (16, 20), (64, 20), (128, 12), (512, 8)];

/// How long each kernel repeats before its median is taken.
const KERNEL_BUDGET: Duration = Duration::from_millis(250);
const KERNEL_MIN_REPS: usize = 3;
const KERNEL_MAX_REPS: usize = 200;

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = match argv.first().map(String::as_str) {
        Some("inputs") => inputs(&Args::parse(&argv[1..])),
        Some("decode") => decode(&Args::parse(&argv[1..])),
        Some("expect") => expect(&Args::parse(&argv[1..])),
        Some("layers") => layers(&Args::parse(&argv[1..])),
        _ => Err("usage: perfbench-layers inputs|decode|expect|layers [--key value ...]".into()),
    };
    match result {
        Ok(doc) => println!("{doc}"),
        Err(e) => {
            eprintln!("perfbench-layers: {e}");
            std::process::exit(1);
        }
    }
}

/// `--key value` pairs.
struct Args(BTreeMap<String, String>);

impl Args {
    fn parse(rest: &[String]) -> Args {
        let mut map = BTreeMap::new();
        for pair in rest.chunks(2) {
            if let [k, v] = pair {
                map.insert(k.trim_start_matches("--").to_owned(), v.clone());
            }
        }
        Args(map)
    }

    fn get(&self, key: &str) -> Res<&str> {
        self.0
            .get(key)
            .map(String::as_str)
            .ok_or_else(|| format!("missing --{key}").into())
    }

    fn num<T: std::str::FromStr>(&self, key: &str) -> Res<T> {
        self.get(key)?
            .parse()
            .map_err(|_| format!("bad value for --{key}").into())
    }
}

/// SplitMix64: the saturated trace's generator. Kept local so the
/// trace depends only on the seed, not on any crate's RNG stream.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in (0, 1).
    fn unit(&mut self) -> f64 {
        ((self.next() >> 11) as f64 + 0.5) / (1u64 << 53) as f64
    }
}

fn saturated_trace(seed: u64, n: usize) -> Res<Vec<Request>> {
    let capacity = DriveProfile::cheetah_15k().geometry()?.total_sectors();
    let weight_total: u32 = SATURATED_SIZES.iter().map(|(_, w)| w).sum();
    let mut rng = SplitMix(seed);
    let mut t = 0.0f64;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        t += -SATURATED_MEAN_GAP_NS * rng.unit().ln();
        let op = if rng.unit() < SATURATED_READ_FRACTION {
            OpKind::Read
        } else {
            OpKind::Write
        };
        let mut pick = (rng.next() % u64::from(weight_total)) as u32;
        let mut sectors = SATURATED_SIZES[0].0;
        for (s, w) in SATURATED_SIZES {
            if pick < w {
                sectors = s;
                break;
            }
            pick -= w;
        }
        let lba = rng.next() % (capacity - u64::from(sectors));
        out.push(Request::new(t as u64, DriveId(0), op, lba, sectors)?);
    }
    Ok(out)
}

/// The first `n` requests of the seeded mail preset. The preset's
/// volume per hour swings several-fold with the seed, so the trace is
/// cut to a fixed request count: the seed varies the content, not the
/// amount of work.
fn mail_trace(seed: u64, n: usize) -> Res<Vec<Request>> {
    let mut span = 3600.0;
    loop {
        let mut reqs = Environment::Mail.spec(span).generate(seed)?;
        if reqs.len() >= n {
            reqs.truncate(n);
            return Ok(reqs);
        }
        if span > 64.0 * 86_400.0 {
            return Err(format!("seed {seed}: the mail preset never reached {n} requests").into());
        }
        span *= 2.0;
    }
}

/// `(scheduler, request count)` pairs from `fcfs=20000,look=10000`.
fn parse_sizes(text: &str) -> Res<Vec<(String, usize)>> {
    text.split(',')
        .map(|item| {
            let (k, v) = item.split_once('=').ok_or("sizes are NAME=COUNT")?;
            Ok((k.to_owned(), v.parse()?))
        })
        .collect()
}

fn saturated_path(dir: &Path, sched: &str) -> PathBuf {
    dir.join(format!("saturated.{sched}.txt"))
}

fn write_text(path: &Path, reqs: &[Request]) -> Res<()> {
    let mut buf = Vec::new();
    text::write_requests(&mut buf, reqs)?;
    std::fs::write(path, buf)?;
    Ok(())
}

/// Writes the seeded inputs: the saturated trace (whole, and one
/// prefix per scheduler) in the text codec, and the light-load mail
/// trace in the binary codec.
fn inputs(args: &Args) -> Res<Json> {
    let seed: u64 = args.num("seed")?;
    let dir = PathBuf::from(args.get("dir")?);
    let sizes = parse_sizes(args.get("sizes")?)?;
    let mail_requests: usize = args.num("mail-requests")?;
    std::fs::create_dir_all(&dir)?;
    let longest = sizes.iter().map(|(_, n)| *n).max().unwrap_or(0);
    let sat = saturated_trace(seed, longest)?;
    write_text(&dir.join("saturated.txt"), &sat)?;
    let mut files = Vec::new();
    for (sched, n) in &sizes {
        write_text(&saturated_path(&dir, sched), &sat[..*n])?;
        files.push((sched.clone(), Json::Uint(*n as u64)));
    }
    let mail = mail_trace(seed, mail_requests)?;
    std::fs::write(dir.join("mail.bin"), binary::encode_requests(&mail))?;
    Ok(obj(vec![
        ("saturated_requests", Json::Obj(files)),
        ("mail_requests", Json::Uint(mail.len() as u64)),
    ]))
}

fn read_text(path: &Path) -> Res<Vec<Request>> {
    Ok(text::read_requests(BufReader::new(std::fs::File::open(
        path,
    )?))?)
}

/// Times the text decode of one trace `reps` times.
fn decode(args: &Args) -> Res<Json> {
    let path = PathBuf::from(args.get("in")?);
    let reps: usize = args.num("reps")?;
    let mut samples = Vec::with_capacity(reps);
    let mut requests = 0;
    for _ in 0..reps {
        let t = Instant::now();
        let reqs = read_text(&path)?;
        samples.push(Json::Num(t.elapsed().as_secs_f64()));
        requests = black_box(reqs).len();
    }
    Ok(obj(vec![
        ("samples_s", Json::Arr(samples)),
        ("requests", Json::Uint(requests as u64)),
    ]))
}

/// The simulator exactly as `spindle simulate` builds it for
/// `--scheduler KIND` with the default profile.
fn cli_sim(kind: SchedulerKind) -> DiskSim {
    let profile = DriveProfile::cheetah_15k();
    let cfg = SimConfig {
        scheduler: kind,
        cache: Some(profile.cache),
        flush_at_end: true,
    };
    DiskSim::new(profile, cfg)
}

/// Relative tolerance of the Little's-law oracle. Both sides are sums
/// over the same integer-nanosecond intervals, so only floating-point
/// summation error separates them.
const LITTLE_TOLERANCE: f64 = 1e-9;

/// Checks the simulator's first-principles invariants on one result
/// and returns the peak number of requests in the system.
fn oracles(input: &[Request], res: &SimResult) -> Result<u64, String> {
    if res.completed.len() != input.len() {
        return Err(format!(
            "{} of {} requests completed",
            res.completed.len(),
            input.len()
        ));
    }
    let key = |r: &Request| (r.arrival_ns, r.lba, r.sectors, r.op.is_read());
    let mut want: Vec<_> = input.iter().map(key).collect();
    let mut got: Vec<_> = res.completed.iter().map(|c| key(&c.request)).collect();
    want.sort_unstable();
    got.sort_unstable();
    if want != got {
        return Err("completed requests differ from the submitted ones".to_owned());
    }
    for c in &res.completed {
        if c.start_ns < c.request.arrival_ns || c.complete_ns < c.start_ns {
            return Err(format!(
                "request at {} ns: start {} / completion {} out of order",
                c.request.arrival_ns, c.start_ns, c.complete_ns
            ));
        }
    }
    let util = res.utilization();
    if util.is_nan() || util > 1.0 {
        return Err(format!("utilization {util} > 1"));
    }
    if res.busy.total_busy_ns() > res.busy.span_ns() {
        return Err(format!(
            "busy {} ns exceeds span {} ns",
            res.busy.total_busy_ns(),
            res.busy.span_ns()
        ));
    }
    // Little's law over [first arrival, last completion]: the time
    // integral of the number in system (swept from the event stream)
    // must equal arrival rate x window x mean response.
    let mut events: Vec<(u64, i64)> = Vec::with_capacity(2 * res.completed.len());
    for c in &res.completed {
        events.push((c.request.arrival_ns, 1));
        events.push((c.complete_ns, -1));
    }
    // Departures before arrivals at equal times.
    events.sort_unstable();
    let (t0, t1) = (events[0].0, events[events.len() - 1].0);
    let (mut n, mut peak, mut area, mut last) = (0i64, 0i64, 0u128, t0);
    for (t, d) in events {
        area += (n as u128) * u128::from(t - last);
        last = t;
        n += d;
        peak = peak.max(n);
    }
    let window = (t1 - t0) as f64;
    let l = area as f64 / window;
    let lambda = res.completed.len() as f64 / window;
    let w = res
        .completed
        .iter()
        .map(|c| c.response_ns() as f64)
        .sum::<f64>()
        / res.completed.len() as f64;
    let err = (l - lambda * w).abs() / l.max(f64::MIN_POSITIVE);
    if err > LITTLE_TOLERANCE {
        return Err(format!(
            "Little's law off by {err:e} (L={l}, lambda*W={})",
            lambda * w
        ));
    }
    Ok(peak as u64)
}

/// Replays each scheduler's saturated prefix through the library with
/// the CLI's configuration: the expected `simulate` summary, the
/// simulator oracles, and the in-process decode and simulation times.
fn expect(args: &Args) -> Res<Json> {
    let dir = PathBuf::from(args.get("dir")?);
    let mut spans = Spans::default();
    let mut out = Vec::new();
    for sched in args.get("scheds")?.split(',') {
        let kind = SchedulerKind::parse(sched)?;
        let path = saturated_path(&dir, sched);
        let bytes = std::fs::metadata(&path)?.len();
        let t = spans.begin();
        let reqs = read_text(&path)?;
        let decode_s = spans.end(t, &format!("trace.decode.{sched}"), "trace");
        let t = spans.begin();
        let res = cli_sim(kind).run(&reqs)?;
        let sim_s = spans.end(t, &format!("disk.run.{sched}"), "disk");
        let peak = oracles(&reqs, &res).map_err(|e| format!("{sched}: oracle failed: {e}"))?;
        out.push((
            sched.to_owned(),
            obj(vec![
                ("requests", Json::Uint(res.completed.len() as u64)),
                ("bytes", Json::Uint(bytes)),
                ("utilization", Json::Num(res.utilization())),
                ("mean_response_ms", Json::Num(res.mean_response_ms())),
                ("writes_cached", Json::Uint(res.writes_cached)),
                ("writes_forced", Json::Uint(res.writes_forced)),
                ("destages", Json::Uint(res.destages)),
                ("decode_s", Json::Num(decode_s)),
                ("sim_s", Json::Num(sim_s)),
                ("backlog_peak", Json::Uint(peak)),
            ]),
        ));
    }
    Ok(obj(vec![
        ("schedulers", Json::Obj(out)),
        ("spans", spans.to_json()),
    ]))
}

/// Completed spans in epoch nanoseconds; `run.py` nests them by time
/// containment.
#[derive(Default)]
struct Spans(Vec<(String, String, u64, u64)>);

impl Spans {
    fn begin(&self) -> (u64, Instant) {
        (epoch_ns(), Instant::now())
    }

    /// Closes a span opened by [`Spans::begin`]; returns its seconds.
    fn end(&mut self, (start_ns, t): (u64, Instant), name: &str, layer: &str) -> f64 {
        let dur = t.elapsed();
        let end_ns = start_ns + u64::try_from(dur.as_nanos()).unwrap_or(u64::MAX);
        self.0
            .push((name.to_owned(), layer.to_owned(), start_ns, end_ns));
        dur.as_secs_f64()
    }

    fn to_json(&self) -> Json {
        Json::Arr(
            self.0
                .iter()
                .map(|(name, layer, s, e)| {
                    obj(vec![
                        ("name", Json::Str(name.clone())),
                        ("layer", Json::Str(layer.clone())),
                        ("start_ns", Json::Uint(*s)),
                        ("end_ns", Json::Uint(*e)),
                    ])
                })
                .collect(),
        )
    }
}

fn epoch_ns() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| u64::try_from(d.as_nanos()).unwrap_or(u64::MAX))
}

fn obj(members: Vec<(&str, Json)>) -> Json {
    Json::Obj(
        members
            .into_iter()
            .map(|(k, v)| (k.to_owned(), v))
            .collect(),
    )
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

/// The per-layer kernel suite. Each kernel repeats for about
/// [`KERNEL_BUDGET`] and reports the median repetition.
struct Suite {
    spans: Spans,
    metrics: Vec<(String, Json)>,
}

impl Suite {
    /// Times `f` and returns the median seconds per call.
    fn time<T>(&mut self, name: &str, layer: &str, mut f: impl FnMut() -> T) -> f64 {
        let t = self.spans.begin();
        let mut samples = Vec::new();
        let loop_start = Instant::now();
        while samples.len() < KERNEL_MIN_REPS
            || (loop_start.elapsed() < KERNEL_BUDGET && samples.len() < KERNEL_MAX_REPS)
        {
            let t = Instant::now();
            black_box(f());
            samples.push(t.elapsed().as_secs_f64());
        }
        self.spans.end(t, name, layer);
        median(samples)
    }

    /// Records `units / median seconds` under `metric`.
    fn rate<T>(&mut self, metric: &str, layer: &str, units: f64, f: impl FnMut() -> T) {
        let secs = self.time(metric, layer, f);
        self.put(metric, units / secs);
    }

    fn put(&mut self, metric: &str, value: f64) {
        self.metrics.push((metric.to_owned(), Json::Num(value)));
    }
}

fn series(n: usize) -> Vec<f64> {
    let mut state = 0x0123_4567_89AB_CDEFu64;
    (0..n)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 11) as f64 + 0.5) / (1u64 << 53) as f64 * 10.0
        })
        .collect()
}

const MB: f64 = 1e6;

fn layers(args: &Args) -> Res<Json> {
    let dir = PathBuf::from(args.get("dir")?);
    let seed: u64 = args.num("seed")?;
    let mut s = Suite {
        spans: Spans::default(),
        metrics: Vec::new(),
    };
    synth_layer(&mut s, seed)?;
    let mail = binary::decode_requests(&std::fs::read(dir.join("mail.bin"))?)?;
    trace_layer(&mut s, &dir)?;
    disk_layer(&mut s, &mail)?;
    obs_layer(&mut s, &mail)?;
    stats_layer(&mut s)?;
    let t = s.spans.begin();
    let res = cli_sim(SchedulerKind::Sptf).run(&mail)?;
    let analysis_s = s.time("core.millisecond_analysis", "core", || {
        millisecond_analysis(&mail, &res)
    });
    s.spans.end(t, "core", "core");
    s.put("core.millisecond_analysis_s", analysis_s);
    serve_layer(&mut s, &dir)?;
    Ok(obj(vec![
        ("metrics", Json::Obj(s.metrics)),
        ("spans", s.spans.to_json()),
    ]))
}

/// Idle-time thresholds of the availability table, in seconds.
const AVAILABILITY_THRESHOLDS: [f64; 6] = [0.01, 0.1, 0.5, 1.0, 5.0, 30.0];

/// The millisecond-scale characterization `spindle analyze` prints:
/// workload summary, utilization series, idleness and burstiness.
fn millisecond_analysis(mail: &[Request], res: &SimResult) -> Res<usize> {
    let a = MillisecondAnalysis::new(mail, res)?;
    let summary = a.summary()?;
    let util = a.utilization_series(1.0)?;
    black_box(a.response_moments());
    let idle = IdleAnalysis::new(&res.busy)?;
    black_box(idle.availability(&AVAILABILITY_THRESHOLDS));
    black_box(idle.idle_cdf()?);
    black_box(idle.fit_idle_distribution()?);
    let b = BurstinessAnalysis::new(&a.arrival_times_secs(), summary.span_secs, 1.0)?;
    black_box(b.hurst()?);
    black_box(b.correlation_horizon(100.min(mail.len() / 2))?);
    Ok(black_box(b.idc_curve()?).len() + util.len())
}

fn synth_layer(s: &mut Suite, seed: u64) -> Res<()> {
    let t = s.spans.begin();
    for env in Environment::all() {
        let n = env.spec(600.0).generate(seed)?.len() as f64;
        let metric = format!("synth.workload_req_per_s.{}", env_name(env));
        s.rate(&metric, "synth", n, || env.spec(600.0).generate(seed));
    }
    let family = FamilySpec {
        drives: 50,
        template: HourSeriesSpec {
            hours: 2 * WEEK_HOURS,
            ..Default::default()
        },
        ..Default::default()
    };
    s.rate("synth.family_drives_per_s", "synth", 50.0, || {
        family.generate(seed)
    });
    let hours = HourSeriesSpec {
        hours: 8 * WEEK_HOURS,
        ..Default::default()
    };
    s.rate(
        "synth.hourgen_hours_per_s",
        "synth",
        f64::from(8 * WEEK_HOURS),
        || hours.generate(seed),
    );
    let models: [(&str, ArrivalModel); 4] = [
        ("poisson", ArrivalModel::Poisson { rate: 50.0 }),
        (
            "mmpp2",
            ArrivalModel::Mmpp2 {
                rate_low: 5.0,
                rate_high: 200.0,
                mean_sojourn_low: 2.0,
                mean_sojourn_high: 0.5,
            },
        ),
        (
            "pareto_on_off",
            ArrivalModel::ParetoOnOff {
                sources: 16,
                alpha: 1.4,
                mean_sojourn: 2.0,
                rate_on: 6.0,
            },
        ),
        (
            "fgn_rate",
            ArrivalModel::FgnRate {
                hurst: 0.85,
                mean_rate: 50.0,
                sigma: 0.8,
                interval_secs: 1.0,
            },
        ),
    ];
    for (name, model) in models {
        let n = model
            .generate(600.0, &mut StdRng::seed_from_u64(seed))?
            .len() as f64;
        s.rate(
            &format!("synth.arrival_events_per_s.{name}"),
            "synth",
            n,
            || model.generate(600.0, &mut StdRng::seed_from_u64(seed)),
        );
    }
    for (label, n) in [("4k", 4_096usize), ("64k", 65_536)] {
        s.rate(
            &format!("synth.fgn_samples_per_s.{label}"),
            "synth",
            n as f64,
            || sample_fgn(0.85, n, &mut StdRng::seed_from_u64(seed)),
        );
    }
    s.spans.end(t, "synth", "synth");
    Ok(())
}

fn env_name(env: Environment) -> &'static str {
    match env {
        Environment::Mail => "mail",
        Environment::Web => "web",
        Environment::Dev => "dev",
        Environment::Archive => "archive",
    }
}

fn trace_layer(s: &mut Suite, dir: &Path) -> Res<()> {
    let t = s.spans.begin();
    let text_bytes = std::fs::read(dir.join("saturated.txt"))?;
    let bin_bytes = std::fs::read(dir.join("mail.bin"))?;
    s.rate(
        "trace.text_decode_mb_per_s",
        "trace",
        text_bytes.len() as f64 / MB,
        || text::read_requests(text_bytes.as_slice()),
    );
    s.rate(
        "trace.binary_decode_mb_per_s",
        "trace",
        bin_bytes.len() as f64 / MB,
        || binary::decode_requests(&bin_bytes),
    );
    let reqs = text::read_requests(text_bytes.as_slice())?;
    s.rate(
        "trace.text_encode_mb_per_s",
        "trace",
        text_bytes.len() as f64 / MB,
        || {
            let mut buf = Vec::with_capacity(text_bytes.len());
            text::write_requests(&mut buf, &reqs).map(|()| buf)
        },
    );
    s.spans.end(t, "trace", "trace");
    Ok(())
}

/// ns per request of one `DiskSim::run` built by `make`.
fn sim_rate(s: &mut Suite, metric: &str, reqs: &[Request], make: impl Fn() -> DiskSim) {
    let secs = s.time(metric, "disk", || make().run(reqs));
    s.put(metric, secs * 1e9 / reqs.len() as f64);
}

fn disk_layer(s: &mut Suite, mail: &[Request]) -> Res<()> {
    let t = s.spans.begin();
    sim_rate(s, "disk.ns_per_req.light", mail, || {
        cli_sim(SchedulerKind::Sptf)
    });
    // The criterion-era kernels: a 600 s (and 300 s) mail trace under
    // each scheduler, cache mode and drive profile.
    let mail600 = Environment::Mail.spec(600.0).generate(1234)?;
    for kind in SchedulerKind::all() {
        let cfg = SimConfig {
            scheduler: kind,
            ..SimConfig::default()
        };
        sim_rate(
            s,
            &format!("disk.mail_ns_per_req.{}", kind.to_string().to_lowercase()),
            &mail600,
            || DiskSim::new(DriveProfile::cheetah_15k(), cfg),
        );
    }
    for (name, cache) in [
        ("default", CacheConfig::default()),
        ("disabled", CacheConfig::disabled()),
    ] {
        let cfg = SimConfig {
            cache: Some(cache),
            ..SimConfig::default()
        };
        sim_rate(
            s,
            &format!("disk.cache_ns_per_req.{name}"),
            &mail600,
            || DiskSim::new(DriveProfile::cheetah_15k(), cfg),
        );
    }
    let mail300 = Environment::Mail.spec(300.0).generate(1234)?;
    for profile in DriveProfile::all() {
        sim_rate(
            s,
            &format!("disk.profile_ns_per_req.{}", profile.name),
            &mail300,
            || DiskSim::new(profile.clone(), SimConfig::default()),
        );
    }
    s.spans.end(t, "disk", "disk");
    Ok(())
}

/// Builds the observer of one observability level (`None`: detached).
type MakeObserver = fn() -> Option<SimObserver>;

fn obs_layer(s: &mut Suite, mail: &[Request]) -> Res<()> {
    let t = s.spans.begin();
    let levels: [(&str, MakeObserver); 5] = [
        ("off", || None),
        ("metrics", || {
            Some(SimObserver::new(
                &MetricsRegistry::new(),
                &ObsConfig::metrics_only(),
            ))
        }),
        ("events", || {
            Some(SimObserver::new(
                &MetricsRegistry::new(),
                &ObsConfig::enabled(),
            ))
        }),
        ("rollups", || {
            Some(
                SimObserver::new(&MetricsRegistry::new(), &ObsConfig::metrics_only())
                    .with_rollups(Arc::new(RollupSet::sim())),
            )
        }),
        ("flight", || {
            Some(
                SimObserver::new(&MetricsRegistry::new(), &ObsConfig::enabled())
                    .with_flight(Arc::new(FlightRecorder::new())),
            )
        }),
    ];
    for (name, make) in levels {
        let metric = format!("obs.observer_ns_per_req.{name}");
        let secs = s.time(&metric, "obs", || {
            let mut sim = cli_sim(SchedulerKind::Sptf);
            if let Some(o) = make() {
                sim.attach_observer(o);
            }
            sim.run(mail)
        });
        s.put(&metric, secs * 1e9 / mail.len() as f64);
    }
    // A realistic snapshot frame: the registry after one observed run.
    let registry = MetricsRegistry::new();
    let mut sim = cli_sim(SchedulerKind::Sptf);
    sim.attach_observer(SimObserver::new(&registry, &ObsConfig::metrics_only()));
    sim.run(mail)?;
    let frame = Frame::Snapshot {
        t_ns: 1,
        snapshot: registry.snapshot(),
    };
    let batch: Vec<u8> = (0..64).flat_map(|_| frame.encode()).collect();
    let mb = batch.len() as f64 / MB;
    s.rate("obs.frame_encode_mb_per_s", "obs", mb, || {
        (0..64).map(|_| frame.encode().len()).sum::<usize>()
    });
    let mut decoded = 0;
    let decode_secs = s.time("obs.frame_decode_mb_per_s", "obs", || {
        let mut dec = FrameDecoder::new();
        dec.push(&batch);
        let mut n = 0;
        while let Ok(Some(f)) = dec.next_frame() {
            black_box(f);
            n += 1;
        }
        decoded = n;
        n
    });
    if decoded != 64 {
        return Err(format!("frame decoder returned {decoded} of 64 frames").into());
    }
    s.put("obs.frame_decode_mb_per_s", mb / decode_secs);
    s.spans.end(t, "obs", "obs");
    Ok(())
}

fn stats_layer(s: &mut Suite) -> Res<()> {
    let t = s.spans.begin();
    let d100k = series(100_000);
    s.rate("stats.moments_samples_per_s", "stats", 1e5, || {
        StreamingMoments::from_slice(&d100k)
    });
    s.rate("stats.p2_quantile_samples_per_s", "stats", 1e5, || {
        let mut q = P2Quantile::new(0.99).expect("0.99 is a valid quantile");
        for &x in &d100k {
            q.push(x);
        }
        q.estimate()
    });
    s.rate("stats.ecdf_build_samples_per_s", "stats", 1e5, || {
        Ecdf::new(d100k.clone())
    });
    for (metric, n) in [
        ("stats.acf_4k_samples_per_s", 4_096usize),
        ("stats.acf_samples_per_s", 16_384),
    ] {
        let d = series(n);
        s.rate(metric, "stats", n as f64, || acf(&d, 100));
    }
    for (metric, n) in [
        ("stats.fft_1k_samples_per_s", 1_024usize),
        ("stats.fft_samples_per_s", 16_384),
    ] {
        let d: Vec<Complex> = series(n).into_iter().map(Complex::from_real).collect();
        s.rate(metric, "stats", n as f64, || {
            let mut buf = d.clone();
            fft_in_place(&mut buf).map(|()| buf)
        });
    }
    let d16k = series(16_384);
    s.rate("stats.hurst_rs_samples_per_s", "stats", 16_384.0, || {
        hurst::rescaled_range(&d16k)
    });
    s.rate(
        "stats.hurst_aggvar_samples_per_s",
        "stats",
        16_384.0,
        || hurst::aggregated_variance(&d16k),
    );
    s.rate(
        "stats.hurst_periodogram_samples_per_s",
        "stats",
        16_384.0,
        || hurst::periodogram_estimate(&d16k, 0.1),
    );
    let d64k = series(65_536);
    let ladder = scale_ladder(d64k.len(), 16);
    s.rate("stats.idc_samples_per_s", "stats", 65_536.0, || {
        idc_curve(&d64k, &ladder)
    });
    s.spans.end(t, "stats", "stats");
    Ok(())
}

/// Journal appends are write + flush + fsync, one per admission.
const JOURNAL_APPENDS: usize = 50;

fn serve_layer(s: &mut Suite, dir: &Path) -> Res<()> {
    let t = s.spans.begin();
    let path = dir.join("journal-bench.jsonl");
    let spec = spindle_serve::spec::JobSpec::parse(r#"{"kind":"simulate","input":"mail.bin"}"#)?;
    let mut journal = spindle_serve::journal::Journal::create(&path)?;
    let mut samples = Vec::with_capacity(JOURNAL_APPENDS);
    for i in 0..JOURNAL_APPENDS {
        let t = Instant::now();
        journal.submitted(&format!("job-{i:04}"), &spec)?;
        samples.push(t.elapsed().as_secs_f64() * 1e6);
    }
    drop(journal);
    std::fs::remove_file(&path)?;
    s.put("serve.journal_fsync_us", median(samples));
    s.spans.end(t, "serve.journal_append", "serve");
    Ok(())
}
