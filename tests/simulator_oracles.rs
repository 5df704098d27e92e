//! First-principles oracles for the disk simulator, swept over every
//! workload preset × every scheduler.
//!
//! Whatever the workload and queue policy, a single-server simulation
//! must satisfy:
//!
//! * every request completes exactly once, starts no earlier than it
//!   arrives and completes no earlier than it starts;
//! * busy + idle = span, and utilization ≤ 1;
//! * Little's law: the time-integral of the number of requests in the
//!   system, swept over arrivals and completions, equals the sum of the
//!   response times (so mean number in system = λ · mean response).
//!
//! The presets live in `spindle-synth`, which `spindle-disk` cannot
//! depend on, so the sweep is a cross-crate test.

use spindle_disk::profile::DriveProfile;
use spindle_disk::scheduler::SchedulerKind;
use spindle_disk::sim::{DiskSim, SimConfig, SimResult};
use spindle_synth::presets::Environment;
use spindle_trace::Request;

/// Simulated seconds per preset: long enough for queueing, destages and
/// idle gaps, short enough to keep the sweep to seconds in debug.
const SPAN_SECS: f64 = 600.0;

/// The first non-empty stream the preset generates. A short span can
/// legitimately come out empty for the session-gated presets (one
/// off-sojourn may cover it), and an empty stream proves nothing.
fn workload(env: Environment) -> Vec<Request> {
    (1..=16u64)
        .map(|seed| {
            env.spec(SPAN_SECS)
                .generate(seed)
                .expect("generation succeeds")
        })
        .find(|reqs| !reqs.is_empty())
        .unwrap_or_else(|| panic!("{env}: every seed generated an empty stream"))
}

/// ∫ N(t) dt in request·ns, swept over the arrival (+1) and completion (−1)
/// instants in time order.
fn number_in_system_integral(result: &SimResult) -> f64 {
    let mut steps: Vec<(u64, i64)> = result
        .completed
        .iter()
        .flat_map(|c| [(c.request.arrival_ns, 1), (c.complete_ns, -1)])
        .collect();
    // Arrivals before completions at the same instant, so N never dips
    // below zero at a tie.
    steps.sort_unstable_by_key(|&(t, delta)| (t, -delta));
    let (mut area, mut in_system, mut last) = (0.0f64, 0i64, 0u64);
    for (t, delta) in steps {
        area += in_system as f64 * (t - last) as f64;
        in_system += delta;
        assert!(in_system >= 0, "more completions than arrivals by {t} ns");
        last = t;
    }
    assert_eq!(in_system, 0, "every arrival completes");
    area
}

fn check_oracles(env: Environment, kind: SchedulerKind, reqs: &[Request]) {
    let label = format!("{env}/{kind}");
    let mut sim = DiskSim::new(
        DriveProfile::cheetah_15k(),
        SimConfig {
            scheduler: kind,
            ..SimConfig::default()
        },
    );
    let result = sim.run(reqs).expect("simulation succeeds");

    // Exactly-once completion.
    let mut served: Vec<Request> = result.completed.iter().map(|c| c.request).collect();
    let mut issued = reqs.to_vec();
    let key = |r: &Request| (r.arrival_ns, r.lba, r.sectors);
    served.sort_unstable_by_key(key);
    issued.sort_unstable_by_key(key);
    assert_eq!(served, issued, "{label}: every request completes once");

    for c in &result.completed {
        assert!(
            c.start_ns >= c.request.arrival_ns,
            "{label}: start < arrival"
        );
        assert!(c.complete_ns >= c.start_ns, "{label}: completion < start");
    }

    let busy = &result.busy;
    assert_eq!(
        busy.total_busy_ns() + busy.total_idle_ns(),
        busy.span_ns(),
        "{label}: busy + idle = span"
    );
    let u = result.utilization();
    assert!((0.0..=1.0).contains(&u), "{label}: utilization {u}");

    let area = number_in_system_integral(&result);
    let response: f64 = result
        .completed
        .iter()
        .map(|c| c.response_ns() as f64)
        .sum();
    assert!(
        (area - response).abs() <= 1e-9 * response.max(1.0),
        "{label}: ∫N dt = {area} request·ns, Σ response = {response} ns"
    );
}

#[test]
fn every_preset_and_scheduler_obeys_the_oracles() {
    for env in Environment::all() {
        let reqs = workload(env);
        for kind in SchedulerKind::all() {
            check_oracles(env, kind, &reqs);
        }
    }
}
