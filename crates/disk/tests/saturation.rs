//! The simulator at saturation: a seeded open-loop stream that outruns
//! the drive, so the queue holds thousands of requests for the whole
//! run.
//!
//! Two kinds of check run over it for every scheduler. Golden digests
//! pin the exact schedule (every request's start and completion plus
//! the busy periods) to the figures the linear-scan schedulers
//! produced, so a faster queue cannot silently change a result. The
//! oracles check the service process itself: every request completes
//! once, time never runs backwards, busy and idle time tile the span,
//! and FCFS without a cache follows the Lindley recursion.

use spindle_disk::cache::CacheConfig;
use spindle_disk::profile::DriveProfile;
use spindle_disk::scheduler::SchedulerKind;
use spindle_disk::sim::{DiskSim, SimConfig, SimResult};
use spindle_trace::{DriveId, OpKind, Request};

/// Requests in the saturated stream.
const REQUESTS: usize = 5_000;

/// SplitMix64: a tiny, fully specified generator, so the stream (and
/// with it the golden digests) depends on nothing outside this file.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// `n` requests with uniform gaps in `[0, 2 * mean_gap_ns]`, uniform
/// LBAs over the drive, 70% reads, and 4–256 KiB transfers. A
/// `mean_gap_ns` of zero makes everything arrive at once.
fn stream(seed: u64, n: usize, mean_gap_ns: u64, capacity: u64) -> Vec<Request> {
    let mut rng = SplitMix64(seed);
    let mut t = 0u64;
    (0..n)
        .map(|_| {
            t += rng.next() % (2 * mean_gap_ns + 1);
            let sectors = 8u32 << (rng.next() % 7);
            let lba = rng.next() % (capacity - u64::from(sectors));
            let op = if rng.next() % 10 < 7 {
                OpKind::Read
            } else {
                OpKind::Write
            };
            Request::new(t, DriveId(0), op, lba, sectors).expect("valid request")
        })
        .collect()
}

fn saturated() -> Vec<Request> {
    let capacity = DriveProfile::cheetah_15k()
        .mechanics()
        .expect("built-in profile")
        .geometry()
        .total_sectors();
    stream(0x5EED_0001, REQUESTS, 1_000_000, capacity)
}

fn simulate(scheduler: SchedulerKind, cache: Option<CacheConfig>, reqs: &[Request]) -> SimResult {
    let cfg = SimConfig {
        scheduler,
        cache,
        ..SimConfig::default()
    };
    DiskSim::new(DriveProfile::cheetah_15k(), cfg)
        .run(reqs)
        .expect("valid stream")
}

/// FNV-1a over every completed request (arrival, lba, start,
/// completion, cache hit) in completion order, then the busy periods.
fn digest(result: &SimResult) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    let mut feed = |v: u64| {
        for b in v.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3);
        }
    };
    for c in &result.completed {
        feed(c.request.arrival_ns);
        feed(c.request.lba);
        feed(c.start_ns);
        feed(c.complete_ns);
        feed(u64::from(c.cache_hit));
    }
    for &(start, end) in result.busy.periods() {
        feed(start);
        feed(end);
    }
    h
}

#[test]
fn schedules_match_the_linear_scan_golden_digests() {
    // Recorded with the linear-scan (Vec + remove) schedulers.
    let golden = [
        (SchedulerKind::Fcfs, 0xc09b_92e8_219e_ffc5u64),
        (SchedulerKind::Sstf, 0x3c49_cfa2_0fd2_b4ec),
        (SchedulerKind::Look, 0x3fb4_7027_c2d3_220e),
        (SchedulerKind::Sptf, 0x7c38_283e_e342_5873),
    ];
    let reqs = saturated();
    let mismatches: Vec<String> = golden
        .iter()
        .filter_map(|&(kind, want)| {
            let got = digest(&simulate(kind, None, &reqs));
            (got != want).then(|| format!("{kind}: got {got:#018x}, want {want:#018x}"))
        })
        .collect();
    assert!(mismatches.is_empty(), "{}", mismatches.join("; "));
}

#[test]
fn every_request_completes_exactly_once_in_causal_order() {
    let reqs = saturated();
    let mut want: Vec<Request> = reqs.clone();
    want.sort_by_key(|r| (r.arrival_ns, r.lba, r.sectors));
    for kind in SchedulerKind::all() {
        let result = simulate(kind, None, &reqs);
        let mut got: Vec<Request> = result.completed.iter().map(|c| c.request).collect();
        got.sort_by_key(|r| (r.arrival_ns, r.lba, r.sectors));
        assert_eq!(got, want, "{kind}: completed set differs from the input");
        for c in &result.completed {
            assert!(
                c.start_ns >= c.request.arrival_ns,
                "{kind}: start before arrival"
            );
            assert!(
                c.complete_ns >= c.start_ns,
                "{kind}: completion before start"
            );
        }
    }
}

#[test]
fn busy_and_idle_tile_the_span_at_saturation() {
    let reqs = saturated();
    for kind in SchedulerKind::all() {
        let result = simulate(kind, None, &reqs);
        let busy = &result.busy;
        assert_eq!(
            busy.total_busy_ns() + busy.total_idle_ns(),
            busy.span_ns(),
            "{kind}: busy + idle != span"
        );
        let u = result.utilization();
        assert!(u <= 1.0, "{kind}: utilization {u}");
        assert!(
            u > 0.9,
            "{kind}: a saturated stream left the drive idle ({u})"
        );
    }
}

#[test]
fn fcfs_without_cache_follows_the_lindley_recursion() {
    let reqs = saturated();
    let result = simulate(SchedulerKind::Fcfs, Some(CacheConfig::disabled()), &reqs);
    assert_eq!(result.completed.len(), reqs.len());
    let mut prev_complete = 0u64;
    for (i, c) in result.completed.iter().enumerate() {
        assert_eq!(c.request, reqs[i], "FCFS served out of arrival order");
        // Each start is rounded from the exact instant independently of
        // the previous completion, so allow one nanosecond.
        let lindley = c.request.arrival_ns.max(prev_complete);
        assert!(
            c.start_ns.abs_diff(lindley) <= 1,
            "request {i}: start {} vs Lindley {lindley}",
            c.start_ns
        );
        prev_complete = c.complete_ns;
    }
}

/// Everything arrives at once (`max_start_time = 0`), so the whole
/// stream is queued before the first dispatch: the deepest backlog a
/// stream of this length can build. Asserts no timing: a scheduler
/// that rescans the queue on every dispatch turns this into minutes of
/// work, and `scripts/check.sh` runs it under a timeout in release
/// mode, so such a regression fails as a hang.
#[test]
fn all_at_once_backlog_drains_under_every_scheduler() {
    const BACKLOG: usize = 100_000;
    let capacity = DriveProfile::cheetah_15k()
        .mechanics()
        .expect("built-in profile")
        .geometry()
        .total_sectors();
    let reqs = stream(0x5EED_0002, BACKLOG, 0, capacity);
    for kind in SchedulerKind::all() {
        let result = simulate(kind, None, &reqs);
        assert_eq!(result.completed.len(), BACKLOG, "{kind}");
    }
}
