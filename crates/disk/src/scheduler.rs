//! Request queue scheduling disciplines.
//!
//! Four classical policies are provided. Each keeps the queue of
//! *arrived, unserviced* requests in a structure ordered for its own
//! choice, and picks which request to service next from the head
//! position and (for SPTF) the mechanical model. Scheduling is
//! non-preemptive, as in real drive firmware.
//!
//! FCFS keeps arrival order in a `VecDeque`; the other three keep a
//! `BTreeMap` keyed by `(track, id)`, so the requests nearest any head
//! position are an ordered range lookup away. Every policy breaks ties
//! toward the earliest arrival, i.e. the lowest id.

use crate::mechanics::Mechanics;
use crate::{DiskError, Result};
use spindle_trace::Request;
use std::collections::{BTreeMap, VecDeque};
use std::fmt;

/// A request waiting for the mechanism.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Queued {
    /// Identifier assigned by the simulator: the request's position in
    /// the stream, so ids grow with arrival.
    pub(crate) id: u64,
    /// Target track (precomputed by the simulator).
    pub(crate) track: u64,
    /// The request itself.
    pub(crate) request: Request,
}

/// `(track, id)`: orders the queue by track, then by arrival.
type Key = (u64, u64);

/// Queued requests in [`Key`] order.
type TrackMap = BTreeMap<Key, Request>;

/// The queue of arrived, unserviced requests, organised for one policy.
#[derive(Debug)]
pub(crate) enum RequestQueue {
    /// First-come, first-served: arrival order.
    Fcfs(VecDeque<Queued>),
    /// Shortest seek time first: the request on the track closest to
    /// the head.
    Sstf(TrackMap),
    /// LOOK (elevator): services requests in the current sweep
    /// direction, reversing when no request remains ahead of the head.
    /// The direction outlives [`RequestQueue::clear`].
    Look {
        /// The queued requests.
        queue: TrackMap,
        /// Whether the sweep is moving toward higher tracks.
        ascending: bool,
    },
    /// Shortest positioning time first: minimizes seek **plus
    /// rotational** delay using the mechanical model — the policy real
    /// enterprise firmware approximates.
    Sptf(TrackMap),
}

impl RequestQueue {
    /// An empty queue for `kind`; LOOK starts ascending.
    pub(crate) fn new(kind: SchedulerKind) -> Self {
        match kind {
            SchedulerKind::Fcfs => RequestQueue::Fcfs(VecDeque::new()),
            SchedulerKind::Sstf => RequestQueue::Sstf(TrackMap::new()),
            SchedulerKind::Look => RequestQueue::Look {
                queue: TrackMap::new(),
                ascending: true,
            },
            SchedulerKind::Sptf => RequestQueue::Sptf(TrackMap::new()),
        }
    }

    /// Number of queued requests.
    pub(crate) fn len(&self) -> usize {
        match self {
            RequestQueue::Fcfs(q) => q.len(),
            RequestQueue::Sstf(q) | RequestQueue::Look { queue: q, .. } | RequestQueue::Sptf(q) => {
                q.len()
            }
        }
    }

    /// True when no request is queued.
    pub(crate) fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every queued request. LOOK keeps its sweep direction.
    pub(crate) fn clear(&mut self) {
        match self {
            RequestQueue::Fcfs(q) => q.clear(),
            RequestQueue::Sstf(q) | RequestQueue::Look { queue: q, .. } | RequestQueue::Sptf(q) => {
                q.clear()
            }
        }
    }

    /// Queues a request. Ids must grow with each push.
    pub(crate) fn push(&mut self, q: Queued) {
        match self {
            RequestQueue::Fcfs(queue) => queue.push_back(q),
            RequestQueue::Sstf(map)
            | RequestQueue::Look { queue: map, .. }
            | RequestQueue::Sptf(map) => {
                map.insert((q.track, q.id), q.request);
            }
        }
    }

    /// Removes and returns the request to service next with the head on
    /// `head` at `now_ns`, or `None` when the queue is empty.
    pub(crate) fn pop(&mut self, head: u64, now_ns: f64, m: &Mechanics) -> Option<Queued> {
        let (map, key) = match self {
            RequestQueue::Fcfs(queue) => return queue.pop_front(),
            // A lone request is the only choice (LOOK still has to
            // settle its sweep direction).
            RequestQueue::Sstf(map) | RequestQueue::Sptf(map) if map.len() <= 1 => {
                return map.pop_first().map(from_entry);
            }
            RequestQueue::Sstf(map) => {
                let key = nearest(map, head)?;
                (map, key)
            }
            RequestQueue::Look { queue, ascending } => {
                if queue.is_empty() {
                    return None;
                }
                let key = match ahead(queue, head, *ascending) {
                    Some(key) => key,
                    None => {
                        *ascending = !*ascending;
                        ahead(queue, head, *ascending)
                            .expect("non-empty queue has a request in some direction")
                    }
                };
                (queue, key)
            }
            RequestQueue::Sptf(map) => {
                let key = shortest_positioning(map, head, now_ns, m)?;
                (map, key)
            }
        };
        map.remove_entry(&key).map(from_entry)
    }
}

/// A map entry back as the queued request it came from.
fn from_entry(((track, id), request): (Key, Request)) -> Queued {
    Queued { id, track, request }
}

/// The lowest id on `track`, which must hold a queued request.
fn first_on(map: &TrackMap, track: u64) -> Key {
    let (&key, _) = map.range((track, 0)..).next().expect("track is queued");
    key
}

/// The lowest id on the lowest track at or above `head`.
fn first_at_or_above(map: &TrackMap, head: u64) -> Option<Key> {
    map.range((head, 0)..).next().map(|(&key, _)| key)
}

/// SSTF: the lowest id on the nearest track on either side of the head;
/// a distance tie goes to the lower id.
fn nearest(map: &TrackMap, head: u64) -> Option<Key> {
    let up = first_at_or_above(map, head);
    let Some((&(below, _), _)) = map.range(..(head, 0)).next_back() else {
        return up;
    };
    match up {
        // Strictly closer above: the ids below do not matter.
        Some(u) if u.0 - head < head - below => Some(u),
        Some(u) if u.0 - head == head - below => {
            let d = first_on(map, below);
            Some(if u.1 < d.1 { u } else { d })
        }
        _ => Some(first_on(map, below)),
    }
}

/// LOOK: the lowest id on the nearest track ahead of the head in the
/// sweep direction, the head's own track included.
fn ahead(map: &TrackMap, head: u64, ascending: bool) -> Option<Key> {
    if ascending {
        first_at_or_above(map, head)
    } else {
        map.range(..=(head, u64::MAX))
            .next_back()
            .map(|(&(track, _), _)| first_on(map, track))
    }
}

/// SPTF: the request with the least positioning time, ties to the lower
/// id.
///
/// Candidates are visited outward from the head in order of track
/// distance. The walk stops once no seek at the next distance or beyond
/// can beat the best time found: positioning is seek plus a rotational
/// wait that is never negative, so every request left is strictly
/// slower. The result is the same as a scan of the whole queue.
fn shortest_positioning(map: &TrackMap, head: u64, now_ns: f64, m: &Mechanics) -> Option<Key> {
    let mut up = map.range((head, 0)..).peekable();
    let mut down = map.range(..(head, 0)).rev().peekable();
    let mut best: Option<(f64, Key)> = None;
    loop {
        let up_distance = up.peek().map(|(&(track, _), _)| track - head);
        let down_distance = down.peek().map(|(&(track, _), _)| head - track);
        let (distance, from_up) = match (up_distance, down_distance) {
            (Some(u), Some(d)) => (u.min(d), u <= d),
            (Some(u), None) => (u, true),
            (None, Some(d)) => (d, false),
            (None, None) => break,
        };
        if best.is_some_and(|(best_ns, _)| m.seek_floor_ns(distance) > best_ns) {
            break;
        }
        let (&key, r) = if from_up { up.next() } else { down.next() }.expect("peeked above");
        let t = positioning_ns(m, head, now_ns, r.lba, r.sectors);
        if best.is_none_or(|(best_ns, best_key)| (t, key.1) < (best_ns, best_key.1)) {
            best = Some((t, key));
        }
    }
    best.map(|(_, key)| key)
}

fn positioning_ns(m: &Mechanics, head: u64, now_ns: f64, lba: u64, sectors: u32) -> f64 {
    match m.service(head, now_ns, lba, sectors) {
        Ok(t) => t.seek_ns + t.rotation_ns,
        // Out-of-range requests are rejected before queueing; treat any
        // residual error as "infinitely far" so it is picked last.
        Err(_) => f64::INFINITY,
    }
}

/// Selector for the built-in scheduling policies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SchedulerKind {
    /// First-come, first-served.
    Fcfs,
    /// Shortest seek time first.
    Sstf,
    /// LOOK elevator.
    Look,
    /// Shortest positioning time first (the default; matches enterprise
    /// firmware behavior most closely).
    #[default]
    Sptf,
}

impl SchedulerKind {
    /// All built-in policies, for ablation sweeps.
    pub fn all() -> [SchedulerKind; 4] {
        [
            SchedulerKind::Fcfs,
            SchedulerKind::Sstf,
            SchedulerKind::Look,
            SchedulerKind::Sptf,
        ]
    }

    /// Parses a (case-insensitive) policy name.
    ///
    /// # Errors
    ///
    /// Returns [`DiskError::InvalidConfig`] for an unknown name.
    pub fn parse(name: &str) -> Result<Self> {
        match name.to_ascii_lowercase().as_str() {
            "fcfs" => Ok(SchedulerKind::Fcfs),
            "sstf" => Ok(SchedulerKind::Sstf),
            "look" => Ok(SchedulerKind::Look),
            "sptf" => Ok(SchedulerKind::Sptf),
            _ => Err(DiskError::InvalidConfig {
                name: "scheduler",
                reason: "expected one of fcfs, sstf, look, sptf",
            }),
        }
    }
}

impl fmt::Display for SchedulerKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            SchedulerKind::Fcfs => "FCFS",
            SchedulerKind::Sstf => "SSTF",
            SchedulerKind::Look => "LOOK",
            SchedulerKind::Sptf => "SPTF",
        })
    }
}

/// The linear-scan policies the queues replaced, kept verbatim as the
/// reference the queues must agree with pick for pick.
#[cfg(test)]
mod linear_scan {
    use crate::mechanics::Mechanics;

    /// A queued request as seen by the scheduler.
    pub struct QueuedRequest {
        pub id: u64,
        pub lba: u64,
        pub sectors: u32,
        pub track: u64,
    }

    /// Implementations must return an index into `queue`; the caller
    /// guarantees `queue` is non-empty and ordered by arrival time.
    pub trait SchedulerPolicy {
        fn select(
            &mut self,
            queue: &[QueuedRequest],
            head_track: u64,
            now_ns: f64,
            mechanics: &Mechanics,
        ) -> usize;
    }

    pub struct Fcfs;

    impl SchedulerPolicy for Fcfs {
        fn select(&mut self, _q: &[QueuedRequest], _h: u64, _n: f64, _m: &Mechanics) -> usize {
            0
        }
    }

    pub struct Sstf;

    impl SchedulerPolicy for Sstf {
        fn select(&mut self, queue: &[QueuedRequest], head: u64, _n: f64, _m: &Mechanics) -> usize {
            queue
                .iter()
                .enumerate()
                .min_by_key(|(_, r)| r.track.abs_diff(head))
                .map(|(i, _)| i)
                .expect("scheduler called with non-empty queue")
        }
    }

    pub struct Look {
        pub ascending: bool,
    }

    impl SchedulerPolicy for Look {
        fn select(&mut self, queue: &[QueuedRequest], head: u64, _n: f64, _m: &Mechanics) -> usize {
            let pick_ahead = |ascending: bool| -> Option<usize> {
                queue
                    .iter()
                    .enumerate()
                    .filter(|(_, r)| {
                        if ascending {
                            r.track >= head
                        } else {
                            r.track <= head
                        }
                    })
                    .min_by_key(|(_, r)| r.track.abs_diff(head))
                    .map(|(i, _)| i)
            };
            if let Some(i) = pick_ahead(self.ascending) {
                return i;
            }
            self.ascending = !self.ascending;
            pick_ahead(self.ascending).expect("non-empty queue has a request in some direction")
        }
    }

    pub struct Sptf;

    impl SchedulerPolicy for Sptf {
        fn select(
            &mut self,
            queue: &[QueuedRequest],
            head: u64,
            now_ns: f64,
            m: &Mechanics,
        ) -> usize {
            queue
                .iter()
                .enumerate()
                .min_by(|(_, a), (_, b)| {
                    let ta = super::positioning_ns(m, head, now_ns, a.lba, a.sectors);
                    let tb = super::positioning_ns(m, head, now_ns, b.lba, b.sectors);
                    ta.partial_cmp(&tb).expect("positioning times are finite")
                })
                .map(|(i, _)| i)
                .expect("scheduler called with non-empty queue")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::linear_scan::{self, QueuedRequest, SchedulerPolicy};
    use super::*;
    use crate::geometry::DiskGeometry;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use spindle_trace::{DriveId, OpKind};

    fn mechanics() -> Mechanics {
        let g = DiskGeometry::uniform(10_000, 1000).unwrap();
        Mechanics::new(g, 10_000.0, 0.3, 4.0, 9.0, 0.3).unwrap()
    }

    fn queued(id: u64, lba: u64, sectors: u32) -> Queued {
        Queued {
            id,
            track: lba / 1000,
            request: Request::new(id, DriveId(0), OpKind::Read, lba, sectors).unwrap(),
        }
    }

    fn q(id: u64, track: u64) -> Queued {
        queued(id, track * 1000, 8)
    }

    /// Empties `queue` (keeping LOOK's direction), queues `reqs` in
    /// order, and returns the id served first.
    fn pick(queue: &mut RequestQueue, reqs: &[Queued], head: u64, now: f64, m: &Mechanics) -> u64 {
        queue.clear();
        for &r in reqs {
            queue.push(r);
        }
        queue.pop(head, now, m).expect("non-empty queue").id
    }

    fn pick_first(kind: SchedulerKind, reqs: &[Queued], head: u64, now: f64, m: &Mechanics) -> u64 {
        pick(&mut RequestQueue::new(kind), reqs, head, now, m)
    }

    #[test]
    fn fcfs_picks_first() {
        let m = mechanics();
        let queue = [q(0, 900), q(1, 10), q(2, 500)];
        assert_eq!(pick_first(SchedulerKind::Fcfs, &queue, 500, 0.0, &m), 0);
    }

    #[test]
    fn sstf_picks_nearest_track() {
        let m = mechanics();
        let queue = [q(0, 900), q(1, 490), q(2, 100)];
        assert_eq!(pick_first(SchedulerKind::Sstf, &queue, 500, 0.0, &m), 1);
    }

    #[test]
    fn sstf_tie_breaks_by_arrival() {
        let m = mechanics();
        let queue = [q(0, 510), q(1, 490)];
        // Both 10 tracks away; the earlier arrival wins.
        assert_eq!(pick_first(SchedulerKind::Sstf, &queue, 500, 0.0, &m), 0);
    }

    #[test]
    fn look_sweeps_then_reverses() {
        let m = mechanics();
        let mut look = RequestQueue::new(SchedulerKind::Look);
        let queue = [q(0, 300), q(1, 600), q(2, 800)];
        // Ascending from 500: nearest at-or-above is 600.
        assert_eq!(pick(&mut look, &queue, 500, 0.0, &m), 1);
        // Still ascending from 800 with only 300 left below: reverse.
        let queue2 = [q(0, 300)];
        assert_eq!(pick(&mut look, &queue2, 800, 0.0, &m), 0);
        // Now descending: from 700, picks 650 over 720.
        let queue3 = [q(0, 650), q(1, 720)];
        assert_eq!(pick(&mut look, &queue3, 700, 0.0, &m), 0);
    }

    #[test]
    fn sptf_accounts_for_rotation() {
        let m = mechanics();
        // Two requests on the same track as the head: no seek for either;
        // SPTF must pick the one with the shorter rotational wait from
        // now. At t=0 the head is at angle 0; offset 100 (of 1000) is
        // closer than offset 900.
        let near = queued(0, 500 * 1000 + 900, 8);
        let far = queued(1, 500 * 1000 + 100, 8);
        let idx = pick_first(SchedulerKind::Sptf, &[near, far], 500, 0.0, &m);
        assert_eq!(idx, 1, "SPTF should pick the rotationally closer sector");
    }

    #[test]
    fn sptf_prefers_near_track_over_far() {
        let m = mechanics();
        let queue = [q(0, 9_000), q(1, 505)];
        assert_eq!(pick_first(SchedulerKind::Sptf, &queue, 500, 0.0, &m), 1);
    }

    #[test]
    fn sptf_positioning_ties_go_to_the_earliest_arrival() {
        let m = mechanics();
        // The same sector 20 tracks either side of the head, and twice
        // on one of those tracks: identical positioning times, all
        // shorter than the full-stroke seek.
        let queue = [q(0, 9_000), q(1, 520), q(2, 480), q(3, 520)];
        assert_eq!(pick_first(SchedulerKind::Sptf, &queue, 500, 0.0, &m), 1);
    }

    #[test]
    fn empty_queue_pops_nothing_and_keeps_the_sweep() {
        let m = mechanics();
        for kind in SchedulerKind::all() {
            assert!(RequestQueue::new(kind).pop(0, 0.0, &m).is_none(), "{kind}");
        }
        let mut look = RequestQueue::new(SchedulerKind::Look);
        assert!(look.pop(500, 0.0, &m).is_none());
        // Still ascending: from 500, 600 beats 450.
        assert_eq!(pick(&mut look, &[q(0, 450), q(1, 600)], 500, 0.0, &m), 1);
    }

    /// Drives a queue and its linear-scan reference through the same
    /// seeded push/pop sequence and asserts they pick the same request
    /// every time.
    fn agrees_with_linear_scan(kind: SchedulerKind, seed: u64) {
        let m = mechanics();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut queue = RequestQueue::new(kind);
        let mut reference: Box<dyn SchedulerPolicy> = match kind {
            SchedulerKind::Fcfs => Box::new(linear_scan::Fcfs),
            SchedulerKind::Sstf => Box::new(linear_scan::Sstf),
            SchedulerKind::Look => Box::new(linear_scan::Look { ascending: true }),
            SchedulerKind::Sptf => Box::new(linear_scan::Sptf),
        };
        let mut mirror: Vec<QueuedRequest> = Vec::new();
        // Narrow spans pile many requests onto few tracks; the wide one
        // spreads them so SPTF's walk stops well short of the ends.
        let span = [8u64, 64, 10_000][(seed % 3) as usize];
        let mut next_id = 0u64;
        let mut now = 0.0f64;
        // Fill to a few hundred, drain to empty, then hover near empty:
        // deep queues for SPTF's early stop, shallow ones for the
        // lone-request shortcut.
        for step in 0..2_100 {
            let pushes = [0..4u32, 0..2, 0..3][step / 700].clone();
            for _ in 0..rng.gen_range(pushes) {
                // A few fixed sectors make exact positioning ties.
                let lba = if rng.gen_bool(0.2) {
                    rng.gen_range(0..4u64) * 1_003
                } else {
                    rng.gen_range(0..span) * 1000 + rng.gen_range(0..1000u64)
                };
                let r = queued(next_id, lba, rng.gen_range(1..64u32));
                queue.push(r);
                mirror.push(QueuedRequest {
                    id: r.id,
                    lba: r.request.lba,
                    sectors: r.request.sectors,
                    track: r.track,
                });
                next_id += 1;
            }
            if mirror.is_empty() {
                continue;
            }
            // Half the time the head sits exactly on a queued track.
            let head = if rng.gen_bool(0.5) {
                mirror[rng.gen_range(0..mirror.len())].track
            } else {
                rng.gen_range(0..span + 2)
            };
            now += rng.gen_range(0.0..5e6);
            let want = mirror.remove(reference.select(&mirror, head, now, &m));
            let got = queue
                .pop(head, now, &m)
                .expect("queue mirrors a non-empty reference");
            assert_eq!(
                got.id, want.id,
                "{kind} seed {seed}: head {head} at {now} ns"
            );
            assert_eq!(queue.len(), mirror.len());
        }
    }

    #[test]
    fn queues_pick_exactly_what_the_linear_scan_picked() {
        for kind in SchedulerKind::all() {
            for seed in 0..12 {
                agrees_with_linear_scan(kind, seed);
            }
        }
    }

    #[test]
    fn kind_parsing_and_display() {
        assert_eq!(SchedulerKind::parse("FCFS").unwrap(), SchedulerKind::Fcfs);
        assert_eq!(SchedulerKind::parse("sptf").unwrap(), SchedulerKind::Sptf);
        assert!(SchedulerKind::parse("elevator").is_err());
        assert_eq!(SchedulerKind::Look.to_string(), "LOOK");
        assert_eq!(SchedulerKind::all().len(), 4);
        assert_eq!(SchedulerKind::default(), SchedulerKind::Sptf);
    }
}
