//! Flight recorder: two correlated timelines for one run.
//!
//! The paper's thesis is that disk behaviour is only legible at the
//! right time-scale; aggregates (counters, span totals) erase exactly
//! the structure that matters. The [`FlightRecorder`] keeps the full
//! per-event record of a run on two clocks:
//!
//! * **Simulated time** — intervals and instants stamped in simulated
//!   nanoseconds, grouped into named synthetic tracks (one per drive
//!   facet: queue, service, idle, events). These are a pure function of
//!   the workload and simulator configuration, so they are
//!   byte-identical across worker counts.
//! * **Wall-clock time** — intervals stamped relative to the recorder's
//!   construction instant, grouped by thread label: [`ObsSpan`]
//!   begin/end pairs and engine worker activity (run/steal/idle).
//!   These describe the host execution and naturally vary run to run.
//!
//! The [`trace_event`](crate::trace_event) module exports both
//! timelines as Chrome trace-event JSON loadable in Perfetto or
//! `chrome://tracing`.
//!
//! Recording takes one mutex acquisition and a `Vec` push per slice;
//! the recorder is only ever attached when a caller asks for a trace
//! (`--trace-out`, or a trace context from the serve daemon), so
//! instrumented hot paths otherwise pay a skipped `Option` branch.
//!
//! A [`FlightRecorder::bounded`] recorder keeps only the first `cap`
//! simulated-time slices and counts the rest ([`FlightRecorder::shed`]).
//! Slice args are passed as [`SliceArgs`] — either a ready `Vec` or a
//! closure building one — and a closure runs only for a slice that is
//! kept, so a slice past the cap costs one atomic increment.
//!
//! [`ObsSpan`]: crate::ObsSpan

use crate::json::Json;
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// One interval or instant on the simulated-time timeline.
#[derive(Debug, Clone, PartialEq)]
pub struct SimSlice {
    /// Synthetic track name (e.g. `drive.queue`, `drive.service`).
    pub track: String,
    /// What the slice is (e.g. `read`, `write`, `idle`, `destage`).
    pub name: String,
    /// Start, in simulated nanoseconds.
    pub begin_ns: u64,
    /// Duration in simulated nanoseconds; `None` marks an instant
    /// event (a point, not a span).
    pub dur_ns: Option<u64>,
    /// Free-form key→value detail attached to the slice.
    pub args: Vec<(String, Json)>,
}

/// One interval on the wall-clock timeline.
#[derive(Debug, Clone, PartialEq)]
pub struct WallSlice {
    /// Label of the thread that produced the slice.
    pub thread: String,
    /// What the slice is (a span or worker-activity name).
    pub name: String,
    /// Start, in nanoseconds since the recorder's epoch.
    pub begin_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// Free-form key→value detail attached to the slice.
    pub args: Vec<(String, Json)>,
}

/// The args of a simulated-time slice: a ready `Vec`, or a closure
/// that builds one only when the recorder keeps the slice.
pub trait SliceArgs {
    /// The key→value detail of the slice.
    fn into_args(self) -> Vec<(String, Json)>;
}

impl SliceArgs for Vec<(String, Json)> {
    fn into_args(self) -> Vec<(String, Json)> {
        self
    }
}

impl<F: FnOnce() -> Vec<(String, Json)>> SliceArgs for F {
    fn into_args(self) -> Vec<(String, Json)> {
        self()
    }
}

#[derive(Debug, Default)]
struct Inner {
    sim: Vec<SimSlice>,
    wall: Vec<WallSlice>,
}

/// A thread-safe recorder of simulated-time and wall-clock slices.
#[derive(Debug)]
pub struct FlightRecorder {
    epoch: Instant,
    /// Most simulated-time slices kept; later ones are only counted.
    sim_cap: usize,
    /// Simulated-time slices counted but not kept. Non-zero means the
    /// cap is reached for good, so later slices skip the lock. Relaxed
    /// suffices: the counter publishes no other data, and a stale zero
    /// only sends a slice down the locked path, which checks the cap.
    shed: AtomicU64,
    inner: Mutex<Inner>,
}

impl FlightRecorder {
    /// An empty, unbounded recorder whose wall-clock epoch is *now*.
    #[must_use]
    pub fn new() -> Self {
        Self::bounded(usize::MAX)
    }

    /// An empty recorder that keeps the first `cap` simulated-time
    /// slices and counts every later one in [`shed`](Self::shed)
    /// without building it. Wall-clock slices are not capped.
    #[must_use]
    pub fn bounded(cap: usize) -> Self {
        FlightRecorder {
            epoch: Instant::now(),
            sim_cap: cap,
            shed: AtomicU64::new(0),
            inner: Mutex::new(Inner::default()),
        }
    }

    /// The instant wall-clock slices are measured against.
    #[must_use]
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().expect("flight recorder not poisoned")
    }

    /// Records an interval on a simulated-time track.
    pub fn sim_slice(
        &self,
        track: &str,
        name: &str,
        begin_ns: u64,
        dur_ns: u64,
        args: impl SliceArgs,
    ) {
        self.push_sim(track, name, begin_ns, Some(dur_ns), args);
    }

    /// Records an instant event on a simulated-time track.
    pub fn sim_instant(&self, track: &str, name: &str, t_ns: u64, args: impl SliceArgs) {
        self.push_sim(track, name, t_ns, None, args);
    }

    /// Keeps the slice while under the cap, else only counts it. The
    /// args are built under the lock, so an args closure must not
    /// record.
    fn push_sim(
        &self,
        track: &str,
        name: &str,
        begin_ns: u64,
        dur_ns: Option<u64>,
        args: impl SliceArgs,
    ) {
        if self.shed.load(Ordering::Relaxed) > 0 {
            self.shed.fetch_add(1, Ordering::Relaxed);
            return;
        }
        let mut inner = self.lock();
        if inner.sim.len() >= self.sim_cap {
            self.shed.fetch_add(1, Ordering::Relaxed);
            return;
        }
        inner.sim.push(SimSlice {
            track: track.to_owned(),
            name: name.to_owned(),
            begin_ns,
            dur_ns,
            args: args.into_args(),
        });
    }

    /// Records a wall-clock interval that started at `begin` and lasted
    /// `dur`, attributed to the calling thread's label.
    ///
    /// A `begin` earlier than the recorder's epoch is clamped to the
    /// epoch rather than wrapping.
    pub fn wall_slice(&self, name: &str, begin: Instant, dur: Duration, args: Vec<(String, Json)>) {
        let begin_ns = begin
            .checked_duration_since(self.epoch)
            .map_or(0, |d| u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
        let dur_ns = u64::try_from(dur.as_nanos()).unwrap_or(u64::MAX);
        self.lock().wall.push(WallSlice {
            thread: thread_label(),
            name: name.to_owned(),
            begin_ns,
            dur_ns,
            args,
        });
    }

    /// The simulated-time slices recorded so far (insertion order).
    #[must_use]
    pub fn sim_slices(&self) -> Vec<SimSlice> {
        self.lock().sim.clone()
    }

    /// Simulated-time slices counted but not kept because the
    /// recorder's cap was reached (always 0 for an unbounded recorder).
    #[must_use]
    pub fn shed(&self) -> u64 {
        self.shed.load(Ordering::Relaxed)
    }

    /// The wall-clock slices recorded so far (insertion order).
    #[must_use]
    pub fn wall_slices(&self) -> Vec<WallSlice> {
        self.lock().wall.clone()
    }

    /// True when nothing has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        let inner = self.lock();
        inner.sim.is_empty() && inner.wall.is_empty()
    }
}

impl Default for FlightRecorder {
    fn default() -> Self {
        Self::new()
    }
}

/// The process-wide recorder slot used by CLI-level instrumentation.
///
/// [`ObsSpan`](crate::ObsSpan) and deep pipeline layers report through
/// this slot when a front end installs a recorder; with the slot empty
/// (the default) [`installed`] is a single relaxed atomic load.
static INSTALLED: OnceLock<Mutex<Option<Arc<FlightRecorder>>>> = OnceLock::new();
static PRESENT: std::sync::atomic::AtomicBool = std::sync::atomic::AtomicBool::new(false);

fn slot() -> &'static Mutex<Option<Arc<FlightRecorder>>> {
    INSTALLED.get_or_init(|| Mutex::new(None))
}

/// Installs `recorder` as the process-wide recorder, replacing any
/// previous one (the front end that installs a recorder keeps its own
/// `Arc` for export, so replacement never loses data).
pub fn install(recorder: Arc<FlightRecorder>) {
    *slot().lock().expect("recorder slot not poisoned") = Some(recorder);
    PRESENT.store(true, std::sync::atomic::Ordering::Release);
}

/// Removes the process-wide recorder, if any.
pub fn uninstall() {
    PRESENT.store(false, std::sync::atomic::Ordering::Release);
    *slot().lock().expect("recorder slot not poisoned") = None;
}

/// The process-wide recorder, when one is installed.
#[must_use]
pub fn installed() -> Option<Arc<FlightRecorder>> {
    if !PRESENT.load(std::sync::atomic::Ordering::Acquire) {
        return None;
    }
    slot().lock().expect("recorder slot not poisoned").clone()
}

thread_local! {
    static THREAD_LABEL: RefCell<Option<String>> = const { RefCell::new(None) };
}

/// Sets the calling thread's label for wall-clock slices (e.g.
/// `worker3`). Unlabeled threads fall back to the std thread name, then
/// to a generic id-derived label.
pub fn set_thread_label(label: impl Into<String>) {
    let label = label.into();
    THREAD_LABEL.with(|l| *l.borrow_mut() = Some(label));
}

/// The calling thread's wall-track label.
#[must_use]
pub fn thread_label() -> String {
    THREAD_LABEL.with(|l| {
        if let Some(label) = l.borrow().as_ref() {
            return label.clone();
        }
        let current = std::thread::current();
        match current.name() {
            Some(name) => name.to_owned(),
            // ThreadId's Debug form ("ThreadId(7)") is the only stable
            // accessor; squeeze it into a readable label.
            None => format!("{:?}", current.id())
                .replace("ThreadId(", "thread-")
                .replace(')', ""),
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slices_record_on_both_timelines() {
        let rec = FlightRecorder::new();
        assert!(rec.is_empty());
        rec.sim_slice("drive.queue", "read", 100, 50, vec![]);
        rec.sim_instant("drive.events", "cache_hit", 120, vec![]);
        rec.wall_slice(
            "cli.simulate",
            Instant::now(),
            Duration::from_millis(1),
            vec![],
        );
        let sim = rec.sim_slices();
        assert_eq!(sim.len(), 2);
        assert_eq!(sim[0].dur_ns, Some(50));
        assert_eq!(sim[1].dur_ns, None);
        let wall = rec.wall_slices();
        assert_eq!(wall.len(), 1);
        assert_eq!(wall[0].dur_ns, 1_000_000);
        assert!(!rec.is_empty());
    }

    #[test]
    fn wall_begin_before_epoch_clamps_to_zero() {
        let earlier = Instant::now();
        std::thread::sleep(Duration::from_millis(2));
        let rec = FlightRecorder::new();
        rec.wall_slice("early", earlier, Duration::from_nanos(5), vec![]);
        assert_eq!(rec.wall_slices()[0].begin_ns, 0);
    }

    #[test]
    fn install_replaces_and_uninstall_clears() {
        let a = Arc::new(FlightRecorder::new());
        let b = Arc::new(FlightRecorder::new());
        install(Arc::clone(&a));
        assert!(Arc::ptr_eq(&installed().unwrap(), &a));
        install(Arc::clone(&b));
        assert!(Arc::ptr_eq(&installed().unwrap(), &b));
        uninstall();
        assert!(installed().is_none());
    }

    #[test]
    fn bounded_keeps_the_first_slices_and_counts_the_rest() {
        let rec = FlightRecorder::bounded(3);
        let built = std::cell::Cell::new(0u64);
        for t in 0..10u64 {
            if t % 2 == 0 {
                rec.sim_slice("drive.service", "read", t, 1, || {
                    built.set(built.get() + 1);
                    vec![("id".to_owned(), Json::Uint(t))]
                });
            } else {
                rec.sim_instant("drive.events", "cache_hit", t, || {
                    built.set(built.get() + 1);
                    Vec::new()
                });
            }
        }
        let sim = rec.sim_slices();
        let begins: Vec<u64> = sim.iter().map(|s| s.begin_ns).collect();
        assert_eq!(begins, [0, 1, 2], "the first slices, in insertion order");
        assert_eq!(sim[0].args, [("id".to_owned(), Json::Uint(0))]);
        assert_eq!(rec.shed(), 7, "every later slice is counted");
        assert_eq!(built.get(), 3, "args are never built past the cap");
    }

    #[test]
    fn bounded_leaves_wall_slices_uncapped() {
        let rec = FlightRecorder::bounded(1);
        for _ in 0..4 {
            rec.sim_slice("t", "op", 0, 1, Vec::new);
            rec.wall_slice("span", Instant::now(), Duration::from_nanos(1), vec![]);
        }
        assert_eq!(rec.sim_slices().len(), 1);
        assert_eq!(rec.shed(), 3);
        assert_eq!(rec.wall_slices().len(), 4);
    }

    #[test]
    fn new_is_unbounded() {
        let rec = FlightRecorder::new();
        for t in 0..20_000u64 {
            rec.sim_instant("t", "op", t, Vec::new);
        }
        assert_eq!(rec.sim_slices().len(), 20_000);
        assert_eq!(rec.shed(), 0);
    }

    #[test]
    fn thread_labels_are_settable() {
        std::thread::spawn(|| {
            set_thread_label("worker7");
            assert_eq!(thread_label(), "worker7");
        })
        .join()
        .expect("no panic");
        // Test threads carry the test name, so the fallback is the std
        // thread name, never empty.
        assert!(!thread_label().is_empty());
    }
}
