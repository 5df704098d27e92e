//! Deterministic fault injection for the spindle workspace.
//!
//! Long experiment-matrix runs die three ways: a worker panics on one
//! shard, a trace file turns out to be truncated or corrupt, or the
//! process itself is killed mid-run. Each of those recovery paths is
//! code, and code that only runs during a production incident is code
//! that has never run. This crate makes every failure injectable on
//! purpose, at an exact, reproducible site:
//!
//! * A [`FaultPlan`] names fault sites explicitly (`panic@3`,
//!   `io@4096`, `media@17`) or derives them from a seed
//!   (`seed@7,panic%2/16` scatters two task panics over sixteen
//!   ordinals). Parsing is pure, so the same spec always yields the
//!   same plan.
//! * [`install`] publishes a plan process-wide, exactly like
//!   [`spindle_obs::recorder::install`] publishes a flight recorder;
//!   the `--faults SPEC` CLI flag and the [`FAULTS_ENV`] environment
//!   variable both land here. With no plan installed every check is a
//!   single relaxed atomic load.
//! * [`io::FaultyReader`] wraps any [`std::io::Read`] and injects the
//!   plan's I/O errors and short reads at exact byte offsets, so
//!   trace-reader error paths are exercised byte-for-byte.
//! * [`maybe_task_panic`] is the hook the bench matrix calls per task;
//!   the engine's `catch_unwind` isolation turns the panic into a
//!   quarantined shard instead of a dead run.
//!
//! The plan itself carries no randomness at run time: scattered sites
//! are resolved to explicit ordinals at parse time, so a logged plan
//! ([`FaultPlan::spec`]) replays the run exactly.

pub mod io;

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

/// Environment variable consulted by [`plan_from_env`]; holds the same
/// spec grammar as the `--faults` flag.
pub const FAULTS_ENV: &str = "SPINDLE_FAULTS";

/// A deterministic set of fault sites, grouped by the subsystem that
/// consumes them.
///
/// | kind      | site unit                  | consumed by                 |
/// |-----------|----------------------------|-----------------------------|
/// | `panic`   | task ordinal               | bench matrix / engine pool  |
/// | `io`      | byte offset                | [`io::FaultyReader`]        |
/// | `short`   | byte offset                | [`io::FaultyReader`]        |
/// | `media`   | simulator request id       | `spindle-disk` `DiskSim`    |
/// | `timeout` | simulator request id       | `spindle-disk` `DiskSim`    |
/// | `kill`    | journaled-record ordinal   | bench `--resume` journal    |
/// | `hang`    | task ordinal               | bench matrix / engine pool  |
/// | `stall`   | exporter tick ordinal      | `spindle-pulse` exporter    |
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    seed: u64,
    task_panics: BTreeSet<u64>,
    io_errors: BTreeSet<u64>,
    short_reads: BTreeSet<u64>,
    media_errors: BTreeSet<u64>,
    timeouts: BTreeSet<u64>,
    kills: BTreeSet<u64>,
    hangs: BTreeSet<u64>,
    stalls: BTreeSet<u64>,
}

/// SplitMix64 finalizer; the same mixer the engine uses for shard
/// seeds, reused here so scattered fault sites are stable forever.
fn mix(seed: u64, stream: u64, k: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ k.rotate_left(32);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl FaultPlan {
    /// Parses a fault spec.
    ///
    /// Grammar: tokens separated by `,`, `;`, or whitespace. Each token
    /// is either an explicit site `KIND@N` or a seeded scatter
    /// `KIND%COUNT/DOMAIN` (COUNT distinct sites drawn from
    /// `[0, DOMAIN)` using the plan seed). `seed@S` sets the scatter
    /// seed and may appear anywhere in the spec. Kinds: `panic`, `io`,
    /// `short`, `media`, `timeout`, `kill`, `hang`, `stall`.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message naming the offending token.
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let tokens: Vec<&str> = spec
            .split([',', ';', ' ', '\t'])
            .map(str::trim)
            .filter(|t| !t.is_empty())
            .collect();
        let mut plan = FaultPlan::default();
        // The seed must win no matter where it appears, because scatter
        // tokens consume it.
        for t in &tokens {
            if let Some(v) = t.strip_prefix("seed@") {
                plan.seed = parse_site(t, v)?;
            }
        }
        for t in &tokens {
            if t.starts_with("seed@") {
                continue;
            }
            if let Some((kind, v)) = t.split_once('@') {
                let site = parse_site(t, v)?;
                plan.set_of(kind)
                    .ok_or_else(|| format!("unknown fault kind in `{t}`"))?
                    .insert(site);
            } else if let Some((kind, v)) = t.split_once('%') {
                let (count, domain) = v
                    .split_once('/')
                    .ok_or_else(|| format!("scatter token `{t}` needs COUNT/DOMAIN"))?;
                let count = parse_site(t, count)?;
                let domain = parse_site(t, domain)?;
                if count > domain {
                    return Err(format!(
                        "scatter token `{t}` asks for more sites than domain"
                    ));
                }
                let seed = plan.seed;
                let stream =
                    kind_stream(kind).ok_or_else(|| format!("unknown fault kind in `{t}`"))?;
                let set = plan.set_of(kind).expect("kind_stream and set_of agree");
                let mut k = 0u64;
                let before = set.len() as u64;
                while (set.len() as u64) - before < count {
                    set.insert(mix(seed, stream, k) % domain);
                    k += 1;
                }
            } else {
                return Err(format!(
                    "fault token `{t}` needs KIND@SITE or KIND%COUNT/DOMAIN"
                ));
            }
        }
        Ok(plan)
    }

    fn set_of(&mut self, kind: &str) -> Option<&mut BTreeSet<u64>> {
        match kind {
            "panic" => Some(&mut self.task_panics),
            "io" => Some(&mut self.io_errors),
            "short" => Some(&mut self.short_reads),
            "media" => Some(&mut self.media_errors),
            "timeout" => Some(&mut self.timeouts),
            "kill" => Some(&mut self.kills),
            "hang" => Some(&mut self.hangs),
            "stall" => Some(&mut self.stalls),
            _ => None,
        }
    }

    /// True when the plan injects nothing.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.task_panics.is_empty()
            && self.io_errors.is_empty()
            && self.short_reads.is_empty()
            && self.media_errors.is_empty()
            && self.timeouts.is_empty()
            && self.kills.is_empty()
            && self.hangs.is_empty()
            && self.stalls.is_empty()
    }

    /// Canonical explicit spec — scattered sites are rendered as the
    /// `KIND@N` tokens they resolved to, so the output replays exactly.
    #[must_use]
    pub fn spec(&self) -> String {
        let mut out = Vec::new();
        for (kind, set) in [
            ("panic", &self.task_panics),
            ("io", &self.io_errors),
            ("short", &self.short_reads),
            ("media", &self.media_errors),
            ("timeout", &self.timeouts),
            ("kill", &self.kills),
            ("hang", &self.hangs),
            ("stall", &self.stalls),
        ] {
            out.extend(set.iter().map(|s| format!("{kind}@{s}")));
        }
        out.join(",")
    }

    /// Should the task at `ordinal` panic?
    #[must_use]
    pub fn task_panic_at(&self, ordinal: usize) -> bool {
        self.task_panics.contains(&(ordinal as u64))
    }

    /// Should the process die right after journaling record `ordinal`?
    #[must_use]
    pub fn kill_after(&self, ordinal: u64) -> bool {
        self.kills.contains(&ordinal)
    }

    /// Byte offsets at which wrapped readers fail with an I/O error.
    #[must_use]
    pub fn io_errors(&self) -> &BTreeSet<u64> {
        &self.io_errors
    }

    /// Byte offsets at which wrapped readers hit premature EOF.
    #[must_use]
    pub fn short_reads(&self) -> &BTreeSet<u64> {
        &self.short_reads
    }

    /// True when the plan affects trace readers at all; callers skip
    /// wrapping otherwise.
    #[must_use]
    pub fn has_reader_faults(&self) -> bool {
        !self.io_errors.is_empty() || !self.short_reads.is_empty()
    }

    /// Simulator request ids that suffer an unrecoverable-sector retry.
    #[must_use]
    pub fn media_errors(&self) -> &BTreeSet<u64> {
        &self.media_errors
    }

    /// Simulator request ids that suffer a command timeout.
    #[must_use]
    pub fn timeouts(&self) -> &BTreeSet<u64> {
        &self.timeouts
    }

    /// Should the task at `ordinal` hang forever (until killed)?
    #[must_use]
    pub fn hang_at(&self, ordinal: usize) -> bool {
        self.hangs.contains(&(ordinal as u64))
    }

    /// Should the telemetry exporter fall permanently silent once its
    /// tick counter reaches `tick`? Simulates a live child whose
    /// telemetry stream wedges — the serve watchdog's stall detector
    /// is the consumer.
    #[must_use]
    pub fn stall_at(&self, tick: u64) -> bool {
        self.stalls.iter().any(|&s| s <= tick)
    }
}

fn kind_stream(kind: &str) -> Option<u64> {
    match kind {
        "panic" => Some(1),
        "io" => Some(2),
        "short" => Some(3),
        "media" => Some(4),
        "timeout" => Some(5),
        "kill" => Some(6),
        "hang" => Some(7),
        "stall" => Some(8),
        _ => None,
    }
}

fn parse_site(token: &str, v: &str) -> Result<u64, String> {
    v.parse::<u64>()
        .map_err(|_| format!("bad site number in fault token `{token}`"))
}

/// The process-wide fault plan slot.
///
/// Deep layers (trace readers, the disk simulator, the bench matrix)
/// consult this slot; with the slot empty — the production default —
/// [`installed`] is a single relaxed atomic load.
static INSTALLED: OnceLock<Mutex<Option<Arc<FaultPlan>>>> = OnceLock::new();
static PRESENT: AtomicBool = AtomicBool::new(false);

fn slot() -> &'static Mutex<Option<Arc<FaultPlan>>> {
    INSTALLED.get_or_init(|| Mutex::new(None))
}

fn lock_slot() -> std::sync::MutexGuard<'static, Option<Arc<FaultPlan>>> {
    // Faults cause panics by design, so the slot must stay usable even
    // if a panicking thread held it; the Option inside is always valid.
    slot().lock().unwrap_or_else(PoisonError::into_inner)
}

/// Installs `plan` process-wide, replacing any previous plan.
pub fn install(plan: Arc<FaultPlan>) {
    *lock_slot() = Some(plan);
    PRESENT.store(true, Ordering::Release);
}

/// Removes the process-wide plan, if any.
pub fn uninstall() {
    PRESENT.store(false, Ordering::Release);
    *lock_slot() = None;
}

/// The process-wide plan, when one is installed.
#[must_use]
pub fn installed() -> Option<Arc<FaultPlan>> {
    if !PRESENT.load(Ordering::Acquire) {
        return None;
    }
    lock_slot().clone()
}

/// Parses [`FAULTS_ENV`] into a plan, if the variable is set and
/// non-empty.
///
/// # Errors
///
/// Propagates [`FaultPlan::parse`] errors, prefixed with the variable
/// name.
pub fn plan_from_env() -> Result<Option<FaultPlan>, String> {
    match std::env::var(FAULTS_ENV) {
        Ok(spec) if !spec.trim().is_empty() => FaultPlan::parse(&spec)
            .map(Some)
            .map_err(|e| format!("{FAULTS_ENV}: {e}")),
        _ => Ok(None),
    }
}

/// Panics iff the installed plan injects a task panic at `ordinal`.
///
/// Task runners call this once per task; the engine's panic isolation
/// converts the unwind into a `ShardFailure` with this exact payload,
/// which tests match on.
pub fn maybe_task_panic(ordinal: usize) {
    if let Some(plan) = installed() {
        if plan.task_panic_at(ordinal) {
            panic!("injected fault: task panic at ordinal {ordinal}");
        }
    }
}

/// Hangs forever iff the installed plan injects a hang at `ordinal`.
///
/// The sleep never returns; the process stays alive (and, under the
/// serve daemon, keeps emitting telemetry frames) until a supervisor
/// kills it — exactly the hung-child shape deadlines exist for.
pub fn maybe_task_hang(ordinal: usize) {
    if let Some(plan) = installed() {
        if plan.hang_at(ordinal) {
            loop {
                std::thread::sleep(std::time::Duration::from_secs(3600));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The plan slot is process-global, so tests that install a plan
    /// or assert the slot's contents take turns on this lock; a plan
    /// installed by one test thread would otherwise be visible to
    /// another's emptiness check.
    fn slot_guard() -> std::sync::MutexGuard<'static, ()> {
        static SLOT: Mutex<()> = Mutex::new(());
        SLOT.lock().unwrap_or_else(PoisonError::into_inner)
    }

    #[test]
    fn parse_explicit_sites() {
        let plan = FaultPlan::parse("panic@3,io@4096;short@128 media@7,timeout@9,kill@1").unwrap();
        assert!(plan.task_panic_at(3));
        assert!(!plan.task_panic_at(2));
        assert!(plan.io_errors().contains(&4096));
        assert!(plan.short_reads().contains(&128));
        assert!(plan.media_errors().contains(&7));
        assert!(plan.timeouts().contains(&9));
        assert!(plan.kill_after(1));
        assert!(!plan.is_empty());
        assert!(plan.has_reader_faults());
    }

    #[test]
    fn hang_and_stall_sites_parse_and_round_trip() {
        let plan = FaultPlan::parse("hang@2,stall@5").unwrap();
        assert!(plan.hang_at(2));
        assert!(!plan.hang_at(1));
        assert!(!plan.stall_at(4), "stall fires at its tick ordinal");
        assert!(plan.stall_at(5));
        assert!(plan.stall_at(99), "stall is permanent once reached");
        assert!(!plan.is_empty());
        let replay = FaultPlan::parse(&plan.spec()).unwrap();
        assert_eq!(plan, replay);
    }

    #[test]
    fn empty_and_error_specs() {
        assert!(FaultPlan::parse("").unwrap().is_empty());
        assert!(FaultPlan::parse("  ,, ;").unwrap().is_empty());
        assert!(FaultPlan::parse("panic@x").is_err());
        assert!(FaultPlan::parse("frobnicate@3").is_err());
        assert!(FaultPlan::parse("panic3").is_err());
        assert!(FaultPlan::parse("panic%9/4").is_err(), "count > domain");
        assert!(FaultPlan::parse("panic%2").is_err(), "missing domain");
    }

    #[test]
    fn scatter_is_seeded_and_stable() {
        let a = FaultPlan::parse("seed@7,panic%3/100").unwrap();
        let b = FaultPlan::parse("panic%3/100,seed@7").unwrap();
        assert_eq!(a, b, "seed applies regardless of token order");
        assert_eq!(a.task_panics.len(), 3);
        assert!(a.task_panics.iter().all(|&s| s < 100));
        let c = FaultPlan::parse("seed@8,panic%3/100").unwrap();
        assert_ne!(a, c, "different seed, different sites");
    }

    #[test]
    fn spec_round_trips() {
        let plan = FaultPlan::parse("seed@7,panic%2/50,io@10").unwrap();
        let replay = FaultPlan::parse(&plan.spec()).unwrap();
        assert_eq!(plan.task_panics, replay.task_panics);
        assert_eq!(plan.io_errors, replay.io_errors);
    }

    #[test]
    fn install_slot_round_trips() {
        let _slot = slot_guard();
        assert!(installed().is_none());
        let plan = Arc::new(FaultPlan::parse("panic@1").unwrap());
        install(Arc::clone(&plan));
        assert_eq!(installed().as_deref(), Some(plan.as_ref()));
        uninstall();
        assert!(installed().is_none());
    }

    #[test]
    fn maybe_task_panic_panics_only_at_site() {
        let _slot = slot_guard();
        install(Arc::new(FaultPlan::parse("panic@2").unwrap()));
        maybe_task_panic(0);
        maybe_task_panic(1);
        let err = std::panic::catch_unwind(|| maybe_task_panic(2)).unwrap_err();
        uninstall();
        let msg = err.downcast_ref::<String>().expect("string payload");
        assert_eq!(msg, "injected fault: task panic at ordinal 2");
    }
}
