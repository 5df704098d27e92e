//! Shared generate → simulate → analyze plumbing used by the
//! experiments, and the per-run [`Inputs`] context that builds each
//! shared input once.

use crate::{ExpConfig, Result};
use spindle_core::idle::IdleAnalysis;
use spindle_core::millisecond::{MillisecondAnalysis, WorkloadSummary};
use spindle_disk::obs::SimObserver;
use spindle_disk::profile::DriveProfile;
use spindle_disk::sim::{DiskSim, SimConfig, SimResult};
use spindle_obs::{MetricsRegistry, ObsConfig, ObsSpan};
use spindle_synth::family::{DriveRecord, FamilySpec};
use spindle_synth::hourgen::{HourSeriesSpec, WEEK_HOURS};
use spindle_synth::presets::Environment;
use spindle_trace::Request;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};

/// Observability applied to [`EnvRun`]s that do not carry their own
/// config (set once by the `experiments` binary's `--metrics` flag).
static GLOBAL_OBS: OnceLock<ObsConfig> = OnceLock::new();

/// Turns on observability for every subsequent [`EnvRun`] constructed
/// without an explicit config: simulators attach an observer resolving
/// against [`spindle_obs::global()`]. First call wins; later calls are
/// ignored.
pub fn enable_observability(cfg: ObsConfig) {
    let _ = GLOBAL_OBS.set(cfg);
}

/// One environment's generated trace and simulation outcome.
#[derive(Debug)]
pub struct EnvRun {
    /// The environment it came from.
    pub env: Environment,
    /// The synthetic request stream.
    pub requests: Vec<Request>,
    /// The disk simulation result.
    pub sim: SimResult,
}

impl EnvRun {
    /// Generates and simulates one environment under `cfg`.
    ///
    /// # Errors
    ///
    /// Propagates generation and simulation errors.
    pub fn new(env: Environment, cfg: &ExpConfig) -> Result<Self> {
        Self::build(env, cfg, SimConfig::default(), None)
    }

    /// Same as [`EnvRun::new`] with an explicit simulator configuration
    /// and observability wired to an explicit registry: disk
    /// counters/histograms resolve against `registry`.
    ///
    /// # Errors
    ///
    /// Propagates generation and simulation errors.
    pub fn observed(
        env: Environment,
        cfg: &ExpConfig,
        sim_cfg: SimConfig,
        obs_cfg: &ObsConfig,
        registry: &MetricsRegistry,
    ) -> Result<Self> {
        Self::build(env, cfg, sim_cfg, Some((obs_cfg, registry)))
    }

    fn build(env: Environment, cfg: &ExpConfig, sim_cfg: SimConfig, obs: Obs<'_>) -> Result<Self> {
        let obs = resolve_obs(obs);
        let spec = env.spec(cfg.ms_span_secs);
        let requests = {
            let _span = ObsSpan::new(span_registry(obs), "pipeline.generate");
            spec.generate(cfg.seed ^ env_seed(env))?
        };
        let sim = simulate_observed(&requests, sim_cfg, obs)?;
        Ok(EnvRun { env, requests, sim })
    }

    /// The per-request analysis view.
    ///
    /// # Errors
    ///
    /// Propagates analysis construction errors.
    pub fn millisecond(&self) -> Result<MillisecondAnalysis<'_>> {
        Ok(MillisecondAnalysis::new(&self.requests, &self.sim)?)
    }

    /// The workload summary row.
    ///
    /// # Errors
    ///
    /// Propagates analysis errors.
    pub fn summary(&self) -> Result<WorkloadSummary> {
        Ok(self.millisecond()?.summary()?)
    }

    /// The busy/idle analysis view.
    ///
    /// # Errors
    ///
    /// Propagates analysis construction errors.
    pub fn idle(&self) -> Result<IdleAnalysis> {
        Ok(IdleAnalysis::new(&self.sim.busy)?)
    }
}

/// Replays `requests` through a fresh default drive under `sim_cfg`,
/// observed like every [`EnvRun`] (the `--metrics` registry and an
/// installed flight recorder). Sweeps use it to run several simulator
/// configurations over one shared stream.
///
/// # Errors
///
/// Propagates simulation errors.
pub fn simulate(requests: &[Request], sim_cfg: SimConfig) -> Result<SimResult> {
    simulate_observed(requests, sim_cfg, resolve_obs(None))
}

/// An explicit observability config and the registry it resolves
/// against.
type Obs<'a> = Option<(&'a ObsConfig, &'a MetricsRegistry)>;

/// `obs`, or else the binary's `--metrics` config against the global
/// registry, if it was enabled.
fn resolve_obs(obs: Obs<'_>) -> Obs<'_> {
    obs.or_else(|| GLOBAL_OBS.get().map(|c| (c, spindle_obs::global())))
}

/// The registry pipeline spans land in under (resolved) `obs`.
fn span_registry<'a>(obs: Obs<'a>) -> &'a MetricsRegistry {
    match obs {
        Some((_, r)) => r,
        None => spindle_obs::global(),
    }
}

/// Simulates under an already resolved `obs`.
fn simulate_observed(requests: &[Request], sim_cfg: SimConfig, obs: Obs<'_>) -> Result<SimResult> {
    let mut sim = DiskSim::new(DriveProfile::cheetah_15k(), sim_cfg);
    if let Some((obs_cfg, reg)) = obs {
        if obs_cfg.metrics {
            let mut observer = SimObserver::new(reg, obs_cfg);
            // A globally installed flight recorder (the binary's
            // `--trace-out`) gets the sim-time tracks of every run.
            if let Some(rec) = spindle_obs::recorder::installed() {
                observer = observer.with_flight(rec);
            }
            sim.attach_observer(observer);
        }
    }
    let _span = ObsSpan::new(span_registry(obs), "pipeline.simulate");
    Ok(sim.run(requests)?)
}

fn env_seed(env: Environment) -> u64 {
    match env {
        Environment::Mail => 0x11,
        Environment::Web => 0x22,
        Environment::Dev => 0x33,
        Environment::Archive => 0x44,
    }
}

/// Generates the standard drive family used by the hour- and
/// lifetime-scale experiments.
///
/// # Errors
///
/// Propagates generation errors.
pub fn standard_family(cfg: &ExpConfig) -> Result<Vec<DriveRecord>> {
    let spec = FamilySpec {
        drives: cfg.family_drives,
        template: HourSeriesSpec {
            hours: cfg.hour_weeks * WEEK_HOURS,
            ..Default::default()
        },
        ..Default::default()
    };
    let _span = ObsSpan::new(span_registry(resolve_obs(None)), "pipeline.family");
    Ok(spec.generate(cfg.seed ^ 0xFA31)?)
}

/// A shared experiment input: one of the datasets that every table and
/// figure is a view of.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Input {
    /// The default-config [`EnvRun`] of one environment.
    Env(Environment),
    /// The [`standard_family`] of drives.
    Family,
}

/// How many distinct inputs there are.
const INPUTS: usize = 5;

impl Input {
    /// Every input, in slot order: the environments as listed by
    /// [`Environment::all`], then the family.
    #[must_use]
    pub fn all() -> [Input; INPUTS] {
        let [a, b, c, d] = Environment::all();
        [
            Input::Env(a),
            Input::Env(b),
            Input::Env(c),
            Input::Env(d),
            Input::Family,
        ]
    }

    /// Position in [`Input::all`].
    #[must_use]
    pub fn slot(self) -> usize {
        Input::all()
            .iter()
            .position(|i| *i == self)
            .expect("Input::all lists every input")
    }
}

/// The shared inputs of one matrix run.
///
/// Each input is built once, by the first experiment that reads it;
/// an experiment that asks while it is being built waits for it rather
/// than building a duplicate. The context is created with one consumer
/// per experiment that declares the input, and each experiment holds a
/// [`Lease`] on its declared inputs while it runs: when the last lease
/// on an input ends, the context drops it, so its memory is freed as
/// soon as the experiments still holding it return. Nothing outlives
/// the context, which lives for one run.
#[derive(Debug)]
pub struct Inputs {
    cfg: ExpConfig,
    envs: [Slot<EnvRun>; 4],
    family: Slot<Vec<DriveRecord>>,
}

impl Inputs {
    /// A context for experiments declaring `declared` (one list of
    /// inputs per experiment), under `cfg`.
    pub fn new<'a>(cfg: &ExpConfig, declared: impl IntoIterator<Item = &'a [Input]>) -> Self {
        let mut consumers = [0usize; INPUTS];
        for inputs in declared {
            for input in inputs {
                consumers[input.slot()] += 1;
            }
        }
        Inputs {
            cfg: *cfg,
            envs: std::array::from_fn(|i| Slot::new(consumers[i])),
            family: Slot::new(consumers[Input::Family.slot()]),
        }
    }

    /// The run's configuration.
    #[must_use]
    pub fn cfg(&self) -> &ExpConfig {
        &self.cfg
    }

    /// The default-config run of `env`, built on first use.
    ///
    /// # Errors
    ///
    /// Propagates generation and simulation errors, and fails when no
    /// experiment of this run declared the input (or all that did have
    /// finished).
    pub fn env(&self, env: Environment) -> Result<Arc<EnvRun>> {
        self.envs[Input::Env(env).slot()].get(|| EnvRun::new(env, &self.cfg))
    }

    /// The standard drive family, built on first use.
    ///
    /// # Errors
    ///
    /// As [`Inputs::env`], for generation errors.
    pub fn family(&self) -> Result<Arc<Vec<DriveRecord>>> {
        self.family.get(|| standard_family(&self.cfg))
    }

    /// Takes one consumer's hold on each of `declared`; dropping the
    /// lease (on return or unwind) releases them.
    #[must_use]
    pub fn lease<'a>(&'a self, declared: &'a [Input]) -> Lease<'a> {
        Lease {
            inputs: self,
            declared,
        }
    }

    /// Whether `input` is still in memory: held by the context or by
    /// an experiment still using it.
    #[must_use]
    pub fn is_live(&self, input: Input) -> bool {
        match input {
            Input::Env(_) => self.envs[input.slot()].is_live(),
            Input::Family => self.family.is_live(),
        }
    }

    fn release(&self, input: Input) {
        match input {
            Input::Env(_) => self.envs[input.slot()].release(),
            Input::Family => self.family.release(),
        }
    }
}

/// One experiment's hold on its declared inputs (see [`Inputs::lease`]).
#[derive(Debug)]
pub struct Lease<'a> {
    inputs: &'a Inputs,
    declared: &'a [Input],
}

impl Drop for Lease<'_> {
    fn drop(&mut self) {
        for input in self.declared {
            self.inputs.release(*input);
        }
    }
}

/// One input's build-once cell.
#[derive(Debug)]
struct Slot<T> {
    state: Mutex<SlotState<T>>,
    built: Condvar,
}

#[derive(Debug)]
struct SlotState<T> {
    /// Declared consumers whose lease has not ended yet.
    consumers: usize,
    value: Value<T>,
    /// The last built value, to tell whether anyone still holds it.
    last: std::sync::Weak<T>,
}

#[derive(Debug)]
enum Value<T> {
    Empty,
    Building,
    Ready(Arc<T>),
}

impl<T> Slot<T> {
    fn new(consumers: usize) -> Self {
        Slot {
            state: Mutex::new(SlotState {
                consumers,
                value: Value::Empty,
                last: std::sync::Weak::new(),
            }),
            built: Condvar::new(),
        }
    }

    /// The lock is never held across a build or a panic point, so a
    /// poisoned state is still consistent.
    fn lock(&self) -> MutexGuard<'_, SlotState<T>> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn get(&self, build: impl FnOnce() -> Result<T>) -> Result<Arc<T>> {
        let mut state = self.lock();
        loop {
            match &state.value {
                Value::Ready(v) => return Ok(Arc::clone(v)),
                Value::Building => {
                    state = self
                        .built
                        .wait(state)
                        .unwrap_or_else(PoisonError::into_inner);
                }
                Value::Empty if state.consumers == 0 => {
                    return Err("experiment read an input it did not declare".into())
                }
                Value::Empty => break,
            }
        }
        state.value = Value::Building;
        drop(state);
        // Wakes the waiters however the build ends. A failed or
        // panicking build leaves the slot empty, so the next waiter
        // builds it (and meets the same error) instead of waiting
        // forever.
        let _wake = Wake(self);
        let value = Arc::new(build()?);
        let mut state = self.lock();
        state.last = Arc::downgrade(&value);
        state.value = Value::Ready(Arc::clone(&value));
        drop(state); // before `_wake` takes the lock
        Ok(value)
    }

    fn release(&self) {
        let mut state = self.lock();
        state.consumers = state.consumers.saturating_sub(1);
        if state.consumers == 0 {
            let value = std::mem::replace(&mut state.value, Value::Empty);
            drop(state);
            drop(value);
        }
    }

    fn is_live(&self) -> bool {
        self.lock().last.strong_count() > 0
    }
}

struct Wake<'a, T>(&'a Slot<T>);

impl<T> Drop for Wake<'_, T> {
    fn drop(&mut self) {
        let mut state = self.0.lock();
        if matches!(state.value, Value::Building) {
            state.value = Value::Empty;
        }
        self.0.built.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_run_produces_consistent_views() {
        let cfg = ExpConfig::quick();
        let run = EnvRun::new(Environment::Web, &cfg).unwrap();
        assert_eq!(run.requests.len(), run.sim.completed.len());
        let s = run.summary().unwrap();
        assert!(s.mean_utilization > 0.0 && s.mean_utilization < 1.0);
        let idle = run.idle().unwrap();
        assert!(idle.idle_fraction() > 0.0);
    }

    #[test]
    fn observed_run_collects_metrics_events_and_spans() {
        let mut cfg = ExpConfig::quick();
        cfg.ms_span_secs = 60.0;
        let registry = MetricsRegistry::new();
        let run = EnvRun::observed(
            Environment::Web,
            &cfg,
            SimConfig::default(),
            &ObsConfig::enabled(),
            &registry,
        )
        .unwrap();
        let snap = registry.snapshot();
        assert_eq!(
            snap.counter("disk.requests_completed"),
            Some(run.requests.len() as u64)
        );
        assert_eq!(
            snap.counter("disk.read_hits").unwrap()
                + snap.counter("disk.read_misses").unwrap()
                + snap.counter("disk.writes_cached").unwrap()
                + snap.counter("disk.writes_forced").unwrap(),
            run.requests.len() as u64,
            "every request has one cache outcome"
        );
        assert!(snap.span("pipeline.generate").is_some());
        assert!(snap.span("pipeline.simulate").is_some());
    }

    #[test]
    fn slot_builds_once_for_concurrent_readers() {
        let slot = Slot::new(4);
        let builds = std::sync::atomic::AtomicU32::new(0);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    let v = slot
                        .get(|| {
                            builds.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
                            std::thread::sleep(std::time::Duration::from_millis(10));
                            Ok(7u32)
                        })
                        .unwrap();
                    assert_eq!(*v, 7);
                });
            }
        });
        assert_eq!(builds.into_inner(), 1);
    }

    #[test]
    fn failed_or_panicking_builds_leave_the_slot_to_the_next_reader() {
        let slot: Slot<u32> = Slot::new(2);
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            slot.get(|| panic!("injected build panic"))
        }));
        assert!(panicked.is_err());
        assert!(slot.get(|| Err("generation failed".into())).is_err());
        assert_eq!(*slot.get(|| Ok(7)).unwrap(), 7);
        assert_eq!(*slot.get(|| Ok(8)).unwrap(), 7, "built once");
        // Released by its last consumer, the value is freed and cannot
        // be read again.
        let held = slot.get(|| Ok(9)).unwrap();
        slot.release();
        slot.release();
        assert!(slot.is_live(), "a reader still holds it");
        drop(held);
        assert!(!slot.is_live());
        assert!(slot.get(|| Ok(9)).is_err());
    }

    #[test]
    fn standard_family_matches_config() {
        let cfg = ExpConfig::quick();
        let fam = standard_family(&cfg).unwrap();
        assert_eq!(fam.len(), cfg.family_drives as usize);
        assert_eq!(fam[0].series.len(), (cfg.hour_weeks * WEEK_HOURS) as usize);
    }
}
