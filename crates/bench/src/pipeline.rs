//! Shared generate → simulate → analyze plumbing used by the
//! experiments.

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
use std::sync::OnceLock;

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
        Self::with_sim_config(env, cfg, SimConfig::default())
    }

    /// Same as [`EnvRun::new`] with an explicit simulator configuration
    /// (used by the ablation experiment).
    ///
    /// # Errors
    ///
    /// Propagates generation and simulation errors.
    pub fn with_sim_config(env: Environment, cfg: &ExpConfig, sim_cfg: SimConfig) -> Result<Self> {
        Self::build(env, cfg, sim_cfg, None)
    }

    /// Same as [`EnvRun::with_sim_config`] with observability wired to an
    /// explicit registry: disk counters/histograms resolve against
    /// `registry`.
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

    fn build(
        env: Environment,
        cfg: &ExpConfig,
        sim_cfg: SimConfig,
        obs: Option<(&ObsConfig, &MetricsRegistry)>,
    ) -> Result<Self> {
        let obs = obs.or_else(|| GLOBAL_OBS.get().map(|c| (c, spindle_obs::global())));
        let registry = match obs {
            Some((_, r)) => r,
            None => spindle_obs::global(),
        };

        let spec = env.spec(cfg.ms_span_secs);
        let requests = {
            let _span = ObsSpan::new(registry, "pipeline.generate");
            spec.generate(cfg.seed ^ env_seed(env))?
        };

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
        let result = {
            let _span = ObsSpan::new(registry, "pipeline.simulate");
            sim.run(&requests)?
        };
        Ok(EnvRun {
            env,
            requests,
            sim: result,
        })
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
    Ok(spec.generate(cfg.seed ^ 0xFA31)?)
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
    fn standard_family_matches_config() {
        let cfg = ExpConfig::quick();
        let fam = standard_family(&cfg).unwrap();
        assert_eq!(fam.len(), cfg.family_drives as usize);
        assert_eq!(fam[0].series.len(), (cfg.hour_weeks * WEEK_HOURS) as usize);
    }
}
