//! Figure experiments `F1`–`F10`.

use crate::pipeline::Inputs;
use crate::Result;
use rand::rngs::StdRng;
use rand::SeedableRng;
use spindle_core::burstiness::BurstinessAnalysis;
use spindle_core::hour::HourAnalysis;
use spindle_core::lifetime::{saturation_curve, FamilyAnalysis};
use spindle_core::multiscale::rw_across_scales;
use spindle_core::report::Figure;
use spindle_synth::arrival::ArrivalModel;
use spindle_synth::presets::Environment;

/// F1 — drive utilization over time (per-minute windows, mail
/// workload).
///
/// # Errors
///
/// Propagates generation, simulation, and analysis errors.
pub fn f1(inputs: &Inputs) -> Result<Figure> {
    let run = inputs.env(Environment::Mail)?;
    let series = run.millisecond()?.utilization_series(60.0)?;
    let mut fig = Figure::new(
        "F1: utilization over time (mail, per-minute)",
        "time (minutes)",
        "utilization",
    );
    fig.push_series(
        "mail",
        series
            .iter()
            .enumerate()
            .map(|(i, &u)| (i as f64, u))
            .collect(),
    );
    Ok(fig)
}

/// F2 — CDF of idle-interval lengths per environment (log-x plotted
/// data; x in seconds).
///
/// # Errors
///
/// Propagates generation, simulation, and analysis errors.
pub fn f2(inputs: &Inputs) -> Result<Figure> {
    let mut fig = Figure::new(
        "F2: idle interval CDF",
        "idle interval length (s)",
        "P[length <= x]",
    );
    for env in Environment::all() {
        let run = inputs.env(env)?;
        let cdf = run.idle()?.idle_cdf()?;
        fig.push_series(env.name(), log_grid_cdf(&cdf, false));
    }
    Ok(fig)
}

/// F3 — CCDF of busy-period lengths per environment.
///
/// # Errors
///
/// Propagates generation, simulation, and analysis errors.
pub fn f3(inputs: &Inputs) -> Result<Figure> {
    let mut fig = Figure::new(
        "F3: busy period CCDF",
        "busy period length (s)",
        "P[length > x]",
    );
    for env in Environment::all() {
        let run = inputs.env(env)?;
        let cdf = run.idle()?.busy_cdf()?;
        fig.push_series(env.name(), log_grid_cdf(&cdf, true));
    }
    Ok(fig)
}

/// Evaluates a CDF (or its complement) on a geometric grid from 0.1 ms
/// up to and including the sample maximum.
fn log_grid_cdf(cdf: &spindle_stats::ecdf::Ecdf, complement: bool) -> Vec<(f64, f64)> {
    let eval = |x: f64| if complement { cdf.ccdf(x) } else { cdf.cdf(x) };
    let max = cdf.max().max(1e-3);
    let mut points = Vec::new();
    let mut x = 1e-4f64;
    while x < max {
        points.push((x, eval(x)));
        x *= 1.5;
    }
    points.push((max, eval(max)));
    points
}

/// F4 — autocorrelation of per-second arrival counts for the bursty
/// environments against a Poisson control.
///
/// # Errors
///
/// Propagates generation and analysis errors.
pub fn f4(inputs: &Inputs) -> Result<Figure> {
    let cfg = inputs.cfg();
    let max_lag = 100usize;
    let mut fig = Figure::new(
        "F4: ACF of arrival counts (1 s intervals)",
        "lag (s)",
        "autocorrelation",
    );
    for env in [Environment::Mail, Environment::Web] {
        let run = inputs.env(env)?;
        let events = run.millisecond()?.arrival_times_secs();
        let b = BurstinessAnalysis::new(&events, cfg.ms_span_secs, 1.0)?;
        let r = b.acf(max_lag)?;
        fig.push_series(
            env.name(),
            r.iter().enumerate().map(|(k, &v)| (k as f64, v)).collect(),
        );
    }
    // Poisson control at the mail rate.
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0xF4);
    let control = ArrivalModel::Poisson {
        rate: Environment::Mail.mean_rate(),
    }
    .generate(cfg.ms_span_secs, &mut rng)?;
    let b = BurstinessAnalysis::new(&control, cfg.ms_span_secs, 1.0)?;
    let r = b.acf(max_lag)?;
    fig.push_series(
        "poisson-control",
        r.iter().enumerate().map(|(k, &v)| (k as f64, v)).collect(),
    );
    Ok(fig)
}

/// F5 — variance–time plot (log10 scale vs log10 variance of the
/// aggregated counts) for the mail workload against a Poisson control,
/// with all three Hurst estimates in the series labels.
///
/// # Errors
///
/// Propagates generation and analysis errors.
pub fn f5(inputs: &Inputs) -> Result<Figure> {
    let cfg = inputs.cfg();
    let mut fig = Figure::new(
        "F5: variance-time plot and Hurst estimates",
        "log10(aggregation scale)",
        "log10(variance of aggregated counts)",
    );
    let run = inputs.env(Environment::Mail)?;
    let events = run.millisecond()?.arrival_times_secs();
    let b = BurstinessAnalysis::new(&events, cfg.ms_span_secs, 1.0)?;
    let est = spindle_stats::hurst::aggregated_variance(b.counts())?;
    let h = b.hurst()?;
    fig.push_series(
        format!(
            "mail (H: rs={:.2} var={:.2} per={:.2} wav={:.2})",
            h.rs, h.aggregated_variance, h.periodogram, h.wavelet
        ),
        est.points.clone(),
    );

    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0xF5);
    let control = ArrivalModel::Poisson {
        rate: Environment::Mail.mean_rate(),
    }
    .generate(cfg.ms_span_secs, &mut rng)?;
    let bc = BurstinessAnalysis::new(&control, cfg.ms_span_secs, 1.0)?;
    let estc = spindle_stats::hurst::aggregated_variance(bc.counts())?;
    let hc = bc.hurst()?;
    fig.push_series(
        format!(
            "poisson (H: rs={:.2} var={:.2} per={:.2} wav={:.2})",
            hc.rs, hc.aggregated_variance, hc.periodogram, hc.wavelet
        ),
        estc.points.clone(),
    );
    Ok(fig)
}

/// F6 — hour-trace activity over the observation window for four
/// drives of the family.
///
/// # Errors
///
/// Propagates generation errors.
pub fn f6(inputs: &Inputs) -> Result<Figure> {
    let family = inputs.family()?;
    let mut fig = Figure::new(
        "F6: hourly operations over time (4 family drives)",
        "hour",
        "operations per hour",
    );
    for d in family.iter().take(4) {
        let ops = d.series.operations_series();
        fig.push_series(
            d.series.drive().to_string(),
            ops.iter()
                .enumerate()
                .map(|(h, &o)| (h as f64, o))
                .collect(),
        );
    }
    Ok(fig)
}

/// F7 — read/write dynamics at the hour scale: the write-fraction
/// series of one drive and its distribution (CDF) across active hours.
///
/// # Errors
///
/// Propagates generation and analysis errors.
pub fn f7(inputs: &Inputs) -> Result<Figure> {
    let family = inputs.family()?;
    let a = HourAnalysis::new(&family[0].series)?;
    let mut fig = Figure::new(
        "F7: per-hour write fraction (drive-0)",
        "hour (series) / write fraction (cdf)",
        "write fraction / P[wf <= x]",
    );
    let series: Vec<(f64, f64)> = a
        .write_fraction_series()
        .iter()
        .enumerate()
        .filter_map(|(h, wf)| wf.map(|v| (h as f64, v)))
        .collect();
    fig.push_series("write-fraction(t)", series);
    let cdf = a.write_fraction_cdf()?;
    fig.push_series("cdf", cdf.curve(50));
    Ok(fig)
}

/// F8 — CDF across the drive family of lifetime mean utilization.
///
/// # Errors
///
/// Propagates generation and analysis errors.
pub fn f8(inputs: &Inputs) -> Result<Figure> {
    let family = inputs.family()?;
    let lifetimes: Vec<_> = family.iter().map(|d| d.lifetime).collect();
    let a = FamilyAnalysis::new(&lifetimes)?;
    let mut fig = Figure::new(
        "F8: lifetime utilization CDF across the family",
        "lifetime mean utilization",
        "fraction of drives",
    );
    fig.push_series("family", a.utilization_cdf()?.curve(100));
    fig.push_series("MB-per-hour (scaled x)", {
        let cdf = a.mb_per_hour_cdf()?;
        // Normalize x to [0, 1] so both series share an axis scale.
        let max = cdf.max();
        cdf.curve(100)
            .into_iter()
            .map(|(x, y)| (x / max, y))
            .collect()
    });
    Ok(fig)
}

/// F9 — fraction of drives with at least `k` consecutive saturated
/// hours, `k = 1..=24`.
///
/// # Errors
///
/// Propagates generation and analysis errors.
pub fn f9(inputs: &Inputs) -> Result<Figure> {
    let family = inputs.family()?;
    let series: Vec<_> = family.iter().map(|d| d.series.clone()).collect();
    let curve = saturation_curve(&series, 0.99, 24)?;
    let mut fig = Figure::new(
        "F9: drives with >= k consecutive saturated hours",
        "k (hours)",
        "fraction of drives",
    );
    fig.push_series(
        "util >= 0.99",
        curve
            .iter()
            .map(|p| (p.run_hours as f64, p.fraction_of_drives))
            .collect(),
    );
    let curve90 = saturation_curve(&series, 0.90, 24)?;
    fig.push_series(
        "util >= 0.90",
        curve90
            .iter()
            .map(|p| (p.run_hours as f64, p.fraction_of_drives))
            .collect(),
    );
    Ok(fig)
}

/// F10 — read/write share measured at each time scale (0 = ms, 1 =
/// hour, 2 = lifetime), by operations and by bytes.
///
/// # Errors
///
/// Propagates generation, simulation, and analysis errors.
pub fn f10(inputs: &Inputs) -> Result<Figure> {
    let run = inputs.env(Environment::Mail)?;
    let family = inputs.family()?;
    let lifetimes: Vec<_> = family.iter().map(|d| d.lifetime).collect();
    let x = rw_across_scales(&run.requests, &family[0].series, &lifetimes)?;
    let mut fig = Figure::new(
        "F10: write share across time scales (0=ms, 1=hour, 2=lifetime)",
        "scale",
        "write share",
    );
    fig.push_series(
        "write-ops-share",
        vec![
            (0.0, x.millisecond.write_ops_share),
            (1.0, x.hour.write_ops_share),
            (2.0, x.lifetime.write_ops_share),
        ],
    );
    fig.push_series(
        "write-bytes-share",
        vec![
            (0.0, x.millisecond.write_bytes_share),
            (1.0, x.hour.write_bytes_share),
            (2.0, x.lifetime.write_bytes_share),
        ],
    );
    Ok(fig)
}

/// F11 (extension) — spatial structure: CCDF of sequential run lengths
/// and of seek (jump) distances for the archive vs. mail environments.
///
/// # Errors
///
/// Propagates generation and analysis errors.
pub fn f11(inputs: &Inputs) -> Result<Figure> {
    use spindle_core::spatial::SpatialAnalysis;
    let mut fig = Figure::new(
        "F11: sequential run lengths and jump distances",
        "run length (requests) / jump distance (sectors)",
        "P[X > x]",
    );
    for env in [Environment::Archive, Environment::Mail] {
        let run = inputs.env(env)?;
        let a = SpatialAnalysis::new(&run.requests)?;
        let runs = a.run_length_cdf()?;
        fig.push_series(
            format!("{}-runs (mean {:.1})", env.name(), a.mean_run_length()),
            log_grid_cdf(&runs, true),
        );
        let jumps = a.jump_distance_cdf()?;
        fig.push_series(format!("{}-jumps", env.name()), log_grid_cdf(&jumps, true));
    }
    Ok(fig)
}

/// F12 (extension) — background-work feasibility: productive scrub
/// seconds per hour as a function of the idle-wait threshold, per
/// environment.
///
/// # Errors
///
/// Propagates generation, simulation, and analysis errors.
pub fn f12(inputs: &Inputs) -> Result<Figure> {
    use spindle_core::background::idle_wait_sweep;
    let waits = [0.0, 0.01, 0.1, 0.5, 1.0, 5.0, 30.0, 120.0];
    let mut fig = Figure::new(
        "F12: background-work budget vs idle-wait threshold",
        "idle wait (s)",
        "productive seconds per hour",
    );
    for env in Environment::all() {
        let run = inputs.env(env)?;
        let sweep = idle_wait_sweep(&run.sim.busy, &waits, 0.1, 1.0)?;
        fig.push_series(
            env.name(),
            sweep
                .iter()
                .map(|(w, s)| (*w, s.productive_secs_per_hour()))
                .collect(),
        );
    }
    Ok(fig)
}

/// F13 (extension) — power management on measured idleness: mean power
/// and added foreground delay versus the standby timeout, per
/// environment.
///
/// # Errors
///
/// Propagates generation, simulation, and evaluation errors.
pub fn f13(inputs: &Inputs) -> Result<Figure> {
    use spindle_disk::power::{timeout_sweep, PowerModel};
    let timeouts = [1.0, 5.0, 20.0, 60.0, 300.0, 1800.0];
    let model = PowerModel::enterprise_15k();
    let mut fig = Figure::new(
        "F13: mean power vs standby timeout",
        "standby timeout (s)",
        "mean power (W) / recovery delay (s per hour)",
    );
    for env in Environment::all() {
        let run = inputs.env(env)?;
        let sweep = timeout_sweep(&model, &run.sim.busy, &timeouts)?;
        fig.push_series(
            format!("{}-watts", env.name()),
            sweep.iter().map(|(t, o)| (*t, o.mean_watts())).collect(),
        );
        fig.push_series(
            format!("{}-recovery-s-per-h", env.name()),
            sweep
                .iter()
                .map(|(t, o)| (*t, o.recovery_delay_secs / o.span_secs * 3600.0))
                .collect(),
        );
    }
    Ok(fig)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ExpConfig;

    fn cfg() -> ExpConfig {
        ExpConfig::quick()
    }

    /// A context holding the inputs experiment `id` declares.
    fn inputs(id: &str) -> Inputs {
        crate::matrix::inputs_for(&[id], &cfg())
    }

    #[test]
    fn f13_power_tradeoff_has_the_right_shape() {
        let fig = f13(&inputs("f13")).unwrap();
        assert_eq!(fig.series.len(), 8);
        for s in &fig.series {
            if s.label.ends_with("-watts") {
                // Power vs timeout is U-shaped, NOT monotone: very
                // aggressive timeouts pay spin-up energy on every short
                // gap. The minimum over the sweep must beat the
                // longest-timeout (≈ always-on) setting.
                let first = s.points.first().unwrap().1;
                let last = s.points.last().unwrap().1;
                let min = s.points.iter().map(|p| p.1).fold(f64::INFINITY, f64::min);
                assert!(min < last, "{}: no savings anywhere in the sweep", s.label);
                assert!(first > 0.0 && last > 0.0);
            } else {
                // Recovery delay shrinks monotonically with the timeout.
                for w in s.points.windows(2) {
                    assert!(w[1].1 <= w[0].1 + 1e-6, "{}: recovery increased", s.label);
                }
            }
        }
        // A well-chosen timeout on the idle-heavy archive profile must
        // land well below the always-on idle draw of ~9 W.
        let archive_watts = fig
            .series
            .iter()
            .find(|s| s.label == "archive-watts")
            .unwrap();
        let best = archive_watts
            .points
            .iter()
            .map(|p| p.1)
            .fold(f64::INFINITY, f64::min);
        assert!(best < 7.0, "archive best mean power {best} W");
    }

    #[test]
    fn f1_utilization_is_bounded() {
        let fig = f1(&inputs("f1")).unwrap();
        let pts = &fig.series[0].points;
        assert!(!pts.is_empty());
        assert!(pts.iter().all(|&(_, u)| (0.0..=1.0).contains(&u)));
    }

    #[test]
    fn f2_cdfs_are_monotone_and_reach_one() {
        let fig = f2(&inputs("f2")).unwrap();
        assert_eq!(fig.series.len(), 4);
        for s in &fig.series {
            for w in s.points.windows(2) {
                assert!(w[1].1 >= w[0].1 - 1e-12, "{} CDF not monotone", s.label);
            }
            assert!((s.points.last().unwrap().1 - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn f3_ccdfs_are_decreasing() {
        let fig = f3(&inputs("f3")).unwrap();
        for s in &fig.series {
            for w in s.points.windows(2) {
                assert!(w[1].1 <= w[0].1 + 1e-12);
            }
        }
    }

    #[test]
    fn f4_environments_are_more_correlated_than_poisson() {
        let fig = f4(&inputs("f4")).unwrap();
        assert_eq!(fig.series.len(), 3);
        // Mean ACF over lags 1..20.
        let mean_acf = |s: &spindle_core::report::Series| {
            s.points[1..=20].iter().map(|p| p.1).sum::<f64>() / 20.0
        };
        let mail = mean_acf(&fig.series[0]);
        let poisson = mean_acf(&fig.series[2]);
        assert!(mail > poisson + 0.1, "mail ACF {mail} vs poisson {poisson}");
    }

    #[test]
    fn f5_mail_slope_is_shallower_than_poisson() {
        // Variance of the m-aggregated series decays like m^(2H-2):
        // shallower slope = higher H = burstier.
        let fig = f5(&inputs("f5")).unwrap();
        let slope = |pts: &[(f64, f64)]| {
            let xs: Vec<f64> = pts.iter().map(|p| p.0).collect();
            let ys: Vec<f64> = pts.iter().map(|p| p.1).collect();
            spindle_stats::regression::fit_line(&xs, &ys).unwrap().slope
        };
        let mail = slope(&fig.series[0].points);
        let poisson = slope(&fig.series[1].points);
        assert!(
            mail > poisson + 0.3,
            "mail slope {mail} vs poisson {poisson}"
        );
    }

    #[test]
    fn f6_has_four_drives_with_cycles() {
        let fig = f6(&inputs("f6")).unwrap();
        assert_eq!(fig.series.len(), 4);
        for s in &fig.series {
            assert_eq!(s.points.len(), (cfg().hour_weeks * 168) as usize);
        }
    }

    #[test]
    fn f7_write_fractions_are_valid() {
        let fig = f7(&inputs("f7")).unwrap();
        let wf = &fig.series[0].points;
        assert!(wf.iter().all(|&(_, v)| (0.0..=1.0).contains(&v)));
    }

    #[test]
    fn f8_family_cdf_reaches_one() {
        let fig = f8(&inputs("f8")).unwrap();
        assert!((fig.series[0].points.last().unwrap().1 - 1.0).abs() < 1e-9);
    }

    #[test]
    fn f9_a_portion_saturates_for_hours() {
        let fig = f9(&inputs("f9")).unwrap();
        let at_2h = fig.series[0].points[1].1;
        assert!(at_2h > 0.02, "fraction with >=2h saturation {at_2h}");
        assert!(at_2h < 0.5);
        // Monotone non-increasing in k.
        for w in fig.series[0].points.windows(2) {
            assert!(w[1].1 <= w[0].1 + 1e-12);
        }
    }

    #[test]
    fn f11_archive_runs_dominate_mail_runs() {
        let fig = f11(&inputs("f11")).unwrap();
        assert_eq!(fig.series.len(), 4);
        // Mean run length is embedded in the label; parse it back out.
        let mean_of = |label_prefix: &str| -> f64 {
            let s = fig
                .series
                .iter()
                .find(|s| s.label.starts_with(label_prefix))
                .unwrap();
            s.label
                .split("mean ")
                .nth(1)
                .unwrap()
                .trim_end_matches(')')
                .parse()
                .unwrap()
        };
        assert!(mean_of("archive-runs") > mean_of("mail-runs") * 2.0);
    }

    #[test]
    fn f12_budget_decreases_with_idle_wait() {
        let fig = f12(&inputs("f12")).unwrap();
        assert_eq!(fig.series.len(), 4);
        for s in &fig.series {
            for w in s.points.windows(2) {
                assert!(
                    w[1].1 <= w[0].1 + 1e-9,
                    "{}: budget grew with the wait",
                    s.label
                );
            }
            // Even a 0.5 s wait leaves a large budget (long idleness):
            // at least a third of every wall-clock hour.
            let at_half_sec = s.points.iter().find(|(x, _)| *x == 0.5).unwrap().1;
            assert!(
                at_half_sec > 1200.0,
                "{}: only {at_half_sec}s/hour at 0.5s wait",
                s.label
            );
        }
    }

    #[test]
    fn f10_write_shares_are_consistent_across_scales() {
        let fig = f10(&inputs("f10")).unwrap();
        let ops = &fig.series[0].points;
        for &(_, share) in ops {
            assert!((0.3..0.9).contains(&share), "write share {share}");
        }
        // All three scales agree within 0.25.
        let min = ops.iter().map(|p| p.1).fold(f64::INFINITY, f64::min);
        let max = ops.iter().map(|p| p.1).fold(0.0f64, f64::max);
        assert!(max - min < 0.25, "cross-scale spread {}", max - min);
    }
}
