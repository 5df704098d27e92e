//! Observability configuration.

/// What the instrumentation layer is allowed to record.
///
/// The default is fully disabled: instrumented code paths must cost
/// nothing beyond an untaken branch unless a caller opts in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ObsConfig {
    /// Record counters, gauges, histograms, and spans.
    pub metrics: bool,
}

impl ObsConfig {
    /// Nothing is recorded (the default).
    pub const fn disabled() -> Self {
        ObsConfig { metrics: false }
    }

    /// Everything the configuration can turn on; the same value as
    /// [`ObsConfig::metrics_only`], since simulator events are recorded
    /// by an attached flight recorder rather than switched on here.
    pub const fn enabled() -> Self {
        Self::metrics_only()
    }

    /// Metrics on — the cheap production setting.
    pub const fn metrics_only() -> Self {
        ObsConfig { metrics: true }
    }
}

impl Default for ObsConfig {
    fn default() -> Self {
        Self::disabled()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_disabled() {
        let c = ObsConfig::default();
        assert_eq!(c, ObsConfig::disabled());
        assert!(!c.metrics);
    }

    #[test]
    fn metrics_only_skips_events() {
        let c = ObsConfig::metrics_only();
        assert!(c.metrics);
        assert_eq!(c, ObsConfig::enabled());
    }
}
