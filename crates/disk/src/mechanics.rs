//! Mechanical timing model: seek, rotation, transfer.
//!
//! The seek curve follows the classical three-point model: a
//! `a + b·√d + c·d` function of the seek distance `d` in tracks, fitted so
//! that it reproduces the drive's published single-track, one-third-stroke
//! (≈ average), and full-stroke seek times. Rotational latency is computed
//! from the actual angular position of the platter (the simulator tracks
//! wall-clock time, so the angle is deterministic), and transfer time
//! follows from the zone's sectors-per-track plus head-switch time for
//! track crossings.

use crate::geometry::DiskGeometry;
use crate::{DiskError, Result};

/// Nanoseconds per millisecond.
pub const NS_PER_MS: f64 = 1e6;

/// Fitted seek curve `seek(d) = a + b·√d + c·d` (milliseconds, d in
/// tracks), with `seek(0) = 0`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SeekCurve {
    a: f64,
    b: f64,
    c: f64,
    max_distance: f64,
    /// Precomputed for [`SeekCurve::floor_ms`]: the distance of the
    /// curve's minimum when it lies strictly inside the fit range (zero
    /// otherwise), the floor over distances that still reach it and over
    /// those beyond it, and the rounding slack every floor carries.
    dip_distance: f64,
    dip_floor_ms: f64,
    full_stroke_floor_ms: f64,
    slack_ms: f64,
}

impl SeekCurve {
    /// Fits the curve through three published data points: the
    /// single-track seek time, the seek time at one-third stroke (a good
    /// proxy for the published "average" seek), and the full-stroke seek
    /// time, all in milliseconds, for a drive with `total_tracks` tracks.
    ///
    /// # Errors
    ///
    /// Returns [`DiskError::InvalidConfig`] if the times are not strictly
    /// increasing and positive, or if `total_tracks < 9` (the three fit
    /// points must be distinct).
    pub fn fit(
        single_track_ms: f64,
        third_stroke_ms: f64,
        full_stroke_ms: f64,
        total_tracks: u64,
    ) -> Result<Self> {
        if !(single_track_ms > 0.0
            && third_stroke_ms > single_track_ms
            && full_stroke_ms > third_stroke_ms)
        {
            return Err(DiskError::InvalidConfig {
                name: "seek times",
                reason: "need 0 < single_track < third_stroke < full_stroke",
            });
        }
        if total_tracks < 9 {
            return Err(DiskError::InvalidConfig {
                name: "total_tracks",
                reason: "seek curve fit needs at least 9 tracks",
            });
        }
        let d1 = 1.0f64;
        let d2 = (total_tracks as f64 / 3.0).max(2.0);
        let d3 = (total_tracks - 1) as f64;
        // Solve the 3x3 system for (a, b, c):
        //   a + b√d_i + c·d_i = t_i
        let rows = [
            [1.0, d1.sqrt(), d1, single_track_ms],
            [1.0, d2.sqrt(), d2, third_stroke_ms],
            [1.0, d3.sqrt(), d3, full_stroke_ms],
        ];
        let sol = solve3(rows).ok_or(DiskError::InvalidConfig {
            name: "seek times",
            reason: "seek curve fit is singular for these parameters",
        })?;
        let [a, b, c] = sol;
        let at = |x: f64| a + b * x.sqrt() + c * x;
        // With s = √d the curve is the parabola a + b·s + c·s²; opening
        // upward, it can dip below both ends of the fit range.
        let vertex = -b / (2.0 * c);
        let dip_distance = if c > 0.0 && vertex > 0.0 && vertex * vertex < d3 {
            vertex * vertex
        } else {
            0.0
        };
        // A relative slack far above rounding error keeps every floor at
        // or below the rounded figures `seek_ms` returns.
        let slack_ms = 1e-9 * (a.abs() + b.abs() * d3.sqrt() + c.abs() * d3);
        let full_stroke_floor_ms = at(d3) - slack_ms;
        let dip_floor_ms = if dip_distance > 0.0 {
            full_stroke_floor_ms.min(at(dip_distance) - slack_ms)
        } else {
            full_stroke_floor_ms
        };
        Ok(SeekCurve {
            a,
            b,
            c,
            max_distance: d3,
            dip_distance,
            dip_floor_ms,
            full_stroke_floor_ms,
            slack_ms,
        })
    }

    /// Seek time in milliseconds for a distance of `d` tracks.
    ///
    /// Zero for `d == 0`; clamped to be non-negative (a fitted curve with
    /// a negative intercept could otherwise go below zero at tiny
    /// distances).
    pub fn seek_ms(&self, d: u64) -> f64 {
        if d == 0 {
            return 0.0;
        }
        let d = (d as f64).min(self.max_distance);
        (self.a + self.b * d.sqrt() + self.c * d).max(0.0)
    }

    /// A lower bound on [`SeekCurve::seek_ms`] over every distance of at
    /// least `d` tracks.
    ///
    /// The fit only pins three points, so the curve need not be
    /// monotone. With `s = √d` it is the parabola `a + b·s + c·s²`,
    /// whose minimum over `[√d, √max_distance]` lies at an end of the
    /// interval or, when the parabola opens upward, at its vertex.
    pub(crate) fn floor_ms(&self, d: u64) -> f64 {
        if d == 0 {
            return 0.0;
        }
        let x = (d as f64).min(self.max_distance);
        let beyond = if self.dip_distance > x {
            self.dip_floor_ms
        } else {
            self.full_stroke_floor_ms
        };
        (self.a + self.b * x.sqrt() + self.c * x - self.slack_ms)
            .min(beyond)
            .max(0.0)
    }
}

/// Gaussian elimination for a 3×3 augmented system.
fn solve3(mut m: [[f64; 4]; 3]) -> Option<[f64; 3]> {
    for col in 0..3 {
        // Partial pivot.
        let pivot_row = (col..3).max_by(|&a, &b| {
            m[a][col]
                .abs()
                .partial_cmp(&m[b][col].abs())
                .expect("finite")
        })?;
        m.swap(col, pivot_row);
        if m[col][col].abs() < 1e-12 {
            return None;
        }
        for row in 0..3 {
            if row != col {
                let f = m[row][col] / m[col][col];
                let pivot_row = m[col];
                for (cell, pivot) in m[row][col..4].iter_mut().zip(&pivot_row[col..4]) {
                    *cell -= f * pivot;
                }
            }
        }
    }
    Some([m[0][3] / m[0][0], m[1][3] / m[1][1], m[2][3] / m[2][2]])
}

/// Full mechanical model: seek curve + spindle + head-switch timing over a
/// geometry.
#[derive(Debug, Clone, PartialEq)]
pub struct Mechanics {
    geometry: DiskGeometry,
    seek: SeekCurve,
    /// Rotation period in nanoseconds.
    rotation_ns: f64,
    /// Head/track switch time in nanoseconds.
    head_switch_ns: f64,
}

/// Timing breakdown of one mechanical service, all in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ServiceTiming {
    /// Arm movement time.
    pub seek_ns: f64,
    /// Rotational wait until the first target sector passes under the
    /// head.
    pub rotation_ns: f64,
    /// Media transfer time including head switches.
    pub transfer_ns: f64,
}

impl ServiceTiming {
    /// Total service time.
    pub fn total_ns(&self) -> f64 {
        self.seek_ns + self.rotation_ns + self.transfer_ns
    }
}

impl Mechanics {
    /// Builds the mechanical model.
    ///
    /// # Errors
    ///
    /// Returns [`DiskError::InvalidConfig`] for a non-positive `rpm` or
    /// negative head-switch time, or if the seek curve cannot be fitted.
    pub fn new(
        geometry: DiskGeometry,
        rpm: f64,
        single_track_ms: f64,
        third_stroke_ms: f64,
        full_stroke_ms: f64,
        head_switch_ms: f64,
    ) -> Result<Self> {
        if !(rpm > 0.0) {
            return Err(DiskError::InvalidConfig {
                name: "rpm",
                reason: "spindle speed must be positive",
            });
        }
        if head_switch_ms < 0.0 {
            return Err(DiskError::InvalidConfig {
                name: "head_switch_ms",
                reason: "head switch time cannot be negative",
            });
        }
        let seek = SeekCurve::fit(
            single_track_ms,
            third_stroke_ms,
            full_stroke_ms,
            geometry.total_tracks(),
        )?;
        Ok(Mechanics {
            geometry,
            seek,
            rotation_ns: 60e9 / rpm,
            head_switch_ns: head_switch_ms * NS_PER_MS,
        })
    }

    /// The underlying geometry.
    pub fn geometry(&self) -> &DiskGeometry {
        &self.geometry
    }

    /// Rotation period in nanoseconds.
    pub fn rotation_ns(&self) -> f64 {
        self.rotation_ns
    }

    /// Seek time in nanoseconds for an arm movement of `distance`
    /// tracks: the figure [`Mechanics::service`] charges.
    pub fn seek_ns(&self, distance: u64) -> f64 {
        self.seek.seek_ms(distance) * NS_PER_MS
    }

    /// A lower bound on [`Mechanics::seek_ns`] over every distance of at
    /// least `distance` tracks (see [`SeekCurve`]'s `floor_ms`).
    pub(crate) fn seek_floor_ns(&self, distance: u64) -> f64 {
        self.seek.floor_ms(distance) * NS_PER_MS
    }

    /// Average rotational latency (half a rotation) in nanoseconds.
    pub fn avg_rotational_latency_ns(&self) -> f64 {
        self.rotation_ns / 2.0
    }

    /// Sustained media rate at the given LBA in bytes per second.
    ///
    /// # Errors
    ///
    /// Returns [`DiskError::OutOfRange`] for an invalid LBA.
    pub fn media_rate_at(&self, lba: u64) -> Result<f64> {
        let loc = self.geometry.locate(lba)?;
        let bytes_per_rotation = loc.sectors_per_track as f64 * spindle_trace::SECTOR_BYTES as f64;
        Ok(bytes_per_rotation / (self.rotation_ns / 1e9))
    }

    /// Computes the mechanical service timing for a transfer of `sectors`
    /// at `lba`, with the head currently on `head_track` and the request
    /// starting at absolute time `now_ns`.
    ///
    /// The rotational wait uses the platter's true angular position at
    /// the moment the seek completes: angle advances continuously at the
    /// spindle rate regardless of what the arm does.
    ///
    /// # Errors
    ///
    /// Returns [`DiskError::OutOfRange`] if the transfer does not fit on
    /// the drive.
    pub fn service(
        &self,
        head_track: u64,
        now_ns: f64,
        lba: u64,
        sectors: u32,
    ) -> Result<ServiceTiming> {
        self.geometry.check_range(lba, sectors)?;
        let loc = self.geometry.locate(lba)?;

        let seek_ns = self.seek_ns(loc.track.abs_diff(head_track));

        // Angular position (fraction of a rotation) when the seek ends.
        let t_arrive = now_ns + seek_ns;
        let angle = (t_arrive / self.rotation_ns).fract();
        // Target sector's angular start position within its track.
        let target = loc.offset as f64 / loc.sectors_per_track as f64;
        let wait_frac = (target - angle).rem_euclid(1.0);
        let rotation_wait = wait_frac * self.rotation_ns;

        // Transfer: time for the sectors to pass under the head, plus a
        // head switch for every track boundary crossed. Zone changes
        // mid-transfer are rare and short; the per-track rate of the
        // starting zone is used throughout.
        let crossings = self.geometry.track_crossings(lba, sectors)?;
        let per_sector = self.rotation_ns / loc.sectors_per_track as f64;
        let transfer_ns = sectors as f64 * per_sector + crossings as f64 * self.head_switch_ns;

        Ok(ServiceTiming {
            seek_ns,
            rotation_ns: rotation_wait,
            transfer_ns,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::Zone;

    fn mechanics() -> Mechanics {
        let g = DiskGeometry::new(vec![
            Zone {
                tracks: 10_000,
                sectors_per_track: 1000,
            },
            Zone {
                tracks: 10_000,
                sectors_per_track: 800,
            },
        ])
        .unwrap();
        // 15k RPM, 0.2/3.0/6.5 ms seeks, 0.3 ms head switch.
        Mechanics::new(g, 15_000.0, 0.2, 3.0, 6.5, 0.3).unwrap()
    }

    #[test]
    fn seek_curve_hits_fit_points() {
        let total = 20_000u64;
        let c = SeekCurve::fit(0.2, 3.0, 6.5, total).unwrap();
        assert_eq!(c.seek_ms(0), 0.0);
        assert!((c.seek_ms(1) - 0.2).abs() < 1e-9);
        assert!((c.seek_ms(total / 3) - 3.0).abs() < 0.01);
        assert!((c.seek_ms(total - 1) - 6.5).abs() < 1e-6);
    }

    #[test]
    fn seek_curve_is_monotone() {
        let c = SeekCurve::fit(0.2, 3.0, 6.5, 20_000).unwrap();
        let mut prev = 0.0;
        for d in [0u64, 1, 2, 5, 10, 100, 1_000, 6_666, 10_000, 19_999] {
            let t = c.seek_ms(d);
            assert!(t >= prev, "seek not monotone at d={d}");
            prev = t;
        }
    }

    #[test]
    fn seek_curve_clamps_beyond_full_stroke() {
        let c = SeekCurve::fit(0.2, 3.0, 6.5, 20_000).unwrap();
        assert_eq!(c.seek_ms(100_000), c.seek_ms(19_999));
    }

    #[test]
    fn seek_curve_rejects_bad_points() {
        assert!(SeekCurve::fit(0.0, 3.0, 6.5, 20_000).is_err());
        assert!(SeekCurve::fit(3.0, 3.0, 6.5, 20_000).is_err());
        assert!(SeekCurve::fit(0.2, 6.5, 3.0, 20_000).is_err());
        assert!(SeekCurve::fit(0.2, 3.0, 6.5, 4).is_err());
    }

    /// Checks `seek_floor_ns` against the brute-force minimum of
    /// `seek_ns` over every distance at or beyond each `d`.
    fn assert_floor_bounds_every_longer_seek(m: &Mechanics) {
        let tracks = m.geometry().total_tracks();
        let mut suffix_min = f64::INFINITY;
        for d in (0..tracks + 10).rev() {
            suffix_min = suffix_min.min(m.seek_ns(d));
            let floor = m.seek_floor_ns(d);
            assert!(
                floor <= suffix_min,
                "floor {floor} above {suffix_min} at d={d}"
            );
            assert!(floor > suffix_min - 1.0, "floor {floor} loose at d={d}");
        }
    }

    #[test]
    fn seek_floor_bounds_built_in_profiles() {
        for p in crate::profile::DriveProfile::all() {
            assert_floor_bounds_every_longer_seek(&p.mechanics().unwrap());
        }
    }

    #[test]
    fn seek_floor_bounds_non_monotone_fits() {
        let g = DiskGeometry::uniform(30_000, 500).unwrap();
        // A steep full stroke dips the middle of the curve below the
        // single-track time; a flat one makes it peak before the end.
        for (single, third, full) in [(2.0, 2.1, 20.0), (0.5, 10.0, 10.1)] {
            let m = Mechanics::new(g.clone(), 10_000.0, single, third, full, 0.3).unwrap();
            let dips = (1..30_000u64).any(|d| m.seek_ns(d + 1) < m.seek_ns(d));
            assert!(dips, "fit ({single}, {third}, {full}) is monotone");
            assert_floor_bounds_every_longer_seek(&m);
        }
    }

    #[test]
    fn seek_ns_is_what_service_charges() {
        let m = mechanics();
        for (head, lba) in [
            (0u64, 500u64),
            (0, 7_000_000),
            (19_000, 10),
            (4_321, 12_345_678),
        ] {
            let track = m.geometry().locate(lba).unwrap().track;
            let t = m.service(head, 0.0, lba, 8).unwrap();
            assert_eq!(t.seek_ns, m.seek_ns(track.abs_diff(head)));
        }
    }

    #[test]
    fn rotation_period_matches_rpm() {
        let m = mechanics();
        assert!((m.rotation_ns() - 4e6).abs() < 1.0); // 15k RPM = 4 ms
        assert!((m.avg_rotational_latency_ns() - 2e6).abs() < 1.0);
    }

    #[test]
    fn media_rate_reflects_zones() {
        let m = mechanics();
        let outer = m.media_rate_at(0).unwrap();
        let inner = m.media_rate_at(10_000_000 + 100).unwrap();
        // Outer zone: 1000 sectors/track × 512 B / 4 ms = 128 MB/s.
        assert!((outer - 128e6).abs() / 128e6 < 1e-9);
        assert!((inner / outer - 0.8).abs() < 1e-9);
    }

    #[test]
    fn zero_distance_seek_is_free() {
        let m = mechanics();
        let t = m.service(0, 0.0, 500, 8).unwrap();
        assert_eq!(t.seek_ns, 0.0);
        assert!(t.transfer_ns > 0.0);
    }

    #[test]
    fn rotational_wait_is_less_than_one_rotation() {
        let m = mechanics();
        for now in [0.0, 1e6, 2.7e6, 1e9] {
            for lba in [0u64, 999, 5_000_000, 10_000_000] {
                let t = m.service(5_000, now, lba, 8).unwrap();
                assert!(t.rotation_ns >= 0.0);
                assert!(t.rotation_ns < m.rotation_ns());
            }
        }
    }

    #[test]
    fn rotational_position_is_deterministic() {
        // Same head, same lba: waiting exactly one rotation period later
        // must give the same rotational wait.
        let m = mechanics();
        let a = m.service(0, 1e6, 500, 8).unwrap();
        let b = m.service(0, 1e6 + m.rotation_ns(), 500, 8).unwrap();
        assert!((a.rotation_ns - b.rotation_ns).abs() < 1e-3);
    }

    #[test]
    fn sequential_transfer_rate_approaches_media_rate() {
        let m = mechanics();
        // A full-track transfer takes one rotation (ignoring switches).
        let t = m.service(0, 0.0, 0, 1000).unwrap();
        assert!((t.transfer_ns - m.rotation_ns()).abs() < 1e-3);
    }

    #[test]
    fn track_crossings_add_head_switches() {
        let m = mechanics();
        let one = m.service(0, 0.0, 0, 1000).unwrap(); // one track
        let two = m.service(0, 0.0, 0, 2000).unwrap(); // two tracks, 1 switch
        let extra = two.transfer_ns - 2.0 * (one.transfer_ns);
        assert!((extra - 0.3e6).abs() < 1e-3, "head switch missing: {extra}");
    }

    #[test]
    fn out_of_range_service_errors() {
        let m = mechanics();
        let cap = m.geometry().total_sectors();
        assert!(m.service(0, 0.0, cap, 1).is_err());
        assert!(m.service(0, 0.0, cap - 1, 2).is_err());
    }

    #[test]
    fn mechanics_config_validation() {
        let g = DiskGeometry::uniform(1000, 500).unwrap();
        assert!(Mechanics::new(g.clone(), 0.0, 0.2, 3.0, 6.5, 0.3).is_err());
        assert!(Mechanics::new(g, 10_000.0, 0.2, 3.0, 6.5, -0.1).is_err());
    }
}
