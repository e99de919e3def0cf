//! Directional reader-antenna model.
//!
//! Implements the paper's idealized radiation model (§IV-B3, Fig. 13): the
//! antenna radiates into a solid angle `Ω_s ≈ 4π / G` (Eq. 13), giving a beam
//! angle `θ_beam ≈ sqrt(4π / G)` (Eq. 14). For the prototype's 8 dBi Laird
//! panel this is ≈ 72°. Off-boresight gain rolls off smoothly (a `cos^n`
//! pattern fitted so the −3 dB point falls at half the beam angle), with a
//! sidelobe floor so tags outside the main lobe are attenuated but not
//! invisible.

use crate::geometry::Vec3;
use crate::units::{Dbi, Meters};

/// Gain floor applied outside the main lobe, dB below peak.
const SIDELOBE_FLOOR_DB: f64 = -20.0;

/// A directional reader antenna with position and boresight orientation.
///
/// # Example
///
/// ```
/// use rf_sim::antenna::ReaderAntenna;
/// use rf_sim::geometry::Vec3;
/// use rf_sim::units::Dbi;
///
/// // Antenna half a metre above the tag plane, pointing down at it.
/// let ant = ReaderAntenna::new(
///     Vec3::new(0.0, 0.0, 0.5),
///     Vec3::new(0.0, 0.0, -1.0),
///     Dbi(8.0),
/// );
/// // Peak gain on boresight:
/// let g = ant.gain_toward(Vec3::new(0.0, 0.0, 0.0));
/// assert!((g.value() - 8.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReaderAntenna {
    position: Vec3,
    boresight: Vec3,
    gain: Dbi,
}

impl ReaderAntenna {
    /// Creates an antenna at `position` pointing along `boresight` with the
    /// given peak gain.
    ///
    /// # Panics
    ///
    /// Panics if `boresight` is the zero vector.
    pub fn new(position: Vec3, boresight: Vec3, gain: Dbi) -> Self {
        Self {
            position,
            boresight: boresight.normalized(),
            gain,
        }
    }

    /// Antenna position.
    pub fn position(&self) -> Vec3 {
        self.position
    }

    /// Unit boresight direction.
    pub fn boresight(&self) -> Vec3 {
        self.boresight
    }

    /// Peak (boresight) gain.
    pub fn peak_gain(&self) -> Dbi {
        self.gain
    }

    /// Full beam angle from Eq. 14: `θ_beam ≈ sqrt(4π / G)` radians.
    ///
    /// ```
    /// use rf_sim::antenna::ReaderAntenna;
    /// use rf_sim::geometry::Vec3;
    /// use rf_sim::units::Dbi;
    ///
    /// let ant = ReaderAntenna::new(Vec3::ZERO, Vec3::new(0.0, 0.0, 1.0), Dbi(8.0));
    /// let deg = ant.beam_angle().to_degrees();
    /// assert!((deg - 72.0).abs() < 15.0); // paper: ≈ 72°
    /// ```
    pub fn beam_angle(&self) -> f64 {
        (4.0 * std::f64::consts::PI / self.gain.linear()).sqrt()
    }

    /// Gain toward an arbitrary point, following a `cos^n(θ)` main lobe whose
    /// −3 dB width matches [`beam_angle`](Self::beam_angle), clamped to a
    /// −20 dB sidelobe floor.
    pub fn gain_toward(&self, point: Vec3) -> Dbi {
        let dir = point - self.position;
        if dir.norm() < 1e-12 {
            return self.gain;
        }
        let theta = self.boresight.angle_to(dir);
        let half_beam = self.beam_angle() / 2.0;
        // cos^n pattern with n chosen so gain drops 3 dB at θ = half_beam:
        // n = -3 / (10 · log10(cos(half_beam))).
        let cos_hb = half_beam.cos().max(1e-6);
        let n = -3.0 / (10.0 * cos_hb.log10());
        let rolloff_db = if theta >= std::f64::consts::FRAC_PI_2 {
            SIDELOBE_FLOOR_DB
        } else {
            (10.0 * n * theta.cos().max(1e-9).log10()).max(SIDELOBE_FLOOR_DB)
        };
        Dbi(self.gain.value() + rolloff_db)
    }

    /// Minimum antenna-to-plane distance so a square plate of side `plate_len`
    /// centred on boresight is covered by the 3 dB beam (paper §IV-B3:
    /// `d = (l/2) / tan(θ_beam/2)`, ≈ 31.7 cm for the prototype's 46 cm
    /// plate and 72° beam).
    ///
    /// # Panics
    ///
    /// Panics if `plate_len` is not positive.
    pub fn min_coverage_distance(&self, plate_len: Meters) -> Meters {
        assert!(plate_len.value() > 0.0, "plate length must be positive");
        let half_beam = self.beam_angle() / 2.0;
        Meters(plate_len.value() / 2.0 / half_beam.tan())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn antenna() -> ReaderAntenna {
        ReaderAntenna::new(
            Vec3::new(0.0, 0.0, 0.5),
            Vec3::new(0.0, 0.0, -1.0),
            Dbi(8.0),
        )
    }

    #[test]
    fn boresight_gain_is_peak() {
        let a = antenna();
        let g = a.gain_toward(Vec3::new(0.0, 0.0, -1.0));
        assert!((g.value() - 8.0).abs() < 1e-9);
    }

    #[test]
    fn beam_angle_matches_paper() {
        // sqrt(4π/6.31) ≈ 1.41 rad ≈ 80.8°; the paper rounds to ≈72°.
        let deg = antenna().beam_angle().to_degrees();
        assert!(deg > 60.0 && deg < 90.0, "beam angle {deg}");
    }

    #[test]
    fn gain_drops_3db_at_half_beam() {
        let a = antenna();
        let half = a.beam_angle() / 2.0;
        // Point at angle `half` off boresight, 1 m away.
        let p = Vec3::new(half.sin(), 0.0, 0.5 - half.cos());
        let g = a.gain_toward(p);
        assert!((g.value() - (8.0 - 3.0)).abs() < 0.1, "gain {g}");
    }

    #[test]
    fn gain_monotonically_decreases_off_axis() {
        let a = antenna();
        let mut prev = f64::INFINITY;
        for i in 0..10 {
            let theta = i as f64 * 0.15;
            let p = Vec3::new(theta.sin(), 0.0, 0.5 - theta.cos());
            let g = a.gain_toward(p).value();
            assert!(g <= prev + 1e-9, "gain increased off-axis at step {i}");
            prev = g;
        }
    }

    #[test]
    fn sidelobe_floor_behind_antenna() {
        let a = antenna();
        let g = a.gain_toward(Vec3::new(0.0, 0.0, 2.0)); // directly behind
        assert!((g.value() - (8.0 + SIDELOBE_FLOOR_DB)).abs() < 1e-9);
    }

    #[test]
    fn coincident_point_gets_peak_gain() {
        let a = antenna();
        assert_eq!(a.gain_toward(a.position()).value(), 8.0);
    }

    #[test]
    fn min_coverage_distance_near_paper_value() {
        // Paper: 46 cm plate, ≈72° beam → d ≈ 31.7 cm. Our beam model gives
        // ≈80.8°, so the distance is a little smaller but the same order.
        let d = antenna().min_coverage_distance(Meters(0.46)).value();
        assert!(d > 0.2 && d < 0.4, "coverage distance {d}");
    }

    #[test]
    #[should_panic(expected = "plate length must be positive")]
    fn min_coverage_rejects_zero_plate() {
        antenna().min_coverage_distance(Meters(0.0));
    }
}
