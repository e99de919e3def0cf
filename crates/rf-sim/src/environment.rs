//! Static multipath environments.
//!
//! Walls, tables, and cabinets around the tag plane reflect the reader's
//! carrier, adding static phasors to every tag's channel and raising the
//! measurement jitter of tags close to strong reflectors. This is the
//! *location diversity* of §III-A2: each tag's phase vibrates around its own
//! central value with its own standard deviation (the *deviation bias* of
//! the paper's Fig. 5), which RFIPad's weighting function compensates.
//!
//! The paper evaluates four lab locations (Fig. 15/16) with increasingly
//! strong multipath; [`Environment::office_location`] provides matching
//! presets.

use crate::geometry::{Complex, Vec3};
use std::f64::consts::{PI, TAU};

/// A static point scatterer (wall section, table edge, cabinet…).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scatterer {
    /// Position in metres.
    pub position: Vec3,
    /// Radar scattering cross-section in m² (walls/furniture: 0.5–3 m²).
    pub rcs_m2: f64,
}

/// The static RF environment around the tag plane.
#[derive(Debug, Clone, PartialEq)]
pub struct Environment {
    name: String,
    scatterers: Vec<Scatterer>,
    base_phase_noise: f64,
    base_rss_noise_db: f64,
}

impl Environment {
    /// Multipath-to-jitter coupling: how strongly local multipath energy
    /// inflates a tag's phase noise.
    const PHASE_JITTER_GAIN: f64 = 0.05;
    /// Multipath-to-jitter coupling for RSS noise.
    const RSS_JITTER_GAIN: f64 = 0.6;

    /// Creates an environment from explicit scatterers and noise floors.
    ///
    /// # Panics
    ///
    /// Panics if a noise floor is negative.
    pub fn new(
        name: impl Into<String>,
        scatterers: Vec<Scatterer>,
        base_phase_noise: f64,
        base_rss_noise_db: f64,
    ) -> Self {
        assert!(base_phase_noise >= 0.0, "phase noise must be non-negative");
        assert!(base_rss_noise_db >= 0.0, "RSS noise must be non-negative");
        Self {
            name: name.into(),
            scatterers,
            base_phase_noise,
            base_rss_noise_db,
        }
    }

    /// An idealized anechoic environment: no scatterers and near-zero
    /// measurement noise. Useful for validating the theory of §III-A1.
    pub fn free_space() -> Self {
        Self::new("free space", Vec::new(), 1e-4, 1e-3)
    }

    /// One of the paper's four lab locations (Fig. 15), `1..=4`, with
    /// multipath richness growing with the index. Location 4 sits next to a
    /// wall and tables and shows the paper's largest suppression gain
    /// (75% → 93% in Fig. 16).
    ///
    /// # Panics
    ///
    /// Panics unless `index` is in `1..=4`.
    pub fn office_location(index: usize) -> Self {
        let base_phase = 0.02;
        let base_rss = 0.3;
        match index {
            1 => Self::new(
                "location 1 (open floor)",
                vec![Scatterer {
                    position: Vec3::new(2.5, -1.5, 0.8),
                    rcs_m2: 0.6,
                }],
                base_phase,
                base_rss,
            ),
            2 => Self::new(
                "location 2 (near doorway)",
                vec![
                    Scatterer {
                        position: Vec3::new(1.8, 0.6, 0.4),
                        rcs_m2: 0.8,
                    },
                    Scatterer {
                        position: Vec3::new(-1.6, -1.0, 0.7),
                        rcs_m2: 0.7,
                    },
                ],
                base_phase,
                base_rss,
            ),
            3 => Self::new(
                "location 3 (between desks)",
                vec![
                    Scatterer {
                        position: Vec3::new(1.0, 0.4, 0.3),
                        rcs_m2: 1.0,
                    },
                    Scatterer {
                        position: Vec3::new(-0.9, -0.7, 0.5),
                        rcs_m2: 0.95,
                    },
                    Scatterer {
                        position: Vec3::new(0.3, 1.2, 0.6),
                        rcs_m2: 0.8,
                    },
                ],
                base_phase,
                base_rss,
            ),
            4 => Self::new(
                "location 4 (wall corner, tables)",
                vec![
                    Scatterer {
                        position: Vec3::new(0.75, 0.28, 0.2),
                        rcs_m2: 1.15,
                    },
                    Scatterer {
                        position: Vec3::new(0.7, -0.6, 0.4),
                        rcs_m2: 1.0,
                    },
                    Scatterer {
                        position: Vec3::new(-0.7, 0.5, 0.3),
                        rcs_m2: 0.8,
                    },
                    Scatterer {
                        position: Vec3::new(0.15, 0.75, 0.6),
                        rcs_m2: 1.2,
                    },
                ],
                base_phase,
                base_rss,
            ),
            other => panic!("office location index must be 1..=4, got {other}"),
        }
    }

    /// Environment name for reports.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The static scatterers.
    pub fn scatterers(&self) -> &[Scatterer] {
        &self.scatterers
    }

    /// Sum of static multipath phasors for the reader→tag forward link,
    /// *relative* to the direct path (the direct path is the implicit `1`).
    ///
    /// Each scatterer contributes amplitude
    /// `d_rt · sqrt(σ/4π) / (d_rs · d_st)` and excess phase
    /// `2π (d_rs + d_st − d_rt) / λ`.
    pub fn multipath_phasor(&self, antenna: Vec3, tag: Vec3, wavelength: f64) -> Complex {
        let d_rt = antenna.distance(tag).max(1e-6);
        let mut sum = Complex::ZERO;
        for s in &self.scatterers {
            let d_rs = antenna.distance(s.position).max(1e-6);
            let d_st = s.position.distance(tag).max(1e-6);
            let amp = d_rt * (s.rcs_m2 / (4.0 * PI)).sqrt() / (d_rs * d_st);
            let excess = TAU * (d_rs + d_st - d_rt) / wavelength;
            sum = sum + Complex::from_polar(amp, -excess);
        }
        sum
    }

    /// A dimensionless measure of the multipath energy a tag at `tag`
    /// experiences: the sum of squared relative scatterer amplitudes as seen
    /// from a unit-distance illuminator. Drives location-dependent jitter.
    pub fn multipath_energy(&self, tag: Vec3) -> f64 {
        self.scatterers
            .iter()
            .map(|s| {
                let d = s.position.distance(tag).max(0.05);
                s.rcs_m2 / (4.0 * PI) / (d * d)
            })
            .sum()
    }

    /// Standard deviation of phase measurement noise (radians) for a tag at
    /// `tag` — the per-tag *deviation bias*. Grows with local multipath
    /// energy on top of the environment's base noise.
    pub fn phase_noise_sigma(&self, tag: Vec3) -> f64 {
        self.base_phase_noise + Self::PHASE_JITTER_GAIN * self.multipath_energy(tag)
    }

    /// Standard deviation of RSS measurement noise (dB) for a tag at `tag`.
    pub fn rss_noise_sigma(&self, tag: Vec3) -> f64 {
        self.base_rss_noise_db + Self::RSS_JITTER_GAIN * self.multipath_energy(tag)
    }
}

impl Default for Environment {
    fn default() -> Self {
        Self::office_location(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn free_space_has_no_multipath() {
        let env = Environment::free_space();
        let m = env.multipath_phasor(Vec3::new(0.0, 0.0, 0.5), Vec3::ZERO, 0.325);
        assert_eq!(m.abs(), 0.0);
        assert!(env.phase_noise_sigma(Vec3::ZERO) < 1e-3);
    }

    #[test]
    fn locations_grow_in_multipath_energy() {
        let probe = Vec3::new(0.12, -0.12, 0.0); // centre of the 5×5 plate
        let mut prev = 0.0;
        for i in 1..=4 {
            let e = Environment::office_location(i).multipath_energy(probe);
            assert!(e > prev, "location {i} energy {e} <= {prev}");
            prev = e;
        }
    }

    #[test]
    #[should_panic(expected = "office location index must be 1..=4")]
    fn invalid_location_panics() {
        Environment::office_location(5);
    }

    #[test]
    fn phase_noise_varies_across_plate_in_location4() {
        // Deviation bias: different tags must see measurably different noise.
        let env = Environment::office_location(4);
        let sigmas: Vec<f64> = (0..5)
            .flat_map(|r| (0..5).map(move |c| (r, c)))
            .map(|(r, c)| {
                env.phase_noise_sigma(Vec3::new(c as f64 * 0.06, -(r as f64) * 0.06, 0.0))
            })
            .collect();
        let lo = sigmas.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = sigmas.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        assert!(
            hi / lo > 1.15,
            "deviation bias spread too small: {lo}..{hi}"
        );
    }

    #[test]
    fn multipath_phasor_is_weak_relative_to_direct() {
        // Static multipath perturbs but must not dominate the direct path.
        let env = Environment::office_location(4);
        let m = env
            .multipath_phasor(Vec3::new(0.0, 0.0, -0.32), Vec3::ZERO, 0.325)
            .abs();
        assert!(m > 0.0 && m < 0.8, "relative multipath amplitude {m}");
    }

    #[test]
    fn nearer_scatterers_mean_more_energy() {
        let env = Environment::office_location(4);
        let near_wall = env.multipath_energy(Vec3::new(0.4, 0.1, 0.0));
        let far_corner = env.multipath_energy(Vec3::new(-0.3, -0.4, 0.0));
        assert!(near_wall > far_corner);
    }

    #[test]
    fn noise_floors_validated() {
        let e = Environment::new("x", vec![], 0.0, 0.0);
        assert_eq!(e.phase_noise_sigma(Vec3::ZERO), 0.0);
    }

    #[test]
    #[should_panic(expected = "phase noise must be non-negative")]
    fn negative_noise_rejected() {
        Environment::new("bad", vec![], -0.1, 0.0);
    }
}
