//! A simulated Kinect ground-truth tracker.
//!
//! The paper validates RFIPad against a Kinect placed behind the user: its
//! SDK's skeletal output provides the hand trajectory at ~30 Hz with
//! centimetre-level noise. This module reproduces that reference sensor so
//! trajectory-comparison experiments (Fig. 25) have the same two data
//! sources the paper had.

use crate::trajectory::Trajectory;
use rand::Rng;
use rf_sim::geometry::Vec3;
use rf_sim::noise::gaussian;

/// Kinect skeletal-tracking model: sampling rate and joint noise.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KinectTracker {
    /// Skeleton frames per second (Kinect v1/v2: 30 Hz).
    pub rate_hz: f64,
    /// Standard deviation of joint position noise per axis (≈ 1 cm for a
    /// hand joint at 2 m).
    pub noise_sigma_m: f64,
}

impl Default for KinectTracker {
    fn default() -> Self {
        Self {
            rate_hz: 30.0,
            noise_sigma_m: 0.01,
        }
    }
}

/// One skeletal hand-joint sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SkeletalSample {
    /// Frame timestamp in seconds.
    pub time: f64,
    /// Tracked hand-joint position.
    pub position: Vec3,
}

impl KinectTracker {
    /// Tracks a hand trajectory, producing noisy skeletal samples at the
    /// configured frame rate over the trajectory's span.
    pub fn track<R: Rng + ?Sized>(
        &self,
        trajectory: &Trajectory,
        rng: &mut R,
    ) -> Vec<SkeletalSample> {
        assert!(self.rate_hz > 0.0, "frame rate must be positive");
        let (Some(start), Some(end)) = (trajectory.start_time(), trajectory.end_time()) else {
            return Vec::new();
        };
        let dt = 1.0 / self.rate_hz;
        let mut out = Vec::new();
        let mut t = start;
        while t <= end {
            if let Some(p) = trajectory.position(t) {
                out.push(SkeletalSample {
                    time: t,
                    position: Vec3::new(
                        p.x + gaussian(rng, 0.0, self.noise_sigma_m),
                        p.y + gaussian(rng, 0.0, self.noise_sigma_m),
                        p.z + gaussian(rng, 0.0, self.noise_sigma_m),
                    ),
                });
            }
            t += dt;
        }
        out
    }

    /// Mean Euclidean error of tracked samples against the true trajectory
    /// (a self-check experiments use to quote ground-truth quality).
    pub fn mean_error(&self, trajectory: &Trajectory, samples: &[SkeletalSample]) -> f64 {
        if samples.is_empty() {
            return 0.0;
        }
        let sum: f64 = samples
            .iter()
            .filter_map(|s| trajectory.position(s.time).map(|p| p.distance(s.position)))
            .sum();
        sum / samples.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn line_trajectory() -> Trajectory {
        let mut tr = Trajectory::new();
        tr.push_segment(0.0, 2.0, vec![Vec3::ZERO, Vec3::new(0.3, -0.2, 0.03)]);
        tr
    }

    #[test]
    fn tracks_at_30hz() {
        let k = KinectTracker::default();
        let mut rng = StdRng::seed_from_u64(1);
        let samples = k.track(&line_trajectory(), &mut rng);
        assert!((samples.len() as i64 - 60).abs() <= 2, "{}", samples.len());
    }

    #[test]
    fn noise_is_centimetre_scale() {
        let k = KinectTracker::default();
        let tr = line_trajectory();
        let mut rng = StdRng::seed_from_u64(2);
        let samples = k.track(&tr, &mut rng);
        let err = k.mean_error(&tr, &samples);
        assert!(err > 0.005 && err < 0.05, "mean error {err}");
    }

    #[test]
    fn noiseless_tracker_is_exact() {
        let k = KinectTracker {
            rate_hz: 30.0,
            noise_sigma_m: 0.0,
        };
        let tr = line_trajectory();
        let mut rng = StdRng::seed_from_u64(3);
        let samples = k.track(&tr, &mut rng);
        assert!(k.mean_error(&tr, &samples) < 1e-12);
    }

    #[test]
    fn empty_trajectory_gives_no_samples() {
        let k = KinectTracker::default();
        let mut rng = StdRng::seed_from_u64(4);
        assert!(k.track(&Trajectory::new(), &mut rng).is_empty());
    }

    #[test]
    fn samples_are_time_ordered() {
        let k = KinectTracker::default();
        let mut rng = StdRng::seed_from_u64(5);
        let samples = k.track(&line_trajectory(), &mut rng);
        for pair in samples.windows(2) {
            assert!(pair[1].time > pair[0].time);
        }
    }
}
