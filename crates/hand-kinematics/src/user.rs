//! User profiles: how different people write in the air.
//!
//! The paper's usability study (Fig. 20) spans ten volunteers differing in
//! gender, age, height (158–183 cm), weight, and arm length (56–70 cm), and
//! finds two of them (#6 and #9) move fast enough to lose some accuracy.
//! A [`UserProfile`] captures the parameters that matter to the RF channel:
//! stroke speed, writing height, positional jitter, pause behaviour, and
//! the scattering cross-sections of hand and forearm.

use rf_sim::geometry::Vec3;

/// Parameters describing one writer.
#[derive(Debug, Clone, PartialEq)]
pub struct UserProfile {
    /// Display name ("volunteer 1" …).
    pub name: String,
    /// Multiplier on stroke speed (1.0 ≈ 0.25 m/s pen speed).
    pub speed_scale: f64,
    /// Height above the plate at which strokes are drawn (paper: accuracy
    /// holds within ≈ 5 cm).
    pub write_height_m: f64,
    /// Height the hand is raised to during the adjustment interval between
    /// strokes.
    pub raise_height_m: f64,
    /// Standard deviation of way-point positioning error (sloppiness).
    pub jitter_sigma_m: f64,
    /// Nominal pause duration between strokes (the adjustment interval the
    /// segmentation detects).
    pub pause_s: f64,
    /// Hand radar cross-section in m².
    pub hand_rcs_m2: f64,
    /// Forearm radar cross-section in m².
    pub arm_rcs_m2: f64,
    /// Forearm offset from the hand (the user stands at the pad's bottom
    /// edge, so the arm trails toward −y and slightly above).
    pub arm_offset: Vec3,
    /// Probability that a between-stroke adjustment is *sloppy*: the hand
    /// hesitates and dips back toward the plate mid-pause. The paper blames
    /// such hesitation for its segmentation insertions (Fig. 22), but here
    /// the dip keeps the pad active through the pause, so segmentation
    /// merges the strokes on either side into one span and inserts none
    /// (EXPERIMENTS.md, Fig. 22). Defaults to zero — the simulated writers
    /// pause cleanly.
    pub sloppy_adjust_prob: f64,
}

impl UserProfile {
    /// A careful average writer — the baseline for most experiments.
    pub fn average() -> Self {
        Self {
            name: "average".to_string(),
            speed_scale: 1.0,
            write_height_m: 0.03,
            raise_height_m: 0.22,
            jitter_sigma_m: 0.006,
            pause_s: 1.0,
            hand_rcs_m2: 0.02,
            arm_rcs_m2: 0.06,
            arm_offset: Vec3::new(0.0, -0.22, 0.12),
            sloppy_adjust_prob: 0.0,
        }
    }

    /// One of the paper's ten volunteers (`1..=10`), with diversity in speed,
    /// height, and sloppiness. Volunteers 6 and 9 are the paper's fast
    /// movers whose accuracy dips slightly.
    ///
    /// # Panics
    ///
    /// Panics unless `index` is in `1..=10`.
    pub fn volunteer(index: usize) -> Self {
        assert!(
            (1..=10).contains(&index),
            "volunteer index must be 1..=10, got {index}"
        );
        // (speed, write height, jitter, pause, hand RCS)
        let params: [(f64, f64, f64, f64, f64); 10] = [
            (0.90, 0.030, 0.005, 1.05, 0.020), // 1
            (1.00, 0.035, 0.006, 1.00, 0.022), // 2
            (0.85, 0.028, 0.004, 1.10, 0.018), // 3
            (1.10, 0.032, 0.007, 0.95, 0.024), // 4
            (0.95, 0.030, 0.005, 1.02, 0.019), // 5
            (1.75, 0.038, 0.010, 0.70, 0.021), // 6 — fast mover
            (1.00, 0.033, 0.006, 1.00, 0.023), // 7
            (0.92, 0.029, 0.005, 1.04, 0.020), // 8
            (1.65, 0.036, 0.009, 0.75, 0.022), // 9 — fast mover
            (1.05, 0.031, 0.006, 0.98, 0.021), // 10
        ];
        let (speed, z, jitter, pause, rcs) = params[index - 1];
        Self {
            name: format!("volunteer {index}"),
            speed_scale: speed,
            write_height_m: z,
            jitter_sigma_m: jitter,
            pause_s: pause,
            hand_rcs_m2: rcs,
            ..Self::average()
        }
    }

    /// Nominal pen speed in m/s for this user.
    pub fn pen_speed(&self) -> f64 {
        0.25 * self.speed_scale
    }

    /// A copy writing at a given speed multiple (for the Fig. 21 speed
    /// study).
    pub fn with_speed(&self, speed_scale: f64) -> Self {
        assert!(speed_scale > 0.0, "speed must be positive");
        Self {
            speed_scale,
            name: format!("{} ×{speed_scale:.2}", self.name),
            ..self.clone()
        }
    }
}

impl Default for UserProfile {
    fn default() -> Self {
        Self::average()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ten_volunteers_defined() {
        for i in 1..=10 {
            let v = UserProfile::volunteer(i);
            assert!(v.speed_scale > 0.0);
            assert!(v.write_height_m > 0.0 && v.write_height_m < 0.06);
        }
    }

    #[test]
    #[should_panic(expected = "volunteer index must be 1..=10")]
    fn volunteer_zero_rejected() {
        UserProfile::volunteer(0);
    }

    #[test]
    fn volunteers_6_and_9_are_fast() {
        let speeds: Vec<f64> = (1..=10)
            .map(|i| UserProfile::volunteer(i).speed_scale)
            .collect();
        let fast = [speeds[5], speeds[8]];
        for (i, &s) in speeds.iter().enumerate() {
            if i != 5 && i != 8 {
                assert!(
                    fast[0] > 1.3 * s && fast[1] > 1.3 * s,
                    "volunteer {} speed",
                    i + 1
                );
            }
        }
    }

    #[test]
    fn pen_speed_scales() {
        let u = UserProfile::average().with_speed(2.0);
        assert!((u.pen_speed() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn arm_sits_behind_and_above_hand() {
        let u = UserProfile::average();
        assert!(u.arm_offset.y < 0.0);
        assert!(u.arm_offset.z > 0.0);
        assert!(u.arm_rcs_m2 > u.hand_rcs_m2);
    }
}
