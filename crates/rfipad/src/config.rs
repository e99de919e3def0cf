//! Pipeline configuration.

use crate::error::RfipadError;

/// Tunable parameters of the RFIPad pipeline. Defaults follow the paper:
/// 100 ms frames, 5-frame (0.5 s) windows, diversity suppression on, and
/// Otsu binarization of the accumulative-phase image.
///
/// The struct is `#[non_exhaustive]`: downstream code starts from
/// [`RfipadConfig::default`] and overrides fields by assignment, so new
/// knobs can land without breaking callers.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub struct RfipadConfig {
    /// Frame length in seconds (paper: 100 ms).
    pub frame_len_s: f64,
    /// Frames per segmentation window (paper: 5 → 0.5 s).
    pub window_frames: usize,
    /// Multiplier on the calibrated static `std(rms(w))` level used as the
    /// stroke-activity threshold `thre` of Eq. 12.
    pub threshold_scale: f64,
    /// Absolute floor for the activity threshold (radians-RMS units),
    /// protecting against a perfectly quiet calibration.
    pub threshold_floor: f64,
    /// Minimum number of consecutive active frames for a stroke (shorter
    /// bursts are discarded as noise). 3 frames = 0.3 s at the default
    /// frame length, just under the fastest plausible stroke.
    pub min_stroke_frames: usize,
    /// Whether the Eq. 6–10 diversity suppression runs (the Fig. 16
    /// ablation switches this off).
    pub suppress_diversity: bool,
    /// Whether binarization uses Otsu's method (`true`, the paper) or the
    /// fixed threshold below (ablation).
    pub use_otsu: bool,
    /// Fixed binarization threshold on the normalized (0–1) image when
    /// `use_otsu` is false.
    pub fixed_threshold: f64,
    /// Multiplier on the calibrated static frame-RMS level; frames whose
    /// multi-tag RMS exceeds it count as active even when the window
    /// variance criterion (Eq. 12) is blind — e.g. a hand moving with
    /// steady influence.
    pub rms_level_scale: f64,
    /// Absolute floor of the RMS-level threshold (excess-RMS units). The
    /// excess RMS of a quiet pad is ≈0 in any environment, so the floor
    /// sets the minimum signal a stroke must inject.
    pub rms_level_floor: f64,
    /// Multiplier κ on each tag's deviation bias when subtracting the
    /// per-tag noise floor from frame RMS (excess-RMS segmentation).
    pub noise_floor_kappa: f64,
    /// Half-window of the moving-average smoother applied to RSS before
    /// trough detection.
    pub trough_smooth_half: usize,
    /// Minimum RSS trough prominence (dB) for the direction estimator.
    pub trough_min_prominence_db: f64,
}

impl RfipadConfig {
    /// Validates ranges, returning an error describing the first problem.
    ///
    /// # Errors
    ///
    /// Returns [`RfipadError::InvalidConfig`] if any field is out of range.
    pub fn validate(&self) -> Result<(), RfipadError> {
        if self.frame_len_s <= 0.0 {
            return Err(RfipadError::InvalidConfig("frame_len_s must be > 0".into()));
        }
        if self.window_frames == 0 {
            return Err(RfipadError::InvalidConfig(
                "window_frames must be ≥ 1".into(),
            ));
        }
        if self.threshold_scale <= 0.0 {
            return Err(RfipadError::InvalidConfig(
                "threshold_scale must be > 0".into(),
            ));
        }
        if self.min_stroke_frames == 0 {
            return Err(RfipadError::InvalidConfig(
                "min_stroke_frames must be ≥ 1".into(),
            ));
        }
        if !(0.0..=1.0).contains(&self.fixed_threshold) {
            return Err(RfipadError::InvalidConfig(
                "fixed_threshold must be in [0, 1]".into(),
            ));
        }
        Ok(())
    }

    /// The paper's configuration with diversity suppression disabled — the
    /// baseline of Fig. 16.
    pub fn without_suppression(&self) -> Self {
        Self {
            suppress_diversity: false,
            ..self.clone()
        }
    }
}

impl Default for RfipadConfig {
    fn default() -> Self {
        Self {
            frame_len_s: 0.1,
            window_frames: 5,
            threshold_scale: 3.0,
            threshold_floor: 0.05,
            min_stroke_frames: 3,
            suppress_diversity: true,
            use_otsu: true,
            fixed_threshold: 0.5,
            rms_level_scale: 2.5,
            rms_level_floor: 0.9,
            noise_floor_kappa: 1.3,
            trough_smooth_half: 2,
            trough_min_prominence_db: 1.5,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid_and_matches_paper() {
        let c = RfipadConfig::default();
        c.validate().expect("default valid");
        assert_eq!(c.frame_len_s, 0.1);
        assert_eq!(c.window_frames, 5);
        assert!(c.suppress_diversity);
        assert!(c.use_otsu);
    }

    #[test]
    fn invalid_fields_rejected() {
        let c = RfipadConfig {
            frame_len_s: 0.0,
            ..RfipadConfig::default()
        };
        assert!(c.validate().is_err());

        let c = RfipadConfig {
            window_frames: 0,
            ..RfipadConfig::default()
        };
        assert!(c.validate().is_err());

        let c = RfipadConfig {
            fixed_threshold: 1.5,
            ..RfipadConfig::default()
        };
        assert!(c.validate().is_err());
    }

    #[test]
    fn without_suppression_flips_only_that_flag() {
        let c = RfipadConfig::default();
        let b = c.without_suppression();
        assert!(!b.suppress_diversity);
        assert_eq!(b.frame_len_s, c.frame_len_s);
        assert_eq!(b.use_otsu, c.use_otsu);
    }
}
