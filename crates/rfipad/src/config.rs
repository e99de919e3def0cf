//! Pipeline configuration.

use crate::error::RfipadError;

/// The RFIPad pipeline parameters a run may vary. Defaults follow the
/// paper: 100 ms frames, 5-frame (0.5 s) windows and diversity suppression
/// on. The thresholds every run shares are constants in the modules that
/// read them ([`calibration`](crate::calibration),
/// [`segmentation`](crate::segmentation), [`direction`](crate::direction)).
///
/// The struct is `#[non_exhaustive]`: downstream code starts from
/// [`RfipadConfig::default`] and overrides fields by assignment.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub struct RfipadConfig {
    /// Frame length in seconds (paper: 100 ms).
    pub frame_len_s: f64,
    /// Frames per segmentation window (paper: 5 → 0.5 s).
    pub window_frames: usize,
    /// Whether the Eq. 6–10 diversity suppression runs (the Fig. 16
    /// ablation switches this off).
    pub suppress_diversity: bool,
}

impl RfipadConfig {
    /// Validates ranges, returning an error describing the first problem.
    ///
    /// # Errors
    ///
    /// Returns [`RfipadError::InvalidConfig`] if `frame_len_s` is not a
    /// finite positive number or `window_frames` is zero.
    pub fn validate(&self) -> Result<(), RfipadError> {
        if !(self.frame_len_s.is_finite() && self.frame_len_s > 0.0) {
            return Err(RfipadError::InvalidConfig(
                "frame_len_s must be finite and > 0".into(),
            ));
        }
        if self.window_frames == 0 {
            return Err(RfipadError::InvalidConfig(
                "window_frames must be ≥ 1".into(),
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
            suppress_diversity: true,
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
    }

    #[test]
    fn invalid_fields_rejected() {
        for frame_len_s in [0.0, -1.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let c = RfipadConfig {
                frame_len_s,
                ..RfipadConfig::default()
            };
            assert!(c.validate().is_err(), "frame_len_s {frame_len_s}");
        }

        let c = RfipadConfig {
            window_frames: 0,
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
        assert_eq!(b.window_frames, c.window_frames);
    }
}
