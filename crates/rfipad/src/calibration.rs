//! Static calibration: tag diversity and deviation bias.
//!
//! Before recognition, RFIPad records each tag's signal in the static
//! environment. From those samples it derives, per tag:
//!
//! - the average phase θ̃ᵢ (Eq. 6) subtracted later to cancel the hardware
//!   phase offsets θ_T, θ_R, θ_tag — the *tag diversity* suppression of
//!   Eq. 8;
//! - the *deviation bias* bᵢ — the standard deviation of the static phase —
//!   from which the Eq. 9 weighting function is built to suppress *location
//!   diversity* (tags in rich multipath jitter more and are down-weighted);
//! - the static activity level used to set the stroke-detection threshold
//!   of Eq. 12.
//!
//! Phases live on the circle, so means and deviations are circular.

use crate::config::RfipadConfig;
use crate::error::RfipadError;
use crate::layout::ArrayLayout;
use rfid_gen2::report::{TagId, TagIdMap, TagReport};
use serde::{Deserialize, Serialize};
use sigproc::frames::FrameSeq;
use sigproc::series::TimeSeries;
use sigproc::stats;
use std::collections::HashMap;
use std::f64::consts::{PI, TAU};

/// Minimum static samples per tag for a trustworthy calibration (the paper
/// interrogates each tag 100 times; we require a tenth of that).
pub const MIN_SAMPLES_PER_TAG: usize = 10;

/// Floor on the deviation bias: the reader cannot resolve phase deviations
/// below its quantization step (≈ 0.0015 rad), so no tag's measured bias is
/// meaningful below it. Without this floor, near-noiseless calibrations
/// would turn floating-point dust into enormous weight swings.
pub const MIN_DEVIATION_BIAS: f64 = rfid_gen2::report::PHASE_STEP;

/// Wraps a phase difference into `(-π, π]`.
pub fn wrap_to_pi(phase: f64) -> f64 {
    let mut p = phase.rem_euclid(TAU);
    if p > PI {
        p -= TAU;
    }
    p
}

/// Circular mean of phases in radians.
fn circular_mean(phases: &[f64]) -> f64 {
    let (s, c) = phases
        .iter()
        .fold((0.0, 0.0), |(s, c), &p| (s + p.sin(), c + p.cos()));
    s.atan2(c).rem_euclid(TAU)
}

/// Circular standard deviation: `sqrt(-2 ln R)` with `R` the mean resultant
/// length.
fn circular_std(phases: &[f64]) -> f64 {
    let n = phases.len() as f64;
    if n < 2.0 {
        return 0.0;
    }
    let (s, c) = phases
        .iter()
        .fold((0.0, 0.0), |(s, c), &p| (s + p.sin(), c + p.cos()));
    let r = ((s / n).powi(2) + (c / n).powi(2)).sqrt().clamp(1e-12, 1.0);
    (-2.0 * r.ln()).sqrt()
}

/// Per-tag static statistics.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TagCalibration {
    /// Circular mean static phase θ̃ᵢ (Eq. 6).
    pub mean_phase: f64,
    /// Deviation bias bᵢ: circular std of static phase (Fig. 5).
    pub deviation_bias: f64,
    /// Mean static RSS in dBm (reference for trough depths).
    pub mean_rss: f64,
    /// Static samples used.
    pub samples: usize,
}

/// The complete static calibration of a pad.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Calibration {
    per_tag: TagIdMap<TagId, TagCalibration>,
    /// Mean deviation bias across the array (weighting normalizer).
    mean_bias: f64,
    /// Median `std(rms(w))` of static windows — the quiet-floor for Eq. 12.
    static_window_std: f64,
    /// Median per-frame multi-tag RMS of the static recording — the
    /// quiet-floor for the RMS-level criterion.
    static_frame_rms: f64,
}

impl Calibration {
    /// Builds a calibration from observations recorded with no hand present.
    ///
    /// # Errors
    ///
    /// - [`RfipadError::EmptyStream`] if `observations` is empty;
    /// - [`RfipadError::UnknownTag`] if a report references a tag outside
    ///   the layout;
    /// - [`RfipadError::InsufficientCalibration`] if any layout tag has
    ///   fewer than [`MIN_SAMPLES_PER_TAG`] samples.
    pub fn from_observations(
        layout: &ArrayLayout,
        observations: &[TagReport],
        config: &RfipadConfig,
    ) -> Result<Self, RfipadError> {
        if observations.is_empty() {
            return Err(RfipadError::EmptyStream);
        }
        let mut phases: HashMap<TagId, Vec<f64>> = HashMap::new();
        let mut rss: HashMap<TagId, Vec<f64>> = HashMap::new();
        for obs in observations {
            if !layout.contains(obs.tag) {
                return Err(RfipadError::UnknownTag(obs.tag));
            }
            phases.entry(obs.tag).or_default().push(obs.phase);
            rss.entry(obs.tag).or_default().push(obs.rss_dbm);
        }

        let mut per_tag = TagIdMap::default();
        per_tag.reserve(layout.len());
        for &id in layout.tags() {
            let tag_phases = phases.get(&id).map(Vec::as_slice).unwrap_or(&[]);
            if tag_phases.len() < MIN_SAMPLES_PER_TAG {
                return Err(RfipadError::InsufficientCalibration {
                    tag: id,
                    got: tag_phases.len(),
                    need: MIN_SAMPLES_PER_TAG,
                });
            }
            per_tag.insert(
                id,
                TagCalibration {
                    mean_phase: circular_mean(tag_phases),
                    deviation_bias: circular_std(tag_phases).max(MIN_DEVIATION_BIAS),
                    mean_rss: stats::mean(rss.get(&id).map(Vec::as_slice).unwrap_or(&[])),
                    samples: tag_phases.len(),
                },
            );
        }
        let mean_bias = stats::mean(
            &per_tag
                .values()
                .map(|c| c.deviation_bias)
                .collect::<Vec<_>>(),
        )
        .max(1e-9);

        // Quiet-floor estimation: frame the *suppressed* static phases
        // exactly the way the segmenter will and record the typical
        // std(rms(w)).
        let (static_window_std, static_frame_rms) =
            Self::compute_static_floors(layout, &per_tag, observations, config);

        Ok(Self {
            per_tag,
            mean_bias,
            static_window_std,
            static_frame_rms,
        })
    }

    fn compute_static_floors(
        layout: &ArrayLayout,
        per_tag: &TagIdMap<TagId, TagCalibration>,
        observations: &[TagReport],
        config: &RfipadConfig,
    ) -> (f64, f64) {
        let mut streams: HashMap<TagId, TimeSeries> = HashMap::new();
        for obs in observations {
            let mean = per_tag[&obs.tag].mean_phase;
            streams
                .entry(obs.tag)
                .or_default()
                .push(obs.time, wrap_to_pi(obs.phase - mean));
        }
        let start = observations
            .iter()
            .map(|o| o.time)
            .fold(f64::INFINITY, f64::min);
        let end = observations
            .iter()
            .map(|o| o.time)
            .fold(f64::NEG_INFINITY, f64::max);
        if end - start < config.frame_len_s * config.window_frames as f64 {
            return (0.0, 0.0);
        }
        let mut series: Vec<TimeSeries> = Vec::with_capacity(layout.len());
        let mut floors: Vec<f64> = Vec::with_capacity(layout.len());
        for id in layout.tags() {
            series.push(streams.remove(id).unwrap_or_default());
            floors.push(config.noise_floor_kappa * per_tag[id].deviation_bias);
        }
        let frames =
            FrameSeq::build_with_floors(&series, Some(&floors), start, end, config.frame_len_s);
        let stds: Vec<f64> = frames
            .windows(config.window_frames)
            .iter()
            .map(|w| w.rms_std())
            .collect();
        (stats::median(&stds), stats::median(&frames.rms_values()))
    }

    /// Per-tag statistics.
    ///
    /// # Errors
    ///
    /// Returns [`RfipadError::UnknownTag`] for tags outside the calibration.
    pub fn tag(&self, id: TagId) -> Result<&TagCalibration, RfipadError> {
        self.per_tag.get(&id).ok_or(RfipadError::UnknownTag(id))
    }

    /// θ̃ᵢ for a tag.
    ///
    /// # Errors
    ///
    /// Returns [`RfipadError::UnknownTag`] for tags outside the calibration.
    pub fn mean_phase(&self, id: TagId) -> Result<f64, RfipadError> {
        self.tag(id).map(|c| c.mean_phase)
    }

    /// The Eq. 9 weight `wᵢ = bᵢ / Σbⱼ` (up to the array-size constant we
    /// report it relative to the mean bias: `wᵢ ∝ bᵢ / mean(b)`).
    ///
    /// # Errors
    ///
    /// Returns [`RfipadError::UnknownTag`] for tags outside the calibration.
    pub fn weight(&self, id: TagId) -> Result<f64, RfipadError> {
        self.tag(id)
            .map(|c| c.deviation_bias.max(0.1 * self.mean_bias) / self.mean_bias)
    }

    /// The Eq. 10 multiplier `wᵢ⁻¹`: tags with high deviation bias are
    /// weakened, quiet tags boosted. Floored at 10% of the mean bias to
    /// keep a near-perfect tag from dominating the image.
    ///
    /// # Errors
    ///
    /// Returns [`RfipadError::UnknownTag`] for tags outside the calibration.
    pub fn inverse_weight(&self, id: TagId) -> Result<f64, RfipadError> {
        self.weight(id).map(|w| 1.0 / w)
    }

    /// The Eq. 12 activity threshold: `threshold_scale` × the static quiet
    /// floor, but no lower than `threshold_floor`.
    pub fn activity_threshold(&self, config: &RfipadConfig) -> f64 {
        (config.threshold_scale * self.static_window_std).max(config.threshold_floor)
    }

    /// The RMS-level activity threshold complementing Eq. 12:
    /// `rms_level_scale` × the static excess-RMS floor, but at least
    /// `rms_level_floor`.
    pub fn rms_level_threshold(&self, config: &RfipadConfig) -> f64 {
        (config.rms_level_scale * self.static_frame_rms).max(config.rms_level_floor)
    }

    /// Per-tag noise floors (κ · deviation bias) in layout order, for the
    /// excess-RMS framing.
    pub fn noise_floors(&self, layout: &ArrayLayout, config: &RfipadConfig) -> Vec<f64> {
        layout
            .tags()
            .iter()
            .map(|id| {
                config.noise_floor_kappa
                    * self
                        .per_tag
                        .get(id)
                        .map(|c| c.deviation_bias)
                        .unwrap_or(0.0)
            })
            .collect()
    }

    /// Median static frame RMS the level threshold derives from.
    pub fn static_frame_rms(&self) -> f64 {
        self.static_frame_rms
    }

    /// Mean deviation bias across the array.
    pub fn mean_bias(&self) -> f64 {
        self.mean_bias
    }

    /// Median static `std(rms(w))` the threshold is derived from.
    pub fn static_window_std(&self) -> f64 {
        self.static_window_std
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn layout() -> ArrayLayout {
        ArrayLayout::new(1, 2, vec![TagId(0), TagId(1)])
    }

    fn static_obs(tag: TagId, base_phase: f64, jitter: f64, n: usize) -> Vec<TagReport> {
        (0..n)
            .map(|j| {
                TagReport::synthetic(
                    tag,
                    j as f64 * 0.05,
                    (base_phase + jitter * ((j as f64 * 2.399).sin())).rem_euclid(TAU),
                    -45.0,
                )
            })
            .collect()
    }

    #[test]
    fn circular_mean_handles_wraparound() {
        // Samples straddling 0/2π must average near 0, not π.
        let phases = [0.1, TAU - 0.1, 0.05, TAU - 0.05];
        let m = circular_mean(&phases);
        assert!(!(0.1..=TAU - 0.1).contains(&m), "mean {m}");
    }

    #[test]
    fn circular_std_small_for_tight_cluster() {
        let phases: Vec<f64> = (0..100).map(|i| 1.0 + 0.01 * (i as f64).sin()).collect();
        assert!(circular_std(&phases) < 0.05);
    }

    #[test]
    fn calibration_from_distinct_tags() {
        let mut obs = static_obs(TagId(0), 1.0, 0.02, 40);
        obs.extend(static_obs(TagId(1), 4.0, 0.2, 40));
        let cal =
            Calibration::from_observations(&layout(), &obs, &RfipadConfig::default()).unwrap();
        assert!((cal.mean_phase(TagId(0)).unwrap() - 1.0).abs() < 0.05);
        assert!((cal.mean_phase(TagId(1)).unwrap() - 4.0).abs() < 0.15);
        // Tag 1 jitters 10× more → larger bias, larger weight, smaller
        // inverse weight.
        let b0 = cal.tag(TagId(0)).unwrap().deviation_bias;
        let b1 = cal.tag(TagId(1)).unwrap().deviation_bias;
        assert!(b1 > 3.0 * b0, "biases {b0} {b1}");
        assert!(cal.inverse_weight(TagId(0)).unwrap() > cal.inverse_weight(TagId(1)).unwrap());
    }

    #[test]
    fn empty_observations_rejected() {
        assert_eq!(
            Calibration::from_observations(&layout(), &[], &RfipadConfig::default()),
            Err(RfipadError::EmptyStream)
        );
    }

    #[test]
    fn unknown_tag_rejected() {
        let obs = static_obs(TagId(7), 1.0, 0.02, 40);
        assert!(matches!(
            Calibration::from_observations(&layout(), &obs, &RfipadConfig::default()),
            Err(RfipadError::UnknownTag(TagId(7)))
        ));
    }

    #[test]
    fn undersampled_tag_rejected() {
        let mut obs = static_obs(TagId(0), 1.0, 0.02, 40);
        obs.extend(static_obs(TagId(1), 2.0, 0.02, 3));
        assert!(matches!(
            Calibration::from_observations(&layout(), &obs, &RfipadConfig::default()),
            Err(RfipadError::InsufficientCalibration {
                tag: TagId(1),
                got: 3,
                need: 10
            })
        ));
    }

    #[test]
    fn activity_threshold_respects_floor() {
        let mut obs = static_obs(TagId(0), 1.0, 1e-6, 40);
        obs.extend(static_obs(TagId(1), 2.0, 1e-6, 40));
        let config = RfipadConfig::default();
        let cal = Calibration::from_observations(&layout(), &obs, &config).unwrap();
        assert!(cal.activity_threshold(&config) >= config.threshold_floor);
    }

    #[test]
    fn noisier_environment_raises_threshold() {
        let config = RfipadConfig::default();
        let quiet = {
            let mut obs = static_obs(TagId(0), 1.0, 0.02, 60);
            obs.extend(static_obs(TagId(1), 2.0, 0.02, 60));
            Calibration::from_observations(&layout(), &obs, &config).unwrap()
        };
        let noisy = {
            let mut obs = static_obs(TagId(0), 1.0, 0.4, 60);
            obs.extend(static_obs(TagId(1), 2.0, 0.4, 60));
            Calibration::from_observations(&layout(), &obs, &config).unwrap()
        };
        assert!(noisy.activity_threshold(&config) >= quiet.activity_threshold(&config));
    }

    #[test]
    fn wrap_to_pi_range() {
        for i in -20..20 {
            let w = wrap_to_pi(i as f64 * 0.7);
            assert!(w > -PI - 1e-12 && w <= PI + 1e-12);
        }
        assert!((wrap_to_pi(TAU + 0.3) - 0.3).abs() < 1e-12);
        assert!((wrap_to_pi(-0.3) + 0.3).abs() < 1e-12);
    }
}
