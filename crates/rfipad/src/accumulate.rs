//! The accumulative phase difference image (Eq. 5 / Eq. 10).
//!
//! For each tag, RFIPad sums the absolute consecutive differences of the
//! (suppressed, unwrapped) phase over the stroke's time span. The tag the
//! hand passed closest to accumulates the most phase change (the §III-A1
//! monotonicity result), so rendering the per-tag sums as a gray-scale
//! image over the array outlines the stroke. With the Eq. 9 weighting the
//! sums are divided by each tag's deviation-bias weight, suppressing
//! location diversity.

use crate::calibration::Calibration;
use crate::error::RfipadError;
use crate::layout::ArrayLayout;
use crate::streams::TagStreams;
use rfid_gen2::report::TagId;
use sigproc::grid::GridImage;

/// Accumulative (weighted) phase difference for one tag over `[start, end)`.
///
/// Returns 0.0 for a tag with fewer than two samples in the span.
pub fn accumulate_tag(streams: &TagStreams, id: TagId, start: f64, end: f64) -> f64 {
    accumulate_tag_denoised(streams, id, start, end, 0.0)
}

/// Accumulative phase difference with the noise floor removed.
///
/// Measurement noise alone makes `Σ|Δθ|` grow linearly with the number of
/// samples: for per-sample noise of deviation σ, each consecutive pair
/// contributes `E|N(0,σ)−N(0,σ)| = 2σ/√π` in expectation. Subtracting that
/// expectation (clamping at zero) leaves only motion-induced accumulation,
/// sharpening the gray image's foreground/background contrast before Otsu.
pub fn accumulate_tag_denoised(
    streams: &TagStreams,
    id: TagId,
    start: f64,
    end: f64,
    noise_sigma: f64,
) -> f64 {
    let Some(series) = streams.phase(id) else {
        return 0.0;
    };
    let (_, values) = series.window(start, end);
    if values.len() < 2 {
        return 0.0;
    }
    let raw: f64 = values.windows(2).map(|w| (w[1] - w[0]).abs()).sum();
    let pairs = (values.len() - 1) as f64;
    let expected_noise = pairs * 2.0 * noise_sigma / std::f64::consts::PI.sqrt();
    (raw - expected_noise).max(0.0)
}

/// Renders the accumulative phase-difference image of the whole array over
/// `[start, end)`.
///
/// With `calibration = Some(..)`, each tag's sum is multiplied by the
/// Eq. 10 inverse weight `wᵢ⁻¹` (deviation-bias suppression). With `None`
/// the raw sums are used — the paper's Fig. 7(a) baseline.
///
/// # Errors
///
/// Returns [`RfipadError::UnknownTag`] if the calibration is missing a
/// layout tag.
pub fn accumulative_image(
    layout: &ArrayLayout,
    streams: &TagStreams,
    calibration: Option<&Calibration>,
    start: f64,
    end: f64,
) -> Result<GridImage, RfipadError> {
    let mut img = GridImage::zeros(layout.rows(), layout.cols());
    // `tags()` is row-major, so a tag's index in it is its cell's index.
    for (&id, cell) in layout.tags().iter().zip(img.data_mut()) {
        *cell = match calibration {
            Some(cal) => {
                // Per-sample noise deviation of the suppressed stream is
                // the tag's calibrated deviation bias.
                let sigma = cal.tag(id)?.deviation_bias;
                accumulate_tag_denoised(streams, id, start, end, sigma) * cal.inverse_weight(id)?
            }
            None => accumulate_tag(streams, id, start, end),
        };
    }
    Ok(img)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RfipadConfig;
    use rfid_gen2::report::TagReport;
    use std::f64::consts::TAU;

    fn layout() -> ArrayLayout {
        ArrayLayout::new(1, 3, vec![TagId(0), TagId(1), TagId(2)])
    }

    fn obs(tag: TagId, time: f64, phase: f64) -> TagReport {
        TagReport::synthetic(tag, time, phase.rem_euclid(TAU), -45.0)
    }

    /// Tag 1 wiggles strongly, tags 0/2 are quiet.
    fn wiggle_observations() -> Vec<TagReport> {
        let mut out = Vec::new();
        for j in 0..50 {
            let t = j as f64 * 0.05;
            out.push(obs(TagId(0), t, 1.0 + 0.01 * (j as f64).sin()));
            out.push(obs(TagId(1), t + 0.01, 3.0 + 0.8 * (j as f64 * 0.9).sin()));
            out.push(obs(TagId(2), t + 0.02, 5.0 + 0.01 * (j as f64).cos()));
        }
        out
    }

    #[test]
    fn moving_tag_accumulates_most() {
        let observations = wiggle_observations();
        let streams = TagStreams::build(&layout(), None, &observations);
        let img = accumulative_image(&layout(), &streams, None, 0.0, 3.0).unwrap();
        assert!(img.get(0, 1) > 10.0 * img.get(0, 0));
        assert!(img.get(0, 1) > 10.0 * img.get(0, 2));
    }

    #[test]
    fn empty_span_gives_zero_image() {
        let observations = wiggle_observations();
        let streams = TagStreams::build(&layout(), None, &observations);
        let img = accumulative_image(&layout(), &streams, None, 10.0, 11.0).unwrap();
        assert!(img.data().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn single_sample_accumulates_zero() {
        let observations = vec![obs(TagId(0), 0.0, 1.0)];
        let streams = TagStreams::build(&layout(), None, &observations);
        assert_eq!(accumulate_tag(&streams, TagId(0), 0.0, 1.0), 0.0);
    }

    #[test]
    fn weighting_boosts_quiet_tags() {
        // Calibrate with tag 2 static noise much larger than tag 0's: the
        // weighting must shrink tag 2's image value relative to tag 0's for
        // identical motion-time wiggles.
        let mut cal_obs = Vec::new();
        for j in 0..60 {
            let t = j as f64 * 0.05;
            cal_obs.push(obs(TagId(0), t, 1.0 + 0.01 * (j as f64 * 2.4).sin()));
            cal_obs.push(obs(TagId(1), t + 0.01, 3.0 + 0.01 * (j as f64 * 1.7).sin()));
            cal_obs.push(obs(TagId(2), t + 0.02, 5.0 + 0.30 * (j as f64 * 2.1).sin()));
        }
        let cal =
            Calibration::from_observations(&layout(), &cal_obs, &RfipadConfig::default()).unwrap();

        // Motion phase: tags 0 and 2 wiggle identically.
        let mut motion = Vec::new();
        for j in 0..50 {
            let t = j as f64 * 0.05;
            motion.push(obs(TagId(0), t, 1.0 + 0.5 * (j as f64 * 0.9).sin()));
            motion.push(obs(TagId(1), t + 0.01, 3.0));
            motion.push(obs(TagId(2), t + 0.02, 5.0 + 0.5 * (j as f64 * 0.9).sin()));
        }
        let streams = TagStreams::build(&layout(), Some(&cal), &motion);
        let weighted = accumulative_image(&layout(), &streams, Some(&cal), 0.0, 3.0).unwrap();
        let unweighted = accumulative_image(&layout(), &streams, None, 0.0, 3.0).unwrap();
        // Unweighted: both tags similar.
        let ratio_raw = unweighted.get(0, 0) / unweighted.get(0, 2);
        assert!((0.5..2.0).contains(&ratio_raw), "raw ratio {ratio_raw}");
        // Weighted: the historically-noisy tag 2 is suppressed.
        let ratio_w = weighted.get(0, 0) / weighted.get(0, 2);
        assert!(ratio_w > 3.0, "weighted ratio {ratio_w}");
    }

    #[test]
    fn image_dimensions_follow_layout() {
        let observations = wiggle_observations();
        let streams = TagStreams::build(&layout(), None, &observations);
        let img = accumulative_image(&layout(), &streams, None, 0.0, 3.0).unwrap();
        assert_eq!(img.rows(), 1);
        assert_eq!(img.cols(), 3);
    }
}
