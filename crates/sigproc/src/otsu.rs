//! Otsu's clustering-based threshold selection.
//!
//! RFIPad (§III-A3) renders the per-tag accumulative phase differences as a
//! gray-scale image and binarizes it with Otsu's method: the threshold that
//! maximizes the between-class variance of foreground vs. background pixels.
//! The `1` pixels then mark the tags the hand moved over.

/// Number of histogram bins used when thresholding continuous data.
pub const OTSU_BINS: usize = 256;

/// Computes the Otsu threshold of a set of continuous gray values.
///
/// The data is histogrammed into [`OTSU_BINS`] equal-width bins between its
/// minimum and maximum, and the classic between-class-variance maximization
/// is run over the histogram. The returned threshold is the *upper edge* of
/// the chosen bin, so `value > threshold` selects the foreground class.
///
/// Returns `None` when the input is empty or all values are (nearly) equal,
/// in which case no meaningful two-class split exists.
///
/// # Example
///
/// ```
/// use sigproc::otsu::otsu_threshold;
///
/// // Two well-separated clusters around 0 and 10.
/// let data: Vec<f64> = (0..50).map(|i| (i % 5) as f64 * 0.1)
///     .chain((0..50).map(|i| 10.0 + (i % 5) as f64 * 0.1)).collect();
/// let t = otsu_threshold(&data).unwrap();
/// assert!(t > 0.5 && t < 10.0);
/// ```
pub fn otsu_threshold(data: &[f64]) -> Option<f64> {
    if data.is_empty() {
        return None;
    }
    let (lo, hi) = (crate::stats::min(data), crate::stats::max(data));
    if !(hi - lo).is_finite() || (hi - lo) < 1e-12 {
        return None;
    }
    let width = (hi - lo) / OTSU_BINS as f64;
    let mut hist = [0usize; OTSU_BINS];
    for &v in data {
        // A NaN casts to bin 0; the maximum falls one past the last bin
        // and is clamped back into it.
        hist[(((v - lo) / width) as usize).min(OTSU_BINS - 1)] += 1;
    }
    let bin_index = otsu_threshold_histogram(&hist)?;
    // Upper edge of the selected bin: foreground is strictly above.
    Some(lo + (bin_index as f64 + 1.0) * width)
}

/// Runs Otsu's method directly on a histogram, returning the bin index `k`
/// that maximizes between-class variance for the split `bins[0..=k]` vs.
/// `bins[k+1..]`.
///
/// Returns `None` if the histogram has fewer than two non-empty bins.
pub fn otsu_threshold_histogram(hist: &[usize]) -> Option<usize> {
    let total: usize = hist.iter().sum();
    if total == 0 || hist.iter().filter(|&&c| c > 0).count() < 2 {
        return None;
    }
    let total_f = total as f64;
    let global_sum: f64 = hist
        .iter()
        .enumerate()
        .map(|(i, &c)| i as f64 * c as f64)
        .sum();

    let mut w0 = 0.0; // background weight
    let mut sum0 = 0.0; // background intensity sum
    let mut best_var = -1.0;
    // Ties (e.g. a run of empty bins between two clusters) are averaged, the
    // conventional resolution that places the threshold mid-gap.
    let mut tie_sum = 0usize;
    let mut tie_count = 0usize;
    // The last bin cannot be a split point (foreground would be empty).
    for (k, &count) in hist.iter().enumerate().take(hist.len() - 1) {
        w0 += count as f64;
        if w0 == 0.0 {
            continue;
        }
        let w1 = total_f - w0;
        if w1 == 0.0 {
            break;
        }
        sum0 += k as f64 * count as f64;
        let mu0 = sum0 / w0;
        let mu1 = (global_sum - sum0) / w1;
        let between = w0 * w1 * (mu0 - mu1) * (mu0 - mu1);
        if between > best_var * (1.0 + 1e-12) {
            best_var = between;
            tie_sum = k;
            tie_count = 1;
        } else if (between - best_var).abs() <= best_var.abs() * 1e-12 {
            tie_sum += k;
            tie_count += 1;
        }
    }
    (tie_count > 0).then(|| tie_sum / tie_count)
}

/// Binarizes data with the Otsu threshold: `true` where `value > threshold`.
///
/// If no threshold exists (uniform or empty data), every element maps to
/// `false` — a uniform image contains no foreground.
pub fn otsu_binarize(data: &[f64]) -> Vec<bool> {
    match otsu_threshold(data) {
        Some(t) => data.iter().map(|&v| v > t).collect(),
        None => vec![false; data.len()],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_data_has_no_threshold() {
        assert_eq!(otsu_threshold(&[]), None);
    }

    #[test]
    fn uniform_data_has_no_threshold() {
        assert_eq!(otsu_threshold(&[3.0; 20]), None);
    }

    #[test]
    fn two_clusters_split_between() {
        let mut data = vec![0.0; 40];
        data.extend(vec![1.0; 10]);
        let t = otsu_threshold(&data).expect("bimodal");
        assert!(t > 0.0 && t < 1.0, "threshold {t}");
        let mask = otsu_binarize(&data);
        assert_eq!(mask.iter().filter(|&&m| m).count(), 10);
    }

    #[test]
    fn noisy_clusters_still_split() {
        // Deterministic pseudo-noise around 0 and around 5.
        let data: Vec<f64> = (0..200)
            .map(|i| {
                let noise = ((i * 37 % 17) as f64 - 8.0) * 0.02;
                if i % 4 == 0 {
                    5.0 + noise
                } else {
                    noise
                }
            })
            .collect();
        let t = otsu_threshold(&data).expect("bimodal");
        assert!(t > 0.5 && t < 4.5);
        let mask = otsu_binarize(&data);
        let fg = mask.iter().filter(|&&m| m).count();
        assert_eq!(fg, 50);
    }

    #[test]
    fn histogram_variant_matches_known_split() {
        // 10 counts at bin 0, 10 at bin 9: any split between works; Otsu
        // should put k somewhere in 0..9.
        let mut hist = [0usize; 10];
        hist[0] = 10;
        hist[9] = 10;
        let k = otsu_threshold_histogram(&hist).expect("two classes");
        assert!(k < 9);
    }

    #[test]
    fn histogram_single_bin_is_none() {
        let mut hist = [0usize; 10];
        hist[4] = 100;
        assert_eq!(otsu_threshold_histogram(&hist), None);
    }

    #[test]
    fn binarize_uniform_is_all_background() {
        let mask = otsu_binarize(&[2.0; 8]);
        assert!(mask.iter().all(|&m| !m));
    }

    #[test]
    fn threshold_separates_unbalanced_clusters() {
        // 95% background, 5% foreground — the RFIPad case: few "hot" tags.
        let mut data = vec![0.1; 95];
        data.extend(vec![9.0; 5]);
        let t = otsu_threshold(&data).expect("bimodal");
        let fg: Vec<bool> = data.iter().map(|&v| v > t).collect();
        assert_eq!(fg.iter().filter(|&&m| m).count(), 5);
    }

    #[test]
    fn negative_values_supported() {
        let mut data = vec![-5.0; 30];
        data.extend(vec![5.0; 30]);
        let t = otsu_threshold(&data).expect("bimodal");
        assert!(t > -5.0 && t < 5.0);
    }
}
