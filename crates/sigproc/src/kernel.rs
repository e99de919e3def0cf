//! Allocation-free, slice-oriented DSP kernels for the per-tick hot path.
//!
//! Every kernel here is a tight loop over `&[f64]` (or `&[bool]`) that
//! writes into caller-owned output buffers (`_into` variants) or returns
//! scalars, so a steady-state caller that reuses its buffers performs zero
//! heap allocations. Output buffers are cleared between uses, never
//! shrunk, so their capacity converges to the high-water mark of the
//! workload.
//!
//! # Bit-identity contract
//!
//! The online pipeline's golden-trace replay must stay bit-identical across
//! refactors, which constrains what "SIMD-ready" may mean here:
//!
//! - **Reductions** (`sum_sumsq`, `minmax`, the windowed statistics) keep
//!   the exact sequential accumulation order of the naive implementations
//!   they replace. Reassociating an `f64` sum into multiple accumulator
//!   lanes would change the rounding and therefore the bits, so these
//!   kernels win through fusion (one pass instead of two) and allocation
//!   removal, not through vectorized accumulation.
//! - **Elementwise maps** (`normalize_unit_into`, `binarize_into`, the
//!   interpolation inside `resample_linear_into`) have no cross-element
//!   data flow, so LLVM is free to autovectorize them as written.
//! - `median_of_window` uses an in-place stable insertion sort over the
//!   reusable `sort` buffer, reproducing `stats::median`'s stable
//!   `sort_by` ordering bit-for-bit (signed zeros included) without the
//!   temporary buffer a stable merge sort allocates.
//!
//! Each kernel is paired with a naive scalar implementation in
//! [`mod@reference`]; proptests assert bitwise agreement on NaN-free input, and
//! the `kernel_bench` binary in the `bench` crate times old vs. new.

/// Fused sum and sum-of-squares over one pass.
///
/// Both accumulators follow the element order exactly, so each result is
/// bit-identical to the corresponding separate `iter().sum()` pass.
pub fn sum_sumsq(data: &[f64]) -> (f64, f64) {
    // `Iterator::sum::<f64>()` folds from -0.0 (so a sum of negative zeros
    // stays -0.0); seed the accumulators the same way for bit-identity.
    let mut sum = -0.0;
    let mut sumsq = -0.0;
    for &x in data {
        sum += x;
        sumsq += x * x;
    }
    (sum, sumsq)
}

/// Fused NaN-ignoring minimum and maximum over one pass.
///
/// Returns `(f64::INFINITY, f64::NEG_INFINITY)` for empty (or all-NaN)
/// input, matching [`crate::stats::min`] / [`crate::stats::max`].
pub fn minmax(data: &[f64]) -> (f64, f64) {
    let mut lo = f64::INFINITY;
    let mut hi = f64::NEG_INFINITY;
    for &v in data {
        if v.is_nan() {
            continue;
        }
        lo = lo.min(v);
        hi = hi.max(v);
    }
    (lo, hi)
}

/// Centered moving average with window `2*half + 1`, shrinking at the
/// edges, written into `out`. `half == 0` copies the input.
///
/// Matches [`crate::filter::moving_average`] bit-for-bit: each window is
/// summed independently in element order (a sliding-sum recurrence would
/// round differently).
pub fn moving_average_into(data: &[f64], half: usize, out: &mut Vec<f64>) {
    out.clear();
    if half == 0 || data.is_empty() {
        out.extend_from_slice(data);
        return;
    }
    let n = data.len();
    out.reserve(n);
    for i in 0..n {
        let lo = i.saturating_sub(half);
        let hi = (i + half + 1).min(n);
        let window = &data[lo..hi];
        out.push(window.iter().sum::<f64>() / window.len() as f64);
    }
}

/// Median of one window using `sort` as reusable scratch. Returns 0.0 for
/// an empty window.
///
/// The scratch is sorted with an in-place stable insertion sort — built
/// for the short windows of [`median_filter_into`] — so the result matches
/// [`crate::stats::median`] (stable `sort_by`, [`f64::total_cmp`] order)
/// bit-for-bit without the temporary allocation of a merge sort.
pub fn median_of_window(window: &[f64], sort: &mut Vec<f64>) -> f64 {
    if window.is_empty() {
        return 0.0;
    }
    sort.clear();
    sort.extend_from_slice(window);
    for i in 1..sort.len() {
        let mut j = i;
        while j > 0 && sort[j - 1].total_cmp(&sort[j]).is_gt() {
            sort.swap(j - 1, j);
            j -= 1;
        }
    }
    let n = sort.len();
    if n % 2 == 1 {
        sort[n / 2]
    } else {
        0.5 * (sort[n / 2 - 1] + sort[n / 2])
    }
}

/// Centered median filter with window `2*half + 1`, shrinking at the
/// edges, written into `out`. `half == 0` copies the input. `sort` is the
/// reusable sort scratch.
///
/// # Panics
///
/// Panics if the input contains NaN (from the window median).
pub fn median_filter_into(data: &[f64], half: usize, sort: &mut Vec<f64>, out: &mut Vec<f64>) {
    out.clear();
    if half == 0 || data.is_empty() {
        out.extend_from_slice(data);
        return;
    }
    let n = data.len();
    out.reserve(n);
    for i in 0..n {
        let lo = i.saturating_sub(half);
        let hi = (i + half + 1).min(n);
        out.push(median_of_window(&data[lo..hi], sort));
    }
}

/// Linear resampling of `(times, values)` onto a uniform grid with spacing
/// `dt`, sweeping a single cursor — O(n + m) for n samples and m grid
/// points. Outputs are cleared first; fewer than two samples yield empty
/// output.
///
/// Bit-identical to a per-grid-point binary-search interpolation
/// ([`reference::resample_linear`]): the cursor lands on the same index
/// `partition_point` would find.
///
/// # Panics
///
/// Panics if `dt <= 0` or the slices differ in length.
pub fn resample_linear_into(
    times: &[f64],
    values: &[f64],
    dt: f64,
    out_times: &mut Vec<f64>,
    out_values: &mut Vec<f64>,
) {
    assert!(dt > 0.0, "resample interval must be positive");
    assert_eq!(times.len(), values.len(), "times/values length mismatch");
    out_times.clear();
    out_values.clear();
    if times.len() < 2 {
        return;
    }
    let start = times[0];
    let end = *times.last().expect("nonempty");
    let mut idx = 0;
    let mut t = start;
    while t <= end + 1e-12 {
        let tc = t.min(end);
        // Advance the cursor to the first sample with time >= tc — the same
        // index a binary search would find. Grid times are non-decreasing,
        // so the cursor never moves back.
        while idx < times.len() && times[idx] < tc {
            idx += 1;
        }
        let v = if idx < times.len() && times[idx] == tc {
            values[idx]
        } else {
            // tc lies strictly between times[idx-1] and times[idx].
            let (t0, t1) = (times[idx - 1], times[idx]);
            let (v0, v1) = (values[idx - 1], values[idx]);
            if t1 == t0 {
                v1
            } else {
                let frac = (tc - t0) / (t1 - t0);
                v0 + frac * (v1 - v0)
            }
        };
        out_times.push(tc);
        out_values.push(v);
        t += dt;
    }
}

/// Accumulates `data` into equal-width histogram bins of width `width`
/// starting at `lo`, clamping overflow into the last bin. `hist` is zeroed
/// first; its length fixes the bin count.
///
/// Values below `lo` land in bin 0 (the float-to-usize cast saturates at
/// zero), matching the accumulation loop this replaces in
/// [`crate::otsu::otsu_threshold`].
///
/// # Panics
///
/// Panics if `hist` is empty.
pub fn histogram_into(data: &[f64], lo: f64, width: f64, hist: &mut [usize]) {
    assert!(!hist.is_empty(), "histogram needs at least one bin");
    let bins = hist.len();
    hist.iter_mut().for_each(|h| *h = 0);
    for &v in data {
        let mut bin = ((v - lo) / width) as usize;
        if bin >= bins {
            bin = bins - 1;
        }
        hist[bin] += 1;
    }
}

/// Rescales `data` linearly to `[0, 1]` into `out`; a (near-)constant
/// input (span `< 1e-15`) maps to all zeros. Matches
/// [`crate::grid::GridImage::normalized`].
pub fn normalize_unit_into(data: &[f64], out: &mut Vec<f64>) {
    out.clear();
    let (lo, hi) = minmax(data);
    let span = hi - lo;
    if span < 1e-15 {
        out.resize(data.len(), 0.0);
        return;
    }
    out.reserve(data.len());
    out.extend(data.iter().map(|&v| (v - lo) / span));
}

/// Thresholds `data` into a boolean mask: `true` where `value > thresh`.
pub fn binarize_into(data: &[f64], thresh: f64, out: &mut Vec<bool>) {
    out.clear();
    out.reserve(data.len());
    out.extend(data.iter().map(|&v| v > thresh));
}

/// Orientation of the principal axis from central second moments, in
/// radians from the +column axis toward +row. Returns 0.0 for isotropic
/// shapes (both `2·µ_rc` and `µ_cc − µ_rr` below `1e-12`).
pub fn principal_orientation(mu_rr: f64, mu_cc: f64, mu_rc: f64) -> f64 {
    let num = 2.0 * mu_rc;
    let den = mu_cc - mu_rr;
    if num.abs() < 1e-12 && den.abs() < 1e-12 {
        return 0.0;
    }
    0.5 * num.atan2(den)
}

/// Centroid and central second moments of a row-major boolean mask.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MaskMoments {
    /// Number of foreground pixels.
    pub area: usize,
    /// Centroid `(row, col)` in pixel coordinates.
    pub centroid: (f64, f64),
    /// Central second moment µ_rr.
    pub mu_rr: f64,
    /// Central second moment µ_cc.
    pub mu_cc: f64,
    /// Central mixed moment µ_rc.
    pub mu_rc: f64,
}

/// Two-pass centroid + central-moment accumulation over a row-major mask
/// with `cols` columns, without materializing a foreground coordinate
/// list. Returns `None` for an all-background mask.
///
/// Both passes visit foreground pixels in row-major order — the same
/// accumulation order as the coordinate-list implementation it replaces
/// ([`reference::mask_moments`]), so the moments are bit-identical.
///
/// # Panics
///
/// Panics if `cols == 0` or `mask.len()` is not a multiple of `cols`.
pub fn mask_moments(mask: &[bool], cols: usize) -> Option<MaskMoments> {
    assert!(cols > 0, "mask needs at least one column");
    assert_eq!(mask.len() % cols, 0, "mask length not a multiple of cols");
    let mut n = 0usize;
    let mut sum_r = 0.0;
    let mut sum_c = 0.0;
    for (r, row) in mask.chunks_exact(cols).enumerate() {
        for (c, &on) in row.iter().enumerate() {
            if on {
                n += 1;
                sum_r += r as f64;
                sum_c += c as f64;
            }
        }
    }
    if n == 0 {
        return None;
    }
    let nf = n as f64;
    let cr = sum_r / nf;
    let cc = sum_c / nf;
    let mut mu_rr = 0.0;
    let mut mu_cc = 0.0;
    let mut mu_rc = 0.0;
    for (r, row) in mask.chunks_exact(cols).enumerate() {
        for (c, &on) in row.iter().enumerate() {
            if on {
                let dr = r as f64 - cr;
                let dc = c as f64 - cc;
                mu_rr += dr * dr;
                mu_cc += dc * dc;
                mu_rc += dr * dc;
            }
        }
    }
    Some(MaskMoments {
        area: n,
        centroid: (cr, cc),
        mu_rr: mu_rr / nf,
        mu_cc: mu_cc / nf,
        mu_rc: mu_rc / nf,
    })
}

pub mod reference {
    //! Naive scalar reference implementations of every kernel.
    //!
    //! These are the pre-kernel code paths, kept verbatim so proptests can
    //! assert bitwise agreement and `kernel_bench` can time old vs. new.
    //! They allocate freely and make no attempt to be fast.

    /// Sum and sum-of-squares as two separate passes.
    pub fn sum_sumsq(data: &[f64]) -> (f64, f64) {
        (
            data.iter().sum::<f64>(),
            data.iter().map(|&x| x * x).sum::<f64>(),
        )
    }

    /// Min and max as two separate NaN-filtering folds.
    pub fn minmax(data: &[f64]) -> (f64, f64) {
        (crate::stats::min(data), crate::stats::max(data))
    }

    /// Allocating centered moving average (the original
    /// `filter::moving_average` body).
    pub fn moving_average(data: &[f64], half: usize) -> Vec<f64> {
        if half == 0 || data.is_empty() {
            return data.to_vec();
        }
        let n = data.len();
        let mut out = Vec::with_capacity(n);
        for i in 0..n {
            let lo = i.saturating_sub(half);
            let hi = (i + half + 1).min(n);
            let window = &data[lo..hi];
            out.push(window.iter().sum::<f64>() / window.len() as f64);
        }
        out
    }

    /// Allocating centered median filter (the original
    /// `filter::median_filter` body over `stats::median`).
    pub fn median_filter(data: &[f64], half: usize) -> Vec<f64> {
        if half == 0 || data.is_empty() {
            return data.to_vec();
        }
        let n = data.len();
        let mut out = Vec::with_capacity(n);
        for i in 0..n {
            let lo = i.saturating_sub(half);
            let hi = (i + half + 1).min(n);
            out.push(crate::stats::median(&data[lo..hi]));
        }
        out
    }

    /// Per-grid-point binary-search linear resampling (the pre-cursor
    /// implementation).
    ///
    /// # Panics
    ///
    /// Panics if `dt <= 0`.
    pub fn resample_linear(times: &[f64], values: &[f64], dt: f64) -> (Vec<f64>, Vec<f64>) {
        assert!(dt > 0.0, "resample interval must be positive");
        let mut out_t = Vec::new();
        let mut out_v = Vec::new();
        if times.len() < 2 {
            return (out_t, out_v);
        }
        let start = times[0];
        let end = *times.last().expect("nonempty");
        let mut t = start;
        while t <= end + 1e-12 {
            let tc = t.min(end);
            let idx = times.partition_point(|&x| x < tc);
            let v = if idx < times.len() && times[idx] == tc {
                values[idx]
            } else {
                let (t0, t1) = (times[idx - 1], times[idx]);
                let (v0, v1) = (values[idx - 1], values[idx]);
                if t1 == t0 {
                    v1
                } else {
                    let frac = (tc - t0) / (t1 - t0);
                    v0 + frac * (v1 - v0)
                }
            };
            out_t.push(tc);
            out_v.push(v);
            t += dt;
        }
        (out_t, out_v)
    }

    /// Allocating histogram accumulation (the original loop in
    /// `otsu::otsu_threshold`).
    pub fn histogram(data: &[f64], lo: f64, width: f64, bins: usize) -> Vec<usize> {
        let mut hist = vec![0usize; bins];
        for &v in data {
            let mut bin = ((v - lo) / width) as usize;
            if bin >= bins {
                bin = bins - 1;
            }
            hist[bin] += 1;
        }
        hist
    }

    /// Allocating unit normalization (the original `GridImage::normalized`
    /// body).
    pub fn normalize_unit(data: &[f64]) -> Vec<f64> {
        let lo = crate::stats::min(data);
        let hi = crate::stats::max(data);
        let span = hi - lo;
        if span < 1e-15 {
            vec![0.0; data.len()]
        } else {
            data.iter().map(|&v| (v - lo) / span).collect()
        }
    }

    /// Allocating threshold mask.
    pub fn binarize(data: &[f64], thresh: f64) -> Vec<bool> {
        data.iter().map(|&v| v > thresh).collect()
    }

    /// Mask moments via a materialized foreground coordinate list (the
    /// original `BinaryGrid::moments` body).
    pub fn mask_moments(mask: &[bool], cols: usize) -> Option<super::MaskMoments> {
        let mut fg = Vec::new();
        for (r, row) in mask.chunks_exact(cols).enumerate() {
            for (c, &on) in row.iter().enumerate() {
                if on {
                    fg.push((r, c));
                }
            }
        }
        if fg.is_empty() {
            return None;
        }
        let n = fg.len() as f64;
        let cr = fg.iter().map(|p| p.0 as f64).sum::<f64>() / n;
        let cc = fg.iter().map(|p| p.1 as f64).sum::<f64>() / n;
        let mut mu_rr = 0.0;
        let mut mu_cc = 0.0;
        let mut mu_rc = 0.0;
        for &(r, c) in &fg {
            let dr = r as f64 - cr;
            let dc = c as f64 - cc;
            mu_rr += dr * dr;
            mu_cc += dc * dc;
            mu_rc += dr * dc;
        }
        Some(super::MaskMoments {
            area: fg.len(),
            centroid: (cr, cc),
            mu_rr: mu_rr / n,
            mu_cc: mu_cc / n,
            mu_rc: mu_rc / n,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn empty_and_single_element_edges() {
        let mut sort = Vec::new();
        let mut out = Vec::new();
        assert_eq!(sum_sumsq(&[]), (0.0, 0.0));
        assert_eq!(minmax(&[]), (f64::INFINITY, f64::NEG_INFINITY));
        assert_eq!(median_of_window(&[], &mut sort), 0.0);
        assert_eq!(median_of_window(&[7.0], &mut sort), 7.0);
        moving_average_into(&[], 3, &mut out);
        assert!(out.is_empty());
        moving_average_into(&[5.0], 3, &mut out);
        assert_eq!(out, vec![5.0]);
        let (mut t, mut v) = (Vec::new(), Vec::new());
        resample_linear_into(&[1.0], &[2.0], 0.1, &mut t, &mut v);
        assert!(t.is_empty() && v.is_empty());
        normalize_unit_into(&[], &mut out);
        assert!(out.is_empty());
        assert_eq!(mask_moments(&[false, false], 2), None);
    }

    #[test]
    fn odd_length_median_window() {
        let mut sort = Vec::new();
        assert_eq!(median_of_window(&[3.0, 1.0, 2.0], &mut sort), 2.0);
        assert_eq!(median_of_window(&[4.0, 1.0, 2.0, 3.0], &mut sort), 2.5);
    }

    #[test]
    fn outputs_are_cleared_before_reuse() {
        let mut out = vec![99.0; 8];
        moving_average_into(&[1.0, 2.0], 1, &mut out);
        assert_eq!(out.len(), 2);
        let mut mask = vec![true; 8];
        binarize_into(&[1.0, 2.0], 1.5, &mut mask);
        assert_eq!(mask, vec![false, true]);
    }

    proptest! {
        #[test]
        fn sum_sumsq_matches_reference(data in prop::collection::vec(-1e3f64..1e3, 0..100)) {
            let (s, q) = sum_sumsq(&data);
            let (rs, rq) = reference::sum_sumsq(&data);
            prop_assert_eq!(s.to_bits(), rs.to_bits());
            prop_assert_eq!(q.to_bits(), rq.to_bits());
        }

        #[test]
        fn minmax_matches_reference(data in prop::collection::vec(-1e3f64..1e3, 0..100)) {
            let (lo, hi) = minmax(&data);
            let (rlo, rhi) = reference::minmax(&data);
            prop_assert_eq!(lo.to_bits(), rlo.to_bits());
            prop_assert_eq!(hi.to_bits(), rhi.to_bits());
        }

        #[test]
        fn moving_average_matches_reference(
            data in prop::collection::vec(-1e3f64..1e3, 0..100),
            half in 0usize..8,
        ) {
            let mut out = Vec::new();
            moving_average_into(&data, half, &mut out);
            prop_assert_eq!(bits(&out), bits(&reference::moving_average(&data, half)));
        }

        #[test]
        fn median_filter_matches_reference(
            data in prop::collection::vec(-1e3f64..1e3, 0..100),
            half in 0usize..8,
        ) {
            let mut sort = Vec::new();
            let mut out = Vec::new();
            median_filter_into(&data, half, &mut sort, &mut out);
            prop_assert_eq!(bits(&out), bits(&reference::median_filter(&data, half)));
        }

        #[test]
        fn median_of_window_matches_stats_median(
            data in prop::collection::vec(-1e3f64..1e3, 0..40),
        ) {
            let mut sort = Vec::new();
            let ours = median_of_window(&data, &mut sort);
            prop_assert_eq!(ours.to_bits(), crate::stats::median(&data).to_bits());
        }

        #[test]
        fn resample_matches_reference(
            steps in prop::collection::vec((0.0f64..0.3, -10.0f64..10.0), 0..60),
            dt in 0.01f64..0.5,
        ) {
            let mut t = 0.0;
            let mut times = Vec::new();
            let mut values = Vec::new();
            for &(step, v) in &steps {
                times.push(t);
                values.push(v);
                t += step;
            }
            let (mut ot, mut ov) = (Vec::new(), Vec::new());
            resample_linear_into(&times, &values, dt, &mut ot, &mut ov);
            let (rt, rv) = reference::resample_linear(&times, &values, dt);
            prop_assert_eq!(bits(&ot), bits(&rt));
            prop_assert_eq!(bits(&ov), bits(&rv));
        }

        #[test]
        fn histogram_matches_reference(
            data in prop::collection::vec(-1e3f64..1e3, 1..200),
            bins in 1usize..64,
        ) {
            let (lo, hi) = minmax(&data);
            let width = ((hi - lo) / bins as f64).max(1e-9);
            let mut hist = vec![0usize; bins];
            histogram_into(&data, lo, width, &mut hist);
            prop_assert_eq!(hist, reference::histogram(&data, lo, width, bins));
        }

        #[test]
        fn normalize_matches_reference(data in prop::collection::vec(-1e3f64..1e3, 0..100)) {
            let mut out = Vec::new();
            normalize_unit_into(&data, &mut out);
            prop_assert_eq!(bits(&out), bits(&reference::normalize_unit(&data)));
        }

        #[test]
        fn binarize_matches_reference(
            data in prop::collection::vec(-1e3f64..1e3, 0..100),
            thresh in -1e3f64..1e3,
        ) {
            let mut out = Vec::new();
            binarize_into(&data, thresh, &mut out);
            prop_assert_eq!(&out, &reference::binarize(&data, thresh));
        }

        #[test]
        fn mask_moments_matches_reference(
            mask in prop::collection::vec(any::<bool>(), 1..120),
            cols in 1usize..12,
        ) {
            let len = (mask.len() / cols) * cols;
            let mask = &mask[..len];
            let ours = mask_moments(mask, cols);
            let theirs = reference::mask_moments(mask, cols);
            match (ours, theirs) {
                (None, None) => {}
                (Some(a), Some(b)) => {
                    prop_assert_eq!(a.area, b.area);
                    prop_assert_eq!(a.centroid.0.to_bits(), b.centroid.0.to_bits());
                    prop_assert_eq!(a.centroid.1.to_bits(), b.centroid.1.to_bits());
                    prop_assert_eq!(a.mu_rr.to_bits(), b.mu_rr.to_bits());
                    prop_assert_eq!(a.mu_cc.to_bits(), b.mu_cc.to_bits());
                    prop_assert_eq!(a.mu_rc.to_bits(), b.mu_rc.to_bits());
                }
                (a, b) => prop_assert!(false, "presence mismatch: {:?} vs {:?}", a, b),
            }
        }
    }
}
