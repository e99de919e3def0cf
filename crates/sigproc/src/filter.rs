//! Smoothing filters and trough (local-minimum) detection.
//!
//! RFIPad's direction estimator looks for the distinct RSS *trough* each tag
//! shows when the hand passes directly over it (§III-B). The raw RSS stream
//! is noisy and quantized, so troughs are found on a smoothed copy and then
//! validated by their prominence.

/// Centered moving average with window `2*half + 1`, shrinking at the
/// edges, written into `out` (cleared first, its capacity kept).
/// `half == 0` copies the input. Each window is summed on its own in
/// element order; a sliding-sum recurrence would round differently.
///
/// # Example
///
/// ```
/// use sigproc::filter::moving_average_into;
///
/// let mut smoothed = Vec::new();
/// moving_average_into(&[0.0, 10.0, 0.0], 1, &mut smoothed);
/// assert!((smoothed[1] - 10.0 / 3.0).abs() < 1e-12);
/// ```
pub fn moving_average_into(data: &[f64], half: usize, out: &mut Vec<f64>) {
    out.clear();
    if half == 0 {
        out.extend_from_slice(data);
        return;
    }
    let n = data.len();
    out.extend((0..n).map(|i| {
        let window = &data[i.saturating_sub(half)..(i + half + 1).min(n)];
        window.iter().sum::<f64>() / window.len() as f64
    }));
}

/// A detected local minimum.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Trough {
    /// Index of the minimum in the input slice.
    pub index: usize,
    /// Value at the minimum.
    pub value: f64,
    /// Prominence: how far the signal rises above the trough on the lower of
    /// its two sides before reaching a deeper minimum or the signal edge.
    pub prominence: f64,
}

/// Finds local minima with at least the requested prominence, separated by at
/// least `min_separation` samples. When two candidate troughs are closer than
/// `min_separation`, the deeper one wins.
///
/// Returns troughs ordered by index.
///
/// # Example
///
/// ```
/// use sigproc::filter::find_troughs;
///
/// let signal = [0.0, -1.0, 0.0, 0.2, -3.0, 0.1];
/// let troughs = find_troughs(&signal, 0.5, 1);
/// assert_eq!(troughs.len(), 2);
/// assert_eq!(troughs[1].index, 4);
/// ```
pub fn find_troughs(data: &[f64], min_prominence: f64, min_separation: usize) -> Vec<Trough> {
    let n = data.len();
    if n < 3 {
        return Vec::new();
    }
    // Candidate minima: strictly below both neighbours (plateaus take the
    // first index of the flat run).
    let mut candidates = Vec::new();
    let mut i = 1;
    while i < n - 1 {
        if data[i] > data[i - 1] {
            i += 1;
            continue;
        }
        if data[i] == data[i - 1] {
            i += 1;
            continue;
        }
        // data[i] < data[i-1]; extend through any plateau.
        let start = i;
        let mut j = i;
        while j + 1 < n && data[j + 1] == data[j] {
            j += 1;
        }
        if j + 1 < n && data[j + 1] > data[j] {
            candidates.push(start);
        }
        i = j + 1;
    }

    let mut troughs: Vec<Trough> = candidates
        .into_iter()
        .filter_map(|idx| {
            let p = prominence_at(data, idx);
            (p >= min_prominence).then_some(Trough {
                index: idx,
                value: data[idx],
                prominence: p,
            })
        })
        .collect();

    // Enforce minimum separation, keeping deeper troughs.
    troughs.sort_by(|a, b| a.value.total_cmp(&b.value));
    let mut kept: Vec<Trough> = Vec::new();
    for t in troughs {
        if kept
            .iter()
            .all(|k| k.index.abs_diff(t.index) > min_separation)
        {
            kept.push(t);
        }
    }
    kept.sort_by_key(|t| t.index);
    kept
}

/// Returns the single most prominent trough, if any trough exists at all
/// (prominence threshold 0).
pub fn deepest_trough(data: &[f64]) -> Option<Trough> {
    find_troughs(data, 0.0, 0)
        .into_iter()
        .max_by(|a, b| a.prominence.total_cmp(&b.prominence))
}

/// Prominence of a minimum at `idx`: for each side, walk outward until the
/// signal drops below `data[idx]` (or the edge); the side's height is the
/// maximum seen on that walk minus `data[idx]`. Prominence is the smaller of
/// the two side heights.
fn prominence_at(data: &[f64], idx: usize) -> f64 {
    let v = data[idx];
    let mut left_max = f64::NEG_INFINITY;
    for j in (0..idx).rev() {
        if data[j] < v {
            break;
        }
        left_max = left_max.max(data[j]);
    }
    let mut right_max = f64::NEG_INFINITY;
    for &x in &data[idx + 1..] {
        if x < v {
            break;
        }
        right_max = right_max.max(x);
    }
    if left_max == f64::NEG_INFINITY && right_max == f64::NEG_INFINITY {
        return 0.0;
    }
    // An edge side with no rise counts as unbounded so the other side decides.
    let l = if left_max == f64::NEG_INFINITY {
        f64::INFINITY
    } else {
        left_max - v
    };
    let r = if right_max == f64::NEG_INFINITY {
        f64::INFINITY
    } else {
        right_max - v
    };
    let p = l.min(r);
    if p.is_infinite() {
        // Both sides unbounded cannot happen (one would have returned 0.0
        // above); a single unbounded side falls back to the bounded side.
        0.0
    } else {
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn troughs_next_to_nan_samples_are_still_found() {
        let data = [3.0, 1.0, 3.0, f64::NAN, 3.0, 0.5, 3.0];
        let troughs = find_troughs(&data, 0.0, 0);
        let at: Vec<usize> = troughs.iter().map(|t| t.index).collect();
        assert_eq!(at, [1, 5]);
    }

    #[test]
    fn deepest_trough_tolerates_nan_samples() {
        let data = [3.0, 1.0, 3.0, f64::NAN, 4.0, 0.5, 4.0];
        assert_eq!(deepest_trough(&data).map(|t| t.index), Some(5));
    }

    fn moving_average(data: &[f64], half: usize) -> Vec<f64> {
        let mut out = vec![99.0; 8]; // stale content must be cleared
        moving_average_into(data, half, &mut out);
        out
    }

    #[test]
    fn moving_average_identity_when_half_zero() {
        let d = [1.0, 2.0, 3.0];
        assert_eq!(moving_average(&d, 0), d.to_vec());
        assert!(moving_average(&[], 3).is_empty());
        assert_eq!(moving_average(&[5.0], 3), [5.0]);
    }

    #[test]
    fn moving_average_smooths_impulse() {
        let d = [0.0, 0.0, 9.0, 0.0, 0.0];
        let s = moving_average(&d, 1);
        assert!((s[2] - 3.0).abs() < 1e-12);
        assert!((s[1] - 3.0).abs() < 1e-12);
        assert_eq!(s[0], 0.0);
    }

    #[test]
    fn moving_average_preserves_constant() {
        let d = [4.0; 10];
        assert!(moving_average(&d, 3)
            .iter()
            .all(|&v| (v - 4.0).abs() < 1e-12));
    }

    #[test]
    fn single_v_trough_detected() {
        let d = [3.0, 2.0, 1.0, 2.0, 3.0];
        let t = find_troughs(&d, 0.5, 0);
        assert_eq!(t.len(), 1);
        assert_eq!(t[0].index, 2);
        assert_eq!(t[0].value, 1.0);
        assert!((t[0].prominence - 2.0).abs() < 1e-12);
    }

    #[test]
    fn no_trough_in_monotone_signal() {
        let d: Vec<f64> = (0..10).map(|i| i as f64).collect();
        assert!(find_troughs(&d, 0.0, 0).is_empty());
    }

    #[test]
    fn shallow_trough_filtered_by_prominence() {
        let d = [1.0, 0.95, 1.0, 0.0, 1.0];
        let t = find_troughs(&d, 0.5, 0);
        assert_eq!(t.len(), 1);
        assert_eq!(t[0].index, 3);
    }

    #[test]
    fn plateau_trough_detected_once() {
        let d = [2.0, 1.0, 1.0, 1.0, 2.0];
        let t = find_troughs(&d, 0.5, 0);
        assert_eq!(t.len(), 1);
        assert_eq!(t[0].index, 1);
    }

    #[test]
    fn min_separation_keeps_deeper() {
        let d = [3.0, 1.0, 2.5, 0.5, 3.0];
        let t = find_troughs(&d, 0.1, 3);
        assert_eq!(t.len(), 1);
        assert_eq!(t[0].index, 3); // the deeper of the two close troughs
    }

    #[test]
    fn separated_troughs_both_kept() {
        let mut d = vec![3.0; 21];
        d[5] = 0.0;
        d[15] = 0.5;
        let t = find_troughs(&d, 1.0, 4);
        assert_eq!(t.len(), 2);
        assert_eq!(t[0].index, 5);
        assert_eq!(t[1].index, 15);
    }

    #[test]
    fn deepest_trough_picks_most_prominent() {
        let d = [3.0, 2.0, 3.0, 0.0, 3.0];
        let t = deepest_trough(&d).expect("has troughs");
        assert_eq!(t.index, 3);
    }

    #[test]
    fn deepest_trough_none_for_short_input() {
        assert!(deepest_trough(&[1.0, 0.0]).is_none());
    }

    #[test]
    fn rss_like_signal_single_trough() {
        // Simulated RSS dip when the hand passes over a tag at sample 50.
        let d: Vec<f64> = (0..100)
            .map(|i| {
                let x = (i as f64 - 50.0) / 10.0;
                -41.0 - 8.0 * (-x * x).exp()
            })
            .collect();
        let t = find_troughs(&d, 2.0, 5);
        assert_eq!(t.len(), 1);
        assert!((t[0].index as i64 - 50).abs() <= 1);
    }
}
