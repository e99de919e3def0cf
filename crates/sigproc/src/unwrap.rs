//! Phase de-periodicity (unwrapping).
//!
//! RFID readers report phase modulo 2π, so a smoothly varying physical phase
//! shows sudden jumps from ≈2π to ≈0 (or vice versa). Unwrapping removes
//! those discontinuities by adding the appropriate multiple of 2π to each
//! sample so that consecutive samples never differ by more than π.
//!
//! This is the "phase de-periodicity" step of the RFIPad paper (§III-A3,
//! Fig. 6), which follows the method used by CBID.

use std::f64::consts::{PI, TAU};

/// Unwraps a sequence of phase samples reported modulo 2π.
///
/// Whenever the jump between consecutive samples exceeds π, a correcting
/// multiple of 2π is accumulated, making the output continuous. The first
/// sample is returned unchanged. An empty input yields an empty output.
///
/// # Example
///
/// ```
/// use sigproc::unwrap::unwrap_phase;
/// use std::f64::consts::TAU;
///
/// let wrapped = [6.0, 0.2, 0.6]; // jumped over the 2π boundary
/// let un = unwrap_phase(&wrapped);
/// assert!((un[1] - (0.2 + TAU)).abs() < 1e-12);
/// ```
pub fn unwrap_phase(wrapped: &[f64]) -> Vec<f64> {
    let mut out = Vec::with_capacity(wrapped.len());
    let mut unwrapper = StreamingUnwrapper::new();
    for &w in wrapped {
        out.push(unwrapper.push(w));
    }
    out
}

/// Wraps a phase value into `[0, 2π)`.
///
/// ```
/// use sigproc::unwrap::wrap_phase;
/// use std::f64::consts::TAU;
/// assert!((wrap_phase(TAU + 1.0) - 1.0).abs() < 1e-12);
/// assert!(wrap_phase(-1.0) >= 0.0);
/// ```
pub fn wrap_phase(phase: f64) -> f64 {
    let r = phase % TAU;
    if r < 0.0 {
        r + TAU
    } else {
        r
    }
}

/// Incremental phase unwrapper for streaming pipelines.
///
/// Feed wrapped samples one at a time with [`push`](Self::push); each call
/// returns the unwrapped value. The unwrapper keeps the running 2π-correction
/// so it can run forever over a live tag-report stream.
///
/// # Example
///
/// ```
/// use sigproc::unwrap::StreamingUnwrapper;
/// use std::f64::consts::TAU;
///
/// let mut u = StreamingUnwrapper::new();
/// assert_eq!(u.push(6.0), 6.0);
/// let v = u.push(0.1); // wrapped around
/// assert!((v - (0.1 + TAU)).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Default)]
pub struct StreamingUnwrapper {
    last_wrapped: Option<f64>,
    correction: f64,
    turns: i64,
}

impl StreamingUnwrapper {
    /// Creates an unwrapper with no history.
    pub fn new() -> Self {
        Self::default()
    }

    /// Pushes one wrapped sample, returning its unwrapped value.
    pub fn push(&mut self, wrapped: f64) -> f64 {
        if let Some(prev) = self.last_wrapped {
            let delta = wrapped - prev;
            if delta > PI {
                self.correction -= TAU;
                self.turns -= 1;
            } else if delta < -PI {
                self.correction += TAU;
                self.turns += 1;
            }
        }
        self.last_wrapped = Some(wrapped);
        wrapped + self.correction
    }

    /// The whole turns the current correction adds, as an exact count
    /// (the correction is their sum of ±2π steps).
    pub fn turns(&self) -> i64 {
        self.turns
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn turns_count_the_correction() {
        let mut u = StreamingUnwrapper::new();
        for w in [6.0, 0.1, 6.2, 6.1, 0.2, 0.3, 6.25, 0.1] {
            u.push(w);
            assert_eq!(u.correction, u.turns() as f64 * TAU);
        }
        assert_eq!(u.turns(), 1);
    }

    #[test]
    fn empty_input() {
        assert!(unwrap_phase(&[]).is_empty());
    }

    #[test]
    fn single_sample_passthrough() {
        assert_eq!(unwrap_phase(&[1.234]), vec![1.234]);
    }

    #[test]
    fn monotone_ramp_without_wraps_is_unchanged() {
        let data: Vec<f64> = (0..10).map(|i| 0.1 * i as f64).collect();
        assert_eq!(unwrap_phase(&data), data);
    }

    #[test]
    fn upward_wrap_is_removed() {
        let wrapped = [TAU - 0.1, 0.1];
        let un = unwrap_phase(&wrapped);
        assert!((un[1] - (0.1 + TAU)).abs() < 1e-12);
    }

    #[test]
    fn downward_wrap_is_removed() {
        let wrapped = [0.1, TAU - 0.1];
        let un = unwrap_phase(&wrapped);
        assert!((un[1] - (-0.1)).abs() < 1e-12);
    }

    #[test]
    fn long_ramp_reconstructed_exactly() {
        let true_phase: Vec<f64> = (0..1000).map(|i| 0.05 * i as f64).collect();
        let wrapped: Vec<f64> = true_phase.iter().map(|&p| wrap_phase(p)).collect();
        let un = unwrap_phase(&wrapped);
        for (u, t) in un.iter().zip(&true_phase) {
            assert!((u - t).abs() < 1e-9, "u={u} t={t}");
        }
    }

    #[test]
    fn descending_ramp_reconstructed() {
        let true_phase: Vec<f64> = (0..1000).map(|i| 10.0 - 0.05 * i as f64).collect();
        let wrapped: Vec<f64> = true_phase.iter().map(|&p| wrap_phase(p)).collect();
        let un = unwrap_phase(&wrapped);
        // Unwrapping is unique only up to a constant 2π offset of the start.
        let offset = un[0] - true_phase[0];
        for (u, t) in un.iter().zip(&true_phase) {
            assert!((u - t - offset).abs() < 1e-9);
        }
    }

    #[test]
    fn wrap_phase_is_idempotent_on_range() {
        for i in 0..100 {
            let p = i as f64 * 0.07;
            let w = wrap_phase(p);
            assert!((0.0..TAU).contains(&w));
            assert!((wrap_phase(w) - w).abs() < 1e-12);
        }
    }

    #[test]
    fn streaming_matches_batch() {
        let wrapped: Vec<f64> = (0..500)
            .map(|i| wrap_phase((i as f64 * 0.31).sin() * 7.0))
            .collect();
        let batch = unwrap_phase(&wrapped);
        let mut s = StreamingUnwrapper::new();
        let streamed: Vec<f64> = wrapped.iter().map(|&w| s.push(w)).collect();
        assert_eq!(batch, streamed);
    }

    #[test]
    fn consecutive_diffs_bounded_by_pi() {
        let wrapped: Vec<f64> = (0..300)
            .map(|i| wrap_phase(0.2 * i as f64 + (i as f64 * 0.5).cos()))
            .collect();
        let un = unwrap_phase(&wrapped);
        for pair in un.windows(2) {
            assert!((pair[1] - pair[0]).abs() <= PI + 1e-12);
        }
    }
}
