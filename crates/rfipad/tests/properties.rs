//! Property-based tests of the recognition pipeline's invariants.

use hand_kinematics::letters::ALPHABET;
use proptest::prelude::*;
use rfipad::calibration::wrap_to_pi;
use rfipad::grammar::{deduce_fuzzy, ideal_observation, ObservedStroke};
use rfipad::metrics::{score_segmentation, ConfusionMatrix};
use rfipad::segmentation::StrokeSpan;

proptest! {
    /// wrap_to_pi lands in (−π, π] and preserves values already there.
    #[test]
    fn wrap_to_pi_contract(p in -1e3f64..1e3) {
        let w = wrap_to_pi(p);
        prop_assert!(w > -std::f64::consts::PI - 1e-12);
        prop_assert!(w <= std::f64::consts::PI + 1e-12);
        prop_assert!((wrap_to_pi(w) - w).abs() < 1e-9);
        // Difference is a multiple of 2π.
        let cycles = (p - w) / std::f64::consts::TAU;
        prop_assert!((cycles - cycles.round()).abs() < 1e-6);
    }

    /// Segmentation scoring conserves counts: matched + missed = truth, and
    /// insertions never exceed the number of detections.
    #[test]
    fn segmentation_scoring_conserves(
        truth in prop::collection::vec((0.0f64..20.0, 0.3f64..2.0), 0..6),
        detected in prop::collection::vec((0.0f64..20.0, 0.3f64..2.0), 0..8),
    ) {
        let truth_spans: Vec<(f64, f64)> = truth.iter().map(|&(s, d)| (s, s + d)).collect();
        let spans: Vec<StrokeSpan> = detected
            .iter()
            .map(|&(s, d)| StrokeSpan { start: s, end: s + d })
            .collect();
        let o = score_segmentation(&spans, &truth_spans);
        prop_assert_eq!(o.matched + o.missed, truth_spans.len());
        prop_assert!(o.insertions <= spans.len());
        prop_assert!(o.underfills <= o.matched);
        prop_assert_eq!(o.truth_count, truth_spans.len());
    }

    /// Span overlap is symmetric and bounded by either duration.
    #[test]
    fn span_overlap_properties(
        a_start in 0.0f64..10.0, a_len in 0.0f64..5.0,
        b_start in 0.0f64..10.0, b_len in 0.0f64..5.0,
    ) {
        let a = StrokeSpan { start: a_start, end: a_start + a_len };
        let b = StrokeSpan { start: b_start, end: b_start + b_len };
        let o1 = a.overlap(&b);
        let o2 = b.overlap(&a);
        prop_assert!((o1 - o2).abs() < 1e-12);
        prop_assert!(o1 >= 0.0);
        prop_assert!(o1 <= a.duration() + 1e-12);
        prop_assert!(o1 <= b.duration() + 1e-12);
    }

    /// Every letter survives grammar deduction from its ideal observation,
    /// even with bounded positional jitter — the robustness the positional
    /// disambiguation needs in practice.
    #[test]
    fn grammar_tolerates_positional_jitter(
        letter_idx in 0usize..26,
        jitter in -0.05f64..0.05,
    ) {
        let letter = ALPHABET[letter_idx];
        let mut obs = ideal_observation(letter).expect("alphabet letter");
        for (i, o) in obs.iter_mut().enumerate() {
            let sign = if i % 2 == 0 { 1.0 } else { -1.0 };
            o.centroid.0 += sign * jitter;
            o.centroid.1 -= sign * jitter;
        }
        prop_assert_eq!(deduce_fuzzy(&obs), Some(letter));
    }

    /// Fuzzy deduction with one corrupted stroke shape still prefers a
    /// same-count letter (never panics, never returns a different-length
    /// letter).
    #[test]
    fn fuzzy_deduction_count_preserving(
        letter_idx in 0usize..26,
        corrupt_idx in 0usize..4,
    ) {
        let letter = ALPHABET[letter_idx];
        let mut obs = ideal_observation(letter).expect("alphabet letter");
        if corrupt_idx < obs.len() {
            // Flip the corrupted stroke's shape to a line.
            obs[corrupt_idx] = ObservedStroke {
                stroke: hand_kinematics::stroke::Stroke::new(
                    hand_kinematics::stroke::StrokeShape::VLine,
                ),
                ..obs[corrupt_idx]
            };
        }
        if let Some(guess) = deduce_fuzzy(&obs) {
            let count = hand_kinematics::letters::stroke_count(guess).unwrap();
            prop_assert_eq!(count, obs.len());
        }
    }

    /// Confusion-matrix accuracy is always in [0, 1] and merging adds
    /// totals.
    #[test]
    fn confusion_matrix_properties(
        outcomes in prop::collection::vec((0u8..4, 0u8..4), 0..50),
    ) {
        let mut m = ConfusionMatrix::new();
        for (t, p) in &outcomes {
            m.record(format!("c{t}"), format!("c{p}"));
        }
        prop_assert!((0.0..=1.0).contains(&m.accuracy()));
        prop_assert_eq!(m.total(), outcomes.len() as u64);
        let mut doubled = m.clone();
        doubled.merge(&m);
        prop_assert_eq!(doubled.total(), 2 * m.total());
        prop_assert!((doubled.accuracy() - m.accuracy()).abs() < 1e-12);
    }
}
