//! Evaluation metrics: accuracy, FPR/FNR, confusion matrices, and the
//! segmentation insertion/underfill rates of the paper's Fig. 22.

use crate::segmentation::StrokeSpan;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;

/// A confusion matrix over string labels.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ConfusionMatrix {
    counts: BTreeMap<(String, String), u64>,
}

impl ConfusionMatrix {
    /// Creates an empty matrix.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one `(truth, predicted)` outcome.
    pub fn record(&mut self, truth: impl Into<String>, predicted: impl Into<String>) {
        *self
            .counts
            .entry((truth.into(), predicted.into()))
            .or_default() += 1;
    }

    /// Total recorded outcomes.
    pub fn total(&self) -> u64 {
        self.counts.values().sum()
    }

    /// Correct predictions (diagonal).
    pub fn correct(&self) -> u64 {
        self.counts
            .iter()
            .filter(|((t, p), _)| t == p)
            .map(|(_, &c)| c)
            .sum()
    }

    /// Overall accuracy; 0.0 when empty.
    pub fn accuracy(&self) -> f64 {
        let total = self.total();
        if total == 0 {
            0.0
        } else {
            self.correct() as f64 / total as f64
        }
    }

    /// Accuracy restricted to one ground-truth label.
    pub fn accuracy_for(&self, truth: &str) -> f64 {
        let total: u64 = self
            .counts
            .iter()
            .filter(|((t, _), _)| t == truth)
            .map(|(_, &c)| c)
            .sum();
        if total == 0 {
            return 0.0;
        }
        let correct = self
            .counts
            .get(&(truth.to_string(), truth.to_string()))
            .copied()
            .unwrap_or(0);
        correct as f64 / total as f64
    }

    /// All ground-truth labels seen.
    pub fn truth_labels(&self) -> Vec<String> {
        let mut labels: Vec<String> = self.counts.keys().map(|(t, _)| t.clone()).collect();
        labels.sort();
        labels.dedup();
        labels
    }

    /// Count for a specific `(truth, predicted)` pair.
    pub fn count(&self, truth: &str, predicted: &str) -> u64 {
        self.counts
            .get(&(truth.to_string(), predicted.to_string()))
            .copied()
            .unwrap_or(0)
    }

    /// Merges another matrix into this one.
    pub fn merge(&mut self, other: &ConfusionMatrix) {
        for ((t, p), c) in &other.counts {
            *self.counts.entry((t.clone(), p.clone())).or_default() += c;
        }
    }
}

impl fmt::Display for ConfusionMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "confusion matrix: {} outcomes, accuracy {:.3}",
            self.total(),
            self.accuracy()
        )?;
        for ((t, p), c) in &self.counts {
            if t != p {
                writeln!(f, "  {t} -> {p}: {c}")?;
            }
        }
        Ok(())
    }
}

/// Binary detection counters (for FPR / FNR experiments, Fig. 17/19).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct DetectionCounts {
    /// Motions present and correctly detected.
    pub true_positives: u64,
    /// Detections with no underlying motion (falsely detected).
    pub false_positives: u64,
    /// Motions present but missed or misidentified.
    pub false_negatives: u64,
    /// Quiet intervals correctly left undetected.
    pub true_negatives: u64,
}

impl DetectionCounts {
    /// False-positive rate: FP / (FP + TN); the paper's "percentage of
    /// falsely detected motions".
    pub fn fpr(&self) -> f64 {
        let denom = self.false_positives + self.true_negatives;
        if denom == 0 {
            0.0
        } else {
            self.false_positives as f64 / denom as f64
        }
    }

    /// False-negative rate: FN / (FN + TP); the paper's "percentage of
    /// undetected motions".
    pub fn fnr(&self) -> f64 {
        let denom = self.false_negatives + self.true_positives;
        if denom == 0 {
            0.0
        } else {
            self.false_negatives as f64 / denom as f64
        }
    }

    /// Adds another tally.
    pub fn merge(&mut self, other: &DetectionCounts) {
        self.true_positives += other.true_positives;
        self.false_positives += other.false_positives;
        self.false_negatives += other.false_negatives;
        self.true_negatives += other.true_negatives;
    }
}

/// Matching of detected spans against ground-truth stroke intervals for one
/// session.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct SegmentationOutcome {
    /// True strokes matched by a detected span.
    pub matched: usize,
    /// True strokes with no matching span.
    pub missed: usize,
    /// Detected spans overlapping no true stroke (insertions, typically in
    /// the repositioning period).
    pub insertions: usize,
    /// Matched strokes whose span covers less than the completeness
    /// threshold (underfills).
    pub underfills: usize,
    /// Ground-truth strokes in the session.
    pub truth_count: usize,
}

/// Fraction of a true stroke a span must cover to count as complete.
pub const UNDERFILL_COVERAGE: f64 = 0.75;

/// Minimum overlap fraction (of the *detected span*) with a true stroke to
/// count as a match rather than an insertion.
pub const MATCH_OVERLAP: f64 = 0.3;

/// Scores detected spans against ground-truth `(start, end)` strokes.
pub fn score_segmentation(detected: &[StrokeSpan], truth: &[(f64, f64)]) -> SegmentationOutcome {
    let mut outcome = SegmentationOutcome {
        truth_count: truth.len(),
        ..SegmentationOutcome::default()
    };
    let mut matched_truth = vec![false; truth.len()];

    for span in detected {
        // Best-overlapping true stroke.
        let mut best: Option<(usize, f64)> = None;
        for (i, &(ts, te)) in truth.iter().enumerate() {
            let overlap = span.overlap(&StrokeSpan { start: ts, end: te });
            if overlap > best.map(|(_, o)| o).unwrap_or(0.0) {
                best = Some((i, overlap));
            }
        }
        match best {
            Some((i, overlap)) if overlap >= MATCH_OVERLAP * span.duration().max(1e-9) => {
                if !matched_truth[i] {
                    matched_truth[i] = true;
                    outcome.matched += 1;
                    let (ts, te) = truth[i];
                    let coverage = overlap / (te - ts).max(1e-9);
                    if coverage < UNDERFILL_COVERAGE {
                        outcome.underfills += 1;
                    }
                }
                // A second span on an already-matched stroke is counted as
                // an insertion (the stroke was split).
                else {
                    outcome.insertions += 1;
                }
            }
            _ => outcome.insertions += 1,
        }
    }
    outcome.missed = matched_truth.iter().filter(|&&m| !m).count();
    // Feed the workspace-wide segmentation-quality counters (Fig. 21/22
    // continuously, not just offline).
    let seg = crate::telemetry::segmentation_metrics();
    seg.insertions.add(outcome.insertions as u64);
    seg.underfills.add(outcome.underfills as u64);
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn confusion_accuracy() {
        let mut m = ConfusionMatrix::new();
        m.record("a", "a");
        m.record("a", "b");
        m.record("b", "b");
        m.record("b", "b");
        assert_eq!(m.total(), 4);
        assert_eq!(m.correct(), 3);
        assert!((m.accuracy() - 0.75).abs() < 1e-12);
        assert!((m.accuracy_for("a") - 0.5).abs() < 1e-12);
        assert_eq!(m.accuracy_for("b"), 1.0);
        assert_eq!(m.count("a", "b"), 1);
    }

    #[test]
    fn empty_matrix_accuracy_zero() {
        assert_eq!(ConfusionMatrix::new().accuracy(), 0.0);
    }

    #[test]
    fn matrix_merge() {
        let mut a = ConfusionMatrix::new();
        a.record("x", "x");
        let mut b = ConfusionMatrix::new();
        b.record("x", "y");
        a.merge(&b);
        assert_eq!(a.total(), 2);
        assert!((a.accuracy() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn detection_rates() {
        let c = DetectionCounts {
            true_positives: 90,
            false_positives: 5,
            false_negatives: 10,
            true_negatives: 95,
        };
        assert!((c.fpr() - 0.05).abs() < 1e-12);
        assert!((c.fnr() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn detection_rates_empty_denominators() {
        let c = DetectionCounts::default();
        assert_eq!(c.fpr(), 0.0);
        assert_eq!(c.fnr(), 0.0);
    }

    #[test]
    fn perfect_segmentation() {
        let truth = vec![(1.0, 2.0), (3.0, 4.0)];
        let detected = vec![
            StrokeSpan {
                start: 1.0,
                end: 2.0,
            },
            StrokeSpan {
                start: 3.0,
                end: 4.0,
            },
        ];
        let o = score_segmentation(&detected, &truth);
        assert_eq!(o.matched, 2);
        assert_eq!(o.missed, 0);
        assert_eq!(o.insertions, 0);
        assert_eq!(o.underfills, 0);
    }

    #[test]
    fn insertion_in_pause_detected() {
        let truth = vec![(1.0, 2.0)];
        let detected = vec![
            StrokeSpan {
                start: 1.0,
                end: 2.0,
            },
            StrokeSpan {
                start: 2.5,
                end: 2.9,
            }, // spurious, in the pause
        ];
        let o = score_segmentation(&detected, &truth);
        assert_eq!(o.matched, 1);
        assert_eq!(o.insertions, 1);
    }

    #[test]
    fn underfill_detected() {
        let truth = vec![(1.0, 3.0)];
        let detected = vec![StrokeSpan {
            start: 1.0,
            end: 2.0,
        }]; // covers 50%
        let o = score_segmentation(&detected, &truth);
        assert_eq!(o.matched, 1);
        assert_eq!(o.underfills, 1);
    }

    #[test]
    fn missed_stroke_counted() {
        let truth = vec![(1.0, 2.0), (3.0, 4.0)];
        let detected = vec![StrokeSpan {
            start: 1.0,
            end: 2.0,
        }];
        let o = score_segmentation(&detected, &truth);
        assert_eq!(o.matched, 1);
        assert_eq!(o.missed, 1);
    }

    #[test]
    fn split_stroke_counts_second_span_as_insertion() {
        let truth = vec![(1.0, 3.0)];
        let detected = vec![
            StrokeSpan {
                start: 1.0,
                end: 1.8,
            },
            StrokeSpan {
                start: 2.2,
                end: 3.0,
            },
        ];
        let o = score_segmentation(&detected, &truth);
        assert_eq!(o.matched, 1);
        assert_eq!(o.insertions, 1);
        assert_eq!(o.underfills, 1); // first span covers only 40%
    }
}
