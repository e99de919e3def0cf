//! Tree-structure letter grammar and positional disambiguation (§III-C2).
//!
//! Recognized strokes are matched against the stroke-shape tree of Fig. 10:
//! walking the tree with the observed shape sequence yields the candidate
//! letters. Sequences shared by several letters (D/P, O/S, V/X) are
//! disambiguated by *where* the strokes were drawn — RFIPad knows the tag
//! positions each stroke covered, so the candidate whose canonical stroke
//! placements best match the observed geometry wins.

use hand_kinematics::letters;
use hand_kinematics::stroke::{Stroke, StrokeShape};
use std::collections::HashMap;

/// A stroke as the recognizer observed it: shape + direction + geometry in
/// normalized pad coordinates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ObservedStroke {
    /// The recognized directed stroke.
    pub stroke: Stroke,
    /// Foreground centroid `(row, col)` normalized to `[0, 1]`.
    pub centroid: (f64, f64),
    /// Normalized extent `(height, width)` of the foreground bounding box.
    pub extent: (f64, f64),
}

/// The grammar tree: shape sequences → candidate letters.
#[derive(Debug, Clone)]
pub struct GrammarTree {
    by_sequence: HashMap<Vec<StrokeShape>, Vec<char>>,
}

impl GrammarTree {
    /// Builds the standard A–Z grammar from the shared letter table.
    pub fn standard() -> Self {
        let mut by_sequence: HashMap<Vec<StrokeShape>, Vec<char>> = HashMap::new();
        for &letter in &letters::ALPHABET {
            let seq = letters::shape_sequence(letter).expect("alphabet letter");
            by_sequence.entry(seq).or_default().push(letter);
        }
        Self { by_sequence }
    }

    /// Letters whose full shape sequence equals `shapes`.
    pub fn exact_matches(&self, shapes: &[StrokeShape]) -> &[char] {
        self.by_sequence
            .get(shapes)
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Letters whose shape sequence *starts with* `shapes` — what an online
    /// recognizer can still reach mid-letter.
    pub fn prefix_matches(&self, shapes: &[StrokeShape]) -> Vec<char> {
        let mut out: Vec<char> = self
            .by_sequence
            .iter()
            .filter(|(seq, _)| seq.len() >= shapes.len() && seq[..shapes.len()] == *shapes)
            .flat_map(|(_, ls)| ls.iter().copied())
            .collect();
        out.sort_unstable();
        out
    }

    /// Deduce the letter from a full observed stroke sequence, breaking ties
    /// with positional matching.
    ///
    /// Returns `None` when no letter has this shape sequence.
    pub fn deduce(&self, strokes: &[ObservedStroke]) -> Option<char> {
        let shapes: Vec<StrokeShape> = strokes.iter().map(|s| s.stroke.shape).collect();
        let candidates = self.exact_matches(&shapes);
        match candidates.len() {
            0 => None,
            1 => Some(candidates[0]),
            _ => candidates
                .iter()
                .copied()
                .min_by(|&a, &b| placement_cost(a, strokes).total_cmp(&placement_cost(b, strokes))),
        }
    }

    /// Error-tolerant deduction: ranks *every* letter with the same stroke
    /// count by placement cost plus penalties for shape and direction
    /// mismatches, accepting the best candidate with at most one shape
    /// error. Recovers letters whose single worst stroke was misclassified
    /// — the positional information RFIPad has per stroke carries the
    /// missing evidence, exactly as §III-C2's disambiguation argument goes.
    pub fn deduce_fuzzy(&self, strokes: &[ObservedStroke]) -> Option<char> {
        if strokes.is_empty() {
            return None;
        }
        // First try the sequence as observed…
        let direct = Self::best_same_count(strokes);
        if direct.is_some() {
            return direct.map(|(l, _)| l);
        }
        // …then tolerate one segmentation *insertion*: drop each stroke in
        // turn and take the best leave-one-out match (with a penalty so a
        // genuine full-length match always wins).
        if strokes.len() < 2 {
            return None;
        }
        (0..strokes.len())
            .filter_map(|skip| {
                let subset: Vec<ObservedStroke> = strokes
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| *i != skip)
                    .map(|(_, s)| *s)
                    .collect();
                Self::best_same_count(&subset).map(|(l, c)| (l, c + 0.5))
            })
            .min_by(|a, b| a.1.total_cmp(&b.1))
            .map(|(letter, _)| letter)
    }

    /// Best candidate among letters with exactly `strokes.len()` strokes,
    /// tolerating at most one shape mismatch.
    fn best_same_count(strokes: &[ObservedStroke]) -> Option<(char, f64)> {
        /// Cost added per mismatched stroke shape.
        const SHAPE_PENALTY: f64 = 0.6;
        /// Maximum shape mismatches tolerated.
        const MAX_SHAPE_ERRORS: usize = 1;
        hand_kinematics::letters::ALPHABET
            .iter()
            .copied()
            .filter_map(|letter| {
                let seq = hand_kinematics::letters::shape_sequence(letter)?;
                if seq.len() != strokes.len() {
                    return None;
                }
                let mismatches = seq
                    .iter()
                    .zip(strokes)
                    .filter(|(expected, observed)| **expected != observed.stroke.shape)
                    .count();
                if mismatches > MAX_SHAPE_ERRORS {
                    return None;
                }
                let cost = placement_cost(letter, strokes) + SHAPE_PENALTY * mismatches as f64;
                cost.is_finite().then_some((letter, cost))
            })
            .min_by(|a, b| a.1.total_cmp(&b.1))
    }
}

impl Default for GrammarTree {
    fn default() -> Self {
        Self::standard()
    }
}

/// Mismatch between a candidate letter's canonical stroke placements and
/// the observed strokes: squared midpoint distance plus extent mismatch
/// plus a direction penalty. Lower is better.
pub fn placement_cost(letter: char, strokes: &[ObservedStroke]) -> f64 {
    let Some(placements) = letters::letter_strokes(letter) else {
        return f64::INFINITY;
    };
    if placements.len() != strokes.len() {
        return f64::INFINITY;
    }
    let mut cost = 0.0;
    for (expected, observed) in placements.iter().zip(strokes) {
        let mid = (
            0.5 * (expected.from.0 + expected.to.0),
            0.5 * (expected.from.1 + expected.to.1),
        );
        let dr = mid.0 - observed.centroid.0;
        let dc = mid.1 - observed.centroid.1;
        cost += dr * dr + dc * dc;

        let expected_extent = expected_extent(expected);
        let dh = expected_extent.0 - observed.extent.0;
        let dw = expected_extent.1 - observed.extent.1;
        cost += 0.5 * (dh * dh + dw * dw);

        if expected.stroke.reversed != observed.stroke.reversed {
            cost += 0.25;
        }
    }
    cost
}

/// Canonical bounding-box extent `(height, width)` of a placed stroke,
/// including the arc bulge.
fn expected_extent(p: &hand_kinematics::stroke::PlacedStroke) -> (f64, f64) {
    let wp = p.waypoints();
    let min_r = wp.iter().map(|w| w.0).fold(f64::INFINITY, f64::min);
    let max_r = wp.iter().map(|w| w.0).fold(f64::NEG_INFINITY, f64::max);
    let min_c = wp.iter().map(|w| w.1).fold(f64::INFINITY, f64::min);
    let max_c = wp.iter().map(|w| w.1).fold(f64::NEG_INFINITY, f64::max);
    (max_r - min_r, max_c - min_c)
}

/// Builds the observed strokes a *perfect* recognizer would produce for a
/// letter (used by tests and the grammar's own sanity experiments).
pub fn ideal_observation(letter: char) -> Option<Vec<ObservedStroke>> {
    let placements = letters::letter_strokes(letter)?;
    Some(
        placements
            .iter()
            .map(|p| ObservedStroke {
                stroke: p.stroke,
                centroid: (0.5 * (p.from.0 + p.to.0), 0.5 * (p.from.1 + p.to.1)),
                extent: expected_extent(p),
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use hand_kinematics::letters::ALPHABET;

    #[test]
    fn every_letter_deducible_from_ideal_observation() {
        let tree = GrammarTree::standard();
        for c in ALPHABET {
            let obs = ideal_observation(c).expect("letter");
            assert_eq!(tree.deduce(&obs), Some(c), "letter {c}");
        }
    }

    /// `D` observed with its bowl's centroid lost: both candidates of the
    /// stroke sequence cost NaN.
    fn d_without_a_centroid() -> Vec<ObservedStroke> {
        let mut obs = ideal_observation('D').expect("letter");
        obs[1].centroid = (f64::NAN, f64::NAN);
        obs
    }

    #[test]
    fn deduce_survives_nan_placement_costs() {
        let letter = GrammarTree::standard().deduce(&d_without_a_centroid());
        assert!(matches!(letter, Some('D' | 'P')), "{letter:?}");
    }

    #[test]
    fn fuzzy_deduction_survives_nan_placement_costs() {
        // Every same-count candidate costs NaN, so each is dropped; the
        // leave-one-out pass still ranks one-stroke letters.
        let letter = GrammarTree::standard().deduce_fuzzy(&d_without_a_centroid());
        assert!(letter.is_some());
    }

    #[test]
    fn t_matches_exactly() {
        let tree = GrammarTree::standard();
        use StrokeShape::*;
        assert_eq!(tree.exact_matches(&[HLine, VLine]), &['T']);
    }

    #[test]
    fn ambiguous_sequences_have_multiple_candidates() {
        let tree = GrammarTree::standard();
        use StrokeShape::*;
        let dp = tree.exact_matches(&[VLine, ArcRight]);
        assert!(dp.contains(&'D') && dp.contains(&'P'), "{dp:?}");
        let os = tree.exact_matches(&[ArcLeft, ArcRight]);
        assert!(os.contains(&'O') && os.contains(&'S'));
        let vx = tree.exact_matches(&[Backslash, Slash]);
        assert!(vx.contains(&'V') && vx.contains(&'X'));
    }

    #[test]
    fn unknown_sequence_gives_none() {
        let tree = GrammarTree::standard();
        let bogus = [ObservedStroke {
            stroke: Stroke::new(StrokeShape::Click),
            centroid: (0.5, 0.5),
            extent: (0.0, 0.0),
        }];
        assert_eq!(tree.deduce(&bogus), None);
    }

    #[test]
    fn prefix_matching_narrows_online() {
        let tree = GrammarTree::standard();
        use StrokeShape::*;
        // After a single vertical bar, many letters remain…
        let after_bar = tree.prefix_matches(&[VLine]);
        assert!(after_bar.contains(&'H'));
        assert!(after_bar.contains(&'L'));
        assert!(after_bar.contains(&'E'));
        // …after "| −" fewer…
        let after_two = tree.prefix_matches(&[VLine, HLine]);
        assert!(after_two.len() < after_bar.len());
        // …and the empty prefix matches everything.
        assert_eq!(tree.prefix_matches(&[]).len(), 26);
    }

    #[test]
    fn d_vs_p_resolved_by_bowl_position() {
        let tree = GrammarTree::standard();
        // Ideal D and ideal P, fed back in, resolve correctly (covered by
        // every_letter test) — now perturb: a P drawn slightly low must
        // still resolve to P because its bowl is half-height.
        let mut obs = ideal_observation('P').unwrap();
        for o in &mut obs {
            o.centroid.0 += 0.08;
        }
        assert_eq!(tree.deduce(&obs), Some('P'));
    }

    #[test]
    fn direction_penalty_breaks_ties() {
        // Feed an O whose strokes are geometrically halfway toward S but
        // with O's canonical directions — direction agreement must keep it
        // an O.
        let tree = GrammarTree::standard();
        let o = ideal_observation('O').unwrap();
        let s = ideal_observation('S').unwrap();
        let blend: Vec<ObservedStroke> = o
            .iter()
            .zip(&s)
            .map(|(a, b)| ObservedStroke {
                stroke: a.stroke,
                centroid: (
                    0.55 * a.centroid.0 + 0.45 * b.centroid.0,
                    0.55 * a.centroid.1 + 0.45 * b.centroid.1,
                ),
                extent: (
                    0.55 * a.extent.0 + 0.45 * b.extent.0,
                    0.55 * a.extent.1 + 0.45 * b.extent.1,
                ),
            })
            .collect();
        assert_eq!(tree.deduce(&blend), Some('O'));
    }

    #[test]
    fn placement_cost_zero_for_perfect_match() {
        let obs = ideal_observation('H').unwrap();
        assert!(placement_cost('H', &obs) < 1e-9);
        assert!(placement_cost('H', &obs[..2]).is_infinite());
    }
}
