//! The paper's seven basic hand motions and thirteen directed strokes.
//!
//! RFIPad defines 7 basic motions (§II-C): a *click* (push toward a tag)
//! plus six shapes — `−`, `|`, `/`, `\`, `⊂`, `⊃` — each of which can be
//! drawn in two directions, giving the 13 strokes the evaluation exercises
//! (motion #1 = click, #2–#7 = the six shapes, each bidirectional).

use std::fmt;

/// The geometric shape of a stroke, ignoring travel direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum StrokeShape {
    /// A push toward one tag ("click", motion #1).
    Click,
    /// Horizontal line `−` (motion #2).
    HLine,
    /// Vertical line `|` (motion #3).
    VLine,
    /// Diagonal `/` (motion #4), canonical travel bottom-left → top-right.
    Slash,
    /// Diagonal `\` (motion #5), canonical travel top-left → bottom-right.
    Backslash,
    /// Arc `⊂` opening to the right (motion #6).
    ArcLeft,
    /// Arc `⊃` opening to the left (motion #7).
    ArcRight,
}

impl StrokeShape {
    /// All seven shapes, in the paper's motion numbering (#1–#7).
    pub fn all() -> [StrokeShape; 7] {
        [
            StrokeShape::Click,
            StrokeShape::HLine,
            StrokeShape::VLine,
            StrokeShape::Slash,
            StrokeShape::Backslash,
            StrokeShape::ArcLeft,
            StrokeShape::ArcRight,
        ]
    }

    /// The paper's motion category number (1–7).
    pub fn motion_number(self) -> u8 {
        match self {
            StrokeShape::Click => 1,
            StrokeShape::HLine => 2,
            StrokeShape::VLine => 3,
            StrokeShape::Slash => 4,
            StrokeShape::Backslash => 5,
            StrokeShape::ArcLeft => 6,
            StrokeShape::ArcRight => 7,
        }
    }

    /// Whether the shape supports two travel directions (everything except
    /// the click).
    pub fn is_directional(self) -> bool {
        self != StrokeShape::Click
    }
}

impl fmt::Display for StrokeShape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            StrokeShape::Click => "click",
            StrokeShape::HLine => "-",
            StrokeShape::VLine => "|",
            StrokeShape::Slash => "/",
            StrokeShape::Backslash => "\\",
            StrokeShape::ArcLeft => "⊂",
            StrokeShape::ArcRight => "⊃",
        };
        f.write_str(s)
    }
}

/// A directed stroke: a shape plus whether it is drawn against its
/// canonical direction.
///
/// Canonical directions: `−` left→right, `|` top→bottom, `/` bottom-left →
/// top-right, `\` top-left → bottom-right, `⊂` top-end → bottom-end, `⊃`
/// top-end → bottom-end.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Stroke {
    /// Geometric shape.
    pub shape: StrokeShape,
    /// Drawn opposite to the canonical direction.
    pub reversed: bool,
}

impl Stroke {
    /// A stroke in its canonical direction.
    pub fn new(shape: StrokeShape) -> Self {
        Self {
            shape,
            reversed: false,
        }
    }

    /// A stroke drawn against its canonical direction.
    ///
    /// # Panics
    ///
    /// Panics for [`StrokeShape::Click`], which has no direction.
    pub fn reversed(shape: StrokeShape) -> Self {
        assert!(shape.is_directional(), "a click has no direction");
        Self {
            shape,
            reversed: true,
        }
    }

    /// The paper's 13 evaluation strokes: the click plus both directions of
    /// the six shapes.
    pub fn all_thirteen() -> Vec<Stroke> {
        let mut out = vec![Stroke::new(StrokeShape::Click)];
        for shape in StrokeShape::all()
            .into_iter()
            .filter(|s| s.is_directional())
        {
            out.push(Stroke::new(shape));
            out.push(Stroke::reversed(shape));
        }
        out
    }
}

impl fmt::Display for Stroke {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.reversed {
            write!(f, "{}·rev", self.shape)
        } else {
            write!(f, "{}", self.shape)
        }
    }
}

/// A stroke placed on the writing pad: its shape and direction plus the
/// normalized pad coordinates it spans.
///
/// Pad coordinates are `(row, col)` fractions in `[0, 1]`: row 0 is the top
/// edge, col 0 the left edge (matching the tag-array layout in `rf-sim`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlacedStroke {
    /// The directed stroke.
    pub stroke: Stroke,
    /// Start point `(row, col)` in normalized pad coordinates.
    pub from: (f64, f64),
    /// End point `(row, col)` in normalized pad coordinates.
    pub to: (f64, f64),
}

impl PlacedStroke {
    /// Creates a placed stroke.
    pub fn new(stroke: Stroke, from: (f64, f64), to: (f64, f64)) -> Self {
        Self { stroke, from, to }
    }

    /// The way-points of the stroke's path in pad coordinates, including
    /// intermediate points for arcs (quadratic Bézier bulge) and the dip of
    /// a click. Way-points are ordered along the travel direction.
    pub fn waypoints(&self) -> Vec<(f64, f64)> {
        let (from, to) = (self.from, self.to);
        match self.stroke.shape {
            StrokeShape::Click => vec![from, from],
            StrokeShape::HLine
            | StrokeShape::VLine
            | StrokeShape::Slash
            | StrokeShape::Backslash => vec![from, to],
            StrokeShape::ArcLeft | StrokeShape::ArcRight => {
                // Quadratic Bézier with the control point offset
                // perpendicular to the chord. For the canonical top→bottom
                // chord this puts ⊂'s bulge toward smaller col (left) and
                // ⊃'s toward larger col (right); for other chord
                // orientations (e.g. the cup of a 'U') the bulge follows the
                // rotated perpendicular.
                let chord = chord_len(from, to).max(1e-9);
                // A quadratic Bézier's apex sits halfway to the control point,
                // so a full-chord offset yields a semicircle-like depth of
                // chord/2 — what a handwritten ⊂ / ⊃ actually looks like.
                let bulge = 1.0 * chord;
                // Unit perpendicular of the travel chord (row, col):
                // perp = (-Δcol, Δrow) / |chord|.
                let perp = (-(to.1 - from.1) / chord, (to.0 - from.0) / chord);
                // The spatial side of the bulge must not depend on travel
                // direction: a ⊂ drawn bottom-up is still a ⊂. The chord
                // perpendicular flips with direction, so the sign flips too.
                let base = if self.stroke.shape == StrokeShape::ArcLeft {
                    -1.0
                } else {
                    1.0
                };
                let sign = if self.stroke.reversed { -base } else { base };
                let mid = (
                    0.5 * (from.0 + to.0) + sign * bulge * perp.0,
                    0.5 * (from.1 + to.1) + sign * bulge * perp.1,
                );
                const STEPS: usize = 8;
                (0..=STEPS)
                    .map(|i| {
                        let t = i as f64 / STEPS as f64;
                        bezier2(from, mid, to, t)
                    })
                    .collect()
            }
        }
    }

    /// Approximate drawn length in pad units (0 for a click).
    pub fn path_len(&self) -> f64 {
        let wp = self.waypoints();
        wp.windows(2).map(|w| chord_len(w[0], w[1])).sum()
    }
}

fn chord_len(a: (f64, f64), b: (f64, f64)) -> f64 {
    ((a.0 - b.0).powi(2) + (a.1 - b.1).powi(2)).sqrt()
}

fn bezier2(p0: (f64, f64), p1: (f64, f64), p2: (f64, f64), t: f64) -> (f64, f64) {
    let u = 1.0 - t;
    (
        u * u * p0.0 + 2.0 * u * t * p1.0 + t * t * p2.0,
        u * u * p0.1 + 2.0 * u * t * p1.1 + t * t * p2.1,
    )
}

/// Standard pad placement for a bare stroke (used by the motion-detection
/// experiments): the stroke spans the central region of the pad in its
/// canonical orientation, honouring `reversed`.
pub fn default_placement(stroke: Stroke) -> PlacedStroke {
    use StrokeShape::*;
    let (from, to) = match stroke.shape {
        Click => ((0.5, 0.5), (0.5, 0.5)),
        HLine => ((0.5, 0.1), (0.5, 0.9)),
        VLine => ((0.1, 0.5), (0.9, 0.5)),
        Slash => ((0.9, 0.1), (0.1, 0.9)),
        Backslash => ((0.1, 0.1), (0.9, 0.9)),
        ArcLeft => ((0.15, 0.7), (0.85, 0.7)),
        ArcRight => ((0.15, 0.3), (0.85, 0.3)),
    };
    if stroke.reversed {
        PlacedStroke::new(stroke, to, from)
    } else {
        PlacedStroke::new(stroke, from, to)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thirteen_strokes() {
        let all = Stroke::all_thirteen();
        assert_eq!(all.len(), 13);
        let clicks = all.iter().filter(|s| s.shape == StrokeShape::Click).count();
        assert_eq!(clicks, 1);
        // Every directional shape appears exactly twice.
        for shape in StrokeShape::all()
            .into_iter()
            .filter(|s| s.is_directional())
        {
            assert_eq!(all.iter().filter(|s| s.shape == shape).count(), 2);
        }
    }

    #[test]
    #[should_panic(expected = "a click has no direction")]
    fn click_cannot_reverse() {
        Stroke::reversed(StrokeShape::Click);
    }

    #[test]
    fn motion_numbers_cover_1_to_7() {
        let nums: Vec<u8> = StrokeShape::all()
            .iter()
            .map(|s| s.motion_number())
            .collect();
        assert_eq!(nums, vec![1, 2, 3, 4, 5, 6, 7]);
    }

    #[test]
    fn line_waypoints_are_endpoints() {
        let p = default_placement(Stroke::new(StrokeShape::HLine));
        let wp = p.waypoints();
        assert_eq!(wp.len(), 2);
        assert_eq!(wp[0], p.from);
        assert_eq!(wp[1], p.to);
    }

    #[test]
    fn arc_bulges_to_the_correct_side() {
        let left = default_placement(Stroke::new(StrokeShape::ArcLeft));
        let right = default_placement(Stroke::new(StrokeShape::ArcRight));
        let l_mid = left.waypoints()[4];
        let r_mid = right.waypoints()[4];
        assert!(l_mid.1 < left.from.1, "⊂ bulges left");
        assert!(r_mid.1 > right.from.1, "⊃ bulges right");
    }

    #[test]
    fn arc_longer_than_chord() {
        let p = default_placement(Stroke::new(StrokeShape::ArcLeft));
        let chord = chord_len(p.from, p.to);
        assert!(p.path_len() > 1.1 * chord);
    }

    #[test]
    fn reversed_placement_swaps_endpoints() {
        let fwd = default_placement(Stroke::new(StrokeShape::VLine));
        let rev = default_placement(Stroke::reversed(StrokeShape::VLine));
        assert_eq!(fwd.from, rev.to);
        assert_eq!(fwd.to, rev.from);
    }

    #[test]
    fn click_has_zero_length() {
        let p = default_placement(Stroke::new(StrokeShape::Click));
        assert_eq!(p.path_len(), 0.0);
    }

    #[test]
    fn display_forms() {
        assert_eq!(Stroke::new(StrokeShape::Slash).to_string(), "/");
        assert_eq!(Stroke::reversed(StrokeShape::Slash).to_string(), "/·rev");
    }
}
