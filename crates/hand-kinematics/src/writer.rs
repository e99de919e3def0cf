//! Composing strokes and letters into full hand-writing sessions.
//!
//! A session is a single continuous [`Trajectory`]: the hand approaches the
//! pad, draws each stroke at writing height, and between strokes raises and
//! repositions — the *adjustment interval* whose low phase variance RFIPad's
//! segmentation detects (§III-C1). Ground-truth stroke spans are recorded
//! alongside so experiments can score segmentation and recognition.

use crate::letters;
use crate::pad::PadFrame;
use crate::stroke::{default_placement, PlacedStroke, Stroke, StrokeShape};
use crate::trajectory::Trajectory;
use crate::user::UserProfile;
use rand::Rng;
use rf_sim::geometry::Vec3;
use rf_sim::noise::gaussian;
use std::sync::Arc;

/// Ground truth for one drawn stroke.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WrittenStroke {
    /// What was drawn.
    pub stroke: Stroke,
    /// The placement it was drawn at.
    pub placement: PlacedStroke,
    /// Time the pen-down phase begins.
    pub start: f64,
    /// Time the pen-down phase ends.
    pub end: f64,
}

/// One complete writing session: the hand trajectory plus ground truth.
#[derive(Debug, Clone, PartialEq)]
pub struct WritingSession {
    /// The full hand trajectory (approach, strokes, adjustments, retreat).
    /// Shared behind an [`Arc`] so the hand and forearm scene targets (and
    /// any cloned trial records) reference one allocation.
    pub trajectory: Arc<Trajectory>,
    /// Ground-truth stroke spans in time order.
    pub strokes: Vec<WrittenStroke>,
    /// The letter written, if the session spells one.
    pub letter: Option<char>,
}

impl WritingSession {
    /// Session end time (when the hand leaves), or `start` if empty.
    pub fn end_time(&self) -> f64 {
        self.trajectory.end_time().unwrap_or(0.0)
    }
}

/// Builds writing sessions for a pad and user.
#[derive(Debug, Clone)]
pub struct Writer {
    pad: PadFrame,
    user: UserProfile,
}

impl Writer {
    /// Creates a writer.
    pub fn new(pad: PadFrame, user: UserProfile) -> Self {
        Self { pad, user }
    }

    /// The pad frame in use.
    pub fn pad(&self) -> &PadFrame {
        &self.pad
    }

    /// The user profile in use.
    pub fn user(&self) -> &UserProfile {
        &self.user
    }

    /// Draws one placed stroke starting (pen-down) at `start`; the hand
    /// enters raised above the start point slightly earlier.
    pub fn write_stroke<R: Rng + ?Sized>(
        &self,
        placement: PlacedStroke,
        start: f64,
        rng: &mut R,
    ) -> WritingSession {
        let mut traj = Trajectory::new();
        let approach = self.approach_duration();
        let entry_t = start - approach;
        self.push_approach(&mut traj, entry_t, placement.from);
        let stroke_end = self.push_stroke(&mut traj, start, &placement, rng);
        self.push_retreat(&mut traj, stroke_end, placement.to);
        WritingSession {
            trajectory: Arc::new(traj),
            strokes: vec![WrittenStroke {
                stroke: placement.stroke,
                placement,
                start,
                end: stroke_end,
            }],
            letter: None,
        }
    }

    /// Draws a bare stroke at its default central placement (the motion-
    /// detection experiments).
    pub fn write_motion<R: Rng + ?Sized>(
        &self,
        stroke: Stroke,
        start: f64,
        rng: &mut R,
    ) -> WritingSession {
        self.write_stroke(default_placement(stroke), start, rng)
    }

    /// Writes a full letter beginning (pen-down on the first stroke) at
    /// `start`, with adjustment intervals between strokes.
    ///
    /// # Panics
    ///
    /// Panics if `letter` is not an English letter.
    pub fn write_letter<R: Rng + ?Sized>(
        &self,
        letter: char,
        start: f64,
        rng: &mut R,
    ) -> WritingSession {
        let placements =
            letters::letter_strokes(letter).unwrap_or_else(|| panic!("not a letter: {letter:?}"));
        let mut traj = Trajectory::new();
        let mut strokes = Vec::with_capacity(placements.len());
        let approach = self.approach_duration();
        self.push_approach(&mut traj, start - approach, placements[0].from);
        let mut t = start;
        for (i, placement) in placements.iter().enumerate() {
            let end = self.push_stroke(&mut traj, t, placement, rng);
            strokes.push(WrittenStroke {
                stroke: placement.stroke,
                placement: *placement,
                start: t,
                end,
            });
            if i + 1 < placements.len() {
                // Adjustment interval: raise, glide to the next stroke's
                // start, lower. Occasionally the writer is sloppy and
                // glides low — the source of segmentation insertions.
                let next = placements[i + 1].from;
                let pause = self.adjustment_duration();
                let sloppy = rng.random::<f64>() < self.user.sloppy_adjust_prob;
                if sloppy {
                    self.push_sloppy_adjustment(&mut traj, end, pause, placement.to, next);
                } else {
                    self.push_adjustment_with_height(
                        &mut traj,
                        end,
                        pause,
                        placement.to,
                        next,
                        self.user.raise_height_m,
                    );
                }
                t = end + pause;
            } else {
                self.push_retreat(&mut traj, end, placement.to);
            }
        }
        WritingSession {
            trajectory: Arc::new(traj),
            strokes,
            letter: Some(letter.to_ascii_uppercase()),
        }
    }

    /// Writes a word as a sequence of letter sessions separated by
    /// `letter_gap_s` of absent hand; returns one session per letter.
    pub fn write_word<R: Rng + ?Sized>(
        &self,
        word: &str,
        start: f64,
        letter_gap_s: f64,
        rng: &mut R,
    ) -> Vec<WritingSession> {
        let mut sessions = Vec::new();
        let mut t = start;
        for c in word.chars().filter(|c| c.is_ascii_alphabetic()) {
            let session = self.write_letter(c, t, rng);
            t = session.end_time() + letter_gap_s + self.approach_duration();
            sessions.push(session);
        }
        sessions
    }

    /// Duration of the pen-down phase of a stroke for this user.
    ///
    /// Handwriting follows *isochrony*: stroke duration grows far slower
    /// than stroke length (people speed up for long strokes and slow down
    /// for short ones). Duration scales with a 0.4 power of relative
    /// length, anchored so a pad-height stroke at normal speed takes
    /// ≈ 1.2 s — consistent with the paper's Fig. 21 timing distribution
    /// (90% of simple strokes complete within 2 s; arcs take longer).
    pub fn stroke_duration(&self, placement: &PlacedStroke) -> f64 {
        if placement.stroke.shape == StrokeShape::Click {
            return (0.5 / self.user.speed_scale).max(0.25);
        }
        let pad_size = self.pad.width.max(self.pad.height);
        let rel = (placement.path_len() * pad_size) / pad_size.max(1e-9) / 0.8;
        (1.2 * rel.powf(0.4) / self.user.speed_scale).max(0.35)
    }

    fn approach_duration(&self) -> f64 {
        (0.5 / self.user.speed_scale).max(0.3)
    }

    fn adjustment_duration(&self) -> f64 {
        self.user.pause_s
    }

    fn push_approach(&self, traj: &mut Trajectory, t: f64, at: (f64, f64)) {
        let raised = self.pad.point_at(at.0, at.1, self.user.raise_height_m);
        let down = self.pad.point_at(at.0, at.1, self.user.write_height_m);
        traj.push_segment(t, self.approach_duration(), vec![raised, down]);
    }

    fn push_retreat(&self, traj: &mut Trajectory, t: f64, at: (f64, f64)) {
        let down = self.pad.point_at(at.0, at.1, self.user.write_height_m);
        let raised = self.pad.point_at(at.0, at.1, self.user.raise_height_m);
        traj.push_segment(t, self.approach_duration(), vec![down, raised]);
    }

    /// A *sloppy* adjustment: the hand is raised but hesitates mid-pause,
    /// dipping back toward the plate before continuing — the brief burst of
    /// activity that produces the paper's segmentation insertions
    /// (Fig. 22).
    fn push_sloppy_adjustment(
        &self,
        traj: &mut Trajectory,
        t: f64,
        duration: f64,
        from: (f64, f64),
        to: (f64, f64),
    ) {
        let z_up = self.user.raise_height_m;
        let z_dip = self.user.write_height_m + 0.015;
        let mid = (0.5 * (from.0 + to.0), 0.5 * (from.1 + to.1));
        let raise = 0.16 * duration;
        let glide = 0.17 * duration;
        let dip = 0.17 * duration;
        traj.push_segment(
            t,
            raise,
            vec![
                self.pad.point_at(from.0, from.1, self.user.write_height_m),
                self.pad.point_at(from.0, from.1, z_up),
            ],
        );
        traj.push_segment(
            t + raise,
            glide,
            vec![
                self.pad.point_at(from.0, from.1, z_up),
                self.pad.point_at(mid.0, mid.1, z_up),
            ],
        );
        // The hesitation: down to near the plate and back up.
        traj.push_segment(
            t + raise + glide,
            dip,
            vec![
                self.pad.point_at(mid.0, mid.1, z_up),
                self.pad.point_at(mid.0, mid.1, z_dip),
            ],
        );
        traj.push_segment(
            t + raise + glide + dip,
            dip,
            vec![
                self.pad.point_at(mid.0, mid.1, z_dip),
                self.pad.point_at(mid.0, mid.1, z_up),
            ],
        );
        traj.push_segment(
            t + raise + glide + 2.0 * dip,
            glide,
            vec![
                self.pad.point_at(mid.0, mid.1, z_up),
                self.pad.point_at(to.0, to.1, z_up),
            ],
        );
        traj.push_segment(
            t + raise + 2.0 * glide + 2.0 * dip,
            duration - raise - 2.0 * glide - 2.0 * dip,
            vec![
                self.pad.point_at(to.0, to.1, z_up),
                self.pad.point_at(to.0, to.1, self.user.write_height_m),
            ],
        );
    }

    #[allow(dead_code)]
    fn push_adjustment(
        &self,
        traj: &mut Trajectory,
        t: f64,
        duration: f64,
        from: (f64, f64),
        to: (f64, f64),
    ) {
        self.push_adjustment_with_height(traj, t, duration, from, to, self.user.raise_height_m);
    }

    fn push_adjustment_with_height(
        &self,
        traj: &mut Trajectory,
        t: f64,
        duration: f64,
        from: (f64, f64),
        to: (f64, f64),
        z_up: f64,
    ) {
        // Quick raise, unhurried glide, quick lower: the hand spends most
        // of the pause well above the plate, which is what makes the
        // adjustment interval RF-quiet (the segmentation's assumption).
        let raise = 0.22 * duration;
        let glide = duration - 2.0 * raise;
        traj.push_segment(
            t,
            raise,
            vec![
                self.pad.point_at(from.0, from.1, self.user.write_height_m),
                self.pad.point_at(from.0, from.1, z_up),
            ],
        );
        traj.push_segment(
            t + raise,
            glide,
            vec![
                self.pad.point_at(from.0, from.1, z_up),
                self.pad.point_at(to.0, to.1, z_up),
            ],
        );
        traj.push_segment(
            t + raise + glide,
            raise,
            vec![
                self.pad.point_at(to.0, to.1, z_up),
                self.pad.point_at(to.0, to.1, self.user.write_height_m),
            ],
        );
    }

    /// Appends the pen-down phase of one stroke; returns its end time.
    fn push_stroke<R: Rng + ?Sized>(
        &self,
        traj: &mut Trajectory,
        t: f64,
        placement: &PlacedStroke,
        rng: &mut R,
    ) -> f64 {
        let duration = self.stroke_duration(placement);
        let points: Vec<Vec3> = if placement.stroke.shape == StrokeShape::Click {
            // A push toward the tag: dip from write height to near-contact
            // and back.
            let (r, c) = placement.from;
            vec![
                self.pad.point_at(r, c, self.user.write_height_m),
                self.pad.point_at(r, c, 0.012),
                self.pad.point_at(r, c, self.user.write_height_m),
            ]
        } else {
            placement
                .waypoints()
                .iter()
                .map(|&(r, c)| {
                    let jr = gaussian(rng, 0.0, self.user.jitter_sigma_m);
                    let jc = gaussian(rng, 0.0, self.user.jitter_sigma_m);
                    let p = self.pad.point_at(r, c, self.user.write_height_m);
                    Vec3::new(p.x + jc, p.y + jr, p.z)
                })
                .collect()
        };
        traj.push_segment_with_profile(
            t,
            duration,
            points,
            crate::trajectory::VelocityProfile::Trapezoid,
        );
        t + duration
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use rf_sim::tags::{TagArray, TagModel};

    fn writer() -> Writer {
        let array = TagArray::grid(5, 5, 0.06, Vec3::ZERO, TagModel::TypeB, |_| 0.0);
        Writer::new(PadFrame::over_array(&array, 0.03), UserProfile::average())
    }

    #[test]
    fn stroke_session_has_one_ground_truth_span() {
        let w = writer();
        let mut rng = StdRng::seed_from_u64(1);
        let s = w.write_motion(Stroke::new(StrokeShape::VLine), 1.0, &mut rng);
        assert_eq!(s.strokes.len(), 1);
        assert_eq!(s.strokes[0].start, 1.0);
        assert!(s.strokes[0].end > 1.0);
        assert!(s.letter.is_none());
    }

    #[test]
    fn hand_is_at_write_height_mid_stroke() {
        let w = writer();
        let mut rng = StdRng::seed_from_u64(2);
        let s = w.write_motion(Stroke::new(StrokeShape::HLine), 1.0, &mut rng);
        let mid = 0.5 * (s.strokes[0].start + s.strokes[0].end);
        let p = s.trajectory.position(mid).expect("present");
        assert!((p.z - 0.03).abs() < 0.001, "z={}", p.z);
    }

    #[test]
    fn hand_raised_during_adjustment() {
        let w = writer();
        let mut rng = StdRng::seed_from_u64(3);
        let s = w.write_letter('H', 1.0, &mut rng);
        assert_eq!(s.strokes.len(), 3);
        // Midpoint of the first adjustment interval.
        let t = 0.5 * (s.strokes[0].end + s.strokes[1].start);
        let p = s.trajectory.position(t).expect("present");
        assert!(p.z > 0.08, "adjustment height {}", p.z);
    }

    #[test]
    fn letter_strokes_are_ordered_and_spaced() {
        let w = writer();
        let mut rng = StdRng::seed_from_u64(4);
        let s = w.write_letter('E', 0.0, &mut rng);
        assert_eq!(s.strokes.len(), 4);
        for pair in s.strokes.windows(2) {
            assert!(pair[1].start > pair[0].end, "adjustment gap missing");
            let gap = pair[1].start - pair[0].end;
            assert!((gap - 1.0).abs() < 0.25, "gap {gap}");
        }
        assert_eq!(s.letter, Some('E'));
    }

    #[test]
    fn click_dips_toward_plate() {
        let w = writer();
        let mut rng = StdRng::seed_from_u64(5);
        let s = w.write_motion(Stroke::new(StrokeShape::Click), 1.0, &mut rng);
        let span = &s.strokes[0];
        let mut min_z = f64::INFINITY;
        let mut t = span.start;
        while t <= span.end {
            if let Some(p) = s.trajectory.position(t) {
                min_z = min_z.min(p.z);
            }
            t += 0.01;
        }
        assert!(min_z < 0.02, "click min z {min_z}");
    }

    #[test]
    fn faster_user_finishes_sooner() {
        let array = TagArray::grid(5, 5, 0.06, Vec3::ZERO, TagModel::TypeB, |_| 0.0);
        let pad = PadFrame::over_array(&array, 0.03);
        let slow = Writer::new(pad, UserProfile::average());
        let fast = Writer::new(pad, UserProfile::average().with_speed(2.0));
        let mut rng = StdRng::seed_from_u64(6);
        let s1 = slow.write_letter('Z', 0.0, &mut rng);
        let s2 = fast.write_letter('Z', 0.0, &mut rng);
        assert!(s2.end_time() < s1.end_time());
    }

    #[test]
    fn longer_strokes_take_longer() {
        let w = writer();
        let arc = default_placement(Stroke::new(StrokeShape::ArcLeft));
        let line = default_placement(Stroke::new(StrokeShape::VLine));
        assert!(w.stroke_duration(&arc) > w.stroke_duration(&line));
    }

    #[test]
    fn word_sessions_do_not_overlap() {
        let w = writer();
        let mut rng = StdRng::seed_from_u64(7);
        let sessions = w.write_word("HI", 0.0, 1.0, &mut rng);
        assert_eq!(sessions.len(), 2);
        assert!(sessions[1].strokes[0].start > sessions[0].end_time());
        assert_eq!(sessions[0].letter, Some('H'));
        assert_eq!(sessions[1].letter, Some('I'));
    }

    #[test]
    fn word_skips_non_letters() {
        let w = writer();
        let mut rng = StdRng::seed_from_u64(8);
        let sessions = w.write_word("A-B!", 0.0, 0.5, &mut rng);
        assert_eq!(sessions.len(), 2);
    }

    #[test]
    fn trajectory_is_continuous_at_stroke_boundaries() {
        let w = writer();
        let mut rng = StdRng::seed_from_u64(9);
        let s = w.write_letter('H', 0.0, &mut rng);
        // Sample densely; consecutive positions should never jump more than
        // a few cm (no teleports).
        let samples = s.trajectory.sample(0.01);
        for pair in samples.windows(2) {
            let d = pair[0].1.distance(pair[1].1);
            assert!(d < 0.05, "jump of {d} m at t={}", pair[0].0);
        }
    }
}
