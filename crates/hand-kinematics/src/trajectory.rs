//! Time-parameterized 3-D hand trajectories.
//!
//! Human point-to-point hand movements follow a minimum-jerk velocity
//! profile (smooth bell-shaped speed, zero velocity at the endpoints). A
//! [`Trajectory`] carries a piecewise-linear spatial path re-timed by that
//! profile, plus helpers to compose paths sequentially (strokes, raises,
//! repositioning moves).

use rf_sim::geometry::Vec3;
use rf_sim::targets::{MovingTarget, TargetSample};
use std::sync::Arc;

/// Minimum-jerk progress function: fraction of path completed at normalized
/// time `τ ∈ [0, 1]`: `s(τ) = 10τ³ − 15τ⁴ + 6τ⁵`.
///
/// ```
/// use hand_kinematics::trajectory::min_jerk;
/// assert_eq!(min_jerk(0.0), 0.0);
/// assert_eq!(min_jerk(1.0), 1.0);
/// assert!((min_jerk(0.5) - 0.5).abs() < 1e-12); // symmetric
/// ```
pub fn min_jerk(tau: f64) -> f64 {
    let t = tau.clamp(0.0, 1.0);
    t * t * t * (10.0 - 15.0 * t + 6.0 * t * t)
}

/// Velocity profile of a segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum VelocityProfile {
    /// Bell-shaped minimum-jerk speed — point-to-point *reaching* movements
    /// (approach, raise, reposition).
    #[default]
    MinJerk,
    /// Trapezoidal speed with short ramps — *drawing* movements, where the
    /// pen keeps near-constant speed through the stroke.
    Trapezoid,
}

/// Trapezoidal progress function with 20% acceleration/deceleration ramps.
///
/// ```
/// use hand_kinematics::trajectory::trapezoid;
/// assert_eq!(trapezoid(0.0), 0.0);
/// assert_eq!(trapezoid(1.0), 1.0);
/// assert!((trapezoid(0.5) - 0.5).abs() < 1e-12);
/// ```
pub fn trapezoid(tau: f64) -> f64 {
    const R: f64 = 0.2;
    let t = tau.clamp(0.0, 1.0);
    let v = 1.0 / (1.0 - R); // cruise speed for unit displacement
    if t < R {
        v * t * t / (2.0 * R)
    } else if t <= 1.0 - R {
        v * (t - R / 2.0)
    } else {
        1.0 - v * (1.0 - t) * (1.0 - t) / (2.0 * R)
    }
}

/// One timed segment of a trajectory: a spatial poly-line traversed with
/// the segment's velocity profile over `[t_start, t_end]`.
#[derive(Debug, Clone, PartialEq)]
struct Segment {
    t_start: f64,
    t_end: f64,
    points: Vec<Vec3>,
    profile: VelocityProfile,
    /// Cumulative arc length at each point (first entry 0).
    cum_len: Vec<f64>,
}

impl Segment {
    fn new(t_start: f64, t_end: f64, points: Vec<Vec3>, profile: VelocityProfile) -> Self {
        assert!(t_end >= t_start, "segment ends before it starts");
        assert!(!points.is_empty(), "segment needs points");
        let mut cum_len = Vec::with_capacity(points.len());
        let mut acc = 0.0;
        cum_len.push(0.0);
        for w in points.windows(2) {
            acc += w[0].distance(w[1]);
            cum_len.push(acc);
        }
        Self {
            t_start,
            t_end,
            points,
            profile,
            cum_len,
        }
    }

    fn total_len(&self) -> f64 {
        *self.cum_len.last().expect("nonempty")
    }

    fn position(&self, t: f64) -> Vec3 {
        if self.t_end == self.t_start || self.points.len() == 1 {
            return self.points[0];
        }
        let tau = (t - self.t_start) / (self.t_end - self.t_start);
        let progress = match self.profile {
            VelocityProfile::MinJerk => min_jerk(tau),
            VelocityProfile::Trapezoid => trapezoid(tau),
        };
        let target = progress * self.total_len();
        if self.total_len() == 0.0 {
            return self.points[0];
        }
        let idx = self
            .cum_len
            .partition_point(|&l| l < target)
            .clamp(1, self.points.len() - 1);
        let (l0, l1) = (self.cum_len[idx - 1], self.cum_len[idx]);
        let frac = if l1 > l0 {
            (target - l0) / (l1 - l0)
        } else {
            0.0
        };
        self.points[idx - 1] + (self.points[idx] - self.points[idx - 1]) * frac
    }
}

/// A hand trajectory: a sequence of timed segments. The hand is absent
/// before the first segment and after the last.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Trajectory {
    segments: Vec<Segment>,
}

impl Trajectory {
    /// Creates an empty trajectory (hand always absent).
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a segment traversing `points` from `t_start` for `duration`
    /// seconds with a minimum-jerk profile.
    ///
    /// # Panics
    ///
    /// Panics if `points` is empty, `duration < 0`, or `t_start` precedes
    /// the end of the previous segment.
    pub fn push_segment(&mut self, t_start: f64, duration: f64, points: Vec<Vec3>) {
        self.push_segment_with_profile(t_start, duration, points, VelocityProfile::MinJerk);
    }

    /// Appends a segment with an explicit velocity profile.
    ///
    /// # Panics
    ///
    /// Same conditions as [`push_segment`](Self::push_segment).
    pub fn push_segment_with_profile(
        &mut self,
        t_start: f64,
        duration: f64,
        points: Vec<Vec3>,
        profile: VelocityProfile,
    ) {
        assert!(duration >= 0.0, "negative duration");
        if let Some(last) = self.segments.last() {
            assert!(
                t_start >= last.t_end - 1e-12,
                "segment starts before previous ends"
            );
        }
        self.segments
            .push(Segment::new(t_start, t_start + duration, points, profile));
    }

    /// Appends a hold: the hand stays at `point` for `duration`.
    pub fn push_hold(&mut self, t_start: f64, duration: f64, point: Vec3) {
        self.push_segment(t_start, duration, vec![point]);
    }

    /// Hand position at time `t`; `None` outside the trajectory's span.
    /// Between segments (a gap), the hand holds the previous segment's end.
    pub fn position(&self, t: f64) -> Option<Vec3> {
        let first = self.segments.first()?;
        if t < first.t_start {
            return None;
        }
        let last = self.segments.last().expect("nonempty");
        if t > last.t_end {
            return None;
        }
        // Find the segment containing t, or the gap after one.
        for seg in &self.segments {
            if t < seg.t_start {
                // In a gap: previous segment's endpoint (there must be one
                // because t >= first.t_start).
                break;
            }
            if t <= seg.t_end {
                return Some(seg.position(t));
            }
        }
        let prev = self
            .segments
            .iter()
            .rev()
            .find(|s| s.t_end <= t)
            .expect("gap implies a finished segment");
        Some(*prev.points.last().expect("nonempty"))
    }

    /// Start time, if any segment exists.
    pub fn start_time(&self) -> Option<f64> {
        self.segments.first().map(|s| s.t_start)
    }

    /// End time, if any segment exists.
    pub fn end_time(&self) -> Option<f64> {
        self.segments.last().map(|s| s.t_end)
    }

    /// Instantaneous speed at `t` (central difference, m/s); 0 outside.
    pub fn speed(&self, t: f64) -> f64 {
        const DT: f64 = 1e-4;
        match (self.position(t - DT), self.position(t + DT)) {
            (Some(a), Some(b)) => a.distance(b) / (2.0 * DT),
            _ => 0.0,
        }
    }

    /// Samples positions at fixed `dt` over the whole span.
    pub fn sample(&self, dt: f64) -> Vec<(f64, Vec3)> {
        assert!(dt > 0.0, "sample interval must be positive");
        let (Some(start), Some(end)) = (self.start_time(), self.end_time()) else {
            return Vec::new();
        };
        let mut out = Vec::new();
        let mut t = start;
        while t <= end + 1e-12 {
            if let Some(p) = self.position(t.min(end)) {
                out.push((t.min(end), p));
            }
            t += dt;
        }
        out
    }
}

/// A hand (or arm) following a trajectory, exposed to the RF scene as a
/// moving scatterer.
///
/// The trajectory is held behind an [`Arc`], so building the usual
/// hand + forearm target pair from one session shares a single trajectory
/// allocation instead of deep-copying the segment list per target.
#[derive(Debug, Clone, PartialEq)]
pub struct HandTarget {
    trajectory: Arc<Trajectory>,
    rcs_m2: f64,
    /// Constant offset applied to every position (used to hang an arm
    /// behind the hand).
    offset: Vec3,
}

impl HandTarget {
    /// Wraps a trajectory as a hand with the given RCS (a hand is roughly
    /// 0.01–0.03 m²). Accepts an owned [`Trajectory`] or a shared
    /// `Arc<Trajectory>`.
    ///
    /// # Panics
    ///
    /// Panics if `rcs_m2` is not positive.
    pub fn new(trajectory: impl Into<Arc<Trajectory>>, rcs_m2: f64) -> Self {
        assert!(rcs_m2 > 0.0, "RCS must be positive");
        Self {
            trajectory: trajectory.into(),
            rcs_m2,
            offset: Vec3::ZERO,
        }
    }

    /// A second scatterer (the forearm) rigidly offset from the hand with
    /// its own, larger RCS.
    pub fn with_offset(trajectory: impl Into<Arc<Trajectory>>, rcs_m2: f64, offset: Vec3) -> Self {
        assert!(rcs_m2 > 0.0, "RCS must be positive");
        Self {
            trajectory: trajectory.into(),
            rcs_m2,
            offset,
        }
    }

    /// The wrapped trajectory.
    pub fn trajectory(&self) -> &Trajectory {
        &self.trajectory
    }
}

impl MovingTarget for HandTarget {
    fn sample(&self, t: f64) -> Option<TargetSample> {
        self.trajectory.position(t).map(|p| TargetSample {
            position: p + self.offset,
            rcs_m2: self.rcs_m2,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn min_jerk_endpoints_and_monotonicity() {
        assert_eq!(min_jerk(0.0), 0.0);
        assert_eq!(min_jerk(1.0), 1.0);
        let mut prev = 0.0;
        for i in 1..=100 {
            let v = min_jerk(i as f64 / 100.0);
            assert!(v >= prev);
            prev = v;
        }
    }

    #[test]
    fn min_jerk_clamps_outside_range() {
        assert_eq!(min_jerk(-0.5), 0.0);
        assert_eq!(min_jerk(1.5), 1.0);
    }

    #[test]
    fn straight_segment_hits_endpoints() {
        let mut tr = Trajectory::new();
        tr.push_segment(1.0, 2.0, vec![Vec3::ZERO, Vec3::new(1.0, 0.0, 0.0)]);
        assert_eq!(tr.position(1.0), Some(Vec3::ZERO));
        let end = tr.position(3.0).expect("in span");
        assert!((end.x - 1.0).abs() < 1e-9);
        assert_eq!(tr.position(0.5), None);
        assert_eq!(tr.position(3.5), None);
    }

    #[test]
    fn speed_is_bell_shaped() {
        let mut tr = Trajectory::new();
        tr.push_segment(0.0, 1.0, vec![Vec3::ZERO, Vec3::new(0.3, 0.0, 0.0)]);
        let v_mid = tr.speed(0.5);
        let v_early = tr.speed(0.1);
        let v_late = tr.speed(0.9);
        assert!(v_mid > v_early && v_mid > v_late);
        // Min-jerk peak speed = 1.875 · mean speed.
        assert!((v_mid - 1.875 * 0.3).abs() < 0.02, "peak {v_mid}");
    }

    #[test]
    fn hold_keeps_position() {
        let mut tr = Trajectory::new();
        tr.push_hold(0.0, 1.0, Vec3::new(1.0, 2.0, 3.0));
        assert_eq!(tr.position(0.5), Some(Vec3::new(1.0, 2.0, 3.0)));
        assert_eq!(tr.speed(0.5), 0.0);
    }

    #[test]
    fn gap_holds_previous_endpoint() {
        let mut tr = Trajectory::new();
        tr.push_segment(0.0, 1.0, vec![Vec3::ZERO, Vec3::new(1.0, 0.0, 0.0)]);
        tr.push_segment(2.0, 1.0, vec![Vec3::new(1.0, 0.0, 0.0), Vec3::ZERO]);
        let mid_gap = tr.position(1.5).expect("inside span");
        assert!((mid_gap.x - 1.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "segment starts before previous ends")]
    fn overlapping_segments_rejected() {
        let mut tr = Trajectory::new();
        tr.push_segment(0.0, 2.0, vec![Vec3::ZERO]);
        tr.push_segment(1.0, 1.0, vec![Vec3::ZERO]);
    }

    #[test]
    fn polyline_passes_through_interior_points() {
        let mut tr = Trajectory::new();
        let elbow = Vec3::new(1.0, 1.0, 0.0);
        tr.push_segment(0.0, 2.0, vec![Vec3::ZERO, elbow, Vec3::new(2.0, 0.0, 0.0)]);
        // At the path midpoint (by arc length and min-jerk symmetry, t=1.0)
        // the hand is at the elbow.
        let p = tr.position(1.0).expect("in span");
        assert!(p.distance(elbow) < 1e-6, "{p:?}");
    }

    #[test]
    fn sample_covers_span() {
        let mut tr = Trajectory::new();
        tr.push_segment(0.0, 1.0, vec![Vec3::ZERO, Vec3::new(1.0, 0.0, 0.0)]);
        let s = tr.sample(0.1);
        assert!(s.len() >= 10);
        assert_eq!(s[0].0, 0.0);
    }

    #[test]
    fn hand_target_present_only_during_span() {
        let mut tr = Trajectory::new();
        tr.push_segment(1.0, 1.0, vec![Vec3::ZERO, Vec3::new(0.1, 0.0, 0.0)]);
        let hand = HandTarget::new(tr, 0.02);
        assert!(hand.sample(0.5).is_none());
        assert!(hand.sample(1.5).is_some());
        assert!(hand.sample(2.5).is_none());
    }

    #[test]
    fn offset_target_shifts_position() {
        let mut tr = Trajectory::new();
        tr.push_hold(0.0, 1.0, Vec3::ZERO);
        let arm = HandTarget::with_offset(tr, 0.06, Vec3::new(0.0, -0.2, 0.1));
        let s = arm.sample(0.5).expect("present");
        assert_eq!(s.position, Vec3::new(0.0, -0.2, 0.1));
        assert_eq!(s.rcs_m2, 0.06);
    }

    #[test]
    fn empty_trajectory_has_no_span() {
        let tr = Trajectory::new();
        assert_eq!(tr.start_time(), None);
        assert_eq!(tr.position(0.0), None);
        assert!(tr.sample(0.1).is_empty());
    }
}
