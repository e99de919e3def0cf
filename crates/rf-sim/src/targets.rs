//! Moving reflectors: the hand (and arm) as "virtual transmitters".
//!
//! The paper models a hand near the tag plane as a powerful virtual
//! transmitter that re-radiates the reader's carrier toward nearby tags
//! (§III-A1, citing Pu et al.). Anything that moves and scatters RF —
//! a hand, the attached forearm, a passer-by — implements [`MovingTarget`]
//! and is sampled by the scene once per observation.

use crate::geometry::Vec3;

/// State of a moving scatterer at one instant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TargetSample {
    /// Centre position in metres.
    pub position: Vec3,
    /// Effective radar scattering cross-section in m² (a hand is a few
    /// hundred cm²; a forearm several times more).
    pub rcs_m2: f64,
}

impl TargetSample {
    /// Effective geometric radius derived from the RCS (disk equivalent),
    /// used for line-of-sight obstruction checks.
    pub fn radius(&self) -> f64 {
        (self.rcs_m2 / std::f64::consts::PI).sqrt()
    }
}

/// A scatterer whose position (and possibly cross-section) changes over
/// time. Returning `None` means the target is absent at that instant (e.g.
/// the hand has been withdrawn between strokes).
pub trait MovingTarget {
    /// The target's state at time `t` seconds, or `None` if absent.
    fn sample(&self, t: f64) -> Option<TargetSample>;
}

/// A target fixed in place — useful for tests and static-obstruction
/// studies.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StaticTarget {
    /// The constant sample returned at every instant.
    pub sample: TargetSample,
}

impl StaticTarget {
    /// Creates a static target at `position` with the given RCS.
    pub fn new(position: Vec3, rcs_m2: f64) -> Self {
        Self {
            sample: TargetSample { position, rcs_m2 },
        }
    }
}

impl MovingTarget for StaticTarget {
    fn sample(&self, _t: f64) -> Option<TargetSample> {
        Some(self.sample)
    }
}

/// Adapts a closure `f(t) -> Option<TargetSample>` into a [`MovingTarget`].
pub struct FnTarget<F>(pub F);

impl<F: Fn(f64) -> Option<TargetSample>> MovingTarget for FnTarget<F> {
    fn sample(&self, t: f64) -> Option<TargetSample> {
        (self.0)(t)
    }
}

impl<F> std::fmt::Debug for FnTarget<F> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("FnTarget(..)")
    }
}

impl<T: MovingTarget + ?Sized> MovingTarget for &T {
    fn sample(&self, t: f64) -> Option<TargetSample> {
        (**self).sample(t)
    }
}

impl<T: MovingTarget + ?Sized> MovingTarget for Box<T> {
    fn sample(&self, t: f64) -> Option<TargetSample> {
        (**self).sample(t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn static_target_is_constant() {
        let t = StaticTarget::new(Vec3::new(1.0, 2.0, 3.0), 0.02);
        assert_eq!(t.sample(0.0), t.sample(100.0));
    }

    #[test]
    fn fn_target_delegates() {
        let t = FnTarget(|time: f64| {
            (time < 1.0).then(|| TargetSample {
                position: Vec3::new(time, 0.0, 0.0),
                rcs_m2: 0.02,
            })
        });
        assert!(t.sample(0.5).is_some());
        assert!(t.sample(1.5).is_none());
        assert_eq!(t.sample(0.25).expect("present").position.x, 0.25);
    }

    #[test]
    fn radius_from_rcs() {
        let s = TargetSample {
            position: Vec3::ZERO,
            rcs_m2: std::f64::consts::PI * 0.0025, // radius 5 cm
        };
        assert!((s.radius() - 0.05).abs() < 1e-12);
    }

    #[test]
    fn boxed_and_borrowed_targets_work() {
        let t = StaticTarget::new(Vec3::ZERO, 0.01);
        let b: Box<dyn MovingTarget> = Box::new(t);
        assert!(b.sample(0.0).is_some());
        let r: &dyn MovingTarget = &t;
        assert!(r.sample(0.0).is_some());
    }
}
