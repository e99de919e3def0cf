//! 3-D vectors and the small amount of geometry the channel model needs.
//!
//! Coordinate convention used throughout the workspace (matching the paper's
//! Fig. 3): the tag plane lies in the `x`–`y` plane at `z = 0`, `x` runs along
//! array columns (lateral), `y` along rows, and `z` points away from the
//! plane toward the user's hand. The reader antenna sits at positive or
//! negative `z` depending on the LOS / NLOS scenario.

use std::ops::{Add, Div, Mul, Neg, Sub};

/// A point or displacement in 3-D space (metres).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Vec3 {
    /// Lateral coordinate (array columns).
    pub x: f64,
    /// Vertical-on-plane coordinate (array rows).
    pub y: f64,
    /// Out-of-plane coordinate (toward the hand).
    pub z: f64,
}

impl Vec3 {
    /// The origin / zero vector.
    pub const ZERO: Vec3 = Vec3 {
        x: 0.0,
        y: 0.0,
        z: 0.0,
    };

    /// Creates a vector from components.
    pub fn new(x: f64, y: f64, z: f64) -> Self {
        Self { x, y, z }
    }

    /// Euclidean length.
    pub fn norm(self) -> f64 {
        self.dot(self).sqrt()
    }

    /// Dot product.
    pub fn dot(self, rhs: Vec3) -> f64 {
        self.x * rhs.x + self.y * rhs.y + self.z * rhs.z
    }

    /// Cross product.
    pub fn cross(self, rhs: Vec3) -> Vec3 {
        Vec3::new(
            self.y * rhs.z - self.z * rhs.y,
            self.z * rhs.x - self.x * rhs.z,
            self.x * rhs.y - self.y * rhs.x,
        )
    }

    /// Distance to another point.
    pub fn distance(self, rhs: Vec3) -> f64 {
        (self - rhs).norm()
    }

    /// Unit vector in this direction.
    ///
    /// # Panics
    ///
    /// Panics on the zero vector.
    pub fn normalized(self) -> Vec3 {
        let n = self.norm();
        assert!(n > 0.0, "cannot normalize the zero vector");
        self / n
    }

    /// Angle in radians between this vector and `rhs`, in `[0, π]`.
    ///
    /// # Panics
    ///
    /// Panics if either vector is zero.
    pub fn angle_to(self, rhs: Vec3) -> f64 {
        let cos = self.normalized().dot(rhs.normalized()).clamp(-1.0, 1.0);
        cos.acos()
    }

    /// Shortest distance from point `p` to the segment `a`–`b`.
    pub fn point_segment_distance(p: Vec3, a: Vec3, b: Vec3) -> f64 {
        let ab = b - a;
        let len2 = ab.dot(ab);
        if len2 < 1e-18 {
            return p.distance(a);
        }
        let t = ((p - a).dot(ab) / len2).clamp(0.0, 1.0);
        p.distance(a + ab * t)
    }
}

impl Add for Vec3 {
    type Output = Vec3;
    fn add(self, rhs: Vec3) -> Vec3 {
        Vec3::new(self.x + rhs.x, self.y + rhs.y, self.z + rhs.z)
    }
}

impl Sub for Vec3 {
    type Output = Vec3;
    fn sub(self, rhs: Vec3) -> Vec3 {
        Vec3::new(self.x - rhs.x, self.y - rhs.y, self.z - rhs.z)
    }
}

impl Mul<f64> for Vec3 {
    type Output = Vec3;
    fn mul(self, rhs: f64) -> Vec3 {
        Vec3::new(self.x * rhs, self.y * rhs, self.z * rhs)
    }
}

impl Div<f64> for Vec3 {
    type Output = Vec3;
    fn div(self, rhs: f64) -> Vec3 {
        Vec3::new(self.x / rhs, self.y / rhs, self.z / rhs)
    }
}

impl Neg for Vec3 {
    type Output = Vec3;
    fn neg(self) -> Vec3 {
        Vec3::new(-self.x, -self.y, -self.z)
    }
}

/// A complex number for baseband channel phasors.
///
/// Kept minimal on purpose — the channel model only needs addition,
/// multiplication, magnitude, and argument.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Complex {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl Complex {
    /// Zero phasor.
    pub const ZERO: Complex = Complex { re: 0.0, im: 0.0 };

    /// Creates a complex number from rectangular parts.
    pub fn new(re: f64, im: f64) -> Self {
        Self { re, im }
    }

    /// Creates a phasor `amplitude · e^{jφ}`.
    pub fn from_polar(amplitude: f64, phase: f64) -> Self {
        Self {
            re: amplitude * phase.cos(),
            im: amplitude * phase.sin(),
        }
    }

    /// Magnitude |z|.
    pub fn abs(self) -> f64 {
        self.re.hypot(self.im)
    }

    /// Argument in `(-π, π]`.
    pub fn arg(self) -> f64 {
        self.im.atan2(self.re)
    }

    /// Complex conjugate.
    pub fn conj(self) -> Complex {
        Complex::new(self.re, -self.im)
    }
}

impl Add for Complex {
    type Output = Complex;
    fn add(self, rhs: Complex) -> Complex {
        Complex::new(self.re + rhs.re, self.im + rhs.im)
    }
}

impl Sub for Complex {
    type Output = Complex;
    fn sub(self, rhs: Complex) -> Complex {
        Complex::new(self.re - rhs.re, self.im - rhs.im)
    }
}

impl Mul for Complex {
    type Output = Complex;
    fn mul(self, rhs: Complex) -> Complex {
        Complex::new(
            self.re * rhs.re - self.im * rhs.im,
            self.re * rhs.im + self.im * rhs.re,
        )
    }
}

impl Mul<f64> for Complex {
    type Output = Complex;
    fn mul(self, rhs: f64) -> Complex {
        Complex::new(self.re * rhs, self.im * rhs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::{FRAC_PI_2, PI};

    #[test]
    fn norm_and_distance() {
        let v = Vec3::new(3.0, 4.0, 0.0);
        assert_eq!(v.norm(), 5.0);
        assert_eq!(Vec3::ZERO.distance(v), 5.0);
    }

    #[test]
    fn dot_and_cross() {
        let x = Vec3::new(1.0, 0.0, 0.0);
        let y = Vec3::new(0.0, 1.0, 0.0);
        assert_eq!(x.dot(y), 0.0);
        let z = x.cross(y);
        assert_eq!(z, Vec3::new(0.0, 0.0, 1.0));
    }

    #[test]
    fn normalized_unit_length() {
        let v = Vec3::new(1.0, 2.0, 2.0).normalized();
        assert!((v.norm() - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "cannot normalize the zero vector")]
    fn normalize_zero_panics() {
        Vec3::ZERO.normalized();
    }

    #[test]
    fn angle_between_axes() {
        let x = Vec3::new(1.0, 0.0, 0.0);
        let y = Vec3::new(0.0, 2.0, 0.0);
        assert!((x.angle_to(y) - FRAC_PI_2).abs() < 1e-12);
        assert!((x.angle_to(-x) - PI).abs() < 1e-12);
        assert!(x.angle_to(x).abs() < 1e-12);
    }

    #[test]
    fn segment_distance_inside_and_outside() {
        let a = Vec3::ZERO;
        let b = Vec3::new(10.0, 0.0, 0.0);
        // Perpendicular foot inside the segment.
        assert!((Vec3::point_segment_distance(Vec3::new(5.0, 3.0, 0.0), a, b) - 3.0).abs() < 1e-12);
        // Beyond endpoint: distance to endpoint.
        assert!(
            (Vec3::point_segment_distance(Vec3::new(13.0, 4.0, 0.0), a, b) - 5.0).abs() < 1e-12
        );
        // Degenerate segment.
        assert_eq!(
            Vec3::point_segment_distance(Vec3::new(0.0, 2.0, 0.0), a, a),
            2.0
        );
    }

    #[test]
    fn complex_polar_round_trip() {
        let z = Complex::from_polar(2.0, 1.2);
        assert!((z.abs() - 2.0).abs() < 1e-12);
        assert!((z.arg() - 1.2).abs() < 1e-12);
    }

    #[test]
    fn complex_multiplication_adds_phases() {
        let a = Complex::from_polar(2.0, 0.5);
        let b = Complex::from_polar(3.0, 0.7);
        let c = a * b;
        assert!((c.abs() - 6.0).abs() < 1e-12);
        assert!((c.arg() - 1.2).abs() < 1e-12);
    }

    #[test]
    fn complex_addition_of_opposites_cancels() {
        let a = Complex::from_polar(1.0, 0.0);
        let b = Complex::from_polar(1.0, PI);
        assert!((a + b).abs() < 1e-12);
    }

    #[test]
    fn conjugate_negates_arg() {
        let z = Complex::from_polar(1.5, 0.9);
        assert!((z.conj().arg() + 0.9).abs() < 1e-12);
    }
}
