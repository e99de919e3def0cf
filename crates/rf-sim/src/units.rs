//! Physical-quantity newtypes and conversions.
//!
//! Link-budget code mixes powers in dBm and watts, gains in dBi, distances
//! in metres, and frequencies in hertz. Newtypes keep those units from being
//! confused at compile time (paper parameters: 922.38 MHz carrier, 30 dBm TX
//! power, 8 dBi antenna gain).

use std::fmt;
use std::ops::{Add, Div, Mul, Neg, Sub};

/// Speed of light in vacuum, m/s.
pub const SPEED_OF_LIGHT: f64 = 299_792_458.0;

macro_rules! scalar_unit {
    ($(#[$meta:meta])* $name:ident, $suffix:expr) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
        pub struct $name(pub f64);

        impl $name {
            /// Raw numeric value.
            pub fn value(self) -> f64 {
                self.0
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{}{}", self.0, $suffix)
            }
        }

        impl Add for $name {
            type Output = $name;
            fn add(self, rhs: $name) -> $name {
                $name(self.0 + rhs.0)
            }
        }

        impl Sub for $name {
            type Output = $name;
            fn sub(self, rhs: $name) -> $name {
                $name(self.0 - rhs.0)
            }
        }

        impl Neg for $name {
            type Output = $name;
            fn neg(self) -> $name {
                $name(-self.0)
            }
        }

        impl Mul<f64> for $name {
            type Output = $name;
            fn mul(self, rhs: f64) -> $name {
                $name(self.0 * rhs)
            }
        }

        impl Div<f64> for $name {
            type Output = $name;
            fn div(self, rhs: f64) -> $name {
                $name(self.0 / rhs)
            }
        }
    };
}

scalar_unit!(
    /// A distance in metres.
    Meters,
    " m"
);
scalar_unit!(
    /// A power level in dBm (decibels relative to 1 mW).
    Dbm,
    " dBm"
);
scalar_unit!(
    /// A power ratio in decibels.
    Db,
    " dB"
);
scalar_unit!(
    /// An antenna gain in dBi (decibels relative to isotropic).
    Dbi,
    " dBi"
);
scalar_unit!(
    /// A frequency in hertz.
    Hertz,
    " Hz"
);
scalar_unit!(
    /// A time in seconds.
    Seconds,
    " s"
);

impl Dbm {
    /// Converts to watts.
    ///
    /// ```
    /// use rf_sim::units::Dbm;
    /// assert!((Dbm(30.0).to_watts() - 1.0).abs() < 1e-12);
    /// ```
    pub fn to_watts(self) -> f64 {
        10f64.powf((self.0 - 30.0) / 10.0)
    }

    /// Creates a dBm value from watts.
    ///
    /// # Panics
    ///
    /// Panics if `watts <= 0`.
    pub fn from_watts(watts: f64) -> Dbm {
        assert!(watts > 0.0, "power must be positive, got {watts} W");
        Dbm(10.0 * watts.log10() + 30.0)
    }
}

impl Add<Db> for Dbm {
    type Output = Dbm;
    fn add(self, rhs: Db) -> Dbm {
        Dbm(self.0 + rhs.0)
    }
}

impl Sub<Db> for Dbm {
    type Output = Dbm;
    fn sub(self, rhs: Db) -> Dbm {
        Dbm(self.0 - rhs.0)
    }
}

impl Add<Dbi> for Dbm {
    type Output = Dbm;
    fn add(self, rhs: Dbi) -> Dbm {
        Dbm(self.0 + rhs.0)
    }
}

impl Dbi {
    /// Linear gain ratio.
    ///
    /// ```
    /// use rf_sim::units::Dbi;
    /// assert!((Dbi(8.0).linear() - 6.3096).abs() < 1e-3);
    /// ```
    pub fn linear(self) -> f64 {
        10f64.powf(self.0 / 10.0)
    }

    /// Creates a dBi gain from a linear ratio.
    ///
    /// # Panics
    ///
    /// Panics if `linear <= 0`.
    pub fn from_linear(linear: f64) -> Dbi {
        assert!(linear > 0.0, "gain ratio must be positive, got {linear}");
        Dbi(10.0 * linear.log10())
    }
}

impl Db {
    /// Linear power ratio.
    pub fn linear(self) -> f64 {
        10f64.powf(self.0 / 10.0)
    }

    /// Creates a dB ratio from a linear power ratio.
    ///
    /// # Panics
    ///
    /// Panics if `linear <= 0`.
    pub fn from_linear(linear: f64) -> Db {
        assert!(linear > 0.0, "ratio must be positive, got {linear}");
        Db(10.0 * linear.log10())
    }
}

impl Hertz {
    /// Free-space wavelength λ = c / f.
    ///
    /// ```
    /// use rf_sim::units::Hertz;
    /// let lambda = Hertz(922.38e6).wavelength();
    /// assert!((lambda.value() - 0.325).abs() < 0.001); // ≈ 32.5 cm
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if the frequency is not positive.
    pub fn wavelength(self) -> Meters {
        assert!(self.0 > 0.0, "frequency must be positive");
        Meters(SPEED_OF_LIGHT / self.0)
    }

    /// Convenience constructor from MHz.
    pub fn from_mhz(mhz: f64) -> Hertz {
        Hertz(mhz * 1e6)
    }
}

/// The carrier frequency used throughout the paper's prototype: 922.38 MHz.
pub const CARRIER_FREQUENCY: Hertz = Hertz(922.38e6);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dbm_watt_round_trip() {
        for dbm in [-60.0, -30.0, 0.0, 15.0, 32.5] {
            let w = Dbm(dbm).to_watts();
            assert!((Dbm::from_watts(w).value() - dbm).abs() < 1e-9);
        }
    }

    #[test]
    fn zero_dbm_is_one_milliwatt() {
        assert!((Dbm(0.0).to_watts() - 1e-3).abs() < 1e-15);
    }

    #[test]
    #[should_panic(expected = "power must be positive")]
    fn from_watts_rejects_nonpositive() {
        Dbm::from_watts(0.0);
    }

    #[test]
    fn dbi_linear_round_trip() {
        let g = Dbi(8.0);
        assert!((Dbi::from_linear(g.linear()).value() - 8.0).abs() < 1e-9);
    }

    #[test]
    fn db_arithmetic_on_dbm() {
        let p = Dbm(30.0) - Db(10.0);
        assert_eq!(p.value(), 20.0);
        let q = Dbm(0.0) + Dbi(8.0);
        assert_eq!(q.value(), 8.0);
    }

    #[test]
    fn carrier_wavelength_matches_paper() {
        // The paper quotes ≈ 320 mm for its distance-resolution estimate.
        let lambda = CARRIER_FREQUENCY.wavelength().value();
        assert!(lambda > 0.32 && lambda < 0.33, "lambda {lambda}");
    }

    #[test]
    fn unit_display() {
        assert_eq!(Meters(1.5).to_string(), "1.5 m");
        assert_eq!(Dbm(-41.0).to_string(), "-41 dBm");
    }

    #[test]
    fn unit_arithmetic() {
        assert_eq!((Meters(1.0) + Meters(0.5)).value(), 1.5);
        assert_eq!((Meters(2.0) - Meters(0.5)).value(), 1.5);
        assert_eq!((Meters(2.0) * 3.0).value(), 6.0);
        assert_eq!((Meters(3.0) / 2.0).value(), 1.5);
        assert_eq!((-Meters(1.0)).value(), -1.0);
    }

    #[test]
    fn hertz_from_mhz() {
        assert_eq!(Hertz::from_mhz(922.38).value(), 922.38e6);
    }
}
