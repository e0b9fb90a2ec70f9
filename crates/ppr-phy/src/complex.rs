//! A minimal complex-baseband sample type.
//!
//! The sample-level channel and the MSK modem work on complex I/Q samples.
//! We implement the handful of operations we need rather than pulling in a
//! numerics crate; this keeps the PHY self-contained and the sample type
//! `Copy`-cheap.

use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub};

/// A complex baseband sample, `re + j·im`, in 32-bit floats.
///
/// `#[repr(C)]` is load-bearing: the DSP SIMD kernels
/// ([`crate::simd`]) reinterpret `&[Complex32]` as interleaved
/// `[re, im, re, im, …]` `f32`s, which requires this exact layout.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
#[repr(C)]
pub struct Complex32 {
    /// In-phase (real) component.
    pub re: f32,
    /// Quadrature (imaginary) component.
    pub im: f32,
}

impl Complex32 {
    /// The additive identity.
    pub const ZERO: Complex32 = Complex32 { re: 0.0, im: 0.0 };

    /// Creates a sample from rectangular coordinates.
    #[inline]
    pub const fn new(re: f32, im: f32) -> Self {
        Complex32 { re, im }
    }

    /// Creates a sample from polar coordinates (magnitude, phase in radians).
    #[inline]
    pub fn from_polar(mag: f32, phase: f32) -> Self {
        Complex32 {
            re: mag * phase.cos(),
            im: mag * phase.sin(),
        }
    }

    /// Squared magnitude `|z|²` — the instantaneous power of the sample.
    #[inline]
    pub fn norm_sqr(self) -> f32 {
        self.re * self.re + self.im * self.im
    }

    /// Magnitude `|z|`.
    #[inline]
    pub fn abs(self) -> f32 {
        self.norm_sqr().sqrt()
    }

    /// Phase angle in radians, in `(-π, π]`.
    #[inline]
    pub fn arg(self) -> f32 {
        self.im.atan2(self.re)
    }

    /// Scales by a real factor.
    #[inline]
    pub fn scale(self, k: f32) -> Self {
        Complex32 {
            re: self.re * k,
            im: self.im * k,
        }
    }
}

impl Add for Complex32 {
    type Output = Complex32;
    #[inline]
    fn add(self, rhs: Self) -> Self {
        Complex32 {
            re: self.re + rhs.re,
            im: self.im + rhs.im,
        }
    }
}

impl AddAssign for Complex32 {
    #[inline]
    fn add_assign(&mut self, rhs: Self) {
        self.re += rhs.re;
        self.im += rhs.im;
    }
}

impl Sub for Complex32 {
    type Output = Complex32;
    #[inline]
    fn sub(self, rhs: Self) -> Self {
        Complex32 {
            re: self.re - rhs.re,
            im: self.im - rhs.im,
        }
    }
}

impl Neg for Complex32 {
    type Output = Complex32;
    #[inline]
    fn neg(self) -> Self {
        Complex32 {
            re: -self.re,
            im: -self.im,
        }
    }
}

impl Mul for Complex32 {
    type Output = Complex32;
    #[inline]
    fn mul(self, rhs: Self) -> Self {
        Complex32 {
            re: self.re * rhs.re - self.im * rhs.im,
            im: self.re * rhs.im + self.im * rhs.re,
        }
    }
}

impl Mul<f32> for Complex32 {
    type Output = Complex32;
    #[inline]
    fn mul(self, rhs: f32) -> Self {
        self.scale(rhs)
    }
}

impl Div<f32> for Complex32 {
    type Output = Complex32;
    #[inline]
    fn div(self, rhs: f32) -> Self {
        self.scale(1.0 / rhs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f32, b: f32) -> bool {
        (a - b).abs() < 1e-6
    }

    #[test]
    fn arithmetic_identities() {
        let z = Complex32::new(3.0, -4.0);
        assert_eq!(z + Complex32::ZERO, z);
        assert_eq!(z - z, Complex32::ZERO);
        assert!(close(z.norm_sqr(), 25.0));
        assert!(close(z.abs(), 5.0));
    }

    #[test]
    fn multiplication_matches_hand_computation() {
        // (1 + 2j)(3 + 4j) = 3 + 4j + 6j + 8j² = -5 + 10j
        let p = Complex32::new(1.0, 2.0) * Complex32::new(3.0, 4.0);
        assert!(close(p.re, -5.0) && close(p.im, 10.0));
    }

    #[test]
    fn conj_mul_gives_power() {
        let z = Complex32::new(0.6, 0.8);
        let p = z * Complex32::new(z.re, -z.im);
        assert!(close(p.re, 1.0));
        assert!(close(p.im, 0.0));
    }

    #[test]
    fn polar_roundtrip() {
        let z = Complex32::from_polar(2.0, std::f32::consts::FRAC_PI_3);
        assert!(close(z.abs(), 2.0));
        assert!(close(z.arg(), std::f32::consts::FRAC_PI_3));
    }

    #[test]
    fn unit_rotation_preserves_magnitude() {
        let z = Complex32::new(1.0, 1.0);
        let r = Complex32::from_polar(1.0, 0.7);
        assert!(close((z * r).abs(), z.abs()));
    }
}
