//! Double-precision complex arithmetic.
//!
//! A minimal, allocation-free complex type sufficient for the complex LU
//! factorization performed by the Radau IIA solver. Implemented locally so
//! the workspace stays within its sanctioned dependency set.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// A complex number with `f64` real and imaginary parts.
///
/// # Example
///
/// ```
/// use paraspace_linalg::Complex64;
///
/// let z = Complex64::new(3.0, 4.0);
/// assert_eq!(z.abs(), 5.0);
/// assert_eq!(z * Complex64::new(3.0, -4.0), Complex64::new(25.0, 0.0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
#[repr(C)]
pub struct Complex64 {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl Complex64 {
    /// The additive identity `0 + 0i`.
    pub const ZERO: Complex64 = Complex64 { re: 0.0, im: 0.0 };
    /// The multiplicative identity `1 + 0i`.
    pub const ONE: Complex64 = Complex64 { re: 1.0, im: 0.0 };
    /// The imaginary unit `0 + 1i`.
    pub const I: Complex64 = Complex64 { re: 0.0, im: 1.0 };

    /// Creates a complex number from real and imaginary parts.
    #[inline]
    pub const fn new(re: f64, im: f64) -> Self {
        Complex64 { re, im }
    }

    /// Creates a purely real complex number.
    #[inline]
    pub const fn from_real(re: f64) -> Self {
        Complex64 { re, im: 0.0 }
    }

    /// Returns the modulus |z|, computed robustly via `hypot`.
    #[inline]
    pub fn abs(self) -> f64 {
        self.re.hypot(self.im)
    }

    /// Returns the squared modulus |z|², avoiding the square root.
    #[inline]
    pub fn abs_sq(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// Returns the argument (phase angle) in radians.
    #[inline]
    pub fn arg(self) -> f64 {
        self.im.atan2(self.re)
    }

    /// Returns the principal square root.
    pub fn sqrt(self) -> Self {
        if self.re == 0.0 && self.im == 0.0 {
            return Complex64::ZERO;
        }
        let m = self.abs();
        let re = ((m + self.re) * 0.5).sqrt();
        let im = ((m - self.re) * 0.5).sqrt();
        Complex64::new(re, if self.im >= 0.0 { im } else { -im })
    }

    /// Returns `true` if either component is NaN.
    #[inline]
    pub fn is_nan(self) -> bool {
        self.re.is_nan() || self.im.is_nan()
    }

    /// Returns `true` if both components are finite.
    #[inline]
    pub fn is_finite(self) -> bool {
        self.re.is_finite() && self.im.is_finite()
    }

    /// Scales by a real factor.
    #[inline]
    pub fn scale(self, k: f64) -> Self {
        Complex64::new(self.re * k, self.im * k)
    }

    /// `k` values as the `2·k` `f64`s they are stored as, each value's real
    /// part before its imaginary part.
    #[inline]
    pub(crate) fn as_f64s_mut(values: &mut [Complex64]) -> &mut [f64] {
        // SAFETY: `Complex64` is `#[repr(C)]` over two `f64`s, so it has
        // their alignment, no padding, and `re` at offset 0 and `im` at 8;
        // the new slice covers exactly the old one's bytes and borrows it.
        unsafe { std::slice::from_raw_parts_mut(values.as_mut_ptr().cast(), 2 * values.len()) }
    }
}

impl From<f64> for Complex64 {
    fn from(re: f64) -> Self {
        Complex64::from_real(re)
    }
}

impl fmt::Display for Complex64 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.im >= 0.0 {
            write!(f, "{}+{}i", self.re, self.im)
        } else {
            write!(f, "{}{}i", self.re, self.im)
        }
    }
}

impl Add for Complex64 {
    type Output = Complex64;
    #[inline]
    fn add(self, rhs: Complex64) -> Complex64 {
        Complex64::new(self.re + rhs.re, self.im + rhs.im)
    }
}

impl AddAssign for Complex64 {
    #[inline]
    fn add_assign(&mut self, rhs: Complex64) {
        self.re += rhs.re;
        self.im += rhs.im;
    }
}

impl Sub for Complex64 {
    type Output = Complex64;
    #[inline]
    fn sub(self, rhs: Complex64) -> Complex64 {
        Complex64::new(self.re - rhs.re, self.im - rhs.im)
    }
}

impl SubAssign for Complex64 {
    #[inline]
    fn sub_assign(&mut self, rhs: Complex64) {
        self.re -= rhs.re;
        self.im -= rhs.im;
    }
}

impl Mul for Complex64 {
    type Output = Complex64;
    #[inline]
    fn mul(self, rhs: Complex64) -> Complex64 {
        Complex64::new(self.re * rhs.re - self.im * rhs.im, self.re * rhs.im + self.im * rhs.re)
    }
}

impl MulAssign for Complex64 {
    #[inline]
    fn mul_assign(&mut self, rhs: Complex64) {
        *self = *self * rhs;
    }
}

impl Mul<f64> for Complex64 {
    type Output = Complex64;
    #[inline]
    fn mul(self, rhs: f64) -> Complex64 {
        self.scale(rhs)
    }
}

impl Mul<Complex64> for f64 {
    type Output = Complex64;
    #[inline]
    fn mul(self, rhs: Complex64) -> Complex64 {
        rhs.scale(self)
    }
}

/// The half of Smith's quotient `z / divisor` that depends on the divisor
/// alone: which component leads, their ratio `r` and the real denominator
/// `d`. An elimination step divides a whole column by one pivot, so it
/// builds this once and [`divide`](Self::divide)s every entry by it;
/// `Complex64`'s `/` is the same two calls.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SmithDivisor {
    re_leads: bool,
    r: f64,
    d: f64,
}

impl SmithDivisor {
    #[inline]
    pub(crate) fn new(divisor: Complex64) -> Self {
        if divisor.re.abs() >= divisor.im.abs() {
            let r = divisor.im / divisor.re;
            SmithDivisor { re_leads: true, r, d: divisor.re + divisor.im * r }
        } else {
            let r = divisor.re / divisor.im;
            SmithDivisor { re_leads: false, r, d: divisor.re * r + divisor.im }
        }
    }

    /// `z / divisor`.
    #[inline]
    pub(crate) fn divide(&self, z: Complex64) -> Complex64 {
        let (r, d) = (self.r, self.d);
        if self.re_leads {
            Complex64::new((z.re + z.im * r) / d, (z.im - z.re * r) / d)
        } else {
            Complex64::new((z.re * r + z.im) / d, (z.im * r - z.re) / d)
        }
    }
}

impl Div for Complex64 {
    type Output = Complex64;
    /// Complex division using Smith's algorithm for numerical robustness.
    #[inline]
    fn div(self, rhs: Complex64) -> Complex64 {
        SmithDivisor::new(rhs).divide(self)
    }
}

impl DivAssign for Complex64 {
    #[inline]
    fn div_assign(&mut self, rhs: Complex64) {
        *self = *self / rhs;
    }
}

impl Div<f64> for Complex64 {
    type Output = Complex64;
    #[inline]
    fn div(self, rhs: f64) -> Complex64 {
        Complex64::new(self.re / rhs, self.im / rhs)
    }
}

impl Neg for Complex64 {
    type Output = Complex64;
    #[inline]
    fn neg(self) -> Complex64 {
        Complex64::new(-self.re, -self.im)
    }
}

impl Sum for Complex64 {
    fn sum<I: Iterator<Item = Complex64>>(iter: I) -> Complex64 {
        iter.fold(Complex64::ZERO, |a, b| a + b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: Complex64, b: Complex64, tol: f64) -> bool {
        (a - b).abs() <= tol
    }

    #[test]
    fn arithmetic_identities() {
        let z = Complex64::new(2.5, -1.5);
        assert_eq!(z + Complex64::ZERO, z);
        assert_eq!(z * Complex64::ONE, z);
        assert_eq!(z - z, Complex64::ZERO);
        assert_eq!(-z + z, Complex64::ZERO);
    }

    #[test]
    fn multiplication_matches_expansion() {
        let a = Complex64::new(1.0, 2.0);
        let b = Complex64::new(3.0, -4.0);
        // (1+2i)(3-4i) = 3 - 4i + 6i - 8i^2 = 11 + 2i
        assert_eq!(a * b, Complex64::new(11.0, 2.0));
    }

    #[test]
    fn division_roundtrips() {
        let a = Complex64::new(1.7, -9.3);
        let b = Complex64::new(-4.2, 0.001);
        assert!(close((a / b) * b, a, 1e-12));
    }

    #[test]
    fn division_is_robust_to_scale_disparity() {
        let a = Complex64::new(1e160, 1e160);
        let b = Complex64::new(1e160, 1e-160);
        let q = a / b;
        assert!(q.is_finite());
        assert!((q.re - 1.0).abs() < 1e-12);
    }

    #[test]
    fn sqrt_squares_back() {
        for &(re, im) in &[(4.0, 0.0), (0.0, 2.0), (-1.0, 0.0), (3.0, -7.0), (-5.0, 1e-3)] {
            let z = Complex64::new(re, im);
            let s = z.sqrt();
            assert!(close(s * s, z, 1e-10 * (1.0 + z.abs())), "sqrt({z}) = {s}");
        }
    }

    #[test]
    fn sqrt_principal_branch() {
        // Principal square root has non-negative real part.
        let s = Complex64::new(-4.0, 0.0).sqrt();
        assert!(close(s, Complex64::new(0.0, 2.0), 1e-12));
        let s = Complex64::new(-4.0, -1e-30).sqrt();
        assert!(s.im <= 0.0);
    }

    #[test]
    fn abs_and_arg() {
        let z = Complex64::new(3.0, 4.0);
        assert_eq!(z.abs(), 5.0);
        assert_eq!(z.abs_sq(), 25.0);
        assert!((z.arg() - (4.0f64).atan2(3.0)).abs() < 1e-15);
    }

    #[test]
    fn sum_accumulates() {
        let total: Complex64 = (0..10).map(|k| Complex64::new(k as f64, -(k as f64))).sum();
        assert_eq!(total, Complex64::new(45.0, -45.0));
    }

    #[test]
    fn display_formats_sign() {
        assert_eq!(Complex64::new(1.0, 2.0).to_string(), "1+2i");
        assert_eq!(Complex64::new(1.0, -2.0).to_string(), "1-2i");
    }
}
