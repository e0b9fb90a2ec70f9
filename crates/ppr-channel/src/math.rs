//! Small numeric helpers: dB conversions and the Gaussian Q-function.
//!
//! Implemented locally (the workspace avoids numerics crates): `erfc` uses
//! the Abramowitz & Stegun 7.1.26 rational approximation, accurate to
//! ~1.5 × 10⁻⁷ absolute error — far below anything a chip-error-rate model
//! can resolve.

/// Converts dBm to milliwatts.
#[inline]
pub fn dbm_to_mw(dbm: f64) -> f64 {
    10f64.powf(dbm / 10.0)
}

/// Converts a power ratio to decibels.
#[inline]
pub fn ratio_to_db(r: f64) -> f64 {
    10.0 * r.log10()
}

/// The error function, via Abramowitz & Stegun 7.1.26.
pub fn erf(x: f64) -> f64 {
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();
    const A1: f64 = 0.254829592;
    const A2: f64 = -0.284496736;
    const A3: f64 = 1.421413741;
    const A4: f64 = -1.453152027;
    const A5: f64 = 1.061405429;
    const P: f64 = 0.3275911;
    let t = 1.0 / (1.0 + P * x);
    let y = 1.0 - (((((A5 * t + A4) * t) + A3) * t + A2) * t + A1) * t * (-x * x).exp();
    sign * y
}

/// The complementary error function.
#[inline]
pub fn erfc(x: f64) -> f64 {
    1.0 - erf(x)
}

/// The Gaussian tail probability `Q(x) = P[N(0,1) > x]`.
#[inline]
pub fn q_function(x: f64) -> f64 {
    0.5 * erfc(x / std::f64::consts::SQRT_2)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn db_conversions_roundtrip() {
        for dbm in [-100.0, -30.0, 0.0, 17.5] {
            // dBm is the ratio to 1 mW in dB.
            assert!((ratio_to_db(dbm_to_mw(dbm)) - dbm).abs() < 1e-9);
        }
        assert!((ratio_to_db(2.0) - 3.0103).abs() < 1e-3);
        assert!((ratio_to_db(10.0) - 10.0).abs() < 1e-12);
    }

    #[test]
    fn erf_reference_values() {
        // erf(0)=0, erf(1)≈0.8427008, erf(2)≈0.9953223. The A&S 7.1.26
        // approximation carries ~1.5e-7 absolute error.
        assert!(erf(0.0).abs() < 1e-6);
        assert!((erf(1.0) - 0.8427008).abs() < 2e-6);
        assert!((erf(2.0) - 0.9953223).abs() < 2e-6);
        assert!((erf(-1.0) + 0.8427008).abs() < 2e-6);
    }

    #[test]
    fn q_function_reference_values() {
        // Q(0)=0.5, Q(1)≈0.158655, Q(3)≈0.0013499
        assert!((q_function(0.0) - 0.5).abs() < 1e-9);
        assert!((q_function(1.0) - 0.158655).abs() < 1e-5);
        assert!((q_function(3.0) - 0.0013499).abs() < 1e-5);
    }

    #[test]
    fn q_function_is_monotonically_decreasing() {
        let mut prev = 1.0;
        for i in 0..100 {
            let q = q_function(i as f64 * 0.1);
            assert!(q <= prev);
            prev = q;
        }
    }
}
