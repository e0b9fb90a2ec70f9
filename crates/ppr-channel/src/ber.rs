//! Chip error rate of the MSK receiver as a function of SINR.
//!
//! MSK with coherent matched-filter detection is antipodal signaling per
//! chip, so the chip error probability in Gaussian noise (plus
//! Gaussian-approximated interference) is
//!
//! `p = Q( √(2·SINR) )`
//!
//! where SINR is the per-chip signal-to-interference-plus-noise power
//! ratio. Interference from concurrent 802.15.4 transmissions is treated
//! as additional Gaussian noise — the standard approximation, reasonable
//! here because interferer chips are pseudo-random and chip-asynchronous.
//!
//! The function below is the *only* place the fast chip-level channel and
//! the sample-level DSP channel need to agree; `tests/channel_parity.rs`
//! at the workspace root pins that agreement.

use crate::math::q_function;

/// Chip error probability for a given linear SINR (all interference
/// Gaussian-approximated).
#[inline]
pub fn chip_error_prob(sinr_linear: f64) -> f64 {
    if sinr_linear <= 0.0 {
        return 0.5;
    }
    q_function((2.0 * sinr_linear).sqrt()).clamp(0.0, 0.5)
}

/// Chip error probability with the strongest interferer modeled
/// *exactly* and only the residue Gaussian-approximated.
///
/// A colliding DSSS transmission is not noise: each of its chips either
/// opposes or reinforces the victim's chip with equal probability, so
/// the matched-filter output is a two-mass mixture:
///
/// `p = ½ · [ Q((√Pₛ − √P_d)/σ) + Q((√Pₛ + √P_d)/σ) ]`,   `σ = √((N + P_r)/2)`
///
/// with signal power `Pₛ`, dominant interferer power `P_d`, residual
/// interference `P_r` and noise `N`. Limits: `P_d → 0` recovers
/// [`chip_error_prob`]; `P_d ≈ Pₛ` gives p ≈ 0.25 (half the chips
/// contested, half of those lost); `P_d ≫ Pₛ` gives p → 0.5.
pub fn chip_error_prob_dominant(
    signal_mw: f64,
    dominant_mw: f64,
    residual_mw: f64,
    noise_mw: f64,
) -> f64 {
    let sigma = ((noise_mw + residual_mw) / 2.0).sqrt();
    if sigma <= 0.0 {
        // No noise at all: errors occur only when the dominant
        // interferer opposes and overpowers the signal.
        return if dominant_mw > signal_mw { 0.5 } else { 0.0 };
    }
    let a_s = signal_mw.sqrt();
    let a_d = dominant_mw.sqrt();
    let p = 0.5 * (q_function((a_s - a_d) / sigma) + q_function((a_s + a_d) / sigma));
    p.clamp(0.0, 0.5)
}

/// `P[Binomial(n, p) ≥ k]`.
pub fn binomial_tail(n: u32, p: f64, k: u32) -> f64 {
    if p <= 0.0 {
        return if k == 0 { 1.0 } else { 0.0 };
    }
    if p >= 1.0 {
        return 1.0;
    }
    let mut total = 0.0;
    for i in k..=n {
        total += binomial_pmf(n, p, i);
    }
    total.min(1.0)
}

/// `P[Binomial(n, p) = k]`, computed in log space for stability.
pub fn binomial_pmf(n: u32, p: f64, k: u32) -> f64 {
    let ln = ln_choose(n, k) + k as f64 * p.ln() + (n - k) as f64 * (1.0 - p).ln();
    ln.exp()
}

fn ln_choose(n: u32, k: u32) -> f64 {
    ln_factorial(n) - ln_factorial(k) - ln_factorial(n - k)
}

fn ln_factorial(n: u32) -> f64 {
    (2..=n as u64).map(|i| (i as f64).ln()).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Linear SINR from signal, interference and noise powers (all mW).
    fn sinr(signal_mw: f64, interference_mw: f64, noise_mw: f64) -> f64 {
        signal_mw / (interference_mw + noise_mw)
    }

    #[test]
    fn chip_error_prob_limits() {
        assert_eq!(chip_error_prob(0.0), 0.5);
        assert_eq!(chip_error_prob(-1.0), 0.5);
        assert!(chip_error_prob(1e6) < 1e-12);
    }

    #[test]
    fn chip_error_prob_reference_points() {
        // SINR = 0 dB (1.0): Q(√2) ≈ 0.0786
        assert!((chip_error_prob(1.0) - 0.0786).abs() < 1e-3);
        // SINR = 3 dB (2.0): Q(2) ≈ 0.02275
        assert!((chip_error_prob(2.0) - 0.02275).abs() < 5e-4);
        // SINR = -10 dB (0.1): Q(0.447) ≈ 0.327
        assert!((chip_error_prob(0.1) - 0.327).abs() < 2e-3);
    }

    #[test]
    fn chip_error_prob_is_monotone_in_sinr() {
        let mut prev = 0.6;
        for i in 0..60 {
            let s = 10f64.powf(-2.0 + i as f64 * 0.1);
            let p = chip_error_prob(s);
            assert!(p <= prev);
            prev = p;
        }
    }

    #[test]
    fn dominant_model_limits() {
        let noise = 1e-9;
        let s = 1e-6;
        // No dominant interferer: reduces to the Gaussian model.
        let p0 = chip_error_prob_dominant(s, 0.0, 0.0, noise);
        assert!((p0 - chip_error_prob(s / noise)).abs() < 1e-12);
        // Equal-power collision: ~quarter of chips lost.
        let p_eq = chip_error_prob_dominant(s, s, 0.0, noise);
        assert!((p_eq - 0.25).abs() < 0.01, "equal-power p = {p_eq}");
        // Overwhelming interferer: coin flip.
        let p_hi = chip_error_prob_dominant(s, 100.0 * s, 0.0, noise);
        assert!(p_hi > 0.49, "dominant p = {p_hi}");
        // Zero noise edge cases.
        assert_eq!(chip_error_prob_dominant(s, 2.0 * s, 0.0, 0.0), 0.5);
        assert_eq!(chip_error_prob_dominant(s, 0.5 * s, 0.0, 0.0), 0.0);
    }

    #[test]
    fn dominant_model_is_monotone_in_interferer_power() {
        let noise = 1e-9;
        let s = 1e-6;
        let mut prev = 0.0;
        for k in 0..40 {
            let d = s * 10f64.powf(-2.0 + k as f64 * 0.1);
            let p = chip_error_prob_dominant(s, d, 0.0, noise);
            assert!(p >= prev - 1e-12, "dip at k={k}");
            prev = p;
        }
    }

    #[test]
    fn dominant_is_harsher_than_gaussian_near_equal_power() {
        // The whole point of the two-mass model: a comparable-power
        // collider does far more damage than its Gaussian equivalent.
        let noise = 1e-9;
        let s = 1e-6;
        let gaussian = chip_error_prob(sinr(s, s, noise));
        let two_mass = chip_error_prob_dominant(s, s, 0.0, noise);
        assert!(
            two_mass > 2.0 * gaussian,
            "two-mass {two_mass} vs gaussian {gaussian}"
        );
    }

    #[test]
    fn sinr_composes_noise_and_interference() {
        assert!((sinr(1.0, 0.0, 0.5) - 2.0).abs() < 1e-12);
        assert!((sinr(1.0, 0.5, 0.5) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn binomial_pmf_sums_to_one() {
        for &p in &[0.01, 0.3, 0.77] {
            let total: f64 = (0..=32).map(|k| binomial_pmf(32, p, k)).sum();
            assert!((total - 1.0).abs() < 1e-9, "p={p} total={total}");
        }
    }

    #[test]
    fn binomial_tail_edges() {
        assert_eq!(binomial_tail(32, 0.0, 0), 1.0);
        assert_eq!(binomial_tail(32, 0.0, 1), 0.0);
        assert_eq!(binomial_tail(32, 1.0, 32), 1.0);
        assert!((binomial_tail(10, 0.5, 0) - 1.0).abs() < 1e-12);
    }
}
