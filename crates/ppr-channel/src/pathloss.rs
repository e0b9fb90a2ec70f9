//! Indoor radio propagation: log-distance path loss with lognormal
//! shadowing.
//!
//! The paper's testbed spans nine rooms of an office floor (Fig. 7); link
//! qualities there range from near-perfect to marginal, and that diversity
//! is what every PPR result feeds on. The standard indoor model that
//! produces it is
//!
//! `PL(d) = PL(d₀) + 10·n·log₁₀(d/d₀) + X_σ`
//!
//! with path-loss exponent `n ≈ 3` for through-wall office links and a
//! per-link lognormal shadowing term `X_σ` (σ ≈ 6 dB) drawn once per link
//! (walls don't move during an experiment).

use crate::math::dbm_to_mw;
use rand::Rng;

/// Parameters of the propagation environment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PathLossModel {
    /// Transmit power in dBm (CC2420 maximum: 0 dBm).
    pub tx_power_dbm: f64,
    /// Path loss at the reference distance `d₀ = 1 m`, in dB
    /// (≈ 40 dB at 2.4 GHz free space).
    pub pl0_db: f64,
    /// Path-loss exponent `n` (2 = free space; ~3 for indoor office).
    pub exponent: f64,
    /// Standard deviation of lognormal shadowing, dB.
    pub shadow_sigma_db: f64,
    /// Receiver noise floor in dBm over the 2 MHz channel
    /// (−174 dBm/Hz + 10 dB noise figure + 63 dB bandwidth ≈ −101 dBm).
    pub noise_floor_dbm: f64,
}

impl Default for PathLossModel {
    fn default() -> Self {
        PathLossModel {
            tx_power_dbm: 0.0,
            pl0_db: 40.0,
            exponent: 3.0,
            shadow_sigma_db: 6.0,
            noise_floor_dbm: -101.0,
        }
    }
}

impl PathLossModel {
    /// Mean path loss at distance `d` meters (no shadowing).
    pub fn mean_path_loss_db(&self, d_meters: f64) -> f64 {
        let d = d_meters.max(0.1);
        self.pl0_db + 10.0 * self.exponent * d.log10()
    }

    /// Draws the static shadowing offset for one link, in dB.
    pub fn draw_shadowing_db<R: Rng>(&self, rng: &mut R) -> f64 {
        sample_normal(rng) * self.shadow_sigma_db
    }

    /// Received power in dBm over a link of distance `d` with a given
    /// (pre-drawn) shadowing offset.
    pub fn rx_power_dbm(&self, d_meters: f64, shadowing_db: f64) -> f64 {
        self.tx_power_dbm - self.mean_path_loss_db(d_meters) - shadowing_db
    }

    /// Received power in milliwatts.
    pub fn rx_power_mw(&self, d_meters: f64, shadowing_db: f64) -> f64 {
        dbm_to_mw(self.rx_power_dbm(d_meters, shadowing_db))
    }

    /// Noise floor in milliwatts.
    pub fn noise_mw(&self) -> f64 {
        dbm_to_mw(self.noise_floor_dbm)
    }

    /// Signal-to-noise ratio (linear) for a link, no interference.
    pub fn snr(&self, d_meters: f64, shadowing_db: f64) -> f64 {
        self.rx_power_mw(d_meters, shadowing_db) / self.noise_mw()
    }

    /// The distance (meters) at which the *mean* received power falls to
    /// `snr_linear` times the noise floor — the inversion of
    /// [`Self::mean_path_loss_db`]:
    ///
    /// `d = 10^((tx − noise − 10·log₁₀(snr) − PL₀) / (10·n))`.
    ///
    /// Shadowing is not included: with `shadow_sigma_db > 0` individual
    /// links can exceed the mean, so this is a *mean-power* range, exact
    /// only when shadowing is disabled.
    pub fn range_at_snr_m(&self, snr_linear: f64) -> f64 {
        assert!(snr_linear > 0.0, "SNR threshold must be positive");
        let budget_db =
            self.tx_power_dbm - self.noise_floor_dbm - 10.0 * snr_linear.log10() - self.pl0_db;
        10f64.powf(budget_db / (10.0 * self.exponent)).max(0.1)
    }

    /// The interference radius: the distance at which the mean received
    /// power equals the noise floor (SNR = 1). Beyond it a transmitter
    /// contributes less than the ever-present thermal noise, so spatial
    /// dispatch folds it into the noise floor instead of enumerating it.
    /// Exact (a true upper bound on audibility) only when
    /// `shadow_sigma_db == 0`.
    pub fn interference_radius_m(&self) -> f64 {
        self.range_at_snr_m(1.0)
    }
}

/// One sender→receiver link with its frozen shadowing draw: yields the
/// static received power used for every packet on that link.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Link {
    /// Link distance, meters.
    pub distance_m: f64,
    /// Frozen shadowing offset, dB.
    pub shadowing_db: f64,
    /// Received power in mW, precomputed.
    pub rx_power_mw: f64,
}

impl Link {
    /// Builds a link, drawing its shadowing from `rng`.
    pub fn new<R: Rng>(model: &PathLossModel, distance_m: f64, rng: &mut R) -> Self {
        let shadowing_db = model.draw_shadowing_db(rng);
        Link {
            distance_m,
            shadowing_db,
            rx_power_mw: model.rx_power_mw(distance_m, shadowing_db),
        }
    }

    /// Linear SNR of this link against a noise floor in mW.
    pub fn snr(&self, noise_mw: f64) -> f64 {
        self.rx_power_mw / noise_mw
    }
}

/// Draws one sample from the standard normal `N(0, 1)` via Box–Muller.
///
/// Shared by shadowing draws and the sample-level AWGN generator; local
/// because the workspace avoids numerics crates.
pub fn sample_normal<R: Rng>(rng: &mut R) -> f64 {
    loop {
        let u1: f64 = rng.gen();
        if u1 <= f64::MIN_POSITIVE {
            continue;
        }
        let u2: f64 = rng.gen();
        let r = (-2.0 * u1.ln()).sqrt();
        return r * (2.0 * std::f64::consts::PI * u2).cos();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::math::ratio_to_db;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Free-space reference loss at 1 m for a carrier frequency in GHz:
    /// `20 log₁₀(4π d f / c)`.
    fn fspl_at_1m_db(freq_ghz: f64) -> f64 {
        20.0 * (4.0 * std::f64::consts::PI * freq_ghz * 1e9 / 299_792_458.0).log10()
    }

    #[test]
    fn path_loss_increases_with_distance() {
        let m = PathLossModel::default();
        let mut prev = f64::NEG_INFINITY;
        for d in [1.0, 2.0, 5.0, 10.0, 30.0] {
            let pl = m.mean_path_loss_db(d);
            assert!(pl > prev);
            prev = pl;
        }
    }

    #[test]
    fn exponent_controls_slope() {
        let m = PathLossModel {
            exponent: 3.0,
            ..Default::default()
        };
        // Doubling distance adds 10·n·log10(2) ≈ 9.03 dB at n=3.
        let delta = m.mean_path_loss_db(20.0) - m.mean_path_loss_db(10.0);
        assert!((delta - 9.0309).abs() < 1e-3);
    }

    #[test]
    fn fspl_reference_value() {
        // ~40 dB at 1 m, 2.4 GHz: the default model's reference loss.
        assert!((fspl_at_1m_db(2.4) - 40.05).abs() < 0.1);
        assert!((fspl_at_1m_db(2.4) - PathLossModel::default().pl0_db).abs() < 0.1);
    }

    #[test]
    fn snr_is_positive_db_at_short_range() {
        let m = PathLossModel::default();
        // 3 m link, no shadowing: PL ≈ 40 + 30·log10(3) ≈ 54.3 dB,
        // RX ≈ −54 dBm, SNR ≈ 47 dB.
        let snr_db = ratio_to_db(m.snr(3.0, 0.0));
        assert!(snr_db > 40.0 && snr_db < 55.0, "snr {snr_db} dB");
    }

    #[test]
    fn shadowing_is_zero_mean_and_spreads() {
        let m = PathLossModel::default();
        let mut rng = StdRng::seed_from_u64(42);
        let n = 20_000;
        let draws: Vec<f64> = (0..n).map(|_| m.draw_shadowing_db(&mut rng)).collect();
        let mean = draws.iter().sum::<f64>() / n as f64;
        let var = draws.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.2, "mean {mean}");
        assert!(
            (var.sqrt() - m.shadow_sigma_db).abs() < 0.2,
            "sigma {}",
            var.sqrt()
        );
    }

    #[test]
    fn link_freezes_shadowing() {
        let m = PathLossModel::default();
        let l = Link::new(&m, 10.0, &mut StdRng::seed_from_u64(3));
        assert!((l.rx_power_mw - m.rx_power_mw(10.0, l.shadowing_db)).abs() < 1e-15);
        assert!(l.snr(m.noise_mw()) > 0.0);
    }

    #[test]
    fn range_inverts_mean_path_loss() {
        let m = PathLossModel {
            shadow_sigma_db: 0.0,
            ..Default::default()
        };
        for snr in [1.0, 2.5, 10.0, 100.0] {
            let d = m.range_at_snr_m(snr);
            // At the returned distance the mean-power SNR equals the
            // threshold (round trip through the log-distance model).
            assert!((m.snr(d, 0.0) - snr).abs() / snr < 1e-9, "snr {snr}: d {d}");
        }
        // Higher thresholds shrink the range; the interference radius
        // (SNR = 1) is the largest of them.
        assert!(m.range_at_snr_m(2.5) < m.interference_radius_m());
        assert!(m.range_at_snr_m(100.0) < m.range_at_snr_m(10.0));
    }

    #[test]
    fn clamps_tiny_distances() {
        let m = PathLossModel::default();
        assert!(m.mean_path_loss_db(0.0).is_finite());
        assert!(m.mean_path_loss_db(1e-9).is_finite());
    }
}
