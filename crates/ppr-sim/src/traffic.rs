//! Traffic generation: Poisson packet processes at a configured offered
//! load.
//!
//! The paper drives every sender at a constant offered load (3.5, 6.9 or
//! 13.8 kbit/s/node). We model packet *arrivals* as a Poisson process
//! whose rate makes the mean offered bit rate equal the target: for a
//! payload of `P` bits, the mean inter-arrival time is `P / load`.

use ppr_phy::chips::CHIP_RATE_HZ;
use rand::Rng;

/// Converts seconds to chips on the 2 Mchip/s clock.
pub fn secs_to_chips(s: f64) -> u64 {
    (s * CHIP_RATE_HZ as f64).round() as u64
}

/// A Poisson arrival process for one sender.
#[derive(Debug, Clone)]
pub struct PoissonArrivals {
    /// Mean inter-arrival time, chips.
    mean_gap_chips: f64,
    /// Next arrival time, chips.
    next: u64,
}

impl PoissonArrivals {
    /// Creates a process offering `load_kbps` kilobits/s of payload with
    /// `payload_bytes` per packet. The first arrival is randomized within
    /// one mean gap so senders do not start in phase.
    pub fn new<R: Rng>(load_kbps: f64, payload_bytes: usize, rng: &mut R) -> Self {
        assert!(load_kbps > 0.0 && payload_bytes > 0);
        let bits = payload_bytes as f64 * 8.0;
        let gap_s = bits / (load_kbps * 1000.0);
        let mean_gap_chips = gap_s * CHIP_RATE_HZ as f64;
        let first = (rng.gen::<f64>() * mean_gap_chips) as u64;
        PoissonArrivals {
            mean_gap_chips,
            next: first,
        }
    }

    /// Time of the next arrival, chips.
    pub fn peek(&self) -> u64 {
        self.next
    }

    /// Consumes the next arrival and schedules the following one with an
    /// exponential gap.
    pub fn pop<R: Rng>(&mut self, rng: &mut R) -> u64 {
        let now = self.next;
        let u: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
        let gap = -u.ln() * self.mean_gap_chips;
        self.next = now + gap.max(1.0) as u64;
        now
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn chips_seconds_roundtrip() {
        assert_eq!(secs_to_chips(1.0), 2_000_000);
        assert_eq!(secs_to_chips(3.25), 6_500_000);
    }

    #[test]
    fn mean_rate_matches_offered_load() {
        let mut rng = StdRng::seed_from_u64(11);
        // 3.5 kbit/s with 1500 B packets → 1 packet / 3.4286 s.
        let mut p = PoissonArrivals::new(3.5, 1500, &mut rng);
        let horizon = secs_to_chips(2000.0);
        let mut count = 0usize;
        while p.peek() < horizon {
            p.pop(&mut rng);
            count += 1;
        }
        let expected = 2000.0 / (1500.0 * 8.0 / 3500.0);
        let ratio = count as f64 / expected;
        assert!(
            (ratio - 1.0).abs() < 0.1,
            "count {count} expected {expected}"
        );
    }

    #[test]
    fn arrivals_are_strictly_increasing() {
        let mut rng = StdRng::seed_from_u64(12);
        let mut p = PoissonArrivals::new(13.8, 250, &mut rng);
        let mut prev = 0;
        for _ in 0..1000 {
            let t = p.pop(&mut rng);
            assert!(t >= prev);
            prev = t;
        }
    }

    #[test]
    fn gaps_look_exponential() {
        // Coefficient of variation of exponential gaps ≈ 1.
        let mut rng = StdRng::seed_from_u64(13);
        let mut p = PoissonArrivals::new(6.9, 1500, &mut rng);
        let mut gaps = Vec::new();
        let mut prev = p.pop(&mut rng);
        for _ in 0..20_000 {
            let t = p.pop(&mut rng);
            gaps.push((t - prev) as f64);
            prev = t;
        }
        let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
        let var = gaps.iter().map(|g| (g - mean) * (g - mean)).sum::<f64>() / gaps.len() as f64;
        let cv = var.sqrt() / mean;
        assert!((cv - 1.0).abs() < 0.05, "cv {cv}");
    }
}
