//! Adaptive threshold selection (§3.3).
//!
//! The SoftPHY contract deliberately hides how hints are computed; the
//! link layer must *learn* a good threshold by observing, for each hint
//! value, how often units carrying that hint turn out correct (it learns
//! this from PP-ARQ's checksum passes: confirmed ranges were correct,
//! retransmitted-after-mismatch ranges were not).
//!
//! [`AdaptiveThreshold`] keeps per-hint-value correctness counts and
//! picks the largest `η` whose *cumulative* miss risk stays below a
//! target — relying only on the monotonicity contract, never on the
//! hint's semantics.

/// Online estimator of the hint threshold `η`.
#[derive(Debug, Clone)]
pub struct AdaptiveThreshold {
    /// correct[h], wrong[h]: observed outcomes for units with hint h.
    correct: Vec<u64>,
    wrong: Vec<u64>,
    /// Maximum tolerable P(wrong | hint ≤ η).
    target_miss_rate: f64,
    /// Fallback threshold until enough observations accumulate.
    initial_eta: u8,
    /// Observations needed before trusting the estimate.
    min_samples: u64,
}

impl AdaptiveThreshold {
    /// Creates an estimator over hints in `0..=max_hint`.
    pub fn new(max_hint: u8, initial_eta: u8, target_miss_rate: f64) -> Self {
        AdaptiveThreshold {
            correct: vec![0; max_hint as usize + 1],
            wrong: vec![0; max_hint as usize + 1],
            target_miss_rate,
            initial_eta,
            min_samples: 200,
        }
    }

    /// Records the ground-truth outcome of one unit with hint `h`.
    pub fn observe(&mut self, hint: u8, was_correct: bool) {
        let h = (hint as usize).min(self.correct.len() - 1);
        if was_correct {
            self.correct[h] += 1;
        } else {
            self.wrong[h] += 1;
        }
    }

    /// Total observations so far.
    pub fn samples(&self) -> u64 {
        self.correct.iter().sum::<u64>() + self.wrong.iter().sum::<u64>()
    }

    /// The current threshold: the largest `η` such that the estimated
    /// miss rate `P(wrong | hint ≤ η)` stays below target. Falls back to
    /// the initial threshold before [`Self::samples`] reaches the
    /// minimum.
    pub fn eta(&self) -> u8 {
        if self.samples() < self.min_samples {
            return self.initial_eta;
        }
        let mut cum_correct = 0u64;
        let mut cum_wrong = 0u64;
        let mut best = 0u8;
        for h in 0..self.correct.len() {
            cum_correct += self.correct[h];
            cum_wrong += self.wrong[h];
            let total = cum_correct + cum_wrong;
            if total == 0 {
                continue;
            }
            let miss = cum_wrong as f64 / total as f64;
            if miss <= self.target_miss_rate {
                best = h as u8;
            }
        }
        best
    }

    /// Estimated miss rate at a given threshold (diagnostics).
    pub fn miss_rate_at(&self, eta: u8) -> f64 {
        let upto = (eta as usize).min(self.correct.len() - 1);
        let c: u64 = self.correct[..=upto].iter().sum();
        let w: u64 = self.wrong[..=upto].iter().sum();
        if c + w == 0 {
            0.0
        } else {
            w as f64 / (c + w) as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_with_initial_eta() {
        let t = AdaptiveThreshold::new(32, 6, 0.02);
        assert_eq!(t.eta(), 6);
        assert_eq!(t.samples(), 0);
    }

    #[test]
    fn learns_clean_separation() {
        // Hints ≤ 4 always correct, hints ≥ 8 always wrong: the learned
        // threshold must land in [4, 8).
        let mut t = AdaptiveThreshold::new(32, 6, 0.02);
        for _ in 0..300 {
            for h in 0..=4u8 {
                t.observe(h, true);
            }
            for h in 8..=20u8 {
                t.observe(h, false);
            }
        }
        let eta = t.eta();
        assert!((4..8).contains(&eta), "eta {eta}");
    }

    #[test]
    fn tightens_when_low_hints_lie() {
        // Even hint-0 units are wrong 20 % of the time (a hostile PHY):
        // the cumulative miss rate exceeds target everywhere, so the
        // threshold collapses to 0 — the contract-respecting answer.
        let mut t = AdaptiveThreshold::new(32, 6, 0.02);
        for i in 0..1000 {
            t.observe(0, i % 5 != 0);
        }
        assert_eq!(t.eta(), 0);
        assert!(t.miss_rate_at(0) > 0.15);
    }

    #[test]
    fn out_of_range_hint_clamps() {
        let mut t = AdaptiveThreshold::new(8, 3, 0.1);
        t.observe(200, false); // clamps to bucket 8 without panicking
        assert_eq!(t.samples(), 1);
    }

    #[test]
    fn miss_rate_is_monotone_in_eta_for_monotone_hints() {
        let mut t = AdaptiveThreshold::new(16, 6, 0.02);
        // Correctness degrades smoothly with hint value.
        for h in 0..=16u8 {
            let wrong_per_100 = (h as u64) * 5;
            for i in 0..100u64 {
                t.observe(h, i >= wrong_per_100);
            }
        }
        let mut prev = 0.0;
        for eta in 0..=16u8 {
            let m = t.miss_rate_at(eta);
            assert!(m >= prev - 1e-12, "miss rate dipped at {eta}");
            prev = m;
        }
    }
}
