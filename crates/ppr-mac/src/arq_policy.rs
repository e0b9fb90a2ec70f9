//! Bounded-retry ARQ policy: deterministic exponential backoff with
//! jitter, and graceful-degradation outcome reporting.
//!
//! PP-ARQ's chunk planner decides *what* to retransmit; this module
//! decides *when to stop asking* and *how long to wait* between
//! attempts. Everything here is pure integer arithmetic over sim-time
//! chip counts — no RNG objects, no wall clock — so a retry schedule
//! computed by any worker, driver or backend is bit-identical:
//!
//! * [`BackoffPolicy`] — a bounded retry budget plus an exponential
//!   delay ladder. The multiplier is a milli-fixed-point integer
//!   (`1500` = ×1.5) so the ladder never touches floats; `1000` is an
//!   exact identity, which is how the mesh driver preserves its
//!   pre-adversary timing when the `arq_backoff` axis is unset.
//! * [`BackoffPolicy::delay_with_jitter`] — adds a SplitMix64-hashed
//!   jitter drawn from the caller's identity words, the same stateless
//!   construction the mesh driver uses for rebroadcast staggering.
//! * [`DeliveryOutcome`] — what a transfer degraded to when the budget
//!   ran out: complete, partial (with the delivered fraction), or
//!   failed. A fully-jammed link must land here cleanly instead of
//!   looping.

/// SplitMix64 finalizer: a stateless avalanche hash used for
/// deterministic jitter. Identical constants to `ppr_sim`'s
/// `jitter_hash`, duplicated here so the MAC layer stays free of sim
/// dependencies.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// A bounded-retry exponential-backoff schedule in sim-time units
/// (chips, for the mesh driver; abstract ticks elsewhere).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BackoffPolicy {
    /// Maximum retry rounds before the transfer gives up.
    pub max_retries: u8,
    /// Delay before the first retry (round 0).
    pub base_delay: u64,
    /// Per-round delay multiplier in milli-units: `1000` = ×1.0
    /// (constant backoff, exact), `2000` = doubling.
    pub multiplier_milli: u64,
    /// Jitter window added on top of the deterministic delay;
    /// `0` disables jitter entirely.
    pub jitter_span: u64,
}

impl BackoffPolicy {
    /// May round `round` (0-based) still be attempted under the budget?
    pub fn allows(&self, round: u8) -> bool {
        round < self.max_retries
    }

    /// The deterministic (jitter-free) delay before retry `round`.
    ///
    /// Computed by integer repeated multiplication so every caller —
    /// any worker count, any driver — lands on the same chip count:
    /// `base · (multiplier_milli/1000)^round`, floor-divided each step.
    pub fn delay(&self, round: u8) -> u64 {
        let mut d = self.base_delay;
        for _ in 0..round {
            d = d.saturating_mul(self.multiplier_milli) / 1000;
        }
        d
    }

    /// [`Self::delay`] plus a stateless jitter in `[0, jitter_span)`
    /// hashed from `identity` (caller-chosen: node id, seed, round —
    /// anything stable across replays). No RNG object is consumed, so
    /// the schedule cannot depend on evaluation order.
    pub fn delay_with_jitter(&self, round: u8, identity: u64) -> u64 {
        let jitter = if self.jitter_span == 0 {
            0
        } else {
            splitmix64(identity ^ ((round as u64) << 56)) % self.jitter_span
        };
        self.delay(round) + jitter
    }
}

/// How a bounded-retry transfer ended: the graceful-degradation report
/// the adversarial experiments aggregate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeliveryOutcome {
    /// Every byte verified within the retry budget.
    Complete {
        /// Retry rounds consumed (0 = clean first transmission).
        rounds: u8,
    },
    /// Budget exhausted with some — but not all — bytes verified.
    Partial {
        /// Retry rounds consumed (the full budget).
        rounds: u8,
        /// Bytes verified when the budget ran out.
        delivered_bytes: usize,
        /// Total payload bytes.
        total_bytes: usize,
    },
    /// Budget exhausted with nothing verified.
    Failed {
        /// Retry rounds consumed (the full budget).
        rounds: u8,
    },
}

impl DeliveryOutcome {
    /// Classifies a finished transfer. `delivered_bytes` counts
    /// verified bytes only; a completed transfer always reports
    /// `Complete` regardless of the byte count handed in.
    pub fn classify(
        completed: bool,
        rounds: u8,
        delivered_bytes: usize,
        total_bytes: usize,
    ) -> Self {
        if completed {
            DeliveryOutcome::Complete { rounds }
        } else if delivered_bytes == 0 {
            DeliveryOutcome::Failed { rounds }
        } else {
            DeliveryOutcome::Partial {
                rounds,
                delivered_bytes: delivered_bytes.min(total_bytes),
                total_bytes,
            }
        }
    }

    /// Fraction of payload bytes delivered: 1.0 for `Complete`, 0.0
    /// for `Failed`, the verified fraction for `Partial`.
    pub fn delivered_fraction(&self) -> f64 {
        match *self {
            DeliveryOutcome::Complete { .. } => 1.0,
            DeliveryOutcome::Failed { .. } => 0.0,
            DeliveryOutcome::Partial {
                delivered_bytes,
                total_bytes,
                ..
            } => {
                if total_bytes == 0 {
                    0.0
                } else {
                    delivered_bytes as f64 / total_bytes as f64
                }
            }
        }
    }

    /// Retry rounds consumed.
    pub fn rounds(&self) -> u8 {
        match *self {
            DeliveryOutcome::Complete { rounds }
            | DeliveryOutcome::Partial { rounds, .. }
            | DeliveryOutcome::Failed { rounds } => rounds,
        }
    }

    /// Did the budget run out before completion?
    pub fn exhausted(&self) -> bool {
        !matches!(self, DeliveryOutcome::Complete { .. })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A constant-delay policy: multiplier ×1.0, no jitter.
    fn constant(max_retries: u8, base_delay: u64) -> BackoffPolicy {
        BackoffPolicy {
            max_retries,
            base_delay,
            multiplier_milli: 1000,
            jitter_span: 0,
        }
    }

    #[test]
    fn identity_multiplier_is_exact_at_every_round() {
        let p = constant(8, 65_536);
        for r in 0..8 {
            assert_eq!(p.delay(r), 65_536, "round {r}");
        }
    }

    #[test]
    fn doubling_multiplier_doubles() {
        let p = BackoffPolicy {
            max_retries: 5,
            base_delay: 1_000,
            multiplier_milli: 2000,
            jitter_span: 0,
        };
        assert_eq!(p.delay(0), 1_000);
        assert_eq!(p.delay(1), 2_000);
        assert_eq!(p.delay(2), 4_000);
        assert_eq!(p.delay(4), 16_000);
    }

    #[test]
    fn fractional_multiplier_floors_per_step() {
        let p = BackoffPolicy {
            max_retries: 4,
            base_delay: 1_001,
            multiplier_milli: 1500,
            jitter_span: 0,
        };
        // 1001 -> 1001*1500/1000 = 1501 -> 1501*1500/1000 = 2251 (floor).
        assert_eq!(p.delay(1), 1_501);
        assert_eq!(p.delay(2), 2_251);
    }

    #[test]
    fn delay_saturates_instead_of_overflowing() {
        let p = BackoffPolicy {
            max_retries: u8::MAX,
            base_delay: u64::MAX / 2,
            multiplier_milli: 4000,
            jitter_span: 0,
        };
        // Must not panic; saturating ladder stays at a huge value.
        assert!(p.delay(200) > 0);
    }

    #[test]
    fn jitter_is_stateless_bounded_and_identity_sensitive() {
        let p = BackoffPolicy {
            max_retries: 3,
            base_delay: 100,
            multiplier_milli: 1000,
            jitter_span: 64,
        };
        let a = p.delay_with_jitter(1, 0xAB);
        let b = p.delay_with_jitter(1, 0xAB);
        assert_eq!(a, b, "same identity, same delay");
        assert!((100..164).contains(&a));
        // Different identities or rounds should (generically) differ.
        let c = p.delay_with_jitter(1, 0xAC);
        let d = p.delay_with_jitter(2, 0xAB);
        assert!(a != c || a != d, "jitter must depend on its inputs");
        // jitter_span == 0 is exactly the deterministic ladder.
        let q = BackoffPolicy {
            jitter_span: 0,
            ..p
        };
        assert_eq!(q.delay_with_jitter(1, 0xAB), q.delay(1));
    }

    #[test]
    fn allows_enforces_the_bound() {
        let p = constant(3, 10);
        assert!(p.allows(0) && p.allows(2));
        assert!(!p.allows(3) && !p.allows(200));
    }

    #[test]
    fn classify_covers_all_three_outcomes() {
        let c = DeliveryOutcome::classify(true, 2, 500, 500);
        assert_eq!(c, DeliveryOutcome::Complete { rounds: 2 });
        assert_eq!(c.delivered_fraction(), 1.0);
        assert!(!c.exhausted());

        let p = DeliveryOutcome::classify(false, 4, 250, 1000);
        assert_eq!(
            p,
            DeliveryOutcome::Partial {
                rounds: 4,
                delivered_bytes: 250,
                total_bytes: 1000
            }
        );
        assert_eq!(p.delivered_fraction(), 0.25);
        assert!(p.exhausted());
        assert_eq!(p.rounds(), 4);

        let f = DeliveryOutcome::classify(false, 4, 0, 1000);
        assert_eq!(f, DeliveryOutcome::Failed { rounds: 4 });
        assert_eq!(f.delivered_fraction(), 0.0);
    }

    #[test]
    fn classify_clamps_overdelivery_and_handles_empty() {
        let p = DeliveryOutcome::classify(false, 1, 700, 500);
        assert_eq!(p.delivered_fraction(), 1.0);
        let z = DeliveryOutcome::classify(false, 1, 0, 0);
        assert_eq!(z, DeliveryOutcome::Failed { rounds: 1 });
        assert_eq!(z.delivered_fraction(), 0.0);
    }
}
