//! Property tests for PP-ARQ under adversity: the retry budget is a
//! hard bound, the backoff ladder is pure integer arithmetic (identical
//! on every driver), and a fully-jammed link degrades to a clean
//! `Partial`/`Failed` outcome instead of looping.

use ppr::core::arq::{run_session, PpArqConfig};
use ppr::mac::{BackoffPolicy, DeliveryOutcome};
use ppr::sim::experiments::jam::{run_duty_point, JammedLinkChannel, JAM_PERIOD};
use proptest::prelude::*;

proptest! {
    /// No session — chunked or whole-frame, at any duty cycle — ever
    /// consumes more rounds than the policy allows.
    #[test]
    fn rounds_never_exceed_the_retry_bound(
        duty_tenths in 0u32..11,
        retries in 1u8..6,
        seed in 0u64..500,
    ) {
        let duty = duty_tenths as f64 / 10.0;
        let policy = BackoffPolicy {
            max_retries: retries,
            base_delay: 2 * JAM_PERIOD,
            multiplier_milli: 1500,
            jitter_span: 0,
        };
        let (pp, wf) = run_duty_point(duty, 3, seed, policy);
        prop_assert!(pp.rounds <= 3 * retries as usize, "{pp:?}");
        prop_assert!(wf.rounds <= 3 * retries as usize, "{wf:?}");
        prop_assert_eq!(pp.sessions, 3);
        prop_assert_eq!(pp.completed + pp.partial + pp.failed, 3);
        prop_assert_eq!(wf.completed + wf.partial + wf.failed, 3);
    }

    /// The backoff ladder is a pure function of (policy, round): no
    /// call order, repetition, or interleaving changes a delay, and a
    /// ≥×1.0 multiplier never shrinks it.
    #[test]
    fn backoff_schedule_is_pure_and_monotone(
        base in 1u64..1_000_000,
        multiplier_milli in 1000u64..4000,
        rounds in 1u8..12,
    ) {
        let p = BackoffPolicy {
            max_retries: rounds,
            base_delay: base,
            multiplier_milli,
            jitter_span: 0,
        };
        // Forward, backward, and repeated evaluation all agree.
        let forward: Vec<u64> = (0..rounds).map(|r| p.delay(r)).collect();
        let backward: Vec<u64> = (0..rounds).rev().map(|r| p.delay(r)).collect();
        prop_assert_eq!(
            &forward,
            &backward.into_iter().rev().collect::<Vec<_>>()
        );
        for w in forward.windows(2) {
            prop_assert!(w[1] >= w[0], "ladder shrank: {forward:?}");
        }
        prop_assert_eq!(forward[0], base);
        // Jitter is stateless: same identity, same delay, bounded span.
        let q = BackoffPolicy { jitter_span: 64, ..p };
        for r in 0..rounds {
            let a = q.delay_with_jitter(r, 0xC0FFEE);
            prop_assert_eq!(a, q.delay_with_jitter(r, 0xC0FFEE));
            prop_assert!(a >= q.delay(r) && a < q.delay(r) + 64);
        }
    }

    /// A link jammed wall to wall delivers nothing useful — and the
    /// session must end in a clean degraded outcome, never `Complete`,
    /// with the budget fully consumed and honored.
    #[test]
    fn fully_jammed_link_degrades_cleanly(
        retries in 1u8..5,
        seed in 0u64..200,
    ) {
        let policy = BackoffPolicy {
            max_retries: retries,
            base_delay: JAM_PERIOD,
            multiplier_milli: 2000,
            jitter_span: 0,
        };
        let mut channel = JammedLinkChannel::new(1.0, policy, seed);
        channel.start_session();
        let payload: Vec<u8> = (0..250u32).map(|i| (i ^ seed as u32) as u8).collect();
        let config = PpArqConfig {
            max_rounds: retries as usize,
            ..PpArqConfig::default()
        };
        let s = run_session(&payload, config, &mut channel);
        prop_assert!(!s.completed, "a wall-to-wall jam cannot complete");
        prop_assert!(s.rounds <= retries as usize);
        let delivered = s
            .final_payload
            .iter()
            .zip(&payload)
            .filter(|(a, b)| a == b)
            .count();
        let outcome =
            DeliveryOutcome::classify(false, s.rounds as u8, delivered, payload.len());
        prop_assert!(outcome.exhausted());
        prop_assert!(matches!(
            outcome,
            DeliveryOutcome::Partial { .. } | DeliveryOutcome::Failed { .. }
        ));
        prop_assert!(outcome.delivered_fraction() < 1.0);
    }
}
