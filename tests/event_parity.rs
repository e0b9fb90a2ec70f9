//! Event-core properties that no whole-run parity test covers:
//!
//! 1. **The reception driver's work count** — `dispatched` counts one
//!    event per transmission and one per audible reception.
//! 2. **Spatial-index soundness** — the uniform grid's candidate set is
//!    a superset of every link the propagation model can still close at
//!    the noise floor.
//!
//! The testbed reception driver is held to the sequential `&[bool]`
//! spec in `tests/packed_parity.rs` and `tests/differential.rs`.

use ppr::channel::pathloss::PathLossModel;
use ppr::mac::schemes::DeliveryScheme;
use ppr::sim::geometry::{Point, Testbed};
use ppr::sim::network::{
    generate_timeline, office_model, RadioEnv, ReceptionDriver, RxArm, SimConfig, BATCH_PER_WORKER,
};
use ppr::sim::spatial::SpatialIndex;
use proptest::prelude::*;

fn arm() -> RxArm {
    RxArm {
        scheme: DeliveryScheme::Ppr { eta: 6 },
        postamble: true,
        collect_symbols: false,
    }
}

/// A short, dense trace.
fn short_cfg() -> SimConfig {
    SimConfig {
        load_kbps: 42.4,
        body_bytes: 250,
        carrier_sense: false,
        duration_s: 0.1,
        seed: 60,
    }
}

#[test]
fn dispatched_counts_each_transmission_and_its_receptions() {
    let c = short_cfg();
    let env = RadioEnv::new(c.seed);
    let timeline = generate_timeline(&env, &c);
    let arm = arm();
    let receivers = 0..env.testbed.receivers.len();
    let audible = |s| receivers.clone().filter(|&r| env.is_link(s, r)).count() as u64;
    let want: u64 = timeline.iter().map(|tx| 1 + audible(tx.sender)).sum();
    let mut driver = ReceptionDriver::new(&env, &c, &timeline, &arm, None, BATCH_PER_WORKER);
    driver.run_events(u64::MAX);
    assert_eq!(driver.dispatched(), want);
}

proptest! {
    /// Grid soundness: every pair the model can still close at the
    /// noise floor (mean rx power ≥ noise) is inside the 3×3 candidate
    /// neighborhood of both endpoints.
    #[test]
    fn spatial_candidates_cover_every_closable_link(
        seed in 0u64..1000,
        nodes in 2usize..80,
        density in 4.0f64..20.0,
    ) {
        let model = PathLossModel { shadow_sigma_db: 0.0, ..office_model() };
        let comm = model.range_at_snr_m(2.5);
        let tb = Testbed::mesh(seed, nodes, density, comm);
        let pts: &[Point] = &tb.senders;
        let index = SpatialIndex::build(pts, model.interference_radius_m());
        let noise = model.noise_mw();

        let mut cands: Vec<u32> = Vec::new();
        for (r, p) in pts.iter().enumerate() {
            cands.clear();
            index.candidates_into(p, &mut cands);
            // Deterministic: a second scan yields the same sequence.
            prop_assert_eq!(&cands, &index.candidates(p));
            for (s, q) in pts.iter().enumerate() {
                if s == r {
                    continue;
                }
                if model.rx_power_mw(p.distance(q), 0.0) >= noise {
                    prop_assert!(
                        cands.contains(&(s as u32)),
                        "node {} closes a link to {} but is not a candidate", s, r
                    );
                }
            }
        }
    }
}
