//! Event-core parity: the discrete-event drivers must be bit-identical
//! to the pinned time-stepped references, at every batch length.
//!
//! Three layers of the claim:
//!
//! 1. **Timeline** — [`generate_timeline`] (event queue) vs
//!    [`generate_timeline_reference`] (the original per-sender merge).
//! 2. **Reception loop** — [`ReceptionDriver`] (event queue + batched
//!    prepare/decode) vs [`process_receptions_timestep`] (the original
//!    time-stepped loop), across batch lengths: the [`Reception`] stream
//!    must not depend on them.
//! 3. **Experiments** — every registry entry renders the same report
//!    under `driver=event` and `driver=timestep`.
//!
//! Plus the spatial-index soundness property: the uniform grid's
//! candidate set is a superset of every link the propagation model can
//! still close at the noise floor.

use ppr::channel::pathloss::PathLossModel;
use ppr::mac::schemes::DeliveryScheme;
use ppr::sim::experiments::registry;
use ppr::sim::geometry::{Point, Testbed};
use ppr::sim::network::{
    generate_timeline, generate_timeline_reference, office_model, process_receptions_timestep,
    RadioEnv, ReceptionDriver, RxArm, SimConfig,
};
use ppr::sim::scenario::{Driver, ScenarioBuilder};
use ppr::sim::spatial::SpatialIndex;
use proptest::prelude::*;

fn cfg(load_kbps: f64, seed: u64) -> SimConfig {
    SimConfig {
        load_kbps,
        body_bytes: 1500,
        carrier_sense: false,
        duration_s: 2.0,
        seed,
    }
}

#[test]
fn timeline_event_core_matches_reference() {
    for (load, cs, seed) in [(13.8, false, 1u64), (42.4, false, 2), (87.5, true, 3)] {
        let mut c = cfg(load, seed);
        c.carrier_sense = cs;
        let env = RadioEnv::new(c.seed);
        let a = generate_timeline(&env, &c);
        let b = generate_timeline_reference(&env, &c);
        assert_eq!(
            a, b,
            "timeline diverged at load {load}, cs {cs}, seed {seed}"
        );
    }
}

#[test]
fn event_driver_matches_timestep_at_every_batch_length() {
    let c = cfg(42.4, 7);
    let env = RadioEnv::new(c.seed);
    let timeline = generate_timeline(&env, &c);
    assert!(!timeline.is_empty());
    let arm = RxArm {
        scheme: DeliveryScheme::Ppr { eta: 6 },
        postamble: true,
        collect_symbols: false,
    };

    let reference = process_receptions_timestep(&env, &c, &timeline, &arm);
    assert!(!reference.is_empty());
    for batch in [1usize, 4, 8, 32] {
        let got = ReceptionDriver::new(&env, &c, &timeline, &arm, None, batch).run_to_end();
        assert_eq!(got, reference, "event driver diverged at batch={batch}");
    }
}

#[test]
fn mesh_resume_inside_a_flush_window_is_bit_identical() {
    // A mesh checkpoint may land *inside* the SAFE_WINDOW decode flush:
    // completed receptions are pending, their batch not yet decoded.
    // The snapshot serializes the pending batch verbatim (no forced
    // early flush), so the resumed run must reproduce the uninterrupted
    // stats exactly — including the flush-batch counters the report
    // prints.
    use ppr::sim::experiments::mesh::{run_mesh, MeshDriver, MeshParams};
    let params = MeshParams::benign(300, 12.0, 2, 6, 250);
    let reference = run_mesh(&params, None);

    let mut driver = MeshDriver::new(&params, None);
    let mut epochs_inside_flush = Vec::new();
    loop {
        let before = driver.dispatched();
        driver.run_events(before + 1);
        if driver.dispatched() == before {
            break; // drained
        }
        if !driver.save().pending.is_empty() {
            epochs_inside_flush.push(driver.dispatched());
        }
        if epochs_inside_flush.len() >= 24 {
            break;
        }
    }
    assert!(
        !epochs_inside_flush.is_empty(),
        "no epoch with a non-empty pending batch — SAFE_WINDOW flush never observed"
    );
    // Resume from an early, a middle and the last captured mid-flush
    // epoch.
    let picks = [
        epochs_inside_flush[0],
        epochs_inside_flush[epochs_inside_flush.len() / 2],
        *epochs_inside_flush.last().unwrap(),
    ];
    for &events in &picks {
        let mut d = MeshDriver::new(&params, None);
        d.run_events(events);
        let snap = d.save();
        assert!(!snap.pending.is_empty(), "picked epoch lost its batch");
        let resumed = MeshDriver::restore(&params, &snap)
            .expect("mid-flush snapshot restores")
            .run_to_end();
        assert_eq!(resumed, reference, "mid-flush resume diverged at {events}");
    }
}

#[test]
fn every_experiment_is_driver_invariant() {
    // Short but complete pass over all 15 experiments under both
    // drivers. `mesh10k` has no time-stepped path (it exists only on
    // the event core) but runs under both scenario values all the same
    // — the driver axis must not leak into it.
    let build = |driver: Driver| {
        ScenarioBuilder::new()
            .duration_s(1.0)
            .seed(0xD21)
            .threads(1)
            .arq_packets(10)
            .relay_packets(15)
            .mesh_nodes(300)
            .driver(driver)
            .build()
    };
    let (sc_event, sc_timestep) = (build(Driver::Event), build(Driver::Timestep));

    let mut prior_e = Vec::new();
    let mut prior_t = Vec::new();
    for exp in registry() {
        let re = exp.run_with(&sc_event, &prior_e);
        let rt = exp.run_with(&sc_timestep, &prior_t);
        assert_eq!(
            re.render_text(),
            rt.render_text(),
            "driver changed the report of {}",
            exp.id()
        );
        prior_e.push(re);
        prior_t.push(rt);
    }
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
