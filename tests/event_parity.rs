//! Event-core properties that no whole-run parity test covers:
//!
//! 1. **Mesh resume inside a decode flush** — a checkpoint taken while
//!    the mesh driver holds completed-but-undecoded receptions resumes
//!    bit-identically.
//! 2. **Spatial-index soundness** — the uniform grid's candidate set is
//!    a superset of every link the propagation model can still close at
//!    the noise floor.
//!
//! The testbed reception driver is held to the sequential `&[bool]`
//! spec in `tests/packed_parity.rs` and `tests/differential.rs`.

use ppr::channel::pathloss::PathLossModel;
use ppr::sim::geometry::{Point, Testbed};
use ppr::sim::network::office_model;
use ppr::sim::spatial::SpatialIndex;
use proptest::prelude::*;

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
