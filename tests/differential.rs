//! The differential fleet: one frozen checkpoint, restored under every
//! reception backend, must complete to the same `Reception` stream —
//! and when a stream *does* diverge, the harness must localize the
//! first diverging event exactly.
//!
//! The second half is the regression test for the bisect story: a
//! deliberate perturbation of one restored RNG stream (one in-flight
//! reception's serialized xoshiro state) must surface as a divergence
//! at precisely that reception's stream slot, transmission and
//! receiver — not anywhere downstream.

use ppr::mac::schemes::DeliveryScheme;
use ppr::sim::diff::{
    cross_validate, first_divergence, resume_receptions, standard_backends, DiffBackend,
};
use ppr::sim::network::{generate_timeline, snapshot_after_events, RadioEnv, RxArm, SimConfig};
use ppr::sim::snapshot::{MeshSnapshot, RxSnapshot};

fn cfg(seed: u64) -> SimConfig {
    SimConfig {
        load_kbps: 42.4,
        body_bytes: 1500,
        carrier_sense: false,
        duration_s: 2.0,
        seed,
    }
}

fn arm() -> RxArm {
    RxArm {
        scheme: DeliveryScheme::Ppr { eta: 6 },
        postamble: true,
        collect_symbols: false,
    }
}

/// A checkpoint whose in-flight set is non-empty (so the restore has
/// prepared-but-undecided receptions to replay), found by scanning
/// epochs.
fn snapshot_with_in_flight(
    env: &RadioEnv,
    c: &SimConfig,
    timeline: &[ppr::sim::network::Transmission],
    arm: &RxArm,
) -> RxSnapshot {
    for events in [200u64, 400, 800, 100, 50, 1600] {
        let bytes = snapshot_after_events(env, c, timeline, arm, events);
        let snap = RxSnapshot::from_bytes(&bytes).expect("snapshot parses");
        if !snap.in_flight.is_empty() {
            return snap;
        }
    }
    panic!("no epoch with in-flight receptions — timeline too sparse for this test");
}

#[test]
fn every_backend_completes_the_same_checkpoint_identically() {
    let c = cfg(7);
    let env = RadioEnv::new(c.seed);
    let timeline = generate_timeline(&env, &c);
    let arm = arm();
    let snap = snapshot_with_in_flight(&env, &c, &timeline, &arm);

    let reports = cross_validate(&env, &c, &timeline, &arm, &snap, &standard_backends())
        .expect("checkpoint restores under every backend");
    assert_eq!(reports.len(), standard_backends().len());
    let baseline_fp = reports[0].stream_fp;
    for report in &reports {
        assert!(
            report.divergence.is_none(),
            "{} diverged: {}",
            report.label,
            report.divergence.as_ref().unwrap()
        );
        assert_eq!(
            report.stream_fp, baseline_fp,
            "{} fingerprint differs without a reported divergence",
            report.label
        );
    }
}

#[test]
fn jammed_mesh_checkpoint_agrees_across_the_fleet() {
    // The adversarial analogue of the reception fleet test: one frozen
    // jammed-mesh checkpoint (reactive jammer + churn + exponential
    // backoff), serialized and parsed back, must complete to the same
    // stats as the uninterrupted run.
    use ppr::sim::adversary::JammerSpec;
    use ppr::sim::experiments::mesh::{run_mesh, MeshDriver, MeshParams};
    let mut params = MeshParams::benign(300, 12.0, 7, 6, 250);
    params.jammer = JammerSpec::React { delay: 4096 };
    params.churn = 2.0;
    params.arq_backoff_milli = 1500;
    let reference = run_mesh(&params, None);
    assert!(reference.jam_bursts > 0, "jammer never fired");

    let mut d = MeshDriver::new(&params, None);
    d.run_events(57);
    let bytes = d.save().to_bytes();
    let snap = MeshSnapshot::from_bytes(&bytes).expect("jammed checkpoint parses");
    let resumed = MeshDriver::restore(&params, &snap)
        .expect("jammed checkpoint restores")
        .run_to_end();
    assert_eq!(resumed, reference, "resume diverged");
}

#[test]
fn perturbed_rng_stream_bisects_to_the_exact_event() {
    let c = cfg(7);
    let env = RadioEnv::new(c.seed);
    let timeline = generate_timeline(&env, &c);
    let arm = arm();
    let snap = snapshot_with_in_flight(&env, &c, &timeline, &arm);
    let backend = DiffBackend::Event;
    let baseline = resume_receptions(&env, &c, &timeline, &arm, &snap, backend).unwrap();

    // Perturb each in-flight capture's serialized RNG stream in turn.
    // At least one must change its reception's outcome (interference at
    // this load corrupts chips on most links); every one that does must
    // localize to exactly its own stream slot — never downstream.
    let mut bisected = 0;
    for k in 0..snap.in_flight.len() {
        let mut tampered = snap.clone();
        tampered.in_flight[k].rng[0] ^= 1;
        let candidate = resume_receptions(&env, &c, &timeline, &arm, &tampered, backend).unwrap();
        let Some(d) = first_divergence(&timeline, &baseline, &candidate) else {
            // This reception decoded identically despite the new error
            // pattern (e.g. a clean link) — no divergence to localize.
            continue;
        };
        bisected += 1;
        let f = &tampered.in_flight[k];
        assert_eq!(d.index, f.slot, "divergence not at the perturbed slot");
        assert_eq!(d.receiver, f.receiver);
        assert_eq!(d.tx_id, timeline[f.tx_index].id);
        assert_eq!(d.end_chip, timeline[f.tx_index].end_chip());
    }
    assert!(
        bisected > 0,
        "no perturbation changed any outcome — checkpoint has no corruptible in-flight state"
    );
}

#[test]
fn reference_backend_sees_the_perturbation_too() {
    // The bisect verdict must not depend on which backend replays the
    // tampered snapshot: the bool spec derives the reception's chip
    // errors from the same serialized stream state as the event driver.
    let c = cfg(11);
    let env = RadioEnv::new(c.seed);
    let timeline = generate_timeline(&env, &c);
    let arm = arm();
    let snap = snapshot_with_in_flight(&env, &c, &timeline, &arm);

    let mut tampered = snap.clone();
    for f in &mut tampered.in_flight {
        f.rng[0] ^= 1; // perturb them all: maximize the chance of a flip
    }
    let verdict = |b: DiffBackend| {
        let baseline = resume_receptions(&env, &c, &timeline, &arm, &snap, b).unwrap();
        let candidate = resume_receptions(&env, &c, &timeline, &arm, &tampered, b).unwrap();
        first_divergence(&timeline, &baseline, &candidate).map(|d| d.index)
    };
    assert_eq!(
        verdict(DiffBackend::Reference),
        verdict(DiffBackend::Event),
        "the spec and the event driver disagree on the first divergence"
    );
}
