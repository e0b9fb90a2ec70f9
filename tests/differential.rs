//! The differential harness: one frozen checkpoint, resumed under the
//! reception driver, must complete to the `Reception` stream the bool
//! spec produces from scratch — and when the streams *do* diverge, the
//! harness must localize the first diverging reception exactly.
//!
//! The second half is the regression test for the bisect story: the
//! spec never reads the snapshot, so a snapshot that carries wrong
//! progress — a tampered decoded slot, a moved busy horizon — must
//! surface as a divergence at precisely the tampered reception, not
//! anywhere downstream.

use ppr::mac::schemes::DeliveryScheme;
use ppr::sim::diff::cross_validate;
use ppr::sim::network::{
    generate_timeline, snapshot_after_events, RadioEnv, RxArm, RxOutput, SimConfig, Transmission,
};
use ppr::sim::rxpath::Acquisition;
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

/// A checkpoint part-way through the timeline: some slots decoded,
/// some not.
fn snapshot_mid_run(env: &RadioEnv, c: &SimConfig, timeline: &[Transmission]) -> RxSnapshot {
    let bytes = snapshot_after_events(env, c, timeline, &arm(), 200);
    let snap = RxSnapshot::from_bytes(&bytes).expect("snapshot parses");
    let RxOutput::Stream(out) = &snap.output else {
        panic!("a one-arm driver keeps a stream");
    };
    assert!(out.iter().any(Option::is_some) && out.iter().any(Option::is_none));
    snap
}

#[test]
fn resumed_checkpoint_matches_the_spec_from_scratch() {
    let c = cfg(7);
    let env = RadioEnv::new(c.seed);
    let timeline = generate_timeline(&env, &c);
    let arm = arm();
    let snap = snapshot_mid_run(&env, &c, &timeline);

    let report = cross_validate(&env, &c, &timeline, &arm, &snap).expect("checkpoint restores");
    assert!(
        report.divergence.is_none(),
        "the resumed driver diverged from the spec: {}",
        report.divergence.as_ref().unwrap()
    );
    assert_eq!(
        report.event_fp, report.reference_fp,
        "fingerprints differ without a reported divergence"
    );
}

#[test]
fn jammed_mesh_checkpoint_agrees_across_the_fleet() {
    // The adversarial analogue of the reception test: one frozen
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
fn tampered_snapshot_bisects_to_the_exact_slot() {
    let c = cfg(7);
    let env = RadioEnv::new(c.seed);
    let timeline = generate_timeline(&env, &c);
    let arm = arm();
    let snap = snapshot_mid_run(&env, &c, &timeline);
    let verdict = |tampered: &RxSnapshot| {
        cross_validate(&env, &c, &timeline, &arm, tampered)
            .expect("tampered progress stays restorable")
            .divergence
    };

    // A decoded slot's field: reported at exactly that slot and field.
    let RxOutput::Stream(out) = &snap.output else {
        panic!("a one-arm driver keeps a stream");
    };
    let decoded: Vec<usize> = (0..out.len()).filter(|&i| out[i].is_some()).collect();
    let picks = [0, decoded.len() / 2, decoded.len() - 1];
    let fields = ["acquisition", "delivered_correct", "crc_ok"];
    for (&pick, field) in picks.iter().zip(fields) {
        let slot = decoded[pick];
        let mut tampered = snap.clone();
        let RxOutput::Stream(out) = &mut tampered.output else {
            unreachable!()
        };
        let rec = out[slot].as_mut().unwrap();
        match field {
            "acquisition" => {
                rec.acquisition = match rec.acquisition {
                    Acquisition::None => Acquisition::Preamble,
                    _ => Acquisition::None,
                }
            }
            "delivered_correct" => rec.delivered_correct ^= 1,
            _ => rec.crc_ok = !rec.crc_ok,
        }
        let d = verdict(&tampered).expect("a tampered decoded slot must diverge");
        assert_eq!((d.index, d.field), (slot, field), "{d}");
    }

    // A busy horizon pushed to the end of time: every later preamble
    // at that receiver is missed, and the first divergence is one of
    // its receptions.
    let mut moved = 0;
    for r in 0..snap.busy_until.len() {
        let mut tampered = snap.clone();
        tampered.busy_until[r] = u64::MAX;
        if let Some(d) = verdict(&tampered) {
            moved += 1;
            assert_eq!(d.receiver, r, "divergence at another receiver: {d}");
        }
    }
    assert!(moved > 0, "no moved busy horizon changed an outcome");
}
