//! Snapshot/replay determinism: a run interrupted by a checkpoint —
//! serialized to the versioned binary format, deserialized, resumed —
//! must be bit-identical to the same run left alone.
//!
//! Three layers:
//!
//! 1. **Reception streams** — `process_receptions_checkpointed` vs the
//!    uninterrupted event driver, property-tested across checkpoint
//!    epochs and seeds.
//! 2. **Experiments** — every registry entry renders the same report
//!    with `checkpoint` set (under both drivers; the timestep driver
//!    resumes an event-core snapshot, so this also pins cross-driver
//!    resume).
//! 3. **The format itself** — a canonical snapshot's bytes are pinned
//!    by fingerprint: any layout change must be deliberate and must
//!    come with a `SNAPSHOT_VERSION` bump.

use ppr::mac::schemes::DeliveryScheme;
use ppr::sim::experiments::registry;
use ppr::sim::network::{
    generate_timeline, process_receptions, process_receptions_checkpointed, snapshot_after_events,
    RadioEnv, ReceptionDriver, RxArm, SimConfig, BATCH_PER_WORKER,
};
use ppr::sim::results::fingerprint;
use ppr::sim::scenario::{Driver, ScenarioBuilder};
use ppr::sim::snapshot::{MeshSnapshot, RxSnapshot, SnapError, SNAPSHOT_VERSION};
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

fn arm() -> RxArm {
    RxArm {
        scheme: DeliveryScheme::Ppr { eta: 6 },
        postamble: true,
        collect_symbols: false,
    }
}

#[test]
fn reception_checkpoint_is_bit_identical_at_every_epoch_class() {
    let c = cfg(42.4, 7);
    let env = RadioEnv::new(c.seed);
    let timeline = generate_timeline(&env, &c);
    let arm = arm();
    let reference = process_receptions(&env, &c, &timeline, &arm);
    assert!(!reference.is_empty());
    // Epoch 0 (nothing dispatched), mid-run, and beyond the final event.
    for events in [0u64, 1, 17, 500, 5_000, u64::MAX] {
        let got = process_receptions_checkpointed(&env, &c, &timeline, &arm, events);
        assert_eq!(got, reference, "diverged at checkpoint {events}");
    }
}

proptest! {
    /// Any (checkpoint epoch, seed) combination resumes bit-identically.
    /// Short duration: the vendored proptest runs a fixed 256 cases.
    #[test]
    fn checkpointed_reception_stream_matches_uninterrupted(
        events in 0u64..1_500,
        seed in 1u64..50,
    ) {
        let mut c = cfg(42.4, seed);
        c.duration_s = 0.3;
        let env = RadioEnv::new(c.seed);
        let timeline = generate_timeline(&env, &c);
        let arm = arm();
        let reference = ReceptionDriver::new(&env, &c, &timeline, &arm, None, 1).run_to_end();
        let got = process_receptions_checkpointed(&env, &c, &timeline, &arm, events);
        prop_assert_eq!(got, reference);
    }
}

#[test]
fn every_experiment_is_checkpoint_invariant() {
    // Short but complete pass over all registry experiments: the
    // rendered report must not change when the run snapshots and
    // resumes mid-flight, under either driver.
    let build = |driver: Driver, checkpoint: Option<u64>| {
        let mut b = ScenarioBuilder::new()
            .duration_s(1.0)
            .seed(0xD21)
            .threads(1)
            .arq_packets(10)
            .relay_packets(15)
            .mesh_nodes(300)
            .driver(driver);
        if let Some(cp) = checkpoint {
            b = b.checkpoint(cp);
        }
        b.build()
    };
    for driver in [Driver::Event, Driver::Timestep] {
        let plain = build(driver, None);
        let checked = build(driver, Some(120));
        let mut prior_p = Vec::new();
        let mut prior_c = Vec::new();
        for exp in registry() {
            let rp = exp.run_with(&plain, &prior_p);
            let rc = exp.run_with(&checked, &prior_c);
            assert_eq!(
                rp.render_text(),
                rc.render_text(),
                "checkpoint changed the report of {} under driver={driver:?}",
                exp.id()
            );
            prior_p.push(rp);
            prior_c.push(rc);
        }
    }
}

/// Fingerprint of the canonical reception snapshot's serialized bytes.
/// This pins the *format*: magic, version, field order, and every
/// encoder. If this assertion fires, the byte layout changed — bump
/// `SNAPSHOT_VERSION`, update this constant, and say so in the commit.
const RX_FORMAT_FINGERPRINT: u64 = 0x93d0_91a2_d58e_f27b;

#[test]
fn snapshot_byte_format_is_pinned() {
    // Version 2: adversarial state (jammer/churn/backoff identity,
    // jammer actor state, per-node liveness) joined the mesh snapshot.
    assert_eq!(SNAPSHOT_VERSION, 2);
    let c = cfg(42.4, 11);
    let env = RadioEnv::new(c.seed);
    let timeline = generate_timeline(&env, &c);
    // The canonical state is epoch 300 of a driver batching 16
    // receptions at a time: the batch length moves which work an epoch
    // has done, so it is part of what the constant pins.
    let arm = arm();
    let mut driver = ReceptionDriver::new(&env, &c, &timeline, &arm, None, 2 * BATCH_PER_WORKER);
    driver.run_events(300);
    let bytes = driver.save().to_bytes();
    let mut snap = RxSnapshot::from_bytes(&bytes).expect("canonical snapshot parses");
    // The kernel signature is provenance, not state: it names the host
    // CPU's dispatch choice, so pin the bytes with it normalized.
    snap.kernel_signature = b"pinned".to_vec();
    let fp = fingerprint(&snap.to_bytes());
    assert_eq!(
        fp, RX_FORMAT_FINGERPRINT,
        "snapshot byte format changed: fingerprint {fp:#018x} != pinned \
         {RX_FORMAT_FINGERPRINT:#018x}. If intentional, bump SNAPSHOT_VERSION, update \
         RX_FORMAT_FINGERPRINT, and explain the layout change in the commit."
    );
}

#[test]
fn mesh_resume_mid_jam_burst_is_bit_identical() {
    // Checkpoint epochs chosen so at least one lands while the jammer
    // has recorded bursts and scheduled more (reactive backlog) — the
    // restored adversary must carry its RNG stream, busy-until horizon
    // and burst log verbatim.
    use ppr::sim::adversary::JammerSpec;
    use ppr::sim::experiments::mesh::{run_mesh, MeshDriver, MeshParams};
    let mut params = MeshParams::benign(300, 12.0, 5, 6, 250);
    params.jammer = JammerSpec::React { delay: 4096 };
    params.churn = 2.0;
    params.arq_retries = 5;
    params.arq_backoff_milli = 1500;
    let reference = run_mesh(&params, None);

    let mut mid_burst = Vec::new();
    let mut driver = MeshDriver::new(&params, None);
    loop {
        let before = driver.dispatched();
        driver.run_events(before + 1);
        if driver.dispatched() == before {
            break;
        }
        let snap = driver.save();
        if !snap.adv_bursts.is_empty() && !snap.adv_scheduled.is_empty() {
            mid_burst.push(driver.dispatched());
        }
        if mid_burst.len() >= 16 {
            break;
        }
    }
    assert!(
        !mid_burst.is_empty(),
        "no epoch caught the reactive jammer mid-burst"
    );
    for &events in &[mid_burst[0], *mid_burst.last().unwrap()] {
        let mut d = MeshDriver::new(&params, None);
        d.run_events(events);
        let snap = d.save();
        let bytes = snap.to_bytes();
        let parsed = MeshSnapshot::from_bytes(&bytes).expect("mesh snapshot round-trips");
        let resumed = MeshDriver::restore(&params, &parsed)
            .expect("mid-burst snapshot restores")
            .run_to_end();
        assert_eq!(
            resumed, reference,
            "mid-jam-burst resume diverged at {events}"
        );
    }

    // A snapshot taken under one jammer must not restore under another.
    let mut d = MeshDriver::new(&params, None);
    d.run_events(50);
    let snap = d.save();
    let mut other = params;
    other.jammer = JammerSpec::Pulse {
        period: 8192,
        duty: 0.25,
    };
    assert!(matches!(
        MeshDriver::restore(&other, &snap),
        Err(SnapError::IdentityMismatch(_))
    ));
}

#[test]
fn snapshot_rejects_tampering_and_wrong_identity() {
    let c = cfg(42.4, 11);
    let env = RadioEnv::new(c.seed);
    let timeline = generate_timeline(&env, &c);
    let arm = arm();
    let bytes = snapshot_after_events(&env, &c, &timeline, &arm, 200);

    // Flipping any payload bit breaks the trailing fingerprint.
    let mut bad = bytes.clone();
    let mid = bad.len() / 2;
    bad[mid] ^= 1;
    assert!(matches!(
        RxSnapshot::from_bytes(&bad),
        Err(SnapError::BadFingerprint { .. })
    ));

    // A mesh snapshot's kind byte does not parse as a reception one.
    assert!(matches!(
        MeshSnapshot::from_bytes(&bytes),
        Err(SnapError::BadKind(_))
    ));

    // Restoring against a different run is an identity error, caught
    // before any state is rebuilt.
    let snap = RxSnapshot::from_bytes(&bytes).unwrap();
    let mut other = c;
    other.seed ^= 1;
    let other_env = RadioEnv::new(other.seed);
    let other_tl = generate_timeline(&other_env, &other);
    let err =
        ppr::sim::network::resume_receptions_timestep(&other_env, &other, &other_tl, &arm, &snap)
            .unwrap_err();
    assert!(matches!(err, SnapError::IdentityMismatch(_)), "{err}");
}
