//! Snapshot/replay determinism: a run interrupted by a checkpoint —
//! serialized to the versioned binary format, deserialized, resumed —
//! must be bit-identical to the same run left alone.
//!
//! Three layers:
//!
//! 1. **Reception streams** — `process_receptions_checkpointed` vs the
//!    uninterrupted reception driver, property-tested across checkpoint
//!    boundaries and seeds, and resumed from every transmission
//!    boundary of a short trace; and a multi-arm folding pass through a
//!    checkpoint vs the bool spec, arm by arm.
//! 2. **Experiments** — every registry entry renders the same report
//!    with `checkpoint` set.
//! 3. **The format itself** — canonical snapshots' bytes are pinned
//!    by fingerprint: any layout change must be deliberate and must
//!    come with a `SNAPSHOT_VERSION` bump. Restoring a snapshot that
//!    passes its checksum but contradicts itself is an error, never a
//!    panic, and the facts restore derives (mesh node and shard counts,
//!    recovery state) come from the run, not from the bytes.

use ppr::mac::schemes::DeliveryScheme;
use ppr::sim::experiments::common::{six_arms, CapacityRun};
use ppr::sim::experiments::{hints, registry, table2};
use ppr::sim::network::{
    fold_receptions, generate_timeline, process_receptions, process_receptions_checkpointed,
    process_receptions_reference, snapshot_after_events, ArmFold, RadioEnv, ReceptionDriver, RxArm,
    RxOutput, SimConfig, BATCH_PER_WORKER,
};
use ppr::sim::results::fingerprint;
use ppr::sim::scenario::{ScenarioBuilder, Topology};
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

/// The arms one testbed trace is evaluated with in a full run: the six
/// scheme × postamble arms, the Table 2 fragment sweep and the hint arm.
fn union_arms() -> Vec<RxArm> {
    let sc = ScenarioBuilder::new().build();
    let mut arms: Vec<RxArm> = six_arms(sc.schemes()).into_iter().map(|(_, a)| a).collect();
    for a in table2::request(&sc)
        .arms
        .into_iter()
        .chain(hints::requests(&sc)[0].arms.clone())
    {
        if !arms.contains(&a) {
            arms.push(a);
        }
    }
    arms
}

#[test]
fn multi_arm_checkpoint_folds_match_each_arms_spec() {
    // Every arm of the union, folded in one pass through a checkpoint,
    // equals the bool spec's stream for that arm alone, folded the same
    // way — on the Fig. 7 floor and a random-geometric one.
    let arms = union_arms();
    for topology in [
        Topology::Fig7,
        Topology::RandomGeometric {
            seed: 3,
            density: 6.0,
        },
    ] {
        let sc = ScenarioBuilder::new()
            .duration_s(1.0)
            .seed(21)
            .topology(topology)
            .build();
        let run = CapacityRun::from_scenario(&sc, 13.8, false);
        assert!(
            run.timeline.len() > 20,
            "{topology:?}: too few transmissions"
        );
        for checkpoint in [None, Some(0), Some(150), Some(u64::MAX)] {
            let folds = fold_receptions(&run.env, &run.cfg, &run.timeline, &arms, checkpoint);
            for (arm, fold) in arms.iter().zip(&folds) {
                let spec = process_receptions_reference(&run.env, &run.cfg, &run.timeline, arm);
                let want = ArmFold::of_stream(&run.env, &spec, arm.collect_symbols);
                assert_eq!(
                    *fold, want,
                    "{topology:?} checkpoint {checkpoint:?} {arm:?}"
                );
            }
        }
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
        let reference = process_receptions(&env, &c, &timeline, &arm);
        let got = process_receptions_checkpointed(&env, &c, &timeline, &arm, events);
        prop_assert_eq!(got, reference);
    }
}

#[test]
fn every_experiment_is_checkpoint_invariant() {
    // Short but complete pass over all registry experiments: the
    // rendered report must not change when the run snapshots and
    // resumes mid-flight.
    let builder = ScenarioBuilder::new()
        .duration_s(1.0)
        .seed(0xD21)
        .threads(1)
        .arq_packets(10)
        .relay_packets(15)
        .mesh_nodes(300);
    let plain = builder.clone().build();
    let checked = builder.checkpoint(120).build();
    let mut prior_p = Vec::new();
    let mut prior_c = Vec::new();
    for exp in registry() {
        let rp = exp.run_with(&plain, &prior_p);
        let rc = exp.run_with(&checked, &prior_c);
        assert_eq!(
            rp.render_text(),
            rc.render_text(),
            "checkpoint changed the report of {}",
            exp.id()
        );
        prior_p.push(rp);
        prior_c.push(rc);
    }
}

/// Fingerprints of the canonical snapshots' serialized bytes (a one-arm
/// reception stream, a multi-arm fold, a jammed mesh). These pin the
/// *format*: magic, version, field order, and every encoder. If an
/// assertion fires, the byte layout changed — bump `SNAPSHOT_VERSION`,
/// update these constants, and say so in the commit.
const RX_FORMAT_FINGERPRINT: u64 = 0x52b8_fd9d_dd69_ca70;
const RX_FOLD_FORMAT_FINGERPRINT: u64 = 0xd166_93de_8fca_a550;
const MESH_FORMAT_FINGERPRINT: u64 = 0x0d94_15ee_69ea_8556;

#[test]
fn snapshot_byte_format_is_pinned() {
    // Version 2: adversarial state (jammer/churn/backoff identity,
    // jammer actor state, per-node liveness) joined the mesh snapshot.
    // Version 3: the reception snapshot holds an arm list, and its
    // output is one arm's slot table or every arm's fold.
    // Version 4: fields restore recomputes are gone (next slots and RNG
    // words, mesh node counts and flags, ten mesh stats words) and the
    // `TxEnd` event tag with them.
    // Version 5: the reception snapshot is a timeline prefix (started
    // count, busy horizons, output), and `ReceptionComplete` carries no
    // output slot.
    assert_eq!(SNAPSHOT_VERSION, 5);
    let c = cfg(42.4, 11);
    let env = RadioEnv::new(c.seed);
    let timeline = generate_timeline(&env, &c);
    // The canonical state is the first transmission boundary at or past
    // 300.
    let arm = arm();
    let mut driver = ReceptionDriver::new(&env, &c, &timeline, &arm, None, BATCH_PER_WORKER);
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

    // The fold layout, at the same boundary of a multi-arm pass.
    let arms = union_arms();
    let mut driver = ReceptionDriver::folding(&env, &c, &timeline, &arms);
    driver.run_events(300);
    let mut snap = driver.save();
    snap.kernel_signature = b"pinned".to_vec();
    let fp = fingerprint(&snap.to_bytes());
    assert_eq!(
        fp, RX_FOLD_FORMAT_FINGERPRINT,
        "fold snapshot byte format changed: fingerprint {fp:#018x} != pinned \
         {RX_FOLD_FORMAT_FINGERPRINT:#018x}. If intentional, bump SNAPSHOT_VERSION, \
         update RX_FOLD_FORMAT_FINGERPRINT, and explain the layout change in the commit."
    );

    // The mesh layout, at epoch 300 of a jammed flood with churn.
    use ppr::sim::adversary::JammerSpec;
    use ppr::sim::experiments::mesh::{MeshDriver, MeshParams};
    let mut params = MeshParams::benign(120, 12.0, 5, 6, 250);
    params.jammer = JammerSpec::React { delay: 4096 };
    params.churn = 4.0;
    let mut driver = MeshDriver::new(&params, None);
    driver.run_events(300);
    let mut snap = driver.save();
    assert!(
        !snap.adv_bursts.is_empty(),
        "canonical mesh state has no bursts"
    );
    snap.kernel_signature = b"pinned".to_vec();
    let fp = fingerprint(&snap.to_bytes());
    assert_eq!(
        fp, MESH_FORMAT_FINGERPRINT,
        "mesh snapshot byte format changed: fingerprint {fp:#018x} != pinned \
         {MESH_FORMAT_FINGERPRINT:#018x}. If intentional, bump SNAPSHOT_VERSION, update \
         MESH_FORMAT_FINGERPRINT, and explain the layout change in the commit."
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
    let Err(err) = ReceptionDriver::restore(&other_env, &other, &other_tl, &arm, &snap) else {
        panic!("a snapshot restored into a different run");
    };
    assert!(matches!(err, SnapError::IdentityMismatch(_)), "{err}");
}

/// A short, dense trace: every restore in a loop over it has little
/// left to evaluate.
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
fn reception_resumes_at_every_transmission_boundary() {
    // A stream pass and a multi-arm fold pass, checkpointed at each
    // transmission boundary of a short trace: every resume carries on
    // the same work count and finishes with the uninterrupted output.
    let c = short_cfg();
    let env = RadioEnv::new(c.seed);
    let timeline = generate_timeline(&env, &c);
    let (arm, arms) = (arm(), union_arms());
    let stream = process_receptions(&env, &c, &timeline, &arm);
    let folds = fold_receptions(&env, &c, &timeline, &arms, None);
    let mut driver = ReceptionDriver::new(&env, &c, &timeline, &arm, None, BATCH_PER_WORKER);
    let mut folding = ReceptionDriver::folding(&env, &c, &timeline, &arms);
    for started in 0..=timeline.len() {
        let snap = RxSnapshot::from_bytes(&driver.save().to_bytes()).unwrap();
        assert_eq!(snap.started, started);
        let resumed = ReceptionDriver::restore(&env, &c, &timeline, &arm, &snap).unwrap();
        assert_eq!(resumed.dispatched(), driver.dispatched());
        assert_eq!(resumed.run_to_end(), stream, "stream resume at {started}");
        let snap = RxSnapshot::from_bytes(&folding.save().to_bytes()).unwrap();
        let resumed = ReceptionDriver::restore_folding(&env, &c, &timeline, &arms, &snap);
        assert_eq!(
            resumed.unwrap().run_to_folds(),
            folds,
            "fold resume at {started}"
        );
        // One past the work done is the next transmission boundary.
        driver.run_events(driver.dispatched() + 1);
        folding.run_events(folding.dispatched() + 1);
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

#[test]
fn inconsistent_reception_progress_is_corrupt_not_a_panic() {
    let c = short_cfg();
    let env = RadioEnv::new(c.seed);
    let timeline = generate_timeline(&env, &c);
    let (arm, arms) = (arm(), union_arms());
    let snap = RxSnapshot::from_bytes(&snapshot_after_events(&env, &c, &timeline, &arm, 130));
    let snap = snap.unwrap();
    let RxOutput::Stream(out) = &snap.output else {
        panic!("a one-arm driver keeps a stream");
    };
    let decoded = out.iter().position(Option::is_some).unwrap();
    let undecoded = out.iter().position(Option::is_none).unwrap();
    let with_slot = |at: usize, rec| {
        let mut out = out.clone();
        out[at] = rec;
        RxSnapshot {
            output: RxOutput::Stream(out),
            ..snap.clone()
        }
    };
    let with = |started, busy_until| RxSnapshot {
        started,
        busy_until,
        ..snap.clone()
    };
    let busy = snap.busy_until.clone();
    for (what, s) in [
        (
            "started past the timeline",
            with(timeline.len() + 1, busy.clone()),
        ),
        ("the prefix moved on", with(snap.started + 1, busy.clone())),
        (
            "the prefix moved back",
            with(snap.started - 1, busy.clone()),
        ),
        (
            "a busy horizon too many",
            with(snap.started, [&busy[..], &[0]].concat()),
        ),
        (
            "a busy horizon too few",
            with(snap.started, busy[1..].to_vec()),
        ),
        (
            "decoded past the prefix",
            with_slot(undecoded, out[decoded].clone()),
        ),
        ("undecoded inside the prefix", with_slot(decoded, None)),
    ] {
        let err = ReceptionDriver::restore(&env, &c, &timeline, &arm, &s).err();
        assert!(
            matches!(err, Some(SnapError::Corrupt(_))),
            "{what}: {err:?}"
        );
    }

    // A fold whose prefix moved on lacks that transmission's frames.
    let mut folding = ReceptionDriver::folding(&env, &c, &timeline, &arms);
    folding.run_events(130);
    let mut s = folding.save();
    s.started += 1;
    let err = ReceptionDriver::restore_folding(&env, &c, &timeline, &arms, &s).err();
    assert!(matches!(err, Some(SnapError::Corrupt(_))), "{err:?}");
}

/// Recomputes a snapshot's FNV-1a trailer over everything before it, so
/// a mutated byte string passes the checksum and reaches restore.
fn reseal(bytes: &mut [u8]) {
    let body = bytes.len() - 8;
    let fp = fingerprint(&bytes[..body]);
    bytes[body..].copy_from_slice(&fp.to_le_bytes());
}

/// The offsets a resealed mutation flips in an [`RxSnapshot`]: every
/// byte of the header, identity, started count and busy horizons, and
/// `n` evenly spaced ones in the output (slot table or folds), whose
/// length comes from re-encoding the snapshot without it. The trailer
/// is recomputed, never mutated.
fn rx_offsets(snap: &RxSnapshot, n: usize) -> Vec<usize> {
    let full = snap.to_bytes().len() - 8;
    let empty = RxSnapshot {
        output: RxOutput::Stream(Vec::new()),
        ..snap.clone()
    };
    let output = full + 8 + 9 - empty.to_bytes().len();
    (0..full - output)
        .chain(spread(full - output..full, n))
        .collect()
}

/// Up to `n` evenly spaced offsets inside `range`.
fn spread(range: std::ops::Range<usize>, n: usize) -> impl Iterator<Item = usize> {
    let step = range.len().div_ceil(n).max(1);
    range.step_by(step)
}

/// Every sampled single-byte mutation (`^0x01` and `^0xFF`), resealed:
/// each that parses goes through `restore_and_run`, which must return
/// an error or a result — never panic. Returns the number that parsed.
fn assert_resealed_mutations_never_panic<S>(
    bytes: &[u8],
    offsets: &[usize],
    parse: impl Fn(&[u8]) -> Result<S, SnapError>,
    restore_and_run: impl Fn(&S),
) -> usize {
    let mut parsed = 0;
    let mut panics = Vec::new();
    for &at in offsets {
        for mask in [0x01u8, 0xFF] {
            let mut m = bytes.to_vec();
            m[at] ^= mask;
            reseal(&mut m);
            let Ok(snap) = parse(&m) else { continue };
            parsed += 1;
            let run =
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| restore_and_run(&snap)));
            if run.is_err() {
                panics.push((at, mask));
            }
        }
    }
    assert!(
        panics.is_empty(),
        "{} of {parsed} resealed mutations panicked, at (byte, mask) {panics:?}",
        panics.len()
    );
    parsed
}

#[test]
fn resealed_snapshot_mutations_never_panic() {
    // A short, dense run checkpointed late (so each resume has little
    // left to evaluate) with both decoded and undecoded slots present.
    let c = short_cfg();
    let env = RadioEnv::new(c.seed);
    let timeline = generate_timeline(&env, &c);
    let arm = arm();
    let bytes = snapshot_after_events(&env, &c, &timeline, &arm, 130);
    let snap = RxSnapshot::from_bytes(&bytes).unwrap();
    let RxOutput::Stream(out) = &snap.output else {
        panic!("a one-arm driver keeps a stream");
    };
    assert!(
        out.iter().any(Option::is_some) && snap.started < timeline.len(),
        "checkpoint has no decoded state to corrupt or nothing left to run"
    );
    let offsets = rx_offsets(&snap, 32);
    let parsed =
        assert_resealed_mutations_never_panic(&bytes, &offsets, RxSnapshot::from_bytes, |s| {
            if let Ok(driver) = ReceptionDriver::restore(&env, &c, &timeline, &arm, s) {
                driver.run_to_end();
            }
        });
    assert!(parsed > offsets.len(), "too few mutations parsed: {parsed}");

    // The same for a multi-arm folding pass (the v3 fold layout: arm
    // list, per-link counters, hint and miss-run histograms).
    let arms = union_arms();
    let mut driver = ReceptionDriver::folding(&env, &c, &timeline, &arms);
    driver.run_events(130);
    let snap = driver.save();
    assert!(
        snap.started > 0 && snap.started < timeline.len(),
        "the fold checkpoint is not mid-run"
    );
    let bytes = snap.to_bytes();
    let offsets = rx_offsets(&snap, 48);
    let parsed =
        assert_resealed_mutations_never_panic(&bytes, &offsets, RxSnapshot::from_bytes, |s| {
            if let Ok(driver) = ReceptionDriver::restore_folding(&env, &c, &timeline, &arms, s) {
                driver.run_to_folds();
            }
            // A fold snapshot offered to the stream driver is an error.
            let _ = ReceptionDriver::restore(&env, &c, &timeline, &arm, s);
        });
    assert!(
        parsed > offsets.len(),
        "too few fold mutations parsed: {parsed}"
    );

    // The mesh: every mutation that restores keeps the node and shard
    // counts of the run it restores into.
    use ppr::sim::experiments::mesh::{run_mesh, MeshDriver, MeshParams};
    let params = MeshParams::benign(40, 8.0, 3, 6, 250);
    let reference = run_mesh(&params, None);
    let mut d = MeshDriver::new(&params, None);
    d.run_events(60);
    let bytes = d.save().to_bytes();
    let wrong = std::cell::RefCell::new(Vec::new());
    assert_resealed_mutations_never_panic(
        &bytes,
        &spread(0..bytes.len() - 8, 240).collect::<Vec<_>>(),
        MeshSnapshot::from_bytes,
        |s| {
            if let Ok(driver) = MeshDriver::restore(&params, s) {
                let st = driver.run_to_end();
                if (st.nodes, st.shards) != (reference.nodes, reference.shards) {
                    wrong.borrow_mut().push((st.nodes, st.shards));
                }
            }
        },
    );
    let wrong = wrong.into_inner();
    assert!(
        wrong.is_empty(),
        "{} restored mutations report (nodes, shards) other than {:?}: {wrong:?}",
        wrong.len(),
        (reference.nodes, reference.shards)
    );
}

#[test]
fn mesh_resumes_at_every_event_boundary() {
    // A small jammed flood with churn, checkpointed and resumed at each
    // of its event boundaries: every resume must finish with the
    // uninterrupted stats. The snapshot stores no correct-byte counts,
    // recovery flags, or node, shard, transmission and repair counts,
    // so this pins that restore derives each of them correctly at
    // every point of the run.
    use ppr::sim::adversary::JammerSpec;
    use ppr::sim::experiments::mesh::{run_mesh, MeshDriver, MeshParams};
    let mut params = MeshParams::benign(60, 12.0, 5, 6, 250);
    params.jammer = JammerSpec::React { delay: 4096 };
    params.churn = 4.0;
    let reference = run_mesh(&params, None);
    assert!(
        reference.jam_bursts > 0 && reference.crashes > 0 && reference.repair_tx > 0,
        "the run exercises no jamming, churn or repair: {reference:?}"
    );
    let mut driver = MeshDriver::new(&params, None);
    let mut boundaries = 0;
    loop {
        let snap = driver.save();
        assert_eq!(
            snap.stats.len(),
            10,
            "the stats section holds the running counters"
        );
        let parsed = MeshSnapshot::from_bytes(&snap.to_bytes()).expect("mesh snapshot parses");
        let resumed = MeshDriver::restore(&params, &parsed)
            .expect("mesh snapshot restores")
            .run_to_end();
        assert_eq!(
            resumed,
            reference,
            "resume at event {} diverged",
            driver.dispatched()
        );
        boundaries += 1;
        let before = driver.dispatched();
        driver.run_events(before + 1);
        if driver.dispatched() == before {
            break;
        }
    }
    assert_eq!(boundaries as u64, reference.events_dispatched + 1);
}
