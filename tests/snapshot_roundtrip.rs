//! Snapshot/replay determinism: a mesh flood interrupted by a
//! checkpoint — serialized to the versioned binary format,
//! deserialized, resumed — must be bit-identical to the same flood left
//! alone. The mesh is the one driver that checkpoints; the testbed
//! reception pass is recomputed from its scenario instead.
//!
//! Three layers:
//!
//! 1. **The mesh driver** — resumed at every event boundary of a small
//!    jammed, churning flood, and mid-jam-burst.
//! 2. **Experiments** — every registry entry renders the same report
//!    with `checkpoint` set (only `mesh10k` and `meshjam` read it).
//! 3. **The format itself** — the canonical mesh snapshot's bytes are
//!    pinned by fingerprint: any layout change must be deliberate and
//!    must come with a `SNAPSHOT_VERSION` bump. Restoring a snapshot
//!    that passes its checksum but contradicts itself is an error,
//!    never a panic, and the facts restore derives (node and shard
//!    counts, recovery state) come from the run, not from the bytes.

use ppr::mac::schemes::DeliveryScheme;
use ppr::sim::adversary::JammerSpec;
use ppr::sim::experiments::mesh::{run_mesh, MeshDriver, MeshParams};
use ppr::sim::experiments::registry;
use ppr::sim::network::{
    generate_timeline, RadioEnv, ReceptionDriver, RxArm, SimConfig, BATCH_PER_WORKER,
};
use ppr::sim::results::fingerprint;
use ppr::sim::scenario::ScenarioBuilder;
use ppr::sim::snapshot::{MeshSnapshot, SnapError, SNAPSHOT_VERSION};

fn arm() -> RxArm {
    RxArm {
        scheme: DeliveryScheme::Ppr { eta: 6 },
        postamble: true,
        collect_symbols: false,
    }
}

#[test]
fn every_experiment_is_checkpoint_invariant() {
    // Short but complete pass over all registry experiments: the
    // rendered report must not change when the run snapshots and
    // resumes mid-flight. Only the mesh ids read `checkpoint`; the rest
    // must ignore it.
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

/// Fingerprint of the canonical (jammed mesh) snapshot's serialized
/// bytes. It pins the *format*: magic, version, field order, and every
/// encoder. If the assertion fires, the byte layout changed — bump
/// `SNAPSHOT_VERSION`, update the constant, and say so in the commit.
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
    // output slot. The reception snapshot is gone since; the mesh
    // layout did not move.
    assert_eq!(SNAPSHOT_VERSION, 5);

    // The mesh layout, at epoch 300 of a jammed flood with churn.
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

/// Recomputes a snapshot's FNV-1a trailer over everything before it, so
/// a mutated byte string passes the checksum and reaches restore.
fn reseal(bytes: &mut [u8]) {
    let body = bytes.len() - 8;
    let fp = fingerprint(&bytes[..body]);
    bytes[body..].copy_from_slice(&fp.to_le_bytes());
}

/// The offsets a resealed mutation flips in a [`MeshSnapshot`]: every
/// byte of its fixed-width fields (the header, the identity fields, the
/// queue counters, the jammer's state) and of each section's length
/// prefix, and up to `n` evenly spaced bytes inside each section's
/// body. A body's length is what re-encoding the snapshot with that
/// section emptied saves. The trailer is recomputed, never mutated.
fn mesh_offsets(snap: &MeshSnapshot, n: usize) -> Vec<usize> {
    let full = snap.to_bytes().len();
    let body = |clear: fn(&mut MeshSnapshot)| {
        let mut s = snap.clone();
        clear(&mut s);
        full - s.to_bytes().len()
    };
    // Wire order: the fixed-width bytes before each section, and the
    // section's body length.
    let sections = [
        // magic, version, kind; nodes, density, seed, eta, body_bytes
        (13 + 33, body(|s| s.kernel_signature.clear())),
        (0, body(|s| s.states.clear())),
        (0, body(|s| s.txs.clear())),
        (0, body(|s| s.started.clear())),
        (0, body(|s| s.queue.clear())),
        // next_seq, dispatched
        (16, body(|s| s.pending.clear())),
        // pending_deadline, last_time
        (16, body(|s| s.stats.clear())),
        // jammer, churn, arq_retries, arq_backoff_milli; adv_rng,
        // adv_busy_until, adv_sweep_idx
        (34 + 48, body(|s| s.adv_scheduled.clear())),
        (0, body(|s| s.adv_bursts.clear())),
    ];
    let mut offsets = Vec::new();
    let mut at = 0;
    for (fixed, len) in sections {
        offsets.extend(at..at + fixed + 8);
        at += fixed + 8;
        offsets.extend(spread(at..at + len, n));
        at += len;
    }
    assert_eq!(at + 8, full, "the mesh layout moved; update mesh_offsets");
    offsets
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

/// A small jammed, churning flood and its checkpoint at the first
/// event boundary at which every section of the snapshot is non-empty.
fn full_mesh_checkpoint() -> (MeshParams, MeshSnapshot) {
    let mut params = MeshParams::benign(60, 12.0, 5, 6, 250);
    params.jammer = JammerSpec::React { delay: 4096 };
    params.churn = 4.0;
    let mut d = MeshDriver::new(&params, None);
    loop {
        let snap = d.save();
        let sections = [
            snap.txs.len(),
            snap.started.len(),
            snap.queue.len(),
            snap.pending.len(),
            snap.adv_scheduled.len(),
            snap.adv_bursts.len(),
        ];
        if sections.iter().all(|&n| n > 0) {
            return (params, snap);
        }
        let before = d.dispatched();
        d.run_events(before + 1);
        assert!(d.dispatched() > before, "no boundary fills every section");
    }
}

#[test]
fn resealed_snapshot_mutations_never_panic() {
    // Every mutation that restores keeps the node and shard counts of
    // the run it restores into.
    let (params, snap) = full_mesh_checkpoint();
    let reference = run_mesh(&params, None);
    let bytes = snap.to_bytes();
    let offsets = mesh_offsets(&snap, 24);
    let wrong = std::cell::RefCell::new(Vec::new());
    let parsed =
        assert_resealed_mutations_never_panic(&bytes, &offsets, MeshSnapshot::from_bytes, |s| {
            if let Ok(driver) = MeshDriver::restore(&params, s) {
                let st = driver.run_to_end();
                if (st.nodes, st.shards) != (reference.nodes, reference.shards) {
                    wrong.borrow_mut().push((st.nodes, st.shards));
                }
            }
        });
    assert!(parsed > offsets.len(), "too few mutations parsed: {parsed}");
    let wrong = wrong.into_inner();
    assert!(
        wrong.is_empty(),
        "{} restored mutations report (nodes, shards) other than {:?}: {wrong:?}",
        wrong.len(),
        (reference.nodes, reference.shards)
    );
}

#[test]
fn inconsistent_jammer_state_is_corrupt_not_a_panic() {
    // Jammer state that no run produces: a burst that ends before it
    // starts reached a subtraction overflow, and a reactive burst that
    // is not at its queued JamBurst's time an assertion.
    let (params, snap) = full_mesh_checkpoint();
    let with = |edit: fn(&mut MeshSnapshot)| {
        let mut s = snap.clone();
        edit(&mut s);
        s
    };
    for (what, s) in [
        (
            "a burst that ends before it starts",
            with(|s| s.adv_bursts[0].1 = s.adv_bursts[0].0 - 1),
        ),
        (
            "a reactive burst off its queued time",
            with(|s| s.adv_scheduled[0].0 += 1),
        ),
        (
            "a reactive burst with no queued JamBurst",
            with(|s| s.adv_scheduled.push((u64::MAX - 1, u64::MAX))),
        ),
    ] {
        let err = MeshDriver::restore(&params, &s).err();
        assert!(
            matches!(err, Some(SnapError::Corrupt(_))),
            "{what}: {err:?}"
        );
    }
}

#[test]
fn mesh_resumes_at_every_event_boundary() {
    // A small jammed flood with churn, checkpointed and resumed at each
    // of its event boundaries: every resume must finish with the
    // uninterrupted stats. The snapshot stores no correct-byte counts,
    // recovery flags, or node, shard, transmission and repair counts,
    // so this pins that restore derives each of them correctly at
    // every point of the run.
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
