//! The differential harness: the reception driver, run from scratch,
//! must produce the `Reception` stream the bool spec produces from
//! scratch. Localizing a divergence to its first reception is
//! unit-tested in `ppr_sim::diff`; the jammed mesh the fleet floods
//! with and without a decode crew is pinned in `ppr_sim`'s mesh tests,
//! where the crew can be forced to two threads on any host.

use ppr::mac::frame::Frame;
use ppr::mac::schemes::DeliveryScheme;
use ppr::sim::diff::cross_validate;
use ppr::sim::network::{generate_timeline, RadioEnv, RxArm, SimConfig, Transmission};

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

#[test]
fn driver_matches_the_spec_from_scratch() {
    let c = cfg(7);
    let env = RadioEnv::new(c.seed);
    let timeline = generate_timeline(&env, &c);
    let report = cross_validate(&env, &c, &timeline, &arm());
    assert!(
        report.divergence.is_none(),
        "the driver diverged from the spec: {}",
        report.divergence.as_ref().unwrap()
    );
    assert_eq!(
        report.event_fp, report.reference_fp,
        "fingerprints differ without a reported divergence"
    );
}

#[test]
fn back_to_back_frames_find_the_receiver_idle() {
    // Each frame starts on the chip the one before it ends, so a
    // receiver that acquired a frame is idle again for the next: its
    // busy horizon is an exclusive end. A generated Poisson trace
    // almost never lands a start on that chip.
    let c = cfg(7);
    let env = RadioEnv::new(c.seed);
    let len = Frame::chips_len_for_body(c.body_bytes) as u64;
    let senders = env.testbed.senders.len() as u64;
    let timeline: Vec<Transmission> = (0..3 * senders)
        .map(|k| Transmission {
            id: k,
            sender: (k % senders) as usize,
            seq: (k / senders) as u16,
            start_chip: k * len,
            len_chips: len,
        })
        .collect();
    let report = cross_validate(&env, &c, &timeline, &arm());
    assert!(
        report.divergence.is_none(),
        "the driver diverged from the spec: {}",
        report.divergence.as_ref().unwrap()
    );
}
