//! Regression tests for bugs found during development, plus pinned
//! decode outcomes that refactors must not silently change.

use ppr::channel::chip_channel::{corrupt_chips, ErrorProfile};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Acquisition outcomes of the reception pipeline under a fixed seed,
/// pinned exactly (counts *and* an order-sensitive fingerprint over
/// every reception's acquisition, delivery and CRC verdict). The packed
/// chip representation and the reception-loop rework of PR 2 must not
/// change a single decode decision — and neither may any future
/// refactor.
#[test]
fn rxpath_acquisition_outcomes_are_pinned() {
    use ppr::mac::schemes::DeliveryScheme;
    use ppr::sim::network::{generate_timeline, process_receptions, RadioEnv, RxArm, SimConfig};
    use ppr::sim::Acquisition;

    let env = RadioEnv::new(1);
    let cfg = SimConfig {
        load_kbps: 13.8,
        body_bytes: 200,
        carrier_sense: false,
        duration_s: 3.0,
        seed: 42,
    };
    let timeline = generate_timeline(&env, &cfg);

    // (postamble arm, receptions, via-preamble, via-postamble, lost,
    //  FNV-1a fingerprint)
    let pinned = [
        (
            false,
            1001usize,
            622usize,
            0usize,
            379usize,
            0xdaf8_c347_f764_3c7f_u64,
        ),
        (true, 1001, 622, 267, 112, 0x657a_b023_e99a_dc2e),
    ];
    for (postamble, n, pre, post, none, fingerprint) in pinned {
        let arm = RxArm {
            scheme: DeliveryScheme::Ppr { eta: 6 },
            postamble,
            collect_symbols: false,
        };
        let recs = process_receptions(&env, &cfg, &timeline, &arm);
        let count = |want: Acquisition| recs.iter().filter(|r| r.acquisition == want).count();
        assert_eq!(recs.len(), n, "postamble={postamble}");
        assert_eq!(count(Acquisition::Preamble), pre, "postamble={postamble}");
        assert_eq!(count(Acquisition::Postamble), post, "postamble={postamble}");
        assert_eq!(count(Acquisition::None), none, "postamble={postamble}");

        let mut fp: u64 = 0xcbf2_9ce4_8422_2325;
        for r in &recs {
            let code = match r.acquisition {
                Acquisition::Preamble => 1u64,
                Acquisition::Postamble => 2,
                Acquisition::None => 3,
            };
            for v in [
                r.tx_id,
                r.receiver as u64,
                code,
                r.delivered_correct as u64,
                r.crc_ok as u64,
            ] {
                fp ^= v;
                fp = fp.wrapping_mul(0x100_0000_01b3);
            }
        }
        assert_eq!(
            fp, fingerprint,
            "postamble={postamble}: decode decisions drifted"
        );
    }
}

/// `corrupt_chips` once looped forever when a span's error probability
/// was positive but below 2⁻⁵³: `ln(1 − p)` rounded to 0 and the
/// geometric skip never advanced. Strong-but-imperfect links (SNR
/// roughly 15–26 dB) produce exactly such probabilities.
#[test]
fn tiny_error_probability_terminates() {
    let mut rng = StdRng::seed_from_u64(1);
    let chips = vec![true; 200_000];
    for p in [1e-300, 1e-30, 1e-17, 1e-13, 1e-12, 1e-9] {
        let profile = ErrorProfile::uniform(chips.len() as u64, p);
        let out = corrupt_chips(&chips, &profile, &mut rng);
        assert_eq!(out.len(), chips.len(), "p = {p}");
        // At these probabilities no flip is statistically expected.
        let flips = out.iter().zip(&chips).filter(|(a, b)| a != b).count();
        assert!(flips <= 2, "p = {p}: {flips} flips");
    }
}

/// The moderate regime still flips chips at the right rate after the
/// small-p guard (guard must not eat real error rates).
#[test]
fn moderate_error_probability_unaffected_by_guard() {
    let mut rng = StdRng::seed_from_u64(2);
    let n = 100_000usize;
    let chips = vec![false; n];
    let p = 1e-3;
    let profile = ErrorProfile::uniform(n as u64, p);
    let mut total = 0usize;
    for _ in 0..10 {
        let out = corrupt_chips(&chips, &profile, &mut rng);
        total += out.iter().filter(|&&c| c).count();
    }
    let rate = total as f64 / (10 * n) as f64;
    assert!((rate - p).abs() < 2e-4, "rate {rate} vs {p}");
}

/// Two frames whose link sections begin at the same chip offset (e.g.
/// two senders keying up simultaneously) were once deduplicated into
/// one: the postamble-synced view of the second frame was dropped
/// because the first frame's preamble view "claimed" the shared start
/// chip. The dedup key must include the frame length.
#[test]
fn same_start_frames_are_not_deduplicated() {
    use ppr::mac::frame::Frame;
    use ppr::mac::rx::FrameReceiver;
    use ppr::phy::SyncKind;

    let long = Frame::new(1, 10, 0, vec![0xAA; 200]);
    let short = Frame::new(9, 12, 0, vec![0xBB; 20]);
    // Render both frames keying up at the same instant over the DSP
    // channel, so their link sections share a start chip.
    use ppr::channel::sample_channel::{render, WaveformTx};
    use ppr::phy::modem::MskModem;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    let modem = MskModem::new(4);
    let mut rng = StdRng::seed_from_u64(3);
    let txs = vec![
        WaveformTx {
            chips: long.chips(),
            start_sample: 0,
            power_mw: 1.0,
            phase: 0.0,
        },
        WaveformTx {
            chips: short.chips(),
            start_sample: 0,
            power_mw: 6.0,
            phase: 0.1,
        },
    ];
    let duration = (long.chips().len() + 64) * 4;
    let samples = render(&modem, &txs, duration, 0.01, &mut rng);
    let chips = modem.demodulate_hard(&samples, 0, samples.len() / 4, true);
    let frames = FrameReceiver::default().receive(&chips);
    // The strong short frame wins the preamble; the long frame's tail
    // (clean after the short one ends) must still be recovered via its
    // postamble as a distinct frame.
    let short_rx = frames
        .iter()
        .find(|f| f.header.map(|h| h.src == 12).unwrap_or(false));
    let long_rx = frames
        .iter()
        .find(|f| f.header.map(|h| h.src == 10).unwrap_or(false));
    assert!(short_rx.is_some(), "strong frame lost");
    let long_rx = long_rx.expect("long frame must be recovered via postamble");
    assert_eq!(long_rx.sync, SyncKind::Postamble);
}
