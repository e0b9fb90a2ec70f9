//! Backend calibration: the fast chip-level channel and the sample-level
//! DSP channel must agree on the statistics every higher layer consumes
//! — chip error rate and codeword error rate at a given SINR.
//!
//! This is the test that justifies running the network experiments on
//! the fast backend (DESIGN.md §2).
//!
//! It also pins the error pattern the capacity traces share between
//! arms: [`ChipErrors::draw`] followed by [`ChipErrors::apply`] must
//! change exactly the chips [`corrupt_chip_words_in_place`] changes, on
//! any frame of the drawn length, and leave the RNG where it leaves it.

use ppr::channel::ber::chip_error_prob;
use ppr::channel::chip_channel::{
    codeword_flip_counts, corrupt_chip_words_in_place, corrupt_chips, ChipErrors, ErrorProfile,
};
use ppr::channel::sample_channel::render_single;
use ppr::phy::chips::ChipWords;
use ppr::phy::modem::{pack_chip_words, unpack_chip_words, MskModem};
use ppr::phy::spread::{despread_hard, spread_bytes};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const SPS: usize = 4;

/// Chip error rates of the two backends vs the analytic curve, at
/// several SNRs.
#[test]
fn chip_error_rate_parity() {
    let modem = MskModem::new(SPS);
    let mut rng = StdRng::seed_from_u64(1);
    let n_chips = 80_000;
    let chips: Vec<bool> = (0..n_chips).map(|_| rng.gen()).collect();

    for snr_db in [0.0f64, 2.0, 4.0, 6.0] {
        let snr = 10f64.powf(snr_db / 10.0);
        let p_analytic = chip_error_prob(snr);

        // DSP backend: matched-filter chip SNR = P·E_pulse/noise.
        let noise_mw = SPS as f64 / snr;
        let samples = render_single(&modem, &chips, 1.0, noise_mw, &mut rng);
        let rx_dsp = modem.demodulate_hard(&samples, 0, chips.len(), true);
        let p_dsp =
            rx_dsp.iter().zip(&chips).filter(|(a, b)| a != b).count() as f64 / n_chips as f64;

        // Fast backend.
        let profile = ErrorProfile::uniform(n_chips as u64, p_analytic);
        let rx_fast = corrupt_chips(&chips, &profile, &mut rng);
        let p_fast =
            rx_fast.iter().zip(&chips).filter(|(a, b)| a != b).count() as f64 / n_chips as f64;

        let tol = 0.15 * p_analytic + 0.0015;
        assert!(
            (p_dsp - p_analytic).abs() < tol,
            "snr {snr_db} dB: dsp {p_dsp:.4} vs analytic {p_analytic:.4}"
        );
        assert!(
            (p_fast - p_analytic).abs() < tol,
            "snr {snr_db} dB: fast {p_fast:.4} vs analytic {p_analytic:.4}"
        );
    }
}

/// Codeword error rates and mean Hamming hints of the two backends agree
/// — the statistics SoftPHY exposes upward.
#[test]
fn codeword_error_and_hint_parity() {
    let modem = MskModem::new(SPS);
    let mut rng = StdRng::seed_from_u64(2);
    let payload: Vec<u8> = (0..2000).map(|_| rng.gen()).collect();
    let words = spread_bytes(&payload);
    let chips = unpack_chip_words(&words);
    let tx_symbols = ppr::phy::spread::bytes_to_symbols(&payload);

    for snr_db in [1.0f64, 3.0] {
        let snr = 10f64.powf(snr_db / 10.0);
        let p = chip_error_prob(snr);

        // DSP path.
        let noise_mw = SPS as f64 / snr;
        let samples = render_single(&modem, &chips, 1.0, noise_mw, &mut rng);
        let rx_chips_dsp = modem.demodulate_hard(&samples, 0, chips.len(), true);
        let stats_dsp = decode_stats(&rx_chips_dsp, &tx_symbols);

        // Fast path.
        let profile = ErrorProfile::uniform(chips.len() as u64, p);
        let rx_chips_fast = corrupt_chips(&chips, &profile, &mut rng);
        let stats_fast = decode_stats(&rx_chips_fast, &tx_symbols);

        // Flip counts (ground truth) also agree in the mean.
        let flips_dsp = mean(&codeword_flip_counts(&chips, &rx_chips_dsp));
        let flips_fast = mean(&codeword_flip_counts(&chips, &rx_chips_fast));
        assert!(
            (flips_dsp - flips_fast).abs() < 0.35,
            "snr {snr_db}: flips dsp {flips_dsp:.2} fast {flips_fast:.2}"
        );

        let (cer_dsp, hint_dsp) = stats_dsp;
        let (cer_fast, hint_fast) = stats_fast;
        assert!(
            (cer_dsp - cer_fast).abs() < 0.05 + 0.3 * cer_dsp.max(cer_fast),
            "snr {snr_db}: codeword error dsp {cer_dsp:.4} fast {cer_fast:.4}"
        );
        assert!(
            (hint_dsp - hint_fast).abs() < 0.4,
            "snr {snr_db}: mean hint dsp {hint_dsp:.2} fast {hint_fast:.2}"
        );
    }
}

/// The DSP backend at *frame-scale* captures (≥10k chips — two orders
/// beyond the early small-size parity cases) across a sweep of SNRs:
/// chip and codeword error statistics must track the analytic curve and
/// the packed fast backend at every size.
#[test]
fn sample_backend_parity_at_large_frames() {
    let modem = MskModem::new(SPS);
    let mut rng = StdRng::seed_from_u64(7);

    for n_chips in [10_000usize, 40_000] {
        // Whole codewords so codeword stats are well-defined.
        let n_bytes = n_chips / 64; // 2 codewords (64 chips) per byte
        let payload: Vec<u8> = (0..n_bytes).map(|_| rng.gen()).collect();
        let chips = unpack_chip_words(&spread_bytes(&payload));
        let packed = ChipWords::from_bools(&chips);
        let tx_symbols = ppr::phy::spread::bytes_to_symbols(&payload);

        for snr_db in [0.0f64, 2.0, 5.0] {
            let snr = 10f64.powf(snr_db / 10.0);
            let p = chip_error_prob(snr);

            // DSP backend: render + matched filter at frame scale.
            let noise_mw = SPS as f64 / snr;
            let samples = render_single(&modem, &chips, 1.0, noise_mw, &mut rng);
            let rx_dsp = modem.demodulate_hard(&samples, 0, chips.len(), true);
            let p_dsp = rx_dsp.iter().zip(&chips).filter(|(a, b)| a != b).count() as f64
                / chips.len() as f64;
            let tol = 0.15 * p + 0.002;
            assert!(
                (p_dsp - p).abs() < tol,
                "{n_chips} chips, {snr_db} dB: dsp chip rate {p_dsp:.4} vs analytic {p:.4}"
            );

            // Packed fast backend at the same error probability.
            let profile = ErrorProfile::uniform(chips.len() as u64, p);
            let mut rx_fast = packed.clone();
            corrupt_chip_words_in_place(&mut rx_fast, &profile, &mut rng);
            let p_fast = rx_fast.hamming_to(&packed) as f64 / chips.len() as f64;
            assert!(
                (p_fast - p).abs() < tol,
                "{n_chips} chips, {snr_db} dB: fast chip rate {p_fast:.4} vs analytic {p:.4}"
            );

            // Codeword-level statistics agree between the backends.
            let (cer_dsp, hint_dsp) = decode_stats(&rx_dsp, &tx_symbols);
            let (cer_fast, hint_fast) = decode_stats(&rx_fast.to_bools(), &tx_symbols);
            assert!(
                (cer_dsp - cer_fast).abs() < 0.04 + 0.25 * cer_dsp.max(cer_fast),
                "{n_chips} chips, {snr_db} dB: cer dsp {cer_dsp:.4} fast {cer_fast:.4}"
            );
            assert!(
                (hint_dsp - hint_fast).abs() < 0.35,
                "{n_chips} chips, {snr_db} dB: hint dsp {hint_dsp:.2} fast {hint_fast:.2}"
            );
        }
    }
}

fn decode_stats(rx_chips: &[bool], tx_symbols: &[u8]) -> (f64, f64) {
    let words = pack_chip_words(rx_chips);
    let decisions = despread_hard(&words);
    let errors = decisions
        .iter()
        .zip(tx_symbols)
        .filter(|(d, &t)| d.symbol != t)
        .count();
    let mean_hint =
        decisions.iter().map(|d| d.distance as f64).sum::<f64>() / decisions.len() as f64;
    (errors as f64 / decisions.len() as f64, mean_hint)
}

fn mean(v: &[u8]) -> f64 {
    v.iter().map(|&x| x as f64).sum::<f64>() / v.len().max(1) as f64
}

/// A chip-error probability in one of the sampler's regimes: sparse,
/// just around the sparse/collision crossover (`BLOCK_FLIP_MIN_P` =
/// 0.02), collision-grade, just around the jammed boundary (0.5),
/// jammed, or below the error-free cutoff.
fn regime_p(regime: u8, u: f64) -> f64 {
    match regime % 6 {
        0 => 1e-6 + u * 0.02,
        1 => 0.02 + (u - 0.5) * 1e-9,
        2 => 0.02 + u * 0.48,
        3 => 0.5 + (u - 0.5) * 1e-9,
        4 => 0.5 + u * 0.5,
        _ => u * 1e-13,
    }
}

/// `draw` + `apply` against `corrupt_chip_words_in_place` for one
/// (frame, profile, seed): same chips, same RNG position afterwards.
fn assert_pattern_parity(chips: &ChipWords, profile: &ErrorProfile, seed: u64) -> ChipErrors {
    let mut rng_a = StdRng::seed_from_u64(seed);
    let mut rng_b = StdRng::seed_from_u64(seed);
    let mut expect = chips.clone();
    corrupt_chip_words_in_place(&mut expect, profile, &mut rng_a);
    let errors = ChipErrors::draw(chips.len(), profile, &mut rng_b);
    let mut got = chips.clone();
    errors.apply(&mut got);
    assert_eq!(got, expect, "{profile:?} seed {seed}");
    assert_eq!(rng_a.gen::<u64>(), rng_b.gen::<u64>(), "RNG position");
    errors
}

/// Fixed corners: an empty profile, spans sharing a lane in every
/// regime pairing, and one pattern applied to two different frames.
#[test]
fn chip_error_pattern_fixed_corners() {
    let n = 64 * 5 + 17;
    let frame_a = ChipWords::from_bools(&(0..n).map(|i| i % 3 == 0).collect::<Vec<_>>());
    let frame_b = ChipWords::from_bools(&(0..n).map(|i| i % 7 < 4).collect::<Vec<_>>());

    let empty = assert_pattern_parity(&frame_a, &ErrorProfile::from_pieces(Vec::new()), 1);
    assert_eq!(empty.lanes_touched(), 0);

    // Two spans inside lane 2 (128..192), each regime against each.
    let ps = [0.01, 0.3, 0.9];
    for &p1 in &ps {
        for &p2 in &ps {
            let profile = ErrorProfile::from_pieces(vec![(130, 150, p1), (150, 190, p2)]);
            for seed in 0..8 {
                let errors = assert_pattern_parity(&frame_a, &profile, seed);
                assert!(errors.lanes_touched() <= 1, "a shared lane is one entry");
                // The same draw corrupts another frame exactly as a
                // fresh corruption of that frame would.
                let mut rng = StdRng::seed_from_u64(seed);
                let mut expect = frame_b.clone();
                corrupt_chip_words_in_place(&mut expect, &profile, &mut rng);
                let mut got = frame_b.clone();
                errors.apply(&mut got);
                assert_eq!(got, expect, "{p1} {p2} seed {seed}");
            }
        }
    }

    // Overlapping pieces (which real profiles never have) still match:
    // entries apply in draw order, and a jammed span that overwrites a
    // lane's earlier flips composes into the same lane entry.
    for pieces in [
        vec![(10, 200, 0.7), (100, 300, 0.2), (50, 60, 0.01)],
        vec![(64, 100, 0.3), (70, 90, 0.9)],
        vec![(64, 128, 0.01), (64, 128, 0.3), (65, 127, 0.6)],
    ] {
        let overlapping = ErrorProfile::from_pieces(pieces);
        for seed in 0..8 {
            assert_pattern_parity(&frame_a, &overlapping, seed);
        }
    }
}

proptest! {
    /// `ChipErrors::draw` then `apply` equals `corrupt_chip_words_in_place`
    /// on the same frame — chips and RNG position — over arbitrary
    /// profiles in every regime and at both regime boundaries, with
    /// spans that share lanes and frames whose length is not a multiple
    /// of 64; and applied to a prefix of the frame it gives that
    /// prefix of the corrupted frame.
    #[test]
    fn chip_error_pattern_matches_in_place_corruption(
        seed in any::<u64>(),
        n_lanes in 0usize..12,
        tail in 0usize..64,
        pieces in proptest::collection::vec((0u64..90, 1u64..300, any::<u8>(), 0.0f64..1.0), 0..7),
        prefix_lanes in 0usize..14,
    ) {
        let n = n_lanes * 64 + tail;
        let mut cursor = 0u64;
        let mut spans = Vec::new();
        for (gap, len, regime, u) in pieces {
            let start = cursor + gap;
            spans.push((start, start + len, regime_p(regime, u)));
            cursor = start + len;
        }
        let profile = ErrorProfile::from_pieces(spans);
        let chips = ChipWords::from_bools(&(0..n).map(|i| (i * 5) % 11 < 5).collect::<Vec<_>>());
        let errors = assert_pattern_parity(&chips, &profile, seed);
        prop_assert_eq!(errors.len_chips(), n);

        let mut whole = chips.clone();
        errors.apply(&mut whole);
        let keep = (prefix_lanes * 64).min(n);
        let mut prefix = chips.clone();
        prefix.truncate(keep);
        errors.apply(&mut prefix);
        whole.truncate(keep);
        prop_assert_eq!(prefix, whole);
    }
}
