//! Parity harness for the packed (`ChipWords`) fast path.
//!
//! The `&[bool]` chip APIs are the reference implementation; everything
//! here proves the packed representation produces **bit-identical**
//! chips and decisions across every stage of the pipeline — spreading,
//! corruption, sync, despreading, the per-packet receive path, and full
//! end-to-end experiment runs (sequential reference vs. packed
//! event-driven loop) — under fixed seeds and proptest-generated inputs.

use ppr::channel::chip_channel::{corrupt_chip_words_in_place, corrupt_chips, ErrorProfile};
use ppr::mac::frame::{Frame, Header, HEADER_BYTES};
use ppr::mac::rx::FrameReceiver;
use ppr::mac::schemes::DeliveryScheme;
use ppr::phy::chips::ChipWords;
use ppr::phy::modem::unpack_chip_words;
use ppr::phy::spread::spread_bytes;
use ppr::phy::sync::{tx_preamble_chips, SyncPattern};
use ppr::phy::ChipReceiver;
use ppr::sim::experiments::common::six_arms;
use ppr::sim::experiments::{hints, table2};
use ppr::sim::geometry::Testbed;
use ppr::sim::network::{
    fold_receptions, generate_timeline, office_model, process_receptions,
    process_receptions_reference, ArmFold, RadioEnv, RxArm, SimConfig, SQUELCH_SNR,
};
use ppr::sim::scenario::{ScenarioBuilder, Topology};
use ppr::sim::{Acquisition, FastRx};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Corruption parity: packed and bool corruption flip exactly the same
/// chips for the same seed, in every error regime including spans that
/// straddle and overrun a truncated reception.
#[test]
fn corruption_parity_fixed_seeds() {
    let chips: Vec<bool> = (0..12_345).map(|i| i % 7 < 3).collect();
    let packed = ChipWords::from_bools(&chips);
    let profiles = [
        ErrorProfile::uniform(12_345, 0.0),
        ErrorProfile::uniform(12_345, 1e-6),
        ErrorProfile::uniform(12_345, 0.02),
        ErrorProfile::uniform(12_345, 0.3),
        ErrorProfile::uniform(12_345, 0.5),
        ErrorProfile::uniform(12_345, 0.95),
        ErrorProfile::uniform(20_000, 0.6), // overruns the reception
        ErrorProfile::from_pieces(vec![
            (0, 100, 0.0),
            (100, 163, 0.8), // dense span with unaligned edges
            (163, 5_000, 0.01),
            (5_000, 5_001, 0.7), // single-chip dense span
            (5_001, 13_000, 0.4),
            (13_000, 14_000, 0.9), // fully past the reception
        ]),
    ];
    for (pi, profile) in profiles.iter().enumerate() {
        for seed in 0..5u64 {
            let mut rng_a = StdRng::seed_from_u64(seed * 31 + 7);
            let mut rng_b = StdRng::seed_from_u64(seed * 31 + 7);
            let reference = corrupt_chips(&chips, profile, &mut rng_a);
            let mut fast = packed.clone();
            corrupt_chip_words_in_place(&mut fast, profile, &mut rng_b);
            assert_eq!(
                fast,
                ChipWords::from_bools(&reference),
                "profile {pi} seed {seed}"
            );
            // Both paths must also leave the RNG in the same state, or
            // parity would silently break for the *next* consumer.
            assert_eq!(rng_a.gen::<u64>(), rng_b.gen::<u64>(), "profile {pi}");
        }
    }
}

/// Geometric-sampler edge cases: sparse spans whose boundaries straddle
/// 64-chip lane edges, probabilities sitting exactly on the sparse/dense
/// crossover constants (`BLOCK_FLIP_MIN_P = 0.02` and `0.5`, where the
/// q = ln(1-p) skip math meets its boundary behavior), and spans whose
/// `hi` is clipped mid-lane by a truncated reception. Each case must
/// flip bit-identical chips *and* leave the RNG in the same state as
/// the `&[bool]` reference.
#[test]
fn corruption_parity_sampler_edge_cases() {
    // 3 lanes + a 37-chip partial lane: every boundary below is
    // deliberately off the 64-chip grid.
    let n_chips = 64 * 3 + 37;
    let chips: Vec<bool> = (0..n_chips).map(|i| i % 5 < 2).collect();
    let packed = ChipWords::from_bools(&chips);
    let profiles = [
        // Sparse spans straddling lane edges (63..65, 127..130) and one
        // ending exactly on an edge (start mid-lane, end = 192).
        ErrorProfile::from_pieces(vec![(63, 65, 0.005), (127, 130, 0.01), (150, 192, 0.015)]),
        // p exactly at the sparse/dense crossover constant.
        ErrorProfile::uniform(n_chips as u64, 0.02),
        // p exactly 0.5 — ln(1-p) boundary of the dense-side regimes.
        ErrorProfile::uniform(n_chips as u64, 0.5),
        // Single span overrunning the reception: hi clips to 229,
        // mid-way through the final partial lane.
        ErrorProfile::from_pieces(vec![(100, 10_000, 0.008)]),
        // Span entirely inside one lane (no word boundary crossed).
        ErrorProfile::from_pieces(vec![(70, 90, 0.012)]),
    ];
    for (pi, profile) in profiles.iter().enumerate() {
        for seed in 0..20u64 {
            let mut rng_a = StdRng::seed_from_u64(seed ^ 0xBEEF);
            let mut rng_b = StdRng::seed_from_u64(seed ^ 0xBEEF);
            let reference = corrupt_chips(&chips, profile, &mut rng_a);
            let mut fast = packed.clone();
            corrupt_chip_words_in_place(&mut fast, profile, &mut rng_b);
            assert_eq!(
                fast,
                ChipWords::from_bools(&reference),
                "profile {pi} seed {seed}"
            );
            assert_eq!(
                rng_a.gen::<u64>(),
                rng_b.gen::<u64>(),
                "RNG state diverged: profile {pi} seed {seed}"
            );
        }
    }
}

/// Sync parity: packed delimiter distance equals the reference at every
/// offset of a corrupted capture, including offsets straddling the end.
#[test]
fn sync_distance_parity() {
    let frame = Frame::new(1, 3, 5, vec![0x5C; 60]);
    let mut rng = StdRng::seed_from_u64(99);
    let profile = ErrorProfile::uniform(frame.chips_len() as u64, 0.08);
    let chips = corrupt_chips(&frame.chips(), &profile, &mut rng);
    let packed = ChipWords::from_bools(&chips);
    for pattern in [SyncPattern::preamble(), SyncPattern::postamble()] {
        for offset in (0..chips.len() + 150).step_by(13) {
            assert_eq!(
                pattern.distance_at(&chips, offset),
                pattern.distance_at_words(&packed, offset),
                "offset {offset}"
            );
        }
    }
}

/// Despreading parity: packed and reference despreading agree on whole
/// frames, unaligned offsets, and truncated captures.
#[test]
fn despreading_parity() {
    let frame = Frame::new(4, 8, 1, vec![0x99; 150]);
    let mut rng = StdRng::seed_from_u64(5);
    let profile = ErrorProfile::uniform(frame.chips_len() as u64, 0.05);
    let chips = corrupt_chips(&frame.chips(), &profile, &mut rng);
    let packed = ChipWords::from_bools(&chips);
    let rx = ChipReceiver::default();
    let n_symbols = frame.link_symbols();
    for (off, n) in [
        (320usize, n_symbols),
        (320 + 32, n_symbols),
        (321, 40),             // unaligned
        (chips.len() - 40, 8), // runs off the end
    ] {
        assert_eq!(
            rx.despread(&chips, off, n),
            rx.despread_words(&packed, off, n),
            "off {off} n {n}"
        );
    }
}

/// Receive-path parity: `FastRx::receive` and `receive_words` agree on
/// acquisition and decoded frames over seeded noisy captures, for both
/// postamble arms and both idle states; and the link experiments' send
/// helper `FastRx::transmit` matches the spec frame for frame over one
/// carried RNG stream.
#[test]
fn receive_path_parity() {
    let frame = Frame::new(3, 6, 2, vec![0x42; 250]);
    let clean = frame.chips();
    for seed in 0..6u64 {
        // Escalating error rates cover preamble-intact, preamble-lost,
        // and fully-lost captures.
        let p = [1e-6, 0.02, 0.08, 0.15, 0.3, 0.5][seed as usize % 6];
        let profile = ErrorProfile::uniform(clean.len() as u64, p);
        let mut rng = StdRng::seed_from_u64(seed);
        let chips = corrupt_chips(&clean, &profile, &mut rng);
        let packed = ChipWords::from_bools(&chips);
        for postamble in [false, true] {
            let fast = FastRx::new(postamble);
            for idle in [false, true] {
                let (acq_a, rx_a) = fast.receive(&frame, &chips, idle);
                let (acq_b, rx_b) = fast.receive_words(&frame, &packed, idle);
                assert_eq!(acq_a, acq_b, "seed {seed} p {p} idle {idle}");
                assert_eq!(rx_a, rx_b, "seed {seed} p {p} idle {idle}");
            }
        }
    }

    // `FastRx::transmit` against the spec composition (`corrupt_chips`
    // then `receive`), each carrying its own copy of one RNG stream
    // across a sequence of frames, the way the link experiments do.
    // Profile shapes: jam's pulse spans at 0.35, fig16's collision
    // burst, a fully jammed span, and a clean sparse link.
    for postamble in [false, true] {
        let fast = FastRx::new(postamble);
        let mut rng_spec = StdRng::seed_from_u64(0x5EED ^ postamble as u64);
        let mut rng_fast = rng_spec.clone();
        let mut seen = Vec::new();
        for (k, body_len) in [250usize, 24, 120, 250, 8, 200, 250, 60]
            .into_iter()
            .enumerate()
        {
            let frame = Frame::new(1, 2, k as u16, vec![(k as u8).wrapping_mul(37); body_len]);
            let clean = frame.chips();
            let n = clean.len() as u64;
            let base = 2e-3;
            let profile = ErrorProfile::from_pieces(match k % 4 {
                0 => (0..n)
                    .step_by(4096)
                    .flat_map(|s| {
                        [
                            (s, (s + 2048).min(n), 0.35),
                            ((s + 2048).min(n), (s + 4096).min(n), base),
                        ]
                    })
                    .collect(),
                1 => vec![
                    (0, n / 3, base),
                    (n / 3, n / 3 + n / 4, 0.35),
                    (n / 3 + n / 4, n, base),
                ],
                2 => vec![
                    (0, n / 2, base),
                    (n / 2, n / 2 + 700, 0.5),
                    (n / 2 + 700, n, base),
                ],
                _ => vec![(0, n, 1e-4)],
            });
            // mrd sends to busy receivers too.
            let idle = k % 3 != 2;
            let spec = fast.receive(
                &frame,
                &corrupt_chips(&clean, &profile, &mut rng_spec),
                idle,
            );
            let packed = fast.transmit(&frame, frame.chip_words(), &profile, &mut rng_fast, idle);
            assert_eq!(spec, packed, "frame {k} postamble {postamble}");
            seen.push(packed.0);
        }
        for acq in [Acquisition::Preamble, Acquisition::None] {
            assert!(seen.contains(&acq), "{acq:?} never exercised: {seen:?}");
        }
        assert_eq!(
            seen.contains(&Acquisition::Postamble),
            postamble,
            "{seen:?}"
        );
        assert_eq!(
            rng_spec.gen::<u64>(),
            rng_fast.gen::<u64>(),
            "postamble {postamble}"
        );
    }
}

/// Frame-receiver decode parity on a mid-frame wake-up (negative link
/// start, head padding) — the rollback geometry the postamble exists for.
#[test]
fn rollback_decode_parity() {
    let frame = Frame::new(4, 4, 2, vec![0x11; 80]);
    let full = frame.chips();
    let cut = 2 * full.len() / 3;
    let tail = full[cut..].to_vec();
    let packed = ChipWords::from_bools(&tail);
    let rx = FrameReceiver::default();
    let scan = rx.chip_receiver().scan(&tail);
    assert!(!scan.is_empty(), "postamble must be found");
    let hit = scan.last().unwrap();
    assert_eq!(
        rx.decode_from_postamble(&tail, hit.chip_offset),
        rx.decode_from_postamble_words(&packed, hit.chip_offset)
    );
}

/// End-to-end parity: the packed event-driven reception loop produces the
/// exact `Reception` list of the sequential `&[bool]` reference, across
/// schemes and postamble arms (including symbol-trace collection), on a
/// light 200 B run and a dense 1500 B one.
#[test]
fn end_to_end_experiment_parity() {
    let light = SimConfig {
        load_kbps: 13.8,
        body_bytes: 200,
        carrier_sense: false,
        duration_s: 3.0,
        seed: 42,
    };
    let dense = SimConfig {
        load_kbps: 42.4,
        body_bytes: 1500,
        carrier_sense: false,
        duration_s: 2.0,
        seed: 7,
    };
    let arms = [
        RxArm {
            scheme: DeliveryScheme::PacketCrc,
            postamble: false,
            collect_symbols: false,
        },
        RxArm {
            scheme: DeliveryScheme::Ppr { eta: 6 },
            postamble: true,
            collect_symbols: true,
        },
        RxArm {
            scheme: DeliveryScheme::FragmentedCrc { frag_payload: 50 },
            postamble: true,
            collect_symbols: false,
        },
    ];
    for (env, cfg) in [
        (RadioEnv::new(1), light),
        (RadioEnv::new(dense.seed), dense),
    ] {
        let timeline = generate_timeline(&env, &cfg);
        assert!(!timeline.is_empty());
        for arm in &arms {
            let reference = process_receptions_reference(&env, &cfg, &timeline, arm);
            let packed = process_receptions(&env, &cfg, &timeline, arm);
            assert!(!reference.is_empty(), "{cfg:?} {arm:?}");
            assert_eq!(reference.len(), packed.len(), "{cfg:?} {arm:?}");
            assert_eq!(reference, packed, "{cfg:?} {arm:?}");
        }
    }
}

/// Multi-arm parity: one folding pass of the reception driver over a
/// trace, with every arm a full run evaluates on one trace (the six
/// scheme × postamble arms, the Table 2 fragment sweep and the hint
/// arm), folds each arm exactly as the bool spec's stream for that arm
/// alone, folded the same way — on the Fig. 7 floor and on a
/// random-geometric one, at a dense load where most frames collide.
#[test]
fn multi_arm_pass_folds_match_each_arms_spec() {
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
    assert_eq!(arms.len(), 12);
    let cfg = SimConfig {
        load_kbps: 42.4,
        body_bytes: 1500,
        carrier_sense: false,
        duration_s: 1.0,
        seed: 9,
    };
    let rg = Topology::RandomGeometric {
        seed: 5,
        density: 6.0,
    };
    let comm_radius_m = office_model().range_at_snr_m(SQUELCH_SNR);
    for testbed in [Testbed::fig7(), rg.testbed(comm_radius_m)] {
        let env = RadioEnv::with_testbed(cfg.seed, testbed);
        let timeline = generate_timeline(&env, &cfg);
        assert!(timeline.len() > 20);
        let folds = fold_receptions(&env, &cfg, &timeline, &arms, None);
        for (arm, fold) in arms.iter().zip(&folds) {
            let spec = process_receptions_reference(&env, &cfg, &timeline, arm);
            assert_eq!(
                *fold,
                ArmFold::of_stream(&env, &spec, arm.collect_symbols),
                "{arm:?}"
            );
            // The one-arm stream driver agrees with its own fold too.
            let stream = process_receptions(&env, &cfg, &timeline, arm);
            assert_eq!(stream, spec, "{arm:?}");
        }
        let hints = folds[arms.len() - 1].hints.as_ref().expect("hint arm");
        assert!(hints.hist.total_incorrect() > 0, "no collisions to fold");
    }
}

proptest! {
    /// Spreading parity: the byte-lane frame rendering equals the
    /// symbol-by-symbol `Vec<bool>` spec chip for chip, for random
    /// headers and bodies that walk every byte value (any odd stride is
    /// a full cycle mod 256), at odd and even lengths.
    #[test]
    fn spreading_parity(
        len_pick in 0usize..5,
        first in any::<u8>(),
        stride in any::<u8>(),
        dst in any::<u16>(),
        src in any::<u16>(),
        seq in any::<u16>(),
    ) {
        let body_len = [0usize, 1, 250, 255, 1500][len_pick];
        let body: Vec<u8> = (0..body_len)
            .map(|i| first.wrapping_add((i as u8).wrapping_mul(stride | 1)))
            .collect();
        let frame = Frame::new(dst, src, seq, body);
        let reference = frame.chips();
        let packed = frame.chip_words();
        prop_assert_eq!(packed.len(), reference.len());
        prop_assert_eq!(packed, ChipWords::from_bools(&reference));
    }

    /// Pack/unpack round-trip for arbitrary chip streams.
    #[test]
    fn chipwords_roundtrip(chips in proptest::collection::vec(any::<bool>(), 0..500)) {
        let packed = ChipWords::from_bools(&chips);
        prop_assert_eq!(packed.len(), chips.len());
        prop_assert_eq!(packed.to_bools(), chips);
    }

    /// Corruption parity over arbitrary piecewise profiles, stream
    /// lengths, and seeds — including truncated receptions where the
    /// profile overruns the chips.
    #[test]
    fn corruption_parity_arbitrary_profiles(
        seed in any::<u64>(),
        n_chips in 1usize..4000,
        pieces in proptest::collection::vec((0u64..200, 1u64..800, 0.0f64..1.0), 1..6),
    ) {
        // Build monotone, gap-free-ish spans from (gap, len, p) triples.
        let mut cursor = 0u64;
        let mut spans = Vec::new();
        for (gap, len, p) in pieces {
            let start = cursor + gap;
            spans.push((start, start + len, p));
            cursor = start + len;
        }
        let profile = ErrorProfile::from_pieces(spans);
        let chips: Vec<bool> = (0..n_chips).map(|i| i % 3 == 0).collect();
        let packed = ChipWords::from_bools(&chips);
        let mut rng_a = StdRng::seed_from_u64(seed);
        let mut rng_b = StdRng::seed_from_u64(seed);
        let reference = corrupt_chips(&chips, &profile, &mut rng_a);
        let mut fast = packed.clone();
        corrupt_chip_words_in_place(&mut fast, &profile, &mut rng_b);
        prop_assert_eq!(fast, ChipWords::from_bools(&reference));
    }

    /// Sparse-sampler parity over arbitrary lane-straddling spans: all
    /// probabilities are kept strictly below the 0.02 crossover so the
    /// geometric skip path (not the mask path) is always the one under
    /// test, and stream lengths are drawn around 64-chip lane edges.
    #[test]
    fn corruption_parity_sparse_lane_straddles(
        seed in any::<u64>(),
        n_lanes in 1usize..8,
        tail in 0usize..64,
        pieces in proptest::collection::vec((0u64..130, 1u64..200, 0.0f64..0.02), 1..5),
    ) {
        let n_chips = n_lanes * 64 + tail;
        let mut cursor = 0u64;
        let mut spans = Vec::new();
        for (gap, len, p) in pieces {
            let start = cursor + gap;
            spans.push((start, start + len, p));
            cursor = start + len;
        }
        let profile = ErrorProfile::from_pieces(spans);
        let chips: Vec<bool> = (0..n_chips).map(|i| i % 2 == 0).collect();
        let packed = ChipWords::from_bools(&chips);
        let mut rng_a = StdRng::seed_from_u64(seed);
        let mut rng_b = StdRng::seed_from_u64(seed);
        let reference = corrupt_chips(&chips, &profile, &mut rng_a);
        let mut fast = packed.clone();
        corrupt_chip_words_in_place(&mut fast, &profile, &mut rng_b);
        prop_assert_eq!(fast, ChipWords::from_bools(&reference));
        prop_assert_eq!(rng_a.gen::<u64>(), rng_b.gen::<u64>());
    }

    /// Receive-path parity on mutated captures: `FastRx::receive_words`
    /// equals the `receive` spec on acquisition and on every decoded
    /// read, for both postamble arms and both idle states, when the
    /// frame's chips are truncated, shifted behind a garbage prefix,
    /// sparsely flipped and overwritten by jammed bursts — so delimiters
    /// land off their expected offsets, codewords straddle lanes and the
    /// capture ends mid-codeword — and when its header or trailer record
    /// is replaced by one that passes its CRC-16 but claims another body
    /// length: zero, past the capture's end, or past `max_body_len`.
    #[test]
    fn receive_words_matches_receive_on_mutated_frames(
        body in proptest::collection::vec(any::<u8>(), 0..300),
        seq in any::<u16>(),
        mutations in 0u8..32,
        prefix in proptest::collection::vec(any::<bool>(), 1..100),
        keep in 0.0f64..1.0,
        flips in proptest::collection::vec(any::<usize>(), 0..40),
        bursts in proptest::collection::vec((any::<usize>(), 1usize..400), 0..3),
        seed in any::<u64>(),
        forged in (0u16..2200, any::<bool>(), 1u8..4),
    ) {
        // Each mutation is applied or not by one bit of `mutations`, so
        // every combination — the untouched frame included — is drawn.
        let frame = Frame::new(7, 9, seq, body);
        let mut clean = frame.chips();
        if mutations & 16 != 0 {
            // Bit 0 of `forged.2` reseals the header, bit 1 the
            // trailer; `forged.1` complements the length (above 63 000).
            let (len, huge, records) = forged;
            let len = if huge { !len } else { len };
            let record = Header { len, dst: 7, src: 9, seq }.encode();
            let record_chips = unpack_chip_words(&spread_bytes(&record));
            let header_at = tx_preamble_chips().len();
            let trailer_at = header_at + (frame.link_bytes().len() - HEADER_BYTES) * 2 * 32;
            for (bit, at) in [(1u8, header_at), (2, trailer_at)] {
                if records & bit != 0 {
                    clean[at..at + record_chips.len()].copy_from_slice(&record_chips);
                }
            }
        }
        let mut chips = if mutations & 1 != 0 { prefix } else { Vec::new() };
        chips.extend(clean);
        if mutations & 2 != 0 {
            chips.truncate((chips.len() as f64 * keep) as usize);
        }
        let flips = if mutations & 4 != 0 { flips } else { Vec::new() };
        let bursts = if mutations & 8 != 0 { bursts } else { Vec::new() };
        if !chips.is_empty() {
            for &i in &flips {
                let i = i % chips.len();
                chips[i] = !chips[i];
            }
            let mut rng = StdRng::seed_from_u64(seed);
            for &(start, len) in &bursts {
                let start = start % chips.len();
                let end = (start + len).min(chips.len());
                for c in &mut chips[start..end] {
                    *c = rng.gen();
                }
            }
        }
        let packed = ChipWords::from_bools(&chips);
        for postamble in [false, true] {
            let fast = FastRx::new(postamble);
            for idle in [false, true] {
                let (acq_a, rx_a) = fast.receive(&frame, &chips, idle);
                let (acq_b, rx_b) = fast.receive_words(&frame, &packed, idle);
                prop_assert_eq!(acq_a, acq_b, "postamble {} idle {}", postamble, idle);
                if let (Some(a), Some(b)) = (&rx_a, &rx_b) {
                    // The byte reads pack straight from the despread
                    // cache, not through the symbol equality below.
                    prop_assert_eq!(a.link_bytes(), b.link_bytes());
                    prop_assert_eq!(a.body_bytes(), b.body_bytes());
                    prop_assert_eq!(a.body_byte_hints(), b.body_byte_hints());
                    prop_assert_eq!(a.pkt_crc_ok(), b.pkt_crc_ok());
                }
                prop_assert_eq!(rx_a, rx_b, "postamble {} idle {}", postamble, idle);
            }
        }
    }

    /// Despreading parity at arbitrary offsets/lengths over random chips.
    #[test]
    fn despread_parity_arbitrary(
        chips in proptest::collection::vec(any::<bool>(), 64..2000),
        off in 0usize..2100,
        n in 0usize..70,
    ) {
        let packed = ChipWords::from_bools(&chips);
        let rx = ChipReceiver::default();
        prop_assert_eq!(
            rx.despread(&chips, off, n),
            rx.despread_words(&packed, off, n)
        );
    }
}
