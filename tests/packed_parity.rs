//! Parity harness for the packed (`ChipWords`) fast path.
//!
//! The `&[bool]` chip APIs are the reference implementation; everything
//! here proves the packed representation produces **bit-identical**
//! chips and decisions across every stage of the pipeline — spreading,
//! corruption, sync, despreading, the per-packet receive path, and full
//! end-to-end experiment runs (sequential reference vs. packed
//! reception driver) — under fixed seeds and proptest-generated inputs.

use ppr::channel::chip_channel::{
    corrupt_chip_words_in_place, corrupt_chips, ChipErrors, ErrorProfile,
};
use ppr::channel::overlap::{interference_profile, HeardTx};
use ppr::mac::frame::{Frame, Header, HEADER_BYTES, PKT_CRC_BYTES};
use ppr::mac::rx::{FrameReceiver, MAX_BODY_LEN};
use ppr::mac::schemes::DeliveryScheme;
use ppr::phy::chips::ChipWords;
use ppr::phy::modem::unpack_chip_words;
use ppr::phy::spread::spread_bytes;
use ppr::phy::sync::{tx_preamble_chips, SyncPattern, TX_PREAMBLE_CHIPS};
use ppr::phy::ChipReceiver;
use ppr::sim::experiments::common::six_arms;
use ppr::sim::experiments::{hints, table2};
use ppr::sim::geometry::{Point, Testbed};
use ppr::sim::network::{
    build_body_padded, fold_receptions, generate_timeline, office_model, payload_pattern,
    process_receptions, process_receptions_reference, reception_rng_seed, ArmFold, RadioEnv,
    Reception, RxArm, SimConfig, Transmission, SQUELCH_SNR,
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
/// postamble arms and both idle states. (The link experiments' send
/// path is checked against the spec over one carried RNG stream in
/// `ppr_sim::rxpath`'s unit tests.)
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

/// End-to-end parity: the packed reception driver produces the
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
        let folds = fold_receptions(&env, &cfg, &timeline, &arms);
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

// The clean-reception corpus: one receiver, hand-placed frames whose
// chip errors are known, every reception checked arm by arm against the
// bool spec, as a stream and as a fold. A capture the channel did not
// touch folds its arm's precomputed outcome; everything else decodes.
// The corpus pins both sides of that line.

/// Senders of the corpus floor, by SNR at its one receiver.
const VICTIM: usize = 0; // 60 dB: no chip error of its own
const WEAK: usize = 1; // 20 dB: locks the receiver, too weak to touch the victim
const FLIPPER: usize = 2; // the victim's power: flips ~1/4 of the chips it overlaps
const JAMMER: usize = 3; // 40 dB over the victim: overwrites the chips it overlaps
const CORPUS_SNR: [f64; 4] = [1e6, 1e2, 1e6, 1e10];

fn corpus_env() -> RadioEnv {
    let testbed = Testbed {
        senders: (1..=4)
            .map(|x| Point {
                x: x as f64,
                y: 0.0,
            })
            .collect(),
        receivers: vec![Point { x: 0.0, y: 1.0 }],
        wall_attenuation: false,
    };
    let mut env = RadioEnv::with_testbed(1, testbed);
    let noise = env.model.noise_mw();
    for (s, snr) in CORPUS_SNR.into_iter().enumerate() {
        env.s2r_mw[s][0] = snr * noise;
    }
    env
}

fn corpus_cfg(body_bytes: usize) -> SimConfig {
    SimConfig {
        load_kbps: 13.8,
        body_bytes,
        carrier_sense: false,
        duration_s: 1.0,
        seed: 0xC0_FFEE,
    }
}

/// Packet CRC, fragmented CRC and PPR, with and without postamble
/// decoding; the PPR arms collect hint columns.
fn corpus_arms() -> Vec<RxArm> {
    let mut arms = Vec::new();
    for postamble in [false, true] {
        for scheme in DeliveryScheme::standard_set(20, 6) {
            arms.push(RxArm {
                scheme,
                postamble,
                collect_symbols: matches!(scheme, DeliveryScheme::Ppr { .. }),
            });
        }
    }
    arms
}

/// Chip offsets of a frame's link sections: one 64-chip lane per byte.
const HEADER_AT: u64 = TX_PREAMBLE_CHIPS as u64;
const BODY_AT: u64 = HEADER_AT + 64 * HEADER_BYTES as u64;
fn trailer_at(body_bytes: usize) -> u64 {
    BODY_AT + 64 * (body_bytes + PKT_CRC_BYTES) as u64
}

/// The chips `errors` change in an all-zero frame of `len` chips: the
/// flips, or the ones a jammed span drew.
fn changed_chips(errors: &ChipErrors, len: usize) -> Vec<usize> {
    let mut chips = ChipWords::zeros(len);
    errors.apply(&mut chips);
    (0..len)
        .filter(|&c| chips.words()[c / 64] >> (c % 64) & 1 == 1)
        .collect()
}

/// Does a victim's draw show the pattern its case names? Gets the
/// errors and the victim's clean rendering under every arm.
type Wants = Box<dyn Fn(&ChipErrors, &[ChipWords]) -> bool>;

/// One corpus case: a victim frame received idle or busy (a weak frame
/// holds the receiver), with interferers `(sender, chip offset into the
/// victim, chips)`, and what its chip errors must look like.
struct Case {
    name: String,
    busy: bool,
    interferers: Vec<(usize, u64, u64)>,
    wants: Wants,
}

impl Case {
    fn new(
        name: impl Into<String>,
        busy: bool,
        interferers: Vec<(usize, u64, u64)>,
        wants: impl Fn(&ChipErrors, &[ChipWords]) -> bool + 'static,
    ) -> Self {
        Case {
            name: name.into(),
            busy,
            interferers,
            wants: Box::new(wants),
        }
    }
}

/// Lays the cases out one after another, far enough apart that no two
/// interact, with each victim's id picked so its draw is the case's
/// pattern. Returns the timeline and the victims' `(tx id, case)`.
fn corpus_timeline(
    env: &RadioEnv,
    cfg: &SimConfig,
    arms: &[RxArm],
    cases: &[Case],
) -> (Vec<Transmission>, Vec<(u64, usize)>) {
    let frame = Frame::chips_len_for_body(cfg.body_bytes) as u64;
    let mut timeline = Vec::new();
    let mut victims = Vec::new();
    for (k, case) in cases.iter().enumerate() {
        let seq = k as u16;
        let start = 3 * frame * k as u64 + frame / 2;
        let clean: Vec<ChipWords> = arms
            .iter()
            .map(|arm| {
                let payload_len = arm.scheme.payload_len(cfg.body_bytes);
                let payload = payload_pattern(VICTIM, seq, payload_len);
                let body = build_body_padded(&arm.scheme, &payload, cfg.body_bytes);
                Frame::new(0, VICTIM as u16, seq, body).chip_words()
            })
            .collect();
        let mut episode = Vec::new();
        if case.busy {
            episode.push((WEAK, start - frame / 2, frame));
        }
        episode.push((VICTIM, start, frame));
        for &(sender, offset, len) in &case.interferers {
            episode.push((sender, start + offset, len));
        }
        let txs = |victim_id: u64| -> Vec<Transmission> {
            let mut id = 1_000_000 + 100 * k as u64;
            episode
                .iter()
                .map(|&(sender, start_chip, len_chips)| Transmission {
                    id: if sender == VICTIM {
                        victim_id
                    } else {
                        id += 1;
                        id
                    },
                    sender,
                    seq,
                    start_chip,
                    len_chips,
                })
                .collect()
        };
        let victim_id = (0..10_000)
            .map(|attempt| 10_000 * k as u64 + attempt)
            .find(|&id| {
                let txs = txs(id);
                let errors = victim_errors(env, cfg, &txs, usize::from(case.busy));
                (case.wants)(&errors, &clean)
            })
            .unwrap_or_else(|| panic!("no victim draw shows {:?}", case.name));
        victims.push((victim_id, k));
        timeline.extend(txs(victim_id));
    }
    timeline.sort_by_key(|tx| (tx.start_chip, tx.id));
    (timeline, victims)
}

/// The chip errors the reception pass draws for `txs[i]` at the corpus
/// receiver, given that `txs` is everything on the air around it.
fn victim_errors(env: &RadioEnv, cfg: &SimConfig, txs: &[Transmission], i: usize) -> ChipErrors {
    let heard: Vec<HeardTx> = txs
        .iter()
        .map(|tx| HeardTx {
            id: tx.id,
            start_chip: tx.start_chip,
            len_chips: tx.len_chips,
            power_mw: env.s2r_mw[tx.sender][0],
        })
        .collect();
    let spans = interference_profile(&heard[i], &heard);
    let profile = ErrorProfile::from_interference(heard[i].power_mw, env.model.noise_mw(), &spans);
    let mut rng = StdRng::seed_from_u64(reception_rng_seed(cfg.seed, txs[i].id, 0));
    ChipErrors::draw(
        Frame::chips_len_for_body(cfg.body_bytes),
        &profile,
        &mut rng,
    )
}

/// Runs the corpus through the stream driver, one folding pass over
/// every arm, and the bool spec, and checks all three agree per arm.
/// Returns each arm's spec stream.
fn check_corpus(
    env: &RadioEnv,
    cfg: &SimConfig,
    arms: &[RxArm],
    timeline: &[Transmission],
    victims: &[(u64, usize)],
    cases: &[Case],
) -> Vec<Vec<Reception>> {
    let folds = fold_receptions(env, cfg, timeline, arms);
    let mut specs = Vec::new();
    for (arm, fold) in arms.iter().zip(&folds) {
        let spec = process_receptions_reference(env, cfg, timeline, arm);
        let stream = process_receptions(env, cfg, timeline, arm);
        assert_eq!(stream.len(), spec.len(), "{arm:?}");
        for (got, want) in stream.iter().zip(&spec) {
            let case = victims
                .iter()
                .find(|&&(id, _)| id == want.tx_id)
                .map_or("an interferer", |&(_, k)| cases[k].name.as_str());
            assert_eq!(got, want, "{case}, {arm:?}");
        }
        assert_eq!(
            *fold,
            ArmFold::of_stream(env, &spec, arm.collect_symbols),
            "{arm:?}"
        );
        specs.push(spec);
    }
    specs
}

/// The spec's reception of case `k`'s victim.
fn victim_of<'a>(spec: &'a [Reception], victims: &[(u64, usize)], k: usize) -> &'a Reception {
    let id = victims[k].0;
    spec.iter()
        .find(|r| r.tx_id == id)
        .expect("victim received")
}

/// The clean-reception corpus cases for a 100 B body of `len` chips:
/// clean captures idle and busy, flips confined to the header, the
/// trailer or the body, every lane jammed, a jammed lane that redraws
/// its codeword, postamble acquisition with unaligned spans, and one
/// flip at each bit of a body lane.
fn shortcut_cases(len: usize) -> Vec<Case> {
    let (header, body, trailer) = (HEADER_AT, BODY_AT, trailer_at(100));
    let within = move |lo: u64, hi: u64| {
        move |e: &ChipErrors, _: &[ChipWords]| {
            let changed = changed_chips(e, len);
            !changed.is_empty() && changed.iter().all(|&c| (lo..hi).contains(&(c as u64)))
        }
    };
    let clean = |e: &ChipErrors, _: &[ChipWords]| e.lanes_touched() == 0;
    let mut cases = vec![
        Case::new("clean, idle", false, vec![], clean),
        Case::new("clean, busy", true, vec![], clean),
        Case::new(
            "flips in the header only",
            false,
            vec![(FLIPPER, header, 640)],
            within(header, header + 640),
        ),
        Case::new(
            "flips in the trailer only",
            false,
            vec![(FLIPPER, trailer, 640)],
            within(trailer, trailer + 640),
        ),
        Case::new(
            "flips in the body only",
            false,
            vec![(FLIPPER, body, 640)],
            within(body, body + 640),
        ),
        Case::new(
            "all lanes jammed",
            false,
            vec![(JAMMER, 0, len as u64)],
            move |e: &ChipErrors, _: &[ChipWords]| e.lanes_touched() == len.div_ceil(64),
        ),
        // A jammed span over four chips of a header lane (the same in
        // every arm) whose drawn chips are the codeword's own: a touched
        // lane that changes nothing.
        Case::new(
            "jammed lane reproduces the codeword",
            false,
            vec![(JAMMER, header + 2 * 64 + 8, 4)],
            |e: &ChipErrors, clean: &[ChipWords]| {
                e.lanes_touched() > 0
                    && clean.iter().all(|c| {
                        let mut jammed = c.clone();
                        e.apply(&mut jammed);
                        jammed == *c
                    })
            },
        ),
        // Busy receiver, so the postamble arms acquire by rollback,
        // with error spans that start and end mid-lane.
        Case::new(
            "postamble acquisition, unaligned spans",
            true,
            vec![(FLIPPER, body + 37, 300), (FLIPPER, body + 1000 + 5, 3)],
            within(body + 37, body + 1008),
        ),
    ];
    // One flip at each bit of body lane 3.
    for bit in 0..64 {
        let chip = body + 3 * 64 + bit;
        cases.push(Case::new(
            format!("one flip at bit {bit} of a body lane"),
            false,
            vec![(FLIPPER, chip, 1)],
            move |e: &ChipErrors, _: &[ChipWords]| changed_chips(e, len) == [chip as usize],
        ));
    }
    cases
}

#[test]
fn clean_shortcut_corpus_matches_the_spec() {
    let env = corpus_env();
    let cfg = corpus_cfg(100);
    let arms = corpus_arms();
    let cases = shortcut_cases(Frame::chips_len_for_body(cfg.body_bytes));
    let (timeline, victims) = corpus_timeline(&env, &cfg, &arms, &cases);
    let specs = check_corpus(&env, &cfg, &arms, &timeline, &victims, &cases);

    // The clean cases are what they say: idle frames acquire by
    // preamble and deliver everything; busy ones only by postamble.
    for (arm, spec) in arms.iter().zip(&specs) {
        let idle = victim_of(spec, &victims, 0);
        assert_eq!(idle.acquisition, Acquisition::Preamble, "{arm:?}");
        assert!(idle.crc_ok && idle.delivered_correct == idle.payload_len);
        let busy = victim_of(spec, &victims, 1);
        if arm.postamble {
            assert_eq!(busy.acquisition, Acquisition::Postamble, "{arm:?}");
            assert!(busy.crc_ok && busy.delivered_correct == busy.payload_len);
            let unaligned = victim_of(spec, &victims, 7);
            assert_eq!(unaligned.acquisition, Acquisition::Postamble, "{arm:?}");
        } else {
            assert_eq!(busy.acquisition, Acquisition::None, "{arm:?}");
        }
        if arm.collect_symbols {
            // A single flipped chip leaves its codeword decodable, one
            // chip from home: hint 1 on one body symbol.
            let one = victim_of(spec, &victims, 8);
            assert_eq!(one.symbol_hints.iter().filter(|&&h| h == 1).count(), 1);
            assert!(one.symbol_correct.iter().all(|&c| c));
        }
    }
}

/// A body longer than the receiver accepts: the header is rejected, so
/// even a clean frame delivers nothing — and the clean outcome must
/// say so, because it comes from the same decoder.
#[test]
fn clean_shortcut_reports_rejected_headers() {
    let body_bytes = MAX_BODY_LEN + 52;
    let env = corpus_env();
    let cfg = corpus_cfg(body_bytes);
    let arms = corpus_arms();
    let clean = |e: &ChipErrors, _: &[ChipWords]| e.lanes_touched() == 0;
    let cases = vec![
        Case::new("clean, idle", false, vec![], clean),
        Case::new("clean, busy", true, vec![], clean),
        Case::new(
            "flips in the body",
            false,
            vec![(FLIPPER, BODY_AT + 100, 640)],
            |e: &ChipErrors, _: &[ChipWords]| e.lanes_touched() > 0,
        ),
    ];
    let (timeline, victims) = corpus_timeline(&env, &cfg, &arms, &cases);
    let specs = check_corpus(&env, &cfg, &arms, &timeline, &victims, &cases);
    for (arm, spec) in arms.iter().zip(&specs) {
        for k in 0..cases.len() {
            let rec = victim_of(spec, &victims, k);
            assert!(!rec.crc_ok && rec.delivered_claimed == 0, "{arm:?} {k}");
        }
        assert_eq!(
            victim_of(spec, &victims, 0).acquisition,
            Acquisition::Preamble
        );
    }
}

/// Every arm the registry evaluates on one 13.8 kbit/s trace — the six
/// scheme × postamble arms of Figs. 8–12 and the Table 2 fragment
/// sweep, eleven in all — plus the hint arm, in that order. Several
/// send one frame (Packet CRC and PPR, with and without postamble
/// decoding), so one reception pass decodes each distinct frame once
/// and scores every arm that sends it.
fn registry_arms() -> Vec<RxArm> {
    let sc = ScenarioBuilder::new().build();
    let mut arms: Vec<RxArm> = six_arms(sc.schemes()).into_iter().map(|(_, a)| a).collect();
    for a in table2::request(&sc).arms {
        if !arms.contains(&a) {
            arms.push(a);
        }
    }
    assert_eq!(arms.len(), 11);
    arms.extend(hints::requests(&sc)[0].arms.clone());
    arms
}

/// The corpus under the registry's arms: one folding pass, in which
/// arms that send the same frame share its decode, folds every arm as
/// its own spec stream, and every arm's one-arm stream equals its spec
/// — the busy and the preamble-less captures included, which a
/// postamble-off arm loses without rendering anything.
#[test]
fn shared_decode_corpus_matches_each_arms_spec() {
    let env = corpus_env();
    let cfg = corpus_cfg(100);
    let arms = registry_arms();
    let cases = shortcut_cases(Frame::chips_len_for_body(cfg.body_bytes));
    let (timeline, victims) = corpus_timeline(&env, &cfg, &arms, &cases);
    let specs = check_corpus(&env, &cfg, &arms, &timeline, &victims, &cases);
    // The busy clean case: postamble arms roll back, the others lose it.
    for (arm, spec) in arms.iter().zip(&specs) {
        let busy = victim_of(spec, &victims, 1);
        let want = if arm.postamble {
            Acquisition::Postamble
        } else {
            Acquisition::None
        };
        assert_eq!(busy.acquisition, want, "{arm:?}");
    }
}

/// A short random trace at the load where the registry's arms share
/// one pass: one folding pass over all of them folds each as its own
/// spec stream, and each one-arm stream equals its spec. The trace
/// holds receptions a postamble-off arm loses while a postamble arm of
/// the same frame rolls them back, and receptions every arm acquires
/// by preamble and scores differently.
#[test]
fn shared_decode_random_trace_matches_each_arms_spec() {
    let cfg = SimConfig {
        load_kbps: 13.8,
        body_bytes: 1500,
        carrier_sense: false,
        duration_s: 2.0,
        seed: 0x5EED,
    };
    let env = RadioEnv::new(cfg.seed);
    let timeline = generate_timeline(&env, &cfg);
    let arms = registry_arms();
    let folds = fold_receptions(&env, &cfg, &timeline, &arms);
    let mut specs = Vec::new();
    for (arm, fold) in arms.iter().zip(&folds) {
        let spec = process_receptions_reference(&env, &cfg, &timeline, arm);
        assert_eq!(
            *fold,
            ArmFold::of_stream(&env, &spec, arm.collect_symbols),
            "{arm:?}"
        );
        assert_eq!(
            process_receptions(&env, &cfg, &timeline, arm),
            spec,
            "{arm:?}"
        );
        specs.push(spec);
    }
    // Arms 0 and 3 are Packet CRC without and with postamble decoding;
    // arms 3 and 5 are Packet CRC and PPR, both with it.
    let (off, on, ppr) = (&specs[0], &specs[3], &specs[5]);
    assert!(!arms[0].postamble && arms[3].postamble && arms[5].postamble);
    let rolled_back = off
        .iter()
        .zip(on)
        .filter(|(a, b)| {
            a.acquisition == Acquisition::None && b.acquisition == Acquisition::Postamble
        })
        .count();
    let scored_apart = on
        .iter()
        .zip(ppr)
        .filter(|(a, b)| {
            a.acquisition == Acquisition::Preamble && a.delivered_correct != b.delivered_correct
        })
        .count();
    assert!(
        rolled_back > 0 && scored_apart > 0,
        "{rolled_back} {scored_apart}"
    );
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
