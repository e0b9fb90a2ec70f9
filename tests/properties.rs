//! Property-based tests (proptest) for the core data structures and
//! invariants.

use ppr::channel::chip_channel::{corrupt_chips, ErrorProfile};
use ppr::core::arq::{RetxPacket, Segment};
use ppr::core::dp::{
    plan_chunks, plan_chunks_brute, plan_chunks_interval, plan_chunks_monotone,
    plan_chunks_quadratic, CostModel,
};
use ppr::core::feedback::{complement_ranges, Feedback};
use ppr::core::runs::{RunLengths, UnitRange};
use ppr::mac::crc::{append_crc32, crc16, crc32, verify_crc32_trailer};
use ppr::mac::frame::{Header, HEADER_BYTES};
use ppr::phy::spread::{bytes_to_symbols, despread_hard, spread, symbols_to_bytes};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

proptest! {
    /// Byte ↔ symbol ↔ codeword round trip on a clean channel.
    #[test]
    fn spread_roundtrip(data in proptest::collection::vec(any::<u8>(), 0..200)) {
        let symbols = bytes_to_symbols(&data);
        let words = spread(&symbols);
        let decisions = despread_hard(&words);
        prop_assert!(decisions.iter().all(|d| d.distance == 0));
        let rx: Vec<u8> = decisions.iter().map(|d| d.symbol).collect();
        prop_assert_eq!(symbols_to_bytes(&rx), data);
    }

    /// Any ≤5-chip corruption per codeword decodes exactly and reports
    /// the flip count as the hint (minimum code distance is 12).
    #[test]
    fn hint_equals_flips_below_half_distance(
        symbol in 0u8..16,
        flips in proptest::collection::btree_set(0u32..32, 0..=5),
    ) {
        let word = ppr::phy::chips::spread_symbol(symbol);
        let mut corrupted = word;
        for f in &flips {
            corrupted ^= 1 << f;
        }
        let d = ppr::phy::chips::decide(corrupted);
        prop_assert_eq!(d.symbol, symbol);
        prop_assert_eq!(d.distance as usize, flips.len());
    }

    /// Run-length representation round-trips labels exactly.
    #[test]
    fn run_lengths_roundtrip(labels in proptest::collection::vec(any::<bool>(), 0..300)) {
        let rl = RunLengths::from_labels(&labels);
        prop_assert_eq!(rl.to_labels(), labels);
        // Structural invariants.
        prop_assert_eq!(rl.bad_units() + rl.good_units(), rl.total);
        for p in &rl.pairs {
            prop_assert!(p.bad_len >= 1);
        }
    }

    /// The DP's cost equals the exponential brute force and its chunks
    /// cover every bad unit, never overlap, and start/end on bad units.
    #[test]
    fn dp_is_optimal_and_well_formed(
        labels in proptest::collection::vec(any::<bool>(), 1..120),
    ) {
        let rl = RunLengths::from_labels(&labels);
        prop_assume!(rl.l() <= 14); // keep the brute force tractable
        let cost = CostModel::bytes(labels.len().max(16));
        let dp = plan_chunks(&rl, &cost);
        let brute = plan_chunks_brute(&rl, &cost);
        prop_assert!((dp.cost_bits - brute.cost_bits).abs() < 1e-9,
            "dp {} vs brute {}", dp.cost_bits, brute.cost_bits);
        // Coverage + disjointness.
        for (i, &good) in labels.iter().enumerate() {
            let covering = dp.chunks.iter().filter(|c| c.covers(i)).count();
            if !good {
                prop_assert_eq!(covering, 1, "bad unit {} covered {} times", i, covering);
            }
        }
        for w in dp.chunks.windows(2) {
            prop_assert!(w[0].end <= w[1].start);
        }
        for c in &dp.chunks {
            prop_assert!(!labels[c.start] && !labels[c.end - 1]);
        }
    }

    /// All planner implementations return *identical chunk vectors* (not
    /// just equal costs) for arbitrary labelings: the `O(L²)` and `O(L)`
    /// partition planners, and the production `plan_chunks`, against the
    /// pinned `O(L³)` interval DP.
    #[test]
    fn partition_planners_match_interval_dp(
        labels in proptest::collection::vec(any::<bool>(), 1..300),
    ) {
        let rl = RunLengths::from_labels(&labels);
        let cost = CostModel::bytes(labels.len().max(16));
        let interval = plan_chunks_interval(&rl, &cost);
        let quadratic = plan_chunks_quadratic(&rl, &cost);
        let monotone = plan_chunks_monotone(&rl, &cost);
        let production = plan_chunks(&rl, &cost);
        prop_assert_eq!(&quadratic.chunks, &interval.chunks, "quadratic chunks");
        prop_assert_eq!(&monotone.chunks, &interval.chunks, "monotone chunks");
        prop_assert_eq!(&production.chunks, &interval.chunks, "plan_chunks chunks");
        let tol = 1e-9 * (1.0 + interval.cost_bits.abs());
        prop_assert!((quadratic.cost_bits - interval.cost_bits).abs() <= tol,
            "quadratic cost {} vs interval {}", quadratic.cost_bits, interval.cost_bits);
        prop_assert!((monotone.cost_bits - interval.cost_bits).abs() <= tol,
            "monotone cost {} vs interval {}", monotone.cost_bits, interval.cost_bits);
    }

    /// Tie-pinning: under a dyadic cost model every atomic cost is an
    /// integer-valued f64 (`log S` and `log λᵇ` of powers of two, good
    /// contributions multiples of `bpu`), so group-cost sums are exact in
    /// every planner and cost ties between different partitions are
    /// genuine and frequent. The planners must still agree chunk-for-
    /// chunk — tie-breaking is pinned (merged beats splits on ties, the
    /// smallest split point wins), not accidental.
    #[test]
    fn planner_tie_breaking_is_pinned(
        runs in proptest::collection::vec((0u32..4, 0usize..4, 0usize..3), 1..16),
        leading in 0usize..3,
    ) {
        // Bad lengths 2^e ∈ {1,2,4,8}; good lengths 0..=6 in steps of 2
        // (checksum saturation at 16 bits hits at good = 2, forcing
        // collisions between singleton and merged costs).
        let mut labels = vec![true; leading];
        for &(bad_exp, good_half, extra) in &runs {
            labels.extend(std::iter::repeat_n(false, 1usize << bad_exp));
            labels.extend(std::iter::repeat_n(true, 2 * good_half + 2 * extra));
        }
        let rl = RunLengths::from_labels(&labels);
        let cost = CostModel {
            packet_units: 1024, // log S = 10, exactly
            bits_per_unit: 8.0,
            checksum_bits: 16.0,
        };
        let interval = plan_chunks_interval(&rl, &cost);
        let quadratic = plan_chunks_quadratic(&rl, &cost);
        let monotone = plan_chunks_monotone(&rl, &cost);
        prop_assert_eq!(&quadratic.chunks, &interval.chunks, "quadratic ties");
        prop_assert_eq!(&monotone.chunks, &interval.chunks, "monotone ties");
        // Costs are exact integers here: demand bit-equality.
        prop_assert_eq!(quadratic.cost_bits, interval.cost_bits);
        prop_assert_eq!(monotone.cost_bits, interval.cost_bits);
        if rl.l() <= 14 {
            // Brute force scores in plain f64 (deliberately independent
            // of the planners' fixed-point arithmetic): tolerance, not
            // bit equality.
            let brute = plan_chunks_brute(&rl, &cost);
            prop_assert!((brute.cost_bits - interval.cost_bits).abs() < 1e-9,
                "brute cost {} vs interval {}", brute.cost_bits, interval.cost_bits);
        }
    }

    /// Feedback encoding round-trips bit-exactly for arbitrary chunk
    /// geometries.
    #[test]
    fn feedback_roundtrip(
        len in 1usize..2000,
        raw_chunks in proptest::collection::vec((0usize..2000, 1usize..100), 0..10),
    ) {
        // Normalize raw chunks into sorted, disjoint, in-bounds ranges.
        let mut chunks: Vec<UnitRange> = Vec::new();
        let mut cursor = 0usize;
        for (start, clen) in raw_chunks {
            let s = cursor + start % 50;
            let e = (s + clen).min(len);
            if s >= len || e <= s {
                continue;
            }
            chunks.push(UnitRange::new(s, e));
            cursor = e + 1;
        }
        let bytes: Vec<u8> = (0..len).map(|i| (i * 31) as u8).collect();
        let fb = Feedback::from_plan(3, &bytes, chunks);
        let decoded = Feedback::decode(&fb.encode());
        prop_assert_eq!(decoded, Some(fb.clone()));
        // Complement geometry tiles the packet with the chunks.
        let mut covered = vec![false; len];
        for c in &fb.chunks {
            for v in &mut covered[c.start..c.end] {
                *v = true;
            }
        }
        for r in complement_ranges(len, &fb.chunks) {
            for v in &mut covered[r.start..r.end] {
                prop_assert!(!*v);
                *v = true;
            }
        }
        prop_assert!(covered.iter().all(|&c| c));
    }

    /// `Feedback::decode` never panics on arbitrary bytes, and whatever
    /// it accepts re-encodes into no more bytes than it read and decodes
    /// back to the same value. Half the cases are random bytes (nearly
    /// all rejected); the other half are a valid encoding with a few
    /// bytes XORed, then truncated or extended, so both branches run.
    #[test]
    fn feedback_decode_arbitrary_bytes(
        random in any::<bool>(),
        raw in proptest::collection::vec(any::<u8>(), 0..64),
        len in 1usize..600,
        chunk in (0usize..600, 1usize..50),
        edits in proptest::collection::vec((any::<usize>(), any::<u8>()), 0..3),
        keep in any::<usize>(),
    ) {
        let bytes = if random {
            raw
        } else {
            let start = chunk.0 % len;
            let chunks = vec![UnitRange::new(start, (start + chunk.1).min(len))];
            let payload: Vec<u8> = (0..len).map(|i| (i * 7) as u8).collect();
            let mut bytes = Feedback::from_plan(9, &payload, chunks).encode();
            for &(at, x) in &edits {
                let at = at % bytes.len();
                bytes[at] ^= x;
            }
            bytes.truncate(keep % (bytes.len() + 1));
            bytes.extend(&raw[..raw.len().min(4)]);
            bytes
        };
        if let Some(fb) = Feedback::decode(&bytes) {
            let encoded = fb.encode();
            prop_assert!(encoded.len() <= bytes.len());
            prop_assert_eq!(Feedback::decode(&encoded), Some(fb));
        }
    }

    /// `Header::decode` never panics on arbitrary bytes, and a header it
    /// accepts (CRC-16 intact) re-encodes to exactly the bytes it read.
    #[test]
    fn header_decode_arbitrary_bytes(
        bytes in proptest::collection::vec(any::<u8>(), 0..24),
        seal in any::<bool>(),
    ) {
        let mut bytes = bytes;
        if seal && bytes.len() >= HEADER_BYTES {
            // Recompute the CRC so the accepting branch is exercised too.
            let crc = crc16(&bytes[..8]);
            bytes[8..10].copy_from_slice(&crc.to_le_bytes());
        }
        if let Some(h) = Header::decode(&bytes) {
            prop_assert_eq!(&h.encode()[..], &bytes[..HEADER_BYTES]);
            prop_assert_eq!(Header::decode(&h.encode()), Some(h));
        }
    }

    /// Retransmission packets round-trip including confirm bitmaps and
    /// segments.
    #[test]
    fn retx_roundtrip(
        confirms in proptest::collection::vec(any::<bool>(), 0..16),
        segs in proptest::collection::vec((0usize..500, 1usize..60), 0..6),
    ) {
        let packet_len = 1000usize;
        let segments: Vec<Segment> = segs
            .into_iter()
            .map(|(off, len)| Segment {
                offset: off.min(packet_len - 60),
                bytes: (0..len).map(|i| i as u8).collect(),
            })
            .collect();
        let r = RetxPacket { seq: 7, packet_len, confirms: confirms.clone(), segments: segments.clone() };
        let d = RetxPacket::decode(&r.encode()).unwrap();
        prop_assert_eq!(d.seq, 7);
        prop_assert_eq!(d.confirms, Some(confirms));
        prop_assert_eq!(d.segments, segments);
    }

    /// CRC trailer verification accepts exactly the untampered buffer.
    #[test]
    fn crc_trailer_detects_any_single_flip(
        data in proptest::collection::vec(any::<u8>(), 1..100),
        flip_byte in 0usize..104,
        flip_bit in 0u8..8,
    ) {
        let mut buf = data;
        append_crc32(&mut buf);
        prop_assert!(verify_crc32_trailer(&buf));
        let idx = flip_byte % buf.len();
        buf[idx] ^= 1 << flip_bit;
        prop_assert!(!verify_crc32_trailer(&buf));
    }

    /// CRC16/CRC32 are deterministic functions.
    #[test]
    fn crc_determinism(data in proptest::collection::vec(any::<u8>(), 0..256)) {
        prop_assert_eq!(crc32(&data), crc32(&data));
        prop_assert_eq!(crc16(&data), crc16(&data));
    }

    /// `ErrorProfile::uniform` invariants: a single span covering the
    /// whole frame, correct lookups inside and outside, and an exact
    /// expected-error count.
    #[test]
    fn error_profile_uniform_invariants(
        len in 1u64..200_000,
        p in 0.0f64..1.0,
        probe in 0u64..250_000,
    ) {
        let profile = ErrorProfile::uniform(len, p);
        prop_assert_eq!(profile.len_chips(), len);
        prop_assert_eq!(profile.spans(), &[(0, len, p)][..]);
        let expect = if probe < len { p } else { 0.0 };
        prop_assert_eq!(profile.prob_at(probe), expect);
        prop_assert!((profile.expected_errors() - len as f64 * p).abs() < 1e-6 * len as f64);
    }

    /// `ErrorProfile::from_pieces` invariants for arbitrary monotone
    /// piecewise profiles: the spans are preserved verbatim, offsets
    /// stay monotone and disjoint, `len_chips` is the last span's end,
    /// span coverage answers `prob_at`, and `expected_errors` is the
    /// piecewise sum.
    #[test]
    fn error_profile_from_pieces_invariants(
        raw in proptest::collection::vec((0u64..40, 1u64..300, 0.0f64..1.0), 0..8),
        probe in 0u64..4000,
    ) {
        // Build monotone spans (possibly with gaps) from (gap, len, p).
        let mut cursor = 0u64;
        let mut pieces = Vec::new();
        for (gap, len, p) in raw {
            let start = cursor + gap;
            pieces.push((start, start + len, p));
            cursor = start + len;
        }
        let profile = ErrorProfile::from_pieces(pieces.clone());
        prop_assert_eq!(profile.spans(), pieces.as_slice());
        prop_assert_eq!(
            profile.len_chips(),
            pieces.last().map(|&(_, e, _)| e).unwrap_or(0)
        );
        // Monotone, disjoint offsets.
        for w in profile.spans().windows(2) {
            prop_assert!(w[0].1 <= w[1].0, "overlapping spans {:?}", w);
        }
        for &(s, e, _) in profile.spans() {
            prop_assert!(s < e);
        }
        // prob_at agrees with direct span lookup (0 in gaps / past end).
        let direct = pieces
            .iter()
            .find(|&&(s, e, _)| s <= probe && probe < e)
            .map(|&(_, _, p)| p)
            .unwrap_or(0.0);
        prop_assert_eq!(profile.prob_at(probe), direct);
        // Expected errors = piecewise sum.
        let sum: f64 = pieces.iter().map(|&(s, e, p)| (e - s) as f64 * p).sum();
        prop_assert!((profile.expected_errors() - sum).abs() < 1e-9 + 1e-12 * sum.abs());
    }

    /// Truncated receptions: corruption never grows or shrinks the chip
    /// stream, never touches chips outside the profile's spans, and
    /// ignores profile coverage past the reception.
    #[test]
    fn error_profile_truncation_handling(
        n_chips in 1usize..3000,
        span_len in 1u64..5000,
        p in 0.0f64..1.0,
        seed in any::<u64>(),
    ) {
        // A hot span in the middle half of the profile, possibly
        // overrunning the (shorter) reception.
        let start = span_len / 4;
        let profile = ErrorProfile::from_pieces(vec![
            (0, start, 0.0),
            (start, start + span_len, p),
        ]);
        let chips = vec![false; n_chips];
        let mut rng = StdRng::seed_from_u64(seed);
        let rx = corrupt_chips(&chips, &profile, &mut rng);
        prop_assert_eq!(rx.len(), n_chips);
        // Chips before the hot span are untouched.
        for (i, &c) in rx.iter().enumerate().take((start as usize).min(n_chips)) {
            prop_assert!(!c, "chip {} outside spans flipped", i);
        }
    }

    /// Frame link-bytes layout invariants hold for arbitrary bodies.
    #[test]
    fn frame_layout_invariants(body in proptest::collection::vec(any::<u8>(), 0..600)) {
        use ppr::mac::frame::{Frame, FrameGeometry, Header};
        let frame = Frame::new(5, 6, 7, body.clone());
        let bytes = frame.link_bytes();
        let g = FrameGeometry::for_body(body.len());
        prop_assert_eq!(bytes.len(), g.total());
        prop_assert_eq!(&bytes[g.body()], body.as_slice());
        let hdr = Header::decode(&bytes[g.header()]).unwrap();
        let trl = Header::decode(&bytes[g.trailer()]).unwrap();
        prop_assert_eq!(hdr, trl);
        prop_assert_eq!(hdr.len as usize, body.len());
        prop_assert_eq!(frame.chips().len(), frame.chips_len());
    }
}

/// Planner equivalence at production scale: random and tie-heavy
/// instances up to L = 512 bad runs, checked against the `O(L³)`
/// interval DP (too slow for the per-case proptest loop at this size,
/// so a fixed deterministic corpus).
#[test]
fn partition_planners_match_interval_dp_at_large_l() {
    use rand::Rng;
    for (target_l, seed, dyadic) in [
        (128usize, 0xD11u64, false),
        (256, 0xD22, false),
        (512, 0xD33, false),
        (512, 0xD44, true),
    ] {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut labels: Vec<bool> = Vec::new();
        for _ in 0..target_l {
            // Dyadic instances use power-of-two bad runs and even good
            // runs so costs are exact and ties are frequent at scale.
            let (bad, good) = if dyadic {
                (
                    1usize << rng.gen_range(0..3u32),
                    2 * rng.gen_range(0..3usize),
                )
            } else {
                (rng.gen_range(1..6usize), rng.gen_range(0..9usize))
            };
            labels.extend(std::iter::repeat_n(false, bad));
            labels.extend(std::iter::repeat_n(true, good));
        }
        let rl = RunLengths::from_labels(&labels);
        assert!(rl.l() >= target_l / 2, "instance lost its runs");
        let packet = if dyadic { 4096 } else { labels.len().max(16) };
        let cost = CostModel {
            packet_units: packet,
            bits_per_unit: 8.0,
            checksum_bits: 16.0,
        };
        let interval = plan_chunks_interval(&rl, &cost);
        let quadratic = plan_chunks_quadratic(&rl, &cost);
        let monotone = plan_chunks_monotone(&rl, &cost);
        assert_eq!(
            quadratic.chunks,
            interval.chunks,
            "quadratic L={} seed={seed:#x}",
            rl.l()
        );
        assert_eq!(
            monotone.chunks,
            interval.chunks,
            "monotone L={} seed={seed:#x}",
            rl.l()
        );
        let tol = 1e-9 * (1.0 + interval.cost_bits.abs());
        assert!((quadratic.cost_bits - interval.cost_bits).abs() <= tol);
        assert!((monotone.cost_bits - interval.cost_bits).abs() <= tol);
        if dyadic {
            assert_eq!(quadratic.cost_bits, interval.cost_bits, "dyadic exact");
            assert_eq!(monotone.cost_bits, interval.cost_bits, "dyadic exact");
        }
    }
}

/// Fragments `--set` strings are built from: separators, numbers at and
/// past every parser's edge, and the words the enum-valued keys accept.
const SET_TOKENS: [&str; 34] = [
    "",
    "=",
    ",",
    ":",
    " ",
    "0",
    "1",
    "-1",
    "1.5",
    "0.5",
    "nan",
    "inf",
    "-inf",
    "1e309",
    "18446744073709551616",
    "255",
    "256",
    "33",
    "grid",
    "rg",
    "fig7",
    "x",
    "pulse",
    "rand",
    "sweep",
    "react",
    "off",
    "true",
    "on",
    "chip",
    "dsp",
    "\u{e9}",
    "\u{0}",
    "+3",
];

/// A string of `picks.len()` tokens from [`SET_TOKENS`].
fn set_string(picks: &[u8]) -> String {
    picks
        .iter()
        .map(|&p| SET_TOKENS[p as usize % SET_TOKENS.len()])
        .collect()
}

proptest! {
    /// The scenario `--set` parser never panics: an arbitrary key (a
    /// real one, an alias or junk) with an arbitrary value — or a
    /// comma-separated sweep of them, applied one by one as the CLI
    /// does — is accepted or rejected with a message, and whatever it
    /// accepts builds a scenario.
    #[test]
    fn scenario_set_never_panics(
        key_pick in any::<u16>(),
        junk_key in proptest::collection::vec(any::<u8>(), 0..4),
        value in proptest::collection::vec(any::<u8>(), 0..10),
    ) {
        use ppr::sim::scenario::{ScenarioBuilder, SCENARIO_KEYS};
        let keys: Vec<&str> = SCENARIO_KEYS.iter().map(|&(k, _)| k).collect();
        let key = match key_pick as usize % (keys.len() + 1) {
            i if i < keys.len() => keys[i].to_string(),
            _ => set_string(&junk_key),
        };
        let value = set_string(&value);
        let mut builder = ScenarioBuilder::new();
        let whole = builder.set(&key, &value);
        if let Err(e) = &whole {
            prop_assert!(!e.is_empty());
        }
        for v in value.split(',') {
            let _ = builder.set(&key, v);
        }
        let _ = builder.build();
    }
}
