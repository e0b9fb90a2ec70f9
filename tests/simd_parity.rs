//! Parity harness for the SIMD despread kernels.
//!
//! `ppr_phy::chips::decide` is the executable specification of the
//! nearest-codeword search; every despread tier in `ppr_phy::simd`
//! (scalar, AVX2 `pshufb` nibble popcount, AVX-512 `vpopcntd`) must
//! reproduce it **bit-identically** — decoded symbol *and* Hamming-hint,
//! including the tie-break toward the lowest symbol index — on any
//! feature set the host offers, through both its column entry
//! (`despread_into`) and the `Decision` wrapper (`decide_into`). Every
//! tier tests a word for an exact codebook match before it scans, so
//! the fixed cases below cover shortcut hits, near misses and words that
//! share a codeword's hash slot without being it. Kernels that the CPU
//! lacks are skipped by construction (`DespreadKernel::available`).

use ppr::phy::chips::{decide, ChipWords, Decision, CODEBOOK};
use ppr::phy::simd::{decide_batch, despread_lanes, DespreadKernel};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Every kernel against the scalar spec on adversarial fixed inputs:
/// clean codewords (distance 0), their complements, near-ties, and the
/// all-zero/all-one words that tie many codebook entries at once.
#[test]
fn kernels_match_scalar_on_adversarial_words() {
    let mut inputs: Vec<u32> = vec![0, u32::MAX, 0xAAAA_AAAA, 0x5555_5555];
    for &cw in CODEBOOK.iter() {
        inputs.push(cw);
        inputs.push(!cw);
        // One, two, three flips.
        inputs.push(cw ^ 1);
        inputs.push(cw ^ 0x8000_0001);
        inputs.push(cw ^ 0x0101_0100);
    }
    let expect: Vec<Decision> = inputs.iter().map(|&w| decide(w)).collect();
    for kernel in DespreadKernel::available() {
        let mut got = Vec::new();
        kernel.decide_into(&inputs, &mut got);
        assert_eq!(got, expect, "kernel {}", kernel.name());
    }
}

/// Vector-width edges: every length straddling the 4/8/16-lane chunk
/// boundaries must handle its tail exactly like the scalar loop.
#[test]
fn kernels_handle_every_tail_length() {
    let mut rng = StdRng::seed_from_u64(7);
    let inputs: Vec<u32> = (0..70).map(|_| rng.gen()).collect();
    for kernel in DespreadKernel::available() {
        for len in 0..=inputs.len() {
            let slice = &inputs[..len];
            let expect: Vec<Decision> = slice.iter().map(|&w| decide(w)).collect();
            let mut got = Vec::new();
            kernel.decide_into(slice, &mut got);
            assert_eq!(got, expect, "kernel {} len {len}", kernel.name());
        }
    }
}

/// The zero-copy lane decode equals a per-symbol extraction + decide.
#[test]
fn lane_decode_matches_extracted_codewords() {
    let mut rng = StdRng::seed_from_u64(21);
    for n_symbols in [0usize, 1, 2, 3, 17, 64, 65, 200] {
        let chips: Vec<bool> = (0..n_symbols * 32).map(|_| rng.gen()).collect();
        let packed = ChipWords::from_bools(&chips);
        let expect: Vec<Decision> = (0..n_symbols)
            .map(|s| decide(packed.extract_u32(s * 32)))
            .collect();
        assert_eq!(
            lane_decode(&packed, n_symbols),
            expect,
            "n_symbols {n_symbols}"
        );
    }
}

/// `despread_lanes` over the first `n_symbols` codewords of `packed`,
/// read back as decisions.
fn lane_decode(packed: &ChipWords, n_symbols: usize) -> Vec<Decision> {
    let (mut symbols, mut hints) = (vec![0; n_symbols], vec![0; n_symbols]);
    despread_lanes(packed.words(), &mut symbols, &mut hints);
    symbols
        .into_iter()
        .zip(hints)
        .map(|(symbol, distance)| Decision { symbol, distance })
        .collect()
}

/// Every available kernel against the spec on `words`, through the
/// column entry and through the `Decision` wrapper.
fn assert_kernels_match(words: &[u32], ctx: &str) {
    let expect: Vec<Decision> = words.iter().map(|&w| decide(w)).collect();
    let expect_symbols: Vec<u8> = expect.iter().map(|d| d.symbol).collect();
    let expect_hints: Vec<u8> = expect.iter().map(|d| d.distance).collect();
    for kernel in DespreadKernel::available() {
        // Poisoned columns: every entry must be written.
        let (mut symbols, mut hints) = (vec![0xEE; words.len()], vec![0xEE; words.len()]);
        kernel.despread_into(words, &mut symbols, &mut hints);
        assert_eq!(
            symbols,
            expect_symbols,
            "kernel {} symbols, {ctx}",
            kernel.name()
        );
        assert_eq!(hints, expect_hints, "kernel {} hints, {ctx}", kernel.name());
        let mut got = Vec::new();
        kernel.decide_into(words, &mut got);
        assert_eq!(got, expect, "kernel {} decide_into, {ctx}", kernel.name());
    }
}

/// The exact-codeword shortcut's hits and misses: all sixteen codewords
/// (hint 0); every single-chip flip of each (hint 1, and a flip of chips
/// 1–4 moves the word into another codeword's hash slot); and "hash
/// impostors" — words in a codeword's slot `(w >> 1) & 15` that are not
/// that codeword, including other codewords with their slot chips
/// rewritten.
#[test]
fn shortcut_hits_and_misses_match_scalar() {
    assert_kernels_match(&CODEBOOK, "codewords");
    for (s, &cw) in CODEBOOK.iter().enumerate() {
        let flips: Vec<u32> = (0..32).map(|bit| cw ^ (1 << bit)).collect();
        assert_kernels_match(&flips, &format!("single flips of symbol {s}"));
    }
    let slot_chips = 0b1_1110u32;
    let mut impostors = Vec::new();
    for &cw in CODEBOOK.iter() {
        for &other in CODEBOOK.iter().filter(|&&o| o != cw) {
            // `other`'s chips outside the slot, `cw`'s slot chips.
            impostors.push((other & !slot_chips) | (cw & slot_chips));
        }
        impostors.push(cw ^ 1);
        impostors.push(cw ^ 0x8000_0000);
        impostors.push((!cw & !slot_chips) | (cw & slot_chips));
    }
    let mut rng = StdRng::seed_from_u64(16);
    for _ in 0..512 {
        let slot = rng.gen_range(0..16u32);
        impostors.push((rng.gen::<u32>() & !slot_chips) | (slot << 1));
    }
    assert!(impostors.iter().all(|w| !CODEBOOK.contains(w)));
    assert_kernels_match(&impostors, "hash impostors");
}

/// Whole-vector skips and their edges: all-clean 16-word vectors (every
/// live lane a codeword, so the vector tiers skip the scan), the same
/// vectors with one dirty word at each position, and every tail length
/// 0..70 of clean input (masked and scalar remainders).
#[test]
fn shortcut_vectors_and_tails_match_scalar() {
    let clean: Vec<u32> = (0..70).map(|i| CODEBOOK[(i * 7 + 3) % 16]).collect();
    assert_kernels_match(&clean[..16], "all-clean vector");
    for pos in 0..16 {
        for dirt in [1u32, 0x0001_0000, 0xFFFF_FFFF] {
            let mut v = clean[..16].to_vec();
            v[pos] ^= dirt;
            assert_kernels_match(&v, &format!("one dirty word at {pos}, xor {dirt:#x}"));
        }
    }
    for len in 0..=clean.len() {
        assert_kernels_match(&clean[..len], &format!("clean tail length {len}"));
    }
}

/// `decide_batch` (the active-kernel entry every despread call uses)
/// equals the scalar spec — whatever kernel detection picked, and
/// whether or not `PPR_NO_SIMD` pinned it to scalar.
#[test]
fn active_kernel_entry_matches_scalar() {
    let mut rng = StdRng::seed_from_u64(3);
    let inputs: Vec<u32> = (0..997).map(|_| rng.gen()).collect();
    let got = decide_batch(&inputs);
    for (i, &w) in inputs.iter().enumerate() {
        assert_eq!(got[i], decide(w), "word {i}");
    }
    assert!(DespreadKernel::available().contains(&DespreadKernel::active()));
}

proptest! {
    /// Kernel parity on arbitrary word vectors and lengths.
    #[test]
    fn kernels_match_scalar_arbitrary(
        words in proptest::collection::vec(any::<u32>(), 0..600),
    ) {
        let expect: Vec<Decision> = words.iter().map(|&w| decide(w)).collect();
        for kernel in DespreadKernel::available() {
            let mut got = Vec::new();
            kernel.decide_into(&words, &mut got);
            prop_assert_eq!(&got, &expect, "kernel {}", kernel.name());
        }
    }

    /// Lane-decode parity on arbitrary chip streams, including symbol
    /// counts that leave half a lane unused.
    #[test]
    fn lane_decode_matches_scalar_arbitrary(
        chips in proptest::collection::vec(any::<bool>(), 0..4096),
    ) {
        let n_symbols = chips.len() / 32;
        let packed = ChipWords::from_bools(&chips);
        let expect: Vec<Decision> = (0..n_symbols)
            .map(|s| decide(packed.extract_u32(s * 32)))
            .collect();
        prop_assert_eq!(lane_decode(&packed, n_symbols), expect);
    }

    /// Codeword streams under Bernoulli chip flips, from the all-clean
    /// channel through the testbed's mostly-clean regime to a collision:
    /// every kernel and the lane entry agree with the spec, whatever mix
    /// of shortcut hits and scans the stream produces.
    #[test]
    fn kernels_match_scalar_on_noisy_codeword_streams(
        symbols in proptest::collection::vec(0usize..16, 0..600),
        p_index in 0usize..4,
        seed in any::<u64>(),
    ) {
        let p = [0.0, 1e-3, 0.02, 0.2][p_index];
        let mut rng = StdRng::seed_from_u64(seed);
        let words: Vec<u32> = symbols
            .iter()
            .map(|&s| {
                (0..32).fold(CODEBOOK[s], |w, bit| {
                    if rng.gen_bool(p) { w ^ (1 << bit) } else { w }
                })
            })
            .collect();
        assert_kernels_match(&words, &format!("p {p}"));
        let packed = ChipWords::from_codewords(&words);
        let expect: Vec<Decision> = words.iter().map(|&w| decide(w)).collect();
        prop_assert_eq!(lane_decode(&packed, words.len()), expect);
    }
}
