//! Fast chip-level channel backend.
//!
//! For network-scale experiments the sample-level DSP path is three orders
//! of magnitude too slow (23 senders × minutes of airtime × 8 samples per
//! chip). This backend keeps the exact chip/codeword geometry — every chip
//! of every frame is individually flipped or preserved — but replaces the
//! waveform with the analytic chip-error probability of the matched-filter
//! receiver ([`crate::ber::chip_error_prob`]).
//!
//! `tests/channel_parity.rs` (workspace root) verifies the two backends
//! agree on codeword error statistics, which is what every higher layer
//! consumes.

use crate::ber::chip_error_prob_dominant;
use crate::overlap::InterferenceSpan;
use ppr_phy::chips::ChipWords;
use rand::Rng;

/// Per-chip error-probability profile of one packet at one receiver:
/// piecewise-constant spans tiling the frame.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ErrorProfile {
    spans: Vec<(u64, u64, f64)>, // (start, end, chip error prob)
    len_chips: u64,
}

impl ErrorProfile {
    /// Builds the profile from the target's received power, the
    /// interference profile over it, and the receiver noise floor.
    ///
    /// The strongest interferer of each span is modeled with the exact
    /// two-mass collision statistics
    /// ([`chip_error_prob_dominant`]); only the residual interference is
    /// Gaussian-approximated.
    pub fn from_interference(
        signal_mw: f64,
        noise_mw: f64,
        interference: &[InterferenceSpan],
    ) -> Self {
        let mut profile = ErrorProfile::default();
        profile.refill_from_interference(signal_mw, noise_mw, interference);
        profile
    }

    /// [`Self::from_interference`] in place, reusing this profile's
    /// span allocation.
    pub fn refill_from_interference(
        &mut self,
        signal_mw: f64,
        noise_mw: f64,
        interference: &[InterferenceSpan],
    ) {
        self.spans.clear();
        self.len_chips = 0;
        for s in interference {
            let residual = (s.interference_mw - s.dominant_mw).max(0.0);
            let p = chip_error_prob_dominant(signal_mw, s.dominant_mw, residual, noise_mw);
            self.spans.push((s.start, s.end, p));
            self.len_chips = s.end;
        }
    }

    /// A uniform profile (single SINR for the whole frame).
    pub fn uniform(len_chips: u64, chip_error: f64) -> Self {
        ErrorProfile {
            spans: vec![(0, len_chips, chip_error)],
            len_chips,
        }
    }

    /// A profile from explicit `(start, end, chip_error)` pieces, in
    /// order. Used by scenario builders that specify error rates
    /// directly rather than deriving them from interference powers.
    pub fn from_pieces(pieces: Vec<(u64, u64, f64)>) -> Self {
        let len_chips = pieces.last().map(|&(_, e, _)| e).unwrap_or(0);
        ErrorProfile {
            spans: pieces,
            len_chips,
        }
    }

    /// Refills the profile (reusing its span allocation) with `base`
    /// chip error over `[0, len_chips)` except `burst_p` inside `bursts`
    /// (sorted, disjoint `(start, end)` pairs within the frame): a frame
    /// hit by collision or jamming bursts. Only non-empty base gaps
    /// become pieces.
    pub fn refill_with_bursts(
        &mut self,
        len_chips: u64,
        base: f64,
        bursts: &[(u64, u64)],
        burst_p: f64,
    ) {
        self.spans.clear();
        self.len_chips = len_chips;
        let mut cursor = 0;
        for &(s, e) in bursts {
            if s > cursor {
                self.spans.push((cursor, s, base));
            }
            self.spans.push((s, e, burst_p));
            cursor = e;
        }
        if cursor < len_chips {
            self.spans.push((cursor, len_chips, base));
        }
    }

    /// Frame length covered, in chips.
    pub fn len_chips(&self) -> u64 {
        self.len_chips
    }

    /// Chip error probability at a given chip offset (0 outside spans).
    pub fn prob_at(&self, chip: u64) -> f64 {
        self.spans
            .iter()
            .find(|(s, e, _)| *s <= chip && chip < *e)
            .map(|(_, _, p)| *p)
            .unwrap_or(0.0)
    }

    /// The raw spans (start, end, chip error probability).
    pub fn spans(&self) -> &[(u64, u64, f64)] {
        &self.spans
    }

    /// Expected number of chip errors over the whole frame.
    pub fn expected_errors(&self) -> f64 {
        self.spans.iter().map(|(s, e, p)| (e - s) as f64 * p).sum()
    }
}

/// Applies an error profile to a transmitted chip stream, flipping each
/// chip independently with its span's probability.
///
/// `chips.len()` may be shorter than the profile (truncated receptions);
/// extra profile coverage is ignored.
///
/// This is the reference implementation; [`corrupt_chip_words_in_place`]
/// is the packed fast path. Both consume the RNG under the **same draw
/// contract** so their outputs are bit-identical for a given seed
/// (pinned by `tests/packed_parity.rs`):
///
/// * spans clipped to nothing, or with `p < 1e-12`, draw nothing;
/// * a jammed span (`p ≥ 0.5`) draws one `u64` per 64-aligned chip block
///   it touches, in ascending block order, and chip `j` takes bit
///   `j % 64` of its block's draw;
/// * a collision-grade span (`BLOCK_FLIP_MIN_P ≤ p < 0.5`) draws one
///   `bernoulli_mask64` flip mask per 64-aligned block it touches, in
///   ascending block order;
/// * a sparse span draws one `f64` per geometric skip.
pub fn corrupt_chips<R: Rng>(chips: &[bool], profile: &ErrorProfile, rng: &mut R) -> Vec<bool> {
    let mut out = chips.to_vec();
    for &(start, end, p) in profile.spans() {
        // Below 1e-12 the expected error count over even a maximal frame
        // (~10^5 chips) is < 10^-7: treat as error-free. This also guards
        // the geometric sampler below: for p < 2^-53, ln(1-p) rounds to
        // 0 and the skip length would diverge.
        if p < 1e-12 {
            continue;
        }
        let lo = start.min(out.len() as u64) as usize;
        let hi = end.min(out.len() as u64) as usize;
        if lo >= hi {
            continue;
        }
        if p >= 0.5 {
            // Fully jammed span: each chip is an independent coin flip,
            // 64 chips per RNG word as the draw contract specifies.
            for_each_block(lo, hi, |_, block_lo, block_hi| {
                let draw = rng.next_u64();
                for (j, c) in out[block_lo..block_hi].iter_mut().enumerate() {
                    *c = (draw >> ((block_lo + j) % 64)) & 1 == 1;
                }
            });
            continue;
        }
        if p >= BLOCK_FLIP_MIN_P {
            // Collision-grade span: lane-parallel Bernoulli flip masks,
            // ~7 RNG words per 64 chips instead of one log() per flip.
            let p_bits = bernoulli_p_bits(p);
            for_each_block(lo, hi, |_, block_lo, block_hi| {
                let mask = bernoulli_mask64(p_bits, rng);
                for (j, c) in out[block_lo..block_hi].iter_mut().enumerate() {
                    if (mask >> ((block_lo + j) % 64)) & 1 == 1 {
                        *c = !*c;
                    }
                }
            });
            continue;
        }
        // Sparse span: geometric skips.
        for_each_geometric_flip(lo, hi, p, rng, |i| out[i] = !out[i]);
    }
    out
}

/// Packed fast path of [`corrupt_chips`], in place: identical chip flips
/// for a given seed (the shared draw contract), but jammed spans
/// overwrite whole 64-chip lanes with one RNG word, collision-grade
/// spans XOR one flip mask per lane, and sparse spans make one in-bounds
/// 64-bit XOR per flip — no per-chip `Vec<bool>` traffic, no per-flip
/// assert formatting or tail re-masking. Callers that still need the
/// clean chips corrupt a clone.
pub fn corrupt_chip_words_in_place<R: Rng>(
    out: &mut ChipWords,
    profile: &ErrorProfile,
    rng: &mut R,
) {
    walk_spans(out.len(), profile, rng, out);
}

/// One frame's chip errors, drawn once and applied to any number of
/// renderings of that frame: per 64-chip lane, the chips a jammed span
/// overwrote and the chips the channel flipped.
///
/// [`ChipErrors::draw`] consumes the RNG exactly as
/// [`corrupt_chip_words_in_place`] does (both walk the profile with one
/// span walker), and [`ChipErrors::apply`] then changes the same chips
/// that call would have — on *any* frame of the drawn length, because
/// the sampler never reads chip values. That is what lets every
/// delivery scheme and postamble arm of a capacity trace share one draw
/// per (transmission, receiver) pair.
///
/// Lane entries are kept in draw order; consecutive entries for the same
/// lane are composed into one, so a lane that two spans share costs one
/// entry. Spans never overlap, so masks that share a lane touch disjoint
/// chips and their order would not matter anyway.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ChipErrors {
    len: usize,
    lanes: Vec<LaneErrors>,
}

/// The errors of one 64-chip lane: `(w & !clear) ^ flips`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct LaneErrors {
    lane: usize,
    /// Chips a jammed span overwrote (their drawn values are in
    /// `flips`).
    clear: u64,
    /// Chips flipped, or set by a jammed span.
    flips: u64,
}

impl ChipErrors {
    /// Draws the errors `profile` puts on a `len`-chip frame, under the
    /// draw contract of [`corrupt_chip_words_in_place`] (same RNG words,
    /// in the same order).
    pub fn draw<R: Rng>(len: usize, profile: &ErrorProfile, rng: &mut R) -> ChipErrors {
        let mut errors = ChipErrors::default();
        errors.redraw(len, profile, rng);
        errors
    }

    /// [`Self::draw`] in place: replaces these errors with a fresh draw,
    /// reusing the lane list's allocation.
    pub fn redraw<R: Rng>(&mut self, len: usize, profile: &ErrorProfile, rng: &mut R) {
        self.len = len;
        self.lanes.clear();
        walk_spans(len, profile, rng, self);
    }

    /// Frame length the errors were drawn for, in chips.
    pub fn len_chips(&self) -> usize {
        self.len
    }

    /// Number of lane entries (lanes the channel touched, counting a
    /// lane once per run of consecutive entries).
    pub fn lanes_touched(&self) -> usize {
        self.lanes.len()
    }

    /// Applies the errors to `chips`, a rendering of a frame of
    /// [`Self::len_chips`] chips. Lanes past the end of `chips` are
    /// skipped, so a prefix of the frame (say, its preamble) takes
    /// exactly the errors of its own lanes.
    pub fn apply(&self, chips: &mut ChipWords) {
        let lanes = chips.words().len();
        for e in &self.lanes {
            if e.lane < lanes {
                chips.clear_xor_word(e.lane, e.clear, e.flips);
            }
        }
    }

    fn push(&mut self, lane: usize, clear: u64, flips: u64) {
        match self.lanes.last_mut() {
            // Applying (c1, x1) then (c2, x2) is (c1 | c2, (x1 & !c2) ^ x2).
            Some(last) if last.lane == lane => {
                last.flips = (last.flips & !clear) ^ flips;
                last.clear |= clear;
            }
            _ => self.lanes.push(LaneErrors { lane, clear, flips }),
        }
    }
}

/// Where the span walker's draws land: straight into a chip buffer
/// ([`corrupt_chip_words_in_place`]) or into an error pattern
/// ([`ChipErrors::draw`]).
trait ErrorSink {
    /// A jammed span sets the chips of `mask` in `lane` to `bits`.
    fn overwrite(&mut self, lane: usize, mask: u64, bits: u64);
    /// A collision-grade span flips the chips of `flips` in `lane`.
    fn flip_lane(&mut self, lane: usize, flips: u64);
    /// A sparse span flips chip `chip` (always in bounds).
    fn flip_chip(&mut self, chip: usize);
}

impl ErrorSink for ChipWords {
    #[inline]
    fn overwrite(&mut self, lane: usize, mask: u64, bits: u64) {
        self.apply_mask64(lane, mask, bits);
    }

    #[inline]
    fn flip_lane(&mut self, lane: usize, flips: u64) {
        self.xor_word(lane, flips);
    }

    #[inline]
    fn flip_chip(&mut self, chip: usize) {
        self.toggle_in_bounds(chip);
    }
}

impl ErrorSink for ChipErrors {
    #[inline]
    fn overwrite(&mut self, lane: usize, mask: u64, bits: u64) {
        self.push(lane, mask, bits & mask);
    }

    #[inline]
    fn flip_lane(&mut self, lane: usize, flips: u64) {
        self.push(lane, 0, flips);
    }

    #[inline]
    fn flip_chip(&mut self, chip: usize) {
        self.push(chip / 64, 0, 1 << (chip % 64));
    }
}

/// The packed span walker behind [`corrupt_chip_words_in_place`] and
/// [`ChipErrors::draw`]: the draw contract of [`corrupt_chips`] over a
/// `len`-chip frame, emitting lane-level errors into `sink`.
fn walk_spans<R: Rng, S: ErrorSink>(len: usize, profile: &ErrorProfile, rng: &mut R, sink: &mut S) {
    for &(start, end, p) in profile.spans() {
        if p < 1e-12 {
            continue;
        }
        let lo = start.min(len as u64) as usize;
        let hi = end.min(len as u64) as usize;
        if lo >= hi {
            continue;
        }
        if p >= 0.5 {
            // Jammed span: one RNG word per touched 64-chip lane.
            for_each_block(lo, hi, |w, block_lo, block_hi| {
                let draw = rng.next_u64();
                sink.overwrite(w, block_mask(w, block_lo, block_hi), draw);
            });
            continue;
        }
        if p >= BLOCK_FLIP_MIN_P {
            // Collision-grade span: one Bernoulli flip mask per lane.
            let p_bits = bernoulli_p_bits(p);
            for_each_block(lo, hi, |w, block_lo, block_hi| {
                let flips = bernoulli_mask64(p_bits, rng) & block_mask(w, block_lo, block_hi);
                sink.flip_lane(w, flips);
            });
            continue;
        }
        // Sparse span: geometric skips, one unconditioned 64-bit XOR
        // per flip. Batching flips into a per-lane mask flushed on lane
        // change was measured *slower* here: at p ≈ 0.01 roughly a
        // quarter of consecutive flips land in the same lane, so the
        // lane-change branch mispredicts (~+6 ns/flip) while saving no
        // work — see docs/PERF.md §Channel corruption. The sampler
        // guarantees `i < hi ≤ len`, so the in-bounds toggle applies.
        let mut flips = GeometricFlips::new(lo, hi, p);
        while let Some(i) = flips.next(rng) {
            sink.flip_chip(i);
        }
    }
}

/// Geometric-skip sampler of the sparse regime: yields each flipped chip
/// index of `[lo, hi)` under per-chip error probability `p`, jumping
/// straight to the next error instead of rolling a Bernoulli per chip —
/// for good links (p ~ 1e-6) this is what makes minutes of simulated
/// airtime cheap. One `f64` draw per skip; single-sourced here so the
/// reference and packed corruption paths cannot drift apart.
///
/// The running index is accumulated in `i64`, not `f64`: with the
/// `p ≥ 1e-12` guard the largest possible skip is
/// `ln(f64::MIN_POSITIVE)/ln(1-p) ≈ 745/1e-12 < 2^53`, so every skip is
/// an exactly representable integer-valued f64 and integer accumulation
/// visits bit-identical indices while keeping the hot loop free of f64
/// compare/convert traffic. The skip is `floor(u.ln() / q)`, computed
/// by [`geometric_skip`]; the quotient `u.ln() / q` is part of the draw
/// contract and must not be rearranged (e.g. into a reciprocal
/// multiply).
struct GeometricFlips {
    idx: i64,
    hi: i64,
    q: f64, // ln(1 - p), accurate for small p via ln_1p
}

impl GeometricFlips {
    fn new(lo: usize, hi: usize, p: f64) -> Self {
        GeometricFlips {
            // Start one position before the span so the first chip can err.
            idx: lo as i64 - 1,
            hi: hi as i64,
            q: (-p).ln_1p(),
        }
    }

    #[inline]
    fn next<R: Rng>(&mut self, rng: &mut R) -> Option<usize> {
        loop {
            let u: f64 = rng.gen();
            if u <= f64::MIN_POSITIVE {
                continue;
            }
            self.idx += geometric_skip(u, self.q) + 1;
            if self.idx >= self.hi {
                return None;
            }
            return Some(self.idx as usize);
        }
    }
}

/// The geometric skip `floor(u.ln() / q)` for a uniform draw
/// `u ∈ (f64::MIN_POSITIVE, 1)` and `q = ln(1 - p)` with
/// `1e-12 ≤ p < 0.5`. The quotient is then positive, finite and below
/// 2^53, where truncation toward zero equals `floor`; so the plain cast
/// is the floor, without the libm `floor` call that baseline x86-64
/// (no SSE4.1 `roundsd`) makes for `f64::floor`.
#[inline]
fn geometric_skip(u: f64, q: f64) -> i64 {
    (u.ln() / q) as i64
}

/// Reference-path driver over [`GeometricFlips`], kept as a named seam
/// for the edge-case proptests in `tests/packed_parity.rs`.
fn for_each_geometric_flip<R: Rng>(
    lo: usize,
    hi: usize,
    p: f64,
    rng: &mut R,
    mut flip: impl FnMut(usize),
) {
    let mut flips = GeometricFlips::new(lo, hi, p);
    while let Some(i) = flips.next(rng) {
        flip(i);
    }
}

/// Lower edge of the block-Bernoulli regime. Below this the expected
/// flips per 64-chip block (< ~1.3) make the geometric sampler cheaper;
/// above it the per-flip `ln()` of the geometric sampler loses to the
/// ~7 expected RNG words of [`bernoulli_mask64`].
///
/// Re-measured 2026-08 against the reworked sparse path (PR 7) by
/// sweeping the packed corruption over p at 100k chips (repro:
/// `docs/PERF.md` §Channel corruption): the geometric path costs
/// ~15 ns per expected flip (one f64 draw + `ln` + divide), i.e.
/// ~15·p ns/chip, while the mask path is flat at ~0.43 ns/chip
/// (~7.3 RNG words per 64-chip lane), putting the true crossover near
/// p ≈ 0.029. The boundary nevertheless stays at 0.02: it is part of
/// the RNG draw contract (which regime draws for a given p), and moving
/// it re-randomizes every experiment with spans in p ∈ [0.02, 0.03) —
/// verified to break the golden registry fingerprint. The cost curves
/// are within ~30% of each other across that band, so the pinned
/// boundary gives up little.
const BLOCK_FLIP_MIN_P: f64 = 0.02;

/// Binary expansion of a probability `p ∈ [0, 1)` as a 64-bit fraction
/// (bit 63 = 1/2, bit 62 = 1/4, …), the fixed-point form
/// [`bernoulli_mask64`] compares uniform bits against.
fn bernoulli_p_bits(p: f64) -> u64 {
    // 2^64 as f64; the product rounds to 53 significant bits, which is
    // already f64's own precision for p.
    (p * 18_446_744_073_709_551_616.0) as u64
}

/// Draws 64 independent Bernoulli(`p_bits`/2⁶⁴) lanes as a bit mask.
///
/// Each lane compares its own uniform bit stream against the binary
/// expansion of p, most significant bit first; a lane is decided the
/// first time its bit differs from p's. Expected RNG words consumed:
/// ~7.3 (each word decides half the remaining lanes); worst case 64.
/// Draw count is part of the shared corruption contract — both the
/// reference and packed paths call exactly this function.
fn bernoulli_mask64<R: Rng>(p_bits: u64, rng: &mut R) -> u64 {
    let mut undecided = u64::MAX;
    let mut mask = 0u64;
    let mut j = 63u32;
    loop {
        let r = rng.next_u64();
        if (p_bits >> j) & 1 == 1 {
            // Lanes whose uniform bit is 0 here are < p: flip.
            mask |= undecided & !r;
            undecided &= r;
        } else {
            // Lanes whose uniform bit is 1 here are > p: no flip.
            undecided &= !r;
        }
        if undecided == 0 || j == 0 {
            break;
        }
        j -= 1;
        // All remaining p bits zero: no lane can still go below p.
        if p_bits & ((1u64 << j << 1) - 1) == 0 {
            break;
        }
    }
    mask
}

/// Visits each 64-aligned block of `[lo, hi)` in ascending order as
/// `(word_idx, block_lo, block_hi)` with `block_lo..block_hi` the chip
/// range of `[lo, hi)` inside that block.
fn for_each_block(lo: usize, hi: usize, mut f: impl FnMut(usize, usize, usize)) {
    let mut w = lo / 64;
    while w * 64 < hi {
        f(w, (w * 64).max(lo), (w * 64 + 64).min(hi));
        w += 1;
    }
}

/// Lane mask selecting chips `block_lo..block_hi` of word `w`.
fn block_mask(w: usize, block_lo: usize, block_hi: usize) -> u64 {
    let a = block_lo - w * 64;
    let width = block_hi - block_lo;
    if width == 64 {
        u64::MAX
    } else {
        ((1u64 << width) - 1) << a
    }
}

/// Counts chip errors per 32-chip codeword between a transmitted and a
/// received chip stream — ground truth for SoftPHY hint evaluation.
pub fn codeword_flip_counts(tx: &[bool], rx: &[bool]) -> Vec<u8> {
    tx.chunks(32)
        .zip(rx.chunks(32))
        .map(|(a, b)| a.iter().zip(b).filter(|(x, y)| x != y).count() as u8)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// The in-place refill, over a profile left by a longer frame,
    /// equals `from_interference`.
    #[test]
    fn refill_equals_from_interference() {
        use crate::overlap::InterferenceSpan;
        let span = |start, end, interference_mw, dominant_mw| InterferenceSpan {
            start,
            end,
            interference_mw,
            dominant_mw,
        };
        let long = [span(0, 900, 0.0, 0.0), span(900, 5000, 2e-9, 1e-9)];
        let short = [
            span(0, 40, 3e-10, 3e-10),
            span(40, 70, 0.0, 0.0),
            span(70, 128, 5e-9, 4e-9),
        ];
        let mut profile = ErrorProfile::from_interference(1e-8, 7.9e-11, &long);
        for spans in [&short[..], &long[..], &[]] {
            profile.refill_from_interference(1e-8, 7.9e-11, spans);
            assert_eq!(
                profile,
                ErrorProfile::from_interference(1e-8, 7.9e-11, spans)
            );
        }
    }

    /// The in-place redraw, over errors left by a longer and denser
    /// frame, equals a fresh draw and consumes the same RNG words, in
    /// every regime of the draw contract.
    #[test]
    fn redraw_equals_draw() {
        let profiles = [
            (9_000, ErrorProfile::uniform(9_000, 0.6)),
            (3_000, ErrorProfile::uniform(3_000, 0.01)),
            (
                5_000,
                ErrorProfile::from_pieces(vec![
                    (0, 100, 0.0),
                    (100, 163, 0.8),
                    (163, 2_000, 0.05),
                    (2_000, 4_000, 1e-3),
                    (4_000, 6_000, 0.3), // runs past the frame
                ]),
            ),
            (700, ErrorProfile::uniform(700, 0.0)),
            (0, ErrorProfile::uniform(64, 0.4)),
        ];
        let mut errors = ChipErrors::default();
        for (seed, (len, profile)) in profiles.iter().enumerate() {
            let (mut a, mut b) = (
                StdRng::seed_from_u64(seed as u64),
                StdRng::seed_from_u64(seed as u64),
            );
            errors.redraw(*len, profile, &mut a);
            assert_eq!(errors, ChipErrors::draw(*len, profile, &mut b), "{seed}");
            assert_eq!(
                a.gen::<u64>(),
                b.gen::<u64>(),
                "RNG position, profile {seed}"
            );
        }
    }

    /// A draw over a prefix of the frame sets the same chips below the
    /// cut as the full draw, in every regime of the draw contract and
    /// for cuts on and inside a lane: spans are walked in ascending
    /// order and each consumes its draws lane by lane from its start,
    /// so clipping its end only drops the draws past the cut.
    #[test]
    fn prefix_draw_equals_full_draw_below_the_cut() {
        let len = 5_000;
        let profiles = [
            ErrorProfile::uniform(len as u64, 0.6),
            ErrorProfile::uniform(len as u64, 0.3),
            ErrorProfile::uniform(len as u64, 0.005),
            ErrorProfile::from_pieces(vec![
                (0, 100, 0.0),
                (100, 163, 0.8),
                (163, 2_000, 0.05),
                (2_000, 2_001, 0.5),
                (2_001, 4_000, 1e-3),
                (4_000, 6_000, 0.3), // runs past the frame
            ]),
        ];
        let cuts = [
            0, 1, 63, 64, 65, 100, 163, 200, 256, 1_999, 2_001, 4_095, 4_999,
        ];
        for (i, profile) in profiles.iter().enumerate() {
            for seed in 0..8u64 {
                let full = ChipErrors::draw(len, profile, &mut StdRng::seed_from_u64(seed));
                let mut full_chips = ChipWords::zeros(len);
                full.apply(&mut full_chips);
                let mut prefix = ChipErrors::default();
                for &cut in &cuts {
                    prefix.redraw(cut, profile, &mut StdRng::seed_from_u64(seed));
                    let mut chips = ChipWords::zeros(len);
                    prefix.apply(&mut chips);
                    for c in 0..cut {
                        assert_eq!(
                            chips.get(c),
                            full_chips.get(c),
                            "profile {i}, seed {seed}, cut {cut}, chip {c}"
                        );
                    }
                }
            }
        }
    }

    /// The plain cast in [`geometric_skip`] is the floor at the extremes
    /// of the sparse regime's draws: the smallest and largest uniforms
    /// the sampler accepts, against the smallest and largest sparse p
    /// (and the jammed edge, past which no span samples geometrically).
    #[test]
    fn geometric_skip_is_the_floor() {
        let us = [
            f64::MIN_POSITIVE.next_up(),
            1e-300,
            1e-20,
            1e-3,
            0.5,
            0.9,
            1.0 - 1e-12,
            1.0f64.next_down(),
        ];
        let ps = [
            1e-12,
            1e-12f64.next_up(),
            1e-9,
            1e-6,
            1e-3,
            0.01,
            0.02,
            0.5f64.next_down(),
        ];
        for &u in &us {
            for &p in &ps {
                let q = (-p).ln_1p();
                let x = u.ln() / q;
                assert!(x > 0.0 && x < 9_007_199_254_740_992.0, "u {u}, p {p}: {x}");
                assert_eq!(geometric_skip(u, q), x.floor() as i64, "u {u}, p {p}");
            }
        }
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..100_000 {
            let (u, p): (f64, f64) = (rng.gen(), 1e-12 + rng.gen::<f64>() * 0.4);
            if u <= f64::MIN_POSITIVE {
                continue;
            }
            let q = (-p).ln_1p();
            assert_eq!(
                geometric_skip(u, q),
                (u.ln() / q).floor() as i64,
                "u {u}, p {p}"
            );
        }
    }

    #[test]
    fn zero_error_profile_is_identity() {
        let mut rng = StdRng::seed_from_u64(1);
        let chips: Vec<bool> = (0..4096).map(|i| i % 3 == 0).collect();
        let profile = ErrorProfile::uniform(4096, 0.0);
        assert_eq!(corrupt_chips(&chips, &profile, &mut rng), chips);
    }

    #[test]
    fn uniform_error_rate_is_respected() {
        let mut rng = StdRng::seed_from_u64(2);
        let n = 200_000;
        let chips = vec![false; n];
        let p = 0.03;
        let profile = ErrorProfile::uniform(n as u64, p);
        let rx = corrupt_chips(&chips, &profile, &mut rng);
        let errors = rx.iter().filter(|&&c| c).count();
        let rate = errors as f64 / n as f64;
        assert!((rate - p).abs() < 0.003, "rate {rate}");
    }

    #[test]
    fn jammed_span_is_random() {
        let mut rng = StdRng::seed_from_u64(3);
        let n = 10_000;
        let chips = vec![false; n];
        let profile = ErrorProfile::uniform(n as u64, 0.5);
        let rx = corrupt_chips(&chips, &profile, &mut rng);
        let ones = rx.iter().filter(|&&c| c).count() as f64 / n as f64;
        assert!((ones - 0.5).abs() < 0.03, "ones {ones}");
    }

    #[test]
    fn errors_respect_span_boundaries() {
        let mut rng = StdRng::seed_from_u64(4);
        let n = 3000u64;
        let chips = vec![false; n as usize];
        // Only the middle third is noisy.
        let profile = ErrorProfile {
            spans: vec![(0, 1000, 0.0), (1000, 2000, 0.3), (2000, 3000, 0.0)],
            len_chips: n,
        };
        let rx = corrupt_chips(&chips, &profile, &mut rng);
        assert!(rx[..1000].iter().all(|&c| !c));
        assert!(rx[2000..].iter().all(|&c| !c));
        let mid = rx[1000..2000].iter().filter(|&&c| c).count();
        assert!(mid > 200 && mid < 400, "mid errors {mid}");
    }

    #[test]
    fn burst_profile_tiles_the_frame() {
        // Refilled over a longer profile: nothing of it survives.
        let mut p = ErrorProfile::uniform(500, 0.2);
        p.refill_with_bursts(100, 0.01, &[(0, 10), (40, 60), (90, 100)], 0.35);
        assert_eq!(p.len_chips(), 100);
        assert_eq!(
            p.spans(),
            [
                (0, 10, 0.35),
                (10, 40, 0.01),
                (40, 60, 0.35),
                (60, 90, 0.01),
                (90, 100, 0.35)
            ]
        );
        p.refill_with_bursts(80, 0.01, &[], 0.35);
        assert_eq!(p.spans(), [(0, 80, 0.01)]);
    }

    #[test]
    fn truncated_chip_stream_is_handled() {
        let mut rng = StdRng::seed_from_u64(5);
        let chips = vec![true; 100];
        let profile = ErrorProfile::uniform(1000, 0.1);
        let rx = corrupt_chips(&chips, &profile, &mut rng);
        assert_eq!(rx.len(), 100);
    }

    #[test]
    fn profile_from_interference_maps_sinr() {
        use crate::overlap::InterferenceSpan;
        let signal = 1e-7; // -40 dBm
        let noise = 1e-10; // -70 dBm → SNR 30 dB, error ~0
        let jam = 1e-6; // 10 dB above signal → SINR ≈ -10 dB
        let profile = ErrorProfile::from_interference(
            signal,
            noise,
            &[
                InterferenceSpan {
                    start: 0,
                    end: 100,
                    interference_mw: 0.0,
                    dominant_mw: 0.0,
                },
                InterferenceSpan {
                    start: 100,
                    end: 200,
                    interference_mw: jam,
                    dominant_mw: jam,
                },
            ],
        );
        assert!(profile.prob_at(50) < 1e-9);
        assert!(profile.prob_at(150) > 0.2);
        assert_eq!(profile.len_chips(), 200);
    }

    #[test]
    fn expected_errors_matches_simulation() {
        let mut rng = StdRng::seed_from_u64(6);
        let n = 100_000u64;
        let profile = ErrorProfile {
            spans: vec![(0, 50_000, 0.01), (50_000, 100_000, 0.2)],
            len_chips: n,
        };
        let chips = vec![false; n as usize];
        let expect = profile.expected_errors();
        let mut total = 0usize;
        let trials = 5;
        for _ in 0..trials {
            let rx = corrupt_chips(&chips, &profile, &mut rng);
            total += rx.iter().filter(|&&c| c).count();
        }
        let mean = total as f64 / trials as f64;
        assert!(
            (mean - expect).abs() / expect < 0.05,
            "mean {mean} expect {expect}"
        );
    }

    #[test]
    fn packed_corruption_is_bit_identical() {
        // Spans exercising every regime: skipped, sparse, dense, and a
        // span running past the truncated reception.
        let profile = ErrorProfile::from_pieces(vec![
            (0, 500, 0.0),
            (500, 1500, 0.02),
            (1500, 2500, 0.7),
            (2500, 3000, 0.3),
            (3000, 5000, 0.9),
        ]);
        let chips: Vec<bool> = (0..4000).map(|i| i % 5 == 0).collect();
        let packed = ChipWords::from_bools(&chips);
        for seed in 0..8 {
            let mut rng_a = StdRng::seed_from_u64(seed);
            let mut rng_b = StdRng::seed_from_u64(seed);
            let reference = corrupt_chips(&chips, &profile, &mut rng_a);
            let mut fast = packed.clone();
            corrupt_chip_words_in_place(&mut fast, &profile, &mut rng_b);
            assert_eq!(fast, ChipWords::from_bools(&reference), "seed {seed}");
        }
    }

    #[test]
    fn flip_counts_ground_truth() {
        let tx = vec![false; 96];
        let mut rx = tx.clone();
        rx[0] = true; // codeword 0: 1 flip
        rx[40] = true; // codeword 1: 2 flips
        rx[41] = true;
        let counts = codeword_flip_counts(&tx, &rx);
        assert_eq!(counts, vec![1, 2, 0]);
    }
}
