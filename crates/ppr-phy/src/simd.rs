//! Runtime-dispatched SIMD kernels: despreading and the DSP backend.
//!
//! Two kernel families live here, sharing one discipline — a portable
//! scalar reference, runtime feature detection, a cached process-wide
//! choice, and the `PPR_NO_SIMD=1` escape hatch:
//!
//! * [`DespreadKernel`] — the vectorized nearest-codeword decode.
//! * [`DspKernel`] — the sample-level DSP backend's inner loops:
//!   waveform superposition ([`DspKernel::axpy_rotated`]) and the
//!   matched-filter bank ([`DspKernel::demod_full_windows`]), each with
//!   one scalar reference and one AVX2 tier. Every kernel is
//!   **bit-identical** to its scalar reference — mandatory, because the
//!   collision-anatomy experiment (Fig. 13) feeds the DSP path into the
//!   pinned golden-registry fingerprint.
//!
//! ## Despreading
//!
//! [`chips::decide`](crate::chips::decide) is the specification: it
//! scans all sixteen codewords of the 802.15.4 book with an XOR +
//! popcount per candidate. Each [`DespreadKernel`] tier has exactly one
//! despread body, [`DespreadKernel::despread_into`], which writes the
//! decoded symbols and their hints straight into two caller-supplied
//! byte columns — the layout a
//! [`SymbolView`](crate::view::SymbolView) holds. The
//! [`Decision`]-returning entries ([`DespreadKernel::decide_into`],
//! [`decide_batch`]) wrap that same body.
//!
//! **Exact-codeword shortcut.** By §3.2 a hint is the Hamming distance
//! to the nearest codeword, so a word that *is* a codeword decodes to
//! that symbol with hint 0 — the sixteen codewords are distinct, so no
//! other candidate can tie at distance 0. `(w >> 1) & 15` is a perfect
//! hash of the book (checked at compile time), so one table lookup and
//! one compare tell whether a word is a codeword. Every tier tests that
//! before it scans, which makes despreading cost scale with the chip
//! errors on the channel rather than with the frame length: most lanes
//! of a testbed reception arrive clean.
//!
//! * **Scalar** — the shortcut per word, then `chips::decide` on a miss.
//! * **AVX2** — 8 words per 256-bit register; the shortcut is two
//!   `vpermd` table halves and one compare, and the scan (skipped when
//!   all 8 words are codewords) a `pshufb` nibble-LUT popcount.
//! * **AVX-512** — 16 words per 512-bit register; the shortcut is one
//!   shift/and, one `vpermd` and one compare, the scan uses the native
//!   `vpopcntd` (`AVX512VPOPCNTDQ`), and masked loads plus masked
//!   `vpmovdb` stores handle the tail, so there is no scalar remainder.
//!
//! Every kernel reproduces `decide` **bit-identically** on every input
//! word — truncated or zero-padded codewords included — with its
//! tie-break toward the lowest symbol index: scanned candidates are
//! folded as `(distance << 4) | symbol` keys whose numeric minimum
//! selects the smallest distance and breaks ties toward the lowest
//! symbol, exactly the fold in `chips::decide`. `tests/simd_parity.rs`
//! at the workspace root proves every available kernel agrees with the
//! spec, shortcut hits and misses alike.
//!
//! ## Kernel selection
//!
//! [`DespreadKernel::active`] and [`DspKernel::active`] each pick the
//! widest kernel the CPU supports (via `is_x86_feature_detected!`)
//! once per process and cache it. Setting the environment variable
//! `PPR_NO_SIMD=1` before the first use forces the scalar reference
//! paths — the escape hatch for debugging and for apples-to-apples
//! baseline measurements. On non-x86-64 targets only the scalar
//! kernels exist.
//!
//! This module is one of exactly two places in the workspace that use
//! `unsafe` (the other is `ppr_mac::clmul`, the PCLMULQDQ CRC-32; the
//! crate is `#![deny(unsafe_code)]`): every unsafe block is a
//! `core::arch` intrinsic call guarded by the corresponding runtime
//! feature check at dispatch time. The `unsafe-containment` lint
//! (`cargo run -p ppr-lint`) enforces both halves mechanically — only
//! this module and the `unsafe-allowlist` entries in `ppr-lint.toml`
//! may contain `unsafe`, and every site must carry a `// SAFETY:`
//! justification.

use crate::chips::{decide, Decision, CODEBOOK, NUM_SYMBOLS};
use crate::complex::Complex32;
use std::sync::OnceLock;

/// One despreading implementation: the scalar reference or one of the
/// vectorized codebook scans, each behind the exact-codeword shortcut.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DespreadKernel {
    /// The portable scalar tier (shortcut, then `chips::decide`).
    Scalar,
    /// 256-bit `pshufb` nibble-popcount scan (8 words per step).
    Avx2,
    /// 512-bit `vpopcntd` scan (16 words per step, masked tail).
    Avx512,
}

impl DespreadKernel {
    /// Short name used in bench output and JSON snapshots.
    pub fn name(self) -> &'static str {
        match self {
            DespreadKernel::Scalar => "scalar",
            DespreadKernel::Avx2 => "avx2",
            DespreadKernel::Avx512 => "avx512",
        }
    }

    /// Every kernel this CPU can run, widest last. Always starts with
    /// [`DespreadKernel::Scalar`]; ignores `PPR_NO_SIMD`.
    pub fn available() -> Vec<DespreadKernel> {
        let mut out = vec![DespreadKernel::Scalar];
        #[cfg(target_arch = "x86_64")]
        {
            if is_x86_feature_detected!("avx2") {
                out.push(DespreadKernel::Avx2);
            }
            if is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("avx512vpopcntdq") {
                out.push(DespreadKernel::Avx512);
            }
        }
        out
    }

    /// The kernel every despread in this process uses: the widest
    /// available one, or the scalar reference when `PPR_NO_SIMD=1` is
    /// set. Detected once and cached; changing the environment variable
    /// afterwards has no effect.
    pub fn active() -> DespreadKernel {
        static ACTIVE: OnceLock<DespreadKernel> = OnceLock::new();
        *ACTIVE.get_or_init(|| {
            // ppr-lint: allow(env-hygiene) — the documented kernel escape
            // hatch; read once per process and cached, so it cannot make
            // two despread calls in one run disagree.
            if std::env::var_os("PPR_NO_SIMD").is_some_and(|v| v == "1") {
                return DespreadKernel::Scalar;
            }
            *Self::available().last().expect("scalar always available")
        })
    }

    /// Despreads every received 32-chip word with this kernel: word `i`
    /// decodes to `symbols[i]` with hint `hints[i]`, bit-identical to
    /// [`chips::decide`](crate::chips::decide) on that word for every
    /// kernel. This is each tier's one despread body.
    ///
    /// # Panics
    /// Panics unless both columns have exactly `received.len()` entries.
    pub fn despread_into(self, received: &[u32], symbols: &mut [u8], hints: &mut [u8]) {
        assert!(
            symbols.len() == received.len() && hints.len() == received.len(),
            "{} words into columns of {} symbols and {} hints",
            received.len(),
            symbols.len(),
            hints.len()
        );
        match self {
            DespreadKernel::Scalar => scalar_columns(received, symbols, hints),
            #[cfg(target_arch = "x86_64")]
            DespreadKernel::Avx2 => x86::run_avx2(received, symbols, hints),
            #[cfg(target_arch = "x86_64")]
            DespreadKernel::Avx512 => x86::run_avx512(received, symbols, hints),
            #[cfg(not(target_arch = "x86_64"))]
            _ => scalar_columns(received, symbols, hints),
        }
    }

    /// Decodes every received 32-chip word with this kernel, appending
    /// one [`Decision`] per word to `out`: [`Self::despread_into`] staged
    /// through fixed-size stack columns.
    pub fn decide_into(self, received: &[u32], out: &mut Vec<Decision>) {
        const STAGE: usize = 256;
        let (mut symbols, mut hints) = ([0u8; STAGE], [0u8; STAGE]);
        out.reserve(received.len());
        for words in received.chunks(STAGE) {
            let (symbols, hints) = (&mut symbols[..words.len()], &mut hints[..words.len()]);
            self.despread_into(words, symbols, hints);
            out.extend(
                symbols
                    .iter()
                    .zip(hints.iter())
                    .map(|(&symbol, &distance)| Decision { symbol, distance }),
            );
        }
    }
}

/// Batch nearest-codeword decode with the process-wide
/// [`DespreadKernel::active`] kernel: one [`Decision`] per received
/// 32-chip word.
pub fn decide_batch(received: &[u32]) -> Vec<Decision> {
    let mut out = Vec::with_capacity(received.len());
    DespreadKernel::active().decide_into(received, &mut out);
    out
}

/// Despreads `symbols.len()` codeword-aligned symbols straight out of
/// packed 64-chip lanes — codeword `2k` in the low half of lane `k`,
/// codeword `2k + 1` in the high half, the layout
/// [`ChipWords`](crate::chips::ChipWords) stores — into the two columns,
/// on the active kernel and with no intermediate gather copy on
/// little-endian x86-64. This is the
/// [`SymbolView::fill`](crate::view::SymbolView::fill) step: a whole
/// frame rendered from chip 0 puts every link byte in one lane, so its
/// symbols are exactly this layout.
///
/// # Panics
/// Panics if the columns differ in length or ask for more than the
/// `2 × lanes.len()` codewords available.
pub fn despread_lanes(lanes: &[u64], symbols: &mut [u8], hints: &mut [u8]) {
    let n = symbols.len();
    assert!(
        n <= lanes.len() * 2,
        "{n} codewords from {} lanes",
        lanes.len()
    );
    #[cfg(all(target_arch = "x86_64", target_endian = "little"))]
    {
        x86::run_lanes(lanes, symbols, hints);
    }
    #[cfg(not(all(target_arch = "x86_64", target_endian = "little")))]
    {
        let words: Vec<u32> = (0..n)
            .map(|s| {
                let w = lanes[s / 2];
                if s % 2 == 0 {
                    w as u32
                } else {
                    (w >> 32) as u32
                }
            })
            .collect();
        DespreadKernel::active().despread_into(&words, symbols, hints);
    }
}

/// The exact-codeword tables, indexed by a word's slot `(w >> 1) & 15`:
/// the codeword that owns each slot, and its symbol. Built at compile
/// time; the build fails unless the slot function is a perfect hash of
/// the codebook, which is what makes "the word equals its slot's
/// codeword" an exact membership test.
const EXACT: ([u32; NUM_SYMBOLS], [u32; NUM_SYMBOLS]) = {
    assert!(NUM_SYMBOLS == 16, "the slot is four bits wide");
    let (mut codewords, mut symbols) = ([0u32; NUM_SYMBOLS], [0u32; NUM_SYMBOLS]);
    let mut taken = [false; NUM_SYMBOLS];
    let mut s = 0;
    while s < NUM_SYMBOLS {
        let slot = exact_slot(CODEBOOK[s]);
        assert!(
            !taken[slot],
            "(w >> 1) & 15 must be a perfect hash of CODEBOOK"
        );
        taken[slot] = true;
        codewords[slot] = CODEBOOK[s];
        symbols[slot] = s as u32;
        s += 1;
    }
    (codewords, symbols)
};
/// Codeword owning each exact-match slot (see [`EXACT`]).
const EXACT_CODEWORD: [u32; NUM_SYMBOLS] = EXACT.0;
/// Symbol of each exact-match slot (see [`EXACT`]).
const EXACT_SYMBOL: [u32; NUM_SYMBOLS] = EXACT.1;

/// A word's exact-match slot: chips 1–4.
#[inline]
const fn exact_slot(w: u32) -> usize {
    ((w >> 1) & 15) as usize
}

/// The scalar tier: the exact-codeword shortcut per word, and the
/// [`chips::decide`](crate::chips::decide) scan on a miss. Also the
/// remainder loop of the AVX2 tier.
fn scalar_columns(received: &[u32], symbols: &mut [u8], hints: &mut [u8]) {
    for ((&w, symbol), hint) in received.iter().zip(symbols).zip(hints) {
        let slot = exact_slot(w);
        (*symbol, *hint) = if EXACT_CODEWORD[slot] == w {
            (EXACT_SYMBOL[slot] as u8, 0)
        } else {
            let d = decide(w);
            (d.symbol, d.distance)
        };
    }
}

/// One DSP-backend implementation: the scalar reference or the AVX2
/// tier.
///
/// Unlike despreading (integer XOR + popcount, where lane order is
/// irrelevant), these kernels run floating-point reductions, so each
/// one is built to reproduce the scalar reference's exact operation
/// *order and shape* — same multiplies, same addition order, no FMA
/// contraction — which is what makes them bit-identical rather than
/// merely close. `tests/dsp_simd_parity.rs` at the workspace root
/// proves the parity on arbitrary inputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DspKernel {
    /// The portable scalar reference paths.
    Scalar,
    /// 256-bit tier: `addsub`-based complex rotation (4 samples per
    /// step) and the gathered matched-filter bank (8 chips per step).
    Avx2,
}

impl DspKernel {
    /// Short name used in bench output and JSON snapshots.
    pub fn name(self) -> &'static str {
        match self {
            DspKernel::Scalar => "scalar",
            DspKernel::Avx2 => "avx2",
        }
    }

    /// Every kernel this CPU can run, widest last. Always starts with
    /// [`DspKernel::Scalar`]; ignores `PPR_NO_SIMD`.
    pub fn available() -> Vec<DspKernel> {
        let mut out = vec![DspKernel::Scalar];
        #[cfg(target_arch = "x86_64")]
        if is_x86_feature_detected!("avx2") {
            out.push(DspKernel::Avx2);
        }
        out
    }

    /// The kernel every DSP call in this process uses: the widest
    /// available one, or the scalar reference when `PPR_NO_SIMD=1` is
    /// set. Detected once and cached, independently of
    /// [`DespreadKernel::active`].
    pub fn active() -> DspKernel {
        static ACTIVE: OnceLock<DspKernel> = OnceLock::new();
        *ACTIVE.get_or_init(|| {
            // ppr-lint: allow(env-hygiene) — the documented kernel escape
            // hatch; read once per process and cached, so it cannot make
            // two DSP calls in one run disagree.
            if std::env::var_os("PPR_NO_SIMD").is_some_and(|v| v == "1") {
                return DspKernel::Scalar;
            }
            *Self::available().last().expect("scalar always available")
        })
    }

    /// Superposes a rotated, scaled waveform:
    /// `out[i] += (wave[i] * rot) * amp` for
    /// `i < min(out.len(), wave.len())` — the inner loop of the
    /// sample-level channel's transmitter superposition.
    ///
    /// Bit-identical to the scalar loop for every kernel: the complex
    /// multiply is decomposed into the same four products and two
    /// same-order additions as
    /// [`Complex32::mul`](crate::complex::Complex32), with no FMA
    /// contraction.
    pub fn axpy_rotated(self, out: &mut [Complex32], wave: &[Complex32], rot: Complex32, amp: f32) {
        match self {
            DspKernel::Scalar => axpy_rotated_scalar(out, wave, rot, amp),
            #[cfg(target_arch = "x86_64")]
            DspKernel::Avx2 => x86::run_axpy_avx2(out, wave, rot, amp),
            #[cfg(not(target_arch = "x86_64"))]
            _ => axpy_rotated_scalar(out, wave, rot, amp),
        }
    }

    /// Matched-filter bank over chips whose correlation window lies
    /// fully inside `samples`: appends one soft value per chip for
    /// chips `0..full`, where chip `k` correlates
    /// `samples[start + k·sps ..][..pulse.len()]` (rail selected by
    /// the chip's parity against `first_chip_even`) against `pulse`
    /// and normalizes by `energy`.
    ///
    /// The *caller* (`MskModem::demodulate`) computes `full` so that
    /// every window is in bounds and handles truncated tail chips with
    /// the scalar `chip_soft_value`, which keeps the graceful
    /// mid-pulse truncation semantics out of the hot kernel.
    ///
    /// # Panics
    /// Panics if any window `start + k·sps + pulse.len()`, `k < full`,
    /// exceeds `samples.len()`.
    #[allow(clippy::too_many_arguments)] // mirrors the demodulator's geometry verbatim
    pub fn demod_full_windows(
        self,
        samples: &[Complex32],
        pulse: &[f32],
        energy: f32,
        start: usize,
        sps: usize,
        full: usize,
        first_chip_even: bool,
        out: &mut Vec<f32>,
    ) {
        if full > 0 {
            assert!(
                start + (full - 1) * sps + pulse.len() <= samples.len(),
                "window of chip {} out of bounds",
                full - 1
            );
        }
        match self {
            #[cfg(target_arch = "x86_64")]
            DspKernel::Avx2 => x86::run_demod_avx2(
                samples,
                pulse,
                energy,
                start,
                sps,
                full,
                first_chip_even,
                out,
            ),
            _ => demod_full_windows_scalar(
                samples,
                pulse,
                energy,
                start,
                sps,
                full,
                first_chip_even,
                out,
            ),
        }
    }
}

/// The process's active kernel selection as one stable provenance
/// string, `despread=<name> dsp=<name>`. The differential harness
/// (`ppr-cli diff`) prints it per combination — the SIMD/scalar axis of
/// a cross-validation run is visible in the report, not inferred.
pub fn active_kernel_signature() -> String {
    format!(
        "despread={} dsp={}",
        DespreadKernel::active().name(),
        DspKernel::active().name()
    )
}

/// Scalar reference for [`DspKernel::axpy_rotated`] — the exact loop
/// the sample-level channel ran before vectorization.
fn axpy_rotated_scalar(out: &mut [Complex32], wave: &[Complex32], rot: Complex32, amp: f32) {
    for (o, &w) in out.iter_mut().zip(wave) {
        *o += (w * rot).scale(amp);
    }
}

/// Scalar reference for [`DspKernel::demod_full_windows`]: the body of
/// `MskModem::chip_soft_value` specialized to in-bounds windows (the
/// truncation branch can never fire, so dropping it changes nothing).
#[allow(clippy::too_many_arguments)] // mirrors the demodulator's geometry verbatim
fn demod_full_windows_scalar(
    samples: &[Complex32],
    pulse: &[f32],
    energy: f32,
    start: usize,
    sps: usize,
    full: usize,
    first_chip_even: bool,
    out: &mut Vec<f32>,
) {
    for k in 0..full {
        let even = (k % 2 == 0) == first_chip_even;
        let base = start + k * sps;
        let mut acc = 0.0f32;
        for (i, &p) in pulse.iter().enumerate() {
            let s = if even {
                samples[base + i].re
            } else {
                samples[base + i].im
            };
            acc += s * p;
        }
        out.push(acc / energy);
    }
}

#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)] // core::arch intrinsics; dispatch checks features.
mod x86 {
    use super::{scalar_columns, EXACT_CODEWORD, EXACT_SYMBOL};
    use crate::chips::CODEBOOK;
    use crate::complex::Complex32;
    use core::arch::x86_64::*;

    // Both scans fold `(hamming << 4) | symbol` keys with an unsigned
    // minimum, mirroring the branchless scalar fold in `chips::decide`.
    // Keys are at most (32 << 4) | 15 = 527. A word whose shortcut hit
    // gets the key of distance 0, which is its symbol.

    /// Safe entry: re-asserts the feature (a cached atomic load) so the
    /// `unsafe` call is locally justified, not dependent on the caller.
    pub(super) fn run_avx2(received: &[u32], symbols: &mut [u8], hints: &mut [u8]) {
        assert!(is_x86_feature_detected!("avx2"));
        // SAFETY: feature presence checked on the line above; the
        // dispatcher asserted both columns are `received.len()` long.
        unsafe { avx2_columns(received, symbols, hints) }
    }

    /// Safe entry for the AVX-512 kernel (see [`run_avx2`]).
    pub(super) fn run_avx512(received: &[u32], symbols: &mut [u8], hints: &mut [u8]) {
        assert!(is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("avx512vpopcntdq"));
        // SAFETY: feature presence checked on the line above; the
        // dispatcher asserted both columns are `received.len()` long.
        unsafe { avx512_columns(received, symbols, hints) }
    }

    /// Zero-copy lane decode: on little-endian x86-64 a `&[u64]` of
    /// packed 64-chip lanes *is* a `&[u32]` of codewords in symbol
    /// order, so the active kernel can read the lane memory directly.
    #[cfg(target_endian = "little")]
    pub(super) fn run_lanes(lanes: &[u64], symbols: &mut [u8], hints: &mut [u8]) {
        let n = symbols.len();
        // SAFETY: `u32` has weaker alignment than `u64`; the slice
        // covers `n ≤ 2 × lanes.len()` `u32`s (asserted by
        // `despread_lanes`) inside the lanes allocation; `u32` has no
        // invalid bit patterns; and the reborrow is read-only for the
        // lifetime of `words`.
        let words = unsafe { core::slice::from_raw_parts(lanes.as_ptr().cast::<u32>(), n) };
        super::DespreadKernel::active().despread_into(words, symbols, hints);
    }

    /// Per-32-bit-lane popcount for 256-bit vectors: `pshufb` nibble
    /// lookup (the LUT duplicated across both 128-bit halves for the
    /// in-lane shuffle), then `maddubs`/`madd` to sum the four byte
    /// counts of each lane (counts ≤ 8 per byte, so the 16-bit partials
    /// cannot overflow).
    // SAFETY: caller must ensure AVX2 is available (`run_avx2` asserts
    // it); pure register arithmetic, no memory access.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn popcnt_epi32_avx2(x: __m256i) -> __m256i {
        #[rustfmt::skip]
        let lut = _mm256_setr_epi8(
            0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,
            0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,
        );
        let mask = _mm256_set1_epi8(0x0F);
        let lo = _mm256_and_si256(x, mask);
        let hi = _mm256_and_si256(_mm256_srli_epi16::<4>(x), mask);
        let per_byte = _mm256_add_epi8(_mm256_shuffle_epi8(lut, lo), _mm256_shuffle_epi8(lut, hi));
        let pairs = _mm256_maddubs_epi16(per_byte, _mm256_set1_epi8(1));
        _mm256_madd_epi16(pairs, _mm256_set1_epi16(1))
    }

    /// Looks up a 16-entry table at per-lane indices `0..16`:
    /// `vpermd` reads only an index's low three bits, so each table
    /// half is permuted and bit 3 picks between them.
    // SAFETY: caller must ensure AVX2 is available; pure register
    // arithmetic, no memory access.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn lookup16_avx2(lo: __m256i, hi: __m256i, idx: __m256i) -> __m256i {
        let upper = _mm256_cmpgt_epi32(idx, _mm256_set1_epi32(7));
        _mm256_blendv_epi8(
            _mm256_permutevar8x32_epi32(lo, idx),
            _mm256_permutevar8x32_epi32(hi, idx),
            upper,
        )
    }

    /// AVX2 kernel: 8 received words per iteration. The scan runs only
    /// when some word of the vector is not a codeword; the keys are
    /// narrowed to bytes with two saturating packs and one `vpermd`, and
    /// the fewer-than-8 tail is the scalar tier.
    // SAFETY: caller must ensure AVX2 is available (`run_avx2` asserts
    // it) and that both columns are `received.len()` long. Vector loads
    // are unaligned `loadu`s of in-bounds `chunks_exact` slices and of
    // the 16-entry tables; the stores are safe slice copies.
    #[target_feature(enable = "avx2")]
    unsafe fn avx2_columns(received: &[u32], symbols: &mut [u8], hints: &mut [u8]) {
        let table = |t: &[u32; 16], half: usize| {
            _mm256_loadu_si256(t.as_ptr().add(8 * half) as *const __m256i)
        };
        let (cw_lo, cw_hi) = (table(&EXACT_CODEWORD, 0), table(&EXACT_CODEWORD, 1));
        let (sym_lo, sym_hi) = (table(&EXACT_SYMBOL, 0), table(&EXACT_SYMBOL, 1));
        let nibble = _mm256_set1_epi32(15);
        // After the packs, dword 0/4 holds symbols 0–3/4–7 and dword 1/5
        // hints 0–3/4–7; this gathers symbols then hints into 128 bits.
        let compact = _mm256_setr_epi32(0, 4, 1, 5, 0, 0, 0, 0);
        let mut chunks = received.chunks_exact(8);
        let mut i = 0;
        for chunk in &mut chunks {
            let r = _mm256_loadu_si256(chunk.as_ptr() as *const __m256i);
            let slot = _mm256_and_si256(_mm256_srli_epi32::<1>(r), nibble);
            let exact = _mm256_cmpeq_epi32(lookup16_avx2(cw_lo, cw_hi, slot), r);
            let keys = if _mm256_movemask_epi8(exact) == -1 {
                lookup16_avx2(sym_lo, sym_hi, slot)
            } else {
                let mut best = _mm256_set1_epi32(u32::MAX as i32);
                for (s, &cw) in CODEBOOK.iter().enumerate() {
                    let x = _mm256_xor_si256(r, _mm256_set1_epi32(cw as i32));
                    let key = _mm256_or_si256(
                        _mm256_slli_epi32::<4>(popcnt_epi32_avx2(x)),
                        _mm256_set1_epi32(s as i32),
                    );
                    best = _mm256_min_epu32(best, key);
                }
                best
            };
            // Keys ≤ 527 split into symbols ≤ 15 and hints ≤ 32, so
            // neither saturating pack clips.
            let words =
                _mm256_packus_epi32(_mm256_and_si256(keys, nibble), _mm256_srli_epi32::<4>(keys));
            let bytes = _mm256_packus_epi16(words, words);
            let out = _mm256_castsi256_si128(_mm256_permutevar8x32_epi32(bytes, compact));
            let (s, h) = (_mm_cvtsi128_si64(out), _mm_extract_epi64::<1>(out));
            symbols[i..i + 8].copy_from_slice(&s.to_le_bytes());
            hints[i..i + 8].copy_from_slice(&h.to_le_bytes());
            i += 8;
        }
        scalar_columns(chunks.remainder(), &mut symbols[i..], &mut hints[i..]);
    }

    /// AVX-512 kernel: 16 received words per iteration with native
    /// per-lane popcount. The shortcut is one shift/and, one `vpermd`
    /// and one compare; the scan runs only when some live word is not a
    /// codeword. The tail is a masked load and masked `vpmovdb` stores,
    /// not a scalar loop.
    // SAFETY: caller must ensure AVX512F + AVX512VPOPCNTDQ are
    // available (`run_avx512` asserts both) and that both columns are
    // `received.len()` long. The masked `loadu` reads, and the masked
    // `vpmovdb` stores write, only the `n` lanes covered by `live`, all
    // inside `received[i..]` and the columns' `[i..]`; the table loads
    // read the 16-entry tables whole.
    #[target_feature(enable = "avx512f,avx512vpopcntdq")]
    unsafe fn avx512_columns(received: &[u32], symbols: &mut [u8], hints: &mut [u8]) {
        let exact_cw = _mm512_loadu_si512(EXACT_CODEWORD.as_ptr() as *const __m512i);
        let exact_sym = _mm512_loadu_si512(EXACT_SYMBOL.as_ptr() as *const __m512i);
        let nibble = _mm512_set1_epi32(15);
        let mut i = 0;
        while i < received.len() {
            let n = (received.len() - i).min(16);
            let live: __mmask16 = if n == 16 { !0 } else { (1u16 << n) - 1 };
            let r = _mm512_maskz_loadu_epi32(live, received.as_ptr().add(i) as *const i32);
            let slot = _mm512_and_si512(_mm512_srli_epi32::<1>(r), nibble);
            let exact =
                _mm512_mask_cmpeq_epi32_mask(live, _mm512_permutexvar_epi32(slot, exact_cw), r);
            let keys = if exact == live {
                _mm512_permutexvar_epi32(slot, exact_sym)
            } else {
                let mut best = _mm512_set1_epi32(u32::MAX as i32);
                for (s, &cw) in CODEBOOK.iter().enumerate() {
                    let x = _mm512_xor_si512(r, _mm512_set1_epi32(cw as i32));
                    let key = _mm512_or_si512(
                        _mm512_slli_epi32::<4>(_mm512_popcnt_epi32(x)),
                        _mm512_set1_epi32(s as i32),
                    );
                    best = _mm512_min_epu32(best, key);
                }
                best
            };
            _mm512_mask_cvtepi32_storeu_epi8(
                symbols.as_mut_ptr().add(i) as *mut i8,
                live,
                _mm512_and_si512(keys, nibble),
            );
            _mm512_mask_cvtepi32_storeu_epi8(
                hints.as_mut_ptr().add(i) as *mut i8,
                live,
                _mm512_srli_epi32::<4>(keys),
            );
            i += n;
        }
    }

    // ---- DSP kernels ---------------------------------------------------
    //
    // `Complex32` is `#[repr(C)] { re: f32, im: f32 }`, so a slice of
    // complex samples is layout-identical to interleaved
    // `[re, im, re, im, …]` f32s — even float lanes carry I, odd lanes
    // carry Q. Every kernel below leans on that layout.

    /// Safe entry for the AVX2 superposition kernel (see [`run_avx2`]).
    pub(super) fn run_axpy_avx2(
        out: &mut [Complex32],
        wave: &[Complex32],
        rot: Complex32,
        amp: f32,
    ) {
        assert!(is_x86_feature_detected!("avx2"));
        // SAFETY: feature presence checked on the line above.
        unsafe { axpy_avx2(out, wave, rot, amp) }
    }

    /// AVX2 superposition: 4 complex samples per 256-bit register.
    ///
    /// The complex multiply is the textbook `addsub` decomposition:
    /// with `w = [re, im, …]` interleaved,
    /// `t1 = w · rot.re` and `t2 = swap_pairs(w) · rot.im`, then
    /// `addsub(t1, t2)` subtracts in the even (I) lanes and adds in the
    /// odd (Q) lanes, yielding exactly
    /// `(re·rr − im·ri, im·rr + re·ri)` — the same four products and
    /// same-order additions as the scalar `Complex32::mul` (addition
    /// commutes bit-exactly; no FMA is emitted from intrinsics), so the
    /// result is bit-identical to the scalar reference.
    // SAFETY: caller must ensure AVX2 is available (`run_axpy_avx2`
    // asserts it). Unaligned `loadu`/`storeu` on index `i ≤ n − 4` of
    // slices of length ≥ n; `Complex32` is `#[repr(C)] { f32, f32 }`.
    #[target_feature(enable = "avx2")]
    unsafe fn axpy_avx2(out: &mut [Complex32], wave: &[Complex32], rot: Complex32, amp: f32) {
        let n = out.len().min(wave.len());
        let vrr = _mm256_set1_ps(rot.re);
        let vri = _mm256_set1_ps(rot.im);
        let vamp = _mm256_set1_ps(amp);
        let mut i = 0;
        while i + 4 <= n {
            let w = _mm256_loadu_ps(wave.as_ptr().add(i) as *const f32);
            let o = _mm256_loadu_ps(out.as_ptr().add(i) as *const f32);
            let t1 = _mm256_mul_ps(w, vrr);
            // In-lane swap of re/im within each complex pair.
            let t2 = _mm256_mul_ps(_mm256_permute_ps(w, 0b10_11_00_01), vri);
            let prod = _mm256_addsub_ps(t1, t2);
            let r = _mm256_add_ps(o, _mm256_mul_ps(prod, vamp));
            _mm256_storeu_ps(out.as_mut_ptr().add(i) as *mut f32, r);
            i += 4;
        }
        for j in i..n {
            out[j] += (wave[j] * rot).scale(amp);
        }
    }

    /// Safe entry for the AVX2 matched-filter bank (see [`run_avx2`]).
    #[allow(clippy::too_many_arguments)] // mirrors the demodulator's geometry verbatim
    pub(super) fn run_demod_avx2(
        samples: &[Complex32],
        pulse: &[f32],
        energy: f32,
        start: usize,
        sps: usize,
        full: usize,
        first_chip_even: bool,
        out: &mut Vec<f32>,
    ) {
        assert!(is_x86_feature_detected!("avx2"));
        // Gather indices are 32-bit; `demod_full_windows` already
        // asserted every window is inside `samples`.
        assert!(
            samples.len() <= i32::MAX as usize / 2,
            "sample buffer too large for 32-bit gather"
        );
        // SAFETY: feature presence checked above; index bounds asserted
        // here and by the caller.
        unsafe {
            demod_avx2(
                samples,
                pulse,
                energy,
                start,
                sps,
                full,
                first_chip_even,
                out,
            )
        }
    }

    /// AVX2 matched-filter bank: 8 chips per step via `vgatherdps`.
    ///
    /// Lane `l` of a step handles chip `k + l`. Its gather base is the
    /// flat-f32 index of the chip's first window sample on its rail —
    /// `2·(start + (k+l)·sps)` plus 0 (I rail, even chip) or 1 (Q rail,
    /// odd chip) — and each pulse tap advances all lanes by 2 floats.
    /// The per-tap loop accumulates `acc += s · p` in the same order as
    /// the scalar `chip_soft_value`, one multiply and one add per tap,
    /// then divides by the pulse energy: bit-identical per lane.
    // SAFETY: caller must ensure AVX2 is available (`run_demod_avx2`
    // asserts it). The flat view is sound because `Complex32` is
    // `#[repr(C)] { f32, f32 }`; every gathered index is
    // `2·(start + c·sps) + rail + 2·tap < 2·samples.len()` for chips
    // `c < full` because the caller asserted the last window fits, and
    // `2·samples.len()` fits in `i32` (asserted in `run_demod_avx2`).
    // The store targets a local array.
    #[allow(clippy::too_many_arguments)] // mirrors the demodulator's geometry verbatim
    #[target_feature(enable = "avx2")]
    unsafe fn demod_avx2(
        samples: &[Complex32],
        pulse: &[f32],
        energy: f32,
        start: usize,
        sps: usize,
        full: usize,
        first_chip_even: bool,
        out: &mut Vec<f32>,
    ) {
        let flat = samples.as_ptr() as *const f32;
        let venergy = _mm256_set1_ps(energy);
        let mut k = 0;
        while k + 8 <= full {
            let mut base = [0i32; 8];
            for (l, b) in base.iter_mut().enumerate() {
                let even = ((k + l) % 2 == 0) == first_chip_even;
                *b = (2 * (start + (k + l) * sps) + usize::from(!even)) as i32;
            }
            let vbase = _mm256_loadu_si256(base.as_ptr() as *const __m256i);
            let mut acc = _mm256_setzero_ps();
            for (i, &p) in pulse.iter().enumerate() {
                let idx = _mm256_add_epi32(vbase, _mm256_set1_epi32(2 * i as i32));
                let s = _mm256_i32gather_ps::<4>(flat, idx);
                acc = _mm256_add_ps(acc, _mm256_mul_ps(s, _mm256_set1_ps(p)));
            }
            let mut lanes = [0f32; 8];
            _mm256_storeu_ps(lanes.as_mut_ptr(), _mm256_div_ps(acc, venergy));
            out.extend_from_slice(&lanes);
            k += 8;
        }
        // Remaining full-window chips: the scalar reference loop. `k` is
        // a multiple of 8, so the chip-parity phase carries over as-is.
        super::demod_full_windows_scalar(
            samples,
            pulse,
            energy,
            start + k * sps,
            sps,
            full - k,
            first_chip_even,
            out,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chips::CODEBOOK;

    /// Deterministic xorshift word stream for kernel tests.
    fn words(n: usize, mut state: u64) -> Vec<u32> {
        (0..n)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state as u32
            })
            .collect()
    }

    #[test]
    fn every_available_kernel_matches_scalar() {
        // Random words at every length around the vector widths (tail
        // handling).
        let inputs: Vec<u32> = words(333, 0xDEAD_BEEF_1234_5678);
        let check = |kernel: DespreadKernel, slice: &[u32], what: &str| {
            let expect: Vec<Decision> = slice.iter().map(|&w| decide(w)).collect();
            let mut got = Vec::new();
            kernel.decide_into(slice, &mut got);
            assert_eq!(got, expect, "kernel {} {what}", kernel.name());
        };
        for kernel in DespreadKernel::available() {
            for len in [0usize, 1, 3, 4, 5, 7, 8, 9, 15, 16, 17, 63, 64, 65, 333] {
                check(kernel, &inputs[..len], &format!("len {len}"));
            }
        }
        // Every codeword (the exact-codeword fast path) and the
        // all-zero and all-one words (ties), at every position of
        // every in-vector length and of a full 64-word run, among
        // random words.
        let special = CODEBOOK.iter().copied().chain([0, u32::MAX]);
        for w in special {
            for len in (1..=17).chain([64]) {
                for pos in 0..len {
                    let mut slice = inputs[..len].to_vec();
                    slice[pos] = w;
                    for kernel in DespreadKernel::available() {
                        check(kernel, &slice, &format!("word {w:#010x} at {pos}/{len}"));
                    }
                }
            }
        }
    }

    #[test]
    fn ties_break_toward_lowest_symbol_in_every_kernel() {
        // A word equidistant from several codewords: all-zero chips are
        // 16 chips from many codewords; the scalar fold picks the lowest
        // symbol index, and every kernel must agree.
        let inputs = vec![0u32; 20];
        let expect = decide(0);
        for kernel in DespreadKernel::available() {
            let mut got = Vec::new();
            kernel.decide_into(&inputs, &mut got);
            assert!(
                got.iter().all(|d| *d == expect),
                "kernel {} broke tie differently",
                kernel.name()
            );
        }
    }

    #[test]
    fn active_kernel_is_available() {
        assert!(DespreadKernel::available().contains(&DespreadKernel::active()));
    }

    #[test]
    fn decide_batch_matches_per_word_decide() {
        let inputs = words(1000, 42);
        let batch = decide_batch(&inputs);
        for (i, &w) in inputs.iter().enumerate() {
            assert_eq!(batch[i], decide(w), "word {i}");
        }
    }

    #[test]
    fn kernel_names_are_distinct() {
        let names: Vec<_> = [
            DespreadKernel::Scalar,
            DespreadKernel::Avx2,
            DespreadKernel::Avx512,
        ]
        .iter()
        .map(|k| k.name())
        .collect();
        let mut dedup = names.clone();
        dedup.dedup();
        assert_eq!(names, dedup);
    }

    /// Deterministic xorshift f32 stream in roughly [-1, 1).
    fn floats(n: usize, mut state: u64) -> Vec<f32> {
        (0..n)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state as u32 as f32 / u32::MAX as f32) * 2.0 - 1.0
            })
            .collect()
    }

    fn complexes(n: usize, state: u64) -> Vec<Complex32> {
        floats(2 * n, state)
            .chunks_exact(2)
            .map(|p| Complex32::new(p[0], p[1]))
            .collect()
    }

    #[test]
    fn dsp_active_kernel_is_available() {
        assert!(DspKernel::available().contains(&DspKernel::active()));
    }

    #[test]
    fn dsp_kernel_names_are_distinct() {
        let names: Vec<_> = [DspKernel::Scalar, DspKernel::Avx2]
            .iter()
            .map(|k| k.name())
            .collect();
        let mut dedup = names.clone();
        dedup.dedup();
        assert_eq!(names, dedup);
    }

    #[test]
    fn axpy_kernels_match_scalar_bitwise() {
        let rot = Complex32::from_polar(1.0, 0.83);
        for kernel in DspKernel::available() {
            for n in [0usize, 1, 2, 3, 4, 5, 7, 8, 9, 63, 64, 65, 257] {
                let wave = complexes(n, 0x5EED ^ n as u64);
                let base = complexes(n, 0xACC ^ n as u64);
                let mut expect = base.clone();
                axpy_rotated_scalar(&mut expect, &wave, rot, 0.7);
                let mut got = base.clone();
                kernel.axpy_rotated(&mut got, &wave, rot, 0.7);
                assert_eq!(got, expect, "kernel {} n {n}", kernel.name());
            }
        }
    }

    #[test]
    fn demod_kernels_match_scalar_bitwise() {
        for kernel in DspKernel::available() {
            for sps in [1usize, 2, 4] {
                let pulse: Vec<f32> = (0..2 * sps)
                    .map(|i| (std::f32::consts::PI * i as f32 / (2 * sps) as f32).sin())
                    .collect();
                let energy: f32 = pulse.iter().map(|p| p * p).sum();
                for n_chips in [0usize, 1, 7, 8, 9, 16, 33, 100] {
                    let samples = complexes((n_chips + 2) * sps + 3, 0xD503 ^ n_chips as u64);
                    for start in [0usize, 1, 5] {
                        // Same in-bounds window count the demodulator computes.
                        let full = if samples.len() >= start + pulse.len() {
                            ((samples.len() - start - pulse.len()) / sps + 1).min(n_chips)
                        } else {
                            0
                        };
                        let mut expect = Vec::new();
                        demod_full_windows_scalar(
                            &samples,
                            &pulse,
                            energy,
                            start,
                            sps,
                            full,
                            true,
                            &mut expect,
                        );
                        let mut got = Vec::new();
                        kernel.demod_full_windows(
                            &samples, &pulse, energy, start, sps, full, true, &mut got,
                        );
                        assert_eq!(
                            got,
                            expect,
                            "kernel {} sps {sps} chips {n_chips} start {start}",
                            kernel.name()
                        );
                    }
                }
            }
        }
    }
}
