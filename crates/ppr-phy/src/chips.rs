//! The 802.15.4 2.4 GHz O-QPSK spreading code book.
//!
//! The PHY maps each 4-bit data symbol to one of sixteen 32-chip
//! pseudo-noise sequences (the paper's *codewords*, `b = 4`, `B = 32`).
//! The code book is the one from the IEEE 802.15.4 standard: symbols 1–7
//! are successive 4-chip cyclic right-shifts of symbol 0, and symbols 8–15
//! are symbols 0–7 with every odd-indexed chip inverted.
//!
//! Chips are stored LSB-first: chip `i` of a codeword is bit `i` of the
//! `u32`. All Hamming-distance arithmetic in SoftPHY hinting runs over
//! these 32-bit words, so distance computations are single `popcount`s.

/// Number of chips per codeword (`B` in the paper).
pub const CHIPS_PER_SYMBOL: usize = 32;

/// Number of data bits per codeword (`b` in the paper).
pub const BITS_PER_SYMBOL: usize = 4;

/// Number of distinct codewords (`2^b`).
pub const NUM_SYMBOLS: usize = 1 << BITS_PER_SYMBOL;

/// Chip rate of the CC2420 radio modelled throughout the workspace.
pub const CHIP_RATE_HZ: u64 = 2_000_000;

/// Base chip sequence for data symbol 0, written chip 0 first.
///
/// This is the sequence `1101 1001 1100 0011 0101 0010 0010 1110` from the
/// IEEE 802.15.4 standard, packed LSB-first.
const SYMBOL0_CHIPS: [u8; CHIPS_PER_SYMBOL] = [
    1, 1, 0, 1, 1, 0, 0, 1, 1, 1, 0, 0, 0, 0, 1, 1, 0, 1, 0, 1, 0, 0, 1, 0, 0, 0, 1, 0, 1, 1, 1, 0,
];

/// Packs a chip array (chip 0 first) into a `u32`, LSB-first.
const fn pack(chips: [u8; CHIPS_PER_SYMBOL]) -> u32 {
    let mut word = 0u32;
    let mut i = 0;
    while i < CHIPS_PER_SYMBOL {
        if chips[i] != 0 {
            word |= 1 << i;
        }
        i += 1;
    }
    word
}

/// Cyclic right-shift of the chip sequence by `n` chip positions.
///
/// "Right shift" in the 802.15.4 sense: the last `n` chips wrap around to
/// the front of the sequence.
const fn rotate_chips(chips: [u8; CHIPS_PER_SYMBOL], n: usize) -> [u8; CHIPS_PER_SYMBOL] {
    let mut out = [0u8; CHIPS_PER_SYMBOL];
    let mut i = 0;
    while i < CHIPS_PER_SYMBOL {
        out[(i + n) % CHIPS_PER_SYMBOL] = chips[i];
        i += 1;
    }
    out
}

/// Inverts every odd-indexed chip (the Q-phase chips in O-QPSK).
const fn conjugate(chips: [u8; CHIPS_PER_SYMBOL]) -> [u8; CHIPS_PER_SYMBOL] {
    let mut out = chips;
    let mut i = 1;
    while i < CHIPS_PER_SYMBOL {
        out[i] = 1 - out[i];
        i += 2;
    }
    out
}

/// Builds the full 16-entry code book at compile time.
const fn build_codebook() -> [u32; NUM_SYMBOLS] {
    let mut book = [0u32; NUM_SYMBOLS];
    let mut s = 0;
    while s < 8 {
        let rotated = rotate_chips(SYMBOL0_CHIPS, 4 * s);
        book[s] = pack(rotated);
        book[s + 8] = pack(conjugate(rotated));
        s += 1;
    }
    book
}

/// The sixteen 32-chip spreading sequences, indexed by data symbol.
pub const CODEBOOK: [u32; NUM_SYMBOLS] = build_codebook();

/// Hamming distance between two 32-chip words.
#[inline]
pub fn hamming(a: u32, b: u32) -> u32 {
    (a ^ b).count_ones()
}

/// Result of a hard-decision nearest-codeword search.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Decision {
    /// The decoded 4-bit data symbol (index into [`CODEBOOK`]).
    pub symbol: u8,
    /// Hamming distance from the received chip word to the decoded
    /// codeword — the SoftPHY hint of the paper's §3.2.
    pub distance: u8,
}

/// Maps a received 32-chip word to the closest codeword (minimum Hamming
/// distance), returning the decoded symbol and the distance.
///
/// Ties break toward the lowest symbol index, matching a deterministic
/// hardware correlator bank.
#[inline]
pub fn decide(received: u32) -> Decision {
    // Branchless min-fold over (distance, symbol) keys: the scan is the
    // inner loop of despreading, and data-dependent early exits
    // mispredict on exactly the noisy frames the simulator spends its
    // time on. Packing the distance above the symbol index makes the
    // numeric minimum select the smallest distance with ties broken
    // toward the lowest symbol index — the deterministic hardware
    // correlator bank's behavior. Four independent accumulator chains
    // keep the fold from serializing on min latency.
    //
    // The unroll reads CODEBOOK[s..s+4] and the key packs the symbol
    // into 4 bits; guard both against a future codebook reshape.
    const _: () = assert!(NUM_SYMBOLS <= 16 && NUM_SYMBOLS.is_multiple_of(4));
    let key = |s: u32| (hamming(received, CODEBOOK[s as usize]) << 4) | s;
    let (mut a, mut b, mut c, mut d) = (u32::MAX, u32::MAX, u32::MAX, u32::MAX);
    let mut s = 0;
    while s < NUM_SYMBOLS as u32 {
        a = a.min(key(s));
        b = b.min(key(s + 1));
        c = c.min(key(s + 2));
        d = d.min(key(s + 3));
        s += 4;
    }
    let best = a.min(b).min(c.min(d));
    Decision {
        symbol: (best & 0xF) as u8,
        distance: (best >> 4) as u8,
    }
}

/// Returns the codeword for a 4-bit data symbol.
///
/// # Panics
/// Panics if `symbol >= 16`.
#[inline]
pub fn spread_symbol(symbol: u8) -> u32 {
    CODEBOOK[symbol as usize]
}

/// A bit-packed chip stream: 64 chips per `u64` lane, chip `i` stored in
/// bit `i % 64` of word `i / 64` (LSB-first, matching the codeword
/// packing convention of [`CODEBOOK`]).
///
/// This is the hot-path representation of chip streams: spreading,
/// corruption and despreading all operate word-wise (XOR + `count_ones`)
/// instead of chip-by-chip over a `Vec<bool>`. The `&[bool]` API remains
/// the reference implementation; `tests/packed_parity.rs` at the
/// workspace root proves the two produce bit-identical results.
///
/// **Invariant**: bits at positions `>= len` in the last word are zero
/// (the canonical form), so `PartialEq` and [`Self::count_ones`] work on
/// raw words and [`Self::extract_u64`] zero-pads past the end for free.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ChipWords {
    words: Vec<u64>,
    len: usize,
}

impl ChipWords {
    /// An empty chip stream.
    pub fn new() -> Self {
        ChipWords::default()
    }

    /// A stream of `len` zero chips.
    pub fn zeros(len: usize) -> Self {
        ChipWords {
            words: vec![0; len.div_ceil(64)],
            len,
        }
    }

    /// Packs a `&[bool]` chip stream.
    pub fn from_bools(chips: &[bool]) -> Self {
        let mut words = vec![0u64; chips.len().div_ceil(64)];
        for (i, &c) in chips.iter().enumerate() {
            if c {
                words[i / 64] |= 1 << (i % 64);
            }
        }
        ChipWords {
            words,
            len: chips.len(),
        }
    }

    /// Packs a sequence of 32-chip codewords (chip 0 of each codeword in
    /// its LSB), two codewords per `u64` lane.
    pub fn from_codewords(codewords: &[u32]) -> Self {
        let mut out = ChipWords::new();
        out.extend_codewords(codewords);
        out
    }

    /// A stream of whole 64-chip lanes (`64 * lanes.len()` chips; always
    /// canonical, since no lane has a tail).
    pub fn from_lanes(lanes: Vec<u64>) -> Self {
        ChipWords {
            len: 64 * lanes.len(),
            words: lanes,
        }
    }

    /// Unpacks to the reference `Vec<bool>` representation.
    pub fn to_bools(&self) -> Vec<bool> {
        (0..self.len).map(|i| self.get(i)).collect()
    }

    /// Rebuilds a stream from raw lanes previously obtained through
    /// [`Self::words`] and [`Self::len`] — the simulator
    /// snapshot/restore path. Returns `None` when the inputs violate
    /// the canonical form (wrong lane count, or nonzero bits at
    /// positions `>= len`), so a corrupted snapshot cannot smuggle in a
    /// non-canonical stream that breaks `PartialEq`/`count_ones`.
    pub fn from_raw(words: Vec<u64>, len: usize) -> Option<Self> {
        if words.len() != len.div_ceil(64) {
            return None;
        }
        if !len.is_multiple_of(64) {
            if let Some(&last) = words.last() {
                if last >> (len % 64) != 0 {
                    return None;
                }
            }
        }
        Some(ChipWords { words, len })
    }

    /// Number of chips.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the stream holds no chips.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The raw 64-chip lanes (tail bits past `len` are zero).
    #[inline]
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Chip `i`.
    ///
    /// # Panics
    /// Panics if `i >= len`.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        assert!(i < self.len, "chip index {i} out of range {}", self.len);
        (self.words[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Sets chip `i`.
    ///
    /// # Panics
    /// Panics if `i >= len`.
    #[inline]
    pub fn set(&mut self, i: usize, chip: bool) {
        assert!(i < self.len, "chip index {i} out of range {}", self.len);
        let mask = 1u64 << (i % 64);
        if chip {
            self.words[i / 64] |= mask;
        } else {
            self.words[i / 64] &= !mask;
        }
    }

    /// Flips chip `i`.
    ///
    /// # Panics
    /// Panics if `i >= len`.
    #[inline]
    pub fn toggle(&mut self, i: usize) {
        assert!(i < self.len, "chip index {i} out of range {}", self.len);
        self.words[i / 64] ^= 1 << (i % 64);
    }

    /// Flips chip `i` on the hot path: the caller guarantees `i < len`
    /// (only debug-asserted). A caller that breaks that contract either
    /// panics on the word index or flips a canonical-zero tail bit,
    /// corrupting equality comparisons — use [`Self::toggle`] unless the
    /// bound is already established. The sparse corruption loop lives on
    /// this: one predictable slice check and one 64-bit XOR per flip,
    /// with no per-flip assert formatting or tail re-masking.
    #[inline]
    pub fn toggle_in_bounds(&mut self, i: usize) {
        debug_assert!(i < self.len, "chip index {i} out of range {}", self.len);
        self.words[i / 64] ^= 1 << (i % 64);
    }

    /// Appends one chip.
    pub fn push(&mut self, chip: bool) {
        if self.len.is_multiple_of(64) {
            self.words.push(0);
        }
        if chip {
            self.words[self.len / 64] |= 1 << (self.len % 64);
        }
        self.len += 1;
    }

    /// Appends one 32-chip codeword.
    pub fn push_codeword(&mut self, codeword: u32) {
        let b = self.len % 64;
        let v = codeword as u64;
        if b == 0 {
            self.words.push(v);
        } else {
            *self.words.last_mut().expect("len % 64 != 0 implies a word") |= v << b;
            if b > 32 {
                self.words.push(v >> (64 - b));
            }
        }
        self.len += CHIPS_PER_SYMBOL;
    }

    /// Appends a sequence of 32-chip codewords.
    pub fn extend_codewords(&mut self, codewords: &[u32]) {
        self.words
            .reserve(codewords.len().div_ceil(2).saturating_sub(1));
        for &cw in codewords {
            self.push_codeword(cw);
        }
    }

    /// 64 chips starting at chip `offset`, zero-padded past the end.
    #[inline]
    pub fn extract_u64(&self, offset: usize) -> u64 {
        let w = offset / 64;
        let b = offset % 64;
        let lo = self.words.get(w).copied().unwrap_or(0) >> b;
        if b == 0 {
            lo
        } else {
            lo | (self.words.get(w + 1).copied().unwrap_or(0) << (64 - b))
        }
    }

    /// 32 chips (one codeword) starting at chip `offset`, zero-padded
    /// past the end.
    #[inline]
    pub fn extract_u32(&self, offset: usize) -> u32 {
        let w = offset / 64;
        let b = offset % 64;
        let lo = self.words.get(w).copied().unwrap_or(0) >> b;
        if b <= 32 {
            // The whole codeword lives in one lane (the codeword-aligned
            // hot case: b is 0 or 32).
            lo as u32
        } else {
            (lo | (self.words.get(w + 1).copied().unwrap_or(0) << (64 - b))) as u32
        }
    }

    /// Appends `n_lanes` 64-chip lanes starting at chip `offset` to
    /// `out`, reading chips past the end of the stream as zero (the
    /// [`Self::extract_u64`] contract).
    ///
    /// This is the arbitrary-offset gather primitive: one funnel shift
    /// per lane over a single linear walk of the source words — the
    /// shift amount and word cursor are hoisted out of the loop, and
    /// each source word is loaded once and reused for two adjacent
    /// lanes, instead of re-deriving `word/bit` offsets (and re-loading
    /// both words) per extraction as [`Self::extract_u64`] must.
    pub fn gather_lanes_into(&self, offset: usize, n_lanes: usize, out: &mut Vec<u64>) {
        out.reserve(n_lanes);
        let w0 = offset / 64;
        let b = offset % 64;
        let src = self.words.get(w0..).unwrap_or(&[]);
        if b == 0 {
            let n = n_lanes.min(src.len());
            out.extend_from_slice(&src[..n]);
            for _ in n..n_lanes {
                out.push(0);
            }
        } else {
            // Funnel: lane i = src[i] >> b | src[i+1] << (64-b); the
            // shifted-down tail of each word is carried into the next
            // lane, so every source word is shifted exactly twice and
            // loaded once.
            let shl = 64 - b;
            let mut carry = src.first().copied().unwrap_or(0) >> b;
            let interior = n_lanes.min(src.len().saturating_sub(1));
            for &next in src.iter().skip(1).take(interior) {
                out.push(carry | (next << shl));
                carry = next >> b;
            }
            if interior < n_lanes {
                out.push(carry); // last partial source word, zero-padded
                for _ in interior + 1..n_lanes {
                    out.push(0);
                }
            }
        }
    }

    /// Copies `n_chips` chips starting at `start` into a new stream,
    /// reading chips past the end of `self` as zero (same zero-padding
    /// contract as [`Self::extract_u64`]).
    ///
    /// This is how a [`SymbolView`](crate::view::SymbolView) re-bases a
    /// frame's link section to a codeword-aligned origin: the copy is
    /// one [`Self::gather_lanes_into`] funnel pass, after which every
    /// 32-chip extraction in the view hits the aligned fast path.
    pub fn extract_range(&self, start: usize, n_chips: usize) -> ChipWords {
        let mut words = Vec::new();
        self.gather_lanes_into(start, n_chips.div_ceil(64), &mut words);
        let mut out = ChipWords {
            words,
            len: n_chips,
        };
        out.mask_tail();
        out
    }

    /// Total number of 1-chips.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Hamming distance to another stream of the same length.
    ///
    /// # Panics
    /// Panics if the lengths differ.
    pub fn hamming_to(&self, other: &ChipWords) -> usize {
        assert_eq!(self.len, other.len, "length mismatch");
        self.words
            .iter()
            .zip(&other.words)
            .map(|(a, b)| (a ^ b).count_ones() as usize)
            .sum()
    }

    /// Shortens the stream to `len` chips (no-op when already shorter).
    pub fn truncate(&mut self, len: usize) {
        if len >= self.len {
            return;
        }
        self.len = len;
        self.words.truncate(len.div_ceil(64));
        self.mask_tail();
    }

    /// Overwrites the chips of 64-chip lane `word_idx` selected by `mask`
    /// with the corresponding bits of `bits`. Mask bits past the end of
    /// the stream are ignored, preserving the canonical-tail invariant.
    ///
    /// This is the dense-corruption primitive: one RNG word replaces a
    /// whole jammed 64-chip block.
    ///
    /// # Panics
    /// Panics if `word_idx` is out of range.
    #[inline]
    pub fn apply_mask64(&mut self, word_idx: usize, mask: u64, bits: u64) {
        let mask = mask & self.tail_mask(word_idx);
        let w = &mut self.words[word_idx];
        *w = (*w & !mask) | (bits & mask);
    }

    /// XORs a flip mask into 64-chip lane `word_idx`. Mask bits past the
    /// end of the stream are ignored, preserving the canonical-tail
    /// invariant.
    ///
    /// # Panics
    /// Panics if `word_idx` is out of range.
    #[inline]
    pub fn xor_word(&mut self, word_idx: usize, flips: u64) {
        self.words[word_idx] ^= flips & self.tail_mask(word_idx);
    }

    /// Clears the chips of `clear` in lane `word_idx`, then XORs in
    /// `flips`: `(w & !clear) ^ flips`. One primitive for a lane's
    /// overwrites and flips together. Bits past the end of the stream
    /// are ignored, preserving the canonical-tail invariant.
    ///
    /// # Panics
    /// Panics if `word_idx` is out of range.
    #[inline]
    pub fn clear_xor_word(&mut self, word_idx: usize, clear: u64, flips: u64) {
        let valid = self.tail_mask(word_idx);
        let w = &mut self.words[word_idx];
        *w = (*w & !(clear & valid)) ^ (flips & valid);
    }

    /// Iterator over chips, chip 0 first.
    pub fn iter(&self) -> impl Iterator<Item = bool> + '_ {
        (0..self.len).map(|i| self.get(i))
    }

    /// Valid-bit mask of lane `word_idx` (all ones except past-`len`
    /// tail bits of the last word).
    #[inline]
    fn tail_mask(&self, word_idx: usize) -> u64 {
        let lane_end = (word_idx + 1) * 64;
        if lane_end <= self.len {
            u64::MAX
        } else {
            let valid = self.len - word_idx * 64;
            if valid == 0 {
                0
            } else {
                u64::MAX >> (64 - valid)
            }
        }
    }

    /// Zeroes any bits past `len` in the last word.
    fn mask_tail(&mut self) {
        let Some(idx) = self.words.len().checked_sub(1) else {
            return;
        };
        if idx * 64 + 64 > self.len {
            let valid = self.len - idx * 64;
            let mask = if valid == 0 {
                0
            } else {
                u64::MAX >> (64 - valid)
            };
            self.words[idx] &= mask;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Minimum pairwise Hamming distance of the code book.
    ///
    /// For the 802.15.4 book this is 12, which is why a received word at
    /// distance ≤ 5 from its nearest codeword is almost always a correct
    /// decode — the geometric fact behind the paper's threshold `η = 6`.
    fn min_codeword_distance() -> u32 {
        let mut min = u32::MAX;
        for (i, &a) in CODEBOOK.iter().enumerate() {
            for &b in &CODEBOOK[i + 1..] {
                min = min.min(hamming(a, b));
            }
        }
        min
    }

    /// Iterator over the chips of a codeword, chip 0 first.
    fn chips_of(word: u32) -> impl Iterator<Item = bool> {
        (0..CHIPS_PER_SYMBOL).map(move |i| (word >> i) & 1 == 1)
    }

    /// The full chip table from the IEEE 802.15.4 standard, written
    /// chip 0 first, used to pin the generated code book.
    const REFERENCE: [&str; NUM_SYMBOLS] = [
        "11011001110000110101001000101110",
        "11101101100111000011010100100010",
        "00101110110110011100001101010010",
        "00100010111011011001110000110101",
        "01010010001011101101100111000011",
        "00110101001000101110110110011100",
        "11000011010100100010111011011001",
        "10011100001101010010001011101101",
        "10001100100101100000011101111011",
        "10111000110010010110000001110111",
        "01111011100011001001011000000111",
        "01110111101110001100100101100000",
        "00000111011110111000110010010110",
        "01100000011101111011100011001001",
        "10010110000001110111101110001100",
        "11001001011000000111011110111000",
    ];

    fn parse(s: &str) -> u32 {
        let mut w = 0u32;
        for (i, c) in s.chars().enumerate() {
            if c == '1' {
                w |= 1 << i;
            }
        }
        w
    }

    #[test]
    fn codebook_matches_standard_table() {
        for (s, reference) in REFERENCE.iter().enumerate() {
            assert_eq!(
                CODEBOOK[s],
                parse(reference),
                "codebook mismatch at symbol {s}"
            );
        }
    }

    #[test]
    fn codebook_entries_are_distinct() {
        for (i, &a) in CODEBOOK.iter().enumerate() {
            for &b in &CODEBOOK[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }

    #[test]
    fn min_distance_is_twelve() {
        assert_eq!(min_codeword_distance(), 12);
    }

    #[test]
    fn decide_is_identity_on_clean_codewords() {
        for (s, &word) in CODEBOOK.iter().enumerate() {
            let d = decide(word);
            assert_eq!(d.symbol as usize, s);
            assert_eq!(d.distance, 0);
        }
    }

    #[test]
    fn decide_tolerates_small_corruption() {
        // Flip 3 chips of every codeword: decode must still be exact and
        // the reported hint must equal the number of flips (3 < 12/2).
        for (s, &word) in CODEBOOK.iter().enumerate() {
            let corrupted = word ^ 0b1001_0000_0000_0000_0100_0000_0000_0000;
            let d = decide(corrupted);
            assert_eq!(d.symbol as usize, s, "symbol {s} misdecoded");
            assert_eq!(d.distance, 3);
        }
    }

    #[test]
    fn hamming_is_symmetric_and_zero_on_equal() {
        assert_eq!(hamming(0xdead_beef, 0xdead_beef), 0);
        assert_eq!(hamming(0x0, 0xffff_ffff), 32);
        assert_eq!(
            hamming(0x1234_5678, 0x8765_4321),
            hamming(0x8765_4321, 0x1234_5678)
        );
    }

    #[test]
    fn chips_roundtrip_through_pack() {
        for &word in CODEBOOK.iter() {
            let collected: Vec<bool> = chips_of(word).collect();
            assert_eq!(collected.len(), CHIPS_PER_SYMBOL);
            let mut repacked = 0u32;
            for (i, c) in collected.iter().enumerate() {
                if *c {
                    repacked |= 1 << i;
                }
            }
            assert_eq!(repacked, word);
        }
    }

    #[test]
    fn chip_words_roundtrip_bools() {
        let mut rng_state = 0x1234_5678_9ABC_DEF0u64;
        let mut next = move || {
            rng_state ^= rng_state << 13;
            rng_state ^= rng_state >> 7;
            rng_state ^= rng_state << 17;
            rng_state
        };
        for len in [0usize, 1, 31, 32, 63, 64, 65, 100, 127, 128, 1000] {
            let chips: Vec<bool> = (0..len).map(|_| next() & 1 == 1).collect();
            let packed = ChipWords::from_bools(&chips);
            assert_eq!(packed.len(), len);
            assert_eq!(packed.to_bools(), chips);
            assert_eq!(
                packed.count_ones(),
                chips.iter().filter(|&&c| c).count(),
                "len {len}"
            );
            let collected: Vec<bool> = packed.iter().collect();
            assert_eq!(collected, chips);
        }
    }

    #[test]
    fn chip_words_from_codewords_matches_unpacked() {
        let codewords: Vec<u32> = CODEBOOK.to_vec();
        let packed = ChipWords::from_codewords(&codewords);
        assert_eq!(packed.len(), codewords.len() * CHIPS_PER_SYMBOL);
        let bools: Vec<bool> = codewords.iter().flat_map(|&w| chips_of(w)).collect();
        assert_eq!(packed, ChipWords::from_bools(&bools));
        // Aligned extraction returns the original codewords.
        for (s, &w) in codewords.iter().enumerate() {
            assert_eq!(packed.extract_u32(s * CHIPS_PER_SYMBOL), w);
        }
    }

    #[test]
    fn push_codeword_handles_unaligned_tails() {
        // Start from an odd chip count so codeword appends straddle word
        // boundaries at every phase.
        for lead in [0usize, 1, 17, 32, 33, 63] {
            let mut packed = ChipWords::zeros(lead);
            let mut reference = vec![false; lead];
            for &w in CODEBOOK.iter().take(5) {
                packed.push_codeword(w);
                reference.extend(chips_of(w));
            }
            assert_eq!(packed, ChipWords::from_bools(&reference), "lead {lead}");
        }
    }

    #[test]
    fn gather_lanes_matches_per_lane_extraction() {
        let mut rng_state = 0xA5A5_5A5A_DEAD_BEEFu64;
        let mut next = move || {
            rng_state ^= rng_state << 13;
            rng_state ^= rng_state >> 7;
            rng_state ^= rng_state << 17;
            rng_state
        };
        for len in [0usize, 1, 63, 64, 65, 130, 1000] {
            let chips: Vec<bool> = (0..len).map(|_| next() & 1 == 1).collect();
            let packed = ChipWords::from_bools(&chips);
            for offset in [0usize, 1, 17, 32, 63, 64, 65, 100, len, len + 70] {
                for n_lanes in [0usize, 1, 2, 3, 7] {
                    let mut got = Vec::new();
                    packed.gather_lanes_into(offset, n_lanes, &mut got);
                    let want: Vec<u64> = (0..n_lanes)
                        .map(|i| packed.extract_u64(offset + 64 * i))
                        .collect();
                    assert_eq!(got, want, "len {len} offset {offset} lanes {n_lanes}");
                }
            }
        }
    }

    #[test]
    fn gather_lanes_appends_without_clearing() {
        let packed = ChipWords::from_bools(&[true; 64]);
        let mut out = vec![0xDEADu64];
        packed.gather_lanes_into(0, 1, &mut out);
        assert_eq!(out, vec![0xDEAD, u64::MAX]);
    }

    #[test]
    fn extract_zero_pads_past_end() {
        let packed = ChipWords::from_bools(&[true; 40]);
        assert_eq!(packed.extract_u64(0), (1u64 << 40) - 1);
        assert_eq!(packed.extract_u64(8), (1u64 << 32) - 1);
        assert_eq!(packed.extract_u64(40), 0);
        assert_eq!(packed.extract_u64(1000), 0);
        assert_eq!(packed.extract_u32(16), 0x00FF_FFFF);
    }

    #[test]
    fn set_toggle_push_maintain_canonical_tail() {
        let mut packed = ChipWords::zeros(70);
        packed.set(69, true);
        packed.toggle(0);
        packed.toggle(69); // back to 0
        assert_eq!(packed.count_ones(), 1);
        assert!(packed.get(0));
        packed.push(true);
        assert_eq!(packed.len(), 71);
        assert!(packed.get(70));
        // Equality is structural: rebuilding from bools matches.
        assert_eq!(packed, ChipWords::from_bools(&packed.to_bools()));
    }

    #[test]
    fn truncate_clears_tail_bits() {
        let mut packed = ChipWords::from_bools(&[true; 128]);
        packed.truncate(70);
        assert_eq!(packed.len(), 70);
        assert_eq!(packed.count_ones(), 70);
        assert_eq!(packed, ChipWords::from_bools(&[true; 70]));
        // extract past the new end zero-pads.
        assert_eq!(packed.extract_u64(64), (1 << 6) - 1);
    }

    #[test]
    fn apply_mask64_respects_mask_and_tail() {
        let mut packed = ChipWords::zeros(96);
        packed.apply_mask64(0, 0x0000_0000_0000_FF00, u64::MAX);
        assert_eq!(packed.count_ones(), 8);
        // Second lane only has 32 valid chips; mask bits past len are
        // dropped.
        packed.apply_mask64(1, u64::MAX, u64::MAX);
        assert_eq!(packed.count_ones(), 8 + 32);
        assert_eq!(packed, ChipWords::from_bools(&packed.to_bools()));
    }

    #[test]
    fn hamming_to_counts_differences() {
        let a = ChipWords::from_bools(&[true, false, true, false, true]);
        let b = ChipWords::from_bools(&[true, true, true, true, true]);
        assert_eq!(a.hamming_to(&b), 2);
        assert_eq!(a.hamming_to(&a), 0);
    }

    #[test]
    fn symbol_timing_constants_are_consistent() {
        // 2 Mchip/s over 32-chip codewords = 62 500 symbols/s.
        let symbol_rate_hz = CHIP_RATE_HZ / CHIPS_PER_SYMBOL as u64;
        assert_eq!(symbol_rate_hz, 62_500);
        // Peak data rate: 4 bits per symbol at 62.5 ksym/s = 250 kbit/s.
        assert_eq!(symbol_rate_hz * BITS_PER_SYMBOL as u64, 250_000);
        // 32 chips at 2 Mchip/s = 16 µs per codeword (the time unit of
        // the paper's Fig. 13 x-axis).
        assert_eq!(CHIPS_PER_SYMBOL as u64 * 1_000_000 / CHIP_RATE_HZ, 16);
    }
}
