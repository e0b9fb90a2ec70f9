//! Preamble and postamble frame synchronization.
//!
//! A PPR frame is delimited on both ends (paper Fig. 2):
//!
//! * **Preamble**: eight `0x0` symbols followed by the 802.15.4 SFD byte
//!   `0xA7`, exactly as the standard transmits it.
//! * **Postamble**: four `0x0` symbols followed by the *postamble* start
//!   delimiter `0xC9` — a well-known sequence distinct from the SFD, so a
//!   receiver can tell which end of a frame it has locked onto (§4).
//!
//! Detection correlates the hard-decision chip stream against the known
//! chip pattern of the delimiter and accepts offsets whose Hamming
//! distance is below a threshold. Overlapping candidate hits within one
//! codeword are merged, keeping the best.

use crate::chips::{ChipWords, CHIPS_PER_SYMBOL};
use crate::modem::unpack_chip_words;
use crate::spread::{bytes_to_symbols, spread};

/// The 802.15.4 start-of-frame delimiter byte.
pub const SFD: u8 = 0xA7;

/// The postamble start delimiter byte (chosen distinct from [`SFD`]).
pub const POST_SFD: u8 = 0xC9;

/// Number of zero symbols transmitted before the SFD (the standard's
/// 4-byte preamble = 8 symbols).
pub const PREAMBLE_ZERO_SYMBOLS: usize = 8;

/// Number of zero symbols transmitted before the postamble delimiter.
/// Shorter than the preamble: the postamble exists for re-synchronization
/// and also carries the adaptive-equalizer training sequence (§4).
pub const POSTAMBLE_ZERO_SYMBOLS: usize = 4;

/// Length of the transmitted preamble (zero symbols + SFD), in chips:
/// `tx_preamble_chips().len()` without building it.
pub const TX_PREAMBLE_CHIPS: usize = (PREAMBLE_ZERO_SYMBOLS + 2) * CHIPS_PER_SYMBOL;

/// Length of the transmitted postamble (zero symbols + [`POST_SFD`]), in
/// chips: `tx_postamble_chips().len()` without building it.
pub const TX_POSTAMBLE_CHIPS: usize = (POSTAMBLE_ZERO_SYMBOLS + 2) * CHIPS_PER_SYMBOL;

/// Which frame delimiter a synchronization hit corresponds to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SyncKind {
    /// Locked on the preamble: decode forward from the frame start.
    Preamble,
    /// Locked on the postamble: roll back through the sample buffer.
    Postamble,
}

/// A detected delimiter occurrence in a chip stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SyncHit {
    /// Chip offset of the *start of the delimiter pattern* in the stream.
    pub chip_offset: usize,
    /// Hamming distance between the received chips and the pattern.
    pub distance: u32,
    /// Preamble or postamble.
    pub kind: SyncKind,
}

/// A chip-level correlation pattern for one delimiter.
#[derive(Debug, Clone)]
pub struct SyncPattern {
    chips: Vec<bool>,
    packed: ChipWords,
    kind: SyncKind,
}

impl SyncPattern {
    /// The preamble pattern: the last `sync_symbols` zero symbols followed
    /// by the SFD. Using only the tail of the zero run keeps the pattern
    /// short while still being unique; a receiver that missed the start of
    /// the preamble can still lock.
    pub fn preamble() -> Self {
        let mut symbols = vec![0u8; 2];
        symbols.extend(bytes_to_symbols(&[SFD]));
        Self::from_codewords(spread(&symbols), SyncKind::Preamble)
    }

    /// The postamble pattern: two zero symbols followed by [`POST_SFD`].
    pub fn postamble() -> Self {
        let mut symbols = vec![0u8; 2];
        symbols.extend(bytes_to_symbols(&[POST_SFD]));
        Self::from_codewords(spread(&symbols), SyncKind::Postamble)
    }

    fn from_codewords(codewords: Vec<u32>, kind: SyncKind) -> Self {
        SyncPattern {
            chips: unpack_chip_words(&codewords),
            packed: ChipWords::from_codewords(&codewords),
            kind,
        }
    }

    /// Pattern length in chips.
    #[inline]
    pub fn len_chips(&self) -> usize {
        self.chips.len()
    }

    /// The delimiter kind this pattern detects.
    #[inline]
    pub fn kind(&self) -> SyncKind {
        self.kind
    }

    /// Hamming distance between the pattern and `stream` at `offset`.
    /// Positions past the end of the stream count as mismatches, so a
    /// pattern straddling the end of a reception degrades instead of
    /// matching spuriously.
    pub fn distance_at(&self, stream: &[bool], offset: usize) -> u32 {
        let mut d = 0u32;
        for (i, &p) in self.chips.iter().enumerate() {
            match stream.get(offset + i) {
                Some(&c) if c == p => {}
                _ => d += 1,
            }
        }
        d
    }

    /// Word-wise equivalent of [`Self::distance_at`] over a packed chip
    /// stream: XOR + `count_ones` per 64-chip lane instead of a per-chip
    /// loop. Positions past the end of the stream count as mismatches,
    /// exactly as in the reference implementation.
    pub fn distance_at_words(&self, stream: &ChipWords, offset: usize) -> u32 {
        let n = self.packed.len();
        let mut d = 0u32;
        let mut done = 0usize;
        for &pw in self.packed.words() {
            let bits = (n - done).min(64);
            let base = offset + done;
            let avail = stream.len().saturating_sub(base).min(bits);
            let sw = stream.extract_u64(base);
            let mask = if avail == 64 {
                u64::MAX
            } else {
                (1u64 << avail) - 1
            };
            d += ((pw ^ sw) & mask).count_ones();
            d += (bits - avail) as u32; // missing chips mismatch
            done += bits;
        }
        d
    }

    /// Scans the whole stream for delimiter occurrences with Hamming
    /// distance ≤ `max_distance`, suppressing non-minimal hits within one
    /// codeword (32 chips) of a better one.
    pub fn scan(&self, stream: &[bool], max_distance: u32) -> Vec<SyncHit> {
        if stream.len() < self.chips.len() {
            return Vec::new();
        }
        let mut hits: Vec<SyncHit> = Vec::new();
        let last = stream.len() - self.chips.len();
        for offset in 0..=last {
            let d = self.distance_at(stream, offset);
            if d > max_distance {
                continue;
            }
            match hits.last_mut() {
                Some(prev) if offset - prev.chip_offset < CHIPS_PER_SYMBOL => {
                    if d < prev.distance {
                        *prev = SyncHit {
                            chip_offset: offset,
                            distance: d,
                            kind: self.kind,
                        };
                    }
                }
                _ => hits.push(SyncHit {
                    chip_offset: offset,
                    distance: d,
                    kind: self.kind,
                }),
            }
        }
        hits
    }
}

/// Default sync acceptance threshold, in chips.
///
/// The delimiter patterns are 128 chips long; random chips sit at an
/// expected distance of 64 with σ ≈ 5.7, so a threshold of 20 keeps the
/// false-lock probability negligible (> 7σ) while tolerating a ~15 % chip
/// error rate over the delimiter.
pub const DEFAULT_SYNC_THRESHOLD: u32 = 20;

/// Builds the full transmitted preamble chip sequence (eight zero symbols
/// + SFD), as the sender emits it.
pub fn tx_preamble_chips() -> Vec<bool> {
    unpack_chip_words(&tx_preamble_codewords())
}

/// Builds the full transmitted postamble chip sequence (four zero symbols
/// + POST_SFD).
pub fn tx_postamble_chips() -> Vec<bool> {
    unpack_chip_words(&tx_postamble_codewords())
}

/// The transmitted preamble as 32-chip codewords (the packed rendering
/// building block).
pub fn tx_preamble_codewords() -> Vec<u32> {
    let mut symbols = vec![0u8; PREAMBLE_ZERO_SYMBOLS];
    symbols.extend(bytes_to_symbols(&[SFD]));
    spread(&symbols)
}

/// The transmitted postamble as 32-chip codewords.
pub fn tx_postamble_codewords() -> Vec<u32> {
    let mut symbols = vec![0u8; POSTAMBLE_ZERO_SYMBOLS];
    symbols.extend(bytes_to_symbols(&[POST_SFD]));
    spread(&symbols)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_chips(rng: &mut StdRng, n: usize) -> Vec<bool> {
        (0..n).map(|_| rng.gen()).collect()
    }

    #[test]
    fn delimiter_length_constants_match_rendering() {
        assert_eq!(tx_preamble_chips().len(), TX_PREAMBLE_CHIPS);
        assert_eq!(tx_postamble_chips().len(), TX_POSTAMBLE_CHIPS);
    }

    #[test]
    fn preamble_found_in_clean_stream() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut stream = random_chips(&mut rng, 900);
        let pat = SyncPattern::preamble();
        let insert_at = 200;
        let full = tx_preamble_chips();
        stream.splice(insert_at..insert_at + full.len(), full.iter().copied());
        let hits = pat.scan(&stream, DEFAULT_SYNC_THRESHOLD);
        assert_eq!(hits.len(), 1);
        // The short pattern (2 zero symbols + SFD) matches at the tail of
        // the 8-zero-symbol preamble.
        let expected = insert_at + (PREAMBLE_ZERO_SYMBOLS - 2) * CHIPS_PER_SYMBOL;
        assert_eq!(hits[0].chip_offset, expected);
        assert_eq!(hits[0].distance, 0);
        assert_eq!(hits[0].kind, SyncKind::Preamble);
    }

    #[test]
    fn postamble_found_and_distinct_from_preamble() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut stream = random_chips(&mut rng, 600);
        let post = tx_postamble_chips();
        stream.splice(100..100 + post.len(), post.iter().copied());
        let pre_hits = SyncPattern::preamble().scan(&stream, DEFAULT_SYNC_THRESHOLD);
        let post_hits = SyncPattern::postamble().scan(&stream, DEFAULT_SYNC_THRESHOLD);
        assert!(
            pre_hits.is_empty(),
            "postamble must not trigger preamble sync"
        );
        assert_eq!(post_hits.len(), 1);
        assert_eq!(
            post_hits[0].chip_offset,
            100 + (POSTAMBLE_ZERO_SYMBOLS - 2) * CHIPS_PER_SYMBOL
        );
    }

    #[test]
    fn corrupted_delimiter_within_threshold_still_syncs() {
        let mut rng = StdRng::seed_from_u64(3);
        let pat = SyncPattern::preamble();
        let mut stream = random_chips(&mut rng, 400);
        let full = tx_preamble_chips();
        stream.splice(50..50 + full.len(), full.iter().copied());
        // Flip 15 chips inside the pattern window (< threshold of 20).
        let pat_start = 50 + (PREAMBLE_ZERO_SYMBOLS - 2) * CHIPS_PER_SYMBOL;
        for i in 0..15 {
            stream[pat_start + i * 8] = !stream[pat_start + i * 8];
        }
        let hits = pat.scan(&stream, DEFAULT_SYNC_THRESHOLD);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].chip_offset, pat_start);
        assert_eq!(hits[0].distance, 15);
    }

    #[test]
    fn destroyed_delimiter_does_not_sync() {
        let mut rng = StdRng::seed_from_u64(4);
        let pat = SyncPattern::preamble();
        let mut stream = random_chips(&mut rng, 400);
        let full = tx_preamble_chips();
        stream.splice(50..50 + full.len(), full.iter().copied());
        // Clobber half the pattern chips, as a strong collision would.
        let pat_start = 50 + (PREAMBLE_ZERO_SYMBOLS - 2) * CHIPS_PER_SYMBOL;
        for i in 0..64 {
            stream[pat_start + 2 * i] = rng.gen();
        }
        let hits = pat.scan(&stream, DEFAULT_SYNC_THRESHOLD);
        assert!(hits.is_empty() || hits[0].distance > 15);
    }

    #[test]
    fn no_false_locks_in_long_random_stream() {
        let mut rng = StdRng::seed_from_u64(5);
        let stream = random_chips(&mut rng, 100_000);
        assert!(SyncPattern::preamble()
            .scan(&stream, DEFAULT_SYNC_THRESHOLD)
            .is_empty());
        assert!(SyncPattern::postamble()
            .scan(&stream, DEFAULT_SYNC_THRESHOLD)
            .is_empty());
    }

    #[test]
    fn duplicate_adjacent_hits_are_suppressed() {
        let pat = SyncPattern::preamble();
        // A stream that *is* the pattern, padded by its own chips shifted:
        // only a single hit must be reported even though neighbors may
        // fall under the threshold.
        let mut stream = vec![false; 64];
        stream.extend(tx_preamble_chips());
        stream.extend(vec![false; 64]);
        let hits = pat.scan(&stream, DEFAULT_SYNC_THRESHOLD);
        assert_eq!(hits.len(), 1);
    }

    #[test]
    fn distance_at_end_of_stream_counts_missing_chips() {
        let pat = SyncPattern::preamble();
        let stream = vec![false; 10];
        // Pattern mostly hangs off the end: distance must include the
        // missing chips rather than panic.
        let d = pat.distance_at(&stream, 5);
        assert!(d >= (pat.len_chips() - 5) as u32 / 2);
    }

    #[test]
    fn packed_distance_matches_reference_at_every_offset() {
        use crate::chips::ChipWords;
        let mut rng = StdRng::seed_from_u64(6);
        let mut stream = random_chips(&mut rng, 700);
        let full = tx_preamble_chips();
        stream.splice(150..150 + full.len(), full.iter().copied());
        let packed = ChipWords::from_bools(&stream);
        for pat in [SyncPattern::preamble(), SyncPattern::postamble()] {
            // Offsets spanning in-stream, straddling the end, and fully
            // past the end.
            for offset in (0..stream.len() + 200).step_by(7) {
                assert_eq!(
                    pat.distance_at(&stream, offset),
                    pat.distance_at_words(&packed, offset),
                    "offset {offset}"
                );
            }
        }
    }
}
