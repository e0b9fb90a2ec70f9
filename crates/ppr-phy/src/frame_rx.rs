//! The chip-stream receiver front end.
//!
//! [`ChipReceiver`] is the synchronization + despreading engine shared by
//! every experiment: it scans a hard-decision chip stream for preamble and
//! postamble delimiters and despreads arbitrary symbol ranges with
//! SoftPHY hints attached. Frame *parsing* (headers, trailers, CRCs) is a
//! link-layer concern and lives in `ppr-mac`.

use crate::chips::{ChipWords, CHIPS_PER_SYMBOL};
use crate::softphy::{SoftSpan, SoftSymbol};
use crate::spread::despread_hard;
use crate::sync::{SyncHit, SyncPattern, DEFAULT_SYNC_THRESHOLD};

/// Synchronization + despreading over a hard chip stream.
#[derive(Debug, Clone)]
pub struct ChipReceiver {
    preamble: SyncPattern,
    postamble: SyncPattern,
    threshold: u32,
}

impl Default for ChipReceiver {
    fn default() -> Self {
        Self::new(DEFAULT_SYNC_THRESHOLD)
    }
}

impl ChipReceiver {
    /// Creates a receiver with the given sync acceptance threshold (max
    /// Hamming distance over the 128-chip delimiter pattern).
    pub fn new(threshold: u32) -> Self {
        ChipReceiver {
            preamble: SyncPattern::preamble(),
            postamble: SyncPattern::postamble(),
            threshold,
        }
    }

    /// Scans for both delimiters; hits are returned sorted by offset.
    pub fn scan(&self, stream: &[bool]) -> Vec<SyncHit> {
        let mut hits = self.preamble.scan(stream, self.threshold);
        hits.extend(self.postamble.scan(stream, self.threshold));
        hits.sort_by_key(|h| h.chip_offset);
        hits
    }

    /// Chip offset of the first data symbol implied by a preamble hit.
    pub fn data_start_after(&self, hit: &SyncHit) -> usize {
        hit.chip_offset + self.preamble.len_chips()
    }

    /// Despreads `n_symbols` symbols starting at `chip_offset`.
    ///
    /// Chips beyond the end of the stream are read as zero, so the final
    /// codewords of a truncated reception decode with large (honest)
    /// Hamming hints instead of being dropped silently. Symbols whose
    /// *first* chip is already past the end are not emitted.
    pub fn despread(&self, stream: &[bool], chip_offset: usize, n_symbols: usize) -> SoftSpan {
        let mut words = Vec::with_capacity(n_symbols);
        for s in 0..n_symbols {
            let start = chip_offset + s * CHIPS_PER_SYMBOL;
            if start >= stream.len() {
                break;
            }
            let mut w = 0u32;
            for i in 0..CHIPS_PER_SYMBOL {
                if let Some(&c) = stream.get(start + i) {
                    if c {
                        w |= 1 << i;
                    }
                }
            }
            words.push(w);
        }
        SoftSpan::from_decisions(despread_hard(&words))
    }

    /// Word-wise equivalent of [`Self::despread`] over a packed chip
    /// stream: the codeword gather is one whole-lane funnel-shift pass
    /// ([`ChipWords::gather_lanes_into`]) — or a zero-copy borrow of the
    /// lane storage when the offset is 64-aligned — and the active SIMD
    /// kernel despreads straight out of the lanes into symbol and hint
    /// columns ([`despread_lanes`](crate::simd::despread_lanes)).
    /// Chips past the end of the stream read as zero and symbols whose
    /// first chip is past the end are not emitted, exactly as in the
    /// reference implementation.
    pub fn despread_words(
        &self,
        stream: &ChipWords,
        chip_offset: usize,
        n_symbols: usize,
    ) -> SoftSpan {
        // Symbols whose first chip is past the end are not emitted.
        let n = if chip_offset >= stream.len() {
            0
        } else {
            n_symbols.min((stream.len() - chip_offset).div_ceil(CHIPS_PER_SYMBOL))
        };
        if n == 0 {
            return SoftSpan::default();
        }
        let n_lanes = n.div_ceil(2);
        let (mut symbols, mut hints) = (vec![0; n], vec![0; n]);
        let lane0 = chip_offset / 64;
        if chip_offset.is_multiple_of(64) && lane0 + n_lanes <= stream.words().len() {
            // Lane-aligned and fully in range: decode from lane storage.
            crate::simd::despread_lanes(
                &stream.words()[lane0..lane0 + n_lanes],
                &mut symbols,
                &mut hints,
            );
        } else {
            let mut lanes = Vec::new();
            stream.gather_lanes_into(chip_offset, n_lanes, &mut lanes);
            crate::simd::despread_lanes(&lanes, &mut symbols, &mut hints);
        }
        SoftSpan {
            symbols: symbols
                .into_iter()
                .zip(hints)
                .map(|(symbol, hint)| SoftSymbol { symbol, hint })
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::modem::pack_chip_words;
    use crate::spread::bytes_to_symbols;
    use crate::sync::{SyncKind, PREAMBLE_ZERO_SYMBOLS};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The chip stream a sender emits for raw payload symbols framed by
    /// preamble and postamble (no MAC structure).
    fn frame_chips(symbols: &[u8]) -> Vec<bool> {
        let mut chips = crate::sync::tx_preamble_chips();
        chips.extend(crate::modem::unpack_chip_words(&crate::spread::spread(
            symbols,
        )));
        chips.extend(crate::sync::tx_postamble_chips());
        chips
    }

    #[test]
    fn chip_receiver_finds_frame_and_decodes_payload() {
        let payload = b"partial packets";
        let symbols = bytes_to_symbols(payload);
        let mut stream: Vec<bool> = vec![];
        let mut rng = StdRng::seed_from_u64(7);
        stream.extend((0..333).map(|_| rng.gen::<bool>()));
        stream.extend(frame_chips(&symbols));
        stream.extend((0..200).map(|_| rng.gen::<bool>()));

        let rx = ChipReceiver::default();
        let hits = rx.scan(&stream);
        let pre: Vec<_> = hits
            .iter()
            .filter(|h| h.kind == SyncKind::Preamble)
            .collect();
        let post: Vec<_> = hits
            .iter()
            .filter(|h| h.kind == SyncKind::Postamble)
            .collect();
        assert_eq!(pre.len(), 1);
        assert_eq!(post.len(), 1);

        let data_start = rx.data_start_after(pre[0]);
        let span = rx.despread(&stream, data_start, symbols.len());
        assert_eq!(span.to_bytes(), payload);
        assert!(span.hints().iter().all(|&h| h == 0));
    }

    #[test]
    fn postamble_alone_still_syncs() {
        // Destroy the preamble completely; the postamble must still give
        // a sync point (the rollback logic is exercised in ppr-mac).
        let payload = b"rollback!";
        let symbols = bytes_to_symbols(payload);
        let mut chips = frame_chips(&symbols);
        let mut rng = StdRng::seed_from_u64(9);
        let pre_len = crate::sync::tx_preamble_chips().len();
        for c in chips.iter_mut().take(pre_len) {
            *c = rng.gen();
        }
        let rx = ChipReceiver::default();
        let hits = rx.scan(&chips);
        assert!(hits.iter().all(|h| h.kind == SyncKind::Postamble));
        assert_eq!(hits.len(), 1);
        // Rolling back from the postamble recovers the payload: the
        // postamble starts right after the data.
        let post = hits[0];
        let data_chips = symbols.len() * CHIPS_PER_SYMBOL;
        // Postamble hit is 2 zero-symbols into the postamble run... the
        // pattern starts at (POSTAMBLE_ZERO_SYMBOLS - 2) symbols after the
        // postamble begins.
        let postamble_start =
            post.chip_offset - (crate::sync::POSTAMBLE_ZERO_SYMBOLS - 2) * CHIPS_PER_SYMBOL;
        let data_start = postamble_start - data_chips;
        assert_eq!(data_start, pre_len);
        let span = rx.despread(&chips, data_start, symbols.len());
        assert_eq!(span.to_bytes(), payload);
    }

    #[test]
    fn despread_truncated_stream_flags_missing_tail() {
        let symbols = bytes_to_symbols(b"0123456789");
        let mut chips = frame_chips(&symbols);
        // Truncate mid-codeword: 8 whole payload codewords plus 10 chips
        // of the ninth survive.
        let data_start_tx = crate::sync::tx_preamble_chips().len();
        chips.truncate(data_start_tx + 8 * CHIPS_PER_SYMBOL + 10);
        let rx = ChipReceiver::default();
        let hits = rx.scan(&chips);
        let pre = hits.iter().find(|h| h.kind == SyncKind::Preamble).unwrap();
        let data_start = rx.data_start_after(pre);
        assert_eq!(data_start, data_start_tx);
        let span = rx.despread(&chips, data_start, symbols.len());
        // Symbols whose first chip is past the end are not emitted; the
        // partially received ninth symbol is, with an honest non-zero
        // hint (no codeword has a 22-chip all-zero tail).
        assert_eq!(span.len(), 9);
        assert_eq!(&span.hints()[..8], &[0; 8]);
        assert!(span.hints()[8] > 0);
    }

    #[test]
    fn despread_words_matches_reference() {
        use crate::chips::ChipWords;
        let symbols = bytes_to_symbols(b"packed despread parity");
        let mut chips = frame_chips(&symbols);
        let mut rng = StdRng::seed_from_u64(11);
        // Corrupt a sprinkling of chips so hints are non-trivial.
        for _ in 0..200 {
            let i = rng.gen_range(0..chips.len());
            chips[i] = !chips[i];
        }
        let packed = ChipWords::from_bools(&chips);
        let rx = ChipReceiver::default();
        let data_start = crate::sync::tx_preamble_chips().len();
        // Whole section, truncated section, unaligned offset, and a
        // request running past the end of the stream.
        for (off, n) in [
            (data_start, symbols.len()),
            (data_start + 7, symbols.len()),
            (0, symbols.len() + 40),
            (chips.len() - 10, 4),
        ] {
            let a = rx.despread(&chips, off, n);
            let b = rx.despread_words(&packed, off, n);
            assert_eq!(a, b, "offset {off} n {n}");
        }
    }

    #[test]
    fn frame_chips_layout() {
        let symbols = bytes_to_symbols(&[0xFF]);
        let chips = frame_chips(&symbols);
        let expect = crate::sync::tx_preamble_chips().len()
            + 2 * CHIPS_PER_SYMBOL
            + crate::sync::tx_postamble_chips().len();
        assert_eq!(chips.len(), expect);
        // Preamble region = codeword 0 repeated: first 8 symbols' chips
        // all equal CODEBOOK[0] pattern.
        let zero = crate::chips::CODEBOOK[0];
        for s in 0..PREAMBLE_ZERO_SYMBOLS {
            let start = s * CHIPS_PER_SYMBOL;
            let w = pack_chip_words(&chips[start..start + CHIPS_PER_SYMBOL])[0];
            assert_eq!(w, zero);
        }
    }
}
