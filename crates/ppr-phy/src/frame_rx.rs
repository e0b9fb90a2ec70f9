//! Chip-stream and sample-stream receiver front ends.
//!
//! [`ChipReceiver`] is the synchronization + despreading engine shared by
//! every experiment: it scans a hard-decision chip stream for preamble and
//! postamble delimiters and despreads arbitrary symbol ranges with
//! SoftPHY hints attached. Frame *parsing* (headers, trailers, CRCs) is a
//! link-layer concern and lives in `ppr-mac`.
//!
//! [`SampleReceiver`] stacks the DSP front end on top: timing recovery,
//! matched-filter demodulation (resolving the I/Q rail-parity ambiguity by
//! trying both) and then the same chip-level machinery.

use crate::chips::{ChipWords, CHIPS_PER_SYMBOL};
use crate::complex::Complex32;
use crate::modem::{pack_chip_words, MskModem};
use crate::softphy::{SoftSpan, SoftSymbol};
use crate::spread::despread_hard;
use crate::sync::{SyncHit, SyncPattern, DEFAULT_SYNC_THRESHOLD};
use crate::timing::estimate_timing;

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

    /// The preamble pattern in use.
    pub fn preamble_pattern(&self) -> &SyncPattern {
        &self.preamble
    }

    /// The postamble pattern in use.
    pub fn postamble_pattern(&self) -> &SyncPattern {
        &self.postamble
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

/// Result of the sample-level front end: the chip stream a receiver
/// recovered, plus how it was aligned.
#[derive(Debug, Clone)]
pub struct ChipStream {
    /// Hard chip decisions.
    pub chips: Vec<bool>,
    /// Sub-chip sample offset chosen by timing recovery.
    pub timing_offset: usize,
    /// Whether chip 0 of `chips` was read from the I rail (`true`) or the
    /// Q rail.
    pub even_parity: bool,
}

/// DSP front end: timing recovery + matched filter + rail-parity
/// resolution.
#[derive(Debug, Clone)]
pub struct SampleReceiver {
    modem: MskModem,
    chip_rx: ChipReceiver,
}

impl SampleReceiver {
    /// Creates a sample receiver with the given oversampling factor.
    pub fn new(samples_per_chip: usize) -> Self {
        SampleReceiver {
            modem: MskModem::new(samples_per_chip),
            chip_rx: ChipReceiver::default(),
        }
    }

    /// The chip-level receiver this front end feeds.
    pub fn chip_receiver(&self) -> &ChipReceiver {
        &self.chip_rx
    }

    /// The modem in use.
    pub fn modem(&self) -> &MskModem {
        &self.modem
    }

    /// Recovers the chip stream from raw samples: runs timing recovery,
    /// demodulates at both rail parities and keeps the alignment whose
    /// sync scan finds delimiters (preferring the parity with more /
    /// better hits). Returns the chip stream and any sync hits found.
    pub fn acquire(&self, samples: &[Complex32]) -> (ChipStream, Vec<SyncHit>) {
        let sps = self.modem.samples_per_chip();
        let window = 64.min(samples.len() / sps / 2);
        let timing = estimate_timing(&self.modem, samples, 0, window).unwrap_or(
            crate::timing::TimingEstimate {
                offset: 0,
                quality: 0.0,
            },
        );
        let n_chips = (samples.len().saturating_sub(timing.offset)) / sps;

        let mut best: Option<(ChipStream, Vec<SyncHit>)> = None;
        for parity in [true, false] {
            let chips = self
                .modem
                .demodulate_hard(samples, timing.offset, n_chips, parity);
            let hits = self.chip_rx.scan(&chips);
            let stream = ChipStream {
                chips,
                timing_offset: timing.offset,
                even_parity: parity,
            };
            let better = match &best {
                None => true,
                Some((_, best_hits)) => score(&hits) > score(best_hits),
            };
            if better {
                best = Some((stream, hits));
            }
        }
        best.expect("two candidates always evaluated")
    }

    /// Despreads a symbol range of an acquired chip stream.
    pub fn despread(&self, stream: &ChipStream, chip_offset: usize, n_symbols: usize) -> SoftSpan {
        self.chip_rx.despread(&stream.chips, chip_offset, n_symbols)
    }
}

/// Sync-quality score used to pick a rail parity: more hits win; among
/// equal counts, lower total distance wins.
fn score(hits: &[SyncHit]) -> (usize, i64) {
    let total: i64 = hits.iter().map(|h| h.distance as i64).sum();
    (hits.len(), -total)
}

/// Builds the chip stream a sender emits for raw payload symbols framed by
/// preamble and postamble (no MAC structure — test helper and building
/// block for `ppr-mac`'s frame builder).
pub fn frame_chips(symbols: &[u8]) -> Vec<bool> {
    let mut chips = crate::sync::tx_preamble_chips();
    chips.extend(crate::modem::unpack_chip_words(&crate::spread::spread(
        symbols,
    )));
    chips.extend(crate::sync::tx_postamble_chips());
    chips
}

/// Packs a chip stream back into codeword-aligned words from an offset —
/// convenience for tests.
pub fn words_from(stream: &[bool], chip_offset: usize, n_symbols: usize) -> Vec<u32> {
    let end = (chip_offset + n_symbols * CHIPS_PER_SYMBOL).min(stream.len());
    pack_chip_words(&stream[chip_offset.min(end)..end])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spread::bytes_to_symbols;
    use crate::sync::{SyncKind, PREAMBLE_ZERO_SYMBOLS};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

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
    fn sample_receiver_end_to_end() {
        let payload = b"dsp path";
        let symbols = bytes_to_symbols(payload);
        let chips = frame_chips(&symbols);
        let modem = MskModem::new(4);
        let mut samples = vec![Complex32::ZERO; 13]; // odd lead to stress timing
        samples.extend(modem.modulate(&chips));

        let rx = SampleReceiver::new(4);
        let (stream, hits) = rx.acquire(&samples);
        let pre: Vec<_> = hits
            .iter()
            .filter(|h| h.kind == SyncKind::Preamble)
            .collect();
        assert_eq!(pre.len(), 1, "hits: {hits:?}");
        let data_start = rx.chip_receiver().data_start_after(pre[0]);
        let span = rx.despread(&stream, data_start, symbols.len());
        assert_eq!(span.to_bytes(), payload);
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
            let w = words_from(&chips, s * CHIPS_PER_SYMBOL, 1)[0];
            assert_eq!(w, zero);
        }
    }
}
