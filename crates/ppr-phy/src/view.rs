//! A frame's received symbols as columns: the [`SymbolView`].
//!
//! A view holds one span of despread symbols — a received frame's link
//! section — as four byte columns: the symbols and their Hamming hints,
//! and the bytes they pack into with each byte's hint (the larger of its
//! two nibble hints). The packed receive path fills a view in place
//! ([`SymbolView::fill`]): the active SIMD kernel
//! ([`DespreadKernel::active`](crate::simd::DespreadKernel::active))
//! despreads straight out of the capture's 64-chip lanes into the symbol
//! and hint columns ([`despread_lanes`](crate::simd::despread_lanes)),
//! bit-identical to the eager reference path, and a caller that refills
//! one view per reception reuses its columns' allocations. Every kernel
//! tier skips the codebook scan for words that are exact codewords, so
//! filling a view of a clean reception costs a table lookup per word,
//! not a 16-codeword scan: the despread work follows the channel's chip
//! errors, not the frame length.
//!
//! A view is *frame-shaped*: it always exposes exactly the symbol count
//! it was filled for. Symbols the reception never captured (the stream
//! started after them or ended before them) read as a caller-supplied
//! `absent` sentinel — `ppr-mac` passes its `HINT_NEVER_RECEIVED`
//! padding symbol — so downstream layers see maximally un-confident
//! symbols rather than a shortened span, exactly as the eager pipeline
//! does.

use crate::chips::{ChipWords, CHIPS_PER_SYMBOL};
use crate::softphy::SoftSymbol;
use std::ops::Range;

/// A despread span of symbols with its packed bytes (see the
/// [module docs](self)).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SymbolView {
    symbols: Vec<u8>,
    hints: Vec<u8>,
    /// Byte `i` packs symbols `2i` (low nibble) and `2i + 1`.
    bytes: Vec<u8>,
    /// The larger of the two nibble hints of each byte.
    byte_hints: Vec<u8>,
}

impl SymbolView {
    /// Wraps already-decoded symbols — the construction the reference
    /// (`&[bool]`) receive path uses, so both paths flow through one
    /// frame type.
    pub fn eager(symbols: Vec<SoftSymbol>) -> Self {
        let mut view = SymbolView {
            symbols: symbols.iter().map(|s| s.symbol).collect(),
            hints: symbols.iter().map(|s| s.hint).collect(),
            ..SymbolView::default()
        };
        view.pack();
        view
    }

    /// Refills the view with the `n_symbols` symbols whose first chip
    /// sits at `chip_offset` of `stream` (may be negative or extend past
    /// the stream; those symbols read as `absent`), reusing the columns'
    /// allocations. `lanes` is working memory for a capture that is not
    /// lane-aligned ([`despread_at`]).
    pub fn fill(
        &mut self,
        stream: &ChipWords,
        chip_offset: i64,
        n_symbols: usize,
        absent: SoftSymbol,
        lanes: &mut Vec<u64>,
    ) {
        self.symbols.resize(n_symbols, 0);
        self.hints.resize(n_symbols, 0);
        despread_at(
            stream,
            chip_offset,
            absent,
            lanes,
            &mut self.symbols,
            &mut self.hints,
        );
        self.pack();
    }

    /// Empties the view, keeping its allocations.
    pub fn clear(&mut self) {
        self.symbols.clear();
        self.hints.clear();
        self.bytes.clear();
        self.byte_hints.clear();
    }

    /// Repacks the byte columns from the symbol columns.
    fn pack(&mut self) {
        // Each symbol pair read as one little-endian `u16` (low nibble's
        // symbol in the low byte): the compiler vectorizes this form,
        // not the byte-pair one.
        let pairs = |column: &[u8], f: fn(u16) -> u8, out: &mut Vec<u8>| {
            out.clear();
            out.extend(
                column
                    .as_chunks::<2>()
                    .0
                    .iter()
                    .map(|&pair| f(u16::from_le_bytes(pair))),
            );
        };
        pairs(
            &self.symbols,
            |w| ((w & 0x0f) | ((w >> 4) & 0xf0)) as u8,
            &mut self.bytes,
        );
        pairs(
            &self.hints,
            |w| (w & 0xff).max(w >> 8) as u8,
            &mut self.byte_hints,
        );
    }

    /// Total symbols the view exposes.
    pub fn len(&self) -> usize {
        self.symbols.len()
    }

    /// True when the view exposes no symbols.
    pub fn is_empty(&self) -> bool {
        self.symbols.is_empty()
    }

    /// The symbols of `range`.
    ///
    /// # Panics
    /// Panics if `range.end > len()`.
    pub fn range(&self, range: Range<usize>) -> Vec<SoftSymbol> {
        self.symbols[range.clone()]
            .iter()
            .zip(&self.hints[range])
            .map(|(&symbol, &hint)| SoftSymbol { symbol, hint })
            .collect()
    }

    /// Every symbol of the view.
    pub fn all(&self) -> Vec<SoftSymbol> {
        self.range(0..self.len())
    }

    /// The symbol values of symbols `range`.
    ///
    /// # Panics
    /// Panics if `range.end > len()`.
    pub fn symbols(&self, range: Range<usize>) -> &[u8] {
        &self.symbols[range]
    }

    /// Per-symbol hints of symbols `range`.
    ///
    /// # Panics
    /// Panics if `range.end > len()`.
    pub fn hints(&self, range: Range<usize>) -> &[u8] {
        &self.hints[range]
    }

    /// Bytes `bytes` of the view (byte `i` is symbols `2i`, low nibble,
    /// and `2i + 1`); equal to
    /// `SoftSpan { symbols: self.range(2 * start..2 * end) }.to_bytes()`.
    ///
    /// # Panics
    /// Panics if `2 * bytes.end > len()`.
    pub fn bytes(&self, bytes: Range<usize>) -> &[u8] {
        &self.bytes[bytes]
    }

    /// Per-byte hints of bytes `bytes` (the larger of the two nibble
    /// hints); equal to
    /// [`SoftSpan::byte_hints`](crate::softphy::SoftSpan::byte_hints) of
    /// the same symbols.
    ///
    /// # Panics
    /// Panics if `2 * bytes.end > len()`.
    pub fn byte_hints(&self, bytes: Range<usize>) -> &[u8] {
        &self.byte_hints[bytes]
    }
}

/// Despreads `symbols.len()` symbols whose first chip sits at
/// `chip_offset` of `stream` into the two columns (equal lengths).
/// Symbols whose first chip lies before the stream or past its end
/// read as `absent`; chips past the end read as zero, so a truncated
/// final codeword decodes with a large, honest hint — the boundary
/// semantics of `ppr-mac`'s eager clamped despread.
///
/// A capture whose decodable symbols start on a 64-chip lane boundary
/// (every whole frame rendered from chip 0) despreads straight from the
/// stream's lanes; any other offset gathers its lanes into `lanes`
/// first ([`ChipWords::gather_lanes_into`]), reusing its allocation.
///
/// # Panics
/// Panics if the columns differ in length.
pub fn despread_at(
    stream: &ChipWords,
    chip_offset: i64,
    absent: SoftSymbol,
    lanes: &mut Vec<u64>,
    symbols: &mut [u8],
    hints: &mut [u8],
) {
    assert_eq!(symbols.len(), hints.len(), "column lengths differ");
    let n_symbols = symbols.len();
    let sym_chips = CHIPS_PER_SYMBOL as i64;
    // Symbols whose first chip is before the stream are absent.
    let lead = if chip_offset < 0 {
        (((-chip_offset) as usize).div_ceil(CHIPS_PER_SYMBOL)).min(n_symbols)
    } else {
        0
    };
    let start = chip_offset + (lead as i64) * sym_chips;
    let remaining = n_symbols - lead;
    let present = if remaining == 0 || start as usize >= stream.len() {
        0
    } else {
        remaining.min((stream.len() - start as usize).div_ceil(CHIPS_PER_SYMBOL))
    };
    let end = lead + present;
    symbols[..lead].fill(absent.symbol);
    symbols[end..].fill(absent.symbol);
    hints[..lead].fill(absent.hint);
    hints[end..].fill(absent.hint);
    if present > 0 {
        despread_present(
            stream,
            start as usize,
            lanes,
            &mut symbols[lead..end],
            &mut hints[lead..end],
        );
    }
}

/// Despreads `symbols.len()` symbols starting at chip `chip_offset`,
/// every one of whose first chips lies inside `stream`: from lane
/// storage when the offset is lane-aligned, else through `lanes`.
pub(crate) fn despread_present(
    stream: &ChipWords,
    chip_offset: usize,
    lanes: &mut Vec<u64>,
    symbols: &mut [u8],
    hints: &mut [u8],
) {
    let n_lanes = symbols.len().div_ceil(2);
    let lane0 = chip_offset / 64;
    if chip_offset.is_multiple_of(64) && lane0 + n_lanes <= stream.words().len() {
        crate::simd::despread_lanes(&stream.words()[lane0..lane0 + n_lanes], symbols, hints);
    } else {
        lanes.clear();
        stream.gather_lanes_into(chip_offset, n_lanes, lanes);
        crate::simd::despread_lanes(lanes, symbols, hints);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chips::CODEBOOK;

    const ABSENT: SoftSymbol = SoftSymbol {
        symbol: 0,
        hint: 33,
    };

    fn stream_of(symbols: &[u8]) -> ChipWords {
        ChipWords::from_codewords(
            &symbols
                .iter()
                .map(|&s| CODEBOOK[s as usize])
                .collect::<Vec<_>>(),
        )
    }

    fn filled(stream: &ChipWords, chip_offset: i64, n_symbols: usize) -> SymbolView {
        let mut view = SymbolView::default();
        view.fill(stream, chip_offset, n_symbols, ABSENT, &mut Vec::new());
        view
    }

    #[test]
    fn fill_decodes_aligned_codewords() {
        let syms: Vec<u8> = (0..16).chain(0..16).collect();
        let stream = stream_of(&syms);
        let got = filled(&stream, 0, syms.len()).all();
        assert_eq!(got.len(), syms.len());
        for (i, s) in got.iter().enumerate() {
            assert_eq!(s.symbol, syms[i]);
            assert_eq!(s.hint, 0);
        }
    }

    #[test]
    fn negative_offset_pads_head_with_absent() {
        let stream = stream_of(&[5, 6, 7]);
        // First two symbols were transmitted before the capture began.
        let got = filled(&stream, -64, 5).all();
        assert_eq!(got[0], ABSENT);
        assert_eq!(got[1], ABSENT);
        assert_eq!(got[2].symbol, 5);
        assert_eq!(got[4].symbol, 7);
    }

    #[test]
    fn tail_past_stream_pads_with_absent() {
        let stream = stream_of(&[1, 2]);
        let got = filled(&stream, 0, 4).all();
        assert_eq!(got[0].symbol, 1);
        assert_eq!(got[1].symbol, 2);
        assert_eq!(got[2], ABSENT);
        assert_eq!(got[3], ABSENT);
    }

    #[test]
    fn truncated_final_codeword_decodes_with_honest_hint() {
        let mut stream = stream_of(&[9, 9]);
        stream.truncate(32 + 10); // 10 chips of the second codeword
        let got = filled(&stream, 0, 2).all();
        assert_eq!(got[0].symbol, 9);
        assert_eq!(got[0].hint, 0);
        // Second symbol's first chip is inside the stream → decoded,
        // with a large hint from the zero-read tail.
        assert!(got[1].hint > 0, "truncated codeword must not decode clean");
        assert_ne!(got[1], ABSENT, "partially captured symbol is not absent");
    }

    #[test]
    fn unaligned_offset_matches_despread_words() {
        let syms: Vec<u8> = (0..50).map(|i| ((i * 7) % 16) as u8).collect();
        let mut stream = ChipWords::zeros(17); // unaligned lead
        for &s in &syms {
            stream.push_codeword(CODEBOOK[s as usize]);
        }
        let rx = crate::frame_rx::ChipReceiver::default();
        let reference = rx.despread_words(&stream, 17, syms.len());
        assert_eq!(filled(&stream, 17, syms.len()).all(), reference.symbols);
    }

    /// The column accessors against the `SoftSpan` spec over the padded
    /// symbols, for lead-absent, unaligned and truncated captures, on
    /// fresh views and on one view refilled from every capture in turn
    /// (so each fill starts from a longer or shorter leftover).
    #[test]
    fn byte_accessors_match_soft_span() {
        use crate::softphy::SoftSpan;
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        let mut rng = StdRng::seed_from_u64(14);
        let syms: Vec<u8> = (0..300).map(|_| rng.gen_range(0..16)).collect();
        let mut stream = stream_of(&syms);
        for _ in 0..2_000 {
            let i = rng.gen_range(0..stream.len());
            stream.toggle(i); // varied hints, some wrong decisions
        }
        let mut truncated = stream.clone();
        truncated.truncate(150 * CHIPS_PER_SYMBOL + 7); // ends mid-codeword
        let captures: [(&ChipWords, i64, usize); 8] = [
            (&stream, 0, 280),
            (&stream, 17, 280),                             // unaligned
            (&stream, -32, 280),                            // one lead symbol: byte 0 straddles
            (&stream, -101, 100),                           // four lead symbols, odd chip
            (&stream, 40 * CHIPS_PER_SYMBOL as i64, 280),   // runs past the end
            (&truncated, 0, 280),                           // truncated mid-frame
            (&truncated, -3 * CHIPS_PER_SYMBOL as i64, 20), // both at once, odd lead
            (&stream, 64, 0),                               // empty
        ];
        let byte_ranges = [0..140, 0..0, 0..1, 1..2, 31..33, 30..35, 63..65, 70..75];
        let symbol_ranges = [0..280, 1..2, 3..4, 63..65, 127..129, 61..200, 279..280];
        let mut reused = SymbolView::default();
        let mut lanes = Vec::new();
        let mut absent_seen = 0;
        for &(chips, offset, n) in captures.iter().chain(captures.iter().rev()) {
            let fresh = filled(chips, offset, n);
            reused.fill(chips, offset, n, ABSENT, &mut lanes);
            assert_eq!(reused, fresh, "offset {offset}, {n} symbols");
            let all = SoftSpan {
                symbols: fresh.all(),
            };
            absent_seen += all.symbols.iter().filter(|&&s| s == ABSENT).count();
            assert_eq!(fresh, SymbolView::eager(all.symbols.clone()));
            for r in byte_ranges.iter().filter(|r| 2 * r.end <= n) {
                let spec = SoftSpan {
                    symbols: fresh.range(2 * r.start..2 * r.end),
                };
                let ctx = format!("offset {offset}, bytes {r:?}");
                assert_eq!(fresh.bytes(r.clone()), spec.to_bytes(), "{ctx}");
                assert_eq!(fresh.byte_hints(r.clone()), spec.byte_hints(), "{ctx}");
            }
            for r in symbol_ranges.iter().filter(|r| r.end <= n) {
                let spec = SoftSpan {
                    symbols: fresh.range(r.clone()),
                };
                let ctx = format!("offset {offset}, symbols {r:?}");
                assert_eq!(fresh.hints(r.clone()), spec.hints(), "{ctx}");
                let want: Vec<u8> = spec.symbols.iter().map(|s| s.symbol).collect();
                assert_eq!(fresh.symbols(r.clone()), want, "{ctx}");
            }
        }
        assert!(absent_seen > 0, "no capture exercised the absent sentinel");
    }

    #[test]
    fn filled_and_eager_views_compare_equal() {
        let syms: Vec<u8> = (0..100).map(|i| ((i * 3) % 16) as u8).collect();
        let stream = stream_of(&syms);
        let view = filled(&stream, 0, syms.len());
        assert_eq!(view, SymbolView::eager(view.all()));
    }

    #[test]
    fn view_entirely_before_or_after_stream_is_all_absent() {
        let stream = stream_of(&[3]);
        assert!(filled(&stream, -320, 4).all().iter().all(|&s| s == ABSENT));
        assert!(filled(&stream, 320, 4).all().iter().all(|&s| s == ABSENT));
        let empty = filled(&stream, 0, 0);
        assert!(empty.is_empty());
        assert_eq!(empty.all(), Vec::new());
    }
}
