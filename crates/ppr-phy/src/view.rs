//! Demand-driven symbol decoding: the lazy [`SymbolView`].
//!
//! PR 2's packed pipeline despreads a frame's *entire* link section the
//! moment a delimiter verifies, even when the consumer only reads a
//! slice of it — a scheme probing a header, PP-ARQ decoding the chunks a
//! feedback packet asked for, a relay checking a trailer. The
//! [`SymbolView`] defers that work: it captures the (packed) chips of a
//! symbol range at construction and despreads **only the sub-ranges a
//! consumer actually requests**, in 64-symbol blocks, each decoded once
//! and cached. The cache is two byte columns, symbols and hints, and the
//! active SIMD kernel
//! ([`DespreadKernel::active`](crate::simd::DespreadKernel::active))
//! despreads each missing block straight into them
//! ([`despread_lanes`](crate::simd::despread_lanes)), bit-identical to
//! the eager reference path. Every kernel tier skips the codebook scan
//! for words that are exact codewords, so filling a block of a clean
//! reception costs a table lookup per word, not a 16-codeword scan: the
//! despread work follows the channel's chip errors, not the frame
//! length.
//!
//! A view is *frame-shaped*: it always exposes exactly the symbol count
//! it was built for. Symbols the reception never captured (the stream
//! started after them or ended before them) read as a caller-supplied
//! `absent` sentinel — `ppr-mac` passes its `HINT_NEVER_RECEIVED`
//! padding symbol — so downstream layers see maximally un-confident
//! symbols rather than a shortened span, exactly as the eager pipeline
//! did.
//!
//! Interior mutability: the decode cache lives behind a
//! [`RefCell`], so a `&SymbolView` can decode on demand. The type
//! is `Send` but not `Sync`: a receive pipeline may hand a whole frame
//! to another thread, but never shares one frame across threads.

use crate::chips::{ChipWords, CHIPS_PER_SYMBOL};
use crate::softphy::SoftSymbol;
use std::cell::RefCell;
use std::ops::Range;

/// Symbols despread together per cache fill: 64 codewords = 2048 chips,
/// a comfortable batch for every SIMD kernel (4 full AVX-512 vectors).
const BLOCK_SYMBOLS: usize = 64;

/// A lazily-despread span of symbols (see the [module docs](self)).
#[derive(Debug, Clone)]
pub struct SymbolView {
    /// Total symbols the view exposes (absent + decodable).
    total: usize,
    /// Symbols before the captured stream (read as `absent`).
    lead: usize,
    /// Decodable symbols: `lead..lead + present` are backed by chips.
    present: usize,
    /// Captured chips, re-based so symbol `lead + k` starts at chip
    /// `k * 32` (always codeword-aligned extraction).
    chips: ChipWords,
    /// Sentinel for symbols outside the captured stream.
    absent: SoftSymbol,
    /// Decoded symbols (`present` entries) + per-block fill flags.
    cache: RefCell<Cache>,
}

/// The decoded symbols as two parallel arrays, so byte and hint reads
/// pack whole runs (see [`SymbolView::bytes`]).
#[derive(Debug, Clone)]
struct Cache {
    symbols: Vec<u8>,
    hints: Vec<u8>,
    block_done: Vec<bool>,
}

impl SymbolView {
    /// Builds a lazy view of `n_symbols` symbols whose first chip sits
    /// at `chip_offset` of `stream` (may be negative or extend past the
    /// stream; those symbols read as `absent`). No despreading happens
    /// here — only a word-wise copy of the captured chip range.
    ///
    /// Boundary semantics match the eager reference
    /// (`ppr-mac`'s clamped despread): a symbol is decodable iff its
    /// *first* chip lies inside the stream; chips past the end read as
    /// zero, so a truncated final codeword decodes with a large, honest
    /// hint.
    pub fn lazy(
        stream: &ChipWords,
        chip_offset: i64,
        n_symbols: usize,
        absent: SoftSymbol,
    ) -> Self {
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
        let chips = if present == 0 {
            ChipWords::new()
        } else {
            stream.extract_range(start as usize, present * CHIPS_PER_SYMBOL)
        };
        SymbolView {
            total: n_symbols,
            lead,
            present,
            chips,
            absent,
            cache: RefCell::new(Cache {
                symbols: vec![0; present],
                hints: vec![0; present],
                block_done: vec![false; present.div_ceil(BLOCK_SYMBOLS)],
            }),
        }
    }

    /// Wraps already-decoded symbols as a fully-materialized view — the
    /// eager construction the reference (`&[bool]`) receive path uses,
    /// so both paths flow through one frame type.
    pub fn eager(symbols: Vec<SoftSymbol>) -> Self {
        let present = symbols.len();
        SymbolView {
            total: present,
            lead: 0,
            present,
            chips: ChipWords::new(),
            absent: SoftSymbol { symbol: 0, hint: 0 },
            cache: RefCell::new(Cache {
                symbols: symbols.iter().map(|s| s.symbol).collect(),
                hints: symbols.iter().map(|s| s.hint).collect(),
                block_done: vec![true; present.div_ceil(BLOCK_SYMBOLS)],
            }),
        }
    }

    /// Total symbols the view exposes.
    pub fn len(&self) -> usize {
        self.total
    }

    /// True when the view exposes no symbols.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Symbol `i`, despreading its 64-symbol block on first touch.
    ///
    /// # Panics
    /// Panics if `i >= len()`.
    pub fn get(&self, i: usize) -> SoftSymbol {
        assert!(
            i < self.total,
            "symbol index {i} out of range {}",
            self.total
        );
        if i < self.lead || i >= self.lead + self.present {
            return self.absent;
        }
        let k = i - self.lead;
        self.ensure_blocks(k..k + 1);
        let cache = self.cache.borrow();
        SoftSymbol {
            symbol: cache.symbols[k],
            hint: cache.hints[k],
        }
    }

    /// The symbols of `range`, despreading exactly the blocks that
    /// overlap it (absent symbols padded with the sentinel).
    ///
    /// # Panics
    /// Panics if `range.end > len()`.
    pub fn range(&self, range: Range<usize>) -> Vec<SoftSymbol> {
        assert!(
            range.end <= self.total,
            "symbol range {range:?} out of range {}",
            self.total
        );
        let mut out = Vec::with_capacity(range.len());
        // Leading absent symbols.
        let lead_end = range.end.min(self.lead);
        out.extend(std::iter::repeat_n(
            self.absent,
            lead_end.saturating_sub(range.start),
        ));
        // Captured symbols.
        let cap_start = range.start.max(self.lead).min(self.lead + self.present);
        let cap_end = range.end.max(self.lead).min(self.lead + self.present);
        if cap_end > cap_start {
            let (ks, ke) = (cap_start - self.lead, cap_end - self.lead);
            self.ensure_blocks(ks..ke);
            let cache = self.cache.borrow();
            out.extend(
                cache.symbols[ks..ke]
                    .iter()
                    .zip(&cache.hints[ks..ke])
                    .map(|(&symbol, &hint)| SoftSymbol { symbol, hint }),
            );
        }
        // Trailing absent symbols.
        out.extend(std::iter::repeat_n(self.absent, range.len() - out.len()));
        out
    }

    /// Every symbol of the view (forces a full despread).
    pub fn all(&self) -> Vec<SoftSymbol> {
        self.range(0..self.total)
    }

    /// Bytes `bytes` of the view (byte `i` is symbols `2i`, low nibble,
    /// and `2i + 1`), packed straight from the decode cache; equal to
    /// `SoftSpan { symbols: self.range(2 * start..2 * end) }.to_bytes()`.
    ///
    /// # Panics
    /// Panics if `2 * bytes.end > len()`.
    pub fn bytes(&self, bytes: Range<usize>) -> Vec<u8> {
        self.with_columns(2 * bytes.start..2 * bytes.end, |symbols, _| {
            // Each symbol pair read as one little-endian `u16` (low
            // nibble's symbol in the low byte): the compiler vectorizes
            // this form, not the byte-pair one.
            symbols
                .as_chunks::<2>()
                .0
                .iter()
                .map(|&pair| {
                    let w = u16::from_le_bytes(pair);
                    ((w & 0x0f) | ((w >> 4) & 0xf0)) as u8
                })
                .collect()
        })
    }

    /// Per-byte hints of bytes `bytes` (the larger of the two nibble
    /// hints); equal to [`SoftSpan::byte_hints`](crate::softphy::SoftSpan::byte_hints)
    /// of the same symbols.
    ///
    /// # Panics
    /// Panics if `2 * bytes.end > len()`.
    pub fn byte_hints(&self, bytes: Range<usize>) -> Vec<u8> {
        self.with_columns(2 * bytes.start..2 * bytes.end, |_, hints| {
            // `u16` pairs for the same reason as in `bytes`.
            hints
                .as_chunks::<2>()
                .0
                .iter()
                .map(|&pair| {
                    let w = u16::from_le_bytes(pair);
                    (w & 0xff).max(w >> 8) as u8
                })
                .collect()
        })
    }

    /// Per-symbol hints of symbols `range`.
    ///
    /// # Panics
    /// Panics if `range.end > len()`.
    pub fn hints(&self, range: Range<usize>) -> Vec<u8> {
        self.with_columns(range, |_, hints| hints.to_vec())
    }

    /// Runs `f` over the symbols and the hints of `range`: borrowed
    /// straight from the decode cache when the range is wholly captured
    /// (the common case), otherwise split from the sentinel-padded copy
    /// [`Self::range`] builds.
    fn with_columns<T>(&self, range: Range<usize>, f: impl FnOnce(&[u8], &[u8]) -> T) -> T {
        if range.start < self.lead || range.end > self.lead + self.present || range.is_empty() {
            let padded = self.range(range);
            let symbols: Vec<u8> = padded.iter().map(|s| s.symbol).collect();
            let hints: Vec<u8> = padded.iter().map(|s| s.hint).collect();
            return f(&symbols, &hints);
        }
        let (ks, ke) = (range.start - self.lead, range.end - self.lead);
        self.ensure_blocks(ks..ke);
        let cache = self.cache.borrow();
        f(&cache.symbols[ks..ke], &cache.hints[ks..ke])
    }

    /// Despreads every not-yet-decoded block covering captured symbols
    /// `range` (indices relative to the captured region) straight into
    /// the cache columns.
    fn ensure_blocks(&self, range: Range<usize>) {
        let mut cache = self.cache.borrow_mut();
        let Cache {
            symbols,
            hints,
            block_done,
        } = &mut *cache;
        let (first, last) = (range.start / BLOCK_SYMBOLS, (range.end - 1) / BLOCK_SYMBOLS);
        for (b, done) in (first..).zip(&mut block_done[first..=last]) {
            if *done {
                continue;
            }
            // The view is re-based, so block `b`'s codewords sit packed
            // two-per-lane starting at lane `lo / 2` (`lo` is even:
            // BLOCK_SYMBOLS is) — decoded straight from lane memory.
            let lo = b * BLOCK_SYMBOLS;
            let hi = ((b + 1) * BLOCK_SYMBOLS).min(self.present);
            crate::simd::despread_lanes(
                &self.chips.words()[lo / 2..hi.div_ceil(2)],
                &mut symbols[lo..hi],
                &mut hints[lo..hi],
            );
            *done = true;
        }
    }
}

/// Equality forces both views to despread fully and compares the
/// resulting symbols — a lazy view and the eager reference view of the
/// same reception compare equal, which is what the parity harnesses
/// rely on.
impl PartialEq for SymbolView {
    fn eq(&self, other: &Self) -> bool {
        self.total == other.total && self.all() == other.all()
    }
}

impl Eq for SymbolView {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chips::CODEBOOK;

    impl SymbolView {
        /// Symbols despread so far — the demand-driven cost of this view.
        /// Zero for an untouched lazy view, full for an eager one; grows
        /// block-wise as ranges are read.
        fn decoded_symbols(&self) -> usize {
            let cache = self.cache.borrow();
            cache
                .block_done
                .iter()
                .enumerate()
                .filter(|&(_, &done)| done)
                .map(|(b, _)| ((b + 1) * BLOCK_SYMBOLS).min(self.present) - b * BLOCK_SYMBOLS)
                .sum()
        }
    }

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

    #[test]
    fn lazy_view_decodes_aligned_codewords() {
        let syms: Vec<u8> = (0..16).chain(0..16).collect();
        let stream = stream_of(&syms);
        let view = SymbolView::lazy(&stream, 0, syms.len(), ABSENT);
        assert_eq!(view.decoded_symbols(), 0, "construction must not decode");
        let got = view.all();
        assert_eq!(got.len(), syms.len());
        for (i, s) in got.iter().enumerate() {
            assert_eq!(s.symbol, syms[i]);
            assert_eq!(s.hint, 0);
        }
        assert_eq!(view.decoded_symbols(), syms.len());
    }

    #[test]
    fn negative_offset_pads_head_with_absent() {
        let stream = stream_of(&[5, 6, 7]);
        // First two symbols were transmitted before the capture began.
        let view = SymbolView::lazy(&stream, -64, 5, ABSENT);
        let got = view.all();
        assert_eq!(got[0], ABSENT);
        assert_eq!(got[1], ABSENT);
        assert_eq!(got[2].symbol, 5);
        assert_eq!(got[4].symbol, 7);
    }

    #[test]
    fn tail_past_stream_pads_with_absent() {
        let stream = stream_of(&[1, 2]);
        let view = SymbolView::lazy(&stream, 0, 4, ABSENT);
        let got = view.all();
        assert_eq!(got[0].symbol, 1);
        assert_eq!(got[1].symbol, 2);
        assert_eq!(got[2], ABSENT);
        assert_eq!(got[3], ABSENT);
    }

    #[test]
    fn truncated_final_codeword_decodes_with_honest_hint() {
        let mut stream = stream_of(&[9, 9]);
        stream.truncate(32 + 10); // 10 chips of the second codeword
        let view = SymbolView::lazy(&stream, 0, 2, ABSENT);
        let got = view.all();
        assert_eq!(got[0].symbol, 9);
        assert_eq!(got[0].hint, 0);
        // Second symbol's first chip is inside the stream → decoded,
        // with a large hint from the zero-read tail.
        assert!(got[1].hint > 0, "truncated codeword must not decode clean");
        assert_ne!(got[1], ABSENT, "partially captured symbol is not absent");
    }

    #[test]
    fn range_reads_decode_only_touched_blocks() {
        let syms: Vec<u8> = (0..200).map(|i| (i % 16) as u8).collect();
        let stream = stream_of(&syms);
        let view = SymbolView::lazy(&stream, 0, syms.len(), ABSENT);
        // Touch ten symbols in the middle: exactly one 64-symbol block
        // must fill.
        let got = view.range(70..80);
        for (i, s) in got.iter().enumerate() {
            assert_eq!(s.symbol, syms[70 + i]);
        }
        assert_eq!(view.decoded_symbols(), 64);
        // A repeated read decodes nothing further.
        let again = view.range(70..80);
        assert_eq!(again, got);
        assert_eq!(view.decoded_symbols(), 64);
        // A full read fills the rest and agrees symbol-for-symbol.
        let all = view.all();
        assert_eq!(all.len(), syms.len());
        assert_eq!(view.decoded_symbols(), syms.len());
        assert_eq!(&all[70..80], &got[..]);
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
        let view = SymbolView::lazy(&stream, 17, syms.len(), ABSENT);
        assert_eq!(view.all(), reference.symbols);
    }

    /// The cache-reading byte/hint accessors against the `SoftSpan` spec
    /// over the padded symbols, on untouched and partly decoded views,
    /// for lead-absent, unaligned and truncated captures and for ranges
    /// that straddle the 64-symbol cache blocks.
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
        let n = 280; // symbols per view: 140 bytes
        let captures: [(&ChipWords, i64); 7] = [
            (&stream, 0),
            (&stream, 17),                              // unaligned
            (&stream, -32),                             // one lead symbol: byte 0 straddles
            (&stream, -101),                            // four lead symbols, odd chip
            (&stream, 40 * CHIPS_PER_SYMBOL as i64),    // runs past the end
            (&truncated, 0),                            // truncated mid-frame
            (&truncated, -3 * CHIPS_PER_SYMBOL as i64), // both at once, odd lead
        ];
        let byte_ranges = [
            0..140,
            0..0,
            0..1,
            1..2,
            31..33,
            30..35,
            63..65,
            70..75,
            100..140,
        ];
        let symbol_ranges = [0..280, 1..2, 3..4, 63..65, 127..129, 61..200, 279..280];
        let mut absent_seen = 0;
        for &(chips, offset) in &captures {
            for touched in [false, true] {
                let fresh = || {
                    let v = SymbolView::lazy(chips, offset, n, ABSENT);
                    if touched {
                        v.get(100); // decodes one block only
                    }
                    v
                };
                for r in &byte_ranges {
                    let oracle = fresh();
                    let spec = SoftSpan {
                        symbols: oracle.range(2 * r.start..2 * r.end),
                    };
                    absent_seen += spec.symbols.iter().filter(|&&s| s == ABSENT).count();
                    let ctx = format!("offset {offset}, touched {touched}, bytes {r:?}");
                    let view = fresh();
                    assert_eq!(view.bytes(r.clone()), spec.to_bytes(), "{ctx}");
                    // Reading through the accessor decodes exactly the
                    // blocks the padded copy would have.
                    assert_eq!(view.decoded_symbols(), oracle.decoded_symbols(), "{ctx}");
                    assert_eq!(fresh().byte_hints(r.clone()), spec.byte_hints(), "{ctx}");
                }
                for r in &symbol_ranges {
                    let spec = SoftSpan {
                        symbols: fresh().range(r.clone()),
                    };
                    let ctx = format!("offset {offset}, touched {touched}, symbols {r:?}");
                    assert_eq!(fresh().hints(r.clone()), spec.hints(), "{ctx}");
                }
            }
        }
        assert!(absent_seen > 0, "no capture exercised the absent sentinel");
    }

    #[test]
    fn eager_and_lazy_views_compare_equal() {
        let syms: Vec<u8> = (0..100).map(|i| ((i * 3) % 16) as u8).collect();
        let stream = stream_of(&syms);
        let lazy = SymbolView::lazy(&stream, 0, syms.len(), ABSENT);
        let eager = SymbolView::eager(lazy.all());
        assert_eq!(lazy, eager);
        assert_eq!(eager.decoded_symbols(), syms.len());
    }

    #[test]
    fn view_entirely_before_or_after_stream_is_all_absent() {
        let stream = stream_of(&[3]);
        let before = SymbolView::lazy(&stream, -320, 4, ABSENT);
        assert!(before.all().iter().all(|&s| s == ABSENT));
        let after = SymbolView::lazy(&stream, 320, 4, ABSENT);
        assert!(after.all().iter().all(|&s| s == ABSENT));
        let empty = SymbolView::lazy(&stream, 0, 0, ABSENT);
        assert!(empty.is_empty());
        assert_eq!(empty.all(), Vec::new());
    }
}
