//! Receive pipeline: chip stream → synchronized, SoftPHY-annotated frames.
//!
//! This is where preamble decoding, postamble rollback (§4) and frame
//! parsing meet. For every sync hit the pipeline reconstructs the frame's
//! byte geometry — from the header when the preamble was caught, from the
//! *trailer* when only the postamble was — and exposes the link-layer
//! section as a [`SymbolView`] with per-symbol Hamming hints.
//!
//! The packed (`ChipWords`) path receives **in place**: a caller-owned
//! [`RxCapture`] holds one frame's columns and working memory, and
//! [`FrameReceiver::decode_from_preamble_into`] /
//! [`FrameReceiver::decode_from_postamble_into`] refill it straight from
//! the capture's chip lanes. The 8-byte header (or trailer) decodes
//! first; only when it verifies does the link section despread, all of
//! it, into the capture's columns. A driver that keeps one capture per
//! receiver allocates nothing per frame once the capture has grown to
//! its longest frame. The `*_words` constructors wrap that one step and
//! hand back an owned [`RxFrame`]; the reference `&[bool]` path stays
//! eager and separate, and both produce bit-identical symbols (workspace
//! `tests/packed_parity.rs` and `tests/lazy_parity.rs`).
//!
//! Missing symbols (reception started after the frame began, or ended
//! before it did) are represented explicitly with the sentinel hint
//! [`HINT_NEVER_RECEIVED`], so downstream consumers see a frame-shaped
//! span whose absent parts are maximally un-confident rather than
//! silently shortened.

use crate::frame::{FrameGeometry, Header, HEADER_BYTES};
use ppr_phy::chips::{ChipWords, CHIPS_PER_SYMBOL};
use ppr_phy::frame_rx::ChipReceiver;
use ppr_phy::softphy::{SoftSpan, SoftSymbol};
use ppr_phy::sync::{SyncKind, POSTAMBLE_ZERO_SYMBOLS};
use ppr_phy::view::{despread_at, SymbolView};

/// Hint value assigned to symbols that were never received (outside the
/// captured chip stream). One past the worst real Hamming distance, so
/// every threshold rule labels them bad.
pub const HINT_NEVER_RECEIVED: u8 = 33;

/// The padding symbol for never-received positions.
const ABSENT: SoftSymbol = SoftSymbol {
    symbol: 0,
    hint: HINT_NEVER_RECEIVED,
};

/// A frame reconstructed from one sync hit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RxFrame {
    /// How the receiver synchronized onto this frame.
    pub sync: SyncKind,
    /// The verified header (from the header on a preamble sync, from the
    /// trailer on a postamble sync). `None` when neither record verified —
    /// such receptions carry no usable geometry and deliver nothing.
    pub header: Option<Header>,
    /// Chip offset (in the receiver's stream) where the link-layer
    /// section starts, when known.
    pub link_start_chip: Option<i64>,
    /// The full link-layer section, one symbol per transmitted symbol,
    /// padded with [`HINT_NEVER_RECEIVED`] where the reception is
    /// missing. Empty when `header` is `None`.
    link: SymbolView,
}

/// A received frame's body as borrowed columns
/// ([`RxFrame::body_columns`]): the bytes with their per-byte hints,
/// and the symbols (two per byte, low nibble first) with theirs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BodyColumns<'a> {
    /// The received body bytes.
    pub bytes: &'a [u8],
    /// Per-byte hints (the larger of the two nibble hints).
    pub byte_hints: &'a [u8],
    /// The received body symbols.
    pub symbols: &'a [u8],
    /// Per-symbol hints.
    pub symbol_hints: &'a [u8],
}

impl RxFrame {
    /// Frame geometry, when the header/trailer verified.
    pub fn geometry(&self) -> Option<FrameGeometry> {
        self.header.map(|h| FrameGeometry::for_body(h.len as usize))
    }

    /// Number of symbols in the link-layer section (0 when no header
    /// verified).
    pub fn link_len(&self) -> usize {
        self.link.len()
    }

    /// The full link-layer section.
    pub fn link_symbols(&self) -> Vec<SoftSymbol> {
        self.link.all()
    }

    /// The link-layer section as borrowed columns: its symbols and
    /// their hints.
    pub fn link_columns(&self) -> (&[u8], &[u8]) {
        let n = self.link.len();
        (self.link.symbols(0..n), self.link.hints(0..n))
    }

    /// Symbols `range` of the link-layer section.
    pub fn link_symbol_range(&self, range: std::ops::Range<usize>) -> Vec<SoftSymbol> {
        self.link.range(range)
    }

    /// Reassembled link-layer bytes (best effort; bad symbols included).
    pub fn link_bytes(&self) -> Vec<u8> {
        self.link.bytes(0..self.link.len() / 2).to_vec()
    }

    /// The body's columns, borrowed from the frame, when geometry is
    /// known.
    pub fn body_columns(&self) -> Option<BodyColumns<'_>> {
        let g = self.geometry()?;
        if self.link.len() < 2 * g.total() {
            return None;
        }
        let body = g.body();
        let symbols = 2 * body.start..2 * body.end;
        Some(BodyColumns {
            bytes: self.link.bytes(body.clone()),
            byte_hints: self.link.byte_hints(body),
            symbols: self.link.symbols(symbols.clone()),
            symbol_hints: self.link.hints(symbols),
        })
    }

    /// The body bytes (scheme payload), when geometry is known.
    pub fn body_bytes(&self) -> Option<Vec<u8>> {
        Some(self.body_columns()?.bytes.to_vec())
    }

    /// Per-byte hints over the body (max of the two nibble hints).
    pub fn body_byte_hints(&self) -> Option<Vec<u8>> {
        Some(self.body_columns()?.byte_hints.to_vec())
    }

    /// Per-symbol hints over the body region (two per byte).
    pub fn body_symbol_hints(&self) -> Option<Vec<u8>> {
        Some(self.body_columns()?.symbol_hints.to_vec())
    }

    /// Whole-packet CRC-32 verification (header + body against the CRC
    /// field) — the status-quo acceptance test. The replicated trailer
    /// never participates.
    pub fn pkt_crc_ok(&self) -> bool {
        let Some(g) = self.geometry() else {
            return false;
        };
        if self.link.len() < 2 * g.total() {
            return false;
        }
        let bytes = self.link.bytes(0..g.pkt_crc().end);
        let crc = crate::crc::crc32(&bytes[..g.pkt_crc().start]);
        bytes[g.pkt_crc().start..] == crc.to_le_bytes()
    }
}

/// A caller-owned, reusable receive buffer for the packed path: the
/// frame [`FrameReceiver::decode_from_preamble_into`] and
/// [`FrameReceiver::decode_from_postamble_into`] refill — acquisition,
/// verified header and the link section's columns — plus the working
/// memory of a capture that is not lane-aligned. Every buffer keeps its
/// capacity, so a driver that receives one frame after another into
/// one capture allocates nothing once it has seen its longest frame,
/// and no decode reads what an earlier one left.
#[derive(Debug, Clone)]
pub struct RxCapture {
    frame: RxFrame,
    /// Gathered lanes of a capture whose symbols do not start on a
    /// 64-chip lane boundary.
    lanes: Vec<u64>,
}

impl Default for RxCapture {
    fn default() -> Self {
        RxCapture {
            frame: RxFrame {
                sync: SyncKind::Preamble,
                header: None,
                link_start_chip: None,
                link: SymbolView::default(),
            },
            lanes: Vec::new(),
        }
    }
}

impl RxCapture {
    /// The frame the last successful decode left, as an owned
    /// [`RxFrame`] — how the allocating receive forms wrap the in-place
    /// step.
    pub fn into_frame(self) -> RxFrame {
        self.frame
    }
}

/// The longest body, in bytes, a receiver accepts by default
/// ([`RxConfig::default`]) and so the longest an experiment may send:
/// a header announcing more is rejected, and the frame with it.
pub const MAX_BODY_LEN: usize = 2048;

/// Receive-pipeline configuration.
#[derive(Debug, Clone, Copy)]
pub struct RxConfig {
    /// Enable postamble synchronization and trailer rollback. Disabled
    /// reproduces the status quo receiver for the "no postamble
    /// decoding" experiment arms.
    pub postamble_decoding: bool,
    /// Largest acceptable body length (guards the rollback against a
    /// corrupt-but-CRC-passing trailer asking for an absurd rollback).
    pub max_body_len: usize,
}

impl Default for RxConfig {
    fn default() -> Self {
        RxConfig {
            postamble_decoding: true,
            max_body_len: MAX_BODY_LEN,
        }
    }
}

/// The frame receive pipeline.
#[derive(Debug, Clone, Default)]
pub struct FrameReceiver {
    chip_rx: ChipReceiver,
    config: RxConfig,
}

impl FrameReceiver {
    /// Creates a pipeline with the given configuration.
    pub fn new(config: RxConfig) -> Self {
        FrameReceiver {
            chip_rx: ChipReceiver::default(),
            config,
        }
    }

    /// The underlying chip-level receiver.
    pub fn chip_receiver(&self) -> &ChipReceiver {
        &self.chip_rx
    }

    /// Processes a captured chip stream, returning every frame that could
    /// be synchronized (preamble or postamble), in stream order.
    ///
    /// Receiver realism: once locked on a preamble with a verified
    /// header, the receiver is *busy* decoding that frame and does not
    /// search for further preambles until it ends — exactly the status
    /// quo behavior (§4). This also suppresses false preamble locks on
    /// packet data that happens to resemble the delimiter. The postamble
    /// correlator keeps running throughout (it is a separate matcher in
    /// the paper's design), and false postamble locks are rejected by the
    /// trailer CRC-16.
    ///
    /// A frame heard via *both* delimiters is reported once, via its
    /// preamble (the postamble duplicate is suppressed by frame-start
    /// matching).
    pub fn receive(&self, chips: &[bool]) -> Vec<RxFrame> {
        let hits = self.chip_rx.scan(chips);
        let mut frames: Vec<RxFrame> = Vec::new();
        // A frame is identified by (link start, link length): two
        // different frames may share a start chip (e.g. two senders
        // keying up simultaneously), so the start alone is not enough to
        // deduplicate preamble- and postamble-synced views of one frame.
        let mut claimed: Vec<(i64, usize)> = Vec::new();
        let mut busy_until: i64 = i64::MIN;

        for hit in &hits {
            match hit.kind {
                SyncKind::Preamble => {
                    if (hit.chip_offset as i64) < busy_until {
                        continue; // still decoding an earlier frame
                    }
                    let data_start = self.chip_rx.data_start_after(hit) as i64;
                    let frame = self.decode_from_preamble(chips, data_start);
                    if let Some(s) = frame.link_start_chip {
                        claimed.push((s, frame.link_len()));
                        busy_until = s
                            + (frame.link_len() * CHIPS_PER_SYMBOL) as i64
                            + ppr_phy::sync::TX_POSTAMBLE_CHIPS as i64;
                    }
                    frames.push(frame);
                }
                SyncKind::Postamble if self.config.postamble_decoding => {
                    if let Some(frame) = self.decode_from_postamble(chips, hit.chip_offset) {
                        match frame.link_start_chip {
                            Some(s) if claimed.contains(&(s, frame.link_len())) => {} // dup
                            _ => frames.push(frame),
                        }
                    }
                }
                SyncKind::Postamble => {}
            }
        }
        frames
    }

    /// Preamble path: header first, then geometry, then the full section.
    ///
    /// `data_start` is the chip offset of the first header symbol.
    /// Public so that simulators which already know where a frame starts
    /// (and have verified delimiter integrity themselves) can skip the
    /// sliding sync scan.
    pub fn decode_from_preamble(&self, chips: &[bool], data_start: i64) -> RxFrame {
        self.preamble_frame(
            chips.len(),
            |off, n| self.chip_rx.despread(chips, off, n),
            data_start,
        )
    }

    /// Word-wise equivalent of [`Self::decode_from_preamble`] over a
    /// packed chip stream, bit-identical output: an owned frame from one
    /// [`Self::decode_from_preamble_into`] into a fresh capture.
    pub fn decode_from_preamble_words(&self, chips: &ChipWords, data_start: i64) -> RxFrame {
        let mut capture = RxCapture::default();
        self.decode_from_preamble_into(chips, data_start, &mut capture);
        capture.into_frame()
    }

    /// The packed preamble path in place: decodes the header at
    /// `data_start` and, when it verifies, the whole link section into
    /// `capture`, and returns the frame it now holds.
    pub fn decode_from_preamble_into<'c>(
        &self,
        chips: &ChipWords,
        data_start: i64,
        capture: &'c mut RxCapture,
    ) -> &'c RxFrame {
        let header = self.probe_header(chips, data_start, &mut capture.lanes);
        self.fill(chips, SyncKind::Preamble, header, data_start, capture)
    }

    /// Postamble path (§4): decode the trailer just before the postamble,
    /// verify it, then roll back the full frame length.
    ///
    /// `hit_offset` is the chip offset where the postamble *scan pattern*
    /// matched (two zero symbols into the postamble). Public for the same
    /// reason as [`Self::decode_from_preamble`].
    pub fn decode_from_postamble(&self, chips: &[bool], hit_offset: usize) -> Option<RxFrame> {
        self.postamble_frame(
            chips.len(),
            |off, n| self.chip_rx.despread(chips, off, n),
            hit_offset,
        )
    }

    /// Word-wise equivalent of [`Self::decode_from_postamble`] over a
    /// packed chip stream, bit-identical output: an owned frame from one
    /// [`Self::decode_from_postamble_into`] into a fresh capture.
    pub fn decode_from_postamble_words(
        &self,
        chips: &ChipWords,
        hit_offset: usize,
    ) -> Option<RxFrame> {
        let mut capture = RxCapture::default();
        self.decode_from_postamble_into(chips, hit_offset, &mut capture)?;
        Some(capture.into_frame())
    }

    /// The packed postamble path in place: decodes the trailer and, when
    /// it verifies, rolls back and decodes the whole link section into
    /// `capture`. `None` (and `capture` holding nothing readable) when
    /// the trailer does not verify.
    pub fn decode_from_postamble_into<'c>(
        &self,
        chips: &ChipWords,
        hit_offset: usize,
        capture: &'c mut RxCapture,
    ) -> Option<&'c RxFrame> {
        let (postamble_start, trailer_start) = postamble_rollback_offsets(hit_offset);
        let header = self.probe_header(chips, trailer_start, &mut capture.lanes)?;
        let g = FrameGeometry::for_body(header.len as usize);
        let link_start = postamble_start - (2 * g.total() * CHIPS_PER_SYMBOL) as i64;
        Some(self.fill(
            chips,
            SyncKind::Postamble,
            Some(header),
            link_start,
            capture,
        ))
    }

    /// Despreads the header/trailer record whose first chip is at
    /// `chip_offset` and accepts it ([`Self::accept_header`]).
    fn probe_header(
        &self,
        chips: &ChipWords,
        chip_offset: i64,
        lanes: &mut Vec<u64>,
    ) -> Option<Header> {
        let mut symbols = [0u8; 2 * HEADER_BYTES];
        let mut hints = [0u8; 2 * HEADER_BYTES];
        despread_at(chips, chip_offset, ABSENT, lanes, &mut symbols, &mut hints);
        let bytes: [u8; HEADER_BYTES] =
            std::array::from_fn(|i| (symbols[2 * i] & 0x0f) | (symbols[2 * i + 1] << 4));
        self.accept_header(&bytes)
    }

    /// Refills `capture` with a frame acquired by `sync`: the link
    /// section of `header`'s geometry from `link_start`, or nothing when
    /// no header verified.
    fn fill<'c>(
        &self,
        chips: &ChipWords,
        sync: SyncKind,
        header: Option<Header>,
        link_start: i64,
        capture: &'c mut RxCapture,
    ) -> &'c RxFrame {
        let frame = &mut capture.frame;
        frame.sync = sync;
        frame.header = header;
        frame.link_start_chip = header.map(|_| link_start);
        match header {
            Some(h) => {
                let g = FrameGeometry::for_body(h.len as usize);
                frame
                    .link
                    .fill(chips, link_start, 2 * g.total(), ABSENT, &mut capture.lanes);
            }
            None => frame.link.clear(),
        }
        &capture.frame
    }

    /// Decodes and accepts a header/trailer record: the CRC-16 must
    /// verify (inside [`Header::decode`]) and the claimed body length
    /// must be plausible. The single acceptance rule for the eager and
    /// the packed decode alike.
    fn accept_header(&self, bytes: &[u8]) -> Option<Header> {
        Header::decode(bytes).filter(|h| (h.len as usize) <= self.config.max_body_len)
    }

    /// Shared preamble-path logic over any chip-stream representation:
    /// `despread(chip_offset, n_symbols)` supplies the symbols. This is
    /// the eager reference construction.
    fn preamble_frame(
        &self,
        stream_len: usize,
        despread: impl Fn(usize, usize) -> SoftSpan,
        data_start: i64,
    ) -> RxFrame {
        let header_span = despread_clamped(stream_len, &despread, data_start, 2 * HEADER_BYTES);
        let header_bytes = SoftSpan {
            symbols: header_span.clone(),
        }
        .to_bytes();
        let header = self.accept_header(&header_bytes);

        let link_symbols = match header {
            Some(h) => {
                let g = FrameGeometry::for_body(h.len as usize);
                despread_clamped(stream_len, &despread, data_start, 2 * g.total())
            }
            None => Vec::new(),
        };
        RxFrame {
            sync: SyncKind::Preamble,
            header,
            link_start_chip: header.map(|_| data_start),
            link: SymbolView::eager(link_symbols),
        }
    }

    /// Shared postamble-path logic over any chip-stream representation
    /// (the eager reference construction, like [`Self::preamble_frame`]).
    fn postamble_frame(
        &self,
        stream_len: usize,
        despread: impl Fn(usize, usize) -> SoftSpan,
        hit_offset: usize,
    ) -> Option<RxFrame> {
        let (postamble_start, trailer_start) = postamble_rollback_offsets(hit_offset);
        let trailer_span = despread_clamped(stream_len, &despread, trailer_start, 2 * HEADER_BYTES);
        let trailer_bytes = SoftSpan {
            symbols: trailer_span,
        }
        .to_bytes();
        let header = self.accept_header(&trailer_bytes)?;

        let g = FrameGeometry::for_body(header.len as usize);
        let link_start = postamble_start - (2 * g.total() * CHIPS_PER_SYMBOL) as i64;
        let link_symbols = despread_clamped(stream_len, &despread, link_start, 2 * g.total());
        Some(RxFrame {
            sync: SyncKind::Postamble,
            header: Some(header),
            link_start_chip: Some(link_start),
            link: SymbolView::eager(link_symbols),
        })
    }
}

/// Rollback geometry shared by both postamble decode paths: given the
/// chip offset where the postamble *scan pattern* matched (two
/// zero-symbols into the postamble), returns the chip offsets where the
/// postamble itself and the trailer record begin.
fn postamble_rollback_offsets(hit_offset: usize) -> (i64, i64) {
    let pattern_lead = (POSTAMBLE_ZERO_SYMBOLS - 2) * CHIPS_PER_SYMBOL;
    let postamble_start = hit_offset as i64 - pattern_lead as i64;
    let trailer_start = postamble_start - (2 * HEADER_BYTES * CHIPS_PER_SYMBOL) as i64;
    (postamble_start, trailer_start)
}

/// Despreads `n_symbols` from `chip_offset` (which may be negative or
/// extend past the stream), padding missing symbols with
/// [`HINT_NEVER_RECEIVED`] so the result always has exactly `n_symbols`
/// entries.
fn despread_clamped(
    stream_len: usize,
    despread: impl Fn(usize, usize) -> SoftSpan,
    chip_offset: i64,
    n_symbols: usize,
) -> Vec<SoftSymbol> {
    let absent = SoftSymbol {
        symbol: 0,
        hint: HINT_NEVER_RECEIVED,
    };
    let mut out = Vec::with_capacity(n_symbols);

    // Leading symbols before the captured stream.
    let missing_lead = if chip_offset < 0 {
        ((-chip_offset) as usize)
            .div_ceil(CHIPS_PER_SYMBOL)
            .min(n_symbols)
    } else {
        0
    };
    out.extend(std::iter::repeat_n(absent, missing_lead));

    let start = chip_offset + (missing_lead * CHIPS_PER_SYMBOL) as i64;
    let remaining = n_symbols - missing_lead;
    if remaining > 0 && (start as usize) < stream_len {
        let span = despread(start as usize, remaining);
        out.extend(span.symbols);
    }
    // Trailing symbols past the captured stream.
    out.extend(std::iter::repeat_n(absent, n_symbols - out.len()));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::Frame;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn noise(rng: &mut StdRng, n: usize) -> Vec<bool> {
        (0..n).map(|_| rng.gen()).collect()
    }

    fn clean_capture(frame: &Frame, rng: &mut StdRng) -> Vec<bool> {
        let mut chips = noise(rng, 400);
        chips.extend(frame.chips());
        chips.extend(noise(rng, 300));
        chips
    }

    #[test]
    fn clean_frame_decodes_via_preamble() {
        let mut rng = StdRng::seed_from_u64(1);
        let frame = Frame::new(7, 3, 42, b"hello partial world".to_vec());
        let chips = clean_capture(&frame, &mut rng);
        let frames = FrameReceiver::default().receive(&chips);
        assert_eq!(frames.len(), 1);
        let rx = &frames[0];
        assert_eq!(rx.sync, SyncKind::Preamble);
        assert_eq!(rx.header, Some(frame.header));
        assert_eq!(rx.body_bytes().unwrap(), frame.body);
        assert!(rx.pkt_crc_ok());
        assert!(rx.body_byte_hints().unwrap().iter().all(|&h| h == 0));
    }

    #[test]
    fn destroyed_preamble_recovers_via_postamble() {
        let mut rng = StdRng::seed_from_u64(2);
        let frame = Frame::new(9, 1, 5, b"postamble rollback payload".to_vec());
        let mut chips = clean_capture(&frame, &mut rng);
        // Clobber the preamble + SFD region (first 320 chips of frame,
        // which starts at offset 400).
        for c in chips[400..400 + 320].iter_mut() {
            *c = rng.gen();
        }
        let frames = FrameReceiver::default().receive(&chips);
        assert_eq!(frames.len(), 1);
        let rx = &frames[0];
        assert_eq!(rx.sync, SyncKind::Postamble);
        assert_eq!(rx.header, Some(frame.header));
        assert_eq!(rx.body_bytes().unwrap(), frame.body);
        assert!(rx.pkt_crc_ok(), "body arrived intact, CRC must verify");
    }

    #[test]
    fn postamble_decoding_off_loses_preamble_less_frame() {
        let mut rng = StdRng::seed_from_u64(3);
        let frame = Frame::new(9, 1, 5, b"status quo receiver".to_vec());
        let mut chips = clean_capture(&frame, &mut rng);
        for c in chips[400..400 + 320].iter_mut() {
            *c = rng.gen();
        }
        let rx = FrameReceiver::new(RxConfig {
            postamble_decoding: false,
            max_body_len: 2048,
        });
        assert!(rx.receive(&chips).is_empty());
    }

    #[test]
    fn frame_heard_twice_reported_once() {
        let mut rng = StdRng::seed_from_u64(4);
        let frame = Frame::new(2, 8, 1, vec![0x42; 64]);
        let chips = clean_capture(&frame, &mut rng);
        let frames = FrameReceiver::default().receive(&chips);
        assert_eq!(frames.len(), 1, "preamble + postamble must merge");
        assert_eq!(frames[0].sync, SyncKind::Preamble);
    }

    #[test]
    fn reception_starting_mid_frame_pads_head() {
        let mut rng = StdRng::seed_from_u64(5);
        let frame = Frame::new(4, 4, 2, vec![0x11; 80]);
        let full = frame.chips();
        // Receiver wakes up two-thirds into the frame: preamble long gone.
        let cut = 2 * full.len() / 3;
        let mut chips = full[cut..].to_vec();
        chips.extend(noise(&mut rng, 200));
        let frames = FrameReceiver::default().receive(&chips);
        assert_eq!(frames.len(), 1);
        let rx = &frames[0];
        assert_eq!(rx.sync, SyncKind::Postamble);
        assert_eq!(rx.header, Some(frame.header));
        // Head symbols are flagged never-received; tail decodes clean.
        let hints = rx.body_symbol_hints().unwrap();
        assert_eq!(hints.len(), 160);
        assert!(hints.first().unwrap() == &HINT_NEVER_RECEIVED);
        assert_eq!(*hints.last().unwrap(), 0);
        assert!(!rx.pkt_crc_ok(), "missing head must fail whole-packet CRC");
    }

    #[test]
    fn packed_decode_paths_match_reference() {
        let mut rng = StdRng::seed_from_u64(21);
        let frame = Frame::new(6, 2, 11, vec![0x3E; 90]);
        let mut chips = clean_capture(&frame, &mut rng);
        // Light corruption so hints vary.
        for _ in 0..150 {
            let i = rng.gen_range(0..chips.len());
            chips[i] = !chips[i];
        }
        let packed = ChipWords::from_bools(&chips);
        let rx = FrameReceiver::default();

        let data_start = (400 + ppr_phy::sync::tx_preamble_chips().len()) as i64;
        assert_eq!(
            rx.decode_from_preamble(&chips, data_start),
            rx.decode_from_preamble_words(&packed, data_start)
        );
        // Postamble pattern offset inside the capture.
        let post_off = 400 + frame.chips_len() - ppr_phy::sync::tx_postamble_chips().len()
            + (POSTAMBLE_ZERO_SYMBOLS - 2) * CHIPS_PER_SYMBOL;
        assert_eq!(
            rx.decode_from_postamble(&chips, post_off),
            rx.decode_from_postamble_words(&packed, post_off)
        );
        // Truncated reception (frame runs off the end of the capture).
        let cut = 400 + frame.chips_len() / 2;
        let truncated = &chips[..cut];
        let packed_truncated = ChipWords::from_bools(truncated);
        assert_eq!(
            rx.decode_from_preamble(truncated, data_start),
            rx.decode_from_preamble_words(&packed_truncated, data_start)
        );
    }

    #[test]
    fn corrupt_header_and_trailer_yields_no_geometry() {
        let mut rng = StdRng::seed_from_u64(6);
        let frame = Frame::new(1, 2, 3, vec![0x77; 40]);
        let mut chips = clean_capture(&frame, &mut rng);
        // Destroy both header and trailer completely (a strong collision
        // over those spans), leaving the delimiters intact. Note partial
        // corruption (e.g. 25 % of chips) would NOT suffice: hard-decision
        // DSSS frequently decodes through it — that robustness is the
        // point of spreading.
        let data_start = 400 + ppr_phy::sync::tx_preamble_chips().len();
        let hdr_chips = 2 * HEADER_BYTES * CHIPS_PER_SYMBOL;
        for i in 0..hdr_chips {
            chips[data_start + i] = rng.gen();
        }
        let g = FrameGeometry::for_body(40);
        let trailer_chip0 = data_start + 2 * g.pkt_crc().end * CHIPS_PER_SYMBOL;
        for i in 0..hdr_chips {
            chips[trailer_chip0 + i] = rng.gen();
        }
        let frames = FrameReceiver::default().receive(&chips);
        // Sync may fire (delimiters intact) but no frame carries geometry.
        for f in &frames {
            assert!(f.header.is_none());
            assert!(f.body_bytes().is_none());
            assert!(!f.pkt_crc_ok());
        }
    }

    #[test]
    fn implausible_trailer_length_is_rejected() {
        // A trailer claiming a huge len must not trigger a giant rollback.
        let rx = FrameReceiver::new(RxConfig {
            postamble_decoding: true,
            max_body_len: 100,
        });
        let frame = Frame::new(1, 2, 3, vec![0x99; 200]); // exceeds max
        let mut rng = StdRng::seed_from_u64(7);
        let chips = clean_capture(&frame, &mut rng);
        let frames = rx.receive(&chips);
        for f in &frames {
            assert!(f.header.is_none(), "oversized frame must be rejected");
        }
    }

    #[test]
    fn corrupted_body_keeps_honest_hints() {
        let mut rng = StdRng::seed_from_u64(8);
        let frame = Frame::new(5, 6, 7, vec![0xAA; 100]);
        let mut chips = clean_capture(&frame, &mut rng);
        // Corrupt a mid-body burst: chips 60..70 symbols worth.
        let data_start = 400 + ppr_phy::sync::tx_preamble_chips().len();
        let burst_start = data_start + 80 * CHIPS_PER_SYMBOL;
        for i in 0..(20 * CHIPS_PER_SYMBOL) {
            if i % 2 == 0 {
                chips[burst_start + i] = rng.gen();
            }
        }
        let frames = FrameReceiver::default().receive(&chips);
        assert_eq!(frames.len(), 1);
        let rx = &frames[0];
        assert!(!rx.pkt_crc_ok());
        let hints = rx.body_symbol_hints().unwrap();
        // Symbols inside the burst carry large hints; the rest are clean.
        // Burst covers symbols 80..100 of the link section; body starts
        // at symbol 20, so body symbols 60..80.
        let in_burst = &hints[60..80];
        assert!(
            in_burst.iter().filter(|&&h| h > 6).count() > 10,
            "{in_burst:?}"
        );
        assert!(hints[..55].iter().all(|&h| h <= 2));
    }
}
