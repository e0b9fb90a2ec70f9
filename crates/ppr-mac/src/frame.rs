//! PPR frame layout (paper Fig. 2).
//!
//! ```text
//! | preamble | SFD | header | body ... | CRC32 | trailer | postamble |
//!              PHY   10 B                 4 B     10 B      PHY
//! ```
//!
//! The **header** carries `len`, `dst`, `src`, `seq` plus its own CRC-16;
//! the **trailer** replicates it verbatim (same CRC), so a receiver that
//! only caught the postamble can recover the frame geometry by decoding
//! the trailer and *rolling back* `len`-dependent distance to the frame
//! start (§4). The CRC-32 covers header + body, giving the packet-CRC
//! delivery scheme its check.
//!
//! The `body` is scheme-dependent: a plain payload for packet-CRC and
//! PPR, or fragment/CRC pairs for fragmented CRC (see
//! [`crate::schemes`]).

use crate::crc::{crc16, crc32};
use ppr_phy::chips::{ChipWords, CHIPS_PER_SYMBOL, CODEBOOK};
use ppr_phy::spread::bytes_to_symbols;
use ppr_phy::sync::{
    tx_postamble_chips, tx_preamble_chips, POSTAMBLE_ZERO_SYMBOLS, POST_SFD, PREAMBLE_ZERO_SYMBOLS,
    SFD, TX_POSTAMBLE_CHIPS, TX_PREAMBLE_CHIPS,
};

/// The 64 chips one byte spreads to, indexed by byte: its low nibble's
/// codeword in chips 0..32 and its high nibble's in chips 32..64 (low
/// nibble first, as [`bytes_to_symbols`] orders them).
const BYTE_LANES: [u64; 256] = {
    let mut lanes = [0u64; 256];
    let mut b = 0;
    while b < 256 {
        lanes[b] = CODEBOOK[b & 15] as u64 | (CODEBOOK[b >> 4] as u64) << 32;
        b += 1;
    }
    lanes
};

// Byte-lane rendering writes every section as whole 64-chip lanes, so
// every link byte must start on a lane boundary: the preamble + SFD (and
// the postamble, which follows whole link bytes) must fill whole lanes.
const _: () =
    assert!(TX_PREAMBLE_CHIPS.is_multiple_of(64) && TX_POSTAMBLE_CHIPS.is_multiple_of(64));

/// A link-layer address (16-bit short address, 802.15.4 style).
pub type Addr = u16;

/// Size of the encoded header (and of the identical trailer), bytes.
pub const HEADER_BYTES: usize = 10;

/// Size of the whole-packet CRC-32, bytes.
pub const PKT_CRC_BYTES: usize = 4;

/// Frame header: replicated verbatim as the trailer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Header {
    /// Body length in bytes (scheme payload, before the packet CRC).
    pub len: u16,
    /// Destination short address.
    pub dst: Addr,
    /// Source short address.
    pub src: Addr,
    /// Link-layer sequence number (used by PP-ARQ).
    pub seq: u16,
}

impl Header {
    /// Encodes the header: four little-endian u16 fields + CRC-16 over
    /// them.
    pub fn encode(&self) -> [u8; HEADER_BYTES] {
        let mut out = [0u8; HEADER_BYTES];
        out[0..2].copy_from_slice(&self.len.to_le_bytes());
        out[2..4].copy_from_slice(&self.dst.to_le_bytes());
        out[4..6].copy_from_slice(&self.src.to_le_bytes());
        out[6..8].copy_from_slice(&self.seq.to_le_bytes());
        let c = crc16(&out[0..8]);
        out[8..10].copy_from_slice(&c.to_le_bytes());
        out
    }

    /// Decodes and verifies a header record. Returns `None` when the
    /// CRC-16 fails — a corrupt header must never define frame geometry.
    pub fn decode(bytes: &[u8]) -> Option<Header> {
        if bytes.len() < HEADER_BYTES {
            return None;
        }
        let c = crc16(&bytes[0..8]);
        if c != u16::from_le_bytes([bytes[8], bytes[9]]) {
            return None;
        }
        Some(Header {
            len: u16::from_le_bytes([bytes[0], bytes[1]]),
            dst: u16::from_le_bytes([bytes[2], bytes[3]]),
            src: u16::from_le_bytes([bytes[4], bytes[5]]),
            seq: u16::from_le_bytes([bytes[6], bytes[7]]),
        })
    }
}

/// A fully laid-out frame, pre-PHY: all link-layer bytes in transmit
/// order, plus the chip-level rendering.
#[derive(Debug, Clone, PartialEq)]
pub struct Frame {
    /// The frame header (== trailer).
    pub header: Header,
    /// Scheme body (payload, or fragment/CRC pairs).
    pub body: Vec<u8>,
}

impl Frame {
    /// Builds a frame around a scheme body.
    ///
    /// # Panics
    /// Panics if the body exceeds `u16::MAX` bytes.
    pub fn new(dst: Addr, src: Addr, seq: u16, body: Vec<u8>) -> Frame {
        assert!(body.len() <= u16::MAX as usize, "body too large");
        Frame {
            header: Header {
                len: body.len() as u16,
                dst,
                src,
                seq,
            },
            body,
        }
    }

    /// All link-layer bytes in transmit order:
    /// `header · body · crc32(header·body) · trailer`.
    pub fn link_bytes(&self) -> Vec<u8> {
        let hdr = self.header.encode();
        let mut out = Vec::with_capacity(2 * HEADER_BYTES + self.body.len() + PKT_CRC_BYTES);
        out.extend_from_slice(&hdr);
        out.extend_from_slice(&self.body);
        let crc = crc32(&out);
        out.extend_from_slice(&crc.to_le_bytes());
        out.extend_from_slice(&hdr); // trailer replicates the header
        out
    }

    /// Chip-level rendering of the whole frame including preamble, SFD
    /// and postamble — what the radio emits.
    ///
    /// The executable spec: symbol by symbol through
    /// [`ppr_phy::spread::spread`]. The hot path uses
    /// [`Self::chip_words`], which is bit-identical.
    pub fn chips(&self) -> Vec<bool> {
        let mut chips = tx_preamble_chips();
        chips.extend(ppr_phy::modem::unpack_chip_words(&ppr_phy::spread::spread(
            &bytes_to_symbols(&self.link_bytes()),
        )));
        chips.extend(tx_postamble_chips());
        chips
    }

    /// Packed chip-level rendering of the whole frame: identical chips to
    /// [`Self::chips`], written one 64-chip lane per byte — the delimiter
    /// bytes, then every link byte — through a 256-entry table.
    pub fn chip_words(&self) -> ChipWords {
        // A delimiter is its zero symbols (whole zero bytes, by the
        // lane assertion above) followed by its delimiter byte.
        let zeros = |symbols| std::iter::repeat_n(0u8, symbols / 2);
        let bytes = zeros(PREAMBLE_ZERO_SYMBOLS)
            .chain([SFD])
            .chain(self.link_bytes())
            .chain(zeros(POSTAMBLE_ZERO_SYMBOLS))
            .chain([POST_SFD]);
        ChipWords::from_lanes(bytes.map(|b| BYTE_LANES[b as usize]).collect())
    }

    /// Number of data symbols in the link-layer section (excluding
    /// pre/postamble).
    pub fn link_symbols(&self) -> usize {
        2 * FrameGeometry::for_body(self.body.len()).total()
    }

    /// Total frame airtime in chips.
    pub fn chips_len(&self) -> usize {
        Self::chips_len_for_body(self.body.len())
    }

    /// Total frame airtime in chips for a frame with `body_len` body
    /// bytes — without building the frame.
    pub fn chips_len_for_body(body_len: usize) -> usize {
        let link_bytes = FrameGeometry::for_body(body_len).total();
        TX_PREAMBLE_CHIPS + 2 * link_bytes * CHIPS_PER_SYMBOL + TX_POSTAMBLE_CHIPS
    }
}

/// Byte offsets of the frame sections inside the link-layer byte stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameGeometry {
    /// Body length, bytes.
    pub body_len: usize,
}

impl FrameGeometry {
    /// Geometry for a given body length (e.g. parsed from a header).
    pub fn for_body(body_len: usize) -> Self {
        FrameGeometry { body_len }
    }

    /// Byte range of the header.
    pub fn header(&self) -> std::ops::Range<usize> {
        0..HEADER_BYTES
    }

    /// Byte range of the body.
    pub fn body(&self) -> std::ops::Range<usize> {
        HEADER_BYTES..HEADER_BYTES + self.body_len
    }

    /// Byte range of the packet CRC-32.
    pub fn pkt_crc(&self) -> std::ops::Range<usize> {
        let s = HEADER_BYTES + self.body_len;
        s..s + PKT_CRC_BYTES
    }

    /// Byte range of the trailer.
    pub fn trailer(&self) -> std::ops::Range<usize> {
        let s = HEADER_BYTES + self.body_len + PKT_CRC_BYTES;
        s..s + HEADER_BYTES
    }

    /// Total link-layer bytes.
    pub fn total(&self) -> usize {
        2 * HEADER_BYTES + self.body_len + PKT_CRC_BYTES
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_roundtrip() {
        let h = Header {
            len: 1500,
            dst: 0xBEEF,
            src: 0x0102,
            seq: 77,
        };
        let enc = h.encode();
        assert_eq!(Header::decode(&enc), Some(h));
    }

    #[test]
    fn header_rejects_corruption() {
        let h = Header {
            len: 250,
            dst: 1,
            src: 2,
            seq: 3,
        };
        let enc = h.encode();
        for i in 0..HEADER_BYTES {
            for bit in 0..8 {
                let mut e = enc;
                e[i] ^= 1 << bit;
                assert_eq!(Header::decode(&e), None, "corruption at {i}.{bit} accepted");
            }
        }
    }

    #[test]
    fn header_rejects_short_input() {
        assert_eq!(Header::decode(&[0; 5]), None);
    }

    #[test]
    fn link_bytes_layout() {
        let f = Frame::new(10, 20, 1, vec![0xAB; 100]);
        let bytes = f.link_bytes();
        let g = FrameGeometry::for_body(100);
        assert_eq!(bytes.len(), g.total());
        // Header == trailer.
        assert_eq!(bytes[g.header()], bytes[g.trailer()]);
        // Body is where it should be.
        assert!(bytes[g.body()].iter().all(|&b| b == 0xAB));
        // Packet CRC verifies over header + body.
        let crc = crc32(&bytes[..g.pkt_crc().start]);
        assert_eq!(crc.to_le_bytes(), bytes[g.pkt_crc()], "packet CRC mismatch");
    }

    #[test]
    fn trailer_decodes_like_header() {
        let f = Frame::new(3, 4, 9, b"trailer test".to_vec());
        let bytes = f.link_bytes();
        let g = FrameGeometry::for_body(f.body.len());
        let t = Header::decode(&bytes[g.trailer()]).unwrap();
        assert_eq!(t, f.header);
    }

    #[test]
    fn chip_length_formula_matches_rendering() {
        for body_len in [0usize, 1, 50, 250, 1500] {
            let f = Frame::new(1, 2, 0, vec![0x5A; body_len]);
            assert_eq!(f.chips().len(), f.chips_len());
            assert_eq!(f.chips_len(), Frame::chips_len_for_body(body_len));
        }
    }

    /// The byte-lane table against the symbol-by-symbol spec: every byte
    /// value in every link position (header fields, body, CRC, trailer),
    /// at odd and even body lengths.
    #[test]
    fn packed_rendering_matches_reference() {
        for body_len in [0usize, 1, 250, 255, 1500] {
            // 167 is odd, so any 256 consecutive bytes hold every value.
            let body: Vec<u8> = (0..body_len).map(|i| (i * 167 + 41) as u8).collect();
            for (dst, src, seq) in [(3, 9, 17), (0xFFFF, 0, 0x8001), (0x1234, 0xABCD, 0xFFFF)] {
                let f = Frame::new(dst, src, seq, body.clone());
                assert_eq!(
                    f.chip_words(),
                    ChipWords::from_bools(&f.chips()),
                    "body {body_len}, header {dst:#x}/{src:#x}/{seq:#x}"
                );
            }
        }
        for b in 0..=255u8 {
            let f = Frame::new(u16::from(b), u16::from(b) << 8, u16::from(b), vec![b]);
            assert_eq!(
                f.chip_words(),
                ChipWords::from_bools(&f.chips()),
                "byte {b:#x}"
            );
        }
    }
}
