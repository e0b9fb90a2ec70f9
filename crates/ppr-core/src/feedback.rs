//! The PP-ARQ feedback packet: bit-exact encoding of the receiver's
//! retransmission request (§5.2 step 3).
//!
//! A feedback packet carries, for one data packet `seq`:
//!
//! * the requested **chunks** (offset + length, `⌈log₂(S+1)⌉` bits each,
//!   exactly the descriptor cost the DP optimizes), and
//! * one CRC-16 per **complement range** — the maximal good runs outside
//!   the chunks, *derived* from the chunk list rather than transmitted,
//!   so their offsets cost zero bits. The sender checks each CRC against
//!   what it sent; a mismatch exposes a SoftPHY *miss* hiding in a
//!   "good" run, which the sender then retransmits too.
//!
//! An empty chunk list with one matching whole-packet checksum is the
//! pure-ACK case.

use crate::bits::{width_for, BitReader, BitWriter};
use crate::runs::UnitRange;
use ppr_mac::crc::crc16;

/// A CRC-16 claim about one byte range of the packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RangeChecksum {
    /// The range (derived from the chunk geometry, not encoded).
    pub range: UnitRange,
    /// CRC-16 of the receiver's bytes over that range.
    pub crc: u16,
}

/// A decoded feedback packet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Feedback {
    /// Sequence number of the data packet this feedback refers to.
    pub seq: u16,
    /// Length of the data packet's payload, bytes (defines descriptor
    /// widths and complement geometry).
    pub packet_len: usize,
    /// Requested retransmission ranges, sorted, non-overlapping.
    pub chunks: Vec<UnitRange>,
    /// CRC-16 per complement (good) range, in packet order.
    pub checksums: Vec<RangeChecksum>,
}

impl Feedback {
    /// Builds feedback from the receiver's chunk plan and its current
    /// byte view (checksums are computed over `rx_bytes`).
    pub fn from_plan(seq: u16, rx_bytes: &[u8], chunks: Vec<UnitRange>) -> Feedback {
        let checksums = complement_ranges(rx_bytes.len(), &chunks)
            .into_iter()
            .map(|range| RangeChecksum {
                range,
                crc: crc16(&rx_bytes[range.start..range.end]),
            })
            .collect();
        Feedback {
            seq,
            packet_len: rx_bytes.len(),
            chunks,
            checksums,
        }
    }

    /// Serializes to bytes. Layout (bit-packed):
    /// `seq:16 · packet_len:16 · n_chunks:8 · (offset:w · len:w)* · crc:16*`
    /// where `w = ⌈log₂(packet_len+1)⌉`.
    pub fn encode(&self) -> Vec<u8> {
        let w = width_for(self.packet_len);
        let mut bw = BitWriter::new();
        bw.write(self.seq as u64, 16);
        bw.write(self.packet_len as u64, 16);
        bw.write(self.chunks.len() as u64, 8);
        for c in &self.chunks {
            bw.write(c.start as u64, w);
            bw.write(c.len() as u64, w);
        }
        for cs in &self.checksums {
            bw.write(cs.crc as u64, 16);
        }
        bw.into_bytes()
    }

    /// Deserializes; returns `None` on truncation or malformed geometry
    /// (overlapping/unsorted chunks, ranges out of bounds).
    pub fn decode(bytes: &[u8]) -> Option<Feedback> {
        let mut br = BitReader::new(bytes);
        let seq = br.read(16)? as u16;
        let packet_len = br.read(16)? as usize;
        let n_chunks = br.read(8)? as usize;
        let w = width_for(packet_len);
        let mut chunks = Vec::with_capacity(n_chunks);
        let mut prev_end = 0usize;
        for _ in 0..n_chunks {
            let start = br.read(w)? as usize;
            let len = br.read(w)? as usize;
            let end = start.checked_add(len)?;
            if len == 0 || start < prev_end || end > packet_len {
                return None;
            }
            chunks.push(UnitRange::new(start, end));
            prev_end = end;
        }
        let ranges = complement_ranges(packet_len, &chunks);
        let mut checksums = Vec::with_capacity(ranges.len());
        for range in ranges {
            let crc = br.read(16)? as u16;
            checksums.push(RangeChecksum { range, crc });
        }
        Some(Feedback {
            seq,
            packet_len,
            chunks,
            checksums,
        })
    }
}

/// The maximal ranges of `0..len` not covered by `chunks` (which must be
/// sorted and non-overlapping), in order.
pub fn complement_ranges(len: usize, chunks: &[UnitRange]) -> Vec<UnitRange> {
    let mut out = Vec::new();
    let mut cursor = 0usize;
    for c in chunks {
        if c.start > cursor {
            out.push(UnitRange::new(cursor, c.start));
        }
        cursor = c.end;
    }
    if cursor < len {
        out.push(UnitRange::new(cursor, len));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Size of the encoded feedback in bits (before byte padding): the
    /// quantity the DP's cost model charges.
    fn encoded_bits(fb: &Feedback) -> usize {
        let w = width_for(fb.packet_len);
        16 + 16 + 8 + fb.chunks.len() * 2 * w + fb.checksums.len() * 16
    }

    #[test]
    fn complement_geometry() {
        let chunks = vec![UnitRange::new(10, 20), UnitRange::new(30, 35)];
        assert_eq!(
            complement_ranges(50, &chunks),
            vec![
                UnitRange::new(0, 10),
                UnitRange::new(20, 30),
                UnitRange::new(35, 50)
            ]
        );
        assert_eq!(complement_ranges(50, &[]), vec![UnitRange::new(0, 50)]);
        assert_eq!(
            complement_ranges(20, &[UnitRange::new(0, 20)]),
            Vec::<UnitRange>::new()
        );
        // Chunk flush against the end.
        assert_eq!(
            complement_ranges(20, &[UnitRange::new(15, 20)]),
            vec![UnitRange::new(0, 15)]
        );
    }

    #[test]
    fn encode_decode_roundtrip() {
        let bytes: Vec<u8> = (0..200u16).map(|i| (i % 251) as u8).collect();
        let chunks = vec![UnitRange::new(17, 43), UnitRange::new(150, 161)];
        let fb = Feedback::from_plan(7, &bytes, chunks);
        let decoded = Feedback::decode(&fb.encode()).unwrap();
        assert_eq!(decoded, fb);
        assert_eq!(decoded.checksums.len(), 3);
    }

    #[test]
    fn ack_shape() {
        let bytes = vec![1u8; 64];
        let fb = Feedback::from_plan(1, &bytes, vec![]);
        assert!(fb.chunks.is_empty());
        assert_eq!(fb.checksums.len(), 1);
        assert_eq!(fb.checksums[0].range, UnitRange::new(0, 64));
        let decoded = Feedback::decode(&fb.encode()).unwrap();
        assert_eq!(decoded, fb);
    }

    #[test]
    fn encoded_bits_matches_writer() {
        let bytes = vec![0u8; 1500];
        let fb = Feedback::from_plan(
            3,
            &bytes,
            vec![
                UnitRange::new(100, 140),
                UnitRange::new(600, 610),
                UnitRange::new(1400, 1500),
            ],
        );
        let padded_bits = fb.encode().len() * 8;
        assert!(encoded_bits(&fb) <= padded_bits);
        assert!(padded_bits - encoded_bits(&fb) < 8);
    }

    #[test]
    fn decode_rejects_garbage() {
        assert_eq!(Feedback::decode(&[]), None);
        assert_eq!(Feedback::decode(&[0xFF]), None);
        // Overlapping chunks must be rejected.
        let bytes = vec![9u8; 100];
        let mut fb = Feedback::from_plan(0, &bytes, vec![UnitRange::new(10, 30)]);
        fb.chunks = vec![UnitRange::new(10, 30), UnitRange::new(20, 40)];
        // Re-encode with the corrupt geometry (checksums now stale, fine).
        let enc = fb.encode();
        assert_eq!(Feedback::decode(&enc), None);
    }

    #[test]
    fn decode_rejects_out_of_bounds_chunk() {
        let bytes = vec![9u8; 50];
        let mut fb = Feedback::from_plan(0, &bytes, vec![]);
        fb.chunks = vec![UnitRange::new(40, 60)];
        assert_eq!(Feedback::decode(&fb.encode()), None);
    }

    #[test]
    fn feedback_grows_with_chunk_count() {
        let bytes = vec![0u8; 1000];
        let one = Feedback::from_plan(0, &bytes, vec![UnitRange::new(0, 10)]);
        let many = Feedback::from_plan(
            0,
            &bytes,
            (0..20)
                .map(|i| UnitRange::new(i * 40, i * 40 + 10))
                .collect(),
        );
        assert!(encoded_bits(&many) > encoded_bits(&one));
        // w = 10 bits. one: header 40 + 1 chunk (20) + 1 CRC (16) = 76.
        assert_eq!(encoded_bits(&one), 76);
        // many: header 40 + 20 chunks (400) + 20 complement CRCs (320).
        assert_eq!(encoded_bits(&many), 760);
    }
}
