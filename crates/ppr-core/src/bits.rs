//! Bit-exact serialization helpers.
//!
//! PP-ARQ's whole point is feedback-bit economy, so the feedback codec
//! counts bits honestly: offsets and lengths are written with exactly
//! `⌈log₂(S+1)⌉` bits, not rounded up to whole bytes per field. These
//! little-endian-within-byte writers/readers are shared by the feedback
//! and retransmission codecs.

/// Append-only bit writer.
#[derive(Debug, Default, Clone)]
pub struct BitWriter {
    bytes: Vec<u8>,
    bit_len: usize,
}

impl BitWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of bits written so far.
    pub fn bit_len(&self) -> usize {
        self.bit_len
    }

    /// Writes the low `width` bits of `value`, LSB first.
    ///
    /// # Panics
    /// Panics if `width > 64` or `value` does not fit in `width` bits.
    pub fn write(&mut self, value: u64, width: usize) {
        assert!(width <= 64, "width {width} > 64");
        assert!(
            width == 64 || value < (1u64 << width),
            "value {value} does not fit in {width} bits"
        );
        // Fill the open byte, then whole bytes, a byte-sized slice of
        // `value` per step (LSB first, as one bit at a time would).
        let mut value = value;
        let mut left = width;
        while left > 0 {
            let offset = self.bit_len % 8;
            if offset == 0 {
                self.bytes.push(0);
            }
            let take = (8 - offset).min(left);
            let last = self.bytes.last_mut().expect("a byte is open");
            *last |= ((value & low_mask(take)) as u8) << offset;
            value >>= take;
            left -= take;
            self.bit_len += take;
        }
    }

    /// Writes each byte of `bytes` as an 8-bit field, in order: the
    /// same bits as `write(b, 8)` per byte, copied whole when the
    /// writer sits on a byte boundary.
    pub(crate) fn write_bytes(&mut self, bytes: &[u8]) {
        let offset = self.bit_len % 8;
        if offset == 0 {
            self.bytes.extend_from_slice(bytes);
        } else {
            for &b in bytes {
                *self.bytes.last_mut().expect("a byte is open") |= b << offset;
                self.bytes.push(b >> (8 - offset));
            }
        }
        self.bit_len += 8 * bytes.len();
    }

    /// Writes a single bit.
    pub fn write_bit(&mut self, bit: bool) {
        self.write(bit as u64, 1);
    }

    /// Finishes, returning the packed bytes (final partial byte
    /// zero-padded).
    pub fn into_bytes(self) -> Vec<u8> {
        self.bytes
    }
}

/// Sequential bit reader over packed bytes.
#[derive(Debug, Clone)]
pub struct BitReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> BitReader<'a> {
    /// Creates a reader at bit position 0.
    pub fn new(bytes: &'a [u8]) -> Self {
        BitReader { bytes, pos: 0 }
    }

    /// Bits remaining.
    pub fn remaining(&self) -> usize {
        self.bytes.len() * 8 - self.pos
    }

    /// Reads `width` bits (LSB first). Returns `None` when the input is
    /// exhausted — feedback packets arrive over a radio; truncation is a
    /// normal failure, not a panic.
    pub fn read(&mut self, width: usize) -> Option<u64> {
        if width > 64 || self.remaining() < width {
            return None;
        }
        // Up to a byte per step: the rest of the current byte, or as
        // much of it as the field still needs.
        let mut value = 0u64;
        let mut got = 0;
        while got < width {
            let offset = self.pos % 8;
            let take = (8 - offset).min(width - got);
            let bits = u64::from(self.bytes[self.pos / 8] >> offset) & low_mask(take);
            value |= bits << got;
            got += take;
            self.pos += take;
        }
        Some(value)
    }

    /// Reads `n` 8-bit fields into a byte vector — `n` calls of
    /// `read(8)` — or `None`, reading nothing, when fewer than `8·n`
    /// bits remain.
    pub(crate) fn read_bytes(&mut self, n: usize) -> Option<Vec<u8>> {
        if self.remaining() / 8 < n {
            return None;
        }
        let at = self.pos / 8;
        let offset = self.pos % 8;
        let out = if offset == 0 {
            self.bytes[at..at + n].to_vec()
        } else {
            // A field straddles two bytes; the last one's high byte
            // exists because 8·n bits remain.
            (at..at + n)
                .map(|i| (self.bytes[i] >> offset) | (self.bytes[i + 1] << (8 - offset)))
                .collect()
        };
        self.pos += 8 * n;
        Some(out)
    }

    /// Reads one bit.
    pub fn read_bit(&mut self) -> Option<bool> {
        self.read(1).map(|v| v == 1)
    }
}

/// The low `bits` bits set (`bits <= 8`).
fn low_mask(bits: usize) -> u64 {
    (1u64 << bits) - 1
}

/// Bits needed to describe a value in `0..=max` (at least 1).
pub fn width_for(max: usize) -> usize {
    (usize::BITS - max.leading_zeros()).max(1) as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The bit-at-a-time writer the chunked [`BitWriter::write`] must
    /// match: `(bytes, bit_len)` after writing every `(value, width)`.
    fn spec_write(fields: &[(u64, usize)]) -> (Vec<u8>, usize) {
        let mut bytes: Vec<u8> = Vec::new();
        let mut bit_len = 0usize;
        for &(value, width) in fields {
            for i in 0..width {
                let bit = (value >> i) & 1 == 1;
                let byte_idx = bit_len / 8;
                if byte_idx == bytes.len() {
                    bytes.push(0);
                }
                if bit {
                    bytes[byte_idx] |= 1 << (bit_len % 8);
                }
                bit_len += 1;
            }
        }
        (bytes, bit_len)
    }

    /// The bit-at-a-time reader the chunked [`BitReader::read`] must
    /// match: each read's result, `None` where the spec refuses it.
    fn spec_read(bytes: &[u8], widths: &[usize]) -> Vec<Option<u64>> {
        let mut pos = 0usize;
        widths
            .iter()
            .map(|&width| {
                if width > 64 || bytes.len() * 8 - pos < width {
                    return None;
                }
                let mut value = 0u64;
                for i in 0..width {
                    let byte = bytes[pos / 8];
                    if (byte >> (pos % 8)) & 1 == 1 {
                        value |= 1 << i;
                    }
                    pos += 1;
                }
                Some(value)
            })
            .collect()
    }

    /// `value` cut to its low `width` bits, so it fits the field.
    fn fit(value: u64, width: usize) -> u64 {
        if width == 64 {
            value
        } else {
            value & ((1u64 << width) - 1)
        }
    }

    proptest! {
        /// Random field sequences of every width 0–64 pack into the same
        /// bytes as the bit-at-a-time spec, and random read sequences
        /// (widths past 64 included) return the same values and `None`
        /// at the same points.
        #[test]
        fn chunked_bit_io_matches_the_bit_at_a_time_spec(
            fields in proptest::collection::vec((any::<u64>(), 0usize..=64), 0..24),
            widths in proptest::collection::vec(0usize..=70, 0..32),
        ) {
            let fields: Vec<(u64, usize)> =
                fields.iter().map(|&(v, w)| (fit(v, w), w)).collect();
            let mut w = BitWriter::new();
            for &(value, width) in &fields {
                w.write(value, width);
            }
            let (spec_bytes, spec_len) = spec_write(&fields);
            prop_assert_eq!(w.bit_len(), spec_len);
            let bytes = w.into_bytes();
            prop_assert_eq!(&bytes, &spec_bytes);

            // Reading back the written widths returns the fields.
            let mut r = BitReader::new(&bytes);
            for &(value, width) in &fields {
                prop_assert_eq!(r.read(width), Some(value));
            }
            // Any read sequence agrees with the spec, refusals included.
            let mut r = BitReader::new(&bytes);
            let got: Vec<Option<u64>> = widths.iter().map(|&w| r.read(w)).collect();
            prop_assert_eq!(got, spec_read(&bytes, &widths));
        }

        /// `write_bytes`/`read_bytes` at any bit offset are `write(b, 8)`
        /// and `read(8)` per byte; a bulk read that would run past the
        /// end reads nothing.
        #[test]
        fn bulk_bytes_match_eight_bit_fields(
            lead in 0usize..=16,
            data in proptest::collection::vec(any::<u8>(), 0..40),
            extra in 0usize..3,
        ) {
            let mut fields = vec![(0, lead)];
            fields.extend(data.iter().map(|&b| (u64::from(b), 8)));
            let mut w = BitWriter::new();
            w.write(0, lead);
            w.write_bytes(&data);
            let (spec_bytes, spec_len) = spec_write(&fields);
            prop_assert_eq!(w.bit_len(), spec_len);
            let bytes = w.into_bytes();
            prop_assert_eq!(&bytes, &spec_bytes);

            let mut r = BitReader::new(&bytes);
            r.read(lead);
            // Padding is under a byte, so one more byte is past the end.
            let tail = r.remaining();
            prop_assert_eq!(r.read_bytes(data.len() + 1 + extra), None);
            prop_assert_eq!(r.remaining(), tail);
            prop_assert_eq!(r.read_bytes(data.len()), Some(data.clone()));
        }
    }

    #[test]
    fn roundtrip_mixed_widths() {
        let mut w = BitWriter::new();
        w.write(5, 3);
        w.write(0, 1);
        w.write(1023, 10);
        w.write(u64::MAX, 64);
        w.write_bit(true);
        assert_eq!(w.bit_len(), 3 + 1 + 10 + 64 + 1);
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read(3), Some(5));
        assert_eq!(r.read(1), Some(0));
        assert_eq!(r.read(10), Some(1023));
        assert_eq!(r.read(64), Some(u64::MAX));
        assert_eq!(r.read_bit(), Some(true));
    }

    #[test]
    fn read_past_end_returns_none() {
        let mut w = BitWriter::new();
        w.write(3, 2);
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read(2), Some(3));
        // The padding bits of the final byte are readable (zero), then
        // reads fail.
        assert_eq!(r.read(6), Some(0));
        assert_eq!(r.read(1), None);
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn oversized_value_panics() {
        BitWriter::new().write(8, 3);
    }

    #[test]
    fn width_for_reference() {
        assert_eq!(width_for(0), 1);
        assert_eq!(width_for(1), 1);
        assert_eq!(width_for(2), 2);
        assert_eq!(width_for(255), 8);
        assert_eq!(width_for(256), 9);
        assert_eq!(width_for(1499), 11);
    }

    #[test]
    fn bit_len_tracks_partial_bytes() {
        let mut w = BitWriter::new();
        w.write(1, 1);
        assert_eq!(w.bit_len(), 1);
        let b = w.into_bytes();
        assert_eq!(b.len(), 1);
    }
}
