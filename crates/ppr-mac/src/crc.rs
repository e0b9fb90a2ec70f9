//! CRC-32 (IEEE 802.3) and CRC-16 (CCITT) — table-driven, from scratch.
//!
//! CRC-32 protects whole packets and fragments (the paper's packet-CRC
//! and fragmented-CRC schemes both use 32-bit checks, §7.2); CRC-16
//! protects the short header/trailer records and PP-ARQ's per-run
//! verification checksums, where 4 bytes of check over ~10 bytes of data
//! would be disproportionate.
//!
//! [`crc32`] dispatches between two kernels: buffers of 64 bytes and
//! up use the PCLMULQDQ folding kernel in [`crate::clmul`] when the
//! CPU has it; everything else runs [`crc32_slice16`] — `const
//! fn`-generated shift tables folding a whole block of input per step
//! (one table lookup per byte, but the lookups within a block are
//! independent — no serial 8-bit shift chain between them), which is
//! what makes the 1500 B packet-CRC check cheap enough to no longer
//! dominate a frame decode. The table generator is
//! block-size-generic; the shipped kernel slices 16 bytes (slice-by-8
//! measured ~3.7× over the byte-at-a-time loop on the CI container —
//! halving the serial chain again clears 4×). The classic 1-table
//! byte-at-a-time form is kept as [`crc32_1table`], the pinned
//! reference the parity tests and the `crc32_*` bench rows compare
//! against.

// ppr-lint: region(no-float) begin — CRC table generation and folding
// are pure integer paths; a float anywhere here could only mean a unit
// mix-up (and floats in a `const fn` table would not even build).
/// Generates the `N` CRC-32 lookup tables for the reflected IEEE 802.3
/// polynomial `0xEDB88320`. `TABLES[0]` is the classic byte-at-a-time
/// table; `TABLES[k][b]` is the CRC of byte `b` followed by `k` zero
/// bytes, which lets slice-by-`N` process `N` bytes with `N` independent
/// lookups.
const fn crc32_tables<const N: usize>() -> [[u32; 256]; N] {
    let mut tables = [[0u32; 256]; N];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < N {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

/// Generates the CRC-16 lookup table for the CCITT polynomial `0x1021`
/// (non-reflected).
const fn crc16_table() -> [u16; 256] {
    let mut table = [0u16; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = (i as u16) << 8;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 0x8000 != 0 {
                (crc << 1) ^ 0x1021
            } else {
                crc << 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
}

pub(crate) const CRC32_TABLES: [[u32; 256]; 16] = crc32_tables();
const CRC16_TABLE: [u16; 256] = crc16_table();

/// CRC-32/ISO-HDLC (the "zlib" CRC): reflected, init `0xFFFFFFFF`, final
/// XOR `0xFFFFFFFF`.
///
/// Dispatches once per call on buffer size: packets of 64 bytes and up
/// go through the PCLMULQDQ folding kernel
/// ([`crc32_clmul`](crate::clmul::crc32_clmul)) when the CPU supports
/// it and `PPR_NO_SIMD=1` is not set; everything else (and every
/// pre-SSE4.1 machine) takes the sliced table kernel
/// [`crc32_slice16`]. All paths are bit-identical.
pub fn crc32(data: &[u8]) -> u32 {
    if data.len() >= 64 && crate::clmul::available() {
        return crate::clmul::crc32_clmul(data);
    }
    crc32_slice16(data)
}

/// The slice-by-16 table kernel — the pinned portable reference the
/// CLMUL kernel is parity-tested against, and the CRC every target
/// without `pclmulqdq` computes. Bit-identical to [`crc32_1table`].
pub fn crc32_slice16(data: &[u8]) -> u32 {
    let t = &CRC32_TABLES;
    let mut crc = 0xFFFF_FFFFu32;
    let mut chunks = data.chunks_exact(16);
    for c in &mut chunks {
        // Two 64-bit loads per block; the running CRC folds into the
        // low word. All sixteen lookups depend only on (w1, w2), so they
        // issue in parallel instead of serializing on a per-byte shift
        // chain — the only loop-carried dependency is one XOR tree per
        // 16 bytes.
        let w1 = u64::from_le_bytes(c[..8].try_into().expect("16-byte chunk")) ^ crc as u64;
        let w2 = u64::from_le_bytes(c[8..].try_into().expect("16-byte chunk"));
        crc = t[15][(w1 & 0xFF) as usize]
            ^ t[14][((w1 >> 8) & 0xFF) as usize]
            ^ t[13][((w1 >> 16) & 0xFF) as usize]
            ^ t[12][((w1 >> 24) & 0xFF) as usize]
            ^ t[11][((w1 >> 32) & 0xFF) as usize]
            ^ t[10][((w1 >> 40) & 0xFF) as usize]
            ^ t[9][((w1 >> 48) & 0xFF) as usize]
            ^ t[8][(w1 >> 56) as usize]
            ^ t[7][(w2 & 0xFF) as usize]
            ^ t[6][((w2 >> 8) & 0xFF) as usize]
            ^ t[5][((w2 >> 16) & 0xFF) as usize]
            ^ t[4][((w2 >> 24) & 0xFF) as usize]
            ^ t[3][((w2 >> 32) & 0xFF) as usize]
            ^ t[2][((w2 >> 40) & 0xFF) as usize]
            ^ t[1][((w2 >> 48) & 0xFF) as usize]
            ^ t[0][(w2 >> 56) as usize];
    }
    for &b in chunks.remainder() {
        let idx = ((crc ^ b as u32) & 0xFF) as usize;
        crc = (crc >> 8) ^ t[0][idx];
    }
    crc ^ 0xFFFF_FFFF
}

/// The byte-at-a-time 1-table CRC-32: the reference implementation the
/// slice-by-16 [`crc32`] is parity-tested against (and the baseline row
/// of the `crc32_*` bench ladder).
pub fn crc32_1table(data: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in data {
        let idx = ((crc ^ b as u32) & 0xFF) as usize;
        crc = (crc >> 8) ^ CRC32_TABLES[0][idx];
    }
    crc ^ 0xFFFF_FFFF
}

/// CRC-16/CCITT-FALSE: poly `0x1021`, init `0xFFFF`, no reflection, no
/// final XOR.
pub fn crc16(data: &[u8]) -> u16 {
    let mut crc = 0xFFFFu16;
    for &b in data {
        let idx = (((crc >> 8) ^ b as u16) & 0xFF) as usize;
        crc = (crc << 8) ^ CRC16_TABLE[idx];
    }
    crc
}

/// Verifies a buffer whose last four bytes are its little-endian CRC-32.
pub fn verify_crc32_trailer(buf: &[u8]) -> bool {
    if buf.len() < 4 {
        return false;
    }
    let (data, tail) = buf.split_at(buf.len() - 4);
    crc32(data) == u32::from_le_bytes([tail[0], tail[1], tail[2], tail[3]])
}

/// Appends the little-endian CRC-32 of `data` to it.
pub fn append_crc32(data: &mut Vec<u8>) {
    let c = crc32(data);
    data.extend_from_slice(&c.to_le_bytes());
}
// ppr-lint: region(no-float) end

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_check_value() {
        // The canonical CRC-32 check: "123456789" → 0xCBF43926.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32_1table(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn sliced_crc32_matches_1table_on_random_buffers() {
        // Every length from 0 to 64 (hitting all remainder phases of the
        // 16-byte main loop) plus large buffers, on pseudo-random bytes.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state as u8
        };
        for len in (0usize..=64).chain([100, 1023, 1500, 4096]) {
            let buf: Vec<u8> = (0..len).map(|_| next()).collect();
            assert_eq!(crc32_slice16(&buf), crc32_1table(&buf), "len {len}");
            // The public dispatcher (whatever kernel it picks) agrees.
            assert_eq!(crc32(&buf), crc32_1table(&buf), "len {len}");
        }
    }

    #[test]
    fn sliced_crc32_matches_1table_on_existing_vectors() {
        // The buffers the rest of this module pins, plus edge patterns.
        for buf in [
            &b""[..],
            b"123456789",
            b"partial packet recovery",
            b"payload bytes",
            &[0xA5u8; 64],
            &[0x00u8; 33],
            &[0xFFu8; 17],
        ] {
            assert_eq!(crc32(buf), crc32_1table(buf));
        }
    }

    #[test]
    fn crc16_check_value() {
        // CRC-16/CCITT-FALSE check: "123456789" → 0x29B1.
        assert_eq!(crc16(b"123456789"), 0x29B1);
    }

    #[test]
    fn empty_input() {
        assert_eq!(crc32(&[]), 0);
        assert_eq!(crc16(&[]), 0xFFFF);
    }

    #[test]
    fn single_bit_flip_changes_crc() {
        let data = b"partial packet recovery".to_vec();
        let base = crc32(&data);
        for byte in 0..data.len() {
            for bit in 0..8 {
                let mut d = data.clone();
                d[byte] ^= 1 << bit;
                assert_ne!(crc32(&d), base, "flip at {byte}.{bit} undetected");
                assert_ne!(
                    crc16(&d),
                    crc16(&data),
                    "crc16 flip at {byte}.{bit} undetected"
                );
            }
        }
    }

    #[test]
    fn trailer_roundtrip() {
        let mut buf = b"payload bytes".to_vec();
        append_crc32(&mut buf);
        assert!(verify_crc32_trailer(&buf));
        // Corruption anywhere breaks verification.
        for i in 0..buf.len() {
            let mut b = buf.clone();
            b[i] ^= 0x40;
            assert!(!verify_crc32_trailer(&b), "corruption at {i} passed");
        }
    }

    #[test]
    fn trailer_verify_rejects_short_buffers() {
        assert!(!verify_crc32_trailer(&[]));
        assert!(!verify_crc32_trailer(&[1, 2, 3]));
    }

    #[test]
    fn burst_errors_detected() {
        // CRC-32 detects all burst errors up to 32 bits; spot-check a few.
        let data = vec![0xA5u8; 64];
        let base = crc32(&data);
        for start in [0usize, 13, 60] {
            let mut d = data.clone();
            for i in 0..4.min(d.len() - start) {
                d[start + i] ^= 0xFF;
            }
            assert_ne!(crc32(&d), base);
        }
    }
}
