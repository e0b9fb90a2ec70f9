//! Direct-sequence spreading and despreading.
//!
//! The sender path maps a byte stream to 4-bit symbols (low nibble first,
//! as in 802.15.4) and each symbol to its 32-chip codeword. The receiver
//! path reverses this, producing for each codeword a [`Decision`] (hard
//! decoding + Hamming-distance SoftPHY hint).

use crate::chips::{spread_symbol, Decision};

/// Converts a byte stream into 4-bit data symbols, low nibble first.
pub fn bytes_to_symbols(bytes: &[u8]) -> Vec<u8> {
    let mut symbols = Vec::with_capacity(bytes.len() * 2);
    for &b in bytes {
        symbols.push(b & 0x0f);
        symbols.push(b >> 4);
    }
    symbols
}

/// Reassembles bytes from 4-bit symbols (low nibble first).
///
/// A trailing unpaired symbol is dropped; callers framing whole bytes never
/// produce one.
pub fn symbols_to_bytes(symbols: &[u8]) -> Vec<u8> {
    symbols
        .chunks_exact(2)
        .map(|pair| (pair[0] & 0x0f) | (pair[1] << 4))
        .collect()
}

/// Spreads a symbol stream into packed 32-chip codewords, one `u32` per
/// symbol (chip 0 in the LSB).
pub fn spread(symbols: &[u8]) -> Vec<u32> {
    symbols.iter().map(|&s| spread_symbol(s & 0x0f)).collect()
}

/// Spreads a byte stream directly to chip words.
pub fn spread_bytes(bytes: &[u8]) -> Vec<u32> {
    spread(&bytes_to_symbols(bytes))
}

/// Hard-decision despreading: nearest-codeword decode of every chip word,
/// yielding the data symbol and its Hamming-distance hint.
///
/// Runs on the process-wide SIMD kernel
/// ([`DespreadKernel::active`](crate::simd::DespreadKernel::active));
/// output is bit-identical to [`decide`](crate::chips::decide) per
/// word on every kernel.
pub fn despread_hard(chip_words: &[u32]) -> Vec<Decision> {
    crate::simd::decide_batch(chip_words)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nibble_order_is_low_first() {
        assert_eq!(bytes_to_symbols(&[0xA7]), vec![0x7, 0xA]);
        assert_eq!(symbols_to_bytes(&[0x7, 0xA]), vec![0xA7]);
    }

    #[test]
    fn bytes_symbols_roundtrip() {
        let data: Vec<u8> = (0..=255).collect();
        assert_eq!(symbols_to_bytes(&bytes_to_symbols(&data)), data);
    }

    #[test]
    fn spread_despread_roundtrip_clean() {
        let data = b"partial packet recovery";
        let chips = spread_bytes(data);
        assert_eq!(chips.len(), data.len() * 2); // two codewords per byte
        let decisions = despread_hard(&chips);
        assert!(decisions.iter().all(|d| d.distance == 0));
        let symbols: Vec<u8> = decisions.iter().map(|d| d.symbol).collect();
        assert_eq!(symbols_to_bytes(&symbols), data);
    }

    #[test]
    fn hard_decode_reports_flip_count_as_hint() {
        let chips = spread_bytes(&[0x5A]);
        // Flip 4 chips in the first codeword.
        let corrupted = chips[0] ^ 0x0000_1111;
        let d = decide_one(corrupted);
        assert_eq!(d.distance, 4);
        assert_eq!(d.symbol, 0x5A & 0x0f);
    }

    fn decide_one(w: u32) -> crate::chips::Decision {
        despread_hard(&[w])[0]
    }
}
