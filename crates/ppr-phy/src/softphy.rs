//! The SoftPHY interface: decoded symbols annotated with confidence hints.
//!
//! This is the boundary the paper proposes between the PHY and higher
//! layers (§3): the PHY still makes *hard* symbol decisions, but passes
//! each decision up together with a small integer hint about how close the
//! reception was to the decoded codeword. Higher layers interpret hints
//! only through a **monotonicity contract** — a smaller hint always means
//! the PHY is at least as confident — and never look at how the hint was
//! computed.
//!
//! For the Hamming-distance hint used throughout the evaluation the hint
//! range is `0..=32` (chips flipped relative to the decoded codeword).

use crate::chips::Decision;

/// One decoded 4-bit symbol with its SoftPHY hint.
///
/// The hint obeys the monotonicity contract: lower ⇒ more confident.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SoftSymbol {
    /// The hard-decided data symbol (4 bits).
    pub symbol: u8,
    /// Confidence hint; for the Hamming hint this is the chip distance to
    /// the decoded codeword (0 = perfect reception).
    pub hint: u8,
}

impl From<Decision> for SoftSymbol {
    fn from(d: Decision) -> Self {
        SoftSymbol {
            symbol: d.symbol,
            hint: d.distance,
        }
    }
}

/// A decoded span of symbols with hints — the unit SoftPHY passes to the
/// link layer.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SoftSpan {
    /// Decoded symbols in order.
    pub symbols: Vec<SoftSymbol>,
}

impl SoftSpan {
    /// Wraps a vector of decisions.
    pub fn from_decisions(decisions: Vec<Decision>) -> Self {
        SoftSpan {
            symbols: decisions.into_iter().map(SoftSymbol::from).collect(),
        }
    }

    /// Number of symbols in the span.
    pub fn len(&self) -> usize {
        self.symbols.len()
    }

    /// True when the span holds no symbols.
    pub fn is_empty(&self) -> bool {
        self.symbols.is_empty()
    }

    /// Reassembles the byte stream (low nibble first), ignoring hints.
    pub fn to_bytes(&self) -> Vec<u8> {
        let symbols: Vec<u8> = self.symbols.iter().map(|s| s.symbol).collect();
        crate::spread::symbols_to_bytes(&symbols)
    }

    /// Per-symbol hints, in order.
    pub fn hints(&self) -> Vec<u8> {
        self.symbols.iter().map(|s| s.hint).collect()
    }

    /// Per-*byte* hint: the worse (larger) of the two nibble hints, which
    /// is the conservative byte-level confidence.
    pub fn byte_hints(&self) -> Vec<u8> {
        self.symbols
            .chunks_exact(2)
            .map(|pair| pair[0].hint.max(pair[1].hint))
            .collect()
    }

    /// Labels each symbol good (`true`) or bad against threshold `eta`:
    /// good ⇔ `hint ≤ eta` (§3.2's threshold rule).
    pub fn labels(&self, eta: u8) -> Vec<bool> {
        self.symbols.iter().map(|s| s.hint <= eta).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chips::Decision;

    fn span(hints: &[u8]) -> SoftSpan {
        SoftSpan {
            symbols: hints
                .iter()
                .map(|&h| SoftSymbol {
                    symbol: 0xA,
                    hint: h,
                })
                .collect(),
        }
    }

    #[test]
    fn labels_follow_threshold_rule() {
        let s = span(&[0, 3, 6, 7, 12]);
        assert_eq!(s.labels(6), vec![true, true, true, false, false]);
        assert_eq!(s.labels(0), vec![true, false, false, false, false]);
        assert_eq!(s.labels(32), vec![true; 5]);
    }

    #[test]
    fn byte_hints_take_worse_nibble() {
        let s = SoftSpan {
            symbols: vec![
                SoftSymbol { symbol: 1, hint: 2 },
                SoftSymbol { symbol: 2, hint: 9 },
                SoftSymbol { symbol: 3, hint: 0 },
                SoftSymbol { symbol: 4, hint: 1 },
            ],
        };
        assert_eq!(s.byte_hints(), vec![9, 1]);
    }

    #[test]
    fn to_bytes_matches_nibble_order() {
        let s = SoftSpan {
            symbols: vec![
                SoftSymbol {
                    symbol: 0x7,
                    hint: 0,
                },
                SoftSymbol {
                    symbol: 0xA,
                    hint: 0,
                },
            ],
        };
        assert_eq!(s.to_bytes(), vec![0xA7]);
    }

    #[test]
    fn from_decision_preserves_fields() {
        let d = Decision {
            symbol: 5,
            distance: 4,
        };
        let s: SoftSymbol = d.into();
        assert_eq!(s.symbol, 5);
        assert_eq!(s.hint, 4);
    }
}
