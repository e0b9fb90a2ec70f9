//! Packet-level view of SoftPHY hints and the threshold rule.
//!
//! `ppr-phy` produces one hint per decoded unit; PP-ARQ consumes a whole
//! packet's worth at once. [`PacketHints`] binds the two: raw hints plus a
//! threshold `η`, yielding the good/bad labeling of §3.2 that the
//! run-length representation and the chunking DP operate on.
//!
//! The *unit* is deliberately unspecified (codewords in the paper's PHY,
//! bytes in the PP-ARQ implementation here); everything downstream is
//! unit-agnostic, honoring the SoftPHY abstraction boundary (§3.3).

/// A packet's hints with its threshold: the input to PP-ARQ planning.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PacketHints {
    hints: Vec<u8>,
    eta: u8,
}

impl PacketHints {
    /// Wraps raw per-unit hints with a threshold `η`.
    pub fn from_raw(hints: &[u8], eta: u8) -> Self {
        PacketHints {
            hints: hints.to_vec(),
            eta,
        }
    }

    /// The threshold in use.
    pub fn eta(&self) -> u8 {
        self.eta
    }

    /// Number of units in the packet.
    pub fn len(&self) -> usize {
        self.hints.len()
    }

    /// True for an empty packet.
    pub fn is_empty(&self) -> bool {
        self.hints.is_empty()
    }

    /// Raw hint access.
    pub fn raw(&self) -> &[u8] {
        &self.hints
    }

    /// Good/bad labels for the whole packet: the §3.2 threshold rule,
    /// unit `i` is good ⇔ `hint ≤ η`.
    pub fn labels(&self) -> Vec<bool> {
        self.hints.iter().map(|&h| h <= self.eta).collect()
    }

    /// Number of units labeled bad.
    pub fn bad_count(&self) -> usize {
        self.hints.iter().filter(|&&h| h > self.eta).count()
    }

    /// True when every unit is labeled good (nothing to retransmit —
    /// though misses may still lurk; the ARQ's checksum pass catches
    /// them).
    pub fn all_good(&self) -> bool {
        self.bad_count() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_apply_threshold() {
        let h = PacketHints::from_raw(&[0, 6, 7, 32], 6);
        assert_eq!(h.labels(), vec![true, true, false, false]);
        assert_eq!(h.bad_count(), 2);
        assert!(!h.all_good());
    }

    #[test]
    fn all_good_and_empty() {
        assert!(PacketHints::from_raw(&[0, 1, 2], 6).all_good());
        let empty = PacketHints::from_raw(&[], 6);
        assert!(empty.all_good());
        assert!(empty.is_empty());
        assert_eq!(empty.len(), 0);
    }

    #[test]
    fn eta_zero_is_strictest() {
        let h = PacketHints::from_raw(&[0, 1], 0);
        assert_eq!(h.labels(), vec![true, false]);
        assert_eq!(h.eta(), 0);
    }
}
