//! The differential harness: run the reception driver and the bool
//! spec over the same inputs, each from scratch, and diff the two
//! [`Reception`] streams reception by reception.
//!
//! One-shot parity tests compare two fixed implementations on one
//! input. This module turns parity into *continuous cross-validation*
//! of any run: [`crate::network::ReceptionDriver`] (the packed fast
//! path) against the sequential `&[bool]` reference (the executable
//! specification), which shares no state with it. [`first_divergence`]
//! reports the first stream position where the two disagree — down to
//! the `(transmission, receiver)` pair, its completion chip time, and
//! the first differing field. The SIMD axis cannot be toggled
//! in-process (kernel selection is cached once from `PPR_NO_SIMD`), so
//! it is compared *across* processes: [`stream_fingerprint`] gives a
//! stable 64-bit digest of a reception stream that `ppr-cli diff`
//! prints, and CI runs the pass twice — default and `PPR_NO_SIMD=1` —
//! and compares the printed fingerprints.

use crate::network::{
    process_receptions, process_receptions_reference, RadioEnv, Reception, RxArm, SimConfig,
    Transmission,
};
use crate::results::fingerprint;
use crate::rxpath::Acquisition;
pub use ppr_phy::simd::active_kernel_signature;

/// Report label of the reception driver's stream (the baseline).
pub const EVENT_LABEL: &str = "event";

/// Report label of the bool spec's stream.
pub const REFERENCE_LABEL: &str = "reference/bool";

/// The first position where two reception streams disagree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Divergence {
    /// Stream index (receiver-major reference order) of the first
    /// disagreement.
    pub index: usize,
    /// Transmission id at that position (baseline stream).
    pub tx_id: u64,
    /// Sender at that position.
    pub sender: usize,
    /// Receiver at that position.
    pub receiver: usize,
    /// Completion chip time of the diverging reception: its frame's
    /// exclusive end (0 when the transmission is unknown to the
    /// timeline).
    pub end_chip: u64,
    /// The first differing field.
    pub field: &'static str,
    /// Baseline value, rendered.
    pub left: String,
    /// Candidate value, rendered.
    pub right: String,
}

impl std::fmt::Display for Divergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "stream[{}] tx {} ({} -> {}) @chip {}: {} {} != {}",
            self.index,
            self.tx_id,
            self.sender,
            self.receiver,
            self.end_chip,
            self.field,
            self.left,
            self.right
        )
    }
}

/// Field-by-field comparison of one reception pair; `None` when equal.
fn diff_reception(a: &Reception, b: &Reception) -> Option<(&'static str, String, String)> {
    macro_rules! scalars {
        ($($field:ident),*) => {$(
            if a.$field != b.$field {
                let (left, right) = (format!("{:?}", a.$field), format!("{:?}", b.$field));
                return Some((stringify!($field), left, right));
            }
        )*};
    }
    scalars!(
        tx_id,
        sender,
        receiver,
        acquisition,
        payload_len,
        delivered_correct,
        delivered_claimed,
        crc_ok
    );
    if a.symbol_hints != b.symbol_hints {
        return Some((
            "symbol_hints",
            format!("{} hints", a.symbol_hints.len()),
            format!("{} hints (or content)", b.symbol_hints.len()),
        ));
    }
    if a.symbol_correct != b.symbol_correct {
        return Some((
            "symbol_correct",
            format!("{} symbols", a.symbol_correct.len()),
            format!("{} symbols (or content)", b.symbol_correct.len()),
        ));
    }
    None
}

/// Diffs two reception streams reception by reception (stream order is
/// the receiver-major reference order, common to the driver and the
/// spec) and reports the first disagreement, localized to its
/// (transmission, receiver) pair.
pub fn first_divergence(
    timeline: &[Transmission],
    baseline: &[Reception],
    candidate: &[Reception],
) -> Option<Divergence> {
    let end_chip_of = |tx_id: u64| {
        timeline
            .iter()
            .find(|t| t.id == tx_id)
            .map(|t| t.end_chip())
            .unwrap_or(0)
    };
    for (index, (a, b)) in baseline.iter().zip(candidate).enumerate() {
        if let Some((field, left, right)) = diff_reception(a, b) {
            return Some(Divergence {
                index,
                tx_id: a.tx_id,
                sender: a.sender,
                receiver: a.receiver,
                end_chip: end_chip_of(a.tx_id),
                field,
                left,
                right,
            });
        }
    }
    if baseline.len() != candidate.len() {
        let index = baseline.len().min(candidate.len());
        let probe = baseline.get(index).or_else(|| candidate.get(index));
        return Some(Divergence {
            index,
            tx_id: probe.map(|r| r.tx_id).unwrap_or(0),
            sender: probe.map(|r| r.sender).unwrap_or(0),
            receiver: probe.map(|r| r.receiver).unwrap_or(0),
            end_chip: probe.map(|r| end_chip_of(r.tx_id)).unwrap_or(0),
            field: "stream length",
            left: baseline.len().to_string(),
            right: candidate.len().to_string(),
        });
    }
    None
}

/// Stable 64-bit digest of a reception stream: FNV-1a over the
/// canonical field encoding of every reception, in stream order. Equal
/// streams — across processes, kernel selections and implementations — print
/// equal fingerprints; this is how CI compares the SIMD and scalar
/// kernel runs.
pub fn stream_fingerprint(recs: &[Reception]) -> u64 {
    let mut bytes = Vec::new();
    put_u64(&mut bytes, recs.len() as u64);
    for rec in recs {
        encode_reception(&mut bytes, rec);
    }
    fingerprint(&bytes)
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends the canonical field encoding of one reception: integers
/// little-endian and fixed-width (`usize` as `u64`), the acquisition as
/// a stable tag (a value, not an in-memory discriminant, so
/// fingerprints compare across builds), the CRC verdict as one byte,
/// then the hints and the symbol verdicts, each prefixed by its length.
fn encode_reception(out: &mut Vec<u8>, rec: &Reception) {
    put_u64(out, rec.tx_id);
    put_u64(out, rec.sender as u64);
    put_u64(out, rec.receiver as u64);
    out.push(match rec.acquisition {
        Acquisition::Preamble => 0,
        Acquisition::Postamble => 1,
        Acquisition::None => 2,
    });
    put_u64(out, rec.payload_len as u64);
    put_u64(out, rec.delivered_correct as u64);
    put_u64(out, rec.delivered_claimed as u64);
    out.push(rec.crc_ok as u8);
    put_u64(out, rec.symbol_hints.len() as u64);
    out.extend_from_slice(&rec.symbol_hints);
    put_u64(out, rec.symbol_correct.len() as u64);
    out.extend(rec.symbol_correct.iter().map(|&b| b as u8));
}

/// The driver's verdict against the spec over one run.
#[derive(Debug, Clone)]
pub struct DiffReport {
    /// Digest of the reception driver's stream.
    pub event_fp: u64,
    /// Digest of the bool spec's stream.
    pub reference_fp: u64,
    /// First disagreement of the spec's stream with the driver's.
    pub divergence: Option<Divergence>,
}

/// Runs [`process_receptions`] (the reception driver) and
/// [`process_receptions_reference`] over the same inputs, each from
/// scratch, and diffs the spec's stream against the driver's.
pub fn cross_validate(
    env: &RadioEnv,
    cfg: &SimConfig,
    timeline: &[Transmission],
    arm: &RxArm,
) -> DiffReport {
    let driver = process_receptions(env, cfg, timeline, arm);
    let spec = process_receptions_reference(env, cfg, timeline, arm);
    DiffReport {
        event_fp: stream_fingerprint(&driver),
        reference_fp: stream_fingerprint(&spec),
        divergence: first_divergence(timeline, &driver, &spec),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(tx_id: u64, receiver: usize, delivered: usize) -> Reception {
        Reception {
            tx_id,
            sender: 1,
            receiver,
            acquisition: Acquisition::Preamble,
            payload_len: 100,
            delivered_correct: delivered,
            delivered_claimed: delivered,
            crc_ok: delivered == 100,
            symbol_hints: Vec::new(),
            symbol_correct: Vec::new(),
        }
    }

    fn tl() -> Vec<Transmission> {
        vec![Transmission {
            id: 7,
            sender: 1,
            seq: 0,
            start_chip: 1000,
            len_chips: 500,
        }]
    }

    #[test]
    fn equal_streams_have_no_divergence_and_equal_fingerprints() {
        let a = vec![rec(7, 0, 100), rec(7, 1, 40)];
        let b = a.clone();
        assert_eq!(first_divergence(&tl(), &a, &b), None);
        assert_eq!(stream_fingerprint(&a), stream_fingerprint(&b));
    }

    #[test]
    fn first_differing_field_is_localized_to_the_event_key() {
        let a = vec![rec(7, 0, 100), rec(7, 1, 40)];
        let mut b = a.clone();
        b[1].delivered_correct = 39;
        let d = first_divergence(&tl(), &a, &b).expect("divergence");
        assert_eq!(d.index, 1);
        assert_eq!(d.tx_id, 7);
        assert_eq!(d.receiver, 1);
        assert_eq!(d.end_chip, 1500);
        assert_eq!(d.field, "delivered_correct");
        assert_ne!(stream_fingerprint(&a), stream_fingerprint(&b));
    }

    #[test]
    fn length_mismatch_is_reported_after_the_common_prefix() {
        let a = vec![rec(7, 0, 100), rec(7, 1, 40)];
        let b = vec![rec(7, 0, 100)];
        let d = first_divergence(&tl(), &a, &b).expect("divergence");
        assert_eq!(d.index, 1);
        assert_eq!(d.field, "stream length");
        assert_eq!(d.left, "2");
        assert_eq!(d.right, "1");
    }

    /// [`stream_fingerprint`] of the three receptions below.
    const PINNED_FINGERPRINT: u64 = 0xbd80_e086_084b_96ad;

    /// [`stream_fingerprint`] of the empty stream.
    const EMPTY_FINGERPRINT: u64 = 0xa8c7_f832_281a_39c5;

    /// The canonical encoding is pinned: every acquisition tag, the
    /// widest ids, and hint and symbol sections digest to the value
    /// earlier builds printed, so `ppr-cli diff` fingerprints compare
    /// across versions.
    #[test]
    fn stream_fingerprint_is_pinned() {
        let mut heard = rec(7, 0, 100);
        heard.symbol_hints = vec![0, 3, 31, 255];
        heard.symbol_correct = vec![true, false, true];
        let mut rolled_back = rec(u64::MAX, 22, 40);
        rolled_back.acquisition = Acquisition::Postamble;
        rolled_back.sender = usize::MAX;
        rolled_back.delivered_claimed = 64;
        let mut lost = rec(9, 5, 0);
        lost.acquisition = Acquisition::None;
        assert_eq!(
            stream_fingerprint(&[heard, rolled_back, lost]),
            PINNED_FINGERPRINT,
            "the canonical reception encoding moved"
        );
        assert_eq!(stream_fingerprint(&[]), EMPTY_FINGERPRINT);
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!([EVENT_LABEL, REFERENCE_LABEL], ["event", "reference/bool"]);
    }
}
