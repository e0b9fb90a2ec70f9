//! The differential harness: resume one frozen checkpoint under the
//! reception driver, run the bool spec from scratch, and diff the two
//! [`Reception`] streams reception by reception.
//!
//! One-shot parity tests compare two fixed implementations on one
//! input. This module turns parity into *continuous cross-validation*:
//! any run is checkpointed at a transmission boundary
//! ([`crate::network::snapshot_after_events`]), the serialized state is
//! restored into [`ReceptionDriver`] and completed, and the result is
//! compared with the sequential `&[bool]` reference (the executable
//! specification) run over the same inputs from scratch. The
//! spec never reads the snapshot, so it is an oracle for the checkpoint
//! too: a snapshot that carries wrong progress — a tampered decoded
//! slot or busy horizon — resumes to a stream the spec does not
//! produce. [`first_divergence`] reports the first stream position
//! where the two disagree — down to the `(transmission, receiver)`
//! pair, its completion chip time, and the first differing field. The
//! SIMD axis cannot be toggled in-process (kernel selection is cached
//! once from `PPR_NO_SIMD`), so it is compared *across* processes:
//! [`stream_fingerprint`] gives a stable 64-bit digest of a reception
//! stream that `ppr-cli diff` prints, and CI runs the pass twice —
//! default and `PPR_NO_SIMD=1` — and compares the printed fingerprints.

use crate::network::{
    process_receptions_reference, RadioEnv, Reception, ReceptionDriver, RxArm, SimConfig,
    Transmission,
};
use crate::results::fingerprint;
use crate::snapshot::{encode_reception, RxSnapshot, SnapError, SnapWriter};
pub use ppr_phy::simd::active_kernel_signature;

/// Report label of the reception driver's resumed stream (the
/// baseline).
pub const EVENT_LABEL: &str = "event";

/// Report label of the bool spec's stream, run from scratch.
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
    let mut w = SnapWriter::default();
    w.usize(recs.len());
    for rec in recs {
        encode_reception(&mut w, rec);
    }
    fingerprint(&w.into_inner())
}

/// A resumed checkpoint's verdict against the spec.
#[derive(Debug, Clone)]
pub struct DiffReport {
    /// Digest of the reception driver's stream, resumed from the
    /// snapshot.
    pub event_fp: u64,
    /// Digest of the bool spec's stream, run from scratch.
    pub reference_fp: u64,
    /// First disagreement of the spec's stream with the resumed one.
    pub divergence: Option<Divergence>,
}

/// Restores `snap` into [`ReceptionDriver`] and runs it to the end,
/// runs [`process_receptions_reference`] over the same inputs from
/// scratch, and diffs the spec's stream against the resumed one.
pub fn cross_validate(
    env: &RadioEnv,
    cfg: &SimConfig,
    timeline: &[Transmission],
    arm: &RxArm,
    snap: &RxSnapshot,
) -> Result<DiffReport, SnapError> {
    let resumed = ReceptionDriver::restore(env, cfg, timeline, arm, snap)?.run_to_end();
    let spec = process_receptions_reference(env, cfg, timeline, arm);
    Ok(DiffReport {
        event_fp: stream_fingerprint(&resumed),
        reference_fp: stream_fingerprint(&spec),
        divergence: first_divergence(timeline, &resumed, &spec),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rxpath::Acquisition;

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

    #[test]
    fn labels_are_stable() {
        assert_eq!([EVENT_LABEL, REFERENCE_LABEL], ["event", "reference/bool"]);
    }
}
