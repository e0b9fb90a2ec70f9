//! The differential harness: restore one frozen checkpoint under every
//! backend/driver/kernel combination and diff the resulting
//! [`Reception`] streams event by event.
//!
//! One-shot parity tests compare two fixed implementations on one
//! input. This module turns parity into *continuous cross-validation*:
//! any run is checkpointed at an event boundary
//! ([`crate::network::snapshot_after_events`]), and the identical
//! serialized state is completed under
//!
//! * the event-driven packed driver,
//! * the time-stepped packed driver, and
//! * the sequential `&[bool]` reference (the executable specification),
//!
//! after which [`first_divergence`] reports the first stream position
//! where any combination disagrees with the baseline — down to the
//! `(transmission, receiver)` pair, its completion chip time, and the
//! first differing field. The SIMD axis cannot be toggled in-process
//! (kernel selection is cached once from `PPR_NO_SIMD`), so it is
//! compared *across* processes: [`stream_fingerprint`] gives a stable
//! 64-bit digest of a reception stream that `ppr-cli diff` prints, and
//! CI runs the whole matrix twice — default and `PPR_NO_SIMD=1` — and
//! compares the printed fingerprints.

use crate::network::{
    resume_receptions_reference, resume_receptions_timestep, RadioEnv, Reception, ReceptionDriver,
    RxArm, SimConfig, Transmission,
};
use crate::results::fingerprint;
use crate::snapshot::{encode_reception, RxSnapshot, SnapError, SnapWriter};
pub use ppr_phy::simd::active_kernel_signature;

/// One way to complete a restored checkpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DiffBackend {
    /// The event-driven packed driver.
    Event,
    /// The time-stepped packed driver (receiver-major walk, no event
    /// queue).
    Timestep,
    /// The sequential `&[bool]` reference implementation.
    Reference,
}

impl DiffBackend {
    /// Stable human-readable label, used in reports and CI output.
    pub fn label(&self) -> String {
        match self {
            DiffBackend::Event => "event",
            DiffBackend::Timestep => "timestep",
            DiffBackend::Reference => "reference/bool",
        }
        .to_string()
    }
}

/// The default cross-validation matrix: the event driver as baseline,
/// the time-stepped driver, and the bool reference.
pub fn standard_backends() -> Vec<DiffBackend> {
    vec![
        DiffBackend::Event,
        DiffBackend::Timestep,
        DiffBackend::Reference,
    ]
}

/// Completes a restored checkpoint under one backend, returning the
/// full reception stream in receiver-major reference order.
pub fn resume_receptions(
    env: &RadioEnv,
    cfg: &SimConfig,
    timeline: &[Transmission],
    arm: &RxArm,
    snap: &RxSnapshot,
    backend: DiffBackend,
) -> Result<Vec<Reception>, SnapError> {
    match backend {
        DiffBackend::Event => {
            ReceptionDriver::restore(env, cfg, timeline, arm, snap).map(|d| d.run_to_end())
        }
        DiffBackend::Timestep => resume_receptions_timestep(env, cfg, timeline, arm, snap),
        DiffBackend::Reference => resume_receptions_reference(env, cfg, timeline, arm, snap),
    }
}

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
    /// Completion chip time of the diverging reception — the `time`
    /// component of its `ReceptionComplete` event key (0 when the
    /// transmission is unknown to the timeline).
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
    if a.tx_id != b.tx_id {
        return Some(("tx_id", a.tx_id.to_string(), b.tx_id.to_string()));
    }
    if a.sender != b.sender {
        return Some(("sender", a.sender.to_string(), b.sender.to_string()));
    }
    if a.receiver != b.receiver {
        return Some(("receiver", a.receiver.to_string(), b.receiver.to_string()));
    }
    if a.acquisition != b.acquisition {
        return Some((
            "acquisition",
            format!("{:?}", a.acquisition),
            format!("{:?}", b.acquisition),
        ));
    }
    if a.payload_len != b.payload_len {
        return Some((
            "payload_len",
            a.payload_len.to_string(),
            b.payload_len.to_string(),
        ));
    }
    if a.delivered_correct != b.delivered_correct {
        return Some((
            "delivered_correct",
            a.delivered_correct.to_string(),
            b.delivered_correct.to_string(),
        ));
    }
    if a.delivered_claimed != b.delivered_claimed {
        return Some((
            "delivered_claimed",
            a.delivered_claimed.to_string(),
            b.delivered_claimed.to_string(),
        ));
    }
    if a.crc_ok != b.crc_ok {
        return Some(("crc_ok", a.crc_ok.to_string(), b.crc_ok.to_string()));
    }
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

/// Diffs two reception streams event by event (stream order is the
/// receiver-major reference order, common to every backend) and
/// reports the first disagreement, localized to its event key.
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
/// streams — across processes, kernel selections and backends — print
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

/// One backend's verdict against the baseline stream.
#[derive(Debug, Clone)]
pub struct ComboReport {
    /// Backend label ([`DiffBackend::label`]).
    pub label: String,
    /// Digest of this backend's resumed stream.
    pub stream_fp: u64,
    /// First disagreement with the baseline, if any.
    pub divergence: Option<Divergence>,
}

/// Restores `snap` under every backend in `backends` (the first is the
/// baseline) and diffs each stream against the baseline. Returns the
/// per-combination reports, baseline first.
pub fn cross_validate(
    env: &RadioEnv,
    cfg: &SimConfig,
    timeline: &[Transmission],
    arm: &RxArm,
    snap: &RxSnapshot,
    backends: &[DiffBackend],
) -> Result<Vec<ComboReport>, SnapError> {
    assert!(!backends.is_empty(), "need a baseline backend");
    let baseline = resume_receptions(env, cfg, timeline, arm, snap, backends[0])?;
    let mut reports = vec![ComboReport {
        label: backends[0].label(),
        stream_fp: stream_fingerprint(&baseline),
        divergence: None,
    }];
    for &backend in &backends[1..] {
        let stream = resume_receptions(env, cfg, timeline, arm, snap, backend)?;
        reports.push(ComboReport {
            label: backend.label(),
            stream_fp: stream_fingerprint(&stream),
            divergence: first_divergence(timeline, &baseline, &stream),
        });
    }
    Ok(reports)
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
        let labels: Vec<String> = standard_backends().iter().map(|b| b.label()).collect();
        assert_eq!(labels, ["event", "timestep", "reference/bool"]);
    }
}
