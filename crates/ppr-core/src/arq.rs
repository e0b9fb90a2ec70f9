//! PP-ARQ: the partial-packet retransmission protocol (§5).
//!
//! One transfer is a lockstep exchange:
//!
//! 1. The sender transmits the full packet (CRC-32 appended).
//! 2. The receiver decodes it (possibly partially), labels bytes via
//!    SoftPHY hints, plans the cheapest chunk request with the §5.1 DP,
//!    and sends a [`Feedback`] packet: chunk ranges + CRC-16 per
//!    complement (good) range.
//! 3. The sender verifies each complement CRC against what it sent —
//!    mismatches expose SoftPHY *misses* — and replies with a
//!    [`RetxPacket`]: a confirmation bitmap for the complement ranges
//!    plus data segments for every requested chunk and every mismatched
//!    range (each segment carrying its own CRC-16).
//! 4. The receiver patches confirmed/retransmitted bytes and repeats
//!    from 2 until every byte is verified.
//!
//! The protocol is transport-agnostic: an [`ArqChannel`] carries raw
//! bytes each way and returns what arrived plus per-byte hints, so the
//! same state machines run over the simulated radio, a perfect pipe, or
//! adversarial unit-test channels.

use crate::bits::{BitReader, BitWriter};
use crate::dp::{plan_chunks, plan_chunks_with, ChunkPlan, ChunkScratch, CostModel};
use crate::feedback::Feedback;
use crate::hints::PacketHints;
use crate::runs::{RunLengths, UnitRange};
use ppr_mac::crc::{crc16, verify_crc32_trailer};

/// PP-ARQ configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PpArqConfig {
    /// SoftPHY threshold `η` for labeling bytes.
    pub eta: u8,
    /// Maximum feedback/retransmission rounds before giving up.
    pub max_rounds: usize,
    /// Bits per unit for the DP cost model (8 = byte units).
    pub bits_per_unit: f64,
    /// Checksum length `λ_C` in bits for the DP cost model.
    pub checksum_bits: f64,
}

impl Default for PpArqConfig {
    fn default() -> Self {
        PpArqConfig {
            eta: ppr_mac::schemes::DEFAULT_ETA,
            max_rounds: 10,
            bits_per_unit: 8.0,
            checksum_bits: 16.0,
        }
    }
}

/// Facade over the chunk planner: hints in, optimal chunk plan out.
#[derive(Debug, Clone, Copy)]
pub struct PpArq {
    config: PpArqConfig,
}

impl PpArq {
    /// Creates a planner with the given configuration.
    pub fn new(config: PpArqConfig) -> Self {
        PpArq { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> PpArqConfig {
        self.config
    }

    /// Plans the optimal feedback chunk set for a packet's hints
    /// (thresholding already baked into [`PacketHints`]).
    pub fn plan_feedback(&self, hints: &PacketHints) -> ChunkPlan {
        let rl = RunLengths::from_labels(&hints.labels());
        let cost = CostModel {
            packet_units: hints.len(),
            bits_per_unit: self.config.bits_per_unit,
            checksum_bits: self.config.checksum_bits,
        };
        plan_chunks(&rl, &cost)
    }
}

/// One retransmitted byte range.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Segment {
    /// Offset of the first byte within the packet payload.
    pub offset: usize,
    /// The retransmitted bytes.
    pub bytes: Vec<u8>,
}

/// The sender's reply to one feedback packet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetxPacket {
    /// Sequence number of the data packet.
    pub seq: u16,
    /// Payload length (descriptor widths).
    pub packet_len: usize,
    /// One bit per feedback complement range: did its CRC-16 match the
    /// sender's data?
    pub confirms: Vec<bool>,
    /// Retransmitted segments: every requested chunk plus every
    /// mismatched complement range.
    pub segments: Vec<Segment>,
}

impl RetxPacket {
    /// Serializes. Layout (bit-packed):
    /// `seq:16 · len:16 · n_confirms:8 · bits · crc16(confirm-header):16 ·
    ///  n_segments:8 · (offset:16 · len:16 · crc16(data):16 · data)* `
    pub fn encode(&self) -> Vec<u8> {
        let mut bw = BitWriter::new();
        bw.write(self.seq as u64, 16);
        bw.write(self.packet_len as u64, 16);
        bw.write(self.confirms.len() as u64, 8);
        for &c in &self.confirms {
            bw.write_bit(c);
        }
        // Protect the confirm header with its own CRC-16 so a corrupted
        // bitmap is never trusted (it would mark wrong bytes verified).
        let crc = self.confirm_crc();
        bw.write(crc as u64, 16);
        bw.write(self.segments.len() as u64, 8);
        for s in &self.segments {
            bw.write(s.offset as u64, 16);
            bw.write(s.bytes.len() as u64, 16);
            bw.write(crc16(&s.bytes) as u64, 16);
            bw.write_bytes(&s.bytes);
        }
        bw.into_bytes()
    }

    fn confirm_crc(&self) -> u16 {
        let mut material = Vec::with_capacity(6 + self.confirms.len());
        material.extend_from_slice(&self.seq.to_le_bytes());
        material.extend_from_slice(&(self.packet_len as u16).to_le_bytes());
        material.extend(self.confirms.iter().map(|&c| c as u8));
        crc16(&material)
    }

    /// Decodes a possibly-corrupted retransmission packet.
    ///
    /// The confirm bitmap is kept only when its CRC-16 verifies; each
    /// segment is kept only when its own CRC-16 verifies. Structural
    /// desync (a corrupted length field) truncates parsing — remaining
    /// segments are lost, which a later round repairs.
    pub fn decode(bytes: &[u8]) -> Option<DecodedRetx> {
        let mut br = BitReader::new(bytes);
        let seq = br.read(16)? as u16;
        let packet_len = br.read(16)? as usize;
        let n_confirms = br.read(8)? as usize;
        let mut confirms = Vec::with_capacity(n_confirms);
        for _ in 0..n_confirms {
            confirms.push(br.read_bit()?);
        }
        let claimed_crc = br.read(16)? as u16;
        let tentative = RetxPacket {
            seq,
            packet_len,
            confirms: confirms.clone(),
            segments: vec![],
        };
        let confirms_ok = tentative.confirm_crc() == claimed_crc;

        let mut segments = Vec::new();
        if let Some(n_segments) = br.read(8) {
            for _ in 0..n_segments {
                let Some(offset) = br.read(16) else { break };
                let Some(len) = br.read(16) else { break };
                let Some(crc) = br.read(16) else { break };
                let Some(data) = br.read_bytes(len as usize) else {
                    break;
                };
                let in_bounds = (offset as usize) + data.len() <= packet_len;
                if crc16(&data) == crc as u16 && in_bounds {
                    segments.push(Segment {
                        offset: offset as usize,
                        bytes: data,
                    });
                }
            }
        }
        Some(DecodedRetx {
            seq,
            packet_len,
            confirms: if confirms_ok { Some(confirms) } else { None },
            segments,
        })
    }
}

/// A decoded (and integrity-filtered) retransmission packet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodedRetx {
    /// Sequence number.
    pub seq: u16,
    /// Claimed payload length.
    pub packet_len: usize,
    /// Confirmation bitmap, present only if its CRC verified.
    pub confirms: Option<Vec<bool>>,
    /// Segments whose data CRC verified.
    pub segments: Vec<Segment>,
}

/// Per-byte belief at the receiver.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ByteState {
    /// Confirmed correct (checksum-verified or retransmitted verbatim).
    Verified,
    /// SoftPHY labeled good, not yet checksum-confirmed.
    Good,
    /// SoftPHY labeled bad (or never received).
    Bad,
}

/// Receiver-side state for one packet transfer.
#[derive(Debug, Clone)]
pub struct ReceiverPacket {
    /// Sequence number of the transfer.
    pub seq: u16,
    bytes: Vec<u8>,
    state: Vec<ByteState>,
    last_feedback: Option<Feedback>,
    config: PpArqConfig,
    /// Reused planning state: one DP scratch, one label buffer and one
    /// run-length parse per receiver, refilled every feedback round —
    /// the fast path allocates no DP tables per frame.
    scratch: ChunkScratch,
    labels: Vec<bool>,
    runs: RunLengths,
}

impl ReceiverPacket {
    /// Initializes from the first (possibly partial) reception.
    ///
    /// `crc_ok` is the whole-packet CRC-32 verdict: when true, every byte
    /// is immediately verified and the transfer is complete.
    pub fn from_reception(
        seq: u16,
        bytes: Vec<u8>,
        hints: &[u8],
        crc_ok: bool,
        config: PpArqConfig,
    ) -> Self {
        Self::from_reception_with(seq, bytes, hints, crc_ok, config, ChunkScratch::new())
    }

    /// [`Self::from_reception`] with a recycled planner scratch (see
    /// [`Self::into_scratch`]) — how [`run_session_with`] keeps one
    /// scratch alive across back-to-back transfers.
    pub fn from_reception_with(
        seq: u16,
        bytes: Vec<u8>,
        hints: &[u8],
        crc_ok: bool,
        config: PpArqConfig,
        scratch: ChunkScratch,
    ) -> Self {
        assert_eq!(bytes.len(), hints.len(), "one hint per byte");
        let state = if crc_ok {
            vec![ByteState::Verified; bytes.len()]
        } else {
            hints
                .iter()
                .map(|&h| {
                    if h <= config.eta {
                        ByteState::Good
                    } else {
                        ByteState::Bad
                    }
                })
                .collect()
        };
        ReceiverPacket {
            seq,
            bytes,
            state,
            last_feedback: None,
            config,
            scratch,
            labels: Vec::new(),
            runs: RunLengths::from_labels(&[]),
        }
    }

    /// Consumes the receiver, handing its planner scratch back to the
    /// caller for the next transfer.
    pub fn into_scratch(self) -> ChunkScratch {
        self.scratch
    }

    /// Current payload view (may contain unverified bytes mid-transfer).
    pub fn payload(&self) -> &[u8] {
        &self.bytes
    }

    /// Per-byte states.
    pub fn states(&self) -> &[ByteState] {
        &self.state
    }

    /// All bytes verified?
    pub fn is_complete(&self) -> bool {
        self.state.iter().all(|&s| s == ByteState::Verified)
    }

    /// Plans and emits this round's feedback. Chunks cover `Bad` bytes;
    /// every complement range gets a CRC-16 over the receiver's bytes.
    ///
    /// This is the per-frame fast path: labels, run-length parse and DP
    /// state all live in per-receiver buffers reused across rounds, so
    /// planning allocates nothing beyond the emitted [`Feedback`].
    pub fn make_feedback(&mut self) -> Feedback {
        self.labels.clear();
        self.labels
            .extend(self.state.iter().map(|&s| s != ByteState::Bad));
        self.runs.refill_from_labels(&self.labels);
        let cost = CostModel {
            packet_units: self.bytes.len(),
            bits_per_unit: self.config.bits_per_unit,
            checksum_bits: self.config.checksum_bits,
        };
        let plan = plan_chunks_with(&self.runs, &cost, &mut self.scratch);
        let fb = Feedback::from_plan(self.seq, &self.bytes, plan.chunks.clone());
        self.last_feedback = Some(fb.clone());
        fb
    }

    /// Applies a retransmission reply: confirmations first (so a
    /// mismatched range is marked bad), then segments (which re-verify
    /// overlapping bytes with fresh data).
    pub fn apply_retx(&mut self, retx: &DecodedRetx) {
        if retx.seq != self.seq || retx.packet_len != self.bytes.len() {
            return;
        }
        if let (Some(confirms), Some(fb)) = (&retx.confirms, &self.last_feedback) {
            if confirms.len() == fb.checksums.len() {
                for (&ok, cs) in confirms.iter().zip(&fb.checksums) {
                    let new_state = if ok {
                        ByteState::Verified
                    } else {
                        ByteState::Bad
                    };
                    for s in &mut self.state[cs.range.start..cs.range.end] {
                        // Never downgrade a verified byte.
                        if *s != ByteState::Verified || new_state == ByteState::Verified {
                            *s = new_state;
                        }
                    }
                }
            }
        }
        for seg in &retx.segments {
            let end = seg.offset + seg.bytes.len();
            if end > self.bytes.len() {
                continue;
            }
            self.bytes[seg.offset..end].copy_from_slice(&seg.bytes);
            for s in &mut self.state[seg.offset..end] {
                *s = ByteState::Verified;
            }
        }
    }
}

/// Sender-side state for one packet transfer.
#[derive(Debug, Clone)]
pub struct SenderPacket {
    /// Sequence number of the transfer.
    pub seq: u16,
    payload: Vec<u8>,
}

impl SenderPacket {
    /// Creates the sender state.
    pub fn new(seq: u16, payload: Vec<u8>) -> Self {
        SenderPacket { seq, payload }
    }

    /// The payload (ground truth).
    pub fn payload(&self) -> &[u8] {
        &self.payload
    }

    /// Processes feedback: verifies complement CRCs, retransmits
    /// requested chunks and mismatched ranges. Returns `None` when the
    /// feedback is a clean ACK (nothing requested, everything matching)
    /// — the transfer is complete.
    pub fn on_feedback(&self, fb: &Feedback) -> Option<RetxPacket> {
        if fb.seq != self.seq || fb.packet_len != self.payload.len() {
            // Geometry mismatch: resend everything (cannot trust ranges).
            return Some(RetxPacket {
                seq: self.seq,
                packet_len: self.payload.len(),
                confirms: vec![],
                segments: vec![Segment {
                    offset: 0,
                    bytes: self.payload.clone(),
                }],
            });
        }
        let mut confirms = Vec::with_capacity(fb.checksums.len());
        let mut segments = Vec::new();
        for cs in &fb.checksums {
            let ok = crc16(&self.payload[cs.range.start..cs.range.end]) == cs.crc;
            confirms.push(ok);
            if !ok {
                segments.push(self.segment(cs.range));
            }
        }
        for &chunk in &fb.chunks {
            segments.push(self.segment(chunk));
        }
        if segments.is_empty() {
            return None; // clean ACK
        }
        segments.sort_by_key(|s| s.offset);
        Some(RetxPacket {
            seq: self.seq,
            packet_len: self.payload.len(),
            confirms,
            segments,
        })
    }

    fn segment(&self, r: UnitRange) -> Segment {
        Segment {
            offset: r.start,
            bytes: self.payload[r.start..r.end].to_vec(),
        }
    }
}

/// Transport abstraction: carries bytes each way, returning what arrived
/// plus one SoftPHY hint per received byte.
pub trait ArqChannel {
    /// Data/retransmission direction (sender → receiver).
    fn forward(&mut self, bytes: &[u8]) -> (Vec<u8>, Vec<u8>);
    /// Feedback direction (receiver → sender).
    fn reverse(&mut self, bytes: &[u8]) -> (Vec<u8>, Vec<u8>);
}

/// A perfect bidirectional pipe (tests, baselines).
#[derive(Debug, Default, Clone, Copy)]
pub struct PerfectChannel;

impl ArqChannel for PerfectChannel {
    fn forward(&mut self, bytes: &[u8]) -> (Vec<u8>, Vec<u8>) {
        (bytes.to_vec(), vec![0; bytes.len()])
    }
    fn reverse(&mut self, bytes: &[u8]) -> (Vec<u8>, Vec<u8>) {
        (bytes.to_vec(), vec![0; bytes.len()])
    }
}

/// Outcome of a full PP-ARQ transfer.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionStats {
    /// Did every byte verify within the round budget?
    pub completed: bool,
    /// Rounds used (0 = first transmission was already clean).
    pub rounds: usize,
    /// Bytes of the initial data transmission (payload + CRC-32).
    pub initial_bytes: usize,
    /// Size of each retransmission packet, bytes (Fig. 16's variable).
    pub retx_sizes: Vec<usize>,
    /// Size of each feedback packet, bytes.
    pub feedback_sizes: Vec<usize>,
    /// The receiver's final payload (for correctness checks).
    pub final_payload: Vec<u8>,
}

impl SessionStats {
    /// Total bytes the sender put on the air (initial + retransmissions).
    pub fn sender_bytes(&self) -> usize {
        self.initial_bytes + self.retx_sizes.iter().sum::<usize>()
    }

    /// Total bytes the receiver put on the air (feedback).
    pub fn receiver_bytes(&self) -> usize {
        self.feedback_sizes.iter().sum()
    }
}

/// Runs one complete lockstep PP-ARQ transfer of `payload` over
/// `channel`.
///
/// The initial transmission carries `payload · CRC-32`; feedback packets
/// carry their own CRC-32 trailer and are ignored by the sender when it
/// fails (the receiver simply re-plans next round, as a real sender's
/// feedback timeout would force).
pub fn run_session<C: ArqChannel>(
    payload: &[u8],
    config: PpArqConfig,
    channel: &mut C,
) -> SessionStats {
    run_session_with(payload, config, channel, &mut ChunkScratch::new())
}

/// [`run_session`] with a caller-held planner scratch: back-to-back
/// transfers (one scratch per receiver/link) reuse the feedback
/// planner's buffers instead of reallocating them per packet. Identical
/// output to [`run_session`].
pub fn run_session_with<C: ArqChannel>(
    payload: &[u8],
    config: PpArqConfig,
    channel: &mut C,
    scratch: &mut ChunkScratch,
) -> SessionStats {
    let seq = 1u16;
    let sender = SenderPacket::new(seq, payload.to_vec());

    // Initial data transmission.
    let mut tx = payload.to_vec();
    ppr_mac::crc::append_crc32(&mut tx);
    let initial_bytes = tx.len();
    let (rx_bytes, rx_hints) = channel.forward(&tx);
    let crc_ok = rx_bytes.len() == tx.len() && verify_crc32_trailer(&rx_bytes);
    // Strip the CRC trailer from the receiver's view (hint-aligned).
    let n = payload.len().min(rx_bytes.len());
    let mut body = rx_bytes[..n].to_vec();
    let mut body_hints = rx_hints[..n].to_vec();
    // A truncated reception: pad to full length with never-received.
    while body.len() < payload.len() {
        body.push(0);
        body_hints.push(u8::MAX);
    }
    let mut receiver = ReceiverPacket::from_reception_with(
        seq,
        body,
        &body_hints,
        crc_ok,
        config,
        std::mem::take(scratch),
    );

    let mut stats = SessionStats {
        completed: receiver.is_complete(),
        rounds: 0,
        initial_bytes,
        retx_sizes: Vec::new(),
        feedback_sizes: Vec::new(),
        final_payload: Vec::new(),
    };

    for round in 1..=config.max_rounds {
        if receiver.is_complete() {
            break;
        }
        stats.rounds = round;

        // Receiver → sender feedback (CRC-32 protected).
        let fb = receiver.make_feedback();
        let mut fb_bytes = fb.encode();
        ppr_mac::crc::append_crc32(&mut fb_bytes);
        stats.feedback_sizes.push(fb_bytes.len());
        let (fb_rx, _) = channel.reverse(&fb_bytes);
        let fb_ok = verify_crc32_trailer(&fb_rx);
        if !fb_ok {
            continue; // sender drops bad feedback; receiver re-plans
        }
        let Some(decoded_fb) = Feedback::decode(&fb_rx[..fb_rx.len() - 4]) else {
            continue;
        };

        // Sender → receiver retransmission.
        let Some(retx) = sender.on_feedback(&decoded_fb) else {
            // Clean ACK: sender is done; receiver state must agree.
            break;
        };
        let retx_bytes = retx.encode();
        stats.retx_sizes.push(retx_bytes.len());
        let (retx_rx, _retx_hints) = channel.forward(&retx_bytes);
        if let Some(decoded) = RetxPacket::decode(&retx_rx) {
            receiver.apply_retx(&decoded);
        }
    }

    stats.completed = receiver.is_complete();
    stats.final_payload = receiver.payload().to_vec();
    *scratch = receiver.into_scratch();
    stats
}

#[cfg(test)]
mod tests {
    use super::*;

    fn payload(n: usize) -> Vec<u8> {
        (0..n).map(|i| (i * 31 + 7) as u8).collect()
    }

    /// Corrupts fixed byte ranges on the first forward pass only, with
    /// honest hints; subsequent passes are clean.
    struct BurstChannel {
        bursts: Vec<(usize, usize)>,
        first_forward_done: bool,
    }

    impl BurstChannel {
        fn new(bursts: Vec<(usize, usize)>) -> Self {
            BurstChannel {
                bursts,
                first_forward_done: false,
            }
        }
    }

    impl ArqChannel for BurstChannel {
        fn forward(&mut self, bytes: &[u8]) -> (Vec<u8>, Vec<u8>) {
            let mut out = bytes.to_vec();
            let mut hints = vec![0u8; bytes.len()];
            if !self.first_forward_done {
                self.first_forward_done = true;
                for &(start, len) in &self.bursts {
                    for i in start..(start + len).min(out.len()) {
                        out[i] ^= 0x5A;
                        hints[i] = 20;
                    }
                }
            }
            (out, hints)
        }
        fn reverse(&mut self, bytes: &[u8]) -> (Vec<u8>, Vec<u8>) {
            (bytes.to_vec(), vec![0; bytes.len()])
        }
    }

    #[test]
    fn clean_transfer_completes_in_zero_rounds() {
        let p = payload(250);
        let stats = run_session(&p, PpArqConfig::default(), &mut PerfectChannel);
        assert!(stats.completed);
        assert_eq!(stats.rounds, 0);
        assert!(stats.retx_sizes.is_empty());
        assert_eq!(stats.final_payload, p);
    }

    #[test]
    fn single_burst_recovers_in_one_round() {
        let p = payload(250);
        let mut ch = BurstChannel::new(vec![(100, 30)]);
        let stats = run_session(&p, PpArqConfig::default(), &mut ch);
        assert!(stats.completed);
        assert_eq!(stats.rounds, 1);
        assert_eq!(stats.final_payload, p);
        assert_eq!(stats.retx_sizes.len(), 1);
        // The retransmission is much smaller than the packet: ~30 bytes
        // of data + segment/confirm overhead, not 250.
        assert!(
            stats.retx_sizes[0] < 60,
            "retx {} bytes",
            stats.retx_sizes[0]
        );
    }

    #[test]
    fn scattered_bursts_recover() {
        let p = payload(500);
        let mut ch = BurstChannel::new(vec![(0, 10), (200, 5), (490, 10)]);
        let stats = run_session(&p, PpArqConfig::default(), &mut ch);
        assert!(stats.completed, "{stats:?}");
        assert_eq!(stats.final_payload, p);
    }

    #[test]
    fn miss_is_caught_by_checksum_pass() {
        // A byte corrupted but labeled GOOD (hint 0): the SoftPHY miss.
        struct MissChannel {
            done: bool,
        }
        impl ArqChannel for MissChannel {
            fn forward(&mut self, bytes: &[u8]) -> (Vec<u8>, Vec<u8>) {
                let mut out = bytes.to_vec();
                let hints = vec![0u8; bytes.len()];
                if !self.done {
                    self.done = true;
                    out[42] ^= 0xFF; // silent corruption, confident hint
                }
                (out, hints)
            }
            fn reverse(&mut self, bytes: &[u8]) -> (Vec<u8>, Vec<u8>) {
                (bytes.to_vec(), vec![0; bytes.len()])
            }
        }
        let p = payload(100);
        let stats = run_session(&p, PpArqConfig::default(), &mut MissChannel { done: false });
        assert!(stats.completed);
        assert_eq!(stats.final_payload, p, "miss must be repaired");
        assert!(stats.rounds >= 1);
    }

    #[test]
    fn truncated_initial_reception_recovers() {
        struct TruncateChannel {
            done: bool,
        }
        impl ArqChannel for TruncateChannel {
            fn forward(&mut self, bytes: &[u8]) -> (Vec<u8>, Vec<u8>) {
                if !self.done {
                    self.done = true;
                    let keep = bytes.len() / 3;
                    return (bytes[..keep].to_vec(), vec![0; keep]);
                }
                (bytes.to_vec(), vec![0; bytes.len()])
            }
            fn reverse(&mut self, bytes: &[u8]) -> (Vec<u8>, Vec<u8>) {
                (bytes.to_vec(), vec![0; bytes.len()])
            }
        }
        let p = payload(300);
        let stats = run_session(
            &p,
            PpArqConfig::default(),
            &mut TruncateChannel { done: false },
        );
        assert!(stats.completed);
        assert_eq!(stats.final_payload, p);
    }

    #[test]
    fn lossy_feedback_only_wastes_a_round() {
        struct LossyFeedback {
            drop_first: bool,
            data_done: bool,
        }
        impl ArqChannel for LossyFeedback {
            fn forward(&mut self, bytes: &[u8]) -> (Vec<u8>, Vec<u8>) {
                let mut out = bytes.to_vec();
                let mut hints = vec![0u8; bytes.len()];
                if !self.data_done {
                    self.data_done = true;
                    for i in 50..80 {
                        out[i] ^= 0xA5;
                        hints[i] = 15;
                    }
                }
                (out, hints)
            }
            fn reverse(&mut self, bytes: &[u8]) -> (Vec<u8>, Vec<u8>) {
                if self.drop_first {
                    self.drop_first = false;
                    let mut out = bytes.to_vec();
                    out[0] ^= 0xFF; // break feedback CRC
                    return (out, vec![0; bytes.len()]);
                }
                (bytes.to_vec(), vec![0; bytes.len()])
            }
        }
        let p = payload(200);
        let stats = run_session(
            &p,
            PpArqConfig::default(),
            &mut LossyFeedback {
                drop_first: true,
                data_done: false,
            },
        );
        assert!(stats.completed);
        assert_eq!(stats.final_payload, p);
        assert_eq!(stats.rounds, 2, "one wasted round, one productive");
    }

    #[test]
    fn corrupted_retx_segment_is_rejected_then_repaired() {
        // First retransmission's segment data gets corrupted in flight;
        // its CRC-16 fails, the receiver keeps the bytes bad, and the
        // second round repairs them.
        struct CorruptRetx {
            forwards: usize,
        }
        impl ArqChannel for CorruptRetx {
            fn forward(&mut self, bytes: &[u8]) -> (Vec<u8>, Vec<u8>) {
                self.forwards += 1;
                let mut out = bytes.to_vec();
                let mut hints = vec![0u8; bytes.len()];
                match self.forwards {
                    1 => {
                        for i in 20..40 {
                            out[i] ^= 0x77;
                            hints[i] = 25;
                        }
                    }
                    2 => {
                        // Corrupt the retx mid-payload (hits segment data).
                        let mid = out.len() - 5;
                        out[mid] ^= 0x01;
                    }
                    _ => {}
                }
                (out, hints)
            }
            fn reverse(&mut self, bytes: &[u8]) -> (Vec<u8>, Vec<u8>) {
                (bytes.to_vec(), vec![0; bytes.len()])
            }
        }
        let p = payload(120);
        let stats = run_session(&p, PpArqConfig::default(), &mut CorruptRetx { forwards: 0 });
        assert!(stats.completed, "{stats:?}");
        assert_eq!(stats.final_payload, p);
        assert!(stats.rounds >= 2);
    }

    #[test]
    fn gives_up_after_max_rounds_on_dead_channel() {
        struct DeadChannel;
        impl ArqChannel for DeadChannel {
            fn forward(&mut self, bytes: &[u8]) -> (Vec<u8>, Vec<u8>) {
                // Everything arrives shredded with honest bad hints.
                (vec![0u8; bytes.len()], vec![30u8; bytes.len()])
            }
            fn reverse(&mut self, bytes: &[u8]) -> (Vec<u8>, Vec<u8>) {
                (vec![0u8; bytes.len()], vec![30u8; bytes.len()])
            }
        }
        let p = payload(80);
        let cfg = PpArqConfig {
            max_rounds: 4,
            ..Default::default()
        };
        let stats = run_session(&p, cfg, &mut DeadChannel);
        assert!(!stats.completed);
        assert_eq!(stats.rounds, 4);
    }

    #[test]
    fn retx_packet_roundtrip() {
        let r = RetxPacket {
            seq: 3,
            packet_len: 500,
            confirms: vec![true, false, true],
            segments: vec![
                Segment {
                    offset: 10,
                    bytes: vec![1, 2, 3],
                },
                Segment {
                    offset: 400,
                    bytes: vec![9; 50],
                },
            ],
        };
        let d = RetxPacket::decode(&r.encode()).unwrap();
        assert_eq!(d.seq, 3);
        assert_eq!(d.packet_len, 500);
        assert_eq!(d.confirms, Some(vec![true, false, true]));
        assert_eq!(d.segments, r.segments);
    }

    #[test]
    fn retx_decode_drops_corrupt_confirms_keeps_good_segments() {
        let r = RetxPacket {
            seq: 1,
            packet_len: 100,
            confirms: vec![true, true],
            segments: vec![Segment {
                offset: 5,
                bytes: vec![7; 10],
            }],
        };
        let mut enc = r.encode();
        // Flip a confirm bit (bit 40 = first confirm bit).
        enc[5] ^= 0x01;
        let d = RetxPacket::decode(&enc).unwrap();
        assert_eq!(d.confirms, None, "corrupt bitmap must be distrusted");
        assert_eq!(d.segments.len(), 1);
    }

    #[test]
    fn retx_decode_rejects_out_of_bounds_segment() {
        let r = RetxPacket {
            seq: 1,
            packet_len: 20,
            confirms: vec![],
            segments: vec![Segment {
                offset: 15,
                bytes: vec![1; 10],
            }],
        };
        let d = RetxPacket::decode(&r.encode()).unwrap();
        assert!(d.segments.is_empty());
    }

    #[test]
    fn session_with_recycled_scratch_is_identical() {
        // The same transfers through one shared scratch must produce
        // exactly the stats of independent sessions.
        let mut scratch = crate::dp::ChunkScratch::new();
        for (n, bursts) in [
            (250usize, vec![(100usize, 30usize)]),
            (500, vec![(0, 10), (200, 5), (490, 10)]),
            (120, vec![(20, 20)]),
        ] {
            let p = payload(n);
            let fresh = run_session(
                &p,
                PpArqConfig::default(),
                &mut BurstChannel::new(bursts.clone()),
            );
            let reused = run_session_with(
                &p,
                PpArqConfig::default(),
                &mut BurstChannel::new(bursts),
                &mut scratch,
            );
            assert_eq!(fresh, reused, "payload {n}");
            assert!(reused.completed);
        }
    }

    #[test]
    fn planner_facade_matches_dp() {
        let mut hints = vec![0u8; 64];
        for h in &mut hints[28..36] {
            *h = 9;
        }
        let plan =
            PpArq::new(PpArqConfig::default()).plan_feedback(&PacketHints::from_raw(&hints, 6));
        assert_eq!(plan.chunks.len(), 1);
        assert!(plan.chunks[0].covers(30));
    }

    /// Lowercase hex of `bytes`.
    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// Feedback packets of every shape the codec sees: a pure ACK, byte-
    /// aligned descriptors (`w = 8`) and 11-bit descriptors that straddle
    /// byte boundaries.
    fn feedback_corpus() -> Vec<Feedback> {
        vec![
            Feedback::from_plan(7, &payload(20), vec![]),
            Feedback::from_plan(
                0xBEEF,
                &payload(250),
                vec![UnitRange::new(10, 20), UnitRange::new(100, 130)],
            ),
            Feedback::from_plan(
                513,
                &payload(1499),
                vec![UnitRange::new(0, 5), UnitRange::new(1400, 1499)],
            ),
        ]
    }

    /// Retransmissions whose segment data starts off a byte boundary
    /// (three confirm bits), on one (eight), and an empty one.
    fn retx_corpus() -> Vec<RetxPacket> {
        vec![
            RetxPacket {
                seq: 3,
                packet_len: 250,
                confirms: vec![true, false, true],
                segments: vec![
                    Segment {
                        offset: 10,
                        bytes: payload(10),
                    },
                    Segment {
                        offset: 200,
                        bytes: vec![0xFF, 0x00, 0x81],
                    },
                ],
            },
            RetxPacket {
                seq: 0xFFFF,
                packet_len: 64,
                confirms: vec![false, true, true, false, true, false, false, true],
                segments: vec![Segment {
                    offset: 32,
                    bytes: payload(5),
                }],
            },
            RetxPacket {
                seq: 0,
                packet_len: 0,
                confirms: vec![],
                segments: vec![],
            },
        ]
    }

    #[test]
    fn wire_format_is_pinned() {
        // Any change to a field's width, order or bit order changes
        // these bytes; the codec is what the cost model charges for.
        let feedback = [
            "0700140000b950",
            "efbefa00020a0a641e032dc0f09b49",
            "0102db05020028005ec7501f06",
        ];
        for (fb, want) in feedback_corpus().iter().zip(feedback) {
            let bytes = fb.encode();
            assert_eq!(hex(&bytes), want, "{fb:?}");
            assert_eq!(Feedback::decode(&bytes).as_ref(), Some(fb));
        }
        let retx = [
            "0300fa00032dbd13500050001868393029221b140d06fff740061800b012fc070804",
            "ffff400008964ee9012000050057f60726456483",
            "0000000000c08400",
        ];
        for (r, want) in retx_corpus().iter().zip(retx) {
            let bytes = r.encode();
            assert_eq!(hex(&bytes), want, "{r:?}");
            let d = RetxPacket::decode(&bytes).expect("a whole packet decodes");
            assert_eq!(d.confirms.as_ref(), Some(&r.confirms));
            assert_eq!(d.segments, r.segments);
        }
    }
}
