//! Figure 16: PP-ARQ partial-retransmission sizes over a single link.
//!
//! One transmitter sends 250-byte packets back-to-back to one receiver
//! over a marginal link with intermittent collision bursts; PP-ARQ
//! recovers each packet. The figure is the CDF of the sizes of the
//! retransmission packets the sender emits — the paper reports a median
//! of roughly *half* the 250 B packet size, i.e. PP-ARQ resends about
//! half the data on half the retransmissions.
//!
//! The transport here is the real chip-level pipeline: every forward
//! packet (data *and* retransmission) is framed, spread to chips,
//! corrupted by SINR-driven chip errors plus occasional interference
//! bursts, and decoded with SoftPHY hints, exactly like a network
//! reception.

use super::Experiment;
use crate::metrics::Cdf;
use crate::report::fmt;
use crate::results::{ExperimentResult, TableBlock};
use crate::rxpath::{body_or_lost, FastRx, LinkScratch};
use crate::scenario::{Scenario, DEFAULT_SEED};
use ppr_core::arq::{run_session_with, ArqChannel, PpArqConfig, SessionStats};
use ppr_core::dp::ChunkScratch;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A single radio link carrying PP-ARQ traffic at chip level.
pub struct RadioLinkChannel {
    /// Clean-channel chip error probability (from link SINR).
    pub base_chip_error: f64,
    /// Probability that a forward frame suffers a collision burst.
    pub burst_prob: f64,
    /// Burst chip error probability (interferer comparable to signal).
    pub burst_chip_error: f64,
    /// Fraction of the frame a burst covers (mean).
    pub burst_cover: f64,
    /// RNG for channel draws.
    pub rng: StdRng,
    rx: FastRx,
    /// Every frame's buffers, kept across frames.
    scratch: LinkScratch,
    /// The burst a forward frame draws, if any.
    burst: Vec<(u64, u64)>,
}

impl RadioLinkChannel {
    /// A marginal-but-usable link: ~4 dB SNR with frequent bursts.
    pub fn marginal(seed: u64) -> Self {
        RadioLinkChannel {
            base_chip_error: ppr_channel::ber::chip_error_prob(10f64.powf(0.4)), // 4 dB
            burst_prob: 0.7,
            burst_chip_error: 0.35,
            burst_cover: 0.45,
            rng: StdRng::seed_from_u64(seed),
            rx: FastRx::new(true),
            scratch: LinkScratch::default(),
            burst: Vec::new(),
        }
    }

    /// Sends `bytes` as one frame over the link; returns the receiver's
    /// view of the body plus per-byte hints.
    fn transmit(&mut self, bytes: &[u8]) -> (Vec<u8>, Vec<u8>) {
        let (total, profile) = self.scratch.build(1, 2, 0, bytes);
        self.burst.clear();
        if self.rng.gen::<f64>() < self.burst_prob {
            let cover = (total as f64 * self.burst_cover * self.rng.gen::<f64>() * 2.0) as u64;
            let cover = cover.min(total.saturating_sub(1)).max(1);
            let start = self.rng.gen_range(0..total - cover);
            self.burst.push((start, start + cover));
        }
        profile.refill_with_bursts(
            total,
            self.base_chip_error,
            &self.burst,
            self.burst_chip_error,
        );
        let (_acq, rx) = self.scratch.send(&self.rx, &mut self.rng, true);
        body_or_lost(rx, bytes.len())
    }
}

impl ArqChannel for RadioLinkChannel {
    fn forward(&mut self, bytes: &[u8]) -> (Vec<u8>, Vec<u8>) {
        self.transmit(bytes)
    }
    fn reverse(&mut self, bytes: &[u8]) -> (Vec<u8>, Vec<u8>) {
        // Feedback rides the same link quality without bursts (it is
        // short; the paper's reverse link is the same radio pair).
        let (total, profile) = self.scratch.build(2, 1, 0, bytes);
        let base = self.base_chip_error;
        profile.refill_with_bursts(total, base, &[], base);
        let (_acq, rx) = self.scratch.send(&self.rx, &mut self.rng, true);
        body_or_lost(rx, bytes.len())
    }
}

/// Experiment output.
#[derive(Debug, Clone)]
pub struct PpArqRun {
    /// All retransmission packet sizes observed (bytes).
    pub retx_sizes: Vec<usize>,
    /// Per-session stats.
    pub sessions: Vec<SessionStats>,
    /// Packet (payload) size used.
    pub packet_bytes: usize,
}

/// Runs `n_packets` back-to-back 250 B transfers under the historical
/// fixed channel seed.
pub fn collect(n_packets: usize) -> PpArqRun {
    collect_seeded(n_packets, 0xF16)
}

/// Runs `n_packets` transfers with an explicit channel seed.
pub fn collect_seeded(n_packets: usize, seed: u64) -> PpArqRun {
    let packet_bytes = 250;
    let mut channel = RadioLinkChannel::marginal(seed);
    let mut retx_sizes = Vec::new();
    let mut sessions = Vec::new();
    // One planner scratch for the whole link: the receiver side of
    // every session reuses the same feedback-DP buffers.
    let mut scratch = ChunkScratch::new();
    for i in 0..n_packets {
        let payload: Vec<u8> = {
            let mut r = StdRng::seed_from_u64(i as u64);
            (0..packet_bytes).map(|_| r.gen()).collect()
        };
        let stats = run_session_with(&payload, PpArqConfig::default(), &mut channel, &mut scratch);
        retx_sizes.extend(stats.retx_sizes.iter().copied());
        sessions.push(stats);
    }
    PpArqRun {
        retx_sizes,
        sessions,
        packet_bytes,
    }
}

/// The Fig. 16 experiment. The packet count rides the scenario's
/// `arq_packets` knob (default 300, the historical binary's count).
pub struct Fig16;

impl Experiment for Fig16 {
    fn id(&self) -> &'static str {
        "fig16"
    }

    fn title(&self) -> &'static str {
        "Figure 16: PP-ARQ retransmission sizes"
    }

    fn paper_ref(&self) -> &'static str {
        "Figure 16"
    }

    fn description(&self) -> &'static str {
        "PP-ARQ partial-retransmission size CDF over a marginal bursty link"
    }

    fn run(&self, scenario: &Scenario) -> ExperimentResult {
        // XOR with the default master seed so the historical channel
        // stream (seed 0xF16) is preserved under the default scenario.
        let run = collect_seeded(scenario.arq_packets, 0xF16 ^ scenario.seed ^ DEFAULT_SEED);
        let sizes: Vec<f64> = run.retx_sizes.iter().map(|&s| s as f64).collect();
        let cdf = Cdf::from_samples(sizes);
        let mut res = ExperimentResult::new(self.id(), self.title(), self.paper_ref(), scenario);
        res.text(format!(
            "Figure 16: sizes of PP-ARQ partial retransmissions\n\
             ({} sessions of {} B packets over a marginal bursty link)\n\n",
            run.sessions.len(),
            run.packet_bytes
        ));
        let mut t = TableBlock::new(&["metric", "value"]);
        t.row(vec!["retransmission packets".into(), cdf.len().into()]);
        t.row(vec!["median size (bytes)".into(), cdf.median().into()]);
        t.row(vec![
            "p25 / p75".into(),
            format!("{} / {}", fmt(cdf.quantile(0.25)), fmt(cdf.quantile(0.75))).into(),
        ]);
        let completed = run.sessions.iter().filter(|s| s.completed).count();
        t.row(vec![
            "sessions completed".into(),
            format!("{completed}/{}", run.sessions.len()).into(),
        ]);
        let mean_rounds = run.sessions.iter().map(|s| s.rounds as f64).sum::<f64>()
            / run.sessions.len().max(1) as f64;
        t.row(vec!["mean rounds".into(), mean_rounds.into()]);
        res.table(t);
        res.text("\n");
        res.series("retx size CDF", cdf.series(0.0, 300.0, 16));
        res.text(
            "\nShape target: median retransmission ~half the 250 B packet\n\
             (the paper's preliminary implementation reports ~125 B).\n",
        );
        res.metric("median_retx_bytes", cdf.median());
        res.metric("packet_bytes", run.packet_bytes as f64);
        res.metric("sessions_completed", completed as f64);
        res.metric("mean_rounds", mean_rounds);
        res
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sessions_complete_and_retx_is_partial() {
        let run = collect(30);
        let completed = run.sessions.iter().filter(|s| s.completed).count();
        assert!(
            completed * 10 >= run.sessions.len() * 9,
            "{completed}/30 completed"
        );
        // Transfers must be correct.
        for (i, s) in run.sessions.iter().enumerate() {
            if s.completed {
                let mut r = StdRng::seed_from_u64(i as u64);
                let expect: Vec<u8> = (0..run.packet_bytes).map(|_| r.gen()).collect();
                assert_eq!(s.final_payload, expect, "session {i} delivered wrong bytes");
            }
        }
        // Retransmissions happen (bursty link) and are typically partial.
        assert!(!run.retx_sizes.is_empty());
        let cdf = Cdf::from_samples(run.retx_sizes.iter().map(|&s| s as f64).collect());
        assert!(
            cdf.median() < run.packet_bytes as f64,
            "median retx {} not partial",
            cdf.median()
        );
    }

    /// A link that keeps its buffers over frames of falling length hears
    /// what one with fresh buffers for every frame hears.
    #[test]
    fn reused_scratch_matches_fresh_buffers() {
        let mut reused = RadioLinkChannel::marginal(7);
        let mut fresh = RadioLinkChannel::marginal(7);
        for len in [600usize, 254, 250, 61, 7, 1, 0] {
            let bytes: Vec<u8> = (0..len).map(|i| (i * 37 + 5) as u8).collect();
            fresh.scratch = LinkScratch::default();
            assert_eq!(reused.forward(&bytes), fresh.forward(&bytes), "{len} B");
            fresh.scratch = LinkScratch::default();
            assert_eq!(reused.reverse(&bytes), fresh.reverse(&bytes), "{len} B");
        }
    }
}
