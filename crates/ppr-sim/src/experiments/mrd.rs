//! Extension (§8.4): SoftPHY-based multi-radio diversity combining.
//!
//! The paper argues PPR's hints enable the simple block-based combining
//! of Miu et al.'s MRD — multiple access points hear the same
//! transmission and merge their copies — *without* PHY-specific soft
//! information: per codeword, just keep the copy whose SoftPHY hint is
//! smallest (the monotonicity contract makes this PHY-independent).
//!
//! This experiment runs the standard testbed and, for every
//! transmission, combines the four receivers' decoded symbol streams by
//! minimum hint, then compares delivered-correct bytes against the best
//! single receiver.
//!
//! It keeps its own reception loop instead of reading the shared
//! (13.8 kbit/s, carrier sense off) trace ([`super::traces`]) that
//! `fig10` and `table2` read. Its frames are broadcast-addressed
//! (`dst 0xFFFF`) and carry the bare payload, so their header chips
//! differ from those of the trace's per-receiver frames, and so does
//! their length — and with it every interference profile, chip-error
//! draw and busy/idle verdict. It also needs every receiver's decoded
//! symbol stream of one transmission side by side, which a fold over
//! per-arm counters does not keep.

use super::common::CapacityRun;
use super::Experiment;
use crate::network::{heard_lists, payload_pattern_into, reception_rng_seed, SQUELCH_SNR};
use crate::results::ExperimentResult;
use crate::rxpath::FastRx;
use crate::scenario::Scenario;
use ppr_channel::chip_channel::{corrupt_chip_words_in_place, ErrorProfile};
use ppr_channel::overlap::{interference_profile_into, overlap_window, ProfileScratch};
use ppr_mac::frame::Frame;
use ppr_mac::rx::RxCapture;
use ppr_mac::schemes::ReceivedBody;
use ppr_phy::chips::ChipWords;
use ppr_phy::softphy::SoftSymbol;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Result of the combining experiment.
#[derive(Debug, Clone, Default)]
pub struct MrdResult {
    /// Transmissions evaluated (heard by ≥ 2 receivers).
    pub transmissions: usize,
    /// Correct payload bytes delivered by the best single receiver,
    /// summed over transmissions.
    pub best_single: usize,
    /// Correct payload bytes delivered by min-hint combining.
    pub combined: usize,
    /// Transmissions where combining recovered a packet (full payload)
    /// that no single receiver recovered.
    pub rescued_packets: usize,
}

/// Runs the combining experiment at high load (collisions corrupt
/// different spans at different receivers, which is where diversity
/// pays).
pub fn collect(scenario: &Scenario) -> MrdResult {
    let eta = scenario.eta;
    let run = CapacityRun::from_scenario(scenario, 13.8, false);
    let env = &run.env;
    let cfg = &run.cfg;
    let noise = env.model.noise_mw();
    let scheme = scenario.ppr_scheme();
    let fast = FastRx::new(true);
    let payload_len = scheme.payload_len(cfg.body_bytes);

    let heard = heard_lists(env, &run.timeline);
    let max_len = run
        .timeline
        .iter()
        .map(|tx| tx.len_chips)
        .max()
        .unwrap_or(0);
    let mut busy_until = vec![0u64; env.testbed.receivers.len()];

    // Buffers kept across transmissions: every frame is rendered once
    // into `clean` (its link bytes into `link`) and copied into `chips`
    // for each receiver that hears it, and each receiver's decode is
    // copied out of the one capture into its own combining copy.
    let mut payload = Vec::new();
    let mut frame = Frame::default();
    let mut link = Vec::new();
    let mut clean = ChipWords::default();
    let mut chips = ChipWords::default();
    let mut spans = Vec::new();
    let mut profile_scratch = ProfileScratch::default();
    let mut profile = ErrorProfile::default();
    let mut capture = RxCapture::default();
    let mut copies: Vec<Vec<SoftSymbol>> = Vec::new();
    let mut singles: Vec<usize> = Vec::new();

    let mut result = MrdResult::default();
    for (i, tx) in run.timeline.iter().enumerate() {
        payload_pattern_into(tx.sender, tx.seq, payload_len, &mut payload);
        frame.refill(0xFFFF, tx.sender as u16, tx.seq, &payload);
        frame.chip_words_into(&mut link, &mut clean);

        // Decode at every receiver that can hear this sender.
        let mut received = 0;
        singles.clear();
        for r in 0..env.testbed.receivers.len() {
            let signal = env.s2r_mw[tx.sender][r];
            if signal / noise < SQUELCH_SNR {
                continue;
            }
            let target = &heard[r][i];
            let window = overlap_window(&heard[r], target.start_chip, target.end_chip(), max_len);
            interference_profile_into(target, window, &mut profile_scratch, &mut spans);
            profile.refill_from_interference(signal, noise, &spans);
            let mut rng = StdRng::seed_from_u64(reception_rng_seed(cfg.seed, tx.id, r));
            let idle = busy_until[r] <= tx.start_chip;
            chips.clone_from(&clean);
            corrupt_chip_words_in_place(&mut chips, &profile, &mut rng);
            let (acq, rx_frame) = fast.receive_into(&frame, &chips, idle, &mut capture);
            if acq == crate::rxpath::Acquisition::Preamble {
                busy_until[r] = tx.end_chip();
            }
            if let Some(rx) = rx_frame {
                if let Some(body) = ReceivedBody::of(rx) {
                    singles.push(scheme.count_accepted(&body, &payload).1);
                    if copies.len() == received {
                        copies.push(Vec::new());
                    }
                    let (symbols, hints) = rx.link_columns();
                    let copy = &mut copies[received];
                    copy.clear();
                    copy.extend(
                        symbols
                            .iter()
                            .zip(hints)
                            .map(|(&symbol, &hint)| SoftSymbol { symbol, hint }),
                    );
                    received += 1;
                }
            }
        }
        if received < 2 {
            continue; // diversity needs at least two copies
        }
        let copies = &copies[..received];
        result.transmissions += 1;
        let best = singles.iter().copied().max().unwrap_or(0);
        result.best_single += best;

        // Min-hint combining over the link-symbol streams, evaluated
        // with the same PPR delivery rule: a byte is delivered when both
        // nibble copies pass the threshold, and counted when also
        // correct. Sent symbol `k` is a nibble of link byte `k / 2`, low
        // nibble first.
        let combined = |k: usize| copies.iter().map(|c| c[k]).min_by_key(|s| s.hint).unwrap();
        let sent = |k: usize| (link[k / 2] >> (4 * (k % 2))) & 0xF;
        let n = copies.iter().map(|c| c.len()).min().unwrap();
        let body = ppr_mac::frame::FrameGeometry::for_body(payload.len()).body();
        let s0 = body.start * 2;
        let s1 = (body.end * 2).min(n.saturating_sub(1));
        let mut delivered = 0usize;
        let mut k = s0;
        while k + 1 < s1 {
            let lo = combined(k);
            let hi_n = combined(k + 1);
            if lo.hint <= eta
                && hi_n.hint <= eta
                && lo.symbol == sent(k)
                && hi_n.symbol == sent(k + 1)
            {
                delivered += 1;
            }
            k += 2;
        }
        result.combined += delivered;
        if delivered == payload.len() && best < payload.len() {
            result.rescued_packets += 1;
        }
    }
    result
}

/// The MRD combining experiment.
pub struct Mrd;

impl Experiment for Mrd {
    fn id(&self) -> &'static str {
        "mrd"
    }

    fn title(&self) -> &'static str {
        "Extension: multi-radio diversity combining"
    }

    fn paper_ref(&self) -> &'static str {
        "Section 8.4"
    }

    fn description(&self) -> &'static str {
        "Min-hint diversity combining across receivers vs the best single radio"
    }

    fn run(&self, scenario: &Scenario) -> ExperimentResult {
        let r = collect(scenario);
        let mut res = ExperimentResult::new(self.id(), self.title(), self.paper_ref(), scenario);
        res.text(format!(
            "Extension: SoftPHY multi-radio diversity combining (8.4)\n\n\
             transmissions with >=2 copies: {}\n\
             best single receiver:  {} correct bytes\n\
             min-hint combining:    {} correct bytes ({:+.1}%)\n\
             packets only complete after combining: {}\n\n\
             Expected: combining >= best single receiver (different collisions\n\
             corrupt different spans at different receivers), with whole\n\
             packets rescued that no single radio recovered.\n",
            r.transmissions,
            r.best_single,
            r.combined,
            100.0 * (r.combined as f64 / r.best_single.max(1) as f64 - 1.0),
            r.rescued_packets,
        ));
        res.metric("transmissions", r.transmissions as f64);
        res.metric("best_single_bytes", r.best_single as f64);
        res.metric("combined_bytes", r.combined as f64);
        res.metric("rescued_packets", r.rescued_packets as f64);
        res
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn combining_never_loses_and_sometimes_rescues() {
        let sc = crate::scenario::ScenarioBuilder::new()
            .duration_s(8.0)
            .build();
        let r = collect(&sc);
        assert!(r.transmissions > 10, "too few multi-copy transmissions");
        assert!(
            r.combined as f64 >= 0.98 * r.best_single as f64,
            "combining lost bytes: {} vs {}",
            r.combined,
            r.best_single
        );
        // With collisions at high load, diversity should add something.
        assert!(
            r.combined >= r.best_single,
            "no combining gain at all: {r:?}"
        );
    }
}
