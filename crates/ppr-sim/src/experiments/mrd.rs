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
//! It walks the (13.8 kbit/s, carrier sense off) timeline itself rather
//! than reading the shared trace ([`super::traces`]) that `fig10` and
//! `table2` fold. Its frames are broadcast-addressed (`dst 0xFFFF`) and
//! carry the bare payload, so their header chips differ from those of
//! the trace's per-receiver frames, and so does their length — and with
//! it every interference profile, chip-error draw and busy/idle
//! verdict. It also needs every receiver's decoded symbol stream of one
//! transmission side by side, which a fold over per-arm counters does
//! not keep.
//!
//! Only transmissions that at least two receivers hear are combined.
//! One that fewer hear still matters, but only through each hearer's
//! busy horizon: an idle receiver that locks onto its preamble is busy
//! until it ends. So such a transmission is neither rendered nor
//! decoded (the *busy-only* rule). An idle hearer draws its chip errors
//! from the reception's own noise stream over the preamble window alone
//! and locks iff the preamble survives there ([`FastRx::preamble_hit`]);
//! a busy hearer cannot lock and draws nothing. This is exactly the
//! verdict a full decode reaches: [`FastRx::receive_into`] acquires by
//! preamble iff the receiver is idle and the preamble is within the
//! sync threshold; the span walker draws lanes in ascending order, so a
//! prefix draw puts the same errors on the window's lanes; and each
//! reception has its own stream, so a shorter draw shifts no other.
//!
//! Both kinds of reception go through the shared steps of
//! [`crate::rxpath`]: the hearers are the
//! [`RadioEnv::is_link`](crate::network::RadioEnv::is_link) set,
//! `HeardTimeline::around` windows each hearer's heard list, and
//! `ReceptionChannel::profile` turns it into the chip error profile.
//! A combined reception is then rendered, corrupted in place and
//! received into one kept `RxScratch` (`FastRx::transmit_into`).

use super::common::CapacityRun;
use super::Experiment;
use crate::network::{payload_pattern_into, reception_rng_seed, HeardTimeline};
use crate::results::ExperimentResult;
use crate::rxpath::{Acquisition, FastRx, ReceptionChannel, RxScratch};
use crate::scenario::Scenario;
use ppr_channel::chip_channel::{ChipErrors, ErrorProfile};
use ppr_mac::frame::Frame;
use ppr_mac::schemes::ReceivedBody;
use ppr_phy::chips::ChipWords;
use ppr_phy::softphy::SoftSymbol;
use ppr_phy::sync::TX_PREAMBLE_CHIPS;
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
    let receivers = env.testbed.receivers.len();
    let heard = HeardTimeline::new(env, &run.timeline);
    let mut busy_until = vec![0u64; receivers];

    // Buffers kept across transmissions: the channel and receive steps'
    // working memory, and each receiver's combining copy, which its
    // decode is copied into out of the one capture. A busy-only
    // reception draws into `errors` and checks its preamble in `window`.
    let mut channel = ReceptionChannel::default();
    let mut scratch = RxScratch::default();
    let mut payload = Vec::new();
    let mut frame = Frame::default();
    let mut errors = ChipErrors::default();
    let mut window = ChipWords::default();
    let mut copies: Vec<Vec<SoftSymbol>> = Vec::new();
    let mut singles: Vec<usize> = Vec::new();

    let mut result = MrdResult::default();
    for (i, tx) in run.timeline.iter().enumerate() {
        let hearers = || (0..receivers).filter(|&r| env.is_link(tx.sender, r));
        // Busy-only when the transmission can never be combined: then
        // only its hearers' preamble locks matter.
        let combine = hearers().count() >= 2;
        if combine {
            payload_pattern_into(tx.sender, tx.seq, payload_len, &mut payload);
            frame.refill(0xFFFF, tx.sender as u16, tx.seq, &payload);
        }

        // Every hearer: an idle one of a busy-only transmission checks
        // its preamble, and each one of a combined one decodes.
        let mut received = 0;
        singles.clear();
        for r in hearers() {
            let idle = busy_until[r] <= tx.start_chip;
            if !combine && !idle {
                continue;
            }
            let (target, around) = heard.around(r, i);
            let profile = channel.profile(target, around, noise);
            let mut rng = StdRng::seed_from_u64(reception_rng_seed(cfg.seed, tx.id, r));
            if !combine {
                if locks_on_preamble(&fast, profile, &mut rng, &mut errors, &mut window) {
                    busy_until[r] = tx.end_chip();
                }
                continue;
            }
            let (acq, rx_frame) = fast.transmit_into(&frame, profile, &mut rng, idle, &mut scratch);
            if acq == Acquisition::Preamble {
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
        // Every hearer rendered this frame, so the scratch holds its
        // link bytes.
        let link = scratch.link();
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

/// Whether an idle receiver locks onto the preamble of a frame that
/// crosses `profile` with noise stream `rng`: the preamble verdict of
/// [`FastRx::receive_into`], from a draw of the frame's chip errors over
/// the transmitted preamble alone, where the scan pattern ends
/// (`errors` and `window` are working memory).
fn locks_on_preamble(
    fast: &FastRx,
    profile: &ErrorProfile,
    rng: &mut StdRng,
    errors: &mut ChipErrors,
    window: &mut ChipWords,
) -> bool {
    errors.redraw(TX_PREAMBLE_CHIPS, profile, rng);
    fast.preamble_hit(errors, window)
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
    use crate::network::payload_pattern;
    use ppr_channel::chip_channel::corrupt_chip_words_in_place;
    use ppr_mac::rx::RxCapture;
    use rand::Rng;

    /// The busy-only verdict (idle, and the preamble survives a draw
    /// over the preamble alone) equals the full path's — corrupt the
    /// whole frame from the same stream, then `receive_into` acquires by
    /// preamble — over random piecewise profiles that put every regime
    /// of the draw contract on the preamble, near the sync threshold
    /// included, and over random seeds.
    #[test]
    fn busy_only_verdict_equals_full_receive() {
        let fast = FastRx::new(true);
        let frame = Frame::new(0xFFFF, 3, 9, payload_pattern(3, 9, 120));
        let clean = frame.chip_words();
        let len = clean.len() as u64;
        let (mut chips, mut capture) = (ChipWords::default(), RxCapture::default());
        let (mut errors, mut window) = (ChipErrors::default(), ChipWords::default());
        let ps = [
            0.0, 1e-6, 1e-3, 0.015, 0.05, 0.1, 0.14, 0.16, 0.2, 0.35, 0.5, 0.9,
        ];
        let mut rng = StdRng::seed_from_u64(0x3D8);
        let mut locks = [0usize; 2];
        for case in 0..3_000 {
            // Breakpoints crowd the preamble's 320 chips.
            let mut cuts = vec![0, len];
            for _ in 0..rng.gen_range(0..6) {
                cuts.push(rng.gen_range(1..400));
            }
            for _ in 0..rng.gen_range(0..3) {
                cuts.push(rng.gen_range(1..len));
            }
            cuts.sort_unstable();
            cuts.dedup();
            let pieces = cuts
                .windows(2)
                .map(|w| (w[0], w[1], ps[rng.gen_range(0..ps.len())]))
                .collect();
            let profile = ErrorProfile::from_pieces(pieces);
            let seed = rng.gen();
            for idle in [false, true] {
                chips.clone_from(&clean);
                corrupt_chip_words_in_place(&mut chips, &profile, &mut StdRng::seed_from_u64(seed));
                let full = fast.receive_into(&frame, &chips, idle, &mut capture).0
                    == Acquisition::Preamble;
                let busy_only = idle
                    && locks_on_preamble(
                        &fast,
                        &profile,
                        &mut StdRng::seed_from_u64(seed),
                        &mut errors,
                        &mut window,
                    );
                assert_eq!(busy_only, full, "case {case}, idle {idle}: {profile:?}");
                locks[usize::from(full)] += 1;
            }
        }
        // Both verdicts occur often enough to mean something.
        assert!(locks.iter().all(|&n| n > 500), "{locks:?}");
    }

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
