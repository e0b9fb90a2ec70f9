//! Figure 13: anatomy of a collision — the full-DSP path.
//!
//! Three transmissions land at one receiver (the Fig. 5 scenario):
//!
//! * a short early burst that steals the receiver's attention and
//!   destroys **packet 1**'s preamble;
//! * **packet 1** (long, unit power);
//! * **packet 2** (short, ~8 dB stronger), arriving mid-packet-1 and
//!   ending before packet 1 does.
//!
//! The paper's narrative reproduced here: packet 2 synchronizes via its
//! preamble and decodes cleanly (low Hamming distance) despite the
//! underlying packet 1; packet 1's overlapped middle shows large Hamming
//! distances, while its clean tail decodes after packet 2 ends — and the
//! receiver frame-syncs on packet 1's **postamble**, rolling back to
//! recover the partial packet.
//!
//! Unlike the network experiments this runs the *sample-level* channel:
//! real MSK waveforms, superposition, AWGN and matched-filter
//! demodulation. (The capture is carrier-phase aligned: our MSK
//! demodulator is coherent and, as in the paper's implementation, does
//! no carrier recovery; small phase offsets are modeled, large ones
//! would need the derotation stage the paper also does not implement.)

use super::Experiment;
use crate::results::ExperimentResult;
use crate::scenario::{Scenario, DEFAULT_SEED};
use ppr_channel::sample_channel::{render, WaveformTx};
use ppr_mac::frame::Frame;
use ppr_mac::rx::{FrameReceiver, RxConfig};
use ppr_phy::modem::MskModem;
use ppr_phy::softphy::SoftSymbol;
use ppr_phy::spread::bytes_to_symbols;
use ppr_phy::sync::SyncKind;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Result for one packet in the collision.
#[derive(Debug, Clone)]
pub struct PacketTrace {
    /// Which packet (0 = earlier/weaker/long, 1 = later/stronger/short).
    pub index: usize,
    /// How the receiver synchronized (preamble or postamble), if at all.
    pub sync: Option<SyncKind>,
    /// Per-codeword Hamming distance over the link-layer section.
    pub hamming: Vec<u8>,
    /// Per-codeword correctness against the known content.
    pub correct: Vec<bool>,
    /// Symbol range of this packet overlapped by the other packet.
    pub overlap_symbols: (usize, usize),
}

/// Experiment output.
#[derive(Debug, Clone)]
pub struct CollisionAnatomy {
    /// Traces for packets 1 and 2.
    pub packets: Vec<PacketTrace>,
}

/// Packet sizes (body bytes) for the two colliding packets.
const P1_BODY: usize = 240;
const P2_BODY: usize = 100;

/// Runs the collision scenario under the historical fixed seed.
pub fn collect() -> CollisionAnatomy {
    collect_seeded(1313)
}

/// Runs the collision scenario with an explicit channel-noise seed.
pub fn collect_seeded(seed: u64) -> CollisionAnatomy {
    let sps = 4;
    let modem = MskModem::new(sps);
    let mut rng = StdRng::seed_from_u64(seed);

    let p1 = Frame::new(1, 10, 0, test_payload(P1_BODY, 0xA1));
    let p2 = Frame::new(1, 11, 0, test_payload(P2_BODY, 0xB2));
    let jammer = Frame::new(9, 12, 0, test_payload(20, 0xCC));

    let p1_chips = p1.chips();
    let p2_chips = p2.chips();
    // Packet 2 starts 35% into packet 1 and ends well before it.
    let p2_start_chip = (p1_chips.len() as f64 * 0.35) as usize;
    assert!(p2_start_chip + p2_chips.len() < p1_chips.len() - 2000);

    let txs = vec![
        WaveformTx {
            chips: p1_chips.clone(),
            start_sample: 0,
            power_mw: 1.0,
            phase: 0.0,
        },
        WaveformTx {
            chips: p2_chips.clone(),
            start_sample: p2_start_chip * sps,
            power_mw: 6.0, // ~8 dB above packet 1
            phase: 0.15,
        },
        WaveformTx {
            chips: jammer.chips(),
            start_sample: 0,
            power_mw: 1.5,
            phase: 0.25,
        },
    ];
    let duration = (p1_chips.len() + 64) * sps;
    // ~17 dB SNR for packet 1 against thermal noise alone.
    let samples = render(&modem, &txs, duration, 0.02, &mut rng);

    // Continuous chip stream → the standard sliding-sync receive
    // pipeline (no known-offset shortcuts in this experiment).
    let n_chips = samples.len() / sps;
    let chips = modem.demodulate_hard(&samples, 0, n_chips, true);
    let receiver = FrameReceiver::new(RxConfig::default());
    let frames = receiver.receive(&chips);

    // Overlap geometry in each packet's own symbol coordinates.
    let pre_len = ppr_phy::sync::TX_PREAMBLE_CHIPS;
    let p1_overlap = (
        (p2_start_chip.saturating_sub(pre_len)) / 32,
        ((p2_start_chip + p2_chips.len()).saturating_sub(pre_len)) / 32,
    );
    let p2_overlap = (0usize, p2.link_symbols()); // fully inside packet 1

    let mut packets = Vec::new();
    for (index, (frame, overlap)) in [(&p1, p1_overlap), (&p2, p2_overlap)]
        .into_iter()
        .enumerate()
    {
        let tx_symbols = bytes_to_symbols(&frame.link_bytes());
        let found = frames
            .iter()
            .find(|f| f.header.map(|h| h.src == frame.header.src).unwrap_or(false));
        let (sync, rx_symbols): (Option<SyncKind>, Vec<SoftSymbol>) = match found {
            Some(f) => (Some(f.sync), f.link_symbols()),
            None => (None, Vec::new()),
        };
        let hamming: Vec<u8> = rx_symbols.iter().map(|s| s.hint).collect();
        let correct: Vec<bool> = rx_symbols
            .iter()
            .zip(&tx_symbols)
            .map(|(a, b)| a.symbol == *b && a.hint < 33)
            .collect();
        packets.push(PacketTrace {
            index,
            sync,
            hamming,
            correct,
            overlap_symbols: overlap,
        });
    }
    CollisionAnatomy { packets }
}

fn test_payload(len: usize, tag: u8) -> Vec<u8> {
    (0..len)
        .map(|i| (i as u8).wrapping_mul(31).wrapping_add(tag))
        .collect()
}

/// The Fig. 13 experiment. Inherently sample-level DSP — the scenario's
/// `backend` knob does not apply; duration and load are likewise fixed
/// by the three-transmission scene, though the seed override flows
/// through to the channel noise.
pub struct Fig13;

impl Experiment for Fig13 {
    fn id(&self) -> &'static str {
        "fig13"
    }

    fn title(&self) -> &'static str {
        "Figure 13: collision anatomy (DSP path)"
    }

    fn paper_ref(&self) -> &'static str {
        "Figure 13"
    }

    fn description(&self) -> &'static str {
        "Per-codeword anatomy of a two-packet collision, sample-level DSP"
    }

    fn run(&self, scenario: &Scenario) -> ExperimentResult {
        // XOR with the default master seed so the historical chip
        // stream (seed 1313) is preserved under the default scenario.
        let a = collect_seeded(1313 ^ scenario.seed ^ DEFAULT_SEED);
        let mut res = ExperimentResult::new(self.id(), self.title(), self.paper_ref(), scenario);
        res.text(
            "Figure 13: partial packet reception during two concurrent\n\
             transmissions (sample-level DSP path)\n\n",
        );
        for p in &a.packets {
            res.text(format!(
                "packet {} — sync: {:?}, {} codewords, overlapped symbols {}..{}\n",
                p.index + 1,
                p.sync,
                p.hamming.len(),
                p.overlap_symbols.0,
                p.overlap_symbols.1,
            ));
            res.metric(
                format!("packet{}_codewords", p.index + 1),
                p.hamming.len() as f64,
            );
            res.metric(
                format!("packet{}_correct", p.index + 1),
                p.correct.iter().filter(|&&c| c).count() as f64,
            );
            res.metric(
                format!("packet{}_postamble_sync", p.index + 1),
                match p.sync {
                    Some(SyncKind::Postamble) => 1.0,
                    _ => 0.0,
                },
            );
            if p.hamming.is_empty() {
                continue;
            }
            let mut listing = String::from("codeword  hamming  correct\n");
            for (i, (&h, &c)) in p.hamming.iter().zip(&p.correct).enumerate() {
                if i % 4 == 0 {
                    // The paper plots every fourth codeword for clarity.
                    listing.push_str(&format!("{i:>8}  {h:>7}  {}\n", if c { "*" } else { "" }));
                }
            }
            listing.push('\n');
            res.text(listing);
        }
        res.text(
            "Shape targets: packet 2 decodes cleanly (hamming ~0) throughout\n\
             despite overlapping packet 1; packet 1 shows large hamming over\n\
             the overlap, a clean tail after packet 2 ends, and is recovered\n\
             via its POSTAMBLE.\n",
        );
        res
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn experiment_seed_derivation_preserves_historical_stream() {
        // Under the default master seed the experiment must evaluate the
        // exact historical scenario (seed 1313).
        let sc = crate::scenario::ScenarioBuilder::new()
            .duration_s(1.0)
            .build();
        assert_eq!(1313 ^ sc.seed ^ DEFAULT_SEED, 1313);
    }

    #[test]
    fn collision_anatomy_reproduces_paper_narrative() {
        let a = collect();
        assert_eq!(a.packets.len(), 2);
        let p1 = &a.packets[0];
        let p2 = &a.packets[1];

        // Packet 1: preamble jammed → recovered via postamble rollback.
        assert_eq!(p1.sync, Some(SyncKind::Postamble), "packet 1 sync");
        assert!(!p1.hamming.is_empty());

        // Packet 1's overlapped middle: almost everything decodes wrong
        // (the 8 dB-stronger collider owns the chips), and the Hamming
        // distances are elevated but scattered — the received words are
        // the *collider's* chips misaligned on packet 1's codeword grid,
        // which occasionally land near a valid codeword (the
        // cyclic-codebook "miss" phenomenon of §7.4.1).
        let (o_start, o_end) = p1.overlap_symbols;
        let lo = (o_start + 10).min(p1.hamming.len());
        let hi = (o_end - 10).min(p1.hamming.len());
        let mid_h = &p1.hamming[lo..hi];
        let mid_c = &p1.correct[lo..hi];
        let correct_mid = mid_c.iter().filter(|&&c| c).count();
        assert!(
            correct_mid * 5 < mid_c.len(),
            "overlap should be mostly wrong: {correct_mid}/{}",
            mid_c.len()
        );
        let mean_mid = mid_h.iter().map(|&h| h as f64).sum::<f64>() / mid_h.len() as f64;
        assert!(mean_mid > 3.0, "overlap mean hamming {mean_mid}");

        // …and its tail after packet 2 ends is clean.
        let tail_h = &p1.hamming[(o_end + 10).min(p1.hamming.len() - 1)..];
        let mean_tail = tail_h.iter().map(|&h| h as f64).sum::<f64>() / tail_h.len() as f64;
        assert!(mean_tail < 1.0, "tail mean hamming {mean_tail}");
        assert!(
            mean_mid > 4.0 * mean_tail,
            "overlap/tail separation too weak"
        );

        // Packet 2: stronger → preamble sync, clean decode throughout.
        assert_eq!(p2.sync, Some(SyncKind::Preamble), "packet 2 sync");
        let correct = p2.correct.iter().filter(|&&c| c).count();
        assert!(
            correct * 10 > p2.correct.len() * 9,
            "packet 2: {correct}/{} correct",
            p2.correct.len()
        );

        // Hamming distance tracks correctness: incorrect codewords carry
        // systematically larger hints than correct ones.
        for p in &a.packets {
            let mean_of = |want: bool| -> Option<f64> {
                let v: Vec<f64> = p
                    .hamming
                    .iter()
                    .zip(&p.correct)
                    .filter(|(_, &c)| c == want)
                    .map(|(&h, _)| h as f64)
                    .collect();
                if v.len() < 10 {
                    None
                } else {
                    Some(v.iter().sum::<f64>() / v.len() as f64)
                }
            };
            if let (Some(good), Some(bad)) = (mean_of(true), mean_of(false)) {
                assert!(
                    bad > good + 2.0,
                    "packet {}: incorrect mean hint {bad:.2} vs correct {good:.2}",
                    p.index + 1
                );
            }
        }
    }
}
