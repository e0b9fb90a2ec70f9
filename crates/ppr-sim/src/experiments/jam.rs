//! `jam`: goodput and partial delivery under a duty-cycled pulse jammer.
//!
//! A single link carries back-to-back 250 B packets on a shared chip
//! clock while a periodic pulse jammer blankets the band for a
//! duty-cycle fraction of every period. Two recovery arms run over the
//! *same* jam schedule (the pulse train is a pure function of time):
//!
//! * **PP-ARQ chunked repair** — the paper's scheme: the receiver
//!   feeds back verified-chunk boundaries and the sender retransmits
//!   only the bytes that failed.
//! * **Whole-frame ARQ** — the classic baseline: any CRC failure
//!   retransmits the entire frame.
//!
//! Both arms share one bounded-retry budget and one deterministic
//! exponential backoff ladder (the scenario's `arq_retries` /
//! `arq_backoff` axes), so the sweep isolates *what* is retransmitted,
//! not *how often*. Under jamming, every whole-frame retry re-exposes
//! all 250 B to the next pulse; PP-ARQ shrinks the exposed window each
//! round — the goodput gap the table reports.
//!
//! Each (duty, arm) cell of the sweep runs on its own channel and is a
//! pure function of its inputs, so the twelve cells are the
//! experiment's parts ([`Experiment::parts`]): a driver computes them
//! side by side into a per-process memo, and [`Jam`] renders them.

use super::Experiment;
use crate::report::fmt;
use crate::results::{ExperimentResult, TableBlock};
use crate::rxpath::{body_or_lost, FastRx, LinkScratch};
use crate::scenario::{Scenario, DEFAULT_SEED};
use ppr_channel::ber::chip_error_prob;
use ppr_channel::jamming::{clip_bursts, pulse_bursts_in, Burst};
use ppr_core::arq::{run_session_with, ArqChannel, PpArqConfig};
use ppr_core::dp::ChunkScratch;
use ppr_mac::crc::{append_crc32, verify_crc32_trailer};
use ppr_mac::{BackoffPolicy, DeliveryOutcome};
use ppr_phy::chips::CHIP_RATE_HZ;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Pulse-jammer period in chips. A 250 B frame spans several periods,
/// so every frame sees multiple bursts and partial repair has chunks
/// to save.
pub const JAM_PERIOD: u64 = 4096;

/// Chip error probability inside a jamming burst: the jammer is
/// comparable to the signal, so chips are near-coin-flips.
pub const JAM_CHIP_ERROR: f64 = 0.35;

/// Radio turnaround between consecutive transmissions, chips.
pub const TURNAROUND: u64 = 512;

/// The duty cycles the sweep visits.
pub const DUTIES: [f64; 6] = [0.0, 0.1, 0.2, 0.3, 0.4, 0.5];

/// Payload size per packet, matching the paper's 250 B frames.
pub const JAM_BODY_BYTES: usize = 250;

/// A point-to-point link on an absolute chip clock with a pulse jammer
/// on the band. Time advances with every transmission and with every
/// backoff gap, so the jam schedule a frame experiences depends on
/// *when* it is sent — exactly like the mesh adversary path.
pub struct JammedLinkChannel {
    /// Pulse period, chips.
    pub period: u64,
    /// Fraction of each period jammed.
    pub duty: f64,
    /// Clean-channel chip error probability (link SINR).
    pub base_chip_error: f64,
    /// Chip clock "now" — the next transmission start. Saturates at
    /// `u64::MAX` instead of wrapping, so an absurd backoff ladder pins
    /// the clock at the end of time rather than rewinding it.
    pub now: u64,
    /// Backoff ladder applied before each retransmission round.
    pub policy: BackoffPolicy,
    forward_count: u8,
    rng: StdRng,
    rx: FastRx,
    /// Every frame's buffers, kept across frames.
    scratch: LinkScratch,
    /// The pulses over a frame, then their spans in frame coordinates.
    bursts: Vec<Burst>,
    spans: Vec<(u64, u64)>,
    jammed_chips: u64,
    airtime_chips: u64,
}

impl JammedLinkChannel {
    /// A good (≈7 dB) link whose only trouble is the jammer.
    pub fn new(duty: f64, policy: BackoffPolicy, seed: u64) -> Self {
        JammedLinkChannel {
            period: JAM_PERIOD,
            duty,
            base_chip_error: chip_error_prob(10f64.powf(0.7)),
            now: 0,
            policy,
            forward_count: 0,
            rng: StdRng::seed_from_u64(seed),
            rx: FastRx::new(true),
            scratch: LinkScratch::default(),
            bursts: Vec::new(),
            spans: Vec::new(),
            jammed_chips: 0,
            airtime_chips: 0,
        }
    }

    /// Resets the per-session retry counter (the chip clock and the
    /// channel RNG keep running — sessions share the band).
    pub fn start_session(&mut self) {
        self.forward_count = 0;
    }

    /// Chips the jammer overlapped with transmitted frames so far.
    pub fn jammed_chips(&self) -> u64 {
        self.jammed_chips
    }

    /// Chips spent transmitting (both directions), excluding gaps.
    pub fn airtime_chips(&self) -> u64 {
        self.airtime_chips
    }

    /// Sends `bytes` as one frame at `self.now`, advancing the clock.
    /// The pulse train is periodic, so the frame's jam spans are taken at
    /// its phase within the period — the same spans for any clock,
    /// including a saturated one.
    fn transmit(&mut self, bytes: &[u8]) -> (Vec<u8>, Vec<u8>) {
        let (total, profile) = self.scratch.build(1, 2, 0, bytes);
        let from = self.now.checked_rem(self.period).unwrap_or(0);
        pulse_bursts_in(self.period, self.duty, from, from + total, &mut self.bursts);
        clip_bursts(&self.bursts, from, from + total, &mut self.spans);
        self.jammed_chips += self.spans.iter().map(|&(s, e)| e - s).sum::<u64>();
        profile.refill_with_bursts(total, self.base_chip_error, &self.spans, JAM_CHIP_ERROR);
        let (_acq, rx) = self.scratch.send(&self.rx, &mut self.rng, true);
        let received = body_or_lost(rx, bytes.len());
        self.now = self.now.saturating_add(total + TURNAROUND);
        self.airtime_chips += total;
        received
    }
}

impl ArqChannel for JammedLinkChannel {
    fn forward(&mut self, bytes: &[u8]) -> (Vec<u8>, Vec<u8>) {
        // Rounds after the first wait out the deterministic backoff
        // ladder first — during which the jammer keeps pulsing.
        if self.forward_count > 0 {
            self.now = self
                .now
                .saturating_add(self.policy.delay(self.forward_count - 1));
        }
        self.forward_count = self.forward_count.saturating_add(1);
        self.transmit(bytes)
    }

    fn reverse(&mut self, bytes: &[u8]) -> (Vec<u8>, Vec<u8>) {
        // Feedback rides the same jammed band: a pulse can wipe out a
        // feedback packet, costing PP-ARQ a round (the sender's
        // timeout path in `run_session_with`).
        self.transmit(bytes)
    }
}

/// Aggregate outcome of one arm at one duty cycle.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ArmStats {
    /// Sessions attempted.
    pub sessions: usize,
    /// Sessions fully delivered within the retry budget.
    pub completed: usize,
    /// Sessions that degraded to a partial delivery.
    pub partial: usize,
    /// Sessions that delivered nothing.
    pub failed: usize,
    /// Verified payload bytes across all sessions.
    pub delivered_bytes: usize,
    /// Payload bytes offered across all sessions.
    pub offered_bytes: usize,
    /// Payload-or-repair bytes the sender put on the air.
    pub sent_bytes: usize,
    /// Chip-clock time consumed (transmissions + turnaround + backoff).
    pub elapsed_chips: u64,
    /// Retry rounds summed over all sessions.
    pub rounds: usize,
}

impl ArmStats {
    fn absorb(&mut self, outcome: &DeliveryOutcome, total: usize, sent: usize) {
        self.sessions += 1;
        self.offered_bytes += total;
        self.sent_bytes += sent;
        self.rounds += outcome.rounds() as usize;
        match *outcome {
            DeliveryOutcome::Complete { .. } => {
                self.completed += 1;
                self.delivered_bytes += total;
            }
            DeliveryOutcome::Partial {
                delivered_bytes, ..
            } => {
                self.partial += 1;
                self.delivered_bytes += delivered_bytes;
            }
            DeliveryOutcome::Failed { .. } => self.failed += 1,
        }
    }

    /// Verified payload bits per second of chip-clock time.
    pub fn goodput_kbps(&self) -> f64 {
        let secs = self.elapsed_chips as f64 / CHIP_RATE_HZ as f64;
        if secs <= 0.0 {
            return 0.0;
        }
        self.delivered_bytes as f64 * 8.0 / secs / 1e3
    }

    /// Mean delivered fraction over all sessions.
    pub fn delivered_fraction(&self) -> f64 {
        self.delivered_bytes as f64 / self.offered_bytes.max(1) as f64
    }

    /// Sender bytes per offered byte — the repair overhead.
    pub fn overhead(&self) -> f64 {
        self.sent_bytes as f64 / self.offered_bytes.max(1) as f64
    }
}

/// The session payload: deterministic pseudorandom bytes per index.
fn session_payload(seed: u64, i: usize) -> Vec<u8> {
    let mut r = StdRng::seed_from_u64(seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    (0..JAM_BODY_BYTES).map(|_| r.gen()).collect()
}

/// Runs `n_packets` PP-ARQ sessions at one duty cycle.
pub fn run_pparq_arm(duty: f64, n_packets: usize, seed: u64, policy: BackoffPolicy) -> ArmStats {
    let mut channel = JammedLinkChannel::new(duty, policy, seed);
    let mut scratch = ChunkScratch::new();
    let config = PpArqConfig {
        max_rounds: policy.max_retries as usize,
        ..PpArqConfig::default()
    };
    let mut stats = ArmStats::default();
    for i in 0..n_packets {
        let payload = session_payload(seed, i);
        channel.start_session();
        let s = run_session_with(&payload, config, &mut channel, &mut scratch);
        // Verified bytes only: count positions the receiver got right.
        let delivered = if s.completed {
            payload.len()
        } else {
            s.final_payload
                .iter()
                .zip(&payload)
                .filter(|(a, b)| a == b)
                .count()
        };
        let outcome = DeliveryOutcome::classify(
            s.completed,
            s.rounds.min(u8::MAX as usize) as u8,
            delivered,
            payload.len(),
        );
        stats.absorb(&outcome, payload.len(), s.sender_bytes());
    }
    stats.elapsed_chips = channel.now;
    stats
}

/// Runs `n_packets` whole-frame ARQ sessions at one duty cycle: any
/// CRC failure retransmits the entire 250 B payload, on the same
/// backoff ladder. No partial credit — a frame either verifies or
/// delivers nothing, which is exactly the baseline's failure mode.
pub fn run_whole_frame_arm(
    duty: f64,
    n_packets: usize,
    seed: u64,
    policy: BackoffPolicy,
) -> ArmStats {
    let mut channel = JammedLinkChannel::new(duty, policy, seed);
    let mut stats = ArmStats::default();
    for i in 0..n_packets {
        let payload = session_payload(seed, i);
        let mut tx = payload.clone();
        append_crc32(&mut tx);
        channel.start_session();
        let mut sent = 0usize;
        let mut outcome = DeliveryOutcome::classify(false, policy.max_retries, 0, payload.len());
        for round in 0..=policy.max_retries {
            let (rx, _hints) = channel.forward(&tx);
            sent += tx.len();
            if rx.len() == tx.len() && verify_crc32_trailer(&rx) {
                outcome = DeliveryOutcome::classify(true, round, payload.len(), payload.len());
                break;
            }
        }
        stats.absorb(&outcome, payload.len(), sent);
    }
    stats.elapsed_chips = channel.now;
    stats
}

/// One duty-cycle point of the sweep: both arms over the same jammer.
pub fn run_duty_point(
    duty: f64,
    n_packets: usize,
    seed: u64,
    policy: BackoffPolicy,
) -> (ArmStats, ArmStats) {
    (
        run_pparq_arm(duty, n_packets, seed, policy),
        run_whole_frame_arm(duty, n_packets, seed, policy),
    )
}

/// The recovery arm of one sweep cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Arm {
    PpArq,
    WholeFrame,
}

/// One (duty, arm) cell of the sweep, with every input its stats
/// depend on: two cells with equal keys have equal stats.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Cell {
    duty: f64,
    arm: Arm,
    n_packets: usize,
    seed: u64,
    policy: BackoffPolicy,
}

impl Cell {
    /// Runs the cell's sessions, bypassing the memo.
    fn run(&self) -> ArmStats {
        match self.arm {
            Arm::PpArq => run_pparq_arm(self.duty, self.n_packets, self.seed, self.policy),
            Arm::WholeFrame => {
                run_whole_frame_arm(self.duty, self.n_packets, self.seed, self.policy)
            }
        }
    }
}

/// The sweep's cells under `scenario`, duty by duty, PP-ARQ before
/// whole-frame at each: [`Experiment::run_part`]'s numbering.
fn cells(scenario: &Scenario) -> Vec<Cell> {
    // One third of the fig16 session budget per cell: the sweep runs
    // 12 (duty, arm) cells.
    let n_packets = (scenario.arq_packets / 3).max(5);
    let seed = 0x004A_414D ^ scenario.seed ^ DEFAULT_SEED;
    let policy = BackoffPolicy {
        max_retries: scenario.arq_retries,
        base_delay: 2 * JAM_PERIOD,
        multiplier_milli: (scenario.arq_backoff * 1000.0).round() as u64,
        jitter_span: 0,
    };
    DUTIES
        .iter()
        .flat_map(|&duty| {
            [Arm::PpArq, Arm::WholeFrame].map(|arm| Cell {
                duty,
                arm,
                n_packets,
                seed,
                policy,
            })
        })
        .collect()
}

/// Every cell evaluated in this process. A cell is a pure function of
/// its key, so whichever thread computes it first, every reader gets
/// the same stats.
static CELLS: Mutex<Vec<(Cell, ArmStats)>> = Mutex::new(Vec::new());

/// The cell memo. A poisoned lock is recovered: every update is one
/// push of a finished cell, so the list is valid at every step.
fn memo() -> MutexGuard<'static, Vec<(Cell, ArmStats)>> {
    CELLS.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The stats of `cell`: from the memo, or computed (outside the lock,
/// so other cells proceed meanwhile) and memoised on a miss.
fn cell_stats(cell: &Cell) -> ArmStats {
    if let Some(&(_, stats)) = memo().iter().find(|(c, _)| c == cell) {
        return stats;
    }
    let stats = cell.run();
    let mut memo = memo();
    if !memo.iter().any(|(c, _)| c == cell) {
        memo.push((*cell, stats));
    }
    stats
}

/// The `jam` experiment: duty-cycle sweep of PP-ARQ chunked repair vs
/// whole-frame ARQ under a pulse jammer.
pub struct Jam;

impl Jam {
    /// The report, reading each cell's stats through `stats`.
    fn render(&self, scenario: &Scenario, stats: impl Fn(&Cell) -> ArmStats) -> ExperimentResult {
        let cells = cells(scenario);
        let (n_packets, policy) = (cells[0].n_packets, cells[0].policy);

        let mut res = ExperimentResult::new(self.id(), self.title(), self.paper_ref(), scenario);
        res.text(format!(
            "Pulse jammer sweep: period {JAM_PERIOD} chips, {} sessions of {} B per cell,\n\
             retry budget {} rounds, backoff x{:.2}\n\n",
            n_packets, JAM_BODY_BYTES, policy.max_retries, scenario.arq_backoff,
        ));
        let mut t = TableBlock::new(&[
            "duty",
            "pparq kbps",
            "whole kbps",
            "pparq dlvd",
            "whole dlvd",
            "pparq overhead",
            "whole overhead",
            "exhausted p/w",
        ]);
        let mut wins = 0usize;
        for pair in cells.chunks(2) {
            let duty = pair[0].duty;
            let (pp, wf) = (stats(&pair[0]), stats(&pair[1]));
            if pp.goodput_kbps() > wf.goodput_kbps() {
                wins += 1;
            }
            t.row(vec![
                format!("{duty:.1}").into(),
                pp.goodput_kbps().into(),
                wf.goodput_kbps().into(),
                pp.delivered_fraction().into(),
                wf.delivered_fraction().into(),
                pp.overhead().into(),
                wf.overhead().into(),
                format!("{}/{}", pp.partial + pp.failed, wf.partial + wf.failed).into(),
            ]);
            let pct = (duty * 100.0).round() as u32;
            res.metric(format!("pparq_goodput_kbps_d{pct}"), pp.goodput_kbps());
            res.metric(format!("whole_goodput_kbps_d{pct}"), wf.goodput_kbps());
            res.metric(
                format!("pparq_delivered_frac_d{pct}"),
                pp.delivered_fraction(),
            );
            res.metric(
                format!("whole_delivered_frac_d{pct}"),
                wf.delivered_fraction(),
            );
            res.metric(
                format!("pparq_exhausted_d{pct}"),
                (pp.partial + pp.failed) as f64,
            );
        }
        res.table(t);
        res.text(format!(
            "\nPP-ARQ outgoes whole-frame ARQ at {wins} of {} duty points\n\
             (chunked repair re-exposes only unverified bytes to the next pulse;\n\
             whole-frame retries re-expose all {} B every round).\n",
            DUTIES.len(),
            JAM_BODY_BYTES,
        ));
        res.metric("pparq_win_points", wins as f64);
        res.metric("duty_points", DUTIES.len() as f64);
        res.metric("sessions_per_cell", n_packets as f64);
        res.metric("retry_budget", policy.max_retries as f64);
        res.text(format!(
            "sessions/cell {}  win points {}\n",
            fmt(n_packets as f64),
            wins
        ));
        res
    }
}

impl Experiment for Jam {
    fn id(&self) -> &'static str {
        "jam"
    }

    fn title(&self) -> &'static str {
        "Adversarial jamming: PP-ARQ vs whole-frame ARQ goodput"
    }

    fn paper_ref(&self) -> &'static str {
        "Section 8.4 (robustness extension)"
    }

    fn description(&self) -> &'static str {
        "goodput + partial delivery vs pulse-jammer duty cycle, chunked repair vs whole-frame ARQ"
    }

    fn run(&self, scenario: &Scenario) -> ExperimentResult {
        self.render(scenario, cell_stats)
    }

    /// Each (duty, arm) cell is independent of the others.
    fn parts(&self, scenario: &Scenario) -> usize {
        cells(scenario).len()
    }

    fn run_part(&self, scenario: &Scenario, part: usize) {
        cell_stats(&cells(scenario)[part]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::ScenarioBuilder;

    fn policy() -> BackoffPolicy {
        BackoffPolicy {
            max_retries: 3,
            base_delay: 2 * JAM_PERIOD,
            multiplier_milli: 1000,
            jitter_span: 0,
        }
    }

    #[test]
    fn clean_band_completes_both_arms() {
        let (pp, wf) = run_duty_point(0.0, 10, 7, policy());
        assert_eq!(pp.completed, 10, "{pp:?}");
        assert_eq!(wf.completed, 10, "{wf:?}");
        assert_eq!(pp.delivered_fraction(), 1.0);
        assert_eq!(wf.delivered_fraction(), 1.0);
    }

    #[test]
    fn chunked_repair_beats_whole_frame_under_jamming() {
        // The experiment's headline claim, at one mid-sweep duty.
        let (pp, wf) = run_duty_point(0.3, 20, 7, policy());
        assert!(
            pp.goodput_kbps() > wf.goodput_kbps(),
            "pparq {} <= whole {}",
            pp.goodput_kbps(),
            wf.goodput_kbps()
        );
        // And it degrades gracefully rather than binarily.
        assert!(pp.delivered_fraction() >= wf.delivered_fraction());
    }

    #[test]
    fn rounds_never_exceed_the_budget() {
        let p = policy();
        let (pp, wf) = run_duty_point(0.5, 10, 3, p);
        assert!(pp.rounds <= 10 * p.max_retries as usize);
        assert!(wf.rounds <= 10 * p.max_retries as usize);
    }

    #[test]
    fn saturating_backoff_pins_the_clock_instead_of_wrapping() {
        // A `u64::MAX` multiplier (`arq_backoff=1e30`) makes every later
        // retry wait ~1.8e16 chips: 4 sessions × 255 retries pass u64::MAX.
        let p = BackoffPolicy {
            max_retries: u8::MAX,
            multiplier_milli: u64::MAX,
            ..policy()
        };
        let (pp, wf) = run_duty_point(0.5, 4, 7, p);
        let airtime =
            ppr_mac::frame::Frame::new(1, 2, 0, vec![0; JAM_BODY_BYTES + 4]).chips_len() as u64;
        assert_eq!(wf.elapsed_chips, u64::MAX, "{wf:?}");
        assert!(pp.elapsed_chips >= 4 * airtime, "{pp:?}");
        // The jammer keeps pulsing at the end of time.
        assert_eq!(wf.completed, 0, "{wf:?}");
    }

    /// `jam` at a scenario no other test uses (its own seed), so this
    /// test alone fills the memo's cells of it.
    fn scenario(seed: u64) -> Scenario {
        ScenarioBuilder::new()
            .seed(seed)
            .arq_packets(15)
            .duration_s(1.0)
            .build()
    }

    fn json(r: &ExperimentResult) -> String {
        r.to_json().render()
    }

    #[test]
    fn the_memo_never_changes_the_report() {
        // Pre-filled in reverse order, or only every third cell: `run`
        // computes what is missing and renders the cold run's report.
        for (seed, stride) in [(0x4A41_0001, 1), (0x4A41_0002, 3)] {
            let sc = scenario(seed);
            let cold = json(&Jam.render(&sc, Cell::run));
            for k in (0..Jam.parts(&sc)).rev().step_by(stride) {
                Jam.run_part(&sc, k);
            }
            assert_eq!(json(&Jam.run(&sc)), cold, "stride {stride}");
            assert_eq!(json(&Jam.run(&sc)), cold, "stride {stride}, warm");
        }
    }

    #[test]
    fn every_backoff_policy_field_keys_the_memo() {
        // Two scenarios that differ in one policy input each get their
        // own cells in one process: the second run must not read the
        // first one's.
        let base = || {
            ScenarioBuilder::new()
                .seed(0x4A41_0003)
                .arq_packets(15)
                .duration_s(1.0)
        };
        let pairs = [
            (
                base().arq_backoff(1.0).build(),
                base().arq_backoff(2.0).build(),
            ),
            (base().arq_retries(3).build(), base().arq_retries(1).build()),
        ];
        for (a, b) in pairs {
            let (cold_a, cold_b) = (
                json(&Jam.render(&a, Cell::run)),
                json(&Jam.render(&b, Cell::run)),
            );
            assert_ne!(cold_a, cold_b, "the axis must change the sweep");
            assert_eq!(json(&Jam.run(&a)), cold_a);
            assert_eq!(json(&Jam.run(&b)), cold_b);
        }
    }

    #[test]
    fn sweep_is_deterministic() {
        let a = run_duty_point(0.2, 8, 11, policy());
        let b = run_duty_point(0.2, 8, 11, policy());
        assert_eq!(a, b);
    }

    /// A channel that keeps its buffers over frames of falling length
    /// hears what one with fresh buffers for every frame hears.
    #[test]
    fn reused_scratch_matches_fresh_buffers() {
        let mut reused = JammedLinkChannel::new(0.3, policy(), 11);
        let mut fresh = JammedLinkChannel::new(0.3, policy(), 11);
        for len in [600usize, 254, 250, 61, 7, 1, 0] {
            let bytes: Vec<u8> = (0..len).map(|i| (i * 37 + 5) as u8).collect();
            fresh.scratch = LinkScratch::default();
            assert_eq!(reused.forward(&bytes), fresh.forward(&bytes), "{len} B");
            fresh.scratch = LinkScratch::default();
            assert_eq!(reused.reverse(&bytes), fresh.reverse(&bytes), "{len} B");
        }
        assert_eq!(reused.jammed_chips(), fresh.jammed_chips());
    }
}
