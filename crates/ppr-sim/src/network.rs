//! The testbed network simulator.
//!
//! Three stages, mirroring the paper's method (§7.1–7.2):
//!
//! 1. **Radio environment** ([`RadioEnv`]): the Fig. 7 floor plan plus
//!    log-distance path loss with per-link frozen shadowing gives every
//!    (sender → receiver) and (sender → sender) pair a static received
//!    power.
//! 2. **Timeline generation** ([`generate_timeline`]): every sender
//!    offers Poisson packet traffic at the configured load; carrier
//!    sense (when enabled) defers transmissions that would start while
//!    an audible transmission is on the air.
//! 3. **Reception processing** ([`process_receptions`]): every
//!    transmission is evaluated at every receiver that can plausibly
//!    hear it — concurrent transmissions become interference spans, chip
//!    errors are drawn, and the frame goes through delimiter checks and
//!    the `ppr-mac` decode pipeline under a chosen delivery scheme and
//!    postamble arm.
//!
//! Chip corruption for a given (transmission, receiver) pair is seeded by
//! `(seed, tx id, receiver)`, so different schemes and postamble arms see
//! *identical* channel noise — the paper's "same trace, post-processed"
//! methodology. [`ReceptionDriver`] takes that literally: one pass over
//! a trace evaluates any number of arms, drawing each pair's chip errors
//! once ([`ChipErrors`]) and folding each arm's receptions into its
//! [`ArmFold`] as they decode ([`fold_receptions`]).
//!
//! Only the timeline generator runs over the discrete-event core
//! ([`crate::event`]): its CSMA attempts react to what is on the air.
//! Nothing a receiver decodes feeds back into the trace, so
//! [`ReceptionDriver`] is a plain walk over the sorted timeline, and its
//! checkpoint is a timeline prefix.
//!
//! ## Why the driver agrees with the spec
//!
//! [`process_receptions_reference`] is the executable specification: a
//! sequential receiver-major walk over `&[bool]` chip vectors, with no
//! packed words. The driver visits the same receptions
//! transmission-major instead, on the calling thread (parallelism lives
//! one level up, in `ppr-cli`'s experiment pool), and still produces the
//! spec's stream, because:
//!
//! 1. every reception draws its channel noise from its own RNG stream
//!    seeded by `(seed, tx id, receiver)` — no RNG is shared between
//!    receptions — and its interference from the whole precomputed
//!    timeline;
//! 2. the only cross-reception state — a receiver's busy/idle window —
//!    depends solely on earlier preamble hits at that receiver, folded
//!    in timeline order, which is the spec's order per receiver;
//! 3. outputs are collected in (receiver, timeline-order) slots, or
//!    folded into order-independent counts.
//!
//! A multi-arm pass adds two facts. The chip errors of a pair do not
//! depend on the arm, because every arm's frame has the same length
//! and the sampler never reads chip values; and the busy/idle fold does
//! not either, because it reads only the preamble, which every frame
//! shares. Arms whose schemes send the same body send the same frame,
//! so one decode of it serves all of them: what differs is only each
//! scheme's acceptance rule, and — when the preamble did not acquire
//! the frame — whether the arm decodes postambles at all.
//!
//! `tests/packed_parity.rs` pins the equality on whole runs, arm by arm
//! for multi-arm passes, and the differential harness ([`crate::diff`])
//! on resumed checkpoints.

use crate::event::{prio, priority, BinaryHeapQueue, EventQueue, SimEvent};
use crate::geometry::Testbed;
use crate::metrics::{HintHistogram, MissRunHistogram, MAX_MISS_RUN, MISS_RUN_ETAS};
use crate::rxpath::{Acquisition, FastRx};
use crate::snapshot::{env_fingerprint, timeline_fingerprint, RxSnapshot, SnapError};
use crate::traffic::{secs_to_chips, PoissonArrivals};
use ppr_channel::chip_channel::{corrupt_chips, ChipErrors, ErrorProfile};
use ppr_channel::overlap::{interference_profile, overlap_window, HeardTx};
use ppr_channel::pathloss::PathLossModel;
use ppr_mac::frame::Frame;
use ppr_mac::schemes::{correct_delivered_bytes, DeliveryScheme, ReceivedBody};
use ppr_phy::spread::bytes_to_symbols;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::borrow::Cow;
use std::collections::BTreeMap;

/// Simulation parameters for one run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimConfig {
    /// Offered load per sender, kbit/s (paper: 3.5, 6.9, 13.8).
    pub load_kbps: f64,
    /// Fixed over-the-air body size, bytes (paper: 1500 for capacity
    /// experiments, 250 for PP-ARQ).
    pub body_bytes: usize,
    /// Carrier sense before transmitting (Fig. 8 on, Figs. 9–12 off).
    pub carrier_sense: bool,
    /// Simulated duration, seconds.
    pub duration_s: f64,
    /// Master seed; all randomness derives from it.
    pub seed: u64,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            load_kbps: 3.5,
            body_bytes: 1500,
            carrier_sense: false,
            duration_s: 60.0,
            seed: 0x50_50_52, // "PPR"
        }
    }
}

/// The static radio environment: node positions and frozen link gains.
#[derive(Debug, Clone)]
pub struct RadioEnv {
    /// The floor plan.
    pub testbed: Testbed,
    /// The propagation model.
    pub model: PathLossModel,
    /// Received power at receiver `r` from sender `s`: `s2r_mw[s][r]`.
    pub s2r_mw: Vec<Vec<f64>>,
    /// Received power at sender `b` from sender `a`: `s2s_mw[a][b]`
    /// (symmetric; used for carrier sensing).
    pub s2s_mw: Vec<Vec<f64>>,
}

/// Indoor model tuned so the testbed reproduces the paper's link-quality
/// mix: most audible links comfortably above the noise floor (the
/// paper's errors are "mostly due to collisions", §3.2, so thermal chip
/// errors must be rare on typical links) with a thin shadowed tail of
/// marginal ones.
pub fn office_model() -> PathLossModel {
    PathLossModel {
        tx_power_dbm: 0.0,
        pl0_db: 47.0,
        exponent: 3.2,
        shadow_sigma_db: 8.0,
        noise_floor_dbm: -101.0,
    }
}

/// Attenuation per interior wall crossed, dB. With the 3 × 3 room grid
/// this is what limits each sink to hearing the paper's "between 4 and
/// 8 sender nodes" instead of the entire floor.
pub const WALL_LOSS_DB: f64 = 16.0;

/// Receiver sensitivity squelch: below this clean-channel SNR (linear)
/// the radio does not attempt acquisition at all (CC2420-style
/// sensitivity floor, ≈ 4 dB chip SNR). Links below it are "inaudible";
/// links above it fail predominantly because of *collisions*, matching
/// the paper's observation that "our bit errors were mostly due to
/// collisions" (§3.2).
pub const SQUELCH_SNR: f64 = 2.5;

impl RadioEnv {
    /// Builds the Fig. 7 environment with shadowing frozen from `seed`.
    pub fn new(seed: u64) -> Self {
        Self::with_testbed(seed, Testbed::fig7())
    }

    /// Builds the environment over an explicit floor plan ([`Testbed`]
    /// constructor = the scenario `topology` axis). Wall attenuation
    /// applies only when the testbed says so; the shadowing draw order
    /// is identical either way, so `fig7` gains are unchanged from the
    /// historical single-topology constructor.
    pub fn with_testbed(seed: u64, testbed: Testbed) -> Self {
        let model = office_model();
        let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9).wrapping_add(1));
        let ns = testbed.senders.len();
        let nr = testbed.receivers.len();
        let walls_of = |a: &crate::geometry::Point, b: &crate::geometry::Point| -> usize {
            if testbed.wall_attenuation {
                Testbed::walls_between(a, b)
            } else {
                0
            }
        };
        let mut s2r_mw = vec![vec![0.0; nr]; ns];
        for (s, row) in s2r_mw.iter_mut().enumerate() {
            for (r, p) in row.iter_mut().enumerate() {
                let d = testbed.sender_receiver_distance(s, r);
                let walls = walls_of(&testbed.senders[s], &testbed.receivers[r]);
                let shadow = model.draw_shadowing_db(&mut rng) + walls as f64 * WALL_LOSS_DB;
                *p = model.rx_power_mw(d, shadow);
            }
        }
        let mut s2s_mw = vec![vec![0.0; ns]; ns];
        #[allow(clippy::needless_range_loop)] // symmetric fill needs both indices
        for a in 0..ns {
            for b in (a + 1)..ns {
                let d = testbed.sender_sender_distance(a, b);
                let walls = walls_of(&testbed.senders[a], &testbed.senders[b]);
                let shadow = model.draw_shadowing_db(&mut rng) + walls as f64 * WALL_LOSS_DB;
                let p = model.rx_power_mw(d, shadow);
                s2s_mw[a][b] = p;
                s2s_mw[b][a] = p;
            }
        }
        RadioEnv {
            testbed,
            model,
            s2r_mw,
            s2s_mw,
        }
    }

    /// Clean-channel SNR (linear) of link `s → r`.
    pub fn link_snr(&self, s: usize, r: usize) -> f64 {
        self.s2r_mw[s][r] / self.model.noise_mw()
    }

    /// Is `s → r` a usable link (clean-channel SNR above the receiver
    /// squelch)? This is the link set the per-link CDFs report,
    /// mirroring "each sink had between 4 and 8 sender nodes that it
    /// could hear".
    pub fn is_link(&self, s: usize, r: usize) -> bool {
        self.link_snr(s, r) >= SQUELCH_SNR
    }

    /// All usable links as (sender, receiver) pairs.
    pub fn links(&self) -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        for s in 0..self.testbed.senders.len() {
            for r in 0..self.testbed.receivers.len() {
                if self.is_link(s, r) {
                    out.push((s, r));
                }
            }
        }
        out
    }
}

/// One scheduled transmission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Transmission {
    /// Unique id (also the corruption-seed component).
    pub id: u64,
    /// Sender index.
    pub sender: usize,
    /// Link-layer sequence number (per sender).
    pub seq: u16,
    /// Start time on the chip clock.
    pub start_chip: u64,
    /// Frame length, chips.
    pub len_chips: u64,
}

impl Transmission {
    /// Exclusive end time.
    pub fn end_chip(&self) -> u64 {
        self.start_chip + self.len_chips
    }
}

/// CC2420-style CSMA backoff: 1–8 slots of 320 µs.
fn csma_backoff_chips<R: Rng>(rng: &mut R) -> u64 {
    let slots = rng.gen_range(1..=8u64);
    slots * 640 // 320 µs × 2 Mchip/s
}

/// Carrier-sense threshold: −77 dBm (CC2420 CCA).
fn cca_threshold_mw() -> f64 {
    10f64.powf(-77.0 / 10.0)
}

/// Generates the transmission timeline for one run.
///
/// Each sender holds a FIFO of arrived-but-unsent packets. An arrival
/// enqueues a packet (and, if the queue was idle, schedules a send
/// attempt); an attempt either transmits the head packet — when the
/// radio is free and carrier sense (if enabled) reads idle — or
/// reschedules itself after a CSMA backoff. Exactly one transmission is
/// produced per arrival inside the horizon (queues drain in order; no
/// packet is duplicated or dropped).
///
/// Runs over the discrete-event core: arrivals and attempts are
/// [`SimEvent`]s in a [`BinaryHeapQueue`], with the priority word
/// encoding `(class, sender)` — at equal times arrivals pop before
/// attempts, and lower senders first. The generator shares one RNG
/// across senders, so pop *order* is bit-visible in the output; the
/// registry's golden fingerprints pin it.
pub fn generate_timeline(env: &RadioEnv, cfg: &SimConfig) -> Vec<Transmission> {
    let ns = env.testbed.senders.len();
    let frame_chips = Frame::chips_len_for_body(cfg.body_bytes) as u64;
    let horizon = secs_to_chips(cfg.duration_s);
    let mut rng = StdRng::seed_from_u64(cfg.seed.wrapping_mul(0xA24B_AED4).wrapping_add(7));

    // Payload rate excludes frame overhead: offered load counts payload
    // bytes, as the paper's per-node rates do.
    let mut arrivals: Vec<PoissonArrivals> = (0..ns)
        .map(|_| PoissonArrivals::new(cfg.load_kbps, cfg.body_bytes, &mut rng))
        .collect();
    let mut backlog = vec![0u32; ns];
    let mut attempt_scheduled = vec![false; ns];
    let mut next_free = vec![0u64; ns];
    let mut seqs = vec![0u16; ns];

    let mut q: BinaryHeapQueue<SimEvent> = BinaryHeapQueue::with_capacity(2 * ns);
    for (s, a) in arrivals.iter().enumerate() {
        q.schedule(
            a.peek(),
            priority(prio::ARRIVAL, s as u32),
            SimEvent::TrafficArrival { sender: s },
        );
    }

    let mut timeline: Vec<Transmission> = Vec::new();
    let mut next_id = 0u64;

    while let Some((key, ev)) = q.pop() {
        let t = key.time;
        if t >= horizon {
            // Arrivals beyond the horizon end the sender's stream; late
            // attempts for already-queued packets are abandoned too (the
            // run is over).
            continue;
        }
        match ev {
            SimEvent::TrafficArrival { sender: s } => {
                backlog[s] += 1;
                arrivals[s].pop(&mut rng);
                q.schedule(
                    arrivals[s].peek(),
                    priority(prio::ARRIVAL, s as u32),
                    SimEvent::TrafficArrival { sender: s },
                );
                if !attempt_scheduled[s] {
                    attempt_scheduled[s] = true;
                    let at = t.max(next_free[s]);
                    q.schedule(
                        at,
                        priority(prio::ATTEMPT, s as u32),
                        SimEvent::TxAttempt { sender: s },
                    );
                }
            }
            SimEvent::TxAttempt { sender: s } => {
                debug_assert!(backlog[s] > 0);
                let at = t.max(next_free[s]);
                if at > t {
                    q.schedule(
                        at,
                        priority(prio::ATTEMPT, s as u32),
                        SimEvent::TxAttempt { sender: s },
                    );
                    continue;
                }
                if cfg.carrier_sense && channel_busy(env, &timeline, s, at, frame_chips) {
                    let retry = at + csma_backoff_chips(&mut rng);
                    q.schedule(
                        retry,
                        priority(prio::ATTEMPT, s as u32),
                        SimEvent::TxAttempt { sender: s },
                    );
                    continue;
                }
                timeline.push(Transmission {
                    id: next_id,
                    sender: s,
                    seq: seqs[s],
                    start_chip: at,
                    len_chips: frame_chips,
                });
                next_id += 1;
                seqs[s] = seqs[s].wrapping_add(1);
                next_free[s] = at + frame_chips + 320; // 160 µs turnaround
                backlog[s] -= 1;
                if backlog[s] > 0 {
                    q.schedule(
                        next_free[s],
                        priority(prio::ATTEMPT, s as u32),
                        SimEvent::TxAttempt { sender: s },
                    );
                } else {
                    attempt_scheduled[s] = false;
                }
            }
            _ => unreachable!("timeline generator schedules only arrivals and attempts"),
        }
    }
    timeline.sort_by_key(|t| t.start_chip);
    timeline
}

/// Does sender `s` hear an ongoing transmission at time `t`?
fn channel_busy(
    env: &RadioEnv,
    timeline: &[Transmission],
    s: usize,
    t: u64,
    frame_chips: u64,
) -> bool {
    let threshold = cca_threshold_mw();
    let mut total = 0.0;
    for tx in timeline.iter().rev() {
        if tx.start_chip + frame_chips <= t {
            break; // transmissions are start-ordered with equal length
        }
        if tx.start_chip <= t && tx.sender != s {
            total += env.s2s_mw[tx.sender][s];
            if total >= threshold {
                return true;
            }
        }
    }
    false
}

/// Receiver-side evaluation arm.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RxArm {
    /// Delivery scheme under test.
    pub scheme: DeliveryScheme,
    /// Postamble decoding enabled?
    pub postamble: bool,
    /// Collect per-symbol hint/correctness traces (Figs. 3, 13–15)?
    pub collect_symbols: bool,
}

/// The outcome of one (transmission, receiver) evaluation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reception {
    /// Transmission id.
    pub tx_id: u64,
    /// Sender index.
    pub sender: usize,
    /// Receiver index.
    pub receiver: usize,
    /// How the frame was acquired (or lost).
    pub acquisition: Acquisition,
    /// Scheme payload bytes carried by this frame.
    pub payload_len: usize,
    /// Bytes delivered to higher layers *and* correct.
    pub delivered_correct: usize,
    /// Bytes delivered (correct or not — PPR misses included).
    pub delivered_claimed: usize,
    /// Whole-packet CRC verdict.
    pub crc_ok: bool,
    /// Per-body-symbol hints (when collected).
    pub symbol_hints: Vec<u8>,
    /// Per-body-symbol ground-truth correctness (when collected).
    pub symbol_correct: Vec<bool>,
}

/// Deterministic known test pattern for (sender, seq), as the paper's
/// known-payload method requires.
pub fn payload_pattern(sender: usize, seq: u16, len: usize) -> Vec<u8> {
    let mut rng = StdRng::seed_from_u64(0x7EA7_0000 ^ ((sender as u64) << 32) ^ seq as u64);
    (0..len).map(|_| rng.gen()).collect()
}

/// Builds the scheme body for a payload, padded with filler to exactly
/// `body_bytes` so every scheme occupies identical airtime.
pub fn build_body_padded(scheme: &DeliveryScheme, payload: &[u8], body_bytes: usize) -> Vec<u8> {
    let mut body = scheme.build_body(payload);
    assert!(body.len() <= body_bytes, "scheme body overflows frame");
    body.resize(body_bytes, 0xEE);
    body
}

/// Per-link counters of one arm over one trace.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LinkStats {
    /// Frames transmitted on the link (evaluated receptions).
    pub frames: usize,
    /// Frames acquired via preamble.
    pub via_preamble: usize,
    /// Frames acquired via postamble.
    pub via_postamble: usize,
    /// Total correct bytes delivered.
    pub delivered_correct: usize,
    /// Total scheme payload bytes offered.
    pub payload_offered: usize,
}

impl LinkStats {
    /// Equivalent frame delivery rate: correct delivered bytes per
    /// airtime-equivalent byte (the 1500 B body), so scheme overhead is
    /// charged (§7.2.2).
    pub fn fdr(&self, body_bytes: usize) -> f64 {
        if self.frames == 0 {
            return f64::NAN;
        }
        self.delivered_correct as f64 / (self.frames * body_bytes) as f64
    }

    /// Delivered throughput over the run, kbit/s.
    pub fn throughput_kbps(&self, duration_s: f64) -> f64 {
        self.delivered_correct as f64 * 8.0 / duration_s / 1000.0
    }
}

/// The codeword hint statistics of one arm (Figs. 3, 14 and 15).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HintFold {
    /// Every decoded body codeword's hint, split by correctness.
    pub hist: HintHistogram,
    /// Contiguous miss-run lengths at each of [`MISS_RUN_ETAS`].
    pub miss_runs: MissRunHistogram,
}

impl HintFold {
    /// Empty statistics.
    fn new() -> Self {
        HintFold {
            hist: HintHistogram::new(),
            miss_runs: MissRunHistogram::new(MISS_RUN_ETAS.to_vec(), MAX_MISS_RUN),
        }
    }

    /// Tallies one reception's hint columns.
    fn record(&mut self, rec: &Reception) {
        self.hist
            .record_packet(&rec.symbol_hints, &rec.symbol_correct);
        self.miss_runs
            .record_packet(&rec.symbol_hints, &rec.symbol_correct);
    }

    /// Adds `other`'s counts.
    fn merge(&mut self, other: &HintFold) {
        self.hist.merge(&other.hist);
        self.miss_runs.merge(&other.miss_runs);
    }
}

/// What the capacity figures read of one arm's receptions over one
/// trace, folded as each reception decodes. Every field is a count, so
/// the fold does not depend on the order receptions arrive in.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArmFold {
    /// Per-link counters, in [`RadioEnv::links`] order.
    pub links: Vec<LinkStats>,
    /// Codeword hint statistics, for arms that collect symbol traces.
    pub hints: Option<HintFold>,
}

impl ArmFold {
    /// An empty fold over `links` links; `hints` keeps the codeword hint
    /// statistics too.
    pub fn new(links: usize, hints: bool) -> Self {
        ArmFold {
            links: vec![LinkStats::default(); links],
            hints: hints.then(HintFold::new),
        }
    }

    /// Folds one reception on link `link`.
    pub fn add(&mut self, link: usize, rec: &Reception) {
        self.add_tallied(link, rec, None);
    }

    /// [`Self::add`], taking the reception's hint statistics from
    /// `tally` when given — tallied once for every reception that shares
    /// them — instead of tallying its hint columns.
    fn add_tallied(&mut self, link: usize, rec: &Reception, tally: Option<&HintFold>) {
        let s = &mut self.links[link];
        s.frames += 1;
        s.payload_offered += rec.payload_len;
        s.delivered_correct += rec.delivered_correct;
        match rec.acquisition {
            Acquisition::Preamble => s.via_preamble += 1,
            Acquisition::Postamble => s.via_postamble += 1,
            Acquisition::None => {}
        }
        if let Some(h) = &mut self.hints {
            match tally {
                Some(t) => h.merge(t),
                None => h.record(rec),
            }
        }
    }

    /// Folds a collected reception stream. Receptions on pairs that are
    /// not links of `env` are skipped.
    pub fn of_stream(env: &RadioEnv, recs: &[Reception], hints: bool) -> Self {
        let links = env.links();
        // BTreeMap, not HashMap: the experiment layer is deterministic
        // by construction, with no hashed iteration order anywhere.
        let index: BTreeMap<(usize, usize), usize> =
            links.iter().enumerate().map(|(i, &l)| (l, i)).collect();
        let mut fold = ArmFold::new(links.len(), hints);
        for rec in recs {
            if let Some(&link) = index.get(&(rec.sender, rec.receiver)) {
                fold.add(link, rec);
            }
        }
        fold
    }
}

/// What a reception pass keeps of each decoded reception.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RxOutput {
    /// One arm's receptions in their receiver-major slots (undecoded
    /// slots are `None`): the stream [`process_receptions`] returns and
    /// the differential harness compares.
    Stream(Vec<Option<Reception>>),
    /// One [`ArmFold`] per arm, in arm order.
    Folds(Vec<ArmFold>),
}

/// Ignored by [`ReceptionDriver::new`], which walks the timeline on the
/// calling thread. Exported only because `perfbench/` still passes it.
pub const BATCH_PER_WORKER: usize = 8;

/// Evaluates every transmission at every receiver under one arm.
///
/// This is the one-arm case of [`ReceptionDriver`]: one walk over the
/// timeline, with chip streams bit-packed
/// [`ppr_phy::chips::ChipWords`] end to end. Output is bit-identical to
/// the sequential `&[bool]` spec ([`process_receptions_reference`]).
pub fn process_receptions(
    env: &RadioEnv,
    cfg: &SimConfig,
    timeline: &[Transmission],
    arm: &RxArm,
) -> Vec<Reception> {
    ReceptionDriver::new(env, cfg, timeline, arm, None, BATCH_PER_WORKER).run_to_end()
}

/// [`process_receptions`] with a checkpoint in the middle: the run is
/// driven to the first transmission boundary at or past
/// `checkpoint_events` ([`ReceptionDriver::run_events`]), serialized to
/// the versioned snapshot byte format, restored from those bytes into a
/// fresh driver, and completed. Output is bit-identical to the
/// uninterrupted run (`tests/snapshot_roundtrip.rs` pins this).
pub fn process_receptions_checkpointed(
    env: &RadioEnv,
    cfg: &SimConfig,
    timeline: &[Transmission],
    arm: &RxArm,
    checkpoint_events: u64,
) -> Vec<Reception> {
    ReceptionDriver::new(env, cfg, timeline, arm, None, BATCH_PER_WORKER)
        .through_snapshot(checkpoint_events)
        .run_to_end()
}

/// Evaluates every arm over one trace in a single pass of
/// [`ReceptionDriver`], folding each reception into its arm's
/// [`ArmFold`] as it decodes. With a `checkpoint`, the pass is driven
/// to that boundary, round-tripped through the snapshot bytes and
/// completed — bit-identical either way.
pub fn fold_receptions(
    env: &RadioEnv,
    cfg: &SimConfig,
    timeline: &[Transmission],
    arms: &[RxArm],
    checkpoint: Option<u64>,
) -> Vec<ArmFold> {
    let driver = ReceptionDriver::folding(env, cfg, timeline, arms);
    match checkpoint {
        None => driver,
        Some(events) => driver.through_snapshot(events),
    }
    .run_to_folds()
}

/// Runs the reception driver to the `events` boundary and returns the
/// serialized checkpoint — the frozen state the differential harness
/// resumes and checks against the spec.
pub fn snapshot_after_events(
    env: &RadioEnv,
    cfg: &SimConfig,
    timeline: &[Transmission],
    arm: &RxArm,
    events: u64,
) -> Vec<u8> {
    let mut driver = ReceptionDriver::new(env, cfg, timeline, arm, None, BATCH_PER_WORKER);
    driver.run_events(events);
    driver.save().to_bytes()
}

/// The testbed reception pass as a resumable walk over the timeline,
/// for any number of receiver arms: run it to completion
/// ([`ReceptionDriver::run_to_end`], [`ReceptionDriver::run_to_folds`]),
/// or to a transmission boundary ([`ReceptionDriver::run_events`]),
/// checkpoint it ([`ReceptionDriver::save`]) and continue later — in
/// this process or another — via [`ReceptionDriver::restore`] or
/// [`ReceptionDriver::restore_folding`].
///
/// No decode feeds back into the trace, so the pass needs no event
/// queue: each step takes the next transmission, builds its payload
/// once (at the longest arm's length) and, at every receiver that can
/// hear it, draws the channel's [`ChipErrors`] once, resolves the
/// preamble verdict, folds the receiver's busy/idle state (timeline
/// order per receiver) and receives every arm's frame. None of that but
/// the last depends on the arm: every arm's frame has the same
/// preamble, header and length. A capture the channel did not touch
/// takes each arm's clean outcome, decoded once when the driver is
/// built; any other is decoded once per distinct frame the arms send
/// ([`BodyLayout`](ppr_mac::schemes::BodyLayout)), and each arm's
/// acceptance rule counts its bytes in place
/// ([`DeliveryScheme::count_accepted`]). The reception lands in its
/// receiver-major slot (one arm, [`RxOutput::Stream`]) or its arm's
/// [`ArmFold`]; both go through one receive function, so the parity
/// tests against [`process_receptions_reference`] cover the shortcut
/// and the sharing. A checkpoint is a timeline prefix: how many
/// transmissions are done, the busy horizons and the output.
///
/// The timeline must be sorted by `(start_chip, id)`, as
/// [`generate_timeline`] returns it: the busy/idle fold and the
/// interference window read it in that order.
pub struct ReceptionDriver<'a> {
    // ppr-lint: region(snapshot-state) begin testbed reception driver state
    /// snapshot: rebuilt — the shared pipeline stages are pure functions
    /// of the run inputs (environment, config, timeline, arms).
    pipe: RxPipeline<'a>,
    /// snapshot: rebuilt — squelch-passing receiver set per sender,
    /// derived from the frozen link gains.
    receivers_of: Vec<Vec<usize>>,
    /// snapshot: rebuilt — per sender, the index (in
    /// [`RadioEnv::links`] order) of its link to `receivers_of[s][0]`;
    /// its link to `receivers_of[s][k]` is `link_base[s] + k`.
    link_base: Vec<usize>,
    /// snapshot: serialized — transmissions evaluated so far: the
    /// timeline prefix the output holds.
    started: usize,
    /// snapshot: rebuilt — one per evaluated transmission plus one per
    /// reception, recounted from the started prefix.
    dispatched: u64,
    /// snapshot: serialized — the decoded receptions: the one arm's
    /// slot table, or every arm's fold.
    output: RxOutput,
    /// snapshot: serialized — per-receiver busy horizon of the
    /// sequential busy/idle fold.
    busy_until: Vec<u64>,
    /// snapshot: rebuilt — per-receiver next output slot, recounted
    /// from the started prefix of the timeline.
    next_slot: Vec<usize>,
    // ppr-lint: region(snapshot-state) end
}

impl<'a> ReceptionDriver<'a> {
    /// Builds a one-arm driver at the start of the timeline that keeps
    /// every reception in its slot. The last two arguments are ignored:
    /// the driver runs on the calling thread, and they stay only so
    /// existing callers (`perfbench/`) keep compiling.
    ///
    /// # Panics
    /// Panics unless `timeline` is sorted by `(start_chip, id)`;
    /// [`Self::folding`], [`Self::restore`] and
    /// [`Self::restore_folding`] check the same.
    pub fn new(
        env: &'a RadioEnv,
        cfg: &'a SimConfig,
        timeline: &'a [Transmission],
        arm: &'a RxArm,
        _workers: Option<usize>,
        _batch: usize,
    ) -> Self {
        Self::with_arms(env, cfg, timeline, std::slice::from_ref(arm), true)
    }

    /// Builds a driver at the start of the timeline that evaluates every
    /// arm of `arms` over the trace and folds each reception into its
    /// arm's [`ArmFold`].
    ///
    /// # Panics
    /// Panics unless `timeline` is sorted by `(start_chip, id)`.
    pub fn folding(
        env: &'a RadioEnv,
        cfg: &'a SimConfig,
        timeline: &'a [Transmission],
        arms: &'a [RxArm],
    ) -> Self {
        Self::with_arms(env, cfg, timeline, arms, false)
    }

    /// A driver at the start of the timeline whose output is the slot
    /// table (`stream`, one arm) or one empty fold per arm.
    fn with_arms(
        env: &'a RadioEnv,
        cfg: &'a SimConfig,
        timeline: &'a [Transmission],
        arms: &'a [RxArm],
        stream: bool,
    ) -> Self {
        assert!(
            timeline.is_sorted_by_key(|tx| (tx.start_chip, tx.id)),
            "the reception driver needs a timeline sorted by (start_chip, id), \
             as generate_timeline returns it"
        );
        let pipe = RxPipeline::new(env, cfg, timeline, arms);
        let nr = env.testbed.receivers.len();
        let ns = env.testbed.senders.len();

        // The squelch-passing receiver set of each sender — what each
        // step enumerates instead of every receiver. The predicate is
        // [`RadioEnv::is_link`]'s, so numbering the pairs sender-major
        // gives the `links()` order.
        let receivers_of: Vec<Vec<usize>> = (0..ns)
            .map(|s| (0..nr).filter(|&r| env.is_link(s, r)).collect())
            .collect();
        let link_base = receivers_of
            .iter()
            .scan(0, |next, rs| {
                *next += rs.len();
                Some(*next - rs.len())
            })
            .collect();

        // Receiver-major output slots: slot bases per receiver, filled
        // in timeline order — the spec's evaluation order.
        let mut count = vec![0usize; nr];
        for tx in timeline {
            for &r in &receivers_of[tx.sender] {
                count[r] += 1;
            }
        }
        let mut next_slot = Vec::with_capacity(nr);
        let mut total_jobs = 0;
        for c in count {
            next_slot.push(total_jobs);
            total_jobs += c;
        }

        let output = if stream {
            RxOutput::Stream(vec![None; total_jobs])
        } else {
            let links = env.links().len();
            RxOutput::Folds(
                arms.iter()
                    .map(|arm| ArmFold::new(links, arm.collect_symbols))
                    .collect(),
            )
        };
        ReceptionDriver {
            pipe,
            receivers_of,
            link_base,
            started: 0,
            dispatched: 0,
            output,
            busy_until: vec![0u64; nr],
            next_slot,
        }
    }

    /// Evaluates the next transmission at every receiver that can hear
    /// it. Returns `false` when the run is complete.
    fn step(&mut self) -> bool {
        let idx = self.started;
        let Some(tx) = self.pipe.timeline.get(idx) else {
            return false;
        };
        let payload = self.pipe.payload(tx);
        let receivers = &self.receivers_of[tx.sender];
        for (k, &r) in receivers.iter().enumerate() {
            let idle = self.busy_until[r] <= tx.start_chip;
            let preamble = match &mut self.output {
                RxOutput::Stream(out) => {
                    let slot = self.next_slot[r];
                    self.next_slot[r] += 1;
                    self.pipe.receive(idx, r, &payload, idle, |_, rec, _| {
                        out[slot] = Some(Reception {
                            tx_id: tx.id,
                            sender: tx.sender,
                            receiver: r,
                            ..rec.into_owned()
                        });
                    })
                }
                RxOutput::Folds(folds) => {
                    let link = self.link_base[tx.sender] + k;
                    self.pipe.receive(idx, r, &payload, idle, |a, rec, tally| {
                        folds[a].add_tallied(link, &rec, tally);
                    })
                }
            };
            if preamble {
                self.busy_until[r] = tx.end_chip();
            }
        }
        self.started += 1;
        self.dispatched += 1 + receivers.len() as u64;
        true
    }

    /// Work done so far, the checkpoint unit: one per evaluated
    /// transmission plus one per reception.
    pub fn dispatched(&self) -> u64 {
        self.dispatched
    }

    /// Evaluates transmissions until [`Self::dispatched`] reaches
    /// `events` — the first transmission boundary at or past it — or
    /// until the run completes, whichever is first.
    pub fn run_events(&mut self, events: u64) {
        while self.dispatched < events && self.step() {}
    }

    /// Runs to completion and returns the receptions in receiver-major
    /// reference order.
    ///
    /// # Panics
    /// Panics on a folding driver, which keeps no receptions.
    pub fn run_to_end(mut self) -> Vec<Reception> {
        while self.step() {}
        let RxOutput::Stream(out) = self.output else {
            panic!("run_to_end on a folding driver; use run_to_folds");
        };
        out.into_iter()
            .map(|r| r.expect("every slot decoded by its transmission's step"))
            .collect()
    }

    /// Runs to completion and returns every arm's fold, in arm order.
    ///
    /// # Panics
    /// Panics on a one-arm stream driver; use [`Self::run_to_end`].
    pub fn run_to_folds(mut self) -> Vec<ArmFold> {
        while self.step() {}
        let RxOutput::Folds(folds) = self.output else {
            panic!("run_to_folds on a stream driver; use run_to_end");
        };
        folds
    }

    /// Drives the pass to the `events` boundary, serializes it, and
    /// resumes a fresh driver over the same inputs from the parsed bytes.
    fn through_snapshot(mut self, events: u64) -> Self {
        self.run_events(events);
        let snap =
            RxSnapshot::from_bytes(&self.save().to_bytes()).expect("snapshot bytes round-trip");
        let (p, stream) = (&self.pipe, matches!(self.output, RxOutput::Stream(_)));
        Self::with_arms(p.env, p.cfg, p.timeline, p.arms, stream)
            .resume(&snap)
            .expect("snapshot restores against its own run inputs")
    }

    /// Checkpoints the driver: the started prefix, the busy horizons
    /// and the output.
    pub fn save(&self) -> RxSnapshot {
        let cfg = self.pipe.cfg;
        RxSnapshot {
            seed: cfg.seed,
            load_kbps: cfg.load_kbps,
            body_bytes: cfg.body_bytes,
            carrier_sense: cfg.carrier_sense,
            duration_s: cfg.duration_s,
            arms: self.pipe.arms.to_vec(),
            timeline_fp: timeline_fingerprint(self.pipe.timeline),
            env_fp: env_fingerprint(self.pipe.env),
            kernel_signature: ppr_phy::simd::active_kernel_signature().into_bytes(),
            started: self.started,
            busy_until: self.busy_until.clone(),
            output: self.output.clone(),
        }
    }

    /// Rebuilds a one-arm stream driver ([`Self::new`]) from a
    /// checkpoint, validating the snapshot's identity fields and its
    /// progress state against the run inputs. A snapshot that passes its
    /// checksum but contradicts itself is [`SnapError::Corrupt`], never
    /// a panic.
    pub fn restore(
        env: &'a RadioEnv,
        cfg: &'a SimConfig,
        timeline: &'a [Transmission],
        arm: &'a RxArm,
        snap: &RxSnapshot,
    ) -> Result<Self, SnapError> {
        validate_rx_identity(env, cfg, timeline, std::slice::from_ref(arm), snap)?;
        Self::new(env, cfg, timeline, arm, None, BATCH_PER_WORKER).resume(snap)
    }

    /// [`Self::restore`] for a folding driver ([`Self::folding`]).
    pub fn restore_folding(
        env: &'a RadioEnv,
        cfg: &'a SimConfig,
        timeline: &'a [Transmission],
        arms: &'a [RxArm],
        snap: &RxSnapshot,
    ) -> Result<Self, SnapError> {
        validate_rx_identity(env, cfg, timeline, arms, snap)?;
        Self::folding(env, cfg, timeline, arms).resume(snap)
    }

    /// Moves a fresh driver to `snap`'s progress state, after checking
    /// that this driver can reach it: at most the whole timeline
    /// started, one busy horizon per receiver, and an output that holds
    /// exactly the started prefix's receptions — slot by slot for a
    /// stream, link by link (within what those receptions can add up
    /// to) for folds. Anything else is [`SnapError::Corrupt`], so a
    /// resealed but inconsistent snapshot cannot reach an index, an
    /// `expect` or an overflowing count in the walk.
    fn resume(mut self, snap: &RxSnapshot) -> Result<Self, SnapError> {
        let corrupt = |what: String| Err(SnapError::Corrupt(what));
        let timeline = self.pipe.timeline;
        let nr = self.next_slot.len();
        let (started, horizons) = (snap.started, snap.busy_until.len());
        if started > timeline.len() || horizons != nr {
            return corrupt(format!(
                "{started} of {} transmissions started, {horizons} busy horizons for {nr} receivers",
                timeline.len()
            ));
        }

        // The started prefix: each receiver's slot range, each link's
        // reception count, and the work count.
        let slot_base = self.next_slot.clone();
        let mut decoded = vec![0usize; self.pipe.env.links().len()];
        for tx in &timeline[..started] {
            let receivers = &self.receivers_of[tx.sender];
            for (k, &r) in receivers.iter().enumerate() {
                self.next_slot[r] += 1;
                decoded[self.link_base[tx.sender] + k] += 1;
            }
            self.dispatched += 1 + receivers.len() as u64;
        }

        match (&self.output, &snap.output) {
            (RxOutput::Stream(fresh), RxOutput::Stream(out)) => {
                if out.len() != fresh.len() {
                    return corrupt(format!(
                        "slot table holds {} slots, run inputs produce {}",
                        out.len(),
                        fresh.len()
                    ));
                }
                // A slot belongs to the last receiver whose base is at or
                // before it; the prefix's slots, and only they, are
                // decoded.
                for (slot, rec) in out.iter().enumerate() {
                    let r = slot_base.partition_point(|&b| b <= slot) - 1;
                    let started = slot < self.next_slot[r];
                    if rec.is_some() != started {
                        return corrupt(format!(
                            "slot {slot} is decoded: {}, started: {started}",
                            rec.is_some()
                        ));
                    }
                }
            }
            (RxOutput::Folds(_), RxOutput::Folds(folds)) => self.check_folds(folds, &decoded)?,
            _ => return Err(SnapError::IdentityMismatch(
                "a stream snapshot restores only into a stream driver, folds into a folding one"
                    .into(),
            )),
        }
        self.started = snap.started;
        self.busy_until = snap.busy_until.clone();
        self.output = snap.output.clone();
        Ok(self)
    }

    /// Checks that every arm's fold could come from the `decoded[link]`
    /// receptions decoded so far on each link: the right shape, each
    /// link's frame count exact, and every other count within what
    /// those frames can add up to.
    fn check_folds(&self, folds: &[ArmFold], decoded: &[usize]) -> Result<(), SnapError> {
        let corrupt = |what: String| Err(SnapError::Corrupt(what));
        if folds.len() != self.pipe.arms.len() {
            return corrupt(format!(
                "{} folds for {} arms",
                folds.len(),
                self.pipe.arms.len()
            ));
        }
        // Each decoded reception records at most one hint per body
        // codeword.
        let symbols = 2 * self.pipe.cfg.body_bytes;
        let max_symbols = (decoded.iter().sum::<usize>() as u128) * symbols as u128;
        let within =
            |counts: &[u64]| counts.iter().map(|&c| c as u128).sum::<u128>() <= max_symbols;
        for (a, (fold, arm)) in folds.iter().zip(self.pipe.arms).enumerate() {
            if fold.links.len() != decoded.len() {
                return corrupt(format!(
                    "arm {a} folds {} links, the environment has {}",
                    fold.links.len(),
                    decoded.len()
                ));
            }
            let payload_len = arm.scheme.payload_len(self.pipe.cfg.body_bytes);
            for (l, (s, &n)) in fold.links.iter().zip(decoded).enumerate() {
                let ok = s.frames == n
                    && Some(s.payload_offered) == n.checked_mul(payload_len)
                    && s.via_preamble <= n
                    && s.via_postamble <= n - s.via_preamble
                    && s.delivered_correct <= s.payload_offered;
                if !ok {
                    return corrupt(format!(
                        "arm {a} link {l} counts {s:?} after {n} decoded receptions"
                    ));
                }
            }
            let hints_ok = match &fold.hints {
                None => !arm.collect_symbols,
                Some(h) => {
                    arm.collect_symbols
                        && h.hist.correct.len() == HintHistogram::new().correct.len()
                        && h.hist.incorrect.len() == h.hist.correct.len()
                        && within(&h.hist.correct)
                        && within(&h.hist.incorrect)
                        && h.miss_runs.etas == MISS_RUN_ETAS
                        && h.miss_runs.counts.len() == MISS_RUN_ETAS.len()
                        && h.miss_runs
                            .counts
                            .iter()
                            .all(|c| c.len() == MAX_MISS_RUN + 1 && within(c))
                }
            };
            if !hints_ok {
                return corrupt(format!("arm {a} hint statistics are malformed"));
            }
        }
        Ok(())
    }
}

/// Rejects a snapshot whose identity fields (seed, config, arms, or the
/// timeline/environment fingerprints) disagree with the run inputs the
/// caller is restoring into. Float fields compare by exact bits.
fn validate_rx_identity(
    env: &RadioEnv,
    cfg: &SimConfig,
    timeline: &[Transmission],
    arms: &[RxArm],
    snap: &RxSnapshot,
) -> Result<(), SnapError> {
    let mismatch = |what: String| Err(SnapError::IdentityMismatch(what));
    if cfg.seed != snap.seed
        || cfg.load_kbps.to_bits() != snap.load_kbps.to_bits()
        || cfg.body_bytes != snap.body_bytes
        || cfg.carrier_sense != snap.carrier_sense
        || cfg.duration_s.to_bits() != snap.duration_s.to_bits()
    {
        return mismatch("SimConfig differs from the snapshot's".into());
    }
    if arms != snap.arms.as_slice() {
        return mismatch("RxArms differ from the snapshot's".into());
    }
    for (what, ours, theirs) in [
        ("timeline", timeline_fingerprint(timeline), snap.timeline_fp),
        ("environment", env_fingerprint(env), snap.env_fp),
    ] {
        if ours != theirs {
            return mismatch(format!(
                "{what} fingerprint {ours:#018x} != snapshot {theirs:#018x}"
            ));
        }
    }
    Ok(())
}

/// The arms of a pass that send one frame: a [`BodyLayout`] with the
/// payload length it carries and its arms, in arm order.
struct LayoutGroup {
    /// The first member arm's scheme; every member builds its body.
    scheme: DeliveryScheme,
    payload_len: usize,
    arms: Vec<usize>,
}

/// An arm's reception of a frame the channel did not touch, with its
/// hint statistics tallied once when the arm collects them.
struct CleanOutcome {
    rec: Reception,
    hints: Option<HintFold>,
}

/// The reception pass's per-(transmission, receiver) pipeline stages
/// over packed chip words: draw the chip errors and resolve the preamble
/// verdict (independent of the arm), then receive every arm's frame —
/// from the arm's clean outcome when the errors touch no lane, else by
/// decoding each distinct frame once ([`Self::decode`]).
struct RxPipeline<'a> {
    env: &'a RadioEnv,
    cfg: &'a SimConfig,
    timeline: &'a [Transmission],
    arms: &'a [RxArm],
    /// The receiver, postamble decoding on. An arm without postamble
    /// decoding reaches it only with captures its preamble acquired,
    /// which both receivers decode alike.
    rx: FastRx,
    /// The distinct frames the arms send, in order of first arm.
    groups: Vec<LayoutGroup>,
    /// The longest payload any arm carries.
    payload_len: usize,
    noise: f64,
    /// Every frame's length, chips: each scheme pads its body to
    /// `body_bytes`.
    frame_chips: usize,
    /// Per-receiver interference views of the whole timeline.
    heard: Vec<Vec<HeardTx>>,
    /// The longest transmission on the timeline, chips: how far before
    /// a frame an interferer can start ([`overlap_window`]).
    max_len_chips: u64,
    /// Per arm, the reception of a frame the channel did not touch,
    /// indexed by the capture's idle flag (busy, idle); its ids are
    /// placeholders ([`Self::clean_outcomes`]).
    clean: Vec<[CleanOutcome; 2]>,
}

impl<'a> RxPipeline<'a> {
    fn new(
        env: &'a RadioEnv,
        cfg: &'a SimConfig,
        timeline: &'a [Transmission],
        arms: &'a [RxArm],
    ) -> Self {
        let mut groups: Vec<LayoutGroup> = Vec::new();
        for (a, arm) in arms.iter().enumerate() {
            let layout = arm.scheme.body_layout();
            match groups.iter_mut().find(|g| g.scheme.body_layout() == layout) {
                Some(g) => g.arms.push(a),
                None => groups.push(LayoutGroup {
                    scheme: arm.scheme,
                    payload_len: layout.payload_len(cfg.body_bytes),
                    arms: vec![a],
                }),
            }
        }
        let mut pipe = RxPipeline {
            env,
            cfg,
            timeline,
            arms,
            rx: FastRx::new(true),
            payload_len: groups.iter().map(|g| g.payload_len).max().unwrap_or(0),
            groups,
            noise: env.model.noise_mw(),
            frame_chips: Frame::chips_len_for_body(cfg.body_bytes),
            heard: heard_lists(env, timeline),
            max_len_chips: timeline.iter().map(|tx| tx.len_chips).max().unwrap_or(0),
            clean: Vec::new(),
        };
        pipe.clean = pipe.clean_outcomes();
        pipe
    }

    /// Every arm's receptions of a frame the channel did not touch, busy
    /// and idle. Such a frame *is* the transmitted one: every codeword
    /// sits at distance 0 with hint 0 (§3.2), so what the receiver makes
    /// of it depends on the arm and the idle flag only, not on the
    /// payload, the addresses or the sequence number. Each outcome is
    /// decoded once, by the same path as every other reception, from
    /// one clean rendering — so a header the receiver rejects (a body
    /// over [`ppr_mac::rx::MAX_BODY_LEN`]) is rejected here too. The ids
    /// are the rendering's placeholders; a stream stamps the capture's.
    fn clean_outcomes(&self) -> Vec<[CleanOutcome; 2]> {
        let tx = Transmission {
            id: 0,
            sender: 0,
            seq: 0,
            start_chip: 0,
            len_chips: self.frame_chips as u64,
        };
        let payload = payload_pattern(0, 0, self.payload_len);
        let mut outcomes: Vec<[Option<CleanOutcome>; 2]> =
            self.arms.iter().map(|_| [None, None]).collect();
        for idle in [false, true] {
            // Untouched, the preamble survives: an idle receiver locks.
            let errors = ChipErrors::default();
            self.decode(0, &tx, &errors, &payload, idle, idle, |a, rec| {
                let hints = self.arms[a].collect_symbols.then(|| {
                    let mut fold = HintFold::new();
                    fold.record(&rec);
                    fold
                });
                outcomes[a][usize::from(idle)] = Some(CleanOutcome { rec, hints });
            });
        }
        outcomes
            .into_iter()
            .map(|o| o.map(|c| c.expect("decode reports every arm")))
            .collect()
    }

    /// The transmission's known payload at the longest arm's length.
    /// `payload_pattern` draws one RNG word per byte, so every shorter
    /// arm's payload is a prefix of it.
    fn payload(&self, tx: &Transmission) -> Vec<u8> {
        payload_pattern(tx.sender, tx.seq, self.payload_len)
    }

    /// The channel's chip errors for one (transmission, receiver) pair,
    /// drawn from the start of the pair's noise stream — everything
    /// about a reception that does not depend on the arm or on the
    /// receiver's busy state. Only the transmissions that can overlap
    /// the frame are scanned for interference.
    fn draw_errors(&self, idx: usize, r: usize) -> ChipErrors {
        let tx = &self.timeline[idx];
        let mut rng = StdRng::seed_from_u64(reception_rng_seed(self.cfg.seed, tx.id, r));
        let signal = self.env.s2r_mw[tx.sender][r];
        let heard = &self.heard[r];
        let target = &heard[idx];
        let window = overlap_window(
            heard,
            target.start_chip,
            target.end_chip(),
            self.max_len_chips,
        );
        let profile_spans = interference_profile(target, window);
        let profile = ErrorProfile::from_interference(signal, self.noise, &profile_spans);
        ChipErrors::draw(self.frame_chips, &profile, &mut rng)
    }

    /// Receives `timeline[idx]` (its `payload` at the longest arm's
    /// length) at receiver `r`, `idle` when the frame starts, calling
    /// `each(a, reception, tally)` once per arm `a`: the arms' clean
    /// outcomes ([`Self::clean_outcomes`]) with their hint statistics as
    /// `tally` when the chip errors touch no lane, else a decode
    /// ([`Self::decode`]). The ids are placeholders: a fold reads none,
    /// and a stream stamps them. Returns the preamble verdict, which is
    /// what the receiver's busy/idle fold reads.
    fn receive(
        &self,
        idx: usize,
        r: usize,
        payload: &[u8],
        idle: bool,
        mut each: impl FnMut(usize, Cow<'_, Reception>, Option<&HintFold>),
    ) -> bool {
        let errors = self.draw_errors(idx, r);
        let preamble = idle && self.rx.preamble_hit(&errors);
        if errors.lanes_touched() == 0 {
            for (a, clean) in self.clean.iter().enumerate() {
                let c = &clean[usize::from(idle)];
                each(a, Cow::Borrowed(&c.rec), c.hints.as_ref());
            }
        } else {
            let tx = &self.timeline[idx];
            self.decode(r, tx, &errors, payload, idle, preamble, |a, rec| {
                each(a, Cow::Owned(rec), None)
            });
        }
        preamble
    }

    /// Decodes `tx`'s frame at receiver `r` under `errors` once per
    /// distinct frame the arms send, and calls `each(a, reception)` for
    /// every arm `a`. Arms whose schemes share a [`BodyLayout`] send one
    /// frame, so they share its rendering, its chip errors, its decode
    /// and its whole-packet CRC verdict; only the scheme's acceptance
    /// rule ([`DeliveryScheme::count_accepted`]) and the hint columns
    /// run per arm. A capture its `preamble` did not acquire reaches
    /// only the postamble arms; the others lose it
    /// ([`Acquisition::None`]) and a frame no arm can acquire is not
    /// rendered at all. `payload` is the transmission's payload at the
    /// longest arm's length. The ids are left at zero.
    #[allow(clippy::too_many_arguments)]
    fn decode(
        &self,
        r: usize,
        tx: &Transmission,
        errors: &ChipErrors,
        payload: &[u8],
        idle: bool,
        preamble: bool,
        mut each: impl FnMut(usize, Reception),
    ) {
        let acquires = |a: usize| preamble || self.arms[a].postamble;
        for g in &self.groups {
            let payload = &payload[..g.payload_len];
            let lost = || Reception {
                tx_id: 0,
                sender: 0,
                receiver: 0,
                acquisition: Acquisition::None,
                payload_len: g.payload_len,
                delivered_correct: 0,
                delivered_claimed: 0,
                crc_ok: false,
                symbol_hints: Vec::new(),
                symbol_correct: Vec::new(),
            };
            if !g.arms.iter().any(|&a| acquires(a)) {
                for &a in &g.arms {
                    each(a, lost());
                }
                continue;
            }
            let body = build_body_padded(&g.scheme, payload, self.cfg.body_bytes);
            let frame = Frame::new(r as u16, tx.sender as u16, tx.seq, body);
            let mut chips = frame.chip_words();
            debug_assert_eq!(chips.len(), self.frame_chips);
            errors.apply(&mut chips);
            let (acquisition, rx) = self.rx.receive_words(&frame, &chips, idle);
            debug_assert_eq!(acquisition == Acquisition::Preamble, preamble);
            let body = rx.as_ref().and_then(ReceivedBody::of);
            let crc_ok = body.as_ref().is_some_and(|b| b.crc_ok());
            for &a in &g.arms {
                if !acquires(a) {
                    each(a, lost());
                    continue;
                }
                let arm = &self.arms[a];
                let mut rec = Reception {
                    acquisition,
                    crc_ok,
                    ..lost()
                };
                if let Some(body) = &body {
                    (rec.delivered_claimed, rec.delivered_correct) =
                        arm.scheme.count_accepted(body, payload);
                }
                if let (true, Some(rx)) = (arm.collect_symbols, &rx) {
                    if let (Some(hints), Some(g)) = (rx.body_symbol_hints(), rx.geometry()) {
                        let tx_symbols = bytes_to_symbols(&frame.body);
                        let body_range = g.body();
                        let rx_syms =
                            rx.link_symbol_range(body_range.start * 2..body_range.end * 2);
                        rec.symbol_correct = rx_syms
                            .iter()
                            .zip(&tx_symbols)
                            .map(|(a, b)| a.symbol == *b)
                            .collect();
                        rec.symbol_hints = hints;
                    }
                }
                each(a, rec);
            }
        }
    }
}

/// Every receiver's interference view of the whole timeline: per
/// receiver, each transmission in timeline order with the power it
/// arrives at.
pub(crate) fn heard_lists(env: &RadioEnv, timeline: &[Transmission]) -> Vec<Vec<HeardTx>> {
    (0..env.testbed.receivers.len())
        .map(|r| {
            timeline
                .iter()
                .map(|tx| HeardTx {
                    id: tx.id,
                    start_chip: tx.start_chip,
                    len_chips: tx.len_chips,
                    power_mw: env.s2r_mw[tx.sender][r],
                })
                .collect()
        })
        .collect()
}

/// The per-reception RNG seed: `(master seed, transmission id, receiver)`
/// — one independent noise stream per (transmission, receiver) pair,
/// which is what makes the evaluation order irrelevant to the output.
pub fn reception_rng_seed(seed: u64, tx_id: u64, receiver: usize) -> u64 {
    seed ^ (tx_id.wrapping_mul(0x2545_F491_4F6C_DD1D)) ^ ((receiver as u64) << 56)
}

/// Sequential `&[bool]` reference implementation of
/// [`process_receptions`] — the executable specification the packed
/// reception driver is tested against (`tests/packed_parity.rs`, and
/// resumed checkpoints in [`crate::diff`]). It always runs from
/// scratch, receiver by receiver, and shares no state or snapshot with
/// the driver. Kept simple on purpose; use [`process_receptions`]
/// everywhere else.
pub fn process_receptions_reference(
    env: &RadioEnv,
    cfg: &SimConfig,
    timeline: &[Transmission],
    arm: &RxArm,
) -> Vec<Reception> {
    let fast = FastRx::new(arm.postamble);
    let noise = env.model.noise_mw();
    let payload_len = arm.scheme.payload_len(cfg.body_bytes);
    let mut out = Vec::new();

    for r in 0..env.testbed.receivers.len() {
        // Everything on the air contributes interference at r.
        let heard: Vec<HeardTx> = timeline
            .iter()
            .map(|tx| HeardTx {
                id: tx.id,
                start_chip: tx.start_chip,
                len_chips: tx.len_chips,
                power_mw: env.s2r_mw[tx.sender][r],
            })
            .collect();

        let mut busy_until = 0u64;
        for (i, tx) in timeline.iter().enumerate() {
            let signal = env.s2r_mw[tx.sender][r];
            // Below the sensitivity squelch the radio never acquires;
            // skip (the transmission still interferes with others via
            // `heard`).
            if signal / noise < SQUELCH_SNR {
                continue;
            }

            let payload = payload_pattern(tx.sender, tx.seq, payload_len);
            let body = build_body_padded(&arm.scheme, &payload, cfg.body_bytes);
            let frame = Frame::new(r as u16, tx.sender as u16, tx.seq, body.clone());
            let chips = frame.chips();

            // Interference profile over this frame at this receiver.
            let profile_spans = interference_profile(&heard[i], &heard);
            let profile = ErrorProfile::from_interference(signal, noise, &profile_spans);
            let mut rng = StdRng::seed_from_u64(reception_rng_seed(cfg.seed, tx.id, r));
            let corrupted = corrupt_chips(&chips, &profile, &mut rng);

            let idle = busy_until <= tx.start_chip;
            let (acq, rx_frame) = fast.receive(&frame, &corrupted, idle);
            if acq == Acquisition::Preamble {
                busy_until = tx.end_chip();
            }

            let mut rec = Reception {
                tx_id: tx.id,
                sender: tx.sender,
                receiver: r,
                acquisition: acq,
                payload_len,
                delivered_correct: 0,
                delivered_claimed: 0,
                crc_ok: false,
                symbol_hints: Vec::new(),
                symbol_correct: Vec::new(),
            };

            if let Some(rx) = rx_frame {
                rec.crc_ok = rx.pkt_crc_ok();
                let delivered = arm.scheme.deliver(&rx);
                rec.delivered_claimed = delivered.iter().map(|d| d.bytes.len()).sum();
                rec.delivered_correct = correct_delivered_bytes(&delivered, &payload);
                if arm.collect_symbols {
                    if let (Some(hints), Some(g)) = (rx.body_symbol_hints(), rx.geometry()) {
                        let tx_symbols = bytes_to_symbols(&body);
                        let body_range = g.body();
                        let rx_syms =
                            rx.link_symbol_range(body_range.start * 2..body_range.end * 2);
                        rec.symbol_correct = rx_syms
                            .iter()
                            .zip(&tx_symbols)
                            .map(|(a, b)| a.symbol == *b)
                            .collect();
                        rec.symbol_hints = hints;
                    }
                }
            }
            out.push(rec);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_cfg() -> SimConfig {
        SimConfig {
            load_kbps: 13.8,
            body_bytes: 200,
            carrier_sense: false,
            duration_s: 3.0,
            seed: 42,
        }
    }

    #[test]
    fn environment_has_link_diversity() {
        let env = RadioEnv::new(1);
        let links = env.links();
        assert!(links.len() >= 12, "only {} links", links.len());
        // Every receiver hears at least a few senders.
        for r in 0..4 {
            let n = links.iter().filter(|&&(_, rr)| rr == r).count();
            assert!(n >= 2, "receiver {r} hears {n}");
        }
        // Some links are strong (> 20 dB), some weaker (< 10 dB): the
        // wall-attenuated environment is nearly bimodal — weak links
        // mostly fall below the squelch entirely, as in the paper where
        // each sink hears only its 4-8 neighbors.
        let snrs: Vec<f64> = links.iter().map(|&(s, r)| env.link_snr(s, r)).collect();
        assert!(snrs.iter().any(|&x| x > 100.0), "no strong links");
        assert!(snrs.iter().any(|&x| x < 10.0), "no sub-10dB links");
        // Each sink hears a small neighborhood, not the whole floor.
        for r in 0..4 {
            let n = links.iter().filter(|&&(_, rr)| rr == r).count();
            assert!(n <= 12, "receiver {r} hears {n} senders — walls too thin");
        }
    }

    #[test]
    fn timeline_respects_own_radio_serialization() {
        let env = RadioEnv::new(1);
        let cfg = tiny_cfg();
        let timeline = generate_timeline(&env, &cfg);
        assert!(!timeline.is_empty());
        let mut last_end: Vec<u64> = vec![0; env.testbed.senders.len()];
        for tx in &timeline {
            assert!(
                tx.start_chip >= last_end[tx.sender],
                "sender {} overlaps itself",
                tx.sender
            );
            last_end[tx.sender] = tx.end_chip();
        }
    }

    #[test]
    fn timeline_is_deterministic() {
        let env = RadioEnv::new(1);
        let cfg = tiny_cfg();
        assert_eq!(generate_timeline(&env, &cfg), generate_timeline(&env, &cfg));
    }

    #[test]
    fn carrier_sense_reduces_overlap() {
        let env = RadioEnv::new(1);
        let mut cfg = tiny_cfg();
        cfg.duration_s = 5.0;
        cfg.load_kbps = 13.8;
        let no_cs = generate_timeline(&env, &cfg);
        cfg.carrier_sense = true;
        let cs = generate_timeline(&env, &cfg);
        let overlap = |tl: &[Transmission]| -> usize {
            let mut n = 0;
            for i in 0..tl.len() {
                for j in (i + 1)..tl.len() {
                    if tl[j].start_chip >= tl[i].end_chip() {
                        break;
                    }
                    n += 1;
                }
            }
            n
        };
        let (a, b) = (overlap(&no_cs), overlap(&cs));
        assert!(b < a, "CS overlaps {b} !< no-CS overlaps {a}");
    }

    #[test]
    fn receptions_deliver_on_clean_links() {
        let env = RadioEnv::new(1);
        let cfg = SimConfig {
            load_kbps: 3.5,
            duration_s: 6.0,
            ..tiny_cfg()
        };
        let timeline = generate_timeline(&env, &cfg);
        let arm = RxArm {
            scheme: DeliveryScheme::PacketCrc,
            postamble: true,
            collect_symbols: false,
        };
        let recs = process_receptions(&env, &cfg, &timeline, &arm);
        assert!(!recs.is_empty());
        // At light load the strongest links deliver complete packets.
        let full = recs.iter().filter(|r| r.crc_ok).count();
        assert!(
            full > 0,
            "no packet ever delivered over {} receptions",
            recs.len()
        );
        // Delivered-correct never exceeds the payload.
        for r in &recs {
            assert!(r.delivered_correct <= r.payload_len);
            assert!(r.delivered_claimed >= r.delivered_correct);
        }
    }

    #[test]
    fn identical_seeds_give_identical_receptions() {
        let env = RadioEnv::new(1);
        let cfg = tiny_cfg();
        let timeline = generate_timeline(&env, &cfg);
        let arm = RxArm {
            scheme: DeliveryScheme::Ppr { eta: 6 },
            postamble: true,
            collect_symbols: false,
        };
        let a = process_receptions(&env, &cfg, &timeline, &arm);
        let b = process_receptions(&env, &cfg, &timeline, &arm);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.delivered_correct, y.delivered_correct);
            assert_eq!(x.acquisition, y.acquisition);
        }
    }

    #[test]
    #[should_panic(expected = "sorted by (start_chip, id)")]
    fn unsorted_timeline_is_refused() {
        let env = RadioEnv::new(1);
        let cfg = tiny_cfg();
        let mut timeline = generate_timeline(&env, &cfg);
        assert!(timeline.len() > 2);
        timeline.swap(0, 1);
        let arm = RxArm {
            scheme: DeliveryScheme::PacketCrc,
            postamble: true,
            collect_symbols: false,
        };
        process_receptions(&env, &cfg, &timeline, &arm);
    }

    #[test]
    fn payload_pattern_is_stable_and_distinct() {
        assert_eq!(payload_pattern(3, 7, 100), payload_pattern(3, 7, 100));
        assert_ne!(payload_pattern(3, 7, 100), payload_pattern(3, 8, 100));
        assert_ne!(payload_pattern(2, 7, 100), payload_pattern(3, 7, 100));
    }

    #[test]
    fn body_padding_reaches_exact_size() {
        for scheme in [
            DeliveryScheme::PacketCrc,
            DeliveryScheme::FragmentedCrc { frag_payload: 50 },
            DeliveryScheme::FragmentedCrc { frag_payload: 5 },
            DeliveryScheme::Ppr { eta: 6 },
        ] {
            let payload_len = scheme.payload_len(1500);
            let payload = payload_pattern(0, 0, payload_len);
            let body = build_body_padded(&scheme, &payload, 1500);
            assert_eq!(body.len(), 1500, "{scheme:?}");
        }
    }
}
