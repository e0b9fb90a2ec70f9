//! `mesh10k` — the event core at scale: a 10 000-node mesh flood with
//! PP-ARQ repair.
//!
//! The testbed experiments pair every transmission with every receiver —
//! fine at 23×4, hopeless at 10 000 nodes. This experiment is the
//! subsystem's stress article: a random-geometric mesh
//! ([`Testbed::mesh`]) floods one 250 B PPR frame from the center node
//! outward, every event flows through the deterministic
//! [`BinaryHeapQueue`], and dispatch enumerates only the
//! [`SpatialIndex`] candidates of each transmitter instead of the whole
//! mesh.
//!
//! ## Protocol
//!
//! * The source broadcasts the frame; every node that *recovers* the
//!   full payload (byte-correct against the known ground truth, PPR
//!   delivery at η) rebroadcasts exactly once, after a deterministic
//!   per-node jitter.
//! * A node left with a *partial* payload arms a PP-ARQ timer. When it
//!   fires, the node plans its repair request with the paper's chunking
//!   DP ([`plan_chunks`]) over its byte-correct bitmask and asks its
//!   best recovered neighbor for exactly those spans; the neighbor
//!   unicasts a repair frame containing the requested bytes. Up to
//!   [`MAX_ARQ_ROUNDS`] rounds.
//! * Transmissions interfere: reception evaluation runs the real chip
//!   pipeline (per-span SINR → chip corruption → [`FastRx`] decode), so
//!   colliding rebroadcasts produce exactly the partial packets PP-ARQ
//!   exists to repair.
//!
//! ## Determinism and the flush window
//!
//! Reception outcomes are decoded in batches without ever becoming
//! order-dependent:
//!
//! * completed receptions accumulate in a pending batch, flushed when
//!   the clock reaches `earliest pending completion + `[`SAFE_WINDOW`]
//!   (or when an ARQ timer — the only state-reading event — pops, or at
//!   queue drain);
//! * every outcome-scheduled event (rebroadcast, repair, timer) lands at
//!   least [`SAFE_WINDOW`] chips after the reception that caused it, so
//!   no event that could observe an outcome runs before its flush;
//! * interference and half-duplex checks happen *at flush*, when every
//!   transmission that could overlap a pending reception has already
//!   popped (any overlapper starts strictly before the reception ends,
//!   and the flush trigger time is later still);
//! * work selection at a flush reads only pre-flush state, and each
//!   reception draws from its own `reception_rng_seed` stream, so a
//!   batch decodes to the same outcomes in any order; they are applied
//!   in batch (pop) order.
//!
//! Wall-clock events/sec is *measured* in `ppr-bench` (`bench_packed`,
//! the `BENCH_packed.json` mesh rows); this experiment reports only
//! deterministic counts, keeping ppr-sim free of wall-clock reads (the
//! ppr-lint `determinism` rule).

use super::Experiment;
use crate::adversary::{AdversaryState, FaultPlan, JammerSpec};
use crate::event::{prio, priority, BinaryHeapQueue, EventQueue, SimEvent};
use crate::geometry::{Point, Testbed};
use crate::network::{office_model, payload_pattern, reception_rng_seed, SQUELCH_SNR};
use crate::results::ExperimentResult;
use crate::rxpath::FastRx;
use crate::scenario::Scenario;
use crate::snapshot::{MeshNodeSnapshot, MeshSnapshot, MeshTxSnapshot, SnapError};
use crate::spatial::SpatialIndex;
use ppr_channel::chip_channel::{corrupt_chip_words_in_place, ErrorProfile};
use ppr_channel::overlap::{interference_profile, HeardTx};
use ppr_channel::pathloss::PathLossModel;
use ppr_core::dp::{plan_chunks, CostModel};
use ppr_core::runs::{RunLengths, UnitRange};
use ppr_mac::frame::Frame;
use ppr_mac::rx::RxFrame;
use ppr_mac::schemes::{DeliveryScheme, ReceivedBody};
use ppr_mac::BackoffPolicy;
use ppr_phy::chips::CHIP_RATE_HZ;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Flush window, chips: pending receptions are decoded before the clock
/// passes `earliest completion + SAFE_WINDOW`, and every
/// outcome-scheduled event is deferred by at least this much.
pub const SAFE_WINDOW: u64 = 4096;

/// Rebroadcast/repair jitter span, chips (2¹⁷ ≈ 66 ms at 2 Mchip/s).
/// A 250 B frame is ~18 k chips of airtime, so two rebroadcasts inside
/// this span collide ~27% of the time — frequent enough to produce the
/// partial packets PP-ARQ exists to repair, rare enough that the flood
/// still propagates.
pub const JITTER_SPAN: u64 = 1 << 17;

/// PP-ARQ timer delay after the arming reception's completion, chips —
/// half a jitter span, so a partial node asks for repair only after the
/// local rebroadcast wave has mostly played out.
pub const ARQ_TIMEOUT: u64 = JITTER_SPAN / 2;

/// Default maximum PP-ARQ repair rounds per node (the `arq_retries`
/// scenario axis overrides it).
pub const MAX_ARQ_ROUNDS: u8 = 3;

/// On-air body bytes of the flooded frame (the paper's PP-ARQ
/// experiments use 250 B packets).
pub const MESH_BODY_BYTES: usize = 250;

/// Broadcast link-layer address.
const BROADCAST: u16 = 0xFFFF;

/// The mesh propagation model: the office chip-channel parameters with
/// shadowing *disabled* — open-plan synthetic terrain, and the zero
/// sigma is what makes the [`SpatialIndex`] candidate superset exact
/// (a mean-power radius bounds every link).
pub fn mesh_model() -> PathLossModel {
    PathLossModel {
        shadow_sigma_db: 0.0,
        ..office_model()
    }
}

/// Parameters of one mesh flood run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MeshParams {
    /// Node count.
    pub nodes: usize,
    /// Expected neighbors within the communication radius.
    pub density: f64,
    /// Master seed (placement, corruption).
    pub seed: u64,
    /// PPR delivery threshold η.
    pub eta: u8,
    /// Body bytes of the flooded frame.
    pub body_bytes: usize,
    /// Jammer actor ([`JammerSpec::Off`] = no adversary).
    pub jammer: JammerSpec,
    /// Node crash/restart churn, crashes per simulated second.
    pub churn: f64,
    /// PP-ARQ retry budget per node.
    pub arq_retries: u8,
    /// PP-ARQ backoff multiplier in exact integer milli-units
    /// (`1000` = ×1.0, the pre-adversary constant schedule).
    pub arq_backoff_milli: u64,
}

impl MeshParams {
    /// Benign parameters: no jammer, no churn, the historical retry
    /// budget and constant backoff — bit-identical to the pre-adversary
    /// driver.
    pub fn benign(nodes: usize, density: f64, seed: u64, eta: u8, body_bytes: usize) -> Self {
        MeshParams {
            nodes,
            density,
            seed,
            eta,
            body_bytes,
            jammer: JammerSpec::Off,
            churn: 0.0,
            arq_retries: MAX_ARQ_ROUNDS,
            arq_backoff_milli: 1000,
        }
    }

    /// Parameters from a scenario (`mesh_nodes`, `mesh_density`, seed,
    /// η; 250 B bodies; `jammer`/`churn`/`arq_retries`/`arq_backoff`
    /// adversarial axes).
    pub fn from_scenario(sc: &Scenario) -> Self {
        MeshParams {
            nodes: sc.mesh_nodes,
            density: sc.mesh_density,
            seed: sc.seed,
            eta: sc.eta,
            body_bytes: MESH_BODY_BYTES,
            jammer: sc.jammer,
            churn: sc.churn,
            arq_retries: sc.arq_retries,
            arq_backoff_milli: (sc.arq_backoff * 1000.0).round() as u64,
        }
    }
}

/// Deterministic counters of one mesh flood run — everything the
/// experiment reports, and what the checkpoint round-trip tests pin.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MeshStats {
    /// Node count.
    pub nodes: usize,
    /// Nodes that recovered the full payload.
    pub recovered: usize,
    /// All transmissions (flood + rebroadcasts + repairs).
    pub transmissions: usize,
    /// Repair (PP-ARQ) transmissions among them.
    pub repair_tx: usize,
    /// Receptions scheduled by spatial dispatch.
    pub receptions_scheduled: usize,
    /// Receptions actually run through the chip pipeline.
    pub receptions_evaluated: usize,
    /// Receptions skipped: receiver already recovered, or a unicast
    /// repair addressed elsewhere.
    pub receptions_skipped: usize,
    /// Receptions dropped because the receiver was transmitting
    /// (half-duplex).
    pub self_busy_drops: usize,
    /// Events dispatched by the queue — the numerator of events/sec.
    pub events_dispatched: u64,
    /// Total payload bytes requested over all PP-ARQ repair plans.
    pub repair_bytes_requested: usize,
    /// Correct payload bytes accumulated across all nodes.
    pub correct_bytes: usize,
    /// Chip-clock time of the last dispatched event.
    pub sim_chips: u64,
    /// Spatial shards (grid cells) of the index.
    pub shards: usize,
    /// Decode flushes performed.
    pub flush_batches: usize,
    /// Largest single decode batch.
    pub max_batch: usize,
    /// Jamming bursts emitted.
    pub jam_bursts: usize,
    /// Total chips jammed across all bursts.
    pub jam_chips: u64,
    /// Node crashes injected.
    pub crashes: usize,
    /// Node restarts injected.
    pub restarts: usize,
    /// Nodes whose PP-ARQ retry budget ran out unrecovered.
    pub retry_exhausted: usize,
}

impl MeshStats {
    /// Simulated seconds covered by the run.
    pub fn sim_seconds(&self) -> f64 {
        self.sim_chips as f64 / CHIP_RATE_HZ as f64
    }

    /// Fraction of nodes that recovered the payload.
    pub fn coverage(&self) -> f64 {
        self.recovered as f64 / self.nodes.max(1) as f64
    }
}

/// One on-air frame of the mesh run.
// ppr-lint: region(snapshot-state) begin mesh transmission store
struct MeshTx {
    /// snapshot: serialized — transmitting node.
    sender: usize,
    /// snapshot: serialized — link-layer destination ([`BROADCAST`] for
    /// flood frames, the requester for repairs).
    dst: u16,
    /// snapshot: serialized — start chip.
    start: u64,
    /// snapshot: rebuilt — derived from the reconstructed frame.
    len: u64,
    /// snapshot: rebuilt — the frame bytes are reconstructed from the
    /// ground-truth payload (flood) or the repair spans; the sequence
    /// number is the transmission's index in the store.
    frame: Frame,
    /// snapshot: serialized — for repairs: the payload spans this frame
    /// carries, in original payload coordinates (the receiver maps
    /// delivered bytes back through them).
    spans: Option<Vec<UnitRange>>,
}
// ppr-lint: region(snapshot-state) end

impl MeshTx {
    fn end(&self) -> u64 {
        self.start + self.len
    }
}

/// Per-node protocol state — the per-link PP-ARQ session state of the
/// flood. The chunking DP's scratch is *not* part of it: a repair plan
/// reconstructs its working state from the byte-correct mask on demand,
/// which is why checkpoints exclude `ChunkScratch` contents entirely.
#[derive(Clone)]
// ppr-lint: region(snapshot-state) begin mesh per-node ARQ session state
struct NodeState {
    /// snapshot: rebuilt — correct-byte count: the popcount of the
    /// node's `MeshDriver::masks` row over the payload's bits.
    correct: usize,
    /// snapshot: rebuilt — full payload recovered, i.e. `correct` is
    /// the payload length. A node rebroadcasts exactly once, when it
    /// recovers, so this is also "rebroadcast scheduled".
    recovered: bool,
    /// snapshot: serialized — a PP-ARQ timer is armed.
    timer_armed: bool,
    /// snapshot: serialized — node is up (fault injection crashes and
    /// restarts nodes; a crashed node neither sends nor receives, and
    /// loses its non-recovered partial state).
    alive: bool,
}
// ppr-lint: region(snapshot-state) end

impl NodeState {
    fn new() -> Self {
        NodeState {
            correct: 0,
            recovered: false,
            timer_armed: false,
            alive: true,
        }
    }
}

/// Whether bit `i` of a byte-correct mask is set.
fn mask_has(mask: &[u64], i: usize) -> bool {
    mask[i / 64] >> (i % 64) & 1 == 1
}

/// SplitMix64 — the stateless jitter hash (no RNG object, so scheduling
/// order can never perturb a shared stream).
fn jitter_hash(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Maps offsets within a frame's payload back to original payload
/// coordinates: the identity for an original frame, and through the
/// spans for a repair frame, whose payload is the concatenation of
/// `spans`. Offsets must come in increasing order, as a scheme accepts
/// them ([`DeliveryScheme::for_each_accepted`]), so one cursor walks the
/// spans once per frame.
struct RepairCursor<'a> {
    spans: Option<&'a [UnitRange]>,
    /// The span the last offset fell in.
    k: usize,
    /// Repair-payload offset where span `k` begins.
    base: usize,
}

impl<'a> RepairCursor<'a> {
    fn new(spans: Option<&'a [UnitRange]>) -> Self {
        RepairCursor {
            spans,
            k: 0,
            base: 0,
        }
    }

    /// The original payload coordinate of offset `off`, or `None` past
    /// the end of the spans.
    fn payload_offset(&mut self, off: usize) -> Option<usize> {
        let Some(spans) = self.spans else {
            return Some(off);
        };
        debug_assert!(off >= self.base, "offsets must increase");
        while let Some(s) = spans.get(self.k) {
            if off < self.base + s.len() {
                return Some(s.start + (off - self.base));
            }
            self.base += s.len();
            self.k += 1;
        }
        None
    }
}

/// Runs one mesh flood on the calling thread. `threads` is ignored; it
/// stays only so existing callers keep compiling.
pub fn run_mesh(params: &MeshParams, threads: Option<usize>) -> MeshStats {
    MeshDriver::new(params, threads).run_to_end()
}

/// [`run_mesh`] with a checkpoint in the middle: the flood is driven to
/// the `checkpoint_events` dispatch boundary, serialized, restored from
/// the bytes, and completed. Stats (including the flush-batch counters
/// the rendered report prints) are bit-identical to an uninterrupted
/// run: a checkpoint serializes the pending decode batch *as is* rather
/// than forcing an early flush, so batch boundaries never move.
pub fn run_mesh_checkpointed(params: &MeshParams, checkpoint_events: u64) -> MeshStats {
    let mut driver = MeshDriver::new(params, None);
    driver.run_events(checkpoint_events);
    let bytes = driver.save().to_bytes();
    drop(driver);
    let snap = MeshSnapshot::from_bytes(&bytes).expect("mesh snapshot bytes round-trip");
    MeshDriver::restore(params, &snap)
        .expect("mesh snapshot restores against its own params")
        .run_to_end()
}

/// The mesh flood as a resumable state machine: the event loop of the
/// module docs, with [`MeshDriver::save`]/[`MeshDriver::restore`] to
/// checkpoint it at any event boundary. Unlike the testbed driver, a
/// mesh checkpoint does *not* flush the pending decode batch — the
/// batch (and its deadline) is serialized verbatim, so the flush
/// statistics printed in the experiment report are unchanged by
/// checkpointing.
pub struct MeshDriver {
    // ppr-lint: region(snapshot-state) begin mesh flood driver state
    /// snapshot: identity — run parameters, validated on restore.
    params: MeshParams,
    /// snapshot: rebuilt — propagation model, derived from nothing.
    model: PathLossModel,
    /// snapshot: rebuilt — noise floor, derived from the model.
    noise: f64,
    /// snapshot: rebuilt — node placement, derived from the seed.
    tb: Testbed,
    /// snapshot: rebuilt — spatial shards, derived from the placement.
    index: SpatialIndex,
    /// snapshot: rebuilt — delivery scheme, derived from η.
    scheme: DeliveryScheme,
    /// snapshot: rebuilt — payload length, derived from the scheme.
    payload_len: usize,
    /// snapshot: rebuilt — ground-truth payload, derived from the
    /// seed-determined flood source.
    truth: Vec<u8>,
    /// snapshot: rebuilt — stateless per-packet receiver.
    fast: FastRx,
    /// snapshot: serialized — per-node PP-ARQ session state
    /// (`ChunkScratch` contents excluded: the DP reconstructs its
    /// working state from the mask on demand).
    states: Vec<NodeState>,
    /// snapshot: serialized — every node's byte-correct bitmask over
    /// the payload, `payload_len.div_ceil(64)` words per node in node
    /// order: one allocation for the whole mesh, serialized per node.
    masks: Vec<u64>,
    /// snapshot: serialized — the transmission store, as
    /// (sender, dst, start, spans); frames are reconstructed.
    txs: Vec<MeshTx>,
    /// snapshot: rebuilt — per-sender (start, end, id) transmission
    /// windows, reconstructed from `started` and the store.
    own_tx: Vec<Vec<(u64, u64, u64)>>,
    /// snapshot: serialized — tx ids whose TxStart already dispatched,
    /// in dispatch order.
    started: Vec<usize>,
    /// snapshot: serialized — the event queue with keys verbatim, plus
    /// its push/dispatch counters.
    q: BinaryHeapQueue<SimEvent>,
    /// snapshot: serialized — the ten running counters, flat in field
    /// order; node and shard counts, transmissions and repairs are
    /// recounted on restore, and the end-of-run totals are set by
    /// [`MeshDriver::run_to_end`].
    stats: MeshStats,
    /// snapshot: serialized — completed-but-undecoded receptions, in
    /// pop order (never flushed early by a checkpoint).
    pending: Vec<(usize, usize)>,
    /// snapshot: serialized — flush deadline of the pending batch.
    pending_deadline: u64,
    /// snapshot: rebuilt — scratch buffer for spatial candidate lists.
    cand_buf: Vec<u32>,
    /// snapshot: serialized — chip time of the last dispatched event.
    last_time: u64,
    /// snapshot: serialized — the jammer actor's dynamic state (RNG
    /// words, busy horizon, sweep step, scheduled + recorded bursts);
    /// its spec is identity-validated on restore.
    adversary: AdversaryState,
    /// snapshot: rebuilt — the fault plan is a pure function of
    /// `(seed, churn, nodes, source)` and is regenerated on restore.
    fault_plan: FaultPlan,
    /// snapshot: rebuilt — retry/backoff schedule, derived from params.
    policy: BackoffPolicy,
    // ppr-lint: region(snapshot-state) end
}

impl MeshDriver {
    /// Builds a driver at event zero: placement, spatial index and
    /// source selection done, the source's flood frame scheduled.
    /// `_threads` is ignored: the driver runs on the calling thread, and
    /// the argument stays only so existing callers keep compiling.
    pub fn new(params: &MeshParams, _threads: Option<usize>) -> Self {
        let model = mesh_model();
        let noise = model.noise_mw();
        let comm_radius = model.range_at_snr_m(SQUELCH_SNR);
        let tb = Testbed::mesh(params.seed, params.nodes, params.density, comm_radius);
        let pts: &[Point] = &tb.senders;
        let n = pts.len();
        let index = SpatialIndex::build(pts, model.interference_radius_m());

        let scheme = DeliveryScheme::Ppr { eta: params.eta };
        let payload_len = scheme.payload_len(params.body_bytes);

        // Source: the node nearest the center of the deployment square.
        let side = pts.iter().flat_map(|p| [p.x, p.y]).fold(0.0f64, f64::max);
        let center = Point::new(side / 2.0, side / 2.0);
        let source = (0..n)
            .min_by(|&a, &b| {
                pts[a]
                    .distance(&center)
                    .partial_cmp(&pts[b].distance(&center))
                    .unwrap()
            })
            .expect("mesh has nodes");

        let truth = payload_pattern(source, 0, payload_len);

        let mask_words = payload_len.div_ceil(64);
        let mut masks = vec![0u64; n * mask_words];
        masks[source * mask_words..(source + 1) * mask_words].fill(u64::MAX);
        let mut states: Vec<NodeState> = vec![NodeState::new(); n];
        states[source].correct = payload_len;
        states[source].recovered = true;

        let stats = MeshStats {
            nodes: n,
            shards: index.shard_count(),
            ..Default::default()
        };
        let adversary = AdversaryState::new(params.jammer, params.seed, side);
        let fault_plan = FaultPlan::generate(params.seed, params.churn, n, source);
        let policy = BackoffPolicy {
            max_retries: params.arq_retries,
            base_delay: ARQ_TIMEOUT,
            multiplier_milli: params.arq_backoff_milli,
            jitter_span: 0,
        };
        let mut driver = MeshDriver {
            params: *params,
            model,
            noise,
            tb,
            index,
            scheme,
            payload_len,
            truth: truth.clone(),
            fast: FastRx::new(true),
            states,
            masks,
            txs: Vec::new(),
            own_tx: vec![Vec::new(); n], // (start, end, tx id)
            started: Vec::new(),
            q: BinaryHeapQueue::new(),
            stats,
            // Pending completed-but-undecoded receptions, in pop order
            // as (tx idx, receiver).
            pending: Vec::new(),
            pending_deadline: u64::MAX,
            cand_buf: Vec::new(),
            last_time: 0,
            adversary,
            fault_plan,
            policy,
        };
        driver.schedule_tx(source, BROADCAST, 0, truth, None);
        // Adversarial events ride the same queue. With the jammer off
        // and zero churn, nothing below schedules — the benign queue
        // (and every key it assigns) is bit-identical to the
        // pre-adversary driver.
        if let Some(t) = driver.adversary.initial_burst_time() {
            driver.q.schedule(
                t,
                priority(prio::JAM_BURST, 0),
                SimEvent::JamBurst { jammer: 0 },
            );
        }
        for i in 0..driver.fault_plan.faults.len() {
            let f = driver.fault_plan.faults[i];
            driver.q.schedule(
                f.time,
                priority(prio::NODE_FAULT, f.node as u32),
                SimEvent::NodeFault {
                    node: f.node,
                    up: f.up,
                },
            );
        }
        driver
    }

    /// Node `r`'s row of `masks`: its byte-correct mask.
    fn mask_row(&self, r: usize) -> std::ops::Range<usize> {
        let w = self.payload_len.div_ceil(64);
        r * w..(r + 1) * w
    }

    /// Mean-power link gain (the mesh model has zero shadowing).
    fn gain(&self, s: usize, r: usize) -> f64 {
        self.model
            .rx_power_mw(self.tb.senders[s].distance(&self.tb.senders[r]), 0.0)
    }

    /// Appends a transmission to the store (its sequence number is its
    /// index) and schedules its TxStart.
    fn schedule_tx(
        &mut self,
        sender: usize,
        dst: u16,
        start: u64,
        body: Vec<u8>,
        spans: Option<Vec<UnitRange>>,
    ) {
        let seq = self.txs.len() as u16;
        let frame = Frame::new(dst, sender as u16, seq, body);
        let len = frame.chips_len() as u64;
        let idx = self.txs.len();
        self.txs.push(MeshTx {
            sender,
            dst,
            start,
            len,
            frame,
            spans,
        });
        self.q.schedule(
            start,
            priority(prio::TX_START, sender as u32),
            SimEvent::TxStart { tx: idx },
        );
    }

    /// Runs reception `(ti, r)` through the chip pipeline and returns
    /// the received frame (`None` when nothing is acquired). Reads only
    /// state a flush never changes: the transmissions that were on the
    /// air, positions and the adversary's recorded bursts.
    fn decode(&self, ti: usize, r: usize) -> Option<RxFrame> {
        let t = &self.txs[ti];
        let signal = self.gain(t.sender, r);
        let me = HeardTx {
            id: ti as u64,
            start_chip: t.start,
            len_chips: t.len,
            power_mw: signal,
        };
        // Interferers: every overlapping transmission from a sender
        // inside the receiver's 3×3 cell neighborhood. Beyond that
        // radius a sender's mean power is below the noise floor.
        let mut heard = vec![me];
        let mut cands = Vec::new();
        self.index.candidates_into(&self.tb.senders[r], &mut cands);
        for &s in &cands {
            let s = s as usize;
            if s == r {
                continue;
            }
            for &(os, oe, oid) in &self.own_tx[s] {
                if oid != ti as u64 && os < t.end() && t.start < oe {
                    heard.push(HeardTx {
                        id: oid,
                        start_chip: os,
                        len_chips: oe - os,
                        power_mw: self.gain(s, r),
                    });
                }
            }
        }
        // Jamming bursts are just more interferers: each overlapping
        // burst contributes its path-loss power at the receiver through
        // the same profile math as a colliding frame. Ids count down
        // from u64::MAX so they can never collide with transmission ids.
        for (k, b) in self
            .adversary
            .bursts_overlapping(t.start, t.end())
            .enumerate()
        {
            heard.push(HeardTx {
                id: u64::MAX - k as u64,
                start_chip: b.start,
                len_chips: b.end - b.start,
                power_mw: self
                    .model
                    .rx_power_mw(b.pos().distance(&self.tb.senders[r]), 0.0),
            });
        }
        let spans = interference_profile(&me, &heard);
        // Link degradation raises this receiver's noise floor for the
        // window (×1.0 — bit-exact — outside one).
        let noise = self.noise * self.fault_plan.noise_factor(r, t.start, t.end());
        let profile = ErrorProfile::from_interference(signal, noise, &spans);
        let mut corrupted = t.frame.chip_words();
        let mut rng = StdRng::seed_from_u64(reception_rng_seed(self.params.seed, ti as u64, r));
        corrupt_chip_words_in_place(&mut corrupted, &profile, &mut rng);
        self.fast.receive_words(&t.frame, &corrupted, true).1
    }

    /// Decodes the pending batch and applies outcomes in batch order.
    /// Outcomes: mask updates, first-recovery rebroadcast scheduling,
    /// ARQ timer arming. Applying an outcome never changes what a later
    /// decode in the batch reads (see [`MeshDriver::decode`]).
    fn flush(&mut self) {
        if !self.pending.is_empty() {
            // Work selection is sequential and reads only pre-flush
            // state, so it is batch-order deterministic.
            let mut work: Vec<(usize, usize)> = Vec::new();
            for &(ti, r) in &self.pending {
                let t = &self.txs[ti];
                if t.dst != BROADCAST && t.dst != r as u16 {
                    self.stats.receptions_skipped += 1;
                    continue;
                }
                // A crashed receiver hears nothing (it may have died
                // between reception scheduling and this flush).
                if !self.states[r].alive {
                    self.stats.receptions_skipped += 1;
                    continue;
                }
                // Half-duplex before anything else: a transmitting
                // node hears nothing, recovered or not.
                if self.own_tx[r]
                    .iter()
                    .any(|&(s, e, _)| s < t.end() && t.start < e)
                {
                    self.stats.self_busy_drops += 1;
                    continue;
                }
                if self.states[r].recovered {
                    self.stats.receptions_skipped += 1;
                    continue;
                }
                work.push((ti, r));
            }
            self.stats.receptions_evaluated += work.len();
            self.stats.flush_batches += 1;
            self.stats.max_batch = self.stats.max_batch.max(work.len());

            for (ti, r) in work {
                let end = self.txs[ti].end();
                let mut rebroadcast = false;
                if let Some(rx) = self.decode(ti, r) {
                    let row = self.mask_row(r);
                    let mask = &mut self.masks[row];
                    let st = &mut self.states[r];
                    if let Some(body) = ReceivedBody::of(&rx) {
                        let mut repair = RepairCursor::new(self.txs[ti].spans.as_deref());
                        let (truth, payload_len) = (&self.truth, self.payload_len);
                        self.scheme.for_each_accepted(&body, |off, b| {
                            if let Some(off) = repair.payload_offset(off) {
                                if off < payload_len && truth[off] == b && !mask_has(mask, off) {
                                    mask[off / 64] |= 1 << (off % 64);
                                    st.correct += 1;
                                }
                            }
                        });
                    }
                    if st.correct == self.payload_len && !st.recovered {
                        st.recovered = true;
                        rebroadcast = true;
                    }
                }
                if rebroadcast {
                    let jitter =
                        jitter_hash(self.params.seed ^ ((r as u64) << 20) ^ 0xB0) % JITTER_SPAN;
                    let body = self.truth.clone();
                    self.schedule_tx(r, BROADCAST, end + SAFE_WINDOW + jitter, body, None);
                }
                // A partial node arms its PP-ARQ timer off any
                // evaluated reception (it heard *something*).
                let st = &mut self.states[r];
                if !st.recovered && !st.timer_armed {
                    st.timer_armed = true;
                    self.q.schedule(
                        end + self.policy.delay(0),
                        priority(prio::ARQ_TIMER, r as u32),
                        SimEvent::ArqTimer { node: r, round: 0 },
                    );
                }
            }
            self.pending.clear();
        }
        self.pending_deadline = u64::MAX;
    }

    /// Dispatches the next event (or, on queue drain, performs the
    /// final flush). Returns `false` when the run is complete.
    fn step(&mut self) -> bool {
        let Some((key, ev)) = self.q.pop() else {
            // Queue drained — but the flush may recover nodes and
            // schedule their rebroadcasts, so only a flush that adds
            // nothing ends the run.
            self.flush();
            return !self.q.is_empty();
        };
        self.last_time = self.last_time.max(key.time);
        // The flush rule: decode before the clock passes the window,
        // and always before a state-reading event runs (ARQ timers and
        // node faults both read/write node state; a JamBurst only
        // touches the actor, so it needs no flush).
        if key.time >= self.pending_deadline
            || matches!(ev, SimEvent::ArqTimer { .. } | SimEvent::NodeFault { .. })
        {
            self.flush();
        }
        match ev {
            SimEvent::TxStart { tx } => {
                let (sender, start, end) = {
                    let t = &self.txs[tx];
                    (t.sender, t.start, t.end())
                };
                // A crashed sender's scheduled frame never hits the
                // air: no transmission counted, no receptions.
                if !self.states[sender].alive {
                    return true;
                }
                self.stats.transmissions += 1;
                self.own_tx[sender].push((start, end, tx as u64));
                self.started.push(tx);
                self.cand_buf.clear();
                let mut cand_buf = std::mem::take(&mut self.cand_buf);
                self.index
                    .candidates_into(&self.tb.senders[sender], &mut cand_buf);
                for &r in &cand_buf {
                    let r = r as usize;
                    if r == sender
                        || !self.states[r].alive
                        || self.gain(sender, r) / self.noise < SQUELCH_SNR
                    {
                        continue;
                    }
                    self.stats.receptions_scheduled += 1;
                    self.q.schedule(
                        end,
                        priority(prio::RECEPTION, r as u32),
                        SimEvent::ReceptionComplete { tx, receiver: r },
                    );
                }
                self.cand_buf = cand_buf;
                // Reactive jammer: sense this frame start at the
                // jammer's position (same squelch rule as a receiver)
                // and, if it triggers, schedule the burst event.
                if self.adversary.active() {
                    let d = self.tb.senders[sender].distance(&self.adversary.pos());
                    let sense_ok = self.model.rx_power_mw(d, 0.0) / self.noise >= SQUELCH_SNR;
                    if let Some(t) = self.adversary.on_tx_start(start, end, sense_ok) {
                        self.q.schedule(
                            t,
                            priority(prio::JAM_BURST, 0),
                            SimEvent::JamBurst { jammer: 0 },
                        );
                    }
                }
            }
            SimEvent::ReceptionComplete { tx, receiver } => {
                if self.pending.is_empty() {
                    self.pending_deadline = key.time + SAFE_WINDOW;
                }
                self.pending.push((tx, receiver));
            }
            SimEvent::ArqTimer { node, round } => {
                self.states[node].timer_armed = false;
                if self.states[node].recovered || !self.states[node].alive {
                    return true;
                }
                // Plan the repair request with the paper's chunking DP
                // over the byte-correct mask.
                let mask = &self.masks[self.mask_row(node)];
                let labels: Vec<bool> = (0..self.payload_len).map(|i| mask_has(mask, i)).collect();
                let rl = RunLengths::from_labels(&labels);
                let plan = plan_chunks(&rl, &CostModel::bytes(self.payload_len));
                if plan.chunks.is_empty() {
                    return true;
                }
                // Best recovered neighbor repairs; ties break to the
                // lowest id (strict > comparison over exact gains).
                self.cand_buf.clear();
                let mut cand_buf = std::mem::take(&mut self.cand_buf);
                self.index
                    .candidates_into(&self.tb.senders[node], &mut cand_buf);
                let mut peer: Option<(usize, f64)> = None;
                for &c in &cand_buf {
                    let c = c as usize;
                    if c == node || !self.states[c].recovered || !self.states[c].alive {
                        continue;
                    }
                    let g = self.gain(c, node);
                    if g / self.noise < SQUELCH_SNR {
                        continue;
                    }
                    if peer.map(|(_, best)| g > best).unwrap_or(true) {
                        peer = Some((c, g));
                    }
                }
                self.cand_buf = cand_buf;
                if let Some((peer, _)) = peer {
                    self.stats.repair_tx += 1;
                    self.stats.repair_bytes_requested += plan.requested_units();
                    let repair: Vec<u8> = plan
                        .chunks
                        .iter()
                        .flat_map(|s| self.truth[s.start..s.end].iter().copied())
                        .collect();
                    let jitter = jitter_hash(
                        self.params.seed ^ ((node as u64) << 20) ^ ((round as u64) << 8) ^ 0xA7,
                    ) % JITTER_SPAN;
                    let start = key.time + SAFE_WINDOW + jitter;
                    self.schedule_tx(peer, node as u16, start, repair, Some(plan.chunks.clone()));
                    if self.policy.allows(round + 1) {
                        let repair_end = self.txs.last().unwrap().end();
                        self.states[node].timer_armed = true;
                        self.q.schedule(
                            repair_end + self.policy.delay(round + 1),
                            priority(prio::ARQ_TIMER, node as u32),
                            SimEvent::ArqTimer {
                                node,
                                round: round + 1,
                            },
                        );
                    } else {
                        // Last round: whatever this final repair
                        // delivers, nobody will ask again.
                        self.stats.retry_exhausted += 1;
                    }
                } else if self.policy.allows(round + 1) {
                    // Nobody nearby has the payload yet — retry after
                    // the flood has had time to advance.
                    self.states[node].timer_armed = true;
                    self.q.schedule(
                        key.time + 2 * self.policy.delay(round + 1),
                        priority(prio::ARQ_TIMER, node as u32),
                        SimEvent::ArqTimer {
                            node,
                            round: round + 1,
                        },
                    );
                } else {
                    self.stats.retry_exhausted += 1;
                }
            }
            SimEvent::JamBurst { .. } => {
                // The actor records this slot's burst (if any) and
                // names its successor; the driver owns the queue.
                if let Some(next) = self.adversary.on_jam_burst(key.time) {
                    self.q.schedule(
                        next,
                        priority(prio::JAM_BURST, 0),
                        SimEvent::JamBurst { jammer: 0 },
                    );
                }
            }
            SimEvent::NodeFault { node, up } => {
                let row = self.mask_row(node);
                let st = &mut self.states[node];
                st.alive = up;
                if up {
                    self.stats.restarts += 1;
                } else {
                    self.stats.crashes += 1;
                    // A crash loses volatile reception state; a node
                    // that already recovered keeps its stored payload.
                    if !st.recovered {
                        st.correct = 0;
                        self.masks[row].fill(0);
                    }
                }
            }
            other => unreachable!("unexpected {other:?} in the mesh driver"),
        }
        true
    }

    /// Total events dispatched so far — the checkpoint epoch counter.
    pub fn dispatched(&self) -> u64 {
        self.q.dispatched()
    }

    /// Drives the flood until `events` total dispatches or until the run
    /// completes, whichever is first.
    pub fn run_events(&mut self, events: u64) {
        while self.q.dispatched() < events {
            if !self.step() {
                break;
            }
        }
    }

    /// Runs to completion and returns the final stats.
    pub fn run_to_end(mut self) -> MeshStats {
        while self.step() {}
        self.stats.events_dispatched = self.q.dispatched();
        self.stats.sim_chips = self.last_time;
        self.stats.recovered = self.states.iter().filter(|s| s.recovered).count();
        self.stats.correct_bytes = self.states.iter().map(|s| s.correct).sum();
        self.stats.jam_bursts = self.adversary.bursts().len();
        self.stats.jam_chips = self.adversary.jam_chips();
        self.stats
    }

    /// Checkpoints the driver — *without* flushing the pending decode
    /// batch, which is serialized verbatim so the run's flush
    /// statistics (printed in the report) cannot shift.
    pub fn save(&self) -> MeshSnapshot {
        let (queue, next_seq, dispatched) = self.q.save_state();
        let (adv_rng, adv_busy_until, adv_sweep_idx, adv_scheduled, adv_bursts) =
            self.adversary.save_state();
        MeshSnapshot {
            nodes: self.params.nodes,
            density: self.params.density,
            seed: self.params.seed,
            eta: self.params.eta,
            body_bytes: self.params.body_bytes,
            jammer: self.params.jammer.identity_words(),
            churn: self.params.churn,
            arq_retries: self.params.arq_retries,
            arq_backoff_milli: self.params.arq_backoff_milli,
            adv_rng,
            adv_busy_until,
            adv_sweep_idx,
            adv_scheduled,
            adv_bursts,
            kernel_signature: ppr_phy::simd::active_kernel_signature().into_bytes(),
            states: self
                .states
                .iter()
                .enumerate()
                .map(|(i, st)| MeshNodeSnapshot {
                    mask: self.masks[self.mask_row(i)].to_vec(),
                    timer_armed: st.timer_armed,
                    alive: st.alive,
                })
                .collect(),
            txs: self
                .txs
                .iter()
                .map(|t| MeshTxSnapshot {
                    sender: t.sender,
                    dst: t.dst,
                    start: t.start,
                    spans: t
                        .spans
                        .as_ref()
                        .map(|spans| spans.iter().map(|s| (s.start, s.end)).collect()),
                })
                .collect(),
            started: self.started.clone(),
            queue,
            next_seq,
            dispatched,
            pending: self.pending.clone(),
            pending_deadline: self.pending_deadline,
            last_time: self.last_time,
            stats: running_counters(&mut self.stats.clone())
                .map(|c| *c as u64)
                .to_vec(),
        }
    }

    /// Rebuilds a driver from a checkpoint, validating the snapshot's
    /// identity against `params` and every index against the
    /// reconstructed run. Frames are rebuilt from the ground-truth
    /// payload (flood) or their repair spans; each node's correct-byte
    /// count and recovery flag from its mask; and the stats the
    /// snapshot does not carry from the rebuilt run.
    pub fn restore(params: &MeshParams, snap: &MeshSnapshot) -> Result<Self, SnapError> {
        if params.nodes != snap.nodes
            || params.density.to_bits() != snap.density.to_bits()
            || params.seed != snap.seed
            || params.eta != snap.eta
            || params.body_bytes != snap.body_bytes
            || params.jammer.identity_words() != snap.jammer
            || params.churn.to_bits() != snap.churn.to_bits()
            || params.arq_retries != snap.arq_retries
            || params.arq_backoff_milli != snap.arq_backoff_milli
        {
            return Err(SnapError::IdentityMismatch(
                "MeshParams differ from the snapshot's".into(),
            ));
        }
        let mut driver = MeshDriver::new(params, None);
        let n = driver.states.len();
        let payload_len = driver.payload_len;
        let mask_words = payload_len.div_ceil(64);
        if snap.states.len() != n {
            return Err(SnapError::Corrupt(format!(
                "{} node states for {n} nodes",
                snap.states.len()
            )));
        }
        for (i, st) in snap.states.iter().enumerate() {
            if st.mask.len() != mask_words {
                return Err(SnapError::Corrupt(format!("node {i} state out of bounds")));
            }
        }
        let ntx = snap.txs.len();
        for (i, t) in snap.txs.iter().enumerate() {
            let spans_ok = t.spans.as_ref().is_none_or(|spans| {
                !spans.is_empty() && spans.iter().all(|&(s, e)| s < e && e <= payload_len)
            });
            if t.sender >= n || !spans_ok {
                return Err(SnapError::Corrupt(format!(
                    "transmission {i} out of bounds"
                )));
            }
        }
        if snap.started.iter().any(|&id| id >= ntx) {
            return Err(SnapError::Corrupt("started id beyond the store".into()));
        }
        for (key, ev) in &snap.queue {
            let ok = match *ev {
                SimEvent::TxStart { tx } => tx < ntx,
                SimEvent::ReceptionComplete { tx, receiver } => tx < ntx && receiver < n,
                SimEvent::ArqTimer { node, round } => node < n && round < params.arq_retries,
                SimEvent::JamBurst { jammer } => jammer == 0,
                SimEvent::NodeFault { node, .. } => node < n,
                _ => false,
            };
            if !ok || key.seq >= snap.next_seq {
                return Err(SnapError::Corrupt(format!(
                    "queue entry {key:?} {ev:?} out of bounds"
                )));
            }
        }
        if snap.pending.iter().any(|&(t, r)| t >= ntx || r >= n) {
            return Err(SnapError::Corrupt("pending reception out of bounds".into()));
        }
        let mut stats = MeshStats {
            transmissions: snap.started.len(),
            repair_tx: snap.txs.iter().filter(|t| t.spans.is_some()).count(),
            ..driver.stats
        };
        let counters = running_counters(&mut stats);
        if snap.stats.len() != counters.len() {
            return Err(SnapError::Corrupt(format!(
                "{} stats words, expected {}",
                snap.stats.len(),
                counters.len()
            )));
        }
        for (c, &w) in counters.into_iter().zip(&snap.stats) {
            *c = usize::try_from(w)
                .map_err(|_| SnapError::Corrupt(format!("stats word {w} overflows")))?;
        }

        driver.states = snap
            .states
            .iter()
            .map(|st| {
                // Only the payload's bits count: the source's row is
                // whole `u64::MAX` words.
                let correct = (0..payload_len).filter(|&i| mask_has(&st.mask, i)).count();
                NodeState {
                    correct,
                    recovered: correct == payload_len,
                    timer_armed: st.timer_armed,
                    alive: st.alive,
                }
            })
            .collect();
        driver.masks = snap
            .states
            .iter()
            .flat_map(|st| st.mask.iter().copied())
            .collect();
        driver.txs = snap
            .txs
            .iter()
            .enumerate()
            .map(|(idx, t)| {
                let (body, spans) = match &t.spans {
                    None => (driver.truth.clone(), None),
                    Some(spans) => {
                        let spans: Vec<UnitRange> =
                            spans.iter().map(|&(s, e)| UnitRange::new(s, e)).collect();
                        let body: Vec<u8> = spans
                            .iter()
                            .flat_map(|s| driver.truth[s.start..s.end].iter().copied())
                            .collect();
                        (body, Some(spans))
                    }
                };
                let frame = Frame::new(t.dst, t.sender as u16, idx as u16, body);
                let len = frame.chips_len() as u64;
                MeshTx {
                    sender: t.sender,
                    dst: t.dst,
                    start: t.start,
                    len,
                    frame,
                    spans,
                }
            })
            .collect();
        driver.own_tx = vec![Vec::new(); n];
        for &id in &snap.started {
            let t = &driver.txs[id];
            driver.own_tx[t.sender].push((t.start, t.end(), id as u64));
        }
        driver.started = snap.started.clone();
        driver.q = BinaryHeapQueue::from_state(snap.queue.clone(), snap.next_seq, snap.dispatched);
        driver.stats = stats;
        driver.pending = snap.pending.clone();
        driver.pending_deadline = snap.pending_deadline;
        driver.last_time = snap.last_time;
        driver.adversary.restore_state((
            snap.adv_rng,
            snap.adv_busy_until,
            snap.adv_sweep_idx,
            snap.adv_scheduled.clone(),
            snap.adv_bursts.clone(),
        ));
        Ok(driver)
    }
}

/// The running counters of [`MeshStats`], in field order — what the
/// snapshot's stats section holds. Every other field is recomputed on
/// restore.
fn running_counters(s: &mut MeshStats) -> [&mut usize; 10] {
    [
        &mut s.receptions_scheduled,
        &mut s.receptions_evaluated,
        &mut s.receptions_skipped,
        &mut s.self_busy_drops,
        &mut s.repair_bytes_requested,
        &mut s.flush_batches,
        &mut s.max_batch,
        &mut s.crashes,
        &mut s.restarts,
        &mut s.retry_exhausted,
    ]
}

/// The `mesh10k` experiment.
pub struct Mesh10k;

impl Experiment for Mesh10k {
    fn id(&self) -> &'static str {
        "mesh10k"
    }

    fn title(&self) -> &'static str {
        "Event core at scale: mesh broadcast flood with PP-ARQ"
    }

    fn paper_ref(&self) -> &'static str {
        "Section 8.4 (extension)"
    }

    fn description(&self) -> &'static str {
        "10k-node random-geometric flood through the event queue + spatial shards"
    }

    fn run(&self, scenario: &Scenario) -> ExperimentResult {
        let params = MeshParams::from_scenario(scenario);
        let s = match scenario.checkpoint {
            None => run_mesh(&params, None),
            Some(events) => run_mesh_checkpointed(&params, events),
        };
        let sim_s = s.sim_seconds();
        let mut res = ExperimentResult::new(self.id(), self.title(), self.paper_ref(), scenario);
        res.text(format!(
            "Event core at scale: {} nodes, density {:.1}, {} B bodies, eta {}\n\n\
             coverage            {:>10.3}  ({} of {} nodes recovered)\n\
             transmissions       {:>10}  ({} PP-ARQ repairs)\n\
             receptions          {:>10}  evaluated ({} scheduled, {} skipped, {} half-duplex drops)\n\
             events dispatched   {:>10}\n\
             simulated time      {:>10.3}  s  ({:.0} packets/s of simulated airtime)\n\
             spatial shards      {:>10}  (largest decode batch {})\n\
             repair bytes asked  {:>10}\n\n\
             Deterministic counts only: wall-clock events/sec for this run is\n\
             measured by ppr-bench (BENCH_packed.json, mesh rows).\n",
            s.nodes,
            params.density,
            params.body_bytes,
            params.eta,
            s.coverage(),
            s.recovered,
            s.nodes,
            s.transmissions,
            s.repair_tx,
            s.receptions_evaluated,
            s.receptions_scheduled,
            s.receptions_skipped,
            s.self_busy_drops,
            s.events_dispatched,
            sim_s,
            s.transmissions as f64 / sim_s.max(1e-9),
            s.shards,
            s.max_batch,
            s.repair_bytes_requested,
        ));
        res.metric("nodes", s.nodes as f64);
        res.metric("recovered", s.recovered as f64);
        res.metric("coverage", s.coverage());
        res.metric("transmissions", s.transmissions as f64);
        res.metric("repair_tx", s.repair_tx as f64);
        res.metric("receptions_evaluated", s.receptions_evaluated as f64);
        res.metric("receptions_skipped", s.receptions_skipped as f64);
        res.metric("self_busy_drops", s.self_busy_drops as f64);
        res.metric("events_dispatched", s.events_dispatched as f64);
        res.metric("sim_seconds", sim_s);
        res.metric(
            "sim_packets_per_sec",
            s.transmissions as f64 / sim_s.max(1e-9),
        );
        res.metric("spatial_shards", s.shards as f64);
        res.metric("repair_bytes_requested", s.repair_bytes_requested as f64);
        res.metric("correct_bytes", s.correct_bytes as f64);
        res
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> MeshParams {
        MeshParams::benign(300, 12.0, 3, 6, 250)
    }

    fn small_jammed() -> MeshParams {
        let mut p = small();
        p.jammer = JammerSpec::React { delay: 4096 };
        p.churn = 2.0;
        p.arq_retries = 5;
        p.arq_backoff_milli = 1500;
        p
    }

    #[test]
    fn flood_covers_most_of_a_small_mesh() {
        let s = run_mesh(&small(), None);
        assert_eq!(s.nodes, 300);
        assert!(s.coverage() > 0.8, "coverage {}", s.coverage());
        assert!(s.transmissions >= s.nodes / 2, "tx {}", s.transmissions);
        assert!(
            s.receptions_evaluated > s.nodes,
            "rx {}",
            s.receptions_evaluated
        );
        assert!(s.events_dispatched > 0 && s.sim_chips > 0);
        assert!(s.shards > 1);
    }

    #[test]
    fn mesh_checkpoint_roundtrip_is_bit_identical() {
        let a = run_mesh(&small(), None);
        for events in [1, 57, 913] {
            let b = run_mesh_checkpointed(&small(), events);
            assert_eq!(a, b, "checkpoint at {events} events");
        }
    }

    #[test]
    fn mesh_is_seed_stable_but_seed_sensitive() {
        let a = run_mesh(&small(), None);
        let b = run_mesh(&small(), None);
        assert_eq!(a, b);
        let mut p = small();
        p.seed = 4;
        let c = run_mesh(&p, None);
        assert_ne!(a, c);
    }

    #[test]
    fn jammed_mesh_exercises_the_adversary() {
        let a = run_mesh(&small_jammed(), None);
        assert_eq!(a, run_mesh(&small_jammed(), None));
        assert!(a.jam_bursts > 0, "reactive jammer never fired");
        assert!(a.crashes > 0, "churn produced no crashes");
    }

    #[test]
    fn jammed_mesh_checkpoint_roundtrip_is_bit_identical() {
        let a = run_mesh(&small_jammed(), None);
        for events in [1, 57, 913] {
            let b = run_mesh_checkpointed(&small_jammed(), events);
            assert_eq!(a, b, "checkpoint at {events} events");
        }
    }

    #[test]
    fn benign_params_change_nothing() {
        // The adversarial fields at their defaults must leave the
        // benign flood bit-identical to the pre-adversary driver.
        let s = run_mesh(&small(), None);
        assert_eq!(s.jam_bursts, 0);
        assert_eq!(s.jam_chips, 0);
        assert_eq!(s.crashes + s.restarts, 0);
    }

    #[test]
    fn repair_offsets_map_through_spans() {
        let spans = vec![
            UnitRange::new(3, 5),
            UnitRange::new(7, 7),
            UnitRange::new(10, 13),
        ];
        let mut c = RepairCursor::new(Some(&spans));
        assert_eq!(c.payload_offset(0), Some(3));
        assert_eq!(c.payload_offset(1), Some(4));
        assert_eq!(c.payload_offset(2), Some(10));
        assert_eq!(c.payload_offset(4), Some(12));
        assert_eq!(c.payload_offset(5), None);
        // Skipping ahead lands where a fresh cursor does.
        let mut skip = RepairCursor::new(Some(&spans));
        assert_eq!(skip.payload_offset(3), Some(11));
        assert_eq!(RepairCursor::new(None).payload_offset(9), Some(9));
    }
}
