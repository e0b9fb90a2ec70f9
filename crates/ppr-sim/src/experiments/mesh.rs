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
//!   DP ([`plan_chunks_with`]) over its byte-correct bitmask and asks its
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
//!   an event at or past `earliest pending completion + `[`SAFE_WINDOW`]
//!   pops (or when an ARQ timer or a node fault — the state-reading
//!   events — pops, or at queue drain);
//! * every outcome-scheduled event (rebroadcast, repair, timer) lands at
//!   least [`SAFE_WINDOW`] chips after the reception that caused it;
//! * work selection at a flush reads only pre-flush state, and each
//!   reception draws from its own `reception_rng_seed` stream, so a
//!   batch decodes to the same outcomes in any order; they are applied
//!   in batch (pop) order.
//!
//! What this guarantees today: a run is a pure function of its
//! [`MeshParams`], independent of batch order, of the kernel selection
//! and of the number of threads it decodes on.
//!
//! ## The decode crew
//!
//! Because a batch decodes to the same outcomes in any order, its
//! receptions can decode side by side. [`MeshDriver::run_to_end`] on
//! more than one thread (the `threads` argument of [`run_mesh`] and
//! [`MeshDriver::new`], capped at the available parallelism and at
//! `MAX_CREW_THREADS` = 2, the crew size measured) starts a crew of
//! `threads − 1` helper threads for the run, all joined before it
//! returns. At each flush:
//!
//! 1. the driver's thread *gathers* every reception's decode inputs from
//!    the driver's state, in batch order: the shared frame and repair
//!    spans, the heard list with powers at the receiver, the noise floor
//!    and the reception's RNG seed;
//! 2. the driver's thread and the helpers claim receptions from one
//!    atomic counter and *decode* each one (interference profile → chip
//!    error profile → render → corrupt → receive → the payload bits its
//!    accepted bytes got right), each thread in its own scratch, reading
//!    only the gathered batch;
//! 3. once all are in, the driver's thread *applies* the outcomes in
//!    batch order: OR into the receiver's mask, count the new bits,
//!    recover, rebroadcast, arm timers.
//!
//! Only step 2 runs on several threads, and it reads nothing that steps
//! 1 and 3 write, so the run is the one-thread run bit for bit. An idle
//! helper polls for the next batch for about one inter-batch gap, then
//! parks; a panic in a helper's decode is re-raised on the driver's
//! thread.
//!
//! What it does not guarantee is time-ordered dispatch. The flush runs
//! when the *next* event pops, and that event can lie far past the
//! window when the queue is sparse. Outcome events are then scheduled
//! at `end + SAFE_WINDOW + jitter` (rebroadcasts) or at
//! `end + ARQ_TIMEOUT` (timers), which can be earlier than the event
//! that triggered the flush, so they pop after it, below the dispatch
//! clock, and so do the events they cause in turn. The argument that
//! "every transmission that could overlap a pending reception has
//! already popped" when the batch decodes assumes time order, so where
//! dispatch runs backwards a decode can miss an overlapping transmission
//! or a half-duplex conflict that starts later in pop order but earlier
//! in chip time. Default `mesh10k` dispatches in time order; default
//! `meshjam` pops 98 112 of its 158 094 events below the clock. Node
//! churn opens the gaps: `mesh10k --set churn=2` pops 115 234 events
//! below the clock, `mesh10k --set jammer=react:4096` one. Closing the
//! gap moves every mesh fingerprint, so it waits for an oracle to check
//! the fix against: the sequential mesh spec of ROADMAP item 4, which
//! decodes every reception at its end time in one global order.
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
use crate::rxpath::{FastRx, ReceptionChannel, RxScratch};
use crate::scenario::Scenario;
use crate::spatial::SpatialIndex;
use ppr_channel::overlap::HeardTx;
use ppr_channel::pathloss::PathLossModel;
use ppr_core::dp::{plan_chunks_with, ChunkScratch, CostModel};
use ppr_core::runs::{RunLengths, UnitRange};
use ppr_mac::frame::Frame;
use ppr_mac::schemes::{DeliveryScheme, ReceivedBody};
use ppr_mac::BackoffPolicy;
use ppr_phy::chips::CHIP_RATE_HZ;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::any::Any;
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError, RwLock, RwLockReadGuard};
use std::thread::Thread;

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

/// Relative half-width of the band of squared distance around the
/// squared squelch radius inside which the exact power test decides
/// the squelch ([`SquelchBand`]). Received power goes as distance⁻³, so
/// the band's edges sit 1.5e-6 (relative) in power from the threshold:
/// some 10⁸ times the float error of either side of the comparison.
const SQUELCH_BAND: f64 = 1e-6;

/// The squared-distance bounds of the receiver squelch: a link shorter
/// than the squelch radius is heard and a longer one squelched, and
/// only links inside a thin band around the radius need the exact
/// `gain / noise < SQUELCH_SNR` test. With zero shadowing, received
/// power falls monotonically with distance, so outside the band the
/// distance alone gives the exact test's verdict.
#[derive(Debug, Clone, Copy)]
struct SquelchBand {
    /// Squared distances below this are heard.
    heard_below: f64,
    /// Squared distances above this are squelched.
    squelched_above: f64,
}

impl SquelchBand {
    /// The band around `radius`, the distance at which the mean SNR is
    /// [`SQUELCH_SNR`].
    fn around(radius: f64) -> Self {
        let r2 = radius * radius;
        SquelchBand {
            heard_below: r2 * (1.0 - SQUELCH_BAND),
            squelched_above: r2 * (1.0 + SQUELCH_BAND),
        }
    }

    /// The squelch verdict for a link of squared length `d2`, or `None`
    /// inside the band, where the caller runs the exact test.
    fn squelched(&self, d2: f64) -> Option<bool> {
        if d2 < self.heard_below {
            Some(false)
        } else if d2 > self.squelched_above {
            Some(true)
        } else {
            None
        }
    }
}

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
/// experiment reports, and what the crew and seed-stability tests pin.
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
struct MeshTx {
    /// Transmitting node.
    sender: usize,
    /// Link-layer destination ([`BROADCAST`] for flood frames, the
    /// requester for repairs).
    dst: u16,
    /// Start chip.
    start: u64,
    /// Length in chips.
    len: u64,
    /// The frame on the air; its sequence number is the transmission's
    /// index in the store. Shared with the decode batches that receive
    /// it.
    frame: Arc<Frame>,
    /// For repairs: the payload spans this frame carries, in original
    /// payload coordinates (the receiver maps delivered bytes back
    /// through them).
    spans: Option<Arc<[UnitRange]>>,
}

impl MeshTx {
    fn end(&self) -> u64 {
        self.start + self.len
    }
}

/// Per-node protocol state — the per-link PP-ARQ session state of the
/// flood. The chunking DP's scratch is *not* part of it: a repair plan
/// reconstructs its working state from the byte-correct mask on demand.
#[derive(Clone)]
struct NodeState {
    /// Correct-byte count: the popcount of the node's
    /// `MeshDriver::masks` row over the payload's bits.
    correct: usize,
    /// Full payload recovered, i.e. `correct` is the payload length. A
    /// node rebroadcasts exactly once, when it recovers, so this is
    /// also "rebroadcast scheduled".
    recovered: bool,
    /// A PP-ARQ timer is armed.
    timer_armed: bool,
    /// Node is up (fault injection crashes and restarts nodes; a
    /// crashed node neither sends nor receives, and loses its
    /// non-recovered partial state).
    alive: bool,
}

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

/// Folds the bytes `scheme` accepts from `body`'s reception into a
/// node's byte-correct `mask`, a word at a time: a byte whose offset
/// maps to payload offset `p < truth.len()` and equals `truth[p]` sets
/// bit `p`. Returns how many bits it newly set. `spans` maps a repair
/// frame's payload back to original payload coordinates (its payload is
/// the concatenation of the spans); an original frame's payload is the
/// payload itself. Each segment of contiguous offsets folds in groups
/// that share one mask word, through
/// [`DeliveryScheme::correct_accepted_bits`], so the acceptance rule
/// stays the scheme's.
fn fold_accepted(
    scheme: &DeliveryScheme,
    body: &ReceivedBody<'_>,
    spans: Option<&[UnitRange]>,
    truth: &[u8],
    mask: &mut [u64],
) -> usize {
    // Offsets past the decoded body deliver nothing.
    let decoded = scheme.payload_len(body.bytes().len());
    let mut newly = 0;
    // Frame offsets `at..at + n` carry payload offsets `p..p + n`.
    let mut segment = |at: usize, p: usize, n: usize| {
        let mut done = 0;
        while done < n {
            let off = p + done;
            let take = (64 - off % 64).min(n - done);
            let at = at + done;
            let bits = scheme.correct_accepted_bits(body, at..at + take, &truth[off..off + take]);
            let word = &mut mask[off / 64];
            let new = (bits << (off % 64)) & !*word;
            *word |= new;
            newly += new.count_ones() as usize;
            done += take;
        }
    };
    let clip = |at: usize, p: usize, len: usize| {
        len.min(decoded.saturating_sub(at))
            .min(truth.len().saturating_sub(p))
    };
    match spans {
        None => segment(0, 0, clip(0, 0, decoded)),
        Some(spans) => {
            let mut at = 0;
            for s in spans {
                segment(at, s.start, clip(at, s.start, s.len()));
                at += s.len();
            }
        }
    }
    newly
}

/// How many times an idle crew thread polls before it gives up its CPU:
/// a helper waiting for the next batch then parks, and the driver's
/// thread waiting for a helper's last decode yields. At one pause
/// instruction per poll this is some tens of microseconds, about one
/// gap between two flushes of `mesh10k`: a helper that parked right
/// away lost to the sequential driver on a host with CPU steal, while
/// one that spins indefinitely costs a whole core for the run.
const CREW_SPIN: u32 = 1 << 12;

/// The most threads a flood decodes on: the driver's thread plus one
/// helper, the only crew size measured (a 2-vCPU host; docs/PERF.md,
/// "Mesh decode crew"). A wider crew is unmeasured and need not pay: a batch averages 8.3 receptions, every flush wakes each parked
/// helper, and each idle helper polls for [`CREW_SPIN`] rounds per
/// batch. Raise this only on a measurement at more threads.
const MAX_CREW_THREADS: usize = 2;

/// The constant half of every reception's decode: the receiver, the
/// delivery scheme and the ground-truth payload. The driver keeps one,
/// and each decode crew holds a copy for its helpers.
#[derive(Clone)]
struct Decoder {
    /// The stateless per-packet receiver.
    fast: FastRx,
    /// The delivery scheme, at the run's η.
    scheme: DeliveryScheme,
    /// The flooded payload, `payload_len` bytes.
    truth: Vec<u8>,
}

/// What one reception's decode reads of the driver's state, gathered at
/// its flush ([`MeshDriver::gather`]).
struct Reception {
    /// The received frame.
    frame: Arc<Frame>,
    /// Its repair spans, for a repair frame.
    spans: Option<Arc<[UnitRange]>>,
    /// Its slice of [`Batch::heard`]: the reception's own signal first,
    /// then every interferer.
    heard: Range<usize>,
    /// The receiver's noise floor over the frame, mW.
    noise: f64,
    /// The seed of the reception's own RNG stream.
    seed: u64,
}

/// One flush's receptions, in batch order, and their decoded outcomes.
/// Every buffer keeps its capacity from flush to flush.
#[derive(Default)]
struct Batch {
    /// The receptions, in batch order.
    receptions: Vec<Reception>,
    /// The heard lists of all receptions, back to back.
    heard: Vec<HeardTx>,
    /// Words per outcome: `1 + payload_len.div_ceil(64)`.
    stride: usize,
    /// Per reception, `stride` words: 1 when a frame was received (0
    /// when nothing was acquired), then the payload bits its delivered
    /// bytes got right. Atomic only so that the crew's threads can each
    /// fill their own receptions' words through a shared batch.
    outcomes: Vec<AtomicU64>,
}

impl Batch {
    /// Reception `k`'s outcome words.
    fn outcome(&self, k: usize) -> &[AtomicU64] {
        &self.outcomes[k * self.stride..(k + 1) * self.stride]
    }
}

/// Working memory of one reception's decode. Each crew thread owns one.
#[derive(Default)]
struct DecodeScratch {
    /// The channel step's working memory.
    channel: ReceptionChannel,
    /// The receive step's working memory.
    rx: RxScratch,
    /// The payload bits the reception got right.
    bits: Vec<u64>,
}

impl Decoder {
    /// Decodes reception `k` of `batch` and writes its outcome words:
    /// interference profile → chip error profile → render → corrupt →
    /// receive → the payload bits its accepted bytes got right. Reads
    /// nothing but the batch and `self`, so the receptions of a batch
    /// decode to the same outcomes on any thread and in any order.
    fn decode(&self, batch: &Batch, k: usize, sc: &mut DecodeScratch) {
        let rx = &batch.receptions[k];
        let heard = &batch.heard[rx.heard.clone()];
        let profile = sc.channel.profile(&heard[0], heard, rx.noise);
        let mut rng = StdRng::seed_from_u64(rx.seed);
        sc.bits.clear();
        sc.bits.resize(batch.stride - 1, 0);
        let received = self
            .fast
            .transmit_into(&rx.frame, profile, &mut rng, true, &mut sc.rx)
            .1
            .map(|frame| {
                if let Some(body) = ReceivedBody::of(frame) {
                    fold_accepted(
                        &self.scheme,
                        &body,
                        rx.spans.as_deref(),
                        &self.truth,
                        &mut sc.bits,
                    );
                }
            })
            .is_some();
        let out = batch.outcome(k);
        out[0].store(u64::from(received), Ordering::Relaxed);
        for (o, &b) in out[1..].iter().zip(&sc.bits) {
            o.store(b, Ordering::Relaxed);
        }
    }
}

/// The mesh flood's decode crew: helper threads that decode a flush
/// batch's receptions side by side with the driver's thread
/// ([`MeshDriver::run_to_end`] with more than one thread). The driver
/// gathers each batch's inputs, every thread claims receptions from one
/// counter and decodes them into the batch's outcome words, and the
/// driver applies the outcomes in batch order once all are in.
struct Crew {
    /// The helpers' copy of the driver's decoder.
    decoder: Decoder,
    /// The published batch. The driver writes it only while no thread
    /// decodes, and the claim counters below are reset under the same
    /// write lock, so a thread that holds the read lock always claims
    /// from a whole, current batch.
    batch: RwLock<Batch>,
    /// The next unclaimed reception of the published batch.
    next: AtomicUsize,
    /// Receptions of the published batch not decoded yet.
    left: AtomicUsize,
    /// Batches published to the helpers so far.
    published: AtomicU64,
    /// Set once the run is over: every helper returns.
    stop: AtomicBool,
    /// Set when a helper's decode panicked; the payload waits in
    /// `panic` for the driver's thread to re-raise.
    failed: AtomicBool,
    panic: Mutex<Option<Box<dyn Any + Send>>>,
}

impl Crew {
    fn new(decoder: Decoder) -> Self {
        Crew {
            decoder,
            batch: RwLock::new(Batch::default()),
            next: AtomicUsize::new(0),
            left: AtomicUsize::new(0),
            published: AtomicU64::new(0),
            stop: AtomicBool::new(false),
            failed: AtomicBool::new(false),
            panic: Mutex::new(None),
        }
    }

    /// Claims and decodes receptions of `batch` until none is left.
    fn work_through(&self, batch: &Batch, sc: &mut DecodeScratch) {
        loop {
            let k = self.next.fetch_add(1, Ordering::Relaxed);
            if k >= batch.receptions.len() {
                return;
            }
            self.decoder.decode(batch, k, sc);
            self.left.fetch_sub(1, Ordering::Release);
        }
    }

    /// A helper thread's life: wait for a batch (polling, then parked),
    /// decode what is left of it, repeat until the run stops. A panic
    /// in a decode is caught and handed to the driver's thread, which
    /// would otherwise wait for the reception forever.
    fn help(&self) {
        let mut sc = DecodeScratch::default();
        let mut seen = 0;
        loop {
            let mut polls = 0;
            loop {
                if self.stop.load(Ordering::Acquire) {
                    return;
                }
                let now = self.published.load(Ordering::Acquire);
                if now != seen {
                    seen = now;
                    break;
                }
                if polls < CREW_SPIN {
                    polls += 1;
                    std::hint::spin_loop();
                } else {
                    std::thread::park();
                }
            }
            let batch = self.batch.read().unwrap_or_else(PoisonError::into_inner);
            if let Err(panic) =
                catch_unwind(AssertUnwindSafe(|| self.work_through(&batch, &mut sc)))
            {
                *self.panic.lock().unwrap_or_else(PoisonError::into_inner) = Some(panic);
                self.failed.store(true, Ordering::Release);
                return;
            }
        }
    }

    /// Blocks until every reception of the published batch is decoded,
    /// re-raising a helper's panic instead.
    fn wait(&self) {
        let mut polls = 0;
        while self.left.load(Ordering::Acquire) != 0 {
            if self.failed.load(Ordering::Acquire) {
                let panic = self
                    .panic
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .take();
                resume_unwind(panic.unwrap_or_else(|| Box::new("a mesh decode helper panicked")));
            }
            if polls < CREW_SPIN {
                polls += 1;
                std::hint::spin_loop();
            } else {
                std::thread::yield_now();
            }
        }
    }
}

/// The driver thread's handle on a running crew: the crew and its
/// helper threads. Dropping it, at the end of the run or while a panic
/// unwinds, stops every helper.
struct CrewHandle<'c> {
    crew: &'c Crew,
    helpers: Vec<Thread>,
}

impl CrewHandle<'_> {
    /// Publishes the batch `fill` writes to the helpers, then decodes
    /// it: the calling thread claims receptions too and returns once all
    /// are decoded, with the batch read-locked for applying. (Decoding
    /// small batches on the calling thread alone measured no faster.)
    fn decode(
        &self,
        sc: &mut DecodeScratch,
        fill: impl FnOnce(&mut Batch),
    ) -> RwLockReadGuard<'_, Batch> {
        let crew = self.crew;
        {
            let mut batch = crew.batch.write().unwrap_or_else(PoisonError::into_inner);
            fill(&mut batch);
            crew.next.store(0, Ordering::Relaxed);
            crew.left.store(batch.receptions.len(), Ordering::Relaxed);
        }
        self.publish();
        let batch = crew.batch.read().unwrap_or_else(PoisonError::into_inner);
        crew.work_through(&batch, sc);
        crew.wait();
        batch
    }

    /// Tells the helpers a new batch is out.
    fn publish(&self) {
        self.crew.published.fetch_add(1, Ordering::Release);
        for h in &self.helpers {
            h.unpark();
        }
    }
}

impl Drop for CrewHandle<'_> {
    fn drop(&mut self) {
        self.crew.stop.store(true, Ordering::Release);
        for h in &self.helpers {
            h.unpark();
        }
    }
}

/// Working memory of the flush and the ARQ timer. Every buffer keeps
/// its capacity across calls, so steady-state dispatch allocates nothing
/// of its own, and no call reads what an earlier one left.
#[derive(Default)]
struct MeshScratch {
    /// Spatial candidates of one query.
    cands: Vec<u32>,
    /// The receptions a flush decodes, in batch order.
    work: Vec<(usize, usize)>,
    /// The flush's batch, when the driver decodes alone.
    batch: Batch,
    /// The driver thread's decode scratch.
    decode: DecodeScratch,
    /// A repair request's byte-correct labels.
    labels: Vec<bool>,
    /// The labels' run lengths.
    runs: RunLengths,
    /// The chunking DP's working memory.
    chunks: ChunkScratch,
}

/// Runs one mesh flood on up to `threads` threads: the calling thread,
/// plus a decode crew of `threads − 1` helpers (see
/// [`MeshDriver::run_to_end`], which caps the count at two). `None` or
/// `Some(1)` runs on the calling thread alone. The stats do not depend
/// on `threads`.
pub fn run_mesh(params: &MeshParams, threads: Option<usize>) -> MeshStats {
    MeshDriver::new(params, threads).run_to_end()
}

/// The mesh flood: the event loop of the module docs.
pub struct MeshDriver {
    /// Run parameters.
    params: MeshParams,
    /// Propagation model.
    model: PathLossModel,
    /// Noise floor, mW.
    noise: f64,
    /// Receiver squelch bounds.
    squelch: SquelchBand,
    /// Node placement.
    tb: Testbed,
    /// Spatial shards of the placement.
    index: SpatialIndex,
    /// Payload length of the delivery scheme.
    payload_len: usize,
    /// The stateless per-packet receiver, the delivery scheme and the
    /// ground-truth payload.
    decoder: Decoder,
    /// Per-node PP-ARQ session state.
    states: Vec<NodeState>,
    /// Every node's byte-correct bitmask over the payload,
    /// `payload_len.div_ceil(64)` words per node in node order: one
    /// allocation for the whole mesh.
    masks: Vec<u64>,
    /// The transmission store, indexed by tx id.
    txs: Vec<MeshTx>,
    /// Per-sender (start, end, id) windows of the transmissions that
    /// went on the air.
    own_tx: Vec<Vec<(u64, u64, u64)>>,
    /// The event queue.
    q: BinaryHeapQueue<SimEvent>,
    /// Running counters; the end-of-run totals are set by
    /// [`MeshDriver::run_to_end`].
    stats: MeshStats,
    /// Completed-but-undecoded receptions, in pop order.
    pending: Vec<(usize, usize)>,
    /// Flush deadline of the pending batch.
    pending_deadline: u64,
    /// Working memory of decode, flush and the ARQ timer.
    scratch: MeshScratch,
    /// Chip time of the last dispatched event.
    last_time: u64,
    /// The jammer actor.
    adversary: AdversaryState,
    /// Crash/restart churn and link degradation, planned up front.
    fault_plan: FaultPlan,
    /// Retry/backoff schedule.
    policy: BackoffPolicy,
    /// How many threads [`MeshDriver::run_to_end`] may decode on: the
    /// caller's budget, not the run's state (no output depends on it).
    threads: usize,
}

impl MeshDriver {
    /// Builds a driver at event zero: placement, spatial index and
    /// source selection done, the source's flood frame scheduled.
    /// `threads` is how many threads [`MeshDriver::run_to_end`] may
    /// decode on (`None` means one); it caps them at the machine's
    /// available parallelism and at two. Nothing is started or looked up
    /// here: the crew exists only inside `run_to_end`.
    pub fn new(params: &MeshParams, threads: Option<usize>) -> Self {
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
            squelch: SquelchBand::around(comm_radius),
            tb,
            index,
            payload_len,
            decoder: Decoder {
                fast: FastRx::new(true),
                scheme,
                truth: truth.clone(),
            },
            states,
            masks,
            txs: Vec::new(),
            own_tx: vec![Vec::new(); n], // (start, end, tx id)
            q: BinaryHeapQueue::new(),
            stats,
            // Pending completed-but-undecoded receptions, in pop order
            // as (tx idx, receiver).
            pending: Vec::new(),
            pending_deadline: u64::MAX,
            scratch: MeshScratch::default(),
            last_time: 0,
            adversary,
            fault_plan,
            policy,
            threads: threads.unwrap_or(1),
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

    /// Whether receiver `r` squelches sender `s`: exactly `gain(s, r) /
    /// noise < SQUELCH_SNR`, with the power computed only inside the
    /// [`SquelchBand`].
    fn squelched(&self, s: usize, r: usize) -> bool {
        let d2 = self.tb.senders[s].distance_sq(&self.tb.senders[r]);
        self.squelch
            .squelched(d2)
            .unwrap_or_else(|| self.gain(s, r) / self.noise < SQUELCH_SNR)
    }

    /// Appends a transmission to the store (its sequence number is its
    /// index) and schedules its TxStart.
    fn schedule_tx(
        &mut self,
        sender: usize,
        dst: u16,
        start: u64,
        body: Vec<u8>,
        spans: Option<Arc<[UnitRange]>>,
    ) {
        let seq = self.txs.len() as u16;
        let frame = Arc::new(Frame::new(dst, sender as u16, seq, body));
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

    /// Gathers the decode inputs of the receptions `work` into `batch`,
    /// in order: each one's frame, the transmissions and jamming bursts
    /// it hears with their powers at the receiver, the receiver's noise
    /// floor and its RNG seed. Reads only state a flush never changes:
    /// the transmissions that were on the air, positions, the fault
    /// plan and the adversary's recorded bursts.
    fn gather(&self, work: &[(usize, usize)], cands: &mut Vec<u32>, batch: &mut Batch) {
        batch.receptions.clear();
        batch.heard.clear();
        for &(ti, r) in work {
            let t = &self.txs[ti];
            let from = batch.heard.len();
            batch.heard.push(HeardTx {
                id: ti as u64,
                start_chip: t.start,
                len_chips: t.len,
                power_mw: self.gain(t.sender, r),
            });
            // Interferers: every overlapping transmission from a sender
            // inside the receiver's 3×3 cell neighborhood. Beyond that
            // radius a sender's mean power is below the noise floor.
            cands.clear();
            self.index.candidates_into(&self.tb.senders[r], cands);
            for &s in cands.iter() {
                let s = s as usize;
                if s == r {
                    continue;
                }
                for &(os, oe, oid) in &self.own_tx[s] {
                    if oid != ti as u64 && os < t.end() && t.start < oe {
                        batch.heard.push(HeardTx {
                            id: oid,
                            start_chip: os,
                            len_chips: oe - os,
                            power_mw: self.gain(s, r),
                        });
                    }
                }
            }
            // Jamming bursts are just more interferers: each overlapping
            // burst contributes its path-loss power at the receiver
            // through the same profile math as a colliding frame. Ids
            // count down from u64::MAX so they can never collide with
            // transmission ids.
            for (k, b) in self
                .adversary
                .bursts_overlapping(t.start, t.end())
                .enumerate()
            {
                batch.heard.push(HeardTx {
                    id: u64::MAX - k as u64,
                    start_chip: b.start,
                    len_chips: b.end - b.start,
                    power_mw: self
                        .model
                        .rx_power_mw(b.pos().distance(&self.tb.senders[r]), 0.0),
                });
            }
            batch.receptions.push(Reception {
                frame: Arc::clone(&t.frame),
                spans: t.spans.clone(),
                heard: from..batch.heard.len(),
                // Link degradation raises this receiver's noise floor
                // for the window (×1.0 — bit-exact — outside one).
                noise: self.noise * self.fault_plan.noise_factor(r, t.start, t.end()),
                seed: reception_rng_seed(self.params.seed, ti as u64, r),
            });
        }
        batch.stride = 1 + self.payload_len.div_ceil(64);
        let words = work.len() * batch.stride;
        batch.outcomes.truncate(words);
        batch.outcomes.resize_with(words, AtomicU64::default);
    }

    /// Applies the decoded outcomes of the receptions `work` in batch
    /// order: each received frame's correct bits are ORed into its
    /// receiver's mask and counted, a node that now holds the whole
    /// payload schedules its one rebroadcast, and a node still partial
    /// arms its PP-ARQ timer.
    fn apply(&mut self, work: &[(usize, usize)], batch: &Batch) {
        for (k, &(ti, r)) in work.iter().enumerate() {
            let out = batch.outcome(k);
            let end = self.txs[ti].end();
            let mut rebroadcast = false;
            if out[0].load(Ordering::Relaxed) != 0 {
                let row = self.mask_row(r);
                let st = &mut self.states[r];
                for (word, bits) in self.masks[row].iter_mut().zip(&out[1..]) {
                    let new = bits.load(Ordering::Relaxed) & !*word;
                    *word |= new;
                    st.correct += new.count_ones() as usize;
                }
                if st.correct == self.payload_len && !st.recovered {
                    st.recovered = true;
                    rebroadcast = true;
                }
            }
            if rebroadcast {
                let jitter =
                    jitter_hash(self.params.seed ^ ((r as u64) << 20) ^ 0xB0) % JITTER_SPAN;
                let body = self.decoder.truth.clone();
                self.schedule_tx(r, BROADCAST, end + SAFE_WINDOW + jitter, body, None);
            }
            // A partial node arms its PP-ARQ timer off any evaluated
            // reception (it heard *something*).
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
    }

    /// The chunks `node`'s repair request asks for: the chunking DP's
    /// plan over its byte-correct mask, or `None` when nothing is
    /// missing.
    fn plan_repair(&mut self, node: usize) -> Option<Arc<[UnitRange]>> {
        let mask = &self.masks[self.mask_row(node)];
        let sc = &mut self.scratch;
        sc.labels.clear();
        sc.labels
            .extend((0..self.payload_len).map(|i| mask_has(mask, i)));
        sc.runs.refill_from_labels(&sc.labels);
        let plan = plan_chunks_with(
            &sc.runs,
            &CostModel::bytes(self.payload_len),
            &mut sc.chunks,
        );
        (!plan.chunks.is_empty()).then(|| Arc::from(plan.chunks.as_slice()))
    }

    /// The best recovered neighbor to repair `node`: the strongest
    /// unsquelched link, ties broken to the lowest id (strict >
    /// comparison over exact gains).
    fn best_peer(&mut self, node: usize) -> Option<usize> {
        let mut cands = std::mem::take(&mut self.scratch.cands);
        cands.clear();
        self.index
            .candidates_into(&self.tb.senders[node], &mut cands);
        let mut peer: Option<(usize, f64)> = None;
        for &c in &cands {
            let c = c as usize;
            if c == node
                || !self.states[c].recovered
                || !self.states[c].alive
                || self.squelched(c, node)
            {
                continue;
            }
            let g = self.gain(c, node);
            if peer.map(|(_, best)| g > best).unwrap_or(true) {
                peer = Some((c, g));
            }
        }
        self.scratch.cands = cands;
        peer.map(|(c, _)| c)
    }

    /// Decodes the pending batch and applies outcomes in batch order.
    /// Outcomes: mask updates, first-recovery rebroadcast scheduling,
    /// ARQ timer arming. Applying an outcome never changes what a later
    /// decode in the batch reads (see [`MeshDriver::gather`]), so the
    /// decodes may run on `crew`'s threads in any order. Without a crew
    /// (or for an empty batch) the calling thread decodes alone, with no
    /// locks or claims: sharing that path with the crew's made a
    /// one-thread `mesh10k` about 4 % slower.
    fn flush(&mut self, crew: Option<&CrewHandle<'_>>) {
        if !self.pending.is_empty() {
            let mut sc = std::mem::take(&mut self.scratch);
            // Work selection is sequential and reads only pre-flush
            // state, so it is batch-order deterministic.
            sc.work.clear();
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
                sc.work.push((ti, r));
            }
            self.stats.receptions_evaluated += sc.work.len();
            self.stats.flush_batches += 1;
            self.stats.max_batch = self.stats.max_batch.max(sc.work.len());

            match crew.filter(|_| !sc.work.is_empty()) {
                None => {
                    self.gather(&sc.work, &mut sc.cands, &mut sc.batch);
                    for k in 0..sc.work.len() {
                        self.decoder.decode(&sc.batch, k, &mut sc.decode);
                    }
                    self.apply(&sc.work, &sc.batch);
                }
                Some(crew) => {
                    let MeshScratch {
                        work,
                        cands,
                        decode,
                        ..
                    } = &mut sc;
                    let batch = crew.decode(decode, |batch| self.gather(work, cands, batch));
                    self.apply(work, &batch);
                }
            }
            self.pending.clear();
            self.scratch = sc;
        }
        self.pending_deadline = u64::MAX;
    }

    /// Dispatches the next event (or, on queue drain, performs the
    /// final flush). Returns `false` when the run is complete.
    fn step(&mut self, crew: Option<&CrewHandle<'_>>) -> bool {
        let Some((key, ev)) = self.q.pop() else {
            // Queue drained — but the flush may recover nodes and
            // schedule their rebroadcasts, so only a flush that adds
            // nothing ends the run.
            self.flush(crew);
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
            self.flush(crew);
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
                let mut cands = std::mem::take(&mut self.scratch.cands);
                cands.clear();
                self.index
                    .candidates_into(&self.tb.senders[sender], &mut cands);
                for &r in &cands {
                    let r = r as usize;
                    if r == sender || !self.states[r].alive || self.squelched(sender, r) {
                        continue;
                    }
                    self.stats.receptions_scheduled += 1;
                    self.q.schedule(
                        end,
                        priority(prio::RECEPTION, r as u32),
                        SimEvent::ReceptionComplete { tx, receiver: r },
                    );
                }
                self.scratch.cands = cands;
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
                let Some(chunks) = self.plan_repair(node) else {
                    return true;
                };
                if let Some(peer) = self.best_peer(node) {
                    self.stats.repair_tx += 1;
                    self.stats.repair_bytes_requested +=
                        chunks.iter().map(UnitRange::len).sum::<usize>();
                    let repair: Vec<u8> = chunks
                        .iter()
                        .flat_map(|s| self.decoder.truth[s.start..s.end].iter().copied())
                        .collect();
                    let jitter = jitter_hash(
                        self.params.seed ^ ((node as u64) << 20) ^ ((round as u64) << 8) ^ 0xA7,
                    ) % JITTER_SPAN;
                    let start = key.time + SAFE_WINDOW + jitter;
                    self.schedule_tx(peer, node as u16, start, repair, Some(chunks));
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

    /// Runs to completion and returns the final stats.
    ///
    /// With more than one thread (see [`MeshDriver::new`]; at most
    /// `MAX_CREW_THREADS`, the crew size measured), the run starts a
    /// decode crew of `threads − 1` helper threads, all joined before
    /// this returns. Each flush batch is gathered on the calling
    /// thread, decoded by it and the helpers side by side, and applied
    /// on the calling thread in batch order, so the stats are those of
    /// a run on one thread. A panic on a helper ends the run and is
    /// re-raised here.
    pub fn run_to_end(self) -> MeshStats {
        let threads = match self.threads {
            1 => 1,
            n => n
                .min(MAX_CREW_THREADS)
                .min(crate::env::available_parallelism()),
        };
        self.run_on(threads)
    }

    /// [`MeshDriver::run_to_end`] on exactly `threads` threads.
    fn run_on(mut self, threads: usize) -> MeshStats {
        if threads > 1 {
            let crew = Crew::new(self.decoder.clone());
            std::thread::scope(|scope| {
                let mut handle = CrewHandle {
                    crew: &crew,
                    helpers: Vec::new(),
                };
                for _ in 1..threads {
                    // A helper that cannot be started is simply
                    // missing: the crew decodes the same outcomes with
                    // fewer threads.
                    let crew = &crew;
                    if let Ok(h) = std::thread::Builder::new()
                        .name("mesh-decode".into())
                        .spawn_scoped(scope, move || crew.help())
                    {
                        handle.helpers.push(h.thread().clone());
                    }
                }
                while self.step(Some(&handle)) {}
            });
        } else {
            while self.step(None) {}
        }
        self.stats.events_dispatched = self.q.dispatched();
        self.stats.sim_chips = self.last_time;
        self.stats.recovered = self.states.iter().filter(|s| s.recovered).count();
        self.stats.correct_bytes = self.states.iter().map(|s| s.correct).sum();
        self.stats.jam_bursts = self.adversary.bursts().len();
        self.stats.jam_chips = self.adversary.jam_chips();
        self.stats
    }
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
        self.report(scenario, None)
    }

    /// The flood decodes on the `threads` the driver lends.
    fn run_with_threads(
        &self,
        scenario: &Scenario,
        _prior: &[ExperimentResult],
        threads: usize,
    ) -> ExperimentResult {
        self.report(scenario, Some(threads))
    }
}

impl Mesh10k {
    /// Runs the flood on up to `threads` threads and renders its report.
    fn report(&self, scenario: &Scenario, threads: Option<usize>) -> ExperimentResult {
        let params = MeshParams::from_scenario(scenario);
        let s = run_mesh(&params, threads);
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
    fn benign_params_change_nothing() {
        // The adversarial fields at their defaults must leave the
        // benign flood bit-identical to the pre-adversary driver.
        let s = run_mesh(&small(), None);
        assert_eq!(s.jam_bursts, 0);
        assert_eq!(s.jam_chips, 0);
        assert_eq!(s.crashes + s.restarts, 0);
    }

    /// Runs `p` to the end on `threads` threads, past the cap at the
    /// machine's parallelism, so that even a one-core host runs a crew.
    fn run_on(p: &MeshParams, threads: usize) -> MeshStats {
        MeshDriver::new(p, None).run_on(threads)
    }

    /// The decode crew is invisible: every stat of a flood of `nodes`
    /// run with helpers equals the one-thread run's, benign and jammed
    /// with churn, from sparse to dense, through the public entry point
    /// (capped at two threads and the machine's parallelism) and with a
    /// crew forced to two threads, the most any run uses.
    fn crew_changes_no_stat(nodes: usize) {
        for density in [1.0, 12.0, 50.0] {
            for jammed in [false, true] {
                let mut p = MeshParams::benign(nodes, density, 11, 6, 250);
                if jammed {
                    p.jammer = JammerSpec::React { delay: 4096 };
                    p.churn = 2.0;
                }
                let what = format!("{nodes} nodes, density {density}, jammed {jammed}");
                let alone = run_mesh(&p, None);
                assert_eq!(run_mesh(&p, Some(2)), alone, "{what}, Some(2)");
                assert_eq!(run_on(&p, 2), alone, "{what}, 2 threads");
            }
        }
    }

    #[test]
    fn the_decode_crew_changes_no_stat_at_400_nodes() {
        crew_changes_no_stat(400);
    }

    #[test]
    fn the_decode_crew_changes_no_stat_at_2000_nodes() {
        crew_changes_no_stat(2000);
    }

    /// The whole adversarial schedule of a small mesh — pulse jam
    /// bursts, node churn, exponential ARQ backoff — is the same on a
    /// crew of two threads as on one, over a grid of sizes and seeds.
    #[test]
    fn jammed_mesh_schedule_is_crew_invariant() {
        let (mut bursts, mut crashes) = (0, 0);
        for nodes in (40..100).step_by(6) {
            for seed in (0..50).step_by(5) {
                let mut p = MeshParams::benign(nodes, 10.0, seed, 6, 120);
                p.jammer = JammerSpec::Pulse {
                    period: 16_384,
                    duty: 0.3,
                };
                p.churn = 4.0;
                p.arq_retries = 4;
                p.arq_backoff_milli = 1500;
                let alone = run_mesh(&p, None);
                assert_eq!(run_on(&p, 2), alone, "{nodes} nodes, seed {seed}");
                bursts += alone.jam_bursts;
                crashes += alone.crashes;
            }
        }
        assert!(
            bursts > 0 && crashes > 0,
            "{bursts} bursts, {crashes} crashes"
        );
    }

    /// The differential fleet's frozen jammed mesh (`ppr-cli diff`'s
    /// reactive jammer, churn and ×1.5 backoff, at seed 7) ends with
    /// the same stats on a crew of two threads as on one.
    #[test]
    fn frozen_jammed_mesh_agrees_with_a_crew() {
        let mut p = MeshParams::benign(300, 12.0, 7, 6, 250);
        p.jammer = JammerSpec::React { delay: 4096 };
        p.churn = 2.0;
        p.arq_backoff_milli = 1500;
        let alone = run_mesh(&p, None);
        assert!(alone.jam_bursts > 0, "jammer never fired");
        assert_eq!(run_on(&p, 2), alone);
    }

    /// A decode that panics on a helper thread ends the batch with that
    /// panic on the driver's thread, rather than leaving it waiting for
    /// the reception forever, and every helper still stops.
    #[test]
    fn a_panicking_decode_surfaces_as_a_panic() {
        let d = MeshDriver::new(&small(), None);
        let crew = Crew::new(d.decoder.clone());
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            std::thread::scope(|scope| {
                let handle = CrewHandle {
                    crew: &crew,
                    helpers: vec![scope.spawn(|| crew.help()).thread().clone()],
                };
                {
                    // A reception with an empty heard list: its decode
                    // indexes past the end.
                    let mut batch = crew.batch.write().unwrap();
                    batch.stride = 1 + d.payload_len.div_ceil(64);
                    for _ in 0..4 {
                        batch.receptions.push(Reception {
                            frame: Arc::clone(&d.txs[0].frame),
                            spans: None,
                            heard: 0..0,
                            noise: d.noise,
                            seed: 1,
                        });
                    }
                    let words = batch.receptions.len() * batch.stride;
                    batch.outcomes.resize_with(words, AtomicU64::default);
                    crew.next.store(0, Ordering::Relaxed);
                    crew.left.store(batch.receptions.len(), Ordering::Relaxed);
                }
                // The driver's thread claims nothing itself, so only the
                // helper can hit the bad reception.
                handle.publish();
                crew.wait();
            })
        }));
        let panic = outcome.expect_err("the helper's panic reaches the driver's thread");
        let message = panic
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| panic.downcast_ref::<&str>().copied())
            .unwrap_or_default();
        assert!(message.contains("index out of bounds"), "{message:?}");
        assert!(crew.stop.load(Ordering::Relaxed));
    }

    /// The squelch decision by squared distance equals the power test
    /// `gain / noise < SQUELCH_SNR` around the squelch radius `R`: at
    /// `R·(1 + k·1e-7)` for `k ∈ -20..=20` (inside the band and past
    /// both of its edges), at `R` and one ulp either side, and at each
    /// band edge and one ulp either side of it, for node pairs in three
    /// directions.
    #[test]
    fn geometric_squelch_equals_the_power_test() {
        let model = mesh_model();
        let noise = model.noise_mw();
        let radius = model.range_at_snr_m(SQUELCH_SNR);
        let band = SquelchBand::around(radius);
        let exact = |d2: f64| model.rx_power_mw(d2.sqrt(), 0.0) / noise < SQUELCH_SNR;
        let ulps = |x: f64| [x.next_down(), x, x.next_up()];

        let mut decided = [0usize; 2];
        let mut check = |d2: f64| {
            let verdict = band.squelched(d2);
            if let Some(v) = verdict {
                decided[usize::from(v)] += 1;
            }
            assert_eq!(verdict.unwrap_or(exact(d2)), exact(d2), "d² = {d2:e}");
        };
        // Squared distances at and around the band edges.
        for edge in [band.heard_below, band.squelched_above] {
            ulps(edge).into_iter().for_each(&mut check);
        }
        // Node pairs at distances around the radius.
        let mut dists: Vec<f64> = (-20..=20)
            .map(|k| radius * (1.0 + f64::from(k) * 1e-7))
            .collect();
        dists.extend(ulps(radius));
        let origin = Point::new(1234.5, 678.25);
        for d in dists {
            for (ux, uy) in [(1.0, 0.0), (0.0, -1.0), (0.6, 0.8)] {
                let p = Point::new(origin.x + d * ux, origin.y + d * uy);
                check(origin.distance_sq(&p));
            }
        }
        // Both geometric verdicts were exercised, not just the band.
        assert!(decided[0] > 0 && decided[1] > 0, "{decided:?}");
    }

    /// Over every spatial candidate pair of a small mesh, the driver's
    /// squelch equals the power test.
    #[test]
    fn driver_squelch_equals_the_power_test_on_a_mesh() {
        let d = MeshDriver::new(&small(), None);
        let mut cands = Vec::new();
        for s in 0..d.tb.senders.len() {
            cands.clear();
            d.index.candidates_into(&d.tb.senders[s], &mut cands);
            for &r in &cands {
                let r = r as usize;
                let exact = d.gain(s, r) / d.noise < SQUELCH_SNR;
                assert_eq!(d.squelched(s, r), exact, "link {s} -> {r}");
            }
        }
    }

    /// The per-byte spec of [`fold_accepted`]'s offset mapping: maps
    /// offsets within a frame's payload back to original payload
    /// coordinates — the identity for an original frame, and through
    /// the spans for a repair frame, whose payload is the concatenation
    /// of `spans`. Offsets must come in increasing order, as a scheme
    /// accepts them ([`DeliveryScheme::for_each_accepted`]), so one
    /// cursor walks the spans once per frame.
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

        /// The original payload coordinate of offset `off`, or `None`
        /// past the end of the spans.
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

    /// The word fold against the per-byte rule it replaced
    /// (`for_each_accepted` through a [`RepairCursor`], one mask bit at a
    /// time): original and repair frames with several spans (empty ones,
    /// and spans reaching past the payload), decoded bodies shorter and
    /// longer than the spans carry, masks with bits already set, and
    /// every scheme.
    #[test]
    fn fold_accepted_equals_the_per_byte_rule() {
        use ppr_mac::rx::FrameReceiver;
        use rand::Rng;

        let mut rng = StdRng::seed_from_u64(0xF01D);
        let mut checked = 0;
        for case in 0..400 {
            let payload_len = rng.gen_range(1..300);
            let truth: Vec<u8> = (0..payload_len).map(|_| rng.gen()).collect();
            let spans: Option<Vec<UnitRange>> = (case % 4 != 0).then(|| {
                let mut at = 0usize;
                (0..rng.gen_range(1..6))
                    .map(|_| {
                        let start = at + rng.gen_range(0..40usize);
                        let end = start + rng.gen_range(0..90usize);
                        at = end;
                        UnitRange::new(start, end)
                    })
                    .collect()
            });
            let carried: Vec<usize> = match &spans {
                None => (0..payload_len).collect(),
                Some(spans) => spans.iter().flat_map(|s| s.start..s.end).collect(),
            };
            // The sent body, cut short or padded past what it carries.
            let body_len =
                (carried.len() + rng.gen_range(0..20usize)).saturating_sub(rng.gen_range(0..20));
            let body: Vec<u8> = (0..body_len)
                .map(|i| match carried.get(i) {
                    Some(&p) if p < payload_len && rng.gen_bool(0.9) => truth[p],
                    _ => rng.gen(),
                })
                .collect();
            let mut chips = Frame::new(1, 2, 3, body).chip_words();
            let symbols = chips.len() / 32;
            for _ in 0..rng.gen_range(0..30) {
                let sym = rng.gen_range(0..symbols);
                for j in 0..rng.gen_range(1..16) {
                    chips.toggle(sym * 32 + (j * 7 + sym) % 32);
                }
            }
            let data_start = ppr_phy::sync::TX_PREAMBLE_CHIPS as i64;
            let rx = FrameReceiver::default().decode_from_preamble_words(&chips, data_start);
            let Some(body) = ReceivedBody::of(&rx) else {
                continue;
            };
            let mut start_mask = vec![0u64; payload_len.div_ceil(64)];
            for w in &mut start_mask {
                *w = rng.gen::<u64>() & rng.gen::<u64>();
            }
            for scheme in [
                DeliveryScheme::Ppr { eta: 6 },
                DeliveryScheme::Ppr {
                    eta: rng.gen_range(0..34),
                },
                DeliveryScheme::PacketCrc,
                DeliveryScheme::FragmentedCrc { frag_payload: 13 },
            ] {
                let (mut spec, mut spec_new) = (start_mask.clone(), 0);
                let mut cursor = RepairCursor::new(spans.as_deref());
                scheme.for_each_accepted(&body, |off, b| {
                    if let Some(off) = cursor.payload_offset(off) {
                        if off < payload_len && truth[off] == b && !mask_has(&spec, off) {
                            spec[off / 64] |= 1 << (off % 64);
                            spec_new += 1;
                        }
                    }
                });
                let mut mask = start_mask.clone();
                let got = fold_accepted(&scheme, &body, spans.as_deref(), &truth, &mut mask);
                assert_eq!((got, &mask), (spec_new, &spec), "case {case}, {scheme:?}");
                checked += usize::from(spec_new > 0);
            }
        }
        assert!(checked > 200, "only {checked} folds set a bit");
    }

    /// The decode step against the bool spec it composes: interference
    /// profile → chip error profile → `corrupt_chips` → `FastRx::receive`
    /// on an idle receiver → the per-byte acceptance rule through a
    /// [`RepairCursor`]. Batches are built by hand: original frames and
    /// repair frames shorter than the payload with several spans, heard
    /// lists of random interferers and jam bursts (ids counting down
    /// from `u64::MAX`), raised noise floors, and one decode scratch
    /// reused across every reception.
    #[test]
    fn decode_equals_the_bool_spec() {
        use ppr_channel::chip_channel::{corrupt_chips, ErrorProfile};
        use ppr_channel::overlap::interference_profile;
        use rand::Rng;

        let noise = mesh_model().noise_mw();
        let mut rng = StdRng::seed_from_u64(0xDEC0);
        let mut sc = DecodeScratch::default();
        let mut seen = [0usize; 3]; // lost, received nothing right, some bits
        for case in 0..24 {
            let payload_len: usize = rng.gen_range(40..260);
            let decoder = Decoder {
                fast: FastRx::new(true),
                scheme: DeliveryScheme::Ppr {
                    eta: rng.gen_range(0..12),
                },
                truth: (0..payload_len).map(|_| rng.gen()).collect(),
            };
            let mut batch = Batch {
                stride: 1 + payload_len.div_ceil(64),
                ..Batch::default()
            };
            for k in 0..6 {
                let spans: Option<Arc<[UnitRange]>> = (k % 2 == 1).then(|| {
                    let mut at = 0;
                    let mut spans = Vec::new();
                    while spans.len() < 4 {
                        let start = at + rng.gen_range(1..payload_len / 4);
                        let end = (start + rng.gen_range(1..payload_len / 4)).min(payload_len);
                        if start >= end {
                            break;
                        }
                        spans.push(UnitRange::new(start, end));
                        at = end;
                    }
                    Arc::from(spans)
                });
                let body = match &spans {
                    None => decoder.truth.clone(),
                    Some(spans) => spans
                        .iter()
                        .flat_map(|s| decoder.truth[s.start..s.end].iter().copied())
                        .collect(),
                };
                let frame = Arc::new(Frame::new(BROADCAST, k, case, body));
                let len = frame.chips_len() as u64;
                let start = rng.gen_range(0..1 << 20);
                let signal = noise * 10f64.powf(rng.gen_range(0.3..3.0));
                let from = batch.heard.len();
                let id = rng.gen_range(0..1000);
                batch.heard.push(HeardTx {
                    id,
                    start_chip: start,
                    len_chips: len,
                    power_mw: signal,
                });
                for j in 0..rng.gen_range(0..5) {
                    let (lo, hi) = (start.saturating_sub(len), start + len);
                    let power = signal * 10f64.powf(rng.gen_range(-2.5..0.5));
                    let jam = rng.gen_bool(0.3);
                    batch.heard.push(HeardTx {
                        id: if jam { u64::MAX - j } else { 1000 + j },
                        start_chip: rng.gen_range(lo..hi),
                        len_chips: if jam { rng.gen_range(64..len / 2) } else { len },
                        power_mw: power,
                    });
                }
                let raised = [1.0, 1.0, 2.0, 8.0][rng.gen_range(0..4usize)];
                batch.receptions.push(Reception {
                    frame,
                    spans,
                    heard: from..batch.heard.len(),
                    noise: noise * raised,
                    seed: rng.gen(),
                });
            }
            batch.outcomes = (0..batch.receptions.len() * batch.stride)
                .map(|_| AtomicU64::default())
                .collect();
            for k in 0..batch.receptions.len() {
                decoder.decode(&batch, k, &mut sc);
            }

            for (k, rx) in batch.receptions.iter().enumerate() {
                let heard = &batch.heard[rx.heard.clone()];
                let spans = interference_profile(&heard[0], heard);
                let profile = ErrorProfile::from_interference(heard[0].power_mw, rx.noise, &spans);
                let chips = corrupt_chips(
                    &rx.frame.chips(),
                    &profile,
                    &mut StdRng::seed_from_u64(rx.seed),
                );
                let mut spec = vec![0u64; batch.stride];
                if let Some(frame) = decoder.fast.receive(&rx.frame, &chips, true).1 {
                    spec[0] = 1;
                    if let Some(body) = ReceivedBody::of(&frame) {
                        let mut cursor = RepairCursor::new(rx.spans.as_deref());
                        decoder.scheme.for_each_accepted(&body, |off, b| {
                            if let Some(p) = cursor.payload_offset(off) {
                                if p < payload_len && decoder.truth[p] == b {
                                    spec[1 + p / 64] |= 1 << (p % 64);
                                }
                            }
                        });
                    }
                }
                let got: Vec<u64> = batch
                    .outcome(k)
                    .iter()
                    .map(|w| w.load(Ordering::Relaxed))
                    .collect();
                assert_eq!(got, spec, "case {case}, reception {k}");
                let bits = spec[1..].iter().any(|&w| w != 0);
                seen[if spec[0] == 0 {
                    0
                } else {
                    1 + usize::from(bits)
                }] += 1;
            }
        }
        // Lost frames, and received ones both with and without bytes
        // right, all occur.
        assert!(seen.iter().all(|&n| n > 0), "{seen:?}");
    }
}
