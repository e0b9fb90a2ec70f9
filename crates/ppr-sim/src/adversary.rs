//! Deterministic adversary actors: jammers and fault injection.
//!
//! Everything hostile in a run lives here — and plugs into the same
//! event core and channel path as legitimate traffic, so adversarial
//! runs inherit the determinism contract wholesale (no `HashMap`, no
//! wall clock, no `thread_rng`; the ppr-lint `determinism` rule covers
//! this module like every other sim module):
//!
//! * **Jammers** ([`JammerSpec`], [`AdversaryState`]) are event-driven
//!   actors. Each burst is a `SimEvent::JamBurst` dispatched through
//!   the queue; at pop time the actor records the burst's chip
//!   interval and (for the self-clocked types) schedules its successor
//!   up to [`ADVERSARY_HORIZON`]. Recorded bursts become ordinary
//!   [`ppr_channel::overlap::HeardTx`] interferers at decode flush —
//!   corruption flows through the existing interference → error-profile
//!   → chip-corruption path, never a side channel.
//!
//!   Four types: **pulse** (periodic, leading `duty` fraction of each
//!   period jammed), **rand** (Bernoulli duty-cycle per
//!   [`RAND_SLOT`]-chip slot, drawn from the jammer's own RNG stream),
//!   **sweep** (a pulse train whose emitter position walks the
//!   deployment diagonal), and **react** (senses frame starts it can
//!   hear — same squelch rule as a receiver — and jams the remainder
//!   of the sensed frame after a configurable sense→jam turnaround
//!   delay, one burst in flight at a time).
//!
//! * **RNG stream slots**: the jammer draws from
//!   [`adversary_seed`]`(seed, slot 0)`; the fault planner from slot 1;
//!   link-degradation windows from slot 2. Like the per-reception
//!   streams, each actor owns its stream, so no evaluation order can
//!   perturb another actor's draws.
//!
//! * **Fault injection** ([`FaultPlan`]): node crash/restart churn as
//!   pre-planned `SimEvent::NodeFault` events (a crash at `t`, its
//!   restart at `t + downtime`), plus link-degradation windows (a
//!   node's noise floor multiplied for an interval). The plan is a
//!   pure function of `(seed, churn rate)` — drivers recompute it on
//!   restore instead of serializing it.
//!
//! Burst timing is safe by construction: a reception's decode flush
//! happens at or after its completion time, and a `JamBurst` event for
//! a burst starting at `t` pops at `t` — before any reception ending
//! after `t` can flush. So the grow-only burst list is always complete
//! for the receptions being decoded.

use crate::geometry::Point;
use ppr_channel::jamming::Burst;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// How far past chip 0 the self-clocked jammers keep emitting, chips
/// (2²² ≈ 2.1 s at 2 Mchip/s — comfortably past any mesh flood's
/// repair tail). Without a horizon the event queue would never drain.
pub const ADVERSARY_HORIZON: u64 = 1 << 22;

/// Slot length of the random (Bernoulli duty-cycle) jammer, chips.
pub const RAND_SLOT: u64 = 1 << 15;

/// Steps of the sweeping jammer's walk along the deployment diagonal.
pub const SWEEP_STEPS: u64 = 16;

/// Downtime bounds for a crashed node, chips.
pub const DOWNTIME_MIN: u64 = 1 << 16;
/// Upper downtime bound, chips.
pub const DOWNTIME_MAX: u64 = 1 << 18;

/// Length bounds of one link-degradation window, chips.
pub const DEGRADE_MIN: u64 = 1 << 17;
/// Upper degradation-window bound, chips.
pub const DEGRADE_MAX: u64 = 1 << 19;

/// Noise-floor multiplier inside a degradation window (≈ 6 dB).
pub const DEGRADE_FACTOR: f64 = 4.0;

/// Largest churn rate a plan accepts, crashes per simulated second:
/// far above any rate the experiments use (`meshjam` runs at 2/s), and
/// small enough that the up-front plan (four entries per crash over
/// the ~2.1 s horizon) stays under a megabyte or two.
pub const MAX_CHURN: f64 = 10_000.0;

/// Seed of an adversary actor's RNG stream: `(master seed, stream
/// slot)`. Same construction as the per-reception streams — one
/// independent stream per actor, so no actor's draws can perturb
/// another's.
pub fn adversary_seed(seed: u64, slot: u64) -> u64 {
    seed ^ slot.wrapping_mul(0x9E6C_63D0_976A_8CA7) ^ 0x4A4D_4D45_5253 // "JMMERS"
}

/// The jammer configuration, parsed from the `jammer` scenario axis.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum JammerSpec {
    /// No jammer (the default; adversarial machinery fully disabled).
    #[default]
    Off,
    /// Periodic pulse: the leading `duty` fraction of every `period`
    /// chips is jammed.
    Pulse {
        /// Pulse period, chips.
        period: u64,
        /// Jammed fraction of each period, `(0, 1]`.
        duty: f64,
    },
    /// Bernoulli duty-cycle: each [`RAND_SLOT`]-chip slot is jammed
    /// with probability `duty`, drawn from the jammer's RNG stream.
    Rand {
        /// Per-slot jamming probability, `(0, 1]`.
        duty: f64,
    },
    /// A pulse train whose emitter walks the deployment diagonal one
    /// step per burst ([`SWEEP_STEPS`] steps, then wraps).
    Sweep {
        /// Pulse period, chips.
        period: u64,
        /// Jammed fraction of each period, `(0, 1]`.
        duty: f64,
    },
    /// Reactive: senses frame starts it can hear and jams the rest of
    /// the sensed frame after `delay` chips of sense→jam turnaround.
    React {
        /// Sense→jam turnaround delay, chips.
        delay: u64,
    },
}

impl JammerSpec {
    /// The axis value name of the variant.
    pub fn name(&self) -> &'static str {
        match self {
            JammerSpec::Off => "off",
            JammerSpec::Pulse { .. } => "pulse",
            JammerSpec::Rand { .. } => "rand",
            JammerSpec::Sweep { .. } => "sweep",
            JammerSpec::React { .. } => "react",
        }
    }

    /// The axis-value rendering (inverse of [`JammerSpec::parse`]).
    pub fn render(&self) -> String {
        match *self {
            JammerSpec::Off => "off".into(),
            JammerSpec::Pulse { period, duty } => format!("pulse:{period}:{duty}"),
            JammerSpec::Rand { duty } => format!("rand:{duty}"),
            JammerSpec::Sweep { period, duty } => format!("sweep:{period}:{duty}"),
            JammerSpec::React { delay } => format!("react:{delay}"),
        }
    }

    /// Parses a `jammer` axis value:
    /// `off | pulse:PERIOD:DUTY | rand:DUTY | sweep:PERIOD:DUTY |
    /// react:DELAY` (periods/delays in chips, duty in `(0, 1]`).
    pub fn parse(s: &str) -> Result<Self, String> {
        let err = || {
            format!(
                "unknown jammer {s:?} (want off | pulse:PERIOD:DUTY | rand:DUTY | \
                 sweep:PERIOD:DUTY | react:DELAY)"
            )
        };
        let parts: Vec<&str> = s.split(':').collect();
        let period = |v: &str| v.parse::<u64>().ok().filter(|&p| p >= 64);
        let duty = |v: &str| v.parse::<f64>().ok().filter(|d| *d > 0.0 && *d <= 1.0);
        match parts.as_slice() {
            ["off"] => Ok(JammerSpec::Off),
            ["pulse", p, d] => match (period(p), duty(d)) {
                (Some(period), Some(duty)) => Ok(JammerSpec::Pulse { period, duty }),
                _ => Err(err()),
            },
            ["rand", d] => duty(d)
                .map(|duty| JammerSpec::Rand { duty })
                .ok_or_else(err),
            ["sweep", p, d] => match (period(p), duty(d)) {
                (Some(period), Some(duty)) => Ok(JammerSpec::Sweep { period, duty }),
                _ => Err(err()),
            },
            ["react", v] => v
                .parse::<u64>()
                .ok()
                .map(|delay| JammerSpec::React { delay })
                .ok_or_else(err),
            _ => Err(err()),
        }
    }

    /// Identity words for snapshot validation: a variant tag plus the
    /// two parameter slots (unused slots zero; duties as `f64` bits).
    pub fn identity_words(&self) -> (u8, u64, u64) {
        match *self {
            JammerSpec::Off => (0, 0, 0),
            JammerSpec::Pulse { period, duty } => (1, period, duty.to_bits()),
            JammerSpec::Rand { duty } => (2, duty.to_bits(), 0),
            JammerSpec::Sweep { period, duty } => (3, period, duty.to_bits()),
            JammerSpec::React { delay } => (4, delay, 0),
        }
    }
}

/// One recorded jamming burst: the chip interval plus the emitter's
/// position when it fired (the sweep jammer moves between bursts).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JamBurstRec {
    /// First jammed chip.
    pub start: u64,
    /// One-past-last jammed chip.
    pub end: u64,
    /// Emitter x position, meters.
    pub x: f64,
    /// Emitter y position, meters.
    pub y: f64,
}

impl JamBurstRec {
    /// The burst as a channel-layer interval.
    pub fn burst(&self) -> Burst {
        Burst {
            start: self.start,
            end: self.end,
        }
    }

    /// The emitter position.
    pub fn pos(&self) -> Point {
        Point::new(self.x, self.y)
    }
}

/// A pre-planned fault event: at `time`, `node` goes down
/// (`up == false`) or comes back (`up == true`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEvent {
    /// Chip time of the fault.
    pub time: u64,
    /// Affected node.
    pub node: usize,
    /// Restart (`true`) or crash (`false`).
    pub up: bool,
}

/// A link-degradation window: `node`'s noise floor is multiplied by
/// [`DEGRADE_FACTOR`] over `[start, end)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DegradeWindow {
    /// Affected node.
    pub node: usize,
    /// First degraded chip.
    pub start: u64,
    /// One-past-last degraded chip.
    pub end: u64,
}

/// The full fault-injection plan: crash/restart churn events plus
/// link-degradation windows. A pure function of `(seed, churn rate,
/// node count, protected node)` — see [`FaultPlan::generate`] — so
/// restore recomputes it instead of deserializing it.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FaultPlan {
    /// Crash/restart events, in generation order (each crash is
    /// immediately followed by its restart; times are not sorted —
    /// the event queue orders them).
    pub faults: Vec<FaultEvent>,
    /// Link-degradation windows, in generation order.
    pub degrade: Vec<DegradeWindow>,
}

impl FaultPlan {
    /// Plans `churn` crashes per simulated second over the adversary
    /// horizon (and as many degradation windows), never touching
    /// `protect` (the flood source — crashing it would trivially kill
    /// every run). Deterministic: stream slots 1 (churn) and 2
    /// (degradation) of `seed`.
    ///
    /// # Panics
    /// Panics if `churn` exceeds [`MAX_CHURN`] or is NaN: the plan is
    /// allocated before the run starts.
    pub fn generate(seed: u64, churn: f64, nodes: usize, protect: usize) -> FaultPlan {
        let mut plan = FaultPlan::default();
        if churn <= 0.0 || nodes < 2 {
            return plan;
        }
        assert!(churn <= MAX_CHURN, "churn {churn} outside 0-{MAX_CHURN}");
        let horizon_s = ADVERSARY_HORIZON as f64 / ppr_phy::chips::CHIP_RATE_HZ as f64;
        let count = (churn * horizon_s).round() as usize;
        let mut crng = StdRng::seed_from_u64(adversary_seed(seed, 1));
        for _ in 0..count {
            let mut node = (crng.gen::<u64>() % nodes as u64) as usize;
            if node == protect {
                node = (node + 1) % nodes;
            }
            let at = crng.gen::<u64>() % ADVERSARY_HORIZON;
            let down = DOWNTIME_MIN + crng.gen::<u64>() % (DOWNTIME_MAX - DOWNTIME_MIN);
            plan.faults.push(FaultEvent {
                time: at,
                node,
                up: false,
            });
            plan.faults.push(FaultEvent {
                time: at + down,
                node,
                up: true,
            });
        }
        let mut drng = StdRng::seed_from_u64(adversary_seed(seed, 2));
        for _ in 0..count {
            let mut node = (drng.gen::<u64>() % nodes as u64) as usize;
            if node == protect {
                node = (node + 1) % nodes;
            }
            let at = drng.gen::<u64>() % ADVERSARY_HORIZON;
            let len = DEGRADE_MIN + drng.gen::<u64>() % (DEGRADE_MAX - DEGRADE_MIN);
            plan.degrade.push(DegradeWindow {
                node,
                start: at,
                end: at + len,
            });
        }
        plan
    }

    /// Noise multiplier for `node` over the reception window
    /// `[from, to)`: [`DEGRADE_FACTOR`] when any degradation window
    /// overlaps it, 1.0 otherwise.
    pub fn noise_factor(&self, node: usize, from: u64, to: u64) -> f64 {
        let hit = self
            .degrade
            .iter()
            .any(|w| w.node == node && w.start < to && from < w.end);
        if hit {
            DEGRADE_FACTOR
        } else {
            1.0
        }
    }
}

/// The jammer actor: one emitter driven by `SimEvent::JamBurst` events.
///
/// Stateful fields live under the snapshot contract — a checkpoint in
/// the middle of a burst train (or with a reactive burst in flight)
/// must resume bit-identically, so the RNG words, the busy horizon,
/// the sweep step, the scheduled-burst FIFO and the grow-only record
/// are all serialized; the emitter's *base* position is derived from
/// the deployment side and rebuilt.
// ppr-lint: region(snapshot-state) begin adversary jammer actor state
pub struct AdversaryState {
    /// snapshot: identity — the jammer spec, validated on restore.
    spec: JammerSpec,
    /// snapshot: rebuilt — deployment square side, derived from the
    /// placement (which is itself seed-derived).
    side: f64,
    /// snapshot: serialized — the jammer's own RNG stream (slot 0)
    /// as its four xoshiro state words.
    rng: StdRng,
    /// snapshot: serialized — earliest chip the reactive jammer may
    /// schedule its next burst (sense→jam pipeline is depth one).
    busy_until: u64,
    /// snapshot: serialized — the sweep jammer's walk step.
    sweep_idx: u64,
    /// snapshot: serialized — reactive bursts scheduled but not yet
    /// popped, in schedule (= chip) order.
    scheduled: Vec<(u64, u64)>,
    /// snapshot: serialized — every burst emitted so far, in pop
    /// order (grow-only; decode flushes read it).
    bursts: Vec<JamBurstRec>,
}
// ppr-lint: region(snapshot-state) end

impl AdversaryState {
    /// Builds the actor for a deployment square of side `side` meters.
    /// The emitter sits at the square's center (maximum reach); the
    /// sweep variant walks the diagonal from there.
    pub fn new(spec: JammerSpec, seed: u64, side: f64) -> Self {
        AdversaryState {
            spec,
            side,
            rng: StdRng::seed_from_u64(adversary_seed(seed, 0)),
            busy_until: 0,
            sweep_idx: 0,
            scheduled: Vec::new(),
            bursts: Vec::new(),
        }
    }

    /// The configured spec.
    pub fn spec(&self) -> JammerSpec {
        self.spec
    }

    /// Is there a jammer at all?
    pub fn active(&self) -> bool {
        self.spec != JammerSpec::Off
    }

    /// Every burst emitted so far.
    pub fn bursts(&self) -> &[JamBurstRec] {
        &self.bursts
    }

    /// Chip time of the first `JamBurst` event to schedule at driver
    /// init (`None` for `Off` and for the purely reactive jammer).
    pub fn initial_burst_time(&self) -> Option<u64> {
        match self.spec {
            JammerSpec::Off | JammerSpec::React { .. } => None,
            JammerSpec::Pulse { .. } | JammerSpec::Rand { .. } | JammerSpec::Sweep { .. } => {
                Some(0)
            }
        }
    }

    /// The emitter position at sweep step `idx`: the square's center
    /// for the stationary types, a diagonal walk for sweep.
    fn pos_at(&self, idx: u64) -> Point {
        match self.spec {
            JammerSpec::Sweep { .. } => {
                let f = (idx % SWEEP_STEPS) as f64 / SWEEP_STEPS as f64;
                Point::new(f * self.side, f * self.side)
            }
            _ => Point::new(self.side / 2.0, self.side / 2.0),
        }
    }

    /// The emitter's current position (for sensing-range checks).
    pub fn pos(&self) -> Point {
        self.pos_at(self.sweep_idx)
    }

    /// Handles a popped `JamBurst` event at chip `now`. Records the
    /// burst (if this slot jams) and returns the time of the next
    /// self-scheduled `JamBurst`, if any. The caller owns the queue;
    /// the actor only names times.
    pub fn on_jam_burst(&mut self, now: u64) -> Option<u64> {
        match self.spec {
            JammerSpec::Off => None,
            JammerSpec::Pulse { period, duty } => {
                let on = ((period as f64 * duty) as u64).clamp(1, period);
                self.record(now, now + on);
                let next = now + period;
                (next < ADVERSARY_HORIZON).then_some(next)
            }
            JammerSpec::Sweep { period, duty } => {
                let on = ((period as f64 * duty) as u64).clamp(1, period);
                self.record(now, now + on);
                self.sweep_idx += 1;
                let next = now + period;
                (next < ADVERSARY_HORIZON).then_some(next)
            }
            JammerSpec::Rand { duty } => {
                // One Bernoulli(duty) draw per slot, always consumed,
                // so the stream position is a pure function of the
                // slot index.
                let jam = self.rng.gen::<f64>() < duty;
                if jam {
                    self.record(now, now + RAND_SLOT);
                }
                let next = now + RAND_SLOT;
                (next < ADVERSARY_HORIZON).then_some(next)
            }
            JammerSpec::React { .. } => {
                // The burst was fixed at sense time; pop it in FIFO
                // order and record it.
                if !self.scheduled.is_empty() {
                    let (start, end) = self.scheduled.remove(0);
                    debug_assert_eq!(start, now, "reactive burst pops at its start");
                    self.record(start, end);
                }
                None
            }
        }
    }

    /// Reactive sensing hook: a frame from a sender the jammer can
    /// hear (`sense_ok`, the driver's squelch verdict at the jammer's
    /// position) starts at `start` and ends at `end`. Returns the chip
    /// time of the `JamBurst` to schedule, or `None` when the jammer
    /// is off-type, deaf to this frame, still busy, or too slow (the
    /// frame ends before sense→jam turnaround completes).
    pub fn on_tx_start(&mut self, start: u64, end: u64, sense_ok: bool) -> Option<u64> {
        let JammerSpec::React { delay } = self.spec else {
            return None;
        };
        if !sense_ok || self.busy_until > start {
            return None;
        }
        let jam_from = start + delay;
        if jam_from >= end {
            return None;
        }
        self.scheduled.push((jam_from, end));
        // Turnaround again before the next sense can fire.
        self.busy_until = end + delay;
        Some(jam_from)
    }

    /// All recorded bursts overlapping `[from, to)`.
    pub fn bursts_overlapping(&self, from: u64, to: u64) -> impl Iterator<Item = &JamBurstRec> {
        self.bursts
            .iter()
            .filter(move |b| b.start < to && from < b.end)
    }

    fn record(&mut self, start: u64, end: u64) {
        let p = self.pos();
        self.bursts.push(JamBurstRec {
            start,
            end,
            x: p.x,
            y: p.y,
        });
    }

    /// Total chips jammed so far (bursts may not overlap — pulse/rand
    /// trains are disjoint by construction, reactive is depth-one).
    pub fn jam_chips(&self) -> u64 {
        self.bursts.iter().map(|b| b.end - b.start).sum()
    }

    /// Serializes the actor's dynamic state:
    /// `(rng words, busy_until, sweep_idx, scheduled, bursts)`.
    #[allow(clippy::type_complexity)]
    pub fn save_state(
        &self,
    ) -> (
        [u64; 4],
        u64,
        u64,
        Vec<(u64, u64)>,
        Vec<(u64, u64, u64, u64)>,
    ) {
        (
            self.rng.state(),
            self.busy_until,
            self.sweep_idx,
            self.scheduled.clone(),
            self.bursts
                .iter()
                .map(|b| (b.start, b.end, b.x.to_bits(), b.y.to_bits()))
                .collect(),
        )
    }

    /// Restores the dynamic state captured by
    /// [`AdversaryState::save_state`] into a freshly built actor.
    #[allow(clippy::type_complexity)]
    pub fn restore_state(
        &mut self,
        (rng, busy_until, sweep_idx, scheduled, bursts): (
            [u64; 4],
            u64,
            u64,
            Vec<(u64, u64)>,
            Vec<(u64, u64, u64, u64)>,
        ),
    ) {
        self.rng = StdRng::from_state(rng);
        self.busy_until = busy_until;
        self.sweep_idx = sweep_idx;
        self.scheduled = scheduled;
        self.bursts = bursts
            .into_iter()
            .map(|(start, end, x, y)| JamBurstRec {
                start,
                end,
                x: f64::from_bits(x),
                y: f64::from_bits(y),
            })
            .collect();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jammer_spec_parses_and_round_trips() {
        for s in [
            "off",
            "pulse:32768:0.2",
            "rand:0.35",
            "sweep:65536:0.5",
            "react:4096",
        ] {
            let spec = JammerSpec::parse(s).unwrap();
            assert_eq!(spec.render(), s, "{s}");
            assert_eq!(JammerSpec::parse(&spec.render()).unwrap(), spec);
        }
        assert_eq!(JammerSpec::parse("off").unwrap().name(), "off");
        assert_eq!(JammerSpec::parse("react:10").unwrap().name(), "react");
    }

    #[test]
    fn jammer_spec_rejects_malformed_values() {
        for bad in [
            "",
            "nope",
            "pulse",
            "pulse:0:0.5",
            "pulse:4096:0",
            "pulse:4096:1.5",
            "rand:-0.1",
            "rand:nan",
            "sweep:big:0.2",
            "react:",
            "react:-3",
            "pulse:16:0.5",
        ] {
            assert!(JammerSpec::parse(bad).is_err(), "{bad:?} must not parse");
        }
    }

    #[test]
    fn pulse_jammer_self_schedules_to_the_horizon() {
        let mut j = AdversaryState::new(
            JammerSpec::Pulse {
                period: 1 << 20,
                duty: 0.25,
            },
            7,
            100.0,
        );
        let mut t = j.initial_burst_time().unwrap();
        let mut hops = 0;
        while let Some(next) = j.on_jam_burst(t) {
            assert_eq!(next, t + (1 << 20));
            t = next;
            hops += 1;
        }
        assert_eq!(hops, 3, "2^22 horizon / 2^20 period = 4 bursts");
        assert_eq!(j.bursts().len(), 4);
        for b in j.bursts() {
            assert_eq!(b.end - b.start, 1 << 18, "25% duty of a 2^20 period");
            assert_eq!((b.x, b.y), (50.0, 50.0), "stationary at center");
        }
        assert_eq!(j.jam_chips(), 4 << 18);
    }

    #[test]
    fn rand_jammer_is_deterministic_and_duty_bounded() {
        let run = |seed| {
            let mut j = AdversaryState::new(JammerSpec::Rand { duty: 0.4 }, seed, 50.0);
            let mut t = j.initial_burst_time().unwrap();
            while let Some(next) = j.on_jam_burst(t) {
                t = next;
            }
            j.bursts().to_vec()
        };
        let a = run(11);
        assert_eq!(a, run(11), "same seed, same bursts");
        assert_ne!(a, run(12), "seed-sensitive");
        let slots = ADVERSARY_HORIZON / RAND_SLOT;
        let frac = a.len() as f64 / slots as f64;
        assert!(
            (0.2..=0.6).contains(&frac),
            "duty 0.4 → jammed fraction {frac}"
        );
    }

    #[test]
    fn sweep_jammer_walks_the_diagonal() {
        let mut j = AdversaryState::new(
            JammerSpec::Sweep {
                period: 1 << 17,
                duty: 0.5,
            },
            3,
            80.0,
        );
        let mut t = j.initial_burst_time().unwrap();
        while let Some(next) = j.on_jam_burst(t) {
            t = next;
        }
        let xs: Vec<f64> = j.bursts().iter().map(|b| b.x).collect();
        assert!(xs.len() > SWEEP_STEPS as usize, "walk wraps");
        assert_eq!(xs[0], 0.0);
        assert!((xs[1] - 5.0).abs() < 1e-12, "80 m / 16 steps");
        assert_eq!(xs[SWEEP_STEPS as usize], 0.0, "wraps to the start");
        for b in j.bursts() {
            assert_eq!(b.x, b.y, "diagonal walk");
        }
    }

    #[test]
    fn reactive_jammer_senses_turns_around_and_backs_off() {
        let mut j = AdversaryState::new(JammerSpec::React { delay: 100 }, 5, 60.0);
        assert_eq!(j.initial_burst_time(), None, "purely reactive");
        // Deaf to frames it cannot hear.
        assert_eq!(j.on_tx_start(1_000, 20_000, false), None);
        // Hears this one: jam from start+delay to frame end.
        assert_eq!(j.on_tx_start(1_000, 20_000, true), Some(1_100));
        // Busy until frame end + turnaround: the overlapping second
        // frame is not jammed.
        assert_eq!(j.on_tx_start(5_000, 24_000, true), None);
        // Pop the burst at its start.
        assert_eq!(j.on_jam_burst(1_100), None);
        assert_eq!(
            j.bursts(),
            &[JamBurstRec {
                start: 1_100,
                end: 20_000,
                x: 30.0,
                y: 30.0
            }]
        );
        // After the turnaround window it can sense again...
        assert_eq!(j.on_tx_start(20_100, 40_000, true), Some(20_200));
        // ...but a frame that ends before the turnaround completes is
        // not worth jamming.
        let mut k = AdversaryState::new(JammerSpec::React { delay: 5_000 }, 5, 60.0);
        assert_eq!(k.on_tx_start(0, 4_000, true), None);
    }

    #[test]
    fn burst_overlap_query_filters_by_interval() {
        let mut j = AdversaryState::new(
            JammerSpec::Pulse {
                period: 1 << 20,
                duty: 0.25,
            },
            7,
            100.0,
        );
        let mut t = j.initial_burst_time().unwrap();
        while let Some(next) = j.on_jam_burst(t) {
            t = next;
        }
        // Bursts at [0, 2^18), [2^20, 2^20+2^18), ...
        assert_eq!(j.bursts_overlapping(0, 1).count(), 1);
        assert_eq!(j.bursts_overlapping(1 << 18, 1 << 20).count(), 0);
        assert_eq!(j.bursts_overlapping(0, ADVERSARY_HORIZON).count(), 4);
    }

    #[test]
    fn adversary_state_round_trips_through_save_restore() {
        let mut j = AdversaryState::new(JammerSpec::Rand { duty: 0.5 }, 9, 40.0);
        let mut t = j.initial_burst_time().unwrap();
        for _ in 0..10 {
            if let Some(next) = j.on_jam_burst(t) {
                t = next;
            }
        }
        let state = j.save_state();
        let mut k = AdversaryState::new(JammerSpec::Rand { duty: 0.5 }, 9, 40.0);
        k.restore_state(state);
        // Driving both from here must produce identical bursts.
        for _ in 0..10 {
            let a = j.on_jam_burst(t);
            let b = k.on_jam_burst(t);
            assert_eq!(a, b);
            assert_eq!(j.bursts(), k.bursts());
            if let Some(next) = a {
                t = next;
            }
        }
    }

    #[test]
    fn fault_plan_is_deterministic_and_protects_the_source() {
        let a = FaultPlan::generate(5, 3.0, 100, 42);
        assert_eq!(a, FaultPlan::generate(5, 3.0, 100, 42));
        assert_ne!(a, FaultPlan::generate(6, 3.0, 100, 42));
        assert!(!a.faults.is_empty());
        // ~3 crashes/s over a ~2.1 s horizon → ~6 crash+restart pairs.
        assert_eq!(a.faults.len() % 2, 0);
        assert!(
            (4..=8).contains(&(a.faults.len() / 2)),
            "{}",
            a.faults.len()
        );
        for f in &a.faults {
            assert_ne!(f.node, 42, "the protected node never faults");
            assert!(f.node < 100);
        }
        // Each crash is paired with a later restart of the same node.
        for pair in a.faults.chunks(2) {
            assert!(!pair[0].up && pair[1].up);
            assert_eq!(pair[0].node, pair[1].node);
            let down = pair[1].time - pair[0].time;
            assert!((DOWNTIME_MIN..DOWNTIME_MAX).contains(&down));
        }
        assert_eq!(a.degrade.len(), a.faults.len() / 2);
        assert!(FaultPlan::generate(5, 0.0, 100, 0).faults.is_empty());
    }

    #[test]
    fn degradation_windows_multiply_noise_only_inside() {
        let plan = FaultPlan {
            faults: vec![],
            degrade: vec![DegradeWindow {
                node: 3,
                start: 1_000,
                end: 2_000,
            }],
        };
        assert_eq!(plan.noise_factor(3, 1_500, 1_600), DEGRADE_FACTOR);
        assert_eq!(plan.noise_factor(3, 0, 1_001), DEGRADE_FACTOR);
        assert_eq!(plan.noise_factor(3, 2_000, 3_000), 1.0, "end is exclusive");
        assert_eq!(plan.noise_factor(4, 1_500, 1_600), 1.0, "other node");
    }
}
