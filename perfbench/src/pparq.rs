//! The `pparq` workload's in-process half: the lockstep PP-ARQ sessions
//! of `fig16` and `jam`, a replay of `run_session_with` from the public
//! receiver/sender calls, and a timing wrapper around the two public
//! link channels.

use crate::trace::Tracer;
use crate::{Check, PassTimes};
use ppr_core::arq::{
    run_session_with, ArqChannel, PpArqConfig, ReceiverPacket, RetxPacket, SenderPacket,
    SessionStats,
};
use ppr_core::dp::ChunkScratch;
use ppr_core::feedback::Feedback;
use ppr_mac::crc::{append_crc32, verify_crc32_trailer};
use ppr_mac::{BackoffPolicy, DeliveryOutcome};
use ppr_sim::experiments::fig16::{self, RadioLinkChannel};
use ppr_sim::experiments::jam::{
    self, ArmStats, JammedLinkChannel, DUTIES, JAM_BODY_BYTES, JAM_PERIOD,
};
use ppr_sim::scenario::{Scenario, DEFAULT_SEED};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// Fig. 16 payloads are 250 B.
const FIG16_PACKET_BYTES: usize = 250;

/// An [`ArqChannel`] that times and counts every frame it carries.
pub struct Timed<'t, C> {
    pub inner: C,
    pub tr: &'t mut Tracer,
}

impl<C: ArqChannel> ArqChannel for Timed<'_, C> {
    fn forward(&mut self, bytes: &[u8]) -> (Vec<u8>, Vec<u8>) {
        let s = self.tr.begin("arq.channel");
        let out = self.inner.forward(bytes);
        self.tr.end(s);
        self.tr.count("arq.frames", 1);
        out
    }

    fn reverse(&mut self, bytes: &[u8]) -> (Vec<u8>, Vec<u8>) {
        let s = self.tr.begin("arq.channel");
        let out = self.inner.reverse(bytes);
        self.tr.end(s);
        self.tr.count("arq.frames", 1);
        out
    }
}

/// The sessions the workload's experiments run, from the scenario the
/// way `fig16` and `jam` derive them.
pub struct Params {
    /// `fig16`: session count and channel seed.
    fig16: Option<(usize, u64)>,
    /// `jam`: sessions per cell, seed and the shared backoff ladder.
    jam: Option<(usize, u64, BackoffPolicy)>,
}

pub fn params(sc: &Scenario, ids: &[String]) -> Params {
    let has = |id: &str| ids.iter().any(|x| x == id);
    Params {
        fig16: has("fig16").then_some((sc.arq_packets, 0xF16 ^ sc.seed ^ DEFAULT_SEED)),
        jam: has("jam").then(|| {
            let policy = BackoffPolicy {
                max_retries: sc.arq_retries,
                base_delay: 2 * JAM_PERIOD,
                multiplier_milli: (sc.arq_backoff * 1000.0).round() as u64,
                jitter_span: 0,
            };
            (
                (sc.arq_packets / 3).max(5),
                0x004A_414D ^ sc.seed ^ DEFAULT_SEED,
                policy,
            )
        }),
    }
}

fn fig16_payload(i: usize) -> Vec<u8> {
    let mut r = StdRng::seed_from_u64(i as u64);
    (0..FIG16_PACKET_BYTES).map(|_| r.gen()).collect()
}

fn jam_payload(seed: u64, i: usize) -> Vec<u8> {
    let mut r = StdRng::seed_from_u64(seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    (0..JAM_BODY_BYTES).map(|_| r.gen()).collect()
}

/// The set-up constructors the workload runs before its first frame:
/// every link channel and planner scratch.
pub fn setup(p: &Params) {
    if let Some((_, seed)) = p.fig16 {
        std::hint::black_box((RadioLinkChannel::marginal(seed), ChunkScratch::new()));
    }
    if let Some((_, seed, policy)) = p.jam {
        for duty in DUTIES {
            std::hint::black_box((
                JammedLinkChannel::new(duty, policy, seed),
                ChunkScratch::new(),
                JammedLinkChannel::new(duty, policy, seed),
            ));
        }
    }
}

enum Step {
    Replan,
    Ack,
    Retx(Vec<u8>),
}

/// `run_session_with`, replayed from `ReceiverPacket::make_feedback`,
/// `SenderPacket::on_feedback` and `ReceiverPacket::apply_retx` with a
/// span around each side's work.
fn replay_session<C: ArqChannel>(
    ch: &mut Timed<C>,
    payload: &[u8],
    config: PpArqConfig,
    scratch: &mut ChunkScratch,
) -> SessionStats {
    let seq = 1u16;
    let sender = SenderPacket::new(seq, payload.to_vec());
    let mut tx = payload.to_vec();
    append_crc32(&mut tx);
    let initial_bytes = tx.len();
    let (rx_bytes, rx_hints) = ch.forward(&tx);

    let s = ch.tr.begin("arq.apply");
    let crc_ok = rx_bytes.len() == tx.len() && verify_crc32_trailer(&rx_bytes);
    let n = payload.len().min(rx_bytes.len());
    let mut body = rx_bytes[..n].to_vec();
    let mut body_hints = rx_hints[..n].to_vec();
    body.resize(payload.len(), 0);
    body_hints.resize(payload.len(), u8::MAX);
    let mut receiver = ReceiverPacket::from_reception_with(
        seq,
        body,
        &body_hints,
        crc_ok,
        config,
        std::mem::take(scratch),
    );
    ch.tr.end(s);

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

        let s = ch.tr.begin("arq.plan");
        let mut fb_bytes = receiver.make_feedback().encode();
        append_crc32(&mut fb_bytes);
        ch.tr.end(s);
        stats.feedback_sizes.push(fb_bytes.len());
        let (fb_rx, _) = ch.reverse(&fb_bytes);

        let s = ch.tr.begin("arq.retx");
        let step = if !verify_crc32_trailer(&fb_rx) {
            Step::Replan
        } else {
            match Feedback::decode(&fb_rx[..fb_rx.len() - 4]) {
                None => Step::Replan,
                Some(fb) => match sender.on_feedback(&fb) {
                    None => Step::Ack,
                    Some(retx) => Step::Retx(retx.encode()),
                },
            }
        };
        ch.tr.end(s);
        let retx_bytes = match step {
            Step::Replan => continue,
            Step::Ack => break,
            Step::Retx(bytes) => bytes,
        };
        stats.retx_sizes.push(retx_bytes.len());
        let (retx_rx, _) = ch.forward(&retx_bytes);

        let s = ch.tr.begin("arq.apply");
        if let Some(decoded) = RetxPacket::decode(&retx_rx) {
            receiver.apply_retx(&decoded);
        }
        ch.tr.end(s);
    }
    stats.completed = receiver.is_complete();
    stats.final_payload = receiver.payload().to_vec();
    *scratch = receiver.into_scratch();
    stats
}

/// Every session's stats, and per duty the PP-ARQ then whole-frame arm.
#[derive(Debug, PartialEq)]
pub struct RunOut {
    pub sessions: Vec<SessionStats>,
    pub arms: Vec<ArmStats>,
}

fn absorb(a: &mut ArmStats, outcome: &DeliveryOutcome, total: usize, sent: usize) {
    a.sessions += 1;
    a.offered_bytes += total;
    a.sent_bytes += sent;
    a.rounds += outcome.rounds() as usize;
    match *outcome {
        DeliveryOutcome::Complete { .. } => {
            a.completed += 1;
            a.delivered_bytes += total;
        }
        DeliveryOutcome::Partial {
            delivered_bytes, ..
        } => {
            a.partial += 1;
            a.delivered_bytes += delivered_bytes;
        }
        DeliveryOutcome::Failed { .. } => a.failed += 1,
    }
}

fn session<C: ArqChannel>(
    ch: &mut Timed<C>,
    payload: &[u8],
    config: PpArqConfig,
    scratch: &mut ChunkScratch,
    replay: bool,
) -> (SessionStats, DeliveryOutcome) {
    let outer = ch.tr.begin("arq.session");
    let s = if replay {
        replay_session(ch, payload, config, scratch)
    } else {
        run_session_with(payload, config, ch, scratch)
    };
    ch.tr.end(outer);
    let delivered = if s.completed {
        payload.len()
    } else {
        s.final_payload
            .iter()
            .zip(payload)
            .filter(|(a, b)| a == b)
            .count()
    };
    let outcome = DeliveryOutcome::classify(
        s.completed,
        s.rounds.min(u8::MAX as usize) as u8,
        delivered,
        payload.len(),
    );
    let tr = &mut *ch.tr;
    tr.count("arq.sessions", 1);
    tr.count("arq.rounds", s.rounds as u64);
    tr.count("arq.retx_bytes", s.retx_sizes.iter().sum::<usize>() as u64);
    tr.count(
        "arq.feedback_bytes",
        s.feedback_sizes.iter().sum::<usize>() as u64,
    );
    tr.count(
        match outcome {
            DeliveryOutcome::Complete { .. } => "arq.complete",
            DeliveryOutcome::Partial { .. } => "arq.partial",
            DeliveryOutcome::Failed { .. } => "arq.failed",
        },
        1,
    );
    (s, outcome)
}

/// Runs every session of the workload in experiment order: through the
/// replay (`replay`) or through `run_session_with` itself.
pub fn run_all(p: &Params, tr: &mut Tracer, replay: bool) -> RunOut {
    let mut out = RunOut {
        sessions: Vec::new(),
        arms: Vec::new(),
    };
    if let Some((n, seed)) = p.fig16 {
        let mut ch = Timed {
            inner: RadioLinkChannel::marginal(seed),
            tr: &mut *tr,
        };
        let mut scratch = ChunkScratch::new();
        for i in 0..n {
            let payload = fig16_payload(i);
            let (s, _) = session(
                &mut ch,
                &payload,
                PpArqConfig::default(),
                &mut scratch,
                replay,
            );
            out.sessions.push(s);
        }
    }
    if let Some((n, seed, policy)) = p.jam {
        let config = PpArqConfig {
            max_rounds: policy.max_retries as usize,
            ..PpArqConfig::default()
        };
        for duty in DUTIES {
            let mut ch = Timed {
                inner: JammedLinkChannel::new(duty, policy, seed),
                tr: &mut *tr,
            };
            let mut scratch = ChunkScratch::new();
            let mut arm = ArmStats::default();
            for i in 0..n {
                let payload = jam_payload(seed, i);
                ch.inner.start_session();
                let (s, outcome) = session(&mut ch, &payload, config, &mut scratch, replay);
                absorb(&mut arm, &outcome, payload.len(), s.sender_bytes());
                out.sessions.push(s);
            }
            arm.elapsed_chips = ch.inner.now;
            out.arms.push(arm);
            out.arms.push(whole_frame_arm(duty, n, seed, policy, tr));
        }
    }
    out
}

/// `jam::run_whole_frame_arm` over the timed channel.
fn whole_frame_arm(
    duty: f64,
    n: usize,
    seed: u64,
    policy: BackoffPolicy,
    tr: &mut Tracer,
) -> ArmStats {
    let mut ch = Timed {
        inner: JammedLinkChannel::new(duty, policy, seed),
        tr,
    };
    let mut arm = ArmStats::default();
    for i in 0..n {
        let payload = jam_payload(seed, i);
        let mut tx = payload.clone();
        append_crc32(&mut tx);
        ch.inner.start_session();
        let mut sent = 0usize;
        let mut outcome = DeliveryOutcome::classify(false, policy.max_retries, 0, payload.len());
        for round in 0..=policy.max_retries {
            let (rx, _) = ch.forward(&tx);
            sent += tx.len();
            if rx.len() == tx.len() && verify_crc32_trailer(&rx) {
                outcome = DeliveryOutcome::classify(true, round, payload.len(), payload.len());
                break;
            }
        }
        absorb(&mut arm, &outcome, payload.len(), sent);
    }
    arm.elapsed_chips = ch.inner.now;
    arm
}

/// One traced pass. The untraced and traced replays must agree; when
/// `reference` is set they must also equal `run_session_with`'s
/// `SessionStats` session by session, and the experiments' own
/// `fig16::collect_seeded` and `jam` arm functions.
pub fn trace_pass(p: &Params, tr: &mut Tracer, reference: bool, check: &mut Check) -> PassTimes {
    let t0 = Instant::now();
    let untraced = run_all(p, &mut Tracer::new(false), true);
    let t1 = Instant::now();
    let traced = run_all(p, tr, true);
    let traced_s = t1.elapsed().as_secs_f64();
    let times = PassTimes {
        pass_s: traced_s,
        overhead_s: traced_s - (t1 - t0).as_secs_f64(),
    };
    check.expect(traced == untraced, || {
        "pparq: traced replay differs from untraced".to_string()
    });
    if reference {
        let expected = run_all(p, &mut Tracer::new(false), false);
        for (i, (a, b)) in traced.sessions.iter().zip(&expected.sessions).enumerate() {
            check.expect(a == b, || {
                format!("pparq session {i}: replay differs from run_session_with")
            });
        }
        check.expect(traced.sessions.len() == expected.sessions.len(), || {
            "pparq: session count differs".to_string()
        });
        check.expect(traced.arms == expected.arms, || {
            "pparq: jam arm stats differ".to_string()
        });
        if let Some((n, seed)) = p.fig16 {
            let run = fig16::collect_seeded(n, seed);
            check.expect(run.sessions[..] == expected.sessions[..n], || {
                "pparq: fig16 sessions differ from fig16::collect_seeded".to_string()
            });
        }
        if let Some((n, seed, policy)) = p.jam {
            for (d, duty) in DUTIES.into_iter().enumerate() {
                let (pp, wf) = jam::run_duty_point(duty, n, seed, policy);
                check.expect(
                    expected.arms[2 * d] == pp && expected.arms[2 * d + 1] == wf,
                    || format!("pparq: jam duty {duty} arms differ from jam::run_duty_point"),
                );
            }
        }
    }
    times
}
