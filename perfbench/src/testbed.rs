//! The `testbed` workload's in-process half: the capacity runs and
//! receiver arms its experiments build, their deterministic counts,
//! their set-up constructors, and a replay of every arm from the public
//! stage functions.

use crate::trace::Tracer;
use crate::{Check, PassTimes};
use ppr_channel::chip_channel::{corrupt_chip_words_in_place, ErrorProfile};
use ppr_channel::overlap::{interference_profile, HeardTx};
use ppr_mac::frame::Frame;
use ppr_mac::schemes::{correct_delivered_bytes, DeliveryScheme};
use ppr_phy::spread::bytes_to_symbols;
use ppr_sim::experiments::common::six_arms;
use ppr_sim::experiments::table2::CHUNK_COUNTS;
use ppr_sim::network::{
    build_body_padded, generate_timeline, office_model, payload_pattern, RadioEnv, Reception,
    ReceptionDriver, RxArm, SimConfig, Transmission, BATCH_PER_WORKER, SQUELCH_SNR,
};
use ppr_sim::rxpath::{Acquisition, FastRx};
use ppr_sim::scenario::{Scenario, LOADS};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

/// One `CapacityRun` an experiment builds, with the arms it evaluates
/// over that run's timeline.
pub struct RunSpec {
    pub experiment: &'static str,
    pub cfg: SimConfig,
    pub arms: Vec<RxArm>,
}

fn arm(scheme: DeliveryScheme, collect_symbols: bool) -> RxArm {
    RxArm {
        scheme,
        postamble: true,
        collect_symbols,
    }
}

/// The capacity runs of the given experiments, in run order. Mirrors
/// each experiment's `collect`: `fig13` is sample-level DSP and builds
/// no capacity run; `mrd` builds one but combines copies with its own
/// `&[bool]` loop, so its run has no replayed arm.
pub fn runs(sc: &Scenario, ids: &[String]) -> Vec<RunSpec> {
    let ppr = arm(sc.ppr_scheme(), true);
    let six = || six_arms(sc.schemes()).into_iter().map(|(_, a)| a).collect();
    let mut out = Vec::new();
    let mut push = |experiment, load, cs, arms| {
        out.push(RunSpec {
            experiment,
            cfg: sc.sim_config(load, cs),
            arms,
        })
    };
    let loads = sc.loads(&LOADS);
    for id in ids {
        match id.as_str() {
            "fig03" => loads
                .iter()
                .for_each(|&l| push("fig03", l, true, vec![ppr])),
            "fig08" => push("fig08", 3.5, true, six()),
            "fig09" => push("fig09", 3.5, false, six()),
            "fig10" => push("fig10", 13.8, false, six()),
            "fig11" => push("fig11", 6.9, false, six()),
            "fig12" => loads.iter().for_each(|&l| {
                push(
                    "fig12",
                    l,
                    false,
                    sc.schemes().map(|s| arm(s, false)).to_vec(),
                )
            }),
            "fig14" => push("fig14", 13.8, true, vec![ppr]),
            "fig15" => loads
                .iter()
                .for_each(|&l| push("fig15", l, true, vec![ppr])),
            "table2" => {
                let arms = CHUNK_COUNTS
                    .iter()
                    .map(|&chunks| {
                        let frag_payload = (sc.body_bytes / chunks).saturating_sub(4).max(1);
                        arm(DeliveryScheme::FragmentedCrc { frag_payload }, false)
                    })
                    .collect();
                push("table2", 13.8, false, arms)
            }
            "mrd" => push("mrd", 13.8, false, Vec::new()),
            _ => {}
        }
    }
    out
}

fn env_for(sc: &Scenario, cfg: &SimConfig) -> RadioEnv {
    let comm_radius_m = office_model().range_at_snr_m(SQUELCH_SNR);
    RadioEnv::with_testbed(cfg.seed, sc.topology.testbed(comm_radius_m))
}

/// The set-up constructors the workload runs before its first event:
/// one radio environment per capacity run.
pub fn setup(sc: &Scenario, specs: &[RunSpec]) {
    for spec in specs {
        std::hint::black_box(env_for(sc, &spec.cfg));
    }
}

fn audible(env: &RadioEnv, tx: &Transmission) -> usize {
    let noise = env.model.noise_mw();
    env.s2r_mw[tx.sender]
        .iter()
        .filter(|&&p| p / noise >= SQUELCH_SNR)
        .count()
}

/// Deterministic work counts: receptions the arms evaluate, events the
/// reception driver dispatches for them (one start per transmission,
/// one completion per reception), and transmissions delivered.
pub struct Counts {
    pub receptions: u64,
    pub events: u64,
    pub transmissions: u64,
}

pub fn counts(sc: &Scenario, specs: &[RunSpec]) -> Counts {
    let mut c = Counts {
        receptions: 0,
        events: 0,
        transmissions: 0,
    };
    for spec in specs {
        let env = env_for(sc, &spec.cfg);
        let timeline = generate_timeline(&env, &spec.cfg);
        let rx: u64 = timeline.iter().map(|tx| audible(&env, tx) as u64).sum();
        let arms = spec.arms.len() as u64;
        c.receptions += arms * rx;
        c.events += arms * (rx + timeline.len() as u64);
        c.transmissions += arms * timeline.len() as u64;
    }
    c
}

/// The per-reception noise stream seed `(seed, tx id, receiver)` the
/// reception driver uses.
fn reception_rng_seed(seed: u64, tx_id: u64, receiver: usize) -> u64 {
    seed ^ (tx_id.wrapping_mul(0x2545_F491_4F6C_DD1D)) ^ ((receiver as u64) << 56)
}

/// Builds a run's environment and timeline under `network` spans.
fn build_run(tr: &mut Tracer, sc: &Scenario, cfg: &SimConfig) -> (RadioEnv, Vec<Transmission>) {
    let s = tr.begin("network.env");
    let env = env_for(sc, cfg);
    tr.end(s);
    let s = tr.begin("network.timeline");
    let timeline = generate_timeline(&env, cfg);
    tr.end(s);
    tr.count("network.timeline_tx", timeline.len() as u64);
    (env, timeline)
}

/// Evaluates one arm over a timeline from the public stage functions,
/// receiver-major in timeline order, with the sequential busy/idle fold
/// per receiver — the order and seeding `process_receptions` uses.
fn replay_arm(
    tr: &mut Tracer,
    env: &RadioEnv,
    cfg: &SimConfig,
    timeline: &[Transmission],
    arm: &RxArm,
) -> Vec<Reception> {
    let outer = tr.begin("testbed.arm");
    let fast = FastRx::new(arm.postamble);
    let noise = env.model.noise_mw();
    let payload_len = arm.scheme.payload_len(cfg.body_bytes);
    let nr = env.testbed.receivers.len();

    let s = tr.begin("channel.interference");
    let heard: Vec<Vec<HeardTx>> = (0..nr)
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
        .collect();
    tr.end(s);

    let mut out = Vec::new();
    for (r, heard_r) in heard.iter().enumerate() {
        let mut busy_until = 0u64;
        for (i, tx) in timeline.iter().enumerate() {
            let signal = env.s2r_mw[tx.sender][r];
            if signal / noise < SQUELCH_SNR {
                continue;
            }
            let s = tr.begin("mac.frame");
            let payload = payload_pattern(tx.sender, tx.seq, payload_len);
            let body = build_body_padded(&arm.scheme, &payload, cfg.body_bytes);
            let frame = Frame::new(r as u16, tx.sender as u16, tx.seq, body);
            let mut chips = frame.chip_words();
            tr.end(s);

            let s = tr.begin("channel.interference");
            let spans = interference_profile(&heard_r[i], heard_r);
            let profile = ErrorProfile::from_interference(signal, noise, &spans);
            tr.end(s);

            let s = tr.begin("channel.corrupt");
            let mut rng = StdRng::seed_from_u64(reception_rng_seed(cfg.seed, tx.id, r));
            corrupt_chip_words_in_place(&mut chips, &profile, &mut rng);
            tr.end(s);
            tr.count("channel.chips", chips.len() as u64);

            let s = tr.begin("rxpath.sync");
            let pre_hit = fast.preamble_hit_words(&chips);
            tr.end(s);
            let idle = busy_until <= tx.start_chip;
            if idle && pre_hit {
                busy_until = tx.end_chip();
            }

            let s = tr.begin("rxpath.decode");
            let (acquisition, rx_frame) = fast.receive_words(&frame, &chips, idle);
            tr.end(s);
            tr.count(
                match acquisition {
                    Acquisition::Preamble => "rxpath.acq_preamble",
                    Acquisition::Postamble => "rxpath.acq_postamble",
                    Acquisition::None => "rxpath.acq_none",
                },
                1,
            );

            let s = tr.begin("mac.deliver");
            let mut rec = Reception {
                tx_id: tx.id,
                sender: tx.sender,
                receiver: r,
                acquisition,
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
                        let tx_symbols = bytes_to_symbols(&frame.body);
                        let body = g.body();
                        let rx_syms = rx.link_symbol_range(body.start * 2..body.end * 2);
                        rec.symbol_correct = rx_syms
                            .iter()
                            .zip(&tx_symbols)
                            .map(|(a, b)| a.symbol == *b)
                            .collect();
                        rec.symbol_hints = hints;
                    }
                }
            }
            tr.end(s);
            tr.count("mac.bytes_correct", rec.delivered_correct as u64);
            tr.count("mac.bytes_claimed", rec.delivered_claimed as u64);
            tr.count("network.receptions", 1);
            out.push(rec);
        }
    }
    tr.end(outer);
    out
}

/// One traced pass over every arm. Each arm is replayed untraced, then
/// traced; the two must agree, and when `reference` is set both must
/// equal the reception driver's `Vec<Reception>` for that arm.
pub fn trace_pass(
    sc: &Scenario,
    specs: &[RunSpec],
    tr: &mut Tracer,
    reference: bool,
    check: &mut Check,
) -> PassTimes {
    let mut quiet = Tracer::new(false);
    let (mut traced_s, mut untraced_s) = (0.0, 0.0);
    for spec in specs {
        let t0 = Instant::now();
        let (env_u, timeline_u) = build_run(&mut quiet, sc, &spec.cfg);
        let t1 = Instant::now();
        let (env, timeline) = build_run(tr, sc, &spec.cfg);
        traced_s += t1.elapsed().as_secs_f64();
        untraced_s += (t1 - t0).as_secs_f64();
        check.expect(timeline == timeline_u && env.s2r_mw == env_u.s2r_mw, || {
            format!("{}: traced run inputs differ", spec.experiment)
        });
        for (a, arm) in spec.arms.iter().enumerate() {
            let t0 = Instant::now();
            let untraced = replay_arm(&mut quiet, &env_u, &spec.cfg, &timeline_u, arm);
            let t1 = Instant::now();
            let traced = replay_arm(tr, &env, &spec.cfg, &timeline, arm);
            traced_s += t1.elapsed().as_secs_f64();
            untraced_s += (t1 - t0).as_secs_f64();
            check.expect(traced == untraced, || {
                format!(
                    "{} arm {a}: traced replay differs from untraced",
                    spec.experiment
                )
            });
            if reference {
                let mut driver = ReceptionDriver::new(
                    &env,
                    &spec.cfg,
                    &timeline,
                    arm,
                    sc.threads,
                    BATCH_PER_WORKER,
                );
                driver.run_events(u64::MAX);
                tr.count("event.dispatched", driver.dispatched());
                let expected = driver.run_to_end();
                check.expect(traced == expected, || {
                    format!(
                        "{} arm {a}: replay differs from process_receptions",
                        spec.experiment
                    )
                });
            }
        }
    }
    PassTimes {
        pass_s: traced_s,
        overhead_s: traced_s - untraced_s,
    }
}
