//! Shared experiment machinery: standard runs, per-link aggregation, and
//! the experiment parameter conventions used across figures.
//!
//! Parameter defaults and environment overrides live in
//! [`crate::scenario`] — this module only consumes a resolved
//! [`Scenario`].

use crate::geometry::Testbed;
use crate::metrics::Cdf;
use crate::network::{
    generate_timeline, office_model, process_receptions, process_receptions_checkpointed,
    process_receptions_timestep, resume_receptions_timestep, snapshot_after_events, RadioEnv,
    Reception, RxArm, SimConfig, Transmission, SQUELCH_SNR,
};
use crate::rxpath::Acquisition;
use crate::scenario::{Driver, Scenario, DEFAULT_SEED};
use crate::snapshot::RxSnapshot;
use ppr_mac::schemes::DeliveryScheme;

/// One standard capacity run: environment + timeline, reusable across
/// arms (the trace-post-processing methodology).
pub struct CapacityRun {
    /// The radio environment.
    pub env: RadioEnv,
    /// The run configuration.
    pub cfg: SimConfig,
    /// The generated transmission timeline.
    pub timeline: Vec<Transmission>,
    /// Which reception driver evaluates the arms.
    pub driver: Driver,
    /// Snapshot/restore exercise point (`None` = run uninterrupted).
    pub checkpoint: Option<u64>,
}

impl CapacityRun {
    /// Builds a run at the given load and carrier-sense arm under the
    /// historical defaults (master seed, 1500 B bodies, Fig. 7 floor).
    pub fn new(load_kbps: f64, carrier_sense: bool, duration_s: f64) -> Self {
        let cfg = SimConfig {
            load_kbps,
            body_bytes: 1500,
            carrier_sense,
            duration_s,
            seed: DEFAULT_SEED,
        };
        Self::from_config(cfg, Testbed::fig7(), Driver::Event, None)
    }

    /// Builds a run for a scenario at the experiment's canonical load
    /// and carrier-sense arm (both subject to the scenario's
    /// overrides), on the scenario's topology and driver.
    pub fn from_scenario(scenario: &Scenario, load_kbps: f64, carrier_sense: bool) -> Self {
        // The random-geometric square is sized for the *communication*
        // radius — the range at which a mean-power link still clears the
        // squelch threshold.
        let comm_radius_m = office_model().range_at_snr_m(SQUELCH_SNR);
        Self::from_config(
            scenario.sim_config(load_kbps, carrier_sense),
            scenario.topology.testbed(comm_radius_m),
            scenario.driver,
            scenario.checkpoint,
        )
    }

    fn from_config(
        cfg: SimConfig,
        testbed: Testbed,
        driver: Driver,
        checkpoint: Option<u64>,
    ) -> Self {
        let env = RadioEnv::with_testbed(cfg.seed, testbed);
        let timeline = generate_timeline(&env, &cfg);
        CapacityRun {
            env,
            cfg,
            timeline,
            driver,
            checkpoint,
        }
    }

    /// Evaluates one receiver arm over the shared timeline with the
    /// run's driver (event-driven by default; the time-stepped pinned
    /// reference under `driver=timestep`). Both produce bit-identical
    /// [`Reception`] streams — `tests/event_parity.rs` pins it.
    ///
    /// With a `checkpoint` set, the run is driven to that event
    /// boundary by the event core, serialized through the binary
    /// snapshot format, and completed under the run's driver — still
    /// bit-identical, which `tests/snapshot_roundtrip.rs` pins for the
    /// whole registry.
    pub fn receptions(&self, arm: &RxArm) -> Vec<Reception> {
        let (env, cfg, timeline) = (&self.env, &self.cfg, &self.timeline);
        match (self.driver, self.checkpoint) {
            (Driver::Event, None) => process_receptions(env, cfg, timeline, arm),
            (Driver::Event, Some(events)) => {
                process_receptions_checkpointed(env, cfg, timeline, arm, events)
            }
            (Driver::Timestep, None) => process_receptions_timestep(env, cfg, timeline, arm),
            (Driver::Timestep, Some(events)) => {
                // The checkpoint is always taken by the event core (the
                // timestep loop has no event counter); the *resume*
                // runs the time-stepped reference — cross-driver resume
                // in one run.
                let bytes = snapshot_after_events(env, cfg, timeline, arm, events);
                let snap =
                    RxSnapshot::from_bytes(&bytes).expect("reception snapshot bytes round-trip");
                resume_receptions_timestep(env, cfg, timeline, arm, &snap)
                    .expect("reception snapshot resumes against its own run")
            }
        }
    }
}

/// Per-link aggregation of reception outcomes.
#[derive(Debug, Clone, Default)]
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

/// Groups receptions by usable link, returning stats per (sender,
/// receiver) link in `env.links()` order.
pub fn per_link_stats(env: &RadioEnv, recs: &[Reception]) -> Vec<((usize, usize), LinkStats)> {
    let links = env.links();
    let mut stats: Vec<LinkStats> = vec![LinkStats::default(); links.len()];
    // BTreeMap, not HashMap: output order is driven by `links`, but the
    // experiment layer is deterministic *by construction* — no hashed
    // iteration order anywhere it could someday leak into results.
    let index: std::collections::BTreeMap<(usize, usize), usize> =
        links.iter().enumerate().map(|(i, &l)| (l, i)).collect();
    for rec in recs {
        let Some(&i) = index.get(&(rec.sender, rec.receiver)) else {
            continue;
        };
        let s = &mut stats[i];
        s.frames += 1;
        s.payload_offered += rec.payload_len;
        s.delivered_correct += rec.delivered_correct;
        match rec.acquisition {
            Acquisition::Preamble => s.via_preamble += 1,
            Acquisition::Postamble => s.via_postamble += 1,
            Acquisition::None => {}
        }
    }
    links.into_iter().zip(stats).collect()
}

/// Per-link FDR samples for a reception set.
pub fn fdr_cdf(env: &RadioEnv, recs: &[Reception], body_bytes: usize) -> Cdf {
    let samples = per_link_stats(env, recs)
        .into_iter()
        .filter(|(_, s)| s.frames > 0)
        .map(|(_, s)| s.fdr(body_bytes))
        .collect();
    Cdf::from_samples(samples)
}

/// Per-link throughput samples (kbit/s) for a reception set.
pub fn throughput_cdf(env: &RadioEnv, recs: &[Reception], duration_s: f64) -> Cdf {
    let samples = per_link_stats(env, recs)
        .into_iter()
        .filter(|(_, s)| s.frames > 0)
        .map(|(_, s)| s.throughput_kbps(duration_s))
        .collect();
    Cdf::from_samples(samples)
}

/// The six arm combinations of Figs. 8–10: the scenario's three schemes
/// × postamble on/off, in the paper's legend order.
pub fn six_arms(schemes: [DeliveryScheme; 3]) -> Vec<(String, RxArm)> {
    let mut out = Vec::new();
    for postamble in [false, true] {
        for scheme in schemes {
            let label = format!(
                "{}, {}",
                scheme.name(),
                if postamble {
                    "postamble decoding"
                } else {
                    "no postamble decoding"
                }
            );
            out.push((
                label,
                RxArm {
                    scheme,
                    postamble,
                    collect_symbols: false,
                },
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{ScenarioBuilder, DEFAULT_ETA};

    #[test]
    fn quick_capacity_run_produces_links_and_stats() {
        let sc = ScenarioBuilder::new().duration_s(4.0).build();
        let run = CapacityRun::from_scenario(&sc, 13.8, false);
        assert!(!run.timeline.is_empty());
        let arm = RxArm {
            scheme: DeliveryScheme::Ppr { eta: DEFAULT_ETA },
            postamble: true,
            collect_symbols: false,
        };
        let recs = run.receptions(&arm);
        let stats = per_link_stats(&run.env, &recs);
        assert!(!stats.is_empty());
        let with_frames = stats.iter().filter(|(_, s)| s.frames > 0).count();
        assert!(with_frames > 5, "only {with_frames} active links");
        for (_, s) in &stats {
            if s.frames > 0 {
                let fdr = s.fdr(1500);
                assert!((0.0..=1.0).contains(&fdr), "fdr {fdr}");
            }
        }
    }

    #[test]
    fn scenario_run_matches_legacy_constructor() {
        let sc = ScenarioBuilder::new().duration_s(3.0).build();
        let a = CapacityRun::from_scenario(&sc, 13.8, false);
        let b = CapacityRun::new(13.8, false, 3.0);
        assert_eq!(a.cfg, b.cfg);
        assert_eq!(a.timeline, b.timeline);
    }

    #[test]
    fn six_arms_cover_schemes_and_postamble() {
        let sc = ScenarioBuilder::new().duration_s(1.0).build();
        let arms = six_arms(sc.schemes());
        assert_eq!(arms.len(), 6);
        assert_eq!(arms.iter().filter(|(_, a)| a.postamble).count(), 3);
        assert!(arms[0].0.contains("Packet CRC"));
    }
}
