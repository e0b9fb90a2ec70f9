//! Shared experiment machinery: standard runs, per-link aggregation, and
//! the experiment parameter conventions used across figures.
//!
//! Parameter defaults and environment overrides live in
//! [`crate::scenario`] — this module only consumes a resolved
//! [`Scenario`].

use super::traces::TraceKey;
use crate::geometry::Testbed;
use crate::metrics::Cdf;
use crate::network::{
    generate_timeline, office_model, process_receptions, RadioEnv, Reception, RxArm, SimConfig,
    Transmission, SQUELCH_SNR,
};
use crate::scenario::{Scenario, DEFAULT_SEED};
use ppr_mac::schemes::DeliveryScheme;

pub use crate::network::LinkStats;

/// One standard capacity run: environment + timeline, reusable across
/// arms (the trace-post-processing methodology).
pub struct CapacityRun {
    /// The radio environment.
    pub env: RadioEnv,
    /// The run configuration.
    pub cfg: SimConfig,
    /// The generated transmission timeline.
    pub timeline: Vec<Transmission>,
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
        Self::from_config(cfg, Testbed::fig7())
    }

    /// Builds a run for a scenario at the experiment's canonical load
    /// and carrier-sense arm (both subject to the scenario's
    /// overrides), on the scenario's topology.
    pub fn from_scenario(scenario: &Scenario, load_kbps: f64, carrier_sense: bool) -> Self {
        Self::from_key(&TraceKey::new(scenario, load_kbps, carrier_sense))
    }

    /// Builds the run a trace key names.
    pub fn from_key(key: &TraceKey) -> Self {
        // The random-geometric square is sized for the *communication*
        // radius — the range at which a mean-power link still clears the
        // squelch threshold.
        let comm_radius_m = office_model().range_at_snr_m(SQUELCH_SNR);
        Self::from_config(key.cfg, key.topology.testbed(comm_radius_m))
    }

    fn from_config(cfg: SimConfig, testbed: Testbed) -> Self {
        let env = RadioEnv::with_testbed(cfg.seed, testbed);
        let timeline = generate_timeline(&env, &cfg);
        CapacityRun { env, cfg, timeline }
    }

    /// Evaluates one receiver arm over the shared timeline with the
    /// reception driver.
    pub fn receptions(&self, arm: &RxArm) -> Vec<Reception> {
        process_receptions(&self.env, &self.cfg, &self.timeline, arm)
    }
}

/// The distribution of `metric` over the links that carried frames.
pub fn link_cdf(links: &[LinkStats], metric: impl Fn(&LinkStats) -> f64) -> Cdf {
    Cdf::from_samples(links.iter().filter(|s| s.frames > 0).map(metric).collect())
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
    use crate::network::ArmFold;
    use crate::scenario::{ScenarioBuilder, DEFAULT_ETA};

    /// Groups receptions by usable link, returning stats per (sender,
    /// receiver) link in `env.links()` order.
    fn per_link_stats(env: &RadioEnv, recs: &[Reception]) -> Vec<((usize, usize), LinkStats)> {
        env.links()
            .into_iter()
            .zip(ArmFold::of_stream(env, recs, false).links)
            .collect()
    }

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
