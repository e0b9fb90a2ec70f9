//! `meshjam`: the mesh flood under a reactive jammer with node churn.
//!
//! Same event-core flood as [`super::mesh`], but adversarial by
//! default: when the scenario leaves the `jammer` axis off, a reactive
//! jammer (sense→jam turnaround of 4096 chips) is substituted, and an
//! unset `churn` axis becomes 2 crashes per simulated second — so
//! `ppr-cli run meshjam` exercises the adversary path out of the box
//! while explicit `--set jammer=...` / `--set churn=...` overrides
//! still win. The report centers on graceful degradation: the
//! partial-delivery fraction (correct bytes over offered bytes across
//! all nodes), retry exhaustion, and the jammer/fault activity counts.

use super::mesh::{run_mesh, MeshParams};
use super::Experiment;
use crate::adversary::JammerSpec;
use crate::results::{ExperimentResult, TableBlock};
use crate::scenario::Scenario;

/// Sense→jam turnaround of the default reactive jammer, chips.
pub const DEFAULT_REACT_DELAY: u64 = 4096;

/// Default node churn when the axis is unset, crashes per simulated
/// second.
pub const DEFAULT_CHURN: f64 = 2.0;

/// Adversarial mesh parameters: the scenario's, with the reactive
/// jammer and churn substituted when the axes are at their benign
/// defaults.
pub fn meshjam_params(scenario: &Scenario) -> MeshParams {
    let mut params = MeshParams::from_scenario(scenario);
    if params.jammer == JammerSpec::Off {
        params.jammer = JammerSpec::React {
            delay: DEFAULT_REACT_DELAY,
        };
    }
    if params.churn == 0.0 {
        params.churn = DEFAULT_CHURN;
    }
    params
}

/// The `meshjam` experiment.
pub struct MeshJam;

impl Experiment for MeshJam {
    fn id(&self) -> &'static str {
        "meshjam"
    }

    fn title(&self) -> &'static str {
        "Mesh flood under reactive jamming and node churn"
    }

    fn paper_ref(&self) -> &'static str {
        "Section 8.4 (robustness extension)"
    }

    fn description(&self) -> &'static str {
        "graceful degradation of the mesh flood against a reactive jammer plus crash/restart churn"
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

impl MeshJam {
    /// Runs the flood on up to `threads` threads and renders its report.
    fn report(&self, scenario: &Scenario, threads: Option<usize>) -> ExperimentResult {
        let params = meshjam_params(scenario);
        let s = run_mesh(&params, threads);
        let offered = s.nodes * params.body_bytes;
        let partial_delivery = s.correct_bytes as f64 / offered.max(1) as f64;
        let sim_s = s.sim_seconds();

        let mut res = ExperimentResult::new(self.id(), self.title(), self.paper_ref(), scenario);
        res.text(format!(
            "Adversarial mesh flood: {} nodes, jammer {}, churn {:.1}/s,\n\
             retry budget {} rounds, backoff x{:.2}\n\n",
            s.nodes,
            params.jammer.render(),
            params.churn,
            params.arq_retries,
            params.arq_backoff_milli as f64 / 1000.0,
        ));
        let mut t = TableBlock::new(&["metric", "value"]);
        t.row(vec!["coverage (full payload)".into(), s.coverage().into()]);
        t.row(vec![
            "partial delivery fraction".into(),
            partial_delivery.into(),
        ]);
        t.row(vec![
            "retry budget exhausted".into(),
            s.retry_exhausted.into(),
        ]);
        t.row(vec![
            "jam bursts / jammed chips".into(),
            format!("{} / {}", s.jam_bursts, s.jam_chips).into(),
        ]);
        t.row(vec![
            "crashes / restarts".into(),
            format!("{} / {}", s.crashes, s.restarts).into(),
        ]);
        t.row(vec![
            "transmissions (repairs)".into(),
            format!("{} ({})", s.transmissions, s.repair_tx).into(),
        ]);
        t.row(vec![
            "repair bytes requested".into(),
            s.repair_bytes_requested.into(),
        ]);
        t.row(vec!["simulated seconds".into(), sim_s.into()]);
        res.table(t);
        res.text(
            "\nGraceful degradation: jammed and churned nodes end Partial, not\n\
             looping — every retry schedule is bounded and deterministic.\n",
        );
        res.metric("nodes", s.nodes as f64);
        res.metric("coverage", s.coverage());
        res.metric("partial_delivery_fraction", partial_delivery);
        res.metric("recovered", s.recovered as f64);
        res.metric("correct_bytes", s.correct_bytes as f64);
        res.metric("retry_exhausted", s.retry_exhausted as f64);
        res.metric("jam_bursts", s.jam_bursts as f64);
        res.metric("jam_chips", s.jam_chips as f64);
        res.metric("crashes", s.crashes as f64);
        res.metric("restarts", s.restarts as f64);
        res.metric("transmissions", s.transmissions as f64);
        res.metric("repair_tx", s.repair_tx as f64);
        res.metric("repair_bytes_requested", s.repair_bytes_requested as f64);
        res.metric("events_dispatched", s.events_dispatched as f64);
        res.metric("sim_seconds", sim_s);
        res
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::ScenarioBuilder;

    #[test]
    fn defaults_substitute_an_adversary() {
        let sc = ScenarioBuilder::new().mesh_nodes(300).build();
        let p = meshjam_params(&sc);
        assert_eq!(
            p.jammer,
            JammerSpec::React {
                delay: DEFAULT_REACT_DELAY
            }
        );
        assert_eq!(p.churn, DEFAULT_CHURN);
    }

    #[test]
    fn explicit_axes_override_the_substitution() {
        let mut b = ScenarioBuilder::new().mesh_nodes(300);
        b.set("jammer", "pulse:8192:0.25").unwrap();
        b.set("churn", "0.5").unwrap();
        let p = meshjam_params(&b.build());
        assert_eq!(
            p.jammer,
            JammerSpec::Pulse {
                period: 8192,
                duty: 0.25
            }
        );
        assert_eq!(p.churn, 0.5);
    }

    #[test]
    fn meshjam_reports_adversary_activity() {
        let sc = ScenarioBuilder::new().mesh_nodes(300).seed(9).build();
        let res = MeshJam.run(&sc);
        let get = |k: &str| res.metrics.iter().find(|(n, _)| n == k).unwrap().1;
        assert!(get("crashes") > 0.0, "churn produced no crashes");
        assert!(get("partial_delivery_fraction") > 0.0);
        assert!(get("partial_delivery_fraction") <= 1.0);
    }
}
