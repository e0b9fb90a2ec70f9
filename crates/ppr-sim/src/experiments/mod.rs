//! One module per paper table/figure, plus shared machinery.
//!
//! | Module | Paper result |
//! |---|---|
//! | [`fig03`] | Fig. 3 — Hamming-distance CDFs, correct vs incorrect |
//! | [`fdr`] | Figs. 8–10 — per-link equivalent frame delivery rate |
//! | [`throughput`] | Figs. 11–12 — end-to-end per-link throughput |
//! | [`fig13`] | Fig. 13 — collision anatomy (sample-level DSP) |
//! | [`fig14`] | Fig. 14 — CCDF of contiguous miss lengths |
//! | [`fig15`] | Fig. 15 — false-alarm rate vs threshold |
//! | [`fig16`] | Fig. 16 — PP-ARQ retransmission sizes |
//! | [`table2`] | Table 2 — fragmented-CRC chunk-size sweep |
//! | [`mrd`] | §8.4 — multi-radio diversity combining |
//! | [`relay`] | §8.4 — partial-packet mesh forwarding |
//! | [`mesh`] | §8.4 extension — 10k-node event-core flood with PP-ARQ |
//! | [`jam`] | robustness extension — PP-ARQ vs whole-frame ARQ under jamming |
//! | [`meshjam`] | robustness extension — mesh flood vs reactive jammer + churn |
//! | [`table1`] | Table 1 — findings summary, distilled from the rest |
//!
//! Every experiment implements [`Experiment`] and registers itself in
//! [`registry`], so drivers (the `ppr-cli` binary, the golden
//! regression test) enumerate them instead of hard-wiring binaries.
//! The capacity experiments (Figs. 3, 8–12, 14, 15 and Table 2) are
//! renderers: each declares the channel traces it reads
//! ([`Experiment::traces`]) and renders the per-arm folds of those
//! traces, which every experiment shares through one memo
//! ([`traces`]).

pub mod common;
pub mod fdr;
pub mod fig03;
pub mod fig13;
pub mod fig14;
pub mod fig15;
pub mod fig16;
pub mod hints;
pub mod jam;
pub mod mesh;
pub mod meshjam;
pub mod mrd;
pub mod relay;
pub mod table1;
pub mod table2;
pub mod throughput;
pub mod traces;

use crate::results::ExperimentResult;
use crate::scenario::Scenario;
use traces::TraceRequest;

/// A runnable paper experiment.
///
/// Implementations are zero-sized unit structs registered in
/// [`registry`]; all parameterization flows through the [`Scenario`].
pub trait Experiment: Sync {
    /// Stable registry id (e.g. `fig10`) — the CLI `run <id>` handle.
    fn id(&self) -> &'static str;

    /// Human banner title (what the old per-figure binaries printed).
    fn title(&self) -> &'static str;

    /// The paper artifact this reproduces (e.g. `Figure 10`).
    fn paper_ref(&self) -> &'static str;

    /// One-line description for `--list`.
    fn description(&self) -> &'static str;

    /// Runs the experiment under a scenario.
    fn run(&self, scenario: &Scenario) -> ExperimentResult;

    /// Runs with access to results already computed this invocation
    /// (in registry order). The default ignores them; derived
    /// experiments like [`table1`] override this to reuse prior
    /// results instead of re-running their dependencies.
    fn run_with(&self, scenario: &Scenario, _prior: &[ExperimentResult]) -> ExperimentResult {
        self.run(scenario)
    }

    /// Ids whose results [`Experiment::run_with`] reuses when they ran
    /// earlier under the same scenario. A driver running experiments
    /// concurrently starts this one only after those have finished.
    fn dependencies(&self) -> &'static [&'static str] {
        &[]
    }

    /// The capacity traces [`Experiment::run`] reads under `scenario`,
    /// with the receiver arms it needs of each. A driver can evaluate
    /// every trace once, with the union of the arms its experiments
    /// request ([`traces::evaluate`]), before the experiments run; a
    /// standalone run evaluates what the memo lacks on demand.
    fn traces(&self, _scenario: &Scenario) -> Vec<TraceRequest> {
        Vec::new()
    }
}

/// Every registered experiment, in the canonical `--all` run order
/// (derived experiments last, so [`Experiment::run_with`] finds their
/// dependencies already computed).
pub fn registry() -> &'static [&'static dyn Experiment] {
    static REGISTRY: [&dyn Experiment; 17] = [
        &fig03::Fig03,
        &table2::Table2,
        &fdr::FIG08,
        &fdr::FIG09,
        &fdr::FIG10,
        &throughput::Fig11,
        &throughput::Fig12,
        &fig13::Fig13,
        &fig14::Fig14,
        &fig15::Fig15,
        &fig16::Fig16,
        &jam::Jam,
        &mrd::Mrd,
        &relay::Relay,
        &mesh::Mesh10k,
        &meshjam::MeshJam,
        &table1::Table1,
    ];
    &REGISTRY
}

/// Looks up an experiment by registry id.
pub fn find(id: &str) -> Option<&'static dyn Experiment> {
    registry().iter().copied().find(|e| e.id() == id)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_ids_are_unique_and_findable() {
        let mut seen = std::collections::BTreeSet::new();
        for exp in registry() {
            assert!(seen.insert(exp.id()), "duplicate id {}", exp.id());
            assert!(find(exp.id()).is_some());
            assert!(!exp.title().is_empty());
            assert!(!exp.paper_ref().is_empty());
            assert!(!exp.description().is_empty());
        }
        assert_eq!(seen.len(), 17);
        assert!(find("nonexistent").is_none());
    }

    #[test]
    fn registry_covers_every_paper_experiment() {
        let ids: Vec<&str> = registry().iter().map(|e| e.id()).collect();
        for want in [
            "fig03", "fig08", "fig09", "fig10", "fig11", "fig12", "fig13", "fig14", "fig15",
            "fig16", "table1", "table2", "mrd", "relay", "mesh10k", "jam", "meshjam",
        ] {
            assert!(ids.contains(&want), "missing {want}");
        }
        // Derived experiments come after their dependencies.
        let pos = |id: &str| ids.iter().position(|&x| x == id).unwrap();
        assert!(pos("table1") > pos("fig10"));
        assert!(pos("table1") > pos("fig03"));
        assert!(pos("table1") > pos("fig16"));
    }
}
