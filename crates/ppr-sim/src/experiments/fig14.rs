//! Figure 14: CCDF of contiguous SoftPHY *miss* lengths at thresholds
//! η ∈ {1, 2, 3, 4}.
//!
//! A miss is an incorrect codeword labeled good (`hint ≤ η`). The
//! paper's saving grace for PP-ARQ: misses are short — ~30 % have length
//! 1 and the length distribution falls faster than exponential — so a
//! missed codeword is almost always adjacent to correctly-labeled bad
//! codewords that PP-ARQ retransmits anyway (and the run-checksum pass
//! catches the rest).
//!
//! The histogram comes from the high-load run of the shared hint pass
//! ([`super::hints`]): high load maximizes the collision (and therefore
//! miss) count.

use super::hints::{self, HintStats};
use super::traces::TraceRequest;
use super::Experiment;
use crate::results::ExperimentResult;
use crate::scenario::Scenario;

/// The Fig. 14 experiment.
pub struct Fig14;

impl Experiment for Fig14 {
    fn id(&self) -> &'static str {
        "fig14"
    }

    fn title(&self) -> &'static str {
        "Figure 14: contiguous miss lengths"
    }

    fn paper_ref(&self) -> &'static str {
        "Figure 14"
    }

    fn description(&self) -> &'static str {
        "CCDF of contiguous miss-run lengths at eta in {1,2,3,4}, high load"
    }

    fn traces(&self, scenario: &Scenario) -> Vec<TraceRequest> {
        hints::requests(scenario)
    }

    fn run(&self, scenario: &Scenario) -> ExperimentResult {
        let stats = HintStats::of(scenario);
        let hist = &stats.miss_runs;
        let mut res = ExperimentResult::new(self.id(), self.title(), self.paper_ref(), scenario);
        res.text(format!(
            "Figure 14: CCDF of contiguous miss lengths at thresholds eta\n\
             (high load, {} kbit/s/node)\n\n",
            scenario.load_or(13.8)
        ));
        for (e, &eta) in hist.etas.iter().enumerate() {
            let ccdf = hist.ccdf(e);
            let pts: Vec<(f64, f64)> = ccdf
                .iter()
                .take(30)
                .map(|&(len, p)| (len as f64, p))
                .collect();
            let total_runs: u64 = hist.counts[e].iter().sum();
            res.metric(format!("miss_runs_eta{eta}"), total_runs as f64);
            if let Some(&(_, p2)) = ccdf.get(1) {
                res.metric(format!("p_len_ge2_eta{eta}"), p2);
            }
            res.series(format!("eta = {eta}"), pts);
            res.text("\n");
        }
        res.text(
            "Shape targets: mass concentrated at length 1 (~30 % in the\n\
             paper); CCDF decays at least as fast as an exponential.\n",
        );
        res
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::ScenarioBuilder;

    #[test]
    fn miss_lengths_are_short_and_decaying() {
        let sc = ScenarioBuilder::new().duration_s(6.0).build();
        let stats = HintStats::of(&sc);
        let hist = &stats.miss_runs;
        // Use eta = 4 (most permissive -> most misses).
        let e = 3;
        let ccdf = hist.ccdf(e);
        if ccdf.len() < 3 {
            // Too few misses to assert a distribution — the miss rate
            // itself being tiny is consistent with the paper.
            return;
        }
        // P(len >= 1) = 1; mass at short lengths dominates.
        assert!((ccdf[0].1 - 1.0).abs() < 1e-9);
        let p2 = ccdf[1].1; // P(len >= 2)
        assert!(p2 < 0.8, "misses are too long: P(len>=2) = {p2}");
        // Monotone decreasing tail.
        for w in ccdf.windows(2) {
            assert!(w[1].1 <= w[0].1 + 1e-12);
        }
    }
}
