//! Figure 15: false-alarm rate — the complementary CDF of correct
//! codewords' Hamming distances, at the three offered loads.
//!
//! A false alarm is a *correct* codeword labeled bad (`hint > η`),
//! causing a needless retransmission of one codeword. The paper finds
//! the rate tiny (~5 × 10⁻³ at η = 6) and only weakly load-dependent —
//! which is why PPR's overhead from conservatism is negligible. The
//! histograms are Fig. 3's, from the shared hint pass
//! ([`super::hints`]).

use super::hints::{self, HintStats};
use super::traces::TraceRequest;
use super::Experiment;
use crate::results::{ExperimentResult, TableBlock};
use crate::scenario::Scenario;

/// The Fig. 15 experiment.
pub struct Fig15;

impl Experiment for Fig15 {
    fn id(&self) -> &'static str {
        "fig15"
    }

    fn title(&self) -> &'static str {
        "Figure 15: false-alarm rates"
    }

    fn paper_ref(&self) -> &'static str {
        "Figure 15"
    }

    fn description(&self) -> &'static str {
        "False-alarm rate vs threshold eta, per offered load"
    }

    fn traces(&self, scenario: &Scenario) -> Vec<TraceRequest> {
        hints::requests(scenario)
    }

    fn run(&self, scenario: &Scenario) -> ExperimentResult {
        let stats = HintStats::of(scenario);
        let data = &stats.per_load;
        let mut res = ExperimentResult::new(self.id(), self.title(), self.paper_ref(), scenario);
        res.text(
            "Figure 15: false-alarm rate (CCDF of correct codewords' Hamming\n\
             distance) vs threshold eta\n\n",
        );
        let mut headers = vec!["eta".to_string()];
        headers.extend(data.iter().map(|(load, _)| format!("{load} kbit/s")));
        let mut t = TableBlock::new(&headers.iter().map(|s| s.as_str()).collect::<Vec<_>>());
        for eta in 0..=12u8 {
            let mut row = vec![crate::results::Cell::Str(eta.to_string())];
            for (_, hist) in data {
                row.push(hist.false_alarm_rate(eta).into());
            }
            t.row(row);
        }
        res.table(t);
        res.text(
            "\nShape targets: ~5e-3 at eta = 6, weak load dependence,\n\
             monotone decreasing in eta.\n",
        );
        for (load, hist) in data {
            res.metric(
                format!("false_alarm_at_eta@{load}"),
                hist.false_alarm_rate(scenario.eta),
            );
        }
        res
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::ScenarioBuilder;

    #[test]
    fn false_alarm_rate_is_small_and_monotone() {
        // The same scenario as the Fig. 3/14 shape tests, so the three
        // share one memoised hint pass.
        let sc = ScenarioBuilder::new().duration_s(6.0).build();
        let stats = HintStats::of(&sc);
        for (load, hist) in &stats.per_load {
            assert!(hist.total_correct() > 1000, "load {load}: too few samples");
            let fa6 = hist.false_alarm_rate(6);
            assert!(fa6 < 0.05, "load {load}: false alarm at eta=6 is {fa6}");
            let mut prev = 1.1;
            for eta in 0..=12u8 {
                let fa = hist.false_alarm_rate(eta);
                assert!(fa <= prev + 1e-12, "load {load}: non-monotone at {eta}");
                prev = fa;
            }
        }
    }
}
