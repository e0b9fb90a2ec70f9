//! Figure 3: CDF of Hamming distance for correct vs incorrect codewords,
//! at the three offered loads.
//!
//! The paper's headline SoftPHY statistic: conditioned on a correct
//! decode, 96 % of codewords sit at distance ≤ 1; barely 10 % of
//! incorrect codewords sit at distance ≤ 6. This experiment renders the
//! per-codeword (hint, correctness) histograms of every acquired packet
//! in the standard capacity runs ([`super::hints`]) as the six CDF
//! curves.

use super::hints::{self, HintStats};
use super::traces::TraceRequest;
use super::Experiment;
use crate::results::{ExperimentResult, TableBlock};
use crate::scenario::Scenario;

/// The Fig. 3 experiment.
pub struct Fig03;

impl Experiment for Fig03 {
    fn id(&self) -> &'static str {
        "fig03"
    }

    fn title(&self) -> &'static str {
        "Figure 3: SoftPHY hint distributions"
    }

    fn paper_ref(&self) -> &'static str {
        "Figure 3"
    }

    fn description(&self) -> &'static str {
        "Hamming-distance CDFs for correct vs incorrect codewords, per load"
    }

    fn traces(&self, scenario: &Scenario) -> Vec<TraceRequest> {
        hints::requests(scenario)
    }

    fn run(&self, scenario: &Scenario) -> ExperimentResult {
        let stats = HintStats::of(scenario);
        let data = &stats.per_load;
        let mut res = ExperimentResult::new(self.id(), self.title(), self.paper_ref(), scenario);
        res.text(
            "Figure 3: CDF of Hamming distance per received codeword,\n\
             split by decode correctness (cf. paper Fig. 3)\n\n",
        );
        let mut t = TableBlock::new(&[
            "load (kbit/s)",
            "codewords",
            "d<=0",
            "d<=1",
            "d<=3",
            "d<=6",
            "d<=9",
            "d<=12",
        ]);
        for (load, hist) in data {
            for correct in [true, false] {
                let cdf = hist.cdf(correct);
                let n = if correct {
                    hist.total_correct()
                } else {
                    hist.total_incorrect()
                };
                t.row(vec![
                    format!("{} {}", load, if correct { "correct" } else { "incorrect" }).into(),
                    n.into(),
                    cdf[0].into(),
                    cdf[1].into(),
                    cdf[3].into(),
                    cdf[6].into(),
                    cdf[9].into(),
                    cdf[12].into(),
                ]);
            }
        }
        res.table(t);
        res.text(
            "\nShape targets: correct codewords concentrate at d<=1 (~0.96 in\n\
             the paper); incorrect codewords mostly d>6 (<=0.10 below).\n",
        );
        let eta = scenario.eta;
        for (load, hist) in data {
            res.metric(format!("p_d_le1_correct@{load}"), hist.cdf(true)[1]);
            res.metric(format!("miss_rate_at_eta@{load}"), hist.miss_rate(eta));
            res.metric(
                format!("false_alarm_rate_at_eta@{load}"),
                hist.false_alarm_rate(eta),
            );
        }
        // Headline values at the highest load (Table 1's inputs).
        if let Some((_, hi)) = data.last() {
            res.metric("p_d_le1_correct", hi.cdf(true)[1]);
            res.metric("miss_rate_at_eta", hi.miss_rate(eta));
            res.metric("false_alarm_rate_at_eta", hi.false_alarm_rate(eta));
        }
        res
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::ScenarioBuilder;

    #[test]
    fn correct_and_incorrect_distributions_separate() {
        // The same scenario as the Fig. 14/15 shape tests, so the three
        // share one memoised hint pass.
        let sc = ScenarioBuilder::new().duration_s(6.0).build();
        let stats = HintStats::of(&sc);
        let data = &stats.per_load;
        assert_eq!(data.len(), 3);
        // Use the highest load (most collisions → most incorrect
        // codewords) for the shape assertions.
        let hi = &data[2].1;
        assert!(hi.total_correct() > 1000, "too few correct samples");
        assert!(hi.total_incorrect() > 100, "too few incorrect samples");
        let c = hi.cdf(true);
        let i = hi.cdf(false);
        // Correct codewords concentrate at tiny distances.
        assert!(c[1] > 0.9, "P(d<=1 | correct) = {}", c[1]);
        // Incorrect codewords rarely look good.
        assert!(i[6] < 0.3, "P(d<=6 | incorrect) = {}", i[6]);
        // And the two curves are far apart at the threshold.
        assert!(c[6] - i[6] > 0.5);
    }

    #[test]
    fn result_metrics_expose_table1_inputs() {
        let sc = ScenarioBuilder::new().duration_s(3.0).build();
        let res = Fig03.run(&sc);
        for key in [
            "p_d_le1_correct",
            "miss_rate_at_eta",
            "false_alarm_rate_at_eta",
        ] {
            let v = res
                .get_metric(key)
                .unwrap_or_else(|| panic!("missing {key}"));
            assert!((0.0..=1.0).contains(&v), "{key} = {v}");
        }
        assert!(res.render_text().contains("load (kbit/s)"));
    }
}
