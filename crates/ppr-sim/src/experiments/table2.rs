//! Table 2: fragmented-CRC aggregate throughput vs chunk count.
//!
//! The paper sweeps the number of CRC chunks per 1500 B packet over
//! {1, 10, 30, 100, 300}: tiny chunks drown in checksum overhead, huge
//! chunks lose whole fragments to every error burst. The optimum lands
//! at ~30 chunks (50 B fragments), which the capacity experiments then
//! use.

use super::traces::{self, TraceRequest};
use super::Experiment;
use crate::network::RxArm;
use crate::results::{ExperimentResult, TableBlock};
use crate::scenario::Scenario;
use ppr_mac::schemes::DeliveryScheme;

/// The paper's chunk counts.
pub const CHUNK_COUNTS: [usize; 5] = [1, 10, 30, 100, 300];

/// One sweep row.
#[derive(Debug, Clone, Copy)]
pub struct Row {
    /// Number of chunks per packet.
    pub chunks: usize,
    /// Fragment payload size, bytes.
    pub frag_bytes: usize,
    /// Aggregate delivered throughput across all links, kbit/s.
    pub aggregate_kbps: f64,
}

/// Fragment payload size for `chunks` fragments per body: they must
/// fit in the body including their 4 B CRCs.
fn frag_bytes(body_bytes: usize, chunks: usize) -> usize {
    (body_bytes / chunks).saturating_sub(4).max(1)
}

/// The trace the sweep reads: one fragmented-CRC arm per chunk count,
/// at high load (where the trade-off is sharpest).
pub fn request(scenario: &Scenario) -> TraceRequest {
    TraceRequest {
        load_kbps: 13.8,
        carrier_sense: false,
        arms: CHUNK_COUNTS
            .iter()
            .map(|&chunks| RxArm {
                scheme: DeliveryScheme::FragmentedCrc {
                    frag_payload: frag_bytes(scenario.body_bytes, chunks),
                },
                postamble: true,
                collect_symbols: false,
            })
            .collect(),
    }
}

/// Renders the sweep from its trace.
pub fn collect(scenario: &Scenario) -> Vec<Row> {
    let trace = traces::folds(scenario, &request(scenario));
    let duration_s = trace.cfg.duration_s;
    CHUNK_COUNTS
        .iter()
        .zip(&trace.folds)
        .map(|(&chunks, fold)| Row {
            chunks,
            frag_bytes: frag_bytes(trace.cfg.body_bytes, chunks),
            aggregate_kbps: fold
                .links
                .iter()
                .map(|s| s.throughput_kbps(duration_s))
                .sum(),
        })
        .collect()
}

/// The Table 2 experiment.
pub struct Table2;

impl Experiment for Table2 {
    fn id(&self) -> &'static str {
        "table2"
    }

    fn title(&self) -> &'static str {
        "Table 2: fragmented-CRC chunk-size sweep"
    }

    fn paper_ref(&self) -> &'static str {
        "Table 2"
    }

    fn description(&self) -> &'static str {
        "Fragmented-CRC aggregate throughput vs chunk count, high load"
    }

    fn traces(&self, scenario: &Scenario) -> Vec<TraceRequest> {
        vec![request(scenario)]
    }

    fn run(&self, scenario: &Scenario) -> ExperimentResult {
        let rows = collect(scenario);
        let mut res = ExperimentResult::new(self.id(), self.title(), self.paper_ref(), scenario);
        res.text(format!(
            "Table 2: fragmented-CRC aggregate throughput vs chunk count\n\
             ({} B packets, {} kbit/s/node, carrier sense {})\n\n",
            scenario.body_bytes,
            scenario.load_or(13.8),
            if scenario.carrier_sense_or(false) {
                "enabled"
            } else {
                "disabled"
            }
        ));
        let mut t = TableBlock::new(&["chunks", "frag bytes", "aggregate kbit/s"]);
        for r in &rows {
            t.row(vec![
                r.chunks.into(),
                r.frag_bytes.into(),
                r.aggregate_kbps.into(),
            ]);
            res.metric(format!("aggregate_kbps@{}", r.chunks), r.aggregate_kbps);
        }
        res.table(t);
        res.text(
            "\nShape target: unimodal in chunk count, peaking near 30 chunks\n\
             (paper: 26 / 85 / 96 / 80 / 15 kbit/s).\n",
        );
        if let Some(best) = rows.iter().max_by(|a, b| {
            a.aggregate_kbps
                .partial_cmp(&b.aggregate_kbps)
                .unwrap_or(std::cmp::Ordering::Equal)
        }) {
            res.metric("best_chunks", best.chunks as f64);
        }
        res
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::ScenarioBuilder;

    #[test]
    fn sweep_is_unimodal_with_interior_peak() {
        let sc = ScenarioBuilder::new().duration_s(5.0).build();
        let rows = collect(&sc);
        assert_eq!(rows.len(), 5);
        let best = rows
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.aggregate_kbps.partial_cmp(&b.1.aggregate_kbps).unwrap())
            .unwrap()
            .0;
        // The peak must not sit at either extreme (the paper's central
        // claim about the overhead/robustness trade-off).
        assert!(best != 0, "peak at 1 chunk: {rows:?}");
        assert!(best != rows.len() - 1, "peak at 300 chunks: {rows:?}");
        // 300 tiny chunks must pay visible overhead vs the peak.
        assert!(
            rows[4].aggregate_kbps < rows[best].aggregate_kbps,
            "no overhead penalty visible: {rows:?}"
        );
    }
}
