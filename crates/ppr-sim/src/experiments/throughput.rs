//! Figures 11–12: end-to-end per-link throughput.
//!
//! * Fig. 11 — per-link throughput CDF at 6.9 kbit/s/node (near channel
//!   saturation), carrier sense disabled, six scheme/postamble arms.
//! * Fig. 12 — scatter of PPR and packet-CRC per-link throughput against
//!   fragmented CRC (the x-axis baseline), at all three loads.
//!
//! Expected shape: PPR sits a roughly constant factor above fragmented
//! CRC; fragmented CRC far outperforms packet CRC; the spread of link
//! quality narrows for the finer-granularity schemes.

use super::common::{link_cdf, six_arms};
use super::fdr;
use super::traces::{self, TraceRequest};
use super::Experiment;
use crate::metrics::Cdf;
use crate::network::RxArm;
use crate::results::{ExperimentResult, TableBlock};
use crate::scenario::{Scenario, LOADS};

/// One Fig. 11 curve.
#[derive(Debug, Clone)]
pub struct Curve {
    /// Legend label.
    pub label: String,
    /// Per-link throughput distribution, kbit/s.
    pub cdf: Cdf,
}

/// Fig. 11: throughput CDFs for the six arms at one load, carrier
/// sense off.
pub fn collect_fig11(scenario: &Scenario, load_kbps: f64) -> Vec<Curve> {
    let trace = traces::folds(scenario, &fdr::request(scenario, load_kbps, false));
    let duration_s = trace.cfg.duration_s;
    six_arms(scenario.schemes())
        .into_iter()
        .zip(&trace.folds)
        .map(|((label, _), fold)| Curve {
            label,
            cdf: link_cdf(&fold.links, |s| s.throughput_kbps(duration_s)),
        })
        .collect()
}

/// One Fig. 12 scatter point: per-link throughputs under the three
/// schemes at one load.
#[derive(Debug, Clone, Copy)]
pub struct ScatterPoint {
    /// Offered load, kbit/s/node.
    pub load_kbps: f64,
    /// Link identity.
    pub link: (usize, usize),
    /// Fragmented CRC throughput (x-axis), kbit/s.
    pub frag: f64,
    /// Packet CRC throughput, kbit/s.
    pub packet: f64,
    /// PPR throughput, kbit/s.
    pub ppr: f64,
}

/// The traces Fig. 12 reads: the three schemes with postamble decoding
/// (the paper's default receiver) at every load, carrier sense off —
/// arms that Figs. 9–11 evaluate over the same traces.
pub fn fig12_requests(scenario: &Scenario) -> Vec<TraceRequest> {
    scenario
        .loads(&LOADS)
        .into_iter()
        .map(|load_kbps| TraceRequest {
            load_kbps,
            carrier_sense: false,
            arms: scenario
                .schemes()
                .map(|scheme| RxArm {
                    scheme,
                    postamble: true,
                    collect_symbols: false,
                })
                .to_vec(),
        })
        .collect()
}

/// Fig. 12: per-link (fragmented CRC, packet CRC, PPR) throughput
/// triples at every load.
pub fn collect_fig12(scenario: &Scenario) -> Vec<ScatterPoint> {
    let mut out = Vec::new();
    for request in fig12_requests(scenario) {
        let trace = traces::folds(scenario, &request);
        let duration_s = trace.cfg.duration_s;
        let [packet, frag, ppr] = [0, 1, 2].map(|a| &trace.folds[a].links);
        for (i, &link) in trace.links.iter().enumerate() {
            if packet[i].frames == 0 {
                continue;
            }
            out.push(ScatterPoint {
                load_kbps: request.load_kbps,
                link,
                packet: packet[i].throughput_kbps(duration_s),
                frag: frag[i].throughput_kbps(duration_s),
                ppr: ppr[i].throughput_kbps(duration_s),
            });
        }
    }
    out
}

/// The Fig. 11 experiment.
pub struct Fig11;

impl Experiment for Fig11 {
    fn id(&self) -> &'static str {
        "fig11"
    }

    fn title(&self) -> &'static str {
        "Figure 11: per-link throughput, near saturation"
    }

    fn paper_ref(&self) -> &'static str {
        "Figure 11"
    }

    fn description(&self) -> &'static str {
        "Per-link throughput CDFs at 6.9 kbit/s/node, carrier sense off"
    }

    fn traces(&self, scenario: &Scenario) -> Vec<TraceRequest> {
        vec![fdr::request(scenario, 6.9, false)]
    }

    fn run(&self, scenario: &Scenario) -> ExperimentResult {
        let load_kbps = scenario.load_or(6.9);
        let curves = collect_fig11(scenario, load_kbps);
        let mut res = ExperimentResult::new(self.id(), self.title(), self.paper_ref(), scenario);
        res.text(format!(
            "Figure 11: end-to-end per-link throughput CDF\n\
             (offered load {load_kbps} kbit/s/node, carrier sense disabled)\n\n"
        ));
        let mut t = TableBlock::new(&["scheme / arm", "links", "median kbit/s", "p90 kbit/s"]);
        for c in &curves {
            t.row(vec![
                c.label.clone().into(),
                c.cdf.len().into(),
                c.cdf.median().into(),
                c.cdf.quantile(0.9).into(),
            ]);
            res.metric(format!("median_kbps/{}", c.label), c.cdf.median());
        }
        res.table(t);
        res.text("\n");
        let hi = curves
            .iter()
            .map(|c| c.cdf.quantile(1.0))
            .fold(1.0f64, f64::max);
        for c in &curves {
            res.series(&c.label, c.cdf.series(0.0, hi, 17));
            res.text("\n");
        }
        res
    }
}

/// The Fig. 12 experiment.
pub struct Fig12;

impl Experiment for Fig12 {
    fn id(&self) -> &'static str {
        "fig12"
    }

    fn title(&self) -> &'static str {
        "Figure 12: throughput scatter vs fragmented CRC"
    }

    fn paper_ref(&self) -> &'static str {
        "Figure 12"
    }

    fn description(&self) -> &'static str {
        "Per-link throughput triples (packet CRC, PPR vs fragmented CRC), all loads"
    }

    fn traces(&self, scenario: &Scenario) -> Vec<TraceRequest> {
        fig12_requests(scenario)
    }

    fn run(&self, scenario: &Scenario) -> ExperimentResult {
        let points = collect_fig12(scenario);
        let mut res = ExperimentResult::new(self.id(), self.title(), self.paper_ref(), scenario);
        res.text(
            "Figure 12: per-link throughput, fragmented CRC (x) vs packet CRC\n\
             and PPR (y), all loads, carrier sense disabled\n\n",
        );
        let mut t = TableBlock::new(&[
            "load",
            "link s->r",
            "fragCRC kbit/s",
            "packetCRC kbit/s",
            "PPR kbit/s",
        ]);
        for p in &points {
            t.row(vec![
                format!("{}", p.load_kbps).into(),
                format!("{}->{}", p.link.0, p.link.1).into(),
                p.frag.into(),
                p.packet.into(),
                p.ppr.into(),
            ]);
        }
        res.table(t);
        // Summary ratios (geometric mean over links with nonzero frag).
        let mut ppr_ratios = Vec::new();
        let mut pkt_ratios = Vec::new();
        for p in &points {
            if p.frag > 0.01 {
                ppr_ratios.push(p.ppr / p.frag);
                if p.packet > 0.0 {
                    pkt_ratios.push(p.packet / p.frag);
                }
            }
        }
        let gm = |v: &[f64]| -> f64 {
            if v.is_empty() {
                return f64::NAN;
            }
            (v.iter().map(|x| x.ln()).sum::<f64>() / v.len() as f64).exp()
        };
        let (gm_ppr, gm_pkt) = (gm(&ppr_ratios), gm(&pkt_ratios));
        res.metric("gm_ppr_over_frag", gm_ppr);
        res.metric("gm_packet_over_frag", gm_pkt);
        res.text(format!(
            "\nGeometric-mean ratio PPR/fragCRC: {}   packetCRC/fragCRC: {}\n\
             (paper: PPR a roughly constant factor above fragmented CRC;\n\
              packet CRC far below it)\n",
            crate::report::fmt(gm_ppr),
            crate::report::fmt(gm_pkt),
        ));
        res
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::ScenarioBuilder;

    fn quick(duration_s: f64) -> Scenario {
        ScenarioBuilder::new().duration_s(duration_s).build()
    }

    #[test]
    fn fig12_ordering_ppr_over_frag_over_packet() {
        let points = collect_fig12(&quick(4.0));
        assert!(!points.is_empty());
        let tot = |f: fn(&ScatterPoint) -> f64| points.iter().map(f).sum::<f64>();
        let (pkt, frag, ppr) = (tot(|p| p.packet), tot(|p| p.frag), tot(|p| p.ppr));
        assert!(ppr >= frag, "ppr {ppr} < frag {frag}");
        assert!(frag > pkt, "frag {frag} <= pkt {pkt}");
    }

    #[test]
    fn fig11_throughput_bounded_by_offered_load() {
        let curves = collect_fig11(&quick(4.0), 6.9);
        for c in &curves {
            // No link can deliver much more than the offered load;
            // allow generous slack for Poisson burstiness on a short
            // test run (the window holds only a handful of packets).
            assert!(
                c.cdf.quantile(1.0) <= 6.9 * 3.5,
                "{}: max {}",
                c.label,
                c.cdf.quantile(1.0)
            );
        }
    }

    #[test]
    fn fig12_result_records_ratio_metrics() {
        let res = Fig12.run(&quick(3.0));
        let gm = res.get_metric("gm_ppr_over_frag").unwrap();
        assert!(gm >= 1.0, "PPR/frag geometric mean {gm}");
        assert!(res.render_text().contains("Geometric-mean ratio"));
    }
}
