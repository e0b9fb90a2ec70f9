//! The SoftPHY hint statistics behind Figs. 3, 14 and 15, computed once.
//!
//! The paper draws all three figures from the same hint traces at the
//! three offered loads (§7.4). [`HintStats::compute`] evaluates each
//! load's PPR-arm capacity run once, with per-symbol traces on, and
//! folds every reception into that load's [`HintHistogram`] (Figs. 3
//! and 15). The run at the high load (`load_or(13.8)`) is folded into
//! the [`MissRunHistogram`] of Fig. 14 in the same pass. Runs are
//! evaluated one after another, so at most one run's traces are
//! resident.
//!
//! [`shared`] memoises the statistics per [`Scenario`] for the life of
//! the process: when `fig03`, `fig14` and `fig15` run in one invocation
//! — even concurrently, on `ppr-cli`'s experiment pool — the first
//! caller computes and the others wait for its result.

use super::common::CapacityRun;
use super::fig14::ETAS;
use crate::metrics::{HintHistogram, MissRunHistogram};
use crate::network::RxArm;
use crate::scenario::{Scenario, LOADS};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

/// Longest miss run Fig. 14 tracks in its own bin.
const MAX_MISS_RUN: usize = 100;

/// The hint statistics of one scenario.
#[derive(Debug, Clone)]
pub struct HintStats {
    /// One hint histogram per offered load, in sweep order.
    pub per_load: Vec<(f64, HintHistogram)>,
    /// Contiguous miss-run lengths at the high load, at each of
    /// [`ETAS`].
    pub miss_runs: MissRunHistogram,
}

impl HintStats {
    /// Evaluates the PPR arm over each load's capacity run and folds
    /// every reception's hint trace.
    pub fn compute(scenario: &Scenario) -> HintStats {
        let arm = RxArm {
            scheme: scenario.ppr_scheme(),
            postamble: true,
            collect_symbols: true,
        };
        let miss_load = scenario.load_or(13.8);
        let mut miss_runs = MissRunHistogram::new(ETAS.to_vec(), MAX_MISS_RUN);
        let per_load = scenario
            .loads(&LOADS)
            .into_iter()
            .map(|load| {
                // Carrier sense on: the CC2420 default, and the §3.2/§7.4
                // hint-statistics environment (the paper disables CS only
                // in the experiments that say so, Figs. 9-12).
                let run = CapacityRun::from_scenario(scenario, load, true);
                let mut hist = HintHistogram::new();
                for rec in run.receptions(&arm) {
                    for (&h, &c) in rec.symbol_hints.iter().zip(&rec.symbol_correct) {
                        hist.record(h, c);
                    }
                    if load == miss_load && !rec.symbol_hints.is_empty() {
                        miss_runs.record_packet(&rec.symbol_hints, &rec.symbol_correct);
                    }
                }
                (load, hist)
            })
            .collect();
        HintStats {
            per_load,
            miss_runs,
        }
    }
}

/// A handle on memoised [`HintStats`]; dereferences to them.
pub struct SharedHintStats(Arc<OnceLock<HintStats>>);

impl std::ops::Deref for SharedHintStats {
    type Target = HintStats;

    fn deref(&self) -> &HintStats {
        self.0.get().expect("shared() initialises before returning")
    }
}

/// The memo behind [`shared`]: one cell per scenario seen so far.
type Memo = Mutex<Vec<(Scenario, Arc<OnceLock<HintStats>>)>>;

/// The [`HintStats`] of `scenario`, computed by the first caller in this
/// process and shared with every later or concurrent one.
pub fn shared(scenario: &Scenario) -> SharedHintStats {
    static MEMO: Memo = Mutex::new(Vec::new());
    let cell = {
        let mut memo = MEMO.lock().unwrap_or_else(PoisonError::into_inner);
        match memo.iter().find(|(sc, _)| sc == scenario) {
            Some((_, cell)) => Arc::clone(cell),
            None => {
                let cell = Arc::new(OnceLock::new());
                memo.push((scenario.clone(), Arc::clone(&cell)));
                cell
            }
        }
    };
    // Computed outside the memo lock: other scenarios proceed while this
    // one's runs evaluate; callers for this scenario block in the cell.
    cell.get_or_init(|| HintStats::compute(scenario));
    SharedHintStats(cell)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::{fig03::Fig03, fig14::Fig14, fig15::Fig15, Experiment};
    use crate::results::fingerprint;
    use crate::scenario::ScenarioBuilder;

    #[test]
    fn fig14_and_fig15_reuse_fig03s_pass_and_match_the_golden_corpus() {
        // The golden registry scenario (tests/golden_registry.rs); the
        // pinned values are these three documents' fingerprints inside
        // its corpus.
        let sc = ScenarioBuilder::new()
            .duration_s(2.0)
            .seed(0x0050_5052)
            .threads(1)
            .arq_packets(40)
            .relay_packets(60)
            .build();
        let fig03 = Fig03.run(&sc);
        let first: *const HintStats = &*shared(&sc);

        // ppr-lint: allow(determinism) — wall-clock use is the point of
        // this test (it asserts reuse does no recomputation); the timing
        // never feeds simulation state.
        let t0 = std::time::Instant::now();
        let fig14 = Fig14.run(&sc);
        let fig15 = Fig15.run(&sc);
        let reuse_time = t0.elapsed();
        assert!(
            reuse_time.as_millis() < 100,
            "fig14 + fig15 took {reuse_time:?} — the hint pass was re-run"
        );
        assert!(
            std::ptr::eq(first, &*shared(&sc)),
            "the memo entry was replaced"
        );

        for (res, pinned) in [
            (fig03, 0x9cb4_80fa_3494_4975),
            (fig14, 0xd207_75f0_f691_f136),
            (fig15, 0xa8fb_6efa_2bdc_c35b),
        ] {
            let fp = fingerprint(res.to_json().render().as_bytes());
            assert_eq!(fp, pinned, "{} left the golden corpus: {fp:#018x}", res.id);
        }
    }

    #[test]
    fn a_pinned_load_feeds_every_figure() {
        let sc = ScenarioBuilder::new()
            .duration_s(2.0)
            .load_kbps(6.9)
            .build();
        let stats = shared(&sc);
        assert_eq!(stats.per_load.len(), 1);
        assert_eq!(stats.per_load[0].0, 6.9);
        // Fig. 14 reads the pinned load's run — the run its canonical
        // 13.8 kbit/s request resolves to under the override.
        let run = CapacityRun::from_scenario(&sc, 13.8, true);
        assert_eq!(run.cfg.load_kbps, 6.9);
        let arm = RxArm {
            scheme: sc.ppr_scheme(),
            postamble: true,
            collect_symbols: true,
        };
        let mut direct = MissRunHistogram::new(ETAS.to_vec(), MAX_MISS_RUN);
        for rec in run.receptions(&arm) {
            direct.record_packet(&rec.symbol_hints, &rec.symbol_correct);
        }
        assert_eq!(stats.miss_runs.counts, direct.counts);
    }
}
