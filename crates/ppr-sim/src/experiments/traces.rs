//! Capacity traces, evaluated once per process and rendered by every
//! figure that reads them.
//!
//! The paper scores every delivery scheme on the same trace and
//! post-processes it (§7.2). A *trace* is one capacity run — radio
//! environment plus transmission timeline — at a resolved (load,
//! carrier sense) point of a scenario ([`TraceKey`]). Each capacity
//! experiment declares the traces it reads and the receiver arms it
//! needs of each ([`super::Experiment::traces`], [`TraceRequest`]);
//! [`folds`] hands it the [`ArmFold`] of every requested arm.
//!
//! The folds live in a process-wide memo. An arm the memo lacks is
//! evaluated on demand, together with the other missing arms of the same
//! trace, in one multi-arm pass of the reception driver
//! ([`crate::network::fold_receptions`]). `ppr-cli` goes one step
//! further: it takes the union of the arms every selected experiment
//! requests of each trace and runs one pool job per trace
//! ([`evaluate`]) before the experiments that read it, so a trace is
//! evaluated exactly once, with all its arms, and the experiments only
//! render.

use super::common::CapacityRun;
use crate::network::{fold_receptions, ArmFold, RxArm, SimConfig};
use crate::scenario::{Scenario, Topology};
use std::sync::{Arc, Mutex, PoisonError};

/// A trace an experiment reads, at its canonical (load, carrier sense)
/// point — the scenario's overrides apply when it is resolved — with
/// the arms it needs of it.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceRequest {
    /// Canonical offered load, kbit/s/node.
    pub load_kbps: f64,
    /// Canonical carrier-sense arm of the timeline.
    pub carrier_sense: bool,
    /// Receiver arms to evaluate over the trace.
    pub arms: Vec<RxArm>,
}

impl TraceRequest {
    /// The resolved identity of the requested trace under `scenario`.
    pub fn key(&self, scenario: &Scenario) -> TraceKey {
        TraceKey::new(scenario, self.load_kbps, self.carrier_sense)
    }
}

/// Everything a capacity run depends on: two requests with equal keys
/// read the same trace.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceKey {
    /// The resolved run configuration.
    pub cfg: SimConfig,
    /// The sender layout.
    pub topology: Topology,
    /// Snapshot/restore exercise point of the reception pass.
    pub checkpoint: Option<u64>,
}

impl TraceKey {
    /// The trace at canonical (load, carrier sense) under `scenario`,
    /// its overrides applied.
    pub fn new(scenario: &Scenario, load_kbps: f64, carrier_sense: bool) -> Self {
        TraceKey {
            cfg: scenario.sim_config(load_kbps, carrier_sense),
            topology: scenario.topology,
            checkpoint: scenario.checkpoint,
        }
    }
}

/// The requested arms of one trace, as evaluated.
#[derive(Debug, Clone)]
pub struct TraceFolds {
    /// The run configuration.
    pub cfg: SimConfig,
    /// The environment's usable links ([`crate::network::RadioEnv::links`]),
    /// the order of every fold's per-link counters.
    pub links: Arc<Vec<(usize, usize)>>,
    /// One fold per requested arm, in request order.
    pub folds: Vec<Arc<ArmFold>>,
}

/// One memoised trace: its links and every arm evaluated so far.
struct Entry {
    key: TraceKey,
    links: Arc<Vec<(usize, usize)>>,
    arms: Vec<(RxArm, Arc<ArmFold>)>,
}

/// The memo behind [`folds`] and [`evaluate`].
static MEMO: Mutex<Vec<Entry>> = Mutex::new(Vec::new());

fn memo() -> std::sync::MutexGuard<'static, Vec<Entry>> {
    MEMO.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The folds of `request`'s arms over its trace under `scenario`,
/// evaluating whichever the memo lacks.
pub fn folds(scenario: &Scenario, request: &TraceRequest) -> TraceFolds {
    let key = request.key(scenario);
    evaluate(&key, &request.arms);
    let memo = memo();
    let entry = memo
        .iter()
        .find(|e| e.key == key)
        .expect("evaluate leaves the trace in the memo");
    let fold_of = |arm: &RxArm| {
        let (_, fold) = entry
            .arms
            .iter()
            .find(|(a, _)| a == arm)
            .expect("evaluate leaves every requested arm in the memo");
        Arc::clone(fold)
    };
    TraceFolds {
        cfg: key.cfg,
        links: Arc::clone(&entry.links),
        folds: request.arms.iter().map(fold_of).collect(),
    }
}

/// Makes sure the memo holds every arm of `arms` over the trace `key`:
/// the missing ones are evaluated together, in one pass. The pass runs
/// outside the memo's lock, so other traces proceed meanwhile.
pub fn evaluate(key: &TraceKey, arms: &[RxArm]) {
    let mut missing: Vec<RxArm> = Vec::new();
    {
        let memo = memo();
        let known = memo.iter().find(|e| e.key == *key);
        for arm in arms {
            let have = known.is_some_and(|e| e.arms.iter().any(|(a, _)| a == arm));
            if !have && !missing.contains(arm) {
                missing.push(*arm);
            }
        }
    }
    if missing.is_empty() {
        return;
    }
    let run = CapacityRun::from_key(key);
    let folds = fold_receptions(&run.env, &run.cfg, &run.timeline, &missing, key.checkpoint);
    let links = Arc::new(run.env.links());

    let mut memo = memo();
    let at = match memo.iter().position(|e| e.key == *key) {
        Some(at) => at,
        None => {
            memo.push(Entry {
                key: key.clone(),
                links,
                arms: Vec::new(),
            });
            memo.len() - 1
        }
    };
    let entry = &mut memo[at];
    for (arm, fold) in missing.into_iter().zip(folds) {
        // Another thread may have evaluated the same arm meanwhile; the
        // fold is a pure function of the key and the arm, so either
        // copy will do.
        if !entry.arms.iter().any(|(a, _)| *a == arm) {
            entry.arms.push((arm, Arc::new(fold)));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::{ArmFold, RxArm};
    use crate::scenario::ScenarioBuilder;
    use ppr_mac::schemes::DeliveryScheme;

    fn arm(scheme: DeliveryScheme, collect_symbols: bool) -> RxArm {
        RxArm {
            scheme,
            postamble: true,
            collect_symbols,
        }
    }

    #[test]
    fn a_trace_is_evaluated_once_and_each_arm_matches_its_solo_pass() {
        let sc = ScenarioBuilder::new().duration_s(1.5).seed(0x7ACE).build();
        let first = TraceRequest {
            load_kbps: 13.8,
            carrier_sense: false,
            arms: vec![arm(DeliveryScheme::PacketCrc, false)],
        };
        let both = TraceRequest {
            arms: vec![
                arm(DeliveryScheme::Ppr { eta: 6 }, true),
                arm(DeliveryScheme::PacketCrc, false),
            ],
            ..first.clone()
        };
        let a = folds(&sc, &first);
        let b = folds(&sc, &both);
        // The arm evaluated first is shared, not re-evaluated.
        assert!(Arc::ptr_eq(&a.folds[0], &b.folds[1]));
        assert!(Arc::ptr_eq(&a.links, &b.links));

        let run = CapacityRun::from_scenario(&sc, 13.8, false);
        for (arm, fold) in both.arms.iter().zip(&b.folds) {
            let solo = ArmFold::of_stream(&run.env, &run.receptions(arm), arm.collect_symbols);
            assert_eq!(**fold, solo, "{arm:?}");
        }
    }

    #[test]
    fn keys_resolve_the_scenario_overrides() {
        let sc = ScenarioBuilder::new()
            .duration_s(2.0)
            .load_kbps(6.9)
            .carrier_sense(true)
            .build();
        let request = TraceRequest {
            load_kbps: 13.8,
            carrier_sense: false,
            arms: Vec::new(),
        };
        let key = request.key(&sc);
        assert_eq!(key.cfg.load_kbps, 6.9);
        assert!(key.cfg.carrier_sense);
        let other = TraceRequest {
            load_kbps: 3.5,
            ..request.clone()
        };
        assert_eq!(other.key(&sc), key, "both resolve to the pinned point");
        let checked = ScenarioBuilder::new()
            .duration_s(2.0)
            .load_kbps(6.9)
            .carrier_sense(true)
            .checkpoint(50)
            .build();
        assert_ne!(request.key(&checked), key);
    }
}
