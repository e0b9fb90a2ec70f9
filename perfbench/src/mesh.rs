//! The `mesh10k` and `meshjam` workloads' in-process half: the flood's
//! set-up constructor, and a traced pass that replays placement, the
//! spatial index and its candidate queries from outside before timing
//! `MeshDriver::new` and `MeshDriver::run_to_end`.
//!
//! The flood itself is one public call, so its time is not split
//! further from here: dispatch, corruption, sync, decode, delivery and
//! in-driver repair all land in `mesh.flood`.

use crate::trace::Tracer;
use crate::{Check, PassTimes};
use ppr_sim::experiments::mesh::{mesh_model, MeshDriver, MeshParams, MeshStats};
use ppr_sim::experiments::meshjam::meshjam_params;
use ppr_sim::geometry::Testbed;
use ppr_sim::network::SQUELCH_SNR;
use ppr_sim::scenario::Scenario;
use ppr_sim::spatial::SpatialIndex;
use std::time::Instant;

/// The flood parameters of the first mesh experiment in `ids`.
pub fn params(sc: &Scenario, ids: &[String]) -> MeshParams {
    if ids.iter().any(|id| id == "meshjam") {
        meshjam_params(sc)
    } else {
        MeshParams::from_scenario(sc)
    }
}

/// The set-up constructor the workload runs before its first event.
pub fn setup(p: &MeshParams, threads: Option<usize>) {
    std::hint::black_box(MeshDriver::new(p, threads));
}

/// One traced pass; the traced flood's `MeshStats` must equal the
/// untraced run's.
pub fn trace_pass(
    p: &MeshParams,
    threads: Option<usize>,
    tr: &mut Tracer,
    check: &mut Check,
) -> (PassTimes, MeshStats) {
    let t0 = Instant::now();
    let untraced = MeshDriver::new(p, threads).run_to_end();
    let untraced_s = t0.elapsed().as_secs_f64();

    let t1 = Instant::now();
    let model = mesh_model();
    let s = tr.begin("geometry.place");
    let tb = Testbed::mesh(
        p.seed,
        p.nodes,
        p.density,
        model.range_at_snr_m(SQUELCH_SNR),
    );
    tr.end(s);
    let s = tr.begin("spatial.build");
    let index = SpatialIndex::build(&tb.senders, model.interference_radius_m());
    tr.end(s);
    let s = tr.begin("spatial.query");
    let mut cands = Vec::new();
    for pt in &tb.senders {
        cands.clear();
        index.candidates_into(pt, &mut cands);
        tr.count("spatial.candidates", cands.len() as u64);
    }
    tr.end(s);
    tr.count("spatial.queries", tb.senders.len() as u64);

    let t2 = Instant::now();
    let s = tr.begin("mesh.setup");
    let driver = MeshDriver::new(p, threads);
    tr.end(s);
    let s = tr.begin("mesh.flood");
    let stats = driver.run_to_end();
    tr.end(s);
    let flood_s = t2.elapsed().as_secs_f64();

    check.expect(stats == untraced, || {
        "mesh: traced MeshStats differ from the untraced run".to_string()
    });
    let times = PassTimes {
        pass_s: t1.elapsed().as_secs_f64(),
        overhead_s: flood_s - untraced_s,
    };
    (times, stats)
}
