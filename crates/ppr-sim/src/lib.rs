//! # `ppr-sim` — the 27-node testbed as a deterministic simulation
//!
//! Reproduces the paper's experimental apparatus (§6–7): the Fig. 7
//! indoor floor plan, Poisson traffic at the published offered loads,
//! carrier-sense arms, and the full receive pipeline per (transmission,
//! receiver) pair — then one experiment module per table and figure.
//!
//! Everything is seeded: the same [`network::SimConfig`] always produces
//! the same timeline, the same chip errors and the same numbers, across
//! schemes and postamble arms (the paper's trace post-processing
//! methodology).
//!
//! * [`adversary`] — deterministic jammer and fault-injection actors
//!   (pulse / random / sweeping / reactive jamming, node churn, link
//!   degradation) for the robustness experiments.
//! * [`geometry`] — the floor plan, plus grid / random-geometric / mesh
//!   layouts.
//! * [`event`] — the deterministic discrete-event core
//!   (`(time, priority, seq)`-keyed queue).
//! * [`spatial`] — uniform-grid interference sharding for mesh-scale
//!   dispatch.
//! * [`traffic`] — Poisson packet arrivals.
//! * [`network`] — timeline generation + reception processing (one
//!   timeline-walking driver, held to a sequential `&[bool]` spec).
//! * [`rxpath`] — known-offset delimiter checks + `ppr-mac` decode.
//! * [`metrics`] — CDF/CCDF and hint-statistics collectors.
//! * [`env`](mod@env) — `PPR_DURATION` / `PPR_THREADS` parsing, in one
//!   place.
//! * [`scenario`] — every experiment knob, with builder > env > default
//!   precedence.
//! * [`diff`] — the differential harness: diff the reception driver's
//!   stream against the bool spec's, both run from scratch.
//! * [`results`] — typed experiment results with text and JSON
//!   rendering.
//! * [`experiments`] — Fig. 3 through Fig. 16 and Tables 1–2, each an
//!   [`experiments::Experiment`] in the registry.
//! * [`report`] — plain-text tables/series matching the paper's plots.
//!
//! ## Running experiments
//!
//! The `ppr-cli` binary drives the registry (`ppr-cli run --all`,
//! `ppr-cli --list`). Programmatically:
//!
//! ```
//! use ppr_sim::experiments::{find, registry};
//! use ppr_sim::scenario::ScenarioBuilder;
//!
//! let scenario = ScenarioBuilder::new().duration_s(1.0).build();
//! let exp = find("fig15").expect("registered");
//! let result = exp.run(&scenario);
//! assert_eq!(result.id, "fig15");
//! assert!(!result.render_text().is_empty());
//! assert!(registry().len() >= 14);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adversary;
pub mod diff;
pub mod env;
pub mod event;
pub mod experiments;
pub mod geometry;
pub mod metrics;
pub mod network;
pub mod report;
pub mod results;
pub mod rxpath;
pub mod scenario;
pub mod spatial;
pub mod traffic;

pub use adversary::{AdversaryState, FaultPlan, JammerSpec};
pub use diff::Divergence;
pub use event::{BinaryHeapQueue, EventKey, EventQueue, SimEvent};
pub use experiments::{find, registry, Experiment};
pub use geometry::{Point, Testbed};
pub use metrics::{Cdf, HintHistogram, MissRunHistogram};
pub use network::{
    generate_timeline, process_receptions, RadioEnv, Reception, RxArm, SimConfig, Transmission,
};
pub use results::{Block, Cell, ExperimentResult, Json, TableBlock};
pub use rxpath::{Acquisition, FastRx};
pub use scenario::{Scenario, ScenarioBuilder};
pub use spatial::SpatialIndex;
