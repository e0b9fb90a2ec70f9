//! `ppr-cli` — the single driver for every paper experiment.
//!
//! ```text
//! ppr-cli --list                          # what can run
//! ppr-cli run fig10                       # one experiment, text report
//! ppr-cli run --all                       # everything, registry order
//! ppr-cli run fig10 --set duration=20     # scenario overrides
//! ppr-cli run fig10 --set load=3.5,6.9,13.8 --json out/
//!                                         # sweep: one run + one JSON
//!                                         # file per parameter point
//! ```
//!
//! Comma-separated `--set` values sweep the cartesian product of all
//! swept keys; every point runs the selected experiments under its own
//! [`Scenario`]. `--json DIR` writes one self-describing JSON document
//! per (experiment, point) next to the text output.
//!
//! `run` executes the (point × experiment) jobs concurrently on a pool
//! of `threads` threads (`--set threads=N`, else `PPR_THREADS`, else the
//! machine's available parallelism) and prints results in sweep and
//! registry order, so the output does not depend on the pool size.
//!
//! `ppr-cli diff` is the differential harness: each selected experiment
//! runs with and without a checkpoint and the rendered reports are
//! compared byte for byte; one reception checkpoint is then resumed
//! under the reception driver and its stream diffed reception by
//! reception against
//! the bool spec run from scratch (`ppr_sim::diff`). Any disagreement
//! exits 1 and — with `--json DIR` — writes a first-divergence report.
//!
//! Exit status: 0 on success, 1 on divergence, 2 on usage errors
//! (unknown id, malformed `--set`, unknown flag).

mod pool;

use ppr_sim::adversary::JammerSpec;
use ppr_sim::diff::{active_kernel_signature, cross_validate, EVENT_LABEL, REFERENCE_LABEL};
use ppr_sim::env::threads_from_env;
use ppr_sim::experiments::common::CapacityRun;
use ppr_sim::experiments::mesh::{run_mesh, MeshDriver, MeshParams};
use ppr_sim::experiments::traces::{self, TraceKey};
use ppr_sim::experiments::{find, registry, Experiment};
use ppr_sim::network::{snapshot_after_events, RxArm};
use ppr_sim::results::{fingerprint, ExperimentResult, Json};
use ppr_sim::scenario::{Scenario, ScenarioBuilder, SCENARIO_KEYS};
use ppr_sim::snapshot::{MeshSnapshot, RxSnapshot};
use std::io::Write;
use std::sync::Arc;

/// Usage text printed by `--help` and on argument errors.
const USAGE: &str = "\
usage:
  ppr-cli --list                     list registered experiments
  ppr-cli run <id>... [options]      run experiments by id
  ppr-cli run --all [options]        run the full registry
  ppr-cli diff <id>... [options]     check experiments across checkpoints
  ppr-cli diff --all [options]       and resumes against the bool spec

options:
  --set key=value[,value...]         scenario override; comma-separated
                                     values sweep the cartesian product
  --json DIR                         write one JSON result per
                                     (experiment, sweep point) into DIR
                                     (for diff: the divergence report)
  --help                             this text

scenario keys (builder > env > default):";

fn print_usage(mut to: impl std::io::Write) {
    let _ = writeln!(to, "{USAGE}");
    for (key, help) in SCENARIO_KEYS {
        let _ = writeln!(to, "  {key:<14} {help}");
    }
}

/// The standard experiment banner (the format the historical
/// per-figure binaries used).
fn banner(title: &str) -> String {
    let rule = "=".repeat(72);
    format!("{rule}\nPPR reproduction — {title}\n{rule}\n")
}

struct RunArgs {
    ids: Vec<String>,
    all: bool,
    sets: Vec<(String, Vec<String>)>,
    json_dir: Option<String>,
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    std::process::exit(real_main(&args));
}

fn real_main(args: &[String]) -> i32 {
    match args.first().map(String::as_str) {
        None => {
            print_usage(std::io::stderr());
            2
        }
        Some("--help") | Some("-h") => {
            print_usage(std::io::stdout());
            0
        }
        Some("--list") | Some("list") => {
            list();
            0
        }
        Some("run") => match parse_run_args(&args[1..]) {
            Ok(run_args) => run(&run_args),
            Err(e) => {
                eprintln!("error: {e}\n");
                print_usage(std::io::stderr());
                2
            }
        },
        Some("diff") => match parse_run_args(&args[1..]) {
            Ok(run_args) => diff(&run_args),
            Err(e) => {
                eprintln!("error: {e}\n");
                print_usage(std::io::stderr());
                2
            }
        },
        Some(other) => {
            eprintln!("error: unknown command {other:?}\n");
            print_usage(std::io::stderr());
            2
        }
    }
}

fn list() {
    let mut t = ppr_sim::report::Table::new(&["id", "paper ref", "description"]);
    for exp in registry() {
        t.row(&[
            exp.id().to_string(),
            exp.paper_ref().to_string(),
            exp.description().to_string(),
        ]);
    }
    print!("{}", t.render());
}

fn parse_run_args(args: &[String]) -> Result<RunArgs, String> {
    let mut out = RunArgs {
        ids: Vec::new(),
        all: false,
        sets: Vec::new(),
        json_dir: None,
    };
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--all" => out.all = true,
            "--set" => {
                let kv = args
                    .get(i + 1)
                    .ok_or_else(|| "--set needs a key=value argument".to_string())?;
                let (key, values) = kv
                    .split_once('=')
                    .ok_or_else(|| format!("malformed --set {kv:?} (want key=value)"))?;
                if key.trim().is_empty() || values.trim().is_empty() {
                    return Err(format!("malformed --set {kv:?} (want key=value)"));
                }
                let values: Vec<String> = values.split(',').map(|v| v.to_string()).collect();
                // Validate every value now so a sweep fails before any
                // simulation time is spent.
                let mut probe = ScenarioBuilder::new();
                for v in &values {
                    probe.set(key, v)?;
                }
                out.sets.push((key.to_string(), values));
            }
            "--json" => {
                let dir = args
                    .get(i + 1)
                    .ok_or_else(|| "--json needs a directory argument".to_string())?;
                out.json_dir = Some(dir.clone());
            }
            flag if flag.starts_with('-') => return Err(format!("unknown flag {flag:?}")),
            id => {
                find(id).ok_or_else(|| {
                    let ids: Vec<&str> = registry().iter().map(|e| e.id()).collect();
                    format!(
                        "unknown experiment {id:?}; registered ids: {}",
                        ids.join(", ")
                    )
                })?;
                out.ids.push(id.to_string());
            }
        }
        i += match args[i].as_str() {
            "--set" | "--json" => 2,
            _ => 1,
        };
    }
    if !out.all && out.ids.is_empty() {
        return Err("nothing to run: give experiment ids or --all".to_string());
    }
    if out.all && !out.ids.is_empty() {
        return Err("--all and explicit ids are mutually exclusive".to_string());
    }
    Ok(out)
}

/// The cartesian product of all swept keys, as per-point key=value
/// assignments (a single point with no assignments when nothing is
/// swept).
fn sweep_points(sets: &[(String, Vec<String>)]) -> Vec<Vec<(String, String)>> {
    let mut points: Vec<Vec<(String, String)>> = vec![Vec::new()];
    for (key, values) in sets {
        let mut next = Vec::with_capacity(points.len() * values.len());
        for point in &points {
            for v in values {
                let mut p = point.clone();
                p.push((key.clone(), v.clone()));
                next.push(p);
            }
        }
        points = next;
    }
    points
}

fn scenario_for(point: &[(String, String)]) -> Result<Scenario, String> {
    let mut b = ScenarioBuilder::new();
    for (k, v) in point {
        b.set(k, v)?;
    }
    Ok(b.build())
}

/// The swept keys' assignments for one point — the sweep-point label
/// and JSON filename suffix.
fn point_label(point: &[(String, String)], sets: &[(String, Vec<String>)]) -> String {
    point
        .iter()
        .filter(|(k, _)| {
            sets.iter()
                .any(|(key, values)| key == k && values.len() > 1)
        })
        .map(|(k, v)| format!("{k}={v}"))
        .collect::<Vec<_>>()
        .join("__")
}

/// Why a `run` stopped early.
enum Stop {
    /// Standard output was closed (`ppr-cli run ... | head`): a clean
    /// stop, not an error.
    BrokenPipe,
    /// Anything else, with its message.
    Failed(String),
}

impl From<std::io::Error> for Stop {
    fn from(e: std::io::Error) -> Self {
        match e.kind() {
            std::io::ErrorKind::BrokenPipe => Stop::BrokenPipe,
            _ => Stop::Failed(format!("cannot write to standard output: {e}")),
        }
    }
}

/// Rough run time of each experiment in milliseconds, measured one at a
/// time at the default scenario on a 2-vCPU Xeon, with the traces it
/// reads already evaluated. The pool only uses these to start long jobs
/// first; they never change a result. The capacity experiments (Figs. 3,
/// 8–12, 14, 15 and Table 2) only render their traces' folds, and
/// Table 1 reuses its dependencies' results, so they cost next to
/// nothing here; their work is in the trace jobs ([`trace_cost_ms`]).
///
/// To re-measure one entry, take the median wall time of a few solo
/// release runs (the table holds medians of five), minus the time of
/// its traces alone for a capacity experiment. An experiment with
/// parts (`jam`) only renders them here; their work is in the part jobs
/// ([`PART_COST_MS`]).
///
/// ```sh
/// time target/release/ppr-cli run mrd --set threads=1 > /dev/null
/// ```
const RUN_COST_MS: [(&str, u64); 17] = [
    ("fig03", 1),
    ("table2", 1),
    ("fig08", 1),
    ("fig09", 1),
    ("fig10", 1),
    ("fig11", 1),
    ("fig12", 1),
    ("fig13", 25),
    ("fig14", 1),
    ("fig15", 1),
    ("fig16", 15),
    ("jam", 1),
    ("mrd", 70),
    ("relay", 10),
    ("mesh10k", 500),
    ("meshjam", 470),
    ("table1", 5),
];

fn run_cost_ms(id: &str) -> u64 {
    RUN_COST_MS
        .iter()
        .find(|(i, _)| *i == id)
        .map(|&(_, ms)| ms)
        .expect("RUN_COST_MS lists every registered experiment")
}

/// Rough run time of each part job ([`Experiment::run_part`]) in
/// milliseconds at the default scenario, by experiment and part index.
/// `jam`'s twelve parts are its (duty, arm) cells, duty by duty from 0
/// to 0.5, PP-ARQ before whole-frame at each: the medians of seven
/// in-process runs of each cell (`jam::run_pparq_arm` and
/// `jam::run_whole_frame_arm` at 100 sessions) on the same 2-vCPU Xeon
/// as [`RUN_COST_MS`], rounded up to whole milliseconds. The clean band
/// (duty 0) needs no retransmission and is cheapest. Like
/// [`RUN_COST_MS`], the estimates only order the pool: `fig16` (15 ms)
/// starts before any cell, then the costliest cells.
const PART_COST_MS: [(&str, &[u64]); 1] = [("jam", &[1, 1, 3, 2, 3, 2, 3, 3, 3, 3, 3, 3])];

fn part_cost_ms(id: &str, part: usize) -> u64 {
    PART_COST_MS
        .iter()
        .find(|(i, _)| *i == id)
        .and_then(|(_, ms)| ms.get(part).copied())
        .expect("PART_COST_MS lists every part of every experiment")
}

/// Estimated run time of one trace job, in milliseconds at the default
/// scenario: a multi-arm pass costs about [`TRACE_MS_PER_KBPS`] per
/// kbit/s/node of offered load for what it does once per reception
/// (interference, chip-error draw, busy fold, one decode per distinct
/// frame), plus [`TRACE_MS_PER_ARM_KBPS`] per arm per kbit/s/node for
/// what it does per arm (acceptance rule, fold). Like [`RUN_COST_MS`],
/// the estimate only orders the pool.
///
/// Fitted by least squares to the median of seven single-thread release
/// runs of each of these, on the same 2-vCPU Xeon as [`RUN_COST_MS`]
/// (the capacity experiments only render their traces, so each run
/// times its traces): `fig10 table2` (the 11-arm 13.8 kbit/s trace,
/// ≈ 0.14 s), `fig03` (the three one-arm hint traces, ≈ 0.09 s),
/// `fig08`, `fig09`, `fig11` and `fig12`:
///
/// ```sh
/// time target/release/ppr-cli run fig10 table2 --set threads=1 > /dev/null
/// ```
fn trace_cost_ms(key: &TraceKey, arms: usize) -> u64 {
    (key.cfg.load_kbps * (TRACE_MS_PER_KBPS + TRACE_MS_PER_ARM_KBPS * arms as f64)) as u64
}

/// Per-reception cost of a trace job; see [`trace_cost_ms`] for how it
/// is measured.
const TRACE_MS_PER_KBPS: f64 = 2.8;

/// Per-arm cost of a trace job; see [`trace_cost_ms`] for how it is
/// measured.
const TRACE_MS_PER_ARM_KBPS: f64 = 0.6;

/// One job of a `run`: evaluate a trace, compute one part of an
/// experiment, or run one experiment at one sweep point.
enum Job {
    /// Evaluate the trace `key` with the union of the arms the sweep
    /// point's experiments request of it.
    Trace { key: TraceKey, arms: Vec<RxArm> },
    /// Compute part `k` of experiment `i` of the selection at sweep
    /// point `p` ([`Experiment::run_part`]).
    Part { p: usize, i: usize, k: usize },
    /// Run experiment `i` of the selection at sweep point `p`.
    Experiment { p: usize, i: usize },
}

/// The jobs of a `run`, point by point: each point's distinct traces,
/// then its experiments' parts, then its experiments. Returns the jobs
/// and each job's dependencies: an experiment depends on the traces it
/// reads, on its parts and on the [`Experiment::dependencies`] selected
/// before it at the same point.
fn plan_jobs(
    selected: &[&'static dyn Experiment],
    scenarios: &[Scenario],
) -> (Vec<Job>, Vec<Vec<usize>>) {
    let mut jobs = Vec::new();
    let mut deps = Vec::new();
    for (p, scenario) in scenarios.iter().enumerate() {
        // Trace jobs of this point: one per distinct key, in first-
        // request order, with the union of the requested arms.
        let first_trace = jobs.len();
        let mut reads: Vec<Vec<usize>> = Vec::new();
        for exp in selected {
            let mut mine = Vec::new();
            for request in exp.traces(scenario) {
                let key = request.key(scenario);
                let found = jobs[first_trace..]
                    .iter()
                    .position(|j| matches!(j, Job::Trace { key: k, .. } if *k == key));
                let at = match found {
                    Some(offset) => first_trace + offset,
                    None => {
                        jobs.push(Job::Trace {
                            key,
                            arms: Vec::new(),
                        });
                        deps.push(Vec::new());
                        jobs.len() - 1
                    }
                };
                if let Job::Trace { arms, .. } = &mut jobs[at] {
                    for arm in request.arms {
                        if !arms.contains(&arm) {
                            arms.push(arm);
                        }
                    }
                }
                if !mine.contains(&at) {
                    mine.push(at);
                }
            }
            reads.push(mine);
        }
        for (i, exp) in selected.iter().enumerate() {
            for k in 0..exp.parts(scenario) {
                reads[i].push(jobs.len());
                jobs.push(Job::Part { p, i, k });
                deps.push(Vec::new());
            }
        }
        let first_exp = jobs.len();
        for (i, exp) in selected.iter().enumerate() {
            let mut d = std::mem::take(&mut reads[i]);
            d.extend(
                exp.dependencies()
                    .iter()
                    .filter_map(|id| selected[..i].iter().position(|e| e.id() == *id))
                    .map(|j| first_exp + j),
            );
            jobs.push(Job::Experiment { p, i });
            deps.push(d);
        }
    }
    (jobs, deps)
}

/// Runs every (sweep point × experiment) job on the experiment pool
/// ([`pool::run_ordered`]) and prints and writes the results in sweep
/// and registry order, so the output is byte-identical to a serial run
/// whatever the pool size. Each distinct trace of a sweep point is one
/// job of its own, evaluated once with every arm its experiments read
/// ([`ppr_sim::experiments::traces::evaluate`]); the experiments that
/// read it start after it and render from the shared memo. An
/// experiment with [`Experiment::dependencies`] (Table 1) starts only
/// after those experiments at its sweep point have finished, and reuses
/// their results.
fn run(args: &RunArgs) -> i32 {
    let selected: Vec<&'static dyn Experiment> = if args.all {
        registry().to_vec()
    } else {
        args.ids
            .iter()
            .map(|id| find(id).expect("validated during parse"))
            .collect()
    };

    if let Some(dir) = &args.json_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("error: cannot create --json directory {dir:?}: {e}");
            return 1;
        }
    }

    let points = sweep_points(&args.sets);
    let scenarios = match points
        .iter()
        .map(|p| scenario_for(p))
        .collect::<Result<Vec<_>, _>>()
    {
        Ok(s) => s,
        Err(e) => {
            // Unreachable in practice: values were validated during
            // argument parsing.
            eprintln!("error: {e}");
            return 2;
        }
    };
    let labels: Vec<String> = points.iter().map(|p| point_label(p, &args.sets)).collect();
    let workers = scenarios
        .iter()
        .map(|s| s.threads.unwrap_or_else(threads_from_env))
        .max()
        .unwrap_or(1);

    let (jobs, deps) = plan_jobs(&selected, &scenarios);
    let cost = |k: usize| match &jobs[k] {
        Job::Trace { key, arms } => trace_cost_ms(key, arms.len()),
        Job::Part { i, k, .. } => part_cost_ms(selected[*i].id(), *k),
        Job::Experiment { i, .. } => run_cost_ms(selected[*i].id()),
    };
    let work = |k: usize, prior: Vec<Arc<Option<ExperimentResult>>>| match &jobs[k] {
        Job::Trace { key, arms } => {
            traces::evaluate(key, arms);
            None
        }
        Job::Part { p, i, k } => {
            selected[*i].run_part(&scenarios[*p], *k);
            None
        }
        Job::Experiment { p, i } => {
            let prior: Vec<ExperimentResult> = prior.iter().filter_map(|r| (**r).clone()).collect();
            Some(selected[*i].run_with(&scenarios[*p], &prior))
        }
    };
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    let emit = |k: usize, result: &Option<ExperimentResult>| -> Result<(), Stop> {
        let (&Job::Experiment { p, i }, Some(result)) = (&jobs[k], result) else {
            return Ok(());
        };
        let mut text = String::new();
        if i == 0 {
            if points.len() > 1 {
                if p > 0 {
                    text.push('\n');
                }
                text += &format!(
                    "### sweep point {}/{}: {}\n\n",
                    p + 1,
                    points.len(),
                    labels[p]
                );
            }
            if args.all {
                text += &banner("ALL EXPERIMENTS");
                text += &format!(
                    "simulated duration per run: {} s (override with PPR_DURATION)\n\n",
                    scenarios[p].duration_s
                );
            }
        } else {
            text.push('\n');
        }
        if !args.all {
            text += &banner(selected[i].title());
        }
        text += &result.render_text();
        out.write_all(text.as_bytes())?;
        if let Some(dir) = &args.json_dir {
            let file = if labels[p].is_empty() {
                format!("{}.json", result.id)
            } else {
                format!("{}__{}.json", result.id, labels[p])
            };
            let path = std::path::Path::new(dir).join(file);
            std::fs::write(&path, result.to_json().render())
                .map_err(|e| Stop::Failed(format!("cannot write {}: {e}", path.display())))?;
        }
        Ok(())
    };
    let outcome = pool::run_ordered(jobs.len(), workers, |k| deps[k].clone(), cost, work, emit)
        .and_then(|()| out.flush().map_err(Stop::from));
    match outcome {
        Ok(()) | Err(Stop::BrokenPipe) => 0,
        Err(Stop::Failed(e)) => {
            eprintln!("error: {e}");
            1
        }
    }
}

/// Default checkpoint for `diff` when the scenario does not pin one
/// (`--set checkpoint=N`): early enough that every short run still has
/// transmissions left after the restore, late enough that the prefix
/// already holds decoded receptions.
const DIFF_DEFAULT_CHECKPOINT: u64 = 200;

/// The adversarial mesh the `diff` fleet validates: 300 nodes under a
/// reactive jammer with churn and a ×1.5 backoff ladder, seeded from
/// the scenario so `--set seed=` varies the whole pass.
fn jammed_mesh_params(base: &Scenario) -> MeshParams {
    let mut p = MeshParams::benign(300, 12.0, base.seed, base.eta, 250);
    p.jammer = JammerSpec::React { delay: 4096 };
    p.churn = 2.0;
    p.arq_backoff_milli = 1500;
    p
}

fn diff(args: &RunArgs) -> i32 {
    let selected: Vec<&'static dyn Experiment> = if args.all {
        registry().to_vec()
    } else {
        args.ids
            .iter()
            .map(|id| find(id).expect("validated during parse"))
            .collect()
    };
    if let Some(dir) = &args.json_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("error: cannot create --json directory {dir:?}: {e}");
            return 1;
        }
    }

    let points = sweep_points(&args.sets);
    let mut failures: Vec<Json> = Vec::new();
    let mut stream_rows: Vec<Json> = Vec::new();
    for (p, point) in points.iter().enumerate() {
        let base = match scenario_for(point) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("error: {e}");
                return 2;
            }
        };
        let label = point_label(point, &args.sets);
        if points.len() > 1 {
            if p > 0 {
                println!();
            }
            println!("### sweep point {}/{}: {label}", p + 1, points.len());
        }
        let checkpoint = base.checkpoint.unwrap_or(DIFF_DEFAULT_CHECKPOINT);
        println!(
            "kernel: {}   checkpoint: {checkpoint} events",
            active_kernel_signature()
        );
        println!();

        // Experiment-level pass: every selected experiment with and
        // without the checkpoint; the rendered reports must be
        // byte-identical.
        let plain = Scenario {
            checkpoint: None,
            ..base.clone()
        };
        let checked = Scenario {
            checkpoint: Some(checkpoint),
            ..base.clone()
        };
        let mut t = ppr_sim::report::Table::new(&["experiment", "checkpoint"]);
        for exp in &selected {
            let agree = exp.run(&checked).render_text() == exp.run(&plain).render_text();
            t.row(&[
                exp.id().to_string(),
                if agree { "ok" } else { "DIVERGED" }.to_string(),
            ]);
            if !agree {
                failures.push(Json::Obj(vec![
                    ("experiment".into(), Json::str(exp.id())),
                    ("variant".into(), Json::str("checkpoint")),
                    ("point".into(), Json::str(&label)),
                ]));
            }
        }
        print!("{}", t.render());
        println!();

        // Stream-level pass: one reception checkpoint, resumed under
        // the reception driver, its stream diffed reception by reception
        // against the bool spec run from scratch.
        let run = CapacityRun::from_scenario(&plain, 13.8, false);
        let arm = RxArm {
            scheme: base.ppr_scheme(),
            postamble: true,
            collect_symbols: false,
        };
        let bytes = snapshot_after_events(&run.env, &run.cfg, &run.timeline, &arm, checkpoint);
        let snap = match RxSnapshot::from_bytes(&bytes) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("error: reception snapshot does not round-trip: {e}");
                return 1;
            }
        };
        let report = match cross_validate(&run.env, &run.cfg, &run.timeline, &arm, &snap) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("error: checkpoint restore failed: {e}");
                return 1;
            }
        };
        let mut t = ppr_sim::report::Table::new(&["backend", "stream fingerprint", "vs baseline"]);
        let rows = [
            (EVENT_LABEL, report.event_fp, None),
            (
                REFERENCE_LABEL,
                report.reference_fp,
                report.divergence.as_ref(),
            ),
        ];
        for (backend, fp, divergence) in rows {
            let verdict = match divergence {
                None => "ok".to_string(),
                Some(d) => format!("DIVERGED: {d}"),
            };
            t.row(&[backend.to_string(), format!("{fp:016x}"), verdict]);
            let mut fields = vec![
                ("backend".into(), Json::str(backend)),
                ("stream_fingerprint".into(), Json::str(format!("{fp:016x}"))),
                ("point".into(), Json::str(&label)),
            ];
            if let Some(d) = divergence {
                fields.push((
                    "first_divergence".into(),
                    Json::Obj(vec![
                        ("index".into(), Json::int(d.index as u64)),
                        ("tx_id".into(), Json::int(d.tx_id)),
                        ("sender".into(), Json::int(d.sender as u64)),
                        ("receiver".into(), Json::int(d.receiver as u64)),
                        ("end_chip".into(), Json::int(d.end_chip)),
                        ("field".into(), Json::str(d.field)),
                        ("baseline".into(), Json::str(&d.left)),
                        ("candidate".into(), Json::str(&d.right)),
                    ]),
                ));
                failures.push(Json::Obj(vec![
                    ("backend".into(), Json::str(backend)),
                    ("point".into(), Json::str(&label)),
                    ("divergence".into(), Json::str(d.to_string())),
                ]));
            }
            stream_rows.push(Json::Obj(fields));
        }
        print!("{}", t.render());
        println!();

        // Jammed-mesh pass: one frozen adversarial mesh checkpoint
        // (reactive jammer + churn + exponential backoff), serialized,
        // parsed back and resumed; the resumed stats must equal an
        // uninterrupted run's. Small on purpose — the point is
        // agreement, not scale.
        let mesh_params = jammed_mesh_params(&base);
        let reference = run_mesh(&mesh_params, None);
        let reference_fp = fingerprint(format!("{reference:?}").as_bytes());
        let mut driver = MeshDriver::new(&mesh_params, None);
        driver.run_events(checkpoint);
        let snap_bytes = driver.save().to_bytes();
        let resumed = match MeshSnapshot::from_bytes(&snap_bytes)
            .and_then(|snap| MeshDriver::restore(&mesh_params, &snap))
        {
            Ok(d) => d.run_to_end(),
            Err(e) => {
                eprintln!("error: jammed mesh checkpoint does not resume: {e}");
                return 1;
            }
        };
        let fp = fingerprint(format!("{resumed:?}").as_bytes());
        let agree = resumed == reference;
        let mut t =
            ppr_sim::report::Table::new(&["jammed mesh", "stats fingerprint", "vs baseline"]);
        t.row(&[
            "baseline".to_string(),
            format!("{reference_fp:016x}"),
            "ok".to_string(),
        ]);
        t.row(&[
            "resume".to_string(),
            format!("{fp:016x}"),
            if agree { "ok" } else { "DIVERGED" }.to_string(),
        ]);
        if !agree {
            failures.push(Json::Obj(vec![
                ("jammed_mesh".into(), Json::str("resume")),
                ("point".into(), Json::str(&label)),
            ]));
        }
        print!("{}", t.render());
    }

    let diverged = !failures.is_empty();
    if let Some(dir) = &args.json_dir {
        let report = Json::Obj(vec![
            ("kernel".into(), Json::str(active_kernel_signature())),
            ("diverged".into(), Json::Bool(diverged)),
            ("failures".into(), Json::Arr(failures)),
            ("streams".into(), Json::Arr(stream_rows)),
        ]);
        let path = std::path::Path::new(dir).join("diff_report.json");
        if let Err(e) = std::fs::write(&path, report.render()) {
            eprintln!("error: cannot write {}: {e}", path.display());
            return 1;
        }
    }
    if diverged {
        eprintln!("error: differential run diverged");
        1
    } else {
        println!("\nall combinations agree");
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_registered_experiment_has_a_run_cost() {
        let ids: Vec<&str> = registry().iter().map(|e| e.id()).collect();
        let costed: Vec<&str> = RUN_COST_MS.iter().map(|&(id, _)| id).collect();
        assert_eq!(costed, ids, "RUN_COST_MS must list the registry in order");
    }

    #[test]
    fn every_part_has_a_cost() {
        let sc = ScenarioBuilder::new().duration_s(1.0).build();
        for exp in registry() {
            let costed = PART_COST_MS
                .iter()
                .find(|&&(id, _)| id == exp.id())
                .map_or(0, |(_, ms)| ms.len());
            assert_eq!(costed, exp.parts(&sc), "{}", exp.id());
        }
        // The pool starts `fig16`, the longest PP-ARQ job, before any
        // `jam` cell.
        let (_, cells) = PART_COST_MS[0];
        assert!(cells.iter().all(|&ms| ms < run_cost_ms("fig16")));
    }

    #[test]
    fn each_jam_cell_is_a_job_the_jam_job_waits_for() {
        // Two sweep points of `fig16 jam`: each point plans jam's twelve
        // cells as part jobs, and its jam job depends on exactly those.
        let selected = vec![find("fig16").unwrap(), find("jam").unwrap()];
        let scenarios = [1.0, 2.0].map(|b| ScenarioBuilder::new().arq_backoff(b).build());
        let (jobs, deps) = plan_jobs(&selected, &scenarios);
        for (p, sc) in scenarios.iter().enumerate() {
            let parts: Vec<usize> = (0..jobs.len())
                .filter(|&j| matches!(jobs[j], Job::Part { p: q, i: 1, .. } if q == p))
                .collect();
            assert_eq!(parts.len(), 12);
            assert_eq!(selected[1].parts(sc), 12);
            for (k, &j) in parts.iter().enumerate() {
                assert!(matches!(jobs[j], Job::Part { k: kk, .. } if kk == k));
                assert!(deps[j].is_empty());
            }
            let at = |i: usize| {
                (0..jobs.len())
                    .find(|&j| matches!(jobs[j], Job::Experiment { p: q, i: ii } if q == p && ii == i))
                    .unwrap()
            };
            assert_eq!(deps[at(1)], parts, "point {p}");
            assert!(deps[at(0)].is_empty(), "fig16 has no parts");
        }
        assert_eq!(jobs.len(), 2 * (12 + 2));
    }

    #[test]
    fn sweep_points_build_the_cartesian_product() {
        let sets = vec![
            ("load".to_string(), vec!["3.5".into(), "13.8".into()]),
            ("eta".to_string(), vec!["6".into()]),
            ("seed".to_string(), vec!["1".into(), "2".into()]),
        ];
        let points = sweep_points(&sets);
        assert_eq!(points.len(), 4);
        // Every point carries all three keys; only swept keys label it.
        for p in &points {
            assert_eq!(p.len(), 3);
            let label = point_label(p, &sets);
            assert!(label.contains("load="));
            assert!(!label.contains("eta="));
            assert!(label.contains("seed="));
        }
    }

    #[test]
    fn run_args_reject_unknown_and_malformed_input() {
        for bad in [
            vec!["nonexistent".to_string()],
            vec!["--set".to_string()],
            vec!["fig03".to_string(), "--set".to_string(), "load".to_string()],
            vec![
                "fig03".to_string(),
                "--set".to_string(),
                "load=abc".to_string(),
            ],
            vec![
                "fig03".to_string(),
                "--set".to_string(),
                "bogus_key=1".to_string(),
            ],
            vec!["--frobnicate".to_string()],
            vec![],
        ] {
            assert!(parse_run_args(&bad).is_err(), "{bad:?} must be rejected");
        }
        let ok = parse_run_args(&[
            "fig03".to_string(),
            "--set".to_string(),
            "load=3.5,6.9".to_string(),
            "--json".to_string(),
            "out".to_string(),
        ])
        .unwrap();
        assert_eq!(ok.ids, vec!["fig03"]);
        assert_eq!(ok.sets.len(), 1);
        assert_eq!(ok.json_dir.as_deref(), Some("out"));
    }

    /// Argument fragments: flags, ids, and `--set` pieces at and past
    /// every parser's edge.
    const ARG_TOKENS: [&str; 30] = [
        "run",
        "--set",
        "--json",
        "--all",
        "--help",
        "-",
        "fig03",
        "fig10",
        "bogus",
        "=",
        ",",
        ":",
        "load",
        "seed",
        "eta",
        "topology",
        "jammer",
        "checkpoint",
        "0",
        "1",
        "-1",
        "2.5",
        "nan",
        "1e309",
        "rg",
        "grid",
        "react",
        "\u{e9}",
        " ",
        "",
    ];

    proptest::proptest! {
        /// `parse_run_args`, and the sweep expansion of whatever it
        /// accepts, never panic on arbitrary argument lists built from
        /// flags, ids and `key=value[,value...]` fragments.
        #[test]
        fn run_args_never_panic(
            args in proptest::collection::vec(
                proptest::collection::vec(proptest::prelude::any::<u8>(), 0..5),
                0..6,
            ),
        ) {
            let args: Vec<String> = args
                .iter()
                .map(|picks| {
                    picks
                        .iter()
                        .map(|&p| ARG_TOKENS[p as usize % ARG_TOKENS.len()])
                        .collect()
                })
                .collect();
            if let Ok(run_args) = parse_run_args(&args) {
                for point in sweep_points(&run_args.sets) {
                    let _ = scenario_for(&point);
                    let _ = point_label(&point, &run_args.sets);
                }
            }
        }
    }

    #[test]
    fn every_trace_is_one_job_with_the_union_of_its_arms() {
        let selected = registry().to_vec();
        let scenarios = [ScenarioBuilder::new().duration_s(1.0).build()];
        let (jobs, deps) = plan_jobs(&selected, &scenarios);
        let traces: Vec<(&TraceKey, usize)> = jobs
            .iter()
            .filter_map(|j| match j {
                Job::Trace { key, arms } => Some((key, arms.len())),
                _ => None,
            })
            .collect();
        // (load, carrier sense): 3.5/on, 3.5/off, 13.8/off, 6.9/off,
        // 13.8/on, 6.9/on — fig08's six arms plus the hint arm, the six
        // arms at each CS-off load (fig12's three among them), plus
        // Table 2's five at 13.8/off, and the hint arm alone.
        let mut arms: Vec<(f64, bool, usize)> = traces
            .iter()
            .map(|(k, n)| (k.cfg.load_kbps, k.cfg.carrier_sense, *n))
            .collect();
        arms.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert_eq!(
            arms,
            [
                (3.5, false, 6),
                (3.5, true, 7),
                (6.9, false, 6),
                (6.9, true, 1),
                (13.8, false, 11),
                (13.8, true, 1)
            ]
        );
        // Every experiment depends on exactly the traces it requests,
        // all earlier in the job list.
        for (k, job) in jobs.iter().enumerate() {
            let Job::Experiment { p, i } = job else {
                assert!(deps[k].is_empty());
                continue;
            };
            let sc = &scenarios[*p];
            let wanted: Vec<TraceKey> = selected[*i].traces(sc).iter().map(|r| r.key(sc)).collect();
            for d in &deps[k] {
                assert!(*d < k);
                if let Job::Trace { key, .. } = &jobs[*d] {
                    assert!(wanted.contains(key), "{}", selected[*i].id());
                }
            }
            let trace_deps = deps[k]
                .iter()
                .filter(|&&d| matches!(jobs[d], Job::Trace { .. }))
                .count();
            let mut distinct: Vec<&TraceKey> = Vec::new();
            for key in &wanted {
                if !distinct.contains(&key) {
                    distinct.push(key);
                }
            }
            assert_eq!(trace_deps, distinct.len(), "{}", selected[*i].id());
        }
    }
}
