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
//! runs under every driver × checkpoint combination and the rendered
//! reports are compared byte for byte; one reception checkpoint is then
//! restored under every reception backend and the streams diffed event
//! by event (`ppr_sim::diff`). Any disagreement exits 1 and — with
//! `--json DIR` — writes a first-divergence report.
//!
//! Exit status: 0 on success, 1 on divergence, 2 on usage errors
//! (unknown id, malformed `--set`, unknown flag).

mod pool;

use ppr_sim::adversary::JammerSpec;
use ppr_sim::diff::{active_kernel_signature, cross_validate, standard_backends};
use ppr_sim::env::threads_from_env;
use ppr_sim::experiments::common::CapacityRun;
use ppr_sim::experiments::mesh::{run_mesh, MeshDriver, MeshParams};
use ppr_sim::experiments::{find, registry, Experiment};
use ppr_sim::network::{snapshot_after_events, RxArm};
use ppr_sim::results::{fingerprint, ExperimentResult, Json};
use ppr_sim::scenario::{Driver, Scenario, ScenarioBuilder, SCENARIO_KEYS};
use ppr_sim::snapshot::{MeshSnapshot, RxSnapshot};
use std::io::Write;
use std::sync::Arc;

/// Usage text printed by `--help` and on argument errors.
const USAGE: &str = "\
usage:
  ppr-cli --list                     list registered experiments
  ppr-cli run <id>... [options]      run experiments by id
  ppr-cli run --all [options]        run the full registry
  ppr-cli diff <id>... [options]     cross-validate experiments across
  ppr-cli diff --all [options]       drivers, checkpoints and backends

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
/// time at the default scenario on a 2-vCPU Xeon. The pool only uses
/// these to start long experiments first; they never change a result.
/// Figs. 14 and 15 render the hint pass that `fig03`, ahead of them in
/// the registry, computes, and Table 1 reuses its dependencies' results.
///
/// To re-measure one entry, take the median wall time of a few solo
/// release runs (the table holds medians of five):
///
/// ```sh
/// time target/release/ppr-cli run mrd --set threads=1 > /dev/null
/// ```
const RUN_COST_MS: [(&str, u64); 17] = [
    ("fig03", 340),
    ("table2", 500),
    ("fig08", 100),
    ("fig09", 150),
    ("fig10", 510),
    ("fig11", 260),
    ("fig12", 580),
    ("fig13", 25),
    ("fig14", 5),
    ("fig15", 5),
    ("fig16", 15),
    ("jam", 30),
    ("mrd", 90),
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

/// Runs every (sweep point × experiment) job on the experiment pool
/// ([`pool::run_ordered`]) and prints and writes the results in sweep
/// and registry order, so the output is byte-identical to a serial run
/// whatever the pool size. An experiment with
/// [`Experiment::dependencies`] (Table 1) starts only after those
/// experiments at its sweep point have finished, and reuses their
/// results.
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

    // Job k is experiment k % n at sweep point k / n.
    let n = selected.len();
    let deps = |k: usize| -> Vec<usize> {
        let (p, i) = (k / n, k % n);
        selected[i]
            .dependencies()
            .iter()
            .filter_map(|id| selected[..i].iter().position(|e| e.id() == *id))
            .map(|j| p * n + j)
            .collect()
    };
    let cost = |k: usize| run_cost_ms(selected[k % n].id());
    let work = |k: usize, prior: Vec<Arc<ExperimentResult>>| {
        let prior: Vec<ExperimentResult> = prior.iter().map(|r| (**r).clone()).collect();
        selected[k % n].run_with(&scenarios[k / n], &prior)
    };
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    let emit = |k: usize, result: &ExperimentResult| -> Result<(), Stop> {
        let (p, i) = (k / n, k % n);
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
    let outcome = pool::run_ordered(points.len() * n, workers, deps, cost, work, emit)
        .and_then(|()| out.flush().map_err(Stop::from));
    match outcome {
        Ok(()) | Err(Stop::BrokenPipe) => 0,
        Err(Stop::Failed(e)) => {
            eprintln!("error: {e}");
            1
        }
    }
}

/// Default checkpoint epoch for `diff` when the scenario does not pin
/// one (`--set checkpoint=N`): early enough that every short run still
/// has work left after the restore, late enough that in-flight state
/// exists when it is taken.
const DIFF_DEFAULT_CHECKPOINT: u64 = 200;

/// The driver × checkpoint combinations the experiment-level pass runs;
/// the first is the baseline.
fn diff_variants(base: &Scenario, checkpoint: u64) -> Vec<(&'static str, Scenario)> {
    [
        ("event", Driver::Event, None),
        ("event+checkpoint", Driver::Event, Some(checkpoint)),
        ("timestep", Driver::Timestep, None),
        ("timestep+checkpoint", Driver::Timestep, Some(checkpoint)),
    ]
    .into_iter()
    .map(|(name, driver, checkpoint)| {
        let mut sc = base.clone();
        sc.driver = driver;
        sc.checkpoint = checkpoint;
        (name, sc)
    })
    .collect()
}

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

        // Experiment-level pass: every selected experiment under every
        // driver × checkpoint combination; the rendered reports must be
        // byte-identical.
        let mut t = ppr_sim::report::Table::new(&[
            "experiment",
            "event+checkpoint",
            "timestep",
            "timestep+checkpoint",
        ]);
        for exp in &selected {
            let variants = diff_variants(&base, checkpoint);
            let baseline = exp.run(&variants[0].1).render_text();
            let mut row = vec![exp.id().to_string()];
            for (name, sc) in &variants[1..] {
                let agree = exp.run(sc).render_text() == baseline;
                row.push(if agree { "ok" } else { "DIVERGED" }.to_string());
                if !agree {
                    failures.push(Json::Obj(vec![
                        ("experiment".into(), Json::str(exp.id())),
                        ("variant".into(), Json::str(*name)),
                        ("point".into(), Json::str(&label)),
                    ]));
                }
            }
            t.row(&row);
        }
        print!("{}", t.render());
        println!();

        // Stream-level pass: one reception checkpoint, restored under
        // every backend, streams diffed event by event.
        let mut event_base = base.clone();
        event_base.driver = Driver::Event;
        event_base.checkpoint = None;
        let run = CapacityRun::from_scenario(&event_base, 13.8, false);
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
        let reports = match cross_validate(
            &run.env,
            &run.cfg,
            &run.timeline,
            &arm,
            &snap,
            &standard_backends(),
        ) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("error: checkpoint restore failed: {e}");
                return 1;
            }
        };
        let mut t = ppr_sim::report::Table::new(&["backend", "stream fingerprint", "vs baseline"]);
        for report in &reports {
            let verdict = match &report.divergence {
                None => "ok".to_string(),
                Some(d) => format!("DIVERGED: {d}"),
            };
            t.row(&[
                report.label.clone(),
                format!("{:016x}", report.stream_fp),
                verdict,
            ]);
            let mut fields = vec![
                ("backend".into(), Json::str(&report.label)),
                (
                    "stream_fingerprint".into(),
                    Json::str(format!("{:016x}", report.stream_fp)),
                ),
                ("point".into(), Json::str(&label)),
            ];
            if let Some(d) = &report.divergence {
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
                    ("backend".into(), Json::str(&report.label)),
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
}
