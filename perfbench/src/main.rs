//! `ppr-perfbench`: the in-process half of the repository benchmark.
//! `perfbench/run.py` builds and calls it; it is not meant to be run by
//! hand, though it can be:
//!
//! ```text
//! ppr-perfbench reference --workload W --ids fig16,jam --set seed=7 [--set k=v ...]
//! ppr-perfbench setup     --workload W --ids ... --set ... --seconds 0.1
//! ppr-perfbench trace     --workload W --ids ... --set ... --seconds 20 --spans FILE
//! ppr-perfbench pick-seed --workload testbed --ids ... --set seed=7
//! ```
//!
//! `reference` prints, as one JSON line, the in-process JSON fingerprint
//! of the workload's experiments (`Experiment::run_with`, exactly what
//! `ppr-cli run` renders), its deterministic work counts and the run
//! metadata. `setup` runs the workload's set-up constructors back to
//! back for `--seconds` and prints the mean time of one set-up.
//!
//! `pick-seed` maps a benchmark seed to a testbed scenario seed of
//! steady size (see [`pick_seed`]).
//!
//! `trace` repeats a traced pass for `--seconds` and prints per-layer
//! self times, counts, trace coverage and overhead, plus how many replay
//! checks it attempted and which failed. It writes the first pass's
//! spans to `--spans` as CSV.

mod mesh;
mod pparq;
mod testbed;
mod trace;

use ppr_phy::simd::{active_kernel_signature, DespreadKernel, DspKernel};
use ppr_sim::experiments::find;
use ppr_sim::results::{fingerprint, ExperimentResult};
use ppr_sim::scenario::{Scenario, ScenarioBuilder};
use std::collections::BTreeMap;
use std::time::Instant;
use trace::{percentile, Tracer};

/// Replay checks: how many were made and which failed. A failed check
/// is reported, never a panic, so the caller can count it.
#[derive(Default)]
pub struct Check {
    pub attempted: u64,
    pub failures: Vec<String>,
}

impl Check {
    pub fn expect(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failures.push(what());
        }
    }
}

/// Wall time of one traced pass and what tracing added to it, seconds.
pub struct PassTimes {
    pub pass_s: f64,
    pub overhead_s: f64,
}

/// Span names that group layer calls without being a layer themselves.
const CONTAINERS: [&str; 2] = ["testbed.arm", "arq.session"];

/// Fewest set-up repetitions one `setup` batch averages.
const SETUP_MIN_REPS: u32 = 5;

struct Args {
    mode: String,
    workload: String,
    ids: Vec<String>,
    sets: Vec<(String, String)>,
    seconds: f64,
    spans: Option<String>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        mode: argv.first().cloned().ok_or("missing mode")?,
        workload: String::new(),
        ids: Vec::new(),
        sets: Vec::new(),
        seconds: 0.0,
        spans: None,
    };
    let mut i = 1;
    while i < argv.len() {
        let value = argv
            .get(i + 1)
            .ok_or_else(|| format!("{} needs a value", argv[i]))?;
        match argv[i].as_str() {
            "--workload" => args.workload = value.clone(),
            "--ids" => args.ids = value.split(',').map(str::to_string).collect(),
            "--set" => {
                let (k, v) = value
                    .split_once('=')
                    .ok_or_else(|| format!("malformed --set {value:?}"))?;
                args.sets.push((k.to_string(), v.to_string()));
            }
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value:?}"))?
            }
            "--spans" => args.spans = Some(value.clone()),
            other => return Err(format!("unknown flag {other:?}")),
        }
        i += 2;
    }
    if args.ids.is_empty() {
        return Err("--ids is required".into());
    }
    Ok(args)
}

fn scenario(sets: &[(String, String)]) -> Result<Scenario, String> {
    let mut b = ScenarioBuilder::new();
    for (k, v) in sets {
        b.set(k, v)?;
    }
    Ok(b.build())
}

/// Minimal JSON rendering for flat reports.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn quoted(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn object(fields: &[(String, String)]) -> String {
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("{}:{v}", quoted(k)))
        .collect();
    format!("{{{}}}", body.join(","))
}

fn number_map(m: &BTreeMap<String, f64>) -> String {
    object(
        &m.iter()
            .map(|(k, v)| (k.clone(), num(*v)))
            .collect::<Vec<_>>(),
    )
}

/// What every result depends on besides the code.
fn metadata() -> String {
    let flag = |name: &str| match std::env::var(name) {
        Ok(v) => quoted(&v),
        Err(_) => "null".to_string(),
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    object(&[
        ("nproc".into(), nproc.to_string()),
        (
            "default_workers".into(),
            ppr_sim::env::threads_from_env().to_string(),
        ),
        (
            "despread_kernel".into(),
            quoted(DespreadKernel::active().name()),
        ),
        ("dsp_kernel".into(), quoted(DspKernel::active().name())),
        (
            "kernel_signature".into(),
            quoted(&active_kernel_signature()),
        ),
        ("PPR_NO_SIMD".into(), flag("PPR_NO_SIMD")),
        ("PPR_THREADS".into(), flag("PPR_THREADS")),
    ])
}

/// The workload's experiments as `ppr-cli run` renders them: one JSON
/// document per experiment, newline-separated, fingerprinted.
fn json_fingerprint(sc: &Scenario, ids: &[String]) -> Result<u64, String> {
    let mut results: Vec<ExperimentResult> = Vec::new();
    let mut corpus = String::new();
    for id in ids {
        let exp = find(id).ok_or_else(|| format!("unknown experiment {id:?}"))?;
        let r = exp.run_with(sc, &results);
        corpus.push_str(&r.to_json().render());
        corpus.push('\n');
        results.push(r);
    }
    Ok(fingerprint(corpus.as_bytes()))
}

/// Runs `f` once to warm up, then back to back until `budget_s` is
/// spent, and returns the mean time of one call in seconds. On a shared
/// host single calls flip between a fast and a slow mode for tens of
/// milliseconds at a time; a batch spanning such phases gives one
/// sample that moves smoothly with the host's load instead of jumping
/// between the modes.
fn time_setup(budget_s: f64, mut f: impl FnMut()) -> f64 {
    f();
    let start = Instant::now();
    let mut reps = 0u32;
    while reps < SETUP_MIN_REPS || start.elapsed().as_secs_f64() < budget_s {
        f();
        reps += 1;
    }
    start.elapsed().as_secs_f64() / f64::from(reps)
}

fn reference(args: &Args, sc: &Scenario) -> Result<String, String> {
    let fp = json_fingerprint(sc, &args.ids)?;
    let (receptions, events, sessions) = match args.workload.as_str() {
        "testbed" => {
            let c = testbed::counts(sc, &testbed::runs(sc, &args.ids));
            (c.receptions, c.events, c.transmissions)
        }
        "pparq" => {
            let mut tr = Tracer::new(false);
            pparq::run_all(&pparq::params(sc, &args.ids), &mut tr, false);
            let frames = tr.get("arq.frames");
            (frames, frames, tr.get("arq.sessions"))
        }
        "mesh10k" | "meshjam" => {
            let p = mesh::params(sc, &args.ids);
            let s = ppr_sim::experiments::mesh::run_mesh(&p, sc.threads);
            let sessions = s.nodes.saturating_sub(1) as u64;
            (s.receptions_evaluated as u64, s.events_dispatched, sessions)
        }
        other => return Err(format!("unknown workload {other:?}")),
    };
    Ok(object(&[
        ("fingerprint".into(), quoted(&format!("{fp:016x}"))),
        (
            "counts".into(),
            object(&[
                ("receptions".into(), receptions.to_string()),
                ("events".into(), events.to_string()),
                ("sessions".into(), sessions.to_string()),
            ]),
        ),
        ("meta".into(), metadata()),
    ]))
}

fn setup(args: &Args, sc: &Scenario) -> Result<String, String> {
    let mean_s = match args.workload.as_str() {
        "testbed" => {
            let specs = testbed::runs(sc, &args.ids);
            time_setup(args.seconds, || testbed::setup(sc, &specs))
        }
        "pparq" => {
            let p = pparq::params(sc, &args.ids);
            time_setup(args.seconds, || pparq::setup(&p))
        }
        "mesh10k" | "meshjam" => {
            let p = mesh::params(sc, &args.ids);
            time_setup(args.seconds, || mesh::setup(&p, sc.threads))
        }
        other => return Err(format!("unknown workload {other:?}")),
    };
    Ok(object(&[("setup_s".into(), num(mean_s))]))
}

/// Largest relative difference in receptions from the default seed's
/// that `pick-seed` accepts.
const WORK_BAND: f64 = 0.02;
/// Candidates `pick-seed` tries before giving up.
const MAX_CANDIDATES: u64 = 10_000;

/// SplitMix64: the candidate scenario seeds `pick-seed` walks.
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The testbed's scenario seed for a benchmark seed. The seed draws the
/// floor's shadowing, so which links exist, and the receptions the
/// capacity arms evaluate differ by about ±20 % between seeds. To keep
/// the work of a run independent of the seed, this walks candidates
/// (the seed itself first, then the SplitMix64 stream keyed by the
/// seed) and returns the first whose receptions are within `WORK_BAND`
/// of the default seed's.
fn pick_seed(args: &Args, sc: &Scenario) -> Result<String, String> {
    let receptions = |seed: u64| {
        let mut sc = sc.clone();
        sc.seed = seed;
        testbed::counts(&sc, &testbed::runs(&sc, &args.ids)).receptions as f64
    };
    let target = receptions(ppr_sim::scenario::DEFAULT_SEED);
    for k in 0..MAX_CANDIDATES {
        let seed = if k == 0 {
            sc.seed
        } else {
            splitmix64(splitmix64(sc.seed).wrapping_add(k))
        };
        if (receptions(seed) / target - 1.0).abs() <= WORK_BAND {
            return Ok(object(&[
                ("seed".into(), seed.to_string()),
                ("candidates".into(), (k + 1).to_string()),
            ]));
        }
    }
    Err(format!("no seed within {WORK_BAND} of the default work"))
}

/// One traced pass's numbers.
struct Pass {
    times: PassTimes,
    tracer: Tracer,
    extra: BTreeMap<String, f64>,
}

fn traced_pass(args: &Args, sc: &Scenario, first: bool, check: &mut Check) -> Result<Pass, String> {
    let mut tr = Tracer::new(true);
    let mut extra = BTreeMap::new();
    let times = match args.workload.as_str() {
        "testbed" => {
            let specs = testbed::runs(sc, &args.ids);
            testbed::trace_pass(sc, &specs, &mut tr, first, check)
        }
        "pparq" => pparq::trace_pass(&pparq::params(sc, &args.ids), &mut tr, first, check),
        "mesh10k" | "meshjam" => {
            let (times, s) =
                mesh::trace_pass(&mesh::params(sc, &args.ids), sc.threads, &mut tr, check);
            let ratio = |a: usize, b: usize| a as f64 / b.max(1) as f64;
            for (k, v) in [
                ("event.dispatched", s.events_dispatched as f64),
                ("mesh.receptions_scheduled", s.receptions_scheduled as f64),
                ("mesh.receptions_evaluated", s.receptions_evaluated as f64),
                (
                    "mesh.evaluated_ratio",
                    ratio(s.receptions_evaluated, s.receptions_scheduled),
                ),
                ("mesh.self_busy_drops", s.self_busy_drops as f64),
                ("mesh.flush_batches", s.flush_batches as f64),
                ("mesh.max_batch", s.max_batch as f64),
                ("mesh.transmissions", s.transmissions as f64),
                ("mesh.repair_tx", s.repair_tx as f64),
                ("mesh.repair_bytes", s.repair_bytes_requested as f64),
                ("mesh.coverage", s.coverage()),
                ("arq.retry_exhausted", s.retry_exhausted as f64),
                ("adversary.jam_bursts", s.jam_bursts as f64),
                ("adversary.jam_chips", s.jam_chips as f64),
                ("adversary.crashes", s.crashes as f64),
            ] {
                extra.insert(k.to_string(), v);
            }
            times
        }
        other => return Err(format!("unknown workload {other:?}")),
    };
    Ok(Pass {
        times,
        tracer: tr,
        extra,
    })
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(|a, b| a.total_cmp(b));
    let n = v.len();
    if n == 0 {
        f64::NAN
    } else if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Per-layer numbers of one pass: self time per layer, trace coverage,
/// and decode latency percentiles.
fn pass_times(p: &Pass) -> BTreeMap<String, f64> {
    let mut m = BTreeMap::new();
    let mut covered = 0.0;
    for (name, secs) in p.tracer.self_seconds() {
        if !CONTAINERS.contains(&name) {
            covered += secs;
            m.insert(format!("{name}_s"), secs);
        }
    }
    m.insert("trace.coverage".into(), covered / p.times.pass_s);
    m.insert("trace.overhead".into(), p.times.overhead_s);
    let decode = p.tracer.durations_us("rxpath.decode");
    if let (Some(p50), Some(p99)) = (percentile(&decode, 50.0), percentile(&decode, 99.0)) {
        m.insert("rxpath.decode_p50_us".into(), p50);
        m.insert("rxpath.decode_p99_us".into(), p99);
    }
    m
}

/// Exact counts of one pass, under their metric names.
fn pass_counts(p: &Pass) -> BTreeMap<String, f64> {
    let mut m: BTreeMap<String, f64> = p
        .tracer
        .counts()
        .iter()
        .map(|(k, v)| (k.to_string(), *v as f64))
        .collect();
    let claimed = m.remove("mac.bytes_claimed");
    if let (Some(claimed), Some(&correct)) = (claimed, m.get("mac.bytes_correct")) {
        m.insert("mac.correct_ratio".into(), correct / claimed.max(1.0));
    }
    if let (Some(c), Some(q)) = (m.remove("spatial.candidates"), m.remove("spatial.queries")) {
        m.insert("spatial.candidates_per_query".into(), c / q.max(1.0));
    }
    m.extend(p.extra.clone());
    m
}

fn trace(args: &Args, sc: &Scenario) -> Result<String, String> {
    let start = Instant::now();
    let mut check = Check::default();
    let mut per_pass: Vec<BTreeMap<String, f64>> = Vec::new();
    let mut counts = BTreeMap::new();
    loop {
        let first = per_pass.is_empty();
        let pass = traced_pass(args, sc, first, &mut check)?;
        per_pass.push(pass_times(&pass));
        let c = pass_counts(&pass);
        if first {
            if let Some(path) = &args.spans {
                let file = std::fs::File::create(path).map_err(|e| format!("{path}: {e}"))?;
                pass.tracer
                    .write_csv(std::io::BufWriter::new(file))
                    .map_err(|e| format!("{path}: {e}"))?;
            }
            counts = c;
        } else {
            // Later passes skip the reference run; every count they
            // share with the first pass must repeat exactly.
            let same = c.iter().all(|(k, v)| counts.get(k) == Some(v));
            check.expect(same, || "counts differ between traced passes".into());
        }
        if start.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
    }
    let mut metrics = counts;
    let names: std::collections::BTreeSet<String> =
        per_pass.iter().flat_map(|m| m.keys().cloned()).collect();
    for name in names {
        let v: Vec<f64> = per_pass
            .iter()
            .filter_map(|m| m.get(&name).copied())
            .collect();
        metrics.insert(name, median(v));
    }
    metrics.insert("trace.passes".into(), per_pass.len() as f64);
    let failures: Vec<String> = check.failures.iter().map(|f| quoted(f)).collect();
    Ok(object(&[
        ("attempted".into(), check.attempted.to_string()),
        ("failures".into(), format!("[{}]", failures.join(","))),
        ("metrics".into(), number_map(&metrics)),
        ("meta".into(), metadata()),
    ]))
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = parse_args(&argv).and_then(|args| {
        let sc = scenario(&args.sets)?;
        match args.mode.as_str() {
            "reference" => reference(&args, &sc),
            "setup" => setup(&args, &sc),
            "pick-seed" => pick_seed(&args, &sc),
            "trace" => trace(&args, &sc),
            other => Err(format!("unknown mode {other:?}")),
        }
    });
    match result {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("ppr-perfbench: {e}");
            std::process::exit(2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_failed_check_is_counted_not_raised() {
        let mut check = Check::default();
        check.expect(true, || unreachable!("only failures are described"));
        check.expect(false, || "replay differs".to_string());
        assert_eq!(check.attempted, 2);
        assert_eq!(check.failures, vec!["replay differs".to_string()]);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(vec![3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(vec![4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(Vec::new()).is_nan());
    }

    #[test]
    fn reports_render_as_json() {
        let mut m = BTreeMap::new();
        m.insert("a.b_s".to_string(), 0.5);
        m.insert("nan".to_string(), f64::NAN);
        assert_eq!(number_map(&m), r#"{"a.b_s":0.5,"nan":null}"#);
        assert_eq!(quoted("x\"y\n"), r#""x\"y\u000a""#);
    }
}
