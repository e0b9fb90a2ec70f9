//! Behavior tests for the `ppr-cli` driver binary, exercised through
//! the real executable (`CARGO_BIN_EXE_ppr-cli`).

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};

fn ppr_cli(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_ppr-cli"))
        .args(args)
        .output()
        .expect("spawn ppr-cli")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn list_covers_every_registered_id() {
    let out = ppr_cli(&["--list"]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    for exp in ppr_sim::experiments::registry() {
        assert!(
            text.lines().any(|l| l.starts_with(exp.id())),
            "--list is missing {}:\n{text}",
            exp.id()
        );
    }
    // And the subcommand alias behaves identically.
    let alias = ppr_cli(&["list"]);
    assert_eq!(text, stdout(&alias));
}

#[test]
fn unknown_id_exits_nonzero_with_helpful_message() {
    let out = ppr_cli(&["run", "fig99"]);
    assert_eq!(out.status.code(), Some(2));
    let err = stderr(&out);
    assert!(err.contains("unknown experiment \"fig99\""), "{err}");
    // The message lists what *would* work.
    assert!(err.contains("fig03"), "no id listing in: {err}");
    assert!(err.contains("table1"), "no id listing in: {err}");
}

#[test]
fn malformed_set_pairs_are_rejected() {
    for set in ["load", "load=", "=3.5", "load=abc", "bogus=1", "eta=99"] {
        let out = ppr_cli(&["run", "fig03", "--set", set]);
        assert_eq!(out.status.code(), Some(2), "--set {set} must fail");
        assert!(
            stderr(&out).contains("error:"),
            "--set {set}: {}",
            stderr(&out)
        );
    }
}

#[test]
fn body_bytes_is_bounded_by_what_the_receiver_accepts() {
    // 2048 B is the receiver's largest body: accepted, and it runs.
    let out = ppr_cli(&[
        "run",
        "fig08",
        "--set",
        "body_bytes=2048",
        "--set",
        "duration=2",
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    // One more byte would lose every frame's header; a body past what a
    // frame can carry used to panic. Both are usage errors.
    for set in ["body_bytes=2049", "body_bytes=70000"] {
        let out = ppr_cli(&["run", "fig08", "--set", set, "--set", "duration=2"]);
        assert_eq!(out.status.code(), Some(2), "--set {set}: {}", stderr(&out));
        let err = stderr(&out);
        assert!(
            err.contains("want 1-2048") && !err.contains("panicked"),
            "{err}"
        );
        assert!(stdout(&out).is_empty(), "ran despite --set {set}");
    }
}

#[test]
fn values_that_size_an_allocation_are_bounded() {
    // Each would size a huge allocation before the run starts; all are
    // refused as usage errors before anything is built.
    for (id, set, want) in [
        ("meshjam", "churn=1e9", "0-10000"),
        ("fig10", "topology=grid:100000x100000", "1-32"),
        ("mesh10k", "mesh_nodes=200000000", "2-100000"),
        // A grid of about nodes·π/density cells, and an event queue of
        // about nodes·min(density, nodes) receptions.
        ("mesh10k", "mesh_density=1e-9", "1-50"),
        ("mesh10k", "mesh_density=1e9", "1-50"),
    ] {
        let out = ppr_cli(&["run", id, "--set", set]);
        assert_eq!(out.status.code(), Some(2), "--set {set}: {}", stderr(&out));
        assert!(stderr(&out).contains(want), "{}", stderr(&out));
        assert!(stdout(&out).is_empty(), "ran despite --set {set}");
    }
}

#[test]
fn values_that_size_work_linearly_are_bounded() {
    // Each would run for minutes or hours (the timeline grows with
    // load × duration; fig16 keeps a record per packet): refused as
    // usage errors before anything runs.
    for (id, set, want) in [
        ("fig10", "load=10000000", "<= 250"),
        ("fig10", "duration=1e9", "<= 900"),
        ("fig16", "arq_packets=1000000000", "1-100000"),
        ("relay", "relay_packets=1000000000", "1-100000"),
    ] {
        let out = ppr_cli(&["run", id, "--set", set]);
        assert_eq!(out.status.code(), Some(2), "--set {set}: {}", stderr(&out));
        assert!(stderr(&out).contains(want), "{}", stderr(&out));
        assert!(stdout(&out).is_empty(), "ran despite --set {set}");
    }
}

#[test]
fn removed_driver_axis_is_an_unknown_key() {
    // One reception driver remains, so `driver` is no scenario key: it
    // must be refused up front, not ignored or crash the run.
    let out = ppr_cli(&["run", "fig10", "--set", "driver=timestep"]);
    assert_eq!(out.status.code(), Some(2), "{}", stderr(&out));
    let err = stderr(&out);
    assert!(
        err.contains("unknown scenario key \"driver\"") && err.contains("valid keys"),
        "{err}"
    );
    assert!(stdout(&out).is_empty(), "ran despite the bad key");
}

#[test]
fn removed_checkpoint_axis_is_an_unknown_key() {
    // The mesh flood keeps no snapshot, so `checkpoint` is no scenario
    // key: it is refused up front like any other unknown key.
    let out = ppr_cli(&["run", "mesh10k", "--set", "checkpoint=5"]);
    assert_eq!(out.status.code(), Some(2), "{}", stderr(&out));
    let err = stderr(&out);
    assert!(
        err.contains("unknown scenario key \"checkpoint\"") && err.contains("valid keys"),
        "{err}"
    );
    assert!(stdout(&out).is_empty(), "ran despite the bad key");
    let help = stdout(&ppr_cli(&["--help"]));
    assert!(!help.contains("checkpoint"), "--help lists it:\n{help}");
}

#[test]
fn nothing_to_run_is_an_error() {
    let out = ppr_cli(&["run"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("nothing to run"));
}

#[test]
fn run_fig13_emits_report_and_json() {
    // fig13 is the fastest full experiment (fixed three-packet scene).
    let dir = std::env::temp_dir().join(format!("ppr_cli_json_{}", std::process::id()));
    let out = ppr_cli(&["run", "fig13", "--json", dir.to_str().unwrap()]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("PPR reproduction — Figure 13"), "{text}");
    assert!(text.contains("POSTAMBLE"), "{text}");
    let json = std::fs::read_to_string(dir.join("fig13.json")).expect("fig13.json written");
    assert!(json.starts_with(r#"{"id":"fig13""#), "{json}");
    assert!(json.contains(r#""scenario":"#));
    assert!(json.contains(r#""blocks":"#));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn sweep_produces_one_json_result_per_point() {
    let dir = std::env::temp_dir().join(format!("ppr_cli_sweep_{}", std::process::id()));
    // Sweep the PP-ARQ packet count: three points, no new Rust code.
    let out = ppr_cli(&[
        "run",
        "fig16",
        "--set",
        "arq_packets=2,4,6",
        "--set",
        "duration=1",
        "--json",
        dir.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("sweep point 1/3"), "{text}");
    assert!(text.contains("sweep point 3/3"), "{text}");
    for n in [2, 4, 6] {
        let path = dir.join(format!("fig16__arq_packets={n}.json"));
        let json =
            std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        assert!(json.contains(&format!(r#""arq_packets":{n}"#)), "{json}");
    }
    // The un-swept key (duration) must not appear in filenames.
    let files: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    assert_eq!(files.len(), 3, "{files:?}");
    assert!(files.iter().all(|f| !f.contains("duration")), "{files:?}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn ppr_no_simd_escape_hatch_is_bit_identical() {
    // The SIMD despread kernels must not change a single experiment
    // byte: the same run with `PPR_NO_SIMD=1` (scalar reference kernel)
    // produces identical output. This exercises the env plumbing the
    // in-process parity tests cannot (kernel choice is cached per
    // process).
    let args = ["run", "fig03", "--set", "duration=2"];
    // Scrub any inherited PPR_NO_SIMD so this run really uses the
    // detected kernel (otherwise scalar would be compared to scalar).
    let simd = Command::new(env!("CARGO_BIN_EXE_ppr-cli"))
        .args(args)
        .env_remove("PPR_NO_SIMD")
        .output()
        .expect("spawn ppr-cli");
    assert!(simd.status.success(), "{}", stderr(&simd));
    let scalar = Command::new(env!("CARGO_BIN_EXE_ppr-cli"))
        .args(args)
        .env("PPR_NO_SIMD", "1")
        .output()
        .expect("spawn ppr-cli");
    assert!(scalar.status.success(), "{}", stderr(&scalar));
    assert_eq!(
        stdout(&simd),
        stdout(&scalar),
        "scalar and SIMD kernels diverged"
    );
}

#[test]
fn help_exits_zero_and_documents_scenario_keys() {
    let out = ppr_cli(&["--help"]);
    assert!(out.status.success());
    let text = stdout(&out);
    for key in ["duration", "seed", "load", "eta", "mesh_nodes", "jammer"] {
        assert!(text.contains(key), "--help missing {key}:\n{text}");
    }
}

#[test]
fn closing_the_reader_early_is_a_clean_stop() {
    // `ppr-cli run ... | head -1` closes the pipe while results are
    // still coming; the run must stop quietly with status 0.
    let mut child = Command::new(env!("CARGO_BIN_EXE_ppr-cli"))
        .args(["run", "fig13", "fig08", "--set", "duration=2"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn ppr-cli");
    drop(child.stdout.take());
    let out = child.wait_with_output().expect("wait for ppr-cli");
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    assert!(!stderr(&out).contains("panicked"), "{}", stderr(&out));
}

/// Every `*.json` file in `dir`, by name.
fn json_files(dir: &Path) -> BTreeMap<String, String> {
    std::fs::read_dir(dir)
        .unwrap()
        .map(|e| {
            let e = e.unwrap();
            let name = e.file_name().to_string_lossy().into_owned();
            (name, std::fs::read_to_string(e.path()).unwrap())
        })
        .collect()
}

fn temp_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("ppr_cli_{tag}_{}", std::process::id()))
}

#[test]
fn the_pool_is_invisible_in_the_output() {
    // One process running five experiments concurrently prints and
    // writes exactly what five single-id processes do, joined by the
    // blank line the CLI prints between experiments. fig14 and fig15
    // share fig03's hint pass; table1 reuses fig03 and fig10.
    let ids = ["fig03", "fig10", "fig14", "fig15", "table1"];
    let pooled_dir = temp_dir("pooled");
    let mut args = vec!["run"];
    args.extend(ids);
    args.extend(["--set", "duration=2", "--set", "threads=2", "--json"]);
    args.push(pooled_dir.to_str().unwrap());
    let pooled = ppr_cli(&args);
    assert!(pooled.status.success(), "{}", stderr(&pooled));

    let single_dir = temp_dir("single");
    let mut texts = Vec::new();
    for id in ids {
        let out = ppr_cli(&[
            "run",
            id,
            "--set",
            "duration=2",
            "--set",
            "threads=2",
            "--json",
            single_dir.to_str().unwrap(),
        ]);
        assert!(out.status.success(), "{id}: {}", stderr(&out));
        texts.push(stdout(&out));
    }
    assert_eq!(stdout(&pooled), texts.join("\n"));
    assert_eq!(json_files(&pooled_dir), json_files(&single_dir));
    std::fs::remove_dir_all(&pooled_dir).ok();
    std::fs::remove_dir_all(&single_dir).ok();
}

#[test]
fn a_sweep_prints_the_same_on_one_thread_and_four() {
    let run = |threads: &str| {
        let dir = temp_dir(&format!("threads{threads}"));
        let out = ppr_cli(&[
            "run",
            "fig10",
            "fig03",
            "table1",
            "--set",
            "load=3.5,13.8",
            "--set",
            "duration=2",
            "--set",
            "arq_packets=20",
            "--set",
            &format!("threads={threads}"),
            "--json",
            dir.to_str().unwrap(),
        ]);
        assert!(out.status.success(), "{}", stderr(&out));
        let json = json_files(&dir);
        std::fs::remove_dir_all(&dir).ok();
        (stdout(&out), json)
    };
    let (text1, json1) = run("1");
    let (text4, json4) = run("4");
    assert_eq!(text1, text4);
    assert_eq!(json1.len(), 6, "{:?}", json1.keys());
    // The JSON records the scenario, so only its `threads` value differs.
    let json4: BTreeMap<String, String> = json4
        .into_iter()
        .map(|(k, v)| (k, v.replace(r#""threads":4"#, r#""threads":1"#)))
        .collect();
    assert_eq!(json1, json4);
}
