#!/usr/bin/env python3
"""Repository benchmark for the PPR reproduction.

End-to-end numbers come from timing the real user command, one
`ppr-cli run ...` process at a time, and checking each run's JSON
output. Per-layer numbers come from a separate traced in-process pass
(the `ppr-perfbench` helper in this directory), which calls each
layer's public functions and times them from outside.

    python3 perfbench/run.py --workload testbed --seed 7 --seconds 20 --trace 0
    python3 perfbench/run.py --all            # every workload, every metric
    python3 perfbench/run.py --compare A.json B.json

Run it from anywhere inside a checkout; it builds `ppr-cli` and the
helper from source into `$CARGO_TARGET_DIR` (default `.bench_build`).
The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. Every result is also
saved with its run metadata under `.perfbench/results/`. See
perfbench/README.md for the workloads and the metric catalogue.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench"

# The scenario's default master seed, and the seed held out for later
# changes to re-check a claimed gain on (never used while tuning).
DEFAULT_SEED = 0x0050_5052
HELD_OUT_SEED = 20070827

TESTBED_IDS = ["fig03", "fig08", "fig09", "fig10", "fig11", "fig12",
               "fig13", "fig14", "fig15", "table2", "mrd"]

# name -> (experiment ids, --set overrides besides the seed)
WORKLOADS = {
    "testbed": (TESTBED_IDS, []),
    "pparq": (["fig16", "jam"], [("arq_packets", "2400")]),
    "mesh10k": (["mesh10k"], []),
    "meshjam": (["meshjam"], []),
}

# Workloads whose scenario seed is picked from the benchmark seed so
# that every seed gives the same amount of work (see `pick_seed` in
# src/main.rs): the testbed's link set, and so its work, follows the seed.
SEED_PICKED = {"testbed"}

# FNV-1a of each workload's `ppr-cli --json` documents (in run order,
# newline-separated) at the default and the held-out benchmark seed.
PINNED = {
    "testbed": {DEFAULT_SEED: "d2de9ebbe78a45c6", HELD_OUT_SEED: "0eaa50adfefdb647"},
    "pparq": {DEFAULT_SEED: "06df7c634d02d66e", HELD_OUT_SEED: "18cc11910b755e52"},
    "mesh10k": {DEFAULT_SEED: "26676a8556d10c79", HELD_OUT_SEED: "4e25cf6ec44946b4"},
    "meshjam": {DEFAULT_SEED: "f2d59a184603a33d", HELD_OUT_SEED: "b22fab5950764688"},
}

# (name, unit, description)
END_TO_END = [
    ("wall_s", "s", "median host wall time of one ppr-cli process"),
    ("setup_s", "s", "median host time of the set-up constructors"),
    ("receptions_per_s", "1/s", "deterministic receptions / wall_s"),
    ("events_per_s", "1/s", "deterministic events dispatched / wall_s"),
    ("sessions_per_s", "1/s", "deterministic delivery sessions / wall_s"),
    ("peak_rss_mb", "MB", "median peak resident memory of one process"),
]

# (name, unit, layer, the end-to-end metric it should move, on which workload)
PER_LAYER = [
    ("network.env_s", "s", "network", "setup_s, wall_s on testbed"),
    ("network.timeline_s", "s", "network", "wall_s on testbed"),
    ("network.timeline_tx", "count", "network", "wall_s on testbed"),
    ("network.receptions", "count", "network", "receptions_per_s on testbed"),
    ("channel.interference_s", "s", "channel", "receptions_per_s on testbed"),
    ("channel.corrupt_s", "s", "channel", "receptions_per_s on testbed"),
    ("channel.chips", "count", "channel", "receptions_per_s on testbed"),
    ("mac.frame_s", "s", "mac.frame", "receptions_per_s on testbed"),
    ("rxpath.sync_s", "s", "rxpath", "receptions_per_s on testbed"),
    ("rxpath.decode_s", "s", "rxpath", "receptions_per_s on testbed"),
    ("rxpath.decode_p50_us", "us", "rxpath", "receptions_per_s on testbed"),
    ("rxpath.decode_p99_us", "us", "rxpath", "receptions_per_s on testbed"),
    ("rxpath.acq_preamble", "count", "rxpath", "receptions_per_s on testbed"),
    ("rxpath.acq_postamble", "count", "rxpath", "receptions_per_s on testbed"),
    ("rxpath.acq_none", "count", "rxpath", "receptions_per_s on testbed"),
    ("mac.deliver_s", "s", "mac.deliver", "receptions_per_s on testbed"),
    ("mac.bytes_correct", "count", "mac.deliver", "receptions_per_s on testbed"),
    ("mac.correct_ratio", "ratio", "mac.deliver", "receptions_per_s on testbed"),
    ("arq.plan_s", "s", "arq", "sessions_per_s on pparq"),
    ("arq.retx_s", "s", "arq", "sessions_per_s on pparq"),
    ("arq.apply_s", "s", "arq", "sessions_per_s on pparq"),
    ("arq.channel_s", "s", "arq", "sessions_per_s on pparq"),
    ("arq.frames", "count", "arq", "receptions_per_s on pparq"),
    ("arq.sessions", "count", "arq", "sessions_per_s on pparq"),
    ("arq.rounds", "count", "arq", "sessions_per_s on pparq"),
    ("arq.retx_bytes", "count", "arq", "sessions_per_s on pparq"),
    ("arq.feedback_bytes", "count", "arq", "sessions_per_s on pparq"),
    ("arq.complete", "count", "arq", "sessions_per_s on pparq"),
    ("arq.partial", "count", "arq", "sessions_per_s on pparq"),
    ("arq.failed", "count", "arq", "sessions_per_s on pparq"),
    ("geometry.place_s", "s", "geometry", "setup_s on mesh10k, meshjam"),
    ("spatial.build_s", "s", "spatial", "setup_s on mesh10k, meshjam"),
    ("spatial.query_s", "s", "spatial", "events_per_s on mesh10k, meshjam"),
    ("spatial.candidates_per_query", "count", "spatial",
     "events_per_s on mesh10k, meshjam"),
    ("mesh.setup_s", "s", "mesh", "setup_s on mesh10k, meshjam"),
    ("mesh.flood_s", "s", "mesh", "events_per_s on mesh10k, meshjam"),
    ("event.dispatched", "count", "event", "events_per_s on testbed, mesh10k, meshjam"),
    ("mesh.receptions_scheduled", "count", "mesh", "events_per_s on mesh10k, meshjam"),
    ("mesh.receptions_evaluated", "count", "mesh",
     "receptions_per_s on mesh10k, meshjam"),
    ("mesh.evaluated_ratio", "ratio", "mesh", "events_per_s on mesh10k, meshjam"),
    ("mesh.self_busy_drops", "count", "mesh", "events_per_s on mesh10k, meshjam"),
    ("mesh.flush_batches", "count", "mesh", "events_per_s on mesh10k, meshjam"),
    ("mesh.max_batch", "count", "mesh", "events_per_s on mesh10k, meshjam"),
    ("mesh.transmissions", "count", "mesh", "events_per_s on mesh10k, meshjam"),
    ("mesh.repair_tx", "count", "mesh", "events_per_s on mesh10k, meshjam"),
    ("mesh.repair_bytes", "count", "mesh", "events_per_s on mesh10k, meshjam"),
    ("mesh.coverage", "ratio", "mesh", "events_per_s on mesh10k, meshjam"),
    ("arq.retry_exhausted", "count", "mesh", "events_per_s on meshjam"),
    ("adversary.jam_bursts", "count", "adversary", "events_per_s on meshjam"),
    ("adversary.jam_chips", "count", "adversary", "events_per_s on meshjam"),
    ("adversary.crashes", "count", "adversary", "events_per_s on meshjam"),
    ("trace.coverage", "ratio", "trace", "(share of the traced pass in layer spans)"),
    ("trace.overhead", "s", "trace", "(traced minus untraced in-process time)"),
]

MIN_CLI_RUNS = 3
# Set-up constructors are timed in batches between CLI processes, so
# their samples span the same stretch of time as the wall samples; one
# sample is the mean set-up time over a batch this long.
SETUP_BATCH_S = 0.1
# A run stops starting processes this long after its budget, whatever
# the minimum, so it always ends well within the driver's time limit.
OVERRUN_S = 60.0


class BenchError(Exception):
    """A failure of the benchmark itself (not of a measured run)."""


# ---------------------------------------------------------------- stats

def median(values):
    return statistics.median(values)


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(n=4) gives them."""
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def tail_percentile(values, min_beyond=10, ladder=(9999, 9990, 9900, 9000, 5000)):
    """The highest percentile in `ladder` (in hundredths of a percent)
    with at least `min_beyond` samples above its nearest-rank position,
    as (percentile, value), or None when even the median has too few
    samples beyond it."""
    v = sorted(values)
    n = len(v)
    for pp in ladder:
        rank = max(1, -(-pp * n // 10000))
        if n - rank >= min_beyond:
            return pp / 100, v[rank - 1]
    return None


def fnv1a64(data):
    h = 0xCBF29CE484222325
    for b in data:
        h ^= b
        h = (h * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return h


# ------------------------------------------------------------- metadata

def _run_text(cmd):
    try:
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def commit():
    top = _run_text(["git", "rev-parse", "--show-toplevel"])
    if top is None or Path(top).resolve() != ROOT:
        return "unknown (not a git checkout)"
    head = _run_text(["git", "rev-parse", "HEAD"]) or "unknown"
    dirty = _run_text(["git", "status", "--porcelain", "--untracked-files=no"])
    return head + ("+dirty" if dirty else "")


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def host_metadata():
    return {
        "commit": commit(),
        "machine": platform.machine(),
        "cpu": cpu_model(),
        "os_kernel": platform.release(),
        "cpu_count": os.cpu_count(),
        "rustc": _run_text(["rustc", "--version"]) or "unknown",
    }


def compare(a, b):
    """Lines describing two saved results side by side; any metadata
    that differs is flagged first, because it can explain a difference
    without any change to the code."""
    lines = []
    meta_a, meta_b = a.get("meta", {}), b.get("meta", {})
    for key in sorted(set(meta_a) | set(meta_b)):
        if key == "commit":
            continue
        if meta_a.get(key) != meta_b.get(key):
            lines.append(f"WARNING metadata differs: {key}: {meta_a.get(key)!r} vs {meta_b.get(key)!r}")
    for key in ("workload", "seed", "trace"):
        if a.get(key) != b.get(key):
            lines.append(f"WARNING run differs: {key}: {a.get(key)!r} vs {b.get(key)!r}")
    ma, mb = a.get("metrics", {}), b.get("metrics", {})
    for name in sorted(set(ma) | set(mb)):
        va, vb = ma.get(name, {}).get("value"), mb.get(name, {}).get("value")
        if isinstance(va, (int, float)) and isinstance(vb, (int, float)) and va:
            lines.append(f"{name:32} {va:14.6g} {vb:14.6g} {100.0 * (vb - va) / va:+8.2f} %")
        else:
            lines.append(f"{name:32} {va!s:>14} {vb!s:>14}")
    return lines


# ---------------------------------------------------------------- build

def target_dir():
    raw = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    path = Path(raw)
    return path if path.is_absolute() else ROOT / path


def check_checkout():
    missing = [p for p in ("Cargo.toml", "crates/ppr-cli/Cargo.toml", "crates/ppr-sim/Cargo.toml")
               if not (ROOT / p).is_file()]
    if missing:
        raise BenchError(f"not a PPR checkout (missing {', '.join(missing)}) under {ROOT}")


def build():
    env = dict(os.environ, CARGO_TARGET_DIR=str(target_dir()))
    for cmd in (["cargo", "build", "--release", "--offline", "-q", "-p", "ppr-cli"],
                ["cargo", "build", "--release", "--offline", "-q",
                 "--manifest-path", "perfbench/Cargo.toml"]):
        if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
            raise BenchError("build failed: " + " ".join(cmd))
    release = target_dir() / "release"
    return release / "ppr-cli", release / "ppr-perfbench"


def child_env():
    """The caller's environment minus the variable that would change
    the workloads' scenario (PPR_DURATION); PPR_THREADS and PPR_NO_SIMD
    pass through and are recorded in the metadata."""
    env = dict(os.environ)
    env.pop("PPR_DURATION", None)
    return env


# ------------------------------------------------------------ workloads

def scenario_sets(workload, seed):
    return [("seed", str(seed))] + WORKLOADS[workload][1]


def helper(helper_bin, mode, workload, seed, extra=()):
    ids, _ = WORKLOADS[workload]
    cmd = [str(helper_bin), mode, "--workload", workload, "--ids", ",".join(ids)]
    for k, v in scenario_sets(workload, seed):
        cmd += ["--set", f"{k}={v}"]
    out = subprocess.run(cmd + list(extra), cwd=ROOT, env=child_env(),
                         capture_output=True, text=True, timeout=170)
    if out.returncode != 0:
        raise BenchError(f"{mode} helper failed: {out.stderr.strip()}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def scenario_seed(helper_bin, workload, seed):
    if workload not in SEED_PICKED:
        return seed
    return int(helper(helper_bin, "pick-seed", workload, seed)["seed"])


def expected_fingerprint(workload, seed, in_process):
    """The fingerprint every CLI run at this seed must produce, and a
    failure note when the in-process run disagrees with a pinned value."""
    pinned = PINNED.get(workload, {}).get(seed)
    if pinned is None or pinned == in_process:
        return in_process, None
    return pinned, f"in-process fingerprint {in_process} != pinned {pinned} at seed {seed}"


def output_fingerprint(json_dir, ids):
    corpus = b"".join((json_dir / f"{i}.json").read_bytes() + b"\n" for i in ids)
    return f"{fnv1a64(corpus):016x}"


def run_cli_once(cli, workload, seed, json_dir):
    """One timed `ppr-cli run` process: (exit code, wall s, peak RSS MB)."""
    ids, _ = WORKLOADS[workload]
    cmd = [str(cli), "run", *ids]
    for k, v in scenario_sets(workload, seed):
        cmd += ["--set", f"{k}={v}"]
    cmd += ["--json", str(json_dir)]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(),
                            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def measure_cli(run_once, workload, seconds, expected, json_dir, between=lambda: None):
    """Runs CLI processes one at a time for `seconds` (at least
    MIN_CLI_RUNS), calling `between` after each; a run fails when it
    exits non-zero or its output fingerprint differs from `expected`."""
    ids, _ = WORKLOADS[workload]
    walls, rss, failures = [], [], []
    start = time.perf_counter()
    while True:
        shutil.rmtree(json_dir, ignore_errors=True)
        json_dir.mkdir(parents=True)
        code, wall, peak = run_once(json_dir)
        if code != 0:
            failures.append(f"ppr-cli exited with {code}")
        else:
            try:
                got = output_fingerprint(json_dir, ids)
            except OSError as e:
                got = f"unreadable output ({e})"
            if got != expected:
                failures.append(f"output fingerprint {got} != expected {expected}")
        walls.append(wall)
        rss.append(peak)
        between()
        elapsed = time.perf_counter() - start
        if elapsed >= seconds + OVERRUN_S or (elapsed >= seconds and len(walls) >= MIN_CLI_RUNS):
            break
    shutil.rmtree(json_dir, ignore_errors=True)
    return walls, rss, failures


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(workload, seed, sc_seed, seconds, cli, helper_bin):
    ref = helper(helper_bin, "reference", workload, sc_seed)
    expected, pin_failure = expected_fingerprint(workload, seed, ref["fingerprint"])
    json_dir = OUT / "tmp" / f"{workload}-{seed}-{os.getpid()}"
    setup = []

    def time_setup():
        batch = helper(helper_bin, "setup", workload, sc_seed, ["--seconds", str(SETUP_BATCH_S)])
        setup.append(batch["setup_s"])

    walls, rss, failures = measure_cli(
        lambda d: run_cli_once(cli, workload, sc_seed, d), workload, seconds, expected, json_dir,
        time_setup)
    attempted = len(walls)
    if pin_failure:
        failures.append(pin_failure)
        attempted += 1
    wall = median(walls)
    counts = ref["counts"]
    metrics = {
        "wall_s": metric(wall, "s"),
        "setup_s": metric(median(setup), "s"),
        "receptions_per_s": metric(counts["receptions"] / wall, "1/s"),
        "events_per_s": metric(counts["events"] / wall, "1/s"),
        "sessions_per_s": metric(counts["sessions"] / wall, "1/s"),
        "peak_rss_mb": metric(median(rss), "MB"),
    }
    detail = {
        "wall_s_samples": walls,
        "setup_s_samples": setup,
        "peak_rss_mb_samples": rss,
        "counts": counts,
        "expected_fingerprint": expected,
    }
    return attempted, failures, metrics, detail, ref["meta"]


def per_layer(workload, seed, sc_seed, seconds, helper_bin):
    spans = OUT / "trace" / f"{workload}-seed{seed}.spans.csv"
    spans.parent.mkdir(parents=True, exist_ok=True)
    res = helper(helper_bin, "trace", workload, sc_seed,
                 ["--seconds", str(seconds), "--spans", str(spans)])
    got = res["metrics"]
    metrics = {name: metric(got.get(name, 0), unit) for name, unit, _, _ in PER_LAYER}
    detail = {"passes": got.get("trace.passes"), "spans_csv": str(spans.relative_to(ROOT))}
    return res["attempted"], res["failures"], metrics, detail, res["meta"]


# -------------------------------------------------------------- reports

def print_end_to_end(workload, metrics, detail):
    walls = detail["wall_s_samples"]
    q1, q2, q3 = quartiles(walls)
    print(f"\n== {workload}: end to end (ppr-cli process, tracing off)")
    print(f"   wall_s over {len(walls)} processes: median {q2:.4f} s, "
          f"quartiles {q1:.4f} / {q3:.4f} s")
    tail = tail_percentile(walls)
    print("   tail: " + (f"p{tail[0]:g} = {tail[1]:.4f} s" if tail
                         else "no percentile has 10 samples beyond it"))
    for name, unit, desc in END_TO_END:
        print(f"   {name:18} {metrics[name]['value']:16.6g} {unit:6} {desc}")


def print_per_layer(workload, metrics):
    print(f"\n== {workload}: per layer (traced in-process pass)")
    print(f"   {'metric':30} {'value':>14} {'unit':6} {'layer':12} feeds")
    for name, unit, layer, feeds in PER_LAYER:
        value = metrics[name]["value"]
        shown = f"{value:14.6g}" if value else f"{'-':>14}"
        print(f"   {name:30} {shown} {unit:6} {layer:12} {feeds}")


def save(record):
    path = OUT / "results" / f"{record['workload']}-seed{record['seed']}-trace{record['trace']}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(record, indent=1) + "\n")
    return path


def run_workload(workload, seed, seconds, trace, cli, helper_bin):
    sc_seed = scenario_seed(helper_bin, workload, seed)
    if trace:
        attempted, failures, metrics, detail, meta = per_layer(
            workload, seed, sc_seed, seconds, helper_bin)
        print_per_layer(workload, metrics)
    else:
        attempted, failures, metrics, detail, meta = end_to_end(
            workload, seed, sc_seed, seconds, cli, helper_bin)
        print_end_to_end(workload, metrics, detail)
    print(f"   scenario seed {sc_seed} (benchmark seed {seed})")
    failed = len(failures)
    for f in failures:
        print(f"   FAILED: {f}")
    print(f"   fail_ratio {failed / attempted:.4f} ratio ({failed} failed of {attempted} attempted)")
    record = {
        "workload": workload, "seed": seed, "scenario_seed": sc_seed,
        "seconds": seconds, "trace": trace,
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "failures": failures, "metrics": metrics, "detail": detail,
        "meta": dict(host_metadata(), **meta),
    }
    print(f"   metadata: {json.dumps(record['meta'], sort_keys=True)}")
    print(f"   saved {save(record).relative_to(ROOT)}")
    return record


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--all", action="store_true",
                   help="run every workload with and without tracing")
    p.add_argument("--compare", nargs=2, metavar=("A", "B"),
                   help="compare two saved results, flagging differing metadata")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if not (args.compare or args.all or args.workload):
        p.error("give --workload, --all or --compare")
    return args


def main(argv):
    args = parse_args(argv)
    if args.compare:
        a, b = (json.loads(Path(f).read_text()) for f in args.compare)
        print("\n".join(compare(a, b)))
        return 0
    check_checkout()
    cli, helper_bin = build()
    if args.all:
        records = [run_workload(w, args.seed, args.seconds, t, cli, helper_bin)
                   for w in WORKLOADS for t in (0, 1)]
        summary = {r["workload"] + ("/trace" if r["trace"] else ""): {
            k: v["value"] for k, v in r["metrics"].items()} for r in records}
        print(json.dumps({"correct": all(r["correct"] for r in records),
                          "attempted": sum(r["attempted"] for r in records),
                          "failed": sum(r["failed"] for r in records),
                          "summary": summary}))
        return 0
    r = run_workload(args.workload, args.seed, args.seconds, args.trace, cli, helper_bin)
    print(json.dumps({"correct": r["correct"], "attempted": r["attempted"],
                      "failed": r["failed"], "metrics": r["metrics"]}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        sys.exit(2)
