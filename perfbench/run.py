#!/usr/bin/env python3
"""Time and PDE solves to a certified tolerance, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Run from the root of a source checkout.  Each repetition is a fresh
single-threaded process (perfbench/rep.py) that imports sparseuq from
src/, runs ``sparseuq.cli.run_experiment`` on a config generated from the
seed, reloads the final surrogate and times a seeded query batch.
Repetitions run until the next one would overrun --seconds.  With
--trace 0 the last stdout line reports the medians of the end-to-end
metrics, timings rescaled by a host-speed probe timed in the same
process; with --trace 1 repetitions alternate untraced and traced and it
reports the per-layer metrics.  Every repetition passes a correctness
gate or counts as failed.  --smoke runs every workload once at loose
tolerances and checks the metric names and the gate itself.

See perfbench/NOTES.md for the workloads, metrics and seed semantics.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = ROOT / ".perfbench_runs"

sys.path.insert(0, str(HERE))
from tracer import per_layer_names  # noqa: E402

# Relative size of the seeded per-term amplitude jitter.  Small enough that
# every seed marks the same indices (tolerances sit >= 2% from any crossing)
# yet large enough that the program sees different inputs per seed.
AMP_JITTER = 1e-4
BASE_AMPS_GAMMA = 0.9
BASE_AMPS_SIGMA = 2.0

WORKLOADS = {
    "gn-ref-inf-m3": {
        "strategy": "gn_envelope",
        "nodes": "leja",
        "M": 3,
        "p": "inf",
        "every": 1,
        "tol": 3.3e-2,
        "max_iter": 200,
        "query": (819200, 8192),
        "smoke_tol": 0.2,
    },
    "gn-profit-m6": {
        "strategy": "gn_profit",
        "nodes": "leja",
        "M": 6,
        "p": 2,
        "every": 0,
        "tol": 3.5e-2,
        "max_iter": 200,
        "query": (393216, 8192),
        "smoke_tol": 0.1,
    },
    "gg-cc-m5": {
        "strategy": "gg",
        "nodes": "clenshaw_curtis",
        "M": 5,
        "p": 2,
        "every": 0,
        "tol": 5.7e-7,
        "max_iter": 400,
        "query": (8192, 512),
        "smoke_tol": 1e-3,
    },
}

END_TO_END = (
    ("build_s", "s"),
    ("solves", "count"),
    ("query_pts_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

RELOAD_RTOL = 1e-12
REP_TIMEOUT_S = 170.0
# Timings are rescaled by CALIBRATION_REF_S over a probe timed in the same
# process (rep.calibrate), i.e. reported at the speed where the probe takes
# 25 ms, about its time on an idle host.  Other tenants of a shared host
# slow every repetition by up to ~1.6x for minutes at a time; on
# gn-profit-m6 the quartile spread of nine 40 s runs' median build time was
# 14% raw and 7% rescaled.
CALIBRATION_REF_S = 0.025
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def make_inputs(workload, seed, rundir, smoke=False):
    """Config and query points for one seed; the program sees only these."""
    w = WORKLOADS[workload]
    rng = np.random.default_rng(seed)
    dim = w["M"]
    base = [BASE_AMPS_GAMMA * (m + 1) ** (-BASE_AMPS_SIGMA) for m in range(dim)]
    jitter = rng.uniform(-1.0, 1.0, size=dim)
    amps = [float(a * (1.0 + AMP_JITTER * u)) for a, u in zip(base, jitter)]
    n_query, chunk = w["query"]
    if smoke:
        n_query = chunk
    points = rng.uniform(-1.0, 1.0, size=(n_query, dim))
    tol = w["smoke_tol"] if smoke else w["tol"]
    config = {
        "problem": {"family": "cosine", "M": dim, "a0": 2.0, "amps": amps, "f": 1.0},
        "mesh_n": 256,
        "nodes": w["nodes"],
        "norm": {"p": w["p"]},
        "strategies": [w["strategy"]],
        "tol": tol,
        "max_iter": w["max_iter"],
        "max_solves": 100000,
        "reference": {"every": w["every"]},
        "outdir": str(rundir / "out"),
    }
    rundir.mkdir(parents=True, exist_ok=True)
    config_path = rundir / "config.json"
    config_path.write_text(json.dumps(config, indent=2) + "\n")
    points_path = rundir / "points.npy"
    np.save(points_path, points)
    return config_path, points_path, tol, chunk


def child_env():
    env = dict(os.environ)
    for key in THREAD_VARS:
        env[key] = "1"
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_rep(rundir, config_path, points_path, chunk, traced, timeout):
    """One fresh-process repetition; returns its facts or {'error': ...}."""
    outdir = rundir / "out"
    spec = {
        "config": str(config_path),
        "points": str(points_path),
        "outdir": str(outdir),
        "chunk": chunk,
        "trace": traced,
    }
    spec_path = rundir / "spec.json"
    spec_path.write_text(json.dumps(spec))
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "rep.py"), str(spec_path)],
            cwd=str(ROOT),
            env=child_env(),
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            timeout=max(timeout, 1.0),
        )
    except subprocess.TimeoutExpired:
        return {"error": "repetition timed out after %.0f s" % timeout, "timed_out": True}
    finally:
        shutil.rmtree(outdir, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return {"error": "repetition exited %d: %s" % (proc.returncode, tail[0])}
    return json.loads(lines[-1])


def gate(workload, facts, tol):
    """Reasons this repetition failed; empty when it passed."""
    if "error" in facts:
        return [facts["error"]]
    w = WORKLOADS[workload]
    bad = []
    if facts["exit_code"] != 0:
        bad.append("exit code %d (stop: %s)" % (facts["exit_code"], facts["stop_reason"]))
    rows = facts["rows"]
    final_total = rows[-1][3]
    if final_total > tol:
        bad.append("final total_estimator %.6g > tol %.6g" % (final_total, tol))
    if w["every"] > 0:
        effs = [r[4] for r in rows]
        if any(e is None or e < 1.0 for e in effs):
            bad.append("effectivity below 1 or missing on a row")
    if w["strategy"].startswith("gn_"):
        if any(r[1] != r[2] for r in rows):
            bad.append("solves differ from grid size on a row")
    if facts["reload_rel_diff"] > RELOAD_RTOL:
        bad.append("reloaded surrogate differs by %.3g" % facts["reload_rel_diff"])
    return bad


def end_to_end(facts):
    """One repetition's metrics, timings rescaled to the reference host speed.

    Each timing is multiplied by CALIBRATION_REF_S over the calibration
    measured around it in the same process (setup: just after import;
    build: mean of the probes before and after it; query: mean of the
    probes before and after the batch).
    """
    cal = facts["calibration_s"]
    build_cal = (cal["setup"] + cal["build"]) / 2.0
    query_cal = (cal["build"] + cal["query"]) / 2.0
    return {
        "build_s": facts["build_s"] * CALIBRATION_REF_S / build_cal,
        "solves": facts["rows"][-1][2],
        "query_pts_per_s": facts["query_points"]
        / facts["query_s"]
        * query_cal
        / CALIBRATION_REF_S,
        "setup_s": facts["setup_s"] * CALIBRATION_REF_S / cal["setup"],
        "peak_rss_mb": facts["peak_rss_mb"],
    }


def raw_timings(facts):
    return {
        "build_s": facts["build_s"],
        "query_pts_per_s": facts["query_points"] / facts["query_s"],
        "setup_s": facts["setup_s"],
        "calibration_s": facts["calibration_s"]["build"],
    }


def median_of(samples, key):
    vals = [s[key] for s in samples]
    return float(statistics.median(vals)) if vals else 0.0


def measure(workload, seed, seconds, trace, smoke=False):
    """Repeat fresh-process runs for about `seconds`; returns a report."""
    t_start = time.perf_counter()
    rundir = RUNS / ("%s-%d-%d" % (workload, seed, os.getpid()))
    reps = []
    try:
        config_path, points_path, tol, chunk = make_inputs(workload, seed, rundir, smoke)
        longest = 0.0
        while True:
            traced = trace and len(reps) % 2 == 1
            elapsed = time.perf_counter() - t_start
            t0 = time.perf_counter()
            facts = run_rep(
                rundir, config_path, points_path, chunk, traced, REP_TIMEOUT_S - elapsed
            )
            longest = max(longest, time.perf_counter() - t0)
            reps.append((traced, facts, gate(workload, facts, tol)))
            if facts.get("timed_out"):
                break
            need_traced = trace and not any(t for t, _, _ in reps)
            if not need_traced and time.perf_counter() - t_start + longest > seconds:
                break
    finally:
        shutil.rmtree(rundir, ignore_errors=True)
    return {"workload": workload, "seed": seed, "tol": tol, "reps": reps}


def summarize(report, trace):
    """Print per-repetition lines; return the final result object."""
    reps = report["reps"]
    failed = sum(1 for _, _, bad in reps if bad)
    problems = []
    plain, traced = [], []
    digests = set()
    for k, (is_traced, facts, bad) in enumerate(reps):
        label = "traced" if is_traced else "plain"
        if "error" in facts:
            print("rep %d %s FAILED: %s" % (k, label, facts["error"]))
            continue
        e2e = end_to_end(facts)
        raw = raw_timings(facts)
        digests.add(facts["digest"])
        print(
            "rep %d %s build_s=%.4f (raw %.4f) setup_s=%.4f (raw %.4f) solves=%d "
            "iterations=%d query_pts_per_s=%.1f (raw %.1f) calibration_s=%.5f "
            "peak_rss_mb=%.1f digest=%s %s"
            % (
                k,
                label,
                e2e["build_s"],
                raw["build_s"],
                e2e["setup_s"],
                raw["setup_s"],
                e2e["solves"],
                len(facts["rows"]),
                e2e["query_pts_per_s"],
                raw["query_pts_per_s"],
                raw["calibration_s"],
                e2e["peak_rss_mb"],
                facts["digest"],
                "ok" if not bad else "FAILED: " + "; ".join(bad),
            )
        )
        if bad:
            continue
        (traced if is_traced else plain).append(facts)
    if len(digests) > 1:
        problems.append("repetitions disagree on the run digest: %s" % sorted(digests))
    first = next((f for _, f, _ in reps if "runtime" in f), None)
    if first is not None:
        print("runtime: %s" % json.dumps(first["runtime"], sort_keys=True))
    print(
        "workload %s seed %d: %d/%d repetitions failed (%.0f%%), digest %s"
        % (
            report["workload"],
            report["seed"],
            failed,
            len(reps),
            100.0 * failed / len(reps),
            ",".join(sorted(digests)) or "-",
        )
    )
    e2e = [end_to_end(f) for f in plain]
    raw = [raw_timings(f) for f in plain]
    for key in ("build_s", "query_pts_per_s", "setup_s", "calibration_s"):
        print("raw %s: median %.6g over %d repetitions" % (key, median_of(raw, key), len(raw)))
    if not trace:
        metrics = {
            name: {"value": median_of(e2e, name), "unit": unit} for name, unit in END_TO_END
        }
    else:
        metrics = layer_metrics(plain, traced, problems)
    for msg in problems:
        print("problem: %s" % msg)
    return {
        "correct": failed == 0 and not problems,
        "attempted": len(reps),
        "failed": failed,
        "metrics": metrics,
    }


def layer_metrics(plain, traced, problems):
    """Medians over traced repetitions, plus overhead and the self-time sum."""
    samples = []
    for facts in traced:
        sample = dict(facts["layers"])
        sample["trace.build_s"] = end_to_end(facts)["build_s"]
        # self times of every span under adaptive.run telescope to its duration
        gap = facts["build_s"] - facts["run_self_sum_s"]
        sample["trace.self_sum_gap_s"] = gap
        if abs(gap) > 1e-3 * facts["build_s"] + 1e-4:
            problems.append("per-layer self times miss build_s by %.6f s" % gap)
        samples.append(sample)
    traced_build = median_of(samples, "trace.build_s")
    plain_build = median_of([end_to_end(f) for f in plain], "build_s")
    out = {}
    for name, unit, _ in per_layer_names():
        if name == "trace.overhead_s":
            value = traced_build - plain_build
        else:
            value = median_of(samples, name)
        out[name] = {"value": value, "unit": unit}
    print(
        "tracing overhead: traced build_s %.4f - untraced build_s %.4f = %.4f s"
        % (traced_build, plain_build, traced_build - plain_build)
    )
    return out


def smoke():
    """Every workload at a loose tolerance: names emitted, gate bites."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want_e2e = {m["name"] for m in spec["end_to_end"]}
    want_layer = {m["name"] for m in spec["per_layer"]}
    ok = True
    for workload in WORKLOADS:
        for trace, want in ((False, want_e2e), (True, want_layer)):
            report = measure(workload, 0, 0, trace, smoke=True)
            result = summarize(report, trace)
            got = set(result["metrics"])
            if not result["correct"] or got != want:
                print(
                    "smoke %s trace=%d: correct=%s missing=%s extra=%s"
                    % (workload, trace, result["correct"], sorted(want - got), sorted(got - want))
                )
                ok = False
        # a check input the run cannot meet must count as a failed run
        facts = report["reps"][0][1]
        if "rows" in facts and not gate(workload, facts, facts["rows"][-1][3] / 2.0):
            print("smoke %s: tol below the final total was not flagged" % workload)
            ok = False
    print("smoke: %s" % ("ok" if ok else "FAILED"))
    return 0 if ok else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="fast self-check")
    args = parser.parse_args(argv)
    # SystemExit inside subprocess.run kills and reaps the running repetition
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "sparseuq" / "cli.py").is_file():
        print("error: no sparseuq sources under %s" % (ROOT / "src"), file=sys.stderr)
        return 2
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")
    report = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    result = summarize(report, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
