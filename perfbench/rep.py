"""One benchmark repetition, run in a fresh single-threaded process.

    python3 perfbench/rep.py SPEC.json

SPEC names the generated config, the query points, the output directory,
the query chunk size and whether to trace.  The process imports
sparseuq, runs ``cli.run_experiment`` on the config, reloads the final
surrogate with ``cli.load_interpolant``, checks it against the in-memory
one, times the query batch, probes the host speed after import, build and
query (see calibrate) and prints one JSON line of raw facts.  The caller
judges the facts; this process judges nothing.
"""

import hashlib
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

CHECK_POINTS = 64


def runtime_info(np, kernels):
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = "%s %s" % (blas.get("name"), blas.get("version"))
    except (KeyError, TypeError, ValueError):
        openblas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": openblas,
        "use_numba": bool(kernels.USE_NUMBA),
        "threads": {
            key: os.environ.get(key)
            for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
    }


def digest(rows, indices):
    canon = json.dumps(
        {"rows": [[r.n_indices, r.n_solves] for r in rows], "indices": indices},
        separators=(",", ":"),
    )
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def calibrate(np):
    """Host speed probe: best of three timings of a fixed task.

    The task mixes interpreter work on small tuples and dicts, NumPy ops
    on mesh-sized vectors and a modest matrix product, like the program,
    and uses no sparseuq code, so no change to sparseuq can move it.
    """
    return min(_calibration_task(np) for _ in range(3))


def _calibration_task(np):
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)
    counts = {}
    for row in rng.integers(0, 9, size=(20000, 4)).tolist():
        key = tuple(row)
        counts[key] = counts.get(key, 0) + 1
    sorted(counts)
    v = np.linspace(0.0, 1.0, 257)
    for _ in range(1000):
        v = np.sqrt(v * v + 1.0) - 0.5
    a = rng.random((256, 1024))
    b = rng.random((1024, 257))
    for _ in range(4):
        a @ b
    return time.perf_counter() - t0


def main(spec_path):
    spec = json.loads(Path(spec_path).read_text())
    t_setup = time.perf_counter()
    from sparseuq import adaptive, cli, estimators, fem, interp, kernels, multiindex, nodes

    import numpy as np

    t_cal = time.perf_counter()
    cal_setup = calibrate(np)
    t_setup += time.perf_counter() - t_cal

    tracer = None
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install([adaptive, cli, estimators, fem, interp, kernels, multiindex, nodes])

    captured = {}
    run_strategy = cli.run_strategy

    def timed_run(*args, **kwargs):
        captured["start"] = time.perf_counter()
        try:
            captured["trace"] = run_strategy(*args, **kwargs)
        finally:
            captured["end"] = time.perf_counter()
        return captured["trace"]

    cli.run_strategy = timed_run
    exit_code = cli.run_experiment(spec["config"], outdir=spec["outdir"])
    cal_build = calibrate(np)
    trace = captured["trace"]
    rows = trace.rows
    P = trace.interpolant

    snapshot = Path(spec["outdir"]) / ("%s-final-set.json" % trace.strategy)
    reloaded = cli.load_interpolant(snapshot)
    Y = np.load(spec["points"])
    check = Y[:CHECK_POINTS]
    mine = P.evaluate(check)
    theirs = reloaded.evaluate(check)
    scale = max(float(np.max(np.abs(mine))), np.finfo(float).tiny)
    reload_rel_diff = float(np.max(np.abs(mine - theirs))) / scale

    chunk = int(spec["chunk"])
    checksum = 0.0
    t_query = time.perf_counter()
    for start in range(0, Y.shape[0], chunk):
        checksum += float(reloaded.evaluate(Y[start : start + chunk])[:, 1:-1].sum())
    query_s = time.perf_counter() - t_query
    cal_query = calibrate(np)

    facts = {
        "exit_code": exit_code,
        "stop_reason": trace.stop_reason,
        "setup_s": captured["start"] - t_setup,
        "build_s": captured["end"] - captured["start"],
        "query_s": query_s,
        "query_points": int(Y.shape[0]),
        "calibration_s": {"setup": cal_setup, "build": cal_build, "query": cal_query},
        "query_checksum": checksum,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "rows": [
            [r.n_indices, r.n_grid, r.n_solves, r.total_estimator, r.effectivity]
            for r in rows
        ],
        "digest": digest(rows, P.indexset.to_jsonable()),
        "reload_rel_diff": reload_rel_diff,
        "runtime": runtime_info(np, kernels),
    }
    if tracer is not None:
        facts["layers"] = tracer.metrics()
        facts["run_self_sum_s"] = tracer.run_self_sum
    print(json.dumps(facts))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
