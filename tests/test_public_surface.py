"""Names that code outside the package reaches into: the benchmark's
tracer wraps callables by module and attribute name, its repetition
script reads two more, and `sparseuq.__all__` lists the public API.
A rename or deletion that breaks them fails here, not in a traced run."""

import importlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import sparseuq
from sparseuq import kernels
from sparseuq.interp import SparseInterpolant
from sparseuq.multiindex import MonotoneIndexSet
from sparseuq.nodes import NodeFamily

from oracles import add_evaluated

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    if not TRACER.is_file():
        pytest.skip("perfbench/ is not part of this checkout")
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_targets_resolve(tracer):
    # resolved exactly as Tracer.install resolves them
    for name, modname, attr in tracer.TARGETS:
        owner = importlib.import_module("sparseuq." + modname)
        if "." in attr:
            cls_name, meth = attr.split(".")
            assert callable(vars(getattr(owner, cls_name))[meth]), name
        else:
            assert callable(getattr(owner, attr)), name


def test_benchmark_names_exist(tracer):
    from sparseuq import cli

    # perfbench/rep.py reads both
    assert hasattr(kernels, "USE_NUMBA")
    assert callable(cli.run_strategy)


def test_public_names_exist():
    missing = [name for name in sparseuq.__all__ if not hasattr(sparseuq, name)]
    assert missing == []


def test_public_names_are_pinned():
    # adding or removing a public name changes this list
    assert sparseuq.__all__ == [
        "AdaptiveConfig",
        "AdaptiveTrace",
        "DiffusionProblem",
        "EllipticityError",
        "MonotoneIndexSet",
        "NormSpec",
        "SolveCache",
        "SparseInterpolant",
        "SpatialDiscretization",
        "build_problem",
        "check_ellipticity",
        "get_family",
        "grid_points",
        "growth",
        "growth_inverse",
        "profit",
        "reference_error",
        "residual_estimator",
        "surplus_indicator",
        "work",
    ]


def public_methods(cls):
    return sorted(name for name in dir(cls) if not name.startswith("_"))


def test_public_methods_are_pinned():
    # a method or property added to or removed from these classes changes
    # its list, so one that only tests call shows up in the test diff
    assert public_methods(SparseInterpolant) == [
        "add_index",
        "basis_weights",
        "block_of",
        "coords_of",
        "evaluate",
        "from_jsonable",
        "n_points",
        "new_point_indices",
        "node_indices",
        "point_records",
        "surpluses",
        "to_jsonable",
        "value_below",
    ]
    assert public_methods(MonotoneIndexSet) == [
        "add",
        "from_jsonable",
        "is_admissible",
        "margin",
        "monotone_envelope",
        "reduced_margin",
        "to_jsonable",
    ]
    assert public_methods(NodeFamily) == [
        "basis_matrix",
        "ensure_nodes",
        "lagrange_matrix",
        "nodes",
    ]


def test_weight_product_counters_see_real_shapes(tracer, monkeypatch):
    # the tracer counts flops from the (P, T) table and (N, M) ids that
    # basis_weights passes, whatever memory layout the table has
    t = tracer.Tracer()
    name = "kernels.weight_product"
    monkeypatch.setattr(kernels, "weight_product", t.wrap(name, kernels.weight_product))
    P = SparseInterpolant("clenshaw_curtis", 3)
    s = MonotoneIndexSet(3, [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 2, 0), (0, 0, 1)])
    for i in s:
        add_evaluated(P, i, lambda y: np.array([y.sum()]))
    t.counters.clear()
    Y = np.random.default_rng(0).uniform(-1, 1, size=(11, 3))
    W = P.basis_weights(Y)
    assert W.shape == (11, P.n_points)
    assert t.counters[name + ".flops_computed"] == 11 * P.n_points * (3 - 1)


# the spans each strategy's loop must open when the tracer is installed
LOOP_SPANS = {
    "gn_envelope": ("estimators.margin_report", "estimators.residual_estimator"),
    "gn_profit": (
        "estimators.margin_report",
        "estimators.residual_estimator",
        "estimators.profit",
    ),
    "gg": ("estimators.reduced_margin_report", "estimators.surplus_indicator"),
}

# runs in a fresh interpreter, so the bindings the tracer replaces never
# leak into this one
_SPAN_RUN = """
import importlib.util, json, sys
sys.path.insert(0, sys.argv[2])
spec = importlib.util.spec_from_file_location("perfbench_tracer", sys.argv[1])
tracer = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracer)
from sparseuq import adaptive, cli, estimators, fem, interp, kernels, multiindex, nodes
t = tracer.Tracer()
t.install([adaptive, cli, estimators, fem, interp, kernels, multiindex, nodes])
problem = fem.build_problem({"family": "cosine", "M": 2, "a0": 2.0})
disc = fem.SpatialDiscretization(problem, 32)
out = {}
for strategy in adaptive.STRATEGIES:
    before = {name: rec[0] for name, rec in t.sums.items()}
    cfg = adaptive.AdaptiveConfig(strategy=strategy, tol=1e-3, reference_every=1)
    trace = adaptive.run_strategy(problem, disc, cfg)
    calls = {name: rec[0] - before[name] for name, rec in t.sums.items()}
    out[strategy] = {"rows": len(trace.rows), "calls": calls}
print(json.dumps(out))
"""


def test_loop_spans_fire(tracer):
    # a call that bypasses a module binding the tracer wraps leaves its
    # span at zero calls
    src = Path(sparseuq.__file__).resolve().parent.parent
    done = subprocess.run(
        [sys.executable, "-c", _SPAN_RUN, str(TRACER), str(src)],
        capture_output=True,
        text=True,
        check=True,
    )
    runs = json.loads(done.stdout)
    assert set(runs) == set(LOOP_SPANS)
    for strategy, run in runs.items():
        assert run["rows"] > 2, strategy
        need = (tracer.RUN, tracer.EXTEND, "estimators.reference_error")
        for name in need + LOOP_SPANS[strategy]:
            assert run["calls"][name] > 0, (strategy, name)
