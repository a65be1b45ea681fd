"""Fast built-in consistency checks behind ``sparseuq selftest``.

A small, dependency-free subset of the test suite: enough to tell a
broken installation from a working one in about a second.
"""

import math

import numpy as np

from .adaptive import AdaptiveConfig, run_strategy
from .fem import DiffusionProblem, SpatialDiscretization, build_problem, check_ellipticity
from .interp import HierarchicalBlock, SparseInterpolant, detail_apply_ct
from .multiindex import MonotoneIndexSet, is_monotone, margin, reduced_margin
from .nodes import clenshaw_curtis_nodes, leja_nodes, rleja_nodes


def _check_nodes():
    first = leja_nodes(5)
    ref = [-1.0, 1.0, 0.0, -0.57735, 0.65871]
    assert np.allclose(first, ref, atol=1e-4), first
    r = rleja_nodes(5)
    assert np.allclose(r, [1.0, -1.0, 0.0, math.sqrt(2) / 2, -math.sqrt(2) / 2], atol=1e-12), r
    cc = clenshaw_curtis_nodes(2)
    assert np.allclose(sorted(cc), [-1.0, -math.sqrt(2) / 2, 0.0, math.sqrt(2) / 2, 1.0]), cc


def _check_multiindex():
    s = MonotoneIndexSet(2)
    for k in [(0, 0), (1, 0), (0, 1), (1, 1)]:
        s.add(k)
    assert is_monotone(s.members_sorted())
    assert set(s.margin()) == margin(s.members_sorted())
    assert set(s.reduced_margin()) == reduced_margin(s.members_sorted())


def _check_interpolation():
    P = SparseInterpolant("leja", 2)
    f = lambda y: np.array([1.0 + y[0] + 0.5 * y[0] * y[1]])
    for k in [(0, 0), (1, 0), (0, 1), (1, 1)]:
        P.add_index(k, f)
    Y = np.array([[0.3, -0.7], [-0.2, 0.9], [0.0, 0.0]])
    want = np.array([[f(y)[0]] for y in Y])
    assert np.allclose(P.evaluate(Y), want, atol=1e-12)
    # detail of y0*y1 at the top of the 2x2 rectangle: one surplus of 4
    # at node (1, 1) times the two hat values 0.7 and 0.8
    d = detail_apply_ct("leja", (1, 1), lambda y: np.array([y[0] * y[1]]))
    assert abs(d.evaluate(np.array([[0.4, 0.6]]))[0, 0] - 2.24) < 1e-12
    # the estimators' hierarchical detail agrees with the combination technique
    g = lambda y: np.array([math.exp(y[0]) * math.cos(y[1])])
    ct = detail_apply_ct("clenshaw_curtis", (2, 1), g)
    blk = HierarchicalBlock.from_level_grid("clenshaw_curtis", (2, 1), ct.values)
    assert np.allclose(blk.evaluate(Y), ct.evaluate(Y), atol=1e-12)


def _check_fem():
    prob = DiffusionProblem(1, lambda x: np.full_like(x, 2.0), [lambda x: np.zeros_like(x)], lambda x: np.ones_like(x))
    disc = SpatialDiscretization(prob, 64)
    info = check_ellipticity(prob, disc)
    assert abs(info["a_min"] - 2.0) < 1e-12
    u = disc.solve_at(np.array([0.0]))
    x = disc.nodes
    assert np.max(np.abs(u - x * (1 - x) / 4.0)) < 1e-12
    # a batch of solves against the dense assembled stiffness, on a
    # random coefficient that stays positive (amplitudes sum below a0)
    rng = np.random.default_rng(0)
    prob = build_problem({"family": "cosine", "M": 2, "a0": 2.0, "amps": rng.uniform(0.1, 0.9, 2)})
    disc = SpatialDiscretization(prob, 48)
    Y = rng.uniform(-1.0, 1.0, size=(3, 2))
    U = disc.solve_at(Y)
    for y, u in zip(Y, U):
        c = disc.coefficient_at(y) / disc.h
        K = np.diag(c[:-1] + c[1:]) - np.diag(c[1:-1], 1) - np.diag(c[1:-1], -1)
        want = np.linalg.solve(K, disc.load)
        assert np.max(np.abs(u[1:-1] - want)) < 1e-11 * np.max(np.abs(want))


def _check_adaptive():
    prob = build_problem({"family": "constant", "M": 1, "a0": 1.0, "amps": [0.0]})
    disc = SpatialDiscretization(prob, 32)
    cfg = AdaptiveConfig(strategy="gn_envelope", tol=1e-10, max_iter=5, reference_every=0)
    trace = run_strategy(prob, disc, cfg)
    assert len(trace.rows) == 1 and trace.rows[0].total_estimator == 0.0


CHECKS = [
    ("node families", _check_nodes),
    ("monotone sets", _check_multiindex),
    ("sparse interpolation", _check_interpolation),
    ("finite elements", _check_fem),
    ("adaptive loop", _check_adaptive),
]


def run():
    failed = 0
    for name, fn in CHECKS:
        try:
            fn()
        except Exception as exc:
            print("FAIL: %s: %s" % (name, exc))
            failed += 1
        else:
            print("ok: %s" % name)
    if failed:
        print("%d of %d checks failed" % (failed, len(CHECKS)))
        return 1
    print("all %d checks passed" % len(CHECKS))
    return 0
