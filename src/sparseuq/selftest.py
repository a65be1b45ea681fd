"""Fast built-in consistency checks behind ``sparseuq selftest``.

A small, dependency-free subset of the test suite: enough to tell a
broken installation from a working one in about a second.  Checks go
through _require rather than assert, so they also run under python -O.
"""

import math

import numpy as np

from .adaptive import AdaptiveConfig, run_strategy
from .estimators import NormSpec, _euclidean_lp_norm
from .fem import DiffusionProblem, SpatialDiscretization, build_problem, check_ellipticity
from .interp import SparseInterpolant
from .multiindex import MonotoneIndexSet
from .nodes import get_family


def _require(ok, *detail):
    """Raise AssertionError, with detail as its message, unless ok."""
    if not ok:
        raise AssertionError(*detail)


def _check_nodes():
    first = get_family("leja").nodes(5)
    ref = [-1.0, 1.0, 0.0, -0.57735, 0.65871]
    _require(np.allclose(first, ref, atol=1e-4), first)
    r = get_family("rleja").nodes(5)
    _require(np.allclose(r, [1.0, -1.0, 0.0, math.sqrt(2) / 2, -math.sqrt(2) / 2], atol=1e-12), r)
    cc = get_family("clenshaw_curtis").nodes(5)
    _require(np.allclose(sorted(cc), [-1.0, -math.sqrt(2) / 2, 0.0, math.sqrt(2) / 2, 1.0]), cc)


def _check_multiindex():
    # the 2x2 square: its margin is the four indices one step outside it,
    # and only the two on the axes have every backward neighbour inside
    s = MonotoneIndexSet(2)
    for k in [(0, 0), (1, 0), (0, 1), (1, 1)]:
        s.add(k)
    _require(s.margin() == [(0, 2), (1, 2), (2, 0), (2, 1)], s.margin())
    _require(s.reduced_margin() == [(0, 2), (2, 0)], s.reduced_margin())
    _require(s.monotone_envelope((2, 1)) == [(2, 0), (2, 1)])


def _add(P, k, f):
    """Add index k to P with f's values at k's fresh points."""
    P.add_index(k, values=[f(y) for y in P.coords_of(P.new_point_indices(k))])


def _check_interpolation():
    P = SparseInterpolant("leja", 2)
    f = lambda y: np.array([1.0 + y[0] + 0.5 * y[0] * y[1]])
    for k in [(0, 0), (1, 0), (0, 1), (1, 1)]:
        _add(P, k, f)
    Y = np.array([[0.3, -0.7], [-0.2, 0.9], [0.0, 0.0]])
    want = np.array([[f(y)[0]] for y in Y])
    _require(np.allclose(P.evaluate(Y), want, atol=1e-12))
    # at a Clenshaw-Curtis candidate's fresh points the blocks below it
    # give the full evaluation: the rows of (0, 1) and (1, 1) weigh zero
    P = SparseInterpolant("clenshaw_curtis", 2)
    for k in [(0, 0), (1, 0), (0, 1), (1, 1)]:
        _add(P, k, f)
    k = (2, 0)
    full = P.evaluate(P.coords_of(P.new_point_indices(k)))
    _require(np.max(np.abs(P.value_below(k) - full)) <= 1e-14 * np.max(np.abs(full)))
    # the detail at the top of the 2x2 square, from that block's rows
    # alone: for Leja, y0*y1 has one surplus of 4 at node (1, 1) times the
    # hats (y + 1) / 2; for Clenshaw-Curtis, y0^2 y1^2 vanishes on the
    # axes through the level-0 node 0, so the detail is the function itself
    cases = [
        ("leja", lambda y: y[0] * y[1], (Y[:, 0] + 1) * (Y[:, 1] + 1)),
        ("clenshaw_curtis", lambda y: (y[0] * y[1]) ** 2, (Y[:, 0] * Y[:, 1]) ** 2),
    ]
    for kind, g, want in cases:
        P = SparseInterpolant(kind, 2)
        for k in [(0, 0), (1, 0), (0, 1), (1, 1)]:
            _add(P, k, lambda y: np.array([g(y)]))
        start, _ = P.block_of((1, 1))
        got = P.basis_weights(Y, start=start) @ P.surpluses(start)
        _require(np.allclose(got[:, 0], want, rtol=0, atol=1e-12), kind, got)


def _check_norms():
    # a Leja block on (1, 1) with the one surplus row [3, 4] is the detail
    # [3, 4] (y0 + 1)(y1 + 1) / 4; its norm factorises into ||[3, 4]|| = 5
    # times the 1-D norms of (y + 1) / 2: 1/sqrt(3) at p = 2, 1 at p = inf
    row = np.array([[3.0, 4.0]])
    got = _euclidean_lp_norm("leja", (1, 1), row, NormSpec(p=2))
    _require(abs(got - 5.0 / 3.0) < 1e-14, got)
    got = _euclidean_lp_norm("leja", (1, 1), row, NormSpec(p="inf"))
    _require(abs(got - 5.0) < 1e-14, got)
    # a Clenshaw-Curtis block on (1,) with surplus rows [[1], [1]] is
    # h_1 + h_2 = y^2, measured through the Gram matrix of level 1's
    # fresh basis: its p = 2 norm is sqrt(1/5)
    got = _euclidean_lp_norm("clenshaw_curtis", (1,), np.ones((2, 1)), NormSpec(p=2))
    _require(abs(got - 1.0 / math.sqrt(5.0)) < 1e-14, got)
    # at p = inf the sample grid holds the corners, where y^2 and, on (1, 1)
    # with four unit rows, y0^2 y1^2 peak at 1
    for index in [(1,), (1, 1)]:
        rows = np.ones((2 ** len(index), 1))
        got = _euclidean_lp_norm("clenshaw_curtis", index, rows, NormSpec(p="inf"))
        _require(abs(got - 1.0) < 1e-14, index, got)


def _check_fem():
    prob = DiffusionProblem(1, lambda x: np.full_like(x, 2.0), [lambda x: np.zeros_like(x)], lambda x: np.ones_like(x))
    disc = SpatialDiscretization(prob, 64)
    info = check_ellipticity(prob, disc)
    _require(abs(info["a_min"] - 2.0) < 1e-12)
    u = disc.solve_at(np.array([0.0]))
    x = disc.nodes
    _require(np.max(np.abs(u - x * (1 - x) / 4.0)) < 1e-12)
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
        _require(np.max(np.abs(u[1:-1] - want)) < 1e-11 * np.max(np.abs(want)))


def _check_adaptive():
    prob = build_problem({"family": "constant", "M": 1, "a0": 1.0, "amps": [0.0]})
    disc = SpatialDiscretization(prob, 32)
    cfg = AdaptiveConfig(strategy="gn_envelope", tol=1e-10, max_iter=5, reference_every=0)
    trace = run_strategy(prob, disc, cfg)
    _require(len(trace.rows) == 1 and trace.rows[0].total_estimator == 0.0)


CHECKS = [
    ("node families", _check_nodes),
    ("monotone sets", _check_multiindex),
    ("sparse interpolation", _check_interpolation),
    ("parametric norms", _check_norms),
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
