"""End-to-end acceptance checks, one test per shipped guarantee.

Each test is timed against its stated budget and prints a one-line
verdict with the measured quantities.  Shared expensive runs (the
default two-parameter problem at the certified tolerance) are module
fixtures so convergence, cost comparison, and reliability reuse them.
"""

import itertools
import math
import time

import numpy as np
import pytest

from sparseuq.adaptive import AdaptiveConfig, run_strategy
from sparseuq.estimators import NormSpec, fresh_solves, residual_estimator
from sparseuq.fem import SolveCache, SpatialDiscretization, build_problem
from sparseuq.interp import SparseInterpolant, TensorDetail
from sparseuq.multiindex import MonotoneIndexSet
from sparseuq.nodes import growth, leja_nodes

from oracles import (
    HierarchicalBlock,
    detail_apply_ct,
    detail_sup_norm,
    grid_coords,
    lebesgue_constant,
    tensor_interpolant,
)


def default_problem(dim):
    return build_problem({"family": "cosine", "M": dim, "a0": 2.0})


@pytest.fixture(scope="module")
def m2_setup():
    problem = default_problem(2)
    return problem, SpatialDiscretization(problem, 256)


@pytest.fixture(scope="module")
def gn_m2(m2_setup):
    """Certified envelope-marking run on the 2-parameter default."""
    problem, disc = m2_setup
    t0 = time.perf_counter()
    cfg = AdaptiveConfig(
        strategy="gn_envelope", tol=1e-8, max_iter=200, reference_every=1, reference_quad=20
    )
    trace = run_strategy(problem, disc, cfg)
    return trace, time.perf_counter() - t0


def test_criterion_01_leja_first_points_and_greedy_scan():
    t0 = time.perf_counter()
    pts = leja_nodes(13)
    want = [-1.0, 1.0, 0.0, -0.57735, 0.65871]
    assert np.allclose(pts[:5], want, atol=1e-4)
    # brute-force scan: each next point must maximize the product of
    # distances to its predecessors, up to 1e-10 in the log objective
    grid = np.linspace(-1.0, 1.0, 1_000_001)
    for k in range(1, 13):
        prev = pts[:k]
        best = -np.inf
        for lo in range(0, grid.size, 200_000):
            chunk = grid[lo : lo + 200_000]
            with np.errstate(divide="ignore"):
                vals = np.log(np.abs(chunk[:, None] - prev[None, :])).sum(axis=1)
            best = max(best, float(vals.max()))
        with np.errstate(divide="ignore"):
            ours = float(np.log(np.abs(pts[k] - prev)).sum())
        assert ours >= best - 1e-10
    dt = time.perf_counter() - t0
    assert dt < 5.0
    print("PASS 01 leja first points + greedy scan agree (%.2fs)" % dt)


def test_criterion_02_lebesgue_growth_bounds():
    t0 = time.perf_counter()
    ratios = []
    for k in range(2, 31):
        lam = lebesgue_constant("leja", k)
        assert lam <= 5.0 * k * k * math.log(k)
        ratios.append(lam / (5.0 * k * k * math.log(k)))
    for k in range(1, 31):
        assert lebesgue_constant("rleja", k) <= 2.0 * k
    for k in range(1, 7):
        bound = 1.0 + (2.0 * math.log(2.0) / math.pi) * k
        assert lebesgue_constant("clenshaw_curtis", k) <= bound
    dt = time.perf_counter() - t0
    assert dt < 10.0
    print(
        "PASS 02 interpolation norm bounds hold (worst leja ratio %.3f, %.2fs)"
        % (max(ratios), dt)
    )


def _random_capped_set(rng, dim, target, cap):
    s = MonotoneIndexSet(dim)
    s.add((0,) * dim)
    while len(s) < target:
        cands = [k for k in s.reduced_margin() if max(k) <= cap]
        if not cands:
            break
        s.add(cands[rng.integers(len(cands))])
    return s


def test_criterion_03_interpolatory_and_monomial_exact():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2003)
    checked = 0
    for trial in range(200):
        kind = "leja" if trial % 2 == 0 else "clenshaw_curtis"
        dim = 1 + trial % 3
        cap = 29 if kind == "leja" else 6
        s = _random_capped_set(rng, dim, int(rng.integers(1, 31)), cap)
        boxes = set()
        for i in s:
            boxes.update(
                itertools.product(*[range(growth(kind, im) + 1) for im in i])
            )
        expts = np.array(sorted(boxes))
        smooth = lambda y: math.exp(0.3 * float(np.sum(y)))
        f = lambda y: np.append(np.prod(np.asarray(y) ** expts, axis=1), smooth(y))
        P = SparseInterpolant(kind, dim)
        for i in s.members_sorted():
            P.add_index(i, f)
        grid = grid_coords(P)
        want = np.vstack([f(y) for y in grid])
        scale = max(1.0, float(np.max(np.abs(want))))
        assert np.max(np.abs(P.evaluate(grid) - want)) <= 1e-10 * scale
        Y = rng.uniform(-1, 1, size=(100, dim))
        wantY = np.vstack([f(y) for y in Y])
        # monomial columns must be matched everywhere, not just on grid
        assert np.max(np.abs(P.evaluate(Y)[:, :-1] - wantY[:, :-1])) <= 1e-10
        checked += 1
    dt = time.perf_counter() - t0
    assert checked == 200
    assert dt < 30.0
    print("PASS 03 interpolatory + monomial exactness on 200 sets (%.2fs)" % dt)


def test_criterion_04_telescoping_and_detail_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2004)
    f = lambda y: np.array([math.exp(0.6 * y[0]) * math.cos(1.3 * y[1] + 0.2)])
    Y = rng.uniform(-1, 1, size=(50, 2))
    for kind in ("leja", "clenshaw_curtis"):
        box = MonotoneIndexSet(2, list(itertools.product(range(5), range(5))))
        P = SparseInterpolant(kind, 2)
        for i in box.members_sorted():
            P.add_index(i, f)
        T = tensor_interpolant(kind, (4, 4), f)
        assert np.max(np.abs(P.evaluate(Y) - T.evaluate(Y))) <= 1e-10
        for i in box:
            det = detail_apply_ct(kind, i, f)
            start, count = P.block_of(i)
            blk = HierarchicalBlock(kind, i, P.surpluses()[start : start + count])
            assert np.max(np.abs(det.evaluate(Y) - blk.evaluate(Y))) <= 1e-10
    dt = time.perf_counter() - t0
    assert dt < 10.0
    print("PASS 04 telescoping + both detail views agree (%.2fs)" % dt)


def _detail_sup_2d(kind, i, samples=200):
    n1, n2 = growth(kind, i[0]) + 1, growth(kind, i[1]) + 1
    eye = np.eye(n1 * n2).reshape(n1, n2, n1 * n2)
    det = TensorDetail(kind, i, eye)
    ys = np.linspace(-1.0, 1.0, samples)
    return float(np.abs(det.evaluate_grid([ys, ys])).sum(axis=1).max())


def test_criterion_05_detail_norm_tensorization():
    t0 = time.perf_counter()
    worst = 0.0
    for i1 in range(5):
        for i2 in range(5):
            est = _detail_sup_2d("leja", (i1, i2))
            prod = detail_sup_norm("leja", i1) * detail_sup_norm("leja", i2)
            worst = max(worst, abs(est / prod - 1.0))
    assert worst <= 0.02
    dt = time.perf_counter() - t0
    assert dt < 20.0
    print("PASS 05 detail norms tensorize (worst gap %.4f, %.2fs)" % (worst, dt))


def test_criterion_06_estimator_reliability(gn_m2):
    cases = [
        (1, 2, 1e-8),
        (1, "inf", 1e-8),
        (2, 2, None),
        (2, "inf", 1e-6),
        (3, 2, 3e-5),
        (3, "inf", 1e-4),
    ]
    mins = []
    for dim, p, tol in cases:
        t0 = time.perf_counter()
        if tol is None:
            trace, _ = gn_m2
        else:
            problem = default_problem(dim)
            disc = SpatialDiscretization(problem, 256)
            cfg = AdaptiveConfig(
                strategy="gn_envelope",
                tol=tol,
                norm=NormSpec(p=p),
                reference_every=1,
                reference_quad=20,
            )
            trace = run_strategy(problem, disc, cfg)
        dt = time.perf_counter() - t0
        effs = [r.effectivity for r in trace.rows if r.effectivity is not None]
        assert effs, "no reference errors recorded"
        assert min(effs) >= 1.0
        mins.append((dim, p, min(effs)))
        assert dt < 180.0
    print(
        "PASS 06 reliability, min effectivity per (M,p): "
        + ", ".join("(%d,%s)=%.3f" % t for t in mins)
    )


def test_criterion_07_envelope_convergence(m2_setup, gn_m2):
    _, disc = m2_setup
    trace, dt = gn_m2
    assert trace.stop_reason == "tol"
    assert trace.rows[-1].n <= 200
    assert trace.rows[-1].total_estimator <= 1e-8
    terminal = trace.rows[-1].reference_error
    assert terminal < 1e-8 / trace.a_min
    assert dt < 120.0
    print(
        "PASS 07 certified stop: total %.3e, reference %.3e after %d steps (%.1fs)"
        % (trace.rows[-1].total_estimator, terminal, trace.rows[-1].n, dt)
    )


def test_criterion_08_surplus_convergence_and_cost(m2_setup, gn_m2):
    problem, disc = m2_setup
    gn_trace, _ = gn_m2
    t0 = time.perf_counter()
    cfg = AdaptiveConfig(
        strategy="gg", tol=1e-8, max_iter=200, reference_every=1, reference_quad=20
    )
    gg_trace = run_strategy(problem, disc, cfg)
    dt = time.perf_counter() - t0
    assert gg_trace.stop_reason == "tol"
    stop_row = gg_trace.rows[-2]
    assert stop_row.total_estimator <= 1e-8
    assert gg_trace.post_augmentation_error < 1e-6
    assert gn_trace.rows[-1].n_solves <= gg_trace.rows[-1].n_solves
    assert dt < 180.0
    print(
        "PASS 08 surplus-driven stop: sum %.3e, reference %.3e, solves %d vs %d (%.1fs)"
        % (
            stop_row.total_estimator,
            gg_trace.post_augmentation_error,
            gn_trace.rows[-1].n_solves,
            gg_trace.rows[-1].n_solves,
            dt,
        )
    )


def test_criterion_09_estimator_annihilation():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2009)
    spec = NormSpec(p=2)
    cases = 0

    def first_killing_level(kind, degree):
        k = 1
        while growth(kind, k - 1) < degree:
            k += 1
        return k

    def run_cases(problem, disc, kind, chain_sets, per_set):
        nonlocal cases
        cache = SolveCache(disc)
        for s in chain_sets:
            P = SparseInterpolant(kind, problem.dim)
            for i in s.members_sorted():
                P.add_index(i, values=fresh_solves(P, cache, i))
            degs = [
                max(growth(kind, i[m]) for i in P.indexset) + 1
                for m in range(P.dim)
            ]
            for _ in range(per_set):
                m = int(rng.integers(P.dim))
                k = [int(rng.integers(0, 3)) for _ in range(P.dim)]
                k[m] = first_killing_level(kind, degs[m]) + int(rng.integers(0, 2))
                k = tuple(k)
                if k in P.indexset:
                    continue
                eta = residual_estimator(P, disc, k, spec)
                assert eta <= 1e-12, "expected exact zero for %r, got %g" % (k, eta)
                cases += 1

    p1 = default_problem(1)
    d1 = SpatialDiscretization(p1, 64)
    chains = [MonotoneIndexSet(1, [(j,) for j in range(L)]) for L in (1, 2, 3)]
    run_cases(p1, d1, "leja", chains, 5)
    run_cases(p1, d1, "clenshaw_curtis", chains[:2], 5)
    p2 = default_problem(2)
    d2 = SpatialDiscretization(p2, 64)
    sets2 = [_random_capped_set(rng, 2, 6, 3) for _ in range(5)]
    run_cases(p2, d2, "leja", sets2, 4)
    run_cases(p2, d2, "clenshaw_curtis", sets2[:2], 4)
    dt = time.perf_counter() - t0
    assert cases >= 50
    assert dt < 10.0
    print("PASS 09 flux details vanish on %d constructed cases (%.2fs)" % (cases, dt))
