"""Estimator layer: parametric norms, residual and surplus indicators
against closed forms, profit weighting, reference errors."""

import functools
import itertools
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparseuq import estimators, kernels
from sparseuq.adaptive import AdaptiveConfig, run_strategy
from sparseuq.estimators import (
    _ROW_BLOCK,
    MarginState,
    NormSpec,
    _euclidean_lp_norm,
    _row_blocks,
    combine_axes,
    fresh_solves,
    gauss_axis,
    margin_report,
    profit,
    reduced_margin_report,
    reference_error,
    residual_estimator,
    sup_points_per_dim,
    surplus_indicator,
)
from sparseuq.fem import (
    DiffusionProblem,
    EllipticityError,
    SolveCache,
    SpatialDiscretization,
    build_problem,
)
from sparseuq.interp import (
    SparseInterpolant,
    TensorDetail,
    TensorPoly,
    _fresh_table,
    fresh_ranges,
    work,
)
from sparseuq.multiindex import MonotoneIndexSet
from sparseuq.nodes import growth

from oracles import (
    HierarchicalBlock,
    drop_stale,
    h1_rows,
    l2_element_rows,
    leading_part,
    monte_carlo_error,
    point_grid,
    random_monotone,
    tensor_values,
)


def const(c):
    return lambda x: np.full_like(np.asarray(x, dtype=np.float64), float(c))


def affine_problem():
    """a(x, y) = 2 + y, f = 1: u(y) = x(1-x)/(2(2+y)) at the nodes."""
    return DiffusionProblem(1, const(2.0), [const(1.0)], const(1.0))


def build_chain(disc, levels, kind="leja"):
    """1-D interpolant over levels 0..levels-1 fed by cached solves."""
    cache = SolveCache(disc)
    P = SparseInterpolant(kind, 1)
    for k in range(levels):
        P.add_index((k,), values=fresh_solves(P, cache, (k,)))
    return P, cache


# -- norm settings ----------------------------------------------------------


def test_norm_spec_parsing():
    assert NormSpec(p="sup").p == math.inf
    for p in (2, 2.0, "2", "inf", math.inf):
        assert NormSpec(p=p).p == (math.inf if p in ("inf", math.inf) else 2.0), p
    # only p = 2 and p = inf are measured exactly or by a sample maximum
    for p in (0.5, 1, 1.5, 3, 4, 2.0000001):
        with pytest.raises(ValueError, match="norm.p must be 2 or inf"):
            NormSpec(p=p)
    assert NormSpec.from_config("inf").p == math.inf
    assert NormSpec.from_config({"p": 2, "sup_budget": 8}).sup_budget == 8
    assert NormSpec.from_config(None).p == 2.0
    d = NormSpec(p=math.inf).describe()
    assert d["p"] == "inf"
    assert NormSpec.from_config(d).describe() == d


def test_norm_spec_rejects_unknown_keys_and_bad_ranges():
    with pytest.raises(ValueError, match=r"unknown keys norm\.P$"):
        NormSpec.from_config({"P": "inf"})
    with pytest.raises(ValueError, match=r"unknown keys norm\.quad_order$"):
        NormSpec.from_config({"quad_order": 12})
    with pytest.raises(ValueError, match="sup_points_per_dim >= 2"):
        NormSpec(p="inf", sup_points_per_dim=1)
    with pytest.raises(ValueError, match="sup_budget >= 2"):
        NormSpec(p="inf", sup_budget=1)
    assert NormSpec(p="inf", sup_points_per_dim=2).sup_points_per_dim == 2


def test_gauss_axis_uniform_measure():
    x, w = gauss_axis(6)
    assert w.sum() == pytest.approx(1.0, abs=1e-14)
    assert (w @ x**2) == pytest.approx(1.0 / 3.0, abs=1e-14)
    assert (w @ x**4) == pytest.approx(1.0 / 5.0, abs=1e-14)


def test_gauss_axis_matches_leggauss():
    # leggauss's own steps, so the same bits with this NumPy; 2 ulp leaves
    # room for another NumPy's eigensolver
    for order in list(range(1, 301)) + [1025]:
        x, w = gauss_axis(order)
        x0, w0 = np.polynomial.legendre.leggauss(order)
        assert x.shape == w.shape == (order,)
        assert np.all(np.abs(x - x0) <= 2 * np.spacing(np.abs(x0))), order
        assert np.all(np.abs(w - w0 / 2.0) <= 2 * np.spacing(w0 / 2.0)), order
    with pytest.raises(ValueError, match="at least 1"):
        gauss_axis(0)


def test_p2_run_leaves_numpy_polynomial_unloaded():
    # a p = 2 run with a reference error loads no numpy.polynomial module
    # that importing the package did not
    code = (
        "import sys\n"
        "from sparseuq import adaptive, fem\n"
        "before = set(sys.modules)\n"
        "p = fem.build_problem({'family': 'cosine', 'M': 2})\n"
        "cfg = adaptive.AdaptiveConfig(strategy='gn_profit', tol=1e-3, reference_every=1)\n"
        "adaptive.run_strategy(p, fem.SpatialDiscretization(p, 16), cfg)\n"
        "print(sorted(m for m in set(sys.modules) - before if m.startswith('numpy.polynomial')))\n"
    )
    src = str(Path(estimators.__file__).resolve().parent.parent)
    done = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert done.stdout.strip() == "[]"


def test_sup_grid_budget():
    spec = NormSpec(p="inf")
    assert sup_points_per_dim(spec, 1) == 33
    assert sup_points_per_dim(spec, 3) == 33
    assert sup_points_per_dim(spec, 4) == 14
    assert sup_points_per_dim(spec, 7) == 4
    # exact powers fit, though their float roots fall just below the integer
    for budget, dim, per in ((1000, 3, 10), (125, 3, 5), (4096, 6, 4), (8000, 3, 20)):
        assert sup_points_per_dim(NormSpec(p="inf", sup_budget=budget), dim) == per
    # fewer than 4 points per axis are refused (see the test below); they
    # were once kept down to 2
    for over, dim, per in (({"sup_budget": 10}, 3, 2), ({}, 8, 3), ({}, 10, 2)):
        with pytest.raises(ValueError, match="at M=%d has %d points per axis" % (dim, per)):
            sup_points_per_dim(NormSpec(p="inf", **over), dim)


@pytest.mark.parametrize("kind", ["leja", "rleja", "clenshaw_curtis"])
def test_sample_grids_below_4_points_read_basis_functions_as_zero(kind):
    # 2 or 3 equispaced points lie in {-1, 0, 1}, the first three nodes of
    # every family, so a fresh basis function of a higher level vanishes on
    # all of them: at M = 10 a Leja run once stopped "on tol" with 2,788 of
    # its 3,068 final estimates exactly 0
    levels = range(1, 9 if kind == "clenshaw_curtis" else 40)

    def zero_columns(n):
        return [
            level
            for level in levels
            if (np.abs(estimators._axis_table(kind, level, n)).max(axis=0) == 0.0).any()
        ]

    for n in (2, 3):
        assert zero_columns(n)
        with pytest.raises(ValueError, match="at M=1 has %d points per axis" % n):
            sup_points_per_dim(NormSpec(p="inf", sup_points_per_dim=n), 1)
    for n in (4, 5, 8, 14, 33):
        assert zero_columns(n) == []
        assert sup_points_per_dim(NormSpec(p="inf", sup_points_per_dim=n), 1) == n


def sample_axes(spec, dim):
    """The estimators' p = inf sample grid: dim equal axes, weights None."""
    return [(np.linspace(-1.0, 1.0, sup_points_per_dim(spec, dim)), None)] * dim


def test_combine_axes_values():
    axes = [gauss_axis(3)] * 2
    n0 = len(axes[0][0])
    norms = np.ones(n0 * n0)
    assert combine_axes(norms, axes, 2.0) == pytest.approx(1.0, abs=1e-14)
    assert combine_axes(norms, axes, math.inf) == 1.0


# -- parametric norms -------------------------------------------------------


def test_parametric_norm_linear_scalar():
    # the Leja level-1 detail of y is y + 1: one surplus 2 on (1,)
    row = np.array([[2.0]])
    assert _euclidean_lp_norm("leja", (1,), row, NormSpec(p=2)) == pytest.approx(
        math.sqrt(4.0 / 3.0), rel=1e-14
    )
    assert _euclidean_lp_norm("leja", (1,), row, NormSpec(p="inf")) == 2.0


def test_parametric_norm_spatial_dispatch():
    # rows scaled as the estimators scale them make the Euclidean row
    # norm the spatial norm: nodal differences over sqrt(h) give H1_0,
    # element data times sqrt(h) gives L2
    disc = SpatialDiscretization(affine_problem(), 64)
    x = disc.nodes
    prof = x * (1 - x)
    grad = disc.gradient_rows(prof)
    spec = NormSpec(p=2)
    h1 = 2.0 * np.diff(prof)[None, :] / math.sqrt(disc.h)
    want = h1_rows(disc, prof)[0] * math.sqrt(4.0 / 3.0)
    assert _euclidean_lp_norm("leja", (1,), h1, spec) == pytest.approx(want, rel=1e-13)
    l2 = 2.0 * grad * math.sqrt(disc.h)
    want = l2_element_rows(disc, grad)[0] * math.sqrt(4.0 / 3.0)
    assert _euclidean_lp_norm("leja", (1,), l2, spec) == pytest.approx(want, rel=1e-13)
    # the two agree: the H1_0 seminorm is the L2 norm of the gradient
    assert h1_rows(disc, prof)[0] == pytest.approx(l2_element_rows(disc, grad)[0], rel=1e-13)


def grid_lp_norm(kind, index, rows, spec):
    """Grid-expansion oracle: the detail given by the flat surplus rows of
    index's fresh block, on the tensor grid of the norm axes (Gauss order
    m(k_m) + 1 at p = 2, the sample grid at p = inf), row norms, then
    combine_axes.  The tables come from _fresh_table on the axes' points,
    so no memo is shared with the code under test.  The spatial axis is
    first compressed by an SVD when that shrinks it, as _euclidean_lp_norm
    does at p = inf."""
    if rows.shape[0] < rows.shape[1]:
        U, s, _ = np.linalg.svd(rows, full_matrices=False)
        rows = U * s
    ranges = fresh_ranges(kind, index)
    if spec.p == 2.0:
        axes = [gauss_axis(r.stop) for r in ranges]
    else:
        axes = sample_axes(spec, len(ranges))
    T = rows.reshape(tuple(len(r) for r in ranges) + (rows.shape[1],))
    for m, km in enumerate(index):
        T = np.tensordot(_fresh_table(kind, km, axes[m][0]), T, axes=(1, m))
    flat = T.reshape(-1, T.shape[-1])
    norms = np.sqrt(np.einsum("ij,ij->i", flat, flat))
    # the contractions leave the sample axes reversed; combine_axes wants
    # C order
    norms = np.ascontiguousarray(norms.reshape(T.shape[:-1]).transpose()).ravel()
    return combine_axes(norms, axes, spec.p)


@pytest.mark.parametrize("p", [2, "inf"])
@pytest.mark.parametrize("kind", ["leja", "rleja"])
def test_rank_one_norm_matches_grid_expansion(kind, p):
    # one-row blocks are measured as ||c||_2 times a product of 1-D norms;
    # every level 0..6 appears in every dimension count
    rng = np.random.default_rng(83)
    spec = NormSpec(p=p)
    for dim in range(1, 7):
        for shift in range(7):
            index = tuple((shift + 3 * m) % 7 for m in range(dim))
            row = rng.normal(size=(1, 5))
            got = _euclidean_lp_norm(kind, index, row, spec)
            want = grid_lp_norm(kind, index, row, spec)
            assert abs(got - want) <= 1e-13 * want, (dim, index, got, want)


@pytest.mark.parametrize("p", ["inf"])
def test_multi_point_blocks_keep_grid_path(p):
    # Clenshaw-Curtis blocks with more than one fresh point are expanded on
    # the sample grid at p = inf, with and without the SVD compression
    rng = np.random.default_rng(89)
    spec = NormSpec(p=p)
    seen = 0
    for dim in (1, 2, 3):
        for _ in range(5):
            index = tuple(int(v) for v in rng.integers(0, 4, size=dim))
            rows = work("clenshaw_curtis", index)
            if rows == 1:
                continue
            for K in (1, 70):
                block = rng.normal(size=(rows, K))
                got = _euclidean_lp_norm("clenshaw_curtis", index, block, spec)
                assert got == grid_lp_norm("clenshaw_curtis", index, block, spec)
                seen += 1
    assert seen >= 20


@pytest.mark.parametrize("p", [2, "inf"])
def test_level_zero_axes_take_no_mode_product(p, monkeypatch):
    # a level-0 factor is an exact identity (h_0 = 1), so only the axes
    # with k_m > 0 are multiplied; at p = inf each level-0 axis once
    # copied the block onto its samples, so the rows grew like 2^M
    shapes = []
    mode_product = estimators.mode_product

    def counted(A, rows, pre):
        shapes.append(A.shape)
        return mode_product(A, rows, pre)

    monkeypatch.setattr(estimators, "mode_product", counted)
    # M = 8 within a budget of 4 points per axis: 2 points per axis, which
    # the default budget gave at M = 12, are now refused
    spec = NormSpec(p=p, sup_budget=4**8)
    index = (1,) + (0,) * 7
    block = np.random.default_rng(97).normal(size=(work("clenshaw_curtis", index), 3))
    got = _euclidean_lp_norm("clenshaw_curtis", index, block, spec)
    assert len(shapes) == 1
    want = grid_lp_norm("clenshaw_curtis", index, block, spec)
    if spec.p == math.inf:
        assert got == want
    else:
        assert abs(got - want) <= 1e-13 * want


def test_multi_point_p2_norm_matches_grid_expansion():
    # at p = 2 Clenshaw-Curtis blocks with more than one fresh point are
    # measured through the per-level Gram matrices; the grid expansion is
    # the oracle.  Indices are drawn at M = 1..6 with their grid capped at
    # 20,000 points, and at K = 70 blocks come both taller and wider than K
    rng = np.random.default_rng(91)
    spec = NormSpec(p=2)
    seen, taller, wider = 0, 0, 0
    for dim in range(1, 7):
        drawn = 0
        while drawn < 6:
            index = tuple(int(v) for v in rng.integers(0, 5 if dim <= 2 else 4, size=dim))
            rows = work("clenshaw_curtis", index)
            if rows == 1 or math.prod(growth("clenshaw_curtis", k) + 1 for k in index) > 20000:
                continue
            drawn += 1
            for K in (1, 70):
                block = rng.normal(size=(rows, K))
                got = _euclidean_lp_norm("clenshaw_curtis", index, block, spec)
                want = grid_lp_norm("clenshaw_curtis", index, block, spec)
                assert abs(got - want) <= 1e-13 * want, (index, K, got, want)
                seen += 1
                if K == 70:
                    taller += rows > K
                    wider += rows < K
    assert seen == 72 and taller >= 3 and wider >= 3, (taller, wider)


def test_axis_gram_is_exact_shared_and_read_only():
    # Gauss order m(level) + 1 integrates the products of the level's
    # fresh basis exactly: a higher order gives the same matrix.  The
    # basis stays within about 1 in magnitude and the weights sum to 1,
    # so the bound on the entries is absolute
    for level in range(7):
        G = estimators._axis_gram("clenshaw_curtis", level)
        assert G is estimators._axis_gram("clenshaw_curtis", level)
        assert not G.flags.writeable
        x, w = gauss_axis(growth("clenshaw_curtis", level) + 9)
        B = _fresh_table("clenshaw_curtis", level, x)
        want = B.T @ (w[:, None] * B)
        assert np.max(np.abs(G - want)) <= 1e-14, level


# -- residual estimator -----------------------------------------------------


def test_residual_closed_form():
    disc = SpatialDiscretization(affine_problem(), 256)
    P, _ = build_chain(disc, 1)
    h = disc.h
    want = math.sqrt(1.0 - h * h) / 3.0
    got = residual_estimator(P, disc, (1,), NormSpec(p=2))
    assert got == pytest.approx(want, rel=1e-12)
    want_inf = math.sqrt((1.0 - h * h) / 3.0)
    got_inf = residual_estimator(P, disc, (1,), NormSpec(p="inf"))
    assert got_inf == pytest.approx(want_inf, rel=1e-12)


def test_residual_annihilation_affine_flux():
    # one collocation point: the flux is affine in y, so every detail
    # of level two or higher sees a polynomial it reproduces exactly
    disc = SpatialDiscretization(affine_problem(), 64)
    P, _ = build_chain(disc, 1)
    spec = NormSpec(p=2)
    for k in (2, 3, 4, 5):
        assert residual_estimator(P, disc, (k,), spec) <= 1e-12
    assert residual_estimator(P, disc, (1,), spec) > 1e-3


def test_residual_zero_for_deterministic_problem():
    p = DiffusionProblem(1, const(2.0), [const(0.0)], const(1.0))
    disc = SpatialDiscretization(p, 64)
    P, _ = build_chain(disc, 1)
    for k in (1, 2, 3):
        assert residual_estimator(P, disc, (k,), NormSpec(p=2)) <= 1e-15


def test_residual_preconditions():
    disc = SpatialDiscretization(affine_problem(), 32)
    P, _ = build_chain(disc, 2)
    spec = NormSpec(p=2)
    with pytest.raises(ValueError):
        residual_estimator(P, disc, (0,), spec)
    with pytest.raises(ValueError):
        residual_estimator(P, disc, (1, 1), spec)


def test_residual_needs_no_new_solves():
    disc = SpatialDiscretization(affine_problem(), 32)
    P, cache = build_chain(disc, 2)
    before = cache.n_solves
    residual_estimator(P, disc, (2,), NormSpec(p=2))
    assert cache.n_solves == before == 2


def flux_on_points(P, disc, Y):
    """Rows of a(., y) * u_n'(., y) at the points Y: element data, shape
    (rows, n)."""
    rows = P.evaluate(Y)
    grads = disc.gradient_rows(rows)
    a_el = disc.a0_mid[None, :] + np.asarray(Y, dtype=np.float64) @ disc.terms_mid
    return a_el * grads


def random_monotone_growth(P, cache, rng, steps):
    """Add `steps` random indices to P (root first, then reduced-margin
    ones) from cached solves."""
    dim = P.dim
    for _ in range(steps):
        cand = [(0,) * dim] if P.n_points == 0 else P.indexset.reduced_margin()
        k = tuple(cand[rng.integers(len(cand))])
        P.add_index(k, values=fresh_solves(P, cache, k))


def sampled_residual(P, disc, k, spec):
    """Reference residual estimator that samples the flux of the whole
    interpolant on the level-k grid and takes its detail there."""
    kind = P.family.kind
    flux = tensor_values(kind, k, lambda Y: flux_on_points(P, disc, Y))
    block = HierarchicalBlock.from_level_grid(kind, k, flux * math.sqrt(disc.h))
    return grid_lp_norm(kind, k, block.values.reshape(-1, block.values.shape[-1]), spec)


def ct_residual(P, disc, k, spec):
    """Reference residual estimator: the combination-technique detail of
    the flux, collapsed on the level-k grid and expanded in Lagrange form."""
    kind = P.family.kind
    flux = tensor_values(kind, k, lambda Y: flux_on_points(P, disc, Y))
    C = TensorDetail(kind, k, flux).collapsed_values() * math.sqrt(disc.h)
    base = [max(growth(kind, i[m]) for i in P.indexset) for m in range(P.dim)]
    degrees = [max(growth(kind, km), base[m] + 1) for m, km in enumerate(k)]
    if spec.p == 2.0:
        axes = [gauss_axis(d + 1) for d in degrees]
    else:
        axes = sample_axes(spec, len(degrees))
    rows = TensorPoly(kind, k, C).evaluate_grid([a[0] for a in axes])
    return combine_axes(np.sqrt(np.einsum("ij,ij->i", rows, rows)), axes, spec.p)


@pytest.mark.parametrize("p", [2, "inf"])
@pytest.mark.parametrize("kind", ["leja", "rleja", "clenshaw_curtis"])
def test_residual_matches_ct_oracle(kind, p):
    # some values sit at flux roundoff, so the bound is absolute, scaled
    # by the flux at the centre of the box
    rng = np.random.default_rng(31)
    spec = NormSpec(p=p)
    for dim in (1, 2, 3, 4):
        problem = build_problem({"family": "cosine", "M": dim, "gamma": 0.9})
        disc = SpatialDiscretization(problem, 32)
        cache = SolveCache(disc)
        P = SparseInterpolant(kind, dim)
        random_monotone_growth(P, cache, rng, 3 + 2 * dim)
        flux0 = flux_on_points(P, disc, np.zeros((1, dim)))
        scale = math.sqrt(disc.h) * float(np.linalg.norm(flux0))
        for k in P.indexset.margin():
            got = residual_estimator(P, disc, k, spec)
            want = ct_residual(P, disc, tuple(k), spec)
            assert abs(got - want) <= 1e-12 * scale, (dim, k, got, want)


@pytest.mark.parametrize("p", [2, "inf"])
@pytest.mark.parametrize("kind", ["leja", "rleja", "clenshaw_curtis"])
def test_residual_neighbour_blocks_match_sampling(kind, p):
    # the detail formed from the backward neighbours' blocks equals the
    # detail of the flux sampled on the level grid; the bound is absolute
    # because where one path gives an exact zero the other leaves roundoff
    rng = np.random.default_rng(67)
    spec = NormSpec(p=p)
    for dim in (1, 2, 3, 4):
        problem = build_problem({"family": "cosine", "M": dim, "gamma": 0.9})
        disc = SpatialDiscretization(problem, 32)
        P = SparseInterpolant(kind, dim)
        random_monotone_growth(P, SolveCache(disc), rng, 4 + 3 * dim)
        flux0 = flux_on_points(P, disc, np.zeros((1, dim)))
        scale = math.sqrt(disc.h) * float(np.linalg.norm(flux0))
        for k in P.indexset.margin():
            got = residual_estimator(P, disc, k, spec)
            want = sampled_residual(P, disc, tuple(k), spec)
            assert abs(got - want) <= 1e-12 * scale, (dim, k, got, want)


@pytest.mark.parametrize("kind", ["leja", "rleja"])
def test_rank_one_residuals_skip_the_grid_path(kind, monkeypatch):
    # unit-growth details are one spatial vector measured by 1-D norms: no
    # grid expansion or SVD may run, so a silent fall-back to the grid
    # path fails here
    rng = np.random.default_rng(97)
    problem = build_problem({"family": "cosine", "M": 3, "gamma": 0.9})
    disc = SpatialDiscretization(problem, 32)
    P = SparseInterpolant(kind, 3)
    random_monotone_growth(P, SolveCache(disc), rng, 10)
    spec = NormSpec(p=2)
    want = {tuple(k): sampled_residual(P, disc, tuple(k), spec) for k in P.indexset.margin()}
    flux0 = flux_on_points(P, disc, np.zeros((1, 3)))
    scale = math.sqrt(disc.h) * float(np.linalg.norm(flux0))

    def refuse(*args, **kwargs):
        raise AssertionError("the grid path ran")

    monkeypatch.setattr(estimators.np, "tensordot", refuse)
    monkeypatch.setattr(estimators.np.linalg, "svd", refuse)
    report = margin_report(P, disc, spec)
    assert set(report.values) == set(want)
    assert report.vmax > 0.0
    for k, got in report.values.items():
        assert abs(got - want[k]) <= 1e-12 * scale, (k, got, want[k])


def test_clenshaw_curtis_p2_reports_skip_the_grid_path(monkeypatch):
    # at p = 2 multi-point details are measured by Gram matrices: no grid
    # expansion or SVD may run in the residual or the surplus report, so a
    # silent fall-back to the grid path fails here.  The oracles run first,
    # on the grid
    rng = np.random.default_rng(101)
    problem = build_problem({"family": "cosine", "M": 3, "gamma": 0.9})
    disc = SpatialDiscretization(problem, 32)
    cache = SolveCache(disc)
    P = SparseInterpolant("clenshaw_curtis", 3)
    random_monotone_growth(P, cache, rng, 8)
    spec = NormSpec(p=2)
    want_res = {tuple(k): sampled_residual(P, disc, tuple(k), spec) for k in P.indexset.margin()}
    want_sur = {}
    for k in map(tuple, P.indexset.reduced_margin()):
        surplus = fresh_solves(P, cache, k) - P.evaluate(P.coords_of(P.new_point_indices(k)))
        rows = np.diff(surplus, axis=-1) / math.sqrt(disc.h)
        want_sur[k] = grid_lp_norm("clenshaw_curtis", k, rows, spec)
    flux0 = flux_on_points(P, disc, np.zeros((1, 3)))
    res_scale = math.sqrt(disc.h) * float(np.linalg.norm(flux0))
    sur_scale = float(np.linalg.norm(np.diff(P.surpluses()[0]))) / math.sqrt(disc.h)

    def refuse(*args, **kwargs):
        raise AssertionError("the grid path ran")

    monkeypatch.setattr(estimators.np, "tensordot", refuse)
    monkeypatch.setattr(estimators.np.linalg, "svd", refuse)
    report = margin_report(P, disc, spec)
    assert set(report.values) == set(want_res)
    assert report.vmax > 0.0
    for k, got in report.values.items():
        assert abs(got - want_res[k]) <= 1e-12 * res_scale, (k, got, want_res[k])
    report = reduced_margin_report(P, disc, spec, cache)
    assert set(report.values) == set(want_sur)
    assert report.vmax > 0.0
    for k, got in report.values.items():
        assert abs(got - want_sur[k]) <= 1e-12 * sur_scale, (k, got, want_sur[k])


# -- surplus indicator ------------------------------------------------------


def test_surplus_closed_form():
    disc = SpatialDiscretization(affine_problem(), 256)
    P, cache = build_chain(disc, 1)
    h = disc.h
    got = surplus_indicator(P, disc, (1,), NormSpec(p=2), cache)
    assert got == pytest.approx(math.sqrt(1.0 - h * h) / 9.0, rel=1e-12)
    assert cache.n_solves == 2


def test_surplus_zero_for_zero_load():
    p = DiffusionProblem(1, const(2.0), [const(1.0)], const(0.0))
    disc = SpatialDiscretization(p, 64)
    P, cache = build_chain(disc, 1)
    got = surplus_indicator(P, disc, (1,), NormSpec(p=2), cache)
    assert got <= 1e-15


def test_surplus_geometric_decay():
    # u(y) = x(1-x)/(2(2+y)) is analytic in y, so 1-D surpluses decay
    # geometrically along the Leja chain
    disc = SpatialDiscretization(affine_problem(), 128)
    P, cache = build_chain(disc, 1)
    spec = NormSpec(p=2)
    vals = []
    for k in range(1, 7):
        vals.append(surplus_indicator(P, disc, (k,), spec, cache))
        P.add_index((k,), values=fresh_solves(P, cache, (k,)))
    ratios = [b / a for a, b in zip(vals, vals[1:])]
    assert all(r < 1.0 for r in ratios)
    assert vals[-1] / vals[0] < 1e-2


def test_surplus_requires_addable_index():
    disc = SpatialDiscretization(affine_problem(), 32)
    P, cache = build_chain(disc, 1)
    with pytest.raises(ValueError):
        surplus_indicator(P, disc, (2,), NormSpec(p=2), cache)


def test_surplus_reuses_cache_for_add():
    disc = SpatialDiscretization(affine_problem(), 32)
    P, cache = build_chain(disc, 1)
    surplus_indicator(P, disc, (1,), NormSpec(p=2), cache)
    n = cache.n_solves
    P.add_index((1,), values=fresh_solves(P, cache, (1,)))
    assert cache.n_solves == n


def test_inserting_a_solved_block_forms_no_points(monkeypatch):
    # the surplus indicator solves k's block; add_index(k) then reads it
    # from the cache and forms its coordinates nowhere
    disc = SpatialDiscretization(build_problem({"family": "cosine", "M": 2}), 16)
    P = SparseInterpolant("clenshaw_curtis", 2)
    cache = SolveCache(disc)
    P.add_index((0, 0), values=fresh_solves(P, cache, (0, 0)))
    formed = []
    coords_of = SparseInterpolant.coords_of
    monkeypatch.setattr(
        SparseInterpolant, "coords_of", lambda self, js: formed.append(1) or coords_of(self, js)
    )
    for k in [(1, 0), (0, 1), (1, 1), (2, 0)]:
        surplus_indicator(P, disc, k, NormSpec(p=2), cache)
        assert len(formed) == 1, k
        n = cache.n_solves
        P.add_index(k, values=fresh_solves(P, cache, k))
        assert len(formed) == 1 and cache.n_solves == n, k
        formed.clear()


def test_non_integer_indices_are_refused():
    disc = SpatialDiscretization(affine_problem(), 32)
    P, cache = build_chain(disc, 1)
    with pytest.raises(ValueError, match="non-integer"):
        surplus_indicator(P, disc, (1.5,), NormSpec(p=2), cache)
    with pytest.raises(ValueError, match="non-integer"):
        residual_estimator(P, disc, (2.0,), NormSpec(p=2))


def test_fresh_solves_keep_node_families_apart():
    # a node index names another point in each family, so a cache shared
    # by Leja and Clenshaw-Curtis interpolants once returned the Leja
    # solve at y = (-1, -1) for the Clenshaw-Curtis root y = (0, 0)
    problem = build_problem({"family": "cosine", "M": 2, "amps": [0.5, 0.3]})
    disc = SpatialDiscretization(problem, 32)
    cache = SolveCache(disc)
    P = SparseInterpolant("leja", 2)
    Q = SparseInterpolant("clenshaw_curtis", 2)
    for k in [(0, 0), (1, 0)]:
        P.add_index(k, values=fresh_solves(P, cache, k))
    for k in [(0, 0), (1, 0)]:
        got = fresh_solves(Q, cache, k)
        assert np.array_equal(got, disc.solve_at(Q.coords_of(Q.new_point_indices(k)))), k
        Q.add_index(k, values=got)
    assert cache.n_solves == 2 + 3


# -- profit -----------------------------------------------------------------


def test_profit_unit_growth_reduced_margin():
    s = MonotoneIndexSet(1, [(0,)])
    eta = {(1,): 0.7}
    env = s.monotone_envelope((1,))
    assert profit(env, eta, {(1,): 1}) == pytest.approx(0.7, abs=0)


def test_profit_cc_singleton_envelope():
    s = MonotoneIndexSet(1, [(0,), (1,)])
    eta = {(2,): 0.6}
    env = s.monotone_envelope((2,))
    assert profit(env, eta, {(2,): work("clenshaw_curtis", (2,))}) == pytest.approx(0.3, abs=0)


def test_profit_envelope_average():
    # the envelope of (1,1) over {(0,0),(1,0)} is {(0,1),(1,1)}
    s = MonotoneIndexSet(2, [(0, 0), (1, 0)])
    eta = {(2, 0): 0.9, (0, 1): 0.3, (1, 1): 0.1}
    counts = {k: work("leja", k) for k in eta}
    got = profit(s.monotone_envelope((1, 1)), eta, counts)
    assert got == pytest.approx((0.3 + 0.1) / 2.0, abs=1e-15)
    assert profit(s.monotone_envelope((2, 0)), eta, counts) == pytest.approx(0.9, abs=0)


def test_drop_stale_returns_forgotten_keys():
    # the oracles' memo rule: each added index and each forward
    # neighbour, held in memo or not
    memo = {(1, 0): 0.1, (0, 1): 0.2, (2, 0): 0.3, (1, 1): 0.4, (0, 2): 0.5}
    keys = drop_stale(memo, [(1, 0), (0, 1)])
    assert keys == {(1, 0), (0, 1), (2, 0), (1, 1), (0, 2)}
    assert memo == {}
    memo = {(3, 0): 0.6}
    assert drop_stale(memo, [(2, 0)]) == {(2, 0), (3, 0), (2, 1)}
    assert memo == {}
    assert drop_stale({}, []) == set()


@pytest.mark.parametrize("kind", ["leja", "rleja", "clenshaw_curtis"])
def test_kept_profits_equal_fresh_profits(kind):
    # the profits a MarginState keeps across envelope extensions, and
    # computes again only for the candidates absorb names, equal fresh
    # ones bit for bit, with estimates refreshed only for the keys the
    # oracles' drop_stale returns
    rng = np.random.default_rng(71)
    kept = 0
    for dim in (2, 3, 4):
        disc = SpatialDiscretization(build_problem({"family": "cosine", "M": dim}), 8)
        P = SparseInterpolant(kind, dim)
        random_monotone_growth(P, SolveCache(disc), rng, 1 + dim)
        s = MonotoneIndexSet(dim, P.indexset)
        state = MarginState(s, kind)
        for step in range(10):
            before = dict(state.by_profit.live)
            pending = list(state.pending)
            estimated = []
            state.report(lambda k: estimated.append(k) or rng.random())
            assert estimated == pending
            state.best()
            live = state.by_profit.live
            assert set(live) == set(state.values) == set(s.margin())
            for k, entry in live.items():
                env = s.monotone_envelope(k)
                counts = {j: work(kind, j) for j in env}
                assert -entry[0] == profit(env, state.values, counts), (dim, step, k)
            kept += sum(1 for k, entry in before.items() if live.get(k) is entry)
            cand = s.margin()
            marked = s.monotone_envelope(cand[rng.integers(len(cand))])
            for j in marked:
                s.add(j)
            state.absorb(marked)
            assert set(state.pending) == {j for j in drop_stale({}, marked) if j not in s}
    assert kept > 0


@settings(max_examples=120, deadline=None)
@given(
    st.booleans(),
    st.integers(1, 4),
    st.lists(st.tuples(st.booleans(), st.integers(0, 10**6)), max_size=25),
)
def test_margin_state_follows_the_index_set(reduced, dim, steps):
    # after admissible additions, one reduced-margin index or a whole
    # monotone envelope at a time, the state's candidates (the margin, or
    # the reduced margin), values, total and envelopes equal what the
    # index set gives from scratch
    s = MonotoneIndexSet(dim, [(0,) * dim])
    state = MarginState(s, None if reduced else "leja", reduced=reduced)
    estimate = lambda k: float(sum(k)) / (1 + k[0])
    for step in range(len(steps) + 1):
        state.report(estimate)
        cands = s.reduced_margin() if reduced else s.margin()
        assert state.values == {k: estimate(k) for k in cands}
        assert state.total == math.fsum(state.values.values())
        assert set(state.envelopes) == (set() if reduced else set(cands))
        for k, env in state.envelopes.items():
            assert sorted(env) == s.monotone_envelope(k), k
        if step == len(steps):
            break
        whole, pick = steps[step]
        cand = s.margin() if whole else s.reduced_margin()
        k = cand[pick % len(cand)]
        added = s.monotone_envelope(k) if whole else [k]
        for j in added:
            s.add(j)
        state.absorb(added)


# -- reports ----------------------------------------------------------------


def test_margin_state_report_stats():
    # the margin of {(0, 0), (1, 0)} is (0, 1), (1, 1), (2, 0), of which
    # (1, 1) is not reduced: ratio_c is vmax over the largest reduced value
    cases = [
        ((0.2, 0.5, 0.5), 0.5, 1.0),
        ((0.2, 0.5, 0.2), 0.5, 2.5),
        ((0.0, 0.5, 0.0), 0.5, math.inf),
        ((0.0, 0.0, 0.0), 0.0, 1.0),
    ]
    for values, vmax, ratio_c in cases:
        s = MonotoneIndexSet(2, [(0, 0), (1, 0)])
        state = MarginState(s)
        memo = dict(zip(s.margin(), values))
        assert state.report(memo.get) is state
        stats = (state.total, state.vmax, state.fresh, state.reused)
        assert stats == (math.fsum(values), vmax, 3, 0)
        assert state.ratio_c == pytest.approx(ratio_c, abs=1e-15)
        # ties go to the lexicographically smallest candidate
        assert state.best() == min(memo, key=lambda k: (-memo[k], k))
    # adding (2, 0) forgets it and makes its forward neighbours pending
    s.add((2, 0))
    state.absorb([(2, 0)])
    assert state.pending == [(2, 1), (3, 0)]
    state.report(lambda k: 0.25)
    assert (state.fresh, state.reused) == (2, 2)
    assert sorted(state.values) == s.margin()
    assert state.total == math.fsum(state.values.values())


def test_totals_and_profits_are_order_free():
    # 1.0 on the lexicographically first candidate and 1e-16 on the later
    # ones: their builtin sum in lexicographic order is 1.0, their
    # correctly rounded sum 1.0000000000000002
    s = MonotoneIndexSet(2, [(0, 0), (1, 0), (2, 0)])
    eta = {(0, 1): 1.0, (1, 1): 1e-16, (2, 1): 1e-16, (3, 0): 1e-16}
    state = MarginState(s, "leja").report(eta.get)
    assert sum(eta[k] for k in sorted(eta)) == 1.0
    assert state.total == math.fsum(eta.values()) == 1.0000000000000002
    # a profit has the same bits for every order of its envelope
    env = s.monotone_envelope((2, 1))
    counts = {j: work("leja", j) for j in env}
    want = profit(env, eta, counts)
    assert want == 1.0000000000000002 / sum(counts.values())
    for order in itertools.permutations(env):
        assert profit(order, eta, counts) == want
    assert profit(set(env), eta, counts) == want
    # the same candidates reached through reports and absorbs in shuffled
    # orders give the same total bits, fsum's, after every round; the
    # estimates span 20 decades, so rounded running sums would differ
    rng = np.random.default_rng(29)
    target = random_monotone(rng, 3, 12)
    value = {}
    estimate = lambda k: value.setdefault(k, rng.random() * 10.0 ** -rng.integers(0, 20))
    totals = set()
    for _ in range(6):
        s = MonotoneIndexSet(3, [(0, 0, 0)])
        state = MarginState(s, "leja")
        while True:
            rng.shuffle(state.pending)
            state.report(estimate)
            assert state.total == math.fsum(state.values.values())
            if len(s) == len(target):
                break
            cand = [k for k in s.reduced_margin() if k in target]
            k = cand[rng.integers(len(cand))]
            s.add(k)
            state.absorb([k])
        assert sorted(state.values) == target.margin()
        totals.add(state.total)
    assert len(totals) == 1


def test_margin_report_matches_direct():
    disc = SpatialDiscretization(affine_problem(), 64)
    P, _ = build_chain(disc, 3)
    spec = NormSpec(p=2)
    rep = margin_report(P, disc, spec)
    assert set(rep.values) == set(map(tuple, P.indexset.margin()))
    for k, v in rep.values.items():
        assert v == residual_estimator(P, disc, k, spec)
    with pytest.raises(ValueError, match="another index set"):
        margin_report(P, disc, spec, MarginState(MonotoneIndexSet(1, [(0,)])))
    with pytest.raises(ValueError, match="candidate rule"):
        margin_report(P, disc, spec, MarginState(P.indexset, reduced=True))


def test_reduced_margin_report_counts_solves():
    disc = SpatialDiscretization(affine_problem(), 32)
    P, cache = build_chain(disc, 2)
    rep = reduced_margin_report(P, disc, NormSpec(p=2), cache)
    assert set(rep.values) == {(2,)}
    assert cache.n_solves == 3
    assert rep.ratio_c == 1.0
    with pytest.raises(ValueError, match="candidate rule"):
        reduced_margin_report(P, disc, NormSpec(p=2), cache, MarginState(P.indexset))


@pytest.mark.parametrize("strategy, p", [("gn", 2), ("gn", "inf"), ("gg", 2)])
@pytest.mark.parametrize("kind", ["leja", "rleja", "clenshaw_curtis"])
def test_report_memo_matches_fresh(kind, strategy, p):
    # a margin state kept across steps, which absorb prunes, gives the
    # values and candidates of a from-scratch report after every step
    rng = np.random.default_rng(53)
    dim = 3
    spec = NormSpec(p=p, sup_points_per_dim=9)
    problem = build_problem({"family": "cosine", "M": dim, "gamma": 0.9})
    disc = SpatialDiscretization(problem, 32)
    cache = SolveCache(disc)
    tol = 1e-12 * float(h1_rows(disc, cache.solve_y(np.zeros((1, dim))))[0])

    def report(kept=None):
        if strategy == "gg":
            return reduced_margin_report(P, disc, spec, cache, kept)
        return margin_report(P, disc, spec, kept)

    P = SparseInterpolant(kind, dim)
    P.add_index((0,) * dim, values=fresh_solves(P, cache, (0,) * dim))
    kept = MarginState(P.indexset, reduced=strategy == "gg")
    memo = kept.values
    dropped, moved = {}, 0
    for step in range(7):
        got, want = report(kept), report()
        assert sorted(got.values) == sorted(want.values)
        assert got.fresh == len(got.values) - got.reused
        for k, v in want.values.items():
            assert abs(got.values[k] - v) <= tol, (step, k, got.values[k], v)
            if k in dropped and abs(dropped[k] - v) > tol:
                moved += 1
        # mark like the drivers: a monotone envelope, or several
        # reduced-margin indices at once as Dorfler marking does
        if rng.random() < 0.5:
            cand = P.indexset.margin()
            marked = P.indexset.monotone_envelope(cand[rng.integers(len(cand))])
        else:
            cand = P.indexset.reduced_margin()
            size = min(len(cand), 1 + step % 3)
            marked = [cand[c] for c in sorted(rng.choice(len(cand), size, replace=False))]
        before = dict(memo)
        for k in marked:
            P.add_index(k, values=fresh_solves(P, cache, k))
        kept.absorb(marked)
        dropped = {k: v for k, v in before.items() if k not in memo and k not in marked}
    # forward neighbours of added indices really change for gn, so the
    # comparison above would catch a memo that kept them
    assert moved > 0 if strategy == "gn" else moved == 0


# -- reference errors -------------------------------------------------------


def test_reference_error_deterministic_zero():
    p = DiffusionProblem(1, const(2.0), [const(0.0)], const(1.0))
    disc = SpatialDiscretization(p, 64)
    P, _ = build_chain(disc, 1)
    assert reference_error(P, disc, NormSpec(p=2)) <= 1e-10


def test_reference_error_vs_monte_carlo():
    disc = SpatialDiscretization(affine_problem(), 128)
    P, _ = build_chain(disc, 1)
    spec = NormSpec(p=2)
    ref = reference_error(P, disc, spec, quad_order=20)
    mc = monte_carlo_error(P, disc, spec, n_samples=10000, seed=0)
    assert abs(ref - mc) <= 0.01 * ref


def test_reference_error_quadrature_stable():
    disc = SpatialDiscretization(affine_problem(), 64)
    P, _ = build_chain(disc, 2)
    spec = NormSpec(p=2)
    a = reference_error(P, disc, spec, quad_order=20)
    b = reference_error(P, disc, spec, quad_order=40)
    assert abs(a - b) <= 1e-6 * a


def test_reference_error_rejects_large_dim():
    P = SparseInterpolant("leja", 5)
    P.add_index((0,) * 5, values=np.zeros((1, 65)))
    disc = SpatialDiscretization(affine_problem(), 64)
    with pytest.raises(ValueError, match=r"infeasible for M=5 \(the limit is 4\)"):
        reference_error(P, disc, NormSpec(p=2))


def test_reference_error_sup_exceeds_mean():
    disc = SpatialDiscretization(affine_problem(), 64)
    P, _ = build_chain(disc, 1)
    e2 = reference_error(P, disc, NormSpec(p=2))
    einf = reference_error(P, disc, NormSpec(p="inf"))
    assert einf >= 0.9 * e2


def test_reference_error_uses_uncounted_cache(monkeypatch):
    disc = SpatialDiscretization(affine_problem(), 32)
    P, cache = build_chain(disc, 1)
    before = cache.n_solves
    # the reference solutions are never formed: nothing is solved or counted
    monkeypatch.setattr(SpatialDiscretization, "solve_at", None)
    assert reference_error(P, disc, NormSpec(p=2), quad_order=10) > 0.0
    assert cache.n_solves == before


@pytest.mark.parametrize("p", [2, "inf"])
def test_reference_error_incremental_matches_scratch(p):
    # one pass gives each count's value chunk by chunk: bitwise the same
    # pass over a fresh interpolant rebuilt from that many points, and to
    # roundoff its value from scratch; a count may repeat, and a lone
    # point's chunk is padded
    rng = np.random.default_rng(41)
    spec = NormSpec(p=p, sup_points_per_dim=9)
    problem = build_problem({"family": "cosine", "M": 2, "gamma": 0.9})
    disc = SpatialDiscretization(problem, 32)
    cache = SolveCache(disc)
    P = SparseInterpolant("leja", 2)
    counts = []
    for _ in range(8):
        cand = [(0, 0)] if P.n_points == 0 else P.indexset.reduced_margin()
        k = tuple(cand[rng.integers(len(cand))])
        P.add_index(k, values=fresh_solves(P, cache, k))
        counts.append(P.n_points)
    counts.insert(3, counts[2])
    ms = []
    got = reference_error(P, disc, spec, quad_order=8, counts=counts, ms=ms)
    parts = [leading_part(P, c) for c in counts]
    want = [reference_error(Q, disc, spec, 8, counts[: i + 1])[-1] for i, Q in enumerate(parts)]
    assert got == want and got[2] == got[3]
    scratch = [reference_error(Q, disc, spec, quad_order=8) for Q in parts]
    assert got[0] == scratch[0] and np.allclose(got, scratch, rtol=1e-12, atol=0.0)
    assert len(ms) == len(counts) and min(ms) > 0.0
    for bad in ([], [0, 1], [3, 2], [P.n_points + 1]):
        with pytest.raises(ValueError, match="counts must be nondecreasing"):
            reference_error(P, disc, spec, quad_order=8, counts=bad)


def reference_grid(dim, order):
    """The tensor Gauss grid reference_error uses for p = 2, in C order."""
    return point_grid([gauss_axis(order)[0]] * dim)


@pytest.mark.parametrize("size", [1, _ROW_BLOCK, 2 * _ROW_BLOCK + 3])
def test_reference_rows_match_solved_gradients(size):
    rng = np.random.default_rng(size)
    a0, amp = rng.uniform(1.5, 3.0), rng.uniform(0.1, 1.4)
    problem = build_problem({"family": "cosine", "M": 1, "a0": a0, "amps": [amp]})
    disc = SpatialDiscretization(problem, 48)
    P, _ = build_chain(disc, 3)
    got = reference_error(P, disc, NormSpec(p=2), quad_order=size)
    grid = reference_grid(1, size)
    # the blocked closed-form rows against nodal solves on the whole grid
    grads = disc.gradient_rows(disc.solve_at(grid))
    rows = grads - P.basis_weights(grid) @ disc.gradient_rows(P.surpluses())
    want = combine_axes(l2_element_rows(disc, rows), [gauss_axis(size)], 2.0)
    scale = combine_axes(l2_element_rows(disc, grads), [gauss_axis(size)], 2.0)
    assert abs(got - want) <= 1e-12 * scale


def test_reference_error_names_first_non_elliptic_point():
    # a = 1 - 1.5 y_0 turns non-positive only for y_0 >= 2/3, which the
    # C-order grid reaches in a later row block
    problem = build_problem({"family": "constant", "M": 2, "a0": 1.0, "amps": [-1.5, 0.0]})
    disc = SpatialDiscretization(problem, 16)
    cache = SolveCache(disc)
    P = SparseInterpolant("leja", 2)
    P.add_index((0, 0), values=fresh_solves(P, cache, (0, 0)))
    grid = reference_grid(2, 40)
    first = int(np.flatnonzero(1.0 - 1.5 * grid[:, 0] <= 0.0)[0])
    assert first >= 2 * _ROW_BLOCK
    with pytest.raises(EllipticityError, match=re.escape("y=%s " % grid[first].tolist())):
        reference_error(P, disc, NormSpec(p=2), quad_order=40)


@pytest.mark.parametrize("p", [2, "inf"])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_reference_error_first_value_matches_point_grid(p, dim):
    # from scratch on the materialised grid: the point-wise gradient
    # formula, basis_weights at every point, one product with the surplus
    # gradients, and the same row norms; bitwise the first cached value
    rng = np.random.default_rng(dim)
    amps = rng.uniform(0.1, 0.5, size=dim).tolist()
    problem = build_problem({"family": "cosine", "M": dim, "a0": 2.0, "amps": amps})
    disc = SpatialDiscretization(problem, 32)
    cache = SolveCache(disc)
    P = SparseInterpolant("leja", dim)
    for _ in range(3 * dim):
        cand = [(0,) * dim] if P.n_points == 0 else P.indexset.reduced_margin()
        k = tuple(cand[rng.integers(len(cand))])
        P.add_index(k, values=fresh_solves(P, cache, k))
    spec = NormSpec(p=p, sup_points_per_dim=17)
    got = reference_error(P, disc, spec, quad_order=9)
    axes = sample_axes(spec, dim) if p == "inf" else [gauss_axis(9)] * dim
    grid = point_grid([y for y, _ in axes])
    grads = kernels.p1_slopes(disc.coefficient_at(grid), disc.cum_load, np.empty((len(grid), 32)))
    rows = grads - P.basis_weights(grid) @ disc.gradient_rows(P.surpluses())
    want = combine_axes(l2_element_rows(disc, rows), axes, spec.p)
    assert got == want


def _forbidden_in_estimators(fn):
    """fn, raising when called from the estimators module."""

    @functools.wraps(fn)
    def guard(*args, **kwargs):
        if sys._getframe(1).f_globals.get("__name__") == estimators.__name__:
            raise AssertionError("%s called from estimators" % fn.__name__)
        return fn(*args, **kwargs)

    return guard


def test_reference_error_forms_no_point_grid(monkeypatch):
    problem = build_problem({"family": "cosine", "M": 3})
    disc = SpatialDiscretization(problem, 64)
    config = AdaptiveConfig(
        strategy="gn_envelope", norm=NormSpec(p="inf"), tol=3e-2, reference_every=1
    )
    guarded = _forbidden_in_estimators(SparseInterpolant.basis_weights)
    monkeypatch.setattr(SparseInterpolant, "basis_weights", guarded)
    monkeypatch.setattr(np, "meshgrid", _forbidden_in_estimators(np.meshgrid))
    trace = run_strategy(problem, disc, config)
    refs = [row.reference_error for row in trace.rows]
    assert len(refs) > 3 and None not in refs


def test_reference_error_names_first_non_elliptic_point_in_later_block():
    # a = 1 - 0.6 y_0 - 0.6 y_1 turns non-positive only for y_0 + y_1 >= 5/3,
    # which the C-order 33^3 sample grid first reaches in a later row block
    problem = build_problem(
        {"family": "constant", "M": 3, "a0": 1.0, "amps": [-0.6, -0.6, 0.0]}
    )
    disc = SpatialDiscretization(problem, 16)
    cache = SolveCache(disc)
    P = SparseInterpolant("leja", 3)
    P.add_index((0, 0, 0), values=fresh_solves(P, cache, (0, 0, 0)))
    spec = NormSpec(p="inf")
    grid = point_grid([y for y, _ in sample_axes(spec, 3)])
    first = int(np.flatnonzero(np.min(disc.coefficient_at(grid), axis=1) <= 0.0)[0])
    assert first >= 2 * _ROW_BLOCK
    with pytest.raises(EllipticityError, match=re.escape("y=%s " % grid[first].tolist())):
        reference_error(P, disc, spec, counts=[1, 1])


@pytest.mark.parametrize(
    "shape",
    [(1,), (20,), (300,), (5, 5, 5), (2, 128), (2, 129), (3, 515), (20, 20),
     (33, 33, 33), (9, 40, 33), (2, 3, 300), (20, 20, 20, 20), (4, 1, 7, 40)],
)
def test_row_blocks_tile_the_grid_in_c_order(shape):
    # each block is one range per axis: one index of each axis before the
    # range, whole axes after it, the last axis always whole
    flat = np.arange(math.prod(shape)).reshape(shape)
    blocks = _row_blocks(shape)
    done = 0
    for block in blocks:
        rows = flat[block].ravel()
        assert np.array_equal(rows, np.arange(done, done + len(rows)))
        done += len(rows)
        lens = [len(range(n)[s]) for n, s in zip(shape, block)]
        cut = max([m for m in range(len(shape)) if lens[m] != shape[m]], default=0)
        assert lens[:cut] == [1] * cut and lens[cut + 1 :] == list(shape[cut + 1 :])
        assert len(rows) <= _ROW_BLOCK or len(rows) == shape[-1]
    assert done == flat.size
    if shape == (33, 33, 33):
        # 7, 7, 7, 7 and 5 runs of the last axis per leading index
        assert len(blocks) == 165


def test_reference_error_pass_allocates_no_rows():
    # no array of grid by elements outlives a block, for 1 count or 20
    problem = build_problem({"family": "cosine", "M": 2, "gamma": 0.9})
    disc = SpatialDiscretization(problem, 256)
    cache = SolveCache(disc)
    P = SparseInterpolant("leja", 2)
    counts = []
    for k in [(0, 0), (1, 0), (0, 1), (1, 1), (2, 0), (0, 2)] + [(2, 1), (1, 2)] * 7:
        if k not in P.indexset:
            P.add_index(k, values=fresh_solves(P, cache, k))
        counts.append(P.n_points)
    spec = NormSpec(p=2)
    assert len(_row_blocks((128, 128))) >= 4 and len(counts) == 20
    rows_nbytes = 128 * 128 * disc.n_elements * 8
    want = reference_error(P, disc, spec, quad_order=128)
    for use in (counts[-1:], counts):
        tracemalloc.start()
        try:
            got = reference_error(P, disc, spec, quad_order=128, counts=use)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < rows_nbytes / 4, (len(use), peak, rows_nbytes)
        assert len(got) == len(use) and abs(got[-1] - want) <= 1e-12 * want
