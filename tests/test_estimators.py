"""Estimator layer: parametric norms, residual and surplus indicators
against closed forms, profit weighting, reference errors."""

import functools
import math
import re
import sys
import tracemalloc

import numpy as np
import pytest

from sparseuq import estimators, kernels
from sparseuq.adaptive import AdaptiveConfig, _forget_profits, _profit_argmax, run_strategy
from sparseuq.estimators import (
    _ROW_BLOCK,
    EstimatorReport,
    NormSpec,
    ReferenceRows,
    _euclidean_lp_norm,
    combine_axes,
    drop_stale,
    fresh_solves,
    gauss_axis,
    lex_argmax,
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
    h1_rows,
    l2_element_rows,
    monte_carlo_error,
    point_grid,
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
    with pytest.raises(ValueError, match="unknown norm keys: P$"):
        NormSpec.from_config({"P": "inf"})
    with pytest.raises(ValueError, match="unknown norm keys: quad_order$"):
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


def test_sup_grid_budget():
    spec = NormSpec(p="inf")
    assert sup_points_per_dim(spec, 1) == 33
    assert sup_points_per_dim(spec, 3) == 33
    assert sup_points_per_dim(spec, 4) == 14
    assert sup_points_per_dim(NormSpec(p="inf", sup_budget=10), 3) == 2
    # exact powers fit, though their float roots fall just below the integer
    for budget, dim, per in ((1000, 3, 10), (125, 3, 5), (4096, 6, 4), (8000, 3, 20)):
        assert sup_points_per_dim(NormSpec(p="inf", sup_budget=budget), dim) == per


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
    spec = NormSpec(p=p)
    index = (1,) + (0,) * 11
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
    assert profit("leja", s.monotone_envelope((1,)), eta) == pytest.approx(0.7, abs=0)


def test_profit_cc_singleton_envelope():
    s = MonotoneIndexSet(1, [(0,), (1,)])
    eta = {(2,): 0.6}
    assert profit("clenshaw_curtis", s.monotone_envelope((2,)), eta) == pytest.approx(0.3, abs=0)


def test_profit_envelope_average():
    # the envelope of (1,1) over {(0,0),(1,0)} is {(0,1),(1,1)}
    s = MonotoneIndexSet(2, [(0, 0), (1, 0)])
    eta = {(2, 0): 0.9, (0, 1): 0.3, (1, 1): 0.1}
    got = profit("leja", s.monotone_envelope((1, 1)), eta)
    assert got == pytest.approx((0.3 + 0.1) / 2.0, abs=1e-15)
    assert profit("leja", s.monotone_envelope((2, 0)), eta) == pytest.approx(0.9, abs=0)


def test_drop_stale_returns_forgotten_keys():
    # each added index and each forward neighbour, held in memo or not
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
    # the gn_profit loop's profits, kept across envelope extensions and
    # dropped through drop_stale's keys, equal fresh ones bit for bit,
    # with estimates refreshed only for the keys drop_stale returns
    rng = np.random.default_rng(71)
    kept = 0
    for dim in (2, 3, 4):
        disc = SpatialDiscretization(build_problem({"family": "cosine", "M": dim}), 8)
        P = SparseInterpolant(kind, dim)
        random_monotone_growth(P, SolveCache(disc), rng, 1 + dim)
        s = MonotoneIndexSet(dim, P.indexset)
        eta = {k: rng.random() for k in s.margin()}
        pis, users = {}, {}
        for step in range(10):
            before = dict(pis)
            _profit_argmax(s, kind, eta, pis, users)
            assert set(pis) == set(eta) == set(s.margin())
            for k, v in pis.items():
                assert v == profit(kind, s.monotone_envelope(k), eta), (dim, step, k)
            kept += sum(1 for k in before if k in pis)
            cand = s.margin()
            marked = s.monotone_envelope(cand[rng.integers(len(cand))])
            for j in marked:
                s.add(j)
            keys = drop_stale(eta, marked)
            eta.update((j, rng.random()) for j in sorted(keys) if j not in s)
            _forget_profits(pis, users, keys)
    assert kept > 0


# -- reports ----------------------------------------------------------------


def test_estimator_report_stats():
    rep = EstimatorReport({(0, 1): 0.2, (1, 0): 0.5, (2, 0): 0.5}, {(0, 1), (1, 0)})
    assert rep.total == pytest.approx(1.2, abs=1e-15)
    assert rep.vmax == 0.5
    assert lex_argmax(rep.values) == (1, 0)
    assert rep.ratio_c == 1.0
    rep2 = EstimatorReport({(0, 1): 0.2, (2, 0): 0.5}, {(0, 1)})
    assert rep2.ratio_c == pytest.approx(2.5, abs=1e-15)


def test_margin_report_matches_direct():
    disc = SpatialDiscretization(affine_problem(), 64)
    P, _ = build_chain(disc, 3)
    spec = NormSpec(p=2)
    rep = margin_report(P, disc, spec)
    assert set(rep.values) == set(map(tuple, P.indexset.margin()))
    for k, v in rep.values.items():
        assert v == residual_estimator(P, disc, k, spec)


def test_reduced_margin_report_counts_solves():
    disc = SpatialDiscretization(affine_problem(), 32)
    P, cache = build_chain(disc, 2)
    rep = reduced_margin_report(P, disc, NormSpec(p=2), cache)
    assert set(rep.values) == {(2,)}
    assert cache.n_solves == 3
    assert rep.ratio_c == 1.0


@pytest.mark.parametrize("strategy, p", [("gn", 2), ("gn", "inf"), ("gg", 2)])
@pytest.mark.parametrize("kind", ["leja", "rleja", "clenshaw_curtis"])
def test_report_memo_matches_fresh(kind, strategy, p):
    # a memo kept across steps and pruned by drop_stale gives the values
    # and candidates of a from-scratch report after every step
    rng = np.random.default_rng(53)
    dim = 3
    spec = NormSpec(p=p, sup_points_per_dim=9)
    problem = build_problem({"family": "cosine", "M": dim, "gamma": 0.9})
    disc = SpatialDiscretization(problem, 32)
    cache = SolveCache(disc)
    tol = 1e-12 * float(h1_rows(disc, cache.solve_y(np.zeros((1, dim))))[0])

    def report(memo=None):
        if strategy == "gg":
            return reduced_margin_report(P, disc, spec, cache, memo)
        return margin_report(P, disc, spec, memo)

    P = SparseInterpolant(kind, dim)
    P.add_index((0,) * dim, values=fresh_solves(P, cache, (0,) * dim))
    memo, dropped, moved = {}, {}, 0
    for step in range(7):
        got, want = report(memo), report()
        assert set(got.values) == set(want.values) == set(memo)
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
        drop_stale(memo, marked)
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
    # the reference solutions are never formed: nothing is solved or
    # counted, and the state keeps only the gradient rows of u_h - S u_h
    monkeypatch.setattr(SpatialDiscretization, "solve_at", None)
    state = ReferenceRows()
    reference_error(P, disc, NormSpec(p=2), quad_order=10, state=state)
    assert cache.n_solves == before
    assert state.rows.shape == (10, 32)
    assert state.interpolant is P and state.shape == (10,) and state.n_rows == 1


@pytest.mark.parametrize("p", [2, "inf"])
def test_reference_error_incremental_matches_scratch(p):
    rng = np.random.default_rng(41)
    spec = NormSpec(p=p, sup_points_per_dim=9)
    problem = build_problem({"family": "cosine", "M": 2, "gamma": 0.9})
    disc = SpatialDiscretization(problem, 32)
    cache = SolveCache(disc)
    P = SparseInterpolant("leja", 2)
    state = ReferenceRows()
    rows = []
    for _ in range(8):
        cand = [(0, 0)] if P.n_points == 0 else P.indexset.reduced_margin()
        k = tuple(cand[rng.integers(len(cand))])
        P.add_index(k, values=fresh_solves(P, cache, k))
        got = reference_error(P, disc, spec, quad_order=8, state=state)
        want = reference_error(P, disc, spec, quad_order=8)
        assert abs(got - want) <= 1e-12 * want, (k, got, want)
        rows.append(state.rows)
    # every call after the first updated the same rows incrementally
    assert all(r is rows[0] for r in rows) and state.n_rows == P.n_points
    # a second interpolant gets its own state; passing it P's raises and
    # leaves P's state as it was
    Q = SparseInterpolant("clenshaw_curtis", 2)
    for k in [(0, 0), (1, 0), (0, 1)]:
        Q.add_index(k, values=fresh_solves(Q, cache, k))
    with pytest.raises(ValueError, match="another interpolant"):
        reference_error(Q, disc, spec, quad_order=8, state=state)
    assert state.interpolant is P and state.rows is rows[0]
    other = ReferenceRows()
    for R, kept in ((Q, other), (P, state)):
        got = reference_error(R, disc, spec, quad_order=8, state=kept)
        want = reference_error(R, disc, spec, quad_order=8)
        assert abs(got - want) <= 1e-12 * want
    # so does a grid of another shape
    with pytest.raises(ValueError, match="another interpolant or grid"):
        reference_error(P, disc, NormSpec(p=p, sup_points_per_dim=7), quad_order=9, state=state)


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
    state = ReferenceRows()
    reference_error(P, disc, NormSpec(p=2), quad_order=size, state=state)
    grid = reference_grid(1, size)
    # the blocked closed-form rows against nodal solves on the whole grid
    grads = disc.gradient_rows(disc.solve_at(grid))
    want = grads - P.basis_weights(grid) @ disc.gradient_rows(P.surpluses())
    got = state.rows
    scale = np.max(np.abs(grads), axis=1)
    assert got.shape == want.shape == (size, 48)
    assert np.all(np.max(np.abs(got - want), axis=1) <= 1e-12 * scale)


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
    state = ReferenceRows()
    with pytest.raises(EllipticityError, match=re.escape("y=%s " % grid[first].tolist())):
        reference_error(P, disc, NormSpec(p=2), quad_order=40, state=state)
    # half-formed rows are not kept
    assert state.rows is None and state.interpolant is None and state.n_rows == 0


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
    got = reference_error(P, disc, spec, quad_order=9, state=ReferenceRows())
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
    state = ReferenceRows()
    with pytest.raises(EllipticityError, match=re.escape("y=%s " % grid[first].tolist())):
        reference_error(P, disc, spec, state=state)
    assert state.rows is None and state.interpolant is None


def test_reference_error_incremental_call_allocates_no_rows():
    problem = build_problem({"family": "cosine", "M": 2, "gamma": 0.9})
    disc = SpatialDiscretization(problem, 128)
    cache = SolveCache(disc)
    P = SparseInterpolant("leja", 2)
    for k in [(0, 0), (1, 0), (0, 1)]:
        P.add_index(k, values=fresh_solves(P, cache, k))
    spec = NormSpec(p=2)
    state = ReferenceRows()
    reference_error(P, disc, spec, quad_order=64, state=state)
    rows = state.rows
    assert rows.shape[0] >= 4 * _ROW_BLOCK
    P.add_index((1, 1), values=fresh_solves(P, cache, (1, 1)))
    tracemalloc.start()
    try:
        got = reference_error(P, disc, spec, quad_order=64, state=state)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert state.rows is rows and state.n_rows == P.n_points
    # a temporary of the rows' size (or of a large share of them) is gone
    assert peak < state.rows.nbytes / 4, (peak, state.rows.nbytes)
    want = reference_error(P, disc, spec, quad_order=64)
    assert abs(got - want) <= 1e-12 * want
