"""Finite element layer: coefficient handling, ellipticity screening,
solver correctness against closed forms and dense assembly, norms."""

import numpy as np
import pytest

from sparseuq import kernels
from sparseuq.estimators import _ROW_BLOCK, _row_blocks, gauss_axis
from sparseuq.fem import (
    DiffusionProblem,
    EllipticityError,
    SolveCache,
    SpatialDiscretization,
    build_problem,
    check_ellipticity,
)

from oracles import coefficient_eval, h1_rows, l2_element_rows, point_grid


def const(c):
    return lambda x: np.full_like(np.asarray(x, dtype=np.float64), float(c))


def two_plus_y():
    return DiffusionProblem(1, const(2.0), [const(1.0)], const(1.0))


def test_fractional_element_count_is_rejected():
    # 2.9 elements once ran on 2
    with pytest.raises(ValueError, match="mesh_n must be an integer, got 2.9"):
        SpatialDiscretization(two_plus_y(), 2.9)
    for n in (2, 2.0, np.int64(2)):
        assert SpatialDiscretization(two_plus_y(), n).n_elements == 2


def dense_solve_oracle(disc, y):
    """Element-loop stiffness assembly plus a dense solve."""
    n = disc.n_elements
    a_el = disc.coefficient_at(y)
    A = np.zeros((n + 1, n + 1))
    for k in range(n):
        w = a_el[k] / disc.h
        A[k, k] += w
        A[k + 1, k + 1] += w
        A[k, k + 1] -= w
        A[k + 1, k] -= w
    b = np.zeros(n + 1)
    b[1:-1] = disc.load
    u = np.zeros(n + 1)
    u[1:-1] = np.linalg.solve(A[1:-1, 1:-1], b[1:-1])
    return u


# -- coefficient and ellipticity --------------------------------------------


def test_coefficient_eval_affine():
    p = two_plus_y()
    x = np.array([0.1, 0.5, 0.9])
    assert np.allclose(coefficient_eval(p, x, [0.0]), 2.0, atol=0)
    assert np.allclose(coefficient_eval(p, x, [-1.0]), 1.0, atol=0)
    assert np.allclose(coefficient_eval(p, x, [0.25]), 2.25, atol=0)
    assert coefficient_eval(p, 0.3, [1.0]) == pytest.approx(3.0, abs=0)


def test_check_ellipticity_values():
    disc = SpatialDiscretization(two_plus_y(), 32)
    rep = check_ellipticity(disc.problem, disc)
    assert rep["a_min"] == pytest.approx(1.0, abs=1e-14)
    assert rep["a_max"] == pytest.approx(3.0, abs=1e-14)
    assert rep["alpha"] == pytest.approx(0.5, abs=1e-14)
    assert rep["r_effective"] == rep["a_min"]


def test_check_ellipticity_violation():
    p = DiffusionProblem(1, const(1.0), [const(1.0)], const(1.0))
    disc = SpatialDiscretization(p, 16)
    with pytest.raises(EllipticityError):
        check_ellipticity(p, disc)


def test_check_ellipticity_floor():
    p = DiffusionProblem(1, const(2.0), [const(1.0)], const(1.0), floor=1.5)
    disc = SpatialDiscretization(p, 16)
    with pytest.raises(EllipticityError):
        check_ellipticity(p, disc)


def test_alpha_zero_without_parameters():
    p = DiffusionProblem(0, const(1.0), [], const(1.0))
    disc = SpatialDiscretization(p, 16)
    rep = check_ellipticity(p, disc)
    assert rep["alpha"] == 0.0
    assert rep["a_min"] == 1.0


# -- solving ----------------------------------------------------------------


def test_constant_coefficient_nodal_exactness():
    # u = x(1-x)/(2a) interpolates the exact solution at the nodes
    disc = SpatialDiscretization(two_plus_y(), 256)
    x = disc.nodes
    u = disc.solve_at(np.array([0.0]))
    assert np.max(np.abs(u - x * (1 - x) / 4.0)) <= 1e-12
    u = disc.solve_at(np.array([-1.0]))
    assert np.max(np.abs(u - x * (1 - x) / 2.0)) <= 1e-12
    assert u[0] == 0.0 and u[-1] == 0.0


def test_solve_rejects_nonpositive_coefficient():
    p = DiffusionProblem(1, const(1.0), [const(1.0)], const(1.0))
    disc = SpatialDiscretization(p, 16)
    with pytest.raises(EllipticityError):
        disc.solve_at(np.array([-1.0]))


def test_solve_matches_dense_assembly():
    rng = np.random.default_rng(21)
    p = build_problem({"family": "cosine", "M": 3, "a0": 2.0, "f": {"family": "sine"}})
    disc = SpatialDiscretization(p, 24)
    for _ in range(4):
        y = rng.uniform(-1, 1, size=3)
        u = disc.solve_at(y)
        want = dense_solve_oracle(disc, y)
        assert np.max(np.abs(u - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))


def test_batched_solve_matches_single():
    rng = np.random.default_rng(24)
    p = build_problem({"family": "cosine", "M": 3, "a0": 2.0, "f": {"family": "sine"}})
    disc = SpatialDiscretization(p, 40)
    Y = rng.uniform(-1, 1, size=(7, 3))
    U = disc.solve_at(Y)
    assert U.shape == (7, 41)
    for y, u in zip(Y, U):
        assert np.array_equal(disc.solve_at(y), u)
    # one point leaving the ellipticity box spoils the whole batch
    Y[4] = [-8.0, 0.0, 0.0]
    with pytest.raises(EllipticityError, match=r"-8\.0"):
        disc.solve_at(Y)


# -- norms ------------------------------------------------------------------


def test_norms_of_quadratic():
    disc = SpatialDiscretization(two_plus_y(), 256)
    v = disc.nodes * (1 - disc.nodes)
    # continuous value: H1_0 seminorm = 1/sqrt(3)
    assert h1_rows(disc, v)[0] == pytest.approx(1 / np.sqrt(3), rel=1e-4)


def test_element_data_l2():
    disc = SpatialDiscretization(two_plus_y(), 64)
    g = np.ones(disc.n_elements)
    assert l2_element_rows(disc, g)[0] == pytest.approx(1.0, abs=1e-14)
    g = 1.0 - 2.0 * disc.midpoints
    assert l2_element_rows(disc, g)[0] == pytest.approx(1 / np.sqrt(3), rel=1e-3)


def test_interpolation_error_decays_linearly():
    # H1 error of the nodal solution against u = x(1-x)/4; the squared
    # error is |u|^2 - |u_h|^2 since u_h is the nodal interpolant
    exact_sq = 1.0 / 48.0
    errs = []
    for n in (16, 32, 64):
        disc = SpatialDiscretization(two_plus_y(), n)
        uh = disc.solve_at(np.array([0.0]))
        errs.append(np.sqrt(exact_sq - h1_rows(disc, uh)[0] ** 2))
    assert errs[0] / errs[1] == pytest.approx(2.0, rel=0.05)
    assert errs[1] / errs[2] == pytest.approx(2.0, rel=0.05)


def test_energy_stability_bound():
    rng = np.random.default_rng(23)
    p = build_problem({"family": "cosine", "M": 2, "a0": 2.0})
    disc = SpatialDiscretization(p, 128)
    a_min = check_ellipticity(p, disc)["a_min"]
    f_l2 = l2_element_rows(disc, disc.f_mid)[0]
    for _ in range(5):
        y = rng.uniform(-1, 1, size=2)
        u = disc.solve_at(y)
        assert h1_rows(disc, u)[0] <= 1.001 * f_l2 / a_min


def test_parametric_lipschitz_scaling():
    p = build_problem({"family": "cosine", "M": 2, "a0": 2.0})
    disc = SpatialDiscretization(p, 64)
    y = np.array([0.3, -0.4])
    base = disc.solve_at(y)
    deltas = [1e-2, 1e-3]
    dists = []
    for d in deltas:
        u = disc.solve_at(y + np.array([d, 0.0]))
        dists.append(h1_rows(disc, u - base)[0])
    assert dists[0] / dists[1] == pytest.approx(10.0, rel=0.05)


# -- cache ------------------------------------------------------------------


def test_solve_cache_counts_and_reuse():
    disc = SpatialDiscretization(two_plus_y(), 32)
    cache = SolveCache(disc)
    # a block is solved in one counted batch on its first request
    Y = np.array([[0.25], [0.5], [-0.5]])
    U = cache.solve_indexed(("leja", (2,)), Y)
    assert U.shape == (3, 33) and cache.n_solves == 3
    assert np.array_equal(U, disc.solve_at(Y))
    assert not U.flags.writeable
    # then it is the same read-only array, solved and counted once
    assert cache.solve_indexed(("leja", (2,)), Y.copy()) is U
    assert cache.n_solves == 3
    # another key is another block, even at the same points
    assert cache.solve_indexed(("rleja", (2,)), Y) is not U
    assert cache.n_solves == 6
    # a sampling point set is one uncounted batch, kept nowhere
    Y = np.array([[0.25], [-0.5], [0.75]])
    V = cache.solve_y(Y)
    assert V.shape == (3, 33) and np.array_equal(V, disc.solve_at(Y))
    assert np.array_equal(cache.solve_y([0.25]), V[0])
    assert cache.n_solves == 6


def gradients_at(disc, Y):
    """Point-wise oracle for grid_gradients: the element gradients (s0 - F) / a
    at scattered points Y (P, M), from coefficient_at's point-by-point sum."""
    out = np.empty((len(Y), disc.n_elements))
    return kernels.p1_slopes(disc.coefficient_at(Y), disc.cum_load, out)


def blocked_grid_gradients(disc, axes):
    """grid_gradients over the row blocks reference_error passes."""
    shape = [len(y) for y in axes]
    out = np.full((int(np.prod(shape)), disc.n_elements), np.nan)
    for a, b in _row_blocks(shape):
        assert disc.grid_gradients(axes, a, b, out=out[a:b]) is not None
    return out


def cosine_disc(rng, dim, n):
    # sum of |amps| below a0 keeps every coefficient positive
    amps = rng.uniform(0.05, 0.6, size=dim).tolist()
    return SpatialDiscretization(
        build_problem({"family": "cosine", "M": dim, "a0": 2.0, "amps": amps}), n
    )


@pytest.mark.parametrize("size", [1, _ROW_BLOCK, 2 * _ROW_BLOCK + 3])
def test_gradients_at_match_solved_gradients(size):
    # grid_gradients on a grid whose last axis has `size` points
    rng = np.random.default_rng(size)
    disc = cosine_disc(rng, 3, 64)
    axes = [np.sort(rng.uniform(-1.0, 1.0, size=n)) for n in (2, 3, size)]
    Y = point_grid(axes)
    want = disc.gradient_rows(disc.solve_at(Y))
    got = blocked_grid_gradients(disc, axes)
    assert got.shape == want.shape == (6 * size, 64)
    scale = np.max(np.abs(want), axis=1)
    assert np.all(np.max(np.abs(got - want), axis=1) <= 1e-12 * scale)
    out = np.full((size, 64), np.nan)
    assert disc.grid_gradients(axes, 5 * size, 6 * size, out=out) is out
    assert np.array_equal(out, got[5 * size :])


def test_gradients_at_names_first_non_elliptic_point():
    disc = SpatialDiscretization(two_plus_y(), 16)
    axes = [np.array([0.5, -2.5, -3.0])]
    with pytest.raises(EllipticityError, match=r"y=\[-2\.5\]"):
        disc.grid_gradients(axes, 0, 3, out=np.empty((3, 16)))


@pytest.mark.parametrize("last", [17, _ROW_BLOCK, 2 * _ROW_BLOCK + 3])
@pytest.mark.parametrize("dim", [1, 2, 3, 4])
@pytest.mark.parametrize("p", [2, "inf"])
def test_grid_gradients_bitwise_match_pointwise(p, dim, last):
    # the per-axis partial sums add in coefficient_at's order, so every row
    # is bitwise the point-wise formula's on the materialised grid
    rng = np.random.default_rng(dim * 1000 + last)
    disc = cosine_disc(rng, dim, 24)
    sizes = [3, 2, 2][: dim - 1] + [last]
    if p == 2:
        axes = [gauss_axis(n)[0] for n in sizes]
    else:
        axes = [np.linspace(-1.0, 1.0, n) for n in sizes]
    got = blocked_grid_gradients(disc, axes)
    assert np.array_equal(got, gradients_at(disc, point_grid(axes)))


def test_grid_gradients_rejects_rows_across_a_split_run():
    disc = cosine_disc(np.random.default_rng(3), 2, 8)
    axes = [np.linspace(-1.0, 1.0, 3), np.linspace(-1.0, 1.0, 4)]
    # rows that start or stop inside a run of the last axis, parts of
    # one run included
    for a, b in [(2, 6), (5, 7), (4, 6), (1, 4), (0, 3)]:
        with pytest.raises(ValueError, match="not whole runs"):
            disc.grid_gradients(axes, a, b, out=np.empty((b - a, 8)))
    # whole runs are fine
    want = gradients_at(disc, point_grid(axes))
    for a, b in [(4, 8), (4, 12), (0, 12)]:
        out = np.empty((b - a, 8))
        assert np.array_equal(disc.grid_gradients(axes, a, b, out=out), want[a:b])


def test_solver_determinism_bitwise():
    p = build_problem({"family": "cosine", "M": 2, "a0": 2.0})
    d1 = SpatialDiscretization(p, 64)
    d2 = SpatialDiscretization(p, 64)
    y = np.array([0.123456, -0.654321])
    assert np.array_equal(d1.solve_at(y), d2.solve_at(y))


# -- problem library --------------------------------------------------------


def test_build_problem_cosine_terms():
    p = build_problem({"family": "cosine", "M": 2, "a0": 2.0, "gamma": 0.9, "sigma": 2.0})
    x = np.array([0.0, 0.25, 1.0])
    assert np.allclose(p.terms[0](x), 0.9 * np.cos(np.pi * x), atol=1e-15)
    assert np.allclose(p.terms[1](x), 0.225 * np.cos(2 * np.pi * x), atol=1e-15)
    assert p.meta["amps"] == [0.9, 0.9 / 4.0]
    assert np.allclose(p.a0(x), 2.0, atol=0)


def test_build_problem_inclusion_and_amps():
    p = build_problem({"family": "inclusion", "M": 2, "amps": [0.5, 0.25]})
    x = np.array([0.1, 0.6])
    assert np.allclose(p.terms[0](x), [0.5, 0.0], atol=0)
    assert np.allclose(p.terms[1](x), [0.0, 0.25], atol=0)
    with pytest.raises(ValueError):
        build_problem({"family": "inclusion", "M": 2, "amps": [0.5]})


def test_build_problem_constant_and_sine_load():
    p = build_problem(
        {"family": "constant", "M": 1, "amps": [0.5], "f": {"family": "sine", "amp": 2.0}}
    )
    x = np.array([0.5])
    assert p.terms[0](x)[0] == 0.5
    assert p.f(x)[0] == pytest.approx(2.0, abs=1e-15)


def test_build_problem_rejects_unknown():
    with pytest.raises(ValueError):
        build_problem({"family": "pebbles", "M": 1})
    with pytest.raises(ValueError):
        build_problem({"family": "cosine", "M": 1, "f": {"family": "step"}})
    with pytest.raises(ValueError):
        build_problem({"family": "cosine", "M": -1})


def test_discretization_input_validation():
    p = two_plus_y()
    with pytest.raises(ValueError):
        SpatialDiscretization(p, 1)
    disc = SpatialDiscretization(p, 8)
    with pytest.raises(ValueError):
        disc.coefficient_at(np.array([0.1, 0.2]))
    with pytest.raises(ValueError):
        DiffusionProblem(2, const(1.0), [const(0.1)], const(1.0))
