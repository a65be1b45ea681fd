"""Sparse interpolation: surplus bookkeeping, interpolatory and
polynomial-exactness properties, combination-technique cross-checks."""

import itertools

import numpy as np
import pytest

from sparseuq.interp import (
    HierarchicalBlock,
    SparseInterpolant,
    TensorDetail,
    TensorPoly,
    detail_apply_ct,
    fresh_ranges,
    grid_points,
    tensor_grid_axes,
    tensor_grid_coords,
    tensor_interpolant,
    tensor_values,
    work,
)
from sparseuq.multiindex import MonotoneIndexSet
from sparseuq.nodes import get_family, growth, growth_inverse


def tensor_interp_oracle(nodes_list, V, y):
    """Direct Lagrange tensor interpolation, axis by axis."""
    V = np.asarray(V, dtype=np.float64)
    for m, nds in enumerate(nodes_list):
        w = np.array(
            [
                np.prod([(y[m] - o) / (c - o) for o in nds if o != c])
                for c in nds
            ]
        )
        V = np.tensordot(w, V, axes=(0, 0))
    return V


def random_monotone(rng, dim, n_add):
    s = MonotoneIndexSet(dim)
    s.add((0,) * dim)
    for _ in range(n_add):
        cand = s.reduced_margin()
        s.add(cand[rng.integers(len(cand))])
    return s


def build_interpolant(kind, indexset, f):
    P = SparseInterpolant(kind, indexset.dim)
    for i in indexset.members_sorted():
        P.add_index(i, f)
    return P


# -- work and grid bookkeeping ----------------------------------------------


def test_work_examples():
    assert work("leja", (1, 0)) == 1
    assert work("leja", (0,)) == 1
    assert work("clenshaw_curtis", (2,)) == 2
    assert work("clenshaw_curtis", (0,)) == 1
    assert work("clenshaw_curtis", (1,)) == 2
    assert work("clenshaw_curtis", (2, 1)) == 4


def test_fresh_ranges_cc():
    assert [list(r) for r in fresh_ranges("clenshaw_curtis", (2,))] == [[3, 4]]
    assert [list(r) for r in fresh_ranges("leja", (3, 0))] == [[3], [0]]


def test_grid_points_counts():
    s = MonotoneIndexSet(1, [(0,), (1,), (2,)])
    assert len(grid_points("clenshaw_curtis", s)) == 5
    rng = np.random.default_rng(0)
    for dim in (1, 2, 3):
        t = random_monotone(rng, dim, 10)
        js = grid_points("leja", t)
        assert len(js) == len(t)
        assert len(set(js)) == len(js)
        js_cc = grid_points("clenshaw_curtis", t)
        assert len(js_cc) == sum(work("clenshaw_curtis", i) for i in t)
        assert len(set(js_cc)) == len(js_cc)


def test_add_root_constant_interpolant():
    P = SparseInterpolant("leja", 2)
    P.add_index((0, 0), lambda y: np.array([3.5, -1.0]))
    assert P.n_points == 1
    Y = np.array([[0.2, -0.9], [-1.0, 1.0]])
    out = P.evaluate(Y)
    assert np.allclose(out, [[3.5, -1.0], [3.5, -1.0]], atol=0)


def test_add_index_point_counts():
    P = SparseInterpolant("clenshaw_curtis", 1)
    f = lambda y: np.array([float(np.sin(y[0]))])
    assert P.add_index((0,), f) == 1
    assert P.add_index((1,), f) == 2
    assert P.add_index((2,), f) == 2
    assert P.n_points == 5
    P2 = SparseInterpolant("leja", 2)
    P2.add_index((0, 0), f)
    assert P2.add_index((1, 0), f) == 1


def test_add_index_admissibility_errors():
    P = SparseInterpolant("leja", 2)
    with pytest.raises(ValueError):
        P.add_index((1, 0), lambda y: np.array([1.0]))
    P.add_index((0, 0), lambda y: np.array([1.0]))
    with pytest.raises(ValueError):
        P.add_index((1, 1), lambda y: np.array([1.0]))
    with pytest.raises(ValueError):
        P.add_index((0, 0), lambda y: np.array([1.0]))


def test_evaluate_domain_and_empty_errors():
    P = SparseInterpolant("leja", 1)
    with pytest.raises(ValueError):
        P.evaluate(np.array([[0.0]]))
    P.add_index((0,), lambda y: np.array([1.0]))
    with pytest.raises(ValueError):
        P.evaluate(np.array([[1.5]]))
    with pytest.raises(ValueError):
        P.evaluate(np.array([0.0]))


def test_grid_coordinates_bitwise_from_cache():
    rng = np.random.default_rng(3)
    s = random_monotone(rng, 2, 8)
    P = build_interpolant("leja", s, lambda y: np.array([y[0]]))
    fam = get_family("leja")
    for j, y in zip(P.point_indices(), P.grid_coords()):
        assert y[0] == fam.point(j[0]) and y[1] == fam.point(j[1])


# -- interpolation properties -----------------------------------------------


@pytest.mark.parametrize("kind", ["leja", "rleja", "clenshaw_curtis"])
def test_interpolatory_at_grid_points(kind):
    rng = np.random.default_rng(4)
    f = lambda y: np.array(
        [np.exp(0.3 * np.sum(y)), np.cos(1.7 * y[0] - 0.5 * np.prod(y))]
    )
    for trial in range(3):
        s = random_monotone(rng, 2, 12)
        P = build_interpolant(kind, s, f)
        Y = P.grid_coords()
        want = np.vstack([f(y) for y in Y])
        got = P.evaluate(Y)
        scale = np.max(np.abs(want))
        assert np.max(np.abs(got - want)) <= 1e-10 * max(scale, 1.0)


@pytest.mark.parametrize("kind", ["leja", "clenshaw_curtis"])
def test_monomial_exactness(kind):
    rng = np.random.default_rng(5)
    for dim in (1, 2):
        s = random_monotone(rng, dim, 8)
        boxes = set()
        for i in s:
            ranges = [range(growth(kind, im) + 1) for im in i]
            boxes.update(itertools.product(*ranges))
        monos = sorted(boxes)
        f = lambda y: np.array([np.prod(np.asarray(y) ** np.array(j)) for j in monos])
        P = build_interpolant(kind, s, f)
        Y = rng.uniform(-1, 1, size=(100, dim))
        want = np.vstack([f(y) for y in Y])
        assert np.max(np.abs(P.evaluate(Y) - want)) <= 1e-10


@pytest.mark.parametrize("kind", ["leja", "clenshaw_curtis"])
def test_telescoping_equals_tensor_interpolant(kind):
    rng = np.random.default_rng(6)
    f = lambda y: np.array([np.exp(y[0] - 0.4 * y[1] ** 2)])
    for k in [(2, 1), (3, 2)]:
        box = MonotoneIndexSet(
            2, list(itertools.product(range(k[0] + 1), range(k[1] + 1)))
        )
        P = build_interpolant(kind, box, f)
        axes = tensor_grid_axes(kind, k)
        V = tensor_values(kind, k, lambda Y: np.vstack([f(y) for y in Y]))
        Y = rng.uniform(-1, 1, size=(100, 2))
        for y in Y:
            want = tensor_interp_oracle(axes, V, y)
            got = P.evaluate_one(y)
            assert np.max(np.abs(got - want)) <= 1e-10


def test_order_independence():
    rng = np.random.default_rng(7)
    f = lambda y: np.array([np.sin(2.0 * y[0]) * np.cos(y[1]) + y[0] * y[1] ** 2])
    s = random_monotone(rng, 2, 14)
    P1 = build_interpolant("leja", s, f)
    # a second admissible order: greedy anti-lexicographic
    P2 = SparseInterpolant("leja", 2)
    remaining = set(s.members_sorted())
    while remaining:
        for i in sorted(remaining, reverse=True):
            if P2.indexset.is_admissible(i):
                P2.add_index(i, f)
                remaining.discard(i)
                break
    Y = rng.uniform(-1, 1, size=(60, 2))
    assert np.max(np.abs(P1.evaluate(Y) - P2.evaluate(Y))) <= 1e-12


def test_serialization_round_trip():
    rng = np.random.default_rng(8)
    s = random_monotone(rng, 2, 10)
    f = lambda y: np.array([np.exp(y[0] * y[1]), y[0] - y[1]])
    P = build_interpolant("clenshaw_curtis", s, f)
    Q = SparseInterpolant.from_jsonable(P.to_jsonable())
    Y = rng.uniform(-1, 1, size=(50, 2))
    assert np.array_equal(P.evaluate(Y), Q.evaluate(Y))
    assert Q.indexset.members_sorted() == P.indexset.members_sorted()
    for i in s:
        assert Q.block_of(i) == P.block_of(i)
    want = [max(growth("clenshaw_curtis", i[m]) for i in s) for m in range(2)]
    assert P.degrees == Q.degrees == want


def test_malformed_snapshot_rejected():
    # CC levels 0 and 1: point (0, 0), then the block of (1, 0) with (1, 0), (2, 0)
    s = MonotoneIndexSet(2, [(0, 0), (1, 0)])
    P = build_interpolant("clenshaw_curtis", s, lambda y: np.array([y[0] + 2.0 * y[1]]))
    data = P.to_jsonable()
    assert [rec["j"] for rec in data["points"]] == [[0, 0], [1, 0], [2, 0]]

    def reload_with(order):
        return dict(data, points=[dict(data["points"][k]) for k in order])

    foreign = reload_with([0, 1, 2])
    foreign["points"][2]["j"] = [40, 40]
    with pytest.raises(ValueError, match=r"\(40, 40\)"):
        SparseInterpolant.from_jsonable(foreign)
    duplicated = reload_with([0, 1, 1])
    with pytest.raises(ValueError, match=r"\(1, 0\)"):
        SparseInterpolant.from_jsonable(duplicated)
    interleaved = reload_with([1, 0, 2])
    with pytest.raises(ValueError, match=r"\(1, 0\)"):
        SparseInterpolant.from_jsonable(interleaved)


# -- combination technique --------------------------------------------------


def test_detail_kills_constants():
    g = lambda y: np.array([4.2])
    for i in [(1,), (2,), (1, 0), (2, 2)]:
        d = detail_apply_ct("leja", i, lambda y: g(y))
        Y = np.random.default_rng(9).uniform(-1, 1, size=(20, len(i)))
        assert np.max(np.abs(d.evaluate(Y))) <= 1e-12


def test_detail_annihilates_low_degree():
    # degree d polynomial is killed once the lower level already holds it
    rng = np.random.default_rng(10)
    cases = [
        ("leja", (3,), (2,)),
        ("leja", (2, 1), (1, 0)),
        ("clenshaw_curtis", (2, 1), (2, 0)),
    ]
    for kind, i, d in cases:
        for m in range(len(i)):
            assert d[m] <= growth(kind, i[m] - 1)
        g = lambda y: np.array([np.prod(np.asarray(y) ** np.array(d))])
        det = detail_apply_ct(kind, i, g)
        Y = rng.uniform(-1, 1, size=(30, len(i)))
        assert np.max(np.abs(det.evaluate(Y))) <= 1e-12


@pytest.mark.parametrize("kind", ["leja", "clenshaw_curtis"])
def test_ct_detail_matches_surplus_detail(kind):
    rng = np.random.default_rng(11)
    f = lambda y: np.array([np.exp(0.7 * y[0]) * np.cos(y[1])])
    for i in [(1, 1), (2, 0), (2, 2), (0, 1)]:
        det = detail_apply_ct(kind, i, f)
        # surplus path: interpolants over the rectangle with and without i
        box = list(itertools.product(range(i[0] + 1), range(i[1] + 1)))
        P_full = build_interpolant(kind, MonotoneIndexSet(2, box), f)
        Y = rng.uniform(-1, 1, size=(50, 2))
        if len(box) > 1:
            P_rest = build_interpolant(
                kind, MonotoneIndexSet(2, [j for j in box if j != i]), f
            )
            want = P_full.evaluate(Y) - P_rest.evaluate(Y)
        else:
            want = P_full.evaluate(Y)
        assert np.max(np.abs(det.evaluate(Y) - want)) <= 1e-10


def test_detail_terms_and_collapse_agree():
    f = lambda y: np.array([np.sin(y[0] + 0.3) * y[1] ** 3, y[0] * y[1]])
    det = detail_apply_ct("clenshaw_curtis", (2, 1), f)
    Y = np.random.default_rng(12).uniform(-1, 1, size=(40, 2))
    assert np.allclose(det.evaluate(Y), det.evaluate_terms(Y), atol=1e-12)


def test_hierarchical_block_matches_ct_detail():
    i = (2, 1)
    f = lambda y: np.array([np.exp(y[0] * 0.5 + y[1])])
    box = MonotoneIndexSet(2, list(itertools.product(range(3), range(2))))
    Y = np.random.default_rng(13).uniform(-1, 1, size=(30, 2))
    for kind in ("leja", "clenshaw_curtis"):
        det = detail_apply_ct(kind, i, f)
        P = build_interpolant(kind, box, f)
        start, count = P.block_of(i)
        surplus = np.vstack([P._surplus_rows[r] for r in range(start, start + count)])
        # stored surpluses, and surpluses recovered from the level-grid values
        for blk in (
            HierarchicalBlock(kind, i, surplus),
            HierarchicalBlock.from_level_grid(kind, i, det.values),
        ):
            assert np.allclose(blk.values.reshape(count, -1), surplus, atol=1e-11)
            assert np.allclose(blk.evaluate(Y), det.evaluate(Y), atol=1e-11)


def test_evaluate_grid_matches_scattered():
    f = lambda y: np.array([np.cos(y[0]) + y[1] ** 2, y[0]])
    poly = tensor_interpolant("leja", (2, 3), f)
    ax0 = np.linspace(-1, 1, 4)
    ax1 = np.linspace(-1, 1, 5)
    rows = poly.evaluate_grid([ax0, ax1])
    mesh = np.stack([a.ravel() for a in np.meshgrid(ax0, ax1, indexing="ij")], axis=-1)
    assert np.allclose(rows, poly.evaluate(mesh), atol=1e-13)
    det = detail_apply_ct("leja", (2, 3), f)
    assert np.allclose(det.evaluate_grid([ax0, ax1]), det.evaluate(mesh), atol=1e-13)


def test_tensor_grid_coords_order():
    coords = tensor_grid_coords("leja", (1, 1))
    fam = get_family("leja")
    y0, y1 = fam.point(0), fam.point(1)
    want = np.array([[y0, y0], [y0, y1], [y1, y0], [y1, y1]])
    assert np.array_equal(coords, want)


def test_values_rejected_on_shape_mismatch():
    P = SparseInterpolant("leja", 1)
    with pytest.raises(ValueError):
        P.add_index((0,), values=np.zeros((2, 3)))
    P.add_index((0,), values=np.array([[1.0, 2.0]]))
    with pytest.raises(ValueError):
        P.add_index((1,), values=np.array([[1.0, 2.0, 3.0]]))
    with pytest.raises(ValueError):
        P.add_index((1,))
