"""Sparse interpolation: surplus bookkeeping, interpolatory and
polynomial-exactness properties, combination-technique cross-checks."""

import itertools
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparseuq.estimators import _row_blocks, profit
from sparseuq.interp import (
    SparseInterpolant,
    _fresh_inverse_rows,
    _grid_weights,
    _level_basis,
    _times_y_rows,
    fresh_ranges,
    grid_points,
    mode_product,
    tensor_grid_axes,
    work,
)
from sparseuq.multiindex import MonotoneIndexSet
from sparseuq.nodes import get_family, growth

from oracles import (
    HierarchicalBlock,
    add_evaluated,
    detail_apply_ct,
    detail_terms,
    evaluate_one,
    grid_coords,
    point_grid,
    point_indices,
    random_monotone,
    tensor_grid_coords,
    tensor_interpolant,
    tensor_values,
    value_below_all_axes,
)


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


def build_interpolant(kind, indexset, f):
    P = SparseInterpolant(kind, indexset.dim)
    for i in indexset:
        add_evaluated(P, i, f)
    return P


# -- work and grid bookkeeping ----------------------------------------------


def test_work_examples():
    assert work("leja", (1, 0)) == 1
    assert work("leja", (0,)) == 1
    assert work("clenshaw_curtis", (2,)) == 2
    assert work("clenshaw_curtis", (0,)) == 1
    assert work("clenshaw_curtis", (1,)) == 2
    assert work("clenshaw_curtis", (2, 1)) == 4


@pytest.mark.parametrize("kind", ["leja", "rleja", "clenshaw_curtis"])
def test_work_memo_counts_fresh_points(kind):
    # from the per-(kind, level) fresh ranges of the nonzero components;
    # NumPy components give the same plain int
    rng = np.random.default_rng(5)
    for dim in (1, 2, 3, 4):
        for _ in range(10):
            i = rng.integers(0, 5, size=dim)
            plain = tuple(int(v) for v in i)
            want = math.prod(len(r) for r in fresh_ranges(kind, plain))
            for key in (tuple(i), plain, i):
                got = work(kind, key)
                assert got == want and type(got) is int, (key, got, want)


@pytest.mark.parametrize("kind", ["leja", "rleja", "clenshaw_curtis"])
def test_work_memo_keeps_reload_and_profit(kind):
    rng = np.random.default_rng(6)
    s = random_monotone(rng, 3, 8)
    P = build_interpolant(kind, s, lambda y: np.array([np.cos(y).sum()]))
    Q = SparseInterpolant.from_jsonable(P.to_jsonable())
    assert point_indices(Q) == point_indices(P)
    assert np.array_equal(Q.surpluses(), P.surpluses())
    data = P.to_jsonable()
    data["points"].pop()
    with pytest.raises(ValueError, match="point count"):
        SparseInterpolant.from_jsonable(data)
    eta = {k: rng.random() for k in s.margin()}
    for k in s.margin():
        env = s.monotone_envelope(k)
        den = sum(len(list(itertools.product(*fresh_ranges(kind, j)))) for j in env)
        counts = {j: work(kind, j) for j in env}
        assert profit(env, eta, counts) == math.fsum(eta[j] for j in env) / den


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
    add_evaluated(P, (0, 0), lambda y: np.array([3.5, -1.0]))
    assert P.n_points == 1
    Y = np.array([[0.2, -0.9], [-1.0, 1.0]])
    out = P.evaluate(Y)
    assert np.allclose(out, [[3.5, -1.0], [3.5, -1.0]], atol=0)


def test_add_index_point_counts():
    P = SparseInterpolant("clenshaw_curtis", 1)
    f = lambda y: np.array([float(np.sin(y[0]))])
    assert add_evaluated(P, (0,), f) == 1
    assert add_evaluated(P, (1,), f) == 2
    assert add_evaluated(P, (2,), f) == 2
    assert P.n_points == 5
    P2 = SparseInterpolant("leja", 2)
    add_evaluated(P2, (0, 0), f)
    assert add_evaluated(P2, (1, 0), f) == 1


def test_add_index_admissibility_errors():
    P = SparseInterpolant("leja", 2)
    with pytest.raises(ValueError):
        add_evaluated(P, (1, 0), lambda y: np.array([1.0]))
    add_evaluated(P, (0, 0), lambda y: np.array([1.0]))
    with pytest.raises(ValueError):
        add_evaluated(P, (1, 1), lambda y: np.array([1.0]))
    with pytest.raises(ValueError):
        add_evaluated(P, (0, 0), lambda y: np.array([1.0]))


def test_dimension_above_64_builds_evaluates_and_round_trips():
    # M = 65 was once refused: fresh points were unravelled into an array
    # with one axis per parameter, and NumPy allows 64
    def f(y):
        # affine along the last axis, past the 64th
        return np.array([1.0 + y[-1], 2.0 - 3.0 * y[-1]])

    rng = np.random.default_rng(3)
    for dim in (65, 128):
        P = SparseInterpolant("leja", dim)
        root, k = (0,) * dim, (0,) * (dim - 1) + (1,)
        assert add_evaluated(P, root, f) == 1
        at_root = f(P.coords_of(P.new_point_indices(root))[0])
        assert P.value_below(k).tolist() == [at_root.tolist()]
        assert add_evaluated(P, k, f) == 1
        Y = rng.uniform(-1.0, 1.0, size=(5, dim))
        assert np.max(np.abs(P.evaluate(Y) - [f(y) for y in Y])) <= 1e-14
        Q = SparseInterpolant.from_jsonable(json.loads(json.dumps(P.to_jsonable())))
        assert Q.dim == dim and Q.block_of(k) == P.block_of(k)
        assert Q.evaluate(Y).tobytes() == P.evaluate(Y).tobytes()


def unravel_fresh_points(kind, k):
    """k's fresh points as np.unravel_index lays them out: the C-order
    grid over fresh_shape, shifted by each axis's first fresh position."""
    ranges = fresh_ranges(kind, k)
    shape = tuple(len(r) for r in ranges)
    fresh = np.unravel_index(np.arange(math.prod(shape), dtype=np.int64), shape)
    return np.stack(fresh, axis=1) + [r.start for r in ranges]


@pytest.mark.parametrize("kind", ["leja", "rleja", "clenshaw_curtis"])
def test_fresh_points_keep_the_unravel_order(kind):
    rng = np.random.default_rng(11)
    top = 4 if kind == "clenshaw_curtis" else 7
    for _ in range(60):
        dim = int(rng.integers(1, 9))
        k = tuple(int(v) for v in rng.integers(0, top, size=dim))
        got = SparseInterpolant(kind, dim).new_point_indices(k)
        want = unravel_fresh_points(kind, k)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def test_non_integer_indices_are_refused():
    P = SparseInterpolant("leja", 2)
    P.add_index((0, 0), values=[[1.0]])
    with pytest.raises(ValueError, match="non-integer"):
        P.add_index((1.5, 0), values=[[1.0]])
    with pytest.raises(ValueError, match="non-integer"):
        P.value_below((1.0, 0))
    data = P.to_jsonable()
    data["points"][0]["j"] = [0.0, 0]
    with pytest.raises(ValueError, match="non-integer"):
        SparseInterpolant.from_jsonable(data)
    assert list(P.indexset) == [(0, 0)]


def test_fractional_dimension_is_rejected():
    # a dimension of 2.5 was once truncated to 2
    with pytest.raises(ValueError, match="dim must be an integer, got 2.5"):
        SparseInterpolant("leja", 2.5)
    for dim in (2, 2.0, np.int64(2)):
        assert SparseInterpolant("leja", dim).dim == 2


def test_evaluate_domain_and_empty_errors():
    P = SparseInterpolant("leja", 1)
    with pytest.raises(ValueError):
        P.evaluate(np.array([[0.0]]))
    add_evaluated(P, (0,), lambda y: np.array([1.0]))
    with pytest.raises(ValueError):
        P.evaluate(np.array([[1.5]]))
    with pytest.raises(ValueError):
        P.evaluate(np.array([0.0]))


def test_grid_coordinates_bitwise_from_cache():
    rng = np.random.default_rng(3)
    s = random_monotone(rng, 2, 8)
    P = build_interpolant("leja", s, lambda y: np.array([y[0]]))
    fam = get_family("leja")
    for j, y in zip(point_indices(P), grid_coords(P)):
        assert y[0] == fam.nodes(j[0] + 1)[j[0]] and y[1] == fam.nodes(j[1] + 1)[j[1]]


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
        Y = grid_coords(P)
        want = np.vstack([f(y) for y in Y])
        got = P.evaluate(Y)
        scale = np.max(np.abs(want))
        assert np.max(np.abs(got - want)) <= 1e-10 * max(scale, 1.0)


def test_clenshaw_curtis_level_ten_interpolates():
    # the 1,025 nodes of level 10 once gave basis denominators that
    # underflowed to zero, and an interpolant that was nan everywhere
    f = lambda y: np.array([math.sin(3.0 * y[0])])
    P = SparseInterpolant("clenshaw_curtis", 1)
    for k in range(11):
        add_evaluated(P, (k,), f)
    Y = grid_coords(P)
    got = P.evaluate(Y)[:, 0]
    assert Y.shape[0] == 1025
    assert np.all(np.isfinite(got))
    assert np.max(np.abs(got - np.sin(3.0 * Y[:, 0]))) <= 1e-12


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
            got = evaluate_one(P, y)
            assert np.max(np.abs(got - want)) <= 1e-10


def test_order_independence():
    rng = np.random.default_rng(7)
    f = lambda y: np.array([np.sin(2.0 * y[0]) * np.cos(y[1]) + y[0] * y[1] ** 2])
    s = random_monotone(rng, 2, 14)
    P1 = build_interpolant("leja", s, f)
    # a second admissible order: greedy anti-lexicographic
    P2 = SparseInterpolant("leja", 2)
    remaining = set(s)
    while remaining:
        for i in sorted(remaining, reverse=True):
            if P2.indexset.is_admissible(i):
                add_evaluated(P2, i, f)
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
    assert list(Q.indexset) == list(P.indexset)
    for i in s:
        assert Q.block_of(i) == P.block_of(i)
    assert point_indices(Q) == point_indices(P)
    assert np.array_equal(Q.surpluses(), P.surpluses())


def test_surplus_rows_append_only():
    # rows outlive the buffer growth that add_index triggers, and the
    # incremental parts basis_weights(Y)[:, start:] @ surpluses(start) add up
    rng = np.random.default_rng(9)
    f = lambda y: np.array([np.sin(y[0] + 2.0 * y[1]), y[0] * y[1]])
    Y = rng.uniform(-1, 1, size=(20, 2))
    P = SparseInterpolant("leja", 2)
    add_evaluated(P, (0, 0), f)
    kept, parts = [], []
    for _ in range(12):
        start = P.n_points
        kept.append(P.surpluses().copy())
        cand = P.indexset.reduced_margin()
        add_evaluated(P, cand[rng.integers(len(cand))], f)
        parts.append(P.basis_weights(Y)[:, start:] @ P.surpluses(start))
        assert not P.surpluses().flags.writeable
    for rows in kept:
        assert np.array_equal(P.surpluses()[: len(rows)], rows)
    head = P.basis_weights(Y)[:, :1] @ P.surpluses()[:1]
    assert np.allclose(head + sum(parts), P.evaluate(Y), rtol=0, atol=1e-13)


def test_basis_weights_match_per_dimension_columns():
    # basis_weights gathers whole rows of the stacked per-dimension tables;
    # every weight is bitwise the product of the grid point's basis_matrix
    # columns, multiplied in dimension order
    rng = np.random.default_rng(12)
    s = random_monotone(rng, 5, 30)
    f = lambda y: np.array([np.exp(0.2 * y.sum()), y[0] * y[4], 1.0])
    P = build_interpolant("clenshaw_curtis", s, f)
    Y = rng.uniform(-1, 1, size=(37, 5))
    pts = np.asarray(point_indices(P))
    want = None
    for m in range(5):
        cols = P.family.basis_matrix(Y[:, m], int(pts[:, m].max()) + 1)[:, pts[:, m]]
        want = cols.copy() if want is None else want * cols
    W = P.basis_weights(Y)
    assert W.shape == (37, P.n_points)
    assert W.tobytes() == want.tobytes()
    # the matmul may take another BLAS path for the column-major layout
    got = P.evaluate(Y)
    assert np.allclose(got, want @ P.surpluses(), rtol=1e-13, atol=1e-14)


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("kind", ["leja", "rleja", "clenshaw_curtis"])
def test_grid_basis_weights_match_point_grid(kind, dim):
    # on each of reference_error's blocks, _grid_weights over the rows of
    # per-axis tables is bitwise basis_weights at the block's points, in
    # the same column-major layout, for all points and for the first half
    rng = np.random.default_rng(7 * dim)
    s = random_monotone(rng, dim, 5 * dim)
    P = build_interpolant(kind, s, lambda y: np.array([np.exp(0.3 * y.sum()), 1.0]))
    axes = [np.linspace(-1.0, 1.0, 9), np.polynomial.legendre.leggauss(40)[0]]
    axes = (axes + [np.linspace(-1.0, 1.0, 33)])[-dim:]
    blocks = _row_blocks([len(y) for y in axes])
    assert len(blocks) == [1, 6, 54][dim - 1]
    for stop in (None, P.n_points // 2):
        pts = P.node_indices()[:stop]
        assert not pts.flags.writeable
        tables = [P.family.basis_matrix(y, int(n)) for y, n in zip(axes, pts.max(axis=0) + 1)]
        for block in blocks:
            want = P.basis_weights(point_grid([y[s] for y, s in zip(axes, block)]))[:, :stop]
            W = _grid_weights([t[s] for t, s in zip(tables, block)], pts)
            assert W.shape == want.shape and W.flags.f_contiguous
            assert np.array_equal(W, want)


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
    # a block's rows must keep its point order: the residual estimator
    # reads them as a tensor
    swapped = reload_with([0, 2, 1])
    with pytest.raises(ValueError, match=r"\(1, 0\)"):
        SparseInterpolant.from_jsonable(swapped)


def _set_surplus(j, value):
    def edit(points):
        points[j]["surplus"] = value

    return edit


def _set_every_surplus(value):
    def edit(points):
        for rec in points:
            rec["surplus"] = value

    return edit


@pytest.mark.parametrize(
    "edit, bad",
    [
        (None, None),
        (_set_surplus(0, 1.0), (0,)),
        (_set_surplus(1, [None, 0.5, 0.25]), (1,)),
        (_set_surplus(0, ["1", "2", "3"]), (0,)),
        (_set_every_surplus([]), (0,)),
        (_set_surplus(1, [0.5, 0.25]), (1,)),
        (_set_surplus(1, [True, 0.5, 0.25]), (1,)),
    ],
    ids=["valid", "scalar", "null", "strings", "empty", "unequal", "boolean"],
)
def test_snapshot_surplus_must_be_a_list_of_numbers(edit, bad, tmp_path):
    # a surplus is a non-empty flat list of JSON numbers, the same length
    # for every point; the loader names the first point that breaks this,
    # from a dict and through the CLI's per-record reload alike
    from sparseuq.cli import load_interpolant

    s = MonotoneIndexSet(1, [(0,), (1,)])
    P = build_interpolant("leja", s, lambda y: np.array([1.0, y[0], -y[0] ** 2]))
    data = json.loads(json.dumps(P.to_jsonable()))
    if edit is not None:
        edit(data["points"])
    path = tmp_path / "set.json"
    path.write_text(json.dumps({"interpolant": data}))
    if bad is None:
        for Q in (SparseInterpolant.from_jsonable(data), load_interpolant(path)):
            assert np.array_equal(Q.surpluses(), P.surpluses())
        return
    for load in (lambda: SparseInterpolant.from_jsonable(data), lambda: load_interpolant(path)):
        with pytest.raises(ValueError, match=r"^point %s has " % re.escape(repr(bad))):
            load()


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
    assert np.allclose(det.evaluate(Y), detail_terms(det, Y), atol=1e-12)


def test_hierarchical_block_matches_ct_detail():
    i = (2, 1)
    f = lambda y: np.array([np.exp(y[0] * 0.5 + y[1])])
    box = MonotoneIndexSet(2, list(itertools.product(range(3), range(2))))
    Y = np.random.default_rng(13).uniform(-1, 1, size=(30, 2))
    for kind in ("leja", "clenshaw_curtis"):
        det = detail_apply_ct(kind, i, f)
        P = build_interpolant(kind, box, f)
        start, count = P.block_of(i)
        surplus = P.surpluses()[start : start + count]
        # stored surpluses, and surpluses recovered from the level-grid values
        for blk in (
            HierarchicalBlock(kind, i, surplus),
            HierarchicalBlock.from_level_grid(kind, i, det.values),
        ):
            assert np.allclose(blk.values.reshape(count, -1), surplus, atol=1e-11)
            assert np.allclose(blk.evaluate(Y), det.evaluate(Y), atol=1e-11)


@pytest.mark.parametrize("kind", ["leja", "rleja", "clenshaw_curtis"])
def test_fresh_inverse_rows_invert_basis_table(kind):
    fam = get_family(kind)
    for level in range(6 if kind == "clenshaw_curtis" else 12):
        n = growth(kind, level) + 1
        B = fam.basis_matrix(fam.nodes(n), n)
        fresh = fresh_ranges(kind, (level,))[0]
        got = _fresh_inverse_rows(kind, level) @ B
        assert np.max(np.abs(got - np.eye(n)[fresh.start :])) <= 1e-13, level


@pytest.mark.parametrize("kind", ["leja", "clenshaw_curtis"])
def test_mode_product_on_flat_rows_matches_tensordot(kind):
    # flat C-order rows against the tensor form of the same mode product,
    # with the matrices the residual estimator and from_level_grid apply
    rng = np.random.default_rng(19)
    mats = [_times_y_rows(kind, lev) for lev in range(1, 5)]
    mats += [_fresh_inverse_rows(kind, lev) for lev in range(1, 5)]
    one_row = 0
    for dim in (1, 2, 3, 4):
        for m in range(dim):
            for A in mats:
                for ones in (True, False):
                    shape = [1] * dim if ones else [int(v) for v in rng.integers(1, 4, size=dim)]
                    shape[m] = A.shape[1]
                    T = rng.normal(size=tuple(shape) + (int(rng.integers(1, 6)),))
                    rows = T.reshape(-1, T.shape[-1])
                    got = mode_product(A, rows, math.prod(shape[:m]))
                    want = np.moveaxis(np.tensordot(A, T, (1, m)), 0, m)
                    want = want.reshape(-1, T.shape[-1])
                    assert got.shape == want.shape
                    if rows.shape[0] == 1 and got.shape[0] == 1:
                        assert np.array_equal(got, want), (dim, m, A.shape)
                        one_row += 1
                    scale = np.max(np.abs(want))
                    assert np.max(np.abs(got - want)) <= 1e-14 * scale, (dim, m, A.shape)
    # at least Leja's four 1 x 1 matrices on all-ones shapes, every (dim, m)
    assert one_row >= (40 if kind == "leja" else 0)


@pytest.mark.parametrize("kind", ["leja", "rleja"])
def test_times_y_rows_unit_growth_denominator_ratio(kind):
    # y h_{l-1} = (d_l / d_{l-1}) h_l + y_{l-1} h_{l-1}, d_i the product
    # of y_i - y_j over j < i, and level l's detail keeps the first part
    x = get_family(kind).nodes(12)
    d = [float(np.prod(x[i] - x[:i])) for i in range(12)]
    for level in range(1, 12):
        got = _times_y_rows(kind, level)
        want = d[level] / d[level - 1]
        assert got.shape == (1, 1)
        assert abs(got[0, 0] - want) <= 1e-14 * abs(want), level


def test_evaluate_grid_matches_scattered():
    f = lambda y: np.array([np.cos(y[0]) + y[1] ** 2, y[0]])
    poly = tensor_interpolant("leja", (2, 3), f)
    ax0 = np.linspace(-1, 1, 4)
    ax1 = np.linspace(-1, 1, 5)
    rows = poly.evaluate_grid([ax0, ax1])
    mesh = point_grid([ax0, ax1])
    assert np.allclose(rows, poly.evaluate(mesh), atol=1e-13)
    det = detail_apply_ct("leja", (2, 3), f)
    assert np.allclose(det.evaluate_grid([ax0, ax1]), det.evaluate(mesh), atol=1e-13)


def test_tensor_grid_coords_order():
    coords = tensor_grid_coords("leja", (1, 1))
    fam = get_family("leja")
    y0, y1 = fam.nodes(2)
    want = np.array([[y0, y0], [y0, y1], [y1, y0], [y1, y1]])
    assert np.array_equal(coords, want)


def test_values_rejected_on_shape_mismatch():
    P = SparseInterpolant("leja", 1)
    with pytest.raises(ValueError):
        P.add_index((0,), values=np.zeros((2, 3)))
    P.add_index((0,), values=np.array([[1.0, 2.0]]))
    with pytest.raises(ValueError):
        P.add_index((1,), values=np.array([[1.0, 2.0, 3.0]]))
    with pytest.raises(TypeError):
        P.add_index((1,))


# -- values at a candidate's fresh points, from the box below it -------------


KINDS = ["leja", "rleja", "clenshaw_curtis"]
# deepest level per axis: Clenshaw-Curtis level 5 already holds 33 nodes
LEVEL_CAP = {"leja": 10, "rleja": 10, "clenshaw_curtis": 5}


def capped_monotone(kind, dim, picks):
    """A downward closed set grown by one reduced-margin candidate per
    pick, taken modulo the candidates within LEVEL_CAP, until none is
    left."""
    s = MonotoneIndexSet(dim)
    s.add((0,) * dim)
    for pick in picks:
        cand = [k for k in s.reduced_margin() if max(k) <= LEVEL_CAP[kind]]
        if not cand:
            break
        s.add(cand[pick % len(cand)])
    return s


def random_valued(kind, indexset, rng, n_out=3):
    """An interpolant on indexset whose function values are random rows."""
    P = SparseInterpolant(kind, indexset.dim)
    for i in indexset:
        P.add_index(i, values=rng.normal(size=(work(kind, i), n_out)))
    return P


def fresh_coords(P, k):
    return P.coords_of(P.new_point_indices(k))


@pytest.mark.parametrize("kind", KINDS)
def test_rows_above_a_candidate_weigh_exactly_zero(kind):
    # at k's fresh points every stored row outside the box j_m <= m(k_m)
    # has a basis weight that is exactly zero: value_below skips them
    rng = np.random.default_rng(41)
    outside_seen = 0
    for dim in (1, 2, 3):
        for n_add in (0, 3, 6, 10):
            s = capped_monotone(kind, dim, rng.integers(0, 10**6, size=n_add))
            P = random_valued(kind, s, rng)
            pts = np.asarray(point_indices(P))
            for k in s.reduced_margin():
                tops = [growth(kind, km) for km in k]
                outside = np.any(pts > tops, axis=1)
                W = P.basis_weights(fresh_coords(P, k))
                assert np.all(W[:, outside] == 0.0), (dim, list(s), k)
                outside_seen += int(outside.sum())
    assert outside_seen > 0


def check_value_below(P, k):
    got = P.value_below(k)
    want = P.evaluate(fresh_coords(P, k))
    assert got.shape == want.shape == (work(P.family.kind, k), P.surpluses().shape[1])
    scale = float(np.max(np.abs(want)))
    assert np.max(np.abs(got - want)) <= 1e-14 * scale, (k, scale)


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(KINDS),
    dim=st.integers(1, 4),
    picks=st.lists(st.integers(0, 10**6), max_size=12),
    seed=st.integers(0, 2**32 - 1),
)
def test_value_below_matches_evaluate(kind, dim, picks, seed):
    s = capped_monotone(kind, dim, picks)
    P = random_valued(kind, s, np.random.default_rng(seed))
    for k in s.reduced_margin():
        check_value_below(P, k)


@pytest.mark.parametrize("kind", KINDS)
def test_value_below_root_and_one_block(kind):
    for dim in (1, 2, 3, 4):
        P = SparseInterpolant(kind, dim)
        with pytest.raises(ValueError):
            P.value_below((0,) * dim)
        P.add_index((0,) * dim, values=np.array([[1.5, -2.0]]))
        # the root's own point weighs its one row by h_0 = 1
        assert np.array_equal(P.value_below((0,) * dim), P.surpluses())
        for m in range(dim):
            # the box of e_m holds the root block only
            check_value_below(P, tuple(int(v == m) for v in range(dim)))
        with pytest.raises(ValueError):
            P.value_below((0,) * (dim + 1))


@pytest.mark.parametrize("kind", KINDS)
def test_add_index_from_f_subtracts_the_full_evaluation(kind):
    # add_index(f=...) takes S u at the new points from value_below; the
    # stored block agrees with values minus the full evaluation
    rng = np.random.default_rng(8)
    f = lambda y: np.array([np.exp(0.3 * y.sum()), np.cos(y[0] - y[-1]), 1.0])
    for dim in (1, 2, 3, 4):
        s = capped_monotone(kind, dim, rng.integers(0, 10**6, size=8))
        P = SparseInterpolant(kind, dim)
        for i in s:
            coords = fresh_coords(P, i)
            fvals = np.vstack([f(y) for y in coords])
            want = fvals - P.evaluate(coords) if P.n_points else fvals
            add_evaluated(P, i, f)
            start, count = P.block_of(i)
            got = P.surpluses()[start : start + count]
            scale = float(np.max(np.abs(fvals)))
            assert np.max(np.abs(got - want)) <= 1e-14 * scale, (dim, i)


@pytest.mark.parametrize("kind", KINDS)
def test_kept_value_below_equals_a_fresh_product(kind):
    # value_below of an addable index is kept, read-only, and returned
    # again; other indices added meanwhile leave it bitwise equal to the
    # product formed from scratch on the grown interpolant
    rng = np.random.default_rng(43)
    for dim in (1, 2, 3):
        s = capped_monotone(kind, dim, rng.integers(0, 10**6, size=6))
        P = random_valued(kind, s, rng)
        kept = {tuple(k): P.value_below(k) for k in s.reduced_margin()}
        for k, v in kept.items():
            assert not v.flags.writeable
            assert P.value_below(k) is v
        others = list(kept)
        for k in others[::2]:
            P.add_index(k, values=rng.normal(size=(work(kind, k), 3)))
        Q = SparseInterpolant.from_jsonable(P.to_jsonable())
        seen = 0
        for k, v in kept.items():
            if P.indexset.is_admissible(k):
                assert P.value_below(k) is v
                assert v.tobytes() == Q.value_below(k).tobytes(), (dim, k)
                seen += 1
        assert seen == len(others[1::2])


@pytest.mark.parametrize("kind", KINDS)
def test_value_below_equals_the_all_axes_product(kind):
    # value_below skips k's level-0 axes, whose tables are [[1.0]]; the
    # product over every axis gives the same bytes
    rng = np.random.default_rng(61)
    seen = 0
    for dim in (1, 2, 3, 4):
        s = capped_monotone(kind, dim, rng.integers(0, 10**6, size=10))
        P = random_valued(kind, s, rng)
        for k in s.reduced_margin() + [(0,) * dim]:
            got = P.value_below(k)
            assert got.tobytes() == value_below_all_axes(P, k).tobytes(), (dim, k)
            seen += 0 in k
    assert seen > 10


@pytest.mark.parametrize("kind", KINDS)
def test_point_indices_of_a_candidate_are_formed_once(kind):
    # new_point_indices forms a new writable array on every call, with the
    # same bytes, and add_index stores the block's rows in that order
    rng = np.random.default_rng(67)
    P = random_valued(kind, capped_monotone(kind, 3, [2, 5, 1]), rng)
    k = tuple(P.indexset.reduced_margin()[0])
    js = P.new_point_indices(k)
    again = P.new_point_indices(k)
    assert js.flags.writeable and again is not js and again.tobytes() == js.tobytes()
    js[:] = -1
    assert P.new_point_indices(k).tobytes() == again.tobytes()
    P.add_index(k, values=rng.normal(size=(work(kind, k), 3)))
    start, count = P.block_of(k)
    assert point_indices(P)[start : start + count] == [tuple(j) for j in again.tolist()]
    assert P.new_point_indices(k).tobytes() == again.tobytes()


@pytest.mark.parametrize("kind", KINDS)
def test_add_index_drops_the_kept_value_below(kind):
    rng = np.random.default_rng(47)
    P = random_valued(kind, capped_monotone(kind, 2, [3, 1, 4]), rng)
    k = tuple(P.indexset.reduced_margin()[0])
    v = P.value_below(k)
    P.add_index(k, values=rng.normal(size=(work(kind, k), 3)))
    assert k not in P._below
    # k is in the set now: its own block counts, and nothing is kept
    w = P.value_below(k)
    assert w is not v and w.flags.writeable and k not in P._below
    check_value_below(P, k)


@pytest.mark.parametrize("kind", KINDS)
def test_value_below_of_a_non_addable_index_is_not_kept(kind):
    # (1, 1) lacks its backward neighbour (0, 1), whose block lies below
    # (1, 1) and arrives later: a kept product would then be stale
    rng = np.random.default_rng(53)
    P = SparseInterpolant(kind, 2)
    for i in [(0, 0), (1, 0)]:
        P.add_index(i, values=rng.normal(size=(work(kind, i), 3)))
    k = (1, 1)
    before = P.value_below(k)
    assert before.flags.writeable and k not in P._below
    P.add_index((0, 1), values=rng.normal(size=(work(kind, (0, 1)), 3)))
    assert not np.allclose(P.value_below(k), before)
    check_value_below(P, k)


@pytest.mark.parametrize("kind", KINDS)
def test_add_index_subtracts_the_kept_product_from_the_given_values(kind):
    # add_index stores values - S u for the values passed, whether or not
    # they match those the kept product was first subtracted from
    rng = np.random.default_rng(59)
    P = random_valued(kind, capped_monotone(kind, 3, [5, 2, 7, 1]), rng)
    k = tuple(P.indexset.reduced_margin()[-1])
    below = P.value_below(k)
    full = P.evaluate(fresh_coords(P, k))
    v = rng.normal(size=below.shape)
    P.add_index(k, values=v)
    start, count = P.block_of(k)
    got = P.surpluses()[start : start + count]
    assert got.tobytes() == (v - below).tobytes()
    scale = max(float(np.max(np.abs(v))), float(np.max(np.abs(full))))
    assert np.max(np.abs(got - (v - full))) <= 1e-14 * scale


@pytest.mark.parametrize("kind", KINDS)
def test_level_basis_is_the_shared_basis_table(kind):
    # one read-only table per level, bitwise the basis_matrix at the
    # level's nodes, serves value_below and the residual's matrices
    fam = get_family(kind)
    for level in range(5 if kind == "clenshaw_curtis" else 9):
        n = growth(kind, level) + 1
        B = _level_basis(kind, level)
        assert B is _level_basis(kind, level)
        assert not B.flags.writeable
        assert B.tobytes() == fam.basis_matrix(fam.nodes(n), n).tobytes()
