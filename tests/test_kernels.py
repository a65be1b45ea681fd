"""The kernels must match independent linear algebra."""

import numpy as np
import pytest

from sparseuq import interp, kernels
from sparseuq.nodes import get_family, growth


def basis_table_loop(ys, nodes, mks, denoms):
    """The per-column double loop basis_table replaced: the oracle.
    Differences are doubled, as in basis_table and its denominators."""
    out = np.empty((ys.shape[0], mks.shape[0]))
    for i in range(mks.shape[0]):
        acc = np.ones(ys.shape[0])
        for j in range(int(mks[i]) + 1):
            if j != i:
                acc *= 2.0 * (ys - nodes[j])
        out[:, i] = acc / denoms[i]
    return out


def unscaled_table(ys, nodes, mks):
    """The basis table from plain node differences, each column's
    numerator and denominator multiplied left to right in j."""
    n = mks.shape[0]
    num = np.ones((ys.shape[0], n))
    den = np.ones(n)
    for j in range(int(mks.max()) + 1):
        cols = np.flatnonzero((mks >= j) & (np.arange(n) != j))
        num[:, cols] *= (ys - nodes[j])[:, None]
        den[cols] *= nodes[cols] - nodes[j]
    return num / den


def _basis_inputs(rng, n_nodes=9, n_pts=40):
    nodes = np.sort(rng.uniform(-1, 1, n_nodes))
    rng.shuffle(nodes)
    mks = np.arange(n_nodes, dtype=np.int64)
    denoms = np.empty(n_nodes)
    for i in range(n_nodes):
        d = 1.0
        for j in range(int(mks[i]) + 1):
            if j != i:
                d *= 2.0 * (nodes[i] - nodes[j])
        denoms[i] = d
    ys = rng.uniform(-1, 1, n_pts)
    return ys, nodes, mks, denoms


def test_basis_table_matches_direct_product():
    rng = np.random.default_rng(1)
    ys, nodes, mks, denoms = _basis_inputs(rng)
    table = kernels.basis_table(ys, nodes, mks, denoms)
    for i in range(len(mks)):
        expect = np.ones_like(ys)
        for j in range(int(mks[i]) + 1):
            if j != i:
                expect *= (ys - nodes[j]) / (nodes[i] - nodes[j])
        assert np.allclose(table[:, i], expect, rtol=1e-12)


@pytest.mark.parametrize("kind", ["leja", "rleja", "clenshaw_curtis"])
def test_basis_table_bitwise_matches_loop(kind):
    # every column keeps the loop's left-to-right product, so the tables
    # must agree bit for bit, also at samples that sit exactly on nodes
    fam = get_family(kind)
    rng = np.random.default_rng(5)
    ys = np.concatenate([rng.uniform(-1, 1, 40), fam.nodes(17), [-1.0, 0.0, 1.0]])
    for n in (1, 2, 3, 4, 5, 8, 9, 17):
        got = fam.basis_matrix(ys, n)
        need = int(fam._mks_arr[:n].max()) + 1
        want = basis_table_loop(
            ys, fam._nodes_arr[:need], fam._mks_arr[:n], fam._denoms_arr[:n]
        )
        assert got.tobytes() == want.tobytes(), n
    for k in range(5):
        mk = growth(fam.kind, k)
        got = fam.lagrange_matrix(ys, k)
        mks = np.full(mk + 1, mk, dtype=np.int64)
        want = basis_table_loop(ys, fam._nodes_arr[: mk + 1], mks, fam._level_denoms(k))
        assert got.tobytes() == want.tobytes(), k


def test_clenshaw_curtis_tables_equal_unscaled_ones():
    # doubling every node difference is exact: up to level 9, where the
    # plain products stay normal, the tables are those of plain differences
    fam = get_family("clenshaw_curtis")
    rng = np.random.default_rng(11)
    for k in range(10):
        n = growth(fam.kind, k) + 1
        nodes = fam.nodes(n)
        ys = np.concatenate([rng.uniform(-1, 1, 20), nodes[-5:], [-1.0, 0.0, 1.0]])
        got = fam.basis_matrix(ys, n)
        assert got.tobytes() == unscaled_table(ys, nodes, fam._mks_arr[:n]).tobytes(), k
        got = fam.lagrange_matrix(ys, k)
        mks = np.full(n, n - 1, dtype=np.int64)
        assert got.tobytes() == unscaled_table(ys, nodes, mks).tobytes(), k


def test_weight_product_matches_loop():
    rng = np.random.default_rng(3)
    table = rng.standard_normal((17, 12))
    table[:, 0] = 1.0  # the constant column, h_0
    cols = rng.integers(0, 12, size=(8, 3)).astype(np.int64)
    got = kernels.weight_product(table, cols)
    for p in range(17):
        for r in range(8):
            expect = np.prod([table[p, c] for c in cols[r]])
            assert got[p, r] == pytest.approx(expect, rel=1e-13)


def weight_product_columns(table, cols):
    """The column gather weight_product replaced: the oracle."""
    out = table[:, cols[:, 0]].copy()
    for m in range(1, cols.shape[1]):
        out *= table[:, cols[:, m]]
    return out


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("dim", [1, 2, 5])
@pytest.mark.parametrize("n_pts, n_rows", [(33, 20), (1, 20), (33, 1)])
def test_weight_product_matches_column_gather(order, dim, n_pts, n_rows):
    rng = np.random.default_rng(dim * 100 + n_pts + n_rows)
    table = rng.standard_normal((n_pts, 6 * dim))
    table[:, 0] = 1.0  # the constant column, h_0
    table = np.asarray(table, order=order)
    cols = rng.integers(0, 6 * dim, size=(n_rows, dim)).astype(np.int64)
    got = kernels.weight_product(table, cols)
    assert got.shape == (n_pts, n_rows)
    assert got.tobytes() == weight_product_columns(table, cols).tobytes()


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("n_pts", [1, 25, 2048])
def test_weight_product_skips_the_constant_column(order, n_pts):
    # all-zero rows (the root) weigh 1 everywhere; a whole column of zeros
    # (an inactive parameter) and zeros between nonzero ids take no factor;
    # points whose support sizes interleave split into runs, which are
    # joined across every gap (1 sample), some gaps (25) or none (2048)
    rng = np.random.default_rng(8)
    table = rng.standard_normal((n_pts, 13))
    table[:, 0] = 1.0
    table = np.asarray(table, order=order)
    cols = rng.integers(1, 13, size=(120, 7)).astype(np.int64)
    cols[:, [0, 3, 6]] = 0
    cols[rng.random((120, 7)) < 0.4] = 0
    cols[40:80][rng.random(40) < 0.8] = 0
    cols[[0, 5, 6, 119]] = 0
    got = kernels.weight_product(table, cols)
    assert got.shape == (n_pts, 120)
    assert got.tobytes() == weight_product_columns(table, cols).tobytes()
    assert np.all(got[:, [0, 5, 6, 119]] == 1.0)
    root = np.zeros((3, 4), dtype=np.int64)
    assert np.all(kernels.weight_product(table, root) == 1.0)


@pytest.mark.parametrize("kind", ["leja", "rleja", "clenshaw_curtis"])
def test_constant_basis_function_is_exactly_one(kind):
    # weight_product never multiplies h_0, which is exact only if h_0 == 1.0
    fam = get_family(kind)
    rng = np.random.default_rng(12)
    ys = np.concatenate([rng.uniform(-1, 1, 1000), fam.nodes(17), [-1.0, 0.0, 1.0]])
    for n in (1, 2, 3, 5, 9, 17):
        assert np.all(fam.basis_matrix(ys, n)[:, 0] == 1.0), n
    assert interp._level_basis(kind, 0).tolist() == [[1.0]]


def test_log_product_values_and_collisions():
    nodes = np.array([-1.0, 0.25, 0.5])
    ys = np.array([-1.0, 0.0, 0.5, 0.75])
    got = kernels.log_product(ys, nodes)
    assert got[0] == -np.inf and got[2] == -np.inf
    for idx in (1, 3):
        expect = np.sum(np.log(np.abs(ys[idx] - nodes)))
        assert got[idx] == pytest.approx(expect, rel=1e-13)


def test_thomas_matches_dense_solve():
    # closed-form P1 solve against LAPACK on the assembled stiffness
    # D^T diag(c) D restricted to the interior nodes
    rng = np.random.default_rng(6)
    for n in (2, 3, 17, 256):
        for batch in (1, 50):
            c = rng.uniform(0.05, 20.0, size=(batch, n))
            rhs = rng.standard_normal(n - 1)
            got = kernels.thomas_solve(c, np.concatenate(([0.0], np.cumsum(rhs))))
            assert got.shape == (batch, n + 1)
            assert np.all(got[:, 0] == 0.0) and np.all(got[:, -1] == 0.0)
            for row, cp in zip(got, c):
                K = np.diag(cp[:-1] + cp[1:]) - np.diag(cp[1:-1], 1) - np.diag(cp[1:-1], -1)
                expect = np.linalg.solve(K, rhs)
                err = np.max(np.abs(row[1:-1] - expect))
                assert err <= 1e-11 * np.max(np.abs(expect))
