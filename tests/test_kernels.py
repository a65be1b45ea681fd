"""The kernels must match independent linear algebra."""

import numpy as np
import pytest

from sparseuq import kernels


def _basis_inputs(rng, n_nodes=9, n_pts=40):
    nodes = np.sort(rng.uniform(-1, 1, n_nodes))
    rng.shuffle(nodes)
    mks = np.arange(n_nodes, dtype=np.int64)
    denoms = np.empty(n_nodes)
    for i in range(n_nodes):
        d = 1.0
        for j in range(int(mks[i]) + 1):
            if j != i:
                d *= nodes[i] - nodes[j]
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


def test_weight_product_matches_loop():
    rng = np.random.default_rng(3)
    table = rng.standard_normal((17, 12))
    cols = rng.integers(0, 12, size=(8, 3)).astype(np.int64)
    got = kernels.weight_product(table, cols)
    for p in range(17):
        for r in range(8):
            expect = np.prod([table[p, c] for c in cols[r]])
            assert got[p, r] == pytest.approx(expect, rel=1e-13)


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
            got = kernels.thomas_solve(c, rhs)
            assert got.shape == (batch, n + 1)
            assert np.all(got[:, 0] == 0.0) and np.all(got[:, -1] == 0.0)
            for row, cp in zip(got, c):
                K = np.diag(cp[:-1] + cp[1:]) - np.diag(cp[1:-1], 1) - np.diag(cp[1:-1], -1)
                expect = np.linalg.solve(K, rhs)
                err = np.max(np.abs(row[1:-1] - expect))
                assert err <= 1e-11 * np.max(np.abs(expect))
