"""Low-level numerical kernels in NumPy/SciPy.

The hot loops of the package: hierarchical basis tables, tensor-product
weights, the greedy node objective and the tridiagonal solve.
"""

import numpy as np
from scipy.linalg import solve_banded

# perfbench/rep.py reads this flag for its runtime line
USE_NUMBA = False


# ---------------------------------------------------------------------------
# hierarchical Lagrange basis table
#
# Column i holds h_i(ys) = prod_{j <= mks[i], j != i} (ys - nodes[j]) / denoms[i]
# where mks[i] is the last node index of the level that introduced node i and
# denoms[i] = prod_{j <= mks[i], j != i} (nodes[i] - nodes[j]).


def basis_table(ys, nodes, mks, denoms):
    npts = ys.shape[0]
    n = mks.shape[0]
    out = np.empty((npts, n))
    for i in range(n):
        acc = np.ones(npts)
        for j in range(int(mks[i]) + 1):
            if j != i:
                acc *= ys - nodes[j]
        out[:, i] = acc / denoms[i]
    return out


# ---------------------------------------------------------------------------
# tensor-product weights
#
# W[p, r] = prod_m table[p, cols[r, m]] where table stacks the per-dimension
# basis tables column-wise and cols holds absolute column ids per grid point.


def weight_product(table, cols):
    out = table[:, cols[:, 0]].copy()
    for m in range(1, cols.shape[1]):
        out *= table[:, cols[:, m]]
    return out


# ---------------------------------------------------------------------------
# greedy node placement objective
#
# out[p] = sum_i log |ys[p] - nodes[i]|, with -inf at exact collisions.


def log_product(ys, nodes, chunk=1 << 18):
    out = np.empty(ys.shape[0])
    for a in range(0, ys.shape[0], chunk):
        b = min(a + chunk, ys.shape[0])
        d = np.abs(ys[a:b, None] - nodes[None, :])
        with np.errstate(divide="ignore"):
            out[a:b] = np.sum(np.log(d), axis=1)
    return out


# ---------------------------------------------------------------------------
# tridiagonal solve
#
# lower[0] and upper[-1] are ignored.  Delegates to the LAPACK banded solver.


def thomas_solve(lower, diag, upper, rhs):
    n = diag.shape[0]
    ab = np.zeros((3, n))
    ab[0, 1:] = upper[:-1]
    ab[1, :] = diag
    ab[2, :-1] = lower[1:]
    return solve_banded((1, 1), ab, rhs, overwrite_ab=True, check_finite=False)
