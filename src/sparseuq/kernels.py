"""Low-level numerical kernels in NumPy.

The hot loops of the package: hierarchical basis tables, tensor-product
weights, the greedy node objective and the closed-form P1 stiffness
solve.
"""

import numpy as np

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
# P1 stiffness solve
#
# The 1-D P1 stiffness with element conductances c = a/h is D^T diag(c) D,
# D the element difference operator on the interior nodes.  The element
# fluxes sigma = c * Du therefore satisfy D^T sigma = load, so
# sigma = s0 - F with F = [0, cumsum(load)]; the zero boundary value at
# x = 1, sum(sigma / c) = 0, fixes s0 = sum(F / c) / sum(1 / c), and
# u = [0, cumsum(sigma / c)].  Each row of c is solved independently and
# by the same sequence of operations, so a row's solution does not depend
# on the batch it came in.  The name stays thomas_solve because the
# benchmark's per-layer trace wraps the kernel by name.


def thomas_solve(c, rhs):
    """Nodal solutions, shape (P, n+1) with zero end values, for the
    conductance rows c of shape (P, n) and the interior load rhs (n-1,)."""
    n = c.shape[1]
    F = np.zeros(n)
    np.cumsum(rhs, out=F[1:])
    w = np.reciprocal(c)
    u = np.empty((c.shape[0], n + 1))
    slope = u[:, 1:]
    np.multiply(w, F, out=slope)
    s0 = slope.sum(axis=1) / w.sum(axis=1)
    w *= s0[:, None]
    np.subtract(w, slope, out=slope)
    np.cumsum(slope, axis=1, out=slope)
    u[:, 0] = 0.0
    u[:, -1] = 0.0
    return u
