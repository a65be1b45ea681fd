"""Low-level numerical kernels in NumPy.

The hot loops of the package: hierarchical basis tables, tensor-product
weights, the greedy node objective and the closed-form P1 stiffness
solve with its element slopes.
"""

import numpy as np

# perfbench/rep.py reads this flag for its runtime line
USE_NUMBA = False


# ---------------------------------------------------------------------------
# hierarchical Lagrange basis table
#
# Column i holds h_i(ys) = prod_{j <= mks[i], j != i} 2 (ys - nodes[j]) / denoms[i]
# where mks[i] is the last node index of the level that introduced node i and
# denoms[i] = prod_{j <= mks[i], j != i} 2 (nodes[i] - nodes[j]).  The
# factor 2 cancels, but without it the products of differences of the
# 1,025 Clenshaw-Curtis nodes of level 10 underflow to 0 (the logarithmic
# capacity of [-1, 1] is 1/2, so products of m differences shrink like
# 2^-m); scaling by a power of two is exact, so wherever nothing
# underflowed the table is bitwise the unscaled one, and 2 ys - 2 nodes[j]
# is 2 (ys - nodes[j]) without a pass over the differences.  Node i lies
# in its own level and levels are nested, so mks is nondecreasing with
# mks[i] >= i.  The factors j < i of all columns are one running product;
# a factor j > i enters the columns lo..j-1, lo the first column whose mks
# reaches j, which is none for unit-growth families (mks[i] == i).  Each
# column is still multiplied left to right in j, starting from 1.0, then
# divided once, so the table is bitwise that of the per-column product.
# The table is built transposed, one row per column, so every update is a
# contiguous row (np.cumprod across rows runs one short accumulation per
# sample and was ten times slower), and returned as a transposed view.


def basis_table(ys, nodes, mks, denoms):
    n = mks.shape[0]
    diffs = (2.0 * ys)[None, :] - (2.0 * nodes)[:, None]
    out = np.empty((n, ys.shape[0]))
    out[:1] = 1.0
    for i in range(1, n):
        np.multiply(out[i - 1], diffs[i - 1], out=out[i])
    js = np.arange(nodes.shape[0])
    los = np.searchsorted(mks, js)
    for j in np.flatnonzero(los < js):
        out[los[j] : j] *= diffs[j]
    out /= denoms[:, None]
    return out.T


# ---------------------------------------------------------------------------
# tensor-product weights
#
# W[p, r] = prod_m table[p, cols[r, m]] where table stacks the per-dimension
# basis tables column-wise and cols holds absolute column ids per grid point.
# The product runs on the transpose: row t of table.T holds basis function t
# at every sample, so each factor is a gather of whole contiguous rows, not
# of P scattered columns.  For the column-major (P, T) view that
# SparseInterpolant.basis_weights passes, table.T is C-ordered already and
# is not copied.  The factors are multiplied in the same order m = 0, 1, ...
# as a column gather would, so W is bitwise the same; it is returned as a
# column-major (P, N) view.


def weight_product(table, cols):
    rows = np.ascontiguousarray(table.T)
    out = rows[cols[:, 0]]
    for m in range(1, cols.shape[1]):
        out *= rows[cols[:, m]]
    return out.T


# ---------------------------------------------------------------------------
# greedy node placement objective
#
# out[p] = sum_i log |ys[p] - nodes[i]|, with -inf at exact collisions,
# formed _LOG_CHUNK samples at a time to bound the table of differences.
# Only the Leja search past the tabulated points (nodes._LEJA_TABLE, the
# first 64) calls it, so a run that stays within level 63 never does.

_LOG_CHUNK = 1 << 18


def log_product(ys, nodes):
    out = np.empty(ys.shape[0])
    for a in range(0, ys.shape[0], _LOG_CHUNK):
        b = min(a + _LOG_CHUNK, ys.shape[0])
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
# x = 1, sum(sigma / c) = 0, fixes s0 = sum(F / c) / sum(1 / c), and the
# element slopes are Du = sigma / c.  s0 does not change when c is
# scaled, so the slopes for c = a are the element gradients
# (s0 - F) / a, and u = [0, cumsum(slopes for c = a/h)].  Each row of c
# is solved independently and by the same sequence of operations, so a
# row's solution does not depend on the batch it came in.  The name
# thomas_solve stays because the benchmark's per-layer trace wraps the
# kernel by name.


def p1_slopes(c, F, out):
    """Element slopes (s0 - F) / c of the P1 solutions for the
    conductance rows c of shape (P, n) and the cumulative load F (n,),
    written into out (P, n) and returned."""
    w = np.reciprocal(c)
    np.multiply(w, F, out=out)
    s0 = out.sum(axis=1) / w.sum(axis=1)
    w *= s0[:, None]
    np.subtract(w, out, out=out)
    return out


def thomas_solve(c, rhs):
    """Nodal solutions, shape (P, n+1) with zero end values, for the
    conductance rows c of shape (P, n) and the interior load rhs (n-1,)."""
    n = c.shape[1]
    F = np.zeros(n)
    np.cumsum(rhs, out=F[1:])
    u = np.empty((c.shape[0], n + 1))
    slope = p1_slopes(c, F, u[:, 1:])
    np.cumsum(slope, axis=1, out=slope)
    u[:, 0] = 0.0
    u[:, -1] = 0.0
    return u
