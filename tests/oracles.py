"""Independent reference forms the test suite checks the package against,
and the helpers its test files share.  No run, query or CLI command uses
any of it:

* the combination-technique view of a detail (Gerstner & Griebel,
  Computing 71, 2003), built on sparseuq.interp.TensorDetail from a
  per-point evaluator, and HierarchicalBlock, the same detail evaluated
  from its fresh-point surpluses;
* brute-force transcriptions of the index-set definitions, which
  MonotoneIndexSet's incremental caches are checked against;
* Lebesgue constants and detail norms on equispaced samples;
* pointwise coefficients, H1_0 and element L2 row norms, and a Monte
  Carlo reference error.
"""

import math

import numpy as np

from sparseuq.fem import SolveCache
from sparseuq.interp import (
    _EINSUM_LETTERS,
    TensorDetail,
    TensorPoly,
    _fresh_inverse_rows,
    _fresh_table,
    fresh_shape,
    mode_product,
    tensor_grid_axes,
)
from sparseuq.multiindex import MonotoneIndexSet, _check_dims
from sparseuq.nodes import RLEJA, _grow_circle_fractions, get_family

# ---------------------------------------------------------------------------
# interpolation


def point_grid(axes):
    """The C-order tensor grid of the 1-D axes as an array of points."""
    return np.stack([v.ravel() for v in np.meshgrid(*axes, indexing="ij")], axis=-1)


def tensor_grid_coords(kind, levels):
    """Flattened coordinates (C order, first dimension slowest)."""
    return point_grid(tensor_grid_axes(kind, levels))


def tensor_values(kind, levels, g_batch):
    """Values of a batch evaluator on the level grid, shape (n_1..n_M, K)."""
    axes = tensor_grid_axes(kind, levels)
    coords = tensor_grid_coords(kind, levels)
    rows = np.asarray(g_batch(coords), dtype=np.float64)
    if rows.ndim == 1:
        rows = rows[:, None]
    shape = tuple(len(a) for a in axes) + (rows.shape[1],)
    return rows.reshape(shape)


def _as_batch(g):
    def batch(coords):
        return np.vstack(
            [np.atleast_1d(np.asarray(g(y), dtype=np.float64)) for y in coords]
        )

    return batch


def tensor_interpolant(kind, levels, g):
    """Full tensor interpolant of a per-point evaluator g."""
    return TensorPoly(kind, levels, tensor_values(kind, levels, _as_batch(g)))


def detail_apply_ct(kind, i, g):
    """The detail operator applied to g, as an evaluable polynomial."""
    return TensorDetail(kind, i, tensor_values(kind, i, _as_batch(g)))


def detail_terms(det, Y):
    """The TensorDetail det at the points Y by its signed sum of tensor
    interpolants, term by term, without collapsing them."""
    Y = np.asarray(Y, dtype=np.float64).reshape(-1, det.dim)
    out = None
    for sign, levels in det.terms:
        part = det._eval_scatter(levels, Y)
        out = sign * part if out is None else out + sign * part
    return out


class HierarchicalBlock:
    """The detail polynomial spanned by the fresh points of one index.

    Given surpluses on the fresh (tensor) block of index i, evaluates
    sum surplus_j * prod_m h_{j_m}.  This is the hierarchical view of the
    same polynomial TensorDetail represents through signed tensor terms.
    """

    def __init__(self, family, i, surplus_rows):
        self.family = get_family(family)
        self.index = tuple(int(v) for v in i)
        self.dim = len(self.index)
        rows = np.asarray(surplus_rows, dtype=np.float64)
        if rows.ndim == 1:
            rows = rows[:, None]
        shape = fresh_shape(self.family.kind, self.index)
        self.values = rows.reshape(shape + (rows.shape[1],))

    @classmethod
    def from_level_grid(cls, family, i, values_nd):
        """The detail operator of index i applied to level-grid values.

        values_nd has shape (n_1, ..., n_M, K) on the level-i tensor grid,
        as for TensorDetail.  On the first n nodes the hierarchical basis
        table B is unit lower triangular, so B^-1 maps nodal values to
        surpluses; the rows of B^-1 at the fresh points of i, one mode
        product per dimension, leave the detail's surpluses.
        """
        fam = get_family(family)
        shape = fresh_shape(fam.kind, i)
        values = np.asarray(values_nd, dtype=np.float64)
        rows = values.reshape(-1, values.shape[-1])
        for m, km in enumerate(i):
            # axes before m already hold the fresh points of i
            A = _fresh_inverse_rows(fam.kind, int(km))
            rows = mode_product(A, rows, math.prod(shape[:m]))
        return cls(fam, i, rows)

    def evaluate(self, Y):
        Y = np.asarray(Y, dtype=np.float64).reshape(-1, self.dim)
        kind = self.family.kind
        tables = [_fresh_table(kind, km, Y[:, m]) for m, km in enumerate(self.index)]
        subs = ",".join("p" + _EINSUM_LETTERS[m] for m in range(self.dim))
        expr = subs + "," + _EINSUM_LETTERS[: self.dim] + "z->pz"
        return np.einsum(expr, *tables, self.values, optimize=True)


def evaluate_one(P, y):
    """The interpolant P at one parameter point y of shape (M,)."""
    return P.evaluate(np.asarray(y, dtype=np.float64).reshape(1, -1))[0]


def grid_coords(P):
    """Coordinates of P's grid points, rows in insertion order."""
    return P.coords_of(P.point_indices())


def basis_value(kind, i, y):
    """Value of the hierarchical basis function of node i at scalar y."""
    return float(get_family(kind).basis_matrix(np.atleast_1d(float(y)), i + 1)[0, i])


# ---------------------------------------------------------------------------
# node families


def rleja_circle_fractions(n):
    """First n circle angles as exact multiples of pi.

    These are the angles of the greedy sequence on the full unit circle
    whose projection gives the rleja family.
    """
    qs = get_family(RLEJA)._rleja_qs
    _grow_circle_fractions(qs, n)
    return list(qs[:n])


def lebesgue_constant(kind, k, samples=2001):
    """Max of the level-k Lebesgue function over an equispaced grid."""
    if samples < 2:
        raise ValueError("need at least two sample points")
    fam = get_family(kind)
    ys = np.linspace(-1.0, 1.0, samples)
    table = fam.lagrange_matrix(ys, k)
    return float(np.abs(table).sum(axis=1).max())


def detail_operator_values(kind, k, ys):
    """Pointwise sum of absolute detail coefficient functions at level k.

    The detail operator at level k sends f to the difference of its
    level-k and level-(k-1) interpolants; the returned vector holds, for
    each sample, the l1 norm of the coefficient functions, whose max
    estimates the sup operator norm.
    """
    fam = get_family(kind)
    ys = np.asarray(ys, dtype=np.float64)
    if k == 0:
        return np.ones(ys.shape[0])
    cur = fam.lagrange_matrix(ys, k)
    prev = fam.lagrange_matrix(ys, k - 1)
    diff = cur.copy()
    diff[:, : prev.shape[1]] -= prev
    return np.abs(diff).sum(axis=1)


def detail_sup_norm(kind, k, samples=2001):
    """Sample-grid estimate of the sup operator norm of the level-k detail."""
    ys = np.linspace(-1.0, 1.0, samples)
    return float(detail_operator_values(kind, k, ys).max())


# ---------------------------------------------------------------------------
# index sets, by their definitions


def is_monotone(indices):
    """True iff the set of index tuples is downward closed."""
    members = set(indices)
    if not members:
        return True
    _check_dims(members)
    for k in members:
        for m, km in enumerate(k):
            if km > 0:
                pred = k[:m] + (km - 1,) + k[m + 1 :]
                if pred not in members:
                    return False
    return True


def margin(indices):
    """All indices outside the set with at least one backward neighbour inside."""
    members = set(indices)
    if not members:
        raise ValueError("margin of an empty set is undefined")
    dim = _check_dims(members)
    out = set()
    for k in members:
        for m in range(dim):
            nxt = k[:m] + (k[m] + 1,) + k[m + 1 :]
            if nxt not in members:
                out.add(nxt)
    return out


def reduced_margin(indices):
    """Margin indices whose every backward neighbour lies inside the set."""
    members = set(indices)
    out = set()
    for k in margin(members):
        ok = True
        for m, km in enumerate(k):
            if km > 0:
                pred = k[:m] + (km - 1,) + k[m + 1 :]
                if pred not in members:
                    ok = False
                    break
        if ok:
            out.add(k)
    return out


def monotone_envelope(indices, k):
    """Smallest margin subset containing k whose union with the set is monotone.

    Equals the ancestors of k (componentwise <= k) that are missing from
    the set; k must lie in the margin.
    """
    members = set(indices)
    if k not in margin(members):
        raise ValueError("index %r is not in the margin" % (k,))
    out = set()
    stack = [k]
    while stack:
        j = stack.pop()
        if j in out:
            continue
        out.add(j)
        for m, jm in enumerate(j):
            if jm > 0:
                pred = j[:m] + (jm - 1,) + j[m + 1 :]
                if pred not in members and pred not in out:
                    stack.append(pred)
    return out


def random_monotone(rng, dim, n_add):
    s = MonotoneIndexSet(dim)
    s.add((0,) * dim)
    for _ in range(n_add):
        cand = s.reduced_margin()
        s.add(cand[rng.integers(len(cand))])
    return s


def validate_caches(s):
    """Recompute the margin and reduced margin of the MonotoneIndexSet s
    from scratch and compare them with its caches."""
    if not s.members:
        return s._margin == set() and s._reduced == set()
    return s._margin == margin(s.members) and s._reduced == reduced_margin(s.members)


# ---------------------------------------------------------------------------
# finite elements and errors


def coefficient_eval(problem, x, y):
    """a(x, y) for scalar or vector x at one parameter point y."""
    x = np.asarray(x, dtype=np.float64)
    out = np.asarray(problem.a0(x), dtype=np.float64).copy()
    for ym, am in zip(y, problem.terms):
        out += float(ym) * np.asarray(am(x), dtype=np.float64)
    return out if out.ndim else float(out)


def h1_rows(disc, V):
    """H1_0 seminorm of each nodal row on the mesh of disc."""
    dV = np.diff(np.atleast_2d(np.asarray(V, dtype=np.float64)), axis=1)
    return np.sqrt(np.einsum("ij,ij->i", dV, dV) / disc.h)


def l2_element_rows(disc, G):
    """L2 norm of piecewise-constant element rows, shape (P, n)."""
    G = np.atleast_2d(np.asarray(G, dtype=np.float64))
    return np.sqrt(disc.h * np.einsum("ij,ij->i", G, G))


def monte_carlo_error(P, disc, spec, n_samples=2000, seed=0):
    """Sampling-based parametric error of P, at any M."""
    rng = np.random.default_rng(seed)
    Y = rng.uniform(-1.0, 1.0, size=(int(n_samples), P.dim))
    norms = h1_rows(disc, SolveCache(disc).solve_y(Y) - P.evaluate(Y))
    if spec.p == math.inf:
        return float(np.max(norms))
    return float(np.mean(norms**spec.p) ** (1.0 / spec.p))
