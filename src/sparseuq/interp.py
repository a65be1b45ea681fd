"""Sparse-grid interpolation on monotone index sets.

The interpolant is stored in hierarchical form: every grid point carries
a surplus vector (value minus the value of the interpolant built so far,
taken at insertion time), and evaluation sums surplus times the tensor
product of univariate hierarchical basis functions.  For nested node
families and monotone index sets this sum is interpolatory and equal to
the telescoping sum of tensorized detail operators over the index set.

HierarchicalBlock holds one detail polynomial in the same hierarchical
form, either from stored surpluses or, through from_level_grid, from
values on a full level grid; the residual estimator measures it there.

TensorPoly and TensorDetail provide the combination-technique view: a
detail operator applied to a function is a signed sum of full tensor
interpolants on the level grids one step below the target index.  Both
views represent the same polynomial; the combination technique is the
tests' reference for the hierarchical form.
"""

import functools
import itertools

import numpy as np
from scipy.linalg import solve_triangular

from . import kernels
from .multiindex import MonotoneIndexSet
from .nodes import get_family, growth

_EINSUM_LETTERS = "abcdefghij"
_DOMAIN_SLACK = 1e-12


def work(kind, i):
    """Number of fresh grid points a multi-index contributes.

    Product over dimensions of m(i_m) - m(i_m - 1), where the growth
    function is extended by m(-1) = -1 so a zero component contributes
    one point.
    """
    w = 1
    for im in i:
        prev = growth(kind, im - 1) if im >= 1 else -1
        w *= growth(kind, im) - prev
    return w


def fresh_ranges(kind, i):
    """Per-dimension sequence-position ranges of the fresh points of i."""
    out = []
    for im in i:
        lo = growth(kind, im - 1) + 1 if im >= 1 else 0
        hi = growth(kind, im)
        out.append(range(lo, hi + 1))
    return out


def grid_points(kind, indexset):
    """All grid node-index tuples of a monotone set, in block order."""
    js = []
    for i in indexset:
        js.extend(itertools.product(*fresh_ranges(kind, i)))
    return js


class SparseInterpolant:
    """Hierarchical sparse-grid interpolant with vector-valued surpluses."""

    def __init__(self, family, dim):
        self.family = get_family(family)
        self.dim = int(dim)
        self.indexset = MonotoneIndexSet(self.dim)
        self._pt_rows = []
        self._surplus_rows = []
        self._blocks = {}
        self._row_of = {}
        self._K = None
        self._pt_arr = None
        self._val_arr = None
        # per-dimension polynomial degree: the last node position on the grid
        self.degrees = [0] * self.dim

    @property
    def n_points(self):
        return len(self._pt_rows)

    @property
    def n_outputs(self):
        return self._K

    def point_indices(self):
        return list(self._pt_rows)

    def block_of(self, i):
        """(start, count) slice of the points introduced by index i."""
        return self._blocks[tuple(i)]

    def new_point_indices(self, i):
        """The fresh node-index tuples index i would introduce (lex order)."""
        return list(itertools.product(*fresh_ranges(self.family.kind, i)))

    def coords_of(self, js):
        js = np.asarray(js, dtype=np.int64).reshape(-1, self.dim)
        if js.size == 0:
            return np.empty((0, self.dim))
        self.family.ensure_nodes(int(js.max()) + 1)
        return self.family._nodes_arr[js]

    def grid_coords(self):
        return self.coords_of(np.asarray(self._pt_rows, dtype=np.int64))

    def _stacked(self):
        if self._pt_arr is None or self._pt_arr.shape[0] != len(self._pt_rows):
            self._pt_arr = np.asarray(self._pt_rows, dtype=np.int64)
            self._val_arr = np.asarray(self._surplus_rows)
        return self._pt_arr, self._val_arr

    def surpluses(self, start=0):
        """Surplus rows from row start on (insertion order), shape (rows, K)."""
        return self._stacked()[1][start:]

    def basis_weights(self, Y, start=0):
        """Tensor hierarchical basis values at points Y of shape (P, M) for
        the grid points from row start on, shape (P, rows): the
        interpolant's part from those rows is basis_weights @ surpluses."""
        if not self._pt_rows:
            raise ValueError("cannot evaluate an empty interpolant")
        Y = np.asarray(Y, dtype=np.float64)
        if Y.ndim != 2 or Y.shape[1] != self.dim:
            raise ValueError("expected points of shape (P, %d)" % self.dim)
        pts = self._stacked()[0][start:]
        if Y.shape[0] == 0:
            return np.empty((0, pts.shape[0]))
        if np.any(np.abs(Y) > 1.0 + _DOMAIN_SLACK):
            raise ValueError("evaluation point outside [-1, 1]^%d" % self.dim)
        nmax = pts.max(axis=0) + 1
        tables = []
        offsets = np.zeros(self.dim, dtype=np.int64)
        total = 0
        for m in range(self.dim):
            offsets[m] = total
            tables.append(self.family.basis_matrix(Y[:, m], int(nmax[m])))
            total += int(nmax[m])
        table = np.concatenate(tables, axis=1)
        cols = np.ascontiguousarray(pts + offsets[None, :])
        return kernels.weight_product(table, cols)

    def evaluate(self, Y):
        """Evaluate at points Y of shape (P, M); returns shape (P, K)."""
        return self.basis_weights(Y) @ self.surpluses()

    def evaluate_one(self, y):
        return self.evaluate(np.asarray(y, dtype=np.float64).reshape(1, -1))[0]

    def add_index(self, i, f=None, values=None):
        """Extend the index set by i and store the new surpluses.

        i must keep the set downward closed.  The new function values come
        either from the per-point evaluator f or from a precomputed array
        ``values`` of shape (count, K) ordered like new_point_indices(i).
        Surpluses are value minus current-interpolant value, computed
        before insertion.  Returns the number of fresh points.
        """
        i = tuple(int(v) for v in i)
        if not self.indexset.is_admissible(i):
            raise ValueError(
                "index %r is not addable (must be the root or reduced-margin)" % (i,)
            )
        newjs = self.new_point_indices(i)
        coords = self.coords_of(np.asarray(newjs, dtype=np.int64))
        if values is not None:
            fvals = np.asarray(values, dtype=np.float64)
            if fvals.ndim == 1:
                fvals = fvals[:, None]
            if fvals.shape[0] != len(newjs):
                raise ValueError(
                    "expected %d value rows, got %d" % (len(newjs), fvals.shape[0])
                )
        elif f is not None:
            fvals = np.vstack(
                [np.atleast_1d(np.asarray(f(y), dtype=np.float64)) for y in coords]
            )
        else:
            raise ValueError("either f or values must be given")
        if self._K is None:
            surplus = fvals.copy()
        else:
            if fvals.shape[1] != self._K:
                raise ValueError(
                    "value length %d does not match stored %d"
                    % (fvals.shape[1], self._K)
                )
            surplus = fvals - self.evaluate(coords)
        start = len(self._pt_rows)
        self.indexset.add(i)
        self._widen(i)
        self._blocks[i] = (start, len(newjs))
        for j, row in zip(newjs, surplus):
            self._row_of[j] = len(self._pt_rows)
            self._pt_rows.append(j)
            self._surplus_rows.append(np.ascontiguousarray(row))
        self._K = surplus.shape[1]
        self._pt_arr = None
        return len(newjs)

    def _widen(self, i):
        kind = self.family.kind
        self.degrees = [max(d, growth(kind, im)) for d, im in zip(self.degrees, i)]

    # -- serialization ------------------------------------------------------

    def to_jsonable(self):
        return {
            "nodes": self.family.kind,
            "dim": self.dim,
            "indices": self.indexset.to_jsonable(),
            "points": [
                {"j": list(j), "surplus": [float(v) for v in row]}
                for j, row in zip(self._pt_rows, self._surplus_rows)
            ],
        }

    @classmethod
    def from_jsonable(cls, data):
        obj = cls(data["nodes"], data["dim"])
        obj.indexset = MonotoneIndexSet.from_jsonable(data["indices"], dim=obj.dim)
        kind = obj.family.kind
        expected = sum(work(kind, tuple(k)) for k in obj.indexset)
        if len(data["points"]) != expected:
            raise ValueError(
                "point count %d does not match index set (%d expected)"
                % (len(data["points"]), expected)
            )
        grid = set(grid_points(kind, obj.indexset))
        for rec in data["points"]:
            j = tuple(int(v) for v in rec["j"])
            if j not in grid:
                raise ValueError("point %r is not on the grid of the index set" % (j,))
            if j in obj._row_of:
                raise ValueError("point %r appears more than once" % (j,))
            obj._row_of[j] = len(obj._pt_rows)
            obj._pt_rows.append(j)
            obj._surplus_rows.append(np.asarray(rec["surplus"], dtype=np.float64))
        obj._K = len(data["points"][0]["surplus"]) if data["points"] else None
        # blocks regroup by the unique index whose fresh range holds each point
        for i in obj.indexset:
            js = itertools.product(*fresh_ranges(kind, i))
            rows = sorted(obj._row_of[j] for j in js)
            if rows[-1] - rows[0] + 1 != len(rows):
                raise ValueError("points of index %r are not contiguous" % (tuple(i),))
            obj._blocks[tuple(i)] = (rows[0], len(rows))
            obj._widen(i)
        return obj


# ---------------------------------------------------------------------------
# combination-technique view


def tensor_grid_axes(kind, levels):
    """Per-dimension node vectors (sequence order) of a level-grid."""
    fam = get_family(kind)
    return [fam.nodes(growth(kind, lev) + 1) for lev in levels]


def tensor_grid_coords(kind, levels):
    """Flattened coordinates (C order, first dimension slowest)."""
    axes = tensor_grid_axes(kind, levels)
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([a.ravel() for a in mesh], axis=-1)


def tensor_values(kind, levels, g_batch):
    """Values of a batch evaluator on the level grid, shape (n_1..n_M, K)."""
    axes = tensor_grid_axes(kind, levels)
    coords = tensor_grid_coords(kind, levels)
    rows = np.asarray(g_batch(coords), dtype=np.float64)
    if rows.ndim == 1:
        rows = rows[:, None]
    shape = tuple(len(a) for a in axes) + (rows.shape[1],)
    return rows.reshape(shape)


class TensorPoly:
    """Full tensor-product Lagrange interpolant on one level grid."""

    def __init__(self, family, levels, values_nd):
        self.family = get_family(family)
        self.levels = tuple(int(v) for v in levels)
        self.dim = len(self.levels)
        self.values = np.asarray(values_nd, dtype=np.float64)
        if self.values.ndim != self.dim + 1:
            raise ValueError("values must have one axis per dimension plus output")

    def _prefix(self, levels):
        slicer = tuple(
            slice(0, growth(self.family.kind, lev) + 1) for lev in levels
        )
        return self.values[slicer]

    def _chain(self, levels, axes):
        """Contract the coefficient tensor with per-dimension Lagrange
        tables; sample axes come out reversed: (p_M, ..., p_1, K)."""
        T = self._prefix(levels)
        for m in range(self.dim):
            L = self.family.lagrange_matrix(
                np.ascontiguousarray(axes[m], dtype=np.float64), levels[m]
            )
            T = np.tensordot(L, T, axes=(1, m))
        return T

    def _eval_grid(self, levels, axes):
        T = self._chain(levels, axes)
        perm = tuple(range(self.dim - 1, -1, -1)) + (self.dim,)
        T = np.transpose(T, perm)
        return T.reshape(-1, self.values.shape[-1])

    def _eval_scatter(self, levels, Y):
        if self.dim > len(_EINSUM_LETTERS):
            raise ValueError("dimension too large for scattered evaluation")
        Ls = [
            self.family.lagrange_matrix(
                np.ascontiguousarray(Y[:, m]), levels[m]
            )
            for m in range(self.dim)
        ]
        subs = ",".join("p" + _EINSUM_LETTERS[m] for m in range(self.dim))
        expr = subs + "," + _EINSUM_LETTERS[: self.dim] + "z->pz"
        return np.einsum(expr, *Ls, self._prefix(levels), optimize=True)

    def evaluate_grid(self, axes):
        """Rows on the tensor grid spanned by the 1-D sample axes (C order)."""
        return self._eval_grid(self.levels, axes)

    def evaluate(self, Y):
        Y = np.asarray(Y, dtype=np.float64).reshape(-1, self.dim)
        return self._eval_scatter(self.levels, Y)


class TensorDetail(TensorPoly):
    """Tensorized detail operator applied to grid values, via the
    combination technique: the signed sum over corner shifts j in {0,1}^M
    of the tensor interpolant at level i - j, skipping shifts that would
    go below level zero.

    The signed terms are collapsed once into a single level-i tensor
    polynomial (the detail lies in that space, so re-interpolating it on
    the level grid is exact); evaluation then costs one tensor
    contraction chain instead of up to 2^M.
    """

    def __init__(self, family, i, values_nd):
        super().__init__(family, i, values_nd)
        self.index = self.levels
        self.terms = []
        for shift in itertools.product((0, 1), repeat=self.dim):
            levels = tuple(a - b for a, b in zip(self.index, shift))
            if any(v < 0 for v in levels):
                continue
            sign = -1.0 if sum(shift) % 2 else 1.0
            self.terms.append((sign, levels))
        self._collapsed = None

    def _collapse(self):
        if self._collapsed is None:
            axes = tensor_grid_axes(self.family.kind, self.levels)
            acc = np.zeros_like(self.values)
            for sign, levels in self.terms:
                if levels == self.levels:
                    acc += sign * self.values
                else:
                    part = self._eval_grid(levels, axes)
                    acc += sign * part.reshape(acc.shape)
            self._collapsed = TensorPoly(self.family, self.levels, acc)
        return self._collapsed

    def evaluate_grid(self, axes):
        return self._collapse().evaluate_grid(axes)

    def collapsed_values(self):
        """The detail's coefficient tensor on the level-i grid."""
        return self._collapse().values

    def evaluate(self, Y):
        return self._collapse().evaluate(Y)

    def evaluate_terms(self, Y):
        """Direct signed-sum evaluation, kept as a cross-check path."""
        Y = np.asarray(Y, dtype=np.float64).reshape(-1, self.dim)
        out = None
        for sign, levels in self.terms:
            part = self._eval_scatter(levels, Y)
            out = sign * part if out is None else out + sign * part
        return out


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


@functools.lru_cache(maxsize=None)
def _fresh_inverse_rows(kind, level):
    """Rows of B^-1 at the fresh points of one level, B the hierarchical
    basis table on the level's nodes.  Read-only: every caller shares it."""
    fam = get_family(kind)
    r = fresh_ranges(kind, (level,))[0]
    n = r.stop
    B = fam.basis_matrix(fam.nodes(n), n)
    rows = solve_triangular(
        B, np.eye(n)[:, r.start :], trans="T", lower=True, unit_diagonal=True
    ).T
    rows.flags.writeable = False
    return rows


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
        self.ranges = fresh_ranges(self.family.kind, self.index)
        shape = tuple(len(r) for r in self.ranges)
        rows = np.asarray(surplus_rows, dtype=np.float64)
        if rows.ndim == 1:
            rows = rows[:, None]
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
        T = np.asarray(values_nd, dtype=np.float64)
        for m, km in enumerate(i):
            if growth(fam.kind, km) == 0:
                continue  # one node: its value is its surplus
            rows = _fresh_inverse_rows(fam.kind, int(km))
            T = np.moveaxis(np.tensordot(rows, T, axes=(1, m)), 0, m)
        return cls(fam, i, T.reshape(-1, T.shape[-1]))

    def _tables(self, axes):
        out = []
        for m in range(self.dim):
            r = self.ranges[m]
            table = self.family.basis_matrix(
                np.ascontiguousarray(axes[m], dtype=np.float64), r.stop
            )
            out.append(table[:, r.start : r.stop])
        return out

    def chain_raw(self, axes):
        T = self.values
        for m, table in enumerate(self._tables(axes)):
            T = np.tensordot(table, T, axes=(1, m))
        return T

    def evaluate_grid(self, axes):
        T = self.chain_raw(axes)
        perm = tuple(range(self.dim - 1, -1, -1)) + (self.dim,)
        return np.transpose(T, perm).reshape(-1, self.values.shape[-1])

    def evaluate(self, Y):
        Y = np.asarray(Y, dtype=np.float64).reshape(-1, self.dim)
        tables = self._tables([Y[:, m] for m in range(self.dim)])
        subs = ",".join("p" + _EINSUM_LETTERS[m] for m in range(self.dim))
        expr = subs + "," + _EINSUM_LETTERS[: self.dim] + "z->pz"
        return np.einsum(expr, *tables, self.values, optimize=True)
