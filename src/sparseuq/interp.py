"""Sparse-grid interpolation on monotone index sets.

The interpolant is stored in hierarchical form: every grid point carries
a surplus vector (value minus the value of the interpolant built so far,
taken at insertion time), and evaluation sums surplus times the tensor
product of univariate hierarchical basis functions.  For nested node
families and monotone index sets this sum is interpolatory and equal to
the telescoping sum of tensorized detail operators over the index set.

Basis weights on a tensor grid of samples, given per axis, are formed
without the grid by one routine, _grid_weights: each axis's table is
gathered at the stored rows and the factors multiplied by broadcasting.
It serves each block of the reference error's grid, a tensor sub-grid
(estimators.reference_error), and a new index's fresh points.  There
only the stored blocks below the index carry nonzero basis weights, so
SparseInterpolant.value_below sums those alone, with per-axis tables
taken from memoized per-level basis tables for the index's nonzero
levels only; it gives both add_index and the surplus indicator the
interpolant's values there.  For an addable index that sum cannot
change until the index itself is added, so the interpolant keeps it,
read-only, and add_index takes it back out: a candidate's values are
formed once.  Scattered points (the queries) go through
kernels.weight_product, whose product runs over each stored point's
support: h_0 is exactly 1.0, so level-0 factors are skipped, and a
parameter no stored point uses gets no basis table.

add_index(i, values) is the one way in: values are taken at i's fresh
points, coords_of(new_point_indices(i)), formed like work(i) from
_level_range over i's nonzero levels, and add_index forms the same node
indices again to store them (a product of ranges; keeping them between
the two calls saved too little build time to tell on the benchmark's
workloads).  Every module-level memo here is keyed by (family, level),
none by an index, so none grows with a run.

The surpluses of one index's fresh block are flat rows in C order over
its per-axis fresh counts.  mode_product applies a matrix along one
axis of such rows without leaving the flat form: _times_y_rows carries
a block through "multiply by y_m, then take the next level's detail",
which is how the residual estimator forms its detail from the stored
blocks alone, and _fresh_inverse_rows takes level-grid values to
surpluses.

TensorPoly and TensorDetail are the combination-technique view: a
detail operator applied to grid values is a signed sum of full tensor
interpolants on the level grids one step below the target index.  No
run uses them; they stay here because the benchmark's tracer wraps
TensorDetail.collapsed_values by name, and the test suite's oracles
(tests/oracles.py) build on them as the reference for the hierarchical
form.
"""

import functools
import itertools
import math

import numpy as np

from . import kernels
from .multiindex import MonotoneIndexSet, as_index
from .nodes import get_family, growth

_EINSUM_LETTERS = "abcdefghij"
_DOMAIN_SLACK = 1e-12


def work(kind, i):
    """Number of fresh grid points of i: a product over its nonzero levels."""
    return math.prod(len(_level_range(kind, v)) for v in i if v)


@functools.lru_cache(maxsize=None)
def _level_range(kind, level):
    """Fresh sequence positions of a level: m(level - 1) + 1 .. m(level), 0 .. 0 at 0."""
    lo = growth(kind, level - 1) + 1 if level >= 1 else 0
    return range(lo, growth(kind, level) + 1)


def fresh_ranges(kind, i):
    """Per-dimension sequence-position ranges of the fresh points of i."""
    return [_level_range(kind, im) for im in i]


def grid_points(kind, indexset):
    """All grid node-index tuples of a monotone set, in block order."""
    return [j for i in indexset for j in itertools.product(*fresh_ranges(kind, i))]


def _grid_weights(tables, pts):
    """Tensor weights on the C-order grid of per-axis samples: given per
    dimension a basis table (sample by basis function) and the stored
    rows' node indices pts, W[s, r] = prod_m tables[m][s_m, pts[r, m]].
    Each table's columns are gathered at the rows as whole contiguous
    rows of its transpose, and the factors multiplied by broadcasting in
    the order m = 0, 1, ..., as kernels.weight_product multiplies them.
    A column-major (prod_m len(tables[m]), len(pts)) view; with no
    tables, the one sample weighs 1 at every row."""
    W = None
    for m, t in enumerate(tables):
        g = t.T[pts[:, m]]
        W = g if W is None else (W[:, :, None] * g[:, None, :]).reshape(len(pts), -1)
    return np.ones((1, len(pts))) if W is None else W.T


class SparseInterpolant:
    """Hierarchical sparse-grid interpolant with vector-valued surpluses."""

    def __init__(self, family, dim):
        self.family = get_family(family)
        # the index set checks that dim is an integer of at least 1
        self.indexset = MonotoneIndexSet(dim)
        self.dim = self.indexset.dim
        self._blocks = {}
        # value_below of addable indices, until add_index takes it
        self._below = {}
        # rows in insertion order, appended into capacity-doubling buffers
        self._n = 0
        self._pts = np.empty((0, self.dim), dtype=np.int64)
        self._vals = None

    @property
    def n_points(self):
        return self._n

    def block_of(self, i):
        """(start, count) slice of the points introduced by index i."""
        return self._blocks[tuple(i)]

    def new_point_indices(self, i):
        """(work(i), M) int64 node indices of i's fresh points, C order: the
        product of the fresh ranges of i's nonzero levels, 0 elsewhere.
        A new writable array on every call."""
        i = as_index(i)
        kind, cols = self.family.kind, [m for m, v in enumerate(i) if v]
        rows = list(itertools.product(*(_level_range(kind, i[m]) for m in cols)))
        out = np.zeros((len(rows), self.dim), dtype=np.int64)
        out[:, cols] = rows
        return out

    def coords_of(self, js):
        js = np.asarray(js, dtype=np.int64).reshape(-1, self.dim)
        if js.size == 0:
            return np.empty((0, self.dim))
        return self.family.nodes(int(js.max()) + 1)[js]

    def _append(self, js, rows):
        """Store the node-index rows js with their surplus rows."""
        n, count = self._n, len(rows)
        if self._vals is None:
            self._vals = np.empty((0, rows.shape[1]))
        if n + count > len(self._pts):
            cap = max(2 * len(self._pts), n + count)
            for name in ("_pts", "_vals"):
                old = getattr(self, name)
                grown = np.empty((cap,) + old.shape[1:], dtype=old.dtype)
                grown[:n] = old[:n]
                setattr(self, name, grown)
        self._pts[n : n + count] = js
        self._vals[n : n + count] = rows
        self._n = n + count

    def surpluses(self, start=0):
        """Surplus rows from row start on (insertion order), shape (rows, K).
        A read-only view: rows never change once stored."""
        if self._vals is None:
            return np.empty((0, 0))
        out = self._vals[start : self._n]
        out.flags.writeable = False
        return out

    def node_indices(self):
        """Node-index rows (insertion order), shape (rows, M); read-only."""
        out = self._pts[: self._n]
        out.flags.writeable = False
        return out

    def basis_weights(self, Y):
        """Tensor hierarchical basis values at points Y of shape (P, M) for
        every stored grid point, shape (P, rows): the interpolant is
        basis_weights @ surpluses.  Tables are built only for the active
        parameters, those where some stored point has a nonzero level:
        one constant column h_0 = 1 comes first, then each active
        parameter's columns h_1, h_2, ..., and kernels.weight_product
        multiplies, per stored point, the columns of its nonzero levels
        (its level-0 entries name the constant column).  The result is a
        column-major view (its transpose is C-ordered)."""
        if not self._n:
            raise ValueError("cannot evaluate an empty interpolant")
        Y = np.asarray(Y, dtype=np.float64)
        if Y.ndim != 2 or Y.shape[1] != self.dim:
            raise ValueError("expected points of shape (P, %d)" % self.dim)
        pts = self._pts[: self._n]
        if Y.shape[0] == 0:
            return np.empty((0, pts.shape[0]))
        if np.any(np.abs(Y) > 1.0 + _DOMAIN_SLACK):
            raise ValueError("evaluation point outside [-1, 1]^%d" % self.dim)
        nmax = pts.max(axis=0) + 1
        active = np.flatnonzero(nmax > 1)
        # basis_matrix is a transposed view of a row-major (n, P) array;
        # its h_0 row is dropped, as row 0, all ones, serves every parameter
        rows = [np.ones((1, Y.shape[0]))]
        rows += [self.family.basis_matrix(Y[:, m], int(nmax[m])).T[1:] for m in active]
        # level j >= 1 of parameter m sits past the active tables before it
        offsets = np.cumsum(nmax - 1) - (nmax - 1)
        cols = np.where(pts != 0, pts + offsets, 0)
        return kernels.weight_product(np.concatenate(rows, axis=0).T, cols)

    def value_below(self, k):
        """The interpolant's values at the fresh points of k, shape
        (work(k), K), rows in new_point_indices(k) order.

        Only the stored rows in the box j_m <= m(k_m) for every m are
        summed; the others have basis weights that are exact zeros there.
        A row with j_m > m(k_m) belongs to a level above k_m in dimension
        m, whose node set holds all of level k_m's nodes, so h_{j_m} has
        a factor (y - y_l) for each of them and vanishes at the coordinate
        y_m of every fresh point of k.  In a downward closed set the box
        rows are the blocks i <= k in it.  The fresh points of k are the
        C-order grid of its fresh positions per axis, each a level-k_m
        node, so _grid_weights takes the rows of the memoized table
        _level_basis(kind, k_m) at those positions and no basis table is
        built.  The box weights equal evaluate's bit for bit; the
        product with the surpluses sums fewer terms, so the values agree
        with evaluate at the same coordinates to roundoff.  k need not lie
        in the set or be addable.

        For an addable k the result is kept, read-only, and returned again
        until add_index(k) takes it out.  That is exact: every block i < k
        is already in the set, and an index added before k is not <= k,
        so its rows lie outside k's box.  A k that is not addable is never
        kept, since a block below it may still arrive.
        """
        if not self._n:
            raise ValueError("cannot evaluate an empty interpolant")
        k = as_index(k)
        if len(k) != self.dim:
            raise ValueError("index length %d does not match dimension %d" % (len(k), self.dim))
        kept = self._below.get(k)
        if kept is not None:
            return kept
        kind = self.family.kind
        pts = self._pts[: self._n]
        ranges = fresh_ranges(kind, k)
        box = (pts < [r.stop for r in ranges]).all(axis=1)
        # a level-0 axis has one sample and its table is [[1.0]]: skip it
        supp = [m for m, km in enumerate(k) if km]
        tables = [_level_basis(kind, k[m])[ranges[m].start : ranges[m].stop] for m in supp]
        out = _grid_weights(tables, pts[box][:, supp]) @ self._vals[: self._n][box]
        if self.indexset.is_admissible(k):
            out.flags.writeable = False
            self._below[k] = out
        return out

    def evaluate(self, Y):
        """Evaluate at points Y of shape (P, M); returns shape (P, K)."""
        return self.basis_weights(Y) @ self.surpluses()

    def add_index(self, i, values):
        """Extend the index set by i and store the new surpluses.

        i must keep the set downward closed.  values holds the function
        values at i's fresh points, shape (count, K) (or (count,) for
        K = 1), rows ordered like new_point_indices(i).  Surpluses are
        value minus current-interpolant value, computed before insertion
        from the blocks below i (see value_below, whose kept values for i
        are used and then dropped).
        Returns the number of fresh points.
        """
        i = as_index(i)
        if not self.indexset.is_admissible(i):
            raise ValueError(
                "index %r is not addable (must be the root or reduced-margin)" % (i,)
            )
        newjs = self.new_point_indices(i)
        fvals = np.asarray(values, dtype=np.float64)
        if fvals.ndim == 1:
            fvals = fvals[:, None]
        if fvals.shape[0] != len(newjs):
            raise ValueError("expected %d value rows, got %d" % (len(newjs), fvals.shape[0]))
        if self._vals is not None:
            K = self._vals.shape[1]
            if fvals.shape[1] != K:
                raise ValueError("value length %d does not match stored %d" % (fvals.shape[1], K))
            fvals = fvals - self.value_below(i)
            del self._below[i]
        self.indexset.add(i)
        self._blocks[i] = (self._n, len(newjs))
        self._append(newjs, fvals)
        return len(newjs)

    # -- serialization ------------------------------------------------------

    def point_records(self):
        """The stored points in insertion order, one {"j": ..., "surplus": ...}
        record at a time, formed from the buffers as it is asked for: the
        "points" of to_jsonable, for a writer that streams them."""
        for j, row in zip(self.node_indices(), self.surpluses()):
            yield {"j": j.tolist(), "surplus": row.tolist()}

    def to_jsonable(self, points=True):
        """The interpolant as plain JSON values.  With points False the
        "points" list, which comes last, is left empty for a writer that
        fills it from point_records."""
        return {
            "nodes": self.family.kind,
            "dim": self.dim,
            "indices": self.indexset.to_jsonable(),
            "points": list(self.point_records()) if points else [],
        }

    @classmethod
    def from_jsonable(cls, data):
        """Rebuild from to_jsonable's form.  data["points"] may be any
        iterable of records, read once and in order: a list, or the
        generator cli.load_interpolant decodes from a file one record at a
        time.  A record is an object with a "j" and a "surplus", a
        non-empty flat list of JSON numbers that surplus_row makes a
        float64 row as the record arrives, and every point's has the same
        length.  The (sum of work(k), K) surplus buffer and the point-index
        buffer are allocated at the first record and each record's row is
        written into them, so the rows are held once; records past the
        index set's count are only counted.  Any other form raises
        ValueError naming the key, record or point at fault."""
        nodes, dim, indices, points = (
            _member(data, key) for key in ("nodes", "dim", "indices", "points")
        )
        if not isinstance(indices, list):
            raise ValueError('the interpolant\'s "indices" is not a list: %r' % (indices,))
        if not hasattr(points, "__iter__"):
            raise ValueError('the interpolant\'s "points" is not a list of records: %r' % (points,))
        obj = cls(nodes, dim)
        obj.indexset = MonotoneIndexSet.from_jsonable(indices, dim=obj.dim)
        kind = obj.family.kind
        expected = sum(work(kind, k) for k in obj.indexset)
        grid = set(grid_points(kind, obj.indexset))
        row_of, count = {}, 0
        for count, rec in enumerate(points, 1):
            if count > expected:
                continue
            if not isinstance(rec, dict) or "j" not in rec:
                raise ValueError('point record %d is not an object with a "j"' % count)
            j = as_index(rec["j"])
            if j not in grid:
                raise ValueError("point %r is not on the grid of the index set" % (j,))
            if j in row_of:
                raise ValueError("point %r appears more than once" % (j,))
            row = surplus_row(rec)
            if not row_of:
                obj._pts = np.empty((expected, obj.dim), dtype=np.int64)
                obj._vals = np.empty((expected, len(row)))
            elif len(row) != obj._vals.shape[1]:
                raise ValueError(
                    "point %r has %d surplus values, the first point %d"
                    % (j, len(row), obj._vals.shape[1])
                )
            obj._pts[len(row_of)] = j
            obj._vals[len(row_of)] = row
            row_of[j] = len(row_of)
        if count != expected:
            raise ValueError(
                "point count %d does not match index set (%d expected)" % (count, expected)
            )
        obj._n = count
        # blocks regroup by the unique index whose fresh range holds each
        # point, in new_point_indices order, which block_of readers rely on
        for i in obj.indexset:
            rows = [row_of[tuple(j)] for j in obj.new_point_indices(i).tolist()]
            if rows != list(range(rows[0], rows[0] + len(rows))):
                raise ValueError(
                    "points of index %r are not contiguous in block order" % (tuple(i),)
                )
            obj._blocks[tuple(i)] = (rows[0], len(rows))
        return obj


def _member(data, key):
    try:
        return data[key]
    except KeyError:
        raise ValueError('the interpolant has no "%s"' % key) from None


_NUMBER_TYPES = frozenset((int, float))


def surplus_row(rec):
    """A point record's surplus as a 1-D float64 row.  It must be a
    non-empty flat list of JSON numbers (booleans are not); anything else,
    or no surplus, raises ValueError naming the record's point."""
    s = rec.get("surplus")
    if isinstance(s, list) and s and _NUMBER_TYPES.issuperset(map(type, s)):
        try:
            return np.array(s, dtype=np.float64)
        except OverflowError:
            pass
    j = rec.get("j")
    if "surplus" in rec:
        what = "a surplus that is not a non-empty list of numbers"
    else:
        what = 'no "surplus"'
    raise ValueError("point %r has %s" % (tuple(j) if isinstance(j, list) else j, what))


# ---------------------------------------------------------------------------
# combination-technique view


def tensor_grid_axes(kind, levels):
    """Per-dimension node vectors (sequence order) of a level-grid."""
    fam = get_family(kind)
    return [fam.nodes(growth(kind, lev) + 1) for lev in levels]


class TensorPoly:
    """Full tensor-product Lagrange interpolant on one level grid."""

    def __init__(self, family, levels, values_nd):
        self.family = get_family(family)
        self.levels = as_index(levels)
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


@functools.lru_cache(maxsize=None)
def _level_basis(kind, level):
    """Hierarchical basis table of one level at its own nodes: entry
    [j, i] is h_i at node j, for i, j <= m(level).  It is unit lower
    triangular, since h_i is one at node i and vanishes at the earlier
    nodes of its level.  Read-only: value_below, _fresh_inverse_rows and
    _times_y_rows share it."""
    fam = get_family(kind)
    n = growth(kind, level) + 1
    B = fam.basis_matrix(fam.nodes(n), n)
    B.flags.writeable = False
    return B


@functools.lru_cache(maxsize=None)
def _fresh_inverse_rows(kind, level):
    """Rows of B^-1 at the fresh points of one level, B = _level_basis.
    B is unit lower triangular, so B^-1 follows by forward substitution:
    row i is e_i minus the earlier rows weighted by B[i, :i].  Read-only:
    every caller shares it."""
    r = _level_range(kind, level)
    n = r.stop
    B = _level_basis(kind, level)
    inv = np.eye(n)
    for i in range(1, n):
        inv[i] -= B[i, :i] @ inv[:i]
    rows = inv[r.start :]
    rows.flags.writeable = False
    return rows


@functools.lru_cache(maxsize=None)
def _times_y_rows(kind, level):
    """Multiply by y, then take level `level`'s detail, as a matrix from
    the fresh basis of level - 1 onto the fresh basis of level (>= 1).

    A fresh basis function h of level - 1 times y has degree at most
    m(level - 1) + 1 <= m(level), so the level's interpolant reproduces
    it and the level's detail keeps its surpluses at the level's fresh
    points: the fresh rows of B^-1 applied to the nodal values x * h(x).
    For unit-growth families it is the scalar d_l / d_{l-1}, d_i the
    basis denominators.  Read-only: every caller shares it."""
    prev = _level_range(kind, level - 1)
    B = _level_basis(kind, level)
    x = get_family(kind).nodes(B.shape[0])
    rows = _fresh_inverse_rows(kind, level) @ (x[:, None] * B[:, prev.start : prev.stop])
    rows.flags.writeable = False
    return rows


def mode_product(A, rows, pre):
    """The matrix A applied along one axis of a block's flat C-order rows.

    pre is the product of the axis lengths before that axis: the rows
    are viewed as a (pre, A.shape[1], post) tensor of row vectors and
    one np.matmul maps the middle axis.  Returns flat rows again, in C
    order over the block's shape with that axis now A.shape[0] long.
    For post = 1 np.matmul would run a matrix-vector kernel per slice,
    which sums in another order; (pre, A.shape[1]) times A^T is one
    matrix product, summed as a whole-tensor contraction sums it.
    """
    T = rows.reshape(pre, A.shape[1], -1)
    if T.shape[2] == 1:
        return np.matmul(T[:, :, 0], A.T).reshape(-1, 1)
    return np.matmul(A, T).reshape(-1, rows.shape[-1])


def _fresh_table(kind, level, ys):
    """Fresh-basis columns of one level at the samples ys."""
    r = _level_range(kind, level)
    return get_family(kind).basis_matrix(ys, r.stop)[:, r.start : r.stop]
