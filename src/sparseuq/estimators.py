"""Error functionals driving the adaptive loops.

Two families of per-index indicators: the residual estimator, which
applies a detail operator to the flux of the current interpolant and
needs no new PDE solves, and the surplus indicator, which solves the
PDE at the candidate's fresh grid points.  The residual detail follows
from the stored surplus blocks of the candidate's backward neighbours
alone, the surplus detail from the new solves.  Either detail is a
block of flat surplus rows on the candidate's fresh points, formed by
interp.mode_product and measured by one function, _euclidean_lp_norm,
in a parametric L^p norm over the box for p = 2 or p = inf: exact
tensor Gauss quadrature for p = 2 (uniform product measure, weights
halved), a tensor sample-grid maximum for p = inf (a lower bound of
the sup).  A p = 2 value also bounds the L^p norm for every
1 <= p <= 2 (Jensen).  For Leja and R-Leja every fresh block is one
row c times prod_m h_{k_m}(y_m), so its norm factorises exactly into
||c||_2 times a product of memoized 1-D norms of the h_{k_m}: at
p = inf the maximum of a product of nonnegative per-axis factors over
a tensor grid is the product of the per-axis maxima.  Multi-point
blocks (Clenshaw-Curtis) are measured by one loop of mode products, one
per axis, whose matrices are memoized per level: the Gram matrices of
the level's fresh basis at p = 2, its fresh basis table on the sample
axis at p = inf.
"""

import functools
import heapq
import itertools
import math
import time
from collections import defaultdict
from dataclasses import asdict, dataclass, fields

import numpy as np

from .fem import check_keys, config_mapping, config_number
from .interp import _fresh_table, _grid_weights, _level_range, _times_y_rows, mode_product, work
from .multiindex import as_index, backward, forward
from .nodes import growth

_INF_ALIASES = {"inf", "infinity", "sup", "max"}
# most parameters of reference_error's tensor grid: at Gauss order 20 it has
# 160,000 points at M = 4 (1.3 MB of norms per due row), 20 times more per extra one
MAX_REFERENCE_DIM = 4
# most reference grid rows per block of reference_error's pass (_row_blocks),
# unless the last axis alone is longer: at mesh 256 such a block is at most
# 512 KB and stays in cache; on gn-ref-inf-m3 a sweep of 64..2048 rows on a
# 2-core host was fastest at 128-256, 40% slower at 2048
_ROW_BLOCK = 256


def _parse_p(p):
    # inf by name, or as a float (math.inf, JSON Infinity), which
    # config_number would refuse as not finite
    if (isinstance(p, str) and p.strip().lower() in _INF_ALIASES) or p == math.inf:
        return math.inf
    p = config_number("norm.p", p)
    if p != 2.0:
        raise ValueError("norm.p must be 2 or inf, got %r" % p)
    return p


@dataclass(eq=False)
class NormSpec:
    """How to measure parametric L^p norms over the box, for p = 2 or inf.

    The norm section of a config: its keys are the fields, and their
    defaults are the section's.  sup_points_per_dim (>= 2) and
    sup_budget (>= 2) control the p = inf sample grid (per-dimension
    resolution, capped so the total grid stays within budget; a grid of
    fewer than 4 points per axis is refused, see sup_points_per_dim).
    The p = inf value is the maximum over that grid, a lower
    bound of the sup, so total / a_min certifies the error only on the
    grid.  For p = 2 the Gauss order is derived from the integrand
    degree, so the quadrature is exact.
    """

    p: float = 2
    sup_points_per_dim: int = 33
    sup_budget: int = 40000

    def __post_init__(self):
        self.p = _parse_p(self.p)
        for key in ("sup_points_per_dim", "sup_budget"):
            value = config_number("norm." + key, getattr(self, key), int)
            if value < 2:
                raise ValueError("need norm.%s >= 2, got %d" % (key, value))
            setattr(self, key, value)

    @classmethod
    def from_config(cls, spec):
        """A NormSpec from a bare p or a mapping of fields; a key that is
        not a field raises ValueError as the CLI does (fem.check_keys)."""
        if isinstance(spec, (int, float, str)):
            return cls(p=spec)
        spec = config_mapping("norm", {} if spec is None else spec)
        return cls(**check_keys(spec, {f.name: f.default for f in fields(cls)}, "norm."))

    def describe(self):
        """The fields as a norm section, with p = inf spelled "inf"."""
        return dict(asdict(self), p="inf" if self.p == math.inf else self.p)


def _legendre_series(x, c):
    """sum_k c[k] L_k(x) by Clenshaw's recurrence, in the order of
    operations of numpy.polynomial.legendre.legval."""
    if len(c) == 1:
        return c[0] + 0 * x
    c0, c1, nd = c[-2], c[-1], len(c)
    for ck in c[-3::-1]:
        nd -= 1
        c0, c1 = ck - c1 * ((nd - 1) / nd), c0 + c1 * x * ((2 * nd - 1) / nd)
    return c0 + c1 * x


@functools.lru_cache(maxsize=None)
def gauss_axis(order):
    """Gauss-Legendre nodes and uniform-measure weights on [-1, 1].

    The steps of numpy.polynomial.legendre.leggauss, which gives the same
    bits, from NumPy's core alone: importing numpy.polynomial costs more
    than a small run's whole build.  The nodes are the eigenvalues of the
    symmetric tridiagonal companion matrix of L_n, refined by one Newton
    step with L_n' = sum of (2k + 1) L_k over k = n - 1, n - 3, ...; the
    weights are 1 / (L_{n-1} L_n') at the nodes, each factor scaled by its
    largest magnitude, symmetrised and normalised to sum to 2, then halved.
    """
    n = int(order)
    if n < 1:
        raise ValueError("Gauss order must be at least 1, got %d" % n)
    scl = 1.0 / np.sqrt(2 * np.arange(n) + 1)
    off = np.arange(1, n) * scl[:-1] * scl[1:]
    x = np.linalg.eigvalsh(np.diag(off, -1) + np.diag(off, 1))
    c = [0.0] * n + [1.0]
    dc = [2.0 * k + 1.0 if (n - 1 - k) % 2 == 0 else 0.0 for k in range(n)]
    df = _legendre_series(x, dc)
    x -= _legendre_series(x, c) / df
    fm = _legendre_series(x, c[1:])
    fm /= np.abs(fm).max()
    df /= np.abs(df).max()
    w = 1 / (fm * df)
    w = (w + w[::-1]) / 2
    x = (x - x[::-1]) / 2
    w *= 2.0 / w.sum()
    return x, w / 2.0


def sup_points_per_dim(spec, dim):
    """Points per axis of the p = inf sample grid at dim parameters:
    spec.sup_points_per_dim, capped so the grid stays within
    spec.sup_budget.  Fewer than 4 raise ValueError.  Two or three
    equispaced points lie in {-1, 0, 1}, the first three nodes of every
    family, where the fresh basis functions of Leja and R-Leja levels
    >= 3 (>= 2 on two points) and of Clenshaw-Curtis levels >= 2 vanish:
    such a grid reads their estimates as exactly 0."""
    # the float root can land just below an exact integer root
    per = int(spec.sup_budget ** (1.0 / dim))
    while (per + 1) ** dim <= spec.sup_budget:
        per += 1
    per = min(spec.sup_points_per_dim, per)
    if per < 4:
        raise ValueError(
            "the p = inf sample grid at M=%d has %d points per axis, and fewer than 4 read "
            "basis functions as zero: raise norm.sup_budget to at least 4**%d (and "
            "norm.sup_points_per_dim to at least 4), or use p = 2" % (dim, per, dim)
        )
    return per


def combine_axes(norms, axes, p):
    """Collapse per-grid-row spatial norms into one L^p value: the
    maximum for p = inf, else the p = 2 value under the tensor weights
    of axes, with the rows in C order."""
    norms = np.asarray(norms, dtype=np.float64)
    if p == math.inf:
        return float(np.max(norms)) if norms.size else 0.0
    w = axes[0][1]
    for _, wm in axes[1:]:
        w = np.multiply.outer(w, wm)
    return float(math.sqrt(float(w.ravel() @ (norms * norms))))


def _level_axis(kind, level, n):
    """Level's norm axis: n samples, weights None (p = inf), or for n
    None (p = 2) Gauss order m(level) + 1, exact for the block's degree."""
    if n is None:
        return gauss_axis(growth(kind, level) + 1)
    return np.linspace(-1.0, 1.0, n), None


@functools.lru_cache(maxsize=None)
def _axis_table(kind, level, n):
    """Fresh-basis columns of one level on its norm axis.  Norm axes
    repeat from call to call, so each table is built once.  Read-only:
    every caller shares it."""
    table = _fresh_table(kind, level, _level_axis(kind, level, n)[0])
    table.flags.writeable = False
    return table


@functools.lru_cache(maxsize=None)
def _axis_norm(kind, level, n):
    """Norm over [-1, 1] of the single fresh basis function of a
    unit-growth level on its norm axis, as combine_axes measures it:
    p = 2 for n None, p = inf otherwise."""
    h = np.abs(_axis_table(kind, level, n)[:, 0])
    return combine_axes(h, [_level_axis(kind, level, n)], 2.0 if n is None else math.inf)


@functools.lru_cache(maxsize=None)
def _axis_gram(kind, level):
    """Gram matrix G = B^T diag(w) B of one level's fresh basis under the
    uniform measure on [-1, 1]: B is the p = 2 _axis_table and w the
    weights of its Gauss order m(level) + 1, which is exact for the
    products h_i h_j of degree at most 2 m(level).  Read-only: every
    caller shares it."""
    B = _axis_table(kind, level, None)
    w = _level_axis(kind, level, None)[1]
    G = B.T @ (w[:, None] * B)
    G.flags.writeable = False
    return G


def _euclidean_lp_norm(kind, index, rows, spec):
    """L^p-over-box norm, p = 2 or inf, of the detail on the fresh block
    of index, given as flat C-order surplus rows pre-transformed so the
    spatial norm is the plain Euclidean row norm.

    One row c (Leja, R-Leja) is the detail c * prod_m h_{k_m}(y_m).  On
    the tensor grid of the _level_axis axes its norm factorises exactly:
    ||c||_2 times the product over m of _axis_norm.  For p = inf the
    maximum over the grid of a product of nonnegative per-axis factors
    is the product of the per-axis maxima.  More rows (Clenshaw-Curtis)
    go through one interp.mode_product per axis, with a matrix A_m of
    level k_m.  At p = 2 A_m = _axis_gram(kind, k_m), and the squared
    norm is sum_e c_e^T (A_1 x ... x A_M) c_e over the spatial columns
    c_e.  At p = inf A_m = _axis_table(kind, k_m, n) expands the block on
    the sample grid, and the value is its largest row norm; the spatial
    axis is first compressed with an SVD when that shrinks it, which is
    exact since row norms depend only on the left singular factors.
    Axes with k_m = 0 are skipped, exactly, since h_0 = 1: their
    _axis_norm is 1.0, their Gram matrix [[1.0]] and their sample table
    a column of ones.
    """
    # the sample count per axis; None at p = 2, whose Gauss order is m(k_m) + 1
    n = sup_points_per_dim(spec, len(index)) if spec.p == math.inf else None
    # at p = inf expanding a level-0 axis would copy the block n times
    levels = [km for km in index if km]
    if rows.shape[0] == 1:
        value = math.sqrt(float(rows[0] @ rows[0]))
        for km in levels:
            value *= _axis_norm(kind, km, n)
        return value
    if n is not None and rows.shape[0] < rows.shape[1]:
        U, s, _ = np.linalg.svd(rows, full_matrices=False)
        rows = U * s
    T, pre = rows, 1
    for km in levels:
        A = _axis_gram(kind, km) if n is None else _axis_table(kind, km, n)
        T = mode_product(A, T, pre)
        pre *= A.shape[0]
    if n is None:
        return math.sqrt(float(np.vdot(rows, T)))
    return float(np.max(np.sqrt(np.einsum("ij,ij->i", T, T))))


def residual_estimator(P, disc, k, spec):
    """Parametric norm of the detail operator applied to the flux.

    Purely post-processes the current interpolant and solves no PDE.
    Write a = a_0 + sum_m y_m a_m.  As margin_report shows,
    Delta_k(a grad u_Lambda) = sum_m a_m [Delta_{k_m}(y_m .)]^{(m)}
    grad Delta_{k - e_m} u over the backward neighbours k - e_m in
    Lambda: block k - e_m shares k's fresh basis in every dimension but
    m, and in dimension m interp._times_y_rows maps its level k_m - 1
    fresh basis onto level k_m's.  So the detail's surpluses are the
    sum over m of a_m times that matrix applied along axis m of the
    gradients of block k - e_m's stored surpluses, with no evaluation of
    the interpolant.  The detail lives on the fresh points of k, so its
    degree in dimension m is m(k_m) and the norm depends on k alone, not
    on the rest of the index set.  k must lie outside the current index
    set; with no backward neighbour in it the detail is zero.

    The detail is formed as flat rows on k's fresh block: block k - e_m
    has k's fresh shape in every axis but m, so interp.mode_product maps
    its rows along m.  For Leja and R-Leja every block is one row and the
    mode product a scalar times it.
    """
    k = as_index(k)
    if len(k) != P.dim:
        raise ValueError("index length %d does not match dimension %d" % (len(k), P.dim))
    if k in P.indexset:
        raise ValueError("index %r is already in the set" % (k,))
    kind = P.family.kind
    detail, pre = None, 1
    for m, km in enumerate(k):
        if not km:
            continue
        back = backward(k, m)
        if back in P.indexset:
            start, count = P.block_of(back)
            grads = disc.gradient_rows(P.surpluses()[start : start + count])
            term = mode_product(_times_y_rows(kind, km), grads, pre)
            term *= disc.terms_mid[m]
            detail = term if detail is None else detail + term
        pre *= len(_level_range(kind, km))
    if detail is None:
        return 0.0
    # element-data L2 norm is sqrt(h) times the Euclidean row norm
    detail *= math.sqrt(disc.h)
    return _euclidean_lp_norm(kind, k, detail, spec)


def fresh_solves(P, cache, k, keep=True):
    """Read-only cached solves at k's fresh points, rows in block order.  Keyed
    by (node family, k): a node index names another point in each family.
    The points are formed only on a miss.  keep False takes the block out
    of the cache (SolveCache.solve_indexed), for a caller that stores it."""
    key = (P.family.kind, tuple(k))
    points = None if key in cache else P.coords_of(P.new_point_indices(k))
    return cache.solve_indexed(key, points, keep)


def surplus_indicator(P, disc, k, spec, cache):
    """Parametric norm (spatial H1_0) of the candidate's detail of u.

    Solves the PDE at the fresh grid points of k through the cache, so
    a later add_index(k) reuses every solve.  k must be addable.  The
    interpolant's part is P.value_below(k), summed over the blocks
    i <= k only (see there why the others vanish at these points); P
    keeps it, so add_index(k) does not form it again.
    """
    k = as_index(k)
    if not P.indexset.is_admissible(k):
        raise ValueError("index %r is not addable to the current set" % (k,))
    u_rows = fresh_solves(P, cache, k)
    surplus = u_rows if P.n_points == 0 else u_rows - P.value_below(k)
    # H1_0 seminorm of nodal rows is the Euclidean norm of the scaled
    # element differences, which commute with the basis expansion
    rows = np.diff(surplus, axis=-1) / math.sqrt(disc.h)
    return _euclidean_lp_norm(P.family.kind, k, rows, spec)


def profit(env, eta, counts):
    """Envelope-averaged profit: summed estimators over summed work.

    env is a candidate's monotone envelope in any order, eta maps margin
    indices to estimator values covering it and counts maps them to
    their fresh-point counts (interp.work); math.fsum makes the profit
    the same bits in any order and on every Python version.  The
    envelope of k is every ancestor of k missing from Lambda: Lambda is
    downward closed, so a walk down from k through missing indices
    reaches each of them.  Adding indices outside it therefore leaves it
    unchanged, and a member's value changes only when MarginState.absorb
    forgets it, as an added index or a forward neighbour of one.  So a
    profit whose envelope meets none of these keys is the same, bit for
    bit, after the extension, and MarginState computes again only the
    others.
    """
    return math.fsum(eta[j] for j in env) / sum(counts[j] for j in env)


class _LazyHeap:
    """Entries (-value, k) with at most one live entry per k, so the top
    is the largest value, ties going to the lexicographically smallest
    k.  A replaced or discarded entry stays in the heap until it reaches
    the top, where top() drops it."""

    def __init__(self):
        self.heap, self.live = [], {}

    def push(self, k, value):
        entry = self.live[k] = (-value, k)
        heapq.heappush(self.heap, entry)

    def discard(self, k):
        self.live.pop(k, None)

    def ordered(self):
        """The live entries from largest value down, popped off a copy."""
        heap = list(self.heap)
        while heap:
            entry = heapq.heappop(heap)
            if self.live.get(entry[1]) is entry:
                yield entry

    def top(self):
        """The live entry of largest value."""
        heap = self.heap
        while self.live.get(heap[0][1]) is not heap[0]:
            heapq.heappop(heap)
        return heap[0]


def _units(v):
    """The finite double v as an exact int count of 2**-1074."""
    n, d = v.as_integer_ratio()
    return n << (1075 - d.bit_length())


class MarginState:
    """The candidates of an adaptive run and its round's report, with
    every candidate's estimate kept until an extension can change it.

    The candidates are the margin, or with reduced (gg) the reduced
    margin, read off the index set once; absorb follows each extension.
    values maps each candidate to its estimate, and exact is their sum
    in _units, kept exactly: report adds each fresh estimate and absorb
    subtracts each one it forgets.  by_value holds the estimates and
    by_reduced those of the reduced-margin candidates.  report() sets
    total, exact rounded by int true division, which is correctly
    rounded: math.fsum of values, in any order and on every Python
    version.  It also sets vmax, ratio_c (vmax over the largest
    reduced-margin estimate) and the fresh and reused counts.

    A state with a profit_kind (gn_profit) also keeps each candidate's
    monotone envelope, a set, and its fresh-point count (counts), and
    users maps each index to the candidates whose envelope holds it.  An
    added index leaves every envelope that held it.  A new candidate's
    envelope is itself plus the envelopes of its missing backward
    neighbours, all of them margin members (for k = i + e_n with i in
    Lambda, k - e_m = (i - e_m) + e_n).  by_profit holds the profits;
    stale names the new candidates and those whose envelope lost an
    added index, and only those get a profit again (see profit).  The
    envelope of k holds every missing ancestor of k, so a member whose
    estimate was dropped, a forward neighbour of an added index, sits in
    an envelope that lost that index.
    """

    def __init__(self, indexset, profit_kind=None, reduced=False):
        self.indexset = indexset
        self.profit_kind = profit_kind
        self.reduced = reduced
        self.values, self.exact = {}, 0
        self.total, self.vmax, self.ratio_c, self.fresh, self.reused = 0.0, 0.0, 1.0, 0, 0
        self.by_value, self.by_reduced, self.by_profit = _LazyHeap(), _LazyHeap(), _LazyHeap()
        self.envelopes, self.counts, self.users, self.stale = {}, {}, defaultdict(set), set()
        # to estimate at the next report, in lexicographic order
        self.pending = indexset.reduced_margin() if reduced else indexset.margin()
        if profit_kind is not None:
            for k in self.pending:
                self._enter(k)

    def _enter(self, k):
        members = self.indexset.members
        env = {k}
        for m, km in enumerate(k):
            if km:
                back = backward(k, m)
                if back not in members:
                    env.update(self.envelopes[back])
        self.envelopes[k] = env
        self.counts[k] = work(self.profit_kind, k)
        for j in env:
            self.users[j].add(k)
        self.stale.add(k)

    def report(self, estimate):
        """Estimate the pending candidates with estimate(k), in
        lexicographic order, set the round's numbers and return self."""
        for k in self.pending:
            value = self.values[k] = estimate(k)
            self.exact += _units(value)
            self.by_value.push(k, value)
            if self.indexset._is_reduced(k):
                self.by_reduced.push(k, value)
        self.fresh, self.pending = len(self.pending), []
        self.reused = len(self.values) - self.fresh
        self.total = self.exact / (1 << 1074)
        # a nonempty set has a nonempty reduced margin
        self.vmax, rmax = -self.by_value.top()[0], -self.by_reduced.top()[0]
        if rmax > 0.0:
            self.ratio_c = self.vmax / rmax
        else:
            self.ratio_c = math.inf if self.vmax > 0.0 else 1.0
        return self

    def best(self):
        """The candidate of largest estimate, or of largest profit with a
        profit_kind, ties broken lexicographically; after a report."""
        if self.profit_kind is None:
            return self.by_value.top()[1]
        for k in self.stale:
            if k in self.values:
                self.by_profit.push(k, profit(self.envelopes[k], self.values, self.counts))
        self.stale.clear()
        return self.by_profit.top()[1]

    def absorb(self, added):
        """Follow the index set through the addition of `added`, which it
        already holds.  An index enters the margin, or the reduced margin,
        only when a backward neighbour is added, so forget the added
        indices and their forward neighbours, and make pending those of
        them outside the set (and with reduced also reduced)."""
        added = [tuple(j) for j in added]
        keys = {forward(j, m) for j in added for m in range(len(j))}.union(added)
        for k in keys:
            if k in self.values:
                self.exact -= _units(self.values.pop(k))
                for heap in (self.by_value, self.by_reduced, self.by_profit):
                    heap.discard(k)
        outside = [k for k in keys if k not in self.indexset.members]
        self.pending = sorted(filter(self.indexset._is_reduced, outside) if self.reduced else outside)
        if self.profit_kind is None:
            return
        for j in added:
            self.envelopes.pop(j, None)
            self.counts.pop(j, None)
            for k in self.users.pop(j, ()):
                # k's envelope holds every missing ancestor of k, so also
                # the added backward neighbour of each member it dropped
                if k in self.envelopes:
                    self.envelopes[k].discard(j)
                    self.stale.add(k)
        for k in self.pending:
            if k not in self.envelopes:
                self._enter(k)


def margin_report(P, disc, spec, state=None):
    """Residual estimators for every full-margin candidate.

    state is the run's MarginState over P's index set (a throwaway one
    when None), returned as the report.  Only its pending candidates are
    estimated, in lexicographic order; it keeps every other value from
    earlier rounds.  A kept value is exact in exact arithmetic until
    absorb forgets it.  Write a = a_0 + sum_m y_m a_m and
    u_Lambda = sum_{i in Lambda} Delta_i u; Delta_k acts dimension by
    dimension.  In dimension n, Delta_{k_n} keeps a basis function of
    level i_n if i_n = k_n and cancels it otherwise.  Times y_n it
    survives only for i_n in {k_n - 1, k_n}: a lower level has degree
    m(i_n) + 1 <= m(k_n - 1), which Delta_{k_n} reproduces and cancels,
    and a higher one vanishes on all of level k_n's nodes.  So
    Delta_k(a grad u_Lambda) involves only the blocks of k's backward
    neighbours k - e_m (k itself is outside Lambda), for Leja, R-Leja
    and Clenshaw-Curtis alike; residual_estimator forms the value from
    exactly these blocks, with a quadrature that depends on k alone.
    k's value changes only when some k - e_m is added, and absorb
    forgets it then.
    """
    if state is None:
        state = MarginState(P.indexset)
    elif state.indexset is not P.indexset or state.reduced:
        raise ValueError("this margin state belongs to another index set or candidate rule")
    return state.report(lambda k: residual_estimator(P, disc, k, spec))


def reduced_margin_report(P, disc, spec, cache, state=None):
    """Surplus indicators for every reduced-margin candidate.

    state is the run's MarginState over P's index set, made with
    reduced (a throwaway one when None), returned as the report; only
    its pending candidates are estimated, in lexicographic order.  A
    reduced-margin candidate k has all its backward neighbours, and so
    every index i < k, in Lambda.
    At k's fresh points S_Lambda u involves only the blocks of indices
    i < k: the basis functions of a block with some i_m > k_m vanish
    exactly on level k_m's nodes (SparseInterpolant.value_below states
    the argument and sums only those blocks).  So k's surplus, and its
    indicator, never change until k itself is added, and absorb
    forgets it only then.
    """
    if state is None:
        state = MarginState(P.indexset, reduced=True)
    elif state.indexset is not P.indexset or not state.reduced:
        raise ValueError("this margin state belongs to another index set or candidate rule")
    return state.report(lambda k: surplus_indicator(P, disc, k, spec, cache))


def _row_blocks(shape):
    """reference_error's blocks of the C-order grid of the given shape, in
    order, each contiguous and given as one slice per axis: the trailing
    axes whole while they fit in _ROW_BLOCK rows (the last one always), a
    range of the next axis, one index of each earlier one."""
    j = len(shape) - 1
    while j > 0 and math.prod(shape[j - 1 :]) <= _ROW_BLOCK:
        j -= 1
    whole = (slice(None),) * (len(shape) - j)
    if j == 0:
        return [whole]
    step = max(_ROW_BLOCK // math.prod(shape[j:]), 1)
    return [
        tuple(slice(i, i + 1) for i in lead) + (slice(a, a + step),) + whole
        for lead in itertools.product(*map(range, shape[: j - 1]))
        for a in range(0, shape[j - 1], step)
    ]


def check_reference_dim(dim):
    """Raise ValueError when dim exceeds MAX_REFERENCE_DIM."""
    if dim > MAX_REFERENCE_DIM:
        msg = "tensor reference grids are infeasible for M=%d (the limit is %d)"
        raise ValueError(msg % (dim, MAX_REFERENCE_DIM))


def reference_error(P, disc, spec, quad_order=20, counts=None, ms=None):
    """Parametric norm of u_h - S u_h on a tensor reference grid, one value
    per entry of the nondecreasing point counts counts, S being the
    interpolant of P's first count points; with counts None, one float for
    all of P.  Hierarchical surpluses never change once inserted, so S is
    the interpolant P was when it had that many points.

    The grid is the tensor product of M 1-D axes: the estimators' sample
    axis for p = inf, Gauss order quad_order for p = 2.  Neither its points
    nor the reference solutions are ever formed: the spatial H1_0 seminorm
    is the L2 norm of the element gradient.  One pass over the grid, in
    tensor sub-grids that stay in cache (_row_blocks), forms each block's
    gradient rows of u_h in closed form from its coordinates
    (disc.grid_gradients, uncounted and not memoized) and its basis weights
    from rows of per-axis tables built once (interp._grid_weights, as
    value_below does), then count by count subtracts that count's chunk of
    surplus gradients and keeps the squared row norms.  No array of grid by
    elements outlives a block.  ms, a list if given, receives each count's
    time in milliseconds, the first count's with the gradients and weights.
    An EllipticityError names the first non-elliptic reference point in C
    order.  More than MAX_REFERENCE_DIM parameters are rejected: tensor
    grids are feasible for a handful only.
    """
    t0 = time.perf_counter()
    dim = P.dim
    check_reference_dim(dim)
    if spec.p == math.inf:
        # the estimators' sample grid
        axes = [(np.linspace(-1.0, 1.0, sup_points_per_dim(spec, dim)), None)] * dim
    else:
        axes = [gauss_axis(int(quad_order))] * dim
    ys = [y for y, _ in axes]
    shape = tuple(len(y) for y in ys)
    bounds = [0] + ([P.n_points] if counts is None else [int(c) for c in counts])
    if len(bounds) < 2 or bounds != sorted(bounds) or bounds[1] < 1 or bounds[-1] > P.n_points:
        msg = "counts must be nondecreasing, from 1 to the %d points, got %r"
        raise ValueError(msg % (P.n_points, bounds[1:]))
    pts = P.node_indices()[: bounds[-1]]
    tables = [P.family.basis_matrix(y, int(n)) for y, n in zip(ys, pts.max(axis=0) + 1)]
    dS = disc.gradient_rows(P.surpluses()[: bounds[-1]])
    chunks = []
    for c0, c1 in zip(bounds, bounds[1:]):
        # np.matmul over an inner dimension of 1 took twice as long as over
        # 2 (40 vs 19 ms per pass at 36k x 256 rows): a lone point's chunk
        # gets a zero row, whose term leaves every product exact
        d = dS[c0:c1]
        chunks.append((c0, c1, np.vstack([d, np.zeros_like(d)]) if c1 - c0 == 1 else d))
    g = np.empty((max(_ROW_BLOCK, shape[-1]), disc.n_elements))
    scratch = np.empty_like(g)
    pad = np.zeros((len(g), 2))
    sq = np.empty((len(chunks), math.prod(shape)))
    spent = [0.0] * len(chunks)
    b = 0
    for slices in _row_blocks(shape):
        sub = [y[s] for y, s in zip(ys, slices)]
        a, b = b, b + math.prod(map(len, sub))
        W = _grid_weights([t[s] for t, s in zip(tables, slices)], pts)
        block = disc.grid_gradients(sub, out=g[: b - a])
        for i, (c0, c1, d) in enumerate(chunks):
            if c1 - c0 == 1:
                pad[: b - a, 0] = W[:, c0]
                block -= np.matmul(pad[: b - a], d, out=scratch[: b - a])
            elif c1 > c0:
                block -= np.matmul(W[:, c0:c1], d, out=scratch[: b - a])
            np.einsum("ij,ij->i", block, block, out=sq[i, a:b])
            # count i takes the time since the last count's
            spent[i] += -t0 + (t0 := time.perf_counter())
    values = []
    for i, row in enumerate(sq):
        # element-data L2 norms of the gradient rows
        values.append(combine_axes(np.sqrt(disc.h * row), axes, spec.p))
        spent[i] += -t0 + (t0 := time.perf_counter())
    if ms is not None:
        ms[:] = [1000.0 * t for t in spent]
    return values[0] if counts is None else values
