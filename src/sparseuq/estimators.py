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
import inspect
import math

import numpy as np

from .fem import config_mapping, config_number
from .interp import _fresh_table, _times_y_rows, fresh_shape, mode_product, work
from .nodes import growth

_INF_ALIASES = {"inf", "infinity", "sup", "max"}
# most parameters of reference_error's tensor grid: at Gauss order 20 its rows
# at M = 4 hold 160,000 points (330 MB at mesh 256), 20 times more per extra one
MAX_REFERENCE_DIM = 4
# most reference grid rows per block of reference_error's pass (_row_blocks):
# at mesh 256 a block of rows is at most 512 KB and stays in cache; on
# gn-ref-inf-m3 a sweep of 64..2048 rows on a 2-core host was fastest at
# 128-256, 40% slower at 2048
_ROW_BLOCK = 256


def _parse_p(p):
    if isinstance(p, str) and p.strip().lower() in _INF_ALIASES:
        return math.inf
    p = config_number("norm.p", p)
    if p not in (2.0, math.inf):
        raise ValueError("norm.p must be 2 or inf, got %r" % p)
    return p


class NormSpec:
    """How to measure parametric L^p norms over the box, for p = 2 or inf.

    sup_points_per_dim (>= 2) and sup_budget (>= 2) control the p = inf
    sample grid (per-dimension resolution, capped so the total grid stays
    within budget, but never below 2).  The p = inf value is the maximum
    over that grid, a lower bound of the sup, so total / a_min certifies
    the error only on the grid.  For p = 2 the Gauss order is derived
    from the integrand degree, so the quadrature is exact.
    """

    def __init__(self, p=2, sup_points_per_dim=33, sup_budget=40000):
        self.p = _parse_p(p)
        self.sup_points_per_dim = config_number(
            "norm.sup_points_per_dim", sup_points_per_dim, int
        )
        self.sup_budget = config_number("norm.sup_budget", sup_budget, int)
        for key in ("sup_points_per_dim", "sup_budget"):
            if getattr(self, key) < 2:
                raise ValueError("need norm.%s >= 2, got %d" % (key, getattr(self, key)))

    @classmethod
    def from_config(cls, spec):
        """A NormSpec from a bare p or a mapping of constructor keywords;
        raises ValueError naming any key the constructor does not take."""
        if isinstance(spec, (int, float, str)):
            return cls(p=spec)
        spec = dict(config_mapping("norm", {} if spec is None else spec))
        unknown = sorted(set(spec) - set(inspect.signature(cls).parameters))
        if unknown:
            raise ValueError("unknown norm keys: %s" % ", ".join(unknown))
        return cls(**spec)

    def describe(self):
        return {
            "p": "inf" if self.p == math.inf else self.p,
            "sup_points_per_dim": self.sup_points_per_dim,
            "sup_budget": self.sup_budget,
        }


@functools.lru_cache(maxsize=None)
def gauss_axis(order):
    """Gauss-Legendre nodes and uniform-measure weights on [-1, 1]."""
    x, w = np.polynomial.legendre.leggauss(int(order))
    return x, w / 2.0


def sup_points_per_dim(spec, dim):
    # the float root can land just below an exact integer root
    per = int(spec.sup_budget ** (1.0 / dim))
    while (per + 1) ** dim <= spec.sup_budget:
        per += 1
    return max(2, min(spec.sup_points_per_dim, per))


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
    k = tuple(int(v) for v in k)
    if len(k) != P.dim:
        raise ValueError("index length %d does not match dimension %d" % (len(k), P.dim))
    if k in P.indexset:
        raise ValueError("index %r is already in the set" % (k,))
    kind = P.family.kind
    shape = fresh_shape(kind, k)
    detail = None
    for m, km in enumerate(k):
        back = k[:m] + (km - 1,) + k[m + 1 :]
        if km == 0 or back not in P.indexset:
            continue
        start, count = P.block_of(back)
        grads = disc.gradient_rows(P.surpluses()[start : start + count])
        term = mode_product(_times_y_rows(kind, km), grads, math.prod(shape[:m]))
        term *= disc.terms_mid[m]
        detail = term if detail is None else detail + term
    if detail is None:
        return 0.0
    # element-data L2 norm is sqrt(h) times the Euclidean row norm
    detail *= math.sqrt(disc.h)
    return _euclidean_lp_norm(kind, k, detail, spec)


def fresh_solves(P, cache, k):
    """Read-only cached solves at k's fresh points, rows in block order.  Keyed
    by (node family, k): a node index names another point in each family."""
    return cache.solve_indexed((P.family.kind, tuple(k)), P.coords_of(P.new_point_indices(k)))


def surplus_indicator(P, disc, k, spec, cache):
    """Parametric norm (spatial H1_0) of the candidate's detail of u.

    Solves the PDE at the fresh grid points of k through the cache, so
    a later add_index(k) reuses every solve.  k must be addable.  The
    interpolant's part is P.value_below(k), summed over the blocks
    i <= k only (see there why the others vanish at these points); P
    keeps it, so add_index(k) does not form it again.
    """
    k = tuple(int(v) for v in k)
    if not P.indexset.is_admissible(k):
        raise ValueError("index %r is not addable to the current set" % (k,))
    u_rows = fresh_solves(P, cache, k)
    surplus = u_rows if P.n_points == 0 else u_rows - P.value_below(k)
    # H1_0 seminorm of nodal rows is the Euclidean norm of the scaled
    # element differences, which commute with the basis expansion
    rows = np.diff(surplus, axis=-1) / math.sqrt(disc.h)
    return _euclidean_lp_norm(P.family.kind, k, rows, spec)


def profit(kind, env, eta):
    """Envelope-averaged profit: summed estimators over summed work.

    env is a candidate's sorted monotone envelope (as
    MonotoneIndexSet.monotone_envelope returns it) and eta maps margin
    indices to estimator values covering it; both sums run in env's
    order.  The envelope of k is every ancestor of k missing from
    Lambda: Lambda is downward closed, so a walk down from k through
    missing indices reaches each of them.  Adding indices outside it
    therefore leaves it unchanged, and a member's value changes only
    when drop_stale forgets it.  So a profit whose envelope meets none
    of the keys drop_stale returned is the same, bit for bit, after the
    extension, and adaptive.run_strategy recomputes only the others.
    """
    num = sum(eta[j] for j in env)
    den = sum(work(kind, j) for j in env)
    return num / den


class EstimatorReport:
    """Per-candidate estimator values for one adaptive iteration.

    `reused` counts the values taken from an earlier iteration's memo,
    `fresh` those estimated for this report.
    """

    def __init__(self, values, reduced_members, reused=0):
        self.values = dict(values)
        self.total = float(sum(self.values.values()))
        self.vmax = float(max(self.values.values())) if self.values else 0.0
        self.reused = int(reused)
        self.fresh = len(self.values) - self.reused
        reduced = [self.values[k] for k in self.values if k in reduced_members]
        rmax = max(reduced) if reduced else 0.0
        # sanity diagnostic: how much larger the full-margin maximum is
        if rmax > 0.0:
            self.ratio_c = self.vmax / rmax
        else:
            self.ratio_c = math.inf if self.vmax > 0.0 else 1.0


def lex_argmax(values):
    """The lexicographically smallest key of largest value."""
    return min(values, key=lambda k: (-values[k], k))


def _memo_report(cands, reduced, memo, estimate):
    """Report over cands, estimating in order only the candidates missing
    from memo (a throwaway one when None) and storing what it estimates."""
    memo = {} if memo is None else memo
    values, reused = {}, 0
    for k in map(tuple, cands):
        if k in memo:
            reused += 1
        else:
            memo[k] = estimate(k)
        values[k] = memo[k]
    return EstimatorReport(values, reduced, reused)


def margin_report(P, disc, spec, memo=None):
    """Residual estimators for every full-margin candidate.

    memo maps candidates to their values from earlier iterations of the
    same run (a throwaway one when None).  Only the candidates missing
    from it are estimated, in lexicographic order, and their values are
    stored in it.  A kept value is exact in exact arithmetic until
    drop_stale removes it.  Write a = a_0 + sum_m y_m a_m and
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
    k's value changes only when some k - e_m is added.
    """
    return _memo_report(
        P.indexset.margin(),
        set(map(tuple, P.indexset.reduced_margin())),
        memo,
        lambda k: residual_estimator(P, disc, k, spec),
    )


def reduced_margin_report(P, disc, spec, cache, memo=None):
    """Surplus indicators for every reduced-margin candidate.

    memo works as for margin_report.  A reduced-margin candidate k has
    all its backward neighbours, and so every index i < k, in Lambda.
    At k's fresh points S_Lambda u involves only the blocks of indices
    i < k: the basis functions of a block with some i_m > k_m vanish
    exactly on level k_m's nodes (SparseInterpolant.value_below states
    the argument and sums only those blocks).  So k's surplus, and its
    indicator, never change until k itself is added.
    """
    cands = [tuple(k) for k in P.indexset.reduced_margin()]
    return _memo_report(
        cands,
        set(cands),
        memo,
        lambda k: surplus_indicator(P, disc, k, spec, cache),
    )


def drop_stale(memo, added):
    """Forget the memoized values that adding the indices `added` may
    change: each added index and each of its forward neighbours, the
    only candidates that gain a backward neighbour.

    Returns the set of these keys, whether or not memo held them.  A
    candidate's monotone envelope loses exactly the added indices it
    held and gains none, and the only values forgotten are these keys',
    so a value read off an envelope and its members' estimates, like
    profit, can be stale only when its envelope meets one of them.
    """
    keys = set()
    for j in map(tuple, added):
        keys.add(j)
        for m in range(len(j)):
            keys.add(j[:m] + (j[m] + 1,) + j[m + 1 :])
    for j in keys:
        memo.pop(j, None)
    return keys


class ReferenceRows:
    """Incremental state of reference_error for one interpolant: the
    gradient rows of u_h - S u_h on one reference grid and the number of
    surplus rows already subtracted.  Empty until the first
    call fills it, which also records that call's interpolant and grid
    shape; a later call with another interpolant or grid raises
    ValueError."""

    def __init__(self):
        self.interpolant = None
        self.shape = None
        self.rows = None
        self.n_rows = 0


def _row_blocks(shape):
    """reference_error's row blocks [(start, stop), ...] over the C-order
    grid of the given shape: whole runs of the last axis, as many as fit
    in _ROW_BLOCK rows but at least one.  The first block is the largest."""
    last, n_grid = shape[-1], math.prod(shape)
    step = max(_ROW_BLOCK // last, 1) * last
    return [(a, min(a + step, n_grid)) for a in range(0, n_grid, step)]


def check_reference_dim(dim):
    """Raise ValueError when dim exceeds MAX_REFERENCE_DIM."""
    if dim > MAX_REFERENCE_DIM:
        msg = "tensor reference grids are infeasible for M=%d (the limit is %d)"
        raise ValueError(msg % (dim, MAX_REFERENCE_DIM))


def reference_error(P, disc, spec, quad_order=20, state=None):
    """Parametric norm of u_h - S u_h on a tensor reference grid.

    The grid is the tensor product of M 1-D axes: the estimators' sample
    axis for p = inf, Gauss order quad_order for p = 2.  It is never
    formed as an array of points.  The spatial H1_0 seminorm is the L2
    norm of the element gradient, so the reference solutions are never
    formed either: disc.grid_gradients gives the gradient rows of u_h in
    closed form from the axes, uncounted and not memoized, and
    P.grid_basis_weights gives the basis weights from per-axis tables.
    Hierarchical surpluses never change once inserted, so a ReferenceRows
    state (if given) keeps the gradient rows of u_h - S u_h between calls
    for one interpolant and grid, and each call subtracts only the rows P
    gained since; adaptive.run_strategy keeps one per run.  A state that
    another interpolant or grid filled raises ValueError.  One pass over the
    grid, in blocks of whole runs of the last axis (_row_blocks) that
    stay in cache, forms the gradients of fresh rows, subtracts the new
    surpluses' part and sums the squared row norms.  So a call that
    updates a filled state allocates nothing the size of the rows: its
    largest temporaries are one block and the basis weights of the new
    grid points at the reference points.  An empty state is filled only
    once its rows are complete, so an EllipticityError (naming the first
    non-elliptic reference point in C order) leaves it empty.  Tensor
    grids are only feasible for a handful of dimensions, so more than
    MAX_REFERENCE_DIM is rejected.
    """
    dim = P.dim
    check_reference_dim(dim)
    if spec.p == math.inf:
        # the estimators' sample grid
        axes = [(np.linspace(-1.0, 1.0, sup_points_per_dim(spec, dim)), None)] * dim
    else:
        axes = [gauss_axis(int(quad_order))] * dim
    ys = [y for y, _ in axes]
    shape = tuple(len(y) for y in ys)
    state = ReferenceRows() if state is None else state
    fresh = state.rows is None
    if not fresh and (state.interpolant is not P or state.shape != shape):
        raise ValueError("this reference state belongs to another interpolant or grid")
    rows = np.empty((math.prod(shape), disc.n_elements)) if fresh else state.rows
    W = dS = None
    if P.n_points > state.n_rows:
        W = P.grid_basis_weights(ys, start=state.n_rows)
        dS = disc.gradient_rows(P.surpluses(start=state.n_rows))
        if dS.shape[0] == 1:
            # np.matmul over an inner dimension of 1 took twice as long as
            # over 2 (40 vs 19 ms per pass at 36k x 256 rows); the added
            # zero term leaves every product exact
            W = np.hstack([W, np.zeros_like(W)])
            dS = np.vstack([dS, np.zeros_like(dS)])
    blocks = _row_blocks(shape)
    scratch = np.empty((blocks[0][1], disc.n_elements))
    sq = np.empty(rows.shape[0])
    for a, b in blocks:
        block = rows[a:b]
        if fresh:
            disc.grid_gradients(ys, a, b, out=block)
        if W is not None:
            block -= np.matmul(W[a:b], dS, out=scratch[: b - a])
        np.einsum("ij,ij->i", block, block, out=sq[a:b])
    state.interpolant, state.shape, state.rows, state.n_rows = P, shape, rows, P.n_points
    # element-data L2 norms of the gradient rows
    return combine_axes(np.sqrt(disc.h * sq), axes, spec.p)
