"""Error functionals driving the adaptive loops.

Two families of per-index indicators: the residual estimator, which
applies a detail operator to the flux of the current interpolant and
needs no new PDE solves, and the surplus indicator, which solves the
PDE at the candidate's fresh grid points.  The residual detail follows
from the stored surplus blocks of the candidate's backward neighbours
alone, the surplus detail from the new solves.  Either detail is a
block of flat surplus rows on the candidate's fresh points, formed by
interp.mode_product and measured by one function, _euclidean_lp_norm,
in a parametric L^p norm over the box: exact tensor Gauss quadrature
for p = 2 (uniform product measure, weights halved), a tensor
sample-grid maximum for p = inf (a lower bound of the sup), and
fixed-order Gauss quadrature otherwise.  For Leja and R-Leja every
fresh block is one row c times prod_m h_{k_m}(y_m), so its norm
factorises exactly into ||c||_2 times a product of memoized 1-D norms
of the h_{k_m}, for every p: at p = inf the maximum of a product of
nonnegative per-axis factors over a tensor grid is the product of the
per-axis maxima.  Multi-point blocks (Clenshaw-Curtis) at p = 2 are
measured through the memoized Gram matrices of the per-level fresh
bases, one mode product per axis; at other p they are expanded on the
tensor grid.
"""

import functools
import inspect
import math
import weakref

import numpy as np

from .fem import SolveCache, config_mapping, config_number
from .interp import _fresh_table, _times_y_rows, fresh_shape, mode_product, work
from .nodes import growth

_INF_ALIASES = {"inf", "infinity", "sup", "max"}
# reference grid rows per block of reference_error's pass: at mesh 256 a
# block of rows is 512 KB and stays in cache; on gn-ref-inf-m3 a sweep of
# 64..2048 rows on a 2-core host was fastest at 128-256, 40% slower at 2048
_ROW_BLOCK = 256


def _parse_p(p):
    if isinstance(p, str) and p.strip().lower() in _INF_ALIASES:
        return math.inf
    p = config_number("norm.p", p)
    if p != math.inf and not 1.0 <= p:
        raise ValueError("p must lie in [1, inf], got %r" % p)
    return p


class NormSpec:
    """How to measure parametric L^p norms over the box.

    sup_points_per_dim (>= 2) and sup_budget (>= 2) control the p = inf
    sample grid (per-dimension resolution, capped so the total grid stays
    within budget, but never below 2).  The p = inf value is the maximum
    over that grid, a lower bound of the sup, so total / a_min certifies
    the error only on the grid.  quad_order (>= 1) is used only for p
    outside {2, inf}; for p = 2 the order is derived from the integrand
    degree so the quadrature is exact.
    """

    def __init__(self, p=2, sup_points_per_dim=33, sup_budget=40000, quad_order=12):
        self.p = _parse_p(p)
        self.sup_points_per_dim = config_number(
            "norm.sup_points_per_dim", sup_points_per_dim, int
        )
        self.sup_budget = config_number("norm.sup_budget", sup_budget, int)
        self.quad_order = config_number("norm.quad_order", quad_order, int)
        for key, value, low in (
            ("sup_points_per_dim", self.sup_points_per_dim, 2),
            ("sup_budget", self.sup_budget, 2),
            ("quad_order", self.quad_order, 1),
        ):
            if value < low:
                raise ValueError("need norm.%s >= %d, got %d" % (key, low, value))

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
            "quad_order": self.quad_order,
        }


@functools.lru_cache(maxsize=None)
def gauss_axis(order):
    """Gauss-Legendre nodes and uniform-measure weights on [-1, 1]."""
    x, w = np.polynomial.legendre.leggauss(int(order))
    return x, w / 2.0


def sup_points_per_dim(spec, dim):
    per = int(spec.sup_budget ** (1.0 / dim))
    return max(2, min(spec.sup_points_per_dim, per))


def _fixed_axis_size(spec, dim):
    """Points per norm axis where they do not depend on the degree: the
    sample count for p = inf, the quadrature order for p outside
    {2, inf}.  None for p = 2, whose Gauss order is the degree plus one."""
    if spec.p == math.inf:
        return sup_points_per_dim(spec, dim)
    if spec.p == 2.0:
        return None
    return spec.quad_order


def _norm_axis(p, n):
    """One n-point norm axis: equispaced samples with weights None for
    p = inf, Gauss points and weights otherwise."""
    if p == math.inf:
        return np.linspace(-1.0, 1.0, n), None
    return gauss_axis(n)


def norm_axes(spec, degrees):
    """Per-dimension (points, weights) pairs; weights None for p = inf."""
    n = _fixed_axis_size(spec, len(degrees))
    return [_norm_axis(spec.p, int(d) + 1 if n is None else n) for d in degrees]


def combine_axes(norms, axes, p):
    """Collapse per-grid-row spatial norms into one L^p value."""
    norms = np.asarray(norms, dtype=np.float64)
    if p == math.inf:
        return float(np.max(norms)) if norms.size else 0.0
    w = axes[0][1]
    for _, wm in axes[1:]:
        w = np.multiply.outer(w, wm)
    w = w.ravel()
    if p == 2.0:
        return float(math.sqrt(float(w @ (norms * norms))))
    return float((w @ norms**p) ** (1.0 / p))


def _level_axis(kind, level, p, n):
    """Level's norm axis as norm_axes gives it: n points, or for n None
    (p = 2) the Gauss order m(level) + 1."""
    return _norm_axis(p, growth(kind, level) + 1 if n is None else n)


@functools.lru_cache(maxsize=None)
def _axis_table(kind, level, p, n):
    """Fresh-basis columns of one level on its norm axis.  Norm axes
    repeat from call to call, so each table is built once.  Read-only:
    every caller shares it."""
    table = _fresh_table(kind, level, _level_axis(kind, level, p, n)[0])
    table.flags.writeable = False
    return table


@functools.lru_cache(maxsize=None)
def _axis_norm(kind, level, p, n):
    """L^p norm over [-1, 1] of the single fresh basis function of a
    unit-growth level on its norm axis, as combine_axes measures it."""
    h = np.abs(_axis_table(kind, level, p, n)[:, 0])
    return combine_axes(h, [_level_axis(kind, level, p, n)], p)


@functools.lru_cache(maxsize=None)
def _axis_gram(kind, level):
    """Gram matrix G = B^T diag(w) B of one level's fresh basis under the
    uniform measure on [-1, 1]: B is the p = 2 _axis_table and w the
    weights of its Gauss order m(level) + 1, which is exact for the
    products h_i h_j of degree at most 2 m(level).  Read-only: every
    caller shares it."""
    B = _axis_table(kind, level, 2.0, None)
    w = _level_axis(kind, level, 2.0, None)[1]
    G = B.T @ (w[:, None] * B)
    G.flags.writeable = False
    return G


def _euclidean_lp_norm(kind, index, rows, spec):
    """L^p-over-box norm of the detail on the fresh block of index, given
    as flat C-order surplus rows pre-transformed so the spatial norm is
    the plain Euclidean row norm.

    One row c (Leja, R-Leja) is the detail c * prod_m h_{k_m}(y_m).  On
    the tensor grid of norm_axes its norm factorises exactly: ||c||_2
    times the product over m of _axis_norm.  For p = inf the maximum over
    the grid of a product of nonnegative per-axis factors is the product
    of the per-axis maxima.  More rows (Clenshaw-Curtis) at p = 2 give
    the squared norm sum_e c_e^T (G_1 x ... x G_M) c_e over the spatial
    columns c_e, with G_m = _axis_gram(kind, k_m): one mode product per
    axis, no grid.  At other p they are expanded on the norm_axes grid:
    the degree in dimension m is m(k_m).  The spatial axis is first
    compressed with an SVD when that shrinks it: row norms depend on the
    coefficient matrix only through its left singular factors, so this
    is exact and cuts the cost of the grid expansion.  For p = inf the
    sample order is irrelevant (plain max); otherwise the norms are
    restored to canonical order before weighting.
    """
    n = _fixed_axis_size(spec, len(index))
    if rows.shape[0] == 1:
        value = math.sqrt(float(rows[0] @ rows[0]))
        for km in index:
            value *= _axis_norm(kind, km, spec.p, n)
        return value
    if spec.p == 2.0:
        shape = fresh_shape(kind, index)
        G_rows = rows
        for m, km in enumerate(index):
            G_rows = mode_product(_axis_gram(kind, km), G_rows, math.prod(shape[:m]))
        return math.sqrt(float(np.vdot(rows, G_rows)))
    if rows.shape[0] < rows.shape[1]:
        U, s, _ = np.linalg.svd(rows, full_matrices=False)
        rows = U * s
    T = rows.reshape(fresh_shape(kind, index) + (rows.shape[1],))
    # each contraction puts its sample axis first: they end up reversed
    for m, km in enumerate(index):
        T = np.tensordot(_axis_table(kind, km, spec.p, n), T, axes=(1, m))
    flat = T.reshape(-1, T.shape[-1])
    norms = np.sqrt(np.einsum("ij,ij->i", flat, flat))
    if spec.p == math.inf:
        return float(np.max(norms)) if norms.size else 0.0
    norms = np.ascontiguousarray(norms.reshape(T.shape[:-1]).transpose()).ravel()
    axes = [_level_axis(kind, km, spec.p, n) for km in index]
    return combine_axes(norms, axes, spec.p)


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


class _ReferenceRows:
    """Gradient rows of u_h - S u_h on one reference grid, for one
    interpolant, with the number of surplus rows already subtracted."""

    def __init__(self, grid, P, n_elements):
        self.key = (grid.shape, grid.tobytes())
        self.owner = weakref.ref(P)
        self.n_rows = 0
        self.rows = np.empty((grid.shape[0], n_elements))

    def serves(self, grid, P):
        return self.owner() is P and self.key == (grid.shape, grid.tobytes())


def reference_error(P, disc, spec, quad_order=20, cache=None):
    """Parametric norm of u_h - S u_h on a tensor reference grid.

    The spatial H1_0 seminorm is the L2 norm of the element gradient, so
    the reference solutions are never formed: disc.gradients_at gives the
    gradient rows of u_h in closed form, uncounted and not memoized.
    Hierarchical surpluses never change once inserted, so the cache (if
    given) keeps the gradient rows of u_h - S u_h, keyed by the grid's
    bytes, a weak reference to P and the count of surplus rows
    subtracted; each call subtracts only the rows P gained since, and
    another interpolant or grid starts afresh.  One pass over the grid,
    in blocks of _ROW_BLOCK rows that stay in cache, forms the gradients
    of fresh rows, subtracts the new surpluses' part and sums the
    squared row norms.  So a call allocates nothing the size of the
    rows: its largest temporaries are one block and the basis weights of
    the new grid points at the reference points.  A fresh state is kept
    only once it is complete, so an EllipticityError (naming the first
    non-elliptic reference point) leaves none behind.
    Tensor grids are only feasible for a handful of dimensions, so more
    than 4 is rejected.
    """
    dim = P.dim
    if dim > 4:
        raise ValueError(
            "tensor reference grids are infeasible for M=%d; use Monte Carlo sampling instead"
            % dim
        )
    if spec.p == math.inf:
        axes = norm_axes(spec, [0] * dim)  # the estimators' sample grid
    else:
        axes = [gauss_axis(int(quad_order))] * dim
    mesh = np.meshgrid(*[a[0] for a in axes], indexing="ij")
    grid = np.stack([v.ravel() for v in mesh], axis=-1)
    state = None if cache is None else cache.reference_rows
    fresh = state is None or not state.serves(grid, P)
    if fresh:
        if cache is not None:
            # release the old rows before allocating the new ones
            cache.reference_rows = None
        state = _ReferenceRows(grid, P, disc.n_elements)
    W = dS = None
    if P.n_points > state.n_rows:
        W = P.basis_weights(grid, start=state.n_rows)
        dS = disc.gradient_rows(P.surpluses(start=state.n_rows))
        if dS.shape[0] == 1:
            # np.matmul over an inner dimension of 1 took twice as long as
            # over 2 (40 vs 19 ms per pass at 36k x 256 rows); the added
            # zero term leaves every product exact
            W = np.hstack([W, np.zeros_like(W)])
            dS = np.vstack([dS, np.zeros_like(dS)])
    n_grid = grid.shape[0]
    scratch = np.empty((min(_ROW_BLOCK, n_grid), disc.n_elements))
    sq = np.empty(n_grid)
    for a in range(0, n_grid, _ROW_BLOCK):
        b = min(a + _ROW_BLOCK, n_grid)
        rows = state.rows[a:b]
        if fresh:
            disc.gradients_at(grid[a:b], out=rows)
        if W is not None:
            prod = np.matmul(W[a:b], dS, out=scratch[: b - a])
            rows -= prod
        np.einsum("ij,ij->i", rows, rows, out=sq[a:b])
    state.n_rows = P.n_points
    if cache is not None:
        cache.reference_rows = state
    # element-data L2 norms, as disc.l2_element_rows
    return combine_axes(np.sqrt(disc.h * sq), axes, spec.p)


def monte_carlo_error(P, disc, spec, n_samples=2000, seed=0, cache=None):
    """Sampling-based error for cross-checks and large M."""
    rng = np.random.default_rng(seed)
    Y = rng.uniform(-1.0, 1.0, size=(int(n_samples), P.dim))
    if cache is None:
        cache = SolveCache(disc)
    norms = disc.h1_rows(cache.solve_y(Y) - P.evaluate(Y))
    if spec.p == math.inf:
        return float(np.max(norms))
    return float(np.mean(norms**spec.p) ** (1.0 / spec.p))
