"""Error functionals driving the adaptive loops.

Two families of per-index indicators: the residual estimator, which
applies a detail operator to the flux of the current interpolant and
needs no new PDE solves, and the surplus indicator, which solves the
PDE at the candidate's fresh grid points.  The residual detail follows
from the stored surplus blocks of the candidate's backward neighbours
alone, the surplus detail from the new solves.  Both form the detail as
a HierarchicalBlock of surpluses and measure it in a parametric L^p norm
over the box: exact tensor Gauss quadrature for p = 2 (uniform product
measure, weights halved), a tensor sample-grid maximum for p = inf (a
lower bound of the sup), and fixed-order Gauss quadrature otherwise.
"""

import functools
import math
import weakref

import numpy as np

from .fem import SolveCache
from .interp import HierarchicalBlock, _times_y_rows, mode_product, work
from .nodes import growth

_INF_ALIASES = {"inf", "infinity", "sup", "max"}
# reference grid rows per block of reference_error's pass: at mesh 256 a
# block of rows is 512 KB and stays in cache; on gn-ref-inf-m3 a sweep of
# 64..2048 rows on a 2-core host was fastest at 128-256, 40% slower at 2048
_ROW_BLOCK = 256


def _parse_p(p):
    if isinstance(p, str):
        if p.strip().lower() in _INF_ALIASES:
            return math.inf
        p = float(p)
    p = float(p)
    if p != math.inf and not 1.0 <= p:
        raise ValueError("p must lie in [1, inf], got %r" % p)
    return p


class NormSpec:
    """How to measure parametric L^p norms over the box.

    sup_points_per_dim and sup_budget control the p = inf sample grid
    (per-dimension resolution, capped so the total grid stays within
    budget).  quad_order is used only for p outside {2, inf}; for p = 2
    the order is derived from the integrand degree so the quadrature is
    exact.
    """

    def __init__(self, p=2, sup_points_per_dim=33, sup_budget=40000, quad_order=12):
        self.p = _parse_p(p)
        self.sup_points_per_dim = int(sup_points_per_dim)
        self.sup_budget = int(sup_budget)
        self.quad_order = int(quad_order)

    @classmethod
    def from_config(cls, spec):
        if isinstance(spec, (int, float, str)):
            return cls(p=spec)
        spec = dict(spec or {})
        return cls(
            p=spec.get("p", 2),
            sup_points_per_dim=spec.get("sup_points_per_dim", 33),
            sup_budget=spec.get("sup_budget", 40000),
            quad_order=spec.get("quad_order", 12),
        )

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


def norm_axes(spec, degrees):
    """Per-dimension (points, weights) pairs; weights None for p = inf."""
    dim = len(degrees)
    if spec.p == math.inf:
        pts = np.linspace(-1.0, 1.0, sup_points_per_dim(spec, dim))
        return [(pts, None)] * dim
    if spec.p == 2.0:
        return [gauss_axis(int(d) + 1) for d in degrees]
    return [gauss_axis(spec.quad_order)] * dim


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


def _euclidean_lp_norm(block, spec, degrees):
    """L^p-over-box norm of a detail block whose surplus rows were
    pre-transformed so the spatial norm is the plain Euclidean row norm.

    The spatial axis is first compressed with an SVD when that shrinks
    it: row norms depend on the coefficient matrix only through its
    left singular factors, so this is exact and cuts the cost of the
    grid expansion.  For p = inf the sample order is irrelevant (plain
    max); otherwise the norms are restored to canonical order before
    weighting.
    """
    flat = block.values.reshape(-1, block.values.shape[-1])
    if flat.shape[0] < flat.shape[1]:
        U, s, _ = np.linalg.svd(flat, full_matrices=False)
        block = HierarchicalBlock(block.family, block.index, U * s)
    axes = norm_axes(spec, degrees)
    raw = block.chain_raw([a[0] for a in axes])
    rows = raw.reshape(-1, raw.shape[-1])
    norms = np.sqrt(np.einsum("ij,ij->i", rows, rows))
    if spec.p == math.inf:
        return float(np.max(norms)) if norms.size else 0.0
    norms = np.ascontiguousarray(norms.reshape(raw.shape[:-1]).transpose()).ravel()
    return combine_axes(norms, axes, spec.p)


def residual_estimator(P, problem, disc, k, spec):
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
    """
    k = tuple(int(v) for v in k)
    if len(k) != P.dim:
        raise ValueError("index length %d does not match dimension %d" % (len(k), P.dim))
    if k in P.indexset:
        raise ValueError("index %r is already in the set" % (k,))
    kind = P.family.kind
    detail = None
    for m, km in enumerate(k):
        back = k[:m] + (km - 1,) + k[m + 1 :]
        if km == 0 or back not in P.indexset:
            continue
        start, count = P.block_of(back)
        grads = disc.gradient_rows(P.surpluses()[start : start + count])
        term = mode_product(
            _times_y_rows(kind, km), HierarchicalBlock(kind, back, grads).values, m
        )
        term *= disc.terms_mid[m]
        detail = term if detail is None else detail + term
    if detail is None:
        return 0.0
    # element-data L2 norm is sqrt(h) times the Euclidean row norm
    detail *= math.sqrt(disc.h)
    block = HierarchicalBlock(kind, k, detail.reshape(-1, detail.shape[-1]))
    return _euclidean_lp_norm(block, spec, [growth(kind, km) for km in k])


def fresh_solves(P, cache, k):
    """Coordinates of the fresh points of k and the cached solves there,
    rows in block order."""
    newjs = P.new_point_indices(k)
    coords = P.coords_of(np.asarray(newjs, dtype=np.int64))
    return coords, np.vstack([cache.solve_indexed(j, y) for j, y in zip(newjs, coords)])


def surplus_indicator(P, problem, disc, k, spec, cache):
    """Parametric norm (spatial H1_0) of the candidate's detail of u.

    Solves the PDE at the fresh grid points of k through the cache, so
    a later add_index(k) reuses every solve.  k must be addable.
    """
    k = tuple(int(v) for v in k)
    if not P.indexset.is_admissible(k):
        raise ValueError("index %r is not addable to the current set" % (k,))
    coords, u_rows = fresh_solves(P, cache, k)
    surplus = u_rows if P.n_points == 0 else u_rows - P.evaluate(coords)
    kind = P.family.kind
    # H1_0 seminorm of nodal rows is the Euclidean norm of the scaled
    # element differences, which commute with the basis expansion
    block = HierarchicalBlock(kind, k, np.diff(surplus, axis=-1) / math.sqrt(disc.h))
    degrees = [growth(kind, km) for km in k]
    return _euclidean_lp_norm(block, spec, degrees)


def profit(indexset, kind, k, eta):
    """Envelope-averaged profit: summed estimators over summed work.

    eta maps margin indices to estimator values and must cover the
    monotone envelope of k.
    """
    env = indexset.monotone_envelope(k)
    num = sum(eta[tuple(j)] for j in env)
    den = sum(work(kind, tuple(j)) for j in env)
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

    def argmax(self):
        """Lexicographically smallest maximizing candidate."""
        best = None
        for k in sorted(self.values):
            v = self.values[k]
            if best is None or v > self.values[best]:
                best = k
        return best


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


def margin_report(P, problem, disc, spec, memo=None):
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
        lambda k: residual_estimator(P, problem, disc, k, spec),
    )


def reduced_margin_report(P, problem, disc, spec, cache, memo=None):
    """Surplus indicators for every reduced-margin candidate.

    memo works as for margin_report.  A reduced-margin candidate k has
    all its backward neighbours, and so every index i < k, in Lambda.
    At k's fresh points S_Lambda u involves only the blocks of indices
    i < k: the basis functions of a block with some i_m > k_m vanish
    exactly on level k_m's nodes.  So k's surplus, and its indicator,
    never change until k itself is added.
    """
    cands = [tuple(k) for k in P.indexset.reduced_margin()]
    return _memo_report(
        cands,
        set(cands),
        memo,
        lambda k: surplus_indicator(P, problem, disc, k, spec, cache),
    )


def drop_stale(memo, added):
    """Forget the memoized values that adding the indices `added` may
    change: each added index and each of its forward neighbours, the
    only candidates that gain a backward neighbour."""
    for j in map(tuple, added):
        memo.pop(j, None)
        for m in range(len(j)):
            memo.pop(j[:m] + (j[m] + 1,) + j[m + 1 :], None)


def parametric_norm(obj, disc, spec, spatial="L2", degrees=None):
    """L^p-over-the-box norm of a grid-evaluable parametric polynomial.

    obj needs evaluate_grid(axes) returning one spatial row per tensor
    sample point (C order).  With disc=None the rows must be scalars
    and their absolute value plays the role of the spatial norm.
    """
    if degrees is None:
        if isinstance(obj, HierarchicalBlock):
            degrees = [r.stop - 1 for r in obj.ranges]
        elif hasattr(obj, "levels"):
            kind = obj.family.kind
            degrees = [growth(kind, lev) for lev in obj.levels]
        else:
            raise ValueError("degrees must be given for %r" % type(obj).__name__)
    axes = norm_axes(spec, degrees)
    rows = obj.evaluate_grid([a[0] for a in axes])
    if disc is None:
        if rows.shape[1] != 1:
            raise ValueError("scalar rows required when disc is None")
        norms = np.abs(rows[:, 0])
    else:
        norms = disc.norm_rows(rows, spatial)
    return combine_axes(norms, axes, spec.p)


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
        pts = np.linspace(-1.0, 1.0, sup_points_per_dim(spec, dim))
        axes = [(pts, None)] * dim
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
