"""Error functionals driving the adaptive loops.

Two families of per-index indicators: the residual estimator, which
applies a detail operator to the flux of the current interpolant and
needs no new PDE solves, and the surplus indicator, which solves the
PDE at the candidate's fresh grid points.  Both form the detail as a
HierarchicalBlock of surpluses and measure it in a parametric L^p norm
over the box: exact tensor Gauss quadrature for p = 2 (uniform product
measure, weights halved), a tensor sample-grid maximum for p = inf (a
lower bound of the sup), and fixed-order Gauss quadrature otherwise.
"""

import functools
import math
import weakref

import numpy as np

from .fem import SolveCache
from .interp import HierarchicalBlock, tensor_values, work
from .nodes import growth

_INF_ALIASES = {"inf", "infinity", "sup", "max"}
_ROW_BLOCK = 2048


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


def flux_on_points(P, disc, Y):
    """Rows of a(., y) * u_n'(., y): element data, shape (rows, n)."""
    rows = P.evaluate(Y)
    grads = disc.gradient_rows(rows)
    a_el = disc.a0_mid[None, :] + np.asarray(Y, dtype=np.float64) @ disc.terms_mid
    return a_el * grads


def residual_estimator(P, problem, disc, k, spec):
    """Parametric norm of the detail operator applied to the flux.

    Purely post-processes the current interpolant: the flux is sampled
    on the candidate's level grid, the detail is formed from those
    samples by HierarchicalBlock.from_level_grid, and no PDE is solved.
    k must lie outside the current index set.
    """
    k = tuple(int(v) for v in k)
    if len(k) != P.dim:
        raise ValueError("index length %d does not match dimension %d" % (len(k), P.dim))
    if k in P.indexset:
        raise ValueError("index %r is already in the set" % (k,))
    kind = P.family.kind
    flux = tensor_values(kind, k, lambda Y: flux_on_points(P, disc, Y))
    # element-data L2 norm is sqrt(h) times the Euclidean row norm
    block = HierarchicalBlock.from_level_grid(kind, k, flux * math.sqrt(disc.h))
    # affine coefficient raises the captured degree by one per dimension
    degrees = [max(growth(kind, km), d + 1) for km, d in zip(k, P.degrees)]
    return _euclidean_lp_norm(block, spec, degrees)


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
    """Per-candidate estimator values for one adaptive iteration."""

    def __init__(self, kind, values, reduced_members):
        self.values = dict(values)
        self.work = {k: work(kind, k) for k in self.values}
        self.total = float(sum(self.values.values()))
        self.vmax = float(max(self.values.values())) if self.values else 0.0
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


def margin_report(P, problem, disc, spec):
    """Residual estimators for every full-margin candidate.

    Candidates are estimated one after another in lexicographic order.
    """
    cands = [tuple(k) for k in P.indexset.margin()]
    vals = [residual_estimator(P, problem, disc, k, spec) for k in cands]
    reduced = set(map(tuple, P.indexset.reduced_margin()))
    return EstimatorReport(P.family.kind, dict(zip(cands, vals)), reduced)


def reduced_margin_report(P, problem, disc, spec, cache):
    """Surplus indicators for every reduced-margin candidate."""
    cands = [tuple(k) for k in P.indexset.reduced_margin()]
    vals = [surplus_indicator(P, problem, disc, k, spec, cache) for k in cands]
    return EstimatorReport(P.family.kind, dict(zip(cands, vals)), set(cands))


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

    def __init__(self, disc, U, P):
        self.U = U
        self.owner = weakref.ref(P)
        self.n_rows = 0
        self.rows = disc.gradient_rows(U)


def reference_error(P, disc, spec, quad_order=20, cache=None):
    """Parametric norm of u_h - S u_h on a tensor reference grid.

    The PDE is solved at every grid point in one batch through the
    cache's uncounted reference side (a throwaway cache when none is
    given), and the spatial H1_0 seminorm of the difference is measured
    as the L2 norm of its gradient.  Hierarchical surpluses never change
    once inserted, so the cache also keeps the gradient rows of
    u_h - S u_h, tied to P by a weak reference and the count of surplus
    rows subtracted; each call subtracts only the rows P gained since.
    Another interpolant or grid rebuilds them from the memoized solves.
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
    if cache is None:
        cache = SolveCache(disc)
    U = cache.solve_y(grid)
    state = cache.reference_rows
    if state is None or state.U is not U or state.owner() is not P:
        state = cache.reference_rows = _ReferenceRows(disc, U, P)
    if P.n_points > state.n_rows:
        W = P.basis_weights(grid, start=state.n_rows)
        dS = disc.gradient_rows(P.surpluses(start=state.n_rows))
        # in row blocks: a grid-sized product would be a fresh allocation
        # per call, whose page faults cost more than the product
        for a in range(0, len(grid), _ROW_BLOCK):
            state.rows[a : a + _ROW_BLOCK] -= W[a : a + _ROW_BLOCK] @ dS
        state.n_rows = P.n_points
    return combine_axes(disc.l2_element_rows(state.rows), axes, spec.p)


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
