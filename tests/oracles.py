"""Independent reference forms the test suite checks the package against,
and the helpers its test files share.  No run, query or CLI command uses
any of it:

* the combination-technique view of a detail (Gerstner & Griebel,
  Computing 71, 2003), built on sparseuq.interp.TensorDetail from a
  per-point evaluator, and HierarchicalBlock, the same detail evaluated
  from its fresh-point surpluses;
* brute-force transcriptions of the index-set definitions, which
  MonotoneIndexSet's margins and envelopes are checked against;
* the greedy Leja search that the tabulated Leja points come from;
* the gn loop's rounds recomputed from the whole margin each round, and
  the gg loop's from the whole reduced margin, with a dict memo pruned
  by drop_stale, which estimators.MarginState's incremental rounds are
  checked against;
* Lebesgue constants and detail norms on equispaced samples;
* pointwise coefficients, H1_0 and element L2 row norms, and a Monte
  Carlo reference error;
* the final-set file as json.dumps of the whole snapshot, which
  cli.write_final_set streams one point record at a time.
"""

import json
import math
from fractions import Fraction

import numpy as np

from sparseuq import kernels
from sparseuq.estimators import fresh_solves, profit, residual_estimator, surplus_indicator
from sparseuq.fem import SolveCache
from sparseuq.interp import (
    _EINSUM_LETTERS,
    SparseInterpolant,
    TensorDetail,
    TensorPoly,
    _fresh_inverse_rows,
    _fresh_table,
    _level_basis,
    fresh_ranges,
    mode_product,
    tensor_grid_axes,
    work,
)
from sparseuq.multiindex import MonotoneIndexSet
from sparseuq.nodes import (
    _LEJA_CANDIDATES,
    _golden_max,
    get_family,
)

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


def fresh_shape(kind, i):
    """Per-dimension counts m(i_m) - m(i_m - 1) of the fresh points of i,
    the growth function extended by m(-1) = -1 so a zero component
    contributes one point."""
    return tuple(len(r) for r in fresh_ranges(kind, i))


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


def add_evaluated(P, i, f):
    """P.add_index(i) with the values of the per-point evaluator f at i's
    fresh points; returns the number of fresh points."""
    return P.add_index(i, values=[f(y) for y in P.coords_of(P.new_point_indices(i))])


def point_indices(P):
    """Node-index tuples of P's grid points, in insertion order."""
    return [tuple(rec["j"]) for rec in P.to_jsonable()["points"]]


def leading_part(P, count):
    """A fresh interpolant rebuilt, through P's snapshot, from the first
    count points of P, which must end a block: the interpolant P was when
    it had count points."""
    data = P.to_jsonable()
    indices = [k for k in data["indices"] if P.block_of(k)[0] < count]
    assert sum(work(P.family.kind, k) for k in indices) == count
    data.update(indices=indices, points=data["points"][:count])
    return SparseInterpolant.from_jsonable(data)


def grid_coords(P):
    """Coordinates of P's grid points, rows in insertion order."""
    return P.coords_of(point_indices(P))


def dense_basis_weights(P, Y):
    """P.basis_weights(Y) as a product over all M parameters, level-0
    factors h_0 = 1 included: one basis table per parameter, gathered at
    the stored points' node indices and multiplied in the order
    m = 0, 1, ..., starting from the first factor.  Shape (P, rows)."""
    pts = np.asarray(point_indices(P))
    Y = np.asarray(Y, dtype=np.float64)
    W = None
    for m in range(P.dim):
        g = P.family.basis_matrix(Y[:, m], int(pts[:, m].max()) + 1)[:, pts[:, m]]
        W = g if W is None else W * g
    return W


def value_below_all_axes(P, k):
    """P.value_below(k) with a weight factor on every axis: an axis with
    k_m = 0 contributes its level-0 table [[1.0]]; the rows of the box
    below k, weighed on the C-order grid of k's fresh points."""
    kind = P.family.kind
    pts = np.asarray(point_indices(P))
    ranges = fresh_ranges(kind, k)
    box = (pts < [r.stop for r in ranges]).all(axis=1)
    W = None
    for km, r, col in zip(k, ranges, pts[box].T):
        g = _level_basis(kind, km)[r.start : r.stop].T[col]
        W = g if W is None else (W[:, :, None] * g[:, None, :]).reshape(len(col), -1)
    return W.T @ P.surpluses()[box]


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
    # theta_0 = 0, theta_1 = pi, theta_2m = theta_m / 2,
    # theta_2m+1 = theta_2m + pi, in units of pi
    qs = [Fraction(0), Fraction(1)]
    for j in range(2, n):
        qs.append(qs[j // 2] / 2 if j % 2 == 0 else qs[j - 1] + 1)
    return qs[:n]


def greedy_leja(n):
    """First n Leja points by the greedy search from -1 that the package
    ran for every node before it tabulated them: scan the candidates'
    running log-distance sums, polish the best one by golden section
    between its neighbours, snap to an endpoint or 0 when those win.
    The oracle of nodes._LEJA_TABLE and of the search past its end."""
    nodes = [-1.0]
    t = np.linspace(0.0, 1.0, _LEJA_CANDIDATES)
    cand = -np.cos(np.pi * t)
    vals = kernels.log_product(cand, np.asarray(nodes))
    while len(nodes) < n:
        arr = np.asarray(nodes)

        def objective(y):
            d = np.abs(y - arr)
            if np.any(d == 0.0):
                return -np.inf
            return float(np.sum(np.log(d)))

        best = float(np.max(vals))
        pos = int(np.argmax(vals >= best - 1e-9))
        y0 = float(cand[pos])
        srt = np.sort(arr)
        below = srt[srt < y0]
        above = srt[srt > y0]
        lo = float(below[-1]) if below.size else -1.0
        hi = float(above[0]) if above.size else 1.0
        y = _golden_max(objective, lo, hi)
        for endpoint in (lo, hi):
            if endpoint in (-1.0, 1.0) and objective(endpoint) >= objective(y) - 1e-12:
                y = endpoint
                break
        if lo < 0.0 < hi and objective(0.0) >= objective(y) - 1e-12:
            y = 0.0
        nodes.append(float(y))
        vals += kernels.log_product(cand, np.asarray(nodes[-1:]))
    return np.asarray(nodes[:n])


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


def _check_dims(indices):
    """Return the common length of the given index tuples.

    Raises ValueError on an empty collection or mixed lengths.
    """
    it = iter(indices)
    try:
        first = next(it)
    except StopIteration:
        raise ValueError("empty index collection has no dimension")
    m = len(first)
    for k in it:
        if len(k) != m:
            raise ValueError(
                "dimension mismatch: %r has length %d, expected %d" % (k, len(k), m)
            )
    return m


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


def matches_definitions(s):
    """Whether the MonotoneIndexSet s holds only its dimension and a
    monotone set of members, and its margin and reduced margin are those
    recomputed from scratch."""
    members = sorted(s.members)
    return (
        set(vars(s)) == {"dim", "members"}
        and is_monotone(members)
        and set(s.margin()) == margin(members)
        and set(s.reduced_margin()) == reduced_margin(members)
    )


# ---------------------------------------------------------------------------
# the gn loop, round by round from the whole margin


def drop_stale(memo, added):
    """Forget the memoized values that adding the indices `added` may
    change: each added index and each of its forward neighbours, the
    only candidates that gain a backward neighbour.  Returns the set of
    these keys, whether or not memo held them."""
    keys = set()
    for j in map(tuple, added):
        keys.add(j)
        keys.update(j[:m] + (j[m] + 1,) + j[m + 1 :] for m in range(len(j)))
    for j in keys:
        memo.pop(j, None)
    return keys


def lex_argmax(values):
    """The lexicographically smallest key of largest value."""
    return min(values, key=lambda k: (-values[k], k))


def memo_report(P, disc, spec, memo):
    """The residual estimators of the sorted full margin as a dict, with
    the row statistics a trace row takes from them: only candidates
    missing from memo are estimated, and stored in it."""
    reduced = set(P.indexset.reduced_margin())
    values, reused = {}, 0
    for k in P.indexset.margin():
        if k in memo:
            reused += 1
        else:
            memo[k] = residual_estimator(P, disc, k, spec)
        values[k] = memo[k]
    total = math.fsum(values.values())
    vmax = float(max(values.values())) if values else 0.0
    rvals = [values[k] for k in values if k in reduced]
    rmax = max(rvals) if rvals else 0.0
    if rmax > 0.0:
        ratio_c = vmax / rmax
    else:
        ratio_c = math.inf if vmax > 0.0 else 1.0
    return values, (total, vmax, ratio_c, len(values) - reused, reused)


def gn_rounds(problem, disc, config):
    """The rounds of adaptive.run_strategy for a gn strategy, each as
    (marked, (total, vmax, ratio_c, fresh, reused)), with every profit
    computed again from a fresh monotone envelope in every round; the
    stopping round marks nothing."""
    P = SparseInterpolant(config.nodes, problem.dim)
    cache = SolveCache(disc)
    root = (0,) * problem.dim
    P.add_index(root, values=fresh_solves(P, cache, root))
    memo, rounds = {}, []
    for n in range(config.max_iter + 1):
        values, stats = memo_report(P, disc, config.norm, memo)
        if stats[0] <= config.tol or n + 1 > config.max_iter or cache.n_solves >= config.max_solves:
            rounds.append(([], stats))
            return rounds
        s = P.indexset
        if config.strategy == "gn_profit":
            counts = {k: work(config.nodes, k) for k in values}
            pis = {k: profit(s.monotone_envelope(k), values, counts) for k in values}
            marked = s.monotone_envelope(lex_argmax(pis))
        else:
            marked = s.monotone_envelope(lex_argmax(values))
        rounds.append((marked, stats))
        for k in marked:
            P.add_index(k, values=fresh_solves(P, cache, k))
        drop_stale(memo, marked)


def gg_rounds(problem, disc, config):
    """The rounds of adaptive.run_strategy for gg, each as
    (marked, (total, vmax, ratio_c, fresh, reused)), with the reduced
    margin read from the index set into a dict memo every round and the
    Dorfler prefix taken from all its values sorted; the stopping round
    marks the reduced margin that augments the set."""
    P = SparseInterpolant(config.nodes, problem.dim)
    cache = SolveCache(disc)
    root = (0,) * problem.dim
    P.add_index(root, values=fresh_solves(P, cache, root))
    memo, rounds = {}, []
    for n in range(config.max_iter + 1):
        values, reused = {}, 0
        for k in map(tuple, P.indexset.reduced_margin()):
            if k in memo:
                reused += 1
            else:
                memo[k] = surplus_indicator(P, disc, k, config.norm, cache)
            values[k] = memo[k]
        total, vmax = math.fsum(values.values()), float(max(values.values()))
        stats = (total, vmax, 1.0, len(values) - reused, reused)
        if total <= config.tol or n + 1 > config.max_iter or cache.n_solves >= config.max_solves:
            rounds.append((sorted(values), stats))
            return rounds
        marked, acc = [], 0.0
        for k in sorted(values, key=lambda k: (-values[k], k)):
            marked.append(k)
            acc += values[k]
            if acc >= config.dorfler * total:
                break
        rounds.append((marked, stats))
        for k in marked:
            P.add_index(k, values=fresh_solves(P, cache, k))
        drop_stale(memo, marked)


# ---------------------------------------------------------------------------
# snapshots


def final_set_text(header, P):
    """The final-set file of P under header (problem_hash, strategy,
    a_min): json.dumps of the whole snapshot dict and a newline."""
    snapshot = {
        "problem_hash": header["problem_hash"],
        "strategy": header["strategy"],
        "a_min": header["a_min"],
        "interpolant": P.to_jsonable(),
    }
    return json.dumps(snapshot) + "\n"


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
