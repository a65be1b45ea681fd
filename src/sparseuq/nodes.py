"""Nested univariate collocation node families.

Three families on [-1, 1], all nested so that the level-k node set is a
prefix of one fixed hierarchical sequence y_(0), y_(1), ...:

* ``leja``: greedy points maximizing the product of distances to the
  points already placed, anchored at y_(0) = -1.  Unit growth, the level
  k set holds the first k+1 points.
* ``rleja``: projection of the analogous greedy sequence on the complex
  unit circle anchored at 1.  The circle sequence has the closed form
  angle recursion theta_0 = 0, theta_1 = pi, theta_{2m} = theta_m / 2,
  theta_{2m+1} = theta_{2m} + pi; projecting with cos and dropping
  repeated values yields the real sequence 1, -1, 0, ...  Unit growth.
* ``clenshaw_curtis``: extrema of Chebyshev polynomials with the
  doubling rule m(0) = 0, m(k) = 2^k; level k holds the 2^k + 1 points
  -cos(pi i / 2^k).  The hierarchical order is level-major with odd
  numerators increasing inside each level.

The growth function m(k) gives the largest sequence position in level k,
so level sets have m(k) + 1 points.  Node values are computed once and
cached, which makes nestedness exact in floating point.

NodeFamily.basis_matrix gives the hierarchical basis tables every run
evaluates.  lagrange_matrix, the full Lagrange table of one level, serves
only the combination-technique view (interp.TensorPoly) and the test
suite's Lebesgue-constant oracles (tests/oracles.py); it stays here
because the benchmark's tracer wraps it by name.
"""

import functools
import math
from fractions import Fraction

import numpy as np

from . import kernels

LEJA = "leja"
RLEJA = "rleja"
CLENSHAW_CURTIS = "clenshaw_curtis"

_ALIASES = {
    "leja": LEJA,
    "rleja": RLEJA,
    "r-leja": RLEJA,
    "r_leja": RLEJA,
    "clenshaw_curtis": CLENSHAW_CURTIS,
    "clenshaw-curtis": CLENSHAW_CURTIS,
    "cc": CLENSHAW_CURTIS,
}

_LEJA_CANDIDATES = 100001
_GOLDEN_ITERS = 90
# deepest Clenshaw-Curtis level with finite basis tables: at level 12
# (4,097 nodes) the running products of kernels.basis_table overflow
_CC_MAX_LEVEL = 11


def normalize_kind(kind):
    try:
        return _ALIASES[str(kind).strip().lower()]
    except KeyError:
        raise ValueError("unknown node family %r" % (kind,))


def growth(kind, k):
    """Largest sequence position of level k: identity, or doubling for CC.

    A plain int for any integer k (NumPy ones too), memoized per
    (kind, level) so the kind is resolved only once per level.
    """
    return _growth(kind, int(k))


@functools.lru_cache(maxsize=None)
def _growth(kind, k):
    if k < 0:
        raise ValueError("level must be non-negative")
    if normalize_kind(kind) == CLENSHAW_CURTIS:
        return 0 if k == 0 else 2 ** k
    return k


def growth_inverse(kind, i):
    """Smallest level whose node set contains sequence position i."""
    if i < 0:
        raise ValueError("node index must be non-negative")
    if normalize_kind(kind) == CLENSHAW_CURTIS:
        if i == 0:
            return 0
        if i == 1:
            return 1
        return (i - 1).bit_length()
    return i


def _golden_max(f, a, b, iters=_GOLDEN_ITERS):
    """Golden-section maximization of a unimodal f on [a, b]."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc = f(c)
    fd = f(d)
    for _ in range(iters):
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def _grow_circle_fractions(qs, n):
    """Extend the circle-Leja angles qs (multiples of pi, starting 0, 1)
    to at least n entries.  Each step halves the angle halfway along the
    list and appends it and its antipode, q/2 and q/2 + 1."""
    while len(qs) < n:
        q = qs[len(qs) // 2] / 2
        qs.append(q)
        qs.append(q + 1)


class NodeFamily:
    """One nested node family with cached sequence and basis data."""

    _registry = {}

    def __init__(self, kind):
        self.kind = normalize_kind(kind)
        self._nodes = []
        self._nodes_arr = np.empty(0)
        self._mks = []
        self._mks_arr = np.empty(0, dtype=np.int64)
        self._denoms = []
        self._denoms_arr = np.empty(0)
        self._level_denom_cache = {}
        if self.kind == RLEJA:
            self._rleja_qs = [Fraction(0), Fraction(1)]
            self._rleja_seen = set()
            self._rleja_next = 0
        if self.kind == CLENSHAW_CURTIS:
            self._cc_next = (1, 0)

    @classmethod
    def get(cls, kind):
        """Shared per-kind instance so caches are reused across callers."""
        kind = normalize_kind(kind)
        fam = cls._registry.get(kind)
        if fam is None:
            fam = cls(kind)
            cls._registry[kind] = fam
        return fam

    # -- sequence generation ------------------------------------------------

    def _extend_leja(self, n):
        nodes = self._nodes
        if not nodes:
            nodes.append(-1.0)
            t = np.linspace(0.0, 1.0, _LEJA_CANDIDATES)
            self._leja_cand = -np.cos(np.pi * t)
            # running sum over the placed nodes of log|cand - y_i|, one
            # column added per node, kept across calls
            self._leja_score = kernels.log_product(self._leja_cand, np.asarray(nodes))
        cand = self._leja_cand
        vals = self._leja_score
        while len(nodes) < n:
            arr = np.asarray(nodes)

            def objective(y):
                d = np.abs(y - arr)
                if np.any(d == 0.0):
                    return -np.inf
                return float(np.sum(np.log(d)))

            best = float(np.max(vals))
            # leftmost candidate within tolerance of the best value, so a
            # symmetric tie resolves to the smaller point
            pos = int(np.argmax(vals >= best - 1e-9))
            y0 = float(cand[pos])
            srt = np.sort(arr)
            below = srt[srt < y0]
            above = srt[srt > y0]
            lo = float(below[-1]) if below.size else -1.0
            hi = float(above[0]) if above.size else 1.0
            y = _golden_max(objective, lo, hi)
            # a domain endpoint attaining the max is the real argsup; the
            # polish can only approach it from inside, so snap to it
            for endpoint in (lo, hi):
                if endpoint in (-1.0, 1.0) and objective(endpoint) >= objective(y) - 1e-12:
                    y = endpoint
                    break
            # symmetric configurations put the true argmax exactly at 0;
            # the polish stalls within ~1e-10 there, so snap when 0 wins
            if lo < 0.0 < hi and objective(0.0) >= objective(y) - 1e-12:
                y = 0.0
            nodes.append(float(y))
            vals += kernels.log_product(cand, np.asarray(nodes[-1:]))

    def _extend_rleja(self, n):
        nodes = self._nodes
        qs = self._rleja_qs
        seen = self._rleja_seen
        idx = self._rleja_next
        half = Fraction(1, 2)
        while len(nodes) < n:
            _grow_circle_fractions(qs, idx + 1)
            q = qs[idx]
            idx += 1
            r = q if q <= 1 else 2 - q
            if r in seen:
                continue
            seen.add(r)
            # cos(pi r) written as sin(pi (1/2 - r)); the argument is an
            # exact dyadic float, so symmetric pairs project to exactly
            # opposite values and the centre projects to exactly 0.0
            nodes.append(math.sin(math.pi * float(half - r)))
        self._rleja_next = idx

    def _extend_cc(self, n):
        nodes = self._nodes
        if not nodes:
            nodes.append(0.0)
        k, i = self._cc_next
        while len(nodes) < n:
            nodes.append(math.sin(math.pi * (i / float(2 ** k) - 0.5)))
            if k == 1:
                if i == 0:
                    i = 2
                else:
                    k, i = 2, 1
            else:
                i += 2
                if i > 2 ** k - 1:
                    k, i = k + 1, 1
        self._cc_next = (k, i)

    def ensure_nodes(self, n):
        if len(self._nodes) >= n:
            return
        if self.kind == LEJA:
            self._extend_leja(n)
        elif self.kind == RLEJA:
            self._extend_rleja(n)
        else:
            self._extend_cc(n)
        self._nodes_arr = np.asarray(self._nodes)

    def nodes(self, n):
        """First n entries of the hierarchical sequence, n >= 0."""
        if n < 0:
            raise ValueError("node count must be non-negative, got %d" % n)
        self.ensure_nodes(n)
        return self._nodes_arr[:n].copy()

    def point(self, i):
        """Entry i >= 0 of the hierarchical sequence."""
        if i < 0:
            raise ValueError("node index must be non-negative, got %d" % i)
        self.ensure_nodes(i + 1)
        return self._nodes[i]

    def level_nodes(self, k):
        """The level-k set, in hierarchical sequence order."""
        return self.nodes(growth(self.kind, k) + 1)

    # -- basis data ---------------------------------------------------------

    def _denom(self, i, mk):
        """prod_{j <= mk, j != i} 2 (y_i - y_j), the denominator
        kernels.basis_table takes for node i among the first mk + 1."""
        d = 1.0
        for j in range(mk + 1):
            if j != i:
                d *= 2.0 * (self._nodes[i] - self._nodes[j])
        return d

    def ensure_basis(self, n):
        """Precompute level sizes and denominators for sequence positions < n."""
        if len(self._mks) >= n:
            return
        while len(self._mks) < n:
            i = len(self._mks)
            mk = growth(self.kind, growth_inverse(self.kind, i))
            self.ensure_nodes(mk + 1)
            self._mks.append(mk)
            self._denoms.append(self._denom(i, mk))
        self._mks_arr = np.asarray(self._mks, dtype=np.int64)
        self._denoms_arr = np.asarray(self._denoms)

    def _check_table(self, n):
        """Raise ValueError when a basis table on the first n sequence
        positions would reach past _CC_MAX_LEVEL."""
        if self.kind == CLENSHAW_CURTIS and n > growth(self.kind, _CC_MAX_LEVEL) + 1:
            raise ValueError(
                "Clenshaw-Curtis basis tables overflow at level %d; the limit is level %d"
                % (growth_inverse(self.kind, n - 1), _CC_MAX_LEVEL)
            )

    def basis_matrix(self, ys, n):
        """Hierarchical basis table: column i is h_i(ys), i < n."""
        self._check_table(n)
        self.ensure_basis(n)
        ys = np.ascontiguousarray(ys, dtype=np.float64)
        need = int(self._mks_arr[:n].max()) + 1 if n else 0
        return kernels.basis_table(
            ys, self._nodes_arr[:need], self._mks_arr[:n], self._denoms_arr[:n]
        )

    def _level_denoms(self, k):
        denoms = self._level_denom_cache.get(k)
        if denoms is None:
            mk = growth(self.kind, k)
            self.ensure_nodes(mk + 1)
            denoms = np.array([self._denom(i, mk) for i in range(mk + 1)])
            self._level_denom_cache[k] = denoms
        return denoms

    def lagrange_matrix(self, ys, k):
        """Full Lagrange basis table on the level-k set (sequence order)."""
        mk = growth(self.kind, k)
        self._check_table(mk + 1)
        denoms = self._level_denoms(k)
        ys = np.ascontiguousarray(ys, dtype=np.float64)
        mks = np.full(mk + 1, mk, dtype=np.int64)
        return kernels.basis_table(ys, self._nodes_arr[: mk + 1], mks, denoms)


def get_family(kind_or_family):
    if isinstance(kind_or_family, NodeFamily):
        return kind_or_family
    return NodeFamily.get(kind_or_family)


def leja_nodes(n):
    """First n Leja points on [-1, 1], starting at -1."""
    return get_family(LEJA).nodes(n)


def rleja_nodes(n):
    """First n projected circle-Leja points, starting at 1, -1, 0."""
    return get_family(RLEJA).nodes(n)


def clenshaw_curtis_nodes(k):
    """The level-k Clenshaw-Curtis set in hierarchical sequence order."""
    return get_family(CLENSHAW_CURTIS).level_nodes(k)
