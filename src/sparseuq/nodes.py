"""Nested univariate collocation node families.

Three families on [-1, 1], all nested so that the level-k node set is a
prefix of one fixed hierarchical sequence y_(0), y_(1), ...:

* ``leja``: greedy points maximizing the product of distances to the
  points already placed, anchored at y_(0) = -1.  Unit growth, the level
  k set holds the first k+1 points.  The sequence is fixed, so its first
  64 points are a committed table (_LEJA_TABLE) and a run reads them
  without a search.  The table is the greedy search of
  tests/oracles.py, greedy_leja(64), bitwise; to regenerate it, run from
  the repository root

      PYTHONPATH=src:tests python3 -c "from oracles import greedy_leja; [print(repr(y) + ',') for y in greedy_leja(64).tolist()]"

  and paste the lines into the table.  Past the table the same search
  continues: it scores the candidates against the tabulated points one
  point at a time, in sequence order, which is bitwise the running score
  a search from -1 would hold, so points 65 and up are those of the
  untabulated search too.
* ``rleja``: projection of the analogous greedy sequence on the complex
  unit circle anchored at 1.  The circle sequence has the closed form
  angle recursion theta_0 = 0, theta_1 = pi, theta_{2m} = theta_m / 2,
  theta_{2m+1} = theta_{2m} + pi; projecting with cos and dropping
  repeated values yields the real sequence 1, -1, 0, ...  Unit growth.
* ``clenshaw_curtis``: extrema of Chebyshev polynomials with the
  doubling rule m(0) = 0, m(k) = 2^k; level k holds the 2^k + 1 points
  -cos(pi i / 2^k).  The hierarchical order is level-major with odd
  numerators increasing inside each level.

Each family is one module-level generator of its sequence (_SEQUENCES).
The growth function m(k) gives the largest sequence position in level k,
so level sets have m(k) + 1 points.  get_family is the one lookup: it
hands out one shared NodeFamily per kind, and its nodes(n) is the one
way to ask for nodes, the first n entries of the sequence (the level-k
set is nodes(growth(kind, k) + 1)).  A family draws its nodes from the
generator and caches them, which makes nestedness exact in floating
point; a cache grows only by a completed extension, so an exception part
way leaves the family as it was.

NodeFamily.basis_matrix gives the hierarchical basis tables every run
evaluates.  lagrange_matrix, the full Lagrange table of one level, serves
only the combination-technique view (interp.TensorPoly) and the test
suite's Lebesgue-constant oracles (tests/oracles.py); it stays here
because the benchmark's tracer wraps it by name.
"""

import functools
import itertools
import math
import operator

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
# the first 64 Leja points; see the module docstring
_LEJA_TABLE = (
    -1.0, 1.0, 0.0,
    -0.5773502714271155, 0.6587065960954399, -0.8392541763345909,
    0.8700071493794364, 0.30561332550085785, -0.32170761555165417,
    -0.9429791837372103, 0.9526732709346948, 0.4794123269640942,
    -0.7126386449340765, -0.15595936949446637, 0.7748723423019181,
    -0.979477619687815, 0.16116526249502983, 0.9833263091942224,
    -0.4613706109260729, -0.8918928236206514, 0.5718970827504644,
    0.9125597431835704, -0.6492535297862323, 0.07981796950714815,
    -0.24230654400678503, 0.7222943871027476, -0.9926686244882736,
    0.3907895092116481, -0.7821306920857041, 0.9940567477268509,
    -0.39757689956158193, 0.8263846775992569, -0.9200483843061844,
    0.2351575066011128, -0.08118871660625279, 0.9681486516494786,
    -0.9641961532932959, -0.5244303524363065, 0.5283584626607802,
    -0.7494214744665497, 0.8923292244349121, 0.6195694853915015,
    -0.8652926806394343, -0.1989051692969533, 0.34861340295275334,
    -0.9974579006096507, 0.9353782347539779, -0.6137311265053087,
    0.11931037170397643, 0.8001102077322817, -0.3601848544607119,
    0.9979342957391224, -0.8121070142469777, 0.43706350452984066,
    -0.9862130878813815, -0.04020208231520338, 0.6938311858784858,
    -0.6815696065434289, 0.9764749371505086, -0.49159164931087707,
    0.20170042048655473, -0.953577833976492, 0.8487786904362051,
    -0.2803215922648118,
)
# deepest Clenshaw-Curtis level with finite basis tables: at level 12
# (4,097 nodes) the running products of kernels.basis_table overflow
_CC_MAX_LEVEL = 11


def normalize_kind(kind):
    try:
        return _ALIASES[str(kind).strip().lower()]
    except KeyError:
        raise ValueError("unknown node family %r" % (kind,))


def _as_int(value, what):
    """value as a plain int: Python and NumPy integers pass, anything
    else (a float, even an integral one) raises ValueError."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError("%s must be an integer, got %r" % (what, value)) from None


def growth(kind, k):
    """Largest sequence position of level k: identity, or doubling for CC.

    A plain int for any integer k (NumPy ones too), memoized per
    (kind, level) so the kind is resolved only once per level.
    """
    return _growth(kind, _as_int(k, "level"))


@functools.lru_cache(maxsize=None)
def _growth(kind, k):
    if k < 0:
        raise ValueError("level must be non-negative")
    if normalize_kind(kind) == CLENSHAW_CURTIS:
        return 0 if k == 0 else 2 ** k
    return k


def growth_inverse(kind, i):
    """Smallest level whose node set contains sequence position i, a
    plain int for any integer i (NumPy ones too)."""
    i = _as_int(i, "node index")
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


def _leja_sequence():
    """The Leja points: the table, then the greedy search past it."""
    yield from _LEJA_TABLE
    nodes = list(_LEJA_TABLE)
    cand = -np.cos(np.pi * np.linspace(0.0, 1.0, _LEJA_CANDIDATES))
    # running sum over the placed nodes of log|cand - y_i|, one column
    # added per node in sequence order; summed this way over the
    # tabulated nodes too, it is bitwise the score a search from -1 holds
    vals = np.zeros(_LEJA_CANDIDATES)
    for y in nodes:
        vals += kernels.log_product(cand, np.asarray([y]))
    while True:
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
        y = float(y)
        nodes.append(y)
        vals += kernels.log_product(cand, np.asarray([y]))
        yield y


def _rleja_sequence():
    """The circle angles q_j pi (q_0 = 0, q_1 = 1, q_2m = q_m / 2,
    q_2m+1 = q_2m + 1) projected with cos, repeated values dropped."""
    from fractions import Fraction

    qs = [Fraction(0), Fraction(1)]
    seen = set()
    half = Fraction(1, 2)
    for j in itertools.count():
        if j == len(qs):
            q = qs[j // 2] / 2
            qs += (q, q + 1)
        r = qs[j] if qs[j] <= 1 else 2 - qs[j]
        if r not in seen:
            seen.add(r)
            # cos(pi r) written as sin(pi (1/2 - r)); the argument is an
            # exact dyadic float, so symmetric pairs project to exactly
            # opposite values and the centre projects to exactly 0.0
            yield math.sin(math.pi * float(half - r))


def _cc_sequence():
    """0, then level by level -cos(pi i / 2^k) for the new numerators i:
    0 and 2 at level 1, the odd ones in increasing order above."""
    yield 0.0
    for k in itertools.count(1):
        for i in (0, 2) if k == 1 else range(1, 2 ** k, 2):
            yield math.sin(math.pi * (i / float(2 ** k) - 0.5))


_SEQUENCES = {LEJA: _leja_sequence, RLEJA: _rleja_sequence, CLENSHAW_CURTIS: _cc_sequence}


class NodeFamily:
    """One nested node family with cached sequence and basis data."""

    def __init__(self, kind):
        self.kind = normalize_kind(kind)
        self._sequence = _SEQUENCES[self.kind]()
        self._nodes = []
        self._nodes_arr = np.empty(0)
        self._mks_arr = np.empty(0, dtype=np.int64)
        self._denoms_arr = np.empty(0)
        self._level_denom_cache = {}

    # -- sequence generation ------------------------------------------------

    def ensure_nodes(self, n):
        have = len(self._nodes)
        if have >= n:
            return
        try:
            nodes = self._nodes + list(itertools.islice(self._sequence, n - have))
        except BaseException:
            # a generator that raised is finished, and nothing of this call
            # is kept: start the sequence over past the published nodes
            self._sequence = itertools.islice(_SEQUENCES[self.kind](), have, None)
            raise
        self._nodes, self._nodes_arr = nodes, np.asarray(nodes)

    def nodes(self, n):
        """First n entries of the hierarchical sequence, n >= 0."""
        if n < 0:
            raise ValueError("node count must be non-negative, got %d" % n)
        self.ensure_nodes(n)
        return self._nodes_arr[:n].copy()

    # -- basis data ---------------------------------------------------------

    def _denom(self, i, mk):
        """prod_{j <= mk, j != i} 2 (y_i - y_j), the denominator
        kernels.basis_table takes for node i among the first mk + 1."""
        d = 1.0
        for j in range(mk + 1):
            if j != i:
                d *= 2.0 * (self._nodes[i] - self._nodes[j])
        return d

    def _ensure_basis(self, n):
        """Precompute level sizes and denominators for sequence positions < n."""
        have = len(self._mks_arr)
        if have >= n:
            return
        mks = [growth(self.kind, growth_inverse(self.kind, i)) for i in range(have, n)]
        self.ensure_nodes(mks[-1] + 1)
        denoms = [self._denom(i, mk) for i, mk in enumerate(mks, have)]
        self._mks_arr, self._denoms_arr = (
            np.concatenate([self._mks_arr, mks]),
            np.concatenate([self._denoms_arr, denoms]),
        )

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
        self._ensure_basis(n)
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
    """The one shared NodeFamily of a kind, so its caches serve every
    caller; a NodeFamily passed in is returned as it is."""
    if isinstance(kind_or_family, NodeFamily):
        return kind_or_family
    return _family(normalize_kind(kind_or_family))


@functools.lru_cache(maxsize=None)
def _family(kind):
    return NodeFamily(kind)

