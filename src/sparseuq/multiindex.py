"""Multi-index combinatorics for sparse grids.

Multi-indices are plain tuples of non-negative ints of a fixed length M.
A set Lambda is downward closed (monotone) when removing one unit from
any positive component of a member lands back in the set.  The margin of
Lambda collects the indices just outside it that are reachable by one
forward unit step; the reduced margin keeps only those whose every
backward neighbour lies in Lambda (these can be added one at a time
without breaking closedness).  The monotone envelope of a margin index k
is the smallest margin subset whose union with Lambda is monotone and
contains k.

MonotoneIndexSet maintains the margin and reduced margin incrementally
as sets and is what the adaptive loop uses.  Iterating over it is the
one way to list its members, in lexicographic order; to_jsonable and
from_jsonable (which takes the dimension) save and load it.  margin()
and reduced_margin() sort their set on every call, so an adaptive run,
which reads its candidates every round, keeps its own copy of either in
order, in one estimators.MarginState.  forward and backward step one
component of an index.  The test suite checks the caches against direct
transcriptions of the definitions (tests/oracles.py).
"""


def forward(k, m):
    """k with one more unit in component m."""
    return k[:m] + (k[m] + 1,) + k[m + 1 :]


def backward(k, m):
    """k with one unit less in component m."""
    return k[:m] + (k[m] - 1,) + k[m + 1 :]


class MonotoneIndexSet:
    """A downward-closed index set with cached margin and reduced margin.

    Mutation happens only through add(), which requires the new index to
    keep the set downward closed, and updates both caches in O(M^2) time.
    Iteration and all enumeration methods give lexicographically sorted
    indices, so every order is deterministic.
    """

    def __init__(self, dim, members=()):
        if int(dim) != dim:
            raise ValueError("dim must be an integer, got %r" % (dim,))
        if dim < 1:
            raise ValueError("dimension must be at least 1")
        self.dim = int(dim)
        self.members = set()
        self._margin = set()
        self._reduced = set()
        for k in sorted(members):
            self.add(tuple(k))

    def __contains__(self, k):
        return tuple(k) in self.members

    def __len__(self):
        return len(self.members)

    def __iter__(self):
        return iter(sorted(self.members))

    def _is_reduced(self, k):
        for m, km in enumerate(k):
            if km > 0 and backward(k, m) not in self.members:
                return False
        return True

    def _refusal(self, k):
        """Why add(k) would fail, as a message, or None; k a tuple of ints."""
        if len(k) != self.dim:
            return "dimension mismatch: %r has length %d, expected %d" % (k, len(k), self.dim)
        if any(v < 0 for v in k):
            return "negative entry in %r" % (k,)
        if k in self.members:
            return "index %r already present" % (k,)
        if not self.members:
            if any(k):
                return "first index must be the zero index, got %r" % (k,)
        elif k not in self._reduced:
            return "adding %r would break downward closedness" % (k,)
        return None

    def is_admissible(self, k):
        """True iff add(k) would succeed."""
        return self._refusal(tuple(int(v) for v in k)) is None

    def add(self, k):
        """Insert k; it must be the root (on an empty set) or reduced-margin."""
        k = tuple(int(v) for v in k)
        refusal = self._refusal(k)
        if refusal is not None:
            raise ValueError(refusal)
        self.members.add(k)
        self._margin.discard(k)
        self._reduced.discard(k)
        for m in range(self.dim):
            nxt = forward(k, m)
            if nxt not in self.members:
                self._margin.add(nxt)
                # k was possibly the last missing backward neighbour
                if self._is_reduced(nxt):
                    self._reduced.add(nxt)
                else:
                    self._reduced.discard(nxt)

    def margin(self):
        if not self.members:
            raise ValueError("margin of an empty set is undefined")
        return sorted(self._margin)

    def reduced_margin(self):
        if not self.members:
            raise ValueError("reduced margin of an empty set is undefined")
        return sorted(self._reduced)

    def monotone_envelope(self, k):
        """Ancestors of k missing from the set, sorted; k must be in the margin."""
        k = tuple(k)
        if k not in self._margin:
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
                    pred = backward(j, m)
                    if pred not in self.members and pred not in out:
                        stack.append(pred)
        return sorted(out)

    def to_jsonable(self):
        return [list(k) for k in sorted(self.members)]

    @classmethod
    def from_jsonable(cls, data, dim):
        return cls(dim, [tuple(int(v) for v in row) for row in data])
