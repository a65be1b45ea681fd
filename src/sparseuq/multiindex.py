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

MonotoneIndexSet keeps only its members and is what the adaptive loop
uses.  Iterating over it is the one way to list its members, in
lexicographic order; to_jsonable and from_jsonable (which takes the
dimension) save and load it.  margin() and reduced_margin() compute
their indices from the members, in order, on every call, so an adaptive
run reads them once, at the root, and follows its candidates from round
to round in one estimators.MarginState.  forward and backward step one
component of an index, as_index checks and normalises one.  The test
suite checks the set against direct transcriptions of the definitions
(tests/oracles.py).
"""

import numbers
import operator


def as_index(k):
    """k as a tuple of plain ints; an entry that is not an integer raises."""
    try:
        return tuple(map(operator.index, k))
    except TypeError:
        raise ValueError("index %r has a non-integer entry" % (k,)) from None


def forward(k, m):
    """k with one more unit in component m."""
    return k[:m] + (k[m] + 1,) + k[m + 1 :]


def backward(k, m):
    """k with one unit less in component m."""
    return k[:m] + (k[m] - 1,) + k[m + 1 :]


class MonotoneIndexSet:
    """A downward-closed index set of members.

    Mutation happens only through add(), which requires the new index to
    keep the set downward closed, a test of its M backward neighbours.
    Iteration and all enumeration methods give lexicographically sorted
    indices, so every order is deterministic.
    """

    def __init__(self, dim, members=()):
        if not isinstance(dim, numbers.Real) or dim % 1 != 0:
            raise ValueError("dim must be an integer, got %r" % (dim,))
        if dim < 1:
            raise ValueError("dimension must be at least 1")
        self.dim = int(dim)
        self.members = set()
        for k in sorted(members):
            self.add(k)

    def __contains__(self, k):
        return tuple(k) in self.members

    def __len__(self):
        return len(self.members)

    def __iter__(self):
        return iter(sorted(self.members))

    def _is_reduced(self, k):
        """True iff every backward neighbour of k lies in the set."""
        for m, km in enumerate(k):
            if km > 0 and backward(k, m) not in self.members:
                return False
        return True

    def _outside(self):
        """The margin as a set: the members' forward neighbours outside."""
        members = self.members
        if not members:
            raise ValueError("margin of an empty set is undefined")
        return {forward(k, m) for k in members for m in range(self.dim)} - members

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
        elif not self._is_reduced(k):
            # k is neither a member nor the root: this tests reduced-margin membership
            return "adding %r would break downward closedness" % (k,)
        return None

    def is_admissible(self, k):
        """True iff add(k) would succeed."""
        return self._refusal(as_index(k)) is None

    def add(self, k):
        """Insert k; it must be the root (on an empty set) or reduced-margin."""
        k = as_index(k)
        refusal = self._refusal(k)
        if refusal is not None:
            raise ValueError(refusal)
        self.members.add(k)

    def margin(self):
        return sorted(self._outside())

    def reduced_margin(self):
        return sorted(k for k in self._outside() if self._is_reduced(k))

    def monotone_envelope(self, k):
        """Ancestors of k missing from the set, sorted; k must be in the margin."""
        k, members = tuple(k), self.members
        # no tuple of another length or with a negative entry has a backward neighbour inside
        if k in members or not any(km and backward(k, m) in members for m, km in enumerate(k)):
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
                    if pred not in members and pred not in out:
                        stack.append(pred)
        return sorted(out)

    def to_jsonable(self):
        return [list(k) for k in sorted(self.members)]

    @classmethod
    def from_jsonable(cls, data, dim):
        return cls(dim, [as_index(row) for row in data])
