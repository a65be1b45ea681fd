"""Node families: frozen values, nestedness, growth bookkeeping,
variational oracles for the greedy constructions, Lebesgue diagnostics."""

import hashlib
import math

import numpy as np
import pytest

from sparseuq import kernels
from sparseuq.interp import SparseInterpolant
from sparseuq.nodes import (
    _LEJA_CANDIDATES,
    _LEJA_TABLE,
    NodeFamily,
    _golden_max,
    get_family,
    growth,
    growth_inverse,
    normalize_kind,
)

from oracles import (
    add_evaluated,
    basis_value,
    detail_sup_norm,
    greedy_leja,
    lebesgue_constant,
    rleja_circle_fractions,
)

S2 = math.sqrt(2.0) / 2.0


def test_normalize_kind():
    assert normalize_kind("CC") == "clenshaw_curtis"
    assert normalize_kind("r-leja") == "rleja"
    assert normalize_kind("Leja") == "leja"
    with pytest.raises(ValueError):
        normalize_kind("gauss")


def test_growth_values():
    assert growth("leja", 5) == 5
    assert growth("rleja", 7) == 7
    assert growth("clenshaw_curtis", 0) == 0
    assert growth("clenshaw_curtis", 1) == 2
    assert growth("clenshaw_curtis", 3) == 8


def test_growth_plain_int_and_negative_level():
    # a NumPy level reaches the memo first (no other test uses level 29),
    # and every later lookup still gives a plain int
    for kind, want in (("leja", 29), ("clenshaw_curtis", 2**29)):
        for k in (np.int64(29), 29, np.int64(29)):
            got = growth(kind, k)
            assert type(got) is int and got == want
    for k in (-1, np.int64(-2)):
        with pytest.raises(ValueError):
            growth("clenshaw_curtis", k)
        with pytest.raises(ValueError):
            growth("leja", k)


@pytest.mark.parametrize("kind", ["leja", "clenshaw_curtis"])
def test_growth_functions_take_integers_only(kind):
    for i in (5, np.int64(5), np.int32(5)):
        for got in (growth(kind, i), growth_inverse(kind, i)):
            assert type(got) is int
        assert growth_inverse(kind, i) == (3 if kind == "clenshaw_curtis" else 5)
    # a fractional level once truncated silently: growth("cc", 2.5) gave 4
    for bad in (2.5, 2.0, np.float64(2.0), "2"):
        with pytest.raises(ValueError, match="must be an integer"):
            growth(kind, bad)
        with pytest.raises(ValueError, match="must be an integer"):
            growth_inverse(kind, bad)


def test_growth_inverse_values():
    assert growth_inverse("clenshaw_curtis", 3) == 2
    assert growth_inverse("leja", 7) == 7
    for kind in ("leja", "rleja", "clenshaw_curtis"):
        assert growth_inverse(kind, 0) == 0
        for k in range(8):
            assert growth_inverse(kind, growth(kind, k)) == k
        for i in range(20):
            k = growth_inverse(kind, i)
            assert k <= i
            assert growth(kind, k) >= i
            assert k == 0 or growth(kind, k - 1) < i


def test_leja_first_points():
    got = get_family("leja").nodes(5)
    assert np.allclose(got[:3], [-1.0, 1.0, 0.0], atol=1e-12)
    assert got[3] == pytest.approx(-0.57735, abs=1e-4)
    assert got[4] == pytest.approx(0.65871, abs=1e-4)


@pytest.mark.parametrize("kind", ["leja", "rleja", "clenshaw_curtis"])
def test_node_count_non_negative(kind):
    fam = get_family(kind)
    fam.nodes(5)
    assert fam.nodes(0).shape == (0,)
    # a negative count once sliced the cached sequence from the end
    with pytest.raises(ValueError, match="non-negative"):
        fam.nodes(-2)


def test_leja_distinct_and_in_interval():
    pts = get_family("leja").nodes(40)
    assert np.all(np.abs(pts) <= 1.0)
    assert len(np.unique(pts)) == 40


def test_leja_greedy_oracle():
    """Each point maximizes the node-distance product over [-1, 1].

    Oracle: dense Chebyshev-distributed scan of the log product; the
    stored point must reach the scanned maximum to 1e-10 relative.
    """
    cand = -np.cos(np.pi * np.linspace(0.0, 1.0, 1_000_001))
    pts = get_family("leja").nodes(13)
    for k in range(1, 13):
        prev = pts[:k]
        best = float(np.max(kernels.log_product(cand, prev)))
        ours = float(np.sum(np.log(np.abs(pts[k] - prev))))
        assert ours >= best - 1e-10


def rescored_leja(n):
    """The greedy Leja loop that rescores every candidate against all
    placed nodes at each step: the oracle of the running-sum scan."""
    nodes = [-1.0]
    cand = -np.cos(np.pi * np.linspace(0.0, 1.0, _LEJA_CANDIDATES))
    while len(nodes) < n:
        arr = np.asarray(nodes)

        def objective(y):
            d = np.abs(y - arr)
            if np.any(d == 0.0):
                return -np.inf
            return float(np.sum(np.log(d)))

        vals = kernels.log_product(cand, arr)
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
    return np.asarray(nodes)


def test_leja_running_scan_bitwise_matches_rescoring():
    fam = NodeFamily("leja")
    for n in (1, 2, 8, 9, 40):
        fam.ensure_nodes(n)
    want = rescored_leja(40)
    got = fam.nodes(40)
    assert np.array_equal(got, want), np.flatnonzero(got != want)
    assert np.array_equal(get_family("leja").nodes(40), want)
    scan = greedy_leja(40)
    assert np.array_equal(scan, want), np.flatnonzero(scan != want)


REGENERATE_LEJA_TABLE = (
    "PYTHONPATH=src:tests python3 -c \"from oracles import greedy_leja; "
    "[print(repr(y) + ',') for y in greedy_leja(64).tolist()]\""
)


def test_leja_table_and_continuation_bitwise_match_greedy_search():
    want = greedy_leja(73)
    table = np.asarray(_LEJA_TABLE)
    assert table.shape == (64,)
    assert np.array_equal(table, want[:64]), (
        "nodes._LEJA_TABLE differs from the greedy search at positions %s; "
        "regenerate it with\n%s"
        % (np.flatnonzero(table != want[:64]).tolist(), REGENERATE_LEJA_TABLE)
    )
    # past the table the search carries on from the tabulated nodes, its
    # running score carried over between calls
    fam = NodeFamily("leja")
    for n in (3, 65, 73):
        fam.ensure_nodes(n)
    got = fam.nodes(73)
    assert np.array_equal(got, want), np.flatnonzero(got != want)


def test_leja_table_serves_without_search(monkeypatch):
    def no_search(ys, nodes):
        raise RuntimeError("greedy Leja search ran")

    monkeypatch.setattr(kernels, "log_product", no_search)
    fam = NodeFamily("leja")
    assert np.array_equal(fam.nodes(64), np.asarray(_LEJA_TABLE))
    with pytest.raises(RuntimeError, match="greedy Leja search ran"):
        fam.nodes(65)


@pytest.mark.parametrize("via", ["nodes", "basis_matrix"])
@pytest.mark.parametrize("fail_at", [1, 30, 64, 65, 66, 70])
def test_interrupted_extension_leaves_family_whole(monkeypatch, via, fail_at):
    # an exception part way through an extension (a KeyboardInterrupt,
    # say) once left a half-extended family: a stale running score, a
    # node array behind its list, basis arrays behind their lists
    real = kernels.log_product
    calls = []

    def interrupted(ys, nodes):
        calls.append(len(nodes))
        if len(calls) == fail_at:
            raise KeyboardInterrupt
        return real(ys, nodes)

    ys = np.linspace(-1.0, 1.0, 5)
    fam = NodeFamily("leja")
    monkeypatch.setattr(kernels, "log_product", interrupted)
    with pytest.raises(KeyboardInterrupt):
        if via == "nodes":
            fam.nodes(80)
        else:
            fam.basis_matrix(ys, 80)
    monkeypatch.undo()
    fresh = NodeFamily("leja")
    for n in (65, 66, 70):
        assert fam.nodes(n).tobytes() == fresh.nodes(n).tobytes(), n
        assert fam.basis_matrix(ys, n).tobytes() == fresh.basis_matrix(ys, n).tobytes(), n


# sha256 prefixes of each sequence's bytes, the Leja one past the table:
# a one-ulp change anywhere (np.sin for math.sin, say) fails here
SEQUENCE_SHA256 = {
    "leja": (200, "2a563c463045f212"),
    "rleja": (300, "7299bc6588b82b90"),
    "clenshaw_curtis": (2049, "706bad3ad7231e31"),
}


@pytest.mark.parametrize("kind", sorted(SEQUENCE_SHA256))
def test_sequences_pinned_bitwise(kind):
    n, want = SEQUENCE_SHA256[kind]
    got = get_family(kind).nodes(n).tobytes()
    assert hashlib.sha256(got).hexdigest()[:16] == want
    fam = NodeFamily(kind)
    for m in (3, 64, 65, n):
        fam.ensure_nodes(m)
    assert fam.nodes(n).tobytes() == got


def test_rleja_first_points():
    got = get_family("rleja").nodes(9)
    c8, s8 = math.cos(math.pi / 8.0), math.sin(math.pi / 8.0)
    want = [1.0, -1.0, 0.0, S2, -S2, c8, -c8, -s8, s8]
    assert np.allclose(got, want, atol=1e-15)


def test_rleja_exact_symmetry():
    pts = get_family("rleja").nodes(40)
    assert pts[2] == 0.0
    # the projection construction makes plus/minus pairs exactly equal
    assert pts[3] == -pts[4]
    assert pts[5] == -pts[6]
    assert pts[7] == -pts[8]
    assert len(np.unique(pts)) == 40
    assert np.all(np.abs(pts) <= 1.0)


def test_rleja_circle_greedy_oracle():
    """The circle angles form a greedy max-product sequence.

    Oracle: dense scan of the product of chord lengths on the unit
    circle; our angle must attain the scanned maximum (ties allowed).
    """
    fracs = rleja_circle_fractions(13)
    angles = np.array([float(f) * math.pi for f in fracs])
    grid = np.linspace(0.0, 2.0 * math.pi, 200_001)
    for k in range(1, 13):
        prev = angles[:k]

        def logprod(theta):
            z = np.exp(1j * np.atleast_1d(theta))
            d = np.abs(z[:, None] - np.exp(1j * prev)[None, :])
            with np.errstate(divide="ignore"):
                return np.sum(np.log(d), axis=1)

        best = float(np.max(logprod(grid)))
        ours = float(logprod(angles[k])[0])
        assert ours >= best - 1e-10


def cc_level(k):
    """The level-k Clenshaw-Curtis set in hierarchical sequence order."""
    return get_family("clenshaw_curtis").nodes(growth("clenshaw_curtis", k) + 1)


def test_cc_level_sets():
    assert cc_level(0).tolist() == [0.0]
    assert sorted(cc_level(1).tolist()) == [-1.0, 0.0, 1.0]
    lvl2 = sorted(cc_level(2).tolist())
    assert np.allclose(lvl2, [-1.0, -S2, 0.0, S2, 1.0], atol=1e-16)
    for k in range(5):
        got = sorted(cc_level(k).tolist())
        n = growth("clenshaw_curtis", k)
        want = sorted(-math.cos(math.pi * i / n) if n else 0.0 for i in range(n + 1))
        assert np.allclose(got, want, atol=1e-15)


def test_cc_sequence_order():
    seq = get_family("clenshaw_curtis").nodes(9)
    assert seq[0] == 0.0
    assert seq[1] == -1.0 and seq[2] == 1.0
    # libm sin is within 1 ulp of sqrt(2)/2 here
    assert seq[3] == pytest.approx(-S2, abs=1e-15)
    assert seq[4] == pytest.approx(S2, abs=1e-15)
    # level 3 odd numerators in increasing order
    want = [-math.cos(math.pi * i / 8.0) for i in (1, 3, 5, 7)]
    assert np.allclose(seq[5:], want, atol=1e-16)


def test_cc_exact_symmetry():
    seq = get_family("clenshaw_curtis").nodes(17)
    assert seq[0] == 0.0
    assert seq[3] == -seq[4]
    assert seq[5] == -seq[8] and seq[6] == -seq[7]


@pytest.mark.parametrize("kind", ["leja", "rleja", "clenshaw_curtis"])
def test_nestedness_bitwise(kind):
    fam = get_family(kind)
    for k in range(4):
        a = fam.nodes(growth(kind, k) + 1)
        b = fam.nodes(growth(kind, k + 1) + 1)
        assert set(a.tolist()) <= set(b.tolist())
    first = fam.nodes(10).copy()
    again = fam.nodes(10)
    assert np.array_equal(first, again)


def test_hierarchical_basis_identity_and_values():
    # single-node level: the constant function
    for kind in ("leja", "rleja", "clenshaw_curtis"):
        for y in (-1.0, -0.3, 0.8):
            assert basis_value(kind, 0, y) == 1.0
    # third Leja node (level set -1, 1, 0): h_2(y) = 1 - y^2
    for y in np.linspace(-1, 1, 11):
        assert basis_value("leja", 2, y) == pytest.approx(
            1.0 - y * y, abs=1e-12
        )


@pytest.mark.parametrize("kind", ["leja", "rleja", "clenshaw_curtis"])
def test_hierarchical_basis_lagrange_property(kind):
    fam = get_family(kind)
    for i in range(1, 8):
        level = growth_inverse(kind, i)
        nodes = fam.nodes(growth(kind, level) + 1)
        for j, yj in enumerate(nodes):
            want = 1.0 if j == i else 0.0
            assert basis_value(kind, i, yj) == pytest.approx(
                want, abs=1e-9
            )


def test_lebesgue_constant_level_zero_is_one():
    for kind in ("leja", "rleja", "clenshaw_curtis"):
        assert lebesgue_constant(kind, 0) == pytest.approx(1.0, abs=1e-12)


def test_lebesgue_constant_cc_level_one():
    assert lebesgue_constant("clenshaw_curtis", 1) == pytest.approx(1.25, abs=0.01)


def test_detail_norm_triangle_bound():
    for kind in ("leja", "clenshaw_curtis"):
        for k in range(1, 5):
            dk = detail_sup_norm(kind, k, samples=801)
            bound = lebesgue_constant(kind, k, samples=801) + lebesgue_constant(
                kind, k - 1, samples=801
            )
            assert dk <= bound + 1e-9


def test_leja_anchor_is_minus_one_and_deterministic():
    a = NodeFamily("leja").nodes(20)
    b = get_family("leja").nodes(20)
    assert a[0] == -1.0
    assert np.array_equal(a, b)


def test_cc_basis_tables_stop_at_level_11():
    # at level 12 (4,097 nodes) the running products of the basis table
    # overflow to nan; levels up to 11 stay finite with maximum 1
    fam = get_family("clenshaw_curtis")
    ys = np.linspace(-1.0, 1.0, 9)
    for n in (1025, 2049):
        assert np.max(np.abs(fam.basis_matrix(ys, n))) == 1.0
    with pytest.raises(ValueError, match="level 12; the limit is level 11"):
        fam.basis_matrix(ys, 4097)
    with pytest.raises(ValueError, match="level 12; the limit is level 11"):
        fam.basis_matrix(ys, 2050)
    with pytest.raises(ValueError, match="level 13; the limit is level 11"):
        fam.lagrange_matrix(ys, 13)
    # an interpolant refined to level 12 raises instead of turning nan
    P = SparseInterpolant("clenshaw_curtis", 1)
    for k in range(12):
        add_evaluated(P, (k,), lambda y: np.sin(3.0 * y))
    assert np.all(np.isfinite(P.evaluate(ys[:, None])))
    with pytest.raises(ValueError, match="level 12; the limit is level 11"):
        add_evaluated(P, (12,), lambda y: np.sin(3.0 * y))
    assert len(P.indexset) == 12
