"""Monotone index sets: frozen examples plus brute-force property checks."""

import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sparseuq.multiindex import MonotoneIndexSet

from oracles import (
    is_monotone,
    margin,
    monotone_envelope,
    random_monotone,
    reduced_margin,
    validate_caches,
)

# -- an independent envelope oracle -----------------------------------------


def brute_envelope(members, k):
    # all ancestors of k (componentwise <=) outside the set
    members = set(members)
    ranges = [range(v + 1) for v in k]
    return {j for j in itertools.product(*ranges) if j not in members}


# -- frozen examples --------------------------------------------------------


def test_is_monotone_examples():
    assert is_monotone([(0, 0)])
    assert is_monotone([(0, 0), (1, 0), (0, 1), (1, 1)])
    assert not is_monotone([(0, 0), (1, 1)])


def test_is_monotone_dimension_mismatch():
    with pytest.raises(ValueError):
        is_monotone([(0, 0), (1,)])


def test_fractional_dimension_is_rejected():
    # MonotoneIndexSet(2.5) once failed only at its first add, with
    # "(0, 0) has length 2, expected 2"
    with pytest.raises(ValueError, match="dim must be an integer, got 2.5"):
        MonotoneIndexSet(2.5)
    s = MonotoneIndexSet(np.int64(2), [(0, 0)])
    assert s.dim == 2 and s.reduced_margin() == [(0, 1), (1, 0)]


def test_margin_examples():
    assert margin([(0, 0)]) == {(1, 0), (0, 1)}
    assert margin([(0, 0), (1, 0)]) == {(2, 0), (1, 1), (0, 1)}
    assert margin([(0,), (1,), (2,)]) == {(3,)}


def test_margin_empty_rejected():
    with pytest.raises(ValueError):
        margin([])


def test_reduced_margin_examples():
    assert reduced_margin([(0, 0), (1, 0)]) == {(2, 0), (0, 1)}
    assert reduced_margin([(0, 0)]) == {(1, 0), (0, 1)}
    assert reduced_margin([(0,), (1,)]) == {(2,)}


def test_envelope_examples():
    assert monotone_envelope([(0, 0), (1, 0)], (2, 0)) == {(2, 0)}
    assert monotone_envelope([(0, 0), (1, 0)], (1, 1)) == {(0, 1), (1, 1)}
    assert monotone_envelope([(0, 0), (1, 0), (0, 1)], (1, 1)) == {(1, 1)}


def test_envelope_requires_margin_member():
    with pytest.raises(ValueError):
        monotone_envelope([(0, 0)], (1, 1))


# -- the incremental set class ----------------------------------------------


def test_add_validation():
    s = MonotoneIndexSet(2)
    with pytest.raises(ValueError):
        s.add((1, 0))
    s.add((0, 0))
    with pytest.raises(ValueError):
        s.add((0, 0))
    with pytest.raises(ValueError):
        s.add((1, 1))
    with pytest.raises(ValueError):
        s.add((0, -1))
    with pytest.raises(ValueError):
        s.add((0, 0, 1))


def test_margin_methods_empty_set():
    s = MonotoneIndexSet(2)
    with pytest.raises(ValueError):
        s.margin()
    with pytest.raises(ValueError):
        s.reduced_margin()


def test_lexicographic_output_order():
    s = MonotoneIndexSet(2, [(0, 0), (1, 0), (0, 1)])
    assert list(s) == sorted(s)
    assert s.margin() == sorted(s.margin())
    assert s.reduced_margin() == sorted(s.reduced_margin())


def test_constructor_accepts_monotone_rejects_other():
    s = MonotoneIndexSet(2, [(0, 0), (0, 1), (1, 0)])
    assert len(s) == 3
    with pytest.raises(ValueError):
        MonotoneIndexSet(2, [(0, 0), (1, 1)])


def test_json_round_trip():
    s = MonotoneIndexSet(3, [(0, 0, 0), (1, 0, 0), (0, 1, 0)])
    t = MonotoneIndexSet.from_jsonable(json.loads(json.dumps(s.to_jsonable())), 3)
    assert list(t) == list(s)
    assert t.margin() == s.margin()


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_incremental_caches_match_brute_force(dim):
    rng = np.random.default_rng(10 + dim)
    for trial in range(12):
        s = random_monotone(rng, dim, int(rng.integers(0, 50)))
        members = list(s)
        assert is_monotone(members)
        assert set(s.margin()) == margin(members)
        assert set(s.reduced_margin()) == reduced_margin(members)
        assert validate_caches(s)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_envelope_properties(dim):
    rng = np.random.default_rng(20 + dim)
    for trial in range(10):
        s = random_monotone(rng, dim, int(rng.integers(0, 25)))
        members = set(s)
        for k in s.margin():
            env = s.monotone_envelope(k)
            assert set(env) == brute_envelope(members, k)
            assert set(env) <= set(s.margin())
            assert is_monotone(sorted(members | set(env)))
            # minimality: dropping any other element breaks the completion
            for drop in env:
                if drop == k:
                    continue
                assert not is_monotone(sorted((members | set(env)) - {drop}))


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_reduced_margin_is_exactly_the_safe_set(dim):
    rng = np.random.default_rng(30 + dim)
    s = random_monotone(rng, dim, 15)
    members = list(s)
    reduced = set(s.reduced_margin())
    for k in s.margin():
        extended = sorted(set(members) | {tuple(k)})
        assert is_monotone(extended) == (tuple(k) in reduced)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_random_insertion_sequences(data):
    dim = data.draw(st.integers(1, 4))
    s = MonotoneIndexSet(dim)
    s.add((0,) * dim)
    steps = data.draw(st.integers(0, 25))
    for _ in range(steps):
        cand = s.reduced_margin()
        k = data.draw(st.sampled_from(cand))
        assert s.is_admissible(k)
        s.add(k)
    members = list(s)
    assert set(s.margin()) == margin(members)
    assert set(s.reduced_margin()) == reduced_margin(members)
