"""The adaptive loop: stopping, solve accounting, marking rules,
budgets, rerun determinism and config validation."""

import builtins
from dataclasses import asdict

import numpy as np
import pytest

from sparseuq import adaptive, estimators, interp, multiindex, nodes
from sparseuq.adaptive import (
    AdaptiveConfig,
    STRATEGIES,
    _dorfler_mark,
    run_strategy,
)
from sparseuq.estimators import MarginState, NormSpec, profit
from sparseuq.fem import (
    DiffusionProblem,
    EllipticityError,
    SpatialDiscretization,
    build_problem,
)
from sparseuq.interp import SparseInterpolant
from sparseuq.multiindex import MonotoneIndexSet

from oracles import (
    dense_basis_weights,
    gg_rounds,
    gn_rounds,
    leading_part,
    matches_definitions,
    point_indices,
)


def const(c):
    return lambda x: np.full_like(np.asarray(x, dtype=np.float64), float(c))


def deterministic_problem():
    return DiffusionProblem(1, const(2.0), [const(0.0)], const(1.0))


def affine_problem():
    return DiffusionProblem(1, const(2.0), [const(1.0)], const(1.0))


def cosine_problem(dim=2):
    return build_problem({"family": "cosine", "M": dim, "a0": 2.0})


def run(strategy, problem, disc, **kw):
    return run_strategy(problem, disc, AdaptiveConfig(strategy=strategy, **kw))


def columns(row):
    """A trace row without its timings."""
    return {k: v for k, v in asdict(row).items() if not k.endswith("_ms")}


def assert_gg_augmented(trace):
    """The last row of a gg run is its augmentation's: it estimates
    nothing, keeps the stopping round's values, and its set gained as
    many indices as the stopping round had candidates, the reduced
    margin."""
    stop, last = trace.rows[-2], trace.rows[-1]
    assert (last.estimates_fresh, last.estimates_reused, last.estimate_ms) == (0, 0, 0.0)
    assert last.total_estimator == stop.total_estimator
    assert last.n_indices - stop.n_indices == stop.estimates_fresh + stop.estimates_reused > 0
    assert last.n_indices == len(trace.interpolant.indexset)


# -- stopping ---------------------------------------------------------------


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_deterministic_problem_stops_immediately(strategy):
    p = deterministic_problem()
    disc = SpatialDiscretization(p, 64)
    trace = run(strategy, p, disc, tol=1e-12)
    assert trace.strategy == strategy
    assert trace.stop_reason == "tol"
    assert not trace.budget_exhausted
    assert trace.rows[0].n == 0
    assert trace.rows[0].total_estimator <= 1e-14
    assert trace.rows[0].n_indices == 1
    if strategy == "gg":
        # estimating the reduced margin already solved its point, so
        # the final augmentation is free and the grid absorbs it
        assert trace.rows[0].n_solves == 2
        assert_gg_augmented(trace)
        assert len(trace.rows) == 2
        assert trace.rows[1].n_grid == trace.rows[1].n_solves == 2
    else:
        assert trace.rows[0].n_solves == 1
        assert len(trace.rows) == 1


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_affine_chain_reaches_tolerance(strategy):
    p = affine_problem()
    disc = SpatialDiscretization(p, 64)
    trace = run(strategy, p, disc, tol=1e-9)
    assert trace.stop_reason == "tol"
    assert trace.rows[-1].total_estimator <= 1e-9
    # 1-D monotone sets are chains 0..k
    members = list(trace.interpolant.indexset)
    assert members == [(k,) for k in range(len(members))]
    assert matches_definitions(trace.interpolant.indexset)


# -- solve accounting -------------------------------------------------------


def test_gn_solves_equal_grid_every_iteration():
    p = cosine_problem()
    disc = SpatialDiscretization(p, 64)
    trace = run("gn_envelope", p, disc, tol=1e-5)
    for row in trace.rows:
        assert row.n_solves == row.n_grid


def test_gn_profit_solves_equal_grid():
    p = cosine_problem()
    disc = SpatialDiscretization(p, 64)
    trace = run("gn_profit", p, disc, tol=1e-5)
    for row in trace.rows:
        assert row.n_solves == row.n_grid
    assert trace.stop_reason == "tol"


def test_gg_augmentation_absorbs_cached_solves():
    p = cosine_problem()
    disc = SpatialDiscretization(p, 64)
    trace = run("gg", p, disc, tol=1e-5)
    assert_gg_augmented(trace)
    stop_row, aug_row = trace.rows[-2], trace.rows[-1]
    assert aug_row.n_solves == stop_row.n_solves
    assert aug_row.n_grid == aug_row.n_solves
    assert aug_row.n_grid == trace.interpolant.n_points
    assert aug_row.total_estimator == stop_row.total_estimator
    assert trace.cache.n_solves == trace.interpolant.n_points


@pytest.mark.parametrize(
    "strategy, kw",
    [
        ("gn_envelope", {"tol": 1e-5}),
        ("gn_profit", {"tol": 1e-5}),
        ("gg", {"tol": 1e-5}),
        ("gg", {"tol": 1e-14, "max_iter": 4}),
    ],
)
def test_stored_blocks_leave_the_solve_cache(strategy, kw, monkeypatch):
    # _add_indices hands each block's solves from the cache to the
    # interpolant: a stored block is never cached, and the solve counts
    # are those of a run whose cache keeps every block
    p = cosine_problem()
    disc = SpatialDiscretization(p, 64)
    trace = run(strategy, p, disc, **kw)
    kind, P = trace.interpolant.family.kind, trace.interpolant
    assert [(kind, tuple(i)) in trace.cache for i in P.indexset] == [False] * len(P.indexset)
    assert trace.cache.n_solves == P.n_points
    fresh_solves = estimators.fresh_solves
    monkeypatch.setattr(adaptive, "fresh_solves", lambda P, cache, k, keep: fresh_solves(P, cache, k))
    kept = run(strategy, p, disc, **kw)
    assert all((kind, tuple(i)) in kept.cache for i in kept.interpolant.indexset)
    assert [r.n_solves for r in trace.rows] == [r.n_solves for r in kept.rows]
    assert trace.stop_reason == kept.stop_reason == ("max_iter" if "max_iter" in kw else "tol")


def test_gg_solves_cover_reduced_margin_each_iteration():
    p = cosine_problem()
    disc = SpatialDiscretization(p, 64)
    trace = run("gg", p, disc, tol=1e-4)
    for row in trace.rows[:-1]:
        assert row.n_solves > row.n_grid


@pytest.mark.parametrize("strategy, nodes", [("gg", "clenshaw_curtis"), ("gn_profit", "leja")])
def test_build_never_takes_the_full_evaluation(strategy, nodes, monkeypatch):
    # surpluses at new points come from the blocks below each index
    # (SparseInterpolant.value_below), so a fall-back to the evaluation
    # over every stored row fails here
    p = cosine_problem(3)
    disc = SpatialDiscretization(p, 64)

    def refuse(self, Y):
        raise AssertionError("the full evaluation ran")

    monkeypatch.setattr(SparseInterpolant, "evaluate", refuse)
    cfg = AdaptiveConfig(strategy=strategy, nodes=nodes, tol=1e-5, reference_every=0)
    trace = run_strategy(p, disc, cfg)
    assert trace.stop_reason == "tol"
    assert trace.interpolant.n_points > 20


def test_gg_weights_each_candidate_once(monkeypatch):
    # S u at a candidate's fresh points is formed once, by its surplus
    # indicator; add_index and the augmentation take the kept product
    calls = []
    grid_weights = interp._grid_weights

    def counted(tables, pts):
        calls.append(pts.shape)
        return grid_weights(tables, pts)

    monkeypatch.setattr(interp, "_grid_weights", counted)
    p = cosine_problem(3)
    disc = SpatialDiscretization(p, 64)
    for dorfler in (0.0, 0.5):
        calls.clear()
        cfg = AdaptiveConfig(
            strategy="gg", nodes="clenshaw_curtis", tol=1e-5, reference_every=0, dorfler=dorfler
        )
        trace = run_strategy(p, disc, cfg)
        assert trace.stop_reason == "tol"
        assert_gg_augmented(trace)
        fresh = sum(row.estimates_fresh for row in trace.rows)
        assert fresh > 20
        assert len(calls) == fresh, dorfler


def test_gg_solves_each_point_once(monkeypatch):
    # every block is solved in one counted batch when it is first
    # estimated; inserting marked or augmented indices solves nothing
    rows, inside = [], []
    solve_at = SpatialDiscretization.solve_at
    add_indices = adaptive._add_indices

    def counted_solve(self, y):
        U = solve_at(self, y)
        rows.append(len(U))
        return U

    def counted_add(P, cache, marked):
        before = len(rows)
        add_indices(P, cache, marked)
        inside.extend(rows[before:])

    monkeypatch.setattr(SpatialDiscretization, "solve_at", counted_solve)
    monkeypatch.setattr(adaptive, "_add_indices", counted_add)
    p = cosine_problem(3)
    disc = SpatialDiscretization(p, 64)
    cfg = AdaptiveConfig(strategy="gg", nodes="clenshaw_curtis", tol=1e-5, reference_every=0)
    trace = run_strategy(p, disc, cfg)
    assert trace.stop_reason == "tol"
    assert_gg_augmented(trace)
    # the augmentation absorbs every solved block, so each grid point
    # was solved exactly once
    assert sum(rows) == trace.cache.n_solves == trace.interpolant.n_points > 20
    # only the root is solved where it is inserted
    assert inside == [1]


# -- marking ----------------------------------------------------------------


def state_of(values):
    # a gg state holding the estimates of values and their total
    state = MarginState(MonotoneIndexSet(1, [(0,)]), reduced=True)
    for k, v in values.items():
        state.by_value.push(k, v)
    state.total = sum(values.values())
    return state


def test_dorfler_mark_prefix():
    state = state_of({(0,): 0.5, (1,): 0.3, (2,): 0.2})
    assert _dorfler_mark(state, 0.5) == [(0,)]
    assert _dorfler_mark(state, 0.8) == [(0,), (1,)]
    assert _dorfler_mark(state, 0.9) == [(0,), (1,), (2,)]


def test_dorfler_tie_break_lexicographic():
    state = state_of({(1, 0): 0.4, (0, 1): 0.4, (0, 0): 0.2})
    assert _dorfler_mark(state, 0.3) == [(0, 1)]


def test_dorfler_mark_skips_stale_entries():
    # a discarded or replaced estimate stays in the heap; the walk skips
    # it and leaves the state's heap as it was
    state = state_of({(0,): 0.5, (1,): 0.3, (2,): 0.2})
    state.by_value.discard((0,))
    state.by_value.push((1,), 0.05)
    state.total = 0.25
    heap = list(state.by_value.heap)
    assert _dorfler_mark(state, 0.0) == [(2,)]
    assert _dorfler_mark(state, 0.9) == [(2,), (1,)]
    assert state.by_value.heap == heap


def test_gg_dorfler_smoke():
    p = cosine_problem()
    disc = SpatialDiscretization(p, 64)
    plain = run("gg", p, disc, tol=1e-4)
    bulk = run("gg", p, disc, tol=1e-4, dorfler=0.6)
    assert bulk.stop_reason == "tol"
    assert len(bulk.rows) <= len(plain.rows)


def test_gn_marks_whole_envelope():
    # every marked batch keeps the set monotone, so the final set is
    # monotone even though maximizers may sit deep in the margin
    p = cosine_problem()
    disc = SpatialDiscretization(p, 64)
    trace = run("gn_envelope", p, disc, tol=1e-5)
    assert matches_definitions(trace.interpolant.indexset)
    assert trace.rows[-1].n_indices == len(trace.interpolant.indexset)


def row_stats(row):
    """What a trace row reads off its report."""
    return (
        row.total_estimator,
        row.max_estimator,
        row.ratio_c,
        row.estimates_fresh,
        row.estimates_reused,
    )


def memo_sizes():
    """Entry count of every lru_cache memo of interp, estimators and nodes."""
    return {
        (module.__name__, name): fn.cache_info().currsize
        for module in (interp, estimators, nodes)
        for name, fn in vars(module).items()
        if hasattr(fn, "cache_info")
    }


@pytest.mark.parametrize("strategy", ["gn_profit", "gg"])
def test_memos_do_not_grow_with_the_indices_visited(strategy):
    # every memo is keyed by (family, level[, sample count]): a run adds
    # at most one entry per level reached, however many indices it visits
    before = memo_sizes()
    p = build_problem({"family": "cosine", "M": 12})
    config = AdaptiveConfig(strategy=strategy, nodes="leja", tol=1e-12, max_iter=40)
    trace = run_strategy(p, SpatialDiscretization(p, 32), config)
    s = trace.interpolant.indexset
    visited = set(s.members).union(s.margin())
    levels = 2 + max(max(k) for k in visited)
    assert len(trace.rows) == 41 + (strategy == "gg") and len(visited) > 4 * levels
    for key, size in memo_sizes().items():
        assert size - before.get(key, 0) <= levels, (key, size, levels)


def test_evaluation_builds_tables_for_the_active_parameters_only(monkeypatch):
    # at M = 64 a 60-row run uses a few parameters; evaluation builds one
    # basis table per used parameter and multiplies only nonzero levels,
    # and its values are bitwise the product over all 64 factors
    p = build_problem({"family": "cosine", "M": 64})
    config = AdaptiveConfig(strategy="gn_envelope", nodes="leja", tol=1e-12, max_iter=59)
    P = run_strategy(p, SpatialDiscretization(p, 32), config).interpolant
    active = {m for k in P.indexset for m, v in enumerate(k) if v}
    assert 2 < len(active) < 32
    Y = np.random.default_rng(71).uniform(-1, 1, size=(300, 64))
    dense = np.asfortranarray(dense_basis_weights(P, Y))
    calls = []
    basis_matrix = nodes.NodeFamily.basis_matrix
    monkeypatch.setattr(
        nodes.NodeFamily,
        "basis_matrix",
        lambda self, ys, n: calls.append(n) or basis_matrix(self, ys, n),
    )
    got = P.evaluate(Y)
    assert len(calls) == len(active) and min(calls) > 1
    assert got.tobytes() == (dense @ P.surpluses()).tobytes()
    W = np.ascontiguousarray(P.basis_weights(Y))
    assert W.tobytes() == np.ascontiguousarray(dense).tobytes()


@pytest.mark.parametrize("nodes_kind", ["clenshaw_curtis", "leja"])
def test_gg_forms_each_blocks_points_once(nodes_kind, monkeypatch):
    # the surplus indicator forms a candidate's coordinates on its solve
    # cache's miss only, and add_index takes the block's solves from the
    # cache, so every block's points are formed exactly once; a block is
    # named by the levels of its first node index
    formed = []
    coords_of = SparseInterpolant.coords_of

    def spy(self, js):
        formed.append(tuple(nodes.growth_inverse(nodes_kind, v) for v in js[0]))
        return coords_of(self, js)

    monkeypatch.setattr(SparseInterpolant, "coords_of", spy)
    p = cosine_problem(3)
    cfg = AdaptiveConfig(strategy="gg", nodes=nodes_kind, tol=1e-5, reference_every=0)
    trace = run_strategy(p, SpatialDiscretization(p, 64), cfg)
    assert trace.stop_reason == "tol"
    assert len(formed) == len(set(formed))
    assert set(trace.interpolant.indexset) <= set(formed)


def test_gn_profit_recomputes_only_stale_profits(monkeypatch):
    # profits are kept across iterations, so far fewer are computed than
    # one per margin candidate and row, and the run equals one whose
    # marking recomputes every profit
    p = cosine_problem(4)
    disc = SpatialDiscretization(p, 64)
    calls = []

    def counted(*args):
        calls.append(args)
        return profit(*args)

    monkeypatch.setattr(estimators, "profit", counted)
    config = AdaptiveConfig(strategy="gn_profit", tol=1e-3)
    kept = run_strategy(p, disc, config)
    fresh = gn_rounds(p, disc, config)
    assert len(kept.rows) >= 30
    margins = sum(r.estimates_fresh + r.estimates_reused for r in kept.rows[:-1])
    assert len(calls) < margins / 4
    assert [row_stats(r) for r in kept.rows] == [stats for _, stats in fresh]
    marked = [k for ks, _ in fresh for k in ks]
    assert list(kept.interpolant.indexset) == sorted([(0,) * 4] + marked)


@pytest.mark.parametrize("symmetric", [False, True])
@pytest.mark.parametrize("p", [2, "inf"])
@pytest.mark.parametrize("kind", ["leja", "rleja", "clenshaw_curtis"])
@pytest.mark.parametrize("strategy", ["gn_envelope", "gn_profit"])
def test_gn_rounds_match_whole_margin_oracle(strategy, kind, p, symmetric, monkeypatch):
    # in every round the margin state marks what a rescan of the whole
    # margin marks, and its row reads the same report, bit for bit; three
    # parameters with one coefficient tie estimates and profits exactly,
    # and the ties go to the lexicographically smallest candidate
    if symmetric:
        problem = DiffusionProblem(3, const(2.0), [const(0.3)] * 3, const(1.0))
    else:
        problem = cosine_problem(3)
    disc = SpatialDiscretization(problem, 32)
    config = AdaptiveConfig(
        strategy=strategy,
        nodes=kind,
        norm={"p": p, "sup_points_per_dim": 9},
        tol=1e-5,
        max_iter=40,
    )
    marked = []
    add = adaptive._add_indices
    monkeypatch.setattr(
        adaptive, "_add_indices", lambda P, cache, ks: marked.append(list(ks)) or add(P, cache, ks)
    )
    trace = run_strategy(problem, disc, config)
    want = gn_rounds(problem, disc, config)
    assert len(trace.rows) == len(want) > 10
    if symmetric:
        assert marked[1] == [(0, 0, 1)]
    assert marked[1:] == [ks for ks, _ in want[:-1]]
    assert [row_stats(r) for r in trace.rows] == [stats for _, stats in want]


def test_gn_profit_rounds_are_incremental(monkeypatch):
    # a round costs what the last extension changed: one monotone
    # envelope, for the mark, and no sort of the whole margin
    problem = build_problem({"family": "cosine", "M": 6})
    disc = SpatialDiscretization(problem, 32)
    envelopes, sorts = [], []
    envelope = MonotoneIndexSet.monotone_envelope

    def counted_envelope(self, k):
        envelopes.append(k)
        return envelope(self, k)

    def counted_sorted(items, **kwargs):
        out = builtins.sorted(items, **kwargs)
        sorts.append(len(out))
        return out

    monkeypatch.setattr(MonotoneIndexSet, "monotone_envelope", counted_envelope)
    for mod in (adaptive, estimators, interp, multiindex):
        monkeypatch.setattr(mod, "sorted", counted_sorted, raising=False)
    config = AdaptiveConfig(strategy="gn_profit", tol=1e-12, max_iter=160)
    trace = run_strategy(problem, disc, config)
    assert trace.stop_reason == "max_iter" and len(trace.rows) == 161
    assert len(envelopes) <= len(trace.rows) - 1
    last = trace.rows[-1]
    assert max(sorts) * 10 < last.estimates_fresh + last.estimates_reused


@pytest.mark.parametrize("theta", [0.0, 0.5])
@pytest.mark.parametrize("p", [2, "inf"])
@pytest.mark.parametrize("kind", ["leja", "rleja", "clenshaw_curtis"])
def test_gg_rounds_match_reduced_margin_oracle(kind, p, theta, monkeypatch):
    # in every round the margin state marks the Dorfler prefix that a
    # sort of the whole reduced margin marks, its row reads the same
    # report, bit for bit, and the augmentation adds the same indices
    problem = cosine_problem(3)
    disc = SpatialDiscretization(problem, 32)
    config = AdaptiveConfig(
        strategy="gg",
        nodes=kind,
        norm={"p": p, "sup_points_per_dim": 9},
        tol=1e-5,
        max_iter=40,
        dorfler=theta,
    )
    marked = []
    add = adaptive._add_indices
    monkeypatch.setattr(
        adaptive, "_add_indices", lambda P, cache, ks: marked.append(list(ks)) or add(P, cache, ks)
    )
    trace = run_strategy(problem, disc, config)
    want = gg_rounds(problem, disc, config)
    assert_gg_augmented(trace)
    assert len(trace.rows) == len(want) + 1 > 10
    assert marked[1:] == [ks for ks, _ in want]
    assert [row_stats(r) for r in trace.rows[:-1]] == [stats for _, stats in want]
    assert row_stats(trace.rows[-1]) == want[-1][1][:3] + (0, 0)


@pytest.mark.parametrize("theta, rounds", [(0.0, 160), (0.5, 30)])
def test_gg_rounds_are_incremental(theta, rounds, monkeypatch):
    # a round costs what the last extension changed: no sort longer than
    # one round's fresh estimates and no rescan of the reduced margin.  A
    # Dorfler round at 0.5 marks and estimates afresh a large share of
    # the reduced margin, whose growth keeps that run short.  The one
    # sort of the whole reduced margin is the augmentation's, the last
    problem = build_problem({"family": "cosine", "M": 6})
    disc = SpatialDiscretization(problem, 32)
    rescans, sorts = [], []
    reduced_margin = MonotoneIndexSet.reduced_margin

    def counted_reduced_margin(self):
        rescans.append(len(self))
        return reduced_margin(self)

    def counted_sorted(items, **kwargs):
        out = builtins.sorted(items, **kwargs)
        sorts.append(len(out))
        return out

    monkeypatch.setattr(MonotoneIndexSet, "reduced_margin", counted_reduced_margin)
    for mod in (adaptive, estimators, interp, multiindex):
        monkeypatch.setattr(mod, "sorted", counted_sorted, raising=False)
    config = AdaptiveConfig(strategy="gg", tol=1e-12, max_iter=rounds, dorfler=theta)
    trace = run_strategy(problem, disc, config)
    assert trace.stop_reason == "max_iter" and len(trace.rows) == rounds + 2
    # the state reads the reduced margin of the root alone
    assert rescans == [1]
    last = trace.rows[-2]
    *loop, augmentation = sorts
    assert augmentation == last.estimates_fresh + last.estimates_reused
    assert max(loop) <= max(r.estimates_fresh for r in trace.rows)
    if theta == 0.0:
        assert max(loop) * 10 < last.estimates_fresh + last.estimates_reused


# -- reference and effectivity ----------------------------------------------


def test_reference_cadence():
    p = cosine_problem()
    disc = SpatialDiscretization(p, 64)
    trace = run("gn_envelope", p, disc, tol=1e-4, reference_every=2)
    for row in trace.rows:
        if row.n % 2 == 0:
            assert row.reference_error is not None
        else:
            assert row.reference_error is None


@pytest.mark.parametrize("every", [1, 2, 3])
@pytest.mark.parametrize("p", [2, "inf"])
@pytest.mark.parametrize("nodes", ["leja", "clenshaw_curtis"])
@pytest.mark.parametrize("strategy", ["gn_envelope", "gg"])
def test_due_reference_errors_match_rebuilt_interpolants(strategy, nodes, p, every):
    # the run's one pass gives each due row, the gg augmentation row
    # included, bitwise the pass over a fresh interpolant rebuilt from the
    # row's first n_grid points with the due counts up to the row; a row
    # that is not due keeps None
    problem = cosine_problem()
    disc = SpatialDiscretization(problem, 16)
    norm = NormSpec(p=p, sup_points_per_dim=9)
    trace = run(
        strategy, problem, disc, nodes=nodes, norm=norm, tol=1e-4,
        reference_every=every, reference_quad=7,
    )
    aug = trace.rows[-1] if strategy == "gg" else None
    due = [row for row in trace.rows if row.n % every == 0 or row is aug]
    assert len(due) >= 3
    for i, row in enumerate(due):
        Q = leading_part(trace.interpolant, row.n_grid)
        counts = [r.n_grid for r in due[: i + 1]]
        assert row.reference_error == estimators.reference_error(Q, disc, norm, 7, counts)[-1]
        assert row.effectivity == (row.total_estimator / trace.a_min) / row.reference_error
        assert row.wall_ms == row.estimate_ms + row.reference_ms
    for row in trace.rows:
        if not any(row is r for r in due):
            assert (row.reference_error, row.effectivity, row.reference_ms) == (None, None, 0.0)
    if aug is not None:
        assert trace.post_augmentation_error == aug.reference_error
        assert trace.pre_augmentation_error == trace.rows[-2].reference_error


def test_effectivity_reliable_small_case():
    p = affine_problem()
    disc = SpatialDiscretization(p, 128)
    trace = run("gn_envelope", p, disc, tol=1e-8, reference_every=1)
    effs = [r.effectivity for r in trace.rows if r.effectivity is not None]
    assert effs and min(effs) >= 1.0


def test_gg_augmentation_reference_errors():
    p = affine_problem()
    disc = SpatialDiscretization(p, 64)
    trace = run("gg", p, disc, tol=1e-8, reference_every=1)
    assert trace.pre_augmentation_error == trace.rows[-2].reference_error
    assert trace.post_augmentation_error == trace.rows[-1].reference_error
    assert trace.post_augmentation_error <= trace.pre_augmentation_error


# -- budgets ----------------------------------------------------------------


def test_max_iter_budget():
    p = cosine_problem()
    disc = SpatialDiscretization(p, 64)
    trace = run("gn_envelope", p, disc, tol=1e-14, max_iter=3)
    assert trace.stop_reason == "max_iter"
    assert trace.budget_exhausted
    assert [r.n for r in trace.rows] == [0, 1, 2, 3]


def test_max_solves_budget():
    p = cosine_problem()
    disc = SpatialDiscretization(p, 64)
    trace = run("gn_envelope", p, disc, tol=1e-14, max_solves=6)
    assert trace.stop_reason == "max_solves"
    assert trace.budget_exhausted
    assert trace.rows[-1].n_solves >= 6


def test_gg_budget_still_augments():
    p = cosine_problem()
    disc = SpatialDiscretization(p, 64)
    trace = run("gg", p, disc, tol=1e-14, max_iter=4)
    assert trace.budget_exhausted
    assert_gg_augmented(trace)
    assert trace.rows[-1].n_grid == trace.rows[-1].n_solves


# -- determinism ------------------------------------------------------------


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_rerun_bitwise_identical(strategy):
    p = cosine_problem()
    disc = SpatialDiscretization(p, 64)
    t1 = run(strategy, p, disc, tol=1e-5)
    t2 = run(strategy, p, disc, tol=1e-5)
    assert list(t1.interpolant.indexset) == list(t2.interpolant.indexset)
    assert point_indices(t1.interpolant) == point_indices(t2.interpolant)
    assert len(t1.rows) == len(t2.rows)
    for r1, r2 in zip(t1.rows, t2.rows):
        assert columns(r1) == columns(r2)


# -- configuration and errors -----------------------------------------------


def test_config_validation():
    with pytest.raises(ValueError):
        AdaptiveConfig(strategy="newton")
    with pytest.raises(ValueError):
        AdaptiveConfig(tol=0.0)
    with pytest.raises(ValueError):
        AdaptiveConfig(dorfler=1.5)
    with pytest.raises(ValueError):
        AdaptiveConfig(max_iter=0)
    with pytest.raises(ValueError, match="reference_quad must be at least 1, got 0"):
        AdaptiveConfig(reference_quad=0)
    assert AdaptiveConfig(reference_quad=1).reference_quad == 1
    # a negative cadence once turned the reference off silently
    with pytest.raises(ValueError, match="reference_every must be at least 0, got -3"):
        AdaptiveConfig(reference_every=-3)
    assert AdaptiveConfig(reference_every=0).reference_every == 0
    cfg = AdaptiveConfig(norm={"p": "inf"}, nodes="CC")
    assert cfg.norm.p == float("inf")
    assert cfg.nodes == "clenshaw_curtis"


def test_unknown_keywords_rejected():
    with pytest.raises(TypeError, match="max_solve"):
        AdaptiveConfig(tol=1e-6, max_solve=3)


def test_ellipticity_failure_propagates():
    p = DiffusionProblem(1, const(1.0), [const(1.0)], const(1.0))
    disc = SpatialDiscretization(p, 64)
    with pytest.raises(EllipticityError):
        run("gn_envelope", p, disc, tol=1e-3)


def test_on_row_callback_streams_rows(monkeypatch):
    # without a reference cadence each row reaches on_row before the next
    # estimate; with one, every row reaches it once and in order, right
    # after the run's one reference_error call, which follows the gg
    # augmentation
    events = []

    def spy(name, real):
        def call(*args, **kwargs):
            events.append(name)
            return real(*args, **kwargs)

        return call

    for name in ("margin_report", "reduced_margin_report", "reference_error"):
        monkeypatch.setattr(adaptive, name, spy(name, getattr(adaptive, name)))
    p = cosine_problem()
    disc = SpatialDiscretization(p, 32)
    for strategy in ("gn_envelope", "gg"):
        for every in (0, 2):
            events[:] = []
            cfg = AdaptiveConfig(strategy=strategy, tol=1e-4, reference_every=every)
            trace = run_strategy(p, disc, cfg, on_row=events.append)
            rows = [e for e in events if not isinstance(e, str)]
            assert len(rows) == len(trace.rows) >= 4
            assert all(a is b for a, b in zip(rows, trace.rows))
            report = "reduced_margin_report" if strategy == "gg" else "margin_report"
            estimates = len(trace.rows) - (strategy == "gg")
            tags = [e if isinstance(e, str) else "row" for e in events]
            if every:
                want = [report] * estimates + ["reference_error"] + ["row"] * len(rows)
                assert trace.rows[0].reference_error is not None
            else:
                want = [report, "row"] * estimates + ["row"] * (strategy == "gg")
            assert tags == want, (strategy, every)
    # the augmentation row is built estimating nothing
    assert_gg_augmented(trace)


def test_nodes_choice_respected():
    p = affine_problem()
    disc = SpatialDiscretization(p, 64)
    trace = run("gn_envelope", p, disc, tol=1e-6, nodes="clenshaw_curtis")
    assert trace.interpolant.family.kind == "clenshaw_curtis"
    row = trace.rows[-1]
    assert row.n_grid == trace.interpolant.n_points
