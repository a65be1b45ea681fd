"""The adaptive loop: stopping, solve accounting, marking rules,
budgets, rerun determinism and config validation."""

from dataclasses import asdict

import numpy as np
import pytest

from sparseuq import adaptive, interp
from sparseuq.adaptive import (
    AdaptiveConfig,
    STRATEGIES,
    _dorfler_mark,
    run_strategy,
)
from sparseuq.estimators import EstimatorReport, profit
from sparseuq.fem import (
    DiffusionProblem,
    EllipticityError,
    SpatialDiscretization,
    build_problem,
)
from sparseuq.interp import SparseInterpolant

from oracles import point_indices, validate_caches


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
        assert trace.augmented
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
    assert validate_caches(trace.interpolant.indexset)


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
    assert trace.augmented
    stop_row, aug_row = trace.rows[-2], trace.rows[-1]
    assert aug_row.n_solves == stop_row.n_solves
    assert aug_row.n_grid == aug_row.n_solves
    assert aug_row.n_grid == trace.interpolant.n_points
    assert aug_row.total_estimator == stop_row.total_estimator
    assert trace.cache.n_solves == trace.interpolant.n_points


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
        assert trace.stop_reason == "tol" and trace.augmented
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
    assert trace.stop_reason == "tol" and trace.augmented
    # the augmentation absorbs every solved block, so each grid point
    # was solved exactly once
    assert sum(rows) == trace.cache.n_solves == trace.interpolant.n_points > 20
    # only the root is solved where it is inserted
    assert inside == [1]


# -- marking ----------------------------------------------------------------


def test_dorfler_mark_prefix():
    rep = EstimatorReport({(0,): 0.5, (1,): 0.3, (2,): 0.2}, {(0,)})
    assert _dorfler_mark(rep, 0.5) == [(0,)]
    assert _dorfler_mark(rep, 0.8) == [(0,), (1,)]
    assert _dorfler_mark(rep, 0.9) == [(0,), (1,), (2,)]


def test_dorfler_tie_break_lexicographic():
    rep = EstimatorReport({(1, 0): 0.4, (0, 1): 0.4, (0, 0): 0.2}, set())
    assert _dorfler_mark(rep, 0.3) == [(0, 1)]


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
    assert validate_caches(trace.interpolant.indexset)
    assert trace.rows[-1].n_indices == len(trace.interpolant.indexset)


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

    def counted_run():
        calls.clear()
        trace = run("gn_profit", p, disc, tol=1e-3)
        return trace, len(calls)

    monkeypatch.setattr(adaptive, "profit", counted)
    kept, n_kept = counted_run()
    monkeypatch.setattr(
        adaptive, "_forget_profits", lambda pis, users, keys: (pis.clear(), users.clear())
    )
    fresh, n_fresh = counted_run()
    assert len(kept.rows) >= 30
    margins = sum(r.estimates_fresh + r.estimates_reused for r in kept.rows[:-1])
    assert n_fresh == margins
    assert n_kept < margins / 4
    assert list(kept.interpolant.indexset) == list(fresh.interpolant.indexset)

    assert [columns(r) for r in kept.rows] == [columns(r) for r in fresh.rows]


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
    assert trace.augmented
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
    # every row reaches on_row as it is appended, the gg augmentation row
    # included, and a run passes its one reference state to every
    # reference call
    states = []
    real = adaptive.reference_error

    def spy(P, disc, spec, quad_order, state):
        states.append(state)
        return real(P, disc, spec, quad_order, state)

    monkeypatch.setattr(adaptive, "reference_error", spy)
    p = affine_problem()
    disc = SpatialDiscretization(p, 64)
    for strategy in ("gn_envelope", "gg"):
        seen, states[:] = [], []
        cfg = AdaptiveConfig(strategy=strategy, tol=1e-6, reference_every=1)
        trace = run_strategy(p, disc, cfg, on_row=seen.append)
        assert len(seen) == len(trace.rows) >= 2
        assert all(a is b for a, b in zip(seen, trace.rows))
        assert len(states) == len(trace.rows) and all(st is states[0] for st in states)
        assert states[0].interpolant is trace.interpolant
    # the augmentation row is built estimating nothing
    assert trace.augmented
    assert (seen[-1].estimates_fresh, seen[-1].estimates_reused) == (0, 0)
    assert seen[-1].estimate_ms == 0.0


def test_nodes_choice_respected():
    p = affine_problem()
    disc = SpatialDiscretization(p, 64)
    trace = run("gn_envelope", p, disc, tol=1e-6, nodes="clenshaw_curtis")
    assert trace.interpolant.family.kind == "clenshaw_curtis"
    row = trace.rows[-1]
    assert row.n_grid == trace.interpolant.n_points
