"""Adaptive drivers: stopping, solve accounting, marking rules,
budgets, rerun determinism and keyword validation."""

from dataclasses import asdict

import numpy as np
import pytest

from sparseuq.adaptive import (
    AdaptiveConfig,
    STRATEGIES,
    _dorfler_mark,
    run_gg,
    run_gn,
    run_gn_profit,
    run_strategy,
)
from sparseuq.estimators import EstimatorReport, NormSpec
from sparseuq.fem import (
    DiffusionProblem,
    EllipticityError,
    SpatialDiscretization,
    build_problem,
)


def const(c):
    return lambda x: np.full_like(np.asarray(x, dtype=np.float64), float(c))


def deterministic_problem():
    return DiffusionProblem(1, const(2.0), [const(0.0)], const(1.0))


def affine_problem():
    return DiffusionProblem(1, const(2.0), [const(1.0)], const(1.0))


def cosine_problem(dim=2):
    return build_problem({"family": "cosine", "M": dim, "a0": 2.0})


RUNNERS = {"gn_envelope": run_gn, "gn_profit": run_gn_profit, "gg": run_gg}


# -- stopping ---------------------------------------------------------------


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_deterministic_problem_stops_immediately(strategy):
    p = deterministic_problem()
    disc = SpatialDiscretization(p, 64)
    trace = RUNNERS[strategy](p, disc, tol=1e-12)
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
    trace = RUNNERS[strategy](p, disc, tol=1e-9)
    assert trace.stop_reason == "tol"
    assert trace.rows[-1].total_estimator <= 1e-9
    # 1-D monotone sets are chains 0..k
    members = trace.interpolant.indexset.members_sorted()
    assert members == [(k,) for k in range(len(members))]
    trace.interpolant.indexset.validate_caches()


# -- solve accounting -------------------------------------------------------


def test_gn_solves_equal_grid_every_iteration():
    p = cosine_problem()
    disc = SpatialDiscretization(p, 64)
    trace = run_gn(p, disc, tol=1e-5)
    for row in trace.rows:
        assert row.n_solves == row.n_grid


def test_gn_profit_solves_equal_grid():
    p = cosine_problem()
    disc = SpatialDiscretization(p, 64)
    trace = run_gn_profit(p, disc, tol=1e-5)
    for row in trace.rows:
        assert row.n_solves == row.n_grid
    assert trace.stop_reason == "tol"


def test_gg_augmentation_absorbs_cached_solves():
    p = cosine_problem()
    disc = SpatialDiscretization(p, 64)
    trace = run_gg(p, disc, tol=1e-5)
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
    trace = run_gg(p, disc, tol=1e-4)
    for row in trace.rows[:-1]:
        assert row.n_solves > row.n_grid


# -- marking ----------------------------------------------------------------


def test_dorfler_mark_prefix():
    rep = EstimatorReport("leja", {(0,): 0.5, (1,): 0.3, (2,): 0.2}, {(0,)})
    assert _dorfler_mark(rep, 0.5) == [(0,)]
    assert _dorfler_mark(rep, 0.8) == [(0,), (1,)]
    assert _dorfler_mark(rep, 0.9) == [(0,), (1,), (2,)]


def test_dorfler_tie_break_lexicographic():
    rep = EstimatorReport("leja", {(1, 0): 0.4, (0, 1): 0.4, (0, 0): 0.2}, set())
    assert _dorfler_mark(rep, 0.3) == [(0, 1)]


def test_gg_dorfler_smoke():
    p = cosine_problem()
    disc = SpatialDiscretization(p, 64)
    plain = run_gg(p, disc, tol=1e-4)
    bulk = run_gg(p, disc, tol=1e-4, dorfler=0.6)
    assert bulk.stop_reason == "tol"
    assert len(bulk.rows) <= len(plain.rows)


def test_gn_marks_whole_envelope():
    # every marked batch keeps the set monotone, so the final set is
    # monotone even though maximizers may sit deep in the margin
    p = cosine_problem()
    disc = SpatialDiscretization(p, 64)
    trace = run_gn(p, disc, tol=1e-5)
    trace.interpolant.indexset.validate_caches()
    assert trace.rows[-1].n_indices == len(trace.interpolant.indexset)


# -- reference and effectivity ----------------------------------------------


def test_reference_cadence():
    p = cosine_problem()
    disc = SpatialDiscretization(p, 64)
    trace = run_gn(p, disc, tol=1e-4, reference_every=2)
    for row in trace.rows:
        if row.n % 2 == 0:
            assert row.reference_error is not None
        else:
            assert row.reference_error is None


def test_effectivity_reliable_small_case():
    p = affine_problem()
    disc = SpatialDiscretization(p, 128)
    trace = run_gn(p, disc, tol=1e-8, reference_every=1)
    effs = [r.effectivity for r in trace.rows if r.effectivity is not None]
    assert effs and min(effs) >= 1.0


def test_gg_augmentation_reference_errors():
    p = affine_problem()
    disc = SpatialDiscretization(p, 64)
    trace = run_gg(p, disc, tol=1e-8, reference_every=1)
    assert trace.pre_augmentation_error == trace.rows[-2].reference_error
    assert trace.post_augmentation_error == trace.rows[-1].reference_error
    assert trace.post_augmentation_error <= trace.pre_augmentation_error


# -- budgets ----------------------------------------------------------------


def test_max_iter_budget():
    p = cosine_problem()
    disc = SpatialDiscretization(p, 64)
    trace = run_gn(p, disc, tol=1e-14, max_iter=3)
    assert trace.stop_reason == "max_iter"
    assert trace.budget_exhausted
    assert [r.n for r in trace.rows] == [0, 1, 2, 3]


def test_max_solves_budget():
    p = cosine_problem()
    disc = SpatialDiscretization(p, 64)
    trace = run_gn(p, disc, tol=1e-14, max_solves=6)
    assert trace.stop_reason == "max_solves"
    assert trace.budget_exhausted
    assert trace.rows[-1].n_solves >= 6


def test_gg_budget_still_augments():
    p = cosine_problem()
    disc = SpatialDiscretization(p, 64)
    trace = run_gg(p, disc, tol=1e-14, max_iter=4)
    assert trace.budget_exhausted
    assert trace.augmented
    assert trace.rows[-1].n_grid == trace.rows[-1].n_solves


# -- determinism ------------------------------------------------------------


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_rerun_bitwise_identical(strategy):
    p = cosine_problem()
    disc = SpatialDiscretization(p, 64)
    t1 = RUNNERS[strategy](p, disc, tol=1e-5)
    t2 = RUNNERS[strategy](p, disc, tol=1e-5)
    assert (
        t1.interpolant.indexset.members_sorted()
        == t2.interpolant.indexset.members_sorted()
    )
    assert t1.interpolant.point_indices() == t2.interpolant.point_indices()
    assert len(t1.rows) == len(t2.rows)
    for r1, r2 in zip(t1.rows, t2.rows):
        f1, f2 = asdict(r1), asdict(r2)
        del f1["wall_ms"], f2["wall_ms"]
        assert f1 == f2


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
    cfg = AdaptiveConfig(norm={"p": "inf"}, nodes="CC")
    assert cfg.norm.p == float("inf")
    assert cfg.nodes == "clenshaw_curtis"


def test_unknown_keywords_rejected():
    p = affine_problem()
    disc = SpatialDiscretization(p, 64)
    with pytest.raises(TypeError, match="max_solve"):
        run_gn(p, disc, tol=1e-6, max_solve=3)
    cfg = AdaptiveConfig(strategy="gn_envelope", tol=1e-3)
    with pytest.raises(TypeError, match="tol"):
        run_gn(p, disc, cfg, tol=1e-6)
    seen = []
    run_gn(p, disc, cfg, on_row=seen.append)
    assert seen


def test_entry_point_strategy_guard():
    p = affine_problem()
    disc = SpatialDiscretization(p, 64)
    cfg = AdaptiveConfig(strategy="gg", tol=1e-3)
    with pytest.raises(ValueError):
        run_gn(p, disc, cfg)
    trace = run_strategy(p, disc, cfg)
    assert trace.strategy == "gg"


def test_ellipticity_failure_propagates():
    p = DiffusionProblem(1, const(1.0), [const(1.0)], const(1.0))
    disc = SpatialDiscretization(p, 64)
    with pytest.raises(EllipticityError):
        run_gn(p, disc, tol=1e-3)


def test_on_row_callback_streams_rows():
    p = affine_problem()
    disc = SpatialDiscretization(p, 64)
    seen = []
    trace = run_gn(p, disc, tol=1e-6, on_row=seen.append)
    assert seen == trace.rows


def test_nodes_choice_respected():
    p = affine_problem()
    disc = SpatialDiscretization(p, 64)
    trace = run_gn(p, disc, tol=1e-6, nodes="clenshaw_curtis")
    assert trace.interpolant.family.kind == "clenshaw_curtis"
    row = trace.rows[-1]
    assert row.n_grid == trace.interpolant.n_points
