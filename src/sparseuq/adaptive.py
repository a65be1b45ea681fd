"""Adaptive refinement drivers.

Three strategies over the same generic loop (estimate, mark, extend):

* ``gn_envelope``: residual estimators on the full margin, mark the
  monotone envelope of the maximizer.  Estimation needs no PDE solves,
  so the cumulative solve count always equals the grid size.
* ``gn_profit``: same candidates, but the maximizer of the
  envelope-averaged profit (estimator sum over work sum) is marked.
* ``gg``: surplus indicators on the reduced margin (these do solve the
  PDE at candidate points, all cached), single-index marking, and a
  final augmentation by the whole reduced margin reusing cached solves.

Each candidate is estimated once: a run keeps its estimator values
from one iteration to the next in a memo, and after adding the marked
indices drops only the values the additions can change, those of the
added indices and of their forward neighbours (margin_report and
reduced_margin_report give the exactness arguments).  A trace row
counts the values estimated for it and those reused from the memo, and
splits its wall_ms into estimate_ms (the margin report) and
reference_ms (the reference error, if one is due).

All loops start from the singleton zero index, estimate candidates in
lexicographic order and break ties lexicographically, so reruns are
bitwise identical.
"""

import logging
import math
import time
from dataclasses import dataclass, field

from .estimators import (
    NormSpec,
    drop_stale,
    fresh_solves,
    margin_report,
    profit,
    reduced_margin_report,
    reference_error,
)
from .fem import SolveCache, check_ellipticity
from .interp import SparseInterpolant
from .nodes import normalize_kind

log = logging.getLogger("sparseuq.adaptive")

STRATEGIES = ("gn_envelope", "gn_profit", "gg")


@dataclass
class AdaptiveConfig:
    strategy: str = "gn_envelope"
    nodes: str = "leja"
    norm: NormSpec = field(default_factory=NormSpec)
    tol: float = 1e-8
    max_iter: int = 200
    max_solves: int = 100000
    reference_every: int = 0
    reference_quad: int = 20
    dorfler: float = 0.0

    def __post_init__(self):
        self.strategy = str(self.strategy).lower()
        if self.strategy not in STRATEGIES:
            raise ValueError(
                "unknown strategy %r (expected one of %s)"
                % (self.strategy, ", ".join(STRATEGIES))
            )
        self.nodes = normalize_kind(self.nodes)
        if not isinstance(self.norm, NormSpec):
            self.norm = NormSpec.from_config(self.norm)
        if not self.tol > 0.0:
            raise ValueError("tolerance must be positive")
        if self.max_iter < 1 or self.max_solves < 1:
            raise ValueError("budgets must be at least 1")
        if not 0.0 <= self.dorfler <= 1.0:
            raise ValueError("dorfler fraction must lie in [0, 1]")


@dataclass
class TraceRow:
    n: int
    strategy: str
    n_indices: int
    n_grid: int
    n_solves: int
    total_estimator: float
    max_estimator: float
    reference_error: float = None
    effectivity: float = None
    wall_ms: float = 0.0
    estimates_fresh: int = 0
    estimates_reused: int = 0
    ratio_c: float = 1.0
    # wall_ms split into the margin report and the reference error, set
    # per row by the loop; plain attributes rather than fields, so that
    # asdict and row equality see the same fields as before the split
    estimate_ms = 0.0
    reference_ms = 0.0


class AdaptiveTrace:
    """Everything one adaptive run produced."""

    def __init__(self, strategy, config, info):
        self.strategy = strategy
        self.config = config
        self.info = info
        self.rows = []
        self.interpolant = None
        self.cache = None
        self.stop_reason = None
        self.budget_exhausted = False
        self.augmented = False
        self.pre_augmentation_error = None
        self.post_augmentation_error = None

    @property
    def a_min(self):
        return self.info["a_min"]


def _add_indices(P, cache, marked):
    for k in marked:
        P.add_index(k, values=fresh_solves(P, cache, k)[1])


def _maybe_reference(P, disc, config, cache, n):
    every = config.reference_every
    if every <= 0 or n % every != 0:
        return None
    return reference_error(P, disc, config.norm, config.reference_quad, cache)


def _row(trace, n, P, cache, report, ref, a_min, times_ms):
    """Append the trace row of iteration n; times_ms holds wall_ms,
    estimate_ms and reference_ms."""
    eff = None
    if ref is not None and ref > 0.0:
        eff = (report.total / a_min) / ref
    row = TraceRow(
        n=n,
        strategy=trace.strategy,
        n_indices=len(P.indexset),
        n_grid=P.n_points,
        n_solves=cache.n_solves,
        total_estimator=report.total,
        max_estimator=report.vmax,
        reference_error=ref,
        effectivity=eff,
        estimates_fresh=report.fresh,
        estimates_reused=report.reused,
        ratio_c=report.ratio_c,
    )
    row.wall_ms, row.estimate_ms, row.reference_ms = times_ms
    trace.rows.append(row)
    log.info(
        "%s n=%d |set|=%d grid=%d solves=%d total=%.6e ref=%s",
        trace.strategy,
        n,
        row.n_indices,
        row.n_grid,
        row.n_solves,
        row.total_estimator,
        "-" if ref is None else "%.6e" % ref,
    )
    return row


def _dorfler_mark(report, theta):
    """Smallest prefix of candidates (by decreasing value) reaching
    theta times the total; candidates tie-broken lexicographically."""
    order = sorted(report.values, key=lambda k: (-report.values[k], k))
    target = theta * report.total
    marked, acc = [], 0.0
    for k in order:
        marked.append(k)
        acc += report.values[k]
        if acc >= target:
            break
    return marked


def _run(problem, disc, config, on_row=None):
    info = check_ellipticity(problem, disc)
    trace = AdaptiveTrace(config.strategy, config, info)
    P = SparseInterpolant(config.nodes, problem.dim)
    cache = SolveCache(disc)
    trace.interpolant = P
    trace.cache = cache
    a_min = info["a_min"]
    is_gg = config.strategy == "gg"
    _add_indices(P, cache, [(0,) * problem.dim])
    memo = {}
    n = 0
    while True:
        t0 = time.perf_counter()
        if is_gg:
            report = reduced_margin_report(P, problem, disc, config.norm, cache, memo)
        else:
            report = margin_report(P, problem, disc, config.norm, memo)
        t1 = time.perf_counter()
        ref = _maybe_reference(P, disc, config, cache, n)
        t2 = time.perf_counter()
        times_ms = ((t2 - t0) * 1000.0, (t1 - t0) * 1000.0, (t2 - t1) * 1000.0)
        row = _row(trace, n, P, cache, report, ref, a_min, times_ms)
        if on_row is not None:
            on_row(row)
        if report.total <= config.tol:
            trace.stop_reason = "tol"
            break
        if n + 1 > config.max_iter:
            trace.stop_reason = "max_iter"
            trace.budget_exhausted = True
            break
        if cache.n_solves >= config.max_solves:
            trace.stop_reason = "max_solves"
            trace.budget_exhausted = True
            break
        if config.strategy == "gn_profit":
            pis = {
                k: profit(P.indexset, config.nodes, k, report.values)
                for k in report.values
            }
            kstar = min(pis, key=lambda k: (-pis[k], k))
            marked = P.indexset.monotone_envelope(kstar)
        elif config.strategy == "gn_envelope":
            kstar = report.argmax()
            marked = P.indexset.monotone_envelope(kstar)
        else:
            if config.dorfler > 0.0:
                marked = _dorfler_mark(report, config.dorfler)
            else:
                marked = [report.argmax()]
        _add_indices(P, cache, marked)
        drop_stale(memo, marked)
        n += 1
    if is_gg:
        _augment_gg(trace, disc, config, P, cache, report)
    return trace


def _augment_gg(trace, disc, config, P, cache, report):
    """Absorb the whole reduced margin after the loop.

    Every reduced-margin index was just estimated, so its solves are
    already cached and the extension is free.  The extra trace row keeps
    the stopping iteration's estimator values, estimates nothing itself
    (zero fresh and reused counts and estimate_ms) and carries the
    post-augmentation reference error and its reference_ms; its wall_ms
    stays 0 as before.  The stopping row holds the pre-augmentation
    error.
    """
    last = trace.rows[-1]
    trace.pre_augmentation_error = last.reference_error
    pending = [tuple(k) for k in P.indexset.reduced_margin()]
    if not pending:
        return
    before = cache.n_solves
    _add_indices(P, cache, pending)
    assert cache.n_solves == before, "augmentation must reuse cached solves"
    trace.augmented = True
    ref = None
    t0 = time.perf_counter()
    if config.reference_every > 0:
        ref = reference_error(P, disc, config.norm, config.reference_quad, cache)
    trace.post_augmentation_error = ref
    times_ms = (0.0, 0.0, (time.perf_counter() - t0) * 1000.0)
    row = _row(trace, last.n + 1, P, cache, report, ref, trace.a_min, times_ms)
    row.estimates_fresh = row.estimates_reused = 0


def run_gg(problem, disc, config=None, **kw):
    config = _coerce(config, "gg", kw)
    return _run(problem, disc, config, kw.get("on_row"))


def run_gn(problem, disc, config=None, **kw):
    config = _coerce(config, "gn_envelope", kw)
    return _run(problem, disc, config, kw.get("on_row"))


def run_gn_profit(problem, disc, config=None, **kw):
    config = _coerce(config, "gn_profit", kw)
    return _run(problem, disc, config, kw.get("on_row"))


def run_strategy(problem, disc, config, on_row=None):
    return _run(problem, disc, config, on_row)


def _coerce(config, strategy, kw):
    fields = {k: v for k, v in kw.items() if k != "on_row"}
    if config is None:
        unknown = sorted(set(fields) - set(AdaptiveConfig.__dataclass_fields__))
        if unknown:
            raise TypeError("unknown keyword arguments: %s" % ", ".join(unknown))
        fields.setdefault("strategy", strategy)
        config = AdaptiveConfig(**fields)
    elif fields:
        raise TypeError(
            "keyword arguments %s cannot be combined with config="
            % ", ".join(sorted(fields))
        )
    if config.strategy != strategy:
        raise ValueError(
            "config strategy %r does not match entry point %r"
            % (config.strategy, strategy)
        )
    return config
