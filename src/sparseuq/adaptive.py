"""Adaptive refinement.

One loop, run_strategy (estimate, mark, extend), with three strategies
chosen by AdaptiveConfig.strategy:

* ``gn_envelope``: residual estimators on the full margin, mark the
  monotone envelope of the maximizer.  Estimation needs no PDE solves,
  so the cumulative solve count always equals the grid size.
* ``gn_profit``: same candidates, but the maximizer of the
  envelope-averaged profit (estimator sum over work sum) is marked.
* ``gg``: surplus indicators on the reduced margin (these do solve the
  PDE at candidate points, all cached), marking of the largest
  candidates until they reach the fraction dorfler of the total (at the
  default 0 the single largest), and a final augmentation by the whole
  reduced margin reusing cached solves.

Each candidate is estimated once: a run keeps its estimator values
from one iteration to the next, and after adding the marked indices
drops only the values the additions can change, those of the added
indices and of their forward neighbours (MarginState.absorb; the
reports give the exactness arguments).  A trace row counts the values
estimated for it and those reused, and splits its wall_ms into
estimate_ms (the margin report) and reference_ms (the reference error,
if one is due).  No stop or mark reads a reference error, so a run
finds every due row's in one pass at its end (_add_reference_errors).

Every run keeps its candidates, the margin or for gg the reduced
margin, in one estimators.MarginState, which is also each round's
report; the index set keeps only its members.  The state follows each
extension in time proportional to what it changed: the candidates,
their estimates and exact sum, and for gn_profit each candidate's
monotone envelope and profit.  gn marks the envelope of the state's
best candidate, whose search pops stale entries off a heap instead of
scanning the margin; a profit is computed again only when its envelope
or one of its members' estimates changed, and estimators.profit says
why every kept profit is exact.  gg's Dorfler prefix walks the same
value heap.

Every run starts from the singleton zero index and breaks ties
lexicographically, and totals and profits are correctly rounded sums,
whose bits no Python version moves: reruns are bitwise identical.
"""

import logging
import math
import time
from dataclasses import dataclass, field

from .estimators import (
    MarginState,
    NormSpec,
    fresh_solves,
    margin_report,
    reduced_margin_report,
    reference_error,
    sup_points_per_dim,
)
from .fem import SolveCache, check_ellipticity, config_number
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
        # each number with its type and, for counts, its least value
        for name, kind, least in (
            ("tol", float, None),
            ("max_iter", int, 1),
            ("max_solves", int, 1),
            ("reference_every", int, 0),
            ("reference_quad", int, 1),
            ("dorfler", float, None),
        ):
            value = config_number(name, getattr(self, name), kind)
            if least is not None and value < least:
                raise ValueError("%s must be at least %d, got %d" % (name, least, value))
            setattr(self, name, value)
        if not self.tol > 0.0:
            raise ValueError("tol must be positive, got %r" % self.tol)
        if not 0.0 <= self.dorfler <= 1.0:
            raise ValueError("dorfler must lie in [0, 1], got %r" % self.dorfler)


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
    # wall_ms split into the margin report and the reference error
    estimate_ms: float = 0.0
    reference_ms: float = 0.0
    estimates_fresh: int = 0
    estimates_reused: int = 0
    ratio_c: float = 1.0


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
        self.pre_augmentation_error = None
        self.post_augmentation_error = None

    @property
    def a_min(self):
        return self.info["a_min"]

    @property
    def budget_exhausted(self):
        return self.stop_reason in ("max_iter", "max_solves")


def _add_indices(P, cache, marked):
    """Store the marked blocks, taking their solves out of the cache: no
    run asks for a stored block's solves again."""
    for k in marked:
        P.add_index(k, values=fresh_solves(P, cache, k, keep=False))


def _row(trace, n, report, estimate_ms, counts):
    """Append and return the trace row of iteration n, with no reference
    error yet; counts holds the fresh and reused estimates."""
    P = trace.interpolant
    row = TraceRow(
        n=n,
        strategy=trace.strategy,
        n_indices=len(P.indexset),
        n_grid=P.n_points,
        n_solves=trace.cache.n_solves,
        total_estimator=report.total,
        max_estimator=report.vmax,
        wall_ms=estimate_ms,
        estimate_ms=estimate_ms,
        estimates_fresh=counts[0],
        estimates_reused=counts[1],
        ratio_c=report.ratio_c,
    )
    trace.rows.append(row)
    return row


def _emit(trace, row, on_row):
    """Log a finished row and pass it to on_row, if given."""
    ref = "-" if row.reference_error is None else "%.6e" % row.reference_error
    fields = (row.n, row.n_indices, row.n_grid, row.n_solves, row.total_estimator)
    log.info("%s n=%d |set|=%d grid=%d solves=%d total=%.6e ref=%s", trace.strategy, *fields, ref)
    if on_row is not None:
        on_row(row)


def _add_reference_errors(trace, disc, rows):
    """Give rows their reference errors, effectivities and reference_ms
    from one reference_error pass over the final interpolant, each row's
    from its first n_grid points; wall_ms stays estimate_ms + reference_ms."""
    config, ms = trace.config, []
    counts = [row.n_grid for row in rows]
    refs = reference_error(trace.interpolant, disc, config.norm, config.reference_quad, counts, ms)
    for row, ref, t in zip(rows, refs, ms):
        row.reference_error, row.reference_ms, row.wall_ms = ref, t, row.estimate_ms + t
        if ref > 0.0:
            row.effectivity = (row.total_estimator / trace.a_min) / ref


def _dorfler_mark(state, theta):
    """Smallest prefix of the state's candidates, by decreasing estimate
    with ties broken lexicographically, whose estimates reach theta
    times their total (at theta 0 the heap top); no sort."""
    target = theta * state.total
    marked, acc = [], 0.0
    for negative, k in state.by_value.ordered():
        marked.append(k)
        acc -= negative
        if acc >= target:
            break
    return marked


def run_strategy(problem, disc, config, on_row=None):
    """Run config.strategy from the singleton zero index to a stop.
    on_row, if given, receives each trace row in order: as it is
    appended, or with a reference cadence right after the run's one
    reference pass, which follows gg's augmentation."""
    info = check_ellipticity(problem, disc)
    if config.norm.p == math.inf:
        sup_points_per_dim(config.norm, problem.dim)
    trace = AdaptiveTrace(config.strategy, config, info)
    P = SparseInterpolant(config.nodes, problem.dim)
    cache = SolveCache(disc)
    trace.interpolant = P
    trace.cache = cache
    is_gg = config.strategy == "gg"
    every = config.reference_every
    _add_indices(P, cache, [(0,) * problem.dim])
    profit_kind = config.nodes if config.strategy == "gn_profit" else None
    margin = MarginState(P.indexset, profit_kind, reduced=is_gg)
    if is_gg:
        estimate = lambda: reduced_margin_report(P, disc, config.norm, cache, margin)
        mark = lambda: _dorfler_mark(margin, config.dorfler)
    else:
        estimate = lambda: margin_report(P, disc, config.norm, margin)
        mark = lambda: P.indexset.monotone_envelope(margin.best())
    n = 0
    while True:
        t0 = time.perf_counter()
        report = estimate()
        estimate_ms = (time.perf_counter() - t0) * 1000.0
        row = _row(trace, n, report, estimate_ms, (report.fresh, report.reused))
        if not every:
            _emit(trace, row, on_row)
        if report.total <= config.tol:
            trace.stop_reason = "tol"
            break
        if n + 1 > config.max_iter:
            trace.stop_reason = "max_iter"
            break
        if cache.n_solves >= config.max_solves:
            trace.stop_reason = "max_solves"
            break
        marked = mark()
        _add_indices(P, cache, marked)
        margin.absorb(marked)
        n += 1
    aug = _augment_gg(trace, margin) if is_gg else None
    if every:
        due = [row for row in trace.rows if row.n % every == 0 or row is aug]
        _add_reference_errors(trace, disc, due)
        for row in trace.rows:
            _emit(trace, row, on_row)
    elif is_gg:
        _emit(trace, aug, on_row)
    if is_gg:
        trace.pre_augmentation_error = trace.rows[-2].reference_error
        trace.post_augmentation_error = aug.reference_error
    return trace


def _augment_gg(trace, report):
    """Absorb the whole reduced margin, in lexicographic order, after the loop.

    Every reduced-margin index was just estimated, so its solves are
    already cached and the extension is free.  The extra trace row, which
    this returns, keeps the stopping iteration's estimator values and
    estimates nothing itself (zero fresh and reused counts and
    estimate_ms).  Its reference error, due whenever the run has a
    reference cadence, is the post-augmentation one, and its
    reference_ms is also its wall_ms; the stopping row holds the
    pre-augmentation error.
    """
    P, cache, last = trace.interpolant, trace.cache, trace.rows[-1]
    before = cache.n_solves
    _add_indices(P, cache, sorted(report.values))
    if cache.n_solves != before:
        raise RuntimeError("augmentation must reuse cached solves")
    return _row(trace, last.n + 1, report, 0.0, (0, 0))
