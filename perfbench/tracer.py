"""Per-layer spans recorded from outside the program.

Each traced callable of sparseuq is replaced, wherever a module binds
it, by a wrapper that opens a span on entry and closes it on exit.  A
span's self time is its duration minus the durations of its direct
children, so the self times of all spans under one root add up to the
root's duration.  Spans live in memory as running sums; nothing is
written until the run ends.

Marking has no function of its own in the adaptive loop, so it is a
pseudo-span: it opens when the adaptive loop's per-row callback returns
and closes when the loop starts extending the index set (or returns).
"""

import functools
import time
from collections import Counter

RUN = "adaptive.run"
MARK = "adaptive.mark"
EXTEND = "adaptive.extend"
WRITE_ROW = "cli.TraceWriter.write_row"
SOLVE_AT = "fem.SpatialDiscretization.solve_at"

# (metric name, sparseuq module, attribute or Class.method)
TARGETS = (
    ("estimators.margin_report", "estimators", "margin_report"),
    ("estimators.residual_estimator", "estimators", "residual_estimator"),
    ("estimators.reduced_margin_report", "estimators", "reduced_margin_report"),
    ("estimators.surplus_indicator", "estimators", "surplus_indicator"),
    ("estimators.reference_error", "estimators", "reference_error"),
    ("estimators.profit", "estimators", "profit"),
    ("interp.SparseInterpolant.evaluate", "interp", "SparseInterpolant.evaluate"),
    ("interp.SparseInterpolant.add_index", "interp", "SparseInterpolant.add_index"),
    ("interp.TensorDetail.collapsed_values", "interp", "TensorDetail.collapsed_values"),
    (SOLVE_AT, "fem", "SpatialDiscretization.solve_at"),
    ("fem.SolveCache.solve_indexed", "fem", "SolveCache.solve_indexed"),
    ("fem.SolveCache.solve_y", "fem", "SolveCache.solve_y"),
    ("kernels.thomas_solve", "kernels", "thomas_solve"),
    ("kernels.weight_product", "kernels", "weight_product"),
    ("kernels.basis_table", "kernels", "basis_table"),
    ("kernels.log_product", "kernels", "log_product"),
    ("nodes.NodeFamily.ensure_nodes", "nodes", "NodeFamily.ensure_nodes"),
    ("nodes.NodeFamily.basis_matrix", "nodes", "NodeFamily.basis_matrix"),
    ("nodes.NodeFamily.lagrange_matrix", "nodes", "NodeFamily.lagrange_matrix"),
    ("multiindex.MonotoneIndexSet.margin", "multiindex", "MonotoneIndexSet.margin"),
    (
        "multiindex.MonotoneIndexSet.reduced_margin",
        "multiindex",
        "MonotoneIndexSet.reduced_margin",
    ),
    (
        "multiindex.MonotoneIndexSet.monotone_envelope",
        "multiindex",
        "MonotoneIndexSet.monotone_envelope",
    ),
    ("multiindex.MonotoneIndexSet.add", "multiindex", "MonotoneIndexSet.add"),
    (RUN, "adaptive", "run_strategy"),
    (EXTEND, "adaptive", "_add_indices"),
    ("cli.run_experiment", "cli", "run_experiment"),
    (WRITE_ROW, "cli", "TraceWriter.write_row"),
    ("cli.load_interpolant", "cli", "load_interpolant"),
)

SPAN_NAMES = tuple(name for name, _, _ in TARGETS) + (MARK,)

# spans whose inclusive time says which layer dominates a workload
TOTAL_TIMED = (
    "estimators.margin_report",
    "estimators.residual_estimator",
    "estimators.reduced_margin_report",
    "estimators.surplus_indicator",
    "estimators.reference_error",
    "estimators.profit",
    "interp.SparseInterpolant.evaluate",
    "fem.SolveCache.solve_indexed",
    "fem.SolveCache.solve_y",
)

HIT_RATIOS = ("fem.SolveCache.solve_indexed", "fem.SolveCache.solve_y")

COUNTERS = (
    ("estimators.candidates", "count"),
    ("interp.SparseInterpolant.evaluate.points", "count"),
    ("kernels.weight_product.flops_computed", "flop"),
    ("kernels.weight_product.bytes_computed", "B"),
    ("adaptive.iterations", "count"),
)


def _candidates(tracer, args, out):
    tracer.counters["estimators.candidates"] += len(out.values)


def _points(tracer, args, out):
    tracer.counters["interp.SparseInterpolant.evaluate.points"] += len(args[1])


def _weight_product_work(tracer, args, out):
    # W[p, r] = prod_m table[p, cols[r, m]]: M - 1 multiplies per entry,
    # M gathered reads and one write of 8 bytes each, plus the index array
    table, cols = args[0], args[1]
    entries = table.shape[0] * cols.shape[0]
    dim = cols.shape[1]
    tracer.counters["kernels.weight_product.flops_computed"] += entries * (dim - 1)
    tracer.counters["kernels.weight_product.bytes_computed"] += (
        8 * entries * (dim + 1) + cols.nbytes
    )


HOOKS = {
    "estimators.margin_report": _candidates,
    "estimators.reduced_margin_report": _candidates,
    "interp.SparseInterpolant.evaluate": _points,
    "kernels.weight_product": _weight_product_work,
}


def per_layer_names():
    """Every per-layer metric the traced run reports, with unit and sense."""
    out = []
    for name in SPAN_NAMES:
        out.append((name + ".calls", "count", "lower"))
        out.append((name + ".self_s", "s", "lower"))
        if name in TOTAL_TIMED:
            out.append((name + ".total_s", "s", "lower"))
        if name in HIT_RATIOS:
            out.append((name + ".hit_ratio", "ratio", "higher"))
    out += [(name, unit, "lower") for name, unit in COUNTERS]
    out += [
        ("trace.build_s", "s", "lower"),
        ("trace.overhead_s", "s", "lower"),
        ("trace.self_sum_gap_s", "s", "lower"),
    ]
    return out


class Tracer:
    """Stack of open spans plus running per-name sums.

    A frame is [child seconds, name, start]; the root frame never closes,
    so every span has a parent to charge its duration to.  Per-name sums
    are [calls, self seconds, total seconds].
    """

    def __init__(self):
        self.clock = time.perf_counter
        self.stack = [[0.0, None, 0.0]]
        self.sums = {name: [0, 0.0, 0.0] for name in SPAN_NAMES}
        self.counters = Counter()
        self.solves_under = Counter()
        self.run_self_sum = 0.0

    def open(self, name):
        frame = [0.0, name, 0.0]
        self.stack.append(frame)
        frame[2] = self.clock()

    def close(self):
        end = self.clock()
        child, name, start = self.stack.pop()
        dur = end - start
        self.stack[-1][0] += dur
        rec = self.sums[name]
        rec[0] += 1
        rec[1] += dur - child
        rec[2] += dur

    def wrap(self, name, fn):
        special = {RUN: self._run, WRITE_ROW: self._write_row, EXTEND: self._extend}
        if name in special:
            body = special[name]

            @functools.wraps(fn)
            def traced_special(*args, **kwargs):
                return body(fn, args, kwargs)

            return traced_special
        hook = HOOKS.get(name)
        tracer = self
        stack = self.stack
        clock = self.clock
        rec = self.sums[name]
        solves_under = self.solves_under
        is_solve = name == SOLVE_AT

        # open() and close() inlined: this runs up to ~10^6 times per run
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if is_solve:
                solves_under[stack[-1][1]] += 1
            frame = [0.0, name, 0.0]
            stack.append(frame)
            start = frame[2] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dur = clock() - start
                stack.pop()
                stack[-1][0] += dur
                rec[0] += 1
                rec[1] += dur - frame[0]
                rec[2] += dur
            if hook is not None:
                hook(tracer, args, out)
            return out

        return traced

    def _self_total(self):
        return sum(rec[1] for rec in self.sums.values())

    def _run(self, fn, args, kwargs):
        before = self._self_total()
        self.open(RUN)
        try:
            return fn(*args, **kwargs)
        finally:
            if self.stack[-1][1] == MARK:
                self.close()
            self.close()
            self.run_self_sum = self._self_total() - before

    def _write_row(self, fn, args, kwargs):
        self.open(WRITE_ROW)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close()
            if self.stack[-1][1] == RUN:
                self.counters["adaptive.iterations"] += 1
                self.open(MARK)

    def _extend(self, fn, args, kwargs):
        if self.stack[-1][1] == MARK:
            self.close()
        self.open(EXTEND)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close()

    def install(self, package_modules):
        """Wrap every target wherever one of the given modules binds it."""
        by_short = {mod.__name__.rsplit(".", 1)[-1]: mod for mod in package_modules}
        for name, modname, attr in TARGETS:
            owner = by_short[modname]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                setattr(cls, meth, self.wrap(name, vars(cls)[meth]))
                continue
            original = getattr(owner, attr)
            wrapped = self.wrap(name, original)
            for mod in package_modules:
                for key, val in list(vars(mod).items()):
                    if val is original:
                        setattr(mod, key, wrapped)

    def metrics(self):
        """Per-layer sums keyed like per_layer_names (trace.* left out)."""
        out = {}
        for name in SPAN_NAMES:
            calls, self_s, total_s = self.sums[name]
            out[name + ".calls"] = calls
            out[name + ".self_s"] = self_s
            if name in TOTAL_TIMED:
                out[name + ".total_s"] = total_s
            if name in HIT_RATIOS:
                misses = self.solves_under[name]
                out[name + ".hit_ratio"] = (calls - misses) / calls if calls else 0.0
        for key, _ in COUNTERS:
            out[key] = self.counters[key]
        return out
