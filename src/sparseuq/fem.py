"""Parametric diffusion model problem on the unit interval.

The coefficient is affine in the parameters: a(x, y) = a_0(x) + sum_m
a_m(x) y_m with y in [-1, 1]^M.  Space is discretized once and for all
with P1 finite elements on a uniform mesh; every parametric error in
this package is measured against the finite element solution on that
same mesh, so spatial accuracy is deliberately out of scope.

Stiffness assembly samples the coefficient at element midpoints, which
keeps a * u' exactly constant per element.  The stiffness is never
assembled: in one dimension the element fluxes follow from the load by a
cumulative sum, formed once per mesh (cum_load), so a batch of parameter
points is solved in closed form by a few array passes (see
kernels.thomas_solve, which reads the cumulative load).  The element
gradients are the fluxes divided by a, so grid_gradients forms them
without the nodal values, which is all an error in the H1_0 seminorm
needs.  It takes its parameter points from a tensor grid given by its
1-D axes, never formed as an array of points: the coefficient of a
block of whole runs of the last axis is summed from per-axis partial
sums, bitwise as coefficient_at sums it point by point.

SolveCache keeps the collocation solves as one read-only array per
fresh block of a multi-index, solved in one batch.  The reference error
solves nothing and keeps nothing (estimators.reference_error).
"""

import math
from collections.abc import Mapping

import numpy as np

from . import kernels


class EllipticityError(ValueError):
    """The coefficient family admits non-positive values on the box."""


class DiffusionProblem:
    """Affine-in-parameters diffusion coefficient plus right-hand side.

    a0 and each entry of ``terms`` map an array of x values to an array
    of coefficient values; f is the load.  ``floor`` is the promised
    lower bound r: min over x and y of a(x, y) must stay >= r.
    """

    def __init__(self, dim, a0, terms, f, floor=0.0, meta=None):
        if len(terms) != dim:
            raise ValueError("expected %d coefficient terms, got %d" % (dim, len(terms)))
        self.dim = int(dim)
        self.a0 = a0
        self.terms = list(terms)
        self.f = f
        self.floor = float(floor)
        self.meta = dict(meta or {})


def _at_midpoints(fn, midpoints):
    """fn sampled at the element midpoints; a fn that does not give one
    value per point (a constant, say) is broadcast from fn(0.5)."""
    vals = np.asarray(fn(midpoints), dtype=np.float64)
    if vals.shape != midpoints.shape:
        vals = np.full(midpoints.shape, float(fn(0.5)))
    return vals


# the config key mesh_n and its default: the elements of the uniform mesh
MESH_N = 256


class SpatialDiscretization:
    """Uniform P1 mesh with precomputed midpoint coefficient samples.

    n_elements is checked like the config key mesh_n it comes from: an
    integer (an integral float too) of at least 2."""

    def __init__(self, problem, n_elements=MESH_N):
        n = config_number("mesh_n", n_elements, int)
        if n < 2:
            raise ValueError("need at least 2 elements, got %d" % n)
        self.problem = problem
        self.n_elements = n
        self.h = 1.0 / n
        self.nodes = np.linspace(0.0, 1.0, n + 1)
        self.midpoints = (self.nodes[:-1] + self.nodes[1:]) / 2.0
        self.a0_mid = _at_midpoints(problem.a0, self.midpoints)
        self.terms_mid = np.empty((problem.dim, n))
        for m, am in enumerate(problem.terms):
            self.terms_mid[m] = _at_midpoints(am, self.midpoints)
        self.f_mid = _at_midpoints(problem.f, self.midpoints)
        # midpoint-rule load on interior hat functions
        self.load = (self.h / 2.0) * (self.f_mid[:-1] + self.f_mid[1:])
        # F = [0, cumsum(load)]: the fluxes are s0 - F (kernels.p1_slopes)
        self.cum_load = np.zeros(n)
        np.cumsum(self.load, out=self.cum_load[1:])

    def coefficient_at(self, y):
        """Element-midpoint coefficient samples: shape (n,) for one
        parameter point of shape (M,), (P, n) for a batch of shape (P, M).

        The affine sum runs term by term, so each row is computed by the
        same operations whatever the batch size.
        """
        y = np.asarray(y, dtype=np.float64)
        if y.ndim not in (1, 2) or y.shape[-1] != self.problem.dim:
            raise ValueError("expected %d parameters" % self.problem.dim)
        Y = np.atleast_2d(y)
        a = np.empty((Y.shape[0], self.n_elements))
        a[:] = self.a0_mid
        term = np.empty_like(a)
        for m in range(self.problem.dim):
            a += np.multiply.outer(Y[:, m], self.terms_mid[m], out=term)
        return a if y.ndim == 2 else a[0]

    def _elliptic_coefficients(self, Y):
        """coefficient_at for a batch Y of shape (P, M); raises
        EllipticityError naming the first point whose coefficient is not
        positive on every element."""
        c = self.coefficient_at(Y)
        p = _first_non_elliptic(c)
        if p is not None:
            raise _non_elliptic(Y[p].tolist(), c[p])
        return c

    def solve_at(self, y):
        """Nodal P1 solutions, zero at both boundary nodes: length n+1 for
        one parameter point of shape (M,), shape (P, n+1) for a batch of
        shape (P, M).  Raises EllipticityError naming the first point whose
        coefficient is not positive on every element.
        """
        Y = np.asarray(y, dtype=np.float64)
        c = self._elliptic_coefficients(np.atleast_2d(Y))
        c /= self.h
        u = kernels.thomas_solve(c, self.cum_load)
        return u if Y.ndim == 2 else u[0]

    def grid_gradients(self, axes, start, stop, out):
        """Element gradients of the P1 solutions at the rows start:stop of
        the C-order tensor grid of the 1-D parameter axes (M arrays),
        written into out of shape (stop - start, n) and returned: in closed
        form (s0 - F) / a, equal to gradient_rows(solve_at(y)) up to
        roundoff but without the nodal values.  The grid is never formed
        as an array of points.  The rows must be whole runs of the last
        axis.  A run's coefficients are its prefix (a_0 + y_0 a_0m) + ...
        over the leading axes, formed once per run, plus y_last a_last,m,
        added in coefficient_at's order, so each row is bitwise
        coefficient_at's at its grid point.  Raises EllipticityError naming
        the first grid point, in C order, whose coefficient is not positive
        on every element."""
        shape = tuple(len(y) for y in axes)
        last = shape[-1]
        if start % last or stop % last:
            raise ValueError("grid rows %d:%d are not whole runs of the last axis" % (start, stop))
        lo, hi = start // last, stop // last
        lead = np.unravel_index(np.arange(lo, hi), shape[:-1]) if len(shape) > 1 else ()
        prefix = np.empty((hi - lo, self.n_elements))
        prefix[:] = self.a0_mid
        for m, idx in enumerate(lead):
            prefix += np.multiply.outer(axes[m][idx], self.terms_mid[m])
        # splitting the row axis makes a view, so the sum lands in out
        runs = out.reshape(hi - lo, last, self.n_elements)
        np.add(prefix[:, None, :], np.multiply.outer(axes[-1], self.terms_mid[-1]), out=runs)
        p = _first_non_elliptic(out)
        if p is not None:
            at = np.unravel_index(start + p, shape)
            raise _non_elliptic([float(y[i]) for y, i in zip(axes, at)], out[p])
        return kernels.p1_slopes(out, self.cum_load, out)

    def gradient_rows(self, V):
        """Element-wise derivative of nodal rows, shape (P, n)."""
        V = np.atleast_2d(np.asarray(V, dtype=np.float64))
        return (V[:, 1:] - V[:, :-1]) / self.h


def _first_non_elliptic(c):
    """Row number of the first coefficient row of c (P, n) that is not
    positive on every element (a NaN is not positive), or None."""
    bad = np.flatnonzero(~(np.min(c, axis=1) > 0.0))
    return int(bad[0]) if bad.size else None


def _non_elliptic(y, row):
    return EllipticityError("coefficient non-positive at y=%s (min %g)" % (y, np.min(row)))


def check_ellipticity(problem, disc):
    """Validate uniform ellipticity on the mesh midpoints.

    The affine coefficient is minimized over the parameter box at the
    vertex whose signs oppose each a_m, so the pointwise minimum is
    a_0(x) - sum_m |a_m(x)|.  Returns a_min, a_max, the contrast value
    alpha = 1 - a_min / inf a_0, and the effective floor; raises
    EllipticityError when positivity (or the declared floor) fails, a
    NaN included, or when the coefficient is not bounded.
    """
    absum = np.sum(np.abs(disc.terms_mid), axis=0) if problem.dim else 0.0
    low = disc.a0_mid - absum
    high = disc.a0_mid + absum
    a_min = float(np.min(low))
    a_max = float(np.max(high))
    if not a_min > 0.0 or a_min < problem.floor - 1e-12:
        x_bad = float(disc.midpoints[int(np.argmin(low))])
        raise EllipticityError(
            "ellipticity violated: min_x min_y a(x,y) = %g at x = %g (floor %g)"
            % (a_min, x_bad, problem.floor)
        )
    if not a_max < math.inf:
        x_bad = float(disc.midpoints[int(np.argmax(high))])
        raise EllipticityError("coefficient not bounded: max_y a(x,y) = inf at x = %g" % x_bad)
    alpha = 1.0 - a_min / float(np.min(disc.a0_mid))
    return {"a_min": a_min, "a_max": a_max, "alpha": alpha, "r_effective": a_min}


class SolveCache:
    """Cache of PDE solves that holds a block's solves until add_index
    stores them.

    Collocation solves are one counted read-only array per block, keyed
    by what fixes its points (estimators.fresh_solves).  The gg surplus
    indicator keeps a candidate's solves here; adaptive._add_indices
    takes them out with keep=False as the block is stored, and no run
    asks for a stored block again, so the cache never holds a copy of
    the interpolant's values.  solve_y solves a sampling point set in one
    batch that is not counted against the solve budget and not kept; no
    run calls it, the test suite's Monte Carlo oracle does, and the
    benchmark's tracer wraps it by name.
    """

    def __init__(self, disc):
        self.disc = disc
        self._by_index = {}
        self.n_solves = 0

    def __contains__(self, key):
        return key in self._by_index

    def solve_indexed(self, key, Y, keep=True):
        """Solutions at the points Y (P, M) of the block named key, shape
        (P, n+1): one counted batch on the first request for key, the
        same read-only array afterwards, whatever Y is then (None, say).
        With keep False the block leaves the cache: a kept one is handed
        over, a missing one is solved, counted and not kept."""
        U = self._by_index.get(key) if keep else self._by_index.pop(key, None)
        if U is None:
            U = self.disc.solve_at(np.asarray(Y, dtype=np.float64))
            U.flags.writeable = False
            self.n_solves += len(U)
            if keep:
                self._by_index[key] = U
        return U

    def solve_y(self, Y):
        """Solutions at the sampling points Y, (P, M) or a single point
        (M,), shaped as solve_at returns them: one uncounted batch, not
        kept, since no caller solves the same sample twice."""
        return self.disc.solve_at(Y)


# ---------------------------------------------------------------------------
# config values


def config_number(key, value, kind=float):
    """value converted by kind (int or float).  A value of the wrong type,
    such as a JSON null, list or boolean, for int a value with a
    fractional part, and for float a NaN or an infinity (JSON NaN and
    Infinity), raises ValueError naming the dotted config key, like any
    other bad config value, not a TypeError.  An integral float such as
    2.0 is an integer."""
    try:
        out = kind(value)
    except (TypeError, ValueError, OverflowError):
        out = None
    if out is None or isinstance(value, bool) or (kind is int and out != value):
        what = "an integer" if kind is int else "a number"
        raise ValueError("%s must be %s, got %r" % (key, what, value))
    if kind is float and not math.isfinite(out):
        raise ValueError("%s must be finite, got %r" % (key, value))
    return out


def config_mapping(key, value):
    """value itself when it is a mapping (a JSON object); otherwise a
    ValueError naming the dotted config key."""
    if not isinstance(value, Mapping):
        raise ValueError("%s must be a mapping, got %r" % (key, value))
    return value


def check_keys(data, known, prefix=""):
    """data itself when every key of it is a key of known, and so on into
    each section that is a mapping in both; otherwise a ValueError
    "unknown keys a.b, a.c" naming the others as dotted keys under
    prefix.  The one unknown-key rule: the CLI applies it to a whole
    config, each section's owner to its section."""
    unknown = _unknown_keys(data, known, prefix)
    if unknown:
        raise ValueError("unknown keys %s" % ", ".join(unknown))
    return data


def _unknown_keys(data, known, prefix):
    out = sorted("%s%s" % (prefix, key) for key in set(data) - set(known))
    for key, val in sorted(data.items()):
        if isinstance(val, Mapping) and isinstance(known.get(key), Mapping):
            out += _unknown_keys(val, known[key], "%s%s." % (prefix, key))
    return out


# ---------------------------------------------------------------------------
# built-in problem library


def _const(c):
    c = float(c)
    return lambda x: np.full_like(np.asarray(x, dtype=np.float64), c)


# the problem section: each key build_problem reads, with its default
PROBLEM_DEFAULTS = {
    "family": "cosine",
    "M": 2,
    "a0": 2.0,
    "gamma": 0.9,
    "sigma": 2.0,
    "f": 1.0,
    "floor": 0.0,
}
# every key the section may set: an "amps" list, which has no default,
# replaces the decay of gamma and sigma
PROBLEM_KEYS = dict(PROBLEM_DEFAULTS, amps=None)
# each load family with the keys it reads and their defaults; a load that
# names no family is constant, and so is a bare number f, of value f
LOAD_DEFAULTS = {
    "constant": {"family": "constant", "value": 1.0},
    "sine": {"family": "sine", "amp": 1.0},
}


def _amplitudes(dim, spec):
    if "amps" in spec:
        try:
            amps = list(spec["amps"])
        except TypeError:
            raise ValueError("problem.amps must be a list, got %r" % (spec["amps"],)) from None
        amps = [config_number("problem.amps[%d]" % m, v) for m, v in enumerate(amps)]
        if len(amps) != dim:
            raise ValueError("amps must have %d entries" % dim)
        return amps
    gamma = config_number("problem.gamma", spec["gamma"])
    sigma = config_number("problem.sigma", spec["sigma"])
    return [gamma * (m + 1) ** (-sigma) for m in range(dim)]


def _load(fspec):
    """The load function and its section, defaults filled in."""
    if not isinstance(fspec, Mapping):
        fspec = {"value": config_number("problem.f", fspec)}
    family = str(fspec.get("family", "constant")).lower()
    if family not in LOAD_DEFAULTS:
        raise ValueError("unknown load family %r" % family)
    # a key the family does not read would be echoed in the run summary unused
    load = {**LOAD_DEFAULTS[family], **check_keys(fspec, LOAD_DEFAULTS[family], "problem.f.")}
    if family == "constant":
        return _const(config_number("problem.f.value", load["value"])), load
    amp = config_number("problem.f.amp", load["amp"])
    return (lambda x: amp * np.sin(np.pi * np.asarray(x, dtype=np.float64))), load


def build_problem(spec):
    """Construct a DiffusionProblem from a plain config mapping, the
    problem section: PROBLEM_DEFAULTS fills in the keys it leaves out.

    Families: "cosine" with a_m(x) = amp_m * cos(m pi x); "constant"
    with a_m(x) = amp_m; "inclusion" with amp_m on the m-th of M equal
    subintervals.  Amplitudes come from an explicit "amps" list or the
    decay amp_m = gamma * m**(-sigma).  The load is constant (key value)
    or amp * sin(pi x) (key amp).  A key outside PROBLEM_KEYS, a load key
    its family does not read, or a section or number of the wrong type
    raises ValueError naming its dotted key, as the CLI does.
    """
    spec = check_keys(config_mapping("problem", spec), PROBLEM_KEYS, "problem.")
    spec = {**PROBLEM_DEFAULTS, **spec}
    dim = config_number("problem.M", spec["M"], int)
    if dim < 1:
        raise ValueError("problem.M must be at least 1, got %d" % dim)
    family = str(spec["family"]).lower()
    a0 = config_number("problem.a0", spec["a0"])
    amps = _amplitudes(dim, spec)
    if family == "cosine":
        def mk(m, amp):
            return lambda x: amp * np.cos((m + 1) * np.pi * np.asarray(x, dtype=np.float64))
        terms = [mk(m, amps[m]) for m in range(dim)]
    elif family == "constant":
        terms = [_const(amps[m]) for m in range(dim)]
    elif family == "inclusion":
        def mk(m, amp):
            lo, hi = m / dim, (m + 1) / dim
            return lambda x: amp * (
                (np.asarray(x, dtype=np.float64) >= lo)
                & (np.asarray(x, dtype=np.float64) < hi)
            ).astype(np.float64)
        terms = [mk(m, amps[m]) for m in range(dim)]
    else:
        raise ValueError("unknown coefficient family %r" % family)
    f, load = _load(spec["f"])
    meta = {
        "family": family,
        "M": dim,
        "a0": a0,
        "amps": amps,
        "f": load,
    }
    floor = config_number("problem.floor", spec["floor"])
    return DiffusionProblem(dim, _const(a0), terms, f, floor=floor, meta=meta)
