"""Parametric diffusion model problem on the unit interval.

The coefficient is affine in the parameters: a(x, y) = a_0(x) + sum_m
a_m(x) y_m with y in [-1, 1]^M.  Space is discretized once and for all
with P1 finite elements on a uniform mesh; every parametric error in
this package is measured against the finite element solution on that
same mesh, so spatial accuracy is deliberately out of scope.

Stiffness assembly samples the coefficient at element midpoints, which
keeps a * u' exactly constant per element.  The stiffness is never
assembled: in one dimension the element fluxes follow from the load by a
cumulative sum, so a batch of parameter points is solved in closed form
by a few array passes (see kernels.thomas_solve).  The element gradients
are the fluxes divided by a, so gradients_at forms them without the
nodal values, which is all an error in the H1_0 seminorm needs.
"""

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


def coefficient_eval(problem, x, y):
    """a(x, y) for scalar or vector x at one parameter point y."""
    x = np.asarray(x, dtype=np.float64)
    out = np.asarray(problem.a0(x), dtype=np.float64).copy()
    for ym, am in zip(y, problem.terms):
        out += float(ym) * np.asarray(am(x), dtype=np.float64)
    return out if out.ndim else float(out)


class SpatialDiscretization:
    """Uniform P1 mesh with precomputed midpoint coefficient samples."""

    def __init__(self, problem, n_elements=256):
        n = int(n_elements)
        if n < 2:
            raise ValueError("need at least 2 elements, got %d" % n)
        self.problem = problem
        self.n_elements = n
        self.h = 1.0 / n
        self.nodes = np.linspace(0.0, 1.0, n + 1)
        self.midpoints = (self.nodes[:-1] + self.nodes[1:]) / 2.0
        self.a0_mid = np.asarray(problem.a0(self.midpoints), dtype=np.float64)
        if self.a0_mid.shape != self.midpoints.shape:
            self.a0_mid = np.full(n, float(problem.a0(0.5)))
        self.terms_mid = np.empty((problem.dim, n))
        for m, am in enumerate(problem.terms):
            vals = np.asarray(am(self.midpoints), dtype=np.float64)
            self.terms_mid[m] = vals if vals.shape == self.midpoints.shape else float(
                am(0.5)
            )
        f_mid = np.asarray(problem.f(self.midpoints), dtype=np.float64)
        if f_mid.shape != self.midpoints.shape:
            f_mid = np.full(n, float(problem.f(0.5)))
        self.f_mid = f_mid
        # midpoint-rule load on interior hat functions
        self.load = (self.h / 2.0) * (f_mid[:-1] + f_mid[1:])
        # F = [0, cumsum(load)]: the fluxes are s0 - F (kernels.thomas_solve)
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
        low = np.min(c, axis=1)
        bad = np.flatnonzero(low <= 0.0)
        if bad.size:
            p = int(bad[0])
            raise EllipticityError(
                "coefficient non-positive at y=%s (min %g)" % (Y[p].tolist(), low[p])
            )
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
        u = kernels.thomas_solve(c, self.load)
        return u if Y.ndim == 2 else u[0]

    def gradients_at(self, Y, out=None):
        """Element gradients of the P1 solutions at the points Y of shape
        (P, M), shape (P, n), written into out when given: in closed form
        (s0 - F) / a, equal to gradient_rows(solve_at(Y)) up to roundoff
        but without the nodal values.  Raises EllipticityError like
        solve_at."""
        a = self._elliptic_coefficients(np.atleast_2d(np.asarray(Y, dtype=np.float64)))
        if out is None:
            out = np.empty_like(a)
        return kernels.p1_slopes(a, self.cum_load, out)

    def gradient_rows(self, V):
        """Element-wise derivative of nodal rows, shape (P, n)."""
        V = np.atleast_2d(np.asarray(V, dtype=np.float64))
        return (V[:, 1:] - V[:, :-1]) / self.h

    def h1_rows(self, V):
        """H1_0 seminorm of each nodal row."""
        dV = np.diff(np.atleast_2d(np.asarray(V, dtype=np.float64)), axis=1)
        return np.sqrt(np.einsum("ij,ij->i", dV, dV) / self.h)

    def l2_nodal_rows(self, V):
        """L2 norm of each nodal row via the P1 mass matrix."""
        V = np.atleast_2d(np.asarray(V, dtype=np.float64))
        L, R = V[:, :-1], V[:, 1:]
        return np.sqrt((self.h / 3.0) * np.sum(L * L + L * R + R * R, axis=1))

    def l2_element_rows(self, G):
        """L2 norm of piecewise-constant element rows, shape (P, n)."""
        G = np.atleast_2d(np.asarray(G, dtype=np.float64))
        return np.sqrt(self.h * np.einsum("ij,ij->i", G, G))

    def spatial_norm(self, v, which="H1_0"):
        """Norm of one spatial vector.

        Nodal vectors have length n+1.  For the L2 norm a vector of
        length n is treated as piecewise-constant element data (as
        produced for gradients and fluxes).
        """
        v = np.asarray(v, dtype=np.float64)
        if v.ndim != 1:
            raise ValueError("spatial_norm expects a single vector")
        which = which.upper().replace("-", "_")
        nodal = v.shape[0] == self.n_elements + 1
        element = v.shape[0] == self.n_elements
        if not (nodal or element):
            raise ValueError(
                "vector length %d matches neither nodes (%d) nor elements (%d)"
                % (v.shape[0], self.n_elements + 1, self.n_elements)
            )
        if which in ("H1_0", "H1"):
            if not nodal:
                raise ValueError("H1_0 seminorm needs a nodal vector")
            return float(self.h1_rows(v[None, :])[0])
        if which == "L2":
            if nodal:
                return float(self.l2_nodal_rows(v[None, :])[0])
            return float(self.l2_element_rows(v[None, :])[0])
        raise ValueError("unknown norm %r" % which)

    def norm_rows(self, V, which="H1_0"):
        """Batch version of spatial_norm with the same length dispatch."""
        V = np.atleast_2d(np.asarray(V, dtype=np.float64))
        which = which.upper().replace("-", "_")
        nodal = V.shape[1] == self.n_elements + 1
        if which in ("H1_0", "H1"):
            if not nodal:
                raise ValueError("H1_0 seminorm needs nodal rows")
            return self.h1_rows(V)
        if which == "L2":
            return self.l2_nodal_rows(V) if nodal else self.l2_element_rows(V)
        raise ValueError("unknown norm %r" % which)


def check_ellipticity(problem, disc):
    """Validate uniform ellipticity on the mesh midpoints.

    The affine coefficient is minimized over the parameter box at the
    vertex whose signs oppose each a_m, so the pointwise minimum is
    a_0(x) - sum_m |a_m(x)|.  Returns a_min, a_max, the contrast value
    alpha = 1 - a_min / inf a_0, and the effective floor; raises
    EllipticityError when positivity (or the declared floor) fails.
    """
    absum = np.sum(np.abs(disc.terms_mid), axis=0) if problem.dim else 0.0
    low = disc.a0_mid - absum
    high = disc.a0_mid + absum
    a_min = float(np.min(low))
    a_max = float(np.max(high))
    if a_min <= 0.0 or a_min < problem.floor - 1e-12:
        x_bad = float(disc.midpoints[int(np.argmin(low))])
        raise EllipticityError(
            "ellipticity violated: min_x min_y a(x,y) = %g at x = %g (floor %g)"
            % (a_min, x_bad, problem.floor)
        )
    alpha = 1.0 - a_min / float(np.min(disc.a0_mid))
    return {"a_min": a_min, "a_max": a_max, "alpha": alpha, "r_effective": a_min}


class SolveCache:
    """Insert-once cache of PDE solves.

    Collocation solves are keyed by the grid point's node-index tuple
    and counted.  solve_y memoizes solutions at a sampling point set
    (monte_carlo_error) as one array per set, keyed by the set's shape
    and bytes, and does not count them against the solve budget.
    ``reference_rows`` holds the incremental state of
    estimators.reference_error for this cache; the reference grid's
    solutions are never formed, so they are not memoized here.
    """

    def __init__(self, disc):
        self.disc = disc
        self._by_index = {}
        self._by_y = {}
        self.n_solves = 0
        self.reference_rows = None

    def solve_indexed(self, j, y):
        j = tuple(int(v) for v in j)
        u = self._by_index.get(j)
        if u is None:
            u = self._by_index[j] = self.disc.solve_at(y)
            self.n_solves += 1
        return u

    def solve_y(self, Y):
        """Solutions at the point set Y, (P, M) or a single point (M,),
        shaped as solve_at returns them: one batched solve on first
        request, the same array afterwards."""
        Y = np.ascontiguousarray(Y, dtype=np.float64)
        key = (Y.shape, Y.tobytes())
        U = self._by_y.get(key)
        if U is None:
            U = self._by_y[key] = self.disc.solve_at(Y)
            U.flags.writeable = False
        return U


# ---------------------------------------------------------------------------
# built-in problem library


def _const(c):
    c = float(c)
    return lambda x: np.full_like(np.asarray(x, dtype=np.float64), c)


def _amplitudes(dim, spec):
    if "amps" in spec:
        amps = [float(v) for v in spec["amps"]]
        if len(amps) != dim:
            raise ValueError("amps must have %d entries" % dim)
        return amps
    gamma = float(spec.get("gamma", 0.9))
    sigma = float(spec.get("sigma", 2.0))
    return [gamma * (m + 1) ** (-sigma) for m in range(dim)]


def build_problem(spec):
    """Construct a DiffusionProblem from a plain config mapping.

    Families: "cosine" with a_m(x) = amp_m * cos(m pi x); "constant"
    with a_m(x) = amp_m; "inclusion" with amp_m on the m-th of M equal
    subintervals.  Amplitudes come from an explicit "amps" list or the
    decay amp_m = gamma * m**(-sigma).  The load is constant or
    amp * sin(pi x).
    """
    spec = dict(spec)
    dim = int(spec.get("M", 2))
    if dim < 0:
        raise ValueError("M must be non-negative")
    family = str(spec.get("family", "cosine")).lower()
    a0 = float(spec.get("a0", 2.0))
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
    fspec = spec.get("f", 1.0)
    if isinstance(fspec, (int, float)):
        fspec = {"family": "constant", "value": float(fspec)}
    ffam = str(fspec.get("family", "constant")).lower()
    if ffam == "constant":
        f = _const(fspec.get("value", 1.0))
    elif ffam == "sine":
        amp = float(fspec.get("amp", 1.0))
        f = lambda x: amp * np.sin(np.pi * np.asarray(x, dtype=np.float64))
    else:
        raise ValueError("unknown load family %r" % ffam)
    meta = {
        "family": family,
        "M": dim,
        "a0": a0,
        "amps": amps,
        "f": fspec,
    }
    return DiffusionProblem(dim, _const(a0), terms, f, floor=float(spec.get("floor", 0.0)), meta=meta)
