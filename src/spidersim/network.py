"""Star network geometry, coefficient families and their admissibility checks.

The state space is a bundle of I half-lines glued at a single junction.  A
point is a pair (x, i) with x >= 0 and i the ray label in 1..I; every (0, i)
is the same junction point.  Coefficient families b_i, sigma_i depend on
(t, x, l) and the edge-selection weights alpha depend on (t, l), where l is
the junction local time of the process.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import itemgetter
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "CoefficientBounds",
    "CoefficientSet",
    "SamplingPlan",
    "ClauseResult",
    "ValidationReport",
    "TestFunction",
    "TfTerm",
    "ray_partition",
    "per_ray",
    "generator",
    "vertex_operator",
    "validate_coefficients",
    "constant_coefficients",
    "named",
]


class NetworkError(ValueError):
    pass


def named(exc: Exception, *names: str) -> Exception:
    """exc, marked with the arguments of the public call whose values broke
    the precondition it reports, as paths such as "init.t", "cfg.T" or "deltas[1]"."""
    exc.names = names
    return exc


def ray_partition(n_rays: int, edge) -> list[np.ndarray]:
    """Row indices of each ray e = 1..n_rays in the labels edge, in row order."""
    return [np.flatnonzero(edge == e) for e in range(1, n_rays + 1)]


def per_ray(parts: Sequence[np.ndarray], fn: Callable, *args) -> np.ndarray:
    """Row-wise fn(edge, *args) for a batch that mixes rays.

    parts is the batch's ray_partition: fn(e, *rows) is called once for each
    ray e that has rows, on those rows of args; the results are gathered
    into a float64 array with one entry per row.  A partition whose row
    counts do not sum to the batch size (a label outside 1..I) is an error.
    """
    n = np.shape(args[0])[0]
    covered = sum(rows.size for rows in parts)
    if covered != n:
        raise NetworkError(f"ray partition covers {covered} of {n} rows "
                           f"(a ray label outside 1..{len(parts)}?)")
    out = np.empty(n)
    for e, rows in enumerate(parts, 1):
        if rows.size:
            out[rows] = fn(e, *(a[rows] for a in args))
    return out


@dataclass(frozen=True)
class CoefficientBounds:
    """Admissibility constants: floor for alpha, floor for sigma, and the
    sup/Lipschitz ceilings for b, sigma, alpha."""

    a_lower: float
    sigma_lower: float
    b_bound: float
    sigma_bound: float
    alpha_lip: float

    def __post_init__(self):
        if not (0 < self.sigma_lower <= self.sigma_bound):
            raise NetworkError("need 0 < sigma_lower <= sigma_bound")
        if self.a_lower <= 0:
            raise NetworkError("need a_lower > 0")


def _row_evaluator(fns):
    """One evaluator fn(edge, t, x, l) of 1-d rows on mixed rays for the I
    evaluators fns of a coefficient: a table lookup when every fns[e] is a
    number, the fused pass when fns are compiled expressions, each keeping
    its tree as fn.node, whose trees fuse across the rays; else None."""
    if not any(map(callable, fns)):
        table = np.array(fns, dtype=np.float64)
        return lambda edge, t, x, l: table[edge - 1]
    if not all(hasattr(f, "node") for f in fns):
        return None
    from .coeffexpr import _fuse  # coeffexpr imports this module
    return _fuse(tuple(f.node for f in fns))


def _evaluate(fn, t, x, l) -> np.ndarray:
    """fn(t, x, l) as a float64 array; a number fn is a constant coefficient."""
    if callable(fn):
        return np.asarray(fn(t, x, l), dtype=np.float64)
    return np.full(np.broadcast_shapes(np.shape(t), np.shape(x), np.shape(l)), fn, float)


@dataclass(frozen=True)
class CoefficientSet:
    """Per-edge drift/diffusion evaluators and the edge-selection weights.

    b[e] and sigma[e] map (t, x, l) -> real (a number is a constant).  alpha
    is either I numbers, the weights of a constant family, or maps 1-d
    arrays t and l of n points to an (n, I) array of weights.  Evaluators
    must be pure and accept numpy arrays.  alpha_table holds the I weights
    when they are numbers, and is None otherwise.  b_rows (sigma_rows) maps
    1-d rows (edge, t, x, l) on mixed rays to the values of b (sigma) in one
    call, or to None where it cannot vouch for them: a table lookup when b
    (sigma) is numbers, one pass when it is compiled expressions whose
    trees fuse (coeffexpr._fuse); it is None otherwise (_row_evaluator).
    """

    I: int
    b: tuple[Callable | float, ...]
    sigma: tuple[Callable | float, ...]
    alpha: Callable | tuple[float, ...]
    bounds: CoefficientBounds
    validation: "ValidationReport | None" = field(default=None, compare=False)
    b_rows: Callable | None = field(init=False, repr=False, compare=False)
    sigma_rows: Callable | None = field(init=False, repr=False, compare=False)
    alpha_table: np.ndarray | None = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.I < 2:
            raise NetworkError(f"need at least two edges, got I={self.I}")
        if len(self.b) != self.I or len(self.sigma) != self.I:
            raise NetworkError("need one b and one sigma evaluator per edge")
        for name in ("b", "sigma"):
            object.__setattr__(self, f"{name}_rows", _row_evaluator(getattr(self, name)))
        table = None if callable(self.alpha) else np.array(self.alpha, dtype=np.float64)
        if table is not None and table.shape != (self.I,):
            raise NetworkError(f"alpha table has shape {table.shape}, expected ({self.I},)")
        object.__setattr__(self, "alpha_table", table)

    def drift(self, edge, t, x, l, parts=None):
        """b on ray edge at (t, x, l), or row-wise (see _rows)."""
        return self._rows(self.b, self.b_rows, edge, t, x, l, parts)

    def diffusion(self, edge, t, x, l, parts=None):
        """sigma on ray edge at (t, x, l), or row-wise (see _rows)."""
        return self._rows(self.sigma, self.sigma_rows, edge, t, x, l, parts)

    def _rows(self, fns, rows, edge, t, x, l, parts):
        """fns[edge - 1](t, x, l) for one ray edge.  For 1-d rows with one ray
        label each, every label in 1..I (a row-wise evaluator reads label 0
        as ray I unchecked): one call of rows, else (or where it returns
        None) per_ray on the rows' ray_partition, which parts() returns when
        given (called only here) and which is built here otherwise."""
        if np.ndim(edge) == 0:
            return _evaluate(fns[edge - 1], t, x, l)
        out = None if rows is None else rows(edge, t, x, l)
        if out is None:
            out = per_ray(ray_partition(self.I, edge) if parts is None else parts(),
                          lambda e, *a: _evaluate(fns[e - 1], *a), t, x, l)
        return out

    def alpha_matrix(self, t, l) -> np.ndarray:
        """Weights at the n points of t and l (0-d or 1-d, broadcast
        together): (n, I), or the (I,) row for scalars.  A table is
        broadcast; an evaluator gets two 1-d arrays and must return (n, I)
        (no transposition guessing, which is ambiguous when n == I)."""
        t = np.asarray(t, dtype=np.float64)
        l = np.asarray(l, dtype=np.float64)
        if t.shape != l.shape:
            t, l = np.broadcast_arrays(t, l)
        scalar = t.ndim == 0
        t, l = t.ravel(), l.ravel()
        if self.alpha_table is not None:
            out = np.broadcast_to(self.alpha_table, (t.size, self.I))
        else:
            out = np.asarray(self.alpha(t, l), dtype=np.float64)
            if out.shape != (t.size, self.I):
                raise NetworkError(
                    f"alpha evaluator returned shape {out.shape}, expected ({t.size}, {self.I})")
        return out[0] if scalar else out


def constant_coefficients(
    I: int,
    sigma: float | Sequence[float] = 1.0,
    b: float | Sequence[float] = 0.0,
    alpha: Sequence[float] | None = None,
    bounds: CoefficientBounds | None = None,
) -> CoefficientSet:
    """Constant-coefficient set: b, sigma and alpha are numbers, so all three have tables."""
    sig = np.broadcast_to(np.asarray(sigma, dtype=float), (I,)).copy()
    drift = np.broadcast_to(np.asarray(b, dtype=float), (I,)).copy()
    if alpha is None:
        alpha = np.full(I, 1.0 / I)
    al = np.asarray(alpha, dtype=float)
    if abs(al.sum() - 1.0) > 1e-12 or not np.all(al >= 0):
        raise NetworkError("alpha must be nonnegative and sum to 1")
    if bounds is None:
        bounds = CoefficientBounds(
            a_lower=max(min(al) * 0.9, 1e-9),
            sigma_lower=min(sig) * 0.9,
            b_bound=max(np.max(np.abs(drift)), 1e-9),
            sigma_bound=max(sig),
            alpha_lip=1e-9,
        )

    return CoefficientSet(
        I=I,
        b=tuple(drift.tolist()),
        sigma=tuple(sig.tolist()),
        alpha=tuple(al.tolist()),
        bounds=bounds,
    )


@dataclass(frozen=True)
class SamplingPlan:
    """Grid over (t, x, l) on which the admissibility clauses are sampled."""

    t: np.ndarray
    x: np.ndarray
    l: np.ndarray

    @staticmethod
    def default(T: float = 1.0, x_max: float = 4.0, l_max: float = 4.0, n: int = 9) -> "SamplingPlan":
        return SamplingPlan(
            t=np.linspace(0.0, T, n),
            x=np.linspace(0.0, x_max, n),
            l=np.linspace(0.0, l_max, n),
        )


@dataclass(frozen=True)
class ClauseResult:
    """A clause of validate_coefficients: passed, the worst sampled value
    against limit, and where it is.  A: the smallest weight at (t, l, ray),
    or minus the largest |row sum - 1| at (t, l) when it exceeds 1e-12.
    E: the smallest sigma at (ray, t, x, l).  R-i, R-ii, R-iii: the largest
    sup or |difference quotient| of b, sigma, alpha: at ("sup", ray) or
    (axis, ray, (i_t, i_x, i_l)), for alpha at (axis, i_t, i_l, ray - 1); a
    quotient is at its lower sample, and () means none above 0."""

    name: str
    passed: bool
    worst: float
    limit: float
    where: tuple


@dataclass(frozen=True)
class ValidationReport:
    clauses: tuple[ClauseResult, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.clauses)

    def clause(self, name: str) -> ClauseResult:
        return {c.name: c for c in self.clauses}[name]


def _steepest(field, axes, worst=0.0, where=(), at=lambda name, idx: (name, *idx)):
    """The largest |difference quotient| of a sampled field along its named
    axes ((name, coords) per axis, in order), and where it is: at(name, the
    index of the quotient's lower sample).  It starts from worst at where; a
    quotient replaces them only when larger, so a tie keeps the earlier."""
    for axis, (name, coords) in enumerate(axes):
        if field.shape[axis] > 1:
            q = np.abs(np.diff(field, axis=axis))
            q /= np.diff(coords).reshape((-1,) + (1,) * (field.ndim - axis - 1))
            idx = np.unravel_index(np.argmax(q), q.shape)
            if q[idx] > worst:
                worst, where = float(q[idx]), at(name, idx)
    return worst, where


def validate_coefficients(c: CoefficientSet, plan: SamplingPlan | None = None) -> ValidationReport:
    """Sampled check of the admissibility clauses.

    (A): alpha sums to one and every weight is >= a_lower.
    (E): every sigma_i >= sigma_lower.
    (R-i)/(R-ii): sup and difference quotients of b_i / sigma_i within bounds.
    (R-iii): difference quotients of alpha within alpha_lip.

    alpha is sampled once, on the (t, l) grid; b_i and sigma_i on the
    (t, x, l) grid.  Passing is monotone in the plan: more sample points can
    only move a clause from pass to fail.
    """
    if plan is None:
        plan = SamplingPlan.default()
    tg, xg, lg = plan.t, plan.x, plan.l
    if not (tg.size and xg.size and lg.size):
        raise NetworkError("sampling plan is empty")
    bounds = c.bounds

    # -- clause (A) and, reshaped to (t, l, ray), (R-iii): alpha on the (t, l) grid
    tt, ll = (a.ravel() for a in np.meshgrid(tg, lg, indexing="ij"))
    amat = c.alpha_matrix(tt, ll)
    devs = np.abs(amat.sum(axis=1) - 1.0)
    sums_ok = float(np.max(devs)) <= 1e-12
    if sums_ok:  # the smallest weight, at (t, l, ray)
        row, ray = np.unravel_index(np.argmin(amat), amat.shape)
        a_min = (float(np.min(amat)), (float(tt[row]), float(ll[row]), int(ray) + 1))
    else:  # minus the largest deviation of a row sum from one, at (t, l)
        row = int(np.argmax(devs))
        a_min = (-float(np.max(devs)), (float(tt[row]), float(ll[row])))

    # -- clauses (E), (R-i), (R-ii): each ray's b and sigma on the (t, x, l) grid
    T3, X3, L3 = np.meshgrid(tg, xg, lg, indexing="ij")
    axes = (("t", tg), ("x", xg), ("l", lg))
    first = itemgetter(0)  # min and max keep the earliest of equal values
    sig_min, q_b, q_sigma = (np.inf, ()), (0.0, ()), (0.0, ())  # (worst, where) pairs
    for e in range(1, c.I + 1):
        bf, sf = c.drift(e, T3, X3, L3), c.diffusion(e, T3, X3, L3)
        i, j, k = np.unravel_index(np.argmin(sf), sf.shape)
        sig_min = min(sig_min, (float(np.min(sf)), (e, float(tg[i]), float(xg[j]), float(lg[k]))), key=first)
        at = lambda name, idx: (name, e, idx)
        q_b = max(q_b, _steepest(bf, axes, float(np.max(np.abs(bf))), ("sup", e), at), key=first)
        q_sigma = max(q_sigma, _steepest(sf, axes, float(np.max(np.abs(sf))), ("sup", e), at), key=first)
    q_alpha = _steepest(amat.reshape(tg.size, lg.size, c.I), (("t", tg), ("l", lg)))
    return ValidationReport(clauses=(
        ClauseResult("A", sums_ok and a_min[0] >= bounds.a_lower, a_min[0], bounds.a_lower, a_min[1]),
        ClauseResult("E", sig_min[0] >= bounds.sigma_lower, sig_min[0], bounds.sigma_lower, sig_min[1]),
        ClauseResult("R-i", q_b[0] <= bounds.b_bound, q_b[0], bounds.b_bound, q_b[1]),
        ClauseResult("R-ii", q_sigma[0] <= bounds.sigma_bound, q_sigma[0], bounds.sigma_bound, q_sigma[1]),
        ClauseResult("R-iii", q_alpha[0] <= bounds.alpha_lip, q_alpha[0], bounds.alpha_lip, q_alpha[1])))


# ---------------------------------------------------------------------------
# test functions with analytic derivatives
# ---------------------------------------------------------------------------


def _poly_val(coeffs: tuple[float, ...], z):
    """Horner from the leading coefficient, updated in place.

    The first step is c_n z + c_(n-1), the same value as a fill with c_n
    times z, without the fill: measured 7.1 -> 5.4 us at 1000 points and
    6.6 -> 2-3 us at the scalar x = 0 of the vertex operator (degree 2,
    2-core x86_64 host).
    """
    z = np.asarray(z, dtype=np.float64)
    if len(coeffs) == 1:
        return np.full(z.shape, coeffs[0], dtype=np.float64)
    out = z * coeffs[-1]
    out += coeffs[-2]
    for c in coeffs[-3::-1]:
        out *= z
        out += c
    return out


def _poly_der(coeffs: tuple[float, ...]) -> tuple[float, ...]:
    return tuple(k * c for k, c in enumerate(coeffs))[1:] or (0.0,)


@dataclass(frozen=True)
class TfTerm:
    """One product term: edge weight * P(x) * Q(l) * tau(t).

    tau is either a polynomial in t (time_poly) or sin(omega*t + phase).
    If the edge weights are not all equal, P must vanish at the vertex so
    the full function stays continuous there.
    """

    edge_coeffs: tuple[float, ...]
    x_poly: tuple[float, ...]
    l_poly: tuple[float, ...] = (1.0,)
    time_poly: tuple[float, ...] | None = None
    sin_omega: float | None = None
    sin_phase: float = 0.0

    def __post_init__(self):
        if self.time_poly is None and self.sin_omega is None:
            object.__setattr__(self, "time_poly", (1.0,))
        if self.time_poly is not None and self.sin_omega is not None:
            raise NetworkError("term takes either time_poly or sin_omega, not both")
        if len(set(self.edge_coeffs)) > 1 and self.x_poly[0] != 0.0:
            raise NetworkError("edge-dependent term must vanish at the vertex (x_poly[0] == 0)")
        # derivative polynomials, indexed by derivative order
        dx1 = _poly_der(self.x_poly)
        object.__setattr__(self, "_weights", np.asarray(self.edge_coeffs, dtype=np.float64))
        object.__setattr__(self, "_x_ders", (self.x_poly, dx1, _poly_der(dx1)))
        object.__setattr__(self, "_l_ders", (self.l_poly, _poly_der(self.l_poly)))
        if self.time_poly is not None:
            object.__setattr__(self, "_t_ders", (self.time_poly, _poly_der(self.time_poly)))

    def _factors(self, t, x, l, dt, dx, dl):
        """P_d(x), Q_d(l) and tau_d(t) for each order d in dx, dl and dt,
        as three dicts keyed by order; the sine phase is computed once."""
        P = {d: _poly_val(self._x_ders[d], x) for d in dx}
        Q = {d: _poly_val(self._l_ders[d], l) for d in dl}
        if self.time_poly is not None:
            return P, Q, {d: _poly_val(self._t_ders[d], t) for d in dt}
        phase = self.sin_omega * np.asarray(t, dtype=np.float64) + self.sin_phase
        return P, Q, {d: self.sin_omega * np.cos(phase) if d else np.sin(phase) for d in dt}


@dataclass(frozen=True)
class TestFunction:
    """Smooth function on the network with analytic partial derivatives.

    Built from finite sums of separable terms, so d/dt, d/dx, d2/dx2 and
    d/dl are exact.  The vertex value and the vertex l-derivative are
    edge-independent by construction.
    """

    __test__ = False  # not a pytest class

    I: int
    terms: tuple[TfTerm, ...]

    def __post_init__(self):
        for term in self.terms:
            if len(term.edge_coeffs) != self.I:
                raise NetworkError("every term needs one coefficient per edge")

    def _terms(self, t, x, l, orders):
        """Per term: its edge weights and the factors that the partials in
        orders ((dt, dx, dl) triples) use, each evaluated once."""
        dt, dx, dl = ({o[k] for o in orders} for k in range(3))
        for term in self.terms:
            yield term._weights, *term._factors(t, x, l, dt, dx, dl)

    def _acc(self, edge, t, x, l, *orders):
        """Sum over the terms of each partial in orders, in one pass.

        A partial (dt, dx, dl) sums ((w * P_dx(x)) * Q_dl(l)) * tau_dt(t)
        term by term from 0.0.
        """
        edge = np.asarray(edge)
        sums = [0.0] * len(orders)
        for weights, P, Q, tau in self._terms(t, x, l, orders):
            w = weights[edge - 1]
            for k, (n_t, n_x, n_l) in enumerate(orders):
                sums[k] = sums[k] + ((w * P[n_x]) * Q[n_l]) * tau[n_t]
        return sums

    def value(self, edge, t, x, l):
        return self._acc(edge, t, x, l, (0, 0, 0))[0]

    def dt(self, edge, t, x, l):
        return self._acc(edge, t, x, l, (1, 0, 0))[0]

    def dx(self, edge, t, x, l):
        return self._acc(edge, t, x, l, (0, 1, 0))[0]

    def dxx(self, edge, t, x, l):
        return self._acc(edge, t, x, l, (0, 2, 0))[0]

    def dl(self, edge, t, x, l):
        return self._acc(edge, t, x, l, (0, 0, 1))[0]

    # vertex views (edge-independent where the class guarantees it)

    def dl_vertex(self, t, l):
        return self.dl(1, t, np.zeros_like(np.asarray(l, dtype=float)), l)

    def dx_vertex(self, edge, t, l):
        return self.dx(edge, t, np.zeros_like(np.asarray(l, dtype=float)), l)


def generator(f: TestFunction, edge, t, x, l, b, sigma):
    """Ray generator f_t + (1/2) sigma^2 f_xx + b f_x of f, row-wise on rays edge.

    b and sigma are the drift and diffusion of each row's own ray at
    (t, x, l), as step.b and step.sigma of the simulator's Step record.
    """
    f_t, f_xx, f_x = f._acc(edge, t, x, l, (1, 0, 0), (0, 2, 0), (0, 1, 0))
    return (f_t + 0.5 * sigma**2 * f_xx) + b * f_x


def vertex_operator(c: CoefficientSet, f: TestFunction, t, l):
    """Vertex operator f_l + sum_i alpha_i(t, l) d/dx f_i at the junction.

    t and l broadcast against each other; a scalar pair gives a float.
    """
    t, l = np.broadcast_arrays(np.asarray(t, dtype=float), np.asarray(l, dtype=float))
    tt, ll = t.ravel(), l.ravel()
    amat = c.alpha_matrix(tt, ll)
    # f_l on ray 1 and f_x on every ray, all at x = 0, from one pass
    f_l, f_x = 0.0, [0.0] * c.I
    for weights, P, Q, tau in f._terms(tt, 0.0, ll, ((0, 0, 1), (0, 1, 0))):
        f_l = f_l + ((weights[0] * P[0]) * Q[1]) * tau[0]
        f_x = [acc + ((w * P[1]) * Q[0]) * tau[0] for acc, w in zip(f_x, weights)]
    out = f_l
    for e in range(c.I):
        out = out + amat[:, e] * f_x[e]
    return out.reshape(t.shape) if t.shape else float(out[0])
