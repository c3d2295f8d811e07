"""Finite-difference solver for the parabolic system on the star network
with the local-time coupling at the junction.

The backward problem solved here is, per ray,

    du/dt + (1/2) sigma_i^2 d2u/dx2 + b_i du/dx - c_i u + h_i = 0

on (0,T) x (0,R) x (0,K), with a shared vertex value u(t,0,l), the vertex
relation  du/dl(t,0,l) + sum_i alpha_i(t,l) du_i/dx(t,0,l) + h0(t,l) = 0,
a homogeneous Neumann condition at x = R, terminal data u(T,x,l) = g_i(x,l)
and Dirichlet data on the l = K slice.  Time is marched implicitly from the
data level, one time level at a time.  On a level, every ray of every
l-slice has its own tridiagonal system in x, solved for two right-hand
sides: the particular solution w and the response z to a unit vertex value.
All these systems are swept at once, node by node.  Putting w + v_p z into
the vertex relation of slice p, whose one-sided dl difference ties it to
the slice above, gives d_p v_p = n_p - v_{p+1}/dl, with d_p and n_p made of
the fluxes of z and w and of h0; the vertex values v_p follow from this
scalar recurrence down from the top slice.  Forward problems are the time
reversal (initial data, time marching up), with the same vertex treatment.

When no data is supplied on the l = K slice it is closed by dropping the
dl term from the vertex relation, which is exact whenever the data do not
depend on l; choose K large enough that the junction local time exceeds K
only with negligible probability.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .network import CoefficientSet, TestFunction, generator, named, vertex_operator

__all__ = [
    "PdeProblem",
    "PdeGrid",
    "PdeSolution",
    "PdeError",
    "solve",
    "residual",
    "manufactured_backward",
    "source_rows",
    "flat_profile_poly",
]

# compatibility_gap samples the corner relation at this many l values, with
# this finite-difference step
_GAP_SAMPLES = 21
_GAP_STEP = 1e-5


class PdeError(RuntimeError):
    pass


def _full(value, *args):
    """value as a float array of the broadcast shape of the arguments, so
    callables may return scalars or ignore an argument."""
    return np.broadcast_to(np.asarray(value, dtype=np.float64),
                           np.broadcast_shapes(*map(np.shape, args)))


def _on_rays(fn, I: int, t, x, l) -> np.ndarray:
    """fn(e, t, x, l) for the rays e = 1..I, with x a row and l a column,
    stacked as (node, ray, slice) so that each node is one contiguous row."""
    shape = np.broadcast_shapes(np.shape(x), np.shape(l))
    return np.stack([np.broadcast_to(fn(e, t, x, l), shape) for e in range(1, I + 1)],
                    axis=1).T.copy()


def source_rows(h_edge, c: CoefficientSet) -> Callable | None:
    """The row-wise source rows(edge, t, x, l, b, sigma) that every entry of
    h_edge carries, with b and sigma the drift and diffusion of each row's
    ray, when those entries were built for c itself (manufactured_backward
    builds them); else None, and h_edge is evaluated ray by ray."""
    rows = getattr(h_edge[0], "rows", None) if h_edge else None
    if rows is None or any(getattr(h, "rows", None) is not rows
                           or getattr(h, "coefficients", None) is not c for h in h_edge):
        return None
    return rows


def _source_on_rays(problem: PdeProblem, t, x, l, b, sigma) -> np.ndarray:
    """The sources on the (node, ray, slice) grid of _on_rays, given the
    drift b and diffusion sigma there: one call of the h_edge entries'
    row-wise source, with the ray label on the ray axis, else per ray."""
    c = problem.coefficients
    rows = source_rows(problem.h_edge, c)
    if rows is None:
        return _on_rays(problem.source, c.I, t, x, l)
    edge = np.arange(1, c.I + 1)[None, :, None]
    return rows(edge, t, np.reshape(x, (-1, 1, 1)), np.reshape(l, (1, 1, -1)), b, sigma)


@dataclass(frozen=True)
class PdeProblem:
    """Data block for the star-network parabolic system.

    direction "backward": g is terminal data at t = T; sources h_edge enter
    as + h_i.  direction "forward": g is initial data at t = 0.  psi_edge,
    when given, supplies the Dirichlet slice at l = K as functions of (t, x).
    """

    coefficients: CoefficientSet
    T: float
    R: float
    K: float
    g_edge: tuple[Callable, ...]
    h_edge: tuple[Callable, ...] | None = None
    h0: Callable | None = None
    c_edge: tuple[Callable, ...] | None = None
    psi_edge: tuple[Callable, ...] | None = None
    direction: str = "backward"

    def __post_init__(self):
        if self.direction not in ("backward", "forward"):
            raise PdeError(f"unknown direction {self.direction!r}")
        if self.T <= 0 or self.R <= 0 or self.K <= 0:
            raise PdeError("T, R, K must be positive")
        I = self.coefficients.I
        for name in ("g_edge", "h_edge", "c_edge", "psi_edge"):
            val = getattr(self, name)
            if val is not None and len(val) != I:
                raise PdeError(f"{name} needs one entry per ray")

    def source(self, edge: int, t, x, l):
        return _full(0.0 if self.h_edge is None else self.h_edge[edge - 1](t, x, l), t, x, l)

    def vertex_source(self, t, l):
        return _full(0.0 if self.h0 is None else self.h0(t, l), t, l)

    def zeroth(self, edge: int, t, x, l):
        return _full(0.0 if self.c_edge is None else self.c_edge[edge - 1](t, x, l), t, x, l)

    def data_slice(self, edge: int, x, l):
        return _full(self.g_edge[edge - 1](x, l), x, l)

    def compatibility_gap(self) -> float:
        """Largest violation of the corner relation between the data slice
        and the vertex coupling, sampled in l (backward problems)."""
        if self.direction != "backward":
            return 0.0
        step = _GAP_STEP
        ls = np.linspace(0.0, self.K * (1 - 1e-9), _GAP_SAMPLES)
        t_ref = self.T
        dg_l = (self.data_slice(1, 0.0, ls + step) - self.data_slice(1, 0.0, np.maximum(ls - step, 0.0))) / (
            step + np.minimum(ls, step))
        amat = self.coefficients.alpha_matrix(np.full_like(ls, t_ref), ls)
        flux = np.zeros_like(ls)
        for e in range(1, self.coefficients.I + 1):
            dg_x = (self.data_slice(e, step, ls) - self.data_slice(e, 0.0, ls)) / step
            flux += amat[:, e - 1] * dg_x
        gap = dg_l + flux + self.vertex_source(np.full_like(ls, t_ref), ls)
        return float(np.max(np.abs(gap)))


@dataclass(frozen=True)
class PdeGrid:
    """Uniform nodes: M+1 in time on [0,T], J+1 in space on [0,R] per ray,
    P+1 in local time on [0,K]."""

    M: int
    J: int
    P: int

    def __post_init__(self):
        if min(self.M, self.J, self.P) < 2:
            raise named(PdeError("need at least two cells per axis"),
                        *(f"grid.{a}" for a in "MJP" if getattr(self, a) < 2))

    def axes(self, problem: PdeProblem):
        return (
            np.linspace(0.0, problem.T, self.M + 1),
            np.linspace(0.0, problem.R, self.J + 1),
            np.linspace(0.0, problem.K, self.P + 1),
        )

    def coarsened(self) -> "PdeGrid":
        if self.M % 2 or self.J % 2 or self.P % 2:
            raise named(PdeError("grid not coarsenable"),
                        *(f"grid.{a}" for a in "MJP" if getattr(self, a) % 2))
        return PdeGrid(self.M // 2, self.J // 2, self.P // 2)


@dataclass
class PdeSolution:
    values: np.ndarray        # (I, M+1, J+1, P+1); identical across rays at j=0
    grid: PdeGrid
    problem: PdeProblem
    warnings: list[str] = field(default_factory=list)

    def at(self, t: float, x: float, edge: int, l: float) -> float:
        """Trilinear interpolation on one ray; a point outside the grid is an error."""
        if not 1 <= edge <= self.values.shape[0]:
            raise PdeError(f"ray label {edge} outside 1..{self.values.shape[0]}")
        tg, xg, lg = self.grid.axes(self.problem)
        u = self.values[edge - 1]

        def locate(grid, v, name):
            if not grid[0] <= v <= grid[-1]:
                raise PdeError(f"{name} = {v!r} is outside the grid [{grid[0]!r}, {grid[-1]!r}]")
            k = min(int(np.searchsorted(grid, v, side="right")) - 1, grid.size - 2)
            w = (v - grid[k]) / (grid[k + 1] - grid[k])
            return k, w

        mi, wt = locate(tg, t, "t")
        ji, wx = locate(xg, x, "x")
        pi, wl = locate(lg, l, "l")
        out = 0.0
        for dm, wm in ((0, 1 - wt), (1, wt)):
            for dj, wj in ((0, 1 - wx), (1, wx)):
                for dp, wp in ((0, 1 - wl), (1, wl)):
                    out += wm * wj * wp * u[mi + dm, ji + dj, pi + dp]
        return float(out)


def _sweep(lower, diag, upper, rhs):
    """Thomas sweeps along axis 0 for a batch of tridiagonal systems; rhs
    may carry more right-hand sides on its second axis.  lower[0] and
    upper[-1] are not read."""
    n = len(diag)
    cp = np.empty_like(diag)
    d = np.empty_like(rhs)
    for k in range(n):
        beta = diag[k] - lower[k] * cp[k - 1] if k else diag[0]
        if not beta.all():
            raise PdeError("singular tridiagonal system")
        cp[k] = upper[k] / beta
        d[k] = (rhs[k] - lower[k] * d[k - 1]) / beta if k else rhs[0] / beta
    for k in range(n - 2, -1, -1):
        d[k] -= cp[k] * d[k + 1]
    return d


def solve(problem: PdeProblem, grid: PdeGrid) -> PdeSolution:
    """March time from the data level; on each level sweep the x-systems of
    every ray and l-slice at once, then recur the vertex values down from
    the top slice.  See the module docstring for the scheme.
    """
    c = problem.coefficients
    I = c.I
    M, J, P = grid.M, grid.J, grid.P
    tg, xg, lg = grid.axes(problem)
    dt = tg[1] - tg[0]
    dx = xg[1] - xg[0]
    dl = lg[1] - lg[0]
    backward = problem.direction == "backward"

    warnings: list[str] = []
    if backward:
        gap = problem.compatibility_gap()
        if gap > 10.0 * (dl + dx):
            warnings.append(
                f"corner compatibility violated by {gap:.3g}; the vertex value "
                "near t=T may carry an O(1) kink")

    U = np.empty((I, M + 1, J + 1, P + 1))
    # data rows in time: terminal slice for backward, initial for forward
    m_data = M if backward else 0
    m_range = range(M - 1, -1, -1) if backward else range(1, M + 1)

    for e in range(1, I + 1):
        U[e - 1, m_data] = problem.data_slice(e, xg[:, None], lg)
    vert = U[:, m_data, 0, :]
    if np.any(vert.max(axis=0) - vert.min(axis=0) > 1e-9 * (1.0 + np.abs(vert[0]))):
        raise named(PdeError("data slice is discontinuous at the vertex"), "g_edge")
    # slices solved on each level: all of them, or all below the Dirichlet
    # slice l = K; without that data the top slice drops the dl term
    nP = P + 1
    if problem.psi_edge is not None:
        nP = P
        for e in range(1, I + 1):
            U[e - 1, :, :, P] = problem.psi_edge[e - 1](tg[:, None], xg)
    xs, ls = xg[None, 1:], lg[:nP, None]  # nodes j = 1..J, slices p < nP

    for m in m_range:
        t = tg[m]  # level where the spatial operator is enforced
        m_known = m + 1 if backward else m - 1
        # (node, ray, slice) arrays
        sig = _on_rays(c.diffusion, I, t, xs, ls)
        b = _on_rays(c.drift, I, t, xs, ls)
        a = 0.5 * sig**2 / dx**2
        bet = b / (2.0 * dx)
        diag = 1.0 / dt + 2.0 * a + _on_rays(problem.zeroth, I, t, xs, ls)
        lower = -(a - bet)
        upper = -(a + bet)
        # far boundary: mirror ghost, d/dx = 0
        lower[J - 1] = -2.0 * a[J - 1]
        upper[J - 1] = 0.0
        # right-hand sides of the particular solution w and of the vertex
        # influence z (node 1 couples to the vertex value)
        rhs = np.zeros((J, 2, I, nP))
        rhs[:, 0] = U[:, m_known, 1:, :nP].transpose(1, 0, 2) / dt + _source_on_rays(
            problem, t, xs, ls, b, sig)
        rhs[0, 1] = a[0] - bet[0]
        w, z = _sweep(lower, diag, upper, rhs).transpose(1, 0, 2, 3)

        tl = np.full(nP, t)
        amat = c.alpha_matrix(tl, lg[:nP])
        den = np.zeros(nP)
        num = -problem.vertex_source(tl, lg[:nP])
        for e in range(I):
            den += amat[:, e] * (z[0, e] - 1.0) / dx
            num -= amat[:, e] * w[0, e] / dx
        den[:P] -= 1.0 / dl
        num, den = num.tolist(), den.tolist()
        v = np.empty(nP)
        above = U[0, m, 0, P]  # vertex value of slice p + 1
        for p in range(nP - 1, -1, -1):
            if p < P:
                num[p] -= above / dl
            if abs(den[p]) < 1e-300:
                raise PdeError(f"singular vertex coupling at slice {p}, time index {m}")
            v[p] = above = num[p] / den[p]
        U[:, m, 0, :nP] = v
        U[:, m, 1:, :nP] = (w + v * z).transpose(1, 0, 2)
    return PdeSolution(values=U, grid=grid, problem=problem, warnings=warnings)


def residual(solution: PdeSolution) -> dict:
    """Discrete stencil residuals of solution.values on its own problem and grid.

    Evaluates the rows the solver enforces at nodes 1..J-1 and at the vertex,
    on the slices below l = K (not the Neumann row at node J); on a solved
    field they vanish to rounding, on an exact-solution sample they expose
    the truncation order.
    """
    problem, grid = solution.problem, solution.grid
    c = problem.coefficients
    I = c.I
    M, J, P = grid.M, grid.J, grid.P
    tg, xg, lg = grid.axes(problem)
    dt = tg[1] - tg[0]
    dx = xg[1] - xg[0]
    dl = lg[1] - lg[0]
    backward = problem.direction == "backward"
    U = solution.values
    m_levels = range(M) if backward else range(1, M + 1)
    xs, ls = xg[None, 1:J], lg[:P, None]  # interior nodes, slices below K

    interior = []
    vertex = []
    for m in m_levels:
        t = tg[m]
        m_known = m + 1 if backward else m - 1
        u = U[:, m, :, :P].transpose(1, 0, 2)  # (node, ray, slice)
        u_known = U[:, m_known, 1:J, :P].transpose(1, 0, 2)
        # the assembled step reads (u_now - u_known)/dt = spatial operator
        # + source, in both marching directions
        dudt = (u_known - u[1:J]) / dt
        d2 = (u[0:J - 1] - 2.0 * u[1:J] + u[2:J + 1]) / dx**2
        d1 = (u[2:J + 1] - u[0:J - 1]) / (2.0 * dx)
        sig = _on_rays(c.diffusion, I, t, xs, ls)
        b = _on_rays(c.drift, I, t, xs, ls)
        r = (dudt + 0.5 * sig**2 * d2 + b * d1
             - _on_rays(problem.zeroth, I, t, xs, ls) * u[1:J]
             + _source_on_rays(problem, t, xs, ls, b, sig))
        interior.append(r.ravel())
        tl = np.full(P, t)
        amat = c.alpha_matrix(tl, lg[:P])
        flux = sum(amat[:, e] * (U[e, m, 1, :P] - U[e, m, 0, :P]) / dx for e in range(I))
        vertex.append((U[0, m, 0, 1:] - U[0, m, 0, :P]) / dl + flux
                      + problem.vertex_source(tl, lg[:P]))
    interior = np.concatenate(interior)
    vertex = np.concatenate(vertex)
    return {
        "interior_max": float(np.max(np.abs(interior))),
        "interior_l2": float(np.sqrt(np.mean(interior**2))),
        "vertex_max": float(np.max(np.abs(vertex))),
        "vertex_l2": float(np.sqrt(np.mean(vertex**2))),
    }


def flat_profile_poly(R: float, m: int = 1) -> tuple[float, ...]:
    """Coefficients of x^m - m/((m+1) R) x^(m+1): vanishes at 0, flat at R."""
    coeffs = [0.0] * (m + 2)
    coeffs[m] = 1.0
    coeffs[m + 1] = -m / ((m + 1) * R)
    return tuple(coeffs)


def manufactured_backward(c: CoefficientSet, truth: TestFunction, T: float,
                          R: float, K: float) -> PdeProblem:
    """Build the backward problem whose exact solution is ``truth``.

    Sources are chosen by substitution, the vertex source balances the
    vertex relation, terminal and K-slice data are read off the truth.
    The truth must have a flat x-profile at R for the Neumann condition.
    Each source h_edge[e - 1](t, x, l) is rows(e, t, x, l, b_e, sigma_e)
    with c's drift and diffusion on ray e, for the one row-wise source
    rows = -generator(truth, ...); every entry keeps rows and c as its
    attributes, so that source_rows finds them.
    """
    I = c.I

    def rows(edge, t, x, l, b, sigma):
        return -generator(truth, edge, t, x, l, b, sigma)

    def h_for(e):
        def h(t, x, l, _e=e):
            return rows(_e, t, x, l, c.drift(_e, t, x, l), c.diffusion(_e, t, x, l))
        h.rows, h.coefficients = rows, c
        return h

    def h0(t, l):
        return -vertex_operator(c, truth, t, l)

    def g_for(e):
        def g(x, l, _e=e):
            return truth.value(_e, T, x, l)
        return g

    def psi_for(e):
        def psi(t, x, _e=e):
            return truth.value(_e, t, x, K)
        return psi

    return PdeProblem(
        coefficients=c, T=T, R=R, K=K,
        g_edge=tuple(g_for(e) for e in range(1, I + 1)),
        h_edge=tuple(h_for(e) for e in range(1, I + 1)),
        h0=h0,
        psi_edge=tuple(psi_for(e) for e in range(1, I + 1)),
        direction="backward",
    )
