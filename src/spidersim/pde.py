"""Finite-difference solver for the parabolic system on the star network
with the local-time coupling at the junction.

The backward problem solved here is, per ray,

    du/dt + (1/2) sigma_i^2 d2u/dx2 + b_i du/dx - c_i u + h_i = 0

on (0,T) x (0,R) x (0,K), with a shared vertex value u(t,0,l), the vertex
relation  du/dl(t,0,l) + sum_i alpha_i(t,l) du_i/dx(t,0,l) + h0(t,l) = 0,
a homogeneous Neumann condition at x = R, terminal data u(T,x,l) = g_i(x,l)
and Dirichlet data on the l = K slice.  The l-slices are marched downward
from K: the one-sided dl difference ties slice p to the already-known slice
p+1, and within a slice each implicit time step yields one tridiagonal
system per ray plus a single bordered vertex row, eliminated by a Schur
complement.  Forward problems are the time reversal (initial data, time
marching up), with the same vertex treatment.

When no data is supplied on the l = K slice it is closed by dropping the
dl term from the vertex relation, which is exact whenever the data do not
depend on l; choose K large enough that the junction local time exceeds K
only with negligible probability.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .network import CoefficientSet, TestFunction, generator, vertex_operator

__all__ = [
    "PdeProblem",
    "PdeGrid",
    "PdeSolution",
    "PdeError",
    "solve",
    "residual",
    "default_truncation",
    "manufactured_backward",
    "flat_profile_poly",
]


class PdeError(RuntimeError):
    pass


def _zero3(t, x, l):
    return np.zeros(np.broadcast_shapes(np.shape(t), np.shape(x), np.shape(l)))


def _zero2(a, b):
    return np.zeros(np.broadcast_shapes(np.shape(a), np.shape(b)))


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
        if self.h_edge is None:
            return _zero3(t, x, l)
        return np.asarray(self.h_edge[edge - 1](t, x, l), dtype=np.float64)

    def vertex_source(self, t, l):
        if self.h0 is None:
            return _zero2(t, l)
        return np.asarray(self.h0(t, l), dtype=np.float64)

    def zeroth(self, edge: int, t, x, l):
        if self.c_edge is None:
            return _zero3(t, x, l)
        return np.asarray(self.c_edge[edge - 1](t, x, l), dtype=np.float64)

    def data_slice(self, edge: int, x, l):
        return np.asarray(self.g_edge[edge - 1](x, l), dtype=np.float64)

    def compatibility_gap(self, n_samples: int = 21, step: float = 1e-5) -> float:
        """Largest violation of the corner relation between the data slice
        and the vertex coupling, sampled in l (backward problems)."""
        if self.direction != "backward":
            return 0.0
        ls = np.linspace(0.0, self.K * (1 - 1e-9), n_samples)
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
            raise PdeError("need at least two cells per axis")

    def axes(self, problem: PdeProblem):
        return (
            np.linspace(0.0, problem.T, self.M + 1),
            np.linspace(0.0, problem.R, self.J + 1),
            np.linspace(0.0, problem.K, self.P + 1),
        )

    def refined(self) -> "PdeGrid":
        return PdeGrid(self.M * 2, self.J * 2, self.P * 2)

    def coarsened(self) -> "PdeGrid":
        if self.M % 2 or self.J % 2 or self.P % 2:
            raise PdeError("grid not coarsenable")
        return PdeGrid(self.M // 2, self.J // 2, self.P // 2)


@dataclass
class PdeSolution:
    values: np.ndarray        # (I, M+1, J+1, P+1); identical across rays at j=0
    grid: PdeGrid
    problem: PdeProblem
    warnings: list[str] = field(default_factory=list)

    @property
    def vertex(self) -> np.ndarray:
        return self.values[0, :, 0, :]

    def at(self, t: float, x: float, edge: int, l: float) -> float:
        """Trilinear interpolation on one ray."""
        tg, xg, lg = self.grid.axes(self.problem)
        u = self.values[edge - 1]

        def locate(grid, v):
            v = min(max(v, grid[0]), grid[-1])
            k = min(int(np.searchsorted(grid, v, side="right")) - 1, grid.size - 2)
            w = (v - grid[k]) / (grid[k + 1] - grid[k])
            return k, w

        mi, wt = locate(tg, t)
        ji, wx = locate(xg, x)
        pi, wl = locate(lg, l)
        out = 0.0
        for dm, wm in ((0, 1 - wt), (1, wt)):
            for dj, wj in ((0, 1 - wx), (1, wx)):
                for dp, wp in ((0, 1 - wl), (1, wl)):
                    out += wm * wj * wp * u[mi + dm, ji + dj, pi + dp]
        return float(out)


def default_truncation(c: CoefficientSet, T: float, x_query: float = 0.0) -> tuple[float, float]:
    """Domain ceilings: reach of the dominant diffusion in x, and in l."""
    return (x_query + 4.0 * c.bounds.sigma_bound * math.sqrt(T),
            4.0 * math.sqrt(T))


def _thomas(lower, diag, upper, rhs_cols):
    """Tridiagonal solve with several right-hand sides (plain sweeps)."""
    n = len(diag)
    ncol = len(rhs_cols)
    cp = [0.0] * n
    dps = [[0.0] * n for _ in range(ncol)]
    beta = diag[0]
    if beta == 0.0:
        raise PdeError("singular tridiagonal system")
    cp[0] = upper[0] / beta
    for s in range(ncol):
        dps[s][0] = rhs_cols[s][0] / beta
    for k in range(1, n):
        beta = diag[k] - lower[k] * cp[k - 1]
        if beta == 0.0:
            raise PdeError("singular tridiagonal system")
        cp[k] = upper[k] / beta
        for s in range(ncol):
            dps[s][k] = (rhs_cols[s][k] - lower[k] * dps[s][k - 1]) / beta
    outs = []
    for s in range(ncol):
        d = dps[s]
        for k in range(n - 2, -1, -1):
            d[k] -= cp[k] * d[k + 1]
        outs.append(d)
    return outs


def solve(problem: PdeProblem, grid: PdeGrid) -> PdeSolution:
    """March the l-slices down from K, solving one implicit time-stepping
    problem on the star per slice; see the module docstring for the scheme.
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
    xs_int = xg[1:]  # interior + far-boundary nodes, j = 1..J

    # data rows in time: terminal slice for backward, initial for forward
    m_data = M if backward else 0
    m_range = range(M - 1, -1, -1) if backward else range(1, M + 1)

    for p in range(P, -1, -1):
        l_val = lg[p]
        for e in range(1, I + 1):
            U[e - 1, m_data, :, p] = problem.data_slice(e, xg, l_val)
        if abs(U[:, m_data, 0, p].max() - U[:, m_data, 0, p].min()) > 1e-9 * (
                1.0 + abs(U[0, m_data, 0, p])):
            raise PdeError("data slice is discontinuous at the vertex")
        top_slice = p == P
        if top_slice and problem.psi_edge is not None:
            for e in range(1, I + 1):
                for m in range(M + 1):
                    U[e - 1, m, :, p] = np.asarray(
                        problem.psi_edge[e - 1](tg[m], xg), dtype=np.float64)
            continue

        for m in m_range:
            t_imp = tg[m]  # level where the spatial operator is enforced
            m_known = m + 1 if backward else m - 1
            ws = []  # particular solutions, j = 1..J
            zs = []  # vertex-influence solutions
            for e in range(1, I + 1):
                sig = np.asarray(c.diffusion(e, t_imp, xs_int, l_val), dtype=float)
                bb = np.asarray(c.drift(e, t_imp, xs_int, l_val), dtype=float)
                cc = np.asarray(problem.zeroth(e, t_imp, xs_int, l_val), dtype=float)
                hh = np.asarray(problem.source(e, t_imp, xs_int, l_val), dtype=float)
                a = 0.5 * sig**2 / dx**2
                bet = bb / (2.0 * dx)
                diag = (1.0 / dt + 2.0 * a + cc).tolist()
                lower = (-(a - bet)).tolist()
                upper = (-(a + bet)).tolist()
                # far boundary: mirror ghost, d/dx = 0
                lower[J - 1] = -2.0 * a[J - 1]
                upper[J - 1] = 0.0
                lower[0] = 0.0
                rhs = (U[e - 1, m_known, 1:, p] / dt + hh).tolist()
                unit = [0.0] * J
                unit[0] = a[0] - bet[0]  # coupling of node 1 to the vertex value
                w, z = _thomas(lower, diag, upper, [rhs, unit])
                ws.append(w)
                zs.append(z)

            amat = np.asarray(c.alpha_matrix(t_imp, l_val), dtype=float)
            h0v = float(problem.vertex_source(t_imp, l_val))
            den = 0.0
            num = -h0v
            for e in range(I):
                den += amat[e] * (zs[e][0] - 1.0) / dx
                num -= amat[e] * ws[e][0] / dx
            if not top_slice:
                den -= 1.0 / dl
                num -= U[0, m, 0, p + 1] / dl
            if abs(den) < 1e-300:
                raise PdeError(f"singular vertex coupling at slice {p}, time index {m}")
            v = num / den
            for e in range(I):
                U[e, m, 0, p] = v
                U[e, m, 1:, p] = np.asarray(ws[e]) + v * np.asarray(zs[e])
    return PdeSolution(values=U, grid=grid, problem=problem, warnings=warnings)


def residual(solution: PdeSolution, problem: PdeProblem | None = None,
             grid: PdeGrid | None = None) -> dict:
    """Discrete stencil residuals of a grid function for this problem.

    Evaluates the same interior, far-boundary and vertex relations the
    solver enforces; on a solved field they vanish to rounding, on an
    exact-solution sample they expose the truncation order.
    """
    problem = problem or solution.problem
    grid = grid or solution.grid
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

    interior = []
    vertex = []
    for p in range(P):
        l_val = lg[p]
        for m in m_levels:
            t_imp = tg[m]
            m_known = m + 1 if backward else m - 1
            for e in range(1, I + 1):
                u_now = U[e - 1, m, :, p]
                u_known = U[e - 1, m_known, :, p]
                sig = np.asarray(c.diffusion(e, t_imp, xg[1:J], l_val), dtype=float)
                bb = np.asarray(c.drift(e, t_imp, xg[1:J], l_val), dtype=float)
                cc = np.asarray(problem.zeroth(e, t_imp, xg[1:J], l_val), dtype=float)
                hh = np.asarray(problem.source(e, t_imp, xg[1:J], l_val), dtype=float)
                # the assembled step reads (u_now - u_known)/dt = spatial
                # operator + source, in both marching directions
                dudt = (u_known[1:J] - u_now[1:J]) / dt
                d2 = (u_now[0:J - 1] - 2.0 * u_now[1:J] + u_now[2:J + 1]) / dx**2
                d1 = (u_now[2:J + 1] - u_now[0:J - 1]) / (2.0 * dx)
                r = dudt + 0.5 * sig**2 * d2 + bb * d1 - cc * u_now[1:J] + hh
                interior.append(r)
            amat = np.asarray(c.alpha_matrix(t_imp, l_val), dtype=float)
            h0v = float(problem.vertex_source(t_imp, l_val))
            flux = sum(amat[e] * (U[e, m, 1, p] - U[e, m, 0, p]) / dx for e in range(I))
            rv = (U[0, m, 0, p + 1] - U[0, m, 0, p]) / dl + flux + h0v
            vertex.append(rv)
    interior = np.concatenate(interior) if interior else np.zeros(1)
    vertex = np.asarray(vertex) if vertex else np.zeros(1)
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
    """
    I = c.I

    def h_for(e):
        def h(t, x, l, _e=e):
            return -generator(c, truth, _e, t, x, l)
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
