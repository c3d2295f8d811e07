"""Monte Carlo evaluation of the probabilistic representation

    u_i(t,x,l) = E[ int_t^T h_{i(s)}(s,x(s),l(s)) ds
                    + int_t^T h0(s,l(s)) dl(s) + g_{i(T)}(x(T),l(T)) ]

for the backward system with the local-time vertex coupling, and its
cross-validation against the grid solver.  Time integrals use left-endpoint
quadrature on the simulation grid; the dl integral uses the scheme's own
local-time increments, evaluated at the left endpoint.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .network import CoefficientSet, named, per_ray, ray_partition
from .pde import PdeGrid, PdeProblem, PdeSolution, solve, source_rows
from .simulator import SimConfig, SimulationError, SpiderState, Step, map_path_blocks, run_paths

__all__ = ["FKProblem", "FKEstimate", "FKComparisonRow", "fk_estimate", "fk_vs_pde"]

PAYOFF_CONTINUITY_TOL = 1e-9  # largest payoff jump across the rays at the vertex
RICHARDSON_FACTOR = 1.5       # inflation of the coarse-vs-fine grid gap


@dataclass(frozen=True)
class FKProblem:
    """Running costs per ray, vertex running cost, terminal payoff."""

    g_edge: tuple[Callable, ...]
    h_edge: tuple[Callable, ...] | None = None
    h0: Callable | None = None
    h_bound: float = 10.0

    def check(self, I: int, t0: float, T: float, R: float = 2.0, K: float = 1.0) -> None:
        """Vertex continuity of the payoff and the declared ceiling for the
        running costs, sampled over the run's times [t0, T], x in [0, R] and
        l in [0, K] (fk_vs_pde passes its truncation box)."""
        if len(self.g_edge) != I:
            raise named(ValueError("payoff needs one entry per ray"), "g_edge")
        ls = np.linspace(0.0, 3.0, 13)
        ref = np.asarray(self.g_edge[0](0.0, ls), dtype=float)
        for g in self.g_edge[1:]:
            if np.max(np.abs(np.asarray(g(0.0, ls), dtype=float) - ref)) > PAYOFF_CONTINUITY_TOL:
                raise named(ValueError("terminal payoff is discontinuous at the vertex"),
                            "g_edge")
        if self.h_edge is not None:
            ts = np.linspace(t0, T, 5)
            xs = np.linspace(0.0, R, 5)
            for h in self.h_edge:
                tt, xx, ll = np.meshgrid(ts, xs, np.linspace(0.0, K, 5), indexing="ij")
                vals = np.asarray(h(tt, xx, ll), dtype=float)
                if np.max(np.abs(vals)) > self.h_bound:
                    raise named(ValueError("running cost exceeds its declared bound"),
                                "h_edge", "h_bound")

    def payoff(self, edge_arr: np.ndarray, x: np.ndarray, l: np.ndarray) -> np.ndarray:
        parts = ray_partition(len(self.g_edge), edge_arr)
        return per_ray(parts, lambda e, *a: self.g_edge[e - 1](*a), x, l)

    def running(self, step: Step, c: CoefficientSet) -> np.ndarray:
        """h_i(t, x, l) on each row of step, i the row's ray, for a step of a
        run on c whose rows share one time (a run from one query).  Sources
        built for c (source_rows) are one call over all rows, with the
        step's b and sigma and the time factors computed once, on
        step.t[:1]; other sources go ray by ray on step.parts."""
        if self.h_edge is None:
            return np.zeros_like(step.x)
        rows = source_rows(self.h_edge, c)
        if rows is not None:
            return rows(step.edge, step.t[:1], step.x, step.l, step.b, step.sigma)
        return per_ray(step.parts, lambda e, *a: self.h_edge[e - 1](*a), step.t, step.x, step.l)

    def vertex_cost(self, t, l) -> np.ndarray:
        if self.h0 is None:
            return np.zeros_like(np.asarray(t, dtype=float))
        return np.asarray(self.h0(t, l), dtype=np.float64)


@dataclass(frozen=True)
class FKEstimate:
    t: float
    x: float
    edge: int
    l: float
    mean: float
    stderr: float
    n_paths: int
    seed: int


@dataclass(frozen=True)
class FKComparisonRow:
    query: tuple
    mc_mean: float
    mc_stderr: float
    pde_value: float
    diff: float
    tolerance: float
    grid_budget: float
    passed: bool


def _per_path_values(prob: FKProblem, c: CoefficientSet, init: SpiderState, cfg: SimConfig,
                     lo: int, hi: int) -> np.ndarray:
    acc = np.zeros(hi - lo)

    def on_step(step):
        acc_step = prob.running(step, c) * cfg.h
        if prob.h0 is not None:
            hit = step.dl > 0
            if hit.any():
                acc_step[hit] += prob.vertex_cost(step.t[hit], step.l[hit]) * step.dl[hit]
        np.add(acc, acc_step, out=acc)

    res = run_paths(c, init, cfg, lo, hi, on_step=on_step)
    return acc + prob.payoff(res.edge, res.x, res.l)


def fk_estimate(prob: FKProblem, c: CoefficientSet, query, cfg: SimConfig,
                workers: int = 1) -> FKEstimate:
    """Monte Carlo value of the representation at query = (t, x, edge, l)."""
    init = SpiderState(*query)
    prob.check(c.I, init.t, cfg.T)
    if cfg.n_paths < 2:
        raise named(ValueError("need at least two paths for a standard error"), "cfg.n_paths")
    vals = map_path_blocks(cfg.n_paths, workers,
                           lambda lo, hi: _per_path_values(prob, c, init, cfg, lo, hi))
    mean = float(vals.mean())
    stderr = float(vals.std(ddof=1) / math.sqrt(vals.size))
    return FKEstimate(t=init.t, x=init.x, edge=init.i, l=init.l, mean=mean, stderr=stderr,
                      n_paths=vals.size, seed=cfg.seed)


def fk_vs_pde(prob: FKProblem, c: CoefficientSet, queries: Sequence[tuple],
              cfg: SimConfig, grid: PdeGrid, R: float, K: float,
              psi_edge: tuple[Callable, ...] | None = None,
              workers: int = 1) -> tuple[list[FKComparisonRow], PdeSolution]:
    """Compare the Monte Carlo representation with the grid solver.

    The per-query grid-error budget is the coarse-vs-fine solution gap at
    the query (first-order scheme, so the gap estimates the fine-grid
    error), inflated by RICHARDSON_FACTOR.  A row passes when
    |MC - PDE| <= 3 stderr + budget.  Every query, the grid's coarsening and
    the problem are checked before the solves: FKProblem.check as each
    query's fk_estimate runs it, and on the truncation box from the
    earliest query time.
    """
    for k, q in enumerate(queries):
        if q[0] >= cfg.T or not 1 <= q[2] <= c.I:
            raise named(ValueError(f"query {q} needs t < T = {cfg.T} and a ray in 1..{c.I}"),
                        f"queries[{k}]", "cfg.T")
        if q[1] > 0.9 * R or q[3] > 0.9 * K:
            raise named(ValueError(f"query {q} too close to the truncation boundary"),
                        f"queries[{k}]", "R", "K")
        try:
            cfg.n_steps(q[0])
        except (ValueError, SimulationError) as exc:  # the run's start is this query's t
            raise named(exc, f"queries[{k}][0]", "cfg.T", "cfg.h")
        prob.check(c.I, q[0], cfg.T)
    prob.check(c.I, min((q[0] for q in queries), default=0.0), cfg.T, R, K)
    coarse_grid = grid.coarsened()
    pde_prob = PdeProblem(coefficients=c, T=cfg.T, R=R, K=K, g_edge=prob.g_edge,
                          h_edge=prob.h_edge, h0=prob.h0, psi_edge=psi_edge,
                          direction="backward")
    fine = solve(pde_prob, grid)
    coarse = solve(pde_prob, coarse_grid)
    rows = []
    for q in queries:
        est = fk_estimate(prob, c, q, cfg, workers=workers)
        u_fine, u_coarse = fine.at(*q), coarse.at(*q)
        budget = RICHARDSON_FACTOR * abs(u_fine - u_coarse)
        diff = abs(est.mean - u_fine)
        # rounding floor so exactly-solvable problems do not fail on ulps
        tol = 3.0 * est.stderr + budget + 1e-12 * (1.0 + abs(u_fine))
        rows.append(FKComparisonRow(
            query=q, mc_mean=est.mean, mc_stderr=est.stderr, pde_value=u_fine,
            diff=diff, tolerance=tol, grid_budget=budget, passed=diff <= tol,
        ))
    return rows, fine
