"""Estimators and oracles for the junction local time.

Three grid estimators are provided: the downcrossing count (eps times the
number of completed excursions from eps back to the vertex), the excursion
sum of test-function increments, and the sigma^2-weighted occupation-time
integral over the eps-shell.  The exact reflection-map transform of a
Brownian skeleton serves as the independent oracle for the driftless
unit-diffusion case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from . import rng as _rng
from .network import CoefficientSet, TestFunction, named
from .simulator import SpiderPath, grid_step, map_path_blocks, run_paths

__all__ = [
    "ExcursionDecomposition",
    "LocalTimeEstimate",
    "EstimationError",
    "excursion_decompose",
    "downcrossing_estimate",
    "excursion_functional",
    "occupation_estimate",
    "occupation_batch",
    "skorokhod_oracle",
    "oracle_path",
    "grid_index",
]


class EstimationError(ValueError):
    pass


def grid_index(p: SpiderPath, t: float) -> int:
    """Grid index of query time t on the path (simulator.grid_step)."""
    idx = grid_step(p.t0, p.h, t)
    if idx is None or not 0 <= idx <= p.K:
        raise EstimationError(f"query time {t} is not on the path grid")
    return idx


@dataclass(frozen=True)
class ExcursionDecomposition:
    """Alternating indices of eps-upcrossings and vertex returns.

    theta[n] is the first grid index at or above eps after tau[n-1];
    tau[n] is the first vertex contact strictly after theta[n].  theta may
    be one entry longer than tau when the final excursion is incomplete.
    """

    eps: float
    theta: np.ndarray
    tau: np.ndarray

    def __post_init__(self):
        if self.tau.size not in (self.theta.size, self.theta.size - 1) and self.theta.size:
            raise EstimationError("indices do not interleave")

    def count(self, query_idx: int) -> int:
        """Number of completed downcrossings inside [0, query_idx]."""
        return int(np.searchsorted(self.tau, query_idx, side="right"))


@dataclass(frozen=True)
class LocalTimeEstimate:
    method: str
    value: float
    eps: float
    t: float

    def __post_init__(self):
        if self.value < 0:
            raise EstimationError("local-time estimate must be nonnegative")


def excursion_decompose(p: SpiderPath, eps: float) -> ExcursionDecomposition:
    """Grid decomposition of the path into eps-excursions from the vertex.

    Upcrossings are detected as the first index with x >= eps, vertex
    returns via the contact flags recorded by the scheme (exact zeros for
    the reflection-map oracle).
    """
    if not eps > p.delta_activity:  # also catches NaN
        raise named(EstimationError(
            f"eps = {eps} must exceed the vertex-activity radius {p.delta_activity:.3g}"), "eps")
    above = np.flatnonzero(p.x >= eps)
    contacts = np.flatnonzero(p.contact | (p.x == 0.0))
    thetas: list[int] = []
    taus: list[int] = []
    cur = 0
    while True:
        a = np.searchsorted(above, cur, side="left")
        if a == above.size:
            break
        th = int(above[a])
        thetas.append(th)
        b = np.searchsorted(contacts, th + 1, side="left")
        if b == contacts.size:
            break
        ta = int(contacts[b])
        taus.append(ta)
        cur = ta + 1
    return ExcursionDecomposition(
        eps=eps,
        theta=np.asarray(thetas, dtype=np.int64),
        tau=np.asarray(taus, dtype=np.int64),
    )


def downcrossing_estimate(p: SpiderPath, eps: float, t: float) -> LocalTimeEstimate:
    """eps times the number of completed eps-to-vertex downcrossings by t."""
    dec = excursion_decompose(p, eps)
    n = dec.count(grid_index(p, t))
    return LocalTimeEstimate(method="downcrossing", value=eps * n, eps=eps, t=t)


def excursion_functional(p: SpiderPath, f: TestFunction, eps: float, t: float) -> float:
    """Sum over completed downcrossings of the f-increment from the vertex
    return to the next eps-upcrossing.

    The n-th term is f at the (n+1)-th upcrossing minus f at the n-th
    return, with f evaluated at the nominal levels (x = eps at upcrossings,
    x = 0 at returns).  The trailing upcrossing may fall after t; a term
    whose upcrossing never happens on the stored grid is dropped.  Returns
    0 when no downcrossing completed by t.
    """
    dec = excursion_decompose(p, eps)
    n_count = dec.count(grid_index(p, t))
    if n_count < 1:
        return 0.0
    times = p.times()
    total = 0.0
    for n in range(1, n_count + 1):
        if n >= dec.theta.size:
            break
        th = int(dec.theta[n])
        ta = int(dec.tau[n - 1])
        total += float(f.value(int(p.edge[th]), times[th], eps, p.l[th]))
        total -= float(f.value(int(p.edge[ta]), times[ta], 0.0, p.l[ta]))
    return total


def _shell_rays(c: CoefficientSet, eps: float, edges: Iterable[int] | None) -> np.ndarray:
    """selected[e] is True for the rays e of the subset (all rays for None); eps > 0 is finite."""
    if not 0.0 < eps < math.inf:  # also catches NaN
        raise named(EstimationError(f"eps = {eps!r} must be positive and finite"), "eps")
    subset = sorted(set(range(1, c.I + 1) if edges is None else (int(e) for e in edges)))
    if not subset or any(e < 1 or e > c.I for e in subset):
        raise EstimationError(f"edge subset {tuple(subset)} invalid for I={c.I}")
    selected = np.zeros(c.I + 1, dtype=bool)
    selected[subset] = True
    return selected


def _shell_integrand(c: CoefficientSet, selected: np.ndarray, eps: float, times, x, edge, l):
    """Indices of the rows inside the eps-shell on a selected ray, in order,
    and sigma_i^2(t, 0, l) on them, with times(rows) the times of those rows."""
    rows = np.flatnonzero(x <= eps)
    rows = rows[selected[edge[rows]]]
    return rows, c.diffusion(edge[rows], times(rows), np.zeros(rows.size), l[rows]) ** 2


def occupation_estimate(p: SpiderPath, c: CoefficientSet, eps: float, t: float,
                        edges: Iterable[int] | None = None) -> LocalTimeEstimate:
    """Shell occupation integral (1/2 eps) sum_j int sigma_j^2(s,0,l) 1{x<=eps, i=j} ds.

    With all edges this estimates the junction local time; with a strict
    subset it estimates the alpha-weighted share of the selected rays.
    """
    selected = _shell_rays(c, eps, edges)
    idx = grid_index(p, t)
    rows, sig2 = _shell_integrand(c, selected, eps, lambda rows: p.t0 + p.h * rows,
                                  p.x[:idx], p.edge[:idx], p.l[:idx])
    ray = p.edge[rows]
    total = 0.0
    for e in np.flatnonzero(selected):  # one sum per ray, in ray order
        total += float(np.sum(sig2[ray == e])) * p.h
    return LocalTimeEstimate(method="occupation", value=total / (2.0 * eps), eps=eps, t=t)


def occupation_batch(c: CoefficientSet, init, cfg, eps: float,
                     edges: Iterable[int] | None = None,
                     workers: int = 1) -> np.ndarray:
    """Streaming shell-occupation values for cfg.n_paths simulated paths.

    Equivalent to occupation_estimate at the horizon on stored paths, but
    accumulated on the fly so large ensembles never materialize.
    """
    selected = _shell_rays(c, eps, edges)

    def block(lo, hi):
        acc = np.zeros(hi - lo)

        def on_step(step):
            rows, sig2 = _shell_integrand(c, selected, eps, lambda rows: step.t[rows],
                                          step.x, step.edge, step.l)
            acc[rows] += sig2 * cfg.h

        run_paths(c, init, cfg, lo, hi, on_step=on_step)
        return acc / (2.0 * eps)

    return map_path_blocks(cfg.n_paths, workers, block)


def skorokhod_oracle(gaussians: np.ndarray, h: float, T: float,
                     x0: float = 0.0) -> tuple[SpiderPath, np.ndarray]:
    """Exact reflection map of a Brownian skeleton (driftless, unit sigma).

    The skeleton is y_k = x0 + sum sqrt(h) g_j; the reflected path is
    y_k - min(0, min_{j<=k} y_j) and the regulator -min(0, min y) is the
    exact grid local time.  Returns the path (single ray) and its local
    time array.
    """
    g = np.asarray(gaussians, dtype=np.float64)
    K = grid_step(0.0, h, T)
    if K is None:
        raise named(EstimationError("T must be a whole number of steps"), "T")
    if g.shape != (K,):
        raise EstimationError(f"need {K} increments, got {g.shape}")
    y = np.empty(K + 1)
    y[0] = x0
    np.cumsum(g * math.sqrt(h), out=y[1:])
    y[1:] += x0
    m = np.minimum(np.minimum.accumulate(y), 0.0)
    x = y - m
    l = -m
    path = SpiderPath(
        t0=0.0, h=h, x=x, edge=np.ones(K + 1, dtype=np.int64), l=l,
        contact=x == 0.0, gauss=g.copy(), delta_shell=0.0, sigma_bound=1.0,
    )
    return path, l


def oracle_path(seed: int, path_index: int, h: float, T: float,
                x0: float = 0.0) -> tuple[SpiderPath, np.ndarray]:
    """Reflection-map oracle driven by the counter-based stream of one path."""
    K = grid_step(0.0, h, T) or 0  # off the grid, skorokhod_oracle raises
    g = _rng.gaussians(seed, np.full(K, path_index, dtype=np.uint64),
                       np.arange(K, dtype=np.uint64))
    return skorokhod_oracle(g, h, T, x0=x0)
