"""Euler-type path generation for the spider diffusion on the star network.

Interior steps are explicit Euler with coefficients frozen at the left
endpoint.  Vertex visits are handled by a pluggable policy:

* ``reflection`` -- a negative radial proposal y < 0 is placed symmetrically
  at -y and the junction local time is increased by 2*(-y); the ray is
  redrawn from alpha(t, l) at every contact.  The doubled overshoot is what
  makes the stored local time satisfy the same discrete decomposition
  x_{k+1} - x_k = b h + sigma sqrt(h) g + dl as the continuous dynamics; the
  driftless radial law is then exactly |N(0, t)| while E[l at the first
  hitting of delta] / delta -> 1, matching the exact reflection map oracle.

* ``shell`` -- on reaching the vertex the ray is drawn once from
  alpha(t, l), then a reflected radial excursion is run on that ray (same
  step size, same symmetric placement and accrual, no redraws) until the
  first step with x >= delta_shell, where the path is placed at exactly
  delta_shell.

Every random number is a pure function of (seed, path index, step, slot),
so batches are reproducible bit for bit regardless of how the paths are
split across workers.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields, is_dataclass, replace
from typing import Callable

import numpy as np

from . import rng as _rng
from .network import CoefficientSet, per_ray, ray_partition

__all__ = [
    "SpiderState",
    "SimConfig",
    "SpiderPath",
    "BatchResult",
    "FirstHitResult",
    "SimulationError",
    "grid_step",
    "simulate_path",
    "simulate_batch",
    "first_hit",
    "run_batch",
    "run_paths",
    "map_path_blocks",
]

_GAUSS_SLOT = 0
_CONTACT_SLOT = 1
_DEPART_SLOT = 2
_SLOTS = 3
SEED_LIMIT = 2**64  # seeds are 64-bit Philox keys: 0 <= seed < SEED_LIMIT
GRID_TOL = 1e-9  # largest gap between a time and the grid time it stands for


class SimulationError(RuntimeError):
    pass


def grid_step(t0: float, h: float, t: float) -> int | None:
    """The k with t0 + k h = t to within GRID_TOL, or None when t is off that
    grid.  The one rule for whether a time lies on a step grid."""
    k = round((t - t0) / h)
    return k if abs(t0 + k * h - t) <= GRID_TOL else None


@dataclass(frozen=True)
class SpiderState:
    """Scheme state: time, radial position, ray label (1-based), local time."""

    t: float
    x: float
    i: int
    l: float

    def __post_init__(self):
        if not (self.x >= 0 and self.l >= 0):
            raise SimulationError(f"invalid state x={self.x}, l={self.l}")


@dataclass(frozen=True)
class SimConfig:
    h: float
    T: float
    delta_shell: float = 1e-3
    policy: str = "reflection"
    n_paths: int = 1
    seed: int = 0
    store_paths: bool = False

    def __post_init__(self):
        if self.h <= 0 or self.T <= 0 or self.delta_shell <= 0:
            raise SimulationError("h, T and delta_shell must be positive")
        if self.policy not in ("reflection", "shell"):
            raise SimulationError(f"unknown vertex policy {self.policy!r}")
        if self.n_paths < 0:
            raise SimulationError("n_paths must be nonnegative")
        if not (0 <= int(self.seed) < SEED_LIMIT):
            raise SimulationError("seed must fit in 64 bits")

    def n_steps(self, t_start: float = 0.0) -> int:
        k = grid_step(t_start, self.h, self.T)
        if k is None or k < 0:
            raise SimulationError(
                f"horizon {self.T} is not {t_start} plus a whole number of steps of size {self.h}")
        return k

    def check_against(self, c: CoefficientSet):
        """Shell stability guard: the 0 -> delta_shell excursion must span
        about ten steps or more."""
        if self.policy == "shell":
            limit = self.delta_shell**2 / (10.0 * c.bounds.sigma_bound**2)
            if self.h > limit * (1 + 1e-12):
                raise SimulationError(
                    f"shell policy needs h <= delta_shell^2/(10 sigma_bound^2) = {limit:.3g}, "
                    f"got h = {self.h:.3g}")


@dataclass
class SpiderPath:
    """One discretized trajectory on the uniform grid t0 + k*h."""

    t0: float
    h: float
    x: np.ndarray          # (K+1,)
    edge: np.ndarray       # (K+1,) int, 1-based
    l: np.ndarray          # (K+1,)
    contact: np.ndarray    # (K+1,) bool, True where the grid point is a vertex visit
    gauss: np.ndarray      # (K,) driving standard normals
    policy: str = "reflection"
    seed: int = 0
    path_index: int = 0
    delta_shell: float = 1e-3
    sigma_bound: float = 1.0

    @property
    def K(self) -> int:
        return self.x.size - 1

    def times(self) -> np.ndarray:
        return self.t0 + self.h * np.arange(self.x.size)

    @property
    def delta_activity(self) -> float:
        return max(self.delta_shell, 3.0 * self.sigma_bound * math.sqrt(self.h))

    def check_invariants(self):
        if np.any(self.x < 0):
            raise SimulationError("negative radial position stored")
        dl = np.diff(self.l)
        if np.any(dl < -1e-15):
            raise SimulationError("local time decreased")
        near = np.minimum(self.x[:-1], self.x[1:]) <= self.delta_activity
        if np.any((dl > 0) & ~near):
            raise SimulationError("local time increased away from the vertex")
        changed = self.edge[1:] != self.edge[:-1]
        if np.any(changed & ~near):
            raise SimulationError("ray label changed away from the vertex")


@dataclass
class BatchResult:
    """Terminal states for a batch, plus the stored paths if requested."""

    t: np.ndarray
    x: np.ndarray
    edge: np.ndarray
    l: np.ndarray
    paths: list[SpiderPath] | None = None

    @property
    def n(self) -> int:
        return self.x.size


@dataclass
class FirstHitResult:
    """Per-path first passage of the level: time, ray, local time, censoring."""

    theta: np.ndarray
    edge: np.ndarray
    l: np.ndarray
    censored: np.ndarray
    level: float

    @property
    def n(self) -> int:
        return self.theta.size


# ---------------------------------------------------------------------------
# vectorized engine
# ---------------------------------------------------------------------------


def _pick_edges(amat: np.ndarray, u: np.ndarray) -> np.ndarray:
    cum = np.cumsum(amat, axis=1)
    low, dev = amat.min(), np.abs(cum[:, -1] - 1.0).max()
    if not (low >= 0 and dev <= 1e-12):  # also catches NaN
        raise SimulationError(f"ray weights are not a probability vector: smallest {low:.6g}, "
                              f"largest |row sum - 1| {dev:.3g} (need >= 0 and <= 1e-12)")
    idx = (u[:, None] > cum).sum(axis=1)
    return np.minimum(idx, amat.shape[1] - 1).astype(np.int64) + 1


def run_batch(
    c: CoefficientSet,
    cfg: SimConfig,
    *,
    K: int,
    t0,
    x0,
    edge0,
    l0,
    path_ids: np.ndarray | None = None,
    seed: int | None = None,
    on_step: Callable | None = None,
    store: bool = False,
    gaussians: np.ndarray | None = None,
    stop_level: float | None = None,
) -> BatchResult | FirstHitResult:
    """Advance a batch of paths K steps on the uniform grid; the loop ends
    early when no path is left (at once for an empty batch).

    ``on_step(k, t, x, edge, l, dl, contact, b, sigma, parts)`` is called
    once per step with the left-endpoint state (edge already redrawn for
    paths departing the vertex), the local-time increment of the step, the
    contact mask, the drift and diffusion of each path's ray at that state,
    as the step used them, and ``parts = ray_partition(c.I, edge)``, which
    the step builds once and evaluates drift and diffusion on ray by ray.
    A constant family (``c.b_table``, ``c.sigma_table``) is read as
    ``table[edge - 1]`` instead; a step that needs no partition builds none.

    With ``stop_level`` set, absorption is a stop mask on the same loop: at
    the top of every step (and after the last) the paths with x >= stop_level
    book their time, ray and local time and are dropped from the running
    arrays, which are copied once into shorter ones.  A FirstHitResult is
    returned, censored where theta is nan; on_step and store are not
    supported there.
    """
    cfg.check_against(c)
    seed = cfg.seed if seed is None else seed
    shape = np.broadcast_shapes(np.shape(t0), np.shape(x0), np.shape(edge0), np.shape(l0))
    n = shape[0] if shape else 1
    if path_ids is not None:
        path_ids = np.asarray(path_ids, dtype=np.uint64)
        if shape and path_ids.shape != shape:
            raise SimulationError("path_ids must match the batch size")
        n = path_ids.size
    else:
        path_ids = np.arange(n, dtype=np.uint64)
    t = np.broadcast_to(np.asarray(t0, dtype=np.float64), (n,)).copy()
    x = np.broadcast_to(np.asarray(x0, dtype=np.float64), (n,)).copy()
    edge = np.broadcast_to(np.asarray(edge0, dtype=np.int64), (n,)).copy()
    l = np.broadcast_to(np.asarray(l0, dtype=np.float64), (n,)).copy()
    if not (np.all(x >= 0) and np.all(l >= 0)) or np.any(edge < 1) or np.any(edge > c.I):
        raise SimulationError("invalid initial states")
    if gaussians is not None and gaussians.shape != (n, K):
        raise SimulationError(f"gaussians must have shape ({n}, {K})")
    absorbing = stop_level is not None
    if absorbing and (on_step is not None or store):
        raise SimulationError("absorption mode does not support on_step/store")

    shell = cfg.policy == "shell"
    sq = math.sqrt(cfg.h)
    h = cfg.h
    dsh = cfg.delta_shell

    if store:
        X = np.empty((n, K + 1))
        E = np.empty((n, K + 1), dtype=np.int64)
        L = np.empty((n, K + 1))
        C = np.zeros((n, K + 1), dtype=bool)
        G = np.empty((n, K))
        X[:, 0], E[:, 0], L[:, 0] = x, edge, l
    if absorbing:
        theta = np.full(n, np.nan)
        exit_edge = np.zeros(n, dtype=np.int64)
        exit_l = np.full(n, np.nan)
        rows = np.arange(n)  # output row of each running path

    need_parts = on_step is not None or c.b_table is None or c.sigma_table is None
    ids = path_ids
    pending = x == 0.0
    shell_mode = np.zeros(n, dtype=bool)

    def redraw(mask, slot):
        u = _rng.uniforms(seed, ids[mask], base + np.uint64(slot))
        edge[mask] = _pick_edges(c.alpha_matrix(t[mask], l[mask]), u)

    for k in range(K + 1):
        if absorbing:
            hit = x >= stop_level
            if hit.any():
                r = rows[hit]
                theta[r], exit_edge[r], exit_l[r] = t[hit], edge[hit], l[hit]
                keep = ~hit
                t, x, edge, l, ids, pending, shell_mode, rows = (
                    a[keep] for a in (t, x, edge, l, ids, pending, shell_mode, rows))
        if k == K or x.size == 0:
            break
        base = np.uint64(_SLOTS * k)
        if pending.any():
            redraw(pending, _DEPART_SLOT)
            if shell:
                shell_mode |= pending
            pending[:] = False
            if store:
                E[:, k] = edge  # departure ray is the label at this node
        if gaussians is None:
            g = _rng.gaussians(seed, ids, base + np.uint64(_GAUSS_SLOT))
        elif absorbing:
            g = gaussians[rows, k]
        else:
            g = gaussians[:, k]
        parts = ray_partition(c.I, edge) if need_parts else None
        bv = per_ray(parts, c.drift, t, x, l) if c.b_table is None else c.b_table[edge - 1]
        sv = (per_ray(parts, c.diffusion, t, x, l) if c.sigma_table is None
              else c.sigma_table[edge - 1])
        y = x + bv * h + sv * sq * g
        if not np.all(np.isfinite(y)):
            raise SimulationError(f"non-finite proposal at step {k}")
        contact = y <= 0.0
        over = np.where(contact, -y, 0.0)
        dl = 2.0 * over
        x_new = np.where(contact, over, y)
        if on_step is not None:
            # left-endpoint state: the ray redrawn at a contact applies only
            # from the next grid point on
            on_step(k, t, x, edge, l, dl, contact, bv, sv, parts)
        if shell:
            enter = contact & ~shell_mode
            if enter.any():
                redraw(enter, _CONTACT_SLOT)
                shell_mode |= enter
            exiting = shell_mode & (x_new >= dsh)
            x_new = np.where(exiting, dsh, x_new)
            shell_mode &= ~exiting
        elif contact.any():
            redraw(contact, _CONTACT_SLOT)
        x = x_new
        l = l + dl
        t = t + h
        if store:
            X[:, k + 1], E[:, k + 1], L[:, k + 1] = x, edge, l
            C[:, k + 1] = contact
            G[:, k] = g

    if absorbing:
        return FirstHitResult(theta=theta, edge=exit_edge, l=exit_l,
                              censored=np.isnan(theta), level=stop_level)
    paths = None
    if store:
        paths = [
            SpiderPath(
                t0=float(np.asarray(t0).ravel()[p] if np.ndim(t0) else t0),
                h=h, x=X[p].copy(), edge=E[p].copy(), l=L[p].copy(),
                contact=C[p].copy(), gauss=G[p].copy(), policy=cfg.policy,
                seed=seed, path_index=int(path_ids[p]), delta_shell=dsh,
                sigma_bound=c.bounds.sigma_bound,
            )
            for p in range(n)
        ]
    return BatchResult(t=t, x=x, edge=edge, l=l, paths=paths)


# ---------------------------------------------------------------------------
# public batch operations
# ---------------------------------------------------------------------------


def simulate_path(c: CoefficientSet, init: SpiderState, cfg: SimConfig,
                  path_index: int = 0) -> SpiderPath:
    """One full stored trajectory; a pure function of (seed, path_index)."""
    return run_paths(c, init, cfg, path_index, path_index + 1, store=True).paths[0]


def run_paths(c: CoefficientSet, init: SpiderState, cfg: SimConfig, lo: int, hi: int, **kw):
    """run_batch for paths lo..hi-1 from init to cfg.T; kw (on_step, store,
    stop_level) go to run_batch as given."""
    return run_batch(c, cfg, K=cfg.n_steps(init.t), t0=init.t, x0=init.x, edge0=init.i,
                     l0=init.l, path_ids=np.arange(lo, hi, dtype=np.uint64), **kw)


def _join(parts):
    """Blocks' results in block order: arrays concatenated, lists chained,
    tuples and dataclasses joined entry by entry; any other value (None, the
    hit level) is the same in every block and kept once."""
    first = parts[0]
    if isinstance(first, np.ndarray):
        return np.concatenate(parts)
    if isinstance(first, list):
        return sum(parts, [])
    if isinstance(first, tuple):
        return tuple(map(_join, zip(*parts)))
    if is_dataclass(first):
        return replace(first, **{f.name: _join([getattr(p, f.name) for p in parts])
                                 for f in fields(first)})
    return first


def map_path_blocks(n_paths: int, workers: int, fn: Callable[[int, int], object]):
    """Run fn(lo, hi) over path-index blocks, possibly on worker threads,
    and join the per-path results in index order (see _join).

    Results are identical for any worker count because every path owns its
    random stream and blocks are joined positionally.  Zero paths make the
    single call fn(0, 0), and one block's result is returned as it is.
    """
    workers = max(1, min(int(workers), n_paths))
    if workers == 1:
        return fn(0, n_paths)
    bounds = np.linspace(0, n_paths, workers + 1).astype(int)
    blocks = [(int(lo), int(hi)) for lo, hi in zip(bounds[:-1], bounds[1:]) if hi > lo]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return _join(list(pool.map(lambda b: fn(*b), blocks)))


def simulate_batch(c: CoefficientSet, init: SpiderState, cfg: SimConfig,
                   workers: int = 1) -> BatchResult:
    """cfg.n_paths independent paths from a common initial state."""
    return map_path_blocks(cfg.n_paths, workers, lambda lo, hi: run_paths(
        c, init, cfg, lo, hi, store=cfg.store_paths))


def first_hit(c: CoefficientSet, init: SpiderState, cfg: SimConfig, level: float,
              workers: int = 1) -> FirstHitResult:
    """First grid time with x >= level for each path, censored at T."""
    if level < cfg.delta_shell:
        raise SimulationError("hitting level must be >= delta_shell")
    return map_path_blocks(cfg.n_paths, workers, lambda lo, hi: run_paths(
        c, init, cfg, lo, hi, stop_level=level))
