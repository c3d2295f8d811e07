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
from .network import CoefficientSet, named, ray_partition

__all__ = [
    "SpiderState",
    "SimConfig",
    "SpiderPath",
    "BatchResult",
    "FirstHitResult",
    "Step",
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
        """Steps of a run from t_start (named init.t in errors) to T: the one
        rule for what a run accepts.  t_start must be before T, and T on the grid t_start + k h."""
        k = grid_step(t_start, self.h, self.T)
        if t_start >= self.T or k == 0:
            raise named(ValueError(
                f"start time t = {t_start!r} must be before the horizon T = {self.T!r}"),
                "init.t", "cfg.T")
        if k is None:
            raise named(SimulationError(f"horizon {self.T} is not {t_start} plus a whole number "
                                        f"of steps of size {self.h}"), "init.t", "cfg.T", "cfg.h")
        return k

    def check_against(self, c: CoefficientSet):
        """Shell stability guard: the 0 -> delta_shell excursion must span
        about ten steps or more."""
        if self.policy == "shell":
            limit = self.delta_shell**2 / (10.0 * c.bounds.sigma_bound**2)
            if self.h > limit * (1 + 1e-12):
                raise named(SimulationError(
                    f"shell policy needs h <= delta_shell^2/(10 sigma_bound^2) = {limit:.3g}, "
                    f"got h = {self.h:.3g}"), "cfg.h", "cfg.delta_shell")


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

    @property
    def n(self) -> int:
        return self.theta.size


class Step:
    """One Euler step as run_batch hands it to on_step: left-endpoint k, t,
    x, edge, l (a departing path's ray already drawn, a contact's from the
    next step on), the gaussians g, local-time increment dl and contact
    mask, and each path's drift b and diffusion sigma as the step used
    them.  Read it inside on_step: the kernel redraws edge in place."""

    __slots__ = ("k", "t", "x", "edge", "l", "g", "n_rays", "_parts", "dl", "contact", "b", "sigma")

    def __init__(self, k, t, x, edge, l, g, n_rays):
        self.k, self.t, self.x, self.edge, self.l, self.g = k, t, x, edge, l, g
        self.n_rays, self._parts = n_rays, None

    @property
    def parts(self) -> list[np.ndarray]:
        """ray_partition(n_rays, edge), built on first read and kept."""
        if self._parts is None:
            self._parts = ray_partition(self.n_rays, self.edge)
        return self._parts


# ---------------------------------------------------------------------------
# vectorized engine
# ---------------------------------------------------------------------------


def _cum_weights(amat: np.ndarray) -> np.ndarray:
    """Cumulative ray weights of each row of amat ((n, I), or one (I,) table),
    after checking that every row is a probability vector."""
    cum = np.cumsum(amat, axis=-1)
    low, dev = amat.min(), np.abs(cum[..., -1] - 1.0).max()
    if not (low >= 0 and dev <= 1e-12):  # also catches NaN
        raise SimulationError(f"ray weights are not a probability vector: smallest {low:.6g}, "
                              f"largest |row sum - 1| {dev:.3g} (need >= 0 and <= 1e-12)")
    return cum


def _pick_edges(cum: np.ndarray, u: np.ndarray) -> np.ndarray:
    """1-based ray of each uniform u against its row of cum (or one shared row)."""
    idx = (u[:, None] > cum).sum(axis=1)
    return np.minimum(idx, cum.shape[-1] - 1).astype(np.int64) + 1


def _rowwise(step: Step, table, coefficient, fused) -> np.ndarray:
    """A coefficient at every row of step: a table lookup, else one call of
    coefficient (c.drift or c.diffusion), handed the step's partition unless
    a fused evaluator takes all rows in one pass."""
    if table is not None:
        return table[step.edge - 1]
    return coefficient(step.edge, step.t, step.x, step.l, None if fused else step.parts)


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
    on_step: Callable[[Step], object] | None = None,
    gaussians: np.ndarray | None = None,
    stop_level: float | None = None,
) -> BatchResult | FirstHitResult:
    """Advance a batch of paths K steps on the uniform grid; the loop ends
    early when no path is left (at once for an empty batch).

    ``on_step(step)`` is called once per step with its Step record.  The
    kernel reads ``step.parts`` only for drift or diffusion with neither a
    table nor a fused evaluator.

    With ``stop_level`` set, absorption is a stop mask on the same loop: at
    the top of every step (and after the last) the paths with x >= stop_level
    book their time, ray and local time and are dropped from the running
    arrays, which are copied once into shorter ones.  A FirstHitResult is
    returned, censored where theta is nan; on_step is not supported there.
    """
    cfg.check_against(c)
    seed = cfg.seed
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
    if absorbing and on_step is not None:
        raise SimulationError("absorption mode does not support on_step")
    # a constant family's weights are summed and checked once, before any step
    cum_table = None if c.alpha_table is None else _cum_weights(c.alpha_table)

    shell = cfg.policy == "shell"
    sq = math.sqrt(cfg.h)
    h = cfg.h
    dsh = cfg.delta_shell

    if absorbing:
        theta = np.full(n, np.nan)
        exit_edge = np.zeros(n, dtype=np.int64)
        exit_l = np.full(n, np.nan)
        rows = np.arange(n)  # output row of each running path

    ids = path_ids
    pending = x == 0.0
    shell_mode = np.zeros(n, dtype=bool)

    def redraw(mask, slot):
        u = _rng.uniforms(seed, ids[mask], base + np.uint64(slot))
        cum = cum_table if cum_table is not None else _cum_weights(c.alpha_matrix(t[mask], l[mask]))
        edge[mask] = _pick_edges(cum, u)

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
        if gaussians is None:
            g = _rng.gaussians(seed, ids, base + np.uint64(_GAUSS_SLOT))
        elif absorbing:
            g = gaussians[rows, k]
        else:
            g = gaussians[:, k]
        step = Step(k, t, x, edge, l, g, c.I)
        bv = _rowwise(step, c.b_table, c.drift, c.b_fused)
        sv = _rowwise(step, c.sigma_table, c.diffusion, c.sigma_fused)
        y = x + bv * h + sv * sq * g
        if not np.all(np.isfinite(y)):
            raise SimulationError(f"non-finite proposal at step {k}")
        contact = y <= 0.0
        over = np.where(contact, -y, 0.0)
        dl = 2.0 * over
        x_new = np.where(contact, over, y)
        if on_step is not None:
            step.dl, step.contact, step.b, step.sigma = dl, contact, bv, sv
            on_step(step)
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

    if absorbing:
        return FirstHitResult(theta=theta, edge=exit_edge, l=exit_l,
                              censored=np.isnan(theta))
    return BatchResult(t=t, x=x, edge=edge, l=l)


# ---------------------------------------------------------------------------
# public batch operations
# ---------------------------------------------------------------------------


def simulate_path(c: CoefficientSet, init: SpiderState, cfg: SimConfig,
                  path_index: int = 0) -> SpiderPath:
    """One full stored trajectory; a pure function of (seed, path_index)."""
    return run_paths(c, init, cfg, path_index, path_index + 1, store=True).paths[0]


def run_paths(c: CoefficientSet, init: SpiderState, cfg: SimConfig, lo: int, hi: int,
              store: bool = False, **kw):
    """run_batch for paths lo..hi-1 from init to cfg.T, kw (on_step,
    gaussians, stop_level) passed on; store=True records every path into
    BatchResult.paths through an on_step of its own.  A start at or after
    cfg.T is a ValueError (SimConfig.n_steps), not a zero-step run."""
    K = cfg.n_steps(init.t)
    if not store:
        return run_batch(c, cfg, K=K, t0=init.t, x0=init.x, edge0=init.i, l0=init.l,
                         path_ids=np.arange(lo, hi, dtype=np.uint64), **kw)
    X, L, G = np.empty((hi - lo, K + 1)), np.empty((hi - lo, K + 1)), np.empty((hi - lo, K))
    E, C = np.empty(X.shape, dtype=np.int64), np.zeros(X.shape, dtype=bool)

    def record(step):
        X[:, step.k], E[:, step.k], L[:, step.k], G[:, step.k] = step.x, step.edge, step.l, step.g
        C[:, step.k + 1] = step.contact

    res = run_paths(c, init, cfg, lo, hi, on_step=record, **kw)
    X[:, K], E[:, K], L[:, K] = res.x, res.edge, res.l
    res.paths = [SpiderPath(float(init.t), cfg.h, *rows, cfg.delta_shell, c.bounds.sigma_bound)
                 for rows in zip(X, E, L, C, G)]  # x, edge, l, contact, gauss of one path
    return res


def _join(parts):
    """Blocks' results in block order: arrays concatenated, lists chained,
    tuples and dataclasses joined entry by entry; any other value (None) is
    the same in every block and kept once."""
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
    """Terminal states of cfg.n_paths paths from init (run_paths(store=True) keeps paths)."""
    return map_path_blocks(cfg.n_paths, workers, lambda lo, hi: run_paths(c, init, cfg, lo, hi))


def first_hit(c: CoefficientSet, init: SpiderState, cfg: SimConfig, level: float,
              workers: int = 1) -> FirstHitResult:
    """First grid time with x >= level for each path, censored at T."""
    if level < cfg.delta_shell:
        raise named(SimulationError("hitting level must be >= delta_shell"),
                    "level", "cfg.delta_shell")
    return map_path_blocks(cfg.n_paths, workers, lambda lo, hi: run_paths(
        c, init, cfg, lo, hi, stop_level=level))
