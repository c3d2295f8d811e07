"""Statistical verification of the pathwise and distributional claims:
compensated-process (martingale) residuals, pathwise chain-rule residuals,
the vertex scattering law, exit-time and local-time asymptotics at the
junction, absence of an atom at the vertex, and the restart (strong Markov)
property.

Statistical passes are 3 standard errors for means and p > 0.01 for the
two-sample Kolmogorov-Smirnov test, at pinned seeds.  Mean residual checks
additionally carry a sqrt(h) scheme-bias budget calibrated once on the
driftless reflected case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

import numpy as np

from . import rng as _rng
from .network import (CoefficientSet, NetworkError, TestFunction, TfTerm, generator, named,
                      vertex_operator)
from .simulator import (
    SimConfig,
    SimulationError,
    SpiderPath,
    SpiderState,
    first_hit,
    grid_step,
    map_path_blocks,
    run_batch,
    run_paths,
)

__all__ = [
    "EstimatorReport",
    "StoppingSpec",
    "ks_2samp",
    "normal_cdf",
    "make_battery",
    "identity_function",
    "martingale_residual",
    "martingale_residual_paths",
    "ito_residual",
    "ito_convergence",
    "scattering_distribution",
    "mean_exit_stats",
    "atom_test",
    "strong_markov_test",
    "calibrate_bias_constant",
    "DEFAULT_BIAS_CONSTANT",
]

# |mean residual| <= 3 stderr + BIAS * sqrt(h) * vertex_scale(f).  The
# constant dominates calibrate_bias_constant on the driftless reflected
# case (measured 1.0 and 2.0 across seeds at n = 6000, h in {4e-4, 1e-4})
DEFAULT_BIAS_CONSTANT = 2.5
EXIT_L_RATIO_BAND = (0.9, 1.1)  # mean_exit_stats: E[l at exit]/delta at the smallest delta
EXIT_THETA_BAND = (0.5, 2.0)    # mean_exit_stats: successive ratios of E[exit time]/delta^2


@dataclass
class EstimatorReport:
    """Self-describing result record; pass/fail recomputable from fields."""

    name: str
    estimates: dict
    stderr: dict
    n: int
    passed: bool | None
    seed: int
    details: dict = field(default_factory=dict)
    config_hash: str = ""

    def to_json(self) -> dict:
        def clean(v):
            if isinstance(v, (np.floating, np.integer)):
                return v.item()
            if isinstance(v, np.ndarray):
                return v.tolist()
            if isinstance(v, dict):
                return {k: clean(x) for k, x in v.items()}
            if isinstance(v, (list, tuple)):
                return [clean(x) for x in v]
            if isinstance(v, (bool, np.bool_)):
                return bool(v)
            return v

        return {
            "name": self.name,
            "estimates": clean(self.estimates),
            "stderr": clean(self.stderr),
            "n": int(self.n),
            "pass": None if self.passed is None else bool(self.passed),
            "seed": int(self.seed),
            "config_hash": self.config_hash,
            "details": clean(self.details),
        }


def normal_cdf(z: float) -> float:
    return 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))


def _kolmogorov_sf(y: float) -> float:
    """Survival function of the Kolmogorov distribution."""
    if y < 1e-8:
        return 1.0
    total = 0.0
    sign = 1.0
    for r in range(1, 101):
        term = math.exp(-2.0 * (r * y) ** 2)
        total += sign * term
        if term < 1e-16:
            break
        sign = -sign
    return min(max(2.0 * total, 0.0), 1.0)


def ks_2samp(a: np.ndarray, b: np.ndarray) -> tuple[float, float]:
    """Two-sample Kolmogorov-Smirnov statistic and asymptotic p-value
    (small-sample correction of Stephens)."""
    a = np.sort(np.asarray(a, dtype=float))
    b = np.sort(np.asarray(b, dtype=float))
    n1, n2 = a.size, b.size
    if n1 == 0 or n2 == 0:
        raise ValueError("empty sample")
    pooled = np.concatenate([a, b])
    fa = np.searchsorted(a, pooled, side="right") / n1
    fb = np.searchsorted(b, pooled, side="right") / n2
    d = float(np.max(np.abs(fa - fb)))
    en = math.sqrt(n1 * n2 / (n1 + n2))
    return d, _kolmogorov_sf((en + 0.12 + 0.11 / en) * d)


# ---------------------------------------------------------------------------
# test-function battery
# ---------------------------------------------------------------------------


def identity_function(I: int) -> TestFunction:
    """f(t, x, i, l) = x."""
    return TestFunction(I=I, terms=(TfTerm(edge_coeffs=(1.0,) * I, x_poly=(0.0, 1.0)),))


def constant_function(I: int, value: float = 1.0) -> TestFunction:
    return TestFunction(I=I, terms=(TfTerm(edge_coeffs=(1.0,) * I, x_poly=(value,)),))


def make_battery(I: int) -> list[TestFunction]:
    """Five smooth test functions with edge-dependent vertex slopes and
    genuine t and l dependence (plus bounded growth on the reachable set)."""

    def spread(base, amp):
        return tuple(base + amp * math.cos(2.0 * math.pi * e / I + 0.7) for e in range(I))

    return [
        TestFunction(I=I, terms=(
            TfTerm(edge_coeffs=spread(1.0, 0.6), x_poly=(0.0, 1.0, -0.15),
                   l_poly=(1.0, 0.3), time_poly=(1.0, 0.2)),
        )),
        TestFunction(I=I, terms=(
            TfTerm(edge_coeffs=spread(0.8, -0.5), x_poly=(0.0, 1.0),
                   l_poly=(1.0, 0.0, 0.1), sin_omega=1.1, sin_phase=0.3),
            TfTerm(edge_coeffs=(0.5,) * I, x_poly=(1.0,), l_poly=(0.0, 1.0),
                   time_poly=(1.0,)),
        )),
        TestFunction(I=I, terms=(
            TfTerm(edge_coeffs=spread(0.0, 1.0), x_poly=(0.0, 0.0, 1.0, -0.2),
                   l_poly=(1.0,), time_poly=(1.0, -0.3)),
            TfTerm(edge_coeffs=(1.0,) * I, x_poly=(0.0, 0.5), l_poly=(0.2, 0.4),
                   sin_omega=0.9),
        )),
        TestFunction(I=I, terms=(
            TfTerm(edge_coeffs=(1.0,) * I, x_poly=(1.0, 0.0, -0.1),
                   l_poly=(1.0, 0.5, -0.05), time_poly=(0.5, 0.5)),
            TfTerm(edge_coeffs=spread(0.4, 0.3), x_poly=(0.0, 1.0, -0.1),
                   l_poly=(1.0, 0.1), time_poly=(1.0,)),
        )),
        TestFunction(I=I, terms=(
            TfTerm(edge_coeffs=spread(0.6, 0.4), x_poly=(0.0, 1.0, 0.0, -0.02),
                   l_poly=(1.0, -0.2, 0.05), time_poly=(1.0, 0.1, -0.2)),
            TfTerm(edge_coeffs=(0.3,) * I, x_poly=(1.0,), l_poly=(0.0, 0.0, 0.3),
                   time_poly=(1.0, 0.5)),
        )),
    ]


def _vertex_scale(f: TestFunction, c: CoefficientSet, T: float) -> float:
    """Magnitude of the vertex terms of f on the reachable (t, l) range."""
    ts = np.linspace(0.0, T, 9)
    ls = np.linspace(0.0, 4.0 * c.bounds.sigma_bound * math.sqrt(max(T, 1e-12)), 9)
    tt, ll = np.meshgrid(ts, ls, indexing="ij")
    tt, ll = tt.ravel(), ll.ravel()
    total = np.abs(f.dl_vertex(tt, ll))
    best = np.zeros_like(total)
    for e in range(1, c.I + 1):
        best = np.maximum(best, np.abs(f.dx_vertex(e, tt, ll)))
    return float(np.max(total + best))


# ---------------------------------------------------------------------------
# compensated-process residuals
# ---------------------------------------------------------------------------


def _window_steps(t0: float, h: float, K: int, s: float, s_prime: float) -> tuple[int, int]:
    """Step indices of the window [s, s'] on the grid t0 + k h, 0 <= k <= K."""
    ks, ke = grid_step(t0, h, s), grid_step(t0, h, s_prime)
    if ks is None or ke is None:
        raise named(ValueError("window endpoints must be grid times"),
                    *(name for name, k in (("s", ks), ("s_prime", ke)) if k is None))
    if not 0 <= ks < ke <= K:
        raise named(ValueError("need init.t <= s < s' <= T"), "s", "s_prime")
    return ks, ke


def martingale_residual(c: CoefficientSet, init: SpiderState, cfg: SimConfig,
                        fs: Sequence[TestFunction] | TestFunction,
                        s: float, s_prime: float, workers: int = 1,
                        bias_constant: float | None = None) -> EstimatorReport:
    """Ensemble mean of the compensated-process increment over [s, s'].

    For each test function the increment f(s') - f(s) minus the generator
    integral (left-endpoint quadrature) minus the vertex dl integral
    (scheme local-time increments) is averaged over cfg.n_paths paths; the
    mean must vanish within 3 stderr plus the sqrt(h) bias budget.
    """
    single = isinstance(fs, TestFunction)
    f_list = [fs] if single else list(fs)
    if cfg.n_paths < 2:
        raise named(ValueError("need at least two paths for a standard error"), "cfg.n_paths")
    bias_c = DEFAULT_BIAS_CONSTANT if bias_constant is None else bias_constant
    K = cfg.n_steps(init.t)
    ks, ke = _window_steps(init.t, cfg.h, K, s, s_prime)
    nf = len(f_list)

    def block(lo, hi):
        n = hi - lo
        resid = np.zeros((nf, n))

        def on_step(step):
            k, t, x, edge, l, dl = step.k, step.t, step.x, step.edge, step.l, step.dl
            if k == ks:
                for q, f in enumerate(f_list):
                    resid[q] -= f.value(edge, t, x, l)
            if ks <= k < ke:
                for q, f in enumerate(f_list):
                    resid[q] -= generator(f, edge, t, x, l, step.b, step.sigma) * cfg.h
                hit = dl > 0
                if hit.any():
                    th, lh, dlh = t[hit], l[hit], dl[hit]
                    for q, f in enumerate(f_list):
                        resid[q, hit] -= vertex_operator(c, f, th, lh) * dlh
            if k == ke:
                for q, f in enumerate(f_list):
                    resid[q] += f.value(edge, t, x, l)

        res = run_paths(c, init, cfg, lo, hi, on_step=on_step)
        if ke == K:
            for q, f in enumerate(f_list):
                resid[q] += f.value(res.edge, res.t, res.x, res.l)
        return tuple(resid)

    resid = np.array(map_path_blocks(cfg.n_paths, workers, block))  # (nf, n)
    means = resid.mean(axis=1)
    errs = resid.std(axis=1, ddof=1) / math.sqrt(resid.shape[1])
    budgets = np.array([bias_c * math.sqrt(cfg.h) * _vertex_scale(f, c, cfg.T)
                        for f in f_list])
    tol = 3.0 * errs + budgets
    ok = np.abs(means) <= tol
    return EstimatorReport(
        name="martingale_residual",
        estimates={"mean": means.tolist(), "budget": budgets.tolist()},
        stderr={"mean": errs.tolist()},
        n=cfg.n_paths,
        passed=bool(ok.all()),
        seed=cfg.seed,
        details={"window": [s, s_prime], "per_function_pass": ok.tolist(),
                 "bias_constant": bias_c, "h": cfg.h},
    )


def _path_steps(p: SpiderPath, c: CoefficientSet, ks: int, ke: int):
    """Steps ks..ke-1 of a stored path: left-endpoint t, x, edge, l, the dl
    of each step, and the drift and diffusion of each step's ray."""
    t_k, x_k, e_k, l_k = p.times()[ks:ke], p.x[ks:ke], p.edge[ks:ke], p.l[ks:ke]
    if e_k.size and not (1 <= e_k.min() and e_k.max() <= c.I):  # a table would wrap label 0
        raise NetworkError(f"stored path has a ray label outside 1..{c.I}")
    return (t_k, x_k, e_k, l_k, np.diff(p.l)[ks:ke],
            c.drift(e_k, t_k, x_k, l_k), c.diffusion(e_k, t_k, x_k, l_k))


def martingale_residual_paths(paths: Sequence[SpiderPath], c: CoefficientSet,
                              f: TestFunction, s: float, s_prime: float) -> np.ndarray:
    """Stored-path variant of the compensated increment (one value per path)."""
    out = np.empty(len(paths))
    for p_i, p in enumerate(paths):
        ks, ke = _window_steps(p.t0, p.h, p.x.size - 1, s, s_prime)
        times = p.times()
        val = float(f.value(int(p.edge[ke]), times[ke], p.x[ke], p.l[ke])) - float(
            f.value(int(p.edge[ks]), times[ks], p.x[ks], p.l[ks]))
        t_k, x_k, e_k, l_k, dl_k, b_k, sig = _path_steps(p, c, ks, ke)
        val -= float(np.sum(generator(f, e_k, t_k, x_k, l_k, b_k, sig)) * p.h)
        hit = dl_k > 0
        if hit.any():
            val -= float(np.sum(vertex_operator(c, f, t_k[hit], l_k[hit]) * dl_k[hit]))
        out[p_i] = val
    return out


def ito_residual(p: SpiderPath, c: CoefficientSet, f: TestFunction) -> float:
    """Largest pathwise gap in the chain-rule identity along the grid.

    The stochastic integral is rebuilt from the stored driving gaussians;
    the dl integral uses the scheme's local-time increments with the vertex
    integrand.  Exactly zero (to rounding) for constants and for f = x.
    """
    if p.gauss is None or p.gauss.size != p.K:
        raise ValueError("path does not store its driving gaussians")
    t_k, x_k, e_k, l_k, dl_k, b_k, sig = _path_steps(p, c, 0, p.K)
    incr = generator(f, e_k, t_k, x_k, l_k, b_k, sig) * p.h
    incr += np.asarray(f.dx(e_k, t_k, x_k, l_k), dtype=float) * sig * math.sqrt(p.h) * p.gauss
    hit = dl_k > 0
    if hit.any():
        vt = np.zeros_like(x_k)
        vt[hit] = vertex_operator(c, f, t_k[hit], l_k[hit])
        incr += vt * dl_k
    lhs = np.asarray(f.value(p.edge, p.times(), p.x, p.l), dtype=float)
    resid = lhs - lhs[0] - np.concatenate([[0.0], np.cumsum(incr)])
    return float(np.max(np.abs(resid)))


def ito_convergence(c: CoefficientSet, init: SpiderState, f: TestFunction,
                    h_list: Sequence[float], T: float, n_paths: int,
                    seed: int) -> EstimatorReport:
    """Mean pathwise chain-rule residual across step sizes on matched
    Brownian skeletons (coarse increments aggregate the finest ones).  Every
    step size runs from init.t to T, so T must lie on each grid init.t + k h.
    Needs init.t before T and at least two step sizes, each a whole multiple
    of the finest to 1e-12, so that there is a trend to check."""
    if init.t >= T:  # first: a start at or past T is at fault whatever h_list holds
        raise named(ValueError(f"init.t = {init.t!r} must be before T = {T!r}"), "init.t", "T")
    if len(h_list) < 2:
        raise named(ValueError("need at least two step sizes to compare"), "h_list")
    h_fine = min(h_list)
    for j, h in enumerate(h_list):
        if abs(round(h / h_fine) * h_fine - h) > 1e-12:
            raise named(ValueError("every h must be a multiple of the finest h"), f"h_list[{j}]")
        try:
            SimConfig(h=h, T=T).n_steps(init.t)
        except SimulationError as exc:  # T is off the grid init.t + k h
            raise named(exc, f"h_list[{j}]", "T", "init.t")
    hs = sorted(h_list, reverse=True)
    k_fine = SimConfig(h=h_fine, T=T).n_steps(init.t)
    seed_g = _rng.derive_seed(seed, "matched-skeleton")
    steps = np.arange(k_fine, dtype=np.uint64)
    g_fine = np.empty((n_paths, k_fine))
    for p in range(n_paths):  # one Philox call per path: its stream, steps 0..k_fine-1
        g_fine[p] = _rng.gaussians(seed_g, np.full(k_fine, p, dtype=np.uint64), steps)
    means = []
    for h in hs:
        m = round(h / h_fine)
        cfg = SimConfig(h=h, T=T, n_paths=n_paths, seed=seed)
        g_h = g_fine.reshape(n_paths, cfg.n_steps(init.t), m).sum(axis=2) / math.sqrt(m)
        res = run_paths(c, init, cfg, 0, n_paths, store=True, gaussians=g_h)
        means.append(float(np.mean([ito_residual(p, c, f) for p in res.paths])))
    decreasing = all(means[i] > means[i + 1] for i in range(len(means) - 1))
    return EstimatorReport(
        name="ito_convergence",
        estimates={"h": hs, "mean_max_residual": means},
        stderr={},
        n=n_paths,
        passed=bool(decreasing),
        seed=seed,
        details={"matched_skeleton": True},
    )


# ---------------------------------------------------------------------------
# vertex scattering and exit statistics
# ---------------------------------------------------------------------------


def scattering_distribution(c: CoefficientSet, t: float, ell: float, delta: float,
                            n: int, cfg: SimConfig, workers: int = 1) -> EstimatorReport:
    """Empirical law of the exit ray at the first passage of level delta,
    started at the junction with local-time level ell, against alpha(t, ell)."""
    if delta < 2.0 * cfg.delta_shell:
        raise named(ValueError("need delta >= 2 delta_shell"), "delta", "cfg.delta_shell")
    if n < 10**4:
        raise named(ValueError("need at least 1e4 excursions"), "n")
    cfg_n = replace(cfg, n_paths=n)
    fh = first_hit(c, SpiderState(t, 0.0, 1, ell), cfg_n, delta, workers=workers)
    ok = ~fh.censored
    n_ok = int(ok.sum())
    counts = np.bincount(fh.edge[ok], minlength=c.I + 1)[1:]
    freq = counts / max(n_ok, 1)
    stderr = np.sqrt(np.maximum(freq * (1 - freq), 1e-12) / max(n_ok, 1))
    target = np.asarray(c.alpha_matrix(t, ell), dtype=float)
    ok_edges = np.abs(freq - target) <= 3.0 * stderr
    return EstimatorReport(
        name="scattering_distribution",
        estimates={"freq": freq.tolist(), "target": target.tolist()},
        stderr={"freq": stderr.tolist()},
        n=n_ok,
        passed=bool(ok_edges.all()),
        seed=cfg.seed,
        details={"delta": delta, "t": t, "ell": ell,
                 "censored": int(n - n_ok), "per_edge_pass": ok_edges.tolist()},
    )


def mean_exit_stats(c: CoefficientSet, t: float, ell: float, deltas: Sequence[float],
                    n: int, cfg: SimConfig, workers: int = 1) -> EstimatorReport:
    """Per-delta table of E[l at exit - ell]/delta and E[exit time - t]/delta^2.

    Passes when the local-time ratio at the smallest delta lies in
    EXIT_L_RATIO_BAND and successive ratios of the scaled exit times stay
    inside EXIT_THETA_BAND.  Every level needs at least two first passages by cfg.T.
    """
    if n < 2:
        raise named(ValueError("need at least two paths for a standard error"), "n")
    for j, delta in enumerate(deltas):  # first_hit's floor, checked before any level runs
        if delta < cfg.delta_shell:
            raise named(SimulationError("hitting level must be >= delta_shell"),
                        f"deltas[{j}]", "cfg.delta_shell")
    rows = []
    for delta in deltas:
        cfg_n = replace(cfg, n_paths=n)
        fh = first_hit(c, SpiderState(t, 0.0, 1, ell), cfg_n, delta, workers=workers)
        ok = ~fh.censored
        n_ok = int(ok.sum())
        if n_ok < 2:
            raise ValueError(f"{n_ok} of {n} paths reach level delta = {delta!r} by "
                             f"T = {cfg.T!r}; need at least two for a standard error")
        dl = fh.l[ok] - ell
        dth = fh.theta[ok] - t
        rows.append({
            "delta": delta,
            "l_ratio": float(dl.mean() / delta),
            "l_ratio_stderr": float(dl.std(ddof=1) / math.sqrt(n_ok) / delta),
            "theta_ratio": float(dth.mean() / delta**2),
            "theta_ratio_stderr": float(dth.std(ddof=1) / math.sqrt(n_ok) / delta**2),
            "censored": int(n - n_ok),
        })
    smallest = min(rows, key=lambda r: r["delta"])
    l_ok = EXIT_L_RATIO_BAND[0] <= smallest["l_ratio"] <= EXIT_L_RATIO_BAND[1]
    t_ratios = [r["theta_ratio"] for r in sorted(rows, key=lambda r: -r["delta"])]
    succ = [t_ratios[i + 1] / t_ratios[i] for i in range(len(t_ratios) - 1)]
    t_ok = all(EXIT_THETA_BAND[0] <= r <= EXIT_THETA_BAND[1] for r in succ)
    return EstimatorReport(
        name="mean_exit_stats",
        estimates={"rows": rows, "successive_theta_ratios": succ},
        stderr={},
        n=n,
        passed=bool(l_ok and t_ok),
        seed=cfg.seed,
        details={"t": t, "ell": ell, "l_ratio_band": list(EXIT_L_RATIO_BAND),
                 "theta_band": list(EXIT_THETA_BAND), "l_pass": l_ok, "theta_pass": t_ok},
    )


# ---------------------------------------------------------------------------
# vertex atom test
# ---------------------------------------------------------------------------


ATOM_STABILITY_BAND = 1.5   # largest ratio of the per-delta slopes p_hat/delta
ATOM_ENVELOPE_SLACK = 1.25  # p_hat may exceed the fitted envelope C*delta by this factor


def atom_test(x_samples: np.ndarray, deltas: Sequence[float],
              oracle: Callable[[float], float] | None = None,
              seed: int = 0) -> EstimatorReport:
    """Empirical P(x(t) <= delta) over a decreasing delta grid.

    Passes when the probabilities are monotone in delta (automatic from
    nested events), the fitted linear envelope C*delta bounds them within
    the slack, and the per-delta slopes stay inside the stability band.
    With an oracle the estimates must also match it within 3 stderr.
    """
    x = np.asarray(x_samples, dtype=float)
    n = x.size
    if n == 0:
        raise named(ValueError("empty sample"), "x_samples")
    ds = sorted((float(d) for d in deltas), reverse=True)
    phat = np.array([np.mean(x <= d) for d in ds])
    stderr = np.sqrt(np.maximum(phat * (1 - phat), 1e-12) / n)
    slopes = phat / np.asarray(ds)
    c_fit = float(slopes.mean())
    monotone = bool(np.all(np.diff(phat) <= 1e-15))
    stable = float(slopes.max() / max(slopes.min(), 1e-300)) <= ATOM_STABILITY_BAND
    bounded = bool(np.all(phat <= ATOM_ENVELOPE_SLACK * c_fit * np.asarray(ds)))
    passed = monotone and stable and bounded
    details = {
        "deltas": ds, "c_fit": c_fit, "monotone": monotone,
        "stable": stable, "bounded": bounded,
        "slopes": slopes.tolist(),
    }
    if oracle is not None:
        targets = np.array([oracle(d) for d in ds])
        oracle_ok = np.abs(phat - targets) <= 3.0 * stderr
        details["oracle"] = targets.tolist()
        details["oracle_pass"] = oracle_ok.tolist()
        passed = passed and bool(oracle_ok.all())
    return EstimatorReport(
        name="atom_test",
        estimates={"p_hat": phat.tolist()},
        stderr={"p_hat": stderr.tolist()},
        n=n, passed=passed, seed=seed, details=details,
    )


# ---------------------------------------------------------------------------
# restart property
# ---------------------------------------------------------------------------

STOPPING_RULES = {"hitting": "level", "fixed_time": "time", "vertex_after": "time"}


@dataclass(frozen=True)
class StoppingSpec:
    """Measurable stopping rule of the path history.

    kind "hitting": first grid time the radial position crosses ``level``
    (from the initial side).  kind "fixed_time": the deterministic time
    ``time``.  kind "vertex_after": first vertex visit at or after ``time``.
    STOPPING_RULES names the field each kind needs.
    """

    kind: str
    level: float | None = None
    time: float | None = None

    def __post_init__(self):
        if self.kind not in STOPPING_RULES:
            raise named(ValueError(f"unknown stopping rule {self.kind!r}"), "spec.kind")
        need = STOPPING_RULES[self.kind]
        if getattr(self, need) is None:
            raise named(ValueError(f"{self.kind} rule needs a {need}"), f"spec.{need}")


def _functional(spec: str) -> Callable:
    if spec == "x":
        return lambda x, edge, l: x
    if spec == "l":
        return lambda x, edge, l: l
    raise ValueError(f"unknown functional {spec!r}")


def strong_markov_test(c: CoefficientSet, spec: StoppingSpec,
                       functional: str, lag: float, n: int,
                       cfg: SimConfig, init: SpiderState,
                       workers: int = 1) -> EstimatorReport:
    """Restart check: the law of F(state at tau + lag) along original paths
    must match fresh paths restarted from the recorded state at tau.

    Censors paths where tau + lag overruns the horizon; more than 20%
    censoring flags the report as failed.  The time of a time rule is a
    grid step (simulator.grid_step) at least lag before cfg.T.
    """
    if n < 2:
        raise named(ValueError("need at least two paths for a two-sample test"), "n")
    fn = _functional(functional)
    K = cfg.n_steps(init.t)
    U = grid_step(0.0, cfg.h, lag)
    if U is None or U < 1:
        raise named(ValueError("lag must be a positive whole number of steps"), "lag")
    k_time = None
    if STOPPING_RULES[spec.kind] == "time":
        k_time = grid_step(init.t, cfg.h, spec.time)
        if k_time is None or not 0 <= k_time <= K - U:
            raise named(ValueError(
                f"stopping time {spec.time!r} must be on the grid init.t + k h, k >= 0 (init.t "
                f"= {init.t!r}, h = {cfg.h!r}), and at least lag = {lag!r} before T = {cfg.T!r}"),
                "spec.time")
    going_up = spec.kind == "hitting" and init.x < spec.level
    cfg_restart = replace(cfg, seed=_rng.derive_seed(cfg.seed, "markov-restart"))

    def block(lo, hi):
        nb = hi - lo
        tau_idx = np.full(nb, -1, dtype=np.int64)
        sx = np.empty(nb)
        se = np.empty(nb, dtype=np.int64)
        sl = np.empty(nb)
        fval = np.full(nb, np.nan)
        carry_visit = np.zeros(nb, dtype=bool)

        def on_step(step):
            nonlocal carry_visit
            k, x, edge, l = step.k, step.x, step.edge, step.l
            undecided = tau_idx < 0
            if spec.kind == "hitting":
                cond = x >= spec.level if going_up else x <= spec.level
            elif spec.kind == "fixed_time":
                cond = np.full(x.shape, k == k_time)
            else:
                cond = (carry_visit | (x == 0.0)) & (k >= k_time)
            newly = undecided & cond
            if newly.any():
                tau_idx[newly] = k
                sx[newly] = x[newly]
                se[newly] = edge[newly]
                sl[newly] = l[newly]
            want = (tau_idx >= 0) & (tau_idx + U == k)
            if want.any():
                fval[want] = fn(x, edge, l)[want]
            carry_visit = step.contact.copy()

        res = run_paths(c, init, cfg, lo, hi, on_step=on_step)
        want = (tau_idx >= 0) & (tau_idx + U == K)
        if want.any():
            fval[want] = fn(res.x, res.edge, res.l)[want]
        ok = (tau_idx >= 0) & (tau_idx + U <= K)
        # restart from the recorded stopped states with fresh randomness
        idx = np.flatnonzero(ok)
        fresh = np.full(nb, np.nan)
        if idx.size:
            t_tau = init.t + tau_idx[idx] * cfg.h
            res2 = run_batch(c, cfg_restart, K=U, t0=t_tau, x0=sx[idx], edge0=se[idx],
                             l0=sl[idx], path_ids=(lo + idx).astype(np.uint64))
            fresh[idx] = fn(res2.x, res2.edge, res2.l)
        return fval, fresh, ok

    fval, fresh, ok = map_path_blocks(n, workers, block)
    censored_frac = 1.0 - ok.mean()
    a, b = fval[ok], fresh[ok]
    if a.size >= 2:
        d, p = ks_2samp(a, b)
    else:
        d, p = float("nan"), 0.0  # nothing comparable: fail via the flag
    flagged = censored_frac > 0.2
    return EstimatorReport(
        name="strong_markov_test",
        estimates={"ks_distance": d, "p_value": p,
                   "mean_continued": float(a.mean()) if a.size else float("nan"),
                   "mean_restarted": float(b.mean()) if b.size else float("nan")},
        stderr={},
        n=int(ok.sum()),
        passed=bool(p > 0.01 and not flagged),
        seed=cfg.seed,
        details={"censored_frac": float(censored_frac), "flagged": bool(flagged),
                 "spec": spec.kind, "lag": lag},
    )


# ---------------------------------------------------------------------------
# bias-budget calibration
# ---------------------------------------------------------------------------


def calibrate_bias_constant(seed: int = 2024, n: int = 4000,
                            hs: Sequence[float] = (4e-4, 1e-4)) -> float:
    """Largest |mean residual| / (sqrt(h) * vertex scale) on the driftless
    reflected case, over the battery and a grid of step sizes; the shipped
    budget constant should dominate this with margin."""
    from .network import constant_coefficients

    c = constant_coefficients(2, sigma=1.0, b=0.0, alpha=[0.5, 0.5])
    worst = 0.0
    for h in hs:
        cfg = SimConfig(h=h, T=0.5, n_paths=n, seed=seed)
        rep = martingale_residual(
            c, SpiderState(0.0, 0.0, 1, 0.0), cfg, make_battery(2), 0.0, 0.5,
            bias_constant=0.0)
        means = np.abs(np.asarray(rep.estimates["mean"]))
        scales = np.array([_vertex_scale(f, c, cfg.T) for f in make_battery(2)])
        worst = max(worst, float(np.max(means / (math.sqrt(h) * scales))))
    return worst
