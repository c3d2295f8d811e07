import math

import numpy as np
import pytest

from spidersim import feynman_kac
from spidersim.feynman_kac import FKProblem, fk_estimate, fk_vs_pde
from spidersim.network import constant_coefficients
from spidersim.pde import PdeGrid
from spidersim.simulator import SimConfig


def _c():
    return constant_coefficients(2, sigma=1.0, b=0.0, alpha=[0.5, 0.5])


def _const_g(I, v):
    return tuple(lambda x, l, _v=v: _v + 0.0 * np.asarray(x) for _ in range(I))


def _const_h(I, v):
    return tuple(lambda t, x, l, _v=v: _v + 0.0 * np.asarray(x) for _ in range(I))


def test_constant_payoff_zero_variance():
    prob = FKProblem(g_edge=_const_g(2, 7.0))
    est = fk_estimate(prob, _c(), (0.0, 0.5, 1, 0.0),
                      SimConfig(h=1e-2, T=0.5, n_paths=64, seed=1))
    assert est.mean == pytest.approx(7.0, abs=1e-14)
    assert est.stderr == pytest.approx(0.0, abs=1e-14)


def test_unit_running_cost_gives_time_to_horizon_exactly():
    prob = FKProblem(g_edge=_const_g(2, 0.0), h_edge=_const_h(2, 1.0))
    est = fk_estimate(prob, _c(), (0.25, 0.5, 1, 0.0),
                      SimConfig(h=1e-2, T=1.0, n_paths=64, seed=1))
    assert est.mean == pytest.approx(0.75, abs=1e-12)
    assert est.stderr == pytest.approx(0.0, abs=1e-12)


def test_vertex_cost_matches_reflected_local_time_mean():
    prob = FKProblem(g_edge=_const_g(2, 0.0), h0=lambda t, l: 1.0 + 0.0 * np.asarray(t))
    est = fk_estimate(prob, _c(), (0.0, 0.0, 1, 0.0),
                      SimConfig(h=2e-4, T=1.0, n_paths=3000, seed=5))
    assert abs(est.mean - math.sqrt(2 / math.pi)) < 3 * est.stderr


def test_linearity_on_a_fixed_seed():
    c = _c()
    cfg = SimConfig(h=5e-3, T=0.5, n_paths=400, seed=7)
    q = (0.0, 0.2, 1, 0.0)
    g1, g2 = 2.0, -1.0

    def gfun(v):
        return _const_g(2, v)

    h1 = tuple(lambda t, x, l: np.asarray(x) * 0.5 for _ in range(2))
    prob_a = FKProblem(g_edge=gfun(g1), h_edge=h1)
    prob_b = FKProblem(g_edge=gfun(g2), h0=lambda t, l: 1.0 + 0.0 * np.asarray(t))
    prob_sum = FKProblem(
        g_edge=gfun(g1 + g2), h_edge=h1,
        h0=lambda t, l: 1.0 + 0.0 * np.asarray(t))
    ea = fk_estimate(prob_a, c, q, cfg)
    eb = fk_estimate(prob_b, c, q, cfg)
    es = fk_estimate(prob_sum, c, q, cfg)
    assert es.mean == pytest.approx(ea.mean + eb.mean, abs=1e-12)


def test_monotonicity_in_payoff_on_fixed_ensemble():
    c = _c()
    cfg = SimConfig(h=5e-3, T=0.5, n_paths=400, seed=9)
    q = (0.0, 0.2, 1, 0.0)
    lo = fk_estimate(FKProblem(g_edge=_const_g(2, 1.0)), c, q, cfg)
    hi = fk_estimate(FKProblem(
        g_edge=tuple(lambda x, l: 1.0 + 0.1 * np.asarray(x) for _ in range(2))), c, q, cfg)
    assert hi.mean >= lo.mean


def test_stderr_scaling_with_path_count():
    c = _c()
    q = (0.0, 0.5, 1, 0.0)
    prob = FKProblem(g_edge=tuple(lambda x, l: np.asarray(x) for _ in range(2)))
    e1 = fk_estimate(prob, c, q, SimConfig(h=5e-3, T=0.5, n_paths=1500, seed=11))
    e4 = fk_estimate(prob, c, q, SimConfig(h=5e-3, T=0.5, n_paths=6000, seed=11))
    ratio = e4.stderr / e1.stderr
    assert 0.4 <= ratio <= 0.6


def test_estimate_deterministic_and_worker_invariant():
    c = _c()
    q = (0.0, 0.3, 2, 0.1)
    prob = FKProblem(g_edge=tuple(lambda x, l: np.asarray(x) + np.asarray(l)
                                  for _ in range(2)))
    cfg = SimConfig(h=5e-3, T=0.5, n_paths=600, seed=3)
    a = fk_estimate(prob, c, q, cfg)
    b = fk_estimate(prob, c, q, cfg, workers=3)
    assert a.mean == b.mean and a.stderr == b.stderr


def test_query_time_before_horizon_required():
    prob = FKProblem(g_edge=_const_g(2, 0.0))
    with pytest.raises(ValueError, match="before the horizon"):
        fk_estimate(prob, _c(), (1.0, 0.0, 1, 0.0), SimConfig(h=1e-2, T=1.0, n_paths=2, seed=0))


@pytest.mark.parametrize("n", [0, 1])
def test_fk_estimate_needs_two_paths(n):
    prob = FKProblem(g_edge=_const_g(2, 0.0))
    with pytest.raises(ValueError, match="two paths"):
        fk_estimate(prob, _c(), (0.0, 0.5, 1, 0.0), SimConfig(h=1e-2, T=0.5, n_paths=n, seed=0))


def test_discontinuous_payoff_rejected():
    prob = FKProblem(g_edge=(lambda x, l: 0.0 * np.asarray(x),
                             lambda x, l: 1.0 + 0.0 * np.asarray(x)))
    with pytest.raises(ValueError, match="discontinuous"):
        fk_estimate(prob, _c(), (0.0, 0.0, 1, 0.0), SimConfig(h=1e-2, T=0.5, seed=0))


def test_fk_vs_pde_constant_and_linear_problems():
    c = _c()
    queries = [(0.0, 0.4, 1, 0.2), (0.25, 0.8, 2, 0.0)]
    cfg = SimConfig(h=5e-3, T=1.0, n_paths=500, seed=13)
    rows, _ = fk_vs_pde(FKProblem(g_edge=_const_g(2, 3.0)), c, queries, cfg,
                        PdeGrid(16, 16, 8), R=3.0, K=2.0)
    assert all(r.passed for r in rows)
    assert all(abs(r.diff) < 1e-10 for r in rows)
    rows, _ = fk_vs_pde(FKProblem(g_edge=_const_g(2, 0.0), h_edge=_const_h(2, 1.0)),
                        c, queries, cfg, PdeGrid(16, 16, 8), R=3.0, K=2.0)
    assert all(r.passed for r in rows)
    for r in rows:
        assert r.pde_value == pytest.approx(1.0 - r.query[0], abs=1e-10)


def test_fk_vs_pde_rejects_boundary_queries():
    c = _c()
    cfg = SimConfig(h=1e-2, T=0.5, n_paths=10, seed=0)
    with pytest.raises(ValueError, match="truncation"):
        fk_vs_pde(FKProblem(g_edge=_const_g(2, 0.0)), c, [(0.0, 2.95, 1, 0.0)],
                  cfg, PdeGrid(8, 8, 4), R=3.0, K=2.0)


def test_fk_vs_pde_checks_every_query_before_solving(monkeypatch):
    solves = []
    solve = feynman_kac.solve
    monkeypatch.setattr(feynman_kac, "solve", lambda *a: solves.append(a) or solve(*a))
    cfg = SimConfig(h=1e-2, T=0.5, n_paths=10, seed=0)
    queries = [(0.0, 0.5, 1, 0.0), (0.0, 0.5, 2, 1.9)]  # the second is past 0.9 K
    with pytest.raises(ValueError, match="truncation"):
        fk_vs_pde(FKProblem(g_edge=_const_g(2, 0.0)), _c(), queries, cfg, PdeGrid(8, 8, 4),
                  R=3.0, K=2.0)
    assert solves == []


@pytest.mark.parametrize("query, grid, names", [
    ((0.005, 0.5, 1, 0.0), PdeGrid(8, 8, 4), ("queries[1][0]", "cfg.T", "cfg.h")),
    ((0.0, 0.5, 2, 0.0), PdeGrid(7, 8, 4), ("grid.M",)),
], ids=["query-time-off-grid", "grid-not-coarsenable"])
def test_fk_vs_pde_checks_time_grid_and_coarsening_before_solving(monkeypatch, query, grid,
                                                                   names):
    solves = []
    solve = feynman_kac.solve
    monkeypatch.setattr(feynman_kac, "solve", lambda *a: solves.append(a) or solve(*a))
    cfg = SimConfig(h=1e-2, T=0.5, n_paths=10, seed=0)
    with pytest.raises((ValueError, RuntimeError)) as exc:
        fk_vs_pde(FKProblem(g_edge=_const_g(2, 0.0)), _c(), [(0.0, 0.5, 1, 0.0), query], cfg,
                  grid, R=3.0, K=2.0)
    assert exc.value.names == names
    assert solves == []


@pytest.mark.parametrize("bad", [(0.0, 0.5, 3, 0.0), (0.0, 0.5, 0, 0.0), (0.5, 0.5, 1, 0.0)],
                         ids=["ray-above-I", "ray-zero", "t-at-horizon"])
def test_fk_vs_pde_rejects_ray_and_time_before_solving(monkeypatch, bad):
    solves = []
    solve = feynman_kac.solve
    monkeypatch.setattr(feynman_kac, "solve", lambda *a: solves.append(a) or solve(*a))
    cfg = SimConfig(h=1e-2, T=0.5, n_paths=10, seed=0)
    with pytest.raises(ValueError, match="ray in 1..2"):
        fk_vs_pde(FKProblem(g_edge=_const_g(2, 0.0)), _c(), [(0.0, 0.5, 1, 0.0), bad], cfg,
                  PdeGrid(8, 8, 4), R=3.0, K=2.0)
    assert solves == []
