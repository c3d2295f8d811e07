import math
import sys
from dataclasses import replace

import numpy as np
import pytest

from spidersim import feynman_kac
from spidersim.coeffexpr import _compile, build_coefficient_set, parse
from spidersim.feynman_kac import FKProblem, fk_estimate, fk_vs_pde
from spidersim.network import TestFunction, TfTerm, constant_coefficients, per_ray
from spidersim.pde import PdeGrid, flat_profile_poly, manufactured_backward
from spidersim.simulator import SimConfig, SpiderState, run_paths


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


def _manufactured_06c():
    """A reduced criterion-06(c) problem: weights 1 + l and 1, and the sources
    of a known solution, so that h0 evaluates the weights."""
    c = build_coefficient_set({"I": 2, "b": ["0", "0"], "sigma": ["1", "1"],
                               "alpha": {"exprs": ["1+l", "1"], "mode": "renormalize"}})
    truth = TestFunction(I=2, terms=(
        TfTerm(edge_coeffs=(1.0, -0.5), x_poly=flat_profile_poly(2.0, 1),
               l_poly=(1.0, 0.3), time_poly=(1.0, -0.4)),
        TfTerm(edge_coeffs=(0.4, 0.4), x_poly=flat_profile_poly(2.0, 2),
               l_poly=(0.5, 0.0, 0.1), sin_omega=1.3, sin_phase=0.4),
    ))
    pde = manufactured_backward(c, truth, 1.0, 2.0, 2.0)
    return c, FKProblem(g_edge=pde.g_edge, h_edge=pde.h_edge, h0=pde.h0)


def test_vertex_cost_is_evaluated_on_the_hit_rows_only(monkeypatch):
    c, prob = _manufactured_06c()
    hits, seen = [], []

    def h0(t, l):
        seen.append((t.copy(), l.copy()))
        return prob.h0(t, l)

    def run_paths(c, init, cfg, lo, hi, on_step):
        def spy(step):
            hit = step.dl > 0
            if hit.any():
                hits.append((step.t[hit].copy(), step.l[hit].copy()))
            return on_step(step)
        return orig(c, init, cfg, lo, hi, on_step=spy)

    orig = feynman_kac.run_paths
    monkeypatch.setattr(feynman_kac, "run_paths", run_paths)
    fk_estimate(replace(prob, h0=h0), c, (0.8, 0.0, 1, 0.0),
                SimConfig(h=1e-3, T=1.0, n_paths=300, seed=626))
    assert len(hits) > 10 and len(seen) == len(hits)
    for (t, l), (ts, ls) in zip(hits, seen):
        assert t.tobytes() == ts.tobytes() and l.tobytes() == ls.tobytes()


def test_hit_rows_estimate_is_bit_identical_to_the_all_rows_formula():
    """The vertex cost on the hit rows and the one-pass running cost give
    the bits of the all-rows vertex formula and the ray-by-ray sources."""
    c, prob = _manufactured_06c()
    cfg = SimConfig(h=1e-3, T=1.0, n_paths=400, seed=626)
    query = (0.8, 0.3, 2, 0.1)
    acc = np.zeros(cfg.n_paths)

    def on_step(step):
        t, l, dl = step.t, step.l, step.dl
        acc_step = per_ray(step.parts, lambda e, *a: prob.h_edge[e - 1](*a), t, step.x, l) * cfg.h
        hit = dl > 0
        if hit.any():
            acc_step = acc_step + np.where(hit, prob.vertex_cost(t, l) * dl, 0.0)
        np.add(acc, acc_step, out=acc)

    res = run_paths(c, SpiderState(*query), cfg, 0, cfg.n_paths, on_step=on_step)
    vals = acc + prob.payoff(res.edge, res.x, res.l)
    est = fk_estimate(prob, c, query, cfg)
    assert repr(est.mean) == repr(float(vals.mean()))
    assert repr(est.stderr) == repr(float(vals.std(ddof=1) / math.sqrt(vals.size)))


@pytest.mark.parametrize("h, t0, T, rejected", [
    ("30*t", 0.0, 0.25, False),        # above h_bound = 10 only after t = 1/3
    ("8*t", 0.0, 2.0, True),           # above h_bound only for t in (1.25, 2]
    ("30*(t - 0.5)", 0.5, 0.75, False),  # below the bound from the query's t on
])
def test_running_cost_bound_is_sampled_over_the_run_times(h, t0, T, rejected):
    cost = _compile(parse(h))
    prob = FKProblem(g_edge=_const_g(2, 0.0), h_edge=(cost, cost))
    cfg = SimConfig(h=1e-2, T=T, n_paths=8, seed=1)
    if rejected:
        with pytest.raises(ValueError, match="exceeds its declared bound") as err:
            fk_estimate(prob, _c(), (t0, 0.3, 1, 0.0), cfg)
        assert err.value.names == ("h_edge", "h_bound")
    else:
        assert np.isfinite(fk_estimate(prob, _c(), (t0, 0.3, 1, 0.0), cfg).mean)


@pytest.mark.parametrize("h, R, K", [("5*x", 3.0, 1.0), ("5*l", 2.0, 3.0)],
                         ids=["above-bound-past-x-2", "above-bound-past-l-2"])
def test_fk_vs_pde_checks_running_cost_on_its_truncation_box(monkeypatch, h, R, K):
    """5*x (5*l) stays within h_bound = 10 on x, l <= 2 but not on the
    truncation box [0, R] x [0, K]; fk_vs_pde rejects it before either solve."""
    solves = []
    solve = feynman_kac.solve
    monkeypatch.setattr(feynman_kac, "solve", lambda *a: solves.append(a) or solve(*a))
    cost = _compile(parse(h))
    prob = FKProblem(g_edge=_const_g(2, 0.0), h_edge=(cost, cost))
    cfg = SimConfig(h=1e-2, T=0.5, n_paths=10, seed=0)
    with pytest.raises(ValueError, match="exceeds its declared bound") as err:
        fk_vs_pde(prob, _c(), [(0.0, 0.5, 1, 0.1)], cfg, PdeGrid(8, 8, 4), R=R, K=K)
    assert err.value.names == ("h_edge", "h_bound")
    assert solves == []


def test_fk_vs_pde_runs_each_querys_own_check_before_solving(monkeypatch):
    """h = 5 x^4 stays within h_bound = 10 on the truncation box x <= R = 1,
    but not on the box x <= 2 that fk_estimate samples from the query on;
    fk_vs_pde rejects it before either solve."""
    solves = []
    solve = feynman_kac.solve
    monkeypatch.setattr(feynman_kac, "solve", lambda *a: solves.append(a) or solve(*a))
    cost = _compile(parse("5*x^4"))
    prob = FKProblem(g_edge=_const_g(2, 1.0), h_edge=(cost, cost))
    cfg = SimConfig(h=1e-2, T=1.0, n_paths=10, seed=0)
    with pytest.raises(ValueError, match="exceeds its declared bound") as err:
        fk_vs_pde(prob, constant_coefficients(2), [(0.5, 0.3, 1, 0.2)], cfg, PdeGrid(8, 8, 4),
                  R=1.0, K=1.0)
    assert err.value.names == ("h_edge", "h_bound")
    assert solves == []


def _manufactured_varying():
    """A manufactured problem on two rays whose drift and diffusion vary with
    t, x and l and differ between the rays."""
    c = build_coefficient_set({
        "I": 2, "b": ["0.3*tanh(x) - 0.1*l", "0.1*sin(t)"],
        "sigma": ["1 + 0.2*sin(t)", "0.8 + 0.1*tanh(l)"],
        "alpha": {"exprs": ["1+l", "1"], "mode": "renormalize"},
        "bounds": {"a_lower": 0.1, "sigma_lower": 0.5, "b_bound": 2.0,
                   "sigma_bound": 1.5, "alpha_lip": 1.0}})
    truth = TestFunction(I=2, terms=(
        TfTerm(edge_coeffs=(1.0, -0.5), x_poly=flat_profile_poly(2.0, 1),
               l_poly=(1.0, 0.3), time_poly=(1.0, -0.4)),
        TfTerm(edge_coeffs=(0.4, 0.4), x_poly=flat_profile_poly(2.0, 2),
               l_poly=(0.5, 0.0, 0.1), sin_omega=1.3, sin_phase=0.4),
    ))
    pde = manufactured_backward(c, truth, 1.0, 2.0, 2.0)
    return c, FKProblem(g_edge=pde.g_edge, h_edge=pde.h_edge, h0=pde.h0)


def _callers(depth=2):
    """The code objects on the stack above the caller of the caller."""
    frame, codes = sys._getframe(depth), set()
    while frame is not None:
        codes.add(frame.f_code)
        frame = frame.f_back
    return codes


def test_fk_estimate_evaluates_manufactured_sources_in_one_pass(monkeypatch):
    """No per_ray for the running cost and no drift or diffusion call from
    inside a source, outside FKProblem.check, which samples the per-ray sources."""
    c, prob = _manufactured_varying()
    source, check = prob.h_edge[0].__code__, FKProblem.check.__code__
    running = FKProblem.running.__code__
    seen = []

    def spy(name, orig):
        def wrapper(*a, **kw):
            seen.append((name, _callers()))
            return orig(*a, **kw)
        return wrapper

    monkeypatch.setattr(feynman_kac, "per_ray", spy("per_ray", feynman_kac.per_ray))
    for name in ("drift", "diffusion"):
        monkeypatch.setattr(type(c), name, spy(name, getattr(type(c), name)))
    fk_estimate(prob, c, (0.5, 0.1, 2, 0.1), SimConfig(h=1e-2, T=1.0, n_paths=50, seed=3))
    assert any(source in codes and check in codes for _, codes in seen)  # the spy sees them
    assert not [n for n, codes in seen if n == "per_ray" and running in codes]
    assert not [n for n, codes in seen if source in codes and check not in codes]


def test_running_cost_goes_ray_by_ray_unless_built_for_the_runs_coefficients(monkeypatch):
    """A run on another CoefficientSet object, or h_edge that mixes a
    manufactured entry with a plain callable, takes per_ray and gives the
    values of plain callables."""
    c, prob = _manufactured_varying()
    plain = tuple(lambda t, x, l, _h=h: _h(t, x, l) for h in prob.h_edge)
    init = SpiderState(0.5, 0.1, 2, 0.1)
    cfg = SimConfig(h=1e-2, T=1.0, n_paths=50, seed=3)
    calls = []
    orig = feynman_kac.per_ray
    monkeypatch.setattr(feynman_kac, "per_ray", lambda *a: calls.append(a) or orig(*a))
    for run_c, h_edge in ((constant_coefficients(2, sigma=0.9, b=0.1), prob.h_edge),
                          (c, (prob.h_edge[0], plain[1]))):
        del calls[:]
        got = feynman_kac._per_path_values(replace(prob, h_edge=h_edge), run_c, init, cfg, 0, 50)
        assert len(calls) > cfg.n_steps(init.t)  # once per step, and for the payoff
        want = feynman_kac._per_path_values(replace(prob, h_edge=plain), run_c, init, cfg, 0, 50)
        assert np.array_equal(got, want)
