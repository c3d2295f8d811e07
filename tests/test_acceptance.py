"""Acceptance suite: every numbered criterion at its stated tolerance,
one printed pass/fail line each (run with pytest -s to see them all)."""

import json
import math
import random
import time
from pathlib import Path

import numpy as np
import pytest

from spidersim import coeffexpr
from spidersim.cli import main as cli_main
from spidersim.coeffexpr import build_coefficient_set
from spidersim.feynman_kac import FKProblem, fk_estimate, fk_vs_pde
from spidersim.localtime import (
    excursion_decompose,
    occupation_batch,
    occupation_estimate,
    oracle_path,
)
from spidersim.network import TestFunction, TfTerm, constant_coefficients
from spidersim.pde import PdeGrid, PdeProblem, flat_profile_poly, manufactured_backward, solve
from spidersim.simulator import SimConfig, SpiderState, simulate_batch, simulate_path
from spidersim.verify import (
    EXIT_L_RATIO_BAND,
    EXIT_THETA_BAND,
    StoppingSpec,
    atom_test,
    constant_function,
    identity_function,
    ito_convergence,
    ito_residual,
    make_battery,
    martingale_residual,
    mean_exit_stats,
    normal_cdf,
    scattering_distribution,
    strong_markov_test,
)

HALF_NORMAL_MEAN = math.sqrt(2.0 / math.pi)


def _report(num: int, name: str, passed: bool, detail: str):
    print(f"[criterion {num:02d}] {'PASS' if passed else 'FAIL'} {name}: {detail}",
          flush=True)
    assert passed, f"criterion {num} ({name}): {detail}"


def _alpha_l_coefficients(I=2):
    exprs = ["1+l"] + ["1"] * (I - 1)
    return build_coefficient_set({
        "I": I, "b": ["0"] * I, "sigma": ["1"] * I,
        "alpha": {"exprs": exprs, "mode": "renormalize"},
        "bounds": {"a_lower": 0.1, "sigma_lower": 0.5, "b_bound": 1.0,
                   "sigma_bound": 1.0, "alpha_lip": 1.0},
    })


def test_criterion_01_scattering_constant_alpha():
    started = time.time()
    c = constant_coefficients(3, sigma=1.0, b=0.0, alpha=[0.5, 0.3, 0.2])
    cfg = SimConfig(h=1e-6, T=5e-3, delta_shell=1e-3, seed=101)
    rep = scattering_distribution(c, 0.0, 0.0, 0.01, 100_000, cfg)
    elapsed = time.time() - started
    freq = np.round(rep.estimates["freq"], 4)
    _report(1, "scattering, constant weights", rep.passed and elapsed < 300,
            f"freq={freq.tolist()} target=[0.5, 0.3, 0.2] "
            f"censored={rep.details['censored']} elapsed={elapsed:.0f}s")


def test_criterion_02_scattering_local_time_dependent():
    started = time.time()
    c = _alpha_l_coefficients()
    cfg = SimConfig(h=1e-6, T=5e-3, delta_shell=1e-3, seed=101)
    rep = scattering_distribution(c, 0.0, 1.0, 0.01, 100_000, cfg)
    elapsed = time.time() - started
    _report(2, "scattering at local-time level 1", rep.passed and elapsed < 300,
            f"freq={np.round(rep.estimates['freq'], 4).tolist()} "
            f"target=[2/3, 1/3] elapsed={elapsed:.0f}s")


@pytest.fixture(scope="module")
def oracle_ensemble():
    """1000 exact reflected paths at h=1e-5, with both estimators per eps."""
    eps_list = (0.1, 0.05, 0.02)
    n = 1000
    c = constant_coefficients(2, sigma=1.0, b=0.0, alpha=[0.7, 0.3])
    down = {e: np.empty(n) for e in eps_list}
    occ = {e: np.empty(n) for e in eps_list}
    l_exact = np.empty(n)
    for p in range(n):
        path, l = oracle_path(303, p, 1e-5, 1.0)
        l_exact[p] = l[-1]
        for e in eps_list:
            down[e][p] = e * excursion_decompose(path, e).count(path.K)
            occ[e][p] = occupation_estimate(path, c, e, 1.0).value
    return eps_list, down, occ, l_exact


def test_criterion_03_downcrossing_representation(oracle_ensemble):
    eps_list, down, _, l_exact = oracle_ensemble
    l1 = [float(np.abs(down[e] - l_exact).mean()) for e in eps_list]
    monotone = l1[0] > l1[1] > l1[2]
    advisory = (0.08, 0.05, 0.03)
    ratios = [v / a for v, a in zip(l1, advisory)]
    # the advisory levels sit well below the intrinsic L1 fluctuation of the
    # downcrossing count (about 0.8*sqrt(eps*l)); they are reported, the
    # mandatory monotone decrease is asserted
    _report(3, "downcrossing local-time estimate", monotone,
            f"L1={np.round(l1, 4).tolist()} monotone={monotone} "
            f"advisory_levels={list(advisory)} ratio_to_advisory={np.round(ratios, 2).tolist()}")


def test_criterion_04_occupation_estimator(oracle_ensemble):
    eps_list, _, occ, l_exact = oracle_ensemble
    l1 = [float(np.abs(occ[e] - l_exact).mean()) for e in eps_list]
    monotone = l1[0] > l1[1] > l1[2]
    c = constant_coefficients(2, sigma=1.0, b=0.0, alpha=[0.7, 0.3])
    cfg = SimConfig(h=1e-5, T=1.0, n_paths=1000, seed=404)
    vals = occupation_batch(c, SpiderState(0.0, 0.0, 1, 0.0), cfg, eps=0.02, edges=[1])
    target = 0.7 * HALF_NORMAL_MEAN
    se = float(vals.std(ddof=1) / math.sqrt(vals.size))
    subset_ok = abs(vals.mean() - target) <= 3 * se
    _report(4, "occupation local-time estimate", monotone and subset_ok,
            f"L1={np.round(l1, 4).tolist()} monotone={monotone} "
            f"edge1={vals.mean():.4f} target={target:.4f} 3se={3 * se:.4f}")


def test_criterion_05_exit_asymptotics():
    c = constant_coefficients(2, sigma=1.0, b=0.0, alpha=[0.5, 0.5])
    cfg = SimConfig(h=1e-6, T=0.08, delta_shell=1e-4, seed=105)
    assert (EXIT_L_RATIO_BAND, EXIT_THETA_BAND) == ((0.9, 1.1), (0.5, 2.0))
    rep = mean_exit_stats(c, 0.0, 0.0, [0.04, 0.02, 0.01], 10_000, cfg)
    rows = rep.estimates["rows"]
    small = min(rows, key=lambda r: r["delta"])
    _report(5, "exit-time and local-time asymptotics", rep.passed,
            f"l_ratio@0.01={small['l_ratio']:.3f} in [0.9,1.1]; "
            f"theta ratios={np.round([r['theta_ratio'] for r in rows], 3).tolist()}")


def _zero(I):
    return tuple(lambda x, l: 0.0 * np.asarray(x) for _ in range(I))


def test_criterion_06_feynman_kac_vs_pde():
    started = time.time()
    c2 = constant_coefficients(2, sigma=1.0, b=0.0, alpha=[0.5, 0.5])
    queries = [(0.1, 0.3, 1, 0.2), (0.2, 0.8, 2, 0.6), (0.4, 1.3, 1, 0.1),
               (0.5, 0.5, 2, 0.9), (0.7, 1.0, 1, 0.4)]

    # (a) unit running cost: both routes give T - t exactly
    prob_a = FKProblem(g_edge=_zero(2),
                       h_edge=tuple(lambda t, x, l: 1.0 + 0.0 * np.asarray(x)
                                    for _ in range(2)))
    cfg_a = SimConfig(h=5e-3, T=1.0, n_paths=400, seed=611)
    rows_a, sol_a = fk_vs_pde(prob_a, c2, queries, cfg_a, PdeGrid(24, 24, 12),
                              R=3.0, K=2.0)
    a_ok = all(r.passed for r in rows_a) and all(
        abs(r.pde_value - (1.0 - r.query[0])) < 1e-10 for r in rows_a)

    # (b) unit vertex cost, value at the junction
    prob_b = FKProblem(g_edge=_zero(2), h0=lambda t, l: 1.0 + 0.0 * np.asarray(t))
    est_b = fk_estimate(prob_b, c2, (0.0, 0.0, 1, 0.0),
                        SimConfig(h=1e-4, T=1.0, n_paths=10_000, seed=616))
    mc_ok = abs(est_b.mean - HALF_NORMAL_MEAN) <= 3 * est_b.stderr
    pde_prob_b = PdeProblem(coefficients=c2, T=1.0, R=4.0, K=4.0, g_edge=_zero(2),
                            h0=lambda t, l: 1.0 + 0.0 * np.asarray(t))
    fine_b = solve(pde_prob_b, PdeGrid(96, 96, 48))
    coarse_b = solve(pde_prob_b, PdeGrid(48, 48, 24))
    u_f = fine_b.at(0.0, 0.0, 1, 0.0)
    budget_b = 1.5 * abs(u_f - coarse_b.at(0.0, 0.0, 1, 0.0))
    b_ok = mc_ok and abs(u_f - HALF_NORMAL_MEAN) <= 3 * est_b.stderr + budget_b

    # (c) manufactured problem with local-time dependent weights
    c_l = _alpha_l_coefficients()
    R = K = 2.0
    truth = TestFunction(I=2, terms=(
        TfTerm(edge_coeffs=(1.0, -0.5), x_poly=flat_profile_poly(R, 1),
               l_poly=(1.0, 0.3), time_poly=(1.0, -0.4)),
        TfTerm(edge_coeffs=(0.4, 0.4), x_poly=flat_profile_poly(R, 2),
               l_poly=(0.5, 0.0, 0.1), sin_omega=1.3, sin_phase=0.4),
        TfTerm(edge_coeffs=(1.0, 1.0), x_poly=(1.0,), l_poly=(0.2, 0.5),
               time_poly=(0.5, 0.2)),
    ))
    pde_prob_c = manufactured_backward(c_l, truth, 1.0, R, K)
    fk_prob_c = FKProblem(g_edge=pde_prob_c.g_edge, h_edge=pde_prob_c.h_edge,
                          h0=pde_prob_c.h0)
    queries_c = [(0.5, 0.0, 1, 0.0), (0.5, 0.4, 1, 0.3), (0.25, 0.8, 2, 0.1),
                 (0.6, 0.25, 2, 0.5), (0.1, 1.0, 1, 0.0)]
    rows_c, _ = fk_vs_pde(fk_prob_c, c_l, queries_c,
                          SimConfig(h=2e-4, T=1.0, n_paths=20_000, seed=626),
                          PdeGrid(48, 48, 32), R=R, K=K,
                          psi_edge=pde_prob_c.psi_edge)
    c_ok = all(r.passed for r in rows_c)
    elapsed = time.time() - started
    _report(6, "Monte Carlo vs grid solver", a_ok and b_ok and c_ok and elapsed < 600,
            f"(a)={a_ok} (b)={b_ok} mc={est_b.mean:.4f} pde={u_f:.4f} "
            f"target={HALF_NORMAL_MEAN:.4f} "
            f"(c) diffs={np.round([r.diff for r in rows_c], 4).tolist()} "
            f"tols={np.round([r.tolerance for r in rows_c], 4).tolist()} "
            f"elapsed={elapsed:.0f}s")


def test_criterion_07_pathwise_chain_rule():
    c = constant_coefficients(3, sigma=1.0, b=0.0, alpha=[0.5, 0.3, 0.2])
    p = simulate_path(c, SpiderState(0.0, 0.3, 1, 0.0),
                      SimConfig(h=1e-3, T=1.0, seed=703))
    exact_const = ito_residual(p, c, constant_function(3, 5.0))
    exact_id = ito_residual(p, c, identity_function(3))
    rep = ito_convergence(c, SpiderState(0.0, 0.3, 1, 0.0), make_battery(3)[0],
                          [1e-3, 1e-4, 1e-5], T=0.5, n_paths=32, seed=707)
    vals = rep.estimates["mean_max_residual"]
    ok = rep.passed and exact_const == 0.0 and exact_id <= 1e-12
    _report(7, "pathwise chain-rule residual", ok,
            f"const={exact_const} identity={exact_id:.2e} "
            f"residuals over h(1e-3,1e-4,1e-5)={np.round(vals, 4).tolist()}")


def test_criterion_08_martingale_battery():
    c = _alpha_l_coefficients()
    battery = make_battery(2)
    assert len(battery) >= 5
    rep = martingale_residual(c, SpiderState(0.0, 0.0, 1, 0.0),
                              SimConfig(h=1e-4, T=0.5, n_paths=10_000, seed=808),
                              battery, 0.0, 0.5)
    means = np.asarray(rep.estimates["mean"])
    tol = 3 * np.asarray(rep.stderr["mean"]) + np.asarray(rep.estimates["budget"])
    _report(8, "compensated-process residual battery", rep.passed,
            f"means={np.round(means, 5).tolist()} tol={np.round(tol, 5).tolist()}")


def test_criterion_09_no_atom_at_vertex():
    deltas = [0.1, 0.05, 0.02, 0.01]
    c2 = constant_coefficients(2, sigma=1.0, b=0.0, alpha=[0.5, 0.5])
    res = simulate_batch(c2, SpiderState(0.0, 0.0, 1, 0.0),
                         SimConfig(h=2e-4, T=1.0, n_paths=20_000, seed=909))
    oracle = lambda d: 2.0 * normal_cdf(d) - 1.0
    rep_radial = atom_test(res.x, deltas, oracle=oracle, seed=909)
    c_l = build_coefficient_set({
        "I": 2, "b": ["-0.2", "0.1"], "sigma": ["1", "1"],
        "alpha": {"exprs": ["1+l", "1"], "mode": "renormalize"},
        "bounds": {"a_lower": 0.15, "sigma_lower": 0.5, "b_bound": 2.0,
                   "sigma_bound": 1.0, "alpha_lip": 1.0}})
    res2 = simulate_batch(c_l, SpiderState(0.0, 0.0, 1, 0.0),
                          SimConfig(h=2e-4, T=1.0, n_paths=20_000, seed=910))
    rep_spider = atom_test(res2.x, deltas, seed=910)
    _report(9, "no atom at the junction", rep_radial.passed and rep_spider.passed,
            f"radial p_hat={rep_radial.estimates['p_hat']} vs "
            f"oracle={np.round(rep_radial.details['oracle'], 5).tolist()}; "
            f"spider slopes={np.round(rep_spider.details['slopes'], 3).tolist()}")


def test_criterion_10_strong_markov_property():
    c = constant_coefficients(2, sigma=1.0, b=-0.5, alpha=[0.5, 0.5])
    cfg = SimConfig(h=5e-4, T=2.0, seed=1010)
    init = SpiderState(0.0, 1.0, 1, 0.0)
    spec = StoppingSpec("hitting", level=0.5)
    rep_x = strong_markov_test(c, spec, "x", 0.25, 5000, cfg, init)
    rep_l = strong_markov_test(c, spec, "l", 0.25, 5000, cfg, init)
    ok = rep_x.passed and rep_l.passed
    _report(10, "restart (strong Markov) property", ok,
            f"p_x={rep_x.estimates['p_value']:.4f} p_l={rep_l.estimates['p_value']:.4f} "
            f"censoring={rep_x.details['censored_frac']:.3f} (<0.2)")


def test_criterion_11_engineering_determinism(tmp_path):
    cfg = {
        "network": {
            "I": 3, "b": ["0"] * 3, "sigma": ["1"] * 3,
            "alpha": ["0.5", "0.3", "0.2"],
            "bounds": {"a_lower": 0.15, "sigma_lower": 0.5, "b_bound": 0.1,
                       "sigma_bound": 1.0, "alpha_lip": 0.1},
        },
        "sim": {"h": 1e-5, "T": 0.05, "n_paths": 1, "seed": 42,
                "delta_shell": 1e-3},
        "scatter": {"t": 0.0, "ell": 0.0, "delta": 0.02, "n": 10_000},
    }
    path = tmp_path / "c.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    outs = [tmp_path / d for d in ("o1", "o2", "o3")]
    assert cli_main(["scatter", "--config", str(path), "--out", str(outs[0])]) == 0
    assert cli_main(["scatter", "--config", str(path), "--out", str(outs[1])]) == 0
    assert cli_main(["scatter", "--config", str(path), "--out", str(outs[2]),
                     "--workers", "4"]) == 0
    payloads = [
        ((o / "scatter.csv").read_bytes(), (o / "scatter.json").read_bytes())
        for o in outs
    ]
    identical = payloads[0] == payloads[1] == payloads[2]
    _report(11, "byte-identical reruns, worker invariance", identical,
            f"rerun={'identical' if payloads[0] == payloads[1] else 'DIFFERS'}, "
            f"workers={'identical' if payloads[0] == payloads[2] else 'DIFFERS'}")


_FUNCTIONS = [("sin", 1), ("cos", 1), ("exp", 1), ("tanh", 1), ("sqrt", 1),
              ("abs", 1), ("min", 2), ("max", 2), ("clamp", 3)]

_MALFORMED = [
    "", "1 +", "(", ")", "1 2", "foo(1)", "min(1)", "clamp(1,2)", "sin()",
    "sin(,)", "x y", "-", "--", "@", "1/", "^2", "(1", "1)", "1..2", "1e",
    "1e+", "2 ** 3", "¹", "λ + 1", "max(1,", "t,", ",", "exp 2",
]


def _random_ast(r: random.Random, depth: int):
    if depth <= 0 or r.random() < 0.3:
        if r.random() < 0.5:
            return coeffexpr.Num(round(r.uniform(0, 9), 3))
        return coeffexpr.Var(r.choice("txl"))
    roll = r.random()
    if roll < 0.55:
        return coeffexpr.BinOp(r.choice("+-*/^"), _random_ast(r, depth - 1),
                               _random_ast(r, depth - 1))
    if roll < 0.75:
        return coeffexpr.Neg(_random_ast(r, depth - 1))
    name, arity = r.choice(_FUNCTIONS)
    return coeffexpr.Call(name, tuple(_random_ast(r, depth - 1) for _ in range(arity)))


def test_criterion_12_parser_round_trip_and_totality():
    r = random.Random(1205)
    failures = 0
    for _ in range(10_000):
        ast = _random_ast(r, 5)
        if coeffexpr.parse(coeffexpr.pretty(ast)) != ast:
            failures += 1
    positioned = 0
    for bad in _MALFORMED:
        try:
            coeffexpr.parse(bad)
        except coeffexpr.ParseError as exc:
            assert isinstance(exc.offset, int) and exc.offset >= 0
            positioned += 1
    ok = failures == 0 and positioned == len(_MALFORMED)
    _report(12, "expression language round-trip and totality", ok,
            f"10000 round-trips, {failures} failures; "
            f"{positioned}/{len(_MALFORMED)} malformed inputs rejected with offsets")
