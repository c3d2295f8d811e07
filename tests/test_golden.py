"""Golden outputs of the Euler kernel and of the evaluators built on it,
pinned as literal values.

The kernel values were recorded before fixed-horizon and absorption mode
were merged into one loop; the PDE, Feynman-Kac and residual values before
the ray generator and the vertex operator were written once; the forward
and three-ray PDE values before the solver marched time on the outside;
the CLI output digests before the subcommand runners handed their outputs
to one writer; the unifying family's digests before a family whose rays
differ only in their numbers was evaluated in one pass over all rows;
the manufactured outputs on coefficients that vary with t, x and l before
the manufactured sources were evaluated in one pass over all rows.
Any refactor must reproduce them.  Floats are compared at 1e-12 relative (not as byte
digests, so other CPUs and numpy builds pass too), integer and bool arrays
exactly.  The CLI files are byte-stable by contract, so they are pinned by
sha256, and so are the shell-policy stored paths, whose departure and
shell-entry redraws must land on the same grid points bit for bit, and the
unifying family's results and the varying-coefficient manufactured
outputs, which evaluating rays in one pass must not move by a bit.
"""

import hashlib
import json

import numpy as np

from spidersim.cli import SUBCOMMANDS, main
from spidersim.coeffexpr import build_coefficient_set
from spidersim.feynman_kac import FKProblem, _per_path_values, fk_estimate
from spidersim.network import CoefficientBounds, CoefficientSet, TestFunction, TfTerm, constant_coefficients
from spidersim.pde import (PdeGrid, PdeProblem, PdeSolution, flat_profile_poly, manufactured_backward,
                           residual, solve)
from spidersim.simulator import (SimConfig, SpiderState, first_hit, run_batch, run_paths, simulate_batch,
                                 simulate_path)
from spidersim.verify import ito_residual, make_battery, martingale_residual, martingale_residual_paths

RTOL = 1e-12
N = 8


def _coefficients() -> CoefficientSet:
    """Three rays; drift, diffusion and weights depend on t, x and l."""
    def alpha(t, l):
        raw = np.stack([1.0 + np.tanh(l), np.ones_like(l), 1.0 + 0.5 * np.sin(t) + 0 * l], axis=-1)
        return raw / raw.sum(axis=-1, keepdims=True)

    return CoefficientSet(
        I=3,
        b=(lambda t, x, l: 0.5 * np.tanh(x) - 0.2 * l + 0 * t,
           lambda t, x, l: -0.3 + 0 * (t + x + l),
           lambda t, x, l: 0.1 * np.sin(t) + 0 * (x + l)),
        sigma=(lambda t, x, l: 1.0 + 0.2 * np.sin(t) + 0 * (x + l),
               lambda t, x, l: 1.2 + 0 * (t + x + l),
               lambda t, x, l: 0.8 + 0.1 * np.tanh(l) + 0 * (t + x)),
        alpha=alpha,
        bounds=CoefficientBounds(a_lower=0.1, sigma_lower=0.5, b_bound=2.0,
                                 sigma_bound=1.5, alpha_lip=1.0),
    )


def _cfg(policy, seed, T, n=N):
    if policy == "shell":
        return SimConfig(h=1e-4, T=T, delta_shell=0.05, policy="shell", n_paths=n, seed=seed)
    return SimConfig(h=1e-3, T=T, policy="reflection", n_paths=n, seed=seed)


def _batch_cases(c):
    for policy, T in (("reflection", 0.05), ("shell", 0.01)):
        for x0 in (0.0, 0.1):
            cfg = _cfg(policy, seed=101, T=T)
            yield f"{policy}-x0={x0}", simulate_batch(c, SpiderState(0.0, x0, 2, 0.0), cfg)


def _first_hit_cases(c):
    for policy, T, level in (("reflection", 0.02, 0.15), ("shell", 0.01, 0.08)):
        cfg = _cfg(policy, seed=202, T=T)
        yield f"first_hit-{policy}", first_hit(c, SpiderState(0.0, 0.0, 1, 0.1), cfg, level)


def _absorbing_cases(c):
    # paths that start at the junction, inside the level, at it and past it
    for policy, T, level in (("reflection", 0.02, 0.15), ("shell", 0.01, 0.08)):
        cfg = _cfg(policy, seed=303, T=T)
        x0 = np.array([0.0, 0.02, level, level + 0.1, 0.5 * level, 0.0, 0.99 * level, 0.0])
        res = run_batch(c, cfg, K=cfg.n_steps(), t0=0.0, x0=x0, edge0=3, l0=0.05,
                        stop_level=level)
        yield f"absorbing-{policy}", res


def _stored_path(c):
    cfg = SimConfig(h=1e-3, T=0.04, seed=11)
    return simulate_path(c, SpiderState(0.0, 0.0, 1, 0.0), cfg, path_index=3)


def _stored_shell_paths(c):
    """N shell-policy paths from the vertex: a departure redraw at step 0,
    then shell exits at delta_shell and re-entries that redraw the ray."""
    cfg = _cfg("shell", seed=404, T=0.02)
    return cfg, run_paths(c, SpiderState(0.0, 0.0, 2, 0.0), cfg, 0, N, store=True).paths


def _manufactured():
    """The manufactured backward problem of test_pde (weights 1 + l : 1)."""
    R = K = 2.0
    c = build_coefficient_set({
        "I": 2, "b": ["0", "0"], "sigma": ["1", "1"],
        "alpha": {"exprs": ["1 + l", "1"], "mode": "renormalize"},
        "bounds": {"a_lower": 0.15, "sigma_lower": 0.5, "b_bound": 1.0,
                   "sigma_bound": 1.0, "alpha_lip": 1.0},
    })
    truth = TestFunction(I=2, terms=(
        TfTerm(edge_coeffs=(1.0, -0.5), x_poly=flat_profile_poly(R, 1),
               l_poly=(1.0, 0.3), time_poly=(1.0, -0.4)),
        TfTerm(edge_coeffs=(0.4, 0.4), x_poly=flat_profile_poly(R, 2),
               l_poly=(0.5, 0.0, 0.1), sin_omega=1.3, sin_phase=0.4),
        TfTerm(edge_coeffs=(1.0, 1.0), x_poly=(1.0,), l_poly=(0.2, 0.5),
               time_poly=(0.5, 0.2)),
    ))
    return c, truth, manufactured_backward(c, truth, 1.0, R, K)


def _forward_problem():
    """The forward problem with a zeroth-order term of test_pde's maximum principle test."""
    vals = np.random.default_rng(8).uniform(0.5, 2.0, 4)

    def g(x, l, a=vals[0], b=vals[1]):
        return a + b * np.cos(np.asarray(x)) * np.exp(-np.asarray(l))

    return PdeProblem(coefficients=constant_coefficients(2), T=0.5, R=1.5, K=1.0, g_edge=(g, g),
                      c_edge=tuple(lambda t, x, l: 0.3 + 0.0 * np.asarray(x) for _ in range(2)),
                      direction="forward")


def _three_ray_problem():
    """Three rays, a vertex source and no l = K data: the top slice is closed
    by dropping the dl term (test_pde's shared vertex value test)."""
    return PdeProblem(coefficients=constant_coefficients(3, alpha=[0.5, 0.3, 0.2]),
                      T=0.5, R=1.5, K=1.0,
                      g_edge=tuple(lambda x, l: np.asarray(x) * 0.0 + np.asarray(l) * 0.1
                                   for _ in range(3)),
                      h0=lambda t, l: 1.0 + 0.0 * np.asarray(t))


def _smooth_field(prob, grid):
    """A grid function that solves nothing and differs between rays."""
    tg, xg, lg = grid.axes(prob)
    TT, XX, LL = np.meshgrid(tg, xg, lg, indexing="ij")
    return np.stack([(1.0 + 0.5 * TT) * np.cos(XX + 0.3 * e) * np.exp(-LL)
                     for e in range(prob.coefficients.I)])


def _expression_coefficients():
    """Three rays built from config expressions in (t, x, l)."""
    return build_coefficient_set({
        "I": 3,
        "b": ["0.3*tanh(x) - 0.1*l", "-0.2", "0.1*sin(t)"],
        "sigma": ["1 + 0.2*sin(t)", "1.2", "0.8 + 0.1*tanh(l)"],
        "alpha": {"exprs": ["1 + tanh(l)", "1", "1 + 0.5*sin(t)"], "mode": "renormalize"},
        "bounds": {"a_lower": 0.1, "sigma_lower": 0.5, "b_bound": 2.0,
                   "sigma_bound": 1.5, "alpha_lip": 1.0},
    })


def _varying_manufactured():
    """A manufactured problem on _expression_coefficients, whose drift and
    diffusion vary with t, x and l and differ between the rays; the truth's
    ray-dependent terms vanish at x = 0."""
    R = K = 1.5
    c = _expression_coefficients()
    truth = TestFunction(I=3, terms=(
        TfTerm(edge_coeffs=(1.0, -0.5, 0.7), x_poly=flat_profile_poly(R, 1),
               l_poly=(1.0, 0.3), time_poly=(1.0, -0.4)),
        TfTerm(edge_coeffs=(0.3, 0.6, -0.2), x_poly=flat_profile_poly(R, 2),
               l_poly=(0.5, 0.0, 0.1), sin_omega=1.3, sin_phase=0.4),
        TfTerm(edge_coeffs=(1.0, 1.0, 1.0), x_poly=(1.0,), l_poly=(0.2, 0.5),
               time_poly=(0.5, 0.2)),
    ))
    return c, manufactured_backward(c, truth, 1.0, R, K)


def _varying_manufactured_outputs():
    """_per_path_values from the vertex region, solve(...).values and the
    residual of that solution, each as bytes."""
    c, prob = _varying_manufactured()
    fkp = FKProblem(g_edge=prob.g_edge, h_edge=prob.h_edge, h0=prob.h0)
    cfg = SimConfig(h=1e-2, T=1.0, n_paths=64, seed=21)
    vals = _per_path_values(fkp, c, SpiderState(0.5, 0.05, 3, 0.1), cfg, 0, cfg.n_paths)
    sol = solve(prob, PdeGrid(12, 12, 6))
    r = residual(sol)
    yield "per_path_values", vals.tobytes()
    yield "solve", sol.values.tobytes()
    yield "residual", np.array([r[k] for k in sorted(r)]).tobytes()


def _unifying_coefficients():
    """Three rays shaped like the benchmark network: drift a_i*tanh(x),
    diffusion 1 + b_i*sin(t), weights 1 + c*tanh(l), 1, 1 renormalized.
    Each coefficient's trees differ between the rays only in their numbers."""
    return build_coefficient_set({
        "I": 3,
        "b": ["0.4*tanh(x)", "0.1*tanh(x)", "0.25*tanh(x)"],
        "sigma": ["1 + 0.15*sin(t)", "1 + 0.05*sin(t)", "1 + 0.1*sin(t)"],
        "alpha": {"exprs": ["1 + 0.5*tanh(l)", "1", "1"], "mode": "renormalize"},
        "bounds": {"a_lower": 0.2, "sigma_lower": 0.5, "b_bound": 0.5,
                   "sigma_bound": 1.2, "alpha_lip": 1.0},
    })


def _unifying_cases(c):
    """Terminal states and absorbing first passages from the junction, both policies."""
    for policy, T, level in (("reflection", 0.05, 0.15), ("shell", 0.01, 0.08)):
        cfg = _cfg(policy, seed=505, T=T, n=64)
        res = simulate_batch(c, SpiderState(0.0, 0.0, 2, 0.1), cfg)
        yield f"batch-{policy}", (res.t, res.x, res.edge, res.l)
        res = first_hit(c, SpiderState(0.0, 0.0, 1, 0.2), cfg, level)
        yield f"first_hit-{policy}", (res.theta, res.edge, res.l, res.censored)


def _check(actual, expected):
    actual = np.asarray(actual)
    expected = np.asarray(expected, dtype=actual.dtype)
    if actual.dtype.kind == "f":
        np.testing.assert_allclose(actual, expected, rtol=RTOL, atol=0)
    else:
        np.testing.assert_array_equal(actual, expected)


def test_simulate_batch_terminal_states():
    got = dict(_batch_cases(_coefficients()))
    assert got.keys() == BATCH.keys()
    for name, (x, edge, l) in BATCH.items():
        res = got[name]
        for a, e in ((res.x, x), (res.edge, edge), (res.l, l)):
            _check(a, e)


def test_first_hit_and_absorption():
    c = _coefficients()
    got = dict(_first_hit_cases(c)) | dict(_absorbing_cases(c))
    assert got.keys() == FIRST_HIT.keys()
    for name, (theta, edge, l, censored) in FIRST_HIT.items():
        res = got[name]
        for a, e in ((res.theta, theta), (res.edge, edge), (res.l, l), (res.censored, censored)):
            _check(a, e)


def test_stored_path():
    p = _stored_path(_coefficients())
    for key, e in PATH.items():
        _check(getattr(p, key), e)


def test_stored_shell_paths():
    cfg, paths = _stored_shell_paths(_coefficients())
    x = np.stack([p.x for p in paths])
    assert (x == cfg.delta_shell).any() and np.stack([p.contact for p in paths])[:, 1:].any()
    for key, digest in SHELL_PATHS.items():
        got = np.stack([getattr(p, key) for p in paths])
        assert hashlib.sha256(got.tobytes()).hexdigest() == digest, key


def test_unifying_family_outputs():
    got = {name: hashlib.sha256(b"".join(a.tobytes() for a in arrays)).hexdigest()
           for name, arrays in _unifying_cases(_unifying_coefficients())}
    assert got == UNIFYING


def test_pde_manufactured_solution_and_residual():
    c, truth, prob = _manufactured()
    grid = PdeGrid(16, 16, 8)
    sol = solve(prob, grid)
    _check(sol.values[:, ::8, ::4, ::4].ravel(), PDE["values"])
    assert max(residual(sol).values()) < 1e-12
    tg, xg, lg = grid.axes(prob)
    TT, XX, LL = np.meshgrid(tg, xg, lg, indexing="ij")
    exact = np.stack([truth.value(e, TT, XX, LL) for e in (1, 2)])
    r = residual(PdeSolution(values=exact, grid=grid, problem=prob))
    _check([r[k] for k in sorted(r)], PDE["truncation"])


def test_pde_forward_and_three_ray_problems():
    cases = ((_forward_problem(), PdeGrid(10, 10, 8), np.s_[::5, ::5, ::4]),
             (_three_ray_problem(), PdeGrid(8, 8, 6), np.s_[::4, ::4, ::3]))
    for (prob, grid, sample), key in zip(cases, ("forward", "three_ray")):
        sol = solve(prob, grid)
        # the rays carry identical data, so every ray holds the same values
        for e in range(prob.coefficients.I):
            _check(sol.values[e][sample].ravel(), PDE[key])
        assert max(residual(sol).values()) < 1e-12
        r = residual(PdeSolution(values=_smooth_field(prob, grid), grid=grid, problem=prob))
        _check([r[k] for k in sorted(r)], PDE[key + "_field"])


def test_fk_estimate_on_manufactured_sources():
    c, _, prob = _manufactured()
    fkp = FKProblem(g_edge=prob.g_edge, h_edge=prob.h_edge, h0=prob.h0)
    est = fk_estimate(fkp, c, (0.8, 0.7, 2, 0.3), SimConfig(h=1e-2, T=1.0, n_paths=200, seed=5))
    _check([est.mean, est.stderr], PDE["fk"])


def test_manufactured_outputs_on_varying_coefficients():
    got = {name: hashlib.sha256(raw).hexdigest() for name, raw in _varying_manufactured_outputs()}
    assert got == VARYING_MANUFACTURED


def test_battery_residuals_on_expression_coefficients():
    c = _expression_coefficients()
    battery = make_battery(3)
    rep = martingale_residual(c, SpiderState(0.0, 0.0, 1, 0.0),
                              SimConfig(h=1e-3, T=0.05, n_paths=40, seed=9), battery, 0.01, 0.04)
    _check(rep.estimates["mean"], BATTERY["martingale_mean"])
    _check(rep.stderr["mean"], BATTERY["martingale_stderr"])
    p = simulate_path(c, SpiderState(0.0, 0.0, 2, 0.1), SimConfig(h=1e-3, T=0.05, seed=13),
                      path_index=1)
    assert p.contact.any()  # the vertex terms take part
    _check([ito_residual(p, c, f) for f in battery], BATTERY["ito"])
    _check([martingale_residual_paths([p], c, f, 0.0, 0.05)[0] for f in battery],
           BATTERY["paths"])


def _cli_config():
    """Three rays and every subcommand's block, small enough for Tier-1."""
    g = ["x*(1 - x/4)", "x*(1 - x/4)", "0"]
    h = ["0.5", "0.5", "1"]
    return {
        "network": {
            "I": 3,
            "b": ["0.3*tanh(x) - 0.1*l", "-0.2", "0.1*sin(t)"],
            "sigma": ["1 + 0.2*sin(t)", "1.2", "0.8 + 0.1*tanh(l)"],
            "alpha": {"exprs": ["1 + 0.5*tanh(l)", "1", "1"], "mode": "renormalize"},
            "bounds": {"a_lower": 0.2, "sigma_lower": 0.5, "b_bound": 1.0,
                       "sigma_bound": 1.5, "alpha_lip": 1.0},
        },
        "sim": {"h": 1e-4, "T": 0.05, "n_paths": 200, "seed": 5, "delta_shell": 1e-3},
        "init": {"x": 0.0, "edge": 1},
        "scatter": {"t": 0.0, "ell": 0.5, "delta": 0.02, "n": 10000},
        "exitstats": {"t": 0.0, "ell": 0.0, "deltas": [0.04, 0.02], "n": 1000},
        "atom": {"deltas": [0.1, 0.05], "oracle": "half_normal"},
        "martingale": {"s": 0.0, "s_prime": 0.05},
        "ito": {"h_list": [5e-3, 1e-3], "n_paths": 4},
        "markov": {"spec": {"kind": "fixed_time", "time": 0.01}, "functional": "x",
                   "lag": 0.02, "n": 300},
        "localtime": {"eps_list": [0.2, 0.1], "n_paths": 20},
        "pde": {"R": 2.0, "K": 1.0, "grid": {"M": 8, "J": 8, "P": 4},
                "g": g, "h": h, "h0": "0.25 + 0.1*l"},
        "fk": {"g": g, "h": h, "h0": "0.25 + 0.1*l",
               "queries": [[0.0, 0.2, 1, 0.0], [0.01, 0.1, 3, 0.2]]},
        "fk_compare": {"R": 2.0, "K": 1.0, "grid": {"M": 8, "J": 8, "P": 4}},
    }


def test_cli_outputs(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(_cli_config()), encoding="utf-8")
    assert set(CLI) == set(SUBCOMMANDS)
    for sub, (code, digests) in CLI.items():
        out = tmp_path / sub
        assert main([sub, "--config", str(path), "--out", str(out)]) == code, sub
        got = {f.name: hashlib.sha256(f.read_bytes()).hexdigest()
               for f in out.iterdir() if f.name != "run_meta.json"}
        assert got == digests, sub


nan = float("nan")

BATCH = {
    "reflection-x0=0.0": ([0.42172201957230904, 0.04484467723411599, 0.039876080743514605, 0.15447109439269507, 0.13319055312949366, 0.20035876075655218, 0.07854132657804938, 0.25062052082893244],
        [1, 1, 3, 2, 3, 1, 3, 1],
        [0.08246077336318386, 0.3131583987799933, 0.5011048808848783, 0.2815397419835357, 0.16762173629690796, 0.03958168169515201, 0.26811260520344926, 0.34264630363922044]),
    "reflection-x0=0.1": ([0.4941438604130675, 0.053441866655667, 0.03516297186254026, 0.13495091605565324, 0.12464058221772574, 0.2690741558980929, 0.0629401440960255, 0.26034422821996306],
        [2, 1, 3, 2, 3, 2, 3, 1],
        [0.0, 0.25175560110871054, 0.3953097951735063, 0.157476526073703, 0.07229361175024589, 0.0, 0.16071904521088864, 0.2904916719167272]),
    "shell-x0=0.0": ([0.15969145571742457, 0.08799044874067177, 0.025415182059761926, 0.07556711086898733, 0.08397288293596021, 0.0956985871288941, 0.045734649052774815, 0.10854989937702689],
        [1, 2, 2, 2, 1, 3, 1, 3],
        [0.02125758213132182, 0.24291143013154984, 0.20747985306759453, 0.09584150097326491, 0.0561443096724086, 0.051746794170578606, 0.1745662407076851, 0.0840017785890217]),
    "shell-x0=0.1": ([0.27329525823070433, 0.08799044874067177, 0.024248291262521218, 0.08189201128665292, 0.13998079653572063, 0.18423914653712992, 0.0440446835676653, 0.10809173567854363],
        [2, 2, 2, 2, 2, 2, 1, 3],
        [0.0, 0.13656669614948827, 0.10256911168192287, 0.0, 0.0, 0.0, 0.09368000029183818, 0.020545927902665025]),
}

FIRST_HIT = {
    "first_hit-reflection": ([nan, nan, nan, 0.006, 0.012000000000000004, nan, nan, nan],
        [0, 0, 0, 2, 1, 0, 0, 0],
        [nan, nan, nan, 0.1, 0.1, nan, nan, nan],
        [True, True, True, False, False, True, True, True]),
    "first_hit-shell": ([nan, nan, nan, 0.008000000000000007, 0.0051, 0.008000000000000007, 0.0049, 0.009799999999999996],
        [0, 0, 0, 2, 1, 3, 2, 1],
        [nan, nan, nan, 0.1690331739248828, 0.1, 0.12708711727529592, 0.1965331558171393, 0.35929355500931026],
        [True, True, True, False, False, False, False, False]),
    "absorbing-reflection": ([nan, nan, 0.0, 0.0, 0.014000000000000005, 0.005, 0.003, 0.010000000000000002],
        [0, 0, 3, 3, 3, 2, 3, 1],
        [nan, nan, 0.05, 0.05, 0.05, 0.13430258165982842, 0.05, 0.06767611078784966],
        [True, True, False, False, False, False, False, False]),
    "absorbing-shell": ([0.005600000000000002, nan, 0.0, 0.0, 0.0019000000000000006, nan, 0.00030000000000000003, 0.002799999999999999],
        [2, 0, 3, 3, 3, 0, 3, 1],
        [0.19741440162817198, nan, 0.05, 0.05, 0.05, nan, 0.05, 0.05558039121755724],
        [False, True, False, False, False, True, False, False]),
}

PATH = {
    "x": [0.0, 0.025125891080879616, 0.08671152504173842, 0.031243571961805397, 0.05396964389306854, 0.05926953048366954, 0.06642261493231577, 0.144575201080481, 0.17163966957908378, 0.1619749337771675, 0.2141904872591423, 0.23837829243497904, 0.2784932906368151, 0.27285665012540533, 0.19184227118519975, 0.16451901145613015, 0.20168253007528986, 0.2214462116493342, 0.2370277044363826, 0.2429234307065116, 0.21220238213168421, 0.18732787840616116, 0.11595013961791271, 0.10847426507280873, 0.11444934924786629, 0.14863188826504517, 0.13911543514011968, 0.1373217848755834, 0.12234153353553945, 0.07689572303652571, 0.08841193995988515, 0.05654330184362622, 0.060079242039992826, 0.08043128543412742, 0.016183815204828922, 0.016662035490690164, 0.001522480108150542, 0.038483804692814455, 0.06721264458155919, 0.061247726983584494, 0.055191887141485874],
    "edge": [2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2],
    "l": [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.07696760938562891, 0.07696760938562891, 0.07696760938562891, 0.07696760938562891],
    "contact": [False, False, False, False, False, False, False, False, False, False, False, False, False, False, False, False, False, False, False, False, False, False, False, False, False, False, False, False, False, False, False, False, False, False, False, False, False, True, False, False, False],
    "gauss": [0.6700310612911672, 1.630829647998178, -1.4538032131824128, 0.6067902739138634, 0.1475699688744502, 0.1964060204275193, 2.0674071713231505, 0.721117061795941, -0.24678245683149044, 1.3839063465618884, 0.6453103271175342, 1.0650287162450949, -0.14063282557983794, -2.1270106448081427, -0.7121254212180382, 0.9872504000055905, 0.5287244335194363, 0.41851408208840324, 0.16327172310456012, -0.801665019225615, -0.6475950345078848, -1.8730628792113464, -0.18910089805127744, 0.16536298752050535, 0.9086946899992437, -0.24287486519117496, -0.03936114053039663, -0.3868585904856498, -1.189696566593552, 0.3113846567036925, -0.8319066589748803, 0.1010858999059335, 0.5442291288508316, -1.685163804419943, 0.020507905205573895, -0.3910566206086373, -1.0463524782864573, 0.7649770990065186, -0.1492836863897511, -0.15167969790146296],
}

# sha256 of np.stack over the N paths of _stored_shell_paths, per field
SHELL_PATHS = {
    "x": "f1ce8b6578c89e6b57ad015958698c1f7171c9a78ed3645bbb1be1662d3547ae",
    "edge": "d819eab3032e8fc138a57d17bfff52e2cae524c45e72892d5259486e8edd5e32",
    "l": "8a9d7bc5fd178445e857725679213b178c02b94788eb286692f32a80ea14f558",
    "contact": "30b5b36a1037da33401760c4bc7faf56233ac31982ba08c6fbc2319739cb9d79",
    "gauss": "47c38fc286982302e6185d1b4179b3eeed9cba7fbeb4bea63d0564cd4af87978",
}

# sha256 of the concatenated result arrays of each case of _unifying_cases
UNIFYING = {
    "batch-reflection": "81bc6ee7fc84dfe305c9a5cb98471269d04fc480b28bb80936d4c20be32b0f7e",
    "first_hit-reflection": "43a75e468ad7b5c5d3e19f66d22223eb22c94965e2d611c9f88980ab57e1bf7d",
    "batch-shell": "e00643e1514d38a264feff2a9ca5188ca2b4f53480c8716dedc10131f928a7c7",
    "first_hit-shell": "1c85e50c72feb5ed56f7ca3f6d8a9172b0a010fe0ba1e7789199d01aa30a4bc7",
}

PDE = {
    # solve(...).values[:, ::8, ::4, ::4].ravel() on PdeGrid(16, 16, 8)
    "values": [0.10008489105872374, 0.34532941508755277, 0.6, 0.5537400481979707, 0.9355640359080476,
               1.3292063756731487, 0.8985647721401698, 1.3820700512731587, 1.8934604021540764, 1.1187800647720008,
               1.665795725594155, 2.2577144286350035, 1.1965112146771684, 1.765523608244432, 2.3869208043081525,
               0.12709807776988336, 0.42436267763932406, 0.72, 0.507868273384043, 0.9189785980761834,
               1.3450567419195512, 0.8333498380606964, 1.335620244924529, 1.8881815741425643, 1.0605318030266127,
               1.6235473881503322, 2.271306406365577, 1.1461417450462499, 1.731337266092337, 2.4163631482851287,
               0.13999999999999999, 0.48999999999999994, 0.84, 0.44381936710218617, 0.8808332405226234,
               1.3343748607839352, 0.7222219747269958, 1.233666369672395, 1.7979995545085927, 0.9256245823518054,
               1.4889994988221664, 2.1416242482332497, 1.0044439494539916, 1.58733273934479, 2.2759991090171847,
               0.10008489105872374, 0.34532941508755277, 0.6, -0.1025099518020294, 0.0824390359080475,
               0.27920637567314877, -0.22643522785983053, -0.08042994872684148, 0.09346040215407603, -0.28746993522799924,
               -0.16232927440584466, 0.00771442863500349, -0.30348878532283136, -0.18447639175556746, -0.01307919569184779,
               0.12709807776988336, 0.42436267763932406, 0.72, -0.017131726615957174, 0.23647859807618357,
               0.5050567419195513, -0.06665016193930383, 0.16562024492452904, 0.448181574142564, -0.06446819697338735,
               0.1610473881503325, 0.4713064063655768, -0.053858254953749775, 0.17133726609233715, 0.49636314828512806,
               0.13999999999999999, 0.48999999999999994, 0.84, 0.05006936710218618, 0.3689582405226234,
               0.7043748607839351, 0.04722197472699585, 0.3561663696723949, 0.7179995545085924, 0.08187458235180542,
               0.3921244988221665, 0.7916242482332498, 0.10444394945399169, 0.4173327393447899, 0.835999109017185],
    # residual() of the exact solution sampled on the grid, keys sorted
    "truncation": [0.008639078572603853, 0.022449787377822328, 0.011495859706327466, 0.020717308127160883],
    "fk": [0.08369719036284952, 0.0022265608684379503],
    # solve(...).values[e, ::5, ::5, ::4].ravel() of _forward_problem on PdeGrid(10, 10, 8)
    "forward": [2.9713736799152297, 2.191944257427795, 1.7191964156070547, 2.4398720644961163,
                1.8695722319893102, 1.5236678983449528, 1.1305828174957644, 1.0754481612515296,
                1.0420073018266847, 2.0139364968247424, 1.638899692886518, 1.4995751147936527,
                2.1086593043062902, 1.6453716912441398, 1.3759633525356298, 1.667817138967404,
                1.3737296267269454, 1.1965118437072613, 1.675927059939509, 1.4229311431295775,
                1.3373934344492375, 1.8568752836744724, 1.4758027228237411, 1.2667628712924481,
                1.7059404522842487, 1.3733935593412898, 1.1777442965593026],
    # residual() of _smooth_field for _forward_problem, keys sorted
    "forward_field": [0.6397583714948754, 1.4819987694850991, 0.924521446428285, 1.4505239276410746],
    # solve(...).values[e, ::4, ::4, ::3].ravel() of _three_ray_problem on PdeGrid(8, 8, 6)
    "three_ray": [0.7058993015778467, 0.7386343178113295, 0.7546950409915261, 0.14822493130717201,
                  0.19485924575882901, 0.2367045922791058, 0.03577506813309553, 0.08500752034804893,
                  0.132905464065528, 0.5300436086326027, 0.5679573696920678, 0.5883568146837386,
                  0.05409555613235628, 0.10298936226407526, 0.14965591226583635, 0.005880345485295459,
                  0.05576570532640781, 0.10539082682757535, 0.0, 0.05, 0.1, 0.0, 0.05, 0.1,
                  0.0, 0.05, 0.1],
    "three_ray_field": [0.026382549754002577, 0.10570608447943919, 0.27833681257752946,
                        0.47526387923588187],
}

# sha256 of each output of _varying_manufactured_outputs
VARYING_MANUFACTURED = {
    "per_path_values": "158cf90b721e790e1d1160c25e21c51c9c3f2f27bfcdc72bfcbc52c48808f732",
    "solve": "e172cfd392e3320a80b98c348162ed03106779e71b52256dd9d4bd6d96252a28",
    "residual": "3f8e0702ea55801980ccd89ab932a0e896ff9795a0a3f88cacdba99c001ae00a",
}

BATTERY = {
    "martingale_mean": [-0.01119901304812898, -0.01225442784420352, 0.004287218209539874, -0.002805600733651359, -0.006531922322529292],
    "martingale_stderr": [0.0291652970047742, 0.006925660587508741, 0.00460288639537903, 0.01159002575693733, 0.017013721591758776],
    "ito": [0.0050058985213069646, 0.0018179830166113742, 0.00972230325901458, 0.003073428763832056, 0.0032912900628441315],
    "paths": [-0.019671462753189442, 0.0433299891550111, 0.024200994822249855, -0.016152543373905287, -0.020290331541035253],
}

# exit code and sha256 of every file but run_meta.json, per subcommand of _cli_config
CLI = {
    "simulate": (0, {
        "simulate.csv": "43348f67c80b8a872b4de4df528bb8c1a60d47953e7a726d3abb7dc7b4c046ad",
        "simulate.json": "cb3ae1322471c0a833c1e11749301d537ab4d5f1dd3cac6a22b7a6be14d546d2"}),
    "localtime": (0, {
        "localtime.csv": "272af0414829b239c37ad68911c233f4ab79cceb02dbc9c65e2fc77fd2476995",
        "localtime.json": "99ec02e5808ce7955ef99520a022a159f90b888dd0c22f9ff35cfd4a1e8727f3"}),
    "scatter": (1, {
        "scatter.csv": "3238fddd30a3b65d515ebca983d5f8940d97959c99a7dac61a5bd2b0638a7702",
        "scatter.json": "583f81c35b3438a57d07b8481642598ea9c49856aa6d69b15d24126c2f032ce0"}),
    "exitstats": (1, {
        "exitstats.csv": "00f20698f2f231e0feefbc144178c4841e06a49523d0e5852cadceb4a2394d1e",
        "exitstats.json": "cec1ded97dc0fb57eb7b2b8f58515fc05a3585106e1a159f6053befd802291a1"}),
    "atom": (0, {
        "atom.csv": "d5359067e47b7feeb9acf2e10b375a8b33bb49d59a38bbfc612324b29ffca7ee",
        "atom.json": "dba20799dfa2c5fca27c4bc5261f45e72ad9b450f6c04374fc84757caa5526f0"}),
    "martingale": (0, {
        "martingale.csv": "10c985ccdd4753326e737611981dd872da55385a56f972488a981ffa7a1a2737",
        "martingale.json": "d8f4e48f747f90292d59ae6aaa68c6dd8e4deea084ede7303133b148e2bcdb30"}),
    "ito": (0, {
        "ito.csv": "7df0a541f660511fb49af4bcdafb0365208f80e207bd9230d22b877510457513",
        "ito.json": "e493bfdf21c5599da3dd681adf0599e2e8103db80b743cc4235462ce9bc86268"}),
    "markov": (0, {
        "markov.csv": "1fe178002856e65a8bcd8903b6ad379896e2d3041ef53379941523af8cbf6921",
        "markov.json": "147024778bf4d756dd42bdc9b92d21cc81be1309a8c556e41451b617f4b40a31"}),
    "pde": (0, {
        "pde.csv": "c4f538fa5567126a03d368cddb695985e61242317924c47cd113924e9f4d8bec",
        "pde.json": "228f73213484d5ace991e84aa68733e39e17cd1570fd02800a7093c9d9d552ae"}),
    "fk": (0, {
        "fk.csv": "9a2970481a9cc10f1b275de71656756ed065f860cbc097559b107380dddde66b",
        "fk.json": "2854374a82c86a8765527989affe4f2e798e15339ecef27fb6deb39fbf8cd85b"}),
    "fk-compare": (0, {
        "fk_compare.csv": "00eec6a0d5dea0b2c774dbf4846629d062f31b2f0bae807c84adcdff9a2f3489",
        "fk_compare.json": "086eea82fcb51b193fa1a3c74ae417421b74d02e9e989036d3feeb6a862a778a"}),
    "validate": (0, {
        "validate.csv": "f55e039f81d469c457d2c001a67fa519a45b8e02f7b4eb97f1fb8849453c23d2",
        "validate.json": "973e8467c0ca49e39d9d2d8f89cce9f03c9025a665fbf71c4c07308199a6796b"}),
}
