import math

import numpy as np
import pytest

from spidersim import simulator, verify
from spidersim.coeffexpr import build_coefficient_set
from spidersim.network import CoefficientSet, NetworkError, constant_coefficients, generator
from spidersim.simulator import (SimConfig, SimulationError, SpiderState, run_paths,
                                 simulate_batch, simulate_path)
from spidersim.verify import (
    DEFAULT_BIAS_CONSTANT,
    EstimatorReport,
    StoppingSpec,
    atom_test,
    calibrate_bias_constant,
    constant_function,
    identity_function,
    ito_convergence,
    ito_residual,
    ks_2samp,
    make_battery,
    martingale_residual,
    martingale_residual_paths,
    mean_exit_stats,
    normal_cdf,
    scattering_distribution,
    strong_markov_test,
)


@pytest.mark.parametrize("n", [1, 7, 2000])
def test_battery_generator_at_one_time_equals_the_rows_at_that_time(n):
    """The battery's time factors (polynomial and sine) computed once, on
    t[:1], broadcast to the bits of the generator computed on every row, as
    martingale_residual uses them."""
    rng = np.random.default_rng(n)
    edge = rng.integers(1, 4, n)
    x, l, b = rng.uniform(0.0, 2.0, (3, n))
    sigma = rng.uniform(0.5, 1.5, n)
    t = np.full(n, rng.uniform(0.0, 1.0))
    for f in make_battery(3):
        once = generator(f, edge, t[:1], x, l, b, sigma)
        assert once.shape == (n,)
        assert np.array_equal(once, generator(f, edge, t, x, l, b, sigma))


def _c(I=2, alpha=None, b=0.0):
    return constant_coefficients(I, sigma=1.0, b=b, alpha=alpha)


def test_ito_residual_exact_for_constant_and_identity():
    c = _c()
    p = simulate_path(c, SpiderState(0.0, 0.2, 1, 0.0), SimConfig(h=1e-3, T=1.0, seed=3))
    assert ito_residual(p, c, constant_function(2, 4.0)) == 0.0
    assert ito_residual(p, c, identity_function(2)) < 1e-12
    assert p.contact.any()  # the identity check covered vertex visits


@pytest.mark.parametrize("fused", [False, True])
@pytest.mark.parametrize("label", [0, 3])
def test_a_stored_ray_label_outside_the_family_is_an_error(fused, label):
    """A table or a fused evaluator indexes by label, where label 0 would
    silently read ray I: the stored path's labels are checked first."""
    c = _c() if not fused else build_coefficient_set({
        "I": 2, "b": ["0.1*tanh(x)", "0.2*tanh(x)"], "sigma": ["1 + 0*x", "1.5 + 0*x"],
        "alpha": ["0.5", "0.5"], "bounds": {"sigma_bound": 1.5}})
    assert c.b_rows is not None and all(map(callable, c.b)) == fused
    p = simulate_path(c, SpiderState(0.0, 0.2, 1, 0.0), SimConfig(h=1e-3, T=0.01, seed=3))
    p.edge[3] = label
    with pytest.raises(NetworkError, match=r"outside 1\.\.2"):
        ito_residual(p, c, identity_function(2))


def test_ito_residual_shrinks_with_h_on_matched_skeletons():
    c = _c(I=3, alpha=[0.5, 0.3, 0.2])
    f = make_battery(3)[0]
    rep = ito_convergence(c, SpiderState(0.0, 0.3, 1, 0.0), f,
                          [1e-2, 1e-3, 1e-4], T=0.5, n_paths=24, seed=12)
    assert rep.passed
    vals = rep.estimates["mean_max_residual"]
    assert vals[0] > vals[1] > vals[2]


def _spy_run_batch(monkeypatch):
    """Record the config, K and t0 of every run_batch call, wherever it is
    looked up (as tests/test_tracer_contract.py does)."""
    orig = simulator.run_batch
    calls = []

    def spy(c, cfg, **kw):
        calls.append((cfg, kw["K"], kw["t0"]))
        return orig(c, cfg, **kw)

    for mod in (simulator, verify):
        for attr, value in list(vars(mod).items()):
            if value is orig:
                monkeypatch.setattr(mod, attr, spy)
    return calls


def test_ito_convergence_runs_every_step_size_from_init_t_to_T(monkeypatch):
    calls = _spy_run_batch(monkeypatch)
    ito_convergence(_c(), SpiderState(0.5, 0.1, 1, 0.0), make_battery(2)[0],
                    [2e-4, 1e-4, 5e-5], T=0.501, n_paths=3, seed=5)
    assert sorted(cfg.h for cfg, _, _ in calls) == [5e-5, 1e-4, 2e-4]
    for cfg, K, t0 in calls:
        assert t0 == 0.5 and abs(t0 + K * cfg.h - 0.501) < 1e-12, (cfg.h, K)


def test_ito_convergence_rejects_a_step_whose_grid_misses_T():
    with pytest.raises(SimulationError, match="horizon"):
        ito_convergence(_c(), SpiderState(0.0, 0.1, 1, 0.0), make_battery(2)[0],
                        [3e-4, 1e-4], T=1e-3, n_paths=3, seed=5)


@pytest.mark.parametrize("run, names", [
    (lambda: mean_exit_stats(_c(), 0.0, 0.0, [0.04, 5e-4], 100, SimConfig(h=1e-4, T=0.01)),
     ("deltas[1]", "cfg.delta_shell")),
    (lambda: mean_exit_stats(_c(), 0.0, 0.0, [0.04, np.nan], 100, SimConfig(h=1e-4, T=0.01)),
     ("deltas[1]", "cfg.delta_shell")),
    (lambda: scattering_distribution(_c(), 0.0, 0.0, np.nan, 10**4, SimConfig(h=1e-4, T=0.01)),
     ("delta", "cfg.delta_shell")),
    (lambda: simulator.first_hit(_c(), SpiderState(0.0, 0.0, 1, 0.0), SimConfig(h=1e-4, T=0.01),
                                 np.nan), ("level", "cfg.delta_shell")),
    (lambda: ito_convergence(_c(), SpiderState(0.0, 0.1, 1, 0.0), make_battery(2)[0],
                             [4e-4, 2.5e-4, 5e-5], T=1.2e-3, n_paths=3, seed=5),
     ("h_list[1]", "T", "init.t")),
], ids=["exit-level-below-shell", "exit-level-nan", "scatter-level-nan", "first-hit-level-nan",
        "ito-grid-misses-T"])
def test_bad_level_or_step_size_fails_before_any_run(monkeypatch, run, names):
    """The second entry is at fault; the first would run if it were checked late."""
    calls = _spy_run_batch(monkeypatch)
    with pytest.raises((ValueError, SimulationError)) as exc:
        run()
    assert exc.value.names == names
    assert calls == []


@pytest.mark.parametrize("h_list, t0, match", [
    ([1e-4], 0.0, "two step sizes"), ([2e-4, 1e-4], 1e-3, "before T")],
    ids=["one-step-size", "init-t-at-T"])
def test_ito_convergence_needs_something_to_compare(h_list, t0, match):
    with pytest.raises(ValueError, match=match):
        ito_convergence(_c(), SpiderState(t0, 0.1, 1, 0.0), make_battery(2)[0],
                        h_list, T=1e-3, n_paths=3, seed=5)


def test_martingale_residual_constant_function_is_exact():
    c = _c()
    cfg = SimConfig(h=2e-3, T=0.5, n_paths=50, seed=2)
    rep = martingale_residual(c, SpiderState(0.0, 0.1, 1, 0.0), cfg,
                              constant_function(2, 3.0), 0.0, 0.5)
    assert rep.estimates["mean"][0] == 0.0
    assert rep.passed


@pytest.mark.parametrize("n", [0, 1])
def test_martingale_residual_needs_two_paths(n):
    cfg = SimConfig(h=2e-3, T=0.1, n_paths=n, seed=2)
    with pytest.raises(ValueError, match="two paths"):
        martingale_residual(_c(), SpiderState(0.0, 0.1, 1, 0.0), cfg, identity_function(2),
                            0.0, 0.1)


def test_martingale_streaming_matches_stored_paths():
    c = _c(I=2, alpha=[0.7, 0.3])
    cfg = SimConfig(h=2e-3, T=0.5, n_paths=40, seed=6)
    init = SpiderState(0.0, 0.0, 1, 0.0)
    f = make_battery(2)[1]
    res = run_paths(c, init, cfg, 0, cfg.n_paths, store=True)
    per_path = martingale_residual_paths(res.paths, c, f, 0.0, 0.5)
    rep = martingale_residual(c, init, cfg, f, 0.0, 0.5)
    assert rep.estimates["mean"][0] == pytest.approx(per_path.mean(), abs=1e-12)


def test_martingale_residual_reuses_the_kernels_coefficients(monkeypatch):
    """The generator takes b and sigma from the Euler step: a residual run
    evaluates drift and diffusion exactly as often as the bare kernel."""
    calls = {"drift": 0, "diffusion": 0}
    for name in calls:
        def counted(self, *args, _name=name, _orig=getattr(CoefficientSet, name)):
            calls[_name] += 1
            return _orig(self, *args)
        monkeypatch.setattr(CoefficientSet, name, counted)
    base = _c(I=3, alpha=[0.5, 0.3, 0.2])
    # the same values as callables, which the kernel evaluates ray by ray
    # (numbers would make a constant family, read from its table)
    c = CoefficientSet(I=3, b=(lambda t, x, l: 0.0 * x,) * 3,
                       sigma=(lambda t, x, l: 1.0 + 0.0 * x,) * 3,
                       alpha=base.alpha, bounds=base.bounds)
    init = SpiderState(0.0, 0.0, 1, 0.0)
    cfg = SimConfig(h=1e-3, T=0.05, n_paths=40, seed=9)
    simulate_batch(c, init, cfg)
    kernel = dict(calls)
    calls.update(drift=0, diffusion=0)
    martingale_residual(c, init, cfg, make_battery(3), 0.0, 0.05)
    assert kernel["drift"] >= 50
    assert calls == kernel


def test_martingale_residual_battery_passes():
    c = _c(I=2, alpha=[0.6, 0.4])
    cfg = SimConfig(h=1e-3, T=0.5, n_paths=3000, seed=8)
    rep = martingale_residual(c, SpiderState(0.0, 0.0, 1, 0.0), cfg,
                              make_battery(2), 0.0, 0.5)
    assert rep.passed, rep.estimates


def test_martingale_window_inside_horizon():
    c = _c()
    cfg = SimConfig(h=1e-2, T=0.5, n_paths=20, seed=2)
    rep = martingale_residual(c, SpiderState(0.0, 0.5, 1, 0.0), cfg,
                              identity_function(2), 0.1, 0.4)
    assert abs(rep.estimates["mean"][0]) < 0.2


@pytest.mark.parametrize("s, s_prime", [(-0.1, 0.3), (0.0049, 0.3), (0.4, 0.2)],
                         ids=["before-start", "off-grid", "reversed"])
def test_martingale_paths_window_checked(s, s_prime):
    c = _c()
    path = simulate_path(c, SpiderState(0.0, 0.5, 1, 0.0), SimConfig(h=1e-2, T=0.5, seed=2))
    assert path.x.size == 51
    with pytest.raises(ValueError):
        martingale_residual_paths([path], c, identity_function(2), s, s_prime)


def test_ks_two_sample_behaviour():
    rng = np.random.default_rng(1)
    a = rng.standard_normal(2500)
    b = rng.standard_normal(2500)
    d, p = ks_2samp(a, b)
    assert p > 0.01
    d, p = ks_2samp(a, b + 1.0)
    assert p < 1e-10
    d, p = ks_2samp(a, a)
    assert d == 0.0 and p == 1.0


def test_normal_cdf():
    assert normal_cdf(0.0) == pytest.approx(0.5)
    assert normal_cdf(1.96) == pytest.approx(0.975, abs=1e-3)


def test_scattering_preconditions():
    c = _c()
    cfg = SimConfig(h=1e-5, T=0.05, delta_shell=0.02, seed=0)
    with pytest.raises(ValueError, match="delta"):
        scattering_distribution(c, 0.0, 0.0, 0.03, 10**4, cfg)
    with pytest.raises(ValueError, match="1e4"):
        scattering_distribution(c, 0.0, 0.0, 0.05, 100, cfg)
    for t in (0.05, 0.06):  # a start at or after the horizon has no excursions
        with pytest.raises(ValueError, match="before the horizon"):
            scattering_distribution(c, t, 0.0, 0.05, 10**4, cfg)
        with pytest.raises(ValueError, match="before the horizon"):
            mean_exit_stats(c, t, 0.0, [0.04], 100, cfg)


def test_scattering_symmetric_case():
    c = _c(I=2)
    cfg = SimConfig(h=1e-5, T=0.05, delta_shell=1e-3, seed=30)
    rep = scattering_distribution(c, 0.0, 0.0, 0.02, 12000, cfg)
    assert rep.passed
    assert rep.details["censored"] == 0
    assert sum(rep.estimates["freq"]) == pytest.approx(1.0)


def test_mean_exit_stats_driftless():
    c = _c()
    cfg = SimConfig(h=1e-5, T=0.2, seed=40)
    rep = mean_exit_stats(c, 0.0, 0.0, [0.04, 0.02], 3000, cfg)
    rows = rep.estimates["rows"]
    assert all(0.85 < r["l_ratio"] < 1.2 for r in rows)
    assert rep.details["theta_pass"]


def test_mean_exit_stats_drift_lowers_local_time():
    # outward drift helps the exit, so less local time is needed
    cfg = SimConfig(h=1e-5, T=0.2, seed=41)
    rep0 = mean_exit_stats(_c(), 0.0, 0.0, [0.02], 3000, cfg)
    rep1 = mean_exit_stats(_c(b=1.0), 0.0, 0.0, [0.02], 3000, cfg)
    assert (rep1.estimates["rows"][0]["l_ratio"]
            < rep0.estimates["rows"][0]["l_ratio"])


@pytest.mark.filterwarnings("error")  # no empty-mean RuntimeWarning on the way
def test_mean_exit_stats_rejects_levels_without_two_passages():
    cfg = SimConfig(h=1e-4, T=0.01, seed=42)
    with pytest.raises(ValueError, match="at least two paths"):
        mean_exit_stats(_c(), 0.0, 0.0, [0.02], 1, cfg)
    # the horizon is 1/25 of delta^2: no path gets there
    with pytest.raises(ValueError, match=r"0 of 20 paths reach level delta = 0\.5 by T = 0\.01"):
        mean_exit_stats(_c(), 0.0, 0.0, [0.02, 0.5], 20, cfg)


@pytest.mark.filterwarnings("error")
def test_atom_test_rejects_an_empty_sample():
    with pytest.raises(ValueError, match="empty sample"):
        atom_test(np.empty(0), [0.1, 0.05])


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("deltas, bad", [([0.1, 0.0], 1), ([-0.1, 0.1], 0), ([0.1, np.nan], 1),
                                         ([np.inf, 0.1], 0)])
def test_atom_test_rejects_a_delta_that_is_not_positive_and_finite(deltas, bad):
    with pytest.raises(ValueError, match="must be positive and finite") as exc:
        atom_test(np.linspace(0.0, 1.0, 50), deltas)
    assert exc.value.names == (f"deltas[{bad}]",)


def test_atom_test_monotone_and_oracle():
    c = _c()
    cfg = SimConfig(h=5e-4, T=1.0, n_paths=8000, seed=50)
    res = simulate_batch(c, SpiderState(0.0, 0.0, 1, 0.0), cfg)
    oracle = lambda d: 2.0 * normal_cdf(d) - 1.0
    rep = atom_test(res.x, [0.1, 0.05, 0.02], oracle=oracle, seed=50)
    assert rep.passed, rep.details
    phat = rep.estimates["p_hat"]
    assert phat[0] >= phat[1] >= phat[2]


def test_atom_test_far_from_vertex():
    rep = atom_test(np.full(500, 3.0), [0.1, 0.05], seed=0)
    assert rep.estimates["p_hat"] == [0.0, 0.0]


def test_strong_markov_fixed_time():
    c = _c()
    cfg = SimConfig(h=1e-3, T=0.75, seed=60)
    rep = strong_markov_test(c, StoppingSpec("fixed_time", time=0.25), "x",
                             0.25, 2500, cfg, SpiderState(0.0, 0.5, 1, 0.0))
    assert rep.details["censored_frac"] == 0.0
    assert rep.passed, rep.estimates


def test_strong_markov_hitting_and_local_time_functional():
    c = _c(b=-0.5)
    cfg = SimConfig(h=1e-3, T=2.0, seed=61)
    rep = strong_markov_test(c, StoppingSpec("hitting", level=0.4), "l",
                             0.25, 2500, cfg, SpiderState(0.0, 0.8, 1, 0.0))
    assert rep.details["censored_frac"] < 0.2
    assert rep.passed, rep.estimates


def test_strong_markov_flags_excessive_censoring():
    c = _c()
    cfg = SimConfig(h=1e-3, T=0.5, seed=62)
    rep = strong_markov_test(c, StoppingSpec("hitting", level=3.5), "x",
                             0.25, 400, cfg, SpiderState(0.0, 0.2, 1, 0.0))
    assert rep.details["flagged"]
    assert not rep.passed


def test_strong_markov_vertex_after():
    c = _c(b=-1.0)
    cfg = SimConfig(h=1e-3, T=1.0, seed=66)
    rep = strong_markov_test(c, StoppingSpec("vertex_after", time=0.1), "x",
                             0.1, 1500, cfg, SpiderState(0.0, 0.3, 1, 0.0))
    assert rep.details["censored_frac"] < 0.2
    assert rep.passed, rep.estimates


def test_strong_markov_fixed_time_is_a_grid_step():
    """0.5 + h + h + ... drifts 1.4e-12 from 0.8 over 30000 steps of 1e-5;
    the stop is step 30000 all the same, so no path is censored."""
    cfg = SimConfig(h=1e-5, T=0.8001, seed=64)
    rep = strong_markov_test(_c(), StoppingSpec("fixed_time", time=0.8), "x",
                             1e-4, 4, cfg, SpiderState(0.5, 0.5, 1, 0.0))
    assert rep.details["censored_frac"] == 0.0


@pytest.mark.parametrize("time", [0.055, 0.3, 0.18, 0.05],
                         ids=["off-grid", "past-T", "too-late-for-lag", "before-start"])
@pytest.mark.parametrize("kind", ["fixed_time", "vertex_after"])
def test_strong_markov_stopping_time_needs_a_grid_step_before_the_lag(kind, time):
    # the grid is 0.1 + k*0.01 with K = 10 steps, lag 5 steps: 0.1 <= time <= 0.15
    cfg = SimConfig(h=1e-2, T=0.2, seed=65)
    with pytest.raises(ValueError, match="stopping time"):
        strong_markov_test(_c(), StoppingSpec(kind, time=time), "x", 0.05, 10, cfg,
                           SpiderState(0.1, 0.5, 1, 0.0))


@pytest.mark.parametrize("n", [0, 1])
def test_strong_markov_needs_two_paths(n):
    cfg = SimConfig(h=1e-2, T=0.2, seed=63)
    with pytest.raises(ValueError, match="two paths"):
        strong_markov_test(_c(), StoppingSpec("fixed_time", time=0.05), "x", 0.05, n, cfg,
                           SpiderState(0.0, 0.5, 1, 0.0))


def test_report_json_round_trip():
    rep = EstimatorReport(name="demo", estimates={"v": np.float64(1.5)},
                          stderr={"v": np.float64(0.1)}, n=10, passed=True,
                          seed=3, details={"arr": np.arange(3)})
    doc = rep.to_json()
    assert doc["estimates"]["v"] == 1.5
    assert doc["details"]["arr"] == [0, 1, 2]
    assert doc["pass"] is True


def test_default_bias_constant_dominates_its_calibration():
    """The shipped budget constant stays above the worst scaled residual that
    calibrate_bias_constant measures, at a reduced size: n = 6000 paths and
    the one step size h = 4e-4.  Measured there: 0.63 at the default seed,
    0.09-1.83 over seeds 1-6.  Below about n = 4000 Monte Carlo noise alone
    lifts the reading past 2.5 (3.45 at n = 1000, 3.65 at n = 2000)."""
    worst = calibrate_bias_constant(n=6000, hs=(4e-4,))
    assert 0.0 < worst < DEFAULT_BIAS_CONSTANT
