from dataclasses import fields

import numpy as np
import pytest

from spidersim import network, simulator
from spidersim.coeffexpr import build_coefficient_set
from spidersim.localtime import occupation_batch, oracle_path
from spidersim.network import CoefficientBounds, CoefficientSet, constant_coefficients
from spidersim.rng import gaussians
from spidersim.simulator import (
    SimConfig,
    SimulationError,
    SpiderPath,
    SpiderState,
    first_hit,
    map_path_blocks,
    run_batch,
    run_paths,
    simulate_batch,
    simulate_path,
)
from spidersim.verify import ks_2samp


def _c(I=2, sigma=1.0, b=0.0, alpha=None):
    return constant_coefficients(I, sigma=sigma, b=b, alpha=alpha)


def _one_step(c, x0, g, t0=0.0, l0=0.0, **kw):
    """One reflection-policy step of size 0.01 per path, driven by the
    injected gaussians g."""
    g = np.atleast_1d(np.asarray(g, dtype=float))
    cfg = SimConfig(h=0.01, T=t0 + 0.01, seed=11)
    return run_batch(c, cfg, K=1, t0=t0, x0=x0, edge0=1, l0=l0,
                     path_ids=np.arange(g.size, dtype=np.uint64),
                     gaussians=g[:, None], **kw)


def test_run_batch_zero_noise():
    res = _one_step(_c(), 1.0, 0.0)
    assert (res.t[0], res.x[0], res.edge[0], res.l[0]) == (0.01, 1.0, 1, 0.0)


def test_run_batch_pure_drift():
    res = _one_step(_c(b=2.0), 1.0, 0.0)
    assert res.x[0] == 1.0 + 2.0 * 0.01
    assert res.l[0] == 0.0


def test_run_batch_contact_step():
    # proposal y = 0.001 - 0.3 < 0: placed at -y, local time booked 2*(-y)
    p = run_paths(_c(), SpiderState(0.0, 0.001, 1, 0.0), SimConfig(h=0.01, T=0.01, seed=11),
                  0, 1, store=True, gaussians=np.array([[-3.0]])).paths[0]
    y = 0.001 + np.sqrt(0.01) * -3.0
    assert p.contact.tolist() == [False, True]
    assert p.x[1] == -y
    assert p.l[1] == -2.0 * y


def test_run_batch_contact_accrual_and_ray_frequencies():
    # every path proposes y = -0.05 from t = 0.5, l = 0.2; the ray is drawn
    # from alpha at the pre-contact (t, l)
    n = 4000
    alpha = np.array([0.5, 0.3, 0.2])
    res = _one_step(_c(I=3, alpha=alpha), 0.05, np.full(n, -1.0), t0=0.5, l0=0.2)
    assert np.allclose(res.t, 0.51)
    assert np.allclose(res.x, 0.05)
    assert np.allclose(res.l, 0.30)
    freq = np.bincount(res.edge, minlength=4)[1:] / n
    assert np.all(np.abs(freq - alpha) < 3 * np.sqrt(alpha * (1 - alpha) / n))


def test_shell_passage_mean_accrual():
    # driftless unit diffusion: the local time booked per shell passage
    # (junction to delta_shell, stopped there) tends to the shell radius
    dsh = 0.05
    h = dsh**2 / 40.0
    n = 1500
    cfg = SimConfig(h=h, T=2000 * h, delta_shell=dsh, policy="shell", seed=5)
    fh = run_batch(_c(), cfg, K=2000, t0=0.0, x0=0.0, edge0=1, l0=0.0,
                   path_ids=np.arange(n, dtype=np.uint64), stop_level=dsh)
    assert not fh.censored.any()
    assert 0.9 < fh.l.mean() / dsh < 1.25
    assert fh.theta.mean() > h  # excursions span multiple steps


def test_run_batch_rejects_nan_gaussian():
    with pytest.raises(SimulationError, match="non-finite"):
        _one_step(_c(), 1.0, np.nan)
    with pytest.raises(SimulationError, match="non-finite"):
        _one_step(_c(), 1.0, np.nan, stop_level=2.0)


def test_first_hit_rejects_nan_drift():
    cfg = SimConfig(h=1e-3, T=0.02, n_paths=20, seed=3)
    with pytest.raises(SimulationError, match="non-finite"):
        first_hit(_c(b=np.nan), SpiderState(0.0, 0.0, 1, 0.0), cfg, 0.5)


def test_nan_states_rejected():
    for x, l in ((np.nan, 0.0), (0.0, np.nan)):
        with pytest.raises(SimulationError, match="invalid state"):
            SpiderState(0.0, x, 1, l)
        with pytest.raises(SimulationError, match="invalid initial"):
            run_batch(_c(), SimConfig(h=0.01, T=0.1), K=2, t0=0.0, x0=x, edge0=1, l0=l)


@pytest.mark.parametrize("weights", [(1.2, -0.2), (0.5, 0.2)])
def test_ray_draw_rejects_invalid_weights(weights):
    # negative entry, and a row that does not sum to one
    base = _c()
    c = CoefficientSet(I=2, b=base.b, sigma=base.sigma,
                       alpha=lambda t, l: np.broadcast_to(weights, (np.size(t), 2)),
                       bounds=base.bounds)
    cfg = SimConfig(h=0.01, T=0.05, n_paths=20, seed=4)
    with pytest.raises(SimulationError, match="probability vector"):
        simulate_batch(c, SpiderState(0.0, 0.0, 1, 0.0), cfg)


@pytest.mark.parametrize("weights", [(1.2, -0.2), (0.5, 0.6)])
def test_bad_weight_table_is_rejected_before_any_step(weights):
    """A constant weight table is checked at the start of run_batch, not at
    the first contact: these paths start far from the vertex and take one
    short step, so none of them redraws its ray."""
    base = _c()
    c = CoefficientSet(I=2, b=base.b, sigma=base.sigma, alpha=weights, bounds=base.bounds)
    cfg = SimConfig(h=1e-4, T=1e-4, n_paths=5, seed=4)
    with pytest.raises(SimulationError, match="probability vector"):
        simulate_batch(c, SpiderState(0.0, 1.0, 1, 0.0), cfg)


def test_first_hit_empty_batch():
    fh = first_hit(_c(), SpiderState(0.0, 0.0, 1, 0.0),
                   SimConfig(h=1e-2, T=0.1, n_paths=0, seed=1), 0.5)
    assert fh.n == 0
    assert fh.edge.dtype == np.int64 and fh.censored.dtype == bool


def test_path_invariants_both_policies():
    c = _c(I=3, alpha=[0.5, 0.3, 0.2])
    for policy, dsh, h in (("reflection", 1e-3, 1e-3), ("shell", 0.05, 2e-4 / 4)):
        cfg = SimConfig(h=h, T=0.5, delta_shell=dsh, policy=policy, seed=17)
        p = simulate_path(c, SpiderState(0.0, 0.2, 2, 0.0), cfg)
        p.check_invariants()
        assert p.l[-1] > 0  # the vertex was actually visited
        assert len(set(p.edge.tolist())) > 1  # and rays were re-drawn


def test_scheme_identity_against_stored_gaussians():
    # interior: x' = x + b h + sigma sqrt(h) g; contact: x' = -y, dl = -2y
    c = _c(b=0.3)
    cfg = SimConfig(h=1e-3, T=0.3, seed=23)
    p = simulate_path(c, SpiderState(0.0, 0.05, 1, 0.0), cfg)
    sq = np.sqrt(cfg.h)
    t = p.times()[:-1]
    y = p.x[:-1] + 0.3 * cfg.h + sq * p.gauss
    dl = np.diff(p.l)
    contact = y <= 0
    assert np.array_equal(p.contact[1:], contact)
    assert np.allclose(p.x[1:][~contact], y[~contact], rtol=0, atol=1e-14)
    assert np.allclose(p.x[1:][contact], -y[contact], rtol=0, atol=1e-14)
    assert np.allclose(dl[contact], -2 * y[contact], rtol=0, atol=1e-14)
    assert np.all(dl[~contact] == 0)


def test_local_time_telescoping_driftless():
    c = _c()
    cfg = SimConfig(h=1e-3, T=1.0, seed=9)
    p = simulate_path(c, SpiderState(0.0, 0.0, 1, 0.0), cfg)
    recon = p.x[-1] - p.x[0] - np.sqrt(cfg.h) * p.gauss.sum()
    assert p.l[-1] == pytest.approx(recon, abs=1e-10)


def test_batch_determinism_and_worker_invariance():
    c = _c()
    cfg = SimConfig(h=1e-3, T=0.5, n_paths=400, seed=7)
    init = SpiderState(0.0, 0.5, 1, 0.0)
    r1 = simulate_batch(c, init, cfg)
    r2 = simulate_batch(c, init, cfg)
    r3 = simulate_batch(c, init, cfg, workers=3)
    for a, b in ((r1, r2), (r1, r3)):
        assert np.array_equal(a.x, b.x)
        assert np.array_equal(a.l, b.l)
        assert np.array_equal(a.edge, b.edge)
    r4 = simulate_batch(c, init, SimConfig(h=1e-3, T=0.5, n_paths=400, seed=8))
    assert not np.array_equal(r1.x, r4.x)


def test_empty_batch():
    c = _c()
    init = SpiderState(0.0, 1.0, 1, 0.0)
    cfg = SimConfig(h=1e-2, T=0.1, n_paths=0, seed=1)
    for store, workers in ((False, 1), (True, 1), (False, 3), (True, 3)):
        res = map_path_blocks(0, workers, lambda lo, hi: run_paths(c, init, cfg, lo, hi, store=store))
        assert res.n == 0 and res.x.dtype == np.float64 and res.edge.dtype == np.int64
        assert res.paths == ([] if store else None)
    assert simulate_batch(c, init, cfg, workers=3).paths is None


def test_stored_paths_join_across_blocks():
    """Three blocks of stored paths join into the one-block paths, path by path."""
    c = _c()
    init = SpiderState(0.0, 0.2, 1, 0.0)
    cfg = SimConfig(h=1e-2, T=0.2, seed=9)
    one = run_paths(c, init, cfg, 0, 7, store=True).paths
    joined = map_path_blocks(7, 3, lambda lo, hi: run_paths(c, init, cfg, lo, hi, store=True))
    assert len(joined.paths) == len(one) == 7
    for a, b in zip(one, joined.paths):
        assert (a.t0, a.h) == (b.t0, b.h)
        for name in ("x", "edge", "l", "contact", "gauss"):
            assert np.array_equal(getattr(a, name), getattr(b, name)), name


@pytest.mark.parametrize("t", [0.1, 0.15], ids=["at-T", "past-T"])
@pytest.mark.parametrize("run", ["simulate_batch", "first_hit", "occupation_batch",
                                 "strong_markov_test", "fk_estimate"])
def test_run_from_the_horizon_on_is_rejected(run, t):
    """Every ensemble refuses a start at or after cfg.T instead of returning
    start states, censored paths or zeros."""
    from spidersim.feynman_kac import FKProblem, fk_estimate
    from spidersim.localtime import occupation_batch
    from spidersim.verify import StoppingSpec, strong_markov_test

    c = _c()
    init = SpiderState(t, 0.2, 1, 0.0)
    cfg = SimConfig(h=1e-2, T=0.1, n_paths=50, seed=3)
    runs = {
        "simulate_batch": lambda: simulate_batch(c, init, cfg),
        "first_hit": lambda: first_hit(c, init, cfg, 0.5),
        "occupation_batch": lambda: occupation_batch(c, init, cfg, 0.1),
        "strong_markov_test": lambda: strong_markov_test(
            c, StoppingSpec("hitting", level=0.5), "x", 0.02, 10, cfg, init),
        "fk_estimate": lambda: fk_estimate(FKProblem(g_edge=(lambda x, l: 0.0 * x,) * 2), c,
                                           (t, 0.2, 1, 0.0), cfg),
    }
    with pytest.raises(ValueError, match="before the horizon"):
        runs[run]()


def test_radial_alpha_invariance():
    # driftless, edge-independent sigma: the radial law must not feel alpha
    cfg_a = SimConfig(h=1e-3, T=0.5, n_paths=3000, seed=31)
    cfg_b = SimConfig(h=1e-3, T=0.5, n_paths=3000, seed=77)
    xa = simulate_batch(_c(alpha=[0.5, 0.5]), SpiderState(0.0, 0.0, 1, 0.0), cfg_a).x
    xb = simulate_batch(_c(alpha=[0.9, 0.1]), SpiderState(0.0, 0.0, 1, 0.0), cfg_b).x
    _, p = ks_2samp(xa, xb)
    assert p > 0.01


def test_radial_mean_matches_reflection_map_oracle():
    cfg = SimConfig(h=5e-4, T=1.0, n_paths=4000, seed=13)
    res = simulate_batch(_c(), SpiderState(0.0, 1.0, 1, 0.0), cfg)
    oracle = np.array([oracle_path(99, k, 1e-3, 1.0, x0=1.0)[0].x[-1]
                       for k in range(1500)])
    se = np.hypot(res.x.std(ddof=1) / np.sqrt(res.x.size),
                  oracle.std(ddof=1) / np.sqrt(oracle.size))
    assert abs(res.x.mean() - oracle.mean()) < 3 * se


def test_wasserstein_distance_shrinks_with_h():
    # driftless reflected case vs the exact reflection map on matched
    # skeletons (the terminal law of the symmetric step is h-exact here, so
    # only the coupled comparison carries an h signal)
    from spidersim.localtime import skorokhod_oracle

    n = 1500
    ids = np.arange(n, dtype=np.uint64)
    w1 = []
    for h in (1e-2, 1e-3, 2e-4):
        K = round(0.25 / h)
        g = np.column_stack([gaussians(55, ids, np.uint64(3 * k)) for k in range(K)])
        cfg = SimConfig(h=h, T=0.25, n_paths=n, seed=55)
        res = run_batch(_c(), cfg, K=K, t0=0.0, x0=0.0, edge0=1, l0=0.0,
                        path_ids=ids, gaussians=g)
        oracle = np.array([skorokhod_oracle(g[p], h, 0.25)[0].x[-1] for p in range(n)])
        w1.append(float(np.mean(np.abs(np.sort(res.x) - np.sort(oracle)))))
    assert w1[0] > w1[1] > w1[2]


def test_reflection_and_shell_policies_agree_on_radial_mean():
    init = SpiderState(0.0, 0.0, 1, 0.0)
    cfg_r = SimConfig(h=2.5e-5, T=0.2, n_paths=2500, seed=41, policy="reflection")
    cfg_s = SimConfig(h=2.5e-5, T=0.2, n_paths=2500, seed=42, policy="shell",
                      delta_shell=0.05)
    xr = simulate_batch(_c(), init, cfg_r).x
    xs = simulate_batch(_c(), init, cfg_s).x
    se = np.hypot(xr.std(ddof=1) / np.sqrt(xr.size), xs.std(ddof=1) / np.sqrt(xs.size))
    assert abs(xr.mean() - xs.mean()) < 3 * se + 0.05 * 0.5  # shell bias O(delta_shell)


def test_first_hit_already_at_level():
    c = _c()
    cfg = SimConfig(h=1e-3, T=0.1, n_paths=5, seed=3)
    fh = first_hit(c, SpiderState(0.0, 0.5, 1, 0.0), cfg, 0.4)
    assert np.all(fh.theta == 0.0)
    assert not fh.censored.any()


def test_first_hit_censoring_flag():
    c = _c()
    cfg = SimConfig(h=1e-3, T=0.01, n_paths=50, seed=3)
    fh = first_hit(c, SpiderState(0.0, 0.0, 1, 0.0), cfg, 3.0)
    assert fh.censored.all()
    assert np.isnan(fh.theta[fh.censored]).all()


def test_shell_step_size_guard():
    c = _c()
    cfg = SimConfig(h=1e-3, T=0.1, delta_shell=0.01, policy="shell", n_paths=1, seed=0)
    with pytest.raises(SimulationError, match="shell policy needs"):
        cfg.check_against(c)


def test_horizon_must_be_whole_steps():
    with pytest.raises(SimulationError, match="whole number"):
        SimConfig(h=3e-3, T=0.01, seed=0).n_steps()


def test_gaussian_injection_reproduces_counter_streams():
    c = _c()
    cfg = SimConfig(h=1e-3, T=0.05, n_paths=8, seed=19)
    K = cfg.n_steps()
    ids = np.arange(8, dtype=np.uint64)
    g = np.column_stack([gaussians(19, ids, np.uint64(3 * k)) for k in range(K)])
    a = run_batch(c, cfg, K=K, t0=0.0, x0=1.0, edge0=1, l0=0.0, path_ids=ids)
    b = run_batch(c, cfg, K=K, t0=0.0, x0=1.0, edge0=1, l0=0.0, path_ids=ids,
                  gaussians=g)
    assert np.array_equal(a.x, b.x)
    assert np.array_equal(a.l, b.l)


# b, sigma, alpha of a 3-ray constant family, and its bounds
_B, _SIGMA, _ALPHA = (0.1, -0.2, 0.0), (1.0, 0.8, 1.2), (0.5, 0.3, 0.2)
_BOUNDS = {"a_lower": 0.1, "sigma_lower": 0.5, "b_bound": 0.5, "sigma_bound": 1.2,
           "alpha_lip": 1.0}


# the same numbers spelled as expressions without variables
_B_SPELLED, _SIGMA_SPELLED = ("2*0.05", "-(0.2)", "0*7"), ("sqrt(4)/2", "-(-0.8)", "1.2*1")


def _constant_families():
    """The same constant family five ways: constant_coefficients, config
    expressions that are numbers, config expressions without variables that
    evaluate to those numbers, config expressions in x that do (0*x is 0
    for every x >= 0), and config weights in l that do."""
    def config(b, sigma, alpha=tuple(map(str, _ALPHA))):
        return build_coefficient_set({"I": 3, "b": list(b), "sigma": list(sigma),
                                      "alpha": list(alpha), "bounds": _BOUNDS})
    return {"constant": constant_coefficients(3, sigma=_SIGMA, b=_B, alpha=_ALPHA,
                                              bounds=CoefficientBounds(**_BOUNDS)),
            "numbers": config(map(str, _B), map(str, _SIGMA)),
            "spelled": config(_B_SPELLED, _SIGMA_SPELLED),
            "expressions": config((f"{v} + 0*x" for v in _B), (f"{v} + 0*x" for v in _SIGMA)),
            "weights": config(map(str, _B), map(str, _SIGMA), (f"{a} + 0*l" for a in _ALPHA))}


def test_constant_tables_equal_their_evaluators():
    sets = _constant_families()
    t, x, l = np.linspace(0, 1, 7), np.linspace(0, 3, 7), np.linspace(0, 2, 7)
    for name in ("constant", "numbers", "spelled"):
        c = sets[name]
        assert c.b_table.tolist() == list(_B) and c.sigma_table.tolist() == list(_SIGMA)
        assert c.alpha_table.tolist() == list(_ALPHA)
        for e in (1, 2, 3):
            assert np.array_equal(c.drift(e, t, x, l), np.full(7, c.b_table[e - 1]))
            assert np.array_equal(c.diffusion(e, t, x, l), np.full(7, c.sigma_table[e - 1]))
            assert c.drift(e, 0.5, 1.0, 0.0).shape == ()
        assert np.array_equal(c.alpha_matrix(t, l), np.tile(_ALPHA, (7, 1)))
        assert np.array_equal(c.alpha_matrix(0.5, l), np.tile(_ALPHA, (7, 1)))  # t broadcasts
        assert c.alpha_matrix(0.5, 1.0).tolist() == list(_ALPHA)
    assert sets["expressions"].b_table is None and sets["expressions"].sigma_table is None
    weights = sets["weights"]
    assert weights.alpha_table is None and callable(weights.alpha)
    assert np.array_equal(weights.alpha_matrix(t, l), np.tile(_ALPHA, (7, 1)))


@pytest.mark.parametrize("policy, stop_level", [("reflection", None), ("shell", None),
                                                ("reflection", 0.3), ("shell", 0.3)],
                         ids=["reflection", "shell", "absorbing-reflection", "absorbing-shell"])
def test_constant_tables_match_ray_by_ray_evaluation_bit_for_bit(policy, stop_level):
    cfg = SimConfig(h=1e-4, T=0.02, delta_shell=0.05, policy=policy, seed=4)
    x0 = np.linspace(0.0, 0.2, 300)
    results = {name: run_batch(c, cfg, K=cfg.n_steps(), t0=0.0, x0=x0, edge0=2, l0=0.1,
                               path_ids=np.arange(300, dtype=np.uint64), stop_level=stop_level)
               for name, c in _constant_families().items()}
    ref = results.pop("constant")
    fields = ("t", "x", "edge", "l") if stop_level is None else ("theta", "edge", "l", "censored")
    for res in results.values():
        for f in fields:
            assert np.array_equal(getattr(res, f), getattr(ref, f), equal_nan=True), f
    if stop_level is not None:
        assert 0 < ref.censored.sum() < 300


def test_constant_family_skips_coefficient_dispatch(monkeypatch):
    sets = _constant_families()
    calls = []
    for name in ("drift", "diffusion"):
        orig = getattr(CoefficientSet, name)
        monkeypatch.setattr(CoefficientSet, name,
                            lambda self, *a, _orig=orig: calls.append(1) or _orig(self, *a))
    cfg = SimConfig(h=1e-3, T=0.05, n_paths=20, seed=1)
    simulate_batch(sets["constant"], SpiderState(0.0, 0.0, 1, 0.0), cfg)
    assert calls == []
    simulate_batch(sets["expressions"], SpiderState(0.0, 0.0, 1, 0.0), cfg)
    assert len(calls) >= 2 * 50


def _spy_partitions(monkeypatch) -> list:
    """Every partition the simulator builds, in order (Step.parts looks
    ray_partition up on the module)."""
    built = []

    def spy(n_rays, edge, _orig=simulator.ray_partition):
        built.append(_orig(n_rays, edge))
        return built[-1]

    monkeypatch.setattr(simulator, "ray_partition", spy)
    return built


@pytest.mark.parametrize("family", ["constant", "expressions"])
def test_on_step_gets_the_steps_ray_partition(family, monkeypatch):
    """step.parts is the step's ray partition, built at most once per step:
    by the kernel for an expression family whose trees do not fuse, on
    first read for a constant one."""
    c = _constant_families()[family]
    if family == "expressions":  # ray 2 spells 0*x as x*0: the rays' trees do not fuse
        def spell(values):
            return [f"{v} + {'x*0' if e == 2 else '0*x'}" for e, v in enumerate(values, 1)]
        c = build_coefficient_set({"I": 3, "b": spell(_B), "sigma": spell(_SIGMA),
                                   "alpha": list(map(str, _ALPHA)), "bounds": _BOUNDS})
        assert c.b_fused is None and c.sigma_fused is None
    c = CoefficientSet(I=3, b=c.b, sigma=c.sigma, bounds=c.bounds,
                       alpha=(0.6, 0.4, 0.0))  # ray 3 is never drawn
    built = _spy_partitions(monkeypatch)
    seen = []

    def on_step(step):
        before = len(built)
        parts = step.parts
        assert step.parts is parts and len(built) == before + (family == "constant")
        assert parts is built[-1]  # the kernel's own for an expression family
        assert len(parts) == 3
        for e, rows in enumerate(parts, 1):
            assert np.array_equal(rows, np.flatnonzero(step.edge == e))
        seen.append([rows.size for rows in parts])

    cfg = SimConfig(h=1e-3, T=0.05, seed=2)
    run_batch(c, cfg, K=cfg.n_steps(), t0=0.0, x0=np.linspace(0, 0.1, 50), edge0=1, l0=0.0,
              on_step=on_step)
    sizes = np.array(seen)
    assert sizes.shape == (50, 3) and (sizes.sum(axis=1) == 50).all()
    assert (sizes[1:, 1] > 0).any() and (sizes[:, 2] == 0).all()
    assert len(built) == 50


def test_constant_family_builds_no_partition_nobody_reads(monkeypatch):
    """A constant family reads drift and diffusion from its tables, and
    occupation_batch never reads step.parts: no step builds a partition."""
    built = _spy_partitions(monkeypatch)
    cfg = SimConfig(h=1e-3, T=0.05, n_paths=20, seed=2)
    vals = occupation_batch(_constant_families()["constant"], SpiderState(0.0, 0.0, 1, 0.0),
                            cfg, 0.05)
    assert vals.size == 20 and (vals > 0).any()  # the paths did cross the shell
    assert built == []


def _unifying_family():
    """Three rays shaped like the benchmark network, whose drift and diffusion
    trees differ only in their numbers: each is evaluated in one pass."""
    return build_coefficient_set({
        "I": 3, "b": [f"{a}*tanh(x)" for a in (0.4, 0.1, 0.25)],
        "sigma": [f"1 + {a}*sin(t)" for a in (0.15, 0.05, 0.1)],
        "alpha": {"exprs": ["1 + 0.5*tanh(l)", "1", "1"], "mode": "renormalize"},
        "bounds": _BOUNDS})


def _unifying_runs(c, workers=1):
    cfg = SimConfig(h=1e-3, T=0.05, n_paths=40, seed=3)
    init = SpiderState(0.0, 0.0, 1, 0.0)
    return simulate_batch(c, init, cfg, workers), first_hit(c, init, cfg, 0.15, workers)


def test_unifying_family_builds_no_partition(monkeypatch):
    """simulate_batch and first_hit evaluate a fused family on all rows at
    once: neither the kernel nor CoefficientSet splits a step into rays."""
    c = _unifying_family()
    assert c.b_fused is not None and c.sigma_fused is not None
    built = _spy_partitions(monkeypatch)
    monkeypatch.setattr(network, "ray_partition", lambda n_rays, edge: built.append(edge))
    batch, hit = _unifying_runs(c)
    assert len(set(batch.edge)) == 3 and 0 < hit.censored.sum() < 40  # the rows mixed rays
    assert built == []


def test_unifying_family_gives_the_same_bytes_for_any_worker_count():
    c = _unifying_family()
    one, three = _unifying_runs(c, 1), _unifying_runs(c, 3)
    for a, b in zip(one, three):
        for f in fields(a):
            got, want = getattr(b, f.name), getattr(a, f.name)
            if want is not None:
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), f.name


@pytest.mark.parametrize("t0, h, t, k", [
    (0.0, 0.1, 300.0, 3000), (0.0, 0.1, 300 + 5e-10, 3000), (0.0, 0.1, 300 + 5e-8, None),
    (0.25, 1e-3, 0.75, 500), (0.25, 1e-3, 0.7505, None), (0.0005, 1e-3, 0.0105, 10),
    (0.0, 1e-3, 0.0105, None), (0.0, 1e-5, 1e-3, 100), (5e-6, 1e-5, 1e-3, None),
])
def test_grid_rule_is_decided_once(t0, h, t, k):
    """SimConfig.n_steps, the local-time grid index and oracle and the
    martingale window all accept t on the grid t0 + k h, or all reject it."""
    from spidersim.localtime import EstimationError, grid_index, skorokhod_oracle
    from spidersim.simulator import grid_step
    from spidersim.verify import _window_steps

    n = round((t - t0) / h)  # the path is long enough to hold t either way
    zeros = np.zeros(n + 2)
    path = SpiderPath(t0=t0, h=h, x=zeros, edge=np.ones(n + 2, dtype=np.int64), l=zeros,
                      contact=zeros > 0, gauss=zeros[1:])
    readers = {  # name: (read, the error it raises off the grid)
        "grid_step": (lambda: grid_step(t0, h, t), None),
        "n_steps": (lambda: SimConfig(h=h, T=t).n_steps(t0), SimulationError),
        "grid_index": (lambda: grid_index(path, t), EstimationError),
        "window": (lambda: _window_steps(t0, h, n + 1, t0, t)[1], ValueError),
    }
    if t0 == 0.0:
        readers["skorokhod_oracle"] = (lambda: skorokhod_oracle(np.zeros(n), h, t)[0].K,
                                       EstimationError)
    for name, (read, error) in readers.items():
        if k is not None:
            assert read() == k, name
        elif error is None:
            assert read() is None
        else:
            with pytest.raises(error):
                read()
