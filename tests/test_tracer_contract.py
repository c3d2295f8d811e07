"""The benchmark tracer (perfbench/tracing.py) wraps spidersim names from the
outside.  These tests fail when a refactor renames, deletes or inherits a
wrapped name, instead of only ``--trace 1`` breaking."""

import ast
import importlib
import inspect
from pathlib import Path

import numpy as np

from spidersim import coeffexpr, feynman_kac, localtime, rng, simulator, verify
from spidersim.network import constant_coefficients

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _wrapped() -> dict:
    """WRAPPED from tracing.py, read as a literal (the module is not imported)."""
    for node in ast.parse(TRACING.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "WRAPPED" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("WRAPPED not found in perfbench/tracing.py")


def test_every_wrapped_name_resolves_as_the_tracer_looks_it_up():
    wrapped = _wrapped()
    assert wrapped
    for layer, names in wrapped.items():
        mod = importlib.import_module(f"spidersim.{layer}")
        for name in names:
            if "." in name:
                cls_name, attr = name.split(".")
                # a method must be defined on the class itself, not inherited
                assert callable(getattr(mod, cls_name).__dict__.get(attr)), f"{layer}.{name}"
            else:
                assert callable(getattr(mod, name, None)), f"{layer}.{name}"


def test_compiled_expressions_call_evaluate_through_the_module(monkeypatch):
    calls = []
    orig = coeffexpr.evaluate

    def spy(*args, **kwargs):
        calls.append(1)
        return orig(*args, **kwargs)

    fn = coeffexpr._compile(coeffexpr.parse("t + 2*x + 3*l"))
    c = coeffexpr.build_coefficient_set({
        "I": 3, "b": "0", "sigma": "1",
        "alpha": {"exprs": ["1 + l", "1", "1 + t"], "mode": "renormalize"}})
    monkeypatch.setattr(coeffexpr, "evaluate", spy)
    assert fn(1.0, np.array([2.0]), 3.0).tolist() == [14.0]
    assert calls == [1]
    # the ray weights: one evaluate call per expression, whatever the rows
    assert c.alpha_matrix(np.zeros(5), np.ones(5)).tolist() == [[0.5, 0.25, 0.25]] * 5
    assert calls == [1] * 4


def _ensembles(workers):
    """The six path ensembles, each at a few paths; name -> (run, the module
    of the on_step it hands run_batch, or None)."""
    c = constant_coefficients(2, sigma=1.0, b=0.1, alpha=[0.6, 0.4])
    cfg = simulator.SimConfig(h=1e-3, T=0.02, n_paths=7, seed=3)
    init = simulator.SpiderState(0.0, 0.1, 1, 0.0)
    prob = feynman_kac.FKProblem(g_edge=(lambda x, l: x + l,) * 2, h0=lambda t, l: 1.0 + t)
    spec = verify.StoppingSpec("fixed_time", time=0.005)
    return {
        "simulate_batch": (lambda: simulator.simulate_batch(c, init, cfg, workers).x, None),
        "first_hit": (lambda: simulator.first_hit(c, init, cfg, 0.15, workers).theta, None),
        "martingale_residual": (lambda: verify.martingale_residual(
            c, init, cfg, verify.make_battery(2), 0.005, 0.015, workers).estimates, "verify"),
        "strong_markov_test": (lambda: verify.strong_markov_test(
            c, spec, "x", 0.01, 7, cfg, init, workers).estimates, "verify"),
        "occupation_batch": (lambda: localtime.occupation_batch(
            c, init, cfg, 0.05, workers=workers), "localtime"),
        "fk_estimate": (lambda: feynman_kac.fk_estimate(
            prob, c, (0.0, 0.1, 1, 0.0), cfg, workers).mean, "feynman_kac"),
    }


def test_ensembles_hand_run_batch_what_the_tracer_reads(monkeypatch):
    """perfbench/tracing.py reads K and t0 of every run_batch call as
    keywords, and books an on_step callback to the layer its __module__
    names; so each ensemble passes K= and t0= and its own on_step, unwrapped,
    taking the one Step argument.  Results stay bit-identical across worker
    counts."""
    orig = simulator.run_batch
    calls = []

    def spy(*args, **kw):
        calls.append((len(args), kw))
        return orig(*args, **kw)

    for mod in (simulator, verify, localtime, feynman_kac):
        for attr, value in list(vars(mod).items()):
            if value is orig:
                monkeypatch.setattr(mod, attr, spy)
    results = {}
    for workers in (1, 3):
        for name, (run, layer) in _ensembles(workers).items():
            calls.clear()
            results[name, workers] = run()
            for n_args, kw in calls:
                assert n_args == 2 and "K" in kw and "t0" in kw, name
            cbs = [kw["on_step"] for _, kw in calls if kw.get("on_step") is not None]
            if layer is None:
                assert not cbs, name
            else:
                assert len(cbs) >= workers, (name, workers)
                for cb in cbs:
                    assert (cb.__module__, cb.__name__) == (f"spidersim.{layer}", "on_step"), name
                    assert [p.kind for p in inspect.signature(cb).parameters.values()] == [
                        inspect.Parameter.POSITIONAL_OR_KEYWORD], name  # on_step(step)
    for name in _ensembles(1):
        a, b = results[name, 1], results[name, 3]
        if isinstance(a, np.ndarray):
            assert a.tobytes() == b.tobytes(), name
        else:  # float reprs round-trip, so equal reprs are equal bits
            assert repr(a) == repr(b), name


def _spy_draws(monkeypatch) -> list:
    """Record (name, rows, counter) of every rng.gaussians and rng.uniforms
    call, looked up on the module as the tracer patches them."""
    calls = []
    for name in ("gaussians", "uniforms"):
        def spy(seed, stream, ctr, _name=name, _orig=getattr(rng, name)):
            calls.append((_name, int(np.size(stream)), int(ctr)))
            return _orig(seed, stream, ctr)
        monkeypatch.setattr(rng, name, spy)
    return calls


def _slot(k, slot):
    return simulator._SLOTS * k + slot


def _draws(calls, name):
    return [(rows, ctr) for n, rows, ctr in calls if n == name]


_DRAW_C = constant_coefficients(2, sigma=1.0, b=0.0, alpha=[0.6, 0.4])


def test_run_batch_draws_one_gaussian_call_per_step_on_all_rows(monkeypatch):
    """The trace identities (simulator.steps == K, rng.normals in the kernel
    == path-steps) read one gaussians call per executed step, sized to the
    running rows."""
    calls = _spy_draws(monkeypatch)
    cfg = simulator.SimConfig(h=1e-3, T=0.02, n_paths=7, seed=3)
    simulator.run_paths(_DRAW_C, simulator.SpiderState(0.0, 0.1, 1, 0.0), cfg, 0, 7)
    assert _draws(calls, "gaussians") == [(7, _slot(k, simulator._GAUSS_SLOT))
                                          for k in range(cfg.n_steps())]


def test_absorbing_run_draws_one_gaussian_call_per_step_on_the_live_rows(monkeypatch):
    calls = _spy_draws(monkeypatch)
    cfg = simulator.SimConfig(h=1e-3, T=0.03, n_paths=40, seed=5)
    fh = simulator.first_hit(_DRAW_C, simulator.SpiderState(0.0, 0.0, 1, 0.0), cfg, 0.08)
    K = cfg.n_steps()
    # a path that hits at grid step s is dropped at the top of step s
    hit_step = np.where(fh.censored, K, np.rint(np.nan_to_num(fh.theta) / cfg.h)).astype(int)
    executed = hit_step.max()
    expected = [(int((hit_step > k).sum()), _slot(k, simulator._GAUSS_SLOT))
                for k in range(executed)]
    assert expected[-1][0] < cfg.n_paths  # rows did drop out
    assert _draws(calls, "gaussians") == expected


def test_every_ray_redraw_is_a_uniforms_call(monkeypatch):
    """Departures from the start at the vertex (step 0) and each step's
    contacts draw their rays through rng.uniforms, one call per step that
    has any, on exactly those rows."""
    calls = _spy_draws(monkeypatch)
    cfg = simulator.SimConfig(h=1e-3, T=0.02, n_paths=9, seed=7)
    res = simulator.run_paths(_DRAW_C, simulator.SpiderState(0.0, 0.0, 1, 0.0), cfg, 0, 9,
                              store=True)
    contact = np.array([p.contact for p in res.paths])  # contact[:, k + 1]: step k
    expected = [(9, _slot(0, simulator._DEPART_SLOT))]
    expected += [(int(contact[:, k + 1].sum()), _slot(k, simulator._CONTACT_SLOT))
                 for k in range(cfg.n_steps()) if contact[:, k + 1].any()]
    assert len(expected) > 2  # the paths do touch the vertex
    assert _draws(calls, "uniforms") == expected
