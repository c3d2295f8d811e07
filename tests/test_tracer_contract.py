"""The benchmark tracer (perfbench/tracing.py) wraps spidersim names from the
outside.  These tests fail when a refactor renames, deletes or inherits a
wrapped name, instead of only ``--trace 1`` breaking."""

import ast
import importlib
from pathlib import Path

import numpy as np

from spidersim import coeffexpr, feynman_kac, localtime, simulator, verify
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
    monkeypatch.setattr(coeffexpr, "evaluate", spy)
    assert fn(1.0, np.array([2.0]), 3.0).tolist() == [14.0]
    assert calls == [1]


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
    names; so each ensemble passes K= and t0= and its own on_step, unwrapped.
    Results stay bit-identical across worker counts."""
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
    for name in _ensembles(1):
        a, b = results[name, 1], results[name, 3]
        if isinstance(a, np.ndarray):
            assert a.tobytes() == b.tobytes(), name
        else:  # float reprs round-trip, so equal reprs are equal bits
            assert repr(a) == repr(b), name
