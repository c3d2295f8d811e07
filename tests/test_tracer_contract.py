"""The benchmark tracer (perfbench/tracing.py) wraps spidersim names from the
outside.  These tests fail when a refactor renames, deletes or inherits a
wrapped name, instead of only ``--trace 1`` breaking."""

import ast
import importlib
from pathlib import Path

import numpy as np

from spidersim import coeffexpr

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
