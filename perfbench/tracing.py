"""Span tracing of spidersim from the outside.

The tracer wraps the public functions of each spidersim module (and the
on_step callbacks handed to ``run_batch``), keeps one span per call in
memory (name, start, end, parent) and derives the per-layer metrics from
them.  Nothing inside ``src/`` is changed: every wrapped name is patched on
its module and on every other spidersim module that imported it by name, and
restored when the tracer is uninstalled.

A layer is a spidersim module.  Its self time is the time of its spans minus
the time of their child spans, so the self times of all layers plus the
harness' own span add up exactly to the traced wall time.
"""

from __future__ import annotations

import hashlib
import importlib
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

LAYERS = ("rng", "simulator", "coeffexpr", "network", "localtime", "pde",
          "feynman_kac", "verify", "cli")

# Public entry points wrapped per layer; "Class.method" wraps a method.
WRAPPED = {
    "rng": ("gaussians", "uniforms", "derive_seed"),
    "simulator": ("run_batch", "simulate_batch", "first_hit", "simulate_path",
                  "map_path_blocks"),
    "coeffexpr": ("evaluate", "parse", "build_coefficient_set"),
    "network": ("CoefficientSet.drift", "CoefficientSet.diffusion",
                "CoefficientSet.alpha_matrix", "validate_coefficients",
                "constant_coefficients", "TestFunction.value", "TestFunction.dt",
                "TestFunction.dx", "TestFunction.dxx", "TestFunction.dl"),
    "localtime": ("excursion_decompose", "downcrossing_estimate", "excursion_functional",
                  "occupation_estimate", "occupation_batch", "skorokhod_oracle",
                  "oracle_path"),
    "pde": ("solve", "residual", "manufactured_backward"),
    "feynman_kac": ("fk_estimate", "fk_vs_pde", "FKProblem.payoff", "FKProblem.running",
                    "FKProblem.vertex_cost", "FKProblem.check"),
    "verify": ("ks_2samp", "martingale_residual", "martingale_residual_paths",
               "ito_residual", "ito_convergence", "scattering_distribution",
               "mean_exit_stats", "atom_test", "strong_markov_test",
               "calibrate_bias_constant"),
    "cli": ("main",),
}

# What the first run of an untraced benchmark run wraps: enough to digest the
# arrays run_batch returns and count path-steps, at negligible cost.
CAPTURE = {"simulator": ("run_batch",)}


def _size(a) -> int:
    return int(np.size(a))


def digest_arrays(h, *arrays):
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(str(a.dtype).encode())
        h.update(a.tobytes())


class Tracer:
    """Spans and counters of one traced operation, plus the patch table."""

    def __init__(self, wrapped: dict = WRAPPED):
        self.wrapped = wrapped
        self.full = wrapped is WRAPPED
        self.spans: list = []      # [name, start_ns, end_ns, parent index]
        self.stack: list[int] = []
        self.counts: dict[str, float] = {}
        self.arrays: dict[str, "hashlib._Hash"] = {}  # root call -> result digest
        self._patched: list = []

    # -- span bookkeeping ------------------------------------------------

    def add(self, key: str, value) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def array_digest(self):
        """Digest of the arrays returned under the current root span."""
        root = self.spans[self.stack[0]][0].partition(".")[2] if self.stack else ""
        return self.arrays.setdefault(root, hashlib.blake2b(digest_size=16))

    def parent_name(self) -> str:
        return self.spans[self.stack[-1]][0] if self.stack else ""

    def call(self, name: str, fn, args, kwargs):
        sid = len(self.spans)
        span = [name, 0, 0, self.stack[-1] if self.stack else -1]
        self.spans.append(span)
        self.stack.append(sid)
        span[1] = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter_ns()
            self.stack.pop()

    def _wrap(self, name: str, fn, pre, post):
        tracer = self

        def wrapper(*args, **kwargs):
            token = pre(tracer, args, kwargs) if pre else None
            out = tracer.call(name, fn, args, kwargs)
            if post:
                post(tracer, args, kwargs, out, token)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        mods = {layer: importlib.import_module(f"spidersim.{layer}") for layer in LAYERS}
        for layer, names in self.wrapped.items():
            mod = mods[layer]
            for name in names:
                pre, post = _HOOKS.get(f"{layer}.{name}", (None, None))
                if "." in name:
                    cls_name, attr = name.split(".")
                    owner = getattr(mod, cls_name)
                    orig = owner.__dict__[attr]
                    self._patch(owner, attr, self._wrap(f"{layer}.{attr}", orig, pre, post))
                    continue
                orig = getattr(mod, name)
                wrapper = self._wrap(f"{layer}.{name}", orig, pre, post)
                # patch the name wherever callers look it up, including
                # "from .pde import solve" style imports in other modules
                for other in mods.values():
                    for attr, value in list(vars(other).items()):
                        if value is orig:
                            self._patch(other, attr, wrapper)

    def _patch(self, owner, attr, value) -> None:
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patched):
            setattr(owner, attr, orig)
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- results -------------------------------------------------------------

    def self_times(self) -> list[int]:
        """Per-span self time in ns (duration minus child durations)."""
        own = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] >= 0:
                own[s[3]] -= s[2] - s[1]
        return own

    def check_spans(self) -> list[str]:
        """Self times are nonnegative and add up to the root spans' wall time."""
        errors = []
        own = self.self_times()
        if self.stack:
            errors.append("spans left open")
        if any(v < 0 for v in own):
            errors.append("a child span outlasts its parent")
        roots = sum(s[2] - s[1] for s in self.spans if s[3] < 0)
        if sum(own) != roots:
            errors.append(f"layer self times sum to {sum(own)} ns, traced wall is {roots} ns")
        return errors

    def metrics(self) -> dict[str, float]:
        own = self.self_times()
        layer_self = {layer: 0 for layer in LAYERS + ("bench",)}
        incl: dict[str, int] = defaultdict(int)
        callback_in_batch = 0
        for s, o in zip(self.spans, own):
            layer, _, fn = s[0].partition(".")
            if layer in layer_self:
                layer_self[layer] += o
            incl[s[0]] += s[2] - s[1]
            if fn == "on_step" and s[3] >= 0 and self.spans[s[3]][0] == "simulator.run_batch":
                callback_in_batch += s[2] - s[1]
        wall = sum(s[2] - s[1] for s in self.spans if s[3] < 0)

        def c(key):
            return self.counts.get(key, 0)

        kernel_ns = incl["simulator.run_batch"] - callback_in_batch

        def per(num_ns, den, scale):
            return num_ns / den * scale if den else 0.0

        draws = c("rng.normals") + c("rng.uniforms")
        points = c("network.tf_points") + c("network.alpha_rows") + c("network.coef_points")
        steps = c("simulator.steps")
        return {
            "rng.normals": c("rng.normals"),
            "rng.uniforms": c("rng.uniforms"),
            "rng.self_s": layer_self["rng"] / 1e9,
            "rng.ns_per_draw": per(layer_self["rng"], draws, 1.0),
            "simulator.path_steps": c("simulator.path_steps"),
            "simulator.steps": steps,
            "simulator.self_s": layer_self["simulator"] / 1e9,
            "simulator.ns_per_path_step": per(kernel_ns, c("simulator.path_steps"), 1.0),
            "simulator.us_per_step": per(kernel_ns, steps, 1e-3),
            "simulator.active_frac": per(c("simulator.path_steps"), c("simulator.slots"), 1.0),
            "coeffexpr.calls": c("coeffexpr.calls"),
            "coeffexpr.points": c("coeffexpr.points"),
            "coeffexpr.self_s": layer_self["coeffexpr"] / 1e9,
            "coeffexpr.ns_per_point": per(layer_self["coeffexpr"], c("coeffexpr.points"), 1.0),
            "network.tf_calls": c("network.tf_calls"),
            "network.tf_points": c("network.tf_points"),
            "network.alpha_rows": c("network.alpha_rows"),
            "network.coef_points": c("network.coef_points"),
            "network.self_s": layer_self["network"] / 1e9,
            "network.ns_per_point": per(layer_self["network"], points, 1.0),
            "network.validate_s": incl["network.validate_coefficients"] / 1e9,
            "localtime.paths": c("localtime.paths"),
            "localtime.self_s": layer_self["localtime"] / 1e9,
            "localtime.us_per_path": per(layer_self["localtime"], c("localtime.paths"), 1e-3),
            "pde.unknowns": c("pde.unknowns"),
            "pde.solve_s": incl["pde.solve"] / 1e9,
            "pde.residual_s": incl["pde.residual"] / 1e9,
            "pde.ns_per_unknown": per(incl["pde.solve"], c("pde.unknowns"), 1.0),
            "feynman_kac.queries": c("feynman_kac.queries"),
            "feynman_kac.self_s": layer_self["feynman_kac"] / 1e9,
            "verify.checks": c("verify.checks"),
            "verify.checks_passed": c("verify.checks_passed"),
            "verify.self_s": layer_self["verify"] / 1e9,
            "cli.self_s": layer_self["cli"] / 1e9,
            "cli.bytes_written": c("cli.bytes_written"),
            "bench.self_s": layer_self["bench"] / 1e9,
            "trace.wall_s": wall / 1e9,
        }

    def write_spans(self, path: Path) -> None:
        lines = ["id,name,start_ns,end_ns,parent"]
        lines += [f"{i},{s[0]},{s[1]},{s[2]},{s[3]}" for i, s in enumerate(self.spans)]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# counting hooks: pre(tracer, args, kwargs) -> token; post(..., out, token)
# ---------------------------------------------------------------------------


def _count_normals(tr, args, kw, out, _):
    tr.add("rng.normals", _size(out))
    if tr.parent_name() == "simulator.run_batch":
        tr.add("rng.normals@simulator", _size(out))
        tr.add("simulator.steps", 1)


def _count_uniforms(tr, args, kw, out, _):
    tr.add("rng.uniforms", _size(out))


def _run_batch_pre(tr, args, kw):
    cb = kw.get("on_step")
    if cb is not None:
        layer = cb.__module__.rpartition(".")[2]
        name = f"{layer}.on_step"
        kw["on_step"] = lambda *a, _cb=cb: tr.call(name, _cb, a, {})
    return tr.counts.get("simulator.steps", 0)


def _run_batch_post(tr, args, kw, out, steps_before):
    from spidersim.simulator import FirstHitResult

    cfg = args[1] if len(args) > 1 else kw["cfg"]
    K = int(kw["K"])
    steps = tr.counts.get("simulator.steps", 0) - steps_before
    if isinstance(out, FirstHitResult):
        t0 = np.broadcast_to(np.asarray(kw["t0"], dtype=np.float64), out.theta.shape)
        hit = ~out.censored
        per_path = np.full(out.n, K, dtype=np.int64)
        per_path[hit] = np.rint((out.theta[hit] - t0[hit]) / cfg.h).astype(np.int64)
        tr.add("simulator.path_steps", int(per_path.sum()))
        tr.add("simulator.expected_steps", K if out.censored.any() else int(per_path.max(initial=0)))
        digest_arrays(tr.array_digest(), out.theta, out.edge, out.l, out.censored)
    else:
        tr.add("simulator.path_steps", out.n * K)
        tr.add("simulator.expected_steps", K)
        digest_arrays(tr.array_digest(), out.t, out.x, out.edge, out.l)
    tr.add("simulator.slots", steps * out.n)


def _count_points(key_calls, key_points):
    def post(tr, args, kw, out, _):
        if key_calls:
            tr.add(key_calls, 1)
        tr.add(key_points, _size(out))
    return post


def _count_alpha_rows(tr, args, kw, out, _):
    tr.add("network.alpha_rows", out.shape[0] if np.ndim(out) == 2 else 1)


def _count_occupation_paths(tr, args, kw, out, _):
    tr.add("localtime.paths", _size(out))


def _count_oracle_path(tr, args, kw, out, _):
    tr.add("localtime.paths", 1)


def _count_unknowns(tr, args, kw, out, _):
    tr.add("pde.unknowns", int(out.values.size))


def _count_query(tr, args, kw, out, _):
    tr.add("feynman_kac.queries", 1)


def _count_check(tr, args, kw, out, _):
    from spidersim.verify import EstimatorReport

    if isinstance(out, EstimatorReport):
        tr.add("verify.checks", 1)
        tr.add("verify.checks_passed", int(bool(out.passed)))


def _count_cli_bytes(tr, args, kw, out, _):
    argv = list(args[0] if args else kw.get("argv") or [])
    out_dir = Path(argv[argv.index("--out") + 1]) if "--out" in argv else Path("out")
    tr.add("cli.bytes_written", sum(p.stat().st_size for p in out_dir.iterdir() if p.is_file()))


_HOOKS = {
    "rng.gaussians": (None, _count_normals),
    "rng.uniforms": (None, _count_uniforms),
    "simulator.run_batch": (_run_batch_pre, _run_batch_post),
    "coeffexpr.evaluate": (None, _count_points("coeffexpr.calls", "coeffexpr.points")),
    "network.CoefficientSet.drift": (None, _count_points(None, "network.coef_points")),
    "network.CoefficientSet.diffusion": (None, _count_points(None, "network.coef_points")),
    "network.CoefficientSet.alpha_matrix": (None, _count_alpha_rows),
    **{f"network.TestFunction.{m}": (None, _count_points("network.tf_calls", "network.tf_points"))
       for m in ("value", "dt", "dx", "dxx", "dl")},
    "localtime.occupation_batch": (None, _count_occupation_paths),
    "localtime.oracle_path": (None, _count_oracle_path),
    "pde.solve": (None, _count_unknowns),
    "feynman_kac.fk_estimate": (None, _count_query),
    **{f"verify.{name}": (None, _count_check) for name in WRAPPED["verify"]},
    "cli.main": (None, _count_cli_bytes),
}
