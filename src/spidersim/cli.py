"""Command-line front end: JSON config in, CSV tables and JSON reports out.

Exit codes: 0 success, 1 a verification check failed, 2 configuration or
parse error, also a value that breaks a precondition of the library call it
feeds (the error names its config key), 3 an outcome of the run (runtime
evaluation error, too few passages).  Outputs are byte-stable for a fixed
(config, seed); wall-clock metadata goes to a separate run_meta.json.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from . import localtime, verify
from .coeffexpr import (CoeffExprError, ConfigError, EvalError, _compile, build_coefficient_set,
                        choice, edge_exprs, expression, num, num_list, require_keys)
from .feynman_kac import FKProblem, fk_estimate, fk_vs_pde
from .network import NetworkError, SamplingPlan, constant_coefficients, validate_coefficients
from .pde import PdeError, PdeGrid, PdeProblem, residual as pde_residual, solve as pde_solve
from .simulator import SEED_LIMIT, SimConfig, SimulationError, SpiderState, simulate_batch

def _fail(msg: str, code: int) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return code


def config_hash(cfg: dict) -> str:
    payload = json.dumps(cfg, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.blake2b(payload, digest_size=8).hexdigest()


def _load_config(path: str):
    text = Path(path).read_text(encoding="utf-8")
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON at byte offset {exc.pos}: {exc.msg}") from exc


def _sim_config(block: dict, seed_override: int | None) -> SimConfig:
    sim = require_keys(block, {"h", "T", "delta_shell", "policy", "n_paths", "seed"}, "sim")
    if seed_override is not None:  # --seed replaces sim.seed
        sim = {**sim, "seed": seed_override}
    return SimConfig(
        h=num(sim, "h", "sim", lo=1e-12),
        T=num(sim, "T", "sim", lo=1e-12),
        delta_shell=num(sim, "delta_shell", "sim", default=1e-3, lo=1e-12),
        policy=choice(sim, "policy", "sim", ("reflection", "shell"), "reflection"),
        n_paths=num(sim, "n_paths", "sim", default=1, lo=0, integer=True),
        seed=num(sim, "seed", "sim", default=0, lo=0, hi=SEED_LIMIT - 1, integer=True),
    )


def _init_state(cfg: dict, I: int) -> SpiderState:
    init = require_keys(cfg.get("init"), {"t", "x", "edge", "l"}, "init")
    return SpiderState(
        t=num(init, "t", "init", default=0.0, lo=0.0),
        x=num(init, "x", "init", default=0.0, lo=0.0),
        i=num(init, "edge", "init", default=1, lo=1, hi=I, integer=True),
        l=num(init, "l", "init", default=0.0, lo=0.0),
    )


def _fmt(v) -> str:
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def _write_csv(path: Path, header: list[str], rows: list[list], chash: str):
    lines = [",".join(header + ["config_hash"])]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row) + f",{chash}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _write_report(path: Path, name: str, params: dict, report: dict, chash: str, seed: int):
    doc = {
        "name": name,
        "params": params,
        "estimates": report.get("estimates", {}),
        "stderr": report.get("stderr", {}),
        "pass": report.get("pass"),
        "seed": seed,
        "config_hash": chash,
    }
    extra = {k: v for k, v in report.items() if k not in ("estimates", "stderr", "pass")}
    if extra:
        doc["details"] = extra
    path.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n", encoding="utf-8")


def _edge_fns(block: dict, key: str, where: str, I: int,
              names: tuple[str, ...] = ("t", "x", "l"), required: bool = True):
    """Compiled per-ray expressions over names, called in that order."""
    exprs = edge_exprs(block, key, where, I, names, required)
    return None if exprs is None else tuple(_compile(e, names) for e in exprs)


def _sources(block: dict, where: str, I: int):
    """The payoff g (required), running source h and vertex source h0 of a block."""
    h0 = (_compile(expression(block["h0"], f"{where}.h0", ("t", "l")), ("t", "l"))
          if "h0" in block else None)
    return (_edge_fns(block, "g", where, I, ("x", "l")),
            _edge_fns(block, "h", where, I, required=False), h0)


@contextmanager
def _keys(where: str, keys: dict | None = None):
    """Around a runner's library calls: an error that names the arguments
    whose values broke a precondition (network.named) becomes a ConfigError
    naming their config keys.  An argument's key is keys[name] (name matched
    up to its first "["), sim.X for cfg.X, init.X as it is, else where.X."""
    try:
        yield
    except (ValueError, SimulationError, PdeError) as exc:
        if not getattr(exc, "names", ()):
            raise

        def key(name):
            head = name.partition("[")[0]
            if keys and head in keys:
                return keys[head] + name[len(head):]
            scope, _, rest = name.partition(".")
            return {"cfg": f"sim.{rest}", "init": name}.get(scope, f"{where}.{name}")

        raise ConfigError(", ".join(map(key, exc.names)) + f": {exc}") from exc


_FK_KEYS = {"g_edge": "fk.g", "h_edge": "fk.h", "h_bound": "fk.h_bound", "queries": "fk.queries"}


def _grid(block: dict, where: str) -> PdeGrid:
    grid_cfg = require_keys(block.get("grid"), {"M", "J", "P"}, f"{where}.grid")
    return PdeGrid(*(num(grid_cfg, k, f"{where}.grid", integer=True) for k in "MJP"))


def _fk_problem(cfg: dict, I: int) -> tuple[FKProblem, list[tuple]]:
    block = require_keys(cfg.get("fk"), {"g", "h", "h0", "h_bound", "queries"}, "fk")
    g_edge, h_edge, h0 = _sources(block, "fk", I)
    prob = FKProblem(g_edge=g_edge, h_edge=h_edge, h0=h0,
                     h_bound=num(block, "h_bound", "fk", default=10.0, lo=0.0))
    return prob, _queries(block, "fk", I)


def _queries(block: dict, where: str, I: int) -> list[tuple]:
    """Query points (t, x, ray, l): floats and an int ray label in 1..I."""
    qs = block.get("queries")
    if not isinstance(qs, list) or not qs:
        raise ConfigError(f"{where}.queries must be a non-empty list of [t, x, edge, l]")
    rows = {f"queries[{k}]": q for k, q in enumerate(qs)}
    out = []
    for key in rows:
        vals = num_list(rows, key, where, lo=0.0)
        if len(vals) != 4:
            raise ConfigError(f"{where}.{key} must be [t, x, edge, l]")
        q = dict(zip(("t", "x", "edge", "l"), vals))
        q["edge"] = num(q, "edge", f"{where}.{key}", lo=1, hi=I, integer=True)
        out.append(tuple(q.values()))
    return out


def _pde_problem(cfg: dict, c, sim: SimConfig) -> tuple[PdeProblem, PdeGrid]:
    block = require_keys(cfg.get("pde"), {"direction", "R", "K", "grid", "g", "h", "h0", "c",
                                          "psi"}, "pde")
    g_edge, h_edge, h0 = _sources(block, "pde", c.I)
    return PdeProblem(
        coefficients=c,
        T=sim.T,
        R=num(block, "R", "pde", lo=1e-12),
        K=num(block, "K", "pde", lo=1e-12),
        g_edge=g_edge,
        h_edge=h_edge,
        h0=h0,
        c_edge=_edge_fns(block, "c", "pde", c.I, required=False),
        psi_edge=_edge_fns(block, "psi", "pde", c.I, ("t", "x"), required=False),
        direction=choice(block, "direction", "pde", ("backward", "forward"), "backward"),
    ), _grid(block, "pde")


# ---------------------------------------------------------------------------
# subcommand runners: _run_x(cfg, c, sim, workers) -> (header, rows, params,
# report).  main writes header and rows to out/<stem>.csv, params and report
# to out/<stem>.json (stem: the subcommand with "-" as "_"), and exits 1 only
# when report["pass"] is False.
# ---------------------------------------------------------------------------


def _run_validate(cfg, c, sim, workers):
    plan = SamplingPlan.default(T=sim.T if sim else 1.0)
    report = validate_coefficients(c, plan)
    rows = [[cl.name, cl.passed, cl.worst, cl.limit] for cl in report.clauses]
    return (["clause", "pass", "worst", "limit"], rows, {"clauses": len(rows)},
            {"estimates": {cl.name: cl.worst for cl in report.clauses}, "pass": report.passed})


def _run_simulate(cfg, c, sim, workers):
    init = _init_state(cfg, c.I)
    with _keys("init"):
        res = simulate_batch(c, init, sim, workers=workers)
    rows = [[i, res.t[i], res.x[i], int(res.edge[i]), res.l[i]] for i in range(res.n)]
    summary = {
        "estimates": {"mean_x": float(res.x.mean()) if res.n else 0.0,
                      "mean_l": float(res.l.mean()) if res.n else 0.0},
        "stderr": {"mean_x": float(res.x.std(ddof=1) / np.sqrt(res.n)) if res.n > 1 else 0.0},
        "pass": None,
    }
    return ["path", "t", "x", "edge", "l"], rows, {"n_paths": res.n}, summary


def _run_scatter(cfg, c, sim, workers):
    block = require_keys(cfg.get("scatter"), {"t", "ell", "delta", "n"}, "scatter")
    with _keys("scatter", {"init.t": "scatter.t"}):
        rep = verify.scattering_distribution(
            c, num(block, "t", "scatter", default=0.0, lo=0.0),
            num(block, "ell", "scatter", default=0.0, lo=0.0), num(block, "delta", "scatter"),
            num(block, "n", "scatter", integer=True), sim, workers=workers)
    rows = [list(r) for r in zip(range(1, c.I + 1), rep.estimates["freq"], rep.stderr["freq"],
                                 rep.estimates["target"], rep.details["per_edge_pass"])]
    return ["edge", "freq", "stderr", "alpha_target", "pass"], rows, dict(block), rep.to_json()


def _run_exitstats(cfg, c, sim, workers):
    block = require_keys(cfg.get("exitstats"), {"t", "ell", "deltas", "n"}, "exitstats")
    with _keys("exitstats", {"init.t": "exitstats.t"}):
        rep = verify.mean_exit_stats(
            c, num(block, "t", "exitstats", default=0.0, lo=0.0),
            num(block, "ell", "exitstats", default=0.0, lo=0.0),
            num_list(block, "deltas", "exitstats"), num(block, "n", "exitstats", integer=True),
            sim, workers=workers)
    rows = [[r["delta"], r["l_ratio"], r["l_ratio_stderr"], r["theta_ratio"],
             r["theta_ratio_stderr"], r["censored"]] for r in rep.estimates["rows"]]
    return (["delta", "l_ratio", "l_ratio_stderr", "theta_ratio", "theta_ratio_stderr",
             "censored"], rows, dict(block), rep.to_json())


def _run_atom(cfg, c, sim, workers):
    block = require_keys(cfg.get("atom"), {"deltas", "oracle"}, "atom")
    deltas = num_list(block, "deltas", "atom", lo=1e-12)
    init = _init_state(cfg, c.I)
    oracle = None
    if choice(block, "oracle", "atom", (None, "half_normal"), None):
        span = sim.T - init.t
        oracle = lambda d: 2.0 * verify.normal_cdf(d / np.sqrt(span)) - 1.0
    with _keys("atom", {"x_samples": "sim.n_paths"}):
        res = simulate_batch(c, init, sim, workers=workers)
        rep = verify.atom_test(res.x, deltas, oracle=oracle, seed=sim.seed)
    rows = [list(r) for r in zip(rep.details["deltas"], rep.estimates["p_hat"],
                                 rep.stderr["p_hat"], rep.details["slopes"])]
    return ["delta", "p_hat", "stderr", "slope"], rows, dict(block), rep.to_json()


def _run_martingale(cfg, c, sim, workers):
    block = require_keys(cfg.get("martingale"), {"s", "s_prime"}, "martingale")
    init = _init_state(cfg, c.I)
    battery = verify.make_battery(c.I)
    with _keys("martingale"):
        rep = verify.martingale_residual(
            c, init, sim, battery, num(block, "s", "martingale", default=init.t),
            num(block, "s_prime", "martingale", default=sim.T), workers=workers)
    rows = [[q, rep.estimates["mean"][q], rep.stderr["mean"][q],
             rep.estimates["budget"][q], rep.details["per_function_pass"][q]]
            for q in range(len(battery))]
    return (["function", "mean_residual", "stderr", "bias_budget", "pass"], rows, dict(block),
            rep.to_json())


def _run_ito(cfg, c, sim, workers):
    block = require_keys(cfg.get("ito"), {"h_list", "n_paths"}, "ito")
    init = _init_state(cfg, c.I)
    with _keys("ito", {"T": "sim.T"}):
        rep = verify.ito_convergence(
            c, init, verify.make_battery(c.I)[0], num_list(block, "h_list", "ito", lo=1e-12),
            sim.T, num(block, "n_paths", "ito", default=4, lo=1, integer=True), sim.seed)
    rows = [list(r) for r in zip(rep.estimates["h"], rep.estimates["mean_max_residual"])]
    return ["h", "mean_max_residual"], rows, dict(block), rep.to_json()


def _run_markov(cfg, c, sim, workers):
    block = require_keys(cfg.get("markov"), {"spec", "functional", "lag", "n"}, "markov")
    spec_cfg = require_keys(block.get("spec"), {"kind", "level", "time"}, "markov.spec")
    init = _init_state(cfg, c.I)
    with _keys("markov"):
        spec = verify.StoppingSpec(
            choice(spec_cfg, "kind", "markov.spec", tuple(verify.STOPPING_RULES), "hitting"),
            **{key: num(spec_cfg, key, "markov.spec", lo=0.0)
               for key in ("level", "time") if key in spec_cfg})
        rep = verify.strong_markov_test(
            c, spec, choice(block, "functional", "markov", ("x", "l"), "x"),
            num(block, "lag", "markov", lo=1e-12), num(block, "n", "markov", integer=True),
            sim, init, workers=workers)
    rows = [[rep.estimates["ks_distance"], rep.estimates["p_value"],
             rep.details["censored_frac"], rep.passed]]
    return ["ks_distance", "p_value", "censored_frac", "pass"], rows, dict(block), rep.to_json()


def _run_localtime(cfg, c, sim, workers):
    """Estimators on reflection-map oracle paths (driftless, unit diffusion,
    ray 1, 0 to sim.T), scored with their own coefficients, not the network's."""
    block = require_keys(cfg.get("localtime"), {"eps_list", "n_paths"}, "localtime")
    eps_list = num_list(block, "eps_list", "localtime", lo=1e-12)
    for j, e in enumerate(eps_list):
        if e in eps_list[:j]:  # the sums are keyed by eps
            raise ConfigError(f"localtime.eps_list[{j}] repeats eps = {e!r}")
    n = num(block, "n_paths", "localtime", default=200, lo=1, integer=True)
    unit = constant_coefficients(c.I)
    sums = {e: [0.0, 0.0] for e in eps_list}
    for pid in range(n):
        with _keys("localtime", {"T": "sim.T"}):
            path, l_exact = localtime.oracle_path(sim.seed, pid, sim.h, sim.T)
        for j, e in enumerate(eps_list):
            with _keys("localtime", {"eps": f"localtime.eps_list[{j}]"}):
                dc = localtime.downcrossing_estimate(path, e, sim.T).value
                oc = localtime.occupation_estimate(path, unit, e, sim.T).value
            sums[e][0] += abs(dc - l_exact[-1])
            sums[e][1] += abs(oc - l_exact[-1])
    rows = [[e, sums[e][0] / n, sums[e][1] / n] for e in sorted(eps_list, reverse=True)]
    l1_down = [r[1] for r in rows]
    l1_occ = [r[2] for r in rows]
    ok = all(a > b for a, b in zip(l1_down, l1_down[1:])) and all(
        a > b for a, b in zip(l1_occ, l1_occ[1:]))
    return (["eps", "l1_downcrossing", "l1_occupation"], rows, dict(block),
            {"estimates": {"rows": rows}, "pass": ok})


def _run_pde(cfg, c, sim, workers):
    with _keys("pde", {"g_edge": "pde.g"}):
        problem, grid = _pde_problem(cfg, c, sim)
        sol = pde_solve(problem, grid)
    res = pde_residual(sol)
    ok = res["interior_max"] <= 1e-8 and res["vertex_max"] <= 1e-8
    rows = [[k, v] for k, v in sorted(res.items())]
    return (["metric", "value"], rows, {"grid": [grid.M, grid.J, grid.P]},
            {"estimates": res, "pass": ok, "warnings": sol.warnings})


def _run_fk(cfg, c, sim, workers):
    prob, queries = _fk_problem(cfg, c.I)
    rows = []
    for k, q in enumerate(queries):
        with _keys("fk", {**_FK_KEYS, "init.t": f"fk.queries[{k}][0]"}):
            est = fk_estimate(prob, c, q, sim, workers=workers)
        rows.append([q[0], q[1], q[2], q[3], est.mean, est.stderr, est.n_paths])
    return (["t", "x", "edge", "l", "mean", "stderr", "n_paths"], rows,
            {"queries": len(queries)},
            {"estimates": {"values": [r[4] for r in rows]},
             "stderr": {"values": [r[5] for r in rows]}, "pass": None})


def _run_fk_compare(cfg, c, sim, workers):
    prob, queries = _fk_problem(cfg, c.I)
    block = require_keys(cfg.get("fk_compare"), {"R", "K", "grid"}, "fk_compare")
    with _keys("fk_compare", _FK_KEYS):
        rows_out, _ = fk_vs_pde(prob, c, queries, sim, _grid(block, "fk_compare"),
                                R=num(block, "R", "fk_compare", lo=1e-12),
                                K=num(block, "K", "fk_compare", lo=1e-12), workers=workers)
    rows = [[r.query[0], r.query[1], r.query[2], r.query[3], r.mc_mean, r.mc_stderr,
             r.pde_value, r.diff, r.tolerance, r.passed] for r in rows_out]
    return (["t", "x", "edge", "l", "mc_mean", "mc_stderr", "pde_value", "abs_diff",
             "tolerance", "pass"], rows, {"queries": len(rows)},
            {"estimates": {"diffs": [r.diff for r in rows_out]},
             "pass": all(r.passed for r in rows_out)})


_RUNNERS = {
    "simulate": _run_simulate,
    "localtime": _run_localtime,
    "scatter": _run_scatter,
    "exitstats": _run_exitstats,
    "atom": _run_atom,
    "martingale": _run_martingale,
    "ito": _run_ito,
    "markov": _run_markov,
    "pde": _run_pde,
    "fk": _run_fk,
    "fk-compare": _run_fk_compare,
    "validate": _run_validate,
}
SUBCOMMANDS = tuple(_RUNNERS)

_TOP_KEYS = {"network", "sim", "init", "scatter", "exitstats", "atom", "martingale",
             "ito", "markov", "localtime", "pde", "fk", "fk_compare"}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(prog="spidersim")
    ap.add_argument("subcommand", choices=SUBCOMMANDS)
    ap.add_argument("--config", required=True)
    ap.add_argument("--seed", type=int, default=None)
    ap.add_argument("--workers", type=int, default=1)
    ap.add_argument("--out", default="out")
    args = ap.parse_args(argv)

    started = time.time()
    try:
        cfg = require_keys(_load_config(args.config), _TOP_KEYS, "config")
        c = build_coefficient_set(cfg.get("network"))
        sim = None if cfg.get("sim") is None else _sim_config(cfg["sim"], args.seed)
        if sim is None and args.subcommand != "validate":
            raise ConfigError("missing 'sim' block")
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        chash = config_hash(cfg) + (f"-s{args.seed}" if args.seed is not None else "")
        header, rows, params, report = _RUNNERS[args.subcommand](cfg, c, sim, max(1, args.workers))
        stem = args.subcommand.replace("-", "_")
        _write_csv(out / f"{stem}.csv", header, rows, chash)
        _write_report(out / f"{stem}.json", args.subcommand, params, report, chash,
                      sim.seed if sim else 0)
        meta = {"elapsed_seconds": time.time() - started, "written_at": time.time()}
        (out / "run_meta.json").write_text(json.dumps(meta) + "\n", encoding="utf-8")
        return 1 if report.get("pass") is False else 0
    except EvalError as exc:
        return _fail(str(exc), 3)
    except (CoeffExprError, NetworkError, FileNotFoundError) as exc:
        return _fail(str(exc), 2)
    except (SimulationError, PdeError, ValueError) as exc:
        return _fail(str(exc), 3)


if __name__ == "__main__":
    sys.exit(main())
