"""The four benchmark workloads.

Each workload is built from the benchmark seed alone: the seed fixes the
generated configs, coefficients, query points and simulation seeds, and
spidersim receives only those.  A workload's ``run`` performs one workload
run through public spidersim entry points with ``workers=1``; ``summary``
reduces its outputs to digests (compared byte for byte) and values
(compared to 1e-12 relative) against the stored reference; ``check``
applies statistical checks that hold for any seed.

Library functions are always looked up on their module at call time
(``lt.occupation_batch``, ``cli.main``) so that the tracer's patches apply.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from pathlib import Path

import numpy as np
from tracing import digest_arrays

import spidersim.cli as cli
import spidersim.feynman_kac as fk
import spidersim.localtime as lt
import spidersim.pde as pde
from spidersim.coeffexpr import build_coefficient_set
from spidersim.network import TestFunction, TfTerm, constant_coefficients
from spidersim.simulator import SimConfig, SpiderState


def _hex(data: bytes) -> str:
    return hashlib.blake2b(data, digest_size=16).hexdigest()


def _array_hex(*arrays) -> str:
    h = hashlib.blake2b(digest_size=16)
    digest_arrays(h, *arrays)
    return h.hexdigest()


def _normal_cdf(z: float) -> float:
    return 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))


def _network(seed: int) -> dict:
    """3-ray network: drift in x, sigma in t, weights in l (renormalized)."""
    r = random.Random(seed)
    amp_b = [round(r.uniform(0.05, 0.15), 4) for _ in range(3)]
    amp_s = [round(r.uniform(0.05, 0.15), 4) for _ in range(3)]
    amp_a = round(r.uniform(0.3, 0.7), 4)
    return {
        "I": 3,
        "b": [f"{a}*tanh(x)" for a in amp_b],
        "sigma": [f"1 + {a}*sin(t)" for a in amp_s],
        "alpha": {"exprs": [f"1 + {amp_a}*tanh(l)", "1", "1"], "mode": "renormalize"},
        "bounds": {"a_lower": 0.2, "sigma_lower": 0.5, "b_bound": 0.5,
                   "sigma_bound": 1.2, "alpha_lip": 1.0},
    }


class Workload:
    name = ""
    # operation name -> the method call whose output it is checked on; an
    # operation fails on an exception, a failed check or an output mismatch
    ops: dict[str, str] = {}

    def __init__(self, seed: int, out_dir: Path):
        self.out = out_dir
        self.out.mkdir(parents=True, exist_ok=True)
        self.rand = random.Random(f"{self.name}:{seed}")
        self.path_steps = 0      # Euler path-steps per run, when known up front
        self.pde_unknowns = 0

    def run(self, tracer=None) -> dict:
        """One workload run: call name -> output, or the exception it raised.

        With a tracer, each call is a root span named ``bench.<call>``.
        """
        outputs = {}
        for call in dict.fromkeys(self.ops.values()):
            fn = getattr(self, "call_" + call)
            try:
                outputs[call] = tracer.call(f"bench.{call}", fn, (), {}) if tracer else fn()
            except Exception as exc:  # an operation failure is counted, not fatal
                outputs[call] = exc
        return outputs

    def summary(self, outputs: dict) -> dict:
        raise NotImplementedError

    def check(self, outputs: dict) -> dict[str, list[str]]:
        raise NotImplementedError

    def identities(self, counts: dict) -> list[str]:
        """Count identities a traced run must satisfy exactly."""
        errors = []
        normals = counts.get("rng.normals@simulator", 0)
        steps = counts.get("simulator.path_steps", 0)
        if normals != steps:
            errors.append(f"rng.normals in the Euler kernel {normals} != simulator.path_steps {steps}")
        if counts.get("simulator.steps", 0) != counts.get("simulator.expected_steps", 0):
            errors.append(f"simulator.steps {counts.get('simulator.steps', 0)} != "
                          f"{counts.get('simulator.expected_steps', 0)} implied by the results")
        if self.path_steps and steps != self.path_steps:
            errors.append(f"simulator.path_steps {steps} != n*K = {self.path_steps}")
        if counts.get("pde.unknowns", 0) != self.pde_unknowns:
            errors.append(f"pde.unknowns {counts.get('pde.unknowns', 0)} != grids {self.pde_unknowns}")
        return errors

    # -- CLI helpers -----------------------------------------------------------

    def _write_config(self, fname: str, cfg: dict) -> Path:
        path = self.out / fname
        path.write_text(json.dumps(cfg, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        # parse and validate the way the CLI will, so a bad config fails set-up
        build_coefficient_set(json.loads(path.read_text(encoding="utf-8"))["network"])
        return path

    def _cli(self, sub: str, config: Path) -> dict:
        out = self.out / sub
        rc = cli.main([sub, "--config", str(config), "--out", str(out), "--workers", "1"])
        files = {p.name: p.read_bytes() for p in sorted(out.iterdir())
                 if p.is_file() and p.name != "run_meta.json"}
        return {"rc": rc, "files": files}

    @staticmethod
    def _cli_digests(op: str, res: dict) -> dict:
        d = {f"{op}/exit": str(res["rc"])}
        d.update({f"{op}/{name}": _hex(data) for name, data in res["files"].items()})
        return d


def _failures(outputs: dict, ops: dict) -> dict[str, list[str]]:
    return {op: [f"raised {outputs[call]!r}"] if isinstance(outputs[call], Exception) else []
            for op, call in ops.items()}


# ---------------------------------------------------------------------------


class WideBatch(Workload):
    """spidersim simulate through cli.main: a wide fixed-horizon batch."""

    name = "wide-batch"
    ops = {"simulate": "simulate"}
    N, H, T = 10_000, 1e-3, 0.3

    def __init__(self, seed: int, out_dir: Path):
        super().__init__(seed, out_dir)
        self.net = _network(seed)
        self.config = self._write_config("config-simulate.json", {
            "network": self.net,
            "sim": {"h": self.H, "T": self.T, "n_paths": self.N,
                    "seed": self.rand.randrange(1, 2**32)},
            "init": {"x": 0.0, "edge": 1},
        })
        self.path_steps = self.N * round(self.T / self.H)

    def call_simulate(self):
        return self._cli("simulate", self.config)

    def summary(self, outputs):
        return {"digests": self._cli_digests("simulate", outputs["simulate"]), "values": {}}

    def check(self, outputs):
        fails = _failures(outputs, self.ops)
        res = outputs["simulate"]
        if fails["simulate"]:
            return fails
        errs = fails["simulate"]
        if res["rc"] != 0:
            errs.append(f"exit code {res['rc']}")
            return fails
        rows = [line.split(",") for line in
                res["files"]["simulate.csv"].decode().splitlines()[1:]]
        t = np.array([float(r[1]) for r in rows])
        x = np.array([float(r[2]) for r in rows])
        edge = np.array([int(r[3]) for r in rows])
        l = np.array([float(r[4]) for r in rows])
        if len(rows) != self.N or np.any(np.abs(t - self.T) > 1e-9):
            errs.append("wrong number of paths or terminal times")
        if np.any(x < 0) or np.any(l < 0) or np.any((edge < 1) | (edge > 3)):
            errs.append("terminal state outside the star")
        # x_T - l_T = x_0 + sum b h + sum sigma sqrt(h) g exactly in the
        # scheme, and 0 <= b <= max amplitude, so its mean is bracketed
        y = x - l
        se = y.std(ddof=1) / math.sqrt(y.size)
        b_max = max(float(s.split("*")[0]) for s in self.net["b"])
        if not (-6 * se <= y.mean() <= b_max * self.T + 6 * se):
            errs.append(f"mean(x_T - l_T) = {y.mean():.5f} outside [0, {b_max * self.T:.4f}] +- 6 se")
        report = json.loads(res["files"]["simulate.json"])
        if abs(report["estimates"]["mean_x"] - x.mean()) > 1e-12:
            errs.append("simulate.json mean_x disagrees with simulate.csv")
        return fails


class NarrowLong(Workload):
    """Few paths, many steps, constant coefficients: occupation_batch streaming
    through run_batch(on_step=...) plus the reflection-map oracle ensemble."""

    name = "narrow-long"
    ops = {"occupation_batch": "occupation_batch", "oracle_downcrossing": "oracle_ensemble",
           "oracle_occupation": "oracle_ensemble"}
    N, H, T, EPS = 500, 1e-4, 0.25, 0.05
    N_ORACLE, H_ORACLE, T_ORACLE = 200, 1e-5, 0.1
    EPS_LIST = (0.1, 0.05, 0.02)  # all above 3 sqrt(H_ORACLE)

    def __init__(self, seed: int, out_dir: Path):
        super().__init__(seed, out_dir)
        r = self.rand
        self.w = round(r.uniform(0.6, 0.8), 4)
        self.c = constant_coefficients(2, sigma=1.0, b=0.0, alpha=[self.w, 1.0 - self.w])
        self.cfg = SimConfig(h=self.H, T=self.T, n_paths=self.N, seed=r.randrange(1, 2**32))
        self.init = SpiderState(0.0, 0.0, 1, 0.0)
        self.oracle_seed = r.randrange(1, 2**32)
        self.path_steps = self.N * self.cfg.n_steps()

    def call_occupation_batch(self):
        return lt.occupation_batch(self.c, self.init, self.cfg, eps=self.EPS, edges=[1], workers=1)

    def call_oracle_ensemble(self):
        """Both estimators at every eps on each reflection-map oracle path."""
        n = self.N_ORACLE
        down = {e: np.empty(n) for e in self.EPS_LIST}
        occ = {e: np.empty(n) for e in self.EPS_LIST}
        l_exact = np.empty(n)
        for p in range(n):
            path, l = lt.oracle_path(self.oracle_seed, p, self.H_ORACLE, self.T_ORACLE)
            l_exact[p] = l[-1]
            for e in self.EPS_LIST:
                down[e][p] = lt.downcrossing_estimate(path, e, self.T_ORACLE).value
                occ[e][p] = lt.occupation_estimate(path, self.c, e, self.T_ORACLE).value
        return {"oracle_downcrossing": down, "oracle_occupation": occ, "l_exact": l_exact}

    def summary(self, outputs):
        d = {}
        if not isinstance(outputs["occupation_batch"], Exception):
            d["occupation_batch/values"] = _array_hex(outputs["occupation_batch"])
        ens = outputs["oracle_ensemble"]
        if not isinstance(ens, Exception):
            for op in ("oracle_downcrossing", "oracle_occupation"):
                d[f"{op}/values"] = _array_hex(ens["l_exact"], *(ens[op][e] for e in self.EPS_LIST))
        return {"digests": d, "values": {}}

    def occupation_target(self) -> float:
        """w * (1/eps) int_0^eps (E|B_T - a| - a) da for B_T ~ N(0, T): the
        mean shell occupation of ray 1 for driftless unit diffusion."""
        s = math.sqrt(self.T)
        nodes, weights = np.polynomial.legendre.leggauss(16)
        a = 0.5 * self.EPS * (nodes + 1.0)
        phi = np.exp(-0.5 * (a / s) ** 2) / math.sqrt(2 * math.pi)
        cdf = np.array([_normal_cdf(v) for v in a / s])
        mean_abs = a * (2 * cdf - 1) + 2 * s * phi
        return self.w * float(0.5 * np.sum(weights * (mean_abs - a)))

    def check(self, outputs):
        fails = _failures(outputs, self.ops)
        if not fails["occupation_batch"]:
            v = outputs["occupation_batch"]
            target = self.occupation_target()
            se = v.std(ddof=1) / math.sqrt(v.size)
            # 5 se plus 5% for the O(sqrt(h)) discretization of the shell
            if v.size != self.N or abs(v.mean() - target) > 5 * se + 0.05 * target:
                fails["occupation_batch"].append(
                    f"mean {v.mean():.5f} vs target {target:.5f} (se {se:.5f})")
        for op in ("oracle_downcrossing", "oracle_occupation"):
            if fails[op]:
                continue
            ens = outputs["oracle_ensemble"]
            l1 = [float(np.abs(ens[op][e] - ens["l_exact"]).mean()) for e in self.EPS_LIST]
            if not all(a > b for a, b in zip(l1, l1[1:])):
                fails[op].append(f"L1 error not decreasing with eps: {l1}")
        return fails


class FirstPassage(Workload):
    """spidersim scatter and exitstats through cli.main: absorption mode on the
    wide-batch network, started at the junction."""

    name = "first-passage"
    ops = {"scatter": "scatter", "exitstats": "exitstats"}
    H = 1e-6
    SCATTER_DELTA, SCATTER_N = 0.01, 10_000
    EXIT_DELTAS, EXIT_N = (0.02, 0.016), 1_500

    def __init__(self, seed: int, out_dir: Path):
        super().__init__(seed, out_dir)
        r = self.rand
        net = _network(seed)
        # horizons near 4.5 delta^2 of the widest level censor a few paths,
        # so the absorbing loop length does not depend on the slowest path
        self.scatter_cfg = self._write_config("config-scatter.json", {
            "network": net,
            "sim": {"h": self.H, "T": 4.5e-4, "delta_shell": 1e-3, "n_paths": 1,
                    "seed": r.randrange(1, 2**32)},
            "scatter": {"t": 0.0, "ell": round(r.uniform(0.2, 1.0), 4),
                        "delta": self.SCATTER_DELTA, "n": self.SCATTER_N},
        })
        self.exit_cfg = self._write_config("config-exitstats.json", {
            "network": net,
            "sim": {"h": self.H, "T": 1.8e-3, "delta_shell": 1e-3, "n_paths": 1,
                    "seed": r.randrange(1, 2**32)},
            "exitstats": {"t": 0.0, "ell": round(r.uniform(0.0, 0.5), 4),
                          "deltas": list(self.EXIT_DELTAS), "n": self.EXIT_N},
        })

    def call_scatter(self):
        return self._cli("scatter", self.scatter_cfg)

    def call_exitstats(self):
        return self._cli("exitstats", self.exit_cfg)

    def summary(self, outputs):
        d = {}
        for op in self.ops:
            if not isinstance(outputs[op], Exception):
                d.update(self._cli_digests(op, outputs[op]))
        return {"digests": d, "values": {}}

    def check(self, outputs):
        # The CLI exits 1 when its own 3-sigma check fails, which a correct
        # sampler does on about 1% of seeds; that exit is checked for
        # consistency with the written report, and the benchmark applies its
        # own 5-sigma bounds.
        fails = _failures(outputs, self.ops)
        if not fails["scatter"]:
            res, errs = outputs["scatter"], fails["scatter"]
            rep = json.loads(res["files"]["scatter.json"])
            freq = np.array(rep["estimates"]["freq"])
            target = np.array(rep["estimates"]["target"])
            se = np.array(rep["stderr"]["freq"])
            own = list(np.abs(freq - target) <= 3 * se)
            if res["rc"] not in (0, 1) or (res["rc"] == 0) != all(own) \
                    or own != rep["details"]["details"]["per_edge_pass"]:
                errs.append(f"exit code {res['rc']} inconsistent with the report")
            if abs(freq.sum() - 1.0) > 1e-9 or np.any(np.abs(freq - target) > 5 * se):
                errs.append(f"exit-ray frequencies {freq} vs alpha {target}")
        if not fails["exitstats"]:
            res, errs = outputs["exitstats"], fails["exitstats"]
            rep = json.loads(res["files"]["exitstats.json"])
            if res["rc"] not in (0, 1) or (res["rc"] == 0) != bool(rep["pass"]):
                errs.append(f"exit code {res['rc']} inconsistent with the report")
            for row in rep["estimates"]["rows"]:
                se = row["l_ratio_stderr"]
                if not 0.9 - 5 * se <= row["l_ratio"] <= 1.1 + 5 * se:
                    errs.append(f"E[l]/delta = {row['l_ratio']:.4f} at delta {row['delta']}")
            if not all(0.5 <= r <= 2.0 for r in rep["estimates"]["successive_theta_ratios"]):
                errs.append("exit times do not scale like delta^2")
        return fails


class FkVsPde(Workload):
    """Criterion-06(c) manufactured problem: grid solver on a fine and a
    coarsened grid, the discrete residual, and Monte Carlo at two queries."""

    name = "fk-vs-pde"
    ops = {"fk_vs_pde": "fk_vs_pde", "query0": "fk_vs_pde", "query1": "fk_vs_pde",
           "residual": "residual"}
    GRID = (48, 48, 24)
    R = K = 2.0
    T = 1.0
    N, H, T_QUERY = 2_000, 1e-3, 0.8

    def __init__(self, seed: int, out_dir: Path):
        super().__init__(seed, out_dir)
        r = self.rand

        def jig(v):
            return round(v * r.uniform(0.8, 1.2), 4)

        R = self.R
        self.c = build_coefficient_set({
            "I": 2, "b": ["0", "0"], "sigma": ["1", "1"],
            "alpha": {"exprs": ["1 + l", "1"], "mode": "renormalize"},
            "bounds": {"a_lower": 0.1, "sigma_lower": 0.5, "b_bound": 1.0,
                       "sigma_bound": 1.0, "alpha_lip": 1.0},
        })
        self.truth = TestFunction(I=2, terms=(
            TfTerm(edge_coeffs=(1.0, -jig(0.5)), x_poly=pde.flat_profile_poly(R, 1),
                   l_poly=(1.0, jig(0.3)), time_poly=(1.0, -jig(0.4))),
            TfTerm(edge_coeffs=(jig(0.4),) * 2, x_poly=pde.flat_profile_poly(R, 2),
                   l_poly=(0.5, 0.0, jig(0.1)), sin_omega=jig(1.3), sin_phase=jig(0.4)),
            TfTerm(edge_coeffs=(1.0, 1.0), x_poly=(1.0,), l_poly=(jig(0.2), jig(0.5)),
                   time_poly=(0.5, jig(0.2))),
        ))
        self.problem = pde.manufactured_backward(self.c, self.truth, self.T, R, self.K)
        self.fk_problem = fk.FKProblem(g_edge=self.problem.g_edge, h_edge=self.problem.h_edge,
                                       h0=self.problem.h0)
        self.grid = pde.PdeGrid(*self.GRID)
        # a fixed query time keeps the Monte Carlo work the same for every seed
        self.queries = [(self.T_QUERY, round(r.uniform(0.5, 1.2), 2), e, round(r.uniform(0.0, 0.5), 2))
                        for e in (1, 2)]
        self.cfg = SimConfig(h=self.H, T=self.T, n_paths=self.N, seed=r.randrange(1, 2**32))
        self.path_steps = sum(self.N * self.cfg.n_steps(q[0]) for q in self.queries)
        self.pde_unknowns = sum(2 * (g.M + 1) * (g.J + 1) * (g.P + 1)
                                for g in (self.grid, self.grid.coarsened()))
        self._solution = None

    def call_fk_vs_pde(self):
        rows, fine = fk.fk_vs_pde(self.fk_problem, self.c, self.queries, self.cfg, self.grid,
                                  R=self.R, K=self.K, psi_edge=self.problem.psi_edge, workers=1)
        self._solution = fine
        return rows, fine.values[:, ::24, ::24, ::12].copy()

    def call_residual(self):
        if self._solution is None:
            raise RuntimeError("no grid solution to check")
        fine, self._solution = self._solution, None
        return pde.residual(fine)

    @staticmethod
    def _row(outputs, op):
        main = outputs["fk_vs_pde"]
        return None if isinstance(main, Exception) else main[0][int(op[-1])]

    def summary(self, outputs):
        digests, values = {}, {}
        if not isinstance(outputs["fk_vs_pde"], Exception):
            values["fk_vs_pde/pde_sample"] = outputs["fk_vs_pde"][1].ravel().tolist()
        for op in ("query0", "query1"):
            row = self._row(outputs, op)
            if row is not None:
                digests[f"{op}/passed"] = str(row.passed)
                values[f"{op}/pde_value"] = [row.pde_value, row.grid_budget]
                values[f"{op}/mc"] = [row.mc_mean, row.mc_stderr]
        return {"digests": digests, "values": values}

    def check(self, outputs):
        fails = _failures(outputs, self.ops)
        for op in ("query0", "query1"):
            if fails[op]:
                continue
            row = self._row(outputs, op)
            t, x, e, l = row.query
            exact = float(self.truth.value(e, t, x, l))
            # first-order grid error on this grid is about 1e-3
            if abs(row.pde_value - exact) > 0.02:
                fails[op].append(f"grid value {row.pde_value:.5f} vs exact {exact:.5f}")
            # 5 se plus an allowance for the O(sqrt(h)) Euler bias at the vertex
            if abs(row.mc_mean - exact) > 5 * row.mc_stderr + 0.02:
                fails[op].append(f"Monte Carlo {row.mc_mean:.5f} vs exact {exact:.5f} "
                                 f"(se {row.mc_stderr:.5f})")
        res = outputs["residual"]
        if not fails["residual"] and max(res["interior_max"], res["vertex_max"]) > 1e-9:
            fails["residual"].append(f"solved field violates its stencil: {res}")
        return fails


WORKLOADS = {w.name: w for w in (WideBatch, NarrowLong, FirstPassage, FkVsPde)}
