#!/usr/bin/env python3
"""spidersim benchmark: one workload per run, outputs checked, metrics as JSON.

    python3 perfbench/run.py --workload wide-batch --seed 1 --seconds 25 --trace 0

Run from the repository root (or anywhere: paths are taken from this file).
The benchmark imports spidersim from ``src/`` of the same checkout and
writes scratch files to ``.bench_out/`` only.

With ``--trace 0`` it measures the end-to-end metrics (see BENCHMARK.json);
with ``--trace 1`` it alternates untraced and traced workload runs and
reports the per-layer metrics of the traced ones (see tracing.py).  Every
workload run is checked: outputs against the stored reference for this seed
(``reference.json``) and against the first run of the process, plus the
workload's statistical checks.  The last line of standard output is the
result object; the line before it carries the environment, digests and
failure details.

    python3 perfbench/run.py --workload all --seed 1 --seconds 25
        runs every workload in its own process and prints one table.
    python3 perfbench/run.py --workload fk-vs-pde --record 0-31
        records reference outputs for seeds 0..31 from the current code.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
REFERENCE = BENCH / "reference.json"
WORKLOAD_NAMES = ("wide-batch", "narrow-long", "first-passage", "fk-vs-pde")
MIN_REPS = 3
REL_TOL = 1e-12


def _load_workloads():
    """Import spidersim from this checkout's src/ and the workload module."""
    if not (SRC / "spidersim" / "__init__.py").is_file():
        print(f"error: no spidersim sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import spidersim
    import workloads

    if Path(spidersim.__file__).resolve().parent != (SRC / "spidersim").resolve():
        print(f"error: spidersim imported from {spidersim.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)
    return workloads


def _out_dir(workload: str, seed: int) -> Path:
    return OUT / f"{workload}-s{seed}"


# ---------------------------------------------------------------------------
# environment record
# ---------------------------------------------------------------------------


def _read(path: str) -> str:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return ""


def _cpuinfo(field: str) -> str:
    return next((line.split(":", 1)[1].strip() for line in _read("/proc/cpuinfo").splitlines()
                 if line.startswith(field)), "")


def numeric_platform() -> dict:
    """What fixes the bits of numpy's results: its version and the CPU's
    instruction-set extensions (numpy dispatches SIMD kernels on them)."""
    import numpy

    flags = " ".join(sorted(_cpuinfo("flags").split()))
    return {"numpy": numpy.__version__, "machine": platform.machine(),
            "cpu_flags": hashlib.blake2b(flags.encode(), digest_size=8).hexdigest()}


def environment() -> dict:
    import numpy

    cpu = _cpuinfo("model name") or platform.processor()
    caches = {}
    for idx in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level = _read(str(idx / "level"))
        if level in ("2", "3"):
            caches[f"L{level}"] = _read(str(idx / "size"))
    commit = None
    if (ROOT / ".git").exists():
        res = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
        commit = res.stdout.strip() if res.returncode == 0 else None
    src = hashlib.blake2b(digest_size=16)
    for path in sorted((SRC / "spidersim").glob("*.py")):
        src.update(path.name.encode())
        src.update(path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "cache": caches,
        "git_commit": commit,
        "src_digest": src.hexdigest(),
        "workers": 1,
    }


# ---------------------------------------------------------------------------
# reference outputs
# ---------------------------------------------------------------------------


def _load_reference() -> dict:
    return json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}


def stored_reference(workload: str, seed: int) -> tuple[dict | None, str]:
    refs = _load_reference()
    ref = refs.get(workload, {}).get(str(seed))
    if ref is None:
        return None, "none stored for this seed"
    if refs.get("platform") != numeric_platform():
        return None, f"recorded on another numeric platform {refs.get('platform')}"
    return ref, "compared with the stored reference"


def mismatches(got: dict, ref: dict, with_arrays: bool = True) -> list[str]:
    """Keys whose digest differs, or whose values differ by more than 1e-12
    relative (absolute below magnitude 1)."""
    bad = []
    for key, want in ref["digests"].items():
        if (with_arrays or not key.endswith("/arrays")) and got["digests"].get(key) != want:
            bad.append(key)
    for key, want in ref["values"].items():
        have = got["values"].get(key)
        if have is None or len(have) != len(want) or any(
                abs(a - b) > REL_TOL * max(abs(b), 1.0) for a, b in zip(have, want)):
            bad.append(key)
    return bad


def _summary(wl, outputs, tracer=None) -> dict:
    s = wl.summary(outputs)
    if tracer is not None:
        for call, h in tracer.arrays.items():
            s["digests"][f"{call}/arrays"] = h.hexdigest()
    return s


def _failed_ops(wl, checks: dict, bad_keys: list[str]) -> dict[str, list[str]]:
    failed = {op: list(errs) for op, errs in checks.items() if errs}
    for key in bad_keys:
        prefix = key.split("/")[0]
        for op, call in wl.ops.items():
            if prefix in (op, call):
                failed.setdefault(op, []).append(f"output mismatch: {key}")
    return failed


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------


def time_set_up(workload: str, seed: int) -> float:
    """One set-up timed: import spidersim (and the benchmark modules) afresh,
    generate and validate the inputs, build the problem.  numpy stays
    imported, and the modules in use before are put back afterwards."""
    fresh = ("spidersim", "workloads", "tracing")
    saved = {m: sys.modules.pop(m) for m in list(sys.modules) if m.partition(".")[0] in fresh}
    try:
        t0 = time.perf_counter()
        importlib.import_module("workloads").WORKLOADS[workload](seed, _out_dir(workload, seed))
        return time.perf_counter() - t0
    finally:
        for m in [m for m in sys.modules if m.partition(".")[0] in fresh]:
            del sys.modules[m]
        sys.modules.update(saved)


def measure(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    workloads = _load_workloads()
    import tracing

    wl = workloads.WORKLOADS[workload](seed, _out_dir(workload, seed))
    stored, ref_status = stored_reference(workload, seed)
    failures: list[str] = []
    failed = 0
    attempted = 0

    def account(outputs, tracer, baseline):
        nonlocal failed, attempted
        summary = _summary(wl, outputs, tracer)
        bad = mismatches(summary, baseline, with_arrays=tracer is not None) if baseline else []
        if stored is not None:
            bad += mismatches(summary, stored, with_arrays=tracer is not None)
        if tracer is not None and tracer.full:
            errs = tracer.check_spans() + wl.identities(tracer.counts)
            failures.extend(f"trace self-check: {e}" for e in errs)
        per_op = _failed_ops(wl, wl.check(outputs), bad)
        attempted += len(wl.ops)
        failed += len(per_op)
        failures.extend(f"{op}: {e}" for op, errs in per_op.items() for e in errs)
        return summary

    # The first run also digests the arrays run_batch returns (and counts
    # path-steps in absorption mode); later runs must reproduce its outputs.
    # Without tracing the first run is a warm-up (cold caches, and the
    # capture wrappers) and is not among the timed runs.  With --trace 1,
    # runs alternate traced and untraced, starting traced.  A set-up is
    # timed after every workload run, so that set-up samples the same
    # stretch of the machine's fast and contended states as the workload
    # runs; setup_s is the fastest of them.
    setup = [time_set_up(workload, seed)]
    walls = {False: [], True: []}
    warmup_s = None
    layer_runs = []
    first = None
    last_tracer = None
    min_reps = 2 * MIN_REPS if trace else MIN_REPS + 1
    start = time.perf_counter()
    n = 0
    while True:
        elapsed = time.perf_counter() - start
        if n >= min_reps:
            # stop rather than start a run that would end after the deadline
            typical = statistics.median(walls[False] + walls[True])
            if elapsed + typical > seconds or elapsed >= seconds:
                break
        if walls[False] and elapsed >= 3 * seconds:
            break
        if trace and n % 2 == 0:
            tracer = tracing.Tracer()
        else:
            tracer = tracing.Tracer(tracing.CAPTURE) if n == 0 else None
        if tracer:
            tracer.install()
        t0 = time.perf_counter()
        try:
            outputs = wl.run(tracer)
        finally:
            wall = time.perf_counter() - t0
            if tracer:
                tracer.uninstall()
        traced = tracer is not None and tracer.full
        if n == 0 and not trace:
            warmup_s = wall
        else:
            walls[traced].append(wall)
        if n == 0 and not wl.path_steps:
            wl.path_steps = tracer.counts.get("simulator.path_steps", 0)
        summary = account(outputs, tracer, first)
        first = first or summary
        if traced:
            layer_runs.append(tracer.metrics())
            last_tracer = tracer
        setup.append(time_set_up(workload, seed))
        n += 1

    # The third quartile of the times of the timed workload runs: on the
    # reference host the speed switches between a fast and a contended
    # state every few seconds, in proportions that change from minute to
    # minute; the contended level, which the third quartile tracks, moves
    # less between windows than the mean or the median of a window.
    wall = statistics.quantiles(walls[False], n=4, method="inclusive")[2]
    if trace:
        metrics = {name: statistics.median(run[name] for run in layer_runs)
                   for name in layer_runs[0]}
        metrics["trace.overhead_frac"] = (statistics.mean(walls[True])
                                          / statistics.mean(walls[False]) - 1.0)
        last_tracer.write_spans(_out_dir(workload, seed) / "spans.csv")
    else:
        metrics = {
            "wall_s": wall,
            "setup_s": min(setup),
            "path_steps_per_s": wl.path_steps / wall,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    if units.keys() != metrics.keys():
        raise RuntimeError(f"metrics {sorted(metrics)} differ from BENCHMARK.json {sorted(units)}")
    result = {
        "correct": failed == 0 and not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in metrics.items()},
    }
    detail = {
        "workload": workload,
        "seed": seed,
        "environment": {**environment(), "seed": seed,
                        "untraced_runs": len(walls[False]), "traced_runs": len(walls[True])},
        "failed_frac": failed / attempted,
        "pde_unknowns_per_s": wl.pde_unknowns / wall,
        "path_steps": wl.path_steps,
        "wall_median_s": statistics.median(walls[False]),
        "walls_s": walls[False],
        "warmup_s": warmup_s,
        "traced_walls_s": walls[True],
        "setup_s_all": setup,
        "reference": ref_status,
        "outputs": first,
        "failures": failures[:50],
    }
    return result, detail


# ---------------------------------------------------------------------------
# recording and the all-workloads table
# ---------------------------------------------------------------------------


def record(workload: str, seeds: list[int]) -> int:
    workloads = _load_workloads()
    import tracing

    refs = _load_reference()
    if refs.setdefault("platform", numeric_platform()) != numeric_platform():
        print("reference.json was recorded on another numeric platform", file=sys.stderr)
        return 1
    for seed in seeds:
        wl = workloads.WORKLOADS[workload](seed, _out_dir(workload, seed))
        with tracing.Tracer() as tr:
            outputs = wl.run(tr)
        problems = [e for errs in wl.check(outputs).values() for e in errs]
        problems += tr.check_spans() + wl.identities(tr.counts)
        if problems:
            print(f"{workload} seed {seed}: not recorded: {problems}", file=sys.stderr)
            return 1
        refs.setdefault(workload, {})[str(seed)] = _summary(wl, outputs, tr)
        print(f"{workload} seed {seed}: recorded", file=sys.stderr)
    REFERENCE.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    return 0


def run_all(args) -> int:
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        res = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900, cwd=ROOT)
        if res.returncode != 0:
            print(res.stderr, file=sys.stderr)
            return res.returncode
        lines = res.stdout.strip().splitlines()
        out, detail = json.loads(lines[-1]), json.loads(lines[-2])["detail"]
        combined["correct"] &= out["correct"]
        combined["attempted"] += out["attempted"]
        combined["failed"] += out["failed"]
        rows = {**out["metrics"], "failed_frac": {"value": detail["failed_frac"], "unit": "ratio"}}
        if name == "fk-vs-pde" and not args.trace:
            rows["pde_unknowns_per_s"] = {"value": detail["pde_unknowns_per_s"], "unit": "1/s"}
        for metric, v in rows.items():
            print(f"{name:14s} {metric:28s} {v['value']:16.6g} {v['unit']}")
            combined["metrics"][f"{name}/{metric}"] = v
    print(json.dumps(combined))
    return 0


def _seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", metavar="LO-HI", help="record reference outputs for these seeds")
    args = ap.parse_args()
    if args.record:
        names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
        return max(record(name, _seed_range(args.record)) for name in names)
    if args.workload == "all":
        return run_all(args)
    result, detail = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    for line in detail["failures"]:
        print(f"FAILED {line}", file=sys.stderr)
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
