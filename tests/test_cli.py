import json
from pathlib import Path

import pytest

from spidersim.cli import main


def _base_config(**extra):
    cfg = {
        "network": {
            "I": 2,
            "b": ["0", "0"],
            "sigma": ["1", "1"],
            "alpha": ["0.5", "0.5"],
            "bounds": {"a_lower": 0.4, "sigma_lower": 0.5, "b_bound": 0.1,
                       "sigma_bound": 1.0, "alpha_lip": 0.1},
        },
        "sim": {"h": 1e-3, "T": 0.25, "n_paths": 200, "seed": 7},
    }
    cfg.update(extra)
    return cfg


def _write(tmp_path, cfg, name="c.json"):
    p = tmp_path / name
    p.write_text(json.dumps(cfg), encoding="utf-8")
    return str(p)


def _read_outputs(out: Path, stem: str):
    return ((out / f"{stem}.csv").read_bytes(), (out / f"{stem}.json").read_bytes())


def test_validate_pass(tmp_path, capsys):
    path = _write(tmp_path, _base_config())
    code = main(["validate", "--config", path, "--out", str(tmp_path / "out")])
    assert code == 0
    report = json.loads((tmp_path / "out" / "validate.json").read_text())
    assert report["pass"] is True
    assert "config_hash" in report
    csv = (tmp_path / "out" / "validate.csv").read_text().splitlines()
    assert csv[0].startswith("clause,")


def test_malformed_expression_exits_2(tmp_path, capsys):
    cfg = _base_config()
    cfg["network"]["b"] = ["1 +", "0"]
    path = _write(tmp_path, cfg)
    code = main(["validate", "--config", path, "--out", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert "offset" in err


def test_invalid_json_cites_byte_offset(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text('{"network": }', encoding="utf-8")
    code = main(["validate", "--config", str(p), "--out", str(tmp_path / "out")])
    assert code == 2
    assert "byte offset" in capsys.readouterr().err


def test_unknown_keys_rejected(tmp_path):
    cfg = _base_config()
    cfg["bogus"] = {}
    code = main(["validate", "--config", _write(tmp_path, cfg),
                 "--out", str(tmp_path / "out")])
    assert code == 2


def test_runtime_evaluation_error_exits_3(tmp_path, capsys):
    cfg = _base_config()
    # finite on the admissibility grid, overflows during simulation
    cfg["network"]["b"] = ["exp(99*x)^9", "0"]
    cfg["network"]["bounds"]["b_bound"] = 1e300
    cfg["init"] = {"x": 1.0, "edge": 1}
    code = main(["simulate", "--config", _write(tmp_path, cfg),
                 "--out", str(tmp_path / "out")])
    assert code == 3


def test_scatter_csv_columns_and_exit(tmp_path):
    cfg = _base_config()
    cfg["sim"] = {"h": 1e-4, "T": 0.05, "n_paths": 1, "seed": 3,
                  "delta_shell": 1e-3}
    cfg["scatter"] = {"t": 0.0, "ell": 0.0, "delta": 0.05, "n": 10000}
    code = main(["scatter", "--config", _write(tmp_path, cfg),
                 "--out", str(tmp_path / "out")])
    assert code == 0
    lines = (tmp_path / "out" / "scatter.csv").read_text().splitlines()
    assert lines[0] == "edge,freq,stderr,alpha_target,pass,config_hash"
    assert len(lines) == 3


def test_rerun_is_byte_identical_and_worker_invariant(tmp_path):
    cfg = _base_config()
    cfg["init"] = {"x": 0.5, "edge": 1}
    path = _write(tmp_path, cfg)
    out1, out2, out3 = (tmp_path / d for d in ("o1", "o2", "o3"))
    assert main(["simulate", "--config", path, "--out", str(out1)]) == 0
    assert main(["simulate", "--config", path, "--out", str(out2)]) == 0
    assert main(["simulate", "--config", path, "--out", str(out3), "--workers", "4"]) == 0
    assert _read_outputs(out1, "simulate") == _read_outputs(out2, "simulate")
    assert _read_outputs(out1, "simulate") == _read_outputs(out3, "simulate")
    # wall-clock metadata lives outside the deterministic outputs
    assert (out1 / "run_meta.json").exists()


def test_seed_override_changes_outputs(tmp_path):
    cfg = _base_config()
    cfg["init"] = {"x": 0.5, "edge": 1}
    path = _write(tmp_path, cfg)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    main(["simulate", "--config", path, "--out", str(out1)])
    main(["simulate", "--config", path, "--out", str(out2), "--seed", "99"])
    assert _read_outputs(out1, "simulate") != _read_outputs(out2, "simulate")


def test_pde_subcommand(tmp_path):
    cfg = _base_config()
    cfg["pde"] = {
        "R": 2.0, "K": 1.0, "grid": {"M": 6, "J": 8, "P": 4},
        "g": ["0", "0"], "h": ["1", "1"],
    }
    code = main(["pde", "--config", _write(tmp_path, cfg),
                 "--out", str(tmp_path / "out")])
    assert code == 0
    rep = json.loads((tmp_path / "out" / "pde.json").read_text())
    assert rep["pass"] is True


def test_fk_and_compare_subcommands(tmp_path):
    cfg = _base_config()
    cfg["sim"]["n_paths"] = 100
    cfg["fk"] = {"g": ["0", "0"], "h": ["1", "1"],
                 "queries": [[0.0, 0.4, 1, 0.1]]}
    cfg["fk_compare"] = {"R": 2.0, "K": 1.0, "grid": {"M": 8, "J": 8, "P": 4}}
    out = tmp_path / "out"
    assert main(["fk", "--config", _write(tmp_path, cfg), "--out", str(out)]) == 0
    rep = json.loads((out / "fk.json").read_text())
    assert rep["estimates"]["values"][0] == pytest.approx(0.25, abs=1e-12)
    assert main(["fk-compare", "--config", _write(tmp_path, cfg),
                 "--out", str(out)]) == 0
    lines = (out / "fk_compare.csv").read_text().splitlines()
    assert lines[0].startswith("t,x,edge,l,mc_mean")


def test_remaining_subcommands_smoke(tmp_path):
    cfg = _base_config()
    cfg["network"]["bounds"]["b_bound"] = 1.0
    cfg["sim"] = {"h": 1e-4, "T": 0.05, "n_paths": 400, "seed": 11,
                  "delta_shell": 1e-3}
    cfg["init"] = {"x": 0.0, "edge": 1}
    cfg["exitstats"] = {"t": 0.0, "ell": 0.0, "deltas": [0.04, 0.02], "n": 2000}
    cfg["atom"] = {"deltas": [0.1, 0.05], "oracle": "half_normal"}
    cfg["martingale"] = {"s": 0.0, "s_prime": 0.05}
    cfg["ito"] = {"h_list": [5e-3, 1e-3], "n_paths": 6}
    cfg["markov"] = {"spec": {"kind": "fixed_time", "time": 0.01},
                     "functional": "x", "lag": 0.02, "n": 800}
    cfg["localtime"] = {"eps_list": [0.2, 0.1], "n_paths": 40}
    path = _write(tmp_path, cfg)
    for sub in ("exitstats", "atom", "martingale", "ito", "markov", "localtime"):
        out = tmp_path / f"out_{sub}"
        code = main([sub, "--config", path, "--out", str(out)])
        assert code in (0, 1), sub  # wired and ran; pass/fail is statistical
        assert (out / f"{sub}.csv").exists()
        report = json.loads((out / f"{sub}.json").read_text())
        assert report["name"]
        assert "config_hash" in report


def test_failed_check_exits_1(tmp_path):
    cfg = _base_config()
    # alpha floor passes the build grid but the report then fails clause E
    cfg["network"]["sigma"] = ["max(x, 0.01)", "1"]
    cfg["network"]["bounds"]["sigma_lower"] = 0.5
    cfg["network"]["bounds"]["sigma_bound"] = 5.0
    code = main(["validate", "--config", _write(tmp_path, cfg),
                 "--out", str(tmp_path / "out")])
    assert code == 1


@pytest.mark.parametrize("block, key, value", [
    ("fk_compare", "grid", {"J": 8, "P": 4}),
    ("fk_compare", "grid", {"M": "x", "J": 8, "P": 4}),
    ("fk_compare", "grid", {"M": 8.5, "J": 8, "P": 4}),
    ("fk", "queries", [[0.0, 0.5, 1, 0.0], 5]),
], ids=["missing-M", "string-M", "fractional-M", "query-not-a-list"])
def test_config_shape_errors_exit_2(tmp_path, capsys, block, key, value):
    cfg = _base_config()
    cfg["fk"] = {"g": ["0", "0"], "h": ["1", "1"], "queries": [[0.0, 0.4, 1, 0.1]]}
    cfg["fk_compare"] = {"R": 2.0, "K": 1.0, "grid": {"M": 8, "J": 8, "P": 4}}
    cfg[block][key] = value
    code = main(["fk-compare", "--config", _write(tmp_path, cfg),
                 "--out", str(tmp_path / "out")])
    assert code == 2
    assert f"{block}." in capsys.readouterr().err


def _all_blocks_config():
    """The base config with a small block for every subcommand."""
    cfg = _base_config()
    cfg["network"]["alpha"] = {"exprs": ["0.5", "0.5"], "mode": "exact"}
    cfg["network"]["grid"] = {"n": 9}
    cfg["init"] = {"x": 0.0, "edge": 1}
    cfg["fk"] = {"g": ["0", "0"], "h": ["1", "1"], "queries": [[0.0, 0.4, 1, 0.1]]}
    cfg["fk_compare"] = {"R": 2.0, "K": 1.0, "grid": {"M": 8, "J": 8, "P": 4}}
    cfg["exitstats"] = {"deltas": [0.04], "n": 100}
    cfg["atom"] = {"deltas": [0.1]}
    cfg["ito"] = {"h_list": [5e-3]}
    cfg["localtime"] = {"eps_list": [0.1], "n_paths": 2}
    cfg["pde"] = {"R": 2.0, "K": 1.0, "grid": {"M": 6, "J": 8, "P": 4}, "g": ["0", "0"]}
    cfg["markov"] = {"spec": {"kind": "fixed_time", "time": 0.01}, "lag": 0.02, "n": 100}
    return cfg


@pytest.mark.parametrize("sub, key, value", [
    ("validate", "network.I", 2.5),
    ("validate", "network.I", "2"),
    ("validate", "network.b", 5),
    ("validate", "network.alpha.exprs", 5),
    ("validate", "network.bounds.a_lower", "x"),
    ("validate", "network.grid.n", 2.7),
    ("validate", "sim.store_paths", "no"),
    ("simulate", "init.edge", 3),
    ("fk", "fk.g", 5),
    ("fk", "fk.queries", [[0, "a", 1, 0]]),
    ("fk", "fk.queries", [[0.0, 0.4, 1.5, 0.1]]),
    ("fk-compare", "fk.queries", [[0.0, 0.4, 3, 0.1]]),
    ("exitstats", "exitstats.deltas", ["x"]),
    ("atom", "atom.deltas", 0.1),
    ("ito", "ito.h_list", 0.01),
    ("localtime", "localtime.eps_list", "x"),
    ("atom", "atom.oracle", "halfnormal"),
    ("pde", "pde.direction", "up"),
    ("markov", "markov.functional", "y"),
    ("markov", "markov.spec.kind", "hit"),
    ("markov", "markov.spec.time", "x"),
], ids=["I-fractional", "I-string", "b-number", "alpha-exprs-number", "bound-string",
        "grid-n-fractional", "store_paths", "init-edge-above-I", "fk-g-number",
        "query-string", "query-ray-fractional", "query-ray-above-I", "deltas-string-item",
        "atom-deltas-number", "h_list-number", "eps_list-string", "oracle-unknown",
        "direction-unknown", "functional-unknown", "spec-kind-unknown", "spec-time-string"])
def test_wrong_typed_value_exits_2_and_names_it(tmp_path, capsys, sub, key, value):
    cfg = _all_blocks_config()
    *path, leaf = key.split(".")
    block = cfg
    for k in path:
        block = block[k]
    block[leaf] = value
    code = main([sub, "--config", _write(tmp_path, cfg), "--out", str(tmp_path / "out")])
    assert code == 2
    assert key in capsys.readouterr().err


@pytest.mark.parametrize("path", sorted(Path(__file__).parents[1].glob("configs/*.json")),
                         ids=lambda p: p.name)
def test_shipped_configs_validate(tmp_path, path):
    assert main(["validate", "--config", str(path), "--out", str(tmp_path / "out")]) == 0


_OFF_GRID_T = {"h": 1e-3, "T": 0.0105, "n_paths": 20, "seed": 7}  # 10.5 steps
_FINE_SIM = {"h": 1e-5, "T": 1e-3, "n_paths": 20, "seed": 7}


@pytest.mark.parametrize("sub, blocks, flags, key", [
    ("markov", {"markov": {"spec": {"kind": "hitting"}, "lag": 0.02, "n": 100}}, [],
     "markov.spec.level"),
    ("scatter", {"scatter": {"delta": 0.05, "n": 100}}, [], "scatter.n"),
    ("martingale", {"martingale": {"s": 0.3}}, [], "martingale.s"),
    ("simulate", {}, ["--seed", "-1"], "sim.seed"),
    ("scatter", {"scatter": {"delta": 0.0015, "n": 10**4}}, [], "scatter.delta"),
    ("exitstats", {"exitstats": {"deltas": [0.04, 0.0005], "n": 100}}, [],
     "exitstats.deltas[1]"),
    ("martingale", {"martingale": {"s": 0.1, "s_prime": 0.1}}, [], "martingale.s_prime"),
    ("martingale", {"martingale": {"s": 0.1005, "s_prime": 0.2}}, [], "martingale.s"),
    ("martingale", {"martingale": {"s": 0.1, "s_prime": 0.2005}}, [], "martingale.s_prime"),
    ("markov", {"markov": {"spec": {"kind": "fixed_time", "time": 0.01}, "lag": 0.0205,
                           "n": 100}}, [], "markov.lag"),
    ("simulate", {"sim": _OFF_GRID_T}, [], "sim.T"),
    ("atom", {"sim": _OFF_GRID_T}, [], "sim.T"),
    ("exitstats", {"sim": _OFF_GRID_T}, [], "sim.T"),
    ("localtime", {"sim": _OFF_GRID_T}, [], "sim.T"),
    ("simulate", {"init": {"t": 0.0005}}, [], "init.t"),
    ("simulate", {"init": {"t": 0.3}}, [], "init.t"),
    ("martingale", {"init": {"t": 0.0005}}, [], "init.t"),
    ("markov", {"init": {"t": 0.0005}}, [], "init.t"),
    ("fk", {"fk": {"g": ["0", "0"], "queries": [[0.0, 0.4, 1, 0.1], [0.0005, 0.4, 1, 0.1]]}},
     [], "fk.queries[1]"),
    ("scatter", {"sim": _FINE_SIM, "scatter": {"t": 5e-6, "delta": 0.05, "n": 10**4}}, [],
     "scatter.t"),
    ("exitstats", {"sim": _FINE_SIM, "exitstats": {"t": 5e-6, "deltas": [0.04], "n": 100}},
     [], "exitstats.t"),
    ("ito", {"sim": {"h": 1e-3, "T": 1e-3}, "ito": {"h_list": [1e-4, 3e-5]}}, [],
     "ito.h_list"),
    ("ito", {"sim": {"h": 1e-4, "T": 1e-3}, "ito": {"h_list": [3e-4, 1e-4]}}, [],
     "ito.h_list[0]"),
    ("ito", {"sim": {"h": 1e-4, "T": 3e-4}, "ito": {"h_list": [1e-4, 3e-5]}}, [],
     "ito.h_list[0]"),
    ("ito", {"sim": {"h": 1e-4, "T": 1e-3}, "init": {"t": 0.5}, "ito": {"h_list": [1e-4]}},
     [], "init.t"),
    ("fk", {"fk": {"g": ["0", "0"], "queries": [[0.25, 0.4, 1, 0.1]]}}, [],
     "fk.queries[0][0]"),
    ("exitstats", {"exitstats": {"deltas": [0.04], "n": 1}}, [], "exitstats.n"),
    ("atom", {"sim": {"h": 1e-3, "T": 0.25, "n_paths": 0}}, [], "sim.n_paths"),
    ("ito", {"ito": {"h_list": [1e-3]}}, [], "ito.h_list"),
    ("ito", {"init": {"t": 0.25}, "ito": {"h_list": [5e-3, 1e-3]}}, [], "init.t"),
    ("scatter", {"scatter": {"t": 0.25, "delta": 0.05, "n": 10**4}}, [], "scatter.t"),
    ("exitstats", {"exitstats": {"t": 0.25, "deltas": [0.04], "n": 100}}, [], "exitstats.t"),
    ("simulate", {"init": {"t": 0.25}}, [], "init.t"),
    ("atom", {"init": {"t": 0.25}}, [], "init.t"),
    ("markov", {"init": {"t": 0.25}}, [], "init.t"),
    ("martingale", {"init": {"t": 0.25}}, [], "init.t"),
    ("markov", {"markov": {"spec": {"kind": "fixed_time", "time": 0.0105}, "lag": 0.02,
                           "n": 100}}, [], "markov.spec.time"),
    ("markov", {"markov": {"spec": {"kind": "fixed_time", "time": 0.3}, "lag": 0.02,
                           "n": 100}}, [], "markov.spec.time"),
    ("markov", {"markov": {"spec": {"kind": "vertex_after", "time": 0.24}, "lag": 0.02,
                           "n": 100}}, [], "markov.spec.time"),
    ("fk-compare", {"fk": {"g": ["0", "0"], "queries": [[0.0, 1.9, 1, 0.1]]}}, [],
     "fk.queries[0]"),
    ("fk-compare", {"fk_compare": {"R": 2.0, "K": 1.0, "grid": {"M": 7, "J": 8, "P": 4}}}, [],
     "fk_compare.grid"),
    ("localtime", {"localtime": {"eps_list": [0.01], "n_paths": 2}}, [],
     "localtime.eps_list[0]"),
    ("simulate", {"sim": {"h": 1e-3, "T": 0.25, "n_paths": 20, "policy": "shell"}}, [],
     "sim.h"),
    ("fk", {"fk": {"g": ["0", "1"], "queries": [[0.0, 0.4, 1, 0.1]]}}, [], "fk.g"),
    ("pde", {"pde": {"R": 2.0, "K": 1.0, "grid": {"M": 6, "J": 8, "P": 4}, "g": ["0", "1"]}},
     [], "pde.g"),
    ("fk", {"fk": {"g": ["0", "0"], "h": ["20", "20"], "queries": [[0.0, 0.4, 1, 0.1]]}}, [],
     "fk.h"),
    ("fk", {"sim": {"h": 1e-3, "T": 2.0, "n_paths": 20, "seed": 7},
            "fk": {"g": ["0", "0"], "h": ["8*t", "8*t"], "queries": [[0.0, 0.4, 1, 0.1]]}}, [],
     "fk.h"),
    ("localtime", {"localtime": {"eps_list": [0.2, 0.1, 0.2], "n_paths": 2}}, [],
     "localtime.eps_list[2]"),
    ("fk-compare", {"fk": {"g": ["0", "0"], "h": ["5*x", "5*x"], "queries": [[0.0, 0.4, 1, 0.1]]},
                    "fk_compare": {"R": 3.0, "K": 1.0, "grid": {"M": 8, "J": 8, "P": 4}}}, [],
     "fk.h, fk.h_bound"),
], ids=["hitting-without-level", "scatter-below-min-excursions", "s-past-horizon",
        "negative-seed-flag", "scatter-delta-below-two-shells", "exit-delta-below-shell",
        "empty-window", "s-off-grid", "s_prime-off-grid", "lag-off-grid",
        "simulate-T-off-grid", "atom-T-off-grid", "exitstats-T-off-grid",
        "localtime-T-off-grid", "simulate-init-t-off-grid", "simulate-init-t-past-T",
        "martingale-init-t-off-grid", "markov-init-t-off-grid", "fk-query-t-off-grid",
        "scatter-t-off-grid", "exitstats-t-off-grid", "ito-T-off-finest-grid",
        "ito-coarse-grid-misses-T", "ito-h-not-a-multiple", "ito-init-t-past-T",
        "fk-query-at-T",
        "exitstats-one-path", "atom-no-paths", "ito-one-step-size", "ito-init-t-at-T",
        "scatter-t-at-T", "exitstats-t-at-T", "simulate-init-t-at-T", "atom-init-t-at-T",
        "markov-init-t-at-T", "martingale-init-t-at-T", "markov-time-off-grid",
        "markov-time-past-T", "markov-time-too-late-for-lag", "fk-compare-query-near-R",
        "fk-compare-grid-odd", "localtime-eps-inside-activity-radius", "shell-h-too-large",
        "fk-g-discontinuous", "pde-g-discontinuous", "fk-h-above-bound",
        "fk-h-above-bound-after-t-1", "localtime-eps-repeated",
        "fk-compare-h-above-bound-past-x-2"])
def test_library_precondition_exits_2_and_names_it(tmp_path, capsys, sub, blocks, flags, key):
    """Values of the right type that break a precondition of the library
    call are configuration errors (exit 2), not runtime errors (exit 3)."""
    cfg = _all_blocks_config()  # sim.T is 0.25
    cfg.update(blocks)
    code = main([sub, "--config", _write(tmp_path, cfg), "--out", str(tmp_path / "out"), *flags])
    err = capsys.readouterr().err
    assert code == 2, err
    assert key in err


def test_localtime_scores_the_oracle_paths_with_their_own_coefficients(tmp_path):
    """The oracle paths are driftless with unit diffusion whatever the
    network says, so the network's sigma must not weight the occupation
    estimator of those paths."""
    cfg = _all_blocks_config()
    cfg["network"]["sigma"] = ["2", "2"]
    cfg["network"]["bounds"]["sigma_bound"] = 2.0
    cfg["localtime"] = {"eps_list": [0.2, 0.1], "n_paths": 20}
    out = tmp_path / "out"
    assert main(["localtime", "--config", _write(tmp_path, cfg), "--out", str(out)]) == 0
    rows = [line.split(",") for line in (out / "localtime.csv").read_text().splitlines()[1:]]
    assert len(rows) == 2 and all(float(r[2]) < 0.2 for r in rows)


def test_running_cost_bound_is_sampled_over_the_run_times(tmp_path):
    """30*t exceeds h_bound = 10 only after t = 1/3, beyond sim.T = 0.25."""
    cfg = _all_blocks_config()
    cfg["fk"]["h"] = ["30*t", "30*t"]
    assert main(["fk", "--config", _write(tmp_path, cfg), "--out", str(tmp_path / "out")]) == 0


@pytest.mark.filterwarnings("error")  # numpy's empty-mean RuntimeWarnings fail the test
def test_level_that_no_path_reaches_exits_3_and_writes_no_nan(tmp_path, capsys):
    cfg = _all_blocks_config()
    cfg["exitstats"] = {"deltas": [5.0], "n": 20}
    out = tmp_path / "out"
    code = main(["exitstats", "--config", _write(tmp_path, cfg), "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 3, err
    assert "0 of 20 paths reach level delta = 5.0" in err
    assert not (out / "exitstats.csv").exists()
