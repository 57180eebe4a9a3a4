import json
import re
from pathlib import Path

import pytest

from oneside_levy import grunwald
from oneside_levy.cli import main
from oneside_levy.config import (Config, ConfigError, load_config,
                                 parse_config_text)


BASE = """
schema_version = 1
seed = 4040
symbol.kind = stable
symbol.alpha = 1.5
"""


def write_cfg(tmp_path, body, name="exp.cfg"):
    p = tmp_path / name
    p.write_text(BASE + body)
    return p


def test_config_parsing():
    cfg = parse_config_text("a.b = 1.5\nlist = 1, 2, 3\nname = stable # cmt\n")
    assert cfg["a.b"] == 1.5
    assert cfg["list"] == [1, 2, 3]
    assert cfg["name"] == "stable"
    with pytest.raises(ConfigError):
        parse_config_text("schema_version = 99\n")
    with pytest.raises(ConfigError):
        parse_config_text("no equals sign here\n")


def test_coeffs_command(tmp_path):
    cfg = write_cfg(tmp_path, "h = 1.0\nj_max = 32\n")
    out = tmp_path / "out"
    assert main(["coeffs", "--config", str(cfg), "--out", str(out)]) == 0
    lines = (out / "coeffs.csv").read_text().splitlines()
    assert lines[0] == "j,G_j,T_j"
    assert lines[1].startswith("0,1,")
    rep = json.loads((out / "report_coeffs.json").read_text())
    assert rep["all_pass"] and rep["schema_version"] == 1


TEMPERED = "symbol.kind = tempered_stable\nsymbol.lambda = 0.7\nh = 0.5\n"


def test_coeffs_gate_allows_the_cauchy_roundoff(tmp_path):
    # tempered weights decay geometrically, and at j = 64 the Cauchy
    # estimate's own roundoff is 7e-4 of G_j: right weights must pass
    cfg = write_cfg(tmp_path, TEMPERED)
    out = tmp_path / "out"
    assert main(["coeffs", "--config", str(cfg), "--out", str(out)]) == 0


@pytest.mark.parametrize("body", ["h = 0.5\n", TEMPERED], ids=["stable",
                                                                "tempered"])
@pytest.mark.parametrize("j", [2, 8])
def test_coeffs_gate_catches_a_wrong_weight(tmp_path, monkeypatch, body, j):
    compute_coeffs = grunwald.compute_coeffs

    def off_by_1e6(*args):
        c = compute_coeffs(*args)
        c.g[j] *= 1.0 + 1e-6
        return c

    monkeypatch.setattr(grunwald, "compute_coeffs", off_by_1e6)
    cfg = write_cfg(tmp_path, body)
    out = tmp_path / "out"
    assert main(["coeffs", "--config", str(cfg), "--out", str(out)]) == 1


def test_matrix_and_validate(tmp_path):
    cfg = write_cfg(tmp_path, "n = 9\nbc = N*D\n")
    out = tmp_path / "m"
    assert main(["matrix", "--config", str(cfg), "--out", str(out)]) == 0
    assert (out / "matrix_NsD_9.csv").exists()
    out = tmp_path / "v"
    assert main(["validate", "--config", str(cfg), "--out", str(out)]) == 0
    assert [p.name for p in out.iterdir()] == ["report_validate.json"]
    rep = json.loads((out / "report_validate.json").read_text())
    names = {m["name"] for m in rep["metrics"]}
    assert "N*D_holding_rates" in names


def test_simulate_json_and_determinism(tmp_path):
    cfg = write_cfg(tmp_path, "n = 9\npaths = 5\nT = 1.0\n")
    out1, out2 = tmp_path / "s1", tmp_path / "s2"
    for out in (out1, out2):
        assert main(["simulate", "--config", str(cfg), "--out", str(out),
                     "--format", "json"]) == 0
    assert (out1 / "paths.jsonl").read_text() == (out2 / "paths.jsonl").read_text()


@pytest.mark.parametrize("line", ["T = inf", "T = 0", "x0 = nan", "paths = 0",
                                  "paths = 2.5"])
def test_simulate_bad_horizon_start_or_paths_is_config_error(tmp_path, line,
                                                             capsys):
    cfg = write_cfg(tmp_path, "n = 9\n" + line + "\n")
    assert main(["simulate", "--config", str(cfg),
                 "--out", str(tmp_path / "s")]) == 2
    assert capsys.readouterr().err.startswith("config error: ")


@pytest.mark.parametrize("command, body", [
    ("coeffs", "h = 1.0\nj_max = 24\n"),
    ("semigroup", "n = 9\nbc = ND\ntimes = 0.1, 0.5\npaths = 2000\n"
                  "tv_tol = 0.1\n"),
    ("scale", "a = 1.0\nq = 1.0\nm = 2000\n"),
], ids=["coeffs", "semigroup", "scale"])
def test_report_byte_identical_modulo_wall_clock(tmp_path, command, body):
    cfg = write_cfg(tmp_path, body)
    texts = []
    for name in ("r1", "r2"):
        out = tmp_path / name
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 0
        raw = (out / f"report_{command}.json").read_text()
        texts.append(re.sub(r'"wall_clock_s": [0-9.]+', '"wall_clock_s": X', raw))
    assert texts[0] == texts[1]
    if command == "semigroup":
        diag = json.loads(raw)["params"]["mc_diag"]
        assert set(diag) == {"n_paths", "completions", "excursions",
                             "iterations", "events"}
        steps = json.loads(raw)["params"]["semigroup_diag"]
        assert [d["t"] for d in steps] == [0.1, 0.5]
        for d in steps:
            assert set(d) == {"t", "krylov_dim", "gamma", "error_estimate",
                              "clip", "mass_correction"}
            assert 0 < d["krylov_dim"] <= 11 and d["gamma"] == d["t"] / 20
            assert 0.0 < d["error_estimate"] < 1e-10
            assert max(d["clip"], d["mass_correction"]) <= d["error_estimate"]
    if command == "scale":
        diag = json.loads(raw)["params"]["series_diag"]
        assert set(diag) == {"n_terms", "error_estimate"}
        assert diag["n_terms"] > 0 and 0.0 < diag["error_estimate"] < 1e-12


def test_scale_and_resolvent_and_exit(tmp_path):
    cfg = write_cfg(tmp_path, "a = 1.0\nq = 1.0\nm = 2000\nx = 0.5\n")
    out = tmp_path / "sc"
    assert main(["scale", "--config", str(cfg), "--out", str(out)]) == 0
    header = (out / "scale.csv").read_text().splitlines()[0]
    assert header == "x,W,Wq,Zq"
    assert main(["resolvent", "--config", str(cfg), "--out", str(out)]) == 0
    masses = json.loads((out / "resolvent_masses.json").read_text())
    assert masses["mass_NN"] == pytest.approx(1.0, abs=1e-6)
    assert main(["exit", "--config", str(cfg), "--out", str(out)]) == 0
    rep = json.loads((out / "report_exit.json").read_text())
    assert rep["all_pass"]
    assert rep["params"]["coordinate_bridge"].startswith("x_scale")


def test_scale_gate_at_large_q_a_alpha(tmp_path):
    # q a^alpha = 11.4: the series and closed forms differ by a quadrature
    # gap of 2.6e-5 at m = 2000, far above any fixed tolerance in dx, and
    # the gap shrinks about 4x on the dx/2 grid.
    cfg = tmp_path / "big.cfg"
    cfg.write_text(BASE.replace("symbol.alpha = 1.5", "symbol.alpha = 1.026")
                   + "a = 2.75\nq = 4.07\nm = 2000\n")
    out = tmp_path / "big"
    assert main(["scale", "--config", str(cfg), "--out", str(out)]) == 0
    rep = json.loads((out / "report_scale.json").read_text())
    gap = rep["metrics"][0]["value_a"]
    assert gap > 1e-5
    assert gap >= 3.0 * rep["params"]["Zq_series_vs_closed_rel_half_dx"]


def test_semigroup_with_mc(tmp_path):
    cfg = write_cfg(tmp_path,
                    "n = 9\nbc = DD\ntimes = 0.1, 0.5\npaths = 4000\n"
                    "tv_tol = 0.05\n")
    out = tmp_path / "sg"
    assert main(["semigroup", "--config", str(cfg), "--out", str(out)]) == 0
    rep = json.loads((out / "report_semigroup.json").read_text())
    assert all(m["passed"] for m in rep["metrics"])


def test_convergence_command(tmp_path):
    cfg = write_cfg(tmp_path,
                    "n_list = 9, 19, 39\nexit.kind = DN\ntol = 0.1\n")
    out = tmp_path / "cv"
    assert main(["convergence", "--config", str(cfg), "--out", str(out)]) == 0
    rep = json.loads((out / "report_convergence.json").read_text())
    assert rep["params"]["grid_pair"] == "ND"
    assert rep["all_pass"]


def test_j1_command(tmp_path):
    pa = tmp_path / "a.jsonl"
    pb = tmp_path / "b.jsonl"
    pa.write_text(json.dumps({"initial": 0.0, "epochs": [0.5], "values": [1.0]}) + "\n")
    pb.write_text(json.dumps({"initial": 0.0, "epochs": [0.6], "values": [1.0]}) + "\n")
    cfg = write_cfg(tmp_path, f"path_a = {pa}\npath_b = {pb}\nT = 1.0\n")
    out = tmp_path / "j1"
    assert main(["j1", "--config", str(cfg), "--out", str(out)]) == 0
    d = json.loads((out / "j1.json").read_text())
    assert d["distance"] == pytest.approx(0.1, abs=1e-12)
    rep = json.loads((out / "report_j1.json").read_text())
    assert rep["params"]["distance"] == d["distance"]
    assert [m["name"] for m in rep["metrics"]] == ["symmetry_gap"]
    assert rep["all_pass"]


def test_suite_and_exit_codes(tmp_path):
    sdir = tmp_path / "suite"
    sdir.mkdir()
    write_cfg(sdir, "kind = coeffs\nh = 1.0\nj_max = 24\n", name="one.cfg")
    write_cfg(sdir, "kind = validate\nn = 5\n", name="two.cfg")
    out = tmp_path / "agg"
    assert main(["suite", "--config", str(sdir), "--out", str(out)]) == 0
    agg = json.loads((out / "suite_report.json").read_text())
    assert agg["all_pass"] and len(agg["experiments"]) == 2
    # empty directory is a configuration error
    empty = tmp_path / "empty"
    empty.mkdir()
    assert main(["suite", "--config", str(empty), "--out", str(out)]) == 2
    # a suite config inside a suite directory is a configuration error too
    nested = tmp_path / "nested"
    nested.mkdir()
    write_cfg(nested, "kind = suite\n", name="inner.cfg")
    assert main(["suite", "--config", str(nested), "--out", str(out)]) == 2
    # missing config file
    assert main(["matrix", "--config", str(tmp_path / "nope.cfg"),
                 "--out", str(out)]) == 2
    # numerical failure surfaces as exit 3
    bad = write_cfg(tmp_path, "n = 9\nbc = DD\n", name="bad.cfg")
    bad.write_text(bad.read_text().replace("n = 9", "n = 1"))
    assert main(["matrix", "--config", str(bad), "--out", str(out)]) in (2, 3)


def test_threads_env_fallback(tmp_path, monkeypatch):
    sdir = tmp_path / "suite"
    sdir.mkdir()
    write_cfg(sdir, "kind = coeffs\nh = 1.0\nj_max = 24\n", name="one.cfg")
    monkeypatch.setenv("ONESIDE_LEVY_THREADS", "2")
    out = tmp_path / "agg"
    assert main(["suite", "--config", str(sdir), "--out", str(out)]) == 0
    # a count that is not an integer >= 1 is a configuration error, from
    # the environment or from --threads (which overrides the environment)
    for env in ("two", "0", "-1", "1.5"):
        monkeypatch.setenv("ONESIDE_LEVY_THREADS", env)
        assert main(["suite", "--config", str(sdir),
                     "--out", str(out)]) == 2, env
    assert main(["suite", "--config", str(sdir), "--out", str(out),
                 "--threads", "1"]) == 0
    monkeypatch.setenv("ONESIDE_LEVY_THREADS", "2")
    for arg in ("0", "-2"):
        assert main(["suite", "--config", str(sdir), "--out", str(out),
                     "--threads", arg]) == 2, arg


@pytest.mark.parametrize("command, body", [
    ("matrix", "n = 9.7\nbc = DD\n"),
    ("scale", "symbol.kind = tempered_stable\nsymbol.lambda = 3\nm = 200\n"),
    ("resolvent", "symbol.kind = tempered_stable\nsymbol.lambda = 3\n"
                  "m = 200\n"),
    ("exit", "symbol.kind = tempered_stable\nsymbol.lambda = 3\nm = 200\n"),
    ("convergence", "symbol.kind = tempered_stable\nsymbol.lambda = 3\n"
                    "n_list = 9, 19\n"),
    ("matrix", "n = 9\nbc = DD\nsymbol.lamda = 3.0\n"),
    ("matrix", "n = 9\nbc = XY\n"),
    ("semigroup", "n = 9\nbc = DD\ntimes = 0.1, abc\n"),
    ("convergence", "n_list = 9, 19\nexit.kind = XY\n"),
    ("matrix", "n = 9\nbc = DN\nsymbol.lambda = 3\n"),
    ("scale", "symbol.lambda = 3\nm = 200\n"),
], ids=["fractional_n", "tempered_scale", "tempered_resolvent",
        "tempered_exit", "tempered_convergence", "unknown_key", "unknown_bc",
        "text_in_times", "unknown_exit_kind", "lambda_under_stable",
        "lambda_under_stable_scale"])
def test_config_value_outside_key_table_is_config_error(tmp_path, command,
                                                        body, capsys):
    cfg = write_cfg(tmp_path, body)
    assert main([command, "--config", str(cfg),
                 "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith("config error: ")


def test_convergence_dnstar_runs_grid_nstar_d(tmp_path):
    cfg = write_cfg(tmp_path, "exit.kind = DNstar\n")
    out = tmp_path / "cv"
    assert main(["convergence", "--config", str(cfg), "--out", str(out)]) == 0
    rep = json.loads((out / "report_convergence.json").read_text())
    assert rep["params"]["grid_pair"] == "N*D"
    assert rep["all_pass"]


def test_checked_config_reads_only_table_keys(tmp_path):
    cfg = load_config(write_cfg(tmp_path, "n = 9\nbc = DN\n"), kind="matrix")
    assert cfg["n"] == 9 and cfg.get("j_max", 64) == 64
    with pytest.raises(ConfigError):
        cfg["h"]
    for read in (lambda: cfg["nope"], lambda: cfg.get("nope"),
                 lambda: "nope" in cfg):
        with pytest.raises(KeyError):
            read()
    # a tempering with the symbol kind left out, which means stable
    with pytest.raises(ConfigError, match="symbol.lambda"):
        Config({"kind": "matrix", "symbol.lambda": 3.0})


def test_report_params_echo_values_as_parsed(tmp_path):
    cfg = write_cfg(tmp_path, "n = 5\nbc = N*D\nh = 1\n")
    out = tmp_path / "v"
    assert main(["validate", "--config", str(cfg), "--out", str(out),
                 "--seed", "77"]) == 0
    rep = json.loads((out / "report_validate.json").read_text())
    assert rep["params"]["bc"] == "N*D"
    assert rep["params"]["h"] == 1 and isinstance(rep["params"]["h"], int)
    assert rep["params"]["seed"] == 77 and rep["seed"] == 77
    assert [m["name"] for m in rep["metrics"]][0] == "N*D_max_abs_row_sum"
