import json
import os

import numpy as np
import pytest

from janglab.cli import (EXIT_AUDIT, EXIT_CONFIG, EXIT_DEC, EXIT_OK,
                         EXIT_SOLVER, build_parser, main, resolve_out)

GOOD = {"dataset": {"family": "perturbed-dec", "n": 4, "seed": 7,
                    "params": {"m": 1.0, "amplitude": 0.05}}}


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def run(tmp_path, command, cfg=GOOD, extra=(), out="out"):
    cfg_path = write_config(tmp_path, cfg)
    out_dir = str(tmp_path / out)
    code = main(["--config", cfg_path, "--out", out_dir, *extra, command])
    return code, out_dir


def test_parser_rejects_unknown_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["frobnicate"])


def test_out_dir_environment_override(tmp_path, monkeypatch):
    args = build_parser().parse_args(["--out", "a", "pipeline"])
    assert resolve_out(args) == "a"
    monkeypatch.setenv("JANGLAB_OUT", str(tmp_path / "env-out"))
    assert resolve_out(args) == str(tmp_path / "env-out")


def test_gen_writes_dataset_artifacts(tmp_path):
    code, out = run(tmp_path, "gen")
    assert code == EXIT_OK
    names = set(os.listdir(out))
    assert {"dataset.json", "profiles.csv", "validation.json"} <= names
    spec = json.loads((tmp_path / "out" / "dataset.json").read_text())
    assert spec["family"] == "perturbed-dec" and spec["seed"] == 7
    csv_head = (tmp_path / "out" / "profiles.csv").read_text().split("\n")[0]
    assert csv_head == "r,a,c,q_rad,q_tan"


def test_barrier_writes_profile(tmp_path):
    code, out = run(tmp_path, "barrier")
    assert code == EXIT_OK
    meta = json.loads((tmp_path / "out" / "barrier.json").read_text())
    assert meta["r0"] > 0.0 and meta["n"] == 4
    lines = (tmp_path / "out" / "barrier.csv").read_text().strip().split("\n")
    assert lines[0] == "s,b,bprime,bsecond,ode_residual"
    assert len(lines) == 201
    assert max(abs(float(line.split(",")[4])) for line in lines[1:]) < 1e-9


def test_mass_subcommand_and_env_out(tmp_path, monkeypatch):
    env_dir = str(tmp_path / "env-out")
    monkeypatch.setenv("JANGLAB_OUT", env_dir)
    code, _ = run(tmp_path, "mass", out="ignored")
    assert code == EXIT_OK
    mass = json.loads((tmp_path / "env-out" / "mass.json").read_text())
    assert mass["alpha"] > 0.0
    assert not (tmp_path / "ignored").exists()


def test_solve_writes_solution_and_trace(tmp_path):
    code, out = run(tmp_path, "solve", extra=("--grid-n", "1024"))
    assert code == EXIT_OK
    lines = (tmp_path / "out" / "solution.csv").read_text().strip().split("\n")
    assert lines[0] == "r,u"
    trace = json.loads((tmp_path / "out" / "trace.json").read_text())
    assert len(trace["schedule"]) == 3
    assert trace["trace"][-1]["cauchy_gap"] is not None


def test_audit_emits_report_only(tmp_path):
    code, out = run(tmp_path, "audit", extra=("--grid-n", "1024"))
    assert code == EXIT_OK
    names = set(os.listdir(out))
    assert "audits.json" in names
    assert "solution.csv" not in names
    audits = json.loads((tmp_path / "out" / "audits.json").read_text())
    assert audits["audits_passed"]
    assert audits["consequence"]["passed"]
    assert audits["shielding"]["six"] == [True] * 6
    # the collar covers the grid, so E has no boundary to hold a pole
    assert audits["shielding"]["vacuous"] == ["pole_at_boundary"]
    assert set(audits["stability"]) == {
        "lambda_min", "bound", "lambda_residual", "cross_check_gap",
        "cross_check_bound", "support", "vacuous", "passed"}
    assert audits["stability"]["passed"] and audits["stability"]["vacuous"]


def test_pipeline_full_artifacts(tmp_path):
    # an older config may still set stability_count; the key is ignored
    cfg = dict(GOOD, stability_count=10)
    code, out = run(tmp_path, "pipeline", cfg=cfg, extra=("--grid-n", "1024"))
    assert code == EXIT_OK
    names = set(os.listdir(out))
    assert {"audits.json", "mass.json", "solution.csv", "config.json",
            "manifest.json"} <= names
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    files = [e["file"] for e in manifest["files"]]
    assert files == sorted(files)
    mass = json.loads((tmp_path / "out" / "mass.json").read_text())
    assert mass["alpha"] > 0.0 and mass["alpha_graph"] > 0.0


def test_experiment_subcommand(tmp_path):
    cfg = dict(GOOD)
    cfg["experiment"] = {"n": 4, "count": 2, "seed": 3, "stability_count": 3}
    code, out = run(tmp_path, "experiment", cfg=cfg,
                    extra=("--grid-n", "1024"))
    assert code == EXIT_OK
    lines = (tmp_path / "out" / "experiment.csv").read_text().strip().split("\n")
    assert lines[0] == "seed,n,min_margin,alpha,identity_err,audits_passed"
    assert len(lines) == 3
    report = json.loads((tmp_path / "out" / "experiment.json").read_text())
    assert report["passed"] and report["n_positive"] == 2


def test_seed_option_overrides_experiment_seed(tmp_path):
    cfg = {"experiment": {"n": 4, "count": 1, "seed": 10}}
    code, out = run(tmp_path, "experiment", cfg=cfg,
                    extra=("--seed", "500", "--grid-n", "1024"))
    report = json.loads((tmp_path / "out" / "experiment.json").read_text())
    assert report["seed"] == 500
    assert [row["seed"] for row in report["rows"]] == [500]


@pytest.mark.parametrize("command, cfg, extra", [
    ("pipeline", {"dataset": []}, ()),
    ("pipeline", {"grid": []}, ()),
    ("pipeline", {"dataset": 5}, ("--seed", "3")),
    ("experiment", {"experiment": []}, ()),
], ids=["dataset-list", "grid-list", "dataset-number-seed", "experiment-list"])
def test_non_object_config_section_is_config_error(tmp_path, capsys, command,
                                                   cfg, extra):
    code, _ = run(tmp_path, command, cfg=cfg, extra=extra)
    assert code == EXIT_CONFIG
    assert "configuration error" in capsys.readouterr().err


@pytest.mark.parametrize("key, value", [
    ("schedule_factors", 5),
    ("schedule_factors", None),
    ("schedule_factors", []),
    ("schedule_factors", [64, -128]),
    ("r0_candidates", "x"),
    ("r0_candidates", [1.0, "2"]),
    ("r0_candidates", [True]),
    ("r0_candidates", [float("inf")]),
], ids=["factors-number", "factors-null", "factors-empty", "factors-negative",
        "r0-string", "r0-string-item", "r0-bool", "r0-inf"])
def test_bad_top_level_list_is_config_error(tmp_path, capsys, key, value):
    for command in ("barrier", "solve", "audit", "pipeline"):
        code, out = run(tmp_path, command, cfg={**GOOD, key: value},
                        out=command)
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"configuration error: config {key!r}" in err
        assert not os.path.exists(out)


@pytest.mark.parametrize("section, key, value", [
    ("dataset", "n", 4.5),
    ("dataset", "n", "5"),
    ("dataset", "n", True),
    ("grid", "n_intervals", 2048.7),
], ids=["n-float", "n-string", "n-bool", "n-intervals-float"])
def test_non_integer_field_is_config_error(tmp_path, capsys, section, key,
                                           value):
    cfg = {**GOOD, section: {**GOOD.get(section, {}), key: value}}
    for command in ("gen", "pipeline"):
        code, out = run(tmp_path, command, cfg=cfg, out=command)
        assert code == EXIT_CONFIG
        assert (f"configuration error: config '{section}.{key}' must be an "
                f"integer") in capsys.readouterr().err
        assert not os.path.exists(out)


@pytest.mark.parametrize("key, text", [
    ("r_max", '"512"'),
    ("r_max", "true"),
    ("r_max", "-1"),
    ("r_max", "1e400"),
    ("stretch", '"x"'),
], ids=["r-max-string", "r-max-bool", "r-max-negative", "r-max-overflow",
        "stretch-string"])
def test_non_numeric_grid_field_is_config_error(tmp_path, capsys, key, text):
    path = tmp_path / "config.json"
    path.write_text('{"grid": {"policy": "geometric", "%s": %s}}' % (key, text))
    for command in ("gen", "pipeline"):
        out = str(tmp_path / command)
        code = main(["--config", str(path), "--out", out, command])
        assert code == EXIT_CONFIG
        assert (f"configuration error: config 'grid.{key}' must be a "
                f"positive finite number") in capsys.readouterr().err
        assert not os.path.exists(out)


@pytest.mark.parametrize("params, field", [
    ('{"m": "1"}', "dataset.params.m"),
    ('{"m": true}', "dataset.params.m"),
    ('{"m": 1.0, "amplitude": NaN}', "dataset.params.amplitude"),
    ('{"m": 1e400}', "dataset.params.m"),
    ('[1.0]', "dataset.params"),
], ids=["m-string", "m-bool", "amplitude-nan", "m-overflow", "params-list"])
def test_non_numeric_dataset_param_is_config_error(tmp_path, capsys, params,
                                                   field):
    path = tmp_path / "config.json"
    path.write_text('{"dataset": {"params": %s}}' % params)
    for command in ("gen", "pipeline"):
        out = str(tmp_path / command)
        code = main(["--config", str(path), "--out", out, command])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"configuration error: config '{field}' must be a " in err
        assert not os.path.exists(out)


def test_missing_config_is_config_error(tmp_path):
    code = main(["--config", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path / "out"), "pipeline"])
    assert code == EXIT_CONFIG


def test_malformed_config_is_config_error(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code = main(["--config", str(path), "--out", str(tmp_path / "out"),
                 "pipeline"])
    assert code == EXIT_CONFIG


def test_low_dimension_is_config_error(tmp_path):
    cfg = {"dataset": {"family": "perturbed-dec", "n": 3, "seed": 1}}
    code, _ = run(tmp_path, "pipeline", cfg=cfg)
    assert code == EXIT_CONFIG


def test_unknown_family_is_config_error(tmp_path):
    cfg = {"dataset": {"family": "wormhole", "n": 4}}
    code, _ = run(tmp_path, "pipeline", cfg=cfg)
    assert code == EXIT_CONFIG


def test_flat_data_is_energy_condition_error(tmp_path):
    cfg = {"dataset": {"family": "flat", "n": 4}}
    code, out = run(tmp_path, "pipeline", cfg=cfg)
    assert code == EXIT_DEC
    err = json.loads((tmp_path / "out" / "error.json").read_text())
    assert "margin" in err["error"]


@pytest.mark.parametrize("command", ["gen", "pipeline"])
def test_generation_failure_is_solver_error(tmp_path, command):
    # n = 7 data cannot be generated: the margin rounds below 0 at r = 222.06
    cfg = {"grid": {"r_max": 512.0, "n_intervals": 8192},
           "dataset": {"family": "perturbed-dec", "n": 7, "seed": 7,
                       "params": {"m": 1.0, "amplitude": 0.05}}}
    code, out = run(tmp_path, command, cfg=cfg)
    assert code == EXIT_SOLVER
    assert set(os.listdir(out)) == {"error.json", "manifest.json"}
    err = json.loads((tmp_path / "out" / "error.json").read_text())
    assert "at r = 222.06" in err["error"]


def test_stalled_schedule_is_solver_error(tmp_path):
    cfg = dict(GOOD)
    cfg["schedule_factors"] = [64, 66]
    code, out = run(tmp_path, "pipeline", cfg=cfg)
    assert code == EXIT_SOLVER
    assert (tmp_path / "out" / "error.json").exists()
    assert (tmp_path / "out" / "manifest.json").exists()


def test_undersampled_grid_is_audit_error(tmp_path):
    # at 256 intervals the gradient-audit ball holds too few nodes, so that
    # audit is recorded as inapplicable and every other result is still kept
    code, out = run(tmp_path, "pipeline", extra=("--grid-n", "256"))
    assert code == EXIT_AUDIT
    names = set(os.listdir(out))
    assert {"audits.json", "mass.json", "solution.csv", "config.json",
            "manifest.json"} <= names
    assert "error.json" not in names
    audits = json.loads((tmp_path / "out" / "audits.json").read_text())
    ball = audits["estimates"]["entries"]["gradient_ball"]
    assert ball["passed"] is False
    assert ball["note"].startswith("inapplicable")


def test_pipeline_reruns_are_byte_identical(tmp_path):
    code1, out1 = run(tmp_path, "pipeline", extra=("--grid-n", "1024"),
                      out="one")
    code2, out2 = run(tmp_path, "pipeline", extra=("--grid-n", "1024"),
                      out="two")
    assert code1 == code2 == EXIT_OK
    m1 = (tmp_path / "one" / "manifest.json").read_text()
    m2 = (tmp_path / "two" / "manifest.json").read_text()
    assert m1 == m2
    for entry in json.loads(m1)["files"]:
        b1 = (tmp_path / "one" / entry["file"]).read_bytes()
        b2 = (tmp_path / "two" / entry["file"]).read_bytes()
        assert b1 == b2
