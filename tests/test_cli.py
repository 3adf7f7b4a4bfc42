import ctypes
import gc
import json
import os
import subprocess
import sys
import weakref

import numpy as np
import pytest

import janglab.cli
from janglab.cli import (EXIT_AUDIT, EXIT_CONFIG, EXIT_DEC, EXIT_OK,
                         EXIT_SOLVER, build_parser, main, resolve_out)
from janglab.grids import build_grid

GOOD = {"dataset": {"family": "perturbed-dec", "n": 4, "seed": 7,
                    "params": {"m": 1.0, "amplitude": 0.05}}}


@pytest.fixture(autouse=True)
def no_kept_grid(monkeypatch):
    # main keeps the grid of its last run: each test starts without one
    monkeypatch.setattr(janglab.cli, "_last_grid",
                        {"settings": None, "grid": None})


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    if isinstance(payload, bytes):
        path.write_bytes(payload)
    else:
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
    # every exhaustion radius f r0 must exceed 32 r0
    ("schedule_factors", [8, 16, 32]),
    ("r0_candidates", "x"),
    ("r0_candidates", [1.0, "2"]),
    ("r0_candidates", [True]),
    ("r0_candidates", [float("inf")]),
], ids=["factors-number", "factors-null", "factors-empty", "factors-negative",
        "factors-at-most-32", "r0-string", "r0-string-item", "r0-bool", "r0-inf"])
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


@pytest.mark.parametrize("command", ["solve", "pipeline"])
def test_grid_too_short_for_r0_is_solver_error(tmp_path, command):
    # m = 16 puts r0 at 16, and capillary selection needs the grid to reach
    # 64 r0 = 1024: a domain too small for the data, not a failed audit
    cfg = {"dataset": {"family": "perturbed-dec", "n": 4, "seed": 7,
                       "params": {"m": 16.0, "amplitude": 0.05}}}
    code, out = run(tmp_path, command, cfg=cfg)
    assert code == EXIT_SOLVER
    assert set(os.listdir(out)) == {"error.json", "manifest.json"}
    err = json.loads((tmp_path / "out" / "error.json").read_text())["error"]
    assert "r0 = 16" in err and "r_max >= 64 r0 = 1024" in err
    assert "r_max = 512" in err


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


def test_cli_loads_only_scipy_linalg_and_special(tmp_path):
    # a fresh interpreter: import the CLI, run the default pipeline, and
    # find none of the scipy packages that janglab no longer needs loaded
    import janglab
    src = os.path.dirname(os.path.dirname(janglab.__file__))
    script = (
        "import sys, janglab, janglab.cli\n"
        "code = janglab.cli.main(['--out', sys.argv[1], 'pipeline'])\n"
        "heavy = ('scipy.integrate', 'scipy.interpolate', 'scipy.optimize',"
        " 'scipy.sparse')\n"
        "print(code, [m for m in heavy if m in sys.modules])\n")
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-c", script, str(tmp_path / "out")],
                          capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split("\n")[-2] == f"{EXIT_OK} []"


@pytest.mark.parametrize("cfg, extra, out, code, lines, written", [
    # at N = 128 the nodes sit on 4 r0 and 8 r0, none inside the collar
    (GOOD, ("--grid-n", "128"), "out", EXIT_SOLVER,
     ["solver failure: capillary selection at r0 = 1 has no node"],
     {"error.json", "manifest.json"}),
    # at N = 100 the first exhaustion radius 64 r0 lies below node 16
    (GOOD, ("--grid-n", "100"), "out", EXIT_SOLVER,
     ["solver failure: truncation radius 64 leaves too few nodes"],
     {"error.json", "manifest.json"}),
    (GOOD, (), "file/sub", EXIT_CONFIG,
     ["configuration error: cannot write audits.json"], None),
    # the failure comes first, then the error.json that could not be written
    ({"dataset": {"family": "flat", "n": 4}}, (), "file/sub", EXIT_CONFIG,
     ["energy-condition violation: strict DEC fails",
      "configuration error: cannot write error.json"], None),
    # 1.5 ** 2048 is not a finite float
    ({"grid": {"policy": "geometric", "stretch": 1.5}}, (), "out", EXIT_CONFIG,
     ["configuration error: geometric stretch 1.5 overflows over 2048"],
     None),
    # a UTF-16 byte-order mark: a config file must be UTF-8
    (b"\xff\xfe{}", (), "out", EXIT_CONFIG,
     ["configuration error: 'utf-8' codec can't decode byte 0xff"], None),
    # the first of 2048 spacings is 1.1e-297: the stencil weights near the
    # origin overflow, and generation used to blame the data (exit 4)
    ({"grid": {"policy": "geometric", "stretch": 1.4}}, (), "out",
     EXIT_CONFIG,
     ["configuration error: geometric stretch 1.4 over 2048 intervals gives "
      "a spacing of 1.1e-297, below the 1.49e-154"], None),
    # spacings from 8.7e-84 at the origin to 46.5 at r_max: the exhaustion
    # fails, and names the radius and the spacings of the grid it failed on
    ({"grid": {"policy": "geometric", "stretch": 1.1}}, (), "out",
     EXIT_SOLVER,
     ["solver failure: continuation stalled at lambda=0.0 with step below "
      "0.00390625 (at r_j = 128.0, on a grid whose spacings run from "
      "8.65e-84 to 11.1)"], {"error.json", "manifest.json"}),
], ids=["collar-without-node", "truncation-near-origin", "unwritable-out",
        "unwritable-error-json", "stretch-overflow", "config-not-utf8",
        "stretch-underflow", "stretch-1.1"])
def test_each_failure_exits_with_its_documented_code(tmp_path, capsys, cfg,
                                                     extra, out, code, lines,
                                                     written):
    # main returns the code: an error escaping it would fail this test
    (tmp_path / "file").write_text("")
    got, out_dir = run(tmp_path, "pipeline", cfg=cfg, extra=extra, out=out)
    err = capsys.readouterr().err
    assert got == code, err
    assert "Traceback" not in err
    err = err.splitlines()
    assert len(err) == len(lines)
    assert all(line.startswith(want) for line, want in zip(err, lines)), err
    if written is None:
        assert not os.path.exists(out_dir)
    else:
        assert set(os.listdir(out_dir)) == written
        error = json.loads((tmp_path / out / "error.json").read_text())
        assert error["error"] == err[0].split(": ", 1)[1]


def test_cli_runs_reuse_the_heap_they_free(tmp_path):
    # main keeps the heap that one run's stages free, so a third N = 8192
    # pipeline in one process takes next to no fresh zero-filled pages
    # (about 2,300 minor faults with glibc's default trim threshold), and
    # the reused memory changes no byte of what it writes.  Each run builds
    # its grid, so what the grid keeps is rebuilt on the reused heap too.
    resource = pytest.importorskip("resource")
    if not hasattr(ctypes.CDLL(None), "mallopt"):
        pytest.skip("the C library has no mallopt")
    for k, n in enumerate((5, 6, 5)):
        cfg = {"grid": {"r_max": 512.0, "n_intervals": 8192},
               "dataset": {**GOOD["dataset"], "n": n}}
        janglab.cli._last_grid.update(settings=None, grid=None)
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        code, _ = run(tmp_path, "pipeline", cfg=cfg, out=f"run{k}")
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
        assert code == EXIT_OK
    assert faults <= 200
    for name in ("solution.csv", "manifest.json"):
        assert ((tmp_path / "run0" / name).read_bytes()
                == (tmp_path / "run2" / name).read_bytes()), name


UNIFORM = {"r_max": 512.0, "n_intervals": 2048}
# an odd N, whose coarsening holds a frame of its own
ODD = {"r_max": 512.0, "n_intervals": 2047}
GEOMETRIC = {**UNIFORM, "policy": "geometric", "stretch": 1.001}


def _grids_kept(grid):
    """``grid`` and every grid that it, or a grid it keeps, keeps."""
    out = [grid]
    for kept in grid._keeps.values():
        if isinstance(kept, type(grid)):
            out += _grids_kept(kept)
    return out


# m = 2 gives r0 = 4, whose exhaustion radii 181.02 and 362.04 are appended
# to the grid, each domain with a frame of its own
R0_FOUR = {"dataset": {**GOOD["dataset"],
                       "params": {"m": 2.0, "amplitude": 0.05}}}


def test_cli_runs_on_one_grid_config_share_one_grid(tmp_path, monkeypatch):
    # main keeps the grid of its last run: a run on the same grid settings
    # builds none, writes what a run on a new grid writes, and leaves no
    # frame (no dataset) on the kept grid, its coarsening or its exhaustion
    # domains
    built = []

    def counted(*settings):
        built.append(settings)
        return build_grid(*settings)
    monkeypatch.setattr(janglab.cli, "build_grid", counted)
    for k, (grid, cfg) in enumerate(((UNIFORM, GOOD), (UNIFORM, GOOD),
                                     (ODD, GOOD), (GEOMETRIC, GOOD),
                                     (UNIFORM, GOOD), (UNIFORM, R0_FOUR))):
        code, _ = run(tmp_path, "pipeline", cfg={**cfg, "grid": grid},
                      out=f"run{k}")
        assert code == EXIT_OK
        if k == 1:
            assert len(built) == 1
        kept = _grids_kept(janglab.cli._last_grid["grid"])
        assert len(kept) >= 4 and all(g._frame is None for g in kept)
    # r0 = 1 kept 64, 128 and 256; r0 = 4 shares 256 and adds its own two
    radii = sorted(key[1] for key in kept[0]._keeps if key[0] == "truncation")
    assert radii[:2] == [64.0, 128.0] and radii[3] == 256.0
    assert len(radii) == 5
    # each run on other settings builds, the policy alone counting too; the
    # last run follows one on other settings, so its grid is new
    assert len(built) == 4 and built[3] == built[0]
    for name in ("solution.csv", "manifest.json"):
        assert ((tmp_path / "run1" / name).read_bytes()
                == (tmp_path / "run4" / name).read_bytes()), name


def test_cli_frees_the_grid_of_other_settings(tmp_path):
    # a run on other grid settings replaces the kept grid, which is freed
    # without the cycle collector, coarsening included
    code, _ = run(tmp_path, "pipeline", cfg={**GOOD, "grid": UNIFORM},
                  out="one")
    assert code == EXIT_OK
    kept = janglab.cli._last_grid["grid"]
    refs = [weakref.ref(kept), weakref.ref(kept._keeps["coarse"])]
    del kept
    gc.disable()
    try:
        code, _ = run(tmp_path, "pipeline", cfg={**GOOD, "grid": ODD},
                      out="two")
        assert code == EXIT_OK
        assert [ref() for ref in refs] == [None, None]
    finally:
        gc.enable()
