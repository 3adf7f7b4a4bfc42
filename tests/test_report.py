import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, strategies as st

import janglab.report
from janglab.barrier import BarrierProfile, barrier_csv, ode_residual
from janglab.errors import IOFailure
from janglab.geometry import make_dataset
from janglab.grids import build_grid
from janglab.pipeline import run_pipeline_on
from janglab.report import (_float_csv, emit_report, solution_csv_from_results,
                            write_artifact)


def test_write_artifact_hashes_content(tmp_path):
    entry = write_artifact(str(tmp_path), "x.json", {"a": 1, "b": [1.0, 2.0]})
    data = (tmp_path / "x.json").read_bytes()
    assert entry["bytes"] == len(data)
    assert entry["sha256"] == hashlib.sha256(data).hexdigest()
    # keys are sorted so dict insertion order cannot leak into the bytes
    other = write_artifact(str(tmp_path), "y.json", {"b": [1.0, 2.0], "a": 1})
    assert other["sha256"] == entry["sha256"]


def test_write_artifact_serializes_numpy_types(tmp_path):
    payload = {"v": np.float64(1.5), "k": np.int64(3),
               "arr": np.array([1.0, 2.0]), "flag": np.bool_(True)}
    write_artifact(str(tmp_path), "np.json", payload)
    back = json.loads((tmp_path / "np.json").read_text())
    assert back == {"v": 1.5, "k": 3, "arr": [1.0, 2.0], "flag": True}


def test_write_artifact_raises_on_unwritable_target(tmp_path):
    blocker = tmp_path / "not-a-dir"
    blocker.write_text("file in the way")
    with pytest.raises(IOFailure):
        write_artifact(str(blocker), "x.json", {})


def test_solution_csv_roundtrip():
    results = {"arrays": {"grid": np.array([0.0, 1.0]),
                          "u": np.array([0.5, 0.0]),
                          "consequence_margin": np.array([0.1, 0.2])}}
    text = solution_csv_from_results(results)
    lines = text.strip().split("\n")
    assert lines[0] == "r,u,consequence_margin"
    assert [float(v) for v in lines[1].split(",")] == [0.0, 0.5, 0.1]


def test_float_csv_writes_the_repr_of_each_float():
    cols = (np.array([0.0, -0.0, 1e-310, 2.0 ** 0.5]),
            np.array([np.nan, np.inf, -np.inf, 1e300]))
    want = "x,y\n" + "".join(f"{float(a)!r},{float(b)!r}\n"
                             for a, b in zip(*cols))
    assert _float_csv(("x", "y"), cols) == want
    assert want.splitlines()[1:3] == ["0.0,nan", "-0.0,inf"]


def _fields(values):
    """The formatter's text for each value, one CSV field per value."""
    text = _float_csv(("x",), (np.asarray(values, dtype=float),))
    return text.split("\n")[1:-1]


def _reprs(values):
    return [repr(float(v)) for v in values]


def test_float_csv_matches_repr_on_random_bit_patterns():
    bits = np.random.default_rng(20_240_607).integers(
        0, 2 ** 64, 200_000, dtype=np.uint64, endpoint=False)
    values = bits.view(np.float64)
    assert _fields(values) == _reprs(values)


def test_float_csv_matches_repr_on_edge_values():
    powers = 2.0 ** np.arange(-1074, 1024)
    around_2_53 = 2.0 ** 53 + np.arange(-2000.0, 2000.0)
    values = np.concatenate([
        powers, -powers, [float(f"1e{k}") for k in range(-330, 311)],
        [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, 8e-323, -8e-323,
         1e-4, 9.999999999999999e-05, 1e16, 9999999999999998.0,
         2.2250738585072014e-308, 2.225073858507201e-308,
         1.7976931348623157e308, -1.7976931348623157e308],
        around_2_53, -around_2_53, np.arange(-3000.0, 3000.0)])
    assert _fields(values) == _reprs(values)


@given(st.lists(st.floats(), min_size=1, max_size=40))
def test_float_csv_matches_repr_property(values):
    assert _fields(values) == _reprs(values)


def _repr_rows(header, cols):
    """The CSV as one ``repr`` call per value writes it, as a list of lines
    (a failed comparison of lists reports the first differing line)."""
    text = "\n".join(map(",".join,
                         zip(*(map(repr, c.tolist()) for c in cols))))
    return (",".join(header) + "\n" + text + "\n").split("\n")


def test_solution_csv_of_a_run_matches_repr_rows(dec_data, base_grid):
    results = run_pipeline_on(dec_data, base_grid, seed=7)
    arrays = results["arrays"]
    cols = (arrays["grid"], arrays["u"], arrays["consequence_margin"])
    assert np.count_nonzero(arrays["u"] == 0.0) > 1000    # zero-extended tail
    assert solution_csv_from_results(results).split("\n") == _repr_rows(
        ("r", "u", "consequence_margin"), cols)


def test_float_csv_keeps_the_fields_of_read_only_columns_only():
    x = np.linspace(0.0, 1.0, 9)
    view = x[:]
    view.flags.writeable = False        # read-only, but x can change it
    for column in (x, view):
        assert _float_csv(("x",), (column,)).split("\n")[4] == "0.375"
    x[3] = 7.5
    for column in (x, view):
        assert _float_csv(("x",), (column,)).split("\n")[4] == "7.5"
    with pytest.raises(ValueError):
        _float_csv(("x", "y"), (x, x[1:]))
    nodes = build_grid(1.0, 16).nodes
    assert _float_csv(("r",), (nodes,)) == _float_csv(("r",), (nodes,))
    assert janglab.report._kept["column"]() is nodes
    del nodes                           # the fields go with the nodes
    assert janglab.report._kept["fields"] is None


def test_two_certifications_on_one_grid_emit_fresh_grid_bytes(tmp_path,
                                                              monkeypatch):
    formatted = []

    def counted(x, words, out, fmt=janglab.report._format_column):
        formatted.append(len(x))
        fmt(x, words, out)
    monkeypatch.setattr(janglab.report, "_format_column", counted)
    params = {"m": 1.0, "amplitude": 0.05}
    grid = build_grid(512.0, 4096, "uniform")
    emitted = {}
    for seed in (7, 11):
        data = make_dataset("perturbed-dec", 4, params, grid=grid, seed=seed)
        results = run_pipeline_on(data, grid, seed=seed)
        emitted[seed] = (emit_report(results, str(tmp_path / f"{seed}")),
                         results["arrays"])
    # r, u and the margin, then u and the margin: the nodes' fields are kept
    assert formatted == [4097] * 5
    for seed, (manifest, arrays) in emitted.items():
        fresh = build_grid(512.0, 4096, "uniform")
        data = make_dataset("perturbed-dec", 4, params, grid=fresh, seed=seed)
        assert emit_report(run_pipeline_on(data, fresh, seed=seed),
                           str(tmp_path / f"fresh-{seed}")) == manifest
        text = (tmp_path / f"{seed}" / "solution.csv").read_text()
        assert text.split("\n") == _repr_rows(
            ("r", "u", "consequence_margin"),
            (arrays["grid"], arrays["u"], arrays["consequence_margin"]))


def test_barrier_csv_matches_repr_rows():
    bp = BarrierProfile(r0=1.0, n=4)
    s = np.geomspace(1.5, 64.0, 200)
    cols = (s, bp.b(s), bp.bprime(s), bp.bsecond(s), ode_residual(bp, s))
    assert np.count_nonzero(cols[-1] == 0.0) > 0           # exact residuals
    assert barrier_csv(bp, s).split("\n") == _repr_rows(
        ("s", "b", "bprime", "bsecond", "ode_residual"), cols)


def test_emit_report_error_record(tmp_path):
    manifest = emit_report({"error": "boom", "config_echo": {"k": 1}},
                           str(tmp_path))
    files = {e["file"] for e in manifest["files"]}
    assert files == {"error.json"}
    err = json.loads((tmp_path / "error.json").read_text())
    assert err["error"] == "boom"
    assert err["config_echo"] == {"k": 1}
    assert (tmp_path / "manifest.json").exists()
