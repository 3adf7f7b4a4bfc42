import hashlib
import json

import numpy as np
import pytest

from janglab.errors import IOFailure
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


def test_emit_report_error_record(tmp_path):
    manifest = emit_report({"error": "boom", "config_echo": {"k": 1}},
                           str(tmp_path))
    files = {e["file"] for e in manifest["files"]}
    assert files == {"error.json"}
    err = json.loads((tmp_path / "error.json").read_text())
    assert err["error"] == "boom"
    assert err["config_echo"] == {"k": 1}
    assert (tmp_path / "manifest.json").exists()
