"""Deterministic artifact emission: CSV/JSON files plus a hashed manifest.

All outputs are functions of the numeric results only (no timestamps, no
absolute paths), so reruns with the same configuration and seed produce
byte-identical files; the manifest records a sha256 per file to make that
checkable.
"""

from __future__ import annotations

import hashlib
import json
import os

import numpy as np

from .errors import IOFailure


def _json_bytes(obj) -> bytes:
    return (json.dumps(obj, sort_keys=True, indent=2, default=_coerce)
            + "\n").encode()


def _coerce(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, np.bool_):
        return bool(obj)
    raise TypeError(f"not JSON-serializable: {type(obj)}")


def write_artifact(out_dir: str, name: str, payload) -> dict:
    """Write one file (bytes/str/JSON-able) and return its manifest entry."""
    try:
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir, name)
        if isinstance(payload, bytes):
            data = payload
        elif isinstance(payload, str):
            data = payload.encode()
        else:
            data = _json_bytes(payload)
        with open(path, "wb") as fh:
            fh.write(data)
    except OSError as exc:
        raise IOFailure(f"cannot write {name} in {out_dir}: {exc}") from exc
    return {"file": name, "bytes": len(data),
            "sha256": hashlib.sha256(data).hexdigest()}


def _float_csv(header, columns) -> str:
    """CSV of float columns under a header: each value is the ``repr`` of
    its Python float, which reads back to the same bits.  Private, so that a
    trace of the public functions counts its time in the caller's span."""
    text = [map(repr, np.asarray(col, dtype=float).tolist()) for col in columns]
    return "\n".join([",".join(header), *map(",".join, zip(*text))]) + "\n"


def solution_csv_from_results(results: dict) -> str:
    arrays = results["arrays"]
    return _float_csv(("r", "u", "consequence_margin"),
                      (arrays["grid"], arrays["u"], arrays["consequence_margin"]))


def emit_report(results: dict, out_dir: str) -> dict:
    """Write every artifact of one pipeline run and the hashed manifest.

    ``results`` is the pipeline results dictionary, or a minimal
    {"config_echo": ..., "error": ...} record for runs that failed before
    producing numbers.  Returns the manifest (also written to
    manifest.json).
    """
    entries = []
    if "error" in results:
        entries.append(write_artifact(out_dir, "error.json",
                                      {"error": results["error"],
                                       "config_echo":
                                       results.get("config_echo")}))
    else:
        summary = {k: v for k, v in results.items() if k != "arrays"}
        entries.append(write_artifact(out_dir, "audits.json", summary))
        entries.append(write_artifact(out_dir, "mass.json", {
            "alpha": results["alpha"],
            "alpha_graph": results["alpha_graph"],
            "alpha_fit": results["alpha_fit"],
            "decay": results["decay"]}))
        if "arrays" in results:
            entries.append(write_artifact(
                out_dir, "solution.csv", solution_csv_from_results(results)))
    if "config_echo" in results and "error" not in results:
        entries.append(write_artifact(out_dir, "config.json",
                                      results["config_echo"]))
    manifest = {"files": sorted(entries, key=lambda e: e["file"])}
    write_artifact(out_dir, "manifest.json", manifest)
    return manifest
