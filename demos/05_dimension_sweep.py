"""Dimension sweep through the command-line driver, in one process.

The theorem holds in every dimension n >= 3, so the natural experiment is
the same kind of dataset certified in n = 4, 5 and 6.  This script runs
``janglab pipeline`` for each (n, seed) through ``janglab.cli.main``, so
every run writes the full artifact set (audits, mass fit, solution,
sha256 manifest) as the shell command would, and prints one row per run.
All runs share one grid config, so ``main`` builds the grid once and the
later runs reuse it with what it keeps (stencils, coarsening, cutoffs,
barrier values, the formatted r column); the artifacts are the same bytes
as a fresh process writes.  Pass a directory to keep the artifacts.
"""

import json
import sys
import tempfile
import time
from pathlib import Path

from janglab.cli import main

GRID = {"r_max": 512.0, "n_intervals": 8192}


def sweep(out: Path) -> None:
    print(" n  seed  exit  alpha     2m/(n-2)  audits  ms")
    for n in (4, 5, 6):
        for seed in (7, 8):
            run = out / f"n{n}-seed{seed}"
            run.mkdir(parents=True, exist_ok=True)
            config = run / "config-in.json"
            config.write_text(json.dumps({
                "grid": GRID,
                "dataset": {"family": "perturbed-dec", "n": n, "seed": seed,
                            "params": {"m": 1.0, "amplitude": 0.05}}}))
            start = time.perf_counter()
            code = main(["--config", str(config), "--out", str(run / "out"),
                         "pipeline"])
            ms = 1e3 * (time.perf_counter() - start)
            audits = json.loads((run / "out" / "audits.json").read_text())
            print(f"{n:2d}  {seed:4d}  {code:4d}  {audits['alpha']:.6f}  "
                  f"{2.0 / (n - 2):.6f}  {str(audits['audits_passed']):6s}  "
                  f"{ms:4.0f}")


if len(sys.argv) > 1:
    sweep(Path(sys.argv[1]))
else:
    with tempfile.TemporaryDirectory() as tmp:
        sweep(Path(tmp))
