#!/usr/bin/env python3
"""Per-stage seconds of run_pipeline_on over a grid of sizes and dimensions.

    python3 perfbench/matrix.py

For each N in {2048, 8192, 32768} and n in {4, 5, 6}, the matrix the
ROADMAP names, it generates perturbed-dec data (m = 1, amplitude 0.05) on
the uniform grid of N intervals over [0, 512], certifies it (seed 7)
three times with the public functions wrapped in spans, and prints the
median of the self seconds of each stage and of the whole certification.
Seconds are reference seconds, scaled by the host clock of run.py.  These
are the reference stage figures of perfbench/README.md.
"""

import statistics
import sys
import time

import run  # pins BLAS to one thread before numpy loads

sys.path.insert(0, run.SRC)

import janglab.cli  # noqa: E402
import janglab.mass  # noqa: E402
import janglab.pipeline  # noqa: E402
import janglab.report  # noqa: E402
from janglab.geometry import make_dataset  # noqa: E402
from janglab.grids import build_grid  # noqa: E402

from tracing import Tracer, install  # noqa: E402
from workloads import PARAMS, R_MAX  # noqa: E402

STAGES = ("jang_solver.estimate_audits_s", "jang_solver.exhaustion_solve_s",
          "capillary.select_config_s", "jang_metric.schoen_yau_audit_s",
          "jang_metric.stability_audit_s", "jang_metric.build_graph_geometry_s")
SIZES = (2048, 8192, 32768)
DIMS = (4, 5, 6)
SEED = 7
REPEATS = 3


def main():
    tracer = Tracer()
    run.ref_kernel()
    install(tracer, [janglab.pipeline, janglab.cli, janglab.mass,
                     janglab.report])
    short = [s.split(".", 1)[1].removesuffix("_s") for s in STAGES]
    print("| N | n | certify s | " + " | ".join(short) + " | other s |")
    print("|---" * (len(STAGES) + 4) + "|")
    with run.HostClock() as clock:
        for size in SIZES:
            grid = build_grid(R_MAX, size, "uniform")
            for n in DIMS:
                data = make_dataset("perturbed-dec", n, PARAMS, grid=grid,
                                    seed=SEED)
                rows = []
                for _ in range(REPEATS):
                    tracer.restore(({}, {}, {}, {}))
                    t0 = time.perf_counter()
                    janglab.pipeline.run_pipeline_on(data, grid, seed=SEED)
                    wall = time.perf_counter() - t0
                    certify = clock.adjust(t0, wall, 0.0)[0]
                    stages = [certify / wall * sum(tracer.self_s.get(lb, 0.0)
                                                   for lb in run.LAYER_SPANS[s])
                              for s in STAGES]
                    rows.append([certify] + stages + [certify - sum(stages)])
                med = [statistics.median(col) for col in zip(*rows)]
                print(f"| {size} | {n} | "
                      + " | ".join(f"{v:.3f}" for v in med) + " |", flush=True)


if __name__ == "__main__":
    main()
