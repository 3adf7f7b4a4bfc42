"""The benchmark's three workloads, each a set-up and a round of attempts.

A round is one fixed group of certification attempts; a run repeats rounds
until its time is up, so every run attempts whole rounds and the share of
failed attempts is the same in every run.  Each workload draws its inputs
from the run's seed and keeps a pool of them, cycled round by round, so that
one run's medians rest on many distinct datasets.  Every certified output is
checked by ``checks`` after its timing has stopped.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import time
from dataclasses import dataclass

import numpy as np

import janglab.cli
import janglab.geometry
import janglab.grids
import janglab.mass
import janglab.pipeline
import janglab.report

import checks

R_MAX = 512.0
# m = 1 keeps the barrier radius r0 at 1 or 2 for n = 4, 5, 6, so every
# exhaustion schedule keeps its three radii inside r_max = 512.
PARAMS = {"m": 1.0, "amplitude": 0.05}


def api():
    """The public functions the benchmark calls, as one patchable table."""
    from types import SimpleNamespace
    return SimpleNamespace(
        build_grid=janglab.grids.build_grid,
        default_grid=janglab.pipeline.default_grid,
        make_dataset=janglab.geometry.make_dataset,
        validate_dataset=janglab.geometry.validate_dataset,
        run_pipeline_on=janglab.pipeline.run_pipeline_on,
        positivity_experiment=janglab.mass.positivity_experiment,
        experiment_csv=janglab.mass.experiment_csv,
        emit_report=janglab.report.emit_report,
        write_artifact=janglab.report.write_artifact,
        cli_main=janglab.cli.main,
    )


def cpu_now() -> float:
    """CPU seconds of this process and its waited-for children."""
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


@dataclass
class Attempt:
    """One timed call into the program and what it certified."""

    attempted: int
    failed: int
    start: float              # time.perf_counter() when the call began
    seconds: float
    cpu: float
    timed: bool = True

    @property
    def certified(self) -> int:
        return self.attempted - self.failed


class Workload:
    min_rounds = 1

    def __init__(self, seed: int, work_dir: str, calls, tracer=None):
        self.seed = seed
        self.work_dir = work_dir
        self.calls = calls
        self.tracer = tracer
        self.problems = []
        self.sample = None        # one certified output, for the self-test
        self.digests = {}         # artifact hashes of each input's first run
        self.reported = set()     # failure messages already printed

    def attempt(self, attempted, fn, timed=True):
        """Time ``fn``; return (Attempt, result or None if it raised).

        Spans of an attempt that failed or is kept out of the timing are
        dropped, so the traced layer figures cover the timed work only.
        """
        snap = self.tracer.snapshot() if self.tracer else None
        c0 = cpu_now()
        t0 = time.perf_counter()
        try:
            out = fn()
        except Exception as exc:  # a failed attempt, counted, not fatal
            out = exc
        seconds = time.perf_counter() - t0
        cpu = cpu_now() - c0
        failed = isinstance(out, Exception)
        if snap is not None and (failed or not timed):
            self.tracer.restore(snap)
        if failed:
            msg = f"{self.name}: attempt failed: {type(out).__name__}: {out}"
            if msg not in self.reported:
                self.reported.add(msg)
                print(msg, file=sys.stderr)
            return Attempt(attempted, attempted, t0, seconds, cpu, timed), None
        return Attempt(attempted, 0, t0, seconds, cpu, timed), out

    def check_repeat(self, key, out_dir):
        """Artifacts of a repeated input must be byte-identical."""
        digests = checks.file_digests(out_dir)
        first = self.digests.setdefault(key, digests)
        if digests != first:
            self.problems.append(f"{key}: artifacts differ from its first run")

    def check_certified(self, key, alpha, n, r, u, r0, r_out, out_dir,
                        audits_passed):
        found = checks.check_alpha(alpha, PARAMS["m"], n)
        found += checks.check_envelopes(r, u, r0, r_out, n)
        found += checks.check_manifest(out_dir)
        if not audits_passed:
            found.append("audits not green")
        self.problems += [f"{key}: {p}" for p in found]
        self.check_repeat(key, out_dir)
        if self.sample is None and not found:
            self.sample = {"alpha": alpha, "m": PARAMS["m"], "n": n, "r": r,
                           "u": u, "r0": r0, "r_out": r_out,
                           "out_dir": out_dir}

    def self_test(self) -> list[str]:
        if self.sample is None:
            return ["self-test: no certified output to test the checks on"]
        return checks.self_test(self.sample, self.work_dir)


class FineN4(Workload):
    """run_pipeline_on at N = 32768, then emit_report, one dataset a round."""

    name = "fine-n4"
    n = 4
    grid_n = 32768
    pool = 12

    def __init__(self, *args):
        super().__init__(*args)
        self.seeds = [self.seed * self.pool + i for i in range(self.pool)]

    def prepare(self):
        self.grid = self.calls.build_grid(R_MAX, self.grid_n, "uniform")
        self.datasets = [self.calls.make_dataset("perturbed-dec", self.n,
                                                 PARAMS, grid=self.grid,
                                                 seed=s)
                         for s in self.seeds]
        for data in self.datasets:
            self.calls.validate_dataset(data, self.grid)

    def round(self, k):
        i = k % self.pool
        data, seed = self.datasets[i], self.seeds[i]
        out_dir = os.path.join(self.work_dir, f"fine-{seed}")

        def certify():
            results = self.calls.run_pipeline_on(data, self.grid, seed=seed)
            self.calls.emit_report(results, out_dir)
            return results

        att, res = self.attempt(1, certify)
        if res is not None:
            self.check_certified(
                f"dataset seed {seed}", res["alpha"], self.n, self.grid.nodes,
                res["arrays"]["u"], res["config"]["r0"],
                res["exhaustion"]["outer_radius"], out_dir,
                res["audits_passed"])
        return [att]


class BatchN4(Workload):
    """positivity_experiment(4, 20, seed) at N = 2048, as `janglab experiment`
    runs it, with its two result files; one batch a round."""

    name = "batch-n4"
    count = 20
    pool = 12
    # Batch seeds 0, 20, ..., 1180 without the seven batches that hold a
    # dataset whose barrier radius is 4: its exhaustion schedule keeps only
    # two radii inside r_max and the batch row fails with
    # ExhaustionNonconvergence (README, Known failures).
    batch_seeds = tuple(sorted(set(range(0, 1200, 20))
                               - {300, 500, 520, 580, 860, 900, 1060}))

    def __init__(self, *args):
        super().__init__(*args)
        rng = np.random.default_rng(self.seed)
        self.seeds = [int(s) for s in rng.choice(self.batch_seeds, self.pool,
                                                 replace=False)]

    def prepare(self):
        self.grid = self.calls.default_grid()

    def round(self, k):
        seed = self.seeds[k % self.pool]
        out_dir = os.path.join(self.work_dir, f"batch-{seed}")

        def batch():
            report = self.calls.positivity_experiment(4, self.count, seed,
                                                      grid=self.grid)
            self.calls.write_artifact(out_dir, "experiment.csv",
                                      self.calls.experiment_csv(report))
            self.calls.write_artifact(out_dir, "experiment.json", report)
            return report

        att, report = self.attempt(self.count, batch)
        if report is None:
            return [att]
        errors = [row["error"] for row in report["rows"] if row["error"]]
        att.failed = len(errors)
        for err in errors:
            print(f"{self.name}: batch seed {seed}: row failed: {err}",
                  file=sys.stderr)
        found = checks.check_batch(report, self.count, seed)
        self.problems += [f"batch seed {seed}: {p}" for p in found]
        self.check_repeat(f"batch seed {seed}", out_dir)
        if self.sample is None and not found and not errors:
            self.sample = (report, seed)
        return [att]

    def self_test(self):
        if self.sample is None:
            return ["self-test: no green batch to test the checks on"]
        report, seed = self.sample
        return checks.self_test_batch(report, self.count, seed)


class DimsN5N7(Workload):
    """`janglab pipeline` in-process at N = 8192 on n = 5 and n = 6 configs,
    plus the n = 7 config that fails generation today; one of each a round."""

    name = "dims-n5-n7"
    grid_n = 8192
    pool = 16
    min_rounds = pool + 1    # every run re-runs at least one config
    failing_n = 7

    def __init__(self, *args):
        super().__init__(*args)
        base = self.seed * 2 * self.pool
        self.configs = [[(5, base + 2 * i), (6, base + 2 * i + 1)]
                        for i in range(self.pool)]
        # n = 7 on seed-independent input: make_dataset raises
        # GenerationFailure, because scalar_curvature loses the 1 - f'^2/a
        # term to cancellation and gives R <= 0 from r ~ 222 outward.
        self.fixed = (self.failing_n, 7)

    def config_path(self, n, seed):
        return os.path.join(self.work_dir, "configs", f"n{n}-s{seed}.json")

    def prepare(self):
        os.makedirs(os.path.join(self.work_dir, "configs"), exist_ok=True)
        for n, seed in [c for pair in self.configs for c in pair] + [self.fixed]:
            cfg = {"grid": {"r_max": R_MAX, "n_intervals": self.grid_n,
                            "policy": "uniform"},
                   "dataset": {"family": "perturbed-dec", "n": n,
                               "seed": seed, "params": PARAMS},
                   "schedule_factors": [64, 128, 256],
                   "stability_count": 10}
            with open(self.config_path(n, seed), "w") as fh:
                json.dump(cfg, fh)

    def run_cli(self, n, seed, timed):
        out_dir = os.path.join(self.work_dir, f"out-n{n}-s{seed}")
        argv = ["--config", self.config_path(n, seed), "--out", out_dir,
                "pipeline"]
        err = io.StringIO()

        def cli():
            with contextlib.redirect_stderr(err):
                code = self.calls.cli_main(argv)
            if code != 0:
                known = (" (the n = 7 scalar_curvature cancellation fault)"
                         if n == self.failing_n else "")
                raise RuntimeError(f"exit code {code}{known}: "
                                   f"{err.getvalue().strip()}")
            return code

        att, code = self.attempt(1, cli, timed)
        if code is None:
            return att
        key = f"n={n} seed {seed}"
        try:
            with open(os.path.join(out_dir, "audits.json")) as fh:
                audits = json.load(fh)
            sol = np.loadtxt(os.path.join(out_dir, "solution.csv"),
                             delimiter=",", skiprows=1)
        except (OSError, ValueError) as exc:
            self.problems.append(f"{key}: artifacts unreadable: {exc}")
            return att
        self.check_certified(
            key, audits["alpha"], n, sol[:, 0], sol[:, 1],
            audits["config"]["r0"], audits["exhaustion"]["outer_radius"],
            out_dir, audits["audits_passed"])
        return att

    def round(self, k):
        attempts = [self.run_cli(n, seed, True)
                    for n, seed in self.configs[k % self.pool]]
        # Kept out of the timing whether it fails or, once fixed, certifies,
        # so that mending it does not read as a slowdown.
        attempts.append(self.run_cli(*self.fixed, timed=False))
        return attempts


WORKLOADS = {w.name: w for w in (FineN4, BatchN4, DimsN5N7)}
