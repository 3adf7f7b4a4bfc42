"""Command-line driver: configuration ingestion and pipeline orchestration.

Subcommands: gen, barrier, solve, audit, mass, pipeline, experiment.
Exit codes: 0 success, 2 configuration error, 3 energy-condition violation,
4 solver failure, 5 audit failure (artifacts are still written).
The output directory comes from --out, overridden by $JANGLAB_OUT.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import asdict

import numpy as np

from . import jang_solver
from .barrier import (BarrierProfile, barrier_csv, find_r0,
                      default_r0_candidates)
from .capillary import select_capillary_config
from .errors import (ConfigFailure, ContinuationFailure, DecViolation,
                     ExhaustionNonconvergence, GenerationFailure,
                     GridTooShort, InvalidArgument, JanglabError,
                     NewtonDivergence, NoAdmissibleR0, NumericalDegeneracy,
                     SingularJacobian)
from .geometry import make_dataset, validate_dataset
from .grids import build_grid
from .mass import experiment_csv, fit_alpha, positivity_experiment
from .pipeline import SCHEDULE_FACTORS, exhaustion_schedule, run_pipeline_on
from .report import _csv_blocks, emit_report, write_artifact

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DEC = 3
EXIT_SOLVER = 4
EXIT_AUDIT = 5

# config fields read as integers: a float, string or bool is rejected, not
# truncated or coerced into a run nobody asked for
INTEGER_FIELDS = (("grid", "n_intervals"), ("dataset", "n"),
                  ("dataset", "seed"), ("experiment", "n"),
                  ("experiment", "count"), ("experiment", "seed"))
# config fields read as positive finite numbers, when present
NUMBER_FIELDS = (("grid", "r_max"), ("grid", "stretch"))

SOLVER_ERRORS = (ContinuationFailure, ExhaustionNonconvergence,
                 NewtonDivergence, NoAdmissibleR0, SingularJacobian,
                 GenerationFailure, NumericalDegeneracy, ConfigFailure,
                 GridTooShort)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="janglab",
        description="Radial laboratory for capillary-regularized Jang "
                    "solves and positivity audits")
    p.add_argument("--config", help="JSON configuration file")
    p.add_argument("--out", default="janglab-out",
                   help="output directory (overridden by $JANGLAB_OUT)")
    p.add_argument("--seed", type=int, help="override the config seed")
    p.add_argument("--grid-n", type=int, help="override grid interval count")
    p.add_argument("command",
                   choices=["gen", "barrier", "solve", "audit", "mass",
                            "pipeline", "experiment"])
    return p


def load_config(args) -> dict:
    cfg = {}
    if args.config:
        with open(args.config) as fh:
            cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise InvalidArgument("config root must be a JSON object")
    for key in ("grid", "dataset", "experiment"):
        if not isinstance(cfg.get(key, {}), dict):
            raise InvalidArgument(f"config {key!r} must be a JSON object")
    for key in ("schedule_factors", "r0_candidates"):
        if key in cfg and not _positive_numbers(cfg[key]):
            raise InvalidArgument(f"config {key!r} must be a non-empty list "
                                  f"of positive finite numbers")
    # the exhaustion radii f r0 must exceed 32 r0
    if any(f <= 32 for f in cfg.get("schedule_factors", ())):
        raise InvalidArgument("config 'schedule_factors' must each exceed 32")
    for section, key in INTEGER_FIELDS:
        value = cfg.get(section, {}).get(key, 0)
        if isinstance(value, bool) or not isinstance(value, int):
            raise InvalidArgument(f"config '{section}.{key}' must be an "
                                  f"integer")
    for section, key in NUMBER_FIELDS:
        fields = cfg.get(section, {})
        if key in fields and not _positive_number(fields[key]):
            raise InvalidArgument(f"config '{section}.{key}' must be a "
                                  f"positive finite number")
    params = cfg.get("dataset", {}).get("params", {})
    if not isinstance(params, dict):
        raise InvalidArgument("config 'dataset.params' must be a JSON object")
    for key, value in params.items():
        if not _finite_number(value):
            raise InvalidArgument(f"config 'dataset.params.{key}' must be a "
                                  f"finite number")
    if args.seed is not None:
        cfg.setdefault("dataset", {})["seed"] = args.seed
    if args.grid_n is not None:
        cfg.setdefault("grid", {})["n_intervals"] = args.grid_n
    return cfg


def _finite_number(value) -> bool:
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and -math.inf < value < math.inf)


def _positive_number(value) -> bool:
    return _finite_number(value) and value > 0


def _positive_numbers(value) -> bool:
    return (isinstance(value, list) and len(value) > 0
            and all(_positive_number(v) for v in value))


def resolve_out(args) -> str:
    return os.environ.get("JANGLAB_OUT") or args.out


def _grid_from_config(cfg):
    g = cfg.get("grid", {})
    policy = g.get("policy", "uniform")
    return build_grid(g.get("r_max", 512.0),
                      g.get("n_intervals", 2048),
                      policy, g.get("stretch"))


def _dataset_from_config(cfg, grid):
    ds = cfg.get("dataset", {})
    family = ds.get("family", "perturbed-dec")
    n = ds.get("n", 4)
    return make_dataset(family, n, ds.get("params", {}), grid=grid,
                        seed=ds.get("seed", 0))


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    out = resolve_out(args)
    try:
        cfg = load_config(args)
    except (OSError, json.JSONDecodeError, InvalidArgument) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        grid = _grid_from_config(cfg)
        if args.command == "experiment":
            exp = cfg.get("experiment", {})
            seed = args.seed if args.seed is not None else exp.get(
                "seed", cfg.get("dataset", {}).get("seed", 1))
            report = positivity_experiment(
                exp.get("n", 4), exp.get("count", 20), seed,
                grid=grid)
            write_artifact(out, "experiment.csv", experiment_csv(report))
            write_artifact(out, "experiment.json", report)
            return EXIT_OK if report["passed"] else EXIT_AUDIT
        data = _dataset_from_config(cfg, grid)
    except (InvalidArgument, KeyError, ValueError, TypeError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (DecViolation, *SOLVER_ERRORS) as exc:
        return _failed(exc, cfg, out)

    seed = cfg.get("dataset", {}).get("seed", 0)
    try:
        if args.command == "gen":
            validation = validate_dataset(data, grid)
            write_artifact(out, "dataset.json", data.spec_dict(grid))
            write_artifact(out, "profiles.csv", data.profiles_csv(grid))
            write_artifact(out, "validation.json", validation)
            return EXIT_OK

        if args.command == "barrier":
            r0 = find_r0(data, grid, cfg.get("r0_candidates")
                         or default_r0_candidates(grid))
            bp = BarrierProfile(r0=r0, n=data.n)
            samples = np.geomspace(1.5 * r0, 64.0 * r0, 200)
            write_artifact(out, "barrier.csv", barrier_csv(bp, samples))
            write_artifact(out, "barrier.json", {"r0": r0, "n": data.n})
            return EXIT_OK

        if args.command == "mass":
            alpha, fit = fit_alpha(data, grid)
            write_artifact(out, "mass.json", {"alpha": alpha,
                                              "fit": asdict(fit)})
            return EXIT_OK

        if args.command == "solve":
            r0 = find_r0(data, grid, cfg.get("r0_candidates")
                         or default_r0_candidates(grid))
            config = select_capillary_config(data, r0, grid)
            schedule = exhaustion_schedule(
                r0, grid.r_max,
                cfg.get("schedule_factors", SCHEDULE_FACTORS))
            limit = jang_solver.exhaustion_solve(data, config, schedule, grid)
            write_artifact(out, "solution.csv",
                           _csv_blocks(("r", "u"), (grid.nodes, limit.u)))
            write_artifact(out, "trace.json", {"trace": limit.trace,
                                               "schedule": schedule})
            return EXIT_OK

        # audit and pipeline both run the full chain; audit emits only the
        # audit report, pipeline emits everything
        results = run_pipeline_on(
            data, grid, seed=seed,
            schedule_factors=cfg.get("schedule_factors", SCHEDULE_FACTORS),
            r0_candidates=cfg.get("r0_candidates"))
        results["config_echo"] = cfg
        if args.command == "audit":
            write_artifact(out, "audits.json",
                           {k: v for k, v in results.items()
                            if k != "arrays"})
        else:
            emit_report(results, out)
        return EXIT_OK if results["audits_passed"] else EXIT_AUDIT

    except JanglabError as exc:
        return _failed(exc, cfg, out)


def _failed(exc: JanglabError, cfg: dict, out: str) -> int:
    """Report a failed run on stderr and in error.json; return its exit code."""
    if isinstance(exc, DecViolation):
        label, code = "energy-condition violation", EXIT_DEC
    elif isinstance(exc, SOLVER_ERRORS):
        label, code = "solver failure", EXIT_SOLVER
    else:
        label, code = "audit failure", EXIT_AUDIT
    print(f"{label}: {exc}", file=sys.stderr)
    emit_report({"error": str(exc), "config_echo": cfg}, out)
    return code


if __name__ == "__main__":
    sys.exit(main())
