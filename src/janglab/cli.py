"""Command-line driver: configuration ingestion and pipeline orchestration.

Subcommands: gen, barrier, solve, audit, mass, pipeline, experiment.
Exit codes (``EXITS``): 0 success, 2 configuration error (nothing written),
3 energy-condition violation, 4 solver failure, 5 audit failure (artifacts
are still written).  Output goes to $JANGLAB_OUT if set, else to --out.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import math
import os
import sys
from dataclasses import asdict

import numpy as np

from . import errors, jang_solver
from .barrier import (BarrierProfile, barrier_csv, find_r0,
                      default_r0_candidates)
from .capillary import select_capillary_config
from .geometry import make_dataset, validate_dataset
from .grids import build_grid
from .mass import experiment_csv, fit_alpha, positivity_experiment
from .pipeline import (DEFAULT_N_INTERVALS, DEFAULT_R_MAX, SCHEDULE_FACTORS,
                       exhaustion_schedule, run_pipeline_on)
from .report import _csv_blocks, emit_report, write_artifact

EXIT_OK, EXIT_CONFIG, EXIT_DEC, EXIT_SOLVER, EXIT_AUDIT = 0, 2, 3, 4, 5

# A failed run exits with the code of the first row naming its error's class
# (GridTooShort is an InvalidArgument).  An OSError is a config file that
# cannot be read or an --out that cannot be written (IOFailure), and a
# UnicodeDecodeError a config file that is not UTF-8.  Any other error is a
# defect, and its traceback is shown.
EXITS = (
    ((errors.DecViolation,), "energy-condition violation", EXIT_DEC),
    ((errors.GridTooShort, errors.GenerationFailure, errors.NoAdmissibleR0,
      errors.ConfigFailure, errors.NumericalDegeneracy,
      errors.NewtonDivergence, errors.SingularJacobian,
      errors.ContinuationFailure, errors.ExhaustionNonconvergence),
     "solver failure", EXIT_SOLVER),
    ((errors.InvalidArgument, OSError, UnicodeDecodeError,
      json.JSONDecodeError),
     "configuration error", EXIT_CONFIG),
    ((errors.JanglabError,), "audit failure", EXIT_AUDIT),
)
_FAILURES = tuple(c for classes, _, _ in EXITS for c in classes)


def _number(value, above=0.0) -> bool:
    """A finite JSON number (not a bool) above ``above``."""
    return type(value) in (int, float) and above < value < math.inf


def _numbers(value, above=0.0) -> bool:
    """A non-empty JSON list of numbers above ``above``."""
    return (type(value) is list and value != []
            and all(_number(v, above) for v in value))


def _natural(value) -> bool:
    return type(value) is int and value >= 0


# Each config field that main reads: (check, what its value must be,
# default).  A check is a predicate or the exact JSON type, so no float or
# bool is coerced into a run nobody asked for.  An absent field takes its
# default, or a function of the config.  "*" is each key of its section.
FIELDS = {
    "grid": (dict, "a JSON object", {}),
    "grid.r_max": (_number, "a positive finite number", DEFAULT_R_MAX),
    "grid.n_intervals": (int, "an integer", DEFAULT_N_INTERVALS),
    "grid.policy": (str, "a string", "uniform"),
    "grid.stretch": (_number, "a positive finite number", None),
    "dataset": (dict, "a JSON object", {}),
    "dataset.family": (str, "a string", "perturbed-dec"),
    "dataset.n": (int, "an integer", 4),
    "dataset.seed": (_natural, "a nonnegative integer", 0),
    "dataset.params": (dict, "a JSON object", {}),
    "dataset.params.*": (lambda v: _number(v, -math.inf), "a finite number",
                         None),
    "experiment": (dict, "a JSON object", {}),
    "experiment.n": (int, "an integer", 4),
    "experiment.count": (int, "an integer", 20),
    "experiment.seed": (_natural, "a nonnegative integer",
                        lambda cfg: cfg.get("dataset", {}).get("seed", 1)),
    # each exhaustion radius f r0 must exceed 32 r0
    "schedule_factors": (lambda v: _numbers(v, 32.0),
                         "a non-empty list of numbers that each exceed 32",
                         SCHEDULE_FACTORS),
    # absent: the grid's default_r0_candidates
    "r0_candidates": (_numbers, "a non-empty list of positive finite numbers",
                      None),
}


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
    """The config with the --seed and --grid-n overrides, checked by FIELDS."""
    cfg = {}
    if args.config:
        with open(args.config, encoding="utf-8") as fh:
            cfg = json.load(fh)
    if type(cfg) is not dict:
        raise errors.InvalidArgument("config root must be a JSON object")
    for section, key, value in (("dataset", "seed", args.seed),
                                ("grid", "n_intervals", args.grid_n)):
        # a section that is not an object is refused below
        if value is not None and type(cfg.setdefault(section, {})) is dict:
            cfg[section][key] = value
    for name, (check, what, _) in FIELDS.items():
        for key, value in _present(cfg, name):
            if not (type(value) is check if type(check) is type
                    else check(value)):
                raise errors.InvalidArgument(f"config {key!r} must be {what}")
    return cfg


def _present(cfg: dict, name: str) -> list:
    """(dotted key, value) for each value of field ``name`` in the config."""
    found = [((), cfg)]
    for part in name.split("."):
        found = [((*path, key), section[key]) for path, section in found
                 for key in (section if part == "*" else (part,))
                 if key in section]
    return [(".".join(path), value) for path, value in found]


def _setting(cfg: dict, name: str):
    """The value of field ``name``, or its default."""
    for _, value in _present(cfg, name):
        return value
    default = FIELDS[name][2]
    return default(cfg) if callable(default) else default


def resolve_out(args) -> str:
    return os.environ.get("JANGLAB_OUT") or args.out


# glibc's M_TRIM_THRESHOLD (<malloc.h>): how much free memory at the top of
# the heap malloc keeps before it returns the rest to the kernel
_M_TRIM_THRESHOLD = -1
_KEPT_HEAP_BYTES = 64 << 20


def _keep_freed_heap() -> None:
    """Let the C allocator keep up to 64 MiB of freed heap for this process.

    By default glibc returns the freed top of the heap to the kernel after
    each stage, so the next stage's arrays come back as fresh zero-filled
    pages, one minor fault per page: about 2,400 per in-process N = 8192
    pipeline.  Kept, the pages are reused.  Only the CLI sets this;
    importing janglab does not.  A no-op where the C library has no
    ``mallopt`` (macOS, Windows).
    """
    if os.name == "posix":
        mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
        if mallopt is not None:
            mallopt(_M_TRIM_THRESHOLD, _KEPT_HEAP_BYTES)


# The grid of the last run and the grid settings it was built from.  A run
# on the same settings reuses it, with everything it keeps (stencils,
# coarsening, spline system, cutoffs, barrier values) and the formatted
# fields of its nodes (``report._kept``); a run on other settings replaces
# it, so at most one grid is kept.  Library calls never read it.
_last_grid = {"settings": None, "grid": None}


def _grid(cfg: dict):
    """The grid of the config's grid settings, built only when they are not
    the last run's."""
    settings = tuple(_setting(cfg, "grid." + key) for key in
                     ("r_max", "n_intervals", "policy", "stretch"))
    if settings != _last_grid["settings"]:
        # the old grid goes before the new one is built
        _last_grid.update(settings=None, grid=None)
        _last_grid.update(grid=build_grid(*settings), settings=settings)
    return _last_grid["grid"]


def main(argv=None) -> int:
    _keep_freed_heap()
    args = build_parser().parse_args(argv)
    out = resolve_out(args)
    cfg = None
    try:
        cfg = load_config(args)
        return _run(args, cfg, out)
    except _FAILURES as exc:
        return _exit(exc, cfg, out)
    finally:
        # the kept grid keeps no dataset past its run
        if _last_grid["grid"] is not None:
            _last_grid["grid"]._keep_frame(None)


def _run(args, cfg: dict, out: str) -> int:
    grid = _grid(cfg)
    if args.command == "experiment":
        seed = _setting(cfg, "experiment.seed")
        report = positivity_experiment(
            _setting(cfg, "experiment.n"), _setting(cfg, "experiment.count"),
            seed if args.seed is None else args.seed, grid=grid)
        write_artifact(out, "experiment.csv", experiment_csv(report))
        write_artifact(out, "experiment.json", report)
        return EXIT_OK if report["passed"] else EXIT_AUDIT

    seed = _setting(cfg, "dataset.seed")
    data = make_dataset(*(_setting(cfg, "dataset." + key) for key in
                          ("family", "n", "params")), grid=grid, seed=seed)
    candidates = (_setting(cfg, "r0_candidates")
                  or default_r0_candidates(grid))
    factors, passed = _setting(cfg, "schedule_factors"), True
    if args.command == "gen":
        validation = validate_dataset(data, grid)
        files = {"dataset.json": data.spec_dict(grid),
                 "profiles.csv": data.profiles_csv(grid),
                 "validation.json": validation}
    elif args.command == "mass":
        alpha, fit = fit_alpha(data, grid)
        files = {"mass.json": {"alpha": alpha, "fit": asdict(fit)}}
    elif args.command == "barrier":
        r0 = find_r0(data, grid, candidates)
        samples = np.geomspace(1.5 * r0, 64.0 * r0, 200)
        files = {"barrier.csv": barrier_csv(BarrierProfile(r0=r0, n=data.n),
                                            samples),
                 "barrier.json": {"r0": r0, "n": data.n}}
    elif args.command == "solve":
        r0 = find_r0(data, grid, candidates)
        config = select_capillary_config(data, r0, grid)
        schedule = exhaustion_schedule(r0, grid.r_max, factors)
        limit = jang_solver.exhaustion_solve(data, config, schedule, grid)
        files = {"solution.csv": _csv_blocks(("r", "u"),
                                             (grid.nodes, limit.u)),
                 "trace.json": {"trace": limit.trace, "schedule": schedule}}
    else:
        # audit and pipeline both run the full chain; audit emits only the
        # audit report, pipeline emits everything
        results = run_pipeline_on(data, grid, seed, factors, candidates)
        results["config_echo"] = cfg
        passed, files = results["audits_passed"], {}
        if args.command == "pipeline":
            emit_report(results, out)
        else:
            files["audits.json"] = {k: v for k, v in results.items()
                                    if k != "arrays"}
    for name, payload in files.items():
        write_artifact(out, name, payload)
    return EXIT_OK if passed else EXIT_AUDIT


def _exit(exc: Exception, cfg: dict, out: str) -> int:
    """Report a failed run on stderr and, unless its code is 2, in error.json
    (a failure to write that is reported next); return its ``EXITS`` code."""
    label, code = next((label, code) for classes, label, code in EXITS
                       if isinstance(exc, classes))
    print(f"{label}: {exc}", file=sys.stderr)
    if code != EXIT_CONFIG:
        try:
            emit_report({"error": str(exc), "config_echo": cfg}, out)
        except errors.IOFailure as failure:
            return _exit(failure, cfg, out)
    return code


if __name__ == "__main__":
    sys.exit(main())
