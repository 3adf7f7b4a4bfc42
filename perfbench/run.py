#!/usr/bin/env python3
"""janglab benchmark: certify datasets for a fixed time and report metrics.

    python3 perfbench/run.py --workload fine-n4 --seed 1 --seconds 36 --trace 0

Run from the root of a source checkout; janglab is imported from its src/.
Workloads: fine-n4, batch-n4, dims-n5-n7 (see perfbench/README.md).  With
``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics; with ``--trace 1`` the public janglab functions are
wrapped in spans and the object holds the per-layer metrics instead.
Exits 1 when a correctness check fails, 2 when janglab cannot be imported.
"""

import os

# One BLAS thread, set before numpy is first imported: the benchmark is one
# process with no threads of its own, so a 2-core host does not swap cores
# between BLAS workers and the interpreter.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("JANGLAB_OUT", None)   # would redirect the CLI's artifacts

import argparse
import json
import math
import resource
import shutil
import signal
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
SETUP_REPEATS = 3
# Host-speed reference.  The host's speed drifts by up to 1.7x from one
# stretch of a few seconds to the next, for Python-heavy code more than for
# vector code, so raw run medians of identical code spread 10-25 %.  A
# small reference kernel runs from SIGALRM every TICK_S seconds; each
# attempt's seconds, less the kernel's own, are scaled by REF_S over the
# mean kernel time around it.  Times are thus reported in seconds of a host
# that runs the kernel in REF_S.  Raw figures are printed too.
TICK_S = 0.1
TICK_MARGIN_S = 0.25
REF_S = 0.0015
WORKLOAD_NAMES = ("fine-n4", "batch-n4", "dims-n5-n7")

# Per-layer time metrics: self seconds of these spans per certified dataset.
LAYER_SPANS = {
    "geometry.constraint_fields_s": ("geometry.constraint_fields",),
    "geometry.validate_dataset_s": ("geometry.validate_dataset",),
    "barrier.find_r0_s": ("barrier.find_r0",),
    "barrier.inequality_audit_s": ("barrier.barrier_inequality_audit",),
    "capillary.select_config_s": ("capillary.select_capillary_config",),
    "jang_solver.exhaustion_solve_s": ("jang_solver.exhaustion_solve",),
    "jang_solver.estimate_audits_s": ("jang_solver.estimate_audits",),
    "jang_metric.build_graph_geometry_s": ("jang_metric.build_graph_geometry",),
    "jang_metric.schoen_yau_audit_s": ("jang_metric.schoen_yau_audit",),
    "jang_metric.consequence_audit_s": ("jang_metric.consequence_audit",),
    "jang_metric.neighborhood_audit_s": ("jang_metric.neighborhood_audit",),
    "jang_metric.shielding_s": ("jang_metric.build_shielding",
                                "jang_metric.shielding_audit"),
    "jang_metric.stability_audit_s": ("jang_metric.stability_audit",),
    "mass.fit_s": ("mass.fit_alpha", "mass.fit_alpha_profile",
                   "mass.fit_decay_exponent"),
    "pipeline.self_s": ("pipeline.run_pipeline_on", "pipeline.full_pipeline"),
    "report.emit_report_s": ("report.emit_report", "report.write_artifact",
                             "report.solution_csv_from_results"),
}
# Per-layer counts per certified dataset: metric -> span that must exist.
LAYER_COUNTS = {
    "barrier.b_calls": "barrier.b_calls",
    "jang_solver.newton_iterations": "jang_solver.exhaustion_solve",
    "jang_solver.continuation_steps": "jang_solver.exhaustion_solve",
    "jang_solver.armijo_halvings": "jang_solver.exhaustion_solve",
    "report.bytes_written": "report.write_artifact",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def ref_kernel():
    """A fixed quad + numpy workload that uses no janglab code.

    Its mix, about two thirds adaptive quad with a Python integrand and one
    third banded solves and vector arithmetic, slows down with the host the
    way a certification does.
    """
    import numpy as np
    from scipy.integrate import quad
    from scipy.linalg import solve_banded

    x = np.linspace(1.0, 2.0, 1 << 12)
    band = np.vstack([np.full_like(x, -1.0), 2.0 + x, np.full_like(x, -1.0)])
    for k in range(3):
        np.sum(np.exp(-solve_banded((1, 1), band, np.sqrt(x) * np.log(x) + k)))
    for k in range(60):
        quad(lambda v: 2.0 * v / math.sqrt((1.0 + v * v) ** 4 - 1.0),
             0.5 + 0.01 * k, np.inf, epsrel=1e-10, limit=400)


class HostClock:
    """Runs ref_kernel from SIGALRM every TICK_S seconds while active.

    Each tick is kept as (end time, seconds, CPU seconds).  The process
    stays single-threaded: the handler runs in the main thread between
    bytecodes, so a tick lands inside whatever attempt is running, and its
    own time is taken out of that attempt.
    """

    def __init__(self):
        self.ticks = []

    def _tick(self, signum, frame):
        c0 = time.process_time()
        t0 = time.perf_counter()
        ref_kernel()
        t1 = time.perf_counter()
        self.ticks.append((t1, t1 - t0, time.process_time() - c0))

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def between(self, t0, t1):
        return [t for t in self.ticks if t0 <= t[0] <= t1]

    def adjust(self, start, seconds, cpu):
        """(seconds, cpu) of an attempt without its ticks, in reference
        seconds, scaled by the ticks within TICK_MARGIN_S of it."""
        inside = self.between(start, start + seconds)
        near = (self.between(start - TICK_MARGIN_S,
                             start + seconds + TICK_MARGIN_S) or self.ticks)
        scale = REF_S / statistics.fmean(t[1] for t in near)
        return ((seconds - sum(t[1] for t in inside)) * scale,
                (cpu - sum(t[2] for t in inside)) * scale)


def peak_rss_mib() -> float:
    """High-water resident set of this process plus its largest child."""
    with open("/proc/self/status") as fh:
        hwm_kib = next(int(line.split()[1]) for line in fh
                       if line.startswith("VmHWM:"))
    child_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (hwm_kib + child_kib) / 1024.0


def timing_metrics(rounds, clock):
    """certify_s, datasets_per_s and cpu_s_per_dataset, in reference
    seconds, over the timed attempts that did not fail."""
    per_round, seconds, raw, cpu, certified = [], 0.0, 0.0, 0.0, 0
    for rnd in rounds:
        ok = [a for a in rnd if a.timed and a.failed == 0]
        if not ok:
            continue
        adjusted = [clock.adjust(a.start, a.seconds, a.cpu) for a in ok]
        n = sum(a.certified for a in ok)
        t = sum(s for s, _ in adjusted)
        per_round.append(t / n)
        seconds += t
        raw += sum(a.seconds for a in ok)
        cpu += sum(c for _, c in adjusted)
        certified += n
    if certified == 0:
        return None
    return {"certify_s": statistics.median(per_round),
            "datasets_per_s": certified / seconds,
            "cpu_s_per_dataset": cpu / certified,
            "certified": certified,
            "scale": seconds / raw,
            "raw_datasets_per_s": certified / raw}


def layer_metrics(tracer, setup_spans, timing, ref_s):
    """Per-layer metrics; names whose spans do not exist are absent.

    Span seconds are scaled to reference seconds by the timed phase's
    average scale, so that they add up to about 1 / datasets_per_s.
    """
    per = timing["certified"] / timing["scale"]
    metrics, absent = {}, []
    for name, labels in LAYER_SPANS.items():
        if not any(lb in tracer.wrapped for lb in labels):
            absent.append(name)
        metrics[name] = (sum(tracer.self_s.get(lb, 0.0) for lb in labels)
                         / per, "s")
    for name, label in LAYER_COUNTS.items():
        if label not in tracer.wrapped:
            absent.append(name)
        metrics[name] = (tracer.counts.get(name, 0) / timing["certified"],
                         "bytes" if name.endswith("bytes_written")
                         else "count")
    # Generation happens in set-up on fine-n4 and in the timed attempts on
    # the other workloads: seconds per dataset made, wherever it ran.
    label = "geometry.make_dataset"
    made = setup_spans[2].get(label, 0) + tracer.calls.get(label, 0)
    gen_s = setup_spans[0].get(label, 0.0) + tracer.self_s.get(label, 0.0)
    if label not in tracer.wrapped:
        absent.append("geometry.make_dataset_s")
    metrics["geometry.make_dataset_s"] = (
        gen_s * timing["scale"] / made if made else 0.0, "s")
    label = "pipeline.run_pipeline_on"
    if label not in tracer.wrapped:
        absent.append("pipeline.run_pipeline_on_s")
    metrics["pipeline.run_pipeline_on_s"] = (
        tracer.total_s.get(label, 0.0) / per, "s")
    metrics["host.ref_s"] = (ref_s, "s")
    metrics["trace.certify_s"] = (timing["certify_s"], "s")
    return metrics, absent


def run(args, import_s, work_dir):
    import janglab.cli
    import janglab.mass
    import janglab.pipeline
    import janglab.report
    import workloads
    from tracing import Tracer, install

    calls = workloads.api()
    tracer = None
    if args.trace:
        tracer = Tracer()
        install(tracer, [janglab.pipeline, janglab.cli, janglab.mass,
                         janglab.report, calls])
    wl = workloads.WORKLOADS[args.workload](args.seed, work_dir, calls,
                                            tracer)
    ref_kernel()                       # first call pays lazy set-up
    clock = HostClock()
    with clock:
        prep = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            wl.prepare()
            t1 = time.perf_counter()
            prep.append(t1 - t0 - sum(t[1] for t in clock.between(t0, t1)))
        raw_setup_s = import_s + statistics.median(prep)
        setup_ticks = len(clock.ticks)
        if tracer is not None:
            setup_spans = tracer.snapshot()
            tracer.restore(({}, {}, {}, {}))

        rounds = []
        deadline = time.perf_counter() + args.seconds
        while len(rounds) < wl.min_rounds or time.perf_counter() < deadline:
            rounds.append(wl.round(len(rounds)))
    attempts = [a for rnd in rounds for a in rnd]
    problems = list(wl.problems)
    timing = timing_metrics(rounds, clock)
    if timing is None:
        problems.append("no dataset was certified")
    else:
        problems += wl.self_test()
    ref_s = statistics.median(t[1] for t in clock.ticks)
    # Set-up is scaled by the ticks taken during it, or the first few.
    first = clock.ticks[:max(setup_ticks, 5)]
    setup_s = raw_setup_s * REF_S / statistics.fmean(t[1] for t in first)

    print(f"workload={args.workload} seed={args.seed} rounds={len(rounds)} "
          f"attempted={sum(a.attempted for a in attempts)} "
          f"failed={sum(a.failed for a in attempts)} "
          f"host.ref_s={ref_s:.6g} raw_setup_s={raw_setup_s:.6g}"
          + (f" raw_datasets_per_s={timing['raw_datasets_per_s']:.6g}"
             if timing else ""))
    for p in problems:
        print(f"CHECK FAILED: {p}", file=sys.stderr)

    if timing is None:
        metrics, absent = {}, []
    elif tracer is None:
        metrics = {
            "certify_s": (timing["certify_s"], "s"),
            "datasets_per_s": (timing["datasets_per_s"], "1/s"),
            "cpu_s_per_dataset": (timing["cpu_s_per_dataset"], "s"),
            "peak_rss_mib": (peak_rss_mib(), "MiB"),
            "setup_s": (setup_s, "s"),
        }
        absent = []
    else:
        metrics, absent = layer_metrics(tracer, setup_spans, timing, ref_s)
        per = timing["certified"]
        for label in sorted(tracer.self_s, key=tracer.self_s.get,
                            reverse=True):
            print(f"  self {label:45s} {tracer.self_s[label] / per:10.6f} s "
                  f"per dataset, {tracer.calls[label] / per:8.2f} calls")
    if absent:
        print("absent (no such function to wrap): " + ", ".join(absent))
    result = {
        "correct": not problems,
        "attempted": sum(a.attempted for a in attempts),
        "failed": sum(a.failed for a in attempts),
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not problems else 1


def main(argv=None):
    args = parse_args(argv)
    t0 = time.perf_counter()
    sys.path.insert(0, SRC)
    try:
        import janglab
    except ImportError as exc:
        print(f"perfbench: cannot import janglab from {SRC}: {exc}",
              file=sys.stderr)
        return 2
    if not os.path.abspath(janglab.__file__).startswith(SRC + os.sep):
        print(f"perfbench: janglab came from {janglab.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import workloads  # noqa: F401  (its janglab imports count as set-up)
    import_s = time.perf_counter() - t0

    work_dir = os.path.join(WORK, f"{args.workload}-{os.getpid()}")
    os.makedirs(work_dir)
    try:
        return run(args, import_s, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            os.rmdir(WORK)
        except OSError:
            pass    # another run still works there


if __name__ == "__main__":
    sys.exit(main())
