"""Correctness checks made apart from the program.

Each check re-derives what a certification must satisfy from its inputs and
its written outputs, with formulas of the benchmark's own, and returns a list
of problems (empty when the output is correct).  None of them calls janglab:
the barrier is the closed form through the regularized incomplete beta
function, not the program's quadrature, and artifact hashes come from
hashlib over the bytes on disk.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil

import numpy as np
from scipy.special import beta, betainc

# alpha of the regularized conformal base agrees with 2m/(n-2) to 2e-5..1e-4
# relative on every certified dataset; 1e-3 leaves room without hiding a
# wrong fit (a perturbed alpha of 1e-2 must be rejected).
ALPHA_RTOL = 1e-3


def conformal_alpha(m: float, n: int) -> float:
    """Mass parameter of the conformal base (1 + m r^{2-n}/2)^{4/(n-2)}."""
    return 2.0 * m / (n - 2)


def barrier_closed_form(r, r0: float, n: int) -> np.ndarray:
    """b(r) = r0 * int_{r/r0}^inf (t^p - 1)^{-1/2} dt with p = 2n - 4.

    The substitution x = t^{-p} turns the integral into an incomplete beta
    function: b = (r0/p) B(1/2 - 1/p, 1/2) I_x(1/2 - 1/p, 1/2) with
    x = (r/r0)^{-p}.
    """
    p = 2 * n - 4
    a = 0.5 - 1.0 / p
    x = (np.asarray(r, dtype=float) / r0) ** (-p)
    return (r0 / p) * beta(a, 0.5) * betainc(a, 0.5, x)


def check_alpha(alpha, m: float, n: int) -> list[str]:
    want = conformal_alpha(m, n)
    if alpha is None or not np.isfinite(alpha):
        return [f"alpha {alpha!r} is not a number"]
    rel = abs(alpha - want) / want
    if rel > ALPHA_RTOL:
        return [f"alpha {alpha:.9g} differs from 2m/(n-2) = {want:.9g} "
                f"by {rel:.2e} relative (> {ALPHA_RTOL:g})"]
    return []


def check_envelopes(r, u, r0: float, r_out: float, n: int) -> list[str]:
    """|u| under the barrier envelope on (r0, r_out] and the decay envelope
    2 r0^{n-2} r^{3-n} on (2 r0, r_out], with the solver's 1e-8 slack."""
    r = np.asarray(r, dtype=float)
    absu = np.abs(np.asarray(u, dtype=float))
    tol = 1e-8 * max(1.0, float(np.max(absu)))
    problems = []
    sel = (r > r0 * (1.0 + 1e-9)) & (r <= r_out)
    if not np.any(sel):
        return [f"no nodes in (r0, r_out] = ({r0}, {r_out}]"]
    r_last = min(r_out, float(r[sel][-1]))
    bound = barrier_closed_form(r[sel], r0, n) - barrier_closed_form(r_last, r0, n)
    bad = absu[sel] > bound + tol
    if np.any(bad):
        i = int(np.argmax(bad))
        problems.append(f"|u| = {absu[sel][i]:.6g} above the barrier envelope "
                        f"{bound[i]:.6g} at r = {r[sel][i]:.6g}")
    sel2 = (r > 2.0 * r0) & (r <= r_out)
    bound2 = 2.0 * r0 ** (n - 2) * r[sel2] ** (3 - n)
    bad2 = absu[sel2] > bound2 + tol
    if np.any(bad2):
        i = int(np.argmax(bad2))
        problems.append(f"|u| = {absu[sel2][i]:.6g} above the decay envelope "
                        f"{bound2[i]:.6g} at r = {r[sel2][i]:.6g}")
    return problems


def file_digests(out_dir: str) -> dict:
    """sha256 of every regular file in an output directory."""
    digests = {}
    for name in sorted(os.listdir(out_dir)):
        path = os.path.join(out_dir, name)
        if os.path.isfile(path):
            with open(path, "rb") as fh:
                digests[name] = hashlib.sha256(fh.read()).hexdigest()
    return digests


def check_manifest(out_dir: str) -> list[str]:
    """Every manifest entry names a written file with that size and sha256."""
    try:
        with open(os.path.join(out_dir, "manifest.json")) as fh:
            entries = json.load(fh)["files"]
    except (OSError, ValueError, KeyError) as exc:
        return [f"manifest unreadable in {out_dir}: {exc}"]
    if not entries:
        return [f"empty manifest in {out_dir}"]
    problems = []
    for entry in entries:
        path = os.path.join(out_dir, entry["file"])
        try:
            with open(path, "rb") as fh:
                data = fh.read()
        except OSError as exc:
            problems.append(f"manifest names {entry['file']}: {exc}")
            continue
        if hashlib.sha256(data).hexdigest() != entry["sha256"]:
            problems.append(f"sha256 of {entry['file']} does not match manifest")
        if len(data) != entry["bytes"]:
            problems.append(f"size of {entry['file']} does not match manifest")
    return problems


def check_batch(report: dict, count: int, seed: int) -> list[str]:
    """Every row that did not fail has green audits and alpha > 0.

    Rows with an error are failed attempts, counted by the caller; the
    batch's own tally must agree with the rows.
    """
    problems = []
    rows = report.get("rows", [])
    if [row["seed"] for row in rows] != list(range(seed, seed + count)):
        problems.append(f"batch at seed {seed}: rows do not cover "
                        f"seeds {seed}..{seed + count - 1}")
    ok = [row for row in rows if row["error"] is None]
    for row in ok:
        if not row["audits_passed"]:
            problems.append(f"dataset seed {row['seed']}: audits not green")
        elif not (row["alpha"] is not None and row["alpha"] > 0.0):
            problems.append(f"dataset seed {row['seed']}: alpha {row['alpha']}")
    if (report.get("n_positive") != len(ok)
            or report.get("passed") != (len(ok) == count)):
        problems.append(f"batch at seed {seed}: n_positive "
                        f"{report.get('n_positive')} and passed="
                        f"{report.get('passed')} disagree with {len(ok)} "
                        f"error-free rows of {count}")
    return problems


def self_test(sample: dict, scratch_dir: str) -> list[str]:
    """Feed the checks outputs that are wrong on purpose; each must be caught.

    ``sample`` holds one certified dataset's alpha, m, n, r, u, r0, r_out
    and its artifact directory, all of which pass the checks as given.
    """
    problems = []
    if check_alpha(sample["alpha"] * 1.01, sample["m"], sample["n"]) == []:
        problems.append("self-test: alpha perturbed by 1% was accepted")
    r, u = sample["r"], np.array(sample["u"], dtype=float)
    r0, r_out, n = sample["r0"], sample["r_out"], sample["n"]
    inside = np.flatnonzero((r > 2.0 * r0) & (r < r_out))
    i = int(inside[len(inside) // 2])
    raised = u.copy()
    raised[i] = 2.0 * r0 ** (n - 2) * r[i] ** (3 - n) * 1.001 + 1e-6
    if check_envelopes(r, raised, r0, r_out, n) == []:
        problems.append("self-test: u raised above the envelope was accepted")
    copy_dir = os.path.join(scratch_dir, "selftest-artifacts")
    shutil.rmtree(copy_dir, ignore_errors=True)
    shutil.copytree(sample["out_dir"], copy_dir)
    target = os.path.join(copy_dir, "mass.json")
    with open(target, "rb") as fh:
        data = bytearray(fh.read())
    data[len(data) // 2] ^= 0x01
    with open(target, "wb") as fh:
        fh.write(bytes(data))
    if check_manifest(copy_dir) == []:
        problems.append("self-test: an artifact with a flipped byte was accepted")
    shutil.rmtree(copy_dir, ignore_errors=True)
    return problems


def self_test_batch(report: dict, count: int, seed: int) -> list[str]:
    """A batch row with a negated alpha or red audits must be caught."""
    problems = []
    for field, value in (("alpha", -abs(report["rows"][0]["alpha"])),
                         ("audits_passed", False)):
        bad = dict(report, rows=[dict(row) for row in report["rows"]])
        bad["rows"][0][field] = value
        if check_batch(bad, count, seed) == []:
            problems.append(f"self-test: batch row with {field}={value!r} "
                            "was accepted")
    return problems
