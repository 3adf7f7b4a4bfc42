"""The one pass rule of the nodewise audits, and a tamper matrix over it.

The matrix takes the default n = 4 run (seed 7, N = 2048 on [0, 512],
r0 = 1) and puts one fault at one node, which hypothesis chooses, in one
region: the core r < 4 r0, the collar 4 r0 <= r <= 8 r0 or the tail
r > r_max / 2.  A fault is a NaN, or a shift just past the tolerance the
checker states; a density, Q or Q_hat, also gets a flip of its sign.  Each
checker must fail and name that node.
"""

import copy
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import janglab.jang_solver
from janglab.capillary import check_capillary_config
from janglab.geometry import RadialFrame, constraint_fields
from janglab.jang_metric import (CONSEQUENCE_TOL, _consequence_verdict,
                                 build_shielding, consequence_audit,
                                 shielding_audit)
from janglab.jang_solver import (estimate_audits, exhaustion_solve,
                                 gradient_ball_audit)
from janglab.verdicts import Verdict, nodewise

R = np.arange(4.0)


def test_the_rule_is_margin_at_least_minus_tol_or_above_it_when_strict():
    assert nodewise([0.0, 1.0, 2.0, 3.0], R).passed
    assert nodewise([0.0, 1.0, 2.0, 3.0], R, strict=True) == Verdict(
        False, {"node_radius": 0.0})
    assert nodewise([1.0, -1e-9, 1.0, 1.0], R, 1e-8).passed
    assert not nodewise([1.0, -1e-8, 1.0, 1.0], R, 1e-8, strict=True).passed
    # one tolerance per node
    tol = np.array([0.0, 0.0, 1.0, 0.0])
    assert nodewise([0.0, 0.0, -1.0, 0.0], R, tol).passed
    assert nodewise([0.0, 0.0, 0.0, -1.0], R, tol).first_violation == {
        "node_radius": 3.0}
    assert nodewise(np.empty(0), np.empty(0), strict=True).passed


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_a_margin_that_is_not_finite_fails_unless_excluded(bad):
    margin = [1.0, 2.0, bad, 1.0]
    got = nodewise(margin, R, np.inf)
    assert got == Verdict(False, {"node_radius": 2.0})
    assert nodewise(margin, R, np.inf, exclude=[2]).passed
    assert not nodewise(margin, R, np.inf, exclude=[0]).passed


def test_the_first_failing_node_shows_the_values_asked_for():
    x = np.array([5.0, 6.0, 7.0, 8.0])
    got = nodewise([1.0, -1.0, -2.0, np.nan], R, show={"x": x, "twice": 2 * x})
    assert got.first_violation == {"node_radius": 1.0, "x": 6.0, "twice": 12.0}


def test_two_inequalities_fail_at_the_first_failing_node_of_either():
    at1 = nodewise([1.0, -1.0, 1.0, 1.0], R)
    at2 = nodewise([1.0, 1.0, -1.0, -1.0], R)
    ok = nodewise(R, R)
    assert (at1 & at2) == (at2 & at1) == at1
    assert (ok & at2) == (at2 & ok) == at2
    assert (ok & ok).passed


# ---------------------------------------------------------------------------
# tamper matrix
# ---------------------------------------------------------------------------

REGIONS = {
    "core": lambda r, r0, r_max: r < 4.0 * r0,
    "collar": lambda r, r0, r_max: (r >= 4.0 * r0) & (r <= 8.0 * r0),
    "tail": lambda r, r0, r_max: r > 0.5 * r_max,
}


@pytest.fixture(scope="module")
def run(dec_data, base_grid, cap_config, jang_limit, graph_geo, barrier):
    """The default run's inputs to each checker."""
    r = base_grid.nodes
    r0 = cap_config.r0
    frame = RadialFrame.on(dec_data, base_grid)
    lhs = (constraint_fields(dec_data, base_grid).margin
           - cap_config.kappa0 ** 2 * cap_config.dzeta_norm_sq(dec_data,
                                                                base_grid)
           - cap_config.kappa1 * cap_config.zeta(r) ** 2 * 4 * frame.q_norm)
    # the envelopes hold on (2 r0, r_j]: a limit whose last radius is r_max
    # reaches the tail
    far = exhaustion_solve(dec_data, cap_config, [128.0, 256.0, 512.0],
                           base_grid)
    ball = janglab.jang_solver._ball_supremum_data(
        dec_data, cap_config, jang_limit.profile(), base_grid, 4.0 * r0,
        4.0 * r0)
    return {"data": dec_data, "grid": base_grid, "r": r, "config": cap_config,
            "lhs": lhs, "far": far, "barrier": barrier, "limit": jang_limit,
            "ball": (r >= ball["r_lo"]) & (r <= ball["r_hi"]),
            "margin": consequence_audit(dec_data, cap_config, graph_geo),
            "shielding": build_shielding(dec_data, cap_config, graph_geo)}


def capillary_q(run, i, fault):
    """The capillary checker on Q; the shift puts Q[i] above the margin
    less the kappa terms, whose tolerance is 0, and the flip below 0."""
    cfg = copy.copy(run["config"])
    q = cfg.Q = cfg.Q.copy()
    q[i] = {"nan": np.nan, "shift": run["lhs"][i] * (1.0 + 1e-9),
            "flip": -q[i]}[fault]
    problems = check_capillary_config(cfg, run["data"], run["grid"])
    if fault == "flip":
        radius = float(run["r"][i])
        assert f"Q must be strictly positive (first at r = {radius!r})" \
            in problems
    return [float(x) for p in problems
            for x in re.findall(r"first at r = ([^)]+)\)", p)]


def envelopes(run, i, fault):
    """The estimate envelopes on u; the shift puts u[i] 2 tol above the
    decay envelope 2 r0^{n-2} r^{3-n}, tol = 1e-8 max(1, sup |u|)."""
    far = copy.copy(run["far"])
    far.u = far.u.copy()
    tol = 1e-8 * max(1.0, float(np.max(np.abs(far.u))))
    far.u[i] = np.nan if fault == "nan" else 2.0 / run["r"][i] + 2.0 * tol
    report = estimate_audits(run["data"], run["config"], far, run["barrier"])
    entries = [report["entries"][name]
               for name in ("barrier_envelope", "decay_envelope")]
    assert report["passed"] is False
    return [e["first_violation"]["node_radius"] for e in entries
            if not e["passed"]]


def ball_ricci(run, i, fault):
    """The gradient-ball audit on the Ricci values of the ball, which must
    be finite: the faults are a NaN and an infinity."""
    ricci = janglab.jang_solver.ricci_eigenvalues
    node = run["r"][i]

    def holed(data, grid):
        out = tuple(v.copy() for v in ricci(data, grid))
        out[0][grid.nodes == node] = np.nan if fault == "nan" else -np.inf
        return out
    with mock.patch.object(janglab.jang_solver, "ricci_eigenvalues", holed):
        report = gradient_ball_audit(run["data"], run["config"],
                                     run["limit"].profile())
    assert report["passed"] is False
    return [report["first_violation"]["node_radius"]]


def consequence(run, i, fault):
    """The consequence margin; the shift puts it at -2 tol."""
    margin = run["margin"].copy()
    tol = CONSEQUENCE_TOL * max(1.0, float(np.max(np.abs(margin))))
    margin[i] = np.nan if fault == "nan" else -2.0 * tol
    verdict = _consequence_verdict(margin, run["grid"])
    assert not verdict.passed
    return [verdict.first_violation["node_radius"]]


def shielding_q_hat(run, i, fault):
    """The shielding audit on Q_hat; the shift raises Q_hat[i] by four
    times the reduced-density tolerance 1e-6 max(1, |x|, max |Q_hat|),
    x = 2 Q_hat off E0, which is also past the 1e-14 of Q_hat = Q/2 on it.
    The flip makes Q_hat[i] negative, which bullet 4 refuses on E."""
    sd = copy.copy(run["shielding"])
    q_hat = sd.Q_hat = sd.Q_hat.copy()
    scale = max(1.0, 2.0 * abs(q_hat[i]), float(np.max(np.abs(q_hat))))
    q_hat[i] = {"nan": np.nan, "shift": q_hat[i] + 4e-6 * scale,
                "flip": -q_hat[i]}[fault]
    report = shielding_audit(sd, run["config"], run["grid"])
    assert report["passed"] is False
    if fault == "flip":
        assert report["bullets"]["signs_on_E"]["first_violation"] == {
            "node_radius": run["r"][i]}
    return [b["first_violation"]["node_radius"]
            for b in report["bullets"].values()
            if not b["passed"] and b.get("first_violation")]


def every_node(run, fault):
    return np.ones_like(run["r"], bool)


def q_nodes(run, fault):
    """Every node, but for a flip not the first of the outer third: its Q
    anchors the tail ratio, so its flip fails the tail bound at the nodes
    beyond it."""
    nodes = every_node(run, fault)
    if fault == "flip":
        nodes[np.argmax(run["grid"].outer_third_mask())] = False
    return nodes


# each checker with the nodes it decides under each fault; the gradient
# ball holds no tail node, and a finite shift of a Ricci value only moves A
CHECKERS = {
    capillary_q: (q_nodes, ("nan", "shift", "flip")),
    envelopes: (lambda run, fault: run["r"] > 2.0 * run["config"].r0,
                ("nan", "shift")),
    ball_ricci: (lambda run, fault: run["ball"], ("nan", "inf")),
    consequence: (every_node, ("nan", "shift")),
    shielding_q_hat: (every_node, ("nan", "shift", "flip")),
}
CASES = [(checker, region, fault)
         for checker, (_, faults) in CHECKERS.items()
         for region in REGIONS for fault in faults
         if not (checker is ball_ricci and region == "tail")]


@pytest.mark.parametrize(
    "checker, region, fault", CASES,
    ids=[f"{c.__name__}-{reg}-{f}" for c, reg, f in CASES])
@settings(max_examples=4, deadline=None, derandomize=True)
@given(draw=st.data())
def test_a_fault_fails_its_checker_at_its_node(run, checker, region, fault,
                                               draw):
    r = run["r"]
    inside = REGIONS[region](r, run["config"].r0, run["grid"].r_max)
    nodes = np.flatnonzero(CHECKERS[checker][0](run, fault) & inside)
    i = draw.draw(st.sampled_from(nodes.tolist()), label="node")
    named = checker(run, i, fault)
    assert named, "the checker passed or named no node"
    assert all(REGIONS[region](x, run["config"].r0, run["grid"].r_max)
               for x in named)
    assert set(named) == {r[i]}


def test_a_shift_at_the_edge_of_the_exterior_region_fails(run):
    """The node at 8 r0 has collar depth 0 but lies outside E0 = {r > 8 r0}:
    bullet 3 holds its Q_hat to Q/2 on the closure of E0."""
    [i] = np.flatnonzero(run["r"] == 8.0 * run["config"].r0)
    assert run["shielding"].d_profile[i] == 0.0
    assert shielding_q_hat(run, i, "shift") == [run["r"][i]]
