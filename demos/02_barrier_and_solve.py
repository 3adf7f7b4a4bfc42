"""Barrier search, capillary parameters, and the exhaustion solve.

Second stage: find the inner radius r0 making the radial supersolution
barrier work, derive the capillary parameters from the DEC margin, then
solve the regularized graph equation on growing truncated domains and
extract the limit solution.
"""

from janglab import (BarrierProfile, exhaustion_solve, estimate_audits,
                     find_r0, make_dataset, ode_residual_audit,
                     select_capillary_config)
from janglab.pipeline import default_grid

grid = default_grid()
data = make_dataset("perturbed-dec", n=4, params={"m": 1.0, "amplitude": 0.05},
                    grid=grid, seed=7)

r0 = find_r0(data, grid, [1.0, 2.0, 4.0, 8.0])
bp = BarrierProfile(r0=r0, n=data.n)
print(f"inner radius r0 = {r0}")
print(f"barrier ODE residual (closed forms vs the defining ODE): "
      f"{ode_residual_audit(bp, bp.sample_radii()):.2e}")

config = select_capillary_config(data, r0, grid)
print(f"capillary parameters: kappa0 = {config.kappa0:.3e}, "
      f"kappa1 = {config.kappa1:.3e}, tau = {config.tau:.3e}")
print(f"shielding collar width s1 + 2 s0 = {config.collar_width_total:.3e} "
      f"(the collar constant forces s1 ~ 1/Q at the exterior edge, so the "
      f"collar swallows the grid and the shielded region has empty boundary)")

schedule = [64.0 * r0, 128.0 * r0, 256.0 * r0]
limit = exhaustion_solve(data, config, schedule, grid)
print("exhaustion trace:")
for e in limit.trace:
    gap = "-" if e["cauchy_gap"] is None else f"{e['cauchy_gap']:.3e}"
    print(f"  r_j = {e['r_j']:7.1f}  residual = {e['residual_norm']:.2e}  "
          f"sup|w| = {e['sup_w']:.4f}  gap = {gap}")
print(f"extrapolated remaining error: "
      f"{limit.trace[-1].get('extrapolated_error'):.2e}")

report = estimate_audits(data, config, limit, bp)
print(f"a-priori estimate audits passed: {report['passed']}")
for name, entry in report["entries"].items():
    print(f"  {name}: {entry['passed']}")
