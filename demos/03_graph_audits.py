"""Graph geometry, the pointwise curvature identity, and positivity audits.

Third stage: put the limit solution's graph metric together, verify the
pointwise identity that converts the constraint quantities into an
effectively positive curvature, and run the consequence, shielding, and
stability audits that certify positivity of the mass parameter.
"""

import numpy as np

from janglab import (build_graph_geometry, build_shielding, consequence_audit,
                     exhaustion_solve, find_r0, fit_alpha, make_dataset,
                     random_test_functions, schoen_yau_audit,
                     select_capillary_config, shielding_audit,
                     stability_audit)
from janglab.pipeline import default_grid

grid = default_grid()
data = make_dataset("perturbed-dec", n=4, params={"m": 1.0, "amplitude": 0.05},
                    grid=grid, seed=7)
r0 = find_r0(data, grid, [1.0, 2.0, 4.0, 8.0])
config = select_capillary_config(data, r0, grid)
limit = exhaustion_solve(data, config,
                         [64.0 * r0, 128.0 * r0, 256.0 * r0], grid)
geo = build_graph_geometry(data, config, limit, grid)

identity = schoen_yau_audit(data, config, geo)
print(f"pointwise identity: max relative error = "
      f"{identity['max_rel_err']:.2e}, refinement order = "
      f"{identity['order']:.2f}")

margin = consequence_audit(data, config, geo)
print(f"effective-positivity margin: min = {np.nanmin(margin):.3e} "
      f"(nonnegative certifies the lower bound)")

sd = build_shielding(data, config, geo)
report = shielding_audit(sd, config, grid)
print(f"shielding audit: six bullets = {report['six']} "
      f"(boundary empty: {sd.boundary_empty})")

fns = random_test_functions(grid, 20, seed=7, plateau_radius=0.6 * grid.r_max)
stab = stability_audit(data, config, geo, fns)
print(f"stability quadratic form: {stab['n_tested']} test functions, "
      f"min relative value = {stab['min_relative']:.3f} (nonnegative = stable)")

alpha, _ = fit_alpha(data, grid)
alpha_graph, _ = fit_alpha(geo, grid)
print(f"mass parameter: base alpha = {alpha:.6f}, "
      f"graph alpha = {alpha_graph:.6f}  -> positive mass")
