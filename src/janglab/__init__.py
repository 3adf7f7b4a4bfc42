"""janglab: a radial numerical laboratory for capillary-regularized Jang
solves, graph-geometry positivity audits, and mass-parameter extraction on
rotationally symmetric asymptotically flat initial data.
"""

from .barrier import (BarrierProfile, barrier_audit_passes, barrier_csv,
                      barrier_inequality_audit, default_r0_candidates,
                      eval_barrier, find_r0, graph_operator_at_barrier,
                      ode_residual, ode_residual_audit)
from .capillary import (CapillaryConfig, check_capillary_config,
                        select_capillary_config)
from .errors import JanglabError
from .geometry import (ConstraintFields, RadialInitialData, constraint_fields,
                       dataset_from_json, dataset_from_samples,
                       dq_frame_norm, geodesic_distance, make_dataset,
                       radius_at_distance, ricci_eigenvalues,
                       scalar_curvature, validate_dataset)
from .grids import RadialGrid, build_grid, geometric_stretch_for
from .jang_metric import (JangGraphGeometry, ShieldingData,
                          build_graph_geometry, build_shielding,
                          consequence_audit, divergence_balance,
                          neighborhood_audit, random_test_functions,
                          schoen_yau_audit, shielding_audit, stability_audit,
                          xi_norm_sq)
from .jang_solver import (GradientAuditSpec, JangLimit, JangState,
                          capillary_residual, continuation_solve,
                          estimate_audits, exhaustion_solve, jang_operator,
                          newton_solve)
from .mass import (DecayFit, experiment_csv, fit_alpha, fit_decay_exponent,
                   positivity_experiment)
from .pipeline import default_grid, full_pipeline, run_pipeline_on
from .profiles import AnalyticProfile, SampledProfile, constant_profile
from .report import emit_report

__version__ = "0.1.0"
