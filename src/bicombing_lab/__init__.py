"""Geodesic bicombings on planar counterexample spaces.

The package constructs explicit geodesic selections that separate the
property classes geodesic / conical / convex / consistent / reversible /
midpoint, provides a deterministic sampling engine that verifies or
falsifies each property with counterexample witnesses, implements the
midpoint iteration that turns any conical selection into a reversible one,
and probes the rigidity phenomena that force selections to be affine.
"""

from .spaces import (DEFAULT_TOL, REGION_TAGS, SPACES, Region, contains, dist,
                     norm, sample_region_rng)
from .bicombings import (DELTA_MAX, Bicombing, fold_f, linear, linear_bicombing,
                         sigma_delta, sigma_delta_bicombing, sigma_tilde_bicombing,
                         sigma_tilde_delta, sigma_X1, sigma_X1_bicombing, tau_X1,
                         tau_X1_bicombing)
from .midpoint import (ConvergenceError, MidpointConfig, midpoint,
                       midpoint_iteration, reversibilize)
from .funcspace import (FunctionBicombing, MonotoneFn, eval_fn, from_breakpoints,
                        horizontal_bicombing, horizontal_fn_bicombing,
                        identity_fn, invert, l1_distance, random_monotone_fn,
                        sqrt_approx, sqrt_identity_interpolant,
                        vertical_bicombing, vertical_fn_bicombing)
from .verify import (CHECKERS, CONVEXITY_PAIR, EXPECTED_MATRIX,
                     MtCluster, PropertyReport, SampleConfig, builtin_bicombings,
                     check_conical, check_consistent, check_convex, check_geodesic,
                     check_local_linearity, check_midpoint_property,
                     check_reversible, consistency_defect, convexity_pair_gap_squared,
                     convexity_pair_model, delta_thresholds, matrix_deviations,
                     mt_set, run_matrix)

__version__ = "0.1.0"
