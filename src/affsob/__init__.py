"""Directional smoothness energies and their affine-invariant aggregation.

The package computes homogeneous semi-norms (difference and derivative
branches), per-direction energy profiles, the unimodular-invariant energies
built from them, explicit lower-bound constants, and a minimizer over
determinant-one transformations, together with verification suites that tie
each computation to the identity or inequality it realizes.
"""

from .affine_energy import EnergyResult, PsiSpec, affine_energy, jensen_gap, psi_energy
from .config import ConfigError, RunConfig, config_from_dict, parse_config
from .constants import (c1_first_approach, c1_general, c1_second_approach,
                        c_gamma, estimate_slicing_constants, random_frames)
from .family import (ridge_member, standard_family, strong_shear_members,
                     weak_grid_field)
from .fields import (AnalyticField, DimensionMismatchError, GridField,
                     NumericalFailureError, SingularTransformError,
                     SmoothnessParams)
from .quadrature import (BoxQuadrature, QuadratureBundle, RadialQuadrature,
                         RadialSpec, SphereQuadrature,
                         build_sphere_quadrature, pushforward_weight)
from .reporting import CheckResult, VerificationReport, write_plot_csv
from .seminorms import (DirectionalEnergyProfile, directional_energy,
                        directional_profile, lp_norm, seminorm,
                        slice_seminorm_crosscheck, slicing_bounds,
                        starred_seminorm, weak_quasinorm)
from .sl_opt import (DirectionalBoundReport, OptimizerOptions, OptimizerTrace,
                     UnimodularTransform, critical_residuals, descent_step,
                     directional_lower_bound_check, matrix_exp, minimize,
                     numeric_gradient, objective, polar_align,
                     random_unimodular, sl_basis)
from .suites import CheckSpec, run_suite

__version__ = "1.0.0"


def __getattr__(name):
    # the CLI loads on first use, so `python -m affsob.cli` does not find
    # affsob.cli already imported by the package
    if name == "cli_main":
        from .cli import cli_main
        return cli_main
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
