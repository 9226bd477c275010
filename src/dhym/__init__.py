"""Coupled deformed Hermitian Yang-Mills equations on flat tori.

Numerical library for the coupled phase/curvature equations reduced to the
real torus: pointwise phase and radius algebra, periodic Legendre duality,
damped-Newton solvers for the reduced one-dimensional equations and
their large/small radius limits, expansion-order studies, and the discrete
linearized operator with its self-adjointness and negativity checks.
"""

from .core_geometry import (
    ConstantCurvature2,
    Phase,
    dhym_residual_surface,
    pencil_eigenvalues,
    phase_positivity_constant,
    surface_apriori_check,
    surface_ma_check,
    torus_constant_phase,
)
from .legendre import MonotoneMap, datum_pushforward, legendre_forward
from .ode_solver import (
    ODEProblem,
    Regime,
    SolutionBundle,
    compatibility_constant,
    lift_to_2d,
    linearize,
    max_principle_verify,
    project_datum,
    reconstruct_bundle_potential,
    residual,
    solve,
)
from .radius_limits import (
    CohomologyData,
    exact_z,
    large_radius_phase_check,
    limit_convergence_study,
    scaled_coupled_problem,
    small_radius_phase_check,
)
from .spectral import PeriodicProfile

__version__ = "0.1.0"
