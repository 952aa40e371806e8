"""Finite-difference study of singular semilinear elliptic problems

    -Lap(u) + K(x) g(u) + |grad u|^a = lambda f(x, u),  u > 0,  u|_bdry = 0

on intervals and rectangles.  The sign of K splits the behavior: K < 0
admits a solution for every lambda; K > 0 with a non-integrable
singularity g admits none; K > 0 with integrable g has an existence
threshold in lambda.  The package provides the regularized continuation
solver, certified sub- and super-solution constructions, the discrete
comparison check, and the threshold estimators, all at desk scale.
"""

from .acceptance import run_battery
from .bifurcation import (
    LambdaStarEstimate,
    NonexistenceReport,
    SweepResult,
    estimate_lambda_star,
    lambda0_bound,
    lambda_sweep,
    nonexistence_diagnostic,
)
from .comparison import ComparisonReport, check_ordering, psi_from_spec
from .constructions import (
    Construction,
    build_subsolution_convection,
    build_subsolution_eigen,
    build_supersolution,
)
from .errors import (
    CertificateError,
    CollarError,
    ConfigError,
    ConvergenceError,
    DegenerateSolutionError,
    GridError,
    KellerOssermanError,
    ModelError,
    OrderingError,
    PositivityError,
    RegimeError,
    SelabError,
    ShapeError,
    SingularEvaluationError,
)
from .grid import (
    Field,
    Grid,
    boundary_distance,
    build_grid,
    gradient_components,
    gradient_magnitude,
    read_field_csv,
    write_field_csv,
)
from .hprofile import HBoundReport, HProfile, build_h_profile, verify_h_bound
from .mass import mass_integral, reference_mass, tail_trend
from .model import (
    Potential,
    ProblemSpec,
    ReactionTerm,
    SingularTerm,
    bundled_config_text,
    bundled_problem,
    classify_singularity,
    compute_p,
    make_problem,
    parse_config,
    problem_from_config,
)
from .solver import (
    SolveReport,
    default_schedule,
    default_shift,
    monotone_iterate,
    newton_solve,
    residual,
    solve_with_continuation,
)
from .spectral import EigenPair, HopfCollar, first_eigenpair, hopf_collar

__version__ = "0.1.0"

__all__ = [
    "CertificateError",
    "CollarError",
    "ComparisonReport",
    "ConfigError",
    "Construction",
    "ConvergenceError",
    "DegenerateSolutionError",
    "EigenPair",
    "Field",
    "Grid",
    "GridError",
    "HBoundReport",
    "HProfile",
    "HopfCollar",
    "KellerOssermanError",
    "LambdaStarEstimate",
    "ModelError",
    "NonexistenceReport",
    "OrderingError",
    "PositivityError",
    "Potential",
    "ProblemSpec",
    "ReactionTerm",
    "RegimeError",
    "SelabError",
    "ShapeError",
    "SingularEvaluationError",
    "SingularTerm",
    "SolveReport",
    "SweepResult",
    "boundary_distance",
    "build_grid",
    "build_h_profile",
    "build_subsolution_convection",
    "build_subsolution_eigen",
    "build_supersolution",
    "bundled_config_text",
    "bundled_problem",
    "check_ordering",
    "classify_singularity",
    "compute_p",
    "default_schedule",
    "default_shift",
    "estimate_lambda_star",
    "first_eigenpair",
    "gradient_components",
    "gradient_magnitude",
    "hopf_collar",
    "lambda0_bound",
    "lambda_sweep",
    "make_problem",
    "mass_integral",
    "monotone_iterate",
    "newton_solve",
    "nonexistence_diagnostic",
    "parse_config",
    "problem_from_config",
    "psi_from_spec",
    "read_field_csv",
    "reference_mass",
    "residual",
    "run_battery",
    "solve_with_continuation",
    "tail_trend",
    "verify_h_bound",
    "write_field_csv",
]
