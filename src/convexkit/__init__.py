"""Exact convex-analysis toolkit for piecewise-linear and quadratic functions.

Provides exact subdifferential calculus, restriction of convex functions to
affine solution sets, marginal functions under partial minimization, and
argmin-set geometry, together with a seeded verification harness and CLI.
"""

from .argmin import (
    ArgminCertificate,
    PolyhedralDomain,
    argmin_membership,
    box_domain,
    lemma3_check,
    minimize_over,
)
from .errors import (
    ConvexKitError,
    DimensionMismatch,
    DomainViolation,
    FiberTooLarge,
    InfeasibleDomain,
    InfeasibleFiber,
    SingularKKT,
    SolverFailure,
    SubdifferentialTooLarge,
    UnboundedBelow,
    UnsupportedObjective,
)
from .functions import (
    MaxAffine,
    Polytope,
    Quadratic,
    SumFunction,
    evaluate,
    max_affine,
    one_dim_subdifferential,
    quadratic,
    subdifferential,
    support_function,
)
from .harness import RunConfig, brute_force_min_over_fiber, run_suite
from .linalg import Subspace, kernel, project, row_space, solve_anchor
from .marginal import (
    MarginalFunction,
    MinimizationWitness,
    lemma2_check,
    marginalize,
    marginal_value,
)
from .report import SuiteReport, report_to_csv, report_to_json
from .restriction import (
    RestrictedFunction,
    lemma1_check,
    make_fiber,
    restrict,
    restricted_subdifferential,
)

__version__ = "0.1.0"

__all__ = [
    "ArgminCertificate",
    "ConvexKitError",
    "DimensionMismatch",
    "DomainViolation",
    "FiberTooLarge",
    "InfeasibleDomain",
    "InfeasibleFiber",
    "MarginalFunction",
    "MaxAffine",
    "MinimizationWitness",
    "PolyhedralDomain",
    "Polytope",
    "Quadratic",
    "RestrictedFunction",
    "RunConfig",
    "SingularKKT",
    "SolverFailure",
    "SubdifferentialTooLarge",
    "SuiteReport",
    "Subspace",
    "SumFunction",
    "UnboundedBelow",
    "UnsupportedObjective",
    "argmin_membership",
    "box_domain",
    "brute_force_min_over_fiber",
    "evaluate",
    "kernel",
    "lemma1_check",
    "lemma2_check",
    "lemma3_check",
    "make_fiber",
    "marginalize",
    "marginal_value",
    "max_affine",
    "minimize_over",
    "one_dim_subdifferential",
    "project",
    "quadratic",
    "report_to_csv",
    "report_to_json",
    "restrict",
    "restricted_subdifferential",
    "row_space",
    "run_suite",
    "solve_anchor",
    "subdifferential",
    "support_function",
    "__version__",
]
