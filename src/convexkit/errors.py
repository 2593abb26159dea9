"""Exception types shared across the toolkit."""


class ConvexKitError(Exception):
    """Base class for all toolkit-specific failures."""


class DimensionMismatch(ConvexKitError):
    """Operands disagree on vector or matrix dimensions."""


class InfeasibleFiber(ConvexKitError):
    """The affine system has no solution within tolerance."""


class DomainViolation(ConvexKitError):
    """A query point or direction lies outside the subspace it must lie in, or a direction is zero."""


class UnboundedBelow(ConvexKitError):
    """Inner minimization hit the safety box, so attainment is not certified."""


class SingularKKT(ConvexKitError):
    """Quadratic objective is not positive definite on the constraint null space."""


class InfeasibleDomain(ConvexKitError):
    """Polyhedral domain contains no feasible point."""


class FiberTooLarge(ConvexKitError):
    """Brute-force fiber enumeration exceeds the dimension or grid budget."""


class UnsupportedObjective(ConvexKitError):
    """Objective mixes families that no available inner solver covers."""


class LPInfeasible(ConvexKitError):
    """Linear program has no feasible point."""


class SubdifferentialTooLarge(ConvexKitError):
    """Materializing a Minkowski-sum subdifferential exceeds the generator budget."""


class SolverFailure(ConvexKitError):
    """A finite solver or sampler ran out of its step budget before it succeeded."""
