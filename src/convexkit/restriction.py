"""Restriction of convex functions to affine solution sets.

For a convex f on R^n and the solution set {y : S y = zeta}, the restriction
g(w) = f(anchor + B^T w) is parametrized by coordinates w over an orthonormal
kernel basis B of S.  Its subdifferential is the orthogonal projection of the
ambient subdifferential onto ker(S): feasible directions inside the solution
set are exactly the kernel directions, so the projection must land in ker(S).
(Projecting onto the row space instead is the natural-looking mistake; it is
dimensionally wrong for the restriction and the checks below catch it.)

The projection identity is verified per direction through one-dimensional
slices: for v in ker(S), the interval of t -> f(x + t v) at 0 must equal
[-support(P, -v), support(P, v)] where P is the projected subdifferential.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import functions
from .errors import DimensionMismatch
from .functions import ACTIVE_TOL, Polytope, subdifferential
from .instances import function_to_json, matrix_to_json, vector_to_json
from .linalg import Subspace, anchor_map, as_matrix, as_vector, complement
# unused, but bound here so that bench/tracing.py can wrap these binding sites
from .linalg import kernel, solve_anchor  # noqa: F401
from .report import CheckResult, TrialResult

SUPPORT_TOL = 1e-7
CONVEXITY_SLACK = 1e-9
FIBER_RESIDUAL_TOL = 1e-8
MIDPOINT_PAIRS = 20
PAIR_SCALE = 2.0


@dataclass(frozen=True)
class AffineFiber:
    """The affine set {y : matrix @ y = target} with a min-norm anchor point."""

    matrix: np.ndarray
    target: np.ndarray
    anchor: np.ndarray
    kernel_basis: Subspace

    def __post_init__(self):
        M = as_matrix(self.matrix)
        t = as_vector(self.target, M.shape[0])
        a = as_vector(self.anchor, M.shape[1])
        if self.kernel_basis.ambient_dim != M.shape[1]:
            raise DimensionMismatch("kernel basis ambient dimension disagrees with the map")
        if float(np.linalg.norm(M @ a - t)) > FIBER_RESIDUAL_TOL:
            raise ValueError("anchor does not satisfy the affine system within 1e-8")
        if self.kernel_basis.dim:
            if float(np.max(np.abs(self.kernel_basis.basis @ a))) > FIBER_RESIDUAL_TOL:
                raise ValueError("anchor has a kernel component above 1e-8")
        object.__setattr__(self, "matrix", M)
        object.__setattr__(self, "target", t)
        object.__setattr__(self, "anchor", a)

    @property
    def ambient_dim(self) -> int:
        return self.matrix.shape[1]

    @property
    def fiber_dim(self) -> int:
        return self.kernel_basis.dim


def make_fiber(S, zeta) -> AffineFiber:
    """Build the fiber of ``S`` over ``zeta``; raises InfeasibleFiber when empty."""
    amap = anchor_map(S)
    anchor = amap.solve(zeta, FIBER_RESIDUAL_TOL)
    return AffineFiber(amap.S, as_vector(zeta, amap.S.shape[0]), anchor, complement(amap.rows))


def embed(fiber: AffineFiber, w) -> np.ndarray:
    """Map fiber coordinates w to the ambient point anchor + B^T w."""
    w = as_vector(w, fiber.fiber_dim)
    if fiber.fiber_dim == 0:
        return fiber.anchor.copy()
    return fiber.anchor + fiber.kernel_basis.basis.T @ w


@dataclass(frozen=True)
class RestrictedFunction:
    """A convex function composed with a fiber parametrization."""

    f: functions.ConvexFunction
    fiber: AffineFiber

    def __post_init__(self):
        if self.f.dim != self.fiber.ambient_dim:
            raise DimensionMismatch(
                f"function lives on R^{self.f.dim}, fiber on R^{self.fiber.ambient_dim}"
            )


def restrict(f, S, zeta) -> RestrictedFunction:
    return RestrictedFunction(f, make_fiber(S, zeta))


def restrict_evaluate(g: RestrictedFunction, w) -> float:
    return functions.evaluate(g.f, embed(g.fiber, w))


def restricted_subdifferential(g: RestrictedFunction, w, active_tol: float = ACTIVE_TOL) -> Polytope:
    """Subdifferential of the restriction: ambient generators projected onto ker(S).

    Output generators are ambient vectors lying inside the kernel subspace.
    A zero-dimensional fiber yields the singleton origin.
    """
    x = embed(g.fiber, w)
    P = subdifferential(g.f, x, active_tol)
    B = g.fiber.kernel_basis.basis
    if B.shape[0] == 0:
        return Polytope(g.fiber.ambient_dim, np.zeros((1, g.fiber.ambient_dim)))
    projected = (P.generators @ B.T) @ B
    return Polytope(g.fiber.ambient_dim, projected)


def support_function(P: Polytope, v) -> float:
    """h_P(v) = max over generators of the inner product with v."""
    v = as_vector(v, P.ambient_dim)
    return float(np.max(P.generators @ v))


def lemma1_check(
    f,
    S,
    zeta,
    w,
    directions,
    *,
    seed: int = 0,
    support_tol: float = SUPPORT_TOL,
    active_tol: float = ACTIVE_TOL,
) -> TrialResult:
    """One verification trial for the restricted-subdifferential identity.

    Per direction v (must lie in ker S): the one-dimensional subdifferential
    interval of the ambient f at embed(w) along v has to match
    [-support(P, -v), support(P, v)] for the projected polytope P within
    ``support_tol``.  Additionally the restriction must be midpoint convex on
    MIDPOINT_PAIRS seeded coordinate pairs up to CONVEXITY_SLACK.
    """
    g = restrict(f, S, zeta)
    fiber = g.fiber
    w = as_vector(w, fiber.fiber_dim)
    x = embed(fiber, w)
    P = restricted_subdifferential(g, w, active_tol)

    instance = {
        "f": function_to_json(f),
        "S": matrix_to_json(fiber.matrix),
        "zeta": vector_to_json(fiber.target),
        "w": vector_to_json(w),
        "directions": [vector_to_json(v) for v in directions],
        "seed": int(seed),
        "suite": "lemma1",
    }
    checks: list[CheckResult] = []

    for i, v in enumerate(directions):
        v = as_vector(v, fiber.ambient_dim)
        kernel_residual = float(np.linalg.norm(v - fiber.kernel_basis.basis.T @ (fiber.kernel_basis.basis @ v))) if fiber.fiber_dim else float(np.linalg.norm(v))
        if kernel_residual > 1e-9 * (1.0 + float(np.linalg.norm(v))):
            raise ValueError(f"direction {i} does not lie in the kernel of S")
        lo, hi = functions.one_dim_subdifferential(f, x, v, active_tol)
        want_hi = support_function(P, v)
        want_lo = -support_function(P, -v)
        gap = max(abs(lo - want_lo), abs(hi - want_hi))
        checks.append(
            CheckResult(
                name=f"slice_interval_{i}",
                passed=gap <= support_tol,
                gap=gap,
                witness={"direction": vector_to_json(v), "interval": [lo, hi], "projected": [want_lo, want_hi]},
            )
        )

    rng = np.random.default_rng(np.random.SeedSequence(entropy=int(seed), spawn_key=(11,)))
    worst = None
    for _ in range(MIDPOINT_PAIRS):
        w1 = rng.uniform(-PAIR_SCALE, PAIR_SCALE, fiber.fiber_dim)
        w2 = rng.uniform(-PAIR_SCALE, PAIR_SCALE, fiber.fiber_dim)
        gap = 0.5 * (restrict_evaluate(g, w1) + restrict_evaluate(g, w2)) - restrict_evaluate(
            g, 0.5 * (w1 + w2)
        )
        if worst is None or gap < worst:
            worst, worst_pair = gap, (w1, w2)
    checks.append(
        CheckResult(
            name="restricted_midpoint_convexity",
            passed=worst >= -CONVEXITY_SLACK,
            gap=worst,
            witness={"w1": vector_to_json(worst_pair[0]), "w2": vector_to_json(worst_pair[1])},
        )
    )
    return TrialResult(trial_id=0, instance=instance, checks=checks).settle()
