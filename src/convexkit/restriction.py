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
For a sum, P stays factored: each summand is projected on its own, and the
supports add summand by summand, so no check forms the Minkowski product.
A trial's directions are checked as one C-ordered stack with one active-set
pass, each row bit for bit as one direction at a time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import functions
from .errors import DimensionMismatch, DomainViolation
from .functions import ACTIVE_TOL, Polytope, subdifferential, support_function
from .instances import function_to_json
from .linalg import Subspace, anchor_map, as_rows, as_vector, complement, project, row_norms, rows_dot
# unused, but bound here so that bench/tracing.py can wrap these binding sites
from .linalg import kernel, solve_anchor  # noqa: F401
from .report import CheckResult, TrialResult

SUPPORT_TOL = 1e-7
CONVEXITY_SLACK = 1e-9
MIDPOINT_PAIRS = 20
PAIR_SCALE = 2.0


@dataclass(frozen=True)
class AffineFiber:
    """The affine set {y : matrix @ y = target} with a min-norm anchor point."""

    matrix: np.ndarray
    target: np.ndarray
    anchor: np.ndarray
    kernel_basis: Subspace

    @property
    def ambient_dim(self) -> int:
        return self.matrix.shape[1]

    @property
    def fiber_dim(self) -> int:
        return self.kernel_basis.dim


def make_fiber(S, zeta) -> AffineFiber:
    """Build the fiber of ``S`` over ``zeta``; raises InfeasibleFiber when empty.

    The only constructor of AffineFiber: the anchor is the minimum-norm
    solution, so it satisfies the system within AnchorMap.solve's residual
    bound and lies in the row space, orthogonal to the kernel basis.
    """
    amap = anchor_map(S)
    zeta = as_vector(zeta, amap.S.shape[0])
    return AffineFiber(amap.S, zeta, amap.solve(zeta[None])[0], complement(amap.rows))


def embed(fiber: AffineFiber, w) -> np.ndarray:
    """Map fiber coordinates w, or each row of a (k, fiber_dim) stack, to the ambient point anchor + B^T w.

    Each row equals its own embedding bit for bit; a zero-dimensional fiber
    gives copies of the anchor, signed zeros included.
    """
    W, B = as_rows(w, fiber.fiber_dim), fiber.kernel_basis.basis
    X = fiber.anchor + rows_dot(W, B.T) if len(B) else np.tile(fiber.anchor, (len(W), 1))
    return X if np.ndim(w) == 2 else X[0]


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
    """Subdifferential of the restriction: each summand's ambient generators projected onto ker(S).

    Projection is linear, so the projected Minkowski sum is the sum of the
    projected summands.  Output generators are ambient vectors lying inside
    the kernel subspace.  A zero-dimensional fiber yields the singleton
    origin, without building the ambient subdifferential it would discard.
    """
    x = embed(g.fiber, w)
    B = g.fiber.kernel_basis.basis
    if B.shape[0] == 0:
        return Polytope((np.zeros((1, g.fiber.ambient_dim)),))
    return Polytope(tuple((s @ B.T) @ B for s in subdifferential(g.f, x, active_tol).summands))


def lemma1_check(
    g: RestrictedFunction,
    w,
    directions,
    *,
    seed: int = 0,
    support_tol: float = SUPPORT_TOL,
    active_tol: float = ACTIVE_TOL,
) -> TrialResult:
    """One verification trial for the restricted-subdifferential identity.

    Per direction v (nonzero and in ker S, else DomainViolation; errors come
    in direction order): the one-dimensional subdifferential interval of the
    ambient f at embed(w) along v has to match [-support(P, -v), support(P, v)]
    for the projected polytope P within ``support_tol``.  Additionally the
    restriction must be midpoint convex on MIDPOINT_PAIRS seeded coordinate
    pairs up to CONVEXITY_SLACK, evaluated in one batch.
    """
    f, fiber = g.f, g.fiber
    w = as_vector(w, fiber.fiber_dim)
    x = embed(fiber, w)
    P = restricted_subdifferential(g, w, active_tol)

    # each direction is coerced once; one of the wrong length is raised after the domain errors of those before it
    rows = [as_vector(v) for v in directions]
    good = next((i for i, v in enumerate(rows) if len(v) != fiber.ambient_dim), len(rows))
    V = np.array(rows[:good]).reshape(good, fiber.ambient_dim)
    norms = row_norms(V)
    off = row_norms(V - project(V, fiber.kernel_basis)) > 1e-9 * (1.0 + norms)
    bad = np.flatnonzero(off | (norms == 0.0))
    if bad.size:
        raise DomainViolation(f"direction {bad[0]} " + ("does not lie in the kernel of S" if off[bad[0]] else "is zero"))
    if good < len(rows):
        raise DimensionMismatch(f"expected dimension {fiber.ambient_dim}, got {len(rows[good])}")
    instance = {
        "f": function_to_json(f),
        "S": fiber.matrix.tolist(),
        "zeta": fiber.target.tolist(),
        "w": w.tolist(),
        "directions": V.tolist(),
        "seed": int(seed),
        "suite": "lemma1",
    }
    checks: list[CheckResult] = []
    if len(V):  # a zero-dimensional fiber has no direction to check and needs no active set
        h = support_function(P, np.concatenate([-V, V]))
        bounds = (*functions.one_dim_subdifferential(f, x, V, active_tol), -h[: len(V)], h[len(V) :])
        for i, (v, lo, hi, want_lo, want_hi) in enumerate(zip(*(b.tolist() for b in (V, *bounds)))):
            gap = max(abs(lo - want_lo), abs(hi - want_hi))
            checks.append(
                CheckResult(
                    name=f"slice_interval_{i}",
                    passed=gap <= support_tol,
                    gap=gap,
                    witness={"direction": v, "interval": [lo, hi], "projected": [want_lo, want_hi]},
                )
            )

    rng = np.random.default_rng(np.random.SeedSequence(entropy=int(seed), spawn_key=(11,)))
    W = rng.uniform(-PAIR_SCALE, PAIR_SCALE, (MIDPOINT_PAIRS, 2, fiber.fiber_dim))
    W1, W2 = W[:, 0], W[:, 1]
    v1, v2, vm = functions.evaluate_many(f, embed(fiber, np.concatenate([W1, W2, 0.5 * (W1 + W2)]))).reshape(3, -1)
    gaps = 0.5 * (v1 + v2) - vm
    worst = int(np.argmin(gaps))
    checks.append(
        CheckResult(
            name="restricted_midpoint_convexity",
            passed=bool(gaps[worst] >= -CONVEXITY_SLACK),
            gap=float(gaps[worst]),
            witness={"w1": W1[worst].tolist(), "w2": W2[worst].tolist()},
        )
    )
    return TrialResult(instance, checks)
