"""Marginal functions under exact partial minimization.

For f on R^d and an operator matrix S of shape (d, n), the marginal is

    h(x) = min { f(r) : S^T r = x },   defined for x in the row space of S.

The inner problem is solved exactly: an epigraph linear program for
piecewise-linear objectives (inside a large safety box; a binding box is a
premise violation and raises UnboundedBelow instead of returning a bogus
minimum), and the KKT linear system for quadratics that are positive definite
on the constraint null space.  The KKT system [[2Q, S], [S^T, 0]] depends only
on f and S, so each MarginalFunction factors it once, on its first quadratic
query, and every query after that is one small linear solve for its right-hand
side [-c, x].  Midpoint gaps of h certify its convexity, and strict convexity
is certified for positive definite quadratics.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import functions as fn
from .errors import (
    DimensionMismatch,
    DomainViolation,
    InfeasibleFiber,
    LPInfeasible,
    NotStrictlyConvex,
    SingularKKT,
    UnboundedBelow,
    UnsupportedObjective,
)
from .instances import function_to_json, matrix_to_json
from .linalg import AnchorMap, Subspace, anchor_map, as_matrix, as_vector, kernel, project, row_space
# unused, but bound here so that bench/tracing.py can wrap this binding site
from .linalg import solve_anchor  # noqa: F401
from .report import CheckResult, TrialResult
from .simplex import solve_lp

BOX_RADIUS = 1e3
DOMAIN_TOL = 1e-8
KKT_SINGULAR_TOL = 1e-10
WITNESS_FEAS_TOL = 1e-7
WITNESS_VALUE_TOL = 1e-8
CONVEXITY_SLACK = 1e-8
STRICT_GAP = 1e-8
MIN_PAIR_SEPARATION = 1e-3
SAMPLE_SCALE = 2.0


@dataclass(frozen=True)
class MarginalFunction:
    """f composed with partial minimization over the fibers of S^T."""

    f: fn.ConvexFunction
    S: np.ndarray
    domain: Subspace

    @property
    def inner_dim(self) -> int:
        return self.S.shape[0]

    @property
    def outer_dim(self) -> int:
        return self.S.shape[1]

    @cached_property
    def _kkt(self) -> tuple[float, AnchorMap | None]:
        """The KKT system of a quadratic f, factored once per marginal.

        Returns the least eigenvalue of the Hessian 2Q reduced to the fiber
        kernel ker(S^T) (inf when the fibers are points) and the anchor map of
        [[2Q, S], [S^T, 0]], or None in its place when that floor is not safely
        positive, which makes every query raise SingularKKT.
        """
        _, quad = fn.normal_form(self.f)
        d, n = self.S.shape
        A_eq = self.S.T
        K = kernel(A_eq) if n else Subspace(d, np.eye(d))
        floor = np.inf
        if K.dim:
            reduced = K.basis @ (2.0 * quad.Q) @ K.basis.T
            floor = float(np.min(np.linalg.eigvalsh(reduced)))
            if floor <= KKT_SINGULAR_TOL * (1.0 + float(np.max(np.abs(reduced)))):
                return floor, None
        top = np.hstack([2.0 * quad.Q, A_eq.T])
        bottom = np.hstack([A_eq, np.zeros((n, n))])
        return floor, anchor_map(np.vstack([top, bottom]))


def marginalize(f, S) -> MarginalFunction:
    S = as_matrix(S)
    if S.shape[0] != f.dim:
        raise DimensionMismatch(
            f"operator has {S.shape[0]} rows, function lives on R^{f.dim}"
        )
    return MarginalFunction(f, S, row_space(S))


@dataclass(frozen=True)
class MinimizationWitness:
    value: float
    argmin: np.ndarray
    status: str  # "exact-LP" or "exact-KKT"


def _check_domain(h: MarginalFunction, x) -> np.ndarray:
    x = as_vector(x, h.outer_dim)
    gap = float(np.linalg.norm(x - project(x, h.domain)))
    if gap > DOMAIN_TOL * (1.0 + float(np.linalg.norm(x))):
        raise DomainViolation(
            f"query lies {gap:.3e} outside the row space of the operator"
        )
    return x


def _lp_inner(parts, constant, A_eq, x):
    d = parts[0].dim
    cost, rows, rhs, lower, upper = fn.epigraph(d, parts, BOX_RADIUS)
    eq = np.hstack([A_eq, np.zeros((A_eq.shape[0], len(parts)))]) if A_eq.shape[0] else None
    try:
        sol = solve_lp(
            cost,
            A_ub=rows,
            b_ub=rhs,
            A_eq=eq,
            b_eq=x if eq is not None else None,
            lower=lower,
            upper=upper,
        )
    except LPInfeasible as exc:
        raise UnboundedBelow(
            f"fiber does not meet the solver box (radius {BOX_RADIUS:g}): {exc}"
        ) from exc
    r = sol.x[:d]
    if float(np.max(np.abs(r))) > BOX_RADIUS - 1e-6 * BOX_RADIUS:
        raise UnboundedBelow(
            "minimum sits on the safety box, attainment inside it is not certified"
        )
    return r, float(sol.value + constant)


def _kkt_inner(h: MarginalFunction, quad, x):
    floor, system = h._kkt
    if system is None:
        raise SingularKKT(
            f"objective is not positive definite along the fiber (floor {floor:.3e})"
        )
    rhs = np.concatenate([-quad.c, x])
    try:
        sol = system.solve(rhs, 1e-8 * (1.0 + float(np.linalg.norm(rhs))))
    except InfeasibleFiber as exc:
        raise SingularKKT(f"KKT system is inconsistent: {exc}") from exc
    r = sol[: quad.dim]
    return r, float(fn.evaluate(quad, r))


def marginal_value(h: MarginalFunction, x) -> MinimizationWitness:
    """Exact h(x) with an argmin witness.

    Raises DomainViolation outside Im(S^T), UnboundedBelow when the inner LP
    leans on the safety box, SingularKKT for quadratics that are singular along
    the fiber, and UnsupportedObjective for sums mixing a nonzero quadratic
    with piecewise-linear parts.
    """
    x = _check_domain(h, x)
    A_eq = h.S.T  # constraint S^T r = x, shape (n, d)
    parts, quad = fn.normal_form(h.f)
    if parts and quad is not None:
        if float(np.max(np.abs(quad.Q))) == 0.0 and float(np.max(np.abs(quad.c))) == 0.0:
            r, value = _lp_inner(parts, quad.r0, A_eq, x)
            return MinimizationWitness(value, r, "exact-LP")
        raise UnsupportedObjective(
            "sum mixes a nonzero quadratic with piecewise-linear parts; "
            "no exact inner solver covers that combination"
        )
    if parts:
        r, value = _lp_inner(parts, 0.0, A_eq, x)
        return MinimizationWitness(value, r, "exact-LP")
    r, value = _kkt_inner(h, quad, x)
    return MinimizationWitness(value, r, "exact-KKT")


def midpoint_convexity_gap(h: MarginalFunction, x, y) -> float:
    """(h(x) + h(y)) / 2 - h((x + y) / 2); nonnegative when h is convex."""
    x = as_vector(x, h.outer_dim)
    y = as_vector(y, h.outer_dim)
    vx = marginal_value(h, x).value
    vy = marginal_value(h, y).value
    vm = marginal_value(h, 0.5 * (x + y)).value
    return 0.5 * (vx + vy) - vm


def is_strictly_convex(f) -> bool:
    """True exactly for quadratics (or sums of them) with positive definite total."""
    parts, quad = fn.normal_form(f)
    if parts or quad is None:
        return False
    return float(np.min(np.linalg.eigvalsh(quad.Q))) > 1e-8


@dataclass(frozen=True)
class StrictnessReport:
    gaps: tuple[float, ...]
    min_gap: float
    threshold: float


def strict_convexity_certificate(h: MarginalFunction, pairs, tol: float | None = None) -> StrictnessReport:
    """Certify strictly positive midpoint gaps of h on the given point pairs.

    Pairs closer than 1e-3 are a precondition violation (ValueError).  Raises
    NotStrictlyConvex when f is not a positive definite quadratic or when some
    gap fails the threshold (default 1e-10 relative to the pair's value scale).
    """
    if not is_strictly_convex(h.f):
        raise NotStrictlyConvex(
            "strictness certification needs a positive definite quadratic objective"
        )
    gaps = []
    threshold_used = np.inf
    for x, y in pairs:
        x = as_vector(x, h.outer_dim)
        y = as_vector(y, h.outer_dim)
        if float(np.linalg.norm(x - y)) < MIN_PAIR_SEPARATION:
            raise ValueError(
                f"pair separation below {MIN_PAIR_SEPARATION:g}; gap would not be informative"
            )
        vx = marginal_value(h, x)
        vy = marginal_value(h, y)
        gap = 0.5 * (vx.value + vy.value) - marginal_value(h, 0.5 * (x + y)).value
        scale = 1.0 + max(abs(vx.value), abs(vy.value))
        threshold = (1e-10 * scale) if tol is None else tol
        threshold_used = min(threshold_used, threshold)
        if gap <= threshold:
            raise NotStrictlyConvex(
                f"midpoint gap {gap:.3e} at separation {np.linalg.norm(x - y):.3e} "
                f"is not above {threshold:.3e}"
            )
        gaps.append(gap)
    if not gaps:
        raise ValueError("at least one pair is required")
    return StrictnessReport(tuple(gaps), min(gaps), float(threshold_used))


def lemma2_check(
    f,
    S,
    *,
    pairs: int = 20,
    seed: int = 0,
) -> TrialResult:
    """One verification trial for convexity (and strictness) of the marginal.

    Sample points are taken as x = S^T r for random r, so they always lie in
    the domain.  Every midpoint gap must clear -CONVEXITY_SLACK; witnesses must
    satisfy their constraint within WITNESS_FEAS_TOL and report consistent
    values; for positive definite quadratics the gaps of well-separated pairs
    must exceed STRICT_GAP.
    """
    h = marginalize(f, S)
    d = h.inner_dim
    rng = np.random.default_rng(np.random.SeedSequence(entropy=int(seed), spawn_key=(22,)))
    instance = {
        "marginal": {"f": function_to_json(f), "S": matrix_to_json(h.S)},
        "seed": int(seed),
        "suite": "lemma2",
    }

    def sample_x():
        return h.S.T @ rng.uniform(-SAMPLE_SCALE, SAMPLE_SCALE, d)

    worst_gap = np.inf
    worst_pair = None
    max_residual = 0.0
    max_value_err = 0.0
    for _ in range(pairs):
        x, y = sample_x(), sample_x()
        values = {}
        for key, point in (("x", x), ("y", y), ("mid", 0.5 * (x + y))):
            w = marginal_value(h, point)
            values[key] = w.value
            max_residual = max(max_residual, float(np.linalg.norm(h.S.T @ w.argmin - point)))
            err = abs(fn.evaluate(f, w.argmin) - w.value) / (1.0 + abs(w.value))
            max_value_err = max(max_value_err, err)
        gap = 0.5 * (values["x"] + values["y"]) - values["mid"]
        if gap < worst_gap:
            worst_gap, worst_pair = gap, (x, y)

    checks = [
        CheckResult(
            name="midpoint_convexity",
            passed=bool(worst_gap >= -CONVEXITY_SLACK),
            gap=float(worst_gap),
            witness=None
            if worst_pair is None
            else {"x": list(map(float, worst_pair[0])), "y": list(map(float, worst_pair[1]))},
        ),
        CheckResult(name="witness_feasibility", passed=bool(max_residual <= WITNESS_FEAS_TOL), gap=float(max_residual)),
        CheckResult(name="witness_value", passed=bool(max_value_err <= WITNESS_VALUE_TOL), gap=float(max_value_err)),
    ]

    if is_strictly_convex(f):
        # Pairs are resampled until comfortably separated; near the 1e-3
        # precondition floor the expected gap of a mildly conditioned operator
        # can dip under the certification threshold without disproving
        # anything, so the check keeps away from that edge.  The target
        # shrinks with the sampled domain spread (small spread means a small
        # operator, which makes the inner points move far and the gaps large),
        # never below the certificate's own precondition.
        spread = 0.0
        probes = [sample_x() for _ in range(8)]
        for i, p in enumerate(probes):
            for q in probes[i + 1 :]:
                spread = max(spread, float(np.linalg.norm(p - q)))
        separation = max(MIN_PAIR_SEPARATION, min(0.1, 0.25 * spread))
        strict_pairs = []
        attempts = 0
        while len(strict_pairs) < pairs and attempts < 200 * pairs:
            attempts += 1
            x, y = sample_x(), sample_x()
            if float(np.linalg.norm(x - y)) >= separation:
                strict_pairs.append((x, y))
        if len(strict_pairs) < pairs:
            checks.append(
                CheckResult(
                    name="strict_convexity",
                    passed=True,
                    gap=None,
                    witness={"note": "domain too small for separated pairs; strictness is vacuous"},
                )
            )
        else:
            try:
                rep = strict_convexity_certificate(h, strict_pairs, tol=STRICT_GAP)
                checks.append(CheckResult(name="strict_convexity", passed=True, gap=rep.min_gap))
            except NotStrictlyConvex as exc:
                checks.append(
                    CheckResult(name="strict_convexity", passed=False, gap=None, witness={"error": str(exc)})
                )
    return TrialResult(trial_id=0, instance=instance, checks=checks).settle()
