"""Marginal functions under exact partial minimization.

For f on R^d and an operator matrix S of shape (d, n), the marginal is

    h(x) = min { f(r) : S^T r = x },   defined for x in the row space of S.

The inner problem is solved exactly: an epigraph linear program for
piecewise-linear objectives (inside a large safety box; a binding box is a
premise violation and raises UnboundedBelow instead of returning a bogus
minimum), and the KKT linear system for quadratics that are positive definite
on the constraint null space.  Everything but the query point depends only on
f and S, so each MarginalFunction sets up its inner solver once, on its first
query: ``functions.epigraph``'s LP with the fiber rows [S^T, 0], which leaves
b_eq = x to each query, or the KKT system [[2Q, S], [S^T, 0]], factored once,
which leaves one small linear solve for the right-hand side [-c, x].

marginal_values answers a (k, n) stack of queries in one go, as a value
vector, a (k, d) argmin matrix and the inner solver's status: one stacked
projection checks the domain, the LPs of all rows pivot in lockstep, and the
KKT right-hand sides are solved as one stack.  Row i equals marginal_value's
answer bit for bit, and the error raised is the one the rows one by one would
raise first.  marginal_value reads the stack of one as a MinimizationWitness.

lemma2_check verifies both halves of the marginal-convexity result with one
midpoint-gap routine: h((x + y) / 2) against the mean of h(x) and h(y), the
points drawn as stacks and each gap check asked as one marginal_values stack.
The gaps must clear -CONVEXITY_SLACK on every sampled pair, and exceed
STRICT_GAP on well-separated pairs when f is a positive definite quadratic.  A
failed gap check records the least gap and the pair that gave it, so the
failure replays from the report.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, partial

import numpy as np

from . import functions as fn
from .errors import (
    DimensionMismatch,
    DomainViolation,
    InfeasibleFiber,
    LPInfeasible,
    SingularKKT,
    UnboundedBelow,
    UnsupportedObjective,
)
from .instances import function_to_json, matrix_to_json
from .linalg import AnchorMap, Subspace, anchor_map, as_matrix, as_vector, kernel, project, row_norms, row_space
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
MIDPOINT_PAIRS = 20
SAMPLE_SCALE = 2.0
MIXED_OBJECTIVE = (
    "sum mixes a nonzero quadratic with piecewise-linear parts; "
    "no exact inner solver covers that combination"
)


@dataclass(frozen=True)
class MarginalFunction:
    """f composed with partial minimization over the fibers of S^T."""

    f: fn.ConvexFunction
    S: np.ndarray

    @property
    def inner_dim(self) -> int:
        return self.S.shape[0]

    @property
    def outer_dim(self) -> int:
        return self.S.shape[1]

    @cached_property
    def domain(self) -> Subspace:
        """The row space of S, where the marginal is defined."""
        return row_space(self.S)

    @cached_property
    def _inner(self):
        """The inner solver, set up on the first query: a function of a (k, outer_dim) query stack.

        It returns the stack's (values, argmins, status), or raises the first row's error.
        Max-affine blocks, alone or beside a quadratic with Q = 0 and c = 0,
        get their epigraph LP, whose fiber rows [S^T, 0] ``functions.epigraph``
        writes from the view S.T, so a query sets only b_eq = x.  A quadratic
        gets its KKT system, factored once.
        Any other mix raises UnsupportedObjective, and a quadratic singular along the fiber
        SingularKKT; a cached_property that raises caches nothing, so every query raises again.
        """
        parts, quad = fn.normal_form(self.f)
        if not parts:
            return _kkt_system(quad, self.S)
        if quad is not None and (quad.Q.any() or quad.c.any()):
            raise UnsupportedObjective(MIXED_OBJECTIVE)
        epigraph = fn.epigraph(self.inner_dim, parts, BOX_RADIUS, (), self.S.T)
        return partial(_lp_inner, self.inner_dim, epigraph, 0.0 if quad is None else quad.r0)


def marginalize(f, S) -> MarginalFunction:
    S = as_matrix(S)
    if S.shape[0] != f.dim:
        raise DimensionMismatch(
            f"operator has {S.shape[0]} rows, function lives on R^{f.dim}"
        )
    return MarginalFunction(f, S)


@dataclass(frozen=True)
class MinimizationWitness:
    value: float
    argmin: np.ndarray
    status: str  # "exact-LP" or "exact-KKT"


def _lp_inner(d, epigraph, constant, X):
    """The prepared epigraph LP solved for b_eq = x at every row, as arrays; an argmin is its first d variables.

    It raises what the rows in turn would raise first: the safety box before the first failed row, or its failure.
    """
    cost, rows, rhs, eq, lower, upper = epigraph
    Y, values, failures = solve_lp(cost, A_ub=rows, b_ub=rhs, A_eq=eq, b_eq=X, lower=lower, upper=upper)
    first = next((i for i, failure in enumerate(failures) if failure is not None), len(failures))
    R = Y[:, :d].copy()  # C-ordered, as the products downstream round by it
    if (np.abs(R[:first]).max(axis=1) > BOX_RADIUS - 1e-6 * BOX_RADIUS).any():
        raise UnboundedBelow("minimum sits on the safety box, attainment inside it is not certified")
    if first < len(failures) and isinstance(failures[first], LPInfeasible):
        raise UnboundedBelow(f"fiber does not meet the solver box (radius {BOX_RADIUS:g}): {failures[first]}") from failures[first]
    if first < len(failures):
        raise failures[first]
    return values + constant, R, "exact-LP"


def _kkt_system(quad, S):
    """The KKT solver of a quadratic f on the fibers of S^T: [[2Q, S], [S^T, 0]], factored once.

    Raises SingularKKT when the least eigenvalue of the Hessian 2Q reduced
    to the fiber kernel ker(S^T) is not safely positive.
    """
    n = S.shape[1]
    K = kernel(S.T)
    if K.dim:
        reduced = K.basis @ (2.0 * quad.Q) @ K.basis.T
        floor = float(np.min(np.linalg.eigvalsh(reduced)))
        if floor <= KKT_SINGULAR_TOL * (1.0 + float(np.max(np.abs(reduced)))):
            raise SingularKKT(f"objective is not positive definite along the fiber (floor {floor:.3e})")
    return partial(_kkt_inner, quad, anchor_map(np.block([[2.0 * quad.Q, S], [S.T, np.zeros((n, n))]])))


def _kkt_inner(quad, system: AnchorMap, X):
    rhs = np.hstack([np.broadcast_to(-quad.c, (len(X), quad.dim)), X])
    try:
        sol = system.solve(rhs)
    except InfeasibleFiber as exc:
        raise SingularKKT(f"KKT system is inconsistent: {exc}") from exc
    R = sol[:, : quad.dim].copy()
    return fn.evaluate_many(quad, R), R, "exact-KKT"


def marginal_values(h: MarginalFunction, X):
    """Exact h at every row of X, shape (k, outer_dim), as (values, argmins, status).

    Shapes (k,) and (k, inner_dim); ``status`` is the inner solver's, None for
    an empty stack, which sets up no solver.  Row i equals ``marginal_value``
    bit for bit, and the error raised is the one the rows one by one would
    raise first: one stacked projection checks the domain, and the rows before
    the first one off it are solved as one stack, the LP in lockstep and the
    KKT system in one stacked solve.
    """
    X = as_matrix(X)
    if X.shape[1] != h.outer_dim:
        raise DimensionMismatch(f"expected dimension {h.outer_dim}, got {X.shape[1]}")
    gaps = row_norms(X - project(X, h.domain))
    off = np.flatnonzero(gaps > DOMAIN_TOL * (1.0 + row_norms(X)))
    clean = off[0] if off.size else len(X)
    answer = h._inner(X[:clean]) if clean else (np.zeros(0), np.zeros((0, h.inner_dim)), None)
    if off.size:
        raise DomainViolation(
            f"query lies {gaps[clean]:.3e} outside the row space of the operator"
        )
    return answer


def marginal_value(h: MarginalFunction, x) -> MinimizationWitness:
    """Exact h(x) with an argmin witness.

    Raises DomainViolation outside Im(S^T), UnboundedBelow when the inner LP
    leans on the safety box, SingularKKT for quadratics that are singular along
    the fiber, and UnsupportedObjective for sums mixing a nonzero quadratic
    with piecewise-linear parts.
    """
    values, argmins, status = marginal_values(h, as_vector(x, h.outer_dim)[None])
    return MinimizationWitness(float(values[0]), argmins[0], status)


def is_strictly_convex(f) -> bool:
    """True exactly for quadratics (or sums of them) with positive definite total."""
    parts, quad = fn.normal_form(f)
    if parts or quad is None:
        return False
    return float(np.min(np.linalg.eigvalsh(quad.Q))) > 1e-8


def _least_gap(h: MarginalFunction, X, Y):
    """The least midpoint gap (h(x) + h(y)) / 2 - h((x + y) / 2) over the pairs of rows of X and Y.

    Returns that gap (the first, on a tie), its pair as a report witness, and
    the query points, three to a pair (x, y, midpoint), with their values and
    argmins from one ``marginal_values`` stack.
    """
    points = np.stack([X, Y, 0.5 * (X + Y)], axis=1).reshape(3 * len(X), h.outer_dim)
    v, R, _ = marginal_values(h, points)
    gaps = 0.5 * (v[0::3] + v[1::3]) - v[2::3]
    worst = int(np.argmin(gaps))
    return float(gaps[worst]), {"x": X[worst].tolist(), "y": Y[worst].tolist()}, points, v, R


def lemma2_check(f, S, *, seed: int = 0) -> TrialResult:
    """One verification trial for convexity (and strictness) of the marginal.

    Sample points are taken as x = S^T r for random r, so they always lie in
    the domain.  On MIDPOINT_PAIRS pairs every midpoint gap must clear
    -CONVEXITY_SLACK, and the witnesses must satisfy their constraint within
    WITNESS_FEAS_TOL and report consistent values.  For positive definite
    quadratics the gaps of MIDPOINT_PAIRS well-separated pairs must exceed
    STRICT_GAP.  A failed gap check names its worst pair as the witness.
    """
    h = marginalize(f, S)
    d = h.inner_dim
    rng = np.random.default_rng(np.random.SeedSequence(entropy=int(seed), spawn_key=(22,)))
    instance = {
        "marginal": {"f": function_to_json(f), "S": matrix_to_json(h.S)},
        "seed": int(seed),
        "suite": "lemma2",
    }

    def sample_x(k):
        return (h.S.T @ rng.uniform(-SAMPLE_SCALE, SAMPLE_SCALE, (k, d))[:, :, None])[:, :, 0]

    P = sample_x(2 * MIDPOINT_PAIRS)
    gap, pair, points, values, R = _least_gap(h, P[0::2], P[1::2])
    residuals = row_norms((h.S.T @ R[:, :, None])[:, :, 0] - points)
    value_errs = np.abs(fn.evaluate_many(f, R) - values) / (1.0 + np.abs(values))
    max_residual = float(np.max(residuals, initial=0.0))
    max_value_err = float(np.max(value_errs, initial=0.0))

    checks = [
        CheckResult(name="midpoint_convexity", passed=bool(gap >= -CONVEXITY_SLACK), gap=gap, witness=pair),
        CheckResult(name="witness_feasibility", passed=bool(max_residual <= WITNESS_FEAS_TOL), gap=float(max_residual)),
        CheckResult(name="witness_value", passed=bool(max_value_err <= WITNESS_VALUE_TOL), gap=float(max_value_err)),
    ]

    if is_strictly_convex(f):
        # Pairs are resampled until comfortably separated; near
        # MIN_PAIR_SEPARATION the expected gap of a mildly conditioned
        # operator can dip under STRICT_GAP without disproving anything, so
        # the check keeps away from that edge.  The target shrinks with the
        # sampled domain spread (small spread means a small operator, which
        # makes the inner points move far and the gaps large), never below
        # MIN_PAIR_SEPARATION.
        probes = sample_x(8)
        i, j = np.triu_indices(len(probes), 1)
        spread = float(np.max(row_norms(probes[i] - probes[j])))
        separation = max(MIN_PAIR_SEPARATION, min(0.1, 0.25 * spread))
        strict_pairs = []  # the first MIDPOINT_PAIRS separated pairs of at most 200 * MIDPOINT_PAIRS drawn
        for _ in range(200):
            P = sample_x(2 * MIDPOINT_PAIRS).reshape(MIDPOINT_PAIRS, 2, -1)
            strict_pairs.extend(P[row_norms(P[:, 0] - P[:, 1]) >= separation])
            if len(strict_pairs) >= MIDPOINT_PAIRS:
                break
        if len(strict_pairs) < MIDPOINT_PAIRS:
            checks.append(
                CheckResult(
                    name="strict_convexity",
                    passed=True,
                    gap=None,
                    witness={"note": "domain too small for separated pairs; strictness is vacuous"},
                )
            )
        else:
            gap, pair, *_ = _least_gap(h, *np.stack(strict_pairs[:MIDPOINT_PAIRS], axis=1))
            passed = bool(gap > STRICT_GAP)
            checks.append(
                CheckResult(name="strict_convexity", passed=passed, gap=gap, witness=None if passed else pair)
            )
    return TrialResult(instance, checks)
