"""Minimization over polyhedral domains and convexity of argmin sets.

A domain is a box intersected with finitely many halfspaces g . x <= h, so it
is always bounded and minima are attained.  Both solvers are finite and exact
and work on the normal form of the objective, lifted to its epigraph by
``functions.epigraph`` (one variable per max-affine block; the domain's
halfspaces as rows, no fiber rows).  A sum of max-affine blocks alone is the
epigraph linear program, solved by the simplex (status ``exact-LP``).  An
objective with a quadratic part is a convex quadratic program on the same
lift, solved by a primal active-set method (status ``exact-QP``).

The segment check behind lemma3_check does not depend on the accuracy of the
minimum: for any level m the set {x in C : f(x) <= m + tol} is convex, so
convex combinations of harvested members must stay members at a relaxed
tolerance.  Every point check is one batched evaluation (constraint
violation plus ``functions.evaluate_many``) whose rows equal the one-point
checks bit for bit.  The harvest asks membership alone (``_members``): it
carries only its live rays and bisects them in lockstep, two levels per
probe, and keeps at most MAX_MEMBERS distinct points.  The witness and
segment checks, which report gaps, are one ``_probe`` of all their points.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import functions as fn
from .errors import DimensionMismatch, InfeasibleDomain, LPInfeasible, SolverFailure
from .instances import domain_to_json, function_to_json
from .linalg import as_vector, row_norms, rows_dot
from .report import CheckResult, TrialResult
from .simplex import solve_lp

DEFAULT_MEMBERSHIP_TOL = 1e-6
QP_MAX_STEPS = 1000
FLAT_TOL = 1e-10  # reduced-Hessian eigenvalues below this, relative to the largest, count as zero
STATIONARY_TOL = 1e-12  # reduced gradients below this, relative to the gradient, count as zero
MULTIPLIER_TOL = 1e-9  # multipliers above -MULTIPLIER_TOL, relative to the gradient, count as nonnegative
BLOCK_TOL = 1e-10  # rows this close to parallel to a step do not block it
DISTINCT_TOL = 1e-2
PROBE_DIRECTIONS = 8
BISECTION_STEPS = 50
MAX_MEMBERS = 6
SEGMENT_LAMBDAS = tuple(k / 10.0 for k in range(1, 10))


@dataclass(frozen=True)
class PolyhedralDomain:
    """{x : |x_j| <= box_radius, g_i . x <= h_i} with the box always present."""

    dim: int
    inequalities: tuple[tuple[np.ndarray, float], ...]
    box_radius: float = 1e3

    def __post_init__(self):
        if self.dim < 1:
            raise DimensionMismatch(f"a domain needs at least one dimension, got {self.dim}")
        rows = tuple((as_vector(g, self.dim), float(h)) for g, h in self.inequalities)
        if not np.isfinite([h for _, h in rows]).all():
            raise ValueError("inequality offsets must be finite")
        object.__setattr__(self, "inequalities", rows)
        object.__setattr__(self, "box_radius", float(self.box_radius))
        if not 0 < self.box_radius < np.inf:  # NaN fails both
            raise ValueError("box radius must be finite and positive")


def box_domain(dim: int, radius: float) -> PolyhedralDomain:
    return PolyhedralDomain(dim, (), radius)


def _larger(a, b):
    """Elementwise ``max(a, b)`` as Python takes it: a unless b is larger, so ties keep a's signed zero."""
    return np.where(b > a, b, a)


def _violations(C: PolyhedralDomain, X) -> np.ndarray:
    """Largest constraint violation of each row of X, zero inside the domain."""
    worst = np.abs(X).max(axis=1) - C.box_radius
    for g, h in C.inequalities:
        worst = _larger(worst, rows_dot(X, g) - h)
    return _larger(worst, 0.0)


def feasibility_violation(C: PolyhedralDomain, x) -> float:
    """Largest constraint violation of x, zero when x is inside the domain."""
    return float(_violations(C, as_vector(x, C.dim)[None])[0])


def feasible_point(C: PolyhedralDomain) -> np.ndarray:
    """Any point of the domain, or InfeasibleDomain when it is empty.

    The origin for a bare box; otherwise the epigraph LP of no blocks: a
    zero-cost linear program over C's box and halfspaces, which the simplex's
    own phase one decides.
    """
    if not C.inequalities:
        return np.zeros(C.dim)
    return _lp_minimize((), C).witness


@dataclass(frozen=True)
class ArgminCertificate:
    value: float
    witness: np.ndarray
    status: str  # "exact-LP" or "exact-QP"


def _lp_minimize(blocks, C: PolyhedralDomain) -> ArgminCertificate:
    cost, rows, rhs, eq, lower, upper = fn.epigraph(C.dim, blocks, C.box_radius, C.inequalities, np.zeros((0, C.dim)))
    X, values, [failure] = solve_lp(cost, A_ub=rows, b_ub=rhs, A_eq=eq, lower=lower, upper=upper)
    if isinstance(failure, LPInfeasible):
        raise InfeasibleDomain(f"domain is empty: {failure}") from failure
    if failure is not None:
        raise failure
    return ArgminCertificate(float(values[0]), X[0, : C.dim], "exact-LP")


def _face_step(H, W, grad, scale):
    """Descent step within the face of the working rows W, and its full length.

    The face's directions are the null space Z of W.  A zero-curvature
    descent direction has no full length (inf); otherwise the Newton step
    minimizes the quadratic on the face (length 1).  None when the face
    holds no descent direction.
    """
    Z = np.linalg.svd(W)[2][len(W) :].T
    g = Z.T @ grad
    lam, U = np.linalg.eigh(Z.T @ H @ Z)
    flat = lam <= FLAT_TOL * (1.0 + float(np.max(np.abs(lam), initial=0.0)))
    along = U[:, flat].T @ g
    if float(np.linalg.norm(along)) > STATIONARY_TOL * scale:
        return -Z @ (U[:, flat] @ along), np.inf
    along = U[:, ~flat].T @ g
    if float(np.linalg.norm(along)) > STATIONARY_TOL * scale:
        return -Z @ (U[:, ~flat] @ (along / lam[~flat])), 1.0
    return None


def _active_set_qp(H, q, A, b, z):
    """Minimize z . H z / 2 + q . z subject to A z <= b, from a feasible z.

    Primal active-set method (Nocedal & Wright, Numerical Optimization,
    Alg. 16.3) for a PSD, possibly singular H.  The working set stays
    linearly independent: a row joins only when it blocks a step, and the
    step lies in the null space of the rows already in.  Every variable is
    boxed, so some row blocks each zero-curvature step.  At a minimizer of
    its face, the point is optimal when no multiplier is negative; otherwise
    the row with the most negative multiplier leaves.
    """
    work, settled = [], False
    norms = np.linalg.norm(A, axis=1)
    for _ in range(QP_MAX_STEPS):
        grad = H @ z + q
        scale = 1.0 + float(np.max(np.abs(grad)))
        step = None if settled else _face_step(H, A[work], grad, scale)
        if step is None:
            if not work:
                return z
            mu = np.linalg.lstsq(A[work].T, -grad, rcond=None)[0]
            j = int(np.argmin(mu))
            if mu[j] >= -MULTIPLIER_TOL * scale:
                return z
            del work[j]
            settled = False
            continue
        p, full = step
        Ap = A @ p
        blocking = Ap > BLOCK_TOL * norms * float(np.linalg.norm(p))
        blocking[work] = False
        ratios = np.full(len(b), np.inf)
        ratios[blocking] = np.maximum(b - A @ z, 0.0)[blocking] / Ap[blocking]
        i = int(np.argmin(ratios))
        z = z + min(full, float(ratios[i])) * p
        settled = ratios[i] >= full
        if not settled:
            work.append(i)
    raise SolverFailure(f"active-set QP did not reach an optimum within {QP_MAX_STEPS} steps")


def _qp_minimize(f, blocks, quad, C: PolyhedralDomain) -> ArgminCertificate:
    d = C.dim
    q, rows, rhs, _, lower, upper = fn.epigraph(d, blocks, C.box_radius, C.inequalities, np.zeros((0, d)))
    n = len(q)
    q[:d] = quad.c
    H = np.zeros((n, n))
    H[:d, :d] = 2.0 * quad.Q
    x = feasible_point(C)
    t = [fn.evaluate(block, x) for block in blocks]
    A = np.vstack([rows, np.eye(n), -np.eye(n)])
    z = _active_set_qp(H, q, A, np.concatenate([rhs, upper, -lower]), np.concatenate([x, t]))
    return ArgminCertificate(float(fn.evaluate(f, z[:d])), z[:d], "exact-QP")


def minimize_over(f, C: PolyhedralDomain) -> ArgminCertificate:
    """Minimum of f over C with a feasible witness, by a finite exact method.

    Sums of max-affine blocks go to the epigraph LP, anything with a
    quadratic part to the active-set QP.  Raises InfeasibleDomain for an
    empty domain and SolverFailure when a solver exhausts its step budget.
    """
    if f.dim != C.dim:
        raise DimensionMismatch(f"function on R^{f.dim}, domain in R^{C.dim}")
    blocks, quad = fn.normal_form(f)
    if quad is None:
        return _lp_minimize(blocks, C)
    return _qp_minimize(f, blocks, quad, C)


def _members(f, C: PolyhedralDomain, X, m: float, tol: float) -> np.ndarray:
    """Membership at tol of each row of X: feasible within tol and within tol of the level m."""
    return (_violations(C, X) <= tol) & (fn.evaluate_many(f, X) <= m + tol)


def _probe(f, C: PolyhedralDomain, X, m: float, tol: float):
    """Membership at tol, and the signed gap (<= 0 for a clean member), of each row of X."""
    violation = _violations(C, X)
    values = fn.evaluate_many(f, X)
    return (violation <= tol) & (values <= m + tol), _larger(violation, values - m)


def argmin_membership(f, C: PolyhedralDomain, x, m: float, tol: float = DEFAULT_MEMBERSHIP_TOL) -> bool:
    """Is x feasible and within tol of the level m in objective value?"""
    return bool(_members(f, C, as_vector(x, C.dim)[None], m, tol)[0])


def _extreme_members(f, C, base, V, m, tol):
    """Farthest member along base + t v for every row v of V, by lockstep bisection on t.

    Each ray is normalized and bisected on its own, exactly as one ray at a
    time would be; the rays only share the batched membership probes.  Only
    the live rays are carried: their indices, brackets (a, b) and unit
    directions.  A probe takes two halvings: it checks the midpoint and both
    midpoints that can come next, each the scalar step's float expression,
    as one (3, live) stack of parameters against the live directions.  A
    zero ray yields base, and so does a ray whose b falls below
    DISTINCT_TOL / 2, whose member ``_distinct`` would drop beside base
    anyway; such rays leave the live set before the next probe.
    """
    norms = row_norms(V)
    zero = norms == 0.0
    U = V / np.where(zero, 1.0, norms)[:, None]
    top = 2.0 * C.box_radius * np.sqrt(C.dim)
    reach = _members(f, C, base + top * U, m, tol)
    rays = np.flatnonzero(~zero & ~reach)
    a, b, W = np.zeros(rays.size), np.full(rays.size, top), U[rays]
    for remaining in range(BISECTION_STEPS, 0, -2):
        keep = b >= DISTINCT_TOL / 2
        if not keep.all():
            rays, a, b, W = rays[keep], a[keep], b[keep], W[keep]
        if not rays.size:
            break
        mid = 0.5 * (a + b)
        t = np.stack([mid, 0.5 * (a + mid), 0.5 * (mid + b)])
        inside = _members(f, C, (base + t[:, :, None] * W).reshape(-1, C.dim), m, tol).reshape(3, -1)
        a, b = np.where(inside[0], mid, a), np.where(inside[0], b, mid)
        if remaining > 1:
            inside, mid = np.where(inside[0], inside[2], inside[1]), 0.5 * (a + b)
            a, b = np.where(inside, mid, a), np.where(inside, b, mid)
    found, lo = reach & ~zero, np.where(reach, top, 0.0)
    found[rays], lo[rays] = True, a
    return np.where(found[:, None], base + lo[:, None] * U, base)


def _distinct(points, tol, limit=None):
    """The points, in order, that lie farther than tol from every point kept before them; at most limit of them."""
    kept = []
    for p in points:
        if len(kept) == limit:
            break
        if all(float(np.linalg.norm(p - q)) > tol for q in kept):
            kept.append(p)
    return kept


def lemma3_check(
    f,
    C: PolyhedralDomain,
    *,
    seed: int = 0,
    tol: float = DEFAULT_MEMBERSHIP_TOL,
) -> TrialResult:
    """One verification trial for convexity of the near-argmin set.

    Members of {x in C : f(x) <= m + tol} are harvested from the minimizer
    witness and bisection line searches along seeded directions and their
    negatives, bisected in lockstep, two halvings per batched probe (rays
    that can only end within DISTINCT_TOL / 2 of the witness stop early),
    and the first MAX_MEMBERS points separated by DISTINCT_TOL are kept.
    Trials whose harvest collapses to fewer than two such points are
    skipped as degenerate (a singleton argmin set is convex but carries no
    segment evidence).  Every convex combination of members at the lambdas
    0.1 .. 0.9 must be a member at 10 * tol; the witness and those points
    are probed at once.
    """
    cert = minimize_over(f, C)
    m = cert.value
    instance = {
        "f": function_to_json(f),
        "domain": domain_to_json(C.inequalities, C.box_radius),
        "seed": int(seed),
        "suite": "lemma3",
    }
    rng = np.random.default_rng(np.random.SeedSequence(entropy=int(seed), spawn_key=(34,)))
    base = np.asarray(cert.witness, dtype=float)
    # The witness is often a vertex of the box, where almost no random
    # direction points back inside, so probe toward the box center and along
    # the axes before the random draws.
    probes = np.vstack([-base, np.eye(C.dim), rng.standard_normal((PROBE_DIRECTIONS, C.dim))])
    rays = np.stack([probes, -probes], axis=1).reshape(-1, C.dim)
    members = _distinct([base, *_extreme_members(f, C, base, rays, m, tol)], DISTINCT_TOL, MAX_MEMBERS)
    if len(members) < 2:
        return TrialResult(instance, skip_reason="SkippedDegenerate")

    pairs = np.array(list(itertools.combinations(members, 2)))
    lam = np.array(SEGMENT_LAMBDAS)[None, :, None]
    points = (lam * pairs[:, None, 0] + (1.0 - lam) * pairs[:, None, 1]).reshape(-1, C.dim)
    # one probe: the witness, then the segment points
    inside, gaps = _probe(f, C, np.vstack([base[None], points]), m, tol)
    checks = [CheckResult(name="witness_validity", passed=bool(inside[0]), gap=float(gaps[0]))]
    gaps = gaps[1:]
    worst = int(np.argmax(gaps))
    checks.append(
        CheckResult(
            name="segment_membership",
            passed=bool(gaps[worst] <= 10.0 * tol),
            gap=float(gaps[worst]),
            witness={"point": points[worst].tolist()},
        )
    )
    return TrialResult(instance, checks)
