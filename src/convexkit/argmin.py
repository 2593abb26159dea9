"""Minimization over polyhedral domains and convexity of argmin sets.

A domain is a box intersected with finitely many halfspaces g . x <= h, so it
is always bounded and minima are attained.  Max-affine objectives are solved
exactly through the epigraph linear program.  Objectives with a quadratic part
run projected subgradient descent (diminishing steps, best-iterate tracking)
followed by a seeded multi-scale perturbation polish; the polish restarts the
search from any improvement it finds, which keeps the routine deterministic
while sharpening the reported minimum.

The segment check behind lemma3_check does not depend on descent accuracy: for
any level m the set {x in C : f(x) <= m + tol} is convex, so convex
combinations of harvested members must stay members at a relaxed tolerance.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import functions as fn
from .errors import DimensionMismatch, InfeasibleDomain, LPInfeasible
from .instances import domain_to_json, function_to_json
from .report import SKIP, CheckResult, TrialResult
from .simplex import solve_lp

DEFAULT_MEMBERSHIP_TOL = 1e-6
DESCENT_ITERS = 20000
CERTIFICATE_SAMPLES = 200
DISTINCT_TOL = 1e-2
PROBE_DIRECTIONS = 8
MAX_MEMBERS = 6
SEGMENT_LAMBDAS = tuple(k / 10.0 for k in range(1, 10))


@dataclass(frozen=True)
class PolyhedralDomain:
    """{x : |x_j| <= box_radius, g_i . x <= h_i} with the box always present."""

    dim: int
    inequalities: tuple[tuple[np.ndarray, float], ...]
    box_radius: float = 1e3

    def __post_init__(self):
        rows = []
        for g, h in self.inequalities:
            g = np.asarray(g, dtype=float)
            if g.shape != (self.dim,):
                raise DimensionMismatch(
                    f"inequality row has shape {g.shape}, domain dimension is {self.dim}"
                )
            if not (np.all(np.isfinite(g)) and np.isfinite(h)):
                raise ValueError("inequality rows must be finite")
            rows.append((g, float(h)))
        object.__setattr__(self, "inequalities", tuple(rows))
        object.__setattr__(self, "box_radius", float(self.box_radius))
        if not self.box_radius > 0:
            raise ValueError("box radius must be positive")


def box_domain(dim: int, radius: float) -> PolyhedralDomain:
    return PolyhedralDomain(dim, (), radius)


def feasibility_violation(C: PolyhedralDomain, x) -> float:
    """Largest constraint violation of x, zero when x is inside the domain."""
    x = np.asarray(x, dtype=float)
    worst = float(np.max(np.abs(x))) - C.box_radius
    for g, h in C.inequalities:
        worst = max(worst, float(g @ x) - h)
    return max(worst, 0.0)


def feasible_point(C: PolyhedralDomain) -> np.ndarray:
    """Any point of the domain, or InfeasibleDomain when it is empty.

    Solves the phase-one style program min s subject to g . x - s <= h over
    the box with s >= 0; the domain is nonempty exactly when the optimum is 0.
    """
    if not C.inequalities:
        return np.zeros(C.dim)
    n = C.dim + 1
    rows, rhs = [], []
    for g, h in C.inequalities:
        rows.append(np.concatenate([g, [-1.0]]))
        rhs.append(h)
    cost = np.zeros(n)
    cost[-1] = 1.0
    slack_cap = max(
        float(np.abs(g) @ np.full(C.dim, C.box_radius) - h) for g, h in C.inequalities
    )
    sol = solve_lp(
        cost,
        A_ub=np.array(rows),
        b_ub=np.array(rhs),
        lower=np.concatenate([np.full(C.dim, -C.box_radius), [0.0]]),
        upper=np.concatenate([np.full(C.dim, C.box_radius), [max(slack_cap, 0.0) + 1.0]]),
    )
    if sol.value > 1e-7:
        raise InfeasibleDomain(
            f"domain is empty, best achievable constraint slack is {sol.value:.3e}"
        )
    return sol.x[: C.dim]


@dataclass(frozen=True)
class ArgminCertificate:
    value: float
    witness: np.ndarray
    status: str  # "exact-LP" or "subgradient"


def _project(C: PolyhedralDomain, x: np.ndarray, sweeps: int = 60) -> np.ndarray:
    """Nearest-point projection onto the domain.

    Plain clipping covers the pure box case; with extra halfspaces this runs
    Dykstra's alternating scheme over [box, halfspace_1, ...], which converges
    to the true projection for intersections of convex sets.
    """
    clipped = np.clip(x, -C.box_radius, C.box_radius)
    if not C.inequalities:
        return clipped
    sets = len(C.inequalities) + 1
    y = np.array(x, dtype=float)
    corrections = [np.zeros(C.dim) for _ in range(sets)]
    for _ in range(sweeps):
        previous = y.copy()
        for i in range(sets):
            z = y + corrections[i]
            if i == 0:
                projected = np.clip(z, -C.box_radius, C.box_radius)
            else:
                g, h = C.inequalities[i - 1]
                excess = float(g @ z) - h
                gg = float(g @ g)
                projected = z - (excess / gg) * g if excess > 0.0 and gg > 0.0 else z
            corrections[i] = z - projected
            y = projected
        if float(np.max(np.abs(y - previous))) < 1e-13:
            break
    return y


def _lp_minimize(f: fn.MaxAffine, C: PolyhedralDomain) -> ArgminCertificate:
    d = f.dim
    reach = np.abs(f.matrix) @ np.full(d, C.box_radius)
    t_hi = float(np.max(f.offsets + reach)) + 1.0
    t_lo = float(np.min(f.offsets - reach)) - 1.0
    rows = [np.concatenate([a, [-1.0]]) for a in f.matrix]
    rhs = [-b for b in f.offsets]
    for g, h in C.inequalities:
        rows.append(np.concatenate([g, [0.0]]))
        rhs.append(h)
    cost = np.zeros(d + 1)
    cost[-1] = 1.0
    try:
        sol = solve_lp(
            cost,
            A_ub=np.array(rows),
            b_ub=np.array(rhs),
            lower=np.concatenate([np.full(d, -C.box_radius), [t_lo]]),
            upper=np.concatenate([np.full(d, C.box_radius), [t_hi]]),
        )
    except LPInfeasible as exc:
        raise InfeasibleDomain(f"domain is empty: {exc}") from exc
    return ArgminCertificate(float(sol.value), sol.x[:d], "exact-LP")


def _descend(f, C: PolyhedralDomain, start: np.ndarray) -> tuple[np.ndarray, float]:
    x = _project(C, start)
    best_x, best_v = x.copy(), fn.evaluate(f, x)
    g0 = float(np.linalg.norm(fn.subgradient(f, x)))
    if g0 == 0.0:
        return best_x, best_v
    scale = C.box_radius / g0
    tail_start = DESCENT_ITERS - DESCENT_ITERS // 4
    tail_sum = np.zeros_like(x)
    tail_count = 0
    for k in range(1, DESCENT_ITERS + 1):
        g = fn.subgradient(f, x)
        norm = float(np.linalg.norm(g))
        if norm == 0.0:
            best_x, best_v = x.copy(), fn.evaluate(f, x)
            break
        x = _project(C, x - (scale / np.sqrt(k)) * (g / norm))
        v = fn.evaluate(f, x)
        if v < best_v:
            best_x, best_v = x.copy(), v
        if k >= tail_start:
            tail_sum += x
            tail_count += 1
    if tail_count:
        avg = _project(C, tail_sum / tail_count)
        v = fn.evaluate(f, avg)
        if v < best_v:
            best_x, best_v = avg, v
    return best_x, best_v


def _polish(f, C, x, value, rng):
    """Seeded perturbation certificate; restarts from any improvement found."""
    scales = np.geomspace(C.box_radius * 1e-1, 1e-8, 8)
    for i in range(CERTIFICATE_SAMPLES):
        u = rng.standard_normal(C.dim)
        norm = float(np.linalg.norm(u))
        if norm == 0.0:
            continue
        y = _project(C, x + scales[i % len(scales)] * (u / norm))
        v = fn.evaluate(f, y)
        if v < value:
            x, value = y, v
    return x, value


def minimize_over(
    f,
    C: PolyhedralDomain,
    *,
    seed: int = 0,
) -> ArgminCertificate:
    """Minimum of f over C with a feasible witness.

    Max-affine objectives are exact; anything containing a quadratic part uses
    seeded projected subgradient descent plus the perturbation polish and is
    accurate to roughly 1e-6 on well-scaled instances.
    """
    if f.dim != C.dim:
        raise DimensionMismatch(f"function on R^{f.dim}, domain in R^{C.dim}")
    start = feasible_point(C)
    if isinstance(f, fn.MaxAffine):
        return _lp_minimize(f, C)
    rng = np.random.default_rng(np.random.SeedSequence(entropy=int(seed), spawn_key=(33,)))
    x, value = _descend(f, C, start)
    x, value = _polish(f, C, x, value, rng)
    return ArgminCertificate(float(value), x, "subgradient")


def argmin_membership(f, C: PolyhedralDomain, x, m: float, tol: float = DEFAULT_MEMBERSHIP_TOL) -> bool:
    """Is x feasible and within tol of the level m in objective value?"""
    x = np.asarray(x, dtype=float)
    if x.shape != (C.dim,):
        raise DimensionMismatch(f"point has shape {x.shape}, domain dimension is {C.dim}")
    if feasibility_violation(C, x) > tol:
        return False
    return fn.evaluate(f, x) <= m + tol


def _membership_gap(f, C, x, m):
    """Signed violation used as a gap metric: <= 0 means x is a clean member."""
    return max(feasibility_violation(C, x), fn.evaluate(f, x) - m)


def _extreme_member(f, C, base, v, m, tol, steps: int = 50):
    """Farthest member along base + t v found by bisection on t."""
    v = np.asarray(v, dtype=float)
    norm = float(np.linalg.norm(v))
    if norm == 0.0:
        return base
    v = v / norm
    hi = 2.0 * C.box_radius * np.sqrt(C.dim)
    lo = 0.0
    if argmin_membership(f, C, base + hi * v, m, tol):
        return base + hi * v
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        if argmin_membership(f, C, base + mid * v, m, tol):
            lo = mid
        else:
            hi = mid
    return base + lo * v


def _distinct(points, tol):
    kept = []
    for p in points:
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
    witness and bisection line searches along seeded directions.  Trials whose
    harvest collapses to fewer than two points separated by DISTINCT_TOL are
    skipped as degenerate (a singleton argmin set is convex but carries no
    segment evidence).  Every convex combination of members at the lambdas
    0.1 .. 0.9 must be a member at 10 * tol.
    """
    cert = minimize_over(f, C, seed=seed)
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
    probes = [-base]
    probes.extend(np.eye(C.dim))
    probes.extend(rng.standard_normal(C.dim) for _ in range(PROBE_DIRECTIONS))
    members = [base]
    for v in probes:
        members.append(_extreme_member(f, C, base, v, m, tol))
        members.append(_extreme_member(f, C, base, -v, m, tol))
    members = _distinct(members, DISTINCT_TOL)[:MAX_MEMBERS]
    if len(members) < 2:
        return TrialResult(
            trial_id=0,
            instance=instance,
            checks=[],
            status=SKIP,
            skip_reason="SkippedDegenerate",
        )

    witness_gap = _membership_gap(f, C, cert.witness, m)
    checks = [
        CheckResult(
            name="witness_validity",
            passed=bool(argmin_membership(f, C, cert.witness, m, tol)),
            gap=float(witness_gap),
        )
    ]
    worst = -np.inf
    worst_point = None
    for x, y in itertools.combinations(members, 2):
        for lam in SEGMENT_LAMBDAS:
            z = lam * x + (1.0 - lam) * y
            gap = _membership_gap(f, C, z, m)
            if gap > worst:
                worst, worst_point = gap, z
    checks.append(
        CheckResult(
            name="segment_membership",
            passed=bool(worst <= 10.0 * tol),
            gap=float(worst),
            witness={"point": [float(t) for t in worst_point]},
        )
    )
    return TrialResult(trial_id=0, instance=instance, checks=checks).settle()
