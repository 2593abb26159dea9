"""Tests for constrained minimization and argmin segment checks.

The workhorse frozen instance is f(x) = max(0, x - 1, -x - 1) on the box
[-3, 3]: its minimum is 0 and the argmin set is the whole interval [-1, 1],
which gives the segment check something real to chew on.
"""

import itertools
import re
import time

import numpy as np
import pytest
from numpy.testing import assert_allclose

from convexkit import argmin, functions, simplex
from convexkit.argmin import (
    ArgminCertificate,
    PolyhedralDomain,
    argmin_membership,
    box_domain,
    feasibility_violation,
    feasible_point,
    lemma3_check,
    minimize_over,
)
from convexkit.errors import DimensionMismatch, InfeasibleDomain, LPInfeasible, SolverFailure
from convexkit.functions import MaxAffine, Quadratic, SumFunction, evaluate, evaluate_many, max_affine, quadratic
from convexkit.harness import RunConfig, run_suite
from convexkit.linalg import row_norms
from convexkit.simplex import solve_lp

FLAT_INTERVAL = max_affine([((0.0,), 0.0), ((1.0,), -1.0), ((-1.0,), -1.0)])
# flat on the rectangle [-1, 1] x [-2, 2], then growing linearly
FLAT_RECTANGLE = max_affine(
    [
        ((0.0, 0.0), 0.0),
        ((1.0, 0.0), -1.0),
        ((-1.0, 0.0), -1.0),
        ((0.0, 1.0), -2.0),
        ((0.0, -1.0), -2.0),
    ]
)
PARABOLA = quadratic(np.eye(1))
BOWL = quadratic(np.eye(2))


def test_flat_interval_minimum_frozen():
    cert = minimize_over(FLAT_INTERVAL, box_domain(1, 3.0))
    assert cert.status == "exact-LP"
    assert_allclose(cert.value, 0.0, atol=1e-9)
    assert -1.0 - 1e-9 <= cert.witness[0] <= 1.0 + 1e-9


def test_membership_frozen():
    C = box_domain(1, 3.0)
    assert argmin_membership(FLAT_INTERVAL, C, [0.5], 0.0)
    assert argmin_membership(FLAT_INTERVAL, C, [-1.0], 0.0)
    assert not argmin_membership(FLAT_INTERVAL, C, [1.5], 0.0)
    assert not argmin_membership(FLAT_INTERVAL, C, [5.0], 0.0)


def test_halfspace_descent_frozen():
    """min x^2 subject to x >= 1 inside [-3, 3]; the floor wins."""
    C = PolyhedralDomain(1, (((-1.0,), -1.0),), 3.0)
    cert = minimize_over(PARABOLA, C)
    assert cert.status == "exact-QP"
    assert_allclose(cert.value, 1.0, atol=1e-12)
    assert_allclose(cert.witness, [1.0], atol=1e-12)
    assert feasibility_violation(C, cert.witness) <= 1e-9


def test_sum_objective_descends():
    f = SumFunction(2, (max_affine([((1.0, 1.0), 0.0), ((-1.0, -1.0), 0.0)]), BOWL))
    cert = minimize_over(f, box_domain(2, 3.0))
    assert cert.status == "exact-QP"
    assert_allclose(cert.value, 0.0, atol=1e-12)
    assert_allclose(cert.witness, [0.0, 0.0], atol=1e-12)


def test_sum_of_blocks_is_an_lp():
    """|x| + max(x - 1, 0) on [-2, 2] is piecewise linear: minimum 0 on [0, 1]."""
    f = SumFunction(1, (max_affine([((1.0,), 0.0), ((-1.0,), 0.0)]), max_affine([((1.0,), -1.0), ((0.0,), 0.0)])))
    start = time.perf_counter()
    cert = minimize_over(f, box_domain(1, 2.0))
    elapsed = time.perf_counter() - start
    assert cert.status == "exact-LP"
    assert_allclose(cert.value, 0.0, atol=1e-12)
    assert -1e-12 <= cert.witness[0] <= 1.0 + 1e-12
    assert elapsed < 0.05


def test_feasible_point_and_violation():
    C = PolyhedralDomain(2, (((1.0, 1.0), 1.0),), 3.0)
    p = feasible_point(C)
    assert feasibility_violation(C, p) == 0.0
    assert feasibility_violation(C, [4.0, 0.0]) == pytest.approx(3.0)  # box excess
    assert feasibility_violation(C, [1.0, 1.0]) == pytest.approx(1.0)  # row excess


def test_empty_domain_raises():
    # x <= -5 and x >= 5 cannot both hold
    C = PolyhedralDomain(1, (((1.0,), -5.0), ((-1.0,), -5.0)), 3.0)
    with pytest.raises(InfeasibleDomain) as empty:
        feasible_point(C)
    for f in (PARABOLA, FLAT_INTERVAL):  # the QP and the LP path, with one message
        with pytest.raises(InfeasibleDomain, match=f"^{re.escape(str(empty.value))}$"):
            minimize_over(f, C)


def _hand_built_feasible_point(C):
    """A zero-cost LP over C's box and halfspaces, its arrays built by hand."""
    (x,), _, (failure,) = solve_lp(
        np.zeros(C.dim),
        A_ub=np.array([g for g, _ in C.inequalities]),
        b_ub=np.array([h for _, h in C.inequalities]),
        lower=np.full(C.dim, -C.box_radius),
        upper=np.full(C.dim, C.box_radius),
    )
    if isinstance(failure, LPInfeasible):
        raise InfeasibleDomain(f"domain is empty: {failure}") from failure
    if failure is not None:
        raise failure
    return x


def test_feasible_point_is_the_zero_block_epigraph_lp():
    """feasible_point equals the hand-built LP bit for bit, and refuses an empty domain with its message."""
    rng = np.random.default_rng(61)
    empty = 0
    for _ in range(100):
        d = int(rng.integers(1, 6))
        cuts = [(rng.uniform(-1.0, 1.0, d), float(rng.uniform(-2.0, 1.0))) for _ in range(int(rng.integers(1, 5)))]
        C = PolyhedralDomain(d, tuple(cuts), float(rng.uniform(0.5, 4.0)))
        try:
            expected = _hand_built_feasible_point(C)
        except InfeasibleDomain as exc:
            empty += 1
            with pytest.raises(InfeasibleDomain, match=f"^{re.escape(str(exc))}$"):
                feasible_point(C)
            continue
        assert np.array_equal(feasible_point(C), expected)
    assert 0 < empty < 50


def test_domain_validation():
    with pytest.raises(DimensionMismatch):
        PolyhedralDomain(2, (((1.0,), 0.0),), 3.0)
    with pytest.raises(ValueError):
        PolyhedralDomain(1, (), 0.0)
    # a domain is always bounded
    for radius in (np.inf, np.nan):
        with pytest.raises(ValueError, match="box radius must be finite and positive"):
            box_domain(2, radius)
    with pytest.raises(DimensionMismatch):
        minimize_over(PARABOLA, box_domain(2, 3.0))
    with pytest.raises(DimensionMismatch):
        argmin_membership(PARABOLA, box_domain(1, 3.0), [1.0, 2.0], 0.0)
    with pytest.raises(DimensionMismatch):
        PolyhedralDomain(2, (([[1.0, 0.0]], 0.0),), 3.0)
    with pytest.raises(ValueError):
        PolyhedralDomain(1, (((np.nan,), 0.0),), 3.0)
    with pytest.raises(ValueError):
        PolyhedralDomain(1, (((1.0,), np.inf),), 3.0)
    with pytest.raises(DimensionMismatch):
        feasibility_violation(box_domain(2, 3.0), [1.0])
    # R^0 is refused as a domain, not left to fail in numpy
    with pytest.raises(DimensionMismatch):
        feasible_point(PolyhedralDomain(0, ((np.zeros(0), 1.0),), 1.0))
    with pytest.raises(DimensionMismatch):
        minimize_over(quadratic(np.zeros((0, 0))), box_domain(0, 1.0))


def test_lemma3_flat_interval_passes():
    result = lemma3_check(FLAT_INTERVAL, box_domain(1, 3.0), seed=4)
    assert result.status == "pass"
    assert [c.name for c in result.checks] == ["witness_validity", "segment_membership"]
    assert result.instance["suite"] == "lemma3"
    assert result.instance["domain"]["box_radius"] == 3.0


def test_lemma3_flat_rectangle_passes():
    result = lemma3_check(FLAT_RECTANGLE, box_domain(2, 3.0), seed=8)
    assert result.status == "pass"
    seg = result.checks[1]
    assert seg.gap <= 1e-5


def test_lemma3_singleton_skips():
    """x^2 over a symmetric box has a one-point argmin set: no segments."""
    result = lemma3_check(PARABOLA, box_domain(1, 3.0), seed=2)
    assert result.status == "skip"
    assert result.skip_reason == "SkippedDegenerate"
    assert result.checks == []


@pytest.mark.parametrize("tol", [np.nan, -1.0, np.inf])
def test_membership_tol_that_no_check_can_mean_is_refused(monkeypatch, tol):
    """argmin_membership and lemma3_check raise the ValueError naming a NaN, negative or infinite tol
    before any work: no point is read and no minimum is sought."""
    C = box_domain(1, 3.0)
    for x in ([0.5], [0.5, 0.5]):
        with pytest.raises(ValueError, match="^tol must be finite and nonnegative$"):
            argmin_membership(FLAT_INTERVAL, C, x, 0.0, tol)
    with monkeypatch.context() as patch:
        patch.setattr(argmin, "minimize_over", None)
        with pytest.raises(ValueError, match="^tol must be finite and nonnegative$"):
            lemma3_check(FLAT_INTERVAL, C, seed=4, tol=tol)
    assert argmin_membership(FLAT_INTERVAL, C, [0.5], 0.0, 0.0)  # zero is a tolerance


def test_lemma3_is_deterministic():
    a = lemma3_check(FLAT_RECTANGLE, box_domain(2, 3.0), seed=13)
    b = lemma3_check(FLAT_RECTANGLE, box_domain(2, 3.0), seed=13)
    assert a.instance == b.instance
    assert [(c.name, c.gap) for c in a.checks] == [(c.name, c.gap) for c in b.checks]


def _sample_feasible(rng, C, count):
    points = rng.uniform(-C.box_radius, C.box_radius, (count * 4, C.dim))
    kept = [p for p in points if feasibility_violation(C, p) == 0.0]
    return np.array(kept[:count])


def test_reported_minimum_is_a_lower_bound():
    """500 feasible samples per instance never beat the reported minimum.

    Both paths are exact, so the slack is pure arithmetic noise.
    """
    rng = np.random.default_rng(23)
    for trial in range(10):
        d = int(rng.integers(2, 5))
        C = box_domain(d, 3.0)
        if trial % 2 == 0:
            pieces = [
                (rng.uniform(-2.0, 2.0, d), float(rng.uniform(-2.0, 2.0)))
                for _ in range(int(rng.integers(2, 7)))
            ]
            f = max_affine(pieces)
            slack = 1e-7
        else:
            A = rng.uniform(-1.0, 1.0, (d, d))
            f = quadratic(A.T @ A + 0.1 * np.eye(d), c=rng.uniform(-1.0, 1.0, d))
            slack = 1e-9
        cert = minimize_over(f, C)
        samples = _sample_feasible(rng, C, 500)
        values = evaluate_many(f, samples)
        assert float(np.min(values)) >= cert.value - slack * (1.0 + abs(cert.value))


def _random_instance(rng):
    """A rank-deficient PSD quadratic, alone or plus max-affine blocks, on a cut box."""
    d = int(rng.integers(2, 5))
    radius = float(rng.uniform(1.0, 4.0))
    centre = rng.uniform(-0.5, 0.5, d) * radius
    cuts = []
    for _ in range(int(rng.integers(0, 4))):
        g = rng.uniform(-1.0, 1.0, d)
        cuts.append((g, float(g @ centre) + float(rng.uniform(0.0, 1.0))))
    A = rng.uniform(-1.0, 1.0, (int(rng.integers(0, d)), d))
    parts = [quadratic(A.T @ A, c=rng.uniform(-2.0, 2.0, d))]
    for _ in range(int(rng.integers(0, 3))):
        pieces = [(rng.uniform(-2.0, 2.0, d), float(rng.uniform(-1.0, 1.0))) for _ in range(int(rng.integers(1, 5)))]
        parts.append(max_affine(pieces))
    f = parts[0] if len(parts) == 1 else SumFunction(d, tuple(parts))
    return f, PolyhedralDomain(d, tuple(cuts), radius)


def _kkt_certificate(f, C, x, tol):
    """Stationarity residual and least multiplier at x, for the epigraph lift.

    Lifted to (x, t_k = k-th block at x), the objective is the quadratic plus
    sum t_k, and the rows are the pieces a . x - t_k <= -b, the cuts and the
    box.  The multipliers solve the stationarity system on the active rows.
    """
    d = C.dim
    parts = f.parts if isinstance(f, SumFunction) else (f,)
    blocks = [p for p in parts if isinstance(p, MaxAffine)]
    grad = np.zeros(d + len(blocks))
    for p in parts:
        if not isinstance(p, MaxAffine):
            grad[:d] += 2.0 * p.Q @ x + p.c
    grad[d:] = 1.0
    rows = []
    for k, block in enumerate(blocks):
        values = np.array([piece.a @ x + piece.b for piece in block.pieces])
        for piece, value in zip(block.pieces, values):
            if value >= values.max() - tol:
                rows.append(np.concatenate([piece.a, -np.eye(len(blocks))[k]]))
    for g, h in C.inequalities:
        if g @ x >= h - tol:
            rows.append(np.concatenate([g, np.zeros(len(blocks))]))
    for j in range(d):
        for sign in (1.0, -1.0):
            if sign * x[j] >= C.box_radius - tol:
                row = np.zeros(d + len(blocks))
                row[j] = sign
                rows.append(row)
    if not rows:
        return float(np.linalg.norm(grad)), 0.0
    A = np.array(rows)
    mu = np.linalg.lstsq(A.T, -grad, rcond=None)[0]
    return float(np.linalg.norm(grad + A.T @ mu)), float(np.min(mu))


def test_qp_minimum_is_certified_random():
    """Feasible, unbeaten by feasible samples, and a KKT point, on 100 instances.

    Every check is computed here from the instance, not by the solver.
    """
    rng = np.random.default_rng(2031)
    for _ in range(100):
        f, C = _random_instance(rng)
        cert = minimize_over(f, C)
        assert cert.status == "exact-QP"
        assert feasibility_violation(C, cert.witness) <= 1e-9
        assert cert.value == evaluate(f, cert.witness)
        samples = _sample_feasible(rng, C, 200)
        if len(samples):
            assert float(np.min(evaluate_many(f, samples))) >= cert.value - 1e-9 * (1.0 + abs(cert.value))
        residual, least = _kkt_certificate(f, C, cert.witness, 1e-9)
        assert residual <= 1e-8 and least >= -1e-8, (residual, least)


# --- the active-set QP that ``simplex.solve_qp`` replaced, kept as the value reference ---

QP_MAX_STEPS = 1000
FLAT_TOL = 1e-10  # reduced-Hessian eigenvalues below this, relative to the largest, count as zero
STATIONARY_TOL = 1e-12  # reduced gradients below this, relative to the gradient, count as zero
MULTIPLIER_TOL = 1e-9  # multipliers above -MULTIPLIER_TOL, relative to the gradient, count as nonnegative
BLOCK_TOL = 1e-10  # rows this close to parallel to a step do not block it


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


def _active_set_minimize(f, C):
    """``minimize_over`` on a quadratic objective as it was: the epigraph QP by the active-set method from a feasible point."""
    d = C.dim
    blocks, quad = functions.normal_form(f)
    q, rows, rhs, _, lower, upper = functions.epigraph(d, blocks, C.box_radius, C.inequalities, np.zeros((0, d)))
    n = len(q)
    q[:d] = quad.c
    H = np.zeros((n, n))
    H[:d, :d] = 2.0 * quad.Q
    x = feasible_point(C)
    t = [evaluate(block, x) for block in blocks]
    A = np.vstack([rows, np.eye(n), -np.eye(n)])
    z = _active_set_qp(H, q, A, np.concatenate([rhs, upper, -lower]), np.concatenate([x, t]))
    return ArgminCertificate(float(evaluate(f, z[:d])), z[:d], "exact-QP")


def _qp_sweep_instance(rng):
    """A PD, rank-deficient or zero-Q quadratic plus 0-2 max-affine blocks, over a box of radius 10^U(-1, 3) cut by 0-4 halfspaces.

    A halfspace is drawn through a centre point or with slack beyond it, or
    repeats an earlier one, or opposes an earlier one past its offset, which
    empties the domain.  Returns (f, C, kind, cut kinds).
    """
    d = int(rng.integers(1, 6))
    radius = float(10.0 ** rng.uniform(-1.0, 3.0))
    kind = ("pd", "rank-deficient", "zero")[int(rng.integers(0, 3))]
    U = rng.uniform(-1.0, 1.0, ({"pd": d, "rank-deficient": int(rng.integers(1, d + 1)) - 1, "zero": 0}[kind], d))
    parts = [quadratic(U.T @ U + (0.1 * np.eye(d) if kind == "pd" else 0.0), c=rng.uniform(-2.0, 2.0, d))]
    for _ in range(int(rng.integers(0, 3))):
        pieces = [(rng.uniform(-2.0, 2.0, d), float(rng.uniform(-1.0, 1.0))) for _ in range(int(rng.integers(1, 5)))]
        parts.append(max_affine(pieces))
    f = parts[0] if len(parts) == 1 else SumFunction(d, tuple(parts))
    centre = rng.uniform(-0.5, 0.5, d) * radius
    cuts, kinds = [], []
    for _ in range(int(rng.integers(0, 5))):
        cut = ("tight", "slack", "repeat", "opposed")[int(rng.integers(0, 4 if cuts else 2))]
        if cut in ("tight", "slack"):
            g = rng.uniform(-1.0, 1.0, d)
            h = float(g @ centre) + (float(rng.uniform(0.0, 1.0)) * radius if cut == "slack" else 0.0)
        else:
            g, h = cuts[int(rng.integers(0, len(cuts)))]
            if cut == "opposed":
                g, h = -g, -h - float(rng.uniform(0.01, 1.0)) * radius
        cuts.append((g, h))
        kinds.append(cut)
    return f, PolyhedralDomain(d, tuple(cuts), radius), kind, kinds


def test_lcp_minima_match_the_active_set_qp():
    """On 3,000 seeded QPs the LCP and the active-set QP agree: both solve, or both raise the same InfeasibleDomain.

    Where both solve, the values agree within 1e-9 (1 + |v|) and the LCP's
    witness is feasible within 1e-9 (1 + radius).  Every Q kind, repeated
    and tight halfspaces, and empty domains all occur.
    """
    rng = np.random.default_rng(2101)
    solved, empty = {"pd": 0, "rank-deficient": 0, "zero": 0}, 0
    repeats = tight = 0
    for _ in range(3000):
        f, C, kind, kinds = _qp_sweep_instance(rng)
        try:
            want = _active_set_minimize(f, C)
        except InfeasibleDomain as exc:
            empty += 1
            with pytest.raises(InfeasibleDomain, match=f"^{re.escape(str(exc))}$"):
                minimize_over(f, C)
            continue
        got = minimize_over(f, C)
        assert got.status == "exact-QP"
        assert abs(got.value - want.value) <= 1e-9 * (1.0 + abs(want.value))
        assert feasibility_violation(C, got.witness) <= 1e-9 * (1.0 + C.box_radius)
        assert got.value == evaluate(f, got.witness)
        solved[kind] += 1
        repeats += "repeat" in kinds
        tight += "tight" in kinds
    assert min(solved.values()) > 500 and 100 < empty < 1000
    assert repeats > 100 and tight > 500


@pytest.mark.parametrize("budget", [0, 3])
def test_qp_past_its_pivot_budget_is_a_solver_failure(monkeypatch, budget):
    """x . x over a 3-d box takes 4 complementary pivots: a budget of 0 or 3 ends in SolverFailure, and 4 solves it."""
    f, C = quadratic(np.eye(3)), box_domain(3, 3.0)
    monkeypatch.setattr(simplex, "MAX_PIVOTS", budget)
    with pytest.raises(SolverFailure, match=f"^complementary pivoting did not terminate within {budget} pivots$"):
        minimize_over(f, C)
    monkeypatch.setattr(simplex, "MAX_PIVOTS", 4)
    assert_allclose(minimize_over(f, C).witness, np.zeros(3), atol=1e-12)


def test_qp_ray_leaves_the_verdict_to_feasible_point(monkeypatch):
    """With no pivot entry above PIVOT_TOL every run ends on a ray, and the domain check decides.

    The product-form run ends on a ray after z0 enters, and so does the
    refactored run after its one basis solve.  An empty domain raises
    feasible_point's InfeasibleDomain, message and all; a domain that is not
    empty, whose zero-block LP needs no pivot, makes the ray a
    SolverFailure; and a singular basis in the refactored run is a
    SolverFailure too.
    """
    empty = PolyhedralDomain(1, (((1.0,), -5.0), ((-1.0,), -5.0)), 3.0)
    nonempty = PolyhedralDomain(1, (((1.0,), 1.0),), 3.0)
    solves, solve = [], np.linalg.solve
    monkeypatch.setattr(np.linalg, "solve", lambda *args: solves.append(1) or solve(*args))
    monkeypatch.setattr(simplex, "PIVOT_TOL", 1e300)
    with pytest.raises(InfeasibleDomain) as verdict:
        feasible_point(empty)
    with pytest.raises(InfeasibleDomain, match=f"^{re.escape(str(verdict.value))}$"):
        minimize_over(PARABOLA, empty)
    assert len(solves) == 1
    ray = "complementary pivoting ended on a ray: the quadratic program has no feasible point"
    with pytest.raises(SolverFailure, match=f"^{ray}, yet the domain is not empty$"):
        minimize_over(PARABOLA, nonempty)
    assert len(solves) == 2

    def singular(*args):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(np.linalg, "solve", singular)
    with pytest.raises(SolverFailure, match="^complementary pivoting reached a singular basis$"):
        minimize_over(PARABOLA, nonempty)


def _reference_violation(C, x):
    """The one-point constraint check the batched probe must reproduce."""
    worst = float(np.max(np.abs(x))) - C.box_radius
    for g, h in C.inequalities:
        worst = max(worst, float(g @ x) - h)
    return max(worst, 0.0)


def _reference_membership(f, C, x, m, tol):
    if _reference_violation(C, x) > tol:
        return False
    return evaluate(f, x) <= m + tol


def _reference_gap(f, C, x, m):
    return max(_reference_violation(C, x), evaluate(f, x) - m)


def _reference_extreme_member(f, C, base, v, m, tol):
    """One ray at a time: the scalar bisection the lockstep harvest must reproduce."""
    v = np.asarray(v, dtype=float)
    norm = float(np.linalg.norm(v))
    if norm == 0.0:
        return base
    v = v / norm
    hi = 2.0 * C.box_radius * np.sqrt(C.dim)
    lo = 0.0
    if _reference_membership(f, C, base + hi * v, m, tol):
        return base + hi * v
    for _ in range(argmin.BISECTION_STEPS):
        mid = 0.5 * (lo + hi)
        if _reference_membership(f, C, base + mid * v, m, tol):
            lo = mid
        else:
            hi = mid
    return base + lo * v


def _flat_instance(rng):
    """A flat max-affine function, a rank-deficient quadratic or their sum, on a box cut by 0-3 halfspaces.

    About a third of the quadratics have c = 0 on a bare box, so the
    minimizer is the origin and the first probe ray, -base, is zero.
    """
    d = int(rng.integers(1, 5))
    kind = int(rng.integers(0, 3))
    radius = float(rng.uniform(1.0, 4.0))
    parts = []
    if kind != 1:
        pieces = [(np.zeros(d), 0.0)]
        pieces += [(rng.uniform(-2.0, 2.0, d), -float(rng.uniform(0.2, 2.0))) for _ in range(int(rng.integers(1, 6)))]
        parts.append(max_affine(pieces))
    if kind != 0:
        A = rng.uniform(-1.0, 1.0, (int(rng.integers(0, d)), d))
        centred = rng.integers(0, 3) == 0
        c = np.zeros(d) if centred else A.T @ rng.uniform(-1.0, 1.0, len(A))
        parts.append(quadratic(A.T @ A, c=c))
        if centred:
            return parts[-1], box_domain(d, radius)
    f = parts[0] if len(parts) == 1 else SumFunction(d, tuple(parts))
    centre = rng.uniform(-0.5, 0.5, d) * radius
    cuts = []
    for _ in range(int(rng.integers(0, 4))):
        g = rng.uniform(-1.0, 1.0, d)
        cuts.append((g, float(g @ centre) + float(rng.uniform(0.0, 1.0))))
    return f, PolyhedralDomain(d, tuple(cuts), radius)


def _harvest_base(f, C, cert):
    """Where to harvest from: the origin for a quadratic with c = 0 on a bare box, which minimizes it, else the witness.

    Such a quadratic's minimizers are a face through the origin, and the
    solver may return any point of it; from the origin, lemma3's first probe
    ray, -base, is zero.
    """
    if isinstance(f, Quadratic) and not f.c.any() and not C.inequalities:
        return np.zeros(C.dim)
    return cert.witness


def _member_kinds(got, want, base):
    """Count the members equal to the scalar bisection's, and those settled onto base, failing on any other."""
    exact = settled = 0
    for member, reference in zip(got, want):
        if np.array_equal(member, reference):
            exact += 1
        else:
            assert np.array_equal(member, base)
            assert float(np.linalg.norm(reference - base)) <= argmin.DISTINCT_TOL / 2 + 1e-12
            settled += 1
    return exact, settled


def test_lockstep_harvest_matches_scalar_bisection(monkeypatch):
    """Members, witness and segment checks equal the one-ray-at-a-time code, bit for bit.

    A ray whose bisection can only end within DISTINCT_TOL / 2 of the witness
    settles early and yields the witness, which ``_distinct`` drops as it
    drops that ray's full-bisection member; every other ray's member is the
    scalar bisection's.  The end-to-end checks are compared with the full
    scalar bisection.  The harvest starts from ``_harvest_base`` at the
    certified minimum, lemma3_check's included.
    """
    rng = np.random.default_rng(61)
    zero_rays = exact = settled = 0
    for seed in range(300):
        f, C = _flat_instance(rng)
        tol = argmin.DEFAULT_MEMBERSHIP_TOL
        cert = minimize_over(f, C)
        m, base = cert.value, _harvest_base(f, C, cert)
        probe_rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(34,)))
        probes = [-base, *np.eye(C.dim), *(probe_rng.standard_normal(C.dim) for _ in range(argmin.PROBE_DIRECTIONS))]
        rays = [r for v in probes for r in (v, -v)]
        zero_rays += not np.any(probes[0])
        want = [_reference_extreme_member(f, C, base, v, m, tol) for v in rays]
        kinds = _member_kinds(argmin._extreme_members(f, C, base, np.array(rays), m, tol), want, base)
        exact, settled = exact + kinds[0], settled + kinds[1]
        for x in want[:6]:
            x = x + rng.uniform(-0.5, 0.5, C.dim)
            assert feasibility_violation(C, x) == _reference_violation(C, x)
            assert argmin_membership(f, C, x, m, tol) == _reference_membership(f, C, x, m, tol)

        with monkeypatch.context() as patch:
            patch.setattr(argmin, "minimize_over", lambda f, C: ArgminCertificate(m, base, cert.status))
            result = lemma3_check(f, C, seed=seed, tol=tol)
        members = _unlimited_distinct([base, *want], argmin.DISTINCT_TOL)[: argmin.MAX_MEMBERS]
        if len(members) < 2:
            assert result.status == "skip"
            continue
        witness, segment = result.checks
        assert witness.passed == _reference_membership(f, C, base, m, tol)
        assert witness.gap == _reference_gap(f, C, base, m)
        worst, worst_point = -np.inf, None
        for x, y in itertools.combinations(members, 2):
            for lam in argmin.SEGMENT_LAMBDAS:
                z = lam * x + (1.0 - lam) * y
                gap = _reference_gap(f, C, z, m)
                if gap > worst:
                    worst, worst_point = gap, z
        assert segment.gap == worst
        assert np.array_equal(segment.witness["point"], worst_point)
    assert zero_rays > 0 and exact > 0 and settled > 0


def test_harvest_probes_in_batches(monkeypatch):
    """One batched evaluation per two bisection steps, not one call per point."""
    counts = {"evaluate": 0, "evaluate_many": 0}
    for name in counts:
        original = getattr(functions, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(functions, name, counted)
    result = lemma3_check(FLAT_RECTANGLE, box_domain(2, 3.0), seed=8)
    assert result.status == "pass"
    assert 0 < counts["evaluate_many"] <= argmin.BISECTION_STEPS // 2 + 4
    assert counts["evaluate"] <= 3


def test_default_trials_harvest_in_few_probes(monkeypatch):
    """The first 20 default lemma3 trials: each PD quadratic is skipped after at most 8 batched evaluations.

    A PD quadratic's near-argmin set has a radius near 1e-3, so all its rays
    settle onto the witness within a few rounds; each flat max-affine trial
    bisects in BISECTION_STEPS // 2 rounds and passes.
    """
    counts = []
    evaluate_many, lemma3 = functions.evaluate_many, argmin.lemma3_check

    def counted(*args, **kwargs):
        counts[-1] += 1
        return evaluate_many(*args, **kwargs)

    def check(*args, **kwargs):
        counts.append(0)
        return lemma3(*args, **kwargs)

    monkeypatch.setattr(functions, "evaluate_many", counted)
    monkeypatch.setattr(argmin, "lemma3_check", check)
    report = run_suite("lemma3", RunConfig(trials=20))
    assert [t.status for t in report.trials] == ["pass", "skip"] * 10
    assert max(counts[1::2]) <= 8
    assert max(counts[0::2]) <= argmin.BISECTION_STEPS // 2 + 4


# --- the live-ray harvest against the masked harvest it replaced -------------------


def _masked_extreme_members(f, C, base, V, m, tol):
    """The lockstep harvest over masks of all rays, with tiled directions and gap probes, kept as the bit-exact reference."""
    norms = row_norms(V)
    zero = norms == 0.0
    U = V / np.where(zero, 1.0, norms)[:, None]
    top = 2.0 * C.box_radius * np.sqrt(C.dim)
    reach = argmin._probe(f, C, base + top * U, m, tol)[0]
    lo, hi = np.zeros(len(V)), np.full(len(V), top)
    live = ~zero & ~reach
    for remaining in range(argmin.BISECTION_STEPS, 0, -2):
        live &= hi >= argmin.DISTINCT_TOL / 2
        if not live.any():
            break
        a, b = lo[live], hi[live]
        mid = 0.5 * (a + b)
        t = np.concatenate([mid, 0.5 * (a + mid), 0.5 * (mid + b)])
        inside = argmin._probe(f, C, base + t[:, None] * np.tile(U[live], (3, 1)), m, tol)[0].reshape(3, -1)
        a, b = np.where(inside[0], mid, a), np.where(inside[0], b, mid)
        if remaining > 1:
            inside, mid = np.where(inside[0], inside[2], inside[1]), 0.5 * (a + b)
            a, b = np.where(inside, mid, a), np.where(inside, b, mid)
        lo[live], hi[live] = a, b
    return np.where((live | reach & ~zero)[:, None], base + np.where(reach, top, lo)[:, None] * U, base)


def _unlimited_distinct(points, tol):
    """``_distinct`` before it took a limit, kept as the bit-exact reference."""
    kept = []
    for p in points:
        if all(float(np.linalg.norm(p - q)) > tol for q in kept):
            kept.append(p)
    return kept


@pytest.mark.parametrize("steps", [50])
def test_live_ray_harvest_matches_masked_harvest(monkeypatch, steps):
    """The harvest's members equal the masked harvest's byte for byte, zero and early-settling rays included.

    The rays are lemma3's (the first is zero where the witness is the
    origin) plus an explicit zero ray and random ones.  A bisection probe
    shorter than the one before it shows rays that settled early, which no
    bracket can do within 7 halvings of a box diagonal of at least 2.
    """
    monkeypatch.setattr(argmin, "BISECTION_STEPS", steps)
    heights, members = [], argmin._members
    monkeypatch.setattr(argmin, "_members", lambda f, C, X, m, tol: heights.append(len(X)) or members(f, C, X, m, tol))
    rng = np.random.default_rng(63)
    centred = settled = 0
    for seed in range(60):
        f, C = _flat_instance(rng)
        cert = minimize_over(f, C)
        m, base, tol = cert.value, _harvest_base(f, C, cert), argmin.DEFAULT_MEMBERSHIP_TOL
        probe_rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(34,)))
        probes = np.vstack([-base, np.eye(C.dim), probe_rng.standard_normal((argmin.PROBE_DIRECTIONS, C.dim))])
        rays = np.vstack([np.stack([probes, -probes], axis=1).reshape(-1, C.dim), np.zeros((1, C.dim)), rng.standard_normal((4, C.dim))])
        centred += not np.any(base)  # lemma3's first ray, -base, is zero too
        want = _masked_extreme_members(f, C, base, rays, m, tol)
        heights.clear()
        got = argmin._extreme_members(f, C, base, rays, m, tol)
        assert got.shape == want.shape and got.tobytes() == want.tobytes(), seed
        settled += any(b < a for a, b in zip(heights[1:], heights[2:]))
    assert centred > 0
    assert (settled > 0) == (steps >= 49)


def test_distinct_stops_at_its_limit():
    """``_distinct`` with a limit keeps the first limit points the unlimited one keeps, the same objects, on lists with near-duplicates."""
    rng = np.random.default_rng(64)
    limited = 0
    for _ in range(300):
        d = int(rng.integers(1, 5))
        seeds = rng.uniform(-1.0, 1.0, (int(rng.integers(1, 10)), d))
        picks = seeds[rng.integers(0, len(seeds), int(rng.integers(0, 20)))]
        nudge = rng.uniform(-1.0, 1.0, picks.shape) * argmin.DISTINCT_TOL * rng.choice([0.0, 0.3, 0.9, 2.0], (len(picks), 1))
        points = list(picks + nudge)
        want = _unlimited_distinct(points, argmin.DISTINCT_TOL)
        got = argmin._distinct(points, argmin.DISTINCT_TOL, argmin.MAX_MEMBERS)
        assert len(got) == min(len(want), argmin.MAX_MEMBERS)
        assert all(p is q for p, q in zip(got, want))
        limited += len(want) > argmin.MAX_MEMBERS
    assert 0 < limited < 300


def test_default_harvest_probes_only_live_rays(monkeypatch):
    """On a default lemma3 run, every harvest probes its rays once, then only its live rays, three points each.

    Per trial: at most BISECTION_STEPS // 2 + 1 membership probes, the first
    as tall as the ray count, the later ones multiples of 3 that never grow.
    A harvest that re-probed settled rays or stopped batching fails here.
    """
    trials, members, lemma3 = [], argmin._members, argmin.lemma3_check

    def counted(f, C, X, m, tol):
        trials[-1][1].append(len(X))
        return members(f, C, X, m, tol)

    def check(f, C, *args, **kwargs):
        trials.append((C.dim, []))
        return lemma3(f, C, *args, **kwargs)

    monkeypatch.setattr(argmin, "_members", counted)
    monkeypatch.setattr(argmin, "lemma3_check", check)
    config = RunConfig()
    run_suite("lemma3", config)
    assert len(trials) == config.trials
    for dim, heights in trials:
        assert 0 < len(heights) <= argmin.BISECTION_STEPS // 2 + 1
        assert heights[0] == 2 * (1 + dim + argmin.PROBE_DIRECTIONS)
        later = heights[1:]
        assert all(h > 0 and h % 3 == 0 for h in later)
        assert all(b <= a for a, b in zip(later, later[1:]))
