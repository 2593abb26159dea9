"""Tests for the dense two-phase simplex.

The oracle for random problems is exhaustive vertex enumeration: every basic
point of the constraint system is generated by intersecting n constraint
hyperplanes (rows or bound faces), feasibility-filtered, and the best value
kept.  That is exact for nondegenerate LPs of this size.
"""

import itertools

import numpy as np
import pytest
from numpy.testing import assert_allclose

from convexkit import functions, harness, marginal, simplex
from convexkit.errors import LPInfeasible, SolverFailure
from convexkit.simplex import LPSolution, solve_lp


def test_simple_box_lp():
    # minimize x1 + x2 on [1, 3] x [-2, 5]
    got = solve_lp(np.array([1.0, 1.0]), lower=np.array([1.0, -2.0]), upper=np.array([3.0, 5.0]))
    assert_allclose(got.x, [1.0, -2.0], atol=1e-9)
    assert got.value == pytest.approx(-1.0, abs=1e-9)


def test_equality_constraint():
    # minimize x2 subject to x1 + x2 = 2 in [-5, 5]^2
    got = solve_lp(
        np.array([0.0, 1.0]),
        A_eq=np.array([[1.0, 1.0]]),
        b_eq=np.array([2.0]),
        lower=-5.0 * np.ones(2),
        upper=5.0 * np.ones(2),
    )
    assert got.value == pytest.approx(-3.0, abs=1e-9)
    assert_allclose(got.x, [5.0, -3.0], atol=1e-9)


def test_inequality_constraints():
    # classic diet-style corner: minimize -x1 - 2 x2, x1 + x2 <= 4, x1 <= 3
    got = solve_lp(
        np.array([-1.0, -2.0]),
        A_ub=np.array([[1.0, 1.0], [1.0, 0.0]]),
        b_ub=np.array([4.0, 3.0]),
        lower=np.zeros(2),
        upper=10.0 * np.ones(2),
    )
    assert got.value == pytest.approx(-8.0, abs=1e-9)
    assert_allclose(got.x, [0.0, 4.0], atol=1e-9)


def test_infeasible_rows():
    with pytest.raises(LPInfeasible):
        solve_lp(
            np.array([1.0]),
            A_ub=np.array([[1.0], [-1.0]]),
            b_ub=np.array([-3.0, 2.0]),  # x <= -3 and x >= -2
            lower=np.array([-10.0]),
            upper=np.array([10.0]),
        )


def test_infeasible_box():
    with pytest.raises(LPInfeasible):
        solve_lp(np.array([1.0]), lower=np.array([1.0]), upper=np.array([0.0]))


def test_degenerate_rows_terminate():
    # many redundant copies of the same constraint force degenerate pivots
    A = np.repeat(np.array([[1.0, 1.0]]), 6, axis=0)
    b = np.ones(6)
    got = solve_lp(
        np.array([-1.0, -1.0]),
        A_ub=A,
        b_ub=b,
        lower=np.zeros(2),
        upper=np.ones(2) * 9.0,
    )
    assert got.value == pytest.approx(-1.0, abs=1e-9)


def test_missing_blocking_row_is_a_solver_failure():
    """A column with no blocking row cannot occur on a boxed LP; meeting one is a breakdown."""
    # one row x - s = 1 with s basic; x improves the objective and no row limits it
    T = np.array([[-1.0, 1.0, 1.0]])
    obj = np.array([-1.0, 0.0, 0.0])
    with pytest.raises(SolverFailure):
        simplex._run(T, obj, np.array([1]), np.ones(2, dtype=bool))
    failures = simplex._run_stack(T[None], obj[None], np.array([[1]]), np.ones(2, dtype=bool))
    assert [str(e) for e in failures] == ["no blocking row for the entering column"]


def test_zero_objective_returns_feasible_point():
    got = solve_lp(
        np.zeros(2),
        A_ub=np.array([[1.0, 0.0]]),
        b_ub=np.array([0.5]),
        A_eq=np.array([[0.0, 1.0]]),
        b_eq=np.array([0.25]),
        lower=-np.ones(2),
        upper=np.ones(2),
    )
    assert got.x[0] <= 0.5 + 1e-9
    assert got.x[1] == pytest.approx(0.25, abs=1e-9)


def _enumerate_optimum(c, A_ub, b_ub, A_eq, b_eq, lower, upper):
    """Brute-force vertex oracle: try every n-subset of tight constraints."""
    n = c.shape[0]
    rows = [(a, b) for a, b in zip(A_ub, b_ub)]
    rows += [(a, b) for a, b in zip(A_eq, b_eq)]
    for j in range(n):
        e = np.zeros(n)
        e[j] = 1.0
        rows.append((e, upper[j]))
        rows.append((-e, -lower[j]))
    best = None
    for combo in itertools.combinations(range(len(rows)), n):
        A = np.array([rows[i][0] for i in combo])
        b = np.array([rows[i][1] for i in combo])
        if abs(np.linalg.det(A)) < 1e-9:
            continue
        x = np.linalg.solve(A, b)
        ok = (
            np.all(A_ub @ x <= b_ub + 1e-8)
            and np.all(np.abs(A_eq @ x - b_eq) <= 1e-8)
            and np.all(x >= lower - 1e-8)
            and np.all(x <= upper + 1e-8)
        )
        if ok:
            v = float(c @ x)
            if best is None or v < best:
                best = v
    return best


def test_against_vertex_enumeration_random():
    rng = np.random.default_rng(77)
    solved = 0
    for trial in range(60):
        n = int(rng.integers(2, 4))
        m = int(rng.integers(1, 4))
        c = rng.uniform(-2, 2, n)
        A_ub = rng.uniform(-2, 2, (m, n))
        b_ub = rng.uniform(0.5, 3.0, m)  # origin feasible, so never infeasible
        A_eq = np.zeros((0, n))
        b_eq = np.zeros(0)
        lower = -3.0 * np.ones(n)
        upper = 3.0 * np.ones(n)
        oracle = _enumerate_optimum(c, A_ub, b_ub, A_eq, b_eq, lower, upper)
        got = solve_lp(c, A_ub=A_ub, b_ub=b_ub, lower=lower, upper=upper)
        assert oracle is not None
        assert got.value == pytest.approx(oracle, abs=1e-7)
        assert np.all(A_ub @ got.x <= b_ub + 1e-8)
        solved += 1
    assert solved == 60


def test_against_vertex_enumeration_with_equalities():
    rng = np.random.default_rng(88)
    for trial in range(40):
        n = 3
        c = rng.uniform(-2, 2, n)
        A_eq = rng.uniform(-1, 1, (1, n))
        x0 = rng.uniform(-1, 1, n)
        b_eq = A_eq @ x0  # guaranteed feasible interior point
        A_ub = rng.uniform(-2, 2, (2, n))
        b_ub = A_ub @ x0 + rng.uniform(0.5, 2.0, 2)
        lower = -4.0 * np.ones(n)
        upper = 4.0 * np.ones(n)
        oracle = _enumerate_optimum(c, A_ub, b_ub, A_eq, b_eq, lower, upper)
        got = solve_lp(c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq, lower=lower, upper=upper)
        assert got.value == pytest.approx(oracle, abs=1e-7)
        assert np.abs(A_eq @ got.x - b_eq).max() <= 1e-8


def _degenerate_equality_lp(rng):
    """Small integer LP on [0, 3]^n whose equality rows hold at an integer point x0.

    Inequality rows are tight or one unit slack at x0, so phase 1 often ends
    on a degenerate vertex with an artificial still basic at value zero.
    """
    n = int(rng.integers(2, 5))
    x0 = rng.integers(0, 4, n).astype(float)
    A_eq = rng.integers(-2, 3, (int(rng.integers(1, 3)), n)).astype(float)
    A_ub = rng.integers(-2, 3, (int(rng.integers(0, 3)), n)).astype(float)
    b_ub = A_ub @ x0 + rng.integers(0, 2, A_ub.shape[0])
    c = rng.integers(-3, 4, n).astype(float)
    return c, A_ub, b_ub, A_eq, A_eq @ x0, np.zeros(n), np.full(n, 3.0)


def test_leftover_artificials_are_driven_out():
    """Phase 2 starts with no artificial basic where a structural column can replace it.

    An artificial left basic at zero can take a nonzero value in phase 2, which
    breaks its equality row; about a quarter of these LPs reach that step.
    """
    for seed in range(300):
        c, A_ub, b_ub, A_eq, b_eq, lower, upper = _degenerate_equality_lp(np.random.default_rng(seed))
        oracle = _enumerate_optimum(c, A_ub, b_ub, A_eq, b_eq, lower, upper)
        got = solve_lp(c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq, lower=lower, upper=upper)
        assert got.value == pytest.approx(oracle, abs=1e-7), seed
        assert np.abs(A_eq @ got.x - b_eq).max() <= 1e-8, seed
        assert np.all(A_ub @ got.x <= b_ub + 1e-8), seed
        assert np.all((got.x >= lower - 1e-9) & (got.x <= upper + 1e-9)), seed


def test_determinism():
    rng = np.random.default_rng(5)
    c = rng.uniform(-1, 1, 4)
    A = rng.uniform(-1, 1, (3, 4))
    b = rng.uniform(1, 2, 3)
    kw = dict(A_ub=A, b_ub=b, lower=-2 * np.ones(4), upper=2 * np.ones(4))
    a = solve_lp(c, **kw)
    b2 = solve_lp(c, **kw)
    assert a.value == b2.value
    assert np.array_equal(a.x, b2.x)


def _epigraph_stack(seed):
    """A random lemma2 epigraph LP and a stack of fiber rows b_eq = S^T r, about a fifth far outside the box."""
    rng = np.random.default_rng(seed)
    d = int(rng.integers(2, 7))
    n = int(rng.integers(1, d + 1))
    S = harness.gen_operator(d, n, int(rng.integers(1, min(d, n) + 1)), rng)
    f = harness.gen_coercive_max_affine(d, int(rng.integers(2, 7)), rng)
    if seed % 2:
        f = functions.SumFunction(d, (f, harness.gen_max_affine(d, int(rng.integers(1, 4)), rng)))
    blocks, _ = functions.normal_form(f)
    c, A_ub, b_ub, lower, upper = functions.epigraph(d, blocks, marginal.BOX_RADIUS)
    A_eq = np.hstack([S.T, np.zeros((n, len(blocks)))])
    B_eq = rng.uniform(-2.0, 2.0, (int(rng.integers(2, 30)), d)) @ S
    B_eq[rng.random(len(B_eq)) < 0.2] *= 1e4  # these fibers miss the box, so phase 1 fails
    return c, A_ub, b_ub, A_eq, B_eq, lower, upper


def _degenerate_equality_stack(seed):
    """One of the degenerate equality LPs above with a stack of right-hand sides A_eq @ x0, x0 integer."""
    rng = np.random.default_rng(seed)
    c, A_ub, b_ub, A_eq, _, lower, upper = _degenerate_equality_lp(rng)
    B_eq = rng.integers(0, 4, (int(rng.integers(2, 12)), len(c))) @ A_eq.T
    return c, A_ub, b_ub, A_eq, B_eq.astype(float), lower, upper


def _one_row(c, A_ub, b_ub, A_eq, b_eq, lower, upper):
    try:
        return solve_lp(c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq, lower=lower, upper=upper)
    except (LPInfeasible, SolverFailure) as exc:
        return exc


def _fingerprint(outcome):
    if isinstance(outcome, LPSolution):
        return "LPSolution", outcome.x.tobytes(), repr(outcome.value)
    return type(outcome).__name__, str(outcome)


@pytest.mark.parametrize("max_pivots", [simplex.MAX_PIVOTS, 0, 3])
def test_stacked_solves_match_one_row_solves(monkeypatch, max_pivots):
    """Row i of a stacked solve is the one-row solve of b_eq[i]: x bytes, value, or error type and message."""
    monkeypatch.setattr(simplex, "MAX_PIVOTS", max_pivots)
    kinds = set()
    for seed in range(60):
        c, A_ub, b_ub, A_eq, B_eq, lower, upper = (_epigraph_stack if seed % 3 else _degenerate_equality_stack)(seed)
        stacked = solve_lp(c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=B_eq, lower=lower, upper=upper)
        assert len(stacked) == len(B_eq)
        for b_eq, outcome in zip(B_eq, stacked):
            want = _one_row(c, A_ub, b_ub, A_eq, b_eq, lower, upper)
            assert _fingerprint(outcome) == _fingerprint(want), seed
            kinds.add(type(want).__name__)
    if max_pivots == 0:
        assert kinds == {"SolverFailure"}
    else:
        assert {"LPSolution", "LPInfeasible"} <= kinds


def test_stack_shapes(monkeypatch):
    """Stacks of any height give the one-row outcomes; an empty stack gives none; bounds refuse every row."""
    c, A_ub, b_ub, A_eq, B_eq, lower, upper = _epigraph_stack(15)  # 28 rows, 4 of them infeasible
    want = [_fingerprint(_one_row(c, A_ub, b_ub, A_eq, b_eq, lower, upper)) for b_eq in B_eq]
    for budget in (1, 10_000, 2**15, 2**30):  # stacks of 1, 4, 13 and all 28 rows
        monkeypatch.setattr(simplex, "STACK_FLOATS", budget)
        got = solve_lp(c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=B_eq, lower=lower, upper=upper)
        assert [_fingerprint(o) for o in got] == want
    c, A_eq = np.array([0.0, 1.0]), np.array([[1.0, 1.0]])
    box = dict(lower=-5.0 * np.ones(2), upper=5.0 * np.ones(2))
    [one] = solve_lp(c, A_eq=A_eq, b_eq=[[2.0]], **box)
    assert _fingerprint(one) == _fingerprint(solve_lp(c, A_eq=A_eq, b_eq=[2.0], **box))
    assert solve_lp(c, A_eq=A_eq, b_eq=np.zeros((0, 1)), **box) == []
    empty = solve_lp(c, A_eq=A_eq, b_eq=[[2.0], [3.0]], lower=np.ones(2), upper=np.zeros(2))
    assert [type(e) for e in empty] == [LPInfeasible, LPInfeasible]
