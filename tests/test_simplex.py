"""Tests for the dense two-phase simplex.

The oracle for random problems is exhaustive vertex enumeration: every basic
point of the constraint system is generated by intersecting n constraint
hyperplanes (rows or bound faces), feasibility-filtered, and the best value
kept.  That is exact for nondegenerate LPs of this size.

The bit-exact reference for the lockstep solver is the solver's earlier
one-LP two-phase routine and tableau builder, kept below unchanged but for
reading the tolerances and pivot limit through the module: every row of every
stack must give its x bytes and repr(value), or its error type and message.
The references return their own record, the test-local ``LPSolution``, as
``solve_lp`` answers only with arrays.
The stacked routine as it was before its answers became arrays, with compact
copies of the unfinished rows and a per-row solution, is kept as well: the
runs on a stack of pivot paths must leave each LP the same tableau (its path's
tableau with its own right-hand side), basis and failure byte for byte.  It
reaches the solver's tableau pivot and objective build on stacks of one LP per
tableau, where they do the arithmetic the stacks of LPs had.
"""

import itertools
import tracemalloc
from dataclasses import dataclass

import numpy as np
import pytest
from numpy.testing import assert_allclose

from convexkit import functions, harness, marginal, simplex
from convexkit.errors import DimensionMismatch, LPInfeasible, SolverFailure
from convexkit.simplex import solve_lp


@dataclass(frozen=True)
class LPSolution:
    """One LP's x and value, as the references below return them."""

    x: np.ndarray
    value: float


def test_simple_box_lp():
    # minimize x1 + x2 on [1, 3] x [-2, 5]
    (x,), (value,), (failure,) = solve_lp(np.array([1.0, 1.0]), lower=np.array([1.0, -2.0]), upper=np.array([3.0, 5.0]))
    assert failure is None
    assert_allclose(x, [1.0, -2.0], atol=1e-9)
    assert value == pytest.approx(-1.0, abs=1e-9)


def test_equality_constraint():
    # minimize x2 subject to x1 + x2 = 2 in [-5, 5]^2
    (x,), (value,), (failure,) = solve_lp(
        np.array([0.0, 1.0]),
        A_eq=np.array([[1.0, 1.0]]),
        b_eq=np.array([2.0]),
        lower=-5.0 * np.ones(2),
        upper=5.0 * np.ones(2),
    )
    assert failure is None
    assert value == pytest.approx(-3.0, abs=1e-9)
    assert_allclose(x, [5.0, -3.0], atol=1e-9)


def test_inequality_constraints():
    # classic diet-style corner: minimize -x1 - 2 x2, x1 + x2 <= 4, x1 <= 3
    (x,), (value,), (failure,) = solve_lp(
        np.array([-1.0, -2.0]),
        A_ub=np.array([[1.0, 1.0], [1.0, 0.0]]),
        b_ub=np.array([4.0, 3.0]),
        lower=np.zeros(2),
        upper=10.0 * np.ones(2),
    )
    assert failure is None
    assert value == pytest.approx(-8.0, abs=1e-9)
    assert_allclose(x, [0.0, 4.0], atol=1e-9)


def test_infeasible_rows():
    (x,), (value,), (failure,) = solve_lp(
        np.array([1.0]),
        A_ub=np.array([[1.0], [-1.0]]),
        b_ub=np.array([-3.0, 2.0]),  # x <= -3 and x >= -2
        lower=np.array([-10.0]),
        upper=np.array([10.0]),
    )
    assert isinstance(failure, LPInfeasible) and np.isnan(x).all() and np.isnan(value)


def test_infeasible_box():
    (x,), (value,), (failure,) = solve_lp(np.array([1.0]), lower=np.array([1.0]), upper=np.array([0.0]))
    assert isinstance(failure, LPInfeasible) and np.isnan(x).all() and np.isnan(value)


def test_zero_variable_lp_is_refused():
    """An LP with no variables raises DimensionMismatch, with or without rows."""
    empty = np.zeros(0)
    with pytest.raises(DimensionMismatch):
        solve_lp(empty, lower=empty, upper=empty)
    with pytest.raises(DimensionMismatch):
        solve_lp(empty, A_ub=np.zeros((1, 0)), b_ub=np.array([-1.0]), lower=empty, upper=empty)


def test_constraint_shapes_are_checked():
    """Constraint rows and bounds that do not fit their right-hand sides or the variable count raise DimensionMismatch.

    Bounds of the right shape that are not finite keep their ValueError.
    """
    box = dict(lower=np.zeros(2), upper=np.full(2, 5.0))
    for lower, upper in [(np.zeros(3), np.ones(3)), (np.zeros(2), np.ones(3)), (0.0, np.ones(2)), (np.zeros((1, 2)), np.ones(2))]:
        with pytest.raises(DimensionMismatch):
            solve_lp([-1.0, -1.0], lower=lower, upper=upper)
    with pytest.raises(ValueError, match="finite bounds"):
        solve_lp([-1.0, -1.0], lower=np.zeros(2), upper=[1.0, np.inf])
    with pytest.raises(DimensionMismatch):  # once read as the three rows [1, 0], [0, 0], [1, 0], value -6
        solve_lp([-1.0, -1.0], A_ub=[[1, 0, 0], [0, 1, 0]], b_ub=[1, 1, 1], **box)
    with pytest.raises(DimensionMismatch):
        solve_lp([-1.0, -1.0], A_eq=[[1.0, 1.0, 0.0]], b_eq=[1.0], **box)
    with pytest.raises(DimensionMismatch):  # a stack of two-wide b_eq rows for one equality row
        solve_lp([-1.0, -1.0], A_eq=[[1.0, 1.0]], b_eq=np.ones((3, 2)), **box)
    with pytest.raises(DimensionMismatch):  # neither a stack nor one right-hand side
        solve_lp([-1.0, -1.0], A_eq=[[1.0, 1.0]], b_eq=np.ones((1, 1, 1)), **box)
    assert solve_lp([-1.0, -1.0], A_ub=[[1, 0], [0, 1]], b_ub=[1, 1], **box)[1].tolist() == [-2.0]
    X, values, failures = solve_lp([-1.0, 0.0], A_eq=[[1.0, 1.0]], b_eq=np.ones((3, 1)), **box)
    assert values.tolist() == [-1.0] * 3 and X.shape == (3, 2) and failures == [None] * 3


def test_degenerate_rows_terminate():
    # many redundant copies of the same constraint force degenerate pivots
    A = np.repeat(np.array([[1.0, 1.0]]), 6, axis=0)
    b = np.ones(6)
    (_,), (value,), (failure,) = solve_lp(
        np.array([-1.0, -1.0]),
        A_ub=A,
        b_ub=b,
        lower=np.zeros(2),
        upper=np.ones(2) * 9.0,
    )
    assert failure is None
    assert value == pytest.approx(-1.0, abs=1e-9)


def _lone_tableau(a, rhs):
    """The tableau of the row a x + s = rhs with s basic and the objective -x: columns x, s, guard, rhs."""
    return np.array([[a, 1.0, 0.0, rhs], [-1.0, 0.0, -np.inf, 0.0]])


def _paths(T, basis):
    """The solver's stack of the LPs with per-LP tableaux T and bases basis.

    LPs whose tableaux and bases match outside the last column share a path,
    and each LP's last column is its row of R.
    """
    groups = {}
    for j in range(len(T)):
        groups.setdefault((T[j, :, :-1].tobytes(), basis[j].tobytes()), []).append(j)
    first, ids = [g[0] for g in groups.values()], np.array([j for g in groups.values() for j in g])
    owner = np.array([p for p, g in enumerate(groups.values()) for _ in g], dtype=int)
    return simplex._Stack(T[first, :, :-1], basis[first].copy(), T[ids, :, -1], owner, ids)


def _per_lp(stack):
    """Each LP's tableau, its path's with its own right-hand side as the last column, and its basis, in the order of its id."""
    order = np.argsort(stack.ids)
    path = stack.owner[order]
    return np.concatenate([stack.T[path], stack.R[order, :, None]], axis=2), stack.basis[path]


def _after_reference_run(T):
    """The reference ``_run`` on T's rows and objective without the guard column; its tableau or error."""
    rows, obj, basis = np.delete(T[:-1], 2, axis=1), np.delete(T[-1], 2), np.array([1])
    try:
        _run(rows, obj, basis, np.ones(2, dtype=bool))
    except SolverFailure as exc:
        return exc
    return rows.tobytes(), obj.tobytes(), basis.tobytes()


def test_missing_blocking_row_is_a_solver_failure():
    """A column with no blocking row cannot occur on a boxed LP; meeting one is a breakdown.

    Alone, and in the middle row of a stack whose other rows finish as the
    reference does.  The breakdown tableau is -x + s = 1 with s basic: x
    improves the objective and no row limits it.
    """
    message = "no blocking row for the entering column"
    assert str(_after_reference_run(_lone_tableau(-1.0, 1.0))) == message
    lone = [None]
    simplex._run_stack(_paths(_lone_tableau(-1.0, 1.0)[None], np.array([[1]])), 2, 3, lone)
    assert isinstance(lone[0], SolverFailure) and str(lone[0]) == message

    rows = [(1.0, 1.0), (-1.0, 1.0), (2.0, 3.0)]
    stack = _paths(np.array([_lone_tableau(*r) for r in rows]), np.ones((3, 1), dtype=int))
    failures = [None] * 3
    simplex._run_stack(stack, 2, 3, failures)
    assert failures[0] is None and failures[2] is None
    assert isinstance(failures[1], SolverFailure) and str(failures[1]) == message
    T, basis = _per_lp(stack)
    for i in (0, 2):
        got = np.delete(T[i, :-1], 2, axis=1), np.delete(T[i, -1], 2), basis[i]
        assert tuple(a.tobytes() for a in got) == _after_reference_run(_lone_tableau(*rows[i]))


# --- solve_qp: Lemke's complementary pivoting -------------------------------------


def _complementarity(H, q, A, b, y):
    """The LCP's residuals at y: the least of y and of w = M y + p, and the largest |w_i y_i|."""
    n = len(q)
    w = np.concatenate([H @ y[:n] + A.T @ y[n:] + q, b - A @ y[:n]])
    return min(y.min(), w.min()), float(np.max(np.abs(w * y)))


def test_qp_with_nonnegative_p_is_solved_by_zero(monkeypatch):
    """Where q >= 0 and b >= 0, z = 0 with zero multipliers solves the QP, and no pivot is made."""
    monkeypatch.setattr(simplex, "MAX_PIVOTS", 0)
    y, failure = simplex.solve_qp(np.eye(2), np.array([1.0, 0.0]), np.array([[1.0, -1.0]]), np.array([0.0]))
    assert failure is None and y.tolist() == [0.0, 0.0, 0.0]


def test_qp_tie_that_z0_wins(monkeypatch):
    """min |z|^2 / 2 - z1 - z2 subject to z2 <= z1, z >= 0: the free minimizer (1, 1) lies on the row.

    So the covering variable z0 ties with that row's slack in the ratio test,
    leaves, and ends the run after three pivots; the lexicographic rule alone
    lets the slack leave and takes a fourth.
    """
    monkeypatch.setattr(simplex, "MAX_PIVOTS", 3)
    y, failure = simplex.solve_qp(np.eye(2), np.array([-1.0, -1.0]), np.array([[-1.0, 1.0]]), np.array([0.0]))
    assert failure is None and y.tolist() == [1.0, 1.0, 0.0]


def test_qp_with_duplicated_rows():
    """min |z - 1|^2 / 2 subject to z1 + z2 <= 1 given twice: z = (1/2, 1/2), and the two rows share the multiplier 1/2.

    Then 200 random QPs whose rows repeat: each answer satisfies the LCP.
    """
    A = np.array([[1.0, 1.0], [1.0, 1.0]])
    y, failure = simplex.solve_qp(np.eye(2), np.array([-1.0, -1.0]), A, np.array([1.0, 1.0]))
    assert failure is None
    assert_allclose(y[:2], [0.5, 0.5], atol=1e-15)
    assert y[2:].min() >= 0.0 and y[2:].sum() == pytest.approx(0.5, abs=1e-15)
    rng = np.random.default_rng(71)
    for _ in range(200):
        n = int(rng.integers(1, 5))
        U = rng.uniform(-1.0, 1.0, (int(rng.integers(0, n + 1)), n))
        rows = rng.uniform(-1.0, 1.0, (int(rng.integers(1, 4)), n))
        A = np.vstack([rows, rows[rng.integers(0, len(rows), int(rng.integers(1, 3)))], np.eye(n)])
        b = np.concatenate([rng.uniform(0.0, 2.0, len(A) - n), np.full(n, 3.0)])
        H, q = U.T @ U, rng.uniform(-2.0, 2.0, n)
        y, failure = simplex.solve_qp(H, q, A, b)
        assert failure is None
        least, product = _complementarity(H, q, A, b, y)
        assert least >= -1e-12 and product <= 1e-12, (least, product)


def test_zero_objective_returns_feasible_point():
    (x,), _, (failure,) = solve_lp(
        np.zeros(2),
        A_ub=np.array([[1.0, 0.0]]),
        b_ub=np.array([0.5]),
        A_eq=np.array([[0.0, 1.0]]),
        b_eq=np.array([0.25]),
        lower=-np.ones(2),
        upper=np.ones(2),
    )
    assert failure is None
    assert x[0] <= 0.5 + 1e-9
    assert x[1] == pytest.approx(0.25, abs=1e-9)


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
        (x,), (value,), (failure,) = solve_lp(c, A_ub=A_ub, b_ub=b_ub, lower=lower, upper=upper)
        assert oracle is not None and failure is None
        assert value == pytest.approx(oracle, abs=1e-7)
        assert np.all(A_ub @ x <= b_ub + 1e-8)
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
        (x,), (value,), (failure,) = solve_lp(c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq, lower=lower, upper=upper)
        assert failure is None
        assert value == pytest.approx(oracle, abs=1e-7)
        assert np.abs(A_eq @ x - b_eq).max() <= 1e-8


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
        (x,), (value,), (failure,) = solve_lp(c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq, lower=lower, upper=upper)
        assert failure is None, seed
        assert value == pytest.approx(oracle, abs=1e-7), seed
        assert np.abs(A_eq @ x - b_eq).max() <= 1e-8, seed
        assert np.all(A_ub @ x <= b_ub + 1e-8), seed
        assert np.all((x >= lower - 1e-9) & (x <= upper + 1e-9)), seed


def test_determinism():
    rng = np.random.default_rng(5)
    c = rng.uniform(-1, 1, 4)
    A = rng.uniform(-1, 1, (3, 4))
    b = rng.uniform(1, 2, 3)
    kw = dict(A_ub=A, b_ub=b, lower=-2 * np.ones(4), upper=2 * np.ones(4))
    X, values, failures = solve_lp(c, **kw)
    X2, values2, failures2 = solve_lp(c, **kw)
    assert failures == failures2 == [None]
    assert values[0] == values2[0]
    assert np.array_equal(X[0], X2[0])


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
    c, A_ub, b_ub, A_eq, lower, upper = functions.epigraph(d, blocks, marginal.BOX_RADIUS, (), S.T)
    B_eq = rng.uniform(-2.0, 2.0, (int(rng.integers(2, 30)), d)) @ S
    B_eq[rng.random(len(B_eq)) < 0.2] *= 1e4  # these fibers miss the box, so phase 1 fails
    return c, A_ub, b_ub, A_eq, B_eq, lower, upper


def _degenerate_equality_stack(seed):
    """One of the degenerate equality LPs above with a stack of right-hand sides A_eq @ x0, x0 integer."""
    rng = np.random.default_rng(seed)
    c, A_ub, b_ub, A_eq, _, lower, upper = _degenerate_equality_lp(rng)
    B_eq = rng.integers(0, 4, (int(rng.integers(2, 12)), len(c))) @ A_eq.T
    return c, A_ub, b_ub, A_eq, B_eq.astype(float), lower, upper


# --- the reference: the one-LP two-phase routine, as the solver had it ----------


def _pivot(T: np.ndarray, obj: np.ndarray, basis: np.ndarray, row: int, col: int) -> None:
    T[row] = T[row] / T[row, col]
    factors = T[:, col].copy()
    factors[row] = 0.0
    T -= np.outer(factors, T[row])
    obj -= obj[col] * T[row]
    basis[row] = col


def _build_objective(cost: np.ndarray, T: np.ndarray, basis: np.ndarray) -> np.ndarray:
    obj = np.append(cost, 0.0)
    for i, b in enumerate(basis):
        if obj[b] != 0.0:
            obj = obj - obj[b] * T[i]
    return obj


def _run(T: np.ndarray, obj: np.ndarray, basis: np.ndarray, allowed: np.ndarray) -> None:
    for _ in range(simplex.MAX_PIVOTS):
        eligible = np.where(allowed & (obj[:-1] < -simplex.PIVOT_TOL))[0]
        if eligible.size == 0:
            return
        col = int(eligible[0])  # Bland: smallest eligible index enters
        column = T[:, col]
        rows = np.where(column > simplex.PIVOT_TOL)[0]
        if rows.size == 0:
            # every variable is boxed, so only a numerical breakdown gets here
            raise SolverFailure("no blocking row for the entering column")
        ratios = T[rows, -1] / column[rows]
        best = float(np.min(ratios))
        ties = rows[ratios <= best + 1e-12 * (1.0 + abs(best))]
        row = int(ties[np.argmin(basis[ties])])  # Bland: smallest basic index leaves
        _pivot(T, obj, basis, row, col)
    raise SolverFailure(f"simplex did not terminate within {simplex.MAX_PIVOTS} pivots")


def _solution(T: np.ndarray, basis: np.ndarray, c: np.ndarray, lower: np.ndarray) -> LPSolution:
    z = np.zeros(T.shape[1] - 1)
    z[basis] = T[:, -1]
    x = z[: c.shape[0]] + lower
    return LPSolution(x=x, value=float(c @ x))


def _solve_one(T, basis, c, lower, n_art) -> LPSolution:
    """The two phases on one tableau, modified in place; raises LPInfeasible or SolverFailure."""
    m, total = T.shape[0], T.shape[1] - 1
    structural = total - n_art
    allowed = np.arange(total) < structural  # artificials never enter

    # phase 1: minimize the artificial sum
    if n_art:
        cost1 = np.zeros(total)
        cost1[structural:] = 1.0
        obj = _build_objective(cost1, T, basis)
        _run(T, obj, basis, allowed)
        if -obj[-1] > simplex.FEAS_TOL:
            raise LPInfeasible(f"phase 1 optimum {-obj[-1]:.3e} above feasibility tolerance")
        # drive leftover artificials out of the basis where possible
        for i in range(m):
            if basis[i] >= structural:
                pivots = np.where(np.abs(T[i, :structural]) > simplex.PIVOT_TOL)[0]
                if pivots.size:
                    _pivot(T, obj, basis, i, int(pivots[0]))
                # else: redundant row; its artificial stays basic at value zero

    # phase 2: original objective on the shifted variables
    cost2 = np.zeros(total)
    cost2[: c.shape[0]] = c
    obj = _build_objective(cost2, T, basis)
    _run(T, obj, basis, allowed)
    return _solution(T, basis, c, lower)


def _tableaux(c, A_ub, b_ub, A_eq, B_eq, lower, upper):
    """The starting tableaux of the LPs, one per row of B_eq, and their shared basis and artificial count."""
    n = c.shape[0]
    # shift to z = x - lower, append upper-bound rows z <= upper - lower
    width = upper - lower
    rows_ub = np.vstack([A_ub, np.eye(n)])
    rhs_ub = np.concatenate([b_ub - A_ub @ lower, width])
    rhs_eq = B_eq - A_eq @ lower

    m_ub, m_eq = rows_ub.shape[0], A_eq.shape[0]
    m = m_ub + m_eq
    structural = n + m_ub
    # rows whose slack is unusable as an initial basic variable get an artificial:
    # every equality row, and every flipped inequality row (the same rows in every tableau)
    basis = np.arange(n, n + m)
    art_rows = np.flatnonzero(np.concatenate([rhs_ub < 0, np.ones(m_eq, dtype=bool)]))
    basis[art_rows] = structural + np.arange(art_rows.size)

    T = np.zeros((len(B_eq), m, structural + art_rows.size + 1))
    T[:, :, :structural] = np.vstack([np.hstack([rows_ub, np.eye(m_ub)]), np.hstack([A_eq, np.zeros((m_eq, m_ub))])])
    T[:, :m_ub, -1] = rhs_ub
    T[:, m_ub:, -1] = rhs_eq
    # flip rows with negative right-hand side
    neg = T[:, :, -1] < 0
    T[neg] *= -1.0
    T[:, :, structural:-1] = np.eye(m)[:, art_rows]
    return T, basis, art_rows.size


def _outcome(T, basis, c, lower, n_art):
    """``_solve_one``'s solution, or the error it raised."""
    try:
        return _solve_one(T, basis.copy(), c, lower, n_art)
    except (LPInfeasible, SolverFailure) as exc:
        return exc


def _reference(c, A_ub, b_ub, A_eq, b_eq, lower, upper):
    """The reference outcome of the LP with right-hand side b_eq: its LPSolution or its error."""
    n = c.shape[0]
    if np.any(upper < lower):
        return LPInfeasible("empty box: some upper bound is below its lower bound")
    A_ub = np.zeros((0, n)) if A_ub is None else A_ub
    b_ub = np.zeros(0) if b_ub is None else b_ub
    T, basis, n_art = _tableaux(c, A_ub, b_ub, A_eq, np.reshape(b_eq, (1, -1)), lower, upper)
    return _outcome(T[0], basis, c, lower, n_art)


# --- stacked solves against the reference ---------------------------------------


def _one_row(c, A_ub, b_ub, A_eq, b_eq, lower, upper):
    """solve_lp's 1-D b_eq call, a stack of one: its solution, or its error."""
    [outcome] = _outcomes(*solve_lp(c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq, lower=lower, upper=upper))
    return outcome


def _fingerprint(outcome):
    if isinstance(outcome, LPSolution):
        return "LPSolution", outcome.x.tobytes(), repr(outcome.value)
    return type(outcome).__name__, str(outcome)


def _outcomes(X, values, failures):
    """A stacked solve's arrays as one outcome per row: its LPSolution, or its error; a failed row holds NaN."""
    assert len(X) == len(values) == len(failures)
    assert all(np.isnan(X[i]).all() and np.isnan(values[i]) for i, f in enumerate(failures) if f is not None)
    return [LPSolution(x, float(v)) if f is None else f for x, v, f in zip(X, values, failures)]


@pytest.mark.parametrize("max_pivots", [simplex.MAX_PIVOTS, 0, 3])
def test_stacked_solves_match_one_row_solves(monkeypatch, max_pivots):
    """Row i of a stacked solve, and the 1-D call on b_eq[i], give the reference outcome of b_eq[i].

    With MAX_PIVOTS = 0 every row fails phase 1, so every phase-2 stack is empty.
    """
    monkeypatch.setattr(simplex, "MAX_PIVOTS", max_pivots)
    kinds = set()
    for seed in range(60):
        c, A_ub, b_ub, A_eq, B_eq, lower, upper = (_epigraph_stack if seed % 3 else _degenerate_equality_stack)(seed)
        stacked = _outcomes(*solve_lp(c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=B_eq, lower=lower, upper=upper))
        assert len(stacked) == len(B_eq)
        for b_eq, outcome in zip(B_eq, stacked):
            want = _reference(c, A_ub, b_ub, A_eq, b_eq, lower, upper)
            assert _fingerprint(outcome) == _fingerprint(want), seed
            assert _fingerprint(_one_row(c, A_ub, b_ub, A_eq, b_eq, lower, upper)) == _fingerprint(want), seed
            kinds.add(type(want).__name__)
    if max_pivots == 0:
        assert kinds == {"SolverFailure"}
    else:
        assert {"LPSolution", "LPInfeasible"} <= kinds


def _objective_from_costs(cost: np.ndarray, T: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """``_build_objective`` with each basic cost read from ``cost``, as the solver's ``_set_objective`` reads it."""
    obj = np.append(cost, 0.0)
    for i, b in enumerate(basis):
        if cost[b] != 0.0:
            obj = obj - cost[b] * T[i]
    return obj


@pytest.mark.parametrize("max_pivots", [simplex.MAX_PIVOTS, 3, 0])
def test_artificial_columns_are_write_only_in_the_reference(monkeypatch, max_pivots):
    """The reference gives its outcome with every artificial column NaN from the start.

    So no pivot choice, ratio test, drive-out or solution reads them, which is
    why the solver stores none.  The reference's objective build reads a basic
    artificial's objective entry, which the unit columns keep at its cost; the
    NaN runs read that cost from the cost vector instead, as the solver does.
    """
    monkeypatch.setattr(simplex, "MAX_PIVOTS", max_pivots)
    for seed in range(60):
        c, A_ub, b_ub, A_eq, B_eq, lower, upper = (_epigraph_stack if seed % 3 else _degenerate_equality_stack)(seed)
        T, basis, n_art = _tableaux(c, A_ub, b_ub, A_eq, B_eq, lower, upper)
        assert n_art, seed
        want = [_fingerprint(_outcome(t.copy(), basis, c, lower, n_art)) for t in T]
        T[:, :, -1 - n_art : -1] = np.nan
        with monkeypatch.context() as patch:
            patch.setitem(globals(), "_build_objective", _objective_from_costs)
            assert [_fingerprint(_outcome(t, basis, c, lower, n_art)) for t in T] == want, seed


def test_phase_one_tableaux_match_reference():
    """Tableau, objective row and basis equal the reference's byte for byte, zero signs included.

    Checked for the starting tableaux, the phase-1 objective and the tableaux
    after phase 1, once the guard column, the objective row and the
    reference's artificial columns, which the solver does not store, are set aside.
    """
    for seed in range(30):
        c, A_ub, b_ub, A_eq, B_eq, lower, upper = (_epigraph_stack if seed % 3 else _degenerate_equality_stack)(seed)
        stack, n_art = simplex._tableaux(c, A_ub, b_ub, A_eq, B_eq, lower, upper)
        T, basis = _per_lp(stack)
        ref_T, ref_basis, ref_n_art = _tableaux(c, A_ub, b_ub, A_eq, B_eq, lower, upper)
        structural = T.shape[2] - 2  # the guard's column
        artificials = np.arange(structural, structural + n_art)  # the reference's artificial columns
        rows = np.delete(T[:, :-1], structural, axis=2)
        assert n_art == ref_n_art and rows.tobytes() == np.delete(ref_T, artificials, axis=2).tobytes(), seed
        assert np.array_equal(basis, np.tile(ref_basis + (ref_basis >= structural), (len(B_eq), 1))), seed
        if not n_art:
            continue
        cost = np.zeros(structural + 1 + n_art)
        cost[structural], cost[structural + 1 :] = -np.inf, 1.0
        simplex._set_objective(stack, cost)
        start = _per_lp(stack)[0][:, -1]
        failures = [None] * len(B_eq)
        simplex._run_stack(stack, structural, cost.size, failures)
        T, basis = _per_lp(stack)
        for j in range(len(B_eq)):
            t, b = ref_T[j], ref_basis.copy()
            obj = _build_objective(np.delete(cost, structural), t, b)
            assert np.delete(start[j], structural).tobytes() == np.delete(obj, artificials).tobytes(), seed
            try:
                _run(t, obj, b, np.arange(t.shape[1] - 1) < structural)
            except SolverFailure as exc:
                assert str(failures[j]) == str(exc), seed
            else:
                assert failures[j] is None, seed
            assert np.delete(T[j, :-1], structural, axis=1).tobytes() == np.delete(t, artificials, axis=1).tobytes(), seed
            assert np.delete(T[j, -1], structural).tobytes() == np.delete(obj, artificials).tobytes(), seed
            assert np.array_equal(basis[j], b + (b >= structural)), seed


def test_stack_shapes(monkeypatch):
    """Stacks of any height give the reference outcomes; an empty stack gives none; bounds refuse every row.

    The chunk heights include a trailing chunk of one row, and a run whose
    chunks all fail phase 1, which leaves every phase-2 stack empty.
    """
    heights = []
    solve_stack = simplex._solve_stack
    monkeypatch.setattr(simplex, "_solve_stack", lambda stack, *rest: heights.append(len(stack.ids)) or solve_stack(stack, *rest))
    c, A_ub, b_ub, A_eq, B_eq, lower, upper = _epigraph_stack(15)  # 28 rows, 4 of them infeasible
    lp = dict(A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, lower=lower, upper=upper)
    want = [_fingerprint(_reference(c, A_ub, b_ub, A_eq, b_eq, lower, upper)) for b_eq in B_eq]
    chunks = {1: [1] * 28, 5_000: [3] * 9 + [1], 2**15: [24, 4], 2**30: [28]}
    for budget, expected in chunks.items():
        monkeypatch.setattr(simplex, "STACK_FLOATS", budget)
        heights.clear()
        assert [_fingerprint(o) for o in _outcomes(*solve_lp(c, b_eq=B_eq, **lp))] == want
        assert heights == expected
    far = 1e4 * B_eq  # every fiber misses the box
    want = [_fingerprint(_reference(c, A_ub, b_ub, A_eq, b_eq, lower, upper)) for b_eq in far]
    got = _outcomes(*solve_lp(c, b_eq=far, **lp))
    assert {type(o) for o in got} == {LPInfeasible}
    assert [_fingerprint(o) for o in got] == want

    c, A_eq = np.array([0.0, 1.0]), np.array([[1.0, 1.0]])
    box = dict(lower=-5.0 * np.ones(2), upper=5.0 * np.ones(2))
    [one] = _outcomes(*solve_lp(c, A_eq=A_eq, b_eq=[[2.0]], **box))
    reference = _fingerprint(_reference(c, None, None, A_eq, np.array([2.0]), **box))
    assert _fingerprint(one) == _fingerprint(_one_row(c, None, None, A_eq, [2.0], **box)) == reference
    X, values, failures = solve_lp(c, A_eq=A_eq, b_eq=np.zeros((0, 1)), **box)
    assert X.shape == (0, 2) and values.shape == (0,) and failures == []
    empty = _outcomes(*solve_lp(c, A_eq=A_eq, b_eq=[[2.0], [3.0]], lower=np.ones(2), upper=np.zeros(2)))
    assert [type(e) for e in empty] == [LPInfeasible, LPInfeasible]


# --- the reference: the stacked routine with compact copies and per-row solutions --


def _pivot_tableaux(T, basis, s, row, col, column) -> None:
    """The solver's pivot on tableaux that hold one LP each."""
    simplex._pivot_stack(T, basis, s, row, col, column, np.zeros((0, T.shape[1])), np.zeros(0, dtype=int))


def _objective_on_tableaux(T, basis, cost) -> None:
    """The solver's objective build on tableaux that hold one LP each, split into a stack and written back."""
    stack = simplex._Stack(T[:, :, :-1].copy(), basis, T[:, :, -1].copy(), np.arange(len(T)), np.arange(len(T)))
    simplex._set_objective(stack, cost)
    T[:, :, :-1], T[:, :, -1] = stack.T, stack.R


def _compact_run_stack(T, basis, structural, columns) -> list:
    """The lockstep run as the solver had it: compact copies of the unfinished rows, stopped rows written back."""
    failures = [None] * len(T)
    if not failures:
        return failures
    live = np.arange(len(T))
    t, b, s = T, basis, live
    obj, rhs = t[:, -1, : structural + 1], t[:, :-1, -1]
    no_ratios = np.full(rhs.shape, np.nan)
    for _ in range(simplex.MAX_PIVOTS):
        col = (obj < -simplex.PIVOT_TOL).argmax(axis=1)
        column = t[s, :, col]
        entries = column[:, :-1]
        ratios = np.divide(rhs, entries, out=no_ratios[: live.size].copy(), where=entries > simplex.PIVOT_TOL)
        least = np.fmin.reduce(ratios, axis=1)
        bound = least + 1e-12 * (1.0 + np.abs(least))
        stop = np.isnan(bound)
        if stop.any():
            for j, entering in enumerate(col.tolist()):
                if stop[j] and entering < structural:
                    failures[live[j]] = SolverFailure("no blocking row for the entering column")
            if t is not T:
                T[live[stop]], basis[live[stop]] = t[stop], b[stop]
            if stop.all():
                return failures
            keep = ~stop
            live, t, b, col, column, ratios, bound = (a[keep] for a in (live, t, b, col, column, ratios, bound))
            s = s[: live.size]
            obj, rhs = t[:, -1, : structural + 1], t[:, :-1, -1]
        ties = ratios <= bound[:, None]
        row = np.where(ties, b, columns).argmin(axis=1)
        _pivot_tableaux(t, b, s, row, col, column)
    for j in live:
        failures[j] = SolverFailure(f"simplex did not terminate within {simplex.MAX_PIVOTS} pivots")
    T[live], basis[live] = t, b
    return failures


def _row_solution(T, basis, columns, c, lower) -> LPSolution:
    """One finished tableau's x and value, read row by row as the solver had it."""
    z = np.zeros(columns)
    z[basis] = T[:-1, -1]
    x = z[: c.shape[0]] + lower
    return LPSolution(x=x, value=float(c @ x))


def _compact_solve_stack(T, basis, n_art, c, lower) -> list:
    """The two phases as the solver had them, with the two references above; the outcome per row."""
    k, structural, columns = T.shape[0], T.shape[2] - 2, T.shape[2] - 1 + n_art
    cost = np.zeros(columns)
    cost[structural] = -np.inf
    outcomes = [None] * k
    ids = np.arange(k)
    if n_art:
        _objective_on_tableaux(T, basis, np.concatenate([cost[: structural + 1], np.ones(n_art)]))
        for s, failure in enumerate(_compact_run_stack(T, basis, structural, columns)):
            if failure is None and -T[s, -1, -1] > simplex.FEAS_TOL:
                failure = LPInfeasible(f"phase 1 optimum {-T[s, -1, -1]:.3e} above feasibility tolerance")
            outcomes[s] = failure
        ids = np.array([s for s in range(k) if outcomes[s] is None], dtype=int)
        if len(ids) < k:
            T, basis = T[ids], basis[ids]
        for i in (basis > structural).any(axis=0).nonzero()[0]:
            pivots = np.abs(T[:, i, :structural]) > simplex.PIVOT_TOL
            rows = np.flatnonzero((basis[:, i] > structural) & pivots.any(axis=1))
            if rows.size:
                t, b, s = T[rows], basis[rows], np.arange(rows.size)
                col = pivots[rows].argmax(axis=1)
                _pivot_tableaux(t, b, s, np.full(rows.size, i), col, t[s, :, col])
                T[rows], basis[rows] = t, b
    cost[: c.shape[0]] = c
    _objective_on_tableaux(T, basis, cost)
    for s, failure in enumerate(_compact_run_stack(T, basis, structural, columns)):
        outcomes[ids[s]] = failure if failure is not None else _row_solution(T[s], basis[s], columns, c, lower)
    return outcomes


@pytest.mark.parametrize("max_pivots", [simplex.MAX_PIVOTS, 0, 3])
def test_in_place_runs_and_array_answers_match_compact_copies(monkeypatch, max_pivots):
    """Every run leaves T, basis and failures as the compact-copy run does, and every answer is the per-row one.

    Each ``_run_stack`` call of the stacked solves, phase 1 and phase 2 alike,
    is checked byte for byte against ``_compact_run_stack`` on copies of its
    input, and the stacked arrays against ``_compact_solve_stack``'s per-row
    solutions, on stacks with infeasible rows and, under small MAX_PIVOTS,
    SolverFailure rows.  A stack whose rows break down at different pivots,
    after other rows have moved, is run as well.
    """
    monkeypatch.setattr(simplex, "MAX_PIVOTS", max_pivots)
    run, kinds = simplex._run_stack, set()

    def checked(stack, structural, columns, failures):
        t, b = _per_lp(stack)
        want = _compact_run_stack(t, b, structural, columns)
        ids, before = sorted(stack.ids.tolist()), list(failures)
        run(stack, structural, columns, failures)
        T, basis = _per_lp(stack)
        assert T.tobytes() == t.tobytes() and basis.tobytes() == b.tobytes()
        assert [_fingerprint(failures[j]) for j in ids] == [_fingerprint(f) for f in want]
        assert all(failures[j] is before[j] for j in set(range(len(failures))) - set(ids))  # the other LPs' entries stay
        kinds.update(type(failures[j]).__name__ for j in ids)

    monkeypatch.setattr(simplex, "_run_stack", checked)
    for seed in range(60):
        c, A_ub, b_ub, A_eq, B_eq, lower, upper = (_epigraph_stack if seed % 3 else _degenerate_equality_stack)(seed)
        got = _outcomes(*solve_lp(c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=B_eq, lower=lower, upper=upper))
        stack, n_art = simplex._tableaux(c, A_ub, b_ub, A_eq, B_eq, lower, upper)
        want = _compact_solve_stack(*_per_lp(stack), n_art, c, lower)
        assert [_fingerprint(o) for o in got] == [_fingerprint(o) for o in want], seed
        kinds.update(type(o).__name__ for o in got)
    # x1 + s1 = 1, a x2 + s2 = 1, objective c1 x1 - x2: with c1 = -1 a row pivots twice, with c1 = 1 once,
    # and a < 0 makes its last entering column a breakdown, so rows stop at pivots 1 to 3 and break down after moves
    rng = np.random.default_rng(3)
    stack = np.array([[[1.0, 0.0, 1.0, 0.0, 0.0, 1.0], [0.0, a, 0.0, 1.0, 0.0, 1.0], [c1, -1.0, 0.0, 0.0, -np.inf, 0.0]]
                      for c1, a in zip(rng.choice([-1.0, 1.0], 40), rng.choice([-1.0, 0.5, 2.0], 40))])
    checked(_paths(stack, np.tile([2, 3], (40, 1))), 4, 5, [None] * 40)
    assert "SolverFailure" in kinds and ("NoneType" in kinds or max_pivots == 0)
    if max_pivots:
        assert "LPInfeasible" in kinds


def test_runs_start_from_the_compact_tableaux(monkeypatch):
    """Each run of a stacked solve starts every LP on the tableau and basis that ``_compact_solve_stack`` gives it.

    Phase 2 starts after the drive-out of leftover artificials, whose pivot
    entry can be negative: a zero right-hand side then divides to -0.0, which
    the pivot writes as +0.0, on a tableau and on a row of R alike.
    """
    run, compact, starts, reference_starts = simplex._run_stack, _compact_run_stack, [], []

    def solver_run(stack, structural, columns, failures):
        starts.append([a.tobytes() for a in _per_lp(stack)])
        run(stack, structural, columns, failures)

    def reference_run(T, basis, structural, columns):
        reference_starts.append([T.tobytes(), basis.tobytes()])
        return compact(T, basis, structural, columns)

    monkeypatch.setattr(simplex, "_run_stack", solver_run)
    monkeypatch.setitem(globals(), "_compact_run_stack", reference_run)
    for seed in range(60):
        c, A_ub, b_ub, A_eq, B_eq, lower, upper = (_shared_path_stack, _degenerate_equality_stack, _epigraph_stack)[seed % 3](seed)
        starts.clear()
        reference_starts.clear()
        solve_lp(c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=B_eq, lower=lower, upper=upper)
        stack, n_art = simplex._tableaux(c, A_ub, b_ub, A_eq, B_eq, lower, upper)
        _compact_solve_stack(*_per_lp(stack), n_art, c, lower)
        assert len(starts) == 2 and starts == reference_starts, seed


def test_default_lemma2_stacks_are_one_run(monkeypatch):
    """Every LP stack of a default lemma2 run is its gap check's 3 * MIDPOINT_PAIRS queries, taken as one stack.

    A change that grew the tableaux past STACK_FLOATS would split them, and fail here.
    """
    heights = []
    solve_stack = simplex._solve_stack
    monkeypatch.setattr(simplex, "_solve_stack", lambda stack, *rest: heights.append(len(stack.ids)) or solve_stack(stack, *rest))
    harness.run_suite("lemma2", harness.RunConfig())
    assert heights and set(heights) == {3 * marginal.MIDPOINT_PAIRS}


def test_default_lemma2_pivots_share_tableaux(monkeypatch):
    """A default lemma2 run pivots one tableau per pivot path, not one per LP.

    Summed over the lockstep steps of ``run_suite("lemma2")``, the tableaux
    pivoted stay under 15% of the running LPs (12.1% at seed 42); a stack of
    one tableau per LP would pivot 100%.
    """
    pivot, run, counts = simplex._pivot_stack, simplex._run_stack, {"tableaux": 0, "lps": 0, "steps": 0}

    def counted(T, basis, s, row, col, column, R, owner):
        counts["tableaux"] += len(T)
        counts["lps"] += len(R)
        counts["steps"] += 1
        return pivot(T, basis, s, row, col, column, R, owner)

    def lockstep(*args):
        monkeypatch.setattr(simplex, "_pivot_stack", counted)
        try:
            return run(*args)
        finally:
            monkeypatch.setattr(simplex, "_pivot_stack", pivot)

    monkeypatch.setattr(simplex, "_run_stack", lockstep)
    harness.run_suite("lemma2", harness.RunConfig())
    assert counts["steps"] > 1000, counts
    assert counts["tableaux"] < 0.15 * counts["lps"], counts


def test_lemma2_pivots_at_dimension_24(monkeypatch):
    """A lemma2 run at dimension 24 makes at most 11,928 LP pivots, the most under the four BLAS kernels.

    Summed over the ``_pivot_stack`` calls of ``run_suite("lemma2")`` with 4
    trials, one pivot per LP a call: 11,923 under SkylakeX, 11,928 under
    Haswell and 11,922 under SandyBridge and Prescott.  The default suites
    draw dimensions of at most 6, too small to show a pivot count that grows
    with the dimension.
    """
    pivot, pivots = simplex._pivot_stack, []

    def counted(T, basis, s, row, col, column, R, owner):
        pivots.append(len(R))
        return pivot(T, basis, s, row, col, column, R, owner)

    monkeypatch.setattr(simplex, "_pivot_stack", counted)
    harness.run_suite("lemma2", harness.RunConfig(trials=4, dim=24))
    assert 0 < sum(pivots) <= 11_928, sum(pivots)


def _shared_path_stack(seed):
    """A degenerate equality LP with a stack of right-hand sides A_eq @ x0 of both signs, x0 integer in [0, 3]^n.

    The first rows are 40 times others: they miss the box and keep those
    rows' signs, so each fails phase 1 while other LPs on its path pass.
    """
    rng = np.random.default_rng(seed)
    c, A_ub, b_ub, A_eq, _, lower, upper = _degenerate_equality_lp(rng)
    B_eq = rng.integers(0, 4, (int(rng.integers(8, 30)), len(c))) @ A_eq.T
    return c, A_ub, b_ub, A_eq, np.concatenate([40.0 * B_eq[:3], B_eq]).astype(float), lower, upper


@pytest.mark.parametrize("max_pivots", [simplex.MAX_PIVOTS, 0, 3])
def test_shared_path_solves_match_reference(monkeypatch, max_pivots):
    """LPs that share tableaux give the reference outcome of each LP alone, bit for bit.

    The stacks start on two or more paths, their LPs part mid-phase, and an
    LP fails phase 1 beside a passing LP on its path; all three are seen at
    the full pivot limit.
    """
    full = max_pivots == simplex.MAX_PIVOTS
    monkeypatch.setattr(simplex, "MAX_PIVOTS", max_pivots)
    regroup, run, seen, ends = simplex._regroup, simplex._run_stack, set(), []

    def regrouped(stack, key):
        paths = len(stack.T)
        out = regroup(stack, key)
        if len(stack.T) > paths:
            seen.add("split")
        return out

    def ran(stack, structural, columns, failures):
        run(stack, structural, columns, failures)
        ends.append((stack.ids.copy(), stack.owner.copy()))

    monkeypatch.setattr(simplex, "_regroup", regrouped)
    monkeypatch.setattr(simplex, "_run_stack", ran)
    for seed in range(40):
        c, A_ub, b_ub, A_eq, B_eq, lower, upper = (_shared_path_stack if seed % 2 else _epigraph_stack)(seed)
        if len(simplex._tableaux(c, A_ub, b_ub, A_eq, B_eq, lower, upper)[0].T) > 1:
            seen.add("several starts")
        ends.clear()
        got = _outcomes(*solve_lp(c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=B_eq, lower=lower, upper=upper))
        want = [_reference(c, A_ub, b_ub, A_eq, b_eq, lower, upper) for b_eq in B_eq]
        assert [_fingerprint(o) for o in got] == [_fingerprint(o) for o in want], seed
        assert [_fingerprint(_one_row(c, A_ub, b_ub, A_eq, b_eq, lower, upper)) for b_eq in B_eq] == [_fingerprint(o) for o in want], seed
        ids, owner = ends[0]  # the paths as phase 1 leaves them
        for p in np.unique(owner):
            if len({isinstance(want[j], LPInfeasible) for j in ids[owner == p]}) == 2:
                seen.add("fails beside a passing LP")
    if full:
        assert seen == {"several starts", "split", "fails beside a passing LP"}


@pytest.mark.parametrize("max_pivots", [simplex.MAX_PIVOTS, 0, 3])
def test_shared_path_runs_match_compact_copies(monkeypatch, max_pivots):
    """Runs on stacks whose LPs share tableaux leave each LP's tableau and failure as the compact-copy run does.

    Random 3-row tableaux, four per stack, each shared by about 15 LPs with
    their own right-hand sides, so paths part on the ratio test, and columns
    with no positive entry stop LPs on "no blocking row".
    """
    full = max_pivots == simplex.MAX_PIVOTS
    monkeypatch.setattr(simplex, "MAX_PIVOTS", max_pivots)
    rng, kinds = np.random.default_rng(11), set()
    for _ in range(20):
        shapes = [(rng.integers(-1, 3, (3, 3)), rng.integers(-1, 2, 3)) for _ in range(4)]
        T = np.zeros((60, 4, 8))  # columns: three variables, three slacks, the guard, the right-hand side
        for t, j in zip(T, rng.integers(0, 4, 60)):
            t[:3, :3], t[:3, 3:6], t[:3, -1] = shapes[j][0], np.eye(3), rng.integers(1, 4, 3)
            t[3, :3], t[3, 6] = shapes[j][1], -np.inf
        stack = _paths(T, np.tile([3, 4, 5], (60, 1)))
        t, b = _per_lp(stack)
        want = _compact_run_stack(t, b, 6, 7)
        got = [None] * 60
        simplex._run_stack(stack, 6, 7, got)
        T, basis = _per_lp(stack)
        assert T.tobytes() == t.tobytes() and basis.tobytes() == b.tobytes()
        assert [_fingerprint(f) for f in got] == [_fingerprint(f) for f in want]
        kinds.update(str(f) for f in got)
    if full:
        assert {"None", "no blocking row for the entering column"} <= kinds
    else:
        assert f"simplex did not terminate within {max_pivots} pivots" in kinds


def test_regroup_hands_back_views_of_the_leading_paths_and_lps():
    """The stack ``_regroup`` hands back views the regrouped stack's arrays and holds exactly its LPs of key at least 0.

    Those LPs come first, in the order of their former paths, then of their
    keys, each LP keeping its right-hand side and its path's tableau and
    basis; the LPs of each live path share its key, and the dropped LPs
    follow on their own paths.
    """
    rng = np.random.default_rng(7)
    for _ in range(20):
        shapes = rng.integers(-2, 3, (4, 3, 5)).astype(float)
        T = shapes[rng.integers(0, 4, 30)]
        T[:, :, -1] = rng.integers(0, 5, (30, 3))  # each LP's right-hand side
        stack = _paths(T, np.tile([4, 5], (30, 1)))
        ids, owner, tableaux, bases, R = stack.ids.copy(), stack.owner.copy(), stack.T.copy(), stack.basis.copy(), stack.R.copy()
        key = rng.integers(-1, 2, 30)  # -1, or a leaving row
        live, path_key, src = simplex._regroup(stack, key)
        for name in ("T", "basis", "R", "owner", "ids"):
            assert np.shares_memory(getattr(live, name), getattr(stack, name)), name
        kept = sorted(np.flatnonzero(key >= 0), key=lambda e: (owner[e], key[e]))
        order = kept + sorted(np.flatnonzero(key < 0), key=lambda e: owner[e])
        assert live.ids.tolist() == ids[kept].tolist() and stack.ids.tolist() == ids[order].tolist()
        assert live.R.tobytes() == R[kept].tobytes() and stack.R.tobytes() == R[order].tobytes()
        assert stack.T[stack.owner].tobytes() == tableaux[owner[order]].tobytes()
        assert stack.basis[stack.owner].tobytes() == bases[owner[order]].tobytes()
        assert (src[stack.owner] == owner[order]).all() and (path_key[stack.owner] == key[order]).all()
        assert len(live.T) == len({(owner[e], key[e]) for e in kept}) == np.count_nonzero(path_key >= 0)
        assert (path_key[: len(live.T)] >= 0).all() and len(live.R) == len(kept)


def test_phase_one_cut_beside_drive_outs_matches_compact_copies(monkeypatch):
    """LPs that fail phase 1 leave a stack in which leftover artificials are then driven out, byte for byte as ``_compact_solve_stack``.

    At seeds 11 and 65 of ``_shared_path_stack`` some LPs fail phase 1 and
    leave the stack, and the drive-out pivots some of the paths left (seed
    11) or every one (seed 65); each outcome is also the reference's of its
    LP alone.
    """
    regroup, run, events = simplex._regroup, simplex._run_stack, []

    def regrouped(stack, key):
        events.append(sorted(stack.ids[key < 0].tolist()))  # the LPs a regroup moves behind the live stack
        return regroup(stack, key)

    def ran(*args):
        events.append("run")
        run(*args)
        events.append("end")

    monkeypatch.setattr(simplex, "_regroup", regrouped)
    monkeypatch.setattr(simplex, "_run_stack", ran)
    kinds = set()
    for seed in (11, 65):
        c, A_ub, b_ub, A_eq, B_eq, lower, upper = _shared_path_stack(seed)
        events.clear()
        got = _outcomes(*solve_lp(c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=B_eq, lower=lower, upper=upper))
        stack, n_art = simplex._tableaux(c, A_ub, b_ub, A_eq, B_eq, lower, upper)
        want = _compact_solve_stack(*_per_lp(stack), n_art, c, lower)
        assert [_fingerprint(o) for o in got] == [_fingerprint(o) for o in want], seed
        assert [_fingerprint(_reference(c, A_ub, b_ub, A_eq, b_eq, lower, upper)) for b_eq in B_eq] == [_fingerprint(o) for o in want]
        failed = [j for j, o in enumerate(want) if isinstance(o, LPInfeasible)]
        cut, *drive_outs = events[events.index("end") + 1 : events.index("run", 1)]  # the regroups between the phases
        assert 0 < len(failed) < len(B_eq) and cut == failed and drive_outs, seed
        kinds.update("some" if dropped else "every" for dropped in drive_outs)
    assert kinds == {"some", "every"}


def test_phase_one_failures_hold_one_stack():
    """A row that fails phase 1 costs no second stack: the survivors move to the front in place.

    On a 60-row lemma2 epigraph stack, ``solve_lp``'s ``tracemalloc`` peak
    with one row far off the box stays within 10% of the peak with none off.
    """
    rng = np.random.default_rng(0)
    d = 6
    S = harness.gen_operator(d, 3, 3, rng)
    f = functions.SumFunction(d, (harness.gen_coercive_max_affine(d, 6, rng), harness.gen_max_affine(d, 3, rng)))
    c, A_ub, b_ub, A_eq, lower, upper = functions.epigraph(d, functions.normal_form(f)[0], marginal.BOX_RADIUS, (), S.T)
    B_eq = rng.uniform(-2.0, 2.0, (3 * marginal.MIDPOINT_PAIRS, d)) @ S
    peaks = []
    for off in (0, 1):
        B = B_eq.copy()
        B[:off] *= 1e4
        tracemalloc.start()
        try:
            failures = solve_lp(c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=B, lower=lower, upper=upper)[2]
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert [type(e) for e in failures if e is not None] == [LPInfeasible] * off
    assert peaks[1] <= 1.1 * peaks[0], peaks
