"""Dense two-phase simplex for small boxed linear programs.

Solves   minimize c . x
         subject to  A_ub x <= b_ub,  A_eq x = b_eq,  lower <= x <= upper

with finite bounds on every variable; the callers box every problem, which
also rules out genuine unboundedness.  Pivoting uses Bland's rule (smallest
eligible column enters, ties in the ratio test broken by smallest basic
index), so cycling cannot occur and runs are deterministic.

The implementation is the classic tableau form.  Variables are shifted to
z = x - lower >= 0, upper bounds become explicit rows, every row gets a slack
or an artificial variable, phase 1 minimizes the artificial sum, phase 2 the
shifted objective.  The objective is the tableau's last row, so a pivot
updates it with the others.  A guard column sits between the slacks and the
artificials: zero in every row and -inf in the objective, it is always
eligible and never blocked, so a tableau with no other eligible column enters
it and stops.  Desk-scale problems only: everything is dense numpy.

One routine solves every call, as a stack of LPs that differ only in b_eq
(``b_eq`` of shape (k, m_eq)); a lone LP is the stack of one.  Which rows get
an artificial depends only on A_ub, b_ub and the bounds, so the k tableaux
share their shape and starting basis, and Bland pivots run on all unfinished
tableaux in lockstep.  Each row makes exactly the pivots, ratios and ties it
would make alone, and MAX_PIVOTS counts per row.  The rows are taken in
stacks of at most STACK_FLOATS tableau entries, which bounds the memory of a
tall stack.

Every basic column stays a unit column, exactly: a pivot divides its row by
the pivot entry, and x / x is 1, and subtracts multiples of that row, which
leave zeros in the column.  So the objective build subtracts row i with the
cost of its basic variable, unchanged by the rows before it, and skips the
rows whose basic cost is zero.  Every row gives the x and value of the
one-LP two-phase routine that the tests keep as the reference, bit for bit on
finite tableaux.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, LPInfeasible, SolverFailure

PIVOT_TOL = 1e-9
FEAS_TOL = 1e-7
MAX_PIVOTS = 20000
STACK_FLOATS = 2**15  # tableau floats pivoted in lockstep at once: 256 KiB


@dataclass(frozen=True)
class LPSolution:
    x: np.ndarray
    value: float


def _pivot_stack(T, basis, s, row, col, column) -> None:
    """Pivot every tableau j of the stack on its entry (row[j], col[j]); s is arange(len(T)).

    column[j] is tableau j's column col[j], objective entry included.
    """
    pivot_row = T[s, row] / column[s, row][:, None]
    T -= column[:, :, None] * pivot_row[:, None, :]
    T[s, row] = pivot_row + 0.0  # pivot_row - 0.0 * pivot_row, bit for bit on finite entries
    basis[s, row] = col


def _set_objective(T, basis, cost) -> None:
    """Write cost, reduced to zero on the basic columns, into the objective row of every tableau.

    Row i of tableau j is subtracted cost[basis[j, i]] times, in row order,
    where that cost is nonzero: the unit columns keep each basic variable's
    objective entry at its cost until its row is reached.
    """
    coef = cost[basis][:, :, None]
    terms = np.zeros(T.shape)
    terms[:, 0, :-1] = cost
    # a row whose basic cost is zero subtracts +0.0, which leaves every entry as it is
    np.multiply(coef, T[:, :-1], out=terms[:, 1:], where=coef != 0.0)
    np.subtract.reduce(terms, axis=1, out=T[:, -1])


def _run_stack(T, basis, structural) -> list:
    """Bland pivots on every tableau of the stack in lockstep; per row None or its SolverFailure.

    Columns up to ``structural``, the guard, may enter.  The rows are pivoted
    in place until one stops, then on compact copies of the unfinished rows.
    A row that stops is written back at once and never touched again.
    """
    failures = [None] * len(T)
    if not failures:
        return failures
    live = np.arange(len(T))
    t, b, s = T, basis, live
    obj, rhs = t[:, -1, : structural + 1], t[:, :-1, -1]
    no_ratios = np.empty(rhs.shape)
    no_ratios.fill(np.nan)
    for _ in range(MAX_PIVOTS):
        col = (obj < -PIVOT_TOL).argmax(axis=1)  # Bland: smallest eligible index enters
        column = t[s, :, col]
        entries = column[:, :-1]
        ratios = np.divide(rhs, entries, out=no_ratios[: live.size].copy(), where=entries > PIVOT_TOL)
        # each tableau's tie bound on its least ratio, in Python floats; NaN where no row blocks
        bound = [r + 1e-12 * (1.0 + abs(r)) for r in np.fmin.reduce(ratios, axis=1).tolist()]
        if any(map(math.isnan, bound)):  # a tableau stops
            stop = np.isnan(bound)
            for j, entering in enumerate(col.tolist()):
                if stop[j] and entering < structural:  # the guard enters only at an optimum
                    failures[live[j]] = SolverFailure("no blocking row for the entering column")
            if t is not T:
                T[live[stop]], basis[live[stop]] = t[stop], b[stop]
            if all(map(math.isnan, bound)):
                return failures
            keep = ~stop
            live, t, b, col, column, ratios = (a[keep] for a in (live, t, b, col, column, ratios))
            s = s[: live.size]
            obj, rhs = t[:, -1, : structural + 1], t[:, :-1, -1]
            bound = [r for r, kept in zip(bound, keep) if kept]
        ties = ratios <= np.array(bound)[:, None]
        row = np.where(ties, b, t.shape[2]).argmin(axis=1)  # Bland: smallest basic index leaves
        _pivot_stack(t, b, s, row, col, column)
    for j in live:
        failures[j] = SolverFailure(f"simplex did not terminate within {MAX_PIVOTS} pivots")
    T[live], basis[live] = t, b
    return failures


def _solution(T: np.ndarray, basis: np.ndarray, c: np.ndarray, lower: np.ndarray) -> LPSolution:
    z = np.zeros(T.shape[1] - 1)
    z[basis] = T[:-1, -1]
    x = z[: c.shape[0]] + lower
    return LPSolution(x=x, value=float(c @ x))


def _solve_stack(T, basis, n_art, c, lower) -> list:
    """The two phases on every tableau of the stack, modified in place; its outcome per row, in order."""
    k, total = T.shape[0], T.shape[2] - 1
    structural = total - n_art - 1  # then the guard, then the artificials, which never enter
    cost = np.zeros(total)
    cost[structural] = -np.inf  # the guard
    outcomes = [None] * k
    ids = np.arange(k)  # the rows still being solved

    # phase 1: minimize the artificial sum
    if n_art:
        cost1 = cost.copy()
        cost1[structural + 1 :] = 1.0
        _set_objective(T, basis, cost1)
        for s, failure in enumerate(_run_stack(T, basis, structural)):
            if failure is None and -T[s, -1, -1] > FEAS_TOL:
                failure = LPInfeasible(f"phase 1 optimum {-T[s, -1, -1]:.3e} above feasibility tolerance")
            outcomes[s] = failure
        ids = np.array([s for s in range(k) if outcomes[s] is None], dtype=int)
        if len(ids) < k:
            T, basis = T[ids], basis[ids]
        # drive leftover artificials out of the basis where possible, row i of every tableau in turn;
        # a row with none to pivot on is redundant, and its artificial stays basic at value zero
        for i in (basis > structural).any(axis=0).nonzero()[0]:
            pivots = np.abs(T[:, i, :structural]) > PIVOT_TOL
            rows = np.flatnonzero((basis[:, i] > structural) & pivots.any(axis=1))
            if rows.size:
                t, b, s = T[rows], basis[rows], np.arange(rows.size)
                col = pivots[rows].argmax(axis=1)
                _pivot_stack(t, b, s, np.full(rows.size, i), col, t[s, :, col])
                T[rows], basis[rows] = t, b

    # phase 2: the original objective on the shifted variables
    cost[: c.shape[0]] = c
    _set_objective(T, basis, cost)
    for s, failure in enumerate(_run_stack(T, basis, structural)):
        outcomes[ids[s]] = failure if failure is not None else _solution(T[s], basis[s], c, lower)
    return outcomes


def _tableaux(c, A_ub, b_ub, A_eq, B_eq, lower, upper):
    """The starting tableaux of the LPs, one per row of B_eq, their bases and the artificial count.

    Columns: the n shifted variables, the slacks, the guard, the artificials,
    the right-hand side.  Rows: the inequality rows, the upper-bound rows,
    the equality rows, and the objective row, left zero here.
    """
    n, m_eq = c.shape[0], A_eq.shape[0]
    # shift to z = x - lower, append upper-bound rows z <= upper - lower
    rhs_ub = np.concatenate([b_ub - A_ub @ lower, upper - lower])
    m_ub = rhs_ub.shape[0]
    m = m_ub + m_eq
    structural = n + m_ub
    # rows whose slack is unusable as an initial basic variable get an artificial:
    # every equality row, and every flipped inequality row (the same rows in every tableau)
    art_rows = np.concatenate([(rhs_ub < 0).nonzero()[0], np.arange(m_ub, m)])
    n_art = art_rows.size
    width = structural + 1 + n_art + 1
    basis = np.arange(n, n + m)
    basis[art_rows] = structural + 1 + np.arange(n_art)

    shared = np.zeros((m, width))
    shared[: m_ub - n, :n] = A_ub
    shared[m_ub:, :n] = A_eq
    shared[:m_ub, -1] = rhs_ub
    shared[art_rows, basis[art_rows]] = 1.0
    flat = shared.reshape(-1)  # a diagonal of a block is every (width + 1)-th entry from its corner
    flat[(m_ub - n) * width : m_ub * width : width + 1] = 1.0  # the upper-bound rows
    flat[n : m_ub * width : width + 1] = 1.0  # the slacks
    T = np.empty((len(B_eq), m + 1, width))
    rows = T[:, :m]
    rows[:] = shared
    rows[:, m_ub:, -1] = B_eq - A_eq @ lower
    # flip rows with negative right-hand side, all but their artificial columns
    sign = np.where(rows[:, :, -1:] < 0, -1.0, 1.0)
    rows[:, :, : structural + 1] *= sign
    rows[:, :, -1:] *= sign
    T[:, m] = 0.0
    return T, basis[None].repeat(len(B_eq), axis=0), n_art


def solve_lp(c, A_ub=None, b_ub=None, A_eq=None, b_eq=None, *, lower, upper):
    """Solve the boxed LP; raises LPInfeasible when no point satisfies the rows.

    An LP needs at least one variable: ``c`` of length 0 raises DimensionMismatch,
    as do A_ub not of shape (len(b_ub), n) and A_eq not of shape (m_eq, n).

    With ``b_eq`` of shape (k, m_eq) it solves the k LPs that differ only in
    b_eq and returns their k outcomes in row order: each is an LPSolution, or
    the LPInfeasible or SolverFailure instance that a one-row call would raise.
    """
    c = np.asarray(c, dtype=float)
    n = c.shape[0]
    if n == 0:
        raise DimensionMismatch("a linear program needs at least one variable")
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    if lower.shape != (n,) or upper.shape != (n,):
        raise ValueError("bounds must match the variable count")
    if not (np.isfinite(lower).all() and np.isfinite(upper).all()):
        raise ValueError("all variables must have finite bounds")

    # the constraint matrices keep their memory order: A @ lower rounds by it
    A_ub = np.zeros((0, n)) if A_ub is None else np.asarray(A_ub, dtype=float)
    b_ub = np.zeros(0) if b_ub is None else np.asarray(b_ub, dtype=float).reshape(-1)
    A_eq = np.zeros((0, n)) if A_eq is None else np.asarray(A_eq, dtype=float)
    b_eq = np.zeros(0) if b_eq is None else np.asarray(b_eq, dtype=float)
    B_eq = b_eq if b_eq.ndim == 2 else b_eq.reshape(1, -1)
    if A_ub.shape != (len(b_ub), n) or A_eq.shape != (B_eq.shape[1], n):
        raise DimensionMismatch(f"A_ub {A_ub.shape} and A_eq {A_eq.shape} must be (rows of b_ub or b_eq, {n})")

    if (upper < lower).any():
        outcomes = [LPInfeasible("empty box: some upper bound is below its lower bound") for _ in B_eq]
    else:
        # a tableau has m + 1 rows and at most n + m_ub + m + 2 columns
        m_ub = A_ub.shape[0] + n
        m = m_ub + A_eq.shape[0]
        height = max(1, STACK_FLOATS // ((m + 1) * (n + m_ub + m + 2)))
        outcomes = []
        for start in range(0, len(B_eq), height):
            T, basis, n_art = _tableaux(c, A_ub, b_ub, A_eq, B_eq[start : start + height], lower, upper)
            outcomes += _solve_stack(T, basis, n_art, c, lower)
    if b_eq.ndim == 2:
        return outcomes
    if isinstance(outcomes[0], Exception):
        raise outcomes[0]
    return outcomes[0]
