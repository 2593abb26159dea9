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
updates it with the others.  A guard column follows the slacks: zero in every
row and -inf in the objective, it is always eligible and never blocked, so a
tableau with no other eligible column enters it and stops.  Desk-scale
problems only: everything is dense numpy.

One routine solves every call, as a stack of LPs that differ only in b_eq
(``b_eq`` of shape (k, m_eq)); a lone LP is the stack of one.  Which rows get
an artificial depends only on A_ub, b_ub and the bounds, so the k tableaux
share their shape and starting basis, and Bland pivots run in lockstep on all
unfinished tableaux, kept in place at the front of the stack.  Each row makes
exactly the pivots, ratios and ties it would make alone, and MAX_PIVOTS counts
per row; the answers are read back as arrays.  A stack holds at most
STACK_FLOATS = 2^16 tableau entries, which bounds a tall stack's memory and
takes a lemma2 gap check's 60 queries, at most 1,088 entries each, in one run.

Every basic column stays a unit column, exactly: a pivot divides its row by
the pivot entry, and x / x is 1, and subtracts multiples of that row, which
leave zeros in the column.  So the objective build subtracts row i with the
cost of its basic variable, unchanged by the rows before it, and skips the
rows whose basic cost is zero.  Nothing else would read an artificial's
column, as artificials never enter, so an artificial is a basis label past the
guard with no column, and each stored entry gets the arithmetic it got beside
those columns (Bertsimas & Tsitsiklis, *Introduction to Linear Optimization*,
section 3.5).  Every row gives the x and value of the one-LP two-phase routine
that the tests keep as the reference, bit for bit on finite tableaux.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, LPInfeasible, SolverFailure

PIVOT_TOL = 1e-9
FEAS_TOL = 1e-7
MAX_PIVOTS = 20000
STACK_FLOATS = 2**16  # tableau floats pivoted in lockstep at once (512 KiB): 60 lemma2 queries of 1,088


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
    terms[:, 0, :-1] = cost[: T.shape[2] - 1]
    # a row whose basic cost is zero subtracts +0.0, which leaves every entry as it is
    np.multiply(coef, T[:, :-1], out=terms[:, 1:], where=coef != 0.0)
    np.subtract.reduce(terms, axis=1, out=T[:, -1])


def _run_stack(T, basis, structural, columns) -> list:
    """Bland pivots on every tableau of the stack in lockstep; per row None or its SolverFailure.

    Columns up to ``structural``, the guard, may enter; every basis label is
    below ``columns``.  The n unfinished rows lead the stack and are pivoted on
    the views T[:n] and basis[:n]: when rows stop, one gather moves the rest
    ahead, and one inverse gather at the end restores the order; no copy is kept.
    """
    failures = [None] * len(T)
    t, b, s, order = T, basis, np.arange(len(T)), np.arange(len(T))  # t, b: the n unfinished rows; order[p]: the row at p
    obj, rhs = t[:, -1, : structural + 1], t[:, :-1, -1]
    no_ratios = np.full(rhs.shape, np.nan)
    for _ in range(MAX_PIVOTS if len(T) else 0):
        col = (obj < -PIVOT_TOL).argmax(axis=1)  # Bland: smallest eligible index enters
        column = t[s, :, col]
        entries = column[:, :-1]
        ratios = np.divide(rhs, entries, out=no_ratios[: s.size].copy(), where=entries > PIVOT_TOL)
        # each tableau's tie bound on its least ratio; NaN where no row blocks
        least = np.fmin.reduce(ratios, axis=1)
        bound = least + 1e-12 * (1.0 + np.abs(least))
        stop = np.isnan(bound)
        if stop.any():  # a tableau stops
            for j in stop.nonzero()[0]:
                if col[j] < structural:  # the guard enters only at an optimum
                    failures[order[j]] = SolverFailure("no blocking row for the entering column")
            s = s[: s.size - np.count_nonzero(stop)]
            if not s.size:
                break
            moved = np.argsort(stop, kind="stable")  # the unfinished rows first, each part in its order
            t[:], b[:], order[: moved.size] = t[moved], b[moved], order[moved]
            live = moved[: s.size]
            t, b, col, column, ratios, bound = t[: s.size], b[: s.size], col[live], column[live], ratios[live], bound[live]
            obj, rhs = t[:, -1, : structural + 1], t[:, :-1, -1]
        ties = ratios <= bound[:, None]
        row = np.where(ties, b, columns).argmin(axis=1)  # Bland: smallest basic index leaves
        _pivot_stack(t, b, s, row, col, column)
    for j in order[: s.size]:
        failures[j] = SolverFailure(f"simplex did not terminate within {MAX_PIVOTS} pivots")
    if len(T) > 1 and (np.diff(order) < 0).any():  # the inverse gather
        T[:], basis[:] = T[np.argsort(order)], basis[np.argsort(order)]
    return failures


def _solve_stack(T, basis, n_art, c, lower, X, values) -> list:
    """The two phases on every tableau of the stack, modified in place; per row None or its error, in order.

    Row i's x and value go to X[i] and values[i], NaN if it fails.  Its n_art
    artificials are basis labels past the guard with no column.  The rows
    that pass phase 1 are moved to the front of T and basis, in order, and
    phase 2 runs on those views, so no second stack is held.
    """
    k, structural, columns = T.shape[0], T.shape[2] - 2, T.shape[2] - 1 + n_art  # every label is below columns
    cost = np.zeros(columns)
    cost[structural] = -np.inf  # the guard
    failures = [None] * k
    ids = np.arange(k)  # the rows still being solved

    # phase 1: minimize the artificial sum
    if n_art:
        cost1 = np.concatenate([cost[: structural + 1], np.ones(n_art)])
        _set_objective(T, basis, cost1)
        for s, failure in enumerate(_run_stack(T, basis, structural, columns)):
            if failure is None and -T[s, -1, -1] > FEAS_TOL:
                failure = LPInfeasible(f"phase 1 optimum {-T[s, -1, -1]:.3e} above feasibility tolerance")
            failures[s] = failure
        ids = np.array([s for s in range(k) if failures[s] is None], dtype=int)
        if len(ids) < k:
            T[: len(ids)], basis[: len(ids)] = T[ids], basis[ids]
            T, basis = T[: len(ids)], basis[: len(ids)]
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
    for i, failure in zip(ids, _run_stack(T, basis, structural, columns)):
        failures[i] = failure
    # the answers at once; a stacked dot over C-ordered rows is the one-row dot c @ x
    Z = np.zeros((len(T), columns))
    Z[np.arange(len(T))[:, None], basis] = T[:, :-1, -1]
    x = Z[:, : c.shape[0]] + lower
    X[ids], values[ids] = x, (x[:, None, :] @ c[:, None])[:, 0, 0]
    for i, failure in enumerate(failures):
        if failure is not None:
            X[i], values[i] = np.nan, np.nan
    return failures


def _tableaux(c, A_ub, b_ub, A_eq, B_eq, lower, upper):
    """The starting tableaux of the LPs, one per row of B_eq, their bases and the artificial count.

    Columns: the n shifted variables, the slacks, the guard, the right-hand
    side; an artificial is a basis label past the guard, with no column.  Rows:
    the inequality, upper-bound and equality rows, then the objective row, zero.
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
    width = structural + 2
    basis = np.arange(n, n + m)
    basis[art_rows] = structural + 1 + np.arange(art_rows.size)

    shared = np.zeros((m, width))
    shared[: m_ub - n, :n] = A_ub
    shared[m_ub:, :n] = A_eq
    shared[:m_ub, -1] = rhs_ub
    flat = shared.reshape(-1)  # a diagonal of a block is every (width + 1)-th entry from its corner
    flat[(m_ub - n) * width : m_ub * width : width + 1] = 1.0  # the upper-bound rows
    flat[n : m_ub * width : width + 1] = 1.0  # the slacks
    T = np.zeros((len(B_eq), m + 1, width))
    rows = T[:, :m]
    rows[:] = shared
    rows[:, m_ub:, -1] = B_eq - A_eq @ lower
    rows *= np.where(rows[:, :, -1:] < 0, -1.0, 1.0)  # flip rows with negative right-hand side
    return T, basis[None].repeat(len(B_eq), axis=0), art_rows.size


def solve_lp(c, A_ub=None, b_ub=None, A_eq=None, b_eq=None, *, lower, upper):
    """Solve the boxed LP; raises LPInfeasible when no point satisfies the rows.

    An LP needs at least one variable: ``c`` of length 0 raises DimensionMismatch,
    as do bounds, A_ub and A_eq not of shapes (n,), (len(b_ub), n) and (m_eq, n).

    With ``b_eq`` of shape (k, m_eq) it solves the k LPs that differ only in
    b_eq and returns their answers as arrays, (X, values, failures): row i of
    X (k, n) and values (k,) is the x and value of a one-row call, or NaN
    where failures[i] is the LPInfeasible or SolverFailure it would raise.
    """
    c = np.asarray(c, dtype=float)
    n = c.shape[0]
    if n == 0:
        raise DimensionMismatch("a linear program needs at least one variable")
    lower, upper = np.asarray(lower, dtype=float), np.asarray(upper, dtype=float)
    if lower.shape != (n,) or upper.shape != (n,):
        raise DimensionMismatch(f"bounds {lower.shape} and {upper.shape} must be ({n},)")
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

    X, values = np.empty((len(B_eq), n)), np.empty(len(B_eq))
    if (upper < lower).any():
        X[:], values[:] = np.nan, np.nan
        failures = [LPInfeasible("empty box: some upper bound is below its lower bound") for _ in B_eq]
    else:
        # a tableau has m_ub + m_eq + 1 rows and n + m_ub + 2 columns
        m_ub = A_ub.shape[0] + n
        height = max(1, STACK_FLOATS // ((m_ub + A_eq.shape[0] + 1) * (n + m_ub + 2)))
        failures = []
        for rows in (slice(start, start + height) for start in range(0, len(B_eq), height)):
            failures += _solve_stack(*_tableaux(c, A_ub, b_ub, A_eq, B_eq[rows], lower, upper), c, lower, X[rows], values[rows])
    if b_eq.ndim == 2:
        return X, values, failures
    if failures[0] is not None:
        raise failures[0]
    return LPSolution(x=X[0], value=float(values[0]))
