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
shifted objective.  Desk-scale problems only: everything is dense numpy.

A stack of LPs that differ only in b_eq (``b_eq`` of shape (k, m_eq)) is
solved in one go.  Which rows get an artificial depends only on A_ub, b_ub
and the bounds, so the k tableaux share their shape and starting basis, and
Bland pivots run on all unfinished tableaux in lockstep.  Each row makes
exactly the pivots, ratios and ties of its own one-LP run, with the same
IEEE operations: updates are masked, so a finished row or a zero coefficient
is never touched, and MAX_PIVOTS counts per row.  The rows are taken in
stacks of at most STACK_FLOATS tableau entries, which bounds the memory of a
tall stack; a stack of one takes the one-LP loop, which is cheaper at that
height.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import LPInfeasible, SolverFailure

PIVOT_TOL = 1e-9
FEAS_TOL = 1e-7
MAX_PIVOTS = 20000
STACK_FLOATS = 2**15  # tableau floats pivoted in lockstep at once: 256 KiB


@dataclass(frozen=True)
class LPSolution:
    x: np.ndarray
    value: float


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
    for _ in range(MAX_PIVOTS):
        eligible = np.where(allowed & (obj[:-1] < -PIVOT_TOL))[0]
        if eligible.size == 0:
            return
        col = int(eligible[0])  # Bland: smallest eligible index enters
        column = T[:, col]
        rows = np.where(column > PIVOT_TOL)[0]
        if rows.size == 0:
            # every variable is boxed, so only a numerical breakdown gets here
            raise SolverFailure("no blocking row for the entering column")
        ratios = T[rows, -1] / column[rows]
        best = float(np.min(ratios))
        ties = rows[ratios <= best + 1e-12 * (1.0 + abs(best))]
        row = int(ties[np.argmin(basis[ties])])  # Bland: smallest basic index leaves
        _pivot(T, obj, basis, row, col)
    raise SolverFailure(f"simplex did not terminate within {MAX_PIVOTS} pivots")


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
        if -obj[-1] > FEAS_TOL:
            raise LPInfeasible(f"phase 1 optimum {-obj[-1]:.3e} above feasibility tolerance")
        # drive leftover artificials out of the basis where possible
        for i in range(m):
            if basis[i] >= structural:
                pivots = np.where(np.abs(T[i, :structural]) > PIVOT_TOL)[0]
                if pivots.size:
                    _pivot(T, obj, basis, i, int(pivots[0]))
                # else: redundant row; its artificial stays basic at value zero

    # phase 2: original objective on the shifted variables
    cost2 = np.zeros(total)
    cost2[: c.shape[0]] = c
    obj = _build_objective(cost2, T, basis)
    _run(T, obj, basis, allowed)
    return _solution(T, basis, c, lower)


def _pivot_stack(T, obj, basis, row, col) -> None:
    """``_pivot`` on every tableau of the stack, row s at (row[s], col[s])."""
    s = np.arange(len(T))
    T[s, row] = T[s, row] / T[s, row, col][:, None]
    factors = T[s, :, col]
    factors[s, row] = 0.0
    T -= factors[:, :, None] * T[s, row][:, None, :]
    obj -= obj[s, col][:, None] * T[s, row]
    basis[s, row] = col


def _build_objectives(cost, T, basis) -> np.ndarray:
    """``_build_objective`` for every tableau of the stack, each with its own basis."""
    s = np.arange(len(T))
    obj = np.tile(np.append(cost, 0.0), (len(T), 1))
    for i in range(T.shape[1]):
        coef = obj[s, basis[:, i]]
        hit = coef != 0.0
        obj[hit] = obj[hit] - coef[hit, None] * T[hit, i]
    return obj


def _run_stack(T, obj, basis, allowed) -> list:
    """``_run`` on every tableau of the stack in lockstep; per row None or its SolverFailure.

    The rows are pivoted in place until one stops, then on compact copies of
    the unfinished rows.  A row that stops is written back at once and never
    touched again.
    """
    failures = [None] * len(T)
    if not failures:
        return failures
    live = np.arange(len(T))
    t, o, b = T, obj, basis
    for _ in range(MAX_PIVOTS):
        eligible = allowed & (o[:, :-1] < -PIVOT_TOL)
        col = np.argmax(eligible, axis=1)  # Bland: smallest eligible index enters
        column = t[np.arange(len(t)), :, col]
        blocking = column > PIVOT_TOL
        going = eligible.any(axis=1)
        stop = ~(going & blocking.any(axis=1))
        if stop.any():
            for s in np.flatnonzero(stop & going):
                failures[live[s]] = SolverFailure("no blocking row for the entering column")
            T[live[stop]], obj[live[stop]], basis[live[stop]] = t[stop], o[stop], b[stop]
            keep = ~stop
            live, t, o, b, col, column, blocking = (a[keep] for a in (live, t, o, b, col, column, blocking))
            if not live.size:
                return failures
        ratios = np.divide(t[:, :, -1], column, out=np.full(column.shape, np.inf), where=blocking)
        best = np.min(ratios, axis=1)
        ties = blocking & (ratios <= (best + 1e-12 * (1.0 + np.abs(best)))[:, None])
        row = np.argmin(np.where(ties, b, t.shape[2]), axis=1)  # Bland: smallest basic index leaves
        _pivot_stack(t, o, b, row, col)
    for s in live:
        failures[s] = SolverFailure(f"simplex did not terminate within {MAX_PIVOTS} pivots")
    T[live], obj[live], basis[live] = t, o, b
    return failures


def _solve_stack(T, basis, c, lower, n_art) -> list:
    """``_solve_one`` on every tableau of the stack; its outcome per row, in order."""
    k, m, total = T.shape[0], T.shape[1], T.shape[2] - 1
    structural = total - n_art
    allowed = np.arange(total) < structural
    basis = np.tile(basis, (k, 1))
    outcomes = [None] * k
    ids = np.arange(k)  # the rows still being solved

    if n_art:
        cost1 = np.zeros(total)
        cost1[structural:] = 1.0
        obj = _build_objectives(cost1, T, basis)
        for s, failure in enumerate(_run_stack(T, obj, basis, allowed)):
            if failure is None and -obj[s, -1] > FEAS_TOL:
                failure = LPInfeasible(f"phase 1 optimum {-obj[s, -1]:.3e} above feasibility tolerance")
            outcomes[s] = failure
        ids = np.array([s for s in range(k) if outcomes[s] is None], dtype=int)
        if len(ids) < k:
            T, obj, basis = T[ids], obj[ids], basis[ids]
        # drive leftover artificials out, row i of every tableau in turn, as _solve_one does
        for i in range(m):
            pivots = np.abs(T[:, i, :structural]) > PIVOT_TOL
            rows = np.flatnonzero((basis[:, i] >= structural) & pivots.any(axis=1))
            if rows.size:
                sub = T[rows], obj[rows], basis[rows]
                _pivot_stack(*sub, np.full(rows.size, i), np.argmax(pivots[rows], axis=1))
                T[rows], obj[rows], basis[rows] = sub

    cost2 = np.zeros(total)
    cost2[: c.shape[0]] = c
    obj = _build_objectives(cost2, T, basis)
    for s, failure in enumerate(_run_stack(T, obj, basis, allowed)):
        outcomes[ids[s]] = failure if failure is not None else _solution(T[s], basis[s], c, lower)
    return outcomes


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


def solve_lp(c, A_ub=None, b_ub=None, A_eq=None, b_eq=None, *, lower, upper):
    """Solve the boxed LP; raises LPInfeasible when no point satisfies the rows.

    With ``b_eq`` of shape (k, m_eq) it solves the k LPs that differ only in
    b_eq and returns their k outcomes in row order: each is an LPSolution, or
    the LPInfeasible or SolverFailure instance that a one-row call would raise.
    """
    c = np.asarray(c, dtype=float)
    n = c.shape[0]
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    if lower.shape != (n,) or upper.shape != (n,):
        raise ValueError("bounds must match the variable count")
    if not (np.all(np.isfinite(lower)) and np.all(np.isfinite(upper))):
        raise ValueError("all variables must have finite bounds")

    A_ub = np.zeros((0, n)) if A_ub is None else np.asarray(A_ub, dtype=float).reshape(-1, n)
    b_ub = np.zeros(0) if b_ub is None else np.asarray(b_ub, dtype=float).reshape(-1)
    A_eq = np.zeros((0, n)) if A_eq is None else np.asarray(A_eq, dtype=float).reshape(-1, n)
    b_eq = np.zeros(0) if b_eq is None else np.asarray(b_eq, dtype=float)
    B_eq = b_eq if b_eq.ndim == 2 else b_eq.reshape(1, -1)

    if np.any(upper < lower):
        outcomes = [LPInfeasible("empty box: some upper bound is below its lower bound") for _ in B_eq]
    else:
        # a tableau has m rows and at most n + m_ub + m + 1 columns
        m_ub = A_ub.shape[0] + n
        m = m_ub + A_eq.shape[0]
        height = max(1, STACK_FLOATS // (m * (n + m_ub + m + 1)))
        outcomes = []
        for start in range(0, len(B_eq), height):
            T, basis, n_art = _tableaux(c, A_ub, b_ub, A_eq, B_eq[start : start + height], lower, upper)
            if len(T) == 1:
                outcomes.append(_outcome(T[0], basis, c, lower, n_art))
            else:
                outcomes += _solve_stack(T, basis, c, lower, n_art)
    if b_eq.ndim == 2:
        return outcomes
    if isinstance(outcomes[0], Exception):
        raise outcomes[0]
    return outcomes[0]
