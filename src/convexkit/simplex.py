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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import LPInfeasible, SolverFailure

PIVOT_TOL = 1e-9
FEAS_TOL = 1e-7
MAX_PIVOTS = 20000


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


def solve_lp(c, A_ub=None, b_ub=None, A_eq=None, b_eq=None, *, lower, upper) -> LPSolution:
    """Solve the boxed LP; raises LPInfeasible when no point satisfies the rows."""
    c = np.asarray(c, dtype=float)
    n = c.shape[0]
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    if lower.shape != (n,) or upper.shape != (n,):
        raise ValueError("bounds must match the variable count")
    if not (np.all(np.isfinite(lower)) and np.all(np.isfinite(upper))):
        raise ValueError("all variables must have finite bounds")
    if np.any(upper < lower):
        raise LPInfeasible("empty box: some upper bound is below its lower bound")

    A_ub = np.zeros((0, n)) if A_ub is None else np.asarray(A_ub, dtype=float).reshape(-1, n)
    b_ub = np.zeros(0) if b_ub is None else np.asarray(b_ub, dtype=float).reshape(-1)
    A_eq = np.zeros((0, n)) if A_eq is None else np.asarray(A_eq, dtype=float).reshape(-1, n)
    b_eq = np.zeros(0) if b_eq is None else np.asarray(b_eq, dtype=float).reshape(-1)

    # shift to z = x - lower, append upper-bound rows z <= upper - lower
    width = upper - lower
    rows_ub = np.vstack([A_ub, np.eye(n)])
    rhs_ub = np.concatenate([b_ub - A_ub @ lower, width])
    rhs_eq = b_eq - A_eq @ lower

    m_ub, m_eq = rows_ub.shape[0], A_eq.shape[0]
    m = m_ub + m_eq
    body = np.vstack([np.hstack([rows_ub, np.eye(m_ub)]), np.hstack([A_eq, np.zeros((m_eq, m_ub))])])
    rhs = np.concatenate([rhs_ub, rhs_eq])

    # flip rows with negative right-hand side
    neg = rhs < 0
    body[neg] *= -1.0
    rhs[neg] *= -1.0

    # rows whose slack is unusable as an initial basic variable get an artificial:
    # every equality row, and every flipped inequality row
    needs_art = np.ones(m, dtype=bool)
    structural = n + m_ub
    basis = np.zeros(m, dtype=int)
    for i in range(m_ub):
        if not neg[i]:
            needs_art[i] = False
            basis[i] = n + i
    art_rows = np.where(needs_art)[0]
    n_art = art_rows.size
    art_block = np.zeros((m, n_art))
    for j, i in enumerate(art_rows):
        art_block[i, j] = 1.0
        basis[i] = structural + j

    T = np.hstack([body, art_block, rhs[:, None]])
    total = structural + n_art
    allowed = np.ones(total, dtype=bool)
    allowed[structural:] = False  # artificials never enter

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
    cost2[:n] = c
    obj = _build_objective(cost2, T, basis)
    _run(T, obj, basis, allowed)

    z = np.zeros(total)
    z[basis] = T[:, -1]
    x = z[:n] + lower
    return LPSolution(x=x, value=float(c @ x))
