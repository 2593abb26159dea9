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
unfinished LPs.  LPs that have made the same pivots hold the same tableau
B^-1 [A | b] but for its right-hand-side column (Bertsimas & Tsitsiklis,
*Introduction to Linear Optimization*, section 3.3), so a stack holds one
tableau B^-1 A per pivot path, with no right-hand-side column, and each LP's
right-hand side B^-1 b as a row beside the tableaux, which every pivot of its
path updates as it updates a column.  LPs start on one path per pattern of
flipped equality rows.  A step picks each path's entering column and runs the
ratio test for every LP; where the LPs of a path choose different leaving
rows, the path splits before the pivot, its tableau copied.  The running paths
and their LPs are kept in place at the front of the stack.  Each LP makes
exactly the pivots, ratios and ties it would make alone, and MAX_PIVOTS counts
per LP.  Every call answers with arrays, a lone LP included, and each LP's
error goes once into one per-LP list, never raised.  A stack takes at most
STACK_FLOATS = 2^16 floats counted one tableau and right-hand side per LP, the
most its paths can hold, which bounds a tall stack's memory and takes a lemma2
gap check's 60 queries, at most 1,088 floats each, in one run.  Those start on
one path, and the paths split late: over a default lemma2 run the lockstep
steps pivot one tableau per eight LPs.

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
from .linalg import rows_dot

PIVOT_TOL = 1e-9
FEAS_TOL = 1e-7
MAX_PIVOTS = 20000
STACK_FLOATS = 2**16  # floats of a stack's LPs, one tableau and right-hand side each (512 KiB), the most its paths hold: 60 lemma2 queries of 1,088


@dataclass
class _Stack:
    """LPs that differ only in their right-hand sides, one tableau per pivot path.

    T[p] is path p's tableau, with no right-hand-side column, and basis[p] its
    basis.  R[e] is the right-hand side, objective entry last, of LP ids[e]
    on path owner[e].  The rows of R are in their paths' order, so where
    every path holds one LP, owner is the identity.  The stack alone holds
    its arrays, so an array that a regroup replaces is freed at once.
    """

    T: np.ndarray
    basis: np.ndarray
    R: np.ndarray
    owner: np.ndarray
    ids: np.ndarray


def _pivot_stack(T, basis, s, row, col, column, R, owner) -> None:
    """Pivot tableau p on its entry (row[p], col[p]), and every LP on path p with it; s is arange(len(T)).

    column[p] is tableau p's column col[p], objective entry included.  Row e
    of R gets the arithmetic of a column of path owner[e]'s tableau; where
    owner is the identity, it is not read.
    """
    entry = column[s, row]
    pivot_row = T[s, row] / entry[:, None]
    T -= column[:, :, None] * pivot_row[:, None, :]
    T[s, row] = pivot_row + 0.0  # pivot_row - 0.0 * pivot_row, bit for bit on finite entries
    basis[s, row] = col
    if len(R) != len(T):
        s, row, column, entry = np.arange(len(R)), row[owner], column[owner], entry[owner]
    pivot = R[s, row] / entry
    R -= column * pivot[:, None]
    R[s, row] = pivot + 0.0


def _set_objective(stack, cost) -> None:
    """Write cost, reduced to zero on the basic columns, into the objective row of every LP.

    Row i of a tableau is subtracted cost[basis[i]] times, in row order, where
    that cost is nonzero: the unit columns keep each basic variable's
    objective entry at its cost until its row is reached.  A row of R gets
    the arithmetic of a column of its path's tableau.
    """
    T, basis, R = stack.T, stack.basis, stack.R
    coef = cost[basis][:, :, None]
    terms = np.zeros(T.shape)
    terms[:, 0] = cost[: T.shape[2]]
    # a row whose basic cost is zero subtracts +0.0, which leaves every entry as it is
    np.multiply(coef, T[:, :-1], out=terms[:, 1:], where=coef != 0.0)
    np.subtract.reduce(terms, axis=1, out=T[:, -1])
    coef, terms = coef[:, :, 0] if len(R) == len(T) else coef[stack.owner, :, 0], np.zeros(R.shape)
    np.multiply(coef, R[:, :-1], out=terms[:, 1:], where=coef != 0.0)
    np.subtract.reduce(terms, axis=1, out=R[:, -1])


def _regroup(stack, key):
    """Regroup the LPs of the stack by key, one int per row of R; each path's key and source, and the live counts n, x.

    Every tableau is gathered anew: the LPs of a path with one key stay on
    one path, and each further key takes a copy of the tableau.  The n paths
    whose key is at least 0 come first, holding the x LPs whose key is, then
    the others, each in their former order, and R's rows follow their paths;
    src[q] is the path that path q was copied from.
    """
    T, owner = stack.T, stack.owner
    group = (owner + len(T) * (key < 0)) * T.shape[1] + key + 1
    order = group.argsort(kind="stable")  # a group's LPs in stack order
    starts = np.concatenate([[True], group[order[1:]] != group[order[:-1]]])
    first = order[starts]
    path_key, src = key[first], owner[first]
    stack.T, stack.basis = T[src], stack.basis[src]
    stack.R, stack.owner, stack.ids = stack.R[order], np.cumsum(starts) - 1, stack.ids[order]
    return path_key, src, np.count_nonzero(path_key >= 0), np.count_nonzero(key >= 0)


def _head(stack, n, x):
    """The stack's first n paths and first x LPs, as views."""
    return _Stack(stack.T[:n], stack.basis[:n], stack.R[:x], stack.owner[:x], stack.ids[:x])


def _run_stack(stack, structural, columns, failures) -> None:
    """Bland pivots on every LP of the stack in lockstep; an LP that breaks down gets its SolverFailure at failures[id].

    Columns up to ``structural``, the guard, may enter; every basis label is
    below ``columns``.  A step picks each path's entering column and runs the
    ratio test for every LP.  The n paths still running lead the stack, their
    x LPs lead R, and each step pivots those views.  Where an LP stops, or
    the LPs of a path choose different leaving rows, ``_regroup`` first
    splits the paths by the LPs' choices and moves the stopped ones behind
    the rest.  Where n equals x, own is the identity, and is not read.
    """
    n, x = len(stack.T), len(stack.R)
    every, no_ratios = np.arange(x), np.full((x, stack.R.shape[1] - 1), np.nan)
    t, b, r, own, s = stack.T, stack.basis, stack.R, stack.owner, every[:n]
    obj, rhs, lead = t[:, -1], r[:, :-1], s if n == x else np.searchsorted(own, s)  # lead: each path's first LP
    for _ in range(MAX_PIVOTS if n else 0):
        col = (obj < -PIVOT_TOL).argmax(axis=1)  # Bland: smallest eligible index enters
        column = t[s, :, col]
        entries, bases = (column[:, :-1], b) if n == x else (column[own, :-1], b[own])
        ratios = np.divide(rhs, entries, out=no_ratios[:x].copy(), where=entries > PIVOT_TOL)
        # each LP's tie bound on its least ratio; NaN where no row blocks
        least = np.fmin.reduce(ratios, axis=1)
        bound = least + 1e-12 * (1.0 + np.abs(least))
        stop = np.isnan(bound)
        stops = stop.any()
        if stops:
            for j in stack.ids[:x][stop & (col[own] < structural)].tolist():  # the guard enters only at an optimum
                failures[j] = SolverFailure("no blocking row for the entering column")
            if stop.all():
                return
        row = np.where(ratios <= bound[:, None], bases, columns).argmin(axis=1)  # Bland: smallest basic index leaves
        path_row = row if n == x else row[lead]
        if stops or (n < x and (path_row[own] != row).any()):
            key = np.concatenate([np.where(stop, -1, row), np.full(len(stack.ids) - x, -1)])  # -1: the LP stops, or stopped before
            path_row, src, n, x = _regroup(stack, key)
            t, b, r, own, s = stack.T[:n], stack.basis[:n], stack.R[:x], stack.owner[:x], every[:n]
            obj, rhs, lead = t[:, -1], r[:, :-1], s if n == x else np.searchsorted(own, s)
            col, column = col[src[:n]], column[src[:n]]
        _pivot_stack(t, b, s, path_row[:n], col, column, r, own)
    for j in stack.ids[:x].tolist():
        failures[j] = SolverFailure(f"simplex did not terminate within {MAX_PIVOTS} pivots")


def _solve_stack(stack, n_art, c, lower, X, values) -> list:
    """The two phases on every LP of the stack, which they change; per LP None or its error, one list both runs write.

    LP i's x and value go to X[i] and values[i], NaN if it fails.  Its n_art
    artificials are basis labels past the guard with no column.  The LPs that
    fail phase 1, and the paths they empty, leave the stack before phase 2.
    """
    structural, failures = stack.T.shape[2] - 1, [None] * len(stack.ids)
    columns = structural + 1 + n_art  # every label is below columns
    cost = np.zeros(columns)
    cost[structural] = -np.inf  # the guard

    # phase 1: minimize the artificial sum
    if n_art:
        _set_objective(stack, np.concatenate([cost[: structural + 1], np.ones(n_art)]))
        _run_stack(stack, structural, columns, failures)
        for j, value in zip(stack.ids.tolist(), (-stack.R[:, -1]).tolist()):
            if failures[j] is None and value > FEAS_TOL:
                failures[j] = LPInfeasible(f"phase 1 optimum {value:.3e} above feasibility tolerance")
        failed = np.array([failure is not None for failure in failures])[stack.ids]
        if failed.any():  # the LPs that passed lead the regrouped stack, and the rest leave it
            stack = _head(stack, *_regroup(stack, -failed.astype(int))[2:])
        # drive leftover artificials out of the basis where possible, row i of every path in turn;
        # a row with none to pivot on is redundant, and its artificial stays basic at value zero
        for i in (stack.basis > structural).any(axis=0).nonzero()[0]:
            paths = (stack.basis[:, i] > structural) & (np.abs(stack.T[:, i, :structural]) > PIVOT_TOL).any(axis=1)
            if paths.any():  # the paths to pivot lead the regrouped stack
                head = stack if paths.all() else _head(stack, *_regroup(stack, paths[stack.owner].astype(int) - 1)[2:])
                s = np.arange(len(head.T))
                col = (np.abs(head.T[:, i, :structural]) > PIVOT_TOL).argmax(axis=1)
                _pivot_stack(head.T, head.basis, s, np.full(len(s), i), col, head.T[s, :, col], head.R, head.owner)

    # phase 2: the original objective on the shifted variables
    cost[: c.shape[0]] = c
    _set_objective(stack, cost)
    _run_stack(stack, structural, columns, failures)
    # the answers at once
    basis, R, ids = stack.basis, stack.R, stack.ids
    Z = np.zeros((len(ids), columns))
    Z[np.arange(len(ids))[:, None], basis if len(R) == len(basis) else basis[stack.owner]] = R[:, :-1]
    x = Z[:, : c.shape[0]] + lower
    X[ids], values[ids] = x, rows_dot(x, c)
    for i, failure in enumerate(failures):
        if failure is not None:
            X[i], values[i] = np.nan, np.nan
    return failures


def _tableaux(c, A_ub, b_ub, A_eq, B_eq, lower, upper):
    """The starting stack of the LPs, one per row of B_eq, and the artificial count.

    Columns: the n shifted variables, the slacks, the guard; an artificial is
    a basis label past the guard, with no column.  Rows: the inequality,
    upper-bound and equality rows, then the objective row, zero.  Each LP's
    right-hand side is a row of R, its objective entry zero.  A row with
    negative right-hand side is flipped, the one step in which the LPs'
    tableaux differ, so the LPs start on one path per pattern of flipped
    equality rows, and R is sorted by path.
    """
    n, m_eq = c.shape[0], A_eq.shape[0]
    # shift to z = x - lower, append upper-bound rows z <= upper - lower
    rhs_ub = np.concatenate([b_ub - A_ub @ lower, upper - lower])
    m_ub = rhs_ub.shape[0]
    m, structural = m_ub + m_eq, n + m_ub
    # rows whose slack is unusable as an initial basic variable get an artificial:
    # every equality row, and every flipped inequality row (the same rows in every tableau)
    art_rows = np.concatenate([(rhs_ub < 0).nonzero()[0], np.arange(m_ub, m)])
    width = structural + 1
    basis = np.arange(n, n + m)
    basis[art_rows] = structural + 1 + np.arange(art_rows.size)

    shared = np.zeros((m, width))
    shared[: m_ub - n, :n] = A_ub
    shared[m_ub:, :n] = A_eq
    flat = shared.reshape(-1)  # a diagonal of a block is every (width + 1)-th entry from its corner
    flat[(m_ub - n) * width : m_ub * width : width + 1] = 1.0  # the upper-bound rows
    flat[n : m_ub * width : width + 1] = 1.0  # the slacks
    R = np.zeros((len(B_eq), m + 1))
    R[:, :m_ub], R[:, m_ub:m] = rhs_ub, B_eq - A_eq @ lower
    flips = R < 0
    first, path = np.zeros(1, dtype=int), np.zeros(len(B_eq), dtype=int)
    if len(B_eq) > 1 and (flips != flips[0]).any():
        _, first, path = np.unique(flips, axis=0, return_index=True, return_inverse=True)
        path = path.reshape(-1)
    sign, order = np.where(flips, -1.0, 1.0), path.argsort(kind="stable")  # flip rows with negative right-hand side
    T = np.zeros((len(first), m + 1, width))
    T[:, :m] = shared * sign[first, :m, None]
    return _Stack(T, basis[None].repeat(len(first), axis=0), (R * sign)[order], path[order], order), art_rows.size


def solve_lp(c, A_ub=None, b_ub=None, A_eq=None, b_eq=None, *, lower, upper):
    """Solve the boxed LPs that differ only in b_eq, one per row of ``b_eq`` (k, m_eq); returns (X, values, failures).

    A ``b_eq`` that is None or of shape (m_eq,) is a stack of one.  Row i of
    X (k, n) and values (k,) is LP i's x and value, or NaN where failures[i]
    is its LPInfeasible (no point satisfies the rows) or SolverFailure, and
    None where it is solved.  An LP needs at least one variable: ``c`` of
    length 0 raises DimensionMismatch, as do bounds, A_ub and A_eq not of
    shapes (n,), (len(b_ub), n) and (m_eq, n).
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
    B_eq = np.atleast_2d(np.zeros(0) if b_eq is None else np.asarray(b_eq, dtype=float))  # a 1-d b_eq is a stack of one
    if B_eq.ndim != 2 or A_ub.shape != (len(b_ub), n) or A_eq.shape != (B_eq.shape[1], n):
        raise DimensionMismatch(f"A_ub {A_ub.shape} and A_eq {A_eq.shape} must be (rows of b_ub or b_eq, {n})")

    X, values, failures = np.empty((len(B_eq), n)), np.empty(len(B_eq)), [None] * len(B_eq)
    if (upper < lower).any():
        return np.full_like(X, np.nan), np.full_like(values, np.nan), [LPInfeasible("empty box: some upper bound is below its lower bound") for _ in B_eq]
    # a tableau has m_ub + m_eq + 1 rows and n + m_ub + 1 columns, and each LP a right-hand-side column beside it
    m_ub = A_ub.shape[0] + n
    height = max(1, STACK_FLOATS // ((m_ub + A_eq.shape[0] + 1) * (n + m_ub + 2)))
    for rows in (slice(start, start + height) for start in range(0, len(B_eq), height)):
        failures[rows] = _solve_stack(*_tableaux(c, A_ub, b_ub, A_eq, B_eq[rows], lower, upper), c, lower, X[rows], values[rows])
    return X, values, failures
