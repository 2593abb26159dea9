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
tableau per pivot path: the last column is the right-hand side of the path's
first LP, and each other LP on the path keeps only its right-hand-side column,
a row beside the tableaux that every pivot updates with the arithmetic of its
path's last column.  LPs start on one path per pattern of flipped equality
rows.  A step picks each path's entering column and runs the ratio test for
every LP; where the LPs of a path choose different leaving rows, the path
splits before the pivot, its tableau copied.  The running paths are kept in
place at the front of the stack.  Each LP makes exactly the pivots, ratios and
ties it would make alone, and MAX_PIVOTS counts per LP; the answers are read
back as arrays.  A stack takes at most STACK_FLOATS = 2^16 tableau entries
counted one tableau per LP, the most its paths can hold, which bounds a tall
stack's memory and takes a lemma2 gap check's 60 queries, at most 1,088
entries each, in one run.  Those start on one path, and the paths split late:
over a default lemma2 run the lockstep steps pivot one tableau per eight LPs.

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
STACK_FLOATS = 2**16  # tableau floats of a stack's LPs, one tableau each (512 KiB), the most its paths hold: 60 lemma2 queries of 1,088


@dataclass(frozen=True)
class LPSolution:
    x: np.ndarray
    value: float


@dataclass
class _Stack:
    """LPs that differ only in their right-hand sides, one tableau per pivot path.

    T[p] is path p's tableau, with the right-hand side of its first LP in the
    last column, and basis[p] its basis.  R[e] is the right-hand-side column,
    objective entry included, of another LP on path owner[e]; a regroup puts
    the rows of R in their paths' order.  ids holds the LP of each tableau,
    then the LP of each row of R.  The stack alone holds its arrays, so an
    array that a regroup replaces is freed at once.
    """

    T: np.ndarray
    basis: np.ndarray
    R: np.ndarray
    owner: np.ndarray
    ids: np.ndarray


def _pivot_stack(T, basis, s, row, col, column, R, owner) -> None:
    """Pivot tableau p on its entry (row[p], col[p]), and every LP on path p with it; s is arange(len(T)).

    column[p] is tableau p's column col[p], objective entry included.  Row e
    of R, on path owner[e], gets the arithmetic of its path's last column.
    """
    pivot_row = T[s, row] / column[s, row][:, None]
    T -= column[:, :, None] * pivot_row[:, None, :]
    T[s, row] = pivot_row + 0.0  # pivot_row - 0.0 * pivot_row, bit for bit on finite entries
    basis[s, row] = col
    if len(R):
        e, row, extra = np.arange(len(R)), row[owner], column[owner]
        pivot = R[e, row] / extra[e, row]
        R -= extra * pivot[:, None]
        R[e, row] = pivot + 0.0


def _set_objective(stack, cost) -> None:
    """Write cost, reduced to zero on the basic columns, into the objective row of every LP.

    Row i of a tableau is subtracted cost[basis[i]] times, in row order, where
    that cost is nonzero: the unit columns keep each basic variable's
    objective entry at its cost until its row is reached.  A row of R gets
    the arithmetic of its path's last column.
    """
    T, basis, R = stack.T, stack.basis, stack.R
    coef = cost[basis][:, :, None]
    terms = np.zeros(T.shape)
    terms[:, 0, :-1] = cost[: T.shape[2] - 1]
    # a row whose basic cost is zero subtracts +0.0, which leaves every entry as it is
    np.multiply(coef, T[:, :-1], out=terms[:, 1:], where=coef != 0.0)
    np.subtract.reduce(terms, axis=1, out=T[:, -1])
    if len(R):
        coef, terms = coef[stack.owner, :, 0], np.zeros(R.shape)
        np.multiply(coef, R[:, :-1], out=terms[:, 1:], where=coef != 0.0)
        np.subtract.reduce(terms, axis=1, out=R[:, -1])


def _regroup(stack, key):
    """Regroup the LPs of the stack by key, one int per LP (tableaux first, then rows of R); each path's key and source.

    Every tableau is gathered anew: the LPs of a path with one key stay on
    one path, and each further key takes a copy of the tableau, whose last
    column becomes the right-hand side of the key's first LP, taken out of R.
    The paths whose key is at least 0 come first, then the others, each in
    their former order; src[q] is the path that path q was copied from.
    """
    T, R, P, L = stack.T, stack.R, len(stack.T), len(stack.ids)
    path = np.concatenate([np.arange(P), stack.owner])
    group = (path + P * (key < 0)) * T.shape[1] + key + 1
    order = group.argsort(kind="stable")  # a group's LPs in stack order, so a tableau's LP leads its group
    starts = np.ones(L, dtype=bool)
    np.not_equal(group[order[1:]], group[order[:-1]], out=starts[1:])
    first, rest = order[starts], order[~starts]
    src = path[first]
    stack.T = T[src]
    moved = first >= P  # these leave R for a tableau's last column
    stack.T[moved, :, -1] = R[first[moved] - P]
    stack.basis, stack.R, stack.owner = stack.basis[src], R[rest - P], (np.cumsum(starts) - 1)[~starts]
    stack.ids = stack.ids[np.concatenate([first, rest])]
    return key[first], src


def _run_stack(stack, structural, columns) -> list:
    """Bland pivots on every LP of the stack in lockstep; per LP None or its SolverFailure, in the order of stack.ids.

    Columns up to ``structural``, the guard, may enter; every basis label is
    below ``columns``.  A step picks each path's entering column and runs the
    ratio test for every LP.  The n paths still running lead the stack, their
    x rows of R lead R, and each step pivots those views.  Where an LP stops,
    or the LPs of a path choose different leaving rows, ``_regroup`` first
    splits the paths by the LPs' choices and moves the stopped ones behind
    the rest.
    """
    failures, n, x = {}, len(stack.T), len(stack.R)
    every, no_ratios = np.arange(len(stack.ids)), np.full((len(stack.ids), stack.T.shape[1] - 1), np.nan)
    t, b, r, own, s = stack.T, stack.basis, stack.R, stack.owner, every[:n]
    obj, rhs, path = t[:, -1, : structural + 1], t[:, :-1, -1], np.concatenate([s, own]) if x else s  # path: each LP's
    for _ in range(MAX_PIVOTS if n else 0):
        col = (obj < -PIVOT_TOL).argmax(axis=1)  # Bland: smallest eligible index enters
        column = t[s, :, col]
        ratios, entries, bases = rhs, column[:, :-1], b
        if x:  # the rows of R after the tableaux' own right-hand sides
            ratios, entries, bases = np.concatenate([rhs, r[:, :-1]]), column[path, :-1], b[path]
        ratios = np.divide(ratios, entries, out=no_ratios[: n + x].copy(), where=entries > PIVOT_TOL)
        # each LP's tie bound on its least ratio; NaN where no row blocks
        least = np.fmin.reduce(ratios, axis=1)
        bound = least + 1e-12 * (1.0 + np.abs(least))
        stop = np.isnan(bound)
        stops = stop.any()
        if stops:
            P, breakdown = len(stack.T), stop & (col[path] < structural)  # the guard enters only at an optimum
            if breakdown.any():
                for j in np.concatenate([stack.ids[:n], stack.ids[P : P + x]])[breakdown].tolist():
                    failures[j] = SolverFailure("no blocking row for the entering column")
            if stop.all():
                n = x = 0
                break
        row = np.where(ratios <= bound[:, None], bases, columns).argmin(axis=1)  # Bland: smallest basic index leaves
        if stops or (x and (row[n:] != row[own]).any()):
            P = len(stack.T)
            key, row = np.full(len(stack.ids), -1), np.where(stop, -1, row)  # -1: the LP stops, or stopped before
            key[:n], key[P : P + x] = row[:n], row[n:]
            row, src = _regroup(stack, key)
            n = np.count_nonzero(row >= 0)
            x = np.count_nonzero(stack.owner < n)
            t, b, r, own, s = stack.T[:n], stack.basis[:n], stack.R[:x], stack.owner[:x], every[:n]
            obj, rhs, path = t[:, -1, : structural + 1], t[:, :-1, -1], np.concatenate([s, own])
            col, column = col[src[:n]], column[src[:n]]
        _pivot_stack(t, b, s, row[:n], col, column, r, own)
    else:
        P = len(stack.T)
        for j in np.concatenate([stack.ids[:n], stack.ids[P : P + x]]).tolist():
            failures[j] = SolverFailure(f"simplex did not terminate within {MAX_PIVOTS} pivots")
    return [failures.get(j) for j in stack.ids.tolist()]


def _solve_stack(stack, n_art, c, lower, X, values) -> list:
    """The two phases on every LP of the stack, which they change; per LP None or its error, in order.

    LP i's x and value go to X[i] and values[i], NaN if it fails.  Its n_art
    artificials are basis labels past the guard with no column.  The LPs that
    fail phase 1 leave the stack before phase 2; where one led its path, the
    next LP on the path takes over its tableau.
    """
    k, structural = len(stack.ids), stack.T.shape[2] - 2
    columns = structural + 1 + n_art  # every label is below columns
    cost = np.zeros(columns)
    cost[structural] = -np.inf  # the guard
    failures = [None] * k

    # phase 1: minimize the artificial sum
    if n_art:
        _set_objective(stack, np.concatenate([cost[: structural + 1], np.ones(n_art)]))
        ended = _run_stack(stack, structural, columns)
        optimum = -stack.T[:, -1, -1] if not len(stack.R) else -np.concatenate([stack.T[:, -1, -1], stack.R[:, -1]])
        ids = stack.ids.tolist()
        for j, failure, value in zip(ids, ended, optimum.tolist()):
            if failure is None and value > FEAS_TOL:
                failure = LPInfeasible(f"phase 1 optimum {value:.3e} above feasibility tolerance")
            failures[j] = failure
        failed = np.array([failures[j] is not None for j in ids])
        if failed.any():  # the LPs that passed lead the regrouped stack, and the rest leave it
            n = np.count_nonzero(_regroup(stack, -failed.astype(int))[0] >= 0)
            x, P = np.count_nonzero(stack.owner < n), len(stack.T)
            stack.ids = np.concatenate([stack.ids[:n], stack.ids[P : P + x]])
            stack.T, stack.basis, stack.R, stack.owner = stack.T[:n], stack.basis[:n], stack.R[:x], stack.owner[:x]
        # drive leftover artificials out of the basis where possible, row i of every path in turn;
        # a row with none to pivot on is redundant, and its artificial stays basic at value zero
        for i in (stack.basis > structural).any(axis=0).nonzero()[0]:
            pivots = np.abs(stack.T[:, i, :structural]) > PIVOT_TOL
            paths = (stack.basis[:, i] > structural) & pivots.any(axis=1)
            if paths.any():
                if not paths.all():  # the paths to pivot lead the regrouped stack
                    _regroup(stack, np.concatenate([paths, paths[stack.owner]]).astype(int) - 1)
                n = np.count_nonzero(paths)
                x, s = np.count_nonzero(stack.owner < n), np.arange(n)
                col = (np.abs(stack.T[:n, i, :structural]) > PIVOT_TOL).argmax(axis=1)
                _pivot_stack(stack.T[:n], stack.basis[:n], s, np.full(n, i), col, stack.T[s, :, col], stack.R[:x], stack.owner[:x])

    # phase 2: the original objective on the shifted variables
    cost[: c.shape[0]] = c
    _set_objective(stack, cost)
    ended = _run_stack(stack, structural, columns)
    for j, failure in zip(stack.ids.tolist(), ended):
        failures[j] = failure
    # the answers at once; a stacked dot over C-ordered rows is the one-row dot c @ x
    T, basis, R, owner, ids = stack.T, stack.basis, stack.R, stack.owner, stack.ids
    rhs = T[:, :-1, -1]
    if len(R):
        basis, rhs = np.concatenate([basis, basis[owner]]), np.concatenate([rhs, R[:, :-1]])
    Z = np.zeros((len(ids), columns))
    Z[np.arange(len(ids))[:, None], basis] = rhs
    x = Z[:, : c.shape[0]] + lower
    X[ids], values[ids] = x, (x[:, None, :] @ c[:, None])[:, 0, 0]
    for i, failure in enumerate(failures):
        if failure is not None:
            X[i], values[i] = np.nan, np.nan
    return failures


def _tableaux(c, A_ub, b_ub, A_eq, B_eq, lower, upper):
    """The starting stack of the LPs, one per row of B_eq, and the artificial count.

    Columns: the n shifted variables, the slacks, the guard, the right-hand
    side; an artificial is a basis label past the guard, with no column.  Rows:
    the inequality, upper-bound and equality rows, then the objective row, zero.
    A row with negative right-hand side is flipped, the one step in which the
    LPs' tableaux differ beyond their last column, so the LPs start on one path
    per pattern of flipped equality rows.
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
    rhs_eq = B_eq - A_eq @ lower
    first = np.zeros(1, dtype=int)
    if len(B_eq) > 1:
        flips = rhs_eq < 0
        path = np.zeros(len(B_eq), dtype=int)
        if (flips != flips[0]).any():
            _, first, path = np.unique(flips, axis=0, return_index=True, return_inverse=True)
            path = path.reshape(-1)
    T = np.zeros((len(first), m + 1, width))
    rows = T[:, :m]
    rows[:] = shared
    rows[:, m_ub:, -1] = rhs_eq[first]
    rows *= np.where(rows[:, :, -1:] < 0, -1.0, 1.0)  # flip rows with negative right-hand side
    basis = basis[None].repeat(len(first), axis=0)
    if len(B_eq) == 1:  # a lone LP is its path
        return _Stack(T, basis, np.zeros((0, m + 1)), np.zeros(0, dtype=int), first), art_rows.size
    rest = np.delete(np.arange(len(B_eq)), first)
    R = np.zeros((len(rest), m + 1))
    R[:, :m_ub], R[:, m_ub:m] = rhs_ub, rhs_eq[rest]
    R[:, :m] *= np.where(R[:, :m] < 0, -1.0, 1.0)
    return _Stack(T, basis, R, path[rest], np.concatenate([first, rest])), art_rows.size


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
