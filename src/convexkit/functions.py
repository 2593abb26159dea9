"""Convex function families with exact values and exact subdifferentials.

Three families are closed under the operations used elsewhere:

* ``MaxAffine``     f(x) = max_i (a_i . x + b_i)
* ``Quadratic``     f(x) = x^T Q x + c . x + r0, with Q symmetric PSD
* ``SumFunction``   pointwise sum of the above

A ``MaxAffine`` stores only its arrays, the gradient rows ``matrix`` and the
``offsets`` b_i, and a ``Quadratic`` only ``Q``, ``c`` and ``r0``; each reads
its dimension off them, and ``MaxAffine.pieces`` is a view of its (a, b) rows.
``max_affine`` and ``quadratic`` are the constructors from pairs and from Q.

Every function has one normal form (``normal_form``): its max-affine blocks
in order plus at most one quadratic, the sum of its quadratic parts.  All
values, subgradients and subdifferentials are computed from it, and
``epigraph`` writes every row of the lifted program the solvers share: its
blocks' piece rows, then a domain's halfspaces, then a fiber's equality rows.

A subdifferential is a polytope kept as one generator block per summand of
the normal form (active gradients, or the quadratic's gradient): a sum's is
the Minkowski sum of its summands' (exact since every summand is finite
everywhere).  Support values add summand by summand (Rockafellar, Convex
Analysis, Thm 23.8) and give the slice intervals (Thm 23.4), so only
``Polytope.generators``, which the CLI prints, forms the product.  All values
are immutable; every operation here is a pure function of its arguments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import DimensionMismatch, SubdifferentialTooLarge
from .linalg import as_matrix, as_rows, as_vector, row_dots, row_norms, rows_dot

ACTIVE_TOL = 1e-9
PSD_FLOOR = -1e-8
SYMMETRY_TOL = 1e-10
MAX_GENERATOR_FLOATS = 2**24  # 128 MiB of float64 generators


def check_tolerance(name: str, value) -> None:
    """Raise ValueError, naming ``name``, unless the tolerance is finite and nonnegative, as ``harness.config_error`` asks."""
    if not 0.0 <= value < math.inf:  # NaN fails
        raise ValueError(f"{name} must be finite and nonnegative")


class AffinePiece(NamedTuple):
    """One affine piece x -> a . x + b: a row of ``MaxAffine.pieces``."""

    a: np.ndarray
    b: float


@dataclass(frozen=True)
class MaxAffine:
    """Pointwise maximum of the affine pieces x -> matrix[i] . x + offsets[i]."""

    matrix: np.ndarray
    offsets: np.ndarray

    def __post_init__(self):
        matrix = as_matrix(self.matrix)
        if not len(matrix):
            raise ValueError("a max-affine function needs at least one piece")
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "offsets", as_vector(self.offsets, len(matrix)))

    @property
    def dim(self) -> int:
        return self.matrix.shape[1]

    @property
    def pieces(self) -> tuple[AffinePiece, ...]:
        """The (a, b) rows of ``matrix`` and ``offsets``."""
        return tuple(map(AffinePiece, self.matrix, self.offsets.tolist()))


@dataclass(frozen=True)
class Quadratic:
    """x -> x^T Q x + c . x + r0 with Q symmetric positive semidefinite."""

    Q: np.ndarray
    c: np.ndarray
    r0: float = 0.0

    def __post_init__(self):
        Q = as_matrix(self.Q)
        if Q.shape[0] != Q.shape[1]:
            raise DimensionMismatch(f"Q must be square, got shape {Q.shape}")
        c = as_vector(self.c, len(Q))
        if np.max(np.abs(Q - Q.T), initial=0.0) > SYMMETRY_TOL:
            raise ValueError("Q must be symmetric within 1e-10")
        if len(Q) and float(np.min(np.linalg.eigvalsh(Q))) < PSD_FLOOR:
            raise ValueError("Q must be positive semidefinite (eigenvalue floor -1e-8)")
        object.__setattr__(self, "Q", Q)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "r0", float(self.r0))
        if not np.isfinite(self.r0):
            raise ValueError("constant term must be finite")

    @property
    def dim(self) -> int:
        return len(self.Q)


@dataclass(frozen=True)
class SumFunction:
    """Pointwise sum of convex functions on a common space."""

    dim: int
    parts: tuple

    def __post_init__(self):
        parts = tuple(self.parts)
        if not parts:
            raise ValueError("a sum needs at least one part")
        for p in parts:
            if p.dim != self.dim:
                raise DimensionMismatch(
                    f"part has dimension {p.dim}, sum has {self.dim}"
                )
        object.__setattr__(self, "parts", parts)

    @cached_property
    def normal_form(self) -> tuple[tuple[MaxAffine, ...], Quadratic | None]:
        """The flattened blocks and the summed quadratic; see ``normal_form``."""
        forms = [normal_form(p) for p in self.parts]
        quads = [q for _, q in forms if q is not None]
        if len(quads) > 1:
            Q, c, r0 = (_total([getattr(q, k) for q in quads]) for k in ("Q", "c", "r0"))
            quads = [Quadratic(Q, c, r0)]
        return tuple(b for blocks, _ in forms for b in blocks), (quads[0] if quads else None)


ConvexFunction = MaxAffine | Quadratic | SumFunction


def quadratic(Q, c=None, r0: float = 0.0) -> Quadratic:
    """Convenience constructor whose linear term defaults to zero."""
    Q = as_matrix(Q)
    return Quadratic(Q, np.zeros(len(Q)) if c is None else c, r0)


def max_affine(pieces) -> MaxAffine:
    """Convenience constructor from (a, b) pairs, one per piece x -> a . x + b."""
    pieces = tuple(pieces)
    if not pieces:
        raise ValueError("a max-affine function needs at least one piece")
    if len({np.shape(a) for a, _ in pieces}) > 1:
        raise DimensionMismatch("piece gradients differ in dimension")
    return MaxAffine([a for a, _ in pieces], [b for _, b in pieces])


@dataclass(frozen=True)
class Polytope:
    """The Minkowski sum of the convex hulls of the generator blocks (rows) ``summands``, all in R^ambient_dim."""

    summands: tuple

    def __post_init__(self):
        blocks = tuple(map(as_matrix, self.summands))
        if not blocks or not all(map(len, blocks)):
            raise ValueError("a polytope needs at least one summand, each with at least one generator")
        if len({s.shape[1] for s in blocks}) > 1:
            raise DimensionMismatch("summands differ in dimension")
        object.__setattr__(self, "summands", blocks)

    @property
    def ambient_dim(self) -> int:
        return self.summands[0].shape[1]

    @cached_property
    def generators(self) -> np.ndarray:
        """Every sum of one row per summand, the last varying fastest; refused above MAX_GENERATOR_FLOATS floats."""
        count, dim = math.prod(map(len, self.summands)), self.ambient_dim
        if count * dim > MAX_GENERATOR_FLOATS:
            raise SubdifferentialTooLarge(
                f"the Minkowski sum has {count} generators in R^{dim}, "
                f"{count * dim} floats above the budget of {MAX_GENERATOR_FLOATS}"
            )
        gens = self.summands[0]
        for more in self.summands[1:]:
            gens = (gens[:, None, :] + more[None, :, :]).reshape(len(gens) * len(more), dim)
        return gens


def support_function(P: Polytope, v) -> float | np.ndarray:
    """h_P(v) = max over P of the inner product with v: a float, or an array for a (k, dim) stack.

    The maxima of the summands' blocks are summed in summand order.  Each row
    equals its own call bit for bit.
    """
    V = as_rows(v, P.ambient_dim)
    h = _total([rows_dot(V, s).max(axis=1) for s in P.summands])
    return h if np.ndim(v) == 2 else float(h[0])


def normal_form(f: ConvexFunction) -> tuple[tuple[MaxAffine, ...], Quadratic | None]:
    """The max-affine blocks of ``f`` in order, and its quadratic parts summed.

    Nested sums are flattened; a sum caches its normal form.  The quadratic
    is None when ``f`` has no quadratic part.
    """
    if isinstance(f, MaxAffine):
        return (f,), None
    if isinstance(f, Quadratic):
        return (), f
    if isinstance(f, SumFunction):
        return f.normal_form
    raise TypeError(f"not a convex function: {type(f).__name__}")


def _total(terms):
    # starting from the first term keeps a lone -0.0 as it is
    return sum(terms[1:], terms[0])


def _gradient(q: Quadratic, x) -> np.ndarray:
    return 2.0 * (q.Q @ x) + q.c


def evaluate(f: ConvexFunction, x) -> float:
    """Exact function value at ``x``: ``evaluate_many`` on the stack of one."""
    return float(evaluate_many(f, as_vector(x, f.dim)[None])[0])


def evaluate_many(f: ConvexFunction, X) -> np.ndarray:
    """Exact values at the rows of ``X`` (shape (N, dim)); row i equals ``evaluate(f, X[i])`` bit for bit."""
    X = as_matrix(X)
    if X.shape[1] != f.dim:
        raise DimensionMismatch(f"points have dimension {X.shape[1]}, function has {f.dim}")
    blocks, quad = normal_form(f)
    terms = [(rows_dot(X, b.matrix) + b.offsets).max(axis=1) for b in blocks]
    if quad is not None:
        terms.append(row_dots(rows_dot(X, quad.Q.T), X) + rows_dot(X, quad.c) + quad.r0)
    return _total(terms)


def epigraph(d: int, blocks, radius: float, halfspaces, fiber):
    """Every row of the epigraph lift of a sum of max-affine blocks on R^d over the box |x_j| <= radius.

    Variables are (x, t_1 .. t_p), t_k bounded by the range of block k over
    the box, widened by 1.  The rows, in order: a . x - t_k <= -b for every
    piece of block k, blocks and pieces in order; g . x <= h for every (g, h)
    of ``halfspaces``; the equality rows [fiber, 0], one per row of ``fiber``
    (shape (m, d)), whose right-hand side the caller sets.  Minimizing
    ``cost``, the sum of the t_k, minimizes the sum of the blocks.
    Returns (cost, A_ub, b_ub, A_eq, lower, upper).

    ``fiber`` is not coerced through ``linalg.as_matrix``: a marginal passes
    the view S.T, which leaves [fiber, 0] F-ordered for one block, and
    ``solve_lp``'s b_eq - A_eq @ lower rounds by that order; a C-ordered copy
    changes marginal solutions in the last bits, and the report digests.
    """
    p = len(blocks)
    sizes = [len(block.offsets) for block in blocks]
    A_ub = np.zeros((sum(sizes) + len(halfspaces), d + p))
    A_ub[:, :d] = np.vstack([block.matrix for block in blocks] + [np.reshape([g for g, _ in halfspaces], (-1, d))])
    A_ub[np.arange(sum(sizes)), d + np.repeat(np.arange(p), sizes)] = -1.0
    b_ub = np.concatenate([-block.offsets for block in blocks] + [[h for _, h in halfspaces]])
    reach = [np.abs(block.matrix) @ np.full(d, radius) for block in blocks]
    t_lo = [float(np.min(block.offsets - r)) - 1.0 for block, r in zip(blocks, reach)]
    t_hi = [float(np.max(block.offsets + r)) + 1.0 for block, r in zip(blocks, reach)]
    cost = np.concatenate([np.zeros(d), np.ones(p)])
    lower = np.concatenate([np.full(d, -radius), t_lo])
    upper = np.concatenate([np.full(d, radius), t_hi])
    return cost, A_ub, b_ub, np.hstack([fiber, np.zeros((len(fiber), p))]), lower, upper


def subdifferential(f: ConvexFunction, x, active_tol: float = ACTIVE_TOL) -> Polytope:
    """The subdifferential at ``x``: a polytope with one generator block per summand of the normal form.

    A max-affine block gives its active gradients, the quadratic its
    gradient.  ``active_tol`` is relative: a piece counts as active when its
    value is within active_tol * (|max| + 1) of its block's maximum.
    """
    check_tolerance("active_tol", active_tol)
    x = as_vector(x, f.dim)
    blocks, quad = normal_form(f)
    sets = []
    for b in blocks:
        values = b.matrix @ x + b.offsets
        top = float(np.max(values))
        sets.append(b.matrix[values >= top - active_tol * (abs(top) + 1.0)])
    if quad is not None:
        sets.append(_gradient(quad, x)[None, :])
    return Polytope(tuple(sets))


def one_dim_subdifferential(f: ConvexFunction, x, v, active_tol: float = ACTIVE_TOL) -> tuple:
    """Subdifferential interval of t -> f(x + t v) at t = 0, for one direction or each row of a (k, dim) stack.

    Returns (lo, hi) = (left derivative, right derivative), two floats or two
    arrays: the support values (-h(-v), h(v)) of ``subdifferential``'s polytope,
    the sums over its summands of the least and the greatest product with v,
    each row its own call's bit for bit.  Both come from one product per
    summand, so lo <= hi however the products round.
    """
    check_tolerance("active_tol", active_tol)
    V = as_rows(v, f.dim)
    if not row_norms(V).all():
        raise ValueError("direction must be nonzero")
    along = [rows_dot(V, s) for s in subdifferential(f, x, active_tol).summands]
    lo, hi = _total([a.min(axis=1) for a in along]), _total([a.max(axis=1) for a in along])
    return (lo, hi) if np.ndim(v) == 2 else (float(lo[0]), float(hi[0]))
