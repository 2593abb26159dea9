"""Convex function families with exact values and exact subdifferentials.

Three families are closed under the operations used elsewhere:

* ``MaxAffine``     f(x) = max_i (a_i . x + b_i)
* ``Quadratic``     f(x) = x^T Q x + c . x + r0, with Q symmetric PSD
* ``SumFunction``   pointwise sum of the above

Every function has one normal form (``normal_form``): its max-affine blocks
in order plus at most one quadratic, the sum of its quadratic parts.  All
values, subgradients and subdifferentials are computed from it, and
``epigraph`` writes every row of the lifted program the solvers share: its
blocks' piece rows, then a domain's halfspaces, then a fiber's equality rows.

Subdifferentials are returned as polytopes in generator form; no inequality
representation is ever needed because every question downstream is answered
through support values.  For these families the generator sets are exact:
active gradients for a max of affine pieces, the single gradient for a
quadratic, and the Minkowski sum of the summands' sets for a sum (exact since
every summand is finite everywhere).  All values involved are immutable;
every operation here is a pure function of its arguments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DimensionMismatch, SubdifferentialTooLarge
from .linalg import as_matrix, as_rows, as_vector, row_norms

ACTIVE_TOL = 1e-9
PSD_FLOOR = -1e-8
SYMMETRY_TOL = 1e-10
MAX_GENERATOR_FLOATS = 2**24  # 128 MiB of float64 generators


@dataclass(frozen=True)
class AffinePiece:
    """One affine piece x -> a . x + b."""

    a: np.ndarray
    b: float

    def __post_init__(self):
        object.__setattr__(self, "a", as_vector(self.a))
        object.__setattr__(self, "b", float(self.b))
        if not np.isfinite(self.b):
            raise ValueError("offset must be finite")


@dataclass(frozen=True)
class MaxAffine:
    """Pointwise maximum of finitely many affine pieces."""

    dim: int
    pieces: tuple[AffinePiece, ...]

    def __post_init__(self):
        pieces = tuple(
            p if isinstance(p, AffinePiece) else AffinePiece(*p) for p in self.pieces
        )
        if not pieces:
            raise ValueError("a max-affine function needs at least one piece")
        for p in pieces:
            if p.a.shape[0] != self.dim:
                raise DimensionMismatch(
                    f"piece gradient has dimension {p.a.shape[0]}, function has {self.dim}"
                )
        object.__setattr__(self, "pieces", pieces)

    @cached_property
    def matrix(self) -> np.ndarray:
        """Piece gradients stacked as rows, shape (pieces, dim)."""
        return np.array([p.a for p in self.pieces])

    @cached_property
    def offsets(self) -> np.ndarray:
        return np.array([p.b for p in self.pieces])


@dataclass(frozen=True)
class Quadratic:
    """x -> x^T Q x + c . x + r0 with Q symmetric positive semidefinite."""

    dim: int
    Q: np.ndarray
    c: np.ndarray
    r0: float = 0.0

    def __post_init__(self):
        Q = as_matrix(self.Q, (self.dim, self.dim))
        c = as_vector(self.c, self.dim)
        if np.max(np.abs(Q - Q.T), initial=0.0) > SYMMETRY_TOL:
            raise ValueError("Q must be symmetric within 1e-10")
        if self.dim > 0 and float(np.min(np.linalg.eigvalsh(Q))) < PSD_FLOOR:
            raise ValueError("Q must be positive semidefinite (eigenvalue floor -1e-8)")
        object.__setattr__(self, "Q", Q)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "r0", float(self.r0))
        if not np.isfinite(self.r0):
            raise ValueError("constant term must be finite")


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
            quads = [Quadratic(self.dim, Q, c, r0)]
        return tuple(b for blocks, _ in forms for b in blocks), (quads[0] if quads else None)


ConvexFunction = MaxAffine | Quadratic | SumFunction


def quadratic(Q, c=None, r0: float = 0.0) -> Quadratic:
    """Convenience constructor that infers the dimension from Q."""
    Q = as_matrix(Q)
    dim = Q.shape[0]
    if c is None:
        c = np.zeros(dim)
    return Quadratic(dim, Q, c, r0)


def max_affine(pieces) -> MaxAffine:
    """Convenience constructor that infers the dimension from the first piece."""
    pieces = tuple(p if isinstance(p, AffinePiece) else AffinePiece(*p) for p in pieces)
    return MaxAffine(pieces[0].a.shape[0] if pieces else 0, pieces)


@dataclass(frozen=True)
class Polytope:
    """Convex hull of finitely many generator points (rows), in R^ambient_dim."""

    generators: np.ndarray

    def __post_init__(self):
        g = as_matrix(self.generators)
        if g.shape[0] == 0:
            raise ValueError("a polytope needs at least one generator")
        object.__setattr__(self, "generators", g)

    @property
    def ambient_dim(self) -> int:
        return self.generators.shape[1]


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
    """Exact values at the rows of ``X`` (shape (N, dim)); row i equals ``evaluate(f, X[i])`` bit for bit.

    Every product is a matmul stacked over the C-ordered rows, which makes
    the same per-row BLAS call (gemv or dot) as the one-point product;
    one matrix-matrix product over all rows would round differently.
    """
    X = as_matrix(X)
    if X.shape[1] != f.dim:
        raise DimensionMismatch(f"points have dimension {X.shape[1]}, function has {f.dim}")
    blocks, quad = normal_form(f)
    columns, rows = X[:, :, None], X[:, None, :]
    terms = [np.max((b.matrix @ columns)[:, :, 0] + b.offsets, axis=1) for b in blocks]
    if quad is not None:
        terms.append(((rows @ quad.Q) @ columns)[:, 0, 0] + (rows @ quad.c[:, None])[:, 0, 0] + quad.r0)
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
    sizes = [len(block.pieces) for block in blocks]
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


def _summand_generators(f, x, active_tol) -> list[np.ndarray]:
    """Per summand of the normal form, the generators of its subdifferential."""
    x = as_vector(x, f.dim)
    if active_tol < 0:
        raise ValueError("active_tol must be nonnegative")
    blocks, quad = normal_form(f)
    sets = []
    for b in blocks:
        values = b.matrix @ x + b.offsets
        top = float(np.max(values))
        sets.append(b.matrix[values >= top - active_tol * (abs(top) + 1.0)])
    if quad is not None:
        sets.append(_gradient(quad, x)[None, :])
    return sets


def subdifferential(f: ConvexFunction, x, active_tol: float = ACTIVE_TOL) -> Polytope:
    """The subdifferential at ``x`` as a generator polytope.

    ``active_tol`` is relative: a piece counts as active when its value is
    within active_tol * (|max| + 1) of its block's maximum.  A sum's
    generators are the Minkowski sum of its summands' sets; when that would
    exceed MAX_GENERATOR_FLOATS floats, SubdifferentialTooLarge is raised
    before anything is allocated.
    """
    sets = _summand_generators(f, x, active_tol)
    count = math.prod(len(s) for s in sets)
    if count * f.dim > MAX_GENERATOR_FLOATS:
        raise SubdifferentialTooLarge(
            f"the subdifferential has {count} generators in R^{f.dim}, "
            f"{count * f.dim} floats above the budget of {MAX_GENERATOR_FLOATS}"
        )
    gens = sets[0]
    for more in sets[1:]:
        gens = (gens[:, None, :] + more[None, :, :]).reshape(len(gens) * len(more), f.dim)
    return Polytope(gens)


def one_dim_subdifferential(f: ConvexFunction, x, v, active_tol: float = ACTIVE_TOL) -> tuple:
    """Subdifferential interval of t -> f(x + t v) at t = 0, for one direction or each row of a (k, dim) stack.

    Returns (lo, hi) = (left derivative, right derivative), two floats or two
    arrays; lo <= hi always.  Support values add over a Minkowski sum, so each
    summand's interval is found on its own generators and the intervals are
    summed.  The active sets are found once per call; each row's interval
    equals its own call's bit for bit, as stacked matmuls make per-row gemvs.
    """
    V = as_rows(v, f.dim)
    if not row_norms(V).all():
        raise ValueError("direction must be nonzero")
    along = [(s @ V[:, :, None])[:, :, 0] for s in _summand_generators(f, x, active_tol)]
    lo, hi = _total([a.min(axis=1) for a in along]), _total([a.max(axis=1) for a in along])
    return (lo, hi) if np.ndim(v) == 2 else (float(lo[0]), float(hi[0]))
