"""Dense real linear algebra: orthonormal bases, kernels, projections, anchors, row products.

Everything here is deterministic and allocation-light.  The coercers
``as_vector``, ``as_matrix`` and ``as_rows`` return finite C-ordered float
arrays.

Every product taken row by row over a stack goes through ``rows_dot`` (row i
against every row of a matrix, or against one vector) or ``row_dots`` (row i
against row i), so the package's "row i equals its one-row call bit for bit"
promises rest on these two bodies alone.  Each is one stacked matmul over
C-ordered rows, which makes the same per-row BLAS call (gemv or dot) as the
one-row product; a matrix-matrix product over all rows, or a reduction such
as ``norm(V, axis=1)``, rounds differently, and a strided row takes another
BLAS path, hence the coercers.  The row comes first: against a vector a,
``rows_dot`` computes ``X[i] @ a``, never ``a @ X[i]``, which rounds
differently under OpenBLAS's Prescott kernel.  That kernel also rounds a
row by its 16-byte alignment, so there a row copied to fresh memory can
differ from the row in place.  Products stay outside the two routines where
nothing is stacked: one-row products (``_orthonormalize``'s per-row strip,
``np.linalg.norm``, ``functions.subdifferential`` and ``_gradient``), which
would pay the stacking overhead on lemma1's hot path; whole-matrix products
(``anchor_map``'s ``M`` and ``normal``, ``restricted_subdifferential``'s
projection, the KKT system, the epigraph QP's shift by ``lower``); the
simplex's tableau arithmetic, its QP's included, and ``A @ lower``, which
rounds by its operand's memory order; and the instance draws.

Every orthonormal basis comes from one loop: modified Gram-Schmidt over a
sequence of vectors, each stripped of an optional fixed basis and of the rows
already accepted, with the whole strip repeated ("twice is enough": Giraud,
Langou & Rozložník, Comput. Math. Appl. 50, 2005).  ``row_space`` runs it over
the rows of a matrix with one round and the rank threshold RANK_TOL relative
to the largest row norm, so it is scale invariant; ``complement`` runs it over
the identity vectors against a basis with two rounds and the threshold
RANK_TOL; ``kernel`` is the complement of the row space.  The first strip
of the fixed basis needs no accepted row, so it runs on the whole sequence as
one stack; accepted rows fill a preallocated basis, and the loop stops once
its dimension and the fixed basis's add up to the ambient one, which changes
no result (``_orthonormalize`` says why).

Solving ``S y = zeta`` for many right-hand sides goes through one reusable
AnchorMap: ``anchor_map(S)`` factors S once (its row-space basis, ``M`` and
``M^T M``), and each ``AnchorMap.solve`` is one stacked solve of a (k, m)
stack of right-hand sides, a lone one being the stack of one, that returns a
freshly allocated array whose rows equal their one-row solves bit for bit.
Its one residual rule, ANCHOR_RESIDUAL_TOL * (1 + |zeta|), serves every
caller: fibers, the KKT systems of marginals and ``solve_anchor``.  A map is
never mutated after it is built.  Every other function is pure and returns
freshly allocated arrays.  A rank-zero subspace or map needs no branch of its
own: numpy's empty products give the zero vector.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, InfeasibleFiber

RANK_TOL = 1e-10
ANCHOR_RESIDUAL_TOL = 1e-8


def as_vector(x, dim: int | None = None) -> np.ndarray:
    """Coerce to a finite C-ordered 1-d float array (a strided row rounds as its copy), optionally checking its length."""
    v = np.asarray(x, dtype=float, order="C")
    if v.ndim != 1:
        raise DimensionMismatch(f"expected a vector, got shape {v.shape}")
    if dim is not None and v.shape[0] != dim:
        raise DimensionMismatch(f"expected dimension {dim}, got {v.shape[0]}")
    if not np.isfinite(v).all():
        raise ValueError("vector entries must be finite")
    return v


def as_matrix(a, shape: tuple[int, int] | None = None) -> np.ndarray:
    """Coerce to a finite C-ordered 2-d float array (an F-ordered one rounds as its copy), optionally checking its shape."""
    m = np.asarray(a, dtype=float, order="C")
    if m.ndim != 2:
        raise DimensionMismatch(f"expected a matrix, got shape {m.shape}")
    if shape is not None and m.shape != shape:
        raise DimensionMismatch(f"expected shape {shape}, got {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError("matrix entries must be finite")
    return m


def as_rows(x, dim: int) -> np.ndarray:
    """A vector of length ``dim`` as a one-row stack, or a (k, dim) stack, finite and C-ordered."""
    a = np.asarray(x, dtype=float)
    return as_matrix(a, (len(a), dim)) if a.ndim == 2 else as_vector(a, dim)[None]


@dataclass(frozen=True)
class Subspace:
    """A linear subspace given by an orthonormal row basis.

    ``basis`` has shape (dim, ambient_dim); an empty basis (0 rows) is the
    zero subspace.  Orthonormality is validated on construction: every entry
    of B B^T - I must be within 1e-10 of zero.
    """

    basis: np.ndarray

    def __post_init__(self):
        b = as_matrix(self.basis)
        if not (np.abs(b @ b.T - np.eye(b.shape[0])) <= 1e-10).all():
            raise ValueError("basis rows are not orthonormal within 1e-10")
        object.__setattr__(self, "basis", b)

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    @property
    def ambient_dim(self) -> int:
        return self.basis.shape[1]


def _orthonormalize(V: np.ndarray, fixed: np.ndarray, threshold: float, rounds: int) -> Subspace:
    """Gram-Schmidt over the rows of V in order, each stripped of ``fixed`` and of the rows kept so far.

    Each strip removes a basis's projection twice in a row, as one pass of
    modified Gram-Schmidt leaks for near-dependent input, and the strip of
    both bases is repeated ``rounds`` times.  A row whose residual norm is
    at most ``threshold`` is dropped, any other is normalized and kept.

    The first two strips of ``fixed`` need no kept row, so they run on all
    of V as one stack.  Kept rows fill a preallocated
    (n - len(fixed), n) basis, and the loop stops once it is full.  That
    stop changes no result: with no ``fixed`` rows a further kept row would
    be an (n + 1)-th orthonormal row in R^n, which Subspace refuses, and
    once the kept rows and ``fixed`` fill R^n each further row strips to
    rounding noise far below RANK_TOL.
    """
    n = V.shape[1]
    basis = np.empty((n - len(fixed), n))
    if len(fixed) and len(basis):
        for _ in range(2):
            V = V - rows_dot(rows_dot(V, fixed), fixed.T)
    k = 0
    for u in V:
        if k == len(basis):
            break
        rows = basis[:k]
        for B in (rows, rows) + (fixed, fixed, rows, rows) * (rounds - 1):
            if len(B):
                u = u - B.T @ (B @ u)
        norm = float(np.linalg.norm(u))
        if norm > threshold:
            basis[k] = u / norm
            k += 1
    return Subspace(basis[:k])


def row_space(S) -> Subspace:
    """Orthonormal basis of the span of the rows of ``S``.

    Modified Gram-Schmidt with re-orthogonalization over the rows in order.
    A row is dropped when its residual after projection removal is at most
    RANK_TOL times the largest row norm.  A matrix with no rows spans the
    zero subspace.
    """
    S = as_matrix(S)
    return _orthonormalize(S, S[:0], RANK_TOL * float(row_norms(S).max(initial=0.0)), 1)


def complement(W: Subspace) -> Subspace:
    """Orthonormal basis of the orthogonal complement of ``W``.

    The identity vectors, in order, go through the Gram-Schmidt loop against
    ``W`` with two rounds of stripping, which keeps the complement orthogonal
    to both ``W`` and itself; survivors (residual norm above RANK_TOL) are
    kept.  Dimensions add up with ``W`` by construction.
    """
    return _orthonormalize(np.eye(W.ambient_dim), W.basis, RANK_TOL, 2)


def kernel(S) -> Subspace:
    """Orthonormal basis of the null space of ``S``: the complement of its row space."""
    return complement(row_space(S))


def rows_dot(X: np.ndarray, A: np.ndarray) -> np.ndarray:
    """Row i of X against every row of a matrix A, ``A @ X[i]`` as row i; against a vector, ``X[i] @ A`` as entry i."""
    return (X[:, None, :] @ A[:, None])[:, 0, 0] if A.ndim == 1 else (A @ X[:, :, None])[:, :, 0]


def row_dots(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Row i of X against row i of Y, ``X[i] @ Y[i]`` as entry i."""
    return (X[:, None, :] @ Y[:, :, None])[:, 0, 0]


def row_norms(V: np.ndarray) -> np.ndarray:
    """The Euclidean norm of each row of V, equal to ``np.linalg.norm`` of that row bit for bit."""
    return np.sqrt(row_dots(V, V))


def project(x, W: Subspace) -> np.ndarray:
    """Orthogonal projection of ``x`` onto the subspace ``W``, or of each row of a (k, n) stack, each its own projection bit for bit."""
    P = rows_dot(rows_dot(as_rows(x, W.ambient_dim), W.basis), W.basis.T)
    return P if np.ndim(x) == 2 else P[0]


@dataclass(frozen=True)
class AnchorMap:
    """Minimum-norm solver for ``S y = zeta``, factored once for every ``zeta``.

    Solutions are sought in the row space of ``S`` via normal equations on
    row-space coordinates, which keeps them orthogonal to the kernel:
    ``M = S @ rows.basis.T`` and ``normal = M.T @ M`` are fixed by ``S``.
    """

    S: np.ndarray
    rows: Subspace
    M: np.ndarray
    normal: np.ndarray

    def solve(self, Z: np.ndarray) -> np.ndarray:
        """Minimum-norm solution of each row; InfeasibleFiber when a residual exceeds ANCHOR_RESIDUAL_TOL * (1 + |zeta|).

        ``Z`` is a (k, S.shape[0]) float stack of right-hand sides zeta,
        checked by the caller; a lone zeta is the stack ``zeta[None]``.  Row i
        of the (k, S.shape[1]) answer equals row i's own solve bit for bit:
        ``np.linalg.solve`` makes one gesv call per row.  The error gives the
        residual of the first row that misses the bound.
        """
        Z = np.ascontiguousarray(Z)
        Y = rows_dot(np.linalg.solve(self.normal, rows_dot(Z, self.M.T)[:, :, None])[:, :, 0], self.rows.basis.T)
        residual = row_norms(rows_dot(Y, self.S) - Z)
        tol = ANCHOR_RESIDUAL_TOL * (1.0 + row_norms(Z))
        bad = np.flatnonzero(residual > tol)
        if bad.size:
            i = bad[0]
            raise InfeasibleFiber(
                f"no solution within tolerance: residual {residual[i]:.3e} > {tol[i]:.3e}"
            )
        return Y


def anchor_map(S) -> AnchorMap:
    """Factor ``S`` for repeated minimum-norm solves of ``S y = zeta``."""
    S = as_matrix(S)
    rows = row_space(S)
    M = S @ rows.basis.T
    return AnchorMap(S, rows, M, M.T @ M)


def solve_anchor(S, zeta) -> np.ndarray:
    """Minimum-norm solution of ``S y = zeta``; see AnchorMap.solve for its residual bound."""
    amap = anchor_map(S)
    return amap.solve(as_vector(zeta, amap.S.shape[0])[None])[0]
