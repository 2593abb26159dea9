"""Dense real linear algebra: orthonormal bases, kernels, projections, anchors.

Everything here is deterministic and allocation-light.  Rank decisions use
modified Gram-Schmidt with one re-orthogonalization pass; thresholds are
relative to the largest input norm so the routines are scale invariant.

Solving ``S y = zeta`` for many right-hand sides goes through one reusable
AnchorMap: ``anchor_map(S)`` factors S once (its row-space basis, ``M`` and
``M^T M``), and each ``AnchorMap.solve`` is one small linear solve that
returns a freshly allocated array.  A map is never mutated after it is built.
Every other function is pure and returns freshly allocated arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, InfeasibleFiber

RANK_TOL = 1e-10
ANCHOR_RESIDUAL_TOL = 1e-8


def as_vector(x, dim: int | None = None) -> np.ndarray:
    """Coerce to a finite 1-d float array, optionally checking its length."""
    v = np.asarray(x, dtype=float)
    if v.ndim != 1:
        raise DimensionMismatch(f"expected a vector, got shape {v.shape}")
    if dim is not None and v.shape[0] != dim:
        raise DimensionMismatch(f"expected dimension {dim}, got {v.shape[0]}")
    if not np.all(np.isfinite(v)):
        raise ValueError("vector entries must be finite")
    return v


def as_matrix(a, shape: tuple[int, int] | None = None) -> np.ndarray:
    """Coerce to a finite 2-d float array, optionally checking its shape."""
    m = np.asarray(a, dtype=float)
    if m.ndim != 2:
        raise DimensionMismatch(f"expected a matrix, got shape {m.shape}")
    if shape is not None and m.shape != shape:
        raise DimensionMismatch(f"expected shape {shape}, got {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix entries must be finite")
    return m


@dataclass(frozen=True)
class Subspace:
    """A linear subspace given by an orthonormal row basis.

    ``basis`` has shape (dim, ambient_dim); an empty basis (0 rows) is the
    zero subspace.  Orthonormality is validated on construction.
    """

    ambient_dim: int
    basis: np.ndarray

    def __post_init__(self):
        b = as_matrix(self.basis)
        if b.shape[1] != self.ambient_dim:
            raise DimensionMismatch(
                f"basis rows live in R^{b.shape[1]}, ambient is R^{self.ambient_dim}"
            )
        if b.shape[0] > 0:
            gram = b @ b.T
            if not np.allclose(gram, np.eye(b.shape[0]), atol=1e-10):
                raise ValueError("basis rows are not orthonormal within 1e-10")
        object.__setattr__(self, "basis", b)

    @property
    def dim(self) -> int:
        return self.basis.shape[0]


def _strip(u: np.ndarray, rows: np.ndarray) -> np.ndarray:
    # two projection-removal passes: plain MGS leaks for near-dependent input
    for _ in range(2):
        if rows.shape[0]:
            u = u - rows.T @ (rows @ u)
    return u


def orthonormalize(vectors, tol: float = RANK_TOL, *, ambient_dim: int | None = None) -> Subspace:
    """Orthonormal basis for the span of ``vectors``.

    Modified Gram-Schmidt with re-orthogonalization.  A vector is dropped when
    its residual after projection removal is at most ``tol`` times the largest
    input norm.  ``ambient_dim`` is only needed when ``vectors`` is empty.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    vs = [as_vector(v) for v in vectors]
    dims = {v.shape[0] for v in vs}
    if len(dims) > 1:
        raise DimensionMismatch(f"mixed vector dimensions: {sorted(dims)}")
    if not vs:
        if ambient_dim is None:
            raise ValueError("ambient_dim is required for an empty vector list")
        return Subspace(ambient_dim, np.zeros((0, ambient_dim)))
    n = dims.pop()
    scale = max(float(np.linalg.norm(v)) for v in vs)
    threshold = tol * scale
    rows = np.zeros((0, n))
    for v in vs:
        u = _strip(v.copy(), rows)
        norm = float(np.linalg.norm(u))
        if norm > threshold:
            rows = np.vstack([rows, u / norm])
    return Subspace(n, rows)


def row_space(S, tol: float = RANK_TOL) -> Subspace:
    """Orthonormal basis of the span of the rows of ``S``."""
    S = as_matrix(S)
    return orthonormalize(list(S), tol, ambient_dim=S.shape[1])


def complement(W: Subspace, tol: float = RANK_TOL) -> Subspace:
    """Orthonormal basis of the orthogonal complement of ``W``.

    Each identity vector is stripped of its ``W`` and already-accepted
    components; survivors (residual norm above ``tol``) are normalized and
    kept.  Dimensions add up with ``W`` by construction.
    """
    n = W.ambient_dim
    pre = W.basis
    rows = np.zeros((0, n))
    for i in range(n):
        u = np.zeros(n)
        u[i] = 1.0
        u = _strip(_strip(u, pre), rows)
        # one more combined pass keeps the complement orthogonal to both
        u = _strip(_strip(u, pre), rows)
        norm = float(np.linalg.norm(u))
        if norm > tol:
            rows = np.vstack([rows, u / norm])
    return Subspace(n, rows)


def kernel(S, tol: float = RANK_TOL) -> Subspace:
    """Orthonormal basis of the null space of ``S``: the complement of its row space."""
    return complement(row_space(S, tol), tol)


def project(x, W: Subspace) -> np.ndarray:
    """Orthogonal projection of ``x`` onto the subspace ``W``."""
    x = as_vector(x, W.ambient_dim)
    if W.dim == 0:
        return np.zeros(W.ambient_dim)
    return W.basis.T @ (W.basis @ x)


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

    def solve(self, zeta, tol: float = ANCHOR_RESIDUAL_TOL) -> np.ndarray:
        """Minimum-norm solution; raises InfeasibleFiber when the residual exceeds ``tol``."""
        zeta = as_vector(zeta, self.S.shape[0])
        if tol <= 0:
            raise ValueError("tol must be positive")
        if self.rows.dim == 0:
            y = np.zeros(self.S.shape[1])
        else:
            w = np.linalg.solve(self.normal, self.M.T @ zeta)
            y = self.rows.basis.T @ w
        residual = float(np.linalg.norm(self.S @ y - zeta))
        if residual > tol:
            raise InfeasibleFiber(
                f"no solution within tolerance: residual {residual:.3e} > {tol:.3e}"
            )
        return y


def anchor_map(S) -> AnchorMap:
    """Factor ``S`` for repeated minimum-norm solves of ``S y = zeta``."""
    S = as_matrix(S)
    rows = row_space(S)
    M = S @ rows.basis.T
    return AnchorMap(S, rows, M, M.T @ M)


def solve_anchor(S, zeta, tol: float = ANCHOR_RESIDUAL_TOL) -> np.ndarray:
    """Minimum-norm solution of ``S y = zeta``; see AnchorMap.solve."""
    return anchor_map(S).solve(zeta, tol)
