"""Unit and property tests for the dense linear algebra core."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from convexkit.errors import DimensionMismatch, InfeasibleFiber
from convexkit.linalg import (
    Subspace,
    anchor_map,
    as_matrix,
    as_vector,
    kernel,
    orthonormalize,
    project,
    row_space,
    solve_anchor,
)
from convexkit.restriction import make_fiber


def test_orthonormalize_two_dependent_vectors():
    W = orthonormalize([(1.0, 1.0), (2.0, 2.0)])
    assert W.dim == 1
    assert_allclose(np.abs(W.basis[0]), np.array([1.0, 1.0]) / np.sqrt(2), atol=1e-12)


def test_orthonormalize_drops_near_dependent_vector():
    # residual of the second vector is (0, 1e-13), below tol 1e-10
    W = orthonormalize([(1.0, 0.0), (1.0, 1e-13)], tol=1e-10)
    assert W.dim == 1


def test_orthonormalize_keeps_independent_vectors():
    W = orthonormalize([(1.0, 0.0, 0.0), (1.0, 1.0, 0.0), (0.0, 0.0, 2.0)])
    assert W.dim == 3
    assert_allclose(W.basis @ W.basis.T, np.eye(3), atol=1e-12)


def test_orthonormalize_empty_input_needs_ambient_dim():
    W = orthonormalize([], ambient_dim=4)
    assert W.dim == 0 and W.ambient_dim == 4
    with pytest.raises(ValueError):
        orthonormalize([])


def test_orthonormalize_rejects_bad_tol_and_mixed_dims():
    with pytest.raises(ValueError):
        orthonormalize([(1.0, 0.0)], tol=0.0)
    with pytest.raises(DimensionMismatch):
        orthonormalize([(1.0, 0.0), (1.0, 0.0, 0.0)])


def test_kernel_of_row_of_ones():
    K = kernel(np.array([[1.0, 1.0]]))
    assert K.dim == 1
    b = K.basis[0]
    # span check: the only unit kernel vectors are +-(1,-1)/sqrt(2)
    assert_allclose(np.abs(b), np.array([1.0, 1.0]) / np.sqrt(2), atol=1e-12)


def test_row_space_of_dependent_rows():
    R = row_space(np.array([[1.0, 0.0], [2.0, 0.0]]))
    assert R.dim == 1
    assert_allclose(np.abs(R.basis[0]), np.array([1.0, 0.0]), atol=1e-12)


def test_zero_map_kernel_is_everything():
    S = np.zeros((2, 3))
    assert kernel(S).dim == 3
    assert row_space(S).dim == 0


def test_project_onto_diagonal_line():
    W = Subspace(2, np.array([[1.0, -1.0]]) / np.sqrt(2))
    assert_allclose(project((1.0, 0.0), W), [0.5, -0.5], atol=1e-12)


def test_project_onto_zero_subspace():
    W = orthonormalize([], ambient_dim=3)
    assert_allclose(project((1.0, 2.0, 3.0), W), np.zeros(3))


def test_solve_anchor_minimum_norm():
    y = solve_anchor(np.array([[1.0, 1.0]]), np.array([2.0]))
    assert_allclose(y, [1.0, 1.0], atol=1e-10)


def test_solve_anchor_infeasible():
    S = np.array([[1.0, 0.0], [1.0, 0.0]])
    with pytest.raises(InfeasibleFiber):
        solve_anchor(S, np.array([0.0, 1.0]))


def test_solve_anchor_zero_map():
    S = np.zeros((2, 3))
    assert_allclose(solve_anchor(S, np.zeros(2)), np.zeros(3))
    with pytest.raises(InfeasibleFiber):
        solve_anchor(S, np.array([0.0, 1.0]))


def test_subspace_validates_orthonormality():
    with pytest.raises(ValueError):
        Subspace(2, np.array([[1.0, 1.0]]))  # not unit length


def test_as_vector_and_as_matrix_validation():
    with pytest.raises(DimensionMismatch):
        as_vector([[1.0]])
    with pytest.raises(DimensionMismatch):
        as_vector([1.0, 2.0], dim=3)
    with pytest.raises(ValueError):
        as_vector([np.nan, 0.0])
    with pytest.raises(ValueError):
        as_matrix([[np.inf, 0.0]])
    with pytest.raises(DimensionMismatch):
        as_matrix([1.0, 2.0])


def _random_operator(rng, d, n, rank):
    F = rng.uniform(-1.0, 1.0, size=(d, rank))
    G = rng.uniform(-1.0, 1.0, size=(rank, n))
    return F @ G


def test_kernel_and_row_space_properties_random():
    rng = np.random.default_rng(1234)
    for trial in range(200):
        n = int(rng.integers(1, 9))
        d = int(rng.integers(1, 9))
        rank = int(rng.integers(0, min(n, d) + 1))
        S = _random_operator(rng, d, n, rank)
        K = kernel(S)
        R = row_space(S)
        # dimensions add up
        assert K.dim + R.dim == n
        # kernel vectors are annihilated
        if K.dim:
            assert float(np.max(np.abs(S @ K.basis.T))) <= 1e-9
        # mutual orthogonality of the two bases
        if K.dim and R.dim:
            assert float(np.max(np.abs(R.basis @ K.basis.T))) <= 1e-9


def test_projection_properties_random():
    rng = np.random.default_rng(99)
    for trial in range(200):
        n = int(rng.integers(1, 10))
        k = int(rng.integers(0, n + 1))
        W = orthonormalize(rng.normal(size=(k, n)), ambient_dim=n)
        x = rng.uniform(-5.0, 5.0, size=n)
        p = project(x, W)
        # idempotence
        assert float(np.linalg.norm(project(p, W) - p)) <= 1e-10
        # Pythagoras, relative 1e-8
        lhs = np.linalg.norm(x) ** 2
        rhs = np.linalg.norm(p) ** 2 + np.linalg.norm(x - p) ** 2
        assert abs(lhs - rhs) <= 1e-8 * (1.0 + lhs)


def test_anchor_has_no_kernel_component_random():
    rng = np.random.default_rng(7)
    for trial in range(200):
        n = int(rng.integers(1, 9))
        d = int(rng.integers(1, 9))
        rank = int(rng.integers(1, min(n, d) + 1))
        S = _random_operator(rng, d, n, rank)
        zeta = S @ rng.uniform(-2.0, 2.0, size=n)
        y = solve_anchor(S, zeta)
        assert float(np.linalg.norm(S @ y - zeta)) <= 1e-8
        K = kernel(S)
        assert float(np.linalg.norm(project(y, K))) <= 1e-8


def _fresh_anchor(S, zeta):
    """Minimum-norm solution with the row space factored afresh for this call."""
    rows = row_space(S)
    if rows.dim == 0:
        return np.zeros(S.shape[1])
    M = S @ rows.basis.T
    return rows.basis.T @ np.linalg.solve(M.T @ M, M.T @ zeta)


def test_anchor_map_reuse_is_bitwise_random():
    """One factored map answers every right-hand side exactly as a fresh solve does.

    The fiber built from one map also carries exactly the per-call anchor and
    kernel, so factoring once changes no bit of any report.
    """
    rng = np.random.default_rng(31)
    for trial in range(100):
        n = int(rng.integers(1, 9))
        d = int(rng.integers(1, 9))
        rank = int(rng.integers(0, min(n, d) + 1))
        S = _random_operator(rng, d, n, rank)
        amap = anchor_map(S)
        K = kernel(S)
        previous = None
        for _ in range(20):
            zeta = S @ rng.uniform(-2.0, 2.0, size=n)
            y = amap.solve(zeta)
            assert np.array_equal(y, _fresh_anchor(S, zeta))
            assert np.array_equal(y, solve_anchor(S, zeta))
            # every answer is a fresh array, shared with neither the map nor the last answer
            assert not np.shares_memory(y, amap.rows.basis)
            if previous is not None:
                assert not np.shares_memory(y, previous)
            previous = y
            fiber = make_fiber(S, zeta)
            assert np.array_equal(fiber.anchor, y)
            assert np.array_equal(fiber.kernel_basis.basis, K.basis)
        if rank < d:
            bump = rng.normal(size=d)
            bump -= project(bump, row_space(S.T))  # outside the range of S
            with pytest.raises(InfeasibleFiber):
                amap.solve(S @ np.ones(n) + bump)
