"""Unit and property tests for the dense linear algebra core."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from convexkit.errors import DimensionMismatch, InfeasibleFiber
from convexkit.linalg import (
    RANK_TOL,
    Subspace,
    anchor_map,
    as_matrix,
    as_vector,
    complement,
    kernel,
    project,
    row_dots,
    row_norms,
    row_space,
    rows_dot,
    solve_anchor,
)
from convexkit.restriction import make_fiber


def test_orthonormalize_two_dependent_vectors():
    # row_space orthonormalizes the rows in order
    W = row_space(np.array([[1.0, 1.0], [2.0, 2.0]]))
    assert W.dim == 1
    assert_allclose(np.abs(W.basis[0]), np.array([1.0, 1.0]) / np.sqrt(2), atol=1e-12)


def test_orthonormalize_empty_input_needs_ambient_dim():
    # a (0, n) matrix carries its ambient dimension; a bare empty list does not
    W = row_space(np.zeros((0, 4)))
    assert W.dim == 0 and W.ambient_dim == 4
    assert_allclose(kernel(np.zeros((0, 4))).basis, np.eye(4), rtol=0, atol=0)
    with pytest.raises(DimensionMismatch):
        row_space([])


def test_row_space_drops_near_dependent_row():
    # residual of the second row is (0, 1e-13), below RANK_TOL = 1e-10
    W = row_space(np.array([[1.0, 0.0], [1.0, 1e-13]]))
    assert W.dim == 1


def test_row_space_keeps_independent_rows():
    W = row_space(np.array([[1.0, 0.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 2.0]]))
    assert W.dim == 3
    assert_allclose(W.basis @ W.basis.T, np.eye(3), atol=1e-12)


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
    W = Subspace(np.array([[1.0, -1.0]]) / np.sqrt(2))
    assert_allclose(project((1.0, 0.0), W), [0.5, -0.5], atol=1e-12)


def test_project_onto_zero_subspace():
    W = row_space(np.zeros((0, 3)))
    assert_allclose(project((1.0, 2.0, 3.0), W), np.zeros(3))


def test_project_stack_matches_one_row_calls():
    """Each row of a projected stack is its own projection bit for bit, at heights 0, 1 and 5."""
    rng = np.random.default_rng(23)
    for _ in range(60):
        n = int(rng.integers(1, 9))
        W = row_space(rng.normal(size=(int(rng.integers(0, n + 1)), n)))
        for height in (0, 1, 5):
            X = rng.uniform(-5.0, 5.0, (height, n))
            got = project(X, W)
            assert got.shape == (height, n)
            assert got.tobytes() == np.array([project(x, W) for x in X]).reshape(height, n).tobytes()
            assert got.tobytes() == project(np.asfortranarray(X), W).tobytes()  # strided rows too
    with pytest.raises(DimensionMismatch):
        project(np.zeros((2, 3)), Subspace(np.eye(2)))


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
    """Orthonormality is checked entrywise to 1e-10, with no relative slack."""
    with pytest.raises(ValueError):
        Subspace(np.array([[1.0, 1.0]]))  # not unit length
    with pytest.raises(ValueError):
        Subspace(np.array([[1.0 + 1e-7, 0.0]]))
    assert Subspace(np.array([[1.0, 0.0], [0.0, 1.0 + 1e-11]])).dim == 2


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
    with pytest.raises(DimensionMismatch):
        as_vector(1.0)  # C order leaves a scalar a scalar
    strided = np.asfortranarray(np.ones((3, 4)))[0]
    assert not strided.flags.c_contiguous and as_vector(strided).flags.c_contiguous


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
        W = row_space(rng.normal(size=(k, n)))
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
            y = amap.solve(zeta[None])[0]
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
                amap.solve((S @ np.ones(n) + bump)[None])


def test_row_products_match_one_row_products():
    """rows_dot and row_dots equal their one-row products byte for byte: A @ X[i], X[i] @ a and X[i] @ Y[i].

    A is C-ordered or the F-ordered view S.T, at heights 1, 26 and 200.  The
    row comes first against a vector: under OpenBLAS's Prescott kernel
    a @ X[i] rounds differently from X[i] @ a, and a row copied to fresh
    memory can round differently from the row in place.
    """
    rng = np.random.default_rng(29)
    for _ in range(40):
        n, m = (int(v) for v in rng.integers(1, 13, 2))
        S = rng.standard_normal((n, m)) * 10.0 ** rng.uniform(-3, 3, (n, 1))
        a = rng.standard_normal(n) * 10.0 ** rng.uniform(-3, 3)
        for k in (1, 26, 200):
            X, Y = (rng.standard_normal((k, n)) * 10.0 ** rng.uniform(-3, 3, (k, 1)) for _ in range(2))
            for A in (np.ascontiguousarray(S.T), S.T):
                assert rows_dot(X, A).tobytes() == np.array([A @ x for x in X]).tobytes()
            assert rows_dot(X, a).tobytes() == np.array([x @ a for x in X]).tobytes()
            assert row_dots(X, Y).tobytes() == np.array([x @ y for x, y in zip(X, Y)]).tobytes()


def test_row_norms_match_norm_of_each_row():
    """row_norms is np.linalg.norm of each row bit for bit; a reduction over the rows differs in about 1 of 6."""
    rng = np.random.default_rng(17)
    for width in range(0, 41):
        V = rng.standard_normal((50, width)) * 10.0 ** rng.uniform(-8, 8, (50, 1))
        assert np.array_equal(row_norms(V), [np.linalg.norm(v) for v in V])


# --- the one Gram-Schmidt loop against the two it replaced -------------------------


def _reference_strip(u, rows):
    for _ in range(2):
        if rows.shape[0]:
            u = u - rows.T @ (rows @ u)
    return u


def _reference_row_space(S):
    """The separate row-space loop the shared orthonormalization replaced, kept as the bit-exact reference."""
    S = np.asarray(S, dtype=float)
    threshold = RANK_TOL * max((float(np.linalg.norm(v)) for v in S), default=0.0)
    rows = np.zeros((0, S.shape[1]))
    for v in S:
        u = _reference_strip(v.copy(), rows)
        norm = float(np.linalg.norm(u))
        if norm > threshold:
            rows = np.vstack([rows, u / norm])
    return rows


def _reference_complement(pre):
    """The separate complement loop the shared orthonormalization replaced, kept as the bit-exact reference."""
    n = pre.shape[1]
    rows = np.zeros((0, n))
    for i in range(n):
        u = np.zeros(n)
        u[i] = 1.0
        u = _reference_strip(_reference_strip(u, pre), rows)
        u = _reference_strip(_reference_strip(u, pre), rows)
        norm = float(np.linalg.norm(u))
        if norm > RANK_TOL:
            rows = np.vstack([rows, u / norm])
    return rows


def test_orthonormal_bases_match_reference_loops_random():
    """row_space, complement and kernel give the reference loops' bases byte for byte.

    Full-rank, rank-deficient and empty operators, and the F-ordered
    transpose S.T, whose bases must equal those of its C-ordered copy.
    Operators with more rows than columns and full column rank fill R^n, so
    row_space stops before their last rows, and the complement of that
    whole-space basis is (0, n) with no identity vector stripped.
    """
    rng = np.random.default_rng(41)
    for trial in range(300):
        n = int(rng.integers(1, 9))
        d = int(rng.integers(0, 9))
        rank = min(n, d) if trial % 3 == 0 else int(rng.integers(0, min(n, d) + 1))
        S = _random_operator(rng, d, n, rank) * 10.0 ** rng.uniform(-6, 6)
        for M in (S, S.T):
            want = _reference_row_space(np.ascontiguousarray(M))
            R = row_space(M)
            assert R.basis.shape == want.shape and R.basis.tobytes() == want.tobytes()
            assert row_space(np.ascontiguousarray(M)).basis.tobytes() == R.basis.tobytes()
            K = _reference_complement(want)
            assert complement(R).basis.shape == K.shape and complement(R).basis.tobytes() == K.tobytes()
            assert kernel(M).basis.tobytes() == K.tobytes()

    tall = np.random.default_rng(43)
    for _ in range(300):
        n = int(tall.integers(1, 9))
        T = _random_operator(tall, n + int(tall.integers(1, 5)), n, n) * 10.0 ** tall.uniform(-6, 6)
        want = _reference_row_space(T)
        R = row_space(T)
        assert want.shape == (n, n) and R.basis.shape == want.shape and R.basis.tobytes() == want.tobytes()
        K = _reference_complement(want)
        assert K.shape == complement(R).basis.shape == (0, n) and complement(R).basis.tobytes() == K.tobytes()
        assert kernel(T).basis.shape == (0, n)


def test_anchor_map_of_f_ordered_operator_matches_c_ordered_copy():
    """An anchor map of S.T, as the grid oracle builds one, solves as that of its C-ordered copy bit for bit.

    Before as_matrix forced C order, 139 of these 2,000 solves differed in
    the last bits, through the products with the strided operator.
    """
    rng = np.random.default_rng(0)
    for _ in range(2000):
        n, d = int(rng.integers(1, 9)), int(rng.integers(1, 9))
        S = _random_operator(rng, d, n, int(rng.integers(1, min(n, d) + 1)))
        zeta = S.T @ rng.uniform(-2.0, 2.0, d)
        assert anchor_map(S.T).solve(zeta[None]).tobytes() == anchor_map(np.ascontiguousarray(S.T)).solve(zeta[None]).tobytes()
