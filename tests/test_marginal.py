"""Tests for exact partial minimization and marginal convexity checks.

Frozen values below were worked out by hand.  With f(r) = r1^2 + r2^2 and the
fiber r1 + r2 = x the minimizer splits evenly, so h(x) = x^2 / 2 and every
midpoint gap equals (x - y)^2 / 8.  With f the one-norm on the same fiber the
cheapest representative puts all mass on one coordinate, so h(x) = |x|.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from convexkit import linalg
from convexkit.errors import (
    DimensionMismatch,
    DomainViolation,
    NotStrictlyConvex,
    SingularKKT,
    UnboundedBelow,
    UnsupportedObjective,
)
from convexkit.functions import SumFunction, evaluate, max_affine, quadratic
from convexkit.linalg import solve_anchor
from convexkit.marginal import (
    is_strictly_convex,
    lemma2_check,
    marginalize,
    marginal_value,
    midpoint_convexity_gap,
    strict_convexity_certificate,
)

ONE_NORM = max_affine(
    [((1.0, 1.0), 0.0), ((1.0, -1.0), 0.0), ((-1.0, 1.0), 0.0), ((-1.0, -1.0), 0.0)]
)
SQUARED_NORM = quadratic(np.eye(2))
# operator R^1 -> R^2 whose transpose sums the coordinates: fiber r1 + r2 = x
SUM_FIBER = np.array([[1.0], [1.0]])


def coercive_max_affine(rng, dim, pieces):
    """Random max-affine plus the bounding pieces 2|r_j| - 2.

    The bounds dominate far from the origin, so minima over any fiber are
    attained well inside the solver box.
    """
    rows = [(rng.uniform(-2.0, 2.0, dim), float(rng.uniform(-2.0, 2.0))) for _ in range(pieces)]
    for j in range(dim):
        e = np.zeros(dim)
        e[j] = 2.0
        rows.append((e.copy(), -2.0))
        rows.append((-e, -2.0))
    return max_affine(rows)


def test_quadratic_marginal_frozen():
    h = marginalize(SQUARED_NORM, SUM_FIBER)
    w = marginal_value(h, [2.0])
    assert w.status == "exact-KKT"
    assert_allclose(w.value, 2.0, atol=1e-10)
    assert_allclose(w.argmin, [1.0, 1.0], atol=1e-9)


def test_quadratic_marginal_matches_closed_form():
    h = marginalize(SQUARED_NORM, SUM_FIBER)
    for x in (-3.0, -1.0, 0.0, 0.5, 4.0):
        assert_allclose(marginal_value(h, [x]).value, x * x / 2.0, atol=1e-9)


def test_midpoint_gap_frozen():
    h = marginalize(SQUARED_NORM, SUM_FIBER)
    assert_allclose(midpoint_convexity_gap(h, [0.0], [2.0]), 0.5, atol=1e-9)


def test_one_norm_marginal_frozen():
    h = marginalize(ONE_NORM, SUM_FIBER)
    w = marginal_value(h, [3.0])
    assert w.status == "exact-LP"
    assert_allclose(w.value, 3.0, atol=1e-9)
    assert_allclose(w.argmin[0] + w.argmin[1], 3.0, atol=1e-9)
    assert_allclose(evaluate(ONE_NORM, w.argmin), 3.0, atol=1e-9)


def test_one_norm_marginal_is_abs():
    h = marginalize(ONE_NORM, SUM_FIBER)
    for x in (-2.0, -0.5, 0.0, 1.5):
        assert_allclose(marginal_value(h, [x]).value, abs(x), atol=1e-9)
    assert_allclose(midpoint_convexity_gap(h, [-1.0], [1.0]), 1.0, atol=1e-9)


def test_sum_with_constant_part_uses_lp():
    shifted = SumFunction(2, (ONE_NORM, quadratic(np.zeros((2, 2)), r0=5.0)))
    h = marginalize(shifted, SUM_FIBER)
    w = marginal_value(h, [3.0])
    assert w.status == "exact-LP"
    assert_allclose(w.value, 8.0, atol=1e-9)


def test_domain_violation():
    f = quadratic(np.eye(1))
    h = marginalize(f, np.array([[1.0, 1.0]]))  # domain is the diagonal of R^2
    assert_allclose(marginal_value(h, [1.0, 1.0]).value, 1.0, atol=1e-10)
    with pytest.raises(DomainViolation):
        marginal_value(h, [1.0, 0.0])


def test_unbounded_direction_raises():
    # f = r1 - r2 falls without bound along the fiber r1 + r2 = 0
    f = max_affine([((1.0, -1.0), 0.0)])
    h = marginalize(f, SUM_FIBER)
    with pytest.raises(UnboundedBelow):
        marginal_value(h, [0.0])


def test_singular_quadratic_raises():
    f = quadratic(np.diag([1.0, 0.0]))
    h = marginalize(f, np.array([[1.0], [0.0]]))  # fiber direction e2 is flat
    for _ in range(2):  # the factored system is cached, the refusal is not
        with pytest.raises(SingularKKT):
            marginal_value(h, [1.0])
    # fibers r1 + r3 = x1 on the domain x2 = 0; e2 lies in every fiber and is flat
    h = marginalize(quadratic(np.diag([1.0, 0.0, 1.0])), [[1.0, 0.0], [0.0, 0.0], [1.0, 0.0]])
    with pytest.raises(DomainViolation):
        marginal_value(h, [0.0, 1.0])
    with pytest.raises(SingularKKT):
        marginal_value(h, [1.0, 0.0])
    with pytest.raises(DomainViolation):
        marginal_value(h, [0.0, 1.0])


def test_mixed_sum_is_unsupported():
    f = SumFunction(2, (ONE_NORM, SQUARED_NORM))
    h = marginalize(f, SUM_FIBER)
    for _ in range(2):
        with pytest.raises(UnsupportedObjective):
            marginal_value(h, [1.0])


def _kkt_reference(f, S, x):
    """Inner minimizer from a KKT system built and solved afresh for this query."""
    d, n = S.shape
    system = np.vstack([np.hstack([2.0 * f.Q, S]), np.hstack([S.T, np.zeros((n, n))])])
    rhs = np.concatenate([-f.c, x])
    r = solve_anchor(system, rhs, 1e-8 * (1.0 + float(np.linalg.norm(rhs))))[:d]
    return r, float(evaluate(f, r))


def test_factored_kkt_matches_per_query_solve():
    """Queries on one marginal reuse its factored KKT system without changing a bit."""
    rng = np.random.default_rng(41)
    for _ in range(50):
        d = int(rng.integers(2, 7))
        n = int(rng.integers(1, d + 1))
        rank = int(rng.integers(1, n + 1))
        A = rng.uniform(-1.0, 1.0, (d, d))
        f = quadratic(A.T @ A + 0.1 * np.eye(d), c=rng.uniform(-1.0, 1.0, d))
        S = rng.uniform(-1.0, 1.0, (d, rank)) @ rng.uniform(-1.0, 1.0, (rank, n))
        h = marginalize(f, S)
        for _ in range(20):
            x = S.T @ rng.uniform(-2.0, 2.0, d)
            w = marginal_value(h, x)
            r, value = _kkt_reference(f, S, x)
            assert w.status == "exact-KKT"
            assert np.array_equal(w.argmin, r)
            assert w.value == value


def test_kkt_is_factored_once_per_marginal(monkeypatch):
    """Row-space factorizations do not grow with the number of queries."""
    calls = []
    original = linalg.row_space

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(linalg, "row_space", counted)
    rng = np.random.default_rng(43)
    f = quadratic(np.diag([2.0, 1.0, 3.0]), c=(0.5, -1.0, 0.0))
    S = rng.uniform(-1.0, 1.0, (3, 2))
    h = marginalize(f, S)
    marginal_value(h, S.T @ rng.uniform(-1.0, 1.0, 3))
    first = len(calls)
    assert first > 0
    for _ in range(59):
        marginal_value(h, S.T @ rng.uniform(-1.0, 1.0, 3))
    assert len(calls) == first
    # LP and mixed objectives factor nothing at all
    calls.clear()
    marginal_value(marginalize(ONE_NORM, SUM_FIBER), [1.0])
    with pytest.raises(UnsupportedObjective):
        marginal_value(marginalize(SumFunction(2, (ONE_NORM, SQUARED_NORM)), SUM_FIBER), [1.0])
    assert calls == []


def test_operator_shape_mismatch():
    with pytest.raises(DimensionMismatch):
        marginalize(SQUARED_NORM, np.ones((3, 2)))


def test_zero_outer_dimension_gives_global_min():
    """An operator with no columns makes the constraint vacuous."""
    f = quadratic(np.eye(2), c=(-2.0, 0.0))
    h = marginalize(f, np.zeros((2, 0)))
    w = marginal_value(h, [])
    assert_allclose(w.value, -1.0, atol=1e-10)
    assert_allclose(w.argmin, [1.0, 0.0], atol=1e-9)

    inf_norm = max_affine(
        [((1.0, 0.0), 0.0), ((-1.0, 0.0), 0.0), ((0.0, 1.0), 0.0), ((0.0, -1.0), 0.0)]
    )
    assert_allclose(
        marginal_value(marginalize(inf_norm, np.zeros((2, 0))), []).value, 0.0, atol=1e-9
    )


def test_strictness_frozen_gaps():
    h = marginalize(SQUARED_NORM, SUM_FIBER)
    rep = strict_convexity_certificate(h, [([0.0], [2.0]), ([-2.0], [2.0])])
    assert_allclose(rep.gaps, (0.5, 2.0), atol=1e-9)
    assert_allclose(rep.min_gap, 0.5, atol=1e-9)


def test_strictness_rejects_close_pairs():
    h = marginalize(SQUARED_NORM, SUM_FIBER)
    with pytest.raises(ValueError):
        strict_convexity_certificate(h, [([0.0], [1e-4])])


def test_strictness_needs_positive_definite():
    assert not is_strictly_convex(ONE_NORM)
    assert not is_strictly_convex(quadratic(np.diag([1.0, 0.0])))
    assert is_strictly_convex(SQUARED_NORM)
    h = marginalize(ONE_NORM, SUM_FIBER)
    with pytest.raises(NotStrictlyConvex):
        strict_convexity_certificate(h, [([0.0], [2.0])])


def test_random_quadratic_marginals_are_convex():
    """Midpoint gaps of KKT marginals stay nonnegative across random cases."""
    rng = np.random.default_rng(7)
    for _ in range(25):
        d = int(rng.integers(2, 5))
        n = int(rng.integers(1, d + 1))
        A = rng.uniform(-1.0, 1.0, (d, d))
        f = quadratic(A.T @ A + 0.1 * np.eye(d), c=rng.uniform(-1.0, 1.0, d))
        S = rng.uniform(-1.0, 1.0, (d, n))
        h = marginalize(f, S)
        x = S.T @ rng.uniform(-2.0, 2.0, d)
        y = S.T @ rng.uniform(-2.0, 2.0, d)
        assert midpoint_convexity_gap(h, x, y) >= -1e-8


def test_random_piecewise_linear_marginals_are_convex():
    rng = np.random.default_rng(11)
    for _ in range(15):
        d = int(rng.integers(2, 4))
        n = int(rng.integers(1, d + 1))
        f = coercive_max_affine(rng, d, int(rng.integers(2, 6)))
        S = rng.uniform(-1.0, 1.0, (d, n))
        h = marginalize(f, S)
        x = S.T @ rng.uniform(-2.0, 2.0, d)
        y = S.T @ rng.uniform(-2.0, 2.0, d)
        assert midpoint_convexity_gap(h, x, y) >= -1e-8


def test_second_differences_stay_nonnegative():
    """h(x - u) + h(x + u) - 2 h(x) >= 0 along random lines in the domain."""
    rng = np.random.default_rng(19)
    for _ in range(20):
        d = int(rng.integers(2, 5))
        n = int(rng.integers(1, d + 1))
        A = rng.uniform(-1.0, 1.0, (d, d))
        f = quadratic(A.T @ A + 0.1 * np.eye(d))
        S = rng.uniform(-1.0, 1.0, (d, n))
        h = marginalize(f, S)
        x = S.T @ rng.uniform(-1.0, 1.0, d)
        u = S.T @ rng.uniform(-1.0, 1.0, d)
        second = (
            marginal_value(h, x - u).value
            + marginal_value(h, x + u).value
            - 2.0 * marginal_value(h, x).value
        )
        assert second >= -1e-8


@settings(max_examples=60, deadline=None)
@given(
    st.floats(min_value=-5.0, max_value=5.0),
    st.floats(min_value=-5.0, max_value=5.0),
)
def test_abs_marginal_midpoint_gap_nonnegative(x, y):
    h = marginalize(ONE_NORM, SUM_FIBER)
    assert midpoint_convexity_gap(h, [x], [y]) >= -1e-9


def test_lemma2_check_quadratic_instance():
    result = lemma2_check(SQUARED_NORM, SUM_FIBER, pairs=10, seed=3)
    assert result.status == "pass"
    names = [c.name for c in result.checks]
    assert names == [
        "midpoint_convexity",
        "witness_feasibility",
        "witness_value",
        "strict_convexity",
    ]
    assert result.instance["suite"] == "lemma2"


def test_lemma2_check_piecewise_instance():
    rng = np.random.default_rng(5)
    f = coercive_max_affine(rng, 3, 4)
    S = rng.uniform(-1.0, 1.0, (3, 2))
    result = lemma2_check(f, S, pairs=8, seed=9)
    assert result.status == "pass"
    assert [c.name for c in result.checks] == [
        "midpoint_convexity",
        "witness_feasibility",
        "witness_value",
    ]


def test_lemma2_check_is_deterministic():
    a = lemma2_check(SQUARED_NORM, SUM_FIBER, pairs=6, seed=21)
    b = lemma2_check(SQUARED_NORM, SUM_FIBER, pairs=6, seed=21)
    assert a.instance == b.instance
    assert [(c.name, c.gap) for c in a.checks] == [(c.name, c.gap) for c in b.checks]
