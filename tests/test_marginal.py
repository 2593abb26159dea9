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

from convexkit import functions, harness, linalg, marginal
from convexkit.errors import (
    ConvexKitError,
    DimensionMismatch,
    DomainViolation,
    SingularKKT,
    UnboundedBelow,
    UnsupportedObjective,
)
from convexkit.functions import SumFunction, evaluate, max_affine, quadratic
from convexkit.linalg import anchor_map
from convexkit.marginal import (
    is_strictly_convex,
    lemma2_check,
    marginalize,
    marginal_value,
    marginal_values,
)

ONE_NORM = max_affine(
    [((1.0, 1.0), 0.0), ((1.0, -1.0), 0.0), ((-1.0, 1.0), 0.0), ((-1.0, -1.0), 0.0)]
)
SQUARED_NORM = quadratic(np.eye(2))
# operator R^1 -> R^2 whose transpose sums the coordinates: fiber r1 + r2 = x
SUM_FIBER = np.array([[1.0], [1.0]])


def midpoint_convexity_gap(h, x, y):
    """(h(x) + h(y)) / 2 - h((x + y) / 2); nonnegative when h is convex."""
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    return 0.5 * (marginal_value(h, x).value + marginal_value(h, y).value) - marginal_value(h, 0.5 * (x + y)).value


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


def test_fiber_outside_the_solver_box_is_unbounded_below():
    """A fiber that misses the LP's safety box raises UnboundedBelow, not LPInfeasible."""
    h = marginalize(max_affine([((1.0,), 0.0), ((-1.0,), 0.0)]), [[1.0]])
    with pytest.raises(UnboundedBelow, match="fiber does not meet the solver box"):
        marginal_value(h, [5000.0])


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
    # the domain x2 = 0 is checked first, on every query
    h = marginalize(f, [[1.0, 0.0], [1.0, 0.0]])
    for _ in range(2):
        with pytest.raises(DomainViolation):
            marginal_value(h, [0.0, 1.0])
        with pytest.raises(UnsupportedObjective):
            marginal_value(h, [1.0, 0.0])


def test_refused_marginal_raises_the_same_error_on_every_query():
    """A refused set-up caches nothing: two queries in a row and a stack raise the same type and message."""
    singular = (quadratic(np.diag([1.0, 0.0])), [[1.0], [0.0]], [1.0], SingularKKT, "objective is not positive definite along the fiber (floor ")
    mixed = (SumFunction(2, (ONE_NORM, SQUARED_NORM)), SUM_FIBER, [1.0], UnsupportedObjective, marginal.MIXED_OBJECTIVE)
    for f, S, x, error, message in (singular, mixed):
        h = marginalize(f, S)
        raised = []
        for query in (lambda: marginal_value(h, x), lambda: marginal_value(h, x), lambda: marginal_values(h, [x, x, x])):
            with pytest.raises(error) as info:
                query()
            raised.append(str(info.value))
        assert raised[0].startswith(message) and raised == [raised[0]] * 3
        assert "_inner" not in vars(h)


def _kkt_reference(f, S, x):
    """Inner minimizer from a KKT system built and solved afresh for this query."""
    d, n = S.shape
    system = np.vstack([np.hstack([2.0 * f.Q, S]), np.hstack([S.T, np.zeros((n, n))])])
    rhs = np.concatenate([-f.c, x])
    r = anchor_map(system).solve(rhs)[:d]
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


def _one_point_kkt(f, S, x):
    """The KKT witness of x by one-point arithmetic: the factored system solved for one vector."""
    d, n = S.shape
    amap = anchor_map(np.block([[2.0 * f.Q, S], [S.T, np.zeros((n, n))]]))
    rhs = np.concatenate([-f.c, x])
    r = (amap.rows.basis.T @ np.linalg.solve(amap.normal, amap.M.T @ rhs))[:d]
    return r, float(evaluate(f, r))


def test_marginal_values_match_one_by_one():
    """Row i of a stack's values and argmins is marginal_value's witness bit for bit, on LP and KKT marginals."""
    statuses = set()
    for seed in range(60):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(2, 7))
        n = int(rng.integers(1, d + 1))
        S = harness.gen_operator(d, n, int(rng.integers(1, min(d, n) + 1)), rng)
        f = harness.gen_pd_quadratic(d, rng) if seed % 2 else harness.gen_coercive_max_affine(d, 4, rng)
        h = marginalize(f, S)
        X = np.array([S.T @ rng.uniform(-2.0, 2.0, d) for _ in range(int(rng.integers(1, 40)))])
        values, argmins, status = marginal_values(h, X)
        assert values.shape == (len(X),) and argmins.shape == (len(X), d)
        for x, value, argmin in zip(X, values, argmins):
            one = marginal_value(marginalize(f, S), x)
            assert (status, repr(float(value)), argmin.tobytes()) == (one.status, repr(one.value), one.argmin.tobytes())
            if status == "exact-KKT":
                r, kkt_value = _one_point_kkt(f, S, x)
                assert (repr(float(value)), argmin.tobytes()) == (repr(kkt_value), r.tobytes())
        statuses.add(status)
    assert statuses == {"exact-LP", "exact-KKT"}


def _first_error(h, X):
    """The error marginal_value raises first on the rows one by one."""
    for x in X:
        try:
            marginal_value(h, x)
        except ConvexKitError as exc:
            return exc
    raise AssertionError("no row raises")


def test_marginal_values_raise_the_first_error_in_row_order():
    """A stack raises what marginal_value on its rows one by one would raise first, after a clean row."""
    # ONE_NORM on the fibers r1 + r2 = x1, domain x2 = 0; x1 = 5000 misses the box |r| <= 1000
    lp = marginalize(ONE_NORM, [[1.0, 0.0], [1.0, 0.0]])
    clean, off, far = [1.0, 0.0], [0.0, 1.0], [5000.0, 0.0]
    # a positive definite quadratic on a 1e-4-scaled operator: its KKT normal equations
    # miss the residual bound, except at x = 0 when there is no linear term
    rng = np.random.default_rng(1)
    d = int(rng.integers(2, 7))
    n = int(rng.integers(1, d + 1))
    S = 1e-4 * harness.gen_operator(d, n, int(rng.integers(1, min(d, n) + 1)), rng)
    small = marginalize(quadratic(harness.gen_pd_quadratic(d, rng).Q), S)
    inconsistent = S.T @ rng.uniform(-2.0, 2.0, d)
    mixed = marginalize(SumFunction(2, (ONE_NORM, SQUARED_NORM)), [[1.0, 0.0], [1.0, 0.0]])
    cases = [
        (lp, [clean, off, far], DomainViolation),
        (lp, [clean, far, off], UnboundedBelow),
        (small, [np.zeros(S.shape[1]), inconsistent, 2.0 * inconsistent], SingularKKT),
        (mixed, [off, clean], DomainViolation),
        (mixed, [clean, off], UnsupportedObjective),
    ]
    for h, X, error in cases:
        X = np.array(X, dtype=float)
        first = _first_error(h, X)
        assert type(first) is error
        with pytest.raises(error) as raised:
            marginal_values(h, X)
        assert str(raised.value) == str(first)
    values, argmins, status = marginal_values(small, np.zeros((1, S.shape[1])))
    assert (values.tolist(), argmins.shape, status) == ([0.0], (1, d), "exact-KKT")
    values, argmins, status = marginal_values(lp, np.zeros((0, 2)))
    assert (values.shape, argmins.shape, status) == ((0,), (0, 2), None)


def _count_calls(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_kkt_is_factored_once_per_marginal(monkeypatch):
    """Each marginal sets up its inner solver once: the KKT factorization or the epigraph LP."""
    factorizations = _count_calls(monkeypatch, linalg, "row_space")
    epigraphs = _count_calls(monkeypatch, functions, "epigraph")
    rng = np.random.default_rng(43)
    f = quadratic(np.diag([2.0, 1.0, 3.0]), c=(0.5, -1.0, 0.0))
    S = rng.uniform(-1.0, 1.0, (3, 2))
    h = marginalize(f, S)
    marginal_value(h, S.T @ rng.uniform(-1.0, 1.0, 3))
    first = len(factorizations)
    assert first > 0
    for _ in range(59):
        marginal_value(h, S.T @ rng.uniform(-1.0, 1.0, 3))
    assert len(factorizations) == first
    assert epigraphs == []
    # a max-affine marginal builds its epigraph LP once; LP and mixed objectives factor nothing
    factorizations.clear()
    h = marginalize(ONE_NORM, SUM_FIBER)
    for _ in range(60):
        assert marginal_value(h, [rng.uniform(-1.0, 1.0)]).status == "exact-LP"
    assert len(epigraphs) == 1
    h = marginalize(SumFunction(2, (ONE_NORM, SQUARED_NORM)), SUM_FIBER)
    for _ in range(2):
        with pytest.raises(UnsupportedObjective):
            marginal_value(h, [1.0])
    assert len(epigraphs) == 1
    assert factorizations == []


def test_operator_shape_mismatch():
    with pytest.raises(DimensionMismatch):
        marginalize(SQUARED_NORM, np.ones((3, 2)))
    # a stack of 2-vectors asked of a marginal on R^1
    with pytest.raises(DimensionMismatch, match="expected dimension 1, got 2"):
        marginal_values(marginalize(SQUARED_NORM, SUM_FIBER), np.zeros((3, 2)))


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
    gaps = [midpoint_convexity_gap(h, x, y) for x, y in (([0.0], [2.0]), ([-2.0], [2.0]))]
    assert_allclose(gaps, (0.5, 2.0), atol=1e-9)
    assert_allclose(min(gaps), 0.5, atol=1e-9)


def test_strictness_needs_positive_definite():
    assert not is_strictly_convex(ONE_NORM)
    assert not is_strictly_convex(quadratic(np.diag([1.0, 0.0])))
    assert is_strictly_convex(SQUARED_NORM)


def test_failed_strictness_records_gap_and_worst_pair(monkeypatch):
    """A strictness failure carries the least gap and the pair that gave it."""
    monkeypatch.setattr(marginal, "STRICT_GAP", 1e6)
    result = lemma2_check(SQUARED_NORM, SUM_FIBER, seed=3)
    assert result.status == "fail"
    check = result.checks[-1]
    assert check.name == "strict_convexity" and not check.passed
    assert isinstance(check.gap, float) and 0.0 < check.gap <= 1e6
    assert set(check.witness) == {"x", "y"}
    h = marginalize(SQUARED_NORM, SUM_FIBER)
    assert_allclose(midpoint_convexity_gap(h, check.witness["x"], check.witness["y"]), check.gap, rtol=1e-12)
    assert all(c.passed for c in result.checks[:-1])


def test_strictness_is_vacuous_on_a_tiny_domain():
    """When no sampled pair is MIN_PAIR_SEPARATION apart, strictness passes with no gap."""
    f = quadratic(1e-5 * np.array([[2.0, 0.5], [0.5, 1.0]]))
    result = lemma2_check(f, 1e-5 * np.eye(2), seed=5)
    assert result.status == "pass"
    check = result.checks[-1]
    assert check.name == "strict_convexity" and check.passed
    assert check.gap is None
    assert "strictness is vacuous" in check.witness["note"]


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
    result = lemma2_check(SQUARED_NORM, SUM_FIBER, seed=3)
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
    result = lemma2_check(f, S, seed=9)
    assert result.status == "pass"
    assert [c.name for c in result.checks] == [
        "midpoint_convexity",
        "witness_feasibility",
        "witness_value",
    ]


def test_lemma2_check_is_deterministic():
    a = lemma2_check(SQUARED_NORM, SUM_FIBER, seed=21)
    b = lemma2_check(SQUARED_NORM, SUM_FIBER, seed=21)
    assert a.instance == b.instance
    assert [(c.name, c.gap) for c in a.checks] == [(c.name, c.gap) for c in b.checks]


def _reference_lemma2_checks(f, S, seed):
    """lemma2_check's checks computed one query at a time: marginal_value, np.linalg.norm and evaluate per point."""
    h = marginalize(f, S)
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(22,)))

    def sample_x():
        return S.T @ rng.uniform(-marginal.SAMPLE_SCALE, marginal.SAMPLE_SCALE, S.shape[0])

    def least_gap(pairs):
        least, pair, witnesses = np.inf, None, []
        for x, y in pairs:
            points = (x, y, 0.5 * (x + y))
            wx, wy, wm = (marginal_value(h, p) for p in points)
            witnesses += zip(points, (wx, wy, wm))
            gap = 0.5 * (wx.value + wy.value) - wm.value
            if gap < least:
                least, pair = gap, {"x": x.tolist(), "y": y.tolist()}
        return float(least), pair, witnesses

    gap, pair, witnesses = least_gap([(sample_x(), sample_x()) for _ in range(marginal.MIDPOINT_PAIRS)])
    residual = max(float(np.linalg.norm(S.T @ w.argmin - p)) for p, w in witnesses)
    value_err = max(abs(evaluate(f, w.argmin) - w.value) / (1.0 + abs(w.value)) for _, w in witnesses)
    checks = [("midpoint_convexity", gap, pair), ("witness_feasibility", residual, None), ("witness_value", value_err, None)]
    if is_strictly_convex(f):
        probes = [sample_x() for _ in range(8)]
        spread = max(float(np.linalg.norm(p - q)) for i, p in enumerate(probes) for q in probes[i + 1 :])
        separation = max(marginal.MIN_PAIR_SEPARATION, min(0.1, 0.25 * spread))
        pairs = []
        while len(pairs) < marginal.MIDPOINT_PAIRS:  # every instance here has a wide domain
            x, y = sample_x(), sample_x()
            if float(np.linalg.norm(x - y)) >= separation:
                pairs.append((x, y))
        gap, pair, _ = least_gap(pairs)
        checks.append(("strict_convexity", gap, None if gap > marginal.STRICT_GAP else pair))
    return checks


def test_lemma2_check_matches_one_query_at_a_time():
    """The stacked queries and checks report the one-query-at-a-time gaps and pairs, bit for bit."""
    for seed in range(40):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(2, 7))
        n = int(rng.integers(1, d + 1))
        S = harness.gen_operator(d, n, int(rng.integers(1, min(d, n) + 1)), rng)
        f = harness.gen_pd_quadratic(d, rng) if seed % 2 else harness.gen_coercive_max_affine(d, 4, rng)
        got = [(c.name, repr(c.gap), c.witness) for c in lemma2_check(f, S, seed=seed).checks]
        assert got == [(name, repr(gap), witness) for name, gap, witness in _reference_lemma2_checks(f, S, seed)]
