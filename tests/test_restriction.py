"""Tests for fibers, restricted subdifferentials, and the slice-interval checks."""

import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from convexkit import functions, harness, linalg, restriction
from convexkit.errors import DimensionMismatch, DomainViolation, InfeasibleFiber, SubdifferentialTooLarge
from convexkit.functions import Polytope, SumFunction, max_affine, quadratic
from convexkit.linalg import kernel, project, row_space, solve_anchor
from convexkit.report import CheckResult, SuiteReport, TrialResult, report_to_json
from convexkit.restriction import (
    embed,
    lemma1_check,
    make_fiber,
    restrict,
    restrict_evaluate,
    restricted_subdifferential,
    support_function,
)

ONE_NORM = max_affine(
    [((1.0, 1.0), 0.0), ((1.0, -1.0), 0.0), ((-1.0, 1.0), 0.0), ((-1.0, -1.0), 0.0)]
)
S_SUM = np.array([[1.0, 1.0]])


def test_make_fiber_basics():
    fiber = make_fiber(S_SUM, np.array([0.0]))
    assert fiber.fiber_dim == 1
    assert_allclose(fiber.anchor, [0.0, 0.0], atol=1e-12)
    assert_allclose(np.abs(fiber.kernel_basis.basis[0]), np.array([1.0, 1.0]) / np.sqrt(2))


def test_make_fiber_infeasible():
    S = np.array([[1.0, 0.0], [1.0, 0.0]])
    with pytest.raises(InfeasibleFiber):
        make_fiber(S, np.array([0.0, 1.0]))
    # a fiber in R^3 under a function on R^2
    with pytest.raises(DimensionMismatch, match="function lives on R\\^2, fiber on R\\^3"):
        restrict(ONE_NORM, np.ones((1, 3)), np.array([0.0]))


def test_fiber_invariants_random():
    rng = np.random.default_rng(31)
    for _ in range(100):
        n = int(rng.integers(1, 8))
        d = int(rng.integers(1, 8))
        rank = int(rng.integers(0, min(n, d) + 1))
        S = rng.uniform(-1, 1, (d, rank)) @ rng.uniform(-1, 1, (rank, n))
        zeta = S @ rng.uniform(-2, 2, n)
        fiber = make_fiber(S, zeta)
        assert np.linalg.norm(S @ fiber.anchor - zeta) <= 1e-8
        if fiber.fiber_dim:
            assert np.max(np.abs(fiber.kernel_basis.basis @ fiber.anchor)) <= 1e-8
        # embedded points stay on the fiber
        w = rng.uniform(-3, 3, fiber.fiber_dim)
        assert np.linalg.norm(S @ embed(fiber, w) - zeta) <= 1e-7


def test_far_fibers_build_or_raise_infeasible_fiber():
    """A large consistent zeta builds its fiber within a residual relative to |zeta|; one pushed off the range is refused.

    ``solve_anchor`` follows the same rule on the same inputs.
    """
    for seed in range(200):
        rng = np.random.default_rng(seed)
        dim = rng.integers(3, 7)
        rows = rng.integers(1, dim)
        S = harness.gen_operator(rows, dim, rows, rng)
        u = rng.uniform(-1, 1, dim)
        zeta = S @ (1e8 * u)
        scale = 1.0 + np.linalg.norm(zeta)
        fiber = make_fiber(S, zeta)
        assert np.linalg.norm(S @ fiber.anchor - zeta) <= linalg.ANCHOR_RESIDUAL_TOL * scale
        assert fiber.fiber_dim == dim - rows
        y = solve_anchor(S, zeta)
        assert np.linalg.norm(S @ y - zeta) <= linalg.ANCHOR_RESIDUAL_TOL * scale
        # a repeated row whose target differs by 1e-6 relative leaves no fiber
        off_S, off_zeta = np.vstack([S, S[:1]]), np.append(zeta, zeta[0] + 1e-6 * scale)
        with pytest.raises(InfeasibleFiber):
            make_fiber(off_S, off_zeta)
        with pytest.raises(InfeasibleFiber):
            solve_anchor(off_S, off_zeta)


def test_restrict_evaluate_diagonal_slice():
    g = restrict(ONE_NORM, S_SUM, np.array([0.0]))
    # the slice is sqrt(2) |t|
    assert restrict_evaluate(g, (1.0,)) == pytest.approx(np.sqrt(2.0), abs=1e-12)
    assert restrict_evaluate(g, (-2.0,)) == pytest.approx(2.0 * np.sqrt(2.0), abs=1e-12)
    assert restrict_evaluate(g, (0.0,)) == 0.0


def test_restricted_subdifferential_is_projected_square():
    g = restrict(ONE_NORM, S_SUM, np.array([0.0]))
    P = restricted_subdifferential(g, (0.0,))
    # the four square vertices project onto the segment conv{(1,-1), (-1,1)}
    got = {tuple(np.round(v, 12)) for v in P.generators}
    assert got == {(0.0, 0.0), (1.0, -1.0), (-1.0, 1.0)}
    # supports along the kernel line: the slice subdifferential is [-sqrt(2), sqrt(2)]
    u = np.array([1.0, -1.0]) / np.sqrt(2.0)
    assert support_function(P, u) == pytest.approx(np.sqrt(2.0), abs=1e-12)
    assert -support_function(P, -u) == pytest.approx(-np.sqrt(2.0), abs=1e-12)


def test_zero_dimensional_fiber():
    """A one-point fiber gives {0}, even where the ambient subdifferential is over budget."""
    S = np.eye(2)
    # at the shared kink the sum's ambient subdifferential has 4^12 = 16,777,216 generators
    for f, zeta, value in [(ONE_NORM, [1.0, 2.0], 3.0), (SumFunction(2, (ONE_NORM,) * 12), [0.0, 0.0], 0.0)]:
        g = restrict(f, S, np.array(zeta))
        assert g.fiber.fiber_dim == 0
        P = restricted_subdifferential(g, np.zeros(0))
        assert_allclose(P.generators, [[0.0, 0.0]])
        assert restrict_evaluate(g, np.zeros(0)) == value


def test_projection_containment_random():
    # projected generators lie inside ker(S)
    rng = np.random.default_rng(17)
    for _ in range(50):
        n = int(rng.integers(2, 6))
        d = int(rng.integers(1, n))
        rank = int(rng.integers(1, d + 1))
        S = rng.uniform(-1, 1, (d, rank)) @ rng.uniform(-1, 1, (rank, n))
        if row_space(S).dim >= n:
            continue
        f = max_affine([(rng.uniform(-2, 2, n), rng.uniform(-2, 2)) for _ in range(8)])
        zeta = S @ rng.uniform(-1, 1, n)
        g = restrict(f, S, zeta)
        w = rng.uniform(-1, 1, g.fiber.fiber_dim)
        P = restricted_subdifferential(g, w)
        K = kernel(S)
        for gen in P.generators:
            assert np.linalg.norm(gen - project(gen, K)) <= 1e-9


def test_support_function_examples():
    square = Polytope((np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]]),))
    assert support_function(square, (1.0, 0.0)) == 1.0
    assert support_function(square, (1.0, 1.0)) == 2.0
    # the same square as the Minkowski sum of two segments
    segments = Polytope((np.array([[1.0, 0.0], [-1.0, 0.0]]), np.array([[0.0, 1.0], [0.0, -1.0]])))
    assert support_function(segments, (1.0, 0.0)) == 1.0
    assert support_function(segments, (1.0, 1.0)) == 2.0
    assert {tuple(g) for g in segments.generators} == {tuple(g) for g in square.generators}


def test_factored_supports_match_the_product_random():
    """On sums of 1-4 blocks, with or without a quadratic, the summed supports of the subdifferential and its projection match the product's.

    Within 1e-12 relative to the value (with a floor of 1), and bit for bit
    on one summand, where the product is the summand and the projection is
    the one product it always was.
    """
    rng = np.random.default_rng(47)
    sums = 0
    for _ in range(200):
        n = int(rng.integers(2, 6))
        S = rng.uniform(-1.0, 1.0, (int(rng.integers(1, n + 1)), n))
        fiber = make_fiber(S, S @ rng.uniform(-1.0, 1.0, n))
        w = rng.uniform(-1.0, 1.0, fiber.fiber_dim)
        x = embed(fiber, w)
        parts = []
        for _ in range(int(rng.integers(1, 5))):
            A = rng.uniform(-2.0, 2.0, (5, n))
            b = rng.uniform(-0.5, 0.5, 5)
            shared = int(rng.integers(1, 5))
            b[:shared] = 1.0 - A[:shared] @ x  # several pieces active at x
            parts.append(max_affine(list(zip(A, b))))
        if rng.integers(0, 2):
            Q = rng.uniform(-1.0, 1.0, (n, n))
            parts.append(quadratic(Q.T @ Q, c=rng.uniform(-1.0, 1.0, n)))
        f = parts[0] if len(parts) == 1 else SumFunction(n, tuple(parts))
        sums += len(parts) > 1
        B = fiber.kernel_basis.basis
        P = functions.subdifferential(f, x)
        R = restricted_subdifferential(restriction.RestrictedFunction(f, fiber), w)
        assert len(R.summands) == (len(parts) if len(B) else 1)
        V = rng.uniform(-3.0, 3.0, (5, n))
        for factored, product in ((P, P.generators), (R, (P.generators @ B.T) @ B)):
            got = support_function(factored, V)
            want = (product @ V[:, :, None])[:, :, 0].max(axis=1)
            if len(parts) == 1:
                assert got.tobytes() == want.tobytes()
            else:
                assert np.all(np.abs(got - want) <= 1e-12 * (1.0 + np.abs(want)))
    assert sums > 100


def test_lemma1_check_on_many_shared_kinks():
    """k copies of |x1| + |x2| on the line {x1 = 0} give the interval [-k, k], and no Minkowski product is formed.

    The product has 4^k generators: at 25 and 40 blocks only ``generators``
    itself refuses it, and the check stays under 1 MB.
    """
    for k in (25, 40):
        g = restrict(SumFunction(2, (ONE_NORM,) * k), np.array([[1.0, 0.0]]), np.array([0.0]))
        tracemalloc.start()
        try:
            result = lemma1_check(g, (0.0,), [np.array([0.0, 1.0]), np.array([0.0, -2.0])], seed=k)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert result.status == "pass" and peak < 1_000_000
        assert result.checks[0].witness["interval"] == result.checks[0].witness["projected"] == [-k, k]
        assert result.checks[1].witness["interval"] == [-2 * k, 2 * k]
        with pytest.raises(SubdifferentialTooLarge):
            restricted_subdifferential(g, (0.0,)).generators


def test_lemma1_check_passes_on_known_instance():
    u = np.array([1.0, -1.0]) / np.sqrt(2.0)
    result = lemma1_check(restrict(ONE_NORM, S_SUM, np.array([0.0])), (0.0,), [u, -u], seed=3)
    assert result.status == "pass"
    names = [c.name for c in result.checks]
    assert "restricted_midpoint_convexity" in names
    assert all(c.passed for c in result.checks)


def test_lemma1_check_rejects_non_kernel_direction():
    with pytest.raises(DomainViolation):
        lemma1_check(restrict(ONE_NORM, S_SUM, np.array([0.0])), (0.0,), [np.array([1.0, 0.0])])


def test_lemma1_check_quadratic_instance():
    f = quadratic(np.array([[2.0, 0.0], [0.0, 1.0]]), c=(1.0, -1.0))
    u = np.array([1.0, -1.0]) / np.sqrt(2.0)
    result = lemma1_check(restrict(f, S_SUM, np.array([1.0])), (0.5,), [u, -u], seed=5)
    assert result.status == "pass"


def test_lemma1_check_detects_wrong_projection(monkeypatch, rowspace_version):
    """Projecting onto the row space instead of the kernel must fail the check."""
    monkeypatch.setattr(restriction, "restricted_subdifferential", rowspace_version)
    u = np.array([1.0, -1.0]) / np.sqrt(2.0)
    result = lemma1_check(restrict(ONE_NORM, S_SUM, np.array([0.0])), (0.0,), [u], seed=3)
    assert result.status == "fail"
    bad = [c for c in result.checks if c.name.startswith("slice_interval")][0]
    assert not bad.passed
    # the mutated polytope is orthogonal to the kernel, so its interval is ~[0, 0]
    assert_allclose(bad.witness["projected"], [0.0, 0.0], atol=1e-12)


def test_restricted_convexity_random():
    rng = np.random.default_rng(23)
    for _ in range(50):
        n = int(rng.integers(2, 6))
        d = int(rng.integers(1, n))
        S = rng.uniform(-1, 1, (d, n))
        f = max_affine([(rng.uniform(-2, 2, n), rng.uniform(-2, 2)) for _ in range(6)])
        zeta = S @ rng.uniform(-1, 1, n)
        g = restrict(f, S, zeta)
        k = g.fiber.fiber_dim
        for _ in range(10):
            w1, w2 = rng.uniform(-2, 2, k), rng.uniform(-2, 2, k)
            lhs = 0.5 * (restrict_evaluate(g, w1) + restrict_evaluate(g, w2))
            assert lhs - restrict_evaluate(g, 0.5 * (w1 + w2)) >= -1e-9


def _reference_midpoint_sweep(g, seed):
    """One pair at a time: the least midpoint gap and its pair, first minimum kept."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(11,)))
    worst = None
    for _ in range(restriction.MIDPOINT_PAIRS):
        w1 = rng.uniform(-restriction.PAIR_SCALE, restriction.PAIR_SCALE, g.fiber.fiber_dim)
        w2 = rng.uniform(-restriction.PAIR_SCALE, restriction.PAIR_SCALE, g.fiber.fiber_dim)
        gap = 0.5 * (restrict_evaluate(g, w1) + restrict_evaluate(g, w2)) - restrict_evaluate(g, 0.5 * (w1 + w2))
        if worst is None or gap < worst:
            worst, pair = gap, (w1, w2)
    return worst, pair


def test_midpoint_sweep_matches_scalar_loop():
    """The batched sweep reports the scalar loop's gap and pair, bit for bit, on every fiber dimension."""
    rng = np.random.default_rng(29)
    cases = [(ONE_NORM, np.eye(2), np.array([1.0, 2.0]))]  # S invertible: a 0-dimensional fiber
    for _ in range(60):
        n = int(rng.integers(2, 6))
        S = rng.uniform(-1.0, 1.0, (int(rng.integers(1, n + 1)), n))
        Q = rng.uniform(-1.0, 1.0, (int(rng.integers(0, n + 1)), n))
        parts = [max_affine([(rng.uniform(-2, 2, n), rng.uniform(-2, 2)) for _ in range(6)]), quadratic(Q.T @ Q)]
        f = parts[int(rng.integers(0, 2))] if rng.integers(0, 3) else SumFunction(n, tuple(parts))
        cases.append((f, S, S @ rng.uniform(-1.0, 1.0, n)))
    for seed, (f, S, zeta) in enumerate(cases):
        g = restrict(f, S, zeta)
        directions = [] if g.fiber.fiber_dim == 0 else [g.fiber.kernel_basis.basis[0]]
        result = lemma1_check(g, np.zeros(g.fiber.fiber_dim), directions, seed=seed)
        check = result.checks[-1]
        assert check.name == "restricted_midpoint_convexity"
        worst, (w1, w2) = _reference_midpoint_sweep(g, seed)
        assert check.gap == worst
        assert np.array_equal(check.witness["w1"], w1) and np.array_equal(check.witness["w2"], w2)
        assert check.passed == (worst >= -restriction.CONVEXITY_SLACK)


def test_midpoint_sweep_is_one_batched_evaluation(monkeypatch):
    calls = []
    original = functions.evaluate_many

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(functions, "evaluate_many", counted)
    u = np.array([1.0, -1.0]) / np.sqrt(2.0)
    lemma1_check(restrict(ONE_NORM, S_SUM, np.array([0.0])), (0.0,), [u, -u], seed=3)
    assert len(calls) == 1


def _reference_lemma1_check(g, w, directions, seed):
    """lemma1_check one direction at a time, each product on its own vector as before stacks."""
    f, fiber = g.f, g.fiber
    K = fiber.kernel_basis.basis
    x = fiber.anchor + K.T @ w if fiber.fiber_dim else fiber.anchor.copy()
    P = restricted_subdifferential(g, w)
    checks = []
    for i, v in enumerate(directions):
        v = np.asarray(v, dtype=float)
        if float(np.linalg.norm(v - K.T @ (K @ v))) > 1e-9 * (1.0 + float(np.linalg.norm(v))):
            raise DomainViolation(f"direction {i} does not lie in the kernel of S")
        if float(np.linalg.norm(v)) == 0.0:
            raise DomainViolation(f"direction {i} is zero")
        along = [s @ v for s in functions.subdifferential(f, x).summands]
        lo, hi = functions._total([float(np.min(a)) for a in along]), functions._total([float(np.max(a)) for a in along])
        want_hi = functions._total([float(np.max(s @ v)) for s in P.summands])
        want_lo = -functions._total([float(np.max(s @ -v)) for s in P.summands])
        gap = max(abs(lo - want_lo), abs(hi - want_hi))
        checks.append(
            CheckResult(f"slice_interval_{i}", gap <= restriction.SUPPORT_TOL, gap,
                        {"direction": v.tolist(), "interval": [lo, hi], "projected": [want_lo, want_hi]})
        )
    worst, (w1, w2) = _reference_midpoint_sweep(g, seed)
    checks.append(
        CheckResult("restricted_midpoint_convexity", bool(worst >= -restriction.CONVEXITY_SLACK), float(worst),
                    {"w1": w1.tolist(), "w2": w2.tolist()})
    )
    return checks


def _random_lemma1_trial(rng, n):
    """A fiber, a point on it, five kernel directions and a function with kinks at that point.

    The function is a max-affine block, a quadratic, or a sum of both kinds;
    its blocks are shifted so that several pieces meet at the embedded point.
    """
    rows = n if rng.integers(0, 8) == 0 else int(rng.integers(1, n))  # n rows: a zero-dimensional fiber
    S = rng.uniform(-1.0, 1.0, (rows, n))
    fiber = make_fiber(S, S @ rng.uniform(-1.0, 1.0, n))
    k = fiber.fiber_dim
    w = rng.uniform(-1.0, 1.0, k)
    x = embed(fiber, w)

    def block(shared):
        A = rng.uniform(-2.0, 2.0, (6, n))
        b = rng.uniform(-0.5, 0.5, 6)
        b[:shared] = 1.0 - A[:shared] @ x  # the first pieces all take the value 1 at x
        return max_affine(list(zip(A, b)))

    Q = rng.uniform(-1.0, 1.0, (int(rng.integers(0, n + 1)), n))
    quad = quadratic(Q.T @ Q, c=rng.uniform(-1.0, 1.0, n))
    parts = [block(int(rng.integers(1, 5))) for _ in range(int(rng.integers(1, 4)))]
    f = [parts[0], quad, SumFunction(n, (*parts, quad)), SumFunction(n, tuple(parts))][int(rng.integers(0, 4))]
    directions = []
    for _ in range(0 if k == 0 else 5):
        v = fiber.kernel_basis.basis.T @ rng.uniform(-1.0, 1.0, k)
        directions.append(v / np.linalg.norm(v) if rng.integers(0, 2) else 3.0 * v)
    return restriction.RestrictedFunction(f, fiber), w, directions


def test_lemma1_check_matches_one_direction_at_a_time():
    """Stacked slice checks give the one-direction loop's gaps, intervals, projections and report bytes."""
    rng = np.random.default_rng(41)
    dims = 0
    for seed in range(80):
        g, w, directions = _random_lemma1_trial(rng, int(rng.integers(2, 7)))
        dims += g.fiber.fiber_dim == 0
        got = lemma1_check(g, w, directions, seed=seed)
        want = TrialResult(got.instance, _reference_lemma1_check(g, w, directions, seed))
        assert len(got.checks) == len(want.checks) == len(directions) + 1
        for a, b in zip(got.checks, want.checks):
            assert (a.name, a.passed, repr(a.gap)) == (b.name, b.passed, repr(b.gap))
            assert repr(a.witness) == repr(b.witness)
        tolerances = {"support": restriction.SUPPORT_TOL}
        assert report_to_json(SuiteReport("lemma1", seed, tolerances, [got])) == report_to_json(
            SuiteReport("lemma1", seed, tolerances, [want])
        )
    assert dims >= 5  # zero-dimensional fibers are among the trials


def test_lemma1_check_raises_in_direction_order():
    """Each direction's error comes before anything from the directions after it."""
    g = restrict(ONE_NORM, S_SUM, np.array([0.0]))
    u = np.array([1.0, -1.0]) / np.sqrt(2.0)
    with pytest.raises(DomainViolation, match="direction 0 is zero"):
        lemma1_check(g, (0.0,), [np.zeros(2)])
    with pytest.raises(DomainViolation, match="direction 1 is zero"):
        lemma1_check(g, (0.0,), [u, np.zeros(2), np.array([1.0, 0.0])])
    with pytest.raises(DomainViolation, match="direction 1 does not lie"):
        lemma1_check(g, (0.0,), [u, np.array([1.0, 0.0]), np.zeros(2)])
    with pytest.raises(DomainViolation, match="direction 0 does not lie"):
        lemma1_check(g, (0.0,), [np.array([1.0, 0.0]), np.zeros(3)])
    with pytest.raises(DimensionMismatch):
        lemma1_check(g, (0.0,), [u, np.zeros(3), np.array([1.0, 0.0])])


def test_support_function_stack_matches_one_row_calls():
    """support_function of a stack is its one-direction call on every row, bit for bit, at heights 0, 1 and 5, on 1-3 summands."""
    rng = np.random.default_rng(43)
    for _ in range(40):
        n = int(rng.integers(1, 7))
        blocks = []
        for _ in range(int(rng.integers(1, 4))):
            G = rng.uniform(-2.0, 2.0, (int(rng.integers(1, 9)), n))
            G[rng.uniform(size=G.shape) < 0.2] = 0.0
            blocks.append(np.vstack([G, -0.0 * G[:1]]))  # a generator of signed zeros
        P = Polytope(tuple(blocks))
        for height in (0, 1, 5):
            V = rng.uniform(-3.0, 3.0, (height, n))
            V[rng.uniform(size=V.shape) < 0.2] = 0.0
            got = support_function(P, V)
            assert got.shape == (height,)
            assert got.tobytes() == np.array([support_function(P, v) for v in V], dtype=float).tobytes()
            assert all(type(support_function(P, v)) is float for v in V)


def test_one_support_stack_gives_both_bounds():
    """lemma1's support bounds from one [-V; V] call equal the two calls -h(-V) and h(V) byte for byte, on random sums of blocks.

    The blocks hold signed-zero generators and the directions zero entries,
    so a bound of -0.0 or +0.0 would show a changed sign; lemma1_check's
    projected bounds are checked against the two calls as well.
    """
    rng = np.random.default_rng(53)
    for _ in range(60):
        n = int(rng.integers(1, 7))
        blocks = []
        for _ in range(int(rng.integers(1, 5))):
            G = rng.uniform(-2.0, 2.0, (int(rng.integers(1, 9)), n))
            G[rng.uniform(size=G.shape) < 0.2] = 0.0
            blocks.append(np.vstack([G, -0.0 * G[:1]]))
        P = Polytope(tuple(blocks))
        V = rng.uniform(-3.0, 3.0, (int(rng.integers(1, 6)), n))
        V[rng.uniform(size=V.shape) < 0.2] = 0.0
        h = support_function(P, np.concatenate([-V, V]))
        assert (-h[: len(V)]).tobytes() == (-support_function(P, -V)).tobytes()
        assert h[len(V) :].tobytes() == support_function(P, V).tobytes()
    # through lemma1_check, whose projected bounds on a constant sum are [-0.0, 0.0]
    constant = SumFunction(2, (max_affine([((0.0, 0.0), 0.0)]), max_affine([((0.0, 0.0), 1.0)])))
    trials = [(restrict(constant, S_SUM, np.array([0.0])), (0.0,), [np.array([1.0, -1.0]), np.array([-2.0, 2.0])])]
    trials += [_random_lemma1_trial(rng, int(rng.integers(2, 7))) for _ in range(30)]
    for g, w, directions in trials:
        P = restricted_subdifferential(g, w)
        for check, v in zip(lemma1_check(g, w, directions).checks, directions):
            want = [-support_function(P, -v), support_function(P, v)]
            assert np.array(check.witness["projected"]).tobytes() == np.array(want).tobytes()
