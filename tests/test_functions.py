"""Tests for the convex function families and their subdifferential calculus."""

import functools
import itertools
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from convexkit import functions
from convexkit.errors import ConvexKitError, DimensionMismatch, SubdifferentialTooLarge
from convexkit.functions import (
    MaxAffine,
    Polytope,
    Quadratic,
    SumFunction,
    evaluate,
    evaluate_many,
    max_affine,
    normal_form,
    one_dim_subdifferential,
    quadratic,
    subdifferential,
    support_function,
)
from convexkit.argmin import PolyhedralDomain
from convexkit.harness import gen_coercive_max_affine, gen_max_affine, gen_operator
from convexkit.instances import function_from_json, function_to_json
from convexkit.linalg import as_rows, as_vector, row_norms
from convexkit.marginal import BOX_RADIUS, marginal_value, marginalize

# max(+-x1, +-x2), the infinity norm on R^2
INF_NORM = max_affine(
    [((1.0, 0.0), 0.0), ((-1.0, 0.0), 0.0), ((0.0, 1.0), 0.0), ((0.0, -1.0), 0.0)]
)
# |x1| + |x2| written as a max over the four sign patterns
ONE_NORM = max_affine(
    [((1.0, 1.0), 0.0), ((1.0, -1.0), 0.0), ((-1.0, 1.0), 0.0), ((-1.0, -1.0), 0.0)]
)
SQUARED_NORM = quadratic(np.eye(2))
ABS = max_affine([((1.0,), 0.0), ((-1.0,), 0.0)])
ABS_DOC = {"type": "max_affine", "pieces": [{"a": [1.0], "b": 0.0}, {"a": [-1.0], "b": 0.0}]}


def forward_difference(f, x, v, h):
    """(f(x + h v) - f(x)) / h, an oracle independent of the subgradient sets."""
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    return (evaluate(f, x + h * v) - evaluate(f, x)) / h


def test_evaluate_frozen_examples():
    assert evaluate(INF_NORM, (3.0, -1.0)) == 3.0
    assert evaluate(SQUARED_NORM, (1.0, 2.0)) == 5.0
    s = SumFunction(2, (INF_NORM, SQUARED_NORM))
    assert evaluate(s, (1.0, 2.0)) == 7.0


def _reference_evaluate(f, x) -> float:
    """The one-point evaluation ``evaluate`` had before it became a stack of one, kept as the bit-exact reference."""
    x = as_vector(x, f.dim)
    blocks, quad = normal_form(f)
    terms = [float(np.max(b.matrix @ x + b.offsets)) for b in blocks]
    if quad is not None:
        terms.append(float(x @ quad.Q @ x + quad.c @ x + quad.r0))
    return sum(terms[1:], terms[0])


def test_evaluate_many_matches_scalar():
    """Row i of evaluate_many is the one-point reference evaluation at row i, bit for bit, on every family."""
    rng = np.random.default_rng(3)

    def pieces(d):
        return max_affine([(rng.uniform(-2.0, 2.0, d), float(rng.uniform(-2.0, 2.0))) for _ in range(int(rng.integers(1, 7)))])

    def psd(d, rank):
        A = rng.uniform(-1.0, 1.0, (rank, d))
        return quadratic(A.T @ A, c=rng.uniform(-2.0, 2.0, d), r0=float(rng.uniform(-1.0, 1.0)))

    for _ in range(30):
        d = int(rng.integers(1, 7))
        families = (
            pieces(d),
            psd(d, d),
            psd(d, int(rng.integers(0, d))),
            SumFunction(d, (psd(d, d), pieces(d), psd(d, int(rng.integers(0, d))), pieces(d))),
        )
        for f in families:
            for rows in (1, 26, 200):
                X = rng.uniform(-5.0, 5.0, size=(rows, d))
                want = [_reference_evaluate(f, x) for x in X]
                assert np.array_equal(evaluate_many(f, X), want)
                assert [repr(evaluate(f, x)) for x in X[:3]] == [repr(v) for v in want[:3]]
    X = rng.uniform(-3.0, 3.0, size=(40, 2))
    for f in (INF_NORM, ONE_NORM, SQUARED_NORM, SumFunction(2, (ONE_NORM, SQUARED_NORM))):
        assert np.array_equal(evaluate_many(f, X), [_reference_evaluate(f, x) for x in X])


# --- the epigraph lift, against the builders it replaced -------------------------


def _reference_epigraph(d, blocks, radius):
    """``functions.epigraph`` before it wrote halfspace and fiber rows: (cost, rows, rhs, lower, upper)."""
    p = len(blocks)
    rows, rhs = [], []
    t_lo, t_hi = np.zeros(p), np.zeros(p)
    for k, block in enumerate(blocks):
        reach = np.abs(block.matrix) @ np.full(d, radius)
        t_hi[k] = float(np.max(block.offsets + reach)) + 1.0
        t_lo[k] = float(np.min(block.offsets - reach)) - 1.0
        for a, b in zip(block.matrix, block.offsets):
            row = np.zeros(d + p)
            row[:d] = a
            row[d + k] = -1.0
            rows.append(row)
            rhs.append(-b)
    cost = np.concatenate([np.zeros(d), np.ones(p)])
    lower = np.concatenate([np.full(d, -radius), t_lo])
    upper = np.concatenate([np.full(d, radius), t_hi])
    return cost, np.array(rows).reshape(-1, d + p), np.array(rhs), lower, upper


def _reference_epigraph_over(C, blocks):
    """The lift argmin built itself: the reference epigraph over C's box, with C's halfspaces as more rows."""
    cost, rows, rhs, lower, upper = _reference_epigraph(C.dim, blocks, C.box_radius)
    G = np.zeros((len(C.inequalities), len(cost)))
    for i, (g, _) in enumerate(C.inequalities):
        G[i, : C.dim] = g
    return cost, np.vstack([rows, G]), np.concatenate([rhs, [h for _, h in C.inequalities]]), lower, upper


def _assert_same_arrays(got, want):
    """Same shapes and bytes, and the same memory order, which a matmul over the rows rounds by."""
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()
        assert (a.flags.c_contiguous, a.flags.f_contiguous) == (b.flags.c_contiguous, b.flags.f_contiguous)


def test_epigraph_over_a_domain_matches_the_hand_built_lift():
    """Piece rows, then one row per halfspace, byte for byte as argmin built them; no fiber rows."""
    rng = np.random.default_rng(71)
    for _ in range(200):
        d = int(rng.integers(1, 6))
        blocks = tuple(gen_max_affine(d, int(rng.integers(1, 6)), rng) for _ in range(int(rng.integers(0, 4))))
        cuts = tuple((rng.uniform(-1.0, 1.0, d), float(rng.uniform(-2.0, 1.0))) for _ in range(int(rng.integers(0, 4))))
        C = PolyhedralDomain(d, cuts, float(rng.uniform(0.5, 4.0)))
        cost, A_ub, b_ub, A_eq, lower, upper = functions.epigraph(d, blocks, C.box_radius, C.inequalities, np.zeros((0, d)))
        _assert_same_arrays((cost, A_ub, b_ub, lower, upper), _reference_epigraph_over(C, blocks))
        assert A_eq.shape == (0, len(cost))


def test_epigraph_fiber_rows_match_the_hand_built_lift():
    """With a marginal's view S.T as fiber, the equality rows are its hand-built [S^T, 0], memory order included.

    For a one-block objective the rows are F-ordered; a C-ordered copy would
    change marginal LP solutions in the last bits.
    """
    rng = np.random.default_rng(72)
    f_ordered = 0
    for _ in range(200):
        d = int(rng.integers(2, 7))
        n = int(rng.integers(1, d + 1))
        blocks = tuple(gen_coercive_max_affine(d, int(rng.integers(2, 7)), rng) for _ in range(int(rng.integers(1, 3))))
        h = marginalize(SumFunction(d, blocks), gen_operator(d, n, int(rng.integers(1, n + 1)), rng))
        cost, A_ub, b_ub, A_eq, lower, upper = functions.epigraph(d, blocks, BOX_RADIUS, (), h.S.T)
        _assert_same_arrays((cost, A_ub, b_ub, lower, upper), _reference_epigraph(d, blocks, BOX_RADIUS))
        _assert_same_arrays((A_eq,), (np.hstack([h.S.T, np.zeros((n, len(blocks)))]),))
        f_ordered += not A_eq.flags.c_contiguous
    assert 20 < f_ordered < 180


def test_subdifferential_one_norm_at_origin_is_square():
    P = subdifferential(ONE_NORM, (0.0, 0.0))
    got = {tuple(g) for g in P.generators}
    assert got == {(1.0, 1.0), (1.0, -1.0), (-1.0, 1.0), (-1.0, -1.0)}


def test_subdifferential_one_norm_at_generic_point():
    P = subdifferential(ONE_NORM, (2.0, 3.0))
    assert P.generators.shape == (1, 2)
    assert_allclose(P.generators[0], [1.0, 1.0])


def test_subdifferential_quadratic_is_gradient():
    f = quadratic(np.eye(2), c=(1.0, 0.0))
    P = subdifferential(f, (1.0, 2.0))
    assert_allclose(P.generators, [[3.0, 4.0]])


def test_subdifferential_sum_is_minkowski_sum():
    s = SumFunction(2, (ONE_NORM, SQUARED_NORM))
    P = subdifferential(s, (0.0, 0.0))
    # gradient of the quadratic at origin is 0, so the square survives as is
    got = {tuple(g) for g in P.generators}
    assert got == {(1.0, 1.0), (1.0, -1.0), (-1.0, 1.0), (-1.0, -1.0)}


def test_generators_are_the_product_in_row_order():
    """``Polytope.generators`` sums one row per summand, the first summand's row varying slowest, and is built once."""
    rng = np.random.default_rng(5)
    blocks = [rng.uniform(-1.0, 1.0, (m, 3)) for m in (2, 3, 1, 4)]
    P = Polytope(tuple(blocks))
    want = np.array([functools.reduce(np.add, rows) for rows in itertools.product(*blocks)])
    assert P.generators.tobytes() == want.tobytes()
    assert P.generators is P.generators
    one = Polytope(blocks[:1])
    assert one.generators is one.summands[0]


def test_active_tolerance_is_relative():
    # two pieces within 5e-10 * (|max|+1) of each other: both active at default tol
    f = max_affine([((1.0,), 0.0), ((-1.0,), 5e-10)])
    P = subdifferential(f, (0.0,))
    assert P.generators.shape[0] == 2
    # a tiny tolerance keeps only the top piece
    P = subdifferential(f, (0.0,), active_tol=1e-12)
    assert P.generators.shape[0] == 1


def test_directional_derivatives_at_kink():
    assert one_dim_subdifferential(ONE_NORM, (0.0, 0.0), (1.0, -1.0)) == (-2.0, 2.0)
    assert forward_difference(ONE_NORM, (0.0, 0.0), (1.0, -1.0), 1e-3) == 2.0
    assert -forward_difference(ONE_NORM, (0.0, 0.0), (-1.0, 1.0), 1e-3) == -2.0


def test_one_dim_subdifferential_of_abs():
    assert one_dim_subdifferential(ABS, (0.0,), (1.0,)) == (-1.0, 1.0)
    # scaling the direction scales the interval
    assert one_dim_subdifferential(ABS, (0.0,), (2.0,)) == (-2.0, 2.0)


def test_one_dim_subdifferential_smooth_point():
    lo, hi = one_dim_subdifferential(SQUARED_NORM, (1.0, 0.0), (0.0, 1.0))
    assert lo == hi == 0.0


def test_zero_direction_rejected():
    with pytest.raises(ValueError):
        one_dim_subdifferential(ABS, (0.0,), (0.0,))
    with pytest.raises(ValueError):
        one_dim_subdifferential(SumFunction(2, (ONE_NORM, SQUARED_NORM)), (0.0, 0.0), (0.0, 0.0))


def test_fd_directional_derivative_frozen():
    assert forward_difference(ABS, (0.0,), (1.0,), 1e-6) == pytest.approx(1.0)
    assert one_dim_subdifferential(ABS, (0.0,), (1.0,))[1] == 1.0
    square = quadratic(np.eye(1))
    got = forward_difference(square, (1.0,), (1.0,), 1e-6)
    # exact value is 2 + h; the quotient carries ~1e-10 of cancellation noise
    assert got == pytest.approx(2.0 + 1e-6, abs=1e-9)
    assert one_dim_subdifferential(square, (1.0,), (1.0,)) == (2.0, 2.0)


def test_fd_agrees_with_subdifferential_random():
    # generic points: forward difference equals the right derivative up to L*h
    rng = np.random.default_rng(42)
    for trial in range(100):
        dim = int(rng.integers(1, 5))
        k = int(rng.integers(2, 8))
        f = max_affine([(rng.uniform(-2, 2, dim), rng.uniform(-2, 2)) for _ in range(k)])
        x = rng.uniform(-3, 3, dim)
        v = rng.normal(size=dim)
        v /= np.linalg.norm(v)
        L = max(np.linalg.norm(p.a) for p in f.pieces)
        for h in (1e-4, 1e-6):
            fd = forward_difference(f, x, v, h)
            dd = one_dim_subdifferential(f, x, v)[1]
            assert abs(fd - dd) <= L * h + 1e-6


def test_fd_exact_at_constructed_kink():
    # at the kink of |x| the forward difference is exactly the right derivative
    assert one_dim_subdifferential(ABS, (0.0,), (1.0,))[1] == 1.0
    for h in (1e-4, 1e-6, 0.5):
        assert forward_difference(ABS, (0.0,), (1.0,), h) == 1.0


def test_subgradient_inequality_random():
    # f(y) >= f(x) + g . (y - x) for every generator g, all three families
    rng = np.random.default_rng(2024)
    for trial in range(100):
        dim = int(rng.integers(1, 5))
        pieces = [(rng.uniform(-2, 2, dim), rng.uniform(-2, 2)) for _ in range(5)]
        A = rng.uniform(-1, 1, (dim, dim))
        fs = [
            max_affine(pieces),
            quadratic(A.T @ A + 0.1 * np.eye(dim), c=rng.uniform(-1, 1, dim)),
        ]
        fs.append(SumFunction(dim, tuple(fs)))
        for f in fs:
            x = rng.uniform(-3, 3, dim)
            y = rng.uniform(-3, 3, dim)
            fx, fy = evaluate(f, x), evaluate(f, y)
            for g in subdifferential(f, x).generators:
                assert fy >= fx + g @ (y - x) - 1e-8 * (1 + abs(fx) + abs(fy))


def test_one_dim_subdifferential_stack_matches_one_row_calls(monkeypatch):
    """A stack of directions gets each row's own interval bit for bit, at heights 0, 1 and 5, from one active-set pass."""
    calls = []
    original = functions.subdifferential

    def counted(*args):
        calls.append(1)
        return original(*args)

    monkeypatch.setattr(functions, "subdifferential", counted)
    rng = np.random.default_rng(13)
    for _ in range(40):
        d = int(rng.integers(1, 7))
        x = rng.uniform(-1.0, 1.0, d)
        A = rng.uniform(-2.0, 2.0, (5, d))
        kinked = max_affine(list(zip(A, 1.0 - A @ x)))  # all five pieces active at x
        Q = rng.uniform(-1.0, 1.0, (d, d))
        for f in (kinked, quadratic(Q.T @ Q, c=rng.uniform(-1.0, 1.0, d)), SumFunction(d, (kinked, quadratic(Q.T @ Q), kinked))):
            for height in (0, 1, 5):
                V = rng.uniform(-3.0, 3.0, (height, d))
                V[:, 1:][rng.uniform(size=(height, d - 1)) < 0.3] = 0.0  # zero entries, never a zero row
                calls.clear()
                lo, hi = one_dim_subdifferential(f, x, V)
                assert len(calls) == 1 and lo.shape == hi.shape == (height,)
                rows = [one_dim_subdifferential(f, x, v) for v in V]
                assert all(type(a) is float and type(b) is float for a, b in rows)
                assert lo.tobytes() == np.array([a for a, _ in rows], dtype=float).tobytes()
                assert hi.tobytes() == np.array([b for _, b in rows], dtype=float).tobytes()
    with pytest.raises(ValueError):
        one_dim_subdifferential(ABS, (0.0,), np.array([[1.0], [0.0]]))


def _reference_one_dim_subdifferential(f, x, v, active_tol=functions.ACTIVE_TOL):
    """The per-summand min/max body one_dim_subdifferential replaced, kept as the bit-exact reference."""
    V = as_rows(v, f.dim)
    if not row_norms(V).all():
        raise ValueError("direction must be nonzero")
    along = [(s @ V[:, :, None])[:, :, 0] for s in subdifferential(f, x, active_tol).summands]
    lo = functools.reduce(np.add, [a.min(axis=1) for a in along])
    hi = functools.reduce(np.add, [a.max(axis=1) for a in along])
    return (lo, hi) if np.ndim(v) == 2 else (float(lo[0]), float(hi[0]))


def test_one_dim_subdifferential_matches_per_summand_min_max():
    """The support values (-h(-v), h(v)) are the per-summand minima and maxima, byte for byte, signed zeros included.

    Random sums of 1-4 kinked blocks, with and without a quadratic, at stack
    heights 0, 1 and 5 and on single rows; then integer data at the origin,
    where every piece is active and zero products and exact cancellations
    give zero endpoints.
    """
    rng = np.random.default_rng(23)
    cases = []
    for _ in range(200):
        d = int(rng.integers(1, 7))
        x = rng.uniform(-1.0, 1.0, d)
        blocks = []
        for _ in range(int(rng.integers(1, 5))):
            A = rng.uniform(-2.0, 2.0, (int(rng.integers(1, 6)), d))
            blocks.append(MaxAffine(A, 1.0 - A @ x))  # all pieces active at x
        Q = rng.uniform(-1.0, 1.0, (d, d))
        quads = [quadratic(Q.T @ Q, c=rng.uniform(-1.0, 1.0, d))] if rng.uniform() < 0.5 else []
        cases.append((SumFunction(d, (*blocks, *quads)), x, [rng.uniform(-3.0, 3.0, (h, d)) for h in (0, 1, 5)]))
    for _ in range(200):
        d = int(rng.integers(1, 5))
        integer_blocks = (rng.integers(-1, 2, (int(rng.integers(1, 5)), d)) for _ in range(int(rng.integers(1, 4))))
        blocks = tuple(MaxAffine(A, np.zeros(len(A))) for A in integer_blocks)
        V = rng.integers(-1, 2, (5, d)).astype(float)
        V[~V.any(axis=1), 0] = 1.0
        cases.append((SumFunction(d, blocks) if len(blocks) > 1 else blocks[0], np.zeros(d), [V, V[:1]]))
    zeros = 0
    for f, x, stacks in cases:
        for V in stacks:
            got, want = one_dim_subdifferential(f, x, V), _reference_one_dim_subdifferential(f, x, V)
            assert [a.tobytes() for a in got] == [b.tobytes() for b in want]
            zeros += int(np.sum(want[0] == 0.0) + np.sum(want[1] == 0.0))
            for v in V:
                got, want = one_dim_subdifferential(f, x, v), _reference_one_dim_subdifferential(f, x, v)
                assert np.array(got).tobytes() == np.array(want).tobytes()
    assert zeros > 100  # the integer cases reach zero endpoints


def test_evaluate_on_strided_rows_matches_their_copies():
    """A row of an F-ordered matrix is a strided vector; as_vector makes it C-ordered, so it rounds as its copy does."""
    rng = np.random.default_rng(19)
    for _ in range(40):
        d = int(rng.integers(2, 8))
        A = rng.uniform(-1.0, 1.0, (d, d))
        f = SumFunction(d, (max_affine([(rng.uniform(-2, 2, d), rng.uniform(-2, 2)) for _ in range(6)]), quadratic(A.T @ A, c=rng.uniform(-1, 1, d))))
        X = np.asfortranarray(rng.uniform(-5.0, 5.0, (100, d)))
        for x in X:
            assert repr(evaluate(f, x)) == repr(evaluate(f, x.copy()))


def test_evaluate_many_on_f_ordered_rows_matches_c_ordered_copy():
    """as_matrix makes an F-ordered stack C-ordered, so its values are those of its C-ordered copy bit for bit."""
    rng = np.random.default_rng(0)
    for _ in range(200):
        d = int(rng.integers(2, 8))
        A = rng.uniform(-1.0, 1.0, (d, d))
        f = SumFunction(d, (max_affine([(rng.uniform(-2, 2, d), rng.uniform(-2, 2)) for _ in range(6)]), quadratic(A.T @ A, c=rng.uniform(-1, 1, d))))
        X = np.asfortranarray(rng.uniform(-5.0, 5.0, (50, d)))
        assert evaluate_many(f, X).tobytes() == evaluate_many(f, np.ascontiguousarray(X)).tobytes()


def test_interval_endpoints_order_random():
    rng = np.random.default_rng(5)
    for trial in range(100):
        dim = int(rng.integers(1, 4))
        f = max_affine([(rng.uniform(-2, 2, dim), rng.uniform(-2, 2)) for _ in range(6)])
        x = rng.uniform(-1, 1, dim)
        v = rng.normal(size=dim)
        if np.linalg.norm(v) == 0:
            continue
        lo, hi = one_dim_subdifferential(f, x, v)
        assert lo <= hi


@settings(max_examples=200, deadline=None)
@given(
    t=st.floats(min_value=0.01, max_value=100.0),
    coeffs=st.lists(st.floats(min_value=-5, max_value=5), min_size=2, max_size=6),
)
def test_directional_derivative_positive_homogeneity(t, coeffs):
    f = max_affine([((a,), 0.0) for a in coeffs])
    lo1, hi1 = one_dim_subdifferential(f, (0.0,), (1.0,))
    lo2, hi2 = one_dim_subdifferential(f, (0.0,), (t,))
    assert lo2 == pytest.approx(t * lo1, rel=1e-12, abs=1e-12)
    assert hi2 == pytest.approx(t * hi1, rel=1e-12, abs=1e-12)


def test_validation_errors():
    with pytest.raises(ValueError):
        max_affine([])
    with pytest.raises(ValueError):
        quadratic(np.array([[1.0, 0.5], [0.0, 1.0]]))  # not symmetric
    with pytest.raises(ValueError):
        quadratic(np.array([[-1.0]]))  # not PSD
    with pytest.raises(DimensionMismatch):
        max_affine([((1.0, 2.0), 0.0), ((1.0,), 0.0)])  # ragged piece gradients
    with pytest.raises(DimensionMismatch):
        MaxAffine(np.ones((2, 3)), np.zeros(3))  # one offset per row
    with pytest.raises(ValueError, match="at least one piece"):
        MaxAffine(np.zeros((0, 2)), np.zeros(0))
    with pytest.raises(DimensionMismatch):
        Quadratic(np.ones((2, 3)), np.zeros(2))  # Q is square
    with pytest.raises(DimensionMismatch):
        SumFunction(2, (ABS, SQUARED_NORM))
    with pytest.raises(ValueError):
        SumFunction(2, ())
    with pytest.raises(DimensionMismatch):
        evaluate(ABS, (1.0, 2.0))
    for summands in ((), (np.zeros((0, 2)),), (np.ones((1, 2)), np.zeros((0, 2)))):
        with pytest.raises(ValueError, match="at least one summand"):
            Polytope(summands)
    with pytest.raises(DimensionMismatch, match="summands differ"):
        Polytope((np.ones((1, 2)), np.ones((1, 3))))
    with pytest.raises(ValueError, match="must be finite"):
        max_affine([((1.0,), np.inf)])
    with pytest.raises(ValueError, match="constant term must be finite"):
        quadratic(np.eye(1), r0=np.nan)
    with pytest.raises(TypeError, match="not a convex function: str"):
        normal_form("abs")
    with pytest.raises(DimensionMismatch):
        evaluate_many(ABS, np.zeros((3, 2)))
    with pytest.raises(ValueError, match="active_tol must be finite and nonnegative"):
        subdifferential(ABS, (0.0,), -1e-9)
    for doc in ([ABS_DOC], {"pieces": ABS_DOC["pieces"]}):
        with pytest.raises(ValueError, match="with a 'type' key"):
            function_from_json(doc)
    with pytest.raises(ValueError, match="sum needs at least one part"):
        function_from_json({"type": "sum", "parts": []})
    with pytest.raises(ValueError, match="unknown function type: 'norm'"):
        function_from_json({"type": "norm"})
    with pytest.raises(TypeError, match="not a convex function: dict"):
        function_to_json(ABS_DOC)


@pytest.mark.parametrize("tol", [np.nan, -1.0, np.inf])
def test_active_tol_that_no_check_can_mean_is_refused(tol):
    """A NaN, negative or infinite active_tol raises the ValueError that names it, before the point is read."""
    for call in (
        lambda: subdifferential(ABS, (0.0,), tol),
        lambda: subdifferential(ABS, (0.0, 0.0, 0.0), tol),  # a point of the wrong length
        lambda: one_dim_subdifferential(ABS, (0.0,), (1.0,), tol),
        lambda: one_dim_subdifferential(ABS, (0.0,), (0.0,), tol),  # a zero direction
    ):
        with pytest.raises(ValueError, match="^active_tol must be finite and nonnegative$"):
            call()
    assert subdifferential(ABS, (0.0,), 0.0).summands[0].tolist() == [[1.0], [-1.0]]  # zero is a tolerance


def _per_piece_json(f) -> dict:
    """The function writer as it walked one (a, b) piece at a time: the byte reference for ``function_to_json``."""
    if isinstance(f, MaxAffine):
        return {"type": "max_affine", "pieces": [{"a": p.a.tolist(), "b": p.b} for p in f.pieces]}
    if isinstance(f, Quadratic):
        return {"type": "quadratic", "Q": f.Q.tolist(), "c": f.c.tolist(), "r0": f.r0}
    return {"type": "sum", "parts": [_per_piece_json(p) for p in f.parts]}


def test_function_documents_round_trip():
    """Reading a function document and writing it back gives the document, in the per-piece writer's bytes.

    Max-affine documents carry a -0.0 offset, sums nest, and R^0 functions
    have (k, 0) gradient matrices and a 0 x 0 ``Q``, written as [].
    """
    rng = np.random.default_rng(19)

    def draw(d, depth):
        kind = int(rng.integers(3 if depth else 2))
        if kind == 0:
            k = int(rng.integers(1, 5))
            b = rng.uniform(-2.0, 2.0, k)
            b[int(rng.integers(k))] = -0.0
            A = rng.uniform(-2.0, 2.0, (k, d))
            return {"type": "max_affine", "pieces": [{"a": a, "b": v} for a, v in zip(A.tolist(), b.tolist())]}
        if kind == 1:
            A = rng.uniform(-1.0, 1.0, (d, d))
            Q = A.T @ A
            return {"type": "quadratic", "Q": Q.tolist(), "c": rng.uniform(-1.0, 1.0, d).tolist(), "r0": float(rng.uniform(-1.0, 1.0))}
        return {"type": "sum", "parts": [draw(d, depth - 1) for _ in range(int(rng.integers(1, 4)))]}

    kinds = set()
    for d in (0, 0, 0, 1, 2, 3, 5) * 6:
        doc = draw(d, 2)
        f = function_from_json(doc)
        assert f.dim == d
        assert function_to_json(f) == doc
        assert json.dumps(function_to_json(f)) == json.dumps(_per_piece_json(f)) == json.dumps(doc)
        kinds.add((d == 0, doc["type"]))
    assert len(kinds) == 6


def test_psd_accepts_semidefinite():
    # rank-deficient but PSD passes the floor check
    q = quadratic(np.array([[1.0, 0.0], [0.0, 0.0]]))
    assert evaluate(q, (0.0, 3.0)) == 0.0


def _marginal_outcome(f):
    h = marginalize(f, np.array([[1.0], [1.0]]))
    try:
        w = marginal_value(h, [0.5])
    except ConvexKitError as exc:
        return type(exc).__name__
    return w.status, w.value


@pytest.mark.parametrize(
    "Q1, Q2",
    [
        (quadratic(np.eye(2), c=(1.0, -0.5), r0=0.25), quadratic(np.array([[1.0, 0.5], [0.5, 1.0]]), r0=-1.0)),
        (quadratic(np.zeros((2, 2)), r0=0.25), quadratic(np.zeros((2, 2)), r0=-1.0)),
    ],
)
def test_nested_sum_agrees_with_flattened(Q1, Q2):
    nested = SumFunction(2, (SumFunction(2, (ONE_NORM, Q1)), INF_NORM, Q2))
    flat = SumFunction(2, (ONE_NORM, INF_NORM, Quadratic(Q1.Q + Q2.Q, Q1.c + Q2.c, Q1.r0 + Q2.r0)))
    blocks, quad = normal_form(nested)
    assert len(blocks) == 2 and blocks[0] is ONE_NORM and blocks[1] is INF_NORM
    assert_allclose(quad.Q, Q1.Q + Q2.Q)
    assert normal_form(nested) is normal_form(nested)
    rng = np.random.default_rng(8)
    X = np.vstack([np.zeros(2), rng.uniform(-2.0, 2.0, (20, 2))])
    assert_allclose(evaluate_many(nested, X), evaluate_many(flat, X), rtol=0, atol=0)
    for x in X:
        assert evaluate(nested, x) == evaluate(flat, x)
        got = subdifferential(nested, x).generators
        assert_allclose(got, subdifferential(flat, x).generators, rtol=0, atol=0)
        v = rng.normal(size=2)
        assert one_dim_subdifferential(nested, x, v) == one_dim_subdifferential(flat, x, v)
    # at the origin both norms are kinked: 4 x 4 generators
    assert subdifferential(nested, (0.0, 0.0)).generators.shape == (16, 2)
    assert _marginal_outcome(nested) == _marginal_outcome(flat)


def test_many_blocks_stay_implicit():
    f = SumFunction(2, (ONE_NORM,) * 12)
    tracemalloc.start()
    try:
        # linear in the number of blocks: 12 blocks of 4 active pieces each
        assert one_dim_subdifferential(f, (0.0, 0.0), (1.0, 0.0)) == (-12.0, 12.0)
        P = subdifferential(f, (0.0, 0.0))
        assert [s.shape for s in P.summands] == [(4, 2)] * 12
        assert support_function(P, (1.0, 0.0)) == 12.0
        # 4**12 generators in R^2 would take 256 MiB; the budget check comes first
        with pytest.raises(SubdifferentialTooLarge):
            P.generators
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
