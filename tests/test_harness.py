"""Tests for the seeded generators, the grid oracle, and the suite runner."""

import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from convexkit import cli, harness, marginal, restriction, simplex
from convexkit.errors import FiberTooLarge
from convexkit.functions import MaxAffine, evaluate, evaluate_many, max_affine, quadratic
from convexkit.harness import (
    RunConfig,
    brute_force_min_over_fiber,
    gen_coercive_max_affine,
    gen_flat_max_affine,
    gen_max_affine,
    gen_operator,
    gen_pd_quadratic,
    run_suite,
    trial_rng,
)
from convexkit.linalg import kernel
from convexkit.marginal import MinimizationWitness
from convexkit.report import report_to_dict, report_to_json


def test_trial_rng_is_keyed_by_stream_and_index():
    a = trial_rng(42, 1, 7).uniform(size=4)
    b = trial_rng(42, 1, 7).uniform(size=4)
    c = trial_rng(42, 1, 8).uniform(size=4)
    d = trial_rng(42, 2, 7).uniform(size=4)
    assert_allclose(a, b)
    assert not np.allclose(a, c)
    assert not np.allclose(a, d)


def test_gen_operator_has_requested_rank():
    rng = np.random.default_rng(3)
    for _ in range(25):
        rows = int(rng.integers(1, 6))
        cols = int(rng.integers(1, 6))
        rank = int(rng.integers(0, min(rows, cols) + 1))
        S = gen_operator(rows, cols, rank, np.random.default_rng(int(rng.integers(0, 10000))))
        assert S.shape == (rows, cols)
        assert np.linalg.matrix_rank(S, tol=1e-8) == rank


def test_gen_operator_rejects_impossible_rank():
    with pytest.raises(ValueError):
        gen_operator(2, 3, 3, np.random.default_rng(0))


def test_coercive_generator_minorant():
    """The added bound pieces guarantee f(r) >= 2 max|r_j| - 2 everywhere."""
    rng = np.random.default_rng(9)
    f = gen_coercive_max_affine(4, 5, np.random.default_rng(11))
    for _ in range(200):
        r = rng.uniform(-10.0, 10.0, 4)
        assert evaluate(f, r) >= 2.0 * float(np.max(np.abs(r))) - 2.0 - 1e-12


def test_flat_generator_is_zero_near_origin():
    f = gen_flat_max_affine(3, 5, np.random.default_rng(17))
    assert evaluate(f, np.zeros(3)) == 0.0
    rng = np.random.default_rng(1)
    for _ in range(100):
        assert evaluate(f, rng.uniform(-5.0, 5.0, 3)) >= 0.0


def test_pd_quadratic_generator_spectrum():
    for seed in range(5):
        f = gen_pd_quadratic(4, np.random.default_rng(seed))
        assert float(np.min(np.linalg.eigvalsh(f.Q))) >= 0.1 - 1e-12


def test_generators_accept_generator_instances():
    rng = np.random.default_rng(5)
    f = gen_max_affine(3, 4, rng)
    g = gen_max_affine(3, 4, np.random.default_rng(5))
    assert_allclose(f.matrix, g.matrix)


def test_brute_force_frozen_quadratic():
    """min r1^2 + r2^2 over r1 + r2 = 2 is 2, hit exactly at a grid node."""
    S = np.array([[1.0], [1.0]])
    value, point = brute_force_min_over_fiber(quadratic(np.eye(2)), S, [2.0], 1e-2, 5.0)
    assert_allclose(value, 2.0, atol=1e-9)
    assert_allclose(point, [1.0, 1.0], atol=1e-9)


def test_brute_force_zero_dimensional_fiber():
    value, point = brute_force_min_over_fiber(quadratic(np.eye(2)), np.eye(2), [1.0, 2.0], 1e-2, 5.0)
    assert_allclose(value, 5.0, atol=1e-10)
    assert_allclose(point, [1.0, 2.0], atol=1e-10)


def test_brute_force_rejects_large_fibers():
    f = quadratic(np.eye(5))
    with pytest.raises(FiberTooLarge):
        brute_force_min_over_fiber(f, np.ones((5, 1)), [1.0], 1e-2, 5.0)
    with pytest.raises(FiberTooLarge):
        brute_force_min_over_fiber(quadratic(np.eye(4)), np.ones((4, 1)), [1.0], 1e-3, 5.0)
    with pytest.raises(FiberTooLarge, match="^grid would hold inf points"):  # 2 * radius / pitch overflows
        brute_force_min_over_fiber(quadratic(np.eye(2)), np.ones((2, 1)), [1.0], 1e-10, 1e300)
    # a pitch or radius that is not finite and positive is refused, not answered with (inf, anchor)
    S = np.array([[1.0], [1.0]])
    for pitch, radius in [(-0.01, 5.0), (0.0, 5.0), (np.nan, 5.0), (np.inf, 5.0), (1e-2, -1.0), (1e-2, 0.0), (1e-2, np.nan), (1e-2, np.inf)]:
        with pytest.raises(ValueError, match="pitch and radius must be finite and positive"):
            brute_force_min_over_fiber(quadratic(np.eye(2)), S, [2.0], pitch, radius)


def test_suites_pass_on_small_runs():
    config = RunConfig(trials=6, seed=42)
    for suite in ("lemma1", "lemma2"):
        report = run_suite(suite, config)
        assert report.suite == suite
        assert report.summary == {"pass": 6, "fail": 0, "skip": 0}
    report = run_suite("lemma3", config)
    assert report.summary["fail"] == 0
    assert report.summary["pass"] >= 2


def test_all_concatenates_with_sequential_ids():
    config = RunConfig(trials=3, seed=7)
    report = run_suite("all", config)
    assert report.suite == "all"
    assert [t["id"] for t in report_to_dict(report)["trials"]] == list(range(9))
    suites = [t.instance["suite"] for t in report.trials]
    assert suites == ["lemma1"] * 3 + ["lemma2"] * 3 + ["lemma3"] * 3


def test_run_suite_is_byte_deterministic():
    config = RunConfig(trials=4, seed=11)
    a = report_to_json(run_suite("all", config))
    b = report_to_json(run_suite("all", config))
    assert a == b


def test_zero_trials_gives_empty_report():
    report = run_suite("lemma1", RunConfig(trials=0, seed=1))
    assert report.trials == []
    assert report.summary == {"pass": 0, "fail": 0, "skip": 0}


def test_unknown_suite_rejected():
    with pytest.raises(ValueError):
        run_suite("lemma9", RunConfig(trials=1))


def test_run_suite_refuses_what_verify_refuses(monkeypatch, capsys, tmp_path):
    """A config no suite can run with raises ValueError before any trial, and verify prints the same field and rule."""
    calls = []
    for name, (stream, runner) in list(harness.SUITES.items()):
        counted = lambda rng, seed, index, config, runner=runner: calls.append(index) or runner(rng, seed, index, config)
        monkeypatch.setitem(harness.SUITES, name, (stream, counted))
    bad = [
        ("trials", -3, "must be nonnegative"),
        ("dim", 1, "must be at least 2"),
        ("seed", -1, "must be nonnegative"),
        ("tol_active", -1e-9, "must be finite and nonnegative"),
        ("tol_support", np.nan, "must be finite and nonnegative"),
        ("tol_membership", np.inf, "must be finite and nonnegative"),
        ("oracle_pitch", 0.0, "must be finite and positive"),
        # non-integers, which argparse cannot produce: range() raised TypeError, or the trials ran truncated
        ("trials", 2.0, "must be an integer"),
        ("trials", True, "must be an integer"),
        ("trials", "2", "must be an integer"),
        ("dim", 3.5, "must be an integer"),
        ("dim", np.float64(3.0), "must be an integer"),
        ("seed", 1.5, "must be an integer"),
        ("seed", np.bool_(True), "must be an integer"),
        # non-reals: a bool ran as 1.0, and a string raised TypeError from the range rule
        ("tol_support", True, "must be a real number"),
        ("tol_membership", np.bool_(False), "must be a real number"),
        ("tol_active", "1e-9", "must be a real number"),
        ("oracle_pitch", "0.01", "must be a real number"),
        ("oracle_pitch", True, "must be a real number"),
    ]
    for field, value, requirement in bad:
        config = RunConfig(**{"trials": 2, field: value})
        assert harness.config_error(config) == (field, requirement)
        for suite in ("lemma1", "lemma2", "lemma3", "all"):
            with pytest.raises(ValueError, match=f"^{field} {requirement}$"):
                run_suite(suite, config)
        out = tmp_path / f"{field}.json"
        assert cli.main(cli.CliConfig("verify", run=config, out=str(out))) == 2 and not out.exists()
        assert capsys.readouterr().err == f"error: --{field.replace('_', '-')} {requirement}\n"
    for pitch in (-1e-2, np.nan, np.inf):
        with pytest.raises(ValueError, match="^oracle_pitch must be finite and positive$"):
            run_suite("lemma2", RunConfig(trials=1, oracle_pitch=pitch))
    assert calls == []
    assert harness.config_error(RunConfig(trials=0, dim=2, seed=0, tol_active=0.0, oracle_pitch=1e-2)) is None
    assert run_suite("lemma1", RunConfig(trials=1)).summary["pass"] == 1
    assert calls == [0]


def test_numpy_config_values_write_the_python_bytes():
    """A numpy seed, count or tolerance runs and writes as the equal Python value; an int64 seed used to fail in json."""
    tol = np.float32(1e-7)
    python = RunConfig(trials=2, dim=6, seed=3, tol_support=float(tol), tol_membership=0.0)
    numpy = RunConfig(trials=np.int64(2), dim=np.int32(6), seed=np.int64(3), tol_support=tol, tol_membership=0)
    assert report_to_json(run_suite("all", numpy)) == report_to_json(run_suite("all", python))
    assert type(run_suite("lemma1", numpy).seed) is int
    pitch = np.float32(1e-2)
    oracle = [run_suite("lemma2", RunConfig(trials=2, seed=np.uint8(5), oracle_pitch=p)) for p in (pitch, float(pitch))]
    assert report_to_json(oracle[0]) == report_to_json(oracle[1])
    assert type(oracle[0].tolerances["oracle_pitch"]) is float


def test_oracle_mode_appends_agreement_checks():
    report = run_suite("lemma2", RunConfig(trials=4, seed=42, oracle_pitch=1e-2))
    assert report.tolerances["oracle_pitch"] == 1e-2
    for trial in report.trials:
        oracle = [c for c in trial.checks if c.name == "oracle_agreement"]
        assert len(oracle) == 1
        assert oracle[0].passed
        assert oracle[0].gap <= 1e-2


def test_mutated_projection_fails_lemma1_suite(monkeypatch, rowspace_version):
    """A row-space projection must be caught by the slice interval checks."""
    monkeypatch.setattr(restriction, "restricted_subdifferential", rowspace_version)
    report = run_suite("lemma1", RunConfig(trials=5, seed=42))
    assert report.summary["fail"] == 5
    failing = [c for c in report.trials[0].checks if not c.passed]
    assert failing and failing[0].witness is not None


def test_mutated_marginal_fails_oracle_checks(monkeypatch):
    """Returning the min-norm anchor instead of the argmin must disagree."""

    def anchor_version(h, x, **kwargs):
        fiber = restriction.make_fiber(h.S.T, x)
        value = float(evaluate(h.f, fiber.anchor))
        return MinimizationWitness(value, fiber.anchor, "exact-KKT")

    monkeypatch.setattr(marginal, "marginal_value", anchor_version)
    report = run_suite("lemma2", RunConfig(trials=6, seed=42, oracle_pitch=1e-2))
    failed = [
        t
        for t in report.trials
        if any(c.name == "oracle_agreement" and not c.passed for c in t.checks)
    ]
    assert len(failed) >= 3


def test_solver_failure_is_a_recorded_trial(monkeypatch):
    """Solvers out of their step budget fail their trials; the run returns every trial."""
    monkeypatch.setattr(simplex, "MAX_PIVOTS", 0)  # the max-affine trials' LP and the quadratic trials' QP
    report = run_suite("lemma3", RunConfig(trials=4, seed=42))
    assert [t["id"] for t in report_to_dict(report)["trials"]] == [0, 1, 2, 3]
    for trial in report.trials:
        assert trial.status == "fail"
        assert trial.checks[0].name == "no_error"
        assert trial.checks[0].witness["error"].startswith("SolverFailure")
    # lemma2: the max-affine (even) trials' stacked LPs fail, the quadratic trials' KKT solves pass
    report = run_suite("lemma2", RunConfig(trials=4, seed=42))
    assert [t["id"] for t in report_to_dict(report)["trials"]] == [0, 1, 2, 3]
    for index, trial in enumerate(report.trials):
        if index % 2:
            assert trial.status == "pass"
            assert trial.instance["marginal"]["f"]["type"] == "quadratic"
        else:
            assert trial.status == "fail"
            assert [c.name for c in trial.checks] == ["no_error"]
            assert trial.checks[0].witness["error"].startswith("SolverFailure: simplex did not terminate")


def test_operator_redraws_out_is_a_recorded_trial(monkeypatch):
    """An operator that cannot be drawn fails its trial; the run returns every trial."""
    monkeypatch.setattr(harness, "OPERATOR_DRAWS", 0)
    report = run_suite("lemma2", RunConfig(trials=4, seed=42))
    assert [t["id"] for t in report_to_dict(report)["trials"]] == [0, 1, 2, 3]
    for trial in report.trials:
        assert trial.status == "fail"
        assert trial.checks[0].name == "no_error"
        assert trial.checks[0].witness["error"].startswith("SolverFailure")


def test_off_kernel_direction_is_a_recorded_trial(monkeypatch):
    """A direction off ker S fails its trial with DomainViolation; the run returns every trial."""
    monkeypatch.setattr(restriction, "project", lambda v, W: np.zeros_like(v))
    report = run_suite("lemma1", RunConfig(trials=3, seed=42))
    assert report.summary == {"pass": 0, "fail": 3, "skip": 0}
    for trial in report.trials:
        assert trial.checks[0].name == "no_error"
        assert trial.checks[0].witness["error"].startswith("DomainViolation")


def test_value_error_is_a_recorded_trial(monkeypatch, tmp_path, capsys):
    """A trial raising a non-ConvexKitError fails alone; the run and the CLI report every trial."""
    clean = report_to_dict(run_suite("lemma1", RunConfig(trials=4, seed=42)))["trials"]
    stream, runner = harness.SUITES["lemma1"]

    def raising(rng, seed, index, config):
        if index == 2:
            quadratic([[1.0, 2.0], [0.0, 1.0]])  # Quadratic refuses an asymmetric Q
        return runner(rng, seed, index, config)

    monkeypatch.setitem(harness.SUITES, "lemma1", (stream, raising))
    report = run_suite("lemma1", RunConfig(trials=4, seed=42))
    trials = report_to_dict(report)["trials"]
    assert [t["id"] for t in trials] == [0, 1, 2, 3]
    assert [trials[i] for i in (0, 1, 3)] == [clean[i] for i in (0, 1, 3)]
    assert trials[2]["status"] == "fail"
    assert trials[2]["instance"] == {"suite": "lemma1", "error": "Q must be symmetric within 1e-10"}
    assert trials[2]["checks"] == [
        {
            "name": "no_error",
            "pass": False,
            "gap": None,
            "witness": {"error": "ValueError: Q must be symmetric within 1e-10"},
        }
    ]

    out = tmp_path / "r.json"
    assert cli.main(cli.parse_args(["verify", "--suite", "lemma1", "--trials", "4", "--out", str(out)])) == 1
    assert out.read_bytes() == report_to_json(report).encode()
    assert "lemma1: pass=3 fail=1 skip=0" in capsys.readouterr().out

    # in "all", the errored trial names its own suite and counts in that suite's summary line
    everything = run_suite("all", RunConfig(trials=4, seed=42))
    assert report_to_dict(everything)["trials"][2] == trials[2]
    assert cli.main(cli.parse_args(["verify", "--trials", "4", "--out", str(out)])) == 1
    assert capsys.readouterr().out.splitlines()[0] == "lemma1: pass=3 fail=1 skip=0"


# --- the block draws against the one-at-a-time loops they replaced ------------------


def _reference_gen_max_affine(dim, pieces, rng):
    """The per-piece draw loop gen_max_affine replaced, kept as the bit-exact reference."""
    return max_affine([(rng.uniform(-2.0, 2.0, dim), float(rng.uniform(-2.0, 2.0))) for _ in range(pieces)])


def _reference_directions(basis, rng):
    """The one-at-a-time direction loop of the lemma1 trial, kept as the bit-exact reference."""
    directions = []
    while len(directions) < 5:
        v = basis.T @ rng.uniform(-1.0, 1.0, basis.shape[0])
        norm = float(np.linalg.norm(v))
        if norm > 1e-9:
            directions.append(v / norm)
    return np.array(directions)


def test_gen_max_affine_matches_per_piece_draws():
    """One block draw gives the per-piece loop's matrix and offsets byte for byte, and leaves the stream where it did."""
    for seed in range(400):
        dim, pieces = 1 + seed % 8, 1 + (seed * 7) % 12
        a, b = np.random.default_rng(seed), np.random.default_rng(seed)
        f, want = gen_max_affine(dim, pieces, a), _reference_gen_max_affine(dim, pieces, b)
        assert f.matrix.tobytes() == want.matrix.tobytes() and f.matrix.shape == (pieces, dim)
        assert f.offsets.tobytes() == want.offsets.tobytes()
        assert a.uniform() == b.uniform()


def test_slice_directions_match_one_at_a_time_draws():
    """The stacked directions are the reference loop's, byte for byte, and leave the stream where it did."""
    for seed in range(400):
        rng = np.random.default_rng(seed)
        n = 2 + seed % 7
        basis = kernel(rng.uniform(-1.0, 1.0, (int(rng.integers(1, n)), n))).basis
        a, b = np.random.default_rng(seed + 1000), np.random.default_rng(seed + 1000)
        V, want = harness._slice_directions(basis, a), _reference_directions(basis, b)
        assert V.shape == want.shape == (5, n) and V.tobytes() == want.tobytes()
        assert a.uniform() == b.uniform()


class _Rows:
    """A stand-in generator that hands out fixed rows in order, as one block or as one row a call."""

    def __init__(self, rows):
        self.rows, self.drawn = rows, 0

    def uniform(self, low, high, size):
        count = size[0] if isinstance(size, tuple) else 1
        block = self.rows[self.drawn : self.drawn + count]
        self.drawn += count
        return block.copy() if isinstance(size, tuple) else block[0].copy()


def test_slice_directions_redraw_zero_rows_after_the_block():
    """A zero row is dropped and its replacement drawn after the block; kept rows stay in draw order."""
    basis = kernel(np.array([[1.0, 2.0, -1.0]])).basis
    rows = np.random.default_rng(5).uniform(-1.0, 1.0, (8, 2))
    rows[[1, 3, 5]] = 0.0  # two zeros in the first block of 5, one in the block of 2 that replaces them
    stub, ref = _Rows(rows), _Rows(rows)
    V = harness._slice_directions(basis, stub)
    assert V.tobytes() == _reference_directions(basis, ref).tobytes()
    assert stub.drawn == ref.drawn == 8
    kept = rows[[0, 2, 4, 6, 7]] @ basis
    assert_allclose(V, kept / np.linalg.norm(kept, axis=1, keepdims=True), rtol=1e-15, atol=1e-15)


def _reference_gen_flat_max_affine(dim, pieces, rng):
    """The per-piece draw loop gen_flat_max_affine replaced, kept as the bit-exact reference."""
    rows = [(np.zeros(dim), 0.0)]
    for _ in range(pieces):
        rows.append((rng.uniform(-2.0, 2.0, dim), float(rng.uniform(-3.0, -1.0))))
    return max_affine(rows)


def _reference_gen_coercive_max_affine(dim, pieces, rng):
    """gen_coercive_max_affine's body before the box rows had one writer, kept as the bit-exact reference."""
    f = _reference_gen_max_affine(dim, pieces, rng)
    e = 2.0 * np.eye(dim)
    bounds = np.stack([e, -e], axis=1).reshape(2 * dim, dim)
    return MaxAffine(np.vstack([f.matrix, bounds]), np.concatenate([f.offsets, np.full(2 * dim, -2.0)]))


def _reference_gen_pd_quadratic(dim, rng):
    """gen_pd_quadratic's body before the A^T A + sI draw had one writer, kept as the bit-exact reference."""
    A = rng.uniform(-1.0, 1.0, (dim, dim))
    return quadratic(A.T @ A + 0.1 * np.eye(dim), c=rng.uniform(-1.0, 1.0, dim), r0=float(rng.uniform(-1.0, 1.0)))


def _reference_oracle_instance(rng, pwl=True):
    """The oracle's instance with its per-piece and per-coordinate box-row loops and its own quadratic draw, kept as the bit-exact reference."""
    k = int(rng.integers(1, 3))
    d = k + int(rng.integers(1, 3))
    rank = d - k
    n = rank + int(rng.integers(0, 2))
    S = gen_operator(d, n, rank, rng)
    if not pwl:
        A = rng.uniform(-1.0, 1.0, (d, d))
        return quadratic(A.T @ A + 0.5 * np.eye(d), c=rng.uniform(-0.2, 0.2, d), r0=float(rng.uniform(-0.5, 0.5))), S
    rows = [(rng.uniform(-0.3, 0.3, d), float(rng.uniform(-0.5, 0.5))) for _ in range(int(rng.integers(2, 6)))]
    for j in range(d):
        e = np.zeros(d)
        e[j] = 1.0
        rows.append((e.copy(), -0.5))
        rows.append((-e, -0.5))
    return max_affine(rows), S


def test_piece_draws_match_per_piece_loops():
    """Every max-affine family drawn as one block gives the per-piece loops' arrays byte for byte, -0.0 included, and leaves the stream where they did."""
    negative_zeros = 0
    for seed in range(400):
        dim, pieces = 1 + seed % 8, 1 + (seed * 7) % 12
        draws = [
            (lambda rng: gen_flat_max_affine(dim, pieces, rng), lambda rng: _reference_gen_flat_max_affine(dim, pieces, rng)),
            (lambda rng: gen_coercive_max_affine(dim, pieces, rng), lambda rng: _reference_gen_coercive_max_affine(dim, pieces, rng)),
            (lambda rng: harness._oracle_instance(rng, True)[0], lambda rng: _reference_oracle_instance(rng)[0]),
        ]
        for draw, reference in draws:
            a, b = np.random.default_rng(seed), np.random.default_rng(seed)
            f, want = draw(a), reference(b)
            assert f.matrix.shape == want.matrix.shape and f.matrix.tobytes() == want.matrix.tobytes()
            assert f.offsets.tobytes() == want.offsets.tobytes()
            assert a.bit_generator.state == b.bit_generator.state
            negative_zeros += int(np.sum(np.signbit(f.matrix) & (f.matrix == 0.0)))
        a, b = np.random.default_rng(seed), np.random.default_rng(seed)
        assert harness._oracle_instance(a, True)[1].tobytes() == _reference_oracle_instance(b)[1].tobytes()
    assert negative_zeros > 0  # the -e_j box rows


def test_pd_quadratic_draws_match_their_old_bodies():
    """gen_pd_quadratic and the oracle's quadratic, now one A^T A + sI writer, give the old Q, c and r0 byte for byte
    and leave the stream where the old bodies did."""
    for seed in range(400):
        dim = 1 + seed % 8
        draws = [
            (lambda rng: (gen_pd_quadratic(dim, rng), None), lambda rng: (_reference_gen_pd_quadratic(dim, rng), None)),
            (lambda rng: harness._oracle_instance(rng, False), lambda rng: _reference_oracle_instance(rng, False)),
        ]
        for draw, reference in draws:
            a, b = np.random.default_rng(seed), np.random.default_rng(seed)
            (f, S), (want, want_S) = draw(a), reference(b)
            assert f.Q.shape == want.Q.shape and f.Q.tobytes() == want.Q.tobytes()
            assert f.c.tobytes() == want.c.tobytes() and np.float64(f.r0).tobytes() == np.float64(want.r0).tobytes()
            assert (S is None and want_S is None) or S.tobytes() == want_S.tobytes()
            assert a.bit_generator.state == b.bit_generator.state

# --- the streamed grid oracle against the meshgrid search it replaced ---------------


def _reference_brute_force(f, S, x, pitch, radius):
    """brute_force_min_over_fiber's whole-meshgrid search, kept as the bit-exact reference."""
    fiber = restriction.make_fiber(np.asarray(S, dtype=float).T, x)
    axis = np.arange(-radius, radius + 0.5 * pitch, pitch)
    mesh = np.meshgrid(*([axis] * fiber.fiber_dim), indexing="ij")
    W = np.stack([m.ravel() for m in mesh], axis=1)
    best_value = np.inf
    best_point = fiber.anchor
    chunk = 200000
    for start in range(0, W.shape[0], chunk):
        pts = fiber.anchor + W[start : start + chunk] @ fiber.kernel_basis.basis
        vals = evaluate_many(f, pts)
        i = int(np.argmin(vals))
        if vals[i] < best_value:
            best_value = float(vals[i])
            best_point = pts[i]
    return best_value, best_point


def _whole_axis_brute_force(f, S, x, pitch, radius):
    """brute_force_min_over_fiber's streamed search over a whole np.arange axis, kept as the bit-exact reference."""
    fiber = restriction.make_fiber(np.asarray(S, dtype=float).T, x)
    k = fiber.fiber_dim
    axis = np.arange(-radius, radius + 0.5 * pitch, pitch)
    best_value, best_point = np.inf, fiber.anchor
    for start in range(0, axis.size**k, 200000):
        flat = np.arange(start, min(start + 200000, axis.size**k))
        pts = fiber.anchor + axis[np.stack(np.unravel_index(flat, axis.shape * k), axis=1)] @ fiber.kernel_basis.basis
        vals = evaluate_many(f, pts)
        i = int(np.argmin(vals))
        if vals[i] < best_value:
            best_value, best_point = float(vals[i]), pts[i]
    return best_value, best_point


def test_fill_rule_axis_matches_the_whole_axis():
    """np.arange's fill rule, -radius + i * ((-radius + pitch) - -radius), gives its axis byte for byte,
    and the search on it gives the whole-axis search's value and point, across chunk seams for k = 1 to 3."""
    rng = np.random.default_rng(31)
    for case in range(2000):
        radius = float(10.0 ** rng.uniform(-3.0, 3.0))
        pitch = radius * float(10.0 ** rng.uniform(-3.0, 0.5)) if case % 2 else 2.0 * radius / (int(rng.integers(1, 2000)) - 0.5)
        axis = np.arange(-radius, radius + 0.5 * pitch, pitch)
        assert (-radius + np.arange(axis.size) * ((-radius + pitch) - -radius)).tobytes() == axis.tobytes()
    for k, steps in [(1, 450001), (1, 1999), (2, 701), (3, 63)]:
        S = np.ones((k + 1, 1))  # the fiber r_1 + ... + r_(k+1) = 0.3 has dimension k
        f = quadratic(np.diag(rng.uniform(0.5, 2.0, k + 1)), c=rng.uniform(-1.0, 1.0, k + 1))
        radius = float(rng.uniform(0.5, 3.0))
        pitch = 2.0 * radius / (steps - float(rng.uniform(0.0, 1.0)))
        got, want = brute_force_min_over_fiber(f, S, [0.3], pitch, radius), _whole_axis_brute_force(f, S, [0.3], pitch, radius)
        assert np.float64(got[0]).tobytes() == np.float64(want[0]).tobytes() and got[1].tobytes() == want[1].tobytes()


def test_streamed_grid_matches_the_meshgrid_search():
    """Value and point equal the meshgrid search's bit for bit for k = 1 to 3, across chunk seams and at integer quotients."""
    rng = np.random.default_rng(23)
    integral = 0
    for case in range(48):
        k = 1 + case % 3
        d = k + int(rng.integers(1, 3))
        rank = d - k
        S = gen_operator(d, rank + int(rng.integers(0, 2)), rank, rng)
        x = S.T @ rng.uniform(-0.2, 0.2, d)
        family = case // 3 % 3  # the flat max-affine is 0 at many nodes near the origin, where the first in grid order wins
        if family == 0:
            f = gen_coercive_max_affine(d, 3, rng)
        elif family == 1:
            f = gen_pd_quadratic(d, rng)
        else:
            f = gen_flat_max_affine(d, 3, rng)
        radius = float(rng.uniform(0.5, 3.0))
        steps = (250001, 501, 64)[k - 1] if case < 3 else int(rng.integers(2, (2000, 120, 25)[k - 1]))  # seams first
        pitch = 2.0 * radius / (steps - (0.5 if case % 4 < 2 else float(rng.uniform(0.0, 1.0))))
        integral += ((radius + 0.5 * pitch + radius) / pitch).is_integer()
        value, point = brute_force_min_over_fiber(f, S, x, pitch, radius)
        want_value, want_point = _reference_brute_force(f, S, x, pitch, radius)
        assert np.float64(value).tobytes() == np.float64(want_value).tobytes()
        assert point.tobytes() == want_point.tobytes()
    assert integral >= 5


def test_grid_count_is_the_arange_length(monkeypatch):
    """The count taken before any array is built is len(np.arange(-radius, radius + pitch / 2, pitch)), integer quotients included."""
    monkeypatch.setattr(harness, "GRID_POINT_CAP", 0)  # refuse every grid, naming its count
    S, f = np.array([[1.0], [1.0]]), quadratic(np.eye(2))  # a one-dimensional fiber: the count is the axis length
    rng = np.random.default_rng(29)
    integral = 0
    for case in range(1000):
        radius = float(10.0 ** rng.uniform(-3.0, 3.0))
        steps = int(rng.integers(1, 10**5))
        pitch = 2.0 * radius / (steps - (0.5 if case % 2 else float(rng.uniform(0.0, 1.0))))
        integral += ((radius + 0.5 * pitch + radius) / pitch).is_integer()
        length = len(np.arange(-radius, radius + 0.5 * pitch, pitch))
        with pytest.raises(FiberTooLarge, match=f"^grid would hold {length} points, the cap is 0$"):
            brute_force_min_over_fiber(f, S, [2.0], pitch, radius)
    assert integral >= 100


def test_grid_memory_is_bounded():
    """A refused grid allocates nothing of its size, and legal 9.9e6-point grids, k = 3 and k = 1, hold one chunk at a time."""
    tracemalloc.start()
    try:
        with pytest.raises(FiberTooLarge, match="^grid would hold 10000001 points"):
            brute_force_min_over_fiber(quadratic(np.eye(2)), np.ones((2, 1)), [1.0], 1e-6, 5.0)
        _, refused = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        value, point = brute_force_min_over_fiber(quadratic(np.eye(4)), np.ones((4, 1)), [1.0], 10 / 214, 5.0)
        _, streamed = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        line_value, _ = brute_force_min_over_fiber(quadratic(np.eye(2)), np.ones((2, 1)), [1.0], 10 / 9999998.5, 5.0)
        _, line = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert refused < 2**20  # the whole-meshgrid search built the 76 MiB axis first
    assert streamed < 64 * 2**20  # the whole-meshgrid search peaked at 481 MiB
    assert line < 32 * 2**20  # a 9,999,999-point k = 1 grid: the whole axis alone was 76 MiB, the peak about 93 MiB
    assert_allclose(line_value, 0.5, atol=1e-12)
    assert_allclose(value, 0.25, atol=1e-12)
    assert_allclose(point, np.full(4, 0.25), atol=1e-12)
