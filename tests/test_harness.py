"""Tests for the seeded generators, the grid oracle, and the suite runner."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from convexkit import argmin, cli, harness, marginal, restriction, simplex
from convexkit.errors import FiberTooLarge
from convexkit.functions import evaluate, max_affine, quadratic
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
    monkeypatch.setattr(simplex, "MAX_PIVOTS", 0)  # the max-affine trials' LP
    monkeypatch.setattr(argmin, "QP_MAX_STEPS", 0)  # the quadratic trials' QP
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
    runner = harness._TRIAL_RUNNERS["lemma1"]

    def raising(index, config):
        if index == 2:
            quadratic([[1.0, 2.0], [0.0, 1.0]])  # Quadratic refuses an asymmetric Q
        return runner(index, config)

    monkeypatch.setitem(harness._TRIAL_RUNNERS, "lemma1", raising)
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
