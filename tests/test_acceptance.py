"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the lines.  Suite runs
are shared through module-scoped fixtures so the gate stays fast.
"""

import hashlib
import json
import time

import numpy as np
import pytest

from convexkit import marginal, restriction
from convexkit.cli import main, parse_args
from convexkit.functions import evaluate
from convexkit.harness import RunConfig, run_suite
from convexkit.marginal import MinimizationWitness
from convexkit.report import report_to_json
from convexkit.restriction import make_fiber


@pytest.fixture
def verdict(capsys):
    """One uncaptured pass/fail line per criterion, then the assertion."""

    def _print(number: int, label: str, ok: bool) -> None:
        with capsys.disabled():
            print(f"ACCEPTANCE {number} {label}: {'PASS' if ok else 'FAIL'}", flush=True)
        assert ok, f"acceptance criterion {number} failed: {label}"

    return _print


def _checks(report, name):
    for trial in report.trials:
        for check in trial.checks:
            if check.name == name or check.name.startswith(name):
                yield trial, check


@pytest.fixture(scope="module")
def lemma1_run():
    start = time.perf_counter()
    report = run_suite("lemma1", RunConfig(trials=100, dim=6, seed=42))
    return report, time.perf_counter() - start


@pytest.fixture(scope="module")
def lemma2_run():
    start = time.perf_counter()
    report = run_suite("lemma2", RunConfig(trials=200, dim=6, seed=42))
    return report, time.perf_counter() - start


@pytest.fixture(scope="module")
def oracle_run():
    start = time.perf_counter()
    report = run_suite(
        "lemma2", RunConfig(trials=25, seed=42, oracle_pitch=1e-2)
    )
    return report, time.perf_counter() - start


@pytest.fixture(scope="module")
def lemma3_run():
    start = time.perf_counter()
    report = run_suite("lemma3", RunConfig(trials=100, dim=6, seed=42))
    return report, time.perf_counter() - start


def test_criterion_1_slice_intervals(lemma1_run, verdict):
    report, elapsed = lemma1_run
    slices = list(_checks(report, "slice_interval"))
    ok = (
        len(report.trials) == 100
        and all(t.status == "pass" for t in report.trials)
        and len(slices) >= 500
        and all(c.passed and c.gap <= 1e-7 for _, c in slices)
        and elapsed < 10.0
    )
    verdict(1, f"lemma1 slice intervals on 100 trials in {elapsed:.2f}s", ok)


def test_criterion_2_restricted_convexity(lemma1_run, verdict):
    report, _ = lemma1_run
    mids = list(_checks(report, "restricted_midpoint_convexity"))
    ok = len(mids) == 100 and all(c.passed and c.gap >= -1e-9 for _, c in mids)
    verdict(2, "lemma1 restricted midpoint convexity, slack 1e-9", ok)


def test_criterion_3_marginal_convexity(lemma2_run, verdict):
    report, elapsed = lemma2_run
    families = {"max_affine": 0, "quadratic": 0}
    for trial in report.trials:
        families[trial.instance["marginal"]["f"]["type"]] += 1
    mids = list(_checks(report, "midpoint_convexity"))
    ok = (
        families == {"max_affine": 100, "quadratic": 100}
        and len(mids) == 200
        and all(c.passed and c.gap >= -1e-8 for _, c in mids)
        and all(t.status == "pass" for t in report.trials)
        and elapsed < 5.0
    )
    verdict(3, f"lemma2 midpoint convexity, 100 trials per family in {elapsed:.2f}s", ok)


def test_criterion_4_marginal_strictness(lemma2_run, verdict):
    report, _ = lemma2_run
    strict = list(_checks(report, "strict_convexity"))
    ok = (
        len(strict) == 100
        and all(c.passed for _, c in strict)
        and all(c.gap is not None and c.gap >= 1e-8 for _, c in strict)
    )
    verdict(4, "lemma2 strict gaps >= 1e-8 on 100 PD-quadratic trials", ok)


# sha256 of the criterion-5 report and of the default ``convexkit verify`` report;
# a change that alters either must explain every changed byte
ORACLE_REPORT_SHA256 = "e21ffe61d65a18332fe7b43c5974cfd58e9864e5f2cb2883bf5b5b1d6c01ac1c"
DEFAULT_REPORT_SHA256 = "86565b5d18699239894f67d2796573554f54e203a31db189bdfe29dbac656670"


def test_criterion_5_oracle_equivalence(oracle_run, verdict):
    report, elapsed = oracle_run
    oracle = list(_checks(report, "oracle_agreement"))
    ok = (
        len(oracle) == 25
        and all(c.passed and c.gap <= 1e-2 for _, c in oracle)
        and elapsed < 30.0
        and hashlib.sha256(report_to_json(report).encode()).hexdigest() == ORACLE_REPORT_SHA256
    )
    verdict(5, f"lemma2 grid oracle agreement on 25 trials in {elapsed:.2f}s", ok)


def test_criterion_6_argmin_segments(lemma3_run, verdict):
    report, elapsed = lemma3_run
    non_skipped = [t for t in report.trials if t.status != "skip"]
    segments = list(_checks(report, "segment_membership"))
    ok = (
        len(report.trials) == 100
        and report.summary["fail"] == 0
        and len(non_skipped) >= 30
        and len(segments) == len(non_skipped)
        and all(c.passed and c.gap <= 1e-5 for _, c in segments)
        and all(t.skip_reason == "SkippedDegenerate" for t in report.trials if t.status == "skip")
        and elapsed < 10.0
    )
    verdict(6, f"lemma3 segments on 100 trials ({len(non_skipped)} non-skipped) in {elapsed:.2f}s", ok)


def test_criterion_7_mutation_sensitivity(monkeypatch, verdict, rowspace_version):
    with monkeypatch.context() as patch:
        patch.setattr(restriction, "restricted_subdifferential", rowspace_version)
        mutated = run_suite("lemma1", RunConfig(trials=100, dim=6, seed=42))
    lemma1_fails = sum(
        1
        for t in mutated.trials
        if any(c.name.startswith("slice_interval_") and not c.passed for c in t.checks)
    )

    def anchor_witness(h, x, **kwargs):
        fiber = make_fiber(h.S.T, np.asarray(x, dtype=float))
        return MinimizationWitness(
            float(evaluate(h.f, fiber.anchor)), fiber.anchor, "exact-KKT"
        )

    with monkeypatch.context() as patch:
        patch.setattr(marginal, "marginal_value", anchor_witness)
        mutated = run_suite(
            "lemma2", RunConfig(trials=25, seed=42, oracle_pitch=1e-2)
        )
    oracle_fails = sum(
        1
        for t in mutated.trials
        if any(c.name == "oracle_agreement" and not c.passed for c in t.checks)
    )
    ok = lemma1_fails >= 95 and oracle_fails >= 20
    verdict(
        7,
        f"mutants caught (projection {lemma1_fails}/100, witness {oracle_fails}/25)",
        ok,
    )


def test_criterion_8_reproducible_reports(tmp_path, capsys, verdict):
    paths = [tmp_path / "first.json", tmp_path / "second.json"]
    codes = [main(parse_args(["verify", "--out", str(p)])) for p in paths]
    capsys.readouterr()
    first, second = (p.read_bytes() for p in paths)
    ok = (
        first == second
        and codes[0] == codes[1] == 0
        and json.loads(first)["suite"] == "all"
        and hashlib.sha256(first).hexdigest() == DEFAULT_REPORT_SHA256
    )
    verdict(8, "default CLI reruns byte-identical, with the pinned digest", ok)
