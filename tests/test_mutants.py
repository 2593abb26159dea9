"""The mutant catalogue: how many default trials each known wrong library catches.

Each entry of MUTANTS breaks one binding site, the one its suite reaches the
library through, and runs that suite at the defaults (100 trials, dimension
up to 6, seed 42).  At least ``least`` of its trials must fail a check other
than ``no_error``: a mutant that only raises is broken, not caught.  A mutant that
no check catches yet is an expected survivor: ``xfail(strict=True)`` with the
roadmap item that closes it, so the change that closes it must turn it into a
plain entry.  The lemma2 mutants stand in for ``marginal.marginal_values``,
which asks every lemma2 query, and keep its (values, argmins, status)
contract.  Criterion 7's two mutants stay in
``tests/test_acceptance.py::test_criterion_7_mutation_sensitivity``.

Two equivalent mutants of the simplex are left out, because no output can
tell them from the library: both change only the sign of zeros.
- Skipping the zero-coefficient mask in ``simplex._set_objective``.
- Updating the objective before the row subtraction.
"""

import dataclasses

import numpy as np
import pytest

from convexkit import argmin, functions, marginal, restriction
from convexkit.harness import RunConfig, run_suite
from convexkit.linalg import as_matrix, kernel


def unprojected(original):
    """restricted_subdifferential returning the ambient ∂f, not its projection onto ker S."""

    def mutant(g, w, active_tol=functions.ACTIVE_TOL):
        return functions.subdifferential(g.f, restriction.embed(g.fiber, w), active_tol)

    return mutant


def fiber_anchor(original):
    """marginal_values answering each query with the min-norm point of its fiber and f there."""

    def mutant(h, X):
        X = as_matrix(X)
        R = np.ascontiguousarray(np.linalg.lstsq(h.S.T, X.T, rcond=None)[0].T)
        return functions.evaluate_many(h.f, R), R, "exact-KKT"

    return mutant


def raised_minimum(original):
    """minimize_over reporting its minimum 0.5 too high."""

    def mutant(f, C):
        cert = original(f, C)
        return dataclasses.replace(cert, value=cert.value + 0.5)

    return mutant


def kernel_shift(original):
    """marginal_values moving every argmin by the first basis vector of ker S^T, its value recomputed."""

    def mutant(h, X):
        values, R, status = original(h, X)
        K = kernel(h.S.T)
        if not K.dim:
            return values, R, status
        R = R + K.basis[0]
        return functions.evaluate_many(h.f, R), R, status

    return mutant


def survivor(item):
    return pytest.mark.xfail(strict=True, reason=f"no default check catches it until roadmap item {item}")


MUTANTS = [
    pytest.param(restriction, "restricted_subdifferential", unprojected, "lemma1", 95, marks=survivor(2), id="unprojected"),
    # 88 of the 100 default trials have a fiber of positive dimension; on a point fiber the anchor is the minimizer
    pytest.param(marginal, "marginal_values", fiber_anchor, "lemma2", 88, marks=survivor(1), id="fiber-anchor"),
    pytest.param(argmin, "minimize_over", raised_minimum, "lemma3", 95, marks=survivor(1), id="raised-minimum"),
    # caught on the LP path only: on the KKT path the shifted argmin is affine in x
    pytest.param(marginal, "marginal_values", kernel_shift, "lemma2", 32, id="kernel-shift"),
]


@pytest.mark.parametrize("module, name, mutate, suite, least", MUTANTS)
def test_default_trials_catch_mutant(monkeypatch, module, name, mutate, suite, least):
    monkeypatch.setattr(module, name, mutate(getattr(module, name)))
    report = run_suite(suite, RunConfig())
    failed = sum(any(not c.passed and c.name != "no_error" for c in trial.checks) for trial in report.trials)
    assert failed >= least, f"{failed}/{len(report.trials)} default {suite} trials fail"
