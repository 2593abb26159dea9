"""Fixtures shared across the test modules."""

import pytest

from convexkit.functions import ACTIVE_TOL, Polytope, subdifferential
from convexkit.linalg import row_space
from convexkit.restriction import embed


@pytest.fixture
def rowspace_version():
    """The lemma1 mutant: ∂f projected onto the row space of S instead of its kernel.

    It stands in for ``restriction.restricted_subdifferential``; the slice
    interval checks must catch it.
    """

    def mutant(g, w, active_tol=ACTIVE_TOL):
        P = subdifferential(g.f, embed(g.fiber, w), active_tol)
        R = row_space(g.fiber.matrix).basis
        return Polytope(tuple((s @ R.T) @ R for s in P.summands))

    return mutant
