"""Randomized verification suites with reproducible seeding.

Every random draw descends from a SeedSequence keyed by (suite stream, trial
index), so reports are byte-identical across runs and any single trial can be
regenerated without replaying the ones before it.

The lemma2 suite optionally cross-checks the exact inner solvers against a
brute-force grid search over low-dimensional fibers.  Oracle-mode instances
are generated with gentle slopes and well-conditioned operators so that the
grid bound (local slope times half the grid pitch) stays safely inside the
agreement tolerance; the check calls marginal_value through the module
attribute, which keeps it honest against patched-in wrong implementations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import argmin, marginal, restriction
from . import functions as fn
from .errors import FiberTooLarge, SolverFailure
from .linalg import row_norms
from .report import CheckResult, SuiteReport, TrialResult
from .restriction import make_fiber

SUITE_STREAMS = {"lemma1": 1, "lemma2": 2, "lemma3": 3}
GRID_POINT_CAP = int(1e7)
ORACLE_AGREEMENT_TOL = 1e-2
ORACLE_RADIUS = 5.0
OPERATOR_DRAWS = 100


def trial_rng(seed: int, stream: int, index: int) -> np.random.Generator:
    return np.random.default_rng(
        np.random.SeedSequence(entropy=int(seed), spawn_key=(int(stream), int(index)))
    )


def _trial_seed(seed: int, stream: int, index: int) -> int:
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=(int(stream), int(index), 999))
    return int(ss.generate_state(1)[0])


def gen_max_affine(dim: int, pieces: int, rng: np.random.Generator) -> fn.MaxAffine:
    """Random pieces with coefficients and offsets in [-2, 2].

    One (pieces, dim + 1) block, each row a piece's gradient then its offset:
    the same stream and the same doubles as drawing each piece's gradient and
    then its offset in turn.
    """
    block = rng.uniform(-2.0, 2.0, (pieces, dim + 1))
    return fn.MaxAffine(block[:, :dim], block[:, dim])


def gen_coercive_max_affine(dim: int, pieces: int, rng: np.random.Generator) -> fn.MaxAffine:
    """Random pieces plus the bounds 2 |r_j| - 2, which force attainment.

    The bounds alone give f >= 2 max_j |r_j| - 2, a coercive minorant, so the
    function grows along every ray and inner minima over fibers always exist.
    """
    f = gen_max_affine(dim, pieces, rng)
    e = 2.0 * np.eye(dim)
    bounds = np.stack([e, -e], axis=1).reshape(2 * dim, dim)  # the rows 2 e_j and -2 e_j, j in order
    return fn.MaxAffine(np.vstack([f.matrix, bounds]), np.concatenate([f.offsets, np.full(2 * dim, -2.0)]))


def gen_flat_max_affine(dim: int, pieces: int, rng: np.random.Generator) -> fn.MaxAffine:
    """max(0, affine pieces that are negative near the origin).

    The zero piece wins on a neighborhood of the origin, so the argmin set
    over a box has interior and segment checks get distinct members.
    """
    rows = [(np.zeros(dim), 0.0)]
    for _ in range(pieces):
        rows.append((rng.uniform(-2.0, 2.0, dim), float(rng.uniform(-3.0, -1.0))))
    return fn.max_affine(rows)


def gen_pd_quadratic(dim: int, rng: np.random.Generator) -> fn.Quadratic:
    """A^T A + 0.1 I keeps the spectrum off the floor, so f is strictly convex."""
    A = rng.uniform(-1.0, 1.0, (dim, dim))
    return fn.quadratic(
        A.T @ A + 0.1 * np.eye(dim),
        c=rng.uniform(-1.0, 1.0, dim),
        r0=float(rng.uniform(-1.0, 1.0)),
    )


def gen_operator(rows: int, cols: int, rank: int, rng: np.random.Generator) -> np.ndarray:
    """Random matrix of exact numerical rank, redrawn until well conditioned.

    Raises SolverFailure when OPERATOR_DRAWS draws give no well conditioned
    matrix.
    """
    if rank > min(rows, cols) or rank < 0:
        raise ValueError(f"rank {rank} impossible for a {rows} x {cols} matrix")
    if rank == 0:
        return np.zeros((rows, cols))
    for _ in range(OPERATOR_DRAWS):
        S = rng.uniform(-1.0, 1.0, (rows, rank)) @ rng.uniform(-1.0, 1.0, (rank, cols))
        sv = np.linalg.svd(S, compute_uv=False)
        if sv[rank - 1] > 1e-3 * sv[0] and (rank == min(rows, cols) or sv[rank] < 1e-10 * sv[0]):
            return S
    raise SolverFailure(
        f"no well conditioned {rows} x {cols} operator of rank {rank} in {OPERATOR_DRAWS} draws"
    )


def brute_force_min_over_fiber(f, S, x, pitch: float, radius: float):
    """Grid search of f over {r : S^T r = x} in fiber coordinates.

    The grid covers [-radius, radius]^k around the min-norm anchor, where k is
    the fiber dimension.  Only k <= 3 and at most 1e7 grid points are allowed;
    larger fibers raise FiberTooLarge.
    """
    S = np.asarray(S, dtype=float)
    fiber = make_fiber(S.T, x)
    k = fiber.fiber_dim
    if k == 0:
        return float(fn.evaluate(f, fiber.anchor)), fiber.anchor
    if k > 3:
        raise FiberTooLarge(f"fiber dimension {k} exceeds the brute-force limit of 3")
    axis = np.arange(-radius, radius + 0.5 * pitch, pitch)
    if len(axis) ** k > GRID_POINT_CAP:
        raise FiberTooLarge(
            f"grid would hold {len(axis) ** k} points, the cap is {GRID_POINT_CAP}"
        )
    mesh = np.meshgrid(*([axis] * k), indexing="ij")
    W = np.stack([m.ravel() for m in mesh], axis=1)
    best_value = np.inf
    best_point = fiber.anchor
    chunk = 200000
    for start in range(0, W.shape[0], chunk):
        pts = fiber.anchor + W[start : start + chunk] @ fiber.kernel_basis.basis
        vals = fn.evaluate_many(f, pts)
        i = int(np.argmin(vals))
        if vals[i] < best_value:
            best_value = float(vals[i])
            best_point = pts[i]
    return best_value, best_point


@dataclass
class RunConfig:
    trials: int = 100
    dim: int = 6
    seed: int = 42
    tol_active: float = fn.ACTIVE_TOL
    tol_support: float = restriction.SUPPORT_TOL
    tol_membership: float = argmin.DEFAULT_MEMBERSHIP_TOL
    oracle_pitch: float | None = None


def _slice_directions(basis: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Five unit directions in the row span of ``basis``, mapped from uniform coordinates.

    Each round draws the missing directions as one block and maps it with one
    stacked product, whose rows equal their one-row products bit for bit; rows
    of norm at most 1e-9 are dropped and redrawn in the next round, so the
    kept rows are those of drawing one direction at a time, in draw order.
    """
    directions = np.empty((0, basis.shape[1]))
    while len(directions) < 5:
        U = rng.uniform(-1.0, 1.0, (5 - len(directions), basis.shape[0]))
        V = (basis.T @ U[:, :, None])[:, :, 0]
        norms = row_norms(V)
        keep = norms > 1e-9
        directions = np.vstack([directions, V[keep] / norms[keep, None]])
    return directions


def _lemma1_trial(index: int, config: RunConfig) -> TrialResult:
    rng = trial_rng(config.seed, SUITE_STREAMS["lemma1"], index)
    dim = int(rng.integers(2, max(3, config.dim + 1)))
    rows = int(rng.integers(1, dim))
    S = gen_operator(rows, dim, rows, rng)
    zeta = S @ rng.uniform(-1.0, 1.0, dim)
    fiber = make_fiber(S, zeta)
    w = rng.uniform(-1.0, 1.0, fiber.fiber_dim)
    directions = _slice_directions(fiber.kernel_basis.basis, rng)
    f = gen_max_affine(dim, int(rng.integers(3, 13)), rng)
    return restriction.lemma1_check(
        restriction.RestrictedFunction(f, fiber),
        w,
        directions,
        seed=_trial_seed(config.seed, SUITE_STREAMS["lemma1"], index),
        support_tol=config.tol_support,
        active_tol=config.tol_active,
    )


def _oracle_instance(rng, pwl: bool):
    """Gentle-slope instance whose fiber argmin provably sits inside the grid.

    Slopes are at most 1 everywhere, so the grid bound (slope times half the
    pitch times sqrt(k)) stays an order of magnitude inside the agreement
    tolerance for the default pitch of 1e-2.
    """
    k = int(rng.integers(1, 3))
    d = k + int(rng.integers(1, 3))
    rank = d - k
    n = rank + int(rng.integers(0, 2))
    S = gen_operator(d, n, rank, rng)
    if pwl:
        rows = [
            (rng.uniform(-0.3, 0.3, d), float(rng.uniform(-0.5, 0.5)))
            for _ in range(int(rng.integers(2, 6)))
        ]
        for j in range(d):
            e = np.zeros(d)
            e[j] = 1.0
            rows.append((e.copy(), -0.5))
            rows.append((-e, -0.5))
        f = fn.max_affine(rows)
    else:
        A = rng.uniform(-1.0, 1.0, (d, d))
        f = fn.quadratic(
            A.T @ A + 0.5 * np.eye(d),
            c=rng.uniform(-0.2, 0.2, d),
            r0=float(rng.uniform(-0.5, 0.5)),
        )
    return f, S


def _lemma2_trial(index: int, config: RunConfig) -> TrialResult:
    rng = trial_rng(config.seed, SUITE_STREAMS["lemma2"], index)
    pwl = index % 2 == 0
    if config.oracle_pitch is not None:
        f, S = _oracle_instance(rng, pwl)
    else:
        d = int(rng.integers(2, max(3, config.dim + 1)))
        n = int(rng.integers(1, d + 1))
        rank = int(rng.integers(1, min(d, n) + 1))
        S = gen_operator(d, n, rank, rng)
        if pwl:
            f = gen_coercive_max_affine(d, int(rng.integers(2, 7)), rng)
        else:
            f = gen_pd_quadratic(d, rng)
    result = marginal.lemma2_check(
        f,
        S,
        seed=_trial_seed(config.seed, SUITE_STREAMS["lemma2"], index),
    )
    if config.oracle_pitch is not None:
        h = marginal.marginalize(f, S)
        x = S.T @ rng.uniform(-0.5, 0.5, S.shape[0])
        witness = marginal.marginal_value(h, x)
        brute_value, _ = brute_force_min_over_fiber(
            f, S, x, config.oracle_pitch, ORACLE_RADIUS
        )
        gap = abs(witness.value - brute_value)
        result.checks.append(
            CheckResult(
                name="oracle_agreement",
                passed=bool(gap <= ORACLE_AGREEMENT_TOL),
                gap=float(gap),
                witness={"exact": float(witness.value), "grid": float(brute_value)},
            )
        )
    return result


def _lemma3_trial(index: int, config: RunConfig) -> TrialResult:
    rng = trial_rng(config.seed, SUITE_STREAMS["lemma3"], index)
    dim = int(rng.integers(2, max(3, config.dim + 1)))
    radius = float(rng.uniform(2.0, 4.0))
    C = argmin.box_domain(dim, radius)
    if index % 2 == 0:
        f = gen_flat_max_affine(dim, int(rng.integers(2, 7)), rng)
    else:
        f = gen_pd_quadratic(dim, rng)
    return argmin.lemma3_check(
        f,
        C,
        seed=_trial_seed(config.seed, SUITE_STREAMS["lemma3"], index),
        tol=config.tol_membership,
    )


_TRIAL_RUNNERS = {
    "lemma1": _lemma1_trial,
    "lemma2": _lemma2_trial,
    "lemma3": _lemma3_trial,
}


def _tolerances(config: RunConfig) -> dict:
    tols = {
        "active": config.tol_active,
        "support": config.tol_support,
        "membership": config.tol_membership,
    }
    if config.oracle_pitch is not None:
        tols["oracle_pitch"] = config.oracle_pitch
        tols["oracle_agreement"] = ORACLE_AGREEMENT_TOL
    return tols


def run_suite(which: str, config: RunConfig) -> SuiteReport:
    """Run one suite (or 'all') and collect a reproducible report.

    No trial aborts the run: a trial that raises any ``Exception`` becomes a
    failed ``no_error`` check naming the exception's type and message.  The
    traceback is left out, because its file paths would make the report
    depend on the machine.
    """
    if which == "all":
        report = SuiteReport("all", config.seed, _tolerances(config))
        for name in ("lemma1", "lemma2", "lemma3"):
            report.trials += run_suite(name, config).trials
        return report
    if which not in _TRIAL_RUNNERS:
        raise ValueError(f"unknown suite: {which!r}")
    report = SuiteReport(which, config.seed, _tolerances(config))
    runner = _TRIAL_RUNNERS[which]
    for index in range(config.trials):
        try:
            trial = runner(index, config)
        except Exception as exc:
            trial = TrialResult(
                instance={"suite": which, "error": str(exc)},
                checks=[
                    CheckResult(
                        name="no_error",
                        passed=False,
                        witness={"error": f"{type(exc).__name__}: {exc}"},
                    )
                ],
            )
        report.trials.append(trial)
    return report
