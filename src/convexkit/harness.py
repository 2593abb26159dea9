"""Randomized verification suites with reproducible seeding.

``SUITES`` maps each suite's name to its stream and its trial runner.
``run_suite`` alone seeds a trial: it hands the runner a generator and a check
seed, each from a SeedSequence keyed by (suite stream, trial index), so reports
are byte-identical across runs and any trial can be regenerated without
replaying the ones before it.  A runner draws its instance and calls its
check through the module attribute, so patched-in checks are the ones run.

The lemma2 suite optionally cross-checks the exact inner solvers against a
brute-force grid search over low-dimensional fibers.  Oracle-mode instances
are generated with gentle slopes and well-conditioned operators so that the
grid bound (local slope times half the grid pitch) stays safely inside the
agreement tolerance; the check calls marginal_value through the module
attribute, which keeps it honest against patched-in wrong implementations.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace

import numpy as np

from . import argmin, marginal, restriction
from . import functions as fn
from .errors import FiberTooLarge, SolverFailure
from .linalg import row_norms, rows_dot
from .report import CheckResult, SuiteReport, TrialResult
from .restriction import make_fiber

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


def _piece_block(rng: np.random.Generator, pieces: int, dim: int, slope: float, low: float, high: float):
    """``pieces`` rows drawn as one block: a gradient in [-slope, slope]^dim, then an offset in [low, high].

    numpy's broadcast ``uniform`` gives the doubles of drawing each piece in turn and leaves the stream where they do.
    """
    block = rng.uniform([-slope] * dim + [low], [slope] * dim + [high], (pieces, dim + 1))
    return block[:, :dim], block[:, dim]


def _boxed(matrix: np.ndarray, offsets: np.ndarray, slope: float, offset: float) -> fn.MaxAffine:
    """The pieces, then the box rows slope e_j and -slope e_j for j in order, each with ``offset``."""
    e = slope * np.eye(matrix.shape[1])
    box = np.stack([e, -e], axis=1).reshape(2 * len(e), len(e))
    return fn.MaxAffine(np.vstack([matrix, box]), np.concatenate([offsets, np.full(len(box), offset)]))


def gen_max_affine(dim: int, pieces: int, rng: np.random.Generator) -> fn.MaxAffine:
    """Random pieces with coefficients and offsets in [-2, 2]."""
    return fn.MaxAffine(*_piece_block(rng, pieces, dim, 2.0, -2.0, 2.0))


def gen_coercive_max_affine(dim: int, pieces: int, rng: np.random.Generator) -> fn.MaxAffine:
    """Random pieces plus the bounds 2 |r_j| - 2, which force attainment.

    The bounds alone give f >= 2 max_j |r_j| - 2, a coercive minorant, so the
    function grows along every ray and inner minima over fibers always exist.
    """
    return _boxed(*_piece_block(rng, pieces, dim, 2.0, -2.0, 2.0), 2.0, -2.0)


def gen_flat_max_affine(dim: int, pieces: int, rng: np.random.Generator) -> fn.MaxAffine:
    """max(0, affine pieces that are negative near the origin).

    The zero piece wins on a neighborhood of the origin, so the argmin set
    over a box has interior and segment checks get distinct members.
    """
    matrix, offsets = _piece_block(rng, pieces, dim, 2.0, -3.0, -1.0)
    return fn.MaxAffine(np.vstack([np.zeros((1, dim)), matrix]), np.concatenate([[0.0], offsets]))


def _pd_quadratic(rng: np.random.Generator, dim: int, shift: float, linear: float, constant: float) -> fn.Quadratic:
    """Q = A^T A + shift I with A uniform in [-1, 1], then c in [-linear, linear]^dim and r0 in [-constant, constant]."""
    A = rng.uniform(-1.0, 1.0, (dim, dim))
    Q = A.T @ A + shift * np.eye(dim)
    return fn.quadratic(Q, c=rng.uniform(-linear, linear, dim), r0=float(rng.uniform(-constant, constant)))


def gen_pd_quadratic(dim: int, rng: np.random.Generator) -> fn.Quadratic:
    """A^T A + 0.1 I keeps the spectrum off the floor, so f is strictly convex."""
    return _pd_quadratic(rng, dim, 0.1, 1.0, 1.0)


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
    larger fibers raise FiberTooLarge, and a pitch or radius not finite and positive ValueError.
    The points are counted before any array is built, and no axis or grid is
    built whole: each chunk's rows are the meshgrid(indexing="ij") rows of its
    flat indices, in order, each coordinate by np.arange's own fill rule.
    """
    if not (0.0 < pitch < np.inf and 0.0 < radius < np.inf):  # NaN fails both
        raise ValueError(f"pitch and radius must be finite and positive, got {pitch!r} and {radius!r}")
    S = np.asarray(S, dtype=float)
    fiber = make_fiber(S.T, x)
    k = fiber.fiber_dim
    if k == 0:
        return float(fn.evaluate(f, fiber.anchor)), fiber.anchor
    if k > 3:
        raise FiberTooLarge(f"fiber dimension {k} exceeds the brute-force limit of 3")
    length = (radius + 0.5 * pitch + radius) / pitch  # np.arange's length for the axis below is its ceiling
    count = math.ceil(length) ** k if length < math.inf else math.inf
    if count > GRID_POINT_CAP:
        raise FiberTooLarge(f"grid would hold {count} points, the cap is {GRID_POINT_CAP}")
    delta = (-radius + pitch) - -radius  # np.arange's fill rule: its point i is -radius + i * delta
    best_value, best_point = np.inf, fiber.anchor
    chunk = 200000
    for start in range(0, count, chunk):
        flat = np.arange(start, min(start + chunk, count))
        W = -radius + np.stack(np.unravel_index(flat, (math.ceil(length),) * k), axis=1) * delta
        pts = fiber.anchor + W @ fiber.kernel_basis.basis
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


TOLERANCES = ("tol_active", "tol_support", "tol_membership")  # each a --tol-* flag, a config_error rule and a report key


def _integer(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _real(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def config_error(config: RunConfig) -> tuple[str, str] | None:
    """The first field of ``config`` that no suite can run with, and what it must be; None if there is none.

    ``trials``, ``dim`` and ``seed`` must be integers, each tolerance and a set ``oracle_pitch`` real
    numbers (numpy numbers are, a bool is not); each rule reads its field only once the rules before it hold.
    """
    rules = [
        ("trials", _integer, "must be an integer"),
        ("trials", lambda value: value >= 0, "must be nonnegative"),
        ("dim", _integer, "must be an integer"),
        ("dim", lambda value: value >= 2, "must be at least 2"),
        ("seed", _integer, "must be an integer"),
        ("seed", lambda value: value >= 0, "must be nonnegative"),
        *((name, ok, rule) for name in TOLERANCES for ok, rule in (
            (_real, "must be a real number"), (lambda value: 0.0 <= value < np.inf, "must be finite and nonnegative"))),
        ("oracle_pitch", lambda value: value is None or _real(value), "must be a real number"),
        ("oracle_pitch", lambda value: value is None or 0.0 < value < np.inf, "must be finite and positive"),
    ]
    return next(((name, rule) for name, ok, rule in rules if not ok(getattr(config, name))), None)  # NaN fails every rule


def _slice_directions(basis: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Five unit directions in the row span of ``basis``, mapped from uniform coordinates.

    Each round draws the missing directions as one block and maps it with
    ``rows_dot``, whose rows equal their one-row products bit for bit; rows
    of norm at most 1e-9 are dropped and redrawn in the next round, so the
    kept rows are those of drawing one direction at a time, in draw order.
    """
    directions = np.empty((0, basis.shape[1]))
    while len(directions) < 5:
        U = rng.uniform(-1.0, 1.0, (5 - len(directions), basis.shape[0]))
        V = rows_dot(U, basis.T)
        norms = row_norms(V)
        keep = norms > 1e-9
        directions = np.vstack([directions, V[keep] / norms[keep, None]])
    return directions


def _lemma1_trial(rng: np.random.Generator, seed: int, index: int, config: RunConfig) -> TrialResult:
    dim = int(rng.integers(2, config.dim + 1))
    rows = int(rng.integers(1, dim))
    S = gen_operator(rows, dim, rows, rng)
    zeta = S @ rng.uniform(-1.0, 1.0, dim)
    fiber = make_fiber(S, zeta)
    w = rng.uniform(-1.0, 1.0, fiber.fiber_dim)
    directions = _slice_directions(fiber.kernel_basis.basis, rng)
    f = gen_max_affine(dim, int(rng.integers(3, 13)), rng)
    g = restriction.RestrictedFunction(f, fiber)
    return restriction.lemma1_check(g, w, directions, seed=seed, support_tol=config.tol_support, active_tol=config.tol_active)


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
        f = _boxed(*_piece_block(rng, int(rng.integers(2, 6)), d, 0.3, -0.5, 0.5), 1.0, -0.5)
    else:
        f = _pd_quadratic(rng, d, 0.5, 0.2, 0.5)
    return f, S


def _lemma2_trial(rng: np.random.Generator, seed: int, index: int, config: RunConfig) -> TrialResult:
    pwl = index % 2 == 0
    if config.oracle_pitch is not None:
        f, S = _oracle_instance(rng, pwl)
    else:
        d = int(rng.integers(2, config.dim + 1))
        n = int(rng.integers(1, d + 1))
        rank = int(rng.integers(1, min(d, n) + 1))
        S = gen_operator(d, n, rank, rng)
        if pwl:
            f = gen_coercive_max_affine(d, int(rng.integers(2, 7)), rng)
        else:
            f = gen_pd_quadratic(d, rng)
    result = marginal.lemma2_check(f, S, seed=seed)
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


def _lemma3_trial(rng: np.random.Generator, seed: int, index: int, config: RunConfig) -> TrialResult:
    dim = int(rng.integers(2, config.dim + 1))
    radius = float(rng.uniform(2.0, 4.0))
    C = argmin.box_domain(dim, radius)
    if index % 2 == 0:
        f = gen_flat_max_affine(dim, int(rng.integers(2, 7)), rng)
    else:
        f = gen_pd_quadratic(dim, rng)
    return argmin.lemma3_check(f, C, seed=seed, tol=config.tol_membership)


SUITES = {"lemma1": (1, _lemma1_trial), "lemma2": (2, _lemma2_trial), "lemma3": (3, _lemma3_trial)}  # name: (stream, runner)


def _tolerances(config: RunConfig) -> dict:
    tols = {name.removeprefix("tol_"): getattr(config, name) for name in TOLERANCES}
    if config.oracle_pitch is not None:
        tols |= {"oracle_pitch": config.oracle_pitch, "oracle_agreement": ORACLE_AGREEMENT_TOL}
    return tols


def run_suite(which: str, config: RunConfig) -> SuiteReport:
    """Run one suite of ``SUITES``, or 'all' of them in table order, and collect a reproducible report.

    This is the one place that seeds a trial: each runner gets its
    ``trial_rng`` generator and its ``_trial_seed`` check seed.  No trial
    aborts the run: a trial that raises any ``Exception`` becomes a failed
    ``no_error`` check naming the exception's type and message.  The
    traceback is left out, because its file paths would make the report
    depend on the machine.  A ``config`` with a ``config_error`` raises
    ValueError before any trial.  The trials run with, and the report records,
    ``int(seed)`` and ``float`` of each tolerance and of ``oracle_pitch``, so a
    numpy seed or tolerance writes the bytes of the equal Python value.
    """
    if error := config_error(config):
        raise ValueError(" ".join(error))
    if which != "all" and which not in SUITES:
        raise ValueError(f"unknown suite: {which!r}")
    reals = [name for name in (*TOLERANCES, "oracle_pitch") if getattr(config, name) is not None]
    config = replace(config, seed=int(config.seed), **{name: float(getattr(config, name)) for name in reals})
    report = SuiteReport(which, config.seed, _tolerances(config))
    for name in SUITES if which == "all" else [which]:
        stream, runner = SUITES[name]
        for index in range(config.trials):
            try:
                trial = runner(trial_rng(config.seed, stream, index), _trial_seed(config.seed, stream, index), index, config)
            except Exception as exc:
                check = CheckResult(name="no_error", passed=False, witness={"error": f"{type(exc).__name__}: {exc}"})
                trial = TrialResult(instance={"suite": name, "error": str(exc)}, checks=[check])
            report.trials.append(trial)
    return report
