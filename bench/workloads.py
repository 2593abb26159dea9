"""The four benchmark workloads, each run as fixed-size passes.

A pass is a deterministic unit of work named by a pass seed ``q`` in
``range(PASS_SEEDS)``.  Its output digest is recorded in ``digests.json`` (see
``record.py``), so every pass a run makes is checked against the output the
library gave when the digest was recorded.  Passes are short (about 0.2-0.8 s),
so a run holds dozens of them and its timings can be taken over the passes.

* The three verify workloads run ``convexkit verify --suite lemmaN --trials T
  --seed q`` through ``cli.main`` with the argv a user would type; the digest is
  the sha256 of the report file the CLI writes.
* ``query-oneshot`` draws a fresh instance for every query from the
  ``harness.gen_*`` generators, writes it to an instance file and calls
  ``cli._run_query`` on it, as ``convexkit query`` does; the digest is the
  sha256 of the answers as ``json.dumps`` prints them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from convexkit import argmin, cli, functions, harness, instances

from tracing import ITEM_SITES, Tracer, perf

PASS_SEEDS = 256  # a run makes at most this many passes, none twice

# workload -> (suite, trials per pass)
VERIFY = {
    "lemma1-fibers": ("lemma1", 100),
    "lemma2-marginal": ("lemma2", 4),
    "lemma3-argmin": ("lemma3", 3),  # trials 0 and 2 take the LP path, trial 1 the descent
}
QUERY = "query-oneshot"
QUERY_ITEMS = 96  # a multiple of 24, so every pass has the same op and k mix
QUERY_STREAM = 101  # harness.trial_rng stream, apart from the suites' 1..3
QUERY_OPS = ("subdiff", "restricted-subdiff", "marginal", "argmin-member")
ACTIVE_PER_PART = 4
WORKLOADS = (*VERIFY, QUERY)


def pass_seeds(seed: int) -> list[int]:
    """The order in which a run with this seed takes the pass seeds."""
    order = list(range(PASS_SEEDS))
    random.Random(seed).shuffle(order)
    return order


def pass_size(workload: str) -> int:
    return QUERY_ITEMS if workload == QUERY else VERIFY[workload][1]


@dataclass
class PassResult:
    q: int
    wall_s: float
    loop_s: float  # time in run_suite, or in the generate-and-query loop
    digest: str
    attempted: int
    failed: int
    skipped: int
    latencies: list[tuple[str, float]]  # (family, seconds) per item
    problems: list[str] = field(default_factory=list)


def run_pass(workload: str, q: int, tracer: Tracer, out_dir: Path, size: int | None = None) -> PassResult:
    size = pass_size(workload) if size is None else size
    if workload == QUERY:
        return _query_pass(q, size, tracer, out_dir)
    return _verify_pass(workload, q, size, tracer, out_dir)


def _verify_pass(workload, q, trials, tracer, out_dir) -> PassResult:
    suite = VERIFY[workload][0]
    out = out_dir / f"report-{workload}-{os.getpid()}.json"  # one file per process
    argv = ["verify", "--suite", suite, "--trials", str(trials), "--seed", str(q), "--out", str(out)]
    sink = io.StringIO()
    with tracer.installed(), contextlib.redirect_stdout(sink):
        start = perf()
        code = tracer.call("cli.main", cli.main, (cli.parse_args(argv),))
        wall = perf() - start
    data = out.read_bytes()
    out.unlink()
    summary = json.loads(data)["summary"]
    problems = []
    if code != (0 if summary["fail"] == 0 else 1):
        problems.append(f"exit code {code} disagrees with {summary['fail']} failed trials")
    if sum(summary.values()) != trials:
        problems.append(f"report holds {sum(summary.values())} trials, expected {trials}")
    return PassResult(
        q=q,
        wall_s=wall,
        loop_s=sum(s for _, s in tracer.durations({"harness.run_suite"})),
        digest=hashlib.sha256(data).hexdigest(),
        attempted=trials,
        failed=summary["fail"],
        skipped=summary["skip"],
        latencies=tracer.durations(ITEM_SITES),
        problems=problems,
    )


# --- query-oneshot -------------------------------------------------------


def _kinked_sum(rng, k):
    """Sum of k max-affine parts, each with exactly ACTIVE_PER_PART pieces active at x."""
    dim = int(rng.integers(2, 7))
    x = rng.uniform(-1.0, 1.0, dim)
    parts = []
    for _ in range(k):
        base = harness.gen_max_affine(dim, ACTIVE_PER_PART + int(rng.integers(0, 3)), rng)
        level = float(rng.uniform(-1.0, 1.0))
        rows = []
        for j, piece in enumerate(base.pieces):
            drop = 0.0 if j < ACTIVE_PER_PART else float(rng.uniform(0.5, 2.0))
            rows.append((piece.a, level - float(piece.a @ x) - drop))
        parts.append(functions.max_affine(rows))
    f = functions.SumFunction(dim, tuple(parts))
    return instances.function_to_json(f), x, ACTIVE_PER_PART**k


def _generate(q: int, index: int):
    """(op, family, instance document, point, expectation) for one query."""
    rng = harness.trial_rng(q, QUERY_STREAM, index)
    op = QUERY_OPS[index % len(QUERY_OPS)]
    turn = index // len(QUERY_OPS)
    pwl = turn % 2 == 0
    if op == "subdiff":
        doc, x, expected = _kinked_sum(rng, 1 + turn % 6)
        return op, "pwl", doc, x, expected
    if op == "restricted-subdiff":
        dim = int(rng.integers(2, 7))
        rows = int(rng.integers(1, dim))
        S = harness.gen_operator(rows, dim, rows, rng)
        zeta = S @ rng.uniform(-1.0, 1.0, dim)
        if pwl:
            f = harness.gen_max_affine(dim, int(rng.integers(3, 13)), rng)
        else:
            f = harness.gen_pd_quadratic(dim, rng)
        doc = {
            "f": instances.function_to_json(f),
            "S": instances.matrix_to_json(S),
            "zeta": instances.vector_to_json(zeta),
        }
        return op, "pwl" if pwl else "quad", doc, rng.uniform(-1.0, 1.0, dim - rows), S
    if op == "marginal":
        d = int(rng.integers(2, 7))
        n = int(rng.integers(1, d + 1))
        rank = int(rng.integers(1, min(d, n) + 1))
        S = harness.gen_operator(d, n, rank, rng)
        if pwl:
            f = harness.gen_coercive_max_affine(d, int(rng.integers(2, 7)), rng)
        else:
            f = harness.gen_pd_quadratic(d, rng)
        doc = {"marginal": {"f": instances.function_to_json(f), "S": instances.matrix_to_json(S)}}
        return op, "pwl" if pwl else "quad", doc, S.T @ rng.uniform(-2.0, 2.0, d), "exact-LP" if pwl else "exact-KKT"
    # argmin-member: max-affine objective over a box cut by three halfspaces
    # that all hold at a random centre, queried at that centre.  Quadratic
    # objectives are left out: they run the 20,000-step descent, about 1,000
    # times the cost of any other query, which lemma3-argmin already measures.
    dim = int(rng.integers(2, 7))
    radius = float(rng.uniform(2.0, 4.0))
    centre = rng.uniform(-0.5, 0.5, dim) * radius
    cuts = []
    for _ in range(3):
        g = rng.uniform(-1.0, 1.0, dim)
        cuts.append((g, float(g @ centre) + float(rng.uniform(0.1, 1.0))))
    if pwl:
        f = harness.gen_max_affine(dim, int(rng.integers(2, 7)), rng)
    else:
        f = harness.gen_flat_max_affine(dim, int(rng.integers(2, 7)), rng)
    doc = {"f": instances.function_to_json(f), "domain": instances.domain_to_json(cuts, radius)}
    return op, "pwl", doc, centre, None


def _query(config: cli.CliConfig) -> dict:
    """One ``convexkit query``: the answer ``cli._run_query`` returns, or the error it raised."""
    try:
        return cli._run_query(config)
    except Exception as exc:  # a raising query is a failed item, not an aborted run
        return {"error": type(exc).__name__}


def _check(op, doc, x, expectation, answer) -> str | None:
    """Independent check of one answer against its instance; a message when it is wrong."""
    if "error" in answer:
        return "query raised " + answer["error"]
    if op == "subdiff":
        if answer["count"] != expectation:
            return f"subdiff gave {answer['count']} generators, the parts' active pieces give {expectation}"
        return None
    if op == "restricted-subdiff":
        S = expectation
        for g in np.array(answer["generators"]):
            if float(np.linalg.norm(S @ g)) > 1e-8 * (1.0 + float(np.linalg.norm(g))):
                return "restricted subgradient leaves the kernel of S"
        return None
    if op == "marginal":
        f = instances.function_from_json(doc["marginal"]["f"])
        S = np.array(doc["marginal"]["S"], dtype=float)
        r = np.array(answer["argmin"])
        residual = float(np.linalg.norm(S.T @ r - x))
        if residual > 1e-7:
            return f"marginal witness misses the fiber by {residual:.3e}"
        err = abs(functions.evaluate(f, r) - answer["value"])
        if err > 1e-8 * (1.0 + abs(answer["value"])):
            return f"f(witness) differs from the marginal value by {err:.3e}"
        if answer["status"] != expectation:
            return f"marginal took {answer['status']}, expected {expectation}"
        return None
    # minimize_over is deterministic, so solving again gives the certificate the query used
    f = instances.function_from_json(doc["f"])
    rows, radius = instances.domain_from_json(doc["domain"])
    C = argmin.PolyhedralDomain(f.dim, tuple(rows), radius)
    cert = argmin.minimize_over(f, C)
    if float(cert.value) != answer["minimum"]:
        return f"minimize_over gave {cert.value!r} on a second solve, the query printed {answer['minimum']!r}"
    if not argmin.argmin_membership(f, C, cert.witness, cert.value):
        return "minimize_over witness is not an argmin member"
    return None


def _query_pass(q, items, tracer, out_dir) -> PassResult:
    """Each query: write its instance file, then time ``cli._run_query`` on it."""
    hasher = hashlib.sha256()
    latencies, problems = [], []
    wall = loop = 0.0
    answered = []
    instance = out_dir / f"instance-{os.getpid()}.json"  # one file per process
    with tracer.installed():
        for index in range(items):
            t0 = perf()
            op, family, doc, x, expectation = _generate(q, index)
            instance.write_text(json.dumps(doc))
            config = cli.CliConfig(command="query", op=op, instance=str(instance), x=",".join(repr(float(v)) for v in x))
            t1 = perf()
            answer = tracer.call(f"cli.query.{op}", _query, (config,), item=True, extra=lambda *_: family)
            t2 = perf()
            hasher.update(json.dumps(answer, sort_keys=True).encode() + b"\n")
            t3 = perf()
            latencies.append((family, t2 - t1))
            loop += t2 - t0
            wall += t3 - t0
            if op == "subdiff" and "generators" in answer:
                # keep the count only: holding every generator list would inflate peak_rss_mb
                answer = {"count": len(answer["generators"])}
            answered.append((index, op, doc, x, expectation, answer))
    instance.unlink(missing_ok=True)
    # checked after the wrappers are gone, so checking adds no spans
    for index, op, doc, x, expectation, answer in answered:
        message = _check(op, doc, x, expectation, answer)
        if message is not None:
            problems.append(f"item {index} ({op}): {message}")
    return PassResult(q, wall, loop, hasher.hexdigest(), items, len(problems), 0, latencies, problems)
