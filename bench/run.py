"""convexkit benchmark: end-to-end metrics, or per-layer metrics from a traced run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the program under test is ``src/convexkit`` next to this
directory, imported from source.  Workloads are defined in ``workloads.py``.

``--trace 0`` runs untraced passes for about ``--seconds`` seconds, with
fresh-interpreter imports spread over the run for ``setup_s``, and reports the
end-to-end metrics, scaled to a reference host speed that ``hostspeed.py``
reads between the passes; ``--trace 1`` runs up to eight pairs of passes, each pass
once untraced and once traced, and reports the per-layer metrics.  Every pass
is checked against the digest recorded for it in ``digests.json``.  Readable
lines come first; the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  Full results, the
environment and (traced runs) the spans are written under ``.bench_out/``.
"""

from __future__ import annotations

import os

# One BLAS thread, set before numpy is first imported; the set-up children
# inherit it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import ctypes
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
DIGESTS = BENCH / "digests.json"

SETUP_REPEATS = 9  # imports a run makes, spread evenly over its passes
TRACE_PAIRS = 8
REF_SHARE = 0.1  # reference blocks after a pass or an import, as a share of its time
REF_MIN_S = 0.02
REF_WINDOW_S = 1.0  # reference samples this near a pass or an import set its scale
WARMUP_SIZE = {"lemma1-fibers": 10, "lemma2-marginal": 2, "lemma3-argmin": 1, "query-oneshot": 24}

END_TO_END = {
    "wall_s": "s",
    "items_per_s": "1/s",
    "item_p50_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "evidence_ratio": "ratio",
}
SPANS = (
    "cli.main",
    "cli.query.subdiff",
    "cli.query.restricted-subdiff",
    "cli.query.marginal",
    "cli.query.argmin-member",
    "harness.run_suite",
    "restriction.lemma1_check",
    "restriction.make_fiber",
    "restriction.restricted_subdifferential",
    "marginal.lemma2_check",
    "marginal.marginalize",
    "marginal.marginal_value.exact-LP",
    "marginal.marginal_value.exact-KKT",
    "argmin.lemma3_check",
    "argmin.minimize_over.subgradient",
    "argmin.minimize_over.exact-LP",
    "argmin.feasible_point",
    "argmin.argmin_membership",
    "simplex.solve_lp",
    "linalg.kernel",
    "linalg.solve_anchor",
    "linalg.row_space",
    "functions.subdifferential",
    "functions.evaluate",
    "report.report_to_json",
)
LAYERS = ("cli", "harness", "restriction", "marginal", "argmin", "simplex", "linalg", "functions", "report")


def per_layer_units() -> dict[str, str]:
    units = {}
    for name in SPANS:
        units.update({f"{name}.calls": "count", f"{name}.self_s": "s", f"{name}.total_s": "s"})
    units.update(
        {
            "simplex.solve_lp.rows_mean": "count",
            "simplex.solve_lp.cols_mean": "count",
            "functions.subdifferential.generators_max": "count",
            "functions.subdifferential.generators_total": "count",
            "report.report_to_json.bytes": "bytes",
            "trial.pwl.p50_ms": "ms",
            "trial.quad.p50_ms": "ms",
            "item.p90_ms": "ms",
        }
    )
    units.update({f"layer.{layer}.self_s": "s" for layer in LAYERS})
    units.update({"trace.wall_s": "s", "trace.overhead_s": "s", "trace.spans": "count"})
    return units


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be nonnegative and --seconds positive")
    return args


def import_program():
    """Import convexkit from this checkout's src/, or exit 2 when it is absent."""
    if not (SRC / "convexkit" / "__init__.py").is_file():
        print(f"error: no convexkit sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import convexkit

    if not Path(convexkit.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: convexkit imported from {convexkit.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)


def blas_threads():
    """Threads the OpenBLAS bundled with numpy will use, or None if it cannot be asked."""
    import numpy

    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def environment() -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
    }


def import_seconds() -> float:
    """Time a fresh interpreter takes to ``import convexkit`` (numpy included)."""
    code = (
        "import time\nstart = time.perf_counter()\nimport convexkit\n"
        "print(time.perf_counter() - start)\nprint(convexkit.__file__)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, env=env, capture_output=True, text=True, timeout=60, check=True
    )
    seconds, location = done.stdout.split("\n")[:2]
    if not Path(location).resolve().is_relative_to(SRC.resolve()):
        raise RuntimeError(f"set-up child imported convexkit from {location}")
    return float(seconds)


def check_digests(workload, passes, problems):
    """Compare every pass with its recorded digest; a mismatch fails the whole pass."""
    import workloads

    recorded = json.loads(DIGESTS.read_text()).get(workload, {}) if DIGESTS.is_file() else {}
    size = workloads.pass_size(workload)
    if recorded.get("size") != size:
        problems.append(f"no digests recorded for {workload} passes of size {size}")
        recorded = {"digests": {}}
    for p in passes:
        want = recorded["digests"].get(str(p.q))
        if want != p.digest:
            problems.append(f"pass {p.q}: digest {p.digest[:12]} differs from recorded {str(want)[:12]}")
            p.failed = p.attempted
        problems.extend(f"pass {p.q}: {message}" for message in p.problems)


def quantile(values, q):
    """The q-quantile of ``values``, interpolated between the nearest samples."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def untraced_run(args, problems):
    """Passes for ``--seconds`` seconds, each timing scaled to the reference host speed.

    After every pass and every set-up import, reference blocks run for
    ``REF_SHARE`` of its time (``hostspeed.py``).  A pass's or an import's
    scale is ``REF_BLOCK_S`` over the mean block time within ``REF_WINDOW_S``
    of it, so each is read at the host speed of its own stretch of the run.
    The timings reported are medians of the scaled values over the run.
    """
    import workloads
    from tracing import Tracer

    # The first child is not counted: it may still be writing bytecode caches.
    import_seconds()
    samples = [hostspeed.sample(REF_MIN_S)]

    def timed(fn):
        """Run ``fn``, then reference blocks; return its result and (start, end)."""
        start = time.perf_counter()
        result = fn()
        end = time.perf_counter()
        samples.append(hostspeed.sample(max(REF_MIN_S, REF_SHARE * (end - start))))
        return result, (start, end)

    setup, passes = [], []
    begin = time.perf_counter()
    for q in workloads.pass_seeds(args.seed):
        passes.append(timed(lambda: workloads.run_pass(args.workload, q, Tracer(False), OUT)))
        busy = time.perf_counter() - begin
        if busy >= args.seconds * len(setup) / SETUP_REPEATS:
            setup.append(timed(import_seconds))
        if busy * (len(passes) + 1) / len(passes) > args.seconds:
            break
    while len(setup) < SETUP_REPEATS:
        setup.append(timed(import_seconds))

    def scaled(events):
        return [(value, hostspeed.scale(samples, *span, REF_WINDOW_S)) for value, span in events]

    setup, passes = scaled(setup), scaled(passes)
    check_digests(args.workload, [p for p, _ in passes], problems)
    latencies = [s * k for p, k in passes for _, s in p.latencies]
    attempted = sum(p.attempted for p, _ in passes)
    metrics = {
        "wall_s": statistics.median(p.wall_s * k for p, k in passes),
        "items_per_s": statistics.median(p.attempted / (p.loop_s * k) for p, k in passes),
        "item_p50_ms": statistics.median(latencies) * 1e3,
        "setup_s": statistics.median(seconds * k for seconds, k in setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "evidence_ratio": (attempted - sum(p.skipped for p, _ in passes)) / attempted,
    }
    n = len(passes)
    notes = {
        "wall_s": f"median of {n} passes' scaled wall time; unscaled {statistics.median(p.wall_s for p, _ in passes):.6g} s",
        "items_per_s": f"median of {n} passes' scaled throughput",
        "item_p50_ms": f"median of all scaled items, n={len(latencies)}",
        # Printed, not declared: on a shared host at its slowest, the slowest
        # items slow by more than the reference block, and the scaled tail
        # spread past any allowed bound (see README.md).
        "item_p90_ms": f"{quantile(latencies, 0.9) * 1e3:.6g} ms, 90th percentile of all scaled items, n={len(latencies)}",
        "setup_s": f"median of {len(setup)} scaled imports; unscaled {statistics.median(s for s, _ in setup):.6g} s",
    }
    scales = [k for _, k in passes + setup]
    notes["host-scale"] = (
        f"median {statistics.median(scales):.4g}, min {min(scales):.4g}, max {max(scales):.4g}"
        f" over {len(scales)} passes and imports (1 = reference speed)"
    )
    return [p for p, _ in passes], metrics, notes, None


def traced_run(args, problems):
    import workloads
    from tracing import Tracer, summarize

    passes, pairs = [], []
    start = time.perf_counter()
    for index, q in enumerate(workloads.pass_seeds(args.seed)[:TRACE_PAIRS]):
        # Alternate which pass of a pair runs first, so a trend in host speed
        # does not read as tracing overhead.
        ran = {}
        for layers in (False, True) if index % 2 == 0 else (True, False):
            tracer = Tracer(layers)
            ran[layers] = (workloads.run_pass(args.workload, q, tracer, OUT), tracer)
        (plain, _), (traced, tracer) = ran[False], ran[True]
        if traced.digest != plain.digest:
            problems.append(f"pass {q}: traced digest differs from the untraced one")
        passes += [plain, traced]
        pairs.append((plain, traced, tracer))
        elapsed = time.perf_counter() - start
        if elapsed * (index + 2) / (index + 1) > args.seconds:
            break
    check_digests(args.workload, passes, problems)

    table: dict[str, dict] = {}
    for _, _, tracer in pairs:
        for name, entry in summarize(tracer.spans).items():
            into = table.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "extras": []})
            for key in ("calls", "total_s", "self_s", "extras"):
                into[key] += entry[key]
    empty = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "extras": []}
    metrics = {}
    for name in SPANS:
        entry = table.get(name, empty)
        metrics.update({f"{name}.calls": entry["calls"], f"{name}.self_s": entry["self_s"], f"{name}.total_s": entry["total_s"]})
    shapes = table.get("simplex.solve_lp", empty)["extras"]
    generators = table.get("functions.subdifferential", empty)["extras"]
    by_family = {}
    for plain, _, _ in pairs:
        for family, seconds in plain.latencies:
            by_family.setdefault(family, []).append(seconds)
    metrics.update(
        {
            "simplex.solve_lp.rows_mean": statistics.fmean(r for r, _ in shapes) if shapes else 0.0,
            "simplex.solve_lp.cols_mean": statistics.fmean(c for _, c in shapes) if shapes else 0.0,
            "functions.subdifferential.generators_max": max(generators, default=0),
            "functions.subdifferential.generators_total": sum(generators),
            "report.report_to_json.bytes": sum(table.get("report.report_to_json", empty)["extras"]),
            "trial.pwl.p50_ms": statistics.median(by_family["pwl"]) * 1e3 if "pwl" in by_family else 0.0,
            "trial.quad.p50_ms": statistics.median(by_family["quad"]) * 1e3 if "quad" in by_family else 0.0,
            "item.p90_ms": quantile([s for values in by_family.values() for s in values], 0.9) * 1e3,
        }
    )
    for layer in LAYERS:
        metrics[f"layer.{layer}.self_s"] = sum(e["self_s"] for n, e in table.items() if n.split(".")[0] == layer)
    metrics["trace.wall_s"] = sum(traced.wall_s for _, traced, _ in pairs)
    metrics["trace.overhead_s"] = statistics.median(traced.wall_s - plain.wall_s for plain, traced, _ in pairs)
    metrics["trace.spans"] = sum(len(tracer.spans) for _, _, tracer in pairs)

    wall = metrics["trace.wall_s"]
    shares = sorted(((e["total_s"] / wall, n) for n, e in table.items()), reverse=True)
    notes = {
        "trace.wall_s": f"{len(pairs)} traced passes",
        "trace.overhead_s": f"traced minus untraced wall, median over {len(pairs)} pairs whose order alternates;"
        " it can still sit inside the host's pass-to-pass noise and come out negative",
    }
    spans_out = [[traced.q, *rec[:5]] for _, traced, tracer in pairs for rec in tracer.spans]
    return passes, metrics, notes, (shares, spans_out)


def main(argv=None) -> int:
    args = parse_args(argv)
    import_program()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    env = environment()
    warm = workloads.pass_seeds(args.seed)[0]
    from tracing import Tracer

    workloads.run_pass(args.workload, warm, Tracer(False), OUT, size=WARMUP_SIZE[args.workload])

    problems: list[str] = []
    run = traced_run if args.trace else untraced_run
    passes, metrics, notes, traced = run(args, problems)
    units = per_layer_units() if args.trace else END_TO_END
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    correct = not problems

    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"workload {args.workload} seed {args.seed} trace {args.trace} passes {len(passes)} pass-seeds {sorted({p.q for p in passes})}")
    for name, unit in units.items():
        note = notes.get(name)
        print(f"{name} {metrics[name]:.6g} {unit}" + (f"  ({note})" if note else ""))
    for name in ("item_p90_ms", "host-scale"):
        if name in notes:
            print(f"{name} {notes[name]}")
    print(f"fail_ratio {failed / attempted:.6g} ratio  ({failed} of {attempted} items failed or raised)")
    if traced is not None:
        shares, spans_out = traced
        for share, name in shares[:8]:
            print(f"share-of-traced-wall {name} {share:.3f}")
        spans_path = OUT / "spans" / f"{args.workload}-seed{args.seed}.jsonl"
        spans_path.parent.mkdir(parents=True, exist_ok=True)
        spans_path.write_text("".join(json.dumps(rec) + "\n" for rec in spans_out))
    for message in problems[:20]:
        print(f"problem {message}")

    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": {n: {"value": metrics[n], "unit": u} for n, u in units.items()}}
    record = dict(
        result,
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=args.trace,
        env=env,
        problems=problems,
        passes=[{k: getattr(p, k) for k in ("q", "wall_s", "loop_s", "digest", "attempted", "failed", "skipped")} for p in passes],
    )
    (OUT / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
