"""Smoke test of the benchmark itself.

    python3 bench/smoke.py

For every workload in BENCHMARK.json, one shortest run untraced and one
traced: the last output line must be the result object, carry every declared
metric with its declared unit and nothing else, and report correct outputs
with no failed item.  A traced run's per-layer self times must sum to at most
its traced wall time, and the traced runs must show where the time goes
(descent on lemma3-argmin, marginal_value on lemma2-marginal).  Last, the
benchmark must refuse, without a result line, to run in a directory that
holds only BENCHMARK.json and the benchmark's own files.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(root: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "0", "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(argv, cwd=root, capture_output=True, text=True, timeout=300)


def check_run(workload: str, trace: int) -> list[str]:
    done = run(ROOT, workload, trace)
    where = f"{workload} trace={trace}"
    if done.returncode != 0:
        return [f"{where}: exit code {done.returncode}: {done.stderr.strip()[-300:]}"]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    errors = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"{where}: result keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        errors.append(f"{where}: correct={result['correct']} failed={result['failed']} attempted={result['attempted']}")
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    emitted = {name: value["unit"] for name, value in result["metrics"].items()}
    if emitted != declared:
        missing = sorted(set(declared) - set(emitted))
        extra = sorted(set(emitted) - set(declared))
        wrong = sorted(n for n in set(declared) & set(emitted) if declared[n] != emitted[n])
        errors.append(f"{where}: missing {missing}, undeclared {extra}, wrong unit {wrong}")
    for name, value in result["metrics"].items():
        if not isinstance(value["value"], (int, float)):
            errors.append(f"{where}: {name} is not a number")
    if trace and not errors:
        m = {name: value["value"] for name, value in result["metrics"].items()}
        layers = sum(v for n, v in m.items() if n.startswith("layer."))
        if layers > m["trace.wall_s"]:
            errors.append(f"{where}: layer self times sum to {layers} > traced wall {m['trace.wall_s']}")
        if workload == "lemma3-argmin" and m["argmin.minimize_over.subgradient.total_s"] <= 0.5 * m["trace.wall_s"]:
            errors.append(f"{where}: subgradient descent holds at most half the traced wall time")
        marginal = m["marginal.marginal_value.exact-KKT.total_s"] + m["marginal.marginal_value.exact-LP.total_s"]
        if workload == "lemma2-marginal" and marginal <= 0.5 * m["trace.wall_s"]:
            errors.append(f"{where}: marginal_value holds at most half the traced wall time")
    return errors


def check_bare() -> list[str]:
    bare = ROOT / ".bench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
    try:
        done = run(bare, SPEC["workloads"][0]["name"], 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if done.returncode == 0 or '"correct"' in done.stdout:
        return [f"bare directory: exit code {done.returncode}, output {done.stdout.strip()[-200:]!r}"]
    return []


def main() -> int:
    errors = []
    for workload in (w["name"] for w in SPEC["workloads"]):
        for trace in (0, 1):
            found = check_run(workload, trace)
            print(f"{workload} trace={trace}: {'ok' if not found else 'FAILED'}", flush=True)
            errors += found
    found = check_bare()
    print(f"bare directory refused: {'ok' if not found else 'FAILED'}")
    errors += found
    for error in errors:
        print(error)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
