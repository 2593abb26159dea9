"""Run the benchmark over several seeds and report each metric's spread.

    python3 bench/spread.py --workload NAME --seeds 1-10 --seconds 20 [--trace 0|1]

Runs ``run.py`` once per seed, one run at a time, and prints per metric the
median, the quartiles (``statistics.quantiles(values, n=4)``) and the spread
(third minus first quartile, over the median).  The full table is written to
``.bench_out/spread/``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
OUT = BENCH.parent / ".bench_out" / "spread"


def seed_list(text: str) -> list[int]:
    if "-" in text:
        first, last = (int(part) for part in text.split("-"))
        return list(range(first, last + 1))
    return [int(part) for part in text.split(",")]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_list, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    runs = []
    for seed in args.seeds:
        argv = [sys.executable, str(BENCH / "run.py"), "--workload", args.workload, "--seed", str(seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(argv, capture_output=True, text=True, timeout=600)
        if done.returncode != 0:
            print(done.stderr, file=sys.stderr)
            return 1
        result = json.loads(done.stdout.strip().splitlines()[-1])
        runs.append({"seed": seed, **result})
        print(f"seed {seed} correct={result['correct']} attempted={result['attempted']} failed={result['failed']}", flush=True)

    table = {}
    for name in runs[0]["metrics"]:
        values = [run["metrics"][name]["value"] for run in runs]
        q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        table[name] = {
            "unit": runs[0]["metrics"][name]["unit"],
            "median": median,
            "q1": q1,
            "q3": q3,
            "spread": (q3 - q1) / median if median else None,
            "values": values,
        }
        spread = table[name]["spread"]
        print(f"{name:45s} median {median:12.6g}  q1 {q1:12.6g}  q3 {q3:12.6g}  spread {spread if spread is None else round(spread, 4)}")
    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / f"{args.workload}-trace{args.trace}-{args.seeds[0]}-{args.seeds[-1]}.json"
    path.write_text(json.dumps({"seconds": args.seconds, "runs": runs, "metrics": table}, indent=1) + "\n")
    return 0 if all(run["correct"] for run in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
