"""Record the digests that run.py checks every pass against.

    python3 bench/record.py --workload NAME
    python3 bench/record.py --default-split

Passes run with no wrapper installed, so a later match also shows that the
benchmark's wrappers leave the outputs unchanged.  Record only on a commit
whose outputs are the reference: once the library changes a pass's output,
the benchmark reports that pass as failed until its digest is recorded again.

``--default-split`` times ``convexkit verify --suite lemmaN`` at the CLI's
defaults (100 trials, seed 42) once per suite and prints the report digests.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import sys
import time

import run


def record(workload: str) -> int:
    """Run every pass seed of ``workload`` once and write its entry of digests.json whole."""
    import workloads
    from tracing import Tracer

    class Unwrapped(Tracer):
        @contextlib.contextmanager
        def installed(self):
            yield self

    digests, troubled = {}, 0
    for q in range(workloads.PASS_SEEDS):
        p = workloads.run_pass(workload, q, Unwrapped(False), run.OUT)
        digests[str(q)] = p.digest
        if p.failed or p.problems:
            troubled += 1
            print(f"pass {q}: {p.failed} failed items; {'; '.join(p.problems[:3])}", flush=True)
    table = json.loads(run.DIGESTS.read_text()) if run.DIGESTS.is_file() else {}
    table[workload] = {"size": workloads.pass_size(workload), "digests": digests}
    run.DIGESTS.write_text(json.dumps(dict(sorted(table.items())), indent=1) + "\n")
    print(f"{workload}: recorded {len(digests)} passes; {troubled} with failed items or problems")
    return 0


def default_split() -> int:
    from convexkit import cli

    split = {}
    for suite in ("lemma1", "lemma2", "lemma3"):
        out = run.OUT / f"default-{suite}.json"
        start = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(cli.parse_args(["verify", "--suite", suite, "--out", str(out)]))
        seconds = time.perf_counter() - start
        data = out.read_bytes()
        split[suite] = {
            "wall_s": round(seconds, 3),
            "exit_code": code,
            "summary": json.loads(data)["summary"],
            "sha256": hashlib.sha256(data).hexdigest(),
        }
    print(json.dumps(split, indent=1))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--default-split", action="store_true")
    args = parser.parse_args(argv)
    run.import_program()
    run.OUT.mkdir(exist_ok=True)
    if args.default_split:
        return default_split()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    return record(args.workload)


if __name__ == "__main__":
    sys.exit(main())
