"""Report records shared by the check functions, the harness, and the CLI.

A suite report serializes to the same bytes for the same config and seed:
no timestamps, no environment data, fixed key order, floats via repr.
The checks build every instance, gap and witness from plain Python values
(``instances.*_to_json``, ``float()``, ``bool()``), so the writers serialize
them as they are.  Nothing derivable is stored: a trial's status follows from
its skip reason and its checks, and its id is its position in the report.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
from dataclasses import dataclass, field

PASS = "pass"
FAIL = "fail"
SKIP = "skip"

# one row per trial; this order is part of the CSV contract
CSV_COLUMNS = ("suite", "id", "digest", "status", "checks", "failed", "failed_checks", "skip_reason")


@dataclass
class CheckResult:
    """Outcome of one named check inside a trial.

    ``gap`` is the check's own margin metric (documented per check name);
    ``witness`` carries enough JSON data to replay or inspect a failure.
    """

    name: str
    passed: bool
    gap: float | None = None
    witness: dict | None = None


@dataclass
class TrialResult:
    instance: dict
    checks: list[CheckResult] = field(default_factory=list)
    skip_reason: str | None = None

    @property
    def status(self) -> str:
        """Skip when a skip reason is set, otherwise pass exactly when every check passed."""
        if self.skip_reason is not None:
            return SKIP
        return PASS if all(c.passed for c in self.checks) else FAIL


@dataclass
class SuiteReport:
    suite: str
    seed: int
    tolerances: dict[str, float]
    trials: list[TrialResult] = field(default_factory=list)

    @property
    def summary(self) -> dict[str, int]:
        counts = {PASS: 0, FAIL: 0, SKIP: 0}
        for t in self.trials:
            counts[t.status] += 1
        return counts

    @property
    def all_passed(self) -> bool:
        return self.summary[FAIL] == 0


def instance_digest(instance: dict) -> str:
    """Short stable content hash of an instance document."""
    blob = json.dumps(instance, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:12]


def report_to_dict(report: SuiteReport) -> dict:
    return {
        "suite": report.suite,
        "seed": report.seed,
        "tolerances": report.tolerances,
        "trials": [
            {
                "id": i,
                "instance": t.instance,
                "status": t.status,
                "skip_reason": t.skip_reason,
                "checks": [
                    {
                        "name": c.name,
                        "pass": c.passed,
                        "gap": c.gap,
                        "witness": c.witness,
                    }
                    for c in t.checks
                ],
            }
            for i, t in enumerate(report.trials)
        ],
        "summary": report.summary,
    }


def report_to_json(report: SuiteReport) -> str:
    return json.dumps(report_to_dict(report), sort_keys=True, indent=2) + "\n"


def report_to_csv(report: SuiteReport) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for i, t in enumerate(report.trials):
        failed = [c.name for c in t.checks if not c.passed]
        writer.writerow(
            [
                t.instance.get("suite", report.suite),
                i,
                instance_digest(t.instance),
                t.status,
                len(t.checks),
                len(failed),
                ";".join(failed),
                t.skip_reason or "",
            ]
        )
    return out.getvalue()
