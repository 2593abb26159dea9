"""Report records shared by the check functions, the harness, and the CLI.

A suite report serializes to the same bytes for the same config and seed:
no timestamps, no environment data, fixed key order, floats via repr.  The
JSON report is, byte for byte, ``json.dumps(report_to_dict(report),
sort_keys=True, indent=2)`` plus a newline; ``json_text`` writes it with the
leaves encoded in C.
The checks build every instance, gap and witness from plain Python values
(``instances.*_to_json``, ``float()``, ``bool()``), so the writers serialize
them as they are.  Nothing derivable is stored: a trial's status follows from
its skip reason and its checks, and its id is its position in the report.
"""

from __future__ import annotations

import csv
import functools
import hashlib
import io
import json
from dataclasses import dataclass, field
from json.encoder import JSONEncoder, encode_basestring_ascii

PASS = "pass"
FAIL = "fail"
SKIP = "skip"

# one row per trial; this order is part of the CSV contract
CSV_COLUMNS = ("suite", "id", "digest", "status", "checks", "failed", "failed_checks", "skip_reason")

# a list whose items all have these exact types is encoded in one piece
_SCALAR_TYPES = frozenset((str, int, float, bool, type(None)))
_SCALARS = JSONEncoder(separators=("\n", ": "))


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


@functools.lru_cache(maxsize=64)
def _frame(pad: str) -> tuple[str, str, str, str]:
    """The texts of a container at indent ``pad``, shared by every container there.

    They are the items' indent, the text before the first item and before
    each later one, and the text before the closing bracket.
    """
    inner = pad + "  "
    return inner, "\n" + inner, ",\n" + inner, "\n" + pad


def json_text(obj) -> str:
    """``json.dumps(obj, sort_keys=True, indent=2)``, with the leaves encoded in C.

    With any ``indent``, ``json`` encodes every node in Python.  Here Python
    walks only the dicts and the lists that hold a dict, list or tuple; the
    leaves go to ``JSONEncoder.encode`` without an indent, which takes the C
    encoder when there is one:

    * the lists of scalars at one depth are encoded as one list, with that
      depth's item separator, and split at ``"]," + separator + "["``;
    * every other scalar joins one list, encoded with a raw newline as its
      item separator and split at raw newlines.

    Both splits are exact: an encoded scalar holds no raw newline and does
    not start or end with a bracket, so each split point is a separator the
    writer chose.  Keys must be ``str``; any other key raises ``TypeError``,
    where ``json.dumps`` would convert int, float, bool and None keys.
    """
    out: list = []  # text pieces, and each leaf until it is encoded
    scalar_slots: list[int] = []
    rows: dict[str, list[int]] = {}  # indent -> slots of its lists of scalars
    keys: dict[str, str] = {}  # key -> its text and ": ", shared by every dict

    def walk(o, pad: str) -> None:
        if isinstance(o, dict):
            if not o:
                out.append("{}")
                return
            inner, sep, comma, close = _frame(pad)
            out.append("{")
            for key, value in sorted(o.items()):
                out.append(sep)
                out.append(keys.get(key) or keys.setdefault(key, encode_basestring_ascii(key) + ": "))
                walk(value, inner)
                sep = comma
            out.append(close)
            out.append("}")
        elif isinstance(o, (list, tuple)):
            if not o:
                out.append("[]")
            elif set(map(type, o)) <= _SCALAR_TYPES:
                rows.setdefault(pad, []).append(len(out))
                out.append(o)
            else:
                inner, sep, comma, close = _frame(pad)
                out.append("[")
                for item in o:
                    out.append(sep)
                    walk(item, inner)
                    sep = comma
                out.append(close)
                out.append("]")
        else:
            scalar_slots.append(len(out))
            out.append(o)

    walk(obj, "")
    for pad, slots in rows.items():
        _, sep, comma, close = _frame(pad)
        text = JSONEncoder(separators=(comma, ": ")).encode([out[i] for i in slots])
        for i, body in zip(slots, text[2:-2].split("]" + comma + "["), strict=True):
            out[i] = "[" + sep + body + close + "]"
    if scalar_slots:
        text = _SCALARS.encode([out[i] for i in scalar_slots])
        for i, leaf in zip(scalar_slots, text[1:-1].split("\n"), strict=True):
            out[i] = leaf
    return "".join(out)


def report_to_json(report: SuiteReport) -> str:
    return json_text(report_to_dict(report)) + "\n"


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
