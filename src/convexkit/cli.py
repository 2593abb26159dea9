"""Command line front end.

Two subcommands:

    verify   run one (or all) of the randomized suites and write a report
    query    evaluate one operation on an instance file at a given point

Exit codes: 0 success, 1 a check failed or the math rejected the query
(infeasible fiber, domain violation, ...), 2 bad input (unreadable file,
malformed JSON or vector, a function document or point of the wrong shape,
unusable flag values, or a query whose arithmetic overflows, such as a huge
box radius or point).
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
from collections import Counter
from dataclasses import dataclass, field, fields

import numpy as np

from . import argmin as argmin_mod
from . import marginal as marginal_mod
from .errors import ConvexKitError, DimensionMismatch
from .functions import evaluate, subdifferential
from .harness import SUITES, TOLERANCES, RunConfig, config_error, run_suite
from .instances import domain_from_json, function_from_json
from .report import json_text, report_to_csv, report_to_json
from .restriction import restrict, restricted_subdifferential

QUERY_OPS = ("subdiff", "restricted-subdiff", "marginal", "argmin-member")


@dataclass
class CliConfig:
    command: str
    suite: str = "all"
    run: RunConfig = field(default_factory=RunConfig)
    out: str | None = None
    format: str = "json"
    op: str | None = None
    instance: str | None = None
    x: str | None = None


@functools.cache  # built once per process; parse_args leaves a parser as it found it
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="convexkit",
        description="exact convexity checks for subdifferentials, marginals, and argmin sets",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="run randomized verification suites")
    verify.add_argument("--suite", choices=(*SUITES, "all"), default="all")
    verify.add_argument("--trials", type=int, default=RunConfig.trials)
    verify.add_argument("--dim", type=int, default=RunConfig.dim, help="largest ambient dimension drawn")
    verify.add_argument("--seed", type=int, default=RunConfig.seed)
    for name in TOLERANCES:
        verify.add_argument(f"--{name.replace('_', '-')}", type=float, default=getattr(RunConfig, name))
    verify.add_argument("--out", default=None, help="report path (default report.json or report.csv)")
    verify.add_argument("--format", choices=("json", "csv"), default="json")

    query = sub.add_parser("query", help="evaluate one operation on an instance file")
    query.add_argument("op", choices=QUERY_OPS)
    query.add_argument("--instance", required=True, help="path to an instance JSON document")
    query.add_argument("--x", required=True, help="comma separated coordinates, empty for R^0")
    return parser


def parse_args(argv=None) -> CliConfig:
    """The parsed flags; those named after a RunConfig field make up its ``run``.

    A point after ``--x`` that argparse would read as a flag, such as ``-1,2``, is joined to it: ``--x=-1,2``.
    """
    args = list(sys.argv[1:] if argv is None else argv)
    for i in range(len(args) - 1, 0, -1):  # from the end, so a join moves no argument before it
        if args[i - 1] == "--x" and re.match(r"-[\d.]", args[i]):
            args[i - 1 : i + 1] = ["--x=" + args[i]]
    flags = vars(build_parser().parse_args(args))
    run = {f.name: flags.pop(f.name) for f in fields(RunConfig) if f.name in flags}
    return CliConfig(**flags, run=RunConfig(**run))


def _parse_vector(text: str) -> np.ndarray:
    text = text.strip()
    if not text:
        return np.zeros(0)
    try:
        return np.array([float(part) for part in text.split(",")])
    except ValueError as exc:
        raise ValueError(f"could not parse --x as comma separated floats: {exc}") from exc


def _load_instance(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError("instance document must be a JSON object")
    return doc


def _verify(config: CliConfig) -> int:
    if error := config_error(config.run):  # a RunConfig field is its flag's dest
        field, requirement = error
        print(f"error: --{field.replace('_', '-')} {requirement}", file=sys.stderr)
        return 2
    report = run_suite(config.suite, config.run)
    out = config.out or ("report.json" if config.format == "json" else "report.csv")
    text = report_to_json(report) if config.format == "json" else report_to_csv(report)
    try:
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"error: could not write report: {exc}", file=sys.stderr)
        return 2
    counts = Counter((trial.instance.get("suite", report.suite), trial.status) for trial in report.trials)
    for name in SUITES if config.suite == "all" else [config.suite]:
        print(f"{name}: pass={counts[name, 'pass']} fail={counts[name, 'fail']} skip={counts[name, 'skip']}")
    print(f"report written to {out}")
    return 0 if report.all_passed else 1


def _run_query(config: CliConfig) -> dict:
    doc = _load_instance(config.instance)
    x = _parse_vector(config.x)
    if config.op == "subdiff":
        f = function_from_json(doc.get("f", doc))
        P = subdifferential(f, x)
        return {"generators": P.generators.tolist()}
    if config.op == "restricted-subdiff":
        f = function_from_json(doc["f"])
        g = restrict(f, doc["S"], doc["zeta"])
        P = restricted_subdifferential(g, x)
        return {"generators": P.generators.tolist()}
    if config.op == "marginal":
        inner = doc.get("marginal", doc)
        h = marginal_mod.marginalize(function_from_json(inner["f"]), inner["S"])
        witness = marginal_mod.marginal_value(h, x)
        return {
            "value": float(witness.value),
            "argmin": witness.argmin.tolist(),
            "status": witness.status,
        }
    if config.op == "argmin-member":
        f = function_from_json(doc["f"])
        rows, radius = domain_from_json(doc["domain"])
        C = argmin_mod.PolyhedralDomain(f.dim, tuple(rows), radius)
        cert = argmin_mod.minimize_over(f, C)
        member = argmin_mod.argmin_membership(f, C, x, cert.value)
        return {
            "member": bool(member),
            "minimum": float(cert.value),
            "value": float(evaluate(f, x)),
            "tol": argmin_mod.DEFAULT_MEMBERSHIP_TOL,
        }
    raise ValueError(f"unknown query op: {config.op!r}")


def _query(config: CliConfig) -> int:
    try:
        with np.errstate(over="raise", invalid="raise"):  # an overflow is an input too large to answer
            result = _run_query(config)
    except (
        OSError, json.JSONDecodeError, KeyError, ValueError, TypeError, RecursionError, FloatingPointError, DimensionMismatch
    ) as exc:
        print(f"error: bad instance or point: {exc}", file=sys.stderr)
        return 2
    except ConvexKitError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    print(json_text(result))
    return 0


def main(config: CliConfig) -> int:
    if config.command == "verify":
        return _verify(config)
    if config.command == "query":
        return _query(config)
    print(f"error: unknown command {config.command!r}", file=sys.stderr)
    return 2


def run(argv=None) -> None:
    sys.exit(main(parse_args(argv)))


if __name__ == "__main__":
    run()
