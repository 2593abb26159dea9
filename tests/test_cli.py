"""Tests for the command line front end, run in-process via main()."""

import argparse
import hashlib
import itertools
import json
import os
import subprocess
import sys
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

import convexkit
from convexkit import harness, restriction
from convexkit.cli import CliConfig, _run_query, build_parser, main, parse_args, run

ABS_DOC = {"type": "max_affine", "pieces": [{"a": [1.0], "b": 0.0}, {"a": [-1.0], "b": 0.0}]}
ONE_NORM_DOC = {
    "type": "max_affine",
    "pieces": [
        {"a": [1.0, 1.0], "b": 0.0},
        {"a": [1.0, -1.0], "b": 0.0},
        {"a": [-1.0, 1.0], "b": 0.0},
        {"a": [-1.0, -1.0], "b": 0.0},
    ],
}
FLAT_DOC = {
    "type": "max_affine",
    "pieces": [
        {"a": [0.0], "b": 0.0},
        {"a": [1.0], "b": -1.0},
        {"a": [-1.0], "b": -1.0},
    ],
}
QUAD_DOC = {"type": "quadratic", "Q": [[1.0, 0.0], [0.0, 1.0]], "c": [0.0, 0.0], "r0": 0.0}


def _write(path, doc):
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def test_parser_help_mentions_both_commands():
    text = build_parser().format_help()
    assert "verify" in text and "query" in text
    with pytest.raises(SystemExit) as exc:
        parse_args(["--help"])
    assert exc.value.code == 0


def test_parse_defaults():
    config = parse_args(["verify"])
    assert config == CliConfig(command="verify")
    assert (config.suite, config.run.trials, config.run.seed) == ("all", 100, 42)
    assert (config.format, config.out) == ("json", None)


def test_one_parser_parses_as_fresh_parsers_do():
    """The cached parser gives, call after call, the configs and help text that a parser built afresh gives."""
    fresh = build_parser.__wrapped__
    argvs = [
        ["verify", "--suite", "lemma2", "--trials", "3", "--tol-active", "1e-6", "--format", "csv", "--out", "r.csv"],
        ["query", "marginal", "--instance", "doc.json", "--x", "1,2"],
        ["verify"],
    ]
    for argv in argvs:
        flags = vars(fresh().parse_args(argv))
        run = {f.name: flags.pop(f.name) for f in fields(harness.RunConfig) if f.name in flags}
        assert parse_args(argv) == CliConfig(**flags, run=harness.RunConfig(**run))
    assert parse_args(["verify"]) == CliConfig(command="verify")
    assert build_parser() is build_parser()
    assert build_parser().format_help() == fresh().format_help()

    def verify_help(parser):
        subparsers = next(action for action in parser._actions if isinstance(action, argparse._SubParsersAction))
        return subparsers.choices["verify"].format_help()

    assert verify_help(build_parser()) == verify_help(fresh())


def test_verify_flags_and_report_read_the_harness_tables(tmp_path, capsys):
    """--suite offers the SUITES keys and "all", each TOLERANCES field is one --tol-* flag with RunConfig's
    default, and a report's tolerances are those fields without "tol_", plus the two oracle keys in oracle mode."""
    subparsers = next(action for action in build_parser()._actions if isinstance(action, argparse._SubParsersAction))
    flags = {action.option_strings[0]: action for action in subparsers.choices["verify"]._actions if action.option_strings}
    assert tuple(flags["--suite"].choices) == (*harness.SUITES, "all")
    assert [flag for flag in flags if flag.startswith("--tol-")] == [f"--{name.replace('_', '-')}" for name in harness.TOLERANCES]
    for name in harness.TOLERANCES:
        flag = flags[f"--{name.replace('_', '-')}"]
        assert (flag.dest, flag.type, flag.default) == (name, float, getattr(harness.RunConfig(), name))
    keys = sorted(name.removeprefix("tol_") for name in harness.TOLERANCES)
    out = tmp_path / "r.json"
    assert main(parse_args(["verify", "--suite", "lemma1", "--trials", "0", "--out", str(out)])) == 0
    assert sorted(json.loads(out.read_text())["tolerances"]) == keys == ["active", "membership", "support"]
    oracle = harness.run_suite("lemma2", harness.RunConfig(trials=0, oracle_pitch=1e-2))
    assert sorted(oracle.tolerances) == sorted([*keys, "oracle_pitch", "oracle_agreement"])
    assert capsys.readouterr().out == "lemma1: pass=0 fail=0 skip=0\nreport written to " + str(out) + "\n"
    assert main(parse_args(["verify", "--trials", "1", "--out", str(out)])) == 0
    assert [line.split(":")[0] for line in capsys.readouterr().out.splitlines()] == [*harness.SUITES, "report written to " + str(out)]
    assert main(parse_args(["verify", "--suite", "all", "--trials", "0", "--out", str(out)])) == 0
    assert capsys.readouterr().out.splitlines() == [f"{name}: pass=0 fail=0 skip=0" for name in harness.SUITES] + [f"report written to {out}"]


def test_usage_errors_exit_two():
    for argv in ([], ["verify", "--suite", "bogus"], ["query", "subdiff"]):
        with pytest.raises(SystemExit) as exc:
            parse_args(argv)
        assert exc.value.code == 2


def test_verify_writes_json_report(tmp_path, capsys):
    out = tmp_path / "r.json"
    rc = main(parse_args(["verify", "--suite", "lemma1", "--trials", "3", "--out", str(out)]))
    assert rc == 0
    doc = json.loads(out.read_text(encoding="utf-8"))
    assert doc["suite"] == "lemma1"
    assert doc["summary"] == {"pass": 3, "fail": 0, "skip": 0}
    assert len(doc["trials"]) == 3
    lines = capsys.readouterr().out.splitlines()
    assert "lemma1: pass=3 fail=0 skip=0" in lines
    assert lines[-1] == f"report written to {out}"


def test_verify_default_out_csv(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    rc = main(parse_args(["verify", "--suite", "lemma1", "--trials", "2", "--format", "csv"]))
    assert rc == 0
    text = (tmp_path / "report.csv").read_text(encoding="utf-8")
    assert text.splitlines()[0] == "suite,id,digest,status,checks,failed,failed_checks,skip_reason"
    assert len(text.splitlines()) == 3
    capsys.readouterr()


def test_verify_reruns_are_byte_identical(tmp_path, capsys):
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for p in paths:
        rc = main(parse_args(["verify", "--trials", "2", "--out", str(p)]))
        assert rc == 0
    capsys.readouterr()
    assert paths[0].read_bytes() == paths[1].read_bytes()


def _why_no_coretype():
    """Why OPENBLAS_CORETYPE selects no kernel here, or None."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    if "openblas" not in blas.get("name", "") or "DYNAMIC_ARCH" not in blas.get("openblas configuration", ""):
        return "numpy's BLAS is not OpenBLAS built with DYNAMIC_ARCH, so OPENBLAS_CORETYPE selects no kernel"
    return None


def _why_no_kernel_switch():
    """Why OPENBLAS_CORETYPE cannot select each of the four kernels here, or None."""
    reason = _why_no_coretype()
    if reason:
        return reason
    try:
        flags = Path("/proc/cpuinfo").read_text().split()
    except OSError:
        return "no /proc/cpuinfo to tell whether this CPU runs the SkylakeX kernel"
    if "avx512f" not in flags:
        return "this CPU lacks AVX-512, which the SkylakeX kernel needs"
    return None


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP items 14 and 19: products and instance draws round by the BLAS kernel, so the bytes follow it",
)
def test_verify_bytes_hold_under_every_blas_kernel(tmp_path):
    """A 10-trial ``verify --suite all`` writes the same bytes under the SkylakeX, Haswell, SandyBridge and Prescott kernels.

    Each report comes from a child process with OPENBLAS_CORETYPE set in its
    environment alone; this process keeps its own kernel.
    """
    reason = _why_no_kernel_switch()
    if reason:
        pytest.skip(reason)
    src = Path(convexkit.__file__).parents[1]
    reports = {}
    for kernel in ("SkylakeX", "Haswell", "SandyBridge", "Prescott"):
        out = tmp_path / f"{kernel}.json"
        env = dict(os.environ, OPENBLAS_CORETYPE=kernel, PYTHONPATH=os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]))
        code = f"from convexkit.cli import run; run(['verify', '--trials', '10', '--out', {str(out)!r}])"
        subprocess.run([sys.executable, "-c", code], env=env, check=True, capture_output=True, timeout=120)
        reports[kernel] = hashlib.sha256(out.read_bytes()).hexdigest()
    assert len(set(reports.values())) == 1, reports


def _pytest_under_prescott(tests, *flags):
    """Run ``tests`` in a child pytest with OPENBLAS_CORETYPE=Prescott set in its environment alone."""
    reason = _why_no_coretype()
    if reason:
        pytest.skip(reason)
    env, root = dict(os.environ, OPENBLAS_CORETYPE="Prescott"), Path(__file__).parents[1]
    command = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *flags, *tests]
    return subprocess.run(command, cwd=root, env=env, capture_output=True, text=True, timeout=120)


def test_interval_order_and_shared_paths_hold_under_prescott():
    """The interval order, the row products and the shared-path simplex hold under the Prescott kernel too.

    The tests run in a child pytest under Prescott; this process keeps its own
    kernel.  Only there does the row products' vector case catch a swapped
    operand.
    """
    child = _pytest_under_prescott([
        "tests/test_functions.py::test_interval_endpoints_order_random",
        "tests/test_linalg.py::test_row_products_match_one_row_products",
        "tests/test_simplex.py::test_shared_path_solves_match_reference",
    ])
    assert child.returncode == 0, child.stdout[-2000:]
    assert "5 passed" in child.stdout, child.stdout[-2000:]


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP items 14 and 19: under Prescott a stacked row and its one-row reference round apart",
)
def test_stacked_rows_match_one_row_calls_under_prescott():
    """The nine stacked-versus-one-row tests that fail under the Prescott kernel, run there in one child pytest.

    The child stops at the first failure (-x), and the tests run fastest
    first, so the expected failure costs little.
    """
    child = _pytest_under_prescott([
        "tests/test_restriction.py::test_one_support_stack_gives_both_bounds",
        "tests/test_harness.py::test_slice_directions_match_one_at_a_time_draws",
        "tests/test_restriction.py::test_midpoint_sweep_matches_scalar_loop",
        "tests/test_restriction.py::test_lemma1_check_matches_one_direction_at_a_time",
        "tests/test_functions.py::test_evaluate_many_matches_scalar",
        "tests/test_linalg.py::test_orthonormal_bases_match_reference_loops_random",
        "tests/test_marginal.py::test_marginal_values_match_one_by_one",
        "tests/test_marginal.py::test_lemma2_check_matches_one_query_at_a_time",
        "tests/test_argmin.py::test_lockstep_harvest_matches_scalar_bisection",
    ], "-x")
    if child.returncode not in (0, 1):  # a usage or collection error is no expected failure
        raise RuntimeError(child.stdout[-2000:])
    assert child.returncode == 0, child.stdout[-2000:]
    assert "9 passed" in child.stdout, child.stdout[-2000:]


def test_verify_exit_one_when_checks_fail(tmp_path, monkeypatch, capsys, rowspace_version):
    monkeypatch.setattr(restriction, "restricted_subdifferential", rowspace_version)
    out = tmp_path / "bad.json"
    rc = main(parse_args(["verify", "--suite", "lemma1", "--trials", "2", "--out", str(out)]))
    assert rc == 1
    doc = json.loads(out.read_text(encoding="utf-8"))
    assert doc["summary"]["fail"] == 2
    capsys.readouterr()


def test_verify_unwritable_out_exits_two(tmp_path, capsys):
    out = tmp_path / "missing" / "r.json"
    rc = main(parse_args(["verify", "--suite", "lemma1", "--trials", "1", "--out", str(out)]))
    assert rc == 2
    assert not out.exists()
    assert "could not write report" in capsys.readouterr().err


def test_verify_rejects_bad_flag_values(tmp_path, capsys):
    rc = main(parse_args(["verify", "--trials", "-1", "--out", str(tmp_path / "x.json")]))
    assert rc == 2
    rc = main(parse_args(["verify", "--dim", "1", "--out", str(tmp_path / "x.json")]))
    assert rc == 2
    out = tmp_path / "seed.json"
    rc = main(parse_args(["verify", "--suite", "lemma1", "--trials", "1", "--seed", "-1", "--out", str(out)]))
    assert rc == 2 and not out.exists()
    assert "error: --seed must be nonnegative" in capsys.readouterr().err
    for flag in ("--tol-active", "--tol-support", "--tol-membership"):
        for value in ("-1", "nan", "inf", "-inf"):
            out = tmp_path / "tol.json"
            rc = main(parse_args(["verify", "--suite", "lemma3", "--trials", "1", f"{flag}={value}", "--out", str(out)]))
            assert rc == 2 and not out.exists(), (flag, value)
            assert f"error: {flag} must be finite and nonnegative" in capsys.readouterr().err
    rc = main(parse_args(["verify", "--suite", "lemma1", "--trials", "1", "--tol-membership", "0", "--out", str(out)]))
    assert rc == 0 and json.loads(out.read_text())["tolerances"]["membership"] == 0.0  # zero is a tolerance
    capsys.readouterr()


def test_query_subdiff(tmp_path, capsys):
    inst = _write(tmp_path / "abs.json", ABS_DOC)
    rc = main(parse_args(["query", "subdiff", "--instance", inst, "--x", "0"]))
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc == {"generators": [[1.0], [-1.0]]}


def test_query_point_with_negative_first_coordinate(tmp_path, capsys):
    """--x takes a point whose first coordinate is negative with or without "=", and a flag after it is no point."""
    inst = _write(tmp_path / "one.json", ONE_NORM_DOC)
    for x in ("-1,2", "-1e-3,2", "-.5,1"):
        config = parse_args(["query", "subdiff", "--instance", inst, "--x", x])
        assert config.x == x and config == parse_args(["query", "subdiff", f"--x={x}", "--instance", inst])
        assert main(config) == 0
        assert json.loads(capsys.readouterr().out) == {"generators": [[-1.0, 1.0]]}
    for argv in (["query", "subdiff", "--x", "--instance", inst], ["query", "subdiff", "--instance", inst, "--x"]):
        with pytest.raises(SystemExit) as exc:
            parse_args(argv)
        assert exc.value.code == 2
    capsys.readouterr()


def test_negative_value_after_any_option(tmp_path, capsys):
    """Every option that takes a value takes one that argparse would read as a flag, with or without "=",
    abbreviated too; a flag after an option is no value, and a negative tolerance is config_error's to refuse."""
    out = tmp_path / "tol.json"
    for argv in (["--tol-support", "-1e-3"], ["--tol-support=-1e-3"], ["--tol-sup", "-1e-3"]):
        config = parse_args(["verify", *argv, "--out", str(out)])
        assert config.run.tol_support == -1e-3 and config == parse_args(["verify", "--out", str(out), *argv])
        assert main(config) == 2 and not out.exists()
        assert "error: --tol-support must be finite and nonnegative" in capsys.readouterr().err
    config = parse_args(["verify", "--tol-active", "-.5", "--seed", "-1", "--out", "-1.json", "--tol-membership", "-1e-3"])
    assert (config.run.tol_active, config.run.seed, config.out, config.run.tol_membership) == (-0.5, -1, "-1.json", -1e-3)
    inst = _write(tmp_path / "one.json", ONE_NORM_DOC)
    for argv in (
        ["verify", "--tol-support", "--trials", "3"],
        ["verify", "--tol", "-1e-3"],  # ambiguous: three --tol-* flags
        ["query", "subdiff", "--x", "--instance", inst],
        ["verify", "--help", "-1"],
    ):
        with pytest.raises(SystemExit) as exc:
            parse_args(argv)
        assert exc.value.code == (0 if "--help" in argv else 2), argv
    capsys.readouterr()


def test_readme_verify_flag_table_matches_the_parser():
    """README's `verify` flag table names the parser's flags, and each default the parser sets, a number compared as one."""
    lines = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8").splitlines()
    start = lines.index("| flag | default | meaning |") + 2
    table = itertools.takewhile(lambda line: line.startswith("|"), lines[start:])
    rows = [[cell.strip().strip("`") for cell in line.strip("|").split("|")] for line in table]
    subparsers = next(action for action in build_parser()._actions if isinstance(action, argparse._SubParsersAction))
    actions = {action.option_strings[-1]: action for action in subparsers.choices["verify"]._actions if action.option_strings}
    actions.pop("--help")
    assert [flag for flag, _, _ in rows] == list(actions)
    for flag, default, _ in rows:
        want = actions[flag].default
        if want is not None:
            assert (float(default) if isinstance(want, (int, float)) else default) == want, flag
    assert [flag for flag, _, _ in rows if actions[flag].default is None] == ["--out"]


def test_query_restricted_subdiff(tmp_path, capsys):
    inst = _write(tmp_path / "r.json", {"f": ONE_NORM_DOC, "S": [[1.0, 1.0]], "zeta": [0.0]})
    rc = main(parse_args(["query", "restricted-subdiff", "--instance", inst, "--x", "0"]))
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    got = {tuple(np.round(g, 9)) for g in doc["generators"]}
    assert got == {(0.0, 0.0), (1.0, -1.0), (-1.0, 1.0)}


def test_query_restricted_subdiff_at_the_point_of_r0(tmp_path, capsys):
    """An invertible S leaves a one-point fiber, whose coordinates --x '' gives as R^0."""
    inst = _write(tmp_path / "r0.json", {"f": ONE_NORM_DOC, "S": [[1.0, 0.0], [0.0, 1.0]], "zeta": [1.0, 2.0]})
    rc = main(parse_args(["query", "restricted-subdiff", "--instance", inst, "--x", ""]))
    assert rc == 0
    assert json.loads(capsys.readouterr().out) == {"generators": [[0.0, 0.0]]}


def test_query_marginal(tmp_path, capsys):
    inst = _write(tmp_path / "m.json", {"marginal": {"f": QUAD_DOC, "S": [[1.0], [1.0]]}})
    rc = main(parse_args(["query", "marginal", "--instance", inst, "--x", "2"]))
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["status"] == "exact-KKT"
    assert_allclose(doc["value"], 2.0, atol=1e-9)
    assert_allclose(doc["argmin"], [1.0, 1.0], atol=1e-9)


def test_query_argmin_member(tmp_path, capsys):
    inst = _write(
        tmp_path / "a.json",
        {"f": FLAT_DOC, "domain": {"inequalities": [], "box_radius": 3.0}},
    )
    rc = main(parse_args(["query", "argmin-member", "--instance", inst, "--x", "0.5"]))
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["member"] is True
    assert_allclose(doc["minimum"], 0.0, atol=1e-9)

    rc = main(parse_args(["query", "argmin-member", "--instance", inst, "--x", "1.5"]))
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["member"] is False


def test_query_math_error_exits_one(tmp_path, capsys):
    quad_1d = {"type": "quadratic", "Q": [[1.0]], "c": [0.0], "r0": 0.0}
    inst = _write(tmp_path / "dom.json", {"marginal": {"f": quad_1d, "S": [[1.0, 1.0]]}})
    rc = main(parse_args(["query", "marginal", "--instance", inst, "--x", "1,0"]))
    assert rc == 1
    assert "DomainViolation" in capsys.readouterr().err

    # 4**12 generators in R^2: refused before the Minkowski sum is built
    inst = _write(tmp_path / "sum.json", {"type": "sum", "parts": [ONE_NORM_DOC] * 12})
    rc = main(parse_args(["query", "subdiff", "--instance", inst, "--x", "0,0"]))
    assert rc == 1
    assert "SubdifferentialTooLarge" in capsys.readouterr().err


def test_query_input_errors_exit_two(tmp_path, capsys):
    rc = main(parse_args(["query", "subdiff", "--instance", str(tmp_path / "missing.json"), "--x", "0"]))
    assert rc == 2

    broken = tmp_path / "broken.json"
    broken.write_text("{not json", encoding="utf-8")
    rc = main(parse_args(["query", "subdiff", "--instance", str(broken), "--x", "0"]))
    assert rc == 2

    inst = _write(tmp_path / "abs.json", ABS_DOC)
    rc = main(parse_args(["query", "subdiff", "--instance", inst, "--x", "a,b"]))
    assert rc == 2

    rc = main(parse_args(["query", "restricted-subdiff", "--instance", inst, "--x", "0"]))
    assert rc == 2  # document has no S/zeta keys
    capsys.readouterr()

    # valid JSON that is not an object; a domain that is not an object
    bad = [_write(tmp_path / "list.json", [ABS_DOC])]
    bad += [_write(tmp_path / f"domain{i}.json", {"f": ABS_DOC, "domain": d}) for i, d in enumerate(([], "box"))]
    # a sum nested 400 deep overflows normal_form's recursion, 900 deep json.load's
    for depth in (400, 900):
        deep = tmp_path / f"deep{depth}.json"
        deep.write_text('{"type": "sum", "parts": [' * depth + json.dumps(ABS_DOC) + "]}" * depth, encoding="utf-8")
        bad.append(str(deep))
    for path, op in zip(bad, ("subdiff", "argmin-member", "argmin-member", "subdiff", "subdiff")):
        rc = main(parse_args(["query", op, "--instance", path, "--x", "0"]))
        err = capsys.readouterr().err
        assert rc == 2 and err.startswith("error: bad instance or point: ") and "Traceback" not in err, path

    # a malformed function document or a point of the wrong length is bad input, not a math refusal
    shapes = [
        ({"type": "quadratic", "Q": 5}, "0", "expected a matrix, got shape ()"),
        ({"type": "max_affine", "pieces": [{"a": [1.0, 0.0], "b": 0.0}, {"a": [1.0], "b": 0.0}]}, "0,0", "piece gradients differ"),
        (ABS_DOC, "", "expected dimension 1, got 0"),
    ]
    for i, (doc, x, message) in enumerate(shapes):
        rc = main(parse_args(["query", "subdiff", "--instance", _write(tmp_path / f"shape{i}.json", doc), "--x", x]))
        out, err = capsys.readouterr()
        assert (rc, out) == (2, "") and err.startswith("error: bad instance or point: ") and message in err, doc

    # arithmetic that overflows is refused as bad input: no numpy warning, no Infinity printed
    quad = {"type": "quadratic", "Q": [[1.0]]}
    overflows = [
        ("argmin-member", {"f": ABS_DOC, "domain": {"box_radius": 1e308}}, "0"),
        ("subdiff", {"type": "quadratic", "Q": [[1e308, 0.0], [0.0, 1e308]]}, "1e308,1e308"),
        ("argmin-member", {"f": quad, "domain": {"box_radius": 2.0}}, "1e200"),
        ("marginal", {"marginal": {"f": quad, "S": [[1.0]]}}, "1e200"),
    ]
    for i, (op, doc, x) in enumerate(overflows):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(parse_args(["query", op, "--instance", _write(tmp_path / f"over{i}.json", doc), "--x", x]))
        out, err = capsys.readouterr()
        assert (rc, out) == (2, "") and err.startswith("error: bad instance or point: ") and "overflow" in err, op
    huge = _write(tmp_path / "huge.json", {"f": ABS_DOC, "domain": {"box_radius": 1e200}})
    assert main(parse_args(["query", "argmin-member", "--instance", huge, "--x", "0"])) == 0
    assert json.loads(capsys.readouterr().out)["member"] is True

    # configs built by hand, as bench/workloads.py builds them
    assert main(CliConfig(command="bogus")) == 2
    assert "error: unknown command 'bogus'" in capsys.readouterr().err
    assert main(CliConfig(command="query", op="bogus", instance=inst, x="0")) == 2
    assert "unknown query op: 'bogus'" in capsys.readouterr().err

    # the console entry exits with main's code
    for x, code in (("0", 0), ("a,b", 2)):
        with pytest.raises(SystemExit) as exc:
            run(["query", "subdiff", "--instance", inst, "--x", x])
        assert exc.value.code == code
    capsys.readouterr()


def test_query_stdout_is_json_dumps_of_the_answer(tmp_path, capsys):
    """Each op prints ``json.dumps(answer, sort_keys=True, indent=2)`` and a newline."""
    sum_doc = {"type": "sum", "parts": [ONE_NORM_DOC] * 3}
    cases = [
        ("subdiff", {"f": sum_doc}, "0,0"),
        ("restricted-subdiff", {"f": sum_doc, "S": [[1.0, 1.0]], "zeta": [0.0]}, "0"),
        ("marginal", {"marginal": {"f": QUAD_DOC, "S": [[1.0], [-1.0]]}}, "-0.5"),
        (
            "argmin-member",
            {"f": FLAT_DOC, "domain": {"inequalities": [{"g": [1.0], "h": 0.25}], "box_radius": 3.0}},
            "0.5",
        ),
    ]
    for op, doc, x in cases:
        config = parse_args(["query", op, "--instance", _write(tmp_path / f"{op}.json", doc), "--x", x])
        assert main(config) == 0
        assert capsys.readouterr().out == json.dumps(_run_query(config), sort_keys=True, indent=2) + "\n"
