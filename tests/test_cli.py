"""Tests for the command line front end, run in-process via main()."""

import json

import numpy as np
import pytest
from numpy.testing import assert_allclose

from convexkit import restriction
from convexkit.cli import CliConfig, _run_query, build_parser, main, parse_args

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
    capsys.readouterr()


def test_query_subdiff(tmp_path, capsys):
    inst = _write(tmp_path / "abs.json", ABS_DOC)
    rc = main(parse_args(["query", "subdiff", "--instance", inst, "--x", "0"]))
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc == {"generators": [[1.0], [-1.0]]}


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
