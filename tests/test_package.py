"""Tests for the package's public surface."""

import ast
import contextlib
import importlib.util
import json
import re
from pathlib import Path

import pytest

import convexkit

BENCH = Path(__file__).resolve().parents[1] / "bench"
README = BENCH.parent / "README.md"
TRACING = BENCH / "tracing.py"
SRC = Path(convexkit.__file__).resolve().parent
# aliases bound only so that the benchmark's tracer can wrap them
BENCH_ALIASES = {("marginal", "solve_anchor"), ("restriction", "kernel"), ("restriction", "solve_anchor")}


def test_every_export_resolves():
    """Each name in ``__all__`` is bound on the package, so no export outlives its definition."""
    missing = [name for name in convexkit.__all__ if not hasattr(convexkit, name)]
    assert missing == []


def test_src_imports_are_used():
    """No module but ``__init__`` imports a name it never reads, except the aliases the benchmark wraps."""
    unused = set()
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imports = [n for n in ast.walk(tree) if isinstance(n, (ast.Import, ast.ImportFrom))]
        bound = {(a.asname or a.name).split(".")[0] for n in imports if getattr(n, "module", None) != "__future__" for a in n.names}
        read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        unused |= {(path.stem, name) for name in bound - read}
    assert len(list(SRC.glob("*.py"))) > 10
    assert sorted(unused - BENCH_ALIASES) == []


def test_stacked_products_go_through_linalg():
    """Outside ``linalg`` no ``@`` has an operand subscripted with None: every batched matmul is ``rows_dot`` or ``row_dots``."""

    def stacked(node):
        index = node.slice.elts if isinstance(node.slice, ast.Tuple) else [node.slice]
        return any(isinstance(i, ast.Constant) and i.value is None for i in index)

    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "linalg.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult):
                if any(isinstance(side, ast.Subscript) and stacked(side) for side in (node.left, node.right)):
                    found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_argmin_calls_no_linalg_routine_but_norm():
    """``argmin.py`` reaches ``np.linalg`` for ``norm`` alone: its exact solves are the simplex's pivots, with no LAPACK step."""
    tree = ast.parse((SRC / "argmin.py").read_text(encoding="utf-8"))
    called = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Attribute) and node.value.attr == "linalg":
            called.add(node.attr)
    assert called == {"norm"}
    assert not any(isinstance(node, ast.ImportFrom) and "linalg" in (node.module or "") and node.level == 0 for node in ast.walk(tree))


def test_src_private_definitions_are_read():
    """Every private function or class in ``src/convexkit`` is read somewhere in ``src/``, so none outlives its last caller."""
    defined, read = set(), set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) and node.name.startswith("_") and not node.name.endswith("__"):
                defined.add((path.stem, node.name))
            elif isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.alias):
                read.add(node.name)
    assert len(defined) > 20
    assert sorted((module, name) for module, name in defined if name not in read) == []


def test_readme_library_example_runs():
    """README's ``python`` block runs as written and gives what its comments state."""
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)
    assert len(blocks) == 1
    scope = {}
    exec(compile(blocks[0], str(README), "exec"), scope)
    assert convexkit.evaluate(scope["f"], (1.0, 1.0)) == 1.0  # max(|r1|, |r2|), not the 1-norm's 2
    P = convexkit.restricted_subdifferential(scope["g"], [0.0])
    u = [[0.5, -0.5], [-0.5, 0.5]]
    assert convexkit.support_function(P, u).tolist() == pytest.approx([0.5, 0.5], abs=1e-15)  # [-1, 1] * (1, -1)/2
    assert (scope["w"].value, scope["w"].argmin.tolist()) == (2.0, [1.0, 1.0])
    assert scope["cert"].value == 0.0
    assert scope["rep"].summary == {"pass": 4, "fail": 0, "skip": 0} and scope["rep"].all_passed


def test_benchmark_binding_sites_resolve():
    """Every (module, attribute) the benchmark's tracer wraps is still bound, so no refactor drops a span."""
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    tables = (tracing.ITEM_SITES, tracing.SUITE_SITES, tracing.LAYER_SITES)
    bindings = [site for table in tables for sites, _, _ in table.values() for site in sites]
    assert len(bindings) > 20
    assert [(m.__name__, attr) for m, attr in bindings if not hasattr(m, attr)] == []


@pytest.mark.parametrize("workload", ["lemma1-fibers", "lemma2-marginal", "lemma3-argmin", "query-oneshot"])
def test_benchmark_passes_match_recorded_digests(workload, monkeypatch, tmp_path):
    """The first passes of each benchmark workload, run unwrapped as bench/record.py runs them, give their recorded digests.

    16 passes of lemma1-fibers, so a change that moves the last bit of a
    fiber basis or of a lemma1 draw fails here, not only in the benchmark;
    64 of lemma2-marginal, so does one that moves a simplex solution or a
    stacked marginal query; 64 of lemma3-argmin, so does a harvest change
    that moves one member; 8 of query-oneshot, so does one that moves a
    one-shot marginal query.
    """
    monkeypatch.syspath_prepend(str(BENCH))
    import workloads
    from tracing import Tracer

    class Unwrapped(Tracer):
        @contextlib.contextmanager
        def installed(self):
            yield self

    recorded = json.loads((BENCH / "digests.json").read_text())[workload]["digests"]
    for q in range({"lemma1-fibers": 16, "lemma2-marginal": 64, "lemma3-argmin": 64, "query-oneshot": 8}[workload]):
        result = workloads.run_pass(workload, q, Unwrapped(False), tmp_path)
        assert (result.failed, result.problems) == (0, [])
        assert result.digest == recorded[str(q)], f"{workload} pass {q}"


@pytest.mark.parametrize("workload", ["lemma1-fibers", "lemma2-marginal", "lemma3-argmin", "query-oneshot"])
def test_traced_benchmark_pass_matches_recorded_digest(workload, monkeypatch, tmp_path):
    """Pass 0 of each benchmark workload, run with every layer wrapper of ``bench/tracing.py``, gives its recorded digest.

    The wrappers and their extras call the library as a traced benchmark run
    does, so a library change that breaks one (an extra reading an attribute
    a result no longer has, say) fails here, not only in the benchmark.
    """
    monkeypatch.syspath_prepend(str(BENCH))
    import workloads
    from tracing import Tracer

    recorded = json.loads((BENCH / "digests.json").read_text())[workload]["digests"]
    tracer = Tracer(True)
    result = workloads.run_pass(workload, 0, tracer, tmp_path)
    assert (result.failed, result.problems) == (0, [])
    assert result.digest == recorded["0"]
    assert not any(name.endswith(".error") for name, *_ in tracer.spans)
