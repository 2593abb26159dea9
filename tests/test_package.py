"""Tests for the package's public surface."""

import ast
import contextlib
import importlib.util
import json
from pathlib import Path

import pytest

import convexkit

BENCH = Path(__file__).resolve().parents[1] / "bench"
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
