"""Tests for the package's public surface."""

import importlib.util
from pathlib import Path

import convexkit

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def test_every_export_resolves():
    """Each name in ``__all__`` is bound on the package, so no export outlives its definition."""
    missing = [name for name in convexkit.__all__ if not hasattr(convexkit, name)]
    assert missing == []


def test_benchmark_binding_sites_resolve():
    """Every (module, attribute) the benchmark's tracer wraps is still bound, so no refactor drops a span."""
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    tables = (tracing.ITEM_SITES, tracing.SUITE_SITES, tracing.LAYER_SITES)
    bindings = [site for table in tables for sites, _, _ in table.values() for site in sites]
    assert len(bindings) > 20
    assert [(m.__name__, attr) for m, attr in bindings if not hasattr(m, attr)] == []
