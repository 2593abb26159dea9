"""In-memory spans around the library's public functions.

The library binds names with ``from ... import``, so one function can be
reached through several module attributes (``marginal.kernel`` and
``restriction.kernel`` are both ``linalg.kernel``).  A wrapper is installed at
every such binding site, which is what makes a span appear wherever the call
is made.  Installation is undone when the ``installed`` block ends, and the
wrappers return the wrapped function's result unchanged.

A span is ``[name, start, end, parent, item, extra]``: ``parent`` is the index
of the enclosing span (-1 for a root) and ``item`` the id of the trial or
query the span belongs to.  A span's self time is its duration minus the
durations of its direct children; the benchmark is single threaded, so
children never overlap.
"""

from __future__ import annotations

import contextlib
import time

from convexkit import argmin, cli, functions, harness, linalg, marginal, restriction

perf = time.perf_counter


def _family(args, kwargs, result):
    return "pwl" if isinstance(args[0], functions.MaxAffine) else "quad"


def _lp_shape(args, kwargs, result):
    rows = 0
    for key in ("A_ub", "A_eq"):
        block = kwargs.get(key)
        if block is not None:
            rows += len(block)
    return rows, len(args[0])


def _generator_count(args, kwargs, result):
    return result.generators.shape[0]


def _byte_count(args, kwargs, result):
    return len(result.encode())


# span name -> (binding sites, status of the result or None, extra data or None)
ITEM_SITES = {
    "restriction.lemma1_check": ([(restriction, "lemma1_check")], None, _family),
    "marginal.lemma2_check": ([(marginal, "lemma2_check")], None, _family),
    "argmin.lemma3_check": ([(argmin, "lemma3_check")], None, _family),
}
SUITE_SITES = {
    "harness.run_suite": ([(cli, "run_suite")], None, None),
}
LAYER_SITES = {
    "report.report_to_json": ([(cli, "report_to_json")], None, _byte_count),
    "restriction.make_fiber": ([(harness, "make_fiber"), (restriction, "make_fiber")], None, None),
    "restriction.restricted_subdifferential": (
        [(restriction, "restricted_subdifferential"), (cli, "restricted_subdifferential")],
        None,
        None,
    ),
    "marginal.marginalize": ([(marginal, "marginalize")], None, None),
    "marginal.marginal_value": ([(marginal, "marginal_value")], lambda w: w.status, None),
    "argmin.minimize_over": ([(argmin, "minimize_over")], lambda c: c.status, None),
    "argmin.feasible_point": ([(argmin, "feasible_point")], None, None),
    "argmin.argmin_membership": ([(argmin, "argmin_membership")], None, None),
    "simplex.solve_lp": ([(marginal, "solve_lp"), (argmin, "solve_lp")], None, _lp_shape),
    "linalg.kernel": ([(marginal, "kernel"), (restriction, "kernel")], None, None),
    "linalg.solve_anchor": ([(marginal, "solve_anchor"), (restriction, "solve_anchor")], None, None),
    "linalg.row_space": ([(marginal, "row_space"), (linalg, "row_space")], None, None),
    "functions.subdifferential": (
        [(functions, "subdifferential"), (restriction, "subdifferential"), (cli, "subdifferential")],
        None,
        _generator_count,
    ),
    "functions.evaluate": ([(functions, "evaluate"), (cli, "evaluate")], None, None),
}


class Tracer:
    """Span recorder for one pass.

    With ``layers`` false only the trial checks and ``run_suite`` are wrapped:
    one clock pair per trial and per suite, which is all the untraced passes
    need.  With ``layers`` true every site in ``LAYER_SITES`` is wrapped too.
    """

    def __init__(self, layers: bool):
        self.layers = layers
        self.spans: list[list] = []
        self.item: int | None = None
        self._items = 0
        self._stack: list[int] = []

    def call(self, name, fn, args=(), kwargs=None, *, status=None, extra=None, item=False):
        """Run ``fn(*args, **kwargs)`` inside a span and return its result."""
        kwargs = kwargs or {}
        if item:
            outer_item, self.item = self.item, self._items
            self._items += 1
        index = len(self.spans)
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.item, None]
        self.spans.append(rec)
        self._stack.append(index)
        start = perf()
        try:
            result = fn(*args, **kwargs)
        except Exception:
            if status is not None:
                rec[0] = name + ".error"
            raise
        finally:
            rec[1], rec[2] = start, perf()
            self._stack.pop()
            if item:
                self.item = outer_item
        if status is not None:
            rec[0] = f"{name}.{status(result)}"
        if extra is not None:
            rec[5] = extra(args, kwargs, result)
        return result

    def _wrap(self, name, fn, status, extra, item):
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, status=status, extra=extra, item=item)

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Install the wrappers for the duration of the block."""
        groups = [(ITEM_SITES, True), (SUITE_SITES, False)]
        if self.layers:
            groups.append((LAYER_SITES, False))
        saved = []
        try:
            for sites, item in groups:
                for name, (bindings, status, extra) in sites.items():
                    for module, attr in bindings:
                        original = getattr(module, attr)
                        saved.append((module, attr, original))
                        setattr(module, attr, self._wrap(name, original, status, extra, item))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def durations(self, names) -> list[tuple[str, float]]:
        """(extra, seconds) of every span whose name is in ``names``."""
        return [(rec[5], rec[2] - rec[1]) for rec in self.spans if rec[0] in names]


def summarize(spans) -> dict[str, dict]:
    """Per span name: calls, total and self seconds, and the extras seen."""
    child = [0.0] * len(spans)
    for rec in spans:
        if rec[3] >= 0:
            child[rec[3]] += rec[2] - rec[1]
    table: dict[str, dict] = {}
    for index, rec in enumerate(spans):
        entry = table.setdefault(rec[0], {"calls": 0, "total_s": 0.0, "self_s": 0.0, "extras": []})
        duration = rec[2] - rec[1]
        entry["calls"] += 1
        entry["total_s"] += duration
        entry["self_s"] += duration - child[index]
        if rec[5] is not None:
            entry["extras"].append(rec[5])
    return table
