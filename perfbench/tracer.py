"""Spans and counters around treeval's layer entry points, from outside.

`install` replaces each entry point by a wrapper in the module or class
that defines it and in every ``treeval`` module namespace that bound the
same function object under any name (``padic`` does ``from
treeval.maclane import decompose``; ``fileio`` binds ``formulas.parse``
as ``parse_formula``).  A wrapper records nothing while the tracer is
inactive, so set-up work and output checks stay out of the trace.

A span is ``(name, start, end, parent, op)``: the parent is the index of
the enclosing span and ``op`` the index of the benchmark operation.
Self time is a span's duration minus the durations of its direct
children.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict

ENTRY_POINTS = (
    "gf.poly_factor",
    "qfactor.factor_over_Q",
    "maclane.decompose",
    "numfield.factor_over_field",
    "numfield.splitting_field",
    "numfield.automorphisms",
    "padic.padic_handles",
    "padic.extend_valuation",
    "funcfield.gauss_extend",
    "structures.enumerate_structure_extensions",
    "structures.fiber_report",
    "trees.ChoiceSystem.fiber_sizes",
    "formulas.parse",
    "formulas.evaluate",
    "measure.measure_over",
    "measure.check_axioms",
    "decide.decide_psi",
    "fileio.parse_structure",
    "cli.main",
)
# Hot enough that a span per call would dominate the run: counted only.
COUNTED = ("polys.Poly.divmod", "gf.FF.inv")
IMPORT_SPAN = "cli.import"
SPANNED = ENTRY_POINTS + (IMPORT_SPAN,)


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.counts = dict.fromkeys(COUNTED, 0)
        self.active = False
        self.op = None
        self._stack: list[int] = []

    def span_wrapper(self, name, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (name, start, end, parent, self.op)

        return traced

    def count_wrapper(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if self.active:
                counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def add_span(self, name, start, end):
        """Record a span measured without a wrapper (the CLI import)."""
        self.spans.append((name, start, end, None, self.op))


def install(tracer: Tracer) -> None:
    """Wrap every entry point of ENTRY_POINTS and COUNTED."""
    for dotted in ENTRY_POINTS + COUNTED:
        importlib.import_module("treeval." + dotted.split(".")[0])
    modules = [
        m for n, m in list(sys.modules.items())
        if n == "treeval" or n.startswith("treeval.")
    ]
    for dotted in ENTRY_POINTS + COUNTED:
        modname, *path = dotted.split(".")
        owner = sys.modules["treeval." + modname]
        for attr in path[:-1]:
            owner = getattr(owner, attr)
        original = getattr(owner, path[-1])
        if dotted in COUNTED:
            wrapper = tracer.count_wrapper(dotted, original)
        else:
            wrapper = tracer.span_wrapper(dotted, original)
        setattr(owner, path[-1], wrapper)
        if len(path) == 1:
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is original:
                        setattr(mod, key, wrapper)


def layer_totals(spans) -> tuple[dict, dict]:
    """Per span name: number of calls and summed self time in seconds."""
    child_time: dict = defaultdict(float)
    for name, start, end, parent, _ in spans:
        if parent is not None:
            child_time[parent] += end - start
    calls = dict.fromkeys(SPANNED, 0)
    self_s = dict.fromkeys(SPANNED, 0.0)
    for sid, (name, start, end, _, _) in enumerate(spans):
        calls[name] += 1
        self_s[name] += end - start - child_time[sid]
    return calls, self_s
