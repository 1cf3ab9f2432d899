"""Span tracing of respo's public functions, from outside the package.

`install` wraps each function in `TRACED` in every `respo.*` module
namespace that binds it: several modules import functions by name, so
patching only the defining module would miss their calls.  Each call
records a span `[name, start, end, parent span, op id]` in memory.
`summary` turns the spans into calls and self time per function, where
self time is a span's duration minus the durations of its child spans.

Functions missing from the package under test are skipped and report zero
calls, so the tracer keeps working when a later version drops one.
"""

from __future__ import annotations

import functools
import importlib
import pkgutil
import sys
from time import perf_counter

#: Functions whose calls and self time the traced run reports, as
#: `<module>.<function>` below the `respo` package.
TRACED = (
    "cli.main",
    "textio.parse_tbox",
    "textio.parse_abox",
    "textio.parse_query",
    "textio.render_scores_json",
    "shapley.score_all",
    "shapley.per_fact_counts",
    "reasoner.is_consistent",
    "reasoner.saturate_horn",
    "reasoner.entails_ground_atom",
    "reasoner.entails_ucq",
    "reasoner.holds_under_assignment",
    "rewriter.rewrite",
    "queries.query_hom_exists",
    "queries.canonical_form",
    "support.build_counting_queries",
    "support.count_homomorphisms",
    "support.partition_histogram",
    "support.enumerate_minimal_supports",
    "support.make_subset_evaluator",
    "interaction_free.check_interaction_free",
    "interaction_free.count_ms_interaction_free",
    "interaction_free.build_weighted_db",
    "interaction_free.atom_support_weight",
    "interaction_free.extend_with_anonymous",
    "interaction_free.tree_decompose",
    "interaction_free.weighted_eval",
)

#: Span name of the subset evaluators that `make_subset_evaluator` returns.
EVALUATOR = "support.evaluator"
#: Counter names filled from return values.
POSITIVE_WEIGHTS = "interaction_free.atom_support_weight.positive"
SUPPORTS_FOUND = "support.enumerate_minimal_supports.found"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[str, int] = {}
        self.op = 0
        self._stack: list[int] = []

    def wrap(self, name: str, fn, after=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op]
            spans.append(span)
            stack.append(index)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            return result if after is None else after(result)

        return traced

    def count(self, name: str, n: int = 1):
        self.counters[name] = self.counters.get(name, 0) + n

    def summary(self) -> dict:
        """Calls and self seconds per span name, plus the counters."""
        calls: dict[str, int] = {}
        self_s: dict[str, float] = {}
        for name, start, end, parent, _op in self.spans:
            duration = end - start
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + duration
            if parent >= 0:
                parent_name = self.spans[parent][0]
                self_s[parent_name] = self_s.get(parent_name, 0.0) - duration
        return {
            "calls": calls,
            "self_s": self_s,
            "counters": dict(self.counters),
        }


def _hooks(tracer: Tracer) -> dict:
    def positive(weight):
        if weight > 0:
            tracer.count(POSITIVE_WEIGHTS)
        return weight

    def found(supports):
        tracer.count(SUPPORTS_FOUND, len(supports))
        return supports

    def evaluator(fn):
        return tracer.wrap(EVALUATOR, fn)

    return {
        "interaction_free.atom_support_weight": positive,
        "support.enumerate_minimal_supports": found,
        "support.make_subset_evaluator": evaluator,
    }


def install(tracer: Tracer):
    """Patch every traced function the package under test has."""
    import respo

    for info in pkgutil.iter_modules(respo.__path__):
        importlib.import_module(f"respo.{info.name}")
    modules = [m for n, m in sys.modules.items() if n == "respo" or n.startswith("respo.")]
    hooks = _hooks(tracer)
    for name in TRACED:
        module_name, fn_name = name.rsplit(".", 1)
        original = getattr(sys.modules.get(f"respo.{module_name}"), fn_name, None)
        if original is None:
            continue
        wrapper = tracer.wrap(name, original, hooks.get(name))
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
