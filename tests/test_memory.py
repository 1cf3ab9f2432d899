"""Memory stays bounded when respo is used as a long-lived library: no
module-level cache holds ABoxes, facts or OMQs (only the TBox saturation
is cached), and repeated scoring of fresh instances or fresh OMQs retains
nothing."""

import gc
import importlib
import inspect
import pkgutil
import tracemalloc

import pytest

import respo
from respo.generators import Graph, gen_mvc
from respo.model import ABox, CQ, Fact, OMQ, TBox, UCQ, concept_atom, const, role_atom, var
from respo.shapley import score_all


def test_no_cache_keyed_by_an_abox_or_a_fact():
    """Only the TBox saturation is cached: no cache holds an ABox, a fact or
    an OMQ (OMQ-only work lives in a `shapley.Plan` per call)."""
    keyed_by_data, cached = set(), set()
    for info in pkgutil.iter_modules(respo.__path__):
        module = importlib.import_module(f"respo.{info.name}")
        for fn in vars(module).values():
            if not inspect.isfunction(inspect.unwrap(fn)) or not fn.__module__.startswith("respo"):
                continue
            name = f"{fn.__module__}.{fn.__qualname__}"
            if {"abox", "fact"} & set(inspect.signature(fn).parameters):
                keyed_by_data.add(name)
            if hasattr(fn, "cache_info"):
                cached.add(name)
    assert "respo.reasoner.is_consistent" in keyed_by_data
    assert cached == {"respo.reasoner.saturate"}
    assert not cached & keyed_by_data


def mvc_instance(prefix: str) -> tuple[ABox, OMQ]:
    """Minimal vertex covers of a 6-cycle whose names all carry the prefix."""
    vertices = tuple(f"{prefix}v{i}" for i in range(6))
    edges = tuple((vertices[i], vertices[(i + 1) % 6]) for i in range(6))
    tbox, abox, _ = gen_mvc(Graph(vertices, edges))
    goal = f"{prefix}g"
    facts = tuple(Fact(prefix + f.label, f.predicate, (goal,)) for f in abox)
    query = UCQ((CQ((concept_atom("Covered", const(goal)),)),))
    return ABox(facts), OMQ(tbox, query)


def test_repeated_scoring_retains_no_memory():
    retained = []
    tracemalloc.start()
    try:
        for i in range(4):
            abox, omq = mvc_instance(f"run{i}")
            assert score_all(abox, omq).histogram == {3: 2, 4: 3}
            del abox, omq
            gc.collect()
            retained.append(tracemalloc.get_traced_memory()[0])
    finally:
        tracemalloc.stop()
    # The first call also pays one-time imports; the list of readings
    # itself grows by a few bytes per call.
    assert retained[3] - retained[1] < 1024, retained


def fresh_omq_instance(prefix: str) -> tuple[ABox, OMQ]:
    """An interaction-free OMQ A(?x), r(?x, ?y) over an empty TBox whose
    predicate names and constants all carry the prefix, with three facts."""
    a, r = f"{prefix}A", f"{prefix}r"
    query = CQ((concept_atom(a, var("x")), role_atom(r, var("x"), var("y"))))
    facts = (
        Fact(f"{prefix}f0", a, (f"{prefix}c",)),
        Fact(f"{prefix}f1", r, (f"{prefix}c", f"{prefix}d")),
        Fact(f"{prefix}f2", r, (f"{prefix}c", f"{prefix}e")),
    )
    return ABox(facts), OMQ(TBox(), query)


@pytest.mark.parametrize("method", ["partition", "if"])
def test_scoring_fresh_omqs_retains_no_memory(method):
    retained = []
    tracemalloc.start()
    try:
        for i in range(4):
            abox, omq = fresh_omq_instance(f"{method}{i}")
            assert score_all(abox, omq, method=method).histogram == {2: 2}
            del abox, omq
            gc.collect()
            retained.append(tracemalloc.get_traced_memory()[0])
    finally:
        tracemalloc.stop()
    assert retained[3] - retained[1] < 256, retained
