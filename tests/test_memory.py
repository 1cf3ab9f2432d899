"""Memory stays bounded when respo is used as a long-lived library: no
module-level cache holds ABoxes or facts, and repeated scoring of fresh
instances retains nothing."""

import gc
import importlib
import inspect
import pkgutil
import tracemalloc

import respo
from respo.generators import Graph, gen_mvc
from respo.model import ABox, CQ, Fact, OMQ, UCQ, concept_atom, const
from respo.shapley import score_all


def test_no_cache_keyed_by_an_abox_or_a_fact():
    keyed_by_data, cached = set(), set()
    for info in pkgutil.iter_modules(respo.__path__):
        module = importlib.import_module(f"respo.{info.name}")
        for fn in vars(module).values():
            if not inspect.isfunction(inspect.unwrap(fn)):
                continue
            if {"abox", "fact"} & set(inspect.signature(fn).parameters):
                name = f"{fn.__module__}.{fn.__qualname__}"
                keyed_by_data.add(name)
                if hasattr(fn, "cache_info"):
                    cached.add(name)
    assert "respo.reasoner.is_consistent" in keyed_by_data
    assert cached == set()


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
