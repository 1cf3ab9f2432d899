"""Memory stays bounded when respo is used as a long-lived library: no
module-level cache holds anything (a TBox keeps its own saturation), and
repeated scoring of fresh instances or fresh OMQs retains nothing."""

import gc
import importlib
import inspect
import pkgutil
import tracemalloc

import pytest

import respo
from respo.generators import Graph, gen_mvc
from respo.model import (
    CONCEPT_INCLUSION,
    ABox,
    Axiom,
    CQ,
    Fact,
    OMQ,
    TBox,
    UCQ,
    concept,
    concept_atom,
    const,
    role_atom,
    var,
)
from respo.shapley import score_all
from respo.support import enumerate_minimal_supports


def test_no_cache_keyed_by_an_abox_or_a_fact():
    """No function is cached, so no cache holds an ABox, a fact, an OMQ or
    a TBox (OMQ-only work lives in a `shapley.Plan` per call)."""
    functions, cached = set(), set()
    for info in pkgutil.iter_modules(respo.__path__):
        module = importlib.import_module(f"respo.{info.name}")
        for fn in vars(module).values():
            if not inspect.isfunction(inspect.unwrap(fn)) or not fn.__module__.startswith("respo"):
                continue
            name = f"{fn.__module__}.{fn.__qualname__}"
            functions.add(name)
            if hasattr(fn, "cache_info"):
                cached.add(name)
    assert {"respo.reasoner.is_consistent", "respo.reasoner.saturate"} <= functions
    assert not cached, cached


def mvc_instance(prefix: str) -> tuple[ABox, OMQ]:
    """Minimal vertex covers of a 6-cycle whose names all carry the prefix."""
    vertices = tuple(f"{prefix}v{i}" for i in range(6))
    edges = tuple((vertices[i], vertices[(i + 1) % 6]) for i in range(6))
    tbox, abox, _ = gen_mvc(Graph(vertices, edges))
    goal = f"{prefix}g"
    facts = tuple(Fact(prefix + f.label, f.predicate, (goal,)) for f in abox)
    query = UCQ((CQ((concept_atom("Covered", const(goal)),)),))
    return ABox(facts), OMQ(tbox, query)


@pytest.mark.parametrize("method", ["auto", "brute"])
def test_repeated_scoring_retains_no_memory(method):
    """`auto` takes the provenance pipeline for this Horn-extended TBox;
    brute force keeps its own check."""
    retained = []
    tracemalloc.start()
    try:
        for i in range(4):
            abox, omq = mvc_instance(f"{method}{i}")
            report = score_all(abox, omq, method=method)
            assert report.histogram == {3: 2, 4: 3}
            assert report.method == ("provenance" if method == "auto" else "brute")
            del report, abox, omq
            gc.collect()
            retained.append(tracemalloc.get_traced_memory()[0])
    finally:
        tracemalloc.stop()
    # The first call also pays one-time imports; the list of readings
    # itself grows by a few bytes per call.
    assert retained[3] - retained[1] < 1024, retained


def fresh_omq_instance(prefix: str, axioms: bool) -> tuple[ABox, OMQ]:
    """An interaction-free OMQ A(?x), r(?x, ?y) over an empty TBox, or over
    the one-axiom TBox B <= A, whose predicate names and constants all
    carry the prefix, with three facts."""
    a, r = f"{prefix}A", f"{prefix}r"
    tbox = TBox(frozenset({Axiom(CONCEPT_INCLUSION, concept(f"{prefix}B"), concept(a))})
                if axioms else frozenset())
    query = CQ((concept_atom(a, var("x")), role_atom(r, var("x"), var("y"))))
    facts = (
        Fact(f"{prefix}f0", a, (f"{prefix}c",)),
        Fact(f"{prefix}f1", r, (f"{prefix}c", f"{prefix}d")),
        Fact(f"{prefix}f2", r, (f"{prefix}c", f"{prefix}e")),
    )
    return ABox(facts), OMQ(tbox, query)


@pytest.mark.parametrize(
    "method, axioms",
    [("partition", False), ("if", False), ("partition", True), ("if", True)],
    ids=["partition", "if", "partition-one-axiom-tbox", "if-one-axiom-tbox"],
)
def test_scoring_fresh_omqs_retains_no_memory(method, axioms):
    retained = []
    tracemalloc.start()
    try:
        for i in range(4):
            abox, omq = fresh_omq_instance(f"{method}{i}", axioms)
            assert score_all(abox, omq, method=method).histogram == {2: 2}
            del abox, omq
            gc.collect()
            retained.append(tracemalloc.get_traced_memory()[0])
    finally:
        tracemalloc.stop()
    assert retained[3] - retained[1] < 256, retained


def test_subset_enumeration_keeps_only_the_supports():
    """Brute-force enumeration holds the supports it found, not every
    subset it evaluated: on a 14-cycle's vertex-cover facts the traced
    peak stays under 1 MB (keeping each evaluated subset took 12 MB).
    The evaluator decides covers directly, the same monotone predicate
    the generated Horn TBox entails, at a fraction of the cost."""
    n = 14
    vertices = tuple(f"v{i}" for i in range(n))
    edges = tuple((vertices[i], vertices[(i + 1) % n]) for i in range(n))
    _, abox, _ = gen_mvc(Graph(vertices, edges))

    def covers(facts: frozenset[Fact]) -> bool:
        chosen = {f.predicate.removeprefix("In_") for f in facts}
        return all(u in chosen or v in chosen for u, v in edges)

    tracemalloc.start()
    try:
        supports = enumerate_minimal_supports(tuple(abox), covers)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(supports) == 51  # minimal vertex covers of a 14-cycle
    assert peak < 1_000_000, peak
