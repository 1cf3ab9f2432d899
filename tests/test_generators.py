import random

import pytest

from respo.generators import (
    Graph,
    MatchingInstance,
    gen_mvc,
    gen_perfect_matching,
    gen_reachability,
    parse_graph,
)
from respo.model import InputError, RespoError, SupportHistogram
from respo.support import make_subset_evaluator

from oracles import (
    count_fms_brute,
    minimal_supports_via_hom_images,
    oracle_count_matchings,
    oracle_count_mvc,
    oracle_simple_paths,
)


def undirected(vertices, edges):
    return Graph(tuple(vertices), tuple(edges))


def bipartite(a, b, edges):
    return Graph(tuple(a) + tuple(b), tuple(edges), part_a=tuple(a), part_b=tuple(b))


def matching_difference(inst: MatchingInstance) -> int:
    m1 = len(minimal_supports_via_hom_images(inst.q1, tuple(inst.abox)))
    m2 = len(minimal_supports_via_hom_images(inst.q2, tuple(inst.abox)))
    return m1 - m2


def test_graph_parsing():
    g = parse_graph("# a square\na b\nb c\nvertex: z\n")
    assert set(g.vertices) == {"a", "b", "c", "z"}
    assert g.edges == (("a", "b"), ("b", "c"))
    gb = parse_graph("bipartite: A=a1,a2 B=b1,b2\na1 b1\na2 b2\n")
    assert gb.bipartite and gb.part_a == ("a1", "a2")
    with pytest.raises(RespoError):
        parse_graph("a b c\n")


def test_graph_validation():
    with pytest.raises(InputError, match="undeclared vertex"):
        Graph(("a",), (("a", "b"),))
    with pytest.raises(InputError, match="stays inside one side"):
        Graph(("a", "b"), (("a", "b"),), part_a=("a", "b"), part_b=())
    with pytest.raises(InputError, match="sides overlap"):
        Graph(("a", "b"), (), part_a=("a", "b"), part_b=("b",))
    with pytest.raises(InputError, match="cover all vertices"):
        Graph(("a", "b", "c"), (("a", "b"),), part_a=("a",), part_b=("b",))


# ---------------------------------------------------------------------------
# MVC
# ---------------------------------------------------------------------------

def test_mvc_examples():
    triangle = undirected("abc", [("a", "b"), ("b", "c"), ("a", "c")])
    tbox, abox, query = gen_mvc(triangle)
    assert tbox.horn_extended
    ev = make_subset_evaluator(tbox, query)
    assert count_fms_brute(tuple(abox), ev).total() == 3

    edge = undirected("uv", [("u", "v")])
    tbox, abox, query = gen_mvc(edge)
    assert count_fms_brute(tuple(abox), make_subset_evaluator(tbox, query)).total() == 2

    path = undirected("abc", [("a", "b"), ("b", "c")])
    tbox, abox, query = gen_mvc(path)
    assert count_fms_brute(tuple(abox), make_subset_evaluator(tbox, query)).total() == 2


def test_mvc_rejects_edgeless():
    with pytest.raises(InputError):
        gen_mvc(undirected("ab", []))


def test_mvc_randomized_against_oracle():
    rng = random.Random(71)
    for _ in range(12):
        n = rng.randint(2, 7)
        vertices = [f"v{i}" for i in range(n)]
        edges = []
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 0.45:
                    edges.append((vertices[i], vertices[j]))
        if not edges:
            continue
        g = undirected(vertices, edges)
        tbox, abox, query = gen_mvc(g)
        got = count_fms_brute(tuple(abox), make_subset_evaluator(tbox, query)).total()
        assert got == oracle_count_mvc(g)


# ---------------------------------------------------------------------------
# Reachability
# ---------------------------------------------------------------------------

def test_reachability_examples():
    g = Graph(("c", "x", "d"), (("c", "x"), ("x", "d"), ("c", "d")), directed=True)
    tbox, abox, query = gen_reachability(g, "c", "d")
    hist = count_fms_brute(tuple(abox), make_subset_evaluator(tbox, query))
    assert hist == {2: 1, 3: 1}

    g2 = Graph(("c", "d"), (), directed=True)
    tbox, abox, query = gen_reachability(g2, "c", "d")
    assert count_fms_brute(tuple(abox), make_subset_evaluator(tbox, query)).total() == 0

    tbox, abox, query = gen_reachability(g2, "c", "c")
    assert count_fms_brute(tuple(abox), make_subset_evaluator(tbox, query)) == {1: 1}


def test_reachability_randomized_against_path_oracle():
    rng = random.Random(73)
    for _ in range(8):
        n = rng.randint(2, 6)
        vertices = [f"v{i}" for i in range(n)]
        edges = []
        for i in range(n):
            for j in range(n):
                if i != j and rng.random() < 0.3 and len(edges) < 11:
                    edges.append((vertices[i], vertices[j]))
        g = Graph(tuple(vertices), tuple(edges), directed=True)
        source, target = vertices[0], vertices[-1]
        tbox, abox, query = gen_reachability(g, source, target)
        hist = count_fms_brute(tuple(abox), make_subset_evaluator(tbox, query))
        paths = oracle_simple_paths(g, source, target)
        shifted = SupportHistogram({length + 1: count for length, count in paths.items()})
        assert hist == shifted


# ---------------------------------------------------------------------------
# Perfect matchings
# ---------------------------------------------------------------------------

def test_matching_examples():
    k22 = bipartite(["a1", "a2"], ["b1", "b2"],
                    [("a1", "b1"), ("a1", "b2"), ("a2", "b1"), ("a2", "b2")])
    assert matching_difference(gen_perfect_matching(k22)) == 2

    k11 = bipartite(["a1"], ["b1"], [("a1", "b1")])
    assert matching_difference(gen_perfect_matching(k11)) == 1

    isolated = bipartite(["a1", "a2"], ["b1", "b2"], [("a1", "b1"), ("a2", "b1")])
    assert matching_difference(gen_perfect_matching(isolated)) == 0


def test_matching_rejects_non_bipartite():
    with pytest.raises(RespoError):
        gen_perfect_matching(undirected("ab", [("a", "b")]))


def _structurally_sjf(cq) -> bool:
    preds = [a.predicate for a in cq.relational_atoms()]
    return len(preds) == len(set(preds))


def _structurally_acyclic(cq) -> bool:
    edges = set()
    for atom in cq.relational_atoms():
        vs = sorted(set(atom.variables()))
        if len(vs) == 2:
            edges.add((vs[0], vs[1]))
        elif len(set(atom.variables())) != len(atom.variables()):
            return False  # self-loop
    parent = {}

    def find(x):
        while parent.setdefault(x, x) != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for (u, v) in edges:
        ru, rv = find(u), find(v)
        if ru == rv:
            return False
        parent[ru] = rv
    return True


def test_matching_queries_sjf_and_acyclic():
    rng = random.Random(79)
    for _ in range(6):
        n = rng.randint(1, 4)
        a = [f"a{i}" for i in range(1, n + 1)]
        b = [f"b{j}" for j in range(1, n + 1)]
        edges = [(x, y) for x in a for y in b if rng.random() < 0.7]
        g = bipartite(a, b, edges)
        inst = gen_perfect_matching(g)
        for disjunct in inst.q1.disjuncts + inst.q2.disjuncts:
            assert _structurally_sjf(disjunct)
            assert _structurally_acyclic(disjunct)
        assert matching_difference(inst) == oracle_count_matchings(g)


def test_matching_oracles():
    k22 = bipartite(["a1", "a2"], ["b1", "b2"],
                    [("a1", "b1"), ("a1", "b2"), ("a2", "b1"), ("a2", "b2")])
    assert oracle_count_matchings(k22) == 2
    assert oracle_count_mvc(undirected("abc", [("a", "b"), ("b", "c"), ("a", "c")])) == 3
    g = Graph(("c",), (), directed=True)
    assert oracle_simple_paths(g, "c", "c") == {0: 1}
