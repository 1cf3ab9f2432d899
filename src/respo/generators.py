"""Benchmark instance generators built from the hardness constructions:

  * minimal-vertex-cover counting via concept conjunction chains,
  * reachability counting via a qualified-existential axiom,
  * perfect-matching counting via an exactly-one gadget database with a
    CQ/UCQ pair whose minimal-support difference equals the number of
    perfect matchings.

The tests check each generator against an independent combinatorial
count of what it encodes, in `tests/oracles.py`.
"""

from __future__ import annotations

from .model import (
    ABox,
    Atom,
    CQ,
    ConjunctionAxiom,
    Fact,
    InputError,
    QualifiedExistsAxiom,
    Role,
    TBox,
    UCQ,
    concept_atom,
    const,
    role_atom,
    value_class,
    var,
)


@value_class()
class Graph:
    vertices: tuple[str, ...]
    edges: tuple[tuple[str, str], ...]
    directed: bool = False
    part_a: tuple[str, ...] = ()
    part_b: tuple[str, ...] = ()

    def __post_init__(self):
        vs = set(self.vertices)
        for (u, v) in self.edges:
            if u not in vs or v not in vs:
                raise InputError(f"edge ({u},{v}) references an undeclared vertex")
        if self.part_a or self.part_b:
            parts = set(self.part_a) | set(self.part_b)
            if set(self.part_a) & set(self.part_b):
                raise InputError("bipartition sides overlap")
            if parts != vs:
                raise InputError("bipartition must cover all vertices")
            for (u, v) in self.edges:
                if (u in self.part_a) == (v in self.part_a):
                    raise InputError(f"edge ({u},{v}) stays inside one side")

    @property
    def bipartite(self) -> bool:
        return bool(self.part_a or self.part_b)


def parse_graph(text: str) -> Graph:
    """Edge-list format: one "u v" pair per line, '#' comments; an optional
    header "bipartite: A=a1,a2 B=b1,b2" declares a bipartition; an optional
    "directed" line marks the edges as directed; "vertex: u" declares an
    isolated vertex."""
    edges: list[tuple[str, str]] = []
    vertices: list[str] = []
    part_a: tuple[str, ...] = ()
    part_b: tuple[str, ...] = ()
    directed = False

    def note(v: str):
        if v not in vertices:
            vertices.append(v)

    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line == "directed":
            directed = True
            continue
        if line.startswith("bipartite:"):
            body = line[len("bipartite:"):].strip()
            sides = dict(
                chunk.split("=", 1) for chunk in body.split() if "=" in chunk
            )
            part_a = tuple(v for v in sides.get("A", "").split(",") if v)
            part_b = tuple(v for v in sides.get("B", "").split(",") if v)
            for v in part_a + part_b:
                note(v)
            continue
        if line.startswith("vertex:"):
            note(line[len("vertex:"):].strip())
            continue
        parts = line.split()
        if len(parts) != 2:
            raise InputError(f"bad edge line {line!r}")
        u, v = parts
        note(u)
        note(v)
        edges.append((u, v))
    return Graph(tuple(vertices), tuple(edges), directed, part_a, part_b)


# ---------------------------------------------------------------------------
# Minimal vertex covers
# ---------------------------------------------------------------------------

def gen_mvc(graph: Graph) -> tuple[TBox, ABox, UCQ]:
    """Vertex concepts feed per-edge concepts (through the conjunction
    shape A & A <= B), which chain pairwise into the goal concept; the
    minimal supports of the goal query are exactly the minimal vertex
    covers."""
    if not graph.edges:
        raise InputError("the vertex-cover construction needs at least one edge")
    horn: list = []
    edge_names = []
    for (u, v) in graph.edges:
        b = f"Edge_{u}_{v}"
        edge_names.append(b)
        horn.append(ConjunctionAxiom(f"In_{u}", f"In_{u}", b))
        horn.append(ConjunctionAxiom(f"In_{v}", f"In_{v}", b))
    running = edge_names[0]
    if len(edge_names) == 1:
        horn.append(ConjunctionAxiom(running, running, "Covered"))
    else:
        for i, b in enumerate(edge_names[1:], start=2):
            target = "Covered" if i == len(edge_names) else f"Chain_{i}"
            horn.append(ConjunctionAxiom(running, b, target))
            running = target
    tbox = TBox(frozenset(), frozenset(horn))
    facts = tuple(
        Fact(f"f{i}", f"In_{u}", ("g",)) for i, u in enumerate(graph.vertices)
    )
    query = UCQ((CQ((concept_atom("Covered", const("g")),)),))
    return tbox, ABox(facts), query


# ---------------------------------------------------------------------------
# Reachability
# ---------------------------------------------------------------------------

def gen_reachability(graph: Graph, source: str, target: str) -> tuple[TBox, ABox, UCQ]:
    """Edges as role facts, the target marked, propagation through
    exists edge.Reach <= Reach; minimal supports are the edge sets of the
    simple source-target paths, each joined by the target marker."""
    if source not in graph.vertices or target not in graph.vertices:
        raise InputError("source/target must be graph vertices")
    tbox = TBox(
        frozenset(),
        frozenset({QualifiedExistsAxiom(Role("edge"), "Reach", "Reach")}),
    )
    facts = [
        Fact(f"e{i}", "edge", (u, v)) for i, (u, v) in enumerate(graph.edges)
    ]
    facts.append(Fact("goal", "Reach", (target,)))
    query = UCQ((CQ((concept_atom("Reach", const(source)),)),))
    return tbox, ABox(tuple(facts)), query


# ---------------------------------------------------------------------------
# Perfect matchings
# ---------------------------------------------------------------------------

@value_class()
class MatchingInstance:
    abox: ABox
    q1: UCQ
    q2: UCQ


def _exactly_one_chain(row: int, xs: list, taken: set[str]) -> list[Atom]:
    """Chained exists-unique gadgets over the row's variables: each gadget
    consumes the running result and one input, blocking whenever two
    inputs are true, and the chain's output must be One."""
    atoms: list[Atom] = []
    if len(xs) == 1:
        atoms.append(concept_atom(f"One_{row}", xs[0]))
        return atoms
    current = xs[0]
    for j, x in enumerate(xs[1:], start=1):
        w = var(f"w_{row}_{j}")
        z = var(f"z_{row}_{j}")
        taken.update((w.name, z.name))
        atoms.append(role_atom(f"ORina_{row}_{j}", current, w))
        atoms.append(role_atom(f"ORinb_{row}_{j}", x, w))
        atoms.append(role_atom(f"ORout_{row}_{j}", w, z))
        current = z
    atoms.append(concept_atom(f"One_{row}", current))
    return atoms


def gen_perfect_matching(graph: Graph) -> MatchingInstance:
    """The fixed five-constant gadget database plus the query pair: q1
    counts edge subsets covering each left vertex exactly once; q2 adds,
    per right vertex, the all-zero column constraint; their minimal-support
    difference is the number of perfect matchings."""
    if not graph.bipartite:
        raise InputError("the matching construction needs a bipartite graph")
    if len(graph.part_a) != len(graph.part_b) or not graph.part_a:
        raise InputError("the matching construction needs |A| = |B| >= 1")
    a_index = {v: i + 1 for i, v in enumerate(graph.part_a)}
    b_index = {v: j + 1 for j, v in enumerate(graph.part_b)}
    n = len(graph.part_a)

    edges: set[tuple[int, int]] = set()
    for (u, v) in graph.edges:
        if u in a_index:
            edges.add((a_index[u], b_index[v]))
        else:
            edges.add((a_index[v], b_index[u]))

    facts: list[Fact] = []
    k = 0

    def add(pred: str, *args: str):
        nonlocal k
        facts.append(Fact(f"f{k}", pred, args))
        k += 1

    for i in range(1, n + 1):
        for j in range(1, n + 1):
            add(f"ORina_{i}_{j}", "0", "00")
            add(f"ORina_{i}_{j}", "0", "01")
            add(f"ORina_{i}_{j}", "1", "10")
            add(f"ORinb_{i}_{j}", "0", "00")
            add(f"ORinb_{i}_{j}", "0", "10")
            add(f"ORinb_{i}_{j}", "1", "01")
            add(f"ORout_{i}_{j}", "00", "0")
            add(f"ORout_{i}_{j}", "01", "1")
            add(f"ORout_{i}_{j}", "10", "1")
            add(f"Val_{i}_{j}", "0")
            add(f"Val_{i}_{j}", "1")
    for i in range(1, n + 1):
        add(f"One_{i}", "1")
        add(f"Zero_{i}", "0")

    taken: set[str] = set()
    q1_atoms: list[Atom] = []
    for (i, j) in sorted(edges):
        x = var(f"x_{i}_{j}")
        taken.add(x.name)
        q1_atoms.append(concept_atom(f"Val_{i}_{j}", x))
    for i in range(1, n + 1):
        row_vars = [var(f"x_{i}_{j}") for (i2, j) in sorted(edges) if i2 == i]
        if row_vars:
            q1_atoms.extend(_exactly_one_chain(i, row_vars, taken))
        else:
            # Isolated left vertex: no perfect matching exists, so this
            # row contributes an unsatisfiable block (One forces 1, but
            # OR-outputs never start at 1).  Row i has no gadget chain of
            # its own, so the block stays self-join free.
            w = var(f"w_{i}_0")
            w2 = var(f"w_{i}_1")
            q1_atoms.append(concept_atom(f"One_{i}", w))
            q1_atoms.append(role_atom(f"ORout_{i}_1", w, w2))
    q1 = CQ(tuple(q1_atoms))

    # Column queries index Zero positionally (Zero_1 ... Zero_k), not by
    # row: the Zero-fact sets of two columns are then nested by degree, so
    # each qualifying edge subset yields exactly one minimal support of q2
    # however many right vertices it misses.
    disjuncts = []
    for j in range(1, n + 1):
        column_rows = sorted(i for (i, j2) in edges if j2 == j)
        zero_atoms = [
            concept_atom(f"Zero_{pos}", var(f"x_{i}_{j}"))
            for pos, i in enumerate(column_rows, start=1)
        ]
        disjuncts.append(CQ(tuple(list(q1.atoms) + zero_atoms)))
    q2 = UCQ(tuple(disjuncts))

    return MatchingInstance(ABox(tuple(facts)), UCQ((q1,)), q2)
