"""The provenance pipeline: minimal supports of a ground atom under a
Horn-extended TBox from the minimal why-provenance fixpoint, checked
against brute force on seeded random KBs and, past brute force's cap,
against the vertex-cover and simple-path oracles."""

import random
import sys
import tracemalloc
from collections import Counter

import pytest

import respo.shapley
from respo.generators import Graph, gen_mvc, gen_reachability
from respo.model import (
    ROLE_INCLUSION,
    ABox,
    Axiom,
    CQ,
    Fact,
    InputError,
    OMQ,
    QualifiedExistsAxiom,
    Role,
    TBox,
    UnsupportedTBoxError,
    concept_atom,
    const,
    role_atom,
    var,
)
from respo.provenance import (
    HornProgram,
    _Antichain,
    ground_atom_query,
    minimal_why_provenance,
    tally_masks,
)
from respo.randgen import CONCEPT_NAMES, ROLE_NAMES, random_consistent_kb, random_horn_kb
from respo.reasoner import SaturatedTBox, is_consistent, saturate
from respo.shapley import Plan, score_all
from respo.support import MinimalSupport
from respo.textio import parse_abox, parse_query, parse_tbox

from oracles import oracle_simple_paths, tally_fact_counts


def test_provenance_matches_brute_force_on_random_horn_kbs():
    """Every fact's per-size counts agree with brute force on 1,000 seeded
    KBs of up to 14 facts; the tallies show that the KBs exercise each
    axiom shape the fixpoint handles."""
    rng = random.Random(1101)
    seen = Counter()
    for i in range(1000):
        tbox, abox, query = random_horn_kb(rng)
        omq = OMQ(tbox, query)
        histogram, counts = Plan(omq, "provenance").fact_counts(abox)
        assert (histogram, counts) == Plan(omq, "brute").fact_counts(abox), (i, tbox, abox, query)
        if not histogram.total():
            continue
        seen["with supports"] += 1
        seen["12+ facts"] += len(abox) >= 12
        seen["a support of 3+ facts"] += max(histogram.counts) >= 3
        seen["2+ supports"] += histogram.total() >= 2
        seen["role query"] += len(query.atoms[0].terms) == 2
        seen["inverse exists R.A <= B"] += any(
            isinstance(ax, QualifiedExistsAxiom) and ax.role.inverted for ax in tbox.horn_axioms
        )
        seen["inverse role inclusion"] += any(
            ax.kind == ROLE_INCLUSION and (ax.lhs.inverted or ax.rhs.inverted)
            for ax in tbox.axioms
        )
        seen["exists R <= A"] += any(
            ax.kind != ROLE_INCLUSION and isinstance(ax.lhs, Role) and not ax.negated
            for ax in tbox.axioms
        )
        seen["disjointness"] += any(ax.negated for ax in tbox.axioms)
    assert min(seen.values()) >= 20 and len(seen) == 9, seen


def test_mask_tally_matches_the_set_tally_on_random_horn_kbs():
    """On the 1,000 KBs above, the tally of the supports as bit masks
    equals the tally of the same supports as fact sets."""
    rng = random.Random(1101)
    high = 0
    for i in range(1000):
        tbox, abox, query = random_horn_kb(rng)
        facts = tuple(sorted(abox, key=lambda f: f.label))
        program = HornProgram(tbox, ground_atom_query(query))
        masks = minimal_why_provenance(facts, program, 10_000)
        supports = [
            MinimalSupport(frozenset(f for j, f in enumerate(facts) if m >> j & 1)) for m in masks
        ]
        assert tally_masks(facts, masks) == tally_fact_counts(facts, supports), i
        high += any(m >> (len(facts) - 1) for m in masks)
    assert high >= 20, high


def test_renumbered_facts_keep_their_supports():
    """Past 64 facts the fixpoint numbers only the facts that seed an
    atom, individual by individual, and maps the masks back: the seeded
    KBs above, each among 70 facts about fresh individuals (11 to 59 of
    which seed atoms) labelled to sort among the KB's own, have the
    supports of the KB alone."""
    rng = random.Random(1101)
    seen = Counter()
    for i in range(300):
        tbox, abox, query = random_horn_kb(rng)
        program = HornProgram(tbox, ground_atom_query(query))
        names = (*CONCEPT_NAMES, "Unused")
        padding = tuple(
            Fact(f"f{k % 14}~{k}", names[k % len(names)], (f"p{k}",)) if k % 3
            else Fact(f"f{k % 14}~{k}", ROLE_NAMES[k % len(ROLE_NAMES)], (f"p{k}", f"q{k}"))
            for k in range(70)
        )
        if not is_consistent(abox.facts + padding, tbox):
            continue
        alone = tuple(sorted(abox, key=lambda f: f.label))
        padded = tuple(sorted(abox.facts + padding, key=lambda f: f.label))
        want = minimal_why_provenance(alone, program, 10_000)
        got = minimal_why_provenance(padded, program, 10_000)
        assert sorted(_labels(got, padded)) == sorted(_labels(want, alone)), i
        seen["padded"] += 1
        seen["with supports"] += bool(want)
        seen["a role fact in a support"] += any(
            not f.is_concept for m in want for j, f in enumerate(alone) if m >> j & 1
        )
    assert min(seen.values()) >= 50 and len(seen) == 3, seen


def _labels(masks: list[int], facts: tuple[Fact, ...]) -> list[list[str]]:
    """Each mask's facts' labels, sorted."""
    found = []
    for mask in masks:
        found.append([])
        while mask:
            found[-1].append(facts[mask.bit_length() - 1].label)
            mask &= ~(1 << mask.bit_length() - 1)
        found[-1].sort()
    return found


def test_provenance_matches_brute_force_on_dllite_kbs():
    """Over a DL-Lite_R TBox, existential right-hand sides included, a
    ground atom's supports come from the closure alone; brute force
    checks them through the canonical model instead."""
    rng = random.Random(1103)
    constants = ("c", "d", "e")
    atoms = [concept_atom(n, const(a)) for n in CONCEPT_NAMES for a in constants]
    atoms += [
        role_atom(n, const(a), const(b)) for n in ROLE_NAMES for a in constants for b in constants
    ]
    supported = 0
    for _ in range(300):
        tbox, abox = random_consistent_kb(rng, max_facts=6)
        omq = OMQ(tbox, CQ((rng.choice(atoms),)))
        histogram, counts = Plan(omq, "provenance").fact_counts(abox)
        assert (histogram, counts) == Plan(omq, "brute").fact_counts(abox), (tbox, abox, omq.query)
        supported += histogram.total() > 0
    assert supported >= 50, supported


def _draw_masks(rng: random.Random, width: int) -> list[int]:
    """Up to 40 non-empty masks over `width` facts, sorted by size: random
    ones of one of a few sizes, duplicates, supersets of earlier masks and
    masks disjoint from earlier ones."""
    ones, drawn = (1 << width) - 1, []
    sizes = rng.sample(range(1, width + 1), min(width, 3))
    for _ in range(rng.randint(1, 40)):
        roll = rng.random()
        if drawn and roll < 0.15:
            drawn.append(rng.choice(drawn))
        elif drawn and roll < 0.3:
            drawn.append(rng.choice(drawn) | 1 << rng.randrange(width))
        elif drawn and roll < 0.45 and rng.choice(drawn) != ones:
            rest = ones ^ rng.choice(drawn)
            drawn.append(rest & rng.getrandbits(width) or rest & -rest)
        else:
            drawn.append(sum(1 << i for i in rng.sample(range(width), rng.choice(sizes))))
    return sorted(drawn, key=int.bit_count)


@pytest.mark.parametrize("width", [1, 2, 3, 5, 8, 29, 30, 31, 59, 62, 63, 64, 65, 97, 129, 130])
def test_the_antichain_keeps_what_a_naive_minimal_set_filter_keeps(width):
    """Fed masks in order of size, `_Antichain.add` accepts exactly the
    masks that no earlier kept mask lies inside, on seeded draws whose
    packed fields cross machine words at every width but the smallest.
    Each draw sits at an offset of up to 100 facts, and its new facts
    widen the chain's window as they come.  An empty chain accepts any
    mask."""
    rng = random.Random(2800 + width)
    seen = Counter()
    for trial in range(40):
        offset = trial * 37 % 101
        chain, kept = _Antichain(width + offset), []
        for mask in (m << offset for m in _draw_masks(rng, width)):
            inside = [k for k in kept if k & ~mask == 0]
            assert chain.add(mask) == (not inside), (width, kept, mask)
            if not inside:
                seen["kept beside a disjoint set"] += any(k & mask == 0 for k in kept)
                kept.append(mask)
            seen["a duplicate"] += mask in inside
            seen["a strictly smaller set inside"] += any(k != mask for k in inside)
        assert chain.masks == kept
        seen["10+ kept"] += len(kept) >= 10
    assert _Antichain(width).add((1 << width) - 1)
    shapes = 1 if width == 1 else 3 if width < 8 else 4
    assert sum(count >= 2 for count in seen.values()) == shapes, seen


def perrin(n: int) -> int:
    p = [3, 0, 2]
    while len(p) <= n:
        p.append(p[-2] + p[-3])
    return p[n]


@pytest.mark.parametrize("n", range(14, 25))
def test_cycle_vertex_covers_are_perrin_numbers(n):
    """The minimal vertex covers of an n-cycle number P(n), and by
    rotation every vertex lies in the same number of them."""
    vertices = tuple(f"v{i}" for i in range(n))
    edges = tuple(zip(vertices, vertices[1:] + vertices[:1]))
    tbox, abox, query = gen_mvc(Graph(vertices, edges))
    histogram, counts = Plan(OMQ(tbox, query), "auto").fact_counts(abox)
    assert histogram.total() == perrin(n)
    per_fact = {sum(c.values()) for c in counts.values()}
    assert len(per_fact) == 1
    assert sum(k * m for k, m in histogram.counts.items()) == n * per_fact.pop()


def grid(side: int, both_ways: bool = False) -> tuple[Graph, str, str]:
    """A side x side grid with edges right and down (and back when
    both_ways), from the top-left to the bottom-right corner."""
    name = "v{}_{}".format
    edges = []
    for i in range(side):
        for j in range(side):
            for di, dj in ((0, 1), (1, 0)):
                if i + di < side and j + dj < side:
                    edges.append((name(i, j), name(i + di, j + dj)))
    if both_ways:
        edges += [(v, u) for u, v in edges]
    vertices = tuple(name(i, j) for i in range(side) for j in range(side))
    return Graph(vertices, tuple(edges), directed=True), name(0, 0), name(side - 1, side - 1)


REACH = QualifiedExistsAxiom(Role("edge"), "Reach", "Reach")


def reach_encodings(graph: Graph, target: str, encoding: str) -> tuple[TBox, list[Fact]]:
    """Reachability with each edge u -> v stated as edge(u, v) under
    exists edge.Reach <= Reach, as edge(v, u) under exists edge-.Reach <=
    Reach, or as back(v, u) with back <= edge-; one fact per edge, in edge
    order, then the target marker."""
    if encoding == "inverse filler":
        inverse = QualifiedExistsAxiom(Role("edge", True), "Reach", "Reach")
        tbox = TBox(frozenset(), frozenset({inverse}))
        facts = [Fact(f"e{i}", "edge", (v, u)) for i, (u, v) in enumerate(graph.edges)]
    elif encoding == "inverse inclusion":
        back = Axiom(ROLE_INCLUSION, Role("back"), Role("edge", True))
        tbox = TBox(frozenset({back}), frozenset({REACH}))
        facts = [Fact(f"e{i}", "back", (v, u)) for i, (u, v) in enumerate(graph.edges)]
    else:
        tbox = TBox(frozenset(), frozenset({REACH}))
        facts = [Fact(f"e{i}", "edge", (u, v)) for i, (u, v) in enumerate(graph.edges)]
    return tbox, facts + [Fact("goal", "Reach", (target,))]


@pytest.mark.parametrize("encoding", ["edge", "inverse filler", "inverse inclusion"])
@pytest.mark.parametrize("side, both_ways", [(4, False), (5, False), (6, False), (4, True)],
                         ids=["4x4", "5x5", "6x6", "4x4-both-ways"])
def test_grid_reachability_matches_simple_paths(side, both_ways, encoding):
    """The minimal supports of Reach(source) are the simple paths, each
    with the target marker: the histogram is `oracle_simple_paths`
    shifted by one, and an edge lies in as many supports as the paths
    that the graph without it loses."""
    graph, source, target = grid(side, both_ways)
    tbox, facts = reach_encodings(graph, target, encoding)
    if encoding == "edge":
        assert (tbox, ABox(tuple(facts))) == gen_reachability(graph, source, target)[:2]
    query = CQ((concept_atom("Reach", const(source)),))
    histogram, counts = Plan(OMQ(tbox, query), "auto").fact_counts(ABox(tuple(facts)))
    paths = oracle_simple_paths(graph, source, target)
    assert histogram == {length + 1: m for length, m in paths.items()}
    assert counts[facts[-1]] == dict(histogram.counts)
    for fact, edge in zip(facts, graph.edges):
        rest = Graph(graph.vertices, tuple(e for e in graph.edges if e != edge), directed=True)
        lost = Counter(paths) - Counter(oracle_simple_paths(rest, source, target))
        assert counts[fact] == {length + 1: m for length, m in sorted(lost.items())}, edge


def wide_text(n: int, prefix: str = "") -> tuple[str, str]:
    """The TBox and ABox text of W_n(g) with 2^n minimal supports, one of
    x_i, y_i for each i; every name starts with the prefix."""
    p = prefix
    tbox = "".join(f"{p}X{i} <= {p}Z{i}\n{p}Y{i} <= {p}Z{i}\n" for i in range(1, n + 1))
    tbox += f"{p}Z1 & {p}Z2 <= {p}W2\n"
    tbox += "".join(f"{p}W{i - 1} & {p}Z{i} <= {p}W{i}\n" for i in range(3, n + 1))
    abox = "".join(f"{p}x{i}: {p}X{i}(g)\n{p}y{i}: {p}Y{i}(g)\n" for i in range(1, n + 1))
    return tbox, abox


def wide_kb(n: int) -> tuple[ABox, OMQ]:
    tbox, abox = wide_text(n)
    return parse_abox(abox), OMQ(parse_tbox(tbox), parse_query(f"W{n}(g)\n"))


def joined_wide_kb(n: int) -> tuple[tuple[Fact, ...], TBox]:
    """Two wide chains P and Q of n steps and PW_n & QW_n <= R."""
    (p_tbox, p_abox), (q_tbox, q_abox) = wide_text(n, "P"), wide_text(n, "Q")
    tbox = parse_tbox(p_tbox + q_tbox + f"PW{n} & QW{n} <= R\n")
    return tuple(parse_abox(p_abox + q_abox)), tbox


def ground_atom(text: str):
    return parse_query(text + "\n").disjuncts[0].atoms[0]


def test_cap_bounds_each_derived_atom(monkeypatch):
    abox, omq = wide_kb(5)
    facts, atom = tuple(abox), omq.query.disjuncts[0].atoms[0]
    assert len(minimal_why_provenance(facts, HornProgram(omq.tbox, atom), 32)) == 32
    with pytest.raises(InputError, match="capped at 31 minimal supports"):
        minimal_why_provenance(facts, HornProgram(omq.tbox, atom), 31)
    monkeypatch.setattr(respo.shapley, "PROVENANCE_CAP", 31)
    with pytest.raises(InputError, match="capped at 31"):
        score_all(abox, omq)


def test_budget_bounds_the_candidate_sets():
    """P9 and Q9 each have 512 minimal supports, under a cap of 1,000, but
    their conjunction queues 2^18 unions; the budget of cap x |facts|
    candidate sets stops the run before they are built."""
    facts, tbox = joined_wide_kb(9)
    tracemalloc.start()
    try:
        with pytest.raises(InputError, match="capped at 36000 candidate sets on 36 facts"):
            minimal_why_provenance(facts, HornProgram(tbox, ground_atom("R(g)")), 1_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20, peak
    assert len(minimal_why_provenance(facts, HornProgram(tbox, ground_atom("PW9(g)")), 1_000)) == 2**9


def test_only_atoms_the_query_depends_on_are_derived():
    """W14(g) is past the cap, but Z1(g) and W3(g) do not depend on it."""
    abox, omq = wide_kb(14)
    for query, supports in (("Z1(g)", 2), ("W3(g)", 8), ("x1(g, g)", 0)):
        program = HornProgram(omq.tbox, ground_atom(query))
        masks = minimal_why_provenance(tuple(abox), program, 10_000)
        assert len(masks) == supports


def test_facts_about_individuals_the_query_cannot_reach_take_no_bit(tmp_path, capsys):
    """W14(g) has one minimal support, X1..X14 about g.  The 28 facts of
    wide_kb(14), moved onto h, give W14(h) 2^14 supports, past the cap.
    r(h, g) under exists r.Z1 <= Z1 lets atoms of g derive atoms of h but
    none the other way, so g does not reach h: h's facts seed no atom and
    `count-fms` counts the one support."""
    from respo.cli import main

    tbox, abox = wide_text(14)
    about_h = "".join("h" + line for line in abox.replace("(g)", "(h)").splitlines(True))
    about_g = "".join(f"g{i}: X{i}(g)\n" for i in range(1, 15))
    files = {
        "t.tbox": tbox + "exists r.Z1 <= Z1\n",
        "a.abox": about_h + about_g + "hg: r(h, g)\n",
        "q.query": "W14(g)\n",
    }
    for name, text in files.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    argv = ["count-fms", "--tbox", str(tmp_path / "t.tbox"), "--abox", str(tmp_path / "a.abox"),
            "--query", str(tmp_path / "q.query")]
    assert main(argv) == 0
    assert capsys.readouterr() == ('{"14": 1}\n', "")


def test_auto_takes_provenance_for_horn_tboxes_only(fig1, variant):
    (omq, abox), (dllite, _) = fig1, variant
    assert Plan(omq).method == "provenance"
    assert Plan(dllite).method == "if"
    assert score_all(abox, omq).scores == score_all(abox, omq, method="brute").scores


def test_provenance_refuses_what_the_horn_evaluator_refuses(fig1):
    omq, abox = fig1
    open_query = CQ((concept_atom("FishBased", var("x")),))
    for tbox in (omq.tbox, TBox()):
        with pytest.raises(UnsupportedTBoxError, match="ground atomic queries only"):
            Plan(OMQ(tbox, open_query), "provenance")
    existential = TBox(
        frozenset({Axiom("concept", "Fish", Role("hasIng"))}), omq.tbox.horn_axioms
    )
    with pytest.raises(UnsupportedTBoxError, match="existential right-hand sides"):
        Plan(OMQ(existential, omq.query), "provenance").fact_counts(abox)


def test_one_plan_compiles_its_rule_program_once(monkeypatch):
    """Two `fact_counts` calls on one provenance plan, over different fact
    sets, build the rule program once and each predicate's row once."""
    built, rows = [], Counter()

    class Counted(HornProgram):
        __slots__ = ()

        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    fact_row = SaturatedTBox.fact_row

    def counted_row(self, predicate, arity):
        rows[predicate] += 1
        return fact_row(self, predicate, arity)

    abox, omq = wide_kb(4)
    facts = tuple(abox)
    parts = {part: Plan(omq, "brute").fact_counts(part) for part in (facts[2:], facts)}
    monkeypatch.setattr(respo.shapley, "HornProgram", Counted)
    monkeypatch.setattr(SaturatedTBox, "fact_row", counted_row)
    plan = Plan(omq, "provenance")
    for part, expected in parts.items():
        assert plan.fact_counts(part) == expected
    assert len(built) == 1
    assert rows == {f.predicate: 1 for f in facts}


@pytest.mark.parametrize("query", ["A(a)", "s(a, b)"])
def test_an_empty_abox_has_no_supports(query):
    """With no facts, a concept atom and a role atom of a Horn TBox have
    no minimal support: empty scores, an empty histogram."""
    tbox = parse_tbox("role: r <= s\nexists r.A <= B\nA & B <= C\n")
    omq = OMQ(tbox, parse_query(query + "\n"))
    assert tbox.horn_extended
    for method in ("auto", "provenance"):
        report = score_all(ABox(()), omq, method=method)
        assert (report.scores, report.method, report.histogram.total()) == ({}, "provenance", 0)
    plan = Plan(omq, "provenance")
    assert plan.histogram(ABox(())).total() == 0
    assert plan.fact_counts(ABox(()))[1] == {}


def cycle_kb(n: int) -> tuple[ABox, OMQ]:
    vertices = tuple(f"v{i:02d}" for i in range(n))
    tbox, abox, query = gen_mvc(Graph(vertices, tuple(zip(vertices, vertices[1:] + vertices[:1]))))
    return abox, OMQ(tbox, query)


def grid_kb(side: int) -> tuple[ABox, OMQ]:
    graph, source, target = grid(side)
    tbox, abox, query = gen_reachability(graph, source, target)
    return abox, OMQ(tbox, query)


@pytest.mark.parametrize("kb, attempts", [(cycle_kb(12), 254), (grid_kb(3), 19)],
                         ids=["12-cycle mvc", "3x3 reach"])
def test_the_fixpoint_tries_no_more_antichain_inserts(kb, attempts, monkeypatch):
    """A timing-free guard on the benchmark's two Horn instances: scoring
    the 12-cycle tries 254 antichain inserts and the 3x3 grid 19.  Each
    attempt is a candidate set the rules built, so a rise means more
    joins."""
    tried = []
    add = _Antichain.add

    def counted(self, mask):
        tried.append(mask)
        return add(self, mask)

    monkeypatch.setattr(_Antichain, "add", counted)
    abox, omq = kb
    score_all(abox, omq)
    assert len(tried) <= attempts


def test_an_antichain_insert_runs_a_bounded_number_of_lines():
    """A timing-free guard on the cost of one insert: while the fixpoint
    derives the 4,096 supports of W12(g), the methods of `_Antichain`
    run at most 10 lines per `add` call on average (about 9), however
    many sets the chain holds.  A loop over the facts outside each new
    set ran 91.8 lines per call."""
    abox, omq = wide_kb(12)
    program = HornProgram(omq.tbox, ground_atom_query(omq.query))
    methods = {f.__code__ for f in vars(_Antichain).values() if callable(f)}
    calls = lines = 0

    def count_lines(frame, event, arg):
        nonlocal lines
        lines += event == "line"
        return count_lines

    def trace(frame, event, arg):
        nonlocal calls
        if frame.f_code not in methods:
            return None
        calls += frame.f_code is _Antichain.add.__code__
        return count_lines

    previous = sys.gettrace()
    sys.settrace(trace)
    try:
        masks = minimal_why_provenance(tuple(abox), program, 10_000)
    finally:
        sys.settrace(previous)
    assert len(masks) == 2**12
    assert calls and lines <= 10 * calls, (lines, calls)


def test_facts_the_query_never_touches_leave_the_fields_narrow(monkeypatch):
    """A timing-free guard on the width of a chain's fields: W12(g) among
    10,000 facts that seed no atom and 1,000 that seed atoms on other
    individuals, labelled to sort among W12's own, yields the supports of
    W12(g) alone in the same order, and no chain's fields grow past
    2 * 64 + 1 bits.  Fields as wide as the ABox (11,025 bits) took this
    run about 13 s in process, and the parent's loop over the facts 0.6 s."""
    tbox, abox = wide_text(12)
    abox += "".join(f"x1_{i:05d}: Unused(u{i})\n" for i in range(10_000))
    abox += "".join(f"x9_{i:04d}: X{1 + i % 12}({'a' if i % 2 else 'z'}{i})\n" for i in range(1000))
    facts = tuple(sorted(parse_abox(abox), key=lambda f: f.label))
    omq = OMQ(parse_tbox(tbox), parse_query("W12(g)\n"))
    program = HornProgram(omq.tbox, ground_atom_query(omq.query))
    strides = set()
    add = _Antichain.add

    def watched(self, mask):
        strides.add(self.stride)
        return add(self, mask)

    monkeypatch.setattr(_Antichain, "add", watched)
    padded = minimal_why_provenance(facts, program, 10_000)
    alone, _ = wide_kb(12)
    alone = tuple(sorted(alone, key=lambda f: f.label))

    assert _labels(padded, facts) == _labels(minimal_why_provenance(alone, program, 10_000), alone)
    assert len(padded) == 2**12 and max(strides) <= 2 * 64 + 1, sorted(strides)


@pytest.mark.parametrize("n", [12, 24])
def test_the_goal_closure_visits_each_rule_at_most_twice(n):
    """Compiling the program reads each concept's rules once to index
    them by head and once more if the goal needs them, however long the
    chain of conjunctions toward the goal is."""
    visits = Counter()

    class Visited(tuple):
        def __iter__(self):
            visits[self.body] += 1
            return super().__iter__()

    abox, omq = cycle_kb(n)
    sat = saturate(omq.tbox)
    rules, bodies = sat.horn_rules
    watched = {}
    for body, fired in rules.items():
        watched[body] = Visited(fired)
        watched[body].body = body
    vars(sat)["horn_rules"] = watched, bodies
    HornProgram(omq.tbox, ground_atom_query(omq.query))
    assert set(visits) == set(rules)
    assert max(visits.values()) <= 2
