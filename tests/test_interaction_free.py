import random
import time
from itertools import product

import pytest

from respo.model import (
    ANON,
    ABox,
    Axiom,
    CONCEPT_INCLUSION,
    CQ,
    Fact,
    OMQ,
    Role,
    TBox,
    as_ucq,
    concept_atom,
    const,
    role_atom,
    var,
)
from respo.interaction_free import (
    IFPlan,
    NotInteractionFreeError,
    _entries,
    _fact_shapes,
    _satisfying_pairs,
    _shared_variables,
    check_interaction_free,
    count_ms_interaction_free,
)
from respo.model import connected_components
from respo.elimination import elimination_order, weighted_eval
from respo.randgen import random_abox, random_cq, random_dllite_tbox, random_interaction_free_omq
from respo.reasoner import SaturatedTBox, is_consistent, saturate
from respo.shapley import Plan
from respo.support import enumerate_minimal_supports, make_subset_evaluator
from respo.textio import parse_abox, parse_query, parse_tbox

from oracles import (
    count_fms_brute,
    holds_under_assignment,
    query_depth,
    tally_fact_counts,
    tree_pairs,
)


def tb(*axioms):
    return TBox(frozenset(axioms))


# ---------------------------------------------------------------------------
# Interaction-freeness check (Example 2 shapes)
# ---------------------------------------------------------------------------

def test_example2a_self_join_but_free():
    query = CQ((role_atom("r", const("c"), var("x")), role_atom("r", const("d"), var("x"))))
    assert check_interaction_free(OMQ(TBox(), query)) is None


def test_example2b_single_atom_two_ways():
    t = tb(
        Axiom(CONCEPT_INCLUSION, Role("r"), "A"),
        Axiom(CONCEPT_INCLUSION, Role("r", True), "A"),
    )
    witness = check_interaction_free(OMQ(t, CQ((concept_atom("A", var("x")),))))
    assert witness is not None
    assert witness.fact_shape.predicate == "r"
    assert witness.atom1 == witness.atom2
    assert witness.assignment1 != witness.assignment2


def test_example2c_ontology_bridges_atoms():
    t = tb(Axiom(CONCEPT_INCLUSION, "A", Role("r")))
    query = CQ((concept_atom("A", var("x")), role_atom("r", var("x"), var("y"))))
    witness = check_interaction_free(OMQ(t, query))
    assert witness is not None
    assert witness.fact_shape.predicate == "A"
    assert witness.atom1 != witness.atom2


def test_constant_sensitive_interaction():
    # With T = {exists r- <= B}, the single fact r(c,e) satisfies both
    # r(c,x) and B(x) at x -> e; interaction requires the query constant
    # in the shape pool.
    t = tb(Axiom(CONCEPT_INCLUSION, Role("r", True), "B"))
    query = CQ((role_atom("r", const("c"), var("x")), concept_atom("B", var("x"))))
    assert check_interaction_free(OMQ(t, query)) is not None


def test_self_join_same_predicate_not_free():
    query = CQ((role_atom("r", var("x"), var("y")), role_atom("r", var("y"), var("z"))))
    assert check_interaction_free(OMQ(TBox(), query)) is not None


def test_witness_takes_pairs_in_assignment_order():
    """The witness is the first two (atom, assignment) pairs a consistent
    generic fact satisfies: atoms in query order, and each atom's
    assignments in product order over the fact's sorted constants, then
    anon, each checked on its own by `holds_under_assignment`."""
    rng = random.Random(4242)
    witnesses = 0
    for _ in range(150):
        omq = OMQ(random_dllite_tbox(rng, max_axioms=4), as_ucq(random_cq(rng, allow_neq=False)))
        cq = omq.query.disjuncts[0]
        atoms = cq.relational_atoms()
        depth = max(query_depth(CQ((atom,)), omq.tbox) for atom in atoms)
        expected = None
        for shape in _fact_shapes(omq, cq):
            fact = ABox((shape,))
            if not is_consistent(fact, omq.tbox):
                continue
            values = sorted(set(shape.args)) + [ANON]
            pairs = [
                (atom, tuple((v, "<anon>" if x is ANON else x) for v, x in zip(vs, combo)))
                for atom in atoms
                for vs in [sorted(set(atom.variables()))]
                for combo in product(values, repeat=len(vs))
                if holds_under_assignment(fact, omq.tbox, CQ((atom,)), dict(zip(vs, combo)), depth)
            ]
            if len(pairs) >= 2:
                expected = (shape, *pairs[0], *pairs[1])
                break
        witness = check_interaction_free(omq)
        found = None if witness is None else (
            witness.fact_shape, witness.atom1, witness.assignment1,
            witness.atom2, witness.assignment2,
        )
        assert found == expected, omq
        witnesses += witness is not None
    assert witnesses >= 30, witnesses


def test_if_plan_runs_no_search_and_builds_no_slice(variant, model_walks, monkeypatch):
    """Building the variant's plan and taking every fact's rows on the
    variant doubled run no homomorphism search and walk no canonical
    model to a depth: the check and the rows read the TBox closure and
    the folded walk."""
    import respo.queries as queries

    omq, abox = variant
    doubled = [
        Fact(f"c{c}{f.label}", f.predicate, tuple(f"c{c}{a}" for a in f.args))
        for c in range(2) for f in abox
    ]
    calls = []

    def refuse(name):
        return lambda *args, **kwargs: calls.append(name)

    monkeypatch.setattr(queries, "_search", refuse("_search"))
    plan = IFPlan(omq)
    rows = [plan.fact_entries(fact) for fact in doubled]
    assert sum(map(len, rows)) == 30
    assert not calls, calls
    assert set(model_walks) == {None}


def test_closure_pairs_equal_tree_pairs_on_random_omqs():
    """The check's reading of the TBox closure gives the same (slot,
    assignment) pairs, in the same order, as the homomorphisms of each
    atom into the canonical-model tree of the fact (`oracles.tree_pairs`),
    on 2,000 seeded OMQs with TBoxes of up to 10 axioms and, for each, up
    to four of its consistent fact shapes."""
    rng = random.Random(31)
    seen = dict.fromkeys(("anonymous", "repeated variable", "query constant"), 0)
    for _ in range(2000):
        omq = OMQ(random_dllite_tbox(rng, max_axioms=10), as_ucq(random_cq(rng, allow_neq=False)))
        cq = omq.query.disjuncts[0]
        atoms = cq.relational_atoms()
        sat = saturate(omq.tbox)
        shapes = [s for s in _fact_shapes(omq, cq) if is_consistent(ABox((s,)), omq.tbox)]
        for shape in rng.sample(shapes, min(4, len(shapes))):
            pairs = list(_satisfying_pairs(sat, shape, atoms))
            assert pairs == tree_pairs(omq.tbox, shape, atoms), (omq, shape)
            seen["anonymous"] += any(ANON in mu.values() for _, mu in pairs)
            seen["repeated variable"] += any(
                len(set(atoms[slot].variables())) < len(atoms[slot].variables())
                for slot, _ in pairs)
            seen["query constant"] += bool(cq.constants()) and bool(pairs)
    assert min(seen.values()) >= 100, seen


@pytest.mark.parametrize("axioms, query", [
    ("exists r- <= exists r\n", "r(?x, ?x), B(?y)"),
    ("exists r- <= exists r\nA <= exists r\n", "r(?x, ?x)"),
    ("role: r <= r-\nA <= exists r\n", "r(?x, ?x), r(?x, ?y)"),
    ("A <= exists r-\nexists r <= exists s-\nexists s <= B\n", "s(?y, ?x), B(?x)"),
    ("A <= exists r\nexists r- <= exists r\n", "r(c, ?x), r(?x, ?y), A(c)"),
    ("role: r <= s-\nexists s <= A\n", "s(?x, c), A(c), r(c, ?y)"),
])
def test_closure_pairs_equal_tree_pairs_on_hand_cases(axioms, query):
    """Self-loops (`exists r- <= exists r` puts an r-chain below every r-
    element, but no anonymous element is its own r-successor), a
    symmetric role, inverse roles and query constants: every consistent
    fact shape's pairs equal the tree's."""
    omq = OMQ(parse_tbox(axioms), parse_query(query))
    cq = omq.query.disjuncts[0]
    sat = saturate(omq.tbox)
    compared = 0
    for shape in _fact_shapes(omq, cq):
        if is_consistent(ABox((shape,)), omq.tbox):
            pairs = list(_satisfying_pairs(sat, shape, cq.relational_atoms()))
            assert pairs == tree_pairs(omq.tbox, shape, cq.relational_atoms()), shape
            compared += bool(pairs)
    assert compared >= 2, compared


def test_a_repeated_variable_never_takes_anon_twice():
    """Under exists r- <= exists r the fact r(c, d) has an endless
    anonymous r-chain below d, but r(?x, ?x) holds only on a named
    self-loop."""
    omq = OMQ(parse_tbox("exists r- <= exists r\n"), parse_query("r(?x, ?x), B(?y)"))
    sat = saturate(omq.tbox)
    atoms = omq.query.disjuncts[0].relational_atoms()
    assert list(_satisfying_pairs(sat, Fact("f", "r", ("c", "d")), atoms)) == []
    assert list(_satisfying_pairs(sat, Fact("f", "r", ("c", "c")), atoms)) == [(1, {"x": "c"})]


def test_if_plan_compiles_the_role_family_in_polynomial_time(role_family):
    """The check reads each fact shape's model once per (parent, role)
    pair, not a tree of depth k + 3 branching k ways: the plans of R_5
    and R_8 compile in well under 0.1 s and 1 s (a tree search takes
    minutes from R_5 on)."""
    elapsed = {}
    for k in (5, 8):
        omq, _ = role_family(k)
        start = time.perf_counter()
        IFPlan(omq)
        elapsed[k] = time.perf_counter() - start
    assert elapsed[5] < 0.1 and elapsed[8] < 1.0, elapsed


def test_each_role_successor_is_computed_once_per_tbox(variant, role_family, monkeypatch):
    """The walk looks a role's successor up at every anonymous element it
    reaches by the role, and the closure computes the lookup once per
    TBox: over the IF plan and the rows of the variant (which has no
    anonymous element) and of R_4, every lookup of a role returns the
    object its first lookup built."""
    looked_up: dict[tuple[int, Role], list] = {}
    successor = SaturatedTBox.successor

    def spied(self, r):
        found = successor(self, r)
        looked_up.setdefault((id(self), r), []).append(found)
        return found

    monkeypatch.setattr(SaturatedTBox, "successor", spied)
    omq, abox = variant
    r4, _ = role_family(4)
    for plan, facts in ((IFPlan(omq), abox), (IFPlan(r4), parse_abox("A(a)\nC(a)\ns(a, b)\n"))):
        for fact in facts:
            plan.fact_entries(fact)
    assert {r for _, r in looked_up} == {Role(f"r{i}") for i in range(4)}
    assert sum(map(len, looked_up.values())) > 4 * len(looked_up)
    assert all(found is calls[0] for calls in looked_up.values() for found in calls)


# ---------------------------------------------------------------------------
# Per-fact rows
# ---------------------------------------------------------------------------

def plan_entries(plan, abox):
    """The weights of the plan's rows over the facts, keyed by (slot,
    row)."""
    entries = {}
    for fact in abox:
        for slot, row in plan.fact_entries(fact):
            entries[slot, row] = entries.get((slot, row), 0) + 1
    return entries


def weighted_entries(omq, abox):
    return plan_entries(IFPlan(omq), abox)


def row_tables(cq, entries):
    """The (slot, row) weights as one table per slot, for `weighted_eval`."""
    tables = [{} for _ in cq.relational_atoms()]
    for (slot, row), w in entries.items():
        tables[slot][row] = w
    return tables


def test_atom_weight_role_inclusion():
    from respo.model import ROLE_INCLUSION

    t = TBox(frozenset({Axiom(ROLE_INCLUSION, Role("hasGrnsh"), Role("hasIng"))}))
    abox = parse_abox("f0: hasGrnsh(sole, sauce)\nf1: hasIng(sole, sauce)\n")
    query = CQ((concept_atom("C", var("x")), role_atom("hasIng", var("x"), var("y"))))
    assert weighted_entries(OMQ(t, query), abox)[(1, ("sole", "sauce"))] == 2


def test_atom_weight_anonymous_guard():
    t = tb(Axiom(CONCEPT_INCLUSION, "A", Role("r")))
    query = CQ((concept_atom("C", var("x")), role_atom("r", var("x"), var("y"))))
    abox = parse_abox("C(c)\nA(c)\nr(c,d)\n")
    # A(c) supplies an anonymous r-successor of c; r(c,d) does not, since
    # its successor is named.
    entries = weighted_entries(OMQ(t, query), abox)
    assert entries[(1, ("c", "anon#1"))] == 1


def test_extend_with_anonymous():
    t = tb(Axiom(CONCEPT_INCLUSION, "A", Role("r")))
    query = CQ((concept_atom("C", var("x")), role_atom("r", var("x"), var("y"))))
    abox = parse_abox("C(c)\nA(c)\nr(c,d)\n")
    assert weighted_entries(OMQ(t, query), abox) == {
        (0, ("c",)): 1,
        (1, ("c", "d")): 1,
        (1, ("c", "anon#1")): 1,
    }


def test_atom_weight_empty_abox():
    query = CQ((concept_atom("A", var("x")),))
    assert not weighted_entries(OMQ(TBox(), query), ABox(()))


def test_fact_rows_example():
    query = CQ((concept_atom("A", var("x")), role_atom("r", var("x"), var("y"))))
    omq = OMQ(TBox(), query)
    abox = parse_abox("A(c)\nr(c,d)\nr(c,e)\n")
    assert weighted_entries(omq, abox) == {
        (0, ("c",)): 1,
        (1, ("c", "d")): 1,
        (1, ("c", "e")): 1,
    }


def test_fact_rows_empty_abox():
    query = CQ((concept_atom("A", var("x")), role_atom("r", var("x"), var("y"))))
    assert not weighted_entries(OMQ(TBox(), query), ABox(()))


def test_extend_no_axioms_no_anonymous():
    query = CQ((concept_atom("C", var("x")), role_atom("r", var("x"), var("y"))))
    abox = parse_abox("C(c)\nr(c,d)\n")
    entries = weighted_entries(OMQ(TBox(), query), abox)
    assert all("#" not in a for (_slot, row) in entries for a in row)


def test_shared_variable_gets_no_anonymous_entry():
    t = tb(Axiom(CONCEPT_INCLUSION, "A", Role("s")),
           Axiom(CONCEPT_INCLUSION, Role("s", True), "C"))
    query = CQ((concept_atom("C", var("x")), role_atom("r", var("x"), var("y"))))
    # A(c) puts C on an anonymous element, but x is shared (Lemma 4).
    assert weighted_entries(OMQ(t, query), parse_abox("A(c)\nr(c,d)\n")) == {
        (1, ("c", "d")): 1
    }
    single = CQ((concept_atom("C", var("x")),))
    assert weighted_entries(OMQ(t, single), parse_abox("A(c)\n")) == {
        (0, ("anon#0",)): 1
    }


def test_lone_atom_beside_another_component_keeps_anonymous_pairs():
    # r(z, y) shares no variable, so B(c)'s anonymous r-successor counts
    # although the query has another atom.
    t = tb(Axiom(CONCEPT_INCLUSION, "B", Role("r")))
    omq = OMQ(t, CQ((concept_atom("A", var("x")), role_atom("r", var("z"), var("y")))))
    abox = parse_abox("A(d)\nB(c)\n")
    assert weighted_entries(omq, abox) == {(0, ("d",)): 1, (1, ("c", "anon#1")): 1}
    assert count_ms_interaction_free(IFPlan(omq), abox) == {2: 1}


def test_single_atom_keeps_double_anonymous_pairs():
    t = tb(Axiom(CONCEPT_INCLUSION, "A", Role("s")),
           Axiom(CONCEPT_INCLUSION, Role("s", True), Role("r")))
    query = CQ((role_atom("r", var("x"), var("y")),))
    # A(c) entails an anonymous s-successor of c, which has an anonymous
    # r-successor: both ends of r(x, y) anonymous.
    assert weighted_entries(OMQ(t, query), parse_abox("A(c)\n")) == {
        (0, ("anon#0", "anon#0")): 1
    }


def test_rows_follow_first_occurrence_of_distinct_variables():
    query = CQ((role_atom("r", var("y"), var("x")), role_atom("s", var("x"), var("x"))))
    assert weighted_entries(OMQ(TBox(), query), parse_abox("r(d,c)\ns(c,c)\n")) == {
        (0, ("d", "c")): 1,
        (1, ("c",)): 1,
    }


def test_fact_rows_equal_rows_of_the_fact_tree(witness_omq):
    """Every fact's rows equal the rows of the pairs read off the fact's
    own canonical-model tree (`oracles.tree_pairs`), on seeded
    interaction-free OMQs (random ones and ones with anonymous role
    witnesses) and every fact over A, B, C, r, s and the outside Z, q on
    the constants c, d (which the queries mention), k1 and k2."""
    rng = random.Random(5)
    pool = ["c", "d", "k1", "k2"]
    facts = [Fact(f"a{p}{x}", p, (x,)) for p in "ABCZ" for x in pool] + [
        Fact(f"r{p}{x}{y}", p, (x, y)) for p in "rsq" for x in pool for y in pool
    ]
    seen = dict.fromkeys(
        ("query constant", "repeated fresh", "repeated query constant", "fresh", "anonymous",
         "outside"), 0)
    omqs = 0
    while omqs < 60:
        omq = random_interaction_free_omq(rng, max_atoms=3).omq if omqs % 2 else witness_omq(rng)
        try:
            plan = IFPlan(omq)
        except NotInteractionFreeError:
            continue
        constants = set(plan.cq.constants())
        shared = _shared_variables(plan.cq)
        for fact in facts:
            if not is_consistent(ABox((fact,)), omq.tbox):
                continue
            rows = plan.fact_entries(fact)
            pairs = tree_pairs(omq.tbox, fact, plan.atoms)
            assert rows == _entries(plan.atoms, shared, pairs), (omq, fact)
            args = fact.args
            seen["outside"] += fact.predicate in "Zq"
            if not rows:
                continue
            seen["query constant"] += bool(constants.intersection(args))
            seen["fresh"] += not constants.issuperset(args)
            repeated = len(args) == 2 and args[0] == args[1]
            seen["repeated query constant"] += repeated and args[0] in constants
            seen["repeated fresh"] += repeated and args[0] not in constants
            seen["anonymous"] += any("anon#" in value for _, row in rows for value in row)
        omqs += 1
    assert min(seen.values()) >= 20, seen


# ---------------------------------------------------------------------------
# Elimination order
# ---------------------------------------------------------------------------

def induced_width(cq, order):
    """The most neighbours, fill edges included, that a variable has when
    the query's variables are eliminated in `order`."""
    assert sorted(order) == sorted(cq.variables())
    adj = {v: set() for v in cq.variables()}
    for atom in cq.relational_atoms():
        for v in atom.variables():
            adj[v] |= set(atom.variables()) - {v}
    width = 0
    for v in order:
        neighbours = adj.pop(v)
        width = max(width, len(neighbours))
        for u in neighbours:
            adj[u] |= neighbours - {u}
            adj[u].discard(v)
    return width


def _grid():
    """The 2x3 grid, of treewidth 2, one predicate per edge."""
    def v(i, j):
        return var(f"n{i}{j}")

    grid = [role_atom(f"h{i}{j}", v(i, j), v(i, j + 1)) for i in range(2) for j in range(2)]
    grid += [role_atom(f"v{j}", v(0, j), v(1, j)) for j in range(3)]
    return CQ(tuple(grid))


def test_elimination_order_path():
    query = CQ((role_atom("r", var("x"), var("y")), role_atom("r", var("y"), var("z"))))
    assert induced_width(query, elimination_order(query)) == 1


def test_elimination_order_triangle():
    query = CQ(
        (
            role_atom("r", var("x"), var("y")),
            role_atom("s", var("y"), var("z")),
            role_atom("t", var("z"), var("x")),
        )
    )
    assert induced_width(query, elimination_order(query)) == 2


def test_elimination_order_single_atom():
    query = CQ((role_atom("r", var("x"), var("y")),))
    assert induced_width(query, elimination_order(query)) <= 1


def test_elimination_order_grid_exact():
    query = _grid()
    assert induced_width(query, elimination_order(query)) == 2
    # Eliminating a middle vertex first joins its three neighbours.
    rest = [v for v in query.variables() if v != "n01"]
    assert induced_width(query, ["n01"] + rest) == 3


def test_plan_orders_each_component_in_turn():
    x, y, z = var("x"), var("y"), var("z")
    query = CQ((role_atom("r", x, y), concept_atom("C", const("a")), concept_atom("B", z),
                concept_atom("A", x)))
    plan = IFPlan(OMQ(TBox(), query))
    assert plan.order in (("x", "y", "z"), ("y", "x", "z"))


# ---------------------------------------------------------------------------
# Weighted evaluation
# ---------------------------------------------------------------------------

def naive_weighted_eval(cq, tables):
    atoms = cq.relational_atoms()
    variables = sorted(cq.variables())
    domains = set()
    for t in tables:
        for row in t:
            domains.update(row)
    total = 0
    from itertools import product

    for values in product(sorted(domains), repeat=len(variables)):
        assignment = dict(zip(variables, values))
        weight = 1
        for slot, atom in enumerate(atoms):
            row = tuple(assignment[v] for v in dict.fromkeys(atom.variables()))
            w = tables[slot].get(row, 0)
            if w == 0:
                weight = 0
                break
            weight *= w
        total += weight
    return total


def test_weighted_eval_plain_hom_count():
    query = CQ((concept_atom("A", var("x")), role_atom("r", var("x"), var("y"))))
    omq = OMQ(TBox(), query)
    abox = parse_abox("A(c)\nr(c,d)\nr(c,e)\n")
    tables = row_tables(query, weighted_entries(omq, abox))
    assert weighted_eval(query, tables, elimination_order(query)) == 2


def test_weighted_eval_weight_three():
    query = CQ((concept_atom("A", var("x")),))
    assert weighted_eval(query, [{("c",): 3}], elimination_order(query)) == 3


def test_weighted_eval_components_ground_atom_and_empty_table():
    """Two components and a ground atom multiply, and an empty table of
    any atom makes the sum 0."""
    x, y, z = var("x"), var("y"), var("z")
    query = CQ((concept_atom("A", x), role_atom("r", x, y), concept_atom("B", z),
                concept_atom("C", const("a"))))
    weights = {
        "A": {("a",): 2, ("b",): 1},
        "r": {("a", "b"): 3, ("b", "b"): 1, ("c", "a"): 5},
        "B": {("c",): 2, ("a",): 1},
        "C": {(): 2},
    }
    tables = [weights[atom.predicate] for atom in query.relational_atoms()]
    order = IFPlan(OMQ(TBox(), query)).order
    assert weighted_eval(query, tables, order) == naive_weighted_eval(query, tables) == 42
    for slot in range(len(tables)):
        emptied = tables[:slot] + [{}] + tables[slot + 1:]
        assert weighted_eval(query, emptied, order) == naive_weighted_eval(query, emptied) == 0


def _hand_built_tables():
    """Queries with a constant and a repeated variable, a triangle and the
    2x3 grid, each with one table per atom over every row of three values,
    with seeded weights 0-3."""
    from itertools import product

    rng = random.Random(17)
    values = ("a", "b", "c")
    x, y, z = var("x"), var("y"), var("z")

    queries = [
        CQ((concept_atom("A", x), role_atom("r", x, x), role_atom("s", const("a"), x),
            role_atom("t", x, y))),
        CQ((role_atom("r", x, y), role_atom("s", y, z), role_atom("t", z, x),
            concept_atom("A", x))),
        _grid(),
    ]
    for cq in queries:
        tables = [
            {
                row: rng.randint(0, 3)
                for row in product(values, repeat=len(set(atom.variables())))
            }
            for atom in cq.relational_atoms()
        ]
        yield cq, tables


def test_weighted_eval_order_independent():
    """The plan's order, a random order and the naive sum agree, on the
    hand-built tables and on the rows of seeded random instances."""
    rng = random.Random(13)
    cases = [(cq, tables, elimination_order(cq)) for cq, tables in _hand_built_tables()]
    assert [induced_width(cq, order) for cq, _, order in cases] == [1, 2, 2]
    for _ in range(40):
        plan = random_interaction_free_omq(rng, max_atoms=3)
        abox = random_abox(rng, max_facts=5, bias=plan.omq.query, tbox=plan.omq.tbox)
        if is_consistent(abox, plan.omq.tbox):
            cases.append((plan.cq, row_tables(plan.cq, plan_entries(plan, abox)), plan.order))

    for cq, tables, order in cases:
        expected = naive_weighted_eval(cq, tables)
        assert weighted_eval(cq, tables, order) == expected
        shuffled = sorted(cq.variables(), key=lambda _: rng.random())
        assert weighted_eval(cq, tables, shuffled) == expected
    assert all(naive_weighted_eval(cq, tables) > 1 for cq, tables, _ in cases[:3])
    assert sum(naive_weighted_eval(cq, tables) > 0 for cq, tables, _ in cases[3:]) >= 10


# ---------------------------------------------------------------------------
# Full pipeline
# ---------------------------------------------------------------------------

def test_example3_anonymous_support():
    t = tb(
        Axiom(CONCEPT_INCLUSION, "A", Role("r")),
        Axiom(CONCEPT_INCLUSION, Role("r", True), "B"),
    )
    omq = OMQ(t, CQ((concept_atom("B", var("x")),)))
    abox = parse_abox("A(c)\n")
    hist = count_ms_interaction_free(IFPlan(omq), abox)
    assert hist.total() == 1


def test_lemma5_component_product():
    query = CQ((concept_atom("A", var("x")), concept_atom("B", var("y"))))
    omq = OMQ(TBox(), query)
    abox = parse_abox("A(c)\nA(d)\nB(e)\n")
    hist = count_ms_interaction_free(IFPlan(omq), abox)
    assert hist == {2: 2}


def test_pipeline_anonymous_extension_case():
    t = tb(Axiom(CONCEPT_INCLUSION, "A", Role("r")))
    query = CQ((concept_atom("C", var("x")), role_atom("r", var("x"), var("y"))))
    omq = OMQ(t, query)
    abox = parse_abox("C(c)\nA(c)\nr(c,d)\n")
    hist = count_ms_interaction_free(IFPlan(omq), abox)
    assert hist.total() == 2
    ev = make_subset_evaluator(omq.tbox, omq.query)
    assert {s.labels() for s in __import__("respo.support", fromlist=["enumerate_minimal_supports"]).enumerate_minimal_supports(tuple(abox), ev)} == {
        ("f0", "f2"),
        ("f0", "f1"),
    }


def test_refuses_non_interaction_free():
    t = tb(Axiom(CONCEPT_INCLUSION, "A", Role("r")))
    query = CQ((concept_atom("A", var("x")), role_atom("r", var("x"), var("y"))))
    with pytest.raises(NotInteractionFreeError):
        IFPlan(OMQ(t, query))


def test_support_size_uniformity():
    rng = random.Random(31)
    done = 0
    while done < 25:
        omq = random_interaction_free_omq(rng, max_atoms=3).omq
        abox = random_abox(rng, max_facts=6, bias=omq.query, tbox=omq.tbox)
        if not is_consistent(abox, omq.tbox):
            continue
        ev = make_subset_evaluator(omq.tbox, omq.query)
        from respo.support import enumerate_minimal_supports

        expected = len(omq.query.disjuncts[0].relational_atoms())
        for s in enumerate_minimal_supports(tuple(abox), ev):
            assert len(s) == expected
        done += 1


def test_pipeline_agreement_randomized():
    rng = random.Random(37)
    done = 0
    while done < 60:
        plan = random_interaction_free_omq(rng, max_atoms=4)
        omq = plan.omq
        abox = random_abox(rng, max_facts=6, bias=omq.query, tbox=omq.tbox)
        if not is_consistent(abox, omq.tbox):
            continue
        ev = make_subset_evaluator(omq.tbox, omq.query)
        brute = count_fms_brute(tuple(abox), ev)
        fast = count_ms_interaction_free(plan, abox)
        assert brute == fast, (omq, list(abox))
        done += 1


def test_lemma4_shared_variables_stay_named():
    """For interaction-free OMQs, no homomorphism into the canonical model
    sends a shared variable to an anonymous element: every assignment
    placing one on the anonymous marker must fail."""
    from itertools import product as iproduct

    rng = random.Random(43)
    checked = 0
    while checked < 20:
        omq = random_interaction_free_omq(rng, max_atoms=3).omq
        cq = omq.query.disjuncts[0]
        shared = _shared_variables(cq)
        if not shared:
            continue
        abox = random_abox(rng, max_facts=5, bias=omq.query, tbox=omq.tbox)
        if not is_consistent(abox, omq.tbox):
            continue
        variables = cq.variables()
        values = sorted(abox.individuals) + [ANON]
        for target in sorted(shared):
            for combo in iproduct(values, repeat=len(variables)):
                mu = dict(zip(variables, combo))
                if mu[target] is not ANON:
                    continue
                assert not holds_under_assignment(abox, omq.tbox, cq, mu)
        checked += 1


def test_lemma3_constant_assignment_factorization():
    """For fully-constant assignments, countMS of the instantiated query
    is the product over atoms of countMS of the instantiated atoms."""
    rng = random.Random(41)
    from respo.queries import substitute
    from respo.model import const as mkconst

    done = 0
    while done < 20:
        omq = random_interaction_free_omq(rng, max_atoms=2).omq
        abox = random_abox(rng, max_facts=5, bias=omq.query, tbox=omq.tbox)
        if not is_consistent(abox, omq.tbox):
            continue
        cq = omq.query.disjuncts[0]
        individuals = sorted(abox.individuals)
        if not individuals or not cq.variables():
            continue
        mu = {v: mkconst(individuals[i % len(individuals)]) for i, v in enumerate(cq.variables())}
        ground = substitute(cq, mu)
        ev = make_subset_evaluator(omq.tbox, ground)
        lhs = count_fms_brute(tuple(abox), ev).total()
        rhs = 1
        for atom in ground.relational_atoms():
            ev_atom = make_subset_evaluator(omq.tbox, CQ((atom,)))
            rhs *= count_fms_brute(tuple(abox), ev_atom).total()
        assert lhs == rhs
        done += 1


def test_if_fact_counts_match_brute_force_on_larger_aboxes():
    """IF `Plan.fact_counts` equals brute force, histogram and every
    fact's counts, on seeded consistent ABoxes of 16 or more facts.  Every
    minimal support holds one fact per atom, so brute force stops at the
    atom count."""
    rng = random.Random(5)
    done = supported = multi = 0
    while done < 30:
        plan = random_interaction_free_omq(rng, max_atoms=3)
        omq = plan.omq
        abox = random_abox(rng, max_facts=40, bias=omq.query, tbox=omq.tbox)
        if len(abox) < 16 or not is_consistent(abox, omq.tbox):
            continue
        evaluator = make_subset_evaluator(omq.tbox, omq.query)
        supports = enumerate_minimal_supports(tuple(abox), evaluator, size_cap=len(plan.atoms))
        expected = tally_fact_counts(abox, supports)
        assert Plan(omq, "if").fact_counts(abox) == expected, (omq, list(abox))
        if supports:
            supported += 1
            multi += len(connected_components(plan.cq)) > 1
        done += 1
    assert supported >= 25 and multi >= 10, (supported, multi)
