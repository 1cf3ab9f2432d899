import random

import pytest

from respo.model import (
    ABox,
    ANON,
    Axiom,
    CONCEPT_INCLUSION,
    CQ,
    ConjunctionAxiom,
    Fact,
    InconsistentKBError,
    OMQ,
    ROLE_INCLUSION,
    Role,
    TBox,
    UCQ,
    UnsupportedTBoxError,
    as_ucq,
    concept_atom,
    const,
    role_atom,
    var,
)
from respo.randgen import (
    CONCEPT_NAMES,
    ROLE_NAMES,
    random_abox,
    random_consistent_kb,
    random_cq,
    random_dllite_tbox,
)
from respo.queries import hom_exists
from respo.reasoner import canonical_model, entails_ground_atom, is_consistent, saturate
from respo.rewriter import rewrite
from respo.textio import parse_abox, parse_tbox

from oracles import (
    canonical_slice,
    chase_consistent,
    entails_exists,
    entails_ucq,
    holds_under_assignment,
    query_depth,
)


def tb(*axioms):
    return TBox(frozenset(axioms))


def test_saturate_transitivity():
    t = tb(
        Axiom(CONCEPT_INCLUSION, "A", "B"),
        Axiom(CONCEPT_INCLUSION, "B", "C"),
    )
    assert saturate(t).concept_sups("A") == {"A", "B", "C"}


def test_saturate_role_lifting():
    t = tb(
        Axiom(ROLE_INCLUSION, Role("r"), Role("s")),
        Axiom(CONCEPT_INCLUSION, Role("s"), "C"),
    )
    sat = saturate(t)
    assert sat.concept_sups(Role("r")) == {Role("r"), Role("s"), "C"}
    assert sat.concept_sups(Role("r", True)) == {Role("r", True), Role("s", True)}
    assert Role("s", True) in sat.role_sups(Role("r", True))


def test_saturate_reflexive_on_empty():
    sat = saturate(TBox())
    assert sat.concept_sups("X") == {"X"}
    assert sat.concept_sups(Role("r")) == {Role("r")}


def test_below_lookups_mirror_the_above_lookups():
    """x is below y exactly when y is above x, for the concepts and the
    roles of seeded TBoxes, and for keys the TBox does not mention."""
    for seed in range(300):
        sat = saturate(random_dllite_tbox(random.Random(seed), max_axioms=12))
        roles = [Role(name, inverted) for name in ROLE_NAMES + ["q"] for inverted in (False, True)]
        keys = CONCEPT_NAMES + ["Z"] + roles
        for x in keys:
            for y in keys:
                assert (x in sat.concept_subs(y)) == (y in sat.concept_sups(x))
        for r in roles:
            for s in roles:
                assert (r in sat.role_subs(s)) == (s in sat.role_sups(r))


def test_below_lookups_hand_cases():
    """An inverse role inclusion r <= s- puts r below s- and r- below s,
    and lifts to exists r below exists s- and exists r- below exists s;
    r <= s puts exists r below exists s."""
    r, s = Role("r"), Role("s")
    sat = saturate(parse_tbox("role: r <= s-\n"))
    assert sat.role_subs(s.inverse()) == {s.inverse(), r}
    assert sat.role_subs(s) == {s, r.inverse()}
    assert sat.concept_subs(s.inverse()) == {s.inverse(), r}
    assert sat.concept_subs(s) == {s, r.inverse()}
    assert sat.role_subs(r) == {r}
    lifted = saturate(parse_tbox("role: r <= s\nA <= exists r\n"))
    assert lifted.concept_subs(s) == {s, r, "A"}
    assert lifted.concept_subs(s.inverse()) == {s.inverse(), r.inverse()}
    assert lifted.concept_subs("A") == {"A"}


def test_disjoint_pairs_hand_case():
    """The pairs below the two sides of each negative inclusion, both
    ways, R- and S- with R and S, and (k, k) for each empty key: r lies
    below both sides of s <= !t, so r, exists r and exists r- are empty."""
    r, s, t = Role("r"), Role("s"), Role("t")
    sat = saturate(parse_tbox("A <= B\nB <= !C\nrole: s <= !t\nrole: r <= s\nrole: r <= t\n"))
    assert sat.disjoint_concepts == {
        ("A", "C"), ("C", "A"), ("B", "C"), ("C", "B"), (r, r), (r.inverse(), r.inverse()),
    }
    below = {s: {s, r}, t: {t, r}}
    expected = set()
    for x in below[s]:
        for y in below[t]:
            expected |= {(x, y), (y, x), (x.inverse(), y.inverse()), (y.inverse(), x.inverse())}
    assert sat.disjoint_roles == expected


def test_is_consistent_agrees_with_the_chase():
    """`is_consistent` reads the negative closure; `chase_consistent`
    checks each negative inclusion literally on the canonical model,
    built from the positive closure only.  They agree on 4,000 seeded
    KBs with TBoxes of up to 12 axioms, negative inclusions among them."""
    inconsistent = 0
    for seed in range(4000):
        rng = random.Random(seed)
        tbox = random_dllite_tbox(rng, max_axioms=12)
        abox = random_abox(rng, tbox=tbox)
        verdict = is_consistent(abox, tbox)
        assert verdict == chase_consistent(abox, tbox), (seed, tbox, abox)
        inconsistent += not verdict
    assert inconsistent > 1000


def test_saturate_reads_existentials_role_inclusions_and_disjointness():
    """The closure of a TBox with role inclusions, existentials and
    negative inclusions, read through its generating roles, fact rows and
    disjoint pairs, all keyed as the axioms are: a concept name, or the
    role R for exists R."""
    tbox = parse_tbox(
        "A <= exists r\nexists r- <= B\nrole: r <= s-\nB <= !C\n"
        "exists s <= !D\nrole: s <= !t\n"
    )
    sat = saturate(tbox)
    assert sat.generating_roles == {Role("r"), Role("s", True), Role("s")}
    assert sat.fact_row("A", 1) == {"A", Role("r"), Role("s", True)}
    assert sat.fact_row("r", 2)[1] == {Role("r", True), Role("s"), "B"}
    assert ("B", "C") in sat.disjoint_concepts


def test_rewrite_and_the_canonical_model_refuse_horn():
    """`saturate` takes a Horn-extended TBox, whose closure leaves its
    Horn axioms out; the rewriting and the canonical model refuse it."""
    horn = parse_tbox("A <= B\nA & B <= C\n")
    assert saturate(horn).concept_sups("A") == {"A", "B"}
    with pytest.raises(UnsupportedTBoxError, match="^Horn-extended TBoxes admit no finite UCQ"):
        rewrite(OMQ(horn, CQ((concept_atom("C", const("c")),))))
    with pytest.raises(
        UnsupportedTBoxError, match="^canonical model construction requires a pure DL-Lite_R TBox$"
    ):
        canonical_slice(parse_abox("A(c)\n"), horn, 1)


def test_consistency_examples():
    t = tb(Axiom(CONCEPT_INCLUSION, "A", "B", True))
    assert is_consistent(ABox((Fact("f0", "A", ("c",)),)), t)
    assert not is_consistent(
        ABox((Fact("f0", "A", ("c",)), Fact("f1", "B", ("c",)))), t
    )
    t2 = tb(Axiom(CONCEPT_INCLUSION, Role("r"), Role("r"), True))
    assert not is_consistent(ABox((Fact("f0", "r", ("c", "d")),)), t2)


def test_consistency_anonymous_clash():
    # A(a) forces an r-successor whose type is contradictory.
    t = tb(
        Axiom(CONCEPT_INCLUSION, "A", Role("r")),
        Axiom(CONCEPT_INCLUSION, Role("r", True), "B"),
        Axiom(CONCEPT_INCLUSION, Role("r", True), "C"),
        Axiom(CONCEPT_INCLUSION, "B", "C", True),
    )
    assert not is_consistent(ABox((Fact("f0", "A", ("a",)),)), t)


def test_entails_ground_atom_horn_examples(fig1):
    omq, abox = fig1
    assert entails_ground_atom(abox, omq.tbox, concept_atom("FishBased", const("cancalaiseSole")))

    t = parse_tbox("exists r.A <= A\n")
    abox2 = parse_abox("r(c,d)\nA(d)\n")
    assert entails_ground_atom(abox2, t, concept_atom("A", const("c")))

    t3 = parse_tbox("A & B <= C\n")
    abox3 = parse_abox("A(c)\n")
    assert not entails_ground_atom(abox3, t3, concept_atom("C", const("c")))


def test_entails_ground_atom_horn_rejects_existential_rhs():
    t = parse_tbox("A <= exists r\nB & B <= C\n")
    with pytest.raises(UnsupportedTBoxError, match="^existential right-hand sides are unsupported"):
        entails_ground_atom(parse_abox("A(c)\n"), t, concept_atom("C", const("c")))


def test_horn_path_agrees_with_dllite_path():
    """A DL-Lite TBox without positive existential right-hand sides plus
    the tautology A & A <= A is Horn-extended and has the same models, so
    its consistency and ground-atom entailments match the plain TBox's."""
    rng = random.Random(41)
    inconsistent = atoms = 0
    for _ in range(300):
        drawn = random_dllite_tbox(rng, max_axioms=6)
        plain = TBox(frozenset(
            ax for ax in drawn.axioms
            if ax.negated or ax.kind == ROLE_INCLUSION or isinstance(ax.rhs, str)
        ))
        horn = TBox(plain.axioms, frozenset({ConjunctionAxiom("A", "A", "A")}))
        abox = random_abox(rng, max_facts=6, tbox=plain)
        consistent = is_consistent(abox, plain)
        assert is_consistent(abox, horn) == consistent
        if not consistent:
            inconsistent += 1
            continue
        individuals = sorted(abox.individuals)
        ground = [concept_atom(n, const(a)) for n in CONCEPT_NAMES for a in individuals]
        ground += [
            role_atom(n, const(a), const(b))
            for n in ROLE_NAMES for a in individuals for b in individuals
        ]
        for atom in ground:
            assert entails_ground_atom(abox, horn, atom) == entails_ucq(
                abox, plain, UCQ((CQ((atom,)),)))
        atoms += len(ground)
    assert inconsistent > 10 and atoms > 3000


def test_entails_ground_atom_role_inclusion(fig1):
    omq, _ = fig1
    abox = parse_abox("f0: hasGrnsh(x, y)\n")
    atom = role_atom("hasIng", const("x"), const("y"))
    assert entails_ground_atom(abox, omq.tbox, atom)


def test_entails_ground_atom_inverse():
    t = tb(Axiom(CONCEPT_INCLUSION, Role("r", True), "B"))
    abox = parse_abox("r(c,d)\n")
    assert entails_ground_atom(abox, t, concept_atom("B", const("d")))
    assert not entails_ground_atom(abox, t, concept_atom("B", const("c")))


def test_anonymous_witness_only():
    t = tb(Axiom(CONCEPT_INCLUSION, "A", Role("r")))
    abox = parse_abox("A(c)\n")
    assert entails_exists(abox, t, Role("r"), "c")
    assert not entails_ground_atom(abox, t, role_atom("r", const("c"), const("c")))


def slice_elements(target) -> set:
    """The elements of a canonical slice: every element occurs in one of
    its tuples, a named one in a fact's, an anonymous one in the edge to
    its parent."""
    return {w for values in target.tuples.values() for t in values for w in t}


def test_canonical_slice_examples():
    t = tb(
        Axiom(CONCEPT_INCLUSION, "A", Role("r")),
        Axiom(CONCEPT_INCLUSION, Role("r", True), "B"),
    )
    abox = parse_abox("A(c)\n")
    s = canonical_slice(abox, t, 1)
    assert ("c", ()) in slice_elements(s)
    anon = ("c", (Role("r"),))
    assert anon in slice_elements(s)
    assert (anon,) in s.tuples[("B", 1)]

    # named witness suppresses the anonymous one
    abox2 = parse_abox("A(c)\nr(c,d)\n")
    t2 = tb(Axiom(CONCEPT_INCLUSION, "A", Role("r")))
    s2 = canonical_slice(abox2, t2, 1)
    assert all(not w[1] for w in slice_elements(s2))


def test_canonical_slice_chain():
    t = tb(
        Axiom(CONCEPT_INCLUSION, "A", Role("r")),
        Axiom(CONCEPT_INCLUSION, Role("r", True), Role("s")),
        Axiom(CONCEPT_INCLUSION, Role("s", True), Role("r")),
    )
    abox = parse_abox("A(c)\n")
    s = canonical_slice(abox, t, 3)
    chain = {
        ("c", ()),
        ("c", (Role("r"),)),
        ("c", (Role("r"), Role("s"))),
        ("c", (Role("r"), Role("s"), Role("r"))),
    }
    assert slice_elements(s) == chain


def test_slice_monotone_in_depth():
    rng = random.Random(11)
    for _ in range(25):
        tbox, abox = random_consistent_kb(rng, max_axioms=4, max_facts=4)
        if tbox.horn_extended:
            continue
        s1 = canonical_slice(abox, tbox, 1)
        s2 = canonical_slice(abox, tbox, 2)
        assert slice_elements(s1) <= slice_elements(s2)
        for key, ext in s1.tuples.items():
            assert ext <= s2.tuples.get(key, set())


def test_entails_cq_examples():
    t = tb(
        Axiom(CONCEPT_INCLUSION, "A", Role("r")),
        Axiom(CONCEPT_INCLUSION, Role("r", True), "B"),
    )
    abox = parse_abox("A(c)\n")
    assert entails_ucq(abox, t, UCQ((CQ((concept_atom("B", var("x")),)),)))
    assert not entails_ucq(abox, t, UCQ((CQ((concept_atom("B", const("c")),)),)))
    assert not entails_ucq(ABox(()), t, UCQ((CQ((concept_atom("A", const("c")),)),)))


def test_holds_under_assignment_examples():
    t = tb(
        Axiom(CONCEPT_INCLUSION, "A", Role("r")),
        Axiom(CONCEPT_INCLUSION, Role("r", True), "B"),
    )
    abox = parse_abox("A(c)\n")
    query = CQ((concept_atom("B", var("x")),))
    assert holds_under_assignment(abox, t, query, {"x": ANON})
    assert not holds_under_assignment(abox, t, query, {"x": "c"})
    assert holds_under_assignment(
        parse_abox("B(c)\n"), TBox(), query, {"x": "c"}
    )


def test_inconsistent_kb_raises():
    t = tb(Axiom(CONCEPT_INCLUSION, "A", "B", True))
    abox = parse_abox("A(c)\nB(c)\n")
    with pytest.raises(InconsistentKBError):
        entails_ucq(abox, t, UCQ((CQ((concept_atom("A", var("x")),)),)))


def test_oracle_agreement_atomic_queries():
    """Ground-atom entailment agrees with CQ entailment on the same atom."""
    rng = random.Random(23)
    checked = 0
    while checked < 60:
        tbox, abox = random_consistent_kb(rng, max_axioms=4, max_facts=6)
        individuals = sorted(abox.individuals)
        if not individuals:
            continue
        atom = concept_atom(rng.choice(["A", "B", "C"]), const(rng.choice(individuals)))
        assert entails_ground_atom(abox, tbox, atom) == entails_ucq(
            abox, tbox, UCQ((CQ((atom,)),))
        )
        checked += 1


def test_depth_sufficiency():
    """Entailment at `query_depth` agrees with entailment |vars| + 1
    levels deeper."""
    rng = random.Random(29)
    checked = 0
    while checked < 60:
        cq = random_cq(rng, max_atoms=4, allow_neq=False)
        tbox, abox = random_consistent_kb(rng, max_axioms=4, max_facts=5, bias=as_ucq(cq))
        shallow = entails_ucq(abox, tbox, UCQ((cq,)))
        depth = query_depth(cq, tbox) + len(cq.variables()) + 1
        deep = hom_exists(cq, canonical_slice(abox, tbox, depth))
        assert shallow == deep
        checked += 1


CHAIN_TBOX = "B <= exists r\nexists r- <= exists s\nexists s- <= exists t\nexists t- <= A\n"


def test_depth_counts_generating_roles():
    # A lies three anonymous levels below c, deeper than |vars| + 1 = 2.
    tbox = parse_tbox(CHAIN_TBOX)
    query = CQ((concept_atom("A", var("x")),))
    assert saturate(tbox).generating_roles == {Role("r"), Role("s"), Role("t")}
    assert query_depth(query, tbox) == 5
    assert entails_ucq(parse_abox("f0: B(c)\n"), tbox, UCQ((query,)))
    assert not hom_exists(query, canonical_slice(parse_abox("f0: B(c)\n"), tbox, 2))
    # With r- <= s, exists r entails exists s-, which gets an element of
    # its own, and an element reached by r gets an s-successor.
    lifted = parse_tbox("A <= exists r\nrole: r- <= s\n")
    assert saturate(lifted).generating_roles == {Role("r"), Role("s", True), Role("s")}
    slice_ = canonical_slice(parse_abox("A(c)\n"), lifted, 2)
    assert {w[1] for w in slice_elements(slice_) if w[1]} == {
        (Role("r"),), (Role("s", True),), (Role("r"), Role("s"))
    }
    assert not saturate(parse_tbox("role: r <= s\n")).generating_roles


@pytest.mark.parametrize("axioms, role, expected", [
    pytest.param("A <= exists r\n", Role("r"), (set(), {("r", False)}, set()),
                 id="no-step-back"),
    pytest.param("A <= exists r-\nexists r <= B\nexists r <= exists s\n", Role("r", True),
                 ({"B"}, {("r", True)}, {Role("s")}), id="inverse"),
    pytest.param("role: r <= s-\nexists s <= A\n", Role("r"),
                 ({"A"}, {("r", False), ("s", True)}, {Role("s")}), id="r-below-s-inverse"),
    pytest.param("role: r <= r-\n", Role("r"),
                 (set(), {("r", False), ("r", True)}, {Role("r")}), id="symmetric"),
    pytest.param("exists r- <= exists r\n", Role("r"), (set(), {("r", False)}, {Role("r")}),
                 id="loop-by-r"),
    pytest.param("exists r- <= exists r\n", Role("r", True), (set(), {("r", True)}, set()),
                 id="loop-by-r-inverse"),
])
def test_successor_lookup(axioms, role, expected):
    """An element reached by R has the concept names above exists R-, the
    edges of the roles above R to its parent, and a child for each role
    above exists R- but R-, by which its parent already succeeds it: under
    exists r- <= exists r an element reached by r gets an r-child, one
    reached by r- none."""
    names, edges, children = saturate(parse_tbox(axioms)).successor(role)
    assert (set(names), set(edges), set(children)) == expected
    assert len(children) == len(set(children)) and role.inverse() not in children


def test_the_walk_unfolds_each_role_once_without_a_depth():
    """Under A <= exists r and exists r- <= exists r the fact A(c) has an
    endless anonymous r-chain.  A walk to depth 3 gives its first three
    elements; with no depth the r-subtree below the first level is
    unfolded once."""
    tbox = parse_tbox("A <= exists r\nexists r- <= exists r\n")
    r = Role("r")

    def words(depth):
        return {w for _, elements in canonical_model(parse_abox("A(c)\n"), tbox, depth)
                for w in elements}

    assert words(0) == {("c", ())}
    assert words(3) == {("c", ()), ("c", (r,)), ("c", (r, r)), ("c", (r, r, r))}
    assert words(None) == {("c", ()), ("c", (r,)), ("c", (r, r))}
