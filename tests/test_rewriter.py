import random
from itertools import combinations

import pytest

from respo.model import (
    ABox,
    Axiom,
    CONCEPT_INCLUSION,
    CQ,
    OMQ,
    ROLE_INCLUSION,
    Role,
    TBox,
    UnsupportedTBoxError,
    as_ucq,
    concept_atom,
    const,
    role_atom,
    var,
)
from respo.queries import canonicalize
from respo.randgen import random_cq, random_consistent_kb
from respo.rewriter import rewrite
from respo.support import ucq_holds
from respo.textio import parse_tbox

from oracles import entails_ucq


def canonical_set(ucq):
    return {canonicalize(d)[0] for d in ucq.disjuncts}


def test_rewrite_concept_inclusion():
    t = TBox(frozenset({Axiom(CONCEPT_INCLUSION, "A", "B")}))
    omq = OMQ(t, CQ((concept_atom("B", const("c")),)))
    result = rewrite(omq)
    assert canonical_set(result) == canonical_set(
        as_ucq(CQ((concept_atom("B", const("c")),)))
    ) | canonical_set(as_ucq(CQ((concept_atom("A", const("c")),))))


def test_rewrite_empty_tbox_is_identity():
    query = CQ((role_atom("r", var("x"), var("y")),))
    result = rewrite(OMQ(TBox(), query))
    assert canonical_set(result) == canonical_set(as_ucq(query))


def test_rewrite_exists_inverse():
    t = TBox(frozenset({Axiom(CONCEPT_INCLUSION, Role("r", True), "B")}))
    omq = OMQ(t, CQ((concept_atom("B", var("x")),)))
    result = rewrite(omq)
    expected = canonical_set(as_ucq(CQ((concept_atom("B", var("x")),)))) | canonical_set(
        as_ucq(CQ((role_atom("r", var("y"), var("x")),)))
    )
    assert canonical_set(result) == expected


def test_rewrite_needs_unification():
    # A <= exists r applies to r(x,y), r(z,y) only after unifying the atoms.
    t = TBox(frozenset({Axiom(CONCEPT_INCLUSION, "A", Role("r"))}))
    query = CQ((role_atom("r", var("x"), var("y")), role_atom("r", var("z"), var("y"))))
    result = rewrite(OMQ(t, query))
    assert canonical_set(as_ucq(CQ((concept_atom("A", var("u")),)))) <= canonical_set(result)


def test_rewrite_refuses_horn():
    horn = parse_tbox("A & B <= C\n")
    with pytest.raises(UnsupportedTBoxError):
        rewrite(OMQ(horn, CQ((concept_atom("C", const("c")),))))


def test_rewrite_inverse_to_self_role_inclusion():
    # r- <= r flips constant-anchored role atoms.
    t = TBox(frozenset({Axiom(ROLE_INCLUSION, Role("r", True), Role("r"))}))
    query = CQ((role_atom("r", const("c"), const("d")),))
    result = rewrite(OMQ(t, query))
    assert canonical_set(as_ucq(CQ((role_atom("r", const("d"), const("c")),)))) <= canonical_set(result)


def test_rewrite_role_inclusion_orientations():
    t = TBox(frozenset({Axiom(ROLE_INCLUSION, Role("s"), Role("r", True))}))
    query = CQ((role_atom("r", var("x"), var("y")),))
    result = rewrite(OMQ(t, query))
    # s(y,x) entails r(x,y) through s <= r-
    assert canonical_set(as_ucq(CQ((role_atom("s", var("y"), var("x")),)))) <= canonical_set(result)


def test_rewriting_equivalence_on_all_sub_aboxes():
    """A' |= rewrite(Q)  iff  (A', T) |= q, for every subset A' of A."""
    rng = random.Random(5)
    for _ in range(80):
        cq = random_cq(rng, max_atoms=2, allow_neq=False)
        tbox, abox = random_consistent_kb(rng, max_axioms=4, max_facts=4, bias=as_ucq(cq))
        rewritten = rewrite(OMQ(tbox, cq))
        facts = tuple(abox)
        for k in range(len(facts) + 1):
            for combo in combinations(facts, k):
                sub = ABox(tuple(sorted(combo, key=lambda f: f.label)))
                assert ucq_holds(rewritten, combo) == entails_ucq(sub, tbox, as_ucq(cq))


def test_rewriting_equivalence_on_larger_tboxes():
    """The same on 300 seeded KBs with TBoxes of up to 10 axioms.  The
    rewriter reads the TBox closure but never walks the canonical model,
    so this checks the walk's successor rule from outside."""
    rng = random.Random(9)
    entailed = 0
    for _ in range(300):
        cq = random_cq(rng, max_atoms=2, allow_neq=False)
        tbox, abox = random_consistent_kb(rng, max_axioms=10, max_facts=4, bias=as_ucq(cq))
        rewritten = rewrite(OMQ(tbox, cq))
        facts = tuple(abox)
        for k in range(len(facts) + 1):
            for combo in combinations(facts, k):
                sub = ABox(tuple(sorted(combo, key=lambda f: f.label)))
                holds = entails_ucq(sub, tbox, as_ucq(cq))
                assert ucq_holds(rewritten, combo) == holds
                entailed += holds
    assert entailed >= 300, entailed


def test_disequality_queries_refused_over_positive_tboxes():
    # A named witness can displace the anonymous witness that satisfied a
    # disequality (q = s(w,z) & w != z, T = {B <= exists s-}: {B(e)}
    # entails q but {B(e), s(e,e)} does not), so entailment is not
    # monotone and no UCQ rewriting exists.
    t = TBox(frozenset({Axiom(CONCEPT_INCLUSION, "B", Role("s", True))}))
    from respo.model import neq_atom

    query = CQ((role_atom("s", var("w"), var("z")), neq_atom(var("w"), var("z"))))
    with pytest.raises(UnsupportedTBoxError):
        rewrite(OMQ(t, query))


def test_rewriting_with_disequalities_plain_databases():
    """Over TBoxes without positive inclusions, disequality queries rewrite
    to themselves and evaluation agrees on every subset."""
    rng = random.Random(17)
    done = 0
    while done < 20:
        cq = random_cq(rng, max_atoms=2, allow_neq=True)
        if not cq.neq_atoms():
            continue
        abox = __import__("respo.randgen", fromlist=["random_abox"]).random_abox(
            rng, max_facts=4, bias=as_ucq(cq)
        )
        rewritten = rewrite(OMQ(TBox(), cq))
        facts = tuple(abox)
        for k in range(len(facts) + 1):
            for combo in combinations(facts, k):
                sub = ABox(tuple(sorted(combo, key=lambda f: f.label)))
                assert ucq_holds(rewritten, combo) == entails_ucq(sub, TBox(), as_ucq(cq))
        done += 1
