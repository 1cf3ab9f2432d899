import random
from fractions import Fraction

from respo.model import (
    CQ,
    Fact,
    UCQ,
    concept_atom,
    const,
    neq_atom,
    role_atom,
    var,
)
from respo.queries import canonical_form, with_all_pairs_neq
from respo.randgen import random_database, random_ucq
from respo.support import (
    build_counting_queries,
    count_automorphisms,
    count_fms_brute,
    count_fms_partition,
    count_homomorphisms,
    enumerate_minimal_supports,
    make_subset_evaluator,
    minimal_supports_via_hom_images,
    partition_histogram,
    reducts,
    ucq_holds,
)


def facts(*specs):
    return tuple(Fact(f"f{i}", p, args) for i, (p, args) in enumerate(specs))


def rxy():
    return CQ((role_atom("r", var("x"), var("y")),))


def rxy_ryx():
    return CQ((role_atom("r", var("x"), var("y")), role_atom("r", var("y"), var("x"))))


# ---------------------------------------------------------------------------
# Enumeration
# ---------------------------------------------------------------------------

def test_enumerate_minimal_supports_fig1(fig1):
    omq, abox = fig1
    ev = make_subset_evaluator(omq.tbox, omq.query)
    sups = enumerate_minimal_supports(tuple(abox), ev)
    assert sorted(s.labels() for s in sups) == [
        ("f1", "f2"),
        ("f3", "f4", "f5"),
        ("f3", "f6", "f7"),
    ]


def test_enumerate_empty_when_unsatisfied():
    ev = make_subset_evaluator(
        __import__("respo.model", fromlist=["TBox"]).TBox(),
        CQ((concept_atom("Z", var("x")),)),
    )
    assert enumerate_minimal_supports(facts(("A", ("c",))), ev) == []


def test_single_fact_support():
    db = facts(("A", ("c",)))
    ev = lambda s: any(f.predicate == "A" and f.args == ("c",) for f in s)
    sups = enumerate_minimal_supports(db, ev)
    assert [s.labels() for s in sups] == [("f0",)]


def test_count_fms_brute_examples(fig1):
    omq, abox = fig1
    ev = make_subset_evaluator(omq.tbox, omq.query)
    assert count_fms_brute(tuple(abox), ev) == {2: 1, 3: 2}

    db = facts(("r", ("c", "d")), ("r", ("d", "c")), ("r", ("e", "e")))
    assert count_fms_brute(db, lambda s: ucq_holds(UCQ((rxy(),)), s)) == {1: 3}


def test_minimality_audit(fig1):
    omq, abox = fig1
    ev = make_subset_evaluator(omq.tbox, omq.query)
    for s in enumerate_minimal_supports(tuple(abox), ev):
        assert ev(s.facts)
        for f in s.facts:
            assert not ev(s.facts - {f})


def test_hom_image_enumeration_agrees_with_subsets():
    rng = random.Random(3)
    for _ in range(60):
        ucq = random_ucq(rng)
        db = random_database(rng, bias=ucq)
        brute = {s.facts for s in enumerate_minimal_supports(tuple(db), lambda s: ucq_holds(ucq, s))}
        images = {s.facts for s in minimal_supports_via_hom_images(ucq, tuple(db))}
        assert brute == images


# ---------------------------------------------------------------------------
# Reducts / counting queries
# ---------------------------------------------------------------------------

def test_reducts_single_role_atom():
    out = reducts(rxy(), 1)
    forms = {canonical_form(q) for q in out}
    assert forms == {
        canonical_form(CQ((role_atom("r", var("a"), var("b")),))),
        canonical_form(CQ((role_atom("r", var("a"), var("a")),))),
    }


def test_reducts_swap_pair():
    assert {canonical_form(q) for q in reducts(rxy_ryx(), 1)} == {
        canonical_form(CQ((role_atom("r", var("a"), var("a")),)))
    }
    two = reducts(rxy_ryx(), 2)
    assert len(two) == 1 and len(two[0].relational_atoms()) == 2


def test_counting_queries_single_atom():
    out = build_counting_queries(rxy(), 1)
    gammas = sorted((len(c.cq.neq_atoms()), c.gamma) for c in out)
    assert gammas == [(0, Fraction(1)), (1, Fraction(1))]


def test_counting_queries_swap_gamma():
    out = build_counting_queries(rxy_ryx(), 2)
    assert len(out) == 1
    assert out[0].gamma == Fraction(1, 2)


def test_counting_queries_ground_atom():
    ground = CQ((concept_atom("A", const("c")),))
    out = build_counting_queries(ground, 1)
    assert len(out) == 1 and out[0].gamma == Fraction(1)


def test_count_automorphisms_examples():
    assert count_automorphisms(with_all_pairs_neq(rxy())) == 1
    assert count_automorphisms(with_all_pairs_neq(rxy_ryx())) == 2
    triangle = with_all_pairs_neq(
        CQ(
            (
                role_atom("r", var("x"), var("y")),
                role_atom("r", var("y"), var("z")),
                role_atom("r", var("z"), var("x")),
            )
        )
    )
    assert count_automorphisms(triangle) == 3


def test_count_homomorphisms_examples():
    db = facts(("r", ("c", "d")), ("r", ("d", "c")))
    assert count_homomorphisms(rxy(), db) == 2
    blocked = CQ((role_atom("r", var("x"), var("y")), neq_atom(var("x"), var("y"))))
    assert count_homomorphisms(blocked, facts(("r", ("e", "e")))) == 0
    swap = with_all_pairs_neq(rxy_ryx())
    assert count_homomorphisms(swap, db) == 2


def test_count_fms_partition_examples():
    db = facts(("r", ("c", "d")), ("r", ("d", "c")), ("r", ("e", "e")))
    assert count_fms_partition(rxy(), 1, db) == 3
    db2 = facts(("r", ("c", "d")), ("r", ("d", "c")))
    assert count_fms_partition(rxy_ryx(), 2, db2) == 1
    assert count_fms_partition(rxy_ryx(), 3, db2) == 0


def test_partition_handles_cross_disjunct_constants():
    # A variable of one disjunct landing on a constant of another disjunct
    # must not produce phantom supports.
    ucq = UCQ(
        (
            CQ((role_atom("s", const("c"), var("y")), role_atom("s", var("w"), var("z")))),
            CQ((concept_atom("C", var("z")), role_atom("s", var("w"), var("z")))),
        )
    )
    db = facts(
        ("s", ("c", "d")),
        ("s", ("e", "d")),
        ("s", ("d", "c")),
        ("C", ("c",)),
        ("C", ("d",)),
        ("s", ("d", "e")),
    )
    brute = count_fms_brute(db, lambda s: ucq_holds(ucq, s))
    assert partition_histogram(ucq, db) == brute


def test_partition_equals_brute_randomized():
    rng = random.Random(101)
    for _ in range(120):
        ucq = random_ucq(rng)
        db = random_database(rng, bias=ucq)
        brute = count_fms_brute(tuple(db), lambda s: ucq_holds(ucq, s))
        assert partition_histogram(ucq, tuple(db)) == brute


def test_claim2_homs_equal_autos_times_minsups():
    rng = random.Random(59)
    for _ in range(60):
        ucq = random_ucq(rng)
        db = random_database(rng, bias=ucq)
        max_k = max(len(d.relational_atoms()) for d in ucq.disjuncts)
        for k in range(1, max_k + 1):
            for counting in build_counting_queries(ucq, k):
                homs = count_homomorphisms(counting.cq, tuple(db))
                sups = enumerate_minimal_supports(
                    tuple(db), lambda s: ucq_holds(UCQ((counting.cq,)), s)
                )
                assert homs == count_automorphisms(counting.cq) * len(sups)


def test_counting_queries_quadratic_size():
    rng = random.Random(61)
    for _ in range(40):
        ucq = random_ucq(rng)
        size = max(len(d.atoms) for d in ucq.disjuncts)
        max_k = max(len(d.relational_atoms()) for d in ucq.disjuncts)
        for k in range(1, max_k + 1):
            for counting in build_counting_queries(ucq, k):
                assert len(counting.cq.atoms) <= (2 * size + 2) ** 2

