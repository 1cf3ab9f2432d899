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
from respo.queries import canonicalize, canonicalize_counted, hom_minimal, with_all_pairs_neq
from respo.randgen import random_database, random_ucq
from respo.support import (
    _all_reducts,
    count_automorphisms,
    count_fms_brute,
    count_fms_partition,
    count_homomorphisms,
    counting_queries,
    enumerate_minimal_supports,
    make_subset_evaluator,
    minimal_supports_via_hom_images,
    partition_histogram,
    reducts,
    ucq_constants,
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
    out = reducts(rxy())[1]
    forms = {canonicalize(q)[0] for q in out}
    assert forms == {
        canonicalize(CQ((role_atom("r", var("a"), var("b")),)))[0],
        canonicalize(CQ((role_atom("r", var("a"), var("a")),)))[0],
    }


def test_reducts_swap_pair():
    assert {canonicalize(q)[0] for q in reducts(rxy_ryx())[1]} == {
        canonicalize(CQ((role_atom("r", var("a"), var("a")),)))[0]
    }
    two = reducts(rxy_ryx())[2]
    assert len(two) == 1 and len(two[0].relational_atoms()) == 2


def test_counting_queries_single_atom():
    out = counting_queries(rxy())[1]
    gammas = sorted((len(c.cq.neq_atoms()), c.gamma) for c in out)
    assert gammas == [(0, Fraction(1)), (1, Fraction(1))]


def test_counting_queries_swap_gamma():
    out = counting_queries(rxy_ryx())[2]
    assert len(out) == 1
    assert out[0].gamma == Fraction(1, 2)


def test_counting_queries_ground_atom():
    ground = CQ((concept_atom("A", const("c")),))
    out = counting_queries(ground)[1]
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


def cycle(n: int) -> CQ:
    names = [f"x{i}" for i in range(n)]
    return CQ(tuple(role_atom("r", var(a), var(b)) for a, b in zip(names, names[1:] + names[:1])))


def one_concept_one_role(rng: random.Random) -> CQ:
    """A CQ of two to four atoms over A and r alone, often symmetric."""

    def term():
        return const("c") if rng.random() < 0.1 else var(rng.choice("xyzw"))

    return CQ(tuple(
        concept_atom("A", term()) if rng.random() < 0.5 else role_atom("r", term(), term())
        for _ in range(rng.randint(2, 4))
    ))


def test_gamma_from_canonical_search_matches_automorphism_count():
    """The orderings that attain a rigid query's canonical key number its
    automorphisms, so the gamma `counting_queries` reads off the canonical
    search equals 1 / `count_automorphisms`: checked on the rigid form of
    every reduct of seeded random queries and of the 2-, 3- and 4-cycles,
    and on every counting query."""
    rng = random.Random(8080)
    ucqs = [UCQ((cycle(n),)) for n in (2, 3, 4)]
    ucqs += [random_ucq(rng, max_disjuncts=2, max_atoms=4) for _ in range(80)]
    ucqs += [UCQ((one_concept_one_role(rng),)) for _ in range(40)]
    seen = {"constants": 0, "repeated predicates": 0, "symmetric": 0}
    for ucq in ucqs:
        pins = ucq_constants(ucq)
        for q in _all_reducts(ucq).values():
            rigid = with_all_pairs_neq(q, pins)
            key, renamed, automorphisms = canonicalize_counted(rigid)
            assert automorphisms == count_automorphisms(rigid), q
            assert (key, renamed) == canonicalize(rigid)
            predicates = [a.predicate for a in q.relational_atoms()]
            seen["constants"] += bool(q.constants())
            seen["repeated predicates"] += len(set(predicates)) < len(predicates)
            seen["symmetric"] += automorphisms > 1
        for qs in counting_queries(ucq).values():
            for c in qs:
                assert c.gamma == Fraction(1, count_automorphisms(c.cq)), c
    assert min(seen.values()) >= 10, seen
    cycle_gammas = [
        sorted(c.gamma for c in counting_queries(UCQ((cycle(n),)))[n]) for n in (2, 3, 4)
    ]
    assert [max(gs) for gs in cycle_gammas] == [Fraction(1, 2), Fraction(1, 3), Fraction(1, 4)]


def test_gamma_is_counted_on_the_rigid_query():
    """A reduct with its own disequality, A(?x), A(?y), A(?z), ?x != ?y:
    rigidified, all six permutations are automorphisms (gamma 1/6); the
    reduct itself has only the two that keep ?z in place.  The compile
    counts on the rigid form too."""
    x, y, z = var("x"), var("y"), var("z")
    q = CQ((concept_atom("A", x), concept_atom("A", y), concept_atom("A", z), neq_atom(x, y)))
    assert canonicalize_counted(with_all_pairs_neq(q))[2] == 6
    assert canonicalize_counted(q)[2] == 2
    assert count_automorphisms(with_all_pairs_neq(q)) == 6
    # The directed 3-cycle with ?x0 != ?x1 is a size-3 counting query: its
    # rotations are automorphisms of the rigid form, not of the reduct.
    looped = CQ(cycle(3).atoms + (neq_atom(var("x0"), var("x1")),))
    assert canonicalize_counted(looped)[2] == 1
    cycle_query, collapsed = counting_queries(looped)[3]
    assert len(cycle_query.cq.variables()) == 3 and cycle_query.gamma == Fraction(1, 3)
    assert len(collapsed.cq.variables()) == 2 and collapsed.gamma == 1


def test_count_homomorphisms_examples():
    db = facts(("r", ("c", "d")), ("r", ("d", "c")))
    assert count_homomorphisms(rxy(), db) == 2
    blocked = CQ((role_atom("r", var("x"), var("y")), neq_atom(var("x"), var("y"))))
    assert count_homomorphisms(blocked, facts(("r", ("e", "e")))) == 0
    swap = with_all_pairs_neq(rxy_ryx())
    assert count_homomorphisms(swap, db) == 2


def test_count_fms_partition_examples():
    db = facts(("r", ("c", "d")), ("r", ("d", "c")), ("r", ("e", "e")))
    assert count_fms_partition(counting_queries(rxy())[1], db) == 3
    db2 = facts(("r", ("c", "d")), ("r", ("d", "c")))
    assert count_fms_partition(counting_queries(rxy_ryx())[2], db2) == 1
    assert count_fms_partition(counting_queries(rxy_ryx()).get(3, ()), db2) == 0


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
    assert partition_histogram(counting_queries(ucq), db) == brute


def test_partition_equals_brute_randomized():
    rng = random.Random(101)
    for _ in range(120):
        ucq = random_ucq(rng)
        db = random_database(rng, bias=ucq)
        brute = count_fms_brute(tuple(db), lambda s: ucq_holds(ucq, s))
        assert partition_histogram(counting_queries(ucq), tuple(db)) == brute


def test_claim2_homs_equal_autos_times_minsups():
    rng = random.Random(59)
    for _ in range(60):
        ucq = random_ucq(rng)
        db = random_database(rng, bias=ucq)
        for queries in counting_queries(ucq).values():
            for counting in queries:
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
        for queries in counting_queries(ucq).values():
            for counting in queries:
                assert len(counting.cq.atoms) <= (2 * size + 2) ** 2



def test_rigid_candidates_need_no_hom_pruning():
    """Rigid queries of one size that differ in canonical form are pairwise
    hom-incomparable, so `hom_minimal` keeps every one of them and the
    counting queries are exactly the canonically sorted candidates."""
    rng = random.Random(4111)
    seen = 0
    for _ in range(150):
        ucq = random_ucq(rng, max_disjuncts=2, max_atoms=3)
        pins = ucq_constants(ucq)
        by_size = counting_queries(ucq)
        for k, qs in reducts(ucq).items():
            rigid = {}
            for q in qs:
                key, aug = canonicalize(with_all_pairs_neq(q, pins))
                rigid.setdefault(key, aug)
            candidates = [rigid[key] for key in sorted(rigid)]
            assert hom_minimal(rigid) == candidates, ucq
            assert [c.cq for c in by_size[k]] == candidates
            seen += len(candidates) > 1
    assert seen >= 50, seen


def test_counting_queries_rigidify_each_reduct_once(monkeypatch, variant):
    """Compiling the variant's counting queries rigidifies each of its 104
    reducts once, in the minimality test, and reuses that form for the
    canonical search (twice per reduct before)."""
    import respo.support
    from respo.rewriter import rewrite

    omq, _ = variant
    ucq = rewrite(omq)
    calls = []

    def counted(q, pins):
        calls.append(q)
        return with_all_pairs_neq(q, pins)

    monkeypatch.setattr(respo.support, "with_all_pairs_neq", counted)
    queries = counting_queries(ucq)
    assert sum(map(len, queries.values())) == len(_all_reducts(ucq)) == 104
    assert len(calls) == 104
    assert len({canonicalize(q)[0] for q in calls}) == 104
