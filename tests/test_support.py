import random
from fractions import Fraction

from respo.model import (
    CQ,
    OMQ,
    Fact,
    TBox,
    UCQ,
    concept_atom,
    const,
    neq_atom,
    role_atom,
    var,
)
from respo.queries import canonicalize, hom_minimal, with_all_pairs_neq
from respo.randgen import random_database, random_ucq
from respo.support import (
    FactDB,
    _unmergeable,
    basis_fact_counts,
    counting_queries,
    enumerate_minimal_supports,
    homomorphism_basis,
    make_subset_evaluator,
    ucq_constants,
    ucq_holds,
)
from respo.textio import parse_query, parse_tbox

import oracles
from oracles import (
    all_reducts,
    count_automorphisms,
    count_fms_brute,
    hom_count,
    minimal_supports_via_hom_images,
    partition_fact_counts,
    reducts,
    tally_fact_counts,
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
        for q in all_reducts(ucq).values():
            rigid = with_all_pairs_neq(q, pins)
            automorphisms = canonicalize(rigid)[2]
            assert automorphisms == count_automorphisms(rigid), q
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
    assert canonicalize(with_all_pairs_neq(q))[2] == 6
    assert canonicalize(q)[2] == 2
    assert count_automorphisms(with_all_pairs_neq(q)) == 6
    # The directed 3-cycle with ?x0 != ?x1 is a size-3 counting query: its
    # rotations are automorphisms of the rigid form, not of the reduct.
    looped = CQ(cycle(3).atoms + (neq_atom(var("x0"), var("x1")),))
    assert canonicalize(looped)[2] == 1
    cycle_query, collapsed = counting_queries(looped)[3]
    assert len(cycle_query.cq.variables()) == 3 and cycle_query.gamma == Fraction(1, 3)
    assert len(collapsed.cq.variables()) == 2 and collapsed.gamma == 1


def test_hom_count_examples():
    db = FactDB(facts(("r", ("c", "d")), ("r", ("d", "c"))))
    assert hom_count(rxy(), db) == 2
    blocked = CQ((role_atom("r", var("x"), var("y")), neq_atom(var("x"), var("y"))))
    assert hom_count(blocked, FactDB(facts(("r", ("e", "e"))))) == 0
    swap = with_all_pairs_neq(rxy_ryx())
    assert hom_count(swap, db) == 2


def test_partition_totals_examples():
    db = facts(("r", ("c", "d")), ("r", ("d", "c")), ("r", ("e", "e")))
    assert partition_fact_counts(counting_queries(rxy()), db)[0][1] == 3
    db2 = facts(("r", ("c", "d")), ("r", ("d", "c")))
    totals = partition_fact_counts(counting_queries(rxy_ryx()), db2)[0]
    assert totals[2] == 1
    assert totals[3] == 0


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
    assert partition_fact_counts(counting_queries(ucq), db)[0] == brute


def test_partition_equals_brute_randomized():
    rng = random.Random(101)
    for _ in range(120):
        ucq = random_ucq(rng)
        db = random_database(rng, bias=ucq)
        brute = count_fms_brute(tuple(db), lambda s: ucq_holds(ucq, s))
        assert partition_fact_counts(counting_queries(ucq), tuple(db))[0] == brute


def test_claim2_homs_equal_autos_times_minsups():
    rng = random.Random(59)
    for _ in range(60):
        ucq = random_ucq(rng)
        db = random_database(rng, bias=ucq)
        for queries in counting_queries(ucq).values():
            for counting in queries:
                homs = hom_count(counting.cq, FactDB(db))
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
                key, aug, _ = canonicalize(with_all_pairs_neq(q, pins))
                rigid.setdefault(key, aug)
            candidates = [rigid[key] for key in sorted(rigid)]
            assert hom_minimal(rigid) == candidates, ucq
            assert [c.cq for c in by_size[k]] == candidates
            seen += len(candidates) > 1
    assert seen >= 50, seen


def test_hom_minimal_keeps_the_core_of_a_hom_equivalent_pair():
    """r(?x,?y), r(?x,?w), s(?w,?z) maps onto its core r(?x,?y), s(?y,?z)
    and has the smaller canonical form; `hom_minimal` keeps the core."""
    core = parse_query("r(?x, ?y), s(?y, ?z)\n").disjuncts[0]
    padded = parse_query("r(?x, ?y), r(?x, ?w), s(?w, ?z)\n").disjuncts[0]
    forms = {canonicalize(q)[0]: q for q in (core, padded)}
    assert min(forms) == canonicalize(padded)[0]
    assert hom_minimal(forms) == [core]


def test_counting_queries_rigidify_each_reduct_once(monkeypatch, variant):
    """Compiling the variant's counting queries rigidifies each of its 104
    reducts once, as its class is formed, and reuses that form for the
    canonical search; they equal the reduct-by-reduct reference."""
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
    assert sum(map(len, queries.values())) == len(all_reducts(ucq)) == 104
    assert len(calls) == 104
    assert len({canonicalize(q)[0] for q in calls}) == 104
    monkeypatch.undo()
    assert queries == oracles.counting_queries(ucq)


# ---------------------------------------------------------------------------
# The homomorphism basis
# ---------------------------------------------------------------------------

def test_basis_equals_enumerating_search_randomized():
    """The counting queries equal the reduct-by-reduct reference, and the
    basis histogram and every fact's basis counts equal those of the
    enumerating search over the reference's counting queries, on 320
    seeded UCQs of up to three disjuncts of up to four atoms, with
    constants (also ones that only another disjunct mentions),
    disequalities and self-joins, over databases of up to 14 facts.
    Every fourth UCQ is a CQ over A and r alone, a cycle or a random
    often symmetric one, whose coefficients are often fractional.  Many UCQs have unmergeable
    disjuncts, which the basis takes without enumerating their
    quotients, and many mix them with disjuncts it enumerates."""
    rng = random.Random(1515)
    seen = dict.fromkeys(
        ("supports", "constants", "cross-disjunct constants", "disequalities",
         "self-joins", "fractional coefficients", "unmergeable disjuncts",
         "UCQs mixing both kinds"), 0)
    for i in range(320):
        if i % 4 == 3:
            ucq = UCQ((rng.choice((cycle(2), cycle(3), one_concept_one_role(rng))),))
        else:
            ucq = random_ucq(rng, max_disjuncts=2 + i % 2, max_atoms=3 + i % 2)
        db = tuple(random_database(rng, max_facts=14, bias=ucq))
        queries, basis = oracles.counting_queries(ucq), homomorphism_basis(ucq)
        assert counting_queries(ucq) == queries, ucq
        histogram, counts = partition_fact_counts(queries, db)
        assert basis_fact_counts(basis, db) == (histogram, counts), ucq
        seen["supports"] += histogram.total() > 0
        seen["constants"] += bool(ucq_constants(ucq))
        seen["cross-disjunct constants"] += any(
            set(ucq_constants(ucq)) - set(d.constants()) for d in ucq.disjuncts
        )
        seen["disequalities"] += any(d.neq_atoms() for d in ucq.disjuncts)
        seen["self-joins"] += any(
            len({a.predicate for a in d.relational_atoms()}) < len(d.relational_atoms())
            for d in ucq.disjuncts
        )
        seen["fractional coefficients"] += any(
            t.coefficient.denominator > 1 for terms in basis.values() for t in terms
        )
        whole = len(_unmergeable(ucq.disjuncts))
        seen["unmergeable disjuncts"] += whole > 0
        seen["UCQs mixing both kinds"] += 0 < whole < len(ucq.disjuncts)
    assert min(seen.values()) >= 30, seen


def test_variant_basis_is_its_rewriting(variant):
    """The variant rewriting's 104 counting queries, all of size 6,
    collapse to the rewriting's two disjuncts, each with coefficient 1."""
    from respo.rewriter import rewrite

    omq, _ = variant
    ucq = rewrite(omq)
    basis = homomorphism_basis(ucq)
    assert sum(len(qs) for qs in oracles.counting_queries(ucq).values()) == 104
    assert {k: len(terms) for k, terms in basis.items()} == {1: 0, 2: 0, 3: 0, 4: 0, 5: 0, 6: 2}
    assert [t.coefficient for t in basis[6]] == [1, 1]
    assert sorted(canonicalize(t.cq)[0] for t in basis[6]) == sorted(
        canonicalize(d)[0] for d in ucq.disjuncts
    )


def test_variant_basis_canonicalizes_each_disjunct_once(monkeypatch, variant):
    """The variant rewriting's two disjuncts are unmergeable, so the basis
    canonicalizes each of them once instead of enumerating their 104
    quotients."""
    import respo.support
    from respo.rewriter import rewrite

    omq, _ = variant
    ucq = rewrite(omq)
    calls = []

    def counted(q):
        calls.append(q)
        return canonicalize(q)

    monkeypatch.setattr(respo.support, "canonicalize", counted)
    basis = homomorphism_basis(ucq)
    assert _unmergeable(ucq.disjuncts) == {0, 1}
    assert calls == list(ucq.disjuncts)
    assert [t.coefficient for t in basis[6]] == [1, 1]


def chain_omq(n: int, self_join: bool = False) -> OMQ:
    """The interaction-free chain A0(?x0), r0(?x0,?x1), A1(?x1), ...,
    A(n-1)(?x(n-1)) under B_i <= A_i and exists s_i <= A_i, whose
    rewriting has 3^n disjuncts of 2n-1 atoms with distinct predicates.
    With `self_join`, exists r0 <= A0 makes it not interaction-free, and
    A0 can also be rewritten to a second r0 atom."""
    tbox = "".join(f"B{i} <= A{i}\nexists s{i} <= A{i}\n" for i in range(n))
    tbox += "exists r0 <= A0\n" if self_join else ""
    atoms = [f"A{i}(?x{i})" for i in range(n)] + [f"r{i}(?x{i}, ?x{i + 1})" for i in range(n - 1)]
    return OMQ(parse_tbox(tbox), parse_query(", ".join(atoms) + "\n"))


def test_hom_minimal_builds_each_query_target_once(monkeypatch):
    """`hom_minimal` makes each query a search target once, not once per
    ordered pair it compares: rewriting the self-join chain at n = 3
    compares 45 canonical forms and builds 45 targets (1,432 before)."""
    import respo.queries
    import respo.rewriter
    from respo.queries import query_target
    from respo.rewriter import rewrite

    built, compared = [], []

    def counted_target(dst):
        built.append(dst)
        return query_target(dst)

    def recorded(forms):
        compared.extend(forms[key] for key in sorted(forms))
        return hom_minimal(forms)

    monkeypatch.setattr(respo.queries, "query_target", counted_target)
    monkeypatch.setattr(respo.rewriter, "hom_minimal", recorded)
    ucq = rewrite(chain_omq(3, self_join=True))
    assert len(ucq.disjuncts) == 9 and len(compared) == 45
    assert built == compared


def chain_abox(rng: random.Random, n: int, copies: int = 4) -> tuple[Fact, ...]:
    """Seeded copies of the chain's data: each A_i, B_i and s_i fact of a
    copy present with probability 1/2, each r_i edge within a copy with
    probability 9/10 and across two copies with 1/5."""
    specs = []
    for c in range(copies):
        for i in range(n):
            for pred, args in (("A", (f"c{c}_{i}",)), ("B", (f"c{c}_{i}",)),
                               ("s", (f"c{c}_{i}", f"w{c}_{i}"))):
                if rng.random() < 0.5:
                    specs.append((f"{pred}{i}", args))
            for d in range(copies):
                if i < n - 1 and rng.random() < (0.9 if c == d else 0.2):
                    specs.append((f"r{i}", (f"c{c}_{i}", f"c{d}_{i + 1}")))
    return facts(*specs)


def test_chain_basis_equals_enumerating_search(monkeypatch):
    """On the interaction-free chain family every disjunct is unmergeable:
    for n <= 3 the counting queries equal the reduct-by-reduct reference,
    and the basis histogram and every fact's basis counts equal the
    enumerating search's over them on a seeded 4-copy ABox; at n = 5 the
    basis is the rewriting's 243 disjuncts, each canonicalized once and
    taken with coefficient 1."""
    import respo.support
    from respo.rewriter import rewrite

    rng = random.Random(316)
    credited = []
    for n in (1, 2, 3):
        ucq = rewrite(chain_omq(n))
        db = chain_abox(rng, n)
        basis, queries = homomorphism_basis(ucq), oracles.counting_queries(ucq)
        assert counting_queries(ucq) == queries
        histogram, counts = partition_fact_counts(queries, db)
        assert len(_unmergeable(ucq.disjuncts)) == len(ucq.disjuncts) == 3 ** n
        assert basis_fact_counts(basis, db) == (histogram, counts)
        credited.append(sum(bool(c) for c in counts.values()))
    assert min(credited) >= 5, credited

    ucq = rewrite(chain_omq(5))
    calls = []

    def counted(q):
        calls.append(q)
        assert len(calls) <= 243, "an unmergeable disjunct's quotients were enumerated"
        return canonicalize(q)

    monkeypatch.setattr(respo.support, "canonicalize", counted)
    basis = homomorphism_basis(ucq)
    assert len(calls) == len(ucq.disjuncts) == 243
    assert {k: len(terms) for k, terms in basis.items() if terms} == {9: 243}
    assert {t.coefficient for t in basis[9]} == {1}


def test_self_join_chain_basis_equals_enumerating_search(monkeypatch):
    """On the chain with exists r0 <= A0 the rewriting keeps each
    disjunct's core, not a copy padded with a second r0 atom, so again
    every disjunct is unmergeable: for n <= 3 the counting queries equal
    the reduct-by-reduct reference, and the basis histogram and every
    fact's basis counts equal the enumerating search's over them on a
    seeded 4-copy ABox; at n = 5 the basis is the rewriting's 81 disjuncts,
    each canonicalized once."""
    import respo.support
    from respo.rewriter import rewrite

    rng = random.Random(317)
    credited = []
    for n, size in ((1, 4), (2, 3), (3, 9)):
        ucq = rewrite(chain_omq(n, self_join=True))
        db = chain_abox(rng, n)
        basis, queries = homomorphism_basis(ucq), oracles.counting_queries(ucq)
        assert counting_queries(ucq) == queries
        histogram, counts = partition_fact_counts(queries, db)
        assert len(_unmergeable(ucq.disjuncts)) == len(ucq.disjuncts) == size
        assert basis_fact_counts(basis, db) == (histogram, counts)
        credited.append(sum(bool(c) for c in counts.values()))
    assert min(credited) >= 5, credited

    ucq = rewrite(chain_omq(5, self_join=True))
    calls = []

    def counted(q):
        calls.append(q)
        assert len(calls) <= 81, "an unmergeable disjunct's quotients were enumerated"
        return canonicalize(q)

    monkeypatch.setattr(respo.support, "canonicalize", counted)
    basis = homomorphism_basis(ucq)
    assert len(calls) == len(ucq.disjuncts) == 81
    assert {k: len(terms) for k, terms in basis.items() if terms} == {8: 81}
    assert {t.coefficient for t in basis[8]} == {1}


def test_basis_merges_reducts_by_rigid_class():
    """?z != d & s(?z,d), a reduct of the first disjunct, and s(?x,d), one
    of the second, have different canonical forms but one rigid form (the
    UCQ of `random_ucq` seed 142).  The basis counts their supports once,
    with gamma from the relational atoms alone, and no term keeps a
    disequality."""
    z, x, w, d = var("z"), var("x"), var("w"), const("d")
    ucq = UCQ((
        CQ((neq_atom(z, d), role_atom("s", z, d))),
        CQ((role_atom("s", x, w),)),
    ))
    assert ucq == random_ucq(random.Random(142))
    db = facts(("s", ("e", "d")), ("s", ("d", "d")), ("s", ("c", "e")), ("A", ("d",)))
    supports = enumerate_minimal_supports(db, lambda s: ucq_holds(ucq, s))
    basis = homomorphism_basis(ucq)
    assert basis_fact_counts(basis, db) == tally_fact_counts(db, supports)
    assert basis_fact_counts(basis, db)[0] == {1: 3}
    assert not any(t.cq.neq_atoms() for terms in basis.values() for t in terms)


def test_basis_takes_gamma_from_the_rigid_form():
    """A(?w), r(?y,?z), r(?z,?y), ?w != ?z keeps one ordering of its own,
    the disequality breaking the swap of ?y and ?z, but its rigid form
    keeps two: the basis divides by two, and counts the one support
    once."""
    w, y, z = var("w"), var("y"), var("z")
    ucq = UCQ((CQ((concept_atom("A", w), role_atom("r", y, z), role_atom("r", z, y),
                   neq_atom(w, z))),))
    assert canonicalize(ucq.disjuncts[0])[2] == 1
    db = facts(("A", ("c",)), ("r", ("d", "e")), ("r", ("e", "d")), ("r", ("c", "d")))
    supports = enumerate_minimal_supports(db, lambda s: ucq_holds(ucq, s))
    assert [len(s) for s in supports] == [3]
    assert basis_fact_counts(homomorphism_basis(ucq), db) == tally_fact_counts(db, supports)


def test_basis_expands_disequalities_away():
    """hom(q & ?y != ?z) = hom(q) - hom(q[?z := ?y]): the size-2 basis of
    r(?x,?y), r(?x,?z), ?y != ?z is the star r(?x,?y), r(?x,?z) with the
    query's 1/2 and its quotient r(?x,?y) with -1/2, and no term keeps a
    disequality."""
    basis = homomorphism_basis(parse_query("r(?x,?y), r(?x,?z), ?y != ?z\n"))
    star, edge = (parse_query(text).disjuncts[0] for text in ("r(?x,?y), r(?x,?z)\n", "r(?x,?y)\n"))
    assert {canonicalize(t.cq)[0]: t.coefficient for t in basis[2]} == {
        canonicalize(star)[0]: Fraction(1, 2), canonicalize(edge)[0]: Fraction(-1, 2)}


def plain_database(rng: random.Random, n: int) -> tuple[Fact, ...]:
    """n distinct facts on A, B, C, r and s over ten constants, among them
    the c and d that random queries mention."""
    pool = ["c", "d", *(f"k{i}" for i in range(8))]
    contents: dict[tuple, None] = {}
    while len(contents) < n:
        pred = rng.choice("ABCrs")
        args = tuple(rng.choice(pool) for _ in range(1 + pred.islower()))
        contents.setdefault((pred, args), None)
    return facts(*contents)


#: Symmetric queries with self-joins and disequalities, whose counting
#: queries have gamma < 1 and whose atoms share predicates.
SYMMETRIC_QUERIES = (
    "r(?x,?y), r(?y,?x)\n",
    "r(?x,?y), r(?y,?z), r(?z,?x)\n",
    "r(?x,?y), r(?y,?z), r(?z,?w), r(?w,?x)\n",
    "r(?x,?y), r(?x,?z), ?y != ?z\n",
    "r(?x,?y), r(?y,?x), A(?x), A(?y)\n",
)


def test_partition_fact_counts_match_hom_images_past_100_facts(variant):
    """A second oracle where subset enumeration cannot go: the partition
    plan's histogram and every fact's counts equal the tally of the
    inclusion-minimal homomorphism images, for the variant's rewriting
    over the variant replicated 8 times (128 facts), for seeded random
    UCQs and for the symmetric self-join and disequality queries over
    plain databases of 100 facts."""
    from respo.shapley import Plan

    omq, abox = variant
    replica = tuple(
        Fact(f"c{c}{f.label}", f.predicate, tuple(f"c{c}{a}" for a in f.args))
        for c in range(8) for f in abox
    )
    plan = Plan(omq, "partition")
    cases = [(plan, replica)]
    rng = random.Random(100)
    for _ in range(30):
        cases.append((Plan(OMQ(TBox(), random_ucq(rng)), "partition"), plain_database(rng, 100)))
    for text in SYMMETRIC_QUERIES:
        cases.append((Plan(OMQ(TBox(), parse_query(text)), "partition"), plain_database(rng, 100)))
    credited = []
    for plan, db in cases:
        expected = tally_fact_counts(db, minimal_supports_via_hom_images(plan.rewriting, db))
        assert plan.fact_counts(db) == expected, plan.rewriting
        credited.append(sum(bool(c) for c in expected[1].values()))
    assert credited[0] == 128 - 8, credited
    assert sum(credited[1:31]) >= 600 and sum(map(bool, credited[1:31])) >= 28, credited
    assert min(credited[31:]) >= 10, credited
