import random
from fractions import Fraction

import pytest

from respo.model import (
    ABox,
    CQ,
    Fact,
    InputError,
    OMQ,
    RespoError,
    TBox,
    UCQ,
    concept_atom,
    var,
)
from respo.randgen import random_database, random_ucq
from respo.shapley import (
    BRUTE_FORCE_CAP,
    Plan,
    WEIGHT_INVSQ,
    WEIGHT_MS,
    WEIGHT_UNIFORM,
    drastic_scores,
    resolve_weight,
    score_all,
    weight_from_table,
)
from respo.support import enumerate_minimal_supports, make_subset_evaluator, ucq_holds

from oracles import (
    check_score_properties,
    count_fms_brute,
    counting_queries,
    drastic_wealth,
    ms_wealth,
    partition_fact_counts,
    per_fact_counts,
    shapley_brute_force,
    wsms_direct,
    wsms_via_histogram,
)


def test_weight_builtins():
    assert WEIGHT_MS(3, 8) == Fraction(1, 3)
    assert WEIGHT_UNIFORM(3, 8) == 1
    assert WEIGHT_INVSQ(3, 8) == Fraction(1, 9)


def test_weight_table_parsing(tmp_path):
    table = weight_from_table("1 4 1/2\n2 4 1/8\n# comment\n")
    assert table(1, 4) == Fraction(1, 2)
    assert table(2, 4) == Fraction(1, 8)
    with pytest.raises(RespoError):
        table(3, 4)
    path = tmp_path / "w.txt"
    path.write_text("1 2 3/4\n")
    assert resolve_weight(f"file:{path}")(1, 2) == Fraction(3, 4)
    with pytest.raises(RespoError):
        resolve_weight("nope")


def test_shapley_single_player():
    db = (Fact("f0", "A", ("c",)),)
    from respo.model import ABox

    abox = ABox(db)
    wealth = drastic_wealth(lambda s: any(f.predicate == "A" for f in s))
    assert shapley_brute_force(abox, wealth, db[0]) == 1


def test_shapley_cap():
    from respo.model import ABox

    abox = ABox(tuple(Fact(f"f{i}", "A", (f"c{i}",)) for i in range(5)))
    wealth = drastic_wealth(lambda s: bool(s))
    with pytest.raises(RespoError):
        shapley_brute_force(abox, wealth, abox.facts[0], cap=4)


TABLE1_DRASTIC = {
    "f0": Fraction(0),
    "f1": Fraction(1224, 5040),
    "f2": Fraction(1224, 5040),
    "f3": Fraction(1056, 5040),
    "f4": Fraction(384, 5040),
    "f5": Fraction(384, 5040),
    "f6": Fraction(384, 5040),
    "f7": Fraction(384, 5040),
}


def _coalition_oracle(abox, omq):
    """Every fact's drastic Shapley value over all coalitions, each
    coalition evaluated once for all facts."""
    from functools import cache

    wealth = drastic_wealth(cache(make_subset_evaluator(omq.tbox, omq.query)))
    return {f.label: shapley_brute_force(abox, wealth, f) for f in abox}


def test_table1_drastic(fig1):
    omq, abox = fig1
    assert _coalition_oracle(abox, omq) == TABLE1_DRASTIC
    assert drastic_scores(abox, omq, BRUTE_FORCE_CAP) == TABLE1_DRASTIC
    assert list(drastic_scores(abox, omq, BRUTE_FORCE_CAP)) == [f.label for f in abox]


def test_drastic_scores_cap_and_empty_abox(fig1):
    omq, abox = fig1
    with pytest.raises(InputError, match="^brute-force Shapley capped at 7 facts, got 8$"):
        drastic_scores(abox, omq, 7)
    assert drastic_scores(ABox(()), omq, -1) == {}


def _differential(draws, min_relevant):
    """drastic_scores equals the coalition oracle on every (ABox, OMQ)
    drawn, of which at least `min_relevant` have a fact of non-zero value."""
    relevant = 0
    for abox, omq in draws:
        got = drastic_scores(abox, omq, BRUTE_FORCE_CAP)
        assert got == _coalition_oracle(abox, omq), (abox, omq)
        relevant += any(got.values())
    assert relevant >= min_relevant


def test_drastic_scores_equal_the_oracle_on_dllite_kbs():
    """Seeded DL-Lite_R KBs with CQs, through the rewriting evaluator."""
    from respo.randgen import random_consistent_kb, random_cq

    rng = random.Random(2607)

    def draws():
        for _ in range(30):
            cq = random_cq(rng, max_atoms=2, allow_neq=False)
            tbox, abox = random_consistent_kb(rng, max_facts=6, bias=UCQ((cq,)))
            yield abox, OMQ(tbox, cq)

    _differential(draws(), 15)


def test_drastic_scores_equal_the_oracle_on_ucqs_with_disequalities():
    """Seeded UCQs with a disequality over plain databases."""
    rng = random.Random(2602)

    def draws():
        taken = 0
        while taken < 40:
            ucq = random_ucq(rng)
            if any(d.neq_atoms() for d in ucq.disjuncts):
                taken += 1
                yield random_database(rng, max_facts=10, bias=ucq), OMQ(TBox(), ucq)

    _differential(draws(), 15)


def test_drastic_scores_equal_the_oracle_on_horn_kbs():
    """Seeded Horn-extended KBs of at most 10 facts with a ground atomic
    query, through the Horn evaluator."""
    from respo.randgen import random_horn_kb

    rng = random.Random(2603)

    def draws():
        taken = 0
        while taken < 15:
            tbox, abox, query = random_horn_kb(rng)
            if len(abox) <= 10:
                taken += 1
                yield abox, OMQ(tbox, query)

    _differential(draws(), 8)


def _cycle(n, *extra):
    """The graph of an n-cycle over v0..v(n-1), plus the extra edges."""
    from respo.generators import Graph

    cycle = tuple(f"v{i}" for i in range(n))
    return Graph(cycle, tuple(zip(cycle, cycle[1:] + cycle[:1])) + extra)


def _grid_reach(source, target):
    """The simple paths from source to target in a 3x3 grid whose edges
    point right and down, as a Horn KB."""
    from respo.generators import Graph, gen_reachability

    grid = tuple((f"g{i}{j}", f"g{i + di}{j + dj}")
                 for i in range(3) for j in range(3) for di, dj in ((0, 1), (1, 0))
                 if i + di < 3 and j + dj < 3)
    graph = Graph(tuple(dict.fromkeys(v for edge in grid for v in edge)), grid, directed=True)
    return gen_reachability(graph, source, target)


def test_drastic_scores_equal_the_oracle_on_larger_horn_kbs():
    """The provenance masks on 12 and 13 facts: the minimal vertex covers
    of a 12-cycle with a chord and the simple paths across a 3x3 grid.
    Each ABox lists its facts in reverse, so ABox order (f11, f10, ...)
    differs from the label order of the masks (f0, f1, f10, ...), and the
    values are not all equal, so reading a mask position as the fact at
    that ABox position changes them."""
    from respo.generators import gen_mvc

    for tbox, abox, query in (gen_mvc(_cycle(12, ("v0", "v4"))), _grid_reach("g00", "g22")):
        reversed_abox = ABox(abox.facts[::-1])
        omq = OMQ(tbox, query)
        got = drastic_scores(reversed_abox, omq, BRUTE_FORCE_CAP)
        assert list(got) == [f.label for f in reversed_abox]
        assert len(set(got.values())) > 2
        assert got == _coalition_oracle(reversed_abox, omq)


def test_drastic_scores_past_the_default_cap_through_provenance(monkeypatch):
    """A raised cap scores 21 facts with no subset enumerated: the minimal
    vertex covers of a 20-cycle plus an isolated vertex come from the
    provenance fixpoint.  By symmetry each cycle vertex gets 1/20, and the
    isolated one, in no support, gets 0."""
    import respo.support
    from respo.generators import Graph, gen_mvc

    def forbidden(*args, **kwargs):
        raise AssertionError("a Horn KB takes its supports from provenance")

    monkeypatch.setattr(respo.support, "enumerate_minimal_supports", forbidden)
    monkeypatch.setattr(respo.support, "make_subset_evaluator", forbidden)
    cycle = _cycle(20)
    tbox, abox, query = gen_mvc(Graph((*cycle.vertices, "lone"), cycle.edges))
    omq = OMQ(tbox, query)
    assert len(abox) == 21 > BRUTE_FORCE_CAP
    with pytest.raises(InputError, match="^brute-force Shapley capped at 20 facts, got 21$"):
        drastic_scores(abox, omq, BRUTE_FORCE_CAP)
    scores = drastic_scores(abox, omq, 21)
    assert sum(scores.values()) == 1
    assert scores == {
        f.label: Fraction(0) if f.predicate == "In_lone" else Fraction(1, 20) for f in abox
    }


def _large_instances():
    """(ABox, OMQ, counting method) with 12 to 16 facts: the minimal vertex
    covers of a 12-cycle, the simple paths of a 3x3 grid towards and
    against its edges, and seeded UCQs over plain databases."""
    from respo.generators import gen_mvc

    tbox, mvc, query = gen_mvc(_cycle(12))
    yield mvc, OMQ(tbox, query), "provenance"
    for source, target in (("g00", "g22"), ("g22", "g00")):
        tbox, reach, query = _grid_reach(source, target)
        yield reach, OMQ(tbox, query), "provenance"
    rng = random.Random(2604)
    taken = 0
    while taken < 3:
        ucq = random_ucq(rng, max_disjuncts=2, max_atoms=3)
        db = random_database(rng, max_facts=40, bias=ucq)
        if 12 <= len(db) <= 16:
            taken += 1
            yield db, OMQ(TBox(), ucq), "partition"


def test_drastic_scores_sum_to_the_query_and_vanish_off_the_supports():
    """On 12 to 16 facts, without the coalition oracle: the values sum to
    1 when the facts entail the query and to 0 otherwise, and exactly the
    facts in no minimal support (per a counting pipeline) get 0."""
    sums, zeros = set(), 0
    for abox, omq, method in _large_instances():
        assert 12 <= len(abox) <= 16
        scores = drastic_scores(abox, omq, BRUTE_FORCE_CAP)
        histogram, counts = Plan(omq, method).fact_counts(abox)
        assert sum(scores.values()) == (1 if histogram.total() else 0)
        for f in abox:
            assert (scores[f.label] > 0) == bool(counts[f]), f
        sums.add(sum(scores.values()))
        zeros += not all(scores.values())
    assert sums == {0, 1} and zeros >= 2


def test_wsms_direct_table1(fig1):
    omq, abox = fig1
    ev = make_subset_evaluator(omq.tbox, omq.query)
    assert wsms_direct(abox, ev, abox.by_label("f3"), WEIGHT_MS) == Fraction(2, 3)
    assert wsms_direct(abox, ev, abox.by_label("f1"), WEIGHT_MS) == Fraction(1, 2)
    assert wsms_direct(abox, ev, abox.by_label("f0"), WEIGHT_MS) == 0


def test_wsms_via_histogram_agrees_with_direct(fig1):
    omq, abox = fig1
    ev = make_subset_evaluator(omq.tbox, omq.query)

    def provider(fact_set):
        return count_fms_brute(sorted(fact_set, key=lambda f: f.label), ev)

    for f in abox:
        counts = per_fact_counts(abox, provider, f)
        assert wsms_via_histogram(counts, len(abox), WEIGHT_MS) == wsms_direct(
            abox, ev, f, WEIGHT_MS
        )


def _horn_instances(fig1):
    """fig1, the minimal vertex covers of a 6-cycle and the simple paths
    of a 3x3 grid, as (ABox, OMQ)."""
    from respo.generators import Graph, gen_mvc, gen_reachability

    omq, abox = fig1
    cycle = tuple(f"v{i}" for i in range(6))
    tbox, mvc, query = gen_mvc(Graph(cycle, tuple(zip(cycle, cycle[1:] + cycle[:1]))))
    grid = [(f"g{i}{j}", f"g{i + di}{j + dj}")
            for i in range(3) for j in range(3) for di, dj in ((0, 1), (1, 0))
            if i + di < 3 and j + dj < 3]
    vertices = tuple(dict.fromkeys(v for edge in grid for v in edge))
    r_tbox, reach, r_query = gen_reachability(
        Graph(vertices, tuple(grid), directed=True), "g00", "g22")
    return [(abox, omq), (mvc, OMQ(tbox, query)), (reach, OMQ(r_tbox, r_query))]


def _coprime_table(n: int):
    """w(k, n) = k / p_k for 1 <= k <= n, p_k the k-th prime past 10^6:
    large, pairwise coprime denominators, whose common denominator is
    their product."""
    primes, p = [], 10**6
    while len(primes) < n:
        p += 1
        if all(p % d for d in range(2, int(p**0.5) + 1)):
            primes.append(p)
    return weight_from_table("".join(f"{k} {n} {k}/{q}\n" for k, q in enumerate(primes, 1)))


def test_score_all_weighs_each_size_once_and_equals_the_direct_sum(fig1):
    """Under provenance and brute force, `score_all` evaluates each
    w(k, |D|) at most once, and every fact's score is the direct WSMS sum
    over the enumerated minimal supports, for the built-in weights and two
    weight tables, one with large pairwise coprime denominators."""
    from collections import Counter
    from functools import cache

    from respo.model import WeightFunction

    for abox, omq in _horn_instances(fig1):
        n = len(abox)
        table = weight_from_table("".join(f"{k} {n} {k}/{k + 3}\n" for k in range(1, n + 1)))
        evaluator = cache(make_subset_evaluator(omq.tbox, omq.query))
        for weight in (WEIGHT_MS, WEIGHT_UNIFORM, WEIGHT_INVSQ, table, _coprime_table(n)):
            direct = {f.label: wsms_direct(abox, evaluator, f, weight) for f in abox}
            assert any(direct.values())
            for method in ("provenance", "brute"):
                calls = Counter()

                def counted(k, size, weight=weight, calls=calls):
                    calls[k, size] += 1
                    return weight(k, size)

                report = score_all(abox, omq, WeightFunction(weight.name, counted), method)
                assert report.scores == direct, (weight.name, method)
                assert set(calls.values()) == {1}, (weight.name, method, calls)


def test_score_all_methods_agree(fig1, variant):
    omq, abox = fig1
    brute = score_all(abox, omq, WEIGHT_MS, method="brute")
    assert brute.scores["f3"] == Fraction(2, 3)

    vomq, vabox = variant
    fast = score_all(vabox, vomq, WEIGHT_MS, method="if")
    part = score_all(vabox, vomq, WEIGHT_MS, method="partition")
    assert fast.scores == part.scores
    auto = score_all(vabox, vomq, WEIGHT_MS, method="auto")
    assert auto.method == "if"
    assert auto.scores == fast.scores


def test_score_all_two_singletons():
    from respo.model import ABox

    abox = ABox((Fact("f0", "A", ("c",)), Fact("f1", "A", ("d",))))
    omq = OMQ(TBox(), CQ((concept_atom("A", var("x")),)))
    report = score_all(abox, omq, WEIGHT_MS, method="brute")
    assert report.scores == {"f0": Fraction(1), "f1": Fraction(1)}


def test_efficiency_identity_ms():
    """Sum of ms scores equals countMS (each size-n support contributes
    n * 1/n)."""
    rng = random.Random(77)
    checked = 0
    while checked < 25:
        ucq = random_ucq(rng)
        db = random_database(rng, max_facts=5, bias=ucq)
        omq = OMQ(TBox(), ucq)
        report = score_all(db, omq, WEIGHT_MS, method="brute")
        total = count_fms_brute(tuple(db), lambda s: ucq_holds(ucq, s)).total()
        assert sum(report.scores.values()) == total
        checked += 1


def test_efficiency_identity_general_weight():
    rng = random.Random(78)
    for _ in range(15):
        ucq = random_ucq(rng)
        db = random_database(rng, max_facts=5, bias=ucq)
        report = score_all(db, OMQ(TBox(), ucq), WEIGHT_INVSQ, method="brute")
        sups = enumerate_minimal_supports(tuple(db), lambda s: ucq_holds(ucq, s))
        expected = sum(len(s) * WEIGHT_INVSQ(len(s), len(db)) for s in sups)
        assert sum(report.scores.values()) == expected


def test_efficiency_identity_drastic():
    rng = random.Random(79)
    for _ in range(10):
        ucq = random_ucq(rng, max_disjuncts=1, max_atoms=2)
        db = random_database(rng, max_facts=5, bias=ucq)
        ev = make_subset_evaluator(TBox(), ucq)
        wealth = drastic_wealth(ev)
        total = sum(shapley_brute_force(db, wealth, f) for f in db)
        assert total == (1 if ev(frozenset(db)) else 0)


def test_wsms_direct_equals_histogram_all_methods_randomized():
    """Every pipeline's scores equal the direct WSMS sum under the
    built-in weights and a table with large pairwise coprime
    denominators."""
    rng = random.Random(88)
    from respo.randgen import random_abox, random_interaction_free_omq
    from respo.reasoner import is_consistent

    done = 0
    while done < 12:
        omq = random_interaction_free_omq(rng, max_atoms=3).omq
        abox = random_abox(rng, max_facts=6, bias=omq.query, tbox=omq.tbox)
        if not is_consistent(abox, omq.tbox):
            continue
        ev = make_subset_evaluator(omq.tbox, omq.query)
        for weight in (WEIGHT_MS, WEIGHT_UNIFORM, WEIGHT_INVSQ, _coprime_table(len(abox))):
            direct = {f.label: wsms_direct(abox, ev, f, weight) for f in abox}
            for method in ("brute", "partition", "if"):
                report = score_all(abox, omq, weight, method=method)
                assert report.scores == direct, (weight.name, method)
        done += 1


def test_a_missing_weight_entry_names_the_size_the_facts_first_need(fig1):
    """`score_all` asks for w(k, |D|) in the order the facts, in ABox
    order, first need each size, as the per-fact sum does: with f3 (only
    in size-3 supports) ahead of f1 (in one of size 2), a table without
    either size names size 3."""
    omq, abox = fig1
    ordered = ABox(tuple(sorted(abox, key=lambda f: f.label != "f3")))
    table = weight_from_table(f"1 {len(abox)} 1/2\n")
    counts = Plan(omq).fact_counts(ordered)[1]
    with pytest.raises(InputError) as first:
        for f in ordered:
            wsms_via_histogram(counts[f], len(abox), table)
    assert "support size 3," in str(first.value)
    with pytest.raises(InputError) as raised:
        score_all(ordered, omq, table)
    assert str(raised.value) == str(first.value)


def test_ms_wealth_counts_supports(fig1):
    omq, abox = fig1
    ev = make_subset_evaluator(omq.tbox, omq.query)
    wealth = ms_wealth(ev)
    assert wealth.evaluate(frozenset(abox)) == 3


def test_shapley_value_of_the_ms_wealth_is_the_ms_score(fig1):
    """The number-of-minimal-supports game is the sum of one unanimity game
    per minimal support, so its Shapley value gives each fact the sum of
    1/|S| over the supports S holding it: the ms WSMS score."""
    from functools import cache

    omq, abox = fig1
    wealth = ms_wealth(cache(make_subset_evaluator(omq.tbox, omq.query)))
    scores = score_all(abox, omq, WEIGHT_MS, method="brute").scores
    assert {f.label: shapley_brute_force(abox, wealth, f) for f in abox} == scores


def test_check_score_properties(fig1):
    omq, abox = fig1
    ev = make_subset_evaluator(omq.tbox, omq.query)
    report = score_all(abox, omq, WEIGHT_MS, method="brute")
    sups = enumerate_minimal_supports(tuple(abox), ev)
    verdicts = check_score_properties(
        report, sups, orderings=[("f1", "f4"), ("f3", "f4")]
    )
    assert all(v.passed for v in verdicts)


def test_check_score_properties_flags_violation(fig1):
    omq, abox = fig1
    ev = make_subset_evaluator(omq.tbox, omq.query)
    report = score_all(abox, omq, WEIGHT_MS, method="brute")
    sups = enumerate_minimal_supports(tuple(abox), ev)
    broken = type(report)(
        scores={**report.scores, "f3": Fraction(0)},
        method=report.method,
        histogram=report.histogram,
    )
    verdicts = {v.name: v.passed for v in check_score_properties(broken, sups)}
    assert verdicts["Null-db"] is False



def test_per_fact_scores_agree_across_pipelines(witness_omq):
    """Every fact's invsq score is the same under brute force, partition
    and, where the check passes, the interaction-free pipeline, on seeded
    random instances of up to 8 facts: interaction-free OMQs, OMQs with
    anonymous role witnesses, random DL-Lite_R OMQs and plain-database
    UCQs.  Scores, unlike totals, show a support credited to the wrong
    fact, and invsq tells support sizes apart."""
    from respo.interaction_free import check_interaction_free
    from respo.randgen import (
        random_abox,
        random_cq,
        random_dllite_tbox,
        random_interaction_free_omq,
    )
    from respo.reasoner import is_consistent

    rng = random.Random(97)
    compared = {"partition": 0, "if": 0}
    for _ in range(250):
        roll = rng.random()
        if roll < 0.3:
            omq = random_interaction_free_omq(rng, max_atoms=3).omq
        elif roll < 0.6:
            omq = witness_omq(rng)
        elif roll < 0.8:
            cq = random_cq(rng, max_atoms=3, allow_neq=False)
            omq = OMQ(random_dllite_tbox(rng, max_axioms=3), cq)
        else:
            omq = OMQ(TBox(), random_ucq(rng))
        abox = random_abox(rng, max_facts=8, bias=omq.query, tbox=omq.tbox)
        if not is_consistent(abox, omq.tbox):
            continue
        brute = score_all(abox, omq, WEIGHT_INVSQ, method="brute").scores
        methods = ["partition"]
        single = omq.query.disjuncts[0] if len(omq.query.disjuncts) == 1 else None
        if single and not single.neq_atoms() and check_interaction_free(omq) is None:
            methods.append("if")
        for method in methods:
            report = score_all(abox, omq, WEIGHT_INVSQ, method=method)
            assert report.scores == brute, (method, omq, list(abox))
            compared[method] += int(any(brute.values()))
    assert compared["if"] >= 50 and compared["partition"] >= 100, compared


def test_deep_anonymous_match_scores_under_every_pipeline():
    """The only minimal support of A(?x) is {B(c)}, whose A-element lies
    three anonymous levels below c."""
    from respo.textio import parse_abox, parse_query, parse_tbox

    tbox = parse_tbox(
        "B <= exists r\nexists r- <= exists s\nexists s- <= exists t\nexists t- <= A\n"
    )
    omq = OMQ(tbox, parse_query("A(?x)\n"))
    abox = parse_abox("f0: B(c)\n")
    for method in ("brute", "if", "partition", "auto"):
        assert score_all(abox, omq, method=method).scores == {"f0": 1}, method


def _large_abox(rng, omq, n):
    """About n distinct facts over six constants plus the query's own, on
    the query's predicates and the TBox's left-hand sides."""
    from respo.model import ABox, ROLE_INCLUSION

    cq = omq.query.disjuncts[0]
    shapes = {(a.predicate, len(a.terms)) for a in cq.relational_atoms()}
    for ax in omq.tbox.axioms:
        if ax.kind == ROLE_INCLUSION:
            shapes.add((ax.lhs.name, 2))
        elif ax.lhs.is_name:
            shapes.add((ax.lhs.concept_name, 1))
        else:
            shapes.add((ax.lhs.role.name, 2))
    shapes = sorted(shapes)
    pool = ["k0", "k1", "k2", "k3", "k4", "k5", *cq.constants()]
    contents = {}
    for _ in range(4 * n):
        pred, arity = rng.choice(shapes)
        contents.setdefault((pred, tuple(rng.choice(pool) for _ in range(arity))), None)
        if len(contents) == n:
            break
    return ABox(tuple(Fact(f"f{i}", p, args) for i, (p, args) in enumerate(contents)))


def test_pooled_if_counts_match_fresh_counts(witness_omq):
    """The interaction-free plan that `score_all` uses, which builds each
    fact's weighted-database entries once for every subset, gives each
    fact the per-size count of a fresh count over D minus a fresh count
    over D without the fact, on random instances of 12-40 facts."""
    from respo.interaction_free import IFPlan, check_interaction_free, count_ms_interaction_free
    from respo.model import ABox
    from respo.randgen import random_interaction_free_omq
    from respo.reasoner import is_consistent

    rng = random.Random(53)
    done = supported = 0
    while done < 12:
        omq = random_interaction_free_omq(rng, max_atoms=3).omq if done % 2 else witness_omq(rng)
        if check_interaction_free(omq) is not None:
            continue
        abox = _large_abox(rng, omq, rng.randint(12, 40))
        if len(abox) < 12 or not is_consistent(abox, omq.tbox):
            continue
        provider = Plan(omq, "if").histogram
        full = count_ms_interaction_free(IFPlan(omq), abox)
        for fact in abox:
            others = ABox(tuple(f for f in abox if f != fact))
            rest = count_ms_interaction_free(IFPlan(omq), others)
            fresh = {k: full[k] - rest[k] for k in full.counts if full[k] - rest[k]}
            assert per_fact_counts(abox, provider, fact) == fresh, (omq, list(abox), fact)
            supported += bool(fresh)
        done += 1
    assert supported >= 40, supported


def test_if_scoring_runs_no_search_and_builds_no_slice(variant, monkeypatch):
    """`score_all` under the interaction-free pipeline runs no
    homomorphism search and builds no canonical slice, neither for the
    check nor for a real fact: each fact's rows are read off the TBox
    closure, and counting is variable elimination."""
    import respo.canonical as canonical
    import respo.queries as queries
    from respo.model import ABox

    omq, abox = variant
    doubled = ABox(tuple(
        Fact(f"c{c}{f.label}", f.predicate, tuple(f"c{c}{a}" for a in f.args))
        for c in range(2) for f in abox
    ))
    calls = []

    def refuse(name):
        return lambda *args, **kwargs: calls.append(name)

    monkeypatch.setattr(queries, "_search", refuse("_search"))
    monkeypatch.setattr(canonical, "canonical_slice", refuse("canonical_slice"))
    report = score_all(doubled, omq, method="if")
    assert report.histogram == {6: 24}
    assert not calls, calls


def test_auto_scoring_checks_interaction_freeness_once(variant, monkeypatch):
    """One `score_all` runs the OMQ-only interaction-freeness check once,
    not once per histogram."""
    import respo.interaction_free as interaction_free

    omq, abox = variant
    calls = []

    def counting_check(omq, *pairs):
        calls.append(omq)
        return real(omq, *pairs)

    real = interaction_free.check_interaction_free
    monkeypatch.setattr(interaction_free, "check_interaction_free", counting_check)
    report = score_all(abox, omq, method="auto")
    assert report.method == "if"
    assert len(calls) == 1, len(calls)


def test_partition_fact_counts_equal_histogram_differences():
    """The partition plan's per-fact counts, from one search per component
    of each basis quotient, equal the histogram over D minus the one over
    D without the fact, for every fact of seeded instances of up to 30
    facts: plain UCQs with constants and disequalities, symmetric queries
    whose counting queries have gamma < 1, and rewritings of random
    DL-Lite_R OMQs.  Its histogram is the enumerating search's over D
    (`oracles.partition_fact_counts`) on the reference counting queries
    (`oracles.counting_queries`)."""
    from respo.randgen import random_abox, random_cq, random_dllite_tbox
    from respo.shapley import histogram_difference
    from respo.textio import parse_query

    from test_support import SYMMETRIC_QUERIES

    rng = random.Random(29)
    symmetric = [parse_query(text) for text in SYMMETRIC_QUERIES]
    instances = []
    for _ in range(12):
        ucq = random_ucq(rng)
        instances.append((OMQ(TBox(), ucq), random_abox(rng, max_facts=30, bias=ucq)))
    for query in symmetric:
        omq = OMQ(TBox(), query)
        instances.append((omq, _large_abox(rng, omq, rng.randint(20, 30))))
    for _ in range(12):
        omq = OMQ(random_dllite_tbox(rng, max_axioms=3), random_cq(rng, allow_neq=False))
        instances.append((omq, random_abox(rng, max_facts=30, bias=omq.query, tbox=omq.tbox)))

    credited = fractional = 0
    for omq, abox in instances:
        plan = Plan(omq, "partition")
        queries = counting_queries(plan.rewriting)
        fractional += any(q.gamma < 1 for qs in queries.values() for q in qs)
        full, counts = plan.fact_counts(abox)
        assert full == plan.histogram(abox) == partition_fact_counts(queries, abox)[0]
        everything = frozenset(abox)
        assert set(counts) == everything
        for f in abox:
            expected = histogram_difference(full, plan.histogram(everything - {f}))
            assert counts[f] == expected, (omq, list(abox), f)
            credited += bool(expected)
    assert max(len(abox) for _, abox in instances) >= 25
    assert fractional >= len(symmetric) and credited >= 100, (fractional, credited)


def test_partition_counting_runs_no_search_into_the_facts(variant, monkeypatch):
    """Partition `score_all` and `Plan.histogram` count the basis by
    variable elimination alone: no homomorphism search runs into a fact
    database, where enumerating each basis component's homomorphisms ran
    four."""
    import respo.queries as queries
    from respo.support import FactDB

    omq, abox = variant
    searches = []

    def counting_search(atoms, target, *args, **kwargs):
        if isinstance(target, FactDB):
            searches.append(target)
        return real(atoms, target, *args, **kwargs)

    real = queries._search
    monkeypatch.setattr(queries, "_search", counting_search)
    report = score_all(abox, omq, method="partition")
    assert report.histogram == Plan(omq, "partition").histogram(abox) == {6: 6}
    assert sum(map(bool, report.scores.values())) == 15
    assert searches == []


def test_partition_plan_counts_without_the_counting_queries(variant, monkeypatch):
    """The partition plan compiles and counts through its basis: neither
    the counting queries nor the enumerating search over them is called,
    and the counts equal that search's."""
    import respo.support as support

    omq, abox = variant
    oracle = partition_fact_counts(counting_queries(Plan(omq, "partition").rewriting), abox)

    def forbidden(*args, **kwargs):
        raise AssertionError("the partition plan must not build counting queries")

    monkeypatch.setattr(support, "counting_queries", forbidden)
    plan = Plan(omq, "partition")
    assert plan.histogram(abox) == oracle[0]
    assert plan.fact_counts(abox) == oracle


def test_partition_plan_searches_each_canonical_form_once(variant, monkeypatch):
    """Compiling the variant's partition plan runs the canonical-form
    search once per query it keys, not once for the key and again for the
    renamed query: at most 265 searches, on 265 distinct queries."""
    import respo.queries as queries

    omq, _ = variant
    searched = []

    def counting_canonical(cq):
        searched.append(cq)
        return real(cq)

    real = queries._canonical
    monkeypatch.setattr(queries, "_canonical", counting_canonical)
    Plan(omq, "partition")
    assert 0 < len(searched) <= 265, len(searched)


# ---------------------------------------------------------------------------
# An oracle-free identity at scale
# ---------------------------------------------------------------------------

def _variant_copies(variant, copies):
    omq, abox = variant
    return omq, tuple(
        Fact(f"c{c}{f.label}", f.predicate, tuple(f"c{c}{a}" for a in f.args))
        for c in range(copies) for f in abox
    )


def _hub(n):
    from respo.textio import parse_query

    facts = [Fact(f"r{i}", "r", (f"u{i}", "hub")) for i in range(n)]
    facts += [Fact(f"s{i}", "s", ("hub", f"v{i}")) for i in range(n)]
    return OMQ(TBox(), parse_query("r(?x, ?y), s(?y, ?z)\n")), tuple(facts)


def _chain(n, self_join):
    from test_support import chain_abox, chain_omq

    return chain_omq(n, self_join), chain_abox(random.Random(317), n)


def _horn(kind):
    from respo.generators import Graph, gen_mvc, gen_reachability

    if kind == "mvc":
        vertices = tuple(f"v{i:02d}" for i in range(12))
        tbox, abox, query = gen_mvc(Graph(vertices, tuple(zip(vertices, vertices[1:] + vertices[:1]))))
    else:
        name = "g{}{}".format
        edges = [(name(i, j), name(i + di, j + dj))
                 for i in range(3) for j in range(3) for di, dj in ((0, 1), (1, 0))
                 if i + di < 3 and j + dj < 3]
        vertices = tuple(dict.fromkeys(v for e in edges for v in e))
        tbox, abox, query = gen_reachability(
            Graph(vertices, tuple(edges), directed=True), name(0, 0), name(2, 2))
    return OMQ(tbox, query), tuple(abox)


IDENTITY_CASES = {
    "partition-variant-x64": ("partition", lambda variant: _variant_copies(variant, 64)),
    "partition-hub-250": ("partition", lambda variant: _hub(250)),
    "partition-hub-1000": ("partition", lambda variant: _hub(1000)),
    **{
        f"partition-{'self-join-' * s}chain-{n}": ("partition", lambda variant, n=n, s=s: _chain(n, s))
        for n in (1, 2, 3, 4) for s in (False, True)
    },
    "if-variant-x8": ("if", lambda variant: _variant_copies(variant, 8)),
    "provenance-mvc-12-cycle": ("provenance", lambda variant: _horn("mvc")),
    "provenance-reach-3x3-grid": ("provenance", lambda variant: _horn("reach")),
}


@pytest.mark.parametrize("case", sorted(IDENTITY_CASES))
def test_fact_counts_sum_to_size_times_histogram(case, variant):
    """Each size-k minimal support holds k facts, so the size-k counts of
    all facts sum to k times the size-k histogram: checked where no oracle
    reaches, on the variant replicated 64 times (1,024 facts) and hubs of
    500 and 2,000 facts under partition, on the chains up to n = 4, on the
    variant replicated 8 times under interaction-free, and on the
    12-cycle vertex covers and the 3x3 grid reachability under
    provenance."""
    method, build = IDENTITY_CASES[case]
    omq, facts = build(variant)
    histogram, counts = Plan(omq, method).fact_counts(facts)
    assert histogram.total() > 0
    assert set(counts) == set(facts)
    for k, n in histogram.counts.items():
        assert sum(c.get(k, 0) for c in counts.values()) == k * n, (case, k)
