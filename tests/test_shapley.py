import random
from fractions import Fraction

import pytest

from respo.model import (
    CQ,
    Fact,
    OMQ,
    RespoError,
    TBox,
    concept_atom,
    var,
)
from respo.randgen import random_database, random_ucq
from respo.shapley import (
    WEIGHT_INVSQ,
    WEIGHT_MS,
    WEIGHT_UNIFORM,
    check_score_properties,
    drastic_wealth,
    ms_wealth,
    per_fact_counts,
    resolve_weight,
    score_all,
    shapley_brute_force,
    weight_from_table,
    wsms_direct,
    wsms_via_histogram,
)
from respo.support import (
    count_fms_brute,
    enumerate_minimal_supports,
    make_subset_evaluator,
    ucq_holds,
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


def test_table1_drastic(fig1):
    omq, abox = fig1
    wealth = drastic_wealth(make_subset_evaluator(omq.tbox, omq.query))
    expected = {
        "f0": Fraction(0),
        "f1": Fraction(1224, 5040),
        "f2": Fraction(1224, 5040),
        "f3": Fraction(1056, 5040),
        "f4": Fraction(384, 5040),
        "f5": Fraction(384, 5040),
        "f6": Fraction(384, 5040),
        "f7": Fraction(384, 5040),
    }
    for label, want in expected.items():
        assert shapley_brute_force(abox, wealth, abox.by_label(label)) == want


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
    rng = random.Random(88)
    from respo.randgen import random_abox, random_interaction_free_omq
    from respo.reasoner import is_consistent

    done = 0
    while done < 12:
        omq = random_interaction_free_omq(rng, max_atoms=3)
        abox = random_abox(rng, max_facts=6, bias=omq.query, tbox=omq.tbox)
        if not is_consistent(abox, omq.tbox):
            continue
        ev = make_subset_evaluator(omq.tbox, omq.query)
        direct = {f.label: wsms_direct(abox, ev, f, WEIGHT_MS) for f in abox}
        for method in ("brute", "partition", "if"):
            report = score_all(abox, omq, WEIGHT_MS, method=method)
            assert report.scores == direct, method
        done += 1


def test_ms_wealth_counts_supports(fig1):
    omq, abox = fig1
    ev = make_subset_evaluator(omq.tbox, omq.query)
    wealth = ms_wealth(ev)
    assert wealth.evaluate(frozenset(abox)) == 3


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

