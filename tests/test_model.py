from fractions import Fraction

import pytest

from respo.model import (
    ABox,
    CQ,
    Fact,
    QueryStructureError,
    Role,
    SupportHistogram,
    concept_atom,
    connected_components,
    decimal_approx,
    format_rational,
    neq_atom,
    parse_rational,
    role_atom,
    var,
)


def test_role_inversion_is_involutive():
    r = Role("r")
    assert r.inverse().inverse() == r
    assert r.inverse() == Role("r", True)
    assert Role("r", True).inverse() == r


def test_fact_validation():
    with pytest.raises(ValueError):
        Fact("f0", "A", ())
    with pytest.raises(ValueError):
        Fact("f0", "A", ("a", "b", "c"))


def test_abox_rejects_duplicates_and_arity_clash():
    a = Fact("f0", "A", ("c",))
    with pytest.raises(ValueError):
        ABox((a, Fact("f0", "B", ("c",))))  # duplicate label
    with pytest.raises(ValueError):
        ABox((a, Fact("f1", "A", ("c",))))  # same assertion, new label
    with pytest.raises(ValueError):
        ABox((a, Fact("f1", "A", ("c", "d"))))  # arity clash


def test_abox_individuals():
    abox = ABox((Fact("f0", "r", ("c", "d")), Fact("f1", "A", ("e",))))
    assert abox.individuals == frozenset({"c", "d", "e"})


def test_connected_components_disjoint_variables():
    query = CQ((concept_atom("A", var("x")), concept_atom("B", var("y"))))
    comps = connected_components(query)
    assert len(comps) == 2


def test_connected_components_shared_variable():
    query = CQ((concept_atom("A", var("x")), role_atom("r", var("x"), var("y"))))
    assert len(connected_components(query)) == 1


def test_connected_components_mixed():
    query = CQ(
        (
            role_atom("r", var("x"), var("y")),
            role_atom("r", var("y"), var("z")),
            concept_atom("B", var("w")),
        )
    )
    comps = connected_components(query)
    assert len(comps) == 2
    # atoms union equals the input atom set
    atoms = {a for c in comps for a in c.atoms}
    assert atoms == set(query.atoms)


def test_cross_component_disequality_rejected():
    query = CQ(
        (
            concept_atom("A", var("x")),
            concept_atom("B", var("y")),
            neq_atom(var("x"), var("y")),
        )
    )
    with pytest.raises(QueryStructureError):
        connected_components(query)


def test_disequality_needs_anchored_variables():
    query = CQ((concept_atom("A", var("x")), neq_atom(var("x"), var("z"))))
    with pytest.raises(QueryStructureError):
        connected_components(query)


def test_rational_round_trip():
    for text in ["17/70", "0", "-3/4", "1224/5040", "5"]:
        value = parse_rational(text)
        assert parse_rational(format_rational(value)) == value
    assert format_rational(parse_rational("1224/5040")) == "17/70"


def test_decimal_approx():
    assert decimal_approx(Fraction(1, 2)) == "0.500000"
    assert decimal_approx(Fraction(17, 70)) == "0.242857"
    assert decimal_approx(Fraction(-1, 3), places=3) == "-0.333"
    assert decimal_approx(Fraction(2, 3), places=3) == "0.667"


def test_histogram_drops_zeroes_and_totals():
    h = SupportHistogram({2: 1, 3: 2, 5: 0})
    assert dict(h.counts) == {2: 1, 3: 2}
    assert h.total() == 3
    assert h[5] == 0
    assert h == {2: 1, 3: 2}
    assert SupportHistogram.from_sizes([2, 3, 3]) == h
