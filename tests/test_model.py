from fractions import Fraction

import pytest

from respo.model import (
    ABox,
    Atom,
    Axiom,
    CONCEPT_INCLUSION,
    CQ,
    ConjunctionAxiom,
    Fact,
    InputError,
    OMQ,
    QualifiedExistsAxiom,
    ROLE_INCLUSION,
    Role,
    SupportHistogram,
    TBox,
    Term,
    UCQ,
    WeightFunction,
    concept_atom,
    connected_components,
    const,
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


def test_connected_components_link_disequalities_and_isolate_ground_atoms():
    """A disequality joins the components of its two variables, an atom
    without variables is a component of its own, and the components come
    in the order of their first atoms."""
    x, y, z = var("x"), var("y"), var("z")
    query = CQ((
        role_atom("s", z, const("c")),
        concept_atom("B", y),
        neq_atom(x, y),
        concept_atom("A", x),
        concept_atom("A", const("c")),
    ))
    assert repr(query) == "A(c) & A(?x) & B(?y) & ?x != ?y & s(?z,c)"
    assert connected_components(query) == [
        CQ((concept_atom("A", const("c")),)),
        CQ((concept_atom("A", x), concept_atom("B", y), neq_atom(x, y))),
        CQ((role_atom("s", z, const("c")),)),
    ]
    split = CQ((concept_atom("A", x), concept_atom("B", y)))
    assert connected_components(split) == [CQ((concept_atom("A", x),)), CQ((concept_atom("B", y),))]


#: The first 50 draws of `random_cq(random.Random(0), allow_neq=True)`.
#: A draw's disequality lands in a component picked by its index in
#: `connected_components`, so the pin holds the component order fixed.
SEEDED_CQS = [
    "d != ?z, s(d, ?z), s(?y, ?z)",
    "?x != ?z, r(?x, ?z), r(?z, ?y), s(?z, c)",
    "C(c), s(d, ?x)",
    "B(?w), C(?x)",
    "C(?z), s(c, d)",
    "r(?x, ?w)",
    "A(?w), s(?y, d), s(?z, c)",
    "r(c, c), s(?x, c)",
    "A(c), A(?x), s(c, ?x)",
    "B(c), s(d, ?w), s(?x, ?x)",
    "C(c), r(?z, ?x), s(?x, ?w)",
    "B(?z), r(?x, ?y), s(?z, c)",
    "A(?y), C(?w), ?w != ?x, r(?w, ?x)",
    "C(d), r(?w, ?w)",
    "r(?y, ?w)",
    "A(c), r(c, ?z)",
    "B(?x)",
    "c != ?z, r(?z, c)",
    "s(?x, ?w)",
    "A(?z), s(?y, d)",
    "C(d), C(?w), r(?w, ?x)",
    "B(?x), B(?z)",
    "A(d), r(c, c), r(?y, ?w)",
    "r(?z, c), r(?z, d)",
    "d != ?x, r(d, ?x), r(?x, d)",
    "s(?w, ?z)",
    "r(?y, d), r(?z, ?y)",
    "C(?x), r(c, c), s(?y, ?w)",
    "C(?x), r(?y, ?w), s(?w, ?y)",
    "r(?z, ?z)",
    "A(d), s(?w, ?x)",
    "B(?x), r(?z, ?w)",
    "r(c, ?x)",
    "A(?w), B(?w), s(?z, ?y)",
    "A(?x), r(?y, d)",
    "r(?y, d)",
    "C(?x)",
    "B(?x), s(?x, ?z)",
    "A(?x)",
    "?x != ?y, r(?x, ?y)",
    "A(?y), r(?w, ?z)",
    "A(d), B(?z)",
    "?y != ?z, s(?y, ?z)",
    "A(d), ?x != ?z, r(?z, ?x)",
    "B(?x), C(?w)",
    "C(?y)",
    "C(d), r(?w, d)",
    "?w != ?x, r(?w, ?x)",
    "c != ?x, s(d, ?y), s(?x, c)",
    "?x != ?y, s(?y, ?x)",
]


def test_seeded_random_cqs_are_pinned():
    import random

    from respo.randgen import random_cq
    from respo.textio import render_cq

    rng = random.Random(0)
    assert [render_cq(random_cq(rng, allow_neq=True)) for _ in SEEDED_CQS] == SEEDED_CQS


def test_rational_round_trip():
    for text in ["17/70", "0", "-3/4", "1224/5040", "5"]:
        value = parse_rational(text)
        assert parse_rational(format_rational(value)) == value
    assert format_rational(parse_rational("1224/5040")) == "17/70"


def test_decimal_approx():
    assert decimal_approx(Fraction(1, 2)) == "0.500000"
    assert decimal_approx(Fraction(17, 70)) == "0.242857"
    assert decimal_approx(Fraction(-1, 3)) == "-0.333333"
    assert decimal_approx(Fraction(2, 3)) == "0.666667"
    assert decimal_approx(Fraction(-1, 2_000_000)) == "-0.000001"
    assert decimal_approx(Fraction(3)) == "3.000000"


def test_histogram_drops_zeroes_and_totals():
    h = SupportHistogram({2: 1, 3: 2, 5: 0})
    assert dict(h.counts) == {2: 1, 3: 2}
    assert h.total() == 3
    assert h[5] == 0
    assert h == {2: 1, 3: 2}


# ---------------------------------------------------------------------------
# Value classes: `value_class` against `dataclasses` as the reference
# ---------------------------------------------------------------------------

def _value_class_samples():
    """A factory of one sample instance for every value class in respo,
    keyed by module and class name."""
    from respo.generators import Graph, MatchingInstance
    from respo.interaction_free import InteractionWitness
    from respo.shapley import ScoreReport
    from respo.sqlgen import ManifestEntry, SqlManifest
    from respo.support import BasisTerm, CountingQuery, MinimalSupport

    axiom = Axiom(CONCEPT_INCLUSION, "A", Role("r"), True)
    tbox = TBox(frozenset({axiom}), frozenset({ConjunctionAxiom("A", "B", "C")}))
    cq = CQ((role_atom("r", var("x"), const("c")), concept_atom("A", var("x"))))
    facts = (Fact("f1", "A", ("a",)), Fact("f2", "r", ("a", "b")))
    return {
        "model.Term": lambda: Term("var", "x"),
        "model.Role": lambda: Role("r", True),
        "model.Axiom": lambda: Axiom(CONCEPT_INCLUSION, "A", "B"),
        "model.ConjunctionAxiom": lambda: ConjunctionAxiom("A", "B", "C"),
        "model.QualifiedExistsAxiom": lambda: QualifiedExistsAxiom(Role("r"), "A", "B"),
        "model.TBox": lambda: TBox(frozenset({axiom})),
        "model.Fact": lambda: Fact("f2", "r", ("a", "b")),
        "model.ABox": lambda: ABox(facts),
        "model.Atom": lambda: Atom("role", "r", (var("x"), const("c"))),
        "model.CQ": lambda: CQ(tuple(reversed(cq.atoms))),
        "model.UCQ": lambda: UCQ((cq,)),
        "model.OMQ": lambda: OMQ(tbox, cq),
        "model.SupportHistogram": lambda: SupportHistogram({2: 3, 1: 0}),
        "model.WeightFunction": lambda: WeightFunction("uniform", _one),
        "generators.Graph": lambda: Graph(("u", "v"), (("u", "v"),), False, ("u",), ("v",)),
        "generators.MatchingInstance": lambda: MatchingInstance(ABox(facts), UCQ((cq,)), UCQ((cq,))),
        "interaction_free.InteractionWitness": lambda: InteractionWitness(
            facts[1], cq.atoms[0], (("x", "a"),), cq.atoms[1], (("x", "b"),)),
        "support.MinimalSupport": lambda: MinimalSupport(frozenset(facts)),
        "shapley.ScoreReport": lambda: ScoreReport(
            {"f1": Fraction(1, 2)}, "if", SupportHistogram({1: 1})),
        "sqlgen.ManifestEntry": lambda: ManifestEntry("q1", "SELECT 1", Fraction(1, 2), 2),
        "sqlgen.SqlManifest": lambda: SqlManifest(
            "schema", "loader", (ManifestEntry("q1", "SELECT 1", Fraction(1, 2), 2),),
            {"A": "t_A"}),
        "support.CountingQuery": lambda: CountingQuery(cq, Fraction(1, 2)),
        "support.BasisTerm": lambda: BasisTerm(cq, Fraction(-1)),
    }


def _one(*args):
    return 1


#: The classes built with slots=True, and the one that defines its own
#: `__eq__` and `__hash__`.
SLOTTED = {"model.Term", "model.Role", "model.Axiom",
           "model.ConjunctionAxiom", "model.QualifiedExistsAxiom", "model.Fact", "model.Atom"}
CUSTOM_EQ = {"model.WeightFunction"}
#: The classes that define their own `__repr__`.
CUSTOM_REPR = {"model.Term", "model.Role", "model.Fact", "model.Atom",
               "model.CQ", "model.UCQ", "model.SupportHistogram"}
SAMPLES = _value_class_samples()


def _value_classes() -> dict[str, type]:
    """Every class in respo's modules that `value_class` built."""
    import importlib
    import pkgutil

    import respo

    found = {}
    for info in pkgutil.iter_modules(respo.__path__):
        module = importlib.import_module(f"respo.{info.name}")
        for cls in vars(module).values():
            if (isinstance(cls, type) and cls.__module__ == module.__name__
                    and "__value_fields__" in vars(cls)):
                found[f"{info.name}.{cls.__name__}"] = cls
    return found


def _hash_or_error(value):
    try:
        return hash(value)
    except TypeError as exc:
        return str(exc)


def test_every_value_class_has_a_sample():
    assert sorted(_value_classes()) == sorted(SAMPLES)


@pytest.mark.parametrize("name", sorted(SAMPLES))
def test_value_class_behaves_as_the_dataclass_it_replaced(name):
    """Equality, hashing, repr, immutability and slots of each value class
    match a frozen `dataclasses` twin with the same fields."""
    import dataclasses

    cls = _value_classes()[name]
    sample, again = SAMPLES[name](), SAMPLES[name]()
    assert type(sample) is cls
    fields = cls.__value_fields__
    assert all(isinstance(f, str) for f in fields)
    values = {f: getattr(sample, f) for f in fields}
    twin = dataclasses.make_dataclass(cls.__name__, [(f, object) for f in fields], frozen=True)
    twin.__qualname__ = cls.__qualname__
    reference = twin(**values)

    assert sample == again and sample != reference and reference != sample
    assert _hash_or_error(sample) == _hash_or_error(again)
    if name not in CUSTOM_EQ:
        assert _hash_or_error(sample) == _hash_or_error(reference)
    assert cls(**values) == sample
    assert (repr(sample) == repr(reference)) == (name not in CUSTOM_REPR)
    assert hasattr(sample, "__dict__") == (name not in SLOTTED)
    for f in fields:
        with pytest.raises(AttributeError):
            setattr(sample, f, values[f])
        with pytest.raises(AttributeError):
            delattr(sample, f)
    assert {f: getattr(sample, f) for f in fields} == values


def test_weight_functions_compare_by_name_and_caches_are_per_instance():
    """A weight function compares and hashes by name alone, and each
    saturated TBox gets its own empty cache."""
    from respo.queries import HomTarget
    from respo.reasoner import saturate

    assert WeightFunction("w", _one) == WeightFunction("w", lambda s, d: 2)
    assert hash(WeightFunction("w", _one)) == hash(WeightFunction("w", max))
    assert WeightFunction("w", _one) != WeightFunction("v", _one)

    first, second = saturate(TBox()), saturate(TBox())
    assert first._rows == {} and first._rows is not second._rows
    assert first.horn_rules == ({}, frozenset()) and "horn_rules" not in vars(second)
    first._rows["A"] = ("cached",)
    assert second._rows == {} and "_rows" not in repr(first)
    with pytest.raises(TypeError):
        HomTarget({}, _one, _one, {})


def test_post_init_still_validates():
    from respo.generators import Graph

    with pytest.raises(ValueError, match="bad term kind"):
        Term("bogus", "x")
    with pytest.raises(ValueError, match="need a name"):
        Term("var", "")
    with pytest.raises(ValueError, match="concept inclusion sides must be concept names or roles"):
        Axiom(CONCEPT_INCLUSION, "A", Term("var", "x"))
    with pytest.raises(ValueError, match="role inclusion sides must be roles"):
        Axiom(ROLE_INCLUSION, Role("r"), "A")
    with pytest.raises(ValueError):
        UCQ(())
    with pytest.raises(InputError):
        Graph(("u",), (("u", "v"),))
    ordered = CQ((role_atom("r", var("x"), var("y")), concept_atom("A", var("x"))))
    assert [atom.kind for atom in ordered.atoms] == ["concept", "role"]
