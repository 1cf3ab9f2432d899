import pytest

from respo.model import (
    Axiom,
    CONCEPT_INCLUSION,
    ConjunctionAxiom,
    QualifiedExistsAxiom,
    Role,
    concept,
    exists,
)
from respo.textio import (
    ParseError,
    parse_abox,
    parse_query,
    parse_tbox,
    render_abox,
    render_query,
    render_tbox,
)


def test_parse_concept_inclusion():
    tbox = parse_tbox("Seafood <= FishBased\n")
    assert Axiom(CONCEPT_INCLUSION, concept("Seafood"), concept("FishBased")) in tbox.axioms


def test_parse_inverse_exists():
    tbox = parse_tbox("exists r- <= B\n")
    ax = next(iter(tbox.axioms))
    assert ax.lhs == exists(Role("r", True))
    assert ax.rhs == concept("B")


def test_parse_negated_rhs():
    tbox = parse_tbox("A <= !exists s\n")
    ax = next(iter(tbox.axioms))
    assert ax.negated and ax.rhs == exists(Role("s"))


def test_parse_role_inclusion_and_horn_shapes():
    tbox = parse_tbox(
        "role: hasGrnsh <= hasIng\n"
        "A & B <= C\n"
        "exists r.A <= B\n"
    )
    assert tbox.horn_extended
    assert ConjunctionAxiom("A", "B", "C") in tbox.horn_axioms
    assert QualifiedExistsAxiom(Role("r"), "A", "B") in tbox.horn_axioms


def test_negated_lhs_rejected():
    with pytest.raises(ParseError):
        parse_tbox("!A <= B\n")


def test_tbox_arity_clash():
    with pytest.raises(ParseError):
        parse_tbox("A <= B\nrole: A <= s\n")


def test_fig1_tbox_has_four_axioms(fig1):
    omq, _ = fig1
    assert len(omq.tbox.axioms) + len(omq.tbox.horn_axioms) == 4
    assert omq.tbox.horn_extended


def test_parse_abox_labels_and_autolabels():
    abox = parse_abox("f3: hasIng(sole, sauce)\nFish(stock)\n")
    f3 = abox.by_label("f3")
    assert f3.predicate == "hasIng" and f3.args == ("sole", "sauce")
    auto = abox.by_label("f1")  # second fact, file order
    assert auto.predicate == "Fish"


def test_parse_abox_arity_error():
    with pytest.raises(ParseError):
        parse_abox("f3: Fish(a)\nf4: Fish(a,b)\n")


def test_parse_abox_duplicate_label():
    with pytest.raises(ParseError):
        parse_abox("g: A(c)\ng: B(d)\n")


def test_parse_abox_duplicates_name_their_line():
    with pytest.raises(ParseError) as label:
        parse_abox("# header\ng: A(c)\n\nh: B(d)\ng: B(e)\n")
    assert str(label.value) == "5:1: error: duplicate fact label 'g'"
    with pytest.raises(ParseError) as assertion:
        parse_abox("A(c)\nr(c, d)\n# again\nk: r(c,d)\n")
    assert str(assertion.value) == "4:1: error: duplicate assertion r(c,d)"


def test_parse_query_ground_atom():
    ucq = parse_query("FishBased(cancalaiseSole)\n")
    atom = ucq.disjuncts[0].atoms[0]
    assert atom.predicate == "FishBased"
    assert atom.terms[0].is_const


def test_parse_query_disequality():
    ucq = parse_query("r(?x,?y), ?x != ?y\n")
    cq = ucq.disjuncts[0]
    assert len(cq.neq_atoms()) == 1


def test_parse_query_disjuncts():
    ucq = parse_query("A(?x)\nOR\nB(?x)\n")
    assert len(ucq.disjuncts) == 2


def _parse_query_error(text: str) -> str:
    with pytest.raises(ParseError) as error:
        parse_query(text)
    return str(error.value)


def test_parse_query_rejects_a_disjunct_without_relational_atoms():
    """The error names the disjunct's first line."""
    assert _parse_query_error("A(?x)\nOR\n?x != ?y\n") == (
        "3:1: error: query has no relational atoms")


def test_parse_query_rejects_an_unanchored_disequality_variable():
    """The error names the disequality's line."""
    assert _parse_query_error("A(?x)\n# anchored by A only\n?x != ?z\n") == (
        "3:1: error: disequality variable ?z occurs in no relational atom")


def test_parse_query_rejects_cross_component_disequality():
    """The error names the disequality's line, not the disjunct's first."""
    assert _parse_query_error("A(?x), B(?y), ?x != ?y\n") == (
        "1:1: error: disequality spans two query components")
    assert _parse_query_error("A(?x)\nB(?y), ?x != ?y\n") == (
        "2:1: error: disequality spans two query components")
    assert _parse_query_error("B(?y)\nOR\nA(?x)\nB(?y), ?x != ?y\n") == (
        "4:1: error: disequality spans two query components")


@pytest.mark.parametrize("text, line", [
    pytest.param("A(?x)\nOR\n", 2, id="last"),
    pytest.param("# c\n\nOR\nA(?x)\n", 3, id="first"),
    pytest.param("A(?x)\nOR\n\nOR\nB(?x)\n", 2, id="between"),
    pytest.param("# only a comment\n", 1, id="no-or"),
])
def test_parse_query_names_the_or_next_to_an_empty_disjunct(text, line):
    """An empty disjunct has no line of its own: the error names the OR
    before it, or after it for the first disjunct, and line 1 for a query
    with no line at all."""
    assert _parse_query_error(text) == f"{line}:1: error: empty disjunct"


def test_round_trips():
    tbox_text = (
        "Seafood <= FishBased\n"
        "exists r- <= B\n"
        "A <= !exists s\n"
        "role: hasGrnsh <= hasIng\n"
        "A & B <= C\n"
        "exists r.A <= B\n"
    )
    tbox = parse_tbox(tbox_text)
    assert parse_tbox(render_tbox(tbox)) == tbox

    abox_text = "f0: A(c)\nf1: r(c, d)\n"
    abox = parse_abox(abox_text)
    assert parse_abox(render_abox(abox)) == abox

    query_text = "A(?x), r(?x,?y), ?x != ?y\nOR\nB(c)\n"
    ucq = parse_query(query_text)
    assert parse_query(render_query(ucq)) == ucq


def test_comments_and_blanks_skipped():
    tbox = parse_tbox("# header\n\nA <= B  # trailing\n")
    assert len(tbox.axioms) == 1
