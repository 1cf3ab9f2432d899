import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
FIXTURES = REPO / "fixtures"

sys.path.insert(0, str(REPO / "src"))

from respo.model import OMQ  # noqa: E402
from respo.textio import parse_abox, parse_query, parse_tbox  # noqa: E402


def load_fixture(stem: str):
    tbox = parse_tbox((FIXTURES / f"{stem}.tbox").read_text(encoding="utf-8"))
    abox = parse_abox((FIXTURES / f"{stem}.abox").read_text(encoding="utf-8"))
    query = parse_query((FIXTURES / f"{stem}.query").read_text(encoding="utf-8"))
    return tbox, abox, query


@pytest.fixture(scope="session")
def fig1():
    tbox, abox, query = load_fixture("fig1")
    return OMQ(tbox, query), abox


@pytest.fixture(scope="session")
def variant():
    tbox, abox, query = load_fixture("variant")
    return OMQ(tbox, query), abox


def _role_family(k: int):
    """The role family R_k: A <= exists r0, and for all i, j < k,
    exists ri- <= exists rj and exists ri- <= Bi, under the IF query
    C(?x), s(?x, ?y), D(?y), with the 5-fact ABox C(a), s(a, b), D(b),
    A(a), C(b).  Its canonical model branches k ways at every anonymous
    element."""
    lines = ["A <= exists r0"] + [
        line for i in range(k) for line in (
            *(f"exists r{i}- <= exists r{j}" for j in range(k)), f"exists r{i}- <= B{i}")
    ]
    omq = OMQ(parse_tbox("".join(f"{line}\n" for line in lines)),
              parse_query("C(?x), s(?x, ?y), D(?y)"))
    return omq, parse_abox("C(a)\ns(a, b)\nD(b)\nA(a)\nC(b)\n")


@pytest.fixture(scope="session")
def role_family():
    """Builds the role family R_k and its 5-fact ABox, as (omq, abox)."""
    return _role_family


@pytest.fixture
def model_walks(monkeypatch):
    """The `depth` of every walk of `reasoner.canonical_model` from here
    on (None for the folded walk), patched in each loaded respo module
    that binds the function."""
    import respo.reasoner

    walk = respo.reasoner.canonical_model
    depths = []

    def recorded(abox, tbox, depth=None):
        depths.append(depth)
        return walk(abox, tbox, depth)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "respo" and vars(module).get("canonical_model") is walk:
            monkeypatch.setattr(module, "canonical_model", recorded)
    return depths


def _witness_omq(rng):
    """A random CQ, constants allowed, plus a role atom from one of its
    variables to a fresh variable, under a TBox whose last axiom gives that
    role an anonymous witness: the interaction-free rows then hold
    `anon#slot` values."""
    from respo.model import CONCEPT_INCLUSION, CQ, Axiom, Role, TBox, role_atom, var
    from respo.randgen import ROLE_NAMES, random_basic_concept, random_cq, random_dllite_tbox

    role = Role(rng.choice(ROLE_NAMES), rng.random() < 0.4)
    tbox = random_dllite_tbox(rng, max_axioms=2, allow_negative=False)
    tbox = TBox(tbox.axioms | {Axiom(CONCEPT_INCLUSION, random_basic_concept(rng), role)})
    cq = random_cq(rng, max_atoms=2, allow_neq=False)
    if not cq.variables():
        return OMQ(tbox, cq)
    ends = (var(rng.choice(cq.variables())), var("u"))
    edge = role_atom(role.name, *(ends[::-1] if role.inverted else ends))
    return OMQ(tbox, CQ(cq.atoms + (edge,)))


@pytest.fixture(scope="session")
def witness_omq():
    """Draws a seeded OMQ whose role atom has an anonymous witness."""
    return _witness_omq
