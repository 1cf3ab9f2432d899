"""Seeded random instances for the cross-pipeline property suites: small
DL-Lite_R TBoxes, ABoxes, databases, (U)CQs with optional constants and
disequalities, and Horn-extended KBs with ground atomic queries.  Shared
by the test suite and the `verify` command.
"""

from __future__ import annotations

import random

from .model import (
    ABox,
    Atom,
    Axiom,
    CONCEPT_INCLUSION,
    CQ,
    ConjunctionAxiom,
    Fact,
    OMQ,
    QualifiedExistsAxiom,
    ROLE_INCLUSION,
    Role,
    TBox,
    UCQ,
    concept,
    concept_atom,
    const,
    exists,
    neq_atom,
    role_atom,
    var,
)
from .interaction_free import IFPlan, NotInteractionFreeError
from .reasoner import entails_ground_atom, is_consistent

CONCEPT_NAMES = ["A", "B", "C"]
ROLE_NAMES = ["r", "s"]
CONSTANTS = ["c", "d", "e", "g", "h"]
VARIABLES = ["x", "y", "z", "w"]


def random_basic_concept(rng: random.Random) -> object:
    if rng.random() < 0.55:
        return concept(rng.choice(CONCEPT_NAMES))
    return exists(Role(rng.choice(ROLE_NAMES), rng.random() < 0.4))


def random_dllite_tbox(
    rng: random.Random, max_axioms: int = 5, allow_negative: bool = True
) -> TBox:
    axioms = set()
    for _ in range(rng.randint(0, max_axioms)):
        if rng.random() < 0.2:
            lhs = Role(rng.choice(ROLE_NAMES), rng.random() < 0.3)
            rhs = Role(rng.choice(ROLE_NAMES), rng.random() < 0.3)
            negated = allow_negative and rng.random() < 0.15
            axioms.add(Axiom(ROLE_INCLUSION, lhs, rhs, negated))
        else:
            lhs = random_basic_concept(rng)
            rhs = random_basic_concept(rng)
            negated = allow_negative and rng.random() < 0.15
            axioms.add(Axiom(CONCEPT_INCLUSION, lhs, rhs, negated))
    return TBox(frozenset(axioms))


def random_abox(
    rng: random.Random,
    max_facts: int = 5,
    bias: "UCQ | None" = None,
    tbox: TBox | None = None,
    constants: int = 3,
) -> ABox:
    """A random ABox over the first `constants` names of `CONSTANTS`,
    then c5, c6 and so on.  When `bias` (and optionally a TBox) is given,
    most facts instantiate the query's atoms or the TBox's left-hand
    sides, so entailment is non-trivially exercised.  Three constants
    hold at most 27 distinct facts over `CONCEPT_NAMES` and `ROLE_NAMES`;
    a wider pool makes larger instances."""
    pool = (CONSTANTS + [f"c{i}" for i in range(len(CONSTANTS), constants)])[:constants]
    shapes: list[tuple[str, int]] = []
    if bias is not None:
        for d in bias.disjuncts:
            for atom in d.relational_atoms():
                shapes.append((atom.predicate, len(atom.terms)))
    if tbox is not None:
        for ax in tbox.axioms:
            if ax.negated:
                continue
            if ax.kind == ROLE_INCLUSION:
                shapes.append((ax.lhs.name, 2))
            elif ax.lhs.is_name:
                shapes.append((ax.lhs.concept_name, 1))
            else:
                shapes.append((ax.lhs.role.name, 2))
    # TBox axioms live in a frozenset; sort so instance generation does not
    # depend on hash seeding.
    shapes.sort()

    facts: list[Fact] = []
    contents = set()
    for i in range(rng.randint(1, max_facts)):
        if shapes and rng.random() < 0.7:
            pred, arity = rng.choice(shapes)
        elif rng.random() < 0.5:
            pred, arity = rng.choice(CONCEPT_NAMES), 1
        else:
            pred, arity = rng.choice(ROLE_NAMES), 2
        args = tuple(rng.choice(pool) for _ in range(arity))
        key = (pred, args)
        if key in contents:
            continue
        contents.add(key)
        facts.append(Fact(f"f{i}", pred, args))
    return ABox(tuple(facts))


def random_cq(
    rng: random.Random,
    max_atoms: int = 3,
    allow_constants: bool = True,
    allow_neq: bool = True,
) -> CQ:
    """A random Boolean CQ(+/-) whose disequalities stay inside one
    component (the parser-level requirement)."""
    n_atoms = rng.randint(1, max_atoms)
    atoms: list[Atom] = []
    for _ in range(n_atoms):
        def term():
            if allow_constants and rng.random() < 0.25:
                return const(rng.choice(CONSTANTS[:2]))
            return var(rng.choice(VARIABLES))

        if rng.random() < 0.45:
            atoms.append(concept_atom(rng.choice(CONCEPT_NAMES), term()))
        else:
            atoms.append(role_atom(rng.choice(ROLE_NAMES), term(), term()))
    cq = CQ(tuple(atoms))
    if allow_neq and rng.random() < 0.4:
        from .model import connected_components

        components = connected_components(cq)
        target = components[rng.randrange(len(components))]
        terms = [var(v) for v in target.variables()]
        terms.extend(const(c) for c in target.constants())
        if len(terms) >= 2:
            t1, t2 = rng.sample(terms, 2)
            if t1 != t2:
                atoms.append(neq_atom(t1, t2))
                cq = CQ(tuple(atoms))
    return cq


def random_ucq(rng: random.Random, max_disjuncts: int = 2, max_atoms: int = 3) -> UCQ:
    return UCQ(
        tuple(
            random_cq(rng, max_atoms=max_atoms)
            for _ in range(rng.randint(1, max_disjuncts))
        )
    )


def random_database(
    rng: random.Random, max_facts: int = 6, bias: "UCQ | None" = None
) -> ABox:
    return random_abox(rng, max_facts=max_facts, bias=bias)


def random_consistent_kb(
    rng: random.Random,
    max_axioms: int = 5,
    max_facts: int = 5,
    bias: "UCQ | None" = None,
) -> tuple[TBox, ABox]:
    """Rejection-sample a consistent TBox/ABox pair."""
    while True:
        tbox = random_dllite_tbox(rng, max_axioms=max_axioms)
        abox = random_abox(rng, max_facts=max_facts, bias=bias, tbox=tbox)
        if is_consistent(abox, tbox):
            return tbox, abox


def random_interaction_free_omq(rng: random.Random, max_atoms: int = 4) -> IFPlan:
    """Rejection-sample an interaction-free OMQ (plain CQ, DL-Lite_R) and
    return the `IFPlan` whose construction accepted it (the OMQ is its
    `.omq`).  Mixes empty, positive-only, and existential TBoxes so
    anonymous matching is exercised."""
    while True:
        style = rng.random()
        if style < 0.35:
            tbox = TBox()
        else:
            tbox = random_dllite_tbox(rng, max_axioms=3, allow_negative=False)
        cq = random_cq(rng, max_atoms=max_atoms, allow_constants=True, allow_neq=False)
        try:
            return IFPlan(OMQ(tbox, cq))
        except NotInteractionFreeError:
            continue


def random_horn_kb(rng: random.Random) -> tuple[TBox, ABox, CQ]:
    """Rejection-sample a consistent Horn-extended KB and a ground atomic
    query.  The TBox mixes DL-Lite_R inclusions (inverse roles, exists R on
    either side, disjointness; no existential right-hand side, which the
    Horn evaluator refuses) with one to six A & B <= C and exists R.A <= B
    axioms; one TBox in two also gets r <= s- for random role names r and
    s, so that facts often stand in the reversed pair of an inverted
    super-role.  The ABox holds up to 14 facts over three
    constants (a fact drawn twice is kept once).  One query in five is a
    role atom.  Three in four are atoms the KB entails but no single fact
    does, when there are any, so that most supports need a Horn axiom to
    fire."""
    pool = CONSTANTS[:3]
    while True:
        axioms = frozenset(
            ax for ax in random_dllite_tbox(rng, max_axioms=4).axioms
            if ax.kind == ROLE_INCLUSION or ax.negated or ax.rhs.is_name
        )
        if rng.random() < 0.5:
            inverse = Role(rng.choice(ROLE_NAMES), True)
            axioms |= {Axiom(ROLE_INCLUSION, Role(rng.choice(ROLE_NAMES)), inverse)}
        horn = set()
        for _ in range(rng.randint(1, 6)):
            if rng.random() < 0.5:
                a, b = rng.sample(CONCEPT_NAMES, 2)
                horn.add(ConjunctionAxiom(a, b, rng.choice(CONCEPT_NAMES)))
            else:
                role = Role(rng.choice(ROLE_NAMES), rng.random() < 0.4)
                filler, rhs = rng.choice(CONCEPT_NAMES), rng.choice(CONCEPT_NAMES)
                horn.add(QualifiedExistsAxiom(role, filler, rhs))
        tbox = TBox(axioms, frozenset(horn))
        contents: dict[tuple, Fact] = {}
        for _ in range(rng.randint(1, 14)):
            if rng.random() < 0.5:
                pred, args = rng.choice(CONCEPT_NAMES), (rng.choice(pool),)
            else:
                pred, args = rng.choice(ROLE_NAMES), (rng.choice(pool), rng.choice(pool))
            contents.setdefault((pred, args), Fact(f"f{len(contents)}", pred, args))
        abox = ABox(tuple(contents.values()))
        if not is_consistent(abox, tbox):
            continue
        if rng.random() < 0.2:
            atoms = [
                role_atom(n, const(a), const(b)) for n in ROLE_NAMES for a in pool for b in pool
            ]
        else:
            atoms = [concept_atom(n, const(a)) for n in CONCEPT_NAMES for a in pool]
        entailed = [a for a in atoms if entails_ground_atom(abox, tbox, a)]
        joint = [a for a in entailed if not any(entails_ground_atom((f,), tbox, a) for f in abox)]
        chance = rng.random()
        if joint and chance < 0.75:
            atoms = joint
        elif entailed and chance < 0.85:
            atoms = entailed
        return tbox, abox, CQ((rng.choice(atoms),))
