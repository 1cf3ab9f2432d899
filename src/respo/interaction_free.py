"""The interaction-free fast path.

An OMQ is interaction-free when no single generic assertion can satisfy
two distinct (atom, assignment) pairs of the query under the TBox.  For
such OMQs every minimal support picks exactly one fact per query atom, so
counting minimal supports factorizes.  The check walks the fact shapes
(generic facts over the query's constants and two fresh ones) and reads
each shape's one-atom matches off the canonical model of the one fact,
walked by `reasoner.canonical_model` with each role's subtree unfolded
once, which takes time polynomial in the TBox.  A real fact's
pairs are read the same way, once per plan, and each pair yields a row.
Summing the facts' rows gives each atom a table from rows to weights, and
`elimination.weighted_eval` sums weight products over homomorphisms by
the variable elimination that partition counting runs in
`elimination.marginals`: polynomial in the number of rows for a query of
bounded treewidth, linear for an acyclic one.

An `IFPlan`, built once per OMQ, keeps the CQ's shared variables, the
elimination order and each fact's rows.  Scoring every fact counts over D
and over each D minus one fact, |D| + 1 eliminations;
`elimination.marginals` would give every fact's count from one.  Nothing
here imports `queries`, so the pipeline compiles no homomorphism
search.
"""

from __future__ import annotations

from itertools import islice
from typing import Iterable

from .elimination import Table, elimination_order, row_variables, weighted_eval
from .model import (
    ANON,
    ABox,
    Atom,
    CONCEPT_ATOM,
    CQ,
    Fact,
    OMQ,
    SupportHistogram,
    UnsupportedTBoxError,
    value_class,
)
from .reasoner import SaturatedTBox, canonical_model, is_consistent, saturate


class NotInteractionFreeError(UnsupportedTBoxError):
    """The OMQ failed the interaction-freeness check; `auto` falls back to
    another pipeline."""


# ---------------------------------------------------------------------------
# Interaction-freeness check
# ---------------------------------------------------------------------------

@value_class()
class InteractionWitness:
    """A generic assertion satisfying two distinct (atom, assignment)
    pairs."""

    fact_shape: Fact
    atom1: Atom
    assignment1: tuple[tuple[str, str], ...]
    atom2: Atom
    assignment2: tuple[tuple[str, str], ...]

    def __str__(self) -> str:
        def fmt(atom, assignment):
            binding = ", ".join(f"?{v}->{val}" for v, val in assignment)
            return f"{atom!r} [{binding}]" if binding else f"{atom!r}"

        return (
            f"fact {self.fact_shape.predicate}({','.join(self.fact_shape.args)}) "
            f"satisfies both {fmt(self.atom1, self.assignment1)} "
            f"and {fmt(self.atom2, self.assignment2)}"
        )


def _query_cq(omq: OMQ) -> CQ:
    if len(omq.query.disjuncts) != 1:
        raise UnsupportedTBoxError("interaction-freeness is defined for single CQs")
    cq = omq.query.disjuncts[0]
    if cq.neq_atoms():
        raise UnsupportedTBoxError(
            "interaction-freeness is defined for plain CQs (no disequalities)"
        )
    return cq


def _fact_shapes(omq: OMQ, cq: CQ) -> list[Fact]:
    """Generic assertions covering every shape a real fact can take w.r.t.
    the query: concept/role facts over the query's constants plus two
    fresh ones (DL-Lite_R axioms cannot distinguish further constants;
    the repeated-constant role shape covers self-loops)."""
    atoms = cq.relational_atoms()
    concepts = omq.tbox.concept_names() | {a.predicate for a in atoms if a.kind == CONCEPT_ATOM}
    roles = omq.tbox.role_names() | {a.predicate for a in atoms if a.kind != CONCEPT_ATOM}
    pool = list(cq.constants()) + ["fresh#1", "fresh#2"]
    shapes = [(name, (c,)) for name in sorted(concepts) for c in pool]
    shapes += [(name, (c1, c2)) for name in sorted(roles) for c1 in pool for c2 in pool]
    return [Fact(f"shape{i}", name, args) for i, (name, args) in enumerate(shapes)]


def _satisfying_pairs(sat: SaturatedTBox, fact: Fact, atoms: tuple[Atom, ...]):
    """Every (slot, assignment into const(f) + anon) pair of the `atoms`
    that the single consistent fact satisfies, matched against the folded
    canonical model of {fact} (`reasoner.canonical_model` with no depth),
    its named elements read as their constants and its anonymous ones as
    ANON.  A repeated variable never takes ANON: the model is a tree, so no
    edge joins an anonymous element to itself.  The pairs come in slot
    order, and within a slot in the order of the atom's sorted variables'
    values: the fact's sorted constants, then anon."""
    tuples: dict[tuple[str, int], set[tuple]] = {}
    for name, elements in canonical_model((fact,), sat.tbox):
        values = tuple(ANON if path else a for a, path in elements)
        tuples.setdefault((name, len(values)), set()).add(values)
    for slot, atom in enumerate(atoms):
        variables = sorted(set(atom.variables()))
        found = set()
        for values in tuples.get((atom.predicate, len(atom.terms)), ()):
            mu: dict[str, object] = {}
            for term, value in zip(atom.terms, values):
                if term.is_var and term.name not in mu:
                    mu[term.name] = value
                elif value is ANON or value != (mu[term.name] if term.is_var else term.name):
                    break
            else:
                found.add(tuple(mu[v] for v in variables))
        for values in sorted(found, key=lambda vs: [(v is ANON, str(v)) for v in vs]):
            yield slot, dict(zip(variables, values))


def _witness_assignment(mu: dict) -> tuple[tuple[str, str], ...]:
    return tuple((v, "<anon>" if value is ANON else value) for v, value in mu.items())


def check_interaction_free(omq: OMQ) -> InteractionWitness | None:
    """None when interaction-free, otherwise the first violating witness
    (deterministic order)."""
    if omq.tbox.horn_extended:
        raise UnsupportedTBoxError("interaction-freeness requires a DL-Lite_R TBox")
    cq = _query_cq(omq)
    atoms = cq.relational_atoms()
    sat = saturate(omq.tbox)
    for shape in _fact_shapes(omq, cq):
        if not is_consistent(ABox((shape,)), omq.tbox):
            continue  # such a fact can occur in no consistent ABox
        found = list(islice(_satisfying_pairs(sat, shape, atoms), 2))
        if len(found) == 2:
            (s1, mu1), (s2, mu2) = found
            return InteractionWitness(
                shape, atoms[s1], _witness_assignment(mu1), atoms[s2], _witness_assignment(mu2)
            )
    return None


# ---------------------------------------------------------------------------
# Per-fact rows
# ---------------------------------------------------------------------------

def _shared_variables(cq: CQ) -> set[str]:
    atoms = cq.relational_atoms()
    return {v for v in cq.variables() if sum(v in atom.variables() for atom in atoms) >= 2}


def anon_constant(slot: int) -> str:
    # '#' cannot occur in parsed constants, so these never collide.
    return f"anon#{slot}"


def _entries(
    atoms: tuple[Atom, ...], shared: set[str], pairs
) -> tuple[tuple[int, tuple[str, ...]], ...]:
    """The (slot, row) pairs fed by a fact that satisfies the (slot,
    assignment) `pairs` of the CQ's relational `atoms`, whose variables in
    two or more atoms are `shared`.  A row holds the values of the slot
    atom's `row_variables`, with `anon_constant(slot)` for an anonymous
    value, so rows of different atoms never alias.  An atom that shares no variable
    keeps every pair.  In a joined one a shared variable is never anonymous
    (Lemma 4), so past all-named pairs it keeps those anonymous at exactly
    its unshared variables: the named-shared, anonymous-unshared role pairs.
    """
    rows = []
    for slot, mu in pairs:
        anon = {v for v, value in mu.items() if value is ANON}
        if anon and not shared.isdisjoint(mu) and anon != set(mu) - shared:
            continue
        row = (anon_constant(slot) if v in anon else mu[v] for v in row_variables(atoms[slot]))
        rows.append((slot, tuple(row)))
    return tuple(rows)


class IFPlan:
    """What counting an interaction-free OMQ needs besides the data: its
    CQ, the CQ's relational atoms, an elimination order of its variables,
    and each fact's rows.  Building a plan runs the interaction-freeness
    check once and raises `UnsupportedTBoxError` (`NotInteractionFreeError`
    for a failed check) when the OMQ is outside the pipeline.

    A fact's rows are read once, off its one-atom matches in the TBox
    closure, and kept.  The tables of any fact set are the sums of its
    facts' rows, so one plan serves every subset of a database.
    """

    def __init__(self, omq: OMQ):
        witness = check_interaction_free(omq)
        if witness is not None:
            raise NotInteractionFreeError(f"OMQ is not interaction-free: {witness}")
        (cq,) = omq.query.disjuncts  # the check accepts single plain CQs only
        self.omq = omq
        self.cq = cq
        self.atoms = cq.relational_atoms()
        self.order = tuple(elimination_order(cq))
        self._sat = saturate(omq.tbox)
        self._shared = _shared_variables(cq)
        self._rows: dict[Fact, tuple[tuple[int, tuple[str, ...]], ...]] = {}

    def fact_entries(self, fact: Fact) -> tuple[tuple[int, tuple[str, ...]], ...]:
        """The (slot, row) pairs the fact feeds (see `_entries`), at most
        one.  The fact must be consistent with the TBox."""
        if fact not in self._rows:
            pairs = _satisfying_pairs(self._sat, fact, self.atoms)
            self._rows[fact] = _entries(self.atoms, self._shared, pairs)
        return self._rows[fact]


# ---------------------------------------------------------------------------
# The full pipeline
# ---------------------------------------------------------------------------

def count_ms_interaction_free(plan: IFPlan, facts: Iterable[Fact]) -> SupportHistogram:
    """countFMS for an interaction-free OMQ: one weighted evaluation of its
    CQ over the facts' rows, all supports having exactly one fact per query
    atom.  The facts must be consistent with the TBox; callers check the
    full ABox once, and its subsets are then too."""
    tables: list[Table] = [{} for _ in plan.atoms]
    for fact in facts:
        for slot, row in plan.fact_entries(fact):
            tables[slot][row] = tables[slot].get(row, 0) + 1
    return SupportHistogram({len(plan.atoms): weighted_eval(plan.cq, tables, plan.order)})
