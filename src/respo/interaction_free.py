"""The interaction-free fast path.

An OMQ is interaction-free when no single generic assertion can satisfy
two distinct (atom, assignment) pairs of the query under the TBox.  For
such OMQs every minimal support picks exactly one fact per query atom, so
counting minimal supports factorizes.  The check walks the fact shapes
(generic facts over the query's constants and two fresh ones) and reads
each shape's pairs off one search per atom into its canonical slice
(`canonical`), whose depth and one-atom queries it builds once per
check; each pair yields a row.  DL-Lite_R tells no other constants
apart, so a real fact feeds its shape's row, renamed.  Summing the facts' rows gives
each atom a table from rows to weights, and `queries.weighted_eval` sums
weight products over homomorphisms by the variable elimination that
partition counting runs in `queries.marginals`: polynomial in the number
of rows for a query of bounded treewidth, linear for an acyclic one.

An `IFPlan`, built once per OMQ, keeps the check's walk as its row table,
built with the CQ's shared variables found once, and the elimination
order.  Scoring every fact counts over D and over each D minus one fact,
|D| + 1 eliminations; `queries.marginals` would give every fact's count
from one.
"""

from __future__ import annotations

from itertools import islice
from typing import Iterable

from .canonical import canonical_slice, query_depth, slice_assignments
from .model import (
    ANON,
    ABox,
    Atom,
    CONCEPT_ATOM,
    CQ,
    Fact,
    OMQ,
    SupportHistogram,
    TBox,
    UnsupportedTBoxError,
    value_class,
)
from .queries import Table, elimination_order, row_variables, weighted_eval
from .reasoner import is_consistent


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
    concepts = sorted(
        omq.tbox.concept_names() | {a.predicate for a in cq.atoms if a.kind == CONCEPT_ATOM}
    )
    roles = sorted(
        omq.tbox.role_names()
        | {a.predicate for a in cq.atoms if a.is_relational and a.kind != CONCEPT_ATOM}
    )
    pool = list(cq.constants()) + ["fresh#1", "fresh#2"]
    shapes: list[Fact] = []
    i = 0
    for name in concepts:
        for c in pool:
            shapes.append(Fact(f"shape{i}", name, (c,)))
            i += 1
    for name in roles:
        for c1 in pool:
            for c2 in pool:
                shapes.append(Fact(f"shape{i}", name, (c1, c2)))
                i += 1
    return shapes


def _satisfying_pairs(tbox: TBox, fact: Fact, singles: tuple[CQ, ...], depth: int):
    """Every (slot, assignment into const(f) + anon) pair of the atoms that
    the single consistent fact satisfies, read off the homomorphisms of
    each atom's one-atom CQ in `singles` into one canonical slice of {f}
    at `depth`, deep enough for every atom.  The pairs come in slot order,
    and within a slot in the order of the atom's sorted variables' values:
    the fact's sorted constants, then anon."""
    target = canonical_slice(ABox((fact,)), tbox, depth)
    for slot, single in enumerate(singles):
        variables = single.variables()
        for values in sorted(slice_assignments(target, single), key=_anon_last):
            yield slot, dict(zip(variables, values))


def _anon_last(values: tuple) -> tuple:
    return tuple((value is ANON, "" if value is ANON else value) for value in values)


def _assignment_key(mu: dict) -> tuple[tuple[str, str], ...]:
    return tuple((v, "<anon>" if value is ANON else value) for v, value in mu.items())


def check_interaction_free(omq: OMQ, pairs: dict | None = None) -> InteractionWitness | None:
    """None when interaction-free, otherwise the first violating witness
    (deterministic order).  `pairs`, if given, maps each consistent shape's
    (predicate, args) to its (slot, assignment) pairs, at most one if free."""
    if omq.tbox.horn_extended:
        raise UnsupportedTBoxError("interaction-freeness requires a DL-Lite_R TBox")
    cq = _query_cq(omq)
    atoms = cq.relational_atoms()
    singles = tuple(CQ((atom,)) for atom in atoms)
    depth = max(query_depth(single, omq.tbox) for single in singles)
    for shape in _fact_shapes(omq, cq):
        if not is_consistent(ABox((shape,)), omq.tbox):
            continue  # such a fact can occur in no consistent ABox
        found = list(islice(_satisfying_pairs(omq.tbox, shape, singles, depth), 2))
        if len(found) == 2:
            (s1, mu1), (s2, mu2) = found
            return InteractionWitness(
                shape, atoms[s1], _assignment_key(mu1), atoms[s2], _assignment_key(mu2)
            )
        if pairs is not None:
            pairs[shape.predicate, shape.args] = found
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
    and the rows of each fact shape.  Building a plan runs the
    interaction-freeness check once and raises `UnsupportedTBoxError`
    (`NotInteractionFreeError` for a failed check) when the OMQ is outside
    the pipeline.

    The check's walk is kept as the row table, so no real fact gets a
    slice or a search.  The tables of any fact set are the sums of its
    facts' rows, so one plan serves every subset of a database.
    """

    def __init__(self, omq: OMQ):
        pairs: dict[tuple[str, tuple[str, ...]], list] = {}
        witness = check_interaction_free(omq, pairs)
        if witness is not None:
            raise NotInteractionFreeError(f"OMQ is not interaction-free: {witness}")
        (cq,) = omq.query.disjuncts  # the check accepts single plain CQs only
        self.omq = omq
        self.cq = cq
        self.atoms = cq.relational_atoms()
        self.order = tuple(elimination_order(cq))
        self._constants = frozenset(cq.constants())
        shared = _shared_variables(cq)
        self._table = {
            shape: _entries(self.atoms, shared, found) for shape, found in pairs.items()
        }
        self._rows: dict[Fact, tuple[tuple[int, tuple[str, ...]], ...]] = {}

    def fact_entries(self, fact: Fact) -> tuple[tuple[int, tuple[str, ...]], ...]:
        """The (slot, row) pairs the fact feeds (see `_entries`), at most
        one: its shape's, where the fact's constants outside the query are
        `fresh#1`, `fresh#2` in order of first occurrence, renamed back."""
        if fact not in self._rows:
            fresh: dict[str, str] = {}
            for c in fact.args:
                if c not in self._constants and c not in fresh:
                    fresh[c] = f"fresh#{len(fresh) + 1}"
            shape = (fact.predicate, tuple(fresh.get(c, c) for c in fact.args))
            back = {name: c for c, name in fresh.items()}
            self._rows[fact] = tuple(
                (slot, tuple(back.get(value, value) for value in row))
                for slot, row in self._table.get(shape, ())
            )
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
