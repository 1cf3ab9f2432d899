"""Minimal supports of a ground atom from its minimal why-provenance.

A Horn-extended TBox that respo accepts has no existential right-hand
side, so with the ABox it is a datalog program, and the minimal supports
of a ground atom are its minimal why-provenance: the inclusion-minimal
fact sets that derive it (Green, Karvounarakis and Tannen, "Provenance
semirings", PODS 2007).  The fixpoint fires the rule table that
`reasoner` builds for Boolean entailment (`SaturatedTBox.fact_row` and
`horn_rules`), but keeps its own worklist: run through a worklist
generic in the semiring, Boolean entailment took two to three times as
long.  The work grows with the number of supports, which can be
exponential: counting them is #P-hard once the TBox encodes
reachability.

The module also holds what every pipeline that finds supports one by one
shares: the `MinimalSupport` value, its per-fact tally and the ground
atom that Horn-extended TBoxes take.  `shapley` imports it with itself,
while the larger pipeline modules load only when a plan needs them.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .model import (
    CONCEPT_ATOM,
    Atom,
    BasicConcept,
    CQ,
    Fact,
    InputError,
    Role,
    SupportHistogram,
    TBox,
    UCQ,
    UnsupportedTBoxError,
    as_ucq,
    concept,
    value_class,
)
from .reasoner import _closure


@value_class()
class MinimalSupport:
    facts: frozenset[Fact]

    def labels(self) -> tuple[str, ...]:
        return tuple(sorted(f.label for f in self.facts))

    def __len__(self) -> int:
        return len(self.facts)


# Each fact's per-size counts of the minimal supports containing it.
FactCounts = dict[Fact, dict[int, int]]


def tally_fact_counts(
    facts: Iterable[Fact], supports: Iterable[MinimalSupport]
) -> tuple[SupportHistogram, FactCounts]:
    """The histogram of the supports and each fact's per-size counts of
    those containing it, in one pass over the supports."""
    supports = list(supports)
    counts: FactCounts = {f: {} for f in facts}
    for s in supports:
        for f in s.facts:
            counts[f][len(s)] = counts[f].get(len(s), 0) + 1
    histogram = SupportHistogram.from_sizes(len(s) for s in supports)
    return histogram, {f: dict(sorted(c.items())) for f, c in counts.items()}


def ground_atom_query(query: CQ | UCQ) -> Atom:
    """The query's one atom, which must be relational and ground: the
    queries that Horn-extended TBoxes and the provenance pipeline take."""
    ucq = as_ucq(query)
    atoms = ucq.disjuncts[0].atoms if len(ucq.disjuncts) == 1 else ()
    if len(atoms) != 1 or not atoms[0].is_relational or any(t.is_var for t in atoms[0].terms):
        raise UnsupportedTBoxError(
            "Horn-extended TBoxes and the provenance pipeline take ground atomic queries only"
        )
    return atoms[0]


class _Antichain:
    """Inclusion-minimal fact sets, as bit masks over the facts' positions,
    added in order of size, so that a set already here never holds a new
    one.  The column of a fact has bit k set when set k holds the fact: set
    k lies inside a new set exactly when it misses the columns of every
    fact outside the new set, so one OR over those columns decides
    subsumption."""

    __slots__ = ("masks", "columns")

    def __init__(self):
        self.masks: list[int] = []
        self.columns: dict[int, int] = {}  # a fact's bit -> its column

    def add(self, mask: int) -> bool:
        outside = 0
        for fact, column in self.columns.items():
            if not mask & fact:
                outside |= column
        k = len(self.masks)
        if outside != (1 << k) - 1:
            return False
        self.masks.append(mask)
        while mask:
            fact = mask & -mask
            self.columns[fact] = self.columns.get(fact, 0) | 1 << k
            mask ^= fact
        return True


def minimal_why_provenance(
    facts: Sequence[Fact], tbox: TBox, atom: Atom, cap: int
) -> list[int]:
    """The inclusion-minimal subsets of the facts from which the TBox
    entails the ground atom, each as a bit mask (bit i for facts[i]).

    The worklist of `reasoner._entailed_instance_data` in the PosBool
    semiring: each fact seeds {f} on every atom its `fact_row` closure
    names, a Horn rule joins a new set of its body with each set of the
    other conjunct or of the role pair, and every (individual, concept)
    atom keeps an `_Antichain`. Only the concepts the query atom can
    depend on are derived (`_rules_toward`). Candidate sets wait in one
    queue per size and enter their atom in size order, so each set that
    enters is final and is joined once. Role pairs keep the singletons of
    the facts that entail them: no Horn rule derives a role. More than
    `cap` sets on one atom, or more than `cap` candidate sets per fact in
    the queues, raise `InputError`; the second bounds the joins of two
    antichains that are each under the cap. The facts must be consistent
    with the TBox.
    """
    sat = _closure(tbox)
    rules, _ = sat.horn_rules
    goal = {concept(atom.predicate)} if atom.kind == CONCEPT_ATOM else set()
    fire = _rules_toward(rules, goal)
    budget, queued = cap * len(facts), 0
    pending: list[list] = [[] for _ in range(len(facts) + 1)]
    role_pairs: dict[str, dict[tuple[str, str], set[int]]] = {}
    for i, f in enumerate(facts):
        row, single = sat.fact_row(f.predicate, len(f.args)), 1 << i
        if f.is_concept:
            pending[1].extend((f.args[0], c, single) for c in row if c in goal)
            continue
        a, b = f.args
        subject, object_, sups = row
        pending[1].extend((a, c, single) for c in subject if c in goal)
        pending[1].extend((b, c, single) for c in object_ if c in goal)
        for name, inverted in sups:
            pairs = role_pairs.setdefault(name, {})
            pairs.setdefault((b, a) if inverted else (a, b), set()).add(single)
    # exists R.A <= B under A(a) joins with the R-predecessors of a.
    predecessors: dict[tuple[str, bool, str], list] = {}
    for name, pairs in role_pairs.items():
        for (x, y), masks in pairs.items():
            predecessors.setdefault((name, False, y), []).append((x, masks))
            predecessors.setdefault((name, True, x), []).append((y, masks))

    chains: dict[tuple[str, BasicConcept], _Antichain] = {}
    for queue in pending:
        for a, c, mask in queue:  # grows while it is read
            chain = chains.get((a, c))
            if chain is None:
                chain = chains[a, c] = _Antichain()
            if not chain.add(mask):
                continue
            if len(chain.masks) > cap:
                raise InputError(
                    f"provenance scoring is capped at {cap} minimal supports per derived atom"
                )
            for side, head in fire.get(c, ()):
                if isinstance(side, Role):
                    partners = predecessors.get((side.name, side.inverted, a), ())
                elif (a, side) in chains:
                    partners = ((a, chains[a, side].masks),)
                else:
                    continue
                for x, masks in partners:
                    queued += len(masks) * len(head)
                    if queued > budget:
                        raise InputError(
                            f"provenance scoring is capped at {budget} candidate sets"
                            f" on {len(facts)} facts"
                        )
                    for m in masks:
                        union = mask | m
                        pending[union.bit_count()].extend((x, h, union) for h in head)
        queue.clear()

    args = tuple(t.name for t in atom.terms)
    if atom.kind == CONCEPT_ATOM:
        chain = chains.get((args[0], concept(atom.predicate)))
        return chain.masks if chain is not None else []
    return list(role_pairs.get(atom.predicate, {}).get(args, ()))


def _rules_toward(rules: dict, goal: set) -> dict:
    """The Horn rules that can take part in deriving a goal concept, each
    with the goal concepts of its head; `goal` grows to every concept whose
    atoms can: the goal, and each body and other conjunct of a rule whose
    head holds one."""
    grew = True
    while grew:
        grew = False
        for body, fired in rules.items():
            if body not in goal and any(not head.isdisjoint(goal) for _, head in fired):
                goal.add(body)
                grew = True
    return {
        body: [
            (side, [h for h in head if h in goal])
            for side, head in fired
            if not head.isdisjoint(goal)
        ]
        for body, fired in rules.items()
        if body in goal
    }
