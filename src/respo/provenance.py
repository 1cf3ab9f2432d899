"""Minimal supports of a ground atom from its minimal why-provenance.

A Horn-extended TBox that respo accepts has no existential right-hand
side, so with the ABox it is a datalog program, and the minimal supports
of a ground atom are its minimal why-provenance: the inclusion-minimal
fact sets that derive it (Green, Karvounarakis and Tannen, "Provenance
semirings", PODS 2007).  `HornProgram` compiles, once per TBox and
query atom, the part of the rule table that `reasoner` builds for
Boolean entailment (`SaturatedTBox.horn_rules` and `fact_row`) that can
derive the atom, over small integer concept ids.  Both are keyed by
concept name, which the program numbers directly.  The fixpoint then
runs on bit masks over the facts' positions and keeps its own worklist:
run through a worklist generic in the semiring, Boolean entailment took
two to three times as long.  The work grows with the number of supports,
which can be exponential: counting them is #P-hard once the TBox encodes
reachability.

The module also holds the per-fact tally of supports given as masks,
which provenance and brute force share, and the ground atom that
Horn-extended TBoxes take.  `shapley` imports it with itself, while the
larger pipeline modules load only when a plan needs them.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .model import (
    CONCEPT_ATOM,
    Atom,
    CQ,
    Fact,
    InputError,
    Role,
    SupportHistogram,
    TBox,
    UCQ,
    UnsupportedTBoxError,
    as_ucq,
)
from .reasoner import _closure

# Each fact's non-zero per-size counts of the minimal supports containing it.
FactCounts = dict[Fact, dict[int, int]]


def tally_masks(
    facts: Sequence[Fact], masks: Iterable[int]
) -> tuple[SupportHistogram, FactCounts]:
    """The histogram of the supports, each a bit mask over the facts'
    positions, and each fact's per-size counts of those containing it,
    in one pass over the masks."""
    sizes: dict[int, int] = {}
    per_fact: list[dict[int, int]] = [{} for _ in facts]
    for mask in masks:
        k = mask.bit_count()
        sizes[k] = sizes.get(k, 0) + 1
        while mask:
            low = mask & -mask
            counts = per_fact[low.bit_length() - 1]
            counts[k] = counts.get(k, 0) + 1
            mask ^= low
    return SupportHistogram(sizes), {f: dict(sorted(c.items())) for f, c in zip(facts, per_fact)}


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


class HornProgram:
    """The Horn rules that can take part in deriving a ground atom, over
    integer ids: concept 0 is the atom's own, and the others are every
    concept whose atoms can derive it, numbered as one reverse walk over
    the rules reaches them.  Concept c fires `joins[c]`, the (other
    conjunct, head ids) of each A & B <= C, and `steps[c]`, the (role id,
    head ids) of each exists R.A <= B; a role atom's role has id 0."""

    __slots__ = ("joins", "steps", "args", "_sat", "_ids", "_roles", "_rows")

    def __init__(self, tbox: TBox, atom: Atom):
        self._sat = sat = _closure(tbox)
        rules, _ = sat.horn_rules
        derived_by: dict[str, list[str]] = {}  # a head -> the bodies of its rules
        for body, fired in rules.items():
            for _, head in fired:
                for h in head:
                    derived_by.setdefault(h, []).append(body)
        concept_atom = atom.kind == CONCEPT_ATOM
        order = [atom.predicate] if concept_atom else []
        self._ids = ids = {name: i for i, name in enumerate(order)}
        for name in order:  # grows while it is read
            for body in derived_by.get(name, ()):
                if body not in ids:
                    ids[body] = len(order)
                    order.append(body)
        self._roles = roles = {} if concept_atom else {(atom.predicate, False): 0}
        self.joins: list[list[tuple[int, tuple[int, ...]]]] = [[] for _ in order]
        self.steps: list[list[tuple[int, tuple[int, ...]]]] = [[] for _ in order]
        for c, name in enumerate(order):
            for side, head in rules.get(name, ()):
                heads = tuple(ids[h] for h in head if h in ids)
                if heads and isinstance(side, Role):
                    rid = roles.setdefault((side.name, side.inverted), len(roles))
                    self.steps[c].append((rid, heads))
                elif heads:
                    self.joins[c].append((ids[side], heads))
        self.args = tuple(t.name for t in atom.terms)
        self._rows: dict[tuple[str, int], tuple] = {}

    def row(self, predicate: str, arity: int) -> tuple:
        """What a fact of the predicate seeds, built once per predicate
        from `SaturatedTBox.fact_row`: for A(a) the ids of a's concepts;
        for r(a, b) those of a, those of b, and a (role id, same) pair
        per role of `steps` above r, where `same` says that the role's
        predecessor of b is a (else the one of a is b)."""
        row = self._rows.get((predicate, arity))
        if row is None:
            found, ids = self._sat.fact_row(predicate, arity), self._ids
            concepts = (found,) if arity == 1 else found[:2]
            row = tuple(tuple(ids[c] for c in side if c in ids) for side in concepts)
            if arity == 2:
                row += (tuple(
                    (rid, inverted == role_inverted)
                    for name, inverted in found[2]
                    for (role, role_inverted), rid in self._roles.items()
                    if role == name
                ),)
            self._rows[predicate, arity] = row
        return row


class _Antichain:
    """Inclusion-minimal fact sets, as bit masks over the facts' positions,
    added in order of size, so that a set already here never holds a new
    one.  The column of a fact has bit k set when set k holds the fact: set
    k lies inside a new set exactly when it misses the columns of every
    fact outside the new set, so one OR over the columns of the facts
    that the chain holds and the new set lacks decides subsumption."""

    __slots__ = ("masks", "columns", "held")

    def __init__(self):
        self.masks: list[int] = []
        self.columns: dict[int, int] = {}  # a fact's bit -> its column
        self.held = 0  # the union of the masks

    def add(self, mask: int) -> bool:
        columns, outside, rest = self.columns, 0, self.held & ~mask
        while rest:
            fact = rest & -rest
            outside |= columns[fact]
            rest ^= fact
        k = len(self.masks)
        if outside != (1 << k) - 1:
            return False
        self.masks.append(mask)
        self.held |= mask
        while mask:
            fact = mask & -mask
            columns[fact] = columns.get(fact, 0) | 1 << k
            mask ^= fact
        return True


def minimal_why_provenance(facts: Sequence[Fact], program: HornProgram, cap: int) -> list[int]:
    """The inclusion-minimal subsets of the facts from which the
    program's TBox entails its ground atom, each as a bit mask (bit i for
    facts[i]).

    The worklist of `reasoner._entailed_instance_data` in the PosBool
    semiring: each fact seeds {f} on every atom its `HornProgram.row`
    names, a Horn rule joins a new set of its body with each set of the
    other conjunct or of the role pair, and every (individual, concept
    id) atom keeps an `_Antichain`.  Candidate sets wait in one queue per
    size and enter their atom in size order, so each set that enters is
    final and is joined once.  Role pairs keep the singletons of the
    facts that entail them: no Horn rule derives a role.  More than `cap`
    sets on one atom, or more than `cap` candidate sets per fact in the
    queues, raise `InputError`; the second bounds the joins of two
    antichains that are each under the cap.  The facts must be
    consistent with the TBox.
    """
    if not facts:
        return []
    budget, queued = cap * len(facts), 0
    pending: list[list] = [[] for _ in range(len(facts) + 1)]
    seeds = pending[1]
    # exists R.A <= B under A(a) joins with the R-predecessors of a.
    predecessors: dict[tuple[int, str], dict[str, set[int]]] = {}
    for i, f in enumerate(facts):
        row, single = program.row(f.predicate, len(f.args)), 1 << i
        seeds.extend((x, ids, single) for x, ids in zip(f.args, row))  # each argument's ids
        if f.is_concept:
            continue
        a, b = f.args
        for rid, same in row[2]:
            key, partner = ((rid, b), a) if same else ((rid, a), b)
            predecessors.setdefault(key, {}).setdefault(partner, set()).add(single)
    if not program.joins:  # a role atom: no Horn rule derives a role
        x, y = program.args
        return list(predecessors.get((0, y), {}).get(x, ()))

    joins, steps = program.joins, program.steps
    chains: dict[str, list[_Antichain | None]] = {}  # an individual's chain per concept id
    for queue in pending:
        for a, heads, mask in queue:  # grows while it is read
            slots = chains.get(a)
            if slots is None:
                slots = chains[a] = [None] * len(joins)
            for c in heads:
                chain = slots[c]
                if chain is None:
                    chain = slots[c] = _Antichain()
                if not chain.add(mask):
                    continue
                if len(chain.masks) > cap:
                    raise InputError(
                        f"provenance scoring is capped at {cap} minimal supports per derived atom"
                    )
                fired = [
                    (a, other.masks, head)
                    for side, head in joins[c]
                    if (other := slots[side]) is not None
                ]
                for rid, head in steps[c]:
                    fired.extend(
                        (x, masks, head) for x, masks in predecessors.get((rid, a), {}).items()
                    )
                for x, masks, head in fired:
                    queued += len(masks) * len(head)
                    if queued > budget:
                        raise InputError(
                            f"provenance scoring is capped at {budget} candidate sets"
                            f" on {len(facts)} facts"
                        )
                    for m in masks:
                        union = mask | m
                        pending[union.bit_count()].append((x, head, union))
        queue.clear()

    slots = chains.get(program.args[0])
    return slots[0].masks if slots is not None and slots[0] is not None else []
