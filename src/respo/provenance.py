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
two to three times as long.  Each atom keeps its minimal sets in an
`_Antichain`, whose subsumption test is a few operations on whole
integers as wide as the facts the chain holds.  Only facts about
individuals whose atoms can reach the query atom's take part: those its
individual reaches through role facts of the program's
`exists R.A <= B` roles.  The work grows with the
number of supports, which can be exponential: counting them is #P-hard
once the TBox encodes reachability.

The module also holds the per-fact tally of supports given as masks,
which provenance and brute force share, and the ground atom that
Horn-extended TBoxes take.  `shapley` imports it with itself, while the
larger pipeline modules load only when a plan needs them; neither this
module nor `reasoner` imports the homomorphism search of `queries` or
the elimination engine of `elimination`.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .model import (
    CONCEPT_ATOM,
    Atom,
    CQ,
    Fact,
    FactCounts,
    InputError,
    Role,
    SupportHistogram,
    TBox,
    UCQ,
    UnsupportedTBoxError,
    as_ucq,
)
from .reasoner import saturate


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
        self._sat = sat = saturate(tbox)
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


# The width of a chain's first window: fields narrower than a few machine
# words save nothing, and a chain over the first this many facts never
# re-packs.
_FIRST_WINDOW = 64


class _Antichain:
    """Inclusion-minimal fact sets, as bit masks over the positions of
    `facts` facts, added in order of size, so that a set already here
    never holds a new one.

    A kept set of the new set's size lies inside it only if the two are
    equal: `same` holds the kept sets of the current size.  The smaller
    kept sets are tested all at once, on whole integers.  `window` has a
    bit for each of the stride - 1 facts from `low` on and covers every
    kept set; `packed` holds kept set k shifted up by k * stride, so that
    each set has a field of `stride` bits whose top bit is clear.
    `reps`, `full` and `tops` hold bit 0, the window and the top bit of
    each field of a set smaller than the current size.  Such a set lies
    inside a new set S exactly when its field of
    `packed & reps * (window & ~S)` is zero, and adding `full` sets a
    field's top bit exactly when the field is not zero (the "has a zero
    field" test of Lamport, "Multiple byte processing with full-word
    instructions", CACM 1975).  So a test works on integers of the kept
    sets times the window's width in bits, not times the number of
    facts: the window starts on the first `_FIRST_WINDOW` facts, and a
    kept set reaching outside it moves it over the facts the chain holds,
    at least doubling its width."""

    __slots__ = (
        "masks", "same", "size", "facts", "low", "stride", "window", "packed", "reps", "full",
        "tops",
    )

    def __init__(self, facts: int):
        self.facts = facts
        self.masks: list[int] = []
        self.same: set[int] = set()
        self.size = 0  # the size of the last kept set
        self.packed = self.reps = self.full = self.tops = self.low = 0
        width = min(facts, _FIRST_WINDOW)
        self.stride, self.window = width + 1, (1 << width) - 1

    def add(self, mask: int) -> bool:
        size = mask.bit_count()
        if size != self.size:
            self.size, self.same = size, set()
            self._fields(len(self.masks))
        lacking = self.packed & self.reps * (self.window & ~mask)
        if mask in self.same or (lacking + self.full) & self.tops != self.tops:
            return False
        if mask | self.window != self.window:
            self._repack(mask)
        self.packed |= mask << len(self.masks) * self.stride
        self.masks.append(mask)
        self.same.add(mask)
        return True

    def _fields(self, smaller: int) -> None:
        """Set `reps`, `full` and `tops` for the first `smaller` fields."""
        stride = self.stride
        # The sum of 1 << k * stride for k below `smaller`.
        self.reps = reps = ((1 << smaller * stride) - 1) // ((1 << stride) - 1)
        self.full = reps * self.window
        self.tops = reps << self.low + stride - 1

    def _repack(self, mask: int) -> None:
        """Move the window over the facts of the kept sets and the mask,
        at least doubling its width, so that a chain re-packs at most
        about log2(facts) times."""
        held = mask
        for kept in self.masks:
            held |= kept
        low = (held & -held).bit_length() - 1
        width = min(max(held.bit_length() - low, 2 * (self.stride - 1)), self.facts)
        self.low = low = min(low, self.facts - width)
        self.stride, self.window = width + 1, ((1 << width) - 1) << low
        self.packed = 0
        for k, kept in enumerate(self.masks):
            self.packed |= kept << k * self.stride
        self._fields(len(self.masks) - len(self.same))


def minimal_why_provenance(facts: Sequence[Fact], program: HornProgram, cap: int) -> list[int]:
    """The inclusion-minimal subsets of the facts from which the
    program's TBox entails its ground atom, each as a bit mask (bit i for
    facts[i]).

    The worklist of `reasoner.entailed_instance_data` in the PosBool
    semiring: each fact seeds {f} on every atom its `HornProgram.row`
    names, a Horn rule queues the union of a new set of its body with
    each set of the other conjunct's antichain or each predecessor's
    singleton, and every (individual, concept id) atom keeps an
    `_Antichain`.  Candidate sets wait in one queue per size and enter
    their atom in size order, so each set that enters is final and is
    joined once.  Role pairs keep the singletons of the facts that entail
    them: no Horn rule derives a role.  More than `cap` sets on one atom,
    or more than `cap` candidate sets per fact in the queues, raise
    `InputError`; the second bounds the joins of two antichains that are
    each under the cap.  Only the individuals that `_reached` finds get
    chains, and sets queued for any other are dropped, so atoms the query
    atom cannot depend on fill no chain.  Past `_FIRST_WINDOW` facts,
    only the facts that seed an atom and name such an individual take a
    bit, numbered individual by individual, so that the chains of atoms
    that one individual's facts derive get narrow windows, and the masks
    go back to the facts' positions at the end.  The facts must be
    consistent with the TBox.
    """
    rows = [program.row(f.predicate, len(f.args)) for f in facts]
    if not program.joins:  # a role atom: no Horn rule derives a role
        x, y = program.args
        return list({
            1 << i
            for i, (f, row) in enumerate(zip(facts, rows)) if not f.is_concept
            for rid, same in row[2] if rid == 0 and f.args == ((x, y) if same else (y, x))
        })
    reach = _reached(facts, rows, program.args[0])
    # Bit j stands for facts[positions[j]].  Within the first window the
    # numbering cannot narrow a field, so each fact keeps its position.
    renumbered = len(facts) > _FIRST_WINDOW
    positions = range(len(facts))
    if renumbered:
        positions = sorted(
            (i for i in positions
             if any(rows[i]) and (facts[i].args[0] in reach or facts[i].args[-1] in reach)),
            key=lambda i: facts[i].args,
        )
    bits = [0] * len(facts)
    for j, i in enumerate(positions):
        bits[i] = 1 << j
    budget, queued = cap * len(facts), 0
    seeds: list = []
    # exists R.A <= B under A(a) joins with the R-predecessors of a, each
    # with the bits of the facts that make it one.  They are collected as a
    # set of 1 << i for facts[i] and, once renumbered, listed in the set's
    # order, so that the masks come out in the same order either way.
    predecessors: dict[tuple[int, str], dict[str, set[int] | list[int]]] = {}
    for i, (f, row, single) in enumerate(zip(facts, rows, bits)):
        if not single:
            continue
        seeds.extend((x, ids, single) for x, ids in zip(f.args, row))  # each argument's ids
        if f.is_concept:
            continue
        a, b = f.args
        for rid, same in row[2]:
            key, partner = ((rid, b), a) if same else ((rid, a), b)
            predecessors.setdefault(key, {}).setdefault(partner, set()).add(1 << i)
    if renumbered:
        for partners in predecessors.values():
            for x, found in partners.items():
                partners[x] = [bits[m.bit_length() - 1] for m in found]
    pending: list[list] = [[], seeds] + [[] for _ in range(len(positions) - 1)]
    joins, steps = program.joins, program.steps
    # A reached individual's chain per concept id; the others derive nothing.
    chains: dict[str, list[_Antichain | None]] = {x: [None] * len(joins) for x in reach}
    for queue in pending:
        for a, heads, mask in queue:  # grows while it is read
            slots = chains.get(a)
            if slots is None:
                continue
            for c in heads:
                chain = slots[c]
                if chain is None:
                    chain = slots[c] = _Antichain(len(positions))
                if not chain.add(mask):
                    continue
                if len(chain.masks) > cap:
                    raise InputError(
                        f"provenance scoring is capped at {cap} minimal supports per derived atom"
                    )
                for side, head in joins[c]:
                    other = slots[side]
                    if other is None:
                        continue
                    queued += len(other.masks) * len(head)
                    if queued > budget:
                        raise _over_budget(budget, facts)
                    for m in other.masks:
                        union = mask | m
                        pending[union.bit_count()].append((a, head, union))
                for rid, head in steps[c]:
                    for x, masks in predecessors.get((rid, a), {}).items():
                        queued += len(masks) * len(head)
                        if queued > budget:
                            raise _over_budget(budget, facts)
                        for m in masks:
                            union = mask | m
                            pending[union.bit_count()].append((x, head, union))
        queue.clear()

    goal = chains[program.args[0]][0]
    masks = goal.masks if goal is not None else []
    if not renumbered:
        return masks
    spread = []
    for mask in masks:
        out = 0
        while mask:
            low = mask & -mask
            out |= 1 << positions[low.bit_length() - 1]
            mask ^= low
        spread.append(out)
    return spread


def _reached(facts: Sequence[Fact], rows: list[tuple], goal: str) -> set[str]:
    """The individuals whose atoms can take part in deriving an atom of
    `goal`: those the goal reaches over role facts of the program's steps,
    each from an individual to the one whose atoms derive its own (b from
    a when the role's predecessor of b is a).  A rule derives an atom of
    an individual from atoms of that individual and, through a step, of
    such a neighbour only, so facts about no individual found here
    cannot take part in a support of the goal's atoms."""
    after: dict[str, list[str]] = {}
    for f, row in zip(facts, rows):
        if not f.is_concept:
            a, b = f.args
            for _, same in row[2]:
                after.setdefault(a if same else b, []).append(b if same else a)
    found, frontier = {goal}, [goal]
    while frontier:
        for y in after.get(frontier.pop(), ()):
            if y not in found:
                found.add(y)
                frontier.append(y)
    return found


def _over_budget(budget: int, facts: Sequence[Fact]) -> InputError:
    return InputError(
        f"provenance scoring is capped at {budget} candidate sets on {len(facts)} facts"
    )
