"""The canonical model of a DL-Lite_R KB, in slices, and (U)CQ
entailment over it.

`canonical_slice` builds the canonical model up to a depth as a
`queries.HomTarget` from the entailed instance data that `reasoner`
computes, and (U)CQ entailment asks the homomorphism search whether a
query maps into it; `query_depth` bounds the depth a query needs.  Only
the brute-force evaluator of a DL-Lite_R KB with positive inclusions
imports this module: the interaction-freeness check reads one-atom
matches off the TBox closure, and Horn reasoning and provenance never
build the model, so none of them loads it.
"""

from __future__ import annotations

import operator

from .model import ABox, CQ, InconsistentKBError, Role, TBox, UCQ, UnsupportedTBoxError
from .queries import HomTarget, hom_exists
from .reasoner import entailed_instance_data, is_consistent, saturate

# A canonical-model element is a word: (root constant, chain of roles).
Word = tuple[str, tuple[Role, ...]]


def canonical_slice(abox: ABox, tbox: TBox, depth: int) -> HomTarget:
    """The canonical model of (abox, tbox) up to words of length `depth`,
    as a homomorphism target.  The KB must be consistent; callers check
    that first.

    Elements are words (a, (R1, ..., Rn)).  The named ones, (a, ()), carry
    the entailed concept and role instance data of the individuals.  The
    anonymous ones follow the role-chain construction with its two guards:
    no named witness for the first step, no immediate rollback later.
    Each element enters `tuples` with its concepts and its edge to its
    parent as it is built.  `image` sends an individual's name to its
    named element, and disequalities require distinct elements.
    """
    if tbox.horn_extended:
        raise UnsupportedTBoxError("canonical model construction requires a pure DL-Lite_R TBox")
    sat = saturate(tbox)
    types, role_pairs = entailed_instance_data(abox, tbox)

    individuals = sorted(abox.individuals)
    role_names = sorted(tbox.role_names() | {f.predicate for f in abox if not f.is_concept})
    all_roles = [Role(n, inv) for n in role_names for inv in (False, True)]

    tuples: dict[tuple[str, int], set[tuple[Word, ...]]] = {}

    def add(name: str, *elements: Word):
        tuples.setdefault((name, len(elements)), set()).add(elements)

    witnessed: dict[str, set[Role]] = {a: set() for a in individuals}
    for a in individuals:
        for b in types[a]:
            if isinstance(b, str):
                add(b, (a, ()))
    for name, pairs in role_pairs.items():
        for (a, b) in pairs:
            add(name, (a, ()), (b, ()))
            witnessed[a].add(Role(name))
            witnessed[b].add(Role(name, inverted=True))

    def successor(parent: Word, r: Role) -> Word:
        """The anonymous element reached from parent by r, with its
        concepts and its edges to parent."""
        w = (parent[0], parent[1] + (r,))
        for b in sat.concept_sups(r.inverse()):
            if isinstance(b, str):
                add(b, w)
        for s in sat.role_sups(r):
            add(s.name, *((w, parent) if s.inverted else (parent, w)))
        return w

    frontier = [
        successor((a, ()), r)
        for a in individuals
        for r in all_roles
        if depth >= 1 and r in types[a] and r not in witnessed[a]
    ]
    for _ in range(depth - 1):
        frontier = [
            successor(w, r)
            for w in frontier
            for r in all_roles
            if r != w[1][-1].inverse()
            and r in sat.concept_sups(w[1][-1].inverse())
        ]

    named = frozenset(individuals)
    return HomTarget(tuples, lambda name: (name, ()) if name in named else None, operator.ne)


# ---------------------------------------------------------------------------
# CQ entailment over slices
# ---------------------------------------------------------------------------

def query_depth(cq: CQ, tbox: TBox) -> int:
    """A canonical-model depth at which every match of cq has a copy: one
    level per generating role, then |vars(q)| + 1.  An anonymous element's
    subtree and concepts depend only on the role leading to it, so a match
    whose topmost element lies deeper than the number of generating roles
    repeats a role on the way down and can be moved up to the first
    occurrence."""
    return len(cq.variables()) + 1 + len(saturate(tbox).generating_roles)


def entails_ucq(abox: ABox, tbox: TBox, ucq: UCQ) -> bool:
    """(A, T) |= q via a homomorphism of some disjunct into the canonical
    model truncated at `query_depth`, taking the largest depth over the
    disjuncts so that one slice serves them all."""
    if not is_consistent(abox, tbox):
        raise InconsistentKBError("CQ entailment over an inconsistent KB")
    depth = max(query_depth(d, tbox) for d in ucq.disjuncts)
    target = canonical_slice(abox, tbox, depth)
    return any(hom_exists(d, target) for d in ucq.disjuncts)
