"""UCQ rewriting for DL-Lite_R ontology-mediated queries.

The rewriting is produced by exhaustive backward application of the
(saturated) positive inclusions to query atoms, interleaved with pairwise
atom unification, to a fixpoint over canonical query forms:

  * a concept atom B(t) may be replaced by B'(t) for any entailed B' <= B;
  * a role atom whose witness variable occurs nowhere else may be replaced
    by any entailed B <= exists R, instantiated at the anchor term;
  * role atoms rewrite along entailed role inclusions (both orientations);
  * unifying two atoms of a disjunct can unblock the witness rule.

Soundness and completeness are enforced by the randomized equivalence
suite against canonical-model entailment, not argued here.
"""

from __future__ import annotations

from dataclasses import dataclass

from .model import (
    Atom,
    BasicConcept,
    CONCEPT_ATOM,
    CQ,
    OMQ,
    RespoError,
    Role,
    Term,
    UCQ,
    UnsupportedTBoxError,
    concept_atom,
    role_atom,
    var,
)
from .queries import (
    UnsatisfiableQuery,
    canonical_form,
    canonicalize,
    fresh_var,
    hom_minimal,
    substitute,
    unify_atoms,
)
from .reasoner import saturate


class RewritingDivergedError(RespoError):
    """The fixpoint exceeded its iteration cap (should not happen for
    DL-Lite_R inputs)."""


@dataclass(frozen=True)
class Rewriting:
    source: OMQ
    result: UCQ
    steps: tuple[tuple[str, str], ...]  # (disjunct repr, applied rule) trace


def _atomize(b: BasicConcept, anchor: Term, taken: set[str]) -> Atom:
    """B as an atom at the anchor term; exists-roles get a fresh witness."""
    if b.is_name:
        return concept_atom(b.concept_name, anchor)
    w = var(fresh_var(taken))
    r = b.role
    if r.inverted:
        return role_atom(r.name, w, anchor)
    return role_atom(r.name, anchor, w)


def _unshared_positions(cq: CQ, atom: Atom) -> list[int]:
    """Positions of atom whose variable occurs exactly once in the whole
    disjunct (including disequalities), i.e. droppable witness variables."""
    counts: dict[str, int] = {}
    for a in cq.atoms:
        for t in a.terms:
            if t.is_var:
                counts[t.name] = counts.get(t.name, 0) + 1
    out = []
    for i, t in enumerate(atom.terms):
        if t.is_var and counts.get(t.name, 0) == 1:
            out.append(i)
    return out


def _applications(cq: CQ, sat) -> list[tuple[CQ, str]]:
    taken = set(cq.variables())
    results: list[tuple[CQ, str]] = []

    def replaced(old: Atom, new: Atom) -> CQ:
        atoms = [a for a in cq.atoms if a != old]
        atoms.append(new)
        return CQ(tuple(atoms))

    for atom in cq.relational_atoms():
        if atom.kind == CONCEPT_ATOM:
            target = BasicConcept(concept_name=atom.predicate)
            for sub, sups in sat.concept_subs.items():
                if target in sups and sub != target:
                    results.append(
                        (replaced(atom, _atomize(sub, atom.terms[0], taken)),
                         f"{sub!r} <= {atom.predicate}")
                    )
            continue

        # Role inclusions, in both orientations of the target atom (an
        # entailed r- <= r legitimately flips the atom).
        t1, t2 = atom.terms
        target_role = Role(atom.predicate)
        for sub, sups in sat.role_subs.items():
            if target_role in sups:
                new = (
                    role_atom(sub.name, t2, t1)
                    if sub.inverted
                    else role_atom(sub.name, t1, t2)
                )
                if new != atom:
                    results.append((replaced(atom, new), f"{sub!r} <= {target_role!r}"))

        # Witness rule: a role atom with a droppable variable stands for
        # exists R at the other term.
        for pos in _unshared_positions(cq, atom):
            anchor = atom.terms[1 - pos]
            exists_role = Role(atom.predicate, inverted=(pos == 0))
            exists_concept = BasicConcept(role=exists_role)
            for sub, sups in sat.concept_subs.items():
                if exists_concept in sups and sub != exists_concept:
                    results.append(
                        (replaced(atom, _atomize(sub, anchor, taken)),
                         f"{sub!r} <= exists {exists_role!r}")
                    )
    return results


def _unifications(cq: CQ) -> list[CQ]:
    rel = cq.relational_atoms()
    out = []
    for i in range(len(rel)):
        for j in range(i + 1, len(rel)):
            mgu = unify_atoms(rel[i], rel[j])
            if mgu is None or not mgu:
                continue
            try:
                out.append(substitute(cq, mgu))
            except UnsatisfiableQuery:
                continue
    return out


def rewrite(omq: OMQ, max_rounds: int | None = None) -> Rewriting:
    """Rewrite (T, q) into a UCQ over the ABox signature.

    For every ABox A consistent with T and every subset A' of A:
    A' |= result iff A' |= (T, q).
    """
    tbox = omq.tbox
    if tbox.horn_extended:
        raise UnsupportedTBoxError(
            "Horn-extended TBoxes admit no finite UCQ rewriting in general"
        )
    has_positive = any(not ax.negated for ax in tbox.axioms)
    has_neq = any(d.neq_atoms() for d in omq.query.disjuncts)
    if has_positive and has_neq:
        # An anonymous witness satisfies a disequality that a later-added
        # named witness can violate, so entailment of such queries is not
        # even monotone; no UCQ rewriting can exist.
        raise UnsupportedTBoxError(
            "disequality queries are only rewritable over TBoxes without "
            "positive inclusions"
        )
    sat = saturate(tbox)

    if max_rounds is None:
        size = len(tbox.axioms) + max(len(d.atoms) for d in omq.query.disjuncts)
        max_rounds = max(16, size * size)

    seen: dict[tuple, CQ] = {}
    steps: list[tuple[str, str]] = []
    frontier: list[CQ] = []
    for d in omq.query.disjuncts:
        c = canonicalize(d)
        key = canonical_form(c)
        if key not in seen:
            seen[key] = c
            frontier.append(c)

    rounds = 0
    while frontier:
        rounds += 1
        if rounds > max_rounds:
            raise RewritingDivergedError(
                f"rewriting did not converge within {max_rounds} rounds"
            )
        new_frontier: list[CQ] = []
        for cq in frontier:
            produced = [(q, rule) for (q, rule) in _applications(cq, sat)]
            produced.extend((q, "unify") for q in _unifications(cq))
            for (q, rule) in produced:
                q = canonicalize(q)
                key = canonical_form(q)
                if key not in seen:
                    seen[key] = q
                    new_frontier.append(q)
                    steps.append((repr(q), rule))
        frontier = new_frontier

    # A disjunct that another disjunct maps into is subsumed by it.
    disjuncts = hom_minimal(seen.values())
    return Rewriting(source=omq, result=UCQ(tuple(disjuncts)), steps=tuple(steps))
