"""UCQ rewriting for DL-Lite_R ontology-mediated queries.

The rewriting is produced by exhaustive backward application of the
(saturated) positive inclusions to query atoms, interleaved with pairwise
atom unification, to a fixpoint over canonical query forms:

  * a concept atom B(t) may be replaced by B'(t) for any entailed B' <= B;
  * a role atom whose witness variable occurs nowhere else may be replaced
    by any entailed B <= exists R, instantiated at the anchor term;
  * role atoms rewrite along entailed role inclusions (both orientations);
  * unifying two atoms of a disjunct can unblock the witness rule.

Each rule reads the keys below its target straight off the TBox closure
(`SaturatedTBox.concept_subs` and `role_subs`), so no step scans the
closure's maps.  The result is sorted by canonical form, so it does not
depend on the order those lookups iterate in.

Soundness and completeness are enforced by the randomized equivalence
suite in `tests/test_rewriter.py`, against entailment over the
canonical-model tree (`tests/oracles.py`), not argued here.  Brute-force
scoring evaluates the rewriting too, so that suite is what checks it.
"""

from __future__ import annotations

from itertools import combinations

from .model import (
    Atom,
    CONCEPT_ATOM,
    CQ,
    ConceptKey,
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
    canonicalize,
    fresh_var,
    hom_minimal,
    substitute,
    unify_terms,
)
from .reasoner import saturate


class RewritingDivergedError(RespoError):
    """The fixpoint exceeded its iteration cap (should not happen for
    DL-Lite_R inputs)."""


def _atomize(key: ConceptKey, anchor: Term, taken: set[str]) -> Atom:
    """The basic concept keyed `key` as an atom at the anchor term;
    exists R gets a fresh witness."""
    if isinstance(key, str):
        return concept_atom(key, anchor)
    w = var(fresh_var(taken))
    if key.inverted:
        return role_atom(key.name, w, anchor)
    return role_atom(key.name, anchor, w)


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


def _applications(cq: CQ, sat) -> list[CQ]:
    taken = set(cq.variables())
    results: list[CQ] = []

    def replaced(old: Atom, new: Atom) -> CQ:
        atoms = [a for a in cq.atoms if a != old]
        atoms.append(new)
        return CQ(tuple(atoms))

    for atom in cq.relational_atoms():
        if atom.kind == CONCEPT_ATOM:
            target = atom.predicate
            for sub in sat.concept_subs(target):
                if sub != target:
                    results.append(replaced(atom, _atomize(sub, atom.terms[0], taken)))
            continue

        # Role inclusions, in both orientations of the target atom (an
        # entailed r- <= r legitimately flips the atom).
        t1, t2 = atom.terms
        target_role = Role(atom.predicate)
        for sub in sat.role_subs(target_role):
            new = role_atom(sub.name, t2, t1) if sub.inverted else role_atom(sub.name, t1, t2)
            if new != atom:
                results.append(replaced(atom, new))

        # Witness rule: a role atom with a droppable variable stands for
        # exists R at the other term.
        for pos in _unshared_positions(cq, atom):
            anchor = atom.terms[1 - pos]
            exists_role = Role(atom.predicate, inverted=(pos == 0))
            for sub in sat.concept_subs(exists_role):
                if sub != exists_role:
                    results.append(replaced(atom, _atomize(sub, anchor, taken)))
    return results


def _unifications(cq: CQ) -> list[CQ]:
    out = []
    for a, b in combinations(cq.relational_atoms(), 2):
        same = (a.kind, a.predicate) == (b.kind, b.predicate)
        mgu = same and unify_terms(zip(a.terms, b.terms))
        if not mgu:
            continue
        try:
            out.append(substitute(cq, mgu))
        except UnsatisfiableQuery:
            continue
    return out


def rewrite(omq: OMQ) -> UCQ:
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

    size = len(tbox.axioms) + max(len(d.atoms) for d in omq.query.disjuncts)
    max_rounds = max(16, size * size)

    seen: dict[tuple, CQ] = {}
    frontier: list[CQ] = []
    for d in omq.query.disjuncts:
        key, c, _ = canonicalize(d)
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
            for q in _applications(cq, sat) + _unifications(cq):
                key, q, _ = canonicalize(q)
                if key not in seen:
                    seen[key] = q
                    new_frontier.append(q)
        frontier = new_frontier

    # A disjunct that another disjunct maps into is subsumed by it.
    return UCQ(tuple(hom_minimal(seen)))
