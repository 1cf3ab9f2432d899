"""Reasoning over DL-Lite_R TBoxes and their Horn extension.

Everything here reads one object, the closure of the TBox's DL-Lite
inclusions, which `saturate` builds once per TBox and which holds every
basic concept by one key (`ConceptKey`): a concept name, or the role R
for exists R.  The rewriter, the canonical model, the interaction-free
check and provenance read it, so no part builds a `BasicConcept`.

One engine computes the entailed instance data of the named individuals
for both TBox flavours: a pass of the facts through the closure, then,
for a Horn-extended TBox, its A & B <= C and exists R.A <= B axioms
fired to a fixpoint from a rule table keyed by concept name and built
once per TBox.  Consistency and ground-atom entailment read that data,
and `provenance` fires the same rule table over sets of facts.

The canonical model of a DL-Lite_R KB is walked here too, by
`canonical_model`, from that data and one per-role successor rule
(`SaturatedTBox.successor`).  `canonical` gathers its tuples up to a
depth into a homomorphism target for (U)CQ entailment, and the
interaction-free check reads the folded walk of one fact.  This module
imports no homomorphism search, so Horn scoring loads none.
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterable

from .model import (
    CONCEPT_ATOM,
    CONCEPT_INCLUSION,
    ROLE_INCLUSION,
    Atom,
    BasicConcept,
    ConjunctionAxiom,
    Fact,
    InconsistentKBError,
    Role,
    TBox,
    UnsupportedTBoxError,
)

# A basic concept by key: a concept name, or the role R for exists R.
ConceptKey = str | Role

# A canonical-model element is a word: (root individual, chain of roles).
Word = tuple[str, tuple[Role, ...]]


def _key(b: BasicConcept) -> ConceptKey:
    return b.concept_name if b.is_name else b.role


# ---------------------------------------------------------------------------
# Saturation
# ---------------------------------------------------------------------------

class SaturatedTBox:
    """Closure of a TBox's DL-Lite_R inclusions under inclusion derivation,
    which leaves out its Horn axioms.  `saturate` builds it once per TBox.

    Every basic concept is held by its key (`ConceptKey`): concept_subs
    maps a key to the keys above it, role_subs a role to the roles above
    it.  Both are reflexive-transitive; role inclusions are lifted to
    their exists-concepts; negative inclusions are closed under
    contraposition through the positive closure, and an empty role (R
    disjoint with itself) empties both of its exists-concepts.  The
    closure of each fact predicate and the Horn axioms, keyed for firing,
    are looked up here too, so they are built once per TBox.
    """

    def __init__(self, tbox: TBox):
        self.tbox = tbox
        self._rows: dict[tuple[str, int], object] = {}
        self._successors: dict[Role, tuple] = {}

        roles: set[Role] = set()
        concepts: set[ConceptKey] = set()
        for ax in tbox.axioms:
            for side in (ax.lhs, ax.rhs):
                key = side if ax.kind == ROLE_INCLUSION else _key(side)
                (concepts if isinstance(key, str) else roles).add(key)
        roles |= {r.inverse() for r in roles}
        concepts |= roles

        # Positive role closure: axiom edges plus their inverse
        # counterparts, reflexive-transitive.
        role_edges: dict[Role, set[Role]] = {r: {r} for r in roles}
        for ax in tbox.axioms:
            if ax.kind == ROLE_INCLUSION and not ax.negated:
                role_edges[ax.lhs].add(ax.rhs)
                role_edges[ax.lhs.inverse()].add(ax.rhs.inverse())
        _transitive_close(role_edges)

        # Positive concept closure: concept-inclusion edges plus the lift
        # of the role closure to exists-concepts.
        concept_edges: dict[ConceptKey, set[ConceptKey]] = {c: {c} for c in concepts}
        for ax in tbox.axioms:
            if ax.kind == CONCEPT_INCLUSION and not ax.negated:
                concept_edges[_key(ax.lhs)].add(_key(ax.rhs))
        for r, sups in role_edges.items():
            concept_edges[r] |= sups
        _transitive_close(concept_edges)

        # Negative closure.  B <= !C is symmetric (disjointness) and
        # composes with the positive closures on both sides; an entailed
        # R <= !R forces exists R and exists R- to be empty, which feeds
        # back into the concept-level disjointness.
        neg_concepts: set[tuple[ConceptKey, ConceptKey]] = set()
        neg_roles: set[tuple[Role, Role]] = set()
        for ax in tbox.axioms:
            if not ax.negated:
                continue
            if ax.kind == CONCEPT_INCLUSION:
                neg_concepts.add((_key(ax.lhs), _key(ax.rhs)))
            else:
                neg_roles.add((ax.lhs, ax.rhs))
                neg_roles.add((ax.lhs.inverse(), ax.rhs.inverse()))

        subs_of_concept: dict[ConceptKey, set[ConceptKey]] = {c: set() for c in concepts}
        for sub, sups in concept_edges.items():
            for sup in sups:
                subs_of_concept.setdefault(sup, set()).add(sub)
        subs_of_role: dict[Role, set[Role]] = {r: set() for r in roles}
        for sub, sups in role_edges.items():
            for sup in sups:
                subs_of_role.setdefault(sup, set()).add(sub)

        changed = True
        while changed:
            changed = False
            new_nc = set()
            for (x, y) in neg_concepts:
                for x2 in subs_of_concept.get(x, (x,)):
                    for y2 in subs_of_concept.get(y, (y,)):
                        new_nc.add((x2, y2))
                        new_nc.add((y2, x2))
            if not new_nc <= neg_concepts:
                neg_concepts |= new_nc
                changed = True
            new_nr = set()
            for (r, s) in neg_roles:
                for r2 in subs_of_role.get(r, (r,)):
                    for s2 in subs_of_role.get(s, (s,)):
                        new_nr.add((r2, s2))
                        new_nr.add((s2, r2))
            if not new_nr <= neg_roles:
                neg_roles |= new_nr
                changed = True
            # Empty-role propagation, both directions: R <= !R empties
            # exists R and exists R-, whose keys are R and R-.
            for r in roles:
                if (r, r) in neg_roles:
                    for c in (r, r.inverse()):
                        if (c, c) not in neg_concepts:
                            neg_concepts.add((c, c))
                            changed = True
            for r in roles:
                for c in (r, r.inverse()):
                    if (c, c) in neg_concepts and (r, r) not in neg_roles:
                        neg_roles.add((r, r))
                        changed = True

        self.concept_subs = {c: frozenset(s) for c, s in concept_edges.items()}
        self.role_subs = {r: frozenset(s) for r, s in role_edges.items()}
        self.disjoint_concepts = frozenset(neg_concepts)
        self.disjoint_roles = frozenset(neg_roles)

    def concept_sups(self, key: ConceptKey) -> frozenset[ConceptKey]:
        """The keys of the basic concepts above the one keyed `key`."""
        return self.concept_subs.get(key) or frozenset((key,))

    def role_sups(self, r: Role) -> frozenset[Role]:
        return self.role_subs.get(r, frozenset((r,)))

    @cached_property
    def generating_roles(self) -> frozenset[Role]:
        """The roles that can lead to an anonymous element of the canonical
        model: every R with exists R entailed by the exists-concept on the
        right-hand side of a positive concept inclusion, and the child
        roles (`successor`) of each of them."""
        found = {
            sup
            for ax in self.tbox.axioms
            if ax.kind == CONCEPT_INCLUSION and not ax.negated and not ax.rhs.is_name
            for sup in self.concept_sups(ax.rhs.role)
            if not isinstance(sup, str)
        }
        frontier = list(found)
        while frontier:
            for child in self.successor(frontier.pop())[2]:
                if child not in found:
                    found.add(child)
                    frontier.append(child)
        return frozenset(found)

    def successor(self, r: Role) -> tuple[tuple[str, ...], tuple, tuple[Role, ...]]:
        """What an anonymous element reached by r has, looked up once per
        role: the concept names above exists r-; (name, inverted) of every
        role above r, its edges from its parent; and its child roles, the
        roles above exists r- but r- itself, since the element already has
        its parent as an r--successor."""
        found = self._successors.get(r)
        if found is None:
            below = self.concept_sups(r.inverse())
            found = (
                tuple(key for key in below if isinstance(key, str)),
                tuple((s.name, s.inverted) for s in self.role_sups(r)),
                tuple(key for key in below if not isinstance(key, str) and key != r.inverse()),
            )
            self._successors[r] = found
        return found

    def fact_row(self, predicate: str, arity: int):
        """What a fact entails, looked up once per predicate: for A(a) the
        keys of a's basic concepts, for r(a, b) those of a, those of b,
        and (name, inverted) of every role above r."""
        row = self._rows.get((predicate, arity))
        if row is None:
            if arity == 1:
                row = self.concept_sups(predicate)
            else:
                r = Role(predicate)
                sups = tuple((s.name, s.inverted) for s in self.role_sups(r))
                row = self.concept_sups(r), self.concept_sups(r.inverse()), sups
            self._rows[predicate, arity] = row
        return row

    @cached_property
    def horn_rules(self) -> tuple[dict[str, tuple], frozenset[str]]:
        """The Horn axioms keyed by each concept name that fires them, with
        the closure of the axiom's head as concept names: A & B <= C under
        A with B and under B with A, and exists R.A <= B under A with R;
        and the set of those concept names."""
        if self.tbox.horn_extended and any(
            ax.kind == CONCEPT_INCLUSION and not ax.negated and not ax.rhs.is_name
            for ax in self.tbox.axioms
        ):
            raise UnsupportedTBoxError(
                "existential right-hand sides are unsupported by the Horn evaluator"
            )
        rules: dict[str, dict] = {}
        for ax in self.tbox.horn_axioms:
            head = self.concept_sups(ax.rhs)
            if isinstance(ax, ConjunctionAxiom):
                rules.setdefault(ax.lhs1, {})[ax.lhs2, head] = None
                rules.setdefault(ax.lhs2, {})[ax.lhs1, head] = None
            else:
                rules.setdefault(ax.filler, {})[ax.role, head] = None
        return {body: tuple(found) for body, found in rules.items()}, frozenset(rules)


def saturate(tbox: TBox) -> SaturatedTBox:
    """The closure of the TBox's DL-Lite inclusions, and the one way to
    build it: it is computed once per TBox object and kept on it, so that
    it lives exactly as long as the TBox."""
    sat = vars(tbox).get("_saturation")
    if sat is None:
        sat = SaturatedTBox(tbox)
        object.__setattr__(tbox, "_saturation", sat)
    return sat


def _transitive_close(edges: dict):
    changed = True
    while changed:
        changed = False
        for node, sups in edges.items():
            extra = set()
            for s in sups:
                extra |= edges.get(s, set())
            if not extra <= sups:
                sups |= extra
                changed = True


# ---------------------------------------------------------------------------
# Entailed instance data of the named individuals
# ---------------------------------------------------------------------------

def entailed_instance_data(abox: Iterable[Fact], tbox: TBox):
    """Per individual the keys of its entailed basic concepts, and per
    role name its entailed pairs of named individuals, in the role's own
    direction.

    One pass takes each fact through the closure of the TBox's DL-Lite
    inclusions.  A Horn-extended TBox then fires its Horn axioms from a
    worklist of (individual, concept) pairs to a fixpoint.  They derive
    concepts only, and a Horn TBox has no existential right-hand side, so
    the role pairs stay as the first pass leaves them.
    """
    sat = saturate(tbox)
    rules, bodies = sat.horn_rules
    types: dict[str, set[ConceptKey]] = {}
    role_pairs: dict[str, set[tuple[str, str]]] = {}
    for f in abox:
        row = sat.fact_row(f.predicate, len(f.args))
        if f.is_concept:
            types.setdefault(f.args[0], set()).update(row)
            continue
        a, b = f.args
        subject, object_, sups = row
        types.setdefault(a, set()).update(subject)
        types.setdefault(b, set()).update(object_)
        for name, inverted in sups:
            role_pairs.setdefault(name, set()).add((b, a) if inverted else (a, b))

    work = [(a, c) for a, ts in types.items() for c in ts & bodies] if rules else ()
    while work:
        a, body = work.pop()
        for side, head in rules[body]:
            if isinstance(side, Role):  # exists R.A <= B: the R-predecessors of a
                pairs = role_pairs.get(side.name, ())
                if side.inverted:
                    found = [y for x, y in pairs if x == a]
                else:
                    found = [x for x, y in pairs if y == a]
            elif side in types[a]:  # A & B <= C: a has the other conjunct
                found = (a,)
            else:
                continue
            for x in found:
                new = head - types[x]
                if new:
                    types[x] |= new
                    work.extend((x, c) for c in new & bodies)
    return types, role_pairs


def _role_pairs(role_pairs: dict[str, set[tuple[str, str]]], role: Role):
    pairs = role_pairs.get(role.name, set())
    return {(b, a) for a, b in pairs} if role.inverted else pairs


# ---------------------------------------------------------------------------
# The canonical model
# ---------------------------------------------------------------------------

def canonical_model(abox: Iterable[Fact], tbox: TBox, depth: int | None = None):
    """The tuples of the canonical model of (abox, tbox), as (predicate,
    elements) pairs over words (`Word`): (a, ()) is the individual a, and
    (a, (R1, ..., Rn)) the anonymous element reached from a by R1, ..., Rn.

    The named elements carry the entailed instance data.  An individual
    gets an R-child for each exists R it is in that no named pair
    witnesses, and an element reached by R gets the concepts, the edges
    from its parent and the children that `SaturatedTBox.successor`
    gives R.  With a `depth`, words go down to that length.  With none,
    each role's subtree below the first level is unfolded once: an
    anonymous element's subtree depends only on the role leading to it,
    so, with every anonymous element read as one value, these are all the
    model's tuples.  The KB must be consistent.
    """
    sat = saturate(tbox)
    types, role_pairs = entailed_instance_data(abox, tbox)
    witnessed: set[tuple[str, Role]] = set()
    for name, pairs in role_pairs.items():
        for a, b in pairs:
            yield name, ((a, ()), (b, ()))
            witnessed |= {(a, Role(name)), (b, Role(name, inverted=True))}
    work: list[tuple[Word, Role]] = []
    for a, keys in types.items():
        for key in keys:
            if isinstance(key, str):
                yield key, ((a, ()),)
            elif (a, key) not in witnessed and depth != 0:
                work.append(((a, ()), key))
    unfolded: set[Role] = set()
    while work:
        parent, r = work.pop()
        w = (parent[0], parent[1] + (r,))
        names, edges, children = sat.successor(r)
        for name in names:
            yield name, (w,)
        for name, inverted in edges:
            yield name, ((w, parent) if inverted else (parent, w))
        if depth is None:
            work.extend((w, s) for s in children if s not in unfolded)
            unfolded.update(children)
        elif len(w[1]) < depth:
            work.extend((w, s) for s in children)


# ---------------------------------------------------------------------------
# Consistency
# ---------------------------------------------------------------------------

def is_consistent(abox: Iterable[Fact], tbox: TBox) -> bool:
    sat = saturate(tbox)
    if not sat.disjoint_concepts and not sat.disjoint_roles:
        return True
    return _clash_free(sat, *entailed_instance_data(abox, tbox))


def _clash_free(sat: SaturatedTBox, types, role_pairs) -> bool:
    """No disjointness of the closure holds on the instance data."""
    for (x, y) in sat.disjoint_concepts:
        for tset in types.values():
            if x in tset and y in tset:
                return False
    for (r, s) in sat.disjoint_roles:
        if not _role_pairs(role_pairs, r).isdisjoint(_role_pairs(role_pairs, s)):
            return False
    return True


# ---------------------------------------------------------------------------
# Ground atom entailment
# ---------------------------------------------------------------------------

def entails_ground_atom(abox: Iterable[Fact], tbox: TBox, atom: Atom) -> bool:
    """(A, T) |= atom for a ground relational atom, where A is any
    iterable of facts."""
    types, role_pairs = entailed_instance_data(abox, tbox)
    if not _clash_free(saturate(tbox), types, role_pairs):
        raise InconsistentKBError("entailment over an inconsistent KB")
    if any(t.is_var for t in atom.terms):
        raise ValueError("entails_ground_atom expects a ground atom")
    args = tuple(t.name for t in atom.terms)
    if atom.kind == CONCEPT_ATOM:
        return atom.predicate in types.get(args[0], ())
    return args in role_pairs.get(atom.predicate, ())
