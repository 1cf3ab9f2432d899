"""Reasoning over DL-Lite_R TBoxes and their Horn extension.

One engine computes the entailed instance data of the named individuals
for both TBox flavours: the closure of the TBox's DL-Lite inclusions
(`saturate`), then, for a Horn-extended TBox, its A & B <= C and
exists R.A <= B axioms fired to a fixpoint.  The data keys a basic
concept by name, exists R by R, and the rule table, built once per
TBox, keys rules by concept name: firing them builds no `BasicConcept`.
Consistency and ground-atom entailment read that data, and
`provenance` fires the same rule table over sets of facts.  The
canonical model of a DL-Lite_R KB and (U)CQ entailment over it live in
`canonical`, which imports the homomorphism engine of `queries`; this
module imports neither, so Horn scoring loads neither.
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
    exists,
)

# A basic concept in the instance data: a concept name, or R for exists R.
ConceptKey = str | Role


def _key(b: BasicConcept) -> ConceptKey:
    return b.concept_name if b.is_name else b.role


def _require_dllite(tbox: TBox, operation: str):
    if tbox.horn_extended:
        raise UnsupportedTBoxError(f"{operation} requires a pure DL-Lite_R TBox")


# ---------------------------------------------------------------------------
# Saturation
# ---------------------------------------------------------------------------

class SaturatedTBox:
    """Closure of a TBox's DL-Lite_R inclusions under inclusion derivation.

    concept_subs / role_subs are reflexive-transitive; role inclusions are
    lifted to their exists-concepts; negative inclusions are closed under
    contraposition through the positive closure, and an empty role (R
    disjoint with itself) empties both of its exists-concepts.  The
    closure of each fact predicate and the Horn axioms, keyed for firing,
    are looked up here too, so they are built once per TBox.  Those two
    and the disjoint pairs hold concepts by key (`ConceptKey`).
    """

    def __init__(
        self,
        tbox: TBox,
        concept_subs: dict[BasicConcept, frozenset[BasicConcept]],
        role_subs: dict[Role, frozenset[Role]],
        disjoint_concepts: frozenset[tuple[ConceptKey, ConceptKey]],
        disjoint_roles: frozenset[tuple[Role, Role]],
    ):
        self.tbox = tbox
        self.concept_subs = concept_subs
        self.role_subs = role_subs
        self.disjoint_concepts = disjoint_concepts
        self.disjoint_roles = disjoint_roles
        self._rows: dict[tuple[str, int], object] = {}

    def concept_sups(self, b: BasicConcept) -> frozenset[BasicConcept]:
        return self.concept_subs.get(b, frozenset((b,)))

    def role_sups(self, r: Role) -> frozenset[Role]:
        return self.role_subs.get(r, frozenset((r,)))

    def entails_concept_inclusion(self, lhs: BasicConcept, rhs: BasicConcept) -> bool:
        return rhs in self.concept_sups(lhs)

    @cached_property
    def generating_roles(self) -> frozenset[Role]:
        """The roles that can lead to an anonymous element of the canonical
        model: every R with exists R entailed by the exists-concept on the
        right-hand side of a positive concept inclusion, and below an
        element reached by R, every S other than R- with
        exists R- <= exists S."""
        found = {
            sup.role
            for ax in self.tbox.axioms
            if ax.kind == CONCEPT_INCLUSION and not ax.negated and not ax.rhs.is_name
            for sup in self.concept_sups(ax.rhs)
            if not sup.is_name
        }
        frontier = list(found)
        while frontier:
            r = frontier.pop()
            for sup in self.concept_sups(exists(r.inverse())):
                if not sup.is_name and sup.role != r.inverse() and sup.role not in found:
                    found.add(sup.role)
                    frontier.append(sup.role)
        return frozenset(found)

    def fact_row(self, predicate: str, arity: int):
        """What a fact entails, looked up once per predicate: for A(a) the
        keys of a's basic concepts, for r(a, b) those of a, those of b,
        and (name, inverted) of every role above r."""
        row = self._rows.get((predicate, arity))
        if row is None:
            if arity == 1:
                row = self._key_sups(predicate)
            else:
                r = Role(predicate)
                sups = tuple((s.name, s.inverted) for s in self.role_sups(r))
                row = self._key_sups(r), self._key_sups(r.inverse()), sups
            self._rows[predicate, arity] = row
        return row

    @cached_property
    def horn_rules(self) -> tuple[dict[str, tuple], frozenset[str]]:
        """The Horn axioms keyed by each concept name that fires them, with
        the closure of the axiom's head as concept names: A & B <= C under
        A with B and under B with A, and exists R.A <= B under A with R;
        and the set of those concept names.  No `BasicConcept` is built."""
        if self.tbox.horn_extended and any(
            ax.kind == CONCEPT_INCLUSION and not ax.negated and not ax.rhs.is_name
            for ax in self.tbox.axioms
        ):
            raise UnsupportedTBoxError(
                "existential right-hand sides are unsupported by the Horn evaluator"
            )
        rules: dict[str, dict] = {}
        for ax in self.tbox.horn_axioms:
            head = self._key_sups(ax.rhs)
            if isinstance(ax, ConjunctionAxiom):
                rules.setdefault(ax.lhs1, {})[ax.lhs2, head] = None
                rules.setdefault(ax.lhs2, {})[ax.lhs1, head] = None
            else:
                rules.setdefault(ax.filler, {})[ax.role, head] = None
        return {body: tuple(found) for body, found in rules.items()}, frozenset(rules)

    def _key_sups(self, key: ConceptKey) -> frozenset[ConceptKey]:
        """The keys of the basic concepts above the one keyed `key`."""
        return self._keyed_subs.get(key) or frozenset((key,))

    @cached_property
    def _keyed_subs(self) -> dict[ConceptKey, frozenset[ConceptKey]]:
        return {_key(b): frozenset(map(_key, sups)) for b, sups in self.concept_subs.items()}


def saturate(tbox: TBox) -> SaturatedTBox:
    """The closure of a DL-Lite_R TBox; see `_closure`."""
    _require_dllite(tbox, "saturation")
    return _closure(tbox)


def _closure(tbox: TBox) -> SaturatedTBox:
    """The closure of the TBox's DL-Lite inclusions, which leaves out its
    Horn axioms.  It is computed once per TBox object and kept on it, so
    that it lives exactly as long as the TBox."""
    if "_saturation" in vars(tbox):
        return vars(tbox)["_saturation"]

    roles: set[Role] = set()
    concepts: set[BasicConcept] = set()
    for ax in tbox.axioms:
        if ax.kind == ROLE_INCLUSION:
            roles.update((ax.lhs, ax.rhs))
        else:
            for side in (ax.lhs, ax.rhs):
                concepts.add(side)
                if not side.is_name:
                    roles.add(side.role)
    for r in list(roles):
        roles.add(r.inverse())
    for r in roles:
        concepts.add(exists(r))

    # Positive role closure: axiom edges plus their inverse counterparts,
    # reflexive-transitive.
    role_edges: dict[Role, set[Role]] = {r: {r} for r in roles}
    for ax in tbox.axioms:
        if ax.kind == ROLE_INCLUSION and not ax.negated:
            role_edges[ax.lhs].add(ax.rhs)
            role_edges[ax.lhs.inverse()].add(ax.rhs.inverse())
    _transitive_close(role_edges)

    # Positive concept closure: concept-inclusion edges plus the lift of
    # the role closure to exists-concepts.
    concept_edges: dict[BasicConcept, set[BasicConcept]] = {c: {c} for c in concepts}
    for ax in tbox.axioms:
        if ax.kind == CONCEPT_INCLUSION and not ax.negated:
            concept_edges[ax.lhs].add(ax.rhs)
    for r, sups in role_edges.items():
        for s in sups:
            concept_edges[exists(r)].add(exists(s))
    _transitive_close(concept_edges)

    # Negative closure.  B <= !C is symmetric (disjointness) and composes
    # with the positive closures on both sides; an entailed R <= !R forces
    # exists R and exists R- to be empty, which feeds back into the
    # concept-level disjointness.
    neg_concepts: set[tuple[BasicConcept, BasicConcept]] = set()
    neg_roles: set[tuple[Role, Role]] = set()
    for ax in tbox.axioms:
        if not ax.negated:
            continue
        if ax.kind == CONCEPT_INCLUSION:
            neg_concepts.add((ax.lhs, ax.rhs))
        else:
            neg_roles.add((ax.lhs, ax.rhs))
            neg_roles.add((ax.lhs.inverse(), ax.rhs.inverse()))

    subs_of_concept: dict[BasicConcept, set[BasicConcept]] = {c: set() for c in concepts}
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
        # Empty-role propagation, both directions.
        for r in roles:
            if (r, r) in neg_roles:
                for c in (exists(r), exists(r.inverse())):
                    if (c, c) not in neg_concepts:
                        neg_concepts.add((c, c))
                        changed = True
        for r in roles:
            for c in (exists(r), exists(r.inverse())):
                if (c, c) in neg_concepts and (r, r) not in neg_roles:
                    neg_roles.add((r, r))
                    changed = True

    sat = SaturatedTBox(
        tbox=tbox,
        concept_subs={c: frozenset(s) for c, s in concept_edges.items()},
        role_subs={r: frozenset(s) for r, s in role_edges.items()},
        disjoint_concepts=frozenset((_key(x), _key(y)) for x, y in neg_concepts),
        disjoint_roles=frozenset(neg_roles),
    )
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

def _entailed_instance_data(abox: Iterable[Fact], tbox: TBox):
    """Per individual the keys of its entailed basic concepts, and per
    role name its entailed pairs of named individuals, in the role's own
    direction.

    One pass takes each fact through the closure of the TBox's DL-Lite
    inclusions.  A Horn-extended TBox then fires its Horn axioms from a
    worklist of (individual, concept) pairs to a fixpoint.  They derive
    concepts only, and a Horn TBox has no existential right-hand side, so
    the role pairs stay as the first pass leaves them.
    """
    sat = _closure(tbox)
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
# Consistency
# ---------------------------------------------------------------------------

def is_consistent(abox: Iterable[Fact], tbox: TBox) -> bool:
    sat = _closure(tbox)
    if not sat.disjoint_concepts and not sat.disjoint_roles:
        return True
    return _clash_free(sat, *_entailed_instance_data(abox, tbox))


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
    types, role_pairs = _entailed_instance_data(abox, tbox)
    if not _clash_free(_closure(tbox), types, role_pairs):
        raise InconsistentKBError("entailment over an inconsistent KB")
    if any(t.is_var for t in atom.terms):
        raise ValueError("entails_ground_atom expects a ground atom")
    args = tuple(t.name for t in atom.terms)
    if atom.kind == CONCEPT_ATOM:
        return atom.predicate in types.get(args[0], ())
    return args in role_pairs.get(atom.predicate, ())
