"""DL-Lite_R reasoning: TBox saturation, consistency, entailment of ground
atoms and Boolean (U)CQs via bounded canonical-model slices, assignment-
constrained query matching, and a Horn forward-chaining evaluator for the
extended axiom shapes used by the fixtures and generators.

Query matching into a slice runs on the homomorphism search in `queries`,
with the slice as its target.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property

from .model import (
    ANON,
    CONCEPT_ATOM,
    CONCEPT_INCLUSION,
    ROLE_INCLUSION,
    ABox,
    Assignment,
    Atom,
    BasicConcept,
    CQ,
    ConjunctionAxiom,
    InconsistentKBError,
    Role,
    TBox,
    UCQ,
    UnsupportedTBoxError,
    concept,
    exists,
)
from .queries import HomTarget, hom_exists

# A canonical-model element is a word: (root constant, chain of roles).
Word = tuple[str, tuple[Role, ...]]


def _require_dllite(tbox: TBox, operation: str):
    if tbox.horn_extended:
        raise UnsupportedTBoxError(f"{operation} requires a pure DL-Lite_R TBox")


# ---------------------------------------------------------------------------
# Saturation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SaturatedTBox:
    """Closure of a DL-Lite_R TBox under inclusion derivation.

    concept_subs / role_subs are reflexive-transitive; role inclusions are
    lifted to their exists-concepts; negative inclusions are closed under
    contraposition through the positive closure, and an empty role (R
    disjoint with itself) empties both of its exists-concepts.
    """

    tbox: TBox
    concept_subs: dict[BasicConcept, frozenset[BasicConcept]]
    role_subs: dict[Role, frozenset[Role]]
    disjoint_concepts: frozenset[tuple[BasicConcept, BasicConcept]]
    disjoint_roles: frozenset[tuple[Role, Role]]

    def concept_sups(self, b: BasicConcept) -> frozenset[BasicConcept]:
        return self.concept_subs.get(b, frozenset((b,)))

    def role_sups(self, r: Role) -> frozenset[Role]:
        return self.role_subs.get(r, frozenset((r,)))

    def entails_concept_inclusion(self, lhs: BasicConcept, rhs: BasicConcept) -> bool:
        return rhs in self.concept_sups(lhs)

    def entails_role_inclusion(self, lhs: Role, rhs: Role) -> bool:
        return rhs in self.role_sups(lhs)

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


def saturate(tbox: TBox) -> SaturatedTBox:
    """The TBox's saturation, computed once per TBox object and kept on it,
    so that it lives exactly as long as the TBox."""
    if "_saturation" in vars(tbox):
        return vars(tbox)["_saturation"]
    _require_dllite(tbox, "saturation")

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
        disjoint_concepts=frozenset(neg_concepts),
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
# Asserted/entailed instance data for named individuals
# ---------------------------------------------------------------------------

def _entailed_instance_data(abox: ABox, tbox: TBox):
    """One pass over the facts: per-individual entailed basic concepts and
    per-role entailed named pairs (the closure under role inclusions)."""
    sat = saturate(tbox)
    types: dict[str, set[BasicConcept]] = {a: set() for a in abox.individuals}
    role_pairs: dict[Role, set[tuple[str, str]]] = {}
    for f in abox:
        if f.is_concept:
            types[f.args[0]] |= sat.concept_sups(concept(f.predicate))
        else:
            a, b = f.args
            asserted = Role(f.predicate)
            types[a] |= sat.concept_sups(exists(asserted))
            types[b] |= sat.concept_sups(exists(asserted.inverse()))
            for sup in sat.role_sups(asserted):
                role_pairs.setdefault(sup, set()).add((a, b))
                role_pairs.setdefault(sup.inverse(), set()).add((b, a))
    return (
        {a: frozenset(ts) for a, ts in types.items()},
        {r: frozenset(ps) for r, ps in role_pairs.items()},
    )


def entailed_basic_concepts(abox: ABox, tbox: TBox, individual: str) -> set[BasicConcept]:
    """All basic concepts B with (A, T) |= B(a), for a named individual."""
    types, _ = _entailed_instance_data(abox, tbox)
    return set(types.get(individual, frozenset()))


def entails_role_assertion(abox: ABox, tbox: TBox, role: Role, a: str, b: str) -> bool:
    """(A, T) |= R(a, b) for named a, b: some asserted role fact whose
    closure under role inclusions covers R."""
    _, role_pairs = _entailed_instance_data(abox, tbox)
    return (a, b) in role_pairs.get(role, frozenset())


# ---------------------------------------------------------------------------
# Consistency
# ---------------------------------------------------------------------------

def is_consistent(abox: ABox, tbox: TBox) -> bool:
    if tbox.horn_extended:
        if not any(ax.negated for ax in tbox.axioms):
            return True
        return _horn_consistent(tbox, *saturate_horn(abox, tbox))
    sat = saturate(tbox)
    if not sat.disjoint_concepts and not sat.disjoint_roles:
        return True
    types, role_pairs = _entailed_instance_data(abox, tbox)
    for (x, y) in sat.disjoint_concepts:
        for tset in types.values():
            if x in tset and y in tset:
                return False
    for (r, s) in sat.disjoint_roles:
        if not role_pairs.get(r, frozenset()).isdisjoint(role_pairs.get(s, frozenset())):
            return False
    return True


def _horn_consistent(tbox: TBox, concepts, rolepairs) -> bool:
    """No negative axiom clashes over the forward-chained atoms.  Horn
    shapes are all positive; only negative DL-Lite axioms mixed into the
    TBox can produce a clash."""
    negatives = [ax for ax in tbox.axioms if ax.negated]
    if not negatives:
        return True
    individuals = {a for (_n, a) in concepts} | {x for (_n, x, _y) in rolepairs}
    individuals.update(y for (_n, _x, y) in rolepairs)
    for ax in negatives:
        if ax.kind == CONCEPT_INCLUSION:
            for a in individuals:
                if _horn_has_concept(concepts, rolepairs, ax.lhs, a) and _horn_has_concept(
                    concepts, rolepairs, ax.rhs, a
                ):
                    return False
        else:
            for (name, x, y) in rolepairs:
                if _horn_has_role(rolepairs, ax.lhs, x, y) and _horn_has_role(
                    rolepairs, ax.rhs, x, y
                ):
                    return False
    return True


def _horn_has_concept(concepts, rolepairs, side: BasicConcept, a: str) -> bool:
    if side.is_name:
        return (side.concept_name, a) in concepts
    r = side.role
    if r.inverted:
        return any(n == r.name and y == a for (n, x, y) in rolepairs)
    return any(n == r.name and x == a for (n, x, y) in rolepairs)


def _horn_has_role(rolepairs, role: Role, a: str, b: str) -> bool:
    if role.inverted:
        a, b = b, a
    return (role.name, a, b) in rolepairs


# ---------------------------------------------------------------------------
# Horn forward chaining
# ---------------------------------------------------------------------------

def saturate_horn(abox: ABox, tbox: TBox):
    """Least fixpoint of forward chaining over the ABox constants.

    Supported axiom shapes: A <= B, A & B <= C, exists r.A <= B,
    exists r <= B, exists r- <= B, and positive role inclusions.  No
    anonymous individuals are created; the only intended consumers
    evaluate ground atomic queries, where existential witnesses cannot
    contribute under these shapes.
    """
    rules_subclass: list[tuple[str, str]] = []          # A <= B
    rules_conj: list[tuple[str, str, str]] = []          # A & B <= C
    rules_qexists: list[tuple[Role, str, str]] = []      # exists R.A <= B
    rules_exists: list[tuple[Role, str]] = []            # exists R <= B
    role_incl: list[tuple[Role, Role]] = []

    for ax in tbox.horn_axioms:
        if isinstance(ax, ConjunctionAxiom):
            rules_conj.append((ax.lhs1, ax.lhs2, ax.rhs))
        else:
            rules_qexists.append((ax.role, ax.filler, ax.rhs))
    for ax in tbox.axioms:
        if ax.negated:
            continue  # negatives affect consistency only
        if ax.kind == ROLE_INCLUSION:
            role_incl.append((ax.lhs, ax.rhs))
        else:
            lhs, rhs = ax.lhs, ax.rhs
            if not rhs.is_name:
                raise UnsupportedTBoxError(
                    "existential right-hand sides are unsupported by the Horn evaluator"
                )
            if lhs.is_name:
                rules_subclass.append((lhs.concept_name, rhs.concept_name))
            else:
                rules_exists.append((lhs.role, rhs.concept_name))

    concepts: set[tuple[str, str]] = set()
    roles: set[tuple[str, str, str]] = set()
    for f in abox:
        if f.is_concept:
            concepts.add((f.predicate, f.args[0]))
        else:
            roles.add((f.predicate, f.args[0], f.args[1]))

    def role_pairs(role: Role):
        if role.inverted:
            return [(y, x) for (n, x, y) in roles if n == role.name]
        return [(x, y) for (n, x, y) in roles if n == role.name]

    changed = True
    while changed:
        changed = False
        for (lhs, rhs) in role_incl:
            for (a, b) in role_pairs(lhs):
                pair = (rhs.name, b, a) if rhs.inverted else (rhs.name, a, b)
                if pair not in roles:
                    roles.add(pair)
                    changed = True
        for (a_name, b_name, c_name) in rules_conj:
            for (name, ind) in list(concepts):
                if name == a_name and (b_name, ind) in concepts:
                    if (c_name, ind) not in concepts:
                        concepts.add((c_name, ind))
                        changed = True
        for (sub, sup) in rules_subclass:
            for (name, ind) in list(concepts):
                if name == sub and (sup, ind) not in concepts:
                    concepts.add((sup, ind))
                    changed = True
        for (role, rhs) in rules_exists:
            for (a, b) in role_pairs(role):
                if (rhs, a) not in concepts:
                    concepts.add((rhs, a))
                    changed = True
        for (role, filler, rhs) in rules_qexists:
            for (a, b) in role_pairs(role):
                if (filler, b) in concepts and (rhs, a) not in concepts:
                    concepts.add((rhs, a))
                    changed = True

    return frozenset(concepts), frozenset(roles)


# ---------------------------------------------------------------------------
# Ground atom entailment
# ---------------------------------------------------------------------------

def entails_ground_atom(abox: ABox, tbox: TBox, atom: Atom) -> bool:
    """(A, T) |= atom for a ground relational atom.  Dispatches to the Horn
    evaluator for Horn-extended TBoxes."""
    if tbox.horn_extended:
        concepts, roles = saturate_horn(abox, tbox)
        consistent = _horn_consistent(tbox, concepts, roles)
    else:
        consistent = is_consistent(abox, tbox)
    if not consistent:
        raise InconsistentKBError("entailment over an inconsistent KB")
    if any(t.is_var for t in atom.terms):
        raise ValueError("entails_ground_atom expects a ground atom")
    args = tuple(t.name for t in atom.terms)
    if tbox.horn_extended:
        if atom.kind == CONCEPT_ATOM:
            return (atom.predicate, args[0]) in concepts
        return (atom.predicate, args[0], args[1]) in roles
    if atom.kind == CONCEPT_ATOM:
        if args[0] not in abox.individuals:
            return False
        return concept(atom.predicate) in entailed_basic_concepts(abox, tbox, args[0])
    return entails_role_assertion(abox, tbox, Role(atom.predicate), args[0], args[1])


def entails_exists(abox: ABox, tbox: TBox, role: Role, individual: str) -> bool:
    """(A, T) |= exists R(a)."""
    if individual not in abox.individuals:
        return False
    return exists(role) in entailed_basic_concepts(abox, tbox, individual)


# ---------------------------------------------------------------------------
# Canonical-model slices
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CanonicalSlice:
    """The canonical model truncated at a word-length depth.

    Elements are words a R1 ... Rn; the root layer carries the entailed
    concept/role instance data of the named individuals, anonymous layers
    follow the role-chain construction with its two guards (no named
    witness for the first step, no immediate rollback later).
    """

    depth: int
    elements: frozenset[Word]
    concept_ext: dict[str, frozenset[Word]]
    role_ext: dict[str, frozenset[tuple[Word, Word]]]

    def has_concept(self, name: str, element: Word) -> bool:
        return element in self.concept_ext.get(name, frozenset())

    @cached_property
    def target(self) -> HomTarget:
        """The slice as a homomorphism target: constants denote their named
        elements, and disequalities require distinct elements."""
        tuples: dict = {(n, 1): {(w,) for w in ext} for n, ext in self.concept_ext.items()}
        tuples.update(((n, 2), pairs) for n, pairs in self.role_ext.items())
        named = {w[0]: w for w in self.elements if not _is_anonymous(w)}
        return HomTarget(tuples, named.get, operator.ne)

    def holds(self, cq: CQ, mu: Assignment) -> bool:
        """A homomorphism of cq into the slice agreeing with mu on its
        constant values and sending anon-assigned variables to anonymous
        elements."""
        pinned: dict[str, Word] = {}
        anonymous = {}
        for v in cq.variables():
            if v not in mu:
                raise ValueError(f"assignment is not total: missing ?{v}")
            value = mu[v]
            if value is ANON or value == ANON:
                anonymous[v] = _is_anonymous
            else:
                element = self.target.image(value if isinstance(value, str) else value.name)
                if element is None:
                    return False
                pinned[v] = element
        return hom_exists(cq, self.target, pinned, anonymous)


def _is_anonymous(word: Word) -> bool:
    return bool(word[1])


def canonical_slice(abox: ABox, tbox: TBox, depth: int) -> CanonicalSlice:
    """The canonical model of (abox, tbox) up to words of length `depth`.
    The KB must be consistent; callers check that first."""
    _require_dllite(tbox, "canonical model construction")
    sat = saturate(tbox)
    types, role_pairs = _entailed_instance_data(abox, tbox)

    individuals = sorted(abox.individuals)
    role_names = sorted(tbox.role_names() | {f.predicate for f in abox if not f.is_concept})
    all_roles = [Role(n, inv) for n in role_names for inv in (False, True)]

    witnessed: dict[str, set[Role]] = {a: set() for a in individuals}
    for r, pairs in role_pairs.items():
        for (a, _b) in pairs:
            witnessed[a].add(r)

    elements: set[Word] = {(a, ()) for a in individuals}
    frontier: list[Word] = []
    for a in individuals:
        for r in all_roles:
            if exists(r) in types[a] and r not in witnessed[a]:
                w = (a, (r,))
                if depth >= 1:
                    elements.add(w)
                    frontier.append(w)
    level = 1
    while level < depth and frontier:
        nxt: list[Word] = []
        for (a, chain) in frontier:
            last = chain[-1]
            for r in all_roles:
                if r == last.inverse():
                    continue
                if sat.entails_concept_inclusion(exists(last.inverse()), exists(r)):
                    w = (a, chain + (r,))
                    elements.add(w)
                    nxt.append(w)
        frontier = nxt
        level += 1

    concept_names = sorted(
        tbox.concept_names() | {f.predicate for f in abox if f.is_concept}
    )
    concept_ext: dict[str, set[Word]] = {n: set() for n in concept_names}
    for a in individuals:
        for b in types[a]:
            if b.is_name:
                concept_ext.setdefault(b.concept_name, set()).add((a, ()))
    for w in elements:
        if not _is_anonymous(w):
            continue
        last = w[1][-1]
        for b in sat.concept_sups(exists(last.inverse())):
            if b.is_name:
                concept_ext.setdefault(b.concept_name, set()).add(w)

    role_ext: dict[str, set[tuple[Word, Word]]] = {n: set() for n in role_names}
    for r, pairs in role_pairs.items():
        if not r.inverted:
            role_ext.setdefault(r.name, set()).update(
                (((a, ()), (b, ())) for (a, b) in pairs)
            )
    for w in elements:
        if not _is_anonymous(w):
            continue
        parent: Word = (w[0], w[1][:-1])
        last = w[1][-1]
        for name in role_names:
            if sat.entails_role_inclusion(last, Role(name)):
                role_ext[name].add((parent, w))
            if sat.entails_role_inclusion(last, Role(name, inverted=True)):
                role_ext[name].add((w, parent))

    return CanonicalSlice(
        depth=depth,
        elements=frozenset(elements),
        concept_ext={n: frozenset(s) for n, s in concept_ext.items()},
        role_ext={n: frozenset(s) for n, s in role_ext.items()},
    )


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


def entails_cq(abox: ABox, tbox: TBox, cq: CQ, depth: int | None = None) -> bool:
    """(A, T) |= q for a single CQ; see `entails_ucq`."""
    return entails_ucq(abox, tbox, UCQ((cq,)), depth)


def entails_ucq(abox: ABox, tbox: TBox, ucq: UCQ, depth: int | None = None) -> bool:
    """(A, T) |= q via a homomorphism of some disjunct into the canonical
    model truncated at `query_depth`, taking the largest depth over the
    disjuncts so that one slice serves them all."""
    if not is_consistent(abox, tbox):
        raise InconsistentKBError("CQ entailment over an inconsistent KB")
    if depth is None:
        depth = max(query_depth(d, tbox) for d in ucq.disjuncts)
    target = canonical_slice(abox, tbox, depth).target
    return any(hom_exists(d, target) for d in ucq.disjuncts)


def holds_under_assignment(
    abox: ABox, tbox: TBox, cq: CQ, mu: Assignment, depth: int | None = None
) -> bool:
    """(A, T) |=_mu q; see `CanonicalSlice.holds`."""
    if not is_consistent(abox, tbox):
        raise InconsistentKBError("assignment check over an inconsistent KB")
    slice_ = canonical_slice(abox, tbox, query_depth(cq, tbox) if depth is None else depth)
    return slice_.holds(cq, mu)
