"""Reasoning over DL-Lite_R TBoxes and their Horn extension.

Everything here reads one object, the closure of the TBox's DL-Lite
inclusions, which `saturate` builds once per TBox.  It holds every basic
concept in the one form the axioms hold it, `model.ConceptKey`: a
concept name, or the role R for exists R.  It is computed once in both
directions, the keys above a key and the keys below it, and its negative
inclusions come from one pass that finds the empty keys.  The rewriter,
the canonical model, the interaction-free check and provenance read it
through its lookups, so no part scans its maps.

One engine computes the entailed instance data of the named individuals
for both TBox flavours: a pass of the facts through the closure, then,
for a Horn-extended TBox, its A & B <= C and exists R.A <= B axioms
fired to a fixpoint from a rule table keyed by concept name and built
once per TBox.  Consistency and ground-atom entailment read that data,
and `provenance` fires the same rule table over sets of facts.

The canonical model of a DL-Lite_R KB is walked here too, by
`canonical_model`, from that data and one per-role successor rule
(`SaturatedTBox.successor`).  The interaction-free check reads the
folded walk of one fact; the test oracles gather the walk to a depth
into a homomorphism target for (U)CQ entailment.  This module imports
no homomorphism search, so Horn scoring loads none.
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterable

from .model import (
    CONCEPT_ATOM,
    CONCEPT_INCLUSION,
    Atom,
    ConceptKey,
    ConjunctionAxiom,
    Fact,
    InconsistentKBError,
    Role,
    TBox,
    UnsupportedTBoxError,
)

# A canonical-model element is a word: (root individual, chain of roles).
Word = tuple[str, tuple[Role, ...]]


# ---------------------------------------------------------------------------
# Saturation
# ---------------------------------------------------------------------------

class SaturatedTBox:
    """Closure of a TBox's DL-Lite_R inclusions under inclusion derivation,
    which leaves out its Horn axioms.  `saturate` builds it once per TBox.

    Every basic concept is held by its key (`ConceptKey`).  The positive
    closure is kept both ways, reflexive-transitive and with role
    inclusions lifted to their exists-concepts: `concept_sups` and
    `role_sups` give the keys above a key, `concept_subs` and `role_subs`
    the keys below it.  `disjoint_concepts` holds, both ways, every pair
    of keys below the two sides of a negative concept inclusion, and
    (k, k) for each empty key k; `disjoint_roles` the same for the roles,
    inverses included, with (R, R) for each empty role.  A key is empty
    when it lies below both sides of a negative inclusion or below an
    empty key, and exists R is empty with exists R-.  The closure of each
    fact predicate and the Horn axioms, keyed for firing, are looked up
    here too, so they are built once per TBox.
    """

    def __init__(self, tbox: TBox):
        self.tbox = tbox
        self._rows: dict[tuple[str, int], object] = {}
        self._successors: dict[Role, tuple] = {}

        roles: set[Role] = set()
        concepts: set[ConceptKey] = set()
        for ax in tbox.axioms:
            for side in (ax.lhs, ax.rhs):
                (concepts if isinstance(side, str) else roles).add(side)
        roles |= {r.inverse() for r in roles}
        concepts |= roles

        # The positive closures: role-inclusion edges with their inverse
        # counterparts, and concept-inclusion edges plus the lift of the
        # role closure to exists-concepts, both reflexive-transitive.
        role_edges: dict[Role, set[Role]] = {r: {r} for r in roles}
        concept_edges: dict[ConceptKey, set[ConceptKey]] = {c: {c} for c in concepts}
        concept_nis: list[tuple[ConceptKey, ConceptKey]] = []
        role_nis: list[tuple[Role, Role]] = []
        for ax in tbox.axioms:
            if ax.kind == CONCEPT_INCLUSION:
                if ax.negated:
                    concept_nis.append((ax.lhs, ax.rhs))
                else:
                    concept_edges[ax.lhs].add(ax.rhs)
            else:
                pairs = (ax.lhs, ax.rhs), (ax.lhs.inverse(), ax.rhs.inverse())
                if ax.negated:
                    role_nis += pairs
                else:
                    for sub, sup in pairs:
                        role_edges[sub].add(sup)
        _transitive_close(role_edges)
        for r, sups in role_edges.items():
            concept_edges[r] |= sups
        _transitive_close(concept_edges)
        self._concept_sups, self._concept_subs = _both_ways(concept_edges)
        self._role_sups, self._role_subs = _both_ways(role_edges)

        # Negative inclusions.  B <= !C is disjointness, so it holds both
        # ways of every pair of keys below B and C, and R <= !S of R- and
        # S- too.  A key paired with itself lies below both sides, so it
        # is empty, and so is each key below an empty key, and exists R
        # when exists R- is: R is then an empty role.
        disjoint_concepts = _disjoint(concept_nis, self.concept_subs)
        disjoint_roles = _disjoint(role_nis, self.role_subs)
        work = [x for x, y in disjoint_concepts | disjoint_roles if x == y]
        empty: set[ConceptKey] = set()
        while work:
            key = work.pop()
            if key not in empty:
                empty.add(key)
                work.extend(self.concept_subs(key))
                if isinstance(key, Role):
                    work.append(key.inverse())
        self.disjoint_concepts = frozenset(disjoint_concepts | {(k, k) for k in empty})
        self.disjoint_roles = frozenset(
            disjoint_roles | {(r, r) for r in empty if isinstance(r, Role)}
        )

    def concept_sups(self, key: ConceptKey) -> frozenset[ConceptKey]:
        """The keys of the basic concepts above the one keyed `key`."""
        return self._concept_sups.get(key) or frozenset((key,))

    def concept_subs(self, key: ConceptKey) -> frozenset[ConceptKey]:
        """The keys of the basic concepts below the one keyed `key`."""
        return self._concept_subs.get(key) or frozenset((key,))

    def role_sups(self, r: Role) -> frozenset[Role]:
        return self._role_sups.get(r) or frozenset((r,))

    def role_subs(self, r: Role) -> frozenset[Role]:
        return self._role_subs.get(r) or frozenset((r,))

    @cached_property
    def generating_roles(self) -> frozenset[Role]:
        """The roles that can lead to an anonymous element of the canonical
        model: every R with exists R entailed by the exists-concept on the
        right-hand side of a positive concept inclusion, and the child
        roles (`successor`) of each of them."""
        found = {
            sup
            for ax in self.tbox.axioms
            if ax.kind == CONCEPT_INCLUSION and not ax.negated and isinstance(ax.rhs, Role)
            for sup in self.concept_sups(ax.rhs)
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
        its parent as an r--successor.

        This is the word-based canonical model of DL-Lite (Kontchakov et
        al., KR 2010): a word w.r.s needs exists r- <= exists s and s != r-.
        A child s is kept also when a role inclusion r <= s- already makes
        the parent an s-successor; the model stays homomorphically
        equivalent to the restricted chase, which would drop it."""
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
            ax.kind == CONCEPT_INCLUSION and not ax.negated and isinstance(ax.rhs, Role)
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


def _both_ways(edges: dict) -> tuple[dict, dict]:
    """A reflexive-transitive closure as the keys above each key, the way
    `edges` holds it, and as the keys below each key."""
    below: dict = {}
    for sub, sups in edges.items():
        for sup in sups:
            below.setdefault(sup, set()).add(sub)
    return tuple({key: frozenset(found) for key, found in m.items()} for m in (edges, below))


def _disjoint(nis, below) -> set:
    """The pairs of keys below the two sides of each negative inclusion
    in `nis`, both ways."""
    return {
        pair for b, c in nis for x in below(b) for y in below(c) for pair in ((x, y), (y, x))
    }


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
    gives R.  With a `depth`, words go down to that length; only the
    test oracles walk to a depth.  With none,
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
