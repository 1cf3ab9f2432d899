"""Query algebra shared by the rewriter and the counting pipelines:
substitution, canonical variable naming, atom unification, disequality
augmentation, and the package's one homomorphism search.

The search maps a query into a `HomTarget` (fact databases, other
queries, canonical-model slices) and answers whether a homomorphism
exists, how many there are, or lists them.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations
from typing import Callable, Collection, Iterable, Mapping

from .model import (
    CONST,
    NEQ_ATOM,
    VAR,
    Atom,
    CQ,
    RespoError,
    Term,
    UCQ,
    const,
    neq_atom,
    var,
)


class UnsatisfiableQuery(Exception):
    """Raised when a substitution collapses the two sides of a disequality
    or forces two distinct constants to unify."""


def substitute(cq: CQ, mapping: dict[str, Term]) -> CQ:
    """Apply a variable substitution.  Raises UnsatisfiableQuery when a
    disequality degenerates to t != t."""

    def image(t: Term) -> Term:
        if t.is_var and t.name in mapping:
            return mapping[t.name]
        return t

    atoms: list[Atom] = []
    for atom in cq.atoms:
        new_terms = tuple(image(t) for t in atom.terms)
        if atom.kind == NEQ_ATOM:
            if new_terms[0] == new_terms[1]:
                raise UnsatisfiableQuery(f"{atom!r} collapses under substitution")
            if new_terms[0].is_const and new_terms[1].is_const:
                continue  # distinct constants: vacuous under unique names
            atoms.append(neq_atom(*new_terms))
        else:
            atoms.append(Atom(atom.kind, atom.predicate, new_terms))
    return CQ(tuple(atoms))


def fresh_var(taken: set[str], prefix: str = "w") -> str:
    i = 0
    while f"{prefix}{i}" in taken:
        i += 1
    return f"{prefix}{i}"


# ---------------------------------------------------------------------------
# Canonical forms
# ---------------------------------------------------------------------------

def _atom_signature(atom: Atom, t: Term):
    positions = tuple(i for i, term in enumerate(atom.terms) if term == t)
    others = tuple(
        (term.kind, term.name if term.is_const else None)
        for term in atom.terms
        if term != t
    )
    return (atom.kind, atom.predicate or "", positions, others)


def _variable_signature(cq: CQ, name: str):
    t = var(name)
    sig = sorted(_atom_signature(atom, t) for atom in cq.atoms if t in atom.terms)
    return tuple(sig)


def _canonical(cq: CQ) -> tuple[tuple, tuple[str, ...]]:
    """The canonical key of cq and the variable ordering that attains it:
    the minimal sorted atom tuple over all variable orderings compatible
    with the variables' structural signatures."""
    names = cq.variables()
    if not names:
        return tuple(_render_atom(a, {}) for a in cq.atoms), ()

    groups: dict[tuple, list[str]] = {}
    for name in names:
        groups.setdefault(_variable_signature(cq, name), []).append(name)
    ordered_groups = [groups[sig] for sig in sorted(groups)]

    best_key: tuple | None = None
    best_order: tuple[str, ...] = ()
    for ordering in _group_orderings(ordered_groups):
        rename = {name: i for i, name in enumerate(ordering)}
        key = tuple(sorted(_render_atom(a, rename) for a in cq.atoms))
        if best_key is None or key < best_key:
            best_key, best_order = key, ordering
    return best_key, best_order


def canonical_form(cq: CQ) -> tuple:
    """A renaming-invariant key.

    Two CQs have equal canonical forms iff they are identical up to
    variable renaming.  Intended for the small queries handled by the
    reduct/rewriting machinery.
    """
    return _canonical(cq)[0]


def _group_orderings(groups: list[list[str]]):
    """All concatenations of per-group permutations (groups are small in
    practice because signatures separate most variables)."""

    def rec(i: int, acc: list[str]):
        if i == len(groups):
            yield tuple(acc)
            return
        for perm in permutations(groups[i]):
            yield from rec(i + 1, acc + list(perm))

    yield from rec(0, [])


def _render_atom(atom: Atom, rename: dict[str, int]):
    parts = []
    for t in atom.terms:
        if t.is_var:
            parts.append(("v", rename[t.name]))
        elif t.is_const:
            parts.append(("c", t.name))
        else:
            parts.append(("a", ""))
    return (atom.kind, atom.predicate or "", tuple(parts))


def canonicalize(cq: CQ) -> CQ:
    """Rewrite cq with canonical variable names v0, v1, ..."""
    _, order = _canonical(cq)
    if not order:
        return cq
    return substitute(cq, {name: var(f"v{i}") for i, name in enumerate(order)})


# ---------------------------------------------------------------------------
# Homomorphism search
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class HomTarget:
    """What a homomorphism search maps a query into.

    `tuples` holds the candidate tuples of each (predicate, arity) in a
    container supporting iteration and `in`.  `image` sends a query
    constant's name to its element, or to None when the constant names no
    element: an atom using it then has no match, and a disequality with it
    holds.  `distinct(a, b)` decides whether elements a and b satisfy a
    disequality.
    """

    tuples: Mapping[tuple[str, int], Collection[tuple]]
    image: Callable[[str], object]
    distinct: Callable[[object, object], bool]


def query_target(dst: CQ) -> HomTarget:
    """dst as a target: relational atoms map onto its atoms, constants to
    themselves, and a source disequality must land on a pair dst
    guarantees distinct (a disequality atom of dst, or two distinct
    constants under unique names)."""
    tuples: dict[tuple[str, int], list[tuple[Term, ...]]] = {}
    for atom in dst.relational_atoms():
        tuples.setdefault((atom.predicate, len(atom.terms)), []).append(atom.terms)
    pairs = {atom.terms for atom in dst.neq_atoms()}
    pairs |= {(t2, t1) for t1, t2 in pairs}

    def distinct(t1: Term, t2: Term) -> bool:
        return (t1, t2) in pairs or (t1 != t2 and t1.is_const and t2.is_const)

    return HomTarget(tuples, const, distinct)


def _eval_components(cq: CQ) -> list[list[Atom]]:
    """Group atoms by variable connectivity, counting disequalities as
    edges (unlike the query-level component split, which rejects
    cross-component disequalities)."""
    groups: list[tuple[set[str], list[Atom]]] = []
    for atom in cq.atoms:
        names, members = set(atom.variables()), [atom]
        for group in [g for g in groups if not names.isdisjoint(g[0])]:
            groups.remove(group)
            names |= group[0]
            members += group[1]
        groups.append((names, members))
    return [members for _, members in groups]


def _search(
    atoms: Iterable[Atom],
    target: HomTarget,
    binding: dict[str, object],
    value_filter: Mapping[str, Callable[[object], bool]],
    first_only: bool,
    found: list[dict[str, object]] | None = None,
) -> int:
    """The homomorphism search: backtracking over the relational atoms in
    search order, binding variables to the elements of candidate tuples.
    Returns the number of homomorphisms that extend `binding` (stopping
    at the first one when `first_only`) and appends each to `found` when
    given.  A variable in `value_filter` only binds to elements its filter
    accepts.  Each disequality is checked as soon as both sides are bound.
    """
    image, distinct, tuples = target.image, target.distinct, target.tuples

    # Compile: resolve constants and fix the atom order, most constrained
    # first (fewest variables, then sharing a variable with what is bound).
    pending, neqs = [], []
    for atom in atoms:
        if atom.kind == NEQ_ATOM:
            neqs.append(atom)
            continue
        key = (atom.predicate, len(atom.terms))
        if key not in tuples:
            return 0
        pending.append((atom, key, {t.name for t in atom.terms if t.kind == VAR}))
    pending.sort(key=lambda p: len(p[2]))
    bound = set(binding)
    bound_at = dict.fromkeys(binding, -1)
    steps = []
    while pending:
        pick = next((i for i, p in enumerate(pending) if not p[2] or not p[2].isdisjoint(bound)), 0)
        atom, key, names = pending.pop(pick)
        slots = []
        for t in atom.terms:
            if t.kind == VAR:
                slots.append((t.name, None))
            else:
                value = image(t.name)
                if value is None:
                    return 0
                slots.append((None, value))
        for name in names - bound:
            bound_at[name] = len(steps)
        steps.append((key, tuple(slots), names <= bound, []))
        bound |= names

    # Schedule each disequality at the step that binds its last variable.
    for atom in neqs:
        sides = []
        for t in atom.terms:
            if t.is_var and t.name not in bound_at:
                raise RespoError(
                    f"disequality variable ?{t.name} occurs in no relational atom"
                )
            sides.append((t.name, None) if t.is_var else (None, image(t.name)))
        if any(name is None and value is None for name, value in sides):
            continue  # a constant naming no element differs from every element
        at = max(-1 if name is None else bound_at[name] for name, _ in sides)
        if at >= 0:
            steps[at][3].append(sides)
        elif not distinct(*(value if name is None else binding[name] for name, value in sides)):
            return 0

    def satisfied(checks) -> bool:
        for (n1, c1), (n2, c2) in checks:
            if not distinct(c1 if n1 is None else binding[n1], c2 if n2 is None else binding[n2]):
                return False
        return True

    def extend(i: int) -> int:
        if i == len(steps):
            if found is not None:
                found.append(dict(binding))
            return 1
        key, slots, closed, checks = steps[i]
        candidates = tuples.get(key, ())
        if closed:
            values = tuple(value if name is None else binding[name] for name, value in slots)
            return extend(i + 1) if values in candidates else 0
        total = 0
        for values in candidates:
            fresh = []
            for (name, const_value), value in zip(slots, values):
                if name is None:
                    if value != const_value:
                        break
                elif name in binding:
                    if binding[name] != value:
                        break
                elif name in value_filter and not value_filter[name](value):
                    break
                else:
                    binding[name] = value
                    fresh.append(name)
            else:
                if satisfied(checks):
                    total += extend(i + 1)
            for name in fresh:
                del binding[name]
            if total and first_only:
                break
        return total

    return extend(0)


def hom_exists(
    cq: CQ,
    target: HomTarget,
    binding: Mapping[str, object] | None = None,
    value_filter: Mapping[str, Callable[[object], bool]] | None = None,
) -> bool:
    """Is there a homomorphism of cq into the target that extends `binding`
    and sends each variable of `value_filter` to an element its filter
    accepts?"""
    return _search(cq.atoms, target, dict(binding or {}), value_filter or {}, True) > 0


def hom_count(cq: CQ, target: HomTarget) -> int:
    """Number of homomorphisms of cq into the target: the product of the
    counts of its variable-connected components."""
    total = 1
    for component in _eval_components(cq):
        total *= _search(component, target, {}, {}, False)
        if total == 0:
            return 0
    return total


def hom_assignments(cq: CQ, target: HomTarget) -> list[dict[str, object]]:
    """Every homomorphism of cq into the target, as a variable binding."""
    found: list[dict[str, object]] = []
    _search(cq.atoms, target, {}, {}, False, found)
    return found


def query_hom_exists(src: CQ, dst: CQ) -> bool:
    """Is there a homomorphism src -> dst?

    Constants are fixed, relational atoms must map onto atoms of dst, and
    each disequality of src must land on a pair that dst guarantees
    distinct (a disequality atom of dst, or two distinct constants).
    """
    return hom_exists(src, query_target(dst))


def hom_minimal(queries: Iterable[CQ]) -> list[CQ]:
    """The queries sorted by canonical form, without each one that another
    query maps into.  Of a hom-equivalent pair only the smaller canonical
    form stays.  Dropping a query whose witness is dropped later is
    harmless, because homomorphisms compose.
    """
    queries = sorted(queries, key=canonical_form)
    kept: list[CQ] = []
    for q in queries:
        for other in queries:
            if other is q or not query_hom_exists(other, q):
                continue
            if query_hom_exists(q, other) and canonical_form(q) < canonical_form(other):
                continue  # hom-equivalent pair: keep the smaller form only
            break
        else:
            kept.append(q)
    return kept


# ---------------------------------------------------------------------------
# Unification
# ---------------------------------------------------------------------------

def unify_atoms(a: Atom, b: Atom) -> dict[str, Term] | None:
    """Most general unifier of two relational atoms with the same
    predicate, as a variable substitution; None when they do not unify."""
    if a.kind != b.kind or a.predicate != b.predicate or a.kind == NEQ_ATOM:
        return None
    mapping: dict[str, Term] = {}

    def resolve(t: Term) -> Term:
        while t.is_var and t.name in mapping:
            t = mapping[t.name]
        return t

    for t1, t2 in zip(a.terms, b.terms):
        r1, r2 = resolve(t1), resolve(t2)
        if r1 == r2:
            continue
        if r1.is_var:
            mapping[r1.name] = r2
        elif r2.is_var:
            mapping[r2.name] = r1
        else:
            return None  # two distinct constants
    # Flatten chains so every image is fully resolved.
    flat: dict[str, Term] = {}
    for name in list(mapping):
        flat[name] = resolve(var(name))
    return flat


# ---------------------------------------------------------------------------
# Disequality augmentation
# ---------------------------------------------------------------------------

def with_all_pairs_neq(cq: CQ, pinned_constants: tuple[str, ...] = ()) -> CQ:
    """Add a disequality for every variable pair and every variable/constant
    pair (constant pairs are distinct already).

    Pinning variables away from constants, not just from each other, keeps
    homomorphisms of the resulting query injective on terms.  The pinned
    set may extend beyond the query's own constants: in a union, a
    variable must also be distinguished from the constants of the other
    disjuncts, whose supports it could otherwise shadow.
    """
    atoms = list(cq.atoms)
    vs = [var(v) for v in cq.variables()]
    cs = [Term(CONST, c) for c in sorted(set(cq.constants()) | set(pinned_constants))]
    for i, t1 in enumerate(vs):
        for t2 in vs[i + 1:]:
            atoms.append(neq_atom(t1, t2))
        for c in cs:
            atoms.append(neq_atom(t1, c))
    return CQ(tuple(atoms))


def max_relational_size(ucq: UCQ) -> int:
    return max(len(d.relational_atoms()) for d in ucq.disjuncts)
