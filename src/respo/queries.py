"""Query algebra shared by the rewriter and the counting pipelines:
substitution, canonical variable naming, unification, disequality
augmentation and the package's one homomorphism search.

The search maps a query into a `HomTarget` (fact databases, other
queries, canonical-model slices) and decides or lists its homomorphisms.
The partition and interaction-free pipelines count over data without
it: they sum weight products by variable elimination, in `elimination`,
which imports nothing from this module.
"""

from __future__ import annotations

from itertools import permutations
from typing import Callable, Collection, Iterable, Mapping, NamedTuple

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


def fresh_var(taken: set[str]) -> str:
    i = 0
    while f"w{i}" in taken:
        i += 1
    return f"w{i}"


# ---------------------------------------------------------------------------
# Canonical forms
# ---------------------------------------------------------------------------

def _atom_signature(atom: Atom, t: Term):
    # A disequality is unordered, so only its other side counts.
    positions = () if atom.kind == NEQ_ATOM else tuple(
        i for i, term in enumerate(atom.terms) if term == t
    )
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


def _canonical(cq: CQ) -> tuple[tuple, tuple[str, ...], int]:
    """The canonical key of cq, the first variable ordering that attains
    it, and the number of orderings that do: the minimal sorted atom tuple
    over all variable orderings compatible with the variables' structural
    signatures."""
    names = cq.variables()
    if not names:
        return tuple(_render_atom(a, {}) for a in cq.atoms), (), 1

    groups: dict[tuple, list[str]] = {}
    for name in names:
        groups.setdefault(_variable_signature(cq, name), []).append(name)
    ordered_groups = [groups[sig] for sig in sorted(groups)]

    best_key: tuple | None = None
    best_order: tuple[str, ...] = ()
    ties = 0
    for ordering in _group_orderings(ordered_groups):
        rename = {name: i for i, name in enumerate(ordering)}
        key = tuple(sorted(_render_atom(a, rename) for a in cq.atoms))
        if best_key is None or key < best_key:
            best_key, best_order, ties = key, ordering, 1
        elif key == best_key:
            ties += 1
    return best_key, best_order, ties


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
    if atom.kind == NEQ_ATOM:
        parts.sort()  # x != y and y != x are the same atom
    return (atom.kind, atom.predicate or "", tuple(parts))


def canonicalize(cq: CQ) -> tuple[tuple, CQ, int]:
    """The canonical form of cq, a renaming-invariant key; cq with
    canonical variable names v0, v1, ...; and the number of variable
    orderings that attain the key, all from one search.

    Two CQs have equal canonical forms iff they are identical up to
    variable renaming and the orientation of disequalities.  Intended for
    the small queries handled by the reduct/rewriting machinery.

    Two orderings that attain the key differ by a permutation of the
    variables that maps cq's atoms onto themselves, and every such
    permutation preserves the variables' signatures, so the number is
    the count of those permutations.  On a rigid query
    (`with_all_pairs_neq`) every homomorphism into itself is such a
    permutation, so the number is its automorphism count.
    """
    key, order, ties = _canonical(cq)
    if not order:
        return key, cq, ties
    return key, substitute(cq, {name: var(f"v{i}") for i, name in enumerate(order)}), ties


# ---------------------------------------------------------------------------
# Homomorphism search
# ---------------------------------------------------------------------------

class HomTarget:
    """What a homomorphism search maps a query into.

    `tuples` holds the candidate tuples of each (predicate, arity) in a
    container supporting iteration and `in`.  `image` sends a query
    constant's name to its element, or to None when the constant names no
    element: an atom using it then has no match, and a disequality with it
    holds.  Distinct constants denote distinct elements (unique names), so
    a disequality between two constants always holds.  `distinct(a, b)`
    decides whether elements a and b satisfy a disequality.
    """

    def __init__(
        self,
        tuples: Mapping[tuple[str, int], Collection[tuple]],
        image: Callable[[str], object],
        distinct: Callable[[object, object], bool],
    ):
        self.tuples = tuples
        self.image = image
        self.distinct = distinct


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


class _Step(NamedTuple):
    """One relational atom of a search, in search order.  A slot is
    (variable name, None) or (None, constant's element).  `closed` when
    every argument is bound before the step; `checks` are the
    disequalities whose last side the step binds."""

    key: tuple[str, int]
    slots: tuple[tuple[str | None, object], ...]
    closed: bool
    checks: list


def _steps(atoms: Iterable[Atom], target: HomTarget) -> list[_Step] | None:
    """The search plan of the atoms, or None when no homomorphism can
    exist: constants resolved, the relational atoms ordered most
    constrained first (fewest variables, then sharing a variable with what
    is bound), and each disequality scheduled at the step that binds its
    last variable."""
    image, tuples = target.image, target.tuples
    pending, neqs = [], []
    for atom in atoms:
        if atom.kind == NEQ_ATOM:
            neqs.append(atom)
            continue
        key = (atom.predicate, len(atom.terms))
        if key not in tuples:
            return None
        pending.append((atom, key, {t.name for t in atom.terms if t.kind == VAR}))
    pending.sort(key=lambda p: len(p[2]))
    bound: dict[str, int] = {}  # the step that binds each variable
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
                    return None
                slots.append((None, value))
        steps.append(_Step(key, tuple(slots), names <= bound.keys(), []))
        for name in names:
            bound.setdefault(name, len(steps) - 1)

    for atom in neqs:
        sides = []
        for t in atom.terms:
            if t.is_var and t.name not in bound:
                raise RespoError(
                    f"disequality variable ?{t.name} occurs in no relational atom"
                )
            sides.append((t.name, None) if t.is_var else (None, image(t.name)))
        if any(name is None and value is None for name, value in sides):
            continue  # a constant naming no element differs from every element
        names = [name for name, _ in sides if name is not None]
        if names:  # two distinct constants denote distinct elements
            steps[max(bound[name] for name in names)].checks.append(sides)
    return steps


def _search(
    atoms: Iterable[Atom],
    target: HomTarget,
    first_only: bool,
    visit: Callable[[Mapping[str, object]], None] | None = None,
) -> int:
    """The homomorphism search: backtracking over the steps of `_steps`,
    binding variables to the elements of candidate tuples.  Returns the
    number of homomorphisms (stopping at the first one when `first_only`)
    and passes each one's binding to `visit` when given.  Each
    disequality is checked as soon as both sides are bound, and a closed
    step is a membership test.
    """
    steps = _steps(atoms, target)
    if steps is None:
        return 0
    distinct, tuples = target.distinct, target.tuples
    binding: dict[str, object] = {}

    def satisfied(checks) -> bool:
        for (n1, c1), (n2, c2) in checks:
            if not distinct(c1 if n1 is None else binding[n1], c2 if n2 is None else binding[n2]):
                return False
        return True

    def extend(i: int) -> int:
        if i == len(steps):
            if visit is not None:
                visit(binding)
            return 1
        key, slots, closed, checks = steps[i]
        if closed:
            values = tuple(value if name is None else binding[name] for name, value in slots)
            return extend(i + 1) if values in tuples[key] else 0
        total = 0
        for values in tuples[key]:
            fresh = []
            for (name, const_value), value in zip(slots, values):
                if name is None:
                    if value != const_value:
                        break
                elif name in binding:
                    if binding[name] != value:
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


def hom_exists(cq: CQ, target: HomTarget) -> bool:
    """Is there a homomorphism of cq into the target?"""
    return _search(cq.atoms, target, True) > 0


def hom_visit(
    cq: CQ, target: HomTarget, visit: Callable[[Mapping[str, object]], None]
) -> int:
    """Pass each homomorphism of cq into the target to `visit`, in one
    search, and return their number.  The binding passed is the search's
    own and changes after `visit` returns: copy it to keep it."""
    return _search(cq.atoms, target, False, visit)


def hom_minimal(forms: Mapping[tuple, CQ]) -> list[CQ]:
    """The queries of `forms`, which maps canonical forms to queries,
    sorted by form, without each one that another query maps into.  Of a
    hom-equivalent pair only the one with fewer atoms stays, the smaller
    canonical form on a tie, so a query's core wins over its padded
    copies.  Dropping a query whose witness is dropped later is harmless,
    because homomorphisms compose.  Each query becomes a target once."""
    keys = sorted(forms)
    targets = {key: query_target(forms[key]) for key in keys}
    kept: list[CQ] = []
    for key in keys:
        q = forms[key]
        for other_key in keys:
            other = forms[other_key]
            if other_key == key or not hom_exists(other, targets[key]):
                continue
            if hom_exists(q, targets[other_key]) and (len(q.atoms), key) < (len(other.atoms), other_key):
                continue  # hom-equivalent pair: keep the smaller query only
            break
        else:
            kept.append(q)
    return kept


# ---------------------------------------------------------------------------
# Unification
# ---------------------------------------------------------------------------

def unify_terms(pairs: Iterable[tuple[Term, Term]]) -> dict[str, Term] | None:
    """The most general variable substitution that makes the two terms of
    every pair equal, each image fully resolved; None when it would equate
    two distinct constants."""
    mapping: dict[Term, Term] = {}

    def resolve(t: Term) -> Term:
        while t in mapping:
            t = mapping[t]
        return t

    for pair in pairs:
        r1, r2 = sorted(map(resolve, pair), key=lambda t: t.is_const)
        if r1 == r2:
            continue
        if r1.is_const:
            return None  # two distinct constants
        mapping[r1] = r2
    return {t.name: resolve(t) for t in mapping}


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
