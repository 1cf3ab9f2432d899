"""Minimal-support counting.

Three routes live here:

  * a brute-force oracle that enumerates inclusion-minimal satisfying
    subsets behind any monotone evaluator;
  * an image-based enumerator for plain databases (every minimal support
    is the image of some query homomorphism, so inclusion-minimal images
    are exactly the minimal supports) that scales past subset enumeration;
  * the reduct/automorphism partition: per size k, the minimal supports of
    a UCQ split across rigidified reducts, and each reduct's supports are
    counted as homomorphisms divided by its automorphism count.

Every homomorphism count, test and enumeration, into a `FactDB` or into
another query, runs on the one search in `queries`.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from typing import Callable, Iterable

from .model import (
    ABox,
    Atom,
    CQ,
    Fact,
    RespoError,
    SupportHistogram,
    TBox,
    UCQ,
    UnsupportedTBoxError,
    as_ucq,
)
from .queries import (
    HomTarget,
    UnsatisfiableQuery,
    canonical_form,
    canonicalize,
    hom_assignments,
    hom_count,
    hom_exists,
    hom_minimal,
    query_hom_exists,
    query_target,
    substitute,
    with_all_pairs_neq,
)
from .reasoner import entails_ground_atom, entails_ucq

Evaluator = Callable[[frozenset[Fact]], bool]


# ---------------------------------------------------------------------------
# Fact databases and homomorphism counting
# ---------------------------------------------------------------------------

class FactDB(HomTarget):
    """A fact set as a homomorphism target: the argument tuples of each
    (predicate, arity), each mapped to its fact.  Constants denote
    themselves, and a disequality holds between distinct constants."""

    def __init__(self, facts: Iterable[Fact]):
        self.facts = tuple(facts)
        tuples: dict[tuple[str, int], dict[tuple[str, ...], Fact]] = {}
        for f in self.facts:
            tuples.setdefault((f.predicate, len(f.args)), {})[f.args] = f
        super().__init__(tuples, lambda name: name, operator.ne)


def count_homomorphisms(cq: CQ, facts: Iterable[Fact] | FactDB) -> int:
    """Number of assignments of cq's variables into the database constants
    satisfying every atom (constants fixed, disequalities as distinctness)."""
    db = facts if isinstance(facts, FactDB) else FactDB(facts)
    return hom_count(cq, db)


def cq_holds(cq: CQ, db: FactDB) -> bool:
    return hom_exists(cq, db)


def ucq_holds(ucq: UCQ, facts: Iterable[Fact] | FactDB) -> bool:
    db = facts if isinstance(facts, FactDB) else FactDB(facts)
    return any(cq_holds(d, db) for d in ucq.disjuncts)


# ---------------------------------------------------------------------------
# Subset evaluators
# ---------------------------------------------------------------------------

def make_subset_evaluator(tbox: TBox, query: CQ | UCQ) -> Evaluator:
    """A monotone `subset of facts |= (T, q)` test, choosing the cheapest
    sound route for the TBox flavor."""
    ucq = as_ucq(query)

    if tbox.horn_extended:
        ground = _single_ground_atom(ucq)
        if ground is None:
            raise UnsupportedTBoxError(
                "Horn-extended TBoxes are evaluated on ground atomic queries only"
            )

        def horn_eval(facts: frozenset[Fact]) -> bool:
            abox = ABox(tuple(sorted(facts, key=lambda f: f.label)))
            return entails_ground_atom(abox, tbox, ground)

        return horn_eval

    if not any(not ax.negated for ax in tbox.axioms):
        # Negative axioms affect consistency only; evaluation over the
        # facts themselves is exact.
        def db_eval(facts: frozenset[Fact]) -> bool:
            return ucq_holds(ucq, facts)

        return db_eval

    if any(d.neq_atoms() for d in ucq.disjuncts):
        # Canonical-model matching of disequality queries is not monotone
        # under positive inclusions (a named witness can displace an
        # anonymous one), so minimal supports are not well-behaved.
        raise UnsupportedTBoxError(
            "disequality queries are supported over plain databases only"
        )

    def kb_eval(facts: frozenset[Fact]) -> bool:
        abox = ABox(tuple(sorted(facts, key=lambda f: f.label)))
        return entails_ucq(abox, tbox, ucq)

    return kb_eval


def _single_ground_atom(ucq: UCQ) -> Atom | None:
    if len(ucq.disjuncts) != 1:
        return None
    atoms = ucq.disjuncts[0].atoms
    if len(atoms) != 1 or not atoms[0].is_relational:
        return None
    if any(t.is_var for t in atoms[0].terms):
        return None
    return atoms[0]


# ---------------------------------------------------------------------------
# Brute-force enumeration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MinimalSupport:
    facts: frozenset[Fact]

    def labels(self) -> tuple[str, ...]:
        return tuple(sorted(f.label for f in self.facts))

    def __len__(self) -> int:
        return len(self.facts)


def enumerate_minimal_supports(
    facts: Iterable[Fact],
    evaluator: Evaluator,
    size_cap: int | None = None,
) -> list[MinimalSupport]:
    """All inclusion-minimal satisfying subsets (monotone evaluator), by
    exhaustive subset search.  Exponential; oracle use only.

    For a monotone evaluator, S is minimal iff S satisfies and no single
    deletion does: any satisfying proper subset would survive inside some
    single-deletion subset.
    """
    pool = tuple(facts)
    cap = len(pool) if size_cap is None else min(size_cap, len(pool))
    memo: dict[frozenset[Fact], bool] = {}

    def sat(s: frozenset[Fact]) -> bool:
        if s not in memo:
            memo[s] = evaluator(s)
        return memo[s]

    out: list[MinimalSupport] = []
    for k in range(cap + 1):
        for combo in combinations(pool, k):
            s = frozenset(combo)
            if not sat(s):
                continue
            if all(not sat(s - {f}) for f in s):
                out.append(MinimalSupport(s))
    return out


def count_fms_brute(
    facts: Iterable[Fact], evaluator: Evaluator, size_cap: int | None = None
) -> SupportHistogram:
    supports = enumerate_minimal_supports(facts, evaluator, size_cap)
    return SupportHistogram.from_sizes(len(s) for s in supports)


def minimal_supports_via_hom_images(
    ucq: CQ | UCQ, facts: Iterable[Fact]
) -> list[MinimalSupport]:
    """Minimal supports of a UCQ over a plain database, as the
    inclusion-minimal homomorphism images.  Sound because every minimal
    support is covered exactly by some homomorphism image, and every image
    is a support."""
    ucq = as_ucq(ucq)
    db = FactDB(facts)
    images: set[frozenset[Fact]] = set()
    for disjunct in ucq.disjuncts:
        rel = disjunct.relational_atoms()
        for binding in hom_assignments(disjunct, db):
            images.add(frozenset(
                db.tuples[(atom.predicate, len(atom.terms))][
                    tuple(binding[t.name] if t.is_var else t.name for t in atom.terms)
                ]
                for atom in rel
            ))
    minimal = [
        s for s in images if not any(other < s for other in images)
    ]
    return [MinimalSupport(s) for s in sorted(minimal, key=lambda s: sorted(f.label for f in s))]


# ---------------------------------------------------------------------------
# Reducts and counting queries
# ---------------------------------------------------------------------------

def _partitions(items: list[str]):
    """All set partitions, as lists of blocks."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in _partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1:]
        yield [[first]] + part


def ucq_constants(ucq: UCQ) -> tuple[str, ...]:
    out: set[str] = set()
    for d in ucq.disjuncts:
        out.update(d.constants())
    return tuple(sorted(out))


@lru_cache(maxsize=None)
def _all_reducts(ucq: UCQ) -> tuple[CQ, ...]:
    """Every reduct of any disjunct: collapse variable blocks onto a
    representative variable or onto a constant of the union (a support can
    place a variable on any named constant, including one only another
    disjunct mentions), drop duplicate atoms.  Collapses that identify the
    two sides of a disequality are unsatisfiable and skipped."""
    from .model import Term, CONST, var as mkvar

    seen: dict[tuple, CQ] = {}
    consts = ucq_constants(ucq)
    for disjunct in ucq.disjuncts:
        names = list(disjunct.variables())
        for part in _partitions(names):
            targets_per_block = []
            for block in part:
                options: list[Term] = [mkvar(block[0])]
                options.extend(Term(CONST, c) for c in consts)
                targets_per_block.append(options)

            def assign(i: int, mapping: dict[str, Term]):
                if i == len(part):
                    try:
                        reduct = canonicalize(substitute(disjunct, dict(mapping)))
                    except UnsatisfiableQuery:
                        return
                    seen.setdefault(canonical_form(reduct), reduct)
                    return
                for target in targets_per_block[i]:
                    new = dict(mapping)
                    for name in part[i]:
                        new[name] = target
                    assign(i + 1, new)

            assign(0, {})
    return tuple(seen.values())


def reducts(ucq: CQ | UCQ, k: int) -> tuple[CQ, ...]:
    """Reducts with exactly k relational atoms that no smaller reduct maps
    into.  The minimality test targets the disequality-completed form of
    the candidate: that is the shape whose supports are rigid, so a
    smaller reduct mapping into it witnesses a smaller support inside
    every one of its supports."""
    if k < 1:
        raise ValueError("reduct size must be >= 1")
    ucq = as_ucq(ucq)
    everything = _all_reducts(ucq)
    pins = ucq_constants(ucq)
    smaller = [q for q in everything if len(q.relational_atoms()) < k]
    out = []
    for q in everything:
        if len(q.relational_atoms()) != k:
            continue
        rigid = with_all_pairs_neq(q, pins)
        if any(query_hom_exists(small, rigid) for small in smaller):
            continue
        out.append(q)
    return tuple(sorted(out, key=canonical_form))


@dataclass(frozen=True)
class CountingQuery:
    """A rigidified reduct: all-pairs disequalities with coefficient
    gamma = 1 / |Auto|."""

    cq: CQ
    gamma: Fraction


def count_automorphisms(cq: CQ) -> int:
    """Number of disequality-respecting homomorphisms of cq onto itself."""
    n = hom_count(cq, query_target(cq))
    if n < 1:
        raise RespoError("a satisfiable query has at least the identity automorphism")
    return n


def build_counting_queries(ucq: CQ | UCQ, k: int) -> tuple[CountingQuery, ...]:
    """Rigidify the size-k reducts and prune hom-redundant ones.

    Disequalities are present before the pruning pass and every
    homomorphism test respects them; pruning keeps the hom-minimal
    queries.
    """
    ucq = as_ucq(ucq)
    pins = ucq_constants(ucq)
    rigid: dict[tuple, CQ] = {}
    for q in reducts(ucq, k):
        aug = canonicalize(with_all_pairs_neq(q, pins))
        rigid.setdefault(canonical_form(aug), aug)
    return tuple(
        CountingQuery(cq=q, gamma=Fraction(1, count_automorphisms(q)))
        for q in hom_minimal(rigid.values())
    )


# ---------------------------------------------------------------------------
# Partition counting
# ---------------------------------------------------------------------------

def count_fms_partition(ucq: CQ | UCQ, k: int, facts: Iterable[Fact] | FactDB) -> int:
    """countFMS(k) as the gamma-weighted sum of homomorphism counts over
    the counting queries.  The sum is integral by construction; a
    fractional result signals a pipeline bug."""
    db = facts if isinstance(facts, FactDB) else FactDB(facts)
    total = Fraction(0)
    for cq in build_counting_queries(ucq, k):
        n = count_homomorphisms(cq.cq, db)
        total += n * cq.gamma
    if total.denominator != 1:
        raise RespoError(f"non-integral partition count {total}")
    return int(total)


def partition_histogram(ucq: CQ | UCQ, facts: Iterable[Fact] | FactDB) -> SupportHistogram:
    ucq = as_ucq(ucq)
    db = facts if isinstance(facts, FactDB) else FactDB(facts)
    max_k = max(len(d.relational_atoms()) for d in ucq.disjuncts)
    return SupportHistogram(
        {k: count_fms_partition(ucq, k, db) for k in range(1, max_k + 1)}
    )

