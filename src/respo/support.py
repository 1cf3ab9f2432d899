"""Minimal-support counting.

Three routes live here:

  * a brute-force oracle that enumerates inclusion-minimal satisfying
    subsets behind any monotone evaluator;
  * an image-based enumerator for plain databases (every minimal support
    is the image of some query homomorphism, so inclusion-minimal images
    are exactly the minimal supports) that scales past subset enumeration;
  * the reduct/automorphism partition: per size k, the minimal supports of
    a UCQ split across rigidified reducts, and each reduct's supports are
    counted as homomorphisms divided by its automorphism count.  The same
    homomorphisms, enumerated once per counting query, credit each fact
    in their image and so give every fact's counts in one pass.

The counting queries depend on the query alone: `counting_queries` builds
those of every size from one enumeration of the reducts, and a
`shapley.Plan` keeps them for every database.  Nothing here is cached.

Every homomorphism count, test and enumeration, into a `FactDB` or into
another query, runs on the one search in `queries`.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Callable, Iterable, Mapping

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
    canonicalize,
    canonicalize_counted,
    hom_assignments,
    hom_count,
    hom_exists,
    hom_visit,
    max_relational_size,
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

    def fact_of(self, atom: Atom, binding: Mapping[str, object]) -> Fact:
        """The fact that a homomorphism with this binding maps the
        relational atom onto."""
        args = tuple(binding[t.name] if t.is_var else t.name for t in atom.terms)
        return self.tuples[(atom.predicate, len(atom.terms))][args]


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
        ground = ground_atom_query(ucq)

        def horn_eval(facts: frozenset[Fact]) -> bool:
            return entails_ground_atom(facts, tbox, ground)

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


def ground_atom_query(query: CQ | UCQ) -> Atom:
    """The query's one atom, which must be relational and ground: the
    queries that Horn-extended TBoxes and the provenance pipeline take."""
    ucq = as_ucq(query)
    atoms = ucq.disjuncts[0].atoms if len(ucq.disjuncts) == 1 else ()
    if len(atoms) != 1 or not atoms[0].is_relational or any(t.is_var for t in atoms[0].terms):
        raise UnsupportedTBoxError(
            "Horn-extended TBoxes and the provenance pipeline take ground atomic queries only"
        )
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
    exhaustive subset search in order of size.  Exponential; oracle use
    only.

    A subset holding a support found at a smaller size is skipped
    unevaluated.  Any other subset that satisfies is minimal: a
    satisfying proper subset would hold a minimal support of smaller
    size, which the earlier sizes found.  Nothing but the supports is
    kept, so memory stays linear in their number.
    """
    pool = tuple(facts)
    cap = len(pool) if size_cap is None else min(size_cap, len(pool))
    out: list[MinimalSupport] = []
    for k in range(cap + 1):
        for combo in combinations(pool, k):
            s = frozenset(combo)
            if not any(m.facts <= s for m in out) and evaluator(s):
                out.append(MinimalSupport(s))
    return out


def count_fms_brute(
    facts: Iterable[Fact], evaluator: Evaluator, size_cap: int | None = None
) -> SupportHistogram:
    supports = enumerate_minimal_supports(facts, evaluator, size_cap)
    return SupportHistogram.from_sizes(len(s) for s in supports)


# Each fact's per-size counts of the minimal supports containing it.
FactCounts = dict[Fact, dict[int, int]]


def tally_fact_counts(
    facts: Iterable[Fact], supports: Iterable[MinimalSupport]
) -> tuple[SupportHistogram, FactCounts]:
    """The histogram of the supports and each fact's per-size counts of
    those containing it, in one pass over the supports."""
    supports = list(supports)
    counts: FactCounts = {f: {} for f in facts}
    for s in supports:
        for f in s.facts:
            counts[f][len(s)] = counts[f].get(len(s), 0) + 1
    histogram = SupportHistogram.from_sizes(len(s) for s in supports)
    return histogram, {f: dict(sorted(c.items())) for f, c in counts.items()}


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
            images.add(frozenset(db.fact_of(atom, binding) for atom in rel))
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


def _all_reducts(ucq: UCQ) -> dict[tuple, CQ]:
    """Every reduct of any disjunct, keyed by canonical form: collapse
    variable blocks onto a representative variable or onto a constant of
    the union (a support can place a variable on any named constant,
    including one only another disjunct mentions), drop duplicate atoms.
    Collapses that identify the two sides of a disequality are
    unsatisfiable and skipped."""
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
                        key, reduct = canonicalize(substitute(disjunct, dict(mapping)))
                    except UnsatisfiableQuery:
                        return
                    seen.setdefault(key, reduct)
                    return
                for target in targets_per_block[i]:
                    new = dict(mapping)
                    for name in part[i]:
                        new[name] = target
                    assign(i + 1, new)

            assign(0, {})
    return seen


def _rigid_reducts(ucq: UCQ) -> dict[int, list[tuple[CQ, CQ]]]:
    """Each reduct of every size k, 1 up to the largest disjunct, that no
    smaller reduct maps into, with its disequality-completed (rigid) form,
    from one enumeration of all reducts.  The minimality test targets the
    rigid form of the candidate: that is the shape whose supports are
    rigid, so a smaller reduct mapping into it witnesses a smaller support
    inside every one of its supports.  Each reduct is rigidified once, and
    `counting_queries` reuses the form."""
    everything = _all_reducts(ucq)
    pins = ucq_constants(ucq)
    out = {}
    for k in range(1, max_relational_size(ucq) + 1):
        smaller = [q for q in everything.values() if len(q.relational_atoms()) < k]
        minimal = []
        for key in sorted(everything):
            q = everything[key]
            if len(q.relational_atoms()) != k:
                continue
            rigid = with_all_pairs_neq(q, pins)
            if not any(query_hom_exists(small, rigid) for small in smaller):
                minimal.append((q, rigid))
        out[k] = minimal
    return out


def reducts(ucq: CQ | UCQ) -> dict[int, tuple[CQ, ...]]:
    """The reducts of every size k that no smaller reduct maps into (see
    `_rigid_reducts`)."""
    return {k: tuple(q for q, _ in found) for k, found in _rigid_reducts(as_ucq(ucq)).items()}


@dataclass(frozen=True)
class CountingQuery:
    """A rigidified reduct: all-pairs disequalities with coefficient
    gamma = 1 / |Auto|."""

    cq: CQ
    gamma: Fraction


def count_automorphisms(cq: CQ) -> int:
    """Number of disequality-respecting homomorphisms of cq onto itself,
    by a search: the oracle for the gamma that `counting_queries` reads
    off the canonical search."""
    n = hom_count(cq, query_target(cq))
    if n < 1:
        raise RespoError("a satisfiable query has at least the identity automorphism")
    return n


def counting_queries(ucq: CQ | UCQ) -> dict[int, tuple[CountingQuery, ...]]:
    """The counting queries of every support size, 1 up to the largest
    disjunct: each size's reducts rigidified, isomorphic copies dropped, in
    canonical order.  They depend on the query alone, so one set serves
    every database.

    The rigid queries need no further pruning: a homomorphism between two
    of them is injective on terms (all pairs are distinct), so it maps the
    k atoms of one onto the k atoms of the other and is an isomorphism,
    which the canonical form already merged.

    gamma comes from the same canonical search: on a rigid query, the
    variable orderings that attain its canonical key number |Auto| (see
    `queries.canonicalize_counted`).  `count_automorphisms` is the
    independent check the tests hold it to.
    """
    out = {}
    for k, found in _rigid_reducts(as_ucq(ucq)).items():
        rigid: dict[tuple, CountingQuery] = {}
        for _, form in found:
            key, aug, automorphisms = canonicalize_counted(form)
            rigid.setdefault(key, CountingQuery(cq=aug, gamma=Fraction(1, automorphisms)))
        out[k] = tuple(rigid[key] for key in sorted(rigid))
    return out


# ---------------------------------------------------------------------------
# Partition counting
# ---------------------------------------------------------------------------

def count_fms_partition(
    queries: Iterable[CountingQuery], facts: Iterable[Fact] | FactDB
) -> int:
    """countFMS(k) as the gamma-weighted sum of homomorphism counts over
    the size-k counting queries.  The sum is integral by construction; a
    fractional result signals a pipeline bug."""
    db = facts if isinstance(facts, FactDB) else FactDB(facts)
    total = Fraction(0)
    for cq in queries:
        n = count_homomorphisms(cq.cq, db)
        total += n * cq.gamma
    if total.denominator != 1:
        raise RespoError(f"non-integral partition count {total}")
    return int(total)


def partition_histogram(
    queries: Mapping[int, Iterable[CountingQuery]], facts: Iterable[Fact] | FactDB
) -> SupportHistogram:
    """countFMS per size from the counting queries of each size (see
    `counting_queries`)."""
    db = facts if isinstance(facts, FactDB) else FactDB(facts)
    return SupportHistogram({k: count_fms_partition(qs, db) for k, qs in queries.items()})


def partition_fact_counts(
    queries: Mapping[int, Iterable[CountingQuery]], facts: Iterable[Fact] | FactDB
) -> tuple[SupportHistogram, FactCounts]:
    """`partition_histogram`, and each fact's per-size counts of the
    minimal supports containing it, from one search per counting query.

    A counting query is rigid, so each of its homomorphisms is injective
    and its image is one size-k support; each size-k minimal support is
    the image of |Auto_q| homomorphisms of exactly one size-k counting
    query q, which gamma_q = 1/|Auto_q| cancels.  A fact's size-k count,
    the size-k histogram over D minus the one over D without the fact, is
    therefore the sum over q of gamma_q times the number of q's
    homomorphisms whose image holds the fact.  The integer hits of each
    (query, fact) pair are weighted by gamma once, and every sum must be
    integral, like the totals.
    """
    db = facts if isinstance(facts, FactDB) else FactDB(facts)
    totals: dict[int, int] = {}
    counts: FactCounts = {f: {} for f in db.facts}
    for k, qs in queries.items():
        total = Fraction(0)
        sums: dict[Fact, Fraction] = {}
        for q in qs:
            hits: dict[Fact, int] = {}
            rel = q.cq.relational_atoms()

            def credit(binding):
                for atom in rel:
                    f = db.fact_of(atom, binding)
                    hits[f] = hits.get(f, 0) + 1

            total += hom_visit(q.cq, db, credit) * q.gamma
            for f, n in hits.items():
                sums[f] = sums.get(f, 0) + n * q.gamma
        totals[k] = _integral(total)
        for f, value in sums.items():
            counts[f][k] = _integral(value, f)
    return SupportHistogram(totals), counts


def _integral(value: Fraction, fact: Fact | None = None) -> int:
    if value.denominator != 1:
        where = "" if fact is None else f" for fact {fact.label}"
        raise RespoError(f"non-integral partition count {value}{where}")
    return int(value)
