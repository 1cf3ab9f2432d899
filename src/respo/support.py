"""Minimal-support counting.

Three pieces live here:

  * brute-force enumeration of the inclusion-minimal satisfying subsets
    behind any monotone evaluator, which brute-force scoring and the
    drastic Shapley value off Horn-extended TBoxes run; the evaluator of
    a DL-Lite_R KB with positive inclusions matches the query into its
    canonical model, and only it imports `canonical`, so partition
    scoring compiles none of it;
  * the reduct/automorphism partition: per size k, the minimal supports of
    a UCQ split across rigidified reducts (the counting queries), each
    reduct's supports counted as homomorphisms divided by its
    automorphism count; `emit-sql` emits these queries;
  * the homomorphism basis that scoring counts with: Moebius inversion
    over labelled partitions turns the counting queries' injective counts
    into a weighted sum of homomorphism counts of plain quotients of the
    disjuncts.  Each term counts by variable elimination, and its
    homomorphisms and every fact's counts come from the per-atom
    marginals of one pass (`elimination.marginals`), so no homomorphism into
    the data is enumerated.

The counting queries and the basis depend on the query alone, and both
come from one pass, `_minimal_classes`, over the disjuncts' quotients; a
`shapley.Plan` keeps the basis, with each term's elimination order and
inclusion-exclusion quotients, for every database.  Nothing here is
cached.  The tests hold these counts to the reference
implementations in `tests/oracles.py`, most of them by enumeration.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from itertools import combinations
from math import lcm
from typing import Callable, Container, Iterable, Mapping, NamedTuple, Sequence

from .elimination import Table, elimination_order, marginals
from .model import (
    ABox,
    Atom,
    CQ,
    Fact,
    FactCounts,
    RespoError,
    SupportHistogram,
    TBox,
    Term,
    UCQ,
    UnsupportedTBoxError,
    as_ucq,
    const,
    value_class,
    var,
)
from .queries import (
    HomTarget,
    UnsatisfiableQuery,
    canonicalize,
    hom_exists,
    hom_visit,
    max_relational_size,
    query_target,
    substitute,
    unify_terms,
    with_all_pairs_neq,
)
from .reasoner import entails_ground_atom

Evaluator = Callable[[frozenset[Fact]], bool]


# ---------------------------------------------------------------------------
# Fact databases and homomorphism counting
# ---------------------------------------------------------------------------

class FactDB(HomTarget):
    """A fact set as a homomorphism target: the argument tuples of each
    (predicate, arity), in fact order.  Constants denote themselves, and a
    disequality holds between distinct constants."""

    def __init__(self, facts: Iterable[Fact]):
        tuples: dict[tuple[str, int], dict[tuple[str, ...], None]] = {}
        for f in facts:
            tuples.setdefault((f.predicate, len(f.args)), {})[f.args] = None
        super().__init__(tuples, lambda name: name, operator.ne)


def ucq_holds(ucq: UCQ, facts: Iterable[Fact]) -> bool:
    db = FactDB(facts)
    return any(hom_exists(d, db) for d in ucq.disjuncts)


# ---------------------------------------------------------------------------
# Subset evaluators
# ---------------------------------------------------------------------------

def make_subset_evaluator(tbox: TBox, query: CQ | UCQ) -> Evaluator:
    """A monotone `subset of facts |= (T, q)` test, choosing the cheapest
    sound route for the TBox flavor."""
    ucq = as_ucq(query)

    if tbox.horn_extended:
        from .provenance import ground_atom_query

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
    from .canonical import entails_ucq

    def kb_eval(facts: frozenset[Fact]) -> bool:
        abox = ABox(tuple(sorted(facts, key=lambda f: f.label)))
        return entails_ucq(abox, tbox, ucq)

    return kb_eval


# ---------------------------------------------------------------------------
# Brute-force enumeration
# ---------------------------------------------------------------------------

@value_class()
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
    exhaustive subset search in order of size.  Exponential: a brute
    `shapley.Plan` runs it, and its callers cap the number of facts.

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


# ---------------------------------------------------------------------------
# Reducts and counting queries
# ---------------------------------------------------------------------------

def ucq_constants(ucq: UCQ) -> tuple[str, ...]:
    out: set[str] = set()
    for d in ucq.disjuncts:
        out.update(d.constants())
    return tuple(sorted(out))


# A labelled partition of a query's variables, as the term each variable
# maps to, in `CQ.variables()` order: its block's first variable, or the
# constant that labels its block.
Images = tuple[Term, ...]


def _labelled_partitions(names: Sequence[str], consts: Sequence[str]):
    """Every labelled partition of the variables `names`: blocks of them,
    each unlabelled or labelled by a distinct constant of `consts`, as
    (images, mu).  mu is the Moebius value mu(bottom, pi) of the lattice
    whose bottom holds each variable and each constant in a block of its
    own and whose blocks never hold two constants: the product over
    blocks of (-1)^(j-1) (j-1)!, j the variables and constants merged
    into the block.  Joining a block of j members multiplies it by -j."""
    members: dict[Term, int] = {const(c): 1 for c in consts}
    images: list[Term] = []

    def extend(i: int, mu: int):
        if i == len(names):
            yield tuple(images), mu
            return
        for target in (*members, var(names[i])):
            j = members.get(target, 0)
            members[target] = j + 1
            images.append(target)
            yield from extend(i + 1, -j * mu if j else mu)
            images.pop()
            if j:
                members[target] = j
            else:
                del members[target]

    yield from extend(0, 1)


class _Quotient(NamedTuple):
    """A reduct in canonical names, the variable orderings that attain its
    canonical key, and its first realization: the disjunct's index and
    the labelled partition that yields it."""

    cq: CQ
    ties: int
    disjunct: int
    images: Images


def _quotients(
    ucq: UCQ, whole: Container[int]
) -> tuple[list[dict[Images, tuple | None]], dict[tuple, _Quotient]]:
    """Every quotient d/rho of every disjunct d by a labelled partition
    rho of its variables over the constants of the union (a support can
    place a variable on any named constant, including one only another
    disjunct mentions), canonicalized once: for each disjunct, the key of
    d/rho by rho's images, None where rho collapses the two sides of a
    disequality; and for each key its `_Quotient`.  A disjunct whose index
    is in `whole` yields only itself, the quotient by the finest partition."""
    consts = ucq_constants(ucq)
    tables: list[dict[Images, tuple | None]] = []
    forms: dict[tuple, _Quotient] = {}
    for i, disjunct in enumerate(ucq.disjuncts):
        names = disjunct.variables()
        table: dict[Images, tuple | None] = {}
        finest = [(tuple(map(var, names)), 1)]
        for images, _ in finest if i in whole else _labelled_partitions(names, consts):
            try:
                key, cq, ties = canonicalize(
                    substitute(disjunct, dict(zip(names, images)))
                )
            except UnsatisfiableQuery:
                key = None
            else:
                forms.setdefault(key, _Quotient(cq, ties, i, images))
            table[images] = key
        tables.append(table)
    return tables, forms


class _Class(NamedTuple):
    """A class of reducts with isomorphic rigid forms: its first quotient,
    that quotient's rigid form, and |Auto| of the rigid form."""

    quotient: _Quotient
    rigid: CQ
    ties: int


def _minimal_classes(
    ucq: UCQ, whole: Container[int]
) -> tuple[list[dict[Images, tuple | None]], dict[tuple, _Quotient], dict[int, list[_Class]]]:
    """The quotients of the disjuncts (`_quotients`), and for every size k,
    1 up to the largest disjunct, the classes of size-k reducts that no
    smaller reduct maps into; a disjunct in `whole` yields itself and no
    class.

    The rigid (disequality-completed) forms of two reducts are isomorphic
    iff their relational atoms are, since a permutation of the variables
    keeps the all-pairs disequalities; so reducts are merged by the
    canonical form of their relational atoms alone, and the orderings
    that attain it number the automorphisms of the rigid form.  Each
    class is rigidified once.  The minimality test (`_minimal`) targets
    the rigid form: that is the shape whose supports are rigid, so a
    smaller reduct mapping into it witnesses a smaller support inside
    every one of its supports.  Only a disjunct with a quotient of fewer
    than k atoms can be that witness, so the test maps in those alone.
    """
    pins = ucq_constants(ucq)
    tables, forms = _quotients(ucq, whole)
    classes: dict[tuple, _Class] = {}
    for key, q in forms.items():
        if q.disjunct in whole:
            continue
        ties = q.ties
        if q.cq.neq_atoms():
            key, _, ties = canonicalize(CQ(q.cq.relational_atoms()))
        if key not in classes:
            classes[key] = _Class(q, with_all_pairs_neq(q.cq, pins), ties)
    largest = max_relational_size(ucq)
    smallest = [
        min(
            (len(forms[key].cq.relational_atoms()) for key in table.values() if key is not None),
            default=largest,
        )
        for table in tables
    ]
    minimal: dict[int, list[_Class]] = {k: [] for k in range(1, largest + 1)}
    for cls in classes.values():
        k = len(cls.quotient.cq.relational_atoms())
        witnesses = [d for d, n in zip(ucq.disjuncts, smallest) if n < k]
        if not witnesses or _minimal(witnesses, cls.rigid):
            minimal[k].append(cls)
    return tables, forms, minimal


def _minimal(disjuncts: Iterable[CQ], rigid: CQ) -> bool:
    """Does no smaller reduct of the disjuncts map into the rigid form?
    Tested as: no disjunct maps into it with an image that misses one of
    its relational atoms.  A smaller reduct d/rho mapping in composes with
    d -> d/rho into such a map; such a map factors through the disjunct's
    quotient by its kernel, a reduct onto whose atoms it is injective, so
    smaller."""
    target = query_target(rigid)
    size = len(rigid.relational_atoms())
    for d in disjuncts:
        rel = d.relational_atoms()
        sizes: list[int] = []

        def image(binding):
            sizes.append(len({
                (a.predicate, tuple(binding[t.name] if t.is_var else t for t in a.terms))
                for a in rel
            }))

        hom_visit(d, target, image)
        if min(sizes, default=size) < size:
            return False
    return True


@value_class()
class CountingQuery:
    """A rigidified reduct: all-pairs disequalities with coefficient
    gamma = 1 / |Auto|."""

    cq: CQ
    gamma: Fraction


def counting_queries(ucq: CQ | UCQ) -> dict[int, tuple[CountingQuery, ...]]:
    """The counting queries of every support size, 1 up to the largest
    disjunct: the rigid form of each minimal class of reducts
    (`_minimal_classes`), in canonical order.  They depend on the query
    alone, so one set serves every database.

    The rigid queries need no further pruning: a homomorphism between two
    of them is injective on terms (all pairs are distinct), so it maps the
    k atoms of one onto the k atoms of the other and is an isomorphism,
    which the classes already merged.

    gamma comes from the canonical search of the rigid form: the variable
    orderings that attain its canonical key number |Auto| (see
    `queries.canonicalize`); the tests check it against an
    automorphism count by search.
    """
    out = {}
    for k, classes in _minimal_classes(as_ucq(ucq), ())[2].items():
        forms = sorted((canonicalize(cls.rigid) for cls in classes), key=lambda f: f[0])
        out[k] = tuple(CountingQuery(cq=aug, gamma=Fraction(1, n)) for _, aug, n in forms)
    return out


# ---------------------------------------------------------------------------
# The homomorphism basis
# ---------------------------------------------------------------------------

@value_class()
class BasisTerm:
    """A quotient of a disjunct without disequalities and its coefficient in
    the count of the minimal supports of one size, with what counts it over
    any facts: an `elimination_order` of its variables and its `_pieces`."""

    cq: CQ
    coefficient: Fraction

    def __post_init__(self):
        object.__setattr__(self, "order", tuple(elimination_order(self.cq)))
        object.__setattr__(self, "pieces", _pieces(self.cq))


def homomorphism_basis(ucq: CQ | UCQ) -> dict[int, tuple[BasisTerm, ...]]:
    """For every support size k, 1 up to the largest disjunct, quotients
    s with coefficients c_s such that countFMS_k(D) = sum of c_s times the
    number of homomorphisms of s into D, in canonical order, from one
    enumeration of the quotients of the disjuncts that can merge atoms.

    countFMS_k is the gamma-weighted sum of the injective homomorphism
    counts of the size-k counting queries (`counting_queries`), the rigid
    forms of the minimal classes of reducts (`_minimal_classes`), with
    gamma 1 over the automorphisms of that form.  Every homomorphism of a
    class's first reduct d/rho factors uniquely as its quotient d/pi, for
    a labelled coarsening pi of rho, followed by an injective one that
    avoids the constants, so by Moebius inversion the injective count is
    the sum over pi of mu(rho, pi) times the homomorphism count of d/pi.
    A quotient that collapses a disequality has none and is left out; as
    hom(q & x != y) = hom(q) - hom(q[x := y]), each other one q adds, per
    subset F of its disequalities, (-1)^|F| times the quotient that merges
    the sides of each one in F, so no term keeps a disequality.

    An unmergeable disjunct d (`_unmergeable`) is its own term, with
    coefficient 1 at size |d|, and its quotients are not enumerated.  In
    an image S of d each atom of d maps onto the one fact with its
    predicate, so one homomorphism has image S and |S| = |d|.  A proper
    subset of S misses a predicate of d, and no other disjunct e fits in
    S, as pred(e) is no subset of pred(d): S is minimal, and no quotient
    of e has image S.  So d adds hom(d, D) to countFMS_|d|, and as the
    homomorphism counts of non-isomorphic queries are linearly
    independent, the enumeration would find the same term.
    """
    ucq = as_ucq(ucq)
    pins = ucq_constants(ucq)
    whole = _unmergeable(ucq.disjuncts)
    tables, forms, minimal = _minimal_classes(ucq, whole)
    out = {}
    for k, classes in minimal.items():
        coefficients: dict[tuple, Fraction] = {
            key: Fraction(1) for key, q in forms.items()
            if q.disjunct in whole and len(q.cq.atoms) == k
        }
        for cls in classes:
            q = cls.quotient
            for key, mu in _moebius_terms(tables[q.disjunct], q.images, pins).items():
                coefficients[key] = coefficients.get(key, 0) + Fraction(mu, cls.ties)
        plain: dict[tuple, Fraction] = {}
        plain_cqs: dict[tuple, CQ] = {}
        for key, c in coefficients.items():
            q = forms[key].cq
            neqs = q.neq_atoms()
            for n in range(len(neqs) + 1):
                for merged in combinations(neqs, n):
                    mapping = unify_terms(atom.terms for atom in merged)
                    if mapping is not None:
                        merged_cq = substitute(CQ(q.relational_atoms()), mapping)
                        plain_key, plain_cq = canonicalize(merged_cq)[:2] if neqs else (key, q)
                        plain_cqs[plain_key] = plain_cq
                        plain[plain_key] = plain.get(plain_key, 0) + c * (-1) ** n
        out[k] = tuple(BasisTerm(plain_cqs[key], c) for key, c in sorted(plain.items()) if c)
    return out


def _unmergeable(disjuncts: Sequence[CQ]) -> frozenset[int]:
    """The indices of the disjuncts without disequalities whose relational
    atoms have pairwise distinct predicates, and whose predicate set holds
    no other disjunct's, equal sets included."""
    preds = [[a.predicate for a in d.relational_atoms()] for d in disjuncts]
    sets = [frozenset(p) for p in preds]
    return frozenset(
        i for i, d in enumerate(disjuncts)
        if not d.neq_atoms() and len(sets[i]) == len(preds[i])
        and not any(other <= sets[i] for j, other in enumerate(sets) if j != i)
    )


def _moebius_terms(
    table: Mapping[Images, tuple | None], images: Images, consts: Sequence[str]
) -> dict[tuple, int]:
    """The sum of mu(rho, pi) per quotient key of d/pi, over the labelled
    coarsenings pi of the labelled partition rho given by `images`, with
    d's quotients looked up in `table`.  The coarsenings of rho are the
    labelled partitions of its unlabelled blocks, each named by its first
    variable, over the same constants, and mu(rho, pi) is their Moebius
    value (see `_labelled_partitions`)."""
    blocks = sorted({t.name for t in images if t.is_var})
    sums: dict[tuple, int] = {}
    for merged, mu in _labelled_partitions(blocks, consts):
        step = dict(zip(blocks, merged))
        key = table[tuple(step[t.name] if t.is_var else t for t in images)]
        if key is not None:
            sums[key] = sums.get(key, 0) + mu
    return sums


def _pieces(cq: CQ) -> tuple[tuple[CQ, tuple[tuple[int, int], ...]], ...]:
    """cq and quotients of it, each with (slot, sign) pairs, whose signed
    `elimination.marginals` of the slot atoms, read at a fact's row, sum to
    cq's homomorphisms whose image holds the fact.  By inclusion-exclusion
    a set S of atoms with the fact's predicate adds (-1)^(|S|+1) times the
    homomorphisms that map all of S onto it: those of the quotient that
    unifies S (if any) that map the merged atom onto it.  With pairwise
    distinct predicates only cq's own atoms remain.  The quotients'
    variables are cq's, so they share its order."""
    atoms = cq.relational_atoms()
    groups: dict[tuple[str, int], list[Atom]] = {}
    for atom in atoms:
        groups.setdefault((atom.predicate, len(atom.terms)), []).append(atom)
    signs: dict[CQ, dict[Atom, int]] = {}
    for group in groups.values():
        for n in range(2, len(group) + 1):
            for first, *rest in combinations(group, n):
                mapping = unify_terms(p for atom in rest for p in zip(first.terms, atom.terms))
                if mapping is not None:
                    q = signs.setdefault(substitute(cq, mapping), {})
                    atom = substitute(CQ((first,)), mapping).atoms[0]
                    q[atom] = q.get(atom, 0) + (-1) ** (n + 1)
    return ((cq, tuple((slot, 1) for slot in range(len(atoms)))), *(
        (q, tuple((q.relational_atoms().index(a), sign) for a, sign in slots.items() if sign))
        for q, slots in signs.items() if any(slots.values())
    ))


def _tables(facts: Sequence[Fact]) -> Callable[[Atom], tuple[dict[int, tuple], Table]]:
    """Each atom's table over the facts, built on first use: the row of
    `elimination.row_variables` values of each fact (by index) that agrees with
    the atom's predicate, constants and repeated variables; each weighs 1."""
    by_key: dict[tuple[str, int], list[int]] = {}
    for i, f in enumerate(facts):
        by_key.setdefault((f.predicate, len(f.args)), []).append(i)
    built: dict[Atom, tuple[dict[int, tuple], Table]] = {}

    def table(atom: Atom) -> tuple[dict[int, tuple], Table]:
        if atom not in built:
            rows: dict[int, tuple] = {}
            for i in by_key.get((atom.predicate, len(atom.terms)), ()):
                row: dict[str, str] = {}
                if all((row.setdefault(t.name, value) if t.is_var else t.name) == value
                       for t, value in zip(atom.terms, facts[i].args)):
                    rows[i] = tuple(row.values())
            built[atom] = rows, dict.fromkeys(rows.values(), 1)
        return built[atom]

    return table


def _counts(term: BasisTerm, table) -> tuple[int, dict[int, int]]:
    """The term's homomorphisms, and per fact index those whose image holds it."""
    homs, hits = None, {}
    for q, slots in term.pieces:
        tables = [table(atom) for atom in q.relational_atoms()]
        total, derived = marginals(q, [weights for _, weights in tables], term.order)
        if homs is None and not (homs := total):  # the first piece is the term itself
            break
        for slot, sign in slots:
            for i, row in tables[slot][0].items():
                if n := derived[slot].get(row):
                    hits[i] = hits.get(i, 0) + sign * n
    return homs, hits


def basis_fact_counts(
    basis: Mapping[int, Sequence[BasisTerm]], facts: Iterable[Fact]
) -> tuple[SupportHistogram, FactCounts]:
    """countFMS per size from the basis of each size (see
    `homomorphism_basis`), and each fact's non-zero per-size counts of the
    minimal supports containing it: countFMS_k over D minus over D without
    the fact, to which a term adds its coefficient times its homomorphisms
    whose image holds the fact (`_counts`).  The sums run in integers
    scaled by the size's common denominator, and each must be integral;
    a fractional one signals a pipeline bug."""
    facts = tuple(facts)
    table = _tables(facts)
    totals: dict[int, int] = {}
    counts: FactCounts = {f: {} for f in facts}
    for k, terms in basis.items():
        scale = lcm(*(t.coefficient.denominator for t in terms))
        total, sums = 0, {}
        for t in terms:
            weight = t.coefficient.numerator * (scale // t.coefficient.denominator)
            homs, hits = _counts(t, table)
            total += weight * homs
            for i, n in hits.items():
                sums[i] = sums.get(i, 0) + weight * n
        totals[k] = _integral(Fraction(total, scale))
        for i, n in sums.items():
            if n:
                counts[facts[i]][k] = _integral(Fraction(n, scale), facts[i]) if scale > 1 else n
    return SupportHistogram(totals), counts


def _integral(value: Fraction, fact: Fact | None = None) -> int:
    if value.denominator != 1:
        where = "" if fact is None else f" for fact {fact.label}"
        raise RespoError(f"non-integral partition count {value}{where}")
    return int(value)
