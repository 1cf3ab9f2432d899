"""Reference implementations that the tests check respo against.

respo does not run any of these.  Each one counts or decides the same
thing as a pipeline in `src/respo` by a simpler route, usually by
enumeration:

  * minimal supports: the brute-force histogram, the per-fact tally of
    supports given as fact sets (the oracle of the mask tally), the
    inclusion-minimal
    homomorphism images of a UCQ, the reducts and the counting queries
    built reduct by reduct, the automorphism count by search, and the
    partition counts by enumerating each counting query's homomorphisms
    (the oracle of the homomorphism basis);
  * scores: the direct WSMS sum over enumerated supports, the per-fact
    `Fraction` sum of a fact's counts, the histogram difference per
    fact, the brute-force Shapley value of any wealth function over all
    coalitions (the oracle of the bit-parallel drastic Shapley value)
    with the drastic and the number-of-minimal-supports wealth, and the
    symmetry/null property checks;
  * reasoning: (U)CQ entailment over a slice of the canonical-model
    tree, deep enough for the query (the oracle of the rewriting, and so
    of the brute-force evaluator that matches it into fact subsets),
    query entailment under one assignment, exists R(a) entailment,
    consistency read off the chase (the oracle of `is_consistent`), and
    a single fact's one-atom matches read off its canonical-model tree
    (the oracle of the interaction-free check's reading of the TBox
    closure);
  * generators: the combinatorial counts that the hardness constructions
    encode (minimal vertex covers, simple paths, perfect matchings);
  * SQL: the emitted manifest run in sqlite.
"""

from __future__ import annotations

import operator
import sqlite3
from collections import Counter
from fractions import Fraction
from itertools import combinations
from math import factorial
from typing import Callable, Iterable, Mapping, Sequence

from respo.generators import Graph
from respo.model import (
    ABox,
    ANON,
    CONCEPT_INCLUSION,
    Assignment,
    Atom,
    CQ,
    Fact,
    FactCounts,
    InconsistentKBError,
    InputError,
    RespoError,
    Role,
    SupportHistogram,
    TBox,
    UCQ,
    UnsupportedTBoxError,
    WeightFunction,
    as_ucq,
    connected_components,
    value_class,
)
from respo.queries import (
    HomTarget,
    canonicalize,
    hom_exists,
    hom_visit,
    max_relational_size,
    query_target,
    with_all_pairs_neq,
)
from respo.reasoner import (
    Word,
    canonical_model,
    entailed_instance_data,
    is_consistent,
    saturate,
)
from respo.shapley import BRUTE_FORCE_CAP, ScoreReport, histogram_difference
from respo.sqlgen import SqlManifest
from respo.support import (
    CountingQuery,
    Evaluator,
    FactDB,
    MinimalSupport,
    _integral,
    _minimal,
    _quotients,
    enumerate_minimal_supports,
    ucq_constants,
)


# ---------------------------------------------------------------------------
# Minimal supports
# ---------------------------------------------------------------------------

def count_fms_brute(
    facts: Iterable[Fact], evaluator: Evaluator, size_cap: int | None = None
) -> SupportHistogram:
    supports = enumerate_minimal_supports(facts, evaluator, size_cap)
    return SupportHistogram(Counter(len(s) for s in supports))


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
    histogram = SupportHistogram(Counter(len(s) for s in supports))
    return histogram, {f: dict(sorted(c.items())) for f, c in counts.items()}


def hom_count(cq: CQ, target: HomTarget) -> int:
    """Number of homomorphisms of cq into the target, by search: the
    product of the counts of its connected components."""
    total = 1
    for component in connected_components(cq):
        total *= hom_visit(component, target, lambda binding: None)
    return total


def fact_of(facts: Mapping[tuple, Fact], atom: Atom, binding: Mapping[str, object]) -> Fact:
    """The fact, of `facts` keyed by (predicate, args), that a
    homomorphism with this binding maps the relational atom onto."""
    return facts[atom.predicate, tuple(binding[t.name] if t.is_var else t.name for t in atom.terms)]


def _by_contents(facts: Iterable[Fact]) -> dict[tuple, Fact]:
    return {(f.predicate, f.args): f for f in facts}


def hom_assignments(cq: CQ, target: HomTarget) -> list[dict[str, object]]:
    """Every homomorphism of cq into the target, as a variable binding."""
    found: list[dict[str, object]] = []
    hom_visit(cq, target, lambda binding: found.append(dict(binding)))
    return found


def minimal_supports_via_hom_images(
    ucq: CQ | UCQ, facts: Iterable[Fact]
) -> list[MinimalSupport]:
    """Minimal supports of a UCQ over a plain database, as the
    inclusion-minimal homomorphism images.  Sound because every minimal
    support is covered exactly by some homomorphism image, and every image
    is a support."""
    ucq = as_ucq(ucq)
    facts = _by_contents(facts)
    db = FactDB(facts.values())
    images: set[frozenset[Fact]] = set()
    for disjunct in ucq.disjuncts:
        rel = disjunct.relational_atoms()
        for binding in hom_assignments(disjunct, db):
            images.add(frozenset(fact_of(facts, atom, binding) for atom in rel))
    minimal = [
        s for s in images if not any(other < s for other in images)
    ]
    return [MinimalSupport(s) for s in sorted(minimal, key=lambda s: sorted(f.label for f in s))]


def all_reducts(ucq: UCQ) -> dict[tuple, CQ]:
    """Every reduct of any disjunct, keyed by canonical form (see
    `support._quotients`)."""
    return {key: q.cq for key, q in _quotients(ucq, ())[1].items()}


def rigid_reducts(ucq: UCQ) -> dict[int, list[tuple[CQ, CQ]]]:
    """Each reduct of every size k, 1 up to the largest disjunct, that no
    smaller reduct maps into, with its disequality-completed (rigid) form,
    reduct by reduct: every reduct is rigidified and tested against every
    disjunct (`support._minimal`), without merging reducts into classes
    or pruning the disjuncts that test it."""
    everything = all_reducts(ucq)
    pins = ucq_constants(ucq)
    out = {}
    for k in range(1, max_relational_size(ucq) + 1):
        minimal = []
        for key in sorted(everything):
            q = everything[key]
            if len(q.relational_atoms()) != k:
                continue
            rigid = with_all_pairs_neq(q, pins)
            if _minimal(ucq.disjuncts, rigid):
                minimal.append((q, rigid))
        out[k] = minimal
    return out


def reducts(ucq: CQ | UCQ) -> dict[int, tuple[CQ, ...]]:
    """The reducts of every size k that no smaller reduct maps into (see
    `rigid_reducts`)."""
    return {k: tuple(q for q, _ in found) for k, found in rigid_reducts(as_ucq(ucq)).items()}


def counting_queries(ucq: CQ | UCQ) -> dict[int, tuple[CountingQuery, ...]]:
    """The counting queries of every size from `rigid_reducts`: each
    minimal reduct's rigid form, isomorphic copies dropped, in canonical
    order, with gamma 1 over the orderings that attain its canonical key.
    The reference for `support.counting_queries`, which builds them from
    one class per rigid form."""
    out = {}
    for k, found in rigid_reducts(as_ucq(ucq)).items():
        rigid: dict[tuple, CountingQuery] = {}
        for _, form in found:
            key, aug, automorphisms = canonicalize(form)
            rigid.setdefault(key, CountingQuery(cq=aug, gamma=Fraction(1, automorphisms)))
        out[k] = tuple(rigid[key] for key in sorted(rigid))
    return out


def count_automorphisms(cq: CQ) -> int:
    """Number of disequality-respecting homomorphisms of cq onto itself,
    by a search: the oracle for the gamma that `support.counting_queries`
    reads off the canonical search."""
    n = hom_count(cq, query_target(cq))
    if n < 1:
        raise RespoError("a satisfiable query has at least the identity automorphism")
    return n


def partition_fact_counts(
    queries: Mapping[int, Iterable[CountingQuery]], facts: Iterable[Fact]
) -> tuple[SupportHistogram, FactCounts]:
    """countFMS per size from the counting queries of each size (see
    `support.counting_queries`), and each fact's per-size counts of the
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
    facts = _by_contents(facts)
    db = FactDB(facts.values())
    totals: dict[int, int] = {}
    counts: FactCounts = {f: {} for f in facts.values()}
    for k, qs in queries.items():
        total = Fraction(0)
        sums: dict[Fact, Fraction] = {}
        for q in qs:
            hits: dict[Fact, int] = {}
            rel = q.cq.relational_atoms()

            def credit(binding):
                for atom in rel:
                    f = fact_of(facts, atom, binding)
                    hits[f] = hits.get(f, 0) + 1

            total += hom_visit(q.cq, db, credit) * q.gamma
            for f, n in hits.items():
                sums[f] = sums.get(f, 0) + n * q.gamma
        totals[k] = _integral(total)
        for f, value in sums.items():
            counts[f][k] = _integral(value, f)
    return SupportHistogram(totals), counts


# ---------------------------------------------------------------------------
# Scores
# ---------------------------------------------------------------------------

@value_class()
class WealthFunction:
    """xi: fact subsets -> rationals with xi(empty) = 0."""

    name: str
    evaluate: Callable[[frozenset[Fact]], Fraction]


def drastic_wealth(evaluator: Evaluator) -> WealthFunction:
    return WealthFunction(
        "drastic", lambda s: Fraction(1) if s and evaluator(s) else Fraction(0)
    )


def shapley_brute_force(
    abox: ABox,
    wealth: WealthFunction,
    fact: Fact,
    cap: int = BRUTE_FORCE_CAP,
) -> Fraction:
    """Exact Shapley value of the fact in the cooperative game (D, xi):
    the coefficient-weighted sum of marginal contributions over all
    coalitions not containing the fact.  The reference for
    `shapley.drastic_scores`."""
    n = len(abox)
    if n > cap:
        raise InputError(f"brute-force Shapley capped at {cap} facts, got {n}")
    others = [f for f in abox if f.label != fact.label]
    memo: dict[frozenset[Fact], Fraction] = {}

    def xi(s: frozenset[Fact]) -> Fraction:
        if s not in memo:
            memo[s] = wealth.evaluate(s)
        return memo[s]

    total = Fraction(0)
    n_fact = factorial(n)
    for mask in range(1 << len(others)):
        subset = frozenset(
            others[i] for i in range(len(others)) if mask >> i & 1
        )
        coeff = Fraction(
            factorial(len(subset)) * factorial(n - len(subset) - 1), n_fact
        )
        total += coeff * (xi(subset | {fact}) - xi(subset))
    return total


def ms_wealth(evaluator: Evaluator) -> WealthFunction:
    def evaluate(s: frozenset[Fact]) -> Fraction:
        return Fraction(len(enumerate_minimal_supports(s, evaluator)))

    return WealthFunction("ms", evaluate)


def wsms_direct(
    abox: ABox, evaluator: Evaluator, fact: Fact, weight: WeightFunction
) -> Fraction:
    """Eq.-style direct sum over the enumerated minimal supports that
    contain the fact."""
    supports = enumerate_minimal_supports(tuple(abox), evaluator)
    total = Fraction(0)
    for s in supports:
        if fact in s.facts:
            total += weight(len(s), len(abox))
    return total


def wsms_via_histogram(
    fact_counts: Mapping[int, int], db_size: int, weight: Callable[[int, int], Fraction]
) -> Fraction:
    """Sum of w(k, |D|) times the number of size-k minimal supports
    containing the fact (as `Plan.fact_counts` gives them), one
    `Fraction` at a time: the reference for `score_all`, which sums in
    integers over the weights' common denominator."""
    total = Fraction(0)
    for k, count in fact_counts.items():
        if count:
            total += weight(k, db_size) * count
    return total


def per_fact_counts(
    abox: ABox,
    histogram_provider: Callable[[frozenset[Fact]], SupportHistogram],
    fact: Fact,
) -> dict[int, int]:
    """Per-size counts of minimal supports containing the fact, as the
    difference between the histograms over D and D minus the fact."""
    full = histogram_provider(frozenset(abox))
    return histogram_difference(full, histogram_provider(frozenset(abox) - {fact}))


@value_class()
class PropertyVerdict:
    name: str
    passed: bool
    detail: str = ""


def check_score_properties(
    report: ScoreReport,
    minsups: Iterable[MinimalSupport],
    orderings: Sequence[tuple[str, str]] = (),
) -> list[PropertyVerdict]:
    """Symmetry: facts lying in exactly the same minimal supports score
    equally.  Null: a fact scores zero iff it lies in no minimal support,
    positively otherwise.  Optional strict orderings (greater, smaller)
    cover fixture-specific expectations."""
    supports = list(minsups)
    membership: dict[str, frozenset[int]] = {}
    for label in report.scores:
        membership[label] = frozenset(
            i for i, s in enumerate(supports) if any(f.label == label for f in s.facts)
        )

    verdicts: list[PropertyVerdict] = []

    sym_ok, sym_detail = True, ""
    labels = list(report.scores)
    for i, l1 in enumerate(labels):
        for l2 in labels[i + 1:]:
            if membership[l1] == membership[l2] and report.scores[l1] != report.scores[l2]:
                sym_ok = False
                sym_detail = f"{l1} and {l2} share supports but score differently"
                break
        if not sym_ok:
            break
    verdicts.append(PropertyVerdict("Sym-db", sym_ok, sym_detail))

    null_ok, null_detail = True, ""
    for label, score in report.scores.items():
        relevant = bool(membership[label])
        if relevant and score <= 0:
            null_ok = False
            null_detail = f"{label} lies in a minimal support but scores {score}"
            break
        if not relevant and score != 0:
            null_ok = False
            null_detail = f"{label} is irrelevant but scores {score}"
            break
    verdicts.append(PropertyVerdict("Null-db", null_ok, null_detail))

    for greater, smaller in orderings:
        ok = report.scores[greater] > report.scores[smaller]
        verdicts.append(
            PropertyVerdict(
                f"ordering {greater}>{smaller}",
                ok,
                "" if ok else f"{report.scores[greater]} <= {report.scores[smaller]}",
            )
        )
    return verdicts


# ---------------------------------------------------------------------------
# Reasoning
# ---------------------------------------------------------------------------

def canonical_slice(abox: ABox, tbox: TBox, depth: int) -> HomTarget:
    """The canonical model of (abox, tbox) up to words of length `depth`,
    as a homomorphism target.  The KB must be consistent; callers check
    that first.  Its elements are the words of `canonical_model`; `image`
    sends an individual's name to its named element, and disequalities
    require distinct elements.
    """
    if tbox.horn_extended:
        raise UnsupportedTBoxError("canonical model construction requires a pure DL-Lite_R TBox")
    tuples: dict[tuple[str, int], set[tuple[Word, ...]]] = {}
    for name, elements in canonical_model(abox, tbox, depth):
        tuples.setdefault((name, len(elements)), set()).add(elements)
    named = abox.individuals
    return HomTarget(tuples, lambda name: (name, ()) if name in named else None, operator.ne)


def query_depth(cq: CQ, tbox: TBox) -> int:
    """A canonical-model depth at which every match of cq has a copy: one
    level per generating role, then |vars(q)| + 1.  An anonymous element's
    subtree and concepts depend only on the role leading to it, so a match
    whose topmost element lies deeper than the number of generating roles
    repeats a role on the way down and can be moved up to the first
    occurrence."""
    return len(cq.variables()) + 1 + len(saturate(tbox).generating_roles)


def entails_ucq(abox: ABox, tbox: TBox, ucq: UCQ) -> bool:
    """(A, T) |= q via a homomorphism of some disjunct into the canonical
    model truncated at `query_depth`, taking the largest depth over the
    disjuncts so that one slice serves them all."""
    if not is_consistent(abox, tbox):
        raise InconsistentKBError("CQ entailment over an inconsistent KB")
    depth = max(query_depth(d, tbox) for d in ucq.disjuncts)
    target = canonical_slice(abox, tbox, depth)
    return any(hom_exists(d, target) for d in ucq.disjuncts)


def slice_assignments(target: HomTarget, cq: CQ) -> set[tuple]:
    """The assignments under which cq holds in a canonical slice: for each
    homomorphism of cq into it, the tuple that gives each variable, in
    `cq.variables()` order, the constant of its named element, or ANON
    for an anonymous one.  One search enumerates them all."""
    variables = cq.variables()
    found: set[tuple] = set()

    def visit(binding):
        found.add(tuple(ANON if binding[v][1] else binding[v][0] for v in variables))

    hom_visit(cq, target, visit)
    return found


def tree_pairs(tbox: TBox, fact: Fact, atoms: Sequence[Atom]) -> list[tuple[int, dict]]:
    """Every (slot, assignment into const(f) + anon) pair of the atoms
    that the single consistent fact satisfies, read off the homomorphisms
    of each atom's one-atom CQ into one canonical slice of {f}, deep
    enough for every atom; the oracle of the interaction-free check's
    reading of the TBox closure.  Same order: slots, then each atom's
    sorted variables' values, the fact's sorted constants before anon."""
    singles = [CQ((atom,)) for atom in atoms]
    depth = max(query_depth(single, tbox) for single in singles)
    target = canonical_slice(ABox((fact,)), tbox, depth)

    def anon_last(values):
        return tuple((value is ANON, "" if value is ANON else value) for value in values)

    return [
        (slot, dict(zip(single.variables(), values)))
        for slot, single in enumerate(singles)
        for values in sorted(slice_assignments(target, single), key=anon_last)
    ]


def holds_under_assignment(
    abox: ABox, tbox: TBox, cq: CQ, mu: Assignment, depth: int | None = None
) -> bool:
    """(A, T) |=_mu q: some homomorphism of cq into the canonical model
    sends each variable to the named element of the constant mu gives it,
    or to an anonymous element where mu gives ANON; see
    `slice_assignments`."""
    if not is_consistent(abox, tbox):
        raise InconsistentKBError("assignment check over an inconsistent KB")
    values = []
    for v in cq.variables():
        if v not in mu:
            raise ValueError(f"assignment is not total: missing ?{v}")
        values.append(mu[v])
    target = canonical_slice(abox, tbox, query_depth(cq, tbox) if depth is None else depth)
    return tuple(values) in slice_assignments(target, cq)


def entails_exists(abox: Iterable[Fact], tbox: TBox, role: Role, individual: str) -> bool:
    """(A, T) |= exists R(a)."""
    types, _ = entailed_instance_data(abox, tbox)
    return role in types.get(individual, ())


def chase_consistent(abox: Iterable[Fact], tbox: TBox) -> bool:
    """Whether (A, T) is consistent, read off the chase: the canonical
    model walked to depth len(generating roles) + 2, which reads only the
    positive closure, with each negative inclusion of T checked literally
    on its tuples; the oracle of `is_consistent`.  An element is in
    exists R when it has an R-edge, counted only above the last level,
    whose elements have no child edges."""
    depth = len(saturate(tbox).generating_roles) + 2
    names: dict[str, set] = {}
    edges: dict[str, set] = {}
    for predicate, elements in canonical_model(abox, tbox, depth):
        if len(elements) == 1:
            names.setdefault(predicate, set()).add(elements[0])
        else:
            edges.setdefault(predicate, set()).add(elements)

    def pairs(role: Role) -> set:
        found = edges.get(role.name, set())
        return {(y, x) for x, y in found} if role.inverted else found

    def members(b) -> set:
        if isinstance(b, str):
            return names.get(b, set())
        return {x for x, _ in pairs(b) if len(x[1]) < depth}

    return not any(
        (members(ax.lhs) & members(ax.rhs))
        if ax.kind == CONCEPT_INCLUSION
        else (pairs(ax.lhs) & pairs(ax.rhs))
        for ax in tbox.axioms
        if ax.negated
    )


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------

def oracle_count_mvc(graph: Graph) -> int:
    """Exhaustive count of inclusion-minimal vertex covers."""
    if len(graph.vertices) > 12:
        raise RespoError("oracle limited to 12 vertices")

    def covers(subset: frozenset[str]) -> bool:
        return all(u in subset or v in subset for (u, v) in graph.edges)

    total = 0
    for k in range(len(graph.vertices) + 1):
        for combo in combinations(graph.vertices, k):
            s = frozenset(combo)
            if covers(s) and all(not covers(s - {v}) for v in s):
                total += 1
    return total


def oracle_simple_paths(graph: Graph, source: str, target: str) -> dict[int, int]:
    """Histogram (length -> count) of simple directed paths; the empty
    path counts when source equals target."""
    adjacency: dict[str, list[str]] = {v: [] for v in graph.vertices}
    for (u, v) in graph.edges:
        adjacency[u].append(v)

    counts: dict[int, int] = {}

    def walk(node: str, visited: set[str], length: int):
        if node == target:
            counts[length] = counts.get(length, 0) + 1
            return
        for nxt in adjacency[node]:
            if nxt not in visited:
                walk(nxt, visited | {nxt}, length + 1)

    walk(source, {source}, 0)
    return counts


def oracle_count_matchings(graph: Graph) -> int:
    if not graph.bipartite:
        raise RespoError("matching oracle needs a bipartite graph")
    a = list(graph.part_a)
    adjacency = {u: set() for u in a}
    for (u, v) in graph.edges:
        if u in adjacency:
            adjacency[u].add(v)
        else:
            adjacency[v].add(u)

    def count(i: int, used: frozenset[str]) -> int:
        if i == len(a):
            return 1
        total = 0
        for b in adjacency[a[i]]:
            if b not in used:
                total += count(i + 1, used | {b})
        return total

    if len(graph.part_a) != len(graph.part_b):
        return 0
    return count(0, frozenset())


# ---------------------------------------------------------------------------
# SQL
# ---------------------------------------------------------------------------

def sqlite_counts(manifest: SqlManifest) -> dict[int, Fraction]:
    """Run the manifest's schema, loader and counting queries in sqlite and
    sum count times gamma per support size."""
    conn = sqlite3.connect(":memory:")
    conn.executescript(manifest.schema_sql)
    conn.executescript(manifest.loader_sql)
    out = {}
    for e in manifest.entries:
        (n,) = conn.execute(e.sql).fetchone()
        out.setdefault(e.size, Fraction(0))
        out[e.size] += n * e.gamma
    conn.close()
    return out
