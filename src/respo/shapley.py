"""Responsibility scores.

Weighted sums of minimal supports (the fact's score is the sum of
w(|S|, |D|) over the minimal supports S containing it), the brute-force
Shapley value for arbitrary wealth functions (drastic 0/1 and
number-of-minimal-supports wealths built in), and the symmetry/null
property checks used by the verification suites.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction
from math import factorial
from typing import Callable, Iterable, Mapping, Sequence

from .model import (
    ABox,
    Fact,
    InconsistentKBError,
    InputError,
    OMQ,
    RespoError,
    SupportHistogram,
    UnsupportedTBoxError,
    WeightFunction,
)
from .support import (
    Evaluator,
    MinimalSupport,
    count_fms_brute,
    counting_queries,
    enumerate_minimal_supports,
    make_subset_evaluator,
    partition_histogram,
)


# ---------------------------------------------------------------------------
# Weight functions
# ---------------------------------------------------------------------------

WEIGHT_MS = WeightFunction("ms", lambda n, k: Fraction(1, n))
WEIGHT_UNIFORM = WeightFunction("uniform", lambda n, k: Fraction(1))
WEIGHT_INVSQ = WeightFunction("invsq", lambda n, k: Fraction(1, n * n))

_BUILTIN_WEIGHTS = {w.name: w for w in (WEIGHT_MS, WEIGHT_UNIFORM, WEIGHT_INVSQ)}


def weight_from_table(text: str, name: str = "table") -> WeightFunction:
    """Parse a user weight table into a weight function.  Each line reads
    "support-size database-size p/q" and sets w(|S|, |D|) = p/q."""
    from .model import parse_rational

    table: dict[tuple[int, int], Fraction] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            support_size, db_size, value = line.split()
            table[(int(support_size), int(db_size))] = parse_rational(value)
        except (ValueError, ZeroDivisionError):
            raise InputError(
                f"weight table line {lineno}: expected 'support-size database-size p/q',"
                f" got {line!r}"
            ) from None

    def evaluate(support_size: int, db_size: int) -> Fraction:
        try:
            return table[(support_size, db_size)]
        except KeyError:
            raise InputError(
                f"weight table has no entry for support size {support_size},"
                f" database size {db_size}"
            )

    return WeightFunction(name, evaluate)


def resolve_weight(spec: str) -> WeightFunction:
    if spec in _BUILTIN_WEIGHTS:
        return _BUILTIN_WEIGHTS[spec]
    if spec.startswith("file:"):
        path = spec[len("file:"):]
        with open(path, encoding="utf-8") as fh:
            return weight_from_table(fh.read(), name=os.path.basename(path))
    raise InputError(f"unknown weight function {spec!r}")


# ---------------------------------------------------------------------------
# Wealth functions and the brute-force Shapley value
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WealthFunction:
    """xi: fact subsets -> rationals with xi(empty) = 0."""

    name: str
    evaluate: Callable[[frozenset[Fact]], Fraction]


def drastic_wealth(evaluator: Evaluator) -> WealthFunction:
    return WealthFunction(
        "drastic", lambda s: Fraction(1) if s and evaluator(s) else Fraction(0)
    )


def ms_wealth(evaluator: Evaluator) -> WealthFunction:
    def evaluate(s: frozenset[Fact]) -> Fraction:
        return Fraction(len(enumerate_minimal_supports(s, evaluator)))

    return WealthFunction("ms", evaluate)


# The largest database brute force takes by default: 2^20 coalitions.
BRUTE_FORCE_CAP = 20


def shapley_brute_force(
    abox: ABox,
    wealth: WealthFunction,
    fact: Fact,
    cap: int = BRUTE_FORCE_CAP,
) -> Fraction:
    """Exact Shapley value of the fact in the cooperative game (D, xi):
    the coefficient-weighted sum of marginal contributions over all
    coalitions not containing the fact."""
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


# ---------------------------------------------------------------------------
# WSMS
# ---------------------------------------------------------------------------

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
    fact_counts: Mapping[int, int], db_size: int, weight: WeightFunction
) -> Fraction:
    """Sum of w(k, |D|) times the number of size-k minimal supports
    containing the fact (computed as histogram differences upstream)."""
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
    reduced = histogram_provider(frozenset(abox) - {fact})
    sizes = set(full.counts) | set(reduced.counts)
    return {k: full[k] - reduced[k] for k in sorted(sizes) if full[k] - reduced[k]}


# ---------------------------------------------------------------------------
# Whole-database scoring
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScoreReport:
    scores: dict[str, Fraction]  # fact label -> score, in ABox order
    method: str
    histogram: SupportHistogram  # countFMS over the full database


def _histogram_provider(
    omq: OMQ, method: str, pool: ABox | None = None
) -> Callable[[frozenset[Fact]], SupportHistogram]:
    if method == "brute":
        evaluator = make_subset_evaluator(omq.tbox, omq.query)
        if pool is not None:
            # The minimal supports of any sub-database are exactly the
            # minimal supports of the pool contained in it (monotone
            # query), so one enumeration serves every subset request.
            supports = enumerate_minimal_supports(tuple(pool), evaluator)

            def brute_from_pool(facts: frozenset[Fact]) -> SupportHistogram:
                return SupportHistogram.from_sizes(
                    len(s) for s in supports if s.facts <= facts
                )

            return brute_from_pool

        def brute(facts: frozenset[Fact]) -> SupportHistogram:
            return count_fms_brute(sorted(facts, key=lambda f: f.label), evaluator)

        return brute
    if method == "partition":
        from .rewriter import rewrite

        rewritten = rewrite(omq).result if omq.tbox.axioms else omq.query
        queries = counting_queries(rewritten)

        def partition(facts: frozenset[Fact]) -> SupportHistogram:
            return partition_histogram(queries, sorted(facts, key=lambda f: f.label))

        return partition
    if method == "if":
        from .interaction_free import IFPlan, count_ms_interaction_free

        # One plan for every request: each fact's weighted-database entries
        # and each component's tree decomposition are computed once.
        plan = IFPlan(omq)

        def via_if(facts: frozenset[Fact]) -> SupportHistogram:
            abox = ABox(tuple(sorted(facts, key=lambda f: f.label)))
            return count_ms_interaction_free(omq, abox, plan)

        return via_if
    raise RespoError(f"unknown scoring method {method!r}")


def choose_method(abox: ABox, omq: OMQ) -> str:
    """auto: interaction-free pipeline when the check passes, else
    rewriting + partition for DL-Lite_R, else brute force."""
    from .interaction_free import check_interaction_free

    if not omq.tbox.horn_extended:
        if len(omq.query.disjuncts) == 1 and not omq.query.disjuncts[0].neq_atoms():
            if check_interaction_free(omq) is None:
                return "if"
        return "partition"
    return "brute"


def score_all(
    abox: ABox,
    omq: OMQ,
    weight: WeightFunction = WEIGHT_MS,
    method: str = "auto",
) -> ScoreReport:
    """WSMS scores for every fact of the ABox."""
    from .reasoner import is_consistent

    if not is_consistent(abox, omq.tbox):
        raise InconsistentKBError("cannot score an inconsistent KB")
    chosen = choose_method(abox, omq) if method == "auto" else method
    if chosen == "if":
        _reject_non_if_input(omq)
    raw_provider = _histogram_provider(omq, chosen, pool=abox)
    cache: dict[frozenset[Fact], SupportHistogram] = {}

    def provider(facts: frozenset[Fact]) -> SupportHistogram:
        if facts not in cache:
            cache[facts] = raw_provider(facts)
        return cache[facts]

    db_size = len(abox)

    def score_one(fact: Fact) -> Fraction:
        counts = per_fact_counts(abox, provider, fact)
        return wsms_via_histogram(counts, db_size, weight)

    scores = {f.label: score_one(f) for f in abox}
    return ScoreReport(scores=scores, method=chosen, histogram=provider(frozenset(abox)))


def _reject_non_if_input(omq: OMQ):
    from .interaction_free import check_interaction_free

    if len(omq.query.disjuncts) != 1 or omq.query.disjuncts[0].neq_atoms():
        raise UnsupportedTBoxError(
            "the interaction-free pipeline handles single plain CQs"
        )
    witness = check_interaction_free(omq)
    if witness is not None:
        raise UnsupportedTBoxError(f"OMQ is not interaction-free: {witness}")


# ---------------------------------------------------------------------------
# Score property checks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
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
