"""Responsibility scores.

Weighted sums of minimal supports (the fact's score is the sum of
w(|S|, |D|) over the minimal supports S containing it), and the drastic
Shapley value of every fact, from the minimal supports a `Plan` finds as
bit masks, in one bit-parallel pass over the coalitions.  The
brute-force Shapley value for arbitrary wealth functions, the
symmetry/null property checks, the direct WSMS sum, the per-fact
`Fraction` sum of a fact's counts and the number-of-minimal-supports
wealth are oracles that only the tests run; they live in
`tests/oracles.py`.

Every count goes through a `Plan`: the OMQ compiled once for one
pipeline, then asked for the support histogram of a fact set or for
every fact's per-size counts of the minimal supports containing it.
`score_all` builds one plan per call and asks it for every fact's counts
once: partition reads them off variable elimination over its basis,
provenance and brute force tally the supports they find as bit masks
over the facts, and the interaction-free pipeline still subtracts the
histogram over D minus each fact from the one over D.  A histogram
alone is the first half of those counts, except under the
interaction-free pipeline, which counts it directly.  The provenance
plan compiles the query atom's rule program once.  `score_all` weighs
the counts in integers over the weights' common denominator.  Only the
partition and brute-force branches import `support`, so scoring under
IF or provenance and the drastic Shapley value of a Horn KB never load it.
"""

from __future__ import annotations

import os
from fractions import Fraction
from math import factorial, lcm
from typing import Iterable

from .model import (
    BRUTE_FORCE_CAP,
    METHODS,
    ABox,
    Fact,
    FactCounts,
    InconsistentKBError,
    InputError,
    OMQ,
    RespoError,
    SupportHistogram,
    UnsupportedTBoxError,
    WeightFunction,
    read_text,
    value_class,
)
from .provenance import (
    HornProgram,
    ground_atom_query,
    minimal_why_provenance,
    tally_masks,
)
from .reasoner import is_consistent


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
        return weight_from_table(read_text(path), name=os.path.basename(path))
    raise InputError(f"unknown weight function {spec!r}")


# ---------------------------------------------------------------------------
# Caps
# ---------------------------------------------------------------------------

# The most minimal supports the provenance pipeline keeps for one derived
# atom, and the most candidate sets per fact it queues; one more stops the
# run with `InputError`.
PROVENANCE_CAP = 10_000


# ---------------------------------------------------------------------------
# WSMS
# ---------------------------------------------------------------------------

def histogram_difference(
    full: SupportHistogram, reduced: SupportHistogram
) -> dict[int, int]:
    """The non-zero per-size counts of `full` minus `reduced`."""
    sizes = set(full.counts) | set(reduced.counts)
    return {k: full[k] - reduced[k] for k in sorted(sizes) if full[k] - reduced[k]}


# ---------------------------------------------------------------------------
# Whole-database scoring
# ---------------------------------------------------------------------------

@value_class()
class ScoreReport:
    scores: dict[str, Fraction]  # fact label -> score, in ABox order
    method: str
    histogram: SupportHistogram  # countFMS over the full database


class Plan:
    """An OMQ compiled once for one counting pipeline, so that counting
    minimal supports over a fact set (`histogram`, `fact_counts`) repeats
    no work that depends on the OMQ alone.

    `auto` takes provenance for a Horn-extended TBox, the
    interaction-free pipeline when its check passes, and partition
    otherwise.  The interaction-free plan is an `IFPlan`; the partition
    plan holds the rewriting and its homomorphism basis of every size
    (`support.homomorphism_basis`), whose terms carry their elimination
    orders and inclusion-exclusion quotients; the provenance
    plan the query atom's rule program (`provenance.HornProgram`); the
    brute plan the subset evaluator.  An unsupported OMQ raises
    `UnsupportedTBoxError` here, brute-force `fact_counts` on more than
    `BRUTE_FORCE_CAP` facts raises `InputError` before it enumerates, and
    provenance raises it once a derived atom has more than
    `PROVENANCE_CAP` minimal supports or it has queued more than
    `PROVENANCE_CAP` candidate sets per fact.
    """

    def __init__(self, omq: OMQ, method: str = "auto"):
        if method not in METHODS:
            raise RespoError(f"unknown scoring method {method!r}")
        if method == "auto" and omq.tbox.horn_extended:
            method = "provenance"
        if method in ("auto", "if"):
            from .interaction_free import IFPlan

            try:
                self._if_plan = IFPlan(omq)
                method = "if"
            except UnsupportedTBoxError:
                if method == "if":
                    raise
                method = "partition"
        if method == "partition":
            from .rewriter import rewrite
            from .support import homomorphism_basis

            self.rewriting = rewrite(omq) if omq.tbox.axioms else omq.query
            self.basis = homomorphism_basis(self.rewriting)
        if method == "provenance":
            self._program = HornProgram(omq.tbox, ground_atom_query(omq.query))
        if method == "brute":
            from .support import make_subset_evaluator

            self._evaluator = make_subset_evaluator(omq.tbox, omq.query)
        self.method = method

    def histogram(self, facts: Iterable[Fact]) -> SupportHistogram:
        """countFMS over the facts, which must be consistent with the TBox:
        the histogram half of `fact_counts`, except under the
        interaction-free pipeline, which counts it directly."""
        if self.method == "if":
            from .interaction_free import count_ms_interaction_free

            return count_ms_interaction_free(self._if_plan, facts)
        return self.fact_counts(facts)[0]

    def fact_counts(self, facts: Iterable[Fact]) -> tuple[SupportHistogram, FactCounts]:
        """countFMS over the facts, which must be consistent with the TBox,
        and each fact's per-size counts of the minimal supports containing
        it.  Partition, provenance and brute force count every fact in one
        pass; the interaction-free pipeline takes each fact's counts as the
        histogram over the facts minus the one over the rest."""
        facts = tuple(facts)
        if self.method == "if":
            everything = frozenset(facts)
            full = self.histogram(everything)
            return full, {
                f: histogram_difference(full, self.histogram(everything - {f})) for f in facts
            }
        ordered = tuple(sorted(facts, key=lambda f: f.label))
        if self.method == "partition":
            from .support import basis_fact_counts

            return basis_fact_counts(self.basis, ordered)
        if self.method == "brute" and len(ordered) > BRUTE_FORCE_CAP:
            raise InputError(
                f"brute-force scoring is capped at {BRUTE_FORCE_CAP} facts, got {len(ordered)}"
            )
        return tally_masks(ordered, self._support_masks(ordered))

    def _support_masks(self, ordered: tuple[Fact, ...]) -> list[int]:
        """The minimal supports as bit masks over the facts' positions."""
        if self.method == "provenance":
            return minimal_why_provenance(ordered, self._program, PROVENANCE_CAP)
        from .support import enumerate_minimal_supports

        bit = {f: 1 << i for i, f in enumerate(ordered)}
        return [
            sum(bit[f] for f in s.facts)
            for s in enumerate_minimal_supports(ordered, self._evaluator)
        ]


def score_all(
    abox: ABox,
    omq: OMQ,
    weight: WeightFunction = WEIGHT_MS,
    method: str = "auto",
) -> ScoreReport:
    """WSMS scores for every fact of the ABox, from one `Plan.fact_counts`
    call.  w(k, |D|) is evaluated once per size k, in the order the facts
    first need it, and each score is one integer sum over the weights'
    common denominator."""
    if not is_consistent(abox, omq.tbox):
        raise InconsistentKBError("cannot score an inconsistent KB")
    plan = Plan(omq, method)
    full, counts = plan.fact_counts(abox)
    weights: dict[int, Fraction] = {}
    for f in abox:
        for k in counts[f]:
            if k not in weights:
                weights[k] = weight(k, len(abox))
    common = lcm(*(w.denominator for w in weights.values()))
    scaled = {k: w.numerator * (common // w.denominator) for k, w in weights.items()}
    scores = {
        f.label: Fraction(sum(scaled[k] * c for k, c in counts[f].items()), common) for f in abox
    }
    return ScoreReport(scores=scores, method=plan.method, histogram=full)


# ---------------------------------------------------------------------------
# The drastic Shapley value
# ---------------------------------------------------------------------------

def drastic_scores(abox: ABox, omq: OMQ, cap: int) -> dict[str, Fraction]:
    """The Shapley value of every fact in the drastic game, in ABox order:
    a coalition of facts has wealth 1 if it entails the query, and 0
    otherwise (the empty one never does: every disjunct has a relational
    atom).  The game is monotone, so a coalition wins iff it holds a
    minimal support.  The supports are a `Plan`'s bit masks over the
    label-sorted facts: the provenance fixpoint's for a Horn-extended
    TBox, brute-force enumeration behind the subset evaluator otherwise.

    A set of coalitions is one 2^n-bit integer: bit c stands for the
    coalition of the facts at the set bits of c.  The supports' bits are
    closed upward with one shift-and-or per fact, and a fact's value sums
    (k-1)!(n-k)!/n! over the size-k winning coalitions that hold it and
    lose without it.  More than `cap` facts raise `InputError` before
    any support is sought."""
    if not is_consistent(abox, omq.tbox):
        raise InconsistentKBError("cannot score an inconsistent KB")
    plan = Plan(omq, "provenance" if omq.tbox.horn_extended else "brute")
    n = len(abox)
    if not n:
        return {}
    if n > cap:
        raise InputError(f"brute-force Shapley capped at {cap} facts, got {n}")
    holds: list[int] = []  # per fact, the coalitions that hold it
    layers = [1]  # per size k, the coalitions of k facts
    for i in range(n):
        width = 1 << i
        holds = [h | (h << width) for h in holds] + [((1 << width) - 1) << width]
        layers = [low | (high << width) for low, high in zip(layers + [0], [0] + layers)]
    ordered = tuple(sorted(abox, key=lambda f: f.label))
    wins = sum(1 << mask for mask in set(plan._support_masks(ordered)))
    for i, h in enumerate(holds):
        wins |= (wins << (1 << i)) & h
    coefficients = [factorial(k - 1) * factorial(n - k) for k in range(1, n + 1)]
    values = {}
    for i, (f, h) in enumerate(zip(ordered, holds)):
        pivotal = wins & ~(wins << (1 << i)) & h
        total = sum(c * (pivotal & layer).bit_count() for c, layer in zip(coefficients, layers[1:]))
        values[f.label] = Fraction(total, factorial(n))
    return {f.label: values[f.label] for f in abox}
