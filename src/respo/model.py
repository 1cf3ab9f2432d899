"""Core vocabulary: terms, roles, axioms, facts, queries and the small
value types (rationals, histograms, weighted databases) shared by every
other module.  Everything here is immutable and safe to share.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Mapping


class RespoError(Exception):
    """Base class for all errors raised by this package."""


class QueryStructureError(RespoError):
    """A query violates a structural requirement (e.g. a disequality
    spanning two connected components)."""


class InconsistentKBError(RespoError):
    """The knowledge base has no model; scoring is undefined."""


class InputError(RespoError):
    """Bad user input outside the parsed text formats: a missing argument,
    an unknown fact label or query variable, a malformed weight table."""


class UnsupportedTBoxError(RespoError):
    """The TBox (or TBox/method combination) is outside the supported
    fragment for the requested operation."""


# ---------------------------------------------------------------------------
# Terms and roles
# ---------------------------------------------------------------------------

VAR = "var"
CONST = "const"
ANON_KIND = "anon"


@dataclass(frozen=True, slots=True)
class Term:
    kind: str
    name: str | None = None

    def __post_init__(self):
        if self.kind not in (VAR, CONST, ANON_KIND):
            raise ValueError(f"bad term kind {self.kind!r}")
        if self.kind == ANON_KIND and self.name is not None:
            raise ValueError("the anonymous marker carries no name")
        if self.kind != ANON_KIND and not self.name:
            raise ValueError("variables and constants need a name")

    @property
    def is_var(self) -> bool:
        return self.kind == VAR

    @property
    def is_const(self) -> bool:
        return self.kind == CONST

    def __repr__(self) -> str:
        if self.kind == ANON_KIND:
            return "<anon>"
        return f"?{self.name}" if self.kind == VAR else str(self.name)


def var(name: str) -> Term:
    return Term(VAR, name)


def const(name: str) -> Term:
    return Term(CONST, name)


#: The distinguished "maps to an anonymous element" marker used in
#: assignments.  A single value, never equal to any constant.
ANON = Term(ANON_KIND)


@dataclass(frozen=True, slots=True)
class Role:
    """A role name, possibly inverted.  Double inversion is the identity."""

    name: str
    inverted: bool = False

    def inverse(self) -> "Role":
        return Role(self.name, not self.inverted)

    def __repr__(self) -> str:
        return self.name + ("-" if self.inverted else "")


# ---------------------------------------------------------------------------
# Concepts and axioms
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class BasicConcept:
    """Either a concept name or an unqualified existential over a role."""

    concept_name: str | None = None
    role: Role | None = None

    def __post_init__(self):
        if (self.concept_name is None) == (self.role is None):
            raise ValueError("a basic concept is a name xor an exists-role")

    @property
    def is_name(self) -> bool:
        return self.concept_name is not None

    def __repr__(self) -> str:
        if self.concept_name is not None:
            return self.concept_name
        return f"exists {self.role!r}"


def concept(name: str) -> BasicConcept:
    return BasicConcept(concept_name=name)


def exists(role: Role) -> BasicConcept:
    return BasicConcept(role=role)


CONCEPT_INCLUSION = "concept"
ROLE_INCLUSION = "role"


@dataclass(frozen=True, slots=True)
class Axiom:
    """A concept inclusion B <= [!]C or a role inclusion R <= [!]S."""

    kind: str
    lhs: BasicConcept | Role
    rhs: BasicConcept | Role
    negated: bool = False

    def __post_init__(self):
        if self.kind == CONCEPT_INCLUSION:
            if not (isinstance(self.lhs, BasicConcept) and isinstance(self.rhs, BasicConcept)):
                raise ValueError("concept inclusion sides must be basic concepts")
        elif self.kind == ROLE_INCLUSION:
            if not (isinstance(self.lhs, Role) and isinstance(self.rhs, Role)):
                raise ValueError("role inclusion sides must be roles")
        else:
            raise ValueError(f"bad axiom kind {self.kind!r}")


@dataclass(frozen=True, slots=True)
class ConjunctionAxiom:
    """Horn extension: A & B <= C over concept names."""

    lhs1: str
    lhs2: str
    rhs: str


@dataclass(frozen=True, slots=True)
class QualifiedExistsAxiom:
    """Horn extension: exists R.A <= B (qualified existential on the left)."""

    role: Role
    filler: str
    rhs: str


HornAxiom = ConjunctionAxiom | QualifiedExistsAxiom


@dataclass(frozen=True)
class TBox:
    axioms: frozenset[Axiom] = frozenset()
    horn_axioms: frozenset[HornAxiom] = frozenset()

    @property
    def horn_extended(self) -> bool:
        return bool(self.horn_axioms)

    def concept_names(self) -> set[str]:
        names: set[str] = set()
        for ax in self.axioms:
            if ax.kind == CONCEPT_INCLUSION:
                for side in (ax.lhs, ax.rhs):
                    if side.is_name:
                        names.add(side.concept_name)
        for ax in self.horn_axioms:
            if isinstance(ax, ConjunctionAxiom):
                names.update((ax.lhs1, ax.lhs2, ax.rhs))
            else:
                names.update((ax.filler, ax.rhs))
        return names

    def role_names(self) -> set[str]:
        names: set[str] = set()
        for ax in self.axioms:
            if ax.kind == ROLE_INCLUSION:
                names.update((ax.lhs.name, ax.rhs.name))
            else:
                for side in (ax.lhs, ax.rhs):
                    if not side.is_name:
                        names.add(side.role.name)
        for ax in self.horn_axioms:
            if isinstance(ax, QualifiedExistsAxiom):
                names.add(ax.role.name)
        return names


# ---------------------------------------------------------------------------
# Facts and ABoxes
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class Fact:
    """A labeled concept or role assertion over constants."""

    label: str
    predicate: str
    args: tuple[str, ...]

    def __post_init__(self):
        if len(self.args) not in (1, 2):
            raise ValueError("facts have one or two arguments")

    @property
    def is_concept(self) -> bool:
        return len(self.args) == 1

    def __repr__(self) -> str:
        return f"{self.label}: {self.predicate}({','.join(self.args)})"


@dataclass(frozen=True)
class ABox:
    """An ordered, duplicate-free set of labeled facts.

    Fact identity is by label; two facts with the same predicate/args but
    different labels are rejected because the underlying semantics treats
    the ABox as a set of assertions.
    """

    facts: tuple[Fact, ...]

    def __post_init__(self):
        labels = set()
        contents = set()
        arity: dict[str, int] = {}
        for f in self.facts:
            if f.label in labels:
                raise ValueError(f"duplicate fact label {f.label!r}")
            labels.add(f.label)
            key = (f.predicate, f.args)
            if key in contents:
                raise ValueError(f"duplicate assertion {f.predicate}({','.join(f.args)})")
            contents.add(key)
            seen = arity.setdefault(f.predicate, len(f.args))
            if seen != len(f.args):
                raise ValueError(f"predicate {f.predicate!r} used at two arities")

    @property
    def individuals(self) -> frozenset[str]:
        out: set[str] = set()
        for f in self.facts:
            out.update(f.args)
        return frozenset(out)

    def __len__(self) -> int:
        return len(self.facts)

    def __iter__(self) -> Iterator[Fact]:
        return iter(self.facts)

    def by_label(self, label: str) -> Fact:
        for f in self.facts:
            if f.label == label:
                return f
        raise KeyError(label)

    def without(self, fact: Fact) -> "ABox":
        return ABox(tuple(f for f in self.facts if f is not fact and f.label != fact.label))


# ---------------------------------------------------------------------------
# Query atoms, CQs, UCQs, OMQs
# ---------------------------------------------------------------------------

CONCEPT_ATOM = "concept"
ROLE_ATOM = "role"
NEQ_ATOM = "neq"


@dataclass(frozen=True, slots=True)
class Atom:
    kind: str
    predicate: str | None
    terms: tuple[Term, ...]

    def __post_init__(self):
        if self.kind == CONCEPT_ATOM:
            if self.predicate is None or len(self.terms) != 1:
                raise ValueError("concept atoms take one term")
        elif self.kind == ROLE_ATOM:
            if self.predicate is None or len(self.terms) != 2:
                raise ValueError("role atoms take two terms")
        elif self.kind == NEQ_ATOM:
            if self.predicate is not None or len(self.terms) != 2:
                raise ValueError("disequalities relate two terms")
            if self.terms[0] == self.terms[1]:
                raise ValueError("disequality arguments must be distinct terms")
            for t in self.terms:
                if t.kind == ANON_KIND:
                    raise ValueError("disequalities relate variables/constants only")
        else:
            raise ValueError(f"bad atom kind {self.kind!r}")

    @property
    def is_relational(self) -> bool:
        return self.kind != NEQ_ATOM

    def variables(self) -> tuple[str, ...]:
        return tuple(t.name for t in self.terms if t.is_var)

    def __repr__(self) -> str:
        if self.kind == NEQ_ATOM:
            return f"{self.terms[0]!r} != {self.terms[1]!r}"
        return f"{self.predicate}({','.join(repr(t) for t in self.terms)})"


def concept_atom(predicate: str, t: Term) -> Atom:
    return Atom(CONCEPT_ATOM, predicate, (t,))


def role_atom(predicate: str, t1: Term, t2: Term) -> Atom:
    return Atom(ROLE_ATOM, predicate, (t1, t2))


def neq_atom(t1: Term, t2: Term) -> Atom:
    # Normalized order keeps atom sets canonical.
    a, b = sorted((t1, t2), key=lambda t: (t.kind, t.name or ""))
    return Atom(NEQ_ATOM, None, (a, b))


def _atom_sort_key(atom: Atom):
    return (
        atom.kind,
        atom.predicate or "",
        tuple((t.kind, t.name or "") for t in atom.terms),
    )


@dataclass(frozen=True)
class CQ:
    """A Boolean conjunctive query, possibly with disequality atoms and
    constants.  Stored as a deduplicated, deterministically ordered atom
    tuple."""

    atoms: tuple[Atom, ...]

    def __post_init__(self):
        ordered = tuple(sorted(set(self.atoms), key=_atom_sort_key))
        object.__setattr__(self, "atoms", ordered)

    def variables(self) -> tuple[str, ...]:
        seen: dict[str, None] = {}
        for atom in self.atoms:
            for v in atom.variables():
                seen.setdefault(v)
        return tuple(sorted(seen))

    def constants(self) -> tuple[str, ...]:
        out: set[str] = set()
        for atom in self.atoms:
            for t in atom.terms:
                if t.is_const:
                    out.add(t.name)
        return tuple(sorted(out))

    def relational_atoms(self) -> tuple[Atom, ...]:
        return tuple(a for a in self.atoms if a.is_relational)

    def neq_atoms(self) -> tuple[Atom, ...]:
        return tuple(a for a in self.atoms if not a.is_relational)

    def __repr__(self) -> str:
        return " & ".join(repr(a) for a in self.atoms) or "<empty>"


@dataclass(frozen=True)
class UCQ:
    disjuncts: tuple[CQ, ...]

    def __post_init__(self):
        if not self.disjuncts:
            raise ValueError("a UCQ needs at least one disjunct")

    def __repr__(self) -> str:
        return " OR ".join(repr(d) for d in self.disjuncts)


def as_ucq(query: CQ | UCQ) -> UCQ:
    return query if isinstance(query, UCQ) else UCQ((query,))


@dataclass(frozen=True)
class OMQ:
    """An ontology-mediated query: a TBox paired with a Boolean (U)CQ."""

    tbox: TBox
    query: UCQ

    def __init__(self, tbox: TBox, query: CQ | UCQ):
        object.__setattr__(self, "tbox", tbox)
        object.__setattr__(self, "query", as_ucq(query))


# An assignment maps variable names to constant names or to ANON.
Assignment = Mapping[str, "str | Term"]


# ---------------------------------------------------------------------------
# Connected components
# ---------------------------------------------------------------------------

def connected_components(cq: CQ) -> list[CQ]:
    """Split a CQ into its inclusion-maximal connected subqueries.

    Two relational atoms share a component iff they are linked through
    shared variables.  Disequality atoms attach to the component holding
    their variables; a disequality whose variables straddle two components
    is rejected, as is a disequality variable that occurs in no relational
    atom.  Ground atoms (and ground disequalities) attach deterministically.
    """
    rel = [a for a in cq.atoms if a.is_relational]
    if not rel:
        raise QueryStructureError("query has no relational atoms")

    parent = list(range(len(rel)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def union(i: int, j: int):
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[rj] = ri

    var_home: dict[str, int] = {}
    for i, atom in enumerate(rel):
        for v in atom.variables():
            if v in var_home:
                union(i, var_home[v])
            else:
                var_home[v] = i

    groups: dict[int, list[Atom]] = {}
    order: list[int] = []
    for i, atom in enumerate(rel):
        root = find(i)
        if root not in groups:
            groups[root] = []
            order.append(root)
        groups[root].append(atom)

    for atom in cq.neq_atoms():
        vs = atom.variables()
        homes = set()
        for v in vs:
            if v not in var_home:
                raise QueryStructureError(
                    f"disequality variable ?{v} occurs in no relational atom")
            homes.add(find(var_home[v]))
        if len(homes) > 1:
            raise QueryStructureError("disequality spans two query components")
        target = homes.pop() if homes else order[0]
        groups[target].append(atom)

    return [CQ(tuple(groups[root])) for root in order]


# ---------------------------------------------------------------------------
# Rationals
# ---------------------------------------------------------------------------

def parse_rational(text: str) -> Fraction:
    text = text.strip()
    if "/" in text:
        num, den = text.split("/", 1)
        return Fraction(int(num), int(den))
    return Fraction(int(text))


def format_rational(value: Fraction) -> str:
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def decimal_approx(value: Fraction, places: int = 6) -> str:
    """Fixed-point decimal rendering for display; scores themselves stay exact."""
    sign = "-" if value < 0 else ""
    value = abs(value)
    scaled = value.numerator * 10**places
    whole, rem = divmod(scaled, value.denominator)
    if 2 * rem >= value.denominator:
        whole += 1
    digits = str(whole).rjust(places + 1, "0")
    return f"{sign}{digits[:-places]}.{digits[-places:]}"


# ---------------------------------------------------------------------------
# Support histograms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SupportHistogram:
    """Map from support size k to the number of minimal supports of that
    size.  Zero-count entries are dropped."""

    counts: Mapping[int, int]

    def __post_init__(self):
        cleaned = {k: v for k, v in sorted(self.counts.items()) if v}
        for k, v in cleaned.items():
            if k < 0 or v < 0:
                raise ValueError("histogram entries must be natural numbers")
        object.__setattr__(self, "counts", cleaned)

    @staticmethod
    def from_sizes(sizes: Iterable[int]) -> "SupportHistogram":
        counts: dict[int, int] = {}
        for s in sizes:
            counts[s] = counts.get(s, 0) + 1
        return SupportHistogram(counts)

    def total(self) -> int:
        return sum(self.counts.values())

    def __getitem__(self, k: int) -> int:
        return self.counts.get(k, 0)

    def __eq__(self, other) -> bool:
        if isinstance(other, SupportHistogram):
            return dict(self.counts) == dict(other.counts)
        if isinstance(other, dict):
            return dict(self.counts) == {k: v for k, v in other.items() if v}
        return NotImplemented

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}: {v}" for k, v in self.counts.items())
        return "{" + inner + "}"


# ---------------------------------------------------------------------------
# Weighted databases
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class WeightedFact:
    """One entry of a weighted database.

    The slot records which query-atom occurrence produced the entry, so
    instantiations of different atoms never alias even when predicate and
    arguments coincide.
    """

    slot: int
    predicate: str
    args: tuple[str, ...]


@dataclass(frozen=True)
class WeightedDatabase:
    """Facts annotated with natural-number weights; the weight map covers
    every fact."""

    weights: Mapping[WeightedFact, int]

    def __post_init__(self):
        for wf, w in self.weights.items():
            if w < 0:
                raise ValueError("weights are natural numbers")
        object.__setattr__(self, "weights", dict(self.weights))

    def slot_entries(self, slot: int) -> dict[tuple[str, ...], int]:
        return {
            wf.args: w for wf, w in self.weights.items() if wf.slot == slot and w > 0
        }

    def extended(self, extra: Mapping[WeightedFact, int]) -> "WeightedDatabase":
        merged = dict(self.weights)
        merged.update(extra)
        return WeightedDatabase(merged)


# ---------------------------------------------------------------------------
# Weight functions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WeightFunction:
    """w(|S|, |D|) used by the weighted-sum scores.  Built-ins live in the
    scoring module; all of them are positive for |S| >= 1."""

    name: str
    evaluate: Callable[[int, int], Fraction] = field(compare=False)

    def __call__(self, support_size: int, db_size: int) -> Fraction:
        return self.evaluate(support_size, db_size)
