"""Core vocabulary: terms, roles, axioms, facts, queries and the small
value types (rationals, support histograms and per-fact counts, weight
functions) shared by every other module, with the errors, the UTF-8
reading of input files, and the scoring methods' names and brute-force
cap that the command line offers.  Everything here is immutable and safe
to share.

A basic concept B ::= A | exists R has one form, its `ConceptKey`: the
concept name A, or the role R standing for exists R.  A concept
inclusion holds one on each side, and the TBox closure, the rewriter,
the interaction-free check and provenance read the same keys.  `ANON`,
the one instance of its own class, marks an anonymous element in the
assignments of the interaction-free check; it is no query term.

The value classes of every respo module are built by `value_class`, a
small stand-in for `dataclasses.dataclass(frozen=True)`: each class is
immutable, compares and hashes on all of its fields unless it defines
its own `__eq__` and `__hash__`, and may ask for `__slots__`.  A class with per-instance caches, or with identity
equality, is a plain class instead.  Each CLI op is a fresh interpreter
that builds about 25 of these classes, and `dataclasses` cost about
30 ms of it: importing the module pulls in `inspect`, `ast`, `dis` and
`tokenize`, and each class took six `exec` calls.  `value_class`
generates `__init__`, `__eq__` and `__hash__` in one `exec` with the
code `dataclasses` emits, so hashes and set orders are the same, and
shares one `__repr__` and one pair of frozen guards among all classes.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Iterator, Mapping


class RespoError(Exception):
    """Base class for all errors raised by this package."""


class InconsistentKBError(RespoError):
    """The knowledge base has no model; scoring is undefined."""


class InputError(RespoError):
    """Bad user input outside the parsed text formats: a missing argument,
    an unknown fact label or query variable, a malformed weight table."""


def read_text(path: str) -> str:
    """The text of an input file, which must be UTF-8: other bytes are an
    `InputError` naming the file and the first bad byte."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise InputError(f"{path} is not UTF-8 text: {exc.reason} at byte {exc.start}") from None


class UnsupportedTBoxError(RespoError):
    """The TBox (or TBox/method combination) is outside the supported
    fragment for the requested operation."""


# ---------------------------------------------------------------------------
# Value classes
# ---------------------------------------------------------------------------

def _value_repr(self) -> str:
    cls = type(self)
    inner = ", ".join(f"{name}={getattr(self, name)!r}" for name in cls.__value_fields__)
    return f"{cls.__qualname__}({inner})"


def _frozen_setattr(self, name, value):
    raise AttributeError(f"cannot assign to field {name!r}")


def _frozen_delattr(self, name):
    raise AttributeError(f"cannot delete field {name!r}")


def value_class(*, slots: bool = False):
    """A class decorator that turns the class's annotated names into the
    fields of an immutable value, as `dataclasses.dataclass(frozen=True)`
    does: `__init__` takes them in order, a class attribute being the
    field's default, and calls `__post_init__` last; `__eq__` compares and
    `__hash__` hashes the tuple of all fields; `__repr__` lists them; and
    `setattr` and `delattr` are refused.  Methods the class defines itself
    are kept.  With `slots` the class is rebuilt with `__slots__` naming
    its fields.  Fields come from the class's own annotations only, not
    from base classes."""
    return lambda cls: _build_value_class(cls, slots)


def _build_value_class(cls, slots: bool):
    body = cls.__dict__
    fields = tuple(body.get("__annotations__", {}))

    # One exec defines every generated method; its globals hold the defaults.
    scope = {"__name__": cls.__module__, "_setattr": object.__setattr__}
    source: list[str] = []
    if "__init__" not in body:
        params, lines = ["self"], []
        for name in fields:
            if name in body:
                scope[f"_default_{name}"] = body[name]
                params.append(f"{name}=_default_{name}")
            else:
                params.append(name)
            lines.append(f"_setattr(self, {name!r}, {name})")
        if hasattr(cls, "__post_init__"):
            lines.append("self.__post_init__()")
        source.append(f"def __init__({', '.join(params)}):\n " + "\n ".join(lines or ["pass"]))
    mine = "".join(f"self.{name}," for name in fields)
    if "__eq__" not in body:
        theirs = "".join(f"other.{name}," for name in fields)
        source.append(
            "def __eq__(self, other):\n"
            " if other.__class__ is self.__class__:\n"
            f"  return ({mine}) == ({theirs})\n"
            " return NotImplemented")
    if body.get("__hash__") is None:
        source.append(f"def __hash__(self):\n return hash(({mine}))")
    exec("\n".join(source), scope)

    attrs = {name: scope[name] for name in ("__init__", "__eq__", "__hash__") if name in scope}
    for fn in attrs.values():
        fn.__qualname__ = f"{cls.__qualname__}.{fn.__name__}"
    attrs["__value_fields__"] = fields
    if "__repr__" not in body:
        attrs["__repr__"] = _value_repr
    attrs["__setattr__"] = _frozen_setattr
    attrs["__delattr__"] = _frozen_delattr

    if slots:
        kept = {k: v for k, v in body.items() if k not in fields and k not in ("__dict__", "__weakref__")}
        built = type(cls)(cls.__name__, cls.__bases__, {**kept, **attrs, "__slots__": fields})
        built.__qualname__ = cls.__qualname__
        return built
    for name, value in attrs.items():
        setattr(cls, name, value)
    return cls


# ---------------------------------------------------------------------------
# Terms and roles
# ---------------------------------------------------------------------------

VAR = "var"
CONST = "const"


@value_class(slots=True)
class Term:
    kind: str
    name: str

    def __post_init__(self):
        if self.kind not in (VAR, CONST):
            raise ValueError(f"bad term kind {self.kind!r}")
        if not self.name:
            raise ValueError("variables and constants need a name")

    @property
    def is_var(self) -> bool:
        return self.kind == VAR

    @property
    def is_const(self) -> bool:
        return self.kind == CONST

    def __repr__(self) -> str:
        return f"?{self.name}" if self.kind == VAR else self.name


def var(name: str) -> Term:
    return Term(VAR, name)


def const(name: str) -> Term:
    return Term(CONST, name)


class _Anonymous:
    """The type of `ANON`, which has this one instance."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "<anon>"


#: The distinguished "maps to an anonymous element" marker of the
#: assignments that the interaction-free check reads: a single value,
#: never equal to a constant name, and never a query term.
ANON = _Anonymous()


@value_class(slots=True)
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

# A basic concept B ::= A | exists R by its key: a concept name, or the
# role R standing for exists R.
ConceptKey = str | Role


CONCEPT_INCLUSION = "concept"
ROLE_INCLUSION = "role"


@value_class(slots=True)
class Axiom:
    """A concept inclusion B <= [!]C, each side a `ConceptKey`, or a role
    inclusion R <= [!]S, each side a `Role`."""

    kind: str
    lhs: ConceptKey
    rhs: ConceptKey
    negated: bool = False

    def __post_init__(self):
        if self.kind == CONCEPT_INCLUSION:
            if not (isinstance(self.lhs, (str, Role)) and isinstance(self.rhs, (str, Role))):
                raise ValueError("concept inclusion sides must be concept names or roles")
        elif self.kind == ROLE_INCLUSION:
            if not (isinstance(self.lhs, Role) and isinstance(self.rhs, Role)):
                raise ValueError("role inclusion sides must be roles")
        else:
            raise ValueError(f"bad axiom kind {self.kind!r}")


@value_class(slots=True)
class ConjunctionAxiom:
    """Horn extension: A & B <= C over concept names."""

    lhs1: str
    lhs2: str
    rhs: str


@value_class(slots=True)
class QualifiedExistsAxiom:
    """Horn extension: exists R.A <= B (qualified existential on the left)."""

    role: Role
    filler: str
    rhs: str


HornAxiom = ConjunctionAxiom | QualifiedExistsAxiom


@value_class()
class TBox:
    axioms: frozenset[Axiom] = frozenset()
    horn_axioms: frozenset[HornAxiom] = frozenset()

    @property
    def horn_extended(self) -> bool:
        return bool(self.horn_axioms)

    def concept_names(self) -> set[str]:
        names = {
            side for ax in self.axioms for side in (ax.lhs, ax.rhs) if isinstance(side, str)
        }
        for ax in self.horn_axioms:
            if isinstance(ax, ConjunctionAxiom):
                names.update((ax.lhs1, ax.lhs2, ax.rhs))
            else:
                names.update((ax.filler, ax.rhs))
        return names

    def role_names(self) -> set[str]:
        names = {
            side.name for ax in self.axioms for side in (ax.lhs, ax.rhs) if isinstance(side, Role)
        }
        names.update(
            ax.role.name for ax in self.horn_axioms if isinstance(ax, QualifiedExistsAxiom)
        )
        return names


# ---------------------------------------------------------------------------
# Facts and ABoxes
# ---------------------------------------------------------------------------

@value_class(slots=True)
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


@value_class()
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


# ---------------------------------------------------------------------------
# Query atoms, CQs, UCQs, OMQs
# ---------------------------------------------------------------------------

CONCEPT_ATOM = "concept"
ROLE_ATOM = "role"
NEQ_ATOM = "neq"


@value_class(slots=True)
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
    a, b = sorted((t1, t2), key=lambda t: (t.kind, t.name))
    return Atom(NEQ_ATOM, None, (a, b))


def _atom_order(atom: Atom):
    return (
        atom.kind,
        atom.predicate or "",
        tuple((t.kind, t.name) for t in atom.terms),
    )


@value_class()
class CQ:
    """A Boolean conjunctive query, possibly with disequality atoms and
    constants.  Stored as a deduplicated, deterministically ordered atom
    tuple."""

    atoms: tuple[Atom, ...]

    def __post_init__(self):
        ordered = tuple(sorted(set(self.atoms), key=_atom_order))
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


@value_class()
class UCQ:
    disjuncts: tuple[CQ, ...]

    def __post_init__(self):
        if not self.disjuncts:
            raise ValueError("a UCQ needs at least one disjunct")

    def __repr__(self) -> str:
        return " OR ".join(repr(d) for d in self.disjuncts)


def as_ucq(query: CQ | UCQ) -> UCQ:
    return query if isinstance(query, UCQ) else UCQ((query,))


@value_class()
class OMQ:
    """An ontology-mediated query: a TBox paired with a Boolean (U)CQ."""

    tbox: TBox
    query: UCQ

    def __init__(self, tbox: TBox, query: CQ | UCQ):
        object.__setattr__(self, "tbox", tbox)
        object.__setattr__(self, "query", as_ucq(query))


# An assignment maps variable names to constant names or to ANON.
Assignment = Mapping[str, "str | _Anonymous"]


# ---------------------------------------------------------------------------
# Connected components
# ---------------------------------------------------------------------------

def connected_components(cq: CQ) -> list[CQ]:
    """cq's connected components, in the order of their first atoms: two
    atoms share a component iff a chain of atoms, disequalities included,
    links them through shared variables, so an atom without variables is a
    component of its own.  A homomorphism count is the product of the
    counts of the components."""
    groups: list[tuple[set[str], list[Atom]]] = []  # in order of first atom
    for atom in cq.atoms:
        names = set(atom.variables())
        linked = [group for group in groups if not names.isdisjoint(group[0])]
        if not linked:
            groups.append((names, [atom]))
            continue
        first = linked[0]
        first[0].update(names)
        first[1].append(atom)
        for group in linked[1:]:
            first[0].update(group[0])
            first[1].extend(group[1])
            groups.remove(group)
    if len(groups) == 1:
        return [cq]
    return [CQ(tuple(atoms)) for _, atoms in groups]


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


def decimal_approx(value: Fraction) -> str:
    """Fixed-point decimal rendering to 6 places, rounded half up, for
    display; scores themselves stay exact."""
    sign = "-" if value < 0 else ""
    value = abs(value)
    whole, rem = divmod(value.numerator * 10**6, value.denominator)
    if 2 * rem >= value.denominator:
        whole += 1
    digits = str(whole).rjust(7, "0")
    return f"{sign}{digits[:-6]}.{digits[-6:]}"


# ---------------------------------------------------------------------------
# Support histograms
# ---------------------------------------------------------------------------

@value_class()
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


# Each fact's non-zero per-size counts of the minimal supports containing it.
FactCounts = dict[Fact, dict[int, int]]


# ---------------------------------------------------------------------------
# Weight functions
# ---------------------------------------------------------------------------

@value_class()
class WeightFunction:
    """w(|S|, |D|) used by the weighted-sum scores.  Built-ins live in the
    scoring module; all of them are positive for |S| >= 1.  Two weight
    functions are equal when their names are."""

    name: str
    evaluate: Callable[[int, int], Fraction]

    def __eq__(self, other) -> bool:
        if other.__class__ is self.__class__:
            return self.name == other.name
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.name,))

    def __call__(self, support_size: int, db_size: int) -> Fraction:
        return self.evaluate(support_size, db_size)


# ---------------------------------------------------------------------------
# Scoring methods and caps
# ---------------------------------------------------------------------------

# The pipelines a `shapley.Plan` runs, by name; `auto` picks one.  The
# names and the cap live here so that `cli` builds its parser without
# loading `shapley`.
METHODS = ("auto", "brute", "partition", "if", "provenance")

# The largest database brute force and the drastic Shapley value take by
# default: 2^20 coalitions.
BRUTE_FORCE_CAP = 20
