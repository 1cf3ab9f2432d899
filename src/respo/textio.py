"""Parsing and serialization of TBox, ABox, query, and result files, and
the loading of a command's input files (`load_inputs`).

TBox grammar (one axiom per line, '#' comments, blank lines skipped):

    concept-incl  := basic "<=" ["!"] basic
    basic         := NAME | "exists" WS ROLE
    role-incl     := "role:" ROLE "<=" ["!"] ROLE
    ROLE          := NAME ["-"]
    horn-conj     := NAME "&" NAME "<=" NAME               (Horn extension)
    horn-qexists  := "exists" WS ROLE "." NAME "<=" NAME   (Horn extension)

WS is one or more whitespace characters, so `existsA` is a concept name.
A basic concept parses to its `model.ConceptKey`: the concept name, or
the role R of exists R.

ABox lines are "[LABEL:] NAME(const[, const])"; unlabeled facts are
auto-labeled f0, f1, ... in file order.  Query files hold comma-separated
atoms, "?name" variables, bare constants, "t1 != t2" disequalities, and
disjuncts separated by lines containing only OR.
"""

from __future__ import annotations

import json
import re

from .model import (
    ABox,
    Atom,
    Axiom,
    CONCEPT_INCLUSION,
    CQ,
    ConceptKey,
    ConjunctionAxiom,
    Fact,
    InputError,
    OMQ,
    QualifiedExistsAxiom,
    ROLE_INCLUSION,
    RespoError,
    Role,
    TBox,
    Term,
    UCQ,
    concept_atom,
    connected_components,
    const,
    decimal_approx,
    format_rational,
    neq_atom,
    read_text,
    role_atom,
    var,
)


class ParseError(RespoError):
    """A malformed input line, reported as "<line>:1: error: <message>"."""

    def __init__(self, line: int, message: str):
        super().__init__(f"{line}:1: error: {message}")


_NAME = r"[A-Za-z_][A-Za-z0-9_]*"
_CONSTTOK = r"[A-Za-z0-9_]+"

_ROLE_RE = re.compile(rf"({_NAME})(-?)$")
_EXISTS_RE = re.compile(r"exists(?:\s+(.*))?$")
_FACT_RE = re.compile(
    rf"^(?:({_NAME})\s*:\s*)?({_NAME})\s*\(\s*({_CONSTTOK})\s*(?:,\s*({_CONSTTOK})\s*)?\)$"
)
_HORN_CONJ_RE = re.compile(rf"^({_NAME})\s*&\s*({_NAME})\s*<=\s*({_NAME})$")
_HORN_QEXISTS_RE = re.compile(rf"^exists\s+({_NAME})(-?)\s*\.\s*({_NAME})\s*<=\s*({_NAME})$")


def _lines(text: str):
    for i, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield i, line


def _parse_role(token: str, lineno: int) -> Role:
    m = _ROLE_RE.match(token.strip())
    if not m:
        raise ParseError(lineno, f"bad role {token!r}")
    return Role(m.group(1), m.group(2) == "-")


def _parse_basic(token: str, lineno: int) -> ConceptKey:
    token = token.strip()
    m = _EXISTS_RE.match(token)
    if m:
        if m.group(1) is None:
            raise ParseError(lineno, "exists needs a role")
        return _parse_role(m.group(1), lineno)
    if not re.fullmatch(_NAME, token):
        raise ParseError(lineno, f"bad concept name {token!r}")
    return token


class _ArityTracker:
    """Rejects a name used both as a concept and as a role."""

    def __init__(self):
        self.seen: dict[str, str] = {}

    def note(self, name: str, kind: str, lineno: int):
        before = self.seen.setdefault(name, kind)
        if before != kind:
            raise ParseError(lineno, f"{name!r} used as both a {before} and a {kind}")


def parse_tbox(text: str) -> TBox:
    axioms: list[Axiom] = []
    horn: list = []
    arity = _ArityTracker()
    for lineno, line in _lines(text):
        if line.startswith("role:"):
            body = line[len("role:"):]
            if "<=" not in body:
                raise ParseError(lineno, "role inclusion needs '<='")
            lhs_s, rhs_s = body.split("<=", 1)
            negated = False
            rhs_s = rhs_s.strip()
            if rhs_s.startswith("!"):
                negated = True
                rhs_s = rhs_s[1:]
            lhs = _parse_role(lhs_s, lineno)
            rhs = _parse_role(rhs_s, lineno)
            arity.note(lhs.name, "role", lineno)
            arity.note(rhs.name, "role", lineno)
            axioms.append(Axiom(ROLE_INCLUSION, lhs, rhs, negated))
            continue

        m = _HORN_QEXISTS_RE.match(line)
        if m:
            role = Role(m.group(1), m.group(2) == "-")
            arity.note(role.name, "role", lineno)
            arity.note(m.group(3), "concept", lineno)
            arity.note(m.group(4), "concept", lineno)
            horn.append(QualifiedExistsAxiom(role, m.group(3), m.group(4)))
            continue
        m = _HORN_CONJ_RE.match(line)
        if m:
            for name in m.groups():
                arity.note(name, "concept", lineno)
            horn.append(ConjunctionAxiom(m.group(1), m.group(2), m.group(3)))
            continue

        if "<=" not in line:
            raise ParseError(lineno, f"unrecognized axiom {line!r}")
        lhs_s, rhs_s = line.split("<=", 1)
        lhs_s = lhs_s.strip()
        rhs_s = rhs_s.strip()
        if lhs_s.startswith("!"):
            raise ParseError(lineno, "left-hand sides cannot be negated")
        negated = False
        if rhs_s.startswith("!"):
            negated = True
            rhs_s = rhs_s[1:].strip()
        lhs = _parse_basic(lhs_s, lineno)
        rhs = _parse_basic(rhs_s, lineno)
        for side in (lhs, rhs):
            if isinstance(side, str):
                arity.note(side, "concept", lineno)
            else:
                arity.note(side.name, "role", lineno)
        axioms.append(Axiom(CONCEPT_INCLUSION, lhs, rhs, negated))
    return TBox(frozenset(axioms), frozenset(horn))


def _render_side(kind: str, side: ConceptKey) -> str:
    """An axiom side as the TBox grammar writes it: a role on a side of a
    concept inclusion stands for exists R."""
    if isinstance(side, str):
        return side
    return repr(side) if kind == ROLE_INCLUSION else f"exists {side!r}"


def render_tbox(tbox: TBox) -> str:
    """The TBox's lines: its DL-Lite inclusions, concept inclusions first,
    each kind ordered by left side, right side, then sign; then its Horn
    axioms."""
    rows = sorted(
        (ax.kind, _render_side(ax.kind, ax.lhs), _render_side(ax.kind, ax.rhs), ax.negated)
        for ax in tbox.axioms
    )
    lines = [
        f"{'role: ' if kind == ROLE_INCLUSION else ''}{lhs} <= {'!' if negated else ''}{rhs}"
        for kind, lhs, rhs, negated in rows
    ]
    for ax in sorted(tbox.horn_axioms, key=repr):
        if isinstance(ax, ConjunctionAxiom):
            lines.append(f"{ax.lhs1} & {ax.lhs2} <= {ax.rhs}")
        else:
            lines.append(f"exists {ax.role!r}.{ax.filler} <= {ax.rhs}")
    return "\n".join(lines) + ("\n" if lines else "")


def parse_abox(text: str) -> ABox:
    facts: list[Fact] = []
    labels: set[str] = set()
    assertions: set[tuple[str, tuple[str, ...]]] = set()
    arity = _ArityTracker()
    for lineno, line in _lines(text):
        m = _FACT_RE.match(line)
        if not m:
            raise ParseError(lineno, f"bad fact {line!r}")
        label, pred, a1, a2 = m.groups()
        if label is None:
            label = f"f{len(facts)}"
        args = (a1,) if a2 is None else (a1, a2)
        arity.note(pred, "concept" if len(args) == 1 else "role", lineno)
        if label in labels:
            raise ParseError(lineno, f"duplicate fact label {label!r}")
        if (pred, args) in assertions:
            raise ParseError(lineno, f"duplicate assertion {pred}({','.join(args)})")
        labels.add(label)
        assertions.add((pred, args))
        facts.append(Fact(label, pred, args))
    return ABox(tuple(facts))


def render_abox(abox: ABox) -> str:
    lines = [f"{f.label}: {f.predicate}({', '.join(f.args)})" for f in abox]
    return "\n".join(lines) + ("\n" if lines else "")


# ---------------------------------------------------------------------------
# Queries
# ---------------------------------------------------------------------------

_TERM_RE = re.compile(rf"^\?({_NAME})$|^({_CONSTTOK})$")
_ATOM_RE = re.compile(rf"^({_NAME})\s*\(\s*([^)]*)\s*\)$")
_NEQ_RE = re.compile(r"^(\S+)\s*!=\s*(\S+)$")


def _parse_term(token: str, lineno: int) -> Term:
    m = _TERM_RE.match(token.strip())
    if not m:
        raise ParseError(lineno, f"bad term {token!r}")
    if m.group(1):
        return var(m.group(1))
    return const(m.group(2))


def _split_atoms(line: str):
    """Split on commas that are not inside parentheses."""
    parts, depth, buf = [], 0, []
    for ch in line:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth = max(0, depth - 1)
        if ch == "," and depth == 0:
            parts.append("".join(buf))
            buf = []
        else:
            buf.append(ch)
    parts.append("".join(buf))
    return [p.strip() for p in parts if p.strip()]


def parse_query(text: str) -> UCQ:
    """The UCQ of a query file.  Each disjunct needs a relational atom,
    and each disequality must relate terms of one connected component of
    the disjunct's relational atoms: a failure names the line of the
    disjunct, or of the disequality at fault; an empty disjunct, the line
    of the OR before it, or after it for the first."""
    arity = _ArityTracker()
    disjunct_chunks: list[list[tuple[int, str]]] = [[]]
    or_lines: list[int] = []
    for lineno, line in _lines(text):
        if line == "OR":
            disjunct_chunks.append([])
            or_lines.append(lineno)
            continue
        disjunct_chunks[-1].append((lineno, line))

    disjuncts: list[CQ] = []
    for i, chunk in enumerate(disjunct_chunks):
        if not chunk:
            raise ParseError(or_lines[max(i - 1, 0)] if or_lines else 1, "empty disjunct")
        atoms: list[Atom] = []
        neqs: list[tuple[int, Atom]] = []
        for lineno, line in chunk:
            for atom_s in _split_atoms(line):
                neq = _NEQ_RE.match(atom_s)
                if neq and "(" not in atom_s:
                    t1 = _parse_term(neq.group(1), lineno)
                    t2 = _parse_term(neq.group(2), lineno)
                    if t1 == t2:
                        raise ParseError(lineno, "disequality terms must differ")
                    neqs.append((lineno, neq_atom(t1, t2)))
                    continue
                m = _ATOM_RE.match(atom_s)
                if not m:
                    raise ParseError(lineno, f"bad atom {atom_s!r}")
                pred, args_s = m.groups()
                terms = [_parse_term(t, lineno) for t in args_s.split(",")] if args_s.strip() else []
                if len(terms) == 1:
                    arity.note(pred, "concept", lineno)
                    atoms.append(concept_atom(pred, terms[0]))
                elif len(terms) == 2:
                    arity.note(pred, "role", lineno)
                    atoms.append(role_atom(pred, terms[0], terms[1]))
                else:
                    raise ParseError(lineno, f"atom {pred!r} needs one or two arguments")
        if not atoms:
            raise ParseError(chunk[0][0], "query has no relational atoms")
        home = {
            v: i
            for i, component in enumerate(connected_components(CQ(tuple(atoms))))
            for v in component.variables()
        }
        for lineno, neq in neqs:
            for v in neq.variables():
                if v not in home:
                    raise ParseError(
                        lineno, f"disequality variable ?{v} occurs in no relational atom"
                    )
            if len({home[v] for v in neq.variables()}) > 1:
                raise ParseError(lineno, "disequality spans two query components")
        disjuncts.append(CQ(tuple(atoms + [neq for _, neq in neqs])))
    return UCQ(tuple(disjuncts))


def render_term(t: Term) -> str:
    return f"?{t.name}" if t.is_var else str(t.name)


def render_atom(atom: Atom) -> str:
    if not atom.is_relational:
        return f"{render_term(atom.terms[0])} != {render_term(atom.terms[1])}"
    return f"{atom.predicate}({', '.join(render_term(t) for t in atom.terms)})"


def render_cq(cq: CQ) -> str:
    return ", ".join(render_atom(a) for a in cq.atoms)


def render_query(ucq: UCQ) -> str:
    return "\nOR\n".join(render_cq(d) for d in ucq.disjuncts) + "\n"


def check_signature_consistency(tbox: TBox | None, abox: ABox | None, query: UCQ | None):
    """Reject a name used as a concept in one input and a role in another
    with an `InputError` that names both inputs; each parser has already
    rejected such a name within its own input, at its line."""
    uses: list[tuple[str, str, str]] = []
    if tbox is not None:
        uses += [(name, "concept", "TBox") for name in tbox.concept_names()]
        uses += [(name, "role", "TBox") for name in tbox.role_names()]
    if abox is not None:
        uses += [(f.predicate, "concept" if f.is_concept else "role", "ABox") for f in abox]
    if query is not None:
        uses += [
            (atom.predicate, "concept" if len(atom.terms) == 1 else "role", "query")
            for d in query.disjuncts
            for atom in d.relational_atoms()
        ]
    seen: dict[str, tuple[str, str]] = {}
    for name, kind, source in uses:
        before, where = seen.setdefault(name, (kind, source))
        if before != kind:
            raise InputError(f"{name!r} is a {before} in the {where} and a {kind} in the {source}")


def instantiate_query(ucq: UCQ, bindings: dict[str, str]) -> UCQ:
    """Substitute constants for (answer) variables before scoring.  A
    disjunct in which the binding collapses a disequality is false, so it
    is dropped; `InputError` if every disjunct is."""
    from .queries import UnsatisfiableQuery, substitute

    mapping = {name: const(value) for name, value in bindings.items()}
    kept = []
    for d in ucq.disjuncts:
        try:
            kept.append(substitute(d, mapping))
        except UnsatisfiableQuery as exc:
            collapsed = exc
    if not kept:
        raise InputError(f"the answer binding makes the query false: {collapsed}")
    return UCQ(tuple(kept))


def load_inputs(args, need_abox: bool = False) -> tuple[OMQ | None, ABox | None]:
    """The OMQ and the ABox that a command's --tbox, --abox, --query,
    --answer and --fact options name, read, parsed and checked against
    each other."""
    if need_abox and not args.abox:
        raise InputError(f"{args.command} needs --abox")
    tbox = parse_tbox(read_text(args.tbox)) if args.tbox else None
    abox = parse_abox(read_text(args.abox)) if args.abox else None
    query = parse_query(read_text(args.query)) if args.query else None
    check_signature_consistency(tbox, abox, query)
    if query is not None and getattr(args, "answer", None):
        variables = {v for d in query.disjuncts for v in d.variables()}
        bindings = {}
        for item in args.answer:
            if "=" not in item:
                raise InputError(f"--answer expects var=const, got {item!r}")
            name, value = item.split("=", 1)
            name = name.lstrip("?")
            if name not in variables:
                raise InputError(f"--answer names ?{name}, which the query does not use")
            if name in bindings:
                raise InputError(f"--answer binds ?{name} twice")
            if not re.fullmatch(_CONSTTOK, value):
                raise InputError(f"--answer value {value!r} for ?{name} is not a constant")
            bindings[name] = value
        query = instantiate_query(query, bindings)
    if abox is not None and getattr(args, "fact", None):
        if args.fact not in {f.label for f in abox}:
            raise InputError(f"unknown fact label {args.fact!r}")
    omq = OMQ(tbox if tbox is not None else TBox(), query) if query is not None else None
    return omq, abox


def at_least(args, name: str, least: int):
    """Reject an option --name set below `least`."""
    value = getattr(args, name)
    if value is not None and value < least:
        raise InputError(f"--{name} must be at least {least}, got {value}")


# ---------------------------------------------------------------------------
# Result rendering
# ---------------------------------------------------------------------------

def render_scores_json(scores: dict[str, object]) -> str:
    payload = {
        label: {
            "score": format_rational(value),
            "decimal": decimal_approx(value),
        }
        for label, value in scores.items()
    }
    return json.dumps(payload, indent=2, sort_keys=False) + "\n"


def render_scores_table(scores: dict[str, object]) -> str:
    if not scores:
        return "(no facts)\n"
    width = max(len(label) for label in scores)
    lines = [
        f"{label.ljust(width)}  {format_rational(value):>12}  {decimal_approx(value)}"
        for label, value in scores.items()
    ]
    return "\n".join(lines) + "\n"
