"""SQL-92 emission for the partition pipeline: a relational schema (one
table per concept/role name), an ABox loader, and one SELECT COUNT(*)
query per counting query.  The gamma-weighted aggregation of the counts
reproduces countFMS(k); the weighting itself stays in the harness so the
emitted SQL remains engine-agnostic and the coefficients exact.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from typing import Iterable, Mapping

from .model import ABox, CONCEPT_ATOM, CQ, UCQ, as_ucq, format_rational, value_class
from .support import CountingQuery

_SQL_KEYWORDS = {
    "select", "from", "where", "table", "insert", "values", "count",
    "and", "or", "not", "as", "into", "create", "drop", "order", "group",
}


def sanitize_names(names: list[str]) -> dict[str, str]:
    """Deterministic predicate-to-table mapping: lowercase, non-alphanumerics
    to underscores, keyword/digit-led names prefixed, collisions suffixed
    _2, _3, ... in sorted input order."""
    mapping: dict[str, str] = {}
    used: set[str] = set()
    for name in sorted(names):
        base = re.sub(r"[^a-z0-9_]", "_", name.lower())
        if not base or base[0].isdigit():
            base = f"t_{base}"
        if base in _SQL_KEYWORDS:
            base = f"{base}_t"
        candidate = base
        suffix = 2
        while candidate in used:
            candidate = f"{base}_{suffix}"
            suffix += 1
        used.add(candidate)
        mapping[name] = candidate
    return mapping


def _signature_of(ucq: UCQ, abox: ABox | None = None) -> tuple[list[str], list[str]]:
    concepts: set[str] = set()
    roles: set[str] = set()
    for d in ucq.disjuncts:
        for atom in d.relational_atoms():
            (concepts if atom.kind == CONCEPT_ATOM else roles).add(atom.predicate)
    if abox is not None:
        for f in abox:
            (concepts if f.is_concept else roles).add(f.predicate)
    return sorted(concepts), sorted(roles)


def emit_schema(concepts: list[str], roles: list[str], tables: dict[str, str]) -> str:
    lines = []
    for name in sorted(concepts):
        lines.append(f"CREATE TABLE {tables[name]} (c VARCHAR(128));")
    for name in sorted(roles):
        lines.append(f"CREATE TABLE {tables[name]} (s VARCHAR(128), o VARCHAR(128));")
    return "\n".join(lines) + ("\n" if lines else "")


def _quote(value: str) -> str:
    return "'" + value.replace("'", "''") + "'"


def emit_loader(abox: ABox, tables: dict[str, str]) -> str:
    lines = []
    for f in sorted(abox, key=lambda f: f.label):
        values = ", ".join(_quote(a) for a in f.args)
        lines.append(f"INSERT INTO {tables[f.predicate]} VALUES ({values});")
    return "\n".join(lines) + ("\n" if lines else "")


def emit_count_query(cq: CQ, tables: dict[str, str]) -> str:
    """SELECT COUNT(*) over one aliased table per relational atom, shared
    variables joined by column equality, constants pinned, disequalities
    as <>."""
    rel = cq.relational_atoms()
    aliases = [f"a{i}" for i in range(len(rel))]
    froms = [f"{tables[atom.predicate]} AS {aliases[i]}" for i, atom in enumerate(rel)]

    first_column: dict[str, str] = {}
    conditions: list[str] = []
    for i, atom in enumerate(rel):
        columns = ("c",) if atom.kind == CONCEPT_ATOM else ("s", "o")
        for col, term in zip(columns, atom.terms):
            ref = f"{aliases[i]}.{col}"
            if term.is_const:
                conditions.append(f"{ref} = {_quote(term.name)}")
            else:
                anchor = first_column.setdefault(term.name, ref)
                if anchor != ref:
                    conditions.append(f"{anchor} = {ref}")

    for atom in cq.neq_atoms():
        sides = []
        for t in atom.terms:
            sides.append(first_column[t.name] if t.is_var else _quote(t.name))
        conditions.append(f"{sides[0]} <> {sides[1]}")

    sql = f"SELECT COUNT(*) FROM {', '.join(froms)}"
    if conditions:
        sql += f" WHERE {' AND '.join(conditions)}"
    return sql


@value_class()
class ManifestEntry:
    query_id: str
    sql: str
    gamma: Fraction
    size: int


@value_class()
class SqlManifest:
    """Schema, loader, and independently executable counting queries; the
    final aggregation instruction is: countFMS(k) equals the sum over the
    size-k entries of (executed count times gamma)."""

    schema_sql: str
    loader_sql: str
    entries: tuple[ManifestEntry, ...]
    tables: dict[str, str]

    def to_json(self) -> str:
        payload = {
            "aggregation": "countFMS(k) = sum over entries of size k of count * gamma",
            "parallel": True,
            "queries": [
                {
                    "id": e.query_id,
                    "sql": e.sql,
                    "gamma": format_rational(e.gamma),
                    "size": e.size,
                }
                for e in self.entries
            ],
        }
        return json.dumps(payload, indent=2) + "\n"


def build_manifest(
    ucq: CQ | UCQ, queries: Mapping[int, Iterable[CountingQuery]], abox: ABox
) -> SqlManifest:
    """Render the counting queries of each size (see
    `support.counting_queries`) over the UCQ's and the ABox's signature."""
    ucq = as_ucq(ucq)
    concepts, roles = _signature_of(ucq, abox)
    # Counting queries may pin constants on predicates the ABox lacks;
    # their tables must still exist for the SQL to run.
    tables = sanitize_names(list(set(concepts) | set(roles)))
    entries: list[ManifestEntry] = []
    for k, qs in queries.items():
        for i, cq in enumerate(qs):
            entries.append(
                ManifestEntry(
                    query_id=f"k{k}_q{i}",
                    sql=emit_count_query(cq.cq, tables),
                    gamma=cq.gamma,
                    size=k,
                )
            )
    return SqlManifest(
        schema_sql=emit_schema(concepts, roles, tables),
        loader_sql=emit_loader(abox, tables),
        entries=tuple(entries),
        tables=tables,
    )
