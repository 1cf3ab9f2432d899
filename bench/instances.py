"""Seeded benchmark instances and the correctness gates that check them.

Every op gets a fresh instance.  Its fact labels and constants start with
a per-op prefix: a six-letter tag drawn from the seed, then the op number.
No op therefore shares a label or a constant with an earlier op, so no
ABox-keyed cache can serve one op from another.  Within an op the prefix is
the same for all names, so label order is the same in every op, and so is
the work.

The gates check each answer against values derived here, never against
the pipeline under test:

* the variant fixture replicated r times has 6*r^2 minimal supports, all
  of size 6, and every copy scores like copy 0;
* the minimal vertex covers of a cycle and the simple source-target paths
  of a grid come from small exhaustive searches in this file.
"""

from __future__ import annotations

import json
import random
import re
import string
from fractions import Fraction
from itertools import combinations
from pathlib import Path

_FACT_LINE = re.compile(r"^(\w+)\s*:\s*(\w+)\(\s*(\w+)\s*(?:,\s*(\w+)\s*)?\)$")

CYCLE_LEN = 12
GRID_SIDE = 3


class Namer:
    """Per-op name prefixes from the workload seed."""

    def __init__(self, workload: str, seed: int):
        rng = random.Random(f"{workload}:{seed}")
        self.tag = "".join(rng.choice(string.ascii_lowercase) for _ in range(6))

    def prefix(self, op: int) -> str:
        return f"{self.tag}{op:05d}"


# ---------------------------------------------------------------------------
# Variant fixture replicas (CLI workloads)
# ---------------------------------------------------------------------------

def parse_fixture_facts(text: str) -> list[tuple[str, str, tuple[str, ...]]]:
    """(label, predicate, args) for every `label: P(a[, b])` line."""
    facts = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        m = _FACT_LINE.match(line)
        if not m:
            raise ValueError(f"unexpected fixture line {line!r}")
        label, pred, a1, a2 = m.groups()
        facts.append((label, pred, (a1,) if a2 is None else (a1, a2)))
    return facts


def replica_label(prefix: str, copy: int, label: str) -> str:
    return f"{prefix}c{copy:02d}{label}"


def variant_replica(fixture, prefix: str, copies: int) -> str:
    """ABox text: `copies` relabelled copies of the fixture facts."""
    lines = []
    for c in range(copies):
        for label, pred, args in fixture:
            renamed = ", ".join(replica_label(prefix, c, a) for a in args)
            lines.append(f"{replica_label(prefix, c, label)}: {pred}({renamed})")
    return "\n".join(lines) + "\n"


def check_variant_scores(stdout: str, fixture, prefix: str, copies: int) -> str | None:
    """None when `respo score --weight ms` output is right, else the reason."""
    try:
        payload = json.loads(stdout)
        scores = {label: Fraction(v["score"]) for label, v in payload.items()}
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable score output: {exc}"
    expected = {replica_label(prefix, c, f[0]) for c in range(copies) for f in fixture}
    if set(scores) != expected:
        return "scored fact labels differ from the ABox labels"
    total = sum(scores.values())
    if total != 6 * copies * copies:
        return f"scores sum to {total}, expected {6 * copies * copies}"
    for c in range(1, copies):
        for label, _, _ in fixture:
            if scores[replica_label(prefix, c, label)] != scores[replica_label(prefix, 0, label)]:
                return f"copy {c} of {label} scores unlike copy 0"
    return None


def check_variant_counts(stdout: str, copies: int) -> str | None:
    """None when `respo count-fms` output is right, else the reason."""
    try:
        counts = json.loads(stdout)
    except ValueError as exc:
        return f"unreadable count output: {exc}"
    expected = {"6": 6 * copies * copies}
    return None if counts == expected else f"counts {counts}, expected {expected}"


# ---------------------------------------------------------------------------
# Horn instances (library workload)
# ---------------------------------------------------------------------------

def cycle_edges(prefix: str, n: int = CYCLE_LEN) -> list[tuple[str, str]]:
    names = [f"{prefix}v{i:02d}" for i in range(n)]
    return [(names[i], names[(i + 1) % n]) for i in range(n)]


def grid_edges(prefix: str, side: int = GRID_SIDE) -> tuple[list[tuple[str, str]], str, str]:
    """Directed grid, edges pointing right and down; source top left,
    target bottom right."""

    def v(r: int, c: int) -> str:
        return f"{prefix}g{r}{c}"

    edges = []
    for r in range(side):
        for c in range(side):
            if c + 1 < side:
                edges.append((v(r, c), v(r, c + 1)))
            if r + 1 < side:
                edges.append((v(r, c), v(r + 1, c)))
    return edges, v(0, 0), v(side - 1, side - 1)


def mvc_size_histogram(edges) -> dict[int, int]:
    """Sizes of the inclusion-minimal vertex covers, by exhaustive search."""
    vertices = sorted({v for e in edges for v in e})

    def covers(s) -> bool:
        return all(u in s or v in s for u, v in edges)

    hist: dict[int, int] = {}
    for k in range(len(vertices) + 1):
        for combo in combinations(vertices, k):
            s = set(combo)
            if covers(s) and not any(covers(s - {v}) for v in s):
                hist[k] = hist.get(k, 0) + 1
    return hist


def path_size_histogram(edges, source: str, target: str) -> dict[int, int]:
    """Minimal-support sizes for reachability: each simple source-target
    path's edges plus the target marker fact."""
    succ: dict[str, list[str]] = {}
    for u, v in edges:
        succ.setdefault(u, []).append(v)
    hist: dict[int, int] = {}

    def walk(node: str, seen: frozenset, length: int):
        if node == target:
            hist[length + 1] = hist.get(length + 1, 0) + 1
            return
        for nxt in succ.get(node, ()):
            if nxt not in seen:
                walk(nxt, seen | {nxt}, length + 1)

    walk(source, frozenset({source}), 0)
    return hist


def horn_instance(kind: str, prefix: str):
    """(ABox, OMQ) of a fresh `gen_mvc` 12-cycle or `gen_reachability` 3x3
    grid, with every fact label and constant carrying the prefix."""
    from respo.generators import Graph, gen_mvc, gen_reachability
    from respo.model import ABox, Atom, CQ, Fact, OMQ, UCQ, const

    if kind == "mvc":
        edges = cycle_edges(prefix)
        vertices = tuple(u for u, _ in edges)
        tbox, abox, query = gen_mvc(Graph(vertices, tuple(edges)))
        rename = {"g": f"{prefix}g"}  # the generator's one shared constant
    else:
        edges, source, target = grid_edges(prefix)
        vertices = tuple(dict.fromkeys(v for e in edges for v in e))
        tbox, abox, query = gen_reachability(
            Graph(vertices, tuple(edges), directed=True), source, target
        )
        rename = {}
    facts = tuple(
        Fact(prefix + f.label, f.predicate, tuple(rename.get(a, a) for a in f.args))
        for f in abox
    )

    def renamed(atom):
        terms = tuple(const(rename.get(t.name, t.name)) if t.is_const else t for t in atom.terms)
        return Atom(atom.kind, atom.predicate, terms)

    query = UCQ(tuple(CQ(tuple(renamed(a) for a in cq.atoms)) for cq in query.disjuncts))
    return ABox(facts), OMQ(tbox, query)


def horn_expected(kind: str) -> dict[int, int]:
    """Oracle support-size histogram of every `horn_instance` of a kind."""
    if kind == "mvc":
        return mvc_size_histogram(cycle_edges("x"))
    edges, source, target = grid_edges("x")
    return path_size_histogram(edges, source, target)


def check_horn_result(counts: dict[int, int], score_sum: Fraction, expected: dict[int, int]) -> str | None:
    """None when a `score_all` histogram and its ms-score total match the
    exhaustive oracle, else the reason."""
    if {k: v for k, v in counts.items() if v} != expected:
        return f"histogram {counts}, expected {expected}"
    if score_sum != sum(expected.values()):
        return f"scores sum to {score_sum}, expected {sum(expected.values())}"
    return None


def read_fixture(root: Path) -> list[tuple[str, str, tuple[str, ...]]]:
    return parse_fixture_facts((root / "fixtures" / "variant.abox").read_text(encoding="utf-8"))
