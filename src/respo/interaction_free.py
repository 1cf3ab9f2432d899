"""The interaction-free fast path.

An OMQ is interaction-free when no single generic assertion can satisfy
two distinct (atom, assignment) pairs of the query under the TBox.  For
such OMQs every minimal support picks exactly one fact per query atom, so
counting minimal supports factorizes.  Each fact gets one canonical slice
of its own and yields one row for every (atom, assignment into its
constants or an anonymous witness) pair it satisfies, which
interaction-freeness makes at most one row; the interaction-freeness
check runs the same per-fact enumeration over generic facts.  Summing
the facts' rows gives each atom a table from rows to weights, and weight
products are summed over homomorphisms along a tree decomposition: each
bag joins its atoms' tables with its children's messages, so an
evaluation costs about the number of rows, and connected components
multiply.

A plan (`IFPlan`) is built once per OMQ: it runs the
interaction-freeness check and keeps each component's tree decomposition
and each fact's rows, so scoring every fact, which counts over D and
over each D minus one fact, checks the OMQ once and builds one slice per
fact and one decomposition per component.  Each of those |D| + 1 counts
sums its facts' rows and joins them anew; an inside-outside pass over
the decomposition would give every fact's count from one evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice, product
from typing import Iterable, Sequence

from .model import (
    ANON,
    ABox,
    Atom,
    CONCEPT_ATOM,
    CQ,
    Fact,
    OMQ,
    RespoError,
    SupportHistogram,
    TBox,
    UnsupportedTBoxError,
    connected_components,
)
from .reasoner import canonical_slice, is_consistent, query_depth


class NotInteractionFreeError(UnsupportedTBoxError):
    """The OMQ failed the interaction-freeness check; `auto` falls back to
    another pipeline."""


# ---------------------------------------------------------------------------
# Interaction-freeness check
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class InteractionWitness:
    """A generic assertion satisfying two distinct (atom, assignment)
    pairs."""

    fact_shape: Fact
    atom1: Atom
    assignment1: tuple[tuple[str, str], ...]
    atom2: Atom
    assignment2: tuple[tuple[str, str], ...]

    def __str__(self) -> str:
        def fmt(atom, assignment):
            binding = ", ".join(f"?{v}->{val}" for v, val in assignment)
            return f"{atom!r} [{binding}]" if binding else f"{atom!r}"

        return (
            f"fact {self.fact_shape.predicate}({','.join(self.fact_shape.args)}) "
            f"satisfies both {fmt(self.atom1, self.assignment1)} "
            f"and {fmt(self.atom2, self.assignment2)}"
        )


def _query_cq(omq: OMQ) -> CQ:
    if len(omq.query.disjuncts) != 1:
        raise UnsupportedTBoxError("interaction-freeness is defined for single CQs")
    cq = omq.query.disjuncts[0]
    if cq.neq_atoms():
        raise UnsupportedTBoxError(
            "interaction-freeness is defined for plain CQs (no disequalities)"
        )
    return cq


def _fact_shapes(omq: OMQ, cq: CQ) -> list[Fact]:
    """Generic assertions covering every shape a real fact can take w.r.t.
    the query: concept/role facts over the query's constants plus two
    fresh ones (DL-Lite_R axioms cannot distinguish further constants;
    the repeated-constant role shape covers self-loops)."""
    concepts = sorted(
        omq.tbox.concept_names() | {a.predicate for a in cq.atoms if a.kind == CONCEPT_ATOM}
    )
    roles = sorted(
        omq.tbox.role_names()
        | {a.predicate for a in cq.atoms if a.is_relational and a.kind != CONCEPT_ATOM}
    )
    pool = list(cq.constants()) + ["fresh#1", "fresh#2"]
    shapes: list[Fact] = []
    i = 0
    for name in concepts:
        for c in pool:
            shapes.append(Fact(f"shape{i}", name, (c,)))
            i += 1
    for name in roles:
        for c1 in pool:
            for c2 in pool:
                shapes.append(Fact(f"shape{i}", name, (c1, c2)))
                i += 1
    return shapes


def _satisfying_pairs(tbox: TBox, fact: Fact, atoms: tuple[Atom, ...]):
    """Every (slot, assignment into const(f) + anon) pair of the atoms that
    the single consistent fact satisfies, in slot order, all checked on one
    canonical slice of {f} deep enough for every atom."""
    depth = max(query_depth(CQ((atom,)), tbox) for atom in atoms)
    slice_ = canonical_slice(ABox((fact,)), tbox, depth)
    values: list = sorted(set(fact.args)) + [ANON]
    for slot, atom in enumerate(atoms):
        single = CQ((atom,))
        vs = sorted(set(atom.variables()))
        for combo in product(values, repeat=len(vs)):
            mu = dict(zip(vs, combo))
            if slice_.holds(single, mu):
                yield slot, mu


def _assignment_key(mu: dict) -> tuple[tuple[str, str], ...]:
    return tuple((v, "<anon>" if value is ANON else value) for v, value in mu.items())


def check_interaction_free(omq: OMQ) -> InteractionWitness | None:
    """None when interaction-free, otherwise the first violating witness
    (deterministic order)."""
    if omq.tbox.horn_extended:
        raise UnsupportedTBoxError("interaction-freeness requires a DL-Lite_R TBox")
    cq = _query_cq(omq)
    atoms = cq.relational_atoms()
    for shape in _fact_shapes(omq, cq):
        if not is_consistent(ABox((shape,)), omq.tbox):
            continue  # such a fact can occur in no consistent ABox
        pairs = list(islice(_satisfying_pairs(omq.tbox, shape, atoms), 2))
        if len(pairs) == 2:
            (s1, mu1), (s2, mu2) = pairs
            return InteractionWitness(
                shape, atoms[s1], _assignment_key(mu1), atoms[s2], _assignment_key(mu2)
            )
    return None


# ---------------------------------------------------------------------------
# Per-fact rows
# ---------------------------------------------------------------------------

def _shared_variables(cq: CQ) -> set[str]:
    counts: dict[str, int] = {}
    for atom in cq.relational_atoms():
        for v in set(atom.variables()):
            counts[v] = counts.get(v, 0) + 1
    return {v for v, n in counts.items() if n >= 2}


def anon_constant(slot: int) -> str:
    # '#' cannot occur in parsed constants, so these never collide.
    return f"anon#{slot}"


def row_variables(atom: Atom) -> tuple[str, ...]:
    """The atom's distinct variables in order of first occurrence: the
    columns of its rows."""
    return tuple(dict.fromkeys(atom.variables()))


class IFPlan:
    """What counting an interaction-free OMQ needs besides the data: the
    connected components of its CQ with their tree decompositions, and the
    rows of each fact seen so far.  Building a plan runs the
    interaction-freeness check once and raises `UnsupportedTBoxError`
    (`NotInteractionFreeError` for a failed check) when the OMQ is outside
    the pipeline.

    A fact's rows depend on that fact alone, so the tables of any fact set
    are the sums of its facts' rows, and one plan serves every subset of a
    database: each fact's canonical slice is built once, for all
    components together.
    """

    def __init__(self, omq: OMQ):
        witness = check_interaction_free(omq)
        if witness is not None:
            raise NotInteractionFreeError(f"OMQ is not interaction-free: {witness}")
        (cq,) = omq.query.disjuncts  # the check accepts single plain CQs only
        self.omq = omq
        self.size = len(cq.relational_atoms())
        self.components = [
            (component, tree_decompose(component)) for component in connected_components(cq)
        ]
        # Every relational atom, and for each its component, its slot there,
        # its row variables and whether that component has other atoms.
        homes = [
            (atom, (index, slot, row_variables(atom), len(component.relational_atoms()) > 1))
            for index, (component, _) in enumerate(self.components)
            for slot, atom in enumerate(component.relational_atoms())
        ]
        self._atoms = tuple(atom for atom, _ in homes)
        self._homes = tuple(home for _, home in homes)
        self._shared = _shared_variables(cq)
        self._rows: dict[Fact, tuple[tuple[int, int, tuple[str, ...]], ...]] = {}

    def fact_entries(self, fact: Fact) -> tuple[tuple[int, int, tuple[str, ...]], ...]:
        """The (component, slot, row) triples the fact feeds, one per
        (slot, assignment) pair it satisfies; interaction-freeness leaves
        at most one.

        A row holds the values of the slot atom's `row_variables`, with
        `anon_constant(slot)` standing for an anonymous value, so rows of
        different atoms never alias.  A single-atom component keeps every
        pair.  In a larger one a shared variable is never anonymous
        (Lemma 4), so besides all-named pairs only role atoms with a named
        shared end and an anonymous unshared end stay.
        """
        known = self._rows.get(fact)
        if known is not None:
            return known
        rows = []
        for k, mu in _satisfying_pairs(self.omq.tbox, fact, self._atoms):
            index, slot, variables, joined = self._homes[k]
            anonymous = {v for v, value in mu.items() if value is ANON}
            # Every atom of a larger component has a shared variable, so
            # this keeps exactly the named-shared, anonymous-unshared role
            # pairs.
            if joined and anonymous and anonymous != set(mu) - self._shared:
                continue
            row = tuple(anon_constant(slot) if v in anonymous else mu[v] for v in variables)
            rows.append((index, slot, row))
        self._rows[fact] = tuple(rows)
        return self._rows[fact]


# ---------------------------------------------------------------------------
# Tree decomposition
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TreeDecomposition:
    """Bags of variables arranged in a forest (parent index per bag, -1
    for roots)."""

    bags: tuple[frozenset[str], ...]
    parents: tuple[int, ...]

    @property
    def width(self) -> int:
        return max((len(b) for b in self.bags), default=1) - 1


EXACT_TREEWIDTH_LIMIT = 13


def _variable_graph(cq: CQ) -> tuple[list[str], dict[str, set[str]]]:
    variables = list(cq.variables())
    adj: dict[str, set[str]] = {v: set() for v in variables}
    for atom in cq.relational_atoms():
        vs = sorted(set(atom.variables()))
        for i, v1 in enumerate(vs):
            for v2 in vs[i + 1:]:
                adj[v1].add(v2)
                adj[v2].add(v1)
    return variables, adj


def _elimination_order_exact(variables: list[str], adj: dict[str, set[str]]) -> list[str]:
    """Minimal-width elimination order via subset dynamic programming.

    Q(S, v) counts the vertices outside S reachable from v through S;
    eliminating v right after the prefix S yields a bag of that size.
    """
    n = len(variables)
    index = {v: i for i, v in enumerate(variables)}

    def q(s_mask: int, v: int) -> int:
        seen = 1 << v
        stack = [v]
        reach = 0
        while stack:
            u = stack.pop()
            for w_name in adj[variables[u]]:
                w = index[w_name]
                if seen >> w & 1:
                    continue
                seen |= 1 << w
                if s_mask >> w & 1:
                    stack.append(w)
                else:
                    reach += 1
        return reach

    best = {0: -1}
    choice: dict[int, int] = {}
    masks_by_size: list[list[int]] = [[] for _ in range(n + 1)]
    for mask in range(1 << n):
        masks_by_size[bin(mask).count("1")].append(mask)
    for size in range(1, n + 1):
        for mask in masks_by_size[size]:
            value = None
            pick = -1
            for v in range(n):
                if not mask >> v & 1:
                    continue
                prev = mask & ~(1 << v)
                cand = max(best[prev], q(prev, v))
                if value is None or cand < value:
                    value, pick = cand, v
            best[mask] = value
            choice[mask] = pick
    order = [""] * n
    mask = (1 << n) - 1
    for pos in range(n - 1, -1, -1):
        v = choice[mask]
        order[pos] = variables[v]
        mask &= ~(1 << v)
    return order


def _elimination_order_minfill(variables: list[str], adj: dict[str, set[str]]) -> list[str]:
    work = {v: set(ns) for v, ns in adj.items()}
    order = []
    remaining = set(variables)
    while remaining:
        def fill(v: str) -> int:
            ns = sorted(work[v])
            return sum(
                1
                for i, a in enumerate(ns)
                for b in ns[i + 1:]
                if b not in work[a]
            )

        v = min(sorted(remaining), key=fill)
        order.append(v)
        ns = sorted(work[v])
        for i, a in enumerate(ns):
            for b in ns[i + 1:]:
                work[a].add(b)
                work[b].add(a)
        for u in ns:
            work[u].discard(v)
        del work[v]
        remaining.remove(v)
    return order


def tree_decompose(cq: CQ) -> TreeDecomposition:
    """A valid tree decomposition of the query's variable co-occurrence
    graph: exact minimum width up to 13 variables, min-fill beyond."""
    variables, adj = _variable_graph(cq)
    if not variables:
        return TreeDecomposition((frozenset(),), (-1,))
    if len(variables) <= EXACT_TREEWIDTH_LIMIT:
        order = _elimination_order_exact(variables, adj)
    else:
        order = _elimination_order_minfill(variables, adj)

    work = {v: set(ns) for v, ns in adj.items()}
    bags: list[frozenset[str]] = []
    bag_of: dict[str, int] = {}
    for v in order:
        bag = frozenset({v} | work[v])
        bag_of[v] = len(bags)
        bags.append(bag)
        ns = sorted(work[v])
        for i, a in enumerate(ns):
            for b in ns[i + 1:]:
                work[a].add(b)
                work[b].add(a)
        for u in ns:
            work[u].discard(v)
        del work[v]

    position = {v: i for i, v in enumerate(order)}
    parents = []
    for i, v in enumerate(order):
        rest = [u for u in bags[i] if u != v]
        if rest:
            nxt = min(rest, key=lambda u: position[u])
            parents.append(bag_of[nxt])
        else:
            parents.append(-1)
    return TreeDecomposition(tuple(bags), tuple(parents))


# ---------------------------------------------------------------------------
# Weighted evaluation
# ---------------------------------------------------------------------------

# A factor maps each tuple of values of its variables to a weight.
Factor = tuple[tuple[str, ...], dict[tuple[str, ...], int]]

# The weight of each row of one atom, keyed as in `IFPlan.fact_entries`.
Table = dict[tuple[str, ...], int]


def _join(left: Factor, right: Factor) -> Factor:
    """The product of two factors, by a hash join on their shared variables."""
    (lvars, lrows), (rvars, rrows) = left, right
    probe = [lvars.index(v) for v in rvars if v in lvars]
    shared = [i for i, v in enumerate(rvars) if v in lvars]
    extra = [i for i, v in enumerate(rvars) if v not in lvars]
    index: dict[tuple[str, ...], list[tuple[tuple[str, ...], int]]] = {}
    for key, w in rrows.items():
        index.setdefault(tuple(key[i] for i in shared), []).append(
            (tuple(key[i] for i in extra), w)
        )
    rows = {
        key + rest: w * w2
        for key, w in lrows.items()
        for rest, w2 in index.get(tuple(key[i] for i in probe), ())
    }
    return lvars + tuple(rvars[i] for i in extra), rows


def weighted_eval(cq: CQ, rows: Sequence[Table], td: TreeDecomposition) -> int:
    """Sum over homomorphisms of the product of per-atom weights, by
    message passing over the decomposition, where `rows[slot]` weighs the
    values of the slot atom's `row_variables`.

    Each atom is charged to the first bag covering its variables and
    contributes its table as a factor over those variables.  A bag
    hash-joins those factors with its children's messages and sums out the
    variables its parent bag lacks; the roots' totals multiply.  An
    evaluation thus costs about the number of rows, not |dom|^|bag|.

    No bag variable is enumerated over a domain, because each is bound by
    a charged atom or a child's message.  Under `tree_decompose` the bag of
    v holds v and its neighbours when v is eliminated, and an atom has at
    most two variables.  So each variable u of the bag (v included) occurs
    with v in an atom, charged to this bag or to an earlier one holding
    both, or in a fill edge with v made by an earlier bag holding both.
    Such an earlier bag lies below this one, and every bag on the way up
    keeps u and v, so u reaches this bag in a child's message.  (In any
    decomposition, a variable that no atom below a bag binds lies in its
    parent bag too, and the message does not depend on it.)
    """
    factors: list[list[Factor]] = [[] for _ in td.bags]
    for slot, atom in enumerate(cq.relational_atoms()):
        vs = set(atom.variables())
        home = next((i for i, bag in enumerate(td.bags) if vs <= bag), None)
        if home is None:
            raise RespoError("tree decomposition does not cover an atom")
        factors[home].append((row_variables(atom), rows[slot]))
    children: list[list[int]] = [[] for _ in td.bags]
    for i, p in enumerate(td.parents):
        if p != -1:
            children[p].append(i)

    def message(node: int, keep: frozenset[str]) -> Factor:
        pending = factors[node] + [message(c, td.bags[node]) for c in children[node]]
        pending.sort(key=lambda factor: len(factor[1]))
        joined: Factor = pending.pop(0) if pending else ((), {(): 1})
        while pending:
            # The smallest factor sharing a variable with the join so far:
            # no cross product is built while a join is possible.
            i = next((i for i, f in enumerate(pending) if set(f[0]) & set(joined[0])), 0)
            joined = _join(joined, pending.pop(i))
        variables, rows = joined
        kept = [i for i, v in enumerate(variables) if v in keep]
        out: dict[tuple[str, ...], int] = {}
        for key, w in rows.items():
            k = tuple(key[i] for i in kept)
            out[k] = out.get(k, 0) + w
        return tuple(variables[i] for i in kept), out

    total = 1
    for root, p in enumerate(td.parents):
        if p == -1:
            total *= message(root, frozenset())[1].get((), 0)
    return total


# ---------------------------------------------------------------------------
# The full pipeline
# ---------------------------------------------------------------------------

def count_ms_interaction_free(plan: IFPlan, facts: Iterable[Fact]) -> SupportHistogram:
    """countFMS for an interaction-free OMQ: the weighted evaluation of each
    connected component, multiplied together, all supports having exactly
    one fact per query atom.  The facts must be consistent with the TBox;
    callers check the full ABox once, and its subsets are then too."""
    tables: list[list[Table]] = [
        [{} for _ in component.relational_atoms()] for component, _ in plan.components
    ]
    for fact in facts:
        for index, slot, row in plan.fact_entries(fact):
            table = tables[index][slot]
            table[row] = table.get(row, 0) + 1
    total = 1
    for (component, td), rows in zip(plan.components, tables):
        total *= weighted_eval(component, rows, td)
        if total == 0:
            break
    return SupportHistogram({plan.size: total})
