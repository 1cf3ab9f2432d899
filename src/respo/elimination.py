"""The package's one counting engine: variable elimination over per-atom
tables (bucket elimination, Dechter 1999).

`weighted_eval` sums, over the homomorphisms of a query into per-atom
tables, the product of the weights of the rows its atoms map to;
`marginals` also splits that sum by each atom's rows.  Partition counting
(`support`) and interaction-free counting (`interaction_free`) both run
on it, and `elimination_order` picks the order once per query.  The
module imports only `model`, so the interaction-free pipeline compiles
no homomorphism search.
"""

from __future__ import annotations

from itertools import combinations
from math import prod
from operator import itemgetter
from typing import Callable, Iterable, Sequence

from .model import Atom, CQ, connected_components


def _elimination_order_exact(variables: list[str], adj: dict[str, set[str]]) -> list[str]:
    """Minimal-width elimination order via subset dynamic programming.

    Q(S, v) counts the vertices outside S reachable from v through S;
    eliminating v right after the prefix S leaves v that many neighbours.
    """
    n = len(variables)
    neighbours = [[variables.index(w) for w in adj[v]] for v in variables]

    def q(s_mask: int, v: int) -> int:
        seen, stack, reach = 1 << v, [v], 0
        while stack:
            for w in neighbours[stack.pop()]:
                if not seen >> w & 1:
                    seen |= 1 << w
                    if s_mask >> w & 1:
                        stack.append(w)
                    else:
                        reach += 1
        return reach

    best, choice = {0: -1}, {}
    for mask in range(1, 1 << n):  # each set after its subsets
        best[mask], choice[mask] = min(
            (max(best[mask & ~(1 << v)], q(mask & ~(1 << v), v)), v)
            for v in range(n) if mask >> v & 1
        )
    order, mask = [], (1 << n) - 1
    while mask:
        order.append(variables[choice[mask]])
        mask &= ~(1 << choice[mask])
    return order[::-1]


def _elimination_order_minfill(adj: dict[str, set[str]]) -> tuple[list[str], int]:
    """A min-fill elimination order and its induced width."""
    work = {v: set(ns) for v, ns in adj.items()}
    order: list[str] = []
    width = 0

    def fill(v: str) -> int:
        return sum(b not in work[a] for a, b in combinations(work[v], 2))

    while work:
        ranked = sorted(work)  # the first vertex of least fill; none has less than 0
        v = next((u for u in ranked if not fill(u)), None) or min(ranked, key=fill)
        order.append(v)
        width = max(width, len(work[v]))
        for a, b in combinations(work[v], 2):
            work[a].add(b)
            work[b].add(a)
        for u in work.pop(v):
            work[u].discard(v)
    return order, width


def elimination_order(cq: CQ) -> list[str]:
    """An order of the query's variables for `weighted_eval`, connected
    component by component (`model.connected_components`), each min-fill
    where its induced width is at most 1, which no order beats, otherwise
    of minimum induced width up to 13 variables and min-fill beyond."""
    order = []
    for component in connected_components(cq):
        variables = list(component.variables())
        adj: dict[str, set[str]] = {v: set() for v in variables}
        for atom in component.relational_atoms():
            for v1, v2 in combinations(set(atom.variables()), 2):
                adj[v1].add(v2)
                adj[v2].add(v1)
        found, width = _elimination_order_minfill(adj)
        exact = width > 1 and len(variables) <= 13
        order += _elimination_order_exact(variables, adj) if exact else found
    return order


def row_variables(atom: Atom) -> tuple[str, ...]:
    """The atom's distinct variables in order of first occurrence: the
    columns of its rows."""
    return tuple(dict.fromkeys(atom.variables()))


# A table weighs rows, tuples of values; a factor is a table with the
# variables its rows give values to.
Table = dict[tuple, int]
Factor = tuple[tuple[str, ...], Table]


def _getter(variables: Sequence[str], wanted: Iterable[str]) -> Callable[[tuple], tuple]:
    """Takes a row over `variables` to the tuple of its `wanted` values."""
    positions = [variables.index(v) for v in wanted]
    if len(positions) == 1:
        return lambda row, i=positions[0]: (row[i],)
    return itemgetter(*positions) if positions else lambda row: ()


def _join(left: Factor, right: Factor) -> Factor:
    """The product of two factors, by a hash join on their shared variables."""
    (lvars, lrows), (rvars, rrows) = left, right
    common, extra = [v for v in rvars if v in lvars], [v for v in rvars if v not in lvars]
    probe, match, rest = _getter(lvars, common), _getter(rvars, common), _getter(rvars, extra)
    index: dict[tuple, list[tuple[tuple, int]]] = {}
    for key, w in rrows.items():
        index.setdefault(match(key), []).append((rest(key), w))
    rows = {
        key + more: w * w2 for key, w in lrows.items() for more, w2 in index.get(probe(key), ())
    }
    return lvars + tuple(extra), rows


def _eliminate(factors: list[Factor], order: Iterable[str]) -> tuple[list[int], list[tuple]]:
    """Sum each variable v of `order` that a factor holds out of the
    factors' product (bucket elimination, Dechter 1999): hash-join the
    factors that hold v, smallest first, and append the join with v summed
    out to `factors`.  Returns the indices of the factors left and per
    step the bucket, the join's variables and the join.  Every join is on
    v, so no domain is enumerated; a variable of induced width w joins
    factors over w + 1 variables, about |rows| along a width-1 order."""
    live = list(range(len(factors)))
    steps = []
    for v in order:
        bucket = sorted((i for i in live if v in factors[i][0]), key=lambda i: len(factors[i][1]))
        if not bucket:
            continue
        live = [i for i in live if v not in factors[i][0]] + [len(factors)]
        variables, joined = factors[bucket[0]]
        for i in bucket[1:]:
            variables, joined = _join((variables, joined), factors[i])
        kept = tuple(u for u in variables if u != v)
        project, out = _getter(variables, kept), {}
        for row, w in joined.items():
            key = project(row)
            out[key] = out.get(key, 0) + w
        factors.append((kept, out))
        steps.append((bucket, variables, joined))
    return live, steps


def weighted_eval(cq: CQ, rows: Sequence[Table], order: Sequence[str]) -> int:
    """Sum over homomorphisms of the product of per-atom weights, where
    `rows[slot]` weighs the rows of the slot relational atom, by
    eliminating the query's variables in `order` (`_eliminate`)."""
    factors = [(row_variables(a), rows[i]) for i, a in enumerate(cq.relational_atoms())]
    live, _ = _eliminate(factors, order)
    return prod(factors[i][1].get((), 0) for i in live)


def marginals(cq: CQ, rows: Sequence[Table], order: Sequence[str]) -> tuple[int, list[Table]]:
    """The `weighted_eval` sum, and per relational atom and row of its
    table the sum over the homomorphisms that send the atom to that row of
    the other atoms' weight products: the derivative by the row's weight
    (Darwiche, JACM 2003), from one elimination and one pass back over
    its joins.  A join row's weight times the derivative by its bucket's
    output there is its share; each factor of the bucket gets the share
    over its own weight at the row, which is positive, as are all sums."""
    atoms = cq.relational_atoms()
    factors = [(row_variables(a), rows[i]) for i, a in enumerate(atoms)]
    live, steps = _eliminate(factors, order)
    scalars = [factors[i][1].get((), 0) for i in live]
    derived = {i: {(): prod(scalars[:n] + scalars[n + 1:])} for n, i in enumerate(live)}
    for out in range(len(factors) - 1, len(atoms) - 1, -1):
        bucket, variables, joined = steps[out - len(atoms)]
        above, up = derived[out], _getter(variables, factors[out][0])
        down = [(derived.setdefault(i, {}), factors[i][1], _getter(variables, factors[i][0]))
                for i in bucket]
        for row, w in joined.items():
            share = w * above.get(up(row), 0)
            if share:
                for table, weights, project in down:
                    key = project(row)
                    table[key] = table.get(key, 0) + share // weights[key]
    return prod(scalars), [derived.get(i, {}) for i in range(len(atoms))]
