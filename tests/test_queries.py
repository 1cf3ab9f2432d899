"""Differential tests of homomorphism search against a naive oracle that
tries every assignment of the query's variables, over the three kinds of
target: fact databases, conjunctive queries and canonical-model slices.
"""

import random
from itertools import product

from respo.model import ANON, CQ, UCQ, Atom, Fact, concept_atom, const, neq_atom, role_atom, var
from respo.queries import query_hom_exists, with_all_pairs_neq
from respo.randgen import random_consistent_kb
from respo.reasoner import canonical_slice, entails_cq, holds_under_assignment, query_depth
from respo.support import (
    FactDB,
    count_automorphisms,
    count_homomorphisms,
    cq_holds,
    minimal_supports_via_hom_images,
)

CONCEPTS = ["A", "B"]
ROLES = ["r", "s"]
VARIABLES = ["x", "y", "z", "w"]


def random_query(rng: random.Random, constants: list[str], max_atoms: int = 4) -> CQ:
    """A CQ over at most four variables with constants and up to two
    disequalities, each of whose variables occurs in a relational atom."""

    def term():
        if rng.random() < 0.2:
            return const(rng.choice(constants))
        return var(rng.choice(VARIABLES))

    atoms = []
    for _ in range(rng.randint(1, max_atoms)):
        if rng.random() < 0.4:
            atoms.append(concept_atom(rng.choice(CONCEPTS), term()))
        else:
            atoms.append(role_atom(rng.choice(ROLES), term(), term()))
    terms = sorted({t for a in atoms for t in a.terms} | {const(c) for c in constants},
                   key=repr)
    for _ in range(rng.randint(0, 2)):
        t1, t2 = rng.sample(terms, 2)
        if t1.is_var or t2.is_var:
            atoms.append(neq_atom(t1, t2))
    return CQ(tuple(atoms))


def random_facts(rng: random.Random, pool: list[str], max_facts: int = 7) -> tuple[Fact, ...]:
    seen: dict[tuple, Fact] = {}
    for i in range(rng.randint(0, max_facts)):
        if rng.random() < 0.4:
            pred, args = rng.choice(CONCEPTS), (rng.choice(pool),)
        else:
            pred, args = rng.choice(ROLES), (rng.choice(pool), rng.choice(pool))
        seen.setdefault((pred, args), Fact(f"f{i}", pred, args))
    return tuple(seen.values())


def assignments(names, domain):
    for values in product(sorted(domain, key=repr), repeat=len(names)):
        yield dict(zip(names, values))


# ---------------------------------------------------------------------------
# Fact databases
# ---------------------------------------------------------------------------

def db_homs(cq: CQ, facts) -> list[frozenset[Fact]]:
    """The image of every homomorphism of cq into the facts."""
    fact_of = {(f.predicate, f.args): f for f in facts}
    domain = {a for f in facts for a in f.args}
    out = []
    for mu in assignments(cq.variables(), domain):
        def value(t):
            return mu[t.name] if t.is_var else t.name

        image = []
        for atom in cq.relational_atoms():
            image.append(fact_of.get((atom.predicate, tuple(value(t) for t in atom.terms))))
        if None in image:
            continue
        if any(value(a.terms[0]) == value(a.terms[1]) for a in cq.neq_atoms()):
            continue
        out.append(frozenset(image))
    return out


def test_fact_db_search_matches_oracle():
    rng = random.Random(2024)
    for _ in range(300):
        facts = random_facts(rng, ["c", "d", "e"])
        cq = random_query(rng, ["c", "d", "zz"])
        images = db_homs(cq, facts)
        db = FactDB(facts)
        assert count_homomorphisms(cq, db) == len(images), cq
        assert cq_holds(cq, db) == bool(images), cq
        minimal = {s for s in images if not any(o < s for o in images)}
        found = {s.facts for s in minimal_supports_via_hom_images(cq, facts)}
        assert found == minimal, cq


# ---------------------------------------------------------------------------
# Conjunctive queries
# ---------------------------------------------------------------------------

def cq_homs(src: CQ, dst: CQ) -> int:
    """Homomorphisms src -> dst: constants fixed, relational atoms onto
    atoms of dst, disequalities onto pairs dst guarantees distinct."""
    targets = {t for a in dst.atoms for t in a.terms}
    count = 0
    for mu in assignments(src.variables(), targets):
        def image(t):
            return mu[t.name] if t.is_var else t

        if any(Atom(a.kind, a.predicate, tuple(image(t) for t in a.terms)) not in dst.atoms
               for a in src.relational_atoms()):
            continue
        ok = True
        for a in src.neq_atoms():
            t1, t2 = (image(t) for t in a.terms)
            if t1 == t2 or not (t1.is_const and t2.is_const or neq_atom(t1, t2) in dst.atoms):
                ok = False
        count += ok
    return count


def test_query_search_matches_oracle():
    rng = random.Random(7)
    for _ in range(300):
        dst = random_query(rng, ["c", "d"])
        src = random_query(rng, ["c", "d"], max_atoms=2)
        if rng.random() < 0.5:
            dst = with_all_pairs_neq(dst, ("c",))
        assert query_hom_exists(src, dst) == (cq_homs(src, dst) > 0), (src, dst)
        assert query_hom_exists(dst, dst)
        for q in (src, dst):
            assert count_automorphisms(q) == cq_homs(q, q), q


# ---------------------------------------------------------------------------
# Canonical-model slices
# ---------------------------------------------------------------------------

def slice_matches(slice_, cq: CQ, fixed: dict, domain) -> list[dict]:
    """The matches of cq into the slice that extend `fixed` and send the
    other variables into `domain`."""
    free = [v for v in cq.variables() if v not in fixed]
    out = []
    for mu in assignments(free, domain):
        mu.update(fixed)

        def image(t):
            return mu[t.name] if t.is_var else (t.name, ())

        ok = all(
            image(a.terms[0]) in slice_.concept_ext.get(a.predicate, ())
            if len(a.terms) == 1
            else tuple(image(t) for t in a.terms) in slice_.role_ext.get(a.predicate, ())
            for a in cq.relational_atoms()
        )
        if ok and all(image(a.terms[0]) != image(a.terms[1]) for a in cq.neq_atoms()):
            out.append(mu)
    return out


def test_slice_search_matches_oracle():
    rng = random.Random(99)
    for _ in range(200):
        cq = random_query(rng, ["c", "d", "zz"], max_atoms=3)
        tbox, abox = random_consistent_kb(rng, max_axioms=4, max_facts=4, bias=UCQ((cq,)))
        slice_ = canonical_slice(abox, tbox, query_depth(cq))
        matches = slice_matches(slice_, cq, {}, slice_.elements)
        assert entails_cq(abox, tbox, cq) == bool(matches), (tbox, abox, cq)
        anonymous = {w for w in slice_.elements if w[1]}
        for _ in range(4):
            # Half of the assignments are read off a match, pinning its
            # named elements and leaving its anonymous ones free.
            match = rng.choice(matches) if matches and rng.random() < 0.5 else None
            mu, fixed = {}, {}
            for v in cq.variables():
                if match is not None:
                    mu[v] = ANON if match[v][1] else match[v][0]
                else:
                    mu[v] = rng.choice(sorted(abox.individuals) + ["zz", ANON, ANON])
                if mu[v] is not ANON:
                    fixed[v] = (mu[v], ())
            expected = bool(slice_matches(slice_, cq, fixed, anonymous))
            assert holds_under_assignment(abox, tbox, cq, mu) == expected, (tbox, abox, cq, mu)
