"""(U)CQ entailment over slices of the canonical model of a DL-Lite_R KB.

`canonical_slice` gathers the tuples of `reasoner.canonical_model` up to
a depth into a `queries.HomTarget`, and (U)CQ entailment asks the
homomorphism search whether a query maps into it; `query_depth` bounds
the depth a query needs.  Only the brute-force evaluator of a DL-Lite_R
KB with positive inclusions imports this module: the interaction-freeness
check reads the folded walk of `reasoner` itself, and Horn reasoning and
provenance never walk the model, so none of them loads it.
"""

from __future__ import annotations

import operator

from .model import ABox, CQ, InconsistentKBError, TBox, UCQ, UnsupportedTBoxError
from .queries import HomTarget, hom_exists
from .reasoner import Word, canonical_model, is_consistent, saturate


def canonical_slice(abox: ABox, tbox: TBox, depth: int) -> HomTarget:
    """The canonical model of (abox, tbox) up to words of length `depth`,
    as a homomorphism target.  The KB must be consistent; callers check
    that first.  Its elements are the words of `canonical_model`; `image`
    sends an individual's name to its named element, and disequalities
    require distinct elements.
    """
    if tbox.horn_extended:
        raise UnsupportedTBoxError("canonical model construction requires a pure DL-Lite_R TBox")
    tuples: dict[tuple[str, int], set[tuple[Word, ...]]] = {}
    for name, elements in canonical_model(abox, tbox, depth):
        tuples.setdefault((name, len(elements)), set()).add(elements)
    named = abox.individuals
    return HomTarget(tuples, lambda name: (name, ()) if name in named else None, operator.ne)


# ---------------------------------------------------------------------------
# CQ entailment over slices
# ---------------------------------------------------------------------------

def query_depth(cq: CQ, tbox: TBox) -> int:
    """A canonical-model depth at which every match of cq has a copy: one
    level per generating role, then |vars(q)| + 1.  An anonymous element's
    subtree and concepts depend only on the role leading to it, so a match
    whose topmost element lies deeper than the number of generating roles
    repeats a role on the way down and can be moved up to the first
    occurrence."""
    return len(cq.variables()) + 1 + len(saturate(tbox).generating_roles)


def entails_ucq(abox: ABox, tbox: TBox, ucq: UCQ) -> bool:
    """(A, T) |= q via a homomorphism of some disjunct into the canonical
    model truncated at `query_depth`, taking the largest depth over the
    disjuncts so that one slice serves them all."""
    if not is_consistent(abox, tbox):
        raise InconsistentKBError("CQ entailment over an inconsistent KB")
    depth = max(query_depth(d, tbox) for d in ucq.disjuncts)
    target = canonical_slice(abox, tbox, depth)
    return any(hom_exists(d, target) for d in ucq.disjuncts)
