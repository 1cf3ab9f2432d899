"""Responsibility scores for ontology-mediated query answers.

Assigns weighted-sums-of-minimal-supports scores to ABox facts for
DL-Lite_R ontology-mediated queries, with exact minimal-support counting
via mutually cross-checking pipelines (brute force, reduct partition,
interaction-free), SQL emission, and hardness-instance generators.
"""

from .model import (
    ABox,
    Atom,
    Axiom,
    CQ,
    Fact,
    InconsistentKBError,
    OMQ,
    RespoError,
    Role,
    SupportHistogram,
    TBox,
    Term,
    UCQ,
    UnsupportedTBoxError,
    WeightFunction,
)

__all__ = [
    "ABox",
    "Atom",
    "Axiom",
    "CQ",
    "Fact",
    "InconsistentKBError",
    "OMQ",
    "RespoError",
    "Role",
    "SupportHistogram",
    "TBox",
    "Term",
    "UCQ",
    "UnsupportedTBoxError",
    "WeightFunction",
]

__version__ = "0.1.0"
