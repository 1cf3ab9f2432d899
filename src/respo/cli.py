"""Command-line front door.

The scoring and counting commands run here.  The tool commands
(`rewrite`, `check-if`, `emit-sql`, `gen` and `verify`) run from
`tools`, which loads only when one of them runs, so a scoring or
counting command compiles none of them.  The parser reads the scoring
methods and the brute-force cap from `model`, so a tool command loads
`shapley` only when it scores (`verify`).

Exit codes: 0 success, 1 property failure, 2 parse error or bad input
(missing --abox, unknown fact label or answer variable, an --answer
value that is not a constant, an --answer that binds a variable twice
or collapses a disequality in every disjunct, malformed weight table,
weight table without an entry the scores need, a name used as a concept
in one input and as a role in another, a `--size` or
`--instances` below 1, a `--cap` below 0, a `score`, `count-ms` or
`count-fms` that resolves to brute force on more than 20 facts, a
`shapley-drastic` run on more facts than its `--cap` (20 by default), a
run that resolves to provenance (as `shapley-drastic` does on a
Horn-extended TBox) past 10,000 minimal supports of a derived atom or
candidate sets per fact;
`gen reach` without --source and --target or with one that is not a
graph vertex, a graph line that is not two vertices, an edge on an
undeclared vertex, a bipartition that overlaps, misses a vertex or holds
an edge inside one side, `gen mvc` on a graph without edges and `gen pm`
on a graph that is not bipartite with sides of equal size, all before
--out is created; a missing input file, an input path that is a
directory, a TBox, ABox, query, graph or weight-table file that is not
UTF-8, an `--out` of `emit-sql` or `gen` that names an existing file), 3
inconsistent KB, 4 unsupported TBox/method combination (one message
per pipeline: a Horn-extended TBox outside brute force and provenance,
a query that is not one ground atom under provenance or a Horn-extended
TBox, or an interaction-free run on a UCQ, a disequality CQ or a CQ that
fails the check).
"""

from __future__ import annotations

import argparse
import json
import sys

from .model import (
    BRUTE_FORCE_CAP,
    METHODS,
    ABox,
    InconsistentKBError,
    InputError,
    OMQ,
    RespoError,
    SupportHistogram,
    UnsupportedTBoxError,
)
from .textio import (
    ParseError,
    at_least,
    load_inputs,
    render_scores_json,
    render_scores_table,
)

EXIT_OK = 0
EXIT_PROPERTY_FAILURE = 1
EXIT_PARSE = 2
EXIT_INCONSISTENT = 3
EXIT_UNSUPPORTED = 4


def _write_scores(args, scores) -> int:
    if args.fact:
        scores = {args.fact: scores[args.fact]}
    if args.format == "json":
        sys.stdout.write(render_scores_json(scores))
    else:
        sys.stdout.write(render_scores_table(scores))
    return EXIT_OK


def cmd_score(args) -> int:
    from .shapley import resolve_weight, score_all

    omq, abox = load_inputs(args, need_abox=True)
    weight = resolve_weight(args.weight)
    return _write_scores(args, score_all(abox, omq, weight, method=args.method).scores)


def cmd_shapley_drastic(args) -> int:
    from .shapley import drastic_scores

    at_least(args, "cap", 0)
    omq, abox = load_inputs(args, need_abox=True)
    return _write_scores(args, drastic_scores(abox, omq, args.cap))


def _histogram(args, omq: OMQ, abox: ABox) -> SupportHistogram:
    from .shapley import Plan
    from .reasoner import is_consistent

    if not is_consistent(abox, omq.tbox):
        raise InconsistentKBError("cannot count over an inconsistent KB")
    return Plan(omq, args.method).histogram(abox)


def cmd_count_ms(args) -> int:
    omq, abox = load_inputs(args, need_abox=True)
    hist = _histogram(args, omq, abox)
    print(hist.total())
    return EXIT_OK


def cmd_count_fms(args) -> int:
    at_least(args, "size", 1)
    omq, abox = load_inputs(args, need_abox=True)
    hist = _histogram(args, omq, abox)
    if args.size is not None:
        print(hist[args.size])
    else:
        print(json.dumps({str(k): v for k, v in hist.counts.items()}))
    return EXIT_OK


def _tool(args) -> int:
    """Run a tool command from `tools`, which loads only here."""
    from . import tools

    handlers = {
        "rewrite": tools.cmd_rewrite,
        "check-if": tools.cmd_check_if,
        "emit-sql": tools.cmd_emit_sql,
        "gen": tools.cmd_gen,
        "verify": tools.cmd_verify,
    }
    return handlers[args.command](args)


def build_parser(argv: list[str]) -> argparse.ArgumentParser:
    """The parser with the sub-command that argv[0] names, or with all of
    them when it names none (--help, an unknown command, no argument).
    A lone sub-command keeps the full list in the usage line, so every
    message reads as it does with all of them built."""
    kb = (  # the options of every command that reads a KB
        ("--tbox", {"help": "TBox file"}),
        ("--abox", {"help": "ABox file"}),
        ("--query", {"required": True, "help": "query file"}),
        ("--answer", {
            "action": "append",
            "default": [],
            "help": "answer binding var=const (repeatable); instantiates free variables before scoring",
        }),
    )
    method = ("--method", {"default": "auto", "choices": METHODS})
    fact = ("--fact", {"help": "restrict output to one fact label"})
    form = ("--format", {"default": "json", "choices": ["json", "table"]})
    out = ("--out", {"required": True, "help": "output directory"})
    commands = {  # name: (help, handler, options in order)
        "score": ("WSMS scores for every fact", cmd_score, (
            *kb, ("--weight", {"default": "ms", "help": "ms|uniform|invsq|file:<path>"}),
            method, fact, form)),
        "shapley-drastic": ("brute-force drastic Shapley values", cmd_shapley_drastic, (
            *kb, fact,
            ("--cap", {"type": int, "default": BRUTE_FORCE_CAP, "help": "max ABox size"}), form)),
        "count-ms": ("total number of minimal supports", cmd_count_ms, (*kb, method)),
        "count-fms": ("minimal supports per size", cmd_count_fms, (
            *kb,
            ("--size", {"type": int, "help": "one size k; omit for the full histogram"}), method)),
        "rewrite": ("rewrite the OMQ into a UCQ", _tool, kb),
        "check-if": ("interaction-freeness check", _tool, kb),
        "emit-sql": ("emit schema, loader, and counting queries", _tool, (
            *kb, ("--size", {"type": int, "help": "restrict to one support size"}), out)),
        "gen": ("generate a hardness benchmark instance", _tool, (
            ("kind", {"choices": ["mvc", "reach", "pm"]}),
            ("--graph", {"required": True, "help": "edge-list file"}), out,
            ("--source", {"help": "reachability source vertex"}),
            ("--target", {"help": "reachability target vertex"}))),
        "verify": ("run the cross-pipeline property suites", _tool, (
            ("--seed", {"type": int, "default": 0}),
            ("--instances", {"type": int, "default": 25}))),
    }
    parser = argparse.ArgumentParser(
        prog="respo",
        description="Responsibility scores for ontology-mediated query answers",
    )
    chosen = argv[:1] if argv[:1] and argv[0] in commands else list(commands)
    listed = "{" + ",".join(commands) + "}" if len(chosen) == 1 else None
    sub = parser.add_subparsers(dest="command", required=True, metavar=listed)
    for name in chosen:
        help_, handler, options = commands[name]
        p = sub.add_parser(name, help=help_)
        for flag, settings in options:
            p.add_argument(flag, **settings)
        p.set_defaults(fn=handler)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser(argv).parse_args(argv)
    try:
        return args.fn(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except InconsistentKBError as exc:
        print(f"inconsistent KB: {exc}", file=sys.stderr)
        return EXIT_INCONSISTENT
    except UnsupportedTBoxError as exc:
        print(f"unsupported: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    except FileNotFoundError as exc:
        print(f"missing file: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except RespoError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PROPERTY_FAILURE


if __name__ == "__main__":
    sys.exit(main())
