"""Command-line front door.

Exit codes: 0 success, 1 property failure, 2 parse error or bad input
(missing --abox, unknown fact label or answer variable, malformed weight
table), 3 inconsistent KB, 4 unsupported TBox/method combination.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from pathlib import Path

from .model import (
    ABox,
    InconsistentKBError,
    InputError,
    OMQ,
    RespoError,
    SupportHistogram,
    UCQ,
    UnsupportedTBoxError,
)
from .interaction_free import NotInteractionFreeError, check_interaction_free
from .textio import (
    ParseError,
    check_signature_consistency,
    instantiate_query,
    parse_abox,
    parse_query,
    parse_tbox,
    render_query,
    render_scores_json,
    render_scores_table,
)

EXIT_OK = 0
EXIT_PROPERTY_FAILURE = 1
EXIT_PARSE = 2
EXIT_INCONSISTENT = 3
EXIT_UNSUPPORTED = 4


def _read(path: str) -> str:
    return Path(path).read_text(encoding="utf-8")


def _load_inputs(args, need_abox: bool = False) -> tuple[OMQ, ABox]:
    if need_abox and not args.abox:
        raise InputError(f"{args.command} needs --abox")
    tbox = parse_tbox(_read(args.tbox)) if args.tbox else None
    abox = parse_abox(_read(args.abox)) if args.abox else None
    query = parse_query(_read(args.query)) if args.query else None
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
            bindings[name] = value
        query = instantiate_query(query, bindings)
    if abox is not None and getattr(args, "fact", None):
        if args.fact not in {f.label for f in abox}:
            raise InputError(f"unknown fact label {args.fact!r}")
    from .model import TBox

    omq = OMQ(tbox if tbox is not None else TBox(), query) if query is not None else None
    return omq, abox


def _add_kb_args(p, query: bool = True):
    p.add_argument("--tbox", help="TBox file")
    p.add_argument("--abox", help="ABox file")
    if query:
        p.add_argument("--query", required=True, help="query file")
        p.add_argument(
            "--answer",
            action="append",
            default=[],
            help="answer binding var=const (repeatable); instantiates free variables before scoring",
        )


def cmd_score(args) -> int:
    from .shapley import resolve_weight, score_all

    omq, abox = _load_inputs(args, need_abox=True)
    weight = resolve_weight(args.weight)
    report = score_all(abox, omq, weight, method=args.method)
    scores = report.scores
    if args.fact:
        scores = {args.fact: scores[args.fact]}
    if args.format == "json":
        sys.stdout.write(render_scores_json(scores))
    else:
        sys.stdout.write(render_scores_table(scores))
    return EXIT_OK


def cmd_shapley_drastic(args) -> int:
    from .shapley import drastic_wealth, shapley_brute_force
    from .support import make_subset_evaluator
    from .reasoner import is_consistent

    omq, abox = _load_inputs(args, need_abox=True)
    if not is_consistent(abox, omq.tbox):
        raise InconsistentKBError("cannot score an inconsistent KB")
    wealth = drastic_wealth(make_subset_evaluator(omq.tbox, omq.query))
    facts = [abox.by_label(args.fact)] if args.fact else list(abox)
    scores = {f.label: shapley_brute_force(abox, wealth, f, cap=args.cap) for f in facts}
    if args.format == "json":
        sys.stdout.write(render_scores_json(scores))
    else:
        sys.stdout.write(render_scores_table(scores))
    return EXIT_OK


def _histogram(args, omq: OMQ, abox: ABox) -> SupportHistogram:
    from .shapley import _histogram_provider, choose_method
    from .reasoner import is_consistent

    if not is_consistent(abox, omq.tbox):
        raise InconsistentKBError("cannot count over an inconsistent KB")
    method = choose_method(abox, omq) if args.method == "auto" else args.method
    provider = _histogram_provider(omq, method)
    return provider(frozenset(abox))


def cmd_count_ms(args) -> int:
    omq, abox = _load_inputs(args, need_abox=True)
    hist = _histogram(args, omq, abox)
    print(hist.total())
    return EXIT_OK


def cmd_count_fms(args) -> int:
    omq, abox = _load_inputs(args, need_abox=True)
    hist = _histogram(args, omq, abox)
    if args.size is not None:
        print(hist[args.size])
    else:
        print(json.dumps({str(k): v for k, v in hist.counts.items()}))
    return EXIT_OK


def cmd_rewrite(args) -> int:
    from .rewriter import rewrite

    omq, _ = _load_inputs(args)
    result = rewrite(omq)
    sys.stdout.write(render_query(result.result))
    return EXIT_OK


def cmd_check_if(args) -> int:
    omq, _ = _load_inputs(args)
    witness = check_interaction_free(omq)
    if witness is None:
        print("ok")
    else:
        print(f"witness: {witness}")
    return EXIT_OK


def cmd_emit_sql(args) -> int:
    from .rewriter import rewrite
    from .sqlgen import build_manifest

    omq, abox = _load_inputs(args, need_abox=True)
    query = rewrite(omq).result if omq.tbox.axioms else omq.query
    sizes = [args.size] if args.size is not None else None
    manifest = build_manifest(query, abox, sizes=sizes)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "schema.sql").write_text(manifest.schema_sql, encoding="utf-8")
    (out / "load.sql").write_text(manifest.loader_sql, encoding="utf-8")
    (out / "manifest.json").write_text(manifest.to_json(), encoding="utf-8")
    print(f"wrote {len(manifest.entries)} queries to {out}")
    return EXIT_OK


def cmd_gen(args) -> int:
    from .generators import (
        gen_mvc,
        gen_perfect_matching,
        gen_reachability,
        parse_graph,
    )
    from .textio import render_abox, render_query, render_tbox

    graph = parse_graph(_read(args.graph))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    if args.kind == "mvc":
        tbox, abox, query = gen_mvc(graph)
    elif args.kind == "reach":
        if not args.source or not args.target:
            raise RespoError("gen reach needs --source and --target")
        tbox, abox, query = gen_reachability(graph, args.source, args.target)
    else:
        instance = gen_perfect_matching(graph)
        (out / "tbox.txt").write_text("", encoding="utf-8")
        (out / "abox.txt").write_text(render_abox(instance.abox), encoding="utf-8")
        (out / "q1.query").write_text(render_query(instance.q1), encoding="utf-8")
        (out / "q2.query").write_text(render_query(instance.q2), encoding="utf-8")
        print(f"wrote matching instance to {out}")
        return EXIT_OK
    (out / "tbox.txt").write_text(render_tbox(tbox), encoding="utf-8")
    (out / "abox.txt").write_text(render_abox(abox), encoding="utf-8")
    (out / "query.txt").write_text(render_query(query), encoding="utf-8")
    print(f"wrote {args.kind} instance to {out}")
    return EXIT_OK


def cmd_verify(args) -> int:
    rng = random.Random(args.seed)
    failures = []

    from .model import as_ucq
    from .randgen import (
        random_consistent_kb,
        random_cq,
        random_database,
        random_interaction_free_omq,
        random_ucq,
    )
    from .rewriter import rewrite
    from .support import (
        count_fms_brute,
        make_subset_evaluator,
        partition_histogram,
        ucq_holds,
    )
    from .reasoner import entails_ucq

    n = args.instances

    for i in range(n):
        ucq = random_ucq(rng)
        db = random_database(rng, bias=ucq)
        brute = count_fms_brute(tuple(db), lambda s: ucq_holds(ucq, s))
        part = partition_histogram(ucq, tuple(db))
        if brute != part:
            failures.append(f"partition mismatch on instance {i}: {brute} vs {part}")
    print(f"partition-vs-brute: {n - len(failures)}/{n} ok")

    before = len(failures)
    for i in range(n):
        cq = random_cq(rng, max_atoms=2, allow_neq=False)
        tbox, abox = random_consistent_kb(rng, bias=UCQ((cq,)))
        omq = OMQ(tbox, cq)
        try:
            rewritten = rewrite(omq).result
        except RespoError as exc:
            failures.append(f"rewrite failed on instance {i}: {exc}")
            continue
        from itertools import combinations

        facts = tuple(abox)
        ok = True
        for k in range(len(facts) + 1):
            for combo in combinations(facts, k):
                sub = ABox(tuple(sorted(combo, key=lambda f: f.label)))
                if ucq_holds(rewritten, combo) != entails_ucq(sub, tbox, as_ucq(cq)):
                    ok = False
                    break
            if not ok:
                break
        if not ok:
            failures.append(f"rewriting unsound on instance {i}")
    print(f"rewriting-soundness: {n - (len(failures) - before)}/{n} ok")

    before = len(failures)
    from .interaction_free import count_ms_interaction_free

    n_if = max(1, n // 2)
    for i in range(n_if):
        omq = random_interaction_free_omq(rng)
        abox = random_abox_for_if(rng, omq)
        from .reasoner import is_consistent

        if not is_consistent(abox, omq.tbox):
            continue
        evaluator = make_subset_evaluator(omq.tbox, omq.query)
        brute = count_fms_brute(tuple(abox), evaluator)
        fast = count_ms_interaction_free(omq, abox)
        if brute.total() != fast.total():
            failures.append(f"interaction-free mismatch on instance {i}")
    print(f"interaction-free-vs-brute: {n_if - (len(failures) - before)}/{n_if} ok")

    for f in failures:
        print(f"FAIL {f}", file=sys.stderr)
    return EXIT_PROPERTY_FAILURE if failures else EXIT_OK


def random_abox_for_if(rng: random.Random, omq: OMQ) -> ABox:
    from .randgen import random_abox

    return random_abox(rng, max_facts=6, bias=omq.query, tbox=omq.tbox)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="respo",
        description="Responsibility scores for ontology-mediated query answers",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("score", help="WSMS scores for every fact")
    _add_kb_args(p)
    p.add_argument("--weight", default="ms", help="ms|uniform|invsq|file:<path>")
    p.add_argument("--method", default="auto", choices=["auto", "brute", "partition", "if"])
    p.add_argument("--fact", help="restrict output to one fact label")
    p.add_argument("--format", default="json", choices=["json", "table"])
    p.set_defaults(fn=cmd_score)

    p = sub.add_parser("shapley-drastic", help="brute-force drastic Shapley values")
    _add_kb_args(p)
    p.add_argument("--fact", help="restrict output to one fact label")
    p.add_argument("--cap", type=int, default=20, help="max ABox size")
    p.add_argument("--format", default="json", choices=["json", "table"])
    p.set_defaults(fn=cmd_shapley_drastic)

    p = sub.add_parser("count-ms", help="total number of minimal supports")
    _add_kb_args(p)
    p.add_argument("--method", default="auto", choices=["auto", "brute", "partition", "if"])
    p.set_defaults(fn=cmd_count_ms)

    p = sub.add_parser("count-fms", help="minimal supports per size")
    _add_kb_args(p)
    p.add_argument("--size", type=int, help="one size k; omit for the full histogram")
    p.add_argument("--method", default="auto", choices=["auto", "brute", "partition", "if"])
    p.set_defaults(fn=cmd_count_fms)

    p = sub.add_parser("rewrite", help="rewrite the OMQ into a UCQ")
    _add_kb_args(p)
    p.set_defaults(fn=cmd_rewrite)

    p = sub.add_parser("check-if", help="interaction-freeness check")
    _add_kb_args(p)
    p.set_defaults(fn=cmd_check_if)

    p = sub.add_parser("emit-sql", help="emit schema, loader, and counting queries")
    _add_kb_args(p)
    p.add_argument("--size", type=int, help="restrict to one support size")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(fn=cmd_emit_sql)

    p = sub.add_parser("gen", help="generate a hardness benchmark instance")
    p.add_argument("kind", choices=["mvc", "reach", "pm"])
    p.add_argument("--graph", required=True, help="edge-list file")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--source", help="reachability source vertex")
    p.add_argument("--target", help="reachability target vertex")
    p.set_defaults(fn=cmd_gen)

    p = sub.add_parser("verify", help="run the cross-pipeline property suites")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--instances", type=int, default=25)
    p.set_defaults(fn=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
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
    except (UnsupportedTBoxError, NotInteractionFreeError) as exc:
        print(f"unsupported: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    except FileNotFoundError as exc:
        print(f"missing file: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except RespoError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PROPERTY_FAILURE


if __name__ == "__main__":
    sys.exit(main())
