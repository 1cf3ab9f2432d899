"""The tool commands of the command line: `rewrite`, `check-if`,
`emit-sql`, `gen` and `verify`.

`cli` parses their options and maps their errors to exit codes; it
imports this module only when one of them runs, so that importing `cli`
and a scoring or counting command compile none of it.  This module
imports nothing from `cli`: the inputs load through `textio`, and each
handler returns the exit code of its outcome, 0 on success and 1 for a
failed property (`verify`), as `cli` documents them.  Each handler
imports the pipeline it runs when it runs.
"""

from __future__ import annotations

import random
import sys
from pathlib import Path

from .model import ABox, InputError, OMQ, RespoError, TBox, UCQ, read_text
from .textio import at_least, load_inputs, render_abox, render_query, render_tbox


def cmd_rewrite(args) -> int:
    from .rewriter import rewrite

    omq, _ = load_inputs(args)
    sys.stdout.write(render_query(rewrite(omq)))
    return 0


def cmd_check_if(args) -> int:
    from .interaction_free import check_interaction_free

    omq, _ = load_inputs(args)
    witness = check_interaction_free(omq)
    if witness is None:
        print("ok")
    else:
        print(f"witness: {witness}")
    return 0


def cmd_emit_sql(args) -> int:
    from .rewriter import rewrite
    from .sqlgen import build_manifest
    from .support import counting_queries

    at_least(args, "size", 1)
    omq, abox = load_inputs(args, need_abox=True)
    rewriting = rewrite(omq) if omq.tbox.axioms else omq.query
    queries = {k: qs for k, qs in counting_queries(rewriting).items() if args.size in (None, k)}
    manifest = build_manifest(rewriting, queries, abox)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "schema.sql").write_text(manifest.schema_sql, encoding="utf-8")
    (out / "load.sql").write_text(manifest.loader_sql, encoding="utf-8")
    (out / "manifest.json").write_text(manifest.to_json(), encoding="utf-8")
    print(f"wrote {len(manifest.entries)} queries to {out}")
    return 0


def cmd_gen(args) -> int:
    from .generators import (
        gen_mvc,
        gen_perfect_matching,
        gen_reachability,
        parse_graph,
    )

    if args.kind == "reach" and not (args.source and args.target):
        raise InputError("gen reach needs --source and --target")
    graph = parse_graph(read_text(args.graph))
    if args.kind == "pm":
        instance = gen_perfect_matching(graph)
        files = {
            "tbox.txt": "",
            "abox.txt": render_abox(instance.abox),
            "q1.query": render_query(instance.q1),
            "q2.query": render_query(instance.q2),
        }
    else:
        tbox, abox, query = (
            gen_mvc(graph) if args.kind == "mvc"
            else gen_reachability(graph, args.source, args.target)
        )
        files = {
            "tbox.txt": render_tbox(tbox),
            "abox.txt": render_abox(abox),
            "query.txt": render_query(query),
        }
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for name, text in files.items():
        (out / name).write_text(text, encoding="utf-8")
    print(f"wrote {'matching' if args.kind == 'pm' else args.kind} instance to {out}")
    return 0


def cmd_verify(args) -> int:
    """Run four seeded suites, each comparing the `Plan` of one method with
    the brute-force plan on random (OMQ, ABox) draws: the histogram and
    every fact's per-size counts must agree, and a `RespoError` fails the
    instance.  partition-vs-brute draws UCQs over plain databases,
    interaction-free-vs-brute interaction-free DL-Lite_R OMQs and
    horn-vs-brute Horn-extended KBs with a ground atomic query.
    rewriting-soundness runs partition on consistent DL-Lite_R KBs, which
    checks the rewriting on every sub-ABox: entailment over the
    sub-ABoxes of a consistent KB is monotone, as is a UCQ without
    disequalities, and two monotone properties of fact sets agree on
    every subset iff they have the same minimal supports, whose counts
    the suite compares."""
    at_least(args, "instances", 1)
    from .randgen import (
        random_abox,
        random_consistent_kb,
        random_cq,
        random_database,
        random_horn_kb,
        random_interaction_free_omq,
        random_ucq,
    )
    from .shapley import Plan

    def database(rng):
        ucq = random_ucq(rng)
        return OMQ(TBox(), ucq), random_database(rng, bias=ucq)

    def dllite(rng):
        cq = random_cq(rng, max_atoms=2, allow_neq=False)
        tbox, abox = random_consistent_kb(rng, bias=UCQ((cq,)))
        return OMQ(tbox, cq), abox

    def interaction_free(rng):
        omq = random_interaction_free_omq(rng).omq
        return omq, random_abox(rng, max_facts=6, bias=omq.query, tbox=omq.tbox)

    def horn(rng):
        tbox, abox, query = random_horn_kb(rng)
        return OMQ(tbox, query), abox

    def mismatch(omq, abox: ABox, method: str) -> str | None:
        try:
            expected, expected_counts = Plan(omq, "brute").fact_counts(abox)
            plan = Plan(omq, method)
            histogram = plan.histogram(abox)
            full, counts = plan.fact_counts(abox)
        except RespoError as exc:
            return f"{type(exc).__name__}: {exc}"
        if histogram != expected or full != expected:
            return f"histogram {histogram}, {full} vs brute {expected}"
        for f in abox:
            if counts.get(f) != expected_counts[f]:
                return f"fact {f.label}: {counts.get(f)} vs brute {expected_counts[f]}"
        return None

    n = args.instances
    suites = (
        ("partition-vs-brute", "partition", n, database),
        ("rewriting-soundness", "partition", n, dllite),
        ("interaction-free-vs-brute", "if", max(1, n // 2), interaction_free),
        ("horn-vs-brute", "provenance", n, horn),
    )
    rng = random.Random(args.seed)
    failures = []
    for name, method, count, draw in suites:
        failed = 0
        for i in range(count):
            problem = mismatch(*draw(rng), method)
            if problem is not None:
                failed += 1
                failures.append(f"{name} instance {i}: {problem}")
        print(f"{name}: {count - failed}/{count} ok")
    for f in failures:
        print(f"FAIL {f}", file=sys.stderr)
    return 1 if failures else 0
