"""Long-lived library process for the horn-batch workload.

    python bench/horn_worker.py SEED TRACE

Reads one op number per stdin line and answers each with one JSON line on
stdout.  Op n is two `score_all(..., method="auto")` calls on fresh
instances named with op n's prefix and the instance kind (see
instances.py): a minimal vertex
cover instance on a 12-cycle (about 0.9 s today) and a reachability
instance on a directed 3x3 grid (about 0.3 s).  An op holds one call of
each so that all ops do the same work; the median of alternating 0.9 s and
0.3 s calls would jump between the two.  All ops run in this one process,
so caches and memory build up as they do for a library user.  Each
instance is built before its call's timer starts.  A record holds the op's
wall seconds, fact count, each call's support histogram and ms-score
total, and this process's peak resident memory after the op.  At end of
input a last line holds the trace summary when TRACE is 1.  The benchmark
process times its speed reference between ops, while this process waits
for the next line (speed.py).
"""

from __future__ import annotations

import json
import sys
import traceback
from time import perf_counter

from cli_op import peak_rss_kb
from instances import Namer, horn_instance
from tracer import Tracer, install

KINDS = ("mvc", "reach")


def call_prefix(namer: Namer, op: int, kind: str) -> str:
    return namer.prefix(op) + kind


def run_op(score_all, namer: Namer, op: int) -> dict:
    record = {"op": op, "seconds": 0.0, "facts": 0, "calls": [], "error": None}
    for kind in KINDS:
        abox, omq = horn_instance(kind, call_prefix(namer, op, kind))
        record["facts"] += len(abox)
        began = perf_counter()
        try:
            report = score_all(abox, omq, method="auto")
        except Exception:  # an op boundary: report the failure, keep serving
            record["seconds"] += perf_counter() - began
            record["error"] = traceback.format_exc(limit=3)
            break
        record["seconds"] += perf_counter() - began
        record["calls"].append({
            "kind": kind,
            "counts": {str(k): v for k, v in report.histogram.counts.items()},
            "score_sum": str(sum(report.scores.values())),
        })
    record["rss_kb"] = peak_rss_kb()
    return record


def main() -> int:
    seed, trace = int(sys.argv[1]), sys.argv[2] == "1"
    tracer = Tracer() if trace else None
    if tracer is not None:
        install(tracer)
    from respo.shapley import score_all

    namer = Namer("horn-batch", seed)
    for line in sys.stdin:
        op = int(line)
        if tracer is not None:
            tracer.op = op
        print(json.dumps(run_op(score_all, namer, op)), flush=True)
    print(json.dumps({"trace": tracer.summary() if tracer is not None else None}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
