"""The respo benchmark.

Times respo from outside, through its public entry points, on the source
tree of the checkout it sits in (`src/` is put on the path; an installed
copy is never used).

    python3 bench/run.py --workload if-score --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 25

One run measures one workload for `--seconds`, in a closed loop with one
client.  Three workloads time a cold CLI op: one fresh interpreter per
op that runs `respo.cli.main(argv)` (cli_op.py), from spawn to exit.  The
fourth, horn-batch, times pairs of `shapley.score_all` calls in long-lived
library processes (horn_worker.py).  Every op gets a fresh instance (see
instances.py) and its answer is checked; a wrong answer or a non-zero exit
counts as failed, never as a timing.  Times are reported in reference
seconds, wall seconds corrected for the host's speed (speed.py).

With `--trace 0` the last stdout line holds the end-to-end metrics, with
`--trace 1` the per-layer metrics from a traced run (tracer.py).
`--workload all` runs every workload untraced and then traced, prints
every metric by name with its unit plus the tracing overhead, and exits 1
if any op failed.  A single-workload run also exits 1 when an op failed.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import threading
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from time import perf_counter

from horn_worker import KINDS
from instances import (
    Namer,
    check_horn_result,
    check_variant_counts,
    check_variant_scores,
    horn_expected,
    read_fixture,
    variant_replica,
)
from speed import kernel_seconds, to_reference
from tracer import EVALUATOR, POSITIVE_WEIGHTS, SUPPORTS_FOUND, TRACED

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"

#: Fresh interpreters timed for `setup_s` (after one that warms the
#: bytecode cache); the median is reported.
SETUP_SAMPLES = 11
#: A CLI run writes `seconds / MIN_OP_S` instances during set-up and ends
#: early if it uses them all.  Starting an interpreter and importing
#: respo.cli alone takes about this long.  A run starts no op (or, for
#: horn-batch, no library process) that would end past `seconds` if it
#: took as long as the one before it, so a run lasts `seconds` plus set-up
#: whatever the host's speed.
MIN_OP_S = 0.1
#: Ops (pairs of `score_all` calls) per horn-batch library process.  Every
#: process does the same work, so its peak memory, reported as
#: `peak_rss_mb`, compares across commits, and the heap the later ops run
#: against stays the same size.
HORN_WORKER_OPS = 4
#: A CLI op is stopped this often to read the host's speed (speed.py).
PAUSE_EVERY_S = 1.0
#: Every child is killed once the run has lasted this long.
RUN_DEADLINE_S = 170.0

IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import respo.cli; "
    "print(time.perf_counter() - t)"
)


@dataclass(frozen=True)
class CliWorkload:
    command: str
    method: str
    copies: int  # replicas of the 16-fact variant fixture per op


CLI_WORKLOADS = {
    "if-score": CliWorkload("score", "if", 2),
    "partition-score": CliWorkload("score", "partition", 1),
    "partition-count": CliWorkload("count-fms", "partition", 16),
}
WORKLOADS = (*CLI_WORKLOADS, "horn-batch")

#: Traced functions reported one by one; the rest feed derived metrics.
REPORTED = tuple(
    name for name in TRACED
    if name not in (
        "support.partition_histogram",
        "support.make_subset_evaluator",
        "interaction_free.count_ms_interaction_free",
    )
)
HISTOGRAMS = ("interaction_free.count_ms_interaction_free", "support.partition_histogram")


@dataclass
class Op:
    seconds: float  # wall
    ref_s: float  # reference seconds (speed.py)
    facts: int
    rss_mb: float
    error: str | None = None
    stdout: str = ""
    trace: dict | None = None


@dataclass
class Run:
    setup_s: float
    ops: list[Op] = field(default_factory=list)
    peak_rss_mb: float = 0.0
    trace: dict | None = None  # summed over ops


# ---------------------------------------------------------------------------
# Processes
# ---------------------------------------------------------------------------

def child_env() -> dict:
    """The children's environment: this checkout's `src/` on the path and
    no RESPO_THREADS, so the default single-thread path is measured."""
    env = dict(os.environ)
    env.pop("RESPO_THREADS", None)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def kill_at(proc: subprocess.Popen, deadline: float) -> threading.Timer:
    timer = threading.Timer(max(0.0, deadline - perf_counter()), proc.kill)
    timer.start()
    return timer


def spawn(cmd: list[str], out: Path, err: Path, deadline: float) -> tuple[float, int, list[float]]:
    """Run a child to completion, stopping it every PAUSE_EVERY_S seconds
    while the host's speed is read.  Returns the wall seconds from spawn to
    exit less the stops, the exit code and the speed readings.  The child is
    killed at the deadline."""
    readings: list[float] = []
    stopped = 0.0
    with open(out, "wb") as fout, open(err, "wb") as ferr:
        start = perf_counter()
        proc = subprocess.Popen(cmd, stdout=fout, stderr=ferr, cwd=ROOT, env=child_env())
    pidfd = os.pidfd_open(proc.pid)
    try:
        exited = select.poll()
        exited.register(pidfd, select.POLLIN)
        while not exited.poll(1000 * max(0.0, min(PAUSE_EVERY_S, deadline - perf_counter()))):
            if perf_counter() >= deadline:
                proc.kill()
                continue
            pause = perf_counter()
            proc.send_signal(signal.SIGSTOP)
            _, status = os.waitpid(proc.pid, os.WUNTRACED)
            if not os.WIFSTOPPED(status):  # it exited before the signal came
                proc.returncode = os.waitstatus_to_exitcode(status)
                return pause - start - stopped, proc.returncode, readings
            readings.append(kernel_seconds())
            proc.send_signal(signal.SIGCONT)
            stopped += perf_counter() - pause
        end = perf_counter()
        return end - start - stopped, proc.wait(), readings
    finally:
        os.close(pidfd)
        if proc.returncode is None:
            proc.kill()
            proc.wait()


def measure_setup(work: Path, deadline: float) -> float:
    """Median reference seconds a fresh interpreter takes to import
    respo.cli."""
    samples = []
    kernel_before = kernel_seconds()
    for i in range(SETUP_SAMPLES + 1):
        out, err = work / "import.out", work / "import.err"
        _, code, _ = spawn([sys.executable, "-c", IMPORT_PROBE], out, err, deadline)
        if code != 0:
            raise RuntimeError("importing respo.cli failed: " + err.read_text())
        kernel_after = kernel_seconds()
        if i:
            samples.append(to_reference(float(out.read_text()), [kernel_before, kernel_after]))
        kernel_before = kernel_after
    return statistics.median(samples)


def failure_text(code: int, err: Path) -> str:
    tail = err.read_text(encoding="utf-8", errors="replace").strip().splitlines()[-3:]
    return f"exit {code}: " + " | ".join(tail)


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

def run_cli(name: str, seed: int, seconds: float, trace: bool, work: Path, deadline: float) -> Run:
    wl = CLI_WORKLOADS[name]
    fixture = read_fixture(ROOT)
    namer = Namer(name, seed)
    prefixes = [namer.prefix(i) for i in range(int(seconds / MIN_OP_S) + 1)]
    for i, prefix in enumerate(prefixes):
        (work / f"{i}.abox").write_text(variant_replica(fixture, prefix, wl.copies), encoding="utf-8")
    run = Run(setup_s=measure_setup(work, deadline))
    facts = len(fixture) * wl.copies

    start, last = perf_counter(), 0.0
    kernel_before = kernel_seconds()
    for i, prefix in enumerate(prefixes):
        began = perf_counter()
        if i and began - start + last > seconds:
            break
        report = work / f"{i}.report.json"
        cmd = [sys.executable, str(BENCH / "cli_op.py"), str(report), "1" if trace else "0",
            wl.command,
            "--tbox", "fixtures/variant.tbox",
            "--abox", str(work / f"{i}.abox"),
            "--query", "fixtures/variant.query",
            "--method", wl.method,
        ]
        out, err = work / f"{i}.out", work / f"{i}.err"
        op_s, code, readings = spawn(cmd, out, err, deadline)
        kernel_after = kernel_seconds()
        op_ref_s = to_reference(op_s, [kernel_before, *readings, kernel_after])
        kernel_before = kernel_after
        stdout = out.read_text(encoding="utf-8")
        if code != 0:
            error = failure_text(code, err)
        elif wl.command == "score":
            error = check_variant_scores(stdout, fixture, prefix, wl.copies)
        else:
            error = check_variant_counts(stdout, wl.copies)
        op = Op(op_s, op_ref_s, facts, 0.0, error, stdout if i == 0 else "")
        if report.is_file():
            measured = json.loads(report.read_text(encoding="utf-8"))
            op.rss_mb, op.trace = measured["rss_kb"] / 1024.0, measured["trace"]
        run.ops.append(op)
        last = perf_counter() - began
    done = [op.rss_mb for op in run.ops if op.error is None]
    run.peak_rss_mb = statistics.median(done) if done else 0.0
    run.trace = merge_traces(op.trace for op in run.ops if op.trace is not None)
    return run


def horn_op(line: str, expected: dict, kernel_before: float, kernel_after: float) -> Op:
    rec = json.loads(line)
    error = rec["error"]
    for call in rec["calls"]:
        counts = {int(k): v for k, v in call["counts"].items()}
        error = error or check_horn_result(counts, Fraction(call["score_sum"]), expected[call["kind"]])
    stdout = json.dumps(rec["calls"]) if rec["op"] == 0 else ""
    ref_s = to_reference(rec["seconds"], [kernel_before, kernel_after])
    return Op(rec["seconds"], ref_s, rec["facts"], rec["rss_kb"] / 1024.0, error, stdout)


def horn_worker(run: Run, seed: int, trace: bool, err: Path, deadline: float) -> tuple[bool, dict | None]:
    """Serve HORN_WORKER_OPS ops from one fresh library process and append
    them to the run, or a failed op if the process failed.  Returns whether
    it completed, and its trace summary."""
    expected = {kind: horn_expected(kind) for kind in KINDS}
    cmd = [sys.executable, str(BENCH / "horn_worker.py"), str(seed), "1" if trace else "0"]
    with open(err, "wb") as ferr:
        proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=ferr,
                                cwd=ROOT, env=child_env(), text=True)
    timer = kill_at(proc, deadline)
    last = ""
    try:
        kernel_before = kernel_seconds()
        first = len(run.ops)
        for op in range(first, first + HORN_WORKER_OPS):
            proc.stdin.write(f"{op}\n")
            proc.stdin.flush()
            line = proc.stdout.readline()
            kernel_after = kernel_seconds()  # while the worker waits for input
            if not line:
                break
            run.ops.append(horn_op(line, expected, kernel_before, kernel_after))
            kernel_before = kernel_after
        else:
            proc.stdin.close()
            last = proc.stdout.readline()
    except BrokenPipeError:
        pass
    finally:
        if not last:
            proc.kill()
        proc.wait()
        timer.cancel()
        proc.stdin.close()
        proc.stdout.close()
    if proc.returncode != 0 or not last:
        run.ops.append(Op(0.0, 0.0, 0, 0.0, failure_text(proc.returncode, err)))
        return False, None
    return True, json.loads(last)["trace"]


def run_horn(seed: int, seconds: float, trace: bool, work: Path, deadline: float) -> Run:
    run = Run(setup_s=measure_setup(work, deadline))
    rss, traces = [], []
    start, last = perf_counter(), 0.0
    while True:
        began = perf_counter()
        if run.ops and began - start + last > seconds:
            break
        completed, summary = horn_worker(run, seed, trace, work / "horn.err", deadline)
        if completed:
            rss.append(run.ops[-1].rss_mb)
            traces.append(summary)
        last = perf_counter() - began
    run.peak_rss_mb = statistics.median(rss) if rss else 0.0
    run.trace = merge_traces(t for t in traces if t is not None)
    return run


def merge_traces(traces) -> dict | None:
    merged = None
    for t in traces:
        if merged is None:
            merged = {"calls": {}, "self_s": {}, "counters": {}}
        for key, values in t.items():
            for name, value in values.items():
                merged[key][name] = merged[key].get(name, 0) + value
    return merged


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def end_to_end(run: Run) -> dict:
    """Times in reference seconds (speed.py)."""
    good = [op for op in run.ops if op.error is None]
    total_s = sum(op.ref_s for op in good)
    return {
        "op_s_p50": (statistics.median(op.ref_s for op in good) if good else 0.0, "s"),
        "facts_per_s": (sum(op.facts for op in good) / total_s if total_s else 0.0, "1/s"),
        "setup_s": (run.setup_s, "s"),
        "peak_rss_mb": (run.peak_rss_mb, "MB"),
    }


def per_layer(run: Run) -> dict:
    good = [op for op in run.ops if op.error is None]
    n = len(good) or 1
    total_s = sum(op.seconds for op in good) or 1.0
    trace = run.trace or {"calls": {}, "self_s": {}, "counters": {}}
    calls, self_s, counters = trace["calls"], trace["self_s"], trace["counters"]
    metrics = {}
    for name in REPORTED:
        metrics[f"{name}.calls"] = (calls.get(name, 0) / n, "count")
        metrics[f"{name}.self_pct"] = (100.0 * self_s.get(name, 0.0) / total_s, "%")
    weights = calls.get("interaction_free.atom_support_weight", 0)
    evaluated = calls.get(EVALUATOR, 0)
    metrics.update({
        "interaction_free.useful_ratio": (
            counters.get(POSITIVE_WEIGHTS, 0) / weights if weights else 0.0, "ratio"),
        "shapley.histograms_per_op": (sum(calls.get(h, 0) for h in HISTOGRAMS) / n, "count"),
        "support.evaluator_calls": (evaluated / n, "count"),
        "support.useful_ratio": (
            counters.get(SUPPORTS_FOUND, 0) / evaluated if evaluated else 0.0, "ratio"),
        "traced.op_s_p50": (statistics.median(op.ref_s for op in good) if good else 0.0, "s"),
    })
    return metrics


def measure(workload: str, seed: int, seconds: float, trace: bool) -> Run:
    work = WORK / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    deadline = perf_counter() + RUN_DEADLINE_S
    try:
        if workload == "horn-batch":
            return run_horn(seed, seconds, trace, work, deadline)
        return run_cli(workload, seed, seconds, trace, work, deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if WORK.exists() and not any(WORK.iterdir()):
            WORK.rmdir()


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------

def commit_id() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def print_metrics(workload: str, metrics: dict, run: Run):
    failed = sum(op.error is not None for op in run.ops)
    attempted = max(1, len(run.ops))
    print(f"[{workload}] failed_frac = {failed / attempted:.6g} ratio ({failed} of {len(run.ops)} ops)")
    wall = [op.seconds for op in run.ops if op.error is None]
    if wall:
        print(f"[{workload}] wall_op_s_p50 = {statistics.median(wall):.6g} s (not normalised)")
    for name, (value, unit) in metrics.items():
        print(f"[{workload}] {name} = {value:.6g} {unit}")
    for op in run.ops:
        if op.error is not None:
            print(f"[{workload}] FAILED op: {op.error}", file=sys.stderr)


def result_line(metrics: dict, run: Run) -> str:
    failed = sum(op.error is not None for op in run.ops)
    return json.dumps({
        "correct": failed == 0,
        "attempted": max(1, len(run.ops)),
        "failed": failed if run.ops else 1,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    })


def run_all(seed: int, seconds: float) -> int:
    """Every workload untraced, then traced; 1 if any op failed."""
    bad = False
    for workload in WORKLOADS:
        plain = measure(workload, seed, seconds, False)
        traced = measure(workload, seed, seconds, True)
        print_metrics(workload, end_to_end(plain), plain)
        print_metrics(workload, per_layer(traced), traced)
        base = end_to_end(plain)["op_s_p50"][0]
        if base:
            overhead = per_layer(traced)["traced.op_s_p50"][0] / base
            print(f"[{workload}] tracing_overhead = {overhead:.4f} x (traced / untraced op_s_p50)")
        same = plain.ops and traced.ops and plain.ops[0].stdout == traced.ops[0].stdout
        print(f"[{workload}] traced_output_identical = {bool(same)}")
        bad = bad or not same or any(op.error for op in plain.ops + traced.ops)
    return 1 if bad else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    missing = [p for p in ("src/respo/cli.py", "fixtures/variant.abox") if not (ROOT / p).is_file()]
    if missing:
        print(f"benchmark: no respo source tree here (missing {', '.join(missing)})", file=sys.stderr)
        return 2
    print(
        f"env: commit={commit_id()} python={sys.version.split()[0]} nproc={len(os.sched_getaffinity(0))}",
        flush=True,
    )
    if args.workload == "all":
        return run_all(args.seed, args.seconds)

    run = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    metrics = per_layer(run) if args.trace else end_to_end(run)
    print_metrics(args.workload, metrics, run)
    print(result_line(metrics, run))
    return 0 if run.ops and not any(op.error for op in run.ops) else 1


if __name__ == "__main__":
    sys.exit(main())
