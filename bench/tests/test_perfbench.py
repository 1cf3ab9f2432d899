"""Tests of the benchmark itself: traced and untraced runs agree, the
correctness gates reject corrupted answers, and ops never share names.

    python -m pytest -q bench/tests
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
from horn_worker import KINDS, call_prefix  # noqa: E402
from instances import (  # noqa: E402
    Namer,
    check_horn_result,
    check_variant_counts,
    check_variant_scores,
    horn_expected,
    horn_instance,
    read_fixture,
    variant_replica,
)

FIXTURE = read_fixture(ROOT)


def respo(tmp_path: Path, copies: int, method: str, entry: str = "module"):
    """(stdout, cli_op report or None, prefix) of one `respo score` op, run
    as `python -m respo.cli` or through cli_op.py untraced or traced."""
    prefix = Namer("test", 0).prefix(0)
    abox = tmp_path / "op.abox"
    abox.write_text(variant_replica(FIXTURE, prefix, copies), encoding="utf-8")
    report = tmp_path / f"{entry}.json"
    cmd = {
        "module": [sys.executable, "-m", "respo.cli"],
        "untraced": [sys.executable, str(BENCH / "cli_op.py"), str(report), "0"],
        "traced": [sys.executable, str(BENCH / "cli_op.py"), str(report), "1"],
    }[entry]
    args = ["score", "--tbox", "fixtures/variant.tbox", "--abox", str(abox),
            "--query", "fixtures/variant.query", "--method", method]
    done = subprocess.run(cmd + args, cwd=ROOT, env=run.child_env(),
                          capture_output=True, timeout=120, check=True)
    measured = json.loads(report.read_text(encoding="utf-8")) if entry != "module" else None
    return done.stdout, measured, prefix


def horn_worker(trace: str) -> tuple[list[dict], dict | None]:
    """(op records, trace summary) of a horn_worker.py process serving ops 0
    and 1."""
    done = subprocess.run([sys.executable, str(BENCH / "horn_worker.py"), "3", trace],
                          input="0\n1\n", cwd=ROOT, env=run.child_env(),
                          capture_output=True, text=True, timeout=120, check=True)
    lines = [json.loads(line) for line in done.stdout.splitlines()]
    return lines[:-1], lines[-1]["trace"]


def test_tracing_leaves_cli_output_byte_identical(tmp_path):
    module, _, _ = respo(tmp_path, 1, "if")
    untraced, plain, _ = respo(tmp_path, 1, "if", "untraced")
    traced, report, _ = respo(tmp_path, 1, "if", "traced")
    assert module == untraced == traced
    assert plain["trace"] is None and plain["rss_kb"] > 0
    assert report["trace"]["calls"]["cli.main"] == 1
    assert report["trace"]["calls"]["interaction_free.count_ms_interaction_free"] == 17


def test_tracing_leaves_library_results_identical():
    (plain, no_trace), (traced, trace) = horn_worker("0"), horn_worker("1")
    keep = ("op", "facts", "calls", "error")
    assert [{k: o[k] for k in keep} for o in plain] == [{k: o[k] for k in keep} for o in traced]
    assert [[c["kind"] for c in o["calls"]] for o in plain] == [["mvc", "reach"]] * 2
    assert no_trace is None
    assert trace["calls"]["shapley.score_all"] == 4


def test_gate_accepts_real_scores_and_rejects_corrupted_ones(tmp_path):
    stdout, _, prefix = respo(tmp_path, 2, "if")
    text = stdout.decode()
    assert check_variant_scores(text, FIXTURE, prefix, 2) is None

    payload = json.loads(text)
    a, b = (f"{prefix}c00f1", f"{prefix}c01f3")  # same total, unequal scores
    assert payload[a]["score"] != payload[b]["score"]
    swapped = dict(payload, **{a: payload[b], b: payload[a]})
    assert "copy 1" in check_variant_scores(json.dumps(swapped), FIXTURE, prefix, 2)

    bumped = dict(payload, **{a: {"score": str(Fraction(payload[a]["score"]) + 1)}})
    assert "sum to" in check_variant_scores(json.dumps(bumped), FIXTURE, prefix, 2)

    dropped = {k: v for k, v in payload.items() if k != a}
    assert check_variant_scores(json.dumps(dropped), FIXTURE, prefix, 2) is not None
    assert check_variant_scores(text[:-20], FIXTURE, prefix, 2) is not None


def test_gate_rejects_corrupted_counts_and_horn_results():
    assert check_variant_counts('{"6": 24}\n', 2) is None
    assert check_variant_counts('{"6": 23}\n', 2) is not None
    assert check_variant_counts('{"5": 24}\n', 2) is not None
    assert check_variant_counts("Traceback", 2) is not None

    mvc = horn_expected("mvc")
    assert mvc == {6: 2, 7: 24, 8: 3}
    assert horn_expected("reach") == {5: 6}
    assert check_horn_result(mvc, Fraction(29), mvc) is None
    assert check_horn_result({**mvc, 7: 23}, Fraction(28), mvc) is not None
    assert check_horn_result(mvc, Fraction(30), mvc) is not None


def _names_of_replica(text: str) -> set[str]:
    names = set()
    for line in text.splitlines():
        label, pred, args = re.match(r"(\w+): (\w+)\((.*)\)$", line).groups()
        names.add(label)
        names.update(a.strip() for a in args.split(","))
    return names


def _names_of_horn(kind: str, prefix: str) -> set[str]:
    abox, omq = horn_instance(kind, prefix)
    names = {f.label for f in abox} | {a for f in abox for a in f.args}
    names |= {t.name for cq in omq.query.disjuncts for atom in cq.atoms
              for t in atom.terms if t.is_const}
    return names


def test_ops_never_share_fact_labels_or_constants():
    namer = Namer("if-score", 7)
    seen: set[str] = set()
    for op in range(6):
        names = _names_of_replica(variant_replica(FIXTURE, namer.prefix(op), 2))
        assert len(names) > 32 and not names & seen
        seen |= names

    namer = Namer("horn-batch", 7)
    seen = set()
    for op in range(3):
        for kind in KINDS:
            names = _names_of_horn(kind, call_prefix(namer, op, kind))
            assert not names & seen
            seen |= names


def test_seed_fixes_the_inputs():
    assert Namer("if-score", 3).tag == Namer("if-score", 3).tag
    assert Namer("if-score", 3).tag != Namer("if-score", 4).tag


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    empty = run.Run(setup_s=0.0)
    assert [m["name"] for m in spec["end_to_end"]] == list(run.end_to_end(empty))
    assert [m["name"] for m in spec["per_layer"]] == list(run.per_layer(empty))
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    units = {**run.end_to_end(empty), **run.per_layer(empty)}
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert units[m["name"]][1] == m["unit"]
    layers = json.loads((BENCH / "layers.json").read_text(encoding="utf-8"))
    assert list(layers) == list(run.per_layer(empty))
