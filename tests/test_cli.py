import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from respo.cli import build_parser, main
from respo.model import SupportHistogram
from respo.shapley import Plan

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def fixture_args(stem: str):
    return [
        "--tbox", str(FIXTURES / f"{stem}.tbox"),
        "--abox", str(FIXTURES / f"{stem}.abox"),
        "--query", str(FIXTURES / f"{stem}.query"),
    ]


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_score_fig1_json(capsys):
    code, out, _ = run(capsys, "score", *fixture_args("fig1"), "--weight", "ms")
    assert code == 0
    scores = json.loads(out)
    assert scores["f3"]["score"] == "2/3"
    assert scores["f0"]["score"] == "0"
    assert scores["f1"]["decimal"] == "0.500000"


def test_score_table_format(capsys):
    code, out, _ = run(
        capsys, "score", *fixture_args("fig1"), "--weight", "ms", "--format", "table"
    )
    assert code == 0
    assert "f3" in out and "2/3" in out


def test_score_single_fact(capsys):
    code, out, _ = run(
        capsys, "score", *fixture_args("fig1"), "--fact", "f3"
    )
    assert code == 0
    assert set(json.loads(out)) == {"f3"}


def test_score_answer_binding(tmp_path, capsys):
    query = tmp_path / "open.query"
    query.write_text("FishBased(?x)\n", encoding="utf-8")
    code, out, _ = run(
        capsys,
        "score",
        "--tbox", str(FIXTURES / "fig1.tbox"),
        "--abox", str(FIXTURES / "fig1.abox"),
        "--query", str(query),
        "--answer", "x=cancalaiseSole",
    )
    assert code == 0
    assert json.loads(out)["f3"]["score"] == "2/3"


@pytest.mark.parametrize("method", ["brute", "partition"])
def test_answer_drops_the_disjunct_it_makes_false(tmp_path, capsys, method):
    """Binding ?x and ?y to one constant makes the disjunct with ?x != ?y
    false, so the UCQ scores as its other disjunct alone."""
    abox = tmp_path / "a.abox"
    abox.write_text("f1: r(c, c)\nf2: s(c, c)\nf3: s(c, d)\nf4: r(c, d)\n", encoding="utf-8")
    ucq, alone = tmp_path / "ucq.query", tmp_path / "alone.query"
    ucq.write_text("r(?x, ?y), ?x != ?y\nOR\ns(?x, ?y)\n", encoding="utf-8")
    alone.write_text("s(c, c)\n", encoding="utf-8")
    inputs = ["score", "--abox", str(abox), "--method", method]
    bound = run(capsys, *inputs, "--query", str(ucq), "--answer", "x=c", "--answer", "y=c")
    assert bound == run(capsys, *inputs, "--query", str(alone))
    assert bound[0] == 0 and json.loads(bound[1])["f2"]["score"] == "1"


def test_shapley_drastic_fig1(capsys):
    code, out, _ = run(capsys, "shapley-drastic", *fixture_args("fig1"))
    assert code == 0
    scores = json.loads(out)
    assert scores["f1"]["score"] == "17/70"
    assert scores["f3"]["score"] == "22/105"
    assert scores["f4"]["score"] == "8/105"


def test_shapley_drastic_asks_each_coalition_at_most_once(capsys, monkeypatch, tmp_path):
    """The minimal supports are found once for every fact, not once per
    fact: a DL-Lite_R KB of 5 facts takes at most 2^5 subset-evaluator
    calls, and fig1, whose TBox is Horn-extended, takes none, since its
    supports come from the provenance fixpoint."""
    import respo.support

    calls = []
    make = respo.support.make_subset_evaluator

    def counted(tbox, query):
        evaluator = make(tbox, query)

        def evaluate(facts):
            calls.append(facts)
            return evaluator(facts)

        return evaluate

    monkeypatch.setattr(respo.support, "make_subset_evaluator", counted)
    code, out, _ = run(capsys, "shapley-drastic", *fixture_args("fig1"))
    assert code == 0 and json.loads(out)["f1"]["score"] == "17/70"
    assert calls == []
    kb = {
        "tbox": "role: s <= r\nB <= A\n",
        "abox": "f0: A(a)\nf1: B(a)\nf2: r(a, b)\nf3: s(a, c)\nf4: r(b, a)\n",
        "query": "A(?x), r(?x, ?y)\n",
    }
    argv = ["shapley-drastic"]
    for part, text in kb.items():
        (tmp_path / part).write_text(text, encoding="utf-8")
        argv += [f"--{part}", str(tmp_path / part)]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert {label: v["score"] for label, v in json.loads(out).items()} == {
        "f0": "1/4", "f1": "1/4", "f2": "1/4", "f3": "1/4", "f4": "0"
    }
    assert 0 < len(calls) <= 2 ** 5


def test_count_ms_and_fms(capsys):
    code, out, _ = run(capsys, "count-ms", *fixture_args("fig1"), "--method", "brute")
    assert code == 0 and out.strip() == "3"
    code, out, _ = run(
        capsys, "count-fms", *fixture_args("fig1"), "--size", "3", "--method", "brute"
    )
    assert code == 0 and out.strip() == "2"
    code, out, _ = run(capsys, "count-fms", *fixture_args("fig1"))
    assert code == 0 and json.loads(out) == {"2": 1, "3": 2}


def test_count_ms_unsatisfied(tmp_path, capsys):
    query = tmp_path / "no.query"
    query.write_text("Nope(?x)\n", encoding="utf-8")
    code, out, _ = run(
        capsys,
        "count-ms",
        "--tbox", str(FIXTURES / "variant.tbox"),
        "--abox", str(FIXTURES / "variant.abox"),
        "--query", str(query),
    )
    assert code == 0 and out.strip() == "0"


def test_rewrite_prints_query(tmp_path, capsys):
    tbox = tmp_path / "t.tbox"
    tbox.write_text("A <= B\n", encoding="utf-8")
    query = tmp_path / "q.query"
    query.write_text("B(c)\n", encoding="utf-8")
    code, out, _ = run(capsys, "rewrite", "--tbox", str(tbox), "--query", str(query))
    assert code == 0
    assert "A(c)" in out and "B(c)" in out and "OR" in out


COMMANDS = (
    "score", "shapley-drastic", "count-ms", "count-fms", "rewrite", "check-if", "emit-sql", "gen",
    "verify",
)


def parse(parser, argv: list[str]):
    """What parsing argv returns or exits with, and what it prints."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = parser.parse_args(argv)
        except SystemExit as exc:
            result = exc.code
    return result, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("argv", [
    [], ["--help"], ["-h"], ["bogus"], ["--bogus"], ["sc"],
    *([name, *rest] for name in COMMANDS for rest in (
        ["--help"], [], ["--bogus"], ["extra"], ["--query"], ["--query", "q"], ["mvc", "--graph"],
    )),
], ids=" ".join)
def test_the_parser_of_one_sub_command_prints_what_the_full_parser_prints(argv):
    """`main` builds only the sub-command that argv[0] names: its help,
    its errors (the top-level usage of an unrecognised argument among
    them) and what it parses are those of the parser with every
    sub-command, which any other argv builds."""
    full = build_parser([])
    assert parse(build_parser(argv), argv) == parse(full, argv)
    if argv[:1] in ([name] for name in COMMANDS):
        listed = [
            line.split()[0] for line in build_parser(argv).format_help().splitlines()
            if line.startswith("    ") and line.split()[0] in COMMANDS
        ]
        assert listed == argv[:1]


def loaded_after(code: str) -> tuple[set[str], set[str]]:
    """The respo modules that `code` loads in a fresh interpreter, and the
    names of the functions those modules define: every respo function
    that was compiled."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": src}
    probe = code + (
        "\nimport json, sys\n"
        "modules = {n: m for n, m in sys.modules.items() if n.startswith('respo')}\n"
        "defined = {k for n, m in modules.items() for k, v in vars(m).items()\n"
        "           if callable(v) and getattr(v, '__module__', None) == n}\n"
        "print(json.dumps([sorted(modules), sorted(defined)]))\n"
    )
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True,
                          check=True)
    modules, defined = json.loads(done.stdout.splitlines()[-1])
    return set(modules), set(defined)


def cli_code(argv: list[str]) -> str:
    """Code that runs `respo.cli.main(argv)` to exit 0 with some output."""
    return (
        "import contextlib, io, respo.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()) as out:\n"
        f"    assert respo.cli.main({argv!r}) == 0\n"
        "assert out.getvalue()\n"
    )


@pytest.mark.parametrize("absent", [
    pytest.param("respo.interaction_free", id="interaction-free"),
    pytest.param("cmd_rewrite", id="tool-handlers"),
])
def test_importing_the_cli_loads_no_interaction_free_pipeline(absent):
    """`check-if` imports the pipeline when it runs, as the other commands
    import theirs, and the tool commands' handlers live in `tools`, which
    loads when one of them runs, so `import respo.cli` compiles neither."""
    modules, defined = loaded_after("import respo.cli")
    assert absent not in modules | defined


def test_a_tool_command_run_as_a_module_imports_the_cli_once():
    """`python -m respo.cli <tool>` runs `cli` as `__main__`, and `tools`
    imports nothing from `cli`, so the run never imports `respo.cli`,
    which would compile it a second time."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": src}
    argv = ["rewrite", *fixture_args("variant")]
    done = subprocess.run([sys.executable, "-X", "importtime", "-m", "respo.cli", *argv],
                          env=env, capture_output=True, text=True, check=True)
    imported = {line.rsplit("|", 1)[-1].strip()
                for line in done.stderr.splitlines() if line.startswith("import time:")}
    assert done.stdout and "respo.tools" in imported
    assert "respo.cli" not in imported


@pytest.mark.parametrize("command", ["rewrite", "check-if", "emit-sql"])
def test_a_tool_command_loads_no_scoring_module(command, tmp_path):
    """`build_parser` reads the scoring methods and the brute-force cap
    from `model`, so `rewrite`, `check-if` and `emit-sql` load neither
    `shapley` nor the `provenance` it imports; `emit-sql` builds its
    counting queries in `support`, which imports `provenance` only to
    evaluate a Horn-extended TBox."""
    out = ["--out", str(tmp_path / "sql")] if command == "emit-sql" else []
    modules, _ = loaded_after(cli_code([command, *fixture_args("variant"), *out]))
    assert "respo.tools" in modules
    assert not {"respo.shapley", "respo.provenance"} & modules


CYCLE_12_SCORE = (
    "from respo.generators import Graph, gen_mvc\n"
    "from respo.model import OMQ\n"
    "from respo.shapley import score_all\n"
    "vertices = tuple(f'v{i}' for i in range(12))\n"
    "edges = tuple((vertices[i], vertices[(i + 1) % 12]) for i in range(12))\n"
    "tbox, abox, query = gen_mvc(Graph(vertices, edges))\n"
    "assert score_all(abox, OMQ(tbox, query)).method == 'provenance'\n"
)


@pytest.mark.parametrize("code, absent", [
    pytest.param(cli_code(["score", *fixture_args("variant"), "--method", "if"]),
                 ("respo.support", "respo.queries"), id="variant-if"),
    pytest.param(cli_code(["score", *fixture_args("fig1"), "--method", "provenance"]),
                 ("respo.support",), id="fig1-provenance"),
    pytest.param(cli_code(["shapley-drastic", *fixture_args("fig1")]),
                 ("respo.support",), id="fig1-shapley-drastic"),
    pytest.param(cli_code(["score", *fixture_args("variant"), "--method", "partition"]),
                 ("respo.interaction_free",), id="variant-partition"),
    pytest.param(CYCLE_12_SCORE,
                 ("respo.queries", "respo.elimination", "respo.support"),
                 id="cycle12-score-all"),
])
def test_if_and_provenance_scoring_load_no_support_module(code, absent):
    """`shapley` imports `support` only in the partition and brute-force
    branches, so `score` under the interaction-free pipeline (the variant)
    or provenance (fig1), and the drastic Shapley value of fig1, whose
    supports come from provenance, never load it.  Partition scoring
    under `--method partition` compiles no interaction-free pipeline.
    Interaction-free scoring counts with `elimination` and loads no
    homomorphism search (`queries`), and Horn scoring (`score_all` on a
    12-cycle) loads neither."""
    modules, defined = loaded_after(code)
    assert "respo.shapley" in modules
    assert not set(absent) & (modules | defined)


def test_the_elimination_engine_imports_only_the_model():
    """`elimination` imports only `model`, so loading the counting
    engine loads no `queries`."""
    modules, _ = loaded_after("import respo.elimination")
    assert modules == {"respo", "respo.model", "respo.elimination"}


@pytest.mark.parametrize("method", ["partition", "if"])
def test_scoring_loads_neither_dataclasses_nor_inspect(method):
    """respo builds its value classes with `model.value_class`, so a cold
    `score` op never imports `dataclasses`, nor the `inspect` that
    importing it pulls in."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": src}
    code = (
        "import contextlib, io, sys, respo.cli\n"
        f"argv = ['score', *{fixture_args('variant')!r}, '--method', {method!r}]\n"
        "with contextlib.redirect_stdout(io.StringIO()) as out:\n"
        "    assert respo.cli.main(argv) == 0\n"
        "print('dataclasses' in sys.modules, 'inspect' in sys.modules, bool(out.getvalue()))"
    )
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          check=True)
    assert done.stdout == "False False True\n"


def test_check_if(capsys, tmp_path):
    code, out, _ = run(
        capsys,
        "check-if",
        "--tbox", str(FIXTURES / "variant.tbox"),
        "--query", str(FIXTURES / "variant.query"),
    )
    assert code == 0 and out.strip() == "ok"

    tbox = tmp_path / "t.tbox"
    tbox.write_text("exists r <= A\nexists r- <= A\n", encoding="utf-8")
    query = tmp_path / "q.query"
    query.write_text("A(?x)\n", encoding="utf-8")
    code, out, _ = run(capsys, "check-if", "--tbox", str(tbox), "--query", str(query))
    assert code == 0 and out.startswith("witness")


def test_check_if_reads_the_word_model_child_below_an_inverse_role_inclusion(capsys, tmp_path):
    """Under A <= exists r and r <= s-, the element reached by r has its
    parent as an s-successor and, in the word-based canonical model of
    DL-Lite, an anonymous s-child too; the check sees both s-pairs."""
    tbox = tmp_path / "t.tbox"
    tbox.write_text("A <= exists r\nrole: r <= s-\n", encoding="utf-8")
    query = tmp_path / "q.query"
    query.write_text("s(?x, ?y), B(?z)\n", encoding="utf-8")
    code, out, err = run(capsys, "check-if", "--tbox", str(tbox), "--query", str(query))
    assert (code, err) == (0, "")
    assert out == (
        "witness: fact A(fresh#1) satisfies both s(?x,?y) [?x-><anon>, ?y->fresh#1]"
        " and s(?x,?y) [?x-><anon>, ?y-><anon>]\n"
    )


GOLDEN = Path(__file__).resolve().parent / "golden"


def test_emit_sql_golden_bytes(tmp_path, capsys):
    """The variant's schema, loader and manifest (the 104 counting
    queries' SQL, gammas and order) match the recorded bytes, so a change
    to canonical keys, naming or query order shows here."""
    out_dir = tmp_path / "sql"
    code, out, err = run(capsys, "emit-sql", *fixture_args("variant"), "--out", str(out_dir))
    assert (code, out, err) == (0, f"wrote 104 queries to {out_dir}\n", "")
    assert sorted(p.name for p in out_dir.iterdir()) == ["load.sql", "manifest.json", "schema.sql"]
    for name in ("schema.sql", "load.sql", "manifest.json"):
        assert (out_dir / name).read_bytes() == (GOLDEN / f"variant.{name}").read_bytes(), name


def test_count_fms_partition_golden_bytes(capsys):
    assert run(capsys, "count-fms", *fixture_args("variant"), "--method", "partition") == (
        0, '{"6": 6}\n', ""
    )


@pytest.mark.parametrize("command", ["emit-sql", "count-fms"])
def test_partition_on_fig1_refused_golden_bytes(tmp_path, capsys, command):
    """fig1's TBox is Horn-extended (exists hasIng.FishBased <= FishBased),
    so it has no UCQ rewriting: both partition commands refuse it with the
    same one line and exit 4, and emit-sql writes nothing."""
    out_dir = tmp_path / "sql"
    extra = ["--out", str(out_dir)] if command == "emit-sql" else ["--method", "partition"]
    assert run(capsys, command, *fixture_args("fig1"), *extra) == (
        4, "", "unsupported: Horn-extended TBoxes admit no finite UCQ rewriting in general\n"
    )
    assert not out_dir.exists()


def test_emit_sql_writes_files(tmp_path, capsys):
    out_dir = tmp_path / "sql"
    code, out, _ = run(
        capsys,
        "emit-sql",
        "--tbox", str(FIXTURES / "variant.tbox"),
        "--abox", str(FIXTURES / "variant.abox"),
        "--query", str(FIXTURES / "variant.query"),
        "--out", str(out_dir),
    )
    assert code == 0
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["queries"]
    assert (out_dir / "schema.sql").read_text().startswith("CREATE TABLE")
    assert "INSERT INTO" in (out_dir / "load.sql").read_text()


def test_gen_commands(tmp_path, capsys):
    graph = tmp_path / "g.txt"
    graph.write_text("a b\nb c\na c\n", encoding="utf-8")
    out_dir = tmp_path / "mvc"
    code, _, _ = run(capsys, "gen", "mvc", "--graph", str(graph), "--out", str(out_dir))
    assert code == 0
    code, out, _ = run(
        capsys,
        "count-ms",
        "--tbox", str(out_dir / "tbox.txt"),
        "--abox", str(out_dir / "abox.txt"),
        "--query", str(out_dir / "query.txt"),
        "--method", "brute",
    )
    assert code == 0 and out.strip() == "3"

    dgraph = tmp_path / "d.txt"
    dgraph.write_text("directed\nc x\nx d\nc d\n", encoding="utf-8")
    reach_dir = tmp_path / "reach"
    code, _, _ = run(
        capsys, "gen", "reach", "--graph", str(dgraph), "--out", str(reach_dir),
        "--source", "c", "--target", "d",
    )
    assert code == 0
    code, out, _ = run(
        capsys,
        "count-fms",
        "--tbox", str(reach_dir / "tbox.txt"),
        "--abox", str(reach_dir / "abox.txt"),
        "--query", str(reach_dir / "query.txt"),
        "--method", "brute",
    )
    assert code == 0 and json.loads(out) == {"2": 1, "3": 1}

    bgraph = tmp_path / "b.txt"
    bgraph.write_text("bipartite: A=a1,a2 B=b1,b2\na1 b1\na1 b2\na2 b1\na2 b2\n")
    pm_dir = tmp_path / "pm"
    code, _, _ = run(capsys, "gen", "pm", "--graph", str(bgraph), "--out", str(pm_dir))
    assert code == 0
    for name in ("abox.txt", "q1.query", "q2.query"):
        assert (pm_dir / name).exists()


def test_exit_codes(tmp_path, capsys):
    bad = tmp_path / "bad.tbox"
    bad.write_text("A <= <= B\n", encoding="utf-8")
    query = tmp_path / "q.query"
    query.write_text("A(?x)\n", encoding="utf-8")
    abox = tmp_path / "a.abox"
    abox.write_text("A(c)\n", encoding="utf-8")
    code, _, err = run(
        capsys, "count-ms", "--tbox", str(bad), "--abox", str(abox), "--query", str(query)
    )
    assert code == 2

    # inconsistent KB -> 3
    tbox = tmp_path / "neg.tbox"
    tbox.write_text("A <= !B\n", encoding="utf-8")
    abox2 = tmp_path / "clash.abox"
    abox2.write_text("A(c)\nB(c)\n", encoding="utf-8")
    code, _, _ = run(
        capsys, "score", "--tbox", str(tbox), "--abox", str(abox2), "--query", str(query)
    )
    assert code == 3

    # Horn TBox with a non-brute method -> 4
    code, _, _ = run(
        capsys,
        "count-ms",
        *fixture_args("fig1"),
        "--method", "partition",
    )
    assert code == 4

    # cross-file arity clash -> 2
    clash_query = tmp_path / "clash.query"
    clash_query.write_text("A(?x, ?y)\n", encoding="utf-8")
    code, _, _ = run(
        capsys, "count-ms", "--abox", str(abox), "--query", str(clash_query)
    )
    assert code == 2

    # disequality across two query components -> 2, naming its line
    split_query = tmp_path / "split.query"
    split_query.write_text("A(?x)\nB(?y), ?x != ?y\n", encoding="utf-8")
    code, _, err = run(
        capsys, "count-ms", "--abox", str(abox), "--query", str(split_query)
    )
    assert code == 2
    assert err == "parse error: 2:1: error: disequality spans two query components\n"


def test_score_if_equals_brute_byte_identical(capsys, tmp_path):
    # small interaction-free fixture: brute and if must agree byte for byte
    (tmp_path / "t.tbox").write_text("role: hasGrnsh <= hasIng\n", encoding="utf-8")
    (tmp_path / "a.abox").write_text(
        "f0: Seafood(dish)\nf1: hasIng(dish, sauce)\nf2: hasGrnsh(dish, shrimp)\n"
        "f3: Seafood(tart)\nf4: hasIng(tart, cream)\n",
        encoding="utf-8",
    )
    (tmp_path / "q.query").write_text("Seafood(?x), hasIng(?x, ?y)\n", encoding="utf-8")
    args = [
        "--tbox", str(tmp_path / "t.tbox"),
        "--abox", str(tmp_path / "a.abox"),
        "--query", str(tmp_path / "q.query"),
    ]
    code, brute, _ = run(capsys, "score", *args, "--method", "brute")
    code2, fast, _ = run(capsys, "score", *args, "--method", "if")
    assert code == code2 == 0
    assert brute == fast

    # and on the variant fixture, if equals partition
    code, fast, _ = run(capsys, "score", *fixture_args("variant"), "--method", "if")
    assert code == 0
    code2, part, _ = run(
        capsys, "score", *fixture_args("variant"), "--method", "partition"
    )
    assert code2 == 0
    assert json.loads(fast) == json.loads(part)


def test_if_auto_and_partition_print_the_same_bytes_on_four_copies(capsys, tmp_path):
    """`score` on the variant replicated four times (64 facts) prints the
    same bytes under the interaction-free pipeline, `auto` (which picks
    it) and partition."""
    from respo.textio import parse_abox

    abox = parse_abox((FIXTURES / "variant.abox").read_text(encoding="utf-8"))
    (tmp_path / "x4.abox").write_text("".join(
        f"c{c}{f.label}: {f.predicate}({', '.join(f'c{c}{a}' for a in f.args)})\n"
        for c in range(4) for f in abox
    ), encoding="utf-8")
    args = [*fixture_args("variant")[:2], "--abox", str(tmp_path / "x4.abox"),
            *fixture_args("variant")[4:]]
    outputs = {m: run(capsys, "score", *args, "--method", m) for m in ("if", "auto", "partition")}
    assert outputs["if"][:2] == outputs["auto"][:2] == outputs["partition"][:2]
    assert outputs["if"][0] == 0 and len(json.loads(outputs["if"][1])) == 64


def test_verify_command(capsys):
    code, out, _ = run(capsys, "verify", "--seed", "3", "--instances", "8")
    assert code == 0
    assert out == (
        "partition-vs-brute: 8/8 ok\n"
        "rewriting-soundness: 8/8 ok\n"
        "interaction-free-vs-brute: 4/4 ok\n"
        "horn-vs-brute: 8/8 ok\n"
    )


@pytest.mark.parametrize("name", ["histogram", "fact_counts"])
@pytest.mark.parametrize(
    "method, suites",
    [
        ("partition", ("partition-vs-brute", "rewriting-soundness")),
        ("if", ("interaction-free-vs-brute",)),
        ("provenance", ("horn-vs-brute",)),
    ],
    ids=["partition", "if", "provenance"],
)
def test_verify_checks_the_plan_that_scoring_runs(method, suites, name, capsys, monkeypatch):
    """`verify` compares the `Plan` that `score` and `count-*` run with
    brute force: a plan whose histogram, or one fact's counts, is one
    support too high under one method fails every instance of that
    method's suites and no other."""
    original = getattr(Plan, name)

    def corrupted(self, facts):
        result = original(self, facts)
        if self.method != method:
            return result
        if name == "histogram":
            return SupportHistogram({**result.counts, 1: result[1] + 1})
        full, counts = result
        first = next(iter(counts))
        return full, {**counts, first: {**counts[first], 1: counts[first].get(1, 0) + 1}}

    monkeypatch.setattr(Plan, name, corrupted)
    code, out, err = run(capsys, "verify", "--seed", "3", "--instances", "4")
    assert code == 1
    sizes = {"partition-vs-brute": 4, "rewriting-soundness": 4,
             "interaction-free-vs-brute": 2, "horn-vs-brute": 4}
    assert out == "".join(f"{s}: {0 if s in suites else k}/{k} ok\n" for s, k in sizes.items())
    for suite in suites:
        assert f"FAIL {suite} instance 0: " in err


@pytest.mark.parametrize("command", [["score"], ["score", "--format", "table"],
                                     ["count-ms"], ["count-fms"], ["count-fms", "--size", "3"]])
def test_horn_auto_prints_the_bytes_of_brute_force(command, capsys, tmp_path):
    """`auto` takes provenance for the Horn-extended TBoxes of fig1 and of
    the generated vertex-cover and reachability instances, and prints what
    brute force prints."""
    graph, dgraph = tmp_path / "g.txt", tmp_path / "d.txt"
    graph.write_text("a b\nb c\nc d\nd a\nb d\n", encoding="utf-8")
    dgraph.write_text("directed\nc x\nx d\nc d\nx y\ny d\n", encoding="utf-8")
    assert run(capsys, "gen", "mvc", "--graph", str(graph), "--out", str(tmp_path / "mvc"))[0] == 0
    assert run(capsys, "gen", "reach", "--graph", str(dgraph), "--out", str(tmp_path / "reach"),
               "--source", "c", "--target", "d")[0] == 0
    generated = [
        ["--tbox", str(tmp_path / kind / "tbox.txt"), "--abox", str(tmp_path / kind / "abox.txt"),
         "--query", str(tmp_path / kind / "query.txt")]
        for kind in ("mvc", "reach")
    ]
    for inputs in (fixture_args("fig1"), *generated):
        auto = run(capsys, *command, *inputs)
        assert auto[0] == 0 and auto[1] and auto[2] == ""
        assert auto == run(capsys, *command, *inputs, "--method", "brute")
        assert auto == run(capsys, *command, *inputs, "--method", "provenance")


def _weight_file(tmp_path, text):
    path = tmp_path / "w.txt"
    path.write_text(text, encoding="utf-8")
    return f"file:{path}"


# The exact line of the cases below whose wording is pinned: a negative
# `--cap` is refused as a `--size` below 1 is, also on an empty ABox,
# while a cap the facts exceed keeps the cap's own message; a name used as
# a concept in one input and a role in another names both inputs and no
# line.
PINNED_ERRORS = {
    "shapley-negative-cap": "error: --cap must be at least 0, got -1\n",
    "shapley-negative-cap-empty-abox": "error: --cap must be at least 0, got -1\n",
    "shapley-over-cap": "error: brute-force Shapley capped at 20 facts, got 21\n",
    "abox-query-signature-clash": "error: 'r' is a role in the ABox and a concept in the query\n",
    "tbox-abox-signature-clash": "error: 'r' is a concept in the TBox and a role in the ABox\n",
}


@pytest.mark.parametrize(
    "argv",
    [
        ["score", "--tbox", str(FIXTURES / "fig1.tbox"), "--query", str(FIXTURES / "fig1.query")],
        ["count-ms", "--query", str(FIXTURES / "fig1.query")],
        ["count-fms", "--query", str(FIXTURES / "fig1.query")],
        ["shapley-drastic", "--query", str(FIXTURES / "fig1.query")],
        ["score", *fixture_args("fig1"), "--fact", "nope"],
        ["shapley-drastic", *fixture_args("fig1"), "--fact", "nope"],
        ["score", *fixture_args("fig1"), "--answer", "zz=foo"],
        ["count-fms", "--abox", "R_ABOX", "--query", "R_QUERY", "--method", "if",
         "--answer", "y=fresh#1"],
        ["count-fms", "--abox", "R_ABOX", "--query", "R_QUERY", "--answer", "x="],
        ["count-fms", "--abox", "R_ABOX", "--query", "R_QUERY", "--answer", "x=c",
         "--answer", "x=d"],
        ["score", "--abox", "R_ABOX", "--query", "NEQ_QUERY", "--answer", "x=c", "--answer", "y=c"],
        ["score", *fixture_args("fig1"), "--weight", "nope"],
        ["score", *fixture_args("fig1"), "--weight", "WEIGHTS:3 8 1/0\n"],
        ["score", *fixture_args("fig1"), "--weight", "WEIGHTS:3 x 1/2\n"],
        ["score", *fixture_args("fig1"), "--weight", "WEIGHTS:1 8 1\n"],
        ["score", *fixture_args("fig1"), "--abox", "BIG_ABOX", "--method", "brute"],
        ["score", "--tbox", "WIDE_TBOX", "--abox", "WIDE_ABOX", "--query", "WIDE_QUERY"],
        ["count-ms", *fixture_args("fig1"), "--abox", "BIG_ABOX", "--method", "brute"],
        ["count-fms", *fixture_args("fig1"), "--abox", "BIG_ABOX", "--method", "brute"],
        ["count-fms", "--tbox", "WIDE_TBOX", "--abox", "WIDE_ABOX", "--query", "WIDE_QUERY"],
        ["score", "--tbox", "JOIN_TBOX", "--abox", "JOIN_ABOX", "--query", "JOIN_QUERY"],
        ["shapley-drastic", *fixture_args("fig1"), "--abox", "BIG_ABOX"],
        ["shapley-drastic", *fixture_args("fig1"), "--cap", "-1"],
        ["shapley-drastic", *fixture_args("fig1"), "--abox", "EMPTY_ABOX", "--cap", "-1"],
        ["count-fms", *fixture_args("variant"), "--size", "0"],
        ["emit-sql", *fixture_args("variant"), "--size", "0", "--out", "OUT_DIR"],
        ["emit-sql", *fixture_args("variant"), "--size", "-2", "--out", "OUT_DIR"],
        ["verify", "--instances", "0"],
        ["verify", "--instances", "-3"],
        ["gen", "reach", "--graph", "GRAPH", "--out", "OUT_DIR"],
        ["gen", "reach", "--graph", "GRAPH", "--out", "OUT_DIR", "--source", "a", "--target", "z"],
        ["gen", "mvc", "--graph", "BAD_GRAPH", "--out", "OUT_DIR"],
        ["gen", "pm", "--graph", "UNCOVERED_GRAPH", "--out", "OUT_DIR"],
        ["gen", "pm", "--graph", "GRAPH", "--out", "OUT_DIR"],
        ["gen", "mvc", "--graph", "EDGELESS_GRAPH", "--out", "OUT_DIR"],
        ["score", "--tbox", str(FIXTURES / "fig1.tbox"), "--abox", str(FIXTURES),
         "--query", str(FIXTURES / "fig1.query")],
        ["score", *fixture_args("fig1"), "--weight", f"file:{FIXTURES}"],
        ["score", *fixture_args("fig1"), "--weight", "file:LATIN1_WEIGHTS"],
        ["score", "--tbox", str(FIXTURES / "fig1.tbox"), "--abox", "LATIN1_ABOX",
         "--query", str(FIXTURES / "fig1.query")],
        ["emit-sql", *fixture_args("variant"), "--out", "OUT_FILE"],
        ["gen", "mvc", "--graph", "GRAPH", "--out", "OUT_FILE"],
        ["count-ms", "--abox", "R_ABOX", "--query", "CLASH_QUERY"],
        ["count-ms", "--tbox", "CLASH_TBOX", "--abox", "R_ABOX", "--query", "R_QUERY"],
    ],
    ids=[
        "score-no-abox", "count-ms-no-abox", "count-fms-no-abox", "shapley-no-abox",
        "score-unknown-fact", "shapley-unknown-fact", "unknown-answer-variable",
        "answer-not-a-constant", "answer-empty-value", "answer-bound-twice",
        "answer-collapses-disequality",
        "unknown-weight", "weight-zero-denominator", "weight-non-integer-size",
        "weight-missing-entry", "score-brute-over-cap", "score-auto-brute-over-cap",
        "count-ms-brute-over-cap", "count-fms-brute-over-cap", "count-fms-auto-brute-over-cap",
        "score-auto-provenance-over-budget", "shapley-over-cap", "shapley-negative-cap",
        "shapley-negative-cap-empty-abox", "count-fms-size-zero",
        "emit-sql-size-zero", "emit-sql-negative-size", "verify-zero-instances",
        "verify-negative-instances", "gen-reach-no-source", "gen-reach-unknown-vertex",
        "gen-bad-edge-line", "gen-pm-uncovered-vertex", "gen-pm-not-bipartite", "gen-mvc-no-edges",
        "abox-is-directory", "weight-file-is-directory", "weight-not-utf8", "abox-not-utf8",
        "emit-sql-out-is-file", "gen-out-is-file", "abox-query-signature-clash",
        "tbox-abox-signature-clash",
    ],
)
def test_bad_input_exits_2_with_one_line(argv, capsys, tmp_path, monkeypatch, request):
    import respo.shapley
    import respo.support

    def no_scoring(*args, **kwargs):
        raise AssertionError("bad input must be rejected before scoring")

    # Every count and every Shapley value that needs minimal supports runs
    # through these: partition scoring and counting through
    # `basis_fact_counts`, brute force through `enumerate_minimal_supports`
    # and provenance through `minimal_why_provenance`; the Shapley cap
    # precedes the last two.
    # A missing weight-table entry shows only once scoring needs it, and
    # the brute-force and provenance caps are checked by the computation
    # itself: `auto` takes provenance for the Horn-extended WIDE and JOIN
    # TBoxes.
    checked_while_computing = {
        "weight-missing-entry", "score-auto-brute-over-cap",
        "count-fms-auto-brute-over-cap", "score-auto-provenance-over-budget",
    }
    if request.node.callspec.id not in checked_while_computing:
        for name in ("enumerate_minimal_supports", "basis_fact_counts"):
            monkeypatch.setattr(respo.support, name, no_scoring)
        monkeypatch.setattr(respo.shapley, "minimal_why_provenance", no_scoring)
    # One fact past the brute-force cap of 20.
    big = tmp_path / "big.abox"
    big.write_text("".join(f"f{i}: Seafood(dish{i})\n" for i in range(21)), encoding="utf-8")

    def wide(n, p=""):
        """W_n(g) has 2^n minimal supports, one of x_i, y_i for each i."""
        tbox = "".join(f"{p}X{i} <= {p}Z{i}\n{p}Y{i} <= {p}Z{i}\n" for i in range(1, n + 1))
        tbox += f"{p}Z1 & {p}Z2 <= {p}W2\n"
        tbox += "".join(f"{p}W{i - 1} & {p}Z{i} <= {p}W{i}\n" for i in range(3, n + 1))
        abox = "".join(f"{p}x{i}: {p}X{i}(g)\n{p}y{i}: {p}Y{i}(g)\n" for i in range(1, n + 1))
        return tbox, abox

    # W14(g) is past the provenance cap of 10,000 minimal supports (W13
    # has 8,192).  PW13 and QW13 are under it, but R(g) would join their
    # 2^26 unions: the budget of 10,000 candidate sets per fact stops it.
    (wide_tbox, wide_abox), (p_tbox, p_abox), (q_tbox, q_abox) = (
        wide(14), wide(13, "P"), wide(13, "Q")
    )
    files = {
        "GRAPH": "a b\nb c\n",
        "BAD_GRAPH": "a b\na b c\n",
        "UNCOVERED_GRAPH": "bipartite: A=a1 B=b1\na1 b2\n",
        "EDGELESS_GRAPH": "vertex: a\n",
        "WIDE_TBOX": wide_tbox,
        "WIDE_ABOX": wide_abox,
        "WIDE_QUERY": "W14(g)\n",
        "JOIN_TBOX": p_tbox + q_tbox + "PW13 & QW13 <= R\n",
        "JOIN_ABOX": p_abox + q_abox,
        "JOIN_QUERY": "R(g)\n",
        "LATIN1_ABOX": "f0: Seafood(caf\xe9)\n".encode("latin-1"),
        "LATIN1_WEIGHTS": "3 8 1/2\xe9\n".encode("latin-1"),
        "OUT_FILE": "",
        "EMPTY_ABOX": "",
        "R_ABOX": "f1: r(c, c)\nf2: r(d, e)\n",
        "R_QUERY": "r(?x, ?y)\n",
        "NEQ_QUERY": "r(?x, ?y), ?x != ?y\n",
        "CLASH_QUERY": "r(?x)\n",
        "CLASH_TBOX": "r <= B\n",
    }
    for placeholder, text in files.items():
        if isinstance(text, bytes):
            (tmp_path / placeholder).write_bytes(text)
        else:
            (tmp_path / placeholder).write_text(text, encoding="utf-8")
    argv = [
        _weight_file(tmp_path, a[len("WEIGHTS:"):]) if a.startswith("WEIGHTS:")
        else str(big) if a == "BIG_ABOX"
        else str(tmp_path / a) if a in files
        else f"file:{tmp_path / a[len('file:'):]}"
        if a.startswith("file:") and a[len("file:"):] in files
        else str(tmp_path / "out") if a == "OUT_DIR" else a
        for a in argv
    ]
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert not err.startswith("parse error"), err
    assert len(err.strip().splitlines()) == 1, err
    assert err == PINNED_ERRORS.get(request.node.callspec.id, err)
    assert not (tmp_path / "out").exists()


NOT_INTERACTION_FREE = (
    "unsupported: OMQ is not interaction-free: fact A(fresh#1) satisfies both"
    " A(?x) [?x->fresh#1] and r(?x,?y) [?x->fresh#1, ?y-><anon>]"
)


GROUND_ONLY = (
    "unsupported: Horn-extended TBoxes and the provenance pipeline take ground atomic queries only"
)


# A disequality query under a positive inclusion, which no UCQ rewrites:
# brute force evaluates the rewriting too, so it refuses in the rewriter.
NOT_REWRITABLE = (
    "unsupported: disequality queries are only rewritable over TBoxes without positive inclusions"
)


UNSUPPORTED = [
    ("non-if", "if", NOT_INTERACTION_FREE),
    ("ucq", "if", "unsupported: interaction-freeness is defined for single CQs"),
    ("neq", "if",
     "unsupported: interaction-freeness is defined for plain CQs (no disequalities)"),
    ("neq-positive", "brute", NOT_REWRITABLE),
    ("neq-positive", "auto", NOT_REWRITABLE),
    ("horn", "partition",
     "unsupported: Horn-extended TBoxes admit no finite UCQ rewriting in general"),
    ("horn", "if", "unsupported: interaction-freeness requires a DL-Lite_R TBox"),
    ("horn-open", "auto", GROUND_ONLY),
    ("horn-open", "brute", GROUND_ONLY),
    ("horn-open", "provenance", GROUND_ONLY),
    ("ucq", "provenance", GROUND_ONLY),
    ("horn-exists-empty", "auto",
     "unsupported: existential right-hand sides are unsupported by the Horn evaluator"),
]


# `shapley-drastic` takes no --method: on a Horn-extended TBox it runs
# provenance, as `auto` does, so it shares the `auto` cases.
@pytest.mark.parametrize(
    "case, method, message, command",
    [(*row, command) for row in UNSUPPORTED for command in ("score", "count-fms", "count-ms")]
    + [(*row, "shapley-drastic") for row in UNSUPPORTED if row[1] == "auto"],
)
def test_unsupported_pipeline_exits_4_with_one_line(
    command, case, method, message, capsys, tmp_path
):
    """Each unsupported OMQ/method pair ends in the same one-line message
    under every command, also when the ABox is empty."""
    (tmp_path / "t.tbox").write_text("A <= exists r\n", encoding="utf-8")
    (tmp_path / "a.abox").write_text("f0: A(a)\nf1: r(a,b)\n", encoding="utf-8")
    queries = {
        "non-if": "A(?x), r(?x,?y)\n",
        "ucq": "A(?x)\nOR\nr(?x,?y)\n",
        "neq": "r(?x,?y), r(?x,?z), ?y != ?z\n",
        "neq-positive": "s(?w, ?z), ?w != ?z\n",
    }
    if case == "horn":
        inputs = fixture_args("fig1")
    elif case == "horn-open":
        (tmp_path / "q.query").write_text("FishBased(?x)\n", encoding="utf-8")
        inputs = [*fixture_args("fig1")[:4], "--query", str(tmp_path / "q.query")]
    elif case == "horn-exists-empty":
        (tmp_path / "h.tbox").write_text("A <= exists r\nA & B <= C\n", encoding="utf-8")
        (tmp_path / "e.abox").write_text("", encoding="utf-8")
        (tmp_path / "q.query").write_text("C(a)\n", encoding="utf-8")
        inputs = ["--tbox", str(tmp_path / "h.tbox"), "--abox", str(tmp_path / "e.abox"),
                  "--query", str(tmp_path / "q.query")]
    else:
        (tmp_path / "q.query").write_text(queries[case], encoding="utf-8")
        inputs = ["--abox", str(tmp_path / "a.abox"), "--query", str(tmp_path / "q.query")]
        if case == "non-if":
            inputs += ["--tbox", str(tmp_path / "t.tbox")]
        if case == "neq-positive":
            (tmp_path / "s.tbox").write_text("B <= exists s-\n", encoding="utf-8")
            inputs += ["--tbox", str(tmp_path / "s.tbox")]
    if command != "shapley-drastic":
        inputs += ["--method", method]
    code, out, err = run(capsys, command, *inputs)
    assert (code, out, err) == (4, "", message + "\n")
