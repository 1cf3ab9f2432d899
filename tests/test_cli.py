import json
from pathlib import Path

import pytest

from respo.cli import main

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


def test_shapley_drastic_fig1(capsys):
    code, out, _ = run(capsys, "shapley-drastic", *fixture_args("fig1"))
    assert code == 0
    scores = json.loads(out)
    assert scores["f1"]["score"] == "17/70"
    assert scores["f3"]["score"] == "22/105"
    assert scores["f4"]["score"] == "8/105"


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


def test_verify_command(capsys):
    code, out, _ = run(capsys, "verify", "--seed", "3", "--instances", "8")
    assert code == 0
    assert "partition-vs-brute: 8/8 ok" in out


def _weight_file(tmp_path, text):
    path = tmp_path / "w.txt"
    path.write_text(text, encoding="utf-8")
    return f"file:{path}"


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
        ["score", *fixture_args("fig1"), "--weight", "nope"],
        ["score", *fixture_args("fig1"), "--weight", "WEIGHTS:3 8 1/0\n"],
        ["score", *fixture_args("fig1"), "--weight", "WEIGHTS:3 x 1/2\n"],
    ],
    ids=[
        "score-no-abox", "count-ms-no-abox", "count-fms-no-abox", "shapley-no-abox",
        "score-unknown-fact", "shapley-unknown-fact", "unknown-answer-variable",
        "unknown-weight", "weight-zero-denominator", "weight-non-integer-size",
    ],
)
def test_bad_input_exits_2_with_one_line(argv, capsys, tmp_path, monkeypatch):
    import respo.shapley

    def no_scoring(*args, **kwargs):
        raise AssertionError("bad input must be rejected before scoring")

    monkeypatch.setattr(respo.shapley, "score_all", no_scoring)
    monkeypatch.setattr(respo.shapley, "shapley_brute_force", no_scoring)
    argv = [
        _weight_file(tmp_path, a[len("WEIGHTS:"):]) if a.startswith("WEIGHTS:") else a
        for a in argv
    ]
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert len(err.strip().splitlines()) == 1, err
