import random

from respo.model import CQ, Fact, ABox, UCQ, concept_atom, const, neq_atom, role_atom, var
from respo.randgen import random_database, random_ucq
from respo.sqlgen import (
    build_manifest,
    emit_count_query,
    emit_loader,
    emit_schema,
    sanitize_names,
)
from respo.support import counting_queries, ucq_holds

from oracles import count_fms_brute, sqlite_counts


def test_sanitize_names():
    mapping = sanitize_names(["A", "hasIng", "has ing", "has_ing", "select"])
    assert mapping["A"] == "a"
    assert mapping["hasIng"] == "hasing"
    assert mapping["select"] == "select_t"
    # collision gets a deterministic suffix
    assert len(set(mapping.values())) == len(mapping)


def test_emit_schema():
    tables = sanitize_names(["A", "hasIng"])
    ddl = emit_schema(["A"], ["hasIng"], tables)
    assert "CREATE TABLE a (c VARCHAR(128));" in ddl
    assert "CREATE TABLE hasing (s VARCHAR(128), o VARCHAR(128));" in ddl


def test_emit_loader_escaping():
    abox = ABox((Fact("f0", "A", ("o'brien",)), Fact("f1", "r", ("c", "d"))))
    tables = sanitize_names(["A", "r"])
    script = emit_loader(abox, tables)
    assert "INSERT INTO a VALUES ('o''brien');" in script
    assert "INSERT INTO r VALUES ('c', 'd');" in script


def test_emit_count_query_shapes():
    tables = sanitize_names(["A", "r"])
    simple = CQ((role_atom("r", var("x"), var("y")), neq_atom(var("x"), var("y"))))
    sql = emit_count_query(simple, tables)
    assert sql == "SELECT COUNT(*) FROM r AS a0 WHERE a0.s <> a0.o"

    joined = CQ(
        (
            concept_atom("A", var("x")),
            role_atom("r", var("x"), var("y")),
            neq_atom(var("x"), var("y")),
        )
    )
    sql2 = emit_count_query(joined, tables)
    assert "FROM a AS a0, r AS a1" in sql2
    assert "a0.c = a1.s" in sql2
    assert "a1.s <> a1.o" in sql2 or "a0.c <> a1.o" in sql2

    ground = CQ((concept_atom("A", const("c")),))
    assert emit_count_query(ground, tables) == (
        "SELECT COUNT(*) FROM a AS a0 WHERE a0.c = 'c'"
    )


def test_manifest_round_trip_json():
    ucq = UCQ((CQ((role_atom("r", var("x"), var("y")),)),))
    abox = ABox((Fact("f0", "r", ("c", "d")),))
    manifest = build_manifest(ucq, counting_queries(ucq), abox)
    payload = manifest.to_json()
    assert '"gamma"' in payload and '"size"' in payload


def test_manifest_matches_brute_force_randomized():
    """The emitted SQL, run in sqlite (a real SQL-92 engine) and summed
    with its gammas, counts the minimal supports that brute force finds."""
    for seed, draws in ((303, 40), (404, 15)):
        rng = random.Random(seed)
        for _ in range(draws):
            ucq = random_ucq(rng)
            db = random_database(rng, bias=ucq)
            manifest = build_manifest(ucq, counting_queries(ucq), db)
            brute = count_fms_brute(tuple(db), lambda s: ucq_holds(ucq, s))
            for k, value in sqlite_counts(manifest).items():
                assert value.denominator == 1
                assert int(value) == brute[k]


def test_sql92_surface():
    rng = random.Random(505)
    for _ in range(20):
        ucq = random_ucq(rng)
        db = random_database(rng, bias=ucq)
        for e in build_manifest(ucq, counting_queries(ucq), db).entries:
            sql = e.sql
            assert sql.startswith("SELECT COUNT(*) FROM ")
            body = sql[len("SELECT COUNT(*) FROM "):]
            where = ""
            if " WHERE " in body:
                body, where = body.split(" WHERE ", 1)
            for chunk in body.split(", "):
                assert " AS " in chunk
            if where:
                for cond in where.split(" AND "):
                    assert ("=" in cond) or ("<>" in cond)
