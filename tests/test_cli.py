import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import oblot.hypergraph
from oblot import cli
from oblot.errors import BudgetExceededError, InternalError
from oblot.graphs import Graph, dump_json
from oblot.hypergraph import build, export

from bruteforce import grid

K23 = Graph(n=5, edges=((0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4)), name="K23")


def run_cli(*args, env_extra=None):
    env = os.environ.copy()
    env.setdefault("PYTHONHASHSEED", "0")
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "oblot", *args],
        capture_output=True,
        text=True,
        env=env,
    )


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    d = tmp_path_factory.mktemp("cli")

    def put(name, obj):
        path = d / name
        path.write_text(json.dumps(obj))
        return str(path)

    k23 = {"name": "K23", "n": 5, "edges": [[0, 2], [0, 3], [0, 4], [1, 2], [1, 3], [1, 4]]}
    c4 = {"n": 4, "edges": [[0, 1], [1, 2], [2, 3], [0, 3]]}
    p5 = {"n": 5, "edges": [[0, 1], [1, 2], [2, 3], [3, 4]]}
    return {
        "dir": d,
        "k23": put("k23.json", k23),
        "mixed": put("mixed.json", {"graph": "k23.json", "lambda": [1, 0, 1, 0, 0]}),
        "two_side": put("two_side.json", {"graph": "k23.json", "lambda": [1, 1, 0, 0, 0]}),
        "spread": put("spread.json", {"graph": k23, "lambda": [0, 0, 1, 1, 1]}),
        "antipodal": put("antipodal.json", {"graph": c4, "lambda": [1, 0, 1, 0]}),
        "p5_ends": put("p5_ends.json", {"graph": p5, "lambda": [1, 0, 0, 0, 1]}),
        "gathering": put("gathering.json", {"type": "gathering"}),
    }


def test_canon(files):
    r = run_cli("canon", "--graph", files["k23"])
    assert r.returncode == 0
    obj = json.loads(r.stdout)
    assert sorted(obj) == ["encoding", "labeling"]
    assert sorted(obj["labeling"]) == [0, 1, 2, 3, 4]
    bytes.fromhex(obj["encoding"])

    r2 = run_cli("canon", "--config", files["mixed"])
    assert r2.returncode == 0
    assert json.loads(r2.stdout)["encoding"] != obj["encoding"]


def test_orbits(files):
    r = run_cli("orbits", "--graph", files["k23"])
    assert r.returncode == 0
    obj = json.loads(r.stdout)
    assert {frozenset(o) for o in obj["orbits"]} == {
        frozenset({0, 1}),
        frozenset({2, 3, 4}),
    }
    assert obj["occupied"] == []
    assert len(obj["ranks"]) == 2

    r2 = run_cli("orbits", "--config", files["mixed"])
    obj2 = json.loads(r2.stdout)
    assert obj2["occupied"] == [3, 4]


def test_build(files, tmp_path):
    out = tmp_path / "h.json"
    dot = tmp_path / "h.dot"
    r = run_cli(
        "build", "--graph", files["k23"], "-k", "2",
        "--out", str(out), "--dot", str(dot),
    )
    assert r.returncode == 0
    assert r.stdout == "configs=5 hyperarcs=9\n"
    doc = json.loads(out.read_text())
    assert doc["format_version"] == 1
    assert doc["scheduler"] == "fsync"
    assert len(doc["configs"]) == 5
    assert len(doc["hyperarcs"]) == 9
    assert dot.read_text().startswith("digraph")


def test_build_ssync(files, tmp_path):
    out = tmp_path / "h.json"
    r = run_cli(
        "build", "--graph", files["k23"], "-k", "2",
        "--scheduler", "ssync", "--out", str(out),
    )
    assert r.returncode == 0
    assert r.stdout == "configs=5 hyperarcs=12\n"


def test_solve(files):
    r = run_cli("solve", "--graph", files["k23"], "-k", "2", "--problem", files["gathering"])
    assert r.returncode == 0
    lines = [json.loads(line) for line in r.stdout.splitlines()]
    assert [ln["index"] for ln in lines] == [0, 1, 2, 3, 4]
    by_lam = {tuple(ln["lambda"]): ln for ln in lines}
    for lam in ((0, 2, 0, 0, 0), (0, 0, 0, 0, 2)):
        assert by_lam[lam]["final"] and by_lam[lam]["distance"] == 0
        assert by_lam[lam]["move"] is None
    mixed = by_lam[(0, 1, 0, 0, 1)]
    assert mixed["solvable"] and mixed["distance"] == 1
    assert mixed["move"] == [[3, None], [4, 3]]
    for lam in ((1, 1, 0, 0, 0), (0, 0, 0, 1, 1)):
        line = by_lam[lam]
        assert not line["solvable"]
        assert line["distance"] is None and line["move"] is None


def test_move_step_and_unsolvable(files):
    r = run_cli("move", "--config", files["mixed"], "--problem", files["gathering"])
    assert r.returncode == 0
    assert json.loads(r.stdout) == {
        "distance": 1,
        "move": [[3, None], [4, 3]],
        "status": "step",
    }
    r2 = run_cli("move", "--config", files["antipodal"], "--problem", files["gathering"])
    assert r2.returncode == 3
    assert json.loads(r2.stdout) == {"status": "unsolvable"}


def test_simulate_exit_codes(files):
    r = run_cli("simulate", "--config", files["mixed"], "--problem", files["gathering"])
    assert r.returncode == 0
    assert json.loads(r.stdout)["status"] == "reached_final"

    r2 = run_cli("simulate", "--config", files["antipodal"], "--problem", files["gathering"])
    assert r2.returncode == 3
    assert json.loads(r2.stdout)["status"] == "unsolvable"

    r3 = run_cli(
        "simulate", "--config", files["p5_ends"], "--problem", files["gathering"],
        "--max-rounds", "1",
    )
    assert r3.returncode == 4
    assert json.loads(r3.stdout)["status"] == "max_rounds_exceeded"


def test_simulate_adversaries_agree_on_status(files):
    for adversary in ("worst", "first", "random:9"):
        r = run_cli(
            "simulate", "--config", files["spread"], "--problem", files["gathering"],
            "--adversary", adversary, "--max-rounds", "10",
        )
        assert r.returncode == 0
        assert json.loads(r.stdout)["status"] == "reached_final"


def test_output_independent_of_hash_seed(files, tmp_path):
    # byte-identical stdout under different interpreter hash randomization
    outs = []
    for seed in ("0", "4217"):
        r = run_cli(
            "solve", "--graph", files["k23"], "-k", "2",
            "--problem", files["gathering"],
            env_extra={"PYTHONHASHSEED": seed},
        )
        assert r.returncode == 0
        outs.append(r.stdout)
    assert outs[0] == outs[1]

    builds = []
    for seed in ("1", "999"):
        out = tmp_path / f"h{seed}.json"
        r = run_cli(
            "build", "--graph", files["k23"], "-k", "2", "--out", str(out),
            env_extra={"PYTHONHASHSEED": seed},
        )
        assert r.returncode == 0
        builds.append(out.read_text())
    assert builds[0] == builds[1]


def _assert_answer_ignores_cache(args, cache):
    """``args`` print the same bytes and exit the same with ``--cache`` as without."""
    plain = run_cli(*args)
    cached = run_cli(*args, "--cache", str(cache))
    assert (cached.stdout, cached.returncode) == (plain.stdout, plain.returncode), cached.stderr


def test_cache_round_trip(files, tmp_path):
    cache = tmp_path / "cache"
    out = tmp_path / "h.json"
    build_k23 = ("build", "--graph", files["k23"], "-k", "2", "--out", str(out))
    r = run_cli(*build_k23, "--cache", str(cache))
    assert r.returncode == 0
    cached = list(cache.glob("*.json"))
    assert len(cached) == 1
    first = cached[0].read_bytes()
    # the entry is the export, byte for byte
    assert first == out.read_bytes()

    # a second run finds the entry and leaves it untouched
    r2 = run_cli(
        "solve", "--graph", files["k23"], "-k", "2",
        "--problem", files["gathering"], "--cache", str(cache),
    )
    assert r2.returncode == 0
    assert cached[0].read_bytes() == first

    # no command reads an entry, so a corrupt one changes no answer
    cached[0].write_text("{corrupt")
    _assert_answer_ignores_cache(build_k23, cache)
    assert cached[0].read_text() == "{corrupt"


def test_build_into_empty_cache_exports_once(files, tmp_path, monkeypatch, capsys):
    # the entry and --out come from one chunk generator, not one per file
    formats = []

    def counting(format, chunks):
        def generator(h):
            formats.append(format)
            return chunks(h)
        return generator

    monkeypatch.setattr(cli, "_json_chunks", counting("json", cli._json_chunks))
    monkeypatch.setattr(cli, "_dot_chunks", counting("dot", cli._dot_chunks))
    out = tmp_path / "h.json"
    cache = tmp_path / "cache"
    argv = ["build", "--graph", files["k23"], "-k", "2", "--out", str(out), "--cache", str(cache)]
    assert cli.main(argv) == 0
    assert formats == ["json"]
    (entry,) = cache.glob("*.json")
    assert entry.read_bytes() == out.read_bytes()
    # with the entry in place, --out still gets its one export
    out.unlink()
    assert cli.main(argv) == 0
    assert formats == ["json", "json"]
    assert entry.read_bytes() == out.read_bytes()
    # a command that writes no file generates no export
    solve = ["solve", "--graph", files["k23"], "-k", "2", "--problem", files["gathering"]]
    assert cli.main([*solve, "--cache", str(cache)]) == 0
    assert formats == ["json", "json"]
    assert capsys.readouterr().out.startswith("configs=5 hyperarcs=9\n" * 2)


@pytest.mark.parametrize("scheduler", ["fsync", "ssync"])
@pytest.mark.parametrize("graph,k", [(K23, 2), (grid(3, 4), 3)])
def test_build_streams_the_export_bytes(tmp_path, capsys, graph, k, scheduler):
    path = tmp_path / "g.json"
    path.write_text(dump_json(graph.to_json_obj()))
    out, dot, cache = tmp_path / "h.json", tmp_path / "h.dot", tmp_path / "cache"
    argv = ["build", "--graph", str(path), "-k", str(k), "--scheduler", scheduler,
            "--out", str(out), "--dot", str(dot), "--cache", str(cache)]
    assert cli.main(argv) == 0
    h = build(graph, k, scheduler)
    assert capsys.readouterr().out == f"configs={len(h.configs)} hyperarcs={len(h.hyperarcs)}\n"
    assert out.read_text() == export(h, "json")
    assert dot.read_text() == export(h, "dot")
    (entry,) = cache.iterdir()
    assert entry.read_bytes() == out.read_bytes()


def test_commands_never_call_export(files, tmp_path, monkeypatch, capsys):
    def refuse(h, format):
        raise AssertionError("the CLI writes export chunks, never the joined export")

    monkeypatch.setattr(oblot.hypergraph, "export", refuse)
    monkeypatch.setattr(cli, "export", refuse, raising=False)
    cache = str(tmp_path / "cache")
    assert cli.main(["build", "--graph", files["k23"], "-k", "2", "--out", str(tmp_path / "h.json"),
                     "--dot", str(tmp_path / "h.dot")]) == 0
    assert cli.main(["solve", "--graph", files["k23"], "-k", "2",
                     "--problem", files["gathering"], "--cache", cache]) == 0
    shutil.rmtree(cache)
    assert cli.main(["move", "--config", files["mixed"], "--problem", files["gathering"],
                     "--cache", cache]) == 0
    assert len(list(Path(cache).iterdir())) == 1


def test_cache_key_ignores_graph_name(files, tmp_path):
    cache = tmp_path / "cache"
    k23 = json.loads(Path(files["k23"]).read_text())
    outs = []
    for name in ("first", "second"):
        graph = tmp_path / f"{name}.json"
        graph.write_text(json.dumps({**k23, "name": name}))
        out = tmp_path / f"{name}.hg.json"
        r = run_cli(
            "build", "--graph", str(graph), "-k", "2",
            "--out", str(out), "--cache", str(cache),
        )
        assert r.returncode == 0
        outs.append(json.loads(out.read_text()))
    assert len(list(cache.iterdir())) == 1
    # every answer is built from the requested graph, decorative name included
    assert [o["graph"]["name"] for o in outs] == ["first", "second"]


def test_cache_rebuilds_over_export_of_another_graph(files, tmp_path):
    cache = tmp_path / "cache"
    out = tmp_path / "h.json"
    build_k23 = (
        "build", "--graph", files["k23"], "-k", "2",
        "--out", str(out), "--cache", str(cache),
    )
    assert run_cli(*build_k23).returncode == 0
    (entry,) = cache.iterdir()

    # plant a valid export of a different (graph, k) under K23's key
    p3 = tmp_path / "p3.json"
    p3.write_text(json.dumps({"n": 3, "edges": [[0, 1], [1, 2]]}))
    other = tmp_path / "p3.hg.json"
    assert run_cli("build", "--graph", str(p3), "-k", "2", "--out", str(other)).returncode == 0
    entry.write_text(other.read_text())

    _assert_answer_ignores_cache(build_k23[:-2], cache)
    assert entry.read_text() == other.read_text()
    assert sorted(p.name for p in cache.iterdir()) == [entry.name]


def test_cache_entry_with_forged_deltas_changes_no_answer(files, tmp_path):
    # a well-formed entry whose every Δ is the final class 0: answered from,
    # it would put the unsolvable classes 2 and 4 one round from gathering
    cache = tmp_path / "cache"
    build_k23 = ("build", "--graph", files["k23"], "-k", "2", "--out", str(tmp_path / "h.json"))
    assert run_cli(*build_k23, "--cache", str(cache)).returncode == 0
    (entry,) = cache.iterdir()
    doc = json.loads(entry.read_text())
    moves: dict[int, list] = {}
    for arc in doc["hyperarcs"]:
        moves.setdefault(arc["source"], []).extend(arc["moves"])
    doc["hyperarcs"] = [{"source": s, "delta": [0], "moves": ms} for s, ms in sorted(moves.items())]
    entry.write_text(json.dumps(doc))
    for args in (
        ("solve", "--graph", files["k23"], "-k", "2", "--problem", files["gathering"]),
        ("move", "--config", files["two_side"], "--problem", files["gathering"]),
        ("move", "--config", files["mixed"], "--problem", files["gathering"]),
    ):
        _assert_answer_ignores_cache(args, cache)


def _assert_cache_entry_changes_no_answer(files, tmp_path, content: bytes):
    """Every cached command answers as without a cache while the entry holds
    ``content``; the answer is always built, and the entry left as it is."""
    cache = tmp_path / "cache"
    queries = (
        ("build", "--graph", files["k23"], "-k", "2", "--out", str(tmp_path / "h.json")),
        ("solve", "--graph", files["k23"], "-k", "2", "--problem", files["gathering"]),
        ("move", "--config", files["mixed"], "--problem", files["gathering"]),
    )
    assert run_cli(*queries[0], "--cache", str(cache)).returncode == 0
    (entry,) = cache.iterdir()
    entry.write_bytes(content)
    for args in queries:
        _assert_answer_ignores_cache(args, cache)
    assert entry.read_bytes() == content


def test_non_utf8_cache_entry_is_rebuilt(files, tmp_path):
    # an entry that is not UTF-8 changes no answer
    _assert_cache_entry_changes_no_answer(files, tmp_path, b"\xff\xfe{}")


BIG_INT = "1" * 5000  # past the interpreter's limit on integer digits
DEEP_ARRAY = "[" * 100_000 + "]" * 100_000  # past the interpreter's recursion limit


@pytest.mark.parametrize("what, text", [
    ("graph", '{"n": %s, "edges": []}' % BIG_INT),
    ("graph", DEEP_ARRAY),
    ("problem", '{"type": "pattern", "targets": [[%s]]}' % BIG_INT),
], ids=["big-graph", "deep-graph", "big-problem"])
def test_unparsable_json_exits_two(files, tmp_path, what, text):
    r = _run_on_bad_input(files, tmp_path, what, text)
    assert r.returncode == 2
    assert r.stderr.startswith(f"error: {what} parse error: ")
    assert len(r.stderr.splitlines()) == 1


def _run_on_bad_input(files, tmp_path, what, text):
    """`canon` on a bad graph file or `move` with a bad problem file."""
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    if what == "graph":
        return run_cli("canon", "--graph", str(bad))
    return run_cli("move", "--config", files["mixed"], "--problem", str(bad))


@pytest.mark.parametrize("what, text", [
    ("graph", json.dumps({"n": 2, "edges": [list(range(100_000))]})),
    ("graph", '{"n": 2, "edges": [%s]}' % ("[" * 980 + "]" * 980)),
    ("problem", json.dumps({"type": list(range(100_000))})),
    ("graph", '{"n": 1%s, "edges": []}' % ("0" * 4000)),
], ids=["wide-edge", "deep-edge", "wide-problem-type", "huge-n"])
def test_echoed_input_values_are_bounded(files, tmp_path, what, text):
    # a message quoting the offending value stays one short line
    r = _run_on_bad_input(files, tmp_path, what, text)
    assert r.returncode == 2
    lines = r.stderr.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: ")
    assert len(lines[0].encode()) < 300


@pytest.mark.parametrize("text", [
    '{"format_version": %s}' % BIG_INT, DEEP_ARRAY,
], ids=["big", "deep"])
def test_unparsable_cache_entry_is_rebuilt(files, tmp_path, text):
    # nor does an entry the JSON parser would refuse
    _assert_cache_entry_changes_no_answer(files, tmp_path, text.encode())


@pytest.mark.parametrize("role, what", [
    ("graph", "graph"), ("config", "configuration"), ("problem", "problem"),
])
def test_non_utf8_input_file_exits_two(files, tmp_path, role, what):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff\xfe{}")
    paths = {"graph": files["k23"], "config": files["mixed"], "problem": files["gathering"]}
    paths[role] = str(bad)
    if role == "graph":
        args = ("canon", "--graph", paths["graph"])
    else:
        args = ("move", "--config", paths["config"], "--problem", paths["problem"])
    r = run_cli(*args)
    assert r.returncode == 2
    assert r.stderr.startswith(f"error: cannot read {what} file {bad}: ")
    assert len(r.stderr.splitlines()) == 1


def test_input_errors_exit_two(files, tmp_path):
    r = run_cli(
        "build", "--graph", files["k23"], "-k", "0",
        "--out", str(tmp_path / "h.json"),
    )
    assert r.returncode == 2
    assert r.stderr.startswith("error:")

    # the robot count is checked once, by the class enumeration, cache or not
    solve_k0 = ("solve", "--graph", files["k23"], "-k", "0", "--problem", files["gathering"])
    for cache in ((), ("--cache", str(tmp_path / "cache"))):
        r1 = run_cli(*solve_k0, *cache)
        assert r1.returncode == 2
        assert r1.stderr == "error: robot count must be at least 1, got 0\n"

    # no vertex can hold a robot
    empty = tmp_path / "empty.json"
    empty.write_text('{"n": 0, "edges": []}')
    for argv in (
        ("build", "--graph", str(empty), "-k", "1", "--out", str(tmp_path / "h0.json")),
        ("solve", "--graph", str(empty), "-k", "1", "--problem", files["gathering"]),
    ):
        r1 = run_cli(*argv)
        assert (r1.returncode, r1.stdout) == (2, "")
        assert r1.stderr == "error: robot count 1 needs a graph with at least one vertex\n"

    r2 = run_cli("canon", "--graph", str(tmp_path / "missing.json"))
    assert r2.returncode == 2
    assert "error:" in r2.stderr

    r3 = run_cli(
        "simulate", "--config", files["mixed"], "--problem", files["gathering"],
        "--adversary", "best",
    )
    assert r3.returncode == 2
    assert "unknown adversary" in r3.stderr

    r4 = run_cli("frobnicate")
    assert r4.returncode == 2


@pytest.mark.parametrize(
    "error, code",
    [(InternalError("robot conservation is violated"), 5),
     (BudgetExceededError("node cap exceeded"), 6)],
    ids=["internal", "budget"],
)
def test_engine_errors_map_to_exit_codes(files, tmp_path, capsys, monkeypatch, error, code):
    def failing_build(*args, **kwargs):
        raise error

    monkeypatch.setattr(cli, "build", failing_build)
    argv = ["build", "--graph", files["k23"], "-k", "2", "--out", str(tmp_path / "h.json")]
    assert cli.main(argv) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {error}\n"
