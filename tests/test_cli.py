import gc
import json
import os
import shutil
import stat
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import oblot.hypergraph
from oblot import canonical, cli
from oblot.errors import BudgetExceededError, InternalError
from oblot.graphs import Graph, dump_json
from oblot.hypergraph import build, export

from bruteforce import grid

K23 = Graph(n=5, edges=((0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4)), name="K23")


def run_python(*args, env_extra=None):
    env = os.environ.copy()
    env.setdefault("PYTHONHASHSEED", "0")
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env=env,
    )


def run_cli(*args, env_extra=None):
    return run_python("-m", "oblot", *args, env_extra=env_extra)


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


def _graph_file(tmp_path, graph) -> str:
    path = tmp_path / "g.json"
    path.write_text(dump_json(graph.to_json_obj()))
    return str(path)


@pytest.mark.parametrize("before", ["longer", "shorter", "equal"])
def test_build_rewrites_existing_files_to_fresh_bytes(tmp_path, capsys, before):
    # --out and --dot are written over in place and cut at their end; files
    # that held more, fewer or as many bytes end as a fresh write leaves them
    graph = _graph_file(tmp_path, grid(3, 4))
    fresh = tmp_path / "fresh.json", tmp_path / "fresh.dot"
    again = tmp_path / "h.json", tmp_path / "h.dot"
    assert cli.main(["build", "--graph", graph, "-k", "3",
                     "--out", str(fresh[0]), "--dot", str(fresh[1])]) == 0
    for new, old in zip(fresh, again):
        size = len(new.read_bytes())
        old.write_bytes(b"x" * {"longer": 2 * size, "shorter": size // 2, "equal": size}[before])
    assert cli.main(["build", "--graph", graph, "-k", "3",
                     "--out", str(again[0]), "--dot", str(again[1])]) == 0
    for new, old in zip(fresh, again):
        assert old.read_bytes() == new.read_bytes()
    assert capsys.readouterr().out == "configs=100 hyperarcs=2619\n" * 2


def test_build_out_dev_null(files, capsys):
    # a character device is written to and never truncated
    argv = ["build", "--graph", files["k23"], "-k", "2", "--out", os.devnull, "--dot", os.devnull]
    assert cli.main(argv) == 0
    assert capsys.readouterr() == ("configs=5 hyperarcs=9\n", "")


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs FIFOs")
def test_build_out_fifo_receives_the_whole_export(files, tmp_path, capsys):
    fifo = tmp_path / "h.fifo"
    os.mkfifo(fifo)
    received = []
    reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()), daemon=True)
    reader.start()
    assert cli.main(["build", "--graph", files["k23"], "-k", "2", "--out", str(fifo)]) == 0
    reader.join(timeout=60)
    assert received == [export(build(K23, 2), "json").encode()]


@pytest.mark.parametrize("before", ["missing", "longer"])
def test_error_mid_stream_leaves_the_prefix_written(tmp_path, capsys, monkeypatch, before):
    # as with a truncating open: the file holds the chunks written before the
    # error, the cache gets neither entry nor temporary file, and the exit
    # code is the error's
    chunks = list(cli._json_chunks(build(grid(3, 4), 3)))
    half = len(chunks) // 2

    def failing(h):
        yield from chunks[:half]
        raise InternalError("the export broke off")

    monkeypatch.setattr(cli, "_json_chunks", failing)
    out, cache = tmp_path / "h.json", tmp_path / "cache"
    if before == "longer":
        out.write_text("x" * (2 * len("".join(chunks))))
    argv = ["build", "--graph", _graph_file(tmp_path, grid(3, 4)), "-k", "3",
            "--out", str(out), "--cache", str(cache)]
    assert cli.main(argv) == 5
    assert capsys.readouterr() == ("", "error: the export broke off\n")
    assert out.read_text() == "".join(chunks[:half])
    assert list(cache.iterdir()) == []


def test_unopenable_path_leaves_the_earlier_paths_empty(tmp_path):
    first = tmp_path / "first.json"
    first.write_text("old contents")
    with pytest.raises(FileNotFoundError):
        cli._write(iter(["new contents"]), first, tmp_path / "missing" / "second.json")
    assert first.read_bytes() == b""


@pytest.mark.parametrize("umask", [0o022, 0o077, 0o002])
def test_new_file_mode_is_that_of_open(tmp_path, umask):
    plain, written = tmp_path / "plain", tmp_path / "written"
    old = os.umask(umask)
    try:
        with open(plain, "w"):
            pass
        cli._write(iter(["text"]), written)
    finally:
        os.umask(old)
    assert stat.S_IMODE(written.stat().st_mode) == stat.S_IMODE(plain.stat().st_mode)
    assert written.read_text() == "text"


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


def _k23_export_with_forged_deltas() -> bytes:
    # a well-formed entry whose every Δ is the final class 0: answered from,
    # it would put the unsolvable classes 2 and 4 one round from gathering
    doc = json.loads(export(build(K23, 2), "json"))
    moves: dict[int, list] = {}
    for arc in doc["hyperarcs"]:
        moves.setdefault(arc["source"], []).extend(arc["moves"])
    doc["hyperarcs"] = [{"source": s, "delta": [0], "moves": ms} for s, ms in sorted(moves.items())]
    return json.dumps(doc).encode()


# what a K23 (k=2) cache entry may hold instead of K23's export
PLANTED = {
    "corrupt": lambda: b"{corrupt",
    "p3-export": lambda: export(build(Graph(n=3, edges=((0, 1), (1, 2))), 2), "json").encode(),
    "forged-deltas": _k23_export_with_forged_deltas,
    "non-utf8": lambda: b"\xff\xfe{}",
    "big-int": lambda: ('{"format_version": %s}' % BIG_INT).encode(),
    "deep-array": lambda: DEEP_ARRAY.encode(),
}


@pytest.fixture(scope="module")
def uncached_answers(files, tmp_path_factory):
    """Each command that takes ``--cache``, with its stdout and exit code
    when run without one."""
    out = tmp_path_factory.mktemp("uncached") / "h.json"
    queries = (
        ("build", "--graph", files["k23"], "-k", "2", "--out", str(out)),
        ("solve", "--graph", files["k23"], "-k", "2", "--problem", files["gathering"]),
        ("move", "--config", files["mixed"], "--problem", files["gathering"]),
        ("move", "--config", files["two_side"], "--problem", files["gathering"]),
    )
    answers = []
    for args in queries:
        r = run_cli(*args)
        answers.append((args, (r.stdout, r.returncode)))
    return answers


@pytest.mark.parametrize("planted", PLANTED)
def test_cache_entry_changes_no_answer(uncached_answers, tmp_path, planted):
    # no command reads an entry, so whatever K23's entry holds, every answer
    # is built as without a cache, and the entry is left as it is
    content = PLANTED[planted]()
    cache = tmp_path / "cache"
    cache.mkdir()
    entry = cli._cache_path(str(cache), K23, 2, "fsync")
    entry.write_bytes(content)
    for args, answer in uncached_answers:
        r = run_cli(*args, "--cache", str(cache))
        assert (r.stdout, r.returncode) == answer, (args, r.stderr)
    assert list(cache.iterdir()) == [entry]
    assert entry.read_bytes() == content


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


@pytest.mark.parametrize(
    "start, targets, message",
    [
        ([1, 0, 0, 1], [[2, 0, 0, 0], [-1, 0, 0, 3]], "target 1: robot counts must be nonnegative"),
        ([1, 0, 0, 1], [[1, 1, 0]], "target 0: length mismatch: lambda has 3 entries for 4 vertices"),
        ([1, 0, 0, 1], [[1, 1, 1, 0]], "target 0: sums to 3, expected k=2"),
        ([-1, 0, 0, 3], [[2, 0, 0, 0]], "robot counts must be nonnegative"),
        ([1, 1, 0], [[2, 0, 0, 0]], "length mismatch: lambda has 3 entries for 4 vertices"),
    ],
    ids=["negative-target", "short-target", "target-sum", "negative-start", "short-start"],
)
def test_a_bad_pattern_target_is_named_by_its_index(tmp_path, capsys, start, targets, message):
    # a start's errors keep their words; a target's name the target
    p4 = {"n": 4, "edges": [[0, 1], [1, 2], [2, 3]]}
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"graph": p4, "lambda": start}))
    problem = tmp_path / "pattern.json"
    problem.write_text(json.dumps({"type": "pattern", "targets": targets}))
    assert cli.main(["move", "--config", str(config), "--problem", str(problem)]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {message}\n")


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


def test_memory_exhaustion_exits_six(files, tmp_path, capsys, monkeypatch):
    # as a build past the host's memory ends, say 2147483646 robots on P2,
    # whose placements pass the int32 width: one error line, no traceback
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(cli, "build", exhausted)
    argv = ["build", "--graph", files["k23"], "-k", "2", "--out", str(tmp_path / "h.json")]
    assert cli.main(argv) == 6
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "error: out of memory: the instance needs more memory than this process can get"
    ]


def test_canonizer_deeper_than_max_search_depth_exits_six(tmp_path):
    # refinement never splits an edgeless graph, so the search of G
    # individualizes one vertex per level, n − 1 in all: n = 988 is the
    # least n refused, with one error line, never a traceback
    graph = tmp_path / "edgeless.json"
    graph.write_text(json.dumps({"n": 988, "edges": []}))
    r = run_cli("canon", "--graph", str(graph))
    assert (r.returncode, r.stdout) == (6, "")
    assert r.stderr.splitlines() == [
        "error: the canonizer's search on n = 988 vertices is deeper than MAX_SEARCH_DEPTH = 986"
    ]


def test_build_deeper_than_max_search_depth_exits_six(tmp_path, capsys, monkeypatch):
    # the search of an edgeless G on 8 vertices reaches depth 7
    monkeypatch.setattr(canonical, "MAX_SEARCH_DEPTH", 6)
    graph = tmp_path / "edgeless.json"
    graph.write_text(json.dumps({"n": 8, "edges": []}))
    assert cli.main(["build", "--graph", str(graph), "-k", "1", "--out", os.devnull]) == 6
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (
        "", "error: the canonizer's search on n = 8 vertices is deeper than MAX_SEARCH_DEPTH = 6\n"
    )


@pytest.mark.parametrize("command", ["build", "move"])
def test_instances_past_the_int32_layout_exit_six(files, tmp_path, capsys, command):
    # 10**22 robots on K23, and 100000 robots on one end of P4: both have
    # 2**31 placements or more, refused before any enumeration starts
    if command == "build":
        argv = ["build", "--graph", files["k23"], "-k", str(10**22), "--out", str(tmp_path / "h.json")]
    else:
        config = tmp_path / "heavy.json"
        p4 = {"n": 4, "edges": [[0, 1], [1, 2], [2, 3]]}
        config.write_text(json.dumps({"graph": p4, "lambda": [100000, 0, 0, 0]}))
        argv = ["move", "--config", str(config), "--problem", files["gathering"]]
    start = time.perf_counter()
    code = cli.main(argv)
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert (code, captured.out) == (6, "")
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("error: ") and "int32" in captured.err
    assert "Traceback" not in captured.err
    assert elapsed < 1


@pytest.mark.parametrize("command", ["canon", "orbits", "move"])
def test_a_robot_count_past_the_encoding_exits_two(files, tmp_path, capsys, command):
    # 2**32 robots on one end of P3: the canonical encoding writes each count
    # in four bytes, so the count is bad input, refused before any search
    config = tmp_path / "heavy.json"
    p3 = {"n": 3, "edges": [[0, 1], [1, 2]]}
    config.write_text(json.dumps({"graph": p3, "lambda": [2**32, 0, 0]}))
    argv = [command, "--config", str(config)]
    if command == "move":
        argv += ["--problem", files["gathering"]]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "error: robot counts must be below 2**32, the canonical encoding's limit, got 4294967296"
    ]


def _garbage_after(fn) -> int:
    """The objects that only the cyclic collector can free once ``fn()`` has
    run with the collector off."""
    gc.collect()
    gc.disable()
    try:
        fn()
        return gc.collect()
    finally:
        gc.enable()


# (argv, exit code); "{name}" is a path from ``files`` or, for out, dot,
# cache and missing, one in the test's own directory
COMMANDS = {
    "canon": (["canon", "--config", "{mixed}"], 0),
    "orbits": (["orbits", "--graph", "{k23}"], 0),
    "build": (["build", "--graph", "{k23}", "-k", "2", "--out", "{out}", "--dot", "{dot}",
               "--cache", "{cache}"], 0),
    "solve": (["solve", "--graph", "{k23}", "-k", "2", "--problem", "{gathering}"], 0),
    "move": (["move", "--config", "{mixed}", "--problem", "{gathering}"], 0),
    "simulate-worst": (["simulate", "--config", "{spread}", "--problem", "{gathering}"], 0),
    "simulate-first": (["simulate", "--config", "{spread}", "--problem", "{gathering}",
                        "--adversary", "first"], 0),
    "simulate-random": (["simulate", "--config", "{spread}", "--problem", "{gathering}",
                         "--adversary", "random:9"], 0),
    "input-error": (["move", "--config", "{mixed}", "--problem", "{missing}"], 2),
    "unsolvable": (["move", "--config", "{antipodal}", "--problem", "{gathering}"], 3),
    "max-rounds": (["simulate", "--config", "{p5_ends}", "--problem", "{gathering}",
                    "--max-rounds", "1"], 4),
    "internal": (["build", "--graph", "{k23}", "-k", "2", "--out", "{out}"], 5),
    "budget": (["build", "--graph", "{k23}", "-k", "2", "--out", "{out}"], 6),
}


@pytest.mark.parametrize("command", COMMANDS)
def test_commands_need_no_cyclic_collector(files, tmp_path, monkeypatch, command):
    # the entry point switches the collector off; every command must leave
    # no more for it than parsing the command line does (argparse's parser
    # holds reference cycles of its own)
    template, code = COMMANDS[command]
    paths = {**files, "out": tmp_path / "h.json", "dot": tmp_path / "h.dot",
             "cache": tmp_path / "cache", "missing": tmp_path / "missing.json"}
    argv = [arg.format(**paths) for arg in template]
    error = {5: InternalError, 6: BudgetExceededError}.get(code)
    if error is not None:
        def failing_build(*args, **kwargs):
            raise error("the engine gave up")
        monkeypatch.setattr(cli, "build", failing_build)
    parser_only = _garbage_after(lambda: cli.build_parser().parse_args(argv))
    codes = []
    assert _garbage_after(lambda: codes.append(cli.main(argv))) <= parser_only
    assert codes == [code]


def test_only_the_entry_point_switches_the_collector_off(files):
    argv = ["move", "--config", files["mixed"], "--problem", files["gathering"]]
    state = (gc.isenabled(), gc.get_freeze_count())
    assert cli.main(argv) == 0
    assert (gc.isenabled(), gc.get_freeze_count()) == state
    # a `python -m oblot` process ends with the collector off and the heap
    # it imported frozen
    driver = (
        "import atexit, gc, runpy, sys\n"
        "atexit.register(lambda: print(gc.isenabled(), gc.get_freeze_count() > 0, file=sys.stderr))\n"
        "runpy.run_module('oblot', run_name='__main__', alter_sys=True)\n"
    )
    r = run_python("-c", driver, *argv)
    assert (r.returncode, r.stderr) == (0, "False True\n")
    assert r.stdout == run_cli(*argv).stdout
