"""The command line's error contract, driven in process by generated argv
and documents: every subcommand exits 0, 2, 3, 4 or 6; a failure other than
3 (unsolvable) and 4 (round budget) prints exactly one ``error:`` line; and
nothing but argparse's usage exit, ``SystemExit(2)``, leaves ``cli.main``.

Each example writes a graph, a configuration and a problem document and
runs one subcommand on them.  About half of the examples are valid
throughout; each of the others spoils one thing:

* a field of a document: wrong JSON types, booleans for ints, floats, NaN
  and the infinities, negative and huge counts, unknown and missing fields,
  λ and targets of the wrong length, and targets of every problem kind;
* the text of a document: cut short, another JSON value, deep nesting,
  duplicate keys or bytes that are not UTF-8;
* argv: ``-k``, ``--scheduler``, ``--adversary`` and ``--max-rounds`` as
  strings, and file arguments that are missing files or directories.

The huge counts are those at or past a refusal: 2**31 − 1 and 2**31, the
int32 layout's width (``build`` refuses more placements, and more robots),
and 2**32 and more, the canonical encoding's limit.  Counts between the
small ones and the width would walk up to 2**31 placements, which no budget
refuses yet, and a vertex count short of 2**32 would canonize a graph that
large.

Tier-1 runs the ``suite`` profile of ``tests/conftest.py``.  CI runs this
file again with the larger ``fuzz`` profile::

    python -m pytest tests/test_cli_fuzz.py --hypothesis-profile=fuzz
"""

import contextlib
import io
import itertools
import json
import os
import warnings

from hypothesis import HealthCheck, event, example, given, settings
from hypothesis import strategies as st

from oblot import cli

# values of the wrong JSON type for a field: booleans, floats (NaN and the
# infinities among them), strings, null and objects; and lists
NOT_A_LIST = st.one_of(
    st.booleans(), st.none(), st.floats(), st.text(max_size=4),
    st.dictionaries(st.text(max_size=2), st.integers(0, 2), max_size=1),
)
WRONG = st.one_of(NOT_A_LIST, st.lists(st.integers(0, 2), max_size=2))
# negative counts, and counts at or past the layout's width or the encoding's limit
ODD_COUNT = st.one_of(WRONG, st.sampled_from([-1, -(2**40), 2**31 - 1, 2**31, 2**32, 10**22]))
# a vertex count with no placement: none, negative, or past the encoding's limit
ODD_N = st.one_of(WRONG, st.sampled_from([0, -1, 2**32, 10**22]))
KINDS = ["gathering", "pattern", "explicit", "geodesic_mutual_visibility", "geodesic-mutual-visibility"]
NAMES = ("graph.json", "config.json", "problem.json")
SPOILS = ["nothing"] * 4 + ["graph", "configuration", "problem", "text", "argv"]


def _placement(draw, n, k):
    """k robots on n vertices, as a list of counts."""
    lam = [0] * n
    for v in draw(st.lists(st.integers(0, n - 1), min_size=k, max_size=k)):
        lam[v] += 1
    return lam


def _spoil_graph(draw, g):
    what = draw(st.sampled_from(["n", "edges", "edge", "name", "unknown", "drop"]))
    if what == "n":
        g["n"] = draw(ODD_N)
    elif what == "edges":
        g["edges"] = draw(NOT_A_LIST)
    elif what == "edge":  # a duplicate, or a pair that is not one
        at = draw(st.integers(0, len(g["edges"])))
        edge = g["edges"][at - 1] if g["edges"] and draw(st.booleans()) else draw(st.one_of(
            WRONG,
            st.lists(st.integers(-1, g["n"]), max_size=3),  # out of range, or of the wrong length
            st.integers(0, g["n"] - 1).map(lambda u: [u, u]),
            st.tuples(ODD_COUNT, st.integers(0, 1)).map(list),
        ))
        g["edges"].insert(at, edge)
    elif what == "name":
        g["name"] = draw(st.one_of(st.text(max_size=4), WRONG))
    elif what == "unknown":
        g[draw(st.text(max_size=3))] = draw(WRONG)
    else:
        del g[draw(st.sampled_from(["n", "edges"]))]


def _spoil_counts(draw, lam):
    """``lam`` with an odd entry, one entry more or less, or not a list."""
    what = draw(st.sampled_from(["entry", "longer", "shorter", "not a list"]))
    if what == "entry" and lam:
        lam[draw(st.integers(0, len(lam) - 1))] = draw(ODD_COUNT)
    elif what == "longer":
        lam.append(draw(st.one_of(st.integers(0, 2), ODD_COUNT)))
    elif what == "shorter":
        lam = lam[:-1]
    elif what == "not a list":
        lam = draw(NOT_A_LIST)
    return lam


@st.composite
def documents(draw, spoil):
    """The graph, configuration and problem documents as objects, and the
    configuration's robot count before any spoiling."""
    n = draw(st.integers(1, 5))
    pairs = list(itertools.combinations(range(n), 2))
    path = [(v, v + 1) for v in range(n - 1)]  # far apart robots need rounds to gather
    edges = draw(st.one_of(st.just(path), st.lists(st.sampled_from(pairs), unique=True))) if pairs else []
    graph = {"n": n, "edges": [list(e) for e in edges]}
    k = draw(st.integers(1, 4))
    inline = {"n": n, "edges": [list(e) for e in edges]}
    config = {"graph": draw(st.sampled_from([inline, NAMES[0]])), "lambda": _placement(draw, n, k)}
    kind = draw(st.sampled_from(KINDS))
    problem = {"type": kind}
    field = "targets" if kind == "pattern" else "final"
    if kind in ("pattern", "explicit"):
        problem[field] = [_placement(draw, n, k) for _ in range(draw(st.integers(0, 2)))]
    if spoil == "graph":
        _spoil_graph(draw, draw(st.sampled_from([graph, inline])))
    elif spoil == "configuration":
        what = draw(st.sampled_from(["lambda", "graph", "unknown", "drop"]))
        if what == "lambda":
            config["lambda"] = _spoil_counts(draw, config["lambda"])
        elif what == "graph":
            config["graph"] = draw(st.one_of(st.sampled_from(["missing.json", "."]), WRONG))
        elif what == "unknown":
            config[draw(st.text(max_size=3))] = draw(WRONG)
        else:
            del config[draw(st.sampled_from(["graph", "lambda"]))]
    elif spoil == "problem":
        what = draw(st.sampled_from(["type", "targets", "target", "unknown", "drop"]))
        if what == "type":
            problem["type"] = draw(st.one_of(st.sampled_from(KINDS + ["scattering", ""]), WRONG))
        elif what == "targets":
            problem[draw(st.sampled_from(["targets", "final"]))] = draw(
                st.one_of(WRONG, st.lists(st.lists(st.integers(0, k), max_size=6), max_size=2))
            )
        elif what == "target" and problem.get(field):
            targets = problem[field]
            at = draw(st.integers(0, len(targets) - 1))
            targets[at] = _spoil_counts(draw, targets[at])
        elif what == "unknown":
            problem[draw(st.text(max_size=3))] = draw(WRONG)
        else:
            problem.clear()
    return graph, config, problem, k


def _broken_text(draw, text):
    """``text``, a JSON document, broken."""
    what = draw(st.sampled_from(["cut", "other", "deep", "duplicate", "not utf-8"]))
    if what == "cut":
        return text[:draw(st.integers(0, len(text) - 1))].encode()
    if what == "other":
        return draw(st.sampled_from(["", "[]", "null", "3", '"x"', "{", "{}", "NaN", "1" * 5000])).encode()
    if what == "deep":
        return ("[" * 100_000 + "]" * 100_000).encode()
    if what == "duplicate":  # every key twice; the last one counts
        return ("{" + text[1:-1] + "," + text[1:-1] + "}").encode()
    return text.encode()[:-1] + b"\xff"


def _arg(draw, spoil, valid, odd):
    return draw(st.one_of(valid, odd) if spoil == "argv" else valid)


K = st.sampled_from(["-1", "0", "7", str(2**31 - 1), str(2**31), str(10**22), "1.5", "x", "", " 3", "0x10"])
ADVERSARY = st.one_of(
    st.sampled_from(["random:", "random:x", "random:1.5", "random: 2", "Worst", "random", ""]),
    st.integers().map(lambda seed: f"random:{seed}"),
    st.text(max_size=8),
)
MAX_ROUNDS = st.sampled_from(["0", "-2", "", "x", "1.0", str(10**22)])


@st.composite
def invocations(draw):
    """(argv, the three documents' bytes).  argv names each document,
    output and cache by a name in the test's directory, or ``os.devnull``."""
    spoil = draw(st.sampled_from(SPOILS))
    docs = draw(documents(spoil))
    k = docs[-1]
    texts = [json.dumps(doc).encode() for doc in docs[:3]]
    if spoil == "text":
        at = draw(st.integers(0, 2))
        texts[at] = _broken_text(draw, texts[at].decode())
    # the first commands come up most often
    command = draw(st.sampled_from(["simulate", "move", "solve", "build", "orbits", "canon"]))

    def path(name):  # the document, a missing file or a directory
        return _arg(draw, spoil, st.just(name), st.sampled_from(["missing.json", "."]))

    argv = [command]
    if command in ("canon", "orbits"):
        flags = [draw(st.sampled_from(["--graph", "--config"]))]
        flags = _arg(draw, spoil, st.just(flags), st.sampled_from([[], ["--graph", "--config"]]))
        for flag in flags:
            argv += [flag, path(NAMES[0] if flag == "--graph" else NAMES[1])]
    elif command in ("build", "solve"):
        argv += ["--graph", path(NAMES[0]), "-k", _arg(draw, spoil, st.just(str(k)), K)]
        if command == "build":
            argv += ["--out", _arg(draw, spoil, st.sampled_from(["h.json", os.devnull]),
                                   st.sampled_from([".", "no/h.json"]))]
            if draw(st.booleans()):
                argv += ["--dot", _arg(draw, spoil, st.just("h.dot"), st.just("."))]
            if draw(st.booleans()):
                argv += ["--scheduler", _arg(draw, spoil, st.sampled_from(["fsync", "ssync"]),
                                             st.sampled_from(["SSYNC", ""]))]
        else:
            argv += ["--problem", path(NAMES[2])]
    else:
        argv += ["--config", path(NAMES[1]), "--problem", path(NAMES[2])]
        if command == "simulate":
            if draw(st.booleans()):
                argv += ["--adversary", _arg(draw, spoil, st.one_of(
                    st.sampled_from(["worst", "first"]), st.integers(0, 9).map(lambda s: f"random:{s}")
                ), ADVERSARY)]
            if draw(st.booleans()):
                argv += ["--max-rounds", _arg(draw, spoil, st.sampled_from(["1", "2"]), MAX_ROUNDS)]
    if command in ("build", "solve", "move") and draw(st.booleans()):
        argv += ["--cache", _arg(draw, spoil, st.just("cache"), st.just(NAMES[0]))]  # a file, not a directory
    return argv, texts


def _absolute(argv, d):
    """argv with every file argument but ``os.devnull`` under the directory d."""
    files = ("--graph", "--config", "--problem", "--out", "--dot", "--cache")
    return [str(d / arg) if before in files and arg != os.devnull else arg
            for before, arg in zip([None, *argv], argv)]


P5 = {"n": 5, "edges": [[0, 1], [1, 2], [2, 3], [3, 4]]}
GATHERING = {"type": "gathering"}


@settings(suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(invocations())
# the ends of P5 gather in two rounds, past a budget of one (exit 4)
@example((["simulate", "--config", NAMES[1], "--problem", NAMES[2], "--max-rounds", "1"],
          [json.dumps(doc).encode() for doc in (P5, {"graph": P5, "lambda": [1, 0, 0, 0, 1]}, GATHERING)]))
def test_every_subcommand_keeps_the_error_contract(tmp_path, invocation):
    argv, texts = invocation
    for name, text in zip(NAMES, texts):
        (tmp_path / name).write_bytes(text)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), warnings.catch_warnings():
        warnings.simplefilter("ignore")  # an unknown field's warning
        try:
            code = cli.main(_absolute(argv, tmp_path))
        except SystemExit as e:  # argparse's usage error, and nothing else
            assert e.code == 2, (argv, err.getvalue())
            event(f"{argv[0]}: usage error")
            return
    event(f"{argv[0]}: exit {code}")
    assert code in (0, 2, 3, 4, 6), (argv, texts, err.getvalue())
    errors = [line for line in err.getvalue().splitlines() if line.startswith("error:")]
    if code in (0, 3, 4):
        assert errors == [], (argv, err.getvalue())
    else:
        assert err.getvalue() == errors[0] + "\n", (argv, texts, err.getvalue())
