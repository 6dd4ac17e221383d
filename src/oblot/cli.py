"""Command-line interface.

Subcommands: canon, orbits, build, solve, move, simulate.  All JSON output is
emitted with sorted keys and compact separators, one trailing newline, so
identical inputs give byte-identical outputs.  Exit codes: 0 success, 2 input
error, 3 unsolvable, 4 round budget exceeded, 5 internal error (a violated
invariant of the engine), 6 a computation budget exceeded or memory
exhausted.  Errors print one
``error: ...`` line on stderr and no traceback.

Each command is one process: it pays the interpreter's start and the
package's import (a compile from source where bytecode cannot be written)
before it answers.  :func:`entry`, the process entry point, then freezes the
imported heap and switches the cyclic garbage collector off, which is safe
because the engine makes no reference cycles.  :func:`main` leaves the
collector of an in-process caller as it found it.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import os
import stat
import sys
from pathlib import Path

from . import __version__
from .canonical import canonical_form, occupied_orbits
from .errors import BudgetExceededError, InputError, InternalError
from .graphs import Configuration, Graph, dump_json, load_configuration_file, load_graph_file
from .graphs import total_robots
from .hypergraph import FORMAT_VERSION, ConfigHypergraph, _dot_chunks, _json_chunks, build
from .problems import load_problem_file
from .solver import UNSOLVABLE, solution

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_UNSOLVABLE = 3
EXIT_MAX_ROUNDS = 4
EXIT_INTERNAL = 5
EXIT_BUDGET = 6


def _load_colored(args) -> tuple[Graph, tuple[int, ...]]:
    """Resolve the --graph/--config pair into (graph, coloring)."""
    if args.config is not None:
        c = load_configuration_file(args.config)
        return c.graph, c.lam
    g = load_graph_file(args.graph)
    return g, (0,) * g.n


def _cache_path(cache_dir: str | None, g: Graph, k: int, scheduler: str) -> Path | None:
    if not cache_dir:
        return None
    import hashlib  # here: the OpenSSL binding costs a few ms to load

    # The decorative name stays out of the key: equal graphs share one entry.
    shape = {"n": g.n, "edges": [list(e) for e in g.edges]}
    key_material = (
        dump_json(shape)
        + f"k={k};scheduler={scheduler};format={FORMAT_VERSION};version={__version__}"
    )
    digest = hashlib.sha256(key_material.encode()).hexdigest()
    return Path(cache_dir) / f"{digest}.json"


def _open_in_place(path, flags: int) -> int:
    """``open``'s own flags and mode, but without ``O_TRUNC``."""
    return os.open(path, flags & ~os.O_TRUNC, 0o666)


def _write(chunks, *paths) -> None:
    """Write ``chunks`` to each of ``paths`` as they come, never the whole text at once.

    A regular file is written over in place and cut at its final position on
    exit, an error's exit included, so it ends as a truncating ``open`` would
    leave it.  Freeing all of an existing file's blocks at open can stall for
    tens of milliseconds (ext4); the cut frees only what the new text does not
    cover.  Other files are not cut: ``ftruncate`` fails on ``/dev/null``,
    though it is seekable.
    """
    with contextlib.ExitStack() as stack:
        files = []
        for path in paths:
            f = stack.enter_context(open(path, "w", opener=_open_in_place))
            if stat.S_ISREG(os.fstat(f.fileno()).st_mode):
                stack.callback(f.truncate)
            files.append(f)
        for chunk in chunks:
            for f in files:
                f.write(chunk)


def _get_hypergraph(
    g: Graph, k: int, scheduler: str, cache_dir: str | None, *outs: str
) -> ConfigHypergraph:
    """Build the hypergraph, and write its JSON export to the files ``outs``
    and, when a cache directory is configured and holds no entry for the key
    yet, to that entry.  The export is generated once, in chunks.

    No command reads an entry: building costs what reading and checking one
    would, and an answer that never comes from a stored file cannot be a
    wrong stored one.  An entry is written through a temporary file in the
    same directory, so that no one ever sees a partial entry.
    """
    h = build(g, k, scheduler)
    path = _cache_path(cache_dir, g, k, scheduler)
    if path is not None and not path.exists():
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
        try:
            _write(_json_chunks(h), tmp, *outs)
            os.replace(tmp, path)
        finally:
            tmp.unlink(missing_ok=True)
    elif outs:
        _write(_json_chunks(h), *outs)
    return h


def cmd_canon(args) -> int:
    g, colors = _load_colored(args)
    form = canonical_form(g, colors)
    sys.stdout.write(dump_json({"encoding": form.hex(), "labeling": list(form.labeling)}))
    return EXIT_OK


def cmd_orbits(args) -> int:
    g, colors = _load_colored(args)
    c = Configuration(graph=g, lam=colors)
    p = canonical_form(g, colors).orbits
    obj = {
        "orbits": [list(o) for o in p.orbits],
        "ranks": list(p.ranks),
        "occupied": list(occupied_orbits(p, c)),
    }
    sys.stdout.write(dump_json(obj))
    return EXIT_OK


def cmd_build(args) -> int:
    g = load_graph_file(args.graph)
    h = _get_hypergraph(g, args.k, args.scheduler, args.cache, args.out)
    if args.dot is not None:
        _write(_dot_chunks(h), args.dot)
    sys.stdout.write(f"configs={len(h.configs)} hyperarcs={len(h.arc_delta)}\n")
    return EXIT_OK


def cmd_solve(args) -> int:
    g = load_graph_file(args.graph)
    spec = load_problem_file(args.problem)
    h = _get_hypergraph(g, args.k, "fsync", args.cache)
    sol = solution(h, spec)
    for i, config in enumerate(sol.h.configs):
        entry = sol.entries.get(i)
        line = {
            "index": i,
            "lambda": list(config.rep.lam),
            "final": i in sol.final,
            "solvable": entry is not None,
            "distance": entry.distance if entry is not None else None,
            "move": (
                entry.move.to_json_obj()
                if entry is not None and entry.move is not None
                else None
            ),
        }
        sys.stdout.write(dump_json(line))
    return EXIT_OK


def cmd_move(args) -> int:
    c = load_configuration_file(args.config)
    spec = load_problem_file(args.problem)
    h = _get_hypergraph(c.graph, total_robots(c), "fsync", args.cache)
    decision = solution(h, spec).decision(h.index_of(c))
    sys.stdout.write(dump_json(decision.to_json_obj()))
    return EXIT_UNSOLVABLE if decision.status == UNSOLVABLE else EXIT_OK


def cmd_simulate(args) -> int:
    # imported here, so that the other commands never load the simulator
    from .simulate import MAX_ROUNDS_EXCEEDED, parse_adversary, run_fsync

    c = load_configuration_file(args.config)
    spec = load_problem_file(args.problem)
    adversary = parse_adversary(args.adversary)
    trace = run_fsync(c, spec, adversary, max_rounds=args.max_rounds)
    sys.stdout.write(trace.to_json())
    if trace.status == UNSOLVABLE:
        return EXIT_UNSOLVABLE
    if trace.status == MAX_ROUNDS_EXCEEDED:
        return EXIT_MAX_ROUNDS
    return EXIT_OK


def _add_colored_input(sub: argparse.ArgumentParser) -> None:
    group = sub.add_mutually_exclusive_group(required=True)
    group.add_argument("--graph", help="graph JSON file (treated as unoccupied)")
    group.add_argument("--config", help="configuration JSON file")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oblot",
        description="Decision engine, optimal-move planner and execution "
        "simulator for anonymous oblivious robots on finite graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("canon", help="print canonical encoding and labeling")
    _add_colored_input(p)
    p.set_defaults(fn=cmd_canon)

    p = sub.add_parser("orbits", help="print automorphism orbits and ranks")
    _add_colored_input(p)
    p.set_defaults(fn=cmd_orbits)

    p = sub.add_parser("build", help="build the configuration hypergraph")
    p.add_argument("--graph", required=True, help="graph JSON file")
    p.add_argument("-k", type=int, required=True, help="number of robots")
    p.add_argument("--scheduler", choices=("fsync", "ssync"), default="fsync")
    p.add_argument("--out", required=True, help="output hypergraph JSON path")
    p.add_argument("--dot", help="optional DOT output path")
    p.add_argument("--cache", help="store hypergraph exports here, once per key; never read")
    p.set_defaults(fn=cmd_build)

    p = sub.add_parser("solve", help="solvability and plan for every class")
    p.add_argument("--graph", required=True, help="graph JSON file")
    p.add_argument("-k", type=int, required=True, help="number of robots")
    p.add_argument("--problem", required=True, help="problem JSON file")
    p.add_argument("--cache", help="store hypergraph exports here, once per key; never read")
    p.set_defaults(fn=cmd_solve)

    p = sub.add_parser("move", help="one round decision for a configuration")
    p.add_argument("--config", required=True, help="configuration JSON file")
    p.add_argument("--problem", required=True, help="problem JSON file")
    p.add_argument("--cache", help="store hypergraph exports here, once per key; never read")
    p.set_defaults(fn=cmd_move)

    p = sub.add_parser("simulate", help="run rounds against an adversary")
    p.add_argument("--config", required=True, help="configuration JSON file")
    p.add_argument("--problem", required=True, help="problem JSON file")
    p.add_argument(
        "--adversary", default="worst", help="worst | first | random:<seed>"
    )
    p.add_argument("--max-rounds", type=int, default=None, help="step budget")
    p.set_defaults(fn=cmd_simulate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (InputError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT
    except InternalError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INTERNAL
    except BudgetExceededError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_BUDGET
    except MemoryError:  # its own text is empty
        print("error: out of memory: the instance needs more memory than this process can get",
              file=sys.stderr)
        return EXIT_BUDGET


def entry() -> None:
    """Process entry point (the ``oblot`` script and ``python -m oblot``).

    One process answers one command and exits, and the engine makes no
    reference cycles, so the cyclic collector would free nothing: it would
    only walk the import-time heap, during the command and again at exit.
    So this freezes the heap built so far out of the collector's reach and
    then switches the collector off.  :func:`main` leaves an in-process
    caller's collector as it is.
    """
    gc.freeze()
    gc.disable()
    sys.exit(main())
