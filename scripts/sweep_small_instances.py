"""Exhaustive small-instance sweep.

Enumerates every connected graph up to a vertex budget, builds the
configuration hypergraph for each robot count, certifies its hyperarc
layout with ``hypergraph.check``, solves gathering, certifies the plan with
``solver.check``, and checks the planner's distances against
exhaustive adversary-play enumeration: every play from a solvable class
must reach a final class, the worst play in exactly the planned number of
rounds.  One worst-adversary run from each such class must reach a final
class in exactly that many rounds too.  Prints one summary line per
(graph, k) pair, a line per failed check, and a closing tally; exits 1 if
any check failed.
"""

import argparse
import itertools
import sys
import time

from oblot.canonical import canonical_form
from oblot.errors import InternalError
from oblot.graphs import Graph
from oblot import hypergraph
from oblot.hypergraph import build
from oblot.problems import ProblemSpec
from oblot.simulate import REACHED_FINAL, AdversaryStrategy, enumerate_adversary_plays, run_fsync
from oblot.solver import check, solution


def _connected(g: Graph) -> bool:
    seen = {0}
    frontier = [0]
    while frontier:
        v = frontier.pop()
        for w in g.neighbors[v]:
            if w not in seen:
                seen.add(w)
                frontier.append(w)
    return len(seen) == g.n


def connected_graph_corpus(max_n: int) -> list[Graph]:
    """All connected graphs up to isomorphism, one per canonical class."""
    corpus = []
    for n in range(1, max_n + 1):
        seen = set()
        pairs = list(itertools.combinations(range(n), 2))
        for mask in range(1 << len(pairs)):
            edges = tuple(p for i, p in enumerate(pairs) if mask >> i & 1)
            g = Graph(n=n, edges=edges, name=f"n{n}_m{mask}")
            if not _connected(g):
                continue
            key = canonical_form(g, (0,) * n).encoding
            if key in seen:
                continue
            seen.add(key)
            corpus.append(g)
    return corpus


def sweep_one(g: Graph, k: int) -> tuple[int, int, int, list[str]]:
    """Returns (classes, solvable, starts checked, failed checks)."""
    spec = ProblemSpec(kind="gathering")
    worst = AdversaryStrategy(kind="worst")
    sol = solution(build(g, k), spec)
    checked = 0
    failures = []
    try:
        hypergraph.check(sol.h)
    except InternalError as e:
        failures.append(f"layout check: {e}")
    try:
        check(sol)
    except InternalError as e:
        failures.append(f"plan check: {e}")
    for i, entry in enumerate(sol.h.configs):
        if i not in sol.solvable or i in sol.final:
            continue
        distance = sol.entries[i].distance
        summary = enumerate_adversary_plays(entry.rep, spec)
        if not summary.all_reach_final or summary.max_rounds_used != distance:
            failures.append(f"class {i}: plays {summary} against distance {distance}")
        trace = run_fsync(entry.rep, spec, worst)
        if trace.status != REACHED_FINAL or len(trace.rounds) - 1 != distance:
            failures.append(f"class {i}: worst run {trace.status} after "
                            f"{len(trace.rounds) - 1} steps, distance {distance}")
        checked += 1
    return len(sol.h.configs), len(sol.solvable), checked, failures


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-n", type=int, default=5, help="vertex budget")
    parser.add_argument("--max-k", type=int, default=3, help="robot budget")
    args = parser.parse_args()

    t0 = time.monotonic()
    total = ok = 0
    for g in connected_graph_corpus(args.max_n):
        for k in range(1, args.max_k + 1):
            classes, solvable, checked, failures = sweep_one(g, k)
            total += 1
            ok += not failures
            print(f"{g.name:>14}  k={k}  classes={classes:3d}  "
                  f"solvable={solvable:3d}  plays-checked={checked:3d}")
            for failure in failures:
                print(f"{'':>14}  FAILED {failure}")
    elapsed = time.monotonic() - t0
    print(f"\n{ok}/{total} instances verified in {elapsed:.1f}s")
    return 0 if ok == total else 1


if __name__ == "__main__":
    sys.exit(main())
