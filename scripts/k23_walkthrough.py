"""Walk through the complete-bipartite worked example end to end.

Builds the configuration hypergraph of K_{2,3} with two robots, solves
gathering on it, prints the plan, and simulates the worst-case FSYNC
execution from the mixed class (the simulator runs FSYNC only, whichever
scheduler the hypergraph was built for).  Everything printed here is
deterministic.
"""

import argparse

from oblot.graphs import Configuration, Graph
from oblot.hypergraph import build
from oblot.problems import ProblemSpec
from oblot.simulate import AdversaryStrategy, run_fsync
from oblot.solver import solution

K23 = Graph(n=5, edges=((0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4)), name="K23")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scheduler", choices=("fsync", "ssync"), default="fsync")
    args = parser.parse_args()

    h = build(K23, 2, scheduler=args.scheduler)
    print(f"graph: {K23.name}  k=2  scheduler={args.scheduler}")
    print(f"configuration classes: {len(h.configs)}")
    for i, entry in enumerate(h.configs):
        print(f"  C{i}: lambda={entry.rep.lam}")
    print(f"hyperarcs: {len(h.hyperarcs)}")
    for arc in h.hyperarcs:
        delta = ",".join(f"C{t}" for t in arc.delta)
        print(f"  C{arc.source} -> {{{delta}}}  ({len(arc.moves)} move(s))")

    spec = ProblemSpec(kind="gathering")
    sol = solution(h, spec)
    print("\ngathering:")
    print(f"  final classes: {sorted(sol.final)}")
    print(f"  solvable classes: {sorted(sol.solvable)}")
    for i in sorted(sol.entries):
        if i in sol.final:
            continue
        entry = sol.entries[i]
        print(f"  C{i}: distance {entry.distance}, move {entry.move.to_json_obj()}")

    mixed = Configuration(K23, (1, 0, 1, 0, 0))
    trace = run_fsync(mixed, spec, AdversaryStrategy(kind="worst"))
    print("\nworst-case FSYNC run from the mixed class:")
    for record in trace.rounds:
        print(f"  round {record.round}: lambda={record.lam} "
              f"decision={record.decision.status} -> {record.outcome_lam}")
    print(f"  status: {trace.status}")


if __name__ == "__main__":
    main()
