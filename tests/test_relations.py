"""Metamorphic relations of the build, on instances of 7 to 16 vertices.

The permutation-sweep oracles in ``bruteforce`` stop at 5 or 6 vertices.
These relations need no oracle (Chen et al., "Metamorphic Testing: A Review
of Challenges and Opportunities", ACM Computing Surveys 51(1), 2018), so
they reach instances where faults of a faster build may first show:

- relabeling: renaming G's vertices leaves the export's hyperarcs unchanged,
  since classes are ordered by encoding and orbits named by canonical
  labels; only ``configs`` and ``graph`` change.  K_n and Q_d are here for
  their large groups, which the class walk applies: K_n is its own
  relabeling, so on it the relation only rebuilds;
- scheduler monotonicity: FSYNC and SSYNC builds name the same moves, and
  each move's FSYNC Δ lies inside its SSYNC Δ, since full activation is one
  of the SSYNC adversary's choices;
- attractor monotonicity: so for every problem the SSYNC solvable set lies
  inside the FSYNC one, and no SSYNC distance is smaller.
"""

import random

import pytest

from oblot.hypergraph import SCHEDULERS, build, export
from oblot.problems import ProblemSpec
from oblot.solver import solution

from bruteforce import complete, cycle, grid, hypercube, relabeled


INSTANCES = {
    "grid3x4-k3": (grid(3, 4), 3),
    "C10-k5": (cycle(10), 5),
    "grid2x5-k4": (grid(2, 5), 4),
    "K7-k4": (complete(7), 4),
    "Q4-k3": (hypercube(4), 3),
}


@pytest.fixture(scope="module", params=sorted(INSTANCES))
def instance(request):
    """(G, k, its build under each scheduler), built once for both relations."""
    g, k = INSTANCES[request.param]
    return g, k, {scheduler: build(g, k, scheduler) for scheduler in SCHEDULERS}


def _hyperarcs_text(h) -> str:
    """The bytes of the export's ``"hyperarcs"`` array, key included."""
    doc = export(h, "json")
    start = doc.index('"hyperarcs":[')
    return doc[start : doc.index('],"k":', start) + 1]


def test_relabeling_leaves_the_exported_hyperarcs_unchanged(instance):
    g, k, builds = instance
    relabeled_g = relabeled(random.Random(g.n * 100 + k), g)
    is_complete = len(g.edges) == g.n * (g.n - 1) // 2
    assert (relabeled_g == g) == is_complete
    for scheduler, h in builds.items():
        other = build(relabeled_g, k, scheduler)
        moved = [e.rep.lam for e in other.configs] != [e.rep.lam for e in h.configs]
        assert moved != is_complete
        mine, theirs = _hyperarcs_text(h), _hyperarcs_text(other)
        if mine != theirs:  # not an assert: pytest would diff two long texts for minutes
            first = next((i for i, (a, b) in enumerate(zip(mine, theirs)) if a != b), None)
            pytest.fail(f"{scheduler}: the relabeled build's hyperarcs differ from byte {first}")


def test_each_moves_fsync_outcomes_lie_inside_its_ssync_outcomes(instance):
    _, _, builds = instance

    def delta_per_move(h) -> dict[tuple[int, int], frozenset[int]]:
        return {(a.source, j): frozenset(a.delta) for a in h.hyperarcs for j in a.moves}

    fsync, ssync = delta_per_move(builds["fsync"]), delta_per_move(builds["ssync"])
    assert fsync.keys() == ssync.keys()
    assert all(delta <= ssync[move] for move, delta in fsync.items())
    # the relation is not vacuous: SSYNC adds outcomes to some move
    assert any(delta < ssync[move] for move, delta in fsync.items())


@pytest.mark.parametrize("kind", ["gathering", "geodesic_mutual_visibility"])
def test_ssync_solves_no_class_sooner_than_fsync(instance, kind):
    _, _, builds = instance
    # class indices agree: the class walk does not depend on the scheduler
    reps = {s: [e.rep.lam for e in h.configs] for s, h in builds.items()}
    assert reps["fsync"] == reps["ssync"]
    fsync, ssync = (solution(builds[s], ProblemSpec(kind=kind)) for s in ("fsync", "ssync"))
    assert ssync.final == fsync.final
    assert ssync.solvable <= fsync.solvable
    assert all(ssync.entries[i].distance >= fsync.entries[i].distance for i in ssync.solvable)
