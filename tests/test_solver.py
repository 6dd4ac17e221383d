import itertools
import math
import pickle
import random

import pytest

from oblot.errors import InputError, InternalError
from oblot.graphs import Configuration, Graph, total_robots
from oblot.hypergraph import SCHEDULERS, build
from oblot.moves import Move
from oblot.problems import ProblemSpec, resolve_final_set
from oblot.solver import MoveDecision, PlanEntry, Solution, check, decide, plan, solution, solve

from bruteforce import (
    all_placements,
    arcs_by_source,
    config_isomorphic,
    connected_graph_corpus,
    cycle,
    decoded_moves,
    game_solve,
    grid,
    mtf_recursive,
    petersen,
    random_graph,
)
from bruteforce import decide as decide_oracle

GATHER = ProblemSpec(kind="gathering")
GMV = ProblemSpec(kind="geodesic_mutual_visibility")


def _gather_setup(g, k):
    h = build(g, k)
    fin = resolve_final_set(GATHER, h)
    result = solve(h, fin)
    return h, fin, result


def test_k23_gathering_solvable_set(k23):
    h, fin, result = _gather_setup(k23, 2)
    mixed = h.index_of(Configuration(k23, (1, 0, 1, 0, 0)))
    dist2 = h.index_of(Configuration(k23, (1, 1, 0, 0, 0)))
    dist3 = h.index_of(Configuration(k23, (0, 0, 1, 1, 0)))
    assert result.final == fin
    assert result.solvable == fin | {mixed}
    assert dist2 not in result.solvable
    assert dist3 not in result.solvable


def test_k23_gathering_plan(k23):
    h, fin, result = _gather_setup(k23, 2)
    entries = plan(h, fin, result)
    mixed = h.index_of(Configuration(k23, (1, 0, 1, 0, 0)))
    assert set(entries) == set(result.solvable)
    for i in fin:
        assert entries[i].distance == 0 and entries[i].move is None
    e = entries[mixed]
    assert e.distance == 1
    # nil on the three-side orbit wins the tie-break against moving both
    assert e.move == Move(assignments=((3, None), (4, 3)))
    # and the chosen arc lands on the three-side multiplicity
    mult3 = h.index_of(Configuration(k23, (0, 0, 2, 0, 0)))
    arcs = {decoded_moves(h, a): a.delta for a in arcs_by_source(h)[mixed]}
    chosen = next(d for ms, d in arcs.items() if e.move in ms)
    assert chosen == (mult3,) == e.delta


def test_all_final_means_all_distance_zero(k23):
    h = build(k23, 2)
    fin = frozenset(range(len(h.configs)))
    result = solve(h, fin)
    assert result.solvable == fin
    entries = plan(h, fin, result)
    assert all(e.distance == 0 and e.move is None for e in entries.values())


def test_c4_gathering_unsolvable_everywhere_but_final(c4_cycle):
    # both the antipodal and the adjacent placement are stuck by symmetry
    h, fin, result = _gather_setup(c4_cycle, 2)
    assert result.solvable == fin
    assert len(fin) == 1


def test_small_path_facts(p3, p4, k2):
    h, fin, result = _gather_setup(p3, 2)
    entries = plan(h, fin, result)
    ends = h.index_of(Configuration(p3, (1, 0, 1)))
    assert entries[ends].distance == 1

    h, fin, result = _gather_setup(k2, 2)
    assert h.index_of(Configuration(k2, (1, 1))) not in result.solvable

    h, fin, result = _gather_setup(p4, 2)
    entries = plan(h, fin, result)
    assert h.index_of(Configuration(p4, (1, 0, 0, 1))) not in result.solvable
    assert entries[h.index_of(Configuration(p4, (1, 1, 0, 0)))].distance == 1


def test_p5_endpoints_distance_two():
    p5 = Graph(n=5, edges=((0, 1), (1, 2), (2, 3), (3, 4)))
    h, fin, result = _gather_setup(p5, 2)
    entries = plan(h, fin, result)
    ends = h.index_of(Configuration(p5, (1, 0, 0, 0, 1)))
    assert entries[ends].distance == 2


def _assert_bellman(h, fin, result, entries):
    arcs = arcs_by_source(h)
    for i in range(len(h.configs)):
        usable = [
            a
            for a in arcs.get(i, ())
            if all(d in result.solvable for d in a.delta)
        ]
        if i in fin:
            assert entries[i].distance == 0
        elif i in result.solvable:
            best = min(1 + max(entries[d].distance for d in a.delta) for a in usable)
            assert entries[i].distance == best
        else:
            assert not usable


def test_distances_satisfy_bellman_optimality(k23):
    for g, k in ((k23, 2), (k23, 3)):
        h, fin, result = _gather_setup(g, k)
        entries = plan(h, fin, result)
        _assert_bellman(h, fin, result, entries)


def _raw_gather_final(k):
    return lambda lam: any(x == k for x in lam)


def test_agrees_with_raw_game_oracle_named(k23, c4_cycle, p3, p4, k2):
    for g in (k23, c4_cycle, p3, p4, k2):
        h, fin, result = _gather_setup(g, 2)
        entries = plan(h, fin, result)
        solvable_raw, dist_raw = game_solve(g, 2, _raw_gather_final(2))
        for lam in all_placements(g.n, 2):
            i = h.index_of(Configuration(g, lam))
            assert (lam in solvable_raw) == (i in result.solvable)
            if lam in solvable_raw:
                assert dist_raw[lam] == entries[i].distance


def test_agrees_with_raw_game_oracle_random():
    rng = random.Random(20414)
    for _ in range(12):
        n = rng.randrange(2, 6)
        k = rng.randrange(2, 4)
        g = random_graph(rng, n)
        targets = tuple(
            tuple(lam) for lam in rng.sample(all_placements(n, k), rng.randrange(1, 4))
        )
        spec = ProblemSpec(kind="explicit", targets=targets)
        h = build(g, k)
        fin = resolve_final_set(spec, h)
        result = solve(h, fin)
        entries = plan(h, fin, result)

        def raw_final(lam, g=g, targets=targets):
            return any(
                config_isomorphic(Configuration(g, lam), Configuration(g, t))
                for t in targets
            )

        solvable_raw, dist_raw = game_solve(g, k, raw_final)
        for lam in all_placements(n, k):
            i = h.index_of(Configuration(g, lam))
            assert (lam in solvable_raw) == (i in result.solvable)
            if lam in solvable_raw:
                assert dist_raw[lam] == entries[i].distance


def test_ssync_agrees_with_raw_game_oracle():
    # the per-robot SSYNC oracle judges the walk's SSYNC fold end to end
    for g in connected_graph_corpus(5):
        for k in (1, 2, 3):
            result = solution(build(g, k, "ssync"), GATHER)
            solvable_raw, dist_raw = game_solve(g, k, _raw_gather_final(k), scheduler="ssync")
            for lam in all_placements(g.n, k):
                i = result.h.index_of(Configuration(g, lam))
                assert (lam in solvable_raw) == (i in result.solvable)
                if lam in solvable_raw:
                    assert dist_raw[lam] == result.entries[i].distance


def test_matches_recursive_transcription_k23(k23):
    h, fin, result = _gather_setup(k23, 2)
    entries = plan(h, fin, result)
    for i in range(len(h.configs)):
        d, m = mtf_recursive(h, fin, result.solvable, i)
        if i in result.solvable:
            assert (d, m) == (entries[i].distance, entries[i].move)
        else:
            assert d == math.inf


def test_matches_recursive_transcription_corpus():
    cases = itertools.product(
        ("fsync", "ssync"), (GATHER, GMV), connected_graph_corpus(4), (1, 2)
    )
    for scheduler, spec, g, k in cases:
        h = build(g, k, scheduler)
        fin = resolve_final_set(spec, h)
        result = solve(h, fin)
        entries = plan(h, fin, result)
        by_source = arcs_by_source(h)
        for i in range(len(h.configs)):
            d, m = mtf_recursive(h, fin, result.solvable, i)
            if i not in result.solvable:
                assert d == math.inf
                continue
            assert (d, m) == (entries[i].distance, entries[i].move)
            # the planned Δ is the outcome set of the arc carrying the move
            arcs = [a for a in by_source.get(i, ()) if m in decoded_moves(h, a)]
            assert entries[i].delta == (arcs[0].delta if arcs else ())


def test_plan_deterministic(k23):
    h, fin, result = _gather_setup(k23, 2)
    assert plan(h, fin, result) == plan(h, fin, result)


def test_plan_rejects_foreign_solvability(k23):
    h, fin, result = _gather_setup(k23, 2)
    with pytest.raises(InputError, match="different final set"):
        plan(h, frozenset([0]), result)


def test_final_indices_validated(k23):
    h = build(k23, 2)
    with pytest.raises(InputError, match="out of range"):
        solve(h, {99})


def _decision(c, spec):
    sol = solution(build(c.graph, total_robots(c), "fsync"), spec)
    return sol.decision(sol.h.index_of(c))


def test_move_to_statuses(k23, c4_cycle):
    final = _decision(Configuration(k23, (0, 2, 0, 0, 0)), GATHER)
    assert final == MoveDecision(status="final")
    assert final.to_json_obj() == {"status": "final"}

    stuck = _decision(Configuration(c4_cycle, (1, 0, 1, 0)), GATHER)
    assert stuck == MoveDecision(status="unsolvable")
    assert stuck.to_json_obj() == {"status": "unsolvable"}

    step = _decision(Configuration(k23, (0, 1, 1, 0, 0)), GATHER)
    assert step.status == "step"
    assert step.distance == 1
    assert step.to_json_obj() == {
        "status": "step",
        "move": [[3, None], [4, 3]],
        "distance": 1,
    }


def test_decide_uses_class_of_argument(k23):
    h, fin, result = _gather_setup(k23, 2)
    entries = plan(h, fin, result)
    mixed = h.index_of(Configuration(k23, (0, 1, 0, 0, 1)))
    d = decide(h, fin, result, entries, mixed)
    assert d.status == "step" and d.distance == 1


# (graph, k, one pattern target) per instance of the decision-table checks
DECISION_INSTANCES = {
    "C10-k5": (cycle(10), 5, (1, 1, 1, 1, 1, 0, 0, 0, 0, 0)),
    "grid3x4-k3": (grid(3, 4), 3, (1, 1, 1) + (0,) * 9),
}


@pytest.mark.parametrize("scheduler", SCHEDULERS)
@pytest.mark.parametrize("name", DECISION_INSTANCES)
def test_decisions_match_the_oracle(name, scheduler):
    g, k, target = DECISION_INSTANCES[name]
    h = build(g, k, scheduler)
    statuses = set()
    for spec in (GATHER, GMV, ProblemSpec(kind="pattern", targets=(target,))):
        sol = solution(h, spec)
        thawed = pickle.loads(pickle.dumps(sol))
        assert thawed == sol and repr(thawed) == repr(sol)
        # equal but not the same objects take the equality fallback
        final, entries = frozenset(set(sol.final)), dict(sol.entries)
        assert final is not sol.final
        for i in range(-1, len(h.configs) + 1):
            want = decide_oracle(h, sol.final, sol, sol.entries, i)
            statuses.add(want.status)
            assert sol.decision(i) == want
            assert thawed.decision(i) == want
            assert decide(h, sol.final, sol, sol.entries, i) == want
            assert decide(h, final, sol, entries, i) == want
    assert statuses == {"final", "step", "unsolvable"}


def test_decide_rejects_a_foreign_final_set(k23):
    h, fin, result = _gather_setup(k23, 2)
    assert fin == {0, 1} and 2 not in result.solvable
    for i in range(len(h.configs)):
        with pytest.raises(InputError, match="different final set"):
            decide(h, frozenset({2}), result, result.entries, i)
    with pytest.raises(InputError, match="different final set"):
        decide(h, fin, result, {}, 0)
    # a hypergraph the solution was not solved on, though the index is in range
    sol = solution(build(cycle(10), 5), GATHER)
    assert sol.decision(50).status == "step"
    with pytest.raises(InputError, match="different hypergraph"):
        decide(build(cycle(4), 2), sol.final, sol, sol.entries, 50)
    assert decide(build(cycle(10), 5), sol.final, sol, sol.entries, 50) == sol.decision(50)


# The benchmark's build corpus, and grid 3x5 (k=4): 832 classes and 74 782
# hyperarcs, past the brute-force oracles' reach
CHECKED_INSTANCES = {
    "K23-k2-fsync": (Graph(n=5, edges=((0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4))), 2, "fsync"),
    "petersen-k3-fsync": (petersen(), 3, "fsync"),
    "C8-k4-fsync": (cycle(8), 4, "fsync"),
    "C10-k5-fsync": (cycle(10), 5, "fsync"),
    "grid3x3-k3-fsync": (grid(3, 3), 3, "fsync"),
    "grid3x4-k3-fsync": (grid(3, 4), 3, "fsync"),
    "grid3x4-k3-ssync": (grid(3, 4), 3, "ssync"),
    "grid4x4-k3-fsync": (grid(4, 4), 3, "fsync"),
    "grid3x5-k4-fsync": (grid(3, 5), 4, "fsync"),
}


@pytest.mark.parametrize("name", CHECKED_INSTANCES)
def test_check_certifies_the_plans(name):
    g, k, scheduler = CHECKED_INSTANCES[name]
    h = build(g, k, scheduler)
    for spec in (GATHER, GMV):
        check(solution(h, spec))


@pytest.mark.parametrize("fault", ["no move", "distance 0"])
def test_solution_refuses_a_step_without_a_planned_move(k23, fault):
    sol = solution(build(k23, 2), GATHER)
    (step,) = sol.solvable - sol.final
    e = sol.entries[step]
    broken = e._replace(move=None) if fault == "no move" else e._replace(distance=0)
    with pytest.raises(InternalError, match=f"non-final solvable class {step} has no planned move"):
        Solution(sol.h, sol.final, sol.solvable, {**sol.entries, step: broken})


def test_check_refuses_a_solvable_class_with_no_arc_into_the_solvable_set(k23):
    # K23's class of one robot on each of the two vertices of the smaller
    # side, marked solvable with a made-up entry: its one arc leads into
    # the unsolvable spread class (0, 0, 0, 1, 1)
    sol = solution(build(k23, 2), GATHER)
    h = sol.h
    pair = h.index_of(Configuration(k23, (1, 1, 0, 0, 0)))
    assert pair not in sol.solvable and [a.delta for a in h.hyperarcs if a.source == pair] == [(1, 4)]
    made_up = PlanEntry(9, h.move(pair, 1), (1, 4))
    mutant = Solution(h, sol.final, sol.solvable | {pair}, {**sol.entries, pair: made_up})
    with pytest.raises(InternalError, match=f"solvable class {pair} has no arc into the solvable set"):
        check(mutant)


def test_check_rejects_wrong_plans():
    sol = solution(build(cycle(10), 5), GATHER)
    h, final, solvable, entries = sol.h, sol.final, sol.solvable, sol.entries
    arcs = arcs_by_source(h)
    far = max(solvable, key=lambda i: (entries[i].distance, i))
    e = entries[far]
    # a planned move that is not the least one of its class's arcs into the
    # solvable set, though it also reaches it: a worse or a tied arc's
    # first move, or a later move of the planned arc
    i, other = next(
        (i, a) for i in sorted(solvable - final) for a in arcs[i]
        if solvable.issuperset(a.delta) and a.delta != entries[i].delta
    )
    other_entry = PlanEntry(1 + max(entries[d].distance for d in other.delta),
                            h.move(i, other.moves[0]), other.delta)
    j, planned = next((j, a) for j in sorted(solvable - final) for a in arcs[j]
                      if a.delta == entries[j].delta and len(a.moves) > 1)
    unsolvable = min(set(range(len(h.configs))) - solvable)
    u_arc = arcs[unsolvable][0]
    a_final = min(final)
    missed = {x: y for x, y in entries.items() if x != far}
    taken = {**entries, unsolvable: PlanEntry(9, h.move(unsolvable, u_arc.moves[0]), u_arc.delta)}
    mutants = {  # name: (solvable set, plan entries)
        "distance one too high": (solvable, {**entries, far: e._replace(distance=e.distance + 1)}),
        "distance one too low": (solvable, {**entries, far: e._replace(distance=e.distance - 1)}),
        "another arc": (solvable, {**entries, i: other_entry}),
        "a later move of the arc": (
            solvable, {**entries, j: entries[j]._replace(move=h.move(j, planned.moves[1]))}),
        "another Δ": (solvable, {**entries, far: e._replace(delta=other.delta)}),
        "a final class with a move": (solvable, {**entries, a_final: PlanEntry(0, e.move, ())}),
        "a class missed by the attractor": (solvable - {far}, missed),
        "an unsolvable class taken in": (solvable | {unsolvable}, taken),
        "an entry outside the solvable set": (solvable - {far}, entries),
    }
    for claimed, table in mutants.values():
        mutant = Solution(h, final, claimed, table)  # the constructor lets each through
        with pytest.raises(InternalError):
            check(mutant)
    check(sol)
