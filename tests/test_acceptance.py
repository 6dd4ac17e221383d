"""Acceptance gate for the package.

One test per criterion; ``pytest -v tests/test_acceptance.py`` prints one
pass/fail line for each.  The tests only use public package APIs plus the
independent brute-force oracles in ``bruteforce``.
"""

import json
import os
import random
import subprocess
import sys
import time

from oblot.canonical import canonical_form, occupied_orbits
from oblot.graphs import Configuration, Graph
from oblot.hypergraph import build, export
from oblot.moves import Move
from oblot.problems import ProblemSpec, resolve_final_set
from oblot.simulate import (
    AdversaryStrategy,
    enumerate_adversary_plays,
    run_fsync,
)
from oblot.solver import plan, solve

from bruteforce import (
    all_placements,
    arcs_by_source,
    color_isomorphic,
    configuration_graph,
    connected_graph_corpus,
    enumerate_moves,
    fsync_outcomes,
    game_solve,
    random_graph,
    ssync_outcomes,
)

K23 = Graph(n=5, edges=((0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4)), name="K23")
GATHER = ProblemSpec(kind="gathering")
WORST = AdversaryStrategy(kind="worst")

# class descriptors on K23 with two robots, by a concrete member each
MULT2 = (2, 0, 0, 0, 0)   # multiplicity on the two-vertex side
MULT3 = (0, 0, 2, 0, 0)   # multiplicity on the three-vertex side
DIST2 = (1, 1, 0, 0, 0)   # two robots spread over the two-vertex side
DIST3 = (0, 0, 1, 1, 0)   # two robots spread over the three-vertex side
MIXED = (1, 0, 1, 0, 0)   # one robot on each side


def _k23_indices(h):
    return {name: h.index_of(Configuration(K23, lam)) for name, lam in
            (("mult2", MULT2), ("mult3", MULT3), ("dist2", DIST2),
             ("dist3", DIST3), ("mixed", MIXED))}


def test_criterion_1():
    """K23 with k=2 under full activation: exactly 5 classes and exactly the
    9 hyperarcs of the worked instance, in under a second."""
    t0 = time.monotonic()
    h = build(K23, 2)
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    assert len(h.configs) == 5
    ix = _k23_indices(h)
    got = {(a.source, a.delta) for a in h.hyperarcs}
    expect = {
        (ix["mult2"], tuple(sorted((ix["mult3"], ix["dist3"])))),
        (ix["mult3"], tuple(sorted((ix["mult2"], ix["dist2"])))),
        (ix["dist2"], tuple(sorted((ix["mult3"], ix["dist3"])))),
        (ix["dist3"], tuple(sorted((ix["mult2"], ix["dist2"])))),
        (ix["mixed"], (ix["mult2"],)),
        (ix["mixed"], (ix["mult3"],)),
        (ix["mixed"], (ix["dist2"],)),
        (ix["mixed"], (ix["dist3"],)),
        (ix["mixed"], (ix["mixed"],)),
    }
    assert got == expect
    assert len(got) == 9


def test_criterion_2():
    """The mixed class: its self-loop hyperarc carries exactly 4 moves and its
    5 hyperarcs carry 8 moves in total."""
    h = build(K23, 2)
    mixed = h.index_of(Configuration(K23, MIXED))
    arcs = arcs_by_source(h)[mixed]
    assert len(arcs) == 5
    self_loop = [a for a in arcs if a.delta == (mixed,)]
    assert len(self_loop) == 1
    assert len(self_loop[0].moves) == 4
    assert sum(len(a.moves) for a in arcs) == 8


def test_criterion_3():
    """Gathering on K23, k=2: the two multiplicity classes are final, the
    mixed class is the only other solvable one, and its planned move keeps
    the lower occupied orbit in place while the higher one joins it."""
    h = build(K23, 2)
    ix = _k23_indices(h)
    fin = resolve_final_set(GATHER, h)
    assert fin == {ix["mult2"], ix["mult3"]}
    result = solve(h, fin)
    assert result.solvable == fin | {ix["mixed"]}
    entries = plan(h, fin, result)
    rep = h.configs[ix["mixed"]].rep
    r1, r2 = occupied_orbits(canonical_form(rep.graph, rep.lam).orbits, rep)
    assert r1 < r2
    e = entries[ix["mixed"]]
    assert e.distance == 1
    assert e.move == Move(assignments=((r1, None), (r2, r1)))


def test_criterion_4():
    """Simulation on K23, k=2: the mixed class gathers in exactly one round
    under the worst adversary; the spread two-side class is unsolvable and
    its robots never move."""
    trace = run_fsync(Configuration(K23, MIXED), GATHER, WORST)
    assert trace.status == "reached_final"
    steps = [r for r in trace.rounds if r.decision.status == "step"]
    assert len(steps) == 1
    assert trace.rounds[-1].decision.status == "final"

    stuck = run_fsync(Configuration(K23, DIST3), GATHER, WORST)
    assert stuck.status == "unsolvable"
    assert all(r.outcome_lam == r.lam for r in stuck.rounds)
    assert len(stuck.rounds) == 1


def test_criterion_5():
    """Worst-case optimality: over every connected graph with n <= 5, every
    k <= 3, gathering plus one seeded random explicit final set each,
    exhausting all adversary resolutions reaches a final class in exactly the
    plan distance in the worst play and never exceeds it; unsolvable classes
    never move.  Budget: five minutes."""
    t0 = time.monotonic()
    corpus = connected_graph_corpus(5)
    for gi, g in enumerate(corpus):
        for k in (1, 2, 3):
            h = build(g, k)
            rng = random.Random(10_000 + 31 * gi + k)
            placements = all_placements(g.n, k)
            targets = tuple(rng.sample(placements, rng.randint(1, min(3, len(placements)))))
            problems = (GATHER, ProblemSpec(kind="explicit", targets=targets))
            for spec in problems:
                fin = resolve_final_set(spec, h)
                result = solve(h, fin)
                entries = plan(h, fin, result)
                for i, entry in enumerate(h.configs):
                    if i in result.solvable:
                        if i in fin:
                            continue
                        summary = enumerate_adversary_plays(entry.rep, spec)
                        assert summary.all_reach_final
                        assert summary.max_rounds_used == entries[i].distance
                        assert 1 <= summary.min_rounds_used <= summary.max_rounds_used
                    else:
                        trace = run_fsync(entry.rep, spec, WORST)
                        assert trace.status == "unsolvable"
                        assert all(r.outcome_lam == r.lam for r in trace.rounds)
    assert time.monotonic() - t0 < 300.0


def test_criterion_6():
    """Canonization oracle: encoding equality coincides with brute-force
    permutation isomorphism on 200 random graphs with n <= 6 and on every
    configuration with n <= 5, k <= 3 over the connected corpus; the colored
    canonization induces the same equivalence as canonizing the uncolored
    pendant expansion."""
    rng = random.Random(60_601)
    sample = []
    for _ in range(200):
        n = rng.randrange(1, 7)
        sample.append(random_graph(rng, n, connected=False))
    zeros = {g: (0,) * g.n for g in sample}
    for g in sample:
        perm = list(range(g.n))
        rng.shuffle(perm)
        relabeled = Graph(
            n=g.n, edges=tuple((perm[a], perm[b]) for a, b in g.edges)
        )
        assert canonical_form(g, zeros[g]) == canonical_form(relabeled, zeros[g])
        assert color_isomorphic(g, zeros[g], relabeled, zeros[g])
    by_n: dict[int, list[Graph]] = {}
    for g in sample:
        by_n.setdefault(g.n, []).append(g)
    for group in by_n.values():
        for a, b in zip(group, group[1:]):
            same_enc = canonical_form(a, zeros[a]) == canonical_form(b, zeros[b])
            assert same_enc == color_isomorphic(a, zeros[a], b, zeros[b])

    for g in connected_graph_corpus(5):
        for k in (1, 2, 3):
            placements = all_placements(g.n, k)
            buckets: dict[bytes, list[tuple[int, ...]]] = {}
            pendant: dict[bytes, list[tuple[int, ...]]] = {}
            for lam in placements:
                c = Configuration(g, lam)
                buckets.setdefault(
                    canonical_form(c.graph, c.lam).encoding, []
                ).append(lam)
                gamma = configuration_graph(c)
                pendant.setdefault(
                    canonical_form(gamma, (0,) * gamma.n).encoding, []
                ).append(lam)
            for members in buckets.values():
                first = members[0]
                for other in members[1:]:
                    assert color_isomorphic(g, first, g, other)
            reps = [members[0] for members in buckets.values()]
            for i, a in enumerate(reps):
                for b in reps[i + 1:]:
                    assert not color_isomorphic(g, a, g, b)
            assert sorted(map(sorted, buckets.values())) == sorted(
                map(sorted, pendant.values())
            )


def test_criterion_7():
    """Solver oracle: solvability and distances agree with a brute-force
    minimax game solver on raw placements for the five named instances and
    50 seeded random ones; the classic small-instance facts hold."""
    c4 = Graph(n=4, edges=((0, 1), (1, 2), (2, 3), (0, 3)))
    p3 = Graph(n=3, edges=((0, 1), (1, 2)))
    p4 = Graph(n=4, edges=((0, 1), (1, 2), (2, 3)))
    k2 = Graph(n=2, edges=((0, 1),))
    instances = [(K23, 2), (c4, 2), (p3, 2), (p4, 2), (k2, 2)]
    rng = random.Random(70_707)
    while len(instances) < 55:
        n = rng.randrange(2, 6)
        instances.append((random_graph(rng, n), rng.randrange(1, 4)))

    for g, k in instances:
        h = build(g, k)
        fin = resolve_final_set(GATHER, h)
        result = solve(h, fin)
        entries = plan(h, fin, result)
        raw_solvable, raw_dist = game_solve(g, k, lambda lam: any(x == k for x in lam))
        for lam in all_placements(g.n, k):
            i = h.index_of(Configuration(g, lam))
            assert (lam in raw_solvable) == (i in result.solvable)
            if lam in raw_solvable:
                assert raw_dist[lam] == entries[i].distance

    def gather_report(g, lam):
        h = build(g, sum(lam))
        fin = resolve_final_set(GATHER, h)
        result = solve(h, fin)
        i = h.index_of(Configuration(g, lam))
        if i not in result.solvable:
            return None
        return plan(h, fin, result)[i].distance

    assert gather_report(k2, (1, 1)) is None
    assert gather_report(c4, (1, 0, 1, 0)) is None
    assert gather_report(p3, (1, 0, 1)) == 1


def test_criterion_8():
    """Adversarial activation: for the spread two-robot classes of K23 the
    relaxed scheduler adds exactly one outcome class to the single move;
    outcome sets under full activation are always contained in the relaxed
    ones; the relaxed build is deterministic."""
    mixed_form = canonical_form(K23, MIXED)
    for lam in (DIST2, DIST3):
        c = Configuration(K23, lam)
        p = canonical_form(c.graph, c.lam).orbits
        moves = enumerate_moves(c, p)
        assert len(moves) == 1
        f = fsync_outcomes(c, p, moves[0])
        s = ssync_outcomes(c, p, moves[0])
        assert f.forms < s.forms
        assert s.forms - f.forms == {mixed_form}

    for g in connected_graph_corpus(4):
        for k in (1, 2):
            for lam in all_placements(g.n, k):
                c = Configuration(g, lam)
                p = canonical_form(c.graph, c.lam).orbits
                for m in enumerate_moves(c, p):
                    assert fsync_outcomes(c, p, m).forms <= ssync_outcomes(c, p, m).forms

    assert export(build(K23, 2, "ssync"), "json") == export(build(K23, 2, "ssync"), "json")


def test_criterion_9(tmp_path):
    """Determinism: every command of the installed CLI produces byte-identical
    output across two independent runs (under different interpreter hash
    seeds)."""
    d = tmp_path

    def put(name, obj):
        path = d / name
        path.write_text(json.dumps(obj))
        return str(path)

    graph = put("g.json", K23.to_json_obj())
    config = put("c.json", {"graph": K23.to_json_obj(), "lambda": list(MIXED)})
    problem = put("p.json", {"type": "gathering"})

    def run(args, seed, tag):
        env = os.environ.copy()
        env["PYTHONHASHSEED"] = seed
        proc = subprocess.run(
            [sys.executable, "-m", "oblot", *args],
            capture_output=True,
            env=env,
        )
        assert proc.returncode == 0, proc.stderr.decode()
        extra = b""
        out = d / f"h_{tag}.json"
        if out.exists():
            extra = out.read_bytes()
        return proc.stdout + extra

    commands = {
        "canon": lambda tag: ["canon", "--graph", graph],
        "orbits": lambda tag: ["orbits", "--config", config],
        "build": lambda tag: [
            "build", "--graph", graph, "-k", "2", "--out", str(d / f"h_{tag}.json"),
        ],
        "solve": lambda tag: ["solve", "--graph", graph, "-k", "2", "--problem", problem],
        "move": lambda tag: ["move", "--config", config, "--problem", problem],
        "simulate": lambda tag: ["simulate", "--config", config, "--problem", problem],
        "simulate-random": lambda tag: [
            "simulate", "--config", config, "--problem", problem,
            "--adversary", "random:5",
        ],
    }
    for name, argv in commands.items():
        first = run(argv(f"{name}_a"), "0", f"{name}_a")
        second = run(argv(f"{name}_b"), "31337", f"{name}_b")
        assert first == second, f"{name} output differs between runs"
