import bisect
import copy
import functools
import gc
import hashlib
import json
import operator
import random
import warnings
from array import array
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oblot.canonical
import oblot.hypergraph
from oblot import cli
from oblot.canonical import CanonicalForm, canonical_form, occupied_orbits
from oblot.errors import BudgetExceededError, InputError, InternalError
from oblot.graphs import Configuration, Graph, dump_json, load_configuration, load_graph
from oblot.hypergraph import (
    SCHEDULERS,
    ConfigHypergraph,
    build,
    check,
    enumerate_configurations,
    export,
)
from oblot.moves import raw_fsync_outcomes, raw_ssync_outcomes
from oblot.problems import load_problem, resolve_final_set
from oblot.simulate import AdversaryStrategy, enumerate_adversary_plays, run_fsync
from oblot.solver import solve

from bruteforce import (
    all_placements,
    arcs_by_source,
    as_brute_move,
    brute_automorphisms,
    brute_orbits,
    complete,
    config_isomorphic,
    connected_graph_corpus,
    cycle,
    decoded_moves,
    enumerate_moves,
    export_obj,
    fsync_outcomes,
    grid,
    hypercube,
    index_by_encoding,
    move_sort_key,
    petersen,
    raw_move_outcomes,
    raw_moves,
    raw_ssync_move_outcomes,
    relabeled,
    ssync_outcomes,
    without_transport,
)


@pytest.fixture(scope="module")
def k23_h(k23):
    return build(k23, 2)


def test_k23_configuration_classes(k23_h):
    assert [e.rep.lam for e in k23_h.configs] == [
        (0, 2, 0, 0, 0),
        (0, 0, 0, 0, 2),
        (1, 1, 0, 0, 0),
        (0, 1, 0, 0, 1),
        (0, 0, 0, 1, 1),
    ]


def test_k23_hyperarc_structure(k23, k23_h):
    mult2 = k23_h.index_of(Configuration(k23, (2, 0, 0, 0, 0)))
    mult3 = k23_h.index_of(Configuration(k23, (0, 0, 2, 0, 0)))
    dist2 = k23_h.index_of(Configuration(k23, (1, 1, 0, 0, 0)))
    mixed = k23_h.index_of(Configuration(k23, (1, 0, 1, 0, 0)))
    dist3 = k23_h.index_of(Configuration(k23, (0, 0, 1, 1, 0)))
    arcs = {(a.source, a.delta): len(a.moves) for a in k23_h.hyperarcs}
    assert arcs == {
        (mult2, (mult3, dist3)): 1,
        (mult3, (mult2, dist2)): 1,
        (dist2, (mult3, dist3)): 1,
        (mixed, (mult2,)): 1,
        (mixed, (mult3,)): 1,
        (mixed, (dist2,)): 1,
        (mixed, (mixed,)): 4,
        (mixed, (dist3,)): 1,
        (dist3, (mult2, dist2)): 1,
    }


def test_k23_ssync_strictly_richer(k23, k23_h):
    hs = build(k23, 2, "ssync")
    assert len(hs.hyperarcs) == 12
    fsync_pairs = {(a.source, d) for a in k23_h.hyperarcs for d in a.delta}
    ssync_pairs = {(a.source, d) for a in hs.hyperarcs for d in a.delta}
    assert fsync_pairs < ssync_pairs


def test_c4_three_classes(c4_cycle):
    h = build(c4_cycle, 2)
    assert len(h.configs) == 3


def test_k2_single_robot(k2):
    h = build(k2, 1)
    assert len(h.configs) == 1
    assert [(a.source, a.delta) for a in h.hyperarcs] == [(0, (0,))]


def test_class_counts_match_bruteforce():
    for g in connected_graph_corpus(4):
        for k in (1, 2):
            entries = enumerate_configurations(g, k)[0]
            reps: list[tuple[int, ...]] = []
            for lam in all_placements(g.n, k):
                if not any(
                    config_isomorphic(Configuration(g, lam), Configuration(g, r))
                    for r in reps
                ):
                    reps.append(lam)
            assert len(entries) == len(reps)


def test_representative_is_lex_min_member():
    for g in connected_graph_corpus(4):
        buckets: dict[bytes, list[tuple[int, ...]]] = {}
        for lam in all_placements(g.n, 2):
            buckets.setdefault(canonical_form(g, lam).encoding, []).append(lam)
        for e in enumerate_configurations(g, 2)[0]:
            assert e.rep.lam == min(buckets[e.form.encoding])


def test_every_move_in_exactly_one_arc(k23_h):
    for i, entry in enumerate(k23_h.configs):
        p = canonical_form(entry.rep.graph, entry.rep.lam).orbits
        all_moves = list(enumerate_moves(entry.rep, p))
        arc_moves = [
            m for a in arcs_by_source(k23_h).get(i, ()) for m in decoded_moves(k23_h, a)
        ]
        assert sorted(move_sort_key(m) for m in arc_moves) == sorted(
            move_sort_key(m) for m in all_moves
        )
        assert len(set(arc_moves)) == len(arc_moves)


def test_recomputed_outcomes_reproduce_delta(k23_h):
    index = index_by_encoding(k23_h)
    for a in k23_h.hyperarcs:
        entry = k23_h.configs[a.source]
        p = canonical_form(entry.rep.graph, entry.rep.lam).orbits
        for m in decoded_moves(k23_h, a):
            oset = fsync_outcomes(entry.rep, p, m)
            got = tuple(sorted(index[enc] for enc in oset.encodings))
            assert got == a.delta


def test_moves_within_arc_sorted(k23_h):
    for a in k23_h.hyperarcs:
        keys = [move_sort_key(m) for m in decoded_moves(k23_h, a)]
        assert keys == sorted(keys)


@pytest.mark.parametrize("scheduler", SCHEDULERS)
def test_move_indices_name_the_option_product(scheduler):
    # stored indices against enumerate_moves, and each Δ of the walk against
    # the one-move path, move by move
    outcomes = raw_ssync_outcomes if scheduler == "ssync" else raw_fsync_outcomes
    for g in connected_graph_corpus(5):
        for k in (1, 2, 3):
            h = build(g, k, scheduler)
            by_source = arcs_by_source(h)
            for i, entry in enumerate(h.configs):
                p = entry.form.orbits
                moves = enumerate_moves(entry.rep, p)
                arcs = by_source.get(i, ())
                indices = sorted(j for a in arcs for j in a.moves)
                assert indices == list(range(1, len(moves) + 1))
                assert tuple(h.move(i, j) for j in indices) == moves
                for a in arcs:
                    assert list(a.moves) == sorted(set(a.moves)) and 0 not in a.moves
                    for j in a.moves:
                        raw = outcomes(entry.rep, p, h.move(i, j))
                        assert tuple(sorted({h.class_of[lam] for lam in raw})) == a.delta


def test_build_deterministic(k23):
    a = export(build(k23, 2), "json")
    b = export(build(k23, 2), "json")
    assert a == b


def test_export_ends_with_newline_and_is_compact(k23_h):
    doc = export(k23_h, "json")
    assert doc.endswith("\n")
    assert ": " not in doc


def test_export_unknown_format(k23_h):
    with pytest.raises(InputError, match="unknown export format"):
        export(k23_h, "yaml")


def test_dot_output(k23_h):
    dot = export(k23_h, "dot")
    assert dot.count("shape=ellipse") == len(k23_h.configs)
    assert dot.count("shape=point") == len(k23_h.hyperarcs)
    arrows = sum(1 + len(a.delta) for a in k23_h.hyperarcs)
    assert dot.count("->") == arrows
    assert dot.startswith("digraph")


def test_index_of_foreign_configuration(k23_h, p3):
    with pytest.raises(InputError, match="does not belong"):
        k23_h.index_of(Configuration(p3, (1, 1, 0)))
    with pytest.raises(InputError, match="does not belong"):
        k23_h.index_of(Configuration(k23_h.graph, (1, 1, 1, 0, 0)))
    # same vertex count, another graph
    p5 = Graph(n=5, edges=((0, 1), (1, 2), (2, 3), (3, 4)))
    with pytest.raises(InputError, match="does not belong"):
        k23_h.index_of(Configuration(p5, (1, 0, 0, 0, 1)))
    # negative counts, summing to k
    with pytest.raises(InputError, match="does not belong"):
        k23_h.index_of(Configuration(k23_h.graph, (-1, 0, 0, 0, 3)))
    # an equal graph that is another object is accepted
    twin = Graph(n=5, edges=k23_h.graph.edges)
    assert k23_h.index_of(Configuration(twin, (0, 2, 0, 0, 0))) == 0


def test_enumerate_configurations_rejects_zero_robots(k2):
    with pytest.raises(InputError, match="at least 1"):
        enumerate_configurations(k2, 0)


def test_enumerate_configurations_rejects_robots_without_vertices():
    # no vertex can hold a robot; canonizing the empty graph stays fine
    empty = Graph(n=0, edges=())
    assert canonical_form(empty, ()).orbits.orbits == ()
    for k in (1, 3):
        with pytest.raises(InputError, match="needs a graph with at least one vertex"):
            enumerate_configurations(empty, k)
        with pytest.raises(InputError, match="needs a graph with at least one vertex"):
            build(empty, k, "ssync")


def test_pipeline_leaves_no_reference_cycles():
    # with the collector off, a build, its final set, solve, export, and the
    # simulator's runs and play enumerations from every class leave nothing
    # that only the cyclic collector can free
    gathering = load_problem('{"type": "gathering"}')
    adversaries = [AdversaryStrategy("worst"), AdversaryStrategy("first"),
                   AdversaryStrategy("random", 5)]
    gc.collect()
    gc.disable()
    try:
        for g, k in ((cycle(10), 5), (grid(3, 4), 3)):
            for scheduler in SCHEDULERS:
                h = build(g, k, scheduler)
                sol = solve(h, resolve_final_set(gathering, h))
                export(h, "json")
                export(h, "dot")
                if scheduler == "fsync":
                    for i, entry in enumerate(h.configs):
                        for adversary in adversaries:
                            run_fsync(entry.rep, gathering, adversary)
                        if i in sol.solvable:
                            enumerate_adversary_plays(entry.rep, gathering)
                del h, sol
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_build_rejects_unknown_scheduler(k2):
    with pytest.raises(InputError, match="unknown scheduler"):
        build(k2, 1, "async")


@pytest.mark.parametrize(
    "load, text",
    [
        (load_graph, '{"n": true, "edges": []}'),
        (load_graph, '{"n": 2, "edges": [[0, true]]}'),
        (load_configuration, '{"graph": {"n": 2, "edges": [[0, 1]]}, "lambda": [true, 1]}'),
        (load_problem, '{"type": "pattern", "targets": [[true, 1]]}'),
        (load_problem, '{"type": "explicit", "final": [[true, 1]]}'),
    ],
    ids=["graph-n", "graph-edge", "config-lambda", "pattern-targets", "explicit-final"],
)
def test_loaders_reject_json_booleans(load, text):
    # JSON true/false are Python ints; every integer field must refuse them
    with pytest.raises(InputError):
        load(text)


# Valid documents for each loader; the fuzz test below mutates them.  Short
# strings keep a configuration's graph path from naming a real device file.
FUZZ_SEEDS = {
    "graph": (load_graph, {"name": "P3", "n": 3, "edges": [[0, 1], [1, 2]]}),
    "configuration": (load_configuration, {
        "graph": {"n": 3, "edges": [[0, 1], [1, 2]]}, "lambda": [1, 0, 1]}),
    "problem": (load_problem, {"type": "explicit", "final": [[0, 2, 0], [1, 0, 1]]}),
}

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 4) | st.integers() | st.floats()
    | st.text(max_size=4) | st.sampled_from(["gathering", "pattern"]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(
        st.sampled_from(["n", "edges", "lambda", "type", "final"])
        | st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)


def _paths(node, path=()):
    """The path of every node of a JSON value, the root's ``()`` first."""
    yield path
    children = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, child in children:
        yield from _paths(child, (*path, key))


def _mutated(data, doc):
    """A copy of the JSON document ``doc`` with one node below the root, drawn
    uniformly, replaced or deleted."""
    doc = copy.deepcopy(doc)
    paths = list(_paths(doc))[1:]
    if paths:
        *to_parent, key = data.draw(st.sampled_from(paths))
        parent = functools.reduce(operator.getitem, to_parent, doc)
        if data.draw(st.booleans()):
            del parent[key]
        else:
            parent[key] = data.draw(JSON_VALUES)
    return doc


@pytest.mark.parametrize("what", sorted(FUZZ_SEEDS))
@settings(max_examples=100)
@given(data=st.data())
def test_loaders_raise_only_input_errors(what, data):
    load, doc = FUZZ_SEEDS[what]
    for _ in range(data.draw(st.integers(1, 3))):
        doc = _mutated(data, doc)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            load(json.dumps(doc))
        except InputError:
            pass


@given(st.integers(1, 6), st.integers(1, 3), st.sampled_from(SCHEDULERS), st.data())
def test_export_round_trip_property(n, k, scheduler, data):
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    g = Graph(n=n, edges=tuple(p for p in pairs if data.draw(st.booleans())), name="G")
    h = build(g, k, scheduler)
    doc = export(h, "json")
    assert export(build(g, k, scheduler), "json") == doc
    obj = json.loads(doc)
    assert (obj["k"], obj["scheduler"]) == (k, scheduler)
    assert [tuple(c["lambda"]) for c in obj["configs"]] == [e.rep.lam for e in h.configs]
    assert [h.class_of[e.rep.lam] for e in h.configs] == list(range(len(h.configs)))
    assert obj["hyperarcs"] == [
        {"source": a.source, "delta": list(a.delta), "moves": [m.to_json_obj() for m in decoded_moves(h, a)]}
        for a in h.hyperarcs
    ]


# bit b of an edge mask keeps the b-th pair (i, j), i < j, in lexicographic order
K23_MASK = 0b1111110
# a triangle with a pendant vertex: at k=3 a class occupies three orbits
PAW_MASK = 0b101011
# K4 minus an edge: at k=2 two sources share a Δ of several classes
DIAMOND_MASK = 0b011111


def _masked_graph(n, mask, name=None):
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    return Graph(n=n, edges=tuple(p for b, p in enumerate(pairs) if mask >> b & 1), name=name)


@pytest.mark.parametrize("scheduler", SCHEDULERS)
def test_export_examples_have_their_properties(scheduler):
    paw = build(_masked_graph(4, PAW_MASK), 3, scheduler)
    assert max(len(occupied_orbits(e.form.orbits, e.rep)) for e in paw.configs) == 3
    diamond = build(_masked_graph(4, DIAMOND_MASK), 2, scheduler)
    sources: dict = {}
    for a in diamond.hyperarcs:
        if len(a.delta) > 1:
            sources.setdefault(a.delta, set()).add(a.source)
    assert max(map(len, sources.values())) >= 2


@given(
    st.integers(1, 6),
    st.integers(0, 2**15 - 1),
    st.integers(1, 3),
    st.sampled_from(SCHEDULERS),
    st.none() | st.text(),
)
@example(1, 0, 2, "fsync", None)
@example(5, K23_MASK, 2, "fsync", 'a "quoted" name')
@example(5, K23_MASK, 2, "ssync", "back\\slash\\")
@example(5, K23_MASK, 3, "fsync", "K₂,₃ — é")
@example(5, K23_MASK, 2, "ssync", "lone \ud800 surrogate")
@example(5, K23_MASK, 2, "fsync", '"hyperarcs":[]')
@example(4, PAW_MASK, 3, "fsync", None)
@example(4, PAW_MASK, 3, "ssync", None)
@example(4, DIAMOND_MASK, 2, "fsync", None)
@example(4, DIAMOND_MASK, 2, "ssync", None)
def test_export_text_matches_the_tree_oracle(n, mask, k, scheduler, name):
    h = build(_masked_graph(n, mask, name), k, scheduler)
    assert export(h, "json") == dump_json(export_obj(h))


def test_arc_sources_cover_only_movable_classes():
    # a class appears as an arc source exactly when it has at least one move
    g = Graph(n=1, edges=())
    # single vertex, robots cannot move anywhere: no arcs at all
    h = build(g, 2)
    assert len(h.configs) == 1
    assert len(h.hyperarcs) == 0 and list(h.hyperarcs) == []


def test_deltas_are_sorted_unique(k23_h):
    for a in k23_h.hyperarcs:
        assert list(a.delta) == sorted(set(a.delta))
    keys = [(a.source, a.delta) for a in k23_h.hyperarcs]
    assert keys == sorted(keys)
    assert len(set(keys)) == len(keys)


@pytest.mark.parametrize("g,k,scheduler", [(cycle(10), 5, "fsync"), (grid(3, 4), 3, "ssync")])
def test_arcs_with_equal_deltas_share_one_tuple(g, k, scheduler):
    h = build(g, k, scheduler)
    assert len({id(a.delta) for a in h.hyperarcs}) == len({a.delta for a in h.hyperarcs})


def test_build_agrees_with_independent_class_walk(p4):
    # walk every raw placement, group arcs by brute-level data on a second graph
    h = build(p4, 2)
    index = index_by_encoding(h)
    seen_pairs = set()
    for lam in all_placements(4, 2):
        c = Configuration(p4, lam)
        i = h.index_of(c)
        p = canonical_form(c.graph, c.lam).orbits
        for m in enumerate_moves(c, p):
            oset = fsync_outcomes(c, p, m)
            delta = tuple(sorted(index[enc] for enc in oset.encodings))
            seen_pairs.add((i, delta))
    assert seen_pairs == {(a.source, a.delta) for a in h.hyperarcs}


@pytest.mark.parametrize(
    "graph, k, scheduler",
    [
        ("k23", 2, "fsync"), ("k23", 2, "ssync"), ("p4", 3, "fsync"),
        pytest.param(cycle(8), 4, "fsync", id="C8-4-fsync"),
        pytest.param(complete(6), 3, "fsync", id="K6-3-fsync"),
        pytest.param(hypercube(3), 3, "ssync", id="Q3-3-ssync"),
        pytest.param(petersen(), 3, "fsync", id="petersen-3-fsync"),
    ],
)
def test_build_searches_each_placement_once(request, monkeypatch, graph, k, scheduler):
    # one search for G, then one per class on its least placement; the other
    # members come from the orbit walk, and a class's orbits from its form
    g = request.getfixturevalue(graph) if isinstance(graph, str) else graph
    searched = []
    run = oblot.canonical._Canonizer.run

    def counting(self):
        searched.append(self.colors)
        return run(self)

    monkeypatch.setattr(oblot.canonical._Canonizer, "run", counting)
    h = build(g, k, scheduler)
    assert len(searched) == 1 + len(h.configs)
    assert searched == [(0,) * g.n, *sorted(e.rep.lam for e in h.configs)]


def _assert_transporters(h):
    # every placement's transporter is an automorphism of G that carries its
    # class representative onto it, and the identity on the representative
    g = h.graph
    edges = {frozenset(e) for e in g.edges}
    for lam, i in h.class_of.items():
        pi = h.transporter(lam)
        assert sorted(pi) == list(range(g.n))
        assert {frozenset((pi[a], pi[b])) for a, b in g.edges} == edges
        rep = h.configs[i].rep.lam
        assert tuple(rep[pi[v]] for v in range(g.n)) == lam
        if lam == rep:
            assert pi == tuple(range(g.n))


def test_walk_refuses_generators_that_miss_part_of_aut_g(monkeypatch, tmp_path, capsys):
    # the rotations are half of Aut(C8): with the search of G reporting only
    # the rotation, the first chiral founder's mirror image founded a class
    # before it, and the walk never reached the founder from there
    rotation = tuple((v + 1) % 8 for v in range(8))

    def reporting(g, coloring, seeds=()):
        form = canonical_form(g, coloring, seeds=seeds)
        if any(coloring):
            return form
        return CanonicalForm(form.encoding, form.labeling, generators=(rotation,))

    monkeypatch.setattr(oblot.hypergraph, "canonical_form", reporting)
    with pytest.raises(InternalError, match="G's generators miss some of Aut"):
        build(cycle(8), 4)
    graph = tmp_path / "c8.json"
    graph.write_text(dump_json(cycle(8).to_json_obj()))
    argv = ["build", "--graph", str(graph), "-k", "4", "--out", str(tmp_path / "h.json")]
    assert cli.main(argv) == 5
    assert "G's generators miss some of Aut" in capsys.readouterr().err


def test_transporter_carries_the_representative_onto_each_member():
    # every placement of every class, on each graph and on a relabelling
    rng = random.Random(3)
    for g0 in connected_graph_corpus(5):
        for g in (g0, relabeled(rng, g0)):
            for k in (1, 2, 3):
                _assert_transporters(build(g, k))


def test_transporter_refuses_what_its_table_cannot_carry(k23_h):
    # with no entry, a member besides its representative reads the
    # identity, which carries only a representative (the damaged indices
    # are in test_simulate.py)
    member = next(iter(k23_h.transport))
    with pytest.raises(InternalError, match="does not carry the representative"):
        without_transport(k23_h).transporter(member)
    with pytest.raises(InputError, match="does not belong"):
        k23_h.transporter((0, 0, 0, 0, 3))


def test_transporters_are_interned():
    # each distinct automorphism once, the identity first: no more entries
    # than |Aut(G)|, and exactly 2n on the cycles, whose largest classes
    # have a member for every element of the dihedral group
    for g in connected_graph_corpus(5):
        order = len(brute_automorphisms(g, (0,) * g.n))
        for k in (1, 2, 3):
            table = build(g, k).transporters
            assert table[0] == tuple(range(g.n))
            assert len(set(table)) == len(table) <= order
    assert len(enumerate_configurations(cycle(10), 5)[3]) == 20
    assert len(enumerate_configurations(cycle(14), 7)[3]) == 28


def test_class_table_matches_canonizer():
    # the fast path (class table) against its slow counterpart (canonizer)
    for g in connected_graph_corpus(5):
        for k in (1, 2, 3):
            h = build(g, k)
            index = index_by_encoding(h)
            placements = all_placements(g.n, k)
            assert set(h.class_of) == set(placements)
            for lam in placements:
                assert h.class_of[lam] == index[canonical_form(g, lam).encoding]


@pytest.mark.parametrize("scheduler, oracle", [("fsync", fsync_outcomes), ("ssync", ssync_outcomes)])
def test_build_deltas_match_canonizer_oracle(scheduler, oracle):
    for g in connected_graph_corpus(5):
        for k in (1, 2, 3):
            h = build(g, k, scheduler)
            index = index_by_encoding(h)
            got = {(a.source, m, a.delta) for a in h.hyperarcs for m in decoded_moves(h, a)}
            want = set()
            for i, entry in enumerate(h.configs):
                p = canonical_form(entry.rep.graph, entry.rep.lam).orbits
                for m in enumerate_moves(entry.rep, p):
                    oset = oracle(entry.rep, p, m)
                    want.add((i, m, tuple(sorted(index[enc] for enc in oset.encodings))))
            assert got == want


@pytest.mark.parametrize("scheduler, oracle", [
    ("fsync", raw_move_outcomes), ("ssync", raw_ssync_move_outcomes),
])
def test_build_deltas_match_per_robot_oracle(scheduler, oracle):
    # moves on brute-force orbits, outcomes by every robot choosing on its own,
    # classes by canonical encoding: nothing of the outcome kernel is shared
    for g in connected_graph_corpus(4):
        for k in (1, 2, 3):
            h = build(g, k, scheduler)
            index = index_by_encoding(h)
            got = {}
            for a in h.hyperarcs:
                p = h.configs[a.source].form.orbits
                for m in decoded_moves(h, a):
                    got[(a.source, frozenset(as_brute_move(p, m).items()))] = a.delta
            want = {}
            for i, entry in enumerate(h.configs):
                lam = entry.rep.lam
                orbits = brute_orbits(g, lam)
                for move in raw_moves(g, lam):
                    outcomes = oracle(g, lam, orbits, move)
                    delta = {index[canonical_form(g, x).encoding] for x in outcomes}
                    want[(i, frozenset(move.items()))] = tuple(sorted(delta))
            assert got == want


# Past the permutation sweeps' reach: 832, 2 829 and 5 classes, and an SSYNC
# build, whose fold drops outcomes that FSYNC never has
SAMPLED_INSTANCES = {
    "grid3x5-k4-fsync": (grid(3, 5), 4, "fsync"),
    "C14-k7-fsync": (cycle(14), 7, "fsync"),
    "K8-k4-fsync": (complete(8), 4, "fsync"),
    "grid3x4-k3-ssync": (grid(3, 4), 3, "ssync"),
}


@pytest.mark.parametrize("name", SAMPLED_INSTANCES)
def test_sampled_deltas_match_the_per_robot_oracle(name):
    # a seeded sample of 300 arcs, each with one of its moves: on the class
    # representative, every robot picks its destination on its own, and each
    # outcome's class is found by its canonical encoding
    g, k, scheduler = SAMPLED_INSTANCES[name]
    h = build(g, k, scheduler)
    oracle = raw_ssync_move_outcomes if scheduler == "ssync" else raw_move_outcomes
    index = index_by_encoding(h)
    rng = random.Random(2014)
    arcs = rng.sample(h.hyperarcs, min(300, len(h.hyperarcs)))
    for a in arcs:
        entry = h.configs[a.source]
        p = entry.form.orbits
        move = as_brute_move(p, h.move(a.source, rng.choice(a.moves)))
        outcomes = oracle(g, entry.rep.lam, set(map(frozenset, p.orbits)), move)
        delta = {index[canonical_form(g, x).encoding] for x in outcomes}
        assert tuple(sorted(delta)) == a.delta


def test_exports_match_golden_digests():
    # SHA-256 of every export of the n <= 5 corpus, k = 1..3, and of K7 (k=4)
    # and Q4 (k=3), whose groups are large, both schedulers
    golden = json.loads((Path(__file__).parent / "export_digests.json").read_text())
    instances = [(g, k) for g in connected_graph_corpus(5) for k in (1, 2, 3)]
    instances += [(complete(7), 4), (hypercube(4), 3)]
    got = {}
    for g, k in instances:
        edges = json.dumps([list(e) for e in g.edges], separators=(",", ":"))
        for scheduler in ("fsync", "ssync"):
            doc = export(build(g, k, scheduler), "json").encode()
            got[f"n={g.n} edges={edges} k={k} {scheduler}"] = hashlib.sha256(doc).hexdigest()
    assert got == golden


# The ROADMAP corpus: (graph, k), each built under both schedulers.
BUILD_CORPUS = [
    (Graph(n=5, edges=((0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4))), 2),
    (petersen(), 3), (cycle(8), 4), (cycle(10), 5), (grid(3, 3), 3), (grid(3, 4), 3), (grid(4, 4), 3),
]


@pytest.mark.parametrize("scheduler", SCHEDULERS)
def test_check_passes_on_the_build_corpus(scheduler):
    for g, k in BUILD_CORPUS:
        check(build(g, k, scheduler))


def _relaid(h, **fields):
    """``h`` with some of its constructor's fields replaced."""
    return ConfigHypergraph(**{**dict(h._items()), **fields})


def _without_move(h, at):
    """``h`` with the move at flat position ``at`` taken out of its arc."""
    starts = array("i", [x - (x > at) for x in h.move_start])
    return _relaid(h, moves=h.moves[:at] + h.moves[at + 1:], move_start=starts)


def _with_move(h, at, index):
    """``h`` with move ``index`` put into the arc holding flat position ``at``, before it."""
    starts = array("i", [x + (x > at) for x in h.move_start])
    return _relaid(h, moves=h.moves[:at] + array("i", [index]) + h.moves[at:], move_start=starts)


def _broken_layouts(h):
    """Hand-broken copies of ``h``, each with the text its refusal names."""
    # the first arc with two moves or more, and the first Δ of two classes or more
    j = next(j for j in range(len(h.arc_delta)) if h.move_start[j + 1] - h.move_start[j] > 1)
    t = next(t for t, d in enumerate(h.deltas) if len(d) > 1)
    first, last = h.move_start[j], h.move_start[j + 1] - 1
    a0 = h.arc_start[bisect.bisect_right(h.arc_start, j) - 1]
    swapped = copy.copy(h.arc_delta)
    swapped[a0], swapped[a0 + 1] = swapped[a0 + 1], swapped[a0]
    reversed_arc = h.moves[:first] + h.moves[first:last + 1][::-1] + h.moves[last + 1:]
    emptied = copy.copy(h.move_start)  # arc j's moves go to the next arc
    emptied[j + 1] = emptied[j]

    def with_delta(d):
        return _relaid(h, deltas=h.deltas[:t] + (d,) + h.deltas[t + 1:])

    return {
        "dropped move": (_without_move(h, last), "cover"),
        "duplicated move": (_with_move(h, last, h.moves[first]), "cover"),
        "descending moves": (_relaid(h, moves=reversed_arc), "do not ascend"),
        "empty arc": (_relaid(h, move_start=emptied), "empty"),
        "unsorted Δ": (with_delta(h.deltas[t][::-1]), "sorted"),
        "out-of-range Δ member": (with_delta((*h.deltas[t][:-1], len(h.configs))), "set of classes"),
        "Δ id past the table": (_relaid(h, arc_delta=h.arc_delta[:-1] + array("i", [99])), "past"),
        "arcs out of (source, Δ) order": (_relaid(h, arc_delta=swapped), "order"),
        "short arc starts": (_relaid(h, arc_start=h.arc_start[:-1]), "span"),
    }


@pytest.mark.parametrize("broken", [
    "dropped move", "duplicated move", "descending moves", "empty arc", "unsorted Δ",
    "out-of-range Δ member", "Δ id past the table", "arcs out of (source, Δ) order",
    "short arc starts",
])
def test_check_refuses_hand_broken_layouts(k23_h, broken):
    check(k23_h)
    layout, refusal = _broken_layouts(k23_h)[broken]
    with pytest.raises(InternalError, match=refusal):
        check(layout)


def _broken_classes(h):
    """Copies of ``h`` with a broken class layout, each with the text its
    refusal names."""
    # a member of a class besides its representative
    member = next(iter(h.transport))
    i = h.class_of[member]
    merged = {lam: 0 if j == 1 else j for lam, j in h.class_of.items()}
    configs = list(h.configs)
    configs[0], configs[1] = configs[1], configs[0]
    promoted = list(h.configs)
    promoted[i] = promoted[i]._replace(rep=Configuration(h.graph, member))
    dropped = {lam: j for lam, j in h.class_of.items() if lam != member}
    past = {**h.class_of, member: len(h.configs)}

    def with_transporter(t):
        return _relaid(h, transport={**h.transport, member: t})

    return {
        "representative not the least": (_relaid(h, configs=tuple(promoted)), "less than"),
        "placement dropped from the table": (_relaid(h, class_of=dropped), "placements, not C"),
        "placement of no class": (_relaid(h, class_of=past), "past the"),
        "transporter that does not carry": (with_transporter(0), "does not carry"),
        "transporter past the table": (with_transporter(len(h.transporters)), "not one of the"),
        "negative transporter": (with_transporter(-1), "not one of the"),
        "two classes merged into one index": (_relaid(h, class_of=merged), "not in it"),
        "two configs swapped": (_relaid(h, configs=tuple(configs)), "strictly increase"),
    }


@pytest.mark.parametrize("broken", [
    "transporter that does not carry", "transporter past the table", "negative transporter",
    "two classes merged into one index", "two configs swapped",
    "representative not the least", "placement dropped from the table", "placement of no class",
])
def test_check_refuses_broken_classes(k23_h, broken):
    check(k23_h)
    layout, refusal = _broken_classes(k23_h)[broken]
    with pytest.raises(InternalError, match=refusal):
        check(layout)


@pytest.mark.parametrize("pi, refusal", [
    ((0, 1, 2, 3, 4), "does not carry"),  # the identity, for every placement
    ((2, 1, 0, 3, 4), "not an automorphism"),  # swaps a vertex of each side of K23
])
def test_check_refuses_a_wrong_transporter(k23_h, monkeypatch, pi, refusal):
    monkeypatch.setattr(ConfigHypergraph, "transporter", lambda h, lam: pi)
    with pytest.raises(InternalError, match=refusal):
        check(k23_h)


def test_hyperarcs_view_reads_the_layout(k23_h):
    arcs = k23_h.hyperarcs
    assert len(arcs) == len(k23_h.arc_delta) == 9
    assert [arcs[j] for j in range(len(arcs))] == list(arcs)
    assert arcs[-1] == arcs[len(arcs) - 1] and arcs[0].source == 0
    with pytest.raises(IndexError):
        arcs[len(arcs)]
    for source, delta, moves in arcs:
        assert delta in k23_h.deltas and list(moves) == sorted(moves)
    with pytest.raises(AttributeError):
        k23_h.hyperarcs = ()


def test_deltas_are_interned_once(k23_h):
    assert len(set(k23_h.deltas)) == len(k23_h.deltas)
    assert sorted(set(k23_h.arc_delta)) == list(range(len(k23_h.deltas)))


def test_placements_past_the_int32_width_are_refused_before_the_walk(monkeypatch, k2):
    # C(n+k-1, k) placements: at 2**31 or more the walk never starts
    monkeypatch.setattr(oblot.hypergraph, "canonical_form", None)
    for n, k in ((2, 2**31 - 1), (5, 10**22), (10**6, 2), (1, 2**31)):
        with pytest.raises(BudgetExceededError, match="int32"):
            oblot.hypergraph._refuse_past_the_width(n, k)
    for n, k in ((2, 2**31 - 2), (1, 2**31 - 1), (65536, 1), (34, 6)):
        oblot.hypergraph._refuse_past_the_width(n, k)
    with pytest.raises(BudgetExceededError):
        enumerate_configurations(k2, 10**22)


def test_one_vertex_holds_any_count_that_fits():
    h = build(Graph(n=1, edges=()), 2**31 - 1)
    assert [e.rep.lam for e in h.configs] == [(2**31 - 1,)] and len(h.hyperarcs) == 0
