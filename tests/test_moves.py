import pytest
from hypothesis import given
from hypothesis import strategies as st

from oblot.canonical import OrbitPartition, canonical_form
from oblot.errors import InternalError
from oblot.graphs import Configuration, Graph
from oblot.hypergraph import build
from oblot.moves import (
    Move,
    class_moves,
    class_table_by_code,
    move_at,
    raw_fsync_outcomes,
    raw_ssync_outcomes,
)

from bruteforce import (
    all_placements,
    as_brute_move,
    connected_graph_corpus,
    enumerate_moves,
    fsync_outcomes,
    move_deltas,
    move_sort_key,
    option_sets,
    raw_move_outcomes,
    raw_moves,
    raw_ssync_move_outcomes,
    ssync_outcomes,
)


def _configs(max_n: int, max_k: int):
    for g in connected_graph_corpus(max_n):
        for k in range(1, max_k + 1):
            for lam in all_placements(g.n, k):
                yield Configuration(g, lam)


def test_k23_mixed_has_eight_sorted_moves(k23):
    c = Configuration(k23, (1, 0, 1, 0, 0))
    p = canonical_form(c.graph, c.lam).orbits
    moves = enumerate_moves(c, p)
    assert len(moves) == 8
    assert all(tuple(s for s, _ in m.assignments) == (3, 4) for m in moves)
    keys = [move_sort_key(m) for m in moves]
    assert keys == sorted(keys)
    assert len(set(keys)) == len(keys)


def test_move_count_matches_bruteforce():
    for c in _configs(4, 2):
        p = canonical_form(c.graph, c.lam).orbits
        assert len(enumerate_moves(c, p)) == len(raw_moves(c.graph, c.lam))


def test_fsync_raw_outcomes_match_per_robot_oracle():
    # destination multisets per vertex vs per-robot cartesian product
    for c in _configs(4, 2):
        p = canonical_form(c.graph, c.lam).orbits
        orbits = {frozenset(o) for o in p.orbits}
        for m in enumerate_moves(c, p):
            got = set(raw_fsync_outcomes(c, p, m))
            want = raw_move_outcomes(c.graph, c.lam, orbits, as_brute_move(p, m))
            assert got == want


def test_ssync_raw_outcomes_match_per_robot_oracle():
    for c in _configs(4, 2):
        p = canonical_form(c.graph, c.lam).orbits
        orbits = {frozenset(o) for o in p.orbits}
        for m in enumerate_moves(c, p):
            got = set(raw_ssync_outcomes(c, p, m))
            want = raw_ssync_move_outcomes(c.graph, c.lam, orbits, as_brute_move(p, m))
            assert got == want


def test_outcomes_conserve_robots():
    for c in _configs(4, 2):
        k = sum(c.lam)
        p = canonical_form(c.graph, c.lam).orbits
        for m in enumerate_moves(c, p):
            for lam in raw_ssync_outcomes(c, p, m):
                assert sum(lam) == k


def test_fsync_subset_of_ssync():
    for c in _configs(4, 2):
        p = canonical_form(c.graph, c.lam).orbits
        for m in enumerate_moves(c, p):
            assert fsync_outcomes(c, p, m).forms <= ssync_outcomes(c, p, m).forms


def test_compare_moves_nil_below_rank():
    a = Move(assignments=((1, None), (2, 1)))
    b = Move(assignments=((1, 2), (2, 1)))
    assert move_sort_key(a) < move_sort_key(b)
    assert sorted([b, a], key=move_sort_key) == [a, b]
    assert move_sort_key(Move(assignments=a.assignments)) == move_sort_key(a)


def test_compare_moves_swap_is_least_without_nil():
    # two mutually adjacent occupied orbits 1, 2 with private targets 4, 3:
    # among the moves where both orbits receive an instruction the
    # exchange (1 -> 2, 2 -> 1) sorts first
    both_move = [
        Move(assignments=((1, a), (2, b))) for a in (2, 4) for b in (1, 3)
    ]
    least = min(both_move, key=move_sort_key)
    assert least == Move(assignments=((1, 2), (2, 1)))


def test_move_at_reads_the_option_product(k23):
    # K23 with one robot per side: its rank 3 orbit ({2}) reaches ranks 2
    # and 4, its rank 4 orbit ({0}) ranks 0 and 3; the first is most significant
    c = Configuration(k23, (1, 0, 1, 0, 0))
    factors = option_sets(c, canonical_form(c.graph, c.lam).orbits)
    assert factors == ((3, (None, 2, 4)), (4, (None, 0, 3)))
    assert move_at(factors, 3) == Move(assignments=((3, 2), (4, None)))
    for index in (-1, 0, 9):
        with pytest.raises(InternalError, match="outside the class's move product"):
            move_at(factors, index)
    for c in _configs(4, 3):
        factors = option_sets(c, canonical_form(c.graph, c.lam).orbits)
        moves = enumerate_moves(c, canonical_form(c.graph, c.lam).orbits)
        assert tuple(move_at(factors, j) for j in range(1, len(moves) + 1)) == moves


@pytest.mark.parametrize("ssync", [False, True])
def test_move_deltas_reject_outcomes_outside_the_class_table(k23, ssync):
    # whichever outcome code the table lacks, the class's moves name the broken invariant
    c = Configuration(k23, (1, 0, 1, 0, 0))
    p = canonical_form(c.graph, c.lam).orbits
    class_of = build(k23, 2).class_of
    outcomes = raw_ssync_outcomes if ssync else raw_fsync_outcomes
    reached = {lam for m in enumerate_moves(c, p) for lam in outcomes(c, p, m)}
    for lam in reached:
        partial = class_table_by_code({x: i for x, i in class_of.items() if x != lam}, 5, 2)
        with pytest.raises(InternalError, match="robot conservation is violated"):
            class_moves(c, p, ssync, partial)


@given(st.integers(1, 8), st.integers(1, 4), st.booleans(), st.data())
def test_class_moves_match_the_walk_oracle(n, k, ssync, data):
    # random graphs, isolated vertices and several components included, a
    # random placement and every class representative, whose symmetries give
    # orbits with several destinations: the same factors as option_sets, and
    # each Δ the same move indices, in the same order, as the depth-first walk
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    g = Graph(n=n, edges=tuple(e for e in pairs if data.draw(st.booleans())))
    lam = [0] * n
    for v in data.draw(st.lists(st.integers(0, n - 1), min_size=k, max_size=k)):
        lam[v] += 1
    h = build(g, k)
    table = class_table_by_code(h.class_of, n, k)
    for c in (Configuration(g, tuple(lam)), *(e.rep for e in h.configs)):
        p = canonical_form(g, c.lam).orbits
        factors, deltas = class_moves(c, p, ssync, table)
        assert factors == option_sets(c, p)
        assert deltas == move_deltas(c, p, factors, ssync, table)


def test_class_moves_reject_an_asymmetric_partition(p3):
    # a forged partition joining vertices 0 and 1 of the path 0-1-2: vertex 1
    # reaches orbit 2, vertex 0 does not
    c = Configuration(p3, (1, 1, 0))
    forged = OrbitPartition(orbits=((0, 1), (2,)), ranks=(0, 2), rank_of=(0, 0, 2))
    table = class_table_by_code(build(p3, 2).class_of, 3, 2)
    for ssync in (False, True):
        with pytest.raises(
            InternalError, match="vertex 0 has no neighbor in target orbit 2; .* not symmetric"
        ):
            class_moves(c, forged, ssync, table)


def test_move_json_round_trip():
    m = Move(assignments=((0, None), (3, 1)))
    assert m.to_json_obj() == [[0, None], [3, 1]]


@pytest.mark.parametrize(
    "outcomes", [raw_fsync_outcomes, raw_ssync_outcomes], ids=["fsync", "ssync"]
)
def test_outcomes_need_exactly_the_occupied_orbits_in_order(k23, outcomes):
    # K23 with one robot per side: ranks 0 ({3, 4}), 2 ({1}), 3 ({2}) and
    # 4 ({0}), of which 3 and 4 are occupied; rank 1 names no orbit
    c = Configuration(k23, (1, 0, 1, 0, 0))
    p = canonical_form(c.graph, c.lam).orbits
    assert p.ranks == (0, 2, 3, 4)
    assert raw_fsync_outcomes(c, p, Move(assignments=((3, None), (4, 3)))) == ((0, 0, 2, 0, 0),)
    for assignments in (
        ((3, None),),  # omits occupied rank 4
        ((0, 2), (3, None), (4, 3)),  # instructs the empty rank 0
        ((4, 3), (3, None)),  # sources out of order
    ):
        with pytest.raises(InternalError, match="are not the occupied orbit ranks"):
            outcomes(c, p, Move(assignments=assignments))
    with pytest.raises(InternalError, match="no neighbor in target orbit 1"):
        outcomes(c, p, Move(assignments=((3, None), (4, 1))))


def test_ssync_swap_inside_an_orbit_is_an_outcome(k2):
    # P2 with one robot per vertex, both told to cross: swapping reproduces
    # the start, yet robots moved, so SSYNC keeps (1, 1) beside the pile-ups
    c = Configuration(k2, (1, 1))
    p = canonical_form(c.graph, c.lam).orbits
    m = Move(assignments=((0, 0),))
    assert raw_ssync_outcomes(c, p, m) == ((0, 2), (1, 1), (2, 0))
    assert raw_fsync_outcomes(c, p, m) == ((1, 1),)


def test_outcomes_reject_the_all_nil_function(k23):
    c = Configuration(k23, (1, 0, 1, 0, 0))
    p = canonical_form(c.graph, c.lam).orbits
    for outcomes in (raw_fsync_outcomes, raw_ssync_outcomes):
        with pytest.raises(InternalError, match="not a move"):
            outcomes(c, p, Move(assignments=((3, None), (4, None))))


def test_k2_swap_keeps_class(k2):
    c = Configuration(k2, (1, 1))
    p = canonical_form(c.graph, c.lam).orbits
    moves = enumerate_moves(c, p)
    assert moves == (Move(assignments=((0, 0),)),)
    out = fsync_outcomes(c, p, moves[0])
    assert out.forms == {canonical_form(c.graph, c.lam)}
    # under adversarial activation a lone mover creates a multiplicity
    sout = ssync_outcomes(c, p, moves[0])
    assert sout.forms == {
        canonical_form(c.graph, c.lam),
        canonical_form(k2, (2, 0)),
    }


def test_isolated_vertex_has_no_moves():
    c = Configuration(Graph(n=1, edges=()), (2,))
    p = canonical_form(c.graph, c.lam).orbits
    assert enumerate_moves(c, p) == ()


def test_k23_distinct_two_side_outcomes(k23):
    # both robots on the two-vertex side: a single move, two classes under
    # full activation, one extra (the mixed class) under adversarial activation
    c = Configuration(k23, (1, 1, 0, 0, 0))
    p = canonical_form(c.graph, c.lam).orbits
    moves = enumerate_moves(c, p)
    assert len(moves) == 1
    f = fsync_outcomes(c, p, moves[0])
    assert f.forms == {
        canonical_form(k23, (0, 0, 2, 0, 0)),
        canonical_form(k23, (0, 0, 1, 1, 0)),
    }
    s = ssync_outcomes(c, p, moves[0])
    assert s.forms == f.forms | {
        canonical_form(k23, (1, 0, 1, 0, 0))
    }


def _permuted(g: Graph, lam, perm):
    edges = tuple((perm[a], perm[b]) for a, b in g.edges)
    new_lam = [0] * g.n
    for v in range(g.n):
        new_lam[perm[v]] = lam[v]
    return Configuration(Graph(n=g.n, edges=edges), tuple(new_lam))


@given(st.integers(2, 5), st.data())
def test_moves_and_outcomes_invariant_under_relabeling(n, data):
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = tuple(p for p in pairs if data.draw(st.booleans()))
    g = Graph(n=n, edges=edges)
    lam = list(data.draw(st.integers(0, 1)) for _ in range(n))
    if sum(lam) == 0:
        lam[data.draw(st.integers(0, n - 1))] = 1
    perm = tuple(data.draw(st.permutations(range(n))))
    c1 = Configuration(g, tuple(lam))
    c2 = _permuted(g, tuple(lam), perm)
    p1 = canonical_form(c1.graph, c1.lam).orbits
    p2 = canonical_form(c2.graph, c2.lam).orbits
    m1 = enumerate_moves(c1, p1)
    m2 = enumerate_moves(c2, p2)
    assert [move_sort_key(m) for m in m1] == [move_sort_key(m) for m in m2]
    for a, b in zip(m1, m2):
        assert fsync_outcomes(c1, p1, a).encodings == fsync_outcomes(c2, p2, b).encodings
        assert ssync_outcomes(c1, p1, a).encodings == ssync_outcomes(c2, p2, b).encodings
