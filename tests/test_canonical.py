import hashlib
import itertools
import json
import random
import sys
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oblot import canonical
from oblot.canonical import canonical_form, occupied_orbits
from oblot.errors import BudgetExceededError, InternalError
from oblot.graphs import Configuration, Graph
from oblot.hypergraph import build, enumerate_configurations

import bruteforce
from bruteforce import (
    all_placements,
    brute_orbits,
    color_isomorphic,
    connected_graph_corpus,
    cycle,
    grid,
    petersen,
)


def _small_configs(max_n: int, max_k: int):
    """Every placement of at most max_k robots on the connected corpus."""
    for g in connected_graph_corpus(max_n):
        for k in range(max_k + 1):
            for lam in all_placements(g.n, k):
                yield Configuration(g, lam)


def test_defining_property_small_corpus():
    # equal encoding <=> color-preserving isomorphism, both directions,
    # exhaustively over connected graphs with n <= 4 and k <= 2
    buckets: dict[bytes, list[Configuration]] = {}
    for c in _small_configs(4, 2):
        buckets.setdefault(canonical_form(c.graph, c.lam).encoding, []).append(c)
    for members in buckets.values():
        first = members[0]
        for other in members[1:]:
            assert color_isomorphic(first.graph, first.lam, other.graph, other.lam)
    reps = [members[0] for members in buckets.values()]
    for a, b in itertools.combinations(reps, 2):
        assert not color_isomorphic(a.graph, a.lam, b.graph, b.lam)


def test_pendant_encoding_is_equivalent_oracle():
    # canonizing the colored graph directly and canonizing the uncolored
    # pendant expansion must induce the same partition into classes
    from bruteforce import configuration_graph

    direct: dict[bytes, set[int]] = {}
    pendant: dict[bytes, set[int]] = {}
    for i, c in enumerate(_small_configs(4, 2)):
        direct.setdefault(canonical_form(c.graph, c.lam).encoding, set()).add(i)
        gamma = configuration_graph(c)
        key = canonical_form(gamma, (0,) * gamma.n).encoding
        pendant.setdefault(key, set()).add(i)
    assert set(map(frozenset, direct.values())) == set(map(frozenset, pendant.values()))


def _assert_rank_of_matches(p, n):
    assert len(p.rank_of) == n
    for orbit, rank in zip(p.orbits, p.ranks, strict=True):
        assert all(p.rank_of[v] == rank for v in orbit)


def test_orbits_match_bruteforce():
    for c in _small_configs(4, 2):
        p = canonical_form(c.graph, c.lam).orbits
        assert {frozenset(o) for o in p.orbits} == brute_orbits(c.graph, c.lam)
        _assert_rank_of_matches(p, c.graph.n)
    # the orbits a hypergraph's classes carry
    for g in connected_graph_corpus(4):
        for k in (1, 2):
            for entry in build(g, k).configs:
                p = entry.form.orbits
                assert {frozenset(o) for o in p.orbits} == brute_orbits(g, entry.rep.lam)
                _assert_rank_of_matches(p, g.n)


def test_k23_multiplicity_classes(k23):
    same_side = canonical_form(k23, (0, 0, 2, 0, 0))
    other_vertex = canonical_form(k23, (0, 0, 0, 0, 2))
    two_side = canonical_form(k23, (2, 0, 0, 0, 0))
    assert same_side == other_vertex
    assert hash(same_side) == hash(other_vertex)
    assert two_side != same_side


def test_k23_two_robots_give_five_classes(k23):
    placements = all_placements(5, 2)
    assert len(placements) == 15
    forms = {canonical_form(k23, lam) for lam in placements}
    assert len(forms) == 5


def test_k23_empty_orbits(k23):
    p = canonical_form(k23, (0, 0, 0, 0, 0)).orbits
    assert {frozenset(o) for o in p.orbits} == {frozenset({0, 1}), frozenset({2, 3, 4})}


def test_c4_empty_single_orbit(c4_cycle):
    p = canonical_form(c4_cycle, (0, 0, 0, 0)).orbits
    assert p.orbits == ((0, 1, 2, 3),)
    assert p.ranks == (0,)


def test_k23_mixed_orbits(k23):
    # one robot on each side breaks the 3-side into occupied + a symmetric pair
    c = Configuration(k23, (1, 0, 1, 0, 0))
    p = canonical_form(c.graph, c.lam).orbits
    assert {frozenset(o) for o in p.orbits} == {
        frozenset({0}),
        frozenset({1}),
        frozenset({2}),
        frozenset({3, 4}),
    }
    assert occupied_orbits(p, c) == (3, 4)
    assert p.orbits[p.ranks.index(3)] == (2,)
    assert p.orbits[p.ranks.index(4)] == (0,)


def test_c4_antipodal_single_occupied_orbit(c4_cycle):
    c = Configuration(c4_cycle, (1, 0, 1, 0))
    p = canonical_form(c.graph, c.lam).orbits
    occ = occupied_orbits(p, c)
    assert len(occ) == 1
    assert p.orbits[p.ranks.index(occ[0])] == (0, 2)


def test_occupied_orbits_rejects_foreign_partition(c4_cycle):
    # orbits computed for the empty coloring merge vertices that a one-robot
    # placement distinguishes
    p = canonical_form(c4_cycle, (0, 0, 0, 0)).orbits
    with pytest.raises(InternalError, match="unequal robot counts"):
        occupied_orbits(p, Configuration(c4_cycle, (1, 0, 0, 0)))


def test_coloring_length_checked(k2, k23):
    with pytest.raises(InternalError, match="does not match"):
        canonical_form(k2, (0,))
    # colors must fit the unsigned 32-bit encoding
    for coloring in ((-1, 0, 0, 0, 3), (2**32, 0, 0, 0, 0), (0.5, 0, 0, 0, 1)):
        with pytest.raises(InternalError, match="not an integer in"):
            canonical_form(k23, coloring)


def _permuted(g: Graph, lam: tuple[int, ...], perm: tuple[int, ...]):
    edges = tuple((perm[a], perm[b]) for a, b in g.edges)
    new_lam = [0] * g.n
    for v in range(g.n):
        new_lam[perm[v]] = lam[v]
    return Configuration(Graph(n=g.n, edges=edges), tuple(new_lam))


@given(st.integers(2, 5), st.data())
def test_relabeling_invariance(n, data):
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = tuple(p for p in pairs if data.draw(st.booleans()))
    g = Graph(n=n, edges=edges)
    lam = tuple(data.draw(st.integers(0, 2)) for _ in range(n))
    perm = tuple(data.draw(st.permutations(range(n))))
    c = Configuration(g, lam)
    d = _permuted(g, lam, perm)
    assert canonical_form(c.graph, c.lam) == canonical_form(d.graph, d.lam)
    assert occupied_orbits(canonical_form(c.graph, c.lam).orbits, c) == occupied_orbits(
        canonical_form(d.graph, d.lam).orbits, d
    )


@given(st.integers(1, 5), st.data())
def test_labeling_is_permutation(n, data):
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = tuple(p for p in pairs if data.draw(st.booleans()))
    lam = tuple(data.draw(st.integers(0, 2)) for _ in range(n))
    form = canonical_form(Graph(n=n, edges=edges), lam)
    assert sorted(form.labeling) == list(range(n))
    assert form.hex() == form.encoding.hex()


def test_encoding_distinguishes_robot_counts(k2):
    one = canonical_form(k2, (1, 0))
    two = canonical_form(k2, (2, 0))
    assert one != two


# ---------------------------------------------------------------------------
# The kernels against their direct forms in ``bruteforce``.


@st.composite
def graphs(draw, max_n: int) -> Graph:
    n = draw(st.integers(1, max_n))
    pairs = list(itertools.combinations(range(n), 2))
    density = draw(st.sampled_from((0.15, 0.3, 0.5, 0.8)))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    return Graph(n=n, edges=tuple(p for p in pairs if rng.random() < density))


@given(graphs(18), st.data())
def test_refine_matches_the_pair_scan_oracle(g, data):
    # a random ordered partition, cells and their members in random order
    order = data.draw(st.permutations(range(g.n)))
    cuts = sorted(data.draw(st.sets(st.integers(1, g.n - 1), max_size=g.n - 1)) if g.n > 1 else [])
    cells = [list(order[a:b]) for a, b in zip([0, *cuts], [*cuts, g.n])]
    adj = g.neighbors
    assert canonical._refine(adj, cells) == bruteforce.refine(adj, cells)


@given(graphs(18), st.data())
def test_adjacency_bits_match_the_pair_sweep_oracle(g, data):
    order = list(data.draw(st.permutations(range(g.n))))
    adj = g.neighbors
    assert canonical._adjacency_bits(g.n, adj, order) == bruteforce.adjacency_bits(g.n, adj, order)


@given(graphs(12), st.data())
def test_canonical_form_matches_the_search_on_the_oracle_kernels(g, data):
    colors = tuple(data.draw(st.lists(st.integers(0, 3), min_size=g.n, max_size=g.n)))
    fast = canonical_form(g, colors)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(canonical, "_refine", bruteforce.refine)
        mp.setattr(canonical, "_adjacency_bits", bruteforce.adjacency_bits)
        mp.setattr(canonical, "_encode", bruteforce.encode)
        slow = canonical_form(g, colors)
    assert (fast.encoding, fast.labeling, fast.generators) == (
        slow.encoding, slow.labeling, slow.generators
    )
    assert fast.orbits == bruteforce.union_find_orbits(slow.labeling, slow.generators)


@pytest.mark.parametrize("g, k", [(cycle(10), 5), (grid(3, 4), 3)], ids=["C10-k5", "grid3x4-k3"])
def test_orbits_without_generators_match_the_union_find_closure(g, k):
    forms = [entry.form for entry in enumerate_configurations(g, k)[0]]
    trivial = [form for form in forms if not form.generators]
    # the fast path is the common case here
    assert 2 * len(trivial) > len(forms)
    for form in forms:
        assert form.orbits == bruteforce.union_find_orbits(form.labeling, form.generators)


def _assert_seeds_change_no_form(g, k):
    # the walk seeds each class search with the automorphisms of G that fix
    # its founder; the form must be the unseeded search's, and its orbits
    # those of the unseeded search's group
    seeded = 0
    for entry in enumerate_configurations(g, k)[0]:
        walked, plain = entry.form, canonical_form(g, entry.rep.lam)
        assert (walked.encoding, walked.labeling) == (plain.encoding, plain.labeling)
        assert walked.orbits == bruteforce.union_find_orbits(plain.labeling, plain.generators)
        seeded += walked.generators != plain.generators
    return seeded


def test_seeded_class_searches_match_the_plain_search():
    # the n <= 5 corpus, the build corpus (see the digests below), K6 and Q3
    instances = [(g, k) for g in connected_graph_corpus(5) for k in (1, 2, 3)]
    instances += DIGEST_CORPUS.values()
    instances += [(bruteforce.complete(6), 3), (bruteforce.hypercube(3), 3)]
    seeded = sum(_assert_seeds_change_no_form(g, k) for g, k in instances)
    # the seeds reach the forms: some class keeps generators the plain
    # search would not have found
    assert seeded


@given(
    st.sampled_from(
        [*connected_graph_corpus(5), bruteforce.complete(6), bruteforce.hypercube(3), petersen()]
    ),
    st.integers(1, 3),
    st.randoms(use_true_random=False),
)
def test_seeded_class_searches_match_the_plain_search_on_relabeled_graphs(g, k, rng):
    _assert_seeds_change_no_form(bruteforce.relabeled(rng, g), k)


def _group_order(n: int, generators) -> int:
    """The order of the permutation group the generators generate, closed
    breadth-first from the identity."""
    group = {tuple(range(n))}
    frontier = list(group)
    for p in frontier:
        for gen in generators:
            if (q := tuple(gen[v] for v in p)) not in group:
                group.add(q)
                frontier.append(q)
    return len(group)


def test_search_of_g_generates_aut_g_from_at_most_n_minus_1_generators():
    # the class walk applies these generators as they come, so they must
    # generate the whole group; the backjump keeps them few.  A backjump one
    # level too far loses automorphisms of some disjoint unions, K2 + C4
    # among them.
    graphs = [
        *connected_graph_corpus(5), petersen(), bruteforce.complete(6), bruteforce.hypercube(3),
        cycle(8),
    ]
    for a, b in itertools.combinations_with_replacement(connected_graph_corpus(4), 2):
        shifted = tuple((u + a.n, v + a.n) for u, v in b.edges)
        graphs.append(Graph(n=a.n + b.n, edges=a.edges + shifted))
    for g in graphs:
        zeros = (0,) * g.n
        generators = canonical_form(g, zeros).generators
        assert len(generators) <= g.n - 1
        assert _group_order(g.n, generators) == len(bruteforce.brute_automorphisms(g, zeros))


def test_search_returns_the_first_least_leaf_and_generates_aut():
    # against the whole tree searched with no pruning and no backjump, and
    # the permutation sweep: random graphs, connected or not, with colors
    rng = random.Random(29)
    for _ in range(800):
        n = rng.randint(0, 7)
        density = rng.choice((0.15, 0.3, 0.5, 0.8))
        g = Graph(n=n, edges=tuple(p for p in itertools.combinations(range(n), 2)
                                   if rng.random() < density))
        palette = rng.randint(1, 3)
        colors = tuple(rng.randrange(palette) for _ in range(n))
        form = canonical_form(g, colors)
        assert (form.encoding, form.labeling) == bruteforce.first_least_leaf(g, colors)
        assert _group_order(n, form.generators) == len(bruteforce.brute_automorphisms(g, colors))


@pytest.mark.parametrize(
    "g, generators, nodes",
    [
        (bruteforce.complete(12), 11, 78),
        (bruteforce.hypercube(5), 5, 17),
        (Graph(n=20, edges=tuple((0, v) for v in range(1, 20))), 18, 190),
        (bruteforce.complete(30), 29, 465),
    ],
    ids=["K12", "Q5", "S20", "K30"],
)
def test_backjumping_search_of_g_finds_a_lean_generating_set(g, generators, nodes, monkeypatch):
    # each automorphism a leaf finds sends the search back to the common
    # prefix of its path and the best leaf's; without that jump the search
    # of K12 finds 66 generators and that of Q5 finds 15, with no form,
    # label or export changed.  The node count pins the pruning too: a
    # prune too weak to skip a sibling in a known orbit searches more
    # nodes, though it still returns the first least leaf.
    # The search refines each node's partition once, so refinements count
    # the nodes.
    refined = []
    refine = canonical._refine

    def counting(adj, cells):
        refined.append(len(cells))
        return refine(adj, cells)

    monkeypatch.setattr(canonical, "_refine", counting)
    assert len(canonical_form(g, (0,) * g.n).generators) == generators
    assert len(refined) == nodes


# ---------------------------------------------------------------------------
# Golden label digests.

K23 = Graph(n=5, edges=((0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4)))

# The benchmark's build corpus, one entry per (G, k): the scheduler of its
# two grid 3x4 instances is not read by any canonical form.
DIGEST_CORPUS = {
    "K23 k=2": (K23, 2),
    "petersen k=3": (petersen(), 3),
    "C8 k=4": (cycle(8), 4),
    "C10 k=5": (cycle(10), 5),
    "grid3x3 k=3": (grid(3, 3), 3),
    "grid3x4 k=3": (grid(3, 4), 3),
    "grid4x4 k=3": (grid(4, 4), 3),
}


def _digest(forms) -> str:
    # every label fits a byte: these graphs have at most 16 vertices
    h = hashlib.sha256()
    for form in forms:
        h.update(form.encoding)
        h.update(bytes(form.labeling))
    return h.hexdigest()


def canon_digests() -> dict[str, str]:
    """SHA-256 of the encoding and labeling of every class representative of
    each corpus instance, in class order, and of each of 50 seeded random
    colored graphs on at most 16 vertices."""
    got = {
        key: _digest(entry.form for entry in enumerate_configurations(g, k)[0])
        for key, (g, k) in DIGEST_CORPUS.items()
    }
    rng = random.Random(17)
    for i in range(50):
        n = rng.randint(1, 16)
        density = rng.choice((0.15, 0.3, 0.5, 0.8))
        pairs = itertools.combinations(range(n), 2)
        g = Graph(n=n, edges=tuple(p for p in pairs if rng.random() < density))
        palette = rng.randint(1, 4)
        colors = tuple(rng.randrange(palette) for _ in range(n))
        got[f"random {i:02d} n={n}"] = _digest([canonical_form(g, colors)])
    return got


def test_canonical_forms_match_golden_digests():
    golden = json.loads((Path(__file__).parent / "canon_digests.json").read_text())
    assert canon_digests() == golden


def test_search_deeper_than_max_search_depth_is_a_budget_error(monkeypatch):
    # refinement never splits an edgeless graph, so its search individualizes
    # one vertex per level and reaches its discrete leaves at depth n - 1
    monkeypatch.setattr(canonical, "MAX_SEARCH_DEPTH", 6)
    assert len(canonical_form(Graph(n=7, edges=()), (0,) * 7).generators) == 6
    with pytest.raises(BudgetExceededError, match="n = 8 vertices") as info:
        canonical_form(Graph(n=8, edges=()), (0,) * 8)
    assert str(info.value) == (
        "the canonizer's search on n = 8 vertices is deeper than MAX_SEARCH_DEPTH = 6"
    )


def _frames() -> int:
    frame, count = sys._getframe(), 0
    while frame is not None:
        frame, count = frame.f_back, count + 1
    return count


def test_search_depth_does_not_depend_on_the_callers_stack():
    # the same search, 99 levels deep, from the top and from a caller within
    # 50 frames of the recursion limit
    edgeless = Graph(n=100, edges=())
    want = canonical_form(edgeless, (0,) * edgeless.n)

    def call_at(depth):
        if depth > 1:
            return call_at(depth - 1)
        assert sys.getrecursionlimit() - _frames() <= 50
        return canonical_form(edgeless, (0,) * edgeless.n)

    got = call_at(sys.getrecursionlimit() - 50 - _frames())
    assert (got.encoding, got.labeling, got.generators) == (
        want.encoding, want.labeling, want.generators
    )
