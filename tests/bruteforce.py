"""Brute-force oracles for the test suite.

Everything here is deliberately naive: permutation sweeps for isomorphism and
orbits, cartesian products for move outcomes, and a literal recursive game
solver.  These implementations are independent of the package internals and
exist only to check the fast algorithms on small instances (n <= 8 for the
permutation sweeps).

The one exception is the canonizer-based outcome oracle (``fsync_outcomes``,
``ssync_outcomes``): it canonizes every raw outcome placement, which is what
the hypergraph's class table replaces with a lookup, so it is the slow
counterpart the table is checked against.  Likewise the canonizer's kernels
keep their first, direct form here (``refine``, ``adjacency_bits``,
``encode``, ``union_find_orbits``), as the oracles of the faster ones, a
class's move factors theirs (``option_sets``), as the oracle of the factors
``class_moves`` gives, and the solver's round decision keeps its
check-by-check form (``decide``) as the oracle of the solution's decision
table.
"""

from __future__ import annotations

import itertools
import math
import struct
from collections import deque
from dataclasses import dataclass
from functools import cached_property, lru_cache

from oblot.canonical import CanonicalForm, OrbitPartition, canonical_form, occupied_orbits
from oblot.errors import InternalError
from oblot.graphs import Configuration, Graph
from oblot.hypergraph import FORMAT_VERSION, ConfigHypergraph
from oblot.moves import Move, OptionSets, raw_fsync_outcomes, raw_ssync_outcomes
from oblot.solver import FINAL, STEP, UNSOLVABLE, MoveDecision


def _edge_set(edges) -> frozenset[tuple[int, int]]:
    return frozenset(tuple(sorted(e)) for e in edges)


def color_isomorphic(
    g1: Graph, colors1: tuple[int, ...], g2: Graph, colors2: tuple[int, ...]
) -> bool:
    """Permutation-sweep test for color-preserving isomorphism."""
    if g1.n != g2.n or len(g1.edges) != len(g2.edges):
        return False
    if sorted(colors1) != sorted(colors2):
        return False
    e1 = _edge_set(g1.edges)
    e2 = _edge_set(g2.edges)
    for perm in itertools.permutations(range(g1.n)):
        if any(colors2[perm[v]] != colors1[v] for v in range(g1.n)):
            continue
        if all(tuple(sorted((perm[a], perm[b]))) in e2 for a, b in e1):
            return True
    return False


def brute_automorphisms(g: Graph, colors: tuple[int, ...]) -> list[tuple[int, ...]]:
    """All color-preserving automorphisms, in lexicographic order: the sweep
    of every permutation, cut at the first vertex whose image breaks its
    color or its adjacency to an earlier vertex."""
    n = g.n
    e = _edge_set(g.edges)
    adjacent = [[(min(a, b), max(a, b)) in e for b in range(n)] for a in range(n)]
    out = []
    perm: list[int] = []

    def extend(v: int) -> None:
        if v == n:
            out.append(tuple(perm))
            return
        for w in range(n):
            if w in perm or colors[w] != colors[v]:
                continue
            if any(adjacent[u][v] != adjacent[perm[u]][w] for u in range(v)):
                continue
            perm.append(w)
            extend(v + 1)
            perm.pop()

    extend(0)
    return out


def brute_orbits(g: Graph, colors: tuple[int, ...]) -> set[frozenset[int]]:
    """Vertex orbits under the full automorphism group, as a set of frozensets."""
    autos = brute_automorphisms(g, colors)
    parent = list(range(g.n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for perm in autos:
        for v in range(g.n):
            ra, rb = find(v), find(perm[v])
            if ra != rb:
                parent[rb] = ra
    groups: dict[int, set[int]] = {}
    for v in range(g.n):
        groups.setdefault(find(v), set()).add(v)
    return {frozenset(s) for s in groups.values()}


def configuration_graph(c: Configuration) -> Graph:
    """Encode ``c`` as an uncolored graph by attaching pendant vertices.

    Each vertex ``v`` receives ``lam(v) + 1`` fresh pendant neighbors, so the
    result has ``2n + k`` vertices and ``|E| + n + k`` edges.  Occupied and
    empty vertices stay distinguishable because every vertex gets at least one
    pendant.  Original vertices keep their indices; pendants are appended in
    vertex order.
    """
    g = c.graph
    if len(c.lam) != g.n or any(x < 0 for x in c.lam):
        raise ValueError(f"{c.lam} is not a placement on {g.n} vertices")
    edges = list(g.edges)
    nxt = g.n
    for v in range(g.n):
        for _ in range(c.lam[v] + 1):
            edges.append((v, nxt))
            nxt += 1
    return Graph(n=nxt, edges=tuple(edges))


def config_isomorphic(c1: Configuration, c2: Configuration) -> bool:
    return color_isomorphic(c1.graph, c1.lam, c2.graph, c2.lam)


@lru_cache(maxsize=None)
def connected_graph_corpus(max_n: int) -> tuple[Graph, ...]:
    """One representative per isomorphism class of connected graphs, n <= max_n.

    Exhaustive edge-subset enumeration deduplicated by the permutation-sweep
    oracle, so the corpus is independent of the canonizer under test.
    """
    reps: list[Graph] = []
    for n in range(1, max_n + 1):
        pairs = list(itertools.combinations(range(n), 2))
        seen: list[Graph] = []
        for mask in range(1 << len(pairs)):
            edges = tuple(pairs[i] for i in range(len(pairs)) if mask >> i & 1)
            g = Graph(n=n, edges=edges)
            if not _connected(g):
                continue
            zeros = (0,) * n
            if any(color_isomorphic(g, zeros, h, zeros) for h in seen):
                continue
            seen.append(g)
        reps.extend(seen)
    return tuple(reps)


def _connected(g: Graph) -> bool:
    if g.n == 0:
        return True
    seen = {0}
    stack = [0]
    while stack:
        v = stack.pop()
        for u in g.neighbors[v]:
            if u not in seen:
                seen.add(u)
                stack.append(u)
    return len(seen) == g.n


# ---------------------------------------------------------------------------
# The canonizer's kernels in their direct form.


def refine(adj: tuple[tuple[int, ...], ...], cells: list[list[int]]) -> list[list[int]]:
    """Split cells on neighbor counts until the ordered partition is equitable.

    After every split the scan restarts at the first cell: the first target
    cell on which some splitter cell's neighbor counts differ splits on the
    first such splitter, into fragments of ascending count.
    """
    cells = [sorted(c) for c in cells]
    changed = True
    while changed:
        changed = False
        for ti, target in enumerate(cells):
            if len(target) == 1:
                continue
            for splitter in cells:
                sset = frozenset(splitter)
                counts = [len(sset.intersection(adj[v])) for v in target]
                if len(set(counts)) > 1:
                    groups: dict[int, list[int]] = {}
                    for v, cnt in zip(target, counts):
                        groups.setdefault(cnt, []).append(v)
                    frags = [groups[cnt] for cnt in sorted(groups)]
                    cells[ti : ti + 1] = frags
                    changed = True
                    break
            if changed:
                break
    return cells


def adjacency_bits(n: int, adj: tuple[tuple[int, ...], ...], order: list[int]) -> bytes:
    """Upper-triangular adjacency bits row-major under the given vertex order,
    one test per vertex pair."""
    bits = bytearray((n * (n - 1) // 2 + 7) // 8)
    idx = 0
    for i in range(n):
        vi = order[i]
        nbrs = adj[vi]
        for j in range(i + 1, n):
            if order[j] in nbrs:
                bits[idx >> 3] |= 0x80 >> (idx & 7)
            idx += 1
    return bytes(bits)


def encode(n: int, colors_in_canonical_order: list[int], bits: bytes) -> bytes:
    """n, the colors and the bits, each field prefixed by its byte length."""
    color_bytes = b"".join(struct.pack(">I", c) for c in colors_in_canonical_order)
    fields = (struct.pack(">I", n), color_bytes, bits)
    return b"".join(struct.pack(">I", len(field)) + field for field in fields)


def first_least_leaf(g: Graph, colors: tuple[int, ...]) -> tuple[bytes, tuple[int, ...]]:
    """The encoding and labeling of the first leaf with the least adjacency
    bits in the whole individualization-refinement tree, searched with these
    kernels and no pruning: the leaf the canonizer must return."""
    n, adj = g.n, g.neighbors
    by_color: dict[int, list[int]] = {}
    for v, c in enumerate(colors):
        by_color.setdefault(c, []).append(v)
    best: list = []

    def search(cells: list[list[int]]) -> None:
        cells = refine(adj, cells)
        t = next((i for i, c in enumerate(cells) if len(c) > 1), None)
        if t is None:
            order = [c[0] for c in cells]
            bits = adjacency_bits(n, adj, order)
            if not best or bits < best[0]:
                best[:] = [bits, order]
            return
        for w in cells[t]:
            search(cells[:t] + [[w], [u for u in cells[t] if u != w]] + cells[t + 1 :])

    search([by_color[c] for c in sorted(by_color)])
    if not best:
        return encode(0, [], b""), ()
    bits, order = best
    labeling = [0] * n
    for pos, v in enumerate(order):
        labeling[v] = pos
    return encode(n, [colors[v] for v in order], bits), tuple(labeling)


def union_find_orbits(
    labeling: tuple[int, ...], generators: tuple[tuple[int, ...], ...]
) -> OrbitPartition:
    """The orbits the generators close, by union-find, each ranked by its
    least canonical label."""
    n = len(labeling)
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for gen in generators:
        for v in range(n):
            ra, rb = find(v), find(gen[v])
            if ra != rb:
                parent[rb] = ra
    groups: dict[int, list[int]] = {}
    for v in range(n):
        groups.setdefault(find(v), []).append(v)
    rank = {root: min(labeling[v] for v in orbit) for root, orbit in groups.items()}
    ranked = sorted((rank[root], tuple(orbit)) for root, orbit in groups.items())
    return OrbitPartition(
        orbits=tuple(orbit for _, orbit in ranked),
        ranks=tuple(r for r, _ in ranked),
        rank_of=tuple(rank[find(v)] for v in range(n)),
    )


# ---------------------------------------------------------------------------
# Move order: the lexicographic order that move indices count in.


def move_sort_key(m: Move) -> tuple[tuple[int, int], ...]:
    """``m``'s assignments with nil read as -1, so that nil precedes every
    orbit rank; ascending keys are the lexicographic move order."""
    return tuple((s, -1 if t is None else t) for s, t in m.assignments)


def option_sets(c: Configuration, p: OrbitPartition) -> OptionSets:
    """The factors of ``c``'s move product: one (rank, options) pair per
    occupied orbit, in ascending rank order.

    An orbit's options are nil, then the ranks of the orbits an edge joins it
    to (itself included), ascending.  A move is one option per factor, so a
    class's moves are the product of its option sets minus the all-nil
    element; ``move_at`` names them by index.  ``class_moves`` gives the same
    factors from its sweep, and the tests check that it does.
    """
    occupied = occupied_orbits(p, c)
    rank_of = p.rank_of
    adjacent: dict[int, set[int]] = {rank: set() for rank in occupied}
    for v, nbrs in enumerate(c.graph.neighbors):
        if rank_of[v] in adjacent:
            adjacent[rank_of[v]].update(rank_of[u] for u in nbrs)
    return tuple((rank, (None, *sorted(adjacent[rank]))) for rank in occupied)


def enumerate_moves(c: Configuration, p: OrbitPartition) -> tuple[Move, ...]:
    """All moves of ``c`` in the product order of its option sets, minus the
    all-nil function, which leads the product; the tests check that this is
    ascending :func:`move_sort_key` order and that ``move_at`` counts in it."""
    factors = option_sets(c, p)
    ranks = tuple(rank for rank, _ in factors)
    combos = itertools.islice(itertools.product(*(opts for _, opts in factors)), 1, None)
    return tuple(Move(assignments=tuple(zip(ranks, combo))) for combo in combos)


# ---------------------------------------------------------------------------
# Raw-placement move/outcome oracles (independent of the production modules).


def orbit_of(orbits: set[frozenset[int]], v: int) -> frozenset[int]:
    for o in orbits:
        if v in o:
            return o
    raise AssertionError(f"vertex {v} not covered by orbits")


def raw_moves(g: Graph, lam: tuple[int, ...]) -> list[dict[frozenset[int], frozenset[int] | None]]:
    """All orbit-level moves of a raw placement, as target maps.

    Orbits come from the permutation sweep; a move maps every occupied orbit
    to an adjacent orbit or None, excluding the all-None function.
    """
    orbits = brute_orbits(g, lam)
    occupied = sorted(
        (o for o in orbits if lam[min(o)] > 0), key=min
    )
    adjacency: dict[frozenset[int], set[frozenset[int]]] = {o: set() for o in orbits}
    for u, v in g.edges:
        adjacency[orbit_of(orbits, u)].add(orbit_of(orbits, v))
        adjacency[orbit_of(orbits, v)].add(orbit_of(orbits, u))
    option_sets = [
        [None] + sorted(adjacency[o], key=min) for o in occupied
    ]
    out = []
    for combo in itertools.product(*option_sets):
        if all(t is None for t in combo):
            continue
        out.append(dict(zip(occupied, combo)))
    return out


def as_brute_move(p: OrbitPartition, m: Move) -> dict[frozenset[int], frozenset[int] | None]:
    """``m``'s orbit ranks replaced by the vertex sets of the orbits they name in ``p``."""
    def orbit(rank: int) -> frozenset[int]:
        return frozenset(p.orbits[p.ranks.index(rank)])

    return {orbit(s): None if t is None else orbit(t) for s, t in m.assignments}


def raw_move_outcomes(
    g: Graph,
    lam: tuple[int, ...],
    orbits: set[frozenset[int]],
    move: dict[frozenset[int], frozenset[int] | None],
) -> set[tuple[int, ...]]:
    """Per-robot product oracle: every robot picks its destination on its own."""
    robot_options: list[list[int]] = []
    for v in range(g.n):
        if lam[v] == 0:
            continue
        target = move[orbit_of(orbits, v)]
        if target is None:
            opts = [v]
        else:
            opts = sorted(set(g.neighbors[v]) & set(target))
            assert opts, "orbit adjacency must give every vertex a destination"
        robot_options.extend([opts] * lam[v])
    out: set[tuple[int, ...]] = set()
    for dests in itertools.product(*robot_options):
        new = [0] * g.n
        for d in dests:
            new[d] += 1
        out.add(tuple(new))
    return out


def raw_ssync_move_outcomes(
    g: Graph,
    lam: tuple[int, ...],
    orbits: set[frozenset[int]],
    move: dict[frozenset[int], frozenset[int] | None],
) -> set[tuple[int, ...]]:
    """Per-robot product oracle with adversarial activation: each instructed
    robot may also stay, but at least one robot must move."""
    robot_options: list[list[int]] = []
    for v in range(g.n):
        if lam[v] == 0:
            continue
        target = move[orbit_of(orbits, v)]
        if target is None:
            opts = [v]
        else:
            opts = sorted({v} | (set(g.neighbors[v]) & set(target)))
        robot_options.extend([opts] * lam[v])
    stay_positions = [v for v in range(g.n) for _ in range(lam[v])]
    out: set[tuple[int, ...]] = set()
    for dests in itertools.product(*robot_options):
        if list(dests) == stay_positions:
            continue
        new = [0] * g.n
        for d in dests:
            new[d] += 1
        out.add(tuple(new))
    return out


# ---------------------------------------------------------------------------
# Canonizer-based outcome classes: the slow path behind the class table.


@dataclass(frozen=True)
class OutcomeSet:
    """Configurations reachable by one move, up to isomorphism."""

    forms: frozenset[CanonicalForm]

    def __post_init__(self) -> None:
        if not self.forms:
            raise InternalError("outcome set of a move cannot be empty")

    @cached_property
    def encodings(self) -> tuple[bytes, ...]:
        return tuple(sorted(f.encoding for f in self.forms))


def index_by_encoding(h) -> dict[bytes, int]:
    """Class index of each of ``h``'s classes, keyed by canonical encoding."""
    return {entry.form.encoding: i for i, entry in enumerate(h.configs)}


def _canonical_outcomes(c: Configuration, lams) -> OutcomeSet:
    forms = {canonical_form(c.graph, lam) for lam in lams}
    return OutcomeSet(forms=frozenset(forms))


def fsync_outcomes(c: Configuration, p: OrbitPartition, m: Move) -> OutcomeSet:
    """Classes reachable from ``c`` by ``m`` when every robot is activated."""
    return _canonical_outcomes(c, raw_fsync_outcomes(c, p, m))


def ssync_outcomes(c: Configuration, p: OrbitPartition, m: Move) -> OutcomeSet:
    """Classes reachable from ``c`` by ``m`` under adversarial activation.

    Always a superset of the FSYNC outcomes: full activation is one of the
    adversary's choices.
    """
    return _canonical_outcomes(c, raw_ssync_outcomes(c, p, m))


# ---------------------------------------------------------------------------
# A class's Δs by one depth-first walk of its move product: the build's
# first form, the oracle of ``moves.class_moves``.  An orbit's entry for a
# target is computed on its own, and each prefix of options folds its codes
# once for every move sharing it.


def _entry(
    c: Configuration, p: OrbitPartition, powers, code: int, rank: int, target: int, ssync: bool
):
    """(joint, moved) of the robots of occupied orbit ``rank`` sent to
    ``target``: every joint destination as a code delta, and the whole
    placement codes in which some robot of the orbit moved (under SSYNC
    tracked per vertex, since robots swapping inside an orbit reproduce its
    stay code; under FSYNC every robot moves)."""
    rank_of = p.rank_of
    neighbors = c.graph.neighbors
    joint = None
    for v in p.orbits[p.ranks.index(rank)]:
        at = powers[v]
        steps = [powers[u] - at for u in neighbors[v] if rank_of[u] == target]
        if not steps:
            raise InternalError(
                f"vertex {v} has no neighbor in target orbit {target}; "
                "orbit adjacency is not symmetric"
            )
        if ssync:
            steps.append(0)
        dests = set(steps)
        for _ in range(c.lam[v] - 1):
            dests = {a + b for a in dests for b in steps}
        if joint is None:
            joint = dests
            if ssync:
                moved = dests - {0}
            continue
        if ssync:
            moved = {a + b for a in moved for b in dests}
            moved |= dests - {0}
        joint = {a + b for a in joint for b in dests}
    return tuple(joint), tuple(map(code.__add__, moved if ssync else joint))


def _entries(c: Configuration, p: OrbitPartition, factors, ssync: bool):
    """Per factor, per option: None for nil, otherwise that orbit's entry."""
    k = sum(c.lam)
    powers = tuple((k + 1) ** v for v in range(c.graph.n))
    code = sum(x * y for x, y in zip(c.lam, powers))
    return [
        [None if t is None else _entry(c, p, powers, code, rank, t, ssync) for t in opts]
        for rank, opts in factors
    ]


def _fold(moved, entry, ssync: bool):
    """A prefix's ``moved`` codes (None: no robot instructed yet) extended by
    one orbit's entry: (moved ⊕ joint_o) ∪ moved_o."""
    joint, moved_o = entry
    if moved is None:
        return moved_o
    folded = {a + b for a in moved for b in joint}
    if ssync:
        folded.update(moved_o)
    return folded


def move_deltas(
    c: Configuration, p: OrbitPartition, factors, ssync: bool, class_by_code: dict[int, int]
) -> dict[tuple[int, ...], list[int]]:
    """The moves of ``c`` grouped by outcome set: each Δ, as ascending class
    indices, maps to the ascending indices of its moves in the product of
    ``factors``, found by one depth-first walk of that product in index
    order."""
    entries = _entries(c, p, factors, ssync)
    last = len(entries) - 1
    groups: dict[frozenset[int], list[int]] = {}
    index = 0

    def walk(depth: int, moved) -> None:
        nonlocal index
        for entry in entries[depth]:
            folded = moved if entry is None else _fold(moved, entry, ssync)
            if depth < last:
                walk(depth + 1, folded)
                continue
            if folded is not None:  # index 0: the all-nil function is not a move
                groups.setdefault(frozenset(class_by_code[x] for x in folded), []).append(index)
            index += 1

    walk(0, None)
    return {tuple(sorted(delta)): indices for delta, indices in groups.items()}


# ---------------------------------------------------------------------------
# Minimax game solving on raw placements.


def all_placements(n: int, k: int) -> list[tuple[int, ...]]:
    out = []
    for combo in itertools.combinations_with_replacement(range(n), k):
        lam = [0] * n
        for v in combo:
            lam[v] += 1
        out.append(tuple(lam))
    return sorted(set(out))


def game_solve(
    g: Graph, k: int, is_final, scheduler: str = "fsync"
) -> tuple[set[tuple[int, ...]], dict[tuple[int, ...], int]]:
    """Attractor fixed point and minimax distances on raw placements.

    A placement is solvable when some orbit-level move has every per-robot
    outcome inside the current solvable set; its distance is the first level
    at which that happens.  Independent of the hypergraph machinery: orbits
    by permutation sweep, outcomes by per-robot product, under ``ssync`` with
    the adversary also idling any instructed robots but one.
    """
    outcomes = {"fsync": raw_move_outcomes, "ssync": raw_ssync_move_outcomes}[scheduler]
    states = all_placements(g.n, k)
    moves_of: dict[tuple[int, ...], list[set[tuple[int, ...]]]] = {}
    for lam in states:
        orbits = brute_orbits(g, lam)
        moves_of[lam] = [outcomes(g, lam, orbits, mv) for mv in raw_moves(g, lam)]
    dist: dict[tuple[int, ...], int] = {s: 0 for s in states if is_final(s)}
    solvable = set(dist)
    level = 0
    while True:
        level += 1
        added = set()
        for s in states:
            if s in solvable:
                continue
            for outcomes in moves_of[s]:
                if all(o in dist for o in outcomes) and max(
                    dist[o] for o in outcomes
                ) <= level - 1:
                    added.add(s)
                    break
        if not added:
            break
        for s in added:
            dist[s] = level
        solvable |= added
    return solvable, dist


# ---------------------------------------------------------------------------
# Literal recursive planner with a visited set, memoized on (class, visited).
# The production planner is the backward-attractor pass; this transcription
# is its equivalence oracle.  Memoization is sound because the function is pure
# in both arguments.


def arcs_by_source(h) -> dict:
    """The hyperarcs of ``h`` grouped by source class index, in arc order."""
    out: dict = {}
    for arc in h.hyperarcs:
        out.setdefault(arc.source, []).append(arc)
    return {s: tuple(arcs) for s, arcs in out.items()}


def without_generators(h: ConfigHypergraph) -> ConfigHypergraph:
    """``h`` with no generators of G, so that every orbit is its
    representative alone, and no other placement has a transporter."""
    return ConfigHypergraph(**{**dict(h._items()), "generators": ()})


def decoded_moves(h, arc) -> tuple[Move, ...]:
    """The moves ``arc`` stores as indices, decoded."""
    return tuple(h.move(arc.source, j) for j in arc.moves)


def export_obj(h) -> dict:
    """The export document as a tree for ``dump_json``, the oracle of the
    text writer.  Its sequences may be tuples, which ``json`` writes as
    arrays; λ and Δ are passed as stored, and each move's assignments are
    read from its class's product of (rank, option) pairs, built once per
    class (arcs come grouped by source)."""

    @lru_cache(maxsize=1)
    def table(source: int) -> tuple[tuple[tuple[int, int | None], ...], ...]:
        return tuple(itertools.product(
            *(tuple((rank, t) for t in opts) for rank, opts in h.option_sets[source])
        ))

    return {
        "format_version": FORMAT_VERSION,
        "graph": h.graph.to_json_obj(),
        "k": h.k,
        "scheduler": h.scheduler,
        "configs": [{"lambda": e.rep.lam} for e in h.configs],
        "hyperarcs": [
            {
                "source": a.source,
                "delta": a.delta,
                "moves": list(map(table(a.source).__getitem__, a.moves)),
            }
            for a in h.hyperarcs
        ],
    }


def mtf_recursive(h, final: frozenset[int], solvable: frozenset[int], c: int):
    """Returns (distance, move or None) for class index c.  Moves are compared
    decoded, by :func:`move_sort_key`, not by their stored indices."""
    arcs = arcs_by_source(h)
    memo: dict = {}

    def rec(c: int, visited: frozenset[int]):
        key = (c, visited)
        if key in memo:
            return memo[key]
        if c in final:
            memo[key] = (0, None)
            return memo[key]
        visited = visited | {c}
        candidates = []
        for arc in arcs.get(c, ()):
            delta = set(arc.delta)
            if not delta <= set(solvable) or delta & visited:
                continue
            d_max = -1
            for child in arc.delta:
                d, _ = rec(child, visited)
                if d > d_max:
                    d_max = d
            candidates.append((d_max, min(decoded_moves(h, arc), key=move_sort_key)))
        if not candidates:
            memo[key] = (math.inf, None)
            return memo[key]
        d_star, m_star = min(candidates, key=lambda dm: (dm[0], move_sort_key(dm[1])))
        memo[key] = (d_star + 1, m_star)
        return memo[key]

    return rec(c, frozenset())


def decide(h, final, solvability, entries, idx: int) -> MoveDecision:
    """The round decision as ``solver.decide`` once computed it, check by
    check on every call, the oracle of the solution's decision table."""
    if idx in final:
        return MoveDecision(status=FINAL)
    if idx not in solvability.solvable:
        return MoveDecision(status=UNSOLVABLE)
    entry = entries[idx]
    if entry.move is None or entry.distance < 1:
        raise InternalError(f"non-final solvable class {idx} has no planned move")
    return MoveDecision(status=STEP, move=entry.move, distance=entry.distance)


# ---------------------------------------------------------------------------
# Geodesic visibility oracle: enumerate every shortest path explicitly.


def all_shortest_paths(g: Graph, u: int, v: int) -> list[tuple[int, ...]]:
    if u == v:
        return [(u,)]
    best: list[tuple[int, ...]] = []
    queue = deque([(u, (u,))])
    shortest = None
    while queue:
        w, path = queue.popleft()
        if shortest is not None and len(path) > shortest:
            continue
        for x in g.neighbors[w]:
            if x in path:
                continue
            if x == v:
                if shortest is None:
                    shortest = len(path) + 1
                if len(path) + 1 == shortest:
                    best.append(path + (x,))
            elif shortest is None or len(path) + 1 < shortest:
                queue.append((x, path + (x,)))
    return best


def gmv_oracle(g: Graph, lam: tuple[int, ...]) -> bool:
    if any(x > 1 for x in lam):
        return False
    occupied = [v for v in range(g.n) if lam[v] == 1]
    for i, u in enumerate(occupied):
        for v in occupied[i + 1:]:
            paths = all_shortest_paths(g, u, v)
            if not paths:
                return False
            if not any(all(lam[w] == 0 for w in p[1:-1]) for p in paths):
                return False
    return True


# ---------------------------------------------------------------------------
# Named graphs beyond the permutation sweeps' reach.


def cycle(n: int) -> Graph:
    return Graph(n=n, edges=tuple((i, (i + 1) % n) for i in range(n)))


def grid(rows: int, cols: int) -> Graph:
    edges = [(r * cols + c, r * cols + c + 1) for r in range(rows) for c in range(cols - 1)]
    edges += [(r * cols + c, (r + 1) * cols + c) for r in range(rows - 1) for c in range(cols)]
    return Graph(n=rows * cols, edges=tuple(edges))


def complete(n: int) -> Graph:
    return Graph(n=n, edges=tuple(itertools.combinations(range(n), 2)))


def hypercube(d: int) -> Graph:
    """Q_d: vertices are d-bit numbers, adjacent when they differ in one bit."""
    return Graph(n=1 << d, edges=tuple(
        (v, v | 1 << i) for v in range(1 << d) for i in range(d) if not v >> i & 1
    ))


def petersen() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return Graph(n=10, edges=tuple(outer + spokes + inner))


# ---------------------------------------------------------------------------
# Seeded random instances.


def random_graph(rng, n: int, connected: bool = True) -> Graph:
    pairs = list(itertools.combinations(range(n), 2))
    while True:
        edges = tuple(p for p in pairs if rng.random() < 0.5)
        g = Graph(n=n, edges=edges)
        if not connected or _connected(g):
            return g


def relabeled(rng, g: Graph) -> Graph:
    """``g`` with its vertices renamed by a random permutation."""
    perm = list(range(g.n))
    rng.shuffle(perm)
    return Graph(n=g.n, edges=tuple((perm[a], perm[b]) for a, b in g.edges), name=g.name)
