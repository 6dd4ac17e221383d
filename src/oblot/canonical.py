"""Canonical labeling of colored graphs, with the automorphism orbits.

The canonizer assigns labels ``0..n-1`` to the vertices of a colored graph so
that two colored graphs receive byte-identical encodings exactly when a
color-preserving isomorphism exists between them.  The algorithm is classic
individualization-refinement:

* start from the ordered partition of vertices by color (colors ascending),
* refine to an equitable partition by splitting cells on neighbor counts,
  one split per sweep of the vertices' neighbors (see :func:`_refine`),
* when a cell with several vertices remains, branch on each of its members,
* at each discrete leaf, read off a candidate labeling and keep the one whose
  adjacency encoding is lexicographically smallest.

Two leaves with equal encodings differ by an automorphism; those discovered
automorphisms generate the full automorphism group and are also used to prune
branches that are equivalent to ones already explored: each search node keeps
the orbits of its branching cell under those that fix its prefix in a
union-find forest, merging each automorphism once, and skips a sibling in the
tree of an explored one.  An automorphism found against the best leaf also
backjumps (McKay & Piperno, "Practical graph isomorphism, II", JSC 2014): it
fixes the common prefix of the two leaves' paths, so the subtree below that
prefix holding the new leaf is the image of the sibling subtree holding the
best leaf, searched in full before it.  The search abandons it and goes on
with the next sibling.  That keeps the generators few (11 on K12, not 66) and
the first least leaf the one returned.

The search walks the tree depth first on an explicit stack, one branch
generator per node on its current path, so a backjump drops the generators
below its target.  Its depth is bounded by :data:`MAX_SEARCH_DEPTH` alone, not
by the interpreter's recursion limit or the caller's own stack depth: a
deeper search raises :class:`~oblot.errors.BudgetExceededError`, in any
caller.  The search is run once per colored graph by :func:`canonical_form`,
the only entry point: the :class:`CanonicalForm` it returns keeps the
generators, and its ``orbits`` are the connected components of the vertex set
under them, closed on first use.

A caller that already holds automorphisms of the colored graph may pass them
to it as ``seeds``; the class walk in :mod:`oblot.hypergraph` passes the
automorphisms of G that fix the placement it canonizes.  The search then
prunes with them from its first branch.  Pruning by automorphisms keeps the
first least leaf (McKay & Piperno), so the encoding and the labeling are
those of the unseeded search; the form's ``generators`` are the seeds plus
what the search found, and generate the same group.

Configurations are canonized by treating robot counts as vertex colors.  The
pendant-vertex encoding ``configuration_graph`` in ``tests/bruteforce.py``
yields the same equivalence and serves as an independent oracle in the test
suite.
"""

from __future__ import annotations

import struct
from typing import NamedTuple

from .errors import BudgetExceededError, InternalError
from .graphs import ENCODING_LIMIT, Configuration, Frozen, Graph

# The deepest search node, counted in individualized vertices, that the
# canonizer visits; a deeper one raises BudgetExceededError.  It is the
# deepest node a recursive search run by ``python -m oblot canon`` could
# visit under the interpreter's default limit of 1000 frames, so the command
# refuses the same graphs: an edgeless or complete graph with n >= 988.
MAX_SEARCH_DEPTH = 986


class CanonicalForm(Frozen):
    """Order-invariant encoding of a colored graph, plus its automorphisms.

    ``encoding`` is a pure function of the isomorphism class; ``labeling``
    maps each original vertex index to its canonical label.  ``generators``
    are the color-preserving automorphisms the search was seeded with and
    those it discovered, as vertex permutations; they generate the whole
    group.  Equality and hashing use the encoding alone: two forms compare
    equal exactly when the underlying objects are isomorphic, regardless of
    which labeling realized the encoding.
    """

    __slots__ = ("encoding", "labeling", "generators", "_orbits")

    def __init__(
        self, encoding: bytes, labeling: tuple[int, ...], generators: tuple[tuple[int, ...], ...]
    ) -> None:
        self._set(encoding=encoding, labeling=labeling, generators=generators, _orbits=None)

    @property
    def orbits(self) -> OrbitPartition:
        """Vertex orbits, closed from the generators in one breadth-first sweep
        on first use.

        Each orbit is ranked by the minimum canonical label among its
        vertices and the sequence is sorted by rank.
        """
        if self._orbits is None:
            self._set(_orbits=self._close_orbits())
        return self._orbits

    def _close_orbits(self) -> OrbitPartition:
        n = len(self.labeling)
        if not self.generators:
            # a trivial group: singleton orbits, ranked by label; the tuples
            # are built from lists (see graphs.Configuration)
            order = sorted(range(n), key=self.labeling.__getitem__)
            return OrbitPartition(
                orbits=tuple([(v,) for v in order]), ranks=tuple(range(n)), rank_of=self.labeling
            )
        # each orbit is swept from its least vertex, marking each vertex once;
        # the tuples are built from lists (see graphs.Configuration)
        founder = [-1] * n
        found = {}
        for v in range(n):
            if founder[v] >= 0:
                continue
            founder[v] = v
            orbit = [v]
            for u in orbit:
                for gen in self.generators:
                    if founder[w := gen[u]] < 0:
                        founder[w] = v
                        orbit.append(w)
            found[v] = (min(map(self.labeling.__getitem__, orbit)), tuple(sorted(orbit)))
        ranked = sorted(found.values())
        return OrbitPartition(
            orbits=tuple([orbit for _, orbit in ranked]),
            ranks=tuple([r for r, _ in ranked]),
            rank_of=tuple([found[f][0] for f in founder]),
        )

    def _key(self) -> tuple:
        return (self.encoding,)

    def __hash__(self) -> int:
        return hash(self.encoding)

    def hex(self) -> str:
        return self.encoding.hex()


class OrbitPartition(NamedTuple):
    """Vertex orbits under the color-preserving automorphism group.

    ``orbits`` partitions the vertex set; the sequence is sorted by rank,
    where the rank of an orbit is the minimum canonical label among its
    vertices.  Ranks identify orbits everywhere downstream (moves, plans,
    traces) because they are invariant across isomorphic copies.
    ``rank_of[v]``, the rank of vertex v's orbit, is the one table the moves
    layer reads; it is derived from the other two fields.
    """

    orbits: tuple[tuple[int, ...], ...]
    ranks: tuple[int, ...]
    rank_of: tuple[int, ...]


def _refine(adj: tuple[tuple[int, ...], ...], cells: list[list[int]]) -> list[list[int]]:
    """Split cells on neighbor counts until the ordered partition is equitable.

    Each pass tables every vertex's cell, then sweeps the neighbors of each
    vertex of each non-singleton cell once, giving it a count vector over the
    cells.  The first cell whose vectors differ splits on the first cell
    index where they differ: the first target and splitter for which some
    counts differ, so the split sequence, and with it every label, is that of
    a scan of (target, splitter) pairs restarted at the first cell after each
    split.  The fragments replace their cell in place, ordered by ascending
    count, so the process is equivariant under isomorphism: corresponding
    partitions of isomorphic graphs refine to corresponding partitions.
    """
    cells = [sorted(c) for c in cells]
    cell_of = [0] * len(adj)
    renumber = 0  # cells before the last split keep their indices
    while True:
        for i in range(renumber, len(cells)):
            for v in cells[i]:
                cell_of[v] = i
        width = len(cells)
        for ti, target in enumerate(cells):
            if len(target) == 1:
                continue
            vectors = []
            for v in target:
                vec = [0] * width
                for u in adj[v]:
                    vec[cell_of[u]] += 1
                vectors.append(vec)
            if vectors.count(vectors[0]) == len(vectors):
                continue
            # the extreme vectors first differ where not all vectors agree
            split = [*map(int.__eq__, min(vectors), max(vectors))].index(False)
            groups: dict[int, list[int]] = {}
            for v, vec in zip(target, vectors):
                groups.setdefault(vec[split], []).append(v)
            cells[ti : ti + 1] = [groups[cnt] for cnt in sorted(groups)]
            renumber = ti
            break
        else:
            return cells


def _adjacency_bits(n: int, adj: tuple[tuple[int, ...], ...], order: list[int]) -> bytes:
    """Upper-triangular adjacency bits row-major under the given vertex order.

    The pair of positions i < j is bit ``i*n - i*(i+1)/2 + j-i-1``, counted
    from the most significant bit of the first byte; each edge sets its bit
    once, from its earlier endpoint's row.
    """
    size = (n * (n - 1) // 2 + 7) // 8
    pos = [0] * n
    for i, v in enumerate(order):
        pos[v] = i
    bits = 0
    top = 8 * size  # minus row i's first pair index: pair (i, j) is integer bit top + i - j
    for i, v in enumerate(order):
        for u in adj[v]:
            j = pos[u]
            if j > i:
                bits |= 1 << (top + i - j)
        top -= n - 1 - i
    return bits.to_bytes(size, "big")


class _Canonizer:
    """One individualization-refinement search over a colored graph."""

    def __init__(
        self,
        n: int,
        adj: tuple[tuple[int, ...], ...],
        colors: tuple[int, ...],
        seeds: tuple[tuple[int, ...], ...],
    ):
        self.n = n
        self.adj = adj
        self.colors = colors
        self.best_bits: bytes | None = None
        self.best_order: list[int] | None = None
        self.best_path: tuple[int, ...] = ()
        # the best leaf's labeling: vertex -> its position in best_order
        self.best_labeling: list[int] | None = None
        self.generators: list[tuple[int, ...]] = [*seeds]

    def run(self) -> None:
        """Search the tree depth first from the partition by color.

        ``stack`` holds one branch generator per internal node on the
        current path, the root's first; each yields its node's children in
        the order a recursive search would visit them.  A leaf at depth d
        resumes its parent's generator, the one at ``stack[d - 1]``; one
        that backjumps to depth j drops the generators below ``stack[j]``.
        """
        cells: dict[int, list[int]] = {}
        for v, c in enumerate(self.colors):
            cells.setdefault(c, []).append(v)
        node = ([cells[c] for c in sorted(cells)], ())
        stack = []
        while True:
            cells, prefix = node
            if len(prefix) > MAX_SEARCH_DEPTH:
                raise BudgetExceededError(
                    f"the canonizer's search on n = {self.n} vertices is deeper than "
                    f"MAX_SEARCH_DEPTH = {MAX_SEARCH_DEPTH}"
                )
            cells = _refine(self.adj, cells)
            target_index = next((i for i, c in enumerate(cells) if len(c) > 1), None)
            if target_index is None:
                del stack[self._visit_leaf([c[0] for c in cells], prefix) + 1 :]
            else:
                stack.append(self._branches(cells, target_index, prefix))
            while stack and (node := next(stack[-1], None)) is None:
                stack.pop()
            if not stack:
                return

    def _branches(self, cells: list[list[int]], target_index: int, prefix: tuple[int, ...]):
        """The children of the node at ``prefix``, whose refined partition
        is ``cells``: one per member of the first non-singleton cell that no
        automorphism known when it comes up maps onto an explored sibling."""
        target = cells[target_index]
        explored: list[int] = []
        # ``parent``: a union-find forest of the target's orbits under the
        # generators that fix the prefix pointwise (they map the target onto
        # itself, as refinement is equivariant).  Leaves only append
        # generators, so each sibling merges just those found since the last.
        generators = self.generators
        parent: dict[int, int] = {}
        merged = 0
        for w in target:
            if explored:
                for g in generators[merged:]:
                    if all(g[p] == p for p in prefix):
                        if not parent:
                            parent = {v: v for v in target}
                        for v in target:
                            parent[_find(parent, v)] = _find(parent, g[v])
                merged = len(generators)
                if parent:
                    root = _find(parent, w)
                    if any(_find(parent, e) == root for e in explored):
                        continue
            explored.append(w)
            branched = (
                cells[:target_index]
                + [[w], [u for u in target if u != w]]
                + cells[target_index + 1 :]
            )
            yield branched, prefix + (w,)

    def _visit_leaf(self, order: list[int], path: tuple[int, ...]) -> int:
        bits = _adjacency_bits(self.n, self.adj, order)
        if self.best_bits is None or bits < self.best_bits:
            self.best_bits = bits
            self.best_order = order
            self.best_path = path
            labeling = [0] * self.n
            for pos, v in enumerate(order):
                labeling[v] = pos
            self.best_labeling = labeling
        elif bits == self.best_bits:
            # Equal encodings mean the two leaf labelings differ by a
            # color-preserving automorphism: send u to the vertex this leaf
            # placed where the best leaf placed u.  It carries the best
            # leaf's path onto this one and fixes their common prefix, so
            # the subtree below that prefix holding this leaf is the image
            # of the one holding the best leaf, searched in full: resume at
            # the prefix, with that subtree's next sibling.
            self.generators.append(tuple([*map(order.__getitem__, self.best_labeling)]))
            return next(i for i, (a, b) in enumerate(zip(path, self.best_path)) if a != b)
        return len(path)


def _find(parent: dict[int, int], v: int) -> int:
    """The root of ``v``'s tree, halving the path to it on the way."""
    while (p := parent[v]) != v:
        parent[v] = v = parent[p]
    return v


def _encode(n: int, colors_in_canonical_order: list[int], bits: bytes) -> bytes:
    """Three length-prefixed fields: n, the colors and the adjacency bits, all
    as unsigned 32-bit big-endian integers but the bits."""
    return struct.pack(f">3I{n}II", 4, n, 4 * n, *colors_in_canonical_order, len(bits)) + bits


def canonical_form(
    g: Graph, coloring: tuple[int, ...], *, seeds: tuple[tuple[int, ...], ...] = ()
) -> CanonicalForm:
    """Canonical form for a colored graph, deterministic in the input data.

    This is the one entry point to the canonizer; a configuration's form is
    ``canonical_form(c.graph, c.lam)`` and its orbits are that form's
    ``orbits``.  ``seeds``, automorphisms of the colored graph that the
    caller vouches for, prune the search from its first branch and start the
    form's ``generators``; the encoding and labeling do not depend on them.

    The search keeps its path on an explicit stack, one level per
    individualized vertex, and refinement never splits some graphs (edgeless
    or complete ones), so their depth grows with n.  A search that would go
    deeper than :data:`MAX_SEARCH_DEPTH` raises :class:`BudgetExceededError`
    whatever the caller's own stack depth: such a search could not finish in
    reasonable time anyway.
    """
    if len(coloring) != g.n:
        raise InternalError(
            f"coloring length {len(coloring)} does not match vertex count {g.n}"
        )
    colors = tuple(coloring)
    if any(not (isinstance(x, int) and 0 <= x < ENCODING_LIMIT) for x in colors):
        raise InternalError(
            f"coloring {list(colors)} has a color that is not an integer in [0, 2**32)"
        )
    engine = _Canonizer(g.n, g.neighbors, colors, seeds)
    engine.run()
    assert engine.best_order is not None and engine.best_labeling is not None
    return CanonicalForm(
        encoding=_encode(g.n, [colors[v] for v in engine.best_order], engine.best_bits or b""),
        labeling=tuple(engine.best_labeling),
        generators=tuple(engine.generators),
    )


def occupied_orbits(p: OrbitPartition, c: Configuration) -> tuple[int, ...]:
    """Ranks (ascending) of the orbits that carry robots.

    Vertices sharing an orbit are forced by symmetry to carry equal robot
    counts; a violation means the partition does not belong to ``c``.
    """
    occupied: list[int] = []
    for orbit, rank in zip(p.orbits, p.ranks):
        counts = {c.lam[v] for v in orbit}
        if len(counts) > 1:
            raise InternalError(
                f"orbit {orbit} carries unequal robot counts {sorted(counts)}"
            )
        if counts.pop() > 0:
            occupied.append(rank)
    return tuple(occupied)
